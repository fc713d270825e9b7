package schedcheck

import (
	"sort"

	"wasched/internal/des"
	"wasched/internal/sched"
	"wasched/internal/trace"
)

// replayReference is the pre-optimization replay loop, rebuilt-from-scratch
// scheduling state and all: it re-sorts the queue and asks the policy for
// a fresh Round every round, and never skips or carries one. It is kept
// as the oracle for Replay: TestReplayMatchesReferenceOnCorpus and its
// siblings require Replay to produce byte-identical schedules to this
// function.
func replayReference(workload []SimJob, cfg ReplayConfig) *ReplayResult {
	if cfg.Policy == nil {
		panic("schedcheck: Replay needs a policy")
	}
	interval := cfg.Interval
	if interval <= 0 {
		interval = 30 * des.Second
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 50000
	}

	pending := make([]*SimJob, len(workload))
	views := make(map[string]*sched.Job, len(workload))
	for i := range workload {
		j := &workload[i]
		pending[i] = j
		views[j.ID] = &sched.Job{
			ID:          j.ID,
			Fingerprint: j.Fingerprint,
			Nodes:       j.Nodes,
			Limit:       j.Limit,
			Submit:      j.Submit,
			Priority:    j.Priority,
			Rate:        j.EstRate,
			EstRuntime:  j.EstRuntime,
			BBBytes:     j.BBBytes,
		}
	}
	sort.SliceStable(pending, func(a, b int) bool { return pending[a].Submit < pending[b].Submit })

	res := &ReplayResult{
		Policy: cfg.Policy.Name(),
		// Sized up front: every job completes exactly once, and growing the
		// slice in place keeps the replay's alloc count independent of the
		// JobTrace footprint (TestReplayAllocationShape).
		Jobs: make([]trace.JobTrace, 0, len(workload)),
	}
	bbState := newBBReplay(cfg)
	tbfState := newTBFReplay(cfg)
	var running []*runJob
	var waiting []*SimJob
	next := 0 // index into pending of the next arrival

	for round := 0; ; round++ {
		if round >= maxRounds {
			starved(res, len(waiting)+len(running)+(len(pending)-next), maxRounds, running)
			break
		}
		now := des.Time(round) * des.Time(interval)
		// The token layer advances over the interval just elapsed before
		// the completion sweep, so throttled ends are final when checked.
		tbfState.tick(running, now, interval)
		// Completions first, as the controller's end events precede the
		// round that reacts to them.
		kept := running[:0]
		for _, r := range running {
			if r.end <= now {
				jt := r.trace()
				jt.End = r.end.Seconds()
				bbState.complete(r.sim, &jt, r.view.StartedAt, r.end)
				tbfState.complete(r.sim, &jt)
				res.Jobs = append(res.Jobs, jt)
				if r.end > res.Makespan {
					res.Makespan = r.end
				}
				continue
			}
			kept = append(kept, r)
		}
		running = kept
		bbState.release(now)
		for next < len(pending) && pending[next].Submit <= now {
			waiting = append(waiting, pending[next])
			next++
		}
		res.Rounds = round + 1
		if len(waiting) == 0 && len(running) == 0 && next == len(pending) {
			break
		}
		if len(waiting) == 0 {
			continue
		}

		runningViews := make([]*sched.Job, len(running))
		measured := 0.0
		for i, r := range running {
			runningViews[i] = r.view
			measured += r.sim.Rate
		}
		waitingViews := make([]*sched.Job, len(waiting))
		for i, j := range waiting {
			waitingViews[i] = views[j.ID]
		}
		// Algorithm 1 line 2: descending priority, then FIFO by submit
		// time, then by ID.
		sort.SliceStable(waitingViews, func(a, b int) bool {
			x, y := waitingViews[a], waitingViews[b]
			if x.Priority != y.Priority {
				return x.Priority > y.Priority
			}
			if x.Submit != y.Submit {
				return x.Submit < y.Submit
			}
			return x.ID < y.ID
		})
		in := sched.RoundInput{
			Now:                now,
			Running:            runningViews,
			Waiting:            waitingViews,
			MeasuredThroughput: measured,
		}
		decisions, state := sched.RunRound(cfg.Policy, in, cfg.Options)
		if !cfg.SkipRoundChecks {
			checkRound(in, decisions, state, cfg, &res.Check)
		}

		startedIDs := make(map[string]bool)
		for _, d := range decisions {
			if d.StartNow {
				startedIDs[d.Job.ID] = true
			}
		}
		keptWaiting := waiting[:0]
		for _, j := range waiting {
			if !startedIDs[j.ID] {
				keptWaiting = append(keptWaiting, j)
				continue
			}
			if !bbState.admit(j) {
				// Burst-buffer pool full: defer the start, exactly as the
				// controller's admission path keeps the job pending.
				keptWaiting = append(keptWaiting, j)
				continue
			}
			v := views[j.ID]
			v.StartedAt = now
			tbfState.register(j)
			running = append(running, &runJob{sim: j, view: v, end: now.Add(j.Actual)})
		}
		waiting = keptWaiting
	}
	if !cfg.SkipRoundChecks {
		res.Check.Merge(ValidateJobs(res.Jobs, ValidateOptions{Nodes: cfg.Nodes, BBCapacity: cfg.BBCapacity, TBF: cfg.TBFCapacity > 0}))
	}
	return res
}
