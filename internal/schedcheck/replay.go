package schedcheck

import (
	"math"
	"sort"

	"wasched/internal/des"
	"wasched/internal/sched"
	"wasched/internal/tbf"
	"wasched/internal/trace"
)

// SimJob is one job of a replay workload: the scheduler-visible request
// plus the ground truth the replayer uses to advance the simulation. Unlike
// the full prototype there is no file-system model — runtimes and rates are
// fixed inputs — which makes a replay cheap enough to run the same workload
// through every policy in a test.
type SimJob struct {
	ID          string
	Fingerprint string
	Nodes       int
	Limit       des.Duration
	// Actual is the true runtime (must be in (0, Limit]); the job
	// completes this long after it starts.
	Actual des.Duration
	// Rate is the true average throughput in bytes/s, reported to the
	// policies as the measured throughput while the job runs.
	Rate float64
	// EstRate and EstRuntime are the estimates fed to the policy; a
	// workload with EstRate < Rate exercises the measured-throughput
	// guard. EstRuntime zero falls back to Limit, as in the controller.
	EstRate    float64
	EstRuntime des.Duration
	Submit     des.Time
	Priority   int64
	// BBBytes is the job's burst-buffer demand in bytes; only meaningful
	// when the replay's BBCapacity is set.
	BBBytes float64
}

// ReplayConfig configures one replay.
type ReplayConfig struct {
	// Policy schedules the replay; a tbf-straggler TBFPolicy also turns
	// on straggler-aware ordering in the token emulation.
	Policy sched.Policy
	// Options are the backfill engine options (zero value: unlimited
	// backfill, whole queue examined).
	Options sched.Options
	// Interval is the scheduling round period (0 = 30 s, the Slurm
	// default the paper uses).
	Interval des.Duration
	// Nodes is the cluster size for invariant checking.
	Nodes int
	// Limit is the policy's R_limit for bandwidth invariant checking
	// (sched.ThroughputLimit(Policy)); 0 skips the bandwidth check.
	Limit float64
	// BBCapacity, when positive, turns on the burst-buffer emulation:
	// each job's BBBytes is admitted against this shared pool when the
	// job starts (start-now decisions that do not fit are deferred to a
	// later round, mirroring the controller's admission path) and the
	// reservation is held until the job's stage-out drain completes.
	BBCapacity float64
	// BBStageRate and BBDrainRate are the emulated stage-in/stage-out
	// throughputs in bytes/s; 0 means instantaneous. Stage-in is folded
	// into the job's runtime window, the drain extends the reservation
	// past the job's end.
	BBStageRate float64
	BBDrainRate float64
	// TBFCapacity, when positive, turns on the client-side token-bucket
	// emulation: every running job holds a bucket filled at its fair
	// share of this aggregate rate (bytes/s), burst-bounded, and a job
	// whose granted tokens fall short of its true I/O demand runs
	// correspondingly slower (its end extends, capped at its limit).
	// Under-consuming jobs lend unused tokens to starved peers with
	// decay-based reclamation — the AdapTBF protocol the tbf policy
	// family assumes.
	TBFCapacity float64
	// TBFBurst is the bucket depth in fill time (0 = 60 s): a bucket
	// holds at most share × burst bytes of unspent tokens.
	TBFBurst des.Duration
	// TBFServers, when positive, turns on the per-server straggler
	// emulation: each job's streams land on a deterministic server and
	// slow servers inflate the tokens the job needs per byte.
	TBFServers int
	// MaxRounds bounds the replay (0 = 50000); exceeding it is reported
	// as a starvation violation. Archive-scale traces need an explicit
	// budget: a day of simulated time is 2880 rounds.
	MaxRounds int
	// SkipRoundChecks disables the per-round invariant checking (and the
	// final schedule validation), leaving only the schedule itself. The
	// replay benchmark uses it to measure the scheduling hot path alone;
	// corpus and differential runs always keep the checks on.
	SkipRoundChecks bool
	// Progress, when non-nil, is called after every round that completed
	// at least one job, with jobs completed so far and the current
	// simulated time — the hook behind `wasched replay`'s live output.
	Progress func(done int, now des.Time)
}

// ReplayResult is one policy's completed replay.
type ReplayResult struct {
	Policy string
	// Jobs holds the realised schedule in completion order.
	Jobs []trace.JobTrace
	// Running holds the jobs still running when a replay stopped at
	// MaxRounds, End unset; it is empty when every job completed.
	Running []trace.JobTrace
	// Makespan is the last completion time.
	Makespan des.Time
	Rounds   int
	// Scheduled counts the rounds that re-planned the queue with the
	// backfill engine (sched.FullRound). The driver skips the rounds it
	// proves quiet (sched.QuietRound).
	Scheduled int
	// Carried counts the rounds that extended the last executed round's
	// plan instead (sched.CarriedRound): the engine ran over the newly
	// examined jobs alone.
	Carried int
	// Check holds the per-round and schedule-level invariant findings.
	Check Result
}

// runJob is one running job's replay state.
type runJob struct {
	sim  *SimJob
	view *sched.Job
	end  des.Time
}

// trace is r's job record without its end.
func (r *runJob) trace() trace.JobTrace {
	return trace.JobTrace{
		ID:          r.sim.ID,
		Name:        r.sim.Fingerprint,
		Fingerprint: r.sim.Fingerprint,
		Nodes:       r.sim.Nodes,
		Submit:      r.sim.Submit.Seconds(),
		Start:       r.view.StartedAt.Seconds(),
		Limit:       r.sim.Limit.Seconds(),
		Priority:    r.sim.Priority,
	}
}

// starved records the violation of a replay stopped at MaxRounds and the
// jobs it leaves running.
func starved(res *ReplayResult, unfinished, maxRounds int, running []*runJob) {
	res.Check.violatef("starvation", "policy %s: %d jobs still unfinished after %d rounds",
		res.Policy, unfinished, maxRounds)
	for _, r := range running {
		res.Running = append(res.Running, r.trace())
	}
}

// Replay runs the workload through one policy on a round-based replayer
// that mirrors the controller's loop: every Interval it completes finished
// jobs, queues the arrivals, runs one round through a sched.Driver (the
// controller's) and starts the selected jobs. Each executed round is
// invariant checked (node capacity, bandwidth headroom, decision-state
// exclusivity), each quiet and carried round is held to a from-scratch
// one (sched.Driver.CheckSkippedRounds), and the final schedule goes
// through ValidateJobs. The replay keeps the running set in start order
// and admits BB starts in arrival order; BB drain releases are no driver
// event, since the scheduler's BB dimension books [start, start+limit)
// and never sees drains. Without a token layer, a round with an empty
// queue jumps the clock to the first round with an arrival, a completion
// or a BB drain release: the rounds in between do nothing.
func Replay(workload []SimJob, cfg ReplayConfig) *ReplayResult {
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

	// One contiguous view array, indexed like workload, instead of one
	// allocation per job; the queues hold indices into both.
	pending := make([]int32, len(workload))
	viewArr := make([]sched.Job, len(workload))
	for i := range workload {
		j := &workload[i]
		pending[i] = int32(i)
		viewArr[i] = sched.Job{
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
	sort.SliceStable(pending, func(a, b int) bool { return workload[pending[a]].Submit < workload[pending[b]].Submit })

	res := &ReplayResult{
		Policy: cfg.Policy.Name(),
		// Sized up front: every job completes exactly once, and growing the
		// slice in place keeps the replay's alloc count independent of the
		// JobTrace footprint (the bench-replay allocs/op gate).
		Jobs: make([]trace.JobTrace, 0, len(workload)),
	}
	drv := sched.NewDriver(cfg.Policy, cfg.Options)
	if !cfg.SkipRoundChecks {
		drv.CheckSkippedRounds(func(detail string) { res.Check.violatef("skipped-round", "%s", detail) })
	}
	bbState := newBBReplay(cfg)
	tbfState := newTBFReplay(cfg)
	var (
		running      []*runJob
		waiting      []int32 // arrival order, as the controller holds it
		runningViews []*sched.Job
	)
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
		completed := false
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
				drv.Finished(r.view, r.end)
				completed = true
				continue
			}
			kept = append(kept, r)
		}
		running = kept
		bbState.release(now)
		if completed && cfg.Progress != nil {
			cfg.Progress(len(res.Jobs), now)
		}
		for next < len(pending) && workload[pending[next]].Submit <= now {
			waiting = append(waiting, pending[next])
			drv.Add(&viewArr[pending[next]])
			next++
		}
		res.Rounds = round + 1
		if len(waiting) == 0 && len(running) == 0 && next == len(pending) {
			break
		}
		if len(waiting) == 0 {
			if tbfState == nil {
				// Nothing happens in an empty-queue round before the next
				// arrival, completion or BB drain release: go to the round
				// that has the first of them. Such rounds never reach the
				// driver, so its trim clock does not move.
				round = idleUntil(workload, pending[next:], running, bbState, interval, maxRounds) - 1
				res.Rounds = round + 1
			}
			continue
		}

		runningViews = runningViews[:0]
		measured := 0.0
		for _, r := range running {
			runningViews = append(runningViews, r.view)
			measured += r.sim.Rate
		}
		in := sched.RoundInput{
			Now:                now,
			Running:            runningViews,
			MeasuredThroughput: measured,
		}
		decisions, state, kind := drv.Round(&in)
		if kind == sched.QuietRound {
			continue
		}
		if !cfg.SkipRoundChecks {
			checkRound(in, decisions, state, cfg, &res.Check)
		}
		anyStarted := false
		for _, d := range decisions {
			if d.StartNow {
				d.Job.StartedAt = now
				anyStarted = true
			}
		}
		if !anyStarted {
			continue
		}
		keptWaiting := waiting[:0]
		for _, i := range waiting {
			j, v := &workload[i], &viewArr[i]
			if v.StartedAt != now {
				keptWaiting = append(keptWaiting, i)
				continue
			}
			if !bbState.admit(j) {
				// Burst-buffer pool full: defer the start, exactly as the
				// controller's admission path keeps the job pending.
				drv.Refused(v)
				keptWaiting = append(keptWaiting, i)
				continue
			}
			drv.Started(v)
			tbfState.register(j)
			running = append(running, &runJob{sim: j, view: v, end: now.Add(j.Actual)})
		}
		waiting = keptWaiting
	}
	res.Scheduled, res.Carried, _ = drv.Rounds()
	if !cfg.SkipRoundChecks {
		res.Check.Merge(ValidateJobs(res.Jobs, ValidateOptions{Nodes: cfg.Nodes, BBCapacity: cfg.BBCapacity, TBF: cfg.TBFCapacity > 0}))
	}
	return res
}

// idleUntil is the first round after an empty-queue round at which
// anything can happen: the next arrival, the first completion or the first
// BB drain release, and at most maxRounds.
func idleUntil(workload []SimJob, pending []int32, running []*runJob, bb *bbReplay, interval des.Duration, maxRounds int) int {
	at := bb.nextRelease()
	if len(pending) > 0 {
		at = min(at, workload[pending[0]].Submit)
	}
	for _, r := range running {
		at = min(at, r.end)
	}
	iv := des.Time(interval)
	if at == des.MaxTime || (at+iv-1)/iv >= des.Time(maxRounds) {
		return maxRounds
	}
	return int((at + iv - 1) / iv)
}

// bbReplay emulates the shared burst-buffer pool during a replay: start-now
// decisions whose demand does not fit the free pool are deferred (the job
// stays waiting, exactly as the controller's admission path keeps it
// pending), and each admitted reservation is held until the job's stage-out
// drain completes. All methods are nil-safe, so a replay without BBCapacity
// pays only a pointer check per call — the replay benchmark's allocation
// profile is untouched. Replay and replayReference share this state machine
// so the incremental path stays byte-identical to the oracle.
type bbReplay struct {
	capacity  float64
	stageRate float64 // bytes/s, 0 = instant
	drainRate float64 // bytes/s, 0 = instant
	occupied  float64
	drains    []bbDrain
}

// bbDrain is one completed job's outstanding reservation, released once the
// replay clock passes its drain-end time.
type bbDrain struct {
	at    des.Time
	bytes float64
}

func newBBReplay(cfg ReplayConfig) *bbReplay {
	if cfg.BBCapacity <= 0 {
		return nil
	}
	return &bbReplay{capacity: cfg.BBCapacity, stageRate: cfg.BBStageRate, drainRate: cfg.BBDrainRate}
}

// admit reserves j's demand if it fits the free pool; a false return defers
// the start to a later round. Jobs without demand always pass.
//
//waschedlint:hotpath
func (b *bbReplay) admit(j *SimJob) bool {
	if b == nil || !(j.BBBytes > 0) {
		return true
	}
	if b.occupied+j.BBBytes > b.capacity {
		return false
	}
	b.occupied += j.BBBytes
	return true
}

// nextRelease is the earliest drain end still held, MaxTime when none is.
func (b *bbReplay) nextRelease() des.Time {
	at := des.MaxTime
	if b != nil {
		for _, d := range b.drains {
			at = min(at, d.at)
		}
	}
	return at
}

// release frees the reservation of every drain that finished by now.
// Reservations release on the round boundary at or after their drain-end —
// never early — so round-based admission is conservative with respect to
// the continuous-time occupancy the validator sweeps.
//
//waschedlint:hotpath
func (b *bbReplay) release(now des.Time) {
	if b == nil || len(b.drains) == 0 {
		return
	}
	kept := b.drains[:0]
	for _, d := range b.drains {
		if d.at <= now {
			b.occupied -= d.bytes
			if b.occupied < 0 {
				b.occupied = 0
			}
			continue
		}
		kept = append(kept, d)
	}
	b.drains = kept
}

// complete fills jt's burst-buffer fields for a finished job and queues the
// reservation release at the drain's end. The replay folds stage-in into the
// job's runtime window (done at start + bytes/stage-rate, capped at the
// job's end) and drains the full reservation after the job ends.
//
//waschedlint:hotpath
func (b *bbReplay) complete(sim *SimJob, jt *trace.JobTrace, start, end des.Time) {
	if b == nil || !(sim.BBBytes > 0) {
		return
	}
	staged := start
	if b.stageRate > 0 {
		staged = start.Add(des.FromSeconds(sim.BBBytes / b.stageRate))
		if staged > end {
			staged = end
		}
	}
	drainEnd := end
	if b.drainRate > 0 {
		drainEnd = end.Add(des.FromSeconds(sim.BBBytes / b.drainRate))
	}
	b.drains = append(b.drains, bbDrain{at: drainEnd, bytes: sim.BBBytes})
	jt.BBBytes = sim.BBBytes
	jt.BBStageInDone = staged.Seconds()
	jt.BBComputeStart = staged.Seconds()
	jt.BBDrainEnd = drainEnd.Seconds()
	jt.BBDrained = sim.BBBytes
}

// Token-bucket emulation constants. The replay takes tbf's burst default
// (two scheduling rounds of fill here) and credit decay (a lender's
// reclaimable credit halves every round: "decay-based reclamation" —
// unclaimed credit fades and the system returns to plain fair share).
// The straggler alpha is the fraction of the health gap a straggler-aware
// client recovers by reordering its requests toward healthy servers.
const (
	tbfStragglerAlpha = 0.6
	tbfHealthMin      = 0.4
)

// tbfReplay emulates the client-side token-bucket bandwidth layer during a
// replay: one bucket per running job, filled each round at the job's fair
// share of the configured aggregate capacity (burst-bounded), with
// under-consuming jobs lending unused tokens to starved peers
// (decay-based reclamation gives past lenders priority on the shared
// pool). A job granted fraction f of its demand progresses at f× speed,
// so its end extends by (1−f)·dt per round, capped at its limit — the
// timeout semantics of the live controller. All methods are nil-safe, so
// a replay without TBFCapacity pays only a pointer check per round and
// the replay benchmark's allocation profile is untouched. Replay and
// replayReference share this state machine so the incremental path stays
// byte-identical to the oracle.
//
// The slowdown is accounted in time, not bytes: with an infinite fill
// rate every bucket covers its demand exactly (got == need, f == 1.0
// bitwise), every extension is exactly zero, and the schedule is
// byte-identical to the unthrottled baseline — the M6 metamorphic
// property the differential harness enforces.
type tbfReplay struct {
	capacity float64 // aggregate fill rate, bytes/s
	burstSec float64 // bucket depth in seconds of fair-share fill
	servers  int     // 0 = uniform PFS, no straggler emulation
	aware    bool    // straggler-aware request ordering
	buckets  map[*SimJob]*tbfBucket
	round    int64 // tick counter, drives the per-server health schedule
}

// tbfBucket is one running job's token state plus its lifetime totals for
// the trace invariants (delivered ≤ granted, borrowed attributable).
type tbfBucket struct {
	balance float64 // unspent tokens, bytes
	credit  float64 // lent tokens still reclaimable (decays per round)
	server  int

	granted   float64 // tokens received: own fill + borrowed
	delivered float64 // tokens spent on actual I/O
	borrowed  float64 // tokens received from the shared lend pool
	lent      float64 // tokens lent into the pool

	// Per-tick scratch (valid within one tick call).
	roundNeed float64
	roundGot  float64
	roundDT   float64
}

func newTBFReplay(cfg ReplayConfig) *tbfReplay {
	if cfg.TBFCapacity <= 0 {
		return nil
	}
	burst := cfg.TBFBurst.Seconds()
	if burst <= 0 {
		burst = tbf.DefaultBurstSeconds
	}
	// A tbf-straggler policy turns on straggler-aware request ordering:
	// the token layer shifts a job's requests toward healthy servers,
	// recovering most of the straggler penalty (Tavakoli et al.).
	tp, _ := cfg.Policy.(sched.TBFPolicy)
	return &tbfReplay{
		capacity: cfg.TBFCapacity,
		burstSec: burst,
		servers:  cfg.TBFServers,
		aware:    tp.Straggler,
		buckets:  make(map[*SimJob]*tbfBucket),
	}
}

// register opens a bucket for a job that just started, pinning its streams
// to a deterministic server when the straggler emulation is on.
func (b *tbfReplay) register(j *SimJob) {
	if b == nil {
		return
	}
	bk := &tbfBucket{}
	if b.servers > 0 {
		bk.server = tbf.ServerOf(j.ID, b.servers)
	}
	b.buckets[j] = bk
}

// health is the deterministic per-(round, server) straggler schedule: most
// servers run at full speed, but a quarter of (round, server) pairs are
// stragglers at 0.4–0.65× — the balls-into-bins tail the pfs model
// exhibits, reduced to a pure function so both replay paths see the same
// environment with no shared RNG.
func (b *tbfReplay) health(server int) float64 {
	x := uint64(b.round)*0x9e3779b97f4a7c15 ^ (uint64(server)+1)*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	u := float64(x>>11) / float64(1<<53)
	if u > 0.25 {
		return 1.0
	}
	return tbfHealthMin + u
}

// tick advances the token layer over the interval ending at now: refill at
// fair share, consume against demand, lend surplus to starved peers
// (reclaim-first, then pro-rata), and stretch the ends of jobs whose
// grants fell short. Iteration is over the running slice — never the
// bucket map — so both replay paths process jobs in the same order.
//
//waschedlint:hotpath
func (b *tbfReplay) tick(running []*runJob, now des.Time, interval des.Duration) {
	if b == nil {
		return
	}
	b.round++
	n := len(running)
	if n == 0 {
		return
	}
	share := b.capacity / float64(n) //waschedlint:allow floatguard n >= 1 here
	burst := share * b.burstSec
	prev := now.Add(-interval)
	intervalSec := interval.Seconds()

	hBest := 1.0
	if b.servers > 0 && b.aware {
		hBest = b.health(0)
		for s := 1; s < b.servers; s++ {
			if h := b.health(s); h > hBest {
				hBest = h
			}
		}
	}

	totalDeficit, totalSurplus := 0.0, 0.0
	for _, r := range running {
		bk := b.buckets[r.sim]
		if bk == nil {
			continue
		}
		dt := intervalSec
		if r.end < now {
			dt = r.end.Sub(prev).Seconds()
		}
		if dt <= 0 {
			bk.roundNeed, bk.roundGot, bk.roundDT = 0, 0, 0
			totalSurplus += bk.balance
			continue
		}
		// Refill at fair share into the burst-bounded bucket; granted
		// counts only what actually lands.
		refill := share * dt
		if room := burst - bk.balance; refill > room {
			refill = room
		}
		if refill > 0 {
			bk.balance += refill
			bk.granted += refill
		}
		need := 0.0
		if r.sim.Rate > 0 {
			h := 1.0
			if b.servers > 0 {
				h = b.health(bk.server)
				if b.aware {
					h += tbfStragglerAlpha * (hBest - h)
				}
			}
			// A job on a slow server needs more token-bytes per byte of
			// useful I/O; straggler-aware ordering recovers most of it.
			need = r.sim.Rate * dt / h //waschedlint:allow floatguard h >= tbfHealthMin
		}
		got := need
		if got > bk.balance {
			got = bk.balance
		}
		bk.balance -= got
		bk.delivered += got
		bk.roundNeed, bk.roundGot, bk.roundDT = need, got, dt
		totalDeficit += need - got
		totalSurplus += bk.balance
	}

	if totalDeficit > 0 && totalSurplus > 0 {
		pool := totalDeficit
		if pool > totalSurplus {
			pool = totalSurplus
		}
		lendFrac := pool / totalSurplus //waschedlint:allow floatguard surplus > 0 checked
		for _, r := range running {
			bk := b.buckets[r.sim]
			if bk == nil || bk.balance <= 0 {
				continue
			}
			lend := bk.balance * lendFrac
			bk.balance -= lend
			bk.lent += lend
			bk.credit += lend
		}
		// Reclaim first: past lenders with outstanding credit have
		// priority claim on the pool, up to min(credit, deficit).
		totalClaim := 0.0
		for _, r := range running {
			bk := b.buckets[r.sim]
			if bk == nil {
				continue
			}
			c := bk.roundNeed - bk.roundGot
			if c > bk.credit {
				c = bk.credit
			}
			if c > 0 {
				totalClaim += c
			}
		}
		if totalClaim > 0 {
			frac := 1.0
			if totalClaim > pool {
				frac = pool / totalClaim //waschedlint:allow floatguard claim > 0 checked
			}
			for _, r := range running {
				bk := b.buckets[r.sim]
				if bk == nil {
					continue
				}
				c := bk.roundNeed - bk.roundGot
				if c > bk.credit {
					c = bk.credit
				}
				if c <= 0 {
					continue
				}
				take := c * frac
				bk.credit -= take
				bk.roundGot += take
				bk.borrowed += take
				bk.granted += take
				bk.delivered += take
				pool -= take
				totalDeficit -= take
			}
		}
		// Remaining pool pro-rata over the remaining deficits.
		if pool > 0 && totalDeficit > 0 {
			frac := pool / totalDeficit //waschedlint:allow floatguard deficit > 0 checked
			if frac > 1 {
				frac = 1
			}
			for _, r := range running {
				bk := b.buckets[r.sim]
				if bk == nil {
					continue
				}
				d := bk.roundNeed - bk.roundGot
				if d <= 0 {
					continue
				}
				take := d * frac
				bk.roundGot += take
				bk.borrowed += take
				bk.granted += take
				bk.delivered += take
			}
		}
	}

	for _, r := range running {
		bk := b.buckets[r.sim]
		if bk == nil {
			continue
		}
		bk.credit *= tbf.CreditDecay
		if bk.credit < 1 {
			bk.credit = 0 // sub-byte credit: reclaimed by decay
		}
		if bk.roundNeed <= 0 || bk.roundDT <= 0 {
			continue
		}
		f := bk.roundGot / bk.roundNeed //waschedlint:allow floatguard need > 0 checked
		if f >= 1 {
			continue
		}
		end := r.end.Add(des.FromSeconds(bk.roundDT * (1 - f)))
		if lim := r.view.StartedAt.Add(r.view.Limit); end > lim {
			end = lim
		}
		r.end = end
	}
}

// complete fills jt's token-bucket fields for a finished job and closes
// its bucket.
//
//waschedlint:hotpath
func (b *tbfReplay) complete(sim *SimJob, jt *trace.JobTrace) {
	if b == nil {
		return
	}
	bk := b.buckets[sim]
	if bk == nil {
		return
	}
	jt.TBFGranted = bk.granted
	jt.TBFDelivered = bk.delivered
	jt.TBFBorrowed = bk.borrowed
	jt.TBFLent = bk.lent
	delete(b.buckets, sim)
}

// checkRound enforces the single-round safety invariants on one backfill
// round's decisions (the property-test invariants, applied to every replay
// round):
//
//   - decision exclusivity: exactly one of StartNow/Reserved/Skipped;
//   - future reservations: a reserved start is strictly after now;
//   - node capacity: running + started jobs fit in N nodes;
//   - bandwidth headroom: the clamped estimated rates of the started jobs
//     fit in the headroom the running set (or the measured throughput,
//     whichever is higher) leaves under R_limit;
//   - backfill budget: no more reservations than BackfillMax;
//   - diagnostics sanity: no NaN/Inf and no negative adjusted target.
func checkRound(in sched.RoundInput, decisions []sched.Decision, round sched.Round, cfg ReplayConfig, res *Result) {
	usedNodes := 0
	baseRate := 0.0
	for _, j := range in.Running {
		usedNodes += j.Nodes
		r := j.Rate
		if r > cfg.Limit && cfg.Limit > 0 {
			r = cfg.Limit
		}
		baseRate += r
	}
	if in.MeasuredThroughput > baseRate {
		baseRate = in.MeasuredThroughput
	}
	startedRate := 0.0
	reserved := 0
	for _, d := range decisions {
		states := 0
		if d.StartNow {
			states++
		}
		if d.Reserved {
			states++
		}
		if d.Skipped {
			states++
		}
		if states != 1 {
			res.violatef("decision-exclusive", "%v job %s in %d decision states", in.Now, d.Job.ID, states)
		}
		if d.Reserved {
			reserved++
			if d.PlannedStart <= in.Now {
				res.violatef("future-reservation", "%v job %s reserved at %v, not after now", in.Now, d.Job.ID, d.PlannedStart)
			}
		}
		if d.StartNow {
			usedNodes += d.Job.Nodes
			r := d.Job.Rate
			if r > cfg.Limit && cfg.Limit > 0 {
				r = cfg.Limit
			}
			if r > 0 {
				startedRate += r
			}
		}
	}
	if usedNodes > cfg.Nodes {
		res.violatef("node-capacity", "%v: %d nodes allocated on a %d-node cluster", in.Now, usedNodes, cfg.Nodes)
	}
	if cfg.Limit > 0 {
		headroom := cfg.Limit - baseRate
		if headroom < 0 {
			headroom = 0
		}
		if startedRate > headroom*1.0001+1 {
			res.violatef("bandwidth-headroom", "%v: started rate %.3g exceeds headroom %.3g (base %.3g, measured %.3g)",
				in.Now, startedRate, headroom, baseRate, in.MeasuredThroughput)
		}
	}
	if max := cfg.Options.BackfillMax; max != sched.Unlimited && reserved > max {
		res.violatef("backfill-budget", "%v: %d reservations made with BackfillMax=%d", in.Now, reserved, max)
	}
	if diag, ok := round.(sched.Diagnoser); ok {
		// Report in sorted key order: violation text must be identical
		// across replays, so map order must never reach it.
		diags := diag.Diagnostics()
		keys := make([]string, 0, len(diags))
		for k := range diags {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if v := diags[k]; math.IsNaN(v) || math.IsInf(v, 0) {
				res.violatef("diagnostics-finite", "%v: diagnostic %q is %v", in.Now, k, v)
			}
		}
		if at, ok := diags["adjusted_target"]; ok && at < 0 {
			res.violatef("diagnostics-finite", "%v: adjusted target %g is negative", in.Now, at)
		}
	}
}
