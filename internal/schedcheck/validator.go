package schedcheck

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"

	"wasched/internal/pfs"
	"wasched/internal/trace"
)

// timeEps absorbs the float64 seconds representation of microsecond
// simulation timestamps in trace records.
const timeEps = 1e-6

// throughputSlack is the fraction by which sampled throughput may exceed
// the throughput limit before ValidateRun warns. The guard legitimately
// over-books while estimates lag measurements, so this is a soft check.
const throughputSlack = 0.25

// ValidateOptions configure a schedule validation pass.
type ValidateOptions struct {
	// Nodes is the cluster size N; 0 skips the capacity sweep.
	Nodes int
	// ThroughputLimit is the policy's R_limit in bytes/s for the soft
	// throughput check of ValidateRun; 0 skips it (the default node policy
	// has no limit).
	ThroughputLimit float64
	// BBCapacity is the shared burst-buffer pool size in bytes; when
	// positive, the burst-buffer invariants (bb-capacity, bb-stage-in,
	// bb-drain-attribution) are enforced over traces carrying BBBytes.
	BBCapacity float64
	// TBF, when true, enforces the token-bucket invariants
	// (tbf-conservation, tbf-borrow-attribution) over traces carrying
	// token accounting — set it for runs under the client-side bandwidth
	// layer.
	TBF bool
}

// ValidateJobs enforces the schedule-level invariants over completed job
// traces:
//
//   - submit-before-start: no job starts before its submission;
//   - start-before-end: no job ends before it starts;
//   - limit-respected: no job runs past its requested limit L_j;
//   - node-capacity: at no instant do concurrently running jobs hold more
//     than N nodes (reservations released on early finishes cannot be
//     double-used — an over-subscription here means a tracker leaked);
//   - node-assignment-identity: when a trace carries the allocated node
//     names (NodesUsed), the allocation must match the request — exactly
//     Nodes distinct names — and no two jobs may hold the same named node
//     at the same instant (node-double-booked). The count-based capacity
//     sweep cannot see a schedule that stays under N nodes in total while
//     placing two jobs on one node; this check can.
//   - fifo-class-order: within a class of identical jobs (fingerprint,
//     nodes, limit, priority — hence identical estimates every round), no
//     attempt starts while an identical job ahead of it in queue order is
//     still pending. Backfill may reorder *different* jobs, but passing
//     over an identical one means a job was delayed past its reservation
//     by a later arrival. The check is requeue-aware: each attempt is
//     ordered by its own eligible time (Eligible, falling back to Submit),
//     so a job preempted mid-run is only "pending" between its requeue and
//     its restart — later twins that started during its first run are
//     legitimate, later twins that jumped it while it waited again are
//     violations.
//
// Never-started jobs are skipped.
func ValidateJobs(jobs []trace.JobTrace, opts ValidateOptions) Result {
	var res Result
	type interval struct {
		t     float64
		nodes int // +n at start, -n at end
	}
	// The checks see started jobs only. A replay records no other kind,
	// so the input serves as is; only a trace with never-started jobs
	// pays for a filtered copy.
	started := jobs
	if slices.ContainsFunc(jobs, neverStarted) {
		started = slices.DeleteFunc(slices.Clone(jobs), neverStarted)
	}
	var events []interval
	if opts.Nodes > 0 {
		events = make([]interval, 0, 2*len(started))
	}
	for i := range started {
		j := &started[i]
		res.JobsChecked++
		if j.Start < j.Submit-timeEps {
			res.violatef("submit-before-start", "job %s started %.3fs before submit (%.3f < %.3f)",
				j.ID, j.Submit-j.Start, j.Start, j.Submit)
		}
		if j.End < j.Start-timeEps {
			res.violatef("start-before-end", "job %s ended at %.3f before its start %.3f", j.ID, j.End, j.Start)
		}
		if j.Limit > 0 && j.End-j.Start > j.Limit+timeEps {
			res.violatef("limit-respected", "job %s ran %.3fs, past its %.3fs limit", j.ID, j.End-j.Start, j.Limit)
		}
		if j.Nodes < 1 {
			res.violatef("positive-nodes", "job %s ran on %d nodes", j.ID, j.Nodes)
			continue
		}
		if opts.Nodes > 0 && j.End > j.Start {
			events = append(events, interval{t: j.Start, nodes: j.Nodes}, interval{t: j.End, nodes: -j.Nodes})
		}
	}
	if opts.Nodes > 0 {
		// Sweep: releases before acquisitions at the same instant (a job
		// may start the moment another ends on the same node).
		slices.SortFunc(events, func(a, b interval) int {
			if c := cmp.Compare(a.t, b.t); c != 0 {
				return c
			}
			return cmp.Compare(a.nodes, b.nodes)
		})
		used, worst, worstAt := 0, 0, 0.0
		for _, e := range events {
			used += e.nodes
			if used > worst {
				worst, worstAt = used, e.t
			}
		}
		if worst > opts.Nodes {
			res.violatef("node-capacity", "%d nodes in use at t=%.3fs on a %d-node cluster", worst, worstAt, opts.Nodes)
		}
	}
	checkNodeIdentity(started, &res)
	checkClassOrder(started, &res)
	if opts.BBCapacity > 0 {
		checkBBTraces(started, opts.BBCapacity, &res)
	}
	if opts.TBF {
		checkTBFTraces(started, &res)
	}
	return res
}

// checkTBFTraces enforces the token-bucket conservation invariants over
// completed job traces:
//
//   - tbf-conservation: every token field is finite and non-negative, a
//     job's delivered bytes never exceed the tokens granted to it (no
//     bucket runs a negative balance), and the borrowed part never
//     exceeds the grant it is part of;
//   - tbf-borrow-attribution: across the schedule, borrowed tokens are
//     attributable to lenders — the sum of borrows cannot exceed the sum
//     of lends.
func checkTBFTraces(jobs []trace.JobTrace, res *Result) {
	totalBorrowed, totalLent := 0.0, 0.0
	for _, j := range jobs {
		for _, f := range [...]struct {
			name string
			v    float64
		}{
			{"granted", j.TBFGranted},
			{"delivered", j.TBFDelivered},
			{"borrowed", j.TBFBorrowed},
			{"lent", j.TBFLent},
		} {
			if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
				res.violatef("tbf-conservation", "job %s: %s tokens %g (must be finite and non-negative)",
					j.ID, f.name, f.v)
			}
		}
		if tbfExceeds(j.TBFDelivered, j.TBFGranted) {
			res.violatef("tbf-conservation", "job %s delivered %.6g token-bytes but was granted only %.6g",
				j.ID, j.TBFDelivered, j.TBFGranted)
		}
		if tbfExceeds(j.TBFBorrowed, j.TBFGranted) {
			res.violatef("tbf-conservation", "job %s borrowed %.6g token-bytes, more than its %.6g total grant",
				j.ID, j.TBFBorrowed, j.TBFGranted)
		}
		totalBorrowed += j.TBFBorrowed
		totalLent += j.TBFLent
	}
	if tbfExceeds(totalBorrowed, totalLent) {
		res.violatef("tbf-borrow-attribution", "%.6g token-bytes borrowed but only %.6g lent — borrows must be attributable to lenders",
			totalBorrowed, totalLent)
	}
}

// tbfBytesEps is the absolute slack for token-byte comparisons; the
// relative term in tbfExceeds absorbs accumulator rounding on totals that
// reach 1e13 bytes and beyond over a long run.
const tbfBytesEps = 1.0

// tbfExceeds reports whether a exceeds b beyond token rounding noise.
func tbfExceeds(a, b float64) bool {
	return a > b+tbfBytesEps+1e-9*math.Abs(b)
}

// bbBytesEps absorbs float association noise in byte-valued sweeps; real
// burst-buffer demands are megabytes and up.
const bbBytesEps = 1e-3

// bbGiBEps is the GiB-scale sibling for the sampled occupancy series,
// which records GiB: adding the bytes-scale epsilon to a GiB-valued
// bound would quietly grant ~1 MiB of slack.
const bbGiBEps = bbBytesEps / pfs.GiB

// checkBBTraces enforces the burst-buffer invariants over completed job
// traces:
//
//   - bb-capacity: at no instant do held reservations — each spanning
//     [Start, max(End, BBDrainEnd)) — exceed the pool capacity;
//   - bb-stage-in: a staged attempt's stage-in completes inside
//     [Start, BBComputeStart], and compute starts within the runtime
//     window — jobs must not compute before their input is resident;
//   - bb-drain-attribution: an attempt drains at most its reservation,
//     and only after its end — every drained byte is attributable to a
//     completed (or preempted) attempt's dirty data.
func checkBBTraces(jobs []trace.JobTrace, capacity float64, res *Result) {
	type interval struct {
		t     float64
		bytes float64 // +bytes at start, -bytes at release
	}
	var events []interval
	for _, j := range jobs {
		if j.BBBytes <= 0 {
			continue
		}
		if j.BBBytes > capacity+bbBytesEps {
			res.violatef("bb-capacity", "job %s reserves %.3g bytes on a %.3g-byte pool", j.ID, j.BBBytes, capacity)
			continue
		}
		if j.BBComputeStart > 0 {
			if j.BBStageInDone < j.Start-timeEps || j.BBStageInDone > j.BBComputeStart+timeEps {
				res.violatef("bb-stage-in", "job %s: stage-in done at %.3f outside [start %.3f, compute %.3f]",
					j.ID, j.BBStageInDone, j.Start, j.BBComputeStart)
			}
			if j.BBComputeStart > j.End+timeEps {
				res.violatef("bb-stage-in", "job %s: compute start %.3f after end %.3f", j.ID, j.BBComputeStart, j.End)
			}
		}
		if j.BBDrained > j.BBBytes+bbBytesEps {
			res.violatef("bb-drain-attribution", "job %s drained %.3g bytes of a %.3g-byte reservation",
				j.ID, j.BBDrained, j.BBBytes)
		}
		if j.BBDrained > 0 && j.BBDrainEnd < j.End-timeEps {
			res.violatef("bb-drain-attribution", "job %s: drain ended at %.3f before the job's end %.3f",
				j.ID, j.BBDrainEnd, j.End)
		}
		release := j.End
		if j.BBDrainEnd > release {
			release = j.BBDrainEnd
		}
		if release > j.Start {
			events = append(events, interval{t: j.Start, bytes: j.BBBytes}, interval{t: release, bytes: -j.BBBytes})
		}
	}
	// Sweep: releases before acquisitions at the same instant (a drain may
	// free the pool the moment another job's stage-in claims it).
	sort.Slice(events, func(a, b int) bool {
		if events[a].t != events[b].t {
			return events[a].t < events[b].t
		}
		return events[a].bytes < events[b].bytes
	})
	held, worst, worstAt := 0.0, 0.0, 0.0
	for _, e := range events {
		held += e.bytes
		if held > worst {
			worst, worstAt = held, e.t
		}
	}
	if worst > capacity+bbBytesEps {
		res.violatef("bb-capacity", "%.6g bytes reserved at t=%.3fs on a %.6g-byte pool", worst, worstAt, capacity)
	}
}

// checkNodeIdentity validates traces that carry allocated node names:
// the assignment arity matches the request, names are distinct within a
// job, and no named node hosts two jobs at once. Traces without names
// (e.g. the lightweight replayer's) are skipped — the count-based
// capacity sweep still covers them.
func checkNodeIdentity(jobs []trace.JobTrace, res *Result) {
	type hold struct {
		start, end float64
		id         string
	}
	perNode := make(map[string][]hold)
	for _, j := range jobs {
		if len(j.NodesUsed) == 0 {
			continue
		}
		if len(j.NodesUsed) != j.Nodes {
			res.violatef("node-assignment-identity",
				"job %s requested %d nodes but holds %d names %v", j.ID, j.Nodes, len(j.NodesUsed), j.NodesUsed)
		}
		seen := make(map[string]bool, len(j.NodesUsed))
		for _, n := range j.NodesUsed {
			if seen[n] {
				res.violatef("node-assignment-identity", "job %s holds node %s twice", j.ID, n)
				continue
			}
			seen[n] = true
			if j.End > j.Start {
				perNode[n] = append(perNode[n], hold{start: j.Start, end: j.End, id: j.ID})
			}
		}
	}
	names := make([]string, 0, len(perNode))
	for n := range perNode {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		holds := perNode[n]
		// A job may start the instant another releases the node, so sort
		// ends-first at equal times and flag only true overlaps.
		sort.Slice(holds, func(a, b int) bool {
			if holds[a].start != holds[b].start {
				return holds[a].start < holds[b].start
			}
			return holds[a].end < holds[b].end
		})
		open := holds[0]
		for i := 1; i < len(holds); i++ {
			cur := holds[i]
			if cur.start < open.end-timeEps {
				res.violatef("node-double-booked",
					"node %s: job %s [%.3f,%.3f) overlaps job %s [%.3f,%.3f)",
					n, cur.id, cur.start, cur.end, open.id, open.start, open.end)
			}
			if cur.end > open.end {
				open = cur
			}
		}
	}
}

// neverStarted reports a job that never ran.
func neverStarted(j trace.JobTrace) bool { return j.Start == 0 && j.End == 0 }

// classKey identifies jobs the scheduler cannot distinguish: same
// fingerprint (hence same estimates), same node request, same limit, same
// priority.
type classKey struct {
	fp       string
	nodes    int
	limit    float64
	priority int64
}

func classOf(j *trace.JobTrace) classKey {
	return classKey{fp: j.Fingerprint, nodes: j.Nodes, limit: j.Limit, priority: j.Priority}
}

// eligibleAt is when an attempt entered the pending queue: its recorded
// Eligible time (set by requeue-aware recorders), falling back to Submit
// for older traces where the fields coincide.
func eligibleAt(j *trace.JobTrace) float64 {
	if j.Eligible > 0 {
		return j.Eligible
	}
	return j.Submit
}

// classOrderViolationCap bounds fifo-class-order violations reported per
// class: a systematically misordered class would otherwise flood the
// report with one line per pair.
const classOrderViolationCap = 5

// checkClassOrder sorts one index slice by (class, submit, ID, attempt)
// and sweeps each class's run; the jobs themselves are never copied.
// Classes come in sorted key order, so the violation report is identical
// across replays.
func checkClassOrder(jobs []trace.JobTrace, res *Result) {
	order := make([]int32, len(jobs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		x, y := &jobs[a], &jobs[b]
		if c := strings.Compare(x.Fingerprint, y.Fingerprint); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Nodes, y.Nodes); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Limit, y.Limit); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Priority, y.Priority); c != 0 {
			return c
		}
		// Queue order: FIFO within a class is by submit time (a requeued
		// job keeps its original submit, so its later attempts still sit
		// ahead of later-submitted twins).
		if c := cmp.Compare(x.Submit, y.Submit); c != 0 {
			return c
		}
		if c := strings.Compare(x.ID, y.ID); c != 0 {
			return c
		}
		if c := cmp.Compare(x.Attempt, y.Attempt); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for lo := 0; lo < len(order); {
		k := classOf(&jobs[order[lo]])
		hi := lo + 1
		for hi < len(order) && classOf(&jobs[order[hi]]) == k {
			hi++
		}
		checkClassRun(jobs, order[lo:hi], k, res)
		lo = hi
	}
}

// checkClassRun checks one class, members in queue order.
func checkClassRun(jobs []trace.JobTrace, members []int32, k classKey, res *Result) {
	violations := 0
	maxStart := jobs[members[0]].Start // max start among members[0..i-1]
	for i := 1; i < len(members) && violations < classOrderViolationCap; i++ {
		x := &jobs[members[i]]
		// Fast path: if no earlier-queued attempt started after x, no
		// pair can violate — keeps the sweep linear on clean traces
		// (classes in million-job replays hold tens of thousands of
		// members; the quadratic scan below only runs near a suspect).
		if x.Start >= maxStart-timeEps {
			if x.Start > maxStart {
				maxStart = x.Start
			}
			continue
		}
		for _, p := range members[:i] {
			y := &jobs[p]
			if y.ID == x.ID {
				continue // attempts of one job order themselves
			}
			// x is queued behind y; x starting while y's attempt was
			// pending means the scheduler passed over an identical job.
			if x.Start < y.Start-timeEps && eligibleAt(y) <= x.Start+timeEps {
				res.violatef("fifo-class-order",
					"job %s (submit %.0f) started at %.3f while identical earlier job %s (submit %.0f, eligible %.0f) was pending until %.3f, class %s/%dn",
					x.ID, x.Submit, x.Start, y.ID, y.Submit, eligibleAt(y), y.Start, k.fp, k.nodes)
				if violations++; violations >= classOrderViolationCap {
					break
				}
			}
		}
	}
	if violations >= classOrderViolationCap {
		res.violatef("fifo-class-order",
			"class %s/%dn: further violations suppressed after %d", k.fp, k.nodes, classOrderViolationCap)
	}
}

// attributionTolGiB is the allowed absolute gap in GiB/s between total
// and job-attributed throughput per sample. Both are sums over the same
// stream set grouped differently, so only float association noise is
// legitimate; a real leak shows up at stream-rate scale (~GiB/s).
const attributionTolGiB = 1e-3

// checkAttribution enforces per-job throughput attribution: every sample
// of total Lustre throughput must be fully accounted for by the nodes of
// then-running jobs. An unattributed share means an I/O stream outlived
// its job or runs on a node no job holds — exactly the accounting leaks
// the allocation-churn optimisations could introduce.
func checkAttribution(rec *trace.Recorder, res *Result) {
	if rec.Attributed.Len() != rec.Throughput.Len() {
		if rec.Attributed.Len() == 0 {
			return // recorder predates the attribution series
		}
		res.violatef("throughput-attribution", "attributed series has %d samples, throughput %d",
			rec.Attributed.Len(), rec.Throughput.Len())
		return
	}
	for i, total := range rec.Throughput.Values {
		att := rec.Attributed.Values[i]
		if diff := math.Abs(total - att); diff > attributionTolGiB {
			res.violatef("throughput-attribution",
				"sample %d at t=%.0fs: %.6f GiB/s total but %.6f GiB/s attributed to running jobs (gap %.6f)",
				i, rec.Throughput.Times[i], total, att, diff)
			break
		}
	}
}

// ValidateRun validates a recorded run: the job-level invariants of
// ValidateJobs plus the sampled series — busy nodes must never exceed the
// cluster size, total throughput must be fully attributable to running
// jobs' nodes, and (softly) the measured Lustre throughput should stay
// near R_limit. Throughput above the limit is a warning, not a violation:
// the policy budgets *estimated* rates, and the measured-throughput guard
// reacts only at round granularity, so transient overshoot is legitimate.
func ValidateRun(rec *trace.Recorder, opts ValidateOptions) Result {
	res := ValidateJobs(rec.Jobs(), opts)
	if opts.Nodes > 0 {
		for i, v := range rec.BusyNodes.Values {
			if int(v) > opts.Nodes {
				res.violatef("node-capacity", "busy-node sample %d: %.0f nodes on a %d-node cluster at t=%.0fs",
					i, v, opts.Nodes, rec.BusyNodes.Times[i])
				break
			}
		}
	}
	checkAttribution(rec, &res)
	if opts.BBCapacity > 0 {
		capGiB := opts.BBCapacity / pfs.GiB
		for i, v := range rec.BBOccupancy.Values {
			if v > capGiB+bbGiBEps {
				res.violatef("bb-capacity", "occupancy sample %d: %.3f GiB on a %.3f GiB pool at t=%.0fs",
					i, v, capGiB, rec.BBOccupancy.Times[i])
				break
			}
		}
	}
	if opts.TBF {
		// Bucket conservation, sampled: the cumulative delivered total can
		// never lead the cumulative granted total (both in GiB).
		for i, d := range rec.TBFDelivered.Values {
			if i >= rec.TBFGranted.Len() {
				break
			}
			if g := rec.TBFGranted.Values[i]; tbfExceeds(d*pfs.GiB, g*pfs.GiB) {
				res.violatef("tbf-conservation", "sample %d at t=%.0fs: %.6f GiB delivered but only %.6f GiB granted",
					i, rec.TBFDelivered.Times[i], d, g)
				break
			}
		}
	}
	if opts.ThroughputLimit > 0 {
		limitGiBps := opts.ThroughputLimit / pfs.GiB
		over, worst := 0, 0.0
		for _, v := range rec.Throughput.Values {
			if v > limitGiBps*(1+throughputSlack) {
				over++
				if v > worst {
					worst = v
				}
			}
		}
		if over > 0 {
			res.warnf("throughput-limit", "%d/%d samples above %.1f GiB/s (+%.0f%% slack), worst %.1f GiB/s",
				over, rec.Throughput.Len(), limitGiBps, throughputSlack*100, worst)
		}
	}
	return res
}
