package schedcheck

import (
	"math"
	"sort"

	"wasched/internal/des"
	"wasched/internal/sched"
	"wasched/internal/trace"
)

// InfLimit is the effectively unbounded throughput limit used for the
// metamorphic baseline: large enough that no realistic workload's rates sum
// anywhere near it, small enough to stay comfortably finite in float64
// arithmetic.
const InfLimit = 1e18

// DiffConfig configures one differential run.
type DiffConfig struct {
	// Nodes is the cluster size (0 = 16).
	Nodes int
	// Limit is R_limit in bytes/s for the throughput-aware policies
	// (0 = 20 GiB/s scaled by nothing — callers pass the paper value).
	Limit float64
	// Options are the backfill engine options shared by every policy.
	Options sched.Options
	// Interval is the scheduling round period (0 = 30 s).
	Interval des.Duration
	// BBCapacity, when positive, gives every replay the same emulated
	// burst-buffer pool (the pool is a property of the cluster, not the
	// policy — BB-blind policies suffer the admission deferrals the
	// BB-aware ones plan around) and adds the BB-aware policies (plan,
	// bb-io-aware) plus property M5 to the differential.
	BBCapacity float64
	// BBStageRate and BBDrainRate are the emulation's stage-in/stage-out
	// throughputs in bytes/s (0 = instantaneous).
	BBStageRate float64
	BBDrainRate float64
	// TBFCapacity, when positive, adds the token-bucket policies (tbf,
	// tbf-straggler) plus property M6 to the differential. Unlike the
	// burst buffer, the token layer is armed per-variant — it is the
	// policy family's own control plane, not a property of the cluster —
	// so the central-reservation policies replay unthrottled.
	TBFCapacity float64
	// TBFBurst is the bucket depth in fill time (0 = the emulation
	// default); TBFServers arms the per-server straggler environment for
	// the tbf variants (both see it; only tbf-straggler dodges it).
	TBFBurst   des.Duration
	TBFServers int
}

// DiffResult is one workload replayed through every policy, plus the
// cross-policy findings.
type DiffResult struct {
	// Results maps policy label to its replay. Labels: "default",
	// "io-aware", "adaptive", "adaptive-naive", "io-aware-inf".
	Results map[string]*ReplayResult
	// Check accumulates per-policy invariant findings and the cross-policy
	// metamorphic findings.
	Check Result
}

// The policy labels of a differential run: registry names (sched.NewPolicy)
// and the three unbounded baselines of properties M2, M5 and M6.
const (
	labelDefault  = "default"
	labelIOAware  = "io-aware"
	labelAdaptive = "adaptive"
	labelNaive    = "adaptive-naive"
	labelInf      = "io-aware-inf"
	labelPlan     = "plan"
	labelBBIO     = "bb-io-aware"
	labelPlanInf  = "plan-inf"

	labelTBF          = "tbf"
	labelTBFStraggler = "tbf-straggler"
	labelTBFInf       = "tbf-inf"
)

// PolicyLabels lists the four paper policies replayed by RunDifferential.
func PolicyLabels() []string {
	return []string{labelDefault, labelIOAware, labelAdaptive, labelNaive}
}

// BBPolicyLabels lists the burst-buffer-aware policies that join the
// differential when DiffConfig.BBCapacity is set.
func BBPolicyLabels() []string {
	return []string{labelPlan, labelBBIO}
}

// TBFPolicyLabels lists the token-bucket policies that join the
// differential when DiffConfig.TBFCapacity is set.
func TBFPolicyLabels() []string {
	return []string{labelTBF, labelTBFStraggler}
}

// RunDifferential replays one workload through all four paper policies (plus
// an unbounded-limit I/O-aware baseline) and asserts the metamorphic
// properties that relate them:
//
//	M1 (drain): every policy finishes every job — no policy starves work the
//	    others complete.
//	M2 (limit elision): the I/O-aware policy with an unbounded R_limit makes
//	    the same start decisions as the node-only policy, start-for-start.
//	    The bandwidth tracker can only delay jobs; with no effective limit it
//	    must be inert.
//	M3 (zero-rate collapse): when no job does any I/O (true and estimated
//	    rates all zero), every throughput-aware policy must equal plain
//	    backfill — rates of zero can never occupy bandwidth.
//	M4 (homogeneous regulation-free): when every job has the same per-node
//	    intensity r_j/n_j and estimates are exact, the adaptive target
//	    R̃ = Σr·d·N/Σn·d equals that intensity times the cluster size, so
//	    regulation never binds: adaptive, naive adaptive and plain I/O-aware
//	    must schedule identically.
//	M5 (BB elision): the plan policy with an unbounded burst-buffer pool
//	    makes the same start decisions as the node-only policy — like M2's
//	    bandwidth tracker, the BB tracker can only delay jobs, so with no
//	    effective capacity it must be inert. Checked only when
//	    DiffConfig.BBCapacity is set (both replays still run under the
//	    same finite-pool admission emulation, which identical decisions
//	    traverse identically).
//	M6 (token elision): the tbf policy with an infinite token fill rate
//	    produces a schedule byte-identical to the unthrottled node-only
//	    baseline. Every bucket covers its demand exactly (got == need, so
//	    the granted fraction is 1.0 bitwise) and every end extension is
//	    exactly zero — throttling with infinite tokens must be inert.
//	    Checked only when DiffConfig.TBFCapacity is set.
//
// M3, M4, M5 and M6 are conditional — on workload shape, or on a
// configured burst buffer or token layer — and checked only when their
// precondition holds; M1 and M2 always apply.
func RunDifferential(workload []SimJob, cfg DiffConfig) *DiffResult {
	nodes := cfg.Nodes
	if nodes <= 0 {
		nodes = 16
	}
	limit := cfg.Limit
	if limit <= 0 {
		limit = 20 * 1024 * 1024 * 1024
	}

	type variant struct {
		label string
		name  string // the registry policy the variant replays
		pp    sched.PolicyParams
		// Per-variant token-bucket emulation (the token layer belongs to
		// the tbf policy family, not the cluster).
		tbfCap     float64
		tbfServers int
	}
	pp := sched.PolicyParams{Nodes: nodes, Limit: limit, BBCapacity: cfg.BBCapacity}
	var variants []variant
	for _, label := range PolicyLabels() {
		variants = append(variants, variant{label: label, name: label, pp: pp})
	}
	variants = append(variants, variant{label: labelInf, name: labelIOAware, pp: sched.PolicyParams{Nodes: nodes, Limit: InfLimit}})
	if cfg.BBCapacity > 0 {
		for _, label := range BBPolicyLabels() {
			variants = append(variants, variant{label: label, name: label, pp: pp})
		}
		variants = append(variants, variant{label: labelPlanInf, name: labelPlan, pp: sched.PolicyParams{Nodes: nodes, BBCapacity: InfLimit}})
	}
	if cfg.TBFCapacity > 0 {
		for _, label := range TBFPolicyLabels() {
			variants = append(variants, variant{label: label, name: label, pp: pp, tbfCap: cfg.TBFCapacity, tbfServers: cfg.TBFServers})
		}
		// The M6 baseline: infinite fill, uniform servers — the token
		// layer must be bitwise inert.
		variants = append(variants, variant{label: labelTBFInf, name: labelTBF, pp: pp, tbfCap: InfLimit})
	}

	res := &DiffResult{Results: make(map[string]*ReplayResult, len(variants))}
	for _, v := range variants {
		p, err := sched.NewPolicy(v.name, v.pp)
		if err != nil {
			panic(err) // every variant carries a positive limit
		}
		r := Replay(workload, ReplayConfig{
			Policy:      p,
			Options:     cfg.Options,
			Interval:    cfg.Interval,
			Nodes:       nodes,
			Limit:       sched.ThroughputLimit(p),
			BBCapacity:  cfg.BBCapacity,
			BBStageRate: cfg.BBStageRate,
			BBDrainRate: cfg.BBDrainRate,
			TBFCapacity: v.tbfCap,
			TBFBurst:    cfg.TBFBurst,
			TBFServers:  v.tbfServers,
		})
		res.Results[v.label] = r
		for _, viol := range r.Check.Violations {
			res.Check.violatef(viol.Invariant, "[%s] %s", v.label, viol.Detail)
		}
		res.Check.Warnings = append(res.Check.Warnings, r.Check.Warnings...)
		res.Check.JobsChecked += r.Check.JobsChecked

		// M1: drain.
		if got := len(r.Jobs); got != len(workload) {
			res.Check.violatef("m1-drain", "[%s] completed %d of %d jobs", v.label, got, len(workload))
		}
	}

	// M2: unbounded-limit I/O-aware ≡ node-only.
	compareStarts(res, labelInf, labelDefault, "m2-limit-elision")

	if allZeroRate(workload) {
		// M3: no I/O anywhere — every policy collapses to plain backfill.
		for _, label := range []string{labelIOAware, labelAdaptive, labelNaive} {
			compareStarts(res, label, labelDefault, "m3-zero-rate")
		}
	}

	if homogeneousExact(workload) {
		// M4: uniform per-node intensity with exact estimates — adaptive
		// regulation must not bind.
		compareStarts(res, labelAdaptive, labelIOAware, "m4-homogeneous")
		compareStarts(res, labelNaive, labelIOAware, "m4-homogeneous")
	}

	if cfg.BBCapacity > 0 {
		// M5: unbounded-pool plan ≡ node-only.
		compareStarts(res, labelPlanInf, labelDefault, "m5-bb-elision")
	}

	if cfg.TBFCapacity > 0 {
		// M6: infinite token fill ≡ unthrottled node-only baseline.
		compareStarts(res, labelTBFInf, labelDefault, "m6-token-elision")
	}
	return res
}

// compareStarts asserts two replays made identical start decisions.
func compareStarts(res *DiffResult, got, want, invariant string) {
	a, b := res.Results[got], res.Results[want]
	if a == nil || b == nil {
		return
	}
	as, bs := startTimes(a), startTimes(b)
	// Iterate in sorted job order: with the report capped at three
	// differences, map order would otherwise decide which ones are shown
	// and the violation text would differ between replays of the same run.
	ids := make([]string, 0, len(bs))
	for id := range bs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	diffs := 0
	for _, id := range ids {
		tb := bs[id]
		ta, ok := as[id]
		if !ok {
			res.Check.violatef(invariant, "job %s started under %s at %v but never under %s", id, want, tb, got)
			diffs++
		} else if ta != tb {
			res.Check.violatef(invariant, "job %s: %s started it at %v, %s at %v", id, got, ta, want, tb)
			diffs++
		}
		if diffs >= 3 {
			res.Check.violatef(invariant, "(further %s/%s start differences elided)", got, want)
			return
		}
	}
	ids = ids[:0]
	for id := range as {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if _, ok := bs[id]; !ok {
			res.Check.violatef(invariant, "job %s started under %s but never under %s", id, got, want)
			return
		}
	}
}

// startTimes maps every job r started to its start time: the completed
// jobs and those a starved replay left running. A start in seconds is a
// microsecond count over 1e6, so rounding recovers the des.Time exactly.
func startTimes(r *ReplayResult) map[string]des.Time {
	m := make(map[string]des.Time, len(r.Jobs)+len(r.Running))
	for _, jobs := range [][]trace.JobTrace{r.Jobs, r.Running} {
		for _, j := range jobs {
			m[j.ID] = des.Time(math.Round(j.Start * float64(des.Second)))
		}
	}
	return m
}

// allZeroRate reports whether the workload does no I/O at all, true or
// estimated — the precondition of M3.
func allZeroRate(workload []SimJob) bool {
	for _, j := range workload {
		if j.Rate != 0 || j.EstRate != 0 {
			return false
		}
	}
	return true
}

// homogeneousExact reports whether every job shares one per-node intensity
// r/n with exact estimates and positive I/O — the precondition of M4. The
// ratio comparison is exact: the property proof needs bitwise-equal ratios,
// which the homogeneous generator guarantees by using power-of-two widths.
func homogeneousExact(workload []SimJob) bool {
	if len(workload) == 0 {
		return false
	}
	ratio := math.NaN()
	for _, j := range workload {
		if j.Nodes < 1 || j.Rate <= 0 || j.EstRate != j.Rate || j.EstRuntime != j.Actual {
			return false
		}
		r := j.Rate / float64(j.Nodes)
		if math.IsNaN(ratio) {
			ratio = r
		} else if r != ratio {
			return false
		}
	}
	return true
}
