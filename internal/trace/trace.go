// Package trace records what the paper's figures show: time series of
// total Lustre throughput and node allocation over a scheduling run
// (Figs. 3 and 5), plus per-job records for wait/runtime statistics.
// Series export as CSV for plotting and render as ASCII charts for
// terminal inspection.
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"

	"wasched/internal/cluster"
	"wasched/internal/des"
	"wasched/internal/pfs"
	"wasched/internal/slurm"
)

// Series is a sampled time series.
type Series struct {
	Name   string
	Unit   string
	Times  []float64 // seconds
	Values []float64
}

// Append adds a sample.
func (s *Series) Append(t, v float64) {
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Times) }

// Max returns the maximum value (0 for empty series).
func (s *Series) Max() float64 {
	m := 0.0
	for _, v := range s.Values {
		if v > m {
			m = v
		}
	}
	return m
}

// MeanOver returns the time-weighted mean of the series between two times,
// treating samples as right-continuous steps. Returns 0 when no samples
// fall in the window.
func (s *Series) MeanOver(t0, t1 float64) float64 {
	if t1 <= t0 || len(s.Times) == 0 {
		return 0
	}
	total, weight := 0.0, 0.0
	for i := 0; i < len(s.Times); i++ {
		segStart := s.Times[i]
		segEnd := t1
		if i+1 < len(s.Times) && s.Times[i+1] < t1 {
			segEnd = s.Times[i+1]
		}
		if segEnd <= t0 || segStart >= t1 {
			continue
		}
		if segStart < t0 {
			segStart = t0
		}
		d := segEnd - segStart
		if d <= 0 {
			continue
		}
		total += s.Values[i] * d
		weight += d
	}
	if weight == 0 {
		return 0
	}
	return total / weight
}

// JobTrace is the accounting outcome for one job.
type JobTrace struct {
	ID          string
	Name        string
	Fingerprint string
	Nodes       int
	// NodesUsed are the allocated node names (empty for never-started
	// jobs).
	NodesUsed []string
	Submit    float64 // seconds
	Start     float64
	End       float64
	// Limit is the requested runtime limit L_j in seconds: no job may run
	// longer (schedcheck validates End-Start against it).
	Limit float64
	// Priority is the job's submit priority (queue order within a
	// priority level is FIFO; schedcheck's ordering invariant groups on
	// it).
	Priority int64
	State    slurm.JobState
	// Eligible is when this attempt entered the pending queue in seconds:
	// the submit time, or the preceding requeue. Zero means "same as
	// Submit" (traces from before requeue-aware recording).
	Eligible float64
	// Attempt numbers the job's starts from 1; requeued jobs leave one
	// record per attempt.
	Attempt int
	// Requeued marks a preempted attempt: the job held its nodes over
	// [Start, End) but was returned to the queue rather than finishing.
	Requeued bool

	// BBBytes is the job's burst-buffer reservation in bytes (zero when
	// the job used none); the remaining BB fields are meaningful only
	// when it is positive.
	BBBytes float64
	// BBStageInDone and BBComputeStart are when the stage-in finished and
	// the program began, seconds. Zero when the attempt died mid-stage or
	// the recording path cannot observe them.
	BBStageInDone  float64
	BBComputeStart float64
	// BBDrainEnd is when the attempt's dirty data finished draining and
	// the reservation was released, seconds; BBDrained is how many bytes
	// drained. Zero when the drain outcome is recorded elsewhere (the
	// live tier's ledger) or nothing drained.
	BBDrainEnd float64
	BBDrained  float64

	// Token-bucket accounting, filled when the job ran under the
	// client-side bandwidth layer (internal/tbf, or the replayer's
	// emulation of it); all zero otherwise. TBFGranted is the total
	// token-bytes the job received (own fill plus borrowed), TBFDelivered
	// the token-bytes it spent on I/O (bucket conservation requires
	// Delivered ≤ Granted), TBFBorrowed the part of Granted received from
	// the shared lend pool, and TBFLent the tokens the job lent into it.
	TBFGranted   float64
	TBFDelivered float64
	TBFBorrowed  float64
	TBFLent      float64
}

// Wait returns the queue wait Q_j in seconds.
func (j JobTrace) Wait() float64 { return j.Start - j.Submit }

// Runtime returns D_j in seconds.
func (j JobTrace) Runtime() float64 { return j.End - j.Start }

// Recorder samples the running system on a fixed period and collects job
// lifecycle events.
type Recorder struct {
	Throughput Series // total Lustre throughput, GiB/s
	// Attributed is the share of Throughput attributable to running jobs:
	// per-node stream rates summed over the nodes each running job holds,
	// GiB/s. In a correct system it tracks Throughput exactly — a gap
	// means a stream outlived its job or runs on an unallocated node
	// (schedcheck's throughput-attribution invariant).
	Attributed Series
	BusyNodes  Series // allocated node count
	Running    Series // running job count
	Queued     Series // pending job count
	// Target samples the adaptive scheduler's target throughput R̃ in
	// GiB/s (zero-length for policies without diagnostics).
	Target Series
	// TwoGroupThreshold samples r* in GiB/s.
	TwoGroupThreshold Series
	// BBOccupancy samples the burst-buffer pool occupancy in GiB;
	// BBStageRate/BBDrainRate sample the appliance's stage-in and drain
	// throughput in GiB/s. All-zero without an attached tier (SetBB).
	BBOccupancy Series
	BBStageRate Series
	BBDrainRate Series
	// TBFGranted and TBFDelivered sample the token-bucket layer's
	// cumulative granted and delivered token totals in GiB. Bucket
	// conservation requires delivered ≤ granted at every sample
	// (schedcheck's tbf-conservation invariant). All-zero without an
	// attached limiter (SetTBF).
	TBFGranted   Series
	TBFDelivered Series

	jobs []JobTrace
	stop func()
	bb   BBStats
	tbf  TBFStats

	// Sampling scratch, reused every tick.
	rateScratch map[string]float64
	jobScratch  []*slurm.JobRecord
}

// BBStats is the recorder's view of a burst-buffer tier
// (internal/bb.Tier implements it): sampled occupancy and stage/drain
// rates, the appliance node names (their PFS traffic is attributed to the
// tier in the Attributed series), and per-job stage milestones for the
// job traces.
type BBStats interface {
	Occupied() float64
	Rates() (stage, drain float64)
	ApplianceNodes() []string
	JobInfo(jobID string) (bytes, stageInDone, computeStart float64, ok bool)
}

// SetBB attaches a burst-buffer tier to the recorder. Call during system
// assembly, before the first sample tick.
func (r *Recorder) SetBB(b BBStats) { r.bb = b }

// TBFStats is the recorder's view of the token-bucket bandwidth layer
// (internal/tbf.Limiter implements it): cumulative granted/delivered
// token totals for the conservation series, and per-job lifetime totals
// for the job traces.
type TBFStats interface {
	Totals() (granted, delivered float64)
	JobTokens(jobID string) (granted, delivered, borrowed, lent float64, ok bool)
}

// SetTBF attaches a token-bucket limiter to the recorder. Call during
// system assembly, before the first sample tick.
func (r *Recorder) SetTBF(l TBFStats) { r.tbf = l }

// NewRecorder attaches a recorder to the system. Samples are taken every
// period until Stop (or forever; recording is cheap). Throughput is the
// model's ground-truth aggregate rate — the analogue of the paper's
// monitoring plots.
func NewRecorder(eng *des.Engine, fs *pfs.FileSystem, cl *cluster.Cluster, ctl *slurm.Controller, period des.Duration) *Recorder {
	r := &Recorder{
		Throughput:        Series{Name: "lustre_throughput", Unit: "GiB/s"},
		Attributed:        Series{Name: "attributed_throughput", Unit: "GiB/s"},
		BusyNodes:         Series{Name: "busy_nodes", Unit: "nodes"},
		Running:           Series{Name: "running_jobs", Unit: "jobs"},
		Queued:            Series{Name: "queued_jobs", Unit: "jobs"},
		Target:            Series{Name: "adaptive_target", Unit: "GiB/s"},
		TwoGroupThreshold: Series{Name: "two_group_threshold", Unit: "GiB/s"},
		BBOccupancy:       Series{Name: "bb_occupancy", Unit: "GiB"},
		BBStageRate:       Series{Name: "bb_stage_rate", Unit: "GiB/s"},
		BBDrainRate:       Series{Name: "bb_drain_rate", Unit: "GiB/s"},
		TBFGranted:        Series{Name: "tbf_granted", Unit: "GiB"},
		TBFDelivered:      Series{Name: "tbf_delivered", Unit: "GiB"},
	}
	r.stop = eng.Ticker(period, "trace/sample", func(now des.Time) {
		t := now.Seconds()
		r.Throughput.Append(t, fs.CurrentAggregateRate()/pfs.GiB)
		r.rateScratch = fs.CurrentNodeRates(r.rateScratch)
		r.jobScratch = ctl.AppendRunningJobs(r.jobScratch[:0])
		attributed := 0.0
		for _, rec := range r.jobScratch {
			for _, n := range rec.Nodes {
				attributed += r.rateScratch[n]
			}
		}
		occ, stage, drain := 0.0, 0.0, 0.0
		if r.bb != nil {
			occ = r.bb.Occupied()
			stage, drain = r.bb.Rates()
			// Stage/drain streams run on the appliance's node names, which
			// no job holds: they are the tier's own attributable traffic.
			attributed += stage + drain
		}
		r.Attributed.Append(t, attributed/pfs.GiB)
		r.BBOccupancy.Append(t, occ/pfs.GiB)
		r.BBStageRate.Append(t, stage/pfs.GiB)
		r.BBDrainRate.Append(t, drain/pfs.GiB)
		granted, delivered := 0.0, 0.0
		if r.tbf != nil {
			granted, delivered = r.tbf.Totals()
		}
		r.TBFGranted.Append(t, granted/pfs.GiB)
		r.TBFDelivered.Append(t, delivered/pfs.GiB)
		r.BusyNodes.Append(t, float64(cl.BusyNodes()))
		r.Running.Append(t, float64(ctl.RunningCount()))
		r.Queued.Append(t, float64(ctl.QueueLength()))
		target, rStar := 0.0, 0.0
		if diag := ctl.Diagnostics(); diag != nil {
			target = diag["target"] / pfs.GiB
			rStar = diag["r_star"] / pfs.GiB
		}
		r.Target.Append(t, target)
		r.TwoGroupThreshold.Append(t, rStar)
	})
	ctl.OnEvent(func(e slurm.Event) {
		// Requeued attempts leave their own record: the job really held
		// its nodes over [Start, End), so the capacity and double-booking
		// sweeps must see the attempt, and the FIFO-within-class invariant
		// orders it by its own eligible time.
		if e.Kind != slurm.EventEnd && e.Kind != slurm.EventRequeue {
			return
		}
		var bbBytes, bbStaged, bbCompute float64
		if r.bb != nil && e.Job.Spec.BBBytes > 0 {
			// Drain milestones are not known yet (the drain starts at this
			// very event); the tier's ledger carries them for validation.
			bbBytes, bbStaged, bbCompute, _ = r.bb.JobInfo(e.Job.ID)
		}
		var tbfGranted, tbfDelivered, tbfBorrowed, tbfLent float64
		if r.tbf != nil {
			tbfGranted, tbfDelivered, tbfBorrowed, tbfLent, _ = r.tbf.JobTokens(e.Job.ID)
		}
		r.jobs = append(r.jobs, JobTrace{
			ID:          e.Job.ID,
			Name:        e.Job.Spec.Name,
			Fingerprint: e.Job.Spec.Fingerprint,
			Nodes:       e.Job.Spec.Nodes,
			NodesUsed:   append([]string(nil), e.Job.Nodes...),
			Submit:      e.Job.Submit.Seconds(),
			Start:       e.Job.Start.Seconds(),
			End:         e.Job.End.Seconds(),
			Limit:       e.Job.Spec.Limit.Seconds(),
			Priority:    e.Job.Spec.Priority,
			State:       e.Job.State,
			Eligible:    e.Job.EligibleAt.Seconds(),
			Attempt:     e.Job.Attempts,
			Requeued:    e.Kind == slurm.EventRequeue,

			BBBytes:        bbBytes,
			BBStageInDone:  bbStaged,
			BBComputeStart: bbCompute,

			TBFGranted:   tbfGranted,
			TBFDelivered: tbfDelivered,
			TBFBorrowed:  tbfBorrowed,
			TBFLent:      tbfLent,
		})
	})
	return r
}

// Stop halts sampling; collected data remains readable.
func (r *Recorder) Stop() { r.stop() }

// Jobs returns the finished-job traces in completion order.
func (r *Recorder) Jobs() []JobTrace {
	out := make([]JobTrace, len(r.jobs))
	copy(out, r.jobs)
	return out
}

// WriteCSV writes the sampled series as one CSV table:
// time_s,<series...> rows aligned on the common sampling clock.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "time_s,%s_%s,%s_%s,%s,%s,%s,%s_gibps,%s_gibps,%s_gib,%s_gibps,%s_gibps,%s_gib,%s_gib\n",
		r.Throughput.Name, "gibps", r.Attributed.Name, "gibps",
		r.BusyNodes.Name, r.Running.Name, r.Queued.Name,
		r.Target.Name, r.TwoGroupThreshold.Name,
		r.BBOccupancy.Name, r.BBStageRate.Name, r.BBDrainRate.Name,
		r.TBFGranted.Name, r.TBFDelivered.Name); err != nil {
		return err
	}
	n := r.Throughput.Len()
	for i := 0; i < n; i++ {
		if _, err := fmt.Fprintf(w, "%.3f,%.6f,%.6f,%.0f,%.0f,%.0f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n",
			r.Throughput.Times[i], r.Throughput.Values[i], r.Attributed.Values[i],
			r.BusyNodes.Values[i], r.Running.Values[i], r.Queued.Values[i],
			r.Target.Values[i], r.TwoGroupThreshold.Values[i],
			r.BBOccupancy.Values[i], r.BBStageRate.Values[i], r.BBDrainRate.Values[i],
			r.TBFGranted.Values[i], r.TBFDelivered.Values[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteJobsCSV writes per-job records.
func (r *Recorder) WriteJobsCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "id,name,nodes,submit_s,start_s,end_s,wait_s,runtime_s,state"); err != nil {
		return err
	}
	for _, j := range r.jobs {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%s\n",
			j.ID, j.Name, j.Nodes, j.Submit, j.Start, j.End, j.Wait(), j.Runtime(), j.State); err != nil {
			return err
		}
	}
	return nil
}

// Metrics are the standard parallel-job-scheduling quality measures
// computed over a run's finished jobs.
type Metrics struct {
	Jobs int
	// MeanWait and P95Wait summarise queue waits, seconds.
	MeanWait float64
	P95Wait  float64
	// MeanSlowdown is the mean of (wait+runtime)/runtime.
	MeanSlowdown float64
	// MeanBoundedSlowdown bounds the denominator at BoundedSlowdownTau
	// seconds so sub-second jobs don't dominate (Feitelson's bounded
	// slowdown with τ = 10 s).
	MeanBoundedSlowdown float64
}

// BoundedSlowdownTau is the τ of the bounded-slowdown metric.
const BoundedSlowdownTau = 10.0

// ComputeMetrics summarises finished jobs. Jobs that never ran are
// excluded.
func ComputeMetrics(jobs []JobTrace) Metrics {
	var m Metrics
	var waits []float64
	for _, j := range jobs {
		if j.End <= j.Start && j.Runtime() <= 0 {
			continue // never ran
		}
		w := j.Wait()
		rt := j.Runtime()
		waits = append(waits, w)
		m.MeanWait += w
		if rt > 0 {
			m.MeanSlowdown += (w + rt) / rt
		}
		m.MeanBoundedSlowdown += math.Max(1, (w+rt)/math.Max(rt, BoundedSlowdownTau))
		m.Jobs++
	}
	if m.Jobs == 0 {
		return m
	}
	n := float64(m.Jobs)
	m.MeanWait /= n
	m.MeanSlowdown /= n
	m.MeanBoundedSlowdown /= n
	sort.Float64s(waits)
	idx := int(math.Ceil(0.95 * float64(len(waits)-1)))
	m.P95Wait = waits[idx]
	return m
}
