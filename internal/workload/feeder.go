package workload

import (
	"fmt"

	"wasched/internal/des"
	"wasched/internal/slurm"
)

// Feeder submits a workload progressively, keeping the controller's queue
// at a bounded depth — the "user script watching squeue" submission
// protocol. The paper does not state how its workloads entered the queue
// (see EXPERIMENTS.md, "Submission protocol"); the feeder lets experiments
// explore that dimension: a shallow queue makes the adaptive target R̃
// reflect near-term queue composition instead of the whole campaign.
type Feeder struct {
	eng    *des.Engine
	ctl    *slurm.Controller
	specs  []slurm.JobSpec
	depth  int
	next   int
	stop   func()
	closed bool
}

// StartFeeder begins feeding specs (in order) whenever the queue holds
// fewer than depth jobs, checking every period. It submits the first
// batch immediately.
func StartFeeder(eng *des.Engine, ctl *slurm.Controller, specs []slurm.JobSpec, depth int, period des.Duration) (*Feeder, error) {
	if depth <= 0 {
		return nil, fmt.Errorf("workload: feeder depth must be positive, got %d", depth)
	}
	if period <= 0 {
		return nil, fmt.Errorf("workload: feeder period must be positive, got %v", period)
	}
	f := &Feeder{eng: eng, ctl: ctl, specs: specs, depth: depth}
	f.fill()
	if f.closed {
		// The first batch exhausted the specs (empty or shallow workload):
		// installing the ticker now would leave it firing forever, since
		// Stop() already ran with nothing to cancel.
		return f, nil
	}
	f.stop = eng.Ticker(period, "workload/feeder", func(des.Time) { f.fill() })
	return f, nil
}

func (f *Feeder) fill() {
	if f.closed {
		return
	}
	for f.next < len(f.specs) && f.ctl.QueueLength() < f.depth {
		if _, err := f.ctl.Submit(f.specs[f.next]); err != nil {
			panic(fmt.Sprintf("workload: feeder submit %d: %v", f.next, err))
		}
		f.next++
	}
	if f.next == len(f.specs) {
		f.Stop()
	}
}

// Stop halts the feeder (it stops automatically once exhausted).
func (f *Feeder) Stop() {
	if f.closed {
		return
	}
	f.closed = true
	if f.stop != nil {
		f.stop()
	}
}
