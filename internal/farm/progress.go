package farm

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// progress is the live sweep reporter: a background ticker printing
// one-line summaries (done/failed/cached/running, throughput, ETA) while
// workers update atomic counters. Wall-clock only ever feeds the report,
// never the results, so progress reporting cannot perturb determinism.
type progress struct {
	w       io.Writer
	name    string
	total   int
	started time.Time
	done    atomic.Int64 // fresh successes
	failed  atomic.Int64
	cached  int64
	active  atomic.Int64
	quit    chan struct{}
	stopped chan struct{}
}

func startProgress(name string, total, cached int, opts Options) *progress {
	p := &progress{
		w:      opts.Progress,
		name:   name,
		total:  total,
		cached: int64(cached),
		//waschedlint:allow nodeterminism progress wall-clock only feeds the live report, never sweep results
		started: time.Now(),
		quit:    make(chan struct{}),
		stopped: make(chan struct{}),
	}
	if p.w == nil {
		close(p.stopped)
		return p
	}
	period := opts.ProgressPeriod
	if period <= 0 {
		period = 2 * time.Second
	}
	go func() {
		defer close(p.stopped)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				fmt.Fprintln(p.w, p.line())
			case <-p.quit:
				return
			}
		}
	}()
	return p
}

func (p *progress) running(delta int) { p.active.Add(int64(delta)) }

func (p *progress) finished(out *Outcome) {
	if out.Status == StatusDone {
		p.done.Add(1)
	} else {
		p.failed.Add(1)
	}
}

func (p *progress) line() string {
	done := p.done.Load()
	failed := p.failed.Load()
	finished := done + failed + p.cached
	//waschedlint:allow nodeterminism elapsed time only shapes the ETA line of the live report
	elapsed := time.Since(p.started).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(done+failed) / elapsed
	}
	// Unknown ETA (no throughput yet, or a zero-cell sweep) renders n/a
	// rather than an empty duration.
	eta := "n/a"
	if remaining := int64(p.total) - finished; remaining > 0 && rate > 0 {
		eta = (time.Duration(float64(remaining)/rate) * time.Second).Round(time.Second).String()
	}
	return fmt.Sprintf("farm %s: %d/%d done, %d failed, %d cached, %d running | %.2f cells/s, ETA %s",
		p.name, done+p.cached, p.total, failed, p.cached, p.active.Load(), rate, eta)
}

func (p *progress) final(sum *Summary) {
	if p.w == nil {
		return
	}
	state := "complete"
	if sum.Interrupted {
		state = "interrupted"
	}
	//waschedlint:allow nodeterminism the final report line shows wall-clock duration, which never feeds results
	elapsed := time.Since(p.started).Round(time.Millisecond)
	fmt.Fprintf(p.w, "farm %s: %s in %s — %d done (%d cached), %d failed, %d skipped\n",
		p.name, state, elapsed,
		sum.Done, sum.Cached, sum.Failed, sum.Skipped)
}

func (p *progress) stop() {
	select {
	case <-p.stopped:
		return
	default:
	}
	close(p.quit)
	<-p.stopped
}
