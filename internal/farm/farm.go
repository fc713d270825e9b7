// Package farm orchestrates fleets of independent DES simulations: a
// bounded worker pool executes sweep cells (experiment × config × seed)
// concurrently, with per-cell deterministic seeding so parallel results are
// bit-identical to serial ones, panic isolation (a crashing cell is
// recorded as failed, not fatal to the sweep), context-based cancellation
// with graceful drain, an on-disk content-hashed result cache plus a
// checkpoint journal for resume, and a periodic progress reporter.
//
// The farm knows nothing about schedulers or file systems — a cell's
// semantics live entirely in the Exec callback — which is what lets
// internal/experiments (fig6 repeats, fig4 calibration ladder) and
// internal/schedcheck's differential corpus share one orchestrator.
package farm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Cell is one work unit of a sweep: a named experiment, a configuration
// key within it, and the seed of the run. Two cells with the same three
// fields are the same computation — the content hash Key is derived from
// nothing else, so cached results transfer between sweeps that happen to
// share cells.
type Cell struct {
	Experiment string `json:"experiment"`
	Config     string `json:"config"`
	Seed       uint64 `json:"seed"`
}

func (c Cell) String() string {
	return fmt.Sprintf("%s/%s/seed%d", c.Experiment, c.Config, c.Seed)
}

// Key returns the cell's stable content hash — the cache file name and the
// journal key.
func (c Cell) Key() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%s\x00%d", c.Experiment, c.Config, c.Seed)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Exec runs one cell and returns its result payload. The payload must be a
// pure function of the cell (the determinism and caching contracts both
// rest on it) and must marshal to JSON when the sweep uses a state
// directory. Implementations need not watch ctx — a running cell is always
// drained gracefully — but long cells may honour it to abort early.
type Exec func(ctx context.Context, c Cell) (any, error)

// Status classifies a cell outcome.
type Status string

// Cell outcome statuses.
const (
	StatusDone   Status = "done"
	StatusFailed Status = "failed"
)

// Outcome is one cell's result.
type Outcome struct {
	Cell   Cell   `json:"cell"`
	Status Status `json:"status"`
	// Payload is the JSON-encoded result (empty for failed cells and for
	// unmarshalable in-memory results of cache-less sweeps).
	Payload json.RawMessage `json:"payload,omitempty"`
	// Err describes the failure (including recovered panics).
	Err string `json:"error,omitempty"`
	// Cached reports that the payload was served from the state dir.
	Cached bool `json:"-"`

	value any
}

// Value returns the freshly executed in-memory result, or nil for cached
// and failed cells. Consumers that need results across resumes should use
// Decode instead.
func (o *Outcome) Value() any { return o.value }

// Decode unmarshals the cell's payload into out. It works for both fresh
// and cached outcomes, as long as the payload was marshalable.
func (o *Outcome) Decode(out any) error {
	if o.Status != StatusDone {
		return fmt.Errorf("farm: cell %s %s: %s", o.Cell, o.Status, o.Err)
	}
	if len(o.Payload) == 0 {
		return fmt.Errorf("farm: cell %s has no payload", o.Cell)
	}
	return json.Unmarshal(o.Payload, out)
}

// Options configure a sweep execution.
type Options struct {
	// Workers bounds concurrent cell executions (<= 0: GOMAXPROCS).
	Workers int
	// StateDir enables the on-disk result cache and checkpoint journal;
	// empty keeps the sweep purely in memory.
	StateDir string
	// Progress receives periodic one-line summaries (nil: silent).
	Progress io.Writer
	// ProgressPeriod is the reporting period (0: 2 s).
	ProgressPeriod time.Duration
	// MaxFresh, when positive, stops dispatching after that many fresh
	// (non-cached) executions; the sweep reports Interrupted exactly as
	// under context cancellation. Used by resumability smoke tests.
	MaxFresh int
}

// Summary is a completed (or interrupted) sweep.
type Summary struct {
	Name string
	// Outcomes holds the executed and cached cells in the input cell
	// order, regardless of completion order — the farm's aggregate output
	// is deterministic for a fixed cell list.
	Outcomes []Outcome
	// Done counts succeeded cells (fresh + cached), Failed the errored or
	// panicked ones, Cached the subset of Done served from the state dir,
	// and Skipped the cells never dispatched (cancellation or MaxFresh).
	Done, Failed, Cached, Skipped int
	// Interrupted reports the sweep stopped before dispatching every cell.
	Interrupted bool
}

// ErrInterrupted marks a sweep stopped by cancellation or MaxFresh before
// every cell ran; finished work is journaled, so a re-run with the same
// state dir resumes where it stopped.
var ErrInterrupted = errors.New("farm: sweep interrupted")

// Err folds the summary into the sweep's error discipline: interrupted
// sweeps return ErrInterrupted (they are resumable), sweeps with failed
// cells return a failure tally, clean sweeps return nil.
func (s *Summary) Err() error {
	if s.Interrupted {
		return fmt.Errorf("%w: %d of %d cells remaining (re-run with the same state dir to resume)",
			ErrInterrupted, s.Skipped, s.Skipped+len(s.Outcomes))
	}
	if s.Failed > 0 {
		return fmt.Errorf("farm: %d of %d cells failed", s.Failed, len(s.Outcomes))
	}
	return nil
}

// Run executes the sweep's cells through exec on a bounded worker pool and
// returns the per-cell outcomes in input order. Cells already present in
// the state dir's cache are served from disk without recomputation. Run
// itself errors only on orchestration problems (bad state dir, duplicate
// cells, nil exec); cell failures are recorded in the summary.
//
// Cancelling ctx stops dispatching further cells; cells already executing
// drain gracefully and their results are journaled before Run returns.
func Run(ctx context.Context, name string, cells []Cell, exec Exec, opts Options) (sum *Summary, retErr error) {
	if exec == nil {
		return nil, fmt.Errorf("farm: nil exec")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	seen := make(map[string]int, len(cells))
	for i, c := range cells {
		if j, dup := seen[c.Key()]; dup {
			return nil, fmt.Errorf("farm: duplicate cell %s (positions %d and %d)", c, j, i)
		}
		seen[c.Key()] = i
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	var st *state
	if opts.StateDir != "" {
		var err error
		if st, err = openState(opts.StateDir, name); err != nil {
			return nil, err
		}
		defer func() {
			if cerr := st.close(); cerr != nil && retErr == nil {
				sum, retErr = nil, cerr
			}
		}()
	}

	results := make([]*Outcome, len(cells))
	cachedN := 0
	if st != nil {
		for i, c := range cells {
			out, ok, err := st.lookup(c)
			if err != nil {
				return nil, err
			}
			if ok {
				results[i] = out
				cachedN++
			}
		}
		if err := st.begin(len(cells), cachedN); err != nil {
			return nil, err
		}
		for _, out := range results {
			if out != nil {
				if err := st.hit(out.Cell); err != nil {
					return nil, err
				}
			}
		}
	}

	prog := startProgress(name, len(cells), cachedN, opts)
	defer prog.stop()

	// Workers only execute cells. Each outcome comes back to this
	// goroutine, the state dir's one writer, which caches and journals it
	// and fills results.
	type item struct {
		idx  int
		cell Cell
	}
	type result struct {
		idx int
		out *Outcome
	}
	work := make(chan item)
	done := make(chan result)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for it := range work {
				prog.running(+1)
				out := runCell(ctx, exec, it.cell, st != nil)
				prog.running(-1)
				done <- result{it.idx, out}
			}
		}()
	}
	// Every outcome is recorded, also after a failed write, so a resumed
	// sweep reruns only the cells whose own write failed.
	var recordErr error
	collect := func(r result) {
		if st != nil {
			if err := st.record(r.out); err != nil && recordErr == nil {
				recordErr = err
			}
		}
		results[r.idx] = r.out
		prog.finished(r.out)
	}

	// Dispatch inline: the select makes cancellation take effect between
	// cells, and collects the outcomes that arrive meanwhile.
	interrupted := false
	fresh, collected := 0, 0
dispatch:
	for i, c := range cells {
		if results[i] != nil {
			continue // cached
		}
		if opts.MaxFresh > 0 && fresh >= opts.MaxFresh {
			interrupted = true
			break
		}
		for sent := false; !sent; {
			select {
			case work <- item{idx: i, cell: c}:
				fresh++
				sent = true
			case r := <-done:
				collect(r)
				collected++
			case <-ctx.Done():
				interrupted = true
				break dispatch
			}
		}
	}
	close(work)
	// Drain every cell still executing, so a cancelled sweep journals
	// them too.
	for ; collected < fresh; collected++ {
		collect(<-done)
	}
	wg.Wait()
	if recordErr != nil {
		return nil, recordErr
	}

	sum = &Summary{Name: name, Interrupted: interrupted}
	for _, out := range results {
		if out == nil {
			sum.Skipped++
			continue
		}
		sum.Outcomes = append(sum.Outcomes, *out)
		switch out.Status {
		case StatusDone:
			sum.Done++
			if out.Cached {
				sum.Cached++
			}
		default:
			sum.Failed++
		}
	}
	// Stop the live reporter before the final line: both write opts.Progress,
	// and the ticker goroutine must not race the summary (stop is idempotent,
	// so the deferred call remains a no-op).
	prog.stop()
	prog.final(sum)
	return sum, nil
}

// runCell executes one cell with panic isolation: a panicking exec is
// recorded as a failed outcome carrying the panic message and stack, and
// the rest of the sweep proceeds.
func runCell(ctx context.Context, exec Exec, c Cell, needPayload bool) (out *Outcome) {
	out = &Outcome{Cell: c, Status: StatusDone}
	defer func() {
		if r := recover(); r != nil {
			out = &Outcome{Cell: c, Status: StatusFailed,
				Err: fmt.Sprintf("panic: %v\n%s", r, debug.Stack())}
		}
	}()
	v, err := exec(ctx, c)
	if err != nil {
		return &Outcome{Cell: c, Status: StatusFailed, Err: err.Error()}
	}
	out.value = v
	if v == nil {
		return out
	}
	b, err := json.Marshal(v)
	if err != nil {
		if needPayload {
			return &Outcome{Cell: c, Status: StatusFailed,
				Err: fmt.Sprintf("result not serialisable for the state dir: %v", err)}
		}
		return out // in-memory sweep: Value() still carries the result
	}
	out.Payload = b
	return out
}
