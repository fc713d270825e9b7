package farm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wasched/internal/des"
)

// sweepCells builds a small synthetic sweep.
func sweepCells(n int) []Cell {
	cells := make([]Cell, 0, n)
	for i := 0; i < n; i++ {
		cells = append(cells, Cell{Experiment: "t", Config: fmt.Sprintf("c%02d", i%4), Seed: uint64(i)})
	}
	return cells
}

// simExec is a deterministic stand-in for a simulation: it derives the
// cell's RNG from the cell's identity alone (its key), never from
// execution order, and returns a digest of the stream, so any cross-cell
// state leakage or order dependence shows up as a changed payload.
func simExec(ctx context.Context, c Cell) (any, error) {
	rng := des.NewRNG(7, "farm-test/"+c.Key())
	sum := 0.0
	for i := 0; i < 100; i++ {
		sum += rng.Float64()
	}
	return map[string]float64{"digest": sum}, nil
}

func mustRun(t *testing.T, cells []Cell, exec Exec, opts Options) *Summary {
	t.Helper()
	sum, err := Run(context.Background(), "test", cells, exec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func marshalOutcomes(t *testing.T, sum *Summary) []byte {
	t.Helper()
	b, err := json.Marshal(sum.Outcomes)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestParallelMatchesSerial is the core determinism contract: the
// aggregated outcomes of workers=1 and workers=8 are byte-identical.
func TestParallelMatchesSerial(t *testing.T) {
	cells := sweepCells(16)
	serial := mustRun(t, cells, simExec, Options{Workers: 1})
	parallel := mustRun(t, cells, simExec, Options{Workers: 8})
	if serial.Done != 16 || parallel.Done != 16 {
		t.Fatalf("done: serial %d, parallel %d", serial.Done, parallel.Done)
	}
	a, b := marshalOutcomes(t, serial), marshalOutcomes(t, parallel)
	if !bytes.Equal(a, b) {
		t.Fatalf("parallel outcomes differ from serial:\n%s\n%s", a, b)
	}
}

// TestPanicIsolation: a panicking cell is recorded as failed with its
// stack, and every other cell still completes.
func TestPanicIsolation(t *testing.T) {
	cells := sweepCells(8)
	exec := func(ctx context.Context, c Cell) (any, error) {
		if c.Seed == 3 {
			panic("boom in cell 3")
		}
		return simExec(ctx, c)
	}
	sum := mustRun(t, cells, exec, Options{Workers: 4})
	if sum.Done != 7 || sum.Failed != 1 {
		t.Fatalf("done=%d failed=%d", sum.Done, sum.Failed)
	}
	var failed *Outcome
	for i := range sum.Outcomes {
		if sum.Outcomes[i].Status == StatusFailed {
			failed = &sum.Outcomes[i]
		}
	}
	if failed == nil || failed.Cell.Seed != 3 {
		t.Fatalf("wrong failed cell: %+v", failed)
	}
	if !strings.Contains(failed.Err, "boom in cell 3") || !strings.Contains(failed.Err, "farm_test.go") {
		t.Fatalf("panic detail missing from error: %q", failed.Err)
	}
	if err := sum.Err(); err == nil {
		t.Fatal("summary with failed cells must report an error")
	}
}

// TestCancellationDrains: cancelling mid-sweep stops dispatch, drains the
// in-flight cell, and reports the sweep interrupted with skipped cells.
func TestCancellationDrains(t *testing.T) {
	cells := sweepCells(12)
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int64
	release := make(chan struct{})
	exec := func(_ context.Context, c Cell) (any, error) {
		if executed.Add(1) == 2 {
			cancel()
		}
		<-release
		return simExec(context.Background(), c)
	}
	go func() {
		// Let cancellation land between dispatches, then release workers.
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	sum, err := Run(ctx, "cancel", cells, exec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Interrupted {
		t.Fatal("sweep must report interruption")
	}
	if sum.Skipped == 0 {
		t.Fatalf("expected skipped cells, got summary %+v", sum)
	}
	// Drained cells are real results, not failures.
	if sum.Failed != 0 {
		t.Fatalf("drained cells recorded as failed: %+v", sum)
	}
	if err := sum.Err(); err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("interrupted summary error: %v", err)
	}
}

// TestResumeUsesCache: an interrupted sweep (MaxFresh) resumes from the
// state dir using only the remaining cells, and the combined outcomes are
// byte-identical to an uninterrupted serial run.
func TestResumeUsesCache(t *testing.T) {
	dir := t.TempDir()
	cells := sweepCells(10)
	var executions atomic.Int64
	counting := func(ctx context.Context, c Cell) (any, error) {
		executions.Add(1)
		return simExec(ctx, c)
	}

	first, err := Run(context.Background(), "resume", cells, counting, Options{Workers: 2, StateDir: dir, MaxFresh: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Interrupted || first.Done != 4 || first.Skipped != 6 {
		t.Fatalf("first pass: %+v", first)
	}

	second, err := Run(context.Background(), "resume", cells, counting, Options{Workers: 2, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if second.Interrupted {
		t.Fatal("second pass must complete")
	}
	if second.Cached != 4 || second.Done != 10 {
		t.Fatalf("second pass cached=%d done=%d, want 4/10", second.Cached, second.Done)
	}
	if got := executions.Load(); got != 10 {
		t.Fatalf("cells executed %d times in total, want 10 (no recomputation)", got)
	}

	reference := mustRun(t, cells, simExec, Options{Workers: 1})
	if !bytes.Equal(marshalOutcomes(t, second), marshalOutcomes(t, reference)) {
		t.Fatal("resumed outcomes differ from an uninterrupted run")
	}

	st, err := ReadStatus(dir, "resume")
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 2 || st.Cells != 10 || st.Done != 10 || st.Remaining != 0 || st.Failed != 0 {
		t.Fatalf("status: %+v", st)
	}
}

// TestFailedCellsRetryOnResume: failures are journaled but never cached,
// so a resume retries them.
func TestFailedCellsRetryOnResume(t *testing.T) {
	dir := t.TempDir()
	cells := sweepCells(5)
	var pass atomic.Int64
	exec := func(ctx context.Context, c Cell) (any, error) {
		if c.Seed == 2 && pass.Load() == 0 {
			return nil, fmt.Errorf("transient failure")
		}
		return simExec(ctx, c)
	}
	first, err := Run(context.Background(), "retry", cells, exec, Options{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if first.Failed != 1 || first.Done != 4 {
		t.Fatalf("first: %+v", first)
	}
	st, _ := ReadStatus(dir, "retry")
	if st.Failed != 1 || len(st.FailedCells) != 1 || st.FailedCells[0].Seed != 2 {
		t.Fatalf("status after failure: %+v", st)
	}

	pass.Store(1)
	second, err := Run(context.Background(), "retry", cells, exec, Options{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if second.Failed != 0 || second.Done != 5 || second.Cached != 4 {
		t.Fatalf("second: %+v", second)
	}
	st, _ = ReadStatus(dir, "retry")
	if st.Failed != 0 || st.Done != 5 {
		t.Fatalf("status after retry: %+v", st)
	}
}

// TestCacheRejectsForeignCell: a cache entry only serves the exact cell it
// was recorded for.
func TestCacheRejectsForeignCell(t *testing.T) {
	dir := t.TempDir()
	cells := sweepCells(3)
	mustRunState := func(cs []Cell) *Summary {
		sum, err := Run(context.Background(), "foreign", cs, simExec, Options{Workers: 1, StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	mustRunState(cells)
	// Different experiment name → different keys → nothing cached.
	other := []Cell{{Experiment: "other", Config: "c00", Seed: 0}}
	if sum := mustRunState(other); sum.Cached != 0 {
		t.Fatalf("foreign cell served from cache: %+v", sum)
	}
}

// TestDuplicateCellsRejected guards the cache keying: duplicate cells in
// one sweep would silently overwrite each other's slots.
func TestDuplicateCellsRejected(t *testing.T) {
	cells := []Cell{{Experiment: "t", Config: "a", Seed: 1}, {Experiment: "t", Config: "a", Seed: 1}}
	if _, err := Run(context.Background(), "dup", cells, simExec, Options{}); err == nil {
		t.Fatal("duplicate cells must be rejected")
	}
}

// TestProgressReports exercises the reporter end to end.
func TestProgressReports(t *testing.T) {
	var buf bytes.Buffer
	slow := func(ctx context.Context, c Cell) (any, error) {
		time.Sleep(5 * time.Millisecond)
		return simExec(ctx, c)
	}
	sum, err := Run(context.Background(), "prog", sweepCells(8), slow,
		Options{Workers: 2, Progress: &buf, ProgressPeriod: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Done != 8 {
		t.Fatalf("done = %d", sum.Done)
	}
	out := buf.String()
	if !strings.Contains(out, "farm prog:") || !strings.Contains(out, "complete") {
		t.Fatalf("progress output missing: %q", out)
	}
	if !strings.Contains(out, "cells/s") {
		t.Fatalf("periodic line missing from: %q", out)
	}
}

// TestOutcomeDecode covers both fresh and cached payload paths.
func TestOutcomeDecode(t *testing.T) {
	dir := t.TempDir()
	cells := sweepCells(2)
	run := func() *Summary {
		sum, err := Run(context.Background(), "decode", cells, simExec, Options{Workers: 1, StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	fresh := run()
	cached := run()
	if cached.Cached != 2 {
		t.Fatalf("second run not cached: %+v", cached)
	}
	for _, sum := range []*Summary{fresh, cached} {
		for _, o := range sum.Outcomes {
			var p map[string]float64
			if err := o.Decode(&p); err != nil {
				t.Fatal(err)
			}
			if p["digest"] <= 0 {
				t.Fatalf("bad payload: %+v", p)
			}
		}
	}
	if fresh.Outcomes[0].Value() == nil {
		t.Fatal("fresh outcome must expose its in-memory value")
	}
	if cached.Outcomes[0].Value() != nil {
		t.Fatal("cached outcome must not fabricate an in-memory value")
	}
}

// TestCellKeyStable pins the key derivation: cached results and journals
// from older runs must stay addressable.
func TestCellKeyStable(t *testing.T) {
	c := Cell{Experiment: "fig6", Config: "d", Seed: 7920}
	if c.Key() != Cell.Key(c) || len(c.Key()) != 16 {
		t.Fatalf("key shape: %q", c.Key())
	}
	if c.Key() == (Cell{Experiment: "fig6", Config: "e", Seed: 7920}).Key() {
		t.Fatal("distinct cells must derive distinct keys")
	}
}
