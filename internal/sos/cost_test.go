package sos

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"wasched/internal/des"
)

// TestTrimCostIndependentOfRetention is a cost-shape test for the LDMS
// aggregator's retention trim: 15 sources append one 4-column row per
// simulated second and the container is trimmed to the retention window
// after every tick. Work per tick must not grow with the window, so an
// 8 h window may cost at most 3× a 1 h one per tick. A trim that copies
// the retained rows costs about 8× as much at 8 h.
func TestTrimCostIndependentOfRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test; skipped with -short")
	}
	h1, h8 := newSteadyStore(des.Hour), newSteadyStore(8*des.Hour)
	best1, best8 := time.Duration(1<<63-1), time.Duration(1<<63-1)
	// Interleave the runs so a noisy neighbour slows both windows alike;
	// the minimum over runs drops the noisy ones.
	for r := 0; r < 5; r++ {
		best1 = min(best1, h1.run())
		best8 = min(best8, h8.run())
	}
	t.Logf("per tick: 1 h retention %v, 8 h retention %v (%.2fx)", best1, best8, float64(best8)/float64(best1))
	if best8 > 3*best1 {
		t.Fatalf("append+trim tick costs %v at 8 h retention vs %v at 1 h: work per tick grows with retention", best8, best1)
	}
}

// steadyStore is the LDMS write pattern at steady state: every simulated
// second each of 15 sources appends a 4-column row, then the container is
// trimmed to the retention window.
type steadyStore struct {
	c         *Container
	names     []string
	retention des.Duration
	now       des.Time
}

func newSteadyStore(retention des.Duration) *steadyStore {
	st := NewStore()
	c, _ := st.CreateContainer(Schema{Name: "m", Metrics: []string{"wb", "rb", "wo", "ro"}})
	s := &steadyStore{c: c, retention: retention}
	for i := 0; i < 15; i++ {
		s.names = append(s.names, fmt.Sprintf("n%d", i))
	}
	for s.now <= des.Time(retention) {
		s.tick()
	}
	return s
}

var steadyRow = []float64{1, 2, 3, 4}

func (s *steadyStore) tick() {
	for _, n := range s.names {
		_ = s.c.Append(n, s.now, steadyRow)
	}
	if s.now > des.Time(s.retention) {
		s.c.Trim(s.now.Add(-s.retention))
	}
	s.now = s.now.Add(des.Second)
}

// run times 7,200 ticks and returns the wall time per tick. A run spans
// several chunk allocations and drops per source, so their amortized cost
// is inside the timing.
func (s *steadyStore) run() time.Duration {
	const ticks = 7200
	start := time.Now()
	for k := 0; k < ticks; k++ {
		s.tick()
	}
	return time.Since(start) / ticks
}

// TestSteadyAppendAllocatesOnlyRows is the allocation shape of "rows never
// move": at steady state under the LDMS write pattern (2 h retention, 15
// sources, 4 columns) the bytes allocated per appended row stay within
// 1.1× the row's own storage, its timestamp and its values. A store that
// regrows its columns, copying the live rows into a larger array, allocates
// several times that.
func TestSteadyAppendAllocatesOnlyRows(t *testing.T) {
	s := newSteadyStore(2 * des.Hour)
	const ticks = 8 * chunkRows // eight chunks per source
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := 0; k < ticks; k++ {
		s.tick()
	}
	runtime.ReadMemStats(&after)
	rows := float64(ticks * len(s.names))
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / rows
	width := len(s.c.Schema().Metrics)
	bound := 1.1 * float64(width+1) * 8
	t.Logf("%.1f bytes allocated per appended row (bound %.1f)", perRow, bound)
	if perRow > bound {
		t.Fatalf("%.1f bytes allocated per appended row, want at most %.1f: rows are copied after they are appended", perRow, bound)
	}
}
