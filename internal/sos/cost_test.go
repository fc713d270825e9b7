package sos

import (
	"fmt"
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
// at least one reallocation of the 8 h window's backing arrays, so the
// amortized compaction cost is inside the timing.
func (s *steadyStore) run() time.Duration {
	const ticks = 7200
	start := time.Now()
	for k := 0; k < ticks; k++ {
		s.tick()
	}
	return time.Since(start) / ticks
}
