package sos

import (
	"testing"

	"wasched/internal/des"
)

// BenchmarkAggregatorTick measures one LDMS aggregator tick at steady
// state: 15 sources append a 4-column row each through their Series
// handles, then the container is trimmed to a 2 h retention window. The
// allocations it reports are the chunks, amortized over their rows.
func BenchmarkAggregatorTick(b *testing.B) {
	s := newSteadyStore(2 * des.Hour)
	handles := make([]*Series, len(s.names))
	for i, n := range s.names {
		handles[i] = s.c.Series(n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, h := range handles {
			_ = h.Append(s.now, steadyRow)
		}
		s.c.Trim(s.now.Add(-s.retention))
		s.now = s.now.Add(des.Second)
	}
}

// BenchmarkDeltaOver measures the analytics' hot query against an hour of
// 1 Hz samples.
func BenchmarkDeltaOver(b *testing.B) {
	st := NewStore()
	c, _ := st.CreateContainer(Schema{Name: "m", Metrics: []string{"w"}})
	for i := 0; i < 3600; i++ {
		_ = c.Append("n1", des.Time(i)*des.Time(des.Second), []float64{float64(i) * 1e9})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = c.DeltaOver("n1", 0, des.TimeFromSeconds(1000), des.TimeFromSeconds(1030))
	}
}
