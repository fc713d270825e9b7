package analytics

import (
	"fmt"
	"testing"

	"wasched/internal/des"
	"wasched/internal/ldms"
	"wasched/internal/sos"
)

// BenchmarkCurrentThroughput measures R_now over 15 nodes with an hour of
// samples — read once per scheduling round under a guarded policy. The
// handles variant is the service, which reads each node's series through
// its handle with one search per window end; by-name is the same sum
// through Container.DeltaOver, one lookup by name and one search per node,
// column and window end.
func BenchmarkCurrentThroughput(b *testing.B) {
	eng := des.NewEngine()
	store := sos.NewStore()
	c, _ := store.CreateContainer(ldms.Schema())
	nodes := make([]string, 15)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("n%03d", i)
	}
	for sec := 0; sec < 3600; sec++ {
		for _, n := range nodes {
			_ = c.Append(n, des.Time(sec)*des.Time(des.Second),
				[]float64{float64(sec) * 1e8, 0, 1, 0})
		}
	}
	eng.Run(des.TimeFromSeconds(3600))
	svc, _ := New(eng, store, nodes, DefaultConfig())
	b.Run("handles", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = svc.CurrentThroughput()
		}
	})
	b.Run("by-name", func(b *testing.B) {
		now := eng.Now()
		lo := now.Add(-DefaultConfig().ThroughputWindow)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			total := 0.0
			for _, n := range nodes {
				if d, ok := c.DeltaOver(n, ldms.ColWriteBytes, lo, now); ok {
					total += d
				}
				if d, ok := c.DeltaOver(n, ldms.ColReadBytes, lo, now); ok {
					total += d
				}
			}
			_ = total
		}
	})
}
