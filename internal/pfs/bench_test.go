package pfs

import (
	"fmt"
	"testing"

	"wasched/internal/des"
)

// BenchmarkRateSolver measures one recompute with 120 active streams (the
// paper's worst case: 15 write×8 jobs), without client caps and with every
// node capped by the token layer (the client-throttling pass).
func BenchmarkRateSolver(b *testing.B) {
	for _, capped := range []bool{false, true} {
		name := "uncapped"
		if capped {
			name = "capped"
		}
		b.Run(name, func(b *testing.B) {
			eng := des.NewEngine()
			fs, _ := New(eng, DefaultConfig(), 1)
			rng := des.NewRNG(1, "bench")
			for i := 0; i < 120; i++ {
				fs.StartStream(fmt.Sprintf("n%d", i%15), Write, fs.RandomVolume(rng), 1e15, nil)
			}
			eng.Run(des.TimeFromSeconds(1))
			if capped {
				for n := 0; n < 15; n++ {
					fs.Client(fmt.Sprintf("n%d", n)).SetRateCap(GiB)
				}
				fs.ApplyRateCaps()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fs.sync()
				fs.recompute()
			}
		})
	}
}

// BenchmarkSimulatedHour runs one simulated hour of 32 looping writers end
// to end (events, noise, completions).
func BenchmarkSimulatedHour(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := des.NewEngine()
		fs, _ := New(eng, DefaultConfig(), uint64(i+1))
		rng := des.NewRNG(uint64(i+1), "bench")
		var launch func(slot int)
		launch = func(slot int) {
			fs.StartStream(fmt.Sprintf("n%d", slot%15), Write, fs.RandomVolume(rng), 10*GiB,
				func() { launch(slot) })
		}
		for s := 0; s < 32; s++ {
			launch(s)
		}
		eng.Run(des.TimeFromSeconds(3600))
	}
}
