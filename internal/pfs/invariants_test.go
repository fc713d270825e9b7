package pfs

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"wasched/internal/des"
)

// TestRateSolverInvariants fuzzes the solver with random stream sets and
// checks the physical constraints with noise disabled:
//
//  1. no stream exceeds its client cap (with burst credit);
//  2. no volume's streams sum past its bandwidth;
//  3. the aggregate stays within the congestion-degraded server cap;
//  4. with the OSS layer on, no server's streams sum past its bandwidth.
func TestRateSolverInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 3))
	for trial := 0; trial < 60; trial++ {
		eng := des.NewEngine()
		cfg := DefaultConfig()
		cfg.NoiseSigma = 0
		withOSS := trial%2 == 1
		if withOSS {
			cfg.Servers = 4
			cfg.ServerBandwidth = 6 * GiB
		}
		fs, err := New(eng, cfg, uint64(trial))
		if err != nil {
			t.Fatal(err)
		}
		placement := des.NewRNG(uint64(trial), "inv/placement")
		n := 1 + rng.IntN(200)
		streams := make([]*Stream, 0, n)
		for i := 0; i < n; i++ {
			s := fs.StartStream(fmt.Sprintf("n%d", i%15), Write,
				fs.RandomVolume(placement), (1+placement.Float64()*50)*GiB, nil)
			streams = append(streams, s)
		}
		eng.Run(des.TimeFromSeconds(1)) // past MDS creates: all streams active

		volSum := make([]float64, cfg.Volumes)
		srvSum := make([]float64, 5)
		total := 0.0
		for _, s := range streams {
			r := s.Rate()
			if r < 0 {
				t.Fatalf("trial %d: negative rate %g", trial, r)
			}
			if r > cfg.StreamCap*cfg.BurstBoost*1.0001 {
				t.Fatalf("trial %d: stream rate %g exceeds cap", trial, r)
			}
			volSum[s.volume] += r
			if withOSS {
				srvSum[s.volume%cfg.Servers] += r
			}
			total += r
		}
		for v, sum := range volSum {
			if sum > cfg.VolumeBandwidth*1.0001 {
				t.Fatalf("trial %d: volume %d carries %g > %g", trial, v, sum, cfg.VolumeBandwidth)
			}
		}
		if withOSS {
			for srv, sum := range srvSum[:cfg.Servers] {
				if sum > cfg.ServerBandwidth*1.0001 {
					t.Fatalf("trial %d: server %d carries %g > %g", trial, srv, sum, cfg.ServerBandwidth)
				}
			}
		}
		k := fs.activeStreams()
		if k != len(streams) {
			t.Fatalf("trial %d: %d of %d streams active after 1s", trial, k, len(streams))
		}
		eff := 1.0
		if k > cfg.CongestionKnee {
			eff = 1 / (1 + cfg.CongestionPerStream*float64(k-cfg.CongestionKnee))
		}
		if total > cfg.ServerCap*eff*1.0001 {
			t.Fatalf("trial %d: aggregate %g exceeds degraded cap %g (k=%d)",
				trial, total, cfg.ServerCap*eff, k)
		}
	}
}

// TestRateSolverWorkConservation checks that when demand exceeds the
// degraded cap, the solver actually delivers the cap (no artificial
// under-utilisation).
func TestRateSolverWorkConservation(t *testing.T) {
	eng := des.NewEngine()
	cfg := DefaultConfig()
	cfg.NoiseSigma = 0
	cfg.BurstBoost = 1
	fs, _ := New(eng, cfg, 9)
	rng := des.NewRNG(9, "wc")
	const k = 100
	for i := 0; i < k; i++ {
		fs.StartStream("n", Write, fs.RandomVolume(rng), 1e15, nil)
	}
	eng.Run(des.TimeFromSeconds(1))
	eff := 1 / (1 + cfg.CongestionPerStream*float64(k-cfg.CongestionKnee))
	want := cfg.ServerCap * eff
	got := fs.CurrentAggregateRate()
	if got < want*0.999 || got > want*1.001 {
		t.Fatalf("aggregate %g, want the degraded cap %g", got, want)
	}
}
