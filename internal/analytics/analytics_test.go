package analytics

import (
	"math"
	"testing"

	"wasched/internal/des"
	"wasched/internal/ldms"
	"wasched/internal/pfs"
	"wasched/internal/sos"
)

// env wires a quiet pfs + ldms + analytics pipeline for tests.
type env struct {
	eng   *des.Engine
	fs    *pfs.FileSystem
	store *sos.Store
	svc   *Service
	nodes []string
}

func newEnv(t *testing.T, acfg Config) *env {
	t.Helper()
	eng := des.NewEngine()
	pcfg := pfs.DefaultConfig()
	pcfg.NoiseSigma = 0
	pcfg.BurstBoost = 1
	pcfg.MDSLatency = 0
	pcfg.MDSOpsPerSec = 1e9
	fs, err := pfs.New(eng, pcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	store := sos.NewStore()
	nodes := []string{"n1", "n2", "n3"}
	lcfg := ldms.DefaultConfig()
	lcfg.PhaseJitter = false
	if _, err := ldms.Start(eng, fs, store, nodes, lcfg, 1); err != nil {
		t.Fatal(err)
	}
	svc, err := New(eng, store, nodes, acfg)
	if err != nil {
		t.Fatal(err)
	}
	return &env{eng: eng, fs: fs, store: store, svc: svc, nodes: nodes}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{ThroughputWindow: 0, Alpha: 0.5},
		{ThroughputWindow: des.Second, Alpha: 0},
		{ThroughputWindow: des.Second, Alpha: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d must fail", i)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(des.NewEngine(), sos.NewStore(), nil, DefaultConfig()); err == nil {
		t.Fatal("no nodes must error")
	}
	if _, err := New(des.NewEngine(), sos.NewStore(), []string{"n"}, Config{}); err == nil {
		t.Fatal("bad config must error")
	}
}

func TestEstimateUnknownFingerprint(t *testing.T) {
	e := newEnv(t, DefaultConfig())
	if _, ok := e.svc.Estimate("writer"); ok {
		t.Fatal("unknown fingerprint must report not-ok")
	}
}

func TestPretrain(t *testing.T) {
	e := newEnv(t, DefaultConfig())
	e.svc.Pretrain("writer", 2.5*pfs.GiB, 30*des.Second)
	est, ok := e.svc.Estimate("writer")
	if !ok || est.Rate != 2.5*pfs.GiB || est.Runtime != 30*des.Second || est.Observations != 0 {
		t.Fatalf("pretrained estimate: %+v ok=%v", est, ok)
	}
	if fps := e.svc.Fingerprints(); len(fps) != 1 || fps[0] != "writer" {
		t.Fatalf("fingerprints: %v", fps)
	}
}

func TestJobCompletedMeasuresThroughput(t *testing.T) {
	e := newEnv(t, DefaultConfig())
	// A job writing 4 GiB on n1 over 10 s → r ≈ 0.4 GiB/s.
	start := e.eng.Now()
	done := false
	e.fs.StartStream("n1", pfs.Write, 0, 4*pfs.GiB, func() { done = true })
	e.eng.Run(des.TimeFromSeconds(15)) // includes post-completion samples
	if !done {
		t.Fatal("stream must finish")
	}
	end := des.TimeFromSeconds(10)
	e.svc.JobCompleted("writer", []string{"n1"}, start, end)
	est, ok := e.svc.Estimate("writer")
	if !ok || est.Observations != 1 {
		t.Fatalf("estimate: %+v ok=%v", est, ok)
	}
	if math.Abs(est.Rate-0.4*pfs.GiB) > 0.05*pfs.GiB {
		t.Fatalf("rate = %.3f GiB/s, want ~0.4", est.Rate/pfs.GiB)
	}
	if est.Runtime != 10*des.Second {
		t.Fatalf("runtime = %v", est.Runtime)
	}
	if e.svc.CompletedJobs() != 1 {
		t.Fatal("completed count")
	}
}

func TestEWMADecay(t *testing.T) {
	e := newEnv(t, Config{ThroughputWindow: 30 * des.Second, Alpha: 0.5})
	e.svc.Pretrain("w", 1*pfs.GiB, 10*des.Second)
	// Two synthetic completions with measured rate ~0.4 GiB/s fold in
	// with alpha 0.5 each: 1 → 0.7 → 0.55 (approximately).
	for i := 0; i < 2; i++ {
		start := e.eng.Now()
		e.fs.StartStream("n1", pfs.Write, 0, 4*pfs.GiB, nil)
		e.eng.Run(e.eng.Now().Add(des.FromSeconds(12)))
		e.svc.JobCompleted("w", []string{"n1"}, start, start.Add(10*des.Second))
	}
	est, _ := e.svc.Estimate("w")
	want := 0.5*(0.4*pfs.GiB) + 0.5*(0.5*(0.4*pfs.GiB)+0.5*(1*pfs.GiB))
	if math.Abs(est.Rate-want) > 0.05*pfs.GiB {
		t.Fatalf("EWMA rate = %.3f GiB/s, want ~%.3f", est.Rate/pfs.GiB, want/pfs.GiB)
	}
	if est.Observations != 2 {
		t.Fatalf("observations = %d", est.Observations)
	}
}

func TestJobCompletedIgnoresDegenerateInput(t *testing.T) {
	e := newEnv(t, DefaultConfig())
	e.eng.Run(des.TimeFromSeconds(5))
	e.svc.JobCompleted("w", []string{"n1"}, des.TimeFromSeconds(5), des.TimeFromSeconds(5))
	e.svc.JobCompleted("w", nil, 0, des.TimeFromSeconds(5))
	e.svc.JobCompleted("w", []string{"unsampled-node"}, 0, des.TimeFromSeconds(5))
	if _, ok := e.svc.Estimate("w"); ok {
		t.Fatal("degenerate completions must not create estimates")
	}
}

func TestZeroIOJobEstimatesZeroRate(t *testing.T) {
	e := newEnv(t, DefaultConfig())
	e.eng.Run(des.TimeFromSeconds(30))
	e.svc.JobCompleted("sleeper", []string{"n2"}, des.TimeFromSeconds(5), des.TimeFromSeconds(25))
	est, ok := e.svc.Estimate("sleeper")
	if !ok || est.Rate != 0 {
		t.Fatalf("sleep job estimate: %+v ok=%v", est, ok)
	}
}

func TestCurrentThroughputTracksLoad(t *testing.T) {
	e := newEnv(t, Config{ThroughputWindow: 10 * des.Second, Alpha: 0.5})
	if got := e.svc.CurrentThroughput(); got != 0 {
		t.Fatalf("idle R_now = %g", got)
	}
	// Two streams at 0.40 GiB/s each (separate volumes) → ~0.8 GiB/s.
	e.fs.StartStream("n1", pfs.Write, 0, 1000*pfs.GiB, nil)
	e.fs.StartStream("n2", pfs.Write, 1, 1000*pfs.GiB, nil)
	e.eng.Run(des.TimeFromSeconds(30))
	got := e.svc.CurrentThroughput()
	if math.Abs(got-0.8*pfs.GiB) > 0.1*pfs.GiB {
		t.Fatalf("R_now = %.3f GiB/s, want ~0.8", got/pfs.GiB)
	}
}

func TestCurrentThroughputWindowForgets(t *testing.T) {
	e := newEnv(t, Config{ThroughputWindow: 10 * des.Second, Alpha: 0.5})
	e.fs.StartStream("n1", pfs.Write, 0, 2*pfs.GiB, nil) // done at 5 s
	e.eng.Run(des.TimeFromSeconds(30))
	if got := e.svc.CurrentThroughput(); got > 0.01*pfs.GiB {
		t.Fatalf("R_now must forget finished I/O, got %.3f GiB/s", got/pfs.GiB)
	}
}

func TestCurrentThroughputEarlyWindowClamp(t *testing.T) {
	e := newEnv(t, Config{ThroughputWindow: 60 * des.Second, Alpha: 0.5})
	e.fs.StartStream("n1", pfs.Write, 0, 1000*pfs.GiB, nil)
	e.eng.Run(des.TimeFromSeconds(5))
	// Window clamps to [0, 5s]; rate should be ~0.4 GiB/s, not diluted by
	// the uncovered 55 s.
	got := e.svc.CurrentThroughput()
	if math.Abs(got-0.4*pfs.GiB) > 0.15*pfs.GiB {
		t.Fatalf("clamped R_now = %.3f GiB/s, want ~0.4", got/pfs.GiB)
	}
}

func TestNoiseFloorZeroesTinyRates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoiseFloor = 1 << 20 // 1 MiB/s
	e := newEnv(t, cfg)
	// Trickle a few MiB onto n1 during the "sleep" window — the kind of
	// stray attribution boundary interpolation produces.
	e.fs.StartStream("n1", pfs.Write, 0, 16*float64(1<<20), nil)
	e.eng.Run(des.TimeFromSeconds(700))
	e.svc.JobCompleted("sleeper", []string{"n1"}, 0, des.TimeFromSeconds(600))
	est, ok := e.svc.Estimate("sleeper")
	if !ok {
		t.Fatal("estimate must exist")
	}
	if est.Rate != 0 {
		t.Fatalf("sub-floor rate must clamp to zero, got %v", est.Rate)
	}
}

func TestNoiseFloorValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoiseFloor = -1
	if cfg.Validate() == nil {
		t.Fatal("negative floor must fail validation")
	}
}

func TestHistoryAndQuantileRate(t *testing.T) {
	e := newEnv(t, DefaultConfig())
	// Generate several completions with varying measured rates by varying
	// the attributed window length.
	for i := 1; i <= 5; i++ {
		start := e.eng.Now()
		e.fs.StartStream("n1", pfs.Write, i%3, 2*pfs.GiB, nil)
		e.eng.Run(e.eng.Now().Add(des.FromSeconds(20)))
		e.svc.JobCompleted("w", []string{"n1"}, start, start.Add(des.Duration(i)*5*des.Second))
	}
	h := e.svc.history["w"]
	if len(h) != 5 {
		t.Fatalf("history: %d", len(h))
	}
	for i := 1; i < len(h); i++ {
		if h[i].At < h[i-1].At {
			t.Fatal("history must be oldest-first")
		}
	}
	med, ok := e.svc.QuantileRate("w", 0.5)
	if !ok || med <= 0 {
		t.Fatalf("median rate: %v %v", med, ok)
	}
	lo, _ := e.svc.QuantileRate("w", 0)
	hi, _ := e.svc.QuantileRate("w", 1)
	if !(lo <= med && med <= hi) {
		t.Fatalf("quantiles not ordered: %v %v %v", lo, med, hi)
	}
	if _, ok := e.svc.QuantileRate("unknown", 0.5); ok {
		t.Fatal("unknown class must have no quantiles")
	}
	if _, ok := e.svc.QuantileRate("w", 2); ok {
		t.Fatal("invalid quantile must fail")
	}
}

func TestHistoryCapBounded(t *testing.T) {
	e := newEnv(t, DefaultConfig())
	e.fs.StartStream("n1", pfs.Write, 0, 10000*pfs.GiB, nil)
	for i := 0; i < 100; i++ {
		start := e.eng.Now()
		e.eng.Run(e.eng.Now().Add(des.FromSeconds(10)))
		e.svc.JobCompleted("w", []string{"n1"}, start, e.eng.Now())
	}
	if got := len(e.svc.history["w"]); got != 64 {
		t.Fatalf("history must cap at 64, got %d", got)
	}
}
