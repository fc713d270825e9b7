package tbf

import (
	"math"
	"slices"
	"testing"

	"wasched/internal/des"
	"wasched/internal/pfs"
)

// rig is a minimal engine + file system + limiter harness.
func rig(t *testing.T, cfg Config) (*des.Engine, *pfs.FileSystem, *Limiter) {
	t.Helper()
	eng := des.NewEngine()
	fs, err := pfs.New(eng, pfs.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	lim, err := New(eng, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, fs, lim
}

// checkEntry asserts the conservation invariants on one ledger entry.
func checkEntry(t *testing.T, e LedgerEntry) {
	t.Helper()
	const eps = 1.0
	for name, v := range map[string]float64{
		"granted": e.Granted, "delivered": e.Delivered,
		"borrowed": e.Borrowed, "lent": e.Lent,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("job %s: %s = %g", e.JobID, name, v)
		}
	}
	if e.Delivered > e.Granted+eps+1e-9*e.Granted {
		t.Fatalf("job %s: delivered %g exceeds granted %g", e.JobID, e.Delivered, e.Granted)
	}
	if e.Borrowed > e.Granted+eps+1e-9*e.Granted {
		t.Fatalf("job %s: borrowed %g exceeds granted %g", e.JobID, e.Borrowed, e.Granted)
	}
	if e.Ended < e.Registered {
		t.Fatalf("job %s: ended %v before registered %v", e.JobID, e.Ended, e.Registered)
	}
}

func TestNewValidation(t *testing.T) {
	eng := des.NewEngine()
	fs, err := pfs.New(eng, pfs.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{},
		{CapacityBytesPerSec: -1},
		{CapacityBytesPerSec: math.NaN()},
		{CapacityBytesPerSec: math.Inf(1)},
		{CapacityBytesPerSec: 1, BurstSeconds: -1},
	} {
		if _, err := New(eng, fs, cfg); err == nil {
			t.Fatalf("New accepted invalid config %+v", cfg)
		}
	}
	if _, err := New(nil, fs, Config{CapacityBytesPerSec: 1}); err == nil {
		t.Fatal("New accepted nil engine")
	}
}

// TestThrottlingSlowsTransfer pins the enforcement path: the same stream
// takes strictly longer under a tight token budget than uncapped.
func TestThrottlingSlowsTransfer(t *testing.T) {
	elapsed := func(capacity float64) des.Time {
		eng := des.NewEngine()
		fs, err := pfs.New(eng, pfs.DefaultConfig(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if capacity > 0 {
			lim, err := New(eng, fs, Config{CapacityBytesPerSec: capacity, BurstSeconds: 1})
			if err != nil {
				t.Fatal(err)
			}
			lim.Register("job-a", []string{"node0"})
		}
		var done des.Time
		fs.StartStream("node0", pfs.Write, 0, 64*1024*1024, func() { done = eng.Now() })
		eng.Run(des.TimeFromSeconds(3600))
		if done == 0 {
			t.Fatal("stream never completed")
		}
		return done
	}
	free := elapsed(0)
	capped := elapsed(4 * 1024 * 1024) // 4 MiB/s for a 64 MiB transfer
	if capped <= free {
		t.Fatalf("capped transfer (%v) not slower than uncapped (%v)", capped, free)
	}
	// 64 MiB at 4 MiB/s is ~16 s of tokens; allow generous slack for the
	// initial burst but require real throttling.
	if capped < des.TimeFromSeconds(8) {
		t.Fatalf("capped transfer finished implausibly fast: %v", capped)
	}
}

// TestLedgerConservation runs two competing jobs to completion and checks
// every conservation invariant on the closed ledger.
func TestLedgerConservation(t *testing.T) {
	eng, fs, lim := rig(t, Config{CapacityBytesPerSec: 8 * 1024 * 1024, BurstSeconds: 2})
	lim.Register("job-a", []string{"node0", "node1"})
	lim.Register("job-b", []string{"node2"})
	finished := 0
	for i, node := range []string{"node0", "node1", "node2"} {
		fs.StartStream(node, pfs.Write, i%fs.Volumes(), 24*1024*1024, func() { finished++ })
	}
	eng.Run(des.TimeFromSeconds(7200))
	if finished != 3 {
		t.Fatalf("finished %d of 3 streams", finished)
	}
	lim.Unregister("job-a")
	lim.Unregister("job-b")
	ledger := lim.Ledger()
	if len(ledger) != 2 {
		t.Fatalf("ledger holds %d entries, want 2", len(ledger))
	}
	var borrowed, lent, delivered float64
	for _, e := range ledger {
		checkEntry(t, e)
		borrowed += e.Borrowed
		lent += e.Lent
		delivered += e.Delivered
	}
	if borrowed > lent+1 {
		t.Fatalf("total borrowed %g exceeds total lent %g", borrowed, lent)
	}
	// All three streams completed, so the jobs delivered every byte.
	if want := 3 * 24 * 1024 * 1024.0; math.Abs(delivered-want) > 1 {
		t.Fatalf("ledger delivered %g bytes, want %g", delivered, want)
	}
	g, d := lim.Totals()
	if d > g+1+1e-9*g {
		t.Fatalf("totals: delivered %g exceeds granted %g", d, g)
	}
}

// TestBorrowingFlows pins the adaptive exchange: an idle job lends, a
// throttled job borrows, and attribution balances.
func TestBorrowingFlows(t *testing.T) {
	eng, fs, lim := rig(t, Config{CapacityBytesPerSec: 8 * 1024 * 1024, BurstSeconds: 4})
	lim.Register("idle", []string{"node0"})
	lim.Register("heavy", []string{"node1"})
	// The heavy job pushes far more than its 4 MiB/s fair share; the idle
	// job moves nothing.
	fs.StartStream("node1", pfs.Write, 0, 512*1024*1024, nil)
	eng.Run(des.TimeFromSeconds(120))
	lim.Unregister("idle")
	lim.Unregister("heavy")
	var idle, heavy LedgerEntry
	for _, e := range lim.Ledger() {
		checkEntry(t, e)
		switch e.JobID {
		case "idle":
			idle = e
		case "heavy":
			heavy = e
		}
	}
	if heavy.Borrowed <= 0 {
		t.Fatalf("heavy job borrowed nothing (granted %g, delivered %g)", heavy.Granted, heavy.Delivered)
	}
	if idle.Lent <= 0 {
		t.Fatal("idle job lent nothing")
	}
	if heavy.Borrowed > idle.Lent+1 {
		t.Fatalf("borrowed %g exceeds lent %g", heavy.Borrowed, idle.Lent)
	}
	// Borrowing must have bought the heavy job more than its fair share:
	// 120 s at the 4 MiB/s half-capacity share.
	if fairShare := 120 * 4 * 1024 * 1024.0; heavy.Delivered <= fairShare {
		t.Fatalf("heavy job delivered %g, no more than its unlent fair share %g", heavy.Delivered, fairShare)
	}
}

// TestStragglerWeighting checks that straggler mode still conserves
// tokens on a backend whose servers straggle.
func TestStragglerWeighting(t *testing.T) {
	eng := des.NewEngine()
	// Eight servers on the noisiest backend the model allows: their health
	// spreads widely.
	fcfg := pfs.DefaultConfig()
	fcfg.Servers, fcfg.ServerBandwidth = 8, fcfg.ServerCap/8
	fcfg.NoiseSigma = 1
	fs, err := pfs.New(eng, fcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	lim, err := New(eng, fs, Config{CapacityBytesPerSec: 8 * 1024 * 1024, BurstSeconds: 1, Straggler: true})
	if err != nil {
		t.Fatal(err)
	}
	health := fs.ServerHealth(nil)
	worst, best := slices.Min(health), slices.Max(health)
	if worst > 0.75*best {
		t.Fatalf("no straggling server: health %v", health)
	}
	lim.Register("job-a", []string{"node0"})
	lim.Register("job-b", []string{"node1"})
	fs.StartStream("node0", pfs.Write, 0, 256*1024*1024, nil)
	fs.StartStream("node1", pfs.Write, 1, 256*1024*1024, nil)
	eng.Run(des.TimeFromSeconds(60))
	lim.Unregister("job-a")
	lim.Unregister("job-b")
	for _, e := range lim.Ledger() {
		checkEntry(t, e)
	}
	if lim.Ticks() == 0 {
		t.Fatal("control loop never ticked")
	}
}

// TestRegisterUnregisterLifecycle pins the panics and the account lookups;
// TestUnregisterAndCloseUncap pins the cap cleanup.
func TestRegisterUnregisterLifecycle(t *testing.T) {
	_, _, lim := rig(t, Config{CapacityBytesPerSec: 1024})
	lim.Register("job-a", []string{"node0"})
	if len(lim.order) != 1 {
		t.Fatalf("%d live buckets, want 1", len(lim.order))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("double Register did not panic")
			}
		}()
		lim.Register("job-a", []string{"node0"})
	}()
	if _, _, _, _, ok := lim.JobTokens("job-a"); !ok {
		t.Fatal("JobTokens missed a live bucket")
	}
	lim.Unregister("job-a")
	if len(lim.order) != 0 {
		t.Fatalf("%d live buckets after Unregister, want 0", len(lim.order))
	}
	if _, _, _, _, ok := lim.JobTokens("job-a"); !ok {
		t.Fatal("JobTokens missed a ledger entry")
	}
	if _, _, _, _, ok := lim.JobTokens("nope"); ok {
		t.Fatal("JobTokens invented an account")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("unknown Unregister did not panic")
			}
		}()
		lim.Unregister("job-a")
	}()
}

// quietRig is rig on a noise-free, burst-free file system, so every
// uncapped stream of the same kind runs at the same exact rate.
func quietRig(t *testing.T, cfg Config) (*des.Engine, *pfs.FileSystem, *Limiter) {
	t.Helper()
	eng := des.NewEngine()
	fcfg := pfs.DefaultConfig()
	fcfg.NoiseSigma = 0
	fcfg.BurstBoost = 1
	fcfg.BurstBytes = 0
	fs, err := pfs.New(eng, fcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	lim, err := New(eng, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, fs, lim
}

// tightBudget is small enough that a capped stream is far below a lone
// stream's uncapped rate.
var tightBudget = Config{CapacityBytesPerSec: 1 << 20, BurstSeconds: 1}

// TestUnregisterAndCloseUncap pins the cap cleanup: once a job's bucket
// closes, a stream on its node runs at the uncapped rate from the next
// rate solve on — the tick that follows does not re-cap an unregistered
// node, so a cap Unregister left behind would stay forever.
func TestUnregisterAndCloseUncap(t *testing.T) {
	eng, fs, lim := quietRig(t, tightBudget)
	lim.Register("job-a", []string{"node0"})
	s := fs.StartStream("node0", pfs.Write, 0, 1e15, nil)
	eng.Run(des.TimeFromSeconds(3))
	if s.Rate() > tightBudget.CapacityBytesPerSec {
		t.Fatalf("registered stream runs at %g, above the whole budget", s.Rate())
	}
	lim.Unregister("job-a")
	// A stream on another node opens: its create re-solves every rate.
	ref := fs.StartStream("node1", pfs.Write, 1, 1e15, nil)
	eng.Run(des.TimeFromSeconds(4))
	if ref.Rate() <= tightBudget.CapacityBytesPerSec || s.Rate() != ref.Rate() {
		t.Fatalf("after Unregister: node0 stream at %g, uncapped node1 stream at %g", s.Rate(), ref.Rate())
	}

	lim.Register("job-b", []string{"node0"})
	eng.Run(des.TimeFromSeconds(6))
	if s.Rate() > tightBudget.CapacityBytesPerSec {
		t.Fatalf("re-registered stream runs at %g, above the whole budget", s.Rate())
	}
	lim.Close()
	if s.Rate() != ref.Rate() {
		t.Fatalf("after Close: node0 stream at %g, uncapped node1 stream at %g", s.Rate(), ref.Rate())
	}
}

// TestRegisterCapBindsAtNextSolve pins that the cap Register sets takes
// effect at the next rate solve, whatever triggers it, not at the next
// control tick.
func TestRegisterCapBindsAtNextSolve(t *testing.T) {
	eng, fs, lim := quietRig(t, tightBudget)
	s := fs.StartStream("node0", pfs.Write, 0, 1e15, nil)
	eng.Run(des.TimeFromSeconds(0.2))
	free := s.Rate()
	if free <= tightBudget.CapacityBytesPerSec {
		t.Fatalf("uncapped stream runs at only %g", free)
	}
	lim.Register("job-a", []string{"node0"})
	if s.Rate() != free {
		t.Fatalf("Register re-solved rates itself: %g -> %g", free, s.Rate())
	}
	// Another stream's create re-solves rates well before the 1 s tick.
	fs.StartStream("node1", pfs.Write, 1, 1e15, nil)
	eng.Run(des.TimeFromSeconds(0.5))
	if lim.Ticks() != 0 {
		t.Fatalf("control loop ticked %d times before the check", lim.Ticks())
	}
	if s.Rate() > tightBudget.CapacityBytesPerSec {
		t.Fatalf("cap not applied at the next solve: stream at %g", s.Rate())
	}
}
