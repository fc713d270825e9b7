package workload

import (
	"bytes"
	"strings"
	"testing"

	"wasched/internal/cluster"
	"wasched/internal/des"
	"wasched/internal/pfs"
	"wasched/internal/slurm"
)

func TestWriteJobSpec(t *testing.T) {
	s := WriteJob(8)
	if s.Name != "writex8" || s.Fingerprint != "writex8" || s.Nodes != 1 {
		t.Fatalf("spec: %+v", s)
	}
	p, ok := s.Program.(cluster.WriteProgram)
	if !ok || p.Threads != 8 || p.BytesPerThread != 10*pfs.GiB {
		t.Fatalf("program: %+v", s.Program)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero threads must panic")
		}
	}()
	WriteJob(0)
}

func TestSleepJobSpec(t *testing.T) {
	s := SleepJob()
	p, ok := s.Program.(cluster.SleepProgram)
	if !ok || p.D != 600*des.Second {
		t.Fatalf("program: %+v", s.Program)
	}
}

func TestWorkload1Composition(t *testing.T) {
	specs := Workload1()
	if len(specs) != 720 {
		t.Fatalf("Workload 1 must have 720 jobs, got %d", len(specs))
	}
	counts := map[string]int{}
	for _, s := range specs {
		counts[s.Name]++
	}
	if counts["writex8"] != 240 || counts["sleep"] != 480 {
		t.Fatalf("composition: %v", counts)
	}
	// Wave structure: first 30 jobs are writers, next 60 sleeps.
	for i := 0; i < 30; i++ {
		if specs[i].Name != "writex8" {
			t.Fatalf("job %d: %s", i, specs[i].Name)
		}
	}
	for i := 30; i < 90; i++ {
		if specs[i].Name != "sleep" {
			t.Fatalf("job %d: %s", i, specs[i].Name)
		}
	}
	if specs[90].Name != "writex8" {
		t.Fatal("second wave must start with writers")
	}
}

func TestWorkload2Composition(t *testing.T) {
	specs := Workload2()
	if len(specs) != 1550 {
		t.Fatalf("Workload 2 must have 1550 jobs, got %d", len(specs))
	}
	counts := map[string]int{}
	for _, s := range specs {
		counts[s.Name]++
	}
	want := map[string]int{
		"writex8": 150, "writex6": 150, "writex4": 150,
		"writex2": 350, "writex1": 600, "sleep": 150,
	}
	for k, v := range want {
		if counts[k] != v {
			t.Fatalf("count[%s] = %d, want %d (all: %v)", k, counts[k], v, counts)
		}
	}
	// Phase order within a wave.
	order := []string{"writex8", "writex6", "writex4", "writex2", "writex1", "sleep"}
	idx := 0
	for _, name := range order {
		if specs[idx].Name != name {
			t.Fatalf("phase order broken at %d: got %s want %s", idx, specs[idx].Name, name)
		}
		for specs[idx].Name == name && idx < 309 {
			idx++
		}
	}
}

func TestFingerprints(t *testing.T) {
	fps := Fingerprints(Workload2())
	want := []string{"writex8", "writex6", "writex4", "writex2", "writex1", "sleep"}
	if len(fps) != len(want) {
		t.Fatalf("fingerprints: %v", fps)
	}
	for i := range want {
		if fps[i] != want[i] {
			t.Fatalf("fingerprints: %v", fps)
		}
	}
	anon := Fingerprints([]slurm.JobSpec{{Name: "x"}})
	if len(anon) != 1 || anon[0] != "x" {
		t.Fatalf("empty fingerprint must fall back to name: %v", anon)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	jobs := []TimedSpec{
		{At: 0, Spec: WriteJob(8)},
		{At: des.TimeFromSeconds(10), Spec: SleepJob()},
		{At: des.TimeFromSeconds(20), Spec: slurm.JobSpec{
			Name: "reader", Nodes: 2, Limit: 300 * des.Second,
			Program: cluster.ReadProgram{Threads: 4, BytesPerThread: 2 * pfs.GiB},
		}},
		{At: des.TimeFromSeconds(30), Spec: slurm.JobSpec{
			Name: "burst", Nodes: 1, Limit: 3000 * des.Second, Priority: 5,
			Program: cluster.BurstyProgram{Cycles: 3, Compute: 60 * des.Second, Threads: 2, BytesPerThread: pfs.GiB},
		}},
		{At: des.TimeFromSeconds(40), Spec: slurm.JobSpec{
			Name: "staged", Nodes: 2, Limit: 600 * des.Second, BBBytes: 12.5 * pfs.GiB,
			Program: cluster.WriteProgram{Threads: 4, BytesPerThread: 2 * pfs.GiB},
		}},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("decoded %d jobs", len(got))
	}
	for i := range jobs {
		a, b := jobs[i], got[i]
		if a.At != b.At || a.Spec.Name != b.Spec.Name || a.Spec.Nodes != b.Spec.Nodes ||
			a.Spec.Limit != b.Spec.Limit || a.Spec.Priority != b.Spec.Priority ||
			a.Spec.BBBytes != b.Spec.BBBytes {
			t.Fatalf("job %d: %+v vs %+v", i, a, b)
		}
	}
	if p, ok := got[3].Spec.Program.(cluster.BurstyProgram); !ok || p.Cycles != 3 || p.Compute != 60*des.Second {
		t.Fatalf("bursty program: %+v", got[3].Spec.Program)
	}
}

// TestAssignBBDemand checks the seeded helper: per-class consistency (a
// class either all-BB or all-not), per-node sizing, the -bb rename, and
// that pre-declared demands are left alone.
func TestAssignBBDemand(t *testing.T) {
	var jobs []TimedSpec
	for i := 0; i < 30; i++ {
		s := WriteJob(8)
		s.Nodes = 1 + i%3
		jobs = append(jobs, TimedSpec{Spec: s})
	}
	for i := 0; i < 30; i++ {
		jobs = append(jobs, TimedSpec{Spec: SleepJob()})
	}
	pre := WriteJob(4)
	pre.BBBytes = 7 * pfs.GiB
	jobs = append(jobs, TimedSpec{Spec: pre})

	AssignBBDemand(jobs, 0.5, 4, 1)

	classBB := map[string]bool{}
	sawBB := false
	for i, tj := range jobs[:60] {
		s := tj.Spec
		base := strings.TrimSuffix(s.Fingerprint, "-bb")
		hasBB := s.BBBytes > 0
		if prev, seen := classBB[base]; seen && prev != hasBB {
			t.Fatalf("job %d: class %s is inconsistently assigned", i, base)
		}
		classBB[base] = hasBB
		if hasBB {
			sawBB = true
			if want := float64(s.Nodes) * 4 * pfs.GiB; s.BBBytes != want {
				t.Fatalf("job %d: BB bytes %g, want %g", i, s.BBBytes, want)
			}
			if !strings.HasSuffix(s.Fingerprint, "-bb") {
				t.Fatalf("job %d: BB class %s lacks -bb suffix", i, s.Fingerprint)
			}
		}
	}
	if !sawBB {
		t.Fatal("fraction 0.5 over several classes assigned nothing")
	}
	if last := jobs[60].Spec; last.BBBytes != 7*pfs.GiB || strings.HasSuffix(last.Fingerprint, "-bb") {
		t.Fatalf("pre-declared demand was rewritten: %+v", last)
	}

	// Fraction 0 is a no-op.
	again := make([]TimedSpec, len(jobs))
	for i := range jobs {
		again[i].Spec = jobs[i].Spec
	}
	AssignBBDemand(again, 0, 4, 1)
	for i := range jobs {
		if again[i].Spec.BBBytes != jobs[i].Spec.BBBytes {
			t.Fatalf("fraction 0 must not touch job %d", i)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	bad := []string{
		"1 short 1 10",                          // too few fields
		"-1 neg 1 10 0 sleep 5",                 // negative submit
		"0 j zero 10 0 sleep 5",                 // bad nodes
		"0 j 1 nope 0 sleep 5",                  // bad limit
		"0 j 1 10 x sleep 5",                    // bad priority
		"0 j 1 10 0 dance 5",                    // unknown program
		"0 j 1 10 0 sleep -5",                   // bad sleep
		"0 j 1 10 0 write 0 1",                  // zero threads
		"0 j 1 10 0 write 2",                    // missing size
		"0 j 1 10 0 write 2 frog",               // bad size
		"0 j 1 10 0 bursty 0 1 1 1",             // zero cycles
		"0 j 1 10 0 bursty 1 -1 1 1",            // bad compute
		"0 j 1 10 0 bursty 1 1 0 1",             // zero threads
		"0 j 1 10 0 bursty 1 1 1 -1",            // bad size
		"0 j 0x1 10 0 sleep 5 garbage",          // bad nodes (hex)
		"0 j 1 10 0 bb 5",                       // bb without a program
		"0 j 1 10 0 bb -2 sleep 5",              // negative bb GiB
		"0 j 1 10 0 bb frog sleep 5",            // bad bb GiB
		"1e300 j 1 10 0 sleep 5",                // submit past the bound
		"0 j 1 1e-7 0 sleep 5",                  // limit rounds to zero
		"0 j 1 10 0 sleep NaN",                  // NaN sleep
		"0 j 1 10 0 write 1e300 1",              // thread count past the bound
		"0 j 1 10 0 write 1 Inf",                // infinite size
		"0 j 1 10 0 bb 1e308 sleep 5",           // bb bytes overflow
		"0 j 1 10 0 phased 99999999999 sleep 1", // phase count past the fields
	}
	for _, line := range bad {
		if _, err := Decode(strings.NewReader(line)); err == nil {
			t.Errorf("line %q must fail to decode", line)
		}
	}
	// Times round to the nearest microsecond, so what Encode writes
	// decodes to the same time: 0.000249 s × 1e6 is 248.99999999999997
	// in float64, which truncation would make 248 µs.
	if got, err := Decode(strings.NewReader("0.000249 j 1 10 0 sleep 0.000251\n")); err != nil ||
		got[0].At != 249 || got[0].Spec.Program.(cluster.SleepProgram).D != 251 {
		t.Fatalf("microsecond rounding: %+v %v", got, err)
	}
	// Comments and blank lines are fine.
	got, err := Decode(strings.NewReader("# hi\n\n0 j 1 10 0 sleep 5\n"))
	if err != nil || len(got) != 1 {
		t.Fatalf("comment handling: %v %d", err, len(got))
	}
}

// oddProgram is an unencodable Program for the error-path test.
type oddProgram struct{}

func (oddProgram) Start(*cluster.Context, []string, func()) func() { return func() {} }

func TestEncodeRejectsUnknownProgram(t *testing.T) {
	jobs := []TimedSpec{{Spec: slurm.JobSpec{
		Name: "odd", Nodes: 1, Limit: des.Second,
		Program: oddProgram{},
	}}}
	if err := Encode(&bytes.Buffer{}, jobs); err == nil {
		t.Fatal("unknown program types must fail to encode")
	}
	nested := []TimedSpec{{Spec: slurm.JobSpec{
		Name: "odd", Nodes: 1, Limit: des.Second,
		Program: cluster.PhasedProgram{Phases: []cluster.Program{oddProgram{}}},
	}}}
	if err := Encode(&bytes.Buffer{}, nested); err == nil {
		t.Fatal("unknown nested program types must fail to encode")
	}
}

func TestEncodeDecodePhasedRoundTrip(t *testing.T) {
	jobs := []TimedSpec{{At: des.TimeFromSeconds(5), Spec: CheckpointJob(8, 20, 120, 40)}}
	var buf bytes.Buffer
	if err := Encode(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := got[0].Spec.Program.(cluster.PhasedProgram)
	if !ok || len(p.Phases) != 3 {
		t.Fatalf("phased round trip: %+v", got[0].Spec.Program)
	}
	if _, ok := p.Phases[0].(cluster.ReadProgram); !ok {
		t.Fatalf("phase 0: %T", p.Phases[0])
	}
	if sl, ok := p.Phases[1].(cluster.SleepProgram); !ok || sl.D != 120*des.Second {
		t.Fatalf("phase 1: %+v", p.Phases[1])
	}
	if _, ok := p.Phases[2].(cluster.WriteProgram); !ok {
		t.Fatalf("phase 2: %T", p.Phases[2])
	}
	// Decode errors on malformed phased encodings.
	for _, bad := range []string{
		"0 j 1 10 0 phased 0",
		"0 j 1 10 0 phased 2 sleep 5",
		"0 j 1 10 0 phased 1 dance 5",
		"0 j 1 10 0 sleep 5 extra",
	} {
		if _, err := Decode(strings.NewReader(bad)); err == nil {
			t.Errorf("%q must fail", bad)
		}
	}
}

func TestCheckpointingWorkload(t *testing.T) {
	specs := Checkpointing()
	if len(specs) != 4*50 {
		t.Fatalf("size: %d", len(specs))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero threads must panic")
		}
	}()
	CheckpointJob(0, 1, 1, 1)
}

func TestTimed(t *testing.T) {
	jobs := Timed(Workload1()[:5], des.TimeFromSeconds(7))
	if len(jobs) != 5 || jobs[3].At != des.TimeFromSeconds(7) {
		t.Fatalf("timed: %+v", jobs[3])
	}
}

func TestMixedWorkload(t *testing.T) {
	specs := Mixed()
	if len(specs) != 4*49 {
		t.Fatalf("mixed workload size: %d", len(specs))
	}
	seenBig := false
	for _, s := range specs {
		if s.Nodes > 1 {
			seenBig = true
		}
		if s.Nodes <= 0 || s.Limit <= 0 || s.Program == nil {
			t.Fatalf("invalid spec: %+v", s)
		}
	}
	if !seenBig {
		t.Fatal("mixed workload must contain multi-node jobs")
	}
}

func TestWithDeclaredRates(t *testing.T) {
	specs := Workload1()[:3]
	out := WithDeclaredRates(specs, map[string]float64{"writex8": 2 * pfs.GiB}, 0.5)
	if out[0].DeclaredRate != pfs.GiB {
		t.Fatalf("declared rate: %v", out[0].DeclaredRate)
	}
	if specs[0].DeclaredRate != 0 {
		t.Fatal("original specs must be untouched")
	}
	anon := []slurm.JobSpec{{Name: "writex8"}}
	out = WithDeclaredRates(anon, map[string]float64{"writex8": 4}, 1)
	if out[0].DeclaredRate != 4 {
		t.Fatal("fingerprint fallback to name")
	}
}
