package workload

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"wasched/internal/cluster"
	"wasched/internal/des"
	"wasched/internal/pfs"
)

const sampleSWF = `; SWF header
; MaxNodes: 128
;
1  0    10 300  56 -1 -1  56 600 -1 1 7 1 1 1 -1 -1 -1
2  60   -1 120  28 -1 -1  28  -1 -1 1 8 1 1 1 -1 -1 -1
3  120  -1 900 112 -1 -1 112 1000 -1 1 7 1 1 1 -1 -1 -1
4  180  -1 -5   56 -1 -1  56 600 -1 0 9 1 1 1 -1 -1 -1
5  240  -1 600 9999 -1 -1 9999 900 -1 1 7 1 1 1 -1 -1 -1
6  300  -1 450  -1 -1 -1  -1 500 -1 1 10 1 1 1 -1 -1 -1
`

func TestParseSWF(t *testing.T) {
	opts := DefaultSWFOptions()
	opts.IOFraction = 0 // deterministic check of structure first
	res, err := ParseSWF(strings.NewReader(sampleSWF), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Jobs 4 (bad runtime), 5 (too wide: 9999/56 = 179 nodes) and 6 (no
	// proc counts) drop.
	if len(res.Jobs) != 3 || res.Dropped != 3 {
		t.Fatalf("jobs=%d dropped=%d", len(res.Jobs), res.Dropped)
	}
	j1 := res.Jobs[0]
	if j1.At != 0 || j1.Spec.Nodes != 1 || j1.Spec.User != "user7" {
		t.Fatalf("job1: %+v", j1)
	}
	if p, ok := j1.Spec.Program.(cluster.SleepProgram); !ok || p.D != 300*des.Second {
		t.Fatalf("job1 program: %+v", j1.Spec.Program)
	}
	// Requested time 600 s + 60 s margin.
	if j1.Spec.Limit != 660*des.Second {
		t.Fatalf("job1 limit: %v", j1.Spec.Limit)
	}
	// Job 2 has no requested time: limit = 2×runtime + 60.
	if res.Jobs[1].Spec.Limit != 300*des.Second {
		t.Fatalf("job2 limit: %v", res.Jobs[1].Spec.Limit)
	}
	// Job 3 needs 2 nodes (112 procs / 56).
	if res.Jobs[2].Spec.Nodes != 2 {
		t.Fatalf("job3 nodes: %d", res.Jobs[2].Spec.Nodes)
	}
}

func TestParseSWFSyntheticIO(t *testing.T) {
	opts := DefaultSWFOptions()
	opts.IOFraction = 1
	res, err := ParseSWF(strings.NewReader(sampleSWF), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tj := range res.Jobs {
		p, ok := tj.Spec.Program.(cluster.BurstyProgram)
		if !ok {
			t.Fatalf("program: %+v", tj.Spec.Program)
		}
		if p.Cycles != 1 || p.BytesPerThread <= 0 {
			t.Fatalf("bursty: %+v", p)
		}
		if !strings.HasPrefix(tj.Spec.Fingerprint, "swf-io-") {
			t.Fatalf("fingerprint: %s", tj.Spec.Fingerprint)
		}
	}
	// The deterministic assignment is reproducible.
	res2, _ := ParseSWF(strings.NewReader(sampleSWF), opts)
	for i := range res.Jobs {
		if res.Jobs[i].Spec.Fingerprint != res2.Jobs[i].Spec.Fingerprint {
			t.Fatal("assignment must be deterministic")
		}
	}
}

// TestParseSWFBurstBuffer checks the flag-gated BB assignment: off by
// default, sized per node when on, and drawn from its own stream so
// enabling it leaves the I/O assignment untouched.
func TestParseSWFBurstBuffer(t *testing.T) {
	off, err := ParseSWF(strings.NewReader(sampleSWF), DefaultSWFOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tj := range off.Jobs {
		if tj.Spec.BBBytes != 0 {
			t.Fatalf("BB must default off, got %g for %s", tj.Spec.BBBytes, tj.Spec.Name)
		}
	}

	opts := DefaultSWFOptions()
	opts.BBFraction = 1
	opts.BBGiBPerNode = 4
	on, err := ParseSWF(strings.NewReader(sampleSWF), opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, tj := range on.Jobs {
		want := float64(tj.Spec.Nodes) * 4 * pfs.GiB
		if tj.Spec.BBBytes != want {
			t.Fatalf("job %d BB bytes %g, want %g", i, tj.Spec.BBBytes, want)
		}
		if !strings.HasSuffix(tj.Spec.Fingerprint, "-bb") {
			t.Fatalf("job %d fingerprint %s lacks -bb suffix", i, tj.Spec.Fingerprint)
		}
		// The I/O assignment must be byte-identical to the BB-off run:
		// the BB draw uses a separate stream.
		offFP := strings.TrimSuffix(tj.Spec.Fingerprint, "-bb")
		if offFP != off.Jobs[i].Spec.Fingerprint {
			t.Fatalf("job %d I/O assignment moved when BB was enabled: %s vs %s",
				i, offFP, off.Jobs[i].Spec.Fingerprint)
		}
	}

	bad := []SWFOptions{
		{CoresPerNode: 1, MaxNodes: 1, BBFraction: -0.1},
		{CoresPerNode: 1, MaxNodes: 1, BBFraction: 2},
		{CoresPerNode: 1, MaxNodes: 1, BBFraction: 0.5, BBGiBPerNode: 0},
	}
	for i, o := range bad {
		if _, err := ParseSWF(strings.NewReader(""), o); err == nil {
			t.Errorf("BB options %d must fail", i)
		}
	}
}

func TestParseSWFMaxJobs(t *testing.T) {
	opts := DefaultSWFOptions()
	opts.MaxJobs = 2
	res, err := ParseSWF(strings.NewReader(sampleSWF), opts)
	if err != nil || len(res.Jobs) != 2 {
		t.Fatalf("maxjobs: %v %d", err, len(res.Jobs))
	}
}

func TestParseSWFValidation(t *testing.T) {
	bad := []SWFOptions{
		{CoresPerNode: 0, MaxNodes: 1},
		{CoresPerNode: 1, MaxNodes: 0},
		{CoresPerNode: 1, MaxNodes: 1, IOFraction: 2},
		{CoresPerNode: 1, MaxNodes: 1, IOShare: 1},
		{CoresPerNode: 1, MaxNodes: 1, IOFraction: 0.5, IORate: 0},
		{CoresPerNode: 1, MaxNodes: 1, MaxJobs: -1},
	}
	for i, o := range bad {
		if _, err := ParseSWF(strings.NewReader(""), o); err == nil {
			t.Errorf("options %d must fail", i)
		}
	}
	// A truncated row is a counted quirk, not a parse failure: archive
	// traces carry them and one bad row must not lose the other million.
	res, err := ParseSWF(strings.NewReader("1 2 3"), DefaultSWFOptions())
	if err != nil {
		t.Fatalf("short line must be skipped, got error: %v", err)
	}
	if res.Quirks.ShortLines != 1 || res.Dropped != 1 || len(res.Jobs) != 0 {
		t.Fatalf("short line: %+v", res.Quirks)
	}
}

// TestParseSWFQuirks exercises every archive-trace quirk the parser
// tolerates, one table row per quirk.
func TestParseSWFQuirks(t *testing.T) {
	// A well-formed row template: job 1, submit 100, runtime 300, 56 procs.
	good := "1 100 10 300 56 -1 -1 56 600 -1 1 7 1 1 1 -1 -1 -1"
	cases := []struct {
		name  string
		line  string
		count func(q SWFQuirks) int
		kept  int // jobs surviving alongside the one good row
	}{
		{"short-line", "2 60 10", func(q SWFQuirks) int { return q.ShortLines }, 0},
		{"negative-submit", "2 -60 10 300 56 -1 -1 56 600 -1 1 7 1 1 1 -1 -1 -1",
			func(q SWFQuirks) int { return q.BadSubmit }, 0},
		{"submit-sentinel", "2 -1 10 300 56 -1 -1 56 600 -1 1 7 1 1 1 -1 -1 -1",
			func(q SWFQuirks) int { return q.BadSubmit }, 0},
		{"submit-garbage", "2 x 10 300 56 -1 -1 56 600 -1 1 7 1 1 1 -1 -1 -1",
			func(q SWFQuirks) int { return q.BadSubmit }, 0},
		{"negative-runtime", "2 60 10 -5 56 -1 -1 56 600 -1 1 7 1 1 1 -1 -1 -1",
			func(q SWFQuirks) int { return q.BadRuntime }, 0},
		{"runtime-sentinel", "2 60 10 -1 56 -1 -1 56 600 -1 1 7 1 1 1 -1 -1 -1",
			func(q SWFQuirks) int { return q.BadRuntime }, 0},
		{"zero-runtime", "2 60 10 0 56 -1 -1 56 600 -1 1 7 1 1 1 -1 -1 -1",
			func(q SWFQuirks) int { return q.BadRuntime }, 0},
		{"no-procs", "2 60 10 300 -1 -1 -1 -1 600 -1 1 7 1 1 1 -1 -1 -1",
			func(q SWFQuirks) int { return q.BadProcs }, 0},
		// Values that would overflow or vanish in the microsecond and
		// node-count conversions.
		{"huge-submit", "2 1e300 10 300 56 -1 -1 56 600 -1 1 7 1 1 1 -1 -1 -1",
			func(q SWFQuirks) int { return q.BadSubmit }, 0},
		{"nan-submit", "2 NaN 10 300 56 -1 -1 56 600 -1 1 7 1 1 1 -1 -1 -1",
			func(q SWFQuirks) int { return q.BadSubmit }, 0},
		{"sub-microsecond-runtime", "2 60 10 1e-9 56 -1 -1 56 600 -1 1 7 1 1 1 -1 -1 -1",
			func(q SWFQuirks) int { return q.BadRuntime }, 0},
		{"huge-runtime", "2 60 10 1e13 56 -1 -1 56 600 -1 1 7 1 1 1 -1 -1 -1",
			func(q SWFQuirks) int { return q.BadRuntime }, 0},
		{"huge-procs", "2 60 10 300 1e300 -1 -1 1e300 600 -1 1 7 1 1 1 -1 -1 -1",
			func(q SWFQuirks) int { return q.BadProcs }, 0},
		{"too-wide", "2 60 10 300 9999 -1 -1 9999 600 -1 1 7 1 1 1 -1 -1 -1",
			func(q SWFQuirks) int { return q.TooWide }, 0},
		// Out-of-order rows are repaired (kept and re-sorted), not dropped.
		{"out-of-order-submit", "2 0 10 300 56 -1 -1 56 600 -1 1 7 1 1 1 -1 -1 -1",
			func(q SWFQuirks) int { return q.OutOfOrderSubmits }, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The good row first, so an out-of-order second row regresses.
			in := good + "\n" + tc.line + "\n"
			res, err := ParseSWF(strings.NewReader(in), DefaultSWFOptions())
			if err != nil {
				t.Fatal(err)
			}
			if got := tc.count(res.Quirks); got != 1 {
				t.Fatalf("quirk count = %d, quirks %+v", got, res.Quirks)
			}
			if len(res.Jobs) != 1+tc.kept {
				t.Fatalf("jobs = %d, want %d (%+v)", len(res.Jobs), 1+tc.kept, res.Quirks)
			}
			wantDropped := 1 - tc.kept
			if res.Dropped != wantDropped || res.Quirks.Skipped() != wantDropped {
				t.Fatalf("dropped = %d/%d, want %d", res.Dropped, res.Quirks.Skipped(), wantDropped)
			}
		})
	}
}

// An unusable requested time (NaN, infinite or past the bound) keeps the
// row and falls back to the twice-the-runtime limit, as the -1 sentinel
// does.
func TestParseSWFUnusableReqTime(t *testing.T) {
	for _, req := range []string{"-1", "NaN", "Inf", "1e300"} {
		in := "1 100 10 300 56 -1 -1 56 " + req + " -1 1 7 1 1 1 -1 -1 -1\n"
		res, err := ParseSWF(strings.NewReader(in), DefaultSWFOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Jobs) != 1 || res.Jobs[0].Spec.Limit != 660*des.Second {
			t.Fatalf("req %s: %+v", req, res.Jobs)
		}
	}
}

// TestParseSWFOutOfOrderSorted proves a trace with regressing submit
// times comes back sorted and replayable.
func TestParseSWFOutOfOrderSorted(t *testing.T) {
	in := `3 120 -1 300 56 -1 -1 56 600 -1 1 7 1 1 1 -1 -1 -1
1 0 -1 300 56 -1 -1 56 600 -1 1 7 1 1 1 -1 -1 -1
2 60 -1 300 56 -1 -1 56 600 -1 1 8 1 1 1 -1 -1 -1
`
	res, err := ParseSWF(strings.NewReader(in), DefaultSWFOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Quirks.OutOfOrderSubmits != 2 {
		t.Fatalf("quirks: %+v", res.Quirks)
	}
	if len(res.Jobs) != 3 {
		t.Fatalf("jobs: %d", len(res.Jobs))
	}
	for i := 1; i < len(res.Jobs); i++ {
		if res.Jobs[i].At < res.Jobs[i-1].At {
			t.Fatalf("jobs not sorted by submit: %v then %v", res.Jobs[i-1].At, res.Jobs[i].At)
		}
	}
	if res.Quirks.String() == "clean" || res.Quirks == (SWFQuirks{}) {
		t.Fatalf("quirk summary: %q", res.Quirks.String())
	}
}

func TestParseSWFEndToEnd(t *testing.T) {
	// The converted trace must actually schedule.
	opts := DefaultSWFOptions()
	opts.IOFraction = 0.5
	res, err := ParseSWF(strings.NewReader(sampleSWF), opts)
	if err != nil {
		t.Fatal(err)
	}
	eng, ctl := feederRig(t)
	for _, tj := range res.Jobs {
		tj.Spec.Nodes = 1 // 4-node test rig
		if err := ctl.SubmitAt(tj.Spec, tj.At); err != nil {
			t.Fatal(err)
		}
	}
	ctl.Run()
	for ctl.DoneCount() < len(res.Jobs) && eng.Step() {
	}
	if ctl.DoneCount() != len(res.Jobs) {
		t.Fatalf("done %d of %d", ctl.DoneCount(), len(res.Jobs))
	}
}

// referenceParseSWFRecords is the SWF row parser as it was before rows
// were split in place: strings.TrimSpace and strings.Fields on every line,
// strconv.ParseFloat on every field. It is the oracle ParseSWFRecords must
// match bit for bit.
func referenceParseSWFRecords(r io.Reader) ([]SWFRecord, SWFQuirks, error) {
	var (
		recs       []SWFRecord
		quirks     SWFQuirks
		prevSubmit = math.Inf(-1)
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 12 {
			quirks.ShortLines++
			continue
		}
		num := func(i int) float64 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return -1
			}
			return v
		}
		rec := SWFRecord{
			JobNo:   int64(num(0)),
			Submit:  num(1),
			Runtime: num(3),
			Procs:   num(7),
			ReqTime: num(8),
			UserID:  int64(num(11)),
		}
		if rec.Procs <= 0 {
			rec.Procs = num(4) // fall back to allocated processors
		}
		// The negated ranges also catch NaN.
		switch {
		case !(rec.Submit >= 0 && rec.Submit <= swfMaxValue):
			quirks.BadSubmit++
			continue
		case !(rec.Runtime > 0 && rec.Runtime <= swfMaxValue) || des.FromSeconds(rec.Runtime) <= 0:
			quirks.BadRuntime++
			continue
		case !(rec.Procs > 0 && rec.Procs <= swfMaxValue):
			quirks.BadProcs++
			continue
		}
		if !(rec.ReqTime <= swfMaxValue) {
			rec.ReqTime = -1 // unusable: the limit falls back to twice the runtime
		}
		if rec.Submit < prevSubmit {
			quirks.OutOfOrderSubmits++
		} else {
			prevSubmit = rec.Submit
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return recs, quirks, fmt.Errorf("workload: swf read: %w", err)
	}
	return recs, quirks, nil
}

// sameSWFRecords reports where got and want differ, comparing floats by
// their bits, so a -0 or a NaN payload counts.
func sameSWFRecords(got, want []SWFRecord) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, want %d", len(got), len(want))
	}
	bits := math.Float64bits
	for i, g := range got {
		w := want[i]
		if g.JobNo != w.JobNo || g.UserID != w.UserID || bits(g.Submit) != bits(w.Submit) ||
			bits(g.Runtime) != bits(w.Runtime) || bits(g.Procs) != bits(w.Procs) || bits(g.ReqTime) != bits(w.ReqTime) {
			return fmt.Errorf("record %d: %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// checkParseMatchesReference parses data with both parsers and fails on
// any difference in records, quirks or error.
func checkParseMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	got, gotQ, gotErr := ParseSWFRecords(bytes.NewReader(data))
	want, wantQ, wantErr := referenceParseSWFRecords(bytes.NewReader(data))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("error %v, want %v", gotErr, wantErr)
	}
	if gotQ != wantQ {
		t.Fatalf("quirks %+v, want %+v", gotQ, wantQ)
	}
	if err := sameSWFRecords(got, want); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseSWFMatchesReference holds ParseSWFRecords to the reference
// parser on arbitrary input: the same records, bit for bit, the same
// quirks and the same error.
func FuzzParseSWFMatchesReference(f *testing.F) {
	row := func(fields ...string) string { return strings.Join(fields, " ") + "\n" }
	f.Add([]byte(sampleSWF))
	// Each value in every field a kept row reads: the job and user
	// numbers, which may hold any value, and the submit, run and
	// requested times and processor counts, which the range checks bound.
	for _, v := range []string{"-0", "+5", "007", "1e3", "1234567890123456", "123456789012345", "9999999999999999999",
		"-999999999999999", "0x1p4", "1_0", "NaN", "-Inf", "1e400", "3.5", ".5", "-"} {
		f.Add([]byte(row(v, "0", "-1", "300", "56", "-1", "-1", "56", "600", "-1", "1", v)))
		f.Add([]byte(row("1", v, "-1", v, v, "-1", "-1", "-1", v, "-1", "1", "7")))
		f.Add([]byte(row("1", "0", "-1", "300", "56", "-1", "-1", v, v, "-1", "1", "7")))
	}
	// An 11-field row is short; a 12-field one is kept.
	f.Add([]byte(row("3", "0", "-1", "300", "56", "-1", "-1", "56", "600", "-1", "1") +
		row("3", "0", "-1", "300", "56", "-1", "-1", "56", "600", "-1", "1", "7")))
	f.Add([]byte("1\t0\v-1\f300 56 -1 -1 56 600 -1 1 7\r\n2 60 -1 300 56 -1 -1 56 600 -1 1\r\n"))
	f.Add([]byte("   ; comment 1 2 3 4 5 6 7 8 9 10 11 12\n\t;\n \n"))
	f.Add([]byte("\u00851 0 -1 300 56 -1 -1 56 600 -1 1 7\n1\u00850 -1 300 56 -1 -1 56 600 -1 1 7\n"))
	f.Add([]byte("\u00a0;c\n1\u00a00 -1 300 56 -1 -1 56 600 -1 1 7\n1 0 -1 300 56 -1 -1 56 600 -1 1 \xff7\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParseMatchesReference(t, data)
	})
}

// TestParseSWFMatchesReferenceOnTraces holds ParseSWFRecords to the
// reference parser on both bundled traces.
func TestParseSWFMatchesReferenceOnTraces(t *testing.T) {
	for _, path := range []string{"../../testdata/swf/synthetic-10k.swf", "../../testdata/swf/synthetic-120k.swf.gz"} {
		t.Run(path, func(t *testing.T) {
			checkParseMatchesReference(t, readSWFFile(t, path))
		})
	}
}

func readSWFFile(t *testing.T, path string) []byte {
	t.Helper()
	f, err := OpenSWF(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// appendGrowths is the number of allocations appending n elements one by
// one to a nil []T makes.
func appendGrowths[T any](n int) int {
	var s []T
	growths := 0
	for range n {
		if len(s) == cap(s) {
			growths++
		}
		var zero T
		s = append(s, zero)
	}
	return growths
}

// TestSWFIngestAllocationShape is an allocation-shape test of ingestion.
// Parsing 1k and 10k rows allocates the records slice as it grows plus a
// constant (the reader, the scanner and its buffer). ConvertSWF allocates
// three objects per kept job (its name, its user and its boxed program),
// one per distinct fingerprint, the growth of the job slice and a
// constant.
// A per-row fmt.Sprintf or strings.Fields adds an object per row and
// fails it.
func TestSWFIngestAllocationShape(t *testing.T) {
	for _, rows := range []int{1_000, 10_000} {
		var buf bytes.Buffer
		gen := SWFGenConfig{Jobs: rows, Seed: 3, Nodes: 15, CoresPerNode: 56, Utilization: 0.7}
		if err := WriteSyntheticSWF(&buf, gen); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		records, _, err := ParseSWFRecords(bytes.NewReader(data))
		if err != nil || len(records) < rows*9/10 {
			t.Fatalf("%d rows parsed to %d records: %v", rows, len(records), err)
		}
		parse := testing.AllocsPerRun(3, func() {
			if _, _, err := ParseSWFRecords(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
		if max := appendGrowths[SWFRecord](len(records)) + 4; parse > float64(max) {
			t.Errorf("parsing %d rows: %.0f allocations, want at most %d (slice growth + 4)", rows, parse, max)
		}
		res, err := ConvertSWF(records, DefaultSWFOptions())
		if err != nil {
			t.Fatal(err)
		}
		kept := len(res.Jobs)
		fps := map[string]bool{}
		for _, j := range res.Jobs {
			fps[j.Spec.Fingerprint] = true
		}
		conv := testing.AllocsPerRun(3, func() {
			if _, err := ConvertSWF(records, DefaultSWFOptions()); err != nil {
				t.Fatal(err)
			}
		})
		if max := 3*kept + len(fps) + appendGrowths[TimedSpec](kept) + 16; conv > float64(max) {
			t.Errorf("converting %d jobs: %.0f allocations, want at most %d", kept, conv, max)
		}
		t.Logf("%d rows: parse %.0f allocations, ConvertSWF %.0f for %d jobs", rows, parse, conv, kept)
	}
}
