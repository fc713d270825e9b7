package schedcheck

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"wasched/internal/cluster"
	"wasched/internal/des"
	"wasched/internal/pfs"
	"wasched/internal/sched"
	"wasched/internal/slurm"
	"wasched/internal/workload"
)

const sampleSWF = `; header
1  0    -1 300  56 -1 -1  56 600 -1 1 7 1 1 1 -1 -1 -1
2  60   -1 120  28 -1 -1  28  -1 -1 1 8 1 1 1 -1 -1 -1
3  120  -1 900 112 -1 -1 112 1000 -1 1 7 1 1 1 -1 -1 -1
5  240  -1 600 9999 -1 -1 9999 900 -1 1 7 1 1 1 -1 -1 -1
`

// TestSimJobsFromSWFMirrorsParseSWF proves the replay converter and the
// full-prototype converter agree on shape and on which jobs carry
// synthetic I/O — they consume the same deterministic stream.
func TestSimJobsFromSWFMirrorsParseSWF(t *testing.T) {
	opts := workload.DefaultSWFOptions()
	opts.IOFraction = 0.5
	opts.BBFraction = 0.5
	opts.BBGiBPerNode = 4
	full, err := workload.ParseSWF(strings.NewReader(sampleSWF), opts)
	if err != nil {
		t.Fatal(err)
	}
	sims, quirks, err := LoadSWFSimJobs(strings.NewReader(sampleSWF), opts)
	if err != nil {
		t.Fatal(err)
	}
	if quirks.TooWide != 1 {
		t.Fatalf("quirks: %+v", quirks)
	}
	if len(sims) != len(full.Jobs) {
		t.Fatalf("sim jobs %d != full jobs %d", len(sims), len(full.Jobs))
	}
	for i, sj := range sims {
		fj := full.Jobs[i]
		if sj.Nodes != fj.Spec.Nodes || sj.Limit != fj.Spec.Limit || sj.Submit != fj.At {
			t.Fatalf("job %d shape: sim %+v vs full %+v", i, sj, fj.Spec)
		}
		// The fingerprint encodes the I/O assignment in both converters.
		if sj.Fingerprint != fj.Spec.Fingerprint {
			t.Fatalf("job %d I/O assignment diverged: %s vs %s", i, sj.Fingerprint, fj.Spec.Fingerprint)
		}
		if isIO := strings.HasPrefix(sj.Fingerprint, "swf-io-"); isIO != (sj.Rate > 0) {
			t.Fatalf("job %d rate %g inconsistent with fingerprint %s", i, sj.Rate, sj.Fingerprint)
		}
		// And so does the burst-buffer assignment, from its own stream.
		if sj.BBBytes != fj.Spec.BBBytes {
			t.Fatalf("job %d BB assignment diverged: %g vs %g", i, sj.BBBytes, fj.Spec.BBBytes)
		}
		if hasBB := strings.HasSuffix(sj.Fingerprint, "-bb"); hasBB != (sj.BBBytes > 0) {
			t.Fatalf("job %d BB bytes %g inconsistent with fingerprint %s", i, sj.BBBytes, sj.Fingerprint)
		}
	}
}

// TestSWFReplayEndToEnd runs a synthetic SWF trace through every policy's
// replay with the round checks on — the archive-scale path in miniature.
func TestSWFReplayEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	gen := workload.SWFGenConfig{Jobs: 300, Seed: 11, Nodes: 15, CoresPerNode: 56, QuirkEvery: 60}
	if err := workload.WriteSyntheticSWF(&buf, gen); err != nil {
		t.Fatal(err)
	}
	opts := workload.DefaultSWFOptions()
	jobs, quirks, err := LoadSWFSimJobs(bytes.NewReader(buf.Bytes()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if quirks == (workload.SWFQuirks{}) {
		t.Fatalf("generated trace should carry quirks, got %+v", quirks)
	}
	const nodes = 15
	limit := 20.0 * 1024 * 1024 * 1024
	policies := []sched.Policy{
		sched.NodePolicy{TotalNodes: nodes},
		sched.IOAwarePolicy{TotalNodes: nodes, ThroughputLimit: limit},
		sched.AdaptivePolicy{TotalNodes: nodes, ThroughputLimit: limit, TwoGroup: true},
		sched.AdaptivePolicy{TotalNodes: nodes, ThroughputLimit: limit, TwoGroup: false},
	}
	for _, p := range policies {
		res := Replay(jobs, ReplayConfig{
			Policy:    p,
			Options:   sched.Options{MaxJobTest: sched.SlurmDefaultTestLimit},
			Nodes:     nodes,
			Limit:     limit,
			MaxRounds: 500000,
		})
		if len(res.Jobs) != len(jobs) {
			t.Fatalf("%s: completed %d of %d jobs", p.Name(), len(res.Jobs), len(jobs))
		}
		for _, v := range res.Check.Violations {
			t.Errorf("%s: %s: %s", p.Name(), v.Invariant, v.Detail)
		}
	}
}

// FuzzParseSWFRecords feeds arbitrary bytes to the SWF row parser: it must
// not panic, and every record it accepts must convert to a replay job the
// replayer's contract allows — at least one node, a runtime in (0, Limit]
// and a non-negative submit time — or be dropped as too wide.
func FuzzParseSWFRecords(f *testing.F) {
	f.Add([]byte(sampleSWF))
	f.Add([]byte("1 1e300 -1 1 1 -1 -1 1 1 -1 1 1\n2 0 -1 1e-9 1 -1 -1 1e300 NaN -1 1 1\n"))
	f.Add([]byte("3 0 -1 5 -1 -1 -1 -1 Inf -1 1 1\n4 0 -1 1e13 56 -1 -1 56 -1 -1 1 1\n"))
	opts := workload.DefaultSWFOptions()
	f.Fuzz(func(t *testing.T, data []byte) {
		records, _, err := workload.ParseSWFRecords(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ParseSWFRecords on an in-memory reader: %v", err)
		}
		for _, rec := range records {
			jobs, quirks, err := SimJobsFromSWF([]workload.SWFRecord{rec}, opts)
			if err != nil {
				t.Fatalf("record %+v: %v", rec, err)
			}
			if quirks.TooWide == 1 && len(jobs) == 0 {
				continue
			}
			if len(jobs) != 1 {
				t.Fatalf("record %+v converted to %d jobs", rec, len(jobs))
			}
			j := jobs[0]
			if j.Nodes < 1 || j.Nodes > opts.MaxNodes || j.Actual <= 0 || j.Actual > j.Limit || j.Submit < 0 ||
				!(j.Rate >= 0) || math.IsInf(j.Rate, 0) {
				t.Fatalf("record %+v converted to an invalid job %+v", rec, j)
			}
		}
	})
}

// repeatedIDsSWF numbers its jobs out of order and repeats some numbers,
// once on a row too wide to keep.
const repeatedIDsSWF = `5 0 -1 300 56 -1 -1 56 600 -1 1 7 1 1 1 -1 -1 -1
3 10 -1 300 112 -1 -1 112 600 -1 1 8 1 1 1 -1 -1 -1
5 20 -1 300 9999 -1 -1 9999 600 -1 1 7 1 1 1 -1 -1 -1
5 30 -1 300 56 -1 -1 56 600 -1 1 7 1 1 1 -1 -1 -1
3 40 -1 300 56 -1 -1 56 600 -1 1 9 1 1 1 -1 -1 -1
7 50 -1 300 56 -1 -1 56 600 -1 1 9 1 1 1 -1 -1 -1
5 60 -1 300 56 -1 -1 56 600 -1 1 9 1 1 1 -1 -1 -1
`

// TestSWFIngestMatchesReference holds SimJobsFromSWF and
// workload.ConvertSWF to the converters as they were before they shared
// workload.EachSWFJob (referenceSimJobsFromSWF, referenceConvertSWF) on
// both bundled traces and on a trace that repeats job numbers.
func TestSWFIngestMatchesReference(t *testing.T) {
	bb := workload.DefaultSWFOptions()
	bb.IOFraction, bb.BBFraction, bb.BBGiBPerNode, bb.Seed = 0.5, 0.3, 4, 2
	narrow := workload.DefaultSWFOptions()
	narrow.MaxNodes, narrow.MaxJobs, narrow.Seed = 4, 3000, 42
	inputs := []struct {
		name string
		data []byte
	}{
		{"synthetic-10k", readTrace(t, "../../testdata/swf/synthetic-10k.swf")},
		{"synthetic-120k", readTrace(t, "../../testdata/swf/synthetic-120k.swf.gz")},
		{"repeated-ids", []byte(repeatedIDsSWF)},
	}
	for _, in := range inputs {
		records, _, err := workload.ParseSWFRecords(bytes.NewReader(in.data))
		if err != nil {
			t.Fatal(err)
		}
		for i, opts := range []workload.SWFOptions{workload.DefaultSWFOptions(), bb, narrow} {
			t.Run(fmt.Sprintf("%s/opts%d", in.name, i), func(t *testing.T) {
				jobs, quirks, err := SimJobsFromSWF(records, opts)
				wantJobs, wantQuirks, wantErr := referenceSimJobsFromSWF(records, opts)
				if err != nil || wantErr != nil {
					t.Fatal(err, wantErr)
				}
				if quirks != wantQuirks || !reflect.DeepEqual(jobs, wantJobs) {
					t.Fatalf("SimJobsFromSWF differs from the reference (%d vs %d jobs, quirks %+v vs %+v)",
						len(jobs), len(wantJobs), quirks, wantQuirks)
				}
				res, err := workload.ConvertSWF(records, opts)
				want, wantErr := referenceConvertSWF(records, opts)
				if err != nil || wantErr != nil {
					t.Fatal(err, wantErr)
				}
				if !reflect.DeepEqual(res, want) {
					t.Fatalf("ConvertSWF differs from the reference (%d vs %d jobs)", len(res.Jobs), len(want.Jobs))
				}
			})
		}
	}
	jobs, _, err := SimJobsFromSWF(mustParse(t, repeatedIDsSWF), workload.DefaultSWFOptions())
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, j := range jobs {
		ids = append(ids, j.ID)
	}
	if got := strings.Join(ids, " "); got != "swf-5 swf-3 swf-5.2 swf-3.2 swf-7 swf-5.3" {
		t.Fatalf("IDs %s", got)
	}
}

func readTrace(t *testing.T, path string) []byte {
	t.Helper()
	f, err := workload.OpenSWF(path)
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

func mustParse(t *testing.T, swf string) []workload.SWFRecord {
	t.Helper()
	records, _, err := workload.ParseSWFRecords(strings.NewReader(swf))
	if err != nil {
		t.Fatal(err)
	}
	return records
}

// referenceSimJobsFromSWF is SimJobsFromSWF as it was before the shared
// record loop: fmt.Sprintf names and fingerprints, and a repeat count
// keyed by the formatted ID.
func referenceSimJobsFromSWF(records []workload.SWFRecord, opts workload.SWFOptions) ([]SimJob, workload.SWFQuirks, error) {
	if err := opts.Validate(); err != nil {
		return nil, workload.SWFQuirks{}, err
	}
	rng := des.NewRNG(opts.Seed, "workload/swf")
	bbRng := des.NewRNG(opts.Seed, "workload/swf-bb")
	var quirks workload.SWFQuirks
	jobs := make([]SimJob, 0, len(records))
	seen := make(map[string]int, len(records))
	for _, rec := range records {
		if referenceSWFNodes(rec, opts) > opts.MaxNodes {
			quirks.TooWide++
			continue
		}
		sh := referenceShapeSWF(rec, opts, rng.Float64())
		id := fmt.Sprintf("swf-%d", rec.JobNo)
		if n := seen[id]; n > 0 {
			seen[id] = n + 1
			id = fmt.Sprintf("%s.%d", id, n+1)
		} else {
			seen[id] = 1
		}
		j := SimJob{
			ID:          id,
			Nodes:       sh.Nodes,
			Limit:       des.FromSeconds(sh.Limit),
			Actual:      des.FromSeconds(sh.Runtime),
			Submit:      des.TimeFromSeconds(rec.Submit),
			Fingerprint: fmt.Sprintf("swf-cpu-n%d", sh.Nodes),
			BBBytes:     referenceSWFBBBytes(sh.Nodes, opts, bbRng.Float64()),
		}
		if sh.DoesIO {
			j.Fingerprint = fmt.Sprintf("swf-io-n%d", sh.Nodes)
			j.Rate = sh.Bytes / sh.Runtime
			j.EstRate = j.Rate
		}
		if j.BBBytes > 0 {
			j.Fingerprint += "-bb"
		}
		jobs = append(jobs, j)
		if opts.MaxJobs > 0 && len(jobs) >= opts.MaxJobs {
			break
		}
	}
	return jobs, quirks, nil
}

// referenceConvertSWF is workload.ConvertSWF as it was before the shared
// record loop.
func referenceConvertSWF(records []workload.SWFRecord, opts workload.SWFOptions) (workload.SWFResult, error) {
	if err := opts.Validate(); err != nil {
		return workload.SWFResult{}, err
	}
	rng := des.NewRNG(opts.Seed, "workload/swf")
	bbRng := des.NewRNG(opts.Seed, "workload/swf-bb")
	var res workload.SWFResult
	for _, rec := range records {
		if referenceSWFNodes(rec, opts) > opts.MaxNodes {
			res.Quirks.TooWide++
			continue
		}
		sh := referenceShapeSWF(rec, opts, rng.Float64())
		spec := slurm.JobSpec{
			Name:    fmt.Sprintf("swf-%d", rec.JobNo),
			Nodes:   sh.Nodes,
			Limit:   des.FromSeconds(sh.Limit),
			User:    fmt.Sprintf("user%d", rec.UserID),
			BBBytes: referenceSWFBBBytes(sh.Nodes, opts, bbRng.Float64()),
		}
		if sh.DoesIO {
			spec.Fingerprint = fmt.Sprintf("swf-io-n%d", sh.Nodes)
			spec.Program = cluster.BurstyProgram{
				Cycles:         1,
				Compute:        des.FromSeconds(sh.Runtime - sh.IOTime),
				Threads:        4 * sh.Nodes,
				BytesPerThread: sh.Bytes / float64(4*sh.Nodes),
			}
		} else {
			spec.Fingerprint = fmt.Sprintf("swf-cpu-n%d", sh.Nodes)
			spec.Program = cluster.SleepProgram{D: des.FromSeconds(sh.Runtime)}
		}
		if spec.BBBytes > 0 {
			spec.Fingerprint += "-bb"
		}
		res.Jobs = append(res.Jobs, workload.TimedSpec{At: des.TimeFromSeconds(rec.Submit), Spec: spec})
		if opts.MaxJobs > 0 && len(res.Jobs) >= opts.MaxJobs {
			break
		}
	}
	return res, nil
}

func referenceSWFBBBytes(nodes int, opts workload.SWFOptions, rand float64) float64 {
	if rand >= opts.BBFraction {
		return 0
	}
	return float64(nodes) * opts.BBGiBPerNode * pfs.GiB
}

func referenceSWFNodes(rec workload.SWFRecord, opts workload.SWFOptions) int {
	nodes := int(math.Ceil(rec.Procs / float64(opts.CoresPerNode)))
	if nodes < 1 {
		nodes = 1
	}
	return nodes
}

type referenceShape struct {
	Nodes   int
	Limit   float64
	Runtime float64
	DoesIO  bool
	IOTime  float64
	Bytes   float64
}

func referenceShapeSWF(rec workload.SWFRecord, opts workload.SWFOptions, rand float64) referenceShape {
	limit := rec.ReqTime
	if limit <= 0 || limit < rec.Runtime {
		limit = rec.Runtime * 2
	}
	sh := referenceShape{Nodes: referenceSWFNodes(rec, opts), Limit: limit + 60, Runtime: rec.Runtime}
	if rand < opts.IOFraction && rec.Runtime > 2 {
		sh.DoesIO = true
		sh.IOTime = rec.Runtime * opts.IOShare
		sh.Bytes = sh.IOTime * opts.IORate
	}
	return sh
}

// TestSimJobsFromSWFAllocationShape is an allocation-shape test of the
// replay's conversion at 1k and 10k rows: one object per kept job (its
// ID), one per distinct fingerprint, and a constant (the job slice, the
// RNGs, the fingerprint table). A per-job fmt.Sprintf or a fingerprint
// built per job fails it.
func TestSimJobsFromSWFAllocationShape(t *testing.T) {
	for _, rows := range []int{1_000, 10_000} {
		var buf bytes.Buffer
		gen := workload.SWFGenConfig{Jobs: rows, Seed: 3, Nodes: 15, CoresPerNode: 56, Utilization: 0.7}
		if err := workload.WriteSyntheticSWF(&buf, gen); err != nil {
			t.Fatal(err)
		}
		records := mustParse(t, buf.String())
		jobs, _, err := SimJobsFromSWF(records, workload.DefaultSWFOptions())
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, _, err := SimJobsFromSWF(records, workload.DefaultSWFOptions()); err != nil {
				t.Fatal(err)
			}
		})
		fps := map[string]bool{}
		for _, j := range jobs {
			fps[j.Fingerprint] = true
		}
		if max := len(jobs) + len(fps) + 16; allocs > float64(max) {
			t.Errorf("converting %d jobs: %.0f allocations, want at most %d", len(jobs), allocs, max)
		}
		t.Logf("%d rows: %.0f allocations for %d jobs", rows, allocs, len(jobs))
	}
}
