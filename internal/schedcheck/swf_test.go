package schedcheck

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"wasched/internal/sched"
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
