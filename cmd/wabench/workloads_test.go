package main

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"math"
	"testing"

	"wasched/internal/experiments"
	"wasched/internal/sched"
	"wasched/internal/workload"
)

// At seed 42 the replay input is the bundled trace, so replay numbers
// compare with every earlier measurement of synthetic-120k.swf.gz.
func TestSWFGeneratorReproducesBundledTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := workload.WriteSyntheticSWF(&buf, swfGen(120000, 0.7, 42)); err != nil {
		t.Fatal(err)
	}
	sum := md5.Sum(buf.Bytes())
	if got, want := hex.EncodeToString(sum[:]), "cd7aa7ec094e5375a46f6e99a3c93db4"; got != want {
		t.Fatalf("generated trace md5 %s, want %s (decompressed testdata/swf/synthetic-120k.swf.gz)", got, want)
	}
}

// The benchmark composes the prototype run itself so it can time its
// parts; the composition must reproduce experiments.RunWorkload.
func TestProtoRunMatchesRunWorkload(t *testing.T) {
	specs := workload.Workload2()[:160]
	opts := experiments.DefaultOptions(sched.IOAwarePolicy{TotalNodes: experiments.Nodes, ThroughputLimit: experiments.Limit15}, 5)
	want, err := experiments.RunWorkload(opts, specs, true, "reference")
	if err != nil {
		t.Fatal(err)
	}
	in := &protoInput{specs: specs, opts: opts, limit: experiments.Limit15}
	a, err := doRep(in, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.out.problems) > 0 || a.out.failed > 0 {
		t.Fatalf("rep failed %d jobs: %v", a.out.failed, a.out.problems)
	}
	if a.out.makespan != want.Makespan || a.out.meanWait != want.Sched.MeanWait {
		t.Fatalf("makespan %v, mean wait %v; RunWorkload gives %v, %v",
			a.out.makespan, a.out.meanWait, want.Makespan, want.Sched.MeanWait)
	}
	b, err := doRep(in, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.out.digest != a.out.digest {
		t.Fatal("two reps of one input scheduled differently")
	}
}

func TestReplayRepsAgree(t *testing.T) {
	w, _ := findWorkload("replay-backlog-plan")
	full, err := w.newInput(7)
	if err != nil {
		t.Fatal(err)
	}
	in, err := newReplayInput(swfGen(3000, 0.9, 7), full.(*replayInput).opts, full.(*replayInput).cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := doRep(in, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := doRep(in, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.out.problems) > 0 || a.out.failed > 0 {
		t.Fatalf("rep failed %d jobs: %v", a.out.failed, a.out.problems)
	}
	if b.out.digest != a.out.digest {
		t.Fatal("two reps of one input scheduled differently")
	}
	if a.out.counters["replay.rounds"] == 0 || math.IsNaN(a.out.meanWait) {
		t.Fatalf("replay counters %v, mean wait %v", a.out.counters, a.out.meanWait)
	}
}

// A traced run reports every metric BENCHMARK.json names, on both kinds
// of workload.
func TestMeasureReportsEveryDeclaredMetric(t *testing.T) {
	spec, err := loadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	policy := sched.AdaptivePolicy{TotalNodes: experiments.Nodes, ThroughputLimit: experiments.Limit20, TwoGroup: true}
	small := []workloadDef{
		{"proto-small", func(seed uint64) (input, error) {
			return &protoInput{specs: workload.Workload1()[:90], opts: experiments.DefaultOptions(policy, seed), limit: experiments.Limit20}, nil
		}},
		{"replay-small", func(seed uint64) (input, error) {
			return newReplayInput(swfGen(20000, 0.7, seed), workload.DefaultSWFOptions(), replayConfig(policy, experiments.Limit20))
		}},
	}
	for _, w := range small {
		res, err := measure(w, settings{seed: 1, traced: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Fatalf("%s: correct %v, %d failed: %v", w.name, res.Correct, res.Failed, res.problems)
		}
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			if _, ok := res.Metrics[m.Name]; !ok {
				t.Errorf("%s: %s not measured", w.name, m.Name)
			}
		}
		if res.Metrics["cpu.total"].Median <= 0 || res.Metrics["allocs.total"].Median <= 0 {
			t.Errorf("%s: empty profiles: %v samples, %v allocs", w.name, res.Metrics["cpu.total"], res.Metrics["allocs.total"])
		}
	}
}
