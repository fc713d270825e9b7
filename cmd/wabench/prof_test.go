package main

import (
	"os"
	"testing"
)

func rollUpFile(t *testing.T, path string) (map[string]int64, int64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, total, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	return rollUp(samples), total
}

func TestRollUpCPUTraces(t *testing.T) {
	got, total := rollUpFile(t, "testdata/cpu.traces")
	want := map[string]int64{
		"sos":     7, // memmove under sos.Trim: charged to its nearest caller
		"runtime": 2, // GC workers have no project frame
		"ldms":    1, // mallocgc under ldms.flush
		"des":     1,
		"wabench": 2, // the policy timer's clock reads and the digest
		"other":   1, // stats is not one of the named layers
	}
	expectLayers(t, got, want)
	if total != 14 || sum(got) != total {
		t.Fatalf("layers sum to %d, header total %d, want both 14", sum(got), total)
	}
}

func TestRollUpAllocTraces(t *testing.T) {
	got, total := rollUpFile(t, "testdata/allocs.traces")
	expectLayers(t, got, map[string]int64{"ldms": 304359, "trace": 1116, "wabench": 3})
	if total != -1 {
		t.Fatalf("an allocation profile states no total, got %d", total)
	}
}

func expectLayers(t *testing.T, got, want map[string]int64) {
	t.Helper()
	for _, l := range layers {
		if got[l] != want[l] {
			t.Errorf("layer %s: %d, want %d", l, got[l], want[l])
		}
	}
	if len(got) != len(layers) {
		t.Errorf("roll-up has %d layers, want %d", len(got), len(layers))
	}
}

func sum(m map[string]int64) int64 {
	var s int64
	for _, v := range m {
		s += v
	}
	return s
}
