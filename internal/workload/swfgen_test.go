package workload

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteSyntheticSWFDeterministic(t *testing.T) {
	cfg := SWFGenConfig{Jobs: 500, Seed: 7, Nodes: 15, CoresPerNode: 56, QuirkEvery: 100}
	var a, b bytes.Buffer
	if err := WriteSyntheticSWF(&a, cfg); err != nil {
		t.Fatal(err)
	}
	if err := WriteSyntheticSWF(&b, cfg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("synthetic SWF generation must be byte-deterministic")
	}
}

func TestWriteSyntheticSWFParses(t *testing.T) {
	var buf bytes.Buffer
	cfg := SWFGenConfig{Jobs: 2000, Seed: 3, Nodes: 15, CoresPerNode: 56, QuirkEvery: 250}
	if err := WriteSyntheticSWF(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	res, err := ParseSWF(bytes.NewReader(buf.Bytes()), DefaultSWFOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Quirk rows drop or repair; everything else must survive conversion.
	if len(res.Jobs)+res.Dropped != cfg.Jobs {
		t.Fatalf("jobs %d + dropped %d != %d (quirks %+v)", len(res.Jobs), res.Dropped, cfg.Jobs, res.Quirks)
	}
	if res.Quirks == (SWFQuirks{}) {
		t.Fatalf("QuirkEvery must inject quirks, got %+v", res.Quirks)
	}
	// Submit times are usable: sorted, non-negative, and the arrival-rate
	// calibration keeps the trace from collapsing to a single burst.
	last := res.Jobs[len(res.Jobs)-1].At
	if last <= 0 {
		t.Fatalf("trace spans no time: last submit %v", last)
	}
	for i := 1; i < len(res.Jobs); i++ {
		if res.Jobs[i].At < res.Jobs[i-1].At {
			t.Fatalf("jobs not sorted at %d", i)
		}
	}
}

func TestWriteSyntheticSWFValidation(t *testing.T) {
	var buf bytes.Buffer
	bad := []SWFGenConfig{
		{Jobs: 0, Nodes: 15, CoresPerNode: 56},
		{Jobs: 10, Nodes: 0, CoresPerNode: 56},
		{Jobs: 10, Nodes: 15, CoresPerNode: 0},
		{Jobs: 10, Nodes: 15, CoresPerNode: 56, Utilization: 1.5},
	}
	for i, cfg := range bad {
		if err := WriteSyntheticSWF(&buf, cfg); err == nil {
			t.Errorf("config %d must fail", i)
		}
	}
	if err := WriteSyntheticSWF(&buf, SWFGenConfig{Jobs: 5, Nodes: 15, CoresPerNode: 56}); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), ";") {
		t.Fatal("trace must start with an SWF comment header")
	}
}
