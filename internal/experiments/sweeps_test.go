package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"wasched/internal/farm"
)

// TestFig6FarmDeterminism is the farm's determinism regression: the same
// fig6 sweep aggregated from one worker and from eight must be
// byte-identical. Any worker-count dependence (shared RNG, completion-order
// aggregation, racy accumulation) breaks this.
func TestFig6FarmDeterminism(t *testing.T) {
	t.Parallel()
	render := func(workers int) []byte {
		cfg := Fig6Config{
			Repeats:    2,
			Seed:       11,
			Experiment: "fig6-det",
			Workload:   SmokeWorkload(),
			Farm:       FarmOptions{Workers: workers},
		}
		rows, err := RunFig6(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := render(1)
	parallel := render(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("fig6 rows differ between 1 and 8 workers:\n%s\nvs\n%s", serial, parallel)
	}
}

// TestSweepRegistry checks how the experiments' cells share the cache.
// A cell key two experiments enumerate is one computation, so sharing is
// allowed only where it is meant: a single panel with its figure, a
// single grid with "ablations". Any other collision would let one
// experiment's cached results poison another's.
func TestSweepRegistry(t *testing.T) {
	owner := make(map[string]string) // cell key → first experiment enumerating it
	for _, e := range Experiments() {
		for _, c := range e.Cells(1) {
			first, dup := owner[c.Key()]
			if !dup {
				owner[c.Key()] = e.Name
				continue
			}
			meant := func(all, one string) bool {
				return (all == "ablations" && one == c.Config) || one == all+c.Config
			}
			if !meant(first, e.Name) && !meant(e.Name, first) {
				t.Fatalf("cell %s of experiment %s collides with experiment %s", c, e.Name, first)
			}
		}
	}
}

// TestFig6SmokeSweepEndToEnd drives the smoke experiment exactly as
// `make sweep-smoke` does — interrupt after three fresh cells, resume from
// the journal — and checks the resumed report equals an in-memory run's.
func TestFig6SmokeSweepEndToEnd(t *testing.T) {
	t.Parallel()
	e := mustLookup(t, "fig6-smoke")
	dir := t.TempDir()
	ctx := context.Background()
	err := e.Run(ctx, io.Discard, RunOptions{Seed: 1, Farm: farm.Options{Workers: 2, StateDir: dir, MaxFresh: 3}})
	if !errors.Is(err, farm.ErrInterrupted) {
		t.Fatalf("interrupted sweep reported %v", err)
	}
	var resumed, fresh bytes.Buffer
	if err := e.Run(ctx, &resumed, RunOptions{Seed: 1, Farm: farm.Options{Workers: 2, StateDir: dir}}); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(ctx, &fresh, RunOptions{Seed: 1, Farm: farm.Options{Workers: 2}}); err != nil {
		t.Fatal(err)
	}
	if resumed.String() != fresh.String() || !strings.Contains(fresh.String(), "Fig. 6") {
		t.Fatalf("resumed report differs from the in-memory report:\n%s\nvs\n%s", resumed.String(), fresh.String())
	}
	st, err := farm.ReadStatus(dir, "fig6-smoke")
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs != 2 || st.CacheHits != 3 || st.Remaining != 0 || st.Failed != 0 {
		t.Fatalf("status after resume: %+v", st)
	}
}
