package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wasched/internal/farm"
)

// fakeExperiments builds instant experiments (alpha with one cell, beta
// with two, gamma with one) so the report machinery can be exercised
// without running real simulations. fail names a cell config whose
// execution fails.
func fakeExperiments(fail string) []Experiment {
	var exps []Experiment
	for _, x := range []struct {
		name  string
		cells int
	}{{"alpha", 1}, {"beta", 2}, {"gamma", 1}} {
		exps = append(exps, Experiment{
			Name:        x.name,
			Description: x.name + " section",
			Cells: func(seed uint64) []farm.Cell {
				cells := make([]farm.Cell, x.cells)
				for i := range cells {
					cells[i] = farm.Cell{Experiment: x.name, Config: fmt.Sprintf("%s%d", x.name, i), Seed: seed}
				}
				return cells
			},
			Exec: func(uint64) farm.Exec {
				return func(_ context.Context, c farm.Cell) (any, error) {
					if c.Config == fail {
						return nil, fmt.Errorf("synthetic failure")
					}
					return fmt.Sprintf("%s seed=%d", c.Config, c.Seed), nil
				}
			},
			Report: func(w io.Writer, _ uint64, sum *farm.Summary) error {
				for _, o := range sum.Outcomes {
					var line string
					if err := o.Decode(&line); err != nil {
						return err
					}
					fmt.Fprintln(w, line)
				}
				return nil
			},
		})
	}
	return exps
}

// TestReportFromCellsResume: a report interrupted inside its second
// experiment exits with ErrInterrupted, and the re-invocation serves the
// finished cells from the cache while producing byte-identical output to
// an uninterrupted run.
func TestReportFromCellsResume(t *testing.T) {
	t.Parallel()
	exps := fakeExperiments("")
	ctx := context.Background()

	var ref bytes.Buffer
	if err := writeReport(ctx, &ref, exps, RunOptions{Seed: 5, Farm: farm.Options{Workers: 1, StateDir: t.TempDir()}}, nil); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"alpha — alpha section", "alpha0 seed=5", "beta1 seed=5", "gamma0 seed=5"} {
		if !strings.Contains(ref.String(), want) {
			t.Fatalf("reference report missing %q:\n%s", want, ref.String())
		}
	}

	dir := t.TempDir()
	// One fresh cell per experiment: alpha completes, beta stops after
	// its first cell.
	err := writeReport(ctx, io.Discard, exps, RunOptions{Seed: 5, Farm: farm.Options{Workers: 1, StateDir: dir, MaxFresh: 1}}, nil)
	if !errors.Is(err, farm.ErrInterrupted) || !strings.Contains(err.Error(), "beta") {
		t.Fatalf("interrupted report: got %v, want ErrInterrupted in beta", err)
	}
	var resumed bytes.Buffer
	if err := writeReport(ctx, &resumed, exps, RunOptions{Seed: 5, Farm: farm.Options{Workers: 1, StateDir: dir}}, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed.Bytes(), ref.Bytes()) {
		t.Fatalf("resumed report differs from uninterrupted run:\n%s\n----\n%s", resumed.String(), ref.String())
	}
	for _, want := range []struct {
		name             string
		runs, done, hits int
	}{{"alpha", 2, 1, 1}, {"beta", 2, 2, 1}, {"gamma", 1, 1, 0}} {
		st, err := farm.ReadStatus(dir, want.name)
		if err != nil {
			t.Fatal(err)
		}
		if st.Runs != want.runs || st.Done != want.done || st.CacheHits != want.hits || st.Remaining != 0 {
			t.Fatalf("%s journal: %+v, want %d runs, %d done, %d cache hits", want.name, st, want.runs, want.done, want.hits)
		}
	}
}

// TestReportFailedSectionSurfaces: a failing cell names its experiment
// and itself in the error instead of vanishing into a generic tally.
func TestReportFailedSectionSurfaces(t *testing.T) {
	t.Parallel()
	err := writeReport(context.Background(), io.Discard, fakeExperiments("beta1"),
		RunOptions{Seed: 1, Farm: farm.Options{Workers: 1, StateDir: t.TempDir()}}, nil)
	if err == nil || !strings.Contains(err.Error(), "beta: ") || !strings.Contains(err.Error(), "beta/beta1/seed1 failed: synthetic failure") {
		t.Fatalf("failed section error: %v", err)
	}
}

// TestReportStateDirRejectsCSV: cached cells have no recorders to export,
// so the combination is refused up front, by the report and by a run.
func TestReportStateDirRejectsCSV(t *testing.T) {
	t.Parallel()
	opts := RunOptions{Seed: 1, CSVDir: t.TempDir(), Farm: farm.Options{StateDir: t.TempDir()}}
	var buf bytes.Buffer
	err := WriteFullReport(context.Background(), &buf, opts, nil)
	if err == nil || !strings.Contains(err.Error(), "incompatible") || buf.Len() != 0 {
		t.Fatalf("state-dir + csv: %v (wrote %d bytes)", err, buf.Len())
	}
	if err := mustLookup(t, "fig4").Run(context.Background(), io.Discard, opts); err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("state-dir + csv on a run: %v", err)
	}
}

// TestAblationRegistryConsistency: every grid of AblationGrids is an
// experiment of its own whose one cell is the grid's cell of the
// "ablations" experiment, so the two share the cache.
func TestAblationRegistryConsistency(t *testing.T) {
	t.Parallel()
	grids := AblationGrids()
	if len(grids) == 0 {
		t.Fatal("no ablation grids registered")
	}
	all := mustLookup(t, "ablations").Cells(3)
	if len(all) != len(grids) {
		t.Fatalf("ablations enumerates %d cells for %d grids", len(all), len(grids))
	}
	for i, g := range grids {
		if c := all[i]; c.Config != g.Name || c.Experiment != "ablations" || c.Seed != 3 {
			t.Fatalf("cell %d: %+v does not match grid %s", i, c, g.Name)
		}
		e := mustLookup(t, g.Name)
		if e.Description != g.Description {
			t.Errorf("grid %s: experiment description %q != grid description %q", g.Name, e.Description, g.Description)
		}
		if cells := e.Cells(3); len(cells) != 1 || cells[0] != all[i] {
			t.Errorf("grid %s: cells %v, want [%s]", g.Name, cells, all[i])
		}
	}
}

// TestAblationsSweepReportSynthetic drives the ablation reports over a
// hand-built summary, so the (expensive) grids themselves never run: the
// "ablations" report puts each table under its grid's banner, a single
// grid prints its table bare.
func TestAblationsSweepReportSynthetic(t *testing.T) {
	t.Parallel()
	sum := &farm.Summary{Name: "ablations"}
	for i, c := range mustLookup(t, "ablations").Cells(1) {
		digests := []AblationDigest{
			{Label: c.Config + "/base", Makespan: 1000 + float64(i)},
			{Label: c.Config + "/variant", Makespan: 900 + float64(i), VsBase: -0.1},
		}
		payload, err := json.Marshal(digests)
		if err != nil {
			t.Fatal(err)
		}
		sum.Outcomes = append(sum.Outcomes, farm.Outcome{Cell: c, Status: farm.StatusDone, Payload: payload})
		sum.Done++
	}
	var buf bytes.Buffer
	if err := mustLookup(t, "ablations").Report(&buf, 1, sum); err != nil {
		t.Fatal(err)
	}
	for _, g := range AblationGrids() {
		if !strings.Contains(buf.String(), "=== "+g.Name+": "+g.Description+" ===") {
			t.Fatalf("report missing grid %s:\n%s", g.Name, buf.String())
		}
		if !strings.Contains(buf.String(), g.Name+"/variant") {
			t.Fatalf("report missing rows of grid %s", g.Name)
		}
	}
	one := &farm.Summary{Name: "ablation-guard", Outcomes: sum.Outcomes[1:2], Done: 1}
	buf.Reset()
	if err := mustLookup(t, "ablation-guard").Report(&buf, 1, one); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "===") || !strings.Contains(buf.String(), "ablation-guard/variant") {
		t.Fatalf("single grid report:\n%s", buf.String())
	}
}

// TestStalePanelPayloadMisses: a state dir written before panel digests
// carried their warnings and plots holds fig3/fig5 sweep entries (and
// report sections) in the older shape. No experiment's cell may hit those
// keys, and once no journal names them, sweep clean collects them as
// orphans.
func TestStalePanelPayloadMisses(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "cache"), 0o755); err != nil {
		t.Fatal(err)
	}
	stale := map[string]bool{}
	plant := func(c farm.Cell, payload string) {
		b, err := json.Marshal(farm.Outcome{Cell: c, Status: farm.StatusDone, Payload: json.RawMessage(payload)})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "cache", c.Key()+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
		stale[c.Key()] = true
	}
	for _, fig := range []string{"fig3", "fig5"} {
		for _, key := range []string{"a", "b", "c", "d", "e"} {
			plant(farm.Cell{Experiment: fig, Config: key, Seed: 1},
				`{"label":"old","makespan_s":1,"busy_nodes":1,"throughput_gib_s":1,"median_wait_s":1,"bounded_slowdown":1}`)
		}
	}
	for _, name := range reportOrder() {
		plant(farm.Cell{Experiment: "report", Config: name, Seed: 1}, `{"name":"old","text":"old"}`)
	}
	for _, e := range Experiments() {
		for _, c := range e.Cells(1) {
			if stale[c.Key()] {
				t.Fatalf("experiment %s cell %s hits an entry of the older payload shape", e.Name, c)
			}
		}
	}

	if err := mustLookup(t, "fig4").Run(context.Background(), io.Discard,
		RunOptions{Seed: 1, Farm: farm.Options{StateDir: dir}}); err != nil {
		t.Fatal(err)
	}
	rep, err := farm.Clean(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Orphaned) != len(stale) || rep.Scanned != len(stale)+len(mustLookup(t, "fig4").Cells(1)) {
		t.Fatalf("clean: %d of %d entries orphaned, want the %d stale ones: %+v", len(rep.Orphaned), rep.Scanned, len(stale), rep)
	}
	for _, name := range rep.Orphaned {
		if !stale[strings.TrimSuffix(name, ".json")] {
			t.Fatalf("clean would collect %s, which fig4 journaled", name)
		}
	}
}
