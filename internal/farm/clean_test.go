package farm

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// seedDamage plants one of each collectible in a state dir that already
// holds a healthy sweep: a valid-but-unreferenced entry (orphan), an
// unparsable entry (corrupt), and an interrupted atomic write (.tmp).
// It returns the three file names.
func seedDamage(t *testing.T, dir string) (orphan, corrupt, tmp string) {
	t.Helper()
	cacheDir := filepath.Join(dir, "cache")
	oc := Cell{Experiment: "gone-sweep", Config: "x", Seed: 9}
	b, err := json.Marshal(Outcome{Cell: oc, Status: StatusDone, Payload: json.RawMessage(`{"v":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	orphan = oc.Key() + ".json"
	corrupt = "00deadbeef000000.json"
	tmp = "0123456789abcdef.json.tmp"
	for name, content := range map[string][]byte{
		orphan:  b,
		corrupt: []byte("{not json"),
		tmp:     []byte("partial"),
	} {
		if err := os.WriteFile(filepath.Join(cacheDir, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return orphan, corrupt, tmp
}

func cacheExists(t *testing.T, dir, name string) bool {
	t.Helper()
	_, err := os.Stat(filepath.Join(dir, "cache", name))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return err == nil
}

func TestCleanCollectsDamage(t *testing.T) {
	dir := t.TempDir()
	cells := sweepCells(4)
	if _, err := Run(context.Background(), "keep", cells, simExec, Options{Workers: 1, StateDir: dir}); err != nil {
		t.Fatal(err)
	}
	orphan, corrupt, tmp := seedDamage(t, dir)

	// Dry-run: everything reported, nothing touched.
	rep, err := Clean(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Orphaned) != 1 || len(rep.Corrupt) != 1 || len(rep.Temp) != 1 || rep.Removed != 0 {
		t.Fatalf("dry-run report wrong: %+v", rep)
	}
	if rep.Scanned != len(cells)+2 { // live entries + orphan + corrupt (tmp is not an entry)
		t.Fatalf("scanned %d entries, want %d", rep.Scanned, len(cells)+2)
	}
	for _, name := range []string{orphan, corrupt, tmp} {
		if !cacheExists(t, dir, name) {
			t.Fatalf("dry-run removed %s", name)
		}
	}

	// Real pass: the three collectibles go, the live entries stay.
	rep, err = Clean(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Removed != 3 {
		t.Fatalf("removed %d files, want 3 (%+v)", rep.Removed, rep)
	}
	for _, name := range []string{orphan, corrupt, tmp} {
		if cacheExists(t, dir, name) {
			t.Fatalf("%s survived clean", name)
		}
	}
	sum, err := Run(context.Background(), "keep", cells, simExec, Options{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cached != len(cells) {
		t.Fatalf("clean evicted live entries: %d/%d cached", sum.Cached, len(cells))
	}

	// Idempotent: a second pass finds nothing.
	rep, err = Clean(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt)+len(rep.Orphaned)+len(rep.Temp) != 0 || rep.Removed != 0 {
		t.Fatalf("second clean not empty: %+v", rep)
	}
}

// TestCleanRepairsCorruptResume is the recovery story end to end: a
// truncated cache entry fails the resume, clean removes it, and the next
// resume recomputes just that cell.
func TestCleanRepairsCorruptResume(t *testing.T) {
	dir := t.TempDir()
	cells := sweepCells(3)
	if _, err := Run(context.Background(), "fix", cells, simExec, Options{Workers: 1, StateDir: dir}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cache", cells[2].Key()+".json")
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), "fix", cells, simExec, Options{Workers: 1, StateDir: dir}); err == nil {
		t.Fatal("resume over a corrupt entry must fail")
	}
	rep, err := Clean(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 1 {
		t.Fatalf("clean should collect exactly the torn entry: %+v", rep)
	}
	sum, err := Run(context.Background(), "fix", cells, simExec, Options{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cached != len(cells)-1 || sum.Done != len(cells) {
		t.Fatalf("post-clean resume should recompute one cell: %+v", sum)
	}
}

// TestCleanSuppressesOrphanRemovalOnDamagedJournal: with an unreadable
// journal the live-key set is unknown, so orphans are reported but kept;
// corrupt entries and .tmp leftovers are unusable regardless and still go.
func TestCleanSuppressesOrphanRemovalOnDamagedJournal(t *testing.T) {
	dir := t.TempDir()
	cells := sweepCells(2)
	if _, err := Run(context.Background(), "dmg", cells, simExec, Options{Workers: 1, StateDir: dir}); err != nil {
		t.Fatal(err)
	}
	orphan, _, _ := seedDamage(t, dir)
	// Damage the journal mid-stream: corrupt line followed by a valid one.
	journalWrite(t, dir, "dmg", `{broken`, `{"event":"done","key":"cccc"}`)

	rep, err := Clean(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DamagedJournals) != 1 {
		t.Fatalf("damaged journal not detected: %+v", rep)
	}
	if len(rep.Orphaned) != 1 || !cacheExists(t, dir, orphan) {
		t.Fatalf("orphan must be reported but kept under a damaged journal: %+v", rep)
	}
	if rep.Removed != 2 { // corrupt + tmp
		t.Fatalf("removed %d files, want 2: %+v", rep.Removed, rep)
	}
}

// TestCleanEmptyDir: a dir with no cache is a no-op, not an error.
func TestCleanEmptyDir(t *testing.T) {
	rep, err := Clean(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt)+len(rep.Orphaned)+len(rep.Temp) != 0 || rep.Scanned != 0 {
		t.Fatalf("empty dir should clean to nothing: %+v", rep)
	}
}
