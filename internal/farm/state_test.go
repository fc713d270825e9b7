package farm

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// journalWrite appends raw lines to a sweep journal, bypassing the state
// layer — the tests here construct damaged on-disk states by hand.
func journalWrite(t *testing.T, dir, name string, lines ...string) {
	t.Helper()
	f, err := os.OpenFile(journalPath(dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, l := range lines {
		if _, err := f.WriteString(l + "\n"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadStatusCorruptMidline: an unparsable line with valid lines after
// it is journal damage, not a torn tail, and must surface as an error
// instead of silently skewing the counts.
func TestReadStatusCorruptMidline(t *testing.T) {
	dir := t.TempDir()
	journalWrite(t, dir, "s",
		`{"event":"begin","cells":2}`,
		`{"event":"done","key":"aaaa","cell":{"experiment":"t","config":"a","seed":1}`, // truncated JSON
		`{"event":"done","key":"bbbb"}`,
	)
	_, err := ReadStatus(dir, "s")
	if err == nil {
		t.Fatal("mid-stream corrupt journal line must error")
	}
	if !strings.Contains(err.Error(), "corrupt journal line 2") {
		t.Fatalf("error should identify the corrupt line, got: %v", err)
	}
}

// TestReadStatusTornTail: exactly one unparsable line at the very end is
// the torn tail of a killed process and is tolerated.
func TestReadStatusTornTail(t *testing.T) {
	dir := t.TempDir()
	journalWrite(t, dir, "s",
		`{"event":"begin","cells":3}`,
		`{"event":"done","key":"aaaa"}`,
		`{"event":"done","key":"bb`, // torn mid-write by a kill
	)
	st, err := ReadStatus(dir, "s")
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if st.Cells != 3 || st.Done != 1 || st.Remaining != 2 {
		t.Fatalf("status miscounted around torn tail: %+v", st)
	}
}

// TestReadStatusMissingJournal: asking about a sweep that never ran is an
// error naming the sweep, not an empty status.
func TestReadStatusMissingJournal(t *testing.T) {
	if _, err := ReadStatus(t.TempDir(), "nope"); err == nil {
		t.Fatal("missing journal must error")
	}
}

// TestLookupTruncatedCacheEntry: a truncated cache file must fail the
// sweep with an error pointing at `wasched sweep clean`, not be silently
// recomputed — silent recomputation would mask state-dir damage.
func TestLookupTruncatedCacheEntry(t *testing.T) {
	dir := t.TempDir()
	cells := sweepCells(3)
	if _, err := Run(context.Background(), "trunc", cells, simExec, Options{Workers: 1, StateDir: dir}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "cache", cells[1].Key()+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), "trunc", cells, simExec, Options{Workers: 1, StateDir: dir})
	if err == nil {
		t.Fatal("truncated cache entry must fail the resume")
	}
	if !strings.Contains(err.Error(), "sweep clean") {
		t.Fatalf("error should point at sweep clean, got: %v", err)
	}
}

// TestLookupWrongCellEntry: a cache file whose payload describes a
// different cell (hash collision or hand-edit) must be refused.
func TestLookupWrongCellEntry(t *testing.T) {
	dir := t.TempDir()
	cells := sweepCells(2)
	if _, err := Run(context.Background(), "swap", cells, simExec, Options{Workers: 1, StateDir: dir}); err != nil {
		t.Fatal(err)
	}
	// Overwrite cell 0's entry with cell 1's outcome.
	b, err := os.ReadFile(filepath.Join(dir, "cache", cells[1].Key()+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cache", cells[0].Key()+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := openState(dir, "swap")
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	if _, _, err := st.lookup(cells[0]); err == nil || !strings.Contains(err.Error(), "holds cell") {
		t.Fatalf("mismatched cell entry must be refused, got: %v", err)
	}
}

// TestLookupNonDoneEntry: only successful outcomes may be served from the
// cache; a failed outcome on disk is corruption (record never writes one).
func TestLookupNonDoneEntry(t *testing.T) {
	dir := t.TempDir()
	c := Cell{Experiment: "t", Config: "a", Seed: 1}
	if err := os.MkdirAll(filepath.Join(dir, "cache"), 0o755); err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(Outcome{Cell: c, Status: StatusFailed, Err: "boom"})
	if err := os.WriteFile(filepath.Join(dir, "cache", c.Key()+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := openState(dir, "bad")
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	if _, _, err := st.lookup(c); err == nil || !strings.Contains(err.Error(), "status") {
		t.Fatalf("non-done cache entry must be refused, got: %v", err)
	}
}

// TestUnwritableStateDir: a state dir that cannot be created (here: the
// path is a regular file, so MkdirAll fails regardless of privileges)
// surfaces as a Run error instead of a silent in-memory sweep.
func TestUnwritableStateDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Run(context.Background(), "bad", sweepCells(1), simExec, Options{StateDir: file})
	if err == nil || !strings.Contains(err.Error(), "state dir") {
		t.Fatalf("unwritable state dir must fail Run, got: %v", err)
	}
}

// TestRepairJournalTail: opening a journal whose previous writer was
// killed mid-append truncates the torn fragment, so later appends extend a
// clean line instead of gluing onto garbage (which would read back as
// mid-journal corruption).
func TestRepairJournalTail(t *testing.T) {
	dir := t.TempDir()
	journalWrite(t, dir, "s", `{"event":"begin","cells":2}`, `{"event":"done","key":"aaaa"}`)
	// Simulate a kill mid-append: a partial record with no newline.
	f, err := os.OpenFile(journalPath(dir, "s"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"event":"done","key":"bb`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := openState(dir, "s")
	if err != nil {
		t.Fatalf("open over torn tail: %v", err)
	}
	if st.repairedTail == 0 {
		t.Fatal("torn tail was not repaired")
	}
	// The next append must land on its own line: the journal stays fully
	// parsable with the fragment gone and the new record present.
	if err := st.append(journalRecord{Event: "done", Key: "cccc"}); err != nil {
		t.Fatal(err)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	status, err := ReadStatus(dir, "s")
	if err != nil {
		t.Fatalf("journal unreadable after repair+append: %v", err)
	}
	if status.Done != 2 {
		t.Fatalf("want 2 done cells (aaaa + cccc, fragment dropped), got %+v", status)
	}
}

// TestRepairJournalTailCompleteLine: a final record that was fully written
// but lost its newline to the kill is a synced admission — repair must
// re-terminate it, not drop it.
func TestRepairJournalTailCompleteLine(t *testing.T) {
	dir := t.TempDir()
	journalWrite(t, dir, "s", `{"event":"begin","cells":2}`)
	f, err := os.OpenFile(journalPath(dir, "s"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"event":"done","key":"aaaa"}`); err != nil { // no newline
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := openState(dir, "s")
	if err != nil {
		t.Fatal(err)
	}
	if st.repairedTail != 0 {
		t.Fatalf("complete line must not be truncated, dropped %d bytes", st.repairedTail)
	}
	if err := st.append(journalRecord{Event: "done", Key: "bbbb"}); err != nil {
		t.Fatal(err)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	status, err := ReadStatus(dir, "s")
	if err != nil {
		t.Fatal(err)
	}
	if status.Done != 2 {
		t.Fatalf("want both done cells preserved, got %+v", status)
	}
}

// TestRepairJournalMidstreamDamage: corruption that is not a torn tail
// (a bad line with valid lines after it) must refuse to open — silently
// truncating it would forge history.
func TestRepairJournalMidstreamDamage(t *testing.T) {
	dir := t.TempDir()
	journalWrite(t, dir, "s",
		`{"event":"begin","cells":2}`,
		`{"event":"done","key":"aa`, // corrupt, but not the tail
		`{"event":"done","key":"bbbb"}`,
	)
	if _, err := openState(dir, "s"); err == nil || !strings.Contains(err.Error(), "damaged") {
		t.Fatalf("mid-stream damage must refuse to open, got: %v", err)
	}
}

// TestOlderCoordinatorJournal: state dirs written by earlier versions,
// whose distributed coordinator journaled lease, lease-expired and
// quarantine events with a worker field, stay readable. Only done/failed
// records count: a cell whose latest record is a lease or a quarantine is
// remaining, and a leased retry does not hide a cell's failed outcome.
// Clean keeps every cache entry the journal names.
func TestOlderCoordinatorJournal(t *testing.T) {
	dir := t.TempDir()
	cells := sweepCells(4)
	line := func(event string, c Cell, extra string) string {
		cell, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf(`{"event":%q,"at":"2026-10-19T23:00:00Z","key":%q,"cell":%s%s}`, event, c.Key(), cell, extra)
	}
	journalWrite(t, dir, "s",
		`{"event":"begin","at":"2026-10-19T23:00:00Z","cells":4}`,
		line("lease", cells[0], `,"worker":"w1"`),
		line("lease", cells[1], `,"worker":"w2"`),
		line("lease", cells[2], `,"worker":"w1"`),
		line("lease", cells[3], `,"worker":"w2"`),
		line("done", cells[0], ``),
		line("lease-expired", cells[1], `,"worker":"w2"`),
		line("lease", cells[1], `,"worker":"w1"`),
		line("failed", cells[3], `,"error":"boom"`),
		line("lease-expired", cells[2], `,"worker":"w1"`),
		line("quarantine", cells[2], `,"worker":"w1"`),
		line("lease", cells[3], `,"worker":"w1"`), // a restarted coordinator retries the failed cell
	)
	// Cell 0's upload was journaled; cell 1's reached the cache before a
	// kill, so only lease lines name it.
	if err := os.MkdirAll(filepath.Join(dir, "cache"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, c := range cells[:2] {
		b, err := json.Marshal(runCell(context.Background(), simExec, c, true))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "cache", c.Key()+".json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	orphan, _, _ := seedDamage(t, dir)

	st, err := openState(dir, "s")
	if err != nil {
		t.Fatalf("older journal must open: %v", err)
	}
	if st.repairedTail != 0 {
		t.Fatalf("older journal is not torn, yet %d bytes were repaired", st.repairedTail)
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}

	status, err := ReadStatus(dir, "s")
	if err != nil {
		t.Fatal(err)
	}
	if status.Cells != 4 || status.Done != 1 || status.Failed != 1 || status.Remaining != 3 || status.Runs != 1 {
		t.Fatalf("want 4 cells: 1 done, 1 failed, 3 remaining; got %+v", status)
	}
	if len(status.FailedCells) != 1 || status.FailedCells[0] != cells[3] {
		t.Fatalf("failed cells = %v, want [%s]", status.FailedCells, cells[3])
	}

	rep, err := Clean(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.DamagedJournals) != 0 {
		t.Fatalf("older journal read as damaged: %+v", rep)
	}
	for _, c := range cells[:2] {
		if !cacheExists(t, dir, c.Key()+".json") {
			t.Fatalf("clean removed the cache entry of %s, which the journal names", c)
		}
	}
	if cacheExists(t, dir, orphan) {
		t.Fatal("clean kept an entry no journal names")
	}
}

// TestCacheHitWithoutDoneLine builds the state a process killed between a
// cell's cache rename and its done line leaves on disk: a valid cache
// entry that no journal line names. A resume serves the cell from the
// cache and journals it, so the status reads nothing remaining and Clean
// keeps the entry instead of collecting it as an orphan.
func TestCacheHitWithoutDoneLine(t *testing.T) {
	dir := t.TempDir()
	cells := sweepCells(3)
	first, err := Run(context.Background(), "crash", cells, simExec, Options{Workers: 1, StateDir: dir, MaxFresh: 2})
	if err != nil {
		t.Fatal(err)
	}
	if first.Done != 2 || first.Skipped != 1 {
		t.Fatalf("first pass: %+v", first)
	}
	lost := cells[2]
	b, err := json.Marshal(runCell(context.Background(), simExec, lost, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cache", lost.Key()+".json"), b, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := Run(context.Background(), "crash", cells, simExec, Options{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Cached != 3 || resumed.Done != 3 {
		t.Fatalf("resume: %+v", resumed)
	}
	st, err := ReadStatus(dir, "crash")
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 3 || st.Remaining != 0 || st.CacheHits != 3 || st.Computed != 0 {
		t.Fatalf("want 3 done (3 cache hits, 0 computed), 0 remaining; got %+v", st)
	}
	rep, err := Clean(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Orphaned) != 0 || !cacheExists(t, dir, lost.Key()+".json") {
		t.Fatalf("clean collected the journaled cache hit: %+v", rep)
	}

	// A second resume finds every cell named as done and journals nothing.
	before, err := os.ReadFile(journalPath(dir, "crash"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), "crash", cells, simExec, Options{Workers: 1, StateDir: dir}); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(journalPath(dir, "crash"))
	if err != nil {
		t.Fatal(err)
	}
	if hits := strings.Count(string(after[len(before):]), `"cache_hit":true`); hits != 0 {
		t.Fatalf("second resume journaled %d cache hits, want 0", hits)
	}
}
