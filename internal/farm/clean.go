package farm

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// CleanReport is the result of one garbage-collection pass over a state
// dir's result cache.
type CleanReport struct {
	// Scanned counts the cache entries examined.
	Scanned int
	// Journals lists the journal files whose keys were taken as live
	// references, and DamagedJournals the ones that could not be fully
	// parsed (their presence suppresses orphan collection — an unreadable
	// journal means the live set is unknown).
	Journals, DamagedJournals []string
	// Corrupt lists cache files that fail to parse, hold a non-done
	// outcome, or hold a cell whose key does not match the file name.
	Corrupt []string
	// Orphaned lists well-formed cache files referenced by no journal.
	Orphaned []string
	// Temp lists leftover .tmp files from interrupted atomic writes.
	Temp []string
	// Removed counts the files actually deleted (always 0 under dry-run).
	Removed int
}

// Clean garbage-collects a sweep state dir: it removes cache entries that
// are corrupt (unparsable, non-done, or holding a cell that hashes to a
// different key — exactly the entries lookup refuses to serve), cache
// entries referenced by no journal in the dir (orphans left behind by
// renamed or deleted sweeps), and .tmp leftovers of interrupted atomic
// writes. With dryRun the report lists what would be removed but nothing
// is touched.
//
// Orphan collection is conservative: if any journal in the dir is damaged,
// the live-key set is incomplete, so orphans are reported but never
// removed (corrupt entries and .tmp files still are — they are unusable
// regardless of what the journals say).
func Clean(dir string, dryRun bool) (*CleanReport, error) {
	rep := &CleanReport{}

	journals, err := filepath.Glob(filepath.Join(dir, "*.journal.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("farm: clean: %w", err)
	}
	sort.Strings(journals)
	live := make(map[string]bool)
	for _, j := range journals {
		rep.Journals = append(rep.Journals, filepath.Base(j))
		err := scanJournal(j, func(rec journalRecord) {
			if rec.Key != "" {
				live[rec.Key] = true
			}
		})
		if err != nil {
			rep.DamagedJournals = append(rep.DamagedJournals, filepath.Base(j))
		}
	}

	cacheDir := filepath.Join(dir, "cache")
	entries, err := os.ReadDir(cacheDir)
	if os.IsNotExist(err) {
		return rep, nil // no cache, nothing to collect
	}
	if err != nil {
		return nil, fmt.Errorf("farm: clean: %w", err)
	}

	var unusable, orphans []string // absolute paths to collect
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		path := filepath.Join(cacheDir, e.Name())
		if strings.HasSuffix(e.Name(), ".tmp") {
			rep.Temp = append(rep.Temp, e.Name())
			unusable = append(unusable, path)
			continue
		}
		key, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok {
			continue // not a cache entry; leave foreign files alone
		}
		rep.Scanned++
		if reason := entryDamage(path, key); reason != "" {
			rep.Corrupt = append(rep.Corrupt, fmt.Sprintf("%s (%s)", e.Name(), reason))
			unusable = append(unusable, path)
			continue
		}
		if !live[key] {
			rep.Orphaned = append(rep.Orphaned, e.Name())
			orphans = append(orphans, path)
		}
	}

	if dryRun {
		return rep, nil
	}
	if len(rep.DamagedJournals) == 0 {
		unusable = append(unusable, orphans...)
	}
	for _, path := range unusable {
		if err := os.Remove(path); err != nil {
			return rep, fmt.Errorf("farm: clean: %w", err)
		}
		rep.Removed++
	}
	return rep, nil
}

// entryDamage classifies a cache entry, returning a non-empty reason when
// lookup would refuse to serve it.
func entryDamage(path, key string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	var out Outcome
	if err := json.Unmarshal(b, &out); err != nil {
		return "unparsable"
	}
	if out.Status != StatusDone {
		return fmt.Sprintf("status %q", out.Status)
	}
	if out.Cell.Key() != key {
		return fmt.Sprintf("holds cell %s with key %s", out.Cell, out.Cell.Key())
	}
	return ""
}
