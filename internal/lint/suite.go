package lint

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"wasched/internal/lint/analysis"
	"wasched/internal/lint/load"
)

// ScopedAnalyzer binds an analyzer to the import paths it guards. The
// analyzers themselves are scope-free (so their golden corpora run on
// synthetic packages); the suite decides where each invariant applies.
type ScopedAnalyzer struct {
	Analyzer *analysis.Analyzer
	// Include lists import-path prefixes the analyzer runs on; empty
	// means every package handed to Check.
	Include []string
	// Exclude lists import-path prefixes carved out of Include.
	Exclude []string
}

func (sa ScopedAnalyzer) applies(importPath string) bool {
	for _, e := range sa.Exclude {
		if hasPathPrefix(importPath, e) {
			return false
		}
	}
	if len(sa.Include) == 0 {
		return true
	}
	for _, p := range sa.Include {
		if hasPathPrefix(importPath, p) {
			return true
		}
	}
	return false
}

func hasPathPrefix(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

// Suite returns the waschedlint analyzer suite with this repository's
// scoping. Rationale per analyzer:
//
//   - nodeterminism guards everything that runs inside (or feeds) the
//     simulation. internal/experiments and the CLIs are orchestration —
//     wall-clock progress reporting there is legitimate — but internal/farm
//     is included even though it is orchestration too: its cells promise
//     bit-identical replay, so its deliberate wall-clock uses (journal
//     timestamps, ETAs) must each carry an allow rationale.
//   - maporder and tickerstop run everywhere; ordered effects and ticker
//     leaks are never right.
//   - checkederr runs where state files are written or remote state is
//     acknowledged: the farm, the gridfarm coordinator/worker, the chaos
//     harness that tears their journals, and the CLIs driving them.
//   - ctxdeadline runs where outbound HTTP leaves the process: the
//     gridfarm worker/coordinator client paths and the CLIs. A request
//     without a deadline hangs a worker forever on a half-open socket.
//   - floatguard runs where rate/throughput arithmetic lives: the
//     scheduler policies, the resource/file-system models and the
//     token-bucket layer (fair-share division and borrow scaling are
//     ratio-heavy).
//   - lockdiscipline and goroleak run on the concurrent fabric — the
//     farm pool, the gridfarm coordinator/worker, the chaos harness and
//     (goroleak) the CLIs that launch servers: one blocking call under a
//     coordinator mutex stalls every worker, and one detached goroutine
//     outlives the drill that owns it.
//   - unitsafe runs where bytes/GiB/rate/time arithmetic mixes: the
//     scheduler, the resource trackers, the pfs, bb and tbf models and
//     the validators that check them.
//   - hotalloc runs on the replay hot path's packages (des, sched,
//     restrack, pfs, schedcheck, bb, tbf) and on the prototype's
//     monitoring path (ldms, sos); it only fires inside
//     //waschedlint:hotpath functions and their package-local callees.
//     Every backfill probe and reservation is a restrack.Profile
//     EarliestFit or Add, so those stay free of closures (a sort.Search
//     predicate, say) and fresh slices. The tbf tick runs once per
//     simulated second, so its settle/redistribute/cap pass must not
//     allocate; the LDMS flush and the SOS append/trim it drives run once
//     per node per second, so a per-record row allocation or a per-tick
//     copy there dominates the full prototype.
func Suite() []ScopedAnalyzer {
	return []ScopedAnalyzer{
		{
			Analyzer: Nodeterminism,
			Include:  []string{"wasched/internal"},
			Exclude:  []string{"wasched/internal/experiments", "wasched/internal/lint"},
		},
		{Analyzer: Maporder},
		{Analyzer: Tickerstop},
		{
			Analyzer: Checkederr,
			// internal/bb landed after PR 4's scoping; its ledger and
			// series writers acknowledge state like the farm's do.
			Include: []string{
				"wasched/internal/farm",
				"wasched/internal/gridfarm",
				"wasched/internal/chaos",
				"wasched/internal/bb",
				"wasched/cmd",
			},
		},
		{
			Analyzer: Ctxdeadline,
			Include: []string{
				"wasched/internal/gridfarm",
				"wasched/internal/chaos",
				"wasched/cmd",
			},
		},
		{
			Analyzer: Floatguard,
			Include: []string{
				"wasched/internal/sched",
				"wasched/internal/restrack",
				"wasched/internal/pfs",
				"wasched/internal/bb",
				"wasched/internal/tbf",
			},
		},
		{
			Analyzer: Lockdiscipline,
			Include: []string{
				"wasched/internal/farm",
				"wasched/internal/gridfarm",
				"wasched/internal/chaos",
			},
		},
		{
			Analyzer: Goroleak,
			Include: []string{
				"wasched/internal/farm",
				"wasched/internal/gridfarm",
				"wasched/internal/chaos",
				"wasched/cmd",
			},
		},
		{
			Analyzer: Unitsafe,
			Include: []string{
				"wasched/internal/sched",
				"wasched/internal/restrack",
				"wasched/internal/pfs",
				"wasched/internal/bb",
				"wasched/internal/tbf",
				"wasched/internal/schedcheck",
			},
		},
		{
			Analyzer: Hotalloc,
			Include: []string{
				"wasched/internal/des",
				"wasched/internal/sched",
				"wasched/internal/restrack",
				"wasched/internal/pfs",
				"wasched/internal/schedcheck",
				"wasched/internal/bb",
				"wasched/internal/tbf",
				"wasched/internal/ldms",
				"wasched/internal/sos",
			},
		},
	}
}

// Analyzers returns the suite's analyzers in declaration order.
func Analyzers() []*analysis.Analyzer {
	var out []*analysis.Analyzer
	for _, sa := range Suite() {
		out = append(out, sa.Analyzer)
	}
	return out
}

// Check runs the suite over the loaded packages: each in-scope analyzer
// runs per package, allow directives filter the findings, and malformed
// allow directives — or directives naming an analyzer the suite does not
// know — are findings themselves. Packages are analyzed concurrently
// (they share an immutable FileSet and type information, which analyzers
// only read); results are concatenated in package order and sorted by
// position, so repeated runs produce byte-identical output.
func Check(pkgs []*load.Package, suite []ScopedAnalyzer) ([]analysis.Diagnostic, error) {
	known := map[string]bool{"allowdirective": true}
	for _, sa := range suite {
		known[sa.Analyzer.Name] = true
	}
	results := make([][]analysis.Diagnostic, len(pkgs))
	errs := make([]error, len(pkgs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *load.Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = checkPackage(pkg, suite, known)
		}(i, pkg)
	}
	wg.Wait()
	var out []analysis.Diagnostic
	for i := range pkgs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out = append(out, results[i]...)
	}
	if len(pkgs) > 0 {
		analysis.Sort(pkgs[0].Fset, out)
	}
	return out, nil
}

func checkPackage(pkg *load.Package, suite []ScopedAnalyzer, known map[string]bool) ([]analysis.Diagnostic, error) {
	allows, malformed := analysis.ParseAllows(pkg.Fset, pkg.Files)
	out := malformed
	for _, a := range allows {
		if !known[a.Analyzer] {
			out = append(out, analysis.Diagnostic{
				Pos:      a.Pos,
				Analyzer: "allowdirective",
				Message:  fmt.Sprintf("allow directive names unknown analyzer %q", a.Analyzer),
			})
		}
	}
	for _, sa := range suite {
		if !sa.applies(pkg.ImportPath) {
			continue
		}
		diags, err := analysis.Run(sa.Analyzer, pkg.Fset, pkg.Files, pkg.Pkg, pkg.Info)
		if err != nil {
			return nil, err
		}
		out = append(out, analysis.Filter(pkg.Fset, diags, allows)...)
	}
	return out, nil
}
