# Development targets. `make check` is the pre-merge gate: the build and
# static vetting of both modules (the root and cmd/wabench), the gofmt
# check, the waschedlint analyzer suite, the full test suite under the
# race detector, the burst-buffer and token-bucket replay smoke tests (all
# invariant checks on), the sweep checkpoint/resume smoke test, and a
# short-budget run of every fuzz target (seed corpus + a few seconds of
# mutation each).

GO      ?= go
FUZZTIME ?= 10s
SWEEPDIR := .sweep-smoke

.PHONY: build vet fmt-check lint test race fuzz bbcheck tbfcheck sweep-smoke bench-replay bench-replay-check loc check

# cmd/wabench is its own module (replace wasched => ../..), so `./...` at
# the root never reaches it; build and vet it too, so that a change to an
# API it uses fails here. Its tests stay out: one of them is flaky.
build:
	$(GO) build ./...
	cd cmd/wabench && $(GO) build -o /dev/null ./...

vet:
	$(GO) vet ./...
	cd cmd/wabench && $(GO) vet ./...

# gofmt over every Go file outside testdata directories (the analyzers'
# testdata holds deliberately unformatted inputs); any file it lists
# fails the target.
fmt-check:
	@out=$$(find . -name '*.go' ! -path '*/testdata/*' ! -path './.*' -print | xargs gofmt -l); \
		if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# The repo's own analyzer suite (cmd/waschedlint): determinism and
# resource-hygiene invariants vet cannot see. Exits non-zero on findings.
lint:
	$(GO) run ./cmd/waschedlint ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Interrupt a tiny 2-worker sweep after three cells (exit 3 = resumable
# checkpoint), then resume it from the journal, check that the resumed
# sweep prints exactly what an in-memory `wasched run` prints, and confirm
# the status shows no remaining cells — the end-to-end drill for
# `wasched sweep`.
sweep-smoke:
	@rm -rf $(SWEEPDIR)
	$(GO) build -o $(SWEEPDIR)/wasched ./cmd/wasched
	$(SWEEPDIR)/wasched sweep run fig6-smoke -workers 2 -state-dir $(SWEEPDIR) -max-cells 3 -quiet; \
		code=$$?; [ $$code -eq 3 ] || { echo "expected exit 3 (interrupted), got $$code"; exit 1; }
	$(SWEEPDIR)/wasched sweep resume fig6-smoke -workers 2 -state-dir $(SWEEPDIR) -quiet > $(SWEEPDIR)/resumed.txt
	$(SWEEPDIR)/wasched run fig6-smoke > $(SWEEPDIR)/run.txt
	cmp $(SWEEPDIR)/run.txt $(SWEEPDIR)/resumed.txt
	$(SWEEPDIR)/wasched sweep status fig6-smoke -state-dir $(SWEEPDIR) | grep -q ' 0 remaining'
	@rm -rf $(SWEEPDIR)

# Burst-buffer end-to-end smoke: replay the bundled 10k-job trace with a
# synthetic BB assignment through both BB-aware policies, with every
# invariant check on (per-round checks plus the BB capacity, stage-in
# ordering and drain-attribution validators). Seconds of wall clock, so it
# rides in `make check` alongside the race run.
bbcheck:
	$(GO) run ./cmd/wasched replay testdata/swf/synthetic-10k.swf -policy plan -bb-capacity-gib 64 -bb-fraction 0.3 -checks -quiet
	$(GO) run ./cmd/wasched replay testdata/swf/synthetic-10k.swf -policy bb-io-aware -bb-capacity-gib 64 -bb-fraction 0.3 -checks -quiet

# Token-bucket end-to-end smoke: replay the bundled 10k-job trace through
# both token policies with every invariant check on (per-round checks plus
# the bucket-conservation and borrow-attribution validators). The capacity
# defaults to the corpus fill rate, so every bucket sees contention.
tbfcheck:
	$(GO) run ./cmd/wasched replay testdata/swf/synthetic-10k.swf -policy tbf -checks -quiet
	$(GO) run ./cmd/wasched replay testdata/swf/synthetic-10k.swf -policy tbf-straggler -checks -quiet

# Archive-trace replay benchmark: replay the bundled 10k-job SWF trace
# through all four policies, append the measured jobs/s to the
# BENCH_replay.json trajectory, and fail on a >20% regression against the
# previous entry. CI runs it with -check-only so the workflow never
# commits trajectory entries from runner hardware.
bench-replay:
	$(GO) run ./cmd/benchreplay -label "make bench-replay"

bench-replay-check:
	$(GO) run ./cmd/benchreplay -check-only

# Non-test Go lines per internal/* and cmd/* package and in total, counted
# with wc -l (blank and comment lines included): the net line count a
# change reports.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec wc -l {} + \
		| awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; sum += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", sum }'

# Go allows one -fuzz target per invocation, so each runs separately.
fuzz:
	$(GO) test ./internal/restrack -run='^$$' -fuzz='^FuzzProfile$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/restrack -run='^$$' -fuzz=FuzzProfileLocalCompact -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/restrack -run='^$$' -fuzz=FuzzTrackers -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sched -run='^$$' -fuzz=FuzzRunRound -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sched -run='^$$' -fuzz=FuzzTwoGroupSplit -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sched -run='^$$' -fuzz=FuzzDriverMatchesFresh -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/schedcheck -run='^$$' -fuzz=FuzzReplayMatchesReference -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/lint/analysis -run='^$$' -fuzz=FuzzParseAllows -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/tbf -run='^$$' -fuzz=FuzzRedistribute -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sos -run='^$$' -fuzz=FuzzContainer -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/schedcheck -run='^$$' -fuzz=FuzzParseSWFRecords -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/workload -run='^$$' -fuzz=FuzzDecodeEncode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/slurmconf -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/des -run='^$$' -fuzz=FuzzEngineOrder -fuzztime=$(FUZZTIME)

check: build vet fmt-check lint race bbcheck tbfcheck sweep-smoke fuzz
