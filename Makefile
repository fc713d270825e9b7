# Development targets. `make check` is the pre-merge gate: static vetting,
# the gofmt check, the waschedlint analyzer suite, the full test suite under the race
# detector, the burst-buffer and token-bucket replay smoke tests (all
# invariant checks on), the sweep checkpoint/resume smoke test, the distributed
# (coordinator + loopback workers) smoke test, the chaos crash-recovery
# smoke test (seeded faults + coordinator kill/restart), and a
# short-budget run of every fuzz target (seed corpus + a few seconds of
# mutation each).

GO      ?= go
FUZZTIME ?= 10s
SWEEPDIR := .sweep-smoke
GRIDDIR  := .gridsweep-smoke
GRIDADDR := 127.0.0.1:39137
CHAOSDIR  := .gridchaos-smoke
CHAOSADDR := 127.0.0.1:39141
# Worker-side wire faults for gridchaos-smoke: drops, lost responses,
# duplicates, injected 500s and delays, all on the seeded schedule.
CHAOSWIRE := drop=0.05,droprsp=0.05,dup=0.1,err=0.1,delay=0.2:5ms

.PHONY: build vet fmt-check lint test race fuzz bbcheck tbfcheck sweep-smoke gridsweep-smoke gridchaos-smoke bench-replay bench-replay-check loc check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

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
# checkpoint), then resume it from the journal and confirm the status shows
# no remaining cells — the end-to-end drill for `wasched sweep`.
sweep-smoke:
	@rm -rf $(SWEEPDIR)
	$(GO) build -o $(SWEEPDIR)/wasched ./cmd/wasched
	$(SWEEPDIR)/wasched sweep run fig6-smoke -workers 2 -state-dir $(SWEEPDIR) -max-cells 3 -quiet; \
		code=$$?; [ $$code -eq 3 ] || { echo "expected exit 3 (interrupted), got $$code"; exit 1; }
	$(SWEEPDIR)/wasched sweep resume fig6-smoke -workers 2 -state-dir $(SWEEPDIR) -quiet
	$(SWEEPDIR)/wasched sweep status fig6-smoke -state-dir $(SWEEPDIR) | grep -q ' 0 remaining'
	@rm -rf $(SWEEPDIR)

# The distributed drill: a coordinator shards the smoke sweep across two
# loopback workers, one worker takes a SIGINT mid-run (graceful drain),
# the coordinator drains early via -max-cells (exit 3 = resumable), and
# the local path finishes the coordinator-written checkpoint — proving
# the two paths share one journal format.
gridsweep-smoke:
	@rm -rf $(GRIDDIR)
	$(GO) build -o $(GRIDDIR)/wasched ./cmd/wasched
	@set -e; \
	$(GRIDDIR)/wasched sweep serve fig6-smoke -state-dir $(GRIDDIR) -addr $(GRIDADDR) -lease-ttl 10s -max-cells 3 -quiet >/dev/null 2>$(GRIDDIR)/coord.log & coord=$$!; \
	sleep 1; \
	$(GRIDDIR)/wasched sweep work -coord http://$(GRIDADDR) -parallel 1 -name w1 -quiet 2>$(GRIDDIR)/w1.log & w1=$$!; \
	$(GRIDDIR)/wasched sweep work -coord http://$(GRIDADDR) -parallel 2 -name w2 -quiet 2>$(GRIDDIR)/w2.log & w2=$$!; \
	sleep 2; kill -INT $$w1 2>/dev/null || true; \
	wait $$w1 || { echo "worker 1 failed to drain cleanly"; cat $(GRIDDIR)/w1.log; exit 1; }; \
	code=0; wait $$coord || code=$$?; \
	[ $$code -eq 3 ] || { echo "expected coordinator exit 3 (drained early), got $$code"; cat $(GRIDDIR)/coord.log; exit 1; }; \
	wait $$w2 || { echo "worker 2 failed"; cat $(GRIDDIR)/w2.log; exit 1; }
	$(GRIDDIR)/wasched sweep resume fig6-smoke -workers 2 -state-dir $(GRIDDIR) -quiet
	$(GRIDDIR)/wasched sweep status fig6-smoke -state-dir $(GRIDDIR) | grep -q ' 0 remaining'
	@rm -rf $(GRIDDIR)

# The crash-recovery drill under seeded faults: a fault-free local run
# writes the reference cache, then a coordinator with a chaos store
# (seeded admission failures plus one kill point) shards the same sweep
# across two workers whose requests ride a chaos transport. The kill
# point tears the journal mid-append and exits with the chaos marker
# code 7; a restarted coordinator repairs the torn tail, requeues the
# inherited cells, and drains while the workers park through the outage.
# The proof is `diff -r`: the chaos run's result cache must be
# byte-identical to the fault-free run's, with nothing left remaining.
gridchaos-smoke:
	@rm -rf $(CHAOSDIR)
	$(GO) build -o $(CHAOSDIR)/wasched ./cmd/wasched
	$(CHAOSDIR)/wasched sweep run fig6-smoke -workers 2 -state-dir $(CHAOSDIR)/baseline -quiet >/dev/null
	@set -e; \
	( code=0; $(CHAOSDIR)/wasched sweep serve fig6-smoke -state-dir $(CHAOSDIR)/chaos -addr $(CHAOSADDR) -lease-ttl 10s \
	    -chaos-seed 7 -chaos-plan "recordfail=0.2,kill=2" -quiet >/dev/null 2>$(CHAOSDIR)/coord1.log || code=$$?; \
	  [ $$code -eq 7 ] || { echo "expected coordinator exit 7 (chaos kill), got $$code" >&2; exit 1; }; \
	  exec $(CHAOSDIR)/wasched sweep serve fig6-smoke -state-dir $(CHAOSDIR)/chaos -addr $(CHAOSADDR) -lease-ttl 10s \
	    -chaos-seed 7 -chaos-plan "recordfail=0.1" -quiet >/dev/null 2>$(CHAOSDIR)/coord2.log \
	) & coord=$$!; \
	ok=0; for i in 1 2 3 4 5 6 7 8 9 10; do \
	  $(CHAOSDIR)/wasched sweep status -coord http://$(CHAOSADDR) 2>/dev/null | grep -q '10 cells' && { ok=1; break; }; sleep 1; \
	done; [ $$ok -eq 1 ] || { echo "live status probe never saw the coordinator"; cat $(CHAOSDIR)/coord1.log; exit 1; }; \
	$(CHAOSDIR)/wasched sweep work -coord http://$(CHAOSADDR) -parallel 2 -name cw1 -backoff 25ms -park-retries 10 \
	  -chaos-seed 7 -chaos-plan "$(CHAOSWIRE)" -quiet 2>$(CHAOSDIR)/w1.log & w1=$$!; \
	$(CHAOSDIR)/wasched sweep work -coord http://$(CHAOSADDR) -parallel 2 -name cw2 -backoff 25ms -park-retries 10 \
	  -chaos-seed 7 -chaos-plan "$(CHAOSWIRE)" -quiet 2>$(CHAOSDIR)/w2.log & w2=$$!; \
	wait $$coord || { echo "coordinator kill/restart cycle failed"; cat $(CHAOSDIR)/coord1.log $(CHAOSDIR)/coord2.log; exit 1; }; \
	wait $$w1 || { echo "worker 1 failed"; cat $(CHAOSDIR)/w1.log; exit 1; }; \
	wait $$w2 || { echo "worker 2 failed"; cat $(CHAOSDIR)/w2.log; exit 1; }
	$(CHAOSDIR)/wasched sweep status fig6-smoke -state-dir $(CHAOSDIR)/chaos | grep -q ' 0 remaining'
	diff -r $(CHAOSDIR)/baseline/cache $(CHAOSDIR)/chaos/cache
	@rm -rf $(CHAOSDIR)

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
	$(GO) test ./internal/schedcheck -run='^$$' -fuzz=FuzzReplayMatchesReference -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/lint/analysis -run='^$$' -fuzz=FuzzParseAllows -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/tbf -run='^$$' -fuzz=FuzzRedistribute -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sos -run='^$$' -fuzz=FuzzContainer -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/schedcheck -run='^$$' -fuzz=FuzzParseSWFRecords -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/workload -run='^$$' -fuzz=FuzzDecodeEncode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/slurmconf -run='^$$' -fuzz=FuzzParse -fuzztime=$(FUZZTIME)

check: vet fmt-check lint race bbcheck tbfcheck sweep-smoke gridsweep-smoke gridchaos-smoke fuzz
