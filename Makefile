# Developer entry points. Everything is stdlib-only Go; see README.md's
# Development section.

GO ?= go

.PHONY: build test race bench bench-static bench-emu fuzz-smoke cover experiments service-smoke lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Invariant lint suite: build the patcheckovet multichecker (the
# internal/lint analyzers — determinism, errtaxonomy, ctxflow,
# atomiccounter — behind the `go vet -vettool` protocol) and run it over
# the whole module. Intentional violations carry //patchecko:allow
# directives; see DESIGN.md "Enforced invariants". CI runs this.
lint:
	$(GO) build -o bin/patcheckovet ./cmd/patcheckovet
	$(GO) vet -vettool=$(CURDIR)/bin/patcheckovet ./...

# Race coverage for the concurrent scan engine and candidate validation:
# the parallel scan grid, the single-flight reference cache, the worker-pool
# validator, the context watchdog, the fault-injection registry, the
# batched static-stage scorer, and the component prefilter's signature
# derivation (grid workers derive signatures concurrently) all run under
# the race detector.
# The golden equivalence matrix alone is minutes of scanning; under the
# race detector on one core it overruns go test's default 10m deadline,
# so give the gate an explicit budget.
race:
	$(GO) test -race -timeout 45m ./patchecko/ ./internal/dynamic/ ./internal/emu/ ./internal/faultinject/ ./internal/detector/ ./internal/nn/ ./internal/cas/ ./internal/server/ ./internal/compid/

bench:
	$(GO) test -bench=. -benchmem

# Measure the static stage's scalar and batched candidate paths and refresh
# BENCH_static.json (ns/pair, pairs/sec, allocs/op, speedup). Fails if the
# batched path allocates in steady state or the speedup drops below 3x.
# The second step merges the component-identification prefilter rows
# (grid reduction, ground-truth recall, fingerprint/signature costs); it
# fails if recall on any fixture is not 1.0 or the fleet fixture's grid
# reduction drops below 2x.
bench-static:
	PATCHECKO_BENCH_OUT=$(CURDIR)/BENCH_static.json $(GO) test ./internal/detector/ -run TestWriteStaticBenchArtifact -count=1 -v
	PATCHECKO_BENCH_OUT=$(CURDIR)/BENCH_static.json $(GO) test ./patchecko/ -run TestWritePrefilterBenchArtifact -count=1 -v

# Measure the emulator on every BenchmarkExecute case and architecture and
# refresh BENCH_emu.json (ns/op, instrs/s, B/op). Fails if any case
# allocates more per execution than its pinned ceiling.
bench-emu:
	PATCHECKO_BENCH_OUT=$(CURDIR)/BENCH_emu.json $(GO) test ./internal/emu/ -run TestWriteEmuBenchArtifact -count=1 -v

# Short fuzzing pass over every fuzz target, seeded from the checked-in
# corpora under testdata/fuzz. Ten seconds each is enough to exercise the
# mutator against the structural invariants; longer local runs just raise
# -fuzztime.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test ./internal/isa/ -run=Fuzz -fuzz=FuzzDecode$$ -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/isa/ -run=Fuzz -fuzz=FuzzDecodeAllNoHang -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/binimg/ -run=Fuzz -fuzz=FuzzImageDecode -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/disasm/ -run=Fuzz -fuzz=FuzzDisassemble -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/features/ -run=Fuzz -fuzz=FuzzExtract -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/cas/ -run=Fuzz -fuzz=FuzzNormalize -fuzztime=$(FUZZTIME)

# Statement-coverage floor for the packages the observability layer leans
# on hardest: the metrics/trace layer itself, the static-stage scorer and
# the inference layer under it (the reference and engine forward passes),
# the scan engine, the content-address/delta-store layer, the component
# prefilter, the dynamic stage with the module's one candidate-validation
# worker pool, the emulator with the disassembly its predecoded links
# come from, the differential verdict engine, and the resident scan
# service. The floor is asserted per package, so a regression in one
# cannot hide behind the others. CI runs this.
COVER_PKGS  = ./internal/obs/ ./internal/detector/ ./internal/nn/ ./patchecko/ ./internal/cas/ ./internal/compid/ ./internal/dynamic/ ./internal/emu/ ./internal/disasm/ ./internal/diffengine/ ./internal/server/
COVER_FLOOR = 70
cover:
	@set -e; for pkg in $(COVER_PKGS); do \
		$(GO) test -coverprofile=cover.out $$pkg; \
		pct=$$($(GO) tool cover -func=cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
		rm -f cover.out; \
		awk -v pct="$$pct" -v floor="$(COVER_FLOOR)" -v pkg="$$pkg" 'BEGIN { \
			if (pct + 0 < floor + 0) { \
				printf "FAIL: %s coverage %.1f%% below the %d%% floor\n", pkg, pct, floor; exit 1 } \
			}'; \
	done

experiments:
	$(GO) run ./cmd/experiments -scale medium -seed 42 -all

# End-to-end service smoke: start patcheckod over the seed-42 tiny fixture,
# submit thingos-1.0 through patcheckoctl, and require the served normalized
# Report to be byte-identical to the committed golden report. CI runs this.
service-smoke:
	./scripts/service_smoke.sh
