# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets, so a green `make lint test` locally matches a green build.

GO ?= go

.PHONY: all build lint test race fuzz bench bench-quick bench-smoke bench-full fault-smoke cache-smoke examples-smoke

all: build lint test

build:
	$(GO) build ./...

# lint = a gofmt check over every tracked .go file, the standard vet pass
# plus aqualint, the repo's own analyzer suite: the per-package
# determinism and numeric-comparison rules plus the module-wide
# detertaint / keycoverage / guardedby analyzers (see cmd/aqualint -list).
# The lint framework's own tests run under -race because module analyses
# share a loader across goroutine-using tests.
lint:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	test -z "$$out" || { echo "gofmt -l lists unformatted files (run gofmt -w on them):"; echo "$$out"; exit 1; }
	$(GO) vet ./...
	$(GO) run ./cmd/aqualint ./...
	$(GO) test -race ./internal/lint/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz smoke against the AQUA engine's structural invariants, the
# aqua-trace-v1 reader (the only trace file format the repo parses) and
# the trace tier's packed column codec.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCore -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzBinaryReader -fuzztime=10s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzPackedRoundTrip -fuzztime=10s ./internal/trace

# Full benchmark sweep (64ms window, 34 workloads). Knobs:
#   REPRO_BENCH_WINDOW_MS=4 REPRO_BENCH_WORKLOADS=spec  quick mode
#   REPRO_BENCH_PAR=N                                   parallelism (0 = cores)
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -timeout 0 .

# Quick benchmark for contributors: 4ms window, 18 SPEC workloads — same
# harness, minutes instead of hours.
bench-quick:
	REPRO_BENCH_WINDOW_MS=4 REPRO_BENCH_WORKLOADS=spec $(GO) test -run='^$$' -bench=. -benchtime=1x -timeout 0 .

# CI smoke over the hot-path measurement layer: one iteration of each
# internal/perf microbenchmark plus the zero-allocation budget tests.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/perf
	$(GO) test -run='ZeroAlloc' ./internal/perf ./internal/dram

# Full-cell wall-clock budget: one complete 64ms refresh-window cell (the
# unit every figure grid decomposes into) must finish inside the budget
# (default 750ms; REPRO_BENCH_FULL_BUDGET_MS to adjust per host — CI uses 2000ms).
bench-full:
	REPRO_BENCH_FULL=1 $(GO) test -run='^TestFullWindowCellBudget$$' -count=1 -v -timeout 600s .

# Result-cache and resume smoke (see DESIGN.md "Result cache & incremental
# recomputation"): resuming a run means rerunning it against the same
# cache directory. On the bench-quick figure-7 grid:
#   1. an uninterrupted run without -cache-dir records the reference figures;
#   2. a run into a fresh -cache-dir is SIGKILLed once at least one cell
#      entry has landed (calibrated-IPC entries land first, and a cell
#      entry is the one a rerun counts as a hit); it must still be running
#      when killed;
#   3. a rerun over that directory must emit the reference bytes, take
#      cache hits, and simulate fewer cells than the grid holds;
#   4. a warm run over the full directory must simulate nothing, emit the
#      reference bytes, and finish faster than the reference run;
#   5. every simulated run is a cell: `-all` (Section V-F variants, Table II
#      tier counts and the Section VI-C co-run included) run twice into a
#      fresh directory must print the same bytes, simulate nothing the
#      second time, and build no system (no trace-tier line on stderr).
cache-smoke:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/figures" ./cmd/figures || exit 1; \
	run() { "$$dir/figures" -workloads spec -window 4 -figure 7 "$$@"; }; \
	echo "--- reference run (no -cache-dir)"; \
	t0=$$(date +%s%N); \
	run >"$$dir/ref.out" 2>"$$dir/ref.err" || { cat "$$dir/ref.err"; echo "FAIL: reference run"; exit 1; }; \
	t1=$$(date +%s%N); \
	echo "--- run into $$dir/cache, SIGKILLed once a cell entry lands"; \
	"$$dir/figures" -workloads spec -window 4 -figure 7 -cache-dir "$$dir/cache" >/dev/null 2>&1 & pid=$$!; \
	until grep -qs '"Scheme"' "$$dir"/cache/[0-9a-f]*; do \
		kill -0 $$pid 2>/dev/null || break; sleep 0.05; \
	done; \
	kill -9 $$pid 2>/dev/null; wait $$pid; code=$$?; \
	test $$code -eq 137 || { echo "FAIL: run exited with status $$code before the kill"; exit 1; }; \
	echo "killed after $$(ls "$$dir/cache" | grep -cv '^tmp-') entries landed"; \
	echo "--- rerun against the same directory"; \
	run -cache-dir "$$dir/cache" >"$$dir/resume.out" 2>"$$dir/resume.err" || { cat "$$dir/resume.err"; echo "FAIL: rerun"; exit 1; }; \
	stats=$$(grep -o 'cell cache: [0-9]* hits.*' "$$dir/resume.err"); echo "$$stats"; \
	hits=$$(echo "$$stats" | sed 's/cell cache: \([0-9]*\) hits.*/\1/'); \
	sim=$$(echo "$$stats" | sed 's/.* \([0-9]*\) simulated.*/\1/'); \
	cmp -s "$$dir/ref.out" "$$dir/resume.out" || { echo "FAIL: resumed output differs from the reference"; exit 1; }; \
	test "$$hits" -ge 1 || { echo "FAIL: rerun took no cache hits"; exit 1; }; \
	test "$$sim" -lt $$((hits + sim)) || { echo "FAIL: rerun simulated all $$sim cells of the grid"; exit 1; }; \
	echo "--- warm run from the same directory"; \
	t2=$$(date +%s%N); \
	run -cache-dir "$$dir/cache" >"$$dir/warm.out" 2>"$$dir/warm.err" || { cat "$$dir/warm.err"; echo "FAIL: warm run"; exit 1; }; \
	t3=$$(date +%s%N); \
	ref_ms=$$(( (t1 - t0) / 1000000 )); warm_ms=$$(( (t3 - t2) / 1000000 )); \
	echo "reference $${ref_ms}ms, warm $${warm_ms}ms"; \
	grep -o 'cell cache: [0-9]* hits.*' "$$dir/warm.err"; \
	grep -q 'cell cache: [1-9][0-9]* hits, [0-9]* misses, [0-9]* deduped, 0 simulated' "$$dir/warm.err" \
		|| { echo "FAIL: warm run simulated cells or took no hits"; exit 1; }; \
	cmp -s "$$dir/ref.out" "$$dir/warm.out" || { echo "FAIL: warm output differs from the reference"; exit 1; }; \
	test "$$warm_ms" -lt "$$ref_ms" || { echo "FAIL: warm run not faster ($${warm_ms}ms vs $${ref_ms}ms)"; exit 1; }; \
	echo "--- -all twice into a fresh directory: the second run builds no system"; \
	all() { "$$dir/figures" -all -workloads spec -window 1 -cache-dir "$$dir/all" >"$$dir/all$$1.out" 2>"$$dir/all$$1.err" \
		|| { cat "$$dir/all$$1.err"; echo "FAIL: -all run $$1"; exit 1; }; }; \
	all 1; all 2; \
	grep -o 'cell cache: .*' "$$dir/all2.err"; \
	cmp -s "$$dir/all1.out" "$$dir/all2.out" || { echo "FAIL: warm -all output differs from the cold run"; exit 1; }; \
	grep -q 'cell cache: .* 0 simulated' "$$dir/all2.err" || { echo "FAIL: warm -all run simulated cells"; exit 1; }; \
	! grep -q '\[trace tier:' "$$dir/all2.err" || { grep '\[trace tier:' "$$dir/all2.err"; echo "FAIL: warm -all run built systems"; exit 1; }; \
	echo "cache-smoke OK"

# Fault-matrix smoke (see DESIGN.md "Failure model & graceful
# degradation"): an injected panicking cell must not abort the run — the
# process finishes, names the cell in the failure summary, and exits 1 —
# and an injected RQA overflow must degrade to the victim-refresh
# fallback and be reported, not crash. Fault-matched cells are cached
# under keys that hash the rules: a rerun with the same rules over the
# same -cache-dir must print the same output, degraded-cells table
# included, while simulating nothing, and a run without the rules over
# that directory must take no hits.
fault-smoke:
	@echo "--- panic cell: run completes, reports the cell, exits non-zero"
	@out=$$($(GO) run ./cmd/figures -workloads spec -window 1 -j 4 -figure 7 \
		-faults 'xz/rrs/1000=panic@once:0' 2>&1); code=$$?; \
	echo "$$out" | tail -6; \
	test $$code -ne 0 || { echo "FAIL: expected non-zero exit"; exit 1; }; \
	echo "$$out" | grep -q 'Failure summary' || { echo "FAIL: no failure summary"; exit 1; }; \
	echo "$$out" | grep -q 'xz/rrs/1000' || { echo "FAIL: failed cell not named"; exit 1; }
	@echo "--- rqa-overflow cell: run completes and reports the degraded mitigation"
	@out=$$($(GO) run ./cmd/aquasim -workload lbm -scheme aqua-memmapped -trh 125 -window 1 \
		-faults 'lbm/aqua-memmapped/125=rqa-overflow@p:1' 2>&1) || { echo "$$out"; echo "FAIL: aquasim exited non-zero"; exit 1; }; \
	echo "$$out" | grep 'faults injected'; \
	echo "$$out" | grep -q 'overflow fallbacks' || { echo "FAIL: overflow fallback not reported"; exit 1; }
	@echo "--- degraded cell, cached: a rerun with the same rules serves it; a run without them takes no hits"
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir/figures" ./cmd/figures || exit 1; \
	run() { "$$dir/figures" -workloads spec -window 1 -figure 7 -cache-dir "$$dir/cache" "$$@"; }; \
	rules='wrf/aqua-sram/1000=refresh-collision@p:0.5'; \
	run -faults "$$rules" >"$$dir/cold.out" 2>"$$dir/cold.err" || { cat "$$dir/cold.err"; echo "FAIL: faulted run"; exit 1; }; \
	grep -q '^wrf  *aqua-sram  *1000 ' "$$dir/cold.out" || { echo "FAIL: degraded cell not reported"; exit 1; }; \
	run -faults "$$rules" >"$$dir/rerun.out" 2>"$$dir/rerun.err" || { cat "$$dir/rerun.err"; echo "FAIL: faulted rerun"; exit 1; }; \
	grep -o 'cell cache: .*' "$$dir/rerun.err"; \
	cmp -s "$$dir/cold.out" "$$dir/rerun.out" || { echo "FAIL: cached rerun printed different output"; exit 1; }; \
	sim=$$(sed -n 's/.*cell cache: .* \([0-9]*\) simulated.*/\1/p' "$$dir/cold.err"); \
	grep -q "cell cache: $$sim hits, 0 misses, .* 0 simulated" "$$dir/rerun.err" \
		|| { echo "FAIL: cached rerun did not serve all $$sim cells the first run simulated"; exit 1; }; \
	run >/dev/null 2>"$$dir/clean.err" || { cat "$$dir/clean.err"; echo "FAIL: fault-free run"; exit 1; }; \
	grep -o 'cell cache: .*' "$$dir/clean.err"; \
	grep -q 'cell cache: 0 hits' "$$dir/clean.err" || { echo "FAIL: a fault-free run was served entries written under rules"; exit 1; }
	@echo "fault-smoke OK"

# Examples smoke: every example under examples/ must run to exit 0 (CI
# otherwise only compiles them), and the Half-Double demo must show its
# two outcomes — a flipped victim under victim refresh, an intact one
# under AQUA. The five take a few seconds together.
examples-smoke:
	@for ex in examples/*/; do \
		echo "--- $$ex"; \
		$(GO) run ./$$ex >/dev/null || { echo "FAIL: $$ex exited non-zero"; exit 1; }; \
	done
	@out=$$($(GO) run ./examples/halfdouble) || { echo "$$out"; echo "FAIL: halfdouble"; exit 1; }; \
	echo "$$out" | grep -q '^victim-refresh .*Half-Double succeeded' || { echo "$$out"; echo "FAIL: Half-Double did not flip the victim under victim refresh"; exit 1; }; \
	echo "$$out" | grep -q '^aqua .*victim intact' || { echo "$$out"; echo "FAIL: the victim did not stay intact under AQUA"; exit 1; }
	@echo "examples-smoke OK"
