# Developer entry points. CI (.github/workflows/ci.yml) runs the same
# targets, so a green `make lint test` locally matches a green build.

GO ?= go

.PHONY: all build lint test race fuzz bench-smoke bench-full cache-smoke examples-smoke

all: build lint test

build:
	$(GO) build ./...

# lint = a gofmt check over every tracked .go file, the standard vet pass
# plus aqualint, the repo's own per-package analyzer suite: determinism,
# float comparison, recovered goroutines and lock discipline (see
# cmd/aqualint -list), over this module and the bench/ module, which
# ./... stops at. The lint framework's own tests run here too, under
# -race as in CI, so `make lint` alone checks a change to an analyzer.
lint:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	test -z "$$out" || { echo "gofmt -l lists unformatted files (run gofmt -w on them):"; echo "$$out"; exit 1; }
	$(GO) vet ./...
	$(GO) -C bench vet ./...
	$(GO) run ./cmd/aqualint ./...
	$(GO) -C bench run repro/cmd/aqualint ./...
	$(GO) test -race ./internal/lint/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short fuzz smoke against the AQUA engine's structural invariants, the
# trace file reader (ReadPacked: no input panics it, and a file it
# accepts re-encodes to the same bytes) and the packed column codec that
# the trace tier and the trace files share. -fuzzminimizetime=0s keeps
# each 10 s budget on fuzzing: minimizing every new input stalled the
# runs within seconds.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCore -fuzztime=10s -fuzzminimizetime=0s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzReadPacked -fuzztime=10s -fuzzminimizetime=0s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzPackedRoundTrip -fuzztime=10s -fuzzminimizetime=0s ./internal/trace

# CI smoke over the hot-path measurement layer: one iteration of each
# internal/perf microbenchmark plus every allocation budget test: the
# request path's, the warm Misra-Gries tables', the row map's at
# capacity and AQUA's and RRS's warm mitigations.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./internal/perf
	$(GO) test -run='ZeroAlloc|DoNotAllocate|NoAlloc' ./internal/perf ./internal/dram ./internal/core ./internal/rrs ./internal/rowmap ./internal/tracker

# Full-cell wall-clock budget: one complete 64ms refresh-window cell (the
# unit every figure grid decomposes into) must finish inside the budget
# (default 750ms; REPRO_BENCH_FULL_BUDGET_MS to adjust per host — CI uses 2000ms).
bench-full:
	REPRO_BENCH_FULL=1 $(GO) test -run='^TestFullWindowCellBudget$$' -count=1 -v -timeout 600s .

# Result-cache and resume smoke (see DESIGN.md "Result cache & incremental
# recomputation"): resuming a run means rerunning it against the same
# cache directory. On the 4 ms SPEC figure-7 grid:
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
