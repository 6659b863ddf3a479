# Convenience targets; the source of truth is dune.

TRACE   := /tmp/artemis-trace.json
REPORT  := /tmp/artemis-report.json

.PHONY: all build test check bench pricing-pin decision-pin trace-smoke lint-smoke analyze-smoke fuzz-smoke perf-smoke cache-smoke wavefront-smoke tb-smoke model-smoke obs-smoke bench-gate no-obj exports clean

all: build

build:
	dune build @all

test:
	dune runtest

# What CI runs: everything must compile, the full suite must pass, the
# linter must accept the example and benchmark corpus, and the
# differential fuzzer must replay its smoke seeds with no findings.
check:
	dune build @all
	$(MAKE) no-obj
	$(MAKE) exports
	dune runtest
	$(MAKE) lint-smoke
	$(MAKE) analyze-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) perf-smoke
	$(MAKE) cache-smoke
	$(MAKE) wavefront-smoke
	$(MAKE) tb-smoke
	$(MAKE) model-smoke
	$(MAKE) obs-smoke
	$(MAKE) bench-gate

bench:
	dune exec bench/main.exe

# Bit-identity gate for changes to the counter model (docs/PERF.md): the
# `pricing` test group alone, its golden digests of tuner-candidate
# pricing, pre-rank scores, per-block counters and edge layouts, and the
# warm-vs-cold staging memo check.  A few seconds, against minutes for
# the full suite.
pricing-pin:
	dune exec test/main.exe -- test pricing

# Bit-identity gate for changes to the tuner's decisions: the `decision`
# test group alone, the MD5 of `artemisc explain --json` on four suite
# benchmarks (deep tuning, pre-rank off, a V100 device record, temporal
# blocking) at -j 1 and -j 2.  A few seconds.
decision-pin:
	dune build bin/artemisc.exe
	dune exec test/main.exe -- test decision

# End-to-end observability smoke test: record a trace + JSON report on
# the Jacobi example, then validate both by parsing them back.
trace-smoke:
	dune exec bin/artemisc.exe -- optimize examples/jacobi.stc \
	  --trace $(TRACE) --report-json $(REPORT) -o /dev/null
	dune exec bin/artemisc.exe -- trace-info $(TRACE)
	@grep -q '"schema_version"' $(REPORT) && echo "report OK: $(REPORT)"
	@rm -f examples/jacobi.stc.report.txt examples/jacobi.stc.*-fission.stc

# Lint smoke test (docs/LINT.md): the example program with its baseline
# plan and every Table-I benchmark must lint with no Error findings, a
# malformed program must end in a located diagnostic with exit status 1
# (not an uncaught exception, 125), and so must compiling a pragma plan
# that cannot launch (a 64x64 block: the A405 launch finding).
lint-smoke:
	dune exec bin/artemisc.exe -- lint examples/jacobi.stc --plan
	dune exec bin/artemisc.exe -- lint --suite --plan
	@bad=$$(mktemp /tmp/artemis-malformed-XXXXXX); \
	  printf 'parameter L=8;\niterator i;\ndouble u[L] @;\n' > $$bad.stc; \
	  dune exec bin/artemisc.exe -- check $$bad.stc 2> $$bad.err; st=$$?; \
	  cat $$bad.err; grep -q ':3: lexical error' $$bad.err; found=$$?; \
	  rm -f $$bad $$bad.stc $$bad.err; \
	  test $$st -eq 1 && test $$found -eq 0 && echo "malformed input: exit 1"
	@big=$$(mktemp /tmp/artemis-unlaunchable-XXXXXX); \
	  sed 's/block (32,16)/block (64,64)/' examples/jacobi.stc > $$big.stc; \
	  dune exec bin/artemisc.exe -- compile $$big.stc -o /dev/null 2> $$big.err; st=$$?; \
	  cat $$big.err; grep -q "$$big.stc" $$big.err && grep -q 'A405' $$big.err \
	    && grep -q 'block has 4096 threads' $$big.err; found=$$?; \
	  rm -f $$big $$big.stc $$big.err; \
	  test $$st -eq 1 && test $$found -eq 0 && echo "unlaunchable pragma plan: exit 1"

# Affine dataflow smoke test (docs/ANALYSIS.md): the suite and the two
# pinned fuzz corpora must analyze with no Error findings, and the JSON
# rendering must be byte-stable across repeated runs.  The suite has no
# self-dependent statement; both fuzz corpora carry wavefront
# hyperplanes.  The digests of these outputs are pinned by the
# `static` test group.
analyze-smoke:
	@set -e; for args in "--suite --plan" "--fuzz-corpus 42 --cases 25" \
	    "--fuzz-corpus 7 --cases 25"; do \
	  dune exec bin/artemisc.exe -- analyze $$args --json > /tmp/artemis-analyze-a.json; \
	  dune exec bin/artemisc.exe -- analyze $$args --json > /tmp/artemis-analyze-b.json; \
	  cmp /tmp/artemis-analyze-a.json /tmp/artemis-analyze-b.json; \
	  echo "analyze $$args: JSON stable"; \
	done; rm -f /tmp/artemis-analyze-a.json /tmp/artemis-analyze-b.json

# Differential verification smoke test (docs/VERIFY.md): seed 42 is the
# acceptance seed, seed 7 once crashed the pipeline and stays pinned.
# Both replay with the lint invariant armed (no Error finding on any
# accepted pair).
fuzz-smoke:
	dune exec bin/artemisc.exe -- fuzz --seed 42 --cases 25 --lint
	dune exec bin/artemisc.exe -- fuzz --seed 7 --cases 25 --lint

# Host-side determinism smoke test (docs/PERF.md): a tiny tuner/fuzzer
# workload must produce byte-identical artifacts serially and at
# jobs=2, and the split-interior executor must match the point-wise
# interpreter bit for bit while actually sweeping an interior.  Host
# wall time is perf/'s job (sh perf/run.sh), not this target's.
perf-smoke:
	dune exec bench/main.exe -- tuner-smoke
	dune exec bench/main.exe -- exec-smoke

# Measurement-cache smoke test (docs/PERF.md): a second optimize run
# against the same cache directory must print byte-identical output, and
# with every cache file truncated a third run must still exit 0 with the
# same output (a damaged entry is a miss, not an error).
cache-smoke:
	@dir=$$(mktemp -d); \
	  run() { dune exec bin/artemisc.exe -- optimize examples/jacobi.stc \
	    --cache-dir $$dir > $$dir/$$1.out; }; \
	  run first && run second && cmp $$dir/first.out $$dir/second.out \
	  && echo "warm cache: identical output" \
	  && for f in $$dir/*.cache; do head -c 24 $$f > $$f.cut && mv $$f.cut $$f; done \
	  && run third && cmp $$dir/first.out $$dir/third.out \
	  && echo "truncated cache: exit 0, identical output"; \
	  st=$$?; rm -rf $$dir examples/jacobi.stc.report.txt examples/jacobi.stc.*-fission.stc; \
	  exit $$st

# Wavefront smoke test (docs/PERF.md): a Gauss-Seidel case through the
# wavefront schedule must match the point-wise interpreter bit for bit
# while actually sweeping wavefront rows.
wavefront-smoke:
	dune exec bench/main.exe -- wavefront-smoke

# Temporal-blocking smoke test (docs/PERF.md): degree-4 blocked
# execution of the 7-point smoother must match the plain ping-pong
# schedule bit for bit, and deep tuning with --max-degree 4 must pick a
# degree above 1 with lower modeled per-step DRAM traffic.
tb-smoke:
	dune exec bench/main.exe -- tb-smoke

# Pre-rank smoke test (docs/MODEL.md): on every registry device, every
# suite benchmark tuned as `artemisc explain --bench` tunes it must end
# in the same plans at the same TFLOPS under the default pre-rank cut as
# with every candidate measured, from strictly fewer measurements, and
# the decision journal with pre-ranking on must be byte-identical at
# jobs=1 and jobs=4.
model-smoke:
	dune exec bench/main.exe -- model-smoke

# Provenance smoke test (docs/OBSERVABILITY.md): the explain report must
# be byte-identical at jobs=1 and jobs=4 (every tuner decision journaled
# in canonical order, independent of pool scheduling), and the committed
# bench baselines must pass the regression gate against themselves.  The
# rhs4center run puts a heavy spatial kernel, with its retime and fold
# variants, through the per-kernel analysis caches on pool workers; the
# 27pt-smoother run prices temporal-degree variants there.
obs-smoke:
	dune exec bin/artemisc.exe -- explain --bench 7pt-smoother --max-tile 2 \
	  --json -j 1 > /tmp/artemis-explain-j1.json
	dune exec bin/artemisc.exe -- explain --bench 7pt-smoother --max-tile 2 \
	  --json -j 4 > /tmp/artemis-explain-j4.json
	cmp /tmp/artemis-explain-j1.json /tmp/artemis-explain-j4.json \
	  && echo "explain deterministic across jobs"
	dune exec bin/artemisc.exe -- explain --bench rhs4center --json -j 1 \
	  > /tmp/artemis-explain-rhs-j1.json
	dune exec bin/artemisc.exe -- explain --bench rhs4center --json -j 4 \
	  > /tmp/artemis-explain-rhs-j4.json
	cmp /tmp/artemis-explain-rhs-j1.json /tmp/artemis-explain-rhs-j4.json \
	  && echo "rhs4center explain deterministic across jobs"
	dune exec bin/artemisc.exe -- explain --bench 27pt-smoother --max-tile 2 \
	  --max-degree 4 --json -j 1 > /tmp/artemis-explain-tb-j1.json
	dune exec bin/artemisc.exe -- explain --bench 27pt-smoother --max-tile 2 \
	  --max-degree 4 --json -j 2 > /tmp/artemis-explain-tb-j2.json
	cmp /tmp/artemis-explain-tb-j1.json /tmp/artemis-explain-tb-j2.json \
	  && echo "27pt-smoother temporal explain deterministic across jobs"
	dune exec bin/artemisc.exe -- bench-diff BENCH_exec.json BENCH_exec.json
	dune exec bin/artemisc.exe -- bench-diff BENCH_tuner.json BENCH_tuner.json
	@rm -f /tmp/artemis-explain-j1.json /tmp/artemis-explain-j4.json \
	  /tmp/artemis-explain-rhs-j1.json /tmp/artemis-explain-rhs-j4.json \
	  /tmp/artemis-explain-tb-j1.json /tmp/artemis-explain-tb-j2.json

# Bench regression gate (docs/OBSERVABILITY.md): regenerate the tuner
# and executor indicators in a scratch directory and compare them with
# the committed BENCH_tuner.json/BENCH_exec.json; any regression (a
# numeric drop past the threshold, a true -> false flip, a vanished
# indicator) fails.
bench-gate:
	dune build bench/main.exe bin/artemisc.exe
	@dir=$$(mktemp -d); root=$$(pwd); st=0; \
	  (cd $$dir && $$root/_build/default/bench/main.exe tuner exec) || st=1; \
	  for b in tuner exec; do \
	    dune exec bin/artemisc.exe -- bench-diff BENCH_$$b.json $$dir/BENCH_$$b.json \
	      || st=1; \
	  done; \
	  rm -rf $$dir; exit $$st

# The library casts no value through [Obj]: every cache is a typed
# value (docs/PERF.md), so a type error cannot hide behind a cast.
no-obj:
	@if grep -rnE --include='*.ml' --include='*.mli' '(^|[^A-Za-z0-9_])Obj\.' lib; then \
	  echo "lib/ must not use Obj"; exit 1; \
	else echo "lib/: no Obj"; fi

# Interface diet: every value a lib/ interface exports has a caller
# outside its own module in lib/, bin/, bench/, perf/ or examples/, or
# is on test/exports.allow with the reason a test needs it.
exports:
	@sh test/exports.sh

clean:
	dune clean
	rm -f $(TRACE) $(REPORT)
