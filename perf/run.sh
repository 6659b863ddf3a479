#!/bin/sh
# Build and run the benchmark from the repository root:
#   sh perf/run.sh --workload W --seed N --seconds S --trace 0|1
# The compiler's temporary files go under _build, so a run writes
# nothing outside the checkout; dune's shared cache is not used.
set -e
mkdir -p _build/perf-tmp
TMPDIR="$PWD/_build/perf-tmp"
export TMPDIR
exec dune exec --root . --cache disabled --display quiet --no-print-directory \
  perf/main.exe -- "$@"
