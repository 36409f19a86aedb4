#!/usr/bin/env bash
# Build the benchmark from source, then run it:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the root of the repository.  Build output goes to stderr, so
# the benchmark's JSON result stays the last line of stdout.
set -u
cd "$(dirname "$0")/.." || exit 1
export DUNE_CACHE=disabled
# Keep freed memory in the process: when glibc returns it to the kernel,
# the next round re-faults it and set-up time swings by 2x between rounds.
export MALLOC_TRIM_THRESHOLD_=4000000000 MALLOC_MMAP_THRESHOLD_=4000000000
if ! dune build --root . --display quiet ./perfbench/perfbench.exe >&2; then
  echo "perfbench: build failed" >&2
  exit 1
fi
exec ./_build/default/perfbench/perfbench.exe "$@"
