#!/usr/bin/env bash
# Build netform and the benchmark from this checkout, then run one
# benchmark workload:
#
#   bash nfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of the checkout.  Build output goes to _build, the
# benchmark's scratch files to .nfbench_work and traced spans to
# .nfbench_out; nothing is written outside the checkout (the dune cache
# is disabled for the same reason).
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . ./nfbench/main.exe ./bin/netform_cli.exe 1>&2
exec ./_build/default/nfbench/main.exe "$@"
