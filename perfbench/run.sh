#!/bin/sh
# Build the benchmark from source, then run one workload:
#   sh perfbench/run.sh --workload pay|fraud|churn --seed N --seconds S --trace 0|1
# The last line of standard output is the JSON result.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: needs the full source tree (dune-project, lib/)" >&2
  exit 2
fi
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
