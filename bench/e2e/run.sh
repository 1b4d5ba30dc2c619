#!/bin/sh
# Builds pdbbench from this checkout's sources and runs it from the
# checkout's root; every argument is passed on, e.g.
#   sh bench/e2e/run.sh --workload fig4a-q1 --seed 1 --seconds 10 --trace 0
# dune's own messages go to stderr, so the last line on stdout is the
# benchmark's result. The build stays inside the checkout (_build), with
# no user configuration and no shared cache.
set -eu
cd "$(dirname "$0")/../.."
exec dune exec --root . --no-config --cache=disabled --display=quiet \
  ./bench/e2e/pdbbench.exe -- "$@"
