#!/bin/sh
# Full CI pipeline: build, run every test suite, then the documentation
# check. Mirrors .github/workflows/ci.yml so the same entry point works
# locally and in CI.
set -eu
cd "$(dirname "$0")/.."
echo "ci: dune build"
dune build
echo "ci: dune runtest"
dune runtest
echo "ci: pdb_lint self-test"
# The linter must be able to catch a seeded violation of every rule before
# its clean pass on the real tree means anything (same contract as the
# bench gate's self-test, test/test_gate.ml, which dune runtest ran).
dune exec tools/lint/pdb_lint.exe -- --self-test
echo "ci: pdb_lint"
# Reports land under _build/ (untracked, wiped by dune clean): the JSON
# violation list for tooling, and the interprocedural effect-summary
# table so a red R8/R9/R10 can be traced through the call graph without
# re-running the analyzer locally.
mkdir -p _build
dune exec tools/lint/pdb_lint.exe -- --root . --json _build/lint_report.json \
  --summaries _build/lint_summaries.txt
echo "ci: multi-query serve bench (smoke)"
# Smallest-size run of the multi-query group: exercises the shared-chain
# serving path end to end and regenerates BENCH_serve.json, so the bench
# (and its marginal-equality assertion) can never silently rot.
dune exec bench/main.exe -- serve-smoke
test -s BENCH_serve.json
echo "ci: view maintenance bench (smoke)"
# Smallest-size run of the view-update group: regenerates BENCH_view.json
# so the incremental-vs-naive measurement stays runnable.
dune exec bench/main.exe -- view-smoke
test -s BENCH_view.json
echo "ci: wal durability bench (smoke)"
# Smallest-size run of the delta-log group: exercises journal, crash,
# and replay end to end (including the bit-identical recovery
# assertions) and regenerates BENCH_wal.json for the gate below.
dune exec bench/main.exe -- wal-smoke
test -s BENCH_wal.json
echo "ci: sharded-chain bench (smoke)"
# Smallest-size run of the shard group: measures boxed-vs-columnar
# bytes/token and the samples/s shard sweep end to end (including the
# merged-marginals sample-count assertion) and regenerates
# BENCH_shard.json for the gate below.
dune exec bench/main.exe -- shard-smoke
test -s BENCH_shard.json
echo "ci: shared-subplan bench (smoke)"
# Smallest-size run of the mqo group: registers overlapping query
# batches shared and unshared, asserts their marginals bit-identical,
# and regenerates BENCH_mqo.json for the gate below.
dune exec bench/main.exe -- mqo-smoke
test -s BENCH_mqo.json
echo "ci: query daemon bench (smoke)"
# Smallest-size run of the daemon group: drives the socket server
# in-process (registration latency with a warm subplan cache, slow-client
# coalescing, plan-cap admission, crash/resume marginal equality) and
# regenerates BENCH_daemon.json for the gate below.
dune exec bench/main.exe -- daemon-smoke
test -s BENCH_daemon.json
echo "ci: daemon kill/resume smoke"
# The same twin comparison through the real CLI and a real SIGKILL:
# 8 clients attach/stream/detach over the Unix socket, the daemon dies
# mid-stream, resumes from its WAL, and every query's frozen marginals
# must be bit-identical to the uninterrupted twin's.
sh tools/daemon_smoke.sh
echo "ci: supervised durability smoke (CLI)"
# The serve CLI's crash-and-retry path end to end: a failpoint kills the
# chain mid-stream, the supervisor retries it from the --wal-dir state,
# and both a --resume run and an uninterrupted run without --wal-dir
# must print the identical answers.
sh tools/durability_smoke.sh
echo "ci: bench gate"
# The floors and ceilings declared in bench/gate/gate.ml, over the
# BENCH_*.json regenerated above.
dune exec bench/gate/bench_gate.exe
echo "ci: doc check"
sh tools/check_doc.sh
echo "ci: OK"
