#!/bin/sh
# Durability smoke: the serve CLI's crash-and-retry path end to end,
# through the real binary (bin/pdb_cli serve --wal-dir).
#
#   crash:   a failpoint kills the chain mid-stream at sample 31; the
#            supervisor retries it from the --wal-dir snapshot + log.
#   resumed: a --resume run at the same --samples finds the finished
#            chain on disk and must print the crash run's answers
#            without sampling again.
#   plain:   the same command with no failpoint and no --wal-dir.
#
# All three must print identical answers (only the "served ..." timing
# line and the crash run's metrics-snapshot notice may differ): recovery is only real if a crash, a retry, and the
# durable machinery itself are invisible in the numbers. --top 100
# prints every answer tuple, so a trajectory change cannot hide below
# the cut.
set -eu
cd "$(dirname "$0")/.."
CLI=_build/default/bin/pdb_cli.exe
if [ ! -x "$CLI" ]; then
  echo "durability_smoke: $CLI not built (run dune build first)" >&2
  exit 1
fi

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT INT TERM

printf '%s\n' "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'" \
  "SELECT COUNT(*) FROM TOKEN WHERE LABEL='B-ORG'" > "$TMP/q.sql"
serve() {
  "$CLI" serve --queries "$TMP/q.sql" --samples 60 --thin 1000 --tokens 500 --top 100 "$@"
}

PDB_FAILPOINT=pool.sample@31 serve --wal-dir "$TMP/d" --metrics-out "$TMP/m.json" \
  > "$TMP/crash.txt"
test -s "$TMP/d/chain-0.ckpt"
grep -q '"checkpoint.retry.count": *1' "$TMP/m.json" || {
  echo "durability_smoke: the failpoint did not force exactly one retry" >&2
  exit 1
}
serve --wal-dir "$TMP/d" --resume > "$TMP/resumed.txt"
serve > "$TMP/plain.txt"
for run in crash resumed plain; do
  grep -v -e '^served ' -e '^metrics snapshot written' "$TMP/$run.txt" > "$TMP/$run.ans"
done
diff "$TMP/crash.ans" "$TMP/resumed.ans"
diff "$TMP/crash.ans" "$TMP/plain.ans"
echo "durability_smoke: OK (crash, resume and uninterrupted runs agree)"
