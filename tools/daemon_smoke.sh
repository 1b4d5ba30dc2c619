#!/bin/sh
# Daemon smoke: the kill-and-resume twin comparison, driven through the
# real CLI (bin/pdb_cli daemon + attach) over a real Unix-domain socket.
#
#   Twin A (uninterrupted): start a durable daemon, attach 9 clients that
#   register/stream/detach, capture each query's frozen marginals.
#   Twin B (crashed): identical daemon, 9 clients attach and stream, the
#   daemon is SIGKILLed mid-stream, resumed from its WAL, the clients
#   reattach by query name and detach.
#
# Eight clients stand on label selections; the ninth registers Query 4,
# a self-join of TOKEN whose selections bootstrap through the columnar
# selection kernel, both live and when the resumed daemon replays the
# registration from its WAL.
#
# The frozen marginals of every query must be bit-identical across the
# twins (%.17g text compare) — MCMC durability is only real if a crash
# is invisible in the numbers. --await-queries holds sampling until the
# whole fleet is registered at sample 0, which is what makes the twins
# comparable despite racing registrations; --wal-fsync-every 1 makes
# every sample durable before the next begins, so SIGKILL can land
# anywhere.
set -eu
cd "$(dirname "$0")/.."
CLI=_build/default/bin/pdb_cli.exe
if [ ! -x "$CLI" ]; then
  echo "daemon_smoke: $CLI not built (run dune build first)" >&2
  exit 1
fi

TOKENS=400
SAMPLES=120
THIN=10
LABELS="B-PER I-PER B-ORG I-ORG B-LOC I-LOC B-MISC I-MISC JOIN"
QUERIES=9

TMP=$(mktemp -d)
A_PID=""
B_PID=""
cleanup() {
  [ -n "$A_PID" ] && kill -9 "$A_PID" 2>/dev/null || true
  [ -n "$B_PID" ] && kill -9 "$B_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

sql_for() {
  if [ "$1" = JOIN ]; then
    echo "SELECT T2.STRING FROM TOKEN T1, TOKEN T2 WHERE T1.STRING='Boston' AND T1.LABEL='B-ORG' AND T1.DOC_ID=T2.DOC_ID AND T2.LABEL='B-PER'"
  else
    echo "SELECT STRING FROM TOKEN WHERE LABEL='$1'"
  fi
}

# Run the client fleet against socket $1, with per-client extra args
# $2..., writing client i's output to $TMP/$PREFIX.q$i.
fleet() {
  sock=$1
  prefix=$2
  shift 2
  pids=""
  i=0
  for lbl in $LABELS; do
    i=$((i + 1))
    "$CLI" attach --socket "$sock" --sql "$(sql_for "$lbl")" --name "q$i" "$@" \
      > "$TMP/$prefix.q$i" 2>&1 &
    pids="$pids $!"
  done
  for p in $pids; do
    wait "$p"
  done
}

echo "daemon_smoke: twin A (uninterrupted)"
"$CLI" daemon --socket "$TMP/a.sock" --tokens $TOKENS --thin $THIN \
  --max-samples $SAMPLES --await-queries $QUERIES \
  --wal-dir "$TMP/a" --wal-fsync-every 1 > "$TMP/a.log" 2>&1 &
A_PID=$!
fleet "$TMP/a.sock" a --stream 1 --updates 2 --wait-samples $SAMPLES --detach
"$CLI" attach --socket "$TMP/a.sock" --shutdown > /dev/null
wait "$A_PID"
A_PID=""

echo "daemon_smoke: twin B (SIGKILL mid-stream, resume from WAL)"
"$CLI" daemon --socket "$TMP/b.sock" --tokens $TOKENS --thin $THIN \
  --max-samples $SAMPLES --await-queries $QUERIES \
  --wal-dir "$TMP/b" --wal-fsync-every 1 > "$TMP/b.log" 2>&1 &
B_PID=$!
# First wave: register all of them at sample 0, stream a couple of updates,
# leave the daemon sampling.
fleet "$TMP/b.sock" b.pre --stream 1 --updates 2
kill -9 "$B_PID"
wait "$B_PID" 2>/dev/null || true
B_PID=""

"$CLI" daemon --socket "$TMP/b.sock" --resume --wal-dir "$TMP/b" \
  --tokens $TOKENS --thin $THIN --max-samples $SAMPLES --await-queries $QUERIES \
  --wal-fsync-every 1 > "$TMP/b2.log" 2>&1 &
B_PID=$!
# The standing queries survived the crash: one more connection must see
# all of them before any client reattaches.
"$CLI" attach --socket "$TMP/b.sock" --stats > "$TMP/b.stats"
grep -q "queries=$QUERIES" "$TMP/b.stats" || {
  echo "daemon_smoke: FAIL — resumed daemon lost standing queries:" >&2
  cat "$TMP/b.stats" >&2
  exit 1
}
# Second wave: reattach by name (register of an existing name), wait the
# chain out, detach with frozen marginals.
fleet "$TMP/b.sock" b --wait-samples $SAMPLES --detach
"$CLI" attach --socket "$TMP/b.sock" --shutdown > /dev/null
wait "$B_PID"
B_PID=""

echo "daemon_smoke: comparing frozen marginals"
i=0
for lbl in $LABELS; do
  i=$((i + 1))
  # Only the frozen-marginal block is comparable (update cadence and
  # registration echoes legitimately differ between the twins).
  grep '^\(query\|  \)' "$TMP/a.q$i" > "$TMP/a.cmp" || true
  grep '^\(query\|  \)' "$TMP/b.q$i" > "$TMP/b.cmp" || true
  if [ ! -s "$TMP/a.cmp" ]; then
    echo "daemon_smoke: FAIL — twin A client q$i produced no marginals:" >&2
    cat "$TMP/a.q$i" >&2
    exit 1
  fi
  if ! diff "$TMP/a.cmp" "$TMP/b.cmp" > /dev/null; then
    echo "daemon_smoke: FAIL — q$i marginals differ across kill/resume:" >&2
    diff "$TMP/a.cmp" "$TMP/b.cmp" >&2 || true
    exit 1
  fi
done
echo "daemon_smoke: OK — $QUERIES queries bit-identical across SIGKILL + WAL resume"
