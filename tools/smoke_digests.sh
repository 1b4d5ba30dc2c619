#!/bin/sh
# Pins the sample paths: runs `pdbbench --smoke` (every benchmark workload
# at tiny sizes) and compares each workload's answer digest with the list
# below. A change to any sample path changes a digest and fails here.
# A change that moves a digest on purpose updates this list and says why.
# Run from the repository root after `dune build`.
set -eu
cd "$(dirname "$0")/.."
mkdir -p _build
cat > _build/smoke_digests.expected <<'LIST'
fig4a-q1 e1ff01a35215b561210984f3b8a6391a
mqo-64 5d970e0c584c066edc1df2822db061ac
daemon-wal 7ab52b261a0fe45f1b4ae967e1ce7514
shard-1m 563afd715e4f6fadb483c79183e360d2
LIST
dune exec bench/e2e/pdbbench.exe -- --smoke --manifest BENCHMARK.json > _build/smoke_digests.out
awk '$1 == "smoke" && $5 == "digest" { print $2, $6 }' _build/smoke_digests.out \
  > _build/smoke_digests.actual
if ! diff _build/smoke_digests.expected _build/smoke_digests.actual; then
  echo "smoke_digests: a pdbbench --smoke digest changed (< pinned, > this tree)" >&2
  exit 1
fi
echo "smoke_digests: all $(wc -l < _build/smoke_digests.actual) digests match"
