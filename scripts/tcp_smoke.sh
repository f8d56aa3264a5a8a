#!/usr/bin/env bash
# tcp_smoke.sh — end-to-end check that the TCP transport reproduces the
# in-process backend exactly: run the canonical scalebench smoke scenario
# once in a single process, once as 4 OS processes over localhost TCP
# with file rendezvous, and once as 4 processes discovering each other
# through a cmtbroker, then require all three diagnostics files (physics
# scalars, per-rank virtual clocks, and the collectively-computed
# makespan) to be byte-identical. Finally run cmtbone as 4 processes
# with -trace/-metrics and require one parseable shard per process.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d "${TMPDIR:-/tmp}/tcp_smoke.XXXXXX")
broker_pid=""
cleanup() {
    if [ -n "$broker_pid" ]; then kill "$broker_pid" 2>/dev/null || true; fi
    rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/scalebench" ./cmd/scalebench
go build -o "$workdir/cmtbroker" ./cmd/cmtbroker
go build -o "$workdir/cmtbone" ./cmd/cmtbone

echo "== in-process run =="
"$workdir/scalebench" -smoke -smoke-json "$workdir/inproc.json"

echo "== 4-process TCP run (file rendezvous) =="
scripts/mpirun_tcp.sh 4 "$workdir/scalebench" -smoke -smoke-json "$workdir/tcp.json"

if ! cmp "$workdir/inproc.json" "$workdir/tcp.json"; then
    echo "tcp_smoke: FAIL — diagnostics differ between transports:" >&2
    diff "$workdir/inproc.json" "$workdir/tcp.json" >&2 || true
    exit 1
fi

echo "== 4-process TCP run (cmtbroker rendezvous) =="
"$workdir/cmtbroker" -listen 127.0.0.1:0 > "$workdir/broker.out" &
broker_pid=$!
addr=""
for _ in $(seq 100); do
    addr=$(sed -n 's/^cmtbroker listening on //p' "$workdir/broker.out")
    if [ -n "$addr" ]; then break; fi
    sleep 0.05
done
if [ -z "$addr" ]; then
    echo "tcp_smoke: FAIL — cmtbroker did not come up" >&2
    exit 1
fi
MPIRUN_RDV="tcp://$addr/smoke" scripts/mpirun_tcp.sh 4 "$workdir/scalebench" -smoke -smoke-json "$workdir/broker.json"

if ! cmp "$workdir/inproc.json" "$workdir/broker.json"; then
    echo "tcp_smoke: FAIL — diagnostics differ under broker rendezvous:" >&2
    diff "$workdir/inproc.json" "$workdir/broker.json" >&2 || true
    exit 1
fi

echo "== 4-process cmtbone run with -trace/-metrics (one shard per process) =="
scripts/mpirun_tcp.sh 4 "$workdir/cmtbone" -np 4 -n 5 -steps 2 \
    -trace "$workdir/t.json" -metrics "$workdir/m.jsonl" > "$workdir/cmtbone.out"
if [ -e "$workdir/t.json" ] || [ -e "$workdir/m.jsonl" ]; then
    echo "tcp_smoke: FAIL — processes wrote the shared -trace/-metrics path" >&2
    exit 1
fi
for r in 0 1 2 3; do
    if ! python3 -m json.tool "$workdir/t.rank$r.json" > /dev/null; then
        echo "tcp_smoke: FAIL — trace shard of rank $r missing or invalid" >&2
        exit 1
    fi
    if ! python3 -c 'import json, sys; assert [json.loads(l) for l in open(sys.argv[1])]' "$workdir/m.rank$r.jsonl"; then
        echo "tcp_smoke: FAIL — step-metrics shard of rank $r missing, empty or invalid" >&2
        exit 1
    fi
done
echo "tcp_smoke: OK — in-process, file-rendezvous, and broker-rendezvous diagnostics are byte-identical; 4 valid trace/metrics shards"
