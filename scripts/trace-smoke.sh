#!/usr/bin/env bash
# End-to-end tracing smoke against a real bfbdd-serve process: run a
# traced workload (forced traces and head sampling), export every
# retained trace through GET /v1/debug/traces, and validate the exports
# with the bfbdd trace CLI — which enforces the span-tree schema (dense
# 1-based ids, single root, parents before children, non-negative
# durations) and exits nonzero on any malformed trace or empty export.
# Also checks the slow-build diagnostic log line fires. Run from the
# repo root with ./bfbdd-serve and ./bfbdd already built (see
# .github/workflows/ci.yml).
set -euo pipefail

ADDR=127.0.0.1:8719
BASE=http://$ADDR
DIR=$(mktemp -d)
OUT=${TRACE_OUT:-$DIR/out}
SERVER_PID=

cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

jsonget() { # jsonget '<json>' <key>
  python3 -c 'import json,sys; print(json.loads(sys.argv[1])[sys.argv[2]])' "$1" "$2"
}

mkdir -p "$OUT"

echo "=== start server with tracing, persistence, and slow-build logging"
# -slow-build-threshold 0s would disable the diagnostic; 1ns makes every
# build "slow" so the smoke can assert the log line's shape.
./bfbdd-serve -addr "$ADDR" -checkpoint-dir "$DIR/ckpt" \
  -trace-sample 1 -trace-ring 256 -slow-build-threshold 1ns \
  >"$DIR/server.log" 2>&1 &
SERVER_PID=$!
for _ in $(seq 1 50); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "$BASE/healthz" >/dev/null

echo "=== traced workload"
CREATE=$(curl -sf "$BASE/v1/sessions" -d '{"vars":12,"engine":"pbf"}')
SID=$(jsonget "$CREATE" session)
S=$BASE/v1/sessions/$SID

H0=$(jsonget "$(curl -sf "$S/vars" -d '{"index":0}')" handle)
ACC=$H0
for i in $(seq 1 11); do
  HI=$(jsonget "$(curl -sf "$S/vars" -d "{\"index\":$i}")" handle)
  ACC=$(jsonget "$(curl -sf "$S/apply" -d "{\"op\":\"xor\",\"f\":$ACC,\"g\":$HI}")" handle)
done

# One explicitly forced request: its trace id must come back in the
# response header and its export must be fetchable directly.
FORCED_TID=$(curl -sfi "$S/apply?trace=1" -d "{\"op\":\"and\",\"f\":$ACC,\"g\":$H0}" |
  tr -d '\r' | sed -n 's/^X-Bfbdd-Trace: //p')
[ -n "$FORCED_TID" ] || { echo "forced request carried no X-Bfbdd-Trace header" >&2; exit 1; }
curl -sf "$BASE/v1/debug/traces/$FORCED_TID" -o "$OUT/forced.json"

echo "=== export the ring"
LIST=$(curl -sf "$BASE/v1/debug/traces")
COUNT=$(python3 -c 'import json,sys; print(len(json.loads(sys.argv[1])["traces"]))' "$LIST")
echo "ring holds $COUNT traces"
# vars + applies + the forced request, all at sample rate 1.
[ "$COUNT" -ge 13 ] || { echo "expected >= 13 sampled traces, got $COUNT" >&2; exit 1; }
python3 -c 'import json,sys
for t in json.loads(sys.argv[1])["traces"]:
    print(t["trace_id"])' "$LIST" |
while read -r tid; do
  curl -sf "$BASE/v1/debug/traces/$tid" >>"$OUT/ring.json"
done

echo "=== validate every export with bfbdd trace"
./bfbdd trace -q "$OUT/forced.json" "$OUT/ring.json"
# The forced trace must show the full pipeline: batch, kernel build,
# per-level phases, and the WAL commit (persistence is on).
./bfbdd trace "$OUT/forced.json" | tee "$OUT/forced.txt" |
  grep -q 'kernel-build' || { echo "forced trace lacks kernel-build span" >&2; exit 1; }
for span in batch expand reduce wal-commit shannon_steps; do
  grep -q "$span" "$OUT/forced.txt" ||
    { echo "forced trace lacks $span" >&2; cat "$OUT/forced.txt" >&2; exit 1; }
done

echo "=== slow-build diagnostics"
grep -q 'server: slow build:' "$DIR/server.log" ||
  { echo "no slow-build log line despite 1ns threshold" >&2; tail "$DIR/server.log" >&2; exit 1; }
grep 'server: slow build:' "$DIR/server.log" | head -1 > "$OUT/slow-build.txt"
for field in shannon_steps= terminals= gc_mark_ns=; do
  grep -q "$field" "$OUT/slow-build.txt" ||
    { echo "slow-build line lacks $field" >&2; cat "$OUT/slow-build.txt" >&2; exit 1; }
done

kill "$SERVER_PID" && wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=
echo "=== trace smoke OK ($COUNT traces validated, artifacts in $OUT)"
