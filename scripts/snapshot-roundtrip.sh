#!/usr/bin/env bash
# End-to-end checkpoint/restore exercise against a real bfbdd-serve
# process: build state, checkpoint, kill -9, restart over the same
# directory, and require bit-identical answers — plus an explicit
# snapshot-download/upload round trip through the HTTP API and the
# bfbdd snap CLI. Run from the repo root with ./bfbdd-serve and
# ./bfbdd already built (see .github/workflows/ci.yml).
set -euo pipefail

ADDR=127.0.0.1:8717
BASE=http://$ADDR
DIR=$(mktemp -d)
SNAP=$DIR/wire.snap
SERVER_PID=

cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

jsonget() { # jsonget '<json>' <key>
  python3 -c 'import json,sys; print(json.loads(sys.argv[1])[sys.argv[2]])' "$1" "$2"
}

start_server() {
  ./bfbdd-serve -addr "$ADDR" -checkpoint-dir "$DIR/ckpt" -checkpoint-interval 1s &
  SERVER_PID=$!
  for _ in $(seq 1 50); do
    curl -sf "$BASE/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "server did not come up" >&2
  exit 1
}

echo "=== start server, build state"
start_server
CREATE=$(curl -sf "$BASE/v1/sessions" -d '{"vars":16,"engine":"pbf"}')
SID=$(jsonget "$CREATE" session)
S=$BASE/v1/sessions/$SID

# f = (x0 AND x1) OR (x2 XOR x3)
H0=$(jsonget "$(curl -sf "$S/vars" -d '{"index":0}')" handle)
H1=$(jsonget "$(curl -sf "$S/vars" -d '{"index":1}')" handle)
H2=$(jsonget "$(curl -sf "$S/vars" -d '{"index":2}')" handle)
H3=$(jsonget "$(curl -sf "$S/vars" -d '{"index":3}')" handle)
A=$(jsonget "$(curl -sf "$S/apply" -d "{\"op\":\"and\",\"f\":$H0,\"g\":$H1}")" handle)
X=$(jsonget "$(curl -sf "$S/apply" -d "{\"op\":\"xor\",\"f\":$H2,\"g\":$H3}")" handle)
F=$(jsonget "$(curl -sf "$S/apply" -d "{\"op\":\"or\",\"f\":$A,\"g\":$X}")" handle)
SAT_BEFORE=$(jsonget "$(curl -sf "$S/query" -d "{\"kind\":\"satcount\",\"f\":$F}")" satcount)
echo "session $SID, handle $F, satcount $SAT_BEFORE"

echo "=== wire snapshot round trip"
curl -sf -X POST "$S/snapshot" -o "$SNAP"
./bfbdd snap info "$SNAP"
./bfbdd snap verify "$SNAP"
RESTORED=$(curl -sf --data-binary @"$SNAP" "$BASE/v1/sessions/restore?engine=df")
SID2=$(python3 -c 'import json,sys; print(json.loads(sys.argv[1])["info"]["session"])' "$RESTORED")
SAT_WIRE=$(jsonget "$(curl -sf "$BASE/v1/sessions/$SID2/query" -d "{\"kind\":\"satcount\",\"f\":$F}")" satcount)
[ "$SAT_WIRE" = "$SAT_BEFORE" ] || { echo "wire restore satcount drifted: $SAT_WIRE != $SAT_BEFORE" >&2; exit 1; }

echo "=== checkpoint, kill -9, restart, verify recovery"
sleep 2.5 # let the 1s checkpoint loop commit both sessions
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=

start_server
SAT_AFTER=$(jsonget "$(curl -sf "$S/query" -d "{\"kind\":\"satcount\",\"f\":$F}")" satcount)
[ "$SAT_AFTER" = "$SAT_BEFORE" ] || { echo "recovered satcount drifted: $SAT_AFTER != $SAT_BEFORE" >&2; exit 1; }

# Eval must agree on every one of the 16 assignments of x0..x3.
for mask in $(seq 0 15); do
  ASSIGN=$(python3 -c '
import json, sys
m = int(sys.argv[1])
print(json.dumps([bool(m >> i & 1) for i in range(4)] + [False] * 12))' "$mask")
  GOT=$(jsonget "$(curl -sf "$S/query" -d "{\"kind\":\"eval\",\"f\":$F,\"assignment\":$ASSIGN}")" value)
  WANT=$(python3 -c '
import sys
m = int(sys.argv[1])
x = [bool(m >> i & 1) for i in range(4)]
print(str((x[0] and x[1]) or (x[2] != x[3])))' "$mask")
  [ "$GOT" = "$WANT" ] || { echo "eval mask $mask drifted: $GOT != $WANT" >&2; exit 1; }
done

kill -9 "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true; SERVER_PID=
echo "=== ok: session survived kill -9 with bit-identical answers"
