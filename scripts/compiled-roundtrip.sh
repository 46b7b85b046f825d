#!/usr/bin/env bash
# End-to-end exercise of the compiled-function subsystem against a real
# bfbdd-serve process: publish artifacts from a live session, record
# their answers, close the session, kill the server with -9, restart
# over the same directory, and require the artifacts back with
# bit-identical answers — plus a download/offline round trip through
# the bfbdd func CLI. Run from the repo root with ./bfbdd-serve and
# ./bfbdd already built (see .github/workflows/ci.yml).
set -euo pipefail

ADDR=127.0.0.1:8727
BASE=http://$ADDR
DIR=$(mktemp -d)
FN=$DIR/wire.fn
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

# eval_batch <func> <root>: evaluate all 16 assignments of x0..x3 in one
# batch and print the 16 values as a compact 0/1 string.
eval_batch() {
  local rows
  rows=$(python3 -c '
import json
rows = [[bool(m >> i & 1) for i in range(4)] for m in range(16)]
print(json.dumps(rows))')
  curl -sf "$BASE/v1/funcs/$1/eval" -d "{\"root\":$2,\"assignments\":$rows}" |
    python3 -c 'import json,sys; print("".join("1" if v else "0" for v in json.load(sys.stdin)["values"]))'
}

echo "=== start server, build f = (x0 AND x1) OR (x2 XOR x3)"
start_server
CREATE=$(curl -sf "$BASE/v1/sessions" -d '{"vars":4,"engine":"pbf"}')
SID=$(jsonget "$CREATE" session)
S=$BASE/v1/sessions/$SID

H0=$(jsonget "$(curl -sf "$S/vars" -d '{"index":0}')" handle)
H1=$(jsonget "$(curl -sf "$S/vars" -d '{"index":1}')" handle)
H2=$(jsonget "$(curl -sf "$S/vars" -d '{"index":2}')" handle)
H3=$(jsonget "$(curl -sf "$S/vars" -d '{"index":3}')" handle)
A=$(jsonget "$(curl -sf "$S/apply" -d "{\"op\":\"and\",\"f\":$H0,\"g\":$H1}")" handle)
X=$(jsonget "$(curl -sf "$S/apply" -d "{\"op\":\"xor\",\"f\":$H2,\"g\":$H3}")" handle)
F=$(jsonget "$(curl -sf "$S/apply" -d "{\"op\":\"or\",\"f\":$A,\"g\":$X}")" handle)

echo "=== publish and record pre-kill answers"
PUB=$(curl -sf "$S/publish" -d "{\"name\":\"roundtrip\",\"handles\":[$F]}")
echo "published $(jsonget "$PUB" func): $(jsonget "$PUB" nodes) nodes, $(jsonget "$PUB" bytes) bytes"
VALUES_BEFORE=$(eval_batch roundtrip "$F")
WANT=$(python3 -c '
vals = []
for m in range(16):
    x = [bool(m >> i & 1) for i in range(4)]
    vals.append("1" if (x[0] and x[1]) or (x[2] != x[3]) else "0")
print("".join(vals))')
[ "$VALUES_BEFORE" = "$WANT" ] || { echo "pre-kill eval wrong: $VALUES_BEFORE != $WANT" >&2; exit 1; }
SAT_BEFORE=$(jsonget "$(curl -sf "$BASE/v1/funcs/roundtrip/query" -d "{\"kind\":\"satcount\",\"root\":$F}")" satcount)
echo "answers $VALUES_BEFORE, satcount $SAT_BEFORE"

echo "=== artifact must outlive its source session"
curl -sf -X DELETE "$S" >/dev/null
VALUES_ORPHAN=$(eval_batch roundtrip "$F")
[ "$VALUES_ORPHAN" = "$VALUES_BEFORE" ] || { echo "post-close eval drifted: $VALUES_ORPHAN" >&2; exit 1; }

echo "=== kill -9, restart, artifacts must reload"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=

start_server
LIST=$(curl -sf "$BASE/v1/funcs")
python3 -c '
import json,sys
funcs = [f["func"] for f in json.loads(sys.argv[1])["funcs"]]
assert "roundtrip" in funcs, f"artifact missing after restart: {funcs}"' "$LIST"
VALUES_AFTER=$(eval_batch roundtrip "$F")
[ "$VALUES_AFTER" = "$VALUES_BEFORE" ] || { echo "post-kill eval drifted: $VALUES_AFTER != $VALUES_BEFORE" >&2; exit 1; }
SAT_AFTER=$(jsonget "$(curl -sf "$BASE/v1/funcs/roundtrip/query" -d "{\"kind\":\"satcount\",\"root\":$F}")" satcount)
[ "$SAT_AFTER" = "$SAT_BEFORE" ] || { echo "post-kill satcount drifted: $SAT_AFTER != $SAT_BEFORE" >&2; exit 1; }

echo "=== download and evaluate offline with bfbdd func"
curl -sf "$BASE/v1/funcs/roundtrip/download" -o "$FN"
./bfbdd func info "$FN"
for mask in 0 3 5 12 15; do
  BITS=$(python3 -c 'import sys; m=int(sys.argv[1]); print("".join(str(m >> i & 1) for i in range(4)))' "$mask")
  GOT=$(./bfbdd func eval -root "$F" "$FN" "$BITS" | awk '{print $3}')
  WANT_BIT=$(python3 -c 'import sys; v=sys.argv[1]; m=int(sys.argv[2]); print(v[m])' "$VALUES_BEFORE" "$mask")
  [ "$GOT" = "$WANT_BIT" ] || { echo "CLI eval mask $mask drifted: $GOT != $WANT_BIT" >&2; exit 1; }
done
CLI_SAT=$(./bfbdd func satcount -root "$F" "$FN")
[ "$CLI_SAT" = "$SAT_BEFORE" ] || { echo "CLI satcount drifted: $CLI_SAT != $SAT_BEFORE" >&2; exit 1; }

echo "=== delete must stick across restart"
curl -sf -X DELETE "$BASE/v1/funcs/roundtrip" >/dev/null
kill -9 "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true; SERVER_PID=
start_server
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/funcs/roundtrip")
[ "$CODE" = "404" ] || { echo "deleted artifact resurrected ($CODE)" >&2; exit 1; }

kill -9 "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true; SERVER_PID=
echo "=== ok: artifacts survived session close and kill -9 with bit-identical answers"
