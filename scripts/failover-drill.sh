#!/usr/bin/env bash
# Hot-standby failover drill against two real bfbdd-serve processes.
# A primary runs with -wal-sync=always (acknowledgements gate on both
# fsync and delivery to the connected follower), a follower bootstraps
# from its snapshots and streams the WAL tail. The drill drives
# acknowledged mutations while recording every acknowledged handle's
# canonical signature in a client-side ledger, requires the follower to
# stay ready (replication lag under -ready-max-lag 1s) during the load,
# kill -9s the primary mid-load, promotes the follower, and requires:
#   - every acknowledged handle answers with the same signature on the
#     promoted server (zero acknowledged-op loss),
#   - the promoted server is writable at a bumped epoch,
#   - the old primary, restarted as a follower of the new one, refuses
#     writes with 421 (it re-synced onto the newer timeline),
#   - bfbdd wal verify proves the promoted history carries the new epoch.
# Run from the repo root with ./bfbdd-serve and ./bfbdd already
# built (see .github/workflows/ci.yml).
set -euo pipefail

A_ADDR=127.0.0.1:8721
B_ADDR=127.0.0.1:8722
A_BASE=http://$A_ADDR
B_BASE=http://$B_ADDR
DIR=$(mktemp -d)
A_CKPT=$DIR/primary
B_CKPT=$DIR/standby
LEDGER=$DIR/ledger # lines of "<handle> <signature>"
A_PID=
B_PID=

cleanup() {
  [ -n "$A_PID" ] && kill -9 "$A_PID" 2>/dev/null || true
  [ -n "$B_PID" ] && kill -9 "$B_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

jsonget() { # jsonget '<json>' <key>
  python3 -c 'import json,sys; print(json.loads(sys.argv[1])[sys.argv[2]])' "$1" "$2"
}

wait_healthy() { # wait_healthy <base>
  for _ in $(seq 1 50); do
    curl -sf "$1/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "$1 did not come up" >&2
  exit 1
}

wait_ready() { # wait_ready <base>: readiness = bootstrap done, lag in bounds
  for _ in $(seq 1 200); do
    curl -sf "$1/readyz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "$1 never became ready: $(curl -s "$1/readyz")" >&2
  exit 1
}

sig_of() { # sig_of <handle> -> canonical signature, read from $S
  jsonget "$(curl -sf "$S/query" -d "{\"kind\":\"signature\",\"f\":$1}")" signature
}

check_ledger() { # every acknowledged handle must answer identically at $S
  while read -r h want; do
    got=$(sig_of "$h")
    [ "$got" = "$want" ] || {
      echo "handle $h signature drifted after failover: $got != $want" >&2
      exit 1
    }
  done <"$LEDGER"
}

echo "=== start primary (sync acks) and hot standby"
./bfbdd-serve -addr "$A_ADDR" -checkpoint-dir "$A_CKPT" -wal-sync always \
  -checkpoint-interval 250ms -repl-sync-timeout 5s &
A_PID=$!
wait_healthy "$A_BASE"

CREATE=$(curl -sf "$A_BASE/v1/sessions" -d '{"vars":12}')
SID=$(jsonget "$CREATE" session)
S=$A_BASE/v1/sessions/$SID

./bfbdd-serve -addr "$B_ADDR" -checkpoint-dir "$B_CKPT" -wal-sync always \
  -follow "$A_BASE" -ready-max-lag 1s -checkpoint-interval 0 &
B_PID=$!
wait_healthy "$B_BASE"
wait_ready "$B_BASE"
echo "ok: follower bootstrapped and ready"

echo "=== acknowledged load, then kill -9 the primary mid-stream"
(
  i=0
  while :; do
    i=$((i + 1))
    V=$(jsonget "$(curl -sf "$S/vars" -d "{\"index\":$((i % 12))}" 2>/dev/null)" handle 2>/dev/null) || break
    sig=$(sig_of "$V" 2>/dev/null) || break
    echo "$V $sig" >>"$LEDGER"
    H=$(jsonget "$(curl -sf "$S/apply" -d "{\"op\":\"xor\",\"f\":$V,\"g\":$V}" 2>/dev/null)" handle 2>/dev/null) || break
    sig=$(sig_of "$H" 2>/dev/null) || break
    echo "$H $sig" >>"$LEDGER"
  done
) &
LOAD_PID=$!

# The follower must hold its lag bound while the stream is live.
sleep 1
for _ in 1 2 3; do
  curl -sf "$B_BASE/readyz" >/dev/null || {
    echo "follower fell unready under load: $(curl -s "$B_BASE/readyz")" >&2
    exit 1
  }
  sleep 0.3
done
echo "ok: follower stayed within the 1s lag bound under load"

kill -9 "$A_PID"
wait "$A_PID" 2>/dev/null || true
A_PID=
wait "$LOAD_PID" 2>/dev/null || true
ACKED=$(wc -l <"$LEDGER")
[ "$ACKED" -gt 0 ] || { echo "load produced no acknowledged ops" >&2; exit 1; }
echo "ok: primary killed with $ACKED acknowledged ops in the ledger"

echo "=== promote the follower"
PROMOTE=$(curl -sf -X POST "$B_BASE/v1/admin/promote")
EPOCH=$(jsonget "$PROMOTE" epoch)
[ "$EPOCH" -ge 2 ] || { echo "promotion did not bump the epoch: $PROMOTE" >&2; exit 1; }
[ "$(jsonget "$PROMOTE" promoted)" = "True" ] || { echo "promotion not reported: $PROMOTE" >&2; exit 1; }

S=$B_BASE/v1/sessions/$SID
check_ledger
echo "ok: all $ACKED acknowledged ops survived the failover (epoch $EPOCH)"

# Writable: the promoted server acknowledges new mutations.
NEW=$(jsonget "$(curl -sf "$S/vars" -d '{"index":3}')" handle)
echo "$NEW $(sig_of "$NEW")" >>"$LEDGER"
echo "ok: promoted server is writable"

echo "=== restart the old primary; it must come back fenced"
./bfbdd-serve -addr "$A_ADDR" -checkpoint-dir "$A_CKPT" -wal-sync always \
  -follow "$B_BASE" -ready-max-lag 1s -checkpoint-interval 0 &
A_PID=$!
wait_healthy "$A_BASE"
CODE=$(curl -s -o "$DIR/refused" -w '%{http_code}' "$A_BASE/v1/sessions/$SID/vars" -d '{"index":4}')
[ "$CODE" = "421" ] || {
  echo "old primary accepted a write after failover (HTTP $CODE): $(cat "$DIR/refused")" >&2
  exit 1
}
grep -q "$B_BASE" "$DIR/refused" || {
  echo "421 does not point at the new primary: $(cat "$DIR/refused")" >&2
  exit 1
}
echo "ok: old primary refuses writes and redirects to the new primary"

# Once re-synced onto the new timeline it serves the same ledger.
wait_ready "$A_BASE"
S=$A_BASE/v1/sessions/$SID
check_ledger
echo "ok: old primary re-synced as a follower with an identical ledger"

echo "=== the promoted history carries the bumped epoch on disk"
kill -9 "$A_PID"; wait "$A_PID" 2>/dev/null || true; A_PID=
kill -9 "$B_PID"; wait "$B_PID" 2>/dev/null || true; B_PID=
OUT=$(./bfbdd wal verify "$B_CKPT")
python3 -c '
import json, sys
v = json.loads(sys.argv[1])
assert v["ok"], v
assert v.get("max_epoch", 0) >= 2, v
' "$OUT"
echo "ok: bfbdd wal verify reports the promoted epoch: $OUT"

echo "=== all failover-drill checks passed"
