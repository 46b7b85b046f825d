#!/usr/bin/env bash
# Zero-loss crash recovery exercise against a real bfbdd-serve process
# running with -wal-sync=always: drive mutating traffic while recording
# every acknowledged handle's canonical signature in a client-side
# ledger, kill -9 the server at three different crash points (mid-
# traffic with no checkpoint, right after checkpoint churn, and over a
# staged leftover-segment layout mimicking a crash between rotation and
# truncation), restart over the same directory each time, and require
# that every acknowledged handle still answers with the same signature.
# Also exercises the bfbdd wal and bfbdd snap verifiers' JSON verdicts.
# Run from the repo root with ./bfbdd-serve and
# ./bfbdd already built (see .github/workflows/ci.yml).
set -euo pipefail

ADDR=127.0.0.1:8719
BASE=http://$ADDR
DIR=$(mktemp -d)
CKPT=$DIR/ckpt
LEDGER=$DIR/ledger # lines of "<handle> <signature>"
SERVER_PID=

cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT

jsonget() { # jsonget '<json>' <key>
  python3 -c 'import json,sys; print(json.loads(sys.argv[1])[sys.argv[2]])' "$1" "$2"
}

start_server() { # start_server [extra flags...]
  ./bfbdd-serve -addr "$ADDR" -checkpoint-dir "$CKPT" -wal-sync always "$@" &
  SERVER_PID=$!
  for _ in $(seq 1 50); do
    curl -sf "$BASE/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "server did not come up" >&2
  exit 1
}

crash_server() {
  kill -9 "$SERVER_PID"
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=
}

sig_of() { # sig_of <handle> -> canonical signature
  jsonget "$(curl -sf "$S/query" -d "{\"kind\":\"signature\",\"f\":$1}")" signature
}

record() { # record <handle>: append to the acknowledged-ops ledger
  echo "$1 $(sig_of "$1")" >>"$LEDGER"
}

check_ledger() { # every acknowledged handle must answer identically
  while read -r h want; do
    got=$(sig_of "$h")
    [ "$got" = "$want" ] || {
      echo "handle $h signature drifted after recovery: $got != $want" >&2
      exit 1
    }
  done <"$LEDGER"
}

mutate_burst() { # mutate_burst <count>: vars + applies, all recorded
  for i in $(seq 1 "$1"); do
    V=$(jsonget "$(curl -sf "$S/vars" -d "{\"index\":$((i % 12))}")" handle)
    record "$V"
    W=$(jsonget "$(curl -sf "$S/vars" -d "{\"index\":$(((i + 5) % 12))}")" handle)
    record "$W"
    for op in and or xor; do
      H=$(jsonget "$(curl -sf "$S/apply" -d "{\"op\":\"$op\",\"f\":$V,\"g\":$W}")" handle)
      record "$H"
    done
  done
}

echo "=== crash point 1: mid-traffic, WAL tail only (no checkpoint ever ran)"
start_server -checkpoint-interval 0
CREATE=$(curl -sf "$BASE/v1/sessions" -d '{"vars":12}')
SID=$(jsonget "$CREATE" session)
S=$BASE/v1/sessions/$SID
mutate_burst 6
crash_server

./bfbdd wal verify "$CKPT" || { echo "bfbdd wal verify rejected a healthy log" >&2; exit 1; }

start_server -checkpoint-interval 0
check_ledger
echo "ok: $(wc -l <"$LEDGER") acknowledged ops survived with no checkpoint"

echo "=== crash point 2: during checkpoint churn (rotation + truncation live)"
# Frequent checkpoints race the mutation stream, so the kill lands with
# a fresh snapshot plus a short WAL tail.
crash_server
start_server -checkpoint-interval 250ms
mutate_burst 6
sleep 0.6 # let at least one checkpoint (rotate + truncate) commit
mutate_burst 3
crash_server

./bfbdd wal verify "$CKPT" || { echo "bfbdd wal verify rejected post-churn log" >&2; exit 1; }
SNAP=$(ls "$CKPT"/"$SID".*.snap | sort | tail -1)
./bfbdd snap verify "$SNAP" || { echo "bfbdd snap verify rejected the live snapshot" >&2; exit 1; }

start_server -checkpoint-interval 0
check_ledger
echo "ok: ledger intact across checkpoint churn"

echo "=== crash point 3: staged crash between rotation and truncation"
# A crash in the rotate/truncate window leaves already-covered segments
# on disk next to the fresh one. Stage that layout for real: stash the
# live segments, let a checkpoint rotate + truncate them away, kill -9,
# then copy the stashed (now snapshot-covered) segments back. Recovery
# must skip their covered records, not double-apply or reject them.
WALD=$CKPT/wal
mutate_burst 2
mkdir -p "$DIR/stash"
cp "$WALD"/"$SID".*.wal "$DIR/stash/"
crash_server
start_server -checkpoint-interval 250ms
sleep 0.8 # let a checkpoint commit, rotating and truncating the WAL
crash_server
for f in "$DIR"/stash/*.wal; do
  dst=$WALD/$(basename "$f")
  [ -e "$dst" ] || cp "$f" "$dst"
done

start_server -checkpoint-interval 0
check_ledger
crash_server
echo "=== ok: zero loss at all three crash points ($(wc -l <"$LEDGER") acknowledged ops)"

echo "=== corruption detection: verifiers must fail loudly"
# Flip a byte inside the newest segment's header (its CRC covers the
# first 20 bytes, so any flip there is a hard typed error, not a
# tolerated torn tail): verify must exit nonzero with a JSON verdict.
SEG=$(ls "$WALD"/"$SID".*.wal | sort | tail -1)
python3 - "$SEG" <<'EOF'
import sys
p = sys.argv[1]
b = bytearray(open(p, "rb").read())
b[10] ^= 0xFF  # version/flags region of the 24-byte header
open(p, "wb").write(bytes(b))
EOF
if OUT=$(./bfbdd wal verify "$CKPT" 2>&1); then
  echo "bfbdd wal verify accepted a corrupted segment: $OUT" >&2
  exit 1
fi
echo "$OUT" | python3 -c 'import json,sys; v=json.loads(sys.stdin.readline()); assert v["ok"] is False, v' \
  || { echo "bfbdd wal verify verdict is not ok:false JSON" >&2; exit 1; }
echo "ok: bfbdd wal verify flagged the corruption"

SNAP=$(ls "$CKPT"/"$SID".*.snap | sort | tail -1)
python3 - "$SNAP" <<'EOF'
import sys
p = sys.argv[1]
b = bytearray(open(p, "rb").read())
b[len(b) // 2] ^= 0xFF
open(p, "wb").write(bytes(b))
EOF
if OUT=$(./bfbdd snap verify "$SNAP" 2>&1); then
  echo "bfbdd snap verify accepted a corrupted snapshot: $OUT" >&2
  exit 1
fi
echo "$OUT" | python3 -c 'import json,sys; v=json.loads(sys.stdin.readline()); assert v["ok"] is False, v' \
  || { echo "bfbdd snap verify verdict is not ok:false JSON" >&2; exit 1; }
echo "ok: bfbdd snap verify flagged the corruption"

echo "=== all crash-recovery checks passed"
