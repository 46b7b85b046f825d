#!/usr/bin/env bash
# Mutation-test the differential oracle: build bfbdd with a known
# kernel bug planted behind the `oraclebug` build tag (Diff(f, f)
# returns One instead of Zero — see internal/core/oraclebug_on.go) and
# require that the oracle (a) detects it, (b) shrinks the failing
# sequence to at most 8 operations, and (c) writes a replay file that
# reproduces byte-for-byte under the same buggy build. A clean build
# must then pass the identical seeds. Run from the repo root.
set -euo pipefail

SEED=1
SEQS=200
VARS=8
OPS=40
MAX_SHRUNK_OPS=8

DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

echo "oracle-selfcheck: building bfbdd with the planted kernel bug"
go build -tags oraclebug -o "$DIR/bfbdd-buggy" ./cmd/bfbdd
go build -o "$DIR/bfbdd-clean" ./cmd/bfbdd

echo "oracle-selfcheck: fuzzing the buggy build (must detect a divergence)"
if "$DIR/bfbdd-buggy" oracle -seed "$SEED" -seqs "$SEQS" -vars "$VARS" -ops "$OPS" \
    -out "$DIR" >"$DIR/buggy.log" 2>&1; then
  echo "oracle-selfcheck: FAIL — oracle did not detect the planted bug" >&2
  cat "$DIR/buggy.log" >&2
  exit 1
fi
echo "oracle-selfcheck: planted bug detected"

REPLAY=$(ls "$DIR"/replay-*.json | head -n 1)
if [ -z "$REPLAY" ]; then
  echo "oracle-selfcheck: FAIL — no replay file written" >&2
  cat "$DIR/buggy.log" >&2
  exit 1
fi

SHRUNK_OPS=$(sed -n 's/^ *"shrunk_ops": *\([0-9]*\).*/\1/p' "$REPLAY" | head -n 1)
if [ -z "$SHRUNK_OPS" ]; then
  echo "oracle-selfcheck: FAIL — replay file has no shrunk sequence" >&2
  cat "$REPLAY" >&2
  exit 1
fi
if [ "$SHRUNK_OPS" -gt "$MAX_SHRUNK_OPS" ]; then
  echo "oracle-selfcheck: FAIL — shrunk to $SHRUNK_OPS ops, want <= $MAX_SHRUNK_OPS" >&2
  cat "$REPLAY" >&2
  exit 1
fi
echo "oracle-selfcheck: shrunk to $SHRUNK_OPS op(s) (limit $MAX_SHRUNK_OPS)"

grep -q "TestOracleRegression" "$REPLAY" || {
  echo "oracle-selfcheck: FAIL — replay file carries no regression test" >&2
  exit 1
}

echo "oracle-selfcheck: verifying the replay reproduces under the buggy build"
"$DIR/bfbdd-buggy" oracle -replay "$REPLAY"

echo "oracle-selfcheck: fuzzing a clean build on the same seeds (must pass)"
"$DIR/bfbdd-clean" oracle -seed "$SEED" -seqs "$SEQS" -vars "$VARS" -ops "$OPS" -out "$DIR"

echo "oracle-selfcheck: OK"
