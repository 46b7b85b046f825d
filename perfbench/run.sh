#!/usr/bin/env bash
# Builds perfbench from the checkout this script sits in and runs it with
# the given arguments. Run it from the repository root: everything the
# build and the run write (Go's build cache, the binary, scratch files,
# span files) stays under .bench_build there.
#
#   bash perfbench/run.sh --workload build-mult11 --seed 1 --seconds 15 --trace 0
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$PWD/.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
  GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
  GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
