#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of this checkout and runs
# it with the given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload pbe0-scf --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary, span dumps and temporary stores all live
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gotmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOMODCACHE=$out/gomod
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" --out "$out" "$@"
