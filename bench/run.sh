#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs it:
#
#   bash bench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, the
# durable workload's store, the batch workload's cache) stays under
# .bench_build/ at the root of the checkout. No network is used: the only
# module dependency is the repository itself, replaced by ../.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
command -v go >/dev/null 2>&1 || export PATH="$PATH:/usr/local/go/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$out/smsbench" .)
cd "$root"
exec "$out/smsbench" "$@"
