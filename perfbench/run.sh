#!/usr/bin/env bash
# Builds mixenserve, mixenconvert and the benchmark from the checkout's
# sources into .bench_build/, then runs the benchmark with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mixenserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ and perfbench/ must be present)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/work"
# Keep every file the toolchain writes inside the checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
unset GOENV

go build -o "$out/bin/" ./cmd/mixenserve ./cmd/mixenconvert >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
