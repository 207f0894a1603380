#!/usr/bin/env bash
# Builds spstabench from the sources of the checkout it runs in, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash spstabench/run.sh --workload engine-unit --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (the binary, Go's build cache,
# temporary files, trace files) stays under .bench_build in the
# repository root. Without the repository's sources beside this
# directory the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CACHE_HOME="$out/home/.cache" XDG_CONFIG_HOME="$out/home/.config" \
	GOPATH="$out/gopath" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/spstabench" && go build -o "$out/spstabench" .)
exec "$out/spstabench" "$@"
