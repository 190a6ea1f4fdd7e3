#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it; every
# argument is passed through (see e2ebench/README.md). Build outputs, the
# Go build cache and temporary files live in .bench_build/ at the checkout
# root, so nothing is written outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/home/go" HOME="$build/home" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/home/.config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/e2ebench" && go build -o "$build/bin/e2ebench" .)
cd "$root"
exec "$build/bin/e2ebench" -root "$root" "$@"
