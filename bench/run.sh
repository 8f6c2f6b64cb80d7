#!/usr/bin/env bash
# Builds the benchmark harness and runs it, keeping every build artefact
# (Go build cache, binaries, scratch files) inside the checkout under
# .bench_build/. Arguments are passed to the harness; see bench/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-modcacherw
(cd "$here" && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" -root "$root" "$@"
