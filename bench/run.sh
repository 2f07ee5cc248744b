#!/usr/bin/env bash
# Builds the benchmark and the fluxserve child from source into
# .bench_build/ at the root of the checkout, then runs the benchmark from
# that root. Everything the Go toolchain and the benchmark write (build
# cache, temp files, spill segments, traces, logs) stays inside the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
cd "$root/bench"
go build -o "$build/fluxserve" fluxquery/cmd/fluxserve
go build -o "$build/bench" .
cd "$root"
exec "$build/bench" -fluxserve "$build/fluxserve" "$@"
