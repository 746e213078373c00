#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it.
# Every flag is passed through, e.g.
#   bash servebench/run.sh --workload knn-ivfflat-solo --seed 1 --seconds 20 --trace 0
# Build cache, binary, churn database files and span traces all stay
# under .bench_build/servebench in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.bench_build/servebench"
mkdir -p "$work"
(
	cd "$root/servebench"
	# XDG_CONFIG_HOME keeps the go command's own config and telemetry
	# writes inside the checkout as well.
	XDG_CONFIG_HOME="$work/config" GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" \
		go build -buildvcs=false -o "$work/servebench" . >&2
)
# The commit measured, when the checkout is itself a git work tree.
sha=unknown
if top="$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" && [ "$top" = "$root" ]; then
	sha="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
cd "$root"
exec "$work/servebench" --out "$work" --git-sha "$sha" "$@"
