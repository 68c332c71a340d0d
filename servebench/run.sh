#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it sits in and runs it.
# Run from the repository root:
#
#   bash servebench/run.sh --workload hot-replica --seed 1 --seconds 30 --trace 0
#   bash servebench/run.sh --workload all --seed 1 --seconds 30 --trace 0
#
# Every build product, Go cache and trace artifact stays under the build
# directory ($CARGO_TARGET_DIR, default .bench_build) of the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/go-cache" "$build/go-mod" "$build/go-tmp" "$build/home"

export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTMPDIR="$build/go-tmp" TMPDIR="$build/go-tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0

commit=none
if git -C "$root" rev-parse --verify -q HEAD >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD)
fi

(cd "$root/servebench" && go build -o "$build/servebench-bin" .)

workload=""
args=()
while [ $# -gt 0 ]; do
	case "$1" in
	--workload | -workload) workload=$2; shift 2 ;;
	*) args+=("$1"); shift ;;
	esac
done

if [ "$workload" = "all" ]; then
	for w in hot-replica miss-replica fleet-reload; do
		"$build/servebench-bin" -workload "$w" -commit "$commit" -out "$build/servebench" "${args[@]}"
	done
	exit 0
fi
exec "$build/servebench-bin" -workload "$workload" -commit "$commit" -out "$build/servebench" "${args[@]}"
