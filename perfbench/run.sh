#!/usr/bin/env bash
# Build the benchmark and the server binaries it drives, then run one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -u
cd "$(dirname "$0")/.." || exit 1
# a shell that has not loaded the opam environment finds dune through opam
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
if ! dune build --root . perfbench/main.exe bin/pkgq_server.exe bin/pkgq_shard.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 1
fi
# One CPU for the benchmark and every server it starts, the first this
# shell may use: the host-speed probe then runs where the measured work
# runs (see README.md). Unpinned where taskset is missing or refused.
cpu=$(sed -n 's/^Cpus_allowed_list:[[:space:]]*\([0-9]*\).*/\1/p' /proc/self/status 2>/dev/null)
pin=()
if [ -n "$cpu" ] && command -v taskset >/dev/null 2>&1 && taskset -c "$cpu" true 2>/dev/null; then
  pin=(taskset -c "$cpu")
fi
exec ${pin[@]+"${pin[@]}"} ./_build/default/perfbench/main.exe --bin _build/default/bin "$@"
