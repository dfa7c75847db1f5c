#!/usr/bin/env sh
# worker_sweep.sh — launch a local N-way distributed sweep against one
# shared cache directory, wait for the workers, then merge and render
# artifacts.
#
#   scripts/worker_sweep.sh <caem-binary> <scenario.scn> <N> <cache-dir> \
#       [--lease=<secs>] [key=value ...]
#
# The N processes are dynamic workers (`caem run --worker`): they drain
# the sweep's one shared queue by claiming cells in the cache dir,
# longest-expected-first, so no worker is stuck with an unlucky share
# and a crashed worker's cells are stolen after its claim lease
# expires.
#
# Every worker (and the merge) receives the same scenario file and the
# same overrides — config-affecting overrides change the sweep digest,
# and mismatched workers would simply work on different sweeps.  A
# worker that crashes is harmless: surviving workers steal its cells,
# and the merge runs anything still missing before folding the full
# sweep from the cache.  For multi-host launches run the same
# `caem run --worker --cache-dir=<shared dir>` command per host against
# a shared filesystem and `caem merge` from any of them.
set -eu

if [ "$#" -lt 4 ]; then
  echo "usage: $0 <caem-binary> <scenario.scn> <N> <cache-dir> [--lease=<secs>] [key=value ...]" >&2
  exit 2
fi

CAEM=$1
SCN=$2
N=$3
CACHE=$4
shift 4

case "$N" in
  ''|*[!0-9]*|0) echo "$0: N must be a positive integer, got '$N'" >&2; exit 2 ;;
esac

LEASE=""
case "${1-}" in
  --lease=*) LEASE=$1; shift ;;
esac

pids=""
i=1
while [ "$i" -le "$N" ]; do
  # shellcheck disable=SC2086 — $LEASE is empty or one --lease=<secs> token
  "$CAEM" run "$SCN" --worker $LEASE --cache-dir="$CACHE" "$@" &
  pids="$pids $!"
  i=$((i + 1))
done

failed=0
for pid in $pids; do
  wait "$pid" || failed=1
done
if [ "$failed" -ne 0 ]; then
  echo "$0: one or more workers failed; merge will run their unfinished cells" >&2
fi

exec "$CAEM" merge "$SCN" --cache-dir="$CACHE" "$@"
