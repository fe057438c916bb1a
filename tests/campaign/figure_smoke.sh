#!/usr/bin/env bash
# Smoke-runs one registered figure through `sos_campaign run` with a tiny
# Monte Carlo load against a fresh store, so every run computes cold. The
# figure must exit 0 and write <name>.txt and <name>.csv.
#
# Usage: figure_smoke.sh <path-to-sos_campaign> <figure-id> <output-name>
set -uo pipefail

cli="${1:?usage: figure_smoke.sh <sos_campaign> <figure-id> <output-name>}"
id="${2:?missing figure id}"
name="${3:?missing output name}"
work="$(mktemp -d "${TMPDIR:-/tmp}/sos_figure_smoke_XXXXXX")"
trap 'rm -rf "$work"' EXIT

"$cli" run "$id" --store="$work/store" --results="$work/results" \
  --mc-trials=4 --mc-walks=2 --seed=7 || exit $?
for ext in txt csv; do
  if [[ ! -s "$work/results/$name.$ext" ]]; then
    echo "figure_smoke: $id wrote no $name.$ext" >&2
    exit 1
  fi
done
cat "$work/results/$name.txt"
