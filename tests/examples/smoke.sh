#!/usr/bin/env bash
# Runs one example binary and requires exit status 0 and its closing line.
#
# Usage: smoke.sh <closing-line-regex> <example> [flags...]
set -uo pipefail

pattern="${1:?usage: smoke.sh <closing-line-regex> <example> [flags...]}"
shift
output="$("$@")"
status=$?
printf '%s\n' "$output"
if [[ "$status" != 0 ]]; then
  echo "examples smoke: $* exited $status" >&2
  exit 1
fi
if ! grep -qE -- "$pattern" <<<"$output"; then
  echo "examples smoke: closing line /$pattern/ missing" >&2
  exit 1
fi
