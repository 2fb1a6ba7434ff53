#!/usr/bin/env bash
# usage: run-named-tests.sh 'TestA|TestB' <go test flags and ./packages>
#
# `go test -run` exits 0 when its pattern matches nothing, so renaming or
# moving a test turns the CI step that selected it into a silent no-op.
# Require every alternative of the pattern to list at least one test in
# the given packages, then run them.
set -euo pipefail
pattern=$1
shift
pkgs=()
for arg in "$@"; do
  case $arg in ./*) pkgs+=("$arg") ;; esac
done
listed=$(go test -list "$pattern" "${pkgs[@]}")
IFS='|' read -ra names <<<"$pattern"
for name in "${names[@]}"; do
  if ! grep -q "^$name" <<<"$listed"; then
    echo "no test named $name* in ${pkgs[*]}: was it renamed or moved?" >&2
    exit 1
  fi
done
exec go test -run="$pattern" "$@"
