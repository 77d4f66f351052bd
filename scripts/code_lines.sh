#!/usr/bin/env bash
# Size of the system, the way CHANGES.md has reported it since PR 12:
# Rust lines under crates/ outside `#[cfg(test)]` modules — code-only
# (non-blank, not a `//` comment line) and all lines.
#
# Every crate keeps its unit tests in one `#[cfg(test)]` module at the
# end of the file, so "outside test modules" is "before the first
# top-level `#[cfg(test)]`". No gate: the number is for before/after
# comparisons of a change.
#
# usage: scripts/code_lines.sh [checkout-dir]   (default: this checkout)
set -euo pipefail
root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
find "$root/crates" -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { in_tests = 0 }
  /^#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests { next }
  { all++ }
  /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
  { code++ }
  END {
    printf "code-only non-test Rust lines under crates/: %d\n", code
    printf "all non-test Rust lines under crates/:       %d\n", all
  }'
