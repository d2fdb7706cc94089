#!/bin/sh
# Non-test code lines of workspace crates: the figure ROADMAP.md and
# CHANGES.md quote as "non-test lines in core+gossip(+kmeans)".
#
#   scripts/nontest_loc.sh core gossip kmeans
#   scripts/nontest_loc.sh num-bigint
#
# A name is read from crates/<name>/src, or from shims/<name>/src when no
# such crate exists.  The rule, per file under that directory: every line
# before the first column-0 `#[cfg(test)]` (the file's test module), minus
# blank lines and lines holding only a `//`, `///` or `//!` comment.
# Prints one line per crate and the total.
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || { echo "usage: $0 <crate>..." >&2; exit 2; }
total=0
for crate in "$@"; do
    src="crates/$crate/src"
    [ -d "$src" ] || src="shims/$crate/src"
    [ -d "$src" ] || { echo "no such crate or shim: $crate" >&2; exit 2; }
    lines=$(find "$src" -name '*.rs' -exec awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests { next }
        { line = $0; sub(/^[ \t]+/, "", line) }
        line == "" || line ~ /^\/\// { next }
        { count++ }
        END { print count + 0 }
    ' {} +)
    printf '%-12s %6d\n' "$crate" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
