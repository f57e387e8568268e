#!/usr/bin/env bash
# The ROADMAP's size metrics, per file and in total, for one or more crates.
#
#   tools/loc.sh [crate-dir ...]    (default: every crate under crates/)
#
# For every `src/*.rs` of each crate, counting only the lines before the
# first `#[cfg(test)]`:
#   raw     every line (what ROADMAP.md calls "non-test LOC");
#   code    lines that are neither blank nor `//` comments (doc comments
#           included among the comments);
#   panics  code lines that can panic by hand: `assert!`, `assert_eq!`,
#           `assert_ne!`, `.expect(`, `.unwrap()`, `panic!`, `unreachable!`
#           (`debug_assert*` excluded).
# Each crate's files end with one `<crate-dir> total` line, and more than
# one crate ends with an `all total` line.
set -euo pipefail

root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
if [ $# -eq 0 ]; then
    for dir in "$root"/crates/*/; do
        dir=${dir%/}
        set -- "$@" "${dir#"$root"/}"
    done
fi
printf '%-40s %7s %7s %7s\n' file raw code panics
for crate in "$@"; do
    for f in "$root/$crate"/src/*.rs; do
        awk -v name="${f#"$root"/}" '
            /^#\[cfg\(test\)\]/ { exit }
            { raw++ }
            /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
            { code++ }
            !/debug_assert/ && /assert!|assert_eq!|assert_ne!|\.expect\(|\.unwrap\(\)|panic!|unreachable!/ { panics++ }
            END { printf "%-40s %7d %7d %7d\n", name, raw, code, panics }' "$f"
    done | awk -v crate="$crate" '{ print; raw += $2; code += $3; panics += $4 }
        END { printf "%-40s %7d %7d %7d\n", crate " total", raw, code, panics }'
done | awk '{ print } NF == 5 { crates++; raw += $3; code += $4; panics += $5 }
    END { if (crates > 1) printf "%-40s %7d %7d %7d\n", "all total", raw, code, panics }'
