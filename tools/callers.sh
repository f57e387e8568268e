#!/usr/bin/env bash
# The options audit: who sets each knob and who calls each `Rank` method.
#
#   tools/callers.sh
#
# One row per `pub fn with_*` of `RunConfig`, `FaultPlan` and
# `mpisim::Config`, and per `pub fn` of `Rank`, counting call sites
# (`.name(` or `.name::<`, comment lines skipped):
#   outside  `crates/*/src` before the first `#[cfg(test)]`, `examples/`,
#            `benchmark/src` (likewise);
#   tests    the rest of those files, `crates/*/tests/` and `tests/`.
# Matching is by name alone, so a common one (`collect`, `send`) also counts
# other types' methods of that name.
# A row with 0 outside is an option nothing but a test sets. Whether it goes
# is a judgement (`with_validation` is the tests' invariant checker), so this
# prints and judges nothing.
set -euo pipefail

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
# Every non-comment line of the files after $1, prefixed `out:` until the
# file's `#[cfg(test)]` (never, with $1 = test) and `test:` after it.
tagged() {
    awk -v from="$1" 'FNR == 1 { side = from } /^#\[cfg\(test\)\]/ { side = "test" }
        !/^[[:space:]]*\/\// { print side ": " $0 }' "${@:2}"
}
lines=$(
    tagged out $(find crates/*/src examples benchmark/src -name '*.rs')
    tagged test $(find crates/*/tests tests -name '*.rs')
)
# The `pub fn`s of the impl block of $2 in file $1.
pub_fns() {
    awk -v head="^impl $2 \\\\{" '$0 ~ head { on = 1; next } on && /^}/ { on = 0 }
        on && match($0, /^    pub fn [a-z_0-9]+/) { print substr($0, RSTART + 11, RLENGTH - 11) }' "$1"
}
printf '%-36s %7s %7s\n' fn outside tests
row() { # <type> <fn>
    local call="\\.$2(\\(|::<)"
    printf '%-36s %7d %7d\n' "$1::$2" \
        "$(grep -cE "^out: .*$call" <<<"$lines" || true)" \
        "$(grep -cE "^test: .*$call" <<<"$lines" || true)"
}
for spec in RunConfig:crates/core/src/driver.rs FaultPlan:crates/mpisim/src/faults.rs \
    Config:crates/mpisim/src/world.rs; do
    for f in $(pub_fns "${spec#*:}" "${spec%%:*}" | grep '^with_'); do row "${spec%%:*}" "$f"; done
done
for f in $(pub_fns crates/mpisim/src/comm.rs Rank); do row Rank "$f"; done
