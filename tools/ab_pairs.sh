#!/usr/bin/env bash
# A/B a performance claim the way EXPERIMENTS.md does it: the parent commit
# against the working tree, one benchmark workload, alternating pairs.
#
#   tools/ab_pairs.sh <parent-ref> <workload> [pairs=10]
#
# Builds the benchmark binary of <parent-ref> (from a `git archive` of it)
# and of the working tree, both out of tree under ${TMPDIR:-/tmp}/ab_pairs,
# then runs `--workload W --seed N --seconds 10 --trace 0` on each, a fresh
# seed per pair (301, 302, ...), the side that goes first alternating. Prints
# every pair of every end-to-end metric, both medians and quartiles, the
# change's wins, and whether the medians differ by more than the distance
# between the parent's quartiles — the rule of benchmark/README.md, "Noise".
# Ends with one `--trace 1` pass a side (seed 301) and prints where the time
# sits, parent -> change: host.fixed_s, host.iter_ms and
# core.driver.fixed_ns_per_node.
#
# It only calls benchmark/; it judges nothing and exits non-zero only when a
# build or a run fails.
set -euo pipefail

[ $# -ge 2 ] || { sed -n '2,16p' "$0" >&2; exit 2; }
ref=$1 workload=$2 pairs=${3:-10}
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse --verify "$ref^{commit}")
work=${TMPDIR:-/tmp}/ab_pairs
mkdir -p "$work"

build() { # <source tree> <target dir>
    cargo build --quiet --release --offline \
        --manifest-path "$1/benchmark/Cargo.toml" --target-dir "$2"
}
if [ ! -x "$work/$sha/target/release/ic2-benchmark" ]; then
    rm -rf "${work:?}/$sha"
    mkdir -p "$work/$sha/src"
    git -C "$root" archive "$sha" | tar -x -C "$work/$sha/src"
    build "$work/$sha/src" "$work/$sha/target"
fi
build "$root" "$work/tree"
parent=$work/$sha/target/release/ic2-benchmark
change=$work/tree/release/ic2-benchmark

run() { # <binary> <seed> [trace=0]  → the result line
    (cd "$work" && "$1" --workload "$workload" --seed "$2" --seconds 10 --trace "${3:-0}") | tail -n 1
}
results=$work/pairs.$$
traced=$work/traced.$$
trap 'rm -f "$results" "$traced"' EXIT
for ((i = 0; i < pairs; i++)); do
    seed=$((301 + i))
    if ((i % 2 == 0)); then
        p=$(run "$parent" "$seed") c=$(run "$change" "$seed")
    else
        c=$(run "$change" "$seed") p=$(run "$parent" "$seed")
    fi
    printf '%s\n%s\n' "$p" "$c" >>"$results"
    echo "pair $((i + 1))/$pairs (seed $seed) done" >&2
done
printf '%s\n%s\n' "$(run "$parent" 301 1)" "$(run "$change" 301 1)" >"$traced"

echo "$workload: $ref ($(git -C "$root" rev-parse --short "$sha")) against the working tree, $pairs pairs"
awk '
# The number that follows the first match of `key` in `line`.
function number(line, key,    rest) {
    if (!match(line, key)) return "nan"
    rest = substr(line, RSTART + RLENGTH)
    sub(/[,}].*/, "", rest)
    return rest + 0
}
function value(line, name) { return number(line, "\"" name "\": *\\{\"value\": *") }
function count(line, name) { return number(line, "\"" name "\": *") }
# Python statistics.quantiles(n=4), the method benchmark/ reports with.
function quantile(v, n, q,    pos, lo, frac) {
    if (n == 1) return v[1]
    pos = q * (n + 1); lo = int(pos); frac = pos - lo
    if (lo < 1) return v[1]
    if (lo >= n) return v[n]
    return v[lo] + frac * (v[lo + 1] - v[lo])
}
function sorted(src, dst, n,    i, j, t) {
    for (i = 1; i <= n; i++) dst[i] = src[i]
    for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t }
}
{ failed += count($0, "failed"); attempted += count($0, "attempted") }
FILENAME == traced { side[++sides] = $0; next }
{ line[++lines] = $0 }
END {
    n = lines / 2
    split("ns_per_update run_s setup_s peak_rss_mb", metrics, " ")
    for (m = 1; m <= 4; m++) {
        name = metrics[m]; wins = 0; ties = 0; pairs = ""
        for (i = 1; i <= n; i++) {
            p[i] = value(line[2 * i - 1], name); c[i] = value(line[2 * i], name)
            wins += (c[i] < p[i]); ties += (c[i] == p[i])
            pairs = pairs sprintf(" %.4g/%.4g", p[i], c[i])
        }
        sorted(p, ps, n); sorted(c, cs, n)
        pm = quantile(ps, n, 0.5); cm = quantile(cs, n, 0.5)
        iqr = quantile(ps, n, 0.75) - quantile(ps, n, 0.25)
        diff = cm - pm; if (diff < 0) diff = -diff
        printf "\n%s (parent/change):%s\n", name, pairs
        printf "  parent  median %.5g  quartiles %.5g .. %.5g\n", pm, quantile(ps, n, 0.25), quantile(ps, n, 0.75)
        printf "  change  median %.5g  quartiles %.5g .. %.5g\n", cm, quantile(cs, n, 0.25), quantile(cs, n, 0.75)
        printf "  change/parent %+.1f %%, change lower in %d of %d pairs (%d ties), |median difference| %.4g %s parent inter-quartile distance %.4g\n", \
            100 * (cm - pm) / pm, wins, n, ties, diff, (diff > iqr ? ">" : "<="), iqr
    }
    printf "\ntraced pass (parent -> change):"
    split("host.fixed_s host.iter_ms core.driver.fixed_ns_per_node", layers, " ")
    for (m = 1; m <= 3; m++)
        printf "  %s %.4g -> %.4g", layers[m], value(side[1], layers[m]), value(side[2], layers[m])
    printf "\n\nfailed runs: %d of %d attempted\n", failed, attempted
}' traced="$traced" "$results" "$traced"
