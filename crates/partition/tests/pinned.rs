//! Pinned partitions: the FNV-1a hash of `Metis::default()`'s assignment on
//! fixed graphs, so a rewrite of the partitioner's kernels that claims to
//! keep its output can be checked to the bit.
//!
//! The hashes were regenerated once when FM became boundary FM with an early
//! exit and coarse vertices were numbered in fine-id order (CHANGES.md keeps
//! the old ones). The `reweighted` families' non-unit edge and vertex weights
//! reach FM's pair-key heaps at the finest level and its per-vertex balance
//! test. A mismatch prints every case's hash, in the form of the table below.
//! No pinned case leaves a part empty.
//!
//! Hashes pin the output, not its quality: [`QUALITY`] holds each case's cut
//! and heaviest part from before boundary FM, and
//! `metis_quality_holds_its_floor` keeps the partitioner at or above it.
//!
//! The 512 × 512 hex grid (262 144 nodes) is `#[ignore]`d: run it with
//! `cargo test --release -p ic2-partition --test pinned -- --include-ignored`.

use ic2_graph::{generators, metrics, Graph, GraphBuilder};
use ic2_partition::metis::Metis;
use ic2_partition::StaticPartitioner;
use ic2_rng::SplitMix64;

/// FNV-1a over the `u32` entries of an assignment.
fn fnv1a(parts: &[u32]) -> u64 {
    let mut x: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in parts {
        x ^= u64::from(v);
        x = x.wrapping_mul(0x0000_0100_0000_01b3);
    }
    x
}

fn hash(graph: &Graph, k: usize) -> u64 {
    fnv1a(Metis::default().partition(graph, k).as_slice())
}

/// `base` with each edge's weight drawn from `1..=max_ew` and each vertex's
/// from `1..=max_vw`, in edge order, from `seed`.
fn reweighted(base: &Graph, max_ew: usize, max_vw: usize, seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let mut b = GraphBuilder::new(base.num_nodes());
    for (u, v, _) in base.edges() {
        b.weighted_edge(u, v, rng.gen_range_incl(1..=max_ew) as i64);
    }
    let vwgt = base.nodes().map(|_| rng.gen_range_incl(1..=max_vw) as i64);
    b.vertex_weights(vwgt.collect());
    b.build()
}

/// The pinned graph families, by name.
fn graphs() -> Vec<(String, Graph)> {
    let mut out = Vec::new();
    for n in [32, 64, 96] {
        out.push((format!("hex_grid_n({n})"), generators::hex_grid_n(n)));
    }
    out.push(("hex_grid(128, 128)".into(), generators::hex_grid(128, 128)));
    out.push(("torus(40, 40)".into(), generators::torus(40, 40)));
    for (n, seed) in [(32, 0), (32, 1), (64, 0), (64, 1)] {
        out.push((
            format!("thesis_random_graph({n}, {seed})"),
            generators::thesis_random_graph(n, seed),
        ));
    }
    for (n, avg, seed) in [
        (40, 3.5, 1),
        (97, 3.0, 2),
        (2000, 3.5, 3),
        (3000, 4.0, 4),
        (4500, 3.0, 5),
    ] {
        out.push((
            format!("random_connected({n}, {avg}, 10, {seed})"),
            generators::random_connected(n, avg, 10, seed),
        ));
    }
    // Weighted inputs. Heavy edges put the finest level's gains out of the
    // narrow range; unit edges under unequal vertex weights keep them in it
    // while moves must pass a per-vertex balance test.
    for (name, base, max_ew, max_vw, seed) in [
        ("hex_grid(64, 64)", generators::hex_grid(64, 64), 9, 4, 7),
        ("hex_grid(96, 96)", generators::hex_grid(96, 96), 1, 3, 8),
        ("hex_grid(80, 80)", generators::hex_grid(80, 80), 2, 1, 9),
        (
            "random_connected(3000, 3.5, 10, 6)",
            generators::random_connected(3000, 3.5, 10, 6),
            2,
            5,
            10,
        ),
        (
            "random_connected(2500, 3, 10, 7)",
            generators::random_connected(2500, 3.0, 10, 7),
            40,
            2,
            11,
        ),
    ] {
        out.push((
            format!("reweighted({name}, {max_ew}, {max_vw}, {seed})"),
            reweighted(&base, max_ew, max_vw, seed),
        ));
    }
    out
}

#[rustfmt::skip]
const PINNED: &[(&str, usize, u64)] = &[
    ("hex_grid_n(32)", 2, 0x9401781e53810435),
    ("hex_grid_n(32)", 8, 0xb18e54e68d5f5665),
    ("hex_grid_n(32)", 16, 0x49f977b9a05a9f51),
    ("hex_grid_n(64)", 2, 0x9363ae6e3f93fedf),
    ("hex_grid_n(64)", 8, 0x92eee165e72e157f),
    ("hex_grid_n(64)", 16, 0xb60ddf0efcd2e61e),
    ("hex_grid_n(96)", 2, 0xaab398cb1538e2ae),
    ("hex_grid_n(96)", 8, 0xd66c6290652265e0),
    ("hex_grid_n(96)", 16, 0xa07398d5e9ec76d1),
    ("hex_grid(128, 128)", 2, 0xc15924320c11db67),
    ("hex_grid(128, 128)", 8, 0x4741d5b94674f372),
    ("hex_grid(128, 128)", 16, 0x9f007b2c8dd8dbf8),
    ("torus(40, 40)", 2, 0x921c1d423d4b3193),
    ("torus(40, 40)", 8, 0xc0474056fd1120cd),
    ("torus(40, 40)", 16, 0xbc09713f76ba63ff),
    ("thesis_random_graph(32, 0)", 2, 0x4109d913da14785d),
    ("thesis_random_graph(32, 0)", 8, 0x27067f684a211bbf),
    ("thesis_random_graph(32, 0)", 16, 0x17c429e1ce3cf1f0),
    ("thesis_random_graph(32, 1)", 2, 0x49a7c1bcd1d80e22),
    ("thesis_random_graph(32, 1)", 8, 0x0bade3615b443323),
    ("thesis_random_graph(32, 1)", 16, 0xecbb145cc8893ddd),
    ("thesis_random_graph(64, 0)", 2, 0x3d191de4d335b052),
    ("thesis_random_graph(64, 0)", 8, 0xc8461ee304b90d56),
    ("thesis_random_graph(64, 0)", 16, 0x3eefd48ca2717bac),
    ("thesis_random_graph(64, 1)", 2, 0x6dcf5e82af2d08d5),
    ("thesis_random_graph(64, 1)", 8, 0xead6403988ac0f6e),
    ("thesis_random_graph(64, 1)", 16, 0x3f90dd8ee5c55c36),
    ("random_connected(40, 3.5, 10, 1)", 2, 0xb3d63122416ee024),
    ("random_connected(40, 3.5, 10, 1)", 8, 0x33d093c98d3e0a41),
    ("random_connected(40, 3.5, 10, 1)", 16, 0x70ddce699025d096),
    ("random_connected(97, 3, 10, 2)", 2, 0xd9757659cee08590),
    ("random_connected(97, 3, 10, 2)", 8, 0xb94d5bdb81dc175d),
    ("random_connected(97, 3, 10, 2)", 16, 0xdcc43560c09cb8bd),
    ("random_connected(2000, 3.5, 10, 3)", 2, 0xe20178182abc6f41),
    ("random_connected(2000, 3.5, 10, 3)", 8, 0x662177c4e101f8f3),
    ("random_connected(2000, 3.5, 10, 3)", 16, 0xdfdd6dd1a2c0bc74),
    ("random_connected(3000, 4, 10, 4)", 2, 0xb1f53c8ed586b978),
    ("random_connected(3000, 4, 10, 4)", 8, 0x0ff4d92b2c740845),
    ("random_connected(3000, 4, 10, 4)", 16, 0xb3b98161ef3768fc),
    ("random_connected(4500, 3, 10, 5)", 2, 0xee2e3f48cee828d2),
    ("random_connected(4500, 3, 10, 5)", 8, 0x2be7a7812bc1dc91),
    ("random_connected(4500, 3, 10, 5)", 16, 0x0ddf11f9a48527e6),
    ("reweighted(hex_grid(64, 64), 9, 4, 7)", 2, 0xf3b86452b1f3a5d3),
    ("reweighted(hex_grid(64, 64), 9, 4, 7)", 8, 0x9e226c3dc2f077c4),
    ("reweighted(hex_grid(64, 64), 9, 4, 7)", 16, 0xddf0677531da064f),
    ("reweighted(hex_grid(96, 96), 1, 3, 8)", 2, 0xdc73378a8ac40cd8),
    ("reweighted(hex_grid(96, 96), 1, 3, 8)", 8, 0xf63d8e45e0f20594),
    ("reweighted(hex_grid(96, 96), 1, 3, 8)", 16, 0x7d3ff54c487cbbd1),
    ("reweighted(hex_grid(80, 80), 2, 1, 9)", 2, 0x6c3d5d605fdc7a0f),
    ("reweighted(hex_grid(80, 80), 2, 1, 9)", 8, 0x66f30bd637a507d2),
    ("reweighted(hex_grid(80, 80), 2, 1, 9)", 16, 0x6dc75b0ab37ced8e),
    ("reweighted(random_connected(3000, 3.5, 10, 6), 2, 5, 10)", 2, 0xfaa373dfc361c7e2),
    ("reweighted(random_connected(3000, 3.5, 10, 6), 2, 5, 10)", 8, 0x2110f779415ba2bd),
    ("reweighted(random_connected(3000, 3.5, 10, 6), 2, 5, 10)", 16, 0xec4226305a24a53d),
    ("reweighted(random_connected(2500, 3, 10, 7), 40, 2, 11)", 2, 0x5872acd8e65ddee4),
    ("reweighted(random_connected(2500, 3, 10, 7), 40, 2, 11)", 8, 0xbe2c4eba5edd5916),
    ("reweighted(random_connected(2500, 3, 10, 7), 40, 2, 11)", 16, 0x5bb177241687ce6d),
];

#[test]
fn metis_partitions_are_pinned() {
    let mut table = String::new();
    let mut mismatches = 0;
    let mut checked = 0;
    for (name, g) in graphs() {
        for k in [2, 8, 16] {
            let part = Metis::default().partition(&g, k);
            assert!(
                part.counts().iter().all(|&c| c > 0),
                "{name}, k = {k}: a part is empty"
            );
            let h = fnv1a(part.as_slice());
            table += &format!("    (\"{name}\", {k}, {h:#018x}),\n");
            let want = PINNED.iter().find(|&&(n, pk, _)| n == name && pk == k);
            match want {
                Some(&(_, _, w)) => {
                    checked += 1;
                    if w != h {
                        mismatches += 1;
                    }
                }
                None => mismatches += 1,
            }
        }
    }
    assert!(
        mismatches == 0 && checked == PINNED.len(),
        "{mismatches} partition hashes differ from the pinned ones; computed:\n{table}"
    );
}

#[test]
#[ignore = "262 144 nodes: run in release"]
fn metis_hex_512_by_512_is_pinned() {
    let g = generators::hex_grid(512, 512);
    assert_eq!(hash(&g, 16), 0x18d8_2514_1d56_f0f2);
}

/// Each pinned case's edge cut and heaviest part load, `(name, k, cut,
/// heaviest)`, computed at commit `92a63aa`, before boundary FM: the floor
/// [`metis_quality_holds_its_floor`] holds the partitioner to.
#[rustfmt::skip]
const QUALITY: &[(&str, usize, i64, i64)] = &[
    ("hex_grid_n(32)", 2, 7, 16),
    ("hex_grid_n(32)", 8, 33, 4),
    ("hex_grid_n(32)", 16, 49, 3),
    ("hex_grid_n(64)", 2, 15, 32),
    ("hex_grid_n(64)", 8, 57, 8),
    ("hex_grid_n(64)", 16, 81, 5),
    ("hex_grid_n(96)", 2, 15, 50),
    ("hex_grid_n(96)", 8, 66, 13),
    ("hex_grid_n(96)", 16, 105, 7),
    ("hex_grid(128, 128)", 2, 407, 8602),
    ("hex_grid(128, 128)", 8, 1005, 2108),
    ("hex_grid(128, 128)", 16, 1588, 1076),
    ("torus(40, 40)", 2, 84, 811),
    ("torus(40, 40)", 8, 257, 210),
    ("torus(40, 40)", 16, 353, 105),
    ("thesis_random_graph(32, 0)", 2, 13, 16),
    ("thesis_random_graph(32, 0)", 8, 36, 4),
    ("thesis_random_graph(32, 0)", 16, 44, 3),
    ("thesis_random_graph(32, 1)", 2, 13, 17),
    ("thesis_random_graph(32, 1)", 8, 36, 5),
    ("thesis_random_graph(32, 1)", 16, 45, 3),
    ("thesis_random_graph(64, 0)", 2, 26, 33),
    ("thesis_random_graph(64, 0)", 8, 55, 9),
    ("thesis_random_graph(64, 0)", 16, 75, 5),
    ("thesis_random_graph(64, 1)", 2, 22, 34),
    ("thesis_random_graph(64, 1)", 8, 56, 9),
    ("thesis_random_graph(64, 1)", 16, 71, 5),
    ("random_connected(40, 3.5, 10, 1)", 2, 14, 21),
    ("random_connected(40, 3.5, 10, 1)", 8, 33, 5),
    ("random_connected(40, 3.5, 10, 1)", 16, 45, 3),
    ("random_connected(97, 3, 10, 2)", 2, 21, 51),
    ("random_connected(97, 3, 10, 2)", 8, 43, 13),
    ("random_connected(97, 3, 10, 2)", 16, 59, 7),
    ("random_connected(2000, 3.5, 10, 3)", 2, 595, 1050),
    ("random_connected(2000, 3.5, 10, 3)", 8, 1026, 258),
    ("random_connected(2000, 3.5, 10, 3)", 16, 1189, 132),
    ("random_connected(3000, 4, 10, 4)", 2, 1128, 1575),
    ("random_connected(3000, 4, 10, 4)", 8, 2028, 394),
    ("random_connected(3000, 4, 10, 4)", 16, 2344, 197),
    ("random_connected(4500, 3, 10, 5)", 2, 895, 2363),
    ("random_connected(4500, 3, 10, 5)", 8, 1554, 591),
    ("random_connected(4500, 3, 10, 5)", 16, 1783, 296),
    ("reweighted(hex_grid(64, 64), 9, 4, 7)", 2, 483, 5375),
    ("reweighted(hex_grid(64, 64), 9, 4, 7)", 8, 1947, 1342),
    ("reweighted(hex_grid(64, 64), 9, 4, 7)", 16, 2914, 672),
    ("reweighted(hex_grid(96, 96), 1, 3, 8)", 2, 207, 9719),
    ("reweighted(hex_grid(96, 96), 1, 3, 8)", 8, 759, 2430),
    ("reweighted(hex_grid(96, 96), 1, 3, 8)", 16, 1199, 1215),
    ("reweighted(hex_grid(80, 80), 2, 1, 9)", 2, 252, 3360),
    ("reweighted(hex_grid(80, 80), 2, 1, 9)", 8, 816, 833),
    ("reweighted(hex_grid(80, 80), 2, 1, 9)", 16, 1314, 420),
    ("reweighted(random_connected(3000, 3.5, 10, 6), 2, 5, 10)", 2, 1193, 4771),
    ("reweighted(random_connected(3000, 3.5, 10, 6), 2, 5, 10)", 8, 2007, 1193),
    ("reweighted(random_connected(3000, 3.5, 10, 6), 2, 5, 10)", 16, 2244, 597),
    ("reweighted(random_connected(2500, 3, 10, 7), 40, 2, 11)", 2, 8984, 1946),
    ("reweighted(random_connected(2500, 3, 10, 7), 40, 2, 11)", 8, 11009, 487),
    ("reweighted(random_connected(2500, 3, 10, 7), 40, 2, 11)", 16, 12667, 244),
];

/// The summed cut of [`QUALITY`].
const QUALITY_CUT: i64 = 65_366;

/// A later speed-up must not trade cut for time unnoticed: the summed cut
/// over the pinned cases stays at or below the floor's, and no case's
/// heaviest part grows past both the floor's and `kway_refine`'s cap,
/// `⌈ideal · (1 + ε)⌉`.
#[test]
fn metis_quality_holds_its_floor() {
    let metis = Metis::default();
    let mut report = String::new();
    let mut heavy = 0;
    let mut cut_sum = 0;
    for (name, g) in graphs() {
        for k in [2, 8, 16] {
            let part = metis.partition(&g, k);
            let cut = metrics::edge_cut(&g, &part);
            let heaviest = part.loads(&g).into_iter().max().unwrap_or(0);
            let &(_, _, _, floor) = QUALITY
                .iter()
                .find(|&&(n, qk, _, _)| n == name && qk == k)
                .expect("every pinned case has a floor");
            let ideal = g.total_vertex_weight() as f64 / k as f64;
            let cap = (ideal * (1.0 + metis.imbalance)).ceil() as i64;
            if heaviest > floor.max(cap) {
                heavy += 1;
            }
            report += &format!("    (\"{name}\", {k}, {cut}, {heaviest}), // cap {cap}\n");
            cut_sum += cut;
        }
    }
    assert_eq!(QUALITY.iter().map(|q| q.2).sum::<i64>(), QUALITY_CUT);
    assert!(
        heavy == 0 && cut_sum <= QUALITY_CUT,
        "{heavy} heaviest parts over the floor, summed cut {cut_sum} against \
         {QUALITY_CUT}; computed:\n{report}"
    );
}
