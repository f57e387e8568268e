//! Randomised tests for the platform core: the node table against a
//! model, store invariants under arbitrary partitions, and parallel ==
//! sequential on arbitrary workloads.
//!
//! Inputs come from the in-tree [`SplitMix64`] generator with fixed seeds,
//! so runs are hermetic and reproducible.

use ic2_graph::{generators, NodeId, Partition};
use ic2_rng::SplitMix64;
use ic2mpi::prelude::*;
use ic2mpi::{seq, NodeStore, NodeTable, Unsorted};
use std::collections::BTreeMap;
use std::time::Duration;

/// What the table model keeps per stored id.
#[derive(Debug, Clone, Copy)]
struct Stored {
    cur: i64,
    staged: Option<i64>,
    readable: bool,
}

/// A page out of the table: its image and the model entries it holds.
type OutPage = (Vec<u8>, Vec<(NodeId, Stored)>);

/// The page the model's cuts put `id` on.
fn page_of(firsts: &[NodeId], id: NodeId) -> usize {
    firsts.partition_point(|&first| first <= id) - 1
}

/// The table shows exactly the model: every id, what reads, and where the
/// pages fall.
fn assert_table_is(table: &NodeTable<i64>, model: &BTreeMap<NodeId, Stored>, firsts: &[NodeId]) {
    assert_eq!(table.len(), model.len());
    let readable = model.iter().filter(|(_, s)| s.readable);
    assert!(table
        .iter()
        .map(|(id, &d)| (id, d))
        .eq(readable.map(|(&id, s)| (id, s.cur))));
    for (&id, s) in model {
        assert_eq!(table.get(id), s.readable.then_some(&s.cur), "node {id}");
        if let Some(slot) = table.slot_of(id) {
            assert_eq!(table.page_of(slot), page_of(firsts, id), "node {id}");
        }
    }
    for b in 0..table.page_count() {
        let end = |b: usize| firsts.get(b + 1).map_or(NodeId::MAX, |next| next - 1);
        assert_eq!(table.page_range(b), firsts.get(b).map(|&f| (f, end(b))));
    }
}

#[test]
fn node_table_matches_hashmap_model() {
    let mut rng = SplitMix64::new(0xC0DE1);
    for pages in [1, 10, 64, 512] {
        for _ in 0..40 {
            let mut table: NodeTable<i64> = NodeTable::new(pages);
            let mut model: BTreeMap<NodeId, Stored> = BTreeMap::new();
            let mut firsts: Vec<NodeId> = vec![0];
            let mut out: BTreeMap<usize, OutPage> = BTreeMap::new();
            for _ in 0..rng.gen_range(1..100) {
                let (id, v) = (rng.gen_range(0..200) as NodeId, rng.next_u64() as i64);
                let b = page_of(&firsts, id);
                let on_page = |model: &BTreeMap<NodeId, Stored>| -> Vec<NodeId> {
                    let ids = model.keys().copied();
                    ids.filter(|&w| page_of(&firsts, w) == b).collect()
                };
                match rng.gen_range(0..10) {
                    0..=2 => {
                        let len = rng.gen_range(0..24);
                        let mut run: Vec<(NodeId, i64)> = (0..len)
                            .map(|_| (rng.gen_range(0..200) as NodeId, rng.next_u64() as i64))
                            .collect();
                        if rng.chance(0.1) && !run.is_sorted_by_key(|e| e.0) {
                            let refused = table.merge(run);
                            assert!(matches!(refused, Err(Unsorted { .. })));
                            continue;
                        }
                        run.sort_by_key(|e| e.0);
                        let first_fill = model.is_empty();
                        table.merge(run.clone()).unwrap();
                        for (id, cur) in run {
                            let fresh = Stored {
                                cur,
                                staged: None,
                                readable: true,
                            };
                            let stored = model.entry(id).or_insert(fresh);
                            if !stored.readable {
                                *stored = fresh;
                            }
                            stored.cur = cur;
                        }
                        if first_fill && !model.is_empty() {
                            let ids: Vec<NodeId> = model.keys().copied().collect();
                            let (n, ranges) = (ids.len(), pages.min(ids.len()));
                            let cuts = (1..ranges).map(|b| ids[(b * n).div_ceil(ranges)]);
                            firsts = std::iter::once(0).chain(cuts).collect();
                        }
                    }
                    3 => {
                        let readable = model.get(&id).is_some_and(|s| s.readable);
                        assert_eq!(table.set_current(id, v), readable);
                        if readable {
                            model.entry(id).and_modify(|s| s.cur = v);
                        }
                    }
                    4 => {
                        let slot = table.slot_of(id);
                        assert_eq!(slot.is_some(), model.get(&id).is_some_and(|s| s.readable));
                        if let Some(slot) = slot {
                            assert!(table.stage_at(slot, id, v));
                            model.entry(id).and_modify(|s| s.staged = Some(v));
                        }
                    }
                    5 => {
                        let promoted = table.promote(0..table.len(), |_, _| {});
                        let mut expected = 0;
                        for s in model.values_mut().filter(|s| s.readable) {
                            if let Some(next) = s.staged.take() {
                                (s.cur, expected) = (next, expected + 1);
                            }
                        }
                        assert_eq!(promoted, expected);
                    }
                    6..=8 => match out.remove(&b) {
                        Some((image, held)) => {
                            assert!(table.decode_page(b, &image), "page {b} in");
                            model.extend(held);
                        }
                        None => {
                            let mut image = Vec::new();
                            table.encode_page(b, &mut image);
                            table.page_out(b);
                            let mut held = Vec::new();
                            for w in on_page(&model) {
                                let s = model.get_mut(&w).unwrap();
                                if s.readable {
                                    held.push((w, *s));
                                }
                                s.readable = false;
                            }
                            out.insert(b, (image, held));
                        }
                    },
                    _ if rng.chance(0.1) => {
                        table.clear();
                        (model, firsts) = (BTreeMap::new(), vec![0]);
                        out.clear();
                    }
                    _ => {
                        // Loss: out, and no image to come back from.
                        out.remove(&b);
                        table.page_out(b);
                        for w in on_page(&model) {
                            model.entry(w).and_modify(|s| s.readable = false);
                        }
                    }
                }
                assert_table_is(&table, &model, &firsts);
            }
        }
    }
}

#[test]
fn store_invariants_hold_for_arbitrary_partitions() {
    let mut rng = SplitMix64::new(0xC0DE2);
    for _ in 0..96 {
        let n = rng.gen_range(2..40);
        let k = rng.gen_range(1..6);
        let graph = generators::random_connected(n, 3.0, 10, rng.next_u64());
        let assignment: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k) as u32).collect();
        let partition = Partition::new(assignment, k);
        let program = AvgProgram::fine();
        for rank in 0..k as u32 {
            let store = NodeStore::build(&graph, &partition, rank, &program, 16);
            assert_eq!(store.validate(&graph), Ok(()));
        }
    }
}

#[test]
fn shifting_window_always_heats_half_the_domain() {
    let mut rng = SplitMix64::new(0xC0DE3);
    for _ in 0..96 {
        let num_nodes = rng.gen_range(2..500);
        let iter = rng.gen_range(1..100) as u32;
        let s = ShiftingWindowLoad::default();
        let hot = (0..num_nodes as u32)
            .filter(|&v| s.is_hot(v, num_nodes, iter))
            .count();
        // The band covers 50% of the fraction space; integer rounding may
        // shift by one node.
        let expected = num_nodes as f64 * 0.5;
        assert!(
            (hot as f64 - expected).abs() <= 1.0,
            "hot={hot} of {num_nodes}"
        );
    }
}

#[test]
fn parallel_equals_sequential_on_arbitrary_workloads() {
    let mut rng = SplitMix64::new(0xC0DE4);
    for _ in 0..10 {
        let n = rng.gen_range(4..28);
        let procs = rng.gen_range(1..5);
        let iters = rng.gen_range(1..8) as u32;
        let coarse = rng.chance(0.5);
        let graph = generators::random_connected(n, 3.0, 10, rng.next_u64());
        let program = if coarse {
            AvgProgram::coarse()
        } else {
            AvgProgram::fine()
        };
        let oracle = seq::run_sequential(&graph, &program, iters);
        let cfg = RunConfig::new(procs, iters)
            .with_world(mpisim::Config::default().with_watchdog(Duration::from_secs(10)))
            .with_validation();
        let report = run(&graph, &program, &Metis::default(), || NoBalancer, &cfg);
        assert_eq!(report.final_data, oracle);
    }
}

#[test]
fn migration_preserves_results_for_arbitrary_triggers() {
    let mut rng = SplitMix64::new(0xC0DE5);
    for _ in 0..10 {
        let every = rng.gen_range(1..6) as u32;
        let batch = rng.gen_range(1..6) as u32;
        let threshold = 0.05 + 0.45 * rng.next_f64();
        let graph = generators::hex_grid_n(32);
        let program = AvgProgram::shifting();
        let iters = 12;
        let oracle = seq::run_sequential(&graph, &program, iters);
        let cfg = RunConfig::new(4, iters)
            .with_balancing(every)
            .with_migration_batch(batch)
            .with_migrant_policy(MigrantPolicy::LoadAware)
            .with_world(mpisim::Config::default().with_watchdog(Duration::from_secs(10)))
            .with_validation();
        let report = run(
            &graph,
            &program,
            &Metis::default(),
            || Diffusion { threshold },
            &cfg,
        );
        assert_eq!(report.final_data, oracle);
    }
}
