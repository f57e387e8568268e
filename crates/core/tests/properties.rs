//! Randomised tests for the platform core: the hash table against a
//! model, store invariants under arbitrary partitions, and parallel ==
//! sequential on arbitrary workloads.
//!
//! Inputs come from the in-tree [`SplitMix64`] generator with fixed seeds,
//! so runs are hermetic and reproducible.

use ic2_graph::{generators, Partition};
use ic2_rng::SplitMix64;
use ic2mpi::prelude::*;
use ic2mpi::{seq, NodeStore, NodeTable};
use std::time::Duration;

/// Model-based test operations for the node table.
#[derive(Debug, Clone)]
enum Op {
    Insert(u32, i64),
    SetPending(u32, i64),
    Promote,
    SetCurrent(u32, i64),
}

fn arb_op(rng: &mut SplitMix64) -> Op {
    let k = rng.gen_range(0..40) as u32;
    let v = rng.next_u64() as i64;
    match rng.gen_range(0..4) {
        0 => Op::Insert(k, v),
        1 => Op::SetPending(k, v),
        2 => Op::Promote,
        _ => Op::SetCurrent(k, v),
    }
}

#[test]
fn node_table_matches_hashmap_model() {
    let mut rng = SplitMix64::new(0xC0DE1);
    for _ in 0..96 {
        let buckets = rng.gen_range(1..32);
        let ops: Vec<Op> = (0..rng.gen_range(0..120))
            .map(|_| arb_op(&mut rng))
            .collect();
        let mut table: NodeTable<i64> = NodeTable::new(buckets);
        let mut cur = std::collections::HashMap::new();
        let mut pending = std::collections::HashMap::new();
        // Half the cases start from a bulk fill, so the ops run over cut
        // ranges; the others over the one range of a table never filled.
        if rng.chance(0.5) {
            let filled: Vec<u32> = (0..40).filter(|_| rng.chance(0.4)).collect();
            table.append_ascending(&filled, i64::from);
            cur.extend(filled.iter().map(|&k| (k, i64::from(k))));
        }
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let old = table.insert(k, v);
                    assert_eq!(old, cur.insert(k, v));
                }
                Op::SetPending(k, v) => {
                    if cur.contains_key(&k) {
                        table.set_pending(k, v);
                        pending.insert(k, v);
                    }
                }
                Op::Promote => {
                    let promoted = table.promote_all();
                    assert_eq!(promoted, pending.len());
                    for (k, v) in pending.drain() {
                        cur.insert(k, v);
                    }
                }
                Op::SetCurrent(k, v) => {
                    if cur.contains_key(&k) {
                        table.set_current(k, v);
                        cur.insert(k, v);
                    }
                }
            }
        }
        assert_eq!(table.len(), cur.len());
        for (&k, &v) in &cur {
            assert_eq!(table.get(k), Some(&v));
        }
        for (&k, &v) in &pending {
            assert_eq!(table.pending(k), Some(&v));
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
