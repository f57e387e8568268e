//! Ablation benches for the design choices DESIGN.md calls out. These
//! measure the simulator's real-time cost of each configuration; the
//! *virtual-time* effect of each choice (what the thesis would measure) is
//! reported by `repro ablations`.

use ic2_bench::harness::{bench, header};
use ic2mpi::prelude::*;
use ic2mpi::NodeTable;
use std::hint::black_box;

/// Figure 8 vs Figure 8a: post-communication vs overlapped exchange.
fn ablation_overlap() {
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    header("ablation_overlap");
    for (name, mode) in [
        ("postcomm", ExchangeMode::PostComm),
        ("overlap", ExchangeMode::Overlap),
    ] {
        bench(name, 10, || {
            run(
                &graph,
                &program,
                &Metis::default(),
                || NoBalancer,
                &RunConfig::new(8, 20).with_exchange(mode),
            )
        });
    }
}

/// Balancer threshold sensitivity (thesis fixes 25%).
fn ablation_threshold() {
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::persistent();
    header("ablation_threshold");
    for (name, threshold) in [("t10", 0.10), ("t25", 0.25), ("t50", 0.50)] {
        bench(name, 10, || {
            run(
                &graph,
                &program,
                &Metis::default(),
                || Diffusion { threshold },
                &RunConfig::new(8, 25)
                    .with_balancing(10)
                    .with_balance_offset(5)
                    .with_migration_batch(8)
                    .with_migrant_policy(MigrantPolicy::LoadAware),
            )
        });
    }
}

/// One task per pair per round (thesis) vs multi-task batches (§7).
fn ablation_batch() {
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::persistent();
    header("ablation_batch");
    for (name, batch) in [("batch1", 1u32), ("batch4", 4), ("batch12", 12)] {
        bench(name, 10, || {
            run(
                &graph,
                &program,
                &Metis::default(),
                || Diffusion { threshold: 0.10 },
                &RunConfig::new(8, 25)
                    .with_balancing(10)
                    .with_balance_offset(5)
                    .with_migration_batch(batch)
                    .with_migrant_policy(MigrantPolicy::LoadAware),
            )
        });
    }
}

/// The [PSC95] claim behind the thesis's hash table: bucketed access vs a
/// linear scan of the data-node list. The table is filled the way the
/// platform fills it — one bulk fill, which cuts the bucket ranges.
fn ablation_hashtab() {
    let n = 1024u32;
    header("ablation_hashtab");
    let ids: Vec<u32> = (0..n).collect();
    for buckets in [1usize, 10, 64, 512] {
        let mut table = NodeTable::new(buckets);
        table.append_ascending(&ids, |id| id as i64);
        bench(&format!("lookup_1024_buckets{buckets}"), 100, || {
            let mut acc = 0i64;
            for id in 0..n {
                acc += *table.get(black_box(id)).unwrap();
            }
            acc
        });
    }
    // The true linear-scan baseline: an unindexed data-node list.
    let list: Vec<(u32, i64)> = (0..n).map(|id| (id, id as i64)).collect();
    bench("lookup_1024_linear_scan", 100, || {
        let mut acc = 0i64;
        for id in 0..n {
            acc += list.iter().find(|(k, _)| *k == black_box(id)).unwrap().1;
        }
        acc
    });
}

fn main() {
    ablation_overlap();
    ablation_threshold();
    ablation_batch();
    ablation_hashtab();
}
