//! Ablation benches for the design choices DESIGN.md calls out. These
//! measure the simulator's real-time cost of each configuration; the
//! *virtual-time* effect of each choice (what the thesis would measure) is
//! reported by `repro ablations`.

use ic2_bench::harness::{bench, header};
use ic2mpi::prelude::*;

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

fn main() {
    ablation_overlap();
    ablation_threshold();
    ablation_batch();
}
