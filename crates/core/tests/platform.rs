//! End-to-end platform tests: the parallel execution must compute exactly
//! what the sequential program computes, for every partitioner, processor
//! count, exchange mode, and with dynamic migration active.

use ic2mpi::prelude::*;
use ic2mpi::seq;
use mpisim::NetModel;
use std::time::Duration;

fn cfg(nprocs: usize, iters: u32) -> RunConfig {
    RunConfig::new(nprocs, iters)
        .with_world(
            mpisim::Config::virtual_time(NetModel::origin2000())
                .with_watchdog(Duration::from_secs(15)),
        )
        .with_validation()
}

#[test]
fn matches_sequential_on_hex_grids() {
    for n in [32, 64] {
        let graph = ic2_graph::generators::hex_grid_n(n);
        let program = AvgProgram::fine();
        let oracle = seq::run_sequential(&graph, &program, 20);
        for procs in [1, 2, 4, 8] {
            let report = run(
                &graph,
                &program,
                &Metis::default(),
                || NoBalancer,
                &cfg(procs, 20),
            );
            assert_eq!(report.final_data, oracle, "{n} nodes on {procs} procs");
        }
    }
}

#[test]
fn matches_sequential_on_random_graphs() {
    for seed in 0..3 {
        let graph = ic2_graph::generators::thesis_random_graph(64, seed);
        let program = AvgProgram::fine();
        let oracle = seq::run_sequential(&graph, &program, 15);
        let report = run(
            &graph,
            &program,
            &Metis::default(),
            || NoBalancer,
            &cfg(8, 15),
        );
        assert_eq!(report.final_data, oracle, "seed {seed}");
    }
}

#[test]
fn matches_sequential_with_overlap_exchange() {
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    let oracle = seq::run_sequential(&graph, &program, 20);
    let config = cfg(8, 20).with_exchange(ExchangeMode::Overlap);
    let report = run(&graph, &program, &Metis::default(), || NoBalancer, &config);
    assert_eq!(report.final_data, oracle);
}

#[test]
fn matches_sequential_under_dynamic_migration() {
    // The shifting-window load forces migrations; results must still be
    // bit-identical to sequential execution.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::shifting();
    let oracle = seq::run_sequential(&graph, &program, 25);
    let config = cfg(8, 25).with_balancing(10);
    // A tight threshold so the shifting hot window reliably fires the
    // balancer regardless of which (valid) partition Metis happens to pick.
    let report = run(
        &graph,
        &program,
        &Metis::default(),
        || CentralizedHeuristic { threshold: 0.05 },
        &config,
    );
    assert_eq!(report.final_data, oracle);
    assert!(
        report.migrations > 0,
        "shifting load must trigger at least one migration"
    );
    // The owner map moved away from the initial partition — at most one
    // node a migration — and no rank wrote through to the shared array the
    // run started from.
    let initial = &report.initial_partition;
    let moved = |(a, b): &(&u32, &u32)| a != b;
    let moves = (report.final_owner.iter().zip(initial.as_slice())).filter(moved);
    assert!((1..=report.migrations).contains(&moves.count()));
    assert_eq!(*initial, Metis::default().partition(&graph, 8));
}

#[test]
fn every_partitioner_plugin_runs_unmodified() {
    use ic2_partition::bands::{ColumnBand, RectangularBand, RowBand};
    use ic2_partition::graycode::GrayCodeBf;
    use ic2_partition::simple::{BlockPartition, RoundRobin};

    let graph = ic2_graph::generators::hex_grid(8, 8);
    let program = AvgProgram::fine();
    let oracle = seq::run_sequential(&graph, &program, 10);
    let partitioners: Vec<Box<dyn ic2_partition::StaticPartitioner + Sync>> = vec![
        Box::new(Metis::default()),
        Box::new(PaGrid::default()),
        Box::new(RowBand),
        Box::new(ColumnBand),
        Box::new(RectangularBand),
        Box::new(GrayCodeBf),
        Box::new(RoundRobin),
        Box::new(BlockPartition),
    ];
    for p in &partitioners {
        let report = run(&graph, &program, p.as_ref(), || NoBalancer, &cfg(4, 10));
        assert_eq!(report.final_data, oracle, "partitioner {}", p.name());
    }
}

#[test]
fn virtual_time_is_deterministic() {
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::shifting();
    let config = cfg(8, 25).with_balancing(10);
    let a = run(
        &graph,
        &program,
        &Metis::default(),
        CentralizedHeuristic::default,
        &config,
    );
    let b = run(
        &graph,
        &program,
        &Metis::default(),
        CentralizedHeuristic::default,
        &config,
    );
    assert_eq!(a.total_time, b.total_time);
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.migrations, b.migrations);
    assert_eq!(a.final_owner, b.final_owner);
}

#[test]
fn parallel_runs_are_faster_than_one_processor() {
    let graph = ic2_graph::generators::hex_grid_n(96);
    let program = AvgProgram::coarse();
    let t1 = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(1, 20),
    )
    .total_time;
    let t8 = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(8, 20),
    )
    .total_time;
    let speedup = t1 / t8;
    assert!(
        speedup > 3.0,
        "coarse grain on 8 procs should speed up well, got {speedup:.2}"
    );
}

#[test]
fn dynamic_balancing_beats_static_under_persistent_imbalance() {
    // The core claim of Figures 13-15 ("there's no way a static graph
    // partitioner can capture varying load requirements"), demonstrated
    // where the migration machinery has a chance: a runtime hot region
    // that persists longer than the correction latency. (Under the
    // Figure-23 *shifting* window the single-task corrections always lag
    // one window behind — see EXPERIMENTS.md.)
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::persistent();
    for procs in [4, 8] {
        let static_t = run(
            &graph,
            &program,
            &Metis::default(),
            || NoBalancer,
            &cfg(procs, 25),
        )
        .total_time;
        let dynamic_cfg = cfg(procs, 25)
            .with_balancing(10)
            .with_balance_offset(5)
            .with_migration_batch(12)
            .with_migrant_policy(ic2mpi::MigrantPolicy::LoadAware);
        let dynamic = run(
            &graph,
            &program,
            &Metis::default(),
            || Diffusion { threshold: 0.10 },
            &dynamic_cfg,
        );
        assert!(
            dynamic.total_time < static_t * 0.9,
            "procs {procs}: dynamic {:.4}s should clearly beat static {static_t:.4}s",
            dynamic.total_time
        );
        assert!(dynamic.migrations > 0);
        // And the computation must still be exact.
        let oracle = seq::run_sequential(&graph, &program, 25);
        assert_eq!(dynamic.final_data, oracle);
    }
}

#[test]
fn phase_timers_cover_all_activity() {
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    let report = run(
        &graph,
        &program,
        &Metis::default(),
        CentralizedHeuristic::default,
        &cfg(4, 35).with_balancing(10),
    );
    for (r, timers) in report.timers.iter().enumerate() {
        assert!(timers.get(ic2mpi::Phase::Compute) > 0.0, "rank {r} compute");
        assert!(
            timers.get(ic2mpi::Phase::Initialization) > 0.0,
            "rank {r} init"
        );
        assert!(
            timers.get(ic2mpi::Phase::Communicate) > 0.0,
            "rank {r} communicate"
        );
        assert!(
            timers.get(ic2mpi::Phase::LoadBalancing) > 0.0,
            "rank {r} load balancing"
        );
        // The phase breakdown must roughly reconstruct the rank's total
        // virtual time (loop phases + init; gather at the end is untimed).
        assert!(timers.total() <= report.total_time * 1.01);
    }
}

#[test]
fn comm_stats_reflect_partition_quality() {
    let graph = ic2_graph::generators::hex_grid(8, 8);
    let program = AvgProgram::fine();
    let metis = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(4, 10),
    );
    let rr = run(
        &graph,
        &program,
        &ic2_partition::simple::RoundRobin,
        || NoBalancer,
        &cfg(4, 10),
    );
    let metis_bytes: u64 = metis.comm.iter().map(|c| c.bytes_sent).sum();
    let rr_bytes: u64 = rr.comm.iter().map(|c| c.bytes_sent).sum();
    assert!(
        metis_bytes * 2 < rr_bytes,
        "metis {metis_bytes}B should send far less than round-robin {rr_bytes}B"
    );
}

#[test]
fn single_processor_has_no_communication() {
    let graph = ic2_graph::generators::hex_grid_n(32);
    let program = AvgProgram::fine();
    let report = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(1, 10),
    );
    // Barrier traffic aside, no shadow bytes move.
    assert_eq!(report.comm[0].bytes_sent, 0);
    assert_eq!(report.migrations, 0);
}

#[test]
fn more_processors_than_useful_still_correct() {
    let graph = ic2_graph::generators::hex_grid(2, 4);
    let program = AvgProgram::fine();
    let oracle = seq::run_sequential(&graph, &program, 5);
    let report = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(8, 5),
    );
    assert_eq!(report.final_data, oracle);
}

#[test]
fn overlap_mode_beats_postcomm_on_slow_networks() {
    // Figure 8a's entire point: hide shadow-exchange latency behind
    // internal-node compute. On a WAN-like network with plenty of
    // internal work the gap must be visible, not just a tie.
    let graph = ic2_graph::generators::hex_grid(8, 8);
    let program = AvgProgram::coarse();
    let world = mpisim::Config::virtual_time(mpisim::NetModel::wan());
    let post = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(4, 15).with_world(world.clone()),
    );
    let overlap = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(4, 15)
            .with_world(world)
            .with_exchange(ExchangeMode::Overlap),
    );
    assert_eq!(post.final_data, overlap.final_data);
    assert!(
        overlap.total_time < post.total_time,
        "overlap {:.4} must beat postcomm {:.4} on a slow network",
        overlap.total_time,
        post.total_time
    );
}
