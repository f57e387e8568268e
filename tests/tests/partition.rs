//! Partition-tolerance tests: deterministic network partitions, the
//! quorum-gated degraded mode, minority parking, and live rank rejoin.
//!
//! Every scenario must (a) complete, (b) converge byte-identically to the
//! sequential oracle (the heal rollback discards and replays the whole
//! degraded stretch), and (c) be bit-deterministic across same-seed
//! re-runs — including `total_time`, because every cut, detection timeout
//! and replayed iteration is charged to the virtual clock.

use ic2mpi::prelude::*;
use ic2mpi::seq;
use mpisim::{FaultPlan, NetModel};
use std::time::Duration;

fn world(plan: FaultPlan) -> mpisim::Config {
    mpisim::Config::virtual_time(NetModel::origin2000())
        .with_watchdog(Duration::from_secs(30))
        .with_faults(plan)
}

fn clean_world() -> mpisim::Config {
    mpisim::Config::virtual_time(NetModel::origin2000()).with_watchdog(Duration::from_secs(30))
}

/// Fault-plan seed, overridable via `CHAOS_SEED` (see chaos.rs): every
/// assertion here is seed-agnostic, so CI can sweep seeds.
fn chaos_seed(default: u64) -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

#[test]
fn partition_sweep_heals_and_replays_exactly() {
    // A 3-vs-1 partition swept over a (start, duration) grid of the clean
    // run's timeline: wherever the window lands — early (before the first
    // checkpoint commits), mid-run, or overhanging the end of the
    // iteration space — the run must heal, rejoin, and converge to the
    // oracle, twice, bit-identically.
    let graph = ic2_graph::generators::hex_grid_n(16);
    let program = AvgProgram::fine();
    let nprocs = 4;
    let iterations = 6u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let clean_total = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(nprocs, iterations).with_world(clean_world()),
    )
    .total_time;

    // The detection timeout must stay small relative to the window: every
    // cut receive charges one timeout, and a timeout comparable to the
    // window would let the virtual clock overshoot `until` before the
    // first boundary verdict — collapsing the partition into a blip.
    for start in [0.2, 0.45, 0.7] {
        for dur in [0.2, 0.35] {
            let (from, until) = (clean_total * start, clean_total * (start + dur));
            let plan = || {
                FaultPlan::new(chaos_seed(41))
                    .with_partition(vec![vec![0, 1, 2], vec![3]], from, until)
                    .with_detect_timeout(1e-4)
            };
            let cfg = |p| {
                RunConfig::new(nprocs, iterations)
                    .with_checkpointing(2)
                    .with_partition_tolerance()
                    .with_world(world(p))
                    .with_validation()
            };
            let a = run(
                &graph,
                &program,
                &Metis::default(),
                || NoBalancer,
                &cfg(plan()),
            );
            assert_eq!(
                a.final_data, oracle,
                "start {start} dur {dur}: heal + replay must be exact"
            );
            assert!(a.rejoins >= 1, "start {start} dur {dur}: {:?}", a.rejoins);
            assert!(
                a.degraded_iterations > 0,
                "start {start} dur {dur}: the window must be noticed"
            );
            let b = run(
                &graph,
                &program,
                &Metis::default(),
                || NoBalancer,
                &cfg(plan()),
            );
            assert_eq!(a.final_data, b.final_data, "start {start} dur {dur}");
            assert_eq!(a.rejoins, b.rejoins, "start {start} dur {dur}");
            assert_eq!(a.rollbacks, b.rollbacks, "start {start} dur {dur}");
            assert_eq!(a.faults, b.faults, "start {start} dur {dur}");
            assert_eq!(
                a.total_time.to_bits(),
                b.total_time.to_bits(),
                "start {start} dur {dur}: total time must be bit-identical"
            );
        }
    }
}

#[test]
fn quarter_run_partition_rejoins_the_minority() {
    // The acceptance scenario: a 2-group partition spanning well over a
    // quarter of the iteration space. The majority continues degraded, the
    // minority parks, the heal rejoins it with buddy state transfer, and
    // the replayed result is byte-identical to the oracle.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    let nprocs = 8;
    let iterations = 20u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let clean = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(nprocs, iterations).with_world(clean_world()),
    );

    let groups = vec![vec![0, 1, 2, 3, 4, 5], vec![6, 7]];
    let plan = FaultPlan::new(chaos_seed(43))
        .with_partition(groups, clean.total_time * 0.4, clean.total_time * 0.75)
        .with_detect_timeout(5e-4);
    let cfg = RunConfig::new(nprocs, iterations)
        .with_checkpointing(3)
        .with_partition_tolerance()
        .with_world(world(plan))
        .with_validation();
    let report = run(&graph, &program, &Metis::default(), || NoBalancer, &cfg);
    assert_eq!(report.final_data, oracle, "rejoin + replay must be exact");
    assert!(report.rejoins >= 1, "the minority must rejoin");
    assert!(report.degraded_iterations > 0);
    assert_eq!(report.suspected_peak, 2, "both minority ranks suspected");
    assert!(
        report.rejoin_bytes > 0,
        "rejoining ranks re-fetch their checkpoint image from buddies"
    );
    assert!(
        report.iterations_replayed > 0,
        "the degraded stretch is discarded and replayed"
    );
    assert!(report.faults.partition_cuts > 0, "{:?}", report.faults);
    assert!(report.faults.partition_timeouts > 0, "{:?}", report.faults);
    assert!(
        report.total_time > clean.total_time,
        "degradation, parking and replay must cost virtual time"
    );
}

#[test]
fn no_quorum_parks_everyone_until_heal() {
    // A 2-vs-2 split leaves no group with a majority: every rank is
    // suspected, everyone parks (nobody mutates state), and the virtual
    // clock rides detection timeouts until the window closes. The heal
    // then replays everything since the last checkpoint.
    let graph = ic2_graph::generators::hex_grid_n(16);
    let program = AvgProgram::fine();
    let nprocs = 4;
    let iterations = 6u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let clean_total = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(nprocs, iterations).with_world(clean_world()),
    )
    .total_time;

    let plan = || {
        FaultPlan::new(chaos_seed(47))
            .with_partition(
                vec![vec![0, 1], vec![2, 3]],
                clean_total * 0.4,
                clean_total * 0.75,
            )
            .with_detect_timeout(1e-4)
    };
    let cfg = |p| {
        RunConfig::new(nprocs, iterations)
            .with_checkpointing(2)
            .with_partition_tolerance()
            .with_world(world(p))
            .with_validation()
    };
    let a = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(plan()),
    );
    assert_eq!(a.final_data, oracle);
    assert_eq!(a.suspected_peak, 4, "no quorum: every rank is suspected");
    assert!(a.rejoins >= 1);
    assert!(a.degraded_iterations > 0);
    let b = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(plan()),
    );
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
}

#[test]
fn partition_composes_with_crash() {
    // A rank crashes *while the network is partitioned*. Rolling back
    // across an active cut would stall on unreachable buddies, so the
    // crash is deferred: the heal rollback adopts the dead rank's nodes
    // out of the buddy copy along with rejoining the parked minority.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    let nprocs = 8;
    let iterations = 14u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let clean_total = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(nprocs, iterations).with_world(clean_world()),
    )
    .total_time;

    let plan = || {
        FaultPlan::new(chaos_seed(53))
            .with_partition(
                vec![vec![0, 1, 2, 3, 4, 5], vec![6, 7]],
                clean_total * 0.45,
                clean_total * 0.75,
            )
            .with_crash(2, clean_total * 0.55)
            .with_detect_timeout(5e-4)
    };
    let cfg = |p| {
        RunConfig::new(nprocs, iterations)
            .with_checkpointing(3)
            .with_partition_tolerance()
            .with_world(world(p))
            .with_validation()
    };
    let a = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(plan()),
    );
    assert_eq!(
        a.final_data, oracle,
        "deferred crash recovery must be exact"
    );
    assert!(a.rejoins >= 1, "the minority must still rejoin");
    assert!(a.rollbacks >= 1, "the crash must eventually roll back");
    assert!(a.ranks_died.contains(&2), "{:?}", a.ranks_died);
    assert!(!a.final_owner.contains(&2), "a crashed rank owns nothing");
    let b = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(plan()),
    );
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
}

#[test]
fn partition_composes_with_delta_exchange_and_balancing() {
    // Delta shadow exchange, periodic balancing and a partition in one
    // run: suppressed clean-node traffic and migration both replay
    // deterministically through the heal rollback.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::shifting();
    let nprocs = 8;
    let iterations = 20u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let clean_total = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(nprocs, iterations).with_world(clean_world()),
    )
    .total_time;

    let plan = || {
        FaultPlan::new(chaos_seed(59))
            .with_partition(
                vec![vec![0, 1, 2, 3, 4, 5, 6], vec![7]],
                clean_total * 0.5,
                clean_total * 0.8,
            )
            .with_detect_timeout(5e-4)
    };
    let cfg = |p| {
        RunConfig::new(nprocs, iterations)
            .with_balancing(10)
            .with_checkpointing(4)
            .with_delta_exchange()
            .with_partition_tolerance()
            .with_world(world(p))
            .with_validation()
    };
    let a = run(
        &graph,
        &program,
        &Metis::default(),
        || CentralizedHeuristic { threshold: 0.05 },
        &cfg(plan()),
    );
    assert_eq!(a.final_data, oracle, "delta + balance + partition: exact");
    assert!(a.rejoins >= 1);
    assert!(a.delta_entries_skipped > 0, "delta suppression must engage");
    let b = run(
        &graph,
        &program,
        &Metis::default(),
        || CentralizedHeuristic { threshold: 0.05 },
        &cfg(plan()),
    );
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.migrations, b.migrations);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
}

#[test]
fn partition_blip_rolls_back_without_rejoin() {
    // A window too short to span a detection boundary: frames are lost
    // mid-iteration but by the time the verdict resolves the window has
    // closed, so nobody is suspected. The cut bit piggybacked on the
    // control word still forces a plain rollback of the damaged iteration
    // — no rejoin, no degraded stretch, still oracle-exact.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    let nprocs = 8;
    let iterations = 10u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let clean_total = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(nprocs, iterations).with_world(clean_world()),
    )
    .total_time;

    let iter_span = clean_total / iterations as f64;
    let plan = || {
        FaultPlan::new(chaos_seed(67))
            .with_partition(
                vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]],
                clean_total * 0.42,
                clean_total * 0.42 + iter_span * 0.35,
            )
            .with_detect_timeout(5e-4)
    };
    let cfg = |p| {
        RunConfig::new(nprocs, iterations)
            .with_checkpointing(2)
            .with_partition_tolerance()
            .with_world(world(p))
            .with_validation()
    };
    let a = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(plan()),
    );
    assert_eq!(a.final_data, oracle, "blip rollback must be exact");
    assert!(a.faults.partition_cuts > 0, "the blip must cut frames");
    assert!(a.rollbacks >= 1, "the damaged iteration must be discarded");
    let b = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(plan()),
    );
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.rejoins, b.rejoins);
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
}

/// 64-node hex grid, 8 ranks, 14 iterations of `AvgProgram::fine`, Metis,
/// no balancer, under `cfg`.
fn hex64(cfg: &RunConfig) -> RunReport<i64> {
    let graph = ic2_graph::generators::hex_grid_n(64);
    run(
        &graph,
        &AvgProgram::fine(),
        &Metis::default(),
        || NoBalancer,
        cfg,
    )
}

/// [`hex64`] twice under `cfg(plan())`: oracle-exact, and the rerun equal to
/// the bit in data, fault counters and `total_time`.
fn exact_and_repeatable(
    cfg: impl Fn(FaultPlan) -> RunConfig,
    plan: impl Fn() -> FaultPlan,
) -> RunReport<i64> {
    let graph = ic2_graph::generators::hex_grid_n(64);
    let (a, b) = (hex64(&cfg(plan())), hex64(&cfg(plan())));
    let oracle = seq::run_sequential(&graph, &AvgProgram::fine(), cfg(plan()).iterations);
    assert_eq!(a.final_data, oracle, "must equal the sequential oracle");
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.page_faults, b.page_faults);
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
    a
}

/// Partition-tolerant, checkpoint every 3, validated.
fn tolerant(plan: FaultPlan) -> RunConfig {
    RunConfig::new(8, 14)
        .with_checkpointing(3)
        .with_partition_tolerance()
        .with_world(world(plan))
        .with_validation()
}

fn minority_cut(plan: FaultPlan, from: f64, until: f64) -> FaultPlan {
    plan.with_partition(vec![vec![0, 1, 2, 3, 4, 5], vec![6, 7]], from, until)
        .with_detect_timeout(5e-4)
}

/// When rank 0's first `phase` span of a traced run begins.
fn first_span(report: &RunReport<i64>, phase: &str) -> f64 {
    let events = &report.trace.as_deref().expect("tracing is on")[0].1;
    let start = events.iter().find_map(|e| match e {
        ic2mpi::TraceEvent::Span { name, start, .. } if *name == phase => Some(*start),
        _ => None,
    });
    start.unwrap_or_else(|| panic!("no {phase} span on rank 0"))
}

#[test]
fn partition_composes_with_out_of_core_paging() {
    // Partition tolerance used to pick a driver that never installed a
    // pager, so `with_paging` was silently ignored next to it. In the one
    // engine the layers compose: the minority parks with most of its table
    // on disk, the majority iterates degraded through the buffer pool, the
    // heal restores and re-points every pager, and checkpoints taken while
    // healthy are page-diff images.
    let paged = |plan| {
        tolerant(plan)
            .with_hash_buckets(16)
            .with_paging(4, EvictionPolicy::Sieve)
    };
    let clean = hex64(&paged(FaultPlan::new(1))).total_time;
    let plan = || minority_cut(FaultPlan::new(chaos_seed(97)), clean * 0.4, clean * 0.7);
    let a = exact_and_repeatable(paged, plan);
    assert!(a.page_faults > 0 && a.pages_evicted > 0, "budget must bind");
    assert!(a.rejoins >= 1, "the minority must rejoin");
    assert!(a.degraded_iterations > 0);
}

#[test]
fn partition_opening_inside_a_checkpoint_aborts_it_on_every_rank() {
    // The cut opens at the instant the first checkpoint's staging begins
    // (every clock was just synchronised by the boundary verdict, which
    // resolved a moment earlier and so suspects nobody). Mirrors crossing
    // the cut are lost, so with replication 3 ranks 0, 1, 2, 6 and 7 miss a
    // ward while 3, 4 and 5 stage completely. The commit must still be one
    // decision: if the second group committed alone, the two groups would
    // hold different checkpoints and the heal would roll them back to
    // different iterations.
    let cfg = |plan| tolerant(plan).with_replication(3);
    let seed = || FaultPlan::new(chaos_seed(101));
    let healthy = hex64(&cfg(seed()).with_tracing());
    let staging_begins = first_span(&healthy, "Checkpoint");
    let window = healthy.total_time * 0.3;
    let plan = || minority_cut(seed(), staging_begins, staging_begins + window);
    let a = exact_and_repeatable(cfg, plan);
    assert!(a.faults.partition_cuts > 0, "mirrors must hit the cut");
    assert!(a.rejoins >= 1, "the minority must rejoin");
}

#[test]
fn partition_opening_inside_a_rollback_is_handed_to_the_membership_layer() {
    // Rank 2 crashes; the cut opens at the instant the survivors begin to
    // roll back. Restoring and re-mirroring across the open cut cannot
    // complete, and retrying until the window closes would absorb the whole
    // partition inside the rollback — no degraded stretch, no rejoin, the
    // membership layer never told. The rollback hands the suspecting
    // verdict back instead: the run goes degraded on the checkpoint it
    // still has, and the heal's rollback adopts the crashed rank's nodes.
    let cfg = |plan| tolerant(plan).with_replication(3);
    let crash_at = hex64(&cfg(FaultPlan::new(1))).total_time * 0.45;
    let crash = || FaultPlan::new(chaos_seed(103)).with_crash(2, crash_at);
    let crashed = hex64(&cfg(crash()).with_tracing());
    assert_eq!(crashed.rejoins, 0);
    let rollback_begins = first_span(&crashed, "Recovery");
    let window = crashed.total_time * 0.3;
    let plan = || minority_cut(crash(), rollback_begins, rollback_begins + window);
    let a = exact_and_repeatable(cfg, plan);
    assert_eq!(a.ranks_died, vec![2]);
    assert!(a.degraded_iterations > 0, "the partition must be seen");
    assert!(a.rejoins >= 1, "the minority must rejoin");
}

#[test]
fn partition_blip_inside_a_restore_restarts_the_attempt_on_every_rank() {
    // Rank 6 crashes; its buddy 7 must ship the adopted nodes to survivors
    // across a cut that opens as the rollback begins and closes again before
    // the attempt's closing verdict resolves (one detection timeout later),
    // so nobody is suspected. Only the adopters behind the cut saw their
    // restore fail. They must not be the only ones to go around again: the
    // others would re-mirror against ranks that are back at the census.
    let crash_at = hex64(&tolerant(FaultPlan::new(1))).total_time * 0.45;
    let crash = || {
        FaultPlan::new(chaos_seed(107))
            .with_crash(6, crash_at)
            .with_detect_timeout(5e-4)
    };
    let crashed = hex64(&tolerant(crash()).with_tracing());
    let rollback_begins = first_span(&crashed, "Recovery");
    let plan = || minority_cut(crash(), rollback_begins, rollback_begins + 2e-4);
    let a = exact_and_repeatable(tolerant, plan);
    assert_eq!(a.ranks_died, vec![6]);
    assert!(a.faults.partition_cuts > 0, "the shipment must hit the cut");
    assert_eq!(a.rejoins, 0, "a blip suspects nobody");
}
