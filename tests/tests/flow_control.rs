//! Bounded mailboxes, credit-based flow control, and the flow-control
//! deadlock detector.
//!
//! The capacity sweep's central claim: bounding every mailbox — all the way
//! down to two slots — changes *when* senders run, but not *what* the
//! platform computes or what the virtual clock reads. The bounded exchange
//! drains opportunistically while waiting for credits and charges receipts
//! in canonical order, so results and virtual-time totals are bit-identical
//! to the unbounded run. Credit stalls are counted at their canonical
//! resolution point by the *receiver* — per bounded exchange round,
//! `max(0, frames_present - capacity)` senders must have waited for a
//! slot — so the counts are a pure function of the deterministic message
//! schedule: identical across same-seed runs, monotone non-increasing in
//! capacity, and zero when mailboxes are unbounded.

use ic2_battlefield::{BattlefieldProgram, Scenario};
use ic2mpi::prelude::*;
use ic2mpi::seq;
use mpisim::{FaultPlan, NetModel, RetryPolicy};
use std::time::Duration;

fn vt_world() -> mpisim::Config {
    mpisim::Config::virtual_time(NetModel::origin2000()).with_watchdog(Duration::from_secs(30))
}

#[test]
fn bounded_capacities_match_the_unbounded_run_bit_for_bit() {
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::shifting();
    let cfg = |world| {
        RunConfig::new(8, 20)
            .with_balancing(10)
            .with_world(world)
            .with_validation()
    };
    let baseline = run(
        &graph,
        &program,
        &Metis::default(),
        || CentralizedHeuristic { threshold: 0.05 },
        &cfg(vt_world()),
    );
    assert_eq!(
        baseline.credit_stalls(),
        0,
        "unbounded mailboxes can never stall a sender"
    );
    for cap in [8, 4, 3, 2] {
        let bounded = run(
            &graph,
            &program,
            &Metis::default(),
            || CentralizedHeuristic { threshold: 0.05 },
            &cfg(vt_world().with_mailbox_capacity(cap)),
        );
        assert_eq!(
            bounded.final_data, baseline.final_data,
            "capacity {cap}: no frame may be lost to backpressure"
        );
        assert_eq!(bounded.final_owner, baseline.final_owner, "capacity {cap}");
        assert_eq!(bounded.migrations, baseline.migrations, "capacity {cap}");
        assert_eq!(
            bounded.total_time.to_bits(),
            baseline.total_time.to_bits(),
            "capacity {cap}: the virtual clock must not see the backpressure"
        );
        // Peak depth is still a scheduling phenomenon (unlike the now
        // canonical credit-stall counts) — the control plane bypasses
        // capacity, so no ordering against the unbounded run (or even
        // against `cap`) is deterministic. Only assert that the gauge
        // observed traffic at all.
        assert!(
            bounded.peak_mailbox_depth() > 0,
            "capacity {cap}: messages flowed, the depth gauge must move"
        );
    }
}

#[test]
fn credit_stall_counts_are_canonical() {
    // Dense random graph on 8 ranks: most ranks receive shadow frames
    // from most others every round, so small capacities must overflow.
    // The canonical count is a pure function of (schedule, capacity):
    // same seed → same count, and fewer slots can never mean fewer
    // stalls, because each round contributes max(0, present - capacity).
    let graph = ic2_graph::generators::thesis_random_graph(64, 7);
    let program = AvgProgram::fine();
    let cfg = |cap: Option<usize>| {
        let mut world = vt_world();
        if let Some(c) = cap {
            world = world.with_mailbox_capacity(c);
        }
        RunConfig::new(8, 10).with_world(world)
    };
    let run_cap = |cap| {
        run(
            &graph,
            &program,
            &Metis::default(),
            || NoBalancer,
            &cfg(cap),
        )
    };
    let at2 = run_cap(Some(2));
    let again = run_cap(Some(2));
    assert_eq!(
        at2.credit_stalls(),
        again.credit_stalls(),
        "same seed, same capacity: the canonical count must not wobble"
    );
    let at3 = run_cap(Some(3));
    assert!(
        at2.credit_stalls() > 0,
        "capacity 2 on a dense graph must overflow"
    );
    assert!(
        at2.credit_stalls() >= at3.credit_stalls(),
        "fewer slots cannot mean fewer stalls: {} < {}",
        at2.credit_stalls(),
        at3.credit_stalls()
    );
    assert_eq!(run_cap(None).credit_stalls(), 0);
}

#[test]
fn battlefield_at_capacity_two_is_exact() {
    // The acceptance bar: the thesis battlefield, minimum capacity, no
    // faults — identical data and bit-identical time to the unbounded run.
    let bf = BattlefieldProgram::new(&Scenario::thesis());
    let terrain = bf.terrain();
    let unbounded = run(
        &terrain,
        &bf,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(8, 5).with_world(vt_world()),
    );
    let bounded = run(
        &terrain,
        &bf,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(8, 5).with_world(vt_world().with_mailbox_capacity(2)),
    );
    assert_eq!(bounded.final_data, unbounded.final_data);
    assert_eq!(bounded.total_time.to_bits(), unbounded.total_time.to_bits());
}

#[test]
fn overlap_exchange_is_capacity_oblivious_too() {
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    let cfg = |world| {
        RunConfig::new(8, 15)
            .with_exchange(ExchangeMode::Overlap)
            .with_world(world)
            .with_validation()
    };
    let unbounded = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(vt_world()),
    );
    for cap in [4, 2] {
        let bounded = run(
            &graph,
            &program,
            &Metis::default(),
            || NoBalancer,
            &cfg(vt_world().with_mailbox_capacity(cap)),
        );
        assert_eq!(bounded.final_data, unbounded.final_data, "capacity {cap}");
        assert_eq!(
            bounded.total_time.to_bits(),
            unbounded.total_time.to_bits(),
            "capacity {cap}"
        );
    }
}

#[test]
fn starved_mailboxes_with_corruption_repair_identically() {
    // Corruption faults under starvation: retransmit decisions are pure in
    // the message identity, so the repair traffic — and the virtual time it
    // costs — must be identical at every capacity, including unbounded.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::shifting();
    let oracle = seq::run_sequential(&graph, &program, 15);
    let plan = || FaultPlan::new(77).with_corrupt(0.05).with_truncate(0.02);
    let cfg = |world| RunConfig::new(8, 15).with_world(world).with_validation();
    let unbounded = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(vt_world().with_faults(plan())),
    );
    assert_eq!(unbounded.final_data, oracle);
    assert!(unbounded.faults.retransmits > 0, "{:?}", unbounded.faults);
    assert_eq!(unbounded.credit_stalls(), 0);
    for cap in [4, 2] {
        let bounded = run(
            &graph,
            &program,
            &Metis::default(),
            || NoBalancer,
            &cfg(vt_world().with_faults(plan()).with_mailbox_capacity(cap)),
        );
        assert_eq!(bounded.final_data, oracle, "capacity {cap}");
        assert_eq!(
            bounded.faults, unbounded.faults,
            "capacity {cap}: fault counters are schedule-independent"
        );
        assert_eq!(
            bounded.total_time.to_bits(),
            unbounded.total_time.to_bits(),
            "capacity {cap}"
        );
    }
}

#[test]
fn escalating_corruption_never_shrinks_retransmits_at_capacity_two() {
    // The monotone-counter half of the starvation matrix: with a fixed
    // seed, raising the corruption probability only adds mangle decisions
    // (pure threshold tests over the same hash stream), so the retransmit
    // counter is monotone — even with every mailbox starved to two slots.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    let oracle = seq::run_sequential(&graph, &program, 12);
    let mut prev = 0u64;
    for p in [0.0, 0.02, 0.08, 0.2] {
        let plan = FaultPlan::new(123).with_corrupt(p).with_truncate(p * 0.5);
        let report = run(
            &graph,
            &program,
            &Metis::default(),
            || NoBalancer,
            &RunConfig::new(8, 12)
                .with_world(vt_world().with_faults(plan).with_mailbox_capacity(2))
                .with_validation(),
        );
        assert_eq!(report.final_data, oracle, "p={p}");
        assert!(
            report.faults.retransmits >= prev,
            "p={p}: retransmits shrank from {prev} to {}",
            report.faults.retransmits
        );
        prev = report.faults.retransmits;
    }
    assert!(prev > 0, "the top corruption rate must force retransmits");
}

#[test]
fn crash_recovery_completes_under_bounded_mailboxes() {
    // Rollback recovery's traffic (mirrors with ring fan-in r, adoption
    // packages, the gather) must make progress under capacity 4: receivers
    // drain as senders stall, so credits always eventually free up.
    let graph = ic2_graph::generators::hex_grid_n(16);
    let program = AvgProgram::fine();
    let iterations = 6u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let clean_total = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(4, iterations).with_world(vt_world()),
    )
    .total_time;
    let plan = FaultPlan::new(55).with_crash(1, clean_total * 0.5);
    let report = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(4, iterations)
            .with_checkpointing(2)
            .with_world(vt_world().with_faults(plan).with_mailbox_capacity(4))
            .with_validation(),
    );
    assert_eq!(report.final_data, oracle, "bounded recovery must be exact");
    assert!(report.rollbacks >= 1);
    assert!(!report.final_owner.contains(&1));
}

#[test]
fn checkpoint_mirrors_fan_in_past_the_mailbox_capacity() {
    // Each rank receives `r` mirrors a checkpoint, one from each ring
    // predecessor at distance 1..=r. With r above the capacity, a rank
    // whose buddy's mailbox is full must hold the mirrors addressed to it
    // while it waits for the credit, or the whole ring waits on itself.
    // The crash at 1e18 s never fires: it only puts the run on the verdict
    // plane, with a checkpoint every iteration.
    let graph = ic2_graph::generators::hex_grid_n(96);
    let program = AvgProgram::fine();
    let iterations = 6u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let run_at = |replication, capacity: Option<usize>| {
        let mut world = vt_world()
            .with_watchdog(Duration::from_secs(5))
            .with_faults(FaultPlan::new(3).with_crash(5, 1e18));
        if let Some(c) = capacity {
            world = world.with_mailbox_capacity(c);
        }
        let cfg = RunConfig::new(8, iterations)
            .with_checkpointing(1)
            .with_replication(replication)
            .with_world(world);
        try_run(&graph, &program, &Metis::default(), || NoBalancer, &cfg)
            .unwrap_or_else(|e| panic!("r = {replication}, capacity {capacity:?}: {e}"))
    };
    for (replication, capacity) in [(1, 1), (2, 1), (3, 2), (4, 2), (4, 4)] {
        let unbounded = run_at(replication, None);
        let bounded = run_at(replication, Some(capacity));
        assert_eq!(
            bounded.final_data, oracle,
            "r = {replication}, capacity {capacity}"
        );
        assert_eq!(
            bounded.total_time.to_bits(),
            unbounded.total_time.to_bits(),
            "r = {replication}, capacity {capacity}: the clock must not see the bound"
        );
        assert_eq!(bounded.checkpoint_bytes, unbounded.checkpoint_bytes);
    }
}

#[test]
fn planted_cyclic_wait_escalates_to_a_typed_error() {
    // A genuine flow-control deadlock: every rank floods its right
    // neighbour with more frames than the mailbox holds before receiving
    // anything, so the credit waits form a cycle 0 → 1 → 2 → 3 → 0 that no
    // amount of waiting can resolve. The detector must name the cycle in a
    // typed error instead of hanging until the watchdog kills the run.
    let n = 4;
    let cfg = mpisim::Config::virtual_time(NetModel::origin2000())
        .with_watchdog(Duration::from_secs(30))
        .with_mailbox_capacity(2);
    let result = mpisim::World::new(cfg)
        .run_fallible(n, |rank| {
            let right = (rank.rank() + 1) % rank.size();
            for i in 0..8u64 {
                rank.send_reliable(right, 3, &i, RetryPolicy::Escalate);
            }
            let left = (rank.rank() + rank.size() - 1) % rank.size();
            let mut sum = 0u64;
            for _ in 0..8 {
                sum += rank.recv::<u64>(left, 3);
            }
            sum
        })
        .map_err(PlatformError::from);
    match result {
        Err(PlatformError::FlowControlDeadlock { cycle }) => {
            assert_eq!(cycle.len(), n, "all four ranks wait in the cycle");
            assert_eq!(cycle[0], 0, "the cycle is rotated smallest-first");
            let mut sorted = cycle.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
            for (i, &r) in cycle.iter().enumerate() {
                let next = cycle[(i + 1) % cycle.len()];
                assert_eq!(
                    next,
                    (r + 1) % n,
                    "each rank waits on its right neighbour: {cycle:?}"
                );
            }
        }
        Err(e) => panic!("expected FlowControlDeadlock, got {e}"),
        Ok(_) => panic!("the planted cycle must not complete"),
    }
}

#[test]
fn the_same_flood_completes_when_capacity_suffices() {
    // Control experiment for the planted deadlock: with eight slots the
    // flood fits and the ring drains normally.
    let cfg = mpisim::Config::virtual_time(NetModel::origin2000())
        .with_watchdog(Duration::from_secs(30))
        .with_mailbox_capacity(8);
    let result = mpisim::World::new(cfg)
        .run_fallible(4, |rank| {
            let right = (rank.rank() + 1) % rank.size();
            for i in 0..8u64 {
                rank.send_reliable(right, 3, &i, RetryPolicy::Escalate);
            }
            let left = (rank.rank() + rank.size() - 1) % rank.size();
            let mut sum = 0u64;
            for _ in 0..8 {
                sum += rank.recv::<u64>(left, 3);
            }
            sum
        })
        .map_err(PlatformError::from);
    assert_eq!(result.expect("no deadlock"), vec![Some(28u64); 4]);
}
