//! Memory-corruption chaos: silent at-rest bit flips composed with every
//! other fault class, plus the escalating multi-replica restore
//! acceptance pair.
//!
//! Silent corruption never touches the wire, so the PR 4 frame checksums
//! cannot see it — detection is the state audit's job (owned and shadow
//! regions) and the checkpoint entry checksums' job (replicas at rest).
//! Every test here demands the full contract: byte-identical convergence
//! to the sequential oracle, bit-identical same-seed `total_time`, and
//! identical fault counters across re-runs. The probabilistic assertions
//! stay comfortably seed-agnostic under any `CHAOS_SEED`: every `> 0`
//! counter has double-digit expectation at the configured rates.

use ic2_integration::{chaos_seed, clean_world, world};
use ic2mpi::prelude::*;
use ic2mpi::seq;
use mpisim::{FaultPlan, MemRegion, NetModel};
use std::time::Duration;

/// Blanket at-rest corruption on every rank.
fn corrupt_everyone(mut plan: FaultPlan, nprocs: usize, p: f64) -> FaultPlan {
    for r in 0..nprocs {
        plan = plan.with_memory_corrupt(r, p);
    }
    plan
}

#[test]
fn escalating_corruption_is_detected_and_repaired_exactly() {
    // Blanket corruption at escalating rates with audits every boundary:
    // every flipped bit must be caught by the next audit and repaired
    // (shadow resync or rollback + replay) without operator intervention,
    // landing byte-identical to the oracle, twice, bit-identically.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    let nprocs = 8;
    let iterations = 12u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    for p in [0.005, 0.01, 0.015] {
        let plan = || corrupt_everyone(FaultPlan::new(chaos_seed(71)), nprocs, p);
        let cfg = |pl| {
            RunConfig::new(nprocs, iterations)
                .with_checkpointing(3)
                .with_state_audit(1)
                .with_replication(4)
                .with_world(world(pl))
                .with_validation()
        };
        let a = run(
            &graph,
            &program,
            &Metis::default(),
            || NoBalancer,
            &cfg(plan()),
        );
        assert_eq!(a.final_data, oracle, "p={p}: repair must be exact");
        assert!(
            a.faults.memory_corruptions > 0,
            "p={p}: bits must actually flip"
        );
        assert!(
            a.audit_mismatches > 0,
            "p={p}: the audit must catch live-region damage: {a:?}"
        );
        assert!(a.repairs > 0, "p={p}: detection must trigger repair");
        let b = run(
            &graph,
            &program,
            &Metis::default(),
            || NoBalancer,
            &cfg(plan()),
        );
        assert_eq!(a.final_data, b.final_data, "p={p}");
        assert_eq!(
            a.faults.memory_corruptions, b.faults.memory_corruptions,
            "p={p}"
        );
        assert_eq!(a.audit_mismatches, b.audit_mismatches, "p={p}");
        assert_eq!(a.shadow_resyncs, b.shadow_resyncs, "p={p}");
        assert_eq!(a.bad_replicas, b.bad_replicas, "p={p}");
        assert_eq!(a.repairs, b.repairs, "p={p}");
        assert_eq!(a.faults, b.faults, "p={p}");
        assert_eq!(
            a.total_time.to_bits(),
            b.total_time.to_bits(),
            "p={p}: total time must be bit-identical"
        );
        assert_eq!(a.negative_clamps(), 0, "p={p}");
    }
}

#[test]
fn memory_corruption_composes_with_crash_recovery() {
    // An uncooperative crash while every survivor's memory is rotting:
    // the rollback must restore from checksum-verified replicas, the
    // audits must keep scrubbing the replayed iterations, and the result
    // must still be exact.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    let nprocs = 8;
    let iterations = 12u32;
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
        corrupt_everyone(FaultPlan::new(chaos_seed(73)), nprocs, 0.008)
            .with_crash(3, clean_total * 0.55)
    };
    let cfg = |pl| {
        RunConfig::new(nprocs, iterations)
            .with_checkpointing(3)
            .with_state_audit(1)
            .with_replication(3)
            .with_world(world(pl))
            .with_validation()
    };
    let a = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(plan()),
    );
    assert_eq!(a.final_data, oracle, "crash + rot recovery must be exact");
    assert!(a.rollbacks >= 1, "the crash must roll back");
    assert!(a.ranks_died.contains(&3), "{:?}", a.ranks_died);
    assert!(!a.final_owner.contains(&3));
    assert!(a.faults.memory_corruptions > 0, "{a:?}");
    assert!(a.repairs > 0, "{a:?}");
    let b = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(plan()),
    );
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.rollbacks, b.rollbacks);
    assert_eq!(a.faults.memory_corruptions, b.faults.memory_corruptions);
    assert_eq!(a.bad_replicas, b.bad_replicas);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
}

#[test]
fn memory_corruption_composes_with_a_partition() {
    // A quorum-gated partition while memory rots: sweeps and audits are
    // suspended during the degraded stretch (the heal rollback discards it
    // wholesale anyway), resume after rejoin, and the replayed result must
    // match the oracle. Audit interval 1, like every exactness test under
    // live-region rot: a looser interval lets the next iteration's promote
    // launder corruption into self-consistent state no audit can see (see
    // `crates/core/src/audit.rs`).
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    let nprocs = 8;
    let iterations = 16u32;
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
        corrupt_everyone(FaultPlan::new(chaos_seed(79)), nprocs, 0.01)
            .with_partition(
                vec![vec![0, 1, 2, 3, 4, 5], vec![6, 7]],
                clean_total * 0.4,
                clean_total * 0.7,
            )
            .with_detect_timeout(5e-4)
    };
    let cfg = |pl| {
        RunConfig::new(nprocs, iterations)
            .with_checkpointing(3)
            .with_state_audit(1)
            .with_replication(3)
            .with_world(world(pl))
            .with_validation()
    };
    let a = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(plan()),
    );
    assert_eq!(a.final_data, oracle, "partition + rot must heal exactly");
    assert!(a.rejoins >= 1, "the minority must rejoin");
    assert!(a.degraded_iterations > 0);
    assert!(a.faults.memory_corruptions > 0, "{a:?}");
    let b = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(plan()),
    );
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.rejoins, b.rejoins);
    assert_eq!(a.faults.memory_corruptions, b.faults.memory_corruptions);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
}

#[test]
fn memory_corruption_composes_with_delta_and_capacity_2_backpressure() {
    // Delta shadow exchange under the tightest legal mailbox (capacity 2)
    // while memory rots: retained shadow caches are exactly the state the
    // Shadow region corrupts, so the audit's owner-vs-shadow comparison
    // must catch stale deltas, force resyncs, and stay oracle-exact.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::shifting();
    let nprocs = 8;
    let iterations = 16u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let plan = || corrupt_everyone(FaultPlan::new(chaos_seed(83)), nprocs, 0.008);
    let cfg = |pl| {
        RunConfig::new(nprocs, iterations)
            .with_checkpointing(4)
            .with_state_audit(1)
            .with_replication(2)
            .with_delta_exchange()
            .with_world(
                mpisim::Config::virtual_time(NetModel::origin2000())
                    .with_watchdog(Duration::from_secs(30))
                    .with_mailbox_capacity(2)
                    .with_faults(pl),
            )
            .with_validation()
    };
    let a = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(plan()),
    );
    assert_eq!(a.final_data, oracle, "delta + backpressure + rot: exact");
    assert!(a.delta_entries_skipped > 0, "delta suppression must engage");
    assert!(a.faults.memory_corruptions > 0, "{a:?}");
    assert!(a.repairs > 0, "{a:?}");
    let b = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(plan()),
    );
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.faults.memory_corruptions, b.faults.memory_corruptions);
    assert_eq!(a.shadow_resyncs, b.shadow_resyncs);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
}

#[test]
fn escalating_restore_survives_r_minus_1_bad_replicas() {
    // The acceptance scenario, made deterministic with region-scoped
    // corruption: rank 2 crashes, and its *first* ring buddy (rank 3)
    // rots every checkpoint copy it holds — including its own baseline —
    // with probability 1. At r = 2 the restore census flags rank 3's ward
    // as damaged, the election escalates to the second buddy (rank 4,
    // pristine), rank 3 itself is rescued with a verified copy from its
    // own buddies, and the run completes byte-identical to the oracle.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    let nprocs = 8;
    let iterations = 12u32;
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
        FaultPlan::new(chaos_seed(89))
            .with_crash(2, clean_total * 0.55)
            .with_memory_corrupt_in(3, MemRegion::Replica, 1.0)
    };
    let cfg = |pl| {
        RunConfig::new(nprocs, iterations)
            .with_checkpointing(3)
            .with_replication(2)
            .with_world(world(pl))
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
        "restore must escalate past the rotten first replica"
    );
    assert!(a.rollbacks >= 1);
    assert!(a.ranks_died.contains(&2), "{:?}", a.ranks_died);
    assert!(!a.final_owner.contains(&2));
    assert!(
        a.bad_replicas >= 2,
        "rank 3's wards and its own baseline are all rotten: {a:?}"
    );
    assert!(
        a.repairs >= 1,
        "rank 3 must be rescued with a verified copy: {a:?}"
    );
    assert!(a.faults.memory_corruptions > 0);
    let b = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(plan()),
    );
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.bad_replicas, b.bad_replicas);
    assert_eq!(a.repairs, b.repairs);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
}

#[test]
fn restore_fails_typed_when_every_replica_is_rotten() {
    // Same construction, but now BOTH of the crashed rank's ring buddies
    // (ranks 3 and 4, r = 2) rot their replicas at probability 1: every
    // copy of rank 2's state fails its checksum, the election exhausts the
    // ring, and the run must fail with the typed UnrecoverableState error
    // naming the unrecoverable rank — deterministically, twice.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    let nprocs = 8;
    let iterations = 12u32;
    let clean_total = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(nprocs, iterations).with_world(clean_world()),
    )
    .total_time;

    let plan = || {
        FaultPlan::new(chaos_seed(97))
            .with_crash(2, clean_total * 0.55)
            .with_memory_corrupt_in(3, MemRegion::Replica, 1.0)
            .with_memory_corrupt_in(4, MemRegion::Replica, 1.0)
    };
    let cfg = |pl| {
        RunConfig::new(nprocs, iterations)
            .with_checkpointing(3)
            .with_replication(2)
            .with_world(world(pl))
            .with_validation()
    };
    let errs: Vec<PlatformError> = (0..2)
        .map(|_| {
            try_run(
                &graph,
                &program,
                &Metis::default(),
                || NoBalancer,
                &cfg(plan()),
            )
            .expect_err("no intact replica of rank 2 can exist")
        })
        .collect();
    for e in &errs {
        match e {
            PlatformError::UnrecoverableState { rank } => {
                assert_eq!(*rank, 2, "the typed error must name the lost owner")
            }
            other => panic!("expected UnrecoverableState, got {other:?}"),
        }
    }
}
