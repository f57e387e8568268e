//! Disk-fault chaos: the out-of-core pager against every class of
//! injected storage failure — transient I/O errors, torn writes and page
//! rot — alone and composed with crashes, bounded mailboxes, and delta
//! exchange.
//!
//! The contract is the platform's usual one, extended below RAM: every
//! recoverable run converges byte-identical to the sequential oracle
//! with bit-identical same-seed `total_time`, and a run whose every page
//! copy is destroyed fails with the typed `UnrecoverableState` — never a
//! wrong answer.

use ic2_integration::{chaos_seed, clean_world, world};
use ic2mpi::prelude::*;
use ic2mpi::seq;
use mpisim::{DiskFault, FaultPlan, NetModel};
use std::time::Duration;

/// The same disk fault on every rank.
fn disk_fault_everyone(mut plan: FaultPlan, nprocs: usize, kind: DiskFault, p: f64) -> FaultPlan {
    for r in 0..nprocs {
        plan = plan.with_disk_fault(r, kind, p);
    }
    plan
}

#[test]
fn transient_errors_are_retried_with_backoff_and_stay_exact() {
    // Every rank's disk fails three in ten operations transiently. The
    // bounded-backoff retry loop must absorb all of it — same answer,
    // deterministic retry tally, bit-identical virtual time (the backoff
    // is charged to the clock, not hidden).
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    let nprocs = 8;
    let iterations = 12u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let plan = || {
        disk_fault_everyone(
            FaultPlan::new(chaos_seed(101)),
            nprocs,
            DiskFault::TransientError,
            0.3,
        )
    };
    let cfg = |pl| {
        RunConfig::new(nprocs, iterations)
            .with_checkpointing(3)
            .with_paging(6, EvictionPolicy::Sieve)
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
    assert_eq!(a.final_data, oracle, "transient errors must be invisible");
    assert!(a.disk_retries > 0, "retries must actually happen: {a:?}");
    assert!(a.faults.disk_transient_errors > 0, "{a:?}");
    let b = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(plan()),
    );
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.disk_retries, b.disk_retries);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
}

#[test]
fn torn_writes_are_caught_by_read_back_before_the_pointer_flip() {
    // Acknowledged-but-torn writes: the shadow-paging commit's read-back
    // verification must catch every one before the active-slot pointer
    // flips, recommit under a fresh version, and stay exact.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    let nprocs = 8;
    let iterations = 12u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let plan = || {
        disk_fault_everyone(
            FaultPlan::new(chaos_seed(103)),
            nprocs,
            DiskFault::TornWrite,
            0.2,
        )
    };
    let cfg = |pl| {
        RunConfig::new(nprocs, iterations)
            .with_checkpointing(3)
            .with_paging(6, EvictionPolicy::Sieve)
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
    assert_eq!(a.final_data, oracle, "torn writes must never surface");
    assert!(
        a.torn_writes_detected > 0,
        "read-back must catch torn writes: {a:?}"
    );
    assert!(a.disk_retries > 0, "a caught tear forces a recommit: {a:?}");
    let b = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(plan()),
    );
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.torn_writes_detected, b.torn_writes_detected);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
}

#[test]
fn page_rot_escalates_shadow_copy_then_rollback_and_stays_exact() {
    // At-rest rot on stored page images (every read of a healthy copy
    // rolls a fresh 1% decay decision, so rot strikes in the hundreds
    // over the run's read volume). The repair ladder: a rotten primary
    // is served from its verified shadow copy (pages_recovered); a page
    // whose every copy rots forces a rollback to the last verified
    // checkpoint and a replay with fresh fault decisions. Either way the
    // answer is exact and the schedule deterministic. (Much past this
    // rate the consecutive-failure limit legitimately deems the disk
    // unrecoverable — see the typed-failure test below.)
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    let nprocs = 8;
    let iterations = 12u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let plan = || {
        disk_fault_everyone(
            FaultPlan::new(chaos_seed(107)),
            nprocs,
            DiskFault::ReadRot,
            0.01,
        )
    };
    let cfg = |pl| {
        RunConfig::new(nprocs, iterations)
            .with_checkpointing(3)
            .with_paging(6, EvictionPolicy::Sieve)
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
    assert_eq!(a.final_data, oracle, "page rot must be repaired exactly");
    assert!(
        a.faults.disk_read_rots > 0,
        "rot must actually strike: {a:?}"
    );
    assert!(
        a.pages_recovered > 0 || a.rollbacks > 0,
        "the repair ladder must engage: {a:?}"
    );
    let b = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(plan()),
    );
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.pages_recovered, b.pages_recovered);
    assert_eq!(a.rollbacks, b.rollbacks);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
}

#[test]
fn page_rot_composes_with_crash_capacity_2_and_delta_exchange() {
    // The composition test: an uncooperative crash while every survivor's
    // disk rots, under the tightest legal mailbox (capacity 2) with delta
    // shadow exchange. Rollback restores from the buddy mirror (itself an
    // incremental page-diff image), the pager replays against a purged
    // disk with fresh fault decisions, and the result is exact — twice,
    // bit-identically.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::shifting();
    let nprocs = 8;
    let iterations = 16u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let clean_total = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(nprocs, iterations)
            .with_paging(6, EvictionPolicy::Sieve)
            .with_checkpointing(4)
            .with_delta_exchange()
            .with_world(clean_world()),
    )
    .total_time;

    let plan = || {
        disk_fault_everyone(
            FaultPlan::new(chaos_seed(113)),
            nprocs,
            DiskFault::ReadRot,
            0.01,
        )
        .with_crash(3, clean_total * 0.55)
    };
    let cfg = |pl| {
        RunConfig::new(nprocs, iterations)
            .with_checkpointing(4)
            .with_paging(6, EvictionPolicy::Sieve)
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
    assert_eq!(a.final_data, oracle, "crash + rot + backpressure: exact");
    assert!(a.rollbacks >= 1, "the crash must roll back: {a:?}");
    assert!(a.ranks_died.contains(&3), "{:?}", a.ranks_died);
    assert!(!a.final_owner.contains(&3));
    assert!(a.page_faults > 0, "{a:?}");
    assert!(a.delta_entries_skipped > 0, "delta suppression must engage");
    let b = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(plan()),
    );
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.rollbacks, b.rollbacks);
    assert_eq!(a.page_faults, b.page_faults);
    assert_eq!(a.pages_recovered, b.pages_recovered);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
}

#[test]
fn run_fails_typed_when_every_page_copy_is_rotten() {
    // Rot at probability 1 on every rank: no read — primary, shadow, or
    // read-back verification — can ever succeed, so no page that leaves
    // RAM can come back. The escalation ladder must exhaust its strikes
    // and fail with the typed UnrecoverableState — deterministically,
    // twice — instead of computing with holes in the graph.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    let nprocs = 8;
    let iterations = 12u32;
    let plan = || {
        disk_fault_everyone(
            FaultPlan::new(chaos_seed(127)),
            nprocs,
            DiskFault::ReadRot,
            1.0,
        )
    };
    let cfg = |pl| {
        RunConfig::new(nprocs, iterations)
            .with_checkpointing(3)
            .with_paging(6, EvictionPolicy::Sieve)
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
            .expect_err("no page can survive a round trip through this disk")
        })
        .collect();
    for e in &errs {
        assert!(
            matches!(e, PlatformError::UnrecoverableState { .. }),
            "expected UnrecoverableState, got {e:?}"
        );
    }
}

/// The ISSUE acceptance scenario at full scale: a 1M-node graph on 16
/// ranks with a resident budget far below the partition size, under
/// every disk fault class at once. Run with `--ignored --release`.
#[test]
#[ignore = "multi-minute acceptance run; exercised by the out_of_core bench in CI"]
fn million_node_out_of_core_run_is_exact_under_disk_faults() {
    let graph = ic2_graph::generators::hex_grid_n(1_000_000);
    let program = AvgProgram::fine();
    let nprocs = 16;
    let iterations = 3u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    // Rates are scaled to the read volume: every fault probability is
    // per-operation, and this run faults ~95k pages in all, so the 64-node
    // suite's rot rate (0.01) would latch hundreds of rotten copies per
    // round and legitimately exhaust the consecutive-damage strikes. 1e-4,
    // the `out_of_core` experiment's rate, rots about a hundred copies over
    // the run, enough that shadow rescue engages, without destroying both
    // copies of a page every round. At 2e-5 fault seeds 131–134 saw 0–4
    // rescues.
    let plan = || {
        let mut pl = FaultPlan::new(chaos_seed(131));
        for r in 0..nprocs {
            pl = pl
                .with_disk_fault(r, DiskFault::TransientError, 0.02)
                .with_disk_fault(r, DiskFault::TornWrite, 0.01)
                .with_disk_fault(r, DiskFault::ReadRot, 0.000_1);
        }
        pl
    };
    // 512 hash buckets per rank, 64 resident: ~1/8 of the partition in
    // RAM at any time. Metis at full scale: FM refinement maintains an
    // incremental gain heap, so the multilevel pipeline is n log n end to
    // end and the real partitioner handles 10^6 nodes directly (the old
    // full-rescan refinement was quadratic per pass and forced a RowBand
    // workaround here).
    let cfg = |pl| {
        RunConfig::new(nprocs, iterations)
            .with_hash_buckets(512)
            .with_checkpointing(2)
            .with_paging(64, EvictionPolicy::Sieve)
            .with_world(world(pl))
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
        "1M-node out-of-core run must be exact"
    );
    assert!(a.page_faults > 0 && a.pages_evicted > 0);
    assert!(a.disk_retries > 0);
    assert!(a.pages_recovered > 0, "shadow rescue engages");
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
