//! Hybrid BSP/asynchronous execution ([`RunConfig::with_hybrid`]).
//!
//! The contract under test: `ExecutionPolicy::Hybrid { inner_k }` runs up
//! to `inner_k` *inner* iterations — interior nodes only, no barriers, no
//! shadow exchange, no control exchange — between global rounds, and a
//! global round first replays the boundary passes the elided rounds
//! skipped. Every node is therefore invoked once per (iteration, phase)
//! exactly as under BSP, so for the autonomous churn workload below the
//! final state must be *byte-identical* to both plain BSP and the
//! sequential oracle, while the elided collectives make the virtual clock
//! read strictly less. The elision cadence is a pure function of the
//! iteration number and the run configuration — never of runtime state —
//! which is what lets every fault-tolerance layer (rollback, park/rejoin,
//! delta, paging, audits) compose with it unchanged.

use ic2mpi::prelude::*;
use ic2mpi::seq;
use mpisim::{FaultPlan, MemRegion, NetModel};
use std::time::Duration;

fn world(plan: FaultPlan) -> mpisim::Config {
    mpisim::Config::virtual_time(NetModel::origin2000())
        .with_watchdog(Duration::from_secs(30))
        .with_faults(plan)
}

fn clean_world() -> mpisim::Config {
    mpisim::Config::virtual_time(NetModel::origin2000()).with_watchdog(Duration::from_secs(30))
}

/// Fault-plan seed, overridable via `CHAOS_SEED` (see chaos.rs).
fn chaos_seed(default: u64) -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The delta-experiment churn workload (see `ic2-bench`), restated here:
/// a deterministic hash picks `churn_pct`% of nodes to increment their
/// value every iteration while the rest hold. The node function reads only
/// its own value, so per-node invocation counts fully determine the final
/// state — the sharpest possible probe for elision bookkeeping errors
/// (every missed or doubled inner/catch-up pass shifts a counter).
#[derive(Debug, Clone, Copy)]
struct ChurnProgram {
    churn_pct: u64,
}

impl ChurnProgram {
    fn is_churner(&self, node: ic2_graph::NodeId) -> bool {
        let mut z = node as u64 ^ 0x9e37_79b9_7f4a_7c15;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % 100 < self.churn_pct
    }
}

impl NodeProgram for ChurnProgram {
    type Data = i64;
    fn init(&self, node: ic2_graph::NodeId, _graph: &ic2_graph::Graph) -> i64 {
        node as i64 + 1
    }
    fn compute(
        &self,
        node: ic2_graph::NodeId,
        own: &i64,
        _neighbors: &[NeighborData<'_, i64>],
        _ctx: &ComputeCtx,
    ) -> i64 {
        if self.is_churner(node) {
            *own + 1
        } else {
            *own
        }
    }
}

/// Mirror of the driver's pure elision cadence for configurations with no
/// balancing: iteration `i` is a global round iff it closes an inner block
/// (`i % (inner_k + 1) == 0`), is the final iteration, or lands on a
/// checkpoint or audit cadence (which need their collectives).
fn expected_inner_iterations(
    iterations: u32,
    inner_k: u32,
    checkpoint_every: Option<u32>,
    audit_every: Option<u32>,
) -> u32 {
    (1..=iterations)
        .filter(|&i| {
            let forced = i % (inner_k + 1) == 0
                || i == iterations
                || checkpoint_every.is_some_and(|k| i % k == 0)
                || audit_every.is_some_and(|a| i % a == 0);
            !forced
        })
        .count() as u32
}

#[test]
fn hybrid_is_byte_identical_to_bsp_and_oracle_across_churn() {
    let graph = ic2_graph::generators::hex_grid_n(96);
    let nprocs = 8;
    let iterations = 24u32;
    for churn in [0u64, 10, 100] {
        let program = ChurnProgram { churn_pct: churn };
        let oracle = seq::run_sequential(&graph, &program, iterations);
        let run_cfg = |cfg: RunConfig| {
            run(
                &graph,
                &program,
                &Metis::default(),
                || NoBalancer,
                &cfg.with_world(clean_world()).with_validation(),
            )
        };
        let bsp = run_cfg(RunConfig::new(nprocs, iterations));
        assert_eq!(bsp.final_data, oracle, "churn {churn}: BSP must be exact");
        assert_eq!(bsp.inner_iterations, 0, "BSP never elides");
        assert_eq!(bsp.barriers_elided, 0);
        for inner_k in [1u32, 3] {
            let a = run_cfg(RunConfig::new(nprocs, iterations).with_hybrid(inner_k));
            assert_eq!(
                a.final_data, oracle,
                "churn {churn} k={inner_k}: hybrid must stay exact"
            );
            assert_eq!(a.final_owner, bsp.final_owner);
            assert!(
                a.inner_iterations > 0,
                "churn {churn} k={inner_k}: elision must engage"
            );
            assert_eq!(
                a.barriers_elided, a.inner_iterations as u64,
                "one elided exchange per inner iteration per phase"
            );
            assert!(
                a.total_time < bsp.total_time,
                "churn {churn} k={inner_k}: eliding collectives must save \
                 virtual time ({} vs BSP {})",
                a.total_time,
                bsp.total_time
            );
            let b = run_cfg(RunConfig::new(nprocs, iterations).with_hybrid(inner_k));
            assert_eq!(a.final_data, b.final_data);
            assert_eq!(
                a.total_time.to_bits(),
                b.total_time.to_bits(),
                "churn {churn} k={inner_k}: same seed, bit-identical time"
            );
        }
    }
}

#[test]
fn elision_cadence_is_a_pure_function_of_the_schedule() {
    // The reported counters must match the closed-form cadence exactly:
    // no hidden runtime dependence (convergence, load, fault state) may
    // influence which rounds elide.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = ChurnProgram { churn_pct: 10 };
    let iterations = 20u32;
    for inner_k in [1u32, 2, 3, 7] {
        let clean = run(
            &graph,
            &program,
            &Metis::default(),
            || NoBalancer,
            &RunConfig::new(8, iterations)
                .with_hybrid(inner_k)
                .with_world(clean_world()),
        );
        let want = expected_inner_iterations(iterations, inner_k, None, None);
        assert_eq!(
            clean.inner_iterations, want,
            "k={inner_k}: clean cadence must match the closed form"
        );
        assert_eq!(clean.barriers_elided, want as u64);

        // The audit config drives the checkpoint/recovery execution plane
        // (a faultless `with_checkpointing` alone stays on the plain SPMD
        // path and takes no snapshots), where both the checkpoint and the
        // audit cadence force their rounds global.
        let checkpointed = run(
            &graph,
            &program,
            &Metis::default(),
            || NoBalancer,
            &RunConfig::new(8, iterations)
                .with_hybrid(inner_k)
                .with_checkpointing(4)
                .with_state_audit(6)
                .with_world(clean_world()),
        );
        let want = expected_inner_iterations(iterations, inner_k, Some(4), Some(6));
        assert_eq!(
            checkpointed.inner_iterations, want,
            "k={inner_k}: checkpoint and audit cadences force their rounds global"
        );
        assert_eq!(checkpointed.barriers_elided, want as u64);
    }
}

#[test]
fn hybrid_composes_with_crash_rollback() {
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = ChurnProgram { churn_pct: 10 };
    let nprocs = 8;
    let iterations = 16u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let clean_total = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(nprocs, iterations)
            .with_hybrid(3)
            .with_world(clean_world()),
    )
    .total_time;
    let cfg = || {
        RunConfig::new(nprocs, iterations)
            .with_hybrid(3)
            .with_checkpointing(4)
            .with_world(world(
                FaultPlan::new(chaos_seed(47)).with_crash(3, clean_total * 0.5),
            ))
            .with_validation()
    };
    let a = run(&graph, &program, &Metis::default(), || NoBalancer, &cfg());
    assert_eq!(a.final_data, oracle, "rollback + replay must stay exact");
    assert!(a.rollbacks >= 1, "the crash must actually trigger recovery");
    assert!(a.ranks_died.contains(&3));
    // Replayed inner rounds count again, so the counter can only exceed
    // the single-pass cadence.
    assert!(
        a.inner_iterations >= expected_inner_iterations(iterations, 3, Some(4), None),
        "replay re-elides the same rounds: {}",
        a.inner_iterations
    );
    assert_eq!(a.barriers_elided, a.inner_iterations as u64);
    let b = run(&graph, &program, &Metis::default(), || NoBalancer, &cfg());
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.inner_iterations, b.inner_iterations);
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
}

#[test]
fn hybrid_composes_with_partition_park_and_rejoin() {
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = ChurnProgram { churn_pct: 10 };
    let nprocs = 8;
    let iterations = 20u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let clean = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(nprocs, iterations)
            .with_hybrid(3)
            .with_world(clean_world()),
    );
    let groups = vec![vec![0, 1, 2, 3, 4, 5], vec![6, 7]];
    let plan = || {
        FaultPlan::new(chaos_seed(43))
            .with_partition(
                groups.clone(),
                clean.total_time * 0.4,
                clean.total_time * 0.75,
            )
            .with_detect_timeout(5e-4)
    };
    let cfg = |pl| {
        RunConfig::new(nprocs, iterations)
            .with_hybrid(3)
            .with_checkpointing(3)
            .with_partition_tolerance()
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
    assert_eq!(a.final_data, oracle, "rejoin + replay must stay exact");
    assert!(a.rejoins >= 1, "the minority must rejoin");
    assert!(a.degraded_iterations > 0);
    assert!(
        a.inner_iterations > 0,
        "healthy stretches must still elide: {a:?}"
    );
    assert_eq!(a.barriers_elided, a.inner_iterations as u64);
    assert!(
        a.total_time > clean.total_time,
        "degradation, parking and replay must cost virtual time"
    );
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
fn hybrid_composes_with_delta_exchange() {
    // Delta suppression keys off shadow staleness; a global round that
    // followed elided rounds forces a full repack only when the catch-up
    // actually changed a boundary value. With 10% churn the holders stay
    // clean, so skipping must still engage under hybrid.
    let graph = ic2_graph::generators::hex_grid_n(96);
    let program = ChurnProgram { churn_pct: 10 };
    let nprocs = 8;
    let iterations = 24u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let cfg = || {
        RunConfig::new(nprocs, iterations)
            .with_hybrid(3)
            .with_delta_exchange()
            .with_world(clean_world())
            .with_validation()
    };
    let a = run(&graph, &program, &Metis::default(), || NoBalancer, &cfg());
    assert_eq!(a.final_data, oracle, "delta + hybrid must stay exact");
    assert!(a.inner_iterations > 0);
    assert!(
        a.delta_entries_skipped > 0,
        "clean holders must still be skipped under hybrid: {a:?}"
    );
    let b = run(&graph, &program, &Metis::default(), || NoBalancer, &cfg());
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.delta_entries_skipped, b.delta_entries_skipped);
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
}

#[test]
fn hybrid_composes_with_out_of_core_paging() {
    // A 4-page budget against 64 buckets per rank keeps the pager under
    // constant pressure; inner rounds fault interior pages in and out
    // without any exchange, and the answer must not move.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = ChurnProgram { churn_pct: 10 };
    let nprocs = 8;
    let iterations = 12u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let cfg = || {
        RunConfig::new(nprocs, iterations)
            .with_hybrid(3)
            .with_checkpointing(4)
            .with_paging(4, EvictionPolicy::Sieve)
            .with_world(clean_world())
            .with_validation()
    };
    let a = run(&graph, &program, &Metis::default(), || NoBalancer, &cfg());
    assert_eq!(a.final_data, oracle, "paged hybrid run must stay exact");
    assert!(a.page_faults > 0 && a.pages_evicted > 0, "budget must bind");
    assert!(a.inner_iterations > 0);
    let b = run(&graph, &program, &Metis::default(), || NoBalancer, &cfg());
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.page_faults, b.page_faults);
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
}

#[test]
fn hybrid_composes_with_memory_rot_and_audits() {
    // Live-region rot under a sparse audit is refused, hybrid or not: an
    // un-audited inner round reads the flipped value and writes a
    // self-consistent wrong one (this configuration used to return node 63
    // = 80 against the oracle's 64). What hybrid does compose with at any
    // audit cadence is rot *at rest*: checkpoint replicas are verified by
    // their own checksums when a rollback consults them. An audit cadence
    // of 2 forces every even round global, so elision still engages on the
    // odd rounds.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = ChurnProgram { churn_pct: 10 };
    let nprocs = 8;
    let iterations = 12u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let cfg = |pl| {
        RunConfig::new(nprocs, iterations)
            .with_hybrid(3)
            .with_checkpointing(3)
            .with_state_audit(2)
            .with_replication(4)
            .with_world(world(pl))
            .with_validation()
    };
    let everywhere = |region| {
        (0..nprocs).fold(FaultPlan::new(chaos_seed(71)), |pl, r| match region {
            Some(region) => pl.with_memory_corrupt_in(r, region, 0.01),
            None => pl.with_memory_corrupt(r, 0.01),
        })
    };
    for live in [None, Some(MemRegion::Owned), Some(MemRegion::Shadow)] {
        let refused = try_run(
            &graph,
            &program,
            &Metis::default(),
            || NoBalancer,
            &cfg(everywhere(live)),
        );
        assert_eq!(
            refused.map(|r| r.final_data),
            Err(PlatformError::LiveRotNeedsAuditEveryIteration {
                audit_every: Some(2)
            }),
            "rot in {live:?}"
        );
    }

    let clean = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(FaultPlan::new(1)),
    );
    let plan = || everywhere(Some(MemRegion::Replica)).with_crash(5, clean.total_time * 0.6);
    let a = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(plan()),
    );
    assert_eq!(a.final_data, oracle, "audited hybrid run must stay exact");
    assert!(a.memory_corruptions > 0, "bits must actually flip: {a:?}");
    assert!(a.bad_replicas > 0, "the census must catch them: {a:?}");
    assert!(a.rollbacks >= 1, "the crash must consult the replicas");
    assert!(
        a.inner_iterations > 0,
        "odd rounds stay elidable under audit_every = 2: {a:?}"
    );
    let b = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(plan()),
    );
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.bad_replicas, b.bad_replicas);
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
}

#[test]
fn zero_inner_k_is_rejected_with_a_typed_error() {
    let graph = ic2_graph::generators::hex_grid_n(16);
    let err = try_run(
        &graph,
        &AvgProgram::fine(),
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(4, 4).with_hybrid(0),
    )
    .unwrap_err();
    assert!(err == PlatformError::ZeroKnob("inner_k"), "got {err:?}");
}
