//! Delta shadow exchange: oracle exactness, traffic accounting, and
//! determinism under the full chaos matrix.
//!
//! Delta mode ([`RunConfig::with_delta_exchange`]) suppresses shadow
//! updates for *clean* boundary nodes — nodes whose newly computed value
//! equals their current one — relying on receivers retaining the last
//! value they saw. These tests pin the three load-bearing properties:
//!
//! 1. **Oracle exactness.** Delta on and delta off compute byte-identical
//!    answers (equal to the sequential oracle) on clean runs and under
//!    corruption, drops, crash + rollback, and capacity-2 backpressure.
//!    Migration and rollback both force a full resync, so retained shadows
//!    can never go stale.
//! 2. **Traffic accounting.** `sent + skipped` equals the full-exchange
//!    traffic (nothing vanishes), clean nodes are provably never packed,
//!    and global quiescence is detected and reported.
//! 3. **Determinism.** Same-seed delta runs are bit-identical in virtual
//!    time and render byte-identical traces, `delta_skipped` instants
//!    included.

use ic2_graph::NodeId;
use ic2_integration::{chaos_seed, clean_world, world};
use ic2mpi::prelude::*;
use ic2mpi::seq;
use ic2mpi::{chrome_trace_json, timeline_json, TraceEvent};
use mpisim::FaultPlan;

fn wire_bytes<D>(report: &RunReport<D>) -> u64 {
    report.comm.iter().map(|c| c.bytes_sent).sum()
}

/// Min-propagation: each node takes the minimum of itself and its
/// neighbours. Converges to the global minimum in diameter-many
/// iterations and is *exactly* quiescent afterwards — the ideal workload
/// for delta suppression and quiescence detection.
#[derive(Debug, Clone, Copy)]
struct MinProgram;

impl NodeProgram for MinProgram {
    type Data = i64;
    fn init(&self, node: NodeId, _graph: &Graph) -> i64 {
        node as i64 + 1
    }
    fn compute(
        &self,
        _node: NodeId,
        own: &i64,
        neighbors: &[NeighborData<'_, i64>],
        _ctx: &ComputeCtx,
    ) -> i64 {
        neighbors.iter().map(|n| *n.data).fold(*own, i64::min)
    }
}

/// A program whose nodes never change after initialization: every node is
/// clean in every iteration, so delta mode must suppress *all* shadow
/// traffic beyond the initial full sync.
#[derive(Debug, Clone, Copy)]
struct StaticProgram;

impl NodeProgram for StaticProgram {
    type Data = i64;
    fn init(&self, node: NodeId, _graph: &Graph) -> i64 {
        node as i64 * 3 + 1
    }
    fn compute(
        &self,
        _node: NodeId,
        own: &i64,
        _neighbors: &[NeighborData<'_, i64>],
        _ctx: &ComputeCtx,
    ) -> i64 {
        *own
    }
}

#[test]
fn delta_is_oracle_exact_and_cuts_traffic_on_a_converging_run() {
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = MinProgram;
    const ITERS: u32 = 30;
    let oracle = seq::run_sequential(&graph, &program, ITERS);
    let cfg = RunConfig::new(8, ITERS).with_world(clean_world());
    let off = run(&graph, &program, &Metis::default(), || NoBalancer, &cfg);
    let on = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg.clone().with_delta_exchange(),
    );

    assert_eq!(off.final_data, oracle);
    assert_eq!(on.final_data, oracle, "delta mode must stay oracle-exact");

    // Conservation: every shadow entry the full exchange sends is either
    // sent or deliberately skipped by delta — nothing vanishes. (Holds
    // exactly because nothing migrates in this run.)
    assert_eq!(off.delta_entries_skipped, 0);
    assert!(
        on.delta_entries_skipped > 0,
        "convergence must skip entries"
    );
    assert_eq!(
        on.delta_entries_sent + on.delta_entries_skipped,
        off.delta_entries_sent,
        "delta must account for exactly the full-exchange traffic"
    );

    // The point of the exercise: fewer bytes on the wire, less virtual
    // time (skipped nodes are not packed, smaller buffers transfer
    // faster), and quiescence after convergence is visible globally.
    assert!(
        wire_bytes(&on) < wire_bytes(&off),
        "delta must cut bytes on the wire: {} vs {}",
        wire_bytes(&on),
        wire_bytes(&off)
    );
    assert!(
        on.total_time < off.total_time,
        "delta must cut virtual time: {} vs {}",
        on.total_time,
        off.total_time
    );
    assert_eq!(off.quiescent_iterations, 0, "only tracked under delta");
    assert!(
        on.quiescent_iterations > 0,
        "min-propagation converges well within {ITERS} iterations"
    );
}

#[test]
fn clean_nodes_are_never_packed() {
    // Property: a clean node never appears in a shadow buffer. Under
    // `StaticProgram` *every* node is clean in *every* iteration, so the
    // only shadow traffic delta mode may emit is the initial full sync —
    // exactly one iteration's worth of the full exchange.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = StaticProgram;
    const ITERS: u32 = 10;
    let oracle = seq::run_sequential(&graph, &program, ITERS);
    let cfg = RunConfig::new(8, ITERS).with_world(clean_world());
    let off = run(&graph, &program, &Metis::default(), || NoBalancer, &cfg);
    let on = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg.clone().with_delta_exchange(),
    );

    assert_eq!(on.final_data, oracle);
    assert_eq!(off.final_data, oracle);
    let full_per_iter = off.delta_entries_sent / ITERS as u64;
    assert_eq!(off.delta_entries_sent % ITERS as u64, 0);
    assert_eq!(
        on.delta_entries_sent, full_per_iter,
        "a fully static program sends exactly the initial resync"
    );
    assert_eq!(
        on.delta_entries_skipped,
        off.delta_entries_sent - full_per_iter,
        "every later entry must be suppressed"
    );
    // Changed counts are semantic (value inequality), not pack-based: the
    // forced initial resync still reports zero changed nodes, so every
    // iteration is globally quiescent.
    assert_eq!(on.quiescent_iterations, ITERS);
}

#[test]
fn delta_equivalence_across_the_chaos_matrix() {
    // Delta on vs delta off under every recovery path that forces a
    // resync: corruption/truncation (retransmits), drops + duplicates +
    // reorders with active migration, crash + rollback, and capacity-2
    // backpressure.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    const ITERS: u32 = 20;
    let oracle = seq::run_sequential(&graph, &program, ITERS);
    let clean_total = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(8, ITERS).with_world(clean_world()),
    )
    .total_time;

    let scenarios: Vec<(&str, RunConfig)> = vec![
        (
            "corruption",
            RunConfig::new(8, ITERS).with_world(world(
                FaultPlan::new(chaos_seed(3))
                    .with_corrupt(0.1)
                    .with_truncate(0.05),
            )),
        ),
        (
            "drops+migration",
            RunConfig::new(8, ITERS)
                .with_balancing(10)
                .with_validation()
                .with_world(world(
                    FaultPlan::new(chaos_seed(4))
                        .with_drop(0.05)
                        .with_delay(0.05, 2e-4)
                        .with_dup(0.05)
                        .with_reorder(0.05),
                )),
        ),
        (
            "crash+rollback",
            RunConfig::new(8, ITERS)
                .with_checkpointing(2)
                .with_world(world(
                    FaultPlan::new(chaos_seed(6)).with_crash(3, clean_total * 0.55),
                )),
        ),
        (
            "backpressure-cap2",
            RunConfig::new(8, ITERS).with_world(clean_world().with_mailbox_capacity(2)),
        ),
    ];

    for (name, cfg) in scenarios {
        let off = run(
            &graph,
            &program,
            &Metis::default(),
            CentralizedHeuristic::default,
            &cfg,
        );
        let on = run(
            &graph,
            &program,
            &Metis::default(),
            CentralizedHeuristic::default,
            &cfg.clone().with_delta_exchange(),
        );
        assert_eq!(
            on.final_data, oracle,
            "[{name}] delta mode must stay oracle-exact"
        );
        assert_eq!(
            off.final_data, oracle,
            "[{name}] full mode must stay oracle-exact"
        );
        assert_eq!(
            on.final_owner, off.final_owner,
            "[{name}] delta must not perturb placement decisions"
        );
    }
}

#[test]
fn delta_runs_are_bit_deterministic_under_chaos() {
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    let plan = || {
        FaultPlan::new(chaos_seed(42))
            .with_drop(0.05)
            .with_corrupt(0.05)
            .with_truncate(0.02)
            .with_crash(3, 0.05)
    };
    let cfg = RunConfig::new(8, 12)
        .with_checkpointing(4)
        .with_world(world(plan()))
        .with_delta_exchange();
    let runs: Vec<_> = (0..2)
        .map(|_| run(&graph, &program, &Metis::default(), || NoBalancer, &cfg))
        .collect();
    let (a, b) = (&runs[0], &runs[1]);
    assert!(a.faults.any(), "the plan must actually inject faults");
    assert!(a.rollbacks > 0, "the crash must force a rollback");
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.delta_entries_sent, b.delta_entries_sent);
    assert_eq!(a.delta_entries_skipped, b.delta_entries_skipped);
    assert_eq!(a.quiescent_iterations, b.quiescent_iterations);
    assert_eq!(
        a.total_time.to_bits(),
        b.total_time.to_bits(),
        "delta-mode virtual time must be bit-identical under the same seed"
    );
}

#[test]
fn delta_traces_are_byte_identical_and_mark_skipped_entries() {
    // Same-seed delta runs render byte-identical trace.json/timeline
    // files, and the trace carries the new `delta_skipped` instants.
    // (Unbounded mailboxes, as for every byte-determinism check: bounded
    // credit-stall instants depend on host scheduling.)
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = MinProgram;
    let plan = || {
        FaultPlan::new(chaos_seed(42))
            .with_drop(0.05)
            .with_corrupt(0.05)
            .with_crash(3, 0.05)
    };
    let traced = || {
        run(
            &graph,
            &program,
            &Metis::default(),
            || NoBalancer,
            &RunConfig::new(8, 12)
                .with_checkpointing(4)
                .with_world(world(plan()))
                .with_delta_exchange()
                .with_tracing(),
        )
    };
    let (a, b) = (traced(), traced());
    let ta = a.trace.as_deref().expect("tracing was enabled");
    let tb = b.trace.as_deref().expect("tracing was enabled");
    assert_eq!(
        chrome_trace_json(ta),
        chrome_trace_json(tb),
        "same seed must render a byte-identical delta trace.json"
    );
    assert_eq!(timeline_json(ta), timeline_json(tb));
    let has_skip_instant = ta.iter().any(|(_, events)| {
        events
            .iter()
            .any(|e| matches!(e, TraceEvent::Instant { name, .. } if *name == "delta_skipped"))
    });
    assert!(
        has_skip_instant,
        "delta runs must emit per-iteration delta_skipped instants"
    );
}
