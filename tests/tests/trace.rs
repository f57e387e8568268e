//! Virtual-time tracing determinism and zero-cost guarantees.
//!
//! Two properties anchor the trace subsystem:
//!
//! 1. **Byte determinism** — the recorder only samples the virtual clock
//!    and program-order counters, and the sinks serialize f64s with Rust's
//!    shortest-roundtrip formatter, so two same-seed chaos runs render
//!    byte-identical `trace.json` and timeline files — at every mailbox
//!    capacity. Credit-stall instants are recorded by the *receiver* at
//!    the stall's canonical virtual-time resolution point (a pure function
//!    of the deterministic message schedule), not when a sender physically
//!    blocks, so bounded runs are no exception.
//! 2. **Zero cost when disabled, zero *interference* when enabled** — the
//!    recorder never touches any clock, so results and `total_time` are
//!    bit-identical with tracing on and off, including under chaos.

use ic2_integration::world;
use ic2mpi::prelude::*;
use ic2mpi::{chrome_trace_json, timeline_json, RunReport, TraceEvent};
use mpisim::FaultPlan;

/// The chaos workload every test here records: drops, corruption,
/// truncation, and an uncooperative crash of rank 3 under checkpointing —
/// so the trace exercises retries, NACKs, crash timeouts, checkpoints and
/// a rollback.
fn chaos_plan() -> FaultPlan {
    FaultPlan::new(42)
        .with_drop(0.05)
        .with_corrupt(0.05)
        .with_truncate(0.02)
        .with_crash(3, 0.05)
}

fn chaos_cfg(tracing: bool) -> RunConfig {
    let cfg = RunConfig::new(8, 12)
        .with_checkpointing(4)
        .with_world(world(chaos_plan()));
    if tracing {
        cfg.with_tracing()
    } else {
        cfg
    }
}

fn traced_run() -> RunReport<i64> {
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &chaos_cfg(true),
    )
}

#[test]
fn same_seed_chaos_traces_are_byte_identical() {
    let (a, b) = (traced_run(), traced_run());
    let ta = a.trace.as_deref().expect("tracing was enabled");
    let tb = b.trace.as_deref().expect("tracing was enabled");
    assert_eq!(
        chrome_trace_json(ta),
        chrome_trace_json(tb),
        "same seed must render a byte-identical trace.json"
    );
    assert_eq!(
        timeline_json(ta),
        timeline_json(tb),
        "same seed must render a byte-identical timeline"
    );
}

#[test]
fn bounded_mailbox_traces_are_byte_identical() {
    // Historically bounded mailboxes were carved out of the
    // byte-determinism claim because credit-stall instants were emitted
    // when a sender physically blocked — a host-scheduling accident.
    // They are now recorded by the receiver at the stall's canonical
    // virtual-time resolution point, so the carve-out is gone: same seed,
    // same capacity, same bytes.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    for cap in [2usize, 4] {
        let cfg = RunConfig::new(8, 12)
            .with_checkpointing(4)
            .with_world(world(chaos_plan()).with_mailbox_capacity(cap))
            .with_tracing();
        let run_once = || run(&graph, &program, &Metis::default(), || NoBalancer, &cfg);
        let (a, b) = (run_once(), run_once());
        let ta = a.trace.as_deref().expect("tracing was enabled");
        let tb = b.trace.as_deref().expect("tracing was enabled");
        assert_eq!(
            chrome_trace_json(ta),
            chrome_trace_json(tb),
            "capacity {cap}: same seed must render a byte-identical trace.json"
        );
        assert_eq!(timeline_json(ta), timeline_json(tb), "capacity {cap}");
        assert_eq!(a.credit_stalls(), b.credit_stalls(), "capacity {cap}");
    }
}

#[test]
fn tracing_is_invisible_to_the_simulation() {
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    let run_with = |tracing| {
        run(
            &graph,
            &program,
            &Metis::default(),
            || NoBalancer,
            &chaos_cfg(tracing),
        )
    };
    let off = run_with(false);
    let on = run_with(true);
    assert!(off.trace.is_none(), "no collector when tracing is off");
    assert!(on.trace.is_some());
    assert_eq!(on.final_data, off.final_data);
    assert_eq!(on.final_owner, off.final_owner);
    assert_eq!(on.faults, off.faults);
    assert_eq!(on.rollbacks, off.rollbacks);
    assert_eq!(
        on.total_time.to_bits(),
        off.total_time.to_bits(),
        "recording must never touch the virtual clock"
    );
    assert_eq!(off.negative_clamps(), 0);
    assert_eq!(on.negative_clamps(), 0);
}

#[test]
fn trace_covers_every_rank_and_marks_the_faults() {
    let report = traced_run();
    let traces = report.trace.as_deref().expect("tracing was enabled");
    assert_eq!(traces.len(), 8, "one event buffer per rank, crashed or not");

    let names = |rank: usize| -> Vec<&'static str> {
        traces[rank]
            .1
            .iter()
            .map(|e| match e {
                TraceEvent::Span { name, .. } | TraceEvent::Instant { name, .. } => *name,
            })
            .collect()
    };
    for (rank, events) in traces {
        assert!(
            names(*rank).contains(&"Initialization"),
            "rank {rank} must record its init phase"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TraceEvent::Span { name, .. } if *name == "iteration")),
            "rank {rank} must record iteration spans"
        );
    }
    // The crashed rank flushed its buffer on unwind, crash instant included.
    assert!(
        names(3).contains(&"crash"),
        "rank 3's buffer must survive the crash and mark it: {:?}",
        names(3)
    );
    // Survivors checkpointed and rolled back.
    let survivor = names(0);
    assert!(survivor.contains(&"checkpoint"), "{survivor:?}");
    assert!(survivor.contains(&"rollback"), "{survivor:?}");
    assert!(survivor.contains(&"Recovery"), "{survivor:?}");
}

#[test]
fn timeline_reports_per_iteration_phase_seconds_and_imbalance() {
    let report = traced_run();
    let traces = report.trace.as_deref().expect("tracing was enabled");
    let timeline = timeline_json(traces);
    assert!(timeline.starts_with("{\"iterations\":["));
    for key in [
        "\"iter\":1,",
        "\"imbalance\":",
        "\"compute\":",
        "\"comm\":",
        "\"integrity\":",
        "\"balance\":",
        "\"sent\":",
        "\"recv\":",
    ] {
        assert!(timeline.contains(key), "timeline lacks {key}: {timeline}");
    }
}
