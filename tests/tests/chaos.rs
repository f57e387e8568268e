//! Chaos-mode tests: deterministic fault injection in the substrate and
//! the platform's self-healing responses — retries, skipped migrations,
//! and crash rollback recovery.

use ic2_battlefield::{BattlefieldProgram, Scenario};
use ic2_integration::{chaos_seed, clean_world, world};
use ic2mpi::prelude::*;
use ic2mpi::seq;
use mpisim::FaultPlan;

#[test]
fn fault_injection_is_fully_deterministic() {
    // Same seed, same plan ⇒ byte-identical final states, identical fault
    // counters, and bit-identical virtual-time totals — across drops,
    // delays, duplicates, reorders, and active migration.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::shifting();
    let plan = || {
        FaultPlan::new(chaos_seed(42))
            .with_drop(0.05)
            .with_delay(0.05, 2e-4)
            .with_dup(0.05)
            .with_reorder(0.05)
    };
    let cfg = RunConfig::new(8, 25)
        .with_balancing(10)
        .with_world(world(plan()))
        .with_validation();
    let runs: Vec<_> = (0..2)
        .map(|_| {
            run(
                &graph,
                &program,
                &Metis::default(),
                || CentralizedHeuristic { threshold: 0.05 },
                &cfg,
            )
        })
        .collect();
    let (a, b) = (&runs[0], &runs[1]);
    assert!(a.faults.any(), "the plan must actually inject faults");
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.final_owner, b.final_owner);
    assert_eq!(a.migrations, b.migrations);
    assert_eq!(a.skipped_migrations, b.skipped_migrations);
    assert_eq!(a.faults, b.faults);
    assert_eq!(
        a.total_time.to_bits(),
        b.total_time.to_bits(),
        "virtual time must be bit-identical under the same fault seed"
    );
    assert_eq!(
        a.negative_clamps, 0,
        "no phase window may come out negative, even under chaos"
    );
}

#[test]
fn chaos_battlefield_converges_to_the_fault_free_answer() {
    // 5% drops and 5% delays on the thesis battlefield:
    // the run must complete without deadlock and compute exactly what the
    // fault-free run computes, with the recovery visible in the counters.
    let bf = BattlefieldProgram::new(&Scenario::thesis());
    let terrain = bf.terrain();
    let clean = run(
        &terrain,
        &bf,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(8, 5).with_world(clean_world()),
    );
    assert!(!clean.faults.any());

    let plan = FaultPlan::new(chaos_seed(7))
        .with_drop(0.05)
        .with_delay(0.05, 2e-4);
    let chaotic = run(
        &terrain,
        &bf,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(8, 5).with_world(world(plan)),
    );
    assert_eq!(chaotic.final_data, clean.final_data);
    assert!(chaotic.faults.dropped > 0, "{:?}", chaotic.faults);
    assert!(chaotic.faults.delayed > 0, "{:?}", chaotic.faults);
    assert!(chaotic.faults.retries > 0, "{:?}", chaotic.faults);
    // Retransmissions and delays cost real (virtual) time.
    assert!(chaotic.total_time > clean.total_time);
}

#[test]
fn lost_migration_payloads_degrade_to_skipped_rounds() {
    // Drown the data plane: 95% drops with no retry budget. Shadow buffers
    // escalate their only attempt through (the BSP round must not
    // deadlock), but migration payloads give up and the planned pair is
    // skipped — and the answer must still be exact.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::shifting();
    let oracle = seq::run_sequential(&graph, &program, 25);
    let plan = FaultPlan::new(chaos_seed(11))
        .with_drop(0.95)
        .with_retry(1e-4, 0);
    let cfg = RunConfig::new(8, 25)
        .with_balancing(10)
        .with_world(world(plan))
        .with_validation();
    let report = run(
        &graph,
        &program,
        &Metis::default(),
        || CentralizedHeuristic { threshold: 0.05 },
        &cfg,
    );
    assert_eq!(report.final_data, oracle);
    assert!(report.faults.escalations > 0, "{:?}", report.faults);
    assert!(
        report.skipped_migrations > 0,
        "migrations {} skipped {}: at 90% drop some payload must be lost",
        report.migrations,
        report.skipped_migrations
    );
}

#[test]
fn crashed_rank_rolls_back_and_recovers_exactly() {
    // An uncooperative crash on the thesis battlefield: rank 3 simply
    // stops mid-run — mailbox sealed, in-flight messages dropped, nothing
    // handed off. Survivors must detect it, roll back to the last
    // coordinated checkpoint, adopt the dead rank's partition out of the
    // buddy copy, replay the lost iterations, and still produce the exact
    // fault-free answer — under either exchange schedule.
    let bf = BattlefieldProgram::new(&Scenario::thesis());
    let terrain = bf.terrain();
    let iterations = 8;
    for mode in [ExchangeMode::PostComm, ExchangeMode::Overlap] {
        let clean = run(
            &terrain,
            &bf,
            &Metis::default(),
            || NoBalancer,
            &RunConfig::new(8, iterations)
                .with_exchange(mode)
                .with_world(clean_world()),
        );

        let plan = || FaultPlan::new(chaos_seed(9)).with_crash(3, clean.total_time * 0.55);
        let cfg = |p| {
            RunConfig::new(8, iterations)
                .with_exchange(mode)
                .with_checkpointing(2)
                .with_world(world(p))
                .with_validation()
        };
        let a = run(
            &terrain,
            &bf,
            &Metis::default(),
            || NoBalancer,
            &cfg(plan()),
        );
        assert_eq!(
            a.final_data, clean.final_data,
            "{mode:?}: recovery must be exact"
        );
        assert!(a.rollbacks >= 1, "{mode:?}: a crash must force a rollback");
        assert!(a.iterations_replayed > 0, "lost iterations must be re-run");
        assert!(a.checkpoint_bytes > 0, "snapshots were mirrored");
        assert!(a.faults.crash_timeouts > 0, "{:?}", a.faults);
        assert!(a.ranks_died.contains(&3));
        assert!(!a.final_owner.contains(&3), "a crashed rank owns nothing");
        assert!(
            a.total_time > clean.total_time,
            "re-run cost must be charged to the virtual clock"
        );

        // Bit-identical determinism, including the virtual-time total.
        let b = run(
            &terrain,
            &bf,
            &Metis::default(),
            || NoBalancer,
            &cfg(plan()),
        );
        assert_eq!(a.final_data, b.final_data);
        assert_eq!(a.rollbacks, b.rollbacks);
        assert_eq!(a.iterations_replayed, b.iterations_replayed);
        assert_eq!(a.checkpoint_bytes, b.checkpoint_bytes);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
        assert_eq!(
            a.negative_clamps, 0,
            "rollback recovery must not produce negative phase windows"
        );
    }
}

#[test]
fn crash_under_duplicates_counts_faults_identically_on_every_rerun() {
    // Rollback purges every survivor's mailbox. A stale duplicate or a
    // damaged frame cleared there must be counted whether or not an earlier
    // receive's cleanup happened to meet it first: the fault counters are a
    // function of the seed, not of which sources' frames arrived first.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    let plan = || {
        FaultPlan::new(chaos_seed(42))
            .with_drop(0.05)
            .with_delay(0.05, 2e-4)
            .with_dup(0.05)
            .with_reorder(0.05)
            .with_corrupt(0.05)
            .with_truncate(0.02)
            .with_crash(3, 0.05)
    };
    let cfg = || RunConfig::new(8, 20).with_world(world(plan()));
    let first = run(&graph, &program, &Metis::default(), || NoBalancer, &cfg());
    assert!(first.rollbacks >= 1, "the crash must roll back");
    assert!(first.faults.duplicated > 0, "{:?}", first.faults);
    for _ in 0..8 {
        let again = run(&graph, &program, &Metis::default(), || NoBalancer, &cfg());
        assert_eq!(again.faults, first.faults);
        assert_eq!(again.total_time.to_bits(), first.total_time.to_bits());
    }
}

#[test]
fn crash_at_every_iteration_sweep_recovers_exactly() {
    // Crash every rank at every iteration of a small workload: wherever
    // the crash lands — mid-exchange, mid-balance, during a checkpoint, or
    // in the final gather — the survivors must converge to the sequential
    // oracle, and a same-seed re-run must be bit-identical.
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

    for r in 0..nprocs {
        for i in 0..iterations {
            let at = clean_total * (i as f64 + 0.5) / iterations as f64;
            let plan = || FaultPlan::new(chaos_seed(13)).with_crash(r, at);
            let cfg = |p| {
                RunConfig::new(nprocs, iterations)
                    .with_balancing(3)
                    .with_checkpointing(2)
                    .with_world(world(p))
                    .with_validation()
            };
            let a = run(
                &graph,
                &program,
                &Metis::default(),
                CentralizedHeuristic::default,
                &cfg(plan()),
            );
            assert_eq!(a.final_data, oracle, "crash rank {r} at iteration {i}");
            assert!(a.rollbacks >= 1, "crash rank {r} at iteration {i}");
            assert!(a.iterations_replayed > 0, "crash rank {r} at iteration {i}");
            assert!(
                !a.final_owner.contains(&(r as u32)),
                "crash rank {r} at iteration {i}"
            );
            let b = run(
                &graph,
                &program,
                &Metis::default(),
                CentralizedHeuristic::default,
                &cfg(plan()),
            );
            assert_eq!(
                a.total_time.to_bits(),
                b.total_time.to_bits(),
                "crash rank {r} at iteration {i}: total time must be bit-identical"
            );
            assert_eq!(a.final_data, b.final_data);
        }
    }
}

#[test]
fn crash_inside_the_checkpoint_staging_window_recovers_exactly() {
    // The window between the iteration-end ctl_exchange and the mirror
    // send of the checkpoint it staged: the staging advance, the first
    // charge of a `Checkpoint` span (4 µs a snapshot entry, 36 µs for rank
    // 1's nine stored nodes), so a crash 1 µs into the span lands in it.
    let graph = ic2_graph::generators::hex_grid_n(16);
    let program = AvgProgram::fine();
    let iterations = 2u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let cfg = |crash_at: f64| {
        RunConfig::new(4, iterations)
            .with_checkpointing(1)
            .with_world(world(FaultPlan::new(1).with_crash(1, crash_at)))
            .with_validation()
    };

    // A crash that never comes keeps checkpointing on; the trace of that
    // run times rank 1's first staging, at the end of iteration 1 (the
    // genesis checkpoint stages nothing).
    let traced = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(1e9).with_tracing(),
    );
    let traces = traced.trace.expect("a traced run records a trace");
    let staging = (traces.iter().find(|(rank, _)| *rank == 1))
        .and_then(|(_, events)| {
            events.iter().find_map(|ev| match ev {
                ic2mpi::TraceEvent::Span {
                    name: "Checkpoint",
                    start,
                    ..
                } => Some(*start),
                _ => None,
            })
        })
        .expect("rank 1 stages a checkpoint");

    let report = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(staging + 1e-6),
    );
    assert_eq!(report.final_data, oracle, "recovery must be exact");
    assert!(report.rollbacks >= 1);
}

#[test]
fn two_crashes_at_distinct_boundaries_still_recover() {
    // Two crashes in one run, on a lossy network: the first rolls back and
    // re-mirrors over the shrunken ring, the second dies after that and
    // rolls back onto the re-mirrored checkpoint, and the answer stays
    // exact.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    let iterations = 12u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let clean_total = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(8, iterations).with_world(clean_world()),
    )
    .total_time;

    let plan = FaultPlan::new(chaos_seed(17))
        .with_drop(0.03)
        .with_crash(1, clean_total * 0.3)
        .with_crash(5, clean_total * 0.65);
    let cfg = RunConfig::new(8, iterations)
        .with_checkpointing(3)
        .with_world(world(plan))
        .with_validation();
    let report = run(&graph, &program, &Metis::default(), || NoBalancer, &cfg);
    assert_eq!(report.final_data, oracle);
    assert_eq!(report.ranks_died, vec![1, 5]);
    assert_eq!(report.rollbacks, 2, "one rollback per crash");
    assert!(!report.final_owner.contains(&1));
    assert!(!report.final_owner.contains(&5));
}

#[test]
fn corruption_at_escalating_rates_stays_oracle_exact() {
    // Bit-flip and truncation faults at escalating probabilities: the
    // checksummed framing must catch every damaged frame, the NACK +
    // retransmit loop must repair it within the retry budget, and the
    // result must stay byte-identical to the sequential oracle with a
    // bit-identical virtual-time total across repeated runs.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::shifting();
    let oracle = seq::run_sequential(&graph, &program, 20);
    let mut prev_retransmits = 0u64;
    for (i, p) in [0.01, 0.05, 0.15].into_iter().enumerate() {
        let plan = || {
            FaultPlan::new(chaos_seed(23))
                .with_corrupt(p)
                .with_truncate(p * 0.4)
        };
        let cfg = RunConfig::new(8, 20)
            .with_balancing(10)
            .with_world(world(plan()))
            .with_validation();
        let a = run(
            &graph,
            &program,
            &Metis::default(),
            || CentralizedHeuristic { threshold: 0.05 },
            &cfg,
        );
        assert_eq!(a.final_data, oracle, "p={p}: repair must be exact");
        assert!(a.faults.corrupted > 0, "p={p}: {:?}", a.faults);
        // A single decision can both truncate and bit-flip one frame, so
        // the per-kind counters may double-count mangle events; detections
        // must still cover every event at least once.
        assert!(
            a.faults.corruptions_detected >= a.faults.corrupted.max(a.faults.truncated),
            "p={p}: every mangled frame must be caught at least once: {:?}",
            a.faults
        );
        assert!(a.faults.retransmits > 0, "p={p}: {:?}", a.faults);
        assert!(a.faults.nacks > 0, "p={p}: {:?}", a.faults);
        // Fault decisions are pure threshold tests over the same hash
        // stream, so escalating the probability only adds decisions.
        assert!(
            a.faults.retransmits >= prev_retransmits,
            "retransmits must not shrink as corruption escalates: \
             {} at step {i} after {prev_retransmits}",
            a.faults.retransmits
        );
        prev_retransmits = a.faults.retransmits;

        let b = run(
            &graph,
            &program,
            &Metis::default(),
            || CentralizedHeuristic { threshold: 0.05 },
            &cfg,
        );
        assert_eq!(a.final_data, b.final_data, "p={p}");
        assert_eq!(a.faults, b.faults, "p={p}");
        assert_eq!(
            a.total_time.to_bits(),
            b.total_time.to_bits(),
            "p={p}: virtual time must be bit-identical under the same seed"
        );
        assert_eq!(a.negative_clamps, 0, "p={p}: no negative phase windows");
    }
}

#[test]
fn corruption_on_the_battlefield_matches_the_clean_run() {
    // The acceptance-criteria rates on the thesis battlefield: 5% bit
    // flips plus 2% truncations must repair to exactly the fault-free
    // answer, with the repair cost visible in the virtual clock.
    let bf = BattlefieldProgram::new(&Scenario::thesis());
    let terrain = bf.terrain();
    let clean = run(
        &terrain,
        &bf,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(8, 5).with_world(clean_world()),
    );
    let plan = FaultPlan::new(chaos_seed(29))
        .with_corrupt(0.05)
        .with_truncate(0.02);
    let chaotic = run(
        &terrain,
        &bf,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(8, 5).with_world(world(plan)),
    );
    assert_eq!(chaotic.final_data, clean.final_data);
    assert!(chaotic.faults.corrupted > 0, "{:?}", chaotic.faults);
    assert!(chaotic.faults.truncated > 0, "{:?}", chaotic.faults);
    assert!(chaotic.faults.retransmits > 0, "{:?}", chaotic.faults);
    assert!(
        chaotic.total_time > clean.total_time,
        "NACK backoff and retransmits must cost virtual time"
    );
}

#[test]
fn corruption_during_rollback_recovery_stays_exact() {
    // The combined scenario: a lossy, corrupting network *and* an
    // uncooperative crash. Retransmits must repair damage to checkpoint
    // mirrors and adoption packages while the rollback protocol runs, and
    // the recovered answer must still match the oracle bit-for-bit, twice.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::fine();
    let iterations = 10u32;
    let oracle = seq::run_sequential(&graph, &program, iterations);
    let clean_total = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &RunConfig::new(8, iterations).with_world(clean_world()),
    )
    .total_time;

    let plan = || {
        FaultPlan::new(chaos_seed(31))
            .with_corrupt(0.05)
            .with_truncate(0.02)
            .with_crash(3, clean_total * 0.55)
    };
    let cfg = |p| {
        RunConfig::new(8, iterations)
            .with_checkpointing(2)
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
        "corrupt + crash recovery must be exact"
    );
    assert!(a.rollbacks >= 1, "the crash must roll back");
    assert!(a.faults.corruptions_detected > 0, "{:?}", a.faults);
    assert!(a.faults.retransmits > 0, "{:?}", a.faults);
    assert!(a.ranks_died.contains(&3));
    assert!(!a.final_owner.contains(&3));

    let b = run(
        &graph,
        &program,
        &Metis::default(),
        || NoBalancer,
        &cfg(plan()),
    );
    assert_eq!(a.final_data, b.final_data);
    assert_eq!(a.rollbacks, b.rollbacks);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.total_time.to_bits(), b.total_time.to_bits());
}

#[test]
fn corruption_composes_with_every_message_fault() {
    // Every message-plane fault class at once. Drops and mangles interact
    // (a frame can be dropped on one attempt and corrupted on the next);
    // the reliable layer must still converge to the oracle.
    let graph = ic2_graph::generators::hex_grid_n(64);
    let program = AvgProgram::shifting();
    let oracle = seq::run_sequential(&graph, &program, 20);
    let plan = FaultPlan::new(chaos_seed(37))
        .with_drop(0.04)
        .with_delay(0.04, 2e-4)
        .with_dup(0.04)
        .with_reorder(0.04)
        .with_corrupt(0.04)
        .with_truncate(0.02);
    let cfg = RunConfig::new(8, 20)
        .with_balancing(10)
        .with_world(world(plan))
        .with_validation();
    let report = run(
        &graph,
        &program,
        &Metis::default(),
        || CentralizedHeuristic { threshold: 0.05 },
        &cfg,
    );
    assert_eq!(report.final_data, oracle);
    assert!(report.faults.dropped > 0, "{:?}", report.faults);
    assert!(report.faults.corrupted > 0, "{:?}", report.faults);
    assert!(report.faults.retransmits > 0, "{:?}", report.faults);
}
