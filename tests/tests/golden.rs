//! Cross-commit golden file: the platform's observable behaviour, to the
//! bit, for one fixed-seed configuration per layer on both control planes.
//!
//! Every other suite compares a run with the oracle or with its own rerun;
//! none of them can see a refactor that moves *both* runs. This one pins
//! each configuration's `total_time` bits, a checksum of the wire bytes of
//! `final_data`, a checksum of the rendered Chrome trace, and four counts
//! against `tests/golden/engine.txt`, which was generated at the commit
//! before the iteration engine replaced the three per-rank drivers.
//!
//! There is no bless switch. On a mismatch the test prints the table it
//! computed; a line may only be replaced when a bugfix provably changes it,
//! and EXPERIMENTS.md lists every such line. Seeds are fixed: `CHAOS_SEED`
//! is never read here.

use ic2_integration::world;
use ic2mpi::prelude::*;
use ic2mpi::{chrome_trace_json, EvictionPolicy, ExchangeMode};
use mpisim::{DiskFault, FaultPlan, MemRegion, Wire};

const NPROCS: usize = 8;
const ITERATIONS: u32 = 12;

fn base() -> RunConfig {
    RunConfig::new(NPROCS, ITERATIONS).with_checkpointing(3)
}

/// FNV-1a, 64 bit.
fn checksum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn everyone(mut plan: FaultPlan, f: impl Fn(FaultPlan, usize) -> FaultPlan) -> FaultPlan {
    for r in 0..NPROCS {
        plan = f(plan, r);
    }
    plan
}

fn line(name: &str, program: &AvgProgram, cfg: RunConfig) -> String {
    let graph = ic2_graph::generators::hex_grid_n(64);
    let cfg = cfg.with_tracing().with_validation();
    let balancer = || Diffusion { threshold: 0.1 };
    match try_run(&graph, program, &Metis::default(), balancer, &cfg) {
        Ok(r) => format!(
            "{name} time={:016x} data={:016x} trace={:016x} barriers={} messages={} rollbacks={} migrations={}",
            r.total_time.to_bits(),
            checksum(&r.final_data.to_bytes()),
            checksum(chrome_trace_json(r.trace.as_deref().expect("tracing is on")).as_bytes()),
            r.comm.iter().map(|c| c.barriers).sum::<u64>(),
            r.comm.iter().map(|c| c.msgs_sent).sum::<u64>(),
            r.rollbacks,
            r.migrations,
        ),
        Err(e) => format!("{name} error={e}"),
    }
}

#[test]
fn every_layer_on_both_planes_matches_the_golden_file() {
    let fine = AvgProgram::fine();
    let shifting = AvgProgram::shifting();
    // The fault-free run every fault time below is a fraction of.
    let clean = {
        let graph = ic2_graph::generators::hex_grid_n(64);
        let cfg = RunConfig::new(NPROCS, ITERATIONS).with_world(world(FaultPlan::new(1)));
        run(&graph, &fine, &Metis::default(), || NoBalancer, &cfg).total_time
    };
    let at = |fraction: f64| clean * fraction;
    let plan = |seed: u64| FaultPlan::new(seed);
    let cut = |seed: u64, groups: Vec<Vec<usize>>| {
        plan(seed)
            .with_partition(groups, at(0.4), at(0.75))
            .with_detect_timeout(5e-4)
    };
    let minority = || vec![vec![0, 1, 2, 3, 4, 5], vec![6, 7]];
    let rot = |p: FaultPlan| everyone(p, |p, r| p.with_memory_corrupt(r, 0.008));
    let disk_faults = |p: FaultPlan, read_rot: f64| {
        everyone(p, |p, r| {
            p.with_disk_fault(r, DiskFault::TransientError, 0.02)
                .with_disk_fault(r, DiskFault::TornWrite, 0.01)
                .with_disk_fault(r, DiskFault::ReadRot, read_rot)
        })
    };
    let paged = || {
        base()
            .with_hash_buckets(16)
            .with_paging(4, EvictionPolicy::Sieve)
    };

    let table = [
        // The thesis's plane: barriers, allgathers and gathers.
        line("postcomm", &fine, base().with_world(world(plan(1)))),
        line(
            "overlap",
            &fine,
            base()
                .with_exchange(ExchangeMode::Overlap)
                .with_world(world(plan(2))),
        ),
        line(
            "delta",
            &shifting,
            base().with_delta_exchange().with_world(world(plan(3))),
        ),
        line(
            "diffusion",
            &shifting,
            base()
                .with_balancing(4)
                .with_migration_batch(4)
                .with_world(world(plan(4))),
        ),
        line(
            "capacity2",
            &fine,
            base().with_world(world(plan(7).with_drop(0.05)).with_mailbox_capacity(2)),
        ),
        // The verdict plane: checkpoints, rollback, audits, paging.
        line(
            "crash",
            &fine,
            base().with_world(world(plan(9).with_drop(0.03).with_crash(3, at(0.5)))),
        ),
        line(
            "crash_balancing",
            &shifting,
            base()
                .with_balancing(4)
                .with_migration_batch(4)
                .with_world(world(
                    plan(10).with_crash(1, at(0.3)).with_crash(5, at(0.65)),
                )),
        ),
        line(
            "rot_audit1",
            &fine,
            base()
                .with_state_audit(1)
                .with_replication(3)
                .with_world(world(rot(plan(11)))),
        ),
        line(
            "replica_rot_crash",
            &fine,
            base().with_replication(2).with_world(world(
                plan(12)
                    .with_crash(2, at(0.55))
                    .with_memory_corrupt_in(3, MemRegion::Replica, 1.0),
            )),
        ),
        line("paging", &fine, paged().with_world(world(plan(13)))),
        line(
            "paging_disk_faults",
            &fine,
            paged()
                .with_delta_exchange()
                .with_world(world(disk_faults(plan(14), 0.02))),
        ),
        line(
            "paging_lost_page",
            &fine,
            paged().with_world(world(disk_faults(plan(14), 0.05))),
        ),
        line(
            "crash_delta_capacity2",
            &shifting,
            base().with_delta_exchange().with_world(
                world(plan(16).with_corrupt(0.04).with_crash(6, at(0.45))).with_mailbox_capacity(2),
            ),
        ),
        // The verdict plane with membership on.
        line(
            "partition",
            &fine,
            base().with_world(world(cut(17, minority()))),
        ),
        line(
            "partition_crash",
            &fine,
            base().with_world(world(cut(18, minority()).with_crash(2, at(0.2)))),
        ),
        line(
            "partition_delta_balancing",
            &shifting,
            base()
                .with_delta_exchange()
                .with_balancing(4)
                .with_world(world(cut(19, minority()))),
        ),
        line(
            "partition_rot",
            &fine,
            base()
                .with_state_audit(1)
                .with_replication(3)
                .with_world(world(rot(cut(20, minority())))),
        ),
        line(
            "no_quorum",
            &fine,
            base().with_world(world(cut(21, vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]]))),
        ),
    ];

    let actual = table.join("\n") + "\n";
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/engine.txt");
    let golden = std::fs::read_to_string(path).unwrap_or_default();
    assert!(
        actual == golden,
        "behaviour differs from {path}; the table this build computes:\n{actual}"
    );
}
