//! The platform's contract, checked by generation: every admissible run
//! equals the sequential oracle or fails with a typed error, and a same-seed
//! rerun is identical to the bit.
//!
//! A seeded generator draws a graph, a rank count, an iteration count, the
//! exchange schedule, delta exchange, Diffusion balancing, checkpointing,
//! replication, audits, paging and the mailbox capacity, then a fault plan
//! whose times are fractions of the same configuration's fault-free run:
//! message faults, one crash, a minority partition, live rot under an audit
//! every iteration, replica rot, and disk faults under paging. A draw
//! passes when its run is oracle-exact, or is refused by the configuration
//! check, or ends in [`PlatformError::UnrecoverableState`] (every copy of
//! some rank's state lost); and when its rerun gives the same data, fault
//! counters and `total_time` bits, or the same error. A watchdog
//! ([`PlatformError::RankPanicked`]), an internal invariant or a
//! flow-control deadlock fails it.
//!
//! Tier 1 runs [`DRAWS`] draws; `CHAOS_SEED` picks the stream. The
//! `#[ignore]`d sweep runs [`SWEEP_DRAWS`] in release:
//!
//! ```text
//! CHAOS_SEED=1 cargo test --release -p ic2-integration --test contract -- --ignored
//! ```

use ic2_integration::chaos_seed;
use ic2_rng::SplitMix64;
use ic2mpi::prelude::*;
use ic2mpi::seq;
use mpisim::{DiskFault, FaultPlan, MemRegion, NetModel};
use std::time::Duration;

const DRAWS: u64 = 48;
const SWEEP_DRAWS: u64 = 2_000;

/// A drawn run: everything but the fault plan.
struct Draw {
    graph: Graph,
    program: AvgProgram,
    cfg: RunConfig,
    /// What was drawn, for the failure report.
    what: Vec<String>,
}

impl Draw {
    fn run(&self, plan: FaultPlan) -> Result<RunReport<i64>, PlatformError> {
        let cfg = (self.cfg.clone()).with_world(self.cfg.world.clone().with_faults(plan));
        let balancer = || Diffusion { threshold: 0.1 };
        try_run(
            &self.graph,
            &self.program,
            &Metis::default(),
            balancer,
            &cfg,
        )
    }
}

fn uniform(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// Draw everything but the fault plan.
fn draw_config(rng: &mut SplitMix64) -> Draw {
    let (name, graph) = match rng.below(3) {
        0 => ("hex 64", ic2_graph::generators::hex_grid_n(64)),
        1 => ("hex 96", ic2_graph::generators::hex_grid_n(96)),
        _ => (
            "random 80",
            ic2_graph::generators::thesis_random_graph(80, 1),
        ),
    };
    let nprocs = rng.gen_range_incl(1..=8);
    let iterations = rng.gen_range_incl(3..=14) as u32;
    let (program, grain) = match rng.chance(0.5) {
        true => (AvgProgram::shifting(), "shifting"),
        false => (AvgProgram::fine(), "fine"),
    };
    let mut what = vec![format!(
        "{name}, {nprocs} ranks, {iterations} iterations, {grain} grain"
    )];
    let mut cfg = RunConfig::new(nprocs, iterations).with_validation();
    if rng.chance(0.5) {
        cfg = cfg.with_exchange(ExchangeMode::Overlap);
        what.push("overlap".into());
    }
    if rng.chance(0.3) {
        cfg = cfg.with_delta_exchange();
        what.push("delta".into());
    }
    if rng.chance(0.3) {
        let every = rng.gen_range_incl(2..=5) as u32;
        let batch = rng.gen_range_incl(1..=4) as u32;
        let offset = rng.below(4) as u32;
        let policy = match rng.chance(0.5) {
            true => MigrantPolicy::LoadAware,
            false => MigrantPolicy::MinCut,
        };
        cfg = cfg
            .with_balancing(every)
            .with_migration_batch(batch)
            .with_balance_offset(offset)
            .with_migrant_policy(policy);
        what.push(format!(
            "diffusion every {every} (offset {offset}, batch {batch}, {policy:?})"
        ));
    }
    let every = rng.gen_range_incl(1..=5) as u32;
    let replication = rng.gen_range_incl(1..=3) as u32;
    cfg = cfg.with_checkpointing(every).with_replication(replication);
    what.push(format!(
        "checkpoint every {every}, replication {replication}"
    ));
    if rng.chance(0.3) {
        let k = rng.gen_range_incl(1..=3) as u32;
        cfg = cfg.with_state_audit(k);
        what.push(format!("audit every {k}"));
    }
    if rng.chance(0.25) {
        let pages = rng.gen_range_incl(4..=32);
        let budget = rng.gen_range_incl(1..=8);
        cfg = cfg
            .with_hash_buckets(pages)
            .with_paging(budget, EvictionPolicy::Sieve);
        what.push(format!("paging {budget} of {pages} pages"));
    }
    // The virtual-time world, with a 10 s watchdog.
    let mut world =
        mpisim::Config::virtual_time(NetModel::origin2000()).with_watchdog(Duration::from_secs(10));
    if rng.chance(0.4) {
        let c = rng.gen_range_incl(2..=8);
        world = world.with_mailbox_capacity(c);
        what.push(format!("mailbox capacity {c}"));
    }
    Draw {
        graph,
        program,
        cfg: cfg.with_world(world),
        what,
    }
}

/// Draw a fault plan for `d`, whose fault-free run took `clean` virtual
/// seconds. Live rot sets `d`'s audit to every iteration, the one interval
/// at which it is admissible.
fn draw_plan(rng: &mut SplitMix64, d: &mut Draw, clean: f64) -> FaultPlan {
    let nprocs = d.cfg.nprocs;
    let mut plan = FaultPlan::new(rng.next_u64());
    let what = &mut d.what;
    let mut message = |name: &str, rng: &mut SplitMix64| {
        let p = uniform(rng, 0.01, 0.08);
        what.push(format!("{name} {p:.3}"));
        p
    };
    if rng.chance(0.25) {
        plan = plan.with_drop(message("drop", rng));
    }
    if rng.chance(0.25) {
        plan = plan.with_corrupt(message("corrupt", rng));
    }
    if rng.chance(0.2) {
        plan = plan.with_truncate(message("truncate", rng));
    }
    if rng.chance(0.25) {
        plan = plan.with_dup(message("dup", rng));
    }
    if rng.chance(0.25) {
        plan = plan.with_reorder(message("reorder", rng));
    }
    if rng.chance(0.2) {
        plan = plan.with_delay(message("delay", rng), 2e-4);
    }
    if nprocs >= 2 && rng.chance(0.3) {
        let rank = rng.gen_range(0..nprocs);
        let at = clean * uniform(rng, 0.0, 1.1);
        plan = plan.with_crash(rank, at);
        what.push(format!("crash rank {rank} at {at:.6}"));
    }
    if nprocs >= 3 && rng.chance(0.3) {
        let mut ranks: Vec<usize> = (0..nprocs).collect();
        rng.shuffle(&mut ranks);
        let minority = ranks.split_off(nprocs - rng.gen_range_incl(1..=(nprocs - 1) / 2));
        let from = clean * uniform(rng, 0.0, 0.9);
        let until = from + clean * uniform(rng, 0.05, 0.4);
        what.push(format!("cut {minority:?} from {from:.6} to {until:.6}"));
        plan = plan
            .with_partition(vec![ranks, minority], from, until)
            .with_detect_timeout(1e-4);
    }
    if rng.chance(0.15) {
        let rank = rng.gen_range(0..nprocs);
        let p = uniform(rng, 0.002, 0.02);
        plan = match rng.below(3) {
            0 => plan.with_memory_corrupt_in(rank, MemRegion::Owned, p),
            1 => plan.with_memory_corrupt_in(rank, MemRegion::Shadow, p),
            _ => plan.with_memory_corrupt(rank, p),
        };
        d.cfg = d.cfg.clone().with_state_audit(1);
        what.push(format!("live rot on rank {rank} at {p:.4}, audit every 1"));
    }
    if rng.chance(0.15) {
        let rank = rng.gen_range(0..nprocs);
        let p = uniform(rng, 0.01, 0.5);
        plan = plan.with_memory_corrupt_in(rank, MemRegion::Replica, p);
        what.push(format!("replica rot on rank {rank} at {p:.3}"));
    }
    if d.cfg.paging.is_some() && rng.chance(0.5) {
        let kinds = [
            DiskFault::TransientError,
            DiskFault::TornWrite,
            DiskFault::ReadRot,
        ];
        for _ in 0..rng.gen_range_incl(1..=3) {
            let rank = rng.gen_range(0..nprocs);
            let kind = *rng.choose(&kinds).unwrap_or(&DiskFault::ReadRot);
            let p = uniform(rng, 0.005, 0.05);
            plan = plan.with_disk_fault(rank, kind, p);
            what.push(format!("{kind:?} on rank {rank} at {p:.3}"));
        }
    }
    plan
}

/// Is `e` an outcome the contract allows: a refusal of the configuration,
/// or every copy of some rank's state gone?
fn admissible(e: &PlatformError) -> bool {
    matches!(
        e,
        PlatformError::ZeroKnob(_)
            | PlatformError::LiveRotNeedsAuditEveryIteration { .. }
            | PlatformError::BadFaultPlan(_)
            | PlatformError::TooManyRanksForVerdictPlane(_)
            | PlatformError::UnrecoverableState { .. }
    )
}

/// Run draw `index` of the stream seeded `seed`; `Err` says how it broke
/// the contract.
fn check(seed: u64, index: u64) -> Result<(), String> {
    let mut rng = SplitMix64::new(ic2_rng::mix64(seed ^ index.wrapping_mul(0x9E37_79B9)));
    let mut d = draw_config(&mut rng);
    let fail = |d: &Draw, why: String| Err(format!("{}: {why}", d.what.join(", ")));
    let clean = match d.run(FaultPlan::new(seed)) {
        Ok(r) => r.total_time,
        Err(e) => return fail(&d, format!("fault-free run failed: {e}")),
    };
    let plan = draw_plan(&mut rng, &mut d, clean);
    let oracle = seq::run_sequential(&d.graph, &d.program, d.cfg.iterations);
    let (a, b) = (d.run(plan.clone()), d.run(plan));
    match (a, b) {
        (Ok(a), Ok(b)) => {
            if a.final_data != oracle {
                let wrong = (a.final_data.iter().zip(&oracle)).filter(|(x, y)| x != y);
                return fail(
                    &d,
                    format!("{} values differ from the oracle", wrong.count()),
                );
            }
            let bits = |r: &RunReport<i64>| r.total_time.to_bits();
            if a.final_data != b.final_data || bits(&a) != bits(&b) || a.faults != b.faults {
                return fail(
                    &d,
                    format!("the rerun differs: {:?} vs {:?}", a.faults, b.faults),
                );
            }
            Ok(())
        }
        (Err(a), Err(b)) if admissible(&a) && a == b => Ok(()),
        (Err(a), Err(b)) if admissible(&a) => fail(&d, format!("{a}, then on rerun {b}")),
        (Err(e), _) | (_, Err(e)) => fail(&d, e.to_string()),
    }
}

/// Check `draws` draws of the `CHAOS_SEED` stream, reporting every failure.
fn sweep(draws: u64) {
    let seed = chaos_seed(1);
    let failures: Vec<String> = (0..draws)
        .filter_map(|i| check(seed, i).err().map(|why| format!("draw {i}: {why}")))
        .collect();
    assert!(
        failures.is_empty(),
        "{} of {draws} draws (seed {seed}) broke the contract:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn generated_runs_are_exact_or_typed_and_repeat_to_the_bit() {
    sweep(DRAWS);
}

#[test]
#[ignore = "2 000 draws; run in release"]
fn the_contract_holds_over_a_long_sweep() {
    sweep(SWEEP_DRAWS);
}

/// Stream 3, draw 980: 6 ranks, rank 1 crashes, then a cut isolates rank 2,
/// which holds the only replica rank 5 must adopt from. Rank 5's restore
/// fails across the cut while every other rank's completes, and the
/// agreement round suspects rank 2: no rank may install its restore then.
#[test]
fn a_restore_failed_across_a_cut_installs_on_no_rank() {
    check(3, 980).unwrap();
}
