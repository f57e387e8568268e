//! The six workloads and the loop that measures one of them.
//!
//! Every workload is generated from `--seed`; the platform only ever sees
//! the generated graph, program, partition and fault plan. Shapes are fixed
//! by the issue that defined the benchmark; iteration counts are sized so
//! one `try_run` takes about half a second to a second on two cores. Run
//! times differ by several percent from one run to the next (rank threads
//! land on cores and allocator arenas differently each time), so a steady
//! median needs many short runs rather than a few long ones.

use crate::api::*;
use crate::host;
use crate::stats::median;
use crate::tracer::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// What the command line asked of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// How long the timed repetitions go on for.
    pub seconds: f64,
    /// About 1/50 size, one repetition: correctness only.
    pub smoke: bool,
    /// Produce the per-workload layer metrics instead of the end-to-end ones.
    pub trace: bool,
}

/// Runs attempted and failed, and the named values measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// The samples behind every metric that is a median of several.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    /// Why each failed run failed.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn put_median(&mut self, name: &'static str, samples: Vec<f64>) {
        self.put(name, median(&samples));
        self.samples.push((name, samples));
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }
}

/// One set-up: the generated inputs and how long each half took.
struct Setup<P> {
    graph: Graph,
    program: P,
    partition: Partition,
    generate_s: f64,
    partition_s: f64,
}

/// Hands `try_run` a partition computed during set-up, so that a timed run
/// is world spawn → store build → iterations → gather and nothing else:
/// `try_run` calls its partitioner on every run, and Metis on the 512x512
/// grid takes longer than the run itself.
struct Precomputed<'a>(&'a Partition);

impl StaticPartitioner for Precomputed<'_> {
    fn name(&self) -> &'static str {
        "precomputed"
    }
    fn partition(&self, _graph: &Graph, _nparts: usize) -> Partition {
        self.0.clone()
    }
}

/// A workload: how to set it up and how to configure a run of it.
struct Case<P, B> {
    ranks: usize,
    iterations: u32,
    generate: Box<dyn Fn() -> (Graph, P)>,
    partitioner: Box<dyn StaticPartitioner>,
    balancer: fn() -> B,
    /// The run configuration for a number of iterations, given the virtual
    /// seconds a fault-free run of the full length takes (zero unless
    /// `needs_clean_run`).
    config: Box<dyn Fn(u32, f64) -> RunConfig>,
    /// The fault plan places its events at fractions of a clean run's
    /// virtual time, so one is run first (outside `setup_s` and `run_s`).
    needs_clean_run: bool,
}

/// The degree-skewed graph of `skew100k_comm`: preferential attachment,
/// each new node linking to `m` distinct earlier nodes chosen in proportion
/// to their degree. Returned unbuilt so the builder can be timed alone.
pub fn skew_builder(n: usize, m: usize, seed: u64) -> GraphBuilder {
    assert!(n > m, "need more nodes than links per node");
    let mut rng = SplitMix64::new(seed);
    let mut builder = GraphBuilder::new(n);
    // Every edge lists both its ends here, so a uniform draw from the list
    // is a draw in proportion to degree.
    let mut ends: Vec<u32> = Vec::with_capacity(2 * n * m);
    for u in 0..=m as u32 {
        for v in 0..u {
            builder.edge(v, u);
            ends.extend([v, u]);
        }
    }
    let mut picked: Vec<u32> = Vec::with_capacity(m);
    for v in (m + 1) as u32..n as u32 {
        picked.clear();
        while picked.len() < m {
            let target = ends[rng.below(ends.len() as u64) as usize];
            if !picked.contains(&target) {
                picked.push(target);
            }
        }
        for &target in &picked {
            builder.edge(target, v);
            ends.extend([target, v]);
        }
    }
    builder
}

/// Ranks the chaos plan singles out; fixed so that only the decision seed
/// differs between seeds and every seed pays for the same repairs.
const CRASHED_RANK: usize = 3;
const ROTTING_RANK: usize = 5;
const CUT_OFF_RANK: usize = 7;

/// The fault plan of `hex16k_chaos` on 8 ranks, given the virtual seconds a
/// clean run takes: 5 % drop, 5 % corrupt, 2 % truncate, one crash at 30 %,
/// a 7-vs-1 partition from 50 % to 70 %, and memory rot on one rank.
///
/// Rot is aimed at the shadow and replica regions, which are repaired by a
/// resync or a replica re-adoption. Rot in owned data costs a rollback per
/// hit, and at any rate that hits at all the number of hits differs so much
/// between seeds (7 to 15 rollbacks at 1e-5) that `run_s` would not repeat
/// within its bound; the crash and the heal already take the rollback path.
pub fn chaos_plan(seed: u64, clean_virtual_s: f64) -> FaultPlan {
    let majority: Vec<usize> = (0..8).filter(|&r| r != CUT_OFF_RANK).collect();
    FaultPlan::new(seed)
        .with_drop(0.05)
        .with_corrupt(0.05)
        .with_truncate(0.02)
        .with_crash(CRASHED_RANK, 0.3 * clean_virtual_s)
        .with_partition(
            vec![majority, vec![CUT_OFF_RANK]],
            0.5 * clean_virtual_s,
            0.7 * clean_virtual_s,
        )
        .with_memory_corrupt_in(ROTTING_RANK, MemRegion::Shadow, 1e-4)
        .with_memory_corrupt_in(ROTTING_RANK, MemRegion::Replica, 1e-4)
}

fn hex1m_bsp(smoke: bool) -> Case<AvgProgram, NoBalancer> {
    let side = if smoke { 140 } else { 1000 };
    Case {
        ranks: 16,
        iterations: if smoke { 4 } else { 8 },
        generate: Box::new(move || (hex_grid(side, side), AvgProgram::fine())),
        partitioner: Box::new(RowBand),
        balancer: || NoBalancer,
        config: Box::new(|iterations, _| RunConfig::new(16, iterations).with_hash_buckets(512)),
        needs_clean_run: false,
    }
}

fn hex64_sync(smoke: bool) -> Case<AvgProgram, NoBalancer> {
    Case {
        ranks: 8,
        iterations: if smoke { 160 } else { 4000 },
        generate: Box::new(|| (hex_grid(8, 8), AvgProgram::fine())),
        partitioner: Box::new(Metis::default()),
        balancer: || NoBalancer,
        config: Box::new(|iterations, _| RunConfig::new(8, iterations)),
        needs_clean_run: false,
    }
}

fn battlefield_dyn(smoke: bool, seed: u64) -> Case<BattlefieldProgram, Diffusion> {
    // The thesis scenario (32x32, six columns deep, up to three units per
    // cell) scaled to the terrain.
    let side = if smoke { 20 } else { 128 };
    let scenario = Scenario {
        rows: side,
        cols: side,
        deployment_depth: side * 3 / 16,
        max_units_per_cell: 3,
        seed,
    };
    Case {
        ranks: 8,
        iterations: if smoke { 10 } else { 20 },
        generate: Box::new(move || {
            let program = BattlefieldProgram::new(&scenario);
            (program.terrain(), program)
        }),
        partitioner: Box::new(Metis::default()),
        balancer: || Diffusion { threshold: 0.10 },
        config: Box::new(|steps, _| {
            RunConfig::new(8, steps)
                .with_balancing(10)
                .with_balance_offset(5)
                .with_migration_batch(12)
                .with_migrant_policy(MigrantPolicy::LoadAware)
        }),
        needs_clean_run: false,
    }
}

fn skew100k_comm(smoke: bool, seed: u64) -> Case<AvgProgram, NoBalancer> {
    let nodes = if smoke { 2_000 } else { 100_000 };
    Case {
        ranks: 8,
        iterations: if smoke { 3 } else { 8 },
        generate: Box::new(move || (skew_builder(nodes, 4, seed).build(), AvgProgram::fine())),
        // Metis is deliberately not used: it takes minutes on this graph.
        partitioner: Box::new(BlockPartition),
        balancer: || NoBalancer,
        config: Box::new(|iterations, _| RunConfig::new(8, iterations)),
        needs_clean_run: false,
    }
}

fn hex256k_paged(smoke: bool) -> Case<AvgProgram, NoBalancer> {
    let side = if smoke { 72 } else { 512 };
    Case {
        ranks: 16,
        iterations: 1,
        generate: Box::new(move || (hex_grid(side, side), AvgProgram::fine())),
        partitioner: Box::new(Metis::default()),
        balancer: || NoBalancer,
        // 64 of 512 pages resident. One iteration faults a page in for
        // nearly every update, like every later one; the checkpoint interval
        // is cut with the iterations so that one is still staged and
        // committed, at the end of the run.
        config: Box::new(|iterations, _| {
            RunConfig::new(16, iterations)
                .with_hash_buckets(512)
                .with_paging(64, EvictionPolicy::Sieve)
                .with_checkpointing(1)
        }),
        needs_clean_run: false,
    }
}

fn hex16k_chaos(smoke: bool, seed: u64) -> Case<AvgProgram, NoBalancer> {
    let side = if smoke { 32 } else { 128 };
    Case {
        ranks: 8,
        iterations: if smoke { 40 } else { 120 },
        generate: Box::new(move || (hex_grid(side, side), AvgProgram::fine())),
        partitioner: Box::new(Metis::default()),
        balancer: || NoBalancer,
        // Audits every iteration: at a longer interval live rot can reach
        // the answer (ROADMAP item 4), and the oracle check below is what
        // would catch a relapse.
        config: Box::new(move |iterations, clean_virtual_s| {
            RunConfig::new(8, iterations)
                .with_partition_tolerance()
                .with_delta_exchange()
                .with_state_audit(1)
                .with_checkpointing(10)
                .with_world(Config::default().with_faults(chaos_plan(seed, clean_virtual_s)))
        }),
        needs_clean_run: true,
    }
}

/// Measure the workload called `name`.
pub fn run(name: &str, opts: &Options, tracer: &mut Tracer) -> Result<Outcome, String> {
    let (smoke, seed) = (opts.smoke, opts.seed);
    Ok(match name {
        "hex1m_bsp" => drive(hex1m_bsp(smoke), opts, tracer),
        "hex64_sync" => drive(hex64_sync(smoke), opts, tracer),
        "battlefield_dyn" => drive(battlefield_dyn(smoke, seed), opts, tracer),
        "skew100k_comm" => drive(skew100k_comm(smoke, seed), opts, tracer),
        "hex256k_paged" => drive(hex256k_paged(smoke), opts, tracer),
        "hex16k_chaos" => drive(hex16k_chaos(smoke, seed), opts, tracer),
        _ => return Err(format!("unknown workload {name:?}")),
    })
}

/// One `try_run` under a span: its report and wall-clock seconds, or why it
/// failed. A panic inside the platform is a failed run, not a dead harness.
fn run_once<P: NodeProgram, B: DynamicBalancer>(
    tracer: &mut Tracer,
    span: &str,
    setup: &Setup<P>,
    balancer: fn() -> B,
    cfg: &RunConfig,
) -> Result<(RunReport<P::Data>, f64), String> {
    let (result, seconds) = tracer.time(span, |_| {
        catch_unwind(AssertUnwindSafe(|| {
            try_run(
                &setup.graph,
                &setup.program,
                &Precomputed(&setup.partition),
                balancer,
                cfg,
            )
        }))
    });
    match result {
        Ok(Ok(report)) => Ok((report, seconds)),
        Ok(Err(e)) => Err(format!("{span}: {e:?}: {e}")),
        Err(_) => Err(format!("{span}: panicked")),
    }
}

fn drive<P, B>(case: Case<P, B>, opts: &Options, tracer: &mut Tracer) -> Outcome
where
    P: NodeProgram,
    B: DynamicBalancer,
{
    let mut out = Outcome::default();

    // ---- Set-up: generate + partition, sampled for at least a second -----
    // (a set-up longer than that is sampled once; the traced pass does not
    // report `setup_s` and sets up once).
    let mut setup_samples = Vec::new();
    let setup = loop {
        let (setup, seconds) = tracer.time("setup", |t| {
            let ((graph, program), generate_s) = t.time("generate", |_| (case.generate)());
            let (partition, partition_s) = t.time("partition", |_| {
                case.partitioner.partition(&graph, case.ranks)
            });
            Setup {
                graph,
                program,
                partition,
                generate_s,
                partition_s,
            }
        });
        setup_samples.push(seconds);
        let enough = setup_samples.iter().sum::<f64>() >= 1.0 || setup_samples.len() >= 2000;
        if enough || opts.smoke || opts.trace {
            break setup;
        }
    };
    let nodes = setup.graph.num_nodes();
    let updates = nodes as f64 * case.iterations as f64 * setup.program.phases() as f64;

    // ---- Oracle, and the clean calibration run the chaos plan needs ------
    let (oracle, oracle_s) = tracer.time("oracle", |_| {
        run_sequential(&setup.graph, &setup.program, case.iterations)
    });
    let verified_run = |out: &mut Outcome,
                        tracer: &mut Tracer,
                        span: &str,
                        cfg: &RunConfig,
                        expect: &[P::Data]| {
        out.attempted += 1;
        match run_once(tracer, span, &setup, case.balancer, cfg) {
            Ok((report, seconds)) => {
                let (exact, _) = tracer.time("verify", |_| report.final_data == expect);
                if exact {
                    return Some((report, seconds));
                }
                out.fail(format!(
                    "{span}: final data differs from the sequential oracle"
                ));
            }
            Err(why) => out.fail(why),
        }
        None
    };
    let clean_virtual_s = if case.needs_clean_run {
        let clean = RunConfig::new(case.ranks, case.iterations);
        match verified_run(&mut out, tracer, "clean-run", &clean, &oracle) {
            Some((report, _)) => report.total_time,
            None => return out,
        }
    } else {
        0.0
    };
    let cfg = (case.config)(case.iterations, clean_virtual_s);

    // ---- Warm-up: untimed, and the source of every count -----------------
    reset_payload_metrics();
    let Some((first, _)) = verified_run(&mut out, tracer, "warm-up", &cfg, &oracle) else {
        return out;
    };
    let payload_allocs = payload_metrics().allocs;
    // Sampled here and not at exit, so that it does not depend on how many
    // repetitions fit into `--seconds` (the allocator's arenas keep growing
    // for a few runs as rank threads come and go).
    let peak_rss_mb = host::peak_rss_mb();

    // ---- Timed repetitions ------------------------------------------------
    // A repetition counts only if it is oracle-exact and its virtual time
    // is bit-identical to the first run's.
    let timed_run = |out: &mut Outcome, tracer: &mut Tracer, span: &str| {
        let (report, seconds) = verified_run(out, tracer, span, &cfg, &oracle)?;
        if report.total_time.to_bits() != first.total_time.to_bits() {
            out.fail(format!(
                "{span}: virtual time {} differs from the first run's {}",
                report.total_time, first.total_time
            ));
            return None;
        }
        Some(seconds)
    };
    if !opts.trace {
        let mut runs = Vec::new();
        let began = Instant::now();
        let min_runs = if opts.smoke { 1 } else { 3 };
        while runs.len() < min_runs || (!opts.smoke && began.elapsed().as_secs_f64() < opts.seconds)
        {
            let span = format!("try_run[{}]", runs.len());
            match timed_run(&mut out, tracer, &span) {
                Some(seconds) => runs.push(seconds),
                None => return out,
            }
        }
        let per_update: Vec<f64> = runs.iter().map(|s| s * 1e9 / updates).collect();
        out.put_median("setup_s", setup_samples);
        out.put_median("run_s", runs);
        out.put_median("ns_per_update", per_update);
        out.put("peak_rss_mb", peak_rss_mb);
        return out;
    }

    // ---- Traced pass: the same run with and without spans, then the fixed
    // cost of a run that iterates zero times ---------------------------------
    // Each pair is one run without spans and one with, adjacent in time so
    // that a drifting host cancels out of their ratio; the order alternates.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let began = Instant::now();
    // Three pairs at least; short runs scatter more and get up to eight,
    // within five seconds.
    let enough = |pairs: usize| {
        let seconds = began.elapsed().as_secs_f64();
        (opts.smoke && pairs >= 1) || pairs >= 8 || (pairs >= 3 && seconds >= 5.0)
    };
    while !enough(plain.len()) {
        let pair = plain.len();
        for half in 0..2 {
            let recording = (pair + half) % 2 == 1;
            tracer.recording = recording;
            let seconds = timed_run(&mut out, tracer, &format!("try_run[{pair}]"));
            tracer.recording = true;
            match seconds {
                Some(seconds) if recording => traced.push(seconds),
                Some(seconds) => plain.push(seconds),
                None => return out,
            }
        }
    }
    let cfg0 = (case.config)(0, clean_virtual_s);
    let initial = run_sequential(&setup.graph, &setup.program, 0);
    let mut fixed = Vec::new();
    for i in 0..if opts.smoke { 1 } else { 3 } {
        match verified_run(
            &mut out,
            tracer,
            &format!("try_run-0-iterations[{i}]"),
            &cfg0,
            &initial,
        ) {
            Some((_, seconds)) => fixed.push(seconds),
            None => return out,
        }
    }

    let run_s = median(&[plain.as_slice(), traced.as_slice()].concat());
    let fixed_s = median(&fixed);
    out.put("virtual_s", first.total_time);
    out.put("core.updates", updates);
    out.put("core.seq.ns_per_update", oracle_s * 1e9 / updates);
    out.put("host.oracle_x", run_s / oracle_s);
    out.put("host.fixed_s", fixed_s);
    out.put(
        "host.iter_ms",
        (run_s - fixed_s) * 1e3 / case.iterations as f64,
    );
    out.put(
        "graph.workload_gen_ns_per_node",
        setup.generate_s * 1e9 / nodes as f64,
    );
    out.put(
        "partition.workload_ns_per_node",
        setup.partition_s * 1e9 / nodes as f64,
    );
    out.put(
        "partition.edge_cut",
        edge_cut(&setup.graph, &setup.partition) as f64,
    );
    out.put(
        "partition.imbalance",
        imbalance(&setup.graph, &setup.partition),
    );
    report_counts(&mut out, &first, payload_allocs);
    let ratios: Vec<f64> = traced.iter().zip(&plain).map(|(t, p)| t / p).collect();
    out.put("trace.overhead_frac", median(&ratios) - 1.0);
    // What the attribution needs beyond the metrics above.
    out.put("attrib.run_s", run_s);
    out.put("attrib.ranks", case.ranks as f64);
    out.put("attrib.iterations", case.iterations as f64);
    out
}

/// The counts and virtual-clock shares of one run's report.
fn report_counts<D: Wire>(out: &mut Outcome, report: &RunReport<D>, payload_allocs: u64) {
    let msgs: u64 = report.comm.iter().map(|c| c.msgs_sent).sum();
    let wire_bytes: u64 = report.comm.iter().map(|c| c.bytes_sent).sum();
    out.put("mpisim.msgs", msgs as f64);
    out.put("mpisim.wire_bytes", wire_bytes as f64);
    // Every rank enters every barrier; the rounds are the most any entered.
    let rounds = report.comm.iter().map(|c| c.barriers).max().unwrap_or(0);
    out.put("mpisim.barriers", rounds as f64);
    out.put(
        "mpisim.retries",
        (report.faults.retries + report.faults.retransmits) as f64,
    );
    out.put("mpisim.payload_allocs", payload_allocs as f64);
    let encoded: usize = report.final_data.iter().map(|d| d.to_bytes().len()).sum();
    out.put(
        "core.record_wire_bytes",
        encoded as f64 / report.final_data.len().max(1) as f64,
    );
    out.put("core.migrations", report.migrations as f64);
    out.put("core.page_faults", report.page_faults as f64);
    out.put("core.pages_evicted", report.pages_evicted as f64);
    out.put("core.checkpoint_bytes", report.checkpoint_bytes as f64);
    out.put("core.rollbacks", report.rollbacks as f64);
    out.put(
        "core.iterations_replayed",
        report.iterations_replayed as f64,
    );
    out.put("core.rejoins", report.rejoins as f64);
    out.put("core.repairs", report.repairs as f64);
    out.put("core.delta_sent", report.delta_entries_sent as f64);
    out.put("core.delta_skipped", report.delta_entries_skipped as f64);
    let timers = report.mean_timers();
    let total = timers.total();
    let shares = [
        ("virt.init_frac", Phase::Initialization),
        ("virt.compute_frac", Phase::Compute),
        ("virt.comp_overhead_frac", Phase::ComputationOverhead),
        ("virt.comm_frac", Phase::Communicate),
        ("virt.comm_overhead_frac", Phase::CommunicationOverhead),
        ("virt.balance_frac", Phase::LoadBalancing),
        ("virt.checkpoint_frac", Phase::Checkpoint),
        ("virt.recovery_frac", Phase::Recovery),
        ("virt.integrity_frac", Phase::Integrity),
        ("virt.storage_frac", Phase::Storage),
    ];
    for (name, phase) in shares {
        out.put(
            name,
            if total > 0.0 {
                timers.get(phase) / total
            } else {
                0.0
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::WORKLOADS;

    fn edge_list(graph: &Graph) -> Vec<(u32, u32, i64)> {
        graph.edges().collect()
    }

    #[test]
    fn skew_generator_is_pure_in_the_seed() {
        let a = skew_builder(3_000, 4, 11).build();
        let b = skew_builder(3_000, 4, 11).build();
        let c = skew_builder(3_000, 4, 12).build();
        assert_eq!(edge_list(&a), edge_list(&b));
        assert_ne!(edge_list(&a), edge_list(&c));
        // Preferential attachment: m links per node after the seed clique,
        // and hubs far above the mean degree of 2m.
        assert_eq!(a.num_edges(), 10 + (3_000 - 5) * 4);
        assert!(a.max_degree() > 40, "max degree {}", a.max_degree());
        assert!(a.is_connected());
    }

    #[test]
    fn chaos_plan_is_pure_in_the_seed() {
        assert_eq!(chaos_plan(5, 2.0), chaos_plan(5, 2.0));
        assert_ne!(chaos_plan(5, 2.0), chaos_plan(6, 2.0));
        let plan = chaos_plan(5, 2.0);
        assert_eq!(plan.crash_time(CRASHED_RANK), Some(0.6));
        assert!(plan.has_partitions() && plan.has_memory_corruption());
        assert_eq!(
            plan.memory_corrupt_prob_in(ROTTING_RANK, MemRegion::Owned),
            0.0
        );
    }

    #[test]
    fn every_workload_is_oracle_exact_at_smoke_size() {
        for trace in [false, true] {
            let opts = Options {
                seed: 3,
                seconds: 0.0,
                smoke: true,
                trace,
            };
            for w in WORKLOADS {
                let out = run(w.name, &opts, &mut Tracer::new(trace)).expect("known workload");
                assert!(out.attempted >= 2, "{}: {out:?}", w.name);
                assert_eq!(out.failed, 0, "{}: {:?}", w.name, out.failures);
            }
        }
    }

    #[test]
    fn an_unknown_workload_is_an_error() {
        let opts = Options {
            seed: 1,
            seconds: 0.0,
            smoke: true,
            trace: false,
        };
        assert!(run("hex2m_bsp", &opts, &mut Tracer::new(false)).is_err());
    }
}
