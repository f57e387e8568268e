//! Command-line platform driver — the analogue of the thesis's
//! `mpirun -np num_procs MPIFramework $program_graph`.
//!
//! ```text
//! ic2run <graph> [--procs N] [--iters N] [--partitioner NAME]
//!                [--grain fine|coarse|shifting|persistent]
//!                [--balance EVERY] [--overlap] [--phase-report]
//!
//! <graph>:  path to a Chaco file, or one of
//!           hex:<N>  random:<N>[:SEED]  battlefield
//! ```
//!
//! Examples:
//! ```text
//! cargo run -p ic2-examples --release --bin ic2run -- hex:64 --procs 8 --iters 20
//! cargo run -p ic2-examples --release --bin ic2run -- graph.chaco --partitioner pagrid
//! cargo run -p ic2-examples --release --bin ic2run -- battlefield --procs 16 --iters 25
//! ```

use ic2_battlefield::{BattlefieldProgram, Scenario};
use ic2_examples::run_reported;
use ic2_graph::Graph;
use ic2mpi::prelude::*;
use ic2mpi::Phase;

struct Args {
    graph: String,
    procs: usize,
    iters: u32,
    partitioner: String,
    grain: String,
    balance: Option<u32>,
    overlap: bool,
    phase_report: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        graph: String::new(),
        procs: 4,
        iters: 20,
        partitioner: "metis".into(),
        grain: "fine".into(),
        balance: None,
        overlap: false,
        phase_report: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--procs" => args.procs = value("--procs")?.parse().map_err(|e| format!("{e}"))?,
            "--iters" => args.iters = value("--iters")?.parse().map_err(|e| format!("{e}"))?,
            "--partitioner" => args.partitioner = value("--partitioner")?,
            "--grain" => args.grain = value("--grain")?,
            "--balance" => {
                args.balance = Some(value("--balance")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--overlap" => args.overlap = true,
            "--phase-report" => args.phase_report = true,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other if args.graph.is_empty() => args.graph = other.to_string(),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    if args.graph.is_empty() {
        return Err("missing <graph> argument".into());
    }
    Ok(args)
}

fn load_graph(spec: &str) -> Result<Graph, String> {
    if let Some(n) = spec.strip_prefix("hex:") {
        let n: usize = n.parse().map_err(|e| format!("bad hex size: {e}"))?;
        return Ok(ic2_graph::generators::hex_grid_n(n));
    }
    if let Some(rest) = spec.strip_prefix("random:") {
        let mut parts = rest.split(':');
        let n: usize = parts
            .next()
            .unwrap_or_default()
            .parse()
            .map_err(|e| format!("bad random size: {e}"))?;
        let seed: u64 = parts
            .next()
            .map(|s| s.parse().map_err(|e| format!("bad seed: {e}")))
            .transpose()?
            .unwrap_or(0);
        return Ok(ic2_graph::generators::thesis_random_graph(n, seed));
    }
    ic2_graph::chaco::read_file(std::path::Path::new(spec))
        .map_err(|e| format!("cannot read {spec}: {e}"))
}

fn make_partitioner(name: &str) -> Result<Box<dyn StaticPartitioner + Sync>, String> {
    Ok(match name {
        "metis" => Box::new(Metis::default()),
        "pagrid" => Box::new(PaGrid::default()),
        "row" => Box::new(ic2_partition::bands::RowBand),
        "column" => Box::new(ic2_partition::bands::ColumnBand),
        "rect" => Box::new(ic2_partition::bands::RectangularBand),
        "graycode" => Box::new(ic2_partition::graycode::GrayCodeBf),
        "roundrobin" => Box::new(ic2_partition::simple::RoundRobin),
        "block" => Box::new(ic2_partition::simple::BlockPartition),
        other => return Err(format!("unknown partitioner {other}")),
    })
}

fn report<D>(args: &Args, report: &RunReport<D>) {
    println!(
        "time elapsed = {:.6}s  ({} procs, {} iters, {} partitioner, {} migrations)",
        report.total_time, args.procs, args.iters, args.partitioner, report.migrations
    );
    let bytes: u64 = report.comm.iter().map(|c| c.bytes_sent).sum();
    let msgs: u64 = report.comm.iter().map(|c| c.msgs_sent).sum();
    println!("communication: {msgs} messages, {bytes} payload bytes");
    if args.phase_report {
        println!("phase breakdown (mean seconds per rank):");
        let timers = report.mean_timers();
        for phase in Phase::ALL {
            println!("  {:<32} {:.6}", phase.label(), timers.get(phase));
        }
    }
}

fn run_generic(args: &Args, graph: &Graph) -> Result<(), String> {
    let program = match args.grain.as_str() {
        "fine" => AvgProgram::fine(),
        "coarse" => AvgProgram::coarse(),
        "shifting" => AvgProgram::shifting(),
        "persistent" => AvgProgram::persistent(),
        other => return Err(format!("unknown grain {other}")),
    };
    let partitioner = make_partitioner(&args.partitioner)?;
    let mut cfg = RunConfig::new(args.procs, args.iters);
    if let Some(every) = args.balance {
        cfg = cfg
            .with_balancing(every)
            .with_balance_offset(every / 2)
            .with_migration_batch(12)
            .with_migrant_policy(MigrantPolicy::LoadAware);
    }
    if args.overlap {
        cfg = cfg.with_exchange(ExchangeMode::Overlap);
    }
    // With `--balance` unset, `balance_every` is `None` and the balancer
    // is never consulted, so one balancer type covers both modes.
    let r = run_reported(
        graph,
        &program,
        partitioner.as_ref(),
        || Diffusion { threshold: 0.10 },
        &cfg,
    );
    report(args, &r);
    Ok(())
}

fn run_battlefield(args: &Args) -> Result<(), String> {
    let program = BattlefieldProgram::new(&Scenario::thesis());
    let graph = program.terrain();
    let partitioner = make_partitioner(&args.partitioner)?;
    let mut cfg = RunConfig::new(args.procs, args.iters);
    if args.overlap {
        cfg = cfg.with_exchange(ExchangeMode::Overlap);
    }
    let r = run_reported(&graph, &program, partitioner.as_ref(), || NoBalancer, &cfg);
    let stats = ic2_battlefield::BattleStats::from_cells(&r.final_data);
    report(args, &r);
    println!(
        "battle: red {} units / blue {} units alive, {} destroyed total",
        stats.units[0],
        stats.units[1],
        stats.total_destroyed()
    );
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: ic2run <chaco-file|hex:N|random:N[:SEED]|battlefield> \
                 [--procs N] [--iters N] [--partitioner NAME] \
                 [--grain fine|coarse|shifting|persistent] [--balance EVERY] \
                 [--overlap] [--phase-report]"
            );
            std::process::exit(2);
        }
    };
    let outcome = if args.graph == "battlefield" {
        run_battlefield(&args)
    } else {
        match load_graph(&args.graph) {
            Ok(graph) => run_generic(&args, &graph),
            Err(e) => Err(e),
        }
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
