//! Host-clock benchmark of the iC2mpi platform.
//!
//! ```text
//! ic2-benchmark [--seed N] [--seconds S] [--smoke] [--trace 0|1]
//!     every workload, each in a child process; both passes unless --trace
//!     picks one. Writes benchmark/out/results.json.
//! ic2-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//!     one workload in this process; the last line of output is its result.
//! ic2-benchmark --check A.json B.json
//!     compare two results files; non-zero exit if B is worse than A.
//! ic2-benchmark --manifest
//!     print BENCHMARK.json.
//! ```
//!
//! See `benchmark/README.md` for what is measured and why.

mod alloc;
mod api;
mod check;
mod host;
mod json;
mod probes;
mod report;
mod schema;
mod stats;
mod suite;
mod tracer;
mod workloads;

use report::ProbeMode;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: ic2-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] | --check A.json B.json | --manifest";

#[derive(Debug, PartialEq)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    probes: Option<ProbeMode>,
    check: Option<(String, String)>,
    manifest: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: schema::RUN_SECONDS as f64,
        trace: None,
        smoke: false,
        probes: None,
        check: None,
        manifest: false,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                cli.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v:?} is not a whole number"))?;
            }
            "--seconds" => {
                let v = value()?;
                cli.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("--seconds {v:?} is not a duration"))?;
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is neither 0 nor 1")),
                });
            }
            "--probes" => {
                cli.probes = Some(match value()?.as_str() {
                    "with" => ProbeMode::With,
                    "only" => ProbeMode::Only,
                    "skip" => ProbeMode::Skip,
                    v => return Err(format!("--probes {v:?} is not with, only or skip")),
                });
            }
            "--smoke" => cli.smoke = true,
            "--check" => cli.check = Some((value()?.clone(), value()?.clone())),
            "--manifest" => cli.manifest = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.manifest {
        let layers: Vec<_> = schema::per_layer().collect();
        if let Err(why) = schema::validate(schema::WORKLOADS, schema::END_TO_END, &layers) {
            eprintln!("error: the metric tables break the manifest's rules: {why}");
            return ExitCode::FAILURE;
        }
        print!("{}", schema::manifest().pretty());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &cli.check {
        return check::run(a, b);
    }
    if cli.workload.is_some() || cli.probes.is_some() {
        let opts = workloads::Options {
            seed: cli.seed,
            seconds: cli.seconds,
            smoke: cli.smoke,
            trace: cli.trace.unwrap_or(false),
        };
        let probes = cli.probes.unwrap_or(ProbeMode::With);
        return report::run_single(cli.workload.as_deref(), &opts, probes);
    }
    suite::run(&suite::SuiteOptions {
        seed: cli.seed,
        seconds: cli.seconds,
        smoke: cli.smoke,
        trace: cli.trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cli = parse(&args(
            "--workload hex64_sync --seed 7 --seconds 6 --trace 1",
        ))
        .expect("valid");
        assert_eq!(cli.workload.as_deref(), Some("hex64_sync"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 6.0, Some(true)));
        assert!(!cli.smoke && cli.probes.is_none());
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--seed",
            "--seed x",
            "--trace 2",
            "--seconds -1",
            "--frobnicate",
            "--check a.json",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
