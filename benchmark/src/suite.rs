//! The one command: every workload, each in a fresh child process of this
//! binary, one at a time — an untraced pass for the end-to-end metrics,
//! then a traced pass for the per-layer ones.
//!
//! A child that panics, hangs past its timeout or exits non-zero marks its
//! workload failed; the remaining workloads still run. The results go to
//! `benchmark/out/results.json`, the file `--check` compares.

use crate::host;
use crate::json::Json;
use crate::report::{attribute, out_dir};
use crate::schema::{self, MetricDef, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

pub struct SuiteOptions {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// `None` runs both passes; `Some(false)` only the untraced one,
    /// `Some(true)` only the traced one.
    pub trace: Option<bool>,
}

/// What one child reported: its result line and its `#detail` line.
struct Child {
    attempted: f64,
    failed: f64,
    metrics: Json,
    detail: Json,
}

impl Child {
    /// A child that did not report stands for one attempted, failed run.
    fn dead() -> Self {
        Child {
            attempted: 1.0,
            failed: 1.0,
            metrics: Json::Null,
            detail: Json::Null,
        }
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name)?.get("value")?.as_f64()
    }
}

/// Run one child to completion or to its timeout.
fn spawn(args: &[String], timeout: Duration) -> Child {
    let exe = std::env::current_exe().expect("the path of this binary");
    let spawned = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn();
    let mut child = match spawned {
        Ok(child) => child,
        Err(e) => {
            eprintln!("error: cannot start a child process: {e}");
            return Child::dead();
        }
    };
    // A child prints a few kilobytes, well under the pipe's buffer, so it
    // never blocks on a parent that only reads after it has exited.
    let deadline = Instant::now() + timeout;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            Ok(None) | Err(_) => {
                eprintln!("error: child {args:?} timed out after {timeout:?}; killing it");
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let mut text = String::new();
    if let Some(mut stdout) = child.stdout.take() {
        let _ = std::io::Read::read_to_string(&mut stdout, &mut text);
    }
    let mut report = Child::dead();
    let mut lines: Vec<&str> = text.lines().collect();
    let result = lines.pop().and_then(|last| Json::parse(last).ok());
    // The summary prints every metric; of a child's own report only what
    // went wrong is passed on.
    for line in &lines {
        if let Some(detail) = line.strip_prefix("#detail ") {
            report.detail = Json::parse(detail).unwrap_or(Json::Null);
        } else if line.contains("FAILED") || line.contains("NOT MEASURED") {
            println!("{line}");
        }
    }
    match (status, result) {
        (Some(status), Some(result)) => {
            let number = |key| result.get(key).and_then(Json::as_f64);
            report.attempted = number("attempted").unwrap_or(1.0);
            report.failed = number("failed").unwrap_or(report.attempted);
            report.metrics = result.get("metrics").cloned().unwrap_or(Json::Null);
            // A non-zero exit with runs still counted as passed fails them.
            if !status.success() && report.failed == 0.0 {
                report.failed = report.attempted;
            }
        }
        (Some(status), None) => eprintln!("error: child {args:?} gave no result ({status})"),
        (None, _) => {}
    }
    report
}

fn child_args(opts: &SuiteOptions, workload: Option<&str>, traced: bool) -> Vec<String> {
    let mut args = vec![
        "--seed".to_string(),
        opts.seed.to_string(),
        "--seconds".to_string(),
        opts.seconds.to_string(),
        "--trace".to_string(),
        u8::from(traced).to_string(),
        "--probes".to_string(),
        if workload.is_some() { "skip" } else { "only" }.to_string(),
    ];
    if let Some(name) = workload {
        args.extend(["--workload".to_string(), name.to_string()]);
    }
    if opts.smoke {
        args.push("--smoke".to_string());
    }
    args
}

/// Five times what the child is expected to take.
fn timeout(opts: &SuiteOptions, traced: bool) -> Duration {
    let expected = match (opts.smoke, traced) {
        (true, _) => 4.0,
        (false, true) => 30.0,
        (false, false) => opts.seconds + 10.0,
    };
    Duration::from_secs_f64(5.0 * expected)
}

fn with_spread(def: &MetricDef, child: &Child) -> Option<Json> {
    let mut pairs = vec![
        ("value", Json::Num(child.value(def.name)?)),
        ("unit", Json::str(def.unit)),
    ];
    if let Some(spread) = child.detail.get("spreads").and_then(|s| s.get(def.name)) {
        pairs.extend(
            spread
                .members()
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone())),
        );
    }
    Some(Json::obj(pairs))
}

fn table(defs: &[MetricDef], child: &Child) -> Json {
    Json::obj(
        defs.iter()
            .filter_map(|d| Some((d.name, with_spread(d, child)?))),
    )
}

pub fn run(opts: &SuiteOptions) -> ExitCode {
    let began = Instant::now();
    let passes: &[bool] = match opts.trace {
        None => &[false, true],
        Some(false) => &[false],
        Some(true) => &[true],
    };
    let mut probes = None;
    let mut untraced: Vec<Option<Child>> = WORKLOADS.iter().map(|_| None).collect();
    let mut traced: Vec<Option<Child>> = WORKLOADS.iter().map(|_| None).collect();
    for &pass in passes {
        println!(
            "== {} pass: seed {}, {} s per workload{} ==",
            if pass { "traced" } else { "untraced" },
            opts.seed,
            opts.seconds,
            if opts.smoke { ", smoke size" } else { "" }
        );
        let child = |name: Option<&str>| {
            let started = Instant::now();
            let report = spawn(&child_args(opts, name, pass), timeout(opts, pass));
            println!(
                "{:<16} {} of {} runs failed, {:.1} s",
                name.unwrap_or("probes"),
                report.failed,
                report.attempted,
                started.elapsed().as_secs_f64()
            );
            report
        };
        if pass {
            probes = Some(child(None));
        }
        let slots = if pass { &mut traced } else { &mut untraced };
        for (w, slot) in WORKLOADS.iter().zip(slots) {
            *slot = Some(child(Some(w.name)));
        }
    }

    // ---- Assemble ----------------------------------------------------------
    let mut failed_runs = 0.0;
    let mut workloads = Vec::new();
    for ((w, plain), layered) in WORKLOADS.iter().zip(&untraced).zip(&traced) {
        let (mut attempted, mut failed) = (0.0, 0.0);
        for child in [plain, layered].into_iter().flatten() {
            attempted += child.attempted;
            failed += child.failed;
        }
        failed_runs += failed;
        let mut pairs = vec![
            ("attempted", Json::Num(attempted)),
            ("failed", Json::Num(failed)),
            ("fail_frac", Json::Num(failed / attempted.max(1.0))),
        ];
        if let Some(plain) = plain {
            pairs.push(("end_to_end", table(schema::END_TO_END, plain)));
        }
        if let Some(layered) = layered {
            let mut layers = table(schema::PER_WORKLOAD, layered);
            let lookup = |name: &str| {
                let extra = layered.detail.get("extras").and_then(|e| e.get(name));
                extra
                    .and_then(Json::as_f64)
                    .or_else(|| layered.value(name))
                    .or_else(|| probes.as_ref()?.value(name))
            };
            let attribution = attribute(&lookup);
            if let (Some(a), Json::Obj(members)) = (&attribution, &mut layers) {
                let def = schema::find("attrib.residual_frac").expect("in the schema");
                let residual = [
                    ("value", Json::Num(a.residual_frac())),
                    ("unit", Json::str(def.unit)),
                ];
                members.push((def.name.to_string(), Json::obj(residual)));
            }
            pairs.push(("per_layer", layers));
            if let Some(a) = attribution {
                let terms = a.terms.iter().map(|&(k, v)| (k, Json::Num(v)));
                pairs.push((
                    "attribution",
                    Json::obj([
                        ("budget_core_s", Json::Num(a.budget_core_s)),
                        ("explained_core_s", Json::obj(terms)),
                    ]),
                ));
            }
        }
        workloads.push((w.name, Json::obj(pairs)));
    }
    if let Some(p) = &probes {
        failed_runs += p.failed;
    }
    let results = Json::obj([
        ("schema", Json::str("ic2-benchmark/1")),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        (
            "host",
            Json::obj([
                ("nproc", Json::Num(host::nproc() as f64)),
                ("cpu", Json::str(host::cpu_model())),
                ("rustc", Json::str(host::rustc_version())),
                ("commit", Json::str(host::commit())),
            ]),
        ),
        (
            "probes",
            probes
                .as_ref()
                .map_or(Json::Null, |p| table(schema::PROBES, p)),
        ),
        ("workloads", Json::obj(workloads)),
        ("failed_runs", Json::Num(failed_runs)),
        // This benchmark records; it claims nothing.
        ("claim", Json::Null),
    ]);

    print_summary(&results);
    let path = out_dir().join("results.json");
    let written =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, results.pretty()));
    if let Err(e) = written {
        eprintln!("error: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!(
        "\n{} failed runs; results in {}; {:.0} s in all",
        failed_runs,
        path.display(),
        began.elapsed().as_secs_f64()
    );
    if failed_runs == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cell(entry: Option<&Json>) -> String {
    match entry.and_then(|e| e.get("value")).and_then(Json::as_f64) {
        Some(v) if v.fract() == 0.0 && v.abs() < 1e15 => format!("{v:.0}"),
        Some(v) if v.abs() >= 100.0 => format!("{v:.1}"),
        Some(v) => format!("{v:.4}"),
        None => "-".to_string(),
    }
}

/// Every metric by name and unit: one row per metric, one column per
/// workload, then the probes, then where each run's core-seconds went.
fn print_summary(results: &Json) {
    let workloads = results.get("workloads").map_or(&[][..], Json::members);
    let header = || {
        print!("{:<46}", "");
        for (name, _) in workloads {
            print!(" {name:>15}");
        }
        println!();
    };
    for (title, key, defs) in [
        (
            "end-to-end (untraced pass; medians)",
            "end_to_end",
            schema::END_TO_END,
        ),
        (
            "per layer, by workload (traced pass)",
            "per_layer",
            schema::PER_WORKLOAD,
        ),
    ] {
        if workloads.iter().all(|(_, w)| w.get(key).is_none()) {
            continue;
        }
        println!("\n== {title} ==");
        header();
        for def in defs {
            print!("{:<46}", format!("{} [{}]", def.name, def.unit));
            for (_, w) in workloads {
                print!(" {:>15}", cell(w.get(key).and_then(|t| t.get(def.name))));
            }
            println!();
            if key == "end_to_end" && matches!(def.name, "setup_s" | "run_s") {
                print!("{:<46}", "  q1..q3 (n)");
                for (_, w) in workloads {
                    let entry = w.get(key).and_then(|t| t.get(def.name));
                    let q = |k| entry.and_then(|e| e.get(k)).and_then(Json::as_f64);
                    let text = match (q("q1"), q("q3"), q("n")) {
                        (Some(q1), Some(q3), Some(n)) => format!("{q1:.3}..{q3:.3} ({n})"),
                        _ => "(1)".to_string(),
                    };
                    print!(" {text:>15}");
                }
                println!();
            }
        }
        if key == "end_to_end" {
            print!("{:<46}", "fail_frac [failed/attempted]");
            for (_, w) in workloads {
                let n = |k| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                print!(" {:>15}", format!("{}/{}", n("failed"), n("attempted")));
            }
            println!();
        }
    }
    if let Some(probes) = results.get("probes").filter(|p| !p.members().is_empty()) {
        println!("\n== per layer, workload-independent probes (traced pass) ==");
        for def in schema::PROBES {
            println!(
                "{:<46} {:>15}",
                format!("{} [{}]", def.name, def.unit),
                cell(probes.get(def.name))
            );
        }
    }
    if workloads
        .iter()
        .any(|(_, w)| w.get("attribution").is_some())
    {
        println!("\n== share of run_s x min(ranks, cores) explained by count x probed cost ==");
        header();
        let terms = workloads
            .iter()
            .find_map(|(_, w)| w.get("attribution")?.get("explained_core_s"))
            .map_or(&[][..], Json::members);
        for (term, _) in terms {
            print!("{term:<46}");
            for (_, w) in workloads {
                let a = w.get("attribution");
                let core_s = a.and_then(|a| a.get("explained_core_s")?.get(term)?.as_f64());
                let budget = a.and_then(|a| a.get("budget_core_s")?.as_f64());
                match (core_s, budget) {
                    (Some(c), Some(b)) => print!(" {:>14.1}%", 100.0 * c / b),
                    _ => print!(" {:>15}", "-"),
                }
            }
            println!();
        }
    }
}
