//! One process, one workload: run it, print what was measured, and end
//! with the one-line JSON result the driver (and the suite) reads.

use crate::host;
use crate::json::Json;
use crate::probes;
use crate::schema::{self, MetricDef};
use crate::stats::quartiles;
use crate::tracer::Tracer;
use crate::workloads::{self, Options, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

/// Whether a traced run also takes the workload-independent probes. The
/// driver always gets both; the suite takes the probes once, in a child of
/// their own, instead of once per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeMode {
    With,
    Only,
    Skip,
}

/// Where run artefacts (span files, the suite's results) go.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Core-seconds of a run explained by count x probed cost, term by term.
pub struct Attribution {
    /// `run_s x min(ranks, cores)`: what there is to explain.
    pub budget_core_s: f64,
    pub terms: Vec<(&'static str, f64)>,
}

impl Attribution {
    /// The share no term explains — the part only spans inside the program
    /// (ROADMAP item 5) can see.
    pub fn residual_frac(&self) -> f64 {
        1.0 - self.terms.iter().map(|t| t.1).sum::<f64>() / self.budget_core_s
    }
}

/// Attribute one workload's traced run to layers. `get` looks a value up
/// among the workload's per-layer metrics, its extras and the probes;
/// `None` if any is missing.
pub fn attribute(get: &dyn Fn(&str) -> Option<f64>) -> Option<Attribution> {
    let cores = get("attrib.ranks")?.min(host::nproc() as f64);
    let ns = 1e-9;
    // Replayed iterations are executed, though not useful.
    let executed =
        get("core.updates")? * (1.0 + get("core.iterations_replayed")? / get("attrib.iterations")?);
    let interior = get("core.exchange.interior_ns_per_update")?;
    let boundary_extra = (get("core.exchange.boundary_ns_per_update")? - interior).max(0.0);
    // A staged checkpoint entry is a node id and its record.
    let staged_nodes = get("core.checkpoint_bytes")? / (4.0 + get("core.record_wire_bytes")?);
    Some(Attribution {
        budget_core_s: get("attrib.run_s")? * cores,
        terms: vec![
            ("fixed cost", get("host.fixed_s")? * cores),
            ("interior updates", executed * interior * ns),
            (
                "boundary entries",
                get("core.delta_sent")? * boundary_extra * ns,
            ),
            (
                "barriers",
                get("mpisim.barriers")? * get("mpisim.world.barrier_ns_8r")? * ns * cores,
            ),
            // What a message costs the two threads that handle it; the wait
            // for it is in the barrier that closes the round.
            (
                "messages",
                get("mpisim.msgs")? * get("mpisim.mailbox.self_sendrecv_ns")? * ns,
            ),
            (
                "page faults",
                get("core.page_faults")? * get("core.paging.fault_ns")? * ns,
            ),
            (
                "checkpoint staging",
                staged_nodes * get("core.checkpoint.stage_ns_per_node")?.max(0.0) * ns,
            ),
        ],
    })
}

/// First and third quartile and sample count of a sampled metric.
fn spread_of(out: &Outcome, name: &str) -> Option<(f64, f64, usize)> {
    let samples = &out.samples.iter().find(|s| s.0 == name)?.1;
    let [q1, _, q3] = quartiles(samples)?;
    Some((q1, q3, samples.len()))
}

/// Run one workload (and, traced, the probes) in this process.
pub fn run_single(workload: Option<&str>, opts: &Options, probe_mode: ProbeMode) -> ExitCode {
    let mut tracer = Tracer::new(opts.trace);
    let mut out = Outcome::default();
    let mut wanted: Vec<&MetricDef> = Vec::new();
    if opts.trace && probe_mode != ProbeMode::Skip {
        out.metrics.extend(probes::run(opts.smoke, &mut tracer));
        out.attempted += 1;
        wanted.extend(schema::PROBES);
    }
    if let Some(name) = workload.filter(|_| probe_mode != ProbeMode::Only) {
        let measured = match workloads::run(name, opts, &mut tracer) {
            Ok(measured) => measured,
            Err(why) => {
                eprintln!("error: {why}");
                return ExitCode::from(2);
            }
        };
        out.attempted += measured.attempted;
        out.failed += measured.failed;
        out.metrics.extend(measured.metrics);
        out.samples = measured.samples;
        out.failures = measured.failures;
        wanted.extend(if opts.trace {
            schema::PER_WORKLOAD
        } else {
            schema::END_TO_END
        });
    }
    if let Some(attribution) = attribute(&|name| out.get(name)) {
        out.metrics
            .push(("attrib.residual_frac", attribution.residual_frac()));
    } else {
        // Without the probes there is nothing to attribute with; the suite
        // fills this in once it has both halves.
        wanted.retain(|m| m.name != "attrib.residual_frac");
    }

    let label = workload.unwrap_or("probes");
    println!(
        "{label}: seed {}, {} s, trace {}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    for def in wanted {
        match out.get(def.name).filter(|v| v.is_finite()) {
            Some(value) => {
                let quartiles = spread_of(&out, def.name).map_or(String::new(), |(q1, q3, n)| {
                    format!("  (median of {n}; q1 {q1:.6} q3 {q3:.6})")
                });
                println!(
                    "  {:<44} {:>16.6} {}{}",
                    def.name, value, def.unit, quartiles
                );
                let entry = [("value", Json::Num(value)), ("unit", Json::str(def.unit))];
                metrics.push((def.name, Json::obj(entry)));
            }
            None => missing.push(def.name),
        }
    }
    for why in &out.failures {
        println!("  FAILED {why}");
    }
    if !missing.is_empty() {
        println!("  NOT MEASURED {}", missing.join(" "));
    }

    if opts.trace {
        let path = out_dir().join(format!("trace-{label}.json"));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, tracer.chrome_trace().pretty()));
        match written {
            Ok(()) => println!("  {} spans in {}", tracer.spans().len(), path.display()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    let correct = out.failed == 0 && missing.is_empty();
    // For the suite: the quartiles behind every median (and the samples
    // themselves, unless there are hundreds), and the attribution's inputs.
    let detail = Json::obj([
        (
            "spreads",
            Json::obj(out.samples.iter().filter_map(|(name, samples)| {
                let (q1, q3, n) = spread_of(&out, name)?;
                let mut spread = vec![
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("n", Json::Num(n as f64)),
                ];
                if n <= 100 {
                    spread.push((
                        "samples",
                        Json::Arr(samples.iter().map(|&v| Json::Num(v)).collect()),
                    ));
                }
                Some((*name, Json::obj(spread)))
            })),
        ),
        (
            "extras",
            Json::obj(
                ["attrib.run_s", "attrib.ranks", "attrib.iterations"]
                    .iter()
                    .filter_map(|&k| Some((k, Json::Num(out.get(k)?)))),
            ),
        ),
    ]);
    println!("#detail {}", detail.compact());
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.attempted.max(1) as f64)),
        ("failed", Json::Num(out.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_adds_up_and_needs_every_input() {
        let inputs = [
            ("attrib.ranks", 1.0),
            ("attrib.iterations", 10.0),
            ("attrib.run_s", 2.0),
            ("core.updates", 1e6),
            ("core.iterations_replayed", 5.0),
            ("core.exchange.interior_ns_per_update", 200.0),
            ("core.exchange.boundary_ns_per_update", 700.0),
            ("core.checkpoint_bytes", 12e6),
            ("core.record_wire_bytes", 8.0),
            ("host.fixed_s", 0.1),
            ("core.delta_sent", 1e5),
            ("mpisim.barriers", 1e3),
            ("mpisim.world.barrier_ns_8r", 1e4),
            ("mpisim.msgs", 1e4),
            ("mpisim.mailbox.self_sendrecv_ns", 5e3),
            ("core.page_faults", 1e4),
            ("core.paging.fault_ns", 5e3),
            ("core.checkpoint.stage_ns_per_node", 100.0),
        ];
        let get = |name: &str| inputs.iter().find(|i| i.0 == name).map(|i| i.1);
        let a = attribute(&get).expect("every input present");
        assert_eq!(a.budget_core_s, 2.0);
        // 0.1 fixed + 0.3 interior (1.5e6 executed) + 0.05 boundary + 0.01
        // barriers + 0.05 messages + 0.05 faults + 0.1 staging = 0.66.
        let explained: f64 = a.terms.iter().map(|t| t.1).sum();
        assert!((explained - 0.66).abs() < 1e-12, "{explained}");
        assert!((a.residual_frac() - 0.67).abs() < 1e-12);
        let without = |name: &str| {
            if name == "mpisim.msgs" {
                None
            } else {
                get(name)
            }
        };
        assert!(attribute(&without).is_none());
    }
}
