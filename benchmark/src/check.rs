//! `--check A.json B.json`: is B no worse than A?
//!
//! Counts and virtual-clock readings must be equal to the bit. End-to-end
//! host metrics are held to their bound; where the quartile spread of
//! either file's own repetitions is wider than the bound the verdict is
//! "unresolved", never "unchanged". Layer timings are printed with their
//! ratio and never gated. Run on two results of the same commit this is the
//! A/A acceptance test.

use crate::json::Json;
use crate::schema::{self, Better, MetricDef, Repeat};
use std::process::ExitCode;

/// How one metric compares between two results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Equal, for a metric that must repeat exactly.
    Equal,
    /// Different, for a metric that must repeat exactly.
    Mismatch,
    Unchanged,
    Better,
    /// Within the bound, but the run-to-run spread is wider than the bound.
    Unresolved,
    Regression,
    /// A layer timing: nothing to hold it to.
    Reported,
}

impl Verdict {
    fn fails(self) -> bool {
        matches!(self, Verdict::Mismatch | Verdict::Regression)
    }

    fn label(self) -> &'static str {
        match self {
            Verdict::Equal => "equal",
            Verdict::Mismatch => "MISMATCH",
            Verdict::Unchanged => "unchanged",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
            Verdict::Reported => "",
        }
    }
}

/// `(q3 - q1) / median` of an entry written with its quartiles.
fn spread_of(entry: &Json) -> f64 {
    let field = |k| entry.get(k).and_then(Json::as_f64);
    match (field("q1"), field("q3"), field("value")) {
        (Some(q1), Some(q3), Some(v)) if v != 0.0 => (q3 - q1) / v,
        _ => 0.0,
    }
}

/// Compare one metric's entries from A and B.
pub fn judge(def: &MetricDef, a: &Json, b: &Json) -> Option<(Verdict, f64, f64)> {
    let va = a.get("value")?.as_f64()?;
    let vb = b.get("value")?.as_f64()?;
    let verdict = match def.repeat {
        Repeat::Exact if va.to_bits() == vb.to_bits() => Verdict::Equal,
        Repeat::Exact => Verdict::Mismatch,
        Repeat::Noisy => Verdict::Reported,
        Repeat::Bound(bound) => {
            // Positive when B is worse.
            let worse = match def.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            if worse > bound {
                Verdict::Regression
            } else if spread_of(a).max(spread_of(b)) > bound {
                Verdict::Unresolved
            } else if worse < -bound {
                Verdict::Better
            } else {
                Verdict::Unchanged
            }
        }
    };
    Some((verdict, va, vb))
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compare every metric both files have; returns how many comparisons fail.
pub fn compare(a: &Json, b: &Json) -> usize {
    let mut failures = 0;
    let mut equal = 0;
    let mut tables = vec![(
        "probes".to_string(),
        a.get("probes"),
        b.get("probes"),
        schema::PROBES,
    )];
    let workloads = a.get("workloads").map_or(&[][..], Json::members);
    for (name, wa) in workloads {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name}: MISSING from B");
            failures += 1;
            continue;
        };
        for (key, defs) in [
            ("end_to_end", schema::END_TO_END),
            ("per_layer", schema::PER_WORKLOAD),
        ] {
            tables.push((name.clone(), wa.get(key), wb.get(key), defs));
        }
        let failed = |w: &Json| w.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if failed(wb) > 0.0 || failed(wa) > 0.0 {
            println!("{name}: FAILED RUNS a {} b {}", failed(wa), failed(wb));
            failures += usize::from(failed(wb) > 0.0);
        }
    }
    for (scope, ta, tb, defs) in tables {
        let (Some(ta), Some(tb)) = (ta, tb) else {
            continue;
        };
        for def in defs {
            let (Some(ea), Some(eb)) = (ta.get(def.name), tb.get(def.name)) else {
                continue;
            };
            let Some((verdict, va, vb)) = judge(def, ea, eb) else {
                continue;
            };
            failures += usize::from(verdict.fails());
            match verdict {
                Verdict::Equal => equal += 1,
                Verdict::Mismatch => {
                    println!(
                        "{scope:<16} {:<44} {} {va:?} vs {vb:?} {}",
                        def.name,
                        verdict.label(),
                        def.unit
                    );
                }
                _ => {
                    let bound = match def.repeat {
                        Repeat::Bound(b) => format!(
                            "bound {:.0}%, spread {:.1}%/{:.1}%",
                            b * 100.0,
                            spread_of(ea) * 100.0,
                            spread_of(eb) * 100.0
                        ),
                        _ => String::new(),
                    };
                    println!(
                        "{scope:<16} {:<44} {va:>14.4} -> {vb:>14.4} {:<6} {:>+7.1}%  {bound} {}",
                        def.name,
                        def.unit,
                        (vb / va - 1.0) * 100.0,
                        verdict.label()
                    );
                }
            }
        }
    }
    println!("{equal} counts and virtual-clock readings equal to the bit");
    failures
}

pub fn run(path_a: &str, path_b: &str) -> ExitCode {
    match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => {
            let failures = compare(&a, &b);
            if failures == 0 {
                println!("check passed: B is no worse than A");
                ExitCode::SUCCESS
            } else {
                println!("check FAILED: {failures} regressions or mismatches");
                ExitCode::FAILURE
            }
        }
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("error: {e}");
            }
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(value: f64, q1: f64, q3: f64) -> Json {
        Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::str("s")),
            ("q1", Json::Num(q1)),
            ("q3", Json::Num(q3)),
            ("n", Json::Num(5.0)),
        ])
    }

    fn results(run_s: Json, virtual_s: f64, msgs: f64) -> Json {
        let plain = |v| Json::obj([("value", Json::Num(v)), ("unit", Json::str("count"))]);
        Json::obj([
            ("probes", Json::obj::<String>([])),
            (
                "workloads",
                Json::obj([(
                    "hex64_sync",
                    Json::obj([
                        ("failed", Json::Num(0.0)),
                        ("end_to_end", Json::obj([("run_s", run_s)])),
                        (
                            "per_layer",
                            Json::obj([
                                ("virtual_s", plain(virtual_s)),
                                ("mpisim.msgs", plain(msgs)),
                            ]),
                        ),
                    ]),
                )]),
            ),
            ("claim", Json::Null),
        ])
    }

    /// The bound `run_s` is held to.
    fn run_s_bound() -> f64 {
        match schema::find("run_s")
            .expect("run_s is in the schema")
            .repeat
        {
            Repeat::Bound(b) => b,
            other => panic!("run_s is gated by a bound, not {other:?}"),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let run_s = schema::find("run_s").expect("run_s is in the schema");
        let b = run_s_bound();
        let tight = |v: f64| entry(v, v * 0.99, v * 1.01);
        let verdict = |a: &Json, b: &Json| judge(run_s, a, b).expect("both have values").0;
        assert_eq!(
            verdict(&tight(1.0), &tight(1.0 + b / 2.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&tight(1.0), &tight(1.0 + b * 1.1)),
            Verdict::Regression
        );
        assert_eq!(verdict(&tight(1.0), &tight(1.0 - b * 1.1)), Verdict::Better);
        // Within the bound, but one side's own runs spread by twice the bound.
        let scattered = entry(1.0 + b / 2.0, 1.0 - b, 1.0 + b);
        assert_eq!(verdict(&tight(1.0), &scattered), Verdict::Unresolved);
        let exact = schema::find("virtual_s").expect("virtual_s is in the schema");
        let bits = |v: f64| Json::obj([("value", Json::Num(v))]);
        assert_eq!(
            judge(exact, &bits(0.1 + 0.2), &bits(0.1 + 0.2)).map(|j| j.0),
            Some(Verdict::Equal)
        );
        assert_eq!(
            judge(exact, &bits(0.1 + 0.2), &bits(0.3)).map(|j| j.0),
            Some(Verdict::Mismatch)
        );
    }

    #[test]
    fn written_results_round_trip_through_the_comparer() {
        let a = results(entry(1.0, 0.99, 1.01), 60.609_940_000_326_86, 1_427_493.0);
        let reread = Json::parse(&a.pretty()).expect("own output parses");
        assert_eq!(compare(&a, &reread), 0, "A against itself");
        let slow = 1.0 + 2.0 * run_s_bound();
        let slower = results(
            entry(slow, slow * 0.99, slow * 1.01),
            60.609_940_000_326_86,
            1_427_493.0,
        );
        assert_eq!(compare(&a, &slower), 1, "run_s worse by twice its bound");
        let drifted = results(entry(1.0, 0.99, 1.01), 60.609_940_000_326_87, 1_427_494.0);
        assert_eq!(
            compare(&a, &drifted),
            2,
            "a virtual time and a count that moved"
        );
        assert!(a.pretty().trim_end().ends_with("\"claim\": null\n}"));
    }
}
