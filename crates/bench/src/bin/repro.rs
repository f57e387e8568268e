//! Reproduction harness: regenerate every table and figure of the thesis.
//!
//! ```text
//! repro all                   # every artifact, thesis order
//! repro table3 fig20          # specific artifacts
//! repro --json all            # one JSON object per artifact, one per line
//! repro --check snap.jsonl    # rerun a `--json` snapshot, list every moved cell
//! repro --markdown snap.jsonl # render a `--json` snapshot, runs nothing
//! repro --list                # available ids
//! repro --trace trace.json    # record the canonical chaos run (Perfetto)
//! repro --timeline tl.json    # per-iteration metrics timeline of that run
//! repro --check-trace t.json  # validate a recorded trace against the schema
//! ```
//!
//! EXPERIMENTS.md holds `repro --markdown tests/golden/thesis.jsonl`
//! verbatim between two marker comments, and a tier-1 test fails when they
//! differ. After a declared change: `repro --json all >
//! tests/golden/thesis.jsonl`, then paste `repro --markdown
//! tests/golden/thesis.jsonl` between the markers.

use ic2_bench::report::{moved_cells, snapshot_markdown, Table};
use ic2_bench::{experiments, trace_tools};

fn usage() {
    eprintln!(
        "usage: repro [--json] [--trace <path>] [--timeline <path>] \
         [--check-trace <path>] <id...|all>\n       \
         repro --check <snapshot> | --markdown <snapshot> | --list"
    );
    eprintln!("available experiments:");
    for id in experiments::all_ids() {
        eprintln!("  {id}");
    }
}

fn main() {
    let mut json = false;
    let mut list = false;
    let mut trace_path: Option<String> = None;
    let mut timeline_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut snapshot_path: Option<String> = None;
    let mut markdown_path: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut path_flag = |slot: &mut Option<String>, flag: &str| match args.next() {
            Some(p) => *slot = Some(p),
            None => {
                eprintln!("{flag} needs a file path");
                std::process::exit(2);
            }
        };
        match arg.as_str() {
            "--markdown" => path_flag(&mut markdown_path, "--markdown"),
            "--json" => json = true,
            "--list" => list = true,
            "--trace" => path_flag(&mut trace_path, "--trace"),
            "--timeline" => path_flag(&mut timeline_path, "--timeline"),
            "--check-trace" => path_flag(&mut check_path, "--check-trace"),
            "--check" => path_flag(&mut snapshot_path, "--check"),
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other}");
                usage();
                std::process::exit(2);
            }
            _ => ids.push(arg),
        }
    }

    if let Some(path) = snapshot_path {
        std::process::exit(check_snapshot(&path));
    }
    if let Some(path) = markdown_path {
        match snapshot_markdown(&read(&path)) {
            Ok(md) => print!("{md}"),
            Err(e) => {
                eprintln!("{path}: {e}");
                std::process::exit(2);
            }
        }
        return;
    }

    let trace_work = check_path.is_some() || trace_path.is_some() || timeline_path.is_some();

    if let Some(path) = check_path {
        match trace_tools::check_trace(&read(&path)) {
            Ok(s) => eprintln!(
                "{path}: ok — {} rank tracks, {} spans, {} instants",
                s.ranks, s.spans, s.instants
            ),
            Err(e) => {
                eprintln!("{path}: schema violation: {e}");
                std::process::exit(1);
            }
        }
    }

    if trace_path.is_some() || timeline_path.is_some() {
        let (trace, timeline) = trace_tools::traced_chaos_sinks();
        for (path, content) in [(&trace_path, trace), (&timeline_path, timeline)] {
            if let Some(path) = path {
                std::fs::write(path, content).unwrap_or_else(|e| {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(2);
                });
                eprintln!("wrote {path}");
            }
        }
    }

    if list {
        usage();
        return;
    }
    if ids.is_empty() {
        if !trace_work {
            usage();
            std::process::exit(2);
        }
        return;
    }

    let selected: Vec<&str> = if ids.iter().any(|i| i == "all") {
        experiments::all_ids()
    } else {
        ids.iter().map(String::as_str).collect()
    };

    for id in selected {
        match experiments::run_experiment(id) {
            Some(table) => {
                if json {
                    println!("{}", table.render_json());
                } else {
                    println!("{}", table.render());
                }
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                std::process::exit(1);
            }
        }
    }
}

/// Rerun every artifact of the `--json` snapshot at `path` and compare it
/// cell by cell, host-marked columns excepted. Prints each moved cell as
/// `id/row/column: old → new` and a count per artifact; returns the exit
/// code: 0 when nothing moved, 1 when a cell did, 2 when the snapshot is
/// unreadable.
fn check_snapshot(path: &str) -> i32 {
    let (mut moved, mut cells) = (0, 0);
    for (n, line) in read(path).lines().enumerate() {
        let old = Table::parse_json(line).unwrap_or_else(|e| {
            eprintln!("{path}:{}: {e}", n + 1);
            std::process::exit(2);
        });
        let Some(new) = experiments::run_experiment(&old.id) else {
            eprintln!("{path}:{}: unknown experiment id: {}", n + 1, old.id);
            std::process::exit(2);
        };
        let lines = moved_cells(&old, &new);
        for l in &lines {
            println!("{l}");
        }
        let total: usize = old.rows.iter().map(Vec::len).sum();
        println!("{}: {} of {total} cells moved", old.id, lines.len());
        moved += lines.len();
        cells += total;
    }
    println!("{path}: {moved} of {cells} cells moved");
    i32::from(moved > 0)
}

/// The file at `path`, or exit 2.
fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    })
}
