//! The reproduction harness itself is part of the deliverable: ids must
//! resolve, tables must be well-formed, every claim must hold over the
//! committed snapshot, and EXPERIMENTS.md must show what that snapshot holds.

use ic2_bench::report::{snapshot_markdown, Table};
use ic2_bench::{claims, experiments};
use std::path::Path;

/// The committed `repro --json all` output that `repro --check` reruns.
const SNAPSHOT: &str = "tests/golden/thesis.jsonl";
/// The markers around EXPERIMENTS.md's copy of `repro --markdown SNAPSHOT`.
const BEGIN: &str = "<!-- BEGIN repro --markdown tests/golden/thesis.jsonl -->\n";
const END: &str = "<!-- END repro --markdown -->\n";

/// A file of the repository, by its path from the root.
fn repo_file(path: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn snapshot_tables() -> Vec<Table> {
    let snapshot = repo_file(SNAPSHOT);
    let parse = |(n, line)| Table::parse_json(line).unwrap_or_else(|e| panic!("line {n}: {e}"));
    (1..).zip(snapshot.lines()).map(parse).collect()
}

/// EXPERIMENTS.md split around its marked block: before, block, after.
fn experiments_md() -> (String, String, String) {
    let doc = repo_file("EXPERIMENTS.md");
    let (before, rest) = doc
        .split_once(BEGIN)
        .expect("EXPERIMENTS.md has the begin marker");
    let (block, after) = rest
        .split_once(END)
        .expect("EXPERIMENTS.md has the end marker");
    (
        before.to_string() + BEGIN,
        block.to_string(),
        after.to_string(),
    )
}

#[test]
fn every_id_resolves_and_unknown_ids_do_not() {
    // `repro --check` reruns what the snapshot lists: every id, once, in
    // the order `repro all` runs them.
    let listed: Vec<String> = snapshot_tables().into_iter().map(|t| t.id).collect();
    assert_eq!(
        listed,
        experiments::all_ids(),
        "{SNAPSHOT} lists every id once"
    );
    assert!(experiments::run_experiment("no-such-id").is_none());
    // Every id states what its table must show, and every deviation names
    // the EXPERIMENTS.md section that explains it.
    let doc = repo_file("EXPERIMENTS.md");
    let sections: Vec<&str> = doc.lines().filter_map(|l| l.strip_prefix("### ")).collect();
    for e in experiments::EXPERIMENTS {
        assert!(!e.claims.is_empty(), "{} declares no claim", e.id);
        for d in e.claims.iter().filter_map(|c| c.deviation) {
            assert!(
                sections.contains(&d.section),
                "{}: deviation names “{}”, which is no EXPERIMENTS.md section",
                e.id,
                d.section
            );
        }
    }
}

#[test]
fn every_claim_holds_over_the_snapshot() {
    // What `repro` checks after every run, checked here over the committed
    // cells without running anything. The snapshot's shape target is the
    // claims' rendering, so the claims are the one copy of each shape.
    let mut broken = Vec::new();
    for t in snapshot_tables() {
        let e = experiments::experiment(&t.id).expect("a snapshot id resolves");
        broken.extend(claims::broken(e.id, e.claims, &t));
        let target = claims::shape_target(e.claims);
        if t.expectation != target {
            broken.push(format!(
                "{}: the snapshot's shape target is not its claims' rendering:\n  \
                 snapshot: {}\n  claims:   {target}\n\
                 regenerate {SNAPSHOT} with `repro --json all`",
                t.id, t.expectation
            ));
        }
    }
    assert!(broken.is_empty(), "\n{}", broken.join("\n"));
}

#[test]
fn experiments_md_holds_the_snapshot_rendering() {
    let rendered = snapshot_markdown(&repo_file(SNAPSHOT)).expect("the snapshot parses");
    let (before, block, _) = experiments_md();
    if block == rendered {
        return;
    }
    let first = before.lines().count() + 1;
    let (mut doc, mut want) = (block.lines(), rendered.lines());
    for n in first.. {
        let (d, w) = (doc.next(), want.next());
        if d != w {
            panic!(
                "EXPERIMENTS.md:{n} differs from `repro --markdown {SNAPSHOT}`:\n  \
                 document: {d:?}\n  rendering: {w:?}\n\
                 regenerate the block with `repro --markdown {SNAPSHOT}`"
            );
        }
        if d.is_none() {
            panic!("EXPERIMENTS.md's block differs only in line endings");
        }
    }
}

#[test]
fn experiments_md_cites_snapshot_cells_by_their_values() {
    // Outside the block a measured number is a citation: `id/row/column`,
    // the form `repro --check` prints, then ` = value` if it quotes one.
    let tables = snapshot_tables();
    let (before, _, after) = experiments_md();
    let mut cited = 0;
    for prose in [before, after] {
        let pieces: Vec<&str> = prose.split('`').collect();
        for (i, span) in pieces.iter().enumerate().skip(1).step_by(2) {
            let Some((id, place)) = span.split_once('/') else {
                continue;
            };
            let Some(t) = tables.iter().find(|t| t.id == id) else {
                continue;
            };
            let cells: Vec<&String> = (t.rows.iter())
                .flat_map(|r| t.header.iter().zip(r).map(move |(h, c)| (h, r, c)))
                .filter(|(h, r, _)| place == format!("{}/{h}", r[0]))
                .map(|(_, _, c)| c)
                .collect();
            let [cell] = cells[..] else {
                panic!("`{span}` names {} snapshot cells, not one", cells.len());
            };
            cited += 1;
            let next = pieces.get(i + 1).copied().unwrap_or("");
            if let Some(quoted) = next.strip_prefix(" = ") {
                let end = quoted.find([' ', '\n', '|', ',', ';', ')']);
                let value = quoted[..end.unwrap_or(quoted.len())].trim_end_matches('.');
                assert_eq!(
                    value, cell,
                    "`{span}` quotes {value}, the snapshot holds {cell}"
                );
            }
        }
    }
    assert!(cited > 0, "the verdict table cites its cells");
}

#[test]
fn fig23_schedule_matches_the_thesis() {
    let t = experiments::run_experiment("fig23").expect("fig23 exists");
    assert_eq!(t.rows.len(), 4);
    assert_eq!(t.rows[0][1], "0%-50%");
    assert_eq!(t.rows[1][1], "25%-75%");
    assert_eq!(t.rows[2][1], "50%-100%");
    assert_eq!(t.rows[3][1], "0%-50%", "schedule must cycle");
    // Half of 64 nodes hot in every window.
    assert!(t.rows.iter().all(|r| r[2] == "32"));
}

#[test]
fn table2_is_well_formed_and_monotone() {
    let t = experiments::run_experiment("table2").expect("table2 exists");
    assert_eq!(t.header.len(), 6); // iters + 5 processor counts
    assert_eq!(t.rows.len(), 3); // 10, 15, 20 iterations
    for row in &t.rows {
        let times: Vec<f64> = row[1..].iter().map(|c| c.parse().unwrap()).collect();
        for w in times.windows(2) {
            assert!(w[1] < w[0], "times must fall with processors: {row:?}");
        }
    }
    // More iterations must cost more at every processor count.
    for col in 1..t.header.len() {
        let t10: f64 = t.rows[0][col].parse().unwrap();
        let t20: f64 = t.rows[2][col].parse().unwrap();
        assert!(t20 > t10, "column {col}");
    }
}

#[test]
fn markdown_rendering_is_parseable() {
    let t = experiments::run_experiment("fig23").unwrap();
    let md = t.render_markdown();
    assert!(md.starts_with("### `fig23`"));
    let table_lines: Vec<&str> = md.lines().filter(|l| l.starts_with('|')).collect();
    // header + separator + 4 rows
    assert_eq!(table_lines.len(), 6);
}
