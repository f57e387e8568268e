//! What the benchmark measures, by name: the six workloads, the
//! end-to-end metrics with their regression bounds, and the per-layer
//! metrics. `BENCHMARK.json` at the repository root is generated from
//! these tables (`--manifest`), and a self-test keeps the two equal.

use crate::json::Json;
use std::collections::BTreeSet;

/// Seconds one run measures (`run_seconds` in the manifest, and the suite's
/// default `--seconds`).
pub const RUN_SECONDS: u64 = 10;

/// A workload's name and the one-line reason it exists.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "hex1m_bsp",
        why: "1000x1000 hex grid, 16 ranks, plain BSP: the per-node store/compute hot path does nearly all the work and synchronisation nearly none",
    },
    WorkloadDef {
        name: "hex64_sync",
        why: "thesis Table 3 (64-node hex, Metis, 8 ranks) for thousands of rounds: barrier, mailbox and thread wake-ups are all of it, so a store change must not show here",
    },
    WorkloadDef {
        name: "battlefield_dyn",
        why: "128x128 battlefield, 3 phases per step, Diffusion balancing: fat HexCell records stress wire encode/decode, clones, migration and the balancer",
    },
    WorkloadDef {
        name: "skew100k_comm",
        why: "100k-node preferential-attachment graph, block partition cutting ~80% of edges: shadow pack/unpack, wire and payload traffic dominate, hubs have long neighbour lists",
    },
    WorkloadDef {
        name: "hex256k_paged",
        why: "512x512 hex grid at 1/8 residency: the same NodeStore through the pager, the virtual disk and the checkpoint driver, with Metis at scale in setup_s",
    },
    WorkloadDef {
        name: "hex16k_chaos",
        why: "128x128 hex under drop/corrupt/truncate, a crash, a partition and memory rot: the membership driver, delta exchange, audits and every repair path",
    },
];

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How two runs of the same commit are expected to compare on a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Repeat {
    /// A count or a virtual-clock reading: bit-identical, always.
    Exact,
    /// A host measurement judged against this regression bound (a share of
    /// the baseline's median).
    Bound(f64),
    /// A host measurement of one layer: reported, never gated.
    Noisy,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub repeat: Repeat,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        repeat: Repeat::Bound(bound),
    }
}

const fn host(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        repeat: Repeat::Noisy,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        repeat: Repeat::Exact,
    }
}

/// What a user of the platform sees. Failures are not a metric here: the
/// result line carries `attempted` and `failed`, and the suite prints
/// their ratio as `fail_frac`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", 0.25),
    e2e("run_s", "s", 0.25),
    e2e("ns_per_update", "ns", 0.25),
    e2e("peak_rss_mb", "MiB", 0.15),
];

/// Layer probes that do not depend on the workload: direct timings of
/// public functions, then differential `try_run` timings on a 250x250 hex
/// shard (one rank's share of `hex1m_bsp`).
pub const PROBES: &[MetricDef] = &[
    host("graph.hex_gen_ns_per_node", "ns"),
    host("graph.builder_ns_per_edge", "ns"),
    host("partition.rowband_hex62k_ns_per_node", "ns"),
    host("partition.metis_hex16k_ns_per_node", "ns"),
    host("partition.metis_skew10k_ns_per_node", "ns"),
    host("partition.pagrid_hex16k_ns_per_node", "ns"),
    host("balance.diffusion_plan_ns", "ns"),
    host("mpisim.wire.encode_ns_per_entry", "ns"),
    host("mpisim.wire.decode_ns_per_entry", "ns"),
    host("mpisim.wire.cell_encode_ns", "ns"),
    host("mpisim.wire.cell_decode_ns", "ns"),
    host("mpisim.mailbox.self_sendrecv_ns", "ns"),
    host("mpisim.mailbox.pingpong_ns", "ns"),
    host("mpisim.world.spawn_join_us_per_rank", "us"),
    host("mpisim.world.barrier_ns_2r", "ns"),
    host("mpisim.world.barrier_ns_8r", "ns"),
    host("mpisim.world.ctl_exchange_ns_8r", "ns"),
    host("mpisim.comm.gather_ns_per_byte", "ns"),
    host("mpisim.comm.bcast_ns_per_byte", "ns"),
    host("mpisim.comm.reliable_send_ns", "ns"),
    host("mpisim.faults.decide_ns", "ns"),
    host("mpisim.disk.write_ns_per_kib", "ns"),
    host("mpisim.disk.read_ns_per_kib", "ns"),
    host("core.driver.fixed_ns_per_node", "ns"),
    host("core.exchange.interior_ns_per_update", "ns"),
    host("core.exchange.boundary_ns_per_update", "ns"),
    host("core.exchange.delta_boundary_ns_per_update", "ns"),
    exact("core.exchange.allocs_per_update", "count", Better::Lower),
    exact("core.store.bytes_per_node", "B", Better::Lower),
    host("core.paging.fault_ns", "ns"),
    host("core.checkpoint.stage_ns_per_node", "ns"),
    host("core.audit.ns_per_node", "ns"),
    host("core.membership.ns_per_update", "ns"),
];

/// Per-workload counts, shares and derived figures, read off the traced
/// run's `RunReport` and spans.
pub const PER_WORKLOAD: &[MetricDef] = &[
    exact("virtual_s", "model_s", Better::Lower),
    exact("core.updates", "count", Better::Higher),
    host("core.seq.ns_per_update", "ns"),
    host("host.oracle_x", "x"),
    host("host.fixed_s", "s"),
    host("host.iter_ms", "ms"),
    host("graph.workload_gen_ns_per_node", "ns"),
    host("partition.workload_ns_per_node", "ns"),
    exact("partition.edge_cut", "count", Better::Lower),
    exact("partition.imbalance", "ratio", Better::Lower),
    exact("mpisim.msgs", "count", Better::Lower),
    exact("mpisim.wire_bytes", "B", Better::Lower),
    exact("mpisim.barriers", "count", Better::Lower),
    exact("mpisim.retries", "count", Better::Lower),
    exact("mpisim.payload_allocs", "count", Better::Lower),
    exact("core.record_wire_bytes", "B", Better::Lower),
    exact("core.migrations", "count", Better::Lower),
    exact("core.page_faults", "count", Better::Lower),
    exact("core.pages_evicted", "count", Better::Lower),
    exact("core.checkpoint_bytes", "B", Better::Lower),
    exact("core.rollbacks", "count", Better::Lower),
    exact("core.iterations_replayed", "count", Better::Lower),
    exact("core.rejoins", "count", Better::Lower),
    exact("core.repairs", "count", Better::Lower),
    exact("core.delta_sent", "count", Better::Lower),
    exact("core.delta_skipped", "count", Better::Higher),
    exact("virt.init_frac", "ratio", Better::Lower),
    exact("virt.compute_frac", "ratio", Better::Higher),
    exact("virt.comp_overhead_frac", "ratio", Better::Lower),
    exact("virt.comm_frac", "ratio", Better::Lower),
    exact("virt.comm_overhead_frac", "ratio", Better::Lower),
    exact("virt.balance_frac", "ratio", Better::Lower),
    exact("virt.checkpoint_frac", "ratio", Better::Lower),
    exact("virt.recovery_frac", "ratio", Better::Lower),
    exact("virt.integrity_frac", "ratio", Better::Lower),
    exact("virt.storage_frac", "ratio", Better::Lower),
    host("trace.overhead_frac", "ratio"),
    host("attrib.residual_frac", "ratio"),
];

/// Every per-layer metric, probes first.
pub fn per_layer() -> impl Iterator<Item = &'static MetricDef> {
    PROBES.iter().chain(PER_WORKLOAD)
}

/// Look a metric up by name in every table.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(per_layer())
        .find(|m| m.name == name)
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// Check a set of tables against the limits `BENCHMARK.json` is held to:
/// well-formed unique names, well-formed units, one-line reasons, 2–8
/// workloads, 1–16 end-to-end metrics (one of them `setup_s` in `s`, lower
/// is better) with bounds in (0, 0.25], and 1–128 per-layer metrics.
pub fn validate(
    workloads: &[WorkloadDef],
    end_to_end: &[MetricDef],
    per_layer: &[&MetricDef],
) -> Result<(), String> {
    let mut seen = BTreeSet::new();
    let mut claim = |name: &str| -> Result<(), String> {
        if !name_ok(name) {
            return Err(format!("bad name {name:?}"));
        }
        if !seen.insert(name.to_string()) {
            return Err(format!("name {name:?} is used twice"));
        }
        Ok(())
    };
    if !(2..=8).contains(&workloads.len()) {
        return Err(format!("{} workloads, want 2 to 8", workloads.len()));
    }
    if !(1..=16).contains(&end_to_end.len()) {
        return Err(format!(
            "{} end-to-end metrics, want 1 to 16",
            end_to_end.len()
        ));
    }
    if !(1..=128).contains(&per_layer.len()) {
        return Err(format!(
            "{} per-layer metrics, want 1 to 128",
            per_layer.len()
        ));
    }
    for w in workloads {
        claim(w.name)?;
        if w.why.is_empty() || w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!(
                "workload {:?}: why must be one line of at most 200 characters",
                w.name
            ));
        }
    }
    for m in end_to_end.iter().chain(per_layer.iter().copied()) {
        claim(m.name)?;
        if !unit_ok(m.unit) {
            return Err(format!("metric {:?}: bad unit {:?}", m.name, m.unit));
        }
    }
    for m in end_to_end {
        match m.repeat {
            Repeat::Bound(b) if b > 0.0 && b <= 0.25 => {}
            _ => return Err(format!("metric {:?}: bound must be in (0, 0.25]", m.name)),
        }
    }
    let setup_ok = end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower);
    if !setup_ok {
        return Err("no end-to-end metric setup_s in s, lower is better".into());
    }
    Ok(())
}

/// The content of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let metric = |m: &MetricDef| {
        let mut pairs = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.as_str())),
        ];
        if let Repeat::Bound(b) = m.repeat {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--quiet",
                "--release",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        ("per_layer", Json::Arr(per_layer().map(metric).collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layers() -> Vec<&'static MetricDef> {
        per_layer().collect()
    }

    #[test]
    fn the_benchmarks_own_tables_are_valid() {
        validate(WORKLOADS, END_TO_END, &layers()).expect("schema tables");
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&text).expect("BENCHMARK.json parses"),
            manifest(),
            "regenerate with `--manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn validator_rejects_what_the_contract_refuses() {
        let good = |name| host(name, "ns");
        let check = |w: &[WorkloadDef], e: &[MetricDef], l: &[MetricDef]| {
            validate(w, e, &l.iter().collect::<Vec<_>>())
        };
        let w = |name| WorkloadDef {
            name,
            why: "because",
        };
        let setup = || e2e("setup_s", "s", 0.25);
        assert!(check(&[w("a"), w("b")], &[setup()], &[good("x.y-z_1")]).is_ok());

        // Names: character set, first character, length, uniqueness.
        for bad in [
            "",
            "has space",
            "slash/no",
            "-leading",
            "é",
            &"n".repeat(65),
        ] {
            let bad: &'static str = Box::leak(bad.to_string().into_boxed_str());
            assert!(
                check(&[w("a"), w("b")], &[setup()], &[good(bad)]).is_err(),
                "{bad:?}"
            );
        }
        assert!(check(&[w("a"), w("a")], &[setup()], &[good("x")]).is_err());
        assert!(check(&[w("a"), w("b")], &[setup()], &[good("x"), good("x")]).is_err());
        assert!(check(&[w("a"), w("b")], &[setup()], &[good("a")]).is_err());

        // Table sizes.
        assert!(check(&[w("a")], &[setup()], &[good("x")]).is_err());
        let nine: Vec<WorkloadDef> = ["a", "b", "c", "d", "e", "f", "g", "h", "i"].map(w).into();
        assert!(check(&nine, &[setup()], &[good("x")]).is_err());
        assert!(check(&[w("a"), w("b")], &[], &[good("x")]).is_err());
        assert!(check(&[w("a"), w("b")], &[setup()], &[]).is_err());
        let names: Vec<&'static str> = (0..129)
            .map(|i| &*Box::leak(format!("m{i}").into_boxed_str()))
            .collect();
        let many = |n: usize| names[..n].iter().map(|&s| good(s)).collect::<Vec<_>>();
        assert!(check(&[w("a"), w("b")], &[setup()], &many(128)).is_ok());
        assert!(check(&[w("a"), w("b")], &[setup()], &many(129)).is_err());
        let mut wide: Vec<MetricDef> = names[..16].iter().map(|&s| e2e(s, "s", 0.1)).collect();
        wide.push(setup());
        assert!(check(&[w("a"), w("b")], &wide, &[good("x")]).is_err());

        // Units, bounds, the mandatory set-up metric, one-line reasons.
        assert!(check(&[w("a"), w("b")], &[setup()], &[host("x", "n s")]).is_err());
        assert!(check(&[w("a"), w("b")], &[e2e("setup_s", "s", 0.3)], &[good("x")]).is_err());
        assert!(check(&[w("a"), w("b")], &[e2e("setup_s", "s", 0.0)], &[good("x")]).is_err());
        assert!(check(&[w("a"), w("b")], &[e2e("run_s", "s", 0.1)], &[good("x")]).is_err());
        let two_lines = WorkloadDef {
            name: "b",
            why: "one\ntwo",
        };
        assert!(check(&[w("a"), two_lines], &[setup()], &[good("x")]).is_err());
    }
}
