//! Canonical traced runs and the `trace.json` schema check behind
//! `repro --trace/--timeline/--check-trace` and the CI trace job.
//!
//! The canonical run is a seeded chaos workload with **unbounded**
//! mailboxes: credit stalls are the one host-schedule-dependent trace
//! event and only exist under bounded mailboxes, so every event this run
//! emits is a pure function of the virtual clock and the fault plan — two
//! same-seed runs produce byte-identical sink files, which CI checks with
//! a plain `cmp`.

use crate::workloads as w;
use ic2mpi::prelude::*;
use ic2mpi::{chrome_trace_json, timeline_json, RunReport};

/// The canonical seeded chaos workload `repro --trace` records: 64-node
/// hex grid, 8 procs, 12 iterations, drop + corrupt + truncate faults,
/// an uncooperative crash of rank 3 mid-run, checkpointing every 4
/// iterations — so the trace exercises retries, NACKs, crash timeouts,
/// checkpoints and a rollback, all deterministically.
pub fn traced_chaos_report() -> RunReport<i64> {
    let graph = w::hex(64);
    let program = AvgProgram::fine();
    let plan = mpisim::FaultPlan::new(42)
        .with_drop(0.05)
        .with_corrupt(0.05)
        .with_truncate(0.02)
        .with_crash(3, 0.05);
    let world = mpisim::Config::virtual_time(mpisim::NetModel::origin2000())
        .with_watchdog(std::time::Duration::from_secs(60))
        .with_faults(plan);
    let cfg = RunConfig::new(8, 12)
        .with_checkpointing(4)
        .with_world(world)
        .with_tracing();
    w::run_static(&graph, &program, &cfg)
}

/// Render both sinks for [`traced_chaos_report`]:
/// `(chrome_trace, timeline)`.
pub fn traced_chaos_sinks() -> (String, String) {
    let report = traced_chaos_report();
    let traces = report.trace.as_deref().unwrap_or(&[]);
    (chrome_trace_json(traces), timeline_json(traces))
}

/// What [`check_trace`] verified about a trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Rank tracks (thread-name metadata records).
    pub ranks: usize,
    /// Complete (`"ph":"X"`) span events.
    pub spans: usize,
    /// Instant (`"ph":"i"`) events.
    pub instants: usize,
}

fn tid_of(event: &str) -> Result<usize, String> {
    let pos = event
        .find("\"tid\":")
        .ok_or_else(|| format!("event lacks a tid: {event}"))?;
    let digits: String = event[pos + 6..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits
        .parse()
        .map_err(|_| format!("non-numeric tid: {event}"))
}

/// Validate a `repro --trace` output file against the subset of the Chrome
/// Trace Event Format the recorder emits: the exact header, one
/// `thread_name` metadata record per rank, complete spans with `ts`/`dur`,
/// thread-scoped instants — and at least one span on every rank's track
/// (every rank records at least its Initialization phase). Hand-rolled
/// line scanner; the workspace builds offline with no JSON dependency.
pub fn check_trace(json: &str) -> Result<TraceSummary, String> {
    let mut lines = json.lines();
    let head = lines.next().ok_or("empty trace file")?;
    if head != "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[" {
        return Err(format!("unexpected header: {head}"));
    }
    let mut meta_tids: Vec<usize> = Vec::new();
    let mut span_tids: Vec<usize> = Vec::new();
    let mut spans = 0usize;
    let mut instants = 0usize;
    let mut closed = false;
    for line in lines {
        if closed {
            return Err(format!("content after the closing bracket: {line}"));
        }
        if line == "]}" {
            closed = true;
            continue;
        }
        let event = line.strip_suffix(',').unwrap_or(line);
        if !event.starts_with("{\"ph\":\"") || !event.ends_with('}') {
            return Err(format!("malformed event line: {line}"));
        }
        if !event.contains("\"pid\":1") {
            return Err(format!("event outside pid 1: {event}"));
        }
        let tid = tid_of(event)?;
        match &event[7..8] {
            "M" => {
                if !event.contains("\"name\":\"thread_name\"") {
                    return Err(format!("unknown metadata record: {event}"));
                }
                if meta_tids.contains(&tid) {
                    return Err(format!("duplicate thread_name for tid {tid}"));
                }
                meta_tids.push(tid);
            }
            "X" => {
                if !event.contains("\"ts\":") || !event.contains("\"dur\":") {
                    return Err(format!("span without ts/dur: {event}"));
                }
                spans += 1;
                if !span_tids.contains(&tid) {
                    span_tids.push(tid);
                }
            }
            "i" => {
                if !event.contains("\"ts\":") || !event.contains("\"s\":\"t\"") {
                    return Err(format!("instant without ts or thread scope: {event}"));
                }
                instants += 1;
            }
            ph => return Err(format!("unexpected event phase {ph:?}: {event}")),
        }
    }
    if !closed {
        return Err("trace file is not closed with `]}`".into());
    }
    if meta_tids.is_empty() {
        return Err("no rank tracks".into());
    }
    span_tids.sort_unstable();
    let mut named = meta_tids.clone();
    named.sort_unstable();
    if span_tids != named {
        return Err(format!(
            "span tracks {span_tids:?} do not match named rank tracks {named:?}"
        ));
    }
    Ok(TraceSummary {
        ranks: meta_tids.len(),
        spans,
        instants,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_trace_passes_its_own_schema_check() {
        let (trace, timeline) = traced_chaos_sinks();
        let summary = check_trace(&trace).expect("canonical trace is schema-clean");
        assert_eq!(summary.ranks, 8, "one track per rank");
        assert!(summary.spans > 0 && summary.instants > 0);
        assert!(timeline.starts_with("{\"iterations\":["));
    }

    #[test]
    fn schema_check_rejects_garbage() {
        assert!(check_trace("").is_err());
        assert!(check_trace("{\"traceEvents\":[\n]}").is_err());
        let missing_close = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
        assert!(check_trace(missing_close).is_err());
    }
}
