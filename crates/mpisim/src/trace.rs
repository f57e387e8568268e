//! Structured event tracing keyed to the virtual clock.
//!
//! Every [`crate::Rank`] owns a private, lock-free event buffer; recording
//! an event is a branch plus a `Vec::push` and never touches the virtual
//! clock, so enabling tracing cannot perturb simulated time or results.
//! When a rank is dropped — at normal completion *or* while unwinding from
//! an injected crash — its buffer is flushed into the shared
//! [`TraceCollector`], which the platform layer harvests after the world
//! joins. The only lock is taken once per rank lifetime, at flush.
//!
//! Two sinks render the collected events without any registry
//! dependencies: [`chrome_trace_json`] emits the Chrome/Perfetto Trace
//! Event Format (one track per rank, timestamps in virtual-time
//! microseconds) and [`timeline_json`] emits a compact per-iteration
//! metrics timeline assembled from the `iteration` spans.
//!
//! Two same-seed runs render byte-identical sink files: every emission is
//! driven by the virtual clock or program order, timestamps use the
//! shortest-roundtrip `f64` formatter, and `credit_stall` instants are
//! emitted at the receiver's canonical resolution point rather than when a
//! sender happens to block — so the guarantee holds at every mailbox
//! capacity. `peak_mailbox_depth`, the one host-scheduled observable, never
//! reaches a sink.

use std::fmt::Write as _;
use std::sync::Mutex;

/// Name of the per-iteration span the platform layer emits; the timeline
/// sink groups on it.
pub const ITERATION_SPAN: &str = "iteration";

/// A single argument value attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned counter (iteration number, byte count, peer rank …).
    U64(u64),
    /// A duration or load in virtual seconds.
    F64(f64),
    /// A short static label.
    Str(&'static str),
}

/// Named arguments attached to an event at the call site.
pub type Args = [(&'static str, ArgValue)];

/// One structured trace event, timestamped on the virtual clock.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A phase span covering `[start, end]` virtual seconds.
    Span {
        /// Event name (phase label, `iteration`, …).
        name: &'static str,
        /// Category: `phase`, `iter`, `comm`, …
        cat: &'static str,
        /// Span start, virtual seconds.
        start: f64,
        /// Span end, virtual seconds.
        end: f64,
        /// Named arguments.
        args: Vec<(&'static str, ArgValue)>,
    },
    /// An instantaneous event at `at` virtual seconds.
    Instant {
        /// Event name (`crash`, `migration`, `rollback`, …).
        name: &'static str,
        /// Category: `fault`, `integrity`, `flow`, `balance`, …
        cat: &'static str,
        /// Timestamp, virtual seconds.
        at: f64,
        /// Named arguments.
        args: Vec<(&'static str, ArgValue)>,
    },
}

/// The events one rank recorded over its lifetime.
pub type RankTrace = (usize, Vec<TraceEvent>);

/// Shared sink the per-rank buffers flush into.
///
/// Ranks never contend during a run: each takes the lock exactly once, in
/// its `Drop`, so a rank that dies mid-run still lands its partial trace.
#[derive(Debug, Default)]
pub struct TraceCollector {
    slots: Mutex<Vec<RankTrace>>,
}

impl TraceCollector {
    /// A fresh, empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn flush(&self, rank: usize, events: Vec<TraceEvent>) {
        if let Ok(mut slots) = self.slots.lock() {
            slots.push((rank, events));
        }
    }

    /// Drain the collected traces, sorted by rank id.
    ///
    /// Flush *order* depends on host thread scheduling, so the collector
    /// canonicalises by sorting; the events inside each rank's trace are in
    /// that rank's deterministic program order.
    pub fn take(&self) -> Vec<RankTrace> {
        let mut slots = std::mem::take(&mut *self.slots.lock().expect("trace collector poisoned"));
        slots.sort_by_key(|&(rank, _)| rank);
        slots
    }
}

fn fmt_us(out: &mut String, seconds: f64) {
    // Virtual seconds → microseconds. Rust's shortest-roundtrip `Display`
    // for f64 makes this byte-stable across runs and platforms.
    let _ = write!(out, "{}", seconds * 1e6);
}

fn fmt_args(out: &mut String, args: &[(&'static str, ArgValue)]) {
    out.push_str(",\"args\":{");
    for (i, (key, value)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{key}\":");
        match value {
            ArgValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::F64(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::Str(v) => {
                let _ = write!(out, "\"{v}\"");
            }
        }
    }
    out.push('}');
}

/// Render traces in the Chrome/Perfetto Trace Event Format.
///
/// One metadata-named track (`tid`) per rank under a single process; spans
/// become complete events (`"ph":"X"`), instants become thread-scoped
/// instant events (`"ph":"i"`). Timestamps are **virtual-time
/// microseconds**, so a Perfetto "second" of wall time on screen is a
/// simulated microsecond. Load the output via Perfetto's "Open trace file"
/// or `chrome://tracing`.
pub fn chrome_trace_json(traces: &[RankTrace]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let emit_sep = |out: &mut String, first: &mut bool| {
        if *first {
            *first = false;
        } else {
            out.push_str(",\n");
        }
    };
    for &(rank, _) in traces {
        emit_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{rank},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"rank {rank}\"}}}}"
        );
    }
    for (rank, events) in traces {
        for event in events {
            emit_sep(&mut out, &mut first);
            match event {
                TraceEvent::Span {
                    name,
                    cat,
                    start,
                    end,
                    args,
                } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"X\",\"pid\":1,\"tid\":{rank},\"name\":\"{name}\",\
                         \"cat\":\"{cat}\",\"ts\":"
                    );
                    fmt_us(&mut out, *start);
                    out.push_str(",\"dur\":");
                    fmt_us(&mut out, (end - start).max(0.0));
                    fmt_args(&mut out, args);
                    out.push('}');
                }
                TraceEvent::Instant {
                    name,
                    cat,
                    at,
                    args,
                } => {
                    let _ = write!(
                        out,
                        "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{rank},\
                         \"name\":\"{name}\",\"cat\":\"{cat}\",\"ts\":"
                    );
                    fmt_us(&mut out, *at);
                    fmt_args(&mut out, args);
                    out.push('}');
                }
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Render the compact per-iteration metrics timeline.
///
/// Assembled from the `iteration` spans each rank records at its iteration
/// boundaries: per-rank phase seconds for the window, the cumulative count
/// of envelopes delivered into the rank's mailbox, and the fault events
/// observed so far; plus a cross-rank compute imbalance ratio
/// (`max/mean`) per iteration. All fields are derived from the virtual
/// clock or deterministic counters, so same-seed timelines are
/// byte-identical.
pub fn timeline_json(traces: &[RankTrace]) -> String {
    // iteration -> Vec<(rank, args, start, end)>, in rank order because
    // `traces` is sorted.
    type IterRow<'a> = (usize, &'a Vec<(&'static str, ArgValue)>, f64, f64);
    let mut iters: Vec<u64> = Vec::new();
    let mut rows: Vec<Vec<IterRow<'_>>> = Vec::new();
    for (rank, events) in traces {
        for event in events {
            let TraceEvent::Span {
                name,
                start,
                end,
                args,
                ..
            } = event
            else {
                continue;
            };
            if *name != ITERATION_SPAN {
                continue;
            }
            let Some(iter) = arg_u64(args, "iter") else {
                continue;
            };
            let at = match iters.binary_search(&iter) {
                Ok(at) => at,
                Err(at) => {
                    iters.insert(at, iter);
                    rows.insert(at, Vec::new());
                    at
                }
            };
            rows[at].push((*rank, args, *start, *end));
        }
    }

    let mut out = String::with_capacity(4096);
    out.push_str("{\"iterations\":[\n");
    for (i, (iter, row)) in iters.iter().zip(&rows).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let computes: Vec<f64> = row
            .iter()
            .filter_map(|(_, args, _, _)| arg_f64(args, "compute"))
            .collect();
        let imbalance = imbalance_ratio(&computes);
        let _ = write!(
            out,
            "{{\"iter\":{iter},\"imbalance\":{imbalance},\"ranks\":["
        );
        for (j, (rank, args, start, end)) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"rank\":{rank},\"start\":{start},\"end\":{end}");
            for (key, value) in args.iter() {
                if *key == "iter" {
                    continue;
                }
                match value {
                    ArgValue::U64(v) => {
                        let _ = write!(out, ",\"{key}\":{v}");
                    }
                    ArgValue::F64(v) => {
                        let _ = write!(out, ",\"{key}\":{v}");
                    }
                    ArgValue::Str(v) => {
                        let _ = write!(out, ",\"{key}\":\"{v}\"");
                    }
                }
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("\n]}\n");
    out
}

fn arg_u64(args: &[(&'static str, ArgValue)], key: &str) -> Option<u64> {
    args.iter().find_map(|(k, v)| match v {
        ArgValue::U64(v) if *k == key => Some(*v),
        _ => None,
    })
}

fn arg_f64(args: &[(&'static str, ArgValue)], key: &str) -> Option<f64> {
    args.iter().find_map(|(k, v)| match v {
        ArgValue::F64(v) if *k == key => Some(*v),
        _ => None,
    })
}

/// `max/mean` of the per-rank compute seconds for one iteration; `1` when
/// every rank was idle.
fn imbalance_ratio(computes: &[f64]) -> f64 {
    if computes.is_empty() {
        return 1.0;
    }
    let max = computes.iter().cloned().fold(0.0_f64, f64::max);
    let mean = computes.iter().sum::<f64>() / computes.len() as f64;
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<RankTrace> {
        vec![
            (
                0,
                vec![
                    TraceEvent::Span {
                        name: "Compute",
                        cat: "phase",
                        start: 0.0,
                        end: 0.5,
                        args: vec![],
                    },
                    TraceEvent::Span {
                        name: ITERATION_SPAN,
                        cat: "iter",
                        start: 0.0,
                        end: 1.0,
                        args: vec![
                            ("iter", ArgValue::U64(0)),
                            ("compute", ArgValue::F64(0.5)),
                            ("delivered", ArgValue::U64(3)),
                        ],
                    },
                    TraceEvent::Instant {
                        name: "crash",
                        cat: "fault",
                        at: 0.75,
                        args: vec![("peer", ArgValue::U64(1))],
                    },
                ],
            ),
            (
                1,
                vec![TraceEvent::Span {
                    name: ITERATION_SPAN,
                    cat: "iter",
                    start: 0.0,
                    end: 1.0,
                    args: vec![
                        ("iter", ArgValue::U64(0)),
                        ("compute", ArgValue::F64(1.5)),
                        ("delivered", ArgValue::U64(1)),
                    ],
                }],
            ),
        ]
    }

    #[test]
    fn collector_sorts_by_rank() {
        let collector = TraceCollector::new();
        collector.flush(2, vec![]);
        collector.flush(0, vec![]);
        collector.flush(1, vec![]);
        let taken = collector.take();
        let ranks: Vec<usize> = taken.iter().map(|&(r, _)| r).collect();
        assert_eq!(ranks, vec![0, 1, 2]);
        assert!(collector.take().is_empty(), "take drains");
    }

    #[test]
    fn chrome_sink_emits_tracks_spans_and_instants() {
        let json = chrome_trace_json(&sample());
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("\"args\":{\"name\":\"rank 0\"}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        // 0.5 virtual seconds → 500000 µs.
        assert!(json.contains("\"dur\":500000"));
        assert!(json.contains("\"peer\":1"));
        assert!(json.ends_with("]}\n"));
    }

    #[test]
    fn timeline_groups_by_iteration_and_computes_imbalance() {
        let json = timeline_json(&sample());
        assert!(json.contains("\"iter\":0"));
        // max 1.5 / mean 1.0
        assert!(json.contains("\"imbalance\":1.5"));
        assert!(json.contains("\"delivered\":3"));
        assert!(json.contains("\"rank\":1"));
    }

    #[test]
    fn sinks_are_deterministic_functions_of_the_trace() {
        let a = sample();
        let b = sample();
        assert_eq!(chrome_trace_json(&a), chrome_trace_json(&b));
        assert_eq!(timeline_json(&a), timeline_json(&b));
    }
}
