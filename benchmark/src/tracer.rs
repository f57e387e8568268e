//! Harness-side spans: one around every call the benchmark makes into the
//! platform. Spans inside the program are ROADMAP item 5; until then the
//! harness times each layer from outside.
//!
//! Spans are kept in memory and written once, at exit, as Chrome-trace
//! JSON (`chrome://tracing`, Perfetto). With recording off the tracer
//! still measures — every metric is built from [`Tracer::time`] — it just
//! keeps no span.

use crate::json::Json;
use std::time::Instant;

/// One finished span. `parent` indexes the span that was open when this
/// one began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    /// Whether spans are recorded. Public so a traced pass can switch
    /// recording off and on around the repetitions it compares.
    pub recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(recording: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            recording,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span called `name`; returns its result and how many
    /// seconds it took. Spans begun inside `f` become children.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let slot = self.recording.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_us: 0.0,
                end_us: 0.0,
                parent: self.open.last().copied(),
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let start = Instant::now();
        let result = f(self);
        let end = Instant::now();
        if let Some(i) = slot {
            self.open.pop();
            self.spans[i].start_us = (start - self.origin).as_secs_f64() * 1e6;
            self.spans[i].end_us = (end - self.origin).as_secs_f64() * 1e6;
        }
        (result, (end - start).as_secs_f64())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome-trace document: one complete (`"ph": "X"`)
    /// event per span, with the span's index and its parent's in `args`.
    pub fn chrome_trace(&self) -> Json {
        let events = self.spans.iter().enumerate().map(|(id, s)| {
            Json::obj([
                ("name", Json::str(&s.name)),
                ("cat", Json::str("harness")),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_us)),
                ("dur", Json::Num(s.end_us - s.start_us)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(1.0)),
                (
                    "args",
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ]),
                ),
            ])
        });
        Json::obj([
            ("traceEvents", Json::Arr(events.collect())),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialise() {
        let mut t = Tracer::new(true);
        let (value, outer_s) = t.time("outer", |t| {
            t.time("first", |_| ());
            t.time("second", |_| 7).0
        });
        assert_eq!(value, 7);
        assert!(outer_s >= 0.0);
        let names: Vec<_> = t
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            [("outer", None), ("first", Some(0)), ("second", Some(0))]
        );
        let outer = &t.spans()[0];
        for child in &t.spans()[1..] {
            assert!(outer.start_us <= child.start_us && child.end_us <= outer.end_us);
        }
        let doc = Json::parse(&t.chrome_trace().pretty()).expect("chrome trace parses");
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("traceEvents missing");
        };
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].get("ph"), Some(&Json::str("X")));
    }

    #[test]
    fn a_tracer_that_is_off_still_measures() {
        let mut t = Tracer::new(false);
        let ((), s) = t.time("sleep", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(s >= 0.002);
        assert!(t.spans().is_empty());
    }
}
