//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's side of every layer boundary —
//! around the public calls into each layer — kept in memory, and written
//! out once when the run ends. A traced request is *decomposed*: the real
//! socket round trip is the root span, and the same request is then
//! performed in-process call by call, one span per call. Every span carries
//! the wall-clock interval of the call it wraps; `parent` is the logical
//! caller (the call that would have made this one inside the server), so a
//! layer's self time is its span's duration minus its children's durations.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::median;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer call, e.g. `serve.http.parse`.
    pub name: &'static str,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    /// Nanoseconds since the trace began.
    pub end_ns: u64,
    /// Index of the logical caller's span in the trace, if any.
    pub parent: Option<usize>,
    /// The request (or operation) all spans of one decomposition share.
    pub request: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory trace: spans in the order they were recorded.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `call` inside a span and returns its result with the span's
    /// index (to parent later spans on).
    pub fn record<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        call: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start_ns = self.now_ns();
        let result = call();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        (result, self.spans.len() - 1)
    }

    /// Records a span for work a callee timed itself (`duration_ns` as it
    /// reported), placed at the start of `within`'s interval.
    pub fn record_reported(
        &mut self,
        name: &'static str,
        within: usize,
        offset_ns: u64,
        duration_ns: u64,
    ) -> usize {
        let parent = &self.spans[within];
        let start_ns = parent.start_ns + offset_ns;
        let span = Span {
            name,
            start_ns,
            end_ns: start_ns + duration_ns,
            parent: Some(within),
            request: parent.request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Self time of every span: its duration minus the durations of the
    /// spans parented on it, floored at zero.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Per span name: the median duration and the median self time, over
    /// every span of that name whose root span is named `root` (a span with
    /// no parent is its own root).
    pub fn summary(&self, root: &str) -> BTreeMap<&'static str, SpanSummary> {
        let own = self.self_times_ns();
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let mut top = i;
            while let Some(parent) = self.spans[top].parent {
                top = parent;
            }
            if self.spans[top].name != root {
                continue;
            }
            let entry = by_name.entry(span.name).or_default();
            entry.0.push(span.duration_ns() as f64);
            entry.1.push(own[i] as f64);
        }
        by_name
            .into_iter()
            .map(|(name, (durations, selfs))| {
                (
                    name,
                    SpanSummary {
                        count: durations.len(),
                        median_ns: median(&durations),
                        median_self_ns: median(&selfs),
                    },
                )
            })
            .collect()
    }

    /// Writes the trace as one JSON document: `{"workload", "spans": [{name,
    /// start_ns, end_ns, parent, request}]}` (`parent` is an index into
    /// `spans` or `null`).
    pub fn write_json(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"workload\": \"{workload}\", \"spans\": [")?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}{}",
                span.name, span.start_ns, span.end_ns, parent, span.request, comma
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// What [`Trace::summary`] reports per span name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanSummary {
    /// Spans of this name under the requested root.
    pub count: usize,
    /// Median duration.
    pub median_ns: f64,
    /// Median self time.
    pub median_self_ns: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children_floored_at_zero() {
        let trace = Trace {
            origin: Instant::now(),
            spans: vec![
                span("root", 0, 1000, None),
                span("handle", 1000, 1600, Some(0)),
                span("parse", 1600, 1700, Some(1)),
                span("engine", 1700, 2100, Some(1)),
                span("scan", 1700, 2000, Some(3)),
                // A child reported longer than its parent cannot go negative.
                span("tiny", 0, 10, Some(0)),
                span("over", 0, 50, Some(5)),
            ],
        };
        let own = trace.self_times_ns();
        assert_eq!(own[0], 1000 - 600 - 10);
        assert_eq!(own[1], 600 - 100 - 400);
        assert_eq!(own[3], 100);
        assert_eq!(own[4], 300);
        assert_eq!(own[5], 0);
    }

    #[test]
    fn summary_groups_by_name_under_one_root() {
        let mut trace = Trace::new();
        for request in 0..3u64 {
            let (_, root) = trace.record("search", None, request, || ());
            trace.record("parse", Some(root), request, || ());
        }
        let (_, other) = trace.record("insert", None, 9, || ());
        trace.record("parse", Some(other), 9, || ());
        let summary = trace.summary("search");
        assert_eq!(summary["search"].count, 3);
        assert_eq!(summary["parse"].count, 3);
        assert!(!summary.contains_key("insert"));
        assert_eq!(trace.summary("insert")["parse"].count, 1);
    }

    #[test]
    fn reported_spans_sit_inside_their_parent_and_the_file_parses() {
        let mut trace = Trace::new();
        let (_, engine) = trace.record("engine", None, 4, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let scan = trace.record_reported("scan", engine, 10, 500);
        assert_eq!(trace.spans()[scan].parent, Some(engine));
        assert_eq!(trace.spans()[scan].request, 4);
        assert_eq!(trace.spans()[scan].duration_ns(), 500);

        let path =
            std::env::temp_dir().join(format!("gbda-trace-test-{}.json", std::process::id()));
        trace.write_json("unit", &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let document = gbd_bench::json::parse(&text).unwrap();
        let spans = document.get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_usize()), Some(0));
        assert_eq!(
            spans[0].get("name").and_then(|n| n.as_str()),
            Some("engine")
        );
    }
}
