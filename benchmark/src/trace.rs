//! In-memory span recorder for the traced pass.
//!
//! Spans are taken from the benchmark's side of each layer boundary — around
//! a batch of calls into the layer's public API, never around one call (a
//! span costs more than most of the calls it would wrap).  They stay in
//! memory while anything is being timed and are written out once, at exit.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran: a rung or phase name.
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Lane the span belongs to (empty when it spans all lanes).
    pub lane: String,
}

/// Span store of one traced run; every span shares the run's workload name.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    workload: &'static str,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for one traced run of `workload`.
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            epoch: Instant::now(),
            workload,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Start a span now; finish it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, lane: &str, parent: Option<SpanId>) -> SpanId {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            lane: lane.to_string(),
        });
        self.spans.len() - 1
    }

    /// End a span started with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Record a span whose endpoints the caller already took (the rung loops
    /// time their batches themselves, so recording adds nothing inside the
    /// timed interval).
    pub fn record(&mut self, name: &str, parent: Option<SpanId>, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            lane: String::new(),
        });
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\": \"{}\", \"spans\": [",
            crate::json::escape(self.workload)
        );
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"workload\": \"{}\", \"lane\": \"{}\"}}",
                crate::json::escape(&span.name),
                span.start_ns,
                span.end_ns,
                crate::json::escape(self.workload),
                crate::json::escape(&span.lane),
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// Write the trace to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn spans_carry_name_start_end_and_parent() {
        let mut tracer = Tracer::new("stack-churn-t1");
        let root = tracer.open("ladder", "", None);
        let t0 = Instant::now();
        let t1 = Instant::now();
        tracer.record("hw.cas_ns", Some(root), t0, t1);
        let lane = tracer.open("workload.run_cell", "tagged", Some(root));
        tracer.close(lane);
        tracer.close(root);

        let doc = Value::parse(&tracer.to_json()).expect("trace is valid JSON");
        assert_eq!(
            doc.get("workload").and_then(Value::as_str),
            Some("stack-churn-t1")
        );
        let spans = doc.get("spans").and_then(Value::as_array).expect("spans");
        assert_eq!(spans.len(), 3);
        for span in spans {
            for key in [
                "id", "name", "start_ns", "end_ns", "parent", "workload", "lane",
            ] {
                assert!(span.get(key).is_some(), "span lacks {key}");
            }
            let (start, end) = (
                span.get("start_ns").and_then(Value::as_f64).unwrap(),
                span.get("end_ns").and_then(Value::as_f64).unwrap(),
            );
            assert!(start <= end);
        }
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
        assert_eq!(spans[1].get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(spans[2].get("lane").and_then(Value::as_str), Some("tagged"));
        // The root span covers its children.
        assert!(tracer.spans()[0].end_ns >= tracer.spans()[2].end_ns);
    }
}
