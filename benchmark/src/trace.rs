//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around public calls into
//! the crates (nothing inside the crates is instrumented), kept in memory
//! and written to `benchmark/out/trace-<workload>.json` when the run ends.
//! A span's *self time* is its duration minus the part its children
//! cover.

use serde_json::{json, Value};
use std::time::Instant;

/// One closed (or still open) interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// What ran: `<crate>.<call>` for a layer, `job` for a whole job.
    pub name: String,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
    /// Index of the span this one ran inside; `None` for a root.
    pub parent: Option<usize>,
    /// The repetition the span belongs to (inherited from its parent).
    pub rep: Option<usize>,
}

/// Records spans against one monotonic origin.
pub struct Tracer {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for one workload's traced run.
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The origin every span time is measured from. Code that timestamps
    /// on its own (the fault-plane wrapper) shares it.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn open_span(&mut self, name: &str, rep: Option<usize>) -> usize {
        let parent = self.open.last().copied();
        let rep = rep.or_else(|| parent.and_then(|p| self.spans[p].rep));
        let now = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            start: now,
            end: now,
            parent,
            rep,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn close_span(&mut self, idx: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end = self.now();
        self.spans[idx].end - self.spans[idx].start
    }

    /// Run `f` inside a span named `name`, nested in whatever span is
    /// open; returns `f`'s result and the span's duration in seconds.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let idx = self.open_span(name, None);
        let r = f(self);
        (r, self.close_span(idx))
    }

    /// [`span`](Self::span) that also starts repetition `rep`.
    pub fn rep_span<T>(
        &mut self,
        name: &str,
        rep: usize,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let idx = self.open_span(name, Some(rep));
        let r = f(self);
        (r, self.close_span(idx))
    }

    /// Add already-measured intervals (origin-relative seconds) as
    /// children of the innermost open span.
    pub fn adopt(&mut self, intervals: impl IntoIterator<Item = (&'static str, f64, f64)>) {
        let parent = self.open.last().copied();
        let rep = parent.and_then(|p| self.spans[p].rep);
        for (name, start, end) in intervals {
            self.spans.push(Span {
                name: name.to_string(),
                start,
                end,
                parent,
                rep,
            });
        }
    }

    /// `spans[idx]`'s duration minus the part of it its direct children
    /// cover (overlapping children are counted once).
    pub fn self_time(&self, idx: usize) -> f64 {
        let me = &self.spans[idx];
        let mut kids: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start.max(me.start), s.end.min(me.end)))
            .collect();
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut upto = me.start;
        for (start, end) in kids {
            if end > upto {
                covered += end - start.max(upto);
                upto = end;
            }
        }
        (me.end - me.start) - covered
    }

    /// Check the file's promise: every parent index names an earlier
    /// span, every span ends no earlier than it starts, and child
    /// intervals lie inside their parent's.
    pub fn validate(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.end < s.start {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                if p >= i {
                    return Err(format!(
                        "span {i} ({}) has parent {p} not before it",
                        s.name
                    ));
                }
                let parent = &self.spans[p];
                if s.start < parent.start || s.end > parent.end {
                    return Err(format!(
                        "span {i} ({}) leaves its parent {p} ({})",
                        s.name, parent.name
                    ));
                }
            }
        }
        if !self.open.is_empty() {
            return Err(format!("{} spans still open", self.open.len()));
        }
        Ok(())
    }

    /// The span file: one object per span with its self time.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                json!({
                    "id": i,
                    "name": s.name.as_str(),
                    "start": s.start,
                    "end": s.end,
                    "self_s": self.self_time(i),
                    "parent": s.parent,
                    "workload": self.workload.as_str(),
                    "rep": s.rep,
                })
            })
            .collect();
        json!({"workload": self.workload.as_str(), "unit": "s", "spans": spans})
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(spans: &[(&str, f64, f64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new("fixture");
        for &(name, start, end, parent) in spans {
            t.spans.push(Span {
                name: name.to_string(),
                start,
                end,
                parent,
                rep: None,
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_sibling_children() {
        let t = fixture(&[
            ("job", 0.0, 10.0, None),
            ("a", 1.0, 3.0, Some(0)),
            ("b", 5.0, 9.0, Some(0)),
        ]);
        assert_eq!(t.self_time(0), 4.0);
        assert_eq!(t.self_time(1), 2.0);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn self_time_ignores_grandchildren_and_counts_overlap_once() {
        let t = fixture(&[
            ("job", 0.0, 10.0, None),
            ("outer", 2.0, 8.0, Some(0)),
            ("inner", 3.0, 5.0, Some(1)),
            ("overlapping", 6.0, 9.0, Some(0)),
        ]);
        // Children cover [2, 9) of the job; the grandchild is outer's.
        assert_eq!(t.self_time(0), 3.0);
        assert_eq!(t.self_time(1), 4.0);
        assert_eq!(t.self_time(2), 2.0);
    }

    #[test]
    fn validate_rejects_escaping_children_and_forward_parents() {
        let escaping = fixture(&[("job", 1.0, 2.0, None), ("late", 1.5, 2.5, Some(0))]);
        assert!(escaping
            .validate()
            .unwrap_err()
            .contains("leaves its parent"));
        let forward = fixture(&[("child", 0.0, 1.0, Some(1)), ("job", 0.0, 1.0, None)]);
        assert!(forward.validate().unwrap_err().contains("not before it"));
    }

    #[test]
    fn live_spans_nest_and_inherit_the_rep() {
        let mut t = Tracer::new("live");
        let ((), outer_s) = t.rep_span("job", 3, |t| {
            let (v, inner_s) = t.span("layer.call", |_| 7);
            assert_eq!(v, 7);
            assert!(inner_s >= 0.0);
            let at = t.now();
            t.adopt([("layer.hook", at, at)]);
        });
        assert!(outer_s >= 0.0);
        assert!(t.validate().is_ok());
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.rep == Some(3)));
        let file = t.to_json();
        assert_eq!(file["spans"][1]["name"], "layer.call");
        assert_eq!(file["spans"][1]["parent"], 0);
    }
}
