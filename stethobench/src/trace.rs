//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program's public API (the program itself is not instrumented). A
//! disabled tracer records nothing, so the untraced and traced runs
//! execute the same code.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

/// One closed span; times are µs since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub iteration: usize,
}

impl Span {
    fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Iteration number stamped on spans opened from now on.
    pub iteration: usize,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iteration: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.stack.last().copied(),
            iteration: self.iteration,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Close a span; spans must close innermost first.
    pub fn close(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_us = self.now_us();
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Self time of every span (its duration minus the part its child
    /// spans cover), in ms, grouped by span name.
    pub fn self_ms(&self) -> HashMap<&'static str, Samples> {
        let child = self.child_us();
        let mut by_name: HashMap<&'static str, Samples> = HashMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            by_name
                .entry(s.name)
                .or_default()
                .push((s.dur_us() - child[i]) / 1e3);
        }
        by_name
    }

    /// Summed duration of all spans of each name, in ms.
    pub fn total_ms(&self) -> HashMap<&'static str, f64> {
        let mut by_name: HashMap<&'static str, f64> = HashMap::new();
        for s in &self.spans {
            *by_name.entry(s.name).or_default() += s.dur_us() / 1e3;
        }
        by_name
    }

    fn child_us(&self) -> Vec<f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_us();
            }
        }
        child
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let child = self.child_us();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3},\"parent\":{parent},\"workload\":\"{workload}\",\"iteration\":{}}}",
                s.name,
                s.start_us,
                s.end_us,
                s.dur_us() - child[i],
                s.iteration
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer");
        t.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.close(outer);
        let s = t.self_ms();
        assert!(s["inner"].median() >= 5.0);
        assert!(s["outer"].median() < s["inner"].median());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("x");
        t.close(id);
        assert!(t.self_ms().is_empty());
    }
}
