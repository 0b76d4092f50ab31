//! In-memory span recorder for the traced run.
//!
//! A span is one call from the benchmark into a crate's public API:
//! its name (`<crate>.<call>`), start and end relative to the recorder's
//! epoch, the span that was open when it started, and the workload id.
//! Spans stay in memory and are written as JSONL when the run ends.
//! A disabled recorder only runs the closure, so the untraced run pays
//! one branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed span.
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

pub struct Recorder {
    on: bool,
    workload: &'static str,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool, workload: &'static str) -> Self {
        Self { on, workload, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let ix = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span { name, start, end: start, parent: self.open.last().copied() });
        self.open.push(ix);
        let r = f(self);
        self.open.pop();
        self.spans[ix].end = self.epoch.elapsed();
        r
    }

    /// Seconds of every span named `name`, minus the time their child
    /// spans cover (self time).
    pub fn self_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// Self time summed per crate: the span-name prefix before the first
    /// `.` (`engine.fire` belongs to `engine`).
    pub fn self_by_crate(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.name.split('.').next().unwrap_or(s.name)).or_insert(0.0) += t;
        }
        out
    }

    fn self_times(&self) -> Vec<f64> {
        let mut child = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.secs();
            }
        }
        self.spans.iter().zip(child).map(|(s, c)| (s.secs() - c).max(0.0)).collect()
    }

    /// The spans as JSONL: a first line holding the run's `header`
    /// (seed, `nproc`, revision, ...), then one object per span.
    pub fn to_jsonl(&self, header: &str) -> String {
        let mut out = format!("{{\"header\":{}}}\n", nbc_obs::json::string(header));
        for (ix, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{ix},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\
                 \"parent\":{parent},\"workload\":\"{}\"}}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                self.workload,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new(true, "t");
        r.span("bench.outer", |r| {
            std::thread::sleep(Duration::from_millis(5));
            r.span("engine.inner", |_| std::thread::sleep(Duration::from_millis(20)));
        });
        let outer = r.self_secs("bench.outer");
        let inner = r.self_secs("engine.inner");
        assert!(inner >= 0.020 && (0.005..0.020).contains(&outer), "{outer} {inner}");
        let by_crate = r.self_by_crate();
        assert_eq!(by_crate.len(), 2);
        let jsonl = r.to_jsonl("perfbench seed=1");
        assert!(jsonl.starts_with("{\"header\":\"perfbench seed=1\"}"));
        assert!(jsonl.lines().nth(2).unwrap().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false, "t");
        assert_eq!(r.span("core.x", |_| 7), 7);
        assert_eq!(r.to_jsonl("h").lines().count(), 1);
    }
}
