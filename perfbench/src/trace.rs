//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public
//! functions; nothing inside the program is instrumented. Every span
//! names the span that caused it (the operation span at the root), spans
//! stay in memory while the benchmark runs, and [`Tracer::write`] dumps
//! them with per-layer self time when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// The span store of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span that ends at the matching [`Tracer::close`], so that
    /// spans recorded in between can name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, now, now)
    }

    /// Ends a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, start, Instant::now());
        out
    }

    /// Duration of span `id` in milliseconds.
    pub fn duration_ms(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e6
    }

    /// Duration of the most recently recorded span, in milliseconds.
    pub fn last_ms(&self) -> f64 {
        self.duration_ms(self.spans.len() - 1)
    }

    /// Self time of every span in nanoseconds: its duration minus the part
    /// of its interval that its children cover.
    fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if lo < hi {
                    children[p].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Mean self time per operation, in milliseconds, of the spans named
    /// `name` whose parent is one of `ops` (0 when `ops` is empty).
    pub fn mean_self_ms(&self, name: &str, ops: &[SpanId]) -> f64 {
        if ops.is_empty() {
            return 0.0;
        }
        let self_ns = self.self_times();
        let mut is_op = vec![false; self.spans.len()];
        for &op in ops {
            is_op[op] = true;
        }
        let total: u64 = self
            .spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name == name && (s.parent.is_some_and(|p| is_op[p])))
            .map(|(_, &ns)| ns)
            .sum();
        total as f64 / 1e6 / ops.len() as f64
    }

    /// Mean self time of the spans `ids` themselves, in milliseconds (0
    /// when `ids` is empty).
    pub fn mean_own_self_ms(&self, ids: &[SpanId]) -> f64 {
        if ids.is_empty() {
            return 0.0;
        }
        let self_ns = self.self_times();
        ids.iter().map(|&id| self_ns[id]).sum::<u64>() as f64 / 1e6 / ids.len() as f64
    }

    /// Writes every span (one JSON object per line) to `path`, followed by
    /// a per-layer self-time summary line, and returns that summary as
    /// `(layer, spans, total self ms)` rows.
    pub fn write(&self, path: &Path) -> std::io::Result<Vec<(&'static str, usize, f64)>> {
        let self_ns = self.self_times();
        let mut out = String::new();
        for (id, (s, ns)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{ns}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        let mut layers: BTreeMap<&'static str, (usize, u64)> = BTreeMap::new();
        for (s, &ns) in self.spans.iter().zip(&self_ns) {
            let e = layers.entry(s.name).or_default();
            e.0 += 1;
            e.1 += ns;
        }
        let rows: Vec<(&'static str, usize, f64)> = layers
            .into_iter()
            .map(|(name, (n, ns))| (name, n, ns as f64 / 1e6))
            .collect();
        let summary: Vec<String> = rows
            .iter()
            .map(|(name, n, ms)| format!("\"{name}\":{{\"spans\":{n},\"self_ms\":{ms}}}"))
            .collect();
        let _ = writeln!(out, "{{\"self_time\":{{{}}}}}", summary.join(","));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)?;
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_only_covered_child_intervals() {
        let mut t = Tracer::new();
        let base = t.origin;
        let at = |ms: u64| base + Duration::from_millis(ms);
        let op = t.record("op", None, at(0), at(10));
        t.record("a", Some(op), at(1), at(4));
        t.record("b", Some(op), at(3), at(6)); // overlaps a
        t.record("late", Some(op), at(20), at(25)); // outside the op
        assert!((t.mean_own_self_ms(&[op]) - 5.0).abs() < 1e-9);
        assert!((t.mean_self_ms("late", &[op]) - 5.0).abs() < 1e-9);
        assert_eq!(t.mean_self_ms("a", &[]), 0.0);
    }
}
