//! Span recorder for the traced run. Spans are recorded from the
//! benchmark's own driver, around the public calls into each layer;
//! they stay in memory until the run ends, then go to a JSONL file and
//! a self-time table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
pub struct Span {
    pub name: &'static str,
    /// Operation this span belongs to (spans of one op share it).
    pub op: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_us: u64,
    pub end_us: u64,
    pub rows_in: u64,
    pub rows_out: u64,
}

/// Records spans against one clock; `enter`/`exit` nest.
pub struct Tracer {
    workload: &'static str,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            workload,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Start the next operation: spans recorded from here carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, rows_in: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_us: self.now_us(),
            end_us: 0,
            rows_in,
            rows_out: 0,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost span, which must be `id`; returns its
    /// duration in seconds.
    pub fn exit(&mut self, id: usize, rows_out: u64) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        let now = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = now;
        span.rows_out = rows_out;
        (span.end_us - span.start_us) as f64 / 1e6
    }

    /// Record a finished root span from stamps taken elsewhere (load
    /// threads stamp their own requests; spans are filed after they
    /// join).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, rows: u64) {
        self.op += 1;
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_micros() as u64;
        self.spans.push(Span {
            name,
            op: self.op,
            parent: None,
            start_us: us(start),
            end_us: us(end),
            rows_in: rows,
            rows_out: rows,
        });
    }

    /// Time `f` as one span; `f` returns its result and its rows out.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        rows_in: u64,
        f: impl FnOnce(&mut Tracer) -> (R, u64),
    ) -> (R, f64) {
        let id = self.enter(name, rows_in);
        let (out, rows_out) = f(self);
        let secs = self.exit(id, rows_out);
        (out, secs)
    }

    /// Total seconds of every span named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) as f64 / 1e6)
            .sum()
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"workload\": \"{}\", \"op\": {}, \
                 \"parent\": {parent}, \"start_us\": {}, \"end_us\": {}, \
                 \"rows_in\": {}, \"rows_out\": {}}}",
                s.name, self.workload, s.op, s.start_us, s.end_us, s.rows_in, s.rows_out
            );
        }
        out
    }

    /// Per span name: calls, total time, and self time (total minus the
    /// part its child spans cover), widest self time first.
    pub fn self_time_table(&self) -> String {
        let mut child_us = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_us) {
            let total = s.end_us - s.start_us;
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(*child);
        }
        let mut rows: Vec<_> = by_name.into_iter().collect();
        rows.sort_by_key(|(_, (_, _, own))| std::cmp::Reverse(*own));
        let all_self: u64 = rows.iter().map(|(_, (_, _, own))| own).sum();
        let mut out = format!(
            "self-time table [{}]\n{:<28} {:>7} {:>11} {:>11} {:>7}\n",
            self.workload, "span", "calls", "total_s", "self_s", "self%"
        );
        for (name, (calls, total, own)) in rows {
            let _ = writeln!(
                out,
                "{name:<28} {calls:>7} {:>11.4} {:>11.4} {:>6.1}%",
                total as f64 / 1e6,
                own as f64 / 1e6,
                100.0 * own as f64 / all_self.max(1) as f64
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new("w");
        t.next_op();
        let outer = t.enter("outer", 10);
        let inner = t.enter("inner", 10);
        t.exit(inner, 5);
        t.exit(outer, 5);
        // fix the clock so the table is exact
        t.spans[outer].start_us = 0;
        t.spans[outer].end_us = 1_000_000;
        t.spans[inner].start_us = 100_000;
        t.spans[inner].end_us = 400_000;
        assert_eq!(t.spans[inner].parent, Some(outer));
        assert!((t.total("inner") - 0.3).abs() < 1e-9);
        let table = t.self_time_table();
        let line = |name: &str| {
            table
                .lines()
                .find(|l| l.starts_with(name))
                .unwrap()
                .to_string()
        };
        assert!(line("outer").contains("0.7000"), "{table}");
        assert!(line("inner").contains("0.3000"), "{table}");
        assert_eq!(t.to_jsonl().lines().count(), 2);
        assert!(t.to_jsonl().contains("\"parent\": 0"));
    }
}
