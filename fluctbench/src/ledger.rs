//! The stage ledger: spans the benchmark records around each call into
//! a layer's public functions.
//!
//! A span has a name, a start and end (ns since the ledger opened), the
//! index of the span that caused it, and the run id every span of one
//! benchmark run shares. Spans stay in memory and are written out when
//! the run ends. A disabled ledger (untraced runs) records nothing and
//! costs one branch per call.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or stage name, e.g. `store.writer`.
    pub name: &'static str,
    /// Start, ns since the ledger opened.
    pub start_ns: u64,
    /// End, ns since the ledger opened.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store of one run.
pub struct Ledger {
    enabled: bool,
    origin: Instant,
    /// Shared by every span of this run.
    pub run_id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Ledger {
    /// A ledger; `enabled = false` records nothing.
    pub fn new(enabled: bool, run_id: u64) -> Self {
        Ledger {
            enabled,
            origin: Instant::now(),
            run_id,
            spans: Vec::with_capacity(if enabled { 1 << 14 } else { 0 }),
            open: Vec::new(),
        }
    }

    /// True when spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off (a traced run interleaves untraced
    /// passes to measure the ledger's own overhead).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span; returns its index.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Close the span `open` returned (spans close innermost first).
    pub fn close(&mut self, idx: Option<usize>) {
        if let Some(idx) = idx {
            let end = self.now_ns();
            self.spans[idx].end_ns = end;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Ledger) -> T) -> T {
        let idx = self.open(name);
        let out = f(self);
        self.close(idx);
        out
    }

    /// Every recorded span, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover (children never overlap: they run on one thread).
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Self time of each direct child named `name` of span `parent`,
    /// summed.
    pub fn child_self_ns(&self, own: &[u64], parent: usize, name: &str) -> u64 {
        self.spans
            .iter()
            .enumerate()
            .skip(parent + 1)
            .filter(|(_, s)| s.parent == Some(parent) && s.name == name)
            .map(|(i, _)| own[i])
            .sum()
    }

    /// Indices of the spans named `name`.
    pub fn by_name<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
            .map(|(i, _)| i)
    }

    /// Median over every span named `root` of `1 − Σ child time / root
    /// time`: the share of a root's wall time no layer span accounts for.
    pub fn unaccounted_ratio(&self, own: &[u64], root: &str) -> f64 {
        let ratios: Vec<f64> = self
            .by_name(root)
            .filter(|&i| self.spans[i].dur_ns() > 0)
            .map(|i| own[i] as f64 / self.spans[i].dur_ns() as f64)
            .collect();
        crate::stats::median(&ratios)
    }

    /// The ledger as JSON lines, one span per line.
    pub fn to_json_lines(&self) -> String {
        let own = self.self_times();
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"run\":{},\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{}}}\n",
                self.run_id,
                s.name,
                s.start_ns,
                s.end_ns,
                own[i]
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut l = Ledger::new(true, 7);
        l.span("root", |l| {
            l.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            l.span("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let root = l.by_name("root").next().unwrap();
        let own = l.self_times();
        assert!(own[root] < l.spans()[root].dur_ns() / 2);
        assert!(l.unaccounted_ratio(&own, "root") < 0.5);
        assert_eq!(l.child_self_ns(&own, root, "a"), own[1]);
        assert_eq!(l.spans()[1].parent, Some(root));
    }

    #[test]
    fn disabled_ledger_records_nothing() {
        let mut l = Ledger::new(false, 1);
        let v = l.span("x", |_| 3);
        assert_eq!(v, 3);
        assert!(l.spans().is_empty());
    }
}
