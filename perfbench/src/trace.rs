//! Spans around each call into a layer, kept in memory and written out
//! when the benchmark ends.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::ns_since;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `issue.ruu` or `engine.grid`.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// Total and self time of all spans that share a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Σ span durations.
    pub total_ns: u64,
    /// Σ span durations minus the time their child spans cover.
    pub self_ns: u64,
}

/// Records nested spans against one clock.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span inside the innermost open one; returns its id.
    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_ns: ns_since(self.origin),
            dur_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one; returns its
    /// duration in ns.
    ///
    /// # Panics
    /// Panics if `id` is not the innermost open span.
    pub fn end(&mut self, id: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.dur_ns = ns_since(self.origin) - span.start_ns;
        span.dur_ns
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time per span name.
    #[must_use]
    pub fn layers(&self) -> BTreeMap<String, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns;
            t.self_ns += s.dur_ns.saturating_sub(children);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_ns = t.end(inner);
        let outer_ns = t.end(outer);
        let layers = t.layers();
        assert_eq!(layers["outer"].total_ns, outer_ns);
        assert_eq!(layers["outer"].self_ns, outer_ns - inner_ns);
        assert_eq!(layers["inner"].self_ns, inner_ns);
        assert_eq!(t.spans()[inner].parent, Some(outer));
    }
}
