//! Spans recorded by the harness around its calls into the layers.
//!
//! Everything is measured from outside: a span opens before a call
//! into a public function of the repository and closes after it.
//! Where a layer reports its own time on a public result
//! (`RunReport::phase_totals`, journal / dispatch / collect seconds),
//! that time is entered as a child span of the call that returned it
//! ([`Tracer::reported`]), so a parent's self time is what no layer
//! accounted for. Spans stay in memory until [`Tracer::write_json`].

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

/// Handle of an open span ([`Tracer::begin`] → [`Tracer::end`]).
pub struct Open(Option<usize>);

pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op_id: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op_id: 0,
        }
    }

    /// A tracer for another thread, on the same clock.
    pub fn fork(&self) -> Tracer {
        Tracer {
            spans: Vec::new(),
            stack: Vec::new(),
            ..*self
        }
    }

    /// Fold a forked tracer's spans back in.
    pub fn join(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans opened from now on belong to op `id`.
    pub fn set_op(&mut self, id: u64) {
        self.op_id = id;
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
            op_id: self.op_id,
        });
        self.stack.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, open: Open) {
        if let Open(Some(ix)) = open {
            self.spans[ix].end = self.now();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(ix), "spans close innermost first");
        }
    }

    /// Enter a span the caller timed itself (both instants taken by the
    /// harness) as a child of the innermost open span.
    pub fn measured(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64();
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent: self.stack.last().copied(),
            op_id: self.op_id,
        });
    }

    /// Enter `seconds` a layer reported about itself as a child of the
    /// innermost open span. Reported children are laid end to end from
    /// the parent's start: their durations are measured, their
    /// positions are not.
    pub fn reported(&mut self, name: &'static str, seconds: f64) {
        let Some(&parent) = self.stack.last() else {
            return;
        };
        if seconds <= 0.0 {
            return;
        }
        let start = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end)
            .fold(self.spans[parent].start, f64::max);
        self.spans.push(Span {
            name,
            start,
            end: start + seconds,
            parent: Some(parent),
            op_id: self.op_id,
        });
    }

    /// Self time per span name over the spans at or below a span named
    /// `root`: each span's duration minus its children's, summed over
    /// all spans of that name.
    pub fn self_times_under(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.end - s.start).collect();
        // A parent always precedes its children, so one pass decides
        // membership.
        let mut inside = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            inside[i] = s.name == root || s.parent.is_some_and(|p| inside[p]);
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        let mut by_name = BTreeMap::new();
        for ((s, t), _) in self.spans.iter().zip(own).zip(inside).filter(|(_, i)| *i) {
            *by_name.entry(s.name).or_insert(0.0) += t;
        }
        by_name
    }

    /// Total duration of all spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{:.9},\"end\":{:.9},\"parent\":{parent},\"op_id\":{}}}{comma}",
                s.name, s.start, s.end, s.op_id
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}
