//! The benchmark's own span recorder, active only with `--trace 1`.
//!
//! Spans wrap the benchmark's calls into each layer's public functions:
//! name, start, end, parent span and request id. One [`Trace`] per
//! thread keeps them in memory (self time is settled when a span
//! closes: its duration minus the time its children covered); the
//! threads' traces are merged and written out once the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the trace file; aggregates cover every span.
const MAX_KEPT: usize = 1 << 16;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over every finished span.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Agg {
    /// Mean self time per span, microseconds (0 when none closed).
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.self_ns as f64 / self.count as f64 / 1e3
    }
}

struct Open {
    id: u64,
    name: &'static str,
    parent: Option<u64>,
    req: u64,
    start: Instant,
    child_ns: u64,
}

/// A per-thread span recorder. When off, every method is a no-op.
pub struct Trace {
    on: bool,
    epoch: Instant,
    tid: u64,
    next: u64,
    open: Vec<Open>,
    kept: Vec<Span>,
    dropped: u64,
    agg: BTreeMap<&'static str, Agg>,
}

impl Trace {
    /// A recorder for thread `tid`; span times count from `epoch`.
    pub fn new(on: bool, epoch: Instant, tid: u64) -> Self {
        Trace {
            on,
            epoch,
            tid,
            next: 0,
            open: Vec::new(),
            kept: Vec::new(),
            dropped: 0,
            agg: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switch recording on or off between spans.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "Trace::set_on inside an open span");
        self.on = on;
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        self.next += 1;
        self.open.push(Open {
            id: (self.tid << 40) | self.next,
            name,
            parent: self.open.last().map(|o| o.id),
            req,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end = Instant::now();
        let o = self
            .open
            .pop()
            .expect("Trace::end without a matching begin");
        let dur = end.duration_since(o.start).as_nanos() as u64;
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        let a = self.agg.entry(o.name).or_default();
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(o.child_ns);
        if self.kept.len() < MAX_KEPT {
            let start_ns = o.start.duration_since(self.epoch).as_nanos() as u64;
            self.kept.push(Span {
                id: o.id,
                parent: o.parent,
                name: o.name,
                req: o.req,
                start_ns,
                end_ns: start_ns + dur,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, req);
        let out = f();
        self.end();
        out
    }

    /// Fold another thread's trace into this one.
    pub fn merge(&mut self, other: Trace) {
        for (name, a) in other.agg {
            let mine = self.agg.entry(name).or_default();
            mine.count += a.count;
            mine.total_ns += a.total_ns;
            mine.self_ns += a.self_ns;
        }
        let room = MAX_KEPT.saturating_sub(self.kept.len());
        let take = other.kept.len().min(room);
        self.dropped += other.dropped + (other.kept.len() - take) as u64;
        self.kept.extend(other.kept.into_iter().take(take));
    }

    pub fn agg(&self, name: &str) -> Agg {
        self.agg.get(name).copied().unwrap_or_default()
    }

    /// Spans closed so far, kept or not.
    pub fn spans(&self) -> u64 {
        self.agg.values().map(|a| a.count).sum()
    }

    /// Write the kept spans as JSON lines, then one summary line with
    /// the per-name aggregates and the count of spans not kept.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.kept.len() * 96);
        for s in &self.kept {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.req, s.start_ns, s.end_ns
            );
        }
        out.push_str("{\"summary\":{");
        for (i, (name, a)) in self.agg.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                a.count, a.total_ns, a.self_ns
            );
        }
        let _ = writeln!(out, "}},\"dropped\":{}}}", self.dropped);
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Trace::new(true, Instant::now(), 1);
        t.begin("outer", 7);
        t.span("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end();
        let outer = t.agg("outer");
        let inner = t.agg("inner");
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_ns < inner.total_ns);
        // Spans are kept in closing order: inner first.
        assert_eq!(t.kept[0].parent, Some(t.kept[1].id));
        assert_eq!(t.kept[1].parent, None);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Trace::new(false, Instant::now(), 1);
        t.span("x", 0, || ());
        assert_eq!(t.spans(), 0);
    }
}
