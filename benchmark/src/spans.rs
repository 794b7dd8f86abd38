//! The benchmark's own span recorder: spans are taken from outside the
//! crates, around each call into a layer's public functions, kept in
//! memory and written out once when the run ends.
//!
//! A span that stands for time reported *by* a crate rather than
//! observed around a call (a response's `sojourn_ns`, a batch's longest
//! `measured_ns`) is marked synthetic: it is placed inside its parent
//! so that the parent's self time — duration minus child coverage —
//! comes out as the part the crate's own number does not explain.

use std::io::Write;
use std::time::Instant;

/// No request: the span serves several (a batch) or none (a table flip).
pub const NO_REQUEST: u64 = u64::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same lane.
    pub parent: Option<u32>,
    pub request: u64,
    pub synthetic: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span handed back by [`Tracer::begin`]; `None` inside when
/// tracing is off, so the untraced path reads no clock for it.
#[must_use]
pub struct Open(Option<u32>);

/// One thread's span lane. All lanes of a run share `epoch`.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pub lane: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant, lane: u32) -> Tracer {
        Tracer {
            on,
            epoch,
            lane,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turn recording on or off between passes (the traced run times
    /// identical passes both ways to price the tracing itself).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggle only between spans");
        self.on = on;
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, request: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name: "",
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            request,
            synthetic: false,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close the innermost open span, naming it now — the name may
    /// depend on what the call did (a plan-cache hit or a miss).
    pub fn end(&mut self, open: Open, name: &'static str) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans close innermost first");
        let now = self.now_ns();
        let s = &mut self.spans[idx as usize];
        s.name = name;
        s.end_ns = now;
    }

    /// Time one call.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(request);
        let out = f();
        self.end(open, name);
        out
    }

    /// A span with times already in hand (a request whose send time was
    /// noted when it left), closed and parentless.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, request: u64) {
        if self.on {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: None,
                request,
                synthetic: false,
            });
        }
    }

    /// A synthetic child of the span recorded last: `duration_ns` as
    /// reported by the crate, laid against the parent's end.
    pub fn synthetic_child(&mut self, name: &'static str, duration_ns: u64) {
        if !self.on {
            return;
        }
        let parent = self.spans.len() as u32 - 1;
        let (start, end, request) = {
            let p = &self.spans[parent as usize];
            (p.start_ns, p.end_ns, p.request)
        };
        self.spans.push(Span {
            name,
            start_ns: end.saturating_sub(duration_ns).max(start),
            end_ns: end,
            parent: Some(parent),
            request,
            synthetic: true,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that
    /// its direct children cover (children on one lane never overlap
    /// each other, so coverage is their clipped sum).
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                covered[p as usize] += hi.saturating_sub(lo);
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Self times of every span called `name` that `keep` accepts.
    pub fn self_times_of(&self, name: &str, keep: impl Fn(&Span) -> bool) -> Vec<u64> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name && keep(s))
            .map(|(_, t)| t)
            .collect()
    }
}

/// Write every lane's spans as JSON lines. Parents are lane-local
/// indices; `(lane, index)` identifies a span across the file.
pub fn write_jsonl(path: &std::path::Path, lanes: &[&Tracer]) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut n = 0usize;
    for lane in lanes {
        let selfs = lane.self_times();
        for (i, (s, self_ns)) in lane.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = if s.request == NO_REQUEST {
                "null".to_string()
            } else {
                s.request.to_string()
            };
            writeln!(
                out,
                "{{\"lane\":{},\"index\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"request\":{request},\"synthetic\":{}}}",
                lane.lane, s.name, s.start_ns, s.end_ns, s.synthetic
            )?;
            n += 1;
        }
    }
    out.flush()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_child_coverage() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.record("request", 100, 1_000, 7);
        t.synthetic_child("net.sojourn", 600);
        let selfs = t.self_times();
        assert_eq!(selfs[0], 300);
        assert_eq!(t.spans()[1].start_ns, 400);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[1].synthetic);
    }

    #[test]
    fn nesting_follows_begin_end_order() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        let outer = t.begin(1);
        let inner = t.begin(1);
        t.end(inner, "inner");
        t.end(outer, "outer");
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[0].name, "outer");
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let got = t.span("x", 1, || 5);
        assert_eq!(got, 5);
        t.record("y", 0, 1, 1);
        assert!(t.spans().is_empty());
    }
}
