//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: a name, a start and end (ns since
//! the recorder was created), the span that caused it (its parent) and the
//! request it belongs to (the wire frame, or a publish). Spans stay in
//! memory until the run ends and are then written out as TSV. A layer's
//! *self time* is its spans' durations minus the part their children cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub req: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    enabled: bool,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }

    /// A recorder that records nothing: the same calls, untraced.
    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; its parent is the innermost span still open.
    pub fn begin(&mut self, name: &'static str, req: u32) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Time `f` as one span.
    pub fn span<T>(&mut self, name: &'static str, req: u32, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, req);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one TSV line: id, parent, request, name, start,
    /// end (ns).
    pub fn write_tsv<W: Write>(&self, out: W) -> io::Result<()> {
        let mut w = io::BufWriter::new(out);
        writeln!(w, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Count, total and self time per span name. A child's duration is taken
/// off its parent's self time; children never outlive their parent, so
/// self time is never negative.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != ROOT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(kids);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // frame [0,100) ⊃ publish [10,90) ⊃ {trace [20,40), snapshot [50,80)}
        // plus a second frame [100,130) with one child [105,110).
        let spans = vec![
            span("frame", ROOT, 0, 100),
            span("publish", 0, 10, 90),
            span("trace", 1, 20, 40),
            span("snapshot", 1, 50, 80),
            span("frame", ROOT, 100, 130),
            span("decode", 4, 105, 110),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["frame"],
            Totals {
                count: 2,
                total_ns: 130,
                self_ns: 20 + 25
            }
        );
        assert_eq!(t["publish"].self_ns, 80 - 20 - 30);
        assert_eq!(t["trace"].self_ns, 20);
        assert_eq!(t["snapshot"].self_ns, 30);
        assert_eq!(t["decode"].self_ns, 5);
        // Self times partition the root spans' wall time exactly.
        let self_sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(self_sum, 130);
    }

    #[test]
    fn recorder_nests_by_open_spans() {
        let mut r = Recorder::new();
        let outer = r.begin("outer", 7);
        let inner = r.span("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            42
        });
        r.end(outer);
        assert_eq!(inner, 42);
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, ROOT);
        assert_eq!(s[1].parent, 0);
        assert_eq!(s[1].req, 7);
        assert!(s[1].dur_ns() >= 2_000_000);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let t = totals(s);
        assert_eq!(t["outer"].self_ns + t["inner"].self_ns, s[0].dur_ns());
        let mut tsv = Vec::new();
        r.write_tsv(&mut tsv).unwrap();
        let text = String::from_utf8(tsv).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(2).unwrap().starts_with("1\t0\t7\tinner\t"));
    }
}
