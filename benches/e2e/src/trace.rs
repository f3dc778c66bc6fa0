//! Spans recorded by the benchmark's own files around each client call and
//! each layer probe. They stay in memory during the run and are written as
//! one JSON object per line when it ends.

use crate::json;
use std::io::{self, Write};
use std::time::Instant;

/// Index of a span in its [`Tracer`], plus one; `NO_SPAN` means "none".
pub type SpanId = u32;
pub const NO_SPAN: SpanId = 0;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one: a loop for its calls, a census op for
    /// the probes that decompose it.
    pub parent: SpanId,
    /// Request or loop sequence number; spans of one request share it.
    pub request: u64,
}

/// One thread's span buffer. A disabled tracer records nothing, so the
/// untraced run pays one branch per call.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Whether this run traces at all.
    armed: bool,
    /// Whether spans are being recorded right now (see [`Tracer::alternate`]).
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            armed: enabled,
            enabled,
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread of the same run.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.epoch, self.armed)
    }

    pub fn armed(&self) -> bool {
        self.armed
    }

    /// In a traced run, records operation `seq` only when it is even, and
    /// says whether it will. Traced and untraced operations then alternate
    /// within one window, so the tracer's own cost is the difference between
    /// neighbours and the machine's drift cancels.
    pub fn alternate(&mut self, seq: u64) -> bool {
        self.enabled = self.armed && seq.is_multiple_of(2);
        self.enabled
    }

    /// Back to recording everything (in a traced run).
    pub fn record_all(&mut self) {
        self.enabled = self.armed;
    }

    /// Records a finished span; returns its id (`NO_SPAN` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        });
        self.spans.len() as SpanId
    }

    /// Opens a span whose end is not known yet (a loop around its calls).
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    /// Closes a span from [`Tracer::open`] at `end`.
    pub fn close(&mut self, id: SpanId, end: Instant) {
        if id != NO_SPAN {
            self.spans[id as usize - 1].end_ns =
                end.saturating_duration_since(self.epoch).as_nanos() as u64;
        }
    }

    /// Moves another thread's spans in, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_SPAN {
                s.parent += base;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its own
    /// interval that its children cover (overlapping children count once;
    /// a child recorded outside the interval covers nothing).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                let p = &self.spans[s.parent as usize - 1];
                let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                if lo < hi {
                    children[s.parent as usize - 1].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
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

    /// Total duration and total self time per span name, in first-seen
    /// order — the summary a reader checks before opening the file.
    pub fn totals_by_name(&self) -> Vec<(&'static str, usize, u64, u64)> {
        let mut out: Vec<(&'static str, usize, u64, u64)> = Vec::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            let dur = s.end_ns - s.start_ns;
            match out.iter_mut().find(|(n, ..)| *n == s.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += dur;
                    row.3 += self_ns;
                }
                None => out.push((s.name, 1, dur, self_ns)),
            }
        }
        out
    }

    /// Writes one JSON object per span: `id`, `name`, `start_ns`, `end_ns`,
    /// `self_ns`, `parent` (0 = none) and `request`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let mut line = String::with_capacity(128);
            line.push_str("{\"id\":");
            line.push_str(&(i + 1).to_string());
            line.push_str(",\"name\":");
            json::push_str(&mut line, s.name);
            for (key, v) in [
                ("start_ns", s.start_ns),
                ("end_ns", s.end_ns),
                ("self_ns", self_ns),
                ("parent", u64::from(s.parent)),
                ("request", s.request),
            ] {
                line.push_str(",\"");
                line.push_str(key);
                line.push_str("\":");
                line.push_str(&v.to_string());
            }
            line.push_str("}\n");
            out.write_all(line.as_bytes())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(epoch: Instant, us: u64) -> Instant {
        epoch + Duration::from_micros(us)
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let e = Instant::now();
        let mut t = Tracer::new(e, true);
        let parent = t.record("loop", NO_SPAN, 7, at(e, 0), at(e, 100));
        t.record("pdf", parent, 7, at(e, 10), at(e, 30));
        // Overlaps the first child: 20..50 adds only 30..50.
        t.record("update", parent, 7, at(e, 20), at(e, 50));
        // Outside the parent's interval: covers nothing.
        t.record("probe", parent, 7, at(e, 200), at(e, 300));
        let selfs = t.self_times_ns();
        assert_eq!(selfs[0], 60_000);
        assert_eq!(selfs[1], 20_000);
        assert_eq!(selfs[3], 100_000);
    }

    #[test]
    fn alternation_traces_every_other_operation_of_a_traced_run() {
        let e = Instant::now();
        let mut t = Tracer::new(e, true);
        for seq in 0..6 {
            if t.alternate(seq) {
                t.record("op", NO_SPAN, seq, at(e, seq), at(e, seq + 1));
            } else {
                assert_eq!(
                    t.record("op", NO_SPAN, seq, at(e, seq), at(e, seq + 1)),
                    NO_SPAN
                );
            }
        }
        let traced: Vec<u64> = t.spans().iter().map(|s| s.request).collect();
        assert_eq!(traced, [0, 2, 4]);
        t.record_all();
        assert_ne!(t.record("probe", NO_SPAN, 7, at(e, 9), at(e, 10)), NO_SPAN);
        // An untraced run never starts recording.
        let mut quiet = Tracer::new(e, false);
        assert!(!quiet.alternate(0));
        quiet.record_all();
        assert_eq!(quiet.open("loop", NO_SPAN, 0), NO_SPAN);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let e = Instant::now();
        let mut t = Tracer::new(e, false);
        let id = t.open("loop", NO_SPAN, 0);
        assert_eq!(id, NO_SPAN);
        t.close(id, at(e, 5));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorbing_a_thread_keeps_its_parent_links_and_writes_json_lines() {
        let e = Instant::now();
        let mut main = Tracer::new(e, true);
        main.record("census.pdf", NO_SPAN, 0, at(e, 0), at(e, 10));
        let mut worker = main.sibling();
        let lp = worker.open("loop", NO_SPAN, 3);
        worker.record("pdf", lp, 3, at(e, 1), at(e, 2));
        worker.close(lp, at(e, 4));
        main.absorb(worker);
        assert_eq!(main.spans()[2].parent, 2);
        assert_eq!(main.spans()[1].parent, NO_SPAN);

        let mut buf = Vec::new();
        main.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let v = json::parse(line).unwrap();
            assert!(v.get("name").unwrap().as_str().is_some());
            assert!(v.get("end_ns").unwrap().as_f64() >= v.get("start_ns").unwrap().as_f64());
        }
        let totals = main.totals_by_name();
        assert_eq!(totals[0], ("census.pdf", 1, 10_000, 10_000));
    }
}
