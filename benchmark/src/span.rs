//! In-memory spans for the traced run: recorded by the harness around
//! each client send→reply and each probe call, written out as JSON
//! lines when the run ends, and folded into per-name self times (a
//! span's duration minus the part its children cover).

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Spans one recorder keeps before it only counts what it drops (the
/// trace must not become the workload's memory footprint).
pub const SPAN_CAP: usize = 400_000;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran (`client.write`, `probe.wire.json_parse`, ...).
    pub name: &'static str,
    /// Request, burst or frame sequence number the span belongs to;
    /// spans of one request share it.
    pub id: u64,
    /// Index of the span that caused this one, in the same recorder.
    pub parent: Option<u32>,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
}

/// A single-threaded span recorder; each connection thread owns one and
/// the run merges them at the end.
#[derive(Debug)]
pub struct Recorder {
    /// Which thread recorded (`conn0`, `probes`, ...).
    pub thread: String,
    epoch: Instant,
    spans: Vec<Span>,
    /// Spans not kept because the recorder was full.
    pub dropped: u64,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch` (shared by all
    /// recorders of a run so their spans line up).
    pub fn new(thread: &str, epoch: Instant) -> Recorder {
        Recorder {
            thread: thread.to_owned(),
            epoch,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span; returns its index for children to name
    /// as parent, or `None` when the recorder is full.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<u32> {
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Reserves a span that ends later (so children recorded meanwhile
    /// can point at it); finish it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<u32>) -> Option<u32> {
        let now = self.now_ns();
        self.record(name, id, parent, now, now)
    }

    /// Ends a span opened with [`Recorder::open`].
    pub fn close(&mut self, span: Option<u32>) {
        let now = self.now_ns();
        if let Some(s) = span.and_then(|i| self.spans.get_mut(i as usize)) {
            s.end_ns = now;
        }
    }

    /// Times `f` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, id, parent, start, end);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over one or more recorders.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times (duration minus children).
    pub self_ns: u64,
}

/// Self time of every span of one recorder: its duration minus the
/// summed durations of the spans naming it as parent (children of one
/// parent do not overlap here — each thread records sequentially).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(slot) = child_ns.get_mut(p as usize) {
                *slot += s.end_ns.saturating_sub(s.start_ns);
            }
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.end_ns.saturating_sub(s.start_ns).saturating_sub(c))
        .collect()
}

/// Folds recorders into per-name totals.
pub fn totals(recorders: &[Recorder]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for r in recorders {
        for (s, self_ns) in r.spans.iter().zip(self_times(&r.spans)) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns.saturating_sub(s.start_ns);
            t.self_ns += self_ns;
        }
    }
    out
}

/// Writes every span as one JSON object per line.
pub fn write_jsonl(out: &mut impl Write, recorders: &[Recorder]) -> io::Result<()> {
    for r in recorders {
        for (i, s) in r.spans.iter().enumerate() {
            write!(
                out,
                "{{\"thread\":\"{}\",\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":",
                r.thread, s.name, s.id
            )?;
            match s.parent {
                Some(p) => write!(out, "{p}")?,
                None => write!(out, "null")?,
            }
            writeln!(
                out,
                ",\"start_ns\":{},\"end_ns\":{}}}",
                s.start_ns, s.end_ns
            )?;
        }
        if r.dropped > 0 {
            writeln!(
                out,
                "{{\"thread\":\"{}\",\"dropped\":{}}}",
                r.thread, r.dropped
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new("t", Instant::now());
        let root = r.record("frame", 7, None, 0, 1_000);
        r.record("write", 7, root, 100, 300);
        let wait = r.record("await", 7, root, 300, 900);
        r.record("kernel", 7, wait, 400, 500);
        assert_eq!(self_times(r.spans()), vec![200, 200, 500, 100]);
        let t = totals(&[r]);
        assert_eq!(
            t["frame"],
            NameTotals {
                count: 1,
                total_ns: 1_000,
                self_ns: 200
            }
        );
        assert_eq!(t["await"].self_ns, 500);
        // Self times partition the root's duration.
        assert_eq!(t.values().map(|n| n.self_ns).sum::<u64>(), 1_000);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut r = Recorder::new("conn0", Instant::now());
        let root = r.record("frame", 1, None, 5, 9);
        r.record("write", 1, root, 6, 7);
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &[r]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"parent\":null") && lines[0].contains("\"name\":\"frame\""));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"start_ns\":6"));
    }

    #[test]
    fn a_full_recorder_counts_what_it_drops() {
        let mut r = Recorder::new("t", Instant::now());
        for i in 0..SPAN_CAP as u64 + 3 {
            r.record("x", i, None, 0, 1);
        }
        assert_eq!(r.spans().len(), SPAN_CAP);
        assert_eq!(r.dropped, 3);
    }
}
