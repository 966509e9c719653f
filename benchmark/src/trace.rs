//! In-memory spans around the harness's calls into each layer.
//!
//! Spans are recorded from the benchmark's own files only (nothing under
//! `crates/` is instrumented). Every span feeds a per-kind aggregate —
//! calls, total time, self time — and the first [`SPAN_CAP`] are also kept
//! whole and written at exit as Chrome `trace_event` JSON. While the
//! tracer is off, `begin`/`end` are one branch each.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::stats::mean_ns;

/// What a span wraps. Leaf kinds wrap exactly one call into a layer and
/// are named after it; `Issue` and `Deliver` are the harness's own parents
/// (one local edit, one downstream message) that tie leaves to an op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Poller::wait` — mostly idle time, so kept out of CPU accounting.
    Poll,
    /// `Conn::on_readable`.
    Read,
    /// The harness's own byte accounting of what one read returned.
    Account,
    /// Parent: one downstream message handled at one replica.
    Deliver,
    /// `EditorMsg::decode`.
    Decode,
    /// `Client::try_on_server_op`.
    Exec,
    /// `Client::gc`.
    Gc,
    /// Parent: one local edit generated, encoded and sent.
    Issue,
    /// `Client::insert` / `Client::delete`.
    Edit,
    /// `EditorMsg::encode`.
    Encode,
    /// `Conn::queue_frame` + `Conn::flush`.
    Send,
    /// `SeqOp::transform` on a probe pair (measurement only, never sent).
    Transform,
}

/// Number of span kinds (`Kind as usize` indexes the aggregates).
const N_KINDS: usize = Kind::Transform as usize + 1;

impl Kind {
    /// The span's name in the trace file: the layer's public function.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Poll => "net.poll.wait",
            Kind::Read => "net.conn.read",
            Kind::Account => "loadgen.wire_account",
            Kind::Deliver => "loadgen.deliver",
            Kind::Decode => "reduce.msg.decode",
            Kind::Exec => "reduce.client.exec",
            Kind::Gc => "reduce.client.gc",
            Kind::Issue => "loadgen.issue",
            Kind::Edit => "reduce.client.edit",
            Kind::Encode => "reduce.msg.encode",
            Kind::Send => "net.conn.send",
            Kind::Transform => "ot.seq.transform",
        }
    }
}

/// Totals of one span kind over the traced windows.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub total_ns: u64,
    /// Total minus the time covered by child spans.
    pub self_ns: u64,
}

impl Agg {
    /// Mean nanoseconds per call (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        mean_ns(self.total_ns, self.calls)
    }
}

/// The operation a span belongs to: `(origin site id, sequence number at
/// the origin)`. `NO_OP` when the harness cannot know (a remote delete
/// carries no letter; a bare ack is no operation).
pub type OpId = (u32, u64);
pub const NO_OP: OpId = (0, 0);

/// One retained span. `parent` is the index of the enclosing span + 1
/// (0 = top level).
#[derive(Debug, Clone, Copy)]
struct Span {
    kind: Kind,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: OpId,
}

/// A span that has begun and not ended.
#[derive(Debug, Clone, Copy)]
struct Open {
    kind: Kind,
    start_ns: u64,
    child_ns: u64,
    /// Index + 1 of the retained span, 0 when past the cap.
    slot: u32,
}

/// Retained spans per run: enough for a few thousand whole operations at
/// the head of the first traced window, a few MB of JSON.
pub const SPAN_CAP: usize = 1 << 16;

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    /// When the latest span boundary was recorded.
    last_ns: u64,
    agg: [Agg; N_KINDS],
    open: Vec<Open>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that starts disabled. `retain` preallocates the span
    /// buffer (only a traced run pays for it).
    pub fn new(epoch: Instant, retain: bool) -> Self {
        Tracer {
            enabled: false,
            epoch,
            last_ns: 0,
            agg: [Agg::default(); N_KINDS],
            open: Vec::with_capacity(8),
            spans: Vec::with_capacity(if retain { SPAN_CAP } else { 0 }),
        }
    }

    /// Switch recording on or off. Only legal between spans.
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Read the clock, as a span boundary.
    #[inline]
    fn tick(&mut self) -> u64 {
        self.last_ns = self.epoch.elapsed().as_nanos() as u64;
        self.last_ns
    }

    #[inline]
    pub fn begin(&mut self, kind: Kind) {
        if self.enabled {
            let now = self.tick();
            self.begin_at(kind, now);
        }
    }

    /// Begin a span at the previous boundary, without reading the clock:
    /// for a span that starts where its parent started or its sibling
    /// ended. A clock read is a third of what a span costs, and a replica
    /// of 64 handles 63 deliveries per op.
    #[inline]
    pub fn begin_here(&mut self, kind: Kind) {
        if self.enabled {
            self.begin_at(kind, self.last_ns);
        }
    }

    /// End the innermost open span, which must be of `kind`.
    #[inline]
    pub fn end(&mut self, kind: Kind, op: OpId) {
        if self.enabled {
            let now = self.tick();
            self.end_at(kind, op, now);
        }
    }

    /// End the innermost open span at the previous boundary: for a parent
    /// that did nothing after its last child ended.
    #[inline]
    pub fn end_here(&mut self, kind: Kind, op: OpId) {
        if self.enabled {
            self.end_at(kind, op, self.last_ns);
        }
    }

    fn begin_at(&mut self, kind: Kind, start_ns: u64) {
        let slot = if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                kind,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().map_or(0, |o| o.slot),
                op: NO_OP,
            });
            self.spans.len() as u32
        } else {
            0
        };
        self.open.push(Open {
            kind,
            start_ns,
            child_ns: 0,
            slot,
        });
    }

    fn end_at(&mut self, kind: Kind, op: OpId, end_ns: u64) {
        let Some(o) = self.open.pop() else {
            debug_assert!(false, "end without begin");
            return;
        };
        debug_assert_eq!(o.kind, kind, "spans must nest");
        let dur = end_ns.saturating_sub(o.start_ns);
        let a = &mut self.agg[kind as usize];
        a.calls += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(o.child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(s) = (o.slot as usize)
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i))
        {
            s.end_ns = end_ns;
            s.op = op;
        }
    }

    pub fn agg(&self, kind: Kind) -> Agg {
        self.agg[kind as usize]
    }

    /// Cost of one `begin`/`end` pair, measured on this tracer: the floor
    /// under every per-call mean it reports.
    pub fn pair_cost_ns(epoch: Instant) -> f64 {
        const PAIRS: u32 = 200_000;
        let mut t = Tracer::new(epoch, false);
        t.set_enabled(true);
        let start = Instant::now();
        for _ in 0..PAIRS {
            t.begin(Kind::Gc);
            t.end(Kind::Gc, NO_OP);
        }
        let ns = start.elapsed().as_nanos() as f64 / f64::from(PAIRS);
        std::hint::black_box(&t);
        ns
    }

    /// Write the retained spans as Chrome `trace_event` JSON (load it in
    /// `chrome://tracing` or Perfetto). Returns how many were written.
    pub fn write_chrome_trace(&self, path: &Path) -> io::Result<usize> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let name = s.kind.name();
            let cat = name.split('.').next().unwrap_or(name);
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            // ts and dur are microseconds with the nanoseconds kept.
            writeln!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{}.{:03},\"dur\":{}.{:03},\
                 \"args\":{{\"id\":{},\"parent\":{},\"op\":\"{}:{}\"}}}}{sep}",
                s.start_ns / 1000,
                s.start_ns % 1000,
                (s.end_ns - s.start_ns) / 1000,
                (s.end_ns - s.start_ns) % 1000,
                i + 1,
                s.parent,
                s.op.0,
                s.op.1,
            )?;
        }
        writeln!(out, "]}}")?;
        // A dropped BufWriter would swallow a failed final write.
        out.flush()?;
        Ok(self.spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(Instant::now(), true);
        t.set_enabled(true);
        t.begin(Kind::Issue);
        t.begin(Kind::Edit);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(Kind::Edit, (3, 9));
        t.begin(Kind::Send);
        t.end(Kind::Send, (3, 9));
        t.end(Kind::Issue, (3, 9));
        let (issue, edit, send) = (t.agg(Kind::Issue), t.agg(Kind::Edit), t.agg(Kind::Send));
        assert_eq!((issue.calls, edit.calls, send.calls), (1, 1, 1));
        assert!(edit.total_ns >= 2_000_000);
        assert_eq!(edit.self_ns, edit.total_ns);
        assert_eq!(
            issue.self_ns,
            issue.total_ns - edit.total_ns - send.total_ns
        );
        // Parents are recorded by index: both leaves hang off span 1.
        assert_eq!(
            t.spans.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [0, 1, 1]
        );
        assert!(t.spans.iter().all(|s| s.op == (3, 9)));
    }

    #[test]
    fn shared_boundaries_leave_no_gap_and_no_overlap() {
        let mut t = Tracer::new(Instant::now(), true);
        t.set_enabled(true);
        t.begin(Kind::Deliver);
        t.begin_here(Kind::Exec);
        t.end(Kind::Exec, NO_OP);
        t.begin_here(Kind::Gc);
        t.end(Kind::Gc, NO_OP);
        t.end_here(Kind::Deliver, NO_OP);
        let [d, e, g] = [t.spans[0], t.spans[1], t.spans[2]];
        assert_eq!(
            (d.start_ns, e.end_ns, g.end_ns),
            (e.start_ns, g.start_ns, d.end_ns)
        );
        assert_eq!(t.agg(Kind::Deliver).self_ns, 0);
        assert_eq!((e.parent, g.parent), (1, 1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), true);
        t.begin(Kind::Exec);
        t.end(Kind::Exec, NO_OP);
        assert_eq!(t.agg(Kind::Exec).calls, 0);
        assert!(t.spans.is_empty());
        assert_eq!(t.agg(Kind::Exec).mean_ns(), 0.0);
    }

    #[test]
    fn chrome_trace_is_written_whole() {
        let mut t = Tracer::new(Instant::now(), true);
        t.set_enabled(true);
        for _ in 0..3 {
            t.begin(Kind::Deliver);
            t.begin(Kind::Exec);
            t.end(Kind::Exec, (2, 5));
            t.end(Kind::Deliver, (2, 5));
        }
        // Under the package's own (ignored) output directory.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        let path = dir.join("trace.json");
        assert_eq!(t.write_chrome_trace(&path).unwrap(), 6);
        let text = fs::read_to_string(&path).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        assert!(text.starts_with("{\"displayTimeUnit\""));
        assert!(text.trim_end().ends_with("]}"));
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 6);
        assert_eq!(text.matches("\"name\":\"reduce.client.exec\"").count(), 3);
        assert!(text.contains("\"op\":\"2:5\""));
        assert!(!text.contains(",\n]"));
    }
}
