//! Bounded flight recorder: a per-site ring of structured lifecycle events.
//!
//! Every operation in the star/CVC deployment walks the same lifecycle —
//! generate → send → deliver → transform → broadcast → execute → ack →
//! gc-trim — and each stage is stamped with the 2-element compressed
//! timestamps of formula (1) (and, at the notifier, the `N`-element state
//! vector of formula (2)). The recorder captures that walk as fixed-size
//! [`FlightEvent`] records in a preallocated ring, so the last
//! [`DEFAULT_CAPACITY`] events per site are always available when
//! something goes wrong: error paths dump the ring, and the
//! [`crate::audit`] replayer re-runs a dumped trace through the
//! ground-truth [`cvc_core::oracle::CausalityOracle`].
//!
//! Cost discipline (the recorder rides the notifier's hot path):
//!
//! * recording is a single `Copy` store into a ring — **no allocation**;
//! * every hook site is guarded by [`FlightRecorder::is_enabled`];
//! * the ring itself is only allocated on first enable, so disabled
//!   recorders cost one `bool` check per hook and ~64 bytes of state.
//!
//! Experiment E17 measures both configurations against the E16 per-op
//! baseline.

use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use std::fmt;

/// Default ring capacity: events retained per site.
pub const DEFAULT_CAPACITY: usize = 256;

/// Width of the inline state-vector window carried by a [`FlightEvent`].
/// Events from sessions wider than this keep the first `VECTOR_WINDOW`
/// elements and set [`FlightEvent::vector_truncated`].
pub const VECTOR_WINDOW: usize = 8;

/// Sentinel for "this event is not tied to one operation's origin site".
pub const NO_SITE: u32 = u32::MAX;

/// Lifecycle stage of a recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A local operation was generated (and executed) at a client.
    Generate,
    /// A timestamped message left this site.
    Send,
    /// A message arrived at this site (before any validation).
    Deliver,
    /// One concurrency check (formula (5) at clients, (7) at the
    /// notifier) against one history-buffer entry; `flag` is the verdict.
    Transform,
    /// The notifier propagated an executed operation to one destination,
    /// re-stamped per formulas (1)–(2).
    Broadcast,
    /// The (possibly transformed) operation was executed here.
    Execute,
    /// An acknowledgement was sent or integrated.
    Ack,
    /// Garbage collection trimmed history-buffer entries.
    GcTrim,
    /// A protocol error was detected (the event that triggers a dump).
    Error,
    /// The ring wrapped and overwrote older events: `a` is how many were
    /// lost, `b` the sequence number of the last one lost. Synthesised as
    /// the oldest entry of [`FlightRecorder::events`] so consumers (the
    /// audit replayer, the trace assembler) see truncation explicitly
    /// instead of silently reading a suffix.
    RingTruncated,
    /// The primary notifier process died: `a` is the number of operations
    /// it had integrated, `b` the crash-point discriminant (see
    /// `CrashPoint` in [`crate::reliable`]).
    Crash,
    /// A warm standby was promoted to primary: `a` is the number of WAL
    /// operation records it had replayed, `b` the number of client
    /// channels whose connections closed with the dead primary.
    Promote,
}

impl EventKind {
    /// Stable lower-case name (used by dumps and JSON exports).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Generate => "generate",
            EventKind::Send => "send",
            EventKind::Deliver => "deliver",
            EventKind::Transform => "transform",
            EventKind::Broadcast => "broadcast",
            EventKind::Execute => "execute",
            EventKind::Ack => "ack",
            EventKind::GcTrim => "gc-trim",
            EventKind::Error => "error",
            EventKind::RingTruncated => "ring-truncated",
            EventKind::Crash => "crash",
            EventKind::Promote => "promote",
        }
    }

    /// Inverse of [`EventKind::name`], for parsing ring dumps.
    pub fn from_name(s: &str) -> Option<EventKind> {
        const ALL: [EventKind; 12] = [
            EventKind::Generate,
            EventKind::Send,
            EventKind::Deliver,
            EventKind::Transform,
            EventKind::Broadcast,
            EventKind::Execute,
            EventKind::Ack,
            EventKind::GcTrim,
            EventKind::Error,
            EventKind::RingTruncated,
            EventKind::Crash,
            EventKind::Promote,
        ];
        ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One recorded lifecycle event.
///
/// Fixed-size and `Copy` so recording is a plain store. The kind-specific
/// fields are documented per producer (see [`crate::notifier::Notifier`]
/// and [`crate::client::Client`]); the [`crate::audit`] module is the
/// canonical consumer.
#[derive(Debug, Clone, Copy)]
pub struct FlightEvent {
    /// Monotonic per-recorder sequence number (assigned on record).
    pub seq: u64,
    /// Simulator virtual time (µs) at which the event was recorded, taken
    /// from the recorder's clock (see [`FlightRecorder::set_now`]). 0 for
    /// events recorded outside a simulation (e.g. the Fig. 3 walkthrough,
    /// where logical event order stands in for time).
    pub recorded_at: u64,
    /// Lifecycle stage.
    pub kind: EventKind,
    /// Origin site of the subject operation ([`NO_SITE`] when unknown —
    /// e.g. a server op arriving at a client identifies itself only by
    /// stream position).
    pub op_site: u32,
    /// Per-origin generation sequence of the subject operation (its
    /// `T[2]` at the generating client; 0 when unknown).
    pub op_seq: u64,
    /// The 2-element compressed stamp the subject message carried.
    pub stamp: CompressedStamp,
    /// Kind-specific operand (e.g. broadcast destination, trim count,
    /// checked-entry origin site).
    pub a: u64,
    /// Kind-specific operand (e.g. checked-entry origin sequence).
    pub b: u64,
    /// Kind-specific verdict (e.g. a concurrency check's outcome).
    pub flag: bool,
    /// Static human-readable qualifier (`""` when none).
    pub detail: &'static str,
    /// Inline window of the `N`-element state vector (formula (2)); only
    /// the first [`FlightEvent::vector_len`] entries are meaningful.
    pub vector: [u64; VECTOR_WINDOW],
    /// Meaningful prefix length of [`FlightEvent::vector`].
    pub vector_len: u8,
    /// True when the source vector was wider than [`VECTOR_WINDOW`].
    pub vector_truncated: bool,
}

impl FlightEvent {
    /// A blank event of `kind`; chain the `with_*` builders to fill it.
    pub fn new(kind: EventKind) -> Self {
        FlightEvent {
            seq: 0,
            recorded_at: 0,
            kind,
            op_site: NO_SITE,
            op_seq: 0,
            stamp: CompressedStamp::new(0, 0),
            a: 0,
            b: 0,
            flag: false,
            detail: "",
            vector: [0; VECTOR_WINDOW],
            vector_len: 0,
            vector_truncated: false,
        }
    }

    /// Attach the subject operation's identity `(origin site, gen seq)`.
    pub fn with_op(mut self, site: u32, seq: u64) -> Self {
        self.op_site = site;
        self.op_seq = seq;
        self
    }

    /// Attach the carried 2-element stamp.
    pub fn with_stamp(mut self, stamp: CompressedStamp) -> Self {
        self.stamp = stamp;
        self
    }

    /// Attach the kind-specific operands.
    pub fn with_ab(mut self, a: u64, b: u64) -> Self {
        self.a = a;
        self.b = b;
        self
    }

    /// Attach the kind-specific verdict.
    pub fn with_flag(mut self, flag: bool) -> Self {
        self.flag = flag;
        self
    }

    /// Attach a static qualifier.
    pub fn with_detail(mut self, detail: &'static str) -> Self {
        self.detail = detail;
        self
    }

    /// Attach (a window of) an `N`-element state vector.
    pub fn with_vector(mut self, v: &[u64]) -> Self {
        let keep = v.len().min(VECTOR_WINDOW);
        self.vector[..keep].copy_from_slice(&v[..keep]);
        self.vector_len = keep as u8;
        self.vector_truncated = v.len() > VECTOR_WINDOW;
        self
    }

    /// The meaningful prefix of the inline vector window.
    pub fn vector_slice(&self) -> &[u64] {
        &self.vector[..self.vector_len as usize]
    }
}

impl fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:<5} {:<9}", self.seq, self.kind.name())?;
        if self.recorded_at > 0 {
            write!(f, " @{}us", self.recorded_at)?;
        }
        if self.op_site == NO_SITE {
            write!(f, " op ?:{}", self.op_seq)?;
        } else {
            write!(f, " op {}:{}", self.op_site, self.op_seq)?;
        }
        write!(f, " T={}", self.stamp)?;
        write!(f, " a={} b={} flag={}", self.a, self.b, self.flag)?;
        if self.vector_len > 0 {
            write!(f, " v={:?}", self.vector_slice())?;
            if self.vector_truncated {
                write!(f, "(+)")?;
            }
        }
        if !self.detail.is_empty() {
            write!(f, " {}", self.detail)?;
        }
        Ok(())
    }
}

/// A bounded per-site event ring.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    site: SiteId,
    capacity: usize,
    buf: Vec<FlightEvent>,
    /// Next overwrite position once the ring is full.
    head: usize,
    next_seq: u64,
    dropped: u64,
    enabled: bool,
    /// Current virtual time (µs), stamped onto every recorded event.
    now_us: u64,
}

impl FlightRecorder {
    /// A disabled recorder for `site` with [`DEFAULT_CAPACITY`]. Costs no
    /// heap until first enabled.
    pub fn new(site: SiteId) -> Self {
        Self::with_capacity(site, DEFAULT_CAPACITY)
    }

    /// A disabled recorder with an explicit ring capacity (min 1).
    pub fn with_capacity(site: SiteId, capacity: usize) -> Self {
        FlightRecorder {
            site,
            capacity: capacity.max(1),
            buf: Vec::new(),
            head: 0,
            next_seq: 0,
            dropped: 0,
            enabled: false,
            now_us: 0,
        }
    }

    /// Resize the ring. Only honoured while the ring is still empty
    /// (capacity governs the wrap arithmetic once events are stored);
    /// call before enabling. Traced runs size this to the workload so
    /// full lifecycles survive (see `SessionConfig::flight_recorder_capacity`).
    pub fn set_capacity(&mut self, capacity: usize) {
        if self.buf.is_empty() {
            self.capacity = capacity.max(1);
        }
    }

    /// Whether hooks should record — guard every hook with this.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Enable or disable recording. The ring is allocated on first enable.
    pub fn set_enabled(&mut self, on: bool) {
        if on && self.buf.capacity() == 0 {
            self.buf.reserve_exact(self.capacity);
        }
        self.enabled = on;
    }

    /// Which site this recorder belongs to.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or everything was cleared).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten after the ring filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Advance the recorder's virtual clock (µs). Session drivers call
    /// this with the simulator's `Ctx::now` before delegating into node
    /// callbacks, so every event recorded inside carries wall-accurate
    /// virtual time. Outside a simulation the clock stays at 0 and event
    /// sequence numbers stand in for time.
    #[inline]
    pub fn set_now(&mut self, now_us: u64) {
        self.now_us = now_us;
    }

    /// The recorder's current virtual time (µs).
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Record one event (assigns its sequence number). No-op while
    /// disabled; never allocates once the ring is warm.
    pub fn record(&mut self, mut ev: FlightEvent) {
        if !self.is_enabled() {
            return;
        }
        ev.seq = self.next_seq;
        ev.recorded_at = self.now_us;
        self.next_seq += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Merge an already-recorded event from another recorder's ring,
    /// preserving its original timestamp. Used at standby promotion to
    /// carry the dead primary's history into the promoted notifier's
    /// recorder: [`FlightRecorder::record`] would re-stamp `recorded_at`
    /// with the current clock, erasing when the event actually happened.
    /// Sequence numbers are re-assigned so the merged ring stays
    /// monotonic.
    pub fn absorb(&mut self, mut ev: FlightEvent) {
        if !self.is_enabled() {
            return;
        }
        ev.seq = self.next_seq;
        self.next_seq += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// The retained events, oldest first. When the ring has wrapped, the
    /// returned slice is **prefixed** with a synthetic
    /// [`EventKind::RingTruncated`] marker (`a` = events lost, `b` = the
    /// last lost sequence number) so downstream consumers — the audit
    /// replayer, the trace assembler — see the coverage gap explicitly
    /// instead of silently reading a suffix as if it were the whole run.
    pub fn events(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.buf.len() + 1);
        if self.dropped > 0 {
            let oldest = self.buf.get(self.head).or_else(|| self.buf.first());
            let mut marker = FlightEvent::new(EventKind::RingTruncated)
                .with_ab(self.dropped, self.dropped.saturating_sub(1))
                .with_detail("ring-wrapped");
            // Inherit the oldest survivor's position so the marker sorts
            // first in both sequence and time order.
            marker.seq = oldest.map_or(0, |e| e.seq.saturating_sub(1));
            marker.recorded_at = oldest.map_or(0, |e| e.recorded_at);
            out.push(marker);
        }
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Incremental drain for live streaming: every retained event with
    /// `seq >= from`, oldest first, plus how many events in `[from,
    /// next_seq)` were already overwritten before this call. Unlike
    /// [`FlightRecorder::events`] no truncation marker is synthesised —
    /// the caller owns the cursor and decides how to surface loss. A
    /// cursor at the current sequence frontier returns `(empty, 0)`, so
    /// polling with `from = last + events.len()` drains exactly once.
    pub fn events_since(&self, from: u64) -> (Vec<FlightEvent>, u64) {
        let oldest = self.next_seq - self.buf.len() as u64;
        let lost = oldest
            .saturating_sub(from)
            .min(self.next_seq.saturating_sub(from));
        let mut out = Vec::new();
        for ev in self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
        {
            if ev.seq >= from {
                out.push(*ev);
            }
        }
        (out, lost)
    }

    /// Drop all retained events (keeps the ring allocation and the
    /// sequence counter, so later dumps stay globally ordered).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }

    /// Human-readable dump of the retained window, oldest first.
    pub fn dump(&self) -> String {
        let mut out = format!(
            "flight recorder {} — {} event(s) retained, {} overwritten\n",
            self.site,
            self.buf.len(),
            self.dropped
        );
        for ev in self.events() {
            out.push_str(&format!("  {ev}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind) -> FlightEvent {
        FlightEvent::new(kind)
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = FlightRecorder::new(SiteId(1));
        assert!(!r.is_enabled());
        r.record(ev(EventKind::Generate));
        assert!(r.is_empty());
        assert_eq!(r.dump().lines().count(), 1, "header only");
    }

    #[test]
    fn events_come_back_in_order() {
        let mut r = FlightRecorder::new(SiteId(2));
        r.set_enabled(true);
        r.record(ev(EventKind::Generate).with_op(2, 1));
        r.record(ev(EventKind::Send).with_op(2, 1));
        r.record(ev(EventKind::Execute).with_op(2, 1));
        let got: Vec<_> = r.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            got,
            vec![EventKind::Generate, EventKind::Send, EventKind::Execute]
        );
        assert_eq!(r.events()[0].seq, 0);
        assert_eq!(r.events()[2].seq, 2);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut r = FlightRecorder::with_capacity(SiteId(1), 3);
        r.set_enabled(true);
        for k in 0..5u64 {
            r.record(ev(EventKind::Execute).with_ab(k, 0));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let kept: Vec<u64> = r
            .events()
            .iter()
            .filter(|e| e.kind != EventKind::RingTruncated)
            .map(|e| e.a)
            .collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest events were overwritten");
    }

    #[test]
    fn wrapped_ring_is_prefixed_with_a_truncation_marker() {
        let mut r = FlightRecorder::with_capacity(SiteId(1), 4);
        r.set_enabled(true);
        // Not wrapped yet: no marker.
        r.record(ev(EventKind::Generate));
        assert!(r
            .events()
            .iter()
            .all(|e| e.kind != EventKind::RingTruncated));
        for k in 0..9u64 {
            r.set_now(100 + k);
            r.record(ev(EventKind::Execute).with_ab(k, 0));
        }
        let evs = r.events();
        assert_eq!(evs[0].kind, EventKind::RingTruncated, "marker is oldest");
        assert_eq!(evs[0].a, 6, "six events were overwritten");
        assert_eq!(evs[0].b, 5, "last lost sequence number");
        assert_eq!(
            evs[0].recorded_at, evs[1].recorded_at,
            "marker inherits the oldest survivor's timestamp"
        );
        assert!(evs[0].seq < evs[1].seq);
        assert_eq!(
            evs.iter()
                .filter(|e| e.kind == EventKind::RingTruncated)
                .count(),
            1,
            "exactly one marker regardless of how many times the ring wrapped"
        );
    }

    #[test]
    fn recorded_at_tracks_the_virtual_clock() {
        let mut r = FlightRecorder::new(SiteId(2));
        r.set_enabled(true);
        r.record(ev(EventKind::Generate));
        r.set_now(1_500);
        r.record(ev(EventKind::Send));
        assert_eq!(r.events()[0].recorded_at, 0);
        assert_eq!(r.events()[1].recorded_at, 1_500);
        assert_eq!(r.now_us(), 1_500);
        let d = r.dump();
        assert!(d.contains("@1500us"), "{d}");
    }

    #[test]
    fn vector_window_truncates_wide_vectors() {
        let wide: Vec<u64> = (0..12).collect();
        let e = ev(EventKind::Execute).with_vector(&wide);
        assert_eq!(e.vector_slice(), &wide[..VECTOR_WINDOW]);
        assert!(e.vector_truncated);
        let narrow = ev(EventKind::Execute).with_vector(&[1, 2, 3]);
        assert_eq!(narrow.vector_slice(), &[1, 2, 3]);
        assert!(!narrow.vector_truncated);
    }

    #[test]
    fn dump_is_informative() {
        let mut r = FlightRecorder::new(SiteId(3));
        r.set_enabled(true);
        r.record(
            ev(EventKind::Transform)
                .with_op(2, 1)
                .with_stamp(CompressedStamp::new(1, 0))
                .with_flag(true)
                .with_detail("formula7"),
        );
        let d = r.dump();
        assert!(d.contains("site 3"), "{d}");
        assert!(d.contains("transform"), "{d}");
        assert!(d.contains("op 2:1"), "{d}");
        assert!(d.contains("formula7"), "{d}");
    }

    #[test]
    fn clear_keeps_sequence_numbering() {
        let mut r = FlightRecorder::new(SiteId(1));
        r.set_enabled(true);
        r.record(ev(EventKind::Generate));
        r.clear();
        assert!(r.is_empty());
        r.record(ev(EventKind::Send));
        assert_eq!(r.events()[0].seq, 1, "numbering continues after clear");
    }

    #[test]
    fn events_since_drains_incrementally_without_duplication() {
        let mut r = FlightRecorder::new(SiteId(1));
        r.set_enabled(true);
        let mut cursor = 0u64;
        let mut seen = Vec::new();
        for round in 0..3u64 {
            for k in 0..4u64 {
                r.record(ev(EventKind::Execute).with_ab(round * 4 + k, 0));
            }
            let (evs, lost) = r.events_since(cursor);
            assert_eq!(lost, 0);
            assert_eq!(evs.len(), 4);
            cursor = evs.last().map(|e| e.seq + 1).unwrap_or(cursor);
            seen.extend(evs.iter().map(|e| e.a));
        }
        assert_eq!(seen, (0..12).collect::<Vec<u64>>());
        let (evs, lost) = r.events_since(cursor);
        assert!(evs.is_empty(), "frontier cursor drains nothing");
        assert_eq!(lost, 0);
    }

    #[test]
    fn events_since_reports_overwritten_events_as_lost() {
        let mut r = FlightRecorder::with_capacity(SiteId(1), 4);
        r.set_enabled(true);
        for k in 0..10u64 {
            r.record(ev(EventKind::Execute).with_ab(k, 0));
        }
        // Seqs 0..=5 were overwritten; only 6..=9 remain.
        let (evs, lost) = r.events_since(0);
        assert_eq!(lost, 6);
        assert_eq!(
            evs.iter().map(|e| e.a).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        // A cursor inside the retained window loses nothing.
        let (evs, lost) = r.events_since(8);
        assert_eq!(lost, 0);
        assert_eq!(evs.len(), 2);
        // A cursor past the frontier never reports negative loss.
        let (evs, lost) = r.events_since(10);
        assert!(evs.is_empty());
        assert_eq!(lost, 0);
    }

    #[test]
    fn enable_allocates_lazily() {
        let r = FlightRecorder::new(SiteId(1));
        assert_eq!(r.capacity(), DEFAULT_CAPACITY);
        // Disabled recorders hold no ring storage at all.
        assert_eq!(r.buf.capacity(), 0);
        let mut r = r;
        r.set_enabled(true);
        assert!(r.buf.capacity() >= DEFAULT_CAPACITY);
    }
}
