//! The notifier — site 0 of the paper's star topology.
//!
//! The notifier "not only maps between N-way communication and 2-way
//! communication, but also converts between N-dimension causality and
//! 2-dimension causality" (Section 3.1). Concretely, for every arriving
//! client operation it:
//!
//! 1. runs the paper's concurrency check — formula (7) — against its
//!    history buffer of executed operations;
//! 2. transforms the operation against the concurrent ones (via its
//!    per-client bridge, which provably selects the same set — asserted on
//!    every operation);
//! 3. executes the transformed form on its own replica;
//! 4. buffers it (Section 3.3, "timestamping buffered operations");
//! 5. re-broadcasts it to every other client, stamped with the
//!    **destination-specific compressed** 2-element vector of formulas
//!    (1)–(2).
//!
//! Step 5's per-destination stamps are asserted equal to the bridge
//! counters, which is the constructive proof that the Jupiter-style
//! two-counter protocol and the paper's compressed state vectors are the
//! same thing.
//!
//! # The suffix-bounded hot path
//!
//! The paper stamps each buffered operation with a full `N`-element
//! snapshot and scans the whole buffer per arrival. But under the star's
//! FIFO discipline the formula-(7) sum `Σ_{j≠x} T_Ob[j]` is just `Ob`'s
//! position in the broadcast stream to `x` — and that position is
//! **non-decreasing along the buffer**. So the entries concurrent with an
//! op from client `x` (position `> T_Oa[1]`) always form a *suffix* of the
//! history buffer, and since `T[1]` from each client is monotone, the
//! boundary only ever moves forward. The notifier therefore keeps a
//! per-client watermark and, per arrival, touches only the un-acked tail:
//! amortized O(window) instead of O(|HB|) per operation. Buffered entries
//! carry two integers (`origin`, running total) instead of an `N`-element
//! clone; the full snapshot is recoverable on demand
//! ([`Notifier::hb_snapshot`]) and, in
//! [`ScanMode::FullScanReference`], stored and scanned exactly as the
//! paper writes it — the measured "before" baseline. In debug builds
//! every arrival cross-checks the bounded scan against an independent
//! full-buffer reference.
//!
//! The same position argument drives garbage collection: an entry is dead
//! once every other active client has acknowledged past its stream
//! position, and because positions are monotone the dead entries form a
//! *prefix* — collection is a prefix trim folded into normal processing
//! when [`Notifier::set_auto_gc`] is on ([`Notifier::gc`] stays as the
//! explicit, now idempotent, entry point).
//!
//! # The snapshot
//!
//! The notifier's whole protocol state is the document, two stream
//! counters and a few watermarks per client, each bridge's pending
//! broadcasts and the history buffer. [`Notifier::write_checkpoint`]
//! writes it as bytes and [`Notifier::read_checkpoint`] reads them back
//! as a notifier that goes on exactly as the writer; there is no other
//! description of it. The log's compaction frames those bytes, recovery
//! reads them, and an exhaustive search hashes them as the notifier's
//! half of a state's digest.

use crate::bridge::{Bridge, BridgeError, BridgeRole};
use crate::error::ProtocolError;
use crate::metrics::SiteMetrics;
use crate::msg::{
    get_op, put_op, server_op_body_len, stamp_wire_len, ClientAckMsg, ClientOpMsg, EditorMsg,
    ServerAckMsg, ServerOpFrame, ServerOpMsg,
};
use crate::recorder::{EventKind, FlightEvent, FlightRecorder};
use bytes::{Buf, BufMut};
#[cfg(debug_assertions)]
use cvc_core::formulas::formula7_counters;
use cvc_core::formulas::formula7_dynamic;
use cvc_core::site::SiteId;
use cvc_core::state_vector::{CompressedStamp, NotifierStateVector};
use cvc_core::vector::VectorClock;
use cvc_ot::buffer::TextBuffer;
use cvc_ot::seq::SeqOp;
use cvc_sim::wire::{
    get_bounded_len, get_string, get_u32, get_varint, put_string, put_varint, WireError, WireSize,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// How the notifier evaluates formula (7) over its history buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScanMode {
    /// Exploit the FIFO/star guarantee: per-client watermarks bound the
    /// scan to the un-acked suffix; buffered entries store counters, not
    /// vector clones.
    #[default]
    SuffixBounded,
    /// The paper's literal algorithm: clone the full `N`-element snapshot
    /// into every entry and scan the whole buffer per arrival. Kept as a
    /// measured baseline and as an independent reference implementation.
    FullScanReference,
}

/// One executed operation in the notifier's history buffer.
///
/// Stores O(1) counters instead of the paper's full snapshot: formula (7)
/// only ever needs the running total (see
/// [`cvc_core::formulas::formula7_counters`]), and the snapshot itself is
/// recoverable via [`Notifier::hb_snapshot`]. In
/// [`ScanMode::FullScanReference`] the snapshot is additionally stored.
#[derive(Debug, Clone)]
pub struct NotifierHbEntry {
    /// The client the operation originally came from (`y` in formula (7)).
    pub origin: SiteId,
    /// Session width (client count) when the entry was buffered — the
    /// width of its implied snapshot.
    pub width_at: usize,
    /// Operations the notifier had executed up to **and including** this
    /// one (`Σ_j` of its implied snapshot).
    pub total_after: u64,
    /// Per-origin generation sequence (the arriving stamp's `T[2]`) — the
    /// second half of the operation's global identity `(origin, seq)`,
    /// carried into flight-recorder events and the audit replayer.
    pub origin_seq: u64,
    /// The executed (transformed) form, shared with the pending queue of
    /// every bridge it was broadcast on until a transform rewrites it
    /// there.
    pub op: Arc<SeqOp>,
    /// Full `N`-element snapshot of `SV_0`, stored only in
    /// [`ScanMode::FullScanReference`].
    pub vector: Option<VectorClock>,
}

/// The central notifier process.
#[derive(Debug, Clone)]
pub struct Notifier {
    sv: NotifierStateVector,
    doc: TextBuffer,
    bridges: Vec<Bridge>,
    /// History buffer as a ring: GC is a prefix trim, and a `VecDeque`
    /// makes that an index bump instead of an O(|HB|) front shift.
    hb: VecDeque<NotifierHbEntry>,
    scan_mode: ScanMode,
    /// Trim the dead prefix inside every integration (folded-in GC).
    auto_trim: bool,
    /// Entries trimmed off the front of `hb` so far — the absolute stream
    /// index of `hb[0]`.
    trimmed: u64,
    /// Of the trimmed entries, how many originated at each client.
    trimmed_from: Vec<u64>,
    /// Per-client watermark: absolute history index of the first entry
    /// whose stream position to that client exceeded its last-seen `T[1]`.
    /// Every earlier entry is permanently non-concurrent with that
    /// client's future operations (positions and acks are both monotone).
    wm_abs: Vec<u64>,
    /// Operations from client `x` among the absolute prefix
    /// `[0, wm_abs[x])` — the running `T_Ob[x]` at the watermark.
    wm_from_self: Vec<u64>,
    /// Highest `T[1]` seen from each client: how many of our broadcasts it
    /// has integrated. Drives history-buffer garbage collection.
    acked_by: Vec<u64>,
    /// Operations the notifier had executed when each client joined —
    /// those reached the client inside its join snapshot, so its broadcast
    /// stream (and the stamps on it) starts counting after them. Zero for
    /// founding members.
    join_offsets: Vec<u64>,
    /// False once a client has left; departed ids are never reused.
    active: Vec<bool>,
    /// Send a [`ServerAckMsg`] back to each operation's origin (needed by
    /// composing clients; the paper's streaming clients ignore acks).
    send_acks: bool,
    /// Reusable per-client counter scratch for the trim scan (avoids an
    /// allocation per folded-in GC pass).
    trim_scratch: Vec<u64>,
    /// Bounded lifecycle-event ring, dumped on protocol errors.
    recorder: FlightRecorder,
    metrics: SiteMetrics,
}

impl Notifier {
    /// A notifier for a session of `n_clients` client sites starting from
    /// the shared `initial` document.
    pub fn new(n_clients: usize, initial: &str) -> Self {
        Notifier {
            sv: NotifierStateVector::new(n_clients),
            doc: TextBuffer::from_str(initial),
            bridges: (0..n_clients)
                .map(|_| Bridge::new(BridgeRole::Notifier))
                .collect(),
            hb: VecDeque::new(),
            scan_mode: ScanMode::SuffixBounded,
            auto_trim: false,
            trimmed: 0,
            trimmed_from: vec![0; n_clients],
            wm_abs: vec![0; n_clients],
            wm_from_self: vec![0; n_clients],
            acked_by: vec![0; n_clients],
            join_offsets: vec![0; n_clients],
            active: vec![true; n_clients],
            send_acks: false,
            trim_scratch: Vec::with_capacity(n_clients),
            recorder: FlightRecorder::new(SiteId(0)),
            metrics: SiteMetrics::new(),
        }
    }

    /// Write the notifier's snapshot, its whole protocol state, to `buf`:
    /// the document; the client and history-entry counts; each history
    /// entry, oldest first, as its origin, its width and its executed op
    /// (its running total and sequence number follow from its place and
    /// the clients' counts); then per client the broadcasts sent, the
    /// operations received, the broadcasts acknowledged, the join offset,
    /// liveness, the formula-(7) watermark past the trimmed prefix and the
    /// bridge's pending broadcasts, oldest first. A pending broadcast that
    /// is still the very op of the history entry it was broadcast from is
    /// written as that entry's index plus one; 0 says an op follows.
    pub fn write_checkpoint<B: BufMut>(&self, buf: &mut B) {
        put_string(buf, &self.doc.to_string());
        put_varint(buf, self.n_clients() as u64);
        put_varint(buf, self.hb.len() as u64);
        for e in &self.hb {
            put_varint(buf, u64::from(e.origin.0));
            put_varint(buf, e.width_at as u64);
            put_op(buf, &e.op);
        }
        for (i, bridge) in self.bridges.iter().enumerate() {
            let (sent, received) = (bridge.my_count(), bridge.their_count());
            for v in [sent, received, self.acked_by[i], self.join_offsets[i]] {
                put_varint(buf, v);
            }
            buf.put_u8(u8::from(self.active[i]));
            put_varint(buf, self.wm_abs[i] - self.trimmed);
            // The newest pending broadcast is the newest entry from
            // another site, and so on back: pair them from the end.
            let len = bridge.pending_len();
            put_varint(buf, len as u64);
            let others = |(_, e): &(usize, &NotifierHbEntry)| e.origin.client_index() != i;
            let m = self.hb.iter().enumerate().filter(others).count();
            let mut entries = self
                .hb
                .iter()
                .enumerate()
                .filter(others)
                .skip(m.saturating_sub(len));
            for (j, op) in bridge.pending().enumerate() {
                match (j + m >= len).then(|| entries.next()).flatten() {
                    Some((k, e)) if Arc::ptr_eq(op, &e.op) => put_varint(buf, k as u64 + 1),
                    _ => {
                        put_varint(buf, 0);
                        put_op(buf, op);
                    }
                }
            }
        }
    }

    /// Read a snapshot [`Notifier::write_checkpoint`] wrote: a notifier
    /// that goes on exactly as the one that wrote it. Stamps on later
    /// broadcasts continue the original streams, a returning client is
    /// replayed the same suffix, an arriving operation is checked and
    /// transformed against the same concurrent set, and a pending
    /// broadcast that names a history entry shares its op. The trimmed
    /// prefix, each client's share of it, every entry's running total and
    /// sequence number, and the watermarks' own counts follow from the
    /// received counts and the entries' order. Settings are
    /// [`Notifier::new`]'s; the scan mode is [`ScanMode::SuffixBounded`],
    /// since the reference mode's full snapshots cannot stand for a
    /// trimmed prefix.
    ///
    /// The bytes are read as hostile. Each count is held to the bytes left
    /// behind it (checked in u64, so no 32-bit truncation), and every
    /// field the notifier indexes, adds or subtracts by is held to what it
    /// names: an origin to the session's sites, a watermark or reference
    /// to the history read before it, a client's received count to its
    /// own history entries and the counts' sum to a `u64`, a pending
    /// queue to the broadcasts sent and those to one short of `u64::MAX`.
    /// A value past its bound is [`WireError::HostileLength`].
    pub fn read_checkpoint<B: Buf>(buf: &mut B) -> Result<Notifier, WireError> {
        let bound = |v: u64, max: u64| (v <= max).then_some(v).ok_or(WireError::HostileLength(v));
        let doc = get_string(buf)?;
        // A client costs ≥ 7 bytes, an entry ≥ 3.
        let n = get_bounded_len(buf, 7)?;
        let h = get_bounded_len(buf, 3)?;
        let mut me = Notifier::new(n, &doc);
        // Each entry's sequence number among its origin's live entries for
        // now; the origin's trimmed share is added once it is known.
        let mut own = vec![0u64; n];
        for _ in 0..h {
            let site = get_u32(buf)?;
            let i = (site as usize).checked_sub(1).filter(|&i| i < n);
            let own = i.and_then(|i| own.get_mut(i));
            let own = own.ok_or(WireError::HostileLength(u64::from(site)))?;
            *own += 1;
            me.hb.push_back(NotifierHbEntry {
                origin: SiteId(site),
                width_at: get_varint(buf)? as usize,
                total_after: 0,
                origin_seq: *own,
                op: Arc::new(get_op(buf)?),
                vector: None,
            });
        }
        let mut received = Vec::with_capacity(n);
        for (i, &own) in own.iter().enumerate() {
            let sent = bound(get_varint(buf)?, u64::MAX - 1)?;
            received.push(get_varint(buf)?);
            me.trimmed_from[i] = received[i] - bound(own, received[i])?;
            me.trimmed = (me.trimmed.checked_add(received[i]))
                .ok_or(WireError::HostileLength(received[i]))?;
            me.acked_by[i] = get_varint(buf)?;
            me.join_offsets[i] = get_varint(buf)?;
            if !buf.has_remaining() {
                return Err(WireError::Truncated);
            }
            me.active[i] = match buf.get_u8() {
                0 => false,
                1 => true,
                t => return Err(WireError::BadTag(t)),
            };
            // Relative to the trimmed prefix until its length is known.
            me.wm_abs[i] = bound(get_varint(buf)?, h as u64)?;
            let len = get_bounded_len(buf, 1)?;
            bound(len as u64, sent)?;
            let mut pending = VecDeque::with_capacity(len);
            for _ in 0..len {
                pending.push_back(match get_varint(buf)? {
                    0 => Arc::new(get_op(buf)?),
                    k => Arc::clone(&me.hb[bound(k, h as u64)? as usize - 1].op),
                });
            }
            me.bridges[i] = Bridge::resume(BridgeRole::Notifier, sent, received[i], pending);
        }
        // The trimmed prefix is every received op not in the history.
        me.trimmed -= h as u64;
        for (k, e) in me.hb.iter_mut().enumerate() {
            e.total_after = me.trimmed + k as u64 + 1;
            e.origin_seq += me.trimmed_from[e.origin.client_index()];
        }
        for i in 0..n {
            let below = me.hb.iter().take(me.wm_abs[i] as usize);
            let from_self = below.filter(|e| e.origin.client_index() == i).count() as u64;
            me.wm_from_self[i] = me.trimmed_from[i] + from_self;
            me.wm_abs[i] += me.trimmed;
        }
        me.sv = NotifierStateVector::from_counts(received);
        Ok(me)
    }

    /// Turn the flight recorder on or off (off by default).
    pub fn set_flight_recorder(&mut self, on: bool) {
        self.recorder.set_enabled(on);
    }

    /// Resize the recorder ring (before enabling; see
    /// [`FlightRecorder::set_capacity`]).
    pub fn set_flight_recorder_capacity(&mut self, capacity: usize) {
        self.recorder.set_capacity(capacity);
    }

    /// The notifier's flight recorder (its retained event window).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Advance the recorder's virtual clock (µs); session drivers call
    /// this before delegating simulator callbacks so recorded events carry
    /// virtual time. A single `u64` store — safe on the hot path.
    #[inline]
    pub fn set_now(&mut self, now_us: u64) {
        self.recorder.set_now(now_us);
    }

    /// Merge another recorder's retained events into this notifier's ring,
    /// preserving their original timestamps (see
    /// [`FlightRecorder::absorb`]). Standby promotion uses this to carry
    /// the dead primary's event history into the promoted notifier so a
    /// failover session still yields one continuous notifier trace.
    pub fn absorb_recorder_events(&mut self, events: &[FlightEvent]) {
        for ev in events {
            self.recorder.absorb(*ev);
        }
    }

    /// Record a failover lifecycle event (crash, promote) from the
    /// simulated driver. No-op while the recorder is disabled.
    pub fn note_lifecycle(&mut self, ev: FlightEvent) {
        if self.recorder.is_enabled() {
            self.recorder.record(ev);
        }
    }

    /// Human-readable dump of the retained flight-recorder window.
    pub fn dump_recorder(&self) -> String {
        self.recorder.dump()
    }

    /// Enable per-operation acknowledgements to the origin (for sessions
    /// with composing clients).
    pub fn set_send_acks(&mut self, on: bool) {
        self.send_acks = on;
    }

    /// Whether each integrated op is acknowledged to its origin.
    pub fn sends_acks(&self) -> bool {
        self.send_acks
    }

    /// Select how the history buffer is scanned. Must be called before any
    /// operation is integrated (the reference mode needs snapshots stored
    /// from the first entry on).
    pub fn set_scan_mode(&mut self, mode: ScanMode) {
        assert!(
            self.hb.is_empty() && self.trimmed == 0,
            "scan mode must be chosen before the first operation"
        );
        self.scan_mode = mode;
    }

    /// Current scan mode.
    pub fn scan_mode(&self) -> ScanMode {
        self.scan_mode
    }

    /// Fold garbage collection into normal operation processing: after
    /// every integration the acknowledged prefix of the history buffer is
    /// trimmed, keeping the buffer at the in-flight window without any
    /// explicit [`Notifier::gc`] calls.
    pub fn set_auto_gc(&mut self, on: bool) {
        self.auto_trim = on;
    }

    /// Whether garbage collection is folded into integration.
    pub fn auto_gc(&self) -> bool {
        self.auto_trim
    }

    /// Admit a new client mid-session (beyond-paper extension; the web
    /// demonstrator allowed "an arbitrary number of users to participate").
    ///
    /// The join is linearised at the notifier: the newcomer receives the
    /// current document as its initial state and a fresh site id; the
    /// notifier starts counting its broadcast stream to the newcomer from
    /// zero (see `formula7_dynamic` in `cvc-core`). Operations in flight
    /// from older clients integrate normally and reach the newcomer as
    /// ordinary broadcasts.
    pub fn add_client(&mut self) -> (SiteId, String) {
        let site = self.sv.grow();
        self.bridges.push(Bridge::new(BridgeRole::Notifier));
        self.acked_by.push(0);
        self.join_offsets.push(self.sv.total());
        self.active.push(true);
        self.trimmed_from.push(0);
        // The newcomer has no operations anywhere, so its self-count is 0
        // at any watermark; start at the trim boundary.
        self.wm_abs.push(self.trimmed);
        self.wm_from_self.push(0);
        (site, self.doc.to_string())
    }

    /// Remove `site` from the session — a graceful leave or an eviction
    /// after a protocol violation: no further broadcasts go to it and
    /// everything arriving from it is rejected. Its counters remain (site
    /// ids are never reused). `Err` — with nothing changed — when `site` is
    /// not an active member: a never-member id, or a second violation from
    /// a site already out, which callers that only need the site gone
    /// ignore. On a notifier with a
    /// log or a shadow this is reached only through [`crate::core::apply`]
    /// (see [`crate::core::NotifierCore::integrate_eviction`]), so that
    /// recovery and the standby agree on membership.
    pub fn quarantine(&mut self, site: SiteId) -> Result<(), ProtocolError> {
        let xi = self.active_index(site)?;
        self.active[xi] = false;
        // Nothing integrates from the site again, so the broadcasts still
        // pending on its bridge are dead weight.
        let bridge = &self.bridges[xi];
        self.bridges[xi] = Bridge::resume(
            BridgeRole::Notifier,
            bridge.my_count(),
            bridge.their_count(),
            VecDeque::new(),
        );
        Ok(())
    }

    /// `site`'s client index, provided it is an active member.
    fn active_index(&self, site: SiteId) -> Result<usize, ProtocolError> {
        if site.is_notifier() || site.client_index() >= self.n_clients() {
            return Err(ProtocolError::UnknownSite {
                site,
                n_clients: self.n_clients(),
            });
        }
        if !self.active[site.client_index()] {
            return Err(ProtocolError::DepartedSite { site });
        }
        Ok(site.client_index())
    }

    /// The document length an operation from client `xi` acknowledging
    /// `acked` broadcasts consumes: the base of the first broadcast it had
    /// not seen, or the current document ([`Bridge::peer_base_len`]).
    fn base_for(&self, xi: usize, acked: u64) -> usize {
        self.bridges[xi]
            .peer_base_len(acked)
            .unwrap_or_else(|| self.doc.len())
    }

    /// `msg` as [`Notifier::try_on_client_op_outcome`] would integrate it
    /// now: its op closed on the base that door closes it on. An op the
    /// door would refuse comes back as it arrived. How a driver records
    /// the ops it integrates whole, though they arrive without their tail.
    pub fn closed(&self, msg: &ClientOpMsg) -> ClientOpMsg {
        let mut msg = msg.clone();
        if let Ok(xi) = self.active_index(msg.origin) {
            let _ = msg.op.close_to(self.base_for(xi, msg.stamp.get(1)));
        }
        msg
    }

    /// Whether `site` is currently a member.
    pub fn is_active(&self, site: SiteId) -> bool {
        !site.is_notifier()
            && site.client_index() < self.n_clients()
            && self.active[site.client_index()]
    }

    /// Number of currently active clients.
    pub fn active_clients(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Number of client sites.
    pub fn n_clients(&self) -> usize {
        self.bridges.len()
    }

    /// Current document content, materialised. The replica itself lives in
    /// a gap buffer; use [`Notifier::doc_checksum`] to compare replicas
    /// without building strings.
    pub fn doc(&self) -> String {
        self.doc.to_string()
    }

    /// FNV-1a fingerprint of the document content.
    pub fn doc_checksum(&self) -> u64 {
        self.doc.checksum()
    }

    /// Document length in characters.
    pub fn doc_len(&self) -> usize {
        self.doc.len()
    }

    /// Current full state vector (`SV_0`).
    pub fn state_vector(&self) -> &NotifierStateVector {
        &self.sv
    }

    /// History buffer (`HB_0`). With auto-GC (or after [`Notifier::gc`])
    /// this is the live suffix; [`Notifier::history_trimmed`] counts the
    /// collected prefix.
    pub fn history(&self) -> &VecDeque<NotifierHbEntry> {
        &self.hb
    }

    /// Entries collected off the front of the history buffer so far.
    pub fn history_trimmed(&self) -> u64 {
        self.trimmed
    }

    /// Reconstruct the full state-vector snapshot entry `k` (an index into
    /// [`Notifier::history`]) was conceptually stamped with — `SV_0` right
    /// after executing it, at the session width of that moment
    /// (Section 3.3's "timestamping buffered operations").
    ///
    /// This is the storage-free inverse of the paper's per-entry snapshot
    /// clone: start from the current vector and peel off the operations
    /// executed after entry `k` (each later buffered entry decrements its
    /// origin's count; clients that joined later vanish with the width
    /// truncation). Because the notifier only ever trims *prefixes*, the
    /// suffix after any live entry is always intact.
    pub fn hb_snapshot(&self, k: usize) -> VectorClock {
        let e = &self.hb[k];
        let mut entries = self.sv.as_vector().entries().to_vec();
        for later in self.hb.iter().skip(k + 1) {
            let i = later.origin.client_index();
            if i < e.width_at {
                entries[i] -= 1;
            }
        }
        entries.truncate(e.width_at);
        debug_assert_eq!(
            entries.iter().sum::<u64>(),
            e.total_after,
            "reconstructed snapshot must sum to the entry's running total"
        );
        VectorClock::from_entries(entries)
    }

    /// Cost counters.
    pub fn metrics(&self) -> &SiteMetrics {
        &self.metrics
    }

    /// How many of our broadcasts each client has acknowledged (highest
    /// `T[1]` seen from it) — the information that gates history-buffer
    /// garbage collection.
    pub fn acked_by(&self) -> &[u64] {
        &self.acked_by
    }

    /// Operations the notifier had executed when `site` joined (zero for
    /// founding members) — the shift applied to formulas (1) and (7) for
    /// that client.
    pub fn join_offset(&self, site: SiteId) -> u64 {
        self.join_offsets[site.client_index()]
    }

    /// Rebuild the suffix of the broadcast stream to `site` that a
    /// reconnecting client has not yet integrated, given the `received`
    /// count (`T[1]`, its 2-element `SV_i`'s first entry) it presented in
    /// its resync request.
    ///
    /// Each returned [`ServerOpMsg`] carries the *same* stamp the original
    /// broadcast did: its position in the stream to `site` (formula (1),
    /// shifted by the join offset) and the operations received from `site`
    /// at that point (formula (2)). This works off the watermark
    /// machinery's running counters. GC safety is inherited from the
    /// collection rule: an entry is only trimmed once `site` has
    /// acknowledged past its stream position, and a client that merely
    /// disconnected cannot have received fewer broadcasts than it
    /// acknowledged — its frozen `acked_by` entry *pins* the trim
    /// watermark, so every entry with position `> received` is still
    /// buffered. The one way to defeat the pin is a client restored from a
    /// stale backup, presenting a `received` below its own earlier ack; the
    /// needed prefix may then be gone and the typed
    /// [`ProtocolError::ReplayTrimmed`] tells the transport layer to fall
    /// back to a full-state resync instead of silently diverging. Cursor
    /// presence is not replayed (it is ephemeral UI state). A `site` that
    /// is not an active member is the typed error every other door
    /// returns for it — the request names a remote peer.
    pub fn replay_for(
        &self,
        site: SiteId,
        received: u64,
    ) -> Result<Vec<ServerOpMsg>, ProtocolError> {
        let xi = self.active_index(site)?;
        let offset = self.join_offsets[xi];
        // Ops from `site` itself among the stream so far (they are never
        // broadcast back to their origin).
        let mut from_x = self.trimmed_from[xi];
        let mut out = Vec::new();
        for e in &self.hb {
            if e.origin == site {
                from_x += 1;
                continue;
            }
            let pos = (e.total_after - from_x).saturating_sub(offset);
            if pos > received {
                out.push(ServerOpMsg {
                    stamp: CompressedStamp::new(pos, from_x),
                    op: (*e.op).clone(),
                    cursor: None,
                });
            }
        }
        // The stream to `site` has `sent` positions; the replay must cover
        // (received, sent]. Only a prefix is ever trimmed, so a shortfall
        // means exactly that: the needed prefix was garbage-collected.
        let sent = self.bridges[xi].my_count();
        let needed = sent.saturating_sub(received);
        if (out.len() as u64) < needed {
            return Err(ProtocolError::ReplayTrimmed {
                site,
                needed_from: received + 1,
                available_from: sent - out.len() as u64 + 1,
            });
        }
        Ok(out)
    }

    /// Everything a client needs to rebuild its replica wholesale after a
    /// [`ProtocolError::ReplayTrimmed`]: the current document plus both
    /// stream counters for `site` — `(doc, sent_to_site,
    /// received_from_site)`, fed straight into
    /// [`crate::client::Client::adopt_snapshot`]. Like
    /// [`Notifier::replay_for`], `Err` for a site that is not an active
    /// member: the request names a remote peer.
    pub fn resync_snapshot_for(&self, site: SiteId) -> Result<(String, u64, u64), ProtocolError> {
        let xi = self.active_index(site)?;
        Ok((
            self.doc.to_string(),
            self.bridges[xi].my_count(),
            self.bridges[xi].their_count(),
        ))
    }

    /// Integrate a bare [`ClientAckMsg`]: advance the sender's `acked_by`
    /// entry (and drop its bridge's acknowledged pending prefix) exactly as
    /// an operation stamp would, without executing anything. This is what
    /// lets a *quiet* client keep the notifier's history buffer
    /// collectable; see [`crate::client::Client::take_pending_ack`]. On
    /// error the violation is counted and recorded; the notifier state is
    /// untouched.
    pub fn try_on_client_ack(&mut self, msg: ClientAckMsg) -> Result<(), ProtocolError> {
        let (origin, received) = (msg.origin, msg.received);
        let res = self.integrate_client_ack(msg);
        if let Err(e) = &res {
            self.metrics.protocol_errors += 1;
            if self.recorder.is_enabled() {
                self.recorder.record(
                    FlightEvent::new(EventKind::Error)
                        .with_op(origin.0, 0)
                        .with_ab(received, 0)
                        .with_detail(e.kind_name()),
                );
            }
        }
        res
    }

    fn integrate_client_ack(&mut self, msg: ClientAckMsg) -> Result<(), ProtocolError> {
        let x = msg.origin;
        let xi = self.active_index(x)?;
        let sent_to_x = self.bridges[xi].my_count();
        if msg.received > sent_to_x {
            return Err(ProtocolError::AckOverrun {
                site: x,
                sent: sent_to_x,
                acked: msg.received,
            });
        }
        self.acked_by[xi] = self.acked_by[xi].max(msg.received);
        self.bridges[xi]
            .ack_prefix(msg.received)
            .expect("bound checked above");
        if self.recorder.is_enabled() {
            self.recorder.record(
                FlightEvent::new(EventKind::Ack)
                    .with_op(x.0, 0)
                    .with_ab(msg.received, 0)
                    .with_detail("client-ack"),
            );
        }
        if self.auto_trim {
            self.trim_dead_prefix();
        }
        Ok(())
    }

    /// Garbage-collect history-buffer entries that can never again be
    /// judged concurrent with a future arriving operation.
    ///
    /// A buffered entry `Ob` (from site `y`) is checked by formula (7)
    /// against a future op from site `x ≠ y` as
    /// `Σ_{j≠x} T_Ob[j] > T_Oa[1]`; that sum is `Ob`'s position in the
    /// notifier's broadcast stream to `x`. Once client `x` has acknowledged
    /// receiving that many broadcasts (its `T[1]` is monotone), the verdict
    /// is false forever. An entry is dead when that holds for **every**
    /// client other than its origin (the origin's checks are always false
    /// by the `x = y` rule). Because stream positions are non-decreasing
    /// along the buffer, the dead entries form a prefix — collection is a
    /// prefix trim, so live indices shift down uniformly by the amount
    /// trimmed. Returns the number of entries collected.
    ///
    /// With [`Notifier::set_auto_gc`] the trim runs inside every
    /// integration and this explicit call is a (still correct) no-op.
    ///
    /// Note: collection renumbers [`Notifier::history`] indices; callers
    /// correlating [`NotifierOutcome`] verdicts with entries must not
    /// collect between integration and inspection.
    pub fn gc(&mut self) -> usize {
        self.trim_dead_prefix()
    }

    /// Trim the longest prefix of entries acknowledged past their stream
    /// position by every active non-origin client.
    fn trim_dead_prefix(&mut self) -> usize {
        let n = self.n_clients();
        // Running per-client executed-op counts at the entry under test
        // (exclusive of it), starting from the already-trimmed prefix.
        let mut counts = std::mem::take(&mut self.trim_scratch);
        counts.clear();
        counts.extend_from_slice(&self.trimmed_from);
        let mut dead = 0usize;
        'scan: for e in &self.hb {
            for (idx, &count) in counts.iter().enumerate().take(n) {
                let z = SiteId::from_client_index(idx);
                if z == e.origin || !self.active[idx] {
                    continue;
                }
                // e.origin ≠ z, so z's inclusive count equals `count`.
                let pos = (e.total_after - count).saturating_sub(self.join_offsets[idx]);
                if self.acked_by[idx] < pos {
                    break 'scan;
                }
            }
            counts[e.origin.client_index()] += 1;
            dead += 1;
        }
        if dead > 0 {
            for e in self.hb.drain(..dead) {
                self.trimmed_from[e.origin.client_index()] += 1;
            }
            self.trimmed += dead as u64;
            if self.recorder.is_enabled() {
                self.recorder
                    .record(FlightEvent::new(EventKind::GcTrim).with_ab(dead as u64, self.trimmed));
            }
            // Watermarks below the trim boundary snap to it.
            for idx in 0..n {
                if self.wm_abs[idx] < self.trimmed {
                    self.wm_abs[idx] = self.trimmed;
                    self.wm_from_self[idx] = self.trimmed_from[idx];
                }
            }
        }
        self.trim_scratch = counts;
        dead
    }

    /// Integrate an arriving client operation: validates the origin, the
    /// per-channel FIFO counter (`T[2]` must be exactly one past the
    /// operations received from that client), and the acknowledgement
    /// bound (`T[1]` cannot exceed the operations sent to that client). On
    /// error the violation is counted and recorded; the notifier state is
    /// untouched.
    ///
    /// The outcome carries the broadcast in unserialized shared form
    /// (`Arc`'d op + per-destination stamps): every driver encodes the
    /// destination-independent body exactly once
    /// ([`NotifierOutcome::frame`]); traces and examples materialize one
    /// [`ServerOpMsg`] per destination ([`NotifierOutcome::broadcast_msgs`]).
    pub fn try_on_client_op_outcome(
        &mut self,
        msg: ClientOpMsg,
    ) -> Result<NotifierOutcome, ProtocolError> {
        let (origin, stamp) = (msg.origin, msg.stamp);
        if self.recorder.is_enabled() {
            self.recorder.record(
                FlightEvent::new(EventKind::Deliver)
                    .with_op(origin.0, stamp.get(2))
                    .with_stamp(stamp)
                    .with_detail("client-op"),
            );
        }
        let res = self.integrate_client_op(msg);
        if let Err(e) = &res {
            self.metrics.protocol_errors += 1;
            if self.recorder.is_enabled() {
                self.recorder.record(
                    FlightEvent::new(EventKind::Error)
                        .with_op(origin.0, stamp.get(2))
                        .with_stamp(stamp)
                        .with_detail(e.kind_name()),
                );
            }
        }
        res
    }

    fn integrate_client_op(
        &mut self,
        mut msg: ClientOpMsg,
    ) -> Result<NotifierOutcome, ProtocolError> {
        let x = msg.origin;
        let xi = self.active_index(x)?;
        let expected = self.sv.received_from(x).expect("origin validated above") + 1;
        if msg.stamp.get(2) != expected {
            return Err(ProtocolError::FifoViolation {
                site: x,
                expected,
                got: msg.stamp.get(2),
            });
        }
        let sent_to_x = self.bridges[xi].my_count();
        if msg.stamp.get(1) > sent_to_x {
            return Err(ProtocolError::AckOverrun {
                site: x,
                sent: sent_to_x,
                acked: msg.stamp.get(1),
            });
        }
        // The op arrives without its trailing retain (from the wire or the
        // log): close it on the base it must consume. One reaching past
        // that base can only fail — in the bridge's first transform, or at
        // execution after the bridge already counted it. Refuse it here,
        // while the promise that a rejected input leaves the notifier
        // untouched is still cheap to keep: recovery replays the log on the
        // strength of that promise.
        msg.op
            .close_to(self.base_for(xi, msg.stamp.get(1)))
            .map_err(ProtocolError::BadOperation)?;

        self.acked_by[xi] = self.acked_by[xi].max(msg.stamp.get(1));

        // Paper concurrency check: formula (7) over HB_0.
        let hb_len = self.hb.len();
        let offset_x = self.join_offsets[xi];
        let (first_checked, checked, concurrent, touched) = match self.scan_mode {
            ScanMode::FullScanReference => {
                // The paper's literal O(|HB|·N) scan over stored snapshots.
                let mut checked = Vec::with_capacity(hb_len);
                let mut concurrent = 0usize;
                for entry in &self.hb {
                    let vector = entry
                        .vector
                        .as_ref()
                        .expect("reference mode stores a snapshot per entry");
                    let verdict = formula7_dynamic(msg.stamp, x, vector, entry.origin, offset_x);
                    checked.push(verdict);
                    concurrent += usize::from(verdict);
                }
                (0usize, checked, concurrent, hb_len as u64)
            }
            ScanMode::SuffixBounded => {
                // Advance this client's watermark: stream positions are
                // non-decreasing along the buffer and T[1] is monotone, so
                // entries stay below the boundary forever once passed.
                let a1 = msg.stamp.get(1);
                let mut k = (self.wm_abs[xi] - self.trimmed) as usize;
                let mut seen_self = self.wm_from_self[xi];
                let mut advanced = 0u64;
                while k < hb_len {
                    let e = &self.hb[k];
                    let from_x_incl = seen_self + u64::from(e.origin == x);
                    let pos = (e.total_after - from_x_incl).saturating_sub(offset_x);
                    if pos > a1 {
                        break;
                    }
                    seen_self = from_x_incl;
                    k += 1;
                    advanced += 1;
                }
                self.wm_abs[xi] = self.trimmed + k as u64;
                self.wm_from_self[xi] = seen_self;
                // Past the boundary every position exceeds T[1], so the
                // verdict degenerates to formula (7)'s `x ≠ y` test.
                let mut checked = Vec::with_capacity(hb_len - k);
                let mut concurrent = 0usize;
                for e in self.hb.iter().skip(k) {
                    let verdict = e.origin != x;
                    checked.push(verdict);
                    concurrent += usize::from(verdict);
                }
                (k, checked, concurrent, advanced + (hb_len - k) as u64)
            }
        };
        // Independent full-buffer reference: recompute every verdict from
        // first principles (running counters seeded by the trimmed prefix,
        // not the maintained watermarks) and require exact agreement.
        #[cfg(debug_assertions)]
        {
            let mut from_x = self.trimmed_from[xi];
            for (k, e) in self.hb.iter().enumerate() {
                let incl = from_x + u64::from(e.origin == x);
                let reference =
                    formula7_counters(msg.stamp, x, e.origin, e.total_after, incl, offset_x);
                let fast = k >= first_checked && checked[k - first_checked];
                debug_assert_eq!(
                    fast, reference,
                    "bounded scan must select exactly the full-scan concurrent set (entry {k})"
                );
                if e.origin == x {
                    from_x = incl;
                }
            }
        }
        self.metrics.concurrency_checks += hb_len as u64;
        self.metrics.concurrent_verdicts += concurrent as u64;
        self.metrics.record_scan(touched);
        if self.recorder.is_enabled() {
            // Materialise every formula-(7) verdict (entries below the
            // watermark are non-concurrent by construction); this extra
            // O(|HB|) walk exists only while recording.
            for (k, e) in self.hb.iter().enumerate() {
                let verdict = k >= first_checked && checked[k - first_checked];
                self.recorder.record(
                    FlightEvent::new(EventKind::Transform)
                        .with_op(x.0, msg.stamp.get(2))
                        .with_stamp(msg.stamp)
                        .with_ab(u64::from(e.origin.0), e.origin_seq)
                        .with_flag(verdict)
                        .with_detail("formula7"),
                );
            }
        }

        // Bridge integration: T_O[1] acks the server ops the client had
        // seen; the pending remainder is the concurrent set.
        let (integrated, cursor) = self.bridges[xi]
            .integrate_with_cursor(msg.op, msg.stamp.get(1), msg.cursor.map(|c| c as usize))
            .map_err(|e| match e {
                BridgeError::AckOverrun { sent, acked } => ProtocolError::AckOverrun {
                    site: x,
                    sent,
                    acked,
                },
                BridgeError::Transform(e) => ProtocolError::BadOperation(e),
            })?;
        debug_assert_eq!(
            integrated.concurrent_with, concurrent,
            "formula (7) and bridge pruning must select the same concurrent set"
        );
        self.metrics.transforms += integrated.concurrent_with as u64;

        // Execute on the notifier replica, in place.
        integrated
            .op
            .apply_to_buffer(&mut self.doc)
            .map_err(ProtocolError::BadOperation)?;
        self.sv.record_receive(x);
        self.metrics.ops_executed_remote += 1;
        if self.recorder.is_enabled() {
            // Formula (2): the full N-element SV_0 right after execution.
            self.recorder.record(
                FlightEvent::new(EventKind::Execute)
                    .with_op(x.0, msg.stamp.get(2))
                    .with_stamp(msg.stamp)
                    .with_ab(integrated.concurrent_with as u64, 0)
                    .with_vector(self.sv.as_vector().entries()),
            );
        }

        // Buffer with the running counters (Section 3.3's snapshot is
        // implied; the reference mode also stores it). The op is
        // refcounted across the entry, every destination bridge and the
        // outcome.
        let executed = Arc::new(integrated.op);
        self.hb.push_back(NotifierHbEntry {
            origin: x,
            width_at: self.n_clients(),
            total_after: self.sv.total(),
            origin_seq: msg.stamp.get(2),
            op: Arc::clone(&executed),
            vector: match self.scan_mode {
                ScanMode::FullScanReference => Some(self.sv.snapshot()),
                ScanMode::SuffixBounded => None,
            },
        });
        self.metrics.record_hb_len(self.hb.len() as u64);

        // Re-broadcast with per-destination compressed stamps. The caller
        // decides whether to materialize per-destination messages (traces,
        // examples) or to serialize the shared body exactly once (the
        // hub's encode-once path).
        let owned_cursor = cursor.map(|c| (x.0, c as u64));
        // The destination-independent body prices every broadcast frame;
        // only the 2-varint stamp differs per destination.
        let body_len = server_op_body_len(&executed, &owned_cursor) as u64;
        let mut out = Vec::with_capacity(self.active_clients().saturating_sub(1));
        for idx in 0..self.n_clients() {
            let dest = SiteId::from_client_index(idx);
            if dest == x || !self.active[idx] {
                continue;
            }
            let seq = self.bridges[idx].record_send_shared(Arc::clone(&executed));
            // Formulas (1)/(2), shifted by the destination's join offset
            // (zero for founding members — then this IS compress_for).
            let base = self.sv.compress_for(dest);
            let stamp = CompressedStamp::new(base.get(1) - self.join_offsets[idx], base.get(2));
            // Formulas (1)/(2) coincide with the bridge counters: T[1] is
            // the count of ops sent to `dest` (this one included), T[2] the
            // count received from `dest`.
            debug_assert_eq!(stamp.get(1), seq, "formula (1) vs bridge my_count");
            debug_assert_eq!(
                stamp.get(2),
                self.bridges[idx].their_count(),
                "formula (2) vs bridge their_count"
            );
            if self.recorder.is_enabled() {
                self.recorder.record(
                    FlightEvent::new(EventKind::Broadcast)
                        .with_op(x.0, msg.stamp.get(2))
                        .with_stamp(stamp)
                        .with_ab(u64::from(dest.0), 0),
                );
            }
            let stamp_len = stamp_wire_len(stamp) as u64;
            self.metrics.messages_sent += 1;
            self.metrics.stamp_integers_sent += 2;
            self.metrics.stamp_bytes_sent += stamp_len;
            self.metrics.bytes_sent += 1 + stamp_len + body_len;
            out.push((dest, stamp));
        }
        let ack = if self.send_acks {
            let msg = ServerAckMsg {
                acked: self.sv.received_from(x).expect("origin validated above"),
            };
            let wire = EditorMsg::ServerAck(msg);
            self.metrics.messages_sent += 1;
            self.metrics.stamp_integers_sent += wire.stamp_integers() as u64;
            self.metrics.stamp_bytes_sent += wire.stamp_bytes() as u64;
            self.metrics.bytes_sent += wire.wire_bytes() as u64;
            Some((x, msg))
        } else {
            None
        };
        // Folded-in GC: the freshly advanced ack may have killed a prefix.
        // Runs after the outcome's verdict indices were fixed, so they
        // refer to the pre-trim numbering.
        if self.auto_trim {
            self.trim_dead_prefix();
        }
        Ok(NotifierOutcome {
            executed,
            cursor: owned_cursor,
            first_checked,
            checked,
            stamps: out,
            ack,
        })
    }
}

/// Outcome of integrating one client operation, in shared (unserialized)
/// form: one refcounted executed op plus the per-destination compressed
/// stamps.
///
/// Formula-(7) verdicts are stored in suffix form: entries before
/// [`NotifierOutcome::first_checked`] sit below the origin's watermark and
/// are non-concurrent by construction, so only the tail is materialised.
/// Indices refer to [`Notifier::history`] *before* the new operation was
/// appended (and before any folded-in GC of this call).
#[derive(Debug, Clone)]
pub struct NotifierOutcome {
    /// The executed (transformed) form `O'`, shared with every
    /// destination bridge's pending list.
    pub executed: Arc<SeqOp>,
    /// Telepointer (authoring site, caret), identical for every
    /// destination.
    pub cursor: Option<(u32, u64)>,
    /// Index of the first history entry `checked` covers; every earlier
    /// entry's verdict is `false`.
    pub first_checked: usize,
    /// Formula (7) verdicts for entries `first_checked..`.
    pub checked: Vec<bool>,
    /// Per-destination compressed stamps, in destination order.
    pub stamps: Vec<(SiteId, CompressedStamp)>,
    /// Acknowledgement to the origin (only when acks are enabled).
    pub ack: Option<(SiteId, ServerAckMsg)>,
}

impl NotifierOutcome {
    /// Serialize the shared broadcast body once; combine with
    /// [`NotifierOutcome::stamps`] via [`ServerOpFrame::payload_for`].
    pub fn frame(&self) -> ServerOpFrame {
        ServerOpFrame::new(&self.executed, &self.cursor)
    }

    /// Materialize the per-destination broadcast messages (op cloned per
    /// destination) — the form traces and hand-driven examples consume.
    pub fn broadcast_msgs(&self) -> Vec<(SiteId, ServerOpMsg)> {
        self.stamps
            .iter()
            .map(|&(dest, stamp)| {
                (
                    dest,
                    ServerOpMsg {
                        stamp,
                        op: (*self.executed).clone(),
                        cursor: self.cursor,
                    },
                )
            })
            .collect()
    }

    /// Number of history entries the check covered (the buffer length at
    /// arrival).
    pub fn hb_len(&self) -> usize {
        self.first_checked + self.checked.len()
    }

    /// Verdict for history entry `k` (pre-append indexing).
    pub fn verdict(&self, k: usize) -> bool {
        k >= self.first_checked && self.checked[k - self.first_checked]
    }

    /// All verdicts, materialised full-length: `full_verdicts()[k]` is
    /// formula (7) for history entry `k`.
    pub fn full_verdicts(&self) -> Vec<bool> {
        let mut v = vec![false; self.first_checked];
        v.extend_from_slice(&self.checked);
        v
    }

    /// How many history entries were judged concurrent.
    pub fn concurrent_count(&self) -> usize {
        self.checked.iter().filter(|&&c| c).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvc_core::state_vector::CompressedStamp;
    use cvc_ot::pos::PosOp;

    fn client_msg(origin: u32, stamp: (u64, u64), op: SeqOp) -> ClientOpMsg {
        ClientOpMsg {
            origin: SiteId(origin),
            stamp: CompressedStamp::new(stamp.0, stamp.1),
            op,
            cursor: None,
        }
    }

    #[test]
    fn first_op_broadcasts_with_fig3_stamps() {
        let mut n = Notifier::new(3, "ABCDE");
        // Fig. 3: O2 = Delete[3,2] from site 2, stamped [0,1].
        let o2 = SeqOp::from_pos(&PosOp::delete(2, "CDE"), 5);
        let out = n
            .try_on_client_op_outcome(client_msg(2, (0, 1), o2))
            .expect("valid client op")
            .broadcast_msgs();
        assert_eq!(n.doc(), "AB");
        assert_eq!(n.state_vector().to_string(), "[0,1,0]");
        // Propagated to sites 1 and 3 with stamp [1,0] each.
        let stamps: Vec<_> = out.iter().map(|(d, m)| (d.0, m.stamp.as_pair())).collect();
        assert_eq!(stamps, vec![(1, (1, 0)), (3, (1, 0))]);
        // Buffered with (the reconstruction of) the full vector [0,1,0].
        assert_eq!(n.history().len(), 1);
        assert_eq!(n.hb_snapshot(0).entries(), &[0, 1, 0]);
        assert_eq!(n.history()[0].origin, SiteId(2));
        assert_eq!(n.history()[0].total_after, 1);
    }

    #[test]
    fn concurrent_op_is_transformed_at_the_notifier() {
        let mut n = Notifier::new(3, "ABCDE");
        let o2 = SeqOp::from_pos(&PosOp::delete(2, "CDE"), 5);
        n.try_on_client_op_outcome(client_msg(2, (0, 1), o2))
            .expect("valid client op");
        // Fig. 3: O1 = Insert["12",1] from site 1 stamped [0,1] — concurrent
        // with O2'.
        let o1 = SeqOp::from_pos(&PosOp::insert(1, "12"), 5);
        let out = n
            .try_on_client_op_outcome(client_msg(1, (0, 1), o1))
            .expect("valid client op")
            .broadcast_msgs();
        assert_eq!(n.doc(), "A12B");
        assert_eq!(n.metrics().transforms, 1);
        assert_eq!(n.metrics().concurrent_verdicts, 1);
        // Fig. 3 stamps: to site 2 [1,1]; to site 3 [2,0].
        let stamps: Vec<_> = out.iter().map(|(d, m)| (d.0, m.stamp.as_pair())).collect();
        assert_eq!(stamps, vec![(2, (1, 1)), (3, (2, 0))]);
        assert_eq!(n.hb_snapshot(1).entries(), &[1, 1, 0]);
    }

    #[test]
    fn causally_dependent_op_is_not_transformed() {
        let mut n = Notifier::new(2, "ab");
        let first = SeqOp::from_pos(&PosOp::insert(2, "c"), 2);
        let out = n
            .try_on_client_op_outcome(client_msg(1, (0, 1), first))
            .expect("valid client op")
            .broadcast_msgs();
        assert_eq!(out.len(), 1);
        // Site 2 receives it ([1,0]) and replies with a dependent op
        // stamped [1,1].
        let dependent = SeqOp::from_pos(&PosOp::insert(3, "d"), 3);
        let out = n
            .try_on_client_op_outcome(client_msg(2, (1, 1), dependent))
            .expect("valid client op")
            .broadcast_msgs();
        assert_eq!(n.doc(), "abcd");
        assert_eq!(n.metrics().transforms, 0);
        assert_eq!(out[0].0, SiteId(1));
        assert_eq!(out[0].1.stamp.as_pair(), (1, 1));
    }

    #[test]
    fn gc_collects_fully_acknowledged_entries() {
        let mut n = Notifier::new(3, "abc");
        // Op from site 1; broadcast to 2 and 3 (their stream position 1).
        let op = SeqOp::from_pos(&PosOp::insert(3, "d"), 3);
        n.try_on_client_op_outcome(client_msg(1, (0, 1), op))
            .expect("valid client op");
        assert_eq!(n.history().len(), 1);
        // Nothing acked yet: entry must stay.
        assert_eq!(n.gc(), 0);
        // Site 2 acks receiving 1 broadcast by sending its own op.
        let op2 = SeqOp::from_pos(&PosOp::insert(4, "e"), 4);
        n.try_on_client_op_outcome(client_msg(2, (1, 1), op2))
            .expect("valid client op");
        assert_eq!(n.gc(), 0, "site 3 still has not acked");
        // Site 3 acks both broadcasts.
        let op3 = SeqOp::from_pos(&PosOp::insert(5, "f"), 5);
        n.try_on_client_op_outcome(client_msg(3, (2, 1), op3))
            .expect("valid client op");
        // Entry 1 (origin site 1): site 2 acked ≥1, site 3 acked ≥2 → dead.
        // Entry 2 (origin site 2): site 1 acked 0 < 1 → alive.
        // Entry 3 (origin site 3): site 1 acked 0 < its position → alive.
        assert_eq!(n.gc(), 1);
        assert_eq!(n.history().len(), 2);
        assert_eq!(n.history_trimmed(), 1);
        // And the session continues to work after collection.
        let op1b = SeqOp::from_pos(&PosOp::insert(0, "g"), 6);
        let out = n
            .try_on_client_op_outcome(client_msg(1, (2, 2), op1b))
            .expect("valid client op");
        assert_eq!(out.broadcast_msgs().len(), 2);
        assert_eq!(n.doc(), "gabcdef");
    }

    /// The same session as `gc_collects_fully_acknowledged_entries`, but
    /// with collection folded into processing: no explicit `gc()` calls,
    /// same buffer contents, and the explicit call is a no-op.
    #[test]
    fn auto_gc_trims_inside_integration() {
        let mut n = Notifier::new(3, "abc");
        n.set_auto_gc(true);
        n.try_on_client_op_outcome(client_msg(
            1,
            (0, 1),
            SeqOp::from_pos(&PosOp::insert(3, "d"), 3),
        ))
        .expect("valid client op");
        n.try_on_client_op_outcome(client_msg(
            2,
            (1, 1),
            SeqOp::from_pos(&PosOp::insert(4, "e"), 4),
        ))
        .expect("valid client op");
        assert_eq!(n.history().len(), 2, "nothing collectable yet");
        // Site 3's ack of both broadcasts kills entry 1 during integration.
        n.try_on_client_op_outcome(client_msg(
            3,
            (2, 1),
            SeqOp::from_pos(&PosOp::insert(5, "f"), 5),
        ))
        .expect("valid client op");
        assert_eq!(n.history().len(), 2);
        assert_eq!(n.history_trimmed(), 1);
        assert_eq!(n.gc(), 0, "explicit gc() is a no-op under auto mode");
        // The session continues to work, exactly as with explicit gc().
        let out = n
            .try_on_client_op_outcome(client_msg(
                1,
                (2, 2),
                SeqOp::from_pos(&PosOp::insert(0, "g"), 6),
            ))
            .expect("valid client op");
        assert_eq!(out.broadcast_msgs().len(), 2);
        assert_eq!(n.doc(), "gabcdef");
    }

    /// Both scan modes must produce identical verdicts, documents, and
    /// broadcast stamps over a session with genuine concurrency.
    #[test]
    fn suffix_scan_matches_full_scan_reference() {
        let script: Vec<ClientOpMsg> = vec![
            client_msg(2, (0, 1), SeqOp::from_pos(&PosOp::delete(2, "CDE"), 5)),
            client_msg(1, (0, 1), SeqOp::from_pos(&PosOp::insert(1, "12"), 5)),
            client_msg(3, (1, 1), SeqOp::from_pos(&PosOp::insert(2, "xy"), 2)),
            client_msg(2, (1, 2), SeqOp::from_pos(&PosOp::insert(4, "z"), 4)),
        ];
        let mut fast = Notifier::new(3, "ABCDE");
        let mut slow = Notifier::new(3, "ABCDE");
        slow.set_scan_mode(ScanMode::FullScanReference);
        for msg in script {
            let a = fast
                .try_on_client_op_outcome(msg.clone())
                .expect("valid client op");
            let b = slow.try_on_client_op_outcome(msg).expect("valid client op");
            assert_eq!(a.full_verdicts(), b.full_verdicts());
            assert_eq!(a.concurrent_count(), b.concurrent_count());
            let sa: Vec<_> = a
                .broadcast_msgs()
                .iter()
                .map(|(d, m)| (d.0, m.stamp))
                .collect();
            let sb: Vec<_> = b
                .broadcast_msgs()
                .iter()
                .map(|(d, m)| (d.0, m.stamp))
                .collect();
            assert_eq!(sa, sb);
        }
        assert_eq!(fast.doc(), slow.doc());
        // The reference mode paid a full scan per op; the bounded mode
        // touched no more entries than it (and usually fewer).
        assert_eq!(
            slow.metrics().scan_len_total,
            slow.metrics().concurrency_checks
        );
        assert!(fast.metrics().scan_len_total <= slow.metrics().scan_len_total);
    }

    /// Once clients acknowledge, the bounded scan stops touching the acked
    /// prefix even though the buffer keeps growing (no GC here).
    #[test]
    fn scan_length_is_bounded_by_the_unacked_window() {
        let mut n = Notifier::new(2, "");
        let mut doc_len = 0usize;
        let mut seen = 0u64; // broadcasts site 1 acknowledged
        for k in 0..40u64 {
            // Site 1 sends an op having seen every broadcast so far: the
            // un-acked window is empty at each arrival.
            let op = SeqOp::from_pos(&PosOp::insert(doc_len, "a"), doc_len);
            n.try_on_client_op_outcome(client_msg(1, (seen, k + 1), op))
                .expect("valid client op");
            doc_len += 1;
            // Site 2 interleaves an op acking everything it was sent.
            let op = SeqOp::from_pos(&PosOp::insert(0, "b"), doc_len);
            n.try_on_client_op_outcome(client_msg(2, (k + 1, k + 1), op))
                .expect("valid client op");
            doc_len += 1;
            seen = n.acked_by()[0].max(seen) + 1; // site 1 will have seen site 2's op
        }
        assert_eq!(n.history().len(), 80, "no GC: the buffer keeps everything");
        let m = n.metrics();
        assert_eq!(m.concurrency_checks, (0..80u64).sum::<u64>());
        // Each scan touches only the in-flight window (≤ 2 entries here),
        // not the ever-growing buffer.
        assert!(
            m.scan_len_max <= 4,
            "scan high-water {} should be window-bounded",
            m.scan_len_max
        );
        assert!(m.scan_len_total < m.concurrency_checks / 4);
        assert_eq!(m.hb_high_water, 80);
    }

    #[test]
    fn late_join_gets_snapshot_and_fresh_counters() {
        let mut n = Notifier::new(2, "ab");
        // Two ops happen before the join.
        n.try_on_client_op_outcome(client_msg(
            1,
            (0, 1),
            SeqOp::from_pos(&PosOp::insert(2, "c"), 2),
        ))
        .expect("valid client op");
        n.try_on_client_op_outcome(client_msg(
            2,
            (1, 1),
            SeqOp::from_pos(&PosOp::insert(3, "d"), 3),
        ))
        .expect("valid client op");
        let (site, snapshot) = n.add_client();
        assert_eq!(site, SiteId(3));
        assert_eq!(snapshot, "abcd");
        assert_eq!(n.n_clients(), 3);
        assert_eq!(n.active_clients(), 3);

        // The newcomer's first op is stamped [0,1] — counters start at the
        // join point.
        let out = n
            .try_on_client_op_outcome(client_msg(
                3,
                (0, 1),
                SeqOp::from_pos(&PosOp::insert(4, "e"), 4),
            ))
            .expect("valid client op");
        // Snapshot-era entries are NOT concurrent with it.
        assert_eq!(out.full_verdicts(), vec![false, false]);
        assert_eq!(n.doc(), "abcde");
        // Pre-join entries reconstruct at their narrow width; the
        // newcomer's own entry at the grown width.
        assert_eq!(n.hb_snapshot(0).entries(), &[1, 0]);
        assert_eq!(n.hb_snapshot(1).entries(), &[1, 1]);
        assert_eq!(n.hb_snapshot(2).entries(), &[1, 1, 1]);
        // Broadcasts to the founders use un-shifted stamps...
        let stamps: Vec<(u32, (u64, u64))> = out
            .broadcast_msgs()
            .iter()
            .map(|(d, m)| (d.0, m.stamp.as_pair()))
            .collect();
        assert_eq!(stamps, vec![(1, (2, 1)), (2, (2, 1))]);
        // ...and the next broadcast TO the newcomer counts from its join:
        // an op from site 1 (which has seen 1 broadcast + generated 1 op).
        // Site 1's replica at this point: "ab" + its "c" + broadcast "d"
        // (it has NOT yet seen the newcomer's "e").
        let out = n
            .try_on_client_op_outcome(client_msg(
                1,
                (1, 2),
                SeqOp::from_pos(&PosOp::insert(4, "f"), 4),
            ))
            .expect("valid client op");
        let to_newcomer = out
            .stamps
            .iter()
            .find(|(d, _)| *d == SiteId(3))
            .expect("newcomer gets broadcasts");
        assert_eq!(to_newcomer.1.as_pair(), (1, 1));
    }

    #[test]
    fn genuine_concurrency_with_a_newcomer_is_detected() {
        let mut n = Notifier::new(2, "ab");
        let (site3, snapshot) = n.add_client();
        assert_eq!(snapshot, "ab");
        // Site 1 and the newcomer generate concurrently.
        n.try_on_client_op_outcome(client_msg(
            1,
            (0, 1),
            SeqOp::from_pos(&PosOp::insert(0, "x"), 2),
        ))
        .expect("valid client op");
        let out = n
            .try_on_client_op_outcome(client_msg(
                site3.0,
                (0, 1),
                SeqOp::from_pos(&PosOp::insert(2, "y"), 2),
            ))
            .expect("valid client op");
        assert_eq!(
            out.full_verdicts(),
            vec![true],
            "post-join ops are concurrent"
        );
        assert_eq!(n.doc(), "xaby");
    }

    #[test]
    fn departed_clients_are_rejected_and_skipped() {
        let mut n = Notifier::new(3, "ab");
        n.quarantine(SiteId(2)).expect("a member");
        assert!(!n.is_active(SiteId(2)));
        assert_eq!(n.active_clients(), 2);
        // Ops from the departed site bounce.
        let err = n
            .try_on_client_op_outcome(client_msg(2, (0, 1), SeqOp::identity(2)))
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::ProtocolError::DepartedSite { .. }
        ));
        // Broadcasts skip it.
        let out = n
            .try_on_client_op_outcome(client_msg(
                1,
                (0, 1),
                SeqOp::from_pos(&PosOp::insert(0, "x"), 2),
            ))
            .expect("valid client op");
        let dests: Vec<u32> = out.broadcast_msgs().iter().map(|(d, _)| d.0).collect();
        assert_eq!(dests, vec![3]);
    }

    #[test]
    fn gc_ignores_departed_clients() {
        let mut n = Notifier::new(3, "ab");
        let op = SeqOp::from_pos(&PosOp::insert(2, "c"), 2);
        n.try_on_client_op_outcome(client_msg(1, (0, 1), op))
            .expect("valid client op");
        // Site 3 never acks — but it leaves, so the entry only waits for
        // site 2.
        n.quarantine(SiteId(3)).expect("a member");
        assert_eq!(n.gc(), 0, "site 2 has not acked yet");
        let op2 = SeqOp::from_pos(&PosOp::insert(3, "d"), 3);
        n.try_on_client_op_outcome(client_msg(2, (1, 1), op2))
            .expect("valid client op");
        assert_eq!(n.gc(), 1, "entry 1 is acked by every remaining client");
    }

    /// `replay_for` must return byte-identical stamps and ops for exactly
    /// the suffix of the broadcast stream the client has not received.
    #[test]
    fn replay_reconstructs_unreceived_broadcast_suffix() {
        let mut n = Notifier::new(3, "ab");
        let mut to_site1: Vec<ServerOpMsg> = Vec::new();
        let push_to_1 = |out: NotifierOutcome, to_site1: &mut Vec<ServerOpMsg>| {
            for (d, m) in out.broadcast_msgs() {
                if d == SiteId(1) {
                    to_site1.push(m);
                }
            }
        };
        let o = n
            .try_on_client_op_outcome(client_msg(
                2,
                (0, 1),
                SeqOp::from_pos(&PosOp::insert(2, "c"), 2),
            ))
            .expect("valid client op");
        push_to_1(o, &mut to_site1);
        // Site 1 itself interleaves (its entry is never replayed to it).
        let o = n
            .try_on_client_op_outcome(client_msg(
                1,
                (1, 1),
                SeqOp::from_pos(&PosOp::insert(3, "d"), 3),
            ))
            .expect("valid client op");
        push_to_1(o, &mut to_site1);
        let o = n
            .try_on_client_op_outcome(client_msg(
                3,
                (0, 1),
                SeqOp::from_pos(&PosOp::insert(0, "x"), 2),
            ))
            .expect("valid client op");
        push_to_1(o, &mut to_site1);
        let o = n
            .try_on_client_op_outcome(client_msg(
                2,
                (2, 2),
                SeqOp::from_pos(&PosOp::insert(5, "e"), 5),
            ))
            .expect("valid client op");
        push_to_1(o, &mut to_site1);
        assert_eq!(to_site1.len(), 3, "three non-site-1 ops were broadcast");

        // Site 1 received only the first broadcast before its link died.
        let replay = n.replay_for(SiteId(1), 1).expect("suffix intact");
        assert_eq!(replay.len(), 2);
        for (r, orig) in replay.iter().zip(&to_site1[1..]) {
            assert_eq!(r.stamp, orig.stamp, "replayed stamp must be original");
            assert_eq!(r.op, orig.op);
            assert_eq!(r.cursor, None, "cursor presence is not replayed");
        }
        // Fully caught-up client: nothing to replay.
        assert!(n.replay_for(SiteId(1), 3).unwrap().is_empty());
        // Site 3 acknowledged nothing, so its whole stream comes back.
        assert_eq!(n.replay_for(SiteId(3), 0).unwrap().len(), 3);
    }

    /// Replay respects join offsets (pre-join history is inside the join
    /// snapshot, not the broadcast stream) and survives a GC'd prefix.
    #[test]
    fn replay_respects_join_offsets_and_gc() {
        let mut n = Notifier::new(2, "ab");
        n.try_on_client_op_outcome(client_msg(
            1,
            (0, 1),
            SeqOp::from_pos(&PosOp::insert(2, "c"), 2),
        ))
        .expect("valid client op");
        let (site3, snap) = n.add_client();
        assert_eq!(snap, "abc");
        // Post-join op from site 2 → broadcast position 1 to the newcomer.
        n.try_on_client_op_outcome(client_msg(
            2,
            (1, 1),
            SeqOp::from_pos(&PosOp::insert(3, "d"), 3),
        ))
        .expect("valid client op");
        let replay = n.replay_for(site3, 0).expect("suffix intact");
        assert_eq!(replay.len(), 1, "pre-join entries are not in the stream");
        assert_eq!(replay[0].stamp.as_pair(), (1, 0));

        // GC the fully-acknowledged prefix, then replay still serves the
        // live tail: site 1's entry needs site 2 (acked 1 ≥ 1) and site 3
        // (joined after, position 0 ≤ 0) — it is collectable; site 2's
        // entry waits for acks.
        assert!(n.gc() > 0);
        let replay = n.replay_for(site3, 0).expect("live tail still serves");
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[0].stamp.as_pair(), (1, 0));
    }

    /// A bare client ack advances `acked_by`, prunes the bridge's pending
    /// list, and (under auto-GC) trims the history buffer — the quiet-client
    /// path that op stamps cannot cover.
    #[test]
    fn client_ack_unblocks_gc_for_quiet_clients() {
        let mut n = Notifier::new(2, "ab");
        n.set_auto_gc(true);
        // Site 1 types twice; site 2 stays quiet.
        n.try_on_client_op_outcome(client_msg(
            1,
            (0, 1),
            SeqOp::from_pos(&PosOp::insert(2, "c"), 2),
        ))
        .expect("valid client op");
        n.try_on_client_op_outcome(client_msg(
            1,
            (0, 2),
            SeqOp::from_pos(&PosOp::insert(3, "d"), 3),
        ))
        .expect("valid client op");
        assert_eq!(n.history().len(), 2, "quiet site 2 blocks collection");
        // Site 2 acks both broadcasts without generating anything.
        n.try_on_client_ack(ClientAckMsg {
            origin: SiteId(2),
            received: 2,
        })
        .expect("valid client ack");
        assert_eq!(n.acked_by()[1], 2);
        assert_eq!(n.history().len(), 0, "ack alone unblocked the trim");
        assert_eq!(n.history_trimmed(), 2);
        // The session continues normally afterwards.
        let out = n
            .try_on_client_op_outcome(client_msg(
                2,
                (2, 1),
                SeqOp::from_pos(&PosOp::insert(4, "e"), 4),
            ))
            .expect("valid client op");
        assert_eq!(out.broadcast_msgs().len(), 1);
        assert_eq!(n.doc(), "abcde");
    }

    #[test]
    fn client_ack_validates_origin_and_bound() {
        let mut n = Notifier::new(2, "ab");
        assert!(matches!(
            n.try_on_client_ack(ClientAckMsg {
                origin: SiteId(7),
                received: 0,
            }),
            Err(crate::error::ProtocolError::UnknownSite { .. })
        ));
        assert!(matches!(
            n.try_on_client_ack(ClientAckMsg {
                origin: SiteId(1),
                received: 5,
            }),
            Err(crate::error::ProtocolError::AckOverrun {
                sent: 0,
                acked: 5,
                ..
            })
        ));
        n.quarantine(SiteId(2)).expect("a member");
        assert!(matches!(
            n.try_on_client_ack(ClientAckMsg {
                origin: SiteId(2),
                received: 0,
            }),
            Err(crate::error::ProtocolError::DepartedSite { .. })
        ));
    }

    /// A client restored from a stale backup presents a `received` below
    /// what it once acknowledged; the trimmed prefix is unrecoverable and
    /// the typed error (not silent garbage) reports it.
    #[test]
    fn replay_into_trimmed_prefix_is_a_typed_error() {
        let mut n = Notifier::new(2, "ab");
        n.set_auto_gc(true);
        n.try_on_client_op_outcome(client_msg(
            1,
            (0, 1),
            SeqOp::from_pos(&PosOp::insert(2, "c"), 2),
        ))
        .expect("valid client op");
        // Site 2 acks the broadcast; the entry is trimmed.
        n.try_on_client_ack(ClientAckMsg {
            origin: SiteId(2),
            received: 1,
        })
        .expect("valid client ack");
        assert_eq!(n.history_trimmed(), 1);
        // Honest resync (received = 1): nothing to replay, fine.
        assert!(n.replay_for(SiteId(2), 1).unwrap().is_empty());
        // Stale-backup resync (received = 0): the prefix is gone.
        let err = n.replay_for(SiteId(2), 0).unwrap_err();
        assert!(matches!(
            err,
            crate::error::ProtocolError::ReplayTrimmed {
                needed_from: 1,
                available_from: 2,
                ..
            }
        ));
    }

    #[test]
    fn unknown_origin_is_rejected() {
        let mut n = Notifier::new(2, "");
        let err = n
            .try_on_client_op_outcome(client_msg(7, (0, 1), SeqOp::identity(0)))
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::ProtocolError::UnknownSite { .. }
        ));
    }

    #[test]
    fn fifo_gap_from_client_is_rejected() {
        let mut n = Notifier::new(2, "ab");
        // First op from site 1 must carry T[2] = 1; a gap (T[2] = 2) means
        // a message was lost or reordered.
        let err = n
            .try_on_client_op_outcome(client_msg(1, (0, 2), SeqOp::identity(2)))
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::ProtocolError::FifoViolation {
                expected: 1,
                got: 2,
                ..
            }
        ));
    }

    #[test]
    fn ack_overrun_from_client_is_rejected() {
        let mut n = Notifier::new(2, "ab");
        // Site 1 claims to have received 3 server ops; none were sent.
        let err = n
            .try_on_client_op_outcome(client_msg(1, (3, 1), SeqOp::identity(2)))
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::ProtocolError::AckOverrun {
                sent: 0,
                acked: 3,
                ..
            }
        ));
    }
}
