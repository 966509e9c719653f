//! The client-site state machine of the star/CVC deployment.
//!
//! A [`Client`] is one "REDUCE applet" of the paper's Fig. 1: it holds a
//! replica of the shared document, a 2-element compressed state vector, a
//! history buffer of executed operations, and the bridge that reconciles
//! its stream with the notifier's.
//!
//! It is a *pure state machine*: [`Client::local_edit`] returns the message
//! to propagate and [`Client::on_server_op`] consumes a delivered message —
//! the caller (simulator node wrapper, scripted scenario, or test) moves
//! the messages. This keeps the paper's worked example drivable with exact
//! control over arrival orders.
//!
//! Every remote integration runs the paper's concurrency check (formula
//! (5)) over the history buffer *and* the bridge's sequence arithmetic, and
//! asserts they select the same concurrent set — the two formulations are
//! equivalent, and the engine checks that equivalence on every single
//! operation it processes.

use crate::bridge::{Bridge, BridgeError, BridgeRole};
use crate::error::ProtocolError;
use crate::metrics::SiteMetrics;
use crate::msg::{ClientAckMsg, ClientOpMsg, ServerOpMsg};
use crate::recorder::{EventKind, FlightEvent, FlightRecorder, NO_SITE};
use cvc_core::formulas::formula5_client;
use cvc_core::site::SiteId;
use cvc_core::state_vector::{ClientStateVector, CompressedStamp};
use cvc_core::timestamp::OriginAtClient;
use cvc_ot::buffer::TextBuffer;
use cvc_ot::cursor::{transform_cursor, Bias};
use cvc_ot::pos::PosOp;
use cvc_ot::seq::SeqOp;
use cvc_ot::stack::OpStack;

/// Undo depth retained per client: each local operation keeps its
/// current-frame inverse until this many newer ones exist (typical editor
/// depth; bounds both memory and the per-op stack-maintenance cost).
pub const MAX_UNDO_DEPTH: usize = 100;

/// How many server operations a *quiet* client may execute before it owes
/// the notifier a bare [`ClientAckMsg`]. Actively-editing clients never
/// send one — every local operation already carries the acknowledgement in
/// `T[1]` — so this only bounds the GC lag introduced by idle observers.
///
/// The interval trades frames for retention. Each quiet site sends
/// `1 / ACK_INTERVAL` bare-ack frames per broadcast it receives (a
/// socket write, a server read and a WAL ack record each); in exchange
/// it pins at most the in-flight window + `ACK_INTERVAL` entries of the
/// notifier's history buffer. A live reconnect replays exactly what the
/// site missed; a replica restored from an older copy is still caught up
/// by replay down to its last ack, so that catch-up can be up to
/// `ACK_INTERVAL − 1` operations longer.
pub const ACK_INTERVAL: u64 = 64;

/// One executed operation remembered in a client's history buffer,
/// timestamped per Section 3.3 ("a buffered operation is timestamped with
/// its original 2-element propagation timestamp").
///
/// Formula (5), [`Client::gc`] and the star audit read only the stamp and
/// the origin. Only a local operation is ever read back — it is re-sent
/// on reconnect — so only a local entry keeps the operation.
#[derive(Debug, Clone, Hash)]
pub struct ClientHbEntry {
    /// The 2-element stamp the operation carried.
    pub stamp: CompressedStamp,
    /// Local operation or one propagated from the notifier.
    pub origin: OriginAtClient,
    /// A local operation as generated; `None` for one from the notifier.
    pub op: Option<SeqOp>,
}

/// A collaborating client site (site `i ≠ 0`).
#[derive(Debug, Clone)]
pub struct Client {
    site: SiteId,
    sv: ClientStateVector,
    doc: TextBuffer,
    bridge: Bridge,
    hb: Vec<ClientHbEntry>,
    /// Highest `T[2]` seen on a server op: the notifier has integrated our
    /// local operations up to this sequence number.
    acked_local: u64,
    /// Highest received-count this client has *told* the notifier about —
    /// via `T[1]` of a local operation, a bare [`ClientAckMsg`], or the
    /// resync handshake. Drives [`Client::take_pending_ack`].
    last_ack_sent: u64,
    /// Inverses of this site's not-yet-undone local operations, each kept
    /// transformed into the *current* document frame (updated on every
    /// executed operation). Independent of the history buffer, so undo
    /// composes with garbage collection. Capped at [`MAX_UNDO_DEPTH`]:
    /// the oldest entry drops.
    undo_stack: OpStack,
    /// Inverses of undos (redo candidates), maintained the same way;
    /// cleared by any fresh local edit, as in conventional editors.
    redo_stack: OpStack,
    /// This user's caret position (drives the telepointer we send).
    caret: usize,
    /// Whether local operations carry the caret (telepointer presence).
    share_caret: bool,
    /// Last known caret of each remote user, in this replica's frame, in
    /// the order the users were first seen. Every execute moves every
    /// caret, so a linear lookup costs nothing extra.
    remote_carets: Vec<(u32, usize)>,
    metrics: SiteMetrics,
    recorder: FlightRecorder,
}

/// A replica's protocol state, for a search's memo: every field but its
/// metrics and recorder — its history with stamps, its bridge, its undo
/// stacks — hashed as it is, and its document by its checksum. Every
/// field is named, so a new one does not compile until it is hashed or
/// waived.
impl std::hash::Hash for Client {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        let Client {
            site,
            sv,
            doc,
            bridge,
            hb,
            acked_local,
            last_ack_sent,
            undo_stack,
            redo_stack,
            caret,
            share_caret,
            remote_carets,
            metrics: _,
            recorder: _,
        } = self;
        (site, sv, bridge, hb, acked_local, last_ack_sent).hash(h);
        (undo_stack, redo_stack, caret, share_caret, remote_carets).hash(h);
        doc.checksum().hash(h);
    }
}

impl Client {
    /// A client for `site` starting from the shared `initial` document.
    pub fn new(site: SiteId, initial: &str) -> Self {
        assert!(!site.is_notifier(), "clients cannot be site 0");
        Client {
            site,
            sv: ClientStateVector::new(),
            doc: TextBuffer::from_str(initial),
            bridge: Bridge::new(BridgeRole::Client),
            hb: Vec::new(),
            acked_local: 0,
            last_ack_sent: 0,
            undo_stack: OpStack::new(MAX_UNDO_DEPTH),
            redo_stack: OpStack::new(MAX_UNDO_DEPTH),
            caret: 0,
            share_caret: true,
            remote_carets: Vec::new(),
            metrics: SiteMetrics::new(),
            recorder: FlightRecorder::new(site),
        }
    }

    /// Enable or disable the flight recorder (disabled by default).
    pub fn set_flight_recorder(&mut self, on: bool) {
        self.recorder.set_enabled(on);
    }

    /// Resize the recorder ring (before enabling; see
    /// [`FlightRecorder::set_capacity`]).
    pub fn set_flight_recorder_capacity(&mut self, capacity: usize) {
        self.recorder.set_capacity(capacity);
    }

    /// This site's flight recorder (read-only access to the event ring).
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

    /// Human-readable dump of the retained flight-recorder window.
    pub fn dump_recorder(&self) -> String {
        self.recorder.dump()
    }

    /// This site's id.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Current document content, materialised from the gap buffer. Use
    /// [`Client::doc_checksum`] for cheap equality comparisons.
    pub fn doc(&self) -> String {
        self.doc.to_string()
    }

    /// FNV-1a checksum of the document — O(d) but allocation-free.
    pub fn doc_checksum(&self) -> u64 {
        self.doc.checksum()
    }

    /// Current state vector (`SV_i`).
    pub fn state_vector(&self) -> ClientStateVector {
        self.sv
    }

    /// History buffer (`HB_i`).
    pub fn history(&self) -> &[ClientHbEntry] {
        &self.hb
    }

    /// Cost counters.
    pub fn metrics(&self) -> &SiteMetrics {
        &self.metrics
    }

    /// This user's caret position.
    pub fn caret(&self) -> usize {
        self.caret
    }

    /// Enable/disable telepointer presence on outgoing operations
    /// (enabled by default; costs ~2 bytes per message). The byte-exact
    /// overhead experiments turn it off to measure the paper's bare
    /// protocol.
    pub fn set_share_caret(&mut self, on: bool) {
        self.share_caret = on;
    }

    /// Last known remote carets `(site id, position)`, in this replica's
    /// current frame, in the order their users were first seen.
    pub fn remote_carets(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.remote_carets.iter().copied()
    }

    /// Document length in characters.
    pub fn doc_len(&self) -> usize {
        self.doc.len()
    }

    /// Generate and execute a local operation; returns the timestamped
    /// message to send to the notifier.
    ///
    /// # Panics
    /// Panics if `op` does not fit the current document; use
    /// [`Client::try_local_edit`] to handle that as an error.
    pub fn local_edit(&mut self, op: SeqOp) -> ClientOpMsg {
        self.try_local_edit(op)
            .expect("local operation must fit the current document")
    }

    /// Fallible form of [`Client::local_edit`]: the operation is validated
    /// against the current document **before** any state is touched, so a
    /// rejected edit leaves the replica — including the redo chain, caret,
    /// and clocks — exactly as it was.
    pub fn try_local_edit(&mut self, op: SeqOp) -> Result<ClientOpMsg, ProtocolError> {
        self.try_local_edit_inner(op, UndoKind::Fresh)
    }

    fn try_local_edit_inner(
        &mut self,
        op: SeqOp,
        kind: UndoKind,
    ) -> Result<ClientOpMsg, ProtocolError> {
        // Validation gate: computing the inverse checks the op against the
        // current document, and `apply_to_buffer` refuses invalid ops
        // without partial mutation. Nothing else may change before both
        // succeed — clearing the redo chain on an edit that then bounces
        // would lose the user's redo history for nothing.
        let inverse = op
            .invert_in(&self.doc)
            .map_err(ProtocolError::BadOperation)?;
        op.apply_to_buffer(&mut self.doc)
            .map_err(ProtocolError::BadOperation)?;
        if kind == UndoKind::Fresh {
            // A fresh edit invalidates the redo chain (standard editor rule).
            self.redo_stack.clear();
        }
        // Our caret rides our own edit; remote carets shift around it.
        self.caret = transform_cursor(self.caret, &op, Bias::After);
        for (_, c) in &mut self.remote_carets {
            *c = transform_cursor(*c, &op, Bias::Before);
        }
        // Rule 3: executing a local op bumps SV_i[2]; the *current* value
        // then timestamps the op.
        self.sv.record_local();
        let stamp = self.sv.stamp();
        if self.recorder.is_enabled() {
            self.recorder.record(
                FlightEvent::new(EventKind::Generate)
                    .with_op(self.site.0, stamp.get(2))
                    .with_stamp(stamp)
                    .with_detail(match kind {
                        UndoKind::Fresh => "edit",
                        UndoKind::Undo => "undo",
                        UndoKind::Redo => "redo",
                    }),
            );
        }
        let seq = self.bridge.record_send(op.clone());
        debug_assert_eq!(
            seq,
            stamp.get(2),
            "bridge sequence must equal SV_i[2] (paper Section 3.3)"
        );
        for stack in [&mut self.undo_stack, &mut self.redo_stack] {
            stack.ride(&op).expect("stack rides local ops");
        }
        match kind {
            UndoKind::Fresh | UndoKind::Redo => self.undo_stack.push(inverse),
            UndoKind::Undo => self.redo_stack.push(inverse),
        }
        self.hb.push(ClientHbEntry {
            stamp,
            origin: OriginAtClient::Local,
            op: Some(op.clone()),
        });
        self.metrics.ops_generated += 1;
        self.metrics.messages_sent += 1;
        self.metrics.stamp_integers_sent += 2;
        // `T[1]` of a local operation acknowledges everything received so
        // far — no bare ack is owed until the next quiet stretch.
        self.last_ack_sent = stamp.get(1);
        let msg = ClientOpMsg {
            origin: self.site,
            stamp,
            op,
            cursor: self.share_caret.then_some(self.caret as u64),
        };
        // Wrap for byte accounting, then unwrap the same value back —
        // avoids cloning the payload twice per edit just to measure it.
        let wire = crate::msg::EditorMsg::ClientOp(msg);
        self.metrics.stamp_bytes_sent += wire.stamp_bytes() as u64;
        self.metrics.bytes_sent += cvc_sim::wire::WireSize::wire_bytes(&wire) as u64;
        let crate::msg::EditorMsg::ClientOp(msg) = wire else {
            unreachable!("wrapped above")
        };
        if self.recorder.is_enabled() {
            self.recorder.record(
                FlightEvent::new(EventKind::Send)
                    .with_op(self.site.0, stamp.get(2))
                    .with_stamp(stamp)
                    .with_detail("client-op"),
            );
        }
        Ok(msg)
    }

    /// Convenience: insert `text` at character position `pos` (the caret
    /// lands after the inserted text).
    pub fn insert(&mut self, pos: usize, text: &str) -> ClientOpMsg {
        self.caret = pos;
        let op = SeqOp::from_pos(&PosOp::insert(pos, text), self.doc_len());
        self.local_edit(op)
    }

    /// Convenience: delete `count` characters from position `pos`.
    pub fn delete(&mut self, pos: usize, count: usize) -> ClientOpMsg {
        self.caret = pos;
        assert!(pos + count <= self.doc.len(), "delete range out of bounds");
        let text = self.doc.slice(pos, count);
        let op = SeqOp::from_pos(&PosOp::delete(pos, text), self.doc_len());
        self.local_edit(op)
    }

    /// Undo this site's most recent not-yet-undone local operation
    /// (beyond-paper extension; the user-level undo the REDUCE lineage
    /// later developed as ANYUNDO).
    ///
    /// The inverse of each local operation is captured at execution time
    /// and kept inclusion-transformed into the **current** document frame
    /// as later operations (local or remote) execute — so undoing cancels
    /// exactly the *surviving* effect of the original, even when remote
    /// edits landed in between. The undo is issued as an ordinary local
    /// operation: timestamping, propagation, and convergence need nothing
    /// new, and the undo itself can be undone (redo). Works with
    /// [`Client::gc`] enabled (the stack is independent of the history
    /// buffer).
    ///
    /// Returns the message to send, or `None` when there is nothing to
    /// undo (or the target's effect was already entirely cancelled).
    pub fn undo_last_local(&mut self) -> Option<ClientOpMsg> {
        let undo_op = self.undo_stack.pop()?;
        if undo_op.is_noop() {
            return None;
        }
        // The undo is itself a local op; its inverse lands on the redo
        // stack (not back on the undo stack — "undo everything" must
        // terminate).
        Some(
            self.try_local_edit_inner(undo_op, UndoKind::Undo)
                .expect("undo inverse is kept transformed into the current frame"),
        )
    }

    /// Re-apply the most recently undone operation (transformed to the
    /// current frame). Any fresh local edit clears the redo chain.
    pub fn redo_last(&mut self) -> Option<ClientOpMsg> {
        let redo_op = self.redo_stack.pop()?;
        if redo_op.is_noop() {
            return None;
        }
        Some(
            self.try_local_edit_inner(redo_op, UndoKind::Redo)
                .expect("redo candidate is kept transformed into the current frame"),
        )
    }

    /// Garbage-collect history-buffer entries that can never again be
    /// judged concurrent with a future server operation.
    ///
    /// Two facts bound the useful history at a client (both direct reads
    /// of formula (5) under FIFO):
    ///
    /// * an entry that *came from the notifier* is causally before every
    ///   future server op, so it is dead the moment it is buffered;
    /// * a *local* entry with sequence number `s` is dead once some server
    ///   op carried `T[2] ≥ s` — every later server op carries a
    ///   monotonically non-decreasing `T[2]`.
    ///
    /// The live working set is therefore exactly the bridge's pending
    /// list: a client's memory is bounded by its in-flight operations, not
    /// by session length. Returns the number of entries collected.
    /// Note: collection renumbers [`Client::history`] indices, so callers
    /// correlating [`ClientIntegration::checked`] with entries must not
    /// collect between integration and inspection.
    pub fn gc(&mut self) -> usize {
        let before = self.hb.len();
        let acked = self.acked_local;
        self.hb
            .retain(|e| e.origin == OriginAtClient::Local && e.stamp.get(2) > acked);
        let collected = before - self.hb.len();
        if collected > 0 && self.recorder.is_enabled() {
            self.recorder.record(
                FlightEvent::new(EventKind::GcTrim)
                    .with_op(self.site.0, 0)
                    .with_ab(collected as u64, acked)
                    .with_detail("client-gc"),
            );
        }
        collected
    }

    /// Reconstruct the propagation messages for this site's local
    /// operations with sequence number (`T[2]`) greater than `after` — the
    /// resend set of a reconnect resync, where `after` is the count of our
    /// operations the notifier reported having received.
    ///
    /// The history buffer stores each local operation in its original
    /// frame with its original stamp, so the reconstructed messages are
    /// identical to the first transmission (minus the ephemeral cursor).
    /// [`Client::gc`] never collects them: it only discards local entries
    /// the notifier acknowledged, and the notifier cannot have
    /// acknowledged more than it received.
    pub fn unacked_local_since(&self, after: u64) -> Vec<ClientOpMsg> {
        debug_assert!(
            after >= self.acked_local,
            "the notifier cannot have received less than it acknowledged"
        );
        self.hb
            .iter()
            .filter(|e| e.origin == OriginAtClient::Local && e.stamp.get(2) > after)
            .filter_map(|e| {
                Some(ClientOpMsg {
                    origin: self.site,
                    stamp: e.stamp,
                    op: e.op.clone()?,
                    cursor: None,
                })
            })
            .collect()
    }

    /// The frontier this client presents when it says hello again, given
    /// that the notifier has integrated at least its first `integrated`
    /// operations: its `T[1]`, held back to the `T[1]` of its oldest local
    /// operation past that count. A hello integrates like an ack, and an
    /// ack past that stamp would let the notifier prune the broadcasts the
    /// operation transforms against when it is re-sent, if it was never
    /// integrated — everything the site sent before it acknowledged no
    /// more. The replay then repeats what the replica executed past the
    /// frontier; the caller skips those. With the true count the frontier
    /// is exact: no higher than any re-sent stamp, no lower than anything
    /// the notifier may have collected.
    pub fn hello_frontier(&self, integrated: u64) -> u64 {
        let after = integrated.max(self.acked_local);
        self.hb
            .iter()
            .find(|e| e.origin == OriginAtClient::Local && e.stamp.get(2) > after)
            .map_or(self.sv.received(), |e| e.stamp.get(1))
    }

    /// The document length a notifier operation acknowledging `acked` of
    /// this site's ops consumes: the base of the first local op it had not
    /// seen, or the current document ([`Bridge::peer_base_len`]).
    fn base_for(&self, acked: u64) -> usize {
        self.bridge
            .peer_base_len(acked)
            .unwrap_or_else(|| self.doc.len())
    }

    /// `msg` as [`Client::try_on_server_op`] would integrate it now: its
    /// op closed on the base that door closes it on. An op the door would
    /// refuse comes back as it arrived. How a driver records the ops it
    /// integrates whole, though they arrive without their tail.
    pub fn closed(&self, msg: &ServerOpMsg) -> ServerOpMsg {
        let mut msg = msg.clone();
        let _ = msg.op.close_to(self.base_for(msg.stamp.get(2)));
        msg
    }

    /// Integrate an operation propagated from the notifier, detecting
    /// broken FIFO assumptions before they can corrupt the replica.
    ///
    /// The compressed stamps make the checks cheap: a server op must carry
    /// `T[1]` exactly one past the operations received so far (the
    /// notifier's stream to this client is sequential), and can never ack
    /// more local operations than were generated. A rejected message
    /// leaves the replica untouched (beyond the violation counter and a
    /// flight-recorder [`EventKind::Error`] event).
    pub fn try_on_server_op(
        &mut self,
        msg: ServerOpMsg,
    ) -> Result<ClientIntegration, ProtocolError> {
        let stamp = msg.stamp;
        if self.recorder.is_enabled() {
            self.recorder.record(
                FlightEvent::new(EventKind::Deliver)
                    .with_op(NO_SITE, stamp.get(1))
                    .with_stamp(stamp)
                    .with_detail("server-op"),
            );
        }
        match self.integrate_server_op(msg) {
            Ok(out) => Ok(out),
            Err(e) => {
                self.metrics.protocol_errors += 1;
                if self.recorder.is_enabled() {
                    self.recorder.record(
                        FlightEvent::new(EventKind::Error)
                            .with_op(NO_SITE, stamp.get(1))
                            .with_stamp(stamp)
                            .with_detail(e.kind_name()),
                    );
                }
                Err(e)
            }
        }
    }

    fn integrate_server_op(
        &mut self,
        mut msg: ServerOpMsg,
    ) -> Result<ClientIntegration, ProtocolError> {
        let expected = self.sv.received() + 1;
        if msg.stamp.get(1) != expected {
            return Err(ProtocolError::FifoViolation {
                site: self.site,
                expected,
                got: msg.stamp.get(1),
            });
        }
        if msg.stamp.get(2) > self.sv.generated() {
            return Err(ProtocolError::AckOverrun {
                site: self.site,
                sent: self.sv.generated(),
                acked: msg.stamp.get(2),
            });
        }
        // The op arrives without its trailing retain: close it on the base
        // it must consume. One reaching past that base can only fail — in
        // the bridge's first transform, after it dropped the acknowledged
        // prefix, or at execution, after it counted the op. Refuse it here,
        // where the promise that a rejected message leaves the replica
        // untouched is cheap to keep; past this check nothing below can
        // fail.
        msg.op
            .close_to(self.base_for(msg.stamp.get(2)))
            .map_err(ProtocolError::BadOperation)?;
        // Paper concurrency check (formula (5)) over the whole HB.
        let mut checked = Vec::with_capacity(self.hb.len());
        let mut concurrent_local = 0usize;
        for entry in &self.hb {
            let verdict = formula5_client(msg.stamp, entry.stamp, entry.origin);
            checked.push(verdict);
            if verdict {
                debug_assert_eq!(
                    entry.origin,
                    OriginAtClient::Local,
                    "only local ops can be concurrent with a server op at a client"
                );
                concurrent_local += 1;
            }
        }
        self.metrics.concurrency_checks += checked.len() as u64;
        self.metrics.concurrent_verdicts += concurrent_local as u64;
        if self.recorder.is_enabled() {
            // One Transform event per formula (5) check. The checked
            // entry is identified by origin: local ops by (site, T[2]),
            // notifier ops — whose generation identity this client cannot
            // know — by NO_SITE plus their stream position T[1] (the
            // audit replayer resolves positions via Broadcast events).
            for (entry, &verdict) in self.hb.iter().zip(&checked) {
                let (a, b) = match entry.origin {
                    OriginAtClient::FromNotifier => (u64::from(NO_SITE), entry.stamp.get(1)),
                    OriginAtClient::Local => (u64::from(self.site.0), entry.stamp.get(2)),
                };
                self.recorder.record(
                    FlightEvent::new(EventKind::Transform)
                        .with_op(NO_SITE, msg.stamp.get(1))
                        .with_stamp(msg.stamp)
                        .with_ab(a, b)
                        .with_flag(verdict)
                        .with_detail("formula5"),
                );
            }
        }

        // Bridge integration: ops acked by T_O[2] = SV_0[i] are causal
        // context; the rest are the concurrent set. The author's caret
        // rides the same transform chain.
        let (integrated, remote_cursor) = self
            .bridge
            .integrate_with_cursor(
                msg.op,
                msg.stamp.get(2),
                msg.cursor.map(|(_, c)| c as usize),
            )
            .map_err(|e| match e {
                BridgeError::AckOverrun { sent, acked } => ProtocolError::AckOverrun {
                    site: self.site,
                    sent,
                    acked,
                },
                BridgeError::Transform(e) => ProtocolError::BadOperation(e),
            })?;
        debug_assert_eq!(
            integrated.concurrent_with, concurrent_local,
            "formula (5) and bridge pruning must select the same concurrent set"
        );
        self.metrics.transforms += integrated.concurrent_with as u64;

        integrated
            .op
            .apply_to_buffer(&mut self.doc)
            .map_err(ProtocolError::BadOperation)?;
        for stack in [&mut self.undo_stack, &mut self.redo_stack] {
            stack
                .ride(&integrated.op)
                .map_err(ProtocolError::BadOperation)?;
        }
        // Rule 2: executing a notifier op bumps SV_i[1].
        self.sv.record_from_notifier();
        self.acked_local = self.acked_local.max(msg.stamp.get(2));
        // Presence: every caret shifts under the executed remote op; the
        // author's caret takes the transported one instead.
        self.caret = transform_cursor(self.caret, &integrated.op, Bias::Before);
        let mut author = msg
            .cursor
            .zip(remote_cursor)
            .map(|((owner, _), pos)| (owner, pos));
        for (site, c) in &mut self.remote_carets {
            *c = match author {
                Some((owner, pos)) if owner == *site => {
                    author = None;
                    pos
                }
                _ => transform_cursor(*c, &integrated.op, Bias::Before),
            };
        }
        self.remote_carets.extend(author);
        self.hb.push(ClientHbEntry {
            stamp: msg.stamp,
            origin: OriginAtClient::FromNotifier,
            op: None,
        });
        self.metrics.ops_executed_remote += 1;
        if self.recorder.is_enabled() {
            let sv = self.sv.stamp();
            self.recorder.record(
                FlightEvent::new(EventKind::Execute)
                    .with_op(NO_SITE, msg.stamp.get(1))
                    .with_stamp(msg.stamp)
                    .with_ab(concurrent_local as u64, 0)
                    .with_vector(&[sv.get(1), sv.get(2)]),
            );
        }
        Ok(ClientIntegration {
            executed: integrated.op,
            checked,
        })
    }

    /// Bare acknowledgement owed to the notifier, if any.
    ///
    /// Local operations acknowledge received server operations implicitly
    /// through `T[1]`, so an actively-editing client never owes one. A
    /// *quiet* client, however, would silently starve the notifier's
    /// garbage collector: its `acked_by` entry pins the trim watermark
    /// forever. This returns a [`ClientAckMsg`] once the client has
    /// executed [`ACK_INTERVAL`] server operations it has not yet told the
    /// notifier about; callers should send it like any other message.
    pub fn take_pending_ack(&mut self) -> Option<ClientAckMsg> {
        let received = self.sv.received();
        if received < self.last_ack_sent + ACK_INTERVAL {
            return None;
        }
        self.last_ack_sent = received;
        let msg = ClientAckMsg {
            origin: self.site,
            received,
        };
        if self.recorder.is_enabled() {
            self.recorder.record(
                FlightEvent::new(EventKind::Ack)
                    .with_op(self.site.0, 0)
                    .with_ab(received, 0)
                    .with_detail("bare-ack"),
            );
        }
        self.metrics.acks_sent += 1;
        self.metrics.ack_bytes_sent +=
            cvc_sim::wire::WireSize::wire_bytes(&crate::msg::EditorMsg::ClientAck(msg)) as u64;
        Some(msg)
    }

    /// Rebuild this replica wholesale from a notifier snapshot — the
    /// last-resort recovery behind [`ProtocolError::ReplayTrimmed`].
    ///
    /// `sent_to_site` is the notifier's count of operations sent to this
    /// client and `received_from_site` its count of operations integrated
    /// *from* it; the snapshot `doc` reflects both. Any local operations
    /// beyond `received_from_site` are abandoned (they may never have
    /// reached the notifier), as are the undo/redo chains and remote
    /// carets — this path only triggers for a replica already known to be
    /// unrecoverable by replay.
    pub fn adopt_snapshot(&mut self, doc: &str, sent_to_site: u64, received_from_site: u64) {
        self.doc = TextBuffer::from_str(doc);
        self.sv = ClientStateVector::from_parts(sent_to_site, received_from_site);
        self.bridge = Bridge::resume(
            BridgeRole::Client,
            received_from_site,
            sent_to_site,
            Default::default(),
        );
        self.hb.clear();
        self.acked_local = received_from_site;
        self.last_ack_sent = sent_to_site;
        self.undo_stack.clear();
        self.redo_stack.clear();
        self.caret = self.caret.min(self.doc.len());
        self.remote_carets.clear();
        self.metrics.resyncs += 1;
    }
}

/// How a local operation relates to the undo machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UndoKind {
    /// An ordinary user edit.
    Fresh,
    /// An undo: its inverse becomes a redo candidate.
    Undo,
    /// A redo: its inverse goes back on the undo stack.
    Redo,
}

/// Outcome of integrating one server operation at a client.
#[derive(Debug, Clone)]
pub struct ClientIntegration {
    /// The executed (transformed) form of the arriving operation.
    pub executed: SeqOp,
    /// Formula (5) verdict per history-buffer entry (index-aligned with
    /// [`Client::history`] *before* the new operation was appended).
    pub checked: Vec<bool>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_edit_stamps_follow_the_paper() {
        let mut c = Client::new(SiteId(2), "ABCDE");
        // Fig. 3: O2 at site 2 is stamped [0,1].
        let msg = c.delete(2, 3);
        assert_eq!(msg.stamp.as_pair(), (0, 1));
        assert_eq!(c.doc(), "AB");
        assert_eq!(c.history().len(), 1);
        assert_eq!(c.state_vector().stamp().as_pair(), (0, 1));
    }

    #[test]
    fn server_op_without_concurrency_applies_verbatim() {
        let mut c = Client::new(SiteId(3), "ABCDE");
        // Fig. 3: O2' arrives at site 3 (empty HB) stamped [1,0].
        let op = SeqOp::from_pos(&PosOp::delete(2, "CDE"), 5);
        let outcome = c
            .try_on_server_op(ServerOpMsg {
                stamp: CompressedStamp::new(1, 0),
                op: op.clone(),
                cursor: None,
            })
            .expect("valid server op");
        assert_eq!(outcome.executed, op);
        assert!(outcome.checked.is_empty());
        assert_eq!(c.doc(), "AB");
        assert_eq!(c.state_vector().stamp().as_pair(), (1, 0));
        assert_eq!(c.metrics().transforms, 0);
    }

    #[test]
    fn concurrent_server_op_is_transformed() {
        // The paper's site-1 walkthrough: O1 = Insert["12",1] local, then
        // O2' = Delete[3,2] arrives stamped [1,0].
        let mut c = Client::new(SiteId(1), "ABCDE");
        let m = c.insert(1, "12");
        assert_eq!(m.stamp.as_pair(), (0, 1));
        assert_eq!(c.doc(), "A12BCDE");
        let o2 = SeqOp::from_pos(&PosOp::delete(2, "CDE"), 5);
        c.try_on_server_op(ServerOpMsg {
            stamp: CompressedStamp::new(1, 0),
            op: o2,
            cursor: None,
        })
        .expect("valid server op");
        assert_eq!(c.doc(), "A12B", "intention-preserved result");
        assert_eq!(c.metrics().transforms, 1);
        assert_eq!(c.metrics().concurrent_verdicts, 1);
        assert_eq!(c.history().len(), 2);
    }

    #[test]
    fn metrics_count_stamp_overhead() {
        let mut c = Client::new(SiteId(1), "");
        c.insert(0, "hello");
        let m = c.metrics();
        assert_eq!(m.messages_sent, 1);
        assert_eq!(m.stamp_integers_sent, 2);
        assert!(m.stamp_bytes_sent >= 2);
        assert!(m.bytes_sent > m.stamp_bytes_sent);
    }

    #[test]
    fn fifo_gap_is_detected() {
        let mut c = Client::new(SiteId(1), "ab");
        // First server op must carry T[1] = 1.
        let err = c
            .try_on_server_op(ServerOpMsg {
                stamp: CompressedStamp::new(2, 0),
                op: SeqOp::identity(2),
                cursor: None,
            })
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::ProtocolError::FifoViolation {
                expected: 1,
                got: 2,
                ..
            }
        ));
        // Replay/regression (T[1] = 0 after nothing) also rejected.
        let err = c
            .try_on_server_op(ServerOpMsg {
                stamp: CompressedStamp::new(0, 0),
                op: SeqOp::identity(2),
                cursor: None,
            })
            .unwrap_err();
        assert!(matches!(
            err,
            crate::error::ProtocolError::FifoViolation { .. }
        ));
    }

    #[test]
    fn ack_overrun_is_detected() {
        let mut c = Client::new(SiteId(1), "ab");
        let err = c
            .try_on_server_op(ServerOpMsg {
                stamp: CompressedStamp::new(1, 3),
                op: SeqOp::identity(2),
                cursor: None,
            })
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

    /// A server op the client rejects — here for a payload on the wrong
    /// base — leaves it exactly as it was but for the violation counter:
    /// not counted by the bridge, and the acknowledged pending prefix not
    /// dropped on its say-so.
    #[test]
    fn rejected_server_op_leaves_the_client_untouched() {
        let image =
            |c: &Client| format!("{c:?}").replace("protocol_errors: 1", "protocol_errors: 0");
        for pending in [0usize, 2] {
            let mut c = Client::new(SiteId(1), "abcd");
            for k in 0..pending {
                c.insert(k, "p");
            }
            let mut twin = c.clone();
            // The notifier has seen the first pending op, if there is one.
            let acked = (pending as u64).min(1);
            let base = 4 + acked as usize;
            let server_op = |op| ServerOpMsg {
                stamp: CompressedStamp::new(1, acked),
                op,
                cursor: None,
            };
            let before = image(&c);
            let err = c
                .try_on_server_op(server_op(SeqOp::identity(base + 3)))
                .unwrap_err();
            assert!(matches!(err, ProtocolError::BadOperation(_)), "{err:?}");
            assert_eq!(c.metrics().protocol_errors, 1);
            assert_eq!(image(&c), before, "{pending} pending");
            // The stream continues as if the bad message had never come.
            let right = SeqOp::from_pos(&PosOp::insert(0, "s"), base);
            c.try_on_server_op(server_op(right.clone())).expect("valid");
            twin.try_on_server_op(server_op(right)).expect("valid");
            assert_eq!(image(&c), image(&twin), "{pending} pending");
        }
    }

    #[test]
    fn gc_keeps_only_unacked_local_ops() {
        let mut c = Client::new(SiteId(1), "abc");
        c.insert(0, "x"); // local #1
        c.insert(0, "y"); // local #2
                          // Server op acking local #1.
                          // Its frame: the 3 initial chars plus the acked local #1.
        c.try_on_server_op(ServerOpMsg {
            stamp: CompressedStamp::new(1, 1),
            op: SeqOp::identity(4),
            cursor: None,
        })
        .expect("valid server op");
        assert_eq!(c.history().len(), 3);
        let collected = c.gc();
        // The server entry and local #1 die; local #2 survives.
        assert_eq!(collected, 2);
        assert_eq!(c.history().len(), 1);
        assert_eq!(c.history()[0].stamp.as_pair(), (0, 2));
        // Integration still works after collection.
        c.try_on_server_op(ServerOpMsg {
            stamp: CompressedStamp::new(2, 2),
            op: SeqOp::identity(5),
            cursor: None,
        })
        .expect("valid server op");
        assert_eq!(c.gc(), 2);
        assert_eq!(c.history().len(), 0);
    }

    #[test]
    fn unacked_local_since_rebuilds_original_messages() {
        let mut c = Client::new(SiteId(1), "abc");
        c.set_share_caret(false);
        let m1 = c.insert(0, "x"); // seq 1
        let m2 = c.insert(1, "y"); // seq 2
        let m3 = c.delete(0, 1); // seq 3
                                 // Notifier received everything through seq 1.
        let resend = c.unacked_local_since(1);
        assert_eq!(resend.len(), 2);
        assert_eq!(resend[0], m2);
        assert_eq!(resend[1], m3);
        assert_eq!(c.unacked_local_since(3), vec![]);
        assert_eq!(c.unacked_local_since(0), vec![m1, m2, m3]);
        // Still intact after GC (nothing acked yet, so nothing collected
        // from the local set; a server entry would die, locals survive).
        c.gc();
        assert_eq!(c.unacked_local_since(1).len(), 2);
    }

    #[test]
    fn hello_frontier_holds_back_to_the_oldest_unintegrated_stamp() {
        let mut c = Client::new(SiteId(1), "abc");
        c.set_share_caret(false);
        assert_eq!(c.hello_frontier(0), 0, "nothing local: T[1]");
        c.insert(0, "x"); // (0, 1)
        c.try_on_server_op(ServerOpMsg {
            stamp: CompressedStamp::new(1, 0),
            op: SeqOp::identity(3),
            cursor: None,
        })
        .expect("valid server op");
        c.insert(0, "y"); // (1, 2)
        c.try_on_server_op(ServerOpMsg {
            stamp: CompressedStamp::new(2, 1),
            op: SeqOp::identity(4),
            cursor: None,
        })
        .expect("valid server op"); // acknowledges op 1
        assert_eq!(c.state_vector().received(), 2);
        assert_eq!(c.hello_frontier(0), 1, "op 2 was stamped at T[1] = 1");
        assert_eq!(c.hello_frontier(2), 2, "both integrated: T[1]");
    }

    #[test]
    fn undo_reverses_last_local_op() {
        let mut c = Client::new(SiteId(1), "hello");
        c.insert(5, " world");
        assert_eq!(c.doc(), "hello world");
        let msg = c.undo_last_local().expect("something to undo");
        assert_eq!(c.doc(), "hello");
        // The undo is an ordinary local op with the next stamp.
        assert_eq!(msg.stamp.as_pair(), (0, 2));
        // Redo restores the text…
        c.redo_last().expect("redo");
        assert_eq!(c.doc(), "hello world");
        // …and can itself be undone again.
        c.undo_last_local().expect("undo the redo");
        assert_eq!(c.doc(), "hello");
        // A fresh edit clears the redo chain.
        c.insert(5, "!");
        assert!(c.redo_last().is_none());
    }

    #[test]
    fn undo_survives_interleaved_remote_edits() {
        let mut c = Client::new(SiteId(1), "abc");
        c.insert(1, "XY"); // -> "aXYbc"
                           // A remote op lands after ours: server inserts "!" at the end.
                           // Its frame includes our acked op (T[2] = 1).
        c.try_on_server_op(ServerOpMsg {
            stamp: CompressedStamp::new(1, 1),
            op: SeqOp::from_pos(&PosOp::insert(5, "!"), 5),
            cursor: None,
        })
        .expect("valid server op");
        assert_eq!(c.doc(), "aXYbc!");
        // Undo must remove exactly "XY", leaving the remote "!" alone.
        c.undo_last_local().expect("undo");
        assert_eq!(c.doc(), "abc!");
    }

    #[test]
    fn undo_skips_fully_cancelled_ops() {
        let mut c = Client::new(SiteId(1), "abcd");
        c.insert(2, "Z"); // "abZcd"
                          // A remote op deletes our Z (concurrent server op that, once
                          // transformed, removes it): simulate via a server op whose frame
                          // has seen our op (acked) and deletes position 2.
        c.try_on_server_op(ServerOpMsg {
            stamp: CompressedStamp::new(1, 1),
            op: SeqOp::from_pos(&PosOp::delete(2, "Z"), 5),
            cursor: None,
        })
        .expect("valid server op");
        assert_eq!(c.doc(), "abcd");
        // Undoing the insert has no surviving effect.
        assert!(c.undo_last_local().is_none());
        assert_eq!(c.doc(), "abcd");
        // And there is nothing further to undo.
        assert!(c.undo_last_local().is_none());
    }

    #[test]
    fn undo_depth_is_bounded() {
        let mut c = Client::new(SiteId(1), "");
        for k in 0..(MAX_UNDO_DEPTH + 50) {
            c.insert(k, "x");
        }
        // Only MAX_UNDO_DEPTH undos are available; each removes one char.
        let mut undone = 0;
        while c.undo_last_local().is_some() {
            undone += 1;
        }
        assert_eq!(undone, MAX_UNDO_DEPTH);
        assert_eq!(c.doc_len(), 50);
    }

    #[test]
    fn undo_targets_deletes_too() {
        let mut c = Client::new(SiteId(1), "delete me not");
        c.delete(6, 3); // removes " me"
        assert_eq!(c.doc(), "delete not");
        c.undo_last_local().expect("undo");
        assert_eq!(c.doc(), "delete me not");
    }

    #[test]
    fn telepointers_propagate_and_transform() {
        use crate::notifier::Notifier;
        let initial = "hello world";
        let mut notifier = Notifier::new(2, initial);
        let mut alice = Client::new(SiteId(1), initial);
        let mut bob = Client::new(SiteId(2), initial);

        // Bob types at the end; his caret lands after the insert.
        let msg = bob.insert(11, "!!");
        assert_eq!(bob.caret(), 13);
        assert_eq!(msg.cursor, Some(13));
        let out = notifier
            .try_on_client_op_outcome(msg)
            .expect("valid client op");
        let (_, smsg) = out.broadcast_msgs().into_iter().next().unwrap();
        assert_eq!(smsg.cursor, Some((2, 13)));
        alice.try_on_server_op(smsg).expect("valid server op");
        // Alice now sees bob's caret.
        let carets: Vec<(u32, usize)> = alice.remote_carets().collect();
        assert_eq!(carets, vec![(2, 13)]);

        // Alice types at position 0; bob's remembered caret shifts right.
        alice.insert(0, ">> ");
        let carets: Vec<(u32, usize)> = alice.remote_carets().collect();
        assert_eq!(carets, vec![(2, 16)]);
        assert_eq!(alice.caret(), 3);
    }

    #[test]
    fn remote_carets_keep_first_seen_order_as_they_move() {
        let mut reader = Client::new(SiteId(4), "abcdef");
        let mut doc_len = 6;
        let mut deliver = |reader: &mut Client, k: u64, author: u32, op: PosOp, caret: u64| {
            let op = SeqOp::from_pos(&op, doc_len);
            doc_len = op.target_len();
            reader
                .try_on_server_op(ServerOpMsg {
                    stamp: CompressedStamp::new(k, 0),
                    op,
                    cursor: Some((author, caret)),
                })
                .expect("in order");
            reader.remote_carets().collect::<Vec<_>>()
        };
        let carets = deliver(&mut reader, 1, 3, PosOp::insert(0, "x"), 1);
        assert_eq!(carets, vec![(3, 1)]);
        let carets = deliver(&mut reader, 2, 1, PosOp::insert(7, "y"), 8);
        assert_eq!(carets, vec![(3, 1), (1, 8)]);
        // Site 2 deletes the "x" in front of site 3's caret.
        let carets = deliver(&mut reader, 3, 2, PosOp::delete(0, "x"), 0);
        assert_eq!(carets, vec![(3, 0), (1, 7), (2, 0)]);
        // Site 3 moves last and keeps its place in the order.
        let carets = deliver(&mut reader, 4, 3, PosOp::insert(3, "w"), 4);
        assert_eq!(carets, vec![(3, 4), (1, 8), (2, 0)]);
        assert_eq!(reader.doc(), "abcwdefy");
    }

    #[test]
    fn telepointer_rides_concurrent_transform() {
        use crate::notifier::Notifier;
        // Bob's caret crosses the wire while alice edits concurrently
        // *before* it; the transported caret must land shifted.
        let initial = "abc";
        let mut notifier = Notifier::new(2, initial);
        let mut alice = Client::new(SiteId(1), initial);
        let mut bob = Client::new(SiteId(2), initial);

        let from_bob = bob.insert(3, "Z"); // caret 4
        let from_alice = alice.insert(0, "XX"); // concurrent, caret 2
                                                // Alice's op reaches the notifier first.
        let out_a = notifier
            .try_on_client_op_outcome(from_alice)
            .expect("valid client op");
        let out_b = notifier
            .try_on_client_op_outcome(from_bob)
            .expect("valid client op");
        // Bob's caret, transformed through alice's concurrent op at the
        // notifier: 4 + 2 = 6.
        let to_alice = out_b
            .broadcast_msgs()
            .iter()
            .find(|(d, _)| *d == SiteId(1))
            .unwrap()
            .1
            .clone();
        assert_eq!(to_alice.cursor, Some((2, 6)));
        alice.try_on_server_op(to_alice).expect("valid server op");
        assert_eq!(alice.remote_carets().collect::<Vec<_>>(), vec![(2, 6)]);
        // And bob learns alice's caret (transported unchanged; bob's own
        // pending op was acked inside the notifier's stamp? no — bob's op
        // was concurrent, so alice's caret transforms through it at bob).
        let to_bob = out_a.broadcast_msgs().into_iter().next().unwrap().1;
        bob.try_on_server_op(to_bob).expect("valid server op");
        assert_eq!(bob.doc(), "XXabcZ");
        assert_eq!(bob.remote_carets().collect::<Vec<_>>(), vec![(1, 2)]);
    }

    #[test]
    fn quiet_client_owes_periodic_acks() {
        let mut c = Client::new(SiteId(1), "");
        assert!(c.take_pending_ack().is_none(), "nothing received yet");
        for k in 0..ACK_INTERVAL {
            c.try_on_server_op(ServerOpMsg {
                stamp: CompressedStamp::new(k + 1, 0),
                op: SeqOp::from_pos(&PosOp::insert(0, "x"), k as usize),
                cursor: None,
            })
            .expect("valid server op");
        }
        let ack = c.take_pending_ack().expect("interval reached");
        assert_eq!(ack.origin, SiteId(1));
        assert_eq!(ack.received, ACK_INTERVAL);
        assert!(c.take_pending_ack().is_none(), "ack clears the debt");
        assert_eq!(c.metrics().acks_sent, 1);
        assert!(c.metrics().ack_bytes_sent >= 3);
        assert_eq!(
            c.metrics().messages_sent,
            0,
            "bare acks are counted apart from operation messages"
        );
    }

    #[test]
    fn local_edits_piggyback_the_ack() {
        let mut c = Client::new(SiteId(1), "");
        for k in 0..ACK_INTERVAL {
            c.try_on_server_op(ServerOpMsg {
                stamp: CompressedStamp::new(k + 1, 0),
                op: SeqOp::from_pos(&PosOp::insert(0, "x"), k as usize),
                cursor: None,
            })
            .expect("valid server op");
        }
        // The edit's T[1] carries the acknowledgement; no bare ack owed.
        let m = c.insert(0, "y");
        assert_eq!(m.stamp.get(1), ACK_INTERVAL);
        assert!(c.take_pending_ack().is_none());
        assert_eq!(c.metrics().acks_sent, 0);
    }

    #[test]
    fn adopt_snapshot_rebuilds_the_replica() {
        let mut c = Client::new(SiteId(1), "old");
        c.insert(0, "zzz"); // unacked local work, abandoned by the resync
        c.adopt_snapshot("fresh doc", 10, 4);
        assert_eq!(c.doc(), "fresh doc");
        assert_eq!(c.state_vector().stamp().as_pair(), (10, 4));
        assert!(c.history().is_empty());
        assert!(c.undo_last_local().is_none(), "undo chain abandoned");
        // The server stream continues seamlessly from the snapshot.
        c.try_on_server_op(ServerOpMsg {
            stamp: CompressedStamp::new(11, 4),
            op: SeqOp::from_pos(&PosOp::insert(0, "!"), 9),
            cursor: None,
        })
        .expect("valid server op");
        assert_eq!(c.doc(), "!fresh doc");
        // New local operations resume from the notifier's integrated count.
        let m = c.insert(0, "a");
        assert_eq!(m.stamp.as_pair(), (11, 5));
        assert_eq!(c.metrics().resyncs, 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn delete_validates_range() {
        let mut c = Client::new(SiteId(1), "ab");
        c.delete(1, 5);
    }

    #[test]
    #[should_panic(expected = "cannot be site 0")]
    fn site_zero_is_not_a_client() {
        let _ = Client::new(SiteId(0), "");
    }
}
