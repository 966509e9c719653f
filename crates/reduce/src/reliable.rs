//! Ack/retransmit reliability layer over faulty links, with client
//! reconnect through the hub's hello.
//!
//! The CVC formulas (5)/(7) are only sound on reliable FIFO channels —
//! the paper assumes TCP. `cvc_sim`'s [`FaultPlan`] deliberately violates
//! that assumption (drop/duplicate/reorder/corrupt/flap); this module
//! restores it the way a real deployment would, so the *editor* layer
//! above still sees exactly the paper's transport contract:
//!
//! * Every editor message travels inside a [`ReliableMsg::Data`] frame
//!   with a per-channel sequence number, a piggybacked cumulative ack,
//!   and the frame codec's [`frame_checksum`] over the payload.
//! * A [`ReliableLink`] per directed peer pair retransmits unacked frames
//!   (go-back-N) on a timer with exponential backoff and jitter, drops
//!   duplicates, rejects corrupt payloads, and holds out-of-order frames
//!   in a resequencing buffer until the gap fills.
//! * A client can disconnect and later reconnect, and a reconnect is what
//!   it is on TCP: a new connection whose first message is a hello. The
//!   client bumps its link *epoch* and queues an unbound [`ClientAckMsg`]
//!   as the epoch's first data payload. A data frame in a newer epoch is a
//!   new connection to the notifier, which unbinds the node's channel and
//!   feeds the hello to [`Hub::on_msg`]; the hub replays the broadcast
//!   suffix past the hello's frontier from its history buffer, and the
//!   driver ends the answer with `ServerAck{acked: integrated}`, from
//!   which the client re-sends its unacked local operations
//!   ([`Client::unacked_local_since`]). The hello integrates like an ack,
//!   so its frontier is held back to the oldest stamp the client may
//!   re-send ([`Client::hello_frontier`]); an answer whose count shows it
//!   was held back too far is followed by one exact hello. Frames from a
//!   stale epoch are discarded on both sides.
//!
//! [`run_robust_session`] wires the whole thing onto the simulator and
//! returns the same [`SessionReport`] as a plain session, with the
//! reliability counters folded into each site's [`SiteMetrics`].
//! [`run_robust_session_traced`] additionally records every integration
//! (messages, formula verdicts, broadcasts) so the chaos tests can replay
//! the run against a ground-truth oracle.

use crate::client::Client;
use crate::core::NotifierCore;
pub use crate::frame::frame_checksum;
use crate::hub::{Hub, Sends, Step};
use crate::mesh::VisibleEffect;
use crate::metrics::SiteMetrics;
use crate::msg::{
    decode_payload, write_compound, ClientAckMsg, ClientOpMsg, EditorMsg, Payload, RelayOpMsg,
    ServerAckMsg, ServerOpMsg,
};
use crate::recorder::{EventKind, FlightEvent};
use crate::relay::RelayState;
use crate::session::{ClientMode, Deployment, FailoverReport, SessionConfig, SessionReport};
use crate::standby::Standby;
use crate::wal::{Wal, DEFAULT_COMPACT_EVERY};
use crate::workload::ScheduledEdit;
use bytes::{Buf, BufMut};
use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use cvc_ot::seq::{Component, SeqOp};
use cvc_sim::fault::FaultPlan;
use cvc_sim::sim::{Ctx, Node, NodeId, Simulator};
use cvc_sim::time::{SimDuration, SimTime};
use cvc_sim::wire::{
    get_bounded_len, get_u32, get_varint, put_varint, varint_len, WireDecode, WireEncode,
    WireError, WireSize,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};

const TAG_DATA: u8 = 10;
const TAG_ACK: u8 = 11;

/// Timer tag for a link retransmission timeout (the notifier adds the
/// peer's client index). Script-edit timers use their small script index,
/// so the high-bit spaces never collide.
const RETX_TAG: u64 = 1 << 40;
/// Timer tag scheduling a client's disconnect.
const DISCONNECT_TAG: u64 = 2 << 40;
/// Timer tag scheduling a client's reconnect.
const RECONNECT_TAG: u64 = 3 << 40;
/// Timer tag flushing a compound-frame batch whose deadline expired (the
/// notifier adds the peer's client index, mirroring [`RETX_TAG`]).
const FLUSH_TAG: u64 = 5 << 40;
/// Timer tag for a client's scheduled keep-alive probe (standby sessions:
/// guarantees even a quiet client generates the traffic its stall
/// detector needs to notice a dead notifier).
const PROBE_TAG: u64 = 6 << 40;

/// Initial retransmission timeout (µs) — a few internet RTTs.
const BASE_RTO_US: u64 = 250_000;
/// Retransmission timeout cap (µs).
const MAX_RTO_US: u64 = 2_000_000;
/// Uniform jitter added to every armed timeout (µs), so periodic faults
/// cannot phase-lock with the retransmission schedule.
const RTO_JITTER_US: u64 = 50_000;

/// The frame checksum of a [`Payload`]'s logical bytes, hashed straight
/// over its head/body runs without materializing them.
fn payload_checksum(p: &Payload) -> u32 {
    frame_checksum(&p.chunks())
}

/// Payload of a [`ReliableMsg`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReliableKind {
    /// An application frame: one encoded [`EditorMsg`] (possibly an
    /// `EditorMsg::Compound` coalescing several, see
    /// [`ReliableLink::queue_payload`]).
    Data {
        /// Per-channel sequence number, starting at 1 for each epoch.
        seq: u64,
        /// Piggybacked cumulative ack: highest in-order seq received on
        /// the reverse direction of this link.
        ack: u64,
        /// [`frame_checksum`] over the payload's logical bytes.
        checksum: u32,
        /// The encoded editor message, held as a head/body split so the
        /// notifier's fan-out shares one body across destinations.
        payload: Payload,
    },
    /// A standalone cumulative acknowledgement.
    Ack {
        /// Highest in-order seq received.
        ack: u64,
    },
}

/// One frame of the reliability protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReliableMsg {
    /// Connection epoch; bumped by each client reconnect. A data frame in
    /// a newer epoch opens a new connection; frames from a stale epoch are
    /// discarded.
    pub epoch: u32,
    /// The frame payload.
    pub kind: ReliableKind,
}

impl WireSize for ReliableMsg {
    fn wire_bytes(&self) -> usize {
        1 + varint_len(u64::from(self.epoch))
            + match &self.kind {
                ReliableKind::Data {
                    seq,
                    ack,
                    checksum,
                    payload,
                } => {
                    varint_len(*seq)
                        + varint_len(*ack)
                        + varint_len(u64::from(*checksum))
                        + varint_len(payload.len() as u64)
                        + payload.len()
                }
                ReliableKind::Ack { ack } => varint_len(*ack),
            }
    }
}

impl WireEncode for ReliableMsg {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        match &self.kind {
            ReliableKind::Data {
                seq,
                ack,
                checksum,
                payload,
            } => {
                buf.put_u8(TAG_DATA);
                put_varint(buf, u64::from(self.epoch));
                put_varint(buf, *seq);
                put_varint(buf, *ack);
                put_varint(buf, u64::from(*checksum));
                put_varint(buf, payload.len() as u64);
                payload.write_to(buf);
            }
            ReliableKind::Ack { ack } => {
                buf.put_u8(TAG_ACK);
                put_varint(buf, u64::from(self.epoch));
                put_varint(buf, *ack);
            }
        }
    }
}

impl WireDecode for ReliableMsg {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::Truncated);
        }
        let tag = buf.get_u8();
        let epoch = get_u32(buf)?;
        let kind = match tag {
            TAG_DATA => {
                let seq = get_varint(buf)?;
                let ack = get_varint(buf)?;
                let checksum = get_u32(buf)?;
                // Length check before the allocation, in the u64 domain: a
                // bit-flipped or hostile length prefix must not cause a huge
                // reservation, an over-read, or a 32-bit truncation.
                let len = get_bounded_len(buf, 1)?;
                let mut payload = vec![0u8; len];
                buf.copy_to_slice(&mut payload);
                ReliableKind::Data {
                    seq,
                    ack,
                    checksum,
                    payload: Payload::from_vec(payload),
                }
            }
            TAG_ACK => ReliableKind::Ack {
                ack: get_varint(buf)?,
            },
            t => return Err(WireError::BadTag(t)),
        };
        Ok(ReliableMsg { epoch, kind })
    }
}

/// Flush a pending batch once it reaches this many editor messages…
/// (seed value — [`ReliableLink::retune`] adapts the live threshold to
/// the measured RTT × op-rate, clamped to `[seed/2, seed*4]`).
const MAX_BATCH_MSGS: usize = 16;
/// …or this many payload bytes, whichever comes first (seed value, same
/// adaptive clamp as [`MAX_BATCH_MSGS`]).
const MAX_BATCH_BYTES: usize = 1024;

/// Reliability state for one direction-pair of a channel: outgoing
/// sequencing/retransmission plus incoming dedup/resequencing.
#[derive(Debug)]
pub struct ReliableLink {
    /// Current connection epoch (see [`ReliableMsg::epoch`]).
    epoch: u32,
    /// A promoted notifier's link to a channel of the dead incarnation:
    /// every frame is zombie traffic until a newer epoch opens a new
    /// connection ([`ReliableLink::reset`] clears it).
    fenced: bool,
    /// Next outgoing sequence number.
    next_seq: u64,
    /// Unacknowledged outgoing frames, in seq order.
    send_buf: VecDeque<(u64, Payload)>,
    /// Coalesce queued frames into compound payloads (Nagle-style): a
    /// frame goes out immediately while nothing is in flight; behind an
    /// unacked window, frames batch and flush when the window opens or a
    /// size/count threshold trips.
    batching: bool,
    /// Editor frames awaiting the next flush, in queue order.
    pending_out: VecDeque<Payload>,
    /// Total payload bytes in `pending_out`.
    pending_bytes: usize,
    /// Maximum time a queued frame may wait for an ack-driven flush
    /// before a timer forces one ([`SessionConfig::compound_flush_ticks`];
    /// zero disables the deadline).
    flush_delay: SimDuration,
    /// Whether a flush timer event is outstanding (at most one).
    flush_armed: bool,
    /// When the oldest frame in `pending_out` was queued. The deadline
    /// timer only forces a flush once this batch has genuinely waited
    /// `flush_delay`; younger batches re-arm for the remainder, so the
    /// deadline never preempts the ack-driven flush on a healthy link.
    pending_since: SimTime,
    /// Batches flushed by the deadline timer rather than an ack edge.
    deadline_flushes: u64,
    /// Data frames put on the wire (first transmissions).
    data_frames_sent: u64,
    /// Editor messages carried by those frames (≥ `data_frames_sent`
    /// once batching coalesces).
    editor_msgs_sent: u64,
    /// Highest cumulative ack received from the peer.
    highest_acked: u64,
    /// Next incoming seq expected (everything below is delivered).
    next_expected: u64,
    /// Out-of-order frames held until the gap fills.
    resequence: BTreeMap<u64, Payload>,
    /// Current retransmission timeout.
    rto: SimDuration,
    /// When the oldest unacked frame genuinely times out. Acks that
    /// advance the window push this forward, so frames queued behind a
    /// healthy stream are not spuriously re-sent.
    retx_deadline: SimTime,
    /// Whether a retransmission timer event is outstanding (at most one
    /// per connection: [`ReliableLink::reset`] leaves a stale one behind).
    retx_armed: bool,
    /// Jitter source for timeouts.
    rng: SmallRng,
    /// First-transmission times of outgoing frames, for latency joins.
    first_sent: Vec<(u32, u64, SimTime)>,
    /// In-order delivery times of incoming frames.
    delivered: Vec<(u32, u64, SimTime)>,
    /// Application payload bytes delivered in order (goodput numerator).
    delivered_payload_bytes: u64,
    retransmits: u64,
    retransmit_bytes: u64,
    dup_drops: u64,
    checksum_drops: u64,
    resequenced: u64,
    resyncs: u64,
    resync_replayed: u64,
    /// Frames that passed the checksum but carried a hostile or
    /// nonsensical payload (undecodable, wrong direction, a refused or
    /// trimmed hello). Folded into [`SiteMetrics::protocol_errors`].
    hostile_drops: u64,
    /// Smoothed round-trip time (µs); 0 until the first clean sample.
    srtt_us: u64,
    /// The single outstanding RTT probe: `(epoch, seq, first_sent)`.
    /// Karn's rule — any retransmission invalidates the probe so an
    /// ambiguous (possibly re-sent) frame never contributes a sample.
    rtt_probe: Option<(u32, u64, SimTime)>,
    /// Smoothed gap between consecutive queued editor frames (µs); 0
    /// until two enqueues have been observed. The reciprocal is the
    /// measured per-channel op rate.
    enqueue_gap_us: u64,
    /// When the previous editor frame was queued on this link.
    last_enqueue: Option<SimTime>,
    /// Adaptive flush threshold (messages): roughly one RTT's worth of
    /// traffic at the measured rate, clamped around [`MAX_BATCH_MSGS`].
    batch_max_msgs: usize,
    /// Adaptive flush threshold (bytes), derived alongside
    /// `batch_max_msgs` and clamped around [`MAX_BATCH_BYTES`].
    batch_max_bytes: usize,
}

impl ReliableLink {
    fn new(seed: u64) -> Self {
        ReliableLink {
            epoch: 0,
            fenced: false,
            next_seq: 1,
            send_buf: VecDeque::new(),
            batching: true,
            pending_out: VecDeque::new(),
            pending_bytes: 0,
            flush_delay: SimDuration::ZERO,
            flush_armed: false,
            pending_since: SimTime::ZERO,
            deadline_flushes: 0,
            data_frames_sent: 0,
            editor_msgs_sent: 0,
            highest_acked: 0,
            next_expected: 1,
            resequence: BTreeMap::new(),
            rto: SimDuration::from_micros(BASE_RTO_US),
            retx_deadline: SimTime::ZERO,
            retx_armed: false,
            rng: SmallRng::seed_from_u64(seed ^ 0x5EED_11E7_ACED_CAFE),
            first_sent: Vec::new(),
            delivered: Vec::new(),
            delivered_payload_bytes: 0,
            retransmits: 0,
            retransmit_bytes: 0,
            dup_drops: 0,
            checksum_drops: 0,
            resequenced: 0,
            resyncs: 0,
            resync_replayed: 0,
            hostile_drops: 0,
            srtt_us: 0,
            rtt_probe: None,
            enqueue_gap_us: 0,
            last_enqueue: None,
            batch_max_msgs: MAX_BATCH_MSGS,
            batch_max_bytes: MAX_BATCH_BYTES,
        }
    }

    /// Reset connection state for a new epoch (reconnect). Counters and
    /// the latency logs survive; sequencing state does not.
    fn reset(&mut self, epoch: u32) {
        self.epoch = epoch;
        self.fenced = false;
        self.next_seq = 1;
        self.send_buf.clear();
        // Unflushed frames die with the epoch: the hello's catch-up and the
        // re-sends after it (driven by the editor-layer counters) re-cover
        // anything they carried.
        self.pending_out.clear();
        self.pending_bytes = 0;
        self.highest_acked = 0;
        self.next_expected = 1;
        self.resequence.clear();
        self.rto = SimDuration::from_micros(BASE_RTO_US);
        // The dead connection's timer may still be out, armed for a
        // backed-off timeout: the new connection's first frame (a hello,
        // or its answer) arms its own. The stale one, when it fires,
        // finds the new deadline and re-arms or disarms.
        self.retx_armed = false;
        // The probe's frame died with the epoch; the RTT estimate itself
        // survives (same physical channel, new connection).
        self.rtt_probe = None;
    }

    /// Frames sent but not yet cumulatively acknowledged.
    fn in_flight(&self) -> usize {
        self.send_buf.len()
    }

    fn jittered(&mut self, d: SimDuration) -> SimDuration {
        d + SimDuration::from_micros(self.rng.gen_range(0..=RTO_JITTER_US))
    }

    fn arm(&mut self, ctx: &mut Ctx<'_, ReliableMsg>, retx_tag: u64) {
        if !self.retx_armed {
            self.retx_armed = true;
            ctx.set_timer(self.retx_deadline - ctx.now, retx_tag);
        }
    }

    /// Send one application frame: assign a seq, buffer for
    /// retransmission, transmit with a piggybacked ack, arm the timer.
    /// The retransmission copy is a refcount bump, not a byte copy.
    fn send_payload(
        &mut self,
        ctx: &mut Ctx<'_, ReliableMsg>,
        peer: NodeId,
        retx_tag: u64,
        payload: Payload,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.first_sent.push((self.epoch, seq, ctx.now));
        self.data_frames_sent += 1;
        if self.rtt_probe.is_none() {
            self.rtt_probe = Some((self.epoch, seq, ctx.now));
        }
        let msg = ReliableMsg {
            epoch: self.epoch,
            kind: ReliableKind::Data {
                seq,
                ack: self.next_expected - 1,
                checksum: payload_checksum(&payload),
                payload: payload.clone(),
            },
        };
        if self.send_buf.is_empty() {
            // This frame is now the oldest unacked one: time out from it.
            let d = self.jittered(self.rto);
            self.retx_deadline = ctx.now + d;
        }
        self.send_buf.push_back((seq, payload));
        ctx.send(peer, msg);
        self.arm(ctx, retx_tag);
    }

    /// Queue one editor frame for this peer. While nothing is unacked the
    /// frame goes straight out (zero added latency — a serial workload
    /// over a clean link behaves exactly like the unbatched path). Behind
    /// an in-flight window, frames coalesce into a single compound
    /// payload — one reliable header, one checksum — flushed when the
    /// window opens ([`ReliableLink::maybe_flush`]) or a threshold trips.
    fn queue_payload(
        &mut self,
        ctx: &mut Ctx<'_, ReliableMsg>,
        peer: NodeId,
        retx_tag: u64,
        payload: Payload,
    ) {
        self.editor_msgs_sent += 1;
        if let Some(prev) = self.last_enqueue {
            let gap = (ctx.now - prev).as_micros().max(1);
            self.enqueue_gap_us = if self.enqueue_gap_us == 0 {
                gap
            } else {
                (7 * self.enqueue_gap_us + gap) / 8
            };
            self.retune();
        }
        self.last_enqueue = Some(ctx.now);
        if !self.batching || (self.send_buf.is_empty() && self.pending_out.is_empty()) {
            self.send_payload(ctx, peer, retx_tag, payload);
            return;
        }
        if self.pending_out.is_empty() {
            self.pending_since = ctx.now;
        }
        self.pending_bytes += payload.len();
        self.pending_out.push_back(payload);
        if self.pending_out.len() >= self.batch_max_msgs
            || self.pending_bytes >= self.batch_max_bytes
        {
            self.flush(ctx, peer, retx_tag);
        } else if self.flush_delay > SimDuration::ZERO && !self.flush_armed {
            // Deadline edge of the Nagle policy: if no ack opens the
            // window first, a timer flushes this batch so a stalled or
            // quiet channel cannot park frames indefinitely.
            self.flush_armed = true;
            ctx.set_timer(self.flush_delay, retx_tag - RETX_TAG + FLUSH_TAG);
        }
    }

    /// The flush-deadline timer fired. Force out the pending batch only
    /// if it has genuinely waited `flush_delay` — acks may have flushed
    /// the batch the timer was armed for and a *younger* batch may now
    /// be parked, in which case the timer re-arms for the remainder so
    /// the deadline stays a backstop and never degrades coalescing on a
    /// link whose ack flow is healthy. (Timers cannot be cancelled.)
    fn on_flush_timer(&mut self, ctx: &mut Ctx<'_, ReliableMsg>, peer: NodeId, retx_tag: u64) {
        self.flush_armed = false;
        if self.pending_out.is_empty() {
            return;
        }
        let age = ctx.now - self.pending_since;
        if age >= self.flush_delay {
            self.deadline_flushes += 1;
            self.flush(ctx, peer, retx_tag);
        } else {
            self.flush_armed = true;
            let remainder =
                SimDuration::from_micros(self.flush_delay.as_micros() - age.as_micros());
            ctx.set_timer(remainder, retx_tag - RETX_TAG + FLUSH_TAG);
        }
    }

    /// Send everything pending as one compound frame (or as itself, when
    /// only one frame is pending).
    fn flush(&mut self, ctx: &mut Ctx<'_, ReliableMsg>, peer: NodeId, retx_tag: u64) {
        debug_assert!(!self.pending_out.is_empty(), "flush needs pending frames");
        self.pending_bytes = 0;
        if self.pending_out.len() == 1 {
            let p = self.pending_out.pop_front().expect("len checked");
            self.send_payload(ctx, peer, retx_tag, p);
            return;
        }
        let mut bytes = Vec::with_capacity(self.pending_out.iter().map(Payload::len).sum());
        write_compound(self.pending_out.iter(), &mut bytes);
        self.pending_out.clear();
        self.send_payload(ctx, peer, retx_tag, Payload::from_vec(bytes));
    }

    /// Flush the pending batch if the in-flight window just drained —
    /// the ack-driven edge of the Nagle policy. Called by the owners'
    /// ack-handling paths (plain `accept_ack` has no network context).
    fn maybe_flush(&mut self, ctx: &mut Ctx<'_, ReliableMsg>, peer: NodeId, retx_tag: u64) {
        if self.send_buf.is_empty() && !self.pending_out.is_empty() {
            self.flush(ctx, peer, retx_tag);
        }
    }

    /// Process a cumulative ack from the peer. Progress restarts the
    /// timeout clock (and the backoff) for the next outstanding frame.
    fn accept_ack(&mut self, now: SimTime, ack: u64) {
        if ack <= self.highest_acked {
            return;
        }
        self.highest_acked = ack;
        if let Some((ep, seq, sent)) = self.rtt_probe {
            if ep == self.epoch && ack >= seq {
                let sample = (now - sent).as_micros().max(1);
                self.srtt_us = if self.srtt_us == 0 {
                    sample
                } else {
                    (7 * self.srtt_us + sample) / 8
                };
                self.rtt_probe = None;
                self.retune();
            }
        }
        while self.send_buf.front().is_some_and(|(s, _)| *s <= ack) {
            self.send_buf.pop_front();
        }
        self.rto = SimDuration::from_micros(BASE_RTO_US);
        if !self.send_buf.is_empty() {
            let d = self.jittered(self.rto);
            self.retx_deadline = now + d;
        }
    }

    /// Process an incoming data frame (caller has already matched the
    /// epoch). Returns the payloads now deliverable in order, oldest
    /// first, and emits a standalone cumulative ack.
    fn on_data(
        &mut self,
        ctx: &mut Ctx<'_, ReliableMsg>,
        peer: NodeId,
        seq: u64,
        ack: u64,
        checksum: u32,
        payload: Payload,
    ) -> Vec<Payload> {
        self.accept_ack(ctx.now, ack);
        let mut out = Vec::new();
        if payload_checksum(&payload) != checksum {
            // Corrupted in flight: pretend it never arrived; the sender's
            // timer re-sends an intact copy.
            self.checksum_drops += 1;
        } else if seq < self.next_expected {
            self.dup_drops += 1;
        } else if seq > self.next_expected {
            // A gap: park the frame (once) until the gap fills.
            if let std::collections::btree_map::Entry::Vacant(slot) = self.resequence.entry(seq) {
                slot.insert(payload);
                self.resequenced += 1;
            } else {
                self.dup_drops += 1;
            }
        } else {
            let mut deliver_seq = seq;
            let mut next = Some(payload);
            while let Some(p) = next {
                self.delivered.push((self.epoch, deliver_seq, ctx.now));
                self.delivered_payload_bytes += p.len() as u64;
                out.push(p);
                self.next_expected += 1;
                deliver_seq += 1;
                next = self.resequence.remove(&self.next_expected);
            }
        }
        // Always (re)state the cumulative position — a duplicate or gap
        // frame still tells the peer where we are.
        ctx.send(
            peer,
            ReliableMsg {
                epoch: self.epoch,
                kind: ReliableKind::Ack {
                    ack: self.next_expected - 1,
                },
            },
        );
        out
    }

    /// Retransmission timeout fired: go-back-N resend of everything
    /// unacked, double the timeout (capped), re-arm. A timer that finds
    /// nothing in flight simply disarms; one that fires before the (ack-
    /// advanced) deadline re-arms without resending. Returns
    /// `(frames resent, new rto µs)` when a genuine stall triggered a
    /// resend, so the caller can attribute the stall in its flight
    /// recorder — these windows dominate tail convergence latency.
    fn on_retx_timer(
        &mut self,
        ctx: &mut Ctx<'_, ReliableMsg>,
        peer: NodeId,
        retx_tag: u64,
    ) -> Option<(u64, u64)> {
        self.retx_armed = false;
        if self.send_buf.is_empty() {
            return None;
        }
        if ctx.now < self.retx_deadline {
            self.arm(ctx, retx_tag);
            return None;
        }
        let resent = self.send_buf.len() as u64;
        // Karn's rule: the probe frame is about to be re-sent, so its
        // eventual ack can no longer be matched to one transmission.
        self.rtt_probe = None;
        for (seq, payload) in &self.send_buf {
            let msg = ReliableMsg {
                epoch: self.epoch,
                kind: ReliableKind::Data {
                    seq: *seq,
                    ack: self.next_expected - 1,
                    checksum: payload_checksum(payload),
                    payload: payload.clone(),
                },
            };
            self.retransmits += 1;
            self.retransmit_bytes += msg.wire_bytes() as u64;
            ctx.send(peer, msg);
        }
        self.rto = SimDuration::from_micros((self.rto.as_micros() * 2).min(MAX_RTO_US));
        let d = self.jittered(self.rto);
        self.retx_deadline = ctx.now + d;
        self.arm(ctx, retx_tag);
        Some((resent, self.rto.as_micros()))
    }

    /// Re-derive the flush thresholds from the measured channel: a batch
    /// should hold roughly one RTT's worth of traffic at the observed
    /// enqueue rate (`srtt / gap` frames), clamped to `[seed/2, seed*4]`
    /// around the static seeds. Until *both* the RTT and the rate have
    /// been measured the seeds stand unchanged, so a serial workload over
    /// a clean link (nothing ever batches) stays byte-identical to the
    /// fixed policy, and the E19 coalescing gates only ever see equal or
    /// larger windows under load.
    fn retune(&mut self) {
        if self.srtt_us == 0 || self.enqueue_gap_us == 0 {
            return;
        }
        let per_rtt = (self.srtt_us / self.enqueue_gap_us) as usize;
        self.batch_max_msgs = per_rtt.clamp(MAX_BATCH_MSGS / 2, MAX_BATCH_MSGS * 4);
        self.batch_max_bytes =
            (self.batch_max_msgs * 64).clamp(MAX_BATCH_BYTES / 2, MAX_BATCH_BYTES * 4);
    }

    /// Fold this link's counters into a site's metrics.
    fn fold_into(&self, m: &mut SiteMetrics) {
        m.deadline_flushes += self.deadline_flushes;
        m.retransmits += self.retransmits;
        m.retransmit_bytes += self.retransmit_bytes;
        m.dup_drops += self.dup_drops;
        m.checksum_drops += self.checksum_drops;
        m.resequenced += self.resequenced;
        m.resyncs += self.resyncs;
        m.resync_replayed += self.resync_replayed;
        m.delivered_payload_bytes += self.delivered_payload_bytes;
        m.protocol_errors += self.hostile_drops;
        m.data_frames_sent += self.data_frames_sent;
        m.editor_msgs_sent += self.editor_msgs_sent;
    }
}

/// One scheduled client outage: the client stops sending and drops all
/// incoming traffic at `at`, then reconnects — a new connection and a
/// hello — after `down`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DisconnectSpec {
    /// Client index (0-based; the site id is `client + 1`).
    pub client: usize,
    /// When the outage starts.
    pub at: SimTime,
    /// Outage duration.
    pub down: SimDuration,
}

/// Where in its integration stride the primary notifier dies (see
/// [`NotifierCrash`]). The WAL append always precedes every send — the
/// write-ahead ordering under test — so "before send" is the earliest
/// observable crash once an operation exists at all: a crash *before* the
/// append is indistinguishable from the operation never arriving (the
/// origin re-sends it after its hello).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashPoint {
    /// Die between the WAL append and the first broadcast: the log has
    /// the op, no client does.
    BeforeSend,
    /// Die halfway through the broadcast fan-out: some clients got the
    /// frame, some did not, and parked compound batches die unflushed.
    MidBroadcast,
    /// Die after every destination was queued but with the reliability
    /// windows (and any still-parked compound frames) undrained.
    AfterSend,
}

impl CrashPoint {
    /// Stable lower-case name (used by experiment rows and event details).
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::BeforeSend => "before-send",
            CrashPoint::MidBroadcast => "mid-broadcast",
            CrashPoint::AfterSend => "after-send",
        }
    }

    /// Small stable discriminant for event operands.
    pub fn index(self) -> u64 {
        match self {
            CrashPoint::BeforeSend => 0,
            CrashPoint::MidBroadcast => 1,
            CrashPoint::AfterSend => 2,
        }
    }
}

/// A seeded primary-notifier crash: die at the `at_op`-th integrated
/// operation (1-based), at the chosen [`CrashPoint`]. Requires
/// [`SessionConfig::standby`]; the warm standby is promoted in place and
/// every client channel is fenced until that client's hello, in a bumped
/// epoch, binds it again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NotifierCrash {
    /// Crash while integrating the `at_op`-th client operation (1-based).
    /// A count the session never reaches means the crash never fires.
    pub at_op: u64,
    /// Where in the integration stride to die.
    pub point: CrashPoint,
}

/// Consecutive detection rounds (genuine retransmission stalls, or probe
/// ticks with the hello taken and its answer silent) after which a
/// standby-session client assumes the notifier died and says hello again
/// in a bumped epoch.
const CRASH_STALLS: u32 = 3;

/// Keep-alive probe interval (µs) for standby sessions: even a quiet
/// client generates periodic upstream traffic, so its stall detector has
/// something to time out on when the primary dies.
const PROBE_INTERVAL_US: u64 = 500_000;
/// How far past the last scripted edit probes keep firing (µs): covers
/// worst-case crash detection plus the hello round trips. Probes are
/// pre-scheduled (bounded) so the simulator still quiesces.
const PROBE_MARGIN_US: u64 = 20_000_000;

impl SessionConfig {
    /// A fresh link (seeded by `seed`) with this session's compound-frame
    /// settings.
    fn link(&self, seed: u64) -> ReliableLink {
        let mut link = ReliableLink::new(seed);
        link.batching = self.compound_frames;
        link.flush_delay = SimDuration::from_micros(self.compound_flush_ticks);
        link
    }
}

/// Connection state of a robust client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    Connected,
    /// Offline: incoming traffic is dropped, local edits apply locally.
    Disconnected,
    /// Reconnected: the hello is the new epoch's first payload, and the
    /// `ServerAck` that ends its answer has not arrived yet.
    Hello {
        /// The frontier the hello presented.
        frontier: u64,
        /// The replica's `T[1]` when it said hello.
        received: u64,
    },
}

/// One integration recorded at the notifier, in arrival order.
#[derive(Debug, Clone)]
pub struct NotifierStep {
    /// The client operation exactly as integrated.
    pub msg: ClientOpMsg,
    /// Formula (7) verdict per pre-existing history entry.
    pub verdicts: Vec<bool>,
    /// The broadcasts this integration produced.
    pub broadcasts: Vec<(SiteId, ServerOpMsg)>,
}

/// One event recorded at a client, in execution order.
#[derive(Debug, Clone)]
pub enum ClientEvent {
    /// A local edit was generated (the propagation message, as built).
    Local(ClientOpMsg),
    /// A server operation was executed.
    Remote {
        /// The message exactly as integrated.
        msg: ServerOpMsg,
        /// Formula (5) verdict per pre-existing history entry.
        checked: Vec<bool>,
    },
}

/// Everything that happened at the editor layer during a robust session,
/// in each node's execution order — enough to replay the run on a clean
/// network and to audit every verdict against a causality oracle.
#[derive(Debug, Clone, Default)]
pub struct SessionTrace {
    /// Notifier integrations, in arrival order.
    pub notifier: Vec<NotifierStep>,
    /// Bare acks the notifier integrated, each with the number of
    /// `notifier` steps that preceded it — with `notifier`, the complete
    /// input stream of site 0.
    pub notifier_acks: Vec<(usize, ClientAckMsg)>,
    /// The notifier's final write-ahead-log image (empty unless
    /// [`SessionConfig::standby`]).
    pub wal_image: Vec<u8>,
    /// Per-client event logs (index 0 = site 1).
    pub clients: Vec<Vec<ClientEvent>>,
}

/// The simulator's driver over a [`Hub`] whose channel ids are node ids:
/// it owns what is genuinely the transport's — links, epochs, the crash
/// plan, the relay mirror, the trace. A fenced channel is an unbound one.
pub(crate) struct RobustNotifier {
    /// The notifier, its durability pipeline (WAL + warm standby in
    /// standby sessions) and who is bound to which client channel: an
    /// outcome to broadcast only ever comes out of here, already logged
    /// and mirrored, with its sends queued for the bound channels.
    pub(crate) hub: Hub<NodeId>,
    /// One link per client; index = client index, peer node = index + 1.
    pub(crate) links: Vec<ReliableLink>,
    pub(crate) trace: Option<Vec<NotifierStep>>,
    /// Traced sessions: integrated bare acks, keyed by `trace` position.
    trace_acks: Vec<(usize, ClientAckMsg)>,
    /// Seeded crash plan; taken when it fires.
    crash: Option<NotifierCrash>,
    /// Client operations integrated so far (the crash plan's clock).
    pub(crate) ops_integrated: u64,
    /// The dead primary's links, retired at the crash: their unacked
    /// windows and parked batches died with the process, but their
    /// counters and latency logs still belong to the session.
    retired_links: Vec<ReliableLink>,
    /// Zombie frames discarded on fenced links: after the crash every
    /// frame is dropped until a data frame in a *bumped* epoch opens a new
    /// connection, whose hello rebinds the channel.
    fenced_drops: u64,
    /// When the primary died (set once).
    crash_at: Option<SimTime>,
    /// Per-channel unfence times; all `Some` once recovery completed.
    unfenced_at: Vec<Option<SimTime>>,
    /// `(replayed ops, replayed acks)` captured from the standby at
    /// promotion.
    promoted_replay: Option<(u64, u64)>,
    /// Seed for the promoted incarnation's fresh links.
    link_seed: u64,
    /// Cross-shard federation state ([`crate::relay`]): the shard's mesh
    /// mirror, the virtual relay client's counters, and the outbox of
    /// frames awaiting the driver's next barrier exchange. `None` for
    /// ordinary (single-notifier) sessions, whose behaviour is untouched.
    pub(crate) relay: Option<Box<RelayState>>,
}

impl RobustNotifier {
    /// The notifier node for a session of `slots` client channels: the
    /// configured notifier wrapped — in standby sessions with its log and
    /// warm shadow — in a [`NotifierCore`], plus one fresh link per
    /// channel. Nothing bound and unfederated; the star binds its clients
    /// and a shard adds the relay afterwards.
    fn new(cfg: &SessionConfig, slots: usize, traced: bool) -> Self {
        let notifier = cfg.notifier(slots);
        let standby = cfg.standby.then(|| {
            let mut sb = Standby::new(slots, &cfg.initial_doc, cfg.notifier_scan);
            sb.set_auto_gc(cfg.auto_gc);
            sb
        });
        let wal = cfg.standby.then(|| Wal::new(DEFAULT_COMPACT_EVERY));
        RobustNotifier {
            hub: Hub::new(NotifierCore::new(notifier, wal, standby)),
            links: (0..slots)
                .map(|i| cfg.link(cfg.net_seed.wrapping_add(i as u64)))
                .collect(),
            trace: traced.then(Vec::new),
            trace_acks: Vec::new(),
            crash: cfg.crash,
            ops_integrated: 0,
            retired_links: Vec::new(),
            fenced_drops: 0,
            crash_at: None,
            unfenced_at: Vec::new(),
            promoted_replay: None,
            link_seed: cfg.net_seed,
            relay: None,
        }
    }

    /// Decompose one executed (notifier-form) operation from `from` into
    /// per-character mesh ops and queue them for cross-shard relay. A
    /// no-op without federation and for the virtual relay client's own
    /// injections — those *came from* the mesh, so re-relaying them would
    /// echo forever.
    ///
    /// Invariant: the mesh's visible text equals the notifier document
    /// *before* `executed` was applied — `integrate` calls this
    /// immediately after every integration, so walking the component run
    /// against a running visible position replays the exact edit on the
    /// mesh replica (whose own vector clock then carries it to the peer
    /// shards).
    fn mirror_to_relay(&mut self, from: SiteId, executed: &SeqOp, now_us: u64) {
        let Some(rel) = self.relay.as_mut().filter(|r| from != r.virtual_site) else {
            return;
        };
        let mut pos = 0usize;
        for comp in executed.components() {
            match comp {
                Component::Retain(n) => pos += n,
                Component::Insert(s) => {
                    for ch in s.chars() {
                        let m = rel.mesh.local_insert(pos, ch);
                        rel.queue_out(m, now_us);
                        pos += 1;
                    }
                }
                Component::Delete(n) => {
                    for _ in 0..*n {
                        let m = rel.mesh.local_delete(pos);
                        rel.queue_out(m, now_us);
                    }
                }
            }
        }
        debug_assert_eq!(
            rel.mesh.doc(),
            self.hub.notifier().doc(),
            "relay mesh mirror diverged from the shard document"
        );
    }

    /// Integrate one inbound relay frame from a peer shard (delivered by
    /// the federation driver at a barrier exchange). Hostile shard ids
    /// and broken sequencing are quarantined — counted, never panicking;
    /// an in-order frame runs the mesh's vector-clock transformation and
    /// each resulting visible effect is re-injected through the ordinary
    /// client-op path as the *virtual relay client*, so the WAL, the warm
    /// standby, broadcast stamping, GC, and the flight recorder all see
    /// it as a first-class operation.
    pub(crate) fn on_relay_frame(&mut self, ctx: &mut Ctx<'_, ReliableMsg>, r: RelayOpMsg) {
        let Some(rel) = self.relay.as_mut() else {
            // A relay frame at a non-federated notifier is hostile input;
            // there is no relay state to count it against, so drop it.
            return;
        };
        let oi = r.origin_shard as usize;
        if r.origin_shard == rel.shard || oi >= rel.n_shards as usize {
            rel.relay_hostile_drops += 1;
            return;
        }
        match r.seq.cmp(&rel.next_in_seq[oi]) {
            std::cmp::Ordering::Less => {
                rel.relay_dup_drops += 1;
                return;
            }
            std::cmp::Ordering::Greater => {
                // A gap: the bus retransmits go-back-N from the lowest
                // unacked frame, so the missing ones come again in order
                // — drop rather than buffer out-of-order state.
                rel.relay_gap_drops += 1;
                return;
            }
            std::cmp::Ordering::Equal => {}
        }
        rel.next_in_seq[oi] = r.seq + 1;
        rel.relayed_in += 1;
        let hop = ctx.now.as_micros().saturating_sub(r.sent_at_us);
        rel.hop_us_total += hop;
        rel.hop_us_max = rel.hop_us_max.max(hop);
        // Mesh integration: 0 (buffered / hostile), 1, or several
        // executions if this frame unblocked causally-pending peers.
        // Hostile payloads die inside `on_remote` (its own guard set).
        let mut len = rel.mesh.visible_len();
        let hostile_before = rel.mesh.metrics().protocol_errors;
        let integrations = rel.mesh.on_remote(r.inner);
        if rel.mesh.metrics().protocol_errors > hostile_before {
            rel.relay_hostile_drops += 1;
        }
        // Convert each visible effect into a notifier-form SeqOp against
        // the evolving document length, then inject.
        let origin_shard = r.origin_shard;
        let mut injected = Vec::new();
        for ing in integrations {
            // Log the *actual* integration (a causally-pending frame
            // buffers in the mesh and surfaces here later, possibly
            // carried in by a different frame) for the driver's oracle.
            rel.integration_log
                .push((ing.origin.client_index() as u32, ing.seq));
            match ing.effect {
                VisibleEffect::Insert { pos, ch } => {
                    let mut op = SeqOp::new();
                    op.retain(pos).insert(&ch.to_string()).retain(len - pos);
                    len += 1;
                    injected.push(op);
                }
                VisibleEffect::Delete { pos } => {
                    let mut op = SeqOp::new();
                    op.retain(pos).delete(1).retain(len - pos - 1);
                    len -= 1;
                    injected.push(op);
                }
                // A delete whose target was already a tombstone here:
                // idempotent at the mesh, nothing to inject.
                VisibleEffect::None => {}
            }
        }
        for op in injected {
            let rel = self.relay.as_mut().expect("still federated");
            rel.virtual_seq += 1;
            let t2 = rel.virtual_seq;
            let vs = rel.virtual_site;
            // T1 for the virtual client is exactly what the notifier has
            // sent it (`record_send_shared` counts every active
            // destination, bound or not), so formula (7) finds zero
            // concurrency and the transformed-at-the-mesh op applies
            // verbatim — the cross-shard transformation happened in the
            // mesh tier, the star tier just executes.
            let t1 = self.hub.notifier().state_vector().compress_for(vs).get(1);
            self.hub.core_mut().note_lifecycle(
                FlightEvent::new(EventKind::Relay)
                    .with_op(vs.0, t2)
                    .with_ab(origin_shard as u64, hop)
                    .with_detail("relay-inject"),
            );
            let op = ClientOpMsg {
                origin: vs,
                stamp: CompressedStamp::new(t1, t2),
                op,
                cursor: None,
            };
            self.integrate(ctx, vs.client_index() + 1, true, EditorMsg::ClientOp(op));
        }
    }

    /// Advance the virtual relay client's ack watermark to everything
    /// this notifier has sent it. The virtual slot is never bound (no
    /// process ever acks on it), so without this driver-called keepalive
    /// a quiet federation link would pin history GC forever.
    pub(crate) fn relay_keepalive(&mut self) {
        let Some(rel) = &self.relay else { return };
        let vs = rel.virtual_site;
        let notifier = self.hub.notifier();
        let sent = notifier.state_vector().compress_for(vs).get(1);
        if sent > notifier.acked_by()[vs.client_index()] {
            let ack = EditorMsg::ClientAck(ClientAckMsg {
                origin: vs,
                received: sent,
            });
            if let Step::Evicted(_, e) = self.hub.integrate(vs, ack, &mut Vec::new()) {
                eprintln!("relay keepalive rejected: {e}");
            }
        }
    }

    /// Drain the frames queued for the peer shards (driver-called at each
    /// barrier exchange).
    pub(crate) fn take_relay_outbox(&mut self) -> Vec<RelayOpMsg> {
        match &mut self.relay {
            Some(rel) => std::mem::take(&mut rel.outbox),
            None => Vec::new(),
        }
    }

    /// Drain the mesh-integration log (driver-called; feeds the
    /// federation's causality oracle with real execution order).
    pub(crate) fn take_relay_integrations(&mut self) -> Vec<(u32, u64)> {
        match &mut self.relay {
            Some(rel) => std::mem::take(&mut rel.integration_log),
            None => Vec::new(),
        }
    }

    /// The in-order cursor for frames from `origin_shard` (next expected
    /// sequence) — what a cumulative relay ack carries back.
    pub(crate) fn relay_cursor(&self, origin_shard: u32) -> u64 {
        self.relay
            .as_ref()
            .map(|rel| rel.next_in_seq[origin_shard as usize])
            .unwrap_or(0)
    }

    /// Feed one input from node `node` through the hub and put what it
    /// queued on the links. Node `i` speaks only for site `i` (the virtual
    /// relay client's slot included): node identity stands in for an
    /// authenticated connection, so a hello naming another site is
    /// refused here. A `bound` input integrates as that site — whatever
    /// the hub's table says by now; otherwise the hub hears a stranger,
    /// and only a hello binds.
    fn integrate(
        &mut self,
        ctx: &mut Ctx<'_, ReliableMsg>,
        node: NodeId,
        bound: bool,
        msg: EditorMsg,
    ) {
        let site = SiteId(node as u32);
        let traced = self.trace.is_some().then(|| msg.clone());
        // Write-ahead ordering lives in the core: by the time an outcome
        // comes back its record is durable and mirrored to the warm
        // standby, so nothing below can broadcast an unlogged op. A crash
        // before the append is indistinguishable from the op never
        // arriving — the origin re-sends it after its hello.
        let mut sends = Vec::new();
        let step = match msg {
            msg if bound => self.hub.integrate(site, msg, &mut sends),
            EditorMsg::ClientAck(a) if a.origin != site => Step::Refused,
            msg => self.hub.on_msg(node, msg, &mut sends),
        };
        match step {
            Step::Op(out) => {
                self.ops_integrated += 1;
                if let (Some(tr), Some(EditorMsg::ClientOp(msg))) = (&mut self.trace, traced) {
                    tr.push(NotifierStep {
                        msg,
                        verdicts: out.full_verdicts(),
                        broadcasts: out.broadcast_msgs(),
                    });
                }
                let crashing = self.crash.filter(|cr| cr.at_op == self.ops_integrated);
                // Every channel is bound until the crash, so the sends are
                // the broadcasts in destination order.
                match crashing.map(|cr| cr.point) {
                    Some(CrashPoint::BeforeSend) => sends.clear(),
                    Some(CrashPoint::MidBroadcast) => sends.truncate(out.stamps.len().div_ceil(2)),
                    _ => {}
                }
                // Federation: mirror the executed form into this shard's
                // mesh replica and queue per-character relay frames for
                // the peer shards.
                self.mirror_to_relay(site, &out.executed, ctx.now.as_micros());
                // An unbound (fenced) channel got nothing: the fresh link's
                // sequence numbers would eventually slide into the zombie
                // client's acceptance window and deliver gap-skipping ops —
                // and every epoch-matching frame would reset its crash
                // detector, so it would never say hello again. The hello's
                // catch-up carries these ops instead.
                self.put(ctx, sends);
                if crashing.is_some() {
                    self.crash_and_promote(ctx);
                }
            }
            Step::Ack(_) => self.trace_ack(traced),
            // A hello integrates its frontier like any ack, and the hub
            // queued the catch-up behind it.
            Step::Bound(_) => {
                self.trace_ack(traced);
                if let Some(at @ None) = self.unfenced_at.get_mut(node - 1) {
                    *at = Some(ctx.now);
                }
                self.links[node - 1].resync_replayed += sends.len() as u64;
                self.answer_hello(ctx, node, sends);
            }
            // A frame that survived the reliable channel but violates the
            // editor protocol is hostile input, not line noise: the hub
            // evicted the site whose channel carried it — whatever origin
            // the frame claimed; dump the flight recorder and keep serving
            // everyone else.
            Step::Evicted(site, e) => {
                eprintln!("notifier rejected input from {site}: {e}");
                eprintln!("{}", self.hub.notifier().dump_recorder());
            }
            // Server-to-client frames arriving upstream, a hello that names
            // another node's site, is taken or overruns, and anything but a
            // hello from a connection nobody is bound to are nonsense. The
            // channel stays as it was.
            Step::Refused => self.links[node - 1].hostile_drops += 1,
            // A hello asking for a collected prefix integrated its frontier
            // too, stays unbound and is counted like a refusal; its answer
            // is the count alone, so an honest client whose frontier was
            // held back too far learns where to say hello from again.
            Step::Trimmed(_) => {
                self.trace_ack(traced);
                self.links[node - 1].hostile_drops += 1;
                self.answer_hello(ctx, node, sends);
            }
        }
    }

    /// Traced sessions: record an integrated ack — a hello's frontier
    /// included — at its place in the op stream.
    fn trace_ack(&mut self, msg: Option<EditorMsg>) {
        if let (Some(tr), Some(EditorMsg::ClientAck(a))) = (&self.trace, msg) {
            self.trace_acks.push((tr.len(), a));
        }
    }

    /// End the answer to node `node`'s hello — the catch-up the hub queued
    /// in `sends`, if it bound the channel — with `ServerAck{acked:
    /// integrated}`: where the client's re-sends start. The hub adds that
    /// ack only when the notifier sends acks and has integrated something;
    /// this notifier sends none, and the client needs the count even when
    /// it is 0.
    fn answer_hello(
        &mut self,
        ctx: &mut Ctx<'_, ReliableMsg>,
        node: NodeId,
        mut sends: Sends<NodeId>,
    ) {
        let site = SiteId(node as u32);
        let acked = self
            .hub
            .notifier()
            .state_vector()
            .received_from(site)
            .unwrap_or(0);
        let ack = EditorMsg::ServerAck(ServerAckMsg { acked });
        sends.push((node, Payload::encode(&ack)));
        self.put(ctx, sends);
    }

    /// Queue each send on its channel's link.
    fn put(&mut self, ctx: &mut Ctx<'_, ReliableMsg>, sends: Sends<NodeId>) {
        for (node, p) in sends {
            self.links[node - 1].queue_payload(ctx, node, RETX_TAG + node as u64 - 1, p);
        }
    }

    /// The seeded crash point was reached: the primary dies mid-stride
    /// and the warm standby is promoted in its place, behind fenced
    /// channels. Everything the dead process held in volatile memory —
    /// unacked reliability windows, parked compound batches — is lost;
    /// everything appended to the WAL survives, which is exactly the
    /// invariant the chaos suite checks.
    fn crash_and_promote(&mut self, ctx: &mut Ctx<'_, ReliableMsg>) {
        let crash = self.crash.take().expect("crash plan present");
        self.crash_at = Some(ctx.now);
        let n = self.links.len();
        // Retire the dead primary's links. The promoted incarnation
        // starts each channel fenced at the dead link's epoch with fresh
        // sequencing: every pre-crash frame is thereby zombie traffic, and
        // only a client that bumps its epoch (its crash detector firing)
        // opens a new connection.
        let fresh: Vec<ReliableLink> = self
            .links
            .iter()
            .enumerate()
            .map(|(i, old)| ReliableLink {
                epoch: old.epoch,
                fenced: true,
                batching: old.batching,
                flush_delay: old.flush_delay,
                ..ReliableLink::new(self.link_seed.wrapping_mul(7919).wrapping_add(i as u64))
            })
            .collect();
        self.retired_links = std::mem::replace(&mut self.links, fresh);
        // A poisoned standby means the WAL and the primary disagreed —
        // refusing to serve divergent state beats silent corruption. The
        // promoted notifier inherits the dead primary's black box; mark
        // the lifecycle transition on it.
        let core = self.hub.core_mut();
        let replay = core
            .promote()
            .expect("a crash plan requires the standby")
            .expect("standby poisoned at promotion");
        core.set_now(ctx.now.as_micros());
        core.note_lifecycle(
            FlightEvent::new(EventKind::Crash)
                .with_ab(self.ops_integrated, crash.point.index())
                .with_detail(crash.point.name()),
        );
        core.note_lifecycle(
            FlightEvent::new(EventKind::Promote)
                .with_ab(replay.0, n as u64)
                .with_detail("standby-promoted"),
        );
        self.promoted_replay = Some(replay);
        // The fence: the promoted incarnation has no client bound.
        for node in 1..=n {
            self.hub.unbind(node);
        }
        self.unfenced_at = vec![None; n];
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ReliableMsg>, from: NodeId, msg: ReliableMsg) {
        assert!(from >= 1, "notifier is node 0; peers are clients");
        let xi = from - 1;
        if matches!(msg.kind, ReliableKind::Data { .. }) && msg.epoch > self.links[xi].epoch {
            // A new connection: the old one is gone, and whoever it spoke
            // for must say hello again.
            self.links[xi].reset(msg.epoch);
            self.links[xi].resyncs += 1;
            self.hub.unbind(from);
        }
        if self.links[xi].fenced {
            // Zombie traffic addressed to the dead incarnation. Plain epoch
            // arithmetic cannot be trusted here: a never-reconnected
            // client's frames carry the matching epoch but sequencing state
            // the promoted link never had.
            self.fenced_drops += 1;
            return;
        }
        if msg.epoch != self.links[xi].epoch {
            return; // stale epoch
        }
        match msg.kind {
            ReliableKind::Data {
                seq,
                ack,
                checksum,
                payload,
            } => {
                // A compound frame arrives as its queued messages, in queue
                // order, all from the site bound at its arrival — a crash
                // inside the frame fences the channel for the next frame,
                // not for the rest of this one.
                let bound = self.hub.site_of(from).is_some();
                let ready = self.links[xi].on_data(ctx, from, seq, ack, checksum, payload);
                for p in ready {
                    // Checksum-valid but undecodable means a hostile or
                    // buggy peer, not transport corruption: drop the frame
                    // (nothing was decoded from it) and keep serving.
                    let mut msgs = Vec::new();
                    if decode_payload(p.chunks(), &mut msgs).is_err() {
                        self.links[xi].hostile_drops += 1;
                    }
                    for m in msgs {
                        self.integrate(ctx, from, bound, m);
                    }
                }
                // The piggybacked ack may have drained this channel's
                // in-flight window: flush anything batched behind it.
                self.links[xi].maybe_flush(ctx, from, RETX_TAG + xi as u64);
            }
            ReliableKind::Ack { ack } => {
                self.links[xi].accept_ack(ctx.now, ack);
                self.links[xi].maybe_flush(ctx, from, RETX_TAG + xi as u64);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ReliableMsg>, tag: u64) {
        if tag >= FLUSH_TAG {
            // Compound-frame flush deadline for one channel. A timer
            // armed by a since-retired link may fire on the promoted one;
            // at worst it flushes a fresh batch early.
            let xi = (tag - FLUSH_TAG) as usize;
            self.links[xi].on_flush_timer(ctx, xi + 1, RETX_TAG + xi as u64);
            return;
        }
        let xi = (tag - RETX_TAG) as usize;
        if let Some((frames, rto_us)) = self.links[xi].on_retx_timer(ctx, xi + 1, tag) {
            let peer = SiteId(xi as u32 + 1);
            self.hub.core_mut().note_retx_stall(peer, frames, rto_us);
        }
    }
}

pub(crate) struct RobustClient {
    pub(crate) inner: Box<Client>,
    pub(crate) link: ReliableLink,
    script: Vec<ScheduledEdit>,
    state: ConnState,
    auto_gc: bool,
    /// Standby session: run the crash detector (stall counting, keep-alive
    /// probes). Off for legacy sessions so their behaviour stays
    /// byte-identical.
    standby_mode: bool,
    /// Consecutive detection rounds with no downstream progress;
    /// [`CRASH_STALLS`] of them mean the notifier is presumed dead.
    stall_rounds: u32,
    /// Local operations the last hello's answer said the notifier had
    /// integrated: a lower bound the next hello's frontier starts from.
    integrated: u64,
    trace: Option<Vec<ClientEvent>>,
}

impl RobustClient {
    /// Whether the client ended the run connected (federation harvest
    /// assertion; fault-free shards must quiesce fully connected).
    pub(crate) fn is_connected(&self) -> bool {
        self.state == ConnState::Connected
    }

    fn send(&mut self, ctx: &mut Ctx<'_, ReliableMsg>, m: &EditorMsg) {
        self.link
            .queue_payload(ctx, 0, RETX_TAG, Payload::encode(m));
    }

    /// Open a new connection and say hello — the shared tail of a
    /// scheduled reconnect, of the crash detector firing and of an answer
    /// that shows the frontier was held back too far. The hello is the new
    /// epoch's first data payload, sequenced and retransmitted like any
    /// other; its frontier ([`Client::hello_frontier`]) is the cursor the
    /// catch-up starts from.
    fn begin_reconnect(&mut self, ctx: &mut Ctx<'_, ReliableMsg>) {
        let epoch = self.link.epoch + 1;
        self.link.reset(epoch);
        self.stall_rounds = 0;
        let frontier = self.inner.hello_frontier(self.integrated);
        let received = self.inner.state_vector().received();
        self.state = ConnState::Hello { frontier, received };
        let hello = ClientAckMsg {
            origin: self.inner.site(),
            received: frontier,
        };
        self.send(ctx, &EditorMsg::ClientAck(hello));
    }

    /// The `ServerAck` that ends a hello's answer: `integrated` says where
    /// the re-sends start. The frontier was exact if it is the one that
    /// count gives; only then was it surely served — a frontier held back
    /// below operations the notifier had in fact integrated may have asked
    /// for a collected prefix, and the hub then binds nothing. A short one
    /// says hello again, exactly.
    fn on_answer(&mut self, ctx: &mut Ctx<'_, ReliableMsg>, integrated: u64) {
        let ConnState::Hello { frontier, received } = self.state else {
            return; // a streaming client ignores every other ack
        };
        self.integrated = integrated;
        if frontier < self.inner.hello_frontier(integrated).min(received) {
            self.begin_reconnect(ctx);
            return;
        }
        self.state = ConnState::Connected;
        self.link.resyncs += 1;
        for c in self.inner.unacked_local_since(integrated) {
            self.send(ctx, &EditorMsg::ClientOp(c));
        }
    }

    /// One stall round of the crash detector (standby sessions): enough in
    /// a row and the notifier is presumed dead, so say hello again in a
    /// bumped epoch (which is also what un-fences this channel on a
    /// promoted standby).
    fn stalled(&mut self, ctx: &mut Ctx<'_, ReliableMsg>) {
        self.stall_rounds += 1;
        if self.stall_rounds >= CRASH_STALLS {
            self.begin_reconnect(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, ReliableMsg>, msg: ReliableMsg) {
        if self.state == ConnState::Disconnected {
            return; // offline: the NIC is unplugged
        }
        match msg.kind {
            ReliableKind::Data {
                seq,
                ack,
                checksum,
                payload,
            } => {
                if msg.epoch != self.link.epoch {
                    return;
                }
                // Any epoch-matching downstream frame proves the notifier
                // is alive: reset the crash detector.
                self.stall_rounds = 0;
                let ready = self.link.on_data(ctx, 0, seq, ack, checksum, payload);
                let mut msgs = Vec::new();
                for p in ready {
                    // Checksum-valid but undecodable: hostile or buggy
                    // notifier — drop the frame and keep editing.
                    if decode_payload(p.chunks(), &mut msgs).is_err() {
                        self.link.hostile_drops += 1;
                        continue;
                    }
                    // A compound frame arrives as its queued messages, in
                    // queue order.
                    for m in msgs.drain(..) {
                        match m {
                            // The catch-up repeats what the replica
                            // executed past its hello's frontier.
                            EditorMsg::ServerOp(m)
                                if matches!(self.state, ConnState::Hello { .. })
                                    && m.stamp.get(1) <= self.inner.state_vector().received() => {}
                            EditorMsg::ServerOp(m) => {
                                match self.inner.try_on_server_op(m.clone()) {
                                    Ok(out) => {
                                        if let Some(tr) = &mut self.trace {
                                            tr.push(ClientEvent::Remote {
                                                msg: m,
                                                checked: out.checked,
                                            });
                                        }
                                        if self.auto_gc {
                                            self.inner.gc();
                                        }
                                    }
                                    Err(e) => {
                                        // A server op that violates the protocol
                                        // is dropped; the client stays usable
                                        // offline.
                                        eprintln!(
                                            "client {} rejected server op: {e}",
                                            self.inner.site()
                                        );
                                        eprintln!("{}", self.inner.dump_recorder());
                                        self.link.hostile_drops += 1;
                                    }
                                }
                            }
                            EditorMsg::ServerAck(a) => self.on_answer(ctx, a.acked),
                            // Client-to-server frames arriving downstream are
                            // nonsense; drop rather than crash.
                            _ => self.link.hostile_drops += 1,
                        }
                    }
                }
                // A quiet client still owes the notifier a periodic bare
                // ack, or its frozen watermark would starve the GC. NOT
                // while the hello's answer is still arriving though: an
                // ack covering the catch-up would overtake the un-acked
                // local ops the closing `ServerAck` releases — the
                // notifier would prune exactly the pending context those
                // ops still transform against. The ack stays latched and
                // goes out behind the re-sent ops.
                if self.state == ConnState::Connected {
                    if let Some(a) = self.inner.take_pending_ack() {
                        self.send(ctx, &EditorMsg::ClientAck(a));
                    }
                }
                // The piggybacked ack may have drained the in-flight
                // window: flush anything batched behind it.
                self.link.maybe_flush(ctx, 0, RETX_TAG);
            }
            ReliableKind::Ack { ack } => {
                if msg.epoch == self.link.epoch {
                    self.stall_rounds = 0;
                    self.link.accept_ack(ctx.now, ack);
                    self.link.maybe_flush(ctx, 0, RETX_TAG);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ReliableMsg>, tag: u64) {
        match tag {
            RETX_TAG => {
                if let Some((frames, rto_us)) = self.link.on_retx_timer(ctx, 0, tag) {
                    self.inner.note_retx_stall(frames, rto_us);
                    // A genuine stall with zero ack progress since the
                    // last one — the hello's own included.
                    if self.standby_mode && self.state != ConnState::Disconnected {
                        self.stalled(ctx);
                    }
                }
            }
            FLUSH_TAG => {
                if self.state == ConnState::Connected {
                    self.link.on_flush_timer(ctx, 0, RETX_TAG);
                } else {
                    // Offline or saying hello: the pending batch died with
                    // the epoch, and the hello's answer re-covers it.
                    self.link.flush_armed = false;
                }
            }
            PROBE_TAG => {
                let idle = self.link.in_flight() == 0 && self.link.pending_out.is_empty();
                if !self.standby_mode || !idle {
                    return;
                }
                match self.state {
                    // Keep-alive: a quiet client owes the notifier periodic
                    // traffic, or a crashed primary would go unnoticed until
                    // the next edit. A bare cumulative ack is idempotent at
                    // the editor layer and cheap on the wire.
                    ConnState::Connected => {
                        let a = ClientAckMsg {
                            origin: self.inner.site(),
                            received: self.inner.state_vector().received(),
                        };
                        self.send(ctx, &EditorMsg::ClientAck(a));
                    }
                    // The hello was taken but its answer went quiet: the
                    // notifier that took it may have died with the answer
                    // unsent, and an ack now would overtake the re-sends.
                    // Count the silence instead.
                    ConnState::Hello { .. } => self.stalled(ctx),
                    ConnState::Disconnected => {}
                }
            }
            DISCONNECT_TAG => {
                self.state = ConnState::Disconnected;
            }
            RECONNECT_TAG => {
                self.begin_reconnect(ctx);
            }
            k => {
                // A scheduled edit. It always applies locally; it goes on
                // the wire only while connected — otherwise the re-sends
                // after the hello (driven by the notifier's integrated
                // count) cover it, and sending now would double-transmit.
                if let Some(c) = self.script[k as usize].intent.apply_to(&mut self.inner) {
                    if let Some(tr) = &mut self.trace {
                        tr.push(ClientEvent::Local(c.clone()));
                    }
                    if self.state == ConnState::Connected {
                        self.send(ctx, &EditorMsg::ClientOp(c));
                    }
                }
            }
        }
    }
}

pub(crate) enum RobustNode {
    Notifier(Box<RobustNotifier>),
    Client(Box<RobustClient>),
}

impl RobustNode {
    /// The shard notifier (node 0 of a federation shard simulator).
    ///
    /// These accessors encode a *construction* invariant of the crate's
    /// own driver (`build_shard_sim` always places the notifier at node
    /// 0), not a remote-input path — no wire bytes can steer which
    /// variant lives where, so `unreachable!` here is consistent with
    /// the §12 panic-free-on-remote-input policy.
    pub(crate) fn as_notifier(&self) -> &RobustNotifier {
        match self {
            RobustNode::Notifier(n) => n,
            RobustNode::Client(_) => unreachable!("node is a client, not the notifier"),
        }
    }

    /// Mutable access for the federation driver's barrier exchange.
    pub(crate) fn as_notifier_mut(&mut self) -> &mut RobustNotifier {
        match self {
            RobustNode::Notifier(n) => n,
            RobustNode::Client(_) => unreachable!("node is a client, not the notifier"),
        }
    }

    /// The client at this node (federation harvest).
    pub(crate) fn as_client(&self) -> &RobustClient {
        match self {
            RobustNode::Client(c) => c,
            RobustNode::Notifier(_) => unreachable!("node is the notifier, not a client"),
        }
    }
}

impl Node<ReliableMsg> for RobustNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_, ReliableMsg>, from: NodeId, msg: ReliableMsg) {
        // Stamp the virtual clock onto the site's flight recorder before
        // delegating, so events recorded inside carry sim time.
        match self {
            RobustNode::Notifier(n) => {
                n.hub.core_mut().set_now(ctx.now.as_micros());
                n.on_message(ctx, from, msg)
            }
            RobustNode::Client(c) => {
                c.inner.set_now(ctx.now.as_micros());
                c.on_message(ctx, msg)
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, ReliableMsg>, tag: u64) {
        match self {
            RobustNode::Notifier(n) => {
                n.hub.core_mut().set_now(ctx.now.as_micros());
                n.on_timer(ctx, tag)
            }
            RobustNode::Client(c) => {
                c.inner.set_now(ctx.now.as_micros());
                c.on_timer(ctx, tag)
            }
        }
    }
}

/// Run a star/CVC session over the reliability layer and report. The
/// network faults come from [`SessionConfig::fault_plan`]; scheduled
/// outages from [`SessionConfig::disconnects`].
pub fn run_robust_session(cfg: &SessionConfig) -> SessionReport {
    run_robust_inner(cfg, false).0
}

/// As [`run_robust_session`], also recording a full [`SessionTrace`] for
/// oracle replay.
pub fn run_robust_session_traced(cfg: &SessionConfig) -> (SessionReport, SessionTrace) {
    let (report, trace) = run_robust_inner(cfg, true);
    (report, trace.expect("trace requested"))
}

/// One shard of a multi-notifier federation: its simulator plus the
/// construction facts the federation driver needs for stepping, barrier
/// exchange, and harvest.
pub(crate) struct ShardSim {
    /// The shard's own star/CVC world: notifier at node 0, its local
    /// clients at nodes `1..=n_local`.
    pub(crate) sim: Simulator<ReliableMsg, RobustNode>,
    /// Real clients hosted on this shard.
    pub(crate) n_local: usize,
    /// Virtual time of this shard's last scripted edit (µs).
    pub(crate) last_edit_us: u64,
}

/// The simulated star both session shapes run on: the (possibly faulty)
/// network, `notifier` at node 0, one scripted client per workload site
/// at nodes `1..`, and every scripted edit scheduled. Also returns the
/// virtual time of the last scripted edit (µs).
fn build_star(
    cfg: &SessionConfig,
    mut notifier: RobustNotifier,
    traced: bool,
) -> (Simulator<ReliableMsg, RobustNode>, u64) {
    let scripts = cfg.workload.generate();
    let mut sim: Simulator<ReliableMsg, RobustNode> = Simulator::new(cfg.latency, cfg.net_seed);
    sim.set_default_bandwidth(cfg.bandwidth_bytes_per_sec);
    let plan = cfg.fault_plan.unwrap_or(FaultPlan::NONE);
    if !plan.is_none() {
        sim.set_default_fault_plan(plan);
    }
    if plan.corrupt > 0.0 {
        // In-flight corruption flips one payload bit; the frame checksum
        // catches it on arrival.
        sim.set_corruptor(|msg: &mut ReliableMsg, rng: &mut SmallRng| {
            if let ReliableKind::Data { payload, .. } = &mut msg.kind {
                if !payload.is_empty() {
                    let i = rng.gen_range(0..payload.len());
                    payload.flip_bit(i, rng.gen_range(0..8u8));
                }
            }
        });
    }
    for i in 0..scripts.len() {
        notifier.hub.bind(1 + i, SiteId(i as u32 + 1));
    }
    sim.add_node(RobustNode::Notifier(Box::new(notifier)));
    for (i, script) in scripts.iter().enumerate() {
        sim.add_node(RobustNode::Client(Box::new(RobustClient {
            inner: Box::new(cfg.client(SiteId(i as u32 + 1))),
            link: cfg.link(cfg.net_seed.wrapping_mul(1001).wrapping_add(i as u64)),
            script: script.clone(),
            state: ConnState::Connected,
            auto_gc: cfg.auto_gc,
            standby_mode: cfg.standby,
            stall_rounds: 0,
            integrated: 0,
            trace: traced.then(Vec::new),
        })));
        for (k, edit) in script.iter().enumerate() {
            sim.schedule_timer(1 + i, edit.at, k as u64);
        }
    }
    let last_edit_us = scripts
        .iter()
        .flat_map(|s| s.iter().map(|e| e.at.as_micros()))
        .max()
        .unwrap_or(0);
    (sim, last_edit_us)
}

/// Build one federation shard: a star/CVC session whose notifier carries
/// `n_local + 1` client slots — the extra, never-bound slot is the
/// *virtual relay client* through which peer-shard operations enter this
/// star (see [`crate::relay`] for the federation model).
/// `cfg.workload.n_sites` is the number of real clients on this shard.
pub(crate) fn build_shard_sim(
    cfg: &SessionConfig,
    shard: u32,
    n_shards: u32,
    traced: bool,
) -> ShardSim {
    assert!(n_shards >= 1 && shard < n_shards, "shard id in range");
    assert!(
        cfg.crash.is_none(),
        "federation shards do not run crash plans (per-shard failover is a \
         separate concern; see DESIGN §16)"
    );
    let n_local = cfg.workload.n_sites;
    assert!(n_local >= 1, "a shard hosts at least one client");
    let slots = n_local + 1; // + the virtual relay client
                             // The virtual slot is never bound: its broadcasts are silently skipped
                             // (the mesh relay carries them instead) and no node exists at its
                             // address.
    let mut notifier = RobustNotifier::new(cfg, slots, traced);
    notifier.relay = Some(Box::new(RelayState::new(
        shard,
        n_shards,
        n_local,
        &cfg.initial_doc,
    )));
    let (sim, last_edit_us) = build_star(cfg, notifier, traced);
    ShardSim {
        sim,
        n_local,
        last_edit_us,
    }
}

fn run_robust_inner(cfg: &SessionConfig, traced: bool) -> (SessionReport, Option<SessionTrace>) {
    assert_eq!(
        cfg.deployment,
        Deployment::StarCvc,
        "the reliability layer wraps the star/CVC deployment"
    );
    assert_eq!(
        cfg.client_mode,
        ClientMode::Streaming,
        "robust sessions run streaming clients"
    );
    assert!(
        cfg.crash.is_none() || cfg.standby,
        "a notifier crash plan requires the warm standby (cfg.standby)"
    );
    if let Some(crash) = cfg.crash {
        assert!(
            crash.at_op >= 1,
            "crash points are 1-based integration counts"
        );
    }
    let n = cfg.workload.n_sites;
    assert!(n >= 2, "sessions need at least two clients");
    let (mut sim, last_edit) = build_star(cfg, RobustNotifier::new(cfg, n, traced), traced);
    sim.record_deliveries(cfg.record_deliveries);
    for spec in &cfg.disconnects {
        assert!(spec.client < n, "disconnect spec for unknown client");
        assert!(spec.down.as_micros() > 0, "zero-length outage");
        sim.schedule_timer(1 + spec.client, spec.at, DISCONNECT_TAG);
        sim.schedule_timer(1 + spec.client, spec.at + spec.down, RECONNECT_TAG);
    }
    if cfg.standby {
        // Keep-alive probes for the crash detector. Pre-scheduled and
        // bounded — the simulator must quiesce, so nodes cannot re-arm
        // their own heartbeat forever. The horizon covers the scripted
        // workload plus worst-case detection and the hello.
        let mut t = PROBE_INTERVAL_US;
        while t <= last_edit + PROBE_MARGIN_US {
            for i in 0..n {
                sim.schedule_timer(1 + i, SimTime::from_micros(t), PROBE_TAG);
            }
            t += PROBE_INTERVAL_US;
        }
    }

    sim.run();

    // Harvest. Latency joins need both ends of each link, so collect the
    // send/delivery logs first.
    let mut delivery_latencies_us = Vec::new();
    {
        let nodes = sim.nodes();
        let RobustNode::Notifier(rn) = &nodes[0] else {
            unreachable!("node 0 is the notifier");
        };
        for (i, nlink) in rn.links.iter().enumerate() {
            let RobustNode::Client(rc) = &nodes[1 + i] else {
                unreachable!("nodes 1.. are clients");
            };
            // A crashed session has two notifier incarnations per channel;
            // their epoch ranges are disjoint (the promoted link only ever
            // sends in bumped epochs), so the logs join without conflict.
            let old = rn.retired_links.get(i);
            let mut sent: HashMap<(u32, u64), SimTime> = nlink
                .first_sent
                .iter()
                .map(|&(e, s, t)| ((e, s), t))
                .collect();
            if let Some(o) = old {
                sent.extend(o.first_sent.iter().map(|&(e, s, t)| ((e, s), t)));
            }
            for &(e, s, t1) in rc.link.delivered.iter() {
                if let Some(&t0) = sent.get(&(e, s)) {
                    delivery_latencies_us.push((t1 - t0).as_micros());
                }
            }
            let sent: HashMap<(u32, u64), SimTime> = rc
                .link
                .first_sent
                .iter()
                .map(|&(e, s, t)| ((e, s), t))
                .collect();
            let old_delivered = old.map(|o| o.delivered.iter()).into_iter().flatten();
            for &(e, s, t1) in nlink.delivered.iter().chain(old_delivered) {
                if let Some(&t0) = sent.get(&(e, s)) {
                    delivery_latencies_us.push((t1 - t0).as_micros());
                }
            }
        }
    }

    let mut r = SessionReport {
        max_stamp_integers: 2,
        delivery_latencies_us,
        ..SessionReport::default()
    };
    let mut trace = traced.then(SessionTrace::default);
    for node in sim.nodes_mut() {
        match node {
            RobustNode::Notifier(rn) => {
                let mut m = *rn.hub.notifier().metrics();
                // The dead primary's retired links legitimately ended with
                // frames in flight — that is the crash under test.
                for l in &rn.retired_links {
                    l.fold_into(&mut m);
                }
                for l in &rn.links {
                    if cfg.crash.is_none() {
                        assert_eq!(l.in_flight(), 0, "notifier left frames unacked");
                        assert!(l.pending_out.is_empty(), "notifier left frames unflushed");
                    }
                    l.fold_into(&mut m);
                }
                r.centre_metrics = Some(m);
                let notifier = rn.hub.notifier();
                r.final_docs.push(notifier.doc());
                r.max_history_len = r.max_history_len.max(notifier.history().len());
                if let (Some(tr), Some(steps)) = (&mut trace, rn.trace.take()) {
                    tr.notifier = steps;
                    tr.notifier_acks = std::mem::take(&mut rn.trace_acks);
                    tr.wal_image = rn
                        .hub
                        .core()
                        .wal()
                        .map_or_else(Vec::new, |w| w.bytes().to_vec());
                }
                if cfg.flight_recorder {
                    r.flight_traces
                        .push((SiteId(0), notifier.recorder().events()));
                }
                if let Some(crash_at) = rn.crash_at {
                    let wal = rn.hub.core().wal().expect("a crash implies the WAL");
                    let recovered_at = rn
                        .unfenced_at
                        .iter()
                        .copied()
                        .collect::<Option<Vec<_>>>()
                        .and_then(|ts| ts.into_iter().max());
                    let (replay_ops, replay_acks) = rn.promoted_replay.unwrap_or((0, 0));
                    r.failover = Some(FailoverReport {
                        crash_at_us: crash_at.as_micros(),
                        recovered_at_us: recovered_at.map(|t| t.as_micros()),
                        resynced_clients: rn.unfenced_at.iter().filter(|t| t.is_some()).count(),
                        standby_replay_ops: replay_ops,
                        standby_replay_acks: replay_acks,
                        wal_appends: wal.appends(),
                        wal_bytes: wal.bytes_appended(),
                        wal_live_bytes: wal.live_bytes() as u64,
                        snapshot_compactions: wal.compactions(),
                        wal_amplification: wal.amplification(),
                        fenced_drops: rn.fenced_drops,
                    });
                }
            }
            RobustNode::Client(rc) => {
                // A crash session may legitimately end un-clean when the
                // failure is under test; convergence (checked below) and
                // the failover report carry the verdict instead of an
                // abort here.
                if cfg.crash.is_none() {
                    assert_eq!(
                        rc.state,
                        ConnState::Connected,
                        "client left disconnected or mid-hello at quiescence"
                    );
                    assert_eq!(rc.link.in_flight(), 0, "client left frames unacked");
                    assert!(
                        rc.link.pending_out.is_empty(),
                        "client left frames unflushed"
                    );
                }
                let mut m = *rc.inner.metrics();
                rc.link.fold_into(&mut m);
                r.client_metrics.push(m);
                r.final_docs.push(rc.inner.doc().to_owned());
                r.max_history_len = r.max_history_len.max(rc.inner.history().len());
                if let (Some(tr), Some(events)) = (&mut trace, rc.trace.take()) {
                    tr.clients.push(events);
                }
                if cfg.flight_recorder {
                    r.flight_traces
                        .push((rc.inner.site(), rc.inner.recorder().events()));
                }
            }
        }
    }
    (r.finish(cfg, &sim), trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::notifier::Notifier;
    use cvc_core::state_vector::CompressedStamp;
    use cvc_ot::pos::PosOp;
    use cvc_ot::seq::SeqOp;
    use cvc_sim::fault::FlapSpec;
    use cvc_sim::latency::LatencyModel;

    #[test]
    fn payload_checksum_covers_both_chunks() {
        let whole = Payload::from_vec(vec![1, 2, 3, 4, 5, 6]);
        let split = Payload::from_parts(vec![1, 2, 3], vec![4, 5, 6].into());
        assert_eq!(whole, split, "same logical bytes");
        assert_eq!(payload_checksum(&whole), payload_checksum(&split));
    }

    /// Under fan-out load the notifier's links queue behind in-flight
    /// frames, so compound framing must coalesce: strictly fewer data
    /// frames than editor messages. With it disabled the two counters
    /// match exactly (one frame per message), and both runs converge.
    #[test]
    fn compound_framing_coalesces_under_load() {
        let mut cfg = robust_cfg(6, 23);
        cfg.workload.ops_per_site = 20;
        let batched = run_robust_session(&cfg);
        assert!(batched.converged, "{:?}", batched.final_docs);
        let bt = batched.total_metrics();
        assert!(
            bt.data_frames_sent < bt.editor_msgs_sent,
            "no coalescing happened: {} frames for {} msgs",
            bt.data_frames_sent,
            bt.editor_msgs_sent
        );

        cfg.compound_frames = false;
        let plain = run_robust_session(&cfg);
        assert!(plain.converged, "{:?}", plain.final_docs);
        let pt = plain.total_metrics();
        assert_eq!(
            pt.data_frames_sent, pt.editor_msgs_sent,
            "unbatched sends one frame per message"
        );
        // Identical editor-layer work (bare ack keep-alives are timing-
        // dependent, so compare the op-level counter), fewer wire bytes
        // with batching: fewer reliable headers + checksums for the same
        // payloads.
        assert_eq!(bt.messages_sent, pt.messages_sent);
        assert!(
            batched.net.bytes < plain.net.bytes,
            "batched {} B vs unbatched {} B",
            batched.net.bytes,
            plain.net.bytes
        );
    }

    /// A serial workload over a clean link never queues (each frame is
    /// acked before the next op exists), so batching on/off must produce
    /// byte-identical sessions — the immediate-send fast path is exact.
    #[test]
    fn serial_workload_is_byte_identical_with_and_without_batching() {
        let mut cfg = robust_cfg(3, 37);
        cfg.workload.ops_per_site = 6;
        cfg.workload.mean_gap_us = 5_000_000; // ≫ RTT: strictly serial
        let on = run_robust_session(&cfg);
        cfg.compound_frames = false;
        let off = run_robust_session(&cfg);
        assert!(on.converged && off.converged);
        assert_eq!(on.final_doc, off.final_doc);
        assert_eq!(on.net.bytes, off.net.bytes, "identical wire traffic");
        assert_eq!(on.net.messages, off.net.messages);
        assert_eq!(on.quiesced_at, off.quiesced_at);
        let (a, b) = (on.total_metrics(), off.total_metrics());
        assert_eq!(a.data_frames_sent, b.data_frames_sent);
        assert_eq!(a.editor_msgs_sent, b.editor_msgs_sent);
    }

    /// Batched sessions under loss must still converge and pass the same
    /// audits as unbatched ones (the chaos harness re-checks this against
    /// the causality oracle; here we pin convergence + accounting).
    #[test]
    fn lossy_batched_sessions_converge() {
        let mut cfg = robust_cfg(5, 61);
        cfg.workload.ops_per_site = 16;
        cfg.fault_plan = Some(FaultPlan::lossy(0.05));
        let r = run_robust_session(&cfg);
        assert!(r.converged, "{:?}", r.final_docs);
        let t = r.total_metrics();
        assert!(t.retransmits > 0, "loss must force retransmits");
        assert!(
            t.data_frames_sent <= t.editor_msgs_sent,
            "frames can never exceed messages"
        );
    }

    fn round_trip(msg: &ReliableMsg) {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        assert_eq!(buf.len(), msg.wire_bytes(), "size must match for {msg:?}");
        let mut slice = &buf[..];
        let back = ReliableMsg::decode(&mut slice).expect("decode");
        assert!(slice.is_empty(), "decode must consume all bytes");
        assert_eq!(&back, msg);
    }

    #[test]
    fn reliable_frames_round_trip() {
        round_trip(&ReliableMsg {
            epoch: 0,
            kind: ReliableKind::Data {
                seq: 300,
                ack: 7,
                checksum: frame_checksum(&[&[1, 2, 3]]),
                payload: Payload::from_vec(vec![1, 2, 3]),
            },
        });
        round_trip(&ReliableMsg {
            epoch: 2,
            kind: ReliableKind::Ack { ack: 12 },
        });
    }

    #[test]
    fn truncated_frames_are_rejected_not_panicked() {
        let msg = ReliableMsg {
            epoch: 1,
            kind: ReliableKind::Data {
                seq: 5,
                ack: 2,
                checksum: 0xdead_beef,
                payload: Payload::from_vec(vec![9; 40]),
            },
        };
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        for cut in 0..buf.len() {
            let mut slice = &buf[..cut];
            assert!(
                ReliableMsg::decode(&mut slice).is_err(),
                "cut at {cut} decoded cleanly"
            );
        }
        // Tag byte + epoch varint, then an unknown tag is reported as such.
        let mut bad: &[u8] = &[0x2a, 0x00];
        assert_eq!(ReliableMsg::decode(&mut bad), Err(WireError::BadTag(0x2a)));
        let mut empty: &[u8] = &[];
        assert_eq!(ReliableMsg::decode(&mut empty), Err(WireError::Truncated));
    }

    #[test]
    fn overlong_payload_length_is_truncation_not_allocation() {
        // Claim a 2^40-byte payload with 3 actual bytes behind it.
        let mut buf = Vec::new();
        buf.put_u8(TAG_DATA);
        put_varint(&mut buf, 0); // epoch
        put_varint(&mut buf, 1); // seq
        put_varint(&mut buf, 0); // ack
        put_varint(&mut buf, 0); // checksum
        put_varint(&mut buf, 1 << 40); // payload length
        buf.extend_from_slice(&[1, 2, 3]);
        let mut slice = &buf[..];
        assert_eq!(ReliableMsg::decode(&mut slice), Err(WireError::Truncated));
    }

    fn robust_cfg(n: usize, seed: u64) -> SessionConfig {
        let mut cfg = SessionConfig::small(Deployment::StarCvc, n, seed);
        cfg.reliable = true;
        cfg
    }

    #[test]
    fn clean_network_robust_session_converges_without_retransmits() {
        let r = run_robust_session(&robust_cfg(4, 11));
        assert!(r.converged, "{:?}", r.final_docs);
        let total = r.total_metrics();
        assert_eq!(total.retransmits, 0);
        assert_eq!(total.dup_drops, 0);
        assert_eq!(total.checksum_drops, 0);
        assert!(r.fault_stats.is_clean());
        assert!(!r.delivery_latencies_us.is_empty());
    }

    #[test]
    fn lossy_links_converge_via_retransmission() {
        let mut cfg = robust_cfg(4, 5);
        cfg.workload.ops_per_site = 12;
        cfg.fault_plan = Some(FaultPlan {
            drop: 0.15,
            duplicate: 0.1,
            reorder: 0.1,
            reorder_extra_us: 40_000,
            ..FaultPlan::NONE
        });
        let r = run_robust_session(&cfg);
        assert!(r.converged, "{:?}", r.final_docs);
        let total = r.total_metrics();
        assert!(total.retransmits > 0, "drops must force retransmits");
        assert!(
            total.dup_drops > 0,
            "duplicates and go-back-N must hit the dedup path"
        );
        assert!(r.fault_stats.dropped > 0);
    }

    #[test]
    fn corruption_is_caught_by_checksums() {
        let mut cfg = robust_cfg(3, 8);
        cfg.workload.ops_per_site = 10;
        cfg.fault_plan = Some(FaultPlan {
            corrupt: 0.2,
            ..FaultPlan::NONE
        });
        let r = run_robust_session(&cfg);
        assert!(r.converged, "{:?}", r.final_docs);
        let total = r.total_metrics();
        assert!(
            total.checksum_drops > 0,
            "corruptor ran: {:?}",
            r.fault_stats
        );
        // Corruption draws also hit Ack frames (where the corruptor is a
        // no-op), so checksum drops are bounded by, not equal to, the
        // injected count.
        assert!(total.checksum_drops <= r.fault_stats.corrupted);
    }

    #[test]
    fn link_flap_is_survived() {
        let mut cfg = robust_cfg(3, 21);
        cfg.workload.ops_per_site = 10;
        cfg.fault_plan = Some(FaultPlan {
            flap: Some(FlapSpec {
                period_us: 700_000,
                down_us: 200_000,
                offset_us: 100_000,
            }),
            ..FaultPlan::NONE
        });
        let r = run_robust_session(&cfg);
        assert!(r.converged, "{:?}", r.final_docs);
        assert!(r.fault_stats.flap_dropped > 0);
        assert!(r.total_metrics().retransmits > 0);
    }

    #[test]
    fn disconnected_client_resyncs_and_converges() {
        let mut cfg = robust_cfg(4, 3);
        cfg.workload.ops_per_site = 15;
        // Knock client 2 out for a stretch in the middle of the session;
        // it keeps editing offline.
        cfg.disconnects = vec![DisconnectSpec {
            client: 1,
            at: SimTime::from_millis(400),
            down: SimDuration::from_millis(900),
        }];
        let r = run_robust_session(&cfg);
        assert!(r.converged, "{:?}", r.final_docs);
        let total = r.total_metrics();
        assert!(total.resyncs >= 2, "served + completed: {}", total.resyncs);
        assert!(
            total.resync_replayed > 0,
            "the notifier must replay the missed suffix"
        );
        let centre = r.centre_metrics.expect("star has a centre");
        assert!(centre.robustness_summary().is_some());
    }

    /// A client that edits only while it is away: the notifier has
    /// integrated none of its ops when it says hello, so the hub's answer
    /// alone (no ack when the count is 0) would leave it waiting forever.
    /// The closing `ServerAck{acked: 0}` is what releases its re-sends.
    #[test]
    fn ops_made_entirely_offline_converge_after_the_hello() {
        let mut cfg = robust_cfg(3, 47);
        cfg.workload.ops_per_site = 6;
        let scripts = cfg.workload.generate();
        let last = scripts[0]
            .iter()
            .map(|e| e.at)
            .max()
            .expect("client 0 edits");
        assert!(scripts[0].iter().all(|e| e.at > SimTime::ZERO));
        cfg.disconnects = vec![DisconnectSpec {
            client: 0,
            at: SimTime::ZERO,
            down: SimDuration::from_micros(last.as_micros() + 100_000),
        }];
        let r = run_robust_session(&cfg);
        assert!(r.converged, "{:?}", r.final_docs);
        let c0 = &r.client_metrics[0];
        assert_eq!(c0.ops_generated, 6);
        assert_eq!(c0.resyncs, 1, "one hello, one answer");
        assert!(r.final_doc.len() > cfg.initial_doc.len());
    }

    /// An honest client that does not know its in-flight ops were
    /// integrated holds its hello's frontier back to their stamps; when
    /// the collector already trimmed past that, the hub binds nothing and
    /// the answer is the count alone — the client says hello again from
    /// the exact frontier. More connections than completed handshakes.
    #[test]
    fn a_frontier_held_back_too_far_says_hello_again() {
        let mut cfg = robust_cfg(4, 3);
        cfg.workload.ops_per_site = 15;
        cfg.disconnects = vec![DisconnectSpec {
            client: 1,
            at: SimTime::from_millis(400),
            down: SimDuration::from_millis(900),
        }];
        let r = run_robust_session(&cfg);
        assert!(r.converged, "{:?}", r.final_docs);
        let centre = r.centre_metrics.expect("star has a centre");
        let c1 = &r.client_metrics[1];
        assert_eq!(c1.resyncs, 1, "one completed handshake");
        assert_eq!(centre.resyncs, 2, "two connections: short, then exact");
        assert_eq!(centre.protocol_errors, 1, "the trimmed hello is counted");
    }

    /// Node identity stands in for an authenticated connection: a hello
    /// on node 1 naming site 2 is hostile, binds nothing, and leaves site
    /// 2's own channel alone.
    #[test]
    fn a_hello_naming_another_nodes_site_binds_nothing() {
        let mut cfg = robust_cfg(3, 5);
        cfg.workload.ops_per_site = 0;
        let (mut sim, _) = build_star(&cfg, RobustNotifier::new(&cfg, 3, false), false);
        let hello = ClientAckMsg {
            origin: SiteId(2),
            received: 0,
        };
        let frame = data_frame(Payload::encode(&EditorMsg::ClientAck(hello)));
        sim.inject_send(1, 0, ReliableMsg { epoch: 1, ..frame });
        sim.run();
        let RobustNode::Notifier(node) = sim.node(0) else {
            unreachable!("node 0 is the notifier");
        };
        assert_eq!(node.links[0].hostile_drops, 1);
        assert_eq!(
            node.hub.site_of(1),
            None,
            "the new connection speaks for nobody"
        );
        assert_eq!(node.hub.channel_of(SiteId(1)), None);
        assert_eq!(node.hub.site_of(2), Some(SiteId(2)));
        assert_eq!(node.links[0].resync_replayed, 0, "no catch-up was served");
    }

    /// Once a new connection has said hello, a frame of the old epoch is a
    /// straggler of a connection that is gone: dropped, not integrated.
    #[test]
    fn old_epoch_frames_after_the_hello_are_dropped() {
        let mut cfg = robust_cfg(3, 5);
        cfg.workload.ops_per_site = 0;
        let (mut sim, _) = build_star(&cfg, RobustNotifier::new(&cfg, 3, false), false);
        sim.schedule_timer(1, SimTime::from_millis(1), RECONNECT_TAG);
        sim.run();
        let RobustNode::Client(client) = sim.node(1) else {
            unreachable!("node 1 is a client");
        };
        assert!(client.is_connected() && client.link.epoch == 1);
        let op = Client::new(SiteId(1), &cfg.initial_doc).insert(0, "Z");
        sim.inject_send(1, 0, data_frame(Payload::encode(&EditorMsg::ClientOp(op))));
        sim.run();
        let RobustNode::Notifier(node) = sim.node(0) else {
            unreachable!("node 0 is the notifier");
        };
        assert_eq!(node.links[0].epoch, 1);
        assert_eq!(node.hub.site_of(1), Some(SiteId(1)), "the hello bound it");
        assert_eq!(node.ops_integrated, 0);
        assert_eq!(node.hub.notifier().doc(), cfg.initial_doc);
    }

    #[test]
    fn repeated_outages_of_multiple_clients_converge() {
        let mut cfg = robust_cfg(5, 77);
        cfg.workload.ops_per_site = 12;
        cfg.fault_plan = Some(FaultPlan::lossy(0.05));
        cfg.disconnects = vec![
            DisconnectSpec {
                client: 0,
                at: SimTime::from_millis(300),
                down: SimDuration::from_millis(500),
            },
            DisconnectSpec {
                client: 3,
                at: SimTime::from_millis(600),
                down: SimDuration::from_millis(700),
            },
            DisconnectSpec {
                client: 0,
                at: SimTime::from_millis(1600),
                down: SimDuration::from_millis(400),
            },
        ];
        let r = run_robust_session(&cfg);
        assert!(r.converged, "{:?}", r.final_docs);
        assert!(r.total_metrics().resyncs >= 6);
    }

    #[test]
    fn traced_run_records_every_integration() {
        let mut cfg = robust_cfg(3, 13);
        cfg.workload.ops_per_site = 6;
        cfg.fault_plan = Some(FaultPlan::lossy(0.1));
        let (r, trace) = run_robust_session_traced(&cfg);
        assert!(r.converged);
        let locals: usize = trace.clients.iter().flatten().fold(0, |acc, e| {
            acc + usize::from(matches!(e, ClientEvent::Local(_)))
        });
        assert_eq!(
            trace.notifier.len(),
            locals,
            "every generated op is integrated exactly once"
        );
        let remotes: usize = trace.clients.iter().flatten().fold(0, |acc, e| {
            acc + usize::from(matches!(e, ClientEvent::Remote { .. }))
        });
        let broadcast_total: usize = trace.notifier.iter().map(|s| s.broadcasts.len()).sum();
        assert_eq!(remotes, broadcast_total, "every broadcast executes once");
    }

    #[test]
    fn partition_window_is_survived() {
        // Directed simulator partition (both directions) between the
        // notifier and client 1 for a window mid-session.
        let mut cfg = robust_cfg(3, 41);
        cfg.workload.ops_per_site = 10;
        // No probabilistic faults: the outage alone must be recovered by
        // retransmission once it lifts (a partition is a one-shot flap).
        cfg.fault_plan = Some(FaultPlan {
            flap: Some(FlapSpec {
                period_us: 100_000_000, // one cycle: effectively one outage
                down_us: 800_000,
                offset_us: 500_000,
            }),
            ..FaultPlan::NONE
        });
        let r = run_robust_session(&cfg);
        assert!(r.converged, "{:?}", r.final_docs);
    }

    #[test]
    fn reliable_sessions_are_reproducible() {
        let mut cfg = robust_cfg(4, 19);
        cfg.workload.ops_per_site = 10;
        cfg.fault_plan = Some(FaultPlan {
            drop: 0.1,
            duplicate: 0.05,
            reorder: 0.05,
            reorder_extra_us: 30_000,
            ..FaultPlan::NONE
        });
        let a = run_robust_session(&cfg);
        let b = run_robust_session(&cfg);
        assert_eq!(a.final_doc, b.final_doc);
        assert_eq!(a.net.bytes, b.net.bytes);
        assert_eq!(a.quiesced_at, b.quiesced_at);
        assert_eq!(a.total_metrics().retransmits, b.total_metrics().retransmits);
    }

    #[test]
    fn run_session_delegates_to_the_reliability_layer() {
        let mut cfg = robust_cfg(3, 2);
        cfg.fault_plan = Some(FaultPlan::lossy(0.1));
        let r = crate::session::run_session(&cfg);
        assert!(r.converged);
        assert!(r.fault_stats.dropped > 0);
    }

    /// With the reliability layer OFF, the same fault classes must be
    /// *detected* by the editor protocol (formula counters make FIFO gaps
    /// visible), not silently mis-integrated. A duplicated client op is
    /// the canonical case.
    #[test]
    fn without_reliability_duplicates_are_detected_as_fifo_violations() {
        use crate::error::ProtocolError;
        let mut n = Notifier::new(2, "seed");
        let mut c1 = Client::new(SiteId(1), "seed");
        c1.set_share_caret(false);
        let m = c1.local_edit(SeqOp::from_pos(&PosOp::insert(0, "x"), 4));
        n.try_on_client_op_outcome(m.clone())
            .expect("valid client op");
        let err = n
            .try_on_client_op_outcome(m)
            .expect_err("duplicate must be caught");
        assert!(
            matches!(err, ProtocolError::FifoViolation { got: 1, .. }),
            "{err:?}"
        );
        // A dropped (skipped) op is equally visible as a gap.
        let _skipped = c1.local_edit(SeqOp::from_pos(&PosOp::insert(1, "y"), 5));
        let m3 = c1.local_edit(SeqOp::from_pos(&PosOp::insert(2, "z"), 6));
        let err = n
            .try_on_client_op_outcome(m3)
            .expect_err("gap must be caught");
        assert!(
            matches!(
                err,
                ProtocolError::FifoViolation {
                    expected: 2,
                    got: 3,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    /// A frame that survives the reliable channel says who sent it by the
    /// channel it arrived on. Site 1's link carrying what would be site
    /// 2's valid first op gets site 1 evicted — through the log — and
    /// leaves site 2 a member and the document untouched.
    #[test]
    fn forged_origin_on_a_reliable_channel_evicts_the_sender() {
        let mut cfg = robust_cfg(3, 5);
        cfg.workload.ops_per_site = 0;
        cfg.standby = true;
        let (mut sim, _) = build_star(&cfg, RobustNotifier::new(&cfg, 3, false), false);
        let forged = Client::new(SiteId(2), &cfg.initial_doc).insert(0, "F");
        let frame = data_frame(Payload::encode(&EditorMsg::ClientOp(forged)));
        sim.inject_send(1, 0, frame);
        sim.run();
        let RobustNode::Notifier(node) = sim.node(0) else {
            unreachable!("node 0 is the notifier");
        };
        let live = node.hub.notifier();
        assert!(!live.is_active(SiteId(1)), "the sender is out");
        assert!(live.is_active(SiteId(2)) && live.is_active(SiteId(3)));
        assert_eq!(live.doc(), cfg.initial_doc);
        let wal = node.hub.core().wal().expect("standby sessions log");
        let cold = Standby::from_log(wal.bytes(), 3, &cfg.initial_doc).expect("scan");
        assert!(!cold.notifier().is_active(SiteId(1)), "and stays out");
    }

    /// `payload` as the first checksum-valid `Data` frame of a channel.
    fn data_frame(payload: Payload) -> ReliableMsg {
        ReliableMsg {
            epoch: 0,
            kind: ReliableKind::Data {
                seq: 1,
                ack: 0,
                checksum: payload_checksum(&payload),
                payload,
            },
        }
    }

    /// `msg` encoded, then one byte the message does not account for.
    fn with_trailing_junk(msg: &EditorMsg) -> Payload {
        let mut bytes = Payload::encode(msg).to_vec();
        bytes.push(0x2a);
        Payload::from_vec(bytes)
    }

    /// The twin and the socket agree on what a payload is: a valid
    /// `ClientOp` followed by one junk byte kills a TCP connection in the
    /// worker's decode, so the simulator's notifier must refuse it too —
    /// counted hostile, nothing integrated — not read the op and ignore
    /// the remainder.
    #[test]
    fn client_op_with_a_trailing_byte_is_hostile_at_the_notifier() {
        let mut cfg = robust_cfg(3, 5);
        cfg.workload.ops_per_site = 0;
        let (mut sim, _) = build_star(&cfg, RobustNotifier::new(&cfg, 3, false), false);
        let op = Client::new(SiteId(1), &cfg.initial_doc).insert(0, "J");
        sim.inject_send(
            1,
            0,
            data_frame(with_trailing_junk(&EditorMsg::ClientOp(op))),
        );
        sim.run();
        let RobustNode::Notifier(node) = sim.node(0) else {
            unreachable!("node 0 is the notifier");
        };
        assert_eq!(node.links[0].hostile_drops, 1);
        assert_eq!(node.ops_integrated, 0);
        assert_eq!(node.hub.notifier().doc(), cfg.initial_doc);
    }

    /// The client-side mirror: a `ServerOp` with a trailing byte is
    /// dropped whole and the replica stays where it was.
    #[test]
    fn server_op_with_a_trailing_byte_is_hostile_at_the_client() {
        let mut cfg = robust_cfg(3, 5);
        cfg.workload.ops_per_site = 0;
        let (mut sim, _) = build_star(&cfg, RobustNotifier::new(&cfg, 3, false), false);
        let len = cfg.initial_doc.chars().count();
        let op = ServerOpMsg {
            stamp: CompressedStamp::new(1, 0),
            op: SeqOp::from_pos(&PosOp::insert(0, "J"), len),
            cursor: None,
        };
        sim.inject_send(
            0,
            1,
            data_frame(with_trailing_junk(&EditorMsg::ServerOp(op))),
        );
        sim.run();
        let RobustNode::Client(node) = sim.node(1) else {
            unreachable!("node 1 is a client");
        };
        assert_eq!(node.link.hostile_drops, 1);
        assert_eq!(node.inner.doc(), cfg.initial_doc);
        assert_eq!(node.inner.state_vector().received(), 0);
    }

    #[test]
    fn latency_log_survives_faults_and_joins_cleanly() {
        let mut cfg = robust_cfg(3, 29);
        cfg.workload.ops_per_site = 8;
        cfg.fault_plan = Some(FaultPlan::lossy(0.2));
        cfg.latency = LatencyModel::internet();
        let r = run_robust_session(&cfg);
        assert!(r.converged);
        // Every latency is positive and the log is as large as the
        // delivered in-order frame count (dropped first transmissions
        // still join on the retransmission's delivery).
        assert!(!r.delivery_latencies_us.is_empty());
        assert!(r.delivery_latencies_us.iter().all(|&l| l > 0));
    }

    #[test]
    fn stamps_survive_reliable_transport_byte_for_byte() {
        // The whole point: the editor layer above the reliable links
        // still never sees more than two timestamp integers.
        let mut cfg = robust_cfg(4, 57);
        cfg.fault_plan = Some(FaultPlan {
            drop: 0.1,
            reorder: 0.1,
            reorder_extra_us: 50_000,
            ..FaultPlan::NONE
        });
        let (r, trace) = run_robust_session_traced(&cfg);
        assert!(r.converged);
        assert_eq!(r.max_stamp_integers, 2);
        for step in &trace.notifier {
            let _: CompressedStamp = step.msg.stamp; // two integers, by type
        }
    }

    /// A standby that only ever tails the WAL yields no failover report
    /// and the same document. The WAL itself sits beside the wire, but
    /// standby mode does add keep-alive probes (crash detection needs a
    /// heartbeat), so byte counts legitimately grow — all of it bare-ack
    /// traffic, none of it editor messages.
    #[test]
    fn standby_without_crash_yields_no_failover() {
        let mut cfg = robust_cfg(4, 97);
        cfg.workload.ops_per_site = 10;
        let plain = run_robust_session(&cfg);
        cfg.standby = true;
        let shadowed = run_robust_session(&cfg);
        assert!(plain.converged && shadowed.converged);
        assert!(shadowed.failover.is_none(), "no crash, no failover");
        assert_eq!(plain.final_doc, shadowed.final_doc);
        let (p, s) = (plain.total_metrics(), shadowed.total_metrics());
        assert_eq!(p.ops_generated, s.ops_generated);
        assert!(
            s.editor_msgs_sent > p.editor_msgs_sent,
            "probe keep-alives ride the editor channel: {} vs {}",
            s.editor_msgs_sent,
            p.editor_msgs_sent
        );
    }

    fn crash_cfg(n: usize, seed: u64, at_op: u64, point: CrashPoint) -> SessionConfig {
        let mut cfg = robust_cfg(n, seed);
        cfg.workload.ops_per_site = 12;
        cfg.standby = true;
        cfg.crash = Some(NotifierCrash { at_op, point });
        cfg
    }

    fn assert_failed_over(r: &crate::session::SessionReport, n: usize) -> FailoverReport {
        assert!(r.converged, "{:?}", r.final_docs);
        let fo = r.failover.clone().expect("crash must yield a report");
        assert_eq!(fo.resynced_clients, n, "every client must resync");
        assert!(
            fo.recovered_at_us.is_some(),
            "recovery never completed: {fo:?}"
        );
        assert!(fo.recovery_us().expect("recovered") > 0);
        assert!(fo.wal_appends > 0, "the WAL must have seen the ops");
        assert!(
            fo.standby_replay_ops > 0,
            "the standby must have replayed the log"
        );
        // Framing, checksums and acks make the log strictly larger than
        // its op payload, but never wildly so.
        assert!(fo.wal_amplification > 1.0, "{}", fo.wal_amplification);
        fo
    }

    #[test]
    fn crash_before_send_fails_over_and_converges() {
        let r = run_robust_session(&crash_cfg(4, 101, 7, CrashPoint::BeforeSend));
        let fo = assert_failed_over(&r, 4);
        // The op was logged but never broadcast: the WAL replay is the
        // only reason the promoted notifier knows it.
        assert!(fo.standby_replay_ops >= 7);
    }

    #[test]
    fn crash_mid_broadcast_fails_over_and_converges() {
        let r = run_robust_session(&crash_cfg(4, 103, 7, CrashPoint::MidBroadcast));
        let fo = assert_failed_over(&r, 4);
        // Some clients got the broadcast, so their acks (or next ops) hit
        // the fence and are discarded rather than mis-sequenced.
        assert!(fo.fenced_drops > 0, "{fo:?}");
    }

    #[test]
    fn crash_after_send_fails_over_and_converges() {
        let r = run_robust_session(&crash_cfg(4, 107, 7, CrashPoint::AfterSend));
        let fo = assert_failed_over(&r, 4);
        assert!(fo.fenced_drops > 0, "{fo:?}");
    }

    #[test]
    fn failover_survives_a_lossy_network() {
        for point in [
            CrashPoint::BeforeSend,
            CrashPoint::MidBroadcast,
            CrashPoint::AfterSend,
        ] {
            let mut cfg = crash_cfg(4, 113, 9, point);
            cfg.fault_plan = Some(FaultPlan::lossy(0.01));
            let r = run_robust_session(&cfg);
            assert_failed_over(&r, 4);
        }
    }

    /// Site 1 comes back from an outage and its hello is taken by the
    /// primary, which dies before the answer leaves: nothing is in flight
    /// and nothing arrives, so no retransmission can stall. The probe
    /// clock counts the silence, and the client says hello again to the
    /// promoted standby.
    #[test]
    fn a_hello_whose_answer_died_with_the_primary_is_said_again() {
        let mut cfg = crash_cfg(3, 36, 17, CrashPoint::BeforeSend);
        cfg.workload.ops_per_site = 8;
        cfg.disconnects = vec![
            DisconnectSpec {
                client: 0,
                at: SimTime::from_millis(136),
                down: SimDuration::from_millis(1532),
            },
            DisconnectSpec {
                client: 1,
                at: SimTime::from_millis(336),
                down: SimDuration::from_millis(868),
            },
        ];
        assert_failed_over(&run_robust_session(&cfg), 3);
    }

    #[test]
    fn failover_sessions_are_reproducible() {
        let cfg = crash_cfg(5, 127, 11, CrashPoint::MidBroadcast);
        let a = run_robust_session(&cfg);
        let b = run_robust_session(&cfg);
        assert_eq!(a.final_doc, b.final_doc);
        assert_eq!(a.quiesced_at, b.quiesced_at);
        let (fa, fb) = (a.failover.expect("crash"), b.failover.expect("crash"));
        assert_eq!(fa.recovered_at_us, fb.recovered_at_us);
        assert_eq!(fa.fenced_drops, fb.fenced_drops);
        assert_eq!(fa.wal_bytes, fb.wal_bytes);
    }

    /// The promoted notifier inherits the primary's flight-recorder
    /// history and stamps the crash + promotion lifecycle events onto it.
    #[test]
    fn promoted_recorder_carries_crash_and_promote_events() {
        let mut cfg = crash_cfg(4, 131, 7, CrashPoint::MidBroadcast);
        cfg.flight_recorder = true;
        // Big enough that the keep-alive probe traffic cannot wrap the
        // ring past the crash/promote events recorded mid-session.
        cfg.flight_recorder_notifier_capacity = 1 << 14;
        let r = run_robust_session(&cfg);
        assert!(r.converged);
        let (_, events) = r
            .flight_traces
            .iter()
            .find(|(site, _)| *site == SiteId(0))
            .expect("notifier trace");
        let crashes: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Crash)
            .collect();
        let promotes: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Promote)
            .collect();
        assert_eq!(crashes.len(), 1, "exactly one crash");
        assert_eq!(promotes.len(), 1, "exactly one promotion");
        assert_eq!(crashes[0].a, 7, "ops integrated at the crash");
        assert_eq!(crashes[0].b, CrashPoint::MidBroadcast.index());
        assert!(promotes[0].a >= 7, "replayed at least the logged ops");
        // The inherited pre-crash history is still there.
        assert!(
            events.iter().any(|e| e.kind == EventKind::Execute),
            "primary's integrations must survive the hand-off"
        );
    }

    /// With an aggressive deadline the Nagle edge fires; with the timer
    /// disabled it never does. Both converge — the deadline changes when
    /// parked batches move, never whether they move.
    #[test]
    fn flush_deadline_fires_only_when_enabled() {
        let mut cfg = robust_cfg(6, 139);
        cfg.workload.ops_per_site = 20;
        cfg.compound_flush_ticks = 1_000; // ≪ RTT: beat the ack edge
        let eager = run_robust_session(&cfg);
        assert!(eager.converged, "{:?}", eager.final_docs);
        assert!(
            eager.total_metrics().deadline_flushes > 0,
            "a 1 ms deadline under fan-out load must fire"
        );

        cfg.compound_flush_ticks = 0; // disabled: pure ack-driven flushing
        let acked = run_robust_session(&cfg);
        assert!(acked.converged);
        assert_eq!(acked.total_metrics().deadline_flushes, 0);
    }

    /// The default deadline is a backstop, not the flush path: under
    /// fan-out load the overwhelming share of batches still leaves on an
    /// ack edge, and a serial workload never even arms the timer.
    #[test]
    fn default_flush_deadline_stays_a_backstop() {
        let mut cfg = robust_cfg(6, 23);
        cfg.workload.ops_per_site = 20;
        let r = run_robust_session(&cfg);
        assert!(r.converged);
        let t = r.total_metrics();
        assert!(
            t.deadline_flushes * 3 < t.data_frames_sent,
            "deadline flushed {} of {} frames — it is supposed to be rare",
            t.deadline_flushes,
            t.data_frames_sent
        );

        let mut cfg = robust_cfg(3, 37);
        cfg.workload.ops_per_site = 6;
        cfg.workload.mean_gap_us = 5_000_000; // ≫ RTT: nothing ever parks
        let r = run_robust_session(&cfg);
        assert!(r.converged);
        assert_eq!(r.total_metrics().deadline_flushes, 0);
    }
}
