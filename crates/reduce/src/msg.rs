//! Editor wire messages with byte-exact encoding.
//!
//! Three deployments share one message enum so a single simulator type
//! parameter covers them all:
//!
//! * **Star / CVC** (the paper): [`ClientOpMsg`] carries a 2-element
//!   compressed stamp up to the notifier; [`ServerOpMsg`] carries a
//!   2-element stamp back down. *No message in the paper's deployment ever
//!   carries more than two timestamp integers* — that is the claim under
//!   test.
//! * **Mesh / full vector** (classic REDUCE baseline): [`MeshOpMsg`]
//!   carries an `N`-element vector.
//! * **Relay star** (ablation E9: star topology *without* the transforming
//!   notifier): reuses [`MeshOpMsg`] — without central transformation the
//!   causality stays `N`-dimensional and the stamp must stay `N` wide,
//!   which is precisely the paper's Section 6 point.
//!
//! Encodings are hand-rolled varint formats (see `cvc_sim::wire`) so the
//! overhead experiments measure real bytes. `stamp_bytes()` splits the
//! timestamp portion out of the total for the overhead-fraction reports.

use bytes::{Buf, BufMut};
use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use cvc_core::vector::VectorClock;
use cvc_ot::seq::{Component, SeqOp};
use cvc_ot::ttf::TtfOp;
use cvc_sim::wire::{
    get_bounded_len, get_bounded_span, get_string, get_u32, get_varint, put_string, put_varint,
    string_len, varint_len, WireDecode, WireEncode, WireError, WireSize,
};
use std::sync::Arc;

pub(crate) const TAG_CLIENT_OP: u8 = 1;
const TAG_SERVER_OP: u8 = 2;
const TAG_MESH_OP: u8 = 3;
const TAG_SERVER_ACK: u8 = 4;
pub(crate) const TAG_CLIENT_ACK: u8 = 5;
const TAG_COMPOUND: u8 = 6;
pub(crate) const TAG_RELAY_OP: u8 = 7;
pub(crate) const TAG_RELAY_ACK: u8 = 8;

const COMP_RETAIN: u8 = 0;
const COMP_INSERT: u8 = 1;
const COMP_DELETE: u8 = 2;

const TTF_INSERT: u8 = 0;
const TTF_DELETE: u8 = 1;

/// Client → notifier: an original local operation (star/CVC deployment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientOpMsg {
    /// Generating client site.
    pub origin: SiteId,
    /// The paper's 2-element propagation timestamp (`T_O = SV_i`).
    pub stamp: CompressedStamp,
    /// The operation, in its original (generation-context) form.
    pub op: SeqOp,
    /// The author's caret after this operation (telepointer presence;
    /// position on the operation's post-state).
    pub cursor: Option<u64>,
}

/// Notifier → client: a transformed operation (star/CVC deployment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerOpMsg {
    /// The destination-specific compressed stamp (formulas (1)–(2)).
    pub stamp: CompressedStamp,
    /// The transformed operation `O'`, in the notifier's frame.
    pub op: SeqOp,
    /// Telepointer: the authoring user and their caret on the operation's
    /// post-state (presence metadata, not causality metadata — the
    /// timestamp above stays two integers).
    pub cursor: Option<(u32, u64)>,
}

/// Full-vector-stamped character operation (mesh and relay-star
/// deployments).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshOpMsg {
    /// Generating site.
    pub origin: SiteId,
    /// Full `N`-element operation-count vector at generation.
    pub vector: VectorClock,
    /// The TTF character operation, original form.
    pub op: TtfOp,
}

/// Notifier → originating client: a bare acknowledgement that the client's
/// `acked`-th operation has been integrated. Used only by the *composing*
/// client mode (a beyond-paper extension modelled on ShareDB/Wave clients);
/// the paper's streaming clients need no acks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerAckMsg {
    /// Operations received from this client so far (`SV_0[i]`).
    pub acked: u64,
}

/// Client → notifier: a bare "I have received your first `received`
/// operations" note. Normally this information piggybacks on the client's
/// own edits (a [`ClientOpMsg`] stamp's first element *is* it); a client
/// that reads without typing would otherwise never advance the notifier's
/// `acked_by` entry and the notifier's history buffer could never be
/// garbage-collected past that client. Sent sparsely (every
/// [`crate::client::ACK_INTERVAL`] receipts without an intervening local
/// edit), this keeps the notifier's HB bounded by the in-flight window +
/// [`crate::client::ACK_INTERVAL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientAckMsg {
    /// Acknowledging client site.
    pub origin: SiteId,
    /// Operations received from the notifier so far (`SV_i[1]`).
    pub received: u64,
}

/// Notifier → notifier (federation): one locally-integrated character
/// operation forwarded to a peer shard. The causality metadata is a
/// `K`-element vector indexed over *notifiers only* (`inner.vector`) — the
/// Zheng & Garg optimal-clock observation applied at the shard tier, where
/// the participant set is tiny and stable. `seq` is the per-origin-shard
/// relay stream cursor (1-based), the go-back-N position on the
/// inter-notifier link; `sent_at_us` is the origin shard's virtual send
/// time, carried so the destination can attribute the relay hop as its own
/// trace stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayOpMsg {
    /// Originating shard index (`0..K`).
    pub origin_shard: u32,
    /// Per-origin-shard relay sequence (1-based, FIFO per link).
    pub seq: u64,
    /// Origin shard's virtual send time in µs.
    pub sent_at_us: u64,
    /// The shard-mesh operation: `origin` is the shard's site in the
    /// K-wide notifier mesh, `vector` the K-element shard clock.
    pub inner: MeshOpMsg,
}

/// Notifier → notifier (federation): cumulative "I have integrated your
/// first `received` relay operations" — drives go-back-N retransmission on
/// the inter-notifier link and the shard-mesh matrix-clock GC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelayAckMsg {
    /// Acknowledging shard index.
    pub origin_shard: u32,
    /// Relay operations received from the destination shard so far.
    pub received: u64,
}

/// Any editor message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditorMsg {
    /// Star/CVC upstream.
    ClientOp(ClientOpMsg),
    /// Star/CVC downstream.
    ServerOp(ServerOpMsg),
    /// Mesh or relay-star operation.
    MeshOp(MeshOpMsg),
    /// Star/CVC downstream acknowledgement (composing mode only).
    ServerAck(ServerAckMsg),
    /// Star/CVC upstream acknowledgement (GC keep-alive for quiet clients).
    ClientAck(ClientAckMsg),
    /// Federation: notifier → notifier forwarded operation.
    RelayOp(RelayOpMsg),
    /// Federation: notifier → notifier cumulative acknowledgement.
    RelayAck(RelayAckMsg),
    /// Several editor messages coalesced into one reliable-layer frame
    /// (one header, one checksum). Never nested; built by the reliability
    /// layer's flush path, not by the editor layer.
    Compound(Vec<EditorMsg>),
}

impl EditorMsg {
    /// Bytes of the encoded message that are timestamp data.
    pub fn stamp_bytes(&self) -> usize {
        match self {
            EditorMsg::ClientOp(m) => stamp_wire_len(m.stamp),
            EditorMsg::ServerOp(m) => stamp_wire_len(m.stamp),
            EditorMsg::MeshOp(m) => vector_wire_len(&m.vector),
            EditorMsg::ServerAck(m) => varint_len(m.acked),
            EditorMsg::ClientAck(m) => varint_len(m.received),
            EditorMsg::RelayOp(m) => vector_wire_len(&m.inner.vector),
            EditorMsg::RelayAck(m) => varint_len(m.received),
            EditorMsg::Compound(ms) => ms.iter().map(EditorMsg::stamp_bytes).sum(),
        }
    }

    /// Integer elements of timestamp data carried.
    pub fn stamp_integers(&self) -> usize {
        match self {
            EditorMsg::ClientOp(_) | EditorMsg::ServerOp(_) => 2,
            EditorMsg::MeshOp(m) => m.vector.width(),
            EditorMsg::RelayOp(m) => m.inner.vector.width(),
            EditorMsg::ServerAck(_) | EditorMsg::ClientAck(_) | EditorMsg::RelayAck(_) => 1,
            EditorMsg::Compound(ms) => ms.iter().map(EditorMsg::stamp_integers).sum(),
        }
    }
}

/// An encoded editor frame held as `head ++ body`, where `body` is
/// refcounted and immutable. The split is what makes the notifier's
/// encode-once broadcast cheap: all `N−1` destinations share one `body`
/// (the serialized operation + telepointer) and differ only in the few
/// `head` bytes carrying the tag and the per-destination compressed stamp.
/// A payload decoded off the wire has an empty `head`.
///
/// Equality and hashing are over the *logical* bytes (`head ++ body`), so
/// the same frame split differently still compares equal.
#[derive(Debug, Clone)]
pub struct Payload {
    head: Vec<u8>,
    body: Arc<[u8]>,
}

impl Payload {
    /// A payload whose logical bytes are exactly `bytes` (empty head).
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        Payload {
            head: Vec::new(),
            body: bytes.into(),
        }
    }

    /// `msg` encoded — what every driver puts on its wire for one editor
    /// message (empty head).
    pub fn encode(msg: &EditorMsg) -> Self {
        let mut bytes = Vec::with_capacity(msg.wire_bytes());
        msg.encode(&mut bytes);
        Payload::from_vec(bytes)
    }

    /// A payload with an owned per-destination `head` and a shared `body`.
    pub fn from_parts(head: Vec<u8>, body: Arc<[u8]>) -> Self {
        Payload { head, body }
    }

    /// Logical length in bytes.
    pub fn len(&self) -> usize {
        self.head.len() + self.body.len()
    }

    /// True when there are no logical bytes.
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.body.is_empty()
    }

    /// The two byte runs making up the logical frame, in order.
    pub fn chunks(&self) -> [&[u8]; 2] {
        [&self.head, &self.body]
    }

    /// Append the logical bytes to `buf`.
    pub fn write_to<B: BufMut>(&self, buf: &mut B) {
        buf.put_slice(&self.head);
        buf.put_slice(&self.body);
    }

    /// The logical bytes, materialized.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.len());
        v.extend_from_slice(&self.head);
        v.extend_from_slice(&self.body);
        v
    }

    /// Flip one bit of the logical frame (fault-injection support). The
    /// shared body is copied on write, so other holders of the same frame
    /// are unaffected.
    pub fn flip_bit(&mut self, byte: usize, bit: u8) {
        if byte < self.head.len() {
            self.head[byte] ^= 1u8 << (bit & 7);
        } else if byte - self.head.len() < self.body.len() {
            let mut owned = self.body.to_vec();
            owned[byte - self.head.len()] ^= 1u8 << (bit & 7);
            self.body = owned.into();
        }
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .head
                .iter()
                .chain(self.body.iter())
                .eq(other.head.iter().chain(other.body.iter()))
    }
}

impl Eq for Payload {}

/// The destination-independent portion of a [`ServerOpMsg`], encoded
/// exactly once. [`ServerOpFrame::payload_for`] then stamps out one
/// [`Payload`] per destination by prepending the 3–21 byte head (tag +
/// compressed stamp varints) to the shared body — byte-identical to
/// encoding `EditorMsg::ServerOp` from scratch, without the per-destination
/// serialization of the operation.
#[derive(Debug, Clone)]
pub struct ServerOpFrame {
    body: Arc<[u8]>,
}

impl ServerOpFrame {
    /// Serialize the shared body (operation + telepointer) once.
    pub fn new(op: &SeqOp, cursor: &Option<(u32, u64)>) -> Self {
        let mut b = Vec::with_capacity(server_op_body_len(op, cursor));
        put_seq_op(&mut b, op);
        put_opt_owned_cursor(&mut b, cursor);
        ServerOpFrame { body: b.into() }
    }

    /// Encoded bytes of the shared body.
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    /// The full frame for one destination: `[TAG_SERVER_OP, stamp] ++ body`.
    pub fn payload_for(&self, stamp: CompressedStamp) -> Payload {
        let mut head = Vec::with_capacity(1 + stamp_wire_len(stamp));
        head.push(TAG_SERVER_OP);
        put_stamp(&mut head, stamp);
        Payload::from_parts(head, Arc::clone(&self.body))
    }

    /// Wire bytes [`ServerOpFrame::payload_for`] would produce for `stamp`.
    pub fn wire_bytes_for(&self, stamp: CompressedStamp) -> usize {
        1 + stamp_wire_len(stamp) + self.body.len()
    }
}

/// Header bytes of a compound frame wrapping `count` sub-messages:
/// `[TAG_COMPOUND][count varint]`, to be followed by each sub-message's
/// full encoding. This is how every transport — the reliability layer's
/// flush path, the TCP server's socket write path — coalesces several
/// queued editor messages into one frame, so [`decode_payload`] reads
/// both identically.
pub fn compound_header(count: usize) -> Vec<u8> {
    let mut h = Vec::with_capacity(1 + varint_len(count as u64));
    h.push(TAG_COMPOUND);
    put_varint(&mut h, count as u64);
    h
}

/// Encoded size of a [`ServerOpMsg`] body (everything after the stamp):
/// computed once per broadcast, it prices all `N−1` destination frames.
pub(crate) fn server_op_body_len(op: &SeqOp, cursor: &Option<(u32, u64)>) -> usize {
    seq_op_wire_len(op) + opt_owned_cursor_len(cursor)
}

pub(crate) fn stamp_wire_len(s: CompressedStamp) -> usize {
    varint_len(s.t1) + varint_len(s.t2)
}

pub(crate) fn put_stamp<B: BufMut>(buf: &mut B, s: CompressedStamp) {
    put_varint(buf, s.t1);
    put_varint(buf, s.t2);
}

pub(crate) fn get_stamp<B: Buf>(buf: &mut B) -> Result<CompressedStamp, WireError> {
    Ok(CompressedStamp::new(get_varint(buf)?, get_varint(buf)?))
}

fn vector_wire_len(v: &VectorClock) -> usize {
    varint_len(v.width() as u64) + v.entries().iter().map(|&e| varint_len(e)).sum::<usize>()
}

fn put_vector<B: BufMut>(buf: &mut B, v: &VectorClock) {
    put_varint(buf, v.width() as u64);
    for &e in v.entries() {
        put_varint(buf, e);
    }
}

fn get_vector<B: Buf>(buf: &mut B) -> Result<VectorClock, WireError> {
    // A hostile width field must not drive the allocation: each entry is at
    // least one byte on the wire, so anything beyond the buffer is a lie —
    // checked in the u64 domain so 2^32-straddling widths cannot truncate
    // into plausible ones on 32-bit targets.
    let n = get_bounded_len(buf, 1)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(get_varint(buf)?);
    }
    Ok(VectorClock::from_entries(entries))
}

pub(crate) fn seq_op_wire_len(op: &SeqOp) -> usize {
    let mut len = varint_len(op.components().len() as u64);
    for c in op.components() {
        len += 1; // component tag
        len += match c {
            Component::Retain(n) | Component::Delete(n) => varint_len(*n as u64),
            Component::Insert(s) => string_len(s),
        };
    }
    len
}

pub(crate) fn put_seq_op<B: BufMut>(buf: &mut B, op: &SeqOp) {
    put_varint(buf, op.components().len() as u64);
    for c in op.components() {
        match c {
            Component::Retain(n) => {
                buf.put_u8(COMP_RETAIN);
                put_varint(buf, *n as u64);
            }
            Component::Insert(s) => {
                buf.put_u8(COMP_INSERT);
                put_string(buf, s);
            }
            Component::Delete(n) => {
                buf.put_u8(COMP_DELETE);
                put_varint(buf, *n as u64);
            }
        }
    }
}

pub(crate) fn get_seq_op<B: Buf>(buf: &mut B) -> Result<SeqOp, WireError> {
    // Every component costs at least two bytes (tag + one varint byte), so
    // a component count past `remaining / 2` is a lie; retain/delete run
    // lengths are additionally capped at the document-size bound so a
    // hostile span cannot drive downstream position arithmetic.
    let n = get_bounded_len(buf, 2)?;
    // One reservation fits a single-site op (`retain·insert·delete·retain`);
    // capping it there keeps a hostile count from driving the allocation.
    let mut op = SeqOp::with_capacity(n.min(4));
    for _ in 0..n {
        if !buf.has_remaining() {
            return Err(WireError::Truncated);
        }
        match buf.get_u8() {
            COMP_RETAIN => {
                op.retain(get_bounded_span(buf)?);
            }
            COMP_INSERT => {
                op.insert_owned(get_string(buf)?);
            }
            COMP_DELETE => {
                op.delete(get_bounded_span(buf)?);
            }
            t => return Err(WireError::BadTag(t)),
        }
    }
    Ok(op)
}

pub(crate) fn opt_cursor_len(c: &Option<u64>) -> usize {
    1 + c.map_or(0, varint_len)
}

pub(crate) fn put_opt_cursor<B: BufMut>(buf: &mut B, c: &Option<u64>) {
    match c {
        None => buf.put_u8(0),
        Some(v) => {
            buf.put_u8(1);
            put_varint(buf, *v);
        }
    }
}

pub(crate) fn get_opt_cursor<B: Buf>(buf: &mut B) -> Result<Option<u64>, WireError> {
    if !buf.has_remaining() {
        return Err(WireError::Truncated);
    }
    match buf.get_u8() {
        0 => Ok(None),
        1 => Ok(Some(get_varint(buf)?)),
        t => Err(WireError::BadTag(t)),
    }
}

fn opt_owned_cursor_len(c: &Option<(u32, u64)>) -> usize {
    1 + c.map_or(0, |(s, v)| varint_len(u64::from(s)) + varint_len(v))
}

fn put_opt_owned_cursor<B: BufMut>(buf: &mut B, c: &Option<(u32, u64)>) {
    match c {
        None => buf.put_u8(0),
        Some((s, v)) => {
            buf.put_u8(1);
            put_varint(buf, u64::from(*s));
            put_varint(buf, *v);
        }
    }
}

fn get_opt_owned_cursor<B: Buf>(buf: &mut B) -> Result<Option<(u32, u64)>, WireError> {
    if !buf.has_remaining() {
        return Err(WireError::Truncated);
    }
    match buf.get_u8() {
        0 => Ok(None),
        1 => Ok(Some((get_u32(buf)?, get_varint(buf)?))),
        t => Err(WireError::BadTag(t)),
    }
}

fn ttf_op_wire_len(op: &TtfOp) -> usize {
    1 + match op {
        TtfOp::Insert { pos, ch, site } => {
            varint_len(*pos as u64) + varint_len(*ch as u64) + varint_len(u64::from(*site))
        }
        TtfOp::Delete { pos } => varint_len(*pos as u64),
    }
}

fn put_ttf_op<B: BufMut>(buf: &mut B, op: &TtfOp) {
    match op {
        TtfOp::Insert { pos, ch, site } => {
            buf.put_u8(TTF_INSERT);
            put_varint(buf, *pos as u64);
            put_varint(buf, *ch as u64);
            put_varint(buf, u64::from(*site));
        }
        TtfOp::Delete { pos } => {
            buf.put_u8(TTF_DELETE);
            put_varint(buf, *pos as u64);
        }
    }
}

fn get_ttf_op<B: Buf>(buf: &mut B) -> Result<TtfOp, WireError> {
    if !buf.has_remaining() {
        return Err(WireError::Truncated);
    }
    match buf.get_u8() {
        TTF_INSERT => {
            // Positions are document offsets: cap them like spans so a
            // hostile 64-bit position neither truncates on 32-bit targets
            // nor reaches the transform layer's index arithmetic.
            let pos = get_bounded_span(buf)?;
            let ch = char::from_u32(get_u32(buf)?).ok_or(WireError::BadUtf8)?;
            let site = get_u32(buf)?;
            Ok(TtfOp::Insert { pos, ch, site })
        }
        TTF_DELETE => Ok(TtfOp::Delete {
            pos: get_bounded_span(buf)?,
        }),
        t => Err(WireError::BadTag(t)),
    }
}

impl WireSize for EditorMsg {
    fn wire_bytes(&self) -> usize {
        1 + match self {
            EditorMsg::ClientOp(m) => {
                varint_len(u64::from(m.origin.0))
                    + stamp_wire_len(m.stamp)
                    + seq_op_wire_len(&m.op)
                    + opt_cursor_len(&m.cursor)
            }
            EditorMsg::ServerOp(m) => {
                stamp_wire_len(m.stamp) + seq_op_wire_len(&m.op) + opt_owned_cursor_len(&m.cursor)
            }
            EditorMsg::MeshOp(m) => {
                varint_len(u64::from(m.origin.0))
                    + vector_wire_len(&m.vector)
                    + ttf_op_wire_len(&m.op)
            }
            EditorMsg::ServerAck(m) => varint_len(m.acked),
            EditorMsg::ClientAck(m) => varint_len(u64::from(m.origin.0)) + varint_len(m.received),
            EditorMsg::RelayOp(m) => {
                varint_len(u64::from(m.origin_shard))
                    + varint_len(m.seq)
                    + varint_len(m.sent_at_us)
                    + varint_len(u64::from(m.inner.origin.0))
                    + vector_wire_len(&m.inner.vector)
                    + ttf_op_wire_len(&m.inner.op)
            }
            EditorMsg::RelayAck(m) => {
                varint_len(u64::from(m.origin_shard)) + varint_len(m.received)
            }
            EditorMsg::Compound(ms) => {
                varint_len(ms.len() as u64) + ms.iter().map(WireSize::wire_bytes).sum::<usize>()
            }
        }
    }
}

impl WireEncode for EditorMsg {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            EditorMsg::ClientOp(m) => {
                buf.put_u8(TAG_CLIENT_OP);
                put_varint(buf, u64::from(m.origin.0));
                put_stamp(buf, m.stamp);
                put_seq_op(buf, &m.op);
                put_opt_cursor(buf, &m.cursor);
            }
            EditorMsg::ServerOp(m) => {
                buf.put_u8(TAG_SERVER_OP);
                put_stamp(buf, m.stamp);
                put_seq_op(buf, &m.op);
                put_opt_owned_cursor(buf, &m.cursor);
            }
            EditorMsg::MeshOp(m) => {
                buf.put_u8(TAG_MESH_OP);
                put_varint(buf, u64::from(m.origin.0));
                put_vector(buf, &m.vector);
                put_ttf_op(buf, &m.op);
            }
            EditorMsg::ServerAck(m) => {
                buf.put_u8(TAG_SERVER_ACK);
                put_varint(buf, m.acked);
            }
            EditorMsg::ClientAck(m) => {
                buf.put_u8(TAG_CLIENT_ACK);
                put_varint(buf, u64::from(m.origin.0));
                put_varint(buf, m.received);
            }
            EditorMsg::RelayOp(m) => {
                buf.put_u8(TAG_RELAY_OP);
                put_varint(buf, u64::from(m.origin_shard));
                put_varint(buf, m.seq);
                put_varint(buf, m.sent_at_us);
                put_varint(buf, u64::from(m.inner.origin.0));
                put_vector(buf, &m.inner.vector);
                put_ttf_op(buf, &m.inner.op);
            }
            EditorMsg::RelayAck(m) => {
                buf.put_u8(TAG_RELAY_ACK);
                put_varint(buf, u64::from(m.origin_shard));
                put_varint(buf, m.received);
            }
            EditorMsg::Compound(ms) => {
                debug_assert!(
                    ms.iter().all(|m| !matches!(m, EditorMsg::Compound(_))),
                    "compound frames never nest"
                );
                buf.put_u8(TAG_COMPOUND);
                put_varint(buf, ms.len() as u64);
                for m in ms {
                    m.encode(buf);
                }
            }
        }
    }
}

impl EditorMsg {
    /// Decode one message. `allow_compound` is false for the sub-messages
    /// of a compound frame, so nesting is rejected as a bad tag rather
    /// than recursed into.
    fn decode_inner<B: Buf>(buf: &mut B, allow_compound: bool) -> Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::Truncated);
        }
        match buf.get_u8() {
            TAG_CLIENT_OP => Ok(EditorMsg::ClientOp(ClientOpMsg {
                origin: SiteId(get_u32(buf)?),
                stamp: get_stamp(buf)?,
                op: get_seq_op(buf)?,
                cursor: get_opt_cursor(buf)?,
            })),
            TAG_SERVER_OP => Ok(EditorMsg::ServerOp(ServerOpMsg {
                stamp: get_stamp(buf)?,
                op: get_seq_op(buf)?,
                cursor: get_opt_owned_cursor(buf)?,
            })),
            TAG_MESH_OP => Ok(EditorMsg::MeshOp(MeshOpMsg {
                origin: SiteId(get_u32(buf)?),
                vector: get_vector(buf)?,
                op: get_ttf_op(buf)?,
            })),
            TAG_SERVER_ACK => Ok(EditorMsg::ServerAck(ServerAckMsg {
                acked: get_varint(buf)?,
            })),
            TAG_CLIENT_ACK => Ok(EditorMsg::ClientAck(ClientAckMsg {
                origin: SiteId(get_u32(buf)?),
                received: get_varint(buf)?,
            })),
            TAG_RELAY_OP => Ok(EditorMsg::RelayOp(RelayOpMsg {
                origin_shard: get_u32(buf)?,
                seq: get_varint(buf)?,
                sent_at_us: get_varint(buf)?,
                inner: MeshOpMsg {
                    origin: SiteId(get_u32(buf)?),
                    vector: get_vector(buf)?,
                    op: get_ttf_op(buf)?,
                },
            })),
            TAG_RELAY_ACK => Ok(EditorMsg::RelayAck(RelayAckMsg {
                origin_shard: get_u32(buf)?,
                received: get_varint(buf)?,
            })),
            TAG_COMPOUND if allow_compound => {
                // An empty compound is never produced (the flush path only
                // fires with pending frames) and a nested one is rejected
                // below, so a hostile count cannot recurse or spin. Each
                // sub-message costs ≥ 2 bytes (tag + one payload byte),
                // bounding the allocation — checked in the u64 domain.
                let count = get_bounded_len(buf, 2)?;
                if count == 0 {
                    return Err(WireError::BadTag(TAG_COMPOUND));
                }
                let mut ms = Vec::with_capacity(count);
                for _ in 0..count {
                    ms.push(EditorMsg::decode_inner(buf, false)?);
                }
                Ok(EditorMsg::Compound(ms))
            }
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl WireDecode for EditorMsg {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        EditorMsg::decode_inner(buf, true)
    }
}

/// Turn one received payload — its [`Payload::chunks`], or `[bytes, &[]]`
/// off a socket — into the editor messages it carries, appended to `out`
/// in order. The rule every driver shares: the payload is exactly one
/// message with no bytes after it, a compound contributes its
/// sub-messages (never itself), and a nested compound is refused. On
/// `Err` nothing was appended.
pub fn decode_payload(chunks: [&[u8]; 2], out: &mut Vec<EditorMsg>) -> Result<(), WireError> {
    fn one<B: Buf>(mut buf: B, out: &mut Vec<EditorMsg>) -> Result<(), WireError> {
        let msg = EditorMsg::decode(&mut buf)?;
        if buf.has_remaining() {
            // The frame length lied about the message: a desync or an
            // attack, on any transport.
            return Err(WireError::BadTag(buf.get_u8()));
        }
        match msg {
            EditorMsg::Compound(ms) => out.extend(ms),
            m => out.push(m),
        }
        Ok(())
    }
    match chunks {
        // One run (a socket read, a split-free payload): a plain slice
        // cursor, no per-byte chain branch.
        [only, []] | [[], only] => one(only, out),
        [head, body] => one(head.chain(body), out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvc_ot::pos::PosOp;

    fn sample_seq_op() -> SeqOp {
        SeqOp::from_pos(&PosOp::insert(3, "hello"), 10)
    }

    fn round_trip(msg: &EditorMsg) {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        assert_eq!(
            buf.len(),
            msg.wire_bytes(),
            "wire_bytes must match actual encoding for {msg:?}"
        );
        let mut slice = &buf[..];
        let back = EditorMsg::decode(&mut slice).expect("decode");
        assert!(slice.is_empty(), "decode must consume all bytes");
        assert_eq!(&back, msg);
    }

    /// A `ClientAck` whose origin is 2³²+1 is an overlong site id, not a
    /// hello from site 1 that a hub would bind.
    #[test]
    fn a_site_id_past_u32_is_overlong_not_truncated() {
        let mut bytes: &[u8] = &[0x05, 0x81, 0x80, 0x80, 0x80, 0x10, 0x00];
        assert_eq!(EditorMsg::decode(&mut bytes), Err(WireError::Overlong));
    }

    #[test]
    fn client_op_round_trip() {
        round_trip(&EditorMsg::ClientOp(ClientOpMsg {
            origin: SiteId(2),
            stamp: CompressedStamp::new(0, 1),
            op: sample_seq_op(),
            cursor: None,
        }));
    }

    #[test]
    fn server_op_round_trip() {
        round_trip(&EditorMsg::ServerOp(ServerOpMsg {
            stamp: CompressedStamp::new(300, 7),
            op: SeqOp::from_pos(&PosOp::delete(2, "CDE"), 8),
            cursor: None,
        }));
    }

    #[test]
    fn mesh_op_round_trip() {
        round_trip(&EditorMsg::MeshOp(MeshOpMsg {
            origin: SiteId(5),
            vector: VectorClock::from_entries(vec![1, 0, 200, 3, 4]),
            op: TtfOp::Insert {
                pos: 12,
                ch: '字',
                site: 5,
            },
        }));
        round_trip(&EditorMsg::MeshOp(MeshOpMsg {
            origin: SiteId(1),
            vector: VectorClock::from_entries(vec![0, 0]),
            op: TtfOp::Delete { pos: 0 },
        }));
    }

    #[test]
    fn relay_op_round_trip() {
        round_trip(&EditorMsg::RelayOp(RelayOpMsg {
            origin_shard: 2,
            seq: 17,
            sent_at_us: 1_234_567,
            inner: MeshOpMsg {
                origin: SiteId(3),
                vector: VectorClock::from_entries(vec![4, 0, 17, 2]),
                op: TtfOp::Insert {
                    pos: 9,
                    ch: 'ß',
                    site: 3,
                },
            },
        }));
        round_trip(&EditorMsg::RelayOp(RelayOpMsg {
            origin_shard: 0,
            seq: 1,
            sent_at_us: 0,
            inner: MeshOpMsg {
                origin: SiteId(1),
                vector: VectorClock::from_entries(vec![1, 0]),
                op: TtfOp::Delete { pos: 0 },
            },
        }));
    }

    #[test]
    fn relay_ack_round_trip() {
        round_trip(&EditorMsg::RelayAck(RelayAckMsg {
            origin_shard: 7,
            received: 4096,
        }));
        let msg = EditorMsg::RelayAck(RelayAckMsg {
            origin_shard: 1,
            received: 5,
        });
        assert_eq!(msg.wire_bytes(), 3); // tag + shard + 1-byte varint
        assert_eq!(msg.stamp_integers(), 1);
    }

    #[test]
    fn relay_stamp_is_shard_width_not_client_width() {
        // The federation's causality metadata scales with K (notifiers),
        // not N (clients) — the point of the shard-tier vector.
        let msg = EditorMsg::RelayOp(RelayOpMsg {
            origin_shard: 1,
            seq: 1,
            sent_at_us: 0,
            inner: MeshOpMsg {
                origin: SiteId(2),
                vector: VectorClock::new(4),
                op: TtfOp::Delete { pos: 0 },
            },
        });
        assert_eq!(msg.stamp_integers(), 4);
        assert_eq!(msg.stamp_bytes(), 5); // width prefix + 4 zero entries
    }

    #[test]
    fn compressed_stamps_cost_constant_integers() {
        let msg = EditorMsg::ServerOp(ServerOpMsg {
            stamp: CompressedStamp::new(1, 0),
            op: sample_seq_op(),
            cursor: None,
        });
        assert_eq!(msg.stamp_integers(), 2);
        // Small counters: 2 bytes of stamp total.
        assert_eq!(msg.stamp_bytes(), 2);
    }

    #[test]
    fn mesh_stamp_grows_with_n() {
        let op = TtfOp::Delete { pos: 1 };
        for n in [2usize, 8, 64, 512] {
            let msg = EditorMsg::MeshOp(MeshOpMsg {
                origin: SiteId(1),
                vector: VectorClock::new(n),
                op,
            });
            assert_eq!(msg.stamp_integers(), n);
            // width prefix + n single-byte zeros
            assert_eq!(msg.stamp_bytes(), varint_len(n as u64) + n);
        }
    }

    #[test]
    fn server_ack_round_trip() {
        round_trip(&EditorMsg::ServerAck(ServerAckMsg { acked: 300 }));
        let msg = EditorMsg::ServerAck(ServerAckMsg { acked: 5 });
        assert_eq!(msg.wire_bytes(), 2); // tag + 1-byte varint
        assert_eq!(msg.stamp_integers(), 1);
    }

    #[test]
    fn client_ack_round_trip() {
        round_trip(&EditorMsg::ClientAck(ClientAckMsg {
            origin: SiteId(3),
            received: 129,
        }));
        let msg = EditorMsg::ClientAck(ClientAckMsg {
            origin: SiteId(3),
            received: 5,
        });
        assert_eq!(msg.wire_bytes(), 3); // tag + origin + 1-byte varint
        assert_eq!(msg.stamp_integers(), 1);
        assert_eq!(msg.stamp_bytes(), 1);
    }

    #[test]
    fn server_op_frame_matches_per_destination_encode() {
        // The encode-once contract: head-patching a shared body produces
        // the exact bytes of a fresh `EditorMsg::ServerOp` encode.
        let op = SeqOp::from_pos(&PosOp::insert(2, "stamped"), 9);
        for cursor in [None, Some((3u32, 7u64))] {
            let frame = ServerOpFrame::new(&op, &cursor);
            for (t1, t2) in [(0u64, 0u64), (1, 2), (300, 7), (u64::MAX, 1 << 40)] {
                let stamp = CompressedStamp::new(t1, t2);
                let reference = EditorMsg::ServerOp(ServerOpMsg {
                    stamp,
                    op: op.clone(),
                    cursor,
                });
                let mut expect = Vec::new();
                reference.encode(&mut expect);
                let payload = frame.payload_for(stamp);
                assert_eq!(payload.to_vec(), expect);
                assert_eq!(payload.len(), reference.wire_bytes());
                assert_eq!(frame.wire_bytes_for(stamp), reference.wire_bytes());
                assert_eq!(
                    frame.body_len(),
                    server_op_body_len(&op, &cursor),
                    "body priced once"
                );
            }
        }
    }

    #[test]
    fn payload_equality_ignores_the_split() {
        let whole = Payload::from_vec(vec![1, 2, 3, 4]);
        let split = Payload::from_parts(vec![1, 2], vec![3u8, 4].into());
        assert_eq!(whole, split);
        assert_ne!(whole, Payload::from_vec(vec![1, 2, 3]));
        let mut flipped = split.clone();
        flipped.flip_bit(3, 0);
        assert_ne!(whole, flipped);
        assert_eq!(split.to_vec(), vec![1, 2, 3, 4], "copy-on-write");
    }

    #[test]
    fn compound_round_trip() {
        let msg = EditorMsg::Compound(vec![
            EditorMsg::ServerOp(ServerOpMsg {
                stamp: CompressedStamp::new(3, 1),
                op: sample_seq_op(),
                cursor: Some((2, 5)),
            }),
            EditorMsg::ServerAck(ServerAckMsg { acked: 9 }),
            EditorMsg::ClientAck(ClientAckMsg {
                origin: SiteId(4),
                received: 2,
            }),
        ]);
        round_trip(&msg);
        assert_eq!(msg.stamp_integers(), 2 + 1 + 1);
    }

    #[test]
    fn compound_rejects_nesting_and_emptiness() {
        // Empty compound: never produced, always rejected.
        let mut empty: &[u8] = &[6, 0];
        assert_eq!(EditorMsg::decode(&mut empty), Err(WireError::BadTag(6)));
        // Nested compound: the inner tag is treated as unknown.
        let inner = EditorMsg::Compound(vec![EditorMsg::ServerAck(ServerAckMsg { acked: 1 })]);
        let mut buf = vec![6u8, 1];
        inner.encode(&mut buf);
        let mut slice: &[u8] = &buf;
        assert_eq!(EditorMsg::decode(&mut slice), Err(WireError::BadTag(6)));
        // A hostile count beyond the buffer is truncation, not allocation.
        let mut huge: &[u8] = &[6, 0xff, 0xff, 0xff, 0x7f];
        assert_eq!(EditorMsg::decode(&mut huge), Err(WireError::Truncated));
    }

    fn three_messages() -> Vec<EditorMsg> {
        vec![
            EditorMsg::ServerOp(ServerOpMsg {
                stamp: CompressedStamp::new(3, 1),
                op: sample_seq_op(),
                cursor: Some((2, 5)),
            }),
            EditorMsg::ServerAck(ServerAckMsg { acked: 9 }),
            EditorMsg::ClientAck(ClientAckMsg {
                origin: SiteId(4),
                received: 2,
            }),
        ]
    }

    #[test]
    fn decode_payload_takes_exactly_one_message() {
        let msg = three_messages().remove(0);
        let mut bytes = Payload::encode(&msg).to_vec();
        let mut out = Vec::new();
        decode_payload([&bytes, &[]], &mut out).expect("one whole message");
        assert_eq!(out, vec![msg.clone()]);
        // Appended, not replaced; and a refused payload appends nothing.
        bytes.push(0x2a);
        assert_eq!(
            decode_payload([&bytes, &[]], &mut out),
            Err(WireError::BadTag(0x2a)),
            "a byte past the message is refused"
        );
        assert_eq!(
            decode_payload([&[], &[]], &mut out),
            Err(WireError::Truncated),
            "an empty payload is not a message"
        );
        assert_eq!(out, vec![msg]);
    }

    #[test]
    fn decode_payload_flattens_a_compound_in_order_and_refuses_nesting() {
        let subs = three_messages();
        let compound = Payload::encode(&EditorMsg::Compound(subs.clone()));
        let mut out = Vec::new();
        decode_payload(compound.chunks(), &mut out).expect("compound of three");
        assert_eq!(out, subs, "the sub-messages, never the compound");
        // Header-built (the transports' way) reads the same.
        let mut built = compound_header(subs.len());
        for m in &subs {
            m.encode(&mut built);
        }
        assert_eq!(built, compound.to_vec());
        // A compound inside a compound is a bad tag, not a recursion.
        let mut nested = compound_header(1);
        nested.extend(compound.to_vec());
        out.clear();
        assert_eq!(
            decode_payload([&nested, &[]], &mut out),
            Err(WireError::BadTag(TAG_COMPOUND))
        );
        assert!(out.is_empty());
    }

    #[test]
    fn decode_payload_reads_across_the_chunk_split_at_every_boundary() {
        let subs = three_messages();
        let bytes = Payload::encode(&EditorMsg::Compound(subs.clone())).to_vec();
        for cut in 0..=bytes.len() {
            let (head, body) = bytes.split_at(cut);
            let mut out = Vec::new();
            decode_payload([head, body], &mut out).expect("any split decodes");
            assert_eq!(out, subs, "split at {cut}");
            let mut junk = body.to_vec();
            junk.push(0);
            assert!(
                decode_payload([head, &junk], &mut out).is_err(),
                "trailing byte at split {cut}"
            );
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut empty: &[u8] = &[];
        assert_eq!(EditorMsg::decode(&mut empty), Err(WireError::Truncated));
        let mut bad: &[u8] = &[0x7f];
        assert_eq!(EditorMsg::decode(&mut bad), Err(WireError::BadTag(0x7f)));
        // Truncated mid-payload.
        let msg = EditorMsg::ServerOp(ServerOpMsg {
            stamp: CompressedStamp::new(1, 1),
            op: sample_seq_op(),
            cursor: None,
        });
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        for cut in 1..buf.len() {
            let mut slice = &buf[..cut];
            assert!(
                EditorMsg::decode(&mut slice).is_err() || !slice.is_empty(),
                "cut at {cut} decoded cleanly"
            );
        }
    }
}
