//! Editor wire messages with byte-exact encoding.
//!
//! Three deployments share one message enum so a single simulator type
//! parameter covers them all:
//!
//! * **Star / CVC** (the paper): [`ClientOpMsg`] carries a 2-element
//!   compressed stamp up to the notifier; [`ServerOpMsg`] carries a
//!   2-element stamp back down. *No message in the paper's deployment ever
//!   carries more than two timestamp integers* — that is the claim under
//!   test. Inside a compound frame the two integers travel as deltas from
//!   the previous op of the same kind, in the member's head
//!   ([`write_compound`]).
//! * **Mesh / full vector** (classic REDUCE baseline): [`MeshOpMsg`]
//!   carries an `N`-element vector.
//! * **Relay star** (ablation E9: star topology *without* the transforming
//!   notifier): reuses [`MeshOpMsg`] — without central transformation the
//!   causality stays `N`-dimensional and the stamp must stay `N` wide,
//!   which is precisely the paper's Section 6 point.
//!
//! Encodings are hand-rolled varint formats (see `cvc_sim::wire`) so the
//! overhead experiments measure real bytes. Each format is written down
//! once, in its `put_*` writer, and every size is that writer run into a
//! counting sink ([`cvc_sim::wire::counted`]): `wire_bytes()` counts the
//! encoder, and `stamp_bytes()` counts the writers of the timestamp
//! portion the overhead-fraction reports split out — a lone message's
//! stamp, or a compound member's head and flagged delta (a tagged
//! member's stamp).
//!
//! An operation costs its edit. Its count varint is `count << 2 | cursor
//! kind`, each component is one varint `n << 2 | kind` (an insert's UTF-8
//! bytes follow its length), and after the components come only the
//! caret's owner (a `ServerOp`'s) and, for a caret away from the edit
//! end, its position. Kind 3 is [`WireError::BadTag`], and a caret past
//! its op's post-state is [`WireError::HostileLength`], so no replica ever
//! receives one.
//!
//! An op's final retain — the rest of the document — is not sent: the
//! receiving door already knows the base the op must consume and closes
//! it there ([`SeqOp::close_to`]), refusing an op that reaches past it.
//! Only an op whose caret travels at an explicit position (cursor kind 1)
//! keeps its tail, so the post-state bound on that caret is exact at
//! decode. The decoder reads an op with or without its tail, and a
//! decoded `ClientOp` or `ServerOp` is therefore *open* until its door
//! closes it. A `ClientOp` in the log is open too (the log format is the
//! wire format): replay closes it at the same door against the same state.
//! A snapshot's ops are written whole (`put_op`), since a pending op's
//! base is not known at restore.
//!
//! A lone message opens with its tag byte. A compound member opens with
//! one head varint instead, its kind in the low two bits: a `ServerOp`
//! (0) carries `T[1] delta << 3 | (T[2] delta ≠ 0) << 2` and the flagged
//! `T[2]` delta follows; a `ClientOp` (1) is the mirror image, then its
//! origin; a `ServerAck` (2) is `acked << 2`; kind 3 is exactly the byte
//! `3` before any other message's tagged encoding, or an op whose delta
//! does not fit the head. A one-character broadcast inside a compound
//! frame is 7 bytes: head 1, op 5, caret owner 1.

use bytes::{Buf, BufMut};
use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use cvc_core::vector::VectorClock;
use cvc_ot::seq::{Component, SeqOp};
use cvc_ot::ttf::TtfOp;
use cvc_sim::wire::{
    bounded_span, counted, get_bounded_len, get_bounded_span, get_u32, get_utf8, get_varint,
    put_varint, WireDecode, WireEncode, WireError, WireSize,
};
use std::sync::Arc;

pub(crate) const TAG_CLIENT_OP: u8 = 1;
const TAG_SERVER_OP: u8 = 2;
const TAG_MESH_OP: u8 = 3;
const TAG_SERVER_ACK: u8 = 4;
pub(crate) const TAG_CLIENT_ACK: u8 = 5;
const TAG_COMPOUND: u8 = 6;
// Tags 7 and 8 belonged to the retired federation's notifier-to-notifier
// messages. They are not reused: either byte leading a message is
// `WireError::BadTag`.

/// Cursor kinds, the low two bits of an op's count varint: no caret, a
/// caret at an explicit position, and a caret at the operation's edit end
/// ([`edit_end`]), which carries no position.
const CURSOR_NONE: u64 = 0;
const CURSOR_AT: u64 = 1;
const CURSOR_AT_EDIT_END: u64 = 2;

/// Component kinds, the low two bits of a component's varint; the high
/// bits are the run length, or an insert's UTF-8 byte length.
const COMP_RETAIN: u64 = 0;
const COMP_INSERT: u64 = 1;
const COMP_DELETE: u64 = 2;

/// Compound member kinds, the low two bits of a member's head varint.
const MEMBER_SERVER_OP: u64 = 0;
const MEMBER_CLIENT_OP: u64 = 1;
const MEMBER_SERVER_ACK: u64 = 2;
const MEMBER_TAGGED: u8 = 3;

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
    /// Several editor messages coalesced into one reliable-layer frame
    /// (one header, one checksum). Never nested; built by the transports'
    /// flush paths through [`write_compound`], not by the editor layer.
    Compound(Vec<EditorMsg>),
}

impl EditorMsg {
    /// Bytes of the encoded message that are timestamp data: what the
    /// writers of its stamps write.
    pub fn stamp_bytes(&self) -> usize {
        counted(|c| self.put_stamp(c))
    }

    /// Integer elements of timestamp data carried.
    pub fn stamp_integers(&self) -> usize {
        match self {
            EditorMsg::ClientOp(_) | EditorMsg::ServerOp(_) => 2,
            EditorMsg::MeshOp(m) => m.vector.width(),
            EditorMsg::ServerAck(_) | EditorMsg::ClientAck(_) => 1,
            EditorMsg::Compound(ms) => ms.iter().map(EditorMsg::stamp_integers).sum(),
        }
    }
}

/// An encoded editor frame held as `head ++ body`, where `body` is
/// refcounted and immutable. The split is what makes the notifier's
/// encode-once broadcast cheap: all `N−1` destinations share one `body`
/// (the serialized operation + telepointer) and differ only in the few
/// `head` bytes carrying the tag and the per-destination compressed stamp.
/// The head lives inline, so a destination's payload costs no allocation
/// of its own. A payload decoded off the wire has an empty `head`.
///
/// Equality and hashing are over the *logical* bytes (`head ++ body`), so
/// the same frame split differently still compares equal.
#[derive(Debug, Clone)]
pub struct Payload {
    head: Head,
    body: Arc<[u8]>,
}

/// Most bytes a [`Payload`] head holds: a tag and two stamp varints.
const HEAD_MAX: usize = 1 + 2 * 10;

/// A payload's per-destination head, inline.
#[derive(Clone, Copy, Default)]
struct Head {
    len: u8,
    bytes: [u8; HEAD_MAX],
}

impl Head {
    fn as_slice(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

/// Filled by [`ServerOpFrame::payload_for`] and [`Payload::from_parts`],
/// which never write past [`HEAD_MAX`].
impl BufMut for Head {
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_slice(&mut self, src: &[u8]) {
        let at = usize::from(self.len);
        if let Some(dst) = self.bytes.get_mut(at..at + src.len()) {
            dst.copy_from_slice(src);
            self.len += src.len() as u8;
        }
        debug_assert!(at + src.len() <= HEAD_MAX, "a head is a tag and a stamp");
    }
}

impl std::fmt::Debug for Head {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl Payload {
    /// A payload whose logical bytes are exactly `bytes` (empty head).
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        Payload {
            head: Head::default(),
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

    /// A payload whose logical bytes are `head ++ body`, `body` shared. A
    /// head longer than a tag and a stamp moves into a fresh body.
    pub fn from_parts(head: &[u8], body: Arc<[u8]>) -> Self {
        if head.len() > HEAD_MAX {
            return Payload::from_vec([head, &body].concat());
        }
        let mut inline = Head::default();
        inline.put_slice(head);
        Payload { head: inline, body }
    }

    /// Logical length in bytes.
    pub fn len(&self) -> usize {
        usize::from(self.head.len) + self.body.len()
    }

    /// True when there are no logical bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The two byte runs making up the logical frame, in order.
    pub fn chunks(&self) -> [&[u8]; 2] {
        [self.head.as_slice(), &self.body]
    }

    /// Append the logical bytes to `buf`.
    pub fn write_to<B: BufMut>(&self, buf: &mut B) {
        buf.put_slice(self.head.as_slice());
        buf.put_slice(&self.body);
    }

    /// The logical bytes, materialized.
    pub fn to_vec(&self) -> Vec<u8> {
        self.chunks().concat()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        let [h, b] = self.chunks();
        let [oh, ob] = other.chunks();
        self.len() == other.len() && h.iter().chain(b).eq(oh.iter().chain(ob))
    }
}

impl Eq for Payload {}

impl std::hash::Hash for Payload {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        self.len().hash(h);
        self.chunks().iter().for_each(|c| h.write(c));
    }
}

/// An encoded message is as long as it is: the same count
/// [`EditorMsg::wire_bytes`] gives before encoding.
impl WireSize for Payload {
    fn wire_bytes(&self) -> usize {
        self.len()
    }
}

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
        let mut b = Vec::with_capacity(counted(|c| put_server_op_body(c, op, cursor)));
        put_server_op_body(&mut b, op, cursor);
        ServerOpFrame { body: b.into() }
    }

    /// The full frame for one destination: `[TAG_SERVER_OP, stamp] ++ body`.
    pub fn payload_for(&self, stamp: CompressedStamp) -> Payload {
        let mut head = Head::default();
        head.put_u8(TAG_SERVER_OP);
        put_stamp(&mut head, stamp);
        Payload {
            head,
            body: Arc::clone(&self.body),
        }
    }
}

/// Most sub-messages one compound frame may carry on a write path.
pub const COMPOUND_MAX: usize = 32;

/// Frame one connection's write round in groups of up to [`COMPOUND_MAX`]:
/// a lone payload as a plain frame, a larger group as one compound frame —
/// one header and checksum over the whole group, DESIGN §14's freight
/// saving. A compound is written into `scratch` by [`write_compound`].
/// `frame` gets each frame's chunks and its message count. The one
/// batching rule: the TCP server's socket writes and the simulator's
/// connections both frame through it.
pub fn frame_groups<E>(
    payloads: &[Payload],
    scratch: &mut Vec<u8>,
    mut frame: impl FnMut(&[&[u8]], usize) -> Result<(), E>,
) -> Result<(), E> {
    for group in payloads.chunks(COMPOUND_MAX) {
        if let [p] = group {
            frame(&p.chunks(), 1)?;
        } else {
            scratch.clear();
            write_compound(group.iter(), scratch);
            frame(&[scratch], group.len())?;
        }
    }
    Ok(())
}

/// Append `payloads` to `buf` as one compound frame: `[TAG_COMPOUND][count
/// varint]`, then each payload's message as a member. This is how every
/// transport coalesces several queued editor messages into one frame
/// ([`frame_groups`]), and it writes the bytes [`EditorMsg::Compound`] of
/// the same messages encodes to, so [`decode_payload`] reads both
/// identically.
///
/// Each payload is one encoded message, split by
/// [`ServerOpFrame::payload_for`] or whole from [`Payload::encode`]. An
/// op's or a `ServerAck`'s tag and stamp are re-written as its member
/// head, the stamp a delta from the previous op of its kind in the frame;
/// the bytes after the stamp, the shared body, are copied as they are.
/// Any other payload is copied whole behind the kind-3 byte.
pub fn write_compound<'a, B: BufMut>(
    payloads: impl ExactSizeIterator<Item = &'a Payload>,
    buf: &mut B,
) {
    put_compound(payloads, buf, |p, buf, ctx| ctx.rehead(p, buf));
}

/// The one compound writer: header, then each part under one fresh
/// [`Deltas`] context.
fn put_compound<'a, T: 'a, B: BufMut>(
    parts: impl ExactSizeIterator<Item = &'a T>,
    buf: &mut B,
    mut put: impl FnMut(&T, &mut B, &mut Deltas),
) {
    buf.put_u8(TAG_COMPOUND);
    put_varint(buf, parts.len() as u64);
    let mut ctx = Deltas::default();
    for part in parts {
        put(part, buf, &mut ctx);
    }
}

/// The stamp context of one compound frame: the last `ServerOp` and the
/// last `ClientOp` stamp in it, indexed by "is a `ClientOp`". Each op's
/// stamp travels as wrapping deltas `(T[1] − prev T[1], T[2] − prev T[2])`
/// from the previous op of its kind, so consecutive broadcasts to one site
/// cost a 1-byte head. Both start
/// at zero: the first op of each kind carries its absolute stamp. A
/// context never outlives its frame, so every frame decodes alone.
///
/// The decoder adds the deltas back and hands the replicas absolute
/// stamps; `T[1]` is read, never implied from its predecessor, so a
/// duplicated, skipped or reordered broadcast still reaches the FIFO
/// check with the value it was sent with.
#[derive(Debug, Clone, Copy, Default)]
struct Deltas([(u64, u64); 2]);

impl Deltas {
    /// `s`, a `ClientOp`'s stamp when `client`, as a delta from the
    /// previous op of its kind; `s` becomes the previous.
    fn delta(&mut self, client: bool, s: CompressedStamp) -> CompressedStamp {
        let prev = &mut self.0[usize::from(client)];
        let d = CompressedStamp::new(s.t1.wrapping_sub(prev.0), s.t2.wrapping_sub(prev.1));
        *prev = s.as_pair();
        d
    }

    /// The stamp the delta `d` stands for, which becomes the previous.
    fn undelta(&mut self, client: bool, d: CompressedStamp) -> CompressedStamp {
        let prev = &mut self.0[usize::from(client)];
        *prev = (prev.0.wrapping_add(d.t1), prev.1.wrapping_add(d.t2));
        CompressedStamp::new(prev.0, prev.1)
    }

    /// Write the encoded message `p` as a member: an op or a `ServerAck`
    /// re-headed, anything else (or a payload whose front does not parse)
    /// whole behind the kind-3 byte.
    fn rehead<B: BufMut>(&mut self, p: &Payload, buf: &mut B) {
        let [head, body] = p.chunks();
        let mut rd = head.chain(body);
        let total = rd.remaining();
        match read_lead(&mut rd) {
            Some(Lead::Op(origin, s)) => {
                put_op_member_head(buf, origin, self.delta(origin.is_some(), s));
            }
            Some(Lead::Ack(head)) => put_varint(buf, head),
            None => {
                buf.put_u8(MEMBER_TAGGED);
                p.write_to(buf);
                return;
            }
        }
        let read = total - rd.remaining();
        // The rest of the logical bytes: what is left of the head (none,
        // for a split payload), then the body past what was read of it.
        if let Some(head_rest) = head.get(read..) {
            buf.put_slice(head_rest);
            buf.put_slice(body);
        } else {
            buf.put_slice(body.get(read - head.len()..).unwrap_or_default());
        }
    }
}

/// What a member re-heads from the front of an encoded message: an op's
/// origin (a `ClientOp`'s) and absolute stamp, or a `ServerAck`'s head.
enum Lead {
    Op(Option<u32>, CompressedStamp),
    Ack(u64),
}

/// The [`Lead`] at the front of an encoded message; `None` for a message
/// that travels tagged.
fn read_lead<B: Buf>(buf: &mut B) -> Option<Lead> {
    if !buf.has_remaining() {
        return None;
    }
    match buf.get_u8() {
        TAG_SERVER_OP => Some(Lead::Op(None, get_stamp(buf).ok()?)),
        TAG_CLIENT_OP => {
            let origin = get_u32(buf).ok()?;
            Some(Lead::Op(Some(origin), get_stamp(buf).ok()?))
        }
        TAG_SERVER_ACK => {
            let acked = get_varint(buf).ok()?;
            EditorMsg::ServerAck(ServerAckMsg { acked })
                .ack_head()
                .map(Lead::Ack)
        }
        _ => None,
    }
}

/// The head varint of an op member (a `ClientOp` when `client`) whose
/// stamp delta is `d`, and the delta the head flags (0: none follows).
/// The lead delta — a `ServerOp`'s `T[1]`, a `ClientOp`'s `T[2]` — sits
/// above the flag and kind bits; `None` when it does not fit there, and
/// the member goes tagged.
fn op_head(client: bool, d: CompressedStamp) -> Option<(u64, u64)> {
    let (kind, lead, flagged) = if client {
        (MEMBER_CLIENT_OP, d.t2, d.t1)
    } else {
        (MEMBER_SERVER_OP, d.t1, d.t2)
    };
    (lead < 1 << 61).then_some((lead << 3 | u64::from(flagged != 0) << 2 | kind, flagged))
}

/// Write an op member up to its op: the head, the flagged delta and a
/// `ClientOp`'s origin; for a delta the head cannot hold, the kind-3 byte
/// and the tagged encoding's tag, origin and (delta) stamp.
fn put_op_member_head<B: BufMut>(buf: &mut B, origin: Option<u32>, d: CompressedStamp) {
    let client = origin.is_some();
    let origin = |buf: &mut B| origin.map_or((), |o| put_varint(buf, u64::from(o)));
    if op_head(client, d).is_some() {
        put_op_member_stamp(buf, client, d);
        origin(buf);
    } else {
        buf.put_u8(MEMBER_TAGGED);
        buf.put_u8(if client { TAG_CLIENT_OP } else { TAG_SERVER_OP });
        origin(buf);
        put_op_member_stamp(buf, client, d);
    }
}

/// The stamp of an op member whose delta is `d`: its head and flagged
/// delta, or a tagged member's (delta) stamp.
fn put_op_member_stamp<B: BufMut>(buf: &mut B, client: bool, d: CompressedStamp) {
    match op_head(client, d) {
        Some((head, flagged)) => {
            put_varint(buf, head);
            if flagged != 0 {
                put_varint(buf, flagged);
            }
        }
        None => put_stamp(buf, d),
    }
}

pub(crate) fn put_stamp<B: BufMut>(buf: &mut B, s: CompressedStamp) {
    put_varint(buf, s.t1);
    put_varint(buf, s.t2);
}

fn get_stamp<B: Buf>(buf: &mut B) -> Result<CompressedStamp, WireError> {
    Ok(CompressedStamp::new(get_varint(buf)?, get_varint(buf)?))
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

/// `n` with a two-bit kind in its low bits: one varint says both.
fn fold(n: usize, kind: u64) -> u64 {
    (n as u64) << 2 | kind
}

/// A folded varint split into its value and kind; kind 3 names nothing.
fn unfold(v: u64) -> Result<(u64, u64), WireError> {
    match v & 3 {
        3 => Err(WireError::BadTag(3)),
        kind => Ok((v >> 2, kind)),
    }
}

/// The cursor kind a caret after `op` travels as, and the position that
/// follows the components (kind 1 only): none when the caret sits at the
/// edit end, which kind 2 says alone.
fn caret_kind(op: &SeqOp, caret: Option<u64>) -> (u64, Option<u64>) {
    match caret {
        None => (CURSOR_NONE, None),
        Some(pos) if edit_end(op) == Some(pos) => (CURSOR_AT_EDIT_END, None),
        Some(pos) => (CURSOR_AT, Some(pos)),
    }
}

/// A component as the codec writes it: its folded varint, then (an
/// insert's) UTF-8 bytes.
fn folded(c: &Component) -> (u64, &[u8]) {
    match c {
        Component::Retain(n) => (fold(*n, COMP_RETAIN), &[]),
        Component::Insert(s) => (fold(s.len(), COMP_INSERT), s.as_bytes()),
        Component::Delete(n) => (fold(*n, COMP_DELETE), &[]),
    }
}

/// The components an op sends under cursor kind `kind`: all but a final
/// retain, which the receiving door implies from the base it already
/// knows ([`SeqOp::close_to`]). An op whose caret travels at an explicit
/// position (kind 1) keeps it, so [`get_caret`] refuses a caret past the
/// post-state exactly.
fn sent(op: &SeqOp, kind: u64) -> &[Component] {
    match op.components() {
        [rest @ .., Component::Retain(_)] if kind != CURSOR_AT => rest,
        comps => comps,
    }
}

fn put_seq_op<B: BufMut>(buf: &mut B, comps: &[Component], kind: u64) {
    put_varint(buf, fold(comps.len(), kind));
    for c in comps {
        let (v, text) = folded(c);
        put_varint(buf, v);
        buf.put_slice(text);
    }
}

/// Read an op and the cursor kind its count varint carries.
fn get_seq_op<B: Buf>(buf: &mut B) -> Result<(SeqOp, u64), WireError> {
    // A component folds into as little as one byte, so a count past the
    // remaining bytes is a lie; retain/delete run lengths are additionally
    // capped at the document-size bound so a hostile span cannot drive
    // downstream position arithmetic.
    let (n, kind) = unfold(get_varint(buf)?)?;
    if n > buf.remaining() as u64 {
        return Err(WireError::Truncated);
    }
    // One reservation fits a single-site op (`retain·insert·delete·retain`,
    // the last retain sent or appended by the door that closes it); capping
    // it there keeps a hostile count from driving the allocation.
    let mut op = SeqOp::with_capacity(n.min(3) as usize + 1);
    for _ in 0..n {
        match unfold(get_varint(buf)?)? {
            (len, COMP_RETAIN) => op.retain(bounded_span(len)?),
            (len, COMP_INSERT) => op.insert_owned(get_utf8(buf, len)?),
            (len, _) => op.delete(bounded_span(len)?),
        };
    }
    Ok((op, kind))
}

/// Write a bare op, with no caret: how a notifier's snapshot writes
/// history entries and pending broadcasts.
pub(crate) fn put_op<B: BufMut>(buf: &mut B, op: &SeqOp) {
    put_seq_op(buf, op.components(), CURSOR_NONE);
}

/// Read a bare op (see [`put_op`]); a count varint that names a caret is
/// refused.
pub(crate) fn get_op<B: Buf>(buf: &mut B) -> Result<SeqOp, WireError> {
    match get_seq_op(buf)? {
        (op, CURSOR_NONE) => Ok(op),
        (_, kind) => Err(WireError::BadTag(kind as u8)),
    }
}

/// Where a caret sits after `op`'s one edit: `retain p · insert t? ·
/// delete d? · retain r?` ends its edit at `p + |t|`. An op that edits
/// nothing, or more than one place, has no edit end.
fn edit_end(op: &SeqOp) -> Option<u64> {
    let (mut end, mut edits, mut rest) = (0, false, op.components());
    if let [Component::Retain(n), tail @ ..] = rest {
        (end, rest) = (*n, tail);
    }
    if let [Component::Insert(s), tail @ ..] = rest {
        (end, edits, rest) = (end + s.chars().count(), true, tail);
    }
    if let [Component::Delete(_), tail @ ..] = rest {
        (edits, rest) = (true, tail);
    }
    (edits && matches!(rest, [] | [Component::Retain(_)])).then_some(end as u64)
}

/// The caret that cursor kind `kind` stands for after `op`; for kind 1
/// the position is read from `buf`. A position past the op's post-state
/// is hostile: no replica could place it, and a notifier would pass it on
/// to every peer.
fn get_caret<B: Buf>(buf: &mut B, op: &SeqOp, kind: u64) -> Result<Option<u64>, WireError> {
    match kind {
        CURSOR_NONE => Ok(None),
        CURSOR_AT => match get_varint(buf)? {
            pos if pos > op.target_len() as u64 => Err(WireError::HostileLength(pos)),
            pos => Ok(Some(pos)),
        },
        // An op with no edit end cannot carry a caret there.
        _ => edit_end(op)
            .map(Some)
            .ok_or(WireError::BadTag(CURSOR_AT_EDIT_END as u8)),
    }
}

/// Write a [`ServerOpMsg`] body (everything after the stamp): the op,
/// then the caret's owner and, for cursor kind 1, its position. Counted
/// once per broadcast, it prices all `N−1` destination frames.
pub(crate) fn put_server_op_body<B: BufMut>(buf: &mut B, op: &SeqOp, cursor: &Option<(u32, u64)>) {
    let (kind, pos) = caret_kind(op, cursor.map(|(_, pos)| pos));
    put_seq_op(buf, sent(op, kind), kind);
    if let Some((owner, _)) = *cursor {
        put_varint(buf, u64::from(owner));
    }
    if let Some(pos) = pos {
        put_varint(buf, pos);
    }
}

/// Read a [`ServerOpMsg`] body.
fn get_server_op_body<B: Buf>(buf: &mut B) -> Result<(SeqOp, Option<(u32, u64)>), WireError> {
    let (op, kind) = get_seq_op(buf)?;
    if kind == CURSOR_NONE {
        return Ok((op, None));
    }
    let owner = get_u32(buf)?;
    let cursor = get_caret(buf, &op, kind)?.map(|pos| (owner, pos));
    Ok((op, cursor))
}

/// Write a [`ClientOpMsg`] after its tag. The WAL's op record and the
/// upstream message share this writer and its reader: the log format is
/// the wire format.
pub(crate) fn put_client_op<B: BufMut>(buf: &mut B, m: &ClientOpMsg) {
    put_varint(buf, u64::from(m.origin.0));
    put_stamp(buf, m.stamp);
    put_client_op_body(buf, m);
}

/// Read a [`ClientOpMsg`] after its tag.
pub(crate) fn get_client_op<B: Buf>(buf: &mut B) -> Result<ClientOpMsg, WireError> {
    let origin = SiteId(get_u32(buf)?);
    let stamp = get_stamp(buf)?;
    get_client_op_body(buf, origin, stamp)
}

/// Write a [`ClientOpMsg`] body: its op and caret, after the origin and
/// stamp (or a member's head and origin).
fn put_client_op_body<B: BufMut>(buf: &mut B, m: &ClientOpMsg) {
    let (kind, pos) = caret_kind(&m.op, m.cursor);
    put_seq_op(buf, sent(&m.op, kind), kind);
    if let Some(pos) = pos {
        put_varint(buf, pos);
    }
}

fn get_client_op_body<B: Buf>(
    buf: &mut B,
    origin: SiteId,
    stamp: CompressedStamp,
) -> Result<ClientOpMsg, WireError> {
    let (op, kind) = get_seq_op(buf)?;
    let cursor = get_caret(buf, &op, kind)?;
    Ok(ClientOpMsg {
        origin,
        stamp,
        op,
        cursor,
    })
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
        counted(|c| self.encode(c))
    }
}

impl WireEncode for EditorMsg {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            EditorMsg::ClientOp(m) => {
                buf.put_u8(TAG_CLIENT_OP);
                put_client_op(buf, m);
            }
            EditorMsg::ServerOp(m) => {
                buf.put_u8(TAG_SERVER_OP);
                put_stamp(buf, m.stamp);
                put_server_op_body(buf, &m.op, &m.cursor);
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
            EditorMsg::Compound(ms) => {
                debug_assert!(
                    ms.iter().all(|m| !matches!(m, EditorMsg::Compound(_))),
                    "compound frames never nest"
                );
                put_compound(ms.iter(), buf, |m, buf, ctx| m.put_member(buf, ctx));
            }
        }
    }
}

impl EditorMsg {
    /// Write this message's timestamp data: an op's two integers, a mesh
    /// op's vector, an ack's count, or each compound member's.
    fn put_stamp<B: BufMut>(&self, buf: &mut B) {
        match self {
            EditorMsg::ClientOp(ClientOpMsg { stamp, .. })
            | EditorMsg::ServerOp(ServerOpMsg { stamp, .. }) => put_stamp(buf, *stamp),
            EditorMsg::MeshOp(m) => put_vector(buf, &m.vector),
            EditorMsg::ServerAck(m) => put_varint(buf, m.acked),
            EditorMsg::ClientAck(m) => put_varint(buf, m.received),
            EditorMsg::Compound(ms) => {
                let mut ctx = Deltas::default();
                ms.iter().for_each(|m| m.put_member_stamp(buf, &mut ctx));
            }
        }
    }

    /// Write this message's timestamp data as a compound member: an op's
    /// head and flagged delta, a `ServerAck`'s head, or a tagged member's
    /// stamp.
    fn put_member_stamp<B: BufMut>(&self, buf: &mut B, ctx: &mut Deltas) {
        match self {
            EditorMsg::ServerOp(m) => put_op_member_stamp(buf, false, ctx.delta(false, m.stamp)),
            EditorMsg::ClientOp(m) => put_op_member_stamp(buf, true, ctx.delta(true, m.stamp)),
            m => match m.ack_head() {
                Some(head) => put_varint(buf, head),
                None => m.put_stamp(buf),
            },
        }
    }

    /// The head varint of this message as a compound member when it is a
    /// `ServerAck` small enough to shift under the kind bits.
    fn ack_head(&self) -> Option<u64> {
        match self {
            EditorMsg::ServerAck(a) if a.acked < 1 << 62 => Some(a.acked << 2 | MEMBER_SERVER_ACK),
            _ => None,
        }
    }

    /// Encode as a compound member, an op's stamp a delta in `ctx`.
    fn put_member<B: BufMut>(&self, buf: &mut B, ctx: &mut Deltas) {
        match self {
            EditorMsg::ServerOp(m) => {
                put_op_member_head(buf, None, ctx.delta(false, m.stamp));
                put_server_op_body(buf, &m.op, &m.cursor);
            }
            EditorMsg::ClientOp(m) => {
                put_op_member_head(buf, Some(m.origin.0), ctx.delta(true, m.stamp));
                put_client_op_body(buf, m);
            }
            m => match m.ack_head() {
                Some(head) => put_varint(buf, head),
                None => {
                    buf.put_u8(MEMBER_TAGGED);
                    m.encode(buf);
                }
            },
        }
    }

    /// Decode one compound member, an op's stamp a delta in `ctx`. A set
    /// flag over a zero delta is [`WireError::Overlong`], so each member
    /// has one encoding; a kind-3 head with bits above the kind is
    /// `BadTag(3)`; a tagged compound is `BadTag(TAG_COMPOUND)`, never a
    /// recursion.
    fn decode_member<B: Buf>(buf: &mut B, ctx: &mut Deltas) -> Result<Self, WireError> {
        let head = get_varint(buf)?;
        let client = match head & 3 {
            MEMBER_SERVER_OP => false,
            MEMBER_CLIENT_OP => true,
            MEMBER_SERVER_ACK => {
                return Ok(EditorMsg::ServerAck(ServerAckMsg { acked: head >> 2 }))
            }
            _ if head != u64::from(MEMBER_TAGGED) => return Err(WireError::BadTag(MEMBER_TAGGED)),
            _ => {
                return Ok(match EditorMsg::decode_in(buf, false)? {
                    EditorMsg::ServerOp(mut m) => {
                        m.stamp = ctx.undelta(false, m.stamp);
                        EditorMsg::ServerOp(m)
                    }
                    EditorMsg::ClientOp(mut m) => {
                        m.stamp = ctx.undelta(true, m.stamp);
                        EditorMsg::ClientOp(m)
                    }
                    m => m,
                })
            }
        };
        let lead = head >> 3;
        let flagged = match head & 4 {
            0 => 0,
            _ => match get_varint(buf)? {
                0 => return Err(WireError::Overlong),
                d => d,
            },
        };
        if client {
            let origin = SiteId(get_u32(buf)?);
            let stamp = ctx.undelta(true, CompressedStamp::new(flagged, lead));
            get_client_op_body(buf, origin, stamp).map(EditorMsg::ClientOp)
        } else {
            let stamp = ctx.undelta(false, CompressedStamp::new(lead, flagged));
            let (op, cursor) = get_server_op_body(buf)?;
            Ok(EditorMsg::ServerOp(ServerOpMsg { stamp, op, cursor }))
        }
    }

    /// Decode one tagged message. `allow_compound` is false for a kind-3
    /// compound member, so nesting is rejected as a bad tag rather than
    /// recursed into.
    fn decode_in<B: Buf>(buf: &mut B, allow_compound: bool) -> Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::Truncated);
        }
        match buf.get_u8() {
            TAG_CLIENT_OP => Ok(EditorMsg::ClientOp(get_client_op(buf)?)),
            TAG_SERVER_OP => {
                let stamp = get_stamp(buf)?;
                let (op, cursor) = get_server_op_body(buf)?;
                Ok(EditorMsg::ServerOp(ServerOpMsg { stamp, op, cursor }))
            }
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
            TAG_COMPOUND if allow_compound => {
                // An empty compound is never produced (the flush path only
                // fires with pending frames) and a nested one is rejected
                // below, so a hostile count cannot recurse or spin. Each
                // member costs ≥ 1 byte (a `ServerAck` head), bounding the
                // allocation — checked in the u64 domain.
                let count = get_bounded_len(buf, 1)?;
                if count == 0 {
                    return Err(WireError::BadTag(TAG_COMPOUND));
                }
                let mut ctx = Deltas::default();
                let mut ms = Vec::with_capacity(count);
                for _ in 0..count {
                    ms.push(EditorMsg::decode_member(buf, &mut ctx)?);
                }
                Ok(EditorMsg::Compound(ms))
            }
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl WireDecode for EditorMsg {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        EditorMsg::decode_in(buf, true)
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
    use cvc_sim::wire::varint_len;

    fn sample_seq_op() -> SeqOp {
        SeqOp::from_pos(&PosOp::insert(3, "hello"), 10)
    }

    /// Encode, decode, and compare after closing a decoded op at its own
    /// base, as its door would: the op's trailing retain is implied.
    fn round_trip(msg: &EditorMsg) {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        assert_eq!(
            buf.len(),
            msg.wire_bytes(),
            "wire_bytes must match actual encoding for {msg:?}"
        );
        let mut slice = &buf[..];
        let mut back = EditorMsg::decode(&mut slice).expect("decode");
        assert!(slice.is_empty(), "decode must consume all bytes");
        match (&mut back, msg) {
            (EditorMsg::ClientOp(b), EditorMsg::ClientOp(m)) => b.op.close_to(m.op.base_len()),
            (EditorMsg::ServerOp(b), EditorMsg::ServerOp(m)) => b.op.close_to(m.op.base_len()),
            _ => Ok(()),
        }
        .expect("the op fits its own base");
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
            // The last stamp fills the inline head: a tag, two 10-byte varints.
            let stamps = [(0u64, 0u64), (1, 2), (300, 7), (u64::MAX, 1 << 40)];
            for (t1, t2) in stamps.into_iter().chain([(u64::MAX, u64::MAX)]) {
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
            }
        }
    }

    /// Every kind's size, pinned: `wire_bytes()` and `stamp_bytes()` of one
    /// message of each kind, of a compound holding the three re-headed
    /// kinds and of one whose deltas escape to kind-3 members, and
    /// `wire_bytes()` of one log record of each kind.
    #[test]
    fn every_kind_has_its_pinned_size() {
        use crate::wal::{AckFrontierRecord, WalRecord};
        let client_op = ClientOpMsg {
            origin: SiteId(2),
            stamp: CompressedStamp::new(4, 1),
            op: sample_seq_op(),
            cursor: Some(8),
        };
        let server_op = |t1, t2| {
            EditorMsg::ServerOp(ServerOpMsg {
                stamp: CompressedStamp::new(t1, t2),
                op: SeqOp::from_pos(&PosOp::delete(2, "CDE"), 8),
                cursor: Some((3, 1)),
            })
        };
        let client_ack = ClientAckMsg {
            origin: SiteId(3),
            received: 129,
        };
        let ack = |acked| EditorMsg::ServerAck(ServerAckMsg { acked });
        let far = EditorMsg::ClientOp(ClientOpMsg {
            stamp: CompressedStamp::new(1, 1 << 62),
            ..client_op.clone()
        });
        let messages = [
            (EditorMsg::ClientOp(client_op.clone()), 12, 2),
            (server_op(300, 7), 10, 3),
            (
                EditorMsg::MeshOp(MeshOpMsg {
                    origin: SiteId(5),
                    vector: VectorClock::from_entries(vec![1, 0, 200, 3, 4]),
                    op: TtfOp::Insert {
                        pos: 12,
                        ch: '字',
                        site: 5,
                    },
                }),
                15,
                7,
            ),
            (ack(300), 3, 2),
            (EditorMsg::ClientAck(client_ack), 4, 2),
            (
                EditorMsg::Compound(vec![
                    server_op(300, 7),
                    EditorMsg::ClientOp(client_op.clone()),
                    ack(9),
                    server_op(301, 7),
                ]),
                30,
                7,
            ),
            (
                EditorMsg::Compound(vec![
                    server_op(1 << 61, 0),
                    far,
                    ack(1 << 62),
                    EditorMsg::ClientAck(client_ack),
                ]),
                57,
                31,
            ),
        ];
        for (msg, wire, stamp) in messages {
            let sizes = (msg.wire_bytes(), msg.stamp_bytes());
            assert_eq!(sizes, (wire, stamp), "{msg:?}");
            assert_eq!(Payload::encode(&msg).len(), wire, "{msg:?}");
        }
        let records = [
            (WalRecord::Op(client_op), 12),
            (WalRecord::Ack(client_ack), 4),
            (
                WalRecord::AckFrontier(AckFrontierRecord {
                    entries: vec![(0, 5), (3, 300)],
                }),
                7,
            ),
            (WalRecord::Evict(SiteId(300)), 3),
        ];
        for (rec, wire) in records {
            assert_eq!(rec.wire_bytes(), wire, "{rec:?}");
            let mut bytes = Vec::new();
            rec.encode(&mut bytes);
            assert_eq!(bytes.len(), wire, "{rec:?}");
        }
    }

    #[test]
    fn payload_equality_ignores_the_split() {
        let whole = Payload::from_vec(vec![1, 2, 3, 4]);
        let split = Payload::from_parts(&[1, 2], vec![3u8, 4].into());
        assert_eq!(whole, split);
        assert_ne!(whole, Payload::from_vec(vec![1, 2, 3]));
        assert_ne!(whole, Payload::from_parts(&[1, 2], vec![3u8, 5].into()));
        assert_eq!(split.to_vec(), vec![1, 2, 3, 4]);
        // A head longer than a tag and a stamp still means its bytes.
        let long = Payload::from_parts(&[9; 2 * HEAD_MAX], vec![4u8].into());
        assert_eq!(long.to_vec(), [&[9; 2 * HEAD_MAX][..], &[4]].concat());
        // Inline, the head is no bigger than the `Vec` it replaced.
        assert!(std::mem::size_of::<Payload>() <= 40);
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
        // Nested compound: a kind-3 member's inner tag is treated as
        // unknown.
        let inner = EditorMsg::Compound(vec![EditorMsg::ServerAck(ServerAckMsg { acked: 1 })]);
        let mut buf = vec![6u8, 1, 3];
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
        // Written from payloads (the transports' way), the same bytes.
        let payloads: Vec<Payload> = subs.iter().map(Payload::encode).collect();
        let mut built = Vec::new();
        write_compound(payloads.iter(), &mut built);
        assert_eq!(built, compound.to_vec());
        // A compound inside a compound is a bad tag, not a recursion.
        let mut nested = Vec::new();
        write_compound([compound].iter(), &mut nested);
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
