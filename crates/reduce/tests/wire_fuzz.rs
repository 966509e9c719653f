//! Wire-codec hardening: decoding hostile bytes must be total.
//!
//! For every message type on the wire ([`EditorMsg`], and the
//! [`WalRecord`]s a standby reads like remote input) these properties
//! must hold:
//!
//! * **round trip** — decode(encode(m)) == m, consuming exactly
//!   `wire_bytes()`;
//! * **truncation** — every strict prefix of a valid encoding decodes to
//!   [`WireError`], never a panic and never a different message;
//! * **no over-read** — trailing garbage after a valid frame is left
//!   untouched in the buffer;
//! * **bit flips / garbage** — arbitrary corrupted or random byte strings
//!   decode to Ok-or-Err without panicking or reading past the end.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use bytes::BufMut;
use counting_alloc::tally;
use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use cvc_core::vector::VectorClock;
use cvc_ot::seq::{Component, SeqOp};
use cvc_ot::ttf::TtfOp;
use cvc_reduce::client::Client;
use cvc_reduce::error::ProtocolError;
use cvc_reduce::frame::{frame_checksum, split_frame, FrameError, FrameHasher, MAX_FRAME_BYTES};
use cvc_reduce::msg::{
    decode_payload, write_compound, ClientAckMsg, ClientOpMsg, EditorMsg, MeshOpMsg, Payload,
    ServerAckMsg, ServerOpFrame, ServerOpMsg,
};
use cvc_reduce::notifier::Notifier;
use cvc_reduce::wal::WalRecord;
use cvc_sim::wire::{put_varint, WireDecode, WireEncode, WireError, WireSize, MAX_WIRE_SPAN};
use proptest::prelude::*;

/// Decode `bytes` as an [`EditorMsg`] and return the error it must produce.
fn must_reject(bytes: &[u8]) -> WireError {
    let mut buf: &[u8] = bytes;
    match EditorMsg::decode(&mut buf) {
        Err(e) => e,
        Ok(m) => panic!("hostile frame decoded to {m:?}"),
    }
}

/// The 64-bit hostile-length battery: every length, count, span, and
/// position field in the editor wire format is fed a value that straddles
/// `2^32` — the shape that truncates into a small, plausible value when
/// cast to a 32-bit `usize` before the bounds check. Each must be rejected
/// with a typed error; none may allocate, over-read, or mis-parse. Frames
/// are built byte-by-byte against the stable wire tags (client-op 1,
/// server-op 2, mesh-op 3, compound 6; TTF insert 0 / delete 1) and the
/// op's folded varints ([`fold`]: components retain 0 / insert 1 / delete
/// 2 under their length, cursor kinds none 0 / at 1 / at the edit end 2
/// under the component count).
#[test]
fn hostile_64_bit_lengths_are_rejected_at_every_site() {
    let hostile = (1u64 << 32) + 5; // truncates to 5 on 32-bit usize

    // Site 1 — `get_vector` width (MeshOp): claims 2^32+5 entries over a
    // buffer holding 5 plausible entry bytes.
    let mut b = vec![3u8];
    put_varint(&mut b, 1); // origin
    put_varint(&mut b, hostile); // vector width
    b.extend_from_slice(&[0, 0, 0, 0, 0]);
    assert_eq!(must_reject(&b), WireError::Truncated);

    // Site 2 — `get_seq_op` component count (ServerOp): 2^32+5 components
    // over ten bytes that would parse as ten one-byte retain components.
    let mut b = vec![2u8];
    put_varint(&mut b, 0);
    put_varint(&mut b, 0); // stamp
    put_varint(&mut b, fold(hostile, 0)); // component count, no caret
    b.extend_from_slice(&[4; 10]); // retain 1, ten times
    assert_eq!(must_reject(&b), WireError::Truncated);

    // Sites 3 and 4 — retain/delete run lengths: a single component whose
    // span is past the document cap must surface the claimed value.
    for comp_kind in [0u64, 2] {
        let mut b = vec![2u8];
        put_varint(&mut b, 0);
        put_varint(&mut b, 0); // stamp
        put_varint(&mut b, fold(1, 0)); // one component, no caret
        put_varint(&mut b, fold(hostile, comp_kind)); // span
        assert_eq!(must_reject(&b), WireError::HostileLength(hostile));
    }

    // Insert-string byte length (the UTF-8 read the spans share a frame
    // with): 2^32+5 claimed bytes over 5 actual ones.
    let mut b = vec![2u8];
    put_varint(&mut b, 0);
    put_varint(&mut b, 0); // stamp
    put_varint(&mut b, fold(1, 0)); // one component, no caret
    put_varint(&mut b, fold(hostile, 1)); // insert, string byte length
    b.extend_from_slice(b"aaaaa");
    assert_eq!(must_reject(&b), WireError::Truncated);

    // Sites 5 and 6 — TTF insert/delete positions (MeshOp): positions are
    // document offsets and must hit the same cap as spans.
    let mut b = vec![3u8];
    put_varint(&mut b, 1); // origin
    put_varint(&mut b, 1); // width 1
    put_varint(&mut b, 0); // entry
    b.push(0); // TTF insert
    put_varint(&mut b, u64::MAX); // pos
    assert_eq!(must_reject(&b), WireError::HostileLength(u64::MAX));
    let mut b = vec![3u8];
    put_varint(&mut b, 1);
    put_varint(&mut b, 1);
    put_varint(&mut b, 0);
    b.push(1); // TTF delete
    put_varint(&mut b, hostile); // pos
    assert_eq!(must_reject(&b), WireError::HostileLength(hostile));

    // Site 7 — compound sub-message count: 2^32+5 claimed messages over
    // six bytes holding three plausible server-acks.
    let mut b = vec![6u8];
    put_varint(&mut b, hostile);
    b.extend_from_slice(&[4, 1, 4, 2, 4, 3]);
    assert_eq!(must_reject(&b), WireError::Truncated);

    // The WAL shares the codec, and its counts get the same u64-domain
    // bound (tags 33 and 32). Site 8 — the ack frontier's entry count.
    // A snapshot record (tag 32) is the notifier's own bytes.
    let wal_reject = |b: &[u8]| {
        let mut buf: &[u8] = b;
        let err = match b.split_first() {
            Some((32, state)) => Notifier::read_checkpoint(&mut &state[..]).err(),
            _ => WalRecord::decode(&mut buf).err(),
        };
        err.expect("hostile record decoded")
    };
    let mut b = vec![33u8];
    put_varint(&mut b, hostile);
    b.extend_from_slice(&[1, 1, 1, 1]);
    assert_eq!(wal_reject(&b), WireError::Truncated);
    // Site 9 — the snapshot's client count.
    let mut b = vec![32u8];
    put_varint(&mut b, 0); // empty doc
    put_varint(&mut b, hostile); // client count
    b.extend_from_slice(&[0, 0, 0, 1, 0, 0, 0, 1]);
    assert_eq!(wal_reject(&b), WireError::Truncated);
    // Site 10 — the snapshot's history-entry count, over bytes that would
    // parse as two entries (origin 1, width 1, an empty op).
    let mut b = vec![32u8];
    put_varint(&mut b, 0); // empty doc
    put_varint(&mut b, 1); // one client
    put_varint(&mut b, hostile); // history count
    b.extend_from_slice(&[1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0]);
    assert_eq!(wal_reject(&b), WireError::Truncated);
    // Site 11 — a client's pending-queue length, over bytes that would
    // parse as inline empty ops.
    let mut b = vec![32u8];
    put_varint(&mut b, 0); // empty doc
    put_varint(&mut b, 1); // one client
    put_varint(&mut b, 0); // no history
    b.extend_from_slice(&[9, 0, 0, 0, 1, 0]); // counters, active, watermark
    put_varint(&mut b, hostile); // pending length
    b.extend_from_slice(&[0, 0, 0, 0, 0, 0]);
    assert_eq!(wal_reject(&b), WireError::Truncated);
}

/// A site id past `u32` is an overlong value, never a truncated one:
/// read as `2^32 + 1 → 1`, a stranger's hello would bind site 1, a lone
/// op would speak for it, and a standby replaying the log would evict it.
/// Each field is the first varint after its record's tag.
#[test]
fn wide_site_ids_are_overlong_not_truncated() {
    let hello = EditorMsg::ClientAck(ClientAckMsg {
        origin: SiteId(1),
        received: 0,
    });
    let mut insert = SeqOp::new();
    insert.insert("a");
    let op = EditorMsg::ClientOp(ClientOpMsg {
        origin: SiteId(1),
        stamp: CompressedStamp::new(0, 1),
        op: insert,
        cursor: None,
    });
    let with_wide_site = |valid: &[u8], wide: u64| {
        // Byte 0 is the tag, byte 1 the one-byte varint of site 1.
        let mut b = vec![valid[0]];
        put_varint(&mut b, wide);
        b.extend_from_slice(&valid[2..]);
        b
    };
    for wide in [1u64 << 32, (1 << 32) + 1, u64::MAX] {
        for msg in [&hello, &op] {
            let mut valid = Vec::new();
            msg.encode(&mut valid);
            let b = with_wide_site(&valid, wide);
            assert_eq!(must_reject(&b), WireError::Overlong, "{msg:?} at {wide}");
        }
        let mut valid = Vec::new();
        WalRecord::Evict(SiteId(1)).encode(&mut valid);
        let b = with_wide_site(&valid, wide);
        let mut buf: &[u8] = &b;
        assert_eq!(
            WalRecord::decode(&mut buf).err(),
            Some(WireError::Overlong),
            "evict at {wide}"
        );
    }
}

/// Tags 7 and 8 belonged to the retired notifier-to-notifier messages and
/// are not reused: a message that opens with either is a bad tag, alone
/// or wrapped as a compound's kind-3 member.
#[test]
fn retired_tags_are_bad_tags() {
    for tag in [7u8, 8] {
        let lone = [tag, 0, 1, 0, 2, 1, 0];
        assert_eq!(must_reject(&lone), WireError::BadTag(tag));
        // `[compound][one member][kind 3]` then the tagged bytes.
        let compound = [&[6u8, 1, 3][..], &lone].concat();
        let mut out = Vec::new();
        assert_eq!(
            decode_payload([&compound, &[]], &mut out),
            Err(WireError::BadTag(tag))
        );
        assert!(out.is_empty());
    }
}

/// A component count the frame's length allows but its bytes do not
/// back: ~500 k claimed, three real components, then junk (kind 3). The
/// decode fails, and the op's component vector was never reserved past
/// four entries (a single-site op's `retain·insert·delete·retain`).
#[test]
fn a_hostile_component_count_does_not_drive_the_reservation() {
    let claimed = 500_000u64;
    let mut b = vec![2u8];
    put_varint(&mut b, 0);
    put_varint(&mut b, 0); // stamp
    put_varint(&mut b, fold(claimed, 0)); // component count, no caret
    b.extend_from_slice(&[4, 5, b'a', 6]); // retain 1 · insert "a" · delete 1
    b.resize(b.len() + claimed as usize, 3);
    let (err, t) = tally(|| must_reject(&b));
    assert_eq!(err, WireError::BadTag(3));
    assert!(
        t.largest <= 4 * std::mem::size_of::<Component>(),
        "decode reserved {t:?}"
    );
}

/// `n` with a two-bit kind in its low bits, as the op codec folds a
/// component's kind into its length and the cursor kind into the count.
fn fold(n: u64, kind: u64) -> u64 {
    n << 2 | kind
}

/// A caret on `op`'s post-state, `0..=target_len`, drawn from `draw`.
/// Carets past it are refused at decode
/// (`carets_past_the_post_state_are_refused`).
fn on_post_state(op: &SeqOp, draw: u64) -> u64 {
    draw % (op.target_len() as u64 + 1)
}

/// A structurally valid (not necessarily applicable) sequence operation.
fn seq_op_strategy() -> impl Strategy<Value = SeqOp> {
    proptest::collection::vec(
        prop_oneof![
            (1usize..40).prop_map(|n| (0u8, n, String::new())),
            "[a-z ]{1,8}".prop_map(|s| (1u8, 0usize, s)),
            (1usize..20).prop_map(|n| (2u8, n, String::new())),
        ],
        0..6,
    )
    .prop_map(|parts| {
        let mut op = SeqOp::new();
        for (kind, n, text) in parts {
            match kind {
                0 => op.retain(n),
                1 => op.insert(&text),
                _ => op.delete(n),
            };
        }
        op
    })
}

fn stamp_strategy() -> impl Strategy<Value = CompressedStamp> {
    (any::<u64>(), any::<u64>()).prop_map(|(a, b)| CompressedStamp::new(a, b))
}

/// A structurally valid mesh operation, the mesh baseline's wire frame.
fn mesh_op_msg_strategy() -> impl Strategy<Value = MeshOpMsg> {
    (
        1u32..=16,
        proptest::collection::vec(any::<u64>(), 1..8),
        prop_oneof![
            (0usize..1000, proptest::char::range(' ', '~'), 0u32..16)
                .prop_map(|(pos, ch, site)| TtfOp::Insert { pos, ch, site }),
            (0usize..1000).prop_map(|pos| TtfOp::Delete { pos }),
        ],
    )
        .prop_map(|(origin, entries, op)| MeshOpMsg {
            origin: SiteId(origin),
            vector: VectorClock::from_entries(entries),
            op,
        })
}

/// Every editor message except [`EditorMsg::Compound`] (the wire format
/// forbids nesting, so compound bodies draw from this).
fn leaf_editor_msg_strategy() -> impl Strategy<Value = EditorMsg> {
    let client = (
        1u32..=64,
        stamp_strategy(),
        seq_op_strategy(),
        proptest::option::of(any::<u64>()),
    )
        .prop_map(|(origin, stamp, op, cursor)| {
            EditorMsg::ClientOp(ClientOpMsg {
                origin: SiteId(origin),
                stamp,
                cursor: cursor.map(|c| on_post_state(&op, c)),
                op,
            })
        });
    let server = (
        stamp_strategy(),
        seq_op_strategy(),
        proptest::option::of((1u32..=64, any::<u64>())),
    )
        .prop_map(|(stamp, op, cursor)| {
            let cursor = cursor.map(|(who, c)| (who, on_post_state(&op, c)));
            EditorMsg::ServerOp(ServerOpMsg { stamp, op, cursor })
        });
    let mesh = mesh_op_msg_strategy().prop_map(EditorMsg::MeshOp);
    let ack = any::<u64>().prop_map(|acked| EditorMsg::ServerAck(ServerAckMsg { acked }));
    let client_ack = (1u32..=64, any::<u64>()).prop_map(|(origin, received)| {
        EditorMsg::ClientAck(ClientAckMsg {
            origin: SiteId(origin),
            received,
        })
    });
    prop_oneof![client, server, mesh, ack, client_ack]
}

fn editor_msg_strategy() -> impl Strategy<Value = EditorMsg> {
    prop_oneof![
        leaf_editor_msg_strategy(),
        leaf_editor_msg_strategy(),
        leaf_editor_msg_strategy(),
        proptest::collection::vec(leaf_editor_msg_strategy(), 1..5).prop_map(EditorMsg::Compound),
    ]
}

/// Durability-log input records: ops and acks reuse the editor wire
/// format byte-for-byte.
fn wal_record_strategy() -> impl Strategy<Value = WalRecord> {
    let op = (
        1u32..=64,
        stamp_strategy(),
        seq_op_strategy(),
        proptest::option::of(any::<u64>()),
    )
        .prop_map(|(origin, stamp, op, cursor)| {
            WalRecord::Op(ClientOpMsg {
                origin: SiteId(origin),
                stamp,
                cursor: cursor.map(|c| on_post_state(&op, c)),
                op,
            })
        });
    let ack = (1u32..=64, any::<u64>()).prop_map(|(origin, received)| {
        WalRecord::Ack(ClientAckMsg {
            origin: SiteId(origin),
            received,
        })
    });
    let frontier = proptest::collection::vec((any::<u32>(), any::<u64>()), 0..8)
        .prop_map(|entries| WalRecord::AckFrontier(cvc_reduce::wal::AckFrontierRecord { entries }));
    let evict = any::<u32>().prop_map(|site| WalRecord::Evict(SiteId(site)));
    prop_oneof![op, ack, frontier, evict]
}

/// A live star: `sites` clients on "ab" driven by `script` — edits (an
/// insert, or a delete on a non-empty document), deliveries up and down,
/// bare acks, a leave and a join — through the one notifier every server
/// runs. Moves a site cannot make are skipped; `each` sees the notifier
/// before the first move and after every one.
fn drive_star(sites: usize, script: &[(u8, usize, u64)], mut each: impl FnMut(&Notifier)) {
    use cvc_reduce::core::NotifierCore;
    use cvc_reduce::world::StarWorld;
    let mut world = StarWorld::new(NotifierCore::new(Notifier::new(sites, "ab"), None, None));
    each(world.notifier());
    for &(kind, at, draw) in script {
        let site = SiteId::from_client_index(at % world.notifier().n_clients());
        let user = |c: &mut Client| {
            let len = c.doc_len() as u64;
            Ok(if len > 0 && draw % 3 == 0 {
                c.delete((draw / 3 % len) as usize, 1)
            } else {
                c.insert((draw % (len + 1)) as usize, "xy")
            })
        };
        match kind {
            0 => drop(world.edit(site, user)),
            1 => drop(world.deliver_up(site)),
            2 => drop(world.deliver_down(site)),
            3 => world.take_pending_ack(site),
            4 if draw % 8 == 0 => drop(world.leave(site)),
            _ => {
                world.join();
            }
        }
        each(world.notifier());
    }
}

fn snapshot_bytes(notifier: &Notifier) -> Vec<u8> {
    let mut buf = Vec::new();
    notifier.write_checkpoint(&mut buf);
    buf
}

/// Where a caret sits after `op`'s one edit (`retain p · insert t? ·
/// delete d? · retain r?` ends at `p + |t|`), stated here apart from the
/// codec so the tests check it rather than restate it.
fn edit_end(op: &SeqOp) -> Option<u64> {
    let mut c = op.components();
    let mut end = 0;
    if let [Component::Retain(n), rest @ ..] = c {
        (end, c) = (*n, rest);
    }
    let before = c.len();
    if let [Component::Insert(t), rest @ ..] = c {
        (end, c) = (end + t.chars().count(), rest);
    }
    if let [Component::Delete(_), rest @ ..] = c {
        c = rest;
    }
    let edits = c.len() < before;
    (edits && matches!(c, [] | [Component::Retain(_)])).then_some(end as u64)
}

/// A caret after `op`: none, anywhere on its post-state, or at its edit
/// end when it has one.
fn caret(op: &SeqOp, kind: u8, anywhere: u64) -> Option<u64> {
    let anywhere = on_post_state(op, anywhere);
    match kind % 3 {
        0 => None,
        1 => Some(anywhere),
        _ => Some(edit_end(op).unwrap_or(anywhere)),
    }
}

/// Stamps as a compound to one site carries them: mostly each one step on
/// from the last (small deltas), sometimes anything (wrapping deltas).
fn stamp_run_strategy() -> impl Strategy<Value = CompressedStamp> {
    let step = || (0u64..4, 0u64..4).prop_map(|(a, b)| CompressedStamp::new(a, b));
    prop_oneof![step(), step(), step(), stamp_strategy()]
}

/// One message a compound frame carries, with carets at the edit end as
/// often as anywhere else and stamps that are deltas of each other.
fn compound_part_strategy() -> impl Strategy<Value = EditorMsg> {
    let op = || {
        (
            stamp_run_strategy(),
            seq_op_strategy(),
            any::<u8>(),
            any::<u64>(),
            1u32..=64,
            any::<bool>(),
        )
            .prop_map(|(stamp, op, kind, anywhere, who, server)| {
                let cursor = caret(&op, kind, anywhere);
                if server {
                    let cursor = cursor.map(|pos| (who, pos));
                    EditorMsg::ServerOp(ServerOpMsg { stamp, op, cursor })
                } else {
                    EditorMsg::ClientOp(ClientOpMsg {
                        origin: SiteId(who),
                        stamp,
                        op,
                        cursor,
                    })
                }
            })
    };
    prop_oneof![op(), op(), op(), leaf_editor_msg_strategy()]
}

/// `ms` with each op's stamp made absolute: the strategy draws deltas.
fn absolute(mut ms: Vec<EditorMsg>) -> Vec<EditorMsg> {
    let (mut server, mut client) = ((0u64, 0u64), (0u64, 0u64));
    for m in &mut ms {
        let (prev, stamp) = match m {
            EditorMsg::ServerOp(o) => (&mut server, &mut o.stamp),
            EditorMsg::ClientOp(o) => (&mut client, &mut o.stamp),
            _ => continue,
        };
        *prev = (prev.0.wrapping_add(stamp.t1), prev.1.wrapping_add(stamp.t2));
        *stamp = CompressedStamp::new(prev.0, prev.1);
    }
    ms
}

/// `m` as a transport queues it: a broadcast split by the encode-once
/// frame, anything else whole or cut in two at `cut`.
fn queued(m: &EditorMsg, cut: usize, split: bool) -> Payload {
    match m {
        EditorMsg::ServerOp(o) if split => {
            ServerOpFrame::new(&o.op, &o.cursor).payload_for(o.stamp)
        }
        m => {
            let bytes = Payload::encode(m).to_vec();
            let (head, body) = bytes.split_at(cut % (bytes.len() + 1));
            Payload::from_parts(head, body.to_vec().into())
        }
    }
}

/// A decoded message as its receiving doors integrate it: each op closed
/// at the base of the op `sent` carried, since the codec leaves an op's
/// trailing retain implied. Round trips compare in this form.
trait ClosedLike: Sized {
    fn closed_like(self, sent: &Self) -> Self;
}

impl ClosedLike for EditorMsg {
    fn closed_like(self, sent: &Self) -> Self {
        match (self, sent) {
            (EditorMsg::ClientOp(mut m), EditorMsg::ClientOp(s)) => {
                let _ = m.op.close_to(s.op.base_len());
                EditorMsg::ClientOp(m)
            }
            (EditorMsg::ServerOp(mut m), EditorMsg::ServerOp(s)) => {
                let _ = m.op.close_to(s.op.base_len());
                EditorMsg::ServerOp(m)
            }
            (EditorMsg::Compound(ms), EditorMsg::Compound(ss)) if ms.len() == ss.len() => {
                EditorMsg::Compound(
                    ms.into_iter()
                        .zip(ss)
                        .map(|(m, s)| m.closed_like(s))
                        .collect(),
                )
            }
            (m, _) => m,
        }
    }
}

impl ClosedLike for WalRecord {
    fn closed_like(self, sent: &Self) -> Self {
        match (self, sent) {
            (WalRecord::Op(mut m), WalRecord::Op(s)) => {
                let _ = m.op.close_to(s.op.base_len());
                WalRecord::Op(m)
            }
            (r, _) => r,
        }
    }
}

/// `msgs`, decoded from `sent`'s encodings, closed like them.
fn closed_like(msgs: Vec<EditorMsg>, sent: &[EditorMsg]) -> Vec<EditorMsg> {
    if msgs.len() != sent.len() {
        return msgs;
    }
    msgs.into_iter()
        .zip(sent)
        .map(|(m, s)| m.closed_like(s))
        .collect()
}

/// Run the full hostile-input battery against one message's encoding.
fn battery<M>(msg: &M, flips: &[usize])
where
    M: WireSize + WireEncode + WireDecode + ClosedLike + PartialEq + std::fmt::Debug,
{
    let mut bytes = Vec::with_capacity(msg.wire_bytes());
    msg.encode(&mut bytes);
    assert_eq!(bytes.len(), msg.wire_bytes(), "wire_bytes must be exact");

    // Round trip, consuming exactly the frame.
    let mut buf: &[u8] = &bytes;
    assert_eq!(
        M::decode(&mut buf).map(|m| m.closed_like(msg)).as_ref(),
        Ok(msg)
    );
    assert!(buf.is_empty(), "decode left {} unread bytes", buf.len());

    // No over-read past the frame: trailing junk stays in the buffer.
    let mut overlong = bytes.clone();
    overlong.put_slice(&[0xde, 0xad, 0xbe, 0xef]);
    let mut buf: &[u8] = &overlong;
    assert_eq!(
        M::decode(&mut buf).map(|m| m.closed_like(msg)).as_ref(),
        Ok(msg)
    );
    assert_eq!(buf, &[0xde, 0xad, 0xbe, 0xef]);

    // Every strict prefix is an error — never a panic, never a bogus Ok.
    for cut in 0..bytes.len() {
        let mut buf: &[u8] = &bytes[..cut];
        assert!(
            M::decode(&mut buf).is_err(),
            "prefix of length {cut}/{} decoded to Ok",
            bytes.len()
        );
    }

    // Single-bit corruption: total, and any Ok must not over-read.
    for &flip in flips {
        let mut mangled = bytes.clone();
        let bit = flip % (mangled.len() * 8);
        mangled[bit / 8] ^= 1 << (bit % 8);
        let before = mangled.len();
        let mut buf: &[u8] = &mangled;
        let _ = M::decode(&mut buf);
        assert!(buf.len() <= before);
    }
}

/// Route a decoded frame into live sites the way the session layer does:
/// client-originated frames go to the notifier's fallible twins, the
/// notifier-originated frame goes to a client, the rest are dropped.
fn route_like_the_session_layer(notifier: &mut Notifier, client: &mut Client, msg: EditorMsg) {
    match msg {
        EditorMsg::ClientOp(m) => {
            let _ = notifier.try_on_client_op_outcome(m);
        }
        EditorMsg::ClientAck(m) => {
            let _ = notifier.try_on_client_ack(m);
        }
        EditorMsg::ServerOp(m) => {
            let _ = client.try_on_server_op(m);
        }
        // A compound frame is several messages under one header; the
        // session layer unpacks and routes each in order.
        EditorMsg::Compound(ms) => {
            for m in ms {
                route_like_the_session_layer(notifier, client, m);
            }
        }
        // ServerAck and MeshOp are meaningless in the star topology's
        // inbound direction; the session layer counts and drops them.
        EditorMsg::ServerAck(_) | EditorMsg::MeshOp(_) => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn editor_msg_codec_is_total(msg in editor_msg_strategy(), flips in proptest::collection::vec(any::<usize>(), 1..12)) {
        battery(&msg, &flips);
    }

    /// The durability log's record codec gets the same battery as the
    /// wire frames — a recovering standby reads WAL bytes exactly as
    /// hostile input, so its decoder must be total too.
    #[test]
    fn wal_record_codec_is_total(msg in wal_record_strategy(), flips in proptest::collection::vec(any::<usize>(), 1..12)) {
        battery(&msg, &flips);
    }

    /// Every snapshot a live notifier writes reads back as a notifier
    /// that writes the same bytes. The last one then gets the battery:
    /// each strict prefix is an error, trailing junk is left unread, and
    /// bit flips decode to a notifier or a typed error without a panic.
    #[test]
    fn a_live_notifiers_snapshots_read_back_byte_for_byte(
        sites in 2usize..=4,
        script in proptest::collection::vec((0u8..6, any::<usize>(), any::<u64>()), 0..48),
        flips in proptest::collection::vec(any::<usize>(), 1..12),
    ) {
        let mut last = Vec::new();
        drive_star(sites, &script, |live| {
            last = snapshot_bytes(live);
            let mut buf: &[u8] = &last;
            let back = Notifier::read_checkpoint(&mut buf).expect("a notifier reads its own bytes");
            assert!(buf.is_empty(), "{} bytes unread", buf.len());
            assert_eq!(snapshot_bytes(&back), last);
        });
        let mut overlong = last.clone();
        overlong.put_slice(&[0xde, 0xad, 0xbe, 0xef]);
        let mut buf: &[u8] = &overlong;
        prop_assert!(Notifier::read_checkpoint(&mut buf).is_ok());
        prop_assert_eq!(buf, &[0xde, 0xad, 0xbe, 0xef]);
        for cut in 0..last.len() {
            let mut buf: &[u8] = &last[..cut];
            prop_assert!(Notifier::read_checkpoint(&mut buf).is_err(), "prefix {} decoded", cut);
        }
        for &flip in &flips {
            let mut mangled = last.clone();
            let bit = flip % (mangled.len() * 8);
            mangled[bit / 8] ^= 1 << (bit % 8);
            let mut buf: &[u8] = &mangled;
            let _ = Notifier::read_checkpoint(&mut buf);
        }
    }

    /// Pure noise: decoding random byte strings never panics or reads past
    /// the buffer, for either record type or a snapshot.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut buf: &[u8] = &bytes;
        let _ = EditorMsg::decode(&mut buf);
        let mut buf: &[u8] = &bytes;
        let _ = WalRecord::decode(&mut buf);
        let mut buf: &[u8] = &bytes;
        let _ = Notifier::read_checkpoint(&mut buf);
    }

    /// Remote input must never panic a live site: any structurally valid
    /// frame — sensible or hostile — routed through the fallible entry
    /// points (as the session layer routes it) yields `Ok` or a typed
    /// `ProtocolError`, never a panic. Frame types that make no sense in
    /// a direction are dropped, exactly like the session layer drops them.
    #[test]
    fn hostile_frames_never_panic_a_live_site(
        msgs in proptest::collection::vec(editor_msg_strategy(), 1..48),
    ) {
        let mut notifier = Notifier::new(4, "hostile-input fuzz baseline");
        let mut client = Client::new(SiteId(1), "hostile-input fuzz baseline");
        for msg in msgs {
            route_like_the_session_layer(&mut notifier, &mut client, msg);
        }
    }

    /// Corrupted or random wire bytes that happen to decode are remote
    /// input like any other: routing them into live sites is total.
    #[test]
    fn corrupted_frames_that_decode_never_panic_a_live_site(
        msg in editor_msg_strategy(),
        flips in proptest::collection::vec(any::<usize>(), 1..10),
        garbage in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut notifier = Notifier::new(3, "corrupted-frame baseline");
        let mut client = Client::new(SiteId(2), "corrupted-frame baseline");
        let mut bytes = Vec::with_capacity(msg.wire_bytes());
        msg.encode(&mut bytes);
        for &flip in &flips {
            let mut mangled = bytes.clone();
            let bit = flip % (mangled.len() * 8);
            mangled[bit / 8] ^= 1 << (bit % 8);
            let mut buf: &[u8] = &mangled;
            if let Ok(decoded) = EditorMsg::decode(&mut buf) {
                route_like_the_session_layer(&mut notifier, &mut client, decoded);
            }
        }
        let mut buf: &[u8] = &garbage;
        if let Ok(decoded) = EditorMsg::decode(&mut buf) {
            route_like_the_session_layer(&mut notifier, &mut client, decoded);
        }
    }

    /// Every span/position past the document cap is rejected with the
    /// claimed value, across the full 64-bit hostile range — not just the
    /// 2^32-straddling shapes the deterministic battery pins down.
    /// The span shares its varint with the component kind, so the widest
    /// span a varint can claim is `u64::MAX >> 2`.
    #[test]
    fn hostile_spans_reject_across_the_64_bit_range(claimed in MAX_WIRE_SPAN + 1..=u64::MAX >> 2) {
        let mut b = vec![2u8];
        put_varint(&mut b, 0);
        put_varint(&mut b, 0);
        put_varint(&mut b, fold(1, 0)); // one component, no caret
        put_varint(&mut b, fold(claimed, 0)); // retain
        prop_assert_eq!(must_reject(&b), WireError::HostileLength(claimed));
    }

    /// A hostile length field must not trigger a giant allocation or an
    /// over-read: a tiny frame — a connection's wire unit — claiming a huge
    /// payload is refused past the cap, and below it waits for bytes.
    #[test]
    fn claimed_payload_length_is_bounded_by_buffer(claimed in 4u64..u64::MAX / 2) {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, claimed);
        put_varint(&mut bytes, 0);
        bytes.extend_from_slice(&[1, 2, 3]);
        match split_frame(&bytes, MAX_FRAME_BYTES) {
            Err(FrameError::Oversized(c)) => {
                prop_assert!(c == claimed && claimed > MAX_FRAME_BYTES as u64)
            }
            Ok(None) => prop_assert!(claimed <= MAX_FRAME_BYTES as u64),
            other => prop_assert!(false, "{:?}", other),
        }
    }

    /// The encode-once broadcast path: serializing the destination-
    /// independent body once and patching each destination's compressed
    /// stamp into the header must be byte-identical to the old per-
    /// destination `EditorMsg::encode`, for every op/cursor/stamp shape.
    #[test]
    fn encode_once_frame_matches_per_destination_encode(
        op in seq_op_strategy(),
        cursor in proptest::option::of((1u32..=64, any::<u64>())),
        stamps in proptest::collection::vec(stamp_strategy(), 1..8),
    ) {
        let frame = ServerOpFrame::new(&op, &cursor);
        for stamp in stamps {
            let msg = EditorMsg::ServerOp(ServerOpMsg {
                stamp,
                op: op.clone(),
                cursor,
            });
            let mut reference = Vec::with_capacity(msg.wire_bytes());
            msg.encode(&mut reference);
            let patched = frame.payload_for(stamp);
            prop_assert_eq!(patched.len(), reference.len());
            prop_assert_eq!(patched.to_vec(), reference);
        }
    }

    /// The compound frame checksum is computed over (head, body) chunk
    /// pairs on the send side and a contiguous buffer on the receive
    /// side: the hasher must be split-invariant for any chunking.
    #[test]
    fn frame_hasher_is_chunking_invariant(
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 0..8),
    ) {
        let flat: Vec<u8> = chunks.concat();
        let parts: Vec<&[u8]> = chunks.iter().map(|c| &c[..]).collect();
        prop_assert_eq!(frame_checksum(&parts), frame_checksum(&[&flat]));
        let mut streamed = FrameHasher::new();
        for c in &chunks {
            streamed.update(c);
        }
        prop_assert_eq!(streamed.finish(), frame_checksum(&[&flat]));
    }

    /// Hostile compound frames: truncations and bit flips of a valid
    /// compound encoding decode to a typed error or a (possibly
    /// different) valid frame — never a panic — and whatever decodes
    /// routes into live sites without panicking.
    #[test]
    fn hostile_compound_frames_are_survived(
        msgs in proptest::collection::vec(leaf_editor_msg_strategy(), 1..5),
        flips in proptest::collection::vec(any::<usize>(), 1..10),
    ) {
        let compound = EditorMsg::Compound(msgs);
        battery(&compound, &flips);
        let mut notifier = Notifier::new(4, "hostile compound baseline");
        let mut client = Client::new(SiteId(1), "hostile compound baseline");
        let mut bytes = Vec::with_capacity(compound.wire_bytes());
        compound.encode(&mut bytes);
        for &flip in &flips {
            let mut mangled = bytes.clone();
            let bit = flip % (mangled.len() * 8);
            mangled[bit / 8] ^= 1 << (bit % 8);
            let mut buf: &[u8] = &mangled;
            if let Ok(decoded) = EditorMsg::decode(&mut buf) {
                route_like_the_session_layer(&mut notifier, &mut client, decoded);
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one compound encoder: any mix of messages, queued as the
    /// transports queue them (split broadcasts, whole or arbitrarily cut
    /// payloads), is re-headed into exactly the bytes
    /// `EditorMsg::Compound(..).encode` writes, `wire_bytes()` is that
    /// length, and both decoders give back the messages with their
    /// absolute stamps. Then the full hostile battery runs on it.
    #[test]
    fn compound_encoder_matches_the_message_encoding(
        deltas in proptest::collection::vec(compound_part_strategy(), 1..10),
        cuts in proptest::collection::vec((any::<usize>(), any::<bool>()), 10),
        flips in proptest::collection::vec(any::<usize>(), 1..8),
    ) {
        let msgs = absolute(deltas);
        let compound = EditorMsg::Compound(msgs.clone());
        let mut reference = Vec::with_capacity(compound.wire_bytes());
        compound.encode(&mut reference);
        prop_assert_eq!(reference.len(), compound.wire_bytes());

        let payloads: Vec<Payload> = msgs
            .iter()
            .zip(&cuts)
            .map(|(m, &(cut, split))| queued(m, cut, split))
            .collect();
        let mut built = Vec::new();
        write_compound(payloads.iter(), &mut built);
        prop_assert_eq!(&built, &reference);

        let mut out = Vec::new();
        prop_assert_eq!(decode_payload([&built, &[]], &mut out), Ok(()));
        prop_assert_eq!(&closed_like(out, &msgs), &msgs);
        let mut slice: &[u8] = &built;
        let back = EditorMsg::decode(&mut slice).map(|m| m.closed_like(&compound));
        prop_assert_eq!(back, Ok(compound.clone()));
        prop_assert!(slice.is_empty());
        battery(&compound, &flips);
    }
}

/// Set the cursor kind in the one-byte count varint at `bytes[at]`.
fn with_cursor_kind(mut bytes: Vec<u8>, at: usize, kind: u8) -> Vec<u8> {
    assert_eq!(bytes[at] & 0x83, 0, "a one-byte count, no caret");
    bytes[at] |= kind;
    bytes
}

/// Hand-built `[TAG_SERVER_OP, t1, t2] ++ op` with cursor kind 2 and an
/// owner: a caret "at the edit end" of an op that has none.
fn server_op_with_tag_2(op: &SeqOp) -> Vec<u8> {
    let mut bytes = Vec::new();
    EditorMsg::ServerOp(ServerOpMsg {
        stamp: CompressedStamp::new(1, 0),
        op: op.clone(),
        cursor: None,
    })
    .encode(&mut bytes);
    let mut bytes = with_cursor_kind(bytes, 3, 2);
    bytes.push(7); // owner
    bytes
}

#[test]
fn compound_caret_tag_2_needs_a_single_edit_site() {
    let mut identity = SeqOp::new();
    identity.retain(5);
    let mut two_sites = SeqOp::new();
    two_sites
        .retain(1)
        .insert("a")
        .retain(2)
        .delete(1)
        .retain(1);
    let mut one_site = SeqOp::new();
    one_site.retain(2).insert("ab").delete(1).retain(2);
    for op in [&identity, &SeqOp::new(), &two_sites] {
        assert_eq!(must_reject(&server_op_with_tag_2(op)), WireError::BadTag(2));
        let mut up = Vec::new();
        EditorMsg::ClientOp(ClientOpMsg {
            origin: SiteId(1),
            stamp: CompressedStamp::new(0, 1),
            op: op.clone(),
            cursor: None,
        })
        .encode(&mut up);
        let up = with_cursor_kind(up, 4, 2); // after tag, origin, stamp
        assert_eq!(must_reject(&up), WireError::BadTag(2), "{op:?}");
    }
    // The same bytes on a one-site op are its caret at the edit end: the
    // owner, and no position.
    let mut bytes: &[u8] = &server_op_with_tag_2(&one_site);
    match EditorMsg::decode(&mut bytes) {
        Ok(EditorMsg::ServerOp(m)) => assert_eq!(m.cursor, Some((7, 4))),
        other => panic!("{other:?}"),
    }
    assert!(bytes.is_empty());
    let at = |pos| {
        EditorMsg::ServerOp(ServerOpMsg {
            stamp: CompressedStamp::new(1, 0),
            op: one_site.clone(),
            cursor: Some((7, pos)),
        })
    };
    // A caret elsewhere travels at its position, and its op keeps the
    // trailing retain (`fold(2, 0)`, one byte) the edit-end form leaves
    // implied.
    let (at_end, elsewhere) = (at(4), at(3));
    assert_eq!(
        elsewhere.wire_bytes(),
        at_end.wire_bytes() + 2,
        "the position and the tail"
    );
}

#[test]
fn compound_stamp_deltas_wrap_past_u64() {
    // Two broadcasts whose T[1] and T[2] wrap around between them, and the
    // same frame written by hand with a delta of u64::MAX.
    let op = || SeqOp::from_pos(&cvc_ot::pos::PosOp::insert(0, "x"), 0);
    let msgs = vec![
        EditorMsg::ServerOp(ServerOpMsg {
            stamp: CompressedStamp::new(u64::MAX, 3),
            op: op(),
            cursor: None,
        }),
        EditorMsg::ServerOp(ServerOpMsg {
            stamp: CompressedStamp::new(0, u64::MAX - 1),
            op: op(),
            cursor: None,
        }),
    ];
    let compound = EditorMsg::Compound(msgs.clone());
    let mut bytes = Vec::new();
    compound.encode(&mut bytes);
    let mut out = Vec::new();
    assert_eq!(decode_payload([&bytes, &[]], &mut out), Ok(()));
    assert_eq!(out, msgs);

    // The first member's deltas fit its head (T[1] 5 above the flag, the
    // flagged T[2] 5 after); the second's T[1] delta of u64::MAX does not,
    // so it travels tagged: kind 3, then `[TAG_SERVER_OP, t1, t2]`.
    let mut by_hand = vec![6, 2, 5 << 3 | 4, 5];
    by_hand.extend([4, 5, b'x']); // one component, no caret; insert "x"
    by_hand.extend([3, 2]);
    put_varint(&mut by_hand, u64::MAX);
    put_varint(&mut by_hand, u64::MAX);
    by_hand.extend([4, 5, b'x']);
    let mut slice: &[u8] = &by_hand;
    let Ok(EditorMsg::Compound(ms)) = EditorMsg::decode(&mut slice) else {
        panic!("a frame of two wrapping deltas decodes");
    };
    let stamps: Vec<_> = ms
        .iter()
        .map(|m| match m {
            EditorMsg::ServerOp(o) => o.stamp.as_pair(),
            other => panic!("{other:?}"),
        })
        .collect();
    assert_eq!(stamps, vec![(5, 5), (4, 4)], "5 + u64::MAX wraps to 4");
}

#[test]
fn compound_payloads_never_nest() {
    let inner = Payload::encode(&EditorMsg::Compound(vec![EditorMsg::ServerAck(
        ServerAckMsg { acked: 1 },
    )]));
    let ack = Payload::encode(&EditorMsg::ServerAck(ServerAckMsg { acked: 2 }));
    let mut bytes = Vec::new();
    write_compound([ack, inner].iter(), &mut bytes);
    let mut out = Vec::new();
    assert_eq!(
        decode_payload([&bytes, &[]], &mut out),
        Err(WireError::BadTag(6))
    );
    assert!(out.is_empty());
}

/// A reader's FIFO check sees the `T[1]` the notifier sent, not one
/// implied from the frame: a compound whose second broadcast repeats a
/// stream position or skips one (a `T[1]` delta of 0 or 2) decodes, on
/// the worker's path and on the generator's, to expected − 1 or + 1 — and
/// the replica refuses it untouched. A decoder that implied `T[1]` =
/// previous + 1 would hand over a message that passes.
#[test]
fn compound_delta_t1_keeps_fifo_detection() {
    let doc = "0123456789";
    let insert =
        |pos: usize, len: usize| SeqOp::from_pos(&cvc_ot::pos::PosOp::insert(pos, "x"), len);
    for t1 in [1, 3] {
        let first = ServerOpFrame::new(&insert(0, 10), &Some((2, 1)))
            .payload_for(CompressedStamp::new(1, 0));
        let wrong = ServerOpFrame::new(&insert(3, 11), &Some((2, 4)))
            .payload_for(CompressedStamp::new(t1, 0));
        let mut bytes = Vec::new();
        write_compound([first, wrong].iter(), &mut bytes);

        let mut worker = Vec::new();
        assert_eq!(decode_payload([&bytes, &[]], &mut worker), Ok(()));
        let mut slice: &[u8] = &bytes;
        let Ok(EditorMsg::Compound(generator)) = EditorMsg::decode(&mut slice) else {
            panic!("one compound");
        };
        assert_eq!(worker, generator);
        let ops: Vec<ServerOpMsg> = worker
            .into_iter()
            .map(|m| match m {
                EditorMsg::ServerOp(o) => o,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(ops[1].stamp.get(1), t1, "read, not implied");
        assert_eq!(ops[1].cursor, Some((2, 4)), "tag 2 at the edit end");

        let mut reader = Client::new(SiteId(3), doc);
        let [first, wrong] = <[ServerOpMsg; 2]>::try_from(ops).expect("two ops");
        reader.try_on_server_op(first).expect("in order");
        let (doc_before, sv_before) = (reader.doc(), reader.state_vector());
        let carets_before: Vec<_> = reader.remote_carets().collect();
        assert_eq!(
            reader.try_on_server_op(wrong).map(|_| ()),
            Err(ProtocolError::FifoViolation {
                site: SiteId(3),
                expected: 2,
                got: t1,
            })
        );
        assert_eq!(reader.doc(), doc_before);
        assert_eq!(reader.state_vector(), sv_before);
        assert_eq!(reader.remote_carets().collect::<Vec<_>>(), carets_before);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A caret is a position on its op's post-state, `0..=target_len`. One
    /// past it is refused as [`WireError::HostileLength`] wherever an op
    /// travels — upstream, downstream, inside a compound, in a WAL op
    /// record — so a notifier never passes it on to its peers and a log
    /// never holds it.
    #[test]
    fn carets_past_the_post_state_are_refused(
        op in seq_op_strategy(),
        past in 1u64..=u64::MAX,
        stamp in stamp_strategy(),
        who in 1u32..=64,
    ) {
        let pos = (op.target_len() as u64).saturating_add(past);
        let up = ClientOpMsg { origin: SiteId(who), stamp, op: op.clone(), cursor: Some(pos) };
        let down = ServerOpMsg { stamp, op, cursor: Some((who, pos)) };
        for msg in [
            EditorMsg::ClientOp(up.clone()),
            EditorMsg::ServerOp(down.clone()),
            EditorMsg::Compound(vec![EditorMsg::ServerOp(down), EditorMsg::ClientOp(up.clone())]),
        ] {
            let mut b = Vec::new();
            msg.encode(&mut b);
            prop_assert_eq!(b.len(), msg.wire_bytes());
            prop_assert_eq!(must_reject(&b), WireError::HostileLength(pos));
        }
        let record = WalRecord::Op(up);
        let mut b = Vec::new();
        record.encode(&mut b);
        prop_assert_eq!(WalRecord::decode(&mut &b[..]), Err(WireError::HostileLength(pos)));
    }

    /// The op codec at its edges, on hand-built `ServerOp` frames. A span
    /// or insert length folds into one varint with its kind, so 31 is the
    /// last one-byte span and 4095 the last two-byte one; `MAX_WIRE_SPAN`
    /// decodes and one more is hostile; kind 3, as a component or as a
    /// cursor kind, names nothing; a count past the remaining bytes is
    /// truncation.
    #[test]
    fn folded_varints_hold_at_their_edges(
        edge in 0usize..6,
        comp_kind in 0u64..3,
        caret_kind in 0u64..4,
        who in 1u8..=64,
    ) {
        let (span, width) = [(1, 1), (31, 1), (32, 2), (4095, 2), (4096, 3), (MAX_WIRE_SPAN, 5)][edge];
        // A 2^30-byte insert is no test input: inserts stop at 4096.
        let comp_kind = if span > 4096 { comp_kind & 2 } else { comp_kind };
        let text = if comp_kind == 1 { span as usize } else { 0 };
        let mut op = SeqOp::new();
        match comp_kind {
            0 => op.retain(span as usize),
            1 => op.insert(&"x".repeat(text)),
            _ => op.delete(span as usize),
        };
        // After the components: the owner, then for kind 1 the position 0.
        let payload: &[u8] = match caret_kind {
            0 => &[],
            2 => &[who],
            _ => &[who, 0],
        };
        let bytes = op_frame(fold(1, caret_kind), fold(span, comp_kind), text, payload);
        let expect = match caret_kind {
            0 => Ok(None),
            1 => Ok(Some((u32::from(who), 0))),
            2 if comp_kind == 0 => Err(WireError::BadTag(2)), // no edit end
            2 => Ok(Some((u32::from(who), text as u64))),
            _ => Err(WireError::BadTag(3)),
        };
        match expect {
            Ok(cursor) => {
                let msg = EditorMsg::ServerOp(ServerOpMsg {
                    stamp: CompressedStamp::new(1, 0),
                    op: op.clone(),
                    cursor,
                });
                prop_assert_eq!(EditorMsg::decode(&mut &bytes[..]), Ok(msg.clone()));
                let mut again = Vec::new();
                msg.encode(&mut again);
                let back = EditorMsg::decode(&mut &again[..]).map(|m| m.closed_like(&msg));
                prop_assert_eq!(back, Ok(msg.clone()));
                prop_assert!(again.len() <= bytes.len(), "a caret at the edit end drops its position");
                let bare = EditorMsg::ServerOp(ServerOpMsg {
                    stamp: CompressedStamp::new(1, 0),
                    op,
                    cursor: None,
                });
                // A lone retain is the op's implied tail: it is not sent.
                let sent = if comp_kind == 0 { 0 } else { width + text };
                prop_assert_eq!(bare.wire_bytes(), 4 + sent);
            }
            Err(e) => prop_assert_eq!(must_reject(&bytes), e),
        }
        if comp_kind != 1 {
            prop_assert_eq!(
                must_reject(&op_frame(fold(1, 0), fold(MAX_WIRE_SPAN + 1, comp_kind), 0, &[])),
                WireError::HostileLength(MAX_WIRE_SPAN + 1)
            );
        }
        prop_assert_eq!(
            must_reject(&op_frame(fold(1, 0), fold(span, 3), 0, &[])),
            WireError::BadTag(3)
        );
        let rest = (width + text + payload.len()) as u64;
        prop_assert_eq!(
            must_reject(&op_frame(fold(rest + 1, caret_kind % 3), fold(span, comp_kind), text, payload)),
            WireError::Truncated
        );
    }
}

/// `[TAG_SERVER_OP, 1, 0]` (stamp `(1, 0)`), the count varint, one
/// component varint, `text` bytes of insert, then `payload`.
fn op_frame(count: u64, comp: u64, text: usize, payload: &[u8]) -> Vec<u8> {
    let mut b = vec![2u8, 1, 0];
    put_varint(&mut b, count);
    put_varint(&mut b, comp);
    b.resize(b.len() + text, b'x');
    b.extend_from_slice(payload);
    b
}

/// The message `client` picks, with stamp `stamp`: a `ClientOp` from site
/// 9 or a `ServerOp`, both inserting "x" into an empty document with no
/// caret, so the op after the head is `[4, 5, b'x']`.
fn x_op(client: bool, stamp: CompressedStamp) -> EditorMsg {
    let op = SeqOp::from_pos(&cvc_ot::pos::PosOp::insert(0, "x"), 0);
    if client {
        EditorMsg::ClientOp(ClientOpMsg {
            origin: SiteId(9),
            stamp,
            op,
            cursor: None,
        })
    } else {
        EditorMsg::ServerOp(ServerOpMsg {
            stamp,
            op,
            cursor: None,
        })
    }
}

/// `ms` as one compound, written both ways; the two must agree.
fn compound_bytes(ms: &[EditorMsg]) -> Vec<u8> {
    let compound = EditorMsg::Compound(ms.to_vec());
    let mut bytes = Vec::with_capacity(compound.wire_bytes());
    compound.encode(&mut bytes);
    assert_eq!(bytes.len(), compound.wire_bytes());
    let payloads: Vec<Payload> = ms.iter().map(Payload::encode).collect();
    let mut built = Vec::new();
    write_compound(payloads.iter(), &mut built);
    assert_eq!(built, bytes, "re-headed payloads write the same bytes");
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A compound member's head at its edges. The lead delta (a
    /// `ServerOp`'s `T[1]`, a `ClientOp`'s `T[2]`) of 0, 1 and 2^61 − 1
    /// rides in the head above the flag and kind bits; 2^61 does not fit
    /// and the member escapes to kind 3, `[3, tag, ..]`. The other delta
    /// follows only when the flag says so, wrapping or not. Refused: a
    /// set flag over a zero delta (each member has one encoding), a
    /// kind-3 head with high bits, a kind-3 compound (nesting), a
    /// truncated head; a count past the remaining bytes is truncation,
    /// and a compound of 1-byte `ServerAck` heads fills its bound.
    #[test]
    fn member_heads_hold_at_their_edges(
        edge in 0usize..4,
        flagged in prop_oneof![Just(0u64), Just(1u64), any::<u64>()],
        client in any::<bool>(),
        anchor in stamp_strategy(),
        high in 1u64..=u64::MAX >> 2,
        acks in proptest::collection::vec(0u64..32, 1..64),
    ) {
        let lead = [0, 1, (1u64 << 61) - 1, 1 << 61][edge];
        let (d1, d2) = if client { (flagged, lead) } else { (lead, flagged) };
        let stamp = CompressedStamp::new(anchor.t1.wrapping_add(d1), anchor.t2.wrapping_add(d2));
        let ms = vec![x_op(client, anchor), x_op(client, stamp)];
        let bytes = compound_bytes(&ms);
        let member = &bytes[compound_bytes(&ms[..1]).len()..];
        let kind = u64::from(client);
        let mut expect = Vec::new();
        if lead < 1 << 61 {
            put_varint(&mut expect, lead << 3 | u64::from(flagged != 0) << 2 | kind);
            if flagged != 0 {
                put_varint(&mut expect, flagged);
            }
            if client {
                expect.push(9); // origin
            }
        } else {
            expect.push(3);
            if client {
                expect.extend([1, 9]); // TAG_CLIENT_OP, origin
            } else {
                expect.push(2); // TAG_SERVER_OP
            }
            put_varint(&mut expect, d1);
            put_varint(&mut expect, d2);
        }
        expect.extend([4, 5, b'x']);
        prop_assert_eq!(member, &expect[..]);
        let mut out = Vec::new();
        prop_assert_eq!(decode_payload([&bytes, &[]], &mut out), Ok(()));
        prop_assert_eq!(&out, &ms);

        // A set flag over a zero delta.
        let mut b = vec![6, 1];
        put_varint(&mut b, (lead >> 3) << 3 | 4 | kind);
        b.push(0);
        if client {
            b.push(9);
        }
        b.extend([4, 5, b'x']);
        prop_assert_eq!(must_reject(&b), WireError::Overlong);

        // Kind 3 with high bits, and kind 3 wrapping a compound.
        let mut b = vec![6, 1];
        put_varint(&mut b, high << 2 | 3);
        b.extend([4, 1]);
        prop_assert_eq!(must_reject(&b), WireError::BadTag(3));
        prop_assert_eq!(must_reject(&[6, 1, 3, 6, 1, 6]), WireError::BadTag(6));

        // A head cut anywhere, and the flagged delta cut off.
        let mut b = vec![6, 1];
        put_varint(&mut b, high << 3 | 4 | kind);
        for cut in 2..b.len() {
            prop_assert_eq!(must_reject(&b[..cut]), WireError::Truncated);
        }
        prop_assert_eq!(must_reject(&b), WireError::Truncated);

        // One byte a member: `n` acks fill a count of `n`, and `n + 1` is
        // a lie the bound catches before any member is read.
        let n = acks.len() as u64;
        let mut b = vec![6];
        put_varint(&mut b, n);
        b.extend(acks.iter().map(|&a| (a << 2 | 2) as u8));
        let want: Vec<EditorMsg> = acks.iter().map(|&acked| EditorMsg::ServerAck(ServerAckMsg { acked })).collect();
        prop_assert_eq!(EditorMsg::decode(&mut &b[..]), Ok(EditorMsg::Compound(want.clone())));
        prop_assert_eq!(compound_bytes(&want), b.clone());
        let mut over = vec![6];
        put_varint(&mut over, n + 1);
        over.extend_from_slice(&b[b.len() - acks.len()..]);
        prop_assert_eq!(must_reject(&over), WireError::Truncated);
    }
}

/// A reader's one-character broadcast inside a compound is 7 bytes: the
/// head `0x08` (a `T[1]` delta of 1, no `T[2]` delta), the op's 5 bytes
/// (count, retain, insert and its byte; the trailing retain is implied)
/// and the caret's owner. A writer's broadcast that acknowledges one of
/// its own ops flags its `T[2]` delta of 1: 8 bytes.
#[test]
fn a_readers_broadcast_is_seven_bytes_in_a_compound() {
    let op = SeqOp::from_pos(&cvc_ot::pos::PosOp::insert(500, "x"), 1000);
    let frame = ServerOpFrame::new(&op, &Some((3, 501)));
    for (t2_step, head) in [(0, vec![0x08]), (1, vec![0x0c, 1])] {
        let first = frame.payload_for(CompressedStamp::new(40, 7));
        let next = frame.payload_for(CompressedStamp::new(41, 7 + t2_step));
        let (mut one, mut two) = (Vec::new(), Vec::new());
        write_compound([first.clone()].iter(), &mut one);
        write_compound([first, next.clone()].iter(), &mut two);
        let member = &two[one.len()..];
        assert_eq!(member.len(), 7 + t2_step as usize, "{member:?}");
        assert_eq!(&member[..head.len()], &head[..]);
        // The rest is the shared body, as the lone frame carries it after
        // its tag and stamp.
        let lone = next.to_vec();
        assert_eq!(&member[head.len()..], &lone[3..]);
        assert_eq!(lone.len() - 3, 6, "op 5, caret owner 1");
    }
}
