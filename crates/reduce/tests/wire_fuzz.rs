//! Wire-codec hardening: decoding hostile bytes must be total.
//!
//! For every frame type on the simulated wire ([`EditorMsg`] and the
//! reliability layer's [`ReliableMsg`]) these properties must hold:
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
use cvc_reduce::frame::{frame_checksum, FrameHasher};
use cvc_reduce::msg::{
    ClientAckMsg, ClientOpMsg, EditorMsg, MeshOpMsg, Payload, RelayAckMsg, RelayOpMsg,
    ServerAckMsg, ServerOpFrame, ServerOpMsg,
};
use cvc_reduce::notifier::Notifier;
use cvc_reduce::relay::{RelayBus, RelayFaultPlan};
use cvc_reduce::reliable::{ReliableKind, ReliableMsg};
use cvc_reduce::wal::{WalRecord, WalSnapshot};
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
/// server-op 2, mesh-op 3, compound 6; components retain 0 / insert 1 /
/// delete 2; TTF insert 0 / delete 1).
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
    // over ten bytes that would parse as five retain components.
    let mut b = vec![2u8];
    put_varint(&mut b, 0);
    put_varint(&mut b, 0); // stamp
    put_varint(&mut b, hostile); // component count
    b.extend_from_slice(&[0, 1, 0, 1, 0, 1, 0, 1, 0, 1]);
    assert_eq!(must_reject(&b), WireError::Truncated);

    // Sites 3 and 4 — retain/delete run lengths: a single component whose
    // span is past the document cap must surface the claimed value.
    for comp_tag in [0u8, 2u8] {
        let mut b = vec![2u8];
        put_varint(&mut b, 0);
        put_varint(&mut b, 0); // stamp
        put_varint(&mut b, 1); // one component
        b.push(comp_tag);
        put_varint(&mut b, hostile); // span
        b.push(0); // cursor: none
        assert_eq!(must_reject(&b), WireError::HostileLength(hostile));
    }

    // Insert-string byte length (the `get_string` site the spans share a
    // frame with): 2^32+5 claimed bytes over 5 actual ones.
    let mut b = vec![2u8];
    put_varint(&mut b, 0);
    put_varint(&mut b, 0); // stamp
    put_varint(&mut b, 1); // one component
    b.push(1); // insert
    put_varint(&mut b, hostile); // string byte length
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

    // The WAL shares the codec: frontier and snapshot cursor counts get
    // the same u64-domain bound (tags 33 and 32).
    let mut b = vec![33u8];
    put_varint(&mut b, hostile);
    b.extend_from_slice(&[1, 1, 1, 1]);
    let mut buf: &[u8] = &b;
    assert!(WalRecord::decode(&mut buf).is_err());
    let mut b = vec![32u8];
    put_varint(&mut b, 0); // empty doc
    put_varint(&mut b, hostile); // cursor count
    b.extend_from_slice(&[0, 0, 0, 1, 0, 0, 0, 1]);
    let mut buf: &[u8] = &b;
    assert!(WalRecord::decode(&mut buf).is_err());
}

/// A shard id past `u32` is an overlong value, never a truncated one: read
/// as `2^32 → 0`, a hostile relay frame would claim to come from shard 0
/// and slip past the notifier's hostile-shard quarantine.
#[test]
fn wide_origin_shard_is_overlong_not_shard_zero() {
    let inner = MeshOpMsg {
        origin: SiteId(1),
        vector: VectorClock::from_entries(vec![1, 0]),
        op: TtfOp::Delete { pos: 0 },
    };
    let op = EditorMsg::RelayOp(RelayOpMsg {
        origin_shard: 0,
        seq: 1,
        sent_at_us: 0,
        inner,
    });
    let ack = EditorMsg::RelayAck(RelayAckMsg {
        origin_shard: 0,
        received: 1,
    });
    for msg in [op, ack] {
        let mut valid = Vec::new();
        msg.encode(&mut valid);
        // Byte 0 is the tag, byte 1 the one-byte varint of shard 0.
        for wide in [1u64 << 32, (1 << 32) + 1, u64::MAX] {
            let mut b = vec![valid[0]];
            put_varint(&mut b, wide);
            b.extend_from_slice(&valid[2..]);
            assert_eq!(must_reject(&b), WireError::Overlong, "{msg:?} at {wide}");
        }
    }
}

/// A component count the frame's length allows but its bytes do not
/// back: ~500 k claimed, three real components, then junk. The decode
/// fails, and the op's component vector was never reserved past four
/// entries (a single-site op's `retain·insert·delete·retain`).
#[test]
fn a_hostile_component_count_does_not_drive_the_reservation() {
    let claimed = 500_000u64;
    let mut b = vec![2u8];
    put_varint(&mut b, 0);
    put_varint(&mut b, 0); // stamp
    put_varint(&mut b, claimed); // component count
    b.extend_from_slice(&[0, 1, 1, 1, b'a', 2, 1]); // retain 1 · insert "a" · delete 1
    b.resize(b.len() + 2 * claimed as usize, 0xff);
    let (err, t) = tally(|| must_reject(&b));
    assert_eq!(err, WireError::BadTag(0xff));
    assert!(
        t.largest <= 4 * std::mem::size_of::<Component>(),
        "decode reserved {t:?}"
    );
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

/// A structurally valid shard-mesh operation — the body of both the
/// mesh baseline's wire frame and the federation relay frame.
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

/// A federation relay frame with an **arbitrary** shard id — including
/// self-referential and out-of-range ones. The codec must be total for
/// all of them; shard-range policy lives in the notifier's quarantine
/// counters, never in the decoder.
fn relay_op_msg_strategy() -> impl Strategy<Value = RelayOpMsg> {
    (
        any::<u32>(),
        1u64..1_000_000,
        any::<u64>(),
        mesh_op_msg_strategy(),
    )
        .prop_map(|(origin_shard, seq, sent_at_us, inner)| RelayOpMsg {
            origin_shard,
            seq,
            sent_at_us,
            inner,
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
                op,
                cursor,
            })
        });
    let server = (
        stamp_strategy(),
        seq_op_strategy(),
        proptest::option::of((1u32..=64, any::<u64>())),
    )
        .prop_map(|(stamp, op, cursor)| EditorMsg::ServerOp(ServerOpMsg { stamp, op, cursor }));
    let mesh = mesh_op_msg_strategy().prop_map(EditorMsg::MeshOp);
    let ack = any::<u64>().prop_map(|acked| EditorMsg::ServerAck(ServerAckMsg { acked }));
    let client_ack = (1u32..=64, any::<u64>()).prop_map(|(origin, received)| {
        EditorMsg::ClientAck(ClientAckMsg {
            origin: SiteId(origin),
            received,
        })
    });
    let relay_op = relay_op_msg_strategy().prop_map(EditorMsg::RelayOp);
    let relay_ack = (any::<u32>(), any::<u64>()).prop_map(|(origin_shard, received)| {
        EditorMsg::RelayAck(RelayAckMsg {
            origin_shard,
            received,
        })
    });
    prop_oneof![client, server, mesh, ack, client_ack, relay_op, relay_ack]
}

fn editor_msg_strategy() -> impl Strategy<Value = EditorMsg> {
    prop_oneof![
        leaf_editor_msg_strategy(),
        leaf_editor_msg_strategy(),
        leaf_editor_msg_strategy(),
        proptest::collection::vec(leaf_editor_msg_strategy(), 1..5).prop_map(EditorMsg::Compound),
    ]
}

fn reliable_msg_strategy() -> impl Strategy<Value = ReliableMsg> {
    let kind = prop_oneof![
        (
            1u64..1_000_000,
            any::<u64>(),
            any::<u32>(),
            proptest::collection::vec(any::<u8>(), 0..64),
        )
            .prop_map(|(seq, ack, checksum, payload)| ReliableKind::Data {
                seq,
                ack,
                checksum,
                payload: Payload::from_vec(payload),
            }),
        any::<u64>().prop_map(|ack| ReliableKind::Ack { ack }),
    ];
    (any::<u32>(), kind).prop_map(|(epoch, kind)| ReliableMsg { epoch, kind })
}

/// Durability-log records: ops and acks reuse the editor wire format
/// byte-for-byte; snapshots add a checkpoint frame of their own.
fn wal_record_strategy() -> impl Strategy<Value = WalRecord> {
    use cvc_reduce::notifier::CheckpointCursor;
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
                op,
                cursor,
            })
        });
    let ack = (1u32..=64, any::<u64>()).prop_map(|(origin, received)| {
        WalRecord::Ack(ClientAckMsg {
            origin: SiteId(origin),
            received,
        })
    });
    let snapshot = (
        "[a-z ]{0,32}",
        proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
                |(sent, received, join_offset, active)| CheckpointCursor {
                    sent,
                    received,
                    join_offset,
                    active,
                },
            ),
            0..6,
        ),
    )
        .prop_map(|(doc, clients)| WalRecord::Snapshot(WalSnapshot { doc, clients }));
    let frontier = proptest::collection::vec((any::<u32>(), any::<u64>()), 0..8)
        .prop_map(|entries| WalRecord::AckFrontier(cvc_reduce::wal::AckFrontierRecord { entries }));
    let evict = any::<u32>().prop_map(|site| WalRecord::Evict(SiteId(site)));
    prop_oneof![op, ack, frontier, evict, snapshot]
}

/// Run the full hostile-input battery against one message's encoding.
fn battery<M>(msg: &M, flips: &[usize])
where
    M: WireSize + WireEncode + WireDecode + PartialEq + std::fmt::Debug,
{
    let mut bytes = Vec::with_capacity(msg.wire_bytes());
    msg.encode(&mut bytes);
    assert_eq!(bytes.len(), msg.wire_bytes(), "wire_bytes must be exact");

    // Round trip, consuming exactly the frame.
    let mut buf: &[u8] = &bytes;
    assert_eq!(M::decode(&mut buf).as_ref(), Ok(msg));
    assert!(buf.is_empty(), "decode left {} unread bytes", buf.len());

    // No over-read past the frame: trailing junk stays in the buffer.
    let mut overlong = bytes.clone();
    overlong.put_slice(&[0xde, 0xad, 0xbe, 0xef]);
    let mut buf: &[u8] = &overlong;
    assert_eq!(M::decode(&mut buf).as_ref(), Ok(msg));
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
        // inbound direction, and the federation relay frames never reach
        // a star edge at all (they live on the inter-notifier bus); the
        // session layer counts and drops all of them.
        EditorMsg::ServerAck(_)
        | EditorMsg::MeshOp(_)
        | EditorMsg::RelayOp(_)
        | EditorMsg::RelayAck(_) => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn editor_msg_codec_is_total(msg in editor_msg_strategy(), flips in proptest::collection::vec(any::<usize>(), 1..12)) {
        battery(&msg, &flips);
    }

    #[test]
    fn reliable_msg_codec_is_total(msg in reliable_msg_strategy(), flips in proptest::collection::vec(any::<usize>(), 1..12)) {
        battery(&msg, &flips);
    }

    /// The durability log's record codec gets the same battery as the
    /// wire frames — a recovering standby reads WAL bytes exactly as
    /// hostile input, so its decoder must be total too.
    #[test]
    fn wal_record_codec_is_total(msg in wal_record_strategy(), flips in proptest::collection::vec(any::<usize>(), 1..12)) {
        battery(&msg, &flips);
    }

    /// Pure noise: decoding random byte strings never panics or reads past
    /// the buffer, for either frame type.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut buf: &[u8] = &bytes;
        let _ = EditorMsg::decode(&mut buf);
        let mut buf: &[u8] = &bytes;
        let _ = ReliableMsg::decode(&mut buf);
        let mut buf: &[u8] = &bytes;
        let _ = WalRecord::decode(&mut buf);
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
    #[test]
    fn hostile_spans_reject_across_the_64_bit_range(claimed in MAX_WIRE_SPAN + 1..u64::MAX) {
        let mut b = vec![2u8];
        put_varint(&mut b, 0);
        put_varint(&mut b, 0);
        put_varint(&mut b, 1);
        b.push(0); // retain
        put_varint(&mut b, claimed);
        b.push(0);
        prop_assert_eq!(must_reject(&b), WireError::HostileLength(claimed));
    }

    /// A hostile length field must not trigger a giant allocation or an
    /// over-read: a tiny Data frame claiming a huge payload is Truncated.
    #[test]
    fn claimed_payload_length_is_bounded_by_buffer(claimed in 1u64..u64::MAX / 2) {
        let mut bytes = Vec::new();
        ReliableMsg {
            epoch: 0,
            kind: ReliableKind::Data {
                seq: 1,
                ack: 0,
                checksum: 0,
                payload: Payload::from_vec(Vec::new()),
            },
        }
        .encode(&mut bytes);
        // Replace the trailing zero payload-length varint with `claimed`.
        bytes.pop();
        cvc_sim::wire::put_varint(&mut bytes, claimed);
        let mut buf: &[u8] = &bytes;
        prop_assert!(ReliableMsg::decode(&mut buf).is_err());
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

    /// The federation wire frames get the full battery — round trip,
    /// truncation to `WireError`, no over-read, bit-flip totality — with
    /// hostile shard ids baked into the strategy (`any::<u32>()`): the
    /// codec never polices shard range, the notifier's quarantine does.
    #[test]
    fn relay_frame_codec_is_total(
        op in relay_op_msg_strategy(),
        origin_shard in any::<u32>(),
        received in any::<u64>(),
        flips in proptest::collection::vec(any::<usize>(), 1..12),
    ) {
        battery(&EditorMsg::RelayOp(op), &flips);
        battery(&EditorMsg::RelayAck(RelayAckMsg { origin_shard, received }), &flips);
    }

    /// A fault-free bus is exact: every frame sent to a peer shard comes
    /// out of `deliver` intact and in FIFO order — including frames whose
    /// shard ids are hostile. The bus is a transport, not a policeman.
    #[test]
    fn fault_free_bus_is_exact_and_ordered(
        inners in proptest::collection::vec((any::<u32>(), mesh_op_msg_strategy()), 1..12),
    ) {
        let mut bus = RelayBus::new(2, RelayFaultPlan::NONE);
        let sent: Vec<RelayOpMsg> = inners
            .into_iter()
            .enumerate()
            .map(|(i, (origin_shard, inner))| RelayOpMsg {
                origin_shard,
                seq: i as u64 + 1,
                sent_at_us: i as u64,
                inner,
            })
            .collect();
        for f in &sent {
            bus.send(0, f);
        }
        prop_assert_eq!(bus.deliver(0, 1), sent.clone());
        let st = bus.stats();
        prop_assert_eq!(st.deliveries, sent.len() as u64);
        prop_assert_eq!(st.corrupt_drops, 0);
        prop_assert_eq!(st.drops, 0);
    }

    /// The inter-notifier bus under **total** corruption: every delivery
    /// attempt is bit-flipped in flight, so the checksum/decoder gate
    /// must quarantine every frame — zero deliveries, zero panics — while
    /// the queue keeps the frames for go-back-N redelivery.
    #[test]
    fn fully_corrupted_bus_quarantines_every_frame(
        frames in proptest::collection::vec((any::<u32>(), mesh_op_msg_strategy()), 1..10),
        seed in any::<u64>(),
        barriers in 1usize..4,
    ) {
        let mut bus = RelayBus::new(
            2,
            RelayFaultPlan { drop: 0.0, corrupt: 1.0, seed },
        );
        let n = frames.len() as u64;
        for (i, (origin_shard, inner)) in frames.into_iter().enumerate() {
            bus.send(0, &RelayOpMsg {
                origin_shard,
                seq: i as u64 + 1,
                sent_at_us: 0,
                inner,
            });
        }
        for _ in 0..barriers {
            prop_assert!(bus.deliver(0, 1).is_empty());
        }
        let st = bus.stats();
        prop_assert_eq!(st.deliveries, 0);
        prop_assert_eq!(st.corrupt_drops, n * barriers as u64);
        prop_assert!(!bus.is_empty(), "quarantined frames must stay queued");
    }
}
