//! Wire-format and network-substrate integration tests: encodings survive
//! the simulated network byte-for-byte, FIFO holds under adversarial
//! latency, and sizes reported to the accounting layer are exact.

use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use cvc_core::vector::VectorClock;
use cvc_ot::pos::PosOp;
use cvc_ot::seq::SeqOp;
use cvc_ot::ttf::TtfOp;
use cvc_reduce::msg::{ClientOpMsg, EditorMsg, MeshOpMsg, ServerOpMsg};
use cvc_sim::prelude::*;
use cvc_sim::wire::{WireDecode, WireEncode, WireSize};
use proptest::prelude::*;

fn arb_seq_op() -> impl Strategy<Value = SeqOp> {
    proptest::collection::vec((0u8..3, 1usize..6, "[a-z]{1,5}"), 1..6).prop_map(|parts| {
        let mut op = SeqOp::new();
        for (kind, n, text) in parts {
            match kind {
                0 => {
                    op.retain(n);
                }
                1 => {
                    op.insert(&text);
                }
                _ => {
                    op.delete(n);
                }
            }
        }
        op
    })
}

/// A caret on `op`'s post-state (`0..=target_len`, the only carets that
/// decode), drawn from `draw`.
fn on_post_state(op: &SeqOp, draw: u32) -> u64 {
    u64::from(draw) % (op.target_len() as u64 + 1)
}

fn arb_msg() -> impl Strategy<Value = EditorMsg> {
    prop_oneof![
        (
            1u32..20,
            any::<u32>(),
            any::<u32>(),
            arb_seq_op(),
            proptest::option::of(any::<u32>())
        )
            .prop_map(|(site, t1, t2, op, cursor)| {
                EditorMsg::ClientOp(ClientOpMsg {
                    origin: SiteId(site),
                    stamp: CompressedStamp::new(u64::from(t1), u64::from(t2)),
                    cursor: cursor.map(|c| on_post_state(&op, c)),
                    op,
                })
            }),
        (
            any::<u32>(),
            any::<u32>(),
            arb_seq_op(),
            proptest::option::of((1u32..20, any::<u32>()))
        )
            .prop_map(|(t1, t2, op, cursor)| {
                EditorMsg::ServerOp(ServerOpMsg {
                    stamp: CompressedStamp::new(u64::from(t1), u64::from(t2)),
                    cursor: cursor.map(|(s, c)| (s, on_post_state(&op, c))),
                    op,
                })
            }),
        (
            1u32..20,
            proptest::collection::vec(0u64..1000, 1..20),
            (0usize..100, proptest::char::range('a', 'z'), 1u32..20)
        )
            .prop_map(|(site, entries, (pos, ch, opsite))| {
                EditorMsg::MeshOp(MeshOpMsg {
                    origin: SiteId(site),
                    vector: VectorClock::from_entries(entries),
                    op: TtfOp::Insert {
                        pos,
                        ch,
                        site: opsite,
                    },
                })
            }),
    ]
}

/// `back`, decoded from `sent`'s bytes, with its op closed at the base of
/// `sent`'s, as the receiving door closes it: the wire leaves an op's
/// trailing retain implied.
fn closed_like(mut back: EditorMsg, sent: &EditorMsg) -> EditorMsg {
    let fit = match (&mut back, sent) {
        (EditorMsg::ClientOp(b), EditorMsg::ClientOp(s)) => b.op.close_to(s.op.base_len()),
        (EditorMsg::ServerOp(b), EditorMsg::ServerOp(s)) => b.op.close_to(s.op.base_len()),
        _ => Ok(()),
    };
    fit.expect("an op fits its own base");
    back
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any message round-trips and its declared size is exact.
    #[test]
    fn any_message_round_trips(msg in arb_msg()) {
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        prop_assert_eq!(buf.len(), msg.wire_bytes());
        let mut slice = &buf[..];
        let back = EditorMsg::decode(&mut slice).unwrap();
        prop_assert!(slice.is_empty());
        prop_assert_eq!(closed_like(back, &msg), msg);
    }

    /// Stamp accounting never exceeds the whole message.
    #[test]
    fn stamp_bytes_bounded_by_message(msg in arb_msg()) {
        prop_assert!(msg.stamp_bytes() < msg.wire_bytes());
    }
}

/// A node that decodes incoming byte buffers and records payload ids —
/// exercising encode → simulate → decode end to end.
struct DecodingNode {
    seen: Vec<EditorMsg>,
}

#[derive(Clone)]
struct Encoded(Vec<u8>);

impl WireSize for Encoded {
    fn wire_bytes(&self) -> usize {
        self.0.len()
    }
}

impl Node<Encoded> for DecodingNode {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, Encoded>, _from: NodeId, msg: Encoded) {
        let mut slice = &msg.0[..];
        self.seen
            .push(EditorMsg::decode(&mut slice).expect("valid encoding"));
        assert!(slice.is_empty());
    }
}

#[test]
fn encoded_messages_survive_the_simulated_network() {
    let mut sim: Simulator<Encoded, DecodingNode> =
        Simulator::new(LatencyModel::Uniform { lo: 10, hi: 90_000 }, 5);
    let a = sim.add_node(DecodingNode { seen: vec![] });
    let b = sim.add_node(DecodingNode { seen: vec![] });

    let mut sent = Vec::new();
    for k in 0..40u64 {
        let msg = EditorMsg::ServerOp(ServerOpMsg {
            stamp: CompressedStamp::new(k, k * 2),
            op: SeqOp::from_pos(&PosOp::insert(0, "x"), 5),
            cursor: None,
        });
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        sim.inject_send(a, b, Encoded(buf));
        sent.push(msg);
    }
    sim.run();
    // FIFO: decoded messages arrive in send order, bit-identical once
    // closed.
    let seen = &sim.node(b).seen;
    assert_eq!(seen.len(), sent.len());
    let seen: Vec<EditorMsg> = seen
        .iter()
        .zip(&sent)
        .map(|(m, s)| closed_like(m.clone(), s))
        .collect();
    assert_eq!(seen, sent);
    // Channel byte accounting equals the encoded sizes.
    let bytes: u64 = sent.iter().map(|m| m.wire_bytes() as u64).sum();
    assert_eq!(sim.channel_stats(a, b).bytes, bytes);
}

#[test]
fn compressed_stamps_beat_full_vectors_on_the_wire_from_n_3() {
    // Byte-level crossover: at N=2 a full vector can tie the 2-element
    // stamp; from N=3 the compressed stamp is strictly smaller for
    // small counter values.
    let op = SeqOp::from_pos(&PosOp::insert(1, "a"), 8);
    let compressed = EditorMsg::ServerOp(ServerOpMsg {
        stamp: CompressedStamp::new(1, 1),
        op: op.clone(),
        cursor: None,
    });
    for n in 2..64usize {
        let full = EditorMsg::MeshOp(MeshOpMsg {
            origin: SiteId(1),
            vector: VectorClock::new(n),
            op: TtfOp::Insert {
                pos: 1,
                ch: 'a',
                site: 1,
            },
        });
        if n >= 3 {
            assert!(
                compressed.stamp_bytes() < full.stamp_bytes(),
                "N={n}: {} vs {}",
                compressed.stamp_bytes(),
                full.stamp_bytes()
            );
        }
    }
}
