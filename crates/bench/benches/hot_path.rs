//! E16 companion bench: the layers an executed op crosses.
//!
//! * **core** — 2-element stamp construction and the formula-(7) check,
//!   the integers every message carries;
//! * **ot** — applying an operation to a `String` document (rebuilds the
//!   string) vs the gap-buffer `TextBuffer` (moves the gap), at growing
//!   document sizes, once into a fresh buffer and with two carets taking
//!   turns (every apply a far gap move); and an executed op riding a full
//!   undo stack, as a dual transform per entry vs an `OpStack` ride;
//! * **reduce** — notifier integration with ack-driven GC holding the
//!   history at the in-flight window vs the unbounded buffer;
//! * **checksum** — the frame codec's checksum: byte-at-a-time FNV-1a
//!   (kept here only, as the baseline) vs the word-at-a-time `FrameHasher`
//!   that replaced it on every framed byte, at frame sizes from a single
//!   op to a large compound frame;
//! * **quiet replica** — a site that never edits receiving broadcasts:
//!   decode, execute and `gc`, per message, over many interleaved
//!   replicas;
//! * **compound write** — the write side of the same broadcasts: four
//!   encode-once payloads and an ack re-headed into one compound frame;
//! * **snapshot** — what a log compaction costs the core thread: capturing
//!   a fan-out notifier's whole state (history and pending broadcasts,
//!   shared rather than copied) and encoding it as one record.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use cvc_ot::buffer::TextBuffer;
use cvc_ot::pos::PosOp;
use cvc_ot::seq::SeqOp;
use cvc_ot::stack::OpStack;
use cvc_reduce::client::{Client, ACK_INTERVAL, MAX_UNDO_DEPTH};
use cvc_reduce::frame::frame_checksum;
use cvc_reduce::msg::{
    decode_payload, write_compound, ClientAckMsg, ClientOpMsg, EditorMsg, Payload, ServerAckMsg,
    ServerOpFrame, ServerOpMsg,
};
use cvc_reduce::notifier::Notifier;
use cvc_sim::wire::WireEncode;

fn bench_stamp_layer(c: &mut Criterion) {
    let mut g = c.benchmark_group("stamp_layer");
    g.bench_function("compressed_stamp_new_and_get", |b| {
        b.iter(|| {
            let s = CompressedStamp::new(std::hint::black_box(41u64), std::hint::black_box(7u64));
            std::hint::black_box(s.get(1) + s.get(2))
        })
    });
    g.finish();
}

fn bench_document_layer(c: &mut Criterion) {
    let mut g = c.benchmark_group("document_apply");
    for doc_len in [256usize, 4_096, 65_536] {
        let text = "x".repeat(doc_len);
        let op = SeqOp::from_pos(&PosOp::insert(doc_len / 2, "y"), doc_len);
        // The old path: every apply rebuilds the whole String.
        g.bench_with_input(
            BenchmarkId::new("string_rebuild", doc_len),
            &doc_len,
            |b, _| {
                b.iter_batched(
                    || text.clone(),
                    |doc| std::hint::black_box(op.apply(&doc).expect("applies")),
                    BatchSize::SmallInput,
                )
            },
        );
        // The production path: the gap buffer moves its gap to the edit
        // point; repeated nearby edits are O(distance moved), not O(doc).
        g.bench_with_input(BenchmarkId::new("gap_buffer", doc_len), &doc_len, |b, _| {
            b.iter_batched(
                || TextBuffer::from_str(&text),
                |mut buf| {
                    op.apply_to_buffer(&mut buf).expect("applies");
                    std::hint::black_box(buf.len())
                },
                BatchSize::SmallInput,
            )
        });
    }
    // Two users typing a third of the document apart: every apply first
    // carries the gap across that third. The case above never moves the
    // gap back, so it cannot see what a move costs.
    for doc_len in [4_096usize, 65_536] {
        let (near, far) = (doc_len / 3, 2 * doc_len / 3);
        let round = [
            SeqOp::from_pos(&PosOp::insert(near, "y"), doc_len),
            SeqOp::from_pos(&PosOp::insert(far, "z"), doc_len + 1),
            SeqOp::from_pos(&PosOp::delete(near, "y"), doc_len + 2),
            SeqOp::from_pos(&PosOp::delete(far - 1, "z"), doc_len + 1),
        ];
        let mut buf = TextBuffer::from_str(&"x".repeat(doc_len));
        g.bench_with_input(
            BenchmarkId::new("gap_buffer_alternating_carets_x4", doc_len),
            &doc_len,
            |b, _| {
                b.iter(|| {
                    for op in &round {
                        op.apply_to_buffer(&mut buf).expect("applies");
                    }
                    std::hint::black_box(buf.len())
                })
            },
        );
    }
    g.finish();
}

/// What every executed op costs a replica with a full undo stack: 100
/// inverses (of inserts and of deletes, alternating, spread over the
/// document) ride an insert and then its deletion, which returns them to
/// the frame they started in. `transform_pair` is the dual transform per
/// entry with one result thrown away; `op_stack` is the ride `Client`
/// runs.
fn bench_undo_stack_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("undo_stack_sweep");
    for (payload_len, doc_len) in [(1usize, 4_096usize), (512, 65_536)] {
        let payload = "p".repeat(payload_len);
        let stack: Vec<SeqOp> = (0..MAX_UNDO_DEPTH)
            .map(|k| {
                let pos = k * (doc_len - payload_len) / MAX_UNDO_DEPTH;
                let mut inv = SeqOp::new();
                inv.retain(pos);
                if k % 2 == 0 {
                    inv.delete(payload_len).retain(doc_len - pos - payload_len);
                } else {
                    inv.insert(&payload).retain(doc_len - pos);
                }
                inv
            })
            .collect();
        // Between two entries' sites, so each of the 2 × 100 results is a
        // shifted copy of the entry — the shape of typing elsewhere.
        let at = doc_len / 2 + payload_len + 1;
        let ride = [
            SeqOp::from_pos(&PosOp::insert(at, &payload), doc_len),
            SeqOp::from_pos(&PosOp::delete(at, &payload), doc_len + payload_len),
        ];
        let mut riding = stack.clone();
        g.bench_with_input(
            BenchmarkId::new("transform_pair_x2", payload_len),
            &payload_len,
            |b, _| {
                b.iter(|| {
                    for op in &ride {
                        for inv in &mut riding {
                            *inv = SeqOp::transform(inv, op).expect("same frame").0;
                        }
                    }
                })
            },
        );
        assert_eq!(riding, stack);
        let mut op_stack = OpStack::new(MAX_UNDO_DEPTH);
        for inv in &stack {
            op_stack.push(inv.clone());
        }
        g.bench_with_input(
            BenchmarkId::new("op_stack_x2", payload_len),
            &payload_len,
            |b, _| {
                b.iter(|| {
                    for op in &ride {
                        op_stack.ride(op).expect("same frame");
                    }
                })
            },
        );
        let mut popped: Vec<SeqOp> = std::iter::from_fn(|| op_stack.pop()).collect();
        popped.reverse();
        assert_eq!(popped, stack);
    }
    g.finish();
}

/// A notifier with `hb` integrated ops, optionally draining the history
/// through client acks as it grows (the production GC-on shape).
fn notifier_with_traffic(n_clients: usize, ops: usize, acked: bool) -> Notifier {
    let mut notifier = Notifier::new(n_clients, &"x".repeat(64));
    notifier.set_auto_gc(acked);
    let mut own = vec![0u64; n_clients + 1];
    let mut seen = vec![0u64; n_clients + 1];
    for k in 0..ops {
        let origin = SiteId((k % n_clients + 1) as u32);
        let doc_len = 64 + k;
        let op = SeqOp::from_pos(&PosOp::insert(doc_len / 2, "y"), doc_len);
        // Sequential traffic: each op has seen every prior broadcast.
        let x = origin.0 as usize;
        own[x] += 1;
        let out = notifier
            .try_on_client_op_outcome(ClientOpMsg {
                origin,
                stamp: CompressedStamp::new(seen[x], own[x]),
                op,
                cursor: None,
            })
            .expect("valid client op");
        for (dest, _) in out.broadcast_msgs() {
            seen[dest.0 as usize] += 1;
        }
        if acked && k % ACK_INTERVAL as usize == 0 {
            // Every client confirms what it has received so far, so the
            // trim watermark follows the traffic.
            for (s, &received) in seen.iter().enumerate().skip(1) {
                notifier
                    .try_on_client_ack(ClientAckMsg {
                        origin: SiteId(s as u32),
                        received,
                    })
                    .expect("valid client ack");
            }
        }
    }
    notifier
}

fn bench_notifier_layer(c: &mut Criterion) {
    let mut g = c.benchmark_group("notifier_integration_gc");
    for ops in [64usize, 512] {
        for (label, acked) in [("unbounded_hb", false), ("acked_window_hb", true)] {
            let base = notifier_with_traffic(8, ops, acked);
            let doc_len = 64 + ops;
            // The incoming op is concurrent with nothing still buffered
            // in the acked case, and with the whole tail otherwise.
            let op = SeqOp::from_pos(&PosOp::insert(3, "z"), doc_len);
            let own = (ops / 8) as u64 + 1;
            let msg = ClientOpMsg {
                origin: SiteId(1),
                stamp: CompressedStamp::new(ops as u64 - own + 1, own),
                op,
                cursor: None,
            };
            g.bench_with_input(BenchmarkId::new(label, ops), &ops, |b, _| {
                b.iter_batched(
                    || (base.clone(), msg.clone()),
                    |(mut notifier, msg)| {
                        std::hint::black_box(
                            notifier
                                .try_on_client_op_outcome(msg)
                                .expect("valid client op"),
                        )
                    },
                    BatchSize::SmallInput,
                )
            });
        }
    }
    g.finish();
}

/// FNV-1a 32-bit hash, byte-at-a-time: the frame checksum before
/// `FrameHasher`, kept as this group's baseline row.
fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn bench_checksum_layer(c: &mut Criterion) {
    // The baseline is the real FNV-1a: its published reference vectors.
    assert_eq!(fnv1a32(b""), 0x811c_9dc5);
    assert_eq!(fnv1a32(b"a"), 0xe40c_292c);
    assert_eq!(fnv1a32(b"foobar"), 0xbf9c_f968);
    let mut g = c.benchmark_group("frame_checksum");
    // 64 B ≈ one stamped op, 1 KiB ≈ a full compound frame at the batch
    // byte threshold, 64 KiB stresses pure throughput.
    for len in [64usize, 1_024, 65_536] {
        let frame: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        g.bench_with_input(BenchmarkId::new("fnv1a32_bytewise", len), &len, |b, _| {
            b.iter(|| std::hint::black_box(fnv1a32(std::hint::black_box(&frame))))
        });
        g.bench_with_input(BenchmarkId::new("frame_hasher_words", len), &len, |b, _| {
            b.iter(|| std::hint::black_box(frame_checksum(&[std::hint::black_box(&frame)])))
        });
        // The shape the send path actually hashes: a small header chunk
        // plus the shared body, without concatenating them first.
        let (head, body) = frame.split_at(8.min(len));
        g.bench_with_input(
            BenchmarkId::new("frame_hasher_chunked", len),
            &len,
            |b, _| {
                b.iter(|| {
                    std::hint::black_box(frame_checksum(&[
                        std::hint::black_box(head),
                        std::hint::black_box(body),
                    ]))
                })
            },
        );
    }
    g.finish();
}

/// What `fanout_n64`'s generator pays per broadcast for one of its
/// readers: 64 replicas that never edit, each fed the same 4-message
/// compounds in turn (four writers typing on a 4 096-char document), and
/// per message a decode, `try_on_server_op` and `gc`. One sample is 32
/// compounds to every replica, 8 192 messages.
fn bench_quiet_replica(c: &mut Criterion) {
    const REPLICAS: u32 = 64;
    const ROUNDS: usize = 32;
    const WRITERS: u32 = 4;
    let doc = "x".repeat(4_096);
    let mut len = doc.len();
    let mut received = 0u64;
    // Even rounds insert a char at each writer's site, odd rounds delete
    // one, so the document keeps its length.
    let compounds: Vec<Vec<u8>> = (0..ROUNDS)
        .map(|round| {
            let msgs = (1..=WRITERS)
                .map(|w| {
                    let pos = w as usize * 800;
                    let op = if round % 2 == 0 {
                        PosOp::insert(pos, "y")
                    } else {
                        PosOp::delete(pos, "y")
                    };
                    let op = SeqOp::from_pos(&op, len);
                    len = op.target_len();
                    received += 1;
                    EditorMsg::ServerOp(ServerOpMsg {
                        stamp: CompressedStamp::new(received, 0),
                        op,
                        cursor: Some((w, pos as u64)),
                    })
                })
                .collect();
            let mut bytes = Vec::new();
            EditorMsg::Compound(msgs).encode(&mut bytes);
            bytes
        })
        .collect();
    let readers: Vec<Client> = (1..=REPLICAS)
        .map(|i| Client::new(SiteId(WRITERS + i), &doc))
        .collect();
    let mut g = c.benchmark_group("quiet_replica");
    g.throughput(Throughput::Elements(
        u64::from(REPLICAS) * ROUNDS as u64 * u64::from(WRITERS),
    ));
    let mut msgs = Vec::new();
    g.bench_function("decode_exec_gc_64x4", |b| {
        b.iter_batched(
            || readers.clone(),
            |mut replicas| {
                for bytes in &compounds {
                    for replica in &mut replicas {
                        decode_payload([bytes, &[]], &mut msgs).expect("decodes");
                        for msg in msgs.drain(..) {
                            let EditorMsg::ServerOp(m) = msg else {
                                unreachable!("only server ops were encoded")
                            };
                            replica.try_on_server_op(m).expect("in order");
                            replica.gc();
                        }
                    }
                }
                replicas
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// What a socket worker pays per compound on `fanout_n64`'s write path:
/// four readers' split broadcasts (a shared body behind a per-destination
/// head) and a writer's `ServerAck`, re-headed into one compound frame by
/// `write_compound`. One sample writes 1 024 frames into a reused buffer.
fn bench_compound_write(c: &mut Criterion) {
    const FRAMES: usize = 1_024;
    let mut len = 4_096;
    let mut payloads: Vec<Payload> = (1..=4u32)
        .map(|w| {
            let pos = w as usize * 800;
            let op = SeqOp::from_pos(&PosOp::insert(pos, "y"), len);
            len = op.target_len();
            ServerOpFrame::new(&op, &Some((w, pos as u64 + 1)))
                .payload_for(CompressedStamp::new(u64::from(w) + 300, 0))
        })
        .collect();
    payloads.push(Payload::encode(&EditorMsg::ServerAck(ServerAckMsg {
        acked: 77,
    })));
    let mut g = c.benchmark_group("compound_write");
    g.throughput(Throughput::Elements(FRAMES as u64));
    let mut buf = Vec::new();
    g.bench_function("rehead_4_reads_1_ack", |b| {
        b.iter(|| {
            for _ in 0..FRAMES {
                buf.clear();
                write_compound(std::hint::black_box(&payloads).iter(), &mut buf);
            }
            buf.len()
        })
    });
    g.finish();
}

/// A compaction on a fan-out session: 64 clients on a 4 096-char
/// document, 32 history entries from four writers that acknowledge
/// nothing (so each arrival rewrites its writer's pending broadcasts) and
/// 60 readers' queues naming the entries — about 2 000 pending
/// broadcasts. One sample writes the notifier's snapshot into a reused
/// buffer.
fn bench_snapshot(c: &mut Criterion) {
    const CLIENTS: usize = 64;
    const ENTRIES: u64 = 32;
    const WRITERS: u64 = 4;
    const DOC: usize = 4_096;
    let mut notifier = Notifier::new(CLIENTS, &"x".repeat(DOC));
    for k in 0..ENTRIES {
        let (w, own) = (k % WRITERS + 1, k / WRITERS);
        // A writer's view is the document plus its own ops.
        let len = DOC + own as usize;
        notifier
            .try_on_client_op_outcome(ClientOpMsg {
                origin: SiteId(w as u32),
                stamp: CompressedStamp::new(0, own + 1),
                op: SeqOp::from_pos(&PosOp::insert(w as usize * 800, "y"), len),
                cursor: None,
            })
            .expect("a concurrent op");
    }
    let mut g = c.benchmark_group("snapshot");
    let mut buf = Vec::new();
    g.bench_function("capture_encode_64x4k_32", |b| {
        b.iter(|| {
            buf.clear();
            std::hint::black_box(&notifier).write_checkpoint(&mut buf);
            buf.len()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_stamp_layer,
    bench_document_layer,
    bench_undo_stack_sweep,
    bench_notifier_layer,
    bench_checksum_layer,
    bench_quiet_replica,
    bench_compound_write,
    bench_snapshot
);
criterion_main!(benches);
