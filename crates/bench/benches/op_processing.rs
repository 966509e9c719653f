//! E7 companion bench: the per-operation hot paths.
//!
//! * concurrency checks: formula (5) (client), formula (7) (notifier),
//!   formula (3) (full vectors) as history buffers grow;
//! * operation integration end-to-end at the notifier and at a client,
//!   with varying numbers of concurrent pending operations (transform
//!   load).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use cvc_core::formulas::{formula3_full_vector, formula5_client, formula7_notifier};
use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use cvc_core::timestamp::OriginAtClient;
use cvc_core::vector::VectorClock;
use cvc_ot::pos::PosOp;
use cvc_ot::seq::SeqOp;
use cvc_reduce::client::{Client, MAX_UNDO_DEPTH};
use cvc_reduce::msg::{ClientOpMsg, ServerOpMsg};
use cvc_reduce::notifier::Notifier;

fn bench_formulas(c: &mut Criterion) {
    let mut g = c.benchmark_group("concurrency_check");
    let ta = CompressedStamp::new(10, 4);
    let tb = CompressedStamp::new(8, 6);
    g.bench_function("formula5_client", |b| {
        b.iter(|| std::hint::black_box(formula5_client(ta, tb, OriginAtClient::Local)))
    });
    for n in [4usize, 32, 256] {
        let vec = VectorClock::from_entries((0..n as u64).collect());
        g.bench_with_input(BenchmarkId::new("formula7_notifier", n), &vec, |b, vec| {
            b.iter(|| std::hint::black_box(formula7_notifier(ta, SiteId(2), vec, SiteId(1))))
        });
        let va = VectorClock::from_entries((1..=n as u64).collect());
        g.bench_with_input(BenchmarkId::new("formula3_full", n), &va, |b, va| {
            b.iter(|| std::hint::black_box(formula3_full_vector(va, SiteId(1), &vec, SiteId(2))))
        });
    }
    g.finish();
}

/// A notifier with `hb` executed ops and a client op concurrent with the
/// last `conc` of them.
fn notifier_with_history(n_clients: usize, hb: usize) -> Notifier {
    let mut notifier = Notifier::new(n_clients, &"x".repeat(64));
    for k in 0..hb {
        let origin = SiteId((k % (n_clients - 1) + 2) as u32); // sites 2..
        let doc_len = 64 + k;
        let op = SeqOp::from_pos(&PosOp::insert(doc_len / 2, "y"), doc_len);
        // Each op has seen everything the notifier sent so far (no
        // concurrency among history ops).
        let seen: u64 = notifier
            .history()
            .iter()
            .filter(|e| e.origin != origin)
            .count() as u64;
        let own: u64 = notifier
            .history()
            .iter()
            .filter(|e| e.origin == origin)
            .count() as u64;
        notifier
            .try_on_client_op_outcome(ClientOpMsg {
                origin,
                stamp: CompressedStamp::new(seen, own + 1),
                op,
                cursor: None,
            })
            .expect("valid client op");
    }
    notifier
}

fn bench_notifier_integration(c: &mut Criterion) {
    let mut g = c.benchmark_group("notifier_on_client_op");
    for hb in [0usize, 16, 64, 256] {
        let base = notifier_with_history(8, hb);
        // The incoming op from site 1 saw none of the notifier's
        // broadcasts: concurrent with every buffered op.
        let op = SeqOp::from_pos(&PosOp::insert(3, "z"), 64);
        let msg = ClientOpMsg {
            origin: SiteId(1),
            stamp: CompressedStamp::new(0, 1),
            op,
            cursor: None,
        };
        g.bench_with_input(BenchmarkId::new("all_concurrent_hb", hb), &hb, |b, _| {
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
    g.finish();
}

fn bench_client_integration(c: &mut Criterion) {
    let mut g = c.benchmark_group("client_on_server_op");
    // A reader's stacks are empty; a writer's hold up to MAX_UNDO_DEPTH
    // inverses that ride every executed op. `pending` alone cannot tell the
    // two apart, so each pending count runs at both depths.
    for (label, acked_first) in [
        ("pending_local_ops", 0usize),
        ("pending_local_ops_full_undo_stack", MAX_UNDO_DEPTH),
    ] {
        for pending in [0usize, 4, 16, 64] {
            let mut client = Client::new(SiteId(1), &"x".repeat(64));
            // Typed and acknowledged: on the undo stack, not pending.
            for k in 0..acked_first {
                client.insert(k % 64, "u");
            }
            let received = u64::from(acked_first > 0);
            if received > 0 {
                client
                    .try_on_server_op(ServerOpMsg {
                        stamp: CompressedStamp::new(received, acked_first as u64),
                        op: SeqOp::identity(64 + acked_first),
                        cursor: None,
                    })
                    .expect("valid server op");
                client.gc();
            }
            // Client typed `pending` chars the server hasn't seen.
            for k in 0..pending {
                client.insert(32 + k, "p");
            }
            let msg = ServerOpMsg {
                stamp: CompressedStamp::new(received + 1, acked_first as u64),
                op: SeqOp::from_pos(&PosOp::insert(5, "s"), 64 + acked_first),
                cursor: None,
            };
            g.bench_with_input(BenchmarkId::new(label, pending), &pending, |b, _| {
                b.iter_batched(
                    || (client.clone(), msg.clone()),
                    |(mut client, msg)| {
                        std::hint::black_box(client.try_on_server_op(msg).expect("valid server op"))
                    },
                    BatchSize::SmallInput,
                )
            });
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_formulas,
    bench_notifier_integration,
    bench_client_integration
);
criterion_main!(benches);
