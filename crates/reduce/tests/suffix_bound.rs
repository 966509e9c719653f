//! Property test for the notifier's watermark-bounded formula-(7) scan.
//!
//! Randomized multi-site sessions — arbitrary interleavings of client
//! edits, message deliveries, joins, leaves, and garbage collection —
//! drive two notifiers fed identical message streams:
//!
//! * `A` — the production `ScanMode::SuffixBounded` path (sometimes with
//!   folded-in GC, sometimes with explicit `gc()` calls);
//! * `B` — `ScanMode::FullScanReference`, the paper's literal full-buffer
//!   scan over stored snapshots, never collected.
//!
//! Per delivered operation the test asserts:
//!
//! 1. `A`'s verdicts equal an *independent* reference: `formula7_dynamic`
//!    evaluated over `A`'s reconstructed per-entry snapshots
//!    (`hb_snapshot`), which also exercises the snapshot reconstruction;
//! 2. `A`'s verdicts equal the live suffix of `B`'s, and everything `B`
//!    judged in `A`'s collected prefix is non-concurrent — i.e. GC only
//!    ever discards entries that could no longer matter;
//! 3. both replicas execute identical documents and emit identical
//!    broadcast stamps.

use std::collections::VecDeque;

use cvc_core::formulas::formula7_dynamic;
use cvc_core::site::SiteId;
use cvc_reduce::client::Client;
use cvc_reduce::msg::ServerOpMsg;
use cvc_reduce::notifier::{Notifier, ScanMode};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const INITIAL: &str = "the quick brown fox";

fn drive(
    seed: u64,
    n0: usize,
    max_clients: usize,
    ops_per_client: usize,
    auto_gc: bool,
) -> proptest::TestCaseResult {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut a = Notifier::new(n0, INITIAL);
    a.set_auto_gc(auto_gc);
    let mut b = Notifier::new(n0, INITIAL);
    b.set_scan_mode(ScanMode::FullScanReference);

    let mut clients: Vec<Option<Client>> = (1..=n0)
        .map(|i| Some(Client::new(SiteId(i as u32), INITIAL)))
        .collect();
    let mut up: Vec<VecDeque<cvc_reduce::msg::ClientOpMsg>> = vec![VecDeque::new(); n0];
    let mut down: Vec<VecDeque<ServerOpMsg>> = vec![VecDeque::new(); n0];
    let mut budget: Vec<usize> = vec![ops_per_client; n0];

    loop {
        let mut actions: Vec<(u8, usize)> = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for (i, c) in clients.iter().enumerate() {
            if c.is_some() {
                if budget[i] > 0 {
                    actions.push((0, i));
                }
                if !up[i].is_empty() {
                    actions.push((1, i));
                }
                if !down[i].is_empty() {
                    actions.push((2, i));
                }
            }
        }
        let has_work = !actions.is_empty();
        let active = clients.iter().filter(|c| c.is_some()).count();
        if clients.len() < max_clients {
            actions.push((3, 0));
        }
        if active > 2 {
            actions.push((4, 0));
        }
        if !auto_gc {
            actions.push((5, 0));
        }
        if !has_work {
            break;
        }
        match actions[rng.gen_range(0..actions.len())] {
            (0, i) => {
                // Client i edits locally and queues the op uphill.
                budget[i] -= 1;
                let client = clients[i].as_mut().expect("active");
                let len = client.doc_len();
                let msg = if len > 0 && rng.gen_bool(0.3) {
                    client.delete(rng.gen_range(0..len), 1)
                } else {
                    let ch = (b'a' + rng.gen_range(0..26)) as char;
                    client.insert(rng.gen_range(0..=len), &ch.to_string())
                };
                up[i].push_back(msg);
            }
            (1, i) => {
                // Deliver client i's oldest op to both notifiers.
                let msg = up[i].pop_front().expect("nonempty");
                let x = msg.origin;
                // Independent reference: the dynamic formula over A's
                // reconstructed snapshots, before integration mutates A.
                let offset_x = a.join_offset(x);
                let expect: Vec<bool> = (0..a.history().len())
                    .map(|k| {
                        let snap = a.hb_snapshot(k);
                        formula7_dynamic(msg.stamp, x, &snap, a.history()[k].origin, offset_x)
                    })
                    .collect();
                let trimmed_before = a.history_trimmed() as usize;
                let out_a = a
                    .try_on_client_op_outcome(msg.clone())
                    .expect("valid op stream for A");
                let out_b = b
                    .try_on_client_op_outcome(msg)
                    .expect("valid op stream for B");
                let got_a = out_a.full_verdicts();
                prop_assert_eq!(
                    &got_a,
                    &expect,
                    "suffix verdicts vs dynamic-formula reference (seed {})",
                    seed
                );
                // B scanned everything A ever buffered, including what A
                // collected; the collected prefix must be non-concurrent
                // and the live tail must agree exactly.
                let got_b = out_b.full_verdicts();
                prop_assert_eq!(got_b.len(), trimmed_before + got_a.len());
                prop_assert!(
                    got_b[..trimmed_before].iter().all(|&v| !v),
                    "GC discarded an entry the reference still finds concurrent (seed {seed})"
                );
                prop_assert_eq!(&got_b[trimmed_before..], &got_a[..]);
                prop_assert_eq!(a.doc(), b.doc());
                let stamps_a: Vec<_> = out_a
                    .broadcast_msgs()
                    .iter()
                    .map(|(d, m)| (d.0, m.stamp))
                    .collect();
                let stamps_b: Vec<_> = out_b
                    .broadcast_msgs()
                    .iter()
                    .map(|(d, m)| (d.0, m.stamp))
                    .collect();
                prop_assert_eq!(stamps_a, stamps_b);
                for (dest, smsg) in out_a.broadcast_msgs() {
                    down[dest.client_index()].push_back(smsg);
                }
            }
            (2, i) => {
                // Deliver the oldest broadcast downhill to client i.
                let msg = down[i].pop_front().expect("nonempty");
                clients[i]
                    .as_mut()
                    .expect("active")
                    .try_on_server_op(msg)
                    .expect("valid broadcast");
            }
            (3, _) => {
                // Join both notifiers in lockstep.
                let (site_a, snap_a) = a.add_client();
                let (site_b, snap_b) = b.add_client();
                prop_assert_eq!(site_a, site_b);
                prop_assert_eq!(&snap_a, &snap_b);
                clients.push(Some(Client::new(site_a, &snap_a)));
                up.push(VecDeque::new());
                down.push(VecDeque::new());
                budget.push(ops_per_client);
            }
            (4, _) => {
                let victims: Vec<usize> = clients
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.is_some())
                    .map(|(i, _)| i)
                    .collect();
                let v = victims[rng.gen_range(0..victims.len())];
                a.quarantine(SiteId(v as u32 + 1))
                    .expect("an active victim");
                b.quarantine(SiteId(v as u32 + 1))
                    .expect("an active victim");
                clients[v] = None;
                up[v].clear();
                down[v].clear();
                budget[v] = 0;
            }
            (5, _) => {
                // Explicit collection on A only; B keeps everything.
                a.gc();
            }
            _ => unreachable!(),
        }
    }

    // Quiesced: all active replicas and both notifiers converged.
    let mut docs: Vec<String> = clients
        .iter()
        .filter_map(|c| c.as_ref().map(|c| c.doc()))
        .collect();
    docs.push(a.doc());
    docs.push(b.doc());
    prop_assert!(
        docs.windows(2).all(|w| w[0] == w[1]),
        "divergence at quiescence (seed {seed}): {docs:?}"
    );
    // The bounded scan never touched more entries than the full scan.
    prop_assert!(a.metrics().scan_len_total <= b.metrics().scan_len_total);
    prop_assert_eq!(
        a.metrics().concurrent_verdicts,
        b.metrics().concurrent_verdicts
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn suffix_scan_matches_reference_over_random_sessions(
        seed in any::<u64>(),
        n0 in 2usize..5,
        extra in 0usize..5,
        ops in 6usize..16,
        auto_gc in any::<bool>(),
    ) {
        drive(seed, n0, n0 + extra, ops, auto_gc)?;
    }
}

/// A directed non-random edge case on top of the property: joins landing
/// while older entries are still unacknowledged, then the newcomer racing
/// a founder.
#[test]
fn newcomer_race_agrees_with_reference() {
    for seed in 0..25u64 {
        drive(seed.wrapping_mul(0x9e37_79b9), 2, 6, 10, seed % 2 == 0).expect("property holds");
    }
}
