//! Failure injection: kill the primary notifier at every interesting
//! point and prove the warm standby carries the session.
//!
//! Three legs:
//!
//! 1. **Crash-point sweep** — a seeded `NotifierCrash { at_op, point }`
//!    kills the primary before, mid-way through, and after the broadcast
//!    fan-out of its `at_op`-th integration, across a grid of crash times
//!    and loss rates. Every run must converge with a complete failover
//!    report: all clients resynced, recovery time measured, zero panics.
//! 2. **WAL crash-anywhere recovery** (proptest) — truncating a real
//!    durable core's log, which opens with a snapshot cut with history in
//!    flight, at *every* byte boundary, or flipping any single byte,
//!    yields a clean replay or a typed [`WalError`] — never a panic,
//!    never silent divergence.
//!    The log is a frame stream: the socket's incremental `FrameReader`,
//!    fed any cut of it in random chunks, yields exactly the records
//!    `Wal::recover` does.
//! 3. **Stale-primary fencing** — frames on the dead incarnation's
//!    connections (whatever the clients had in flight, stalled across the
//!    crash) are dropped and counted by the promoted notifier, never
//!    integrated; only a re-dialed connection's hello binds a channel.

use cvc_ot::seq::Component;
use cvc_reduce::frame::FrameReader;
use cvc_reduce::notifier::Notifier;
use cvc_reduce::reliable::{run_robust_session_traced, CrashPoint, NotifierCrash};
use cvc_reduce::session::{run_session, Deployment, FailoverReport, SessionConfig};
use cvc_reduce::standby::Standby;
use cvc_reduce::wal::{Wal, WalRecord, DEFAULT_COMPACT_EVERY};
use cvc_sim::fault::{FaultPlan, FlapSpec};
use cvc_sim::wire::WireDecode;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn crash_cfg(n: usize, seed: u64, at_op: u64, point: CrashPoint) -> SessionConfig {
    let mut cfg = SessionConfig::small(Deployment::StarCvc, n, seed);
    cfg.standby = true;
    cfg.workload.ops_per_site = 8;
    cfg.crash = Some(NotifierCrash { at_op, point });
    cfg
}

fn assert_recovered(fo: &FailoverReport, n: usize, label: &str) {
    assert_eq!(fo.resynced_clients, n, "{label}: not every client resynced");
    assert!(
        fo.recovered_at_us.is_some(),
        "{label}: recovery never completed"
    );
    assert!(
        fo.wal_appends > 0,
        "{label}: WAL never saw the input stream"
    );
    assert!(
        fo.standby_replay_ops >= 1,
        "{label}: the standby replayed nothing"
    );
}

/// The tentpole property, exhaustively over the crash grid: every crash
/// point × crash time × loss rate converges with a full recovery. 0
/// divergences, 0 panics.
#[test]
fn every_crash_point_recovers() {
    let n = 4;
    let total = (n * 8) as u64;
    for point in [
        CrashPoint::BeforeSend,
        CrashPoint::MidBroadcast,
        CrashPoint::AfterSend,
    ] {
        // First op, early, middle, late, and near the end of the session.
        for at_op in [1, 3, total / 3, total / 2, total - 2] {
            for loss in [0.0, 0.01] {
                let mut cfg = crash_cfg(n, 0xFA11 + at_op, at_op, point);
                if loss > 0.0 {
                    cfg.fault_plan = Some(FaultPlan::lossy(loss));
                }
                let label = format!("{} at op {at_op} loss {loss}", point.name());
                let r = run_session(&cfg);
                assert!(r.converged, "{label}: diverged: {:?}", r.final_docs);
                let fo = r.failover.as_ref().expect("crash fired");
                assert_recovered(fo, n, &label);
                assert_eq!(
                    fo.crash_at_us,
                    fo.recovered_at_us.unwrap() - fo.recovery_us().unwrap()
                );
            }
        }
    }
}

/// Traffic to the dead incarnation — frames the clients sent before they
/// heard the close, stalled in flight across the crash — lands on a dead
/// connection and is dropped and counted, never integrated. Only a
/// re-dialed connection's hello binds a channel again.
#[test]
fn stale_primary_frames_are_fenced_not_resequenced() {
    for point in [CrashPoint::MidBroadcast, CrashPoint::AfterSend] {
        let mut cfg = crash_cfg(5, 0x2B1E, 9, point);
        // Stalls keep pre-crash frames arriving well after the promotion;
        // duplicates and reordering never surface on a connection.
        cfg.fault_plan = Some(FaultPlan {
            drop: 0.2,
            duplicate: 0.2,
            reorder: 0.2,
            reorder_extra_us: 150_000,
            ..FaultPlan::NONE
        });
        let r = run_session(&cfg);
        assert!(r.converged, "{point:?}: {:?}", r.final_docs);
        let fo = r.failover.as_ref().expect("crash fired");
        assert_recovered(fo, 5, point.name());
        assert!(
            fo.stale_drops > 0,
            "{point:?}: no frame ever landed on a dead connection"
        );
    }
}

/// Failover composes with the rest of the chaos harness: loss, duplicates,
/// reorder and corruption all at once, across a crash.
#[test]
fn failover_under_compound_faults_converges() {
    let mut cfg = crash_cfg(4, 0xC0FE, 11, CrashPoint::MidBroadcast);
    cfg.fault_plan = Some(FaultPlan {
        drop: 0.05,
        duplicate: 0.05,
        reorder: 0.05,
        reorder_extra_us: 60_000,
        corrupt: 0.03,
        ..FaultPlan::NONE
    });
    let r = run_session(&cfg);
    assert!(r.converged, "{:?}", r.final_docs);
    assert_recovered(r.failover.as_ref().expect("crash fired"), 4, "compound");
}

/// A session over connections restores from a snapshot. A durable star
/// whose connections stall and reset runs past three cadences of ops, so
/// its log was cut more than once: each cut replaces the whole log, and a
/// cut follows at least [`DEFAULT_COMPACT_EVERY`] op records, so a
/// snapshot covering two cadences was cut at least twice. The image is
/// that snapshot and the op records since, each open (no trailing retain)
/// and closing to the op the notifier integrated; cold recovery rebuilds
/// the live document.
#[test]
fn a_session_over_connections_restores_from_a_snapshot() {
    let n = 4;
    let mut cfg = SessionConfig::small(Deployment::StarCvc, n, 0x5AB5);
    cfg.standby = true;
    cfg.workload.ops_per_site = 3 * DEFAULT_COMPACT_EVERY as usize / n + 16;
    cfg.fault_plan = Some(FaultPlan {
        corrupt: 0.01,
        delay_spike: 0.03,
        spike_us: 120_000,
        flap: Some(FlapSpec {
            period_us: 900_000,
            down_us: 150_000,
            offset_us: 300_000,
        }),
        ..FaultPlan::NONE
    });
    let (report, trace) = run_robust_session_traced(&cfg);
    assert!(report.converged, "{:?}", report.final_docs);
    assert!(report.fault_stats.delay_spiked > 0, "the plan must stall");
    assert!(report.total_metrics().resets > 0, "the plan must reset");
    assert!(trace.notifier.len() as u64 > 3 * DEFAULT_COMPACT_EVERY);

    let rec = Wal::recover(&trace.wal_image).expect("an intact log");
    let snapshot = rec.snapshot.as_ref().expect("the log was cut");
    let covered = snapshot.state_vector().total();
    assert!(
        covered >= 2 * DEFAULT_COMPACT_EVERY,
        "cut at least twice: the snapshot covers {covered} ops"
    );
    let ops: Vec<_> = rec
        .tail
        .iter()
        .filter_map(|r| match r {
            WalRecord::Op(m) => Some(m),
            _ => None,
        })
        .collect();
    assert!(!ops.is_empty(), "op records follow the snapshot");
    assert_eq!(covered + ops.len() as u64, trace.notifier.len() as u64);
    let since = &trace.notifier[covered as usize..];
    for (logged, step) in ops.into_iter().zip(since) {
        let tail = logged.op.components().last();
        assert!(
            !matches!(tail, Some(Component::Retain(_))),
            "open: {logged:?}"
        );
        let mut closed = logged.clone();
        closed
            .op
            .close_to(step.msg.op.base_len())
            .expect("fits its base");
        assert_eq!(closed, step.msg);
    }
    let cold = Standby::from_log(&trace.wal_image, n, &cfg.initial_doc).expect("a scan");
    assert!(cold.poisoned().is_none(), "{:?}", cold.poisoned());
    assert_eq!(
        cold.notifier().doc(),
        report.final_docs[0],
        "the live notifier's"
    );
}

fn snapshot_bytes(notifier: &Notifier) -> Vec<u8> {
    let mut buf = Vec::new();
    notifier.write_checkpoint(&mut buf);
    buf
}

/// Build a realistic log image: a durable core with a two-op cadence
/// under a seeded two-site exchange in which site 2 hears each step's
/// broadcasts one step late and edits every other step. The image is a
/// snapshot cut with history in flight — entries, pending references and
/// a broadcast a concurrent op rewrote — and the records after it.
fn session_wal_image(seed: u64) -> Vec<u8> {
    use cvc_core::site::SiteId;
    use cvc_reduce::client::Client;
    use cvc_reduce::core::NotifierCore;
    use cvc_reduce::msg::ServerOpMsg;

    let mut core = NotifierCore::new(Notifier::new(2, "seed"), Some(Wal::new(2)), None);
    let mut clients = [
        Client::new(SiteId(1), "seed"),
        Client::new(SiteId(2), "seed"),
    ];
    let mut down: [Vec<ServerOpMsg>; 2] = Default::default();
    for k in 0..6u64 {
        for i in [1, 0] {
            for m in std::mem::take(&mut down[i]) {
                clients[i]
                    .try_on_server_op(m)
                    .expect("a FIFO stream applies");
            }
            if i == 1 && k % 2 == 0 {
                continue;
            }
            let c = &mut clients[i];
            let at = (seed + k) % (c.doc_len() as u64 + 1);
            let op = c.insert(at as usize, ["ab", "c"][i]);
            let out = core.integrate_op(op.origin, op).expect("an honest op");
            for (dest, m) in out.broadcast_msgs() {
                down[dest.client_index()].push(m);
            }
        }
    }
    let image = core.wal().expect("durable").bytes().to_vec();
    let rec = Wal::recover(&image).expect("intact log");
    let snapshot = rec.snapshot.expect("the log was cut");
    assert!(!snapshot.history().is_empty(), "cut with history in flight");
    image
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash-anywhere, byte-granular: a log truncated at ANY boundary
    /// recovers cleanly — the cut lands either between records (full
    /// recovery) or inside the last one (torn tail, dropped and
    /// reported). Never an error, never a panic.
    #[test]
    fn wal_truncated_at_every_byte_boundary_recovers(seed in 0u64..1_000) {
        let image = session_wal_image(seed);
        let whole = Wal::recover(&image).expect("intact log");
        prop_assert_eq!(whole.torn_bytes, 0);
        prop_assert!(whole.records > 0);
        for cut in 0..=image.len() {
            let rec = Wal::recover(&image[..cut])
                .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            prop_assert!(
                rec.records <= whole.records,
                "cut at {cut} recovered extra records"
            );
            // Whatever recovered must replay without panicking.
            let _ = rec.restore(2, "");
        }
    }

    /// One parser, two drivers: at every cut of a log image, the socket's
    /// `FrameReader` fed `image[..cut]` in seeded random chunks yields
    /// exactly the records `Wal::recover` returns for that cut, each
    /// payload decoding (with no bytes left over) to the record at its
    /// index. Over the whole image this pins that the log *is* a frame
    /// stream a standby could tail over a socket.
    #[test]
    fn wal_is_a_frame_stream_at_every_cut(seed in 0u64..1_000) {
        let image = session_wal_image(seed);
        let mut rng = SmallRng::seed_from_u64(seed);
        for cut in 0..=image.len() {
            let rec = Wal::recover(&image[..cut])
                .unwrap_or_else(|e| panic!("cut at {cut}: {e}"));
            let mut reader = FrameReader::new();
            let mut payloads = Vec::new();
            let mut fed = 0;
            while fed < cut {
                let n = rng.gen_range(1..=(cut - fed).min(16));
                reader.extend(&image[fed..fed + n]);
                fed += n;
                while let Some(p) = reader.next_frame().expect("a prefix is never malformed") {
                    payloads.push(p);
                }
            }
            prop_assert_eq!(payloads.len() as u64, rec.records, "cut at {}", cut);
            prop_assert_eq!(reader.buffered(), rec.torn_bytes, "cut at {}", cut);
            // The snapshot frame is the recovered notifier's own bytes.
            let skip = usize::from(rec.snapshot.is_some());
            if let Some(s) = &rec.snapshot {
                prop_assert_eq!(&payloads[0][1..], &snapshot_bytes(s)[..], "cut at {}", cut);
            }
            for (i, p) in payloads.iter().enumerate().skip(skip) {
                let mut body = &p[..];
                let decoded = WalRecord::decode(&mut body).expect("payload decodes");
                prop_assert!(body.is_empty(), "cut at {}: trailing bytes in frame {}", cut, i);
                prop_assert_eq!(&decoded, &rec.tail[i - skip], "cut at {}, frame {}", cut, i);
            }
        }
    }

    /// Single-byte corruption anywhere in the log: recovery returns a
    /// clean (possibly torn-tail) result or a typed [`WalError`] — and if
    /// it recovers, the replay is total too.
    #[test]
    fn wal_single_byte_corruption_is_total(
        seed in 0u64..1_000,
        pos in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let mut image = session_wal_image(seed);
        let at = pos % image.len();
        image[at] ^= flip;
        match Wal::recover(&image) {
            Ok(rec) => {
                let _ = rec.restore(2, "");
            }
            Err(e) => {
                // Typed, nameable, displayable — the registry counters
                // and log lines depend on this shape.
                prop_assert!(e.kind_name().starts_with("wal-"));
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }

    /// Random bytes are not a log: recovery must stay total on pure noise
    /// (it may legally parse a prefix and call the rest a torn tail).
    #[test]
    fn wal_recover_is_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(rec) = Wal::recover(&bytes) {
            let _ = rec.restore(3, "seed");
        }
    }

    /// A snapshot a notifier cut, with the records after it, keeps the
    /// same contract in a corrupted log: recovery is total, and a
    /// recovered snapshot is a notifier that writes back what it read.
    #[test]
    fn wal_with_snapshot_survives_corruption(
        pos in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let mut bytes = session_wal_image(7);
        let at = pos % bytes.len();
        bytes[at] ^= flip;
        match Wal::recover(&bytes) {
            Ok(rec) => {
                if let Some(s) = &rec.snapshot {
                    let written = snapshot_bytes(s);
                    let mut buf = &written[..];
                    let again = Notifier::read_checkpoint(&mut buf).expect("its own bytes");
                    prop_assert_eq!(snapshot_bytes(&again), written);
                }
                let _ = rec.restore(2, "");
            }
            Err(e) => prop_assert!(e.kind_name().starts_with("wal-")),
        }
    }
}
