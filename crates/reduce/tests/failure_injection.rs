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
//!    session's log at *every* byte boundary, or flipping any single
//!    byte, yields a clean replay or a typed [`WalError`] — never a
//!    panic, never silent divergence.
//!    The log is a frame stream: the socket's incremental `FrameReader`,
//!    fed any cut of it in random chunks, yields exactly the records
//!    `Wal::recover` does.
//! 3. **Stale-primary fencing** — zombie frames from the dead
//!    incarnation (retransmissions, duplicates, reorders straddling the
//!    crash) are discarded by the promoted notifier's fence, not
//!    mis-sequenced into its fresh links.

use cvc_reduce::frame::FrameReader;
use cvc_reduce::reliable::{run_robust_session, CrashPoint, NotifierCrash};
use cvc_reduce::session::{Deployment, FailoverReport, SessionConfig};
use cvc_reduce::wal::{Wal, WalRecord, WalSnapshot};
use cvc_sim::fault::FaultPlan;
use cvc_sim::wire::WireDecode;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn crash_cfg(n: usize, seed: u64, at_op: u64, point: CrashPoint) -> SessionConfig {
    let mut cfg = SessionConfig::small(Deployment::StarCvc, n, seed);
    cfg.reliable = true;
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
                let r = run_robust_session(&cfg);
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

/// Zombie traffic from the dead incarnation — retransmissions of
/// pre-crash frames, network duplicates, reordered stragglers — hits the
/// promoted notifier's fence and is discarded, never mis-sequenced. The
/// fence only opens for a bumped-epoch resync.
#[test]
fn stale_primary_frames_are_fenced_not_resequenced() {
    for point in [CrashPoint::MidBroadcast, CrashPoint::AfterSend] {
        let mut cfg = crash_cfg(5, 0x2B1E, 9, point);
        // Duplicates and reorder keep dead-epoch frames arriving well
        // after the promotion.
        cfg.fault_plan = Some(FaultPlan {
            duplicate: 0.2,
            reorder: 0.2,
            reorder_extra_us: 150_000,
            ..FaultPlan::NONE
        });
        let r = run_robust_session(&cfg);
        assert!(r.converged, "{point:?}: {:?}", r.final_docs);
        let fo = r.failover.as_ref().expect("crash fired");
        assert_recovered(fo, 5, point.name());
        assert!(
            fo.fenced_drops > 0,
            "{point:?}: the fence never had to discard a zombie frame"
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
    let r = run_robust_session(&cfg);
    assert!(r.converged, "{:?}", r.final_docs);
    assert_recovered(r.failover.as_ref().expect("crash fired"), 4, "compound");
}

/// Build a realistic log image: run a crash-free standby session and
/// return its failover twin's WAL bytes. Falls back to a small
/// hand-rolled log; either way the image has several records.
fn session_wal_image(seed: u64) -> Vec<u8> {
    use cvc_core::site::SiteId;
    use cvc_core::state_vector::CompressedStamp;
    use cvc_ot::pos::PosOp;
    use cvc_ot::seq::SeqOp;
    use cvc_reduce::msg::{ClientAckMsg, ClientOpMsg};

    // The in-sim WAL is not exported by SessionReport (only its counters
    // are), so build the image the same way the notifier does: append the
    // input stream of a deterministic two-client exchange.
    let mut wal = Wal::new(0);
    let texts = ["ab", "c", "def", "g", "hi"];
    for (k, text) in texts.iter().enumerate() {
        let t = (seed % 3) + k as u64;
        wal.append(&WalRecord::Op(ClientOpMsg {
            origin: SiteId(1 + (k as u32 % 2)),
            stamp: CompressedStamp::new(t, t + 1),
            op: SeqOp::from_pos(&PosOp::insert(k, *text), 8 + k + text.len()),
            cursor: (k % 2 == 0).then_some(k as u64),
        }));
        wal.append(&WalRecord::Ack(ClientAckMsg {
            origin: SiteId(2 - (k as u32 % 2)),
            received: k as u64 + 1,
        }));
    }
    wal.bytes().to_vec()
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
            for (i, p) in payloads.iter().enumerate() {
                let mut body = &p[..];
                let decoded = WalRecord::decode(&mut body).expect("payload decodes");
                prop_assert!(body.is_empty(), "cut at {}: trailing bytes in frame {}", cut, i);
                prop_assert_eq!(&decoded, &rec.tail[i], "cut at {}, frame {}", cut, i);
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

    /// Snapshot records embedded in a corrupted log keep the same
    /// contract: recovery is total, and a recovered snapshot restores.
    #[test]
    fn wal_with_snapshot_survives_corruption(
        pos in 0usize..4096,
        flip in 1u8..=255,
    ) {
        let mut wal = Wal::new(0);
        let image = session_wal_image(7);
        let base = Wal::recover(&image).expect("base log");
        wal.append(&WalRecord::Snapshot(WalSnapshot {
            doc: "checkpointed".into(),
            clients: Vec::new(),
        }));
        for rec in &base.tail {
            wal.append(rec);
        }
        let mut bytes = wal.bytes().to_vec();
        let at = pos % bytes.len();
        bytes[at] ^= flip;
        match Wal::recover(&bytes) {
            Ok(rec) => {
                if let Some(s) = &rec.snapshot {
                    let _ = s.restore();
                }
                let _ = rec.restore(2, "");
            }
            Err(e) => prop_assert!(e.kind_name().starts_with("wal-")),
        }
    }
}
