//! The durable notifier's two end-to-end checks that no search covers.
//! That the log alone rebuilds the live notifier after every input —
//! honest ops, courtesy acks, hostile messages and the evictions they
//! cost, snapshots cut with history in flight — is checked at every state
//! of `verify::explore_checked`'s scopes (`star_exhaustive`), and the
//! ack-frontier window by `core`'s unit tests. What stays here:
//!
//! 1. **Differential**: the simulator's node is a thin driver — the input
//!    stream a traced standby session captured at its notifier, replayed
//!    through a bare core, yields a byte-identical log image.
//! 2. **Crash at every prefix**: a short scripted standby star, crashed
//!    ([`StarWorld::crash`]) after each prefix of its script, recovers
//!    through the hello and answer actions to the document the uncrashed
//!    prefix drains to, and the promoted notifier is what a cold standby
//!    rebuilds from the log image (cold = warm = live) — mostly from a
//!    snapshot cut with history in flight. Every move of the script, the
//!    drains and the catch-ups goes through `verify::step`, and the star
//!    audit finds nothing.

use cvc_core::site::SiteId;
use cvc_reduce::audit::StarAudit;
use cvc_reduce::core::NotifierCore;
use cvc_reduce::hub::Step;
use cvc_reduce::notifier::{Notifier, ScanMode};
use cvc_reduce::reliable::{run_robust_session_traced, CrashPoint, DisconnectSpec};
use cvc_reduce::session::{Deployment, SessionConfig};
use cvc_reduce::standby::Standby;
use cvc_reduce::verify::step;
use cvc_reduce::wal::{Wal, DEFAULT_COMPACT_EVERY};
use cvc_reduce::world::{Move, StarWorld};
use cvc_sim::fault::FaultPlan;
use cvc_sim::time::{SimDuration, SimTime};

const INITIAL: &str = "seed";

/// The sim node adds nothing to the durable pipeline: replaying the input
/// stream it captured (ops, bare acks and hellos, in integration order)
/// through a bare core reproduces its log byte for byte — on clean and
/// lossy links.
#[test]
fn traced_session_replayed_through_a_bare_core_yields_the_same_log() {
    for (seed, lossy) in [(5u64, false), (11, true), (23, true)] {
        let n = 4;
        let mut cfg = SessionConfig::small(Deployment::StarCvc, n, seed);
        cfg.standby = true;
        // An outage, so the captured stream carries a hello's frontier
        // (every site edits throughout, so none owes a bare ack).
        cfg.disconnects = vec![DisconnectSpec {
            client: 1,
            at: SimTime::from_millis(300),
            down: SimDuration::from_millis(600),
        }];
        if lossy {
            cfg.fault_plan = Some(FaultPlan {
                drop: 0.05,
                duplicate: 0.05,
                ..FaultPlan::NONE
            });
        }
        let (report, trace) = run_robust_session_traced(&cfg);
        assert!(report.converged);
        assert!(!trace.wal_image.is_empty() && !trace.notifier_acks.is_empty());

        let mut notifier = Notifier::new(n, &cfg.initial_doc);
        notifier.set_scan_mode(cfg.notifier_scan);
        notifier.set_auto_gc(cfg.auto_gc);
        let mut core = NotifierCore::new(notifier, Some(Wal::new(DEFAULT_COMPACT_EVERY)), None);
        let mut acks = trace.notifier_acks.iter().peekable();
        for (k, step) in trace.notifier.iter().enumerate() {
            while let Some((_, ack)) = acks.next_if(|(before, _)| *before <= k) {
                core.integrate_ack(ack.origin, *ack)
                    .expect("captured ack replays");
            }
            core.integrate_op(step.msg.origin, step.msg.clone())
                .expect("captured op replays");
        }
        for (_, ack) in acks {
            core.integrate_ack(ack.origin, *ack)
                .expect("captured ack replays");
        }
        assert_eq!(core.notifier().doc(), report.final_doc);
        assert_eq!(
            core.wal().expect("durable").bytes(),
            trace.wal_image.as_slice(),
            "bare core and sim node disagree on the log (seed {seed}, lossy {lossy})"
        );
    }
}

/// `m` through `verify::step`, fed to `audit`, which finds nothing: an
/// edit — site 1 types at the front, the others at the end — a delivery
/// up, or one down, after which the replica collects and owes its bare
/// ack.
fn play(w: &mut StarWorld, audit: &mut StarAudit, m: Move) {
    let user = |w: &mut StarWorld, s: SiteId| {
        let text = ["a", "b", "c"][s.client_index()];
        let front = s == SiteId(1);
        w.edit(s, |c| {
            Ok(c.insert(if front { 0 } else { c.doc_len() }, text))
        })
        .map(Some)
    };
    let stepped = step(w, audit, m, user).expect("an honest move is valid");
    let found = stepped.map_or(Ok(Vec::new()), |(_, found)| found);
    assert_eq!(found, Ok(Vec::new()), "{m:?}");
    if let Move::Down(s) = m {
        w.gc(s).expect("a member");
        w.take_pending_ack(s);
    }
}

/// Deliver everything queued, up and down, until the star is quiet.
fn drain(mut w: StarWorld, mut audit: StarAudit) -> StarWorld {
    while let Some(&m) = w.moves(&[0; 3]).first() {
        play(&mut w, &mut audit, m);
    }
    w
}

/// ROADMAP 1(b)'s crash action, checked over prefixes instead of seeds:
/// 3 sites and 6 edits with deliveries interleaved, crashed after every
/// prefix. Each site says hello — again, exactly, only when its hello
/// was trimmed and the answer shows its frontier was held back too far;
/// a bound hello was served, so it is never followed by a second — and
/// the drained star converges to the document the uncrashed prefix
/// drains to.
#[test]
fn a_crash_after_every_prefix_recovers_the_uncrashed_document() {
    let n = 3;
    let mut notifier = Notifier::new(n, INITIAL);
    notifier.set_auto_gc(true);
    let mut standby = Standby::new(n, INITIAL, ScanMode::SuffixBounded);
    standby.set_auto_gc(true);
    // A two-op cadence, so the cold standby mostly restores from a
    // snapshot cut with history in flight.
    let wal = Some(Wal::new(2));
    let mut world = StarWorld::new(NotifierCore::new(notifier, wal, Some(standby)));
    let script = "e1 e2 u1 e3 d2 u2 d1 d3 e1 u3 d2 u1 e2 d3 d1 u2 d3 d1 e3 u3";
    let moves: Vec<Move> = script
        .split(' ')
        .map(|m| {
            let site = SiteId(u32::from(m.as_bytes()[1] - b'0'));
            match m.as_bytes()[0] {
                b'e' => Move::Edit(site),
                b'u' => Move::Up(site),
                _ => Move::Down(site),
            }
        })
        .collect();
    assert_eq!(
        moves.iter().filter(|m| matches!(m, Move::Edit(_))).count(),
        6
    );
    let (mut bound_first, mut again_after_bound, mut busy_images) = (0, 0, 0);
    let mut audit = StarAudit::default();
    for k in 0..=moves.len() {
        let uncrashed = drain(world.clone(), audit.clone());
        let expected = uncrashed.notifier().doc();
        assert!(uncrashed.clients().all(|c| c.doc() == expected));

        let (mut w, mut a) = (world.clone(), audit.clone());
        let (live_sum, live_sv) = (
            w.notifier().doc_checksum(),
            w.notifier().state_vector().clone(),
        );
        w.crash(CrashPoint::AfterSend)
            .expect("the star runs a standby")
            .expect("the mirrored log was clean");
        // cold = warm = live: the promoted standby and a standby rebuilt
        // cold from the log image are both the dead primary.
        let image = w.hub().core().wal().expect("durable").bytes();
        let snapshot = Wal::recover(image).expect("log scans").snapshot;
        busy_images += usize::from(snapshot.is_some_and(|s| !s.history().is_empty()));
        let cold = Standby::from_log(image, n, INITIAL).expect("log scans");
        let cold = cold.promote().expect("unpoisoned standby promotes");
        for promoted in [w.notifier(), &cold] {
            assert_eq!(promoted.doc_checksum(), live_sum, "prefix {k}");
            assert_eq!(promoted.state_vector(), &live_sv, "prefix {k}");
        }
        for i in 0..n {
            let site = SiteId::from_client_index(i);
            for hello in 0.. {
                assert!(hello < 2, "prefix {k}: {site} was not served");
                // Each hello rides a new connection: the channel closes
                // under it, the crash's close first.
                w.close(i);
                let said = w.hello(site, i).expect("a member");
                assert!(
                    matches!(said, Step::Bound(_) | Step::Trimmed(_)),
                    "{said:?}"
                );
                while w.queued(site).1 > 0 {
                    let down = step(&mut w, &mut a, Move::Down(site), |_, _| Ok(None));
                    let found = down.expect("a catch-up applies or repeats");
                    assert_eq!(found.map_or(Ok(Vec::new()), |(_, f)| f), Ok(Vec::new()));
                }
                let integrated = w.notifier().state_vector().received_from(site);
                let again = w.answer(site, integrated.expect("a member"));
                let again = again.expect("a member").is_some();
                if hello == 0 && matches!(said, Step::Bound(_)) {
                    bound_first += 1;
                    again_after_bound += usize::from(again);
                }
                if !again {
                    break;
                }
            }
        }
        let w = drain(w, a);
        assert_eq!(w.notifier().doc(), expected, "prefix {k}");
        assert!(w.clients().all(|c| c.doc() == expected), "prefix {k}");
        if let Some(&m) = moves.get(k) {
            play(&mut world, &mut audit, m);
        }
    }
    assert!(bound_first > 0 && busy_images > 0);
    assert_eq!(again_after_bound, 0, "a bound hello was said again");
}
