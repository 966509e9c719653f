//! Chaos harness: faulty links + reliability layer vs. a ground-truth
//! oracle.
//!
//! Three legs:
//!
//! 1. **Masking** (proptest + fixed-seed smoke): under seeded
//!    drop/duplicate/reorder/corrupt/flap plans and scheduled client
//!    outages, a robust session must converge, and a *twin replay* of its
//!    recorded trace on a fault-free in-process network must reproduce
//!    every formula-(5)/(7) verdict bit-for-bit — each of which must also
//!    agree with the Definition-1 oracle, through a [`StarAudit`]. In
//!    other words, the reliability layer makes the faulty network
//!    observationally identical to the paper's assumed FIFO transport.
//! 2. **Detection**: with the reliability layer *off*, the same fault
//!    classes must be caught by the protocol's FIFO/ack checks as
//!    [`ProtocolError`]s — never silently mis-integrated.
//! 3. A fixed-seed smoke variant of (1) for CI.

use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use cvc_ot::seq::SeqOp;
use cvc_reduce::audit::StarAudit;
use cvc_reduce::client::Client;
use cvc_reduce::error::ProtocolError;
use cvc_reduce::msg::{ClientOpMsg, EditorMsg, ServerOpMsg};
use cvc_reduce::notifier::Notifier;
use cvc_reduce::relay::{run_federation, FederationConfig, RelayFaultPlan};
use cvc_reduce::reliable::{
    run_robust_session, run_robust_session_traced, ClientEvent, CrashPoint, DisconnectSpec,
    NotifierCrash, SessionTrace,
};
use cvc_reduce::session::{ClientMode, Deployment, SessionConfig, SessionReport};
use cvc_reduce::workload::{EditIntent, ScheduledEdit};
use cvc_sim::fault::{FaultPlan, FlapSpec};
use cvc_sim::sim::{Ctx, Node, NodeId, Simulator};
use cvc_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Replay a recorded robust-session trace on a perfect in-process network
/// and audit every concurrency verdict against the oracle, the recording,
/// and the live run's final state.
fn replay_and_audit(cfg: &SessionConfig, trace: &SessionTrace, live: &SessionReport) {
    let n = cfg.workload.n_sites;
    let mut audit = StarAudit::default();
    let mut notifier = Notifier::new(n, &cfg.initial_doc);
    notifier.set_scan_mode(cfg.notifier_scan);
    let mut clients: Vec<Client> = (1..=n)
        .map(|i| {
            let mut c = Client::new(SiteId(i as u32), &cfg.initial_doc);
            c.set_share_caret(cfg.share_carets);
            c
        })
        .collect();

    // Replay cursors and in-flight queues. The recorded per-node orders
    // are the schedule; the queues enforce generation-before-integration
    // and broadcast-before-execution, which makes the merged order a
    // valid linearization of the live run.
    let mut ns = 0usize; // next notifier step
    let mut ci = vec![0usize; n]; // next client event
    let mut up: Vec<VecDeque<ClientOpMsg>> = vec![VecDeque::new(); n];
    let mut down: Vec<VecDeque<ServerOpMsg>> = vec![VecDeque::new(); n];

    loop {
        let mut progressed = false;

        // Client events first: Local generations are always enabled and
        // unblock notifier steps.
        for i in 0..n {
            while ci[i] < trace.clients[i].len() {
                match &trace.clients[i][ci[i]] {
                    ClientEvent::Local(recorded) => {
                        let rebuilt = clients[i].local_edit(recorded.op.clone());
                        assert_eq!(
                            &rebuilt,
                            recorded,
                            "twin client {} rebuilt a different propagation message",
                            i + 1
                        );
                        audit.generate((SiteId(i as u32 + 1), rebuilt.stamp.get(2)));
                        up[i].push_back(rebuilt);
                    }
                    ClientEvent::Remote { msg, checked } => {
                        let Some(expected) = down[i].pop_front() else {
                            break; // blocked on a notifier step
                        };
                        assert_eq!(
                            msg,
                            &expected,
                            "client {} executed a message the notifier never sent it",
                            i + 1
                        );
                        let outcome = clients[i]
                            .try_on_server_op(expected)
                            .expect("valid server op");
                        assert_eq!(
                            &outcome.checked, checked,
                            "live formula-(5) verdicts differ from the fault-free twin"
                        );
                        let findings = audit
                            .client_integrated(&clients[i], &outcome)
                            .expect("every broadcast was generated and integrated");
                        assert!(
                            findings.is_empty(),
                            "client {}: formula (5) disagrees with the oracle: {findings:?}",
                            i + 1,
                        );
                    }
                }
                ci[i] += 1;
                progressed = true;
            }
        }

        // Notifier steps, in arrival order, gated on the origin having
        // generated the operation.
        while ns < trace.notifier.len() {
            let step = &trace.notifier[ns];
            let xi = step.msg.origin.client_index();
            let Some(queued) = up[xi].pop_front() else {
                break;
            };
            assert_eq!(
                queued, step.msg,
                "notifier integrated an op out of per-channel order"
            );
            let outcome = notifier
                .try_on_client_op_outcome(queued)
                .expect("valid client op");
            let verdicts = outcome.full_verdicts();
            assert_eq!(
                verdicts, step.verdicts,
                "live formula-(7) verdicts differ from the fault-free twin"
            );
            let findings = audit
                .notifier_integrated(&notifier, &outcome)
                .expect("every integrated op was generated");
            assert!(
                findings.is_empty(),
                "notifier: formula (7) disagrees with the oracle: {findings:?}"
            );
            assert_eq!(
                outcome.broadcast_msgs(),
                step.broadcasts,
                "twin notifier broadcast a different stream"
            );
            for (dest, smsg) in outcome.broadcast_msgs() {
                down[dest.client_index()].push_back(smsg);
            }
            ns += 1;
            progressed = true;
        }

        if !progressed {
            break;
        }
    }

    // Everything recorded must have replayed (the merge cannot deadlock on
    // a trace produced by an actual execution).
    assert_eq!(ns, trace.notifier.len(), "unreplayed notifier steps");
    for i in 0..n {
        assert_eq!(
            ci[i],
            trace.clients[i].len(),
            "unreplayed events at client {}",
            i + 1
        );
        assert!(
            down[i].is_empty(),
            "unexecuted broadcasts for client {}",
            i + 1
        );
        assert!(up[i].is_empty(), "unintegrated ops from client {}", i + 1);
    }

    // The twin's final state must equal the live run's, node for node
    // (live order: notifier first, then clients).
    assert_eq!(
        live.final_docs[0],
        notifier.doc(),
        "twin notifier document differs from the live run"
    );
    for (i, c) in clients.iter().enumerate() {
        assert_eq!(
            live.final_docs[1 + i],
            c.doc(),
            "twin client {} document differs from the live run",
            i + 1
        );
    }
}

fn chaos_cfg(
    n: usize,
    ops: usize,
    seed: u64,
    plan: FaultPlan,
    disconnects: Vec<DisconnectSpec>,
) -> SessionConfig {
    let mut cfg = SessionConfig::small(Deployment::StarCvc, n, seed);
    cfg.workload.ops_per_site = ops;
    cfg.client_mode = ClientMode::Streaming;
    cfg.reliable = true;
    cfg.fault_plan = Some(plan);
    cfg.disconnects = disconnects;
    // The twin replay compares verdict vectors entry-for-entry, which
    // requires the live history buffers to match the twin's exactly; GC
    // trims are ack-driven (arrival-timing dependent), so the audit legs
    // run with unbounded buffers. GC-on outages are covered separately by
    // `outage_resyncs_from_the_pinned_suffix_with_gc_on`.
    cfg.auto_gc = false;
    cfg
}

fn run_and_audit(cfg: &SessionConfig) -> SessionReport {
    let (report, trace) = run_robust_session_traced(cfg);
    assert!(
        report.converged,
        "robust session diverged: {:?}",
        report.final_docs
    );
    replay_and_audit(cfg, &trace, &report);
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seeded combination of drop/duplicate/reorder/corrupt faults
    /// (plus an optional mid-session outage of one client) is fully
    /// masked: the session converges and behaves verdict-for-verdict like
    /// a fault-free run of the same interleaving.
    #[test]
    fn faulty_links_are_fully_masked(
        n in 2usize..=5,
        ops in 4usize..=10,
        seed in 0u64..1_000,
        drop_p in 0.0f64..0.2,
        dup_p in 0.0f64..0.15,
        reorder_p in 0.0f64..0.15,
        corrupt_p in 0.0f64..0.1,
        outage in proptest::option::of((0usize..5, 200u64..900, 300u64..1_200)),
    ) {
        let plan = FaultPlan {
            drop: drop_p,
            duplicate: dup_p,
            reorder: reorder_p,
            reorder_extra_us: 60_000,
            corrupt: corrupt_p,
            ..FaultPlan::NONE
        };
        let disconnects = outage
            .into_iter()
            .map(|(c, at_ms, down_ms)| DisconnectSpec {
                client: c % n,
                at: SimTime::from_millis(at_ms),
                down: SimDuration::from_millis(down_ms),
            })
            .collect();
        run_and_audit(&chaos_cfg(n, ops, seed, plan, disconnects));
    }

    /// The failover chaos property: killing the primary notifier at a
    /// seeded operation count and crash point — optionally on a lossy
    /// network — is fully masked. The promoted standby's session still
    /// converges, every causal-readiness verdict matches the oracle, and
    /// the final documents equal a perfect-network twin replay of the
    /// same interleaving (the twin never crashes at all, so this also
    /// proves the crash leaked no operation and duplicated none).
    #[test]
    fn notifier_crash_is_fully_masked(
        n in 2usize..=5,
        ops in 4usize..=10,
        seed in 0u64..1_000,
        at_op_frac in 0.0f64..1.0,
        point_ix in 0usize..3,
        loss in 0.0f64..0.05,
    ) {
        let mut cfg = chaos_cfg(n, ops, seed, FaultPlan::lossy(loss), Vec::new());
        let total = (n * ops) as u64;
        // Anywhere from the very first integration to near the end of
        // the stream — late enough to always fire.
        let at_op = 1 + (at_op_frac * (total - 2) as f64) as u64;
        let point = [
            CrashPoint::BeforeSend,
            CrashPoint::MidBroadcast,
            CrashPoint::AfterSend,
        ][point_ix];
        cfg.standby = true;
        cfg.crash = Some(NotifierCrash { at_op, point });
        let report = run_and_audit(&cfg);
        let fo = report.failover.as_ref().expect("crash fired");
        prop_assert_eq!(fo.resynced_clients, n);
        prop_assert!(fo.recovered_at_us.is_some());
        prop_assert!(fo.standby_replay_ops >= 1);
    }
}

/// E18's structural claim, property-tested: on a lossy network behind
/// the reliability layer, the trace assembler stitches every generated
/// op into exactly one *complete* trace with monotone stage times —
/// retransmits delay stages but never split or orphan a trace.
/// (Quarantined offenders marking their traces truncated-not-dangling is
/// covered by `trace::tests::quarantined_origin_marks_traces_truncated`.)
mod traced_chaos {
    use super::*;
    use cvc_reduce::trace::TraceAssembler;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn traced_faulty_run_assembles_every_op_exactly_once(
            n in 2usize..=5,
            ops in 4usize..=10,
            seed in 0u64..1_000,
            loss in 0.0f64..0.1,
        ) {
            // The E15 fault-plan shape: duplicate and reorder ride along
            // at half the drop rate.
            let plan = FaultPlan {
                drop: loss,
                duplicate: loss / 2.0,
                reorder: loss / 2.0,
                reorder_extra_us: 50_000,
                ..FaultPlan::NONE
            };
            let mut cfg = chaos_cfg(n, ops, seed, plan, Vec::new());
            cfg.flight_recorder = true;
            // chaos_cfg runs without GC, so formula-(5) checks (and the
            // Transform events recording them) grow quadratically in the
            // op total — size the rings to that bound so nothing wraps.
            let total = n * ops;
            cfg.flight_recorder_capacity = 2 * total * total + 12 * total + 256;
            let report = run_robust_session(&cfg);
            prop_assert!(report.converged);
            let set = TraceAssembler::assemble(&report.flight_traces);
            let expected: u64 = report
                .client_metrics
                .iter()
                .map(|m| m.ops_generated)
                .sum();
            prop_assert_eq!(set.traces.len() as u64, expected);
            let mut seen = std::collections::BTreeSet::new();
            for t in &set.traces {
                prop_assert!(seen.insert(t.op), "duplicate trace for {:?}", t.op);
                prop_assert!(t.complete(), "incomplete trace {:?}", t.op);
                prop_assert!(t.monotone(), "non-monotone stages: {:?}", t);
                prop_assert!(t.convergence_us().is_some());
            }
            prop_assert!(set.dangling().is_empty());
            prop_assert!(set.quarantined.is_empty());
            prop_assert!(set.truncated_inputs.is_empty());
        }
    }
}

/// Deterministic CI smoke: one moderately nasty plan (all fault classes
/// at once, plus a flap and two outages) through the full oracle audit.
#[test]
fn fixed_seed_chaos_smoke() {
    let plan = FaultPlan {
        drop: 0.08,
        duplicate: 0.05,
        reorder: 0.05,
        reorder_extra_us: 50_000,
        corrupt: 0.04,
        delay_spike: 0.03,
        spike_us: 120_000,
        flap: Some(FlapSpec {
            period_us: 900_000,
            down_us: 150_000,
            offset_us: 300_000,
        }),
    };
    let disconnects = vec![
        DisconnectSpec {
            client: 1,
            at: SimTime::from_millis(350),
            down: SimDuration::from_millis(700),
        },
        DisconnectSpec {
            client: 3,
            at: SimTime::from_millis(500),
            down: SimDuration::from_millis(400),
        },
    ];
    let cfg = chaos_cfg(4, 14, 0xC4A05, plan, disconnects);
    let report = run_and_audit(&cfg);
    let total = report.total_metrics();
    assert!(total.retransmits > 0, "the plan must actually bite");
    assert!(total.resyncs >= 4, "both outages must resync");
    assert!(report.fault_stats.dropped > 0);
}

/// With ack-driven GC on (the default), a mid-session outage must still
/// resync purely from the history buffer: the disconnected client's
/// frozen `acked_by` watermark pins the trim, so the replay suffix is
/// intact when it returns — while the other clients' (piggybacked and
/// bare) acks keep everything else collectable.
#[test]
fn outage_resyncs_from_the_pinned_suffix_with_gc_on() {
    let mut cfg = SessionConfig::small(Deployment::StarCvc, 4, 0xBACC);
    cfg.workload.ops_per_site = 30;
    cfg.client_mode = ClientMode::Streaming;
    cfg.reliable = true;
    cfg.disconnects = vec![DisconnectSpec {
        client: 2,
        at: SimTime::from_millis(300),
        down: SimDuration::from_millis(1500),
    }];
    assert!(cfg.auto_gc, "GC-on is the default under test");
    let report = run_robust_session(&cfg);
    assert!(report.converged, "diverged: {:?}", report.final_docs);
    let total = report.total_metrics();
    assert!(total.resyncs >= 2, "the outage must complete a resync");
    assert!(
        total.resync_replayed > 0,
        "the rejoin must be served from the pinned history suffix"
    );
    // The collector kept working around the frozen watermark: the buffer
    // never held the whole session's operation stream.
    let integrated = 4 * 30;
    assert!(
        total.hb_high_water < integrated,
        "hb high water {} should stay below the {} ops integrated",
        total.hb_high_water,
        integrated
    );
}

/// A client restored from a stale backup presents a `received` below its
/// own earlier acknowledgement. The prefix it needs is gone — GC trimmed
/// past it on the strength of that very ack — so replay must fail with
/// the *typed* [`ProtocolError::ReplayTrimmed`] and the full-state resync
/// must rebuild the replica, never a silent divergence.
#[test]
fn stale_backup_falls_back_to_full_state_resync() {
    let initial = "shared";
    let mut notifier = Notifier::new(2, initial);
    notifier.set_auto_gc(true);
    let mut c1 = Client::new(SiteId(1), initial);
    let mut c2 = Client::new(SiteId(2), initial);

    // One acknowledged edit so the backup is meaningfully stale.
    let m = c1.insert(0, "a");
    for (dest, sm) in notifier
        .try_on_client_op_outcome(m)
        .expect("valid client op")
        .broadcast_msgs()
    {
        assert_eq!(dest, SiteId(2));
        c2.try_on_server_op(sm).expect("valid server op");
    }
    let backup = c1.clone(); // received = 0: predates all of c2's traffic

    // Heavy one-sided traffic: c1 stays quiet but acks periodically, so
    // the collector trims the broadcast prefix the backup would need.
    for _ in 0..20 {
        let m = c2.insert(0, "x");
        for (dest, sm) in notifier
            .try_on_client_op_outcome(m)
            .expect("valid client op")
            .broadcast_msgs()
        {
            assert_eq!(dest, SiteId(1));
            c1.try_on_server_op(sm).expect("valid server op");
            if let Some(a) = c1.take_pending_ack() {
                notifier.try_on_client_ack(a).expect("valid client ack");
            }
        }
    }

    // The live c1 now "crashes"; the restored backup asks for a replay.
    let stale_received = backup.state_vector().received();
    let err = notifier.replay_for(SiteId(1), stale_received).unwrap_err();
    assert!(
        matches!(err, ProtocolError::ReplayTrimmed { site, .. } if site == SiteId(1)),
        "expected ReplayTrimmed, got {err:?}"
    );

    // Full-state fallback: adopt the notifier's snapshot wholesale.
    let (doc, sent, recvd) = notifier
        .resync_snapshot_for(SiteId(1))
        .expect("site 1 is a member");
    let mut restored = backup;
    restored.adopt_snapshot(&doc, sent, recvd);
    assert_eq!(restored.doc(), notifier.doc());

    // The session continues seamlessly in both directions.
    let m = c2.insert(0, "y");
    for (_, sm) in notifier
        .try_on_client_op_outcome(m)
        .expect("valid client op")
        .broadcast_msgs()
    {
        restored.try_on_server_op(sm).expect("valid server op");
    }
    let m = restored.insert(0, "z");
    for (_, sm) in notifier
        .try_on_client_op_outcome(m)
        .expect("valid client op")
        .broadcast_msgs()
    {
        c2.try_on_server_op(sm).expect("valid server op");
    }
    assert_eq!(restored.doc(), notifier.doc());
    assert_eq!(c2.doc(), notifier.doc());
}

/// Integrate one honest client edit and fan its broadcasts out to the
/// surviving clients. Asserts the broadcast stream never targets an
/// evicted site — the quarantine must actually stop traffic, not just
/// reject inbound frames.
fn pump_honest(
    notifier: &mut Notifier,
    survivors: &mut [&mut Client],
    msg: ClientOpMsg,
    evicted: Option<SiteId>,
) {
    let out = notifier
        .try_on_client_op_outcome(msg)
        .expect("honest edits must keep integrating after an eviction");
    for (dest, sm) in out.broadcast_msgs() {
        if let Some(bad) = evicted {
            assert_ne!(dest, bad, "broadcast targeted the quarantined site");
        }
        // Sites outside `survivors` (the hostile one, pre-eviction) are
        // legitimate broadcast targets that simply never respond.
        if let Some(c) = survivors.iter_mut().find(|c| c.site() == dest) {
            c.try_on_server_op(sm).expect("valid server op");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The eviction path end to end: a hostile frame — any stamp claiming
    /// a generation counter ≥ 2 on first contact — is rejected as a typed
    /// [`ProtocolError::FifoViolation`] (never a panic), the offender is
    /// quarantined, its next frame bounces as `DepartedSite`, no further
    /// broadcast targets it, and the surviving clients still converge
    /// byte-for-byte with the notifier.
    #[test]
    fn hostile_client_is_evicted_and_survivors_converge(
        t1 in 0u64..1_000,
        t2 in 2u64..1_000,
        pre in 1usize..5,
        post in 1usize..5,
    ) {
        let initial = "shared";
        let mut notifier = Notifier::new(3, initial);
        let mut c1 = Client::new(SiteId(1), initial);
        let mut c2 = Client::new(SiteId(2), initial);

        // A healthy warm-up phase: both survivors edit and stay in sync.
        for k in 0..pre {
            let m1 = c1.insert(0, "a");
            pump_honest(&mut notifier, &mut [&mut c1, &mut c2], m1, None);
            let m2 = c2.insert(k % c2.doc_len().max(1), "b");
            pump_honest(&mut notifier, &mut [&mut c1, &mut c2], m2, None);
        }

        // First contact from site 3 with an impossible stamp: its own
        // generation counter says t2, the notifier expects exactly 1. The
        // FIFO check fires before any payload validation, so this is a
        // deterministic, typed rejection.
        let mut op = SeqOp::new();
        op.insert("!");
        let hostile = ClientOpMsg {
            origin: SiteId(3),
            stamp: CompressedStamp::new(t1, t2),
            op: op.clone(),
            cursor: None,
        };
        let err = notifier
            .try_on_client_op_outcome(hostile)
            .expect_err("a first-contact stamp with counter >= 2 must be rejected");
        prop_assert!(
            matches!(err, ProtocolError::FifoViolation { site, .. } if site == SiteId(3)),
            "expected FifoViolation from site 3, got {err:?}"
        );
        notifier.quarantine(SiteId(3)).expect("site 3 was a member");

        // The evicted site's next frame — even a well-formed one — bounces.
        let again = ClientOpMsg {
            origin: SiteId(3),
            stamp: CompressedStamp::new(0, 1),
            op,
            cursor: None,
        };
        let err = notifier
            .try_on_client_op_outcome(again)
            .expect_err("a quarantined site must stay rejected");
        prop_assert!(
            matches!(err, ProtocolError::DepartedSite { site } if site == SiteId(3)),
            "expected DepartedSite for site 3, got {err:?}"
        );

        // Service continues for everyone else, with site 3 cut out of the
        // broadcast fan-out entirely.
        for _ in 0..post {
            let m1 = c1.insert(0, "c");
            pump_honest(&mut notifier, &mut [&mut c1, &mut c2], m1, Some(SiteId(3)));
            let m2 = c2.insert(c2.doc_len(), "d");
            pump_honest(&mut notifier, &mut [&mut c1, &mut c2], m2, Some(SiteId(3)));
        }

        prop_assert_eq!(c1.doc(), notifier.doc());
        prop_assert_eq!(c2.doc(), notifier.doc());
    }
}

// ---------------------------------------------------------------------
// Detection leg: the same faults without the reliability layer must be
// *caught*, not silently mis-ordered.
// ---------------------------------------------------------------------

/// Star nodes that integrate via the fallible entry points and count
/// protocol errors instead of panicking.
enum TolerantNode {
    Notifier {
        inner: Box<Notifier>,
        errors: Vec<ProtocolError>,
    },
    Client {
        inner: Box<Client>,
        script: Vec<ScheduledEdit>,
        errors: Vec<ProtocolError>,
    },
}

impl Node<EditorMsg> for TolerantNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_, EditorMsg>, _from: NodeId, msg: EditorMsg) {
        match (self, msg) {
            (TolerantNode::Notifier { inner, errors }, EditorMsg::ClientOp(m)) => {
                match inner.try_on_client_op_outcome(m) {
                    Ok(out) => {
                        for (dest, smsg) in out.broadcast_msgs() {
                            ctx.send(dest.0 as usize, EditorMsg::ServerOp(smsg));
                        }
                    }
                    Err(e) => errors.push(e),
                }
            }
            (TolerantNode::Client { inner, errors, .. }, EditorMsg::ServerOp(m)) => {
                if let Err(e) = inner.try_on_server_op(m) {
                    errors.push(e);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, EditorMsg>, tag: u64) {
        let TolerantNode::Client { inner, script, .. } = self else {
            return;
        };
        let edit = script[tag as usize].clone();
        let len = inner.doc_len();
        let msg = match &edit.intent {
            EditIntent::InsertChar { ch, .. } => {
                let pos = edit.intent.position(len).expect("insert applies");
                Some(inner.insert(pos, &ch.to_string()))
            }
            EditIntent::InsertText { text, .. } => {
                let pos = edit.intent.position(len).expect("insert applies");
                Some(inner.insert(pos, text))
            }
            EditIntent::DeleteChar { .. } => {
                edit.intent.position(len).map(|pos| inner.delete(pos, 1))
            }
            EditIntent::Undo => inner.undo_last_local(),
        };
        if let Some(m) = msg {
            ctx.send(0, EditorMsg::ClientOp(m));
        }
    }
}

fn run_tolerant_unreliable(n: usize, seed: u64, plan: FaultPlan) -> Vec<ProtocolError> {
    let cfg = SessionConfig::small(Deployment::StarCvc, n, seed);
    let scripts = cfg.workload.generate();
    let mut sim: Simulator<EditorMsg, TolerantNode> = Simulator::new(cfg.latency, cfg.net_seed);
    sim.set_default_fault_plan(plan);
    sim.add_node(TolerantNode::Notifier {
        inner: Box::new(Notifier::new(n, &cfg.initial_doc)),
        errors: Vec::new(),
    });
    for (i, script) in scripts.iter().enumerate() {
        let mut client = Client::new(SiteId(i as u32 + 1), &cfg.initial_doc);
        client.set_share_caret(false);
        sim.add_node(TolerantNode::Client {
            inner: Box::new(client),
            script: script.clone(),
            errors: Vec::new(),
        });
        for (k, edit) in script.iter().enumerate() {
            sim.schedule_timer(1 + i, edit.at, k as u64);
        }
    }
    sim.run();
    let mut all = Vec::new();
    for node in sim.nodes_mut() {
        match node {
            TolerantNode::Notifier { errors, .. } | TolerantNode::Client { errors, .. } => {
                all.append(errors);
            }
        }
    }
    all
}

#[test]
fn without_reliability_duplication_is_detected() {
    let errors = run_tolerant_unreliable(
        3,
        7,
        FaultPlan {
            duplicate: 0.5,
            ..FaultPlan::NONE
        },
    );
    assert!(
        errors
            .iter()
            .any(|e| matches!(e, ProtocolError::FifoViolation { .. })),
        "duplicated messages must trip the FIFO counter check: {errors:?}"
    );
}

#[test]
fn without_reliability_loss_is_detected() {
    let errors = run_tolerant_unreliable(3, 11, FaultPlan::lossy(0.4));
    assert!(
        errors
            .iter()
            .any(|e| matches!(e, ProtocolError::FifoViolation { .. })),
        "a dropped message leaves a visible sequence gap: {errors:?}"
    );
}

#[test]
fn without_reliability_reordering_is_detected() {
    let errors = run_tolerant_unreliable(
        4,
        13,
        FaultPlan {
            reorder: 0.5,
            reorder_extra_us: 200_000,
            ..FaultPlan::NONE
        },
    );
    assert!(
        errors
            .iter()
            .any(|e| matches!(e, ProtocolError::FifoViolation { .. })),
        "an overtaken message arrives with a regressed counter: {errors:?}"
    );
}

// ---------------------------------------------------------------------------
// Leg 4 — federation chaos: the cross-shard relay tier gets the same
// treatment as the star links. A multi-notifier session over a lossy,
// corrupting inter-notifier bus must still deliver the paper's guarantee:
// every site of every shard converges, zero Definition-1 violations, zero
// hostile-input quarantines — go-back-N redelivery and the checksum gate
// mask the bus faults. The *final document bytes* are compared only in
// the fixed-seed twin (see `relay::tests`): the workload's `frac`-based
// intents sample the doc length at edit time, so a delayed relay frame
// legitimately changes which operations get generated — determinism
// across fault plans is not a property the paper claims.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn faulty_federation_matches_fault_free_twin(
        k in 2u32..=3,
        clients_per_shard in 1usize..=2,
        ops in 3usize..=8,
        drop in 0.0f64..0.35,
        corrupt in 0.0f64..0.25,
        seed in 0u64..1_000,
    ) {
        let mut clean_cfg = FederationConfig::small(k, clients_per_shard, seed);
        clean_cfg.ops_per_client = ops;
        let clean = run_federation(&clean_cfg);
        let mut faulty_cfg = clean_cfg.clone();
        faulty_cfg.faults = RelayFaultPlan {
            drop,
            corrupt,
            seed: seed ^ 0x00C0_FFEE,
        };
        let faulty = run_federation(&faulty_cfg);
        prop_assert!(clean.converged, "fault-free twin diverged");
        prop_assert!(faulty.converged, "faulty federation diverged");
        // The scripted edit *count* is delivery-independent even though
        // the edit positions are not: every client fires all its edits.
        prop_assert_eq!(faulty.local_ops_total, clean.local_ops_total);
        prop_assert_eq!(clean.oracle_violations, 0);
        prop_assert_eq!(faulty.oracle_violations, 0);
        for sh in &faulty.shards {
            prop_assert_eq!(sh.relay_hostile_drops, 0, "shard {} quarantined honest frames", sh.shard);
        }
    }

    /// A singleton federation is the plain robust star: no relay traffic,
    /// and the final document equals a plain `run_robust_session` of the
    /// same shard config — the federation driver adds nothing but the
    /// (empty) bus.
    #[test]
    fn singleton_federation_is_the_plain_star(
        clients in 1usize..=3,
        ops in 3usize..=8,
        seed in 0u64..1_000,
    ) {
        let mut cfg = FederationConfig::small(1, clients, seed);
        cfg.ops_per_client = ops;
        let rep = run_federation(&cfg);
        prop_assert!(rep.converged);
        prop_assert_eq!(rep.relay_frames_total, 0);
        prop_assert_eq!(rep.bus.frames_sent, 0);
        prop_assert_eq!(rep.n_clients_total, clients);
    }
}
