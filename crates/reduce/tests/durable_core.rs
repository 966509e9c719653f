//! The durability invariant of [`NotifierCore`], for the whole class of
//! inputs rather than one instance.
//!
//! 1. **Property**: random scripts of honest edits, deliveries and acks
//!    interleaved with hostile inputs (duplicate, FIFO gap, wrong base
//!    length, unknown site, forged origin, overrunning ack) and evictions
//!    (of a site that just misbehaved, or of an honest one; before and
//!    after compactions) are fed to a durable core. After *every* step
//!    the log image alone must rebuild the live notifier: a cold standby
//!    recovered from it is unpoisoned and promotes to the same document,
//!    state vector and membership, with an ack frontier at or below the
//!    live one and at most one [`ACK_FRONTIER_EVERY`] window behind it —
//!    and, whenever the frontier is level, the same collectable history
//!    and the same answer to "can this checkpoint?". A rejected input
//!    appends nothing.
//! 2. **Differential**: the simulator's node is a thin driver — the input
//!    stream a traced standby session captured at its notifier, replayed
//!    through a bare core, yields a byte-identical log image.
//! 3. **Crash at every prefix**: a short scripted standby star, crashed
//!    ([`StarWorld::crash`]) after each prefix of its script, recovers
//!    through the hello and answer actions to the document the uncrashed
//!    prefix drains to, and the promoted notifier is what a cold standby
//!    rebuilds from the log image (cold = warm = live) — mostly from a
//!    snapshot cut with history in flight.

use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use cvc_ot::seq::SeqOp;
use cvc_reduce::client::Client;
use cvc_reduce::core::{NotifierCore, ACK_FRONTIER_EVERY};
use cvc_reduce::hub::Step;
use cvc_reduce::msg::{ClientAckMsg, ClientOpMsg, EditorMsg, ServerOpMsg};
use cvc_reduce::notifier::{Notifier, NotifierHbEntry, ScanMode};
use cvc_reduce::reliable::{run_robust_session_traced, CrashPoint, DisconnectSpec};
use cvc_reduce::session::{Deployment, SessionConfig};
use cvc_reduce::standby::Standby;
use cvc_reduce::wal::{Wal, DEFAULT_COMPACT_EVERY};
use cvc_reduce::world::{Move, StarWorld};
use cvc_sim::fault::FaultPlan;
use cvc_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

const INITIAL: &str = "seed";

fn snapshot_bytes(notifier: &Notifier) -> Vec<u8> {
    let mut buf = Vec::new();
    notifier.write_checkpoint(&mut buf);
    buf
}

/// A durable core (log + warm standby) under `n` honest client replicas
/// joined by FIFO queues, driven one seeded step at a time.
struct World {
    core: NotifierCore,
    clients: Vec<Client>,
    /// Client → notifier channels (ops and bare acks share the FIFO).
    up: Vec<VecDeque<EditorMsg>>,
    /// Notifier → client channels.
    down: Vec<VecDeque<ServerOpMsg>>,
    /// The last op each client got integrated (replayed as a duplicate).
    last_integrated: Vec<Option<ClientOpMsg>>,
    /// Live `acked_by` after each successfully integrated bare ack
    /// (index 0: before any).
    ack_history: Vec<Vec<u64>>,
    /// Sites the driver evicted; whatever their channel still carries
    /// must bounce.
    evicted: Vec<bool>,
}

impl World {
    fn new(n: usize, compact_every: u64) -> World {
        let mut notifier = Notifier::new(n, INITIAL);
        notifier.set_auto_gc(true);
        let mut standby = Standby::new(n, INITIAL, ScanMode::SuffixBounded);
        standby.set_auto_gc(true);
        World {
            core: NotifierCore::new(notifier, Some(Wal::new(compact_every)), Some(standby)),
            clients: (0..n)
                .map(|i| Client::new(SiteId::from_client_index(i), INITIAL))
                .collect(),
            up: vec![VecDeque::new(); n],
            down: vec![VecDeque::new(); n],
            last_integrated: vec![None; n],
            ack_history: vec![vec![0; n]],
            evicted: vec![false; n],
        }
    }

    fn wal(&self) -> &Wal {
        self.core.wal().expect("the core under test is durable")
    }

    /// Feed one upstream message that arrived on `from`'s channel to the
    /// core, as a driver would.
    fn integrate(&mut self, from: SiteId, msg: EditorMsg) -> Result<(), cvc_reduce::ProtocolError> {
        match msg {
            EditorMsg::ClientOp(op) => {
                let origin = op.origin;
                let outcome = self.core.integrate_op(from, op.clone())?;
                if let Some(slot) = self.last_integrated.get_mut(origin.client_index()) {
                    *slot = Some(op);
                }
                for (dest, m) in outcome.broadcast_msgs() {
                    self.down[dest.client_index()].push_back(m);
                }
            }
            EditorMsg::ClientAck(ack) => {
                self.core.integrate_ack(from, ack)?;
                self.ack_history
                    .push(self.core.notifier().acked_by().to_vec());
            }
            other => panic!("not an upstream message: {other:?}"),
        }
        Ok(())
    }

    /// Deliver client `i`'s next broadcast; it acks as the protocol
    /// dictates.
    fn deliver_down(&mut self, i: usize) {
        let Some(m) = self.down[i].pop_front() else {
            return;
        };
        self.clients[i]
            .try_on_server_op(m)
            .expect("honest stream applies");
        self.clients[i].gc();
        if let Some(ack) = self.clients[i].take_pending_ack() {
            self.up[i].push_back(EditorMsg::ClientAck(ack));
        }
    }

    /// Evict client `i` through the core's third door, as a driver does
    /// after a violation on its channel. Keeps two members in the session.
    fn evict(&mut self, i: usize) {
        if self.evicted[i] || self.evicted.iter().filter(|&&e| !e).count() <= 2 {
            return;
        }
        let appends = self.wal().appends();
        let compactions = self.wal().compactions();
        let site = SiteId::from_client_index(i);
        self.core
            .integrate_eviction(site)
            .expect("an active member");
        self.evicted[i] = true;
        self.up[i].clear();
        self.down[i].clear();
        // One record — or, when the evicted site was all that held a
        // checkpoint back, the snapshot that replaced the log.
        assert!(self.wal().appends() > appends, "eviction must be logged");
        assert!(self.wal().appends() - appends <= 1 + self.wal().compactions() - compactions);
        assert!(
            self.core.integrate_eviction(site).is_err(),
            "a second eviction is a no-op"
        );
    }

    /// One seeded step.
    fn step(&mut self, rng: &mut SmallRng) {
        let n = self.clients.len();
        let i = rng.gen_range(0..n);
        let site = SiteId::from_client_index(i);
        if self.evicted[i] {
            return self.hostile(rng, i);
        }
        match rng.gen_range(0..10u32) {
            0..=2 => {
                let len = self.clients[i].doc_len();
                let op = if len > 0 && rng.gen_range(0..4u32) == 0 {
                    self.clients[i].delete(rng.gen_range(0..len), 1)
                } else {
                    self.clients[i].insert(rng.gen_range(0..=len), "x")
                };
                self.up[i].push_back(EditorMsg::ClientOp(op));
            }
            3..=4 => {
                if let Some(m) = self.up[i].pop_front() {
                    self.integrate(site, m).expect("honest input integrates");
                }
            }
            5..=7 => self.deliver_down(i),
            8 => {
                // A courtesy ack of everything received so far, sent behind
                // whatever is already queued (acks are cumulative).
                let received = self.clients[i].state_vector().received();
                self.up[i].push_back(EditorMsg::ClientAck(ClientAckMsg {
                    origin: site,
                    received,
                }));
            }
            _ => {
                self.hostile(rng, i);
                // Sometimes the driver evicts the offender, sometimes a
                // bystander (an honest site caught by a timeout, say).
                match rng.gen_range(0..6u32) {
                    0 => self.evict(i),
                    1 => self.evict(rng.gen_range(0..n)),
                    _ => {}
                }
            }
        }
    }

    /// One hostile input, crafted against the live counters so that only
    /// the intended check can reject it. Must fail and append nothing.
    fn hostile(&mut self, rng: &mut SmallRng, i: usize) {
        let notifier = self.core.notifier();
        let site = SiteId::from_client_index(i);
        let n = notifier.n_clients();
        let acked = notifier.acked_by()[i];
        let next_seq = notifier
            .state_vector()
            .received_from(site)
            .expect("known site")
            + 1;
        let doc_len = notifier.doc_len();
        let forged = |origin: SiteId, t2: u64, base: usize| {
            EditorMsg::ClientOp(ClientOpMsg {
                origin,
                stamp: CompressedStamp::new(acked, t2),
                op: SeqOp::identity(base),
                cursor: None,
            })
        };
        let msg = match rng.gen_range(0..6u32) {
            0 => match &self.last_integrated[i] {
                Some(dup) => EditorMsg::ClientOp(dup.clone()),
                None => forged(site, next_seq + 1, doc_len),
            },
            1 => forged(site, next_seq + 1 + rng.gen_range(0..3u64), doc_len),
            2 => forged(site, next_seq, doc_len + 1_000 + rng.gen_range(0..9usize)),
            3 => {
                let outsider = [SiteId(0), SiteId(n as u32 + 1 + rng.gen_range(0..4u32))];
                forged(outsider[rng.gen_range(0..2usize)], 1, doc_len)
            }
            4 => {
                // A neighbour's well-formed next op, or an ack in its
                // name, on this channel.
                let victim = SiteId::from_client_index((i + 1) % n);
                let received = notifier.state_vector().received_from(victim);
                if rng.gen_range(0..2u32) == 0 {
                    forged(victim, received.expect("known site") + 1, doc_len)
                } else {
                    EditorMsg::ClientAck(ClientAckMsg {
                        origin: victim,
                        received: 0,
                    })
                }
            }
            _ => {
                let sent = notifier.state_vector().compress_for(site).get(1);
                EditorMsg::ClientAck(ClientAckMsg {
                    origin: site,
                    received: sent + 1 + rng.gen_range(0..5u64),
                })
            }
        };
        let appends = self.wal().appends();
        let live = (notifier.doc_checksum(), notifier.state_vector().clone());
        let verdict = self.integrate(site, msg.clone());
        assert!(verdict.is_err(), "hostile input accepted: {msg:?}");
        assert_eq!(
            self.wal().appends(),
            appends,
            "rejected input reached the log"
        );
        let after = self.core.notifier();
        assert_eq!(
            (after.doc_checksum(), after.state_vector().clone()),
            live,
            "rejected input moved the live notifier: {msg:?}"
        );
    }

    /// The invariant: the log image alone rebuilds the live notifier.
    fn check_log_rebuilds_live(&self) {
        let live = self.core.notifier();
        let n = live.n_clients();
        let cold = Standby::from_log(self.wal().bytes(), n, INITIAL).expect("log scans");
        assert!(
            cold.poisoned().is_none(),
            "log poisons replay: {:?}",
            cold.poisoned()
        );
        let mut rebuilt = cold.promote().expect("unpoisoned standby promotes");
        assert_eq!(rebuilt.doc_checksum(), live.doc_checksum());
        assert_eq!(rebuilt.state_vector(), live.state_vector());
        let warm = self.core.standby().expect("warm standby");
        assert!(warm.poisoned().is_none());
        assert_eq!(warm.notifier().doc_checksum(), live.doc_checksum());
        // Membership is part of the state: who is broadcast to, whose
        // acks gate collection.
        let (mut level, mut every_level) = (true, true);
        for i in 0..n {
            let site = SiteId::from_client_index(i);
            assert_eq!(live.is_active(site), !self.evicted[i]);
            assert_eq!(rebuilt.is_active(site), live.is_active(site), "{site}");
            assert_eq!(warm.notifier().is_active(site), live.is_active(site));
            let same = rebuilt.acked_by()[i] == live.acked_by()[i];
            level &= self.evicted[i] || same;
            every_level &= same;
        }
        // The replayed ack frontier never runs ahead of the live one, and
        // trails it by less than one frontier window of bare acks.
        let acks = self.ack_history.len() - 1;
        let window_ago = &self.ack_history[acks.saturating_sub(ACK_FRONTIER_EVERY as usize - 1)];
        let frontiers = rebuilt
            .acked_by()
            .iter()
            .zip(live.acked_by())
            .zip(window_ago);
        for (i, ((&got, &now), &then)) in frontiers.enumerate() {
            if self.evicted[i] {
                continue;
            }
            assert!(got <= now, "client {i}: replayed ack {got} ahead of {now}");
            assert!(
                got >= then,
                "client {i}: replayed ack {got} more than a window behind (had {then} then)"
            );
        }
        // What is collectable follows from membership and the frontier: a
        // replica behind on acks retains more, never less, and one level
        // with the live frontier retains the same entries — whether it was
        // replayed or restored from a snapshot that carried them. Level
        // for the evicted too, it is the live notifier, byte for byte.
        let mut live = live.clone();
        live.gc();
        rebuilt.gc();
        let entries = |n: &Notifier| {
            let entry = |e: &NotifierHbEntry| (e.origin, e.width_at, e.total_after, e.op.clone());
            n.history().iter().map(entry).collect::<Vec<_>>()
        };
        let (got, want) = (entries(&rebuilt), entries(&live));
        assert!(got.len() >= want.len());
        assert_eq!(got[got.len() - want.len()..], want[..]);
        if level {
            assert_eq!(got, want);
        }
        if every_level {
            assert_eq!(snapshot_bytes(&rebuilt), snapshot_bytes(&live));
        }
    }

    /// Whether the log now starts with a snapshot that carries history
    /// entries — one cut with operations still in flight.
    fn snapshot_carries_history(&self) -> bool {
        let rec = Wal::recover(self.wal().bytes()).expect("log scans");
        rec.snapshot.is_some_and(|s| !s.history().is_empty())
    }

    /// Drain every queue, then ack everything, so the session quiesces.
    fn quiesce(&mut self) {
        let members: Vec<usize> = (0..self.clients.len())
            .filter(|&i| !self.evicted[i])
            .collect();
        loop {
            let mut moved = false;
            for &i in &members {
                let site = SiteId::from_client_index(i);
                while let Some(m) = self.up[i].pop_front() {
                    self.integrate(site, m).expect("honest input integrates");
                    moved = true;
                }
                while !self.down[i].is_empty() {
                    self.deliver_down(i);
                    moved = true;
                }
            }
            if !moved {
                break;
            }
        }
        for &i in &members {
            let site = SiteId::from_client_index(i);
            let ack = ClientAckMsg {
                origin: site,
                received: self.clients[i].state_vector().received(),
            };
            self.integrate(site, EditorMsg::ClientAck(ack))
                .expect("final ack");
        }
    }
}

/// Snapshots cut, across the property's cases, while history entries
/// were still in flight.
static BUSY_SNAPSHOTS: AtomicU64 = AtomicU64::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    fn log_image_cases(
        seed in any::<u64>(),
        n in 2usize..6,
        steps in 40usize..200,
        compact_every in 1u64..24,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut world = World::new(n, compact_every);
        // Two halves with a quiescent point between them, so the second
        // half's inputs — evictions included — land on a compacted log.
        for _ in 0..2 {
            for _ in 0..steps / 2 {
                let compactions = world.wal().compactions();
                world.step(&mut rng);
                world.check_log_rebuilds_live();
                if world.wal().compactions() > compactions && world.snapshot_carries_history() {
                    BUSY_SNAPSHOTS.fetch_add(1, Ordering::Relaxed);
                }
            }
            world.quiesce();
            world.check_log_rebuilds_live();
        }
        let doc = world.core.notifier().doc();
        for (c, _) in world.clients.iter().zip(&world.evicted).filter(|(_, &out)| !out) {
            prop_assert_eq!(c.doc(), doc.as_str(), "replica diverged (seed {})", seed);
        }
        // Past the cadence: the log has compacted.
        let ops = world.core.notifier().state_vector().total();
        if ops >= compact_every {
            prop_assert!(world.wal().compactions() >= 1, "never compacted (seed {})", seed);
        }
    }
}

/// Property 1 over 256 cases. Some snapshot must be cut while history
/// entries are still in flight, so the restore that carries them — not
/// only the quiet one — is what the invariant checks.
#[test]
fn log_image_rebuilds_the_live_notifier_after_every_step() {
    log_image_cases();
    assert!(
        BUSY_SNAPSHOTS.load(Ordering::Relaxed) > 0,
        "no snapshot carried history across the cases"
    );
}

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

/// One move of the prefix-crash script on the star: an edit — site 1
/// types at the front, the others at the end — a delivery up, or one
/// down, after which the replica collects and owes its bare ack.
fn step(w: &mut StarWorld, m: Move) {
    match m {
        Move::Edit(s) => {
            let text = ["a", "b", "c"][s.client_index()];
            let at_end = s != SiteId(1);
            w.edit(s, |c| {
                Ok(c.insert(if at_end { c.doc_len() } else { 0 }, text))
            })
            .expect("a member");
        }
        Move::Up(s) => _ = w.deliver_up(s).expect("an honest op integrates"),
        Move::Down(s) => {
            w.deliver_down(s).expect("no gap, no duplicate");
            w.gc(s).expect("a member");
            w.take_pending_ack(s);
        }
    }
}

/// Deliver everything queued, up and down, until the star is quiet.
fn drain(mut w: StarWorld) -> StarWorld {
    while let Some(&m) = w.moves(&[0; 3]).first() {
        step(&mut w, m);
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
    for k in 0..=moves.len() {
        let uncrashed = drain(world.clone());
        let expected = uncrashed.notifier().doc();
        assert!(uncrashed.clients().all(|c| c.doc() == expected));

        let mut w = world.clone();
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
                let step = w.hello(site, i).expect("a member");
                assert!(
                    matches!(step, Step::Bound(_) | Step::Trimmed(_)),
                    "{step:?}"
                );
                while w.queued(site).1 > 0 {
                    w.deliver_down(site).expect("a catch-up applies or repeats");
                }
                let integrated = w.notifier().state_vector().received_from(site);
                let again = w.answer(site, integrated.expect("a member"));
                let again = again.expect("a member").is_some();
                if hello == 0 && matches!(step, Step::Bound(_)) {
                    bound_first += 1;
                    again_after_bound += usize::from(again);
                }
                if !again {
                    break;
                }
            }
        }
        let w = drain(w);
        assert_eq!(w.notifier().doc(), expected, "prefix {k}");
        assert!(w.clients().all(|c| c.doc() == expected), "prefix {k}");
        if let Some(&m) = moves.get(k) {
            step(&mut world, m);
        }
    }
    assert!(bound_first > 0 && busy_images > 0);
    assert_eq!(again_after_bound, 0, "a bound hello was said again");
}
