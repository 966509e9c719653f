//! The session rules without sockets: who is bound to which site, what a
//! hello is answered with, and what a refusal or a violation costs. Each
//! hostile case the TCP end-to-end battery drives over real sockets is
//! restated here as plain data in and out, and a bounded exhaustive check
//! walks the star world ([`StarWorld`], the hub with its replicas and
//! channels) through every short interleaving of hellos, ops, deliveries
//! and closes.

use cvc_core::site::SiteId;
use cvc_reduce::client::Client;
use cvc_reduce::core::NotifierCore;
use cvc_reduce::error::ProtocolError;
use cvc_reduce::hub::{CatchUp, Hub, Step};
use cvc_reduce::msg::{decode_payload, ClientAckMsg, EditorMsg, Payload, ServerAckMsg};
use cvc_reduce::notifier::Notifier;
use cvc_reduce::wal::{Wal, DEFAULT_COMPACT_EVERY};
use cvc_reduce::world::StarWorld;

/// A durable, auto-collecting core for `n` sites, as the TCP tier runs it.
fn core(n: usize) -> NotifierCore {
    let mut notifier = Notifier::new(n, "");
    notifier.set_auto_gc(true);
    NotifierCore::new(notifier, Some(Wal::new(DEFAULT_COMPACT_EVERY)), None)
}

fn hub(n: usize) -> Hub<u8> {
    Hub::new(core(n))
}

fn hello(site: u32, received: u64) -> EditorMsg {
    EditorMsg::ClientAck(ClientAckMsg {
        origin: SiteId(site),
        received,
    })
}

fn decode(p: &Payload) -> Vec<EditorMsg> {
    let mut msgs = Vec::new();
    decode_payload(p.chunks(), &mut msgs).expect("the hub encodes valid payloads");
    msgs
}

fn appends(hub: &Hub<u8>) -> u64 {
    hub.core().wal().expect("durable").appends()
}

/// Say hello on `ch` for every site `1..=n`, channel `k` for site `k`.
fn bound(n: usize) -> Hub<u8> {
    let mut h = hub(n);
    for k in 1..=n as u32 {
        let step = h.on_msg(k as u8, hello(k, 0), &mut Vec::new());
        assert!(matches!(step, Step::Bound(s) if s == SiteId(k)), "{step:?}");
    }
    h
}

#[test]
fn bind_is_a_partial_bijection() {
    let mut h = hub(2);
    assert!(!h.bind(1, SiteId(0)), "the notifier is nobody's channel");
    assert!(!h.bind(1, SiteId(3)), "outside the session");
    assert!(h.bind(1, SiteId(1)));
    assert!(h.bind(1, SiteId(1)), "the same pair again is a no-op");
    assert!(!h.bind(2, SiteId(1)), "site taken");
    assert!(!h.bind(1, SiteId(2)), "channel taken");
    assert_eq!(
        (h.site_of(1), h.channel_of(SiteId(1))),
        (Some(SiteId(1)), Some(1))
    );
    assert_eq!(h.unbind(1), Some(SiteId(1)));
    assert_eq!(h.unbind(1), None);
    assert_eq!((h.site_of(1), h.channel_of(SiteId(1))), (None, None));
}

/// The race `e2e::reconnect_rebinds_with_real_ack_frontier` used to sleep
/// through: site 2's new connection says hello before its old one's close
/// is processed. "Site taken" — the hello costs its channel, leaves the old
/// binding alone and integrates nothing; once the close lands the same
/// hello binds and replays what the dead socket held.
#[test]
fn hello_before_the_old_close_is_refused_then_binds() {
    let (a, b) = (2u8, 7u8);
    let mut h = hub(2);
    assert!(matches!(
        h.on_msg(1, hello(1, 0), &mut Vec::new()),
        Step::Bound(_)
    ));
    assert!(matches!(
        h.on_msg(a, hello(2, 0), &mut Vec::new()),
        Step::Bound(_)
    ));
    let mut editor = Client::new(SiteId(1), "");
    let mut sends = Vec::new();
    let step = h.on_msg(1, EditorMsg::ClientOp(editor.insert(0, "a")), &mut sends);
    assert!(matches!(step, Step::Op(_)));
    assert_eq!(sends.iter().map(|s| s.0).collect::<Vec<_>>(), vec![a]);

    let (logged, acked) = (appends(&h), h.notifier().acked_by().to_vec());
    let mut sends = Vec::new();
    assert!(matches!(
        h.on_msg(b, hello(2, 0), &mut sends),
        Step::Refused
    ));
    assert!(sends.is_empty());
    assert_eq!((h.site_of(a), h.site_of(b)), (Some(SiteId(2)), None));
    assert_eq!(appends(&h), logged, "nothing integrated");
    assert_eq!(h.notifier().acked_by(), &acked[..]);
    assert_eq!(h.notifier().metrics().protocol_errors, 0);

    assert_eq!(h.unbind(a), Some(SiteId(2)));
    assert!(matches!(h.on_msg(b, hello(2, 0), &mut sends), Step::Bound(s) if s == SiteId(2)));
    let mut replica = Client::new(SiteId(2), "");
    assert_eq!(sends.len(), 1);
    for (ch, p) in &sends {
        assert_eq!(*ch, b);
        for m in decode(p) {
            let EditorMsg::ServerOp(op) = m else {
                panic!("acks are off: {m:?}")
            };
            replica.try_on_server_op(op).expect("the replay applies");
        }
    }
    assert_eq!(replica.doc(), "a");
}

/// The channel names the sender: site 1's channel forging site 2's first
/// op evicts site 1 — logged, so it cannot come back — and site 2 stays a
/// member whose next op reaches site 3 only.
#[test]
fn forged_origin_evicts_the_bound_site_not_the_named_one() {
    let mut h = bound(3);
    let forged = Client::new(SiteId(2), "").insert(0, "F");
    let step = h.on_msg(1, EditorMsg::ClientOp(forged), &mut Vec::new());
    let Step::Evicted(site, ProtocolError::ForgedOrigin { sender, claimed }) = step else {
        panic!("{step:?}")
    };
    assert_eq!((site, sender, claimed), (SiteId(1), SiteId(1), SiteId(2)));
    let n = h.notifier();
    assert!(!n.is_active(SiteId(1)) && n.is_active(SiteId(2)) && n.is_active(SiteId(3)));
    assert_eq!(n.doc(), "");

    let mut sends = Vec::new();
    let honest = Client::new(SiteId(2), "").insert(0, "v");
    assert!(matches!(
        h.on_msg(2, EditorMsg::ClientOp(honest), &mut sends),
        Step::Op(_)
    ));
    assert_eq!(sends.iter().map(|s| s.0).collect::<Vec<_>>(), vec![3]);

    // The driver sheds the offender's channel; its rebind is refused.
    h.unbind(1);
    assert!(matches!(
        h.on_msg(1, hello(1, 0), &mut Vec::new()),
        Step::Refused
    ));
    assert_eq!(h.site_of(1), None);
}

/// A stranger's hello naming site 0, a site outside the session or a
/// bound site costs only its channel: nothing integrates, nothing is
/// logged, nobody is evicted, the held binding stands.
#[test]
fn strangers_hellos_cost_only_the_channel() {
    let mut h = bound(2);
    let logged = appends(&h);
    for site in [0, 3, u32::MAX, 2] {
        let mut sends = Vec::new();
        assert!(matches!(
            h.on_msg(9, hello(site, 0), &mut sends),
            Step::Refused
        ));
        assert!(sends.is_empty());
        assert_eq!(h.site_of(9), None);
    }
    assert_eq!(h.channel_of(SiteId(2)), Some(2));
    assert_eq!(appends(&h), logged);
    let n = h.notifier();
    assert_eq!(n.metrics().protocol_errors, 0);
    assert!(n.is_active(SiteId(1)) && n.is_active(SiteId(2)));
}

/// A core that sends acks, as the TCP tier's does, ends every served
/// hello's answer with `ServerAck{acked: integrated}`, 0 included: a
/// fresh site holding ops the notifier never integrated learns from it
/// that its re-sends start at the first.
#[test]
fn a_served_hello_ends_with_the_integrated_count_even_at_0() {
    let mut notifier = Notifier::new(2, "");
    notifier.set_send_acks(true);
    let mut h: Hub<u8> = Hub::new(NotifierCore::new(notifier, None, None));
    let mut sends = Vec::new();
    assert!(matches!(
        h.on_msg(1, hello(1, 0), &mut sends),
        Step::Bound(_)
    ));
    let answer: Vec<EditorMsg> = sends.iter().flat_map(|(_, p)| decode(p)).collect();
    let end = EditorMsg::ServerAck(ServerAckMsg { acked: 0 });
    assert_eq!(answer, vec![end]);
}

/// Anything but a hello on an unbound channel is refused: an op before
/// the handshake never reaches the notifier.
#[test]
fn op_before_hello_is_refused() {
    let mut h = hub(2);
    let op = Client::new(SiteId(1), "").insert(0, "x");
    assert!(matches!(
        h.on_msg(1, EditorMsg::ClientOp(op), &mut Vec::new()),
        Step::Refused
    ));
    let n = h.notifier();
    assert_eq!(
        (n.doc(), n.metrics().ops_executed_remote),
        (String::new(), 0)
    );
    assert!(n.is_active(SiteId(1)));
    assert_eq!(appends(&h), 0);
}

/// A downstream-only kind on a bound channel is nonsense, not a protocol
/// violation: refused, nobody evicted, the binding stands.
#[test]
fn downstream_kinds_are_refused_without_eviction() {
    let mut h = bound(2);
    let server_op = EditorMsg::ServerOp(cvc_reduce::msg::ServerOpMsg {
        stamp: cvc_core::state_vector::CompressedStamp::new(1, 0),
        op: cvc_ot::seq::SeqOp::identity(0),
        cursor: None,
    });
    let ack = EditorMsg::ServerAck(ServerAckMsg { acked: 1 });
    for msg in [server_op.clone(), ack, EditorMsg::Compound(vec![server_op])] {
        assert!(matches!(h.on_msg(1, msg, &mut Vec::new()), Step::Refused));
    }
    assert!(h.notifier().is_active(SiteId(1)));
    assert_eq!(h.site_of(1), Some(SiteId(1)));
}

/// A rebind claiming a frontier below the site's own earlier ack asks for
/// a collected prefix: reported, left unbound, nobody evicted; the
/// snapshot is what would rebuild that replica.
#[test]
fn trimmed_rebind_is_reported_and_left_unbound() {
    let mut h = bound(2);
    let mut sends = Vec::new();
    let op = Client::new(SiteId(1), "").insert(0, "a");
    assert!(matches!(
        h.on_msg(1, EditorMsg::ClientOp(op), &mut sends),
        Step::Op(_)
    ));
    assert!(matches!(
        h.on_msg(2, hello(2, 1), &mut Vec::new()),
        Step::Ack(_)
    ));
    assert_eq!(h.notifier().history().len(), 0, "op 1 was collected");
    h.unbind(2);

    assert!(matches!(h.on_msg(2, hello(2, 0), &mut sends), Step::Trimmed(s) if s == SiteId(2)));
    assert_eq!(h.site_of(2), None);
    assert!(h.notifier().is_active(SiteId(2)));
    let snapshot = CatchUp::Snapshot("a".into(), 1, 0);
    assert_eq!(h.catch_up(SiteId(2), 0), Ok(snapshot));
    let honest = CatchUp::Replay {
        ops: Vec::new(),
        integrated: 0,
    };
    assert_eq!(h.catch_up(SiteId(2), 1), Ok(honest));
    assert!(matches!(
        h.on_msg(2, hello(2, 1), &mut Vec::new()),
        Step::Bound(_)
    ));
}

/// A caret past its op's post-state is refused when the op is decoded,
/// before the hub sees it: the sender's channel closes, nothing is
/// integrated or logged, and no peer's channel gets the op or its caret.
/// (Passed on untouched, it reached every peer.) A caret at the post-state's
/// end is in range and rides along.
#[test]
fn a_caret_past_the_post_state_never_reaches_a_peer() {
    let mut w = StarWorld::new(core(3));
    let appends = |w: &StarWorld| w.hub().core().wal().expect("durable").appends();
    let logged = appends(&w);
    let caret_at = |pos| {
        move |c: &mut Client| {
            let mut m = c.insert(0, "a");
            m.cursor = Some(pos);
            Ok(m)
        }
    };
    w.edit(SiteId(1), caret_at(1 << 20)).expect("a member");
    let hostile = w.pop_up(SiteId(1)).expect("queued up");
    assert!(matches!(w.receive_up(0, &hostile), Ok(None)));
    assert_eq!(w.hub().site_of(0), None, "the sender's channel closed");
    assert_eq!((w.queued_on(1), w.queued_on(2)), (0, 0), "no peer got it");
    assert_eq!(w.notifier().doc(), "");
    assert_eq!(appends(&w), logged, "nothing logged");

    w.edit(SiteId(2), caret_at(1)).expect("a member");
    assert!(w.deliver_up(SiteId(2)).expect("in range").is_some());
    w.deliver_down(SiteId(3)).expect("applies");
    let carets: Vec<_> = w
        .client(SiteId(3))
        .expect("seated")
        .remote_carets()
        .collect();
    assert_eq!(carets, vec![(2, 1)]);
}

// ---- bounded exhaustive check over the star world ----------------------

const SITES: usize = 2;
const CHANNELS: usize = 3;
/// Longest event sequence explored (every shorter one is checked too).
const DEPTH: usize = 6;

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Site `.0` says hello on channel `.1` with its replica's real `T[1]`.
    Hello(usize, usize),
    /// Bound site `.0` edits and sends the op on its channel.
    Op(usize),
    /// Channel `.0` delivers everything queued on it.
    Deliver(usize),
    /// Channel `.0` closes; what it still held dies with it.
    Close(usize),
}

fn site(s: usize) -> SiteId {
    SiteId::from_client_index(s)
}

/// The star as the TCP tier runs it, before anyone has said hello.
fn unbound_world() -> StarWorld {
    let mut w = StarWorld::new(core(SITES));
    for ch in 0..SITES {
        w.close(ch);
    }
    w
}

/// The event menu: a hello from every site on each unbound channel, a
/// close of each bound one, a delivery on each channel holding payloads,
/// an op from each bound site.
fn enabled(w: &StarWorld) -> Vec<Event> {
    let mut evs = Vec::new();
    for c in 0..CHANNELS {
        match w.hub().site_of(c) {
            None => evs.extend((0..SITES).map(|s| Event::Hello(s, c))),
            Some(_) => evs.push(Event::Close(c)),
        }
        if w.queued_on(c) > 0 {
            evs.push(Event::Deliver(c));
        }
    }
    let bound = (0..SITES).filter(|&s| w.hub().channel_of(site(s)).is_some());
    evs.extend(bound.map(Event::Op));
    evs
}

/// An honest hello is refused exactly when its site is taken.
fn honest_hello(w: &mut StarWorld, s: usize, ch: usize) {
    let taken = w.hub().channel_of(site(s)).is_some();
    match w.hello(site(s), ch).expect("a member") {
        Step::Refused => assert!(taken, "an honest free hello was refused"),
        Step::Bound(b) => assert!(!taken && b == site(s)),
        other => panic!("an honest hello stepped to {other:?}"),
    }
}

/// Step the world, then check the table is a partial bijection and that
/// nothing is queued for an unbound channel — neither sent to one (the
/// world counts those at send time, before a shed closes anything) nor
/// left on one.
fn apply(w: &mut StarWorld, ev: Event) {
    match ev {
        Event::Hello(s, ch) => honest_hello(w, s, ch),
        Event::Op(s) => {
            let (text, at_end) = if s == 0 { ("a", false) } else { ("b", true) };
            let op = |c: &mut Client| Ok(c.insert(if at_end { c.doc_len() } else { 0 }, text));
            w.edit(site(s), op).expect("a member");
            let out = w.deliver_up(site(s)).expect("an honest op integrates");
            assert!(out.is_some(), "sent on a bound channel");
        }
        Event::Deliver(ch) => {
            let to = w
                .hub()
                .site_of(ch)
                .expect("a queue only lives on a bound channel");
            let received = |w: &StarWorld| w.client(to).map(|c| c.state_vector().received());
            while w.queued_on(ch) > 0 {
                let before = received(w);
                let applied = w.deliver_down(to).expect("no gap, no duplicate");
                // Acks are off, so every payload is one op: it applies, or
                // it repeats what the replica executed past a frontier held
                // back behind an unacked local op, and the open hello skips
                // it.
                let skipped = w.awaits_answer(to) && received(w) == before;
                assert!(applied.is_some() || skipped, "every payload is one op");
                w.gc(to).expect("a member");
            }
        }
        Event::Close(ch) => w.close(ch),
    }
    assert_eq!(w.misrouted(), 0, "payload queued for an unbound channel");
    let hub = w.hub();
    for c in 0..CHANNELS {
        match hub.site_of(c) {
            Some(s) => assert_eq!(hub.channel_of(s), Some(c)),
            None => assert_eq!(w.queued_on(c), 0, "payload queued for unbound channel {c}"),
        }
    }
    for s in 0..SITES {
        if let Some(c) = hub.channel_of(site(s)) {
            assert_eq!(hub.site_of(c), Some(site(s)));
        }
    }
}

/// Rebind every site and drain: every replica holds exactly the
/// notifier's document and every broadcast sent to it, once.
fn settle(mut w: StarWorld) {
    for s in 0..SITES {
        if w.hub().channel_of(site(s)).is_none() {
            // A free site's honest hello binds (`honest_hello` checks).
            let free = (0..CHANNELS).find(|&c| w.hub().site_of(c).is_none());
            honest_hello(&mut w, s, free.expect("more channels than sites"));
        }
    }
    for c in 0..CHANNELS {
        if w.queued_on(c) > 0 {
            apply(&mut w, Event::Deliver(c));
        }
    }
    assert_eq!(w.misrouted(), 0, "a rebind's catch-up went astray");
    let n = w.notifier();
    for r in w.clients() {
        let sv = r.state_vector();
        assert_eq!(r.doc(), n.doc(), "{} diverged", r.site());
        assert_eq!(
            sv.received(),
            n.state_vector().compress_for(r.site()).get(1)
        );
        assert_eq!(Ok(sv.generated()), n.state_vector().received_from(r.site()));
    }
    assert_eq!(n.metrics().protocol_errors, 0);
    assert_eq!(n.active_clients(), SITES);
}

fn explore(w: &StarWorld, depth: usize, visited: &mut u64) {
    *visited += 1;
    settle(w.clone());
    if depth == 0 {
        return;
    }
    for ev in enabled(w) {
        let mut next = w.clone();
        apply(&mut next, ev);
        explore(&next, depth - 1, visited);
    }
}

/// Every sequence of at most [`DEPTH`] hellos (honest frontier, any
/// unbound channel), ops from bound sites, deliveries and closes over 2
/// sites × 3 channels of the star world: the table stays a partial
/// bijection, nothing is queued for an unbound channel, every delivered
/// broadcast applies, and rebinding everyone converges with nothing lost
/// or duplicated.
#[test]
fn every_short_interleaving_of_hellos_ops_deliveries_and_closes_converges() {
    let mut visited = 0;
    explore(&unbound_world(), DEPTH, &mut visited);
    assert_eq!(visited, 63_697, "the scope changed");
}
