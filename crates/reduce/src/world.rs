//! The transport-free star: site 0, its clients and the FIFO channels
//! between them, stepped one action at a time.
//!
//! Section 5's claim — the two-integer stamps capture Definition-1
//! causality — is about exactly this state and nothing more: one notifier,
//! N client replicas, and FIFO order on every channel (the guarantee
//! formulas (5) and (7) lean on). [`StarWorld`] holds it the way the TCP
//! tier does: the one [`Hub`] over any [`NotifierCore`], log-less or
//! durable; one [`Client`] per site with an up FIFO of the ops it sent;
//! and one down FIFO per channel holding the [`Payload`]s the hub queued
//! there — the bytes an op's broadcast frame encodes once. Channels are
//! `usize`: the constructor binds client index `i` to channel `i`, and a
//! join binds a fresh one. Its actions:
//!
//! * [`StarWorld::edit`] — a local edit at a site, queued on its up FIFO;
//! * [`StarWorld::deliver_up`] — the head of a site's up FIFO through
//!   [`Hub::on_msg`] on the site's bound channel;
//! * [`StarWorld::deliver_down`] — the head of a site's channel, one
//!   message, through [`decode_payload`] and [`Client::try_on_server_op`];
//! * [`StarWorld::gc`] — a site's replica collects its history;
//! * [`StarWorld::hello`] — a site's replica presents its real `T[1]` on a
//!   channel, and the hub's catch-up is queued there;
//! * [`StarWorld::close`] — a channel is unbound and what was queued down
//!   on it dies; the site's up FIFO survives, as a client re-sends what
//!   the hub has not integrated;
//! * [`StarWorld::join`] and [`StarWorld::leave`] — membership, through
//!   [`Hub::join`] and [`NotifierCore::integrate_eviction`].
//!
//! A step that costs a connection on TCP ([`Step::sheds`]) closes the
//! world's channel too: an op the notifier rejects evicts its site and
//! drops what was queued for it. A send the hub addresses to a channel it
//! has not bound is counted ([`StarWorld::misrouted`]), never queued. Each action returns the engine's outcome
//! or its typed [`ProtocolError`]; delivering from an empty or unbound
//! channel is `Ok(None)`. Which action comes next is the caller's —
//! [`StarWorld::moves`] lists the work a walk can do: a seeded walk
//! audited by the Definition-1 oracle ([`crate::verify`]), a server's
//! integration log (`cvc-net`'s twin), the paper's walkthroughs
//! ([`crate::scenario`]), the exhaustive checks. No RNG, oracle, clock or
//! panic lives here. The clients do not model acks: a payload carrying no
//! op (a `ServerAck`, which only a notifier set to send acks queues) is
//! consumed as `Ok(None)`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::client::{Client, ClientIntegration};
use crate::core::NotifierCore;
use crate::error::ProtocolError;
use crate::hub::{Hub, Step};
use crate::msg::{decode_payload, ClientAckMsg, ClientOpMsg, EditorMsg, Payload};
use crate::notifier::{Notifier, NotifierOutcome};
use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use std::collections::VecDeque;

/// One member's replica and the ops it sent that the hub has not taken.
#[derive(Debug, Clone)]
struct Seat {
    client: Client,
    up: VecDeque<ClientOpMsg>,
}

/// One unit of work a walk over the star can do ([`StarWorld::moves`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// The site's user edits its replica.
    Edit(SiteId),
    /// The head of the site's up FIFO reaches the hub.
    Up(SiteId),
    /// The head of the site's channel reaches its replica.
    Down(SiteId),
}

/// The star (see the module docs).
#[derive(Debug, Clone)]
pub struct StarWorld {
    hub: Hub<usize>,
    /// Client index → its seat; `None` once the site left.
    seats: Vec<Option<Seat>>,
    /// Channel → the payloads queued down on it.
    down: Vec<VecDeque<Payload>>,
    /// Payloads the hub addressed to a channel it had not bound.
    misrouted: u64,
}

impl StarWorld {
    /// A star around `core`, each of its sites a client starting from the
    /// notifier's document and bound to its own channel. Clients keep a
    /// flight recorder when the notifier does.
    pub fn new(core: NotifierCore) -> Self {
        let doc = core.notifier().doc();
        let n = core.notifier().n_clients();
        let mut world = StarWorld {
            hub: Hub::new(core),
            seats: Vec::new(),
            down: Vec::new(),
            misrouted: 0,
        };
        for i in 0..n {
            world.seat_client(SiteId::from_client_index(i), &doc);
        }
        world
    }

    /// Seat `site`'s fresh replica, bound to a fresh channel.
    fn seat_client(&mut self, site: SiteId, doc: &str) {
        let mut client = Client::new(site, doc);
        client.set_flight_recorder(self.notifier().recorder().is_enabled());
        self.seats.push(Some(Seat {
            client,
            up: VecDeque::new(),
        }));
        self.hub.bind(self.down.len(), site);
        self.down.push(VecDeque::new());
    }

    /// `site`'s seat, provided it is a member.
    fn seat(&mut self, site: SiteId) -> Result<&mut Seat, ProtocolError> {
        let n_clients = self.seats.len();
        match (site.0 as usize)
            .checked_sub(1)
            .and_then(|i| self.seats.get_mut(i))
        {
            Some(Some(seat)) => Ok(seat),
            Some(None) => Err(ProtocolError::DepartedSite { site }),
            None => Err(ProtocolError::UnknownSite { site, n_clients }),
        }
    }

    /// The hub: its core, and who is bound to which channel.
    pub fn hub(&self) -> &Hub<usize> {
        &self.hub
    }

    /// The core's named mutators (promotion, clock, lifecycle notes).
    pub fn core_mut(&mut self) -> &mut NotifierCore {
        self.hub.core_mut()
    }

    /// The notifier's replica.
    pub fn notifier(&self) -> &Notifier {
        self.hub.notifier()
    }

    /// `site`'s seat, if it has one.
    fn seated(&self, site: SiteId) -> Option<&Seat> {
        let i = (site.0 as usize).checked_sub(1)?;
        self.seats.get(i)?.as_ref()
    }

    /// `site`'s replica, while it is seated (an evicted site keeps its
    /// replica; a site that left does not).
    pub fn client(&self, site: SiteId) -> Option<&Client> {
        self.seated(site).map(|s| &s.client)
    }

    /// Every seated replica, in site order.
    pub fn clients(&self) -> impl Iterator<Item = &Client> {
        self.seats.iter().flatten().map(|s| &s.client)
    }

    /// Messages queued for `site`: `(up, down)` — the ops it sent that the
    /// hub has not taken, and the payloads on its bound channel.
    pub fn queued(&self, site: SiteId) -> (usize, usize) {
        let down = self.hub.channel_of(site).map_or(0, |ch| self.queued_on(ch));
        (self.seated(site).map_or(0, |s| s.up.len()), down)
    }

    /// Payloads queued down on channel `ch`.
    pub fn queued_on(&self, ch: usize) -> usize {
        self.down.get(ch).map_or(0, VecDeque::len)
    }

    /// Payloads the hub addressed to a channel it had not bound at the
    /// time — read by nobody, so counted here instead of queued. A correct
    /// hub keeps this at 0.
    pub fn misrouted(&self) -> u64 {
        self.misrouted
    }

    /// The work a walk can do next when client index `i` may still make
    /// `budget[i]` edits: per seated site in site order, its edit (budget
    /// left), its up delivery (an op queued and a channel bound) and its
    /// down delivery (a payload queued). The seeded walks index this
    /// list, so its order is pinned by E8's and E11's goldens.
    pub fn moves(&self, budget: &[usize]) -> Vec<Move> {
        let mut moves = Vec::new();
        for (i, &left) in budget.iter().enumerate() {
            let site = SiteId::from_client_index(i);
            let (up, down) = self.queued(site);
            if left > 0 && self.client(site).is_some() {
                moves.push(Move::Edit(site));
            }
            if up > 0 && self.hub.channel_of(site).is_some() {
                moves.push(Move::Up(site));
            }
            if down > 0 {
                moves.push(Move::Down(site));
            }
        }
        moves
    }

    /// `site`'s user edits its replica (`user` generates and executes the
    /// op, the paper's rule 3); the op is queued up and its stamp returned.
    pub fn edit(
        &mut self,
        site: SiteId,
        user: impl FnOnce(&mut Client) -> Result<ClientOpMsg, ProtocolError>,
    ) -> Result<CompressedStamp, ProtocolError> {
        let seat = self.seat(site)?;
        let msg = user(&mut seat.client)?;
        let stamp = msg.stamp;
        seat.up.push_back(msg);
        Ok(stamp)
    }

    /// The head of `site`'s up FIFO reaches the hub on the site's channel;
    /// the broadcasts are queued on their destinations' channels. A
    /// rejected op evicts the site and closes its channel. A site with no
    /// channel holds its ops until a hello binds one.
    pub fn deliver_up(&mut self, site: SiteId) -> Result<Option<NotifierOutcome>, ProtocolError> {
        let ch = self.hub.channel_of(site);
        let seat = self.seat(site)?;
        let Some(ch) = ch else { return Ok(None) };
        let Some(msg) = seat.up.pop_front() else {
            return Ok(None);
        };
        match self.feed(ch, EditorMsg::ClientOp(msg)) {
            Step::Op(out) => Ok(Some(out)),
            Step::Evicted(_, e) => Err(e),
            // A bound channel's op integrates or evicts.
            _ => Ok(None),
        }
    }

    /// `site`'s client integrates the head of its channel: one payload is
    /// one message, a `ServerOp` it integrates or a `ServerAck` it consumes
    /// (`Ok(None)`). Anything else — bytes that do not decode, a compound,
    /// an upstream kind — closes the channel, as a client hangs up on a
    /// stream it cannot read.
    pub fn deliver_down(
        &mut self,
        site: SiteId,
    ) -> Result<Option<ClientIntegration>, ProtocolError> {
        self.seat(site)?;
        let Some(ch) = self.hub.channel_of(site) else {
            return Ok(None);
        };
        let Some(payload) = self.down.get_mut(ch).and_then(VecDeque::pop_front) else {
            return Ok(None);
        };
        let mut msgs = Vec::new();
        let msg = match decode_payload(payload.chunks(), &mut msgs) {
            Ok(()) if msgs.len() == 1 => msgs.pop(),
            _ => None,
        };
        match msg {
            Some(EditorMsg::ServerOp(op)) => self.seat(site)?.client.try_on_server_op(op).map(Some),
            Some(EditorMsg::ServerAck(_)) => Ok(None),
            _ => {
                self.close(ch);
                Ok(None)
            }
        }
    }

    /// `site`'s replica collects its history buffer — a local step that
    /// sends nothing; the number of entries collected.
    pub fn gc(&mut self, site: SiteId) -> Result<usize, ProtocolError> {
        Ok(self.seat(site)?.client.gc())
    }

    /// `site`'s replica says hello on `ch` with its real frontier `T[1]`;
    /// the hub's step, its catch-up queued on `ch` when it binds.
    pub fn hello(&mut self, site: SiteId, ch: usize) -> Result<Step, ProtocolError> {
        let received = self.seat(site)?.client.state_vector().received();
        let hello = ClientAckMsg {
            origin: site,
            received,
        };
        // Every channel that spoke has a queue, so a join's fresh channel
        // (the next past them) is nobody's.
        if ch >= self.down.len() {
            self.down.resize_with(ch + 1, VecDeque::new);
        }
        Ok(self.feed(ch, EditorMsg::ClientAck(hello)))
    }

    /// Channel `ch` closes: unbound, and whatever was queued down on it
    /// is gone.
    pub fn close(&mut self, ch: usize) {
        self.hub.unbind(ch);
        if let Some(q) = self.down.get_mut(ch) {
            q.clear();
        }
    }

    /// One message on `ch` through the hub, taken the way the TCP core
    /// takes it: each send is queued on its channel — every bound channel
    /// has a queue; a send to one the hub has not bound is counted as
    /// [`StarWorld::misrouted`] — and only then does a step that sheds
    /// close `ch`.
    fn feed(&mut self, ch: usize, msg: EditorMsg) -> Step {
        let mut sends = Vec::new();
        let step = self.hub.on_msg(ch, msg, &mut sends);
        for (c, payload) in sends {
            match self.down.get_mut(c) {
                Some(q) if self.hub.site_of(c).is_some() => q.push_back(payload),
                _ => self.misrouted += 1,
            }
        }
        if step.sheds() {
            self.close(ch);
        }
        step
    }

    /// A newcomer joins from the notifier's current document, on a fresh
    /// channel; its site. `None` when the core has a log: a join is not a
    /// record.
    pub fn join(&mut self) -> Option<SiteId> {
        let (site, doc) = self.hub.join()?;
        self.seat_client(site, &doc);
        Some(site)
    }

    /// `site` leaves: the notifier evicts it, its channel closes, and its
    /// replica goes with whatever it had not sent.
    pub fn leave(&mut self, site: SiteId) -> Result<(), ProtocolError> {
        self.core_mut().integrate_eviction(site)?;
        if let Some(ch) = self.hub.channel_of(site) {
            self.close(ch);
        }
        if let Some(seat) = self.seats.get_mut(site.client_index()) {
            *seat = None;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;

    fn star(n: usize, doc: &str) -> StarWorld {
        StarWorld::new(NotifierCore::new(Notifier::new(n, doc), None, None))
    }

    #[test]
    fn a_two_site_script_converges() {
        let (s1, s2) = (SiteId(1), SiteId(2));
        let mut w = star(2, "ab");
        // Concurrent edits; site 1's reaches the notifier first.
        w.edit(s1, |c| Ok(c.insert(0, "x"))).expect("member");
        w.edit(s2, |c| Ok(c.insert(2, "y"))).expect("member");
        let out = w.deliver_up(s1).expect("valid").expect("queued");
        assert_eq!(out.stamps, vec![(s2, CompressedStamp::new(1, 0))]);
        w.deliver_up(s2).expect("valid").expect("queued");
        assert_eq!(w.queued(s1), (0, 1));
        let at_2 = w.deliver_down(s2).expect("valid").expect("queued");
        assert_eq!(at_2.checked, vec![true], "concurrent with site 2's op");
        w.deliver_down(s1).expect("valid").expect("queued");
        assert_eq!(w.notifier().doc(), "xaby");
        assert!(w.clients().all(|c| c.doc() == "xaby"));
    }

    #[test]
    fn empty_channels_and_strangers_are_typed_not_panics() {
        let mut w = star(2, "");
        assert!(w.deliver_up(SiteId(1)).expect("member").is_none());
        assert!(w.deliver_down(SiteId(2)).expect("member").is_none());
        for stranger in [SiteId(0), SiteId(3)] {
            assert!(matches!(
                w.deliver_down(stranger),
                Err(ProtocolError::UnknownSite { .. })
            ));
            assert_eq!(w.queued(stranger), (0, 0));
        }
        w.edit(SiteId(2), |c| Ok(c.insert(0, "z"))).expect("member");
        w.leave(SiteId(2)).expect("a member");
        assert!(matches!(
            w.deliver_up(SiteId(2)),
            Err(ProtocolError::DepartedSite { .. })
        ));
        assert!(w.leave(SiteId(2)).is_err(), "already out");
        assert_eq!(w.join(), Some(SiteId(3)));
        assert_eq!(w.clients().count(), 2);
    }

    /// An op the notifier rejects costs its site what it costs on TCP: the
    /// hub evicts the site and the world closes its channel, so the
    /// broadcast queued for it is gone, a later hello is refused, and the
    /// members left converge.
    #[test]
    fn a_rejected_op_evicts_its_site_and_closes_its_channel() {
        let (s1, s2, s3) = (SiteId(1), SiteId(2), SiteId(3));
        let mut w = star(3, "ab");
        w.edit(s2, |c| Ok(c.insert(0, "x"))).expect("member");
        w.deliver_up(s2).expect("valid").expect("queued");
        assert_eq!(w.queued(s1), (0, 1));
        // Site 1 skips a sequence number: a FIFO gap at the notifier.
        w.edit(s1, |c| {
            let mut op = c.insert(2, "y");
            op.stamp = CompressedStamp::new(0, 2);
            Ok(op)
        })
        .expect("member");
        assert!(matches!(
            w.deliver_up(s1),
            Err(ProtocolError::FifoViolation { .. })
        ));
        assert!(!w.notifier().is_active(s1));
        assert_eq!(w.hub().channel_of(s1), None);
        assert_eq!(w.queued(s1), (0, 0), "its broadcast died with the channel");
        assert!(matches!(w.hello(s1, 9), Ok(Step::Refused)));
        assert_eq!(w.hub().site_of(9), None);
        w.deliver_down(s3).expect("valid").expect("queued");
        assert_eq!(w.queued(s2), (0, 0), "nothing for the author");
        for s in [s2, s3] {
            assert_eq!(w.client(s).expect("seated").doc(), w.notifier().doc());
        }
        assert_eq!(w.notifier().doc(), "xab");
        assert_eq!(w.misrouted(), 0);
    }
}
