//! The transport-free star: site 0, its clients and the FIFO channels
//! between them, stepped one action at a time.
//!
//! Section 5's claim — the two-integer stamps capture Definition-1
//! causality — is about exactly this state and nothing more: one notifier,
//! N client replicas, and FIFO order on every channel (the guarantee
//! formulas (5) and (7) lean on). [`StarWorld`] holds it the way the TCP
//! tier does: the one [`Hub`] over any [`NotifierCore`], log-less or
//! durable; one seat per site with its replica — the paper's streaming
//! [`Client`], or the [`ComposingClient`] a composing session (E12) seats
//! — and an up FIFO of the [`Payload`]s it sent; and one down FIFO per
//! channel holding the payloads the hub queued there — the bytes an op's
//! broadcast frame encodes once. Channels are `usize`: the constructor
//! binds client index `i` to channel `i`, and a join binds a fresh one.
//! Its actions:
//!
//! * [`StarWorld::edit`] / [`StarWorld::perform`] — a local edit at a
//!   site, queued on its up FIFO;
//! * [`StarWorld::deliver_up`] — the head of a site's up FIFO
//!   ([`StarWorld::pop_up`]) received on the site's bound channel
//!   ([`StarWorld::receive_up`]: one message through [`Hub::on_msg`]);
//! * [`StarWorld::deliver_down`] — the head of a site's channel
//!   ([`StarWorld::pop_down`]) received by its replica
//!   ([`StarWorld::receive_down`]: one message through
//!   [`decode_payload`] and [`Client::try_on_server_op`]);
//! * [`StarWorld::gc`] — a site's replica collects its history;
//! * [`StarWorld::take_pending_ack`] — a quiet site queues the bare ack
//!   it owes the notifier, unless its hello's answer is still arriving;
//!   [`StarWorld::send`] queues any message as the site's;
//! * [`StarWorld::hello`] — a site's replica opens a hello
//!   ([`StarWorld::open_hello`]) and presents it on a channel, and the
//!   hub's catch-up is queued there. The frontier is
//!   [`Client::hello_frontier`] of the count the seat's last answer
//!   reported: a hello integrates like an ack, so it is held back to the
//!   oldest op the site may re-send. While the hello is open the replica
//!   skips catch-up ops at or below its `T[1]`, the repeats a held-back
//!   frontier asks for;
//! * [`StarWorld::answer`] — the `ServerAck{acked: integrated}` that ends
//!   a hello's answer reaches the replica: a trimmed hello (its channel
//!   closed behind the answer) whose frontier is shorter than that count
//!   says hello once more, exactly; otherwise the hello closes and
//!   [`Client::unacked_local_since`] is queued up;
//! * [`StarWorld::close`] — a channel is unbound and what was queued down
//!   on it dies; the site's up FIFO survives, as a client re-sends what
//!   the hub has not integrated;
//! * [`StarWorld::crash`] — the notifier dies: every channel closes and
//!   the warm standby is promoted in its place;
//! * [`StarWorld::join`] and [`StarWorld::leave`] — membership, through
//!   [`Hub::join`] and [`NotifierCore::integrate_eviction`].
//!
//! A step that costs a connection on TCP ([`Step::sheds`]) closes the
//! world's channel too: an op the notifier rejects evicts its site and
//! drops what was queued for it. A send the hub addresses to a channel it
//! has not bound is counted ([`StarWorld::misrouted`]), never queued.
//! Each action returns the engine's outcome or its typed
//! [`ProtocolError`]; delivering from an empty or unbound channel is
//! `Ok(None)`. Which action comes next is the caller's —
//! [`StarWorld::moves`] lists the work a walk can do: a seeded walk
//! audited by the Definition-1 oracle ([`crate::verify`]), a server's
//! integration log (`cvc-net`'s twin), the paper's walkthroughs
//! ([`crate::scenario`]), the exhaustive checks. A timed session pops
//! each send the moment it is queued and carries its bytes through the
//! simulator's channels, whose latency draws decide when the matching
//! receive happens — a plain one ([`crate::session`]) as bare payloads, a
//! session over connections ([`crate::reliable`]) in framed write rounds,
//! feeding each message of a frame to [`StarWorld::feed`],
//! [`StarWorld::take_op`] or [`StarWorld::answer`];
//! [`StarWorld::set_now`] stamps that time on the recorders. No RNG,
//! oracle or panic lives here. [`StarWorld::receive_down`] consumes a
//! `ServerAck` at a streaming replica as `Ok(None)` (only a notifier set
//! to send acks queues one); a composing one releases its next op on it.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::client::{Client, ClientIntegration};
use crate::composing::ComposingClient;
use crate::core::NotifierCore;
use crate::error::ProtocolError;
use crate::hub::{Hub, Step};
use crate::msg::{decode_payload, ClientAckMsg, ClientOpMsg, EditorMsg, Payload, ServerOpMsg};
use crate::notifier::{Notifier, NotifierOutcome};
use crate::recorder::{EventKind, FlightEvent};
use crate::reliable::CrashPoint;
use crate::session::{ClientMode, SessionConfig};
use crate::workload::EditIntent;
use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use std::collections::VecDeque;

/// A member's replica: the paper's, or the composing variant.
#[derive(Debug, Clone)]
enum Replica {
    Streaming(Box<Client>),
    Composing(Box<ComposingClient>),
}

/// One member's replica, the messages it sent that the hub has not
/// taken, and where its reconnect stands.
#[derive(Debug, Clone)]
struct Seat {
    replica: Replica,
    up: VecDeque<Payload>,
    /// Ops of this site the last hello's answer said the notifier had
    /// integrated: a lower bound the next hello's frontier starts from.
    integrated: u64,
    /// A streaming replica's open hello, `(frontier, T[1] when said)`,
    /// until the `ServerAck` that ends its answer arrives.
    hello: Option<(u64, u64)>,
}

impl Seat {
    /// Queue an op the replica generated; the op, as built.
    fn send_op(&mut self, op: ClientOpMsg) -> ClientOpMsg {
        let msg = EditorMsg::ClientOp(op);
        self.up.push_back(Payload::encode(&msg));
        let EditorMsg::ClientOp(op) = msg else {
            unreachable!("wrapped above")
        };
        op
    }

    /// The replica, when it streams.
    fn streaming(&self) -> Option<&Client> {
        match &self.replica {
            Replica::Streaming(c) => Some(c.as_ref()),
            Replica::Composing(_) => None,
        }
    }
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

impl Move {
    /// The site the move is at.
    pub fn site(self) -> SiteId {
        match self {
            Move::Edit(s) | Move::Up(s) | Move::Down(s) => s,
        }
    }
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
    /// Virtual time (µs) stamped on the recorders a step touches.
    now: u64,
}

impl StarWorld {
    /// A star around `core`, each of its sites a streaming client starting
    /// from the notifier's document and bound to its own channel. Clients
    /// keep a flight recorder when the notifier does.
    pub fn new(core: NotifierCore) -> Self {
        let doc = core.notifier().doc();
        let n = core.notifier().n_clients();
        let mut world = StarWorld {
            hub: Hub::new(core),
            seats: Vec::new(),
            down: Vec::new(),
            misrouted: 0,
            now: 0,
        };
        for i in 0..n {
            world.seat_client(SiteId::from_client_index(i), &doc);
        }
        world
    }

    /// The star a timed session steps: [`StarWorld::new`] around `cfg`'s
    /// notifier core (`SessionConfig::core`) with its replicas in the
    /// seats — streaming clients with its settings
    /// (`SessionConfig::client`) or, in composing mode, composing ones.
    pub fn for_session(cfg: &SessionConfig) -> Self {
        let mut world = Self::new(cfg.core());
        for (i, seat) in world.seats.iter_mut().flatten().enumerate() {
            let site = SiteId::from_client_index(i);
            seat.replica = match cfg.client_mode {
                ClientMode::Streaming => Replica::Streaming(Box::new(cfg.client(site))),
                ClientMode::Composing => {
                    Replica::Composing(Box::new(ComposingClient::new(site, &cfg.initial_doc)))
                }
            };
        }
        world
    }

    /// Seat `site`'s fresh replica, bound to a fresh channel.
    fn seat_client(&mut self, site: SiteId, doc: &str) {
        let mut client = Client::new(site, doc);
        client.set_flight_recorder(self.notifier().recorder().is_enabled());
        self.seats.push(Some(Seat {
            replica: Replica::Streaming(Box::new(client)),
            up: VecDeque::new(),
            integrated: 0,
            hello: None,
        }));
        self.hub.bind(self.down.len(), site);
        self.down.push(VecDeque::new());
    }

    /// `site`'s seat, provided it is a member, its recorder at the
    /// world's time.
    fn seat(&mut self, site: SiteId) -> Result<&mut Seat, ProtocolError> {
        let (n_clients, now) = (self.seats.len(), self.now);
        match (site.0 as usize)
            .checked_sub(1)
            .and_then(|i| self.seats.get_mut(i))
        {
            Some(Some(seat)) => {
                if let Replica::Streaming(c) = &mut seat.replica {
                    c.set_now(now);
                }
                Ok(seat)
            }
            Some(None) => Err(ProtocolError::DepartedSite { site }),
            None => Err(ProtocolError::UnknownSite { site, n_clients }),
        }
    }

    /// The virtual time (µs) every later step stamps on the flight
    /// recorders it touches: the notifier's now, a replica's when it acts.
    pub fn set_now(&mut self, now_us: u64) {
        self.now = now_us;
        self.hub.core_mut().set_now(now_us);
    }

    /// The hub: its core, and who is bound to which channel.
    pub fn hub(&self) -> &Hub<usize> {
        &self.hub
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

    /// `site`'s streaming replica, while it is seated (an evicted site
    /// keeps its replica; a site that left does not).
    pub fn client(&self, site: SiteId) -> Option<&Client> {
        self.seated(site)?.streaming()
    }

    /// `site`'s composing replica, while it is seated.
    pub fn composing(&self, site: SiteId) -> Option<&ComposingClient> {
        match &self.seated(site)?.replica {
            Replica::Composing(c) => Some(c.as_ref()),
            Replica::Streaming(_) => None,
        }
    }

    /// Every seated streaming replica, in site order.
    pub fn clients(&self) -> impl Iterator<Item = &Client> {
        self.seats.iter().flatten().filter_map(Seat::streaming)
    }

    /// Messages queued for `site`: `(up, down)` — the messages it sent
    /// that the hub has not taken, and the payloads on its bound channel.
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

    /// `site`'s user edits its streaming replica (`user` generates and
    /// executes the op, the paper's rule 3); the op is queued up and its
    /// stamp returned. A composing seat is no streaming site
    /// (`UnknownSite`): its edits are intents ([`StarWorld::perform`]).
    pub fn edit(
        &mut self,
        site: SiteId,
        user: impl FnOnce(&mut Client) -> Result<ClientOpMsg, ProtocolError>,
    ) -> Result<CompressedStamp, ProtocolError> {
        let n_clients = self.seats.len();
        let seat = self.seat(site)?;
        let Replica::Streaming(client) = &mut seat.replica else {
            return Err(ProtocolError::UnknownSite { site, n_clients });
        };
        let op = user(client)?;
        Ok(seat.send_op(op).stamp)
    }

    /// `site`'s user performs `intent` on its replica, of either kind;
    /// the op it sends, as built and queued up, if it sends one.
    pub fn perform(
        &mut self,
        site: SiteId,
        intent: &EditIntent,
    ) -> Result<Option<ClientOpMsg>, ProtocolError> {
        let seat = self.seat(site)?;
        let sent = match &mut seat.replica {
            Replica::Streaming(c) => intent.apply_to(c),
            Replica::Composing(c) => intent.apply_to_composing(c),
        };
        Ok(sent.map(|op| seat.send_op(op)))
    }

    /// A quiet streaming replica at `site` owes the notifier a bare ack
    /// ([`Client::take_pending_ack`]): it is queued up. Only a timed
    /// session asks, so the walks' move lists never hold an ack. Not while
    /// its hello is open: an ack covering the catch-up would overtake the
    /// re-sends the answer releases, and the notifier would prune the
    /// context they still transform against. The ack stays latched and
    /// goes out behind them.
    pub fn take_pending_ack(&mut self, site: SiteId) {
        if let Ok(Seat {
            replica: Replica::Streaming(c),
            up,
            hello: None,
            ..
        }) = self.seat(site)
        {
            up.extend(
                c.take_pending_ack()
                    .map(|a| Payload::encode(&EditorMsg::ClientAck(a))),
            );
        }
    }

    /// `site` sends `msg` up its FIFO without its replica acting: a
    /// courtesy ack, or whatever a hostile peer says in its name.
    pub fn send(&mut self, site: SiteId, msg: &EditorMsg) -> Result<(), ProtocolError> {
        self.seat(site)?.up.push_back(Payload::encode(msg));
        Ok(())
    }

    /// The head of `site`'s up FIFO, taken off it: the bytes the site
    /// sends next, wherever they go.
    pub fn pop_up(&mut self, site: SiteId) -> Option<Payload> {
        self.seat(site).ok()?.up.pop_front()
    }

    /// The head of channel `ch`'s down FIFO, taken off it.
    pub fn pop_down(&mut self, ch: usize) -> Option<Payload> {
        self.down.get_mut(ch)?.pop_front()
    }

    /// The sends the integration `out` queued, taken off their channels in
    /// the order the hub produced them — the broadcasts in destination
    /// order, then the ack — which is the order a timed session puts them
    /// on the wire.
    pub fn pop_sends(&mut self, out: &NotifierOutcome) -> Vec<(usize, Payload)> {
        let (hub, down) = (&self.hub, &mut self.down);
        let acked = out.ack.as_ref().map(|&(d, _)| d);
        let chans = out.stamps.iter().map(|&(d, _)| d).chain(acked);
        let chans = chans.filter_map(|d| hub.channel_of(d));
        chans
            .filter_map(|ch| Some((ch, down.get_mut(ch)?.pop_front()?)))
            .collect()
    }

    /// The head of `site`'s up FIFO reaches the hub on the site's channel
    /// ([`StarWorld::receive_up`]). A site with no channel holds its
    /// messages until a hello binds one.
    pub fn deliver_up(&mut self, site: SiteId) -> Result<Option<NotifierOutcome>, ProtocolError> {
        let ch = self.hub.channel_of(site);
        let seat = self.seat(site)?;
        let Some(ch) = ch else { return Ok(None) };
        match seat.up.pop_front() {
            Some(payload) => self.receive_up(ch, &payload),
            None => Ok(None),
        }
    }

    /// `payload` arrives on channel `ch`: one message through the hub,
    /// its broadcasts queued on their destinations' channels. An op comes
    /// back as its outcome; a rejected op evicts the channel's site and
    /// closes the channel, as does a payload that is not one message.
    pub fn receive_up(
        &mut self,
        ch: usize,
        payload: &Payload,
    ) -> Result<Option<NotifierOutcome>, ProtocolError> {
        let Some(msg) = decode_one(payload) else {
            self.close(ch);
            return Ok(None);
        };
        match self.feed(ch, msg) {
            Step::Op(out) => Ok(Some(out)),
            Step::Evicted(_, e) => Err(e),
            _ => Ok(None),
        }
    }

    /// `site`'s replica integrates the head of its channel
    /// ([`StarWorld::receive_down`]).
    pub fn deliver_down(
        &mut self,
        site: SiteId,
    ) -> Result<Option<ClientIntegration>, ProtocolError> {
        self.seat(site)?;
        match self.hub.channel_of(site).and_then(|ch| self.pop_down(ch)) {
            Some(payload) => self.receive_down(site, &payload),
            None => Ok(None),
        }
    }

    /// `site`'s replica receives `payload`: one payload is one message, a
    /// `ServerOp` it takes ([`StarWorld::take_op`]) or a `ServerAck`; what
    /// a composing replica releases in answer is queued up. Anything else
    /// — bytes that do not decode, a compound, an upstream kind — closes
    /// the site's channel, as a client hangs up on a stream it cannot read.
    pub fn receive_down(
        &mut self,
        site: SiteId,
        payload: &Payload,
    ) -> Result<Option<ClientIntegration>, ProtocolError> {
        let seat = self.seat(site)?;
        let next = match (&mut seat.replica, decode_one(payload)) {
            (_, Some(EditorMsg::ServerOp(op))) => return self.take_op(site, op),
            (Replica::Streaming(_), Some(EditorMsg::ServerAck(_))) => None,
            (Replica::Composing(c), Some(EditorMsg::ServerAck(ack))) => c.on_server_ack(ack),
            _ => {
                if let Some(ch) = self.hub.channel_of(site) {
                    self.close(ch);
                }
                return Ok(None);
            }
        };
        if let Some(op) = next {
            seat.send_op(op);
        }
        Ok(None)
    }

    /// `site`'s replica takes one broadcast off its channel. A streaming
    /// replica integrates it and its integration comes back — unless its
    /// hello is open and the op is at or below its `T[1]`, a repeat the
    /// held-back frontier asked for, which it skips (`Ok(None)`). What a
    /// composing replica releases in answer is queued up.
    pub fn take_op(
        &mut self,
        site: SiteId,
        op: ServerOpMsg,
    ) -> Result<Option<ClientIntegration>, ProtocolError> {
        let seat = self.seat(site)?;
        let next = match &mut seat.replica {
            Replica::Streaming(c)
                if seat.hello.is_some() && op.stamp.get(1) <= c.state_vector().received() =>
            {
                return Ok(None)
            }
            Replica::Streaming(c) => return c.try_on_server_op(op).map(Some),
            Replica::Composing(c) => c.on_server_op(op)?.1,
        };
        if let Some(op) = next {
            seat.send_op(op);
        }
        Ok(None)
    }

    /// `site`'s replica collects its history buffer — a local step that
    /// sends nothing; the number of entries collected (a composing
    /// replica keeps no history).
    pub fn gc(&mut self, site: SiteId) -> Result<usize, ProtocolError> {
        Ok(match &mut self.seat(site)?.replica {
            Replica::Streaming(c) => c.gc(),
            Replica::Composing(_) => 0,
        })
    }

    /// `site`'s replica opens a hello: the [`ClientAckMsg`] it presents.
    /// A streaming replica's frontier is [`Client::hello_frontier`] of the
    /// count its last answer reported, and the hello stays open until
    /// [`StarWorld::answer`]; a composing one presents its `T[1]`.
    pub fn open_hello(&mut self, site: SiteId) -> Result<ClientAckMsg, ProtocolError> {
        let seat = self.seat(site)?;
        let received = match &seat.replica {
            Replica::Streaming(c) => {
                let frontier = c.hello_frontier(seat.integrated);
                seat.hello = Some((frontier, c.state_vector().received()));
                frontier
            }
            Replica::Composing(c) => c.state_vector().received(),
        };
        Ok(ClientAckMsg {
            origin: site,
            received,
        })
    }

    /// `site`'s replica says hello on `ch` ([`StarWorld::open_hello`]);
    /// the hub's step, its catch-up queued on `ch` when it binds.
    pub fn hello(&mut self, site: SiteId, ch: usize) -> Result<Step, ProtocolError> {
        let hello = self.open_hello(site)?;
        // Every channel that spoke has a queue, so a join's fresh channel
        // (the next past them) is nobody's.
        if ch >= self.down.len() {
            self.down.resize_with(ch + 1, VecDeque::new);
        }
        Ok(self.feed(ch, EditorMsg::ClientAck(hello)))
    }

    /// Whether `site` has a hello open: said, and its answer not ended.
    pub fn awaits_answer(&self, site: SiteId) -> bool {
        self.seated(site).is_some_and(|s| s.hello.is_some())
    }

    /// The `ServerAck{acked: integrated}` that ends the answer to `site`'s
    /// open hello reaches its replica. A frontier held back below ops the
    /// notifier had in fact integrated may have asked for a collected
    /// prefix; the hub then binds nothing, and the channel closes right
    /// behind the answer. Only such a trimmed hello with a short frontier
    /// is said again, exactly: the new hello comes back, for a new
    /// connection. A bound hello was served whatever its frontier, so the
    /// hello closes and the site's ops past the count are queued up to be
    /// re-sent. Without an open hello a streaming replica ignores the ack.
    pub fn answer(
        &mut self,
        site: SiteId,
        integrated: u64,
    ) -> Result<Option<ClientAckMsg>, ProtocolError> {
        let trimmed = self.hub.channel_of(site).is_none();
        let seat = self.seat(site)?;
        let (Some((frontier, received)), Replica::Streaming(c)) = (seat.hello, &seat.replica)
        else {
            return Ok(None);
        };
        seat.integrated = integrated;
        if trimmed && frontier < c.hello_frontier(integrated).min(received) {
            return self.open_hello(site).map(Some);
        }
        for op in c.unacked_local_since(integrated) {
            seat.up.push_back(Payload::encode(&EditorMsg::ClientOp(op)));
        }
        seat.hello = None;
        Ok(None)
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
    pub fn feed(&mut self, ch: usize, msg: EditorMsg) -> Step {
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

    /// The notifier dies at `point`: every channel closes — what was
    /// queued on it either way dies with the connections — and the warm
    /// standby, which has replayed exactly the logged history, is promoted
    /// in its place; the promoted recorder notes the `Crash` (ops
    /// integrated, the point) and the `Promote` (ops replayed, sites).
    /// Returns the standby's `(replayed ops, replayed acks)`; `None`
    /// without a standby, or the poisoning error when the log and the
    /// primary had disagreed. Each site then says hello again, and its
    /// answer ([`StarWorld::answer`]) releases the re-sends.
    pub fn crash(&mut self, point: CrashPoint) -> Option<Result<(u64, u64), ProtocolError>> {
        let ops = self.notifier().state_vector().total();
        (0..self.down.len()).for_each(|ch| self.close(ch));
        self.seats.iter_mut().flatten().for_each(|s| s.up.clear());
        let replay = self.hub.core_mut().promote()?;
        if let Ok((replayed, _)) = replay {
            let sites = self.seats.len() as u64;
            self.set_now(self.now);
            let core = self.hub.core_mut();
            let crash = FlightEvent::new(EventKind::Crash).with_ab(ops, point as u64);
            core.note_lifecycle(crash.with_detail(point.name()));
            let promote = FlightEvent::new(EventKind::Promote).with_ab(replayed, sites);
            core.note_lifecycle(promote.with_detail("standby-promoted"));
        }
        Some(replay)
    }

    /// This world with `notifier` in place of its notifier, on a core
    /// without a log or a standby: how a search checks that a notifier
    /// rebuilt from its snapshot goes on as the live one.
    pub(crate) fn with_notifier(&self, notifier: Notifier) -> StarWorld {
        let mut world = self.clone();
        *world.hub.core_mut() = NotifierCore::new(notifier, None, None);
        world
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
        self.hub.core_mut().integrate_eviction(site)?;
        if let Some(ch) = self.hub.channel_of(site) {
            self.close(ch);
        }
        if let Some(seat) = self.seats.get_mut(site.client_index()) {
            *seat = None;
        }
        Ok(())
    }
}

/// The star's protocol state, for a search's memo: what a restarted
/// notifier ([`Notifier::read_checkpoint`]) and the replicas would go on
/// from. That is the notifier's snapshot bytes
/// ([`Notifier::write_checkpoint`]: its whole state, its state vector's
/// received counts included) and each seat's channel, replica
/// ([`Client`]'s `Hash`; a composing replica is not hashed), up FIFO and
/// reconnect counts, then every channel's queue. No metrics, recorder or clock.
/// Every field is named, so a new one does not compile until it is hashed
/// or waived.
impl std::hash::Hash for StarWorld {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        let StarWorld {
            hub,
            seats,
            down,
            misrouted: _,
            now: _,
        } = self;
        let mut snapshot = Vec::new();
        hub.notifier().write_checkpoint(&mut snapshot);
        snapshot.hash(h);
        for (i, seat) in seats.iter().enumerate() {
            hub.channel_of(SiteId::from_client_index(i)).hash(h);
            if let Some(s) = seat {
                let Seat {
                    replica: _,
                    up,
                    integrated,
                    hello,
                } = s;
                (s.streaming(), up, integrated, hello).hash(h);
            }
        }
        down.hash(h);
    }
}

/// The one message `payload` carries; `None` for bytes that do not
/// decode, a compound, or trailing bytes.
fn decode_one(payload: &Payload) -> Option<EditorMsg> {
    let mut msgs = Vec::with_capacity(1);
    decode_payload(payload.chunks(), &mut msgs).ok()?;
    let msg = msgs.pop()?;
    msgs.is_empty().then_some(msg)
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
