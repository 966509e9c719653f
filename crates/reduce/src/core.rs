//! The durable notifier: one wiring of validate → log → mirror → compact.
//!
//! The paper's correctness argument rests on a single sequential site 0
//! that executes, transforms and re-broadcasts. [`NotifierCore`] is that
//! site made durable, as a pure fold over its input stream: it owns the
//! [`Notifier`], the optional write-ahead log, the optional warm standby
//! and the ack-frontier cursor, and exposes exactly one fallible door per
//! input kind — an operation ([`NotifierCore::integrate_op`]), a bare
//! acknowledgement ([`NotifierCore::integrate_ack`]) and an eviction
//! ([`NotifierCore::integrate_eviction`]). Each door runs the same four
//! steps in the same order —
//!
//! 1. **validate**: check the sender against the envelope, then integrate
//!    into the live notifier through its fallible path; a rejected input
//!    returns here, so it can never reach the log (recovery replays the
//!    log through the same path and would trip over it);
//! 2. **log**: append the record to the WAL;
//! 3. **mirror**: feed the same record to the warm standby;
//! 4. **compact**: give the log its look at a checkpoint —
//!
//! and only then hands the [`NotifierOutcome`] back. A driver can obtain
//! something to broadcast only from a record that is already durable:
//! append-before-broadcast is a property of the types, not of a comment.
//!
//! No clock, socket, simulator context, thread or `eprintln!` appears
//! here. Which channel speaks for which site is [`crate::hub::Hub`]'s
//! table beside this core; the epoll core thread (`cvc-net`'s
//! `server.rs`) drives a hub and owns only transport state (connections,
//! connection ids), and so does [`crate::world::StarWorld`] (every timed
//! simulated session, the verifier, the TCP twin, both walkthroughs, the
//! exhaustive checks) over whichever core it is given. Outside this module, only the hub calls its doors.
//! **Nothing outside this module calls [`Wal::append`], one of the
//! notifier's `try_on_client_*` entry points, [`Notifier::quarantine`] or
//! [`Notifier::add_client`]** — durable or not, and CI greps for it.
//!
//! Underneath sits [`apply`]: the one function that replays a
//! [`WalRecord`] into a notifier. The live path, [`Standby::observe`] and
//! [`crate::wal::WalRecovery::restore`] all call it, so the step function
//! a model checker would explore is the step function both servers run —
//! and primary, standby and recovery agree on membership as well as text.
//! A snapshot is not among its records: compaction writes the notifier's
//! own bytes ([`Notifier::write_checkpoint`]), and recovery reads them
//! back as a notifier.

use crate::error::ProtocolError;
use crate::msg::{ClientAckMsg, ClientOpMsg};
use crate::notifier::{Notifier, NotifierOutcome};
use crate::recorder::FlightEvent;
use crate::standby::Standby;
use crate::wal::{AckFrontierRecord, Wal, WalRecord};
use cvc_core::site::SiteId;

/// Integrated client acks per [`WalRecord::AckFrontier`] record. Recovery
/// replays the ack frontier at most this many acks stale — which only
/// makes the recovered notifier retain more history — in exchange for
/// 1/16th the ack-record framing overhead.
pub const ACK_FRONTIER_EVERY: u64 = 16;

/// Replay one log record into `notifier` — the single step function under
/// the live path, the warm standby and log recovery. Returns the
/// integration outcome for an [`WalRecord::Op`] (what the live path goes
/// on to broadcast; replayers drop it) and `None` for every other kind.
/// A record the notifier rejects surfaces as its own typed error with the
/// notifier untouched.
pub fn apply(
    notifier: &mut Notifier,
    rec: &WalRecord,
) -> Result<Option<NotifierOutcome>, ProtocolError> {
    match rec {
        WalRecord::Op(m) => return notifier.try_on_client_op_outcome(m.clone()).map(Some),
        WalRecord::Ack(m) => notifier.try_on_client_ack(*m)?,
        WalRecord::AckFrontier(f) => {
            // Advance each named client's watermark to the packed count.
            // Counts are cumulative and monotone, so an entry at or below
            // the current watermark — a frontier replayed after the
            // records it coalesced, or after a newer one — is a no-op, and
            // so is one for a client that has since left. An entry naming
            // a client outside the session is the one impossible shape:
            // it falls through to the notifier, whose `UnknownSite`
            // verdict fails the replay like any divergent record (index
            // `u32::MAX` has no site id; saturating keeps it outside).
            for &(idx, received) in &f.entries {
                let origin = SiteId(idx.saturating_add(1));
                let settled = notifier
                    .acked_by()
                    .get(idx as usize)
                    .is_some_and(|&have| received <= have || !notifier.is_active(origin));
                if !settled {
                    notifier.try_on_client_ack(ClientAckMsg { origin, received })?;
                }
            }
        }
        WalRecord::Evict(site) => notifier.quarantine(*site)?,
    }
    Ok(None)
}

/// The notifier plus its durability pipeline (see the module docs).
#[derive(Debug, Clone)]
pub struct NotifierCore {
    notifier: Notifier,
    /// Every integrated op — and a coalesced frontier of the integrated
    /// acks — lands here before the caller sees the outcome.
    wal: Option<Wal>,
    /// Warm standby fed record-by-record; consumed at promotion.
    standby: Option<Standby>,
    /// Client acks integrated since the log opened; drives the
    /// [`ACK_FRONTIER_EVERY`] coalescing cadence.
    acks_integrated: u64,
    /// The `acked_by` vector as of the last appended frontier record;
    /// each new frontier carries only the entries that advanced past
    /// this. Starts empty (treated as all-zero), so the first frontier
    /// simply names every client that has acked at all.
    frontier_flushed: Vec<u64>,
}

impl NotifierCore {
    /// Wrap a configured notifier. `wal: None` runs without durability
    /// (every step after *validate* is skipped); a standby without a log
    /// is meaningless and is never fed.
    pub fn new(notifier: Notifier, wal: Option<Wal>, standby: Option<Standby>) -> Self {
        NotifierCore {
            notifier,
            wal,
            standby,
            acks_integrated: 0,
            frontier_flushed: Vec::new(),
        }
    }

    /// Integrate one client operation that arrived on `from`'s channel.
    /// `Ok` means the operation executed *and* its record is durable and
    /// mirrored; the outcome carries the per-destination broadcasts. `Err`
    /// means it was rejected and nothing was logged — what that costs the
    /// sender is the driver's policy ([`NotifierCore::integrate_eviction`]).
    pub fn integrate_op(
        &mut self,
        from: SiteId,
        msg: ClientOpMsg,
    ) -> Result<NotifierOutcome, ProtocolError> {
        ProtocolError::check_sender(from, msg.origin)?;
        let rec = WalRecord::Op(msg);
        let Some(outcome) = apply(&mut self.notifier, &rec)? else {
            unreachable!("an op record always yields its outcome");
        };
        self.log(&rec);
        self.compact();
        Ok(outcome)
    }

    /// Integrate one bare client acknowledgement that arrived on `from`'s
    /// channel. Acks are part of the
    /// durable input stream — they drive GC and the `acked_by` cursors, so
    /// a standby that missed them would diverge — but per-ack records
    /// dominated the log byte-for-byte (E20 measured 22.6× write
    /// amplification at N=256). So every [`ACK_FRONTIER_EVERY`]-th
    /// integrated ack appends one packed [`WalRecord::AckFrontier`]
    /// carrying the `acked_by` entries that *changed* since the previous
    /// frontier, and the acks in between are elided. The delta shape
    /// matters: a window of W acks touches at most W entries, so each
    /// record is O(W) bytes regardless of session width — logging the
    /// whole vector would be O(N) per window and overtake the per-ack
    /// baseline once N outgrows the window. Compaction still gets its
    /// look on every ack, so the checkpoint cadence is unchanged.
    pub fn integrate_ack(&mut self, from: SiteId, msg: ClientAckMsg) -> Result<(), ProtocolError> {
        ProtocolError::check_sender(from, msg.origin)?;
        apply(&mut self.notifier, &WalRecord::Ack(msg))?;
        if self.wal.is_none() {
            return Ok(());
        }
        self.acks_integrated += 1;
        if self.acks_integrated.is_multiple_of(ACK_FRONTIER_EVERY) {
            let acked = self.notifier.acked_by();
            let entries: Vec<(u32, u64)> = acked
                .iter()
                .enumerate()
                .filter(|&(i, &a)| a > self.frontier_flushed.get(i).copied().unwrap_or(0))
                .map(|(i, &a)| (i as u32, a))
                .collect();
            if !entries.is_empty() {
                self.frontier_flushed = acked.to_vec();
                self.log(&WalRecord::AckFrontier(AckFrontierRecord { entries }));
            }
        }
        self.compact();
        Ok(())
    }

    /// Evict `site` from the session — the third input kind. Drivers pass
    /// the identity of the *channel* a violation arrived on, never the
    /// origin a message claimed. Membership gates broadcasts, GC and
    /// compaction, so an eviction is logged and mirrored like any other
    /// input. `Err` means `site` was not an active member: nothing changed
    /// and nothing was logged (a second violation on an evicted site's
    /// channel is routine; drivers ignore it).
    pub fn integrate_eviction(&mut self, site: SiteId) -> Result<(), ProtocolError> {
        let rec = WalRecord::Evict(site);
        apply(&mut self.notifier, &rec)?;
        self.log(&rec);
        self.compact();
        Ok(())
    }

    /// Admit a client mid-session: its site id and the document it starts
    /// from ([`Notifier::add_client`]). A join is not a log record, so a
    /// core with a log or a standby refuses and changes nothing (`None`):
    /// its recovery would rebuild a narrower session than the live one.
    pub fn add_client(&mut self) -> Option<(SiteId, String)> {
        if self.wal.is_some() || self.standby.is_some() {
            return None;
        }
        Some(self.notifier.add_client())
    }

    /// Steps 2 and 3 for one validated record: append, then mirror.
    fn log(&mut self, rec: &WalRecord) {
        let Some(wal) = &mut self.wal else { return };
        wal.append(rec);
        if let Some(sb) = &mut self.standby {
            // A record the shadow rejects poisons it (first error wins);
            // the verdict is retained there and refuses promotion later.
            let _ = sb.observe(rec);
        }
    }

    /// Step 4: cut a snapshot if one is due ([`Wal::maybe_compact`]).
    fn compact(&mut self) {
        if let Some(wal) = &mut self.wal {
            wal.maybe_compact(&self.notifier);
        }
    }

    /// Read access to the live notifier.
    pub fn notifier(&self) -> &Notifier {
        &self.notifier
    }

    /// The write-ahead log, when the core runs durable.
    pub fn wal(&self) -> Option<&Wal> {
        self.wal.as_ref()
    }

    /// The warm standby, until promotion consumes it.
    pub fn standby(&self) -> Option<&Standby> {
        self.standby.as_ref()
    }

    /// Advance the flight recorder's clock (see [`Notifier::set_now`]).
    #[inline]
    pub fn set_now(&mut self, now_us: u64) {
        self.notifier.set_now(now_us);
    }

    /// Record a driver lifecycle event (see [`Notifier::note_lifecycle`]).
    pub fn note_lifecycle(&mut self, ev: FlightEvent) {
        self.notifier.note_lifecycle(ev);
    }

    /// The primary died: swap the warm standby's notifier in for it.
    /// Returns the standby's `(replayed ops, replayed acks)`, `None` when
    /// there is no standby to promote, or the poisoning error when the
    /// log and the primary had disagreed — refusing to serve divergent
    /// state beats silent corruption. The promoted notifier inherits the
    /// dead primary's recorder settings and retained events (original
    /// timestamps preserved), so a failover still yields one continuous
    /// notifier trace; the log stays open and keeps extending.
    pub fn promote(&mut self) -> Option<Result<(u64, u64), ProtocolError>> {
        let standby = self.standby.take()?;
        let replay = (standby.replayed_ops(), standby.replayed_acks());
        Some(standby.promote().map(|mut promoted| {
            let black_box = self.notifier.recorder();
            promoted.set_flight_recorder_capacity(black_box.capacity());
            promoted.set_flight_recorder(black_box.is_enabled());
            promoted.absorb_recorder_events(&black_box.events());
            self.notifier = promoted;
            replay
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::notifier::ScanMode;
    use crate::wal::DEFAULT_COMPACT_EVERY;
    use cvc_core::state_vector::CompressedStamp;
    use cvc_ot::pos::PosOp;
    use cvc_ot::seq::SeqOp;

    fn op(origin: u32, t1: u64, t2: u64, pos: usize, text: &str, base: usize) -> ClientOpMsg {
        ClientOpMsg {
            origin: SiteId(origin),
            stamp: CompressedStamp::new(t1, t2),
            op: SeqOp::from_pos(&PosOp::insert(pos, text), base),
            cursor: None,
        }
    }

    fn snapshot(notifier: &Notifier) -> Vec<u8> {
        let mut buf = Vec::new();
        notifier.write_checkpoint(&mut buf);
        buf
    }

    /// Deliver `msg` on its origin's own channel, as an honest driver does.
    fn send(core: &mut NotifierCore, msg: ClientOpMsg) -> Result<NotifierOutcome, ProtocolError> {
        core.integrate_op(msg.origin, msg)
    }

    fn durable(n: usize, initial: &str) -> NotifierCore {
        NotifierCore::new(
            Notifier::new(n, initial),
            Some(Wal::new(DEFAULT_COMPACT_EVERY)),
            Some(Standby::new(n, initial, ScanMode::SuffixBounded)),
        )
    }

    #[test]
    fn rejected_input_never_reaches_the_log() {
        let mut core = durable(2, "");
        send(&mut core, op(1, 0, 1, 0, "a", 0)).expect("valid op");
        let appends = core.wal().expect("durable").appends();
        // FIFO gap, wrong base length, unknown site, overrunning ack.
        assert!(send(&mut core, op(1, 0, 3, 0, "x", 1)).is_err());
        assert!(send(&mut core, op(1, 0, 2, 9, "x", 9)).is_err());
        assert!(send(&mut core, op(7, 0, 1, 0, "x", 1)).is_err());
        let overrun = ClientAckMsg {
            origin: SiteId(2),
            received: 5,
        };
        assert!(core.integrate_ack(overrun.origin, overrun).is_err());
        assert_eq!(core.wal().expect("durable").appends(), appends);
        // The same sender's next honest op still integrates and replays.
        send(&mut core, op(1, 0, 2, 1, "b", 1)).expect("retransmission with the right base");
        let cold = Standby::from_log(core.wal().expect("durable").bytes(), 2, "").expect("scan");
        assert!(cold.poisoned().is_none());
        assert_eq!(cold.notifier().doc(), "ab");
        assert_eq!(core.standby().expect("warm").notifier().doc(), "ab");
    }

    #[test]
    fn acks_coalesce_into_delta_frontiers() {
        let mut core = durable(3, "");
        send(&mut core, op(1, 0, 1, 0, "a", 0)).expect("op");
        let after_op = core.wal().expect("durable").appends();
        let ack = ClientAckMsg {
            origin: SiteId(2),
            received: 1,
        };
        for _ in 1..ACK_FRONTIER_EVERY {
            core.integrate_ack(ack.origin, ack).expect("ack");
        }
        assert_eq!(core.wal().expect("durable").appends(), after_op);
        core.integrate_ack(ack.origin, ack).expect("ack");
        assert_eq!(core.wal().expect("durable").appends(), after_op + 1);
        let rec = Wal::recover(core.wal().expect("durable").bytes()).expect("scan");
        assert_eq!(
            rec.tail.last(),
            Some(&WalRecord::AckFrontier(AckFrontierRecord {
                entries: vec![(1, 1)]
            }))
        );
        // Nothing moved since: the next window appends no frontier.
        for _ in 0..ACK_FRONTIER_EVERY {
            core.integrate_ack(ack.origin, ack).expect("ack");
        }
        assert_eq!(core.wal().expect("durable").appends(), after_op + 1);
        // A long run of advancing acks: site 1 sends 40 more ops and sites
        // 2 and 3 ack each one. After every ack, a cold replay of the log
        // never leads the live frontier and trails it by less than one
        // window: it is at or past the frontier of `ACK_FRONTIER_EVERY - 1`
        // acks ago.
        let mut frontiers = vec![core.notifier().acked_by().to_vec()];
        for k in 2..=41 {
            send(&mut core, op(1, 0, k, 0, "a", k as usize - 1)).expect("op");
            for origin in [SiteId(2), SiteId(3)] {
                let ack = ClientAckMsg {
                    origin,
                    received: k,
                };
                core.integrate_ack(origin, ack).expect("ack");
                frontiers.push(core.notifier().acked_by().to_vec());
                let bytes = core.wal().expect("durable").bytes();
                let cold = Standby::from_log(bytes, 3, "").expect("scan");
                let then = &frontiers[frontiers.len().saturating_sub(ACK_FRONTIER_EVERY as usize)];
                let live = core.notifier().acked_by();
                for ((&got, &now), &then) in cold.notifier().acked_by().iter().zip(live).zip(then) {
                    assert!(got <= now, "cold {got}, ahead of live {now}");
                    assert!(got >= then, "cold {got}, a window behind {then}");
                }
            }
        }
    }

    #[test]
    fn frontier_entries_for_settled_or_departed_clients_are_no_ops() {
        let mut n = Notifier::new(2, "");
        n.try_on_client_op_outcome(op(1, 0, 1, 0, "a", 0))
            .expect("op");
        let frontier = |entries| WalRecord::AckFrontier(AckFrontierRecord { entries });
        apply(&mut n, &frontier(vec![(1, 1)])).expect("advance");
        assert_eq!(n.acked_by(), &[0, 1]);
        apply(&mut n, &frontier(vec![(1, 0)])).expect("stale entry");
        n.quarantine(SiteId(2)).expect("a member");
        apply(&mut n, &frontier(vec![(1, 9)])).expect("departed client");
        assert_eq!(n.acked_by(), &[0, 1]);
        // Outside the session, or past what was sent: typed errors.
        for outside in [5, u32::MAX] {
            let unknown = apply(&mut n, &frontier(vec![(outside, 1)])).expect_err("unknown site");
            assert!(matches!(unknown, ProtocolError::UnknownSite { .. }));
        }
        let overrun = apply(&mut n, &frontier(vec![(0, 3)])).expect_err("overrun");
        assert!(matches!(overrun, ProtocolError::AckOverrun { .. }));
    }

    /// Eviction is an input like any other: after site 3 is evicted and
    /// sites 1 and 2 exchange 12 fully acknowledged ops, the live notifier
    /// has trimmed everything — and so has every replica rebuilt from the
    /// log, down to the same channel state. (Unlogged, recovery kept site
    /// 3 active: 12 entries pinned for good.)
    #[test]
    fn eviction_is_replayed_so_recovery_agrees_on_membership() {
        let mut core = durable(3, "");
        assert!(
            core.integrate_eviction(SiteId(7)).is_err(),
            "never a member"
        );
        assert_eq!(core.wal().expect("durable").appends(), 0);
        core.integrate_eviction(SiteId(3)).expect("a member");
        assert!(core.integrate_eviction(SiteId(3)).is_err(), "already out");
        assert_eq!(core.wal().expect("durable").appends(), 1, "logged once");
        // Sites 1 and 2 alternate, each op stamped as having seen all of
        // the other's so far.
        for i in 0..12u64 {
            let (site, seen) = (1 + (i % 2) as u32, i.div_ceil(2));
            let len = i as usize;
            send(&mut core, op(site, seen, i / 2 + 1, len, "x", len)).expect("op");
        }
        // Site 1 still owes an ack for site 2's last op; repeat it until
        // the coalesced frontier record is cut.
        let ack = ClientAckMsg {
            origin: SiteId(1),
            received: 6,
        };
        for _ in 0..ACK_FRONTIER_EVERY {
            core.integrate_ack(ack.origin, ack).expect("ack");
        }
        let mut live = core.notifier().clone();
        live.gc();
        assert_eq!(live.history().len(), 0);
        assert!(!live.is_active(SiteId(3)));

        let bytes = core.wal().expect("durable").bytes();
        let cold = Standby::from_log(bytes, 3, "").expect("scan");
        let restored = Wal::recover(bytes).expect("scan").restore(3, "");
        let warm = core.standby().expect("warm").notifier().clone();
        for (name, replica) in [
            ("cold standby", cold.promote().expect("unpoisoned")),
            ("log restore", restored.expect("replays").0),
            ("warm standby", warm),
        ] {
            let mut replica = replica;
            replica.gc();
            assert!(!replica.is_active(SiteId(3)), "{name}: site 3 active");
            assert_eq!(replica.history().len(), 0, "{name}: history pinned");
            assert_eq!(snapshot(&replica), snapshot(&live), "{name}");
        }
    }

    /// A log-less core admits a newcomer exactly as its notifier would; a
    /// core with a log refuses, because recovery could not replay the join.
    #[test]
    fn add_client_admits_only_on_a_log_less_core() {
        let mut core = NotifierCore::new(Notifier::new(2, "ab"), None, None);
        let mut twin = Notifier::new(2, "ab");
        send(&mut core, op(1, 0, 1, 2, "c", 2)).expect("op");
        twin.try_on_client_op_outcome(op(1, 0, 1, 2, "c", 2))
            .expect("op");
        assert_eq!(core.add_client(), Some(twin.add_client()));
        assert_eq!(core.add_client(), Some((SiteId(4), "abc".into())));

        let mut logged = NotifierCore::new(
            Notifier::new(2, "ab"),
            Some(Wal::new(DEFAULT_COMPACT_EVERY)),
            None,
        );
        send(&mut logged, op(1, 0, 1, 2, "c", 2)).expect("op");
        let appends = logged.wal().expect("durable").appends();
        assert_eq!(logged.add_client(), None);
        assert_eq!(logged.notifier().n_clients(), 2);
        assert_eq!(
            logged.notifier().state_vector().as_vector().entries(),
            &[1, 0]
        );
        assert_eq!(logged.wal().expect("durable").appends(), appends);
    }

    #[test]
    fn promotion_swaps_in_the_shadow_and_keeps_logging() {
        let mut core = durable(2, "seed");
        send(&mut core, op(1, 0, 1, 4, "x", 4)).expect("op");
        let before = core.notifier().doc_checksum();
        assert_eq!(core.promote(), Some(Ok((1, 0))));
        assert!(core.standby().is_none() && core.promote().is_none());
        assert_eq!(core.notifier().doc_checksum(), before);
        send(&mut core, op(2, 1, 1, 5, "y", 5)).expect("op");
        let cold = Standby::from_log(core.wal().expect("durable").bytes(), 2, "seed").expect("ok");
        assert_eq!(cold.notifier().doc(), core.notifier().doc());
    }
}
