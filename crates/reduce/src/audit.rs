//! Causality audit: the star's events checked against the ground-truth
//! oracle.
//!
//! [`StarAudit`] is the one place that maps the star onto
//! [`cvc_core::oracle::CausalityOracle`] (Definition 1, no clocks at
//! all). Operations are named by their *generation identity*
//! [`OpId`] — origin site and that site's `T[2]` when it generated the
//! op — and four rules turn the star's events into the oracle's:
//!
//! 1. **The notifier's execution generates `O'` at site 0.** Executing a
//!    client operation at site 0 also generates its transformed form as a
//!    fresh operation of site 0, whose causal context is everything the
//!    notifier executed before it; what the notifier buffers and
//!    broadcasts is that `O'`.
//! 2. **A same-origin pair relates through the original** (the paper's
//!    `x = y` rule): a formula-(7) check of an incoming operation against
//!    a buffered entry from the *same* origin compares the two originals
//!    (FIFO order at the generating site), not the entry's `O'`.
//! 3. **A client resolves a broadcast by its `T[1]` position.** A client
//!    cannot know a server operation's generation identity, only how many
//!    operations the notifier has sent it; each broadcast maps
//!    `(destination, position) → identity`, and the client's events refer
//!    to that identity's `O'`.
//! 4. **A joiner has executed every `O'`.** It starts from a snapshot of
//!    the notifier's document.
//!
//! Each check returns a [`Finding`] when the engine's verdict contradicts
//! Definition 1, or [`Unknown`] when it names an identity the audit has
//! not registered yet; nothing here panics. Three drivers feed it: the
//! seeded E8/E11 walks ([`crate::verify`]), the chaos twin, and
//! [`audit_streams`] below, which replays flight-recorder dumps.
//!
//! ## Replaying flight-recorder dumps
//!
//! The [`crate::recorder`] rings capture, per site, the lifecycle walk of
//! every operation — generation, delivery, the individual formula (5)/(7)
//! concurrency checks, execution, broadcast. [`audit_streams`] replays
//! such a set of per-site traces through a [`StarAudit`] and reports the
//! **first event whose recorded verdict or ordering contradicts the
//! oracle**:
//!
//! * a [`EventKind::Transform`] event whose `flag` (the engine's
//!   "concurrent?" verdict from formula (5) or (7)) differs from
//!   [`CausalityOracle::concurrent`];
//! * a trace that cannot be linearised causally at all — an execution or
//!   check referring to an operation whose generation never appears
//!   (corrupted or truncated ring).
//!
//! Client events name server operations by stream position: they carry
//! [`NO_SITE`] and the position, resolved through the notifier's
//! [`EventKind::Broadcast`] events (rule 3), all of which are read before
//! the replay starts.
//!
//! The replay itself is a round-robin topological merge: each per-site
//! trace is consumed in order, an event waiting until the operations it
//! references are registered. A full pass with no progress means the
//! traces are causally inconsistent — also a reportable violation.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use crate::client::{Client, ClientIntegration};
use crate::notifier::{Notifier, NotifierOutcome};
use crate::recorder::{EventKind, FlightEvent, NO_SITE};
use cvc_core::oracle::{CausalityOracle, OpRef};
use cvc_core::site::SiteId;
use cvc_core::timestamp::OriginAtClient;
use std::collections::HashMap;
use std::fmt;

/// Generation identity of an operation: `(origin site, per-origin seq)`,
/// the seq being the origin's `T[2]` when it generated the op.
pub type OpId = (SiteId, u64);

/// How a client's event names an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Named {
    /// By generation identity: the client's own operations.
    Op(OpId),
    /// By stream position `T[1]`: a broadcast the client received.
    Position(u64),
}

/// Why the audit could not judge or register an event yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unknown {
    /// A stream position no broadcast has mapped (or one where the
    /// notifier needs a generation identity).
    Position,
    /// An operation whose generation — or, for an `O'`, whose execution
    /// at site 0 — is not registered yet.
    NotYet,
}

/// An engine verdict that contradicts Definition 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The engine's verdict: concurrent?
    pub engine: bool,
    /// Label of the incoming operation.
    pub incoming: String,
    /// Label of the buffered operation it was checked against.
    pub buffered: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let word = |c: bool| if c { "concurrent" } else { "ordered" };
        let (inc, chk) = (&self.incoming, &self.buffered);
        let (e, t) = (word(self.engine), word(!self.engine));
        write!(
            f,
            "engine said {e} for {inc} vs {chk}, Definition 1 says {t}"
        )
    }
}

/// One verdict judged: `Ok(None)` agrees with Definition 1.
pub(crate) type Check = Result<Option<Finding>, Unknown>;

/// Every verdict of one integration judged: the ones Definition 1
/// contradicts.
pub type Findings = Result<Vec<Finding>, Unknown>;

/// The Definition-1 oracle plus the identity maps that tie the star's
/// events to it (see the module docs). `Clone`, so an explorer can branch
/// it beside a [`crate::world::StarWorld`].
#[derive(Debug, Clone, Default)]
pub struct StarAudit {
    oracle: CausalityOracle,
    /// Originals, by generation identity.
    ops: HashMap<OpId, OpRef>,
    /// Site-0 forms `O'`, by their original's identity.
    primes: HashMap<OpId, OpRef>,
    /// `(destination, T[1])` → the broadcast original's identity.
    positions: HashMap<(SiteId, u64), OpId>,
}

impl StarAudit {
    /// `op.0` generated `op` (and executed it: local ops run at once).
    pub fn generate(&mut self, op: OpId) {
        let label = format!("site{}#{}", op.0 .0, op.1);
        self.ops
            .insert(op, self.oracle.record_generation(op.0, label));
    }

    /// Formula (7) at site 0: `inc` judged against the buffered entry
    /// `chk`, the engine saying `verdict` (rule 2).
    pub(crate) fn check_at_notifier(&self, inc: OpId, chk: OpId, verdict: bool) -> Check {
        let same_origin = chk.0 == inc.0;
        let chk = registered(if same_origin { &self.ops } else { &self.primes }, chk)?;
        Ok(self.judge(registered(&self.ops, inc)?, chk, verdict))
    }

    /// Site 0 executed `op`, generating its `O'` (rule 1).
    pub(crate) fn execute_at_notifier(&mut self, op: OpId) -> Result<(), Unknown> {
        let orig = registered(&self.ops, op)?;
        self.oracle.record_execution(SiteId(0), orig);
        let label = format!("{}'", self.oracle.label_of(orig));
        self.primes
            .insert(op, self.oracle.record_generation(SiteId(0), label));
        Ok(())
    }

    /// Site 0 sent `op`'s `O'` to `dest` as its `T[1]` = `position`
    /// (rule 3); whether that position was new.
    pub(crate) fn broadcast(&mut self, dest: SiteId, position: u64, op: OpId) -> bool {
        self.positions.insert((dest, position), op).is_none()
    }

    /// Formula (5) at client `site`: the broadcast at stream position
    /// `inc` judged against the buffered entry `chk`, the engine's verdict
    /// being `flag`.
    pub(crate) fn check_at_client(&self, site: SiteId, inc: u64, chk: Named, flag: bool) -> Check {
        let inc = self.resolve(site, Named::Position(inc))?;
        Ok(self.judge(inc, self.resolve(site, chk)?, flag))
    }

    /// Client `site` executed `op`.
    pub(crate) fn execute_at_client(&mut self, site: SiteId, op: Named) -> Result<(), Unknown> {
        self.oracle.record_execution(site, self.resolve(site, op)?);
        Ok(())
    }

    /// `site` joined from the notifier's document (rule 4).
    pub fn join(&mut self, site: SiteId) {
        for &prime in self.primes.values() {
            self.oracle.record_execution(site, prime);
        }
    }

    /// Feed the notifier's integration that buffered its newest history
    /// entry: each of `outcome`'s formula-(7) verdicts against the entry
    /// it was taken for, the execution, then the broadcasts. The buffer
    /// must not have been trimmed during the integration.
    pub fn notifier_integrated(&mut self, n: &Notifier, outcome: &NotifierOutcome) -> Findings {
        let hb = n.history();
        let op = hb.back().ok_or(Unknown::NotYet)?;
        let op = (op.origin, op.origin_seq);
        let mut findings = Vec::new();
        for (e, verdict) in hb.iter().zip(outcome.full_verdicts()) {
            findings.extend(self.check_at_notifier(op, (e.origin, e.origin_seq), verdict)?);
        }
        self.execute_at_notifier(op)?;
        for &(dest, stamp) in &outcome.stamps {
            self.broadcast(dest, stamp.get(1), op);
        }
        Ok(findings)
    }

    /// Feed `client`'s integration of its newest history entry: each of
    /// `outcome`'s formula-(5) verdicts against the entry it was taken
    /// for, then the execution.
    pub fn client_integrated(&mut self, client: &Client, outcome: &ClientIntegration) -> Findings {
        let (site, hb) = (client.site(), client.history());
        let position = hb.last().ok_or(Unknown::NotYet)?.stamp.get(1);
        let mut findings = Vec::new();
        for (e, &verdict) in hb.iter().zip(&outcome.checked) {
            let named = match e.origin {
                OriginAtClient::Local => Named::Op((site, e.stamp.get(2))),
                OriginAtClient::FromNotifier => Named::Position(e.stamp.get(1)),
            };
            findings.extend(self.check_at_client(site, position, named, verdict)?);
        }
        self.execute_at_client(site, Named::Position(position))?;
        Ok(findings)
    }

    /// What `op` names at client `site`: an original, or the `O'` of the
    /// broadcast at that stream position.
    fn resolve(&self, site: SiteId, op: Named) -> Result<OpRef, Unknown> {
        match op {
            Named::Op(id) => registered(&self.ops, id),
            Named::Position(p) => {
                let id = self.positions.get(&(site, p)).ok_or(Unknown::Position)?;
                registered(&self.primes, *id)
            }
        }
    }

    fn judge(&self, inc: OpRef, chk: OpRef, verdict: bool) -> Option<Finding> {
        (self.oracle.concurrent(inc, chk) != verdict).then(|| Finding {
            engine: verdict,
            incoming: self.oracle.label_of(inc).to_owned(),
            buffered: self.oracle.label_of(chk).to_owned(),
        })
    }
}

fn registered(map: &HashMap<OpId, OpRef>, op: OpId) -> Result<OpRef, Unknown> {
    map.get(&op).copied().ok_or(Unknown::NotYet)
}

/// What kind of inconsistency the replayer found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditViolationKind {
    /// A recorded formula (5)/(7) verdict disagrees with Definition 1.
    VerdictMismatch,
    /// An event references an operation that can never be resolved
    /// (unknown broadcast position — a corrupted or truncated ring).
    UnresolvedOp,
    /// The per-site traces cannot be merged into any causal order (e.g.
    /// an execution whose generation never appears).
    Stalled,
}

impl fmt::Display for AuditViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AuditViolationKind::VerdictMismatch => "verdict-mismatch",
            AuditViolationKind::UnresolvedOp => "unresolved-op",
            AuditViolationKind::Stalled => "stalled",
        })
    }
}

/// The first event at which the replay contradicted the oracle.
#[derive(Debug, Clone)]
pub struct AuditViolation {
    /// Site whose trace contains the offending event.
    pub site: SiteId,
    /// The recorder-assigned sequence number of that event.
    pub event_seq: u64,
    /// Classification.
    pub kind: AuditViolationKind,
    /// Human-readable account of the contradiction.
    pub message: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit violation at {} event #{} [{}]: {}",
            self.site, self.event_seq, self.kind, self.message
        )
    }
}

impl std::error::Error for AuditViolation {}

/// Summary of a successful audit replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Original operations registered (one per client generation event).
    pub ops_registered: usize,
    /// Transformed site-0 forms registered (one per notifier execution).
    pub primes_registered: usize,
    /// Executions replayed into the oracle.
    pub executions_replayed: usize,
    /// Formula (5)/(7) verdicts compared against the oracle — all agreed.
    pub verdicts_validated: usize,
    /// `(destination, position) → op` mappings learnt from broadcasts.
    pub broadcasts_mapped: usize,
    /// Sites whose rings wrapped (carried a [`EventKind::RingTruncated`]
    /// marker): their oldest events were overwritten, so the audit only
    /// covers a suffix of what happened there.
    pub truncated_sites: Vec<SiteId>,
    /// Total events lost to ring wraparound across the truncated sites.
    pub events_lost: u64,
    /// Events the merge could not replay because they referenced state
    /// lost to truncation. Always 0 when no ring wrapped (such gaps are
    /// hard violations on complete traces).
    pub unreplayed_events: usize,
}

impl AuditReport {
    /// Whether the audit covered every recorded event of a complete run
    /// (no ring wrapped, nothing left unreplayed). When false, the clean
    /// result only vouches for the suffix the rings retained.
    pub fn complete(&self) -> bool {
        self.truncated_sites.is_empty() && self.unreplayed_events == 0
    }
}

/// Replay per-site flight-recorder traces through the causality oracle.
///
/// `traces` holds one `(site, events-oldest-first)` pair per participant;
/// the notifier is identified as site 0 (its `Broadcast` events provide
/// the position → identity mapping clients need). Returns the replay
/// summary, or the **first** event that contradicts Definition 1.
pub fn audit_streams(traces: &[(SiteId, Vec<FlightEvent>)]) -> Result<AuditReport, AuditViolation> {
    // Phase 1: learn (destination, position) → identity from the
    // notifier's broadcast events, and find which rings wrapped — a
    // truncated ring means the merge below is auditing a suffix, so gaps
    // it hits are reported as truncation, not treated as violations.
    let mut audit = StarAudit::default();
    let mut report = AuditReport::default();
    for (site, events) in traces {
        for ev in events {
            if ev.kind == EventKind::RingTruncated {
                report.truncated_sites.push(*site);
                report.events_lost += ev.a;
            }
            let op = (SiteId(ev.op_site), ev.op_seq);
            let is_broadcast = site.0 == 0 && ev.kind == EventKind::Broadcast;
            if is_broadcast && audit.broadcast(SiteId(ev.a as u32), ev.stamp.get(1), op) {
                report.broadcasts_mapped += 1;
            }
        }
    }
    let truncated = !report.truncated_sites.is_empty();

    // Phase 2: round-robin topological merge into the audit, until every
    // trace is consumed or the first violation.
    let mut cursors = vec![0usize; traces.len()];
    let (site, ev, kind, message) = 'merge: loop {
        let mut progressed = false;
        for (ti, (site, events)) in traces.iter().enumerate() {
            while let Some(ev) = events.get(cursors[ti]) {
                match replay(&mut audit, &mut report, *site, ev) {
                    Ok(None) => {}
                    Ok(Some(f)) => {
                        let message = format!("{f} ({ev})");
                        break 'merge (*site, ev, AuditViolationKind::VerdictMismatch, message);
                    }
                    Err(Unknown::NotYet) => break, // its generation is still to come
                    Err(Unknown::Position) if truncated => report.unreplayed_events += 1,
                    Err(Unknown::Position) => {
                        let at = if site.0 == 0 { "notifier" } else { "client" };
                        let what = format!("{at} {}", ev.kind.name());
                        let message = format!("{what} references an unknown operation: {ev}");
                        break 'merge (*site, ev, AuditViolationKind::UnresolvedOp, message);
                    }
                }
                cursors[ti] += 1;
                progressed = true;
            }
        }
        // The oldest head still waiting, if any trace is unfinished.
        let stuck = traces
            .iter()
            .enumerate()
            .filter_map(|(ti, (s, e))| e.get(cursors[ti]).map(|ev| (ti, *s, ev)))
            .min_by_key(|(_, _, ev)| ev.seq);
        let Some((ti, site, ev)) = stuck else {
            return Ok(report);
        };
        if !progressed && !truncated {
            // Every remaining head waits on an operation that will never
            // be registered: the traces are causally inconsistent.
            let what = "no causal order can schedule the remaining events; first stuck";
            let message = format!("{what}: {ev}");
            break (site, ev, AuditViolationKind::Stalled, message);
        } else if !progressed {
            // Some ring wrapped: every stuck head waits on an operation
            // whose generation was overwritten. That is expected data
            // loss, not causal inconsistency — skip the oldest stuck event
            // and keep replaying whatever the surviving suffixes support.
            report.unreplayed_events += 1;
            cursors[ti] += 1;
        }
    };
    let event_seq = ev.seq;
    Err(AuditViolation {
        site,
        event_seq,
        kind,
        message,
    })
}

/// Replay one event of `site`'s trace into `audit`, counting it in
/// `report`; `Ok(Some(_))` is a verdict Definition 1 contradicts.
fn replay(audit: &mut StarAudit, rep: &mut AuditReport, site: SiteId, ev: &FlightEvent) -> Check {
    let op = (SiteId(ev.op_site), ev.op_seq);
    // Site 0 names every operation by identity; a client names a
    // broadcast by stream position.
    let by_id = (ev.op_site != NO_SITE)
        .then_some(op)
        .ok_or(Unknown::Position);
    match ev.kind {
        EventKind::Generate => {
            audit.generate(op);
            rep.ops_registered += 1;
        }
        EventKind::Execute if site.0 == 0 => {
            audit.execute_at_notifier(by_id?)?;
            rep.executions_replayed += 1;
            rep.primes_registered += 1;
        }
        EventKind::Execute => {
            let named = by_id.map_or(Named::Position(ev.op_seq), Named::Op);
            audit.execute_at_client(site, named)?;
            rep.executions_replayed += 1;
        }
        EventKind::Transform => {
            let chk = (SiteId(ev.a as u32), ev.b);
            let finding = if site.0 == 0 {
                audit.check_at_notifier(by_id?, chk, ev.flag)?
            } else if ev.a == u64::from(NO_SITE) {
                audit.check_at_client(site, ev.op_seq, Named::Position(ev.b), ev.flag)?
            } else {
                audit.check_at_client(site, ev.op_seq, Named::Op(chk), ev.flag)?
            };
            rep.verdicts_validated += 1;
            return Ok(finding);
        }
        // Transport/bookkeeping events carry no causal claim.
        // (RingTruncated markers were tallied in phase 1;
        // RetxStall attributes transport latency only.)
        EventKind::Send
        | EventKind::Deliver
        | EventKind::Broadcast
        | EventKind::Ack
        | EventKind::GcTrim
        | EventKind::Error
        | EventKind::RingTruncated
        | EventKind::RetxStall
        | EventKind::Crash
        | EventKind::Promote
        | EventKind::Relay => {}
    }
    Ok(None)
}

#[cfg(test)]
#[allow(clippy::expect_used)]
mod tests {
    use super::*;
    use cvc_core::state_vector::CompressedStamp;

    fn ev(kind: EventKind) -> FlightEvent {
        FlightEvent::new(kind)
    }

    /// Hand-build the paper's Fig. 3 scenario as flight traces, with all
    /// 21 verdicts of the Section 5 walkthrough (cf. `scenario.rs`).
    /// O2@2 and O1@1 are concurrent; O4@3 follows O2'; O3@2 follows O2
    /// and O1'.
    fn fig_traces() -> Vec<(SiteId, Vec<FlightEvent>)> {
        let s = |a: u64, b: u64| CompressedStamp::new(a, b);
        let no = u64::from(NO_SITE);
        // Notifier (site 0): executes O2, O1, O4, O3 in order, checking
        // each incoming original against its buffered entries, then
        // broadcasting with per-destination stream positions.
        let n = vec![
            ev(EventKind::Execute).with_op(2, 1),
            ev(EventKind::Broadcast)
                .with_op(2, 1)
                .with_ab(1, 0)
                .with_stamp(s(1, 0)),
            ev(EventKind::Broadcast)
                .with_op(2, 1)
                .with_ab(3, 0)
                .with_stamp(s(1, 0)),
            ev(EventKind::Transform)
                .with_op(1, 1)
                .with_ab(2, 1)
                .with_flag(true),
            ev(EventKind::Execute).with_op(1, 1),
            ev(EventKind::Broadcast)
                .with_op(1, 1)
                .with_ab(2, 0)
                .with_stamp(s(1, 1)),
            ev(EventKind::Broadcast)
                .with_op(1, 1)
                .with_ab(3, 0)
                .with_stamp(s(2, 0)),
            ev(EventKind::Transform)
                .with_op(3, 1)
                .with_ab(2, 1)
                .with_flag(false),
            ev(EventKind::Transform)
                .with_op(3, 1)
                .with_ab(1, 1)
                .with_flag(true),
            ev(EventKind::Execute).with_op(3, 1),
            ev(EventKind::Broadcast)
                .with_op(3, 1)
                .with_ab(1, 0)
                .with_stamp(s(2, 1)),
            ev(EventKind::Broadcast)
                .with_op(3, 1)
                .with_ab(2, 0)
                .with_stamp(s(2, 1)),
            ev(EventKind::Transform)
                .with_op(2, 2)
                .with_ab(2, 1)
                .with_flag(false),
            ev(EventKind::Transform)
                .with_op(2, 2)
                .with_ab(1, 1)
                .with_flag(false),
            ev(EventKind::Transform)
                .with_op(2, 2)
                .with_ab(3, 1)
                .with_flag(true),
            ev(EventKind::Execute).with_op(2, 2),
            ev(EventKind::Broadcast)
                .with_op(2, 2)
                .with_ab(1, 0)
                .with_stamp(s(3, 1)),
            ev(EventKind::Broadcast)
                .with_op(2, 2)
                .with_ab(3, 0)
                .with_stamp(s(3, 1)),
        ];
        // Site 1: generates O1, then receives O2' (pos 1), O4' (pos 2),
        // O3' (pos 3), checking each against its history buffer.
        let c1 = vec![
            ev(EventKind::Generate).with_op(1, 1),
            ev(EventKind::Transform)
                .with_op(NO_SITE, 1)
                .with_ab(1, 1)
                .with_flag(true),
            ev(EventKind::Execute).with_op(NO_SITE, 1),
            ev(EventKind::Transform)
                .with_op(NO_SITE, 2)
                .with_ab(1, 1)
                .with_flag(false),
            ev(EventKind::Transform)
                .with_op(NO_SITE, 2)
                .with_ab(no, 1)
                .with_flag(false),
            ev(EventKind::Execute).with_op(NO_SITE, 2),
            ev(EventKind::Transform)
                .with_op(NO_SITE, 3)
                .with_ab(1, 1)
                .with_flag(false),
            ev(EventKind::Transform)
                .with_op(NO_SITE, 3)
                .with_ab(no, 1)
                .with_flag(false),
            ev(EventKind::Transform)
                .with_op(NO_SITE, 3)
                .with_ab(no, 2)
                .with_flag(false),
            ev(EventKind::Execute).with_op(NO_SITE, 3),
        ];
        // Site 2: generates O2; receives O1' (pos 1); generates O3;
        // receives O4' (pos 2) with HB = [O2, O1', O3].
        let c2 = vec![
            ev(EventKind::Generate).with_op(2, 1),
            ev(EventKind::Transform)
                .with_op(NO_SITE, 1)
                .with_ab(2, 1)
                .with_flag(false),
            ev(EventKind::Execute).with_op(NO_SITE, 1),
            ev(EventKind::Generate).with_op(2, 2),
            ev(EventKind::Transform)
                .with_op(NO_SITE, 2)
                .with_ab(2, 1)
                .with_flag(false),
            ev(EventKind::Transform)
                .with_op(NO_SITE, 2)
                .with_ab(no, 1)
                .with_flag(false),
            ev(EventKind::Transform)
                .with_op(NO_SITE, 2)
                .with_ab(2, 2)
                .with_flag(true),
            ev(EventKind::Execute).with_op(NO_SITE, 2),
        ];
        // Site 3: receives O2' (pos 1); generates O4; receives O1'
        // (pos 2) — concurrent with local O4 — then O3' (pos 3).
        let c3 = vec![
            ev(EventKind::Execute).with_op(NO_SITE, 1),
            ev(EventKind::Generate).with_op(3, 1),
            ev(EventKind::Transform)
                .with_op(NO_SITE, 2)
                .with_ab(no, 1)
                .with_flag(false),
            ev(EventKind::Transform)
                .with_op(NO_SITE, 2)
                .with_ab(3, 1)
                .with_flag(true),
            ev(EventKind::Execute).with_op(NO_SITE, 2),
            ev(EventKind::Transform)
                .with_op(NO_SITE, 3)
                .with_ab(no, 1)
                .with_flag(false),
            ev(EventKind::Transform)
                .with_op(NO_SITE, 3)
                .with_ab(3, 1)
                .with_flag(false),
            ev(EventKind::Transform)
                .with_op(NO_SITE, 3)
                .with_ab(no, 2)
                .with_flag(false),
            ev(EventKind::Execute).with_op(NO_SITE, 3),
        ];
        vec![
            (SiteId(0), n),
            (SiteId(1), c1),
            (SiteId(2), c2),
            (SiteId(3), c3),
        ]
    }

    #[test]
    fn consistent_fig_traces_validate() {
        let report = audit_streams(&fig_traces()).expect("consistent traces");
        assert_eq!(report.ops_registered, 4);
        assert_eq!(report.primes_registered, 4);
        assert_eq!(report.broadcasts_mapped, 8);
        // The 21 verdicts of the Section 5 walkthrough.
        assert_eq!(report.verdicts_validated, 21);
        // 4 notifier executions + 3 + 2 + 3 client executions.
        assert_eq!(report.executions_replayed, 12);
    }

    #[test]
    fn flipped_verdict_is_caught() {
        let mut traces = fig_traces();
        // Flip the notifier's "O1 ∥ O2'" verdict to "ordered".
        let flip = traces[0]
            .1
            .iter()
            .position(|e| e.kind == EventKind::Transform)
            .expect("notifier has checks");
        traces[0].1[flip].flag = false;
        let err = audit_streams(&traces).expect_err("must be caught");
        assert_eq!(err.kind, AuditViolationKind::VerdictMismatch);
        assert_eq!(err.site, SiteId(0));
        assert!(err.message.contains("Definition 1"), "{err}");
    }

    #[test]
    fn flipped_client_verdict_is_caught() {
        let mut traces = fig_traces();
        // Flip site 3's "O1' ∥ O4" verdict to "ordered".
        let pos = traces[3]
            .1
            .iter()
            .position(|e| e.kind == EventKind::Transform && e.flag)
            .expect("site 3 has a concurrent verdict");
        traces[3].1[pos].flag = false;
        let err = audit_streams(&traces).expect_err("must be caught");
        assert_eq!(err.kind, AuditViolationKind::VerdictMismatch);
        assert_eq!(err.site, SiteId(3));
    }

    #[test]
    fn unknown_broadcast_position_is_reported() {
        let mut traces = fig_traces();
        // Client 1 claims a stream position that was never broadcast.
        traces[1].1.push(ev(EventKind::Execute).with_op(NO_SITE, 9));
        let err = audit_streams(&traces).expect_err("must be caught");
        assert_eq!(err.kind, AuditViolationKind::UnresolvedOp);
        assert_eq!(err.site, SiteId(1));
    }

    #[test]
    fn missing_generation_stalls() {
        let mut traces = fig_traces();
        // Drop site 2's trace entirely: O2/O3 are executed everywhere but
        // never generated, so the merge cannot schedule those executions.
        traces.retain(|(s, _)| s.0 != 2);
        let err = audit_streams(&traces).expect_err("must be caught");
        assert_eq!(err.kind, AuditViolationKind::Stalled);
    }

    #[test]
    fn empty_traces_audit_clean() {
        let report = audit_streams(&[]).expect("empty is consistent");
        assert_eq!(report, AuditReport::default());
        assert!(report.complete());
    }

    #[test]
    fn truncated_ring_reports_partial_coverage_instead_of_stalling() {
        let mut traces = fig_traces();
        // Site 2's ring wrapped: its first four events (both generations
        // among them) were overwritten. Without the marker this is the
        // `missing_generation_stalls` violation; with it, the audit must
        // degrade to reporting partial coverage.
        let tail = traces[2].1.split_off(4);
        traces[2].1 = vec![ev(EventKind::RingTruncated).with_ab(4, 3)];
        traces[2].1.extend(tail);
        let report = audit_streams(&traces).expect("truncation is reported, not fatal");
        assert_eq!(report.truncated_sites, vec![SiteId(2)]);
        assert_eq!(report.events_lost, 4);
        assert!(!report.complete());
        assert!(
            report.unreplayed_events > 0,
            "events referencing the lost generations cannot replay"
        );
        // What *could* be replayed still validated: O1 and O4 exist in
        // full, so some verdicts and executions went through the oracle.
        assert!(report.executions_replayed > 0);
    }

    /// End-to-end wraparound regression: overflow a real recorder ring and
    /// check the audit sees (and reports) the synthesised marker.
    #[test]
    fn overflowed_recorder_ring_audits_as_truncated() {
        use crate::recorder::FlightRecorder;
        let mut r = FlightRecorder::with_capacity(SiteId(1), 2);
        r.set_enabled(true);
        r.record(ev(EventKind::Generate).with_op(1, 1));
        r.record(ev(EventKind::Generate).with_op(1, 2));
        r.record(ev(EventKind::Generate).with_op(1, 3));
        let events = r.events();
        assert_eq!(events[0].kind, EventKind::RingTruncated);
        let report = audit_streams(&[(SiteId(1), events)]).expect("wrapped ring audits its suffix");
        assert_eq!(report.truncated_sites, vec![SiteId(1)]);
        assert_eq!(report.events_lost, 1);
        assert_eq!(report.ops_registered, 2, "the surviving suffix replays");
        assert!(!report.complete(), "coverage must not be implied as full");
    }

    const S1: SiteId = SiteId(1);
    const S2: SiteId = SiteId(2);

    /// Sites 1 and 2 each generate one op; site 0 executes site 1's and
    /// broadcasts it to site 2 as that client's stream position 1.
    fn concurrent_pair() -> StarAudit {
        let mut a = StarAudit::default();
        a.generate((S1, 1));
        a.generate((S2, 1));
        a.execute_at_notifier((S1, 1)).expect("generated");
        assert!(a.broadcast(S2, 1, (S1, 1)));
        a
    }

    #[test]
    fn star_audit_flipped_verdicts_come_back_as_findings() {
        let a = concurrent_pair();
        // Formula (7): site 2's op arrives with site 1's O' buffered.
        assert_eq!(a.check_at_notifier((S2, 1), (S1, 1), true), Ok(None));
        let f = a
            .check_at_notifier((S2, 1), (S1, 1), false)
            .expect("known")
            .expect("a finding");
        assert_eq!(
            (f.incoming.as_str(), f.buffered.as_str()),
            ("site2#1", "site1#1'")
        );
        assert!(!f.engine);
        // Formula (5): at site 2, position 1 against its own op.
        let local = Named::Op((S2, 1));
        assert_eq!(a.check_at_client(S2, 1, local, true), Ok(None));
        let f = a
            .check_at_client(S2, 1, local, false)
            .expect("known")
            .expect("a finding");
        assert_eq!(
            f.to_string(),
            "engine said ordered for site1#1' vs site2#1, Definition 1 says concurrent"
        );
    }

    #[test]
    fn star_audit_relates_a_same_origin_pair_through_the_original() {
        let mut a = StarAudit::default();
        a.generate((S1, 1));
        a.generate((S1, 2)); // before site 1 hears of O1#1'
        a.execute_at_notifier((S1, 1)).expect("generated");
        // x = y: FIFO at site 1 orders the pair, though site 1's second op
        // is concurrent with the site-0 form of its first.
        assert_eq!(a.check_at_notifier((S1, 2), (S1, 1), false), Ok(None));
        assert!(a
            .check_at_notifier((S1, 2), (S1, 1), true)
            .expect("known")
            .is_some());
    }

    #[test]
    fn star_audit_names_unknown_identities_instead_of_panicking() {
        let mut a = StarAudit::default();
        assert_eq!(
            a.check_at_notifier((S1, 1), (S2, 1), true),
            Err(Unknown::NotYet)
        );
        assert_eq!(a.execute_at_notifier((S1, 1)), Err(Unknown::NotYet));
        assert_eq!(
            a.check_at_client(S2, 1, Named::Op((S2, 1)), true),
            Err(Unknown::Position)
        );
        assert_eq!(
            a.execute_at_client(S2, Named::Position(1)),
            Err(Unknown::Position)
        );
        // Broadcast but not yet executed at site 0: its O' is still to come.
        a.generate((S1, 1));
        a.broadcast(S2, 1, (S1, 1));
        assert_eq!(
            a.execute_at_client(S2, Named::Position(1)),
            Err(Unknown::NotYet)
        );
        assert_eq!(
            a.check_at_notifier((S1, 2), (S1, 1), false),
            Err(Unknown::NotYet)
        );
    }

    #[test]
    fn star_audit_joiner_has_executed_every_earlier_prime() {
        let s3 = SiteId(3);
        let mut a = concurrent_pair();
        let mut strangers = a.clone();
        a.join(s3);
        a.generate((s3, 1));
        // The joiner's op follows site 1's O'.
        assert_eq!(a.check_at_notifier((s3, 1), (S1, 1), false), Ok(None));
        // Without the join rule the pair would be concurrent.
        strangers.generate((s3, 1));
        assert_eq!(
            strangers.check_at_notifier((s3, 1), (S1, 1), true),
            Ok(None)
        );
    }
}
