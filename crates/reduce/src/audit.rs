//! Causality audit replayer: re-run a flight-recorder dump through the
//! ground-truth oracle.
//!
//! The [`crate::recorder`] rings capture, per site, the lifecycle walk of
//! every operation — generation, delivery, the individual formula (5)/(7)
//! concurrency checks, execution, broadcast. This module replays such a
//! set of per-site traces through [`cvc_core::oracle::CausalityOracle`]
//! (Definition 1, no clocks at all) and reports the **first event whose
//! recorded verdict or ordering contradicts the oracle**:
//!
//! * a [`EventKind::Transform`] event whose `flag` (the engine's
//!   "concurrent?" verdict from formula (5) or (7)) differs from
//!   [`CausalityOracle::concurrent`];
//! * a trace that cannot be linearised causally at all — an execution or
//!   check referring to an operation whose generation never appears
//!   (corrupted or truncated ring).
//!
//! ## Operation identity
//!
//! Events name operations by their *generation identity* `(origin site,
//! per-origin sequence)`. Following the paper (and [`crate::verify`],
//! which pioneered this mapping for experiment E8), every notifier
//! execution of a client operation also *generates* the transformed `O'`
//! as a fresh operation at site 0 whose causal context is everything the
//! notifier executed before it; downstream client events refer to that
//! prime form. The one exception is the paper's `x = y` rule: when the
//! notifier checks an incoming operation against a buffered entry from
//! the **same** origin, the pair relates through the entry's original
//! (FIFO order at the generating site), not its site-0 re-generation.
//!
//! Clients receive server operations that identify themselves only by
//! *stream position* (`T[1]` of the propagation stamp — how many
//! operations the notifier has sent this client). Such events carry
//! [`NO_SITE`] and the position; the replayer resolves them through the
//! notifier's [`EventKind::Broadcast`] events, which map
//! `(destination, position) → (origin, sequence)`.
//!
//! The replay itself is a round-robin topological merge: each per-site
//! trace is consumed in order, an event waiting until the operations it
//! references are registered. A full pass with no progress means the
//! traces are causally inconsistent — also a reportable violation.

use crate::recorder::{EventKind, FlightEvent, NO_SITE};
use cvc_core::oracle::{CausalityOracle, OpRef};
use cvc_core::site::SiteId;
use std::collections::HashMap;
use std::fmt;

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

/// Generation identity of an operation: `(origin site, per-origin seq)`.
type OpId = (u32, u64);

/// Replay per-site flight-recorder traces through the causality oracle.
///
/// `traces` holds one `(site, events-oldest-first)` pair per participant;
/// the notifier is identified as site 0 (its `Broadcast` events provide
/// the position → identity mapping clients need). Returns the replay
/// summary, or the **first** event that contradicts Definition 1.
pub fn audit_streams(traces: &[(SiteId, Vec<FlightEvent>)]) -> Result<AuditReport, AuditViolation> {
    // Phase 1: learn (destination, position) → (origin, seq) from the
    // notifier's broadcast events, and find which rings wrapped — a
    // truncated ring means the merge below is auditing a suffix, so gaps
    // it hits are reported as truncation, not treated as violations.
    let mut broadcast_map: HashMap<(u32, u64), OpId> = HashMap::new();
    let mut truncated_sites: Vec<SiteId> = Vec::new();
    let mut events_lost = 0u64;
    for (site, events) in traces {
        for ev in events {
            if ev.kind == EventKind::RingTruncated {
                truncated_sites.push(*site);
                events_lost += ev.a;
            }
            if site.0 == 0 && ev.kind == EventKind::Broadcast {
                broadcast_map.insert((ev.a as u32, ev.stamp.get(1)), (ev.op_site, ev.op_seq));
            }
        }
    }
    let truncated = !truncated_sites.is_empty();

    // Phase 2: round-robin topological merge into the oracle.
    let mut oracle = CausalityOracle::new();
    // Originals, keyed by generation identity.
    let mut op_map: HashMap<OpId, OpRef> = HashMap::new();
    // Transformed site-0 forms, keyed by the original's identity.
    let mut prime_map: HashMap<OpId, OpRef> = HashMap::new();
    let mut cursors = vec![0usize; traces.len()];
    let mut report = AuditReport {
        broadcasts_mapped: broadcast_map.len(),
        truncated_sites,
        events_lost,
        ..AuditReport::default()
    };

    let unresolved = |site: SiteId, ev: &FlightEvent, what: &str| AuditViolation {
        site,
        event_seq: ev.seq,
        kind: AuditViolationKind::UnresolvedOp,
        message: format!("{what} references an unknown operation: {ev}"),
    };

    loop {
        let mut progressed = false;
        for (ti, (site, events)) in traces.iter().enumerate() {
            'stream: while cursors[ti] < events.len() {
                let ev = &events[cursors[ti]];
                match ev.kind {
                    EventKind::Generate => {
                        let id: OpId = (ev.op_site, ev.op_seq);
                        let r = oracle.record_generation(*site, format!("site{}#{}", id.0, id.1));
                        op_map.insert(id, r);
                        report.ops_registered += 1;
                    }
                    EventKind::Execute if site.0 == 0 => {
                        // The notifier executes the original, then
                        // "generates" the transformed O' as site 0.
                        if ev.op_site == NO_SITE {
                            if truncated {
                                report.unreplayed_events += 1;
                                cursors[ti] += 1;
                                progressed = true;
                                continue 'stream;
                            }
                            return Err(unresolved(*site, ev, "notifier execute"));
                        }
                        let id: OpId = (ev.op_site, ev.op_seq);
                        let Some(&orig) = op_map.get(&id) else {
                            break 'stream; // generation not merged yet
                        };
                        oracle.record_execution(*site, orig);
                        let prime =
                            oracle.record_generation(*site, format!("site{}#{}'", id.0, id.1));
                        prime_map.insert(id, prime);
                        report.executions_replayed += 1;
                        report.primes_registered += 1;
                    }
                    EventKind::Execute => {
                        // A client executes the propagated (prime) form.
                        let r = if ev.op_site == NO_SITE {
                            let Some(&id) = broadcast_map.get(&(site.0, ev.op_seq)) else {
                                if truncated {
                                    report.unreplayed_events += 1;
                                    cursors[ti] += 1;
                                    progressed = true;
                                    continue 'stream;
                                }
                                return Err(unresolved(*site, ev, "client execute"));
                            };
                            let Some(&p) = prime_map.get(&id) else {
                                break 'stream;
                            };
                            p
                        } else {
                            let Some(&r) = op_map.get(&(ev.op_site, ev.op_seq)) else {
                                break 'stream;
                            };
                            r
                        };
                        oracle.record_execution(*site, r);
                        report.executions_replayed += 1;
                    }
                    EventKind::Transform if site.0 == 0 => {
                        // Formula (7): incoming original vs a buffered
                        // entry — same-origin pairs through the original
                        // (the x = y rule), cross-site through the prime.
                        if ev.op_site == NO_SITE {
                            if truncated {
                                report.unreplayed_events += 1;
                                cursors[ti] += 1;
                                progressed = true;
                                continue 'stream;
                            }
                            return Err(unresolved(*site, ev, "notifier check (incoming)"));
                        }
                        let inc_id: OpId = (ev.op_site, ev.op_seq);
                        let chk_id: OpId = (ev.a as u32, ev.b);
                        let Some(&inc) = op_map.get(&inc_id) else {
                            break 'stream;
                        };
                        let chk = if chk_id.0 == inc_id.0 {
                            match op_map.get(&chk_id) {
                                Some(&r) => r,
                                None => break 'stream,
                            }
                        } else {
                            match prime_map.get(&chk_id) {
                                Some(&r) => r,
                                None => break 'stream,
                            }
                        };
                        check_verdict(&oracle, *site, ev, inc, chk)?;
                        report.verdicts_validated += 1;
                    }
                    EventKind::Transform => {
                        // Formula (5): incoming prime vs a buffered entry
                        // (local original, or an earlier prime by stream
                        // position).
                        let Some(&inc_id) = broadcast_map.get(&(site.0, ev.op_seq)) else {
                            if truncated {
                                report.unreplayed_events += 1;
                                cursors[ti] += 1;
                                progressed = true;
                                continue 'stream;
                            }
                            return Err(unresolved(*site, ev, "client check (incoming)"));
                        };
                        let Some(&inc) = prime_map.get(&inc_id) else {
                            break 'stream;
                        };
                        let chk = if ev.a == u64::from(NO_SITE) {
                            let Some(&id) = broadcast_map.get(&(site.0, ev.b)) else {
                                if truncated {
                                    report.unreplayed_events += 1;
                                    cursors[ti] += 1;
                                    progressed = true;
                                    continue 'stream;
                                }
                                return Err(unresolved(*site, ev, "client check (checked)"));
                            };
                            match prime_map.get(&id) {
                                Some(&r) => r,
                                None => break 'stream,
                            }
                        } else {
                            match op_map.get(&(ev.a as u32, ev.b)) {
                                Some(&r) => r,
                                None => break 'stream,
                            }
                        };
                        check_verdict(&oracle, *site, ev, inc, chk)?;
                        report.verdicts_validated += 1;
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
                cursors[ti] += 1;
                progressed = true;
            }
        }
        if cursors.iter().zip(traces).all(|(&c, (_, e))| c == e.len()) {
            return Ok(report);
        }
        if !progressed {
            if truncated {
                // Some ring wrapped: every stuck head waits on an
                // operation whose generation was overwritten. That is
                // expected data loss, not causal inconsistency — skip the
                // oldest stuck event and keep replaying whatever the
                // surviving suffixes still support.
                let ti = traces
                    .iter()
                    .enumerate()
                    .filter(|(ti, (_, e))| cursors[*ti] < e.len())
                    .min_by_key(|(ti, (_, e))| e[cursors[*ti]].seq)
                    .map(|(ti, _)| ti)
                    .expect("some trace is unfinished");
                report.unreplayed_events += 1;
                cursors[ti] += 1;
                continue;
            }
            // Every remaining head waits on an operation that will never
            // be registered: the traces are causally inconsistent.
            let (site, ev) = traces
                .iter()
                .enumerate()
                .filter(|(ti, (_, e))| cursors[*ti] < e.len())
                .map(|(ti, (s, e))| (*s, e[cursors[ti]]))
                .min_by_key(|(_, ev)| ev.seq)
                .expect("some trace is unfinished");
            return Err(AuditViolation {
                site,
                event_seq: ev.seq,
                kind: AuditViolationKind::Stalled,
                message: format!(
                    "no causal order can schedule the remaining events; first stuck: {ev}"
                ),
            });
        }
    }
}

/// Compare one recorded verdict against Definition 1.
fn check_verdict(
    oracle: &CausalityOracle,
    site: SiteId,
    ev: &FlightEvent,
    inc: OpRef,
    chk: OpRef,
) -> Result<(), AuditViolation> {
    let truth = oracle.concurrent(inc, chk);
    if truth != ev.flag {
        return Err(AuditViolation {
            site,
            event_seq: ev.seq,
            kind: AuditViolationKind::VerdictMismatch,
            message: format!(
                "engine said {} for {} vs {}, Definition 1 says {} ({ev})",
                if ev.flag { "concurrent" } else { "ordered" },
                oracle.label_of(inc),
                oracle.label_of(chk),
                if truth { "concurrent" } else { "ordered" },
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
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
}
