//! Exact reproductions of the paper's Figures 2 and 3.
//!
//! * [`fig2_report`] replays the paper's Fig. 2 scenario with operations
//!   executed **in their original forms** (no transformation), producing
//!   the two inconsistency problems of Section 2.2: *divergence* (the four
//!   sites end with different documents) and *intention violation* (the
//!   "ABCDE" / `Insert["12",1]` / `Delete[3,2]` example lands on "A1DE"
//!   instead of the intended "A12B").
//! * [`fig3_walkthrough`] replays the same scenario through the real
//!   star/CVC engine, delivering messages in exactly the order of Fig. 3,
//!   and records **every number printed in the paper's Section 5**: the
//!   generation stamps `[0,1]`, `[0,1]`, `[1,1]`, `[1,2]`; the
//!   per-destination propagation stamps `[1,0] [1,1] [2,0] [2,1] [3,1]`;
//!   the buffered full vectors `[0,1,0] [1,1,0] [1,1,1] [1,2,1]`; and all
//!   fourteen concurrency verdicts. Tests assert each against the paper's
//!   text; `repro e3` prints the transcript.
//!
//! Concrete operations (the paper leaves O3/O4 abstract; any choice
//! exercises the same control flow):
//! `O1 = Insert["12",1]`, `O2 = Delete[3,2]` (the Section 2.2 pair),
//! `O4 = Insert["xy",2]` generated at site 3 on "AB",
//! `O3 = Insert["z",4]` generated at site 2 on "A12B".

use crate::client::{Client, ClientIntegration};
use crate::core::NotifierCore;
use crate::hub::Step;
use crate::msg::ClientOpMsg;
use crate::notifier::{Notifier, ScanMode};
use crate::recorder::{FlightEvent, FlightRecorder};
use crate::standby::Standby;
use crate::wal::Wal;
use crate::world::StarWorld;
use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use cvc_ot::buffer::TextBuffer;
use cvc_ot::pos::PosOp;

/// The shared initial document of the running example.
pub const INITIAL_DOC: &str = "ABCDE";

/// Result of the Fig. 2 (no consistency maintenance) replay.
#[derive(Debug, Clone)]
pub struct Fig2Report {
    /// Execution order of the four operations at each site (0..=3).
    pub orders: Vec<(String, Vec<&'static str>)>,
    /// Final document at each site.
    pub final_docs: Vec<String>,
    /// True iff at least two sites ended with different documents.
    pub diverged: bool,
    /// The Section 2.2 two-operation example: intended result.
    pub intended: String,
    /// What site 1 actually obtains executing O1 then the original O2.
    pub violated: String,
}

/// Replay Fig. 2 executing original operation forms in the paper's
/// per-site orders.
pub fn fig2_report() -> Fig2Report {
    let o1 = PosOp::insert(1, "12");
    let o2 = PosOp::delete(2, "CDE"); // Delete[3, 2]
    let o4 = PosOp::insert(2, "xy");
    let o3 = PosOp::insert(4, "z");
    let op = |name: &str| match name {
        "O1" => o1.clone(),
        "O2" => o2.clone(),
        "O3" => o3.clone(),
        "O4" => o4.clone(),
        _ => unreachable!(),
    };

    // The per-site execution orders listed in Section 2.2.
    let orders: Vec<(String, Vec<&'static str>)> = vec![
        ("site 0 (notifier)".into(), vec!["O2", "O1", "O4", "O3"]),
        ("site 1".into(), vec!["O1", "O2", "O4", "O3"]),
        ("site 2".into(), vec!["O2", "O1", "O3", "O4"]),
        ("site 3".into(), vec!["O2", "O4", "O1", "O3"]),
    ];

    let mut final_docs = Vec::new();
    for (_, order) in &orders {
        let mut buf = TextBuffer::from_str(INITIAL_DOC);
        for name in order {
            op(name)
                .apply_blind(&mut buf)
                .expect("fig2 ops stay in bounds");
        }
        final_docs.push(buf.to_string());
    }
    let diverged = final_docs.windows(2).any(|w| w[0] != w[1]);

    // The Section 2.2 intention example in isolation.
    let mut intended_buf = TextBuffer::from_str(INITIAL_DOC);
    o1.apply(&mut intended_buf).expect("O1 fits \"ABCDE\"");
    // Intention-preserved O2 on the new state is Delete[3,4].
    PosOp::delete(4, "CDE")
        .apply(&mut intended_buf)
        .expect("shifted O2 fits \"A12BCDE\"");
    let mut violated_buf = TextBuffer::from_str(INITIAL_DOC);
    o1.apply_blind(&mut violated_buf)
        .expect("O1 fits \"ABCDE\"");
    o2.apply_blind(&mut violated_buf)
        .expect("original O2 stays in bounds of \"A12BCDE\"");

    Fig2Report {
        orders,
        final_docs,
        diverged,
        intended: intended_buf.to_string(),
        violated: violated_buf.to_string(),
    }
}

/// Every number of the paper's Section 5 walkthrough, captured live from
/// the engine.
#[derive(Debug, Clone)]
pub struct Fig3Transcript {
    /// Human-readable step narration (printed by `repro e3`).
    pub narration: Vec<String>,
    /// Generation stamps of O2, O1, O4, O3 (paper: `[0,1] [0,1] [1,1] [1,2]`).
    pub gen_stamps: [CompressedStamp; 4],
    /// Propagation stamps: (label, destination site, stamp).
    pub prop_stamps: Vec<(&'static str, u32, CompressedStamp)>,
    /// Buffered full state vectors at site 0 for O2', O1', O4', O3'.
    pub buffered_vectors: [Vec<u64>; 4],
    /// Labelled concurrency verdicts, in the order the paper discusses
    /// them: (where, Oa, Ob, concurrent?).
    pub verdicts: Vec<(&'static str, &'static str, &'static str, bool)>,
    /// O2' as executed at site 1, decomposed to positional form
    /// (paper Section 2.3: `Delete[3,4]`).
    pub o2p_at_site1: Vec<PosOp>,
    /// Final documents: site 0, 1, 2, 3.
    pub final_docs: [String; 4],
    /// All four replicas identical.
    pub converged: bool,
    /// Per-site flight-recorder traces (sites 0–3, oldest event first).
    /// The observability acceptance surface: these rings must reproduce
    /// every Section 5 number above and replay cleanly through
    /// [`crate::audit::audit_streams`].
    pub flight_traces: Vec<(SiteId, Vec<FlightEvent>)>,
}

/// The Fig. 3 script's state: the star being stepped, and what the
/// transcript collects along the way.
struct Fig3 {
    w: StarWorld,
    narration: Vec<String>,
    verdicts: Vec<(&'static str, &'static str, &'static str, bool)>,
    prop_stamps: Vec<(&'static str, u32, CompressedStamp)>,
}

/// Verdict labels by site number.
const SITES: [&str; 4] = ["site 0", "site 1", "site 2", "site 3"];

impl Fig3 {
    /// Site `n`'s replica (`0`, the notifier's): its document and ring.
    fn replica(&self, n: u32) -> (String, &FlightRecorder) {
        match self.w.client(SiteId(n)) {
            Some(c) => (c.doc(), c.recorder()),
            None => (self.w.notifier().doc(), self.w.notifier().recorder()),
        }
    }

    /// Site `n` generates `what` through `edit`; returns its stamp.
    fn generate(
        &mut self,
        n: u32,
        what: &str,
        edit: fn(&mut Client) -> ClientOpMsg,
    ) -> CompressedStamp {
        let stamp = self.w.edit(SiteId(n), |c| Ok(edit(c))).expect("a member");
        let doc = self.replica(n).0;
        self.narration.push(format!(
            "site {n} generates {what}, stamped {stamp}; doc: {doc:?}"
        ));
        stamp
    }

    /// Site 0 integrates site `from`'s next op `op` against its history
    /// `against`, narrates `head` and each propagation of `prime`, and
    /// returns the new entry's buffered full vector.
    fn at_site0(
        &mut self,
        from: u32,
        op: &'static str,
        prime: &'static str,
        against: &[&'static str],
        head: &str,
    ) -> Vec<u64> {
        let out = self.w.deliver_up(SiteId(from)).expect("valid client op");
        let out = out.expect("queued");
        for (k, &ob) in against.iter().enumerate() {
            self.verdicts.push(("site 0", op, ob, out.verdict(k)));
        }
        let n = self.w.notifier();
        let buffered = n.hb_snapshot(against.len()).entries().to_vec();
        // E3's golden pins the wording: the first line shows no document.
        let doc = match against {
            [] => String::new(),
            _ => format!("; doc: {:?}", n.doc()),
        };
        let sv = n.state_vector();
        self.narration.push(format!(
            "site 0{head}; SV_0 = {sv}; buffers with {buffered:?}{doc}"
        ));
        for &(dest, stamp) in &out.stamps {
            let to = dest.0;
            self.narration.push(format!(
                "site 0 propagates {prime} to site {to} stamped {stamp}"
            ));
            self.prop_stamps.push((prime, to, stamp));
        }
        buffered
    }

    /// Site `to` integrates its next broadcast `prime` against its history
    /// `against` and, given a `tail`, narrates it.
    fn at_client(
        &mut self,
        to: u32,
        prime: &'static str,
        against: &[&'static str],
        tail: Option<&str>,
    ) -> ClientIntegration {
        let out = self.w.deliver_down(SiteId(to)).expect("valid server op");
        let out = out.expect("queued");
        assert_eq!(out.checked.len(), against.len(), "{prime} at site {to}");
        for (&ob, &verdict) in against.iter().zip(&out.checked) {
            self.verdicts.push((SITES[to as usize], prime, ob, verdict));
        }
        if let Some(tail) = tail {
            let doc = self.replica(to).0;
            self.narration
                .push(format!("site {to}{tail}; doc: {doc:?}"));
        }
        out
    }
}

/// Drive the real engine through the Fig. 3 event order.
pub fn fig3_walkthrough() -> Fig3Transcript {
    let mut notifier = Notifier::new(3, INITIAL_DOC);
    // Ack-driven collection stays off for this transcript — and only
    // here: the walkthrough reproduces the paper's Fig. 3 history-buffer
    // contents by absolute index, which a mid-trace trim would shift.
    // Live layers (sessions, benches) run with auto-GC on by default.
    notifier.set_auto_gc(false);
    // Record the whole walkthrough (the world's clients record because
    // its notifier does): the rings must independently reproduce every
    // Section 5 number and survive the oracle audit.
    notifier.set_flight_recorder(true);
    let mut t = Fig3 {
        w: StarWorld::new(NotifierCore::new(notifier, None, None)),
        narration: Vec::new(),
        verdicts: Vec::new(),
        prop_stamps: Vec::new(),
    };

    // --- Generation of O2 at site 2 and O1 at site 1 (concurrent). ---
    let gen_o2 = t.generate(2, "O2 = Delete[3,2]", |c| c.delete(2, 3));
    let gen_o1 = t.generate(1, "O1 = Insert[\"12\",1]", |c| c.insert(1, "12"));

    // --- O2 reaches site 0 first; O2' reaches site 1 (HB_1 = [O1]) and
    // site 3 (empty HB). ---
    let buffered_o2p = t.at_site0(2, "O2", "O2'", &[], " executes O2 as-is (O2')");
    let at_1 = t.at_client(1, "O2'", &["O1"], None);
    let o2p_at_site1 = at_1
        .executed
        .to_pos("A12BCDE")
        .expect("decompose O2' at site 1");
    let shown: Vec<String> = o2p_at_site1.iter().map(|o| o.to_string()).collect();
    let doc = t.replica(1).0;
    t.narration.push(format!(
        "site 1: O2' ∥ O1 → transformed to {shown:?}; doc: {doc:?}"
    ));
    t.at_client(3, "O2'", &[], Some(" executes O2' as-is"));

    // --- Site 3 generates O4 on "AB"; O1 arrives at site 0 (HB_0 = [O2']). ---
    let gen_o4 = t.generate(3, "O4 = Insert[\"xy\",2]", |c| c.insert(2, "xy"));
    let buffered_o1p = t.at_site0(1, "O1", "O1'", &["O2'"], ": O2' ∥ O1 → O1' executed");

    // --- O1' arrives at site 2 (HB_2 = [O2]), which then generates O3 on
    // "A12B"; then at site 3 (HB_3 = [O2', O4]). ---
    t.at_client(2, "O1'", &["O2"], Some(" executes O1' as-is"));
    let gen_o3 = t.generate(2, "O3 = Insert[\"z\",4]", |c| c.insert(4, "z"));
    let tail = ": O1' ∥ O4 → transformed and executed";
    t.at_client(3, "O1'", &["O2'", "O4"], Some(tail));

    // --- O4 arrives at site 0 (HB_0 = [O2', O1']), then at site 1
    // (HB_1 = [O1, O2']) and site 2 (HB_2 = [O2, O1', O3]). ---
    let head = ": O1' ∥ O4 → O4' executed";
    let buffered_o4p = t.at_site0(3, "O4", "O4'", &["O2'", "O1'"], head);
    t.at_client(1, "O4'", &["O1", "O2'"], Some(" executes O4' as-is"));
    let tail = ": O4' ∥ O3 → transformed and executed";
    t.at_client(2, "O4'", &["O2", "O1'", "O3"], Some(tail));

    // --- O3 arrives at site 0 (HB_0 = [O2', O1', O4']), then at sites 1
    // and 3. ---
    let head = ": O4' ∥ O3 → O3' executed";
    let buffered_o3p = t.at_site0(2, "O3", "O3'", &["O2'", "O1'", "O4'"], head);
    t.at_client(1, "O3'", &["O1", "O2'", "O4'"], Some(" executes O3' as-is"));
    t.at_client(3, "O3'", &["O2'", "O4", "O1'"], Some(" executes O3' as-is"));

    let final_docs = [0, 1, 2, 3].map(|n| t.replica(n).0);
    let converged = final_docs.windows(2).all(|w| w[0] == w[1]);
    let flight_traces = (0..=3)
        .map(|n| (SiteId(n), t.replica(n).1.events()))
        .collect();

    Fig3Transcript {
        narration: t.narration,
        gen_stamps: [gen_o2, gen_o1, gen_o4, gen_o3],
        prop_stamps: t.prop_stamps,
        buffered_vectors: [buffered_o2p, buffered_o1p, buffered_o4p, buffered_o3p],
        verdicts: t.verdicts,
        o2p_at_site1,
        final_docs,
        converged,
        flight_traces,
    }
}

/// Step-by-step transcript of the durability and failover model: the
/// write-ahead ordering (validate, log, mirror, *then* send), a primary
/// crash mid-broadcast, warm-standby promotion from the mirrored log,
/// and per-client resync driven by nothing but the 2-element clock's
/// `received` cursor. The paper's own scenario (Figures 2/3) supplies
/// the operations; `repro failover` prints the narration.
#[derive(Debug, Clone)]
pub struct FailoverTranscript {
    /// Human-readable step narration.
    pub narration: Vec<String>,
    /// Records in the primary's WAL at the moment it died.
    pub wal_records_at_crash: u64,
    /// Operations the standby had replayed when it was promoted.
    pub standby_replay_ops: u64,
    /// The dead primary's document…
    pub doc_at_crash: String,
    /// …and the promoted notifier's, rebuilt purely from the log. The
    /// failover guarantee is that these are byte-identical.
    pub doc_at_promotion: String,
    /// Per-client recovery: (site, ops replayed from the promoted
    /// notifier's history buffer). Clients that missed nothing replay
    /// nothing — the `received` cursor tells the promoted notifier
    /// exactly where each stream stopped.
    pub replays: Vec<(u32, usize)>,
    /// Final documents: promoted notifier, then sites 1–3.
    pub final_docs: Vec<String>,
    /// All four replicas identical after recovery plus one more edit.
    pub converged: bool,
}

/// Step the transport-free star ([`StarWorld`]) over a durable core
/// through a crash and promotion. The reliability layer's epoch fencing is exercised by the
/// simulated sessions ([`crate::reliable`]); this walkthrough isolates
/// the durability core those sessions rely on.
pub fn failover_walkthrough() -> FailoverTranscript {
    let mut narration = Vec::new();

    // The write-ahead ordering every integration follows, enforced by
    // the durable core under the hub: validate, append to the log, let the
    // standby tail the appended record, and only then hand back what to
    // broadcast. A crash after any of these steps loses broadcasts —
    // never logged history.
    let mut w = StarWorld::new(NotifierCore::new(
        Notifier::new(3, INITIAL_DOC),
        Some(Wal::new(0)),
        Some(Standby::new(3, INITIAL_DOC, ScanMode::SuffixBounded)),
    ));
    // Site `to`'s channel delivers its next broadcast.
    let down = |w: &mut StarWorld, to: u32| {
        let out = w.deliver_down(SiteId(to)).expect("valid server op");
        out.expect("queued");
    };
    // Site `from`'s next op reaches the primary; its broadcasts reach `to`.
    let relay = |w: &mut StarWorld, from: u32, to: &[u32]| {
        let out = w
            .deliver_up(SiteId(from))
            .expect("the scenario's ops are valid");
        out.expect("sent on a bound channel");
        to.iter().for_each(|&site| down(w, site));
    };

    // --- Healthy operation: O2 and O1, logged then broadcast. ---
    // The paper's Delete[3,2].
    let o2 = w.edit(SiteId(2), |c| Ok(c.delete(2, 3))).expect("a member");
    narration.push(format!(
        "site 2 generates O2 = Delete[3,2] stamped {o2}; primary logs it (WAL record 1), standby tails it, then broadcasts"
    ));
    relay(&mut w, 2, &[1, 3]);
    // The paper's Insert["12",1].
    let o1 = w
        .edit(SiteId(1), |c| Ok(c.insert(1, "12")))
        .expect("a member");
    narration.push(format!(
        "site 1 generates O1 = Insert[\"12\",1] stamped {o1}; logged (record 2), mirrored, broadcast"
    ));
    relay(&mut w, 1, &[2, 3]);

    // --- The crash: O4 is logged and executed, but the primary dies
    // mid-broadcast — site 1's copy is on the wire, site 2's is still
    // queued when the process dies. ---
    w.edit(SiteId(3), |c| Ok(c.insert(2, "xy")))
        .expect("a member");
    relay(&mut w, 3, &[1]);
    let doc_at_crash = w.notifier().doc();
    let wal_records_at_crash = w.hub().core().wal().map_or(0, Wal::appends);
    narration.push(format!(
        "site 3 generates O4 = Insert[\"xy\",2]; logged (record 3), mirrored, executed — then the primary CRASHES mid-broadcast on {:?}",
        doc_at_crash
    ));
    narration.push("O4' to site 1 had left the host; site 2's copy is lost".into());

    // --- Promotion: the standby has replayed exactly the logged
    // history, so its replica equals the dead primary's. ---
    let (standby_replay_ops, _) = w
        .core_mut()
        .promote()
        .expect("the walkthrough runs a standby")
        .expect("the mirrored log was clean");
    let doc_at_promotion = w.notifier().doc();
    narration.push(format!(
        "standby promoted after replaying {} logged ops; its document {:?} is byte-identical to the dead primary's",
        standby_replay_ops, doc_at_promotion
    ));

    // --- Resync: every connection (channels 0–2) died with the primary,
    // site 2's copy of O4' with it. Each client says hello on a new one
    // with its `received` cursor (the second element of its compressed
    // clock); the promoted notifier's hub replays exactly the missed
    // suffix of that client's stream. ---
    for ch in 0..3 {
        w.close(ch);
    }
    let mut replays = Vec::new();
    for site in 1..=3u32 {
        let client = w.client(SiteId(site)).expect("a member");
        let received = client.state_vector().received();
        let step = w.hello(SiteId(site), 2 + site as usize);
        assert!(matches!(step, Ok(Step::Bound(_))), "resync: {step:?}");
        let replayed = w.queued(SiteId(site)).1;
        narration.push(format!(
            "site {site} resyncs from cursor received={received}: {replayed} op(s) replayed"
        ));
        replays.push((site, replayed));
        (0..replayed).for_each(|_| down(&mut w, site));
    }

    // --- Post-recovery health: one more edit flows through the promoted
    // primary (which keeps extending the same log) and reaches everyone. ---
    w.edit(SiteId(2), |c| Ok(c.insert(4, "z")))
        .expect("a member");
    narration.push(
        "site 2 generates O3 = Insert[\"z\",4] against the recovered state; \
         the promoted primary logs and broadcasts it"
            .into(),
    );
    relay(&mut w, 2, &[1, 3]);

    let mut final_docs = vec![w.notifier().doc()];
    final_docs.extend(w.clients().map(Client::doc));
    let converged = final_docs.windows(2).all(|w| w[0] == w[1]);
    narration.push(format!(
        "all four replicas read {:?}: converged across the crash",
        final_docs[0]
    ));

    FailoverTranscript {
        narration,
        wal_records_at_crash,
        standby_replay_ops,
        doc_at_crash,
        doc_at_promotion,
        replays,
        final_docs,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shows_divergence() {
        let r = fig2_report();
        assert!(r.diverged, "fig2 must diverge: {:?}", r.final_docs);
        // Site 0 and site 1 disagree in particular.
        assert_ne!(r.final_docs[0], r.final_docs[1]);
    }

    #[test]
    fn fig2_shows_intention_violation() {
        let r = fig2_report();
        // Exactly the strings in Section 2.2.
        assert_eq!(r.intended, "A12B");
        assert_eq!(r.violated, "A1DE");
    }

    #[test]
    fn fig3_generation_stamps_match_paper() {
        let t = fig3_walkthrough();
        let pairs: Vec<(u64, u64)> = t.gen_stamps.iter().map(|s| s.as_pair()).collect();
        // O2 [0,1], O1 [0,1], O4 [1,1], O3 [1,2].
        assert_eq!(pairs, vec![(0, 1), (0, 1), (1, 1), (1, 2)]);
    }

    #[test]
    fn fig3_propagation_stamps_match_paper() {
        let t = fig3_walkthrough();
        let got: Vec<(&str, u32, (u64, u64))> = t
            .prop_stamps
            .iter()
            .map(|&(l, d, s)| (l, d, s.as_pair()))
            .collect();
        assert_eq!(
            got,
            vec![
                ("O2'", 1, (1, 0)),
                ("O2'", 3, (1, 0)),
                ("O1'", 2, (1, 1)),
                ("O1'", 3, (2, 0)),
                ("O4'", 1, (2, 1)),
                ("O4'", 2, (2, 1)),
                ("O3'", 1, (3, 1)),
                ("O3'", 3, (3, 1)),
            ]
        );
    }

    #[test]
    fn fig3_buffered_vectors_match_paper() {
        let t = fig3_walkthrough();
        assert_eq!(t.buffered_vectors[0], vec![0, 1, 0]);
        assert_eq!(t.buffered_vectors[1], vec![1, 1, 0]);
        assert_eq!(t.buffered_vectors[2], vec![1, 1, 1]);
        assert_eq!(t.buffered_vectors[3], vec![1, 2, 1]);
    }

    #[test]
    fn fig3_verdicts_match_paper() {
        let t = fig3_walkthrough();
        let expected: Vec<(&str, &str, &str, bool)> = vec![
            ("site 1", "O2'", "O1", true),
            ("site 0", "O1", "O2'", true),
            ("site 2", "O1'", "O2", false),
            ("site 3", "O1'", "O2'", false),
            ("site 3", "O1'", "O4", true),
            ("site 0", "O4", "O2'", false),
            ("site 0", "O4", "O1'", true),
            ("site 1", "O4'", "O1", false),
            ("site 1", "O4'", "O2'", false),
            ("site 2", "O4'", "O2", false),
            ("site 2", "O4'", "O1'", false),
            ("site 2", "O4'", "O3", true),
            ("site 0", "O3", "O2'", false),
            ("site 0", "O3", "O1'", false),
            ("site 0", "O3", "O4'", true),
            ("site 1", "O3'", "O1", false),
            ("site 1", "O3'", "O2'", false),
            ("site 1", "O3'", "O4'", false),
            ("site 3", "O3'", "O2'", false),
            ("site 3", "O3'", "O4", false),
            ("site 3", "O3'", "O1'", false),
        ];
        assert_eq!(t.verdicts, expected);
    }

    #[test]
    fn fig3_o2_transforms_to_delete_3_4_at_site1() {
        let t = fig3_walkthrough();
        assert_eq!(t.o2p_at_site1, vec![PosOp::delete(4, "CDE")]);
    }

    /// The flight-recorder rings, read back cold, reproduce every number
    /// of the Section 5 walkthrough: generation stamps, per-destination
    /// propagation stamps, the buffered formula-(2) vectors, and all 21
    /// concurrency verdicts.
    #[test]
    fn fig3_flight_recorder_reproduces_the_papers_numbers() {
        use crate::recorder::EventKind;
        let t = fig3_walkthrough();
        let trace = |site: u32| {
            &t.flight_traces
                .iter()
                .find(|(s, _)| s.0 == site)
                .expect("every site recorded a trace")
                .1
        };

        // Generation stamps [0,1] [0,1] [1,1] [1,2], from the clients'
        // Generate events (site 2 generated O2 then O3).
        let gens = |site: u32| -> Vec<(u64, u64)> {
            trace(site)
                .iter()
                .filter(|e| e.kind == EventKind::Generate)
                .map(|e| e.stamp.as_pair())
                .collect()
        };
        assert_eq!(gens(1), vec![(0, 1)], "O1");
        assert_eq!(gens(2), vec![(0, 1), (1, 2)], "O2 then O3");
        assert_eq!(gens(3), vec![(1, 1)], "O4");

        // Per-destination propagation stamps, from the notifier's
        // Broadcast events, in broadcast order.
        let props: Vec<(u32, (u64, u64))> = trace(0)
            .iter()
            .filter(|e| e.kind == EventKind::Broadcast)
            .map(|e| (e.a as u32, e.stamp.as_pair()))
            .collect();
        let expected: Vec<(u32, (u64, u64))> = t
            .prop_stamps
            .iter()
            .map(|&(_, d, s)| (d, s.as_pair()))
            .collect();
        assert_eq!(props, expected);

        // The buffered formula-(2) vectors ride the notifier's Execute
        // events.
        let vectors: Vec<Vec<u64>> = trace(0)
            .iter()
            .filter(|e| e.kind == EventKind::Execute)
            .map(|e| e.vector_slice().to_vec())
            .collect();
        assert_eq!(vectors, t.buffered_vectors.to_vec());

        // All 21 verdicts: each site's Transform flags, in ring order,
        // equal the transcript's verdicts for that site.
        let mut total = 0;
        for site in 0..=3u32 {
            let flags: Vec<bool> = trace(site)
                .iter()
                .filter(|e| e.kind == EventKind::Transform)
                .map(|e| e.flag)
                .collect();
            let label = format!("site {site}");
            let expected: Vec<bool> = t
                .verdicts
                .iter()
                .filter(|(w, ..)| *w == label)
                .map(|&(_, _, _, v)| v)
                .collect();
            assert_eq!(flags, expected, "verdict flags at {label}");
            total += flags.len();
        }
        assert_eq!(total, 21, "the Section 5 walkthrough has 21 verdicts");
    }

    /// The audit replayer re-runs the live Fig. 3 rings through the
    /// ground-truth oracle: every verdict agrees with Definition 1.
    #[test]
    fn fig3_flight_traces_audit_clean_against_the_oracle() {
        let t = fig3_walkthrough();
        let report = crate::audit::audit_streams(&t.flight_traces)
            .expect("the live Fig. 3 traces must replay cleanly through Definition 1");
        assert_eq!(report.ops_registered, 4);
        assert_eq!(report.primes_registered, 4);
        assert_eq!(report.broadcasts_mapped, 8);
        assert_eq!(report.verdicts_validated, 21);
        assert_eq!(report.executions_replayed, 12);
    }

    /// The promoted standby is the dead primary, byte for byte: the
    /// mirrored log determines the replica completely.
    #[test]
    fn failover_promotes_an_identical_replica() {
        let t = failover_walkthrough();
        assert_eq!(t.doc_at_crash, t.doc_at_promotion);
        assert_eq!(t.wal_records_at_crash, 3, "O2, O1, O4 were logged");
        assert_eq!(t.standby_replay_ops, 3, "the standby tailed all three");
    }

    /// Resync is cursor-driven: the client that missed the in-flight
    /// broadcast replays exactly one op; the others replay nothing.
    #[test]
    fn failover_resync_replays_exactly_the_missed_suffix() {
        let t = failover_walkthrough();
        assert_eq!(t.replays, vec![(1, 0), (2, 1), (3, 0)]);
    }

    /// The session survives the crash end to end: after promotion,
    /// resync, and one more edit, all four replicas agree and every
    /// operation's intention is preserved.
    #[test]
    fn failover_walkthrough_converges() {
        let t = failover_walkthrough();
        assert!(t.converged, "docs: {:?}", t.final_docs);
        let doc = &t.final_docs[0];
        assert!(doc.starts_with("A1"), "doc: {doc}");
        assert!(doc.contains("xy") && doc.contains('z'), "doc: {doc}");
        assert!(!doc.contains('C') && !doc.contains('D') && !doc.contains('E'));
    }

    #[test]
    fn fig3_converges_including_the_notifier() {
        let t = fig3_walkthrough();
        assert!(t.converged, "docs: {:?}", t.final_docs);
        // Intention of every op preserved: "12" after A, "xy" and "z"
        // inserted, "CDE" gone.
        let doc = &t.final_docs[0];
        assert!(doc.starts_with("A12"), "doc: {doc}");
        assert!(doc.contains("xy") && doc.contains('z'));
        assert!(!doc.contains('C') && !doc.contains('D') && !doc.contains('E'));
    }
}
