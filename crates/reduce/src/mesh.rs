//! The fully-distributed baseline: classic REDUCE/GROVE-style sites with
//! full `N`-element vector clocks.
//!
//! This is the system the paper compresses *away from*: every site
//! broadcasts to every other site (or through a dumb relay — same
//! messages), every message carries a full vector timestamp, and every
//! site runs a GOTO-style integration over its history buffer:
//!
//! 1. hold arriving operations until **causally ready** (vector-clock
//!    test — the mesh has no serializing centre, so FIFO channels alone
//!    don't give causal order);
//! 2. detect the history-buffer operations concurrent with the new one
//!    (the classical formula (3));
//! 3. *transpose* the history buffer so those concurrent operations form a
//!    contiguous tail (possible because an operation causally before the
//!    new one can never causally follow a concurrent one);
//! 4. inclusion-transform the new operation across that tail and execute.
//!
//! Correctness here genuinely needs **TP2** — which is why this deployment
//! runs on the tombstone (TTF) operation layer rather than plain positional
//! ops. The star deployment needs none of this machinery; that contrast is
//! the paper's argument made executable.

use crate::metrics::SiteMetrics;
use crate::msg::MeshOpMsg;
use cvc_core::formulas::formula3_full_vector;
use cvc_core::site::SiteId;
use cvc_core::vector::VectorClock;
use cvc_ot::ttf::{it_ttf, transpose, TtfDoc, TtfOp};

/// One executed operation in a mesh site's history buffer.
#[derive(Debug, Clone)]
pub struct MeshHbEntry {
    /// Full vector timestamp from generation (operation-count convention).
    pub vector: VectorClock,
    /// Generating site.
    pub origin: SiteId,
    /// Executed (transformed) form — updated if the buffer is transposed.
    pub op: TtfOp,
}

/// A fully-distributed collaborating site.
#[derive(Debug, Clone)]
pub struct MeshSite {
    site: SiteId,
    vc: VectorClock,
    doc: TtfDoc,
    hb: Vec<MeshHbEntry>,
    /// Operations waiting for causal readiness.
    pending: Vec<MeshOpMsg>,
    /// What each peer is known to have executed — the generation vector of
    /// its latest operation we executed. This is one row of the classical
    /// matrix clock, learned for free from traffic the protocol already
    /// carries; it drives history-buffer garbage collection.
    peer_vectors: Vec<VectorClock>,
    metrics: SiteMetrics,
}

impl MeshSite {
    /// A site in a mesh of `n` clients, starting from `initial`.
    pub fn new(site: SiteId, n: usize, initial: &str) -> Self {
        assert!(!site.is_notifier(), "mesh sites are clients 1..=N");
        assert!(site.client_index() < n);
        MeshSite {
            site,
            vc: VectorClock::new(n),
            doc: TtfDoc::from_str(initial),
            hb: Vec::new(),
            pending: Vec::new(),
            peer_vectors: (0..n).map(|_| VectorClock::new(n)).collect(),
            metrics: SiteMetrics::new(),
        }
    }

    /// Garbage-collect history-buffer entries known to have been executed
    /// by **every** site.
    ///
    /// A site's knowledge row is the generation vector of the latest op of
    /// its we executed (vectors only grow along a site's op stream); once
    /// every row dominates an entry's vector, every future operation
    /// anywhere is causally after it — formula (3) can never call it
    /// concurrent again. This is the matrix-clock GC rule of the classical
    /// REDUCE lineage, fed by data the mesh messages already carry.
    ///
    /// Executed forms in the buffer are context-chained in execution
    /// order, so a dead entry cannot simply be unlinked from the middle:
    /// it is first *transposed* to the front (any live entry ahead of it
    /// is necessarily concurrent with it: a causal predecessor of a
    /// known-by-all operation is known-by-all itself, and a causal
    /// successor cannot have executed earlier), updating the live entries'
    /// forms, and then popped. Returns entries collected.
    pub fn gc(&mut self) -> usize {
        fn dead(e: &MeshHbEntry, me: usize, own: &VectorClock, rows: &[VectorClock]) -> bool {
            (0..rows.len()).all(|s| {
                let row = if s == me { own } else { &rows[s] };
                e.vector.dominated_by(row).unwrap_or(false)
            })
        }
        let me = self.site.client_index();
        let mut collected = 0usize;
        let mut i = 0usize;
        while i < self.hb.len() {
            if dead(&self.hb[i], me, &self.vc, &self.peer_vectors) {
                // Bubble the dead entry to the front, re-chaining the live
                // forms it passes.
                for j in (1..=i).rev() {
                    let (dead_first, live_after) = transpose(&self.hb[j - 1].op, &self.hb[j].op)
                        .expect("GC transpose is defined: a live entry ahead of a known-by-all one is concurrent with it");
                    self.hb.swap(j - 1, j);
                    self.hb[j - 1].op = dead_first;
                    self.hb[j].op = live_after;
                    self.metrics.transforms += 1;
                }
                self.hb.remove(0);
                collected += 1;
            } else {
                i += 1;
            }
        }
        collected
    }

    /// This site's id.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The visible document text.
    pub fn doc(&self) -> String {
        self.doc.visible_text()
    }

    /// The underlying tombstone document.
    pub fn model(&self) -> &TtfDoc {
        &self.doc
    }

    /// Current vector clock.
    pub fn vector(&self) -> &VectorClock {
        &self.vc
    }

    /// History buffer length (storage accounting).
    pub fn history_len(&self) -> usize {
        self.hb.len()
    }

    /// Operations still waiting for causal readiness.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Cost counters.
    pub fn metrics(&self) -> &SiteMetrics {
        &self.metrics
    }

    /// Integer elements of clock state this site stores (for E5).
    pub fn clock_storage_integers(&self) -> usize {
        self.vc.width()
    }

    /// Generate a local insert of `ch` at *visible* position `pos`;
    /// returns the broadcast message.
    pub fn local_insert(&mut self, pos: usize, ch: char) -> MeshOpMsg {
        let model_pos = self.doc.visible_to_model_insert(pos);
        let op = TtfOp::Insert {
            pos: model_pos,
            ch,
            site: self.site.0,
        };
        self.generate(op)
    }

    /// Generate a local delete of the *visible* character at `pos`.
    pub fn local_delete(&mut self, pos: usize) -> MeshOpMsg {
        let model_pos = self.doc.visible_to_model_char(pos);
        let op = TtfOp::Delete { pos: model_pos };
        self.generate(op)
    }

    fn generate(&mut self, op: TtfOp) -> MeshOpMsg {
        self.doc
            .apply(&op)
            .expect("local op is built against the current visible document");
        self.vc.record_local(self.site.client_index());
        let vector = self.vc.clone();
        self.hb.push(MeshHbEntry {
            vector: vector.clone(),
            origin: self.site,
            op,
        });
        self.metrics.ops_generated += 1;
        MeshOpMsg {
            origin: self.site,
            vector,
            op,
        }
    }

    /// Receive a broadcast operation; executes it (and any queued
    /// operations it unblocks) once causally ready. Returns one record per
    /// operation actually executed, in execution order.
    pub fn on_remote(&mut self, msg: MeshOpMsg) -> Vec<MeshIntegration> {
        // Hostile-input guard: an op naming the notifier, an out-of-range
        // origin, a wrong-width vector, or a zero own-slot count (the
        // origin's vector must count the op itself) can never become
        // causally ready — drop it rather than wedge the pending queue or
        // panic downstream.
        let width = self.vc.width();
        if msg.origin.is_notifier()
            || msg.origin.client_index() >= width
            || msg.vector.width() != width
            || msg.vector.get(msg.origin.client_index()) == 0
        {
            self.metrics.protocol_errors += 1;
            return Vec::new();
        }
        self.pending.push(msg);
        let mut executed = Vec::new();
        while let Some(idx) = self.pending.iter().position(|m| self.causally_ready(m)) {
            let msg = self.pending.swap_remove(idx);
            executed.push(self.execute_remote(msg));
        }
        executed
    }

    /// The vector-clock causal-readiness test: we must have executed every
    /// operation the sender had, except the new one itself.
    fn causally_ready(&self, msg: &MeshOpMsg) -> bool {
        let y = msg.origin.client_index();
        msg.vector.entries().iter().enumerate().all(|(j, &v)| {
            if j == y {
                // `checked_sub` so a hostile zero own-slot count (already
                // rejected at ingress) can never underflow here either.
                v.checked_sub(1) == Some(self.vc.get(j))
            } else {
                self.vc.get(j) >= v
            }
        })
    }

    /// Visible-document length (for building positional ops against the
    /// mirrored text).
    pub fn visible_len(&self) -> usize {
        self.doc.visible_len()
    }

    fn execute_remote(&mut self, msg: MeshOpMsg) -> MeshIntegration {
        // 1. Concurrency detection over the HB (formula (3)).
        let mut conc: Vec<bool> = Vec::with_capacity(self.hb.len());
        let mut checked = Vec::with_capacity(self.hb.len());
        for e in &self.hb {
            let verdict = formula3_full_vector(&msg.vector, msg.origin, &e.vector, e.origin);
            conc.push(verdict);
            checked.push((e.origin, e.vector.get(e.origin.client_index()), verdict));
        }
        self.metrics.concurrency_checks += conc.len() as u64;
        self.metrics.concurrent_verdicts += conc.iter().filter(|&&c| c).count() as u64;
        // Full-vector sites have no suffix bound: every check touches an
        // entry, so the scan counters equal the logical check count.
        self.metrics.record_scan(conc.len() as u64);

        // 2. Transpose the HB so concurrent ops form a contiguous tail.
        let mut changed = true;
        while changed {
            changed = false;
            for i in 0..self.hb.len().saturating_sub(1) {
                if conc[i] && !conc[i + 1] {
                    // hb[i] is concurrent with the new op, hb[i+1] causally
                    // precedes it; the two are mutually concurrent (see
                    // module docs), so the transpose is defined.
                    let (b_excl, a_incl) = transpose(&self.hb[i].op, &self.hb[i + 1].op)
                        .expect("transpose of mutually concurrent neighbours is defined");
                    self.hb.swap(i, i + 1);
                    conc.swap(i, i + 1);
                    self.hb[i].op = b_excl;
                    self.hb[i + 1].op = a_incl;
                    self.metrics.transforms += 1;
                    changed = true;
                }
            }
        }

        // 3. Fold IT across the concurrent tail.
        let mut op = msg.op;
        let mut folds = 0u64;
        for (e, &is_conc) in self.hb.iter().zip(&conc) {
            if is_conc {
                op = it_ttf(&op, &e.op);
                folds += 1;
            }
        }
        self.metrics.transforms += folds;

        // 4. Execute and buffer.
        self.doc
            .apply(&op)
            .expect("transformed remote op applies to the current model");
        self.vc.record_remote(msg.origin.client_index());
        self.peer_vectors[msg.origin.client_index()]
            .merge(&msg.vector)
            .expect("session-width vectors");
        let seq = msg.vector.get(msg.origin.client_index());
        self.hb.push(MeshHbEntry {
            vector: msg.vector,
            origin: msg.origin,
            op,
        });
        self.metrics.ops_executed_remote += 1;
        self.metrics.record_hb_len(self.hb.len() as u64);
        MeshIntegration {
            origin: msg.origin,
            seq,
            checked,
        }
    }
}

/// Reference integration for the fully-distributed deployment: an
/// *observer* replica that receives every operation of a finished session
/// in the canonical total order `(Σ vector, site id)` — a linear extension
/// of causality under the operation-count convention.
///
/// With TP1 + TP2 the integration result must be independent of delivery
/// order; tests replay random sessions through arbitrarily interleaved
/// deliveries and require every site to match this canonical-order
/// observer. (A context-naive "fold IT over concurrent predecessors"
/// one-shot construction is *not* sound — transforming two operations
/// requires equal contexts, which only the engine's bookkeeping
/// establishes — so the observer runs the real engine.)
pub fn replay_canonical(initial: &str, n_clients: usize, ops: &[MeshOpMsg]) -> String {
    let mut order: Vec<usize> = (0..ops.len()).collect();
    order.sort_by_key(|&i| (ops[i].vector.total(), ops[i].origin.0));
    let mut observer = MeshSite::new(SiteId(1), n_clients, initial);
    for &i in &order {
        // Canonical order extends causality, so every op is immediately
        // ready; the observer never generates, so nothing is "local".
        let executed = observer.on_remote(ops[i].clone());
        debug_assert_eq!(executed.len(), 1, "canonical order must be causally ready");
    }
    assert_eq!(observer.pending_len(), 0);
    observer.doc()
}

/// Record of one remote operation executed at a mesh site.
#[derive(Debug, Clone)]
pub struct MeshIntegration {
    /// Generating site of the executed operation.
    pub origin: SiteId,
    /// Its per-origin sequence number (`vector[origin]`).
    pub seq: u64,
    /// Formula (3) verdict per history-buffer entry at check time, keyed
    /// by `(entry origin, entry per-origin seq)`.
    pub checked: Vec<(SiteId, u64, bool)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Broadcast a message to all other sites.
    fn bcast(sites: &mut [MeshSite], from: usize, msg: &MeshOpMsg) {
        for (i, s) in sites.iter_mut().enumerate() {
            if i != from {
                s.on_remote(msg.clone());
            }
        }
    }

    fn converged(sites: &[MeshSite]) -> bool {
        sites.windows(2).all(|w| w[0].doc() == w[1].doc())
    }

    fn mk(n: usize, initial: &str) -> Vec<MeshSite> {
        (0..n)
            .map(|i| MeshSite::new(SiteId::from_client_index(i), n, initial))
            .collect()
    }

    #[test]
    fn sequential_ops_converge() {
        let mut s = mk(3, "abc");
        let m = s[0].local_insert(3, 'd');
        bcast(&mut s, 0, &m);
        let m = s[1].local_delete(0);
        bcast(&mut s, 1, &m);
        assert!(converged(&s));
        assert_eq!(s[0].doc(), "bcd");
    }

    #[test]
    fn concurrent_inserts_converge() {
        let mut s = mk(2, "xy");
        let m1 = s[0].local_insert(1, 'a');
        let m2 = s[1].local_insert(1, 'b');
        s[1].on_remote(m1);
        s[0].on_remote(m2);
        assert!(converged(&s));
        // Site 1's char wins the tie (lower site id).
        assert_eq!(s[0].doc(), "xaby");
        assert_eq!(s[0].metrics().concurrent_verdicts, 1);
    }

    #[test]
    fn concurrent_delete_of_same_char_converges() {
        let mut s = mk(2, "abc");
        let m1 = s[0].local_delete(1);
        let m2 = s[1].local_delete(1);
        s[1].on_remote(m1);
        s[0].on_remote(m2);
        assert!(converged(&s));
        assert_eq!(s[0].doc(), "ac");
    }

    #[test]
    fn causal_readiness_holds_out_of_order_ops() {
        let mut s = mk(3, "");
        // Site 1 inserts 'a'; site 2 sees it and inserts 'b' after it.
        let m1 = s[0].local_insert(0, 'a');
        s[1].on_remote(m1.clone());
        let m2 = s[1].local_insert(1, 'b');
        // Site 3 receives m2 BEFORE m1: must hold it.
        assert_eq!(s[2].on_remote(m2.clone()).len(), 0);
        assert_eq!(s[2].pending_len(), 1);
        assert_eq!(s[2].doc(), "");
        // m1 arrives: both execute.
        assert_eq!(s[2].on_remote(m1.clone()).len(), 2);
        assert_eq!(s[2].doc(), "ab");
        // Finish delivery for convergence.
        s[0].on_remote(m2);
        assert!(converged(&s));
    }

    /// The scenario that defeats naive positional OT (interleaved
    /// concurrent ops requiring HB transposition) — TTF + GOTO handles it.
    #[test]
    fn interleaved_concurrency_with_transposition() {
        let mut s = mk(3, "abcd");
        // Site 1: delete 'b' (concurrent with everything below).
        let m1 = s[0].local_delete(1);
        // Site 2: insert 'X' at 2, then after seeing m1, insert 'Y'.
        let m2a = s[1].local_insert(2, 'X');
        s[1].on_remote(m1.clone());
        let m2b = s[1].local_insert(0, 'Y');
        // Site 3 executes m2a, then m1, then m2b — m2b's causal context
        // (m1, m2a) is interleaved with concurrency when the late m3 op
        // arrives.
        s[2].on_remote(m2a.clone());
        s[2].on_remote(m1.clone());
        s[2].on_remote(m2b.clone());
        // Site 3 now makes its own op concurrent with m2b but causally
        // after m1/m2a… generate before seeing m2b at site 1? Simpler: a
        // fresh concurrent op from site 3 generated before it saw m2b is
        // impossible here since it executed m2b already; instead drive
        // site 1 (which hasn't seen m2a/m2b yet… it has seen m2a? no).
        // Site 1 has executed only m1; m2a/m2b are concurrent with its
        // next op.
        let m3 = s[0].local_insert(0, 'Z');
        s[1].on_remote(m3.clone());
        s[2].on_remote(m3.clone());
        s[0].on_remote(m2a);
        s[0].on_remote(m2b);
        assert!(
            converged(&s),
            "docs: {:?}",
            [s[0].doc(), s[1].doc(), s[2].doc()]
        );
        // Transpositions must have occurred somewhere for this interleaving.
        let total_transforms: u64 = s.iter().map(|x| x.metrics().transforms).sum();
        assert!(total_transforms > 0);
    }

    /// The incremental GOTO engine must agree with the one-shot canonical
    /// replay on random sessions — the classical equivalence that TP1+TP2
    /// licence.
    #[test]
    fn goto_agrees_with_canonical_replay() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = 2 + (seed as usize % 3);
            let mut sites = mk(n, "base text");
            let mut queues: Vec<Vec<MeshOpMsg>> = vec![Vec::new(); n]; // per receiver
            let mut all_ops: Vec<MeshOpMsg> = Vec::new();
            let mut budget = vec![10usize; n];
            loop {
                let mut acts: Vec<(u8, usize)> = Vec::new();
                for i in 0..n {
                    if budget[i] > 0 {
                        acts.push((0, i));
                    }
                    if !queues[i].is_empty() {
                        acts.push((1, i));
                    }
                }
                if acts.is_empty() {
                    break;
                }
                let (k, i) = acts[rng.gen_range(0..acts.len())];
                if k == 0 {
                    budget[i] -= 1;
                    let len = sites[i].doc().chars().count();
                    let msg = if len > 0 && rng.gen_bool(0.3) {
                        sites[i].local_delete(rng.gen_range(0..len))
                    } else {
                        let ch = (b'a' + rng.gen_range(0..26)) as char;
                        sites[i].local_insert(rng.gen_range(0..=len), ch)
                    };
                    all_ops.push(msg.clone());
                    for (j, q) in queues.iter_mut().enumerate() {
                        if j != i {
                            q.push(msg.clone());
                        }
                    }
                } else {
                    // Deliver a random queued op (per-source FIFO holds
                    // because queues keep insertion order per source and we
                    // always pop the earliest entry of a chosen source).
                    let src_first: usize = rng.gen_range(0..queues[i].len());
                    // Find the earliest queued op from the same origin to
                    // preserve per-channel FIFO.
                    let origin = queues[i][src_first].origin;
                    let pos = queues[i]
                        .iter()
                        .position(|m| m.origin == origin)
                        .expect("origin present");
                    let msg = queues[i].remove(pos);
                    sites[i].on_remote(msg);
                }
            }
            assert!(converged(&sites), "seed {seed} diverged");
            let replayed = replay_canonical("base text", n, &all_ops);
            assert_eq!(
                sites[0].doc(),
                replayed,
                "seed {seed}: GOTO vs canonical replay"
            );
        }
    }

    #[test]
    fn gc_collects_globally_known_entries() {
        let mut s = mk(3, "abc");
        // Site 1's op reaches everyone.
        let m1 = s[0].local_insert(0, 'x');
        bcast(&mut s, 0, &m1);
        // Site 1 can't collect yet: it has no evidence others executed m1.
        assert_eq!(s[0].gc(), 0);
        // Sites 2 and 3 respond after executing m1; their vectors prove it.
        let m2 = s[1].local_insert(0, 'y');
        bcast(&mut s, 1, &m2);
        let m3 = s[2].local_insert(0, 'z');
        bcast(&mut s, 2, &m3);
        // Now site 1 knows everyone executed m1 (their vectors dominate).
        let collected = s[0].gc();
        assert!(collected >= 1, "collected {collected}");
        // The newest ops are not yet known-by-all and must survive.
        assert!(s[0].history_len() >= 1);
        // Integration keeps working after collection.
        let m4 = s[1].local_insert(0, 'w');
        s[0].on_remote(m4.clone());
        s[2].on_remote(m4);
        assert!(converged(&s));
    }

    #[test]
    fn storage_is_n_integers() {
        let s = mk(5, "");
        assert_eq!(s[0].clock_storage_integers(), 5);
    }

    #[test]
    fn vector_stamps_follow_operation_counts() {
        let mut s = mk(2, "");
        let m1 = s[0].local_insert(0, 'a');
        assert_eq!(m1.vector.entries(), &[1, 0]);
        s[1].on_remote(m1);
        let m2 = s[1].local_insert(1, 'b');
        assert_eq!(m2.vector.entries(), &[1, 1]);
    }
}
