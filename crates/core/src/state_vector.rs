//! The paper's compressed state vectors (Section 3).
//!
//! * Every client site `i ≠ 0` keeps a [`ClientStateVector`] of **two**
//!   elements: `SV_i[1]` counts operations received from the notifier,
//!   `SV_i[2]` counts operations generated locally (Section 3.2). We store
//!   them 0-indexed but keep the paper's 1-indexed names in the docs.
//! * The notifier (site 0) keeps a [`NotifierStateVector`] — a full
//!   `N`-element vector where entry `i` counts operations received from
//!   client site `i` — and *compresses* it per destination when
//!   timestamping a propagated operation (formulas (1) and (2)).
//!
//! The compressed 2-element timestamp is [`CompressedStamp`]; it is the only
//! timestamp that ever travels on the wire, which is the whole point of the
//! paper: constant two integers of clock overhead per message regardless of
//! the number of participants.

use crate::error::{ClockError, Result};
use crate::site::SiteId;
use crate::vector::VectorClock;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A 2-element compressed timestamp `[t1, t2]`.
///
/// Semantics depend on direction of travel (Section 3.3):
///
/// * client `i` → notifier: `t1` = operations received from the notifier,
///   `t2` = operations generated by site `i` (including this one);
/// * notifier → client `i`: `t1` = `Σ_{j≠i} SV_0[j]` (operations the
///   notifier has received from everyone *except* `i`), `t2` = `SV_0[i]`
///   (operations received *from* `i`) — formulas (1) and (2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CompressedStamp {
    /// `T_O[1]` in the paper.
    pub t1: u64,
    /// `T_O[2]` in the paper.
    pub t2: u64,
}

impl CompressedStamp {
    /// Build a stamp from its two elements.
    #[inline]
    pub fn new(t1: u64, t2: u64) -> Self {
        CompressedStamp { t1, t2 }
    }

    /// The two elements as a pair `(T[1], T[2])`.
    #[inline]
    pub fn as_pair(self) -> (u64, u64) {
        (self.t1, self.t2)
    }

    /// Paper-style 1-indexed element access: `get(1)` is `T_O[1]`.
    ///
    /// # Panics
    /// Panics unless `k` is 1 or 2.
    #[inline]
    pub fn get(self, k: usize) -> u64 {
        match k {
            1 => self.t1,
            2 => self.t2,
            _ => unreachable!("compressed stamps have elements 1 and 2 only, got {k}"),
        }
    }
}

impl fmt::Display for CompressedStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{}]", self.t1, self.t2)
    }
}

/// State vector of a client site `i ≠ 0` (Section 3.2).
///
/// Maintenance rules, verbatim from the paper:
/// 1. initially `SV_i[j] := 0` for `j ∈ {1,2}`;
/// 2. after executing an operation propagated from site 0,
///    `SV_i[1] := SV_i[1] + 1` — [`ClientStateVector::record_from_notifier`];
/// 3. after executing a local operation, `SV_i[2] := SV_i[2] + 1` —
///    [`ClientStateVector::record_local`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClientStateVector {
    from_notifier: u64,
    local: u64,
}

impl ClientStateVector {
    /// A fresh, zeroed state vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A state vector resuming at known counters — used when a replica is
    /// rebuilt wholesale from a notifier snapshot (full-state resync).
    pub fn from_parts(from_notifier: u64, local: u64) -> Self {
        ClientStateVector {
            from_notifier,
            local,
        }
    }

    /// Rule 2: an operation propagated from the notifier was executed.
    pub fn record_from_notifier(&mut self) {
        self.from_notifier += 1;
    }

    /// Rule 3: a local operation was executed.
    pub fn record_local(&mut self) {
        self.local += 1;
    }

    /// `SV_i[1]`: operations received from the notifier so far.
    #[inline]
    pub fn received(&self) -> u64 {
        self.from_notifier
    }

    /// `SV_i[2]`: operations generated locally so far.
    #[inline]
    pub fn generated(&self) -> u64 {
        self.local
    }

    /// Current value as a propagation timestamp: "after executing a local
    /// operation O, the current value of the 2-element state vector is
    /// directly used to timestamp O, i.e. `T_O = SV_i`" (Section 3.3).
    #[inline]
    pub fn stamp(&self) -> CompressedStamp {
        CompressedStamp::new(self.from_notifier, self.local)
    }
}

impl fmt::Display for ClientStateVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{},{}]", self.from_notifier, self.local)
    }
}

/// State vector of the notifier, site 0 (Section 3.2).
///
/// A full `N`-element vector: entry for client `i` counts operations
/// received from site `i`. It is "only used locally at site 0 and never
/// used for timestamping propagated operations" — propagation stamps are
/// produced by [`NotifierStateVector::compress_for`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NotifierStateVector {
    vc: VectorClock,
    /// Cached `Σ_j SV_0[j]`, maintained incrementally so that
    /// [`NotifierStateVector::total`] and the per-destination
    /// [`NotifierStateVector::compress_for`] are O(1) instead of O(N) —
    /// the notifier compresses once per destination per operation, which
    /// made stamping O(N²) per op with full sums.
    total: u64,
}

impl NotifierStateVector {
    /// A zeroed full state vector for a session of `n` client sites.
    pub fn new(n: usize) -> Self {
        NotifierStateVector {
            vc: VectorClock::new(n),
            total: 0,
        }
    }

    /// A full state vector resuming at known per-client counts — used when
    /// the notifier is rebuilt from a checkpoint. O(N), whatever the
    /// counts say.
    pub fn from_counts(counts: Vec<u64>) -> Self {
        let vc = VectorClock::from_entries(counts);
        NotifierStateVector {
            total: vc.total(),
            vc,
        }
    }

    /// Number of client sites `N`.
    #[inline]
    pub fn n_clients(&self) -> usize {
        self.vc.width()
    }

    /// Grow the vector for a client joining mid-session, returning the new
    /// client's [`SiteId`].
    ///
    /// The paper fixes `N` for a session, but its web demonstrator "allows
    /// an arbitrary number of users to participate"; dynamic membership
    /// only needs the notifier's vector to grow (the new entry starts at
    /// zero — the newcomer has contributed nothing yet). Existing buffered
    /// snapshots keep their old width; sums over them treat the missing
    /// entries as zero, which is exactly right.
    pub fn grow(&mut self) -> SiteId {
        let mut entries = self.vc.entries().to_vec();
        entries.push(0);
        self.vc = VectorClock::from_entries(entries);
        SiteId::from_client_index(self.n_clients() - 1)
    }

    /// Maintenance rule 2: "after executing an operation received from site
    /// `i`, `SV_0[i] := SV_0[i] + 1`".
    pub fn record_receive(&mut self, from: SiteId) {
        assert!(
            !from.is_notifier(),
            "the notifier does not receive operations from itself"
        );
        self.vc.record_remote(from.client_index());
        self.total += 1;
        debug_assert_eq!(self.total, self.vc.total(), "cached total drifted");
    }

    /// `SV_0[i]` — operations received from client `i` so far.
    pub fn received_from(&self, site: SiteId) -> Result<u64> {
        self.check_site(site)?;
        Ok(self.vc.get(site.client_index()))
    }

    /// Total operations executed by the notifier (`Σ_j SV_0[j]`), served
    /// from the incrementally maintained cache in O(1).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Formulas (1) and (2): compress the full vector into the 2-element
    /// timestamp of a transformed operation `O'` about to be propagated to
    /// destination client `dest`:
    ///
    /// ```text
    /// T_O'[1] = Σ_{j≠dest} SV_0[j]     (1)
    /// T_O'[2] = SV_0[dest]             (2)
    /// ```
    ///
    /// Note the same `O'` gets a *different* stamp per destination — the
    /// reason the notifier must keep the full vector.
    pub fn compress_for(&self, dest: SiteId) -> CompressedStamp {
        self.try_compress_for(dest)
            .expect("destination must be a client site of this session")
    }

    /// Fallible form of [`NotifierStateVector::compress_for`].
    pub fn try_compress_for(&self, dest: SiteId) -> Result<CompressedStamp> {
        self.check_site(dest)?;
        let idx = dest.client_index();
        // `Σ_{j≠dest}` as cached-total minus one entry: O(1) per
        // destination rather than an O(N) sum.
        let from_dest = self.vc.get(idx);
        debug_assert_eq!(self.total - from_dest, self.vc.total_except(idx));
        Ok(CompressedStamp::new(self.total - from_dest, from_dest))
    }

    /// Snapshot of the full vector, used to timestamp operations buffered in
    /// the notifier's history buffer (Section 3.3, "Timestamping buffered
    /// operations").
    pub fn snapshot(&self) -> VectorClock {
        self.vc.clone()
    }

    /// Access the underlying full vector.
    pub fn as_vector(&self) -> &VectorClock {
        &self.vc
    }

    fn check_site(&self, site: SiteId) -> Result<()> {
        if site.is_notifier() || site.client_index() >= self.n_clients() {
            return Err(ClockError::UnknownSite {
                site,
                n_clients: self.n_clients(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for NotifierStateVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.vc.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_vector_follows_maintenance_rules() {
        let mut sv = ClientStateVector::new();
        assert_eq!(sv.stamp().as_pair(), (0, 0));
        sv.record_local();
        assert_eq!(sv.stamp().as_pair(), (0, 1));
        sv.record_from_notifier();
        sv.record_from_notifier();
        assert_eq!(sv.stamp().as_pair(), (2, 1));
        assert_eq!(sv.received(), 2);
        assert_eq!(sv.generated(), 1);
    }

    #[test]
    fn notifier_vector_counts_per_origin() {
        let mut sv0 = NotifierStateVector::new(3);
        sv0.record_receive(SiteId(2));
        sv0.record_receive(SiteId(1));
        sv0.record_receive(SiteId(2));
        assert_eq!(sv0.snapshot().entries(), &[1, 2, 0]);
        assert_eq!(sv0.received_from(SiteId(2)).unwrap(), 2);
        assert_eq!(sv0.total(), 3);
    }

    /// The exact compression values of the paper's Fig. 3 walkthrough.
    #[test]
    fn compression_matches_figure_3() {
        let mut sv0 = NotifierStateVector::new(3);

        // O2 from site 2 arrives first: SV_0 = [0,1,0].
        sv0.record_receive(SiteId(2));
        assert_eq!(sv0.compress_for(SiteId(1)).as_pair(), (1, 0));
        assert_eq!(sv0.compress_for(SiteId(3)).as_pair(), (1, 0));
        assert_eq!(sv0.snapshot().entries(), &[0, 1, 0]);

        // O1 from site 1: SV_0 = [1,1,0]; O1' goes to sites 2 and 3.
        sv0.record_receive(SiteId(1));
        assert_eq!(sv0.compress_for(SiteId(2)).as_pair(), (1, 1));
        assert_eq!(sv0.compress_for(SiteId(3)).as_pair(), (2, 0));
        assert_eq!(sv0.snapshot().entries(), &[1, 1, 0]);

        // O4 from site 3: SV_0 = [1,1,1]; O4' goes to sites 1 and 2.
        sv0.record_receive(SiteId(3));
        assert_eq!(sv0.compress_for(SiteId(1)).as_pair(), (2, 1));
        assert_eq!(sv0.compress_for(SiteId(2)).as_pair(), (2, 1));
        assert_eq!(sv0.snapshot().entries(), &[1, 1, 1]);

        // O3 from site 2: SV_0 = [1,2,1]; O3' goes to sites 1 and 3.
        sv0.record_receive(SiteId(2));
        assert_eq!(sv0.compress_for(SiteId(1)).as_pair(), (3, 1));
        assert_eq!(sv0.compress_for(SiteId(3)).as_pair(), (3, 1));
        assert_eq!(sv0.snapshot().entries(), &[1, 2, 1]);
    }

    #[test]
    fn grow_adds_a_zeroed_entry() {
        let mut sv0 = NotifierStateVector::new(2);
        sv0.record_receive(SiteId(1));
        let new_site = sv0.grow();
        assert_eq!(new_site, SiteId(3));
        assert_eq!(sv0.n_clients(), 3);
        assert_eq!(sv0.snapshot().entries(), &[1, 0, 0]);
        assert_eq!(sv0.received_from(SiteId(3)).unwrap(), 0);
        sv0.record_receive(SiteId(3));
        assert_eq!(sv0.snapshot().entries(), &[1, 0, 1]);
    }

    #[test]
    fn cached_total_survives_growth_and_receives() {
        let mut sv0 = NotifierStateVector::new(2);
        sv0.record_receive(SiteId(1));
        sv0.record_receive(SiteId(2));
        assert_eq!(sv0.total(), sv0.as_vector().total());
        sv0.grow();
        assert_eq!(sv0.total(), 2, "a zeroed entry must not change the sum");
        sv0.record_receive(SiteId(3));
        assert_eq!(sv0.total(), 3);
        assert_eq!(sv0.total(), sv0.as_vector().total());
        assert_eq!(sv0.compress_for(SiteId(1)).as_pair(), (2, 1));
    }

    #[test]
    fn compress_rejects_unknown_destinations() {
        let sv0 = NotifierStateVector::new(2);
        assert!(sv0.try_compress_for(SiteId(3)).is_err());
        assert!(sv0.try_compress_for(SiteId(0)).is_err());
        assert!(sv0.try_compress_for(SiteId(2)).is_ok());
    }

    #[test]
    #[should_panic(expected = "does not receive operations from itself")]
    fn notifier_cannot_receive_from_itself() {
        let mut sv0 = NotifierStateVector::new(2);
        sv0.record_receive(SiteId(0));
    }

    #[test]
    fn stamp_accessors() {
        let s = CompressedStamp::new(3, 1);
        assert_eq!(s.get(1), 3);
        assert_eq!(s.get(2), 1);
        assert_eq!(s.to_string(), "[3,1]");
    }

    #[test]
    #[should_panic(expected = "elements 1 and 2 only")]
    fn stamp_get_is_one_indexed() {
        let _ = CompressedStamp::new(0, 0).get(0);
    }
}
