//! Property-based tests for the clock algebra.

use cvc_core::formulas::{
    formula4_client_general, formula5_client, formula6_notifier_general, formula7_notifier,
};
use cvc_core::lamport::LamportClock;
use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use cvc_core::state_vector::{ClientStateVector, NotifierStateVector};
use cvc_core::timestamp::OriginAtClient;
use cvc_core::vector::{CausalOrder, VectorClock};
use proptest::prelude::*;

fn arb_vc(width: usize) -> impl Strategy<Value = VectorClock> {
    proptest::collection::vec(0u64..50, width).prop_map(VectorClock::from_entries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Merge is commutative, associative, and idempotent (a join
    /// semilattice — the algebra causal broadcast relies on).
    #[test]
    fn vector_merge_is_a_semilattice(
        a in arb_vc(6),
        b in arb_vc(6),
        c in arb_vc(6),
    ) {
        let mut ab = a.clone();
        ab.merge(&b).unwrap();
        let mut ba = b.clone();
        ba.merge(&a).unwrap();
        prop_assert_eq!(&ab, &ba);

        let mut ab_c = ab.clone();
        ab_c.merge(&c).unwrap();
        let mut bc = b.clone();
        bc.merge(&c).unwrap();
        let mut a_bc = a.clone();
        a_bc.merge(&bc).unwrap();
        prop_assert_eq!(&ab_c, &a_bc);

        let mut aa = a.clone();
        aa.merge(&a).unwrap();
        prop_assert_eq!(&aa, &a);

        // Merge dominates both inputs.
        prop_assert!(a.dominated_by(&ab).unwrap());
        prop_assert!(b.dominated_by(&ab).unwrap());
    }

    /// causal_order is consistent with dominated_by and antisymmetric.
    #[test]
    fn causal_order_laws(a in arb_vc(5), b in arb_vc(5)) {
        let ord = a.causal_order(&b).unwrap();
        let rev = b.causal_order(&a).unwrap();
        match ord {
            CausalOrder::Equal => prop_assert_eq!(rev, CausalOrder::Equal),
            CausalOrder::Before => prop_assert_eq!(rev, CausalOrder::After),
            CausalOrder::After => prop_assert_eq!(rev, CausalOrder::Before),
            CausalOrder::Concurrent => prop_assert_eq!(rev, CausalOrder::Concurrent),
        }
        prop_assert_eq!(
            a.dominated_by(&b).unwrap(),
            matches!(ord, CausalOrder::Before | CausalOrder::Equal)
        );
    }

    /// total_except is total minus the skipped entry, for every index.
    #[test]
    fn total_except_identity(v in arb_vc(7), skip in 0usize..7) {
        prop_assert_eq!(v.total_except(skip), v.total() - v.get(skip));
    }

    /// The notifier's compression (formulas (1)–(2)) always splits the
    /// total exactly: T[1] + T[2] = Σ SV_0.
    #[test]
    fn compression_splits_the_total(
        receives in proptest::collection::vec(0u32..5, 0..60),
    ) {
        let n = 5;
        let mut sv0 = NotifierStateVector::new(n);
        for r in receives {
            sv0.record_receive(SiteId(r % n as u32 + 1));
        }
        for i in 1..=n as u32 {
            let stamp = sv0.compress_for(SiteId(i));
            prop_assert_eq!(stamp.get(1) + stamp.get(2), sv0.total());
            prop_assert_eq!(stamp.get(2), sv0.received_from(SiteId(i)).unwrap());
        }
    }

    /// Client state vectors count exactly what they saw, in any order.
    #[test]
    fn client_state_vector_counts(events in proptest::collection::vec(any::<bool>(), 0..100)) {
        let mut sv = ClientStateVector::new();
        let mut local = 0u64;
        let mut remote = 0u64;
        for is_local in events {
            if is_local {
                sv.record_local();
                local += 1;
            } else {
                sv.record_from_notifier();
                remote += 1;
            }
            prop_assert_eq!(sv.stamp().as_pair(), (remote, local));
        }
    }

    /// Lamport stamps strictly increase along any local event sequence and
    /// any receive chain.
    #[test]
    fn lamport_monotonicity(script in proptest::collection::vec(0u64..100, 1..50)) {
        let mut c = LamportClock::new();
        let mut last = 0;
        for (i, v) in script.into_iter().enumerate() {
            let t = if i % 2 == 0 { c.tick() } else { c.observe(v) };
            prop_assert!(t > last);
            last = t;
        }
    }

    /// The paper's simplification of formula (4) to (5): whenever the FIFO
    /// precondition holds (`T_Oa[1] > T_Ob[1]` — the arriving op is later
    /// in the server stream than anything buffered), the two forms agree.
    #[test]
    fn formula5_equals_formula4_under_fifo(
        a1 in 0u64..60, a2 in 0u64..60, b1 in 0u64..60, b2 in 0u64..60,
        local in any::<bool>(),
    ) {
        prop_assume!(a1 > b1);
        let ta = CompressedStamp::new(a1, a2);
        let tb = CompressedStamp::new(b1, b2);
        let origin = if local { OriginAtClient::Local } else { OriginAtClient::FromNotifier };
        prop_assert_eq!(
            formula4_client_general(ta, tb, origin),
            formula5_client(ta, tb, origin)
        );
    }

    /// The paper's simplification of formula (6) to (7): under the FIFO
    /// preconditions (`T_Oa[2] > T_Ob[x]`, and same-site pairs always
    /// ordered) the forms agree, and same-site pairs are never concurrent.
    #[test]
    fn formula7_equals_formula6_under_fifo(
        entries in proptest::collection::vec(0u64..30, 4),
        a1 in 0u64..60,
        x in 1u32..5,
        y in 1u32..5,
    ) {
        use cvc_core::site::SiteId;
        use cvc_core::vector::VectorClock;
        let t_ob = VectorClock::from_entries(entries);
        let x = SiteId(x);
        let y = SiteId(y);
        // FIFO precondition: the arriving op from x is later than anything
        // buffered from x.
        let a2 = t_ob.get(x.client_index()) + 1;
        let ta = CompressedStamp::new(a1, a2);
        if x == y {
            prop_assert!(!formula7_notifier(ta, x, &t_ob, y));
            // The general form's same-site branch also never fires under
            // FIFO (T_Ob[y] ≤ a2 − 1 < a2).
            prop_assert!(!formula6_notifier_general(ta, x, &t_ob, y));
        } else {
            prop_assert_eq!(
                formula6_notifier_general(ta, x, &t_ob, y),
                formula7_notifier(ta, x, &t_ob, y)
            );
        }
    }
}
