//! Property-based tests for the OT substrate's data structures.

use cvc_ot::buffer::TextBuffer;
use cvc_ot::pos::PosOp;
use cvc_ot::seq::{Component, SeqOp};
use cvc_ot::ttf::{TtfDoc, TtfOp};
use proptest::prelude::*;

/// Random edit script entries against a document of unknown length —
/// positions are reduced modulo the current length at application time.
#[derive(Debug, Clone)]
enum Edit {
    Insert(usize, String),
    Delete(usize, usize),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (any::<usize>(), "[a-zα-ω]{1,5}").prop_map(|(p, s)| Edit::Insert(p, s)),
        (any::<usize>(), 1usize..4).prop_map(|(p, n)| Edit::Delete(p, n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The gap buffer agrees with a plain String reference under any edit
    /// script — from empty, and on a document long enough (multi-byte
    /// scalars included) that successive edits are far jumps of the gap in
    /// both directions.
    #[test]
    fn gap_buffer_matches_reference(
        long in any::<bool>(),
        script in proptest::collection::vec(arb_edit(), 0..60),
    ) {
        let seed: String = "aé←λz".chars().cycle().take(if long { 4_100 } else { 0 }).collect();
        let mut buf = TextBuffer::from_str(&seed);
        let mut reference: Vec<char> = seed.chars().collect();
        for e in script {
            let (Edit::Insert(probe, _) | Edit::Delete(probe, _)) = e;
            match e {
                Edit::Insert(p, s) => {
                    let pos = p % (reference.len() + 1);
                    buf.insert_str(pos, &s);
                    for (k, c) in s.chars().enumerate() {
                        reference.insert(pos + k, c);
                    }
                }
                Edit::Delete(p, n) => {
                    if reference.is_empty() {
                        continue;
                    }
                    let pos = p % reference.len();
                    let n = n.min(reference.len() - pos);
                    let removed = buf.delete_range(pos, n);
                    let expect: String = reference.drain(pos..pos + n).collect();
                    prop_assert_eq!(removed, expect);
                }
            }
            let expect: String = reference.iter().collect();
            prop_assert_eq!(&buf.to_string(), &expect);
            prop_assert_eq!(buf.len(), reference.len());
            // Reads that may straddle the gap, wherever the edit left it.
            let from = probe / 7 % (reference.len() + 1);
            let count = probe / 11 % (reference.len() - from + 1);
            let window: String = reference[from..from + count].iter().collect();
            prop_assert_eq!(buf.slice(from, count), window);
            let fnv1a = expect.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            prop_assert_eq!(buf.checksum(), fnv1a);
            // Equality is of content, whatever the two gap positions.
            let mut twin = TextBuffer::from_str(&expect);
            prop_assert!(buf == twin);
            twin.insert_str(from, "q");
            prop_assert!(buf != twin);
            twin.delete_range(from, 1);
            prop_assert!(buf == twin);
        }
    }

    /// compose really is sequential application:
    /// apply(compose(a,b)) == apply(b, apply(a)).
    #[test]
    fn compose_is_sequential_application(
        doc in "[a-z]{0,12}",
        a_edit in arb_edit(),
        b_edit in arb_edit(),
    ) {
        let a = materialize(&a_edit, &doc);
        let mid = a.apply(&doc).unwrap();
        let b = materialize(&b_edit, &mid);
        let end = b.apply(&mid).unwrap();
        let ab = a.compose(&b).unwrap();
        prop_assert_eq!(ab.base_len(), doc.chars().count());
        prop_assert_eq!(ab.target_len(), end.chars().count());
        prop_assert_eq!(ab.apply(&doc).unwrap(), end);
    }

    /// invert undoes: apply(invert(a), apply(a, doc)) == doc.
    #[test]
    fn invert_undoes(doc in "[a-z]{0,12}", e in arb_edit()) {
        let a = materialize(&e, &doc);
        let post = a.apply(&doc).unwrap();
        let inv = a.invert(&doc).unwrap();
        prop_assert_eq!(inv.apply(&post).unwrap(), doc);
    }

    /// Normalization invariants hold for ops built any which way.
    #[test]
    fn seq_op_normal_form(parts in proptest::collection::vec((0u8..3, 1usize..5, "[a-z]{1,4}"), 0..10)) {
        let mut op = SeqOp::new();
        for (kind, n, text) in parts {
            match kind {
                0 => { op.retain(n); }
                1 => { op.insert(&text); }
                _ => { op.delete(n); }
            }
        }
        let comps = op.components();
        for w in comps.windows(2) {
            // No two adjacent components of the same kind.
            prop_assert!(
                std::mem::discriminant(&w[0]) != std::mem::discriminant(&w[1]),
                "adjacent same-kind: {:?}", comps
            );
            // Canonical order: never insert directly after delete.
            prop_assert!(
                !(matches!(w[0], Component::Delete(_)) && matches!(w[1], Component::Insert(_))),
                "insert after delete: {:?}", comps
            );
        }
        for c in comps {
            match c {
                Component::Retain(n) | Component::Delete(n) => prop_assert!(*n > 0),
                Component::Insert(s) => prop_assert!(!s.is_empty()),
            }
        }
    }

    /// from_pos/to_pos are effect-inverse.
    #[test]
    fn pos_round_trip(doc in "[a-z]{1,12}", e in arb_edit()) {
        let op = materialize(&e, &doc);
        let pos_ops = op.to_pos(&doc).unwrap();
        let mut buf = TextBuffer::from_str(&doc);
        for p in &pos_ops {
            p.apply(&mut buf).unwrap();
        }
        prop_assert_eq!(buf.to_string(), op.apply(&doc).unwrap());
    }

    /// TTF coordinate maps are mutually inverse over any tombstone pattern.
    #[test]
    fn ttf_coordinates_round_trip(
        text in "[a-z]{1,12}",
        kills in proptest::collection::vec(any::<usize>(), 0..6),
    ) {
        let mut doc = TtfDoc::from_str(&text);
        for k in kills {
            let len = doc.model_len();
            doc.apply(&TtfOp::Delete { pos: k % len }).unwrap();
        }
        let vis = doc.visible_len();
        for v in 0..vis {
            let m = doc.visible_to_model_char(v);
            prop_assert_eq!(doc.model_to_visible(m), v);
        }
        // Insert positions: 0..=vis all map into the model range.
        for v in 0..=vis {
            let m = doc.visible_to_model_insert(v);
            prop_assert!(m <= doc.model_len());
        }
        // Tombstone accounting.
        let dead = doc.model_len() - vis;
        prop_assert!((doc.tombstone_ratio() - dead as f64 / doc.model_len() as f64).abs() < 1e-12);
    }
}

/// Turn an abstract edit into a SeqOp valid on `doc`.
fn materialize(e: &Edit, doc: &str) -> SeqOp {
    let len = doc.chars().count();
    match e {
        Edit::Insert(p, s) => SeqOp::from_pos(&PosOp::insert(p % (len + 1), s.clone()), len),
        Edit::Delete(p, n) => {
            if len == 0 {
                return SeqOp::identity(0);
            }
            let pos = p % len;
            let n = (*n).min(len - pos);
            let text: String = doc.chars().skip(pos).take(n).collect();
            SeqOp::from_pos(&PosOp::delete(pos, text), len)
        }
    }
}
