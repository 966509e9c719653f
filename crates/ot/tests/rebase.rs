//! An entry that rides `b` in an `OpStack` is `SeqOp::transform(a, b).0` —
//! held for the class, not for instances: exhaustively over every pair of
//! small operations, and by proptest over larger random ones and over
//! random stacks past the undo depth.

use std::collections::VecDeque;

use cvc_ot::seq::{Component, SeqError, SeqOp};
use cvc_ot::stack::OpStack;
use proptest::prelude::*;

/// Insert payloads of the exhaustive scope: one and two characters, the
/// second of multi-byte scalars (lengths count `char`s, not bytes).
const TEXTS: [&str; 2] = ["x", "éλ"];
const MAX_COMPONENTS: usize = 5;
/// Every pair is checked on bases up to this…
const MAX_BASE_ALL_PAIRS: usize = 5;
/// …and beyond it only single-site `b`: a multi-site `b` goes straight to
/// `SeqOp::transform`, so more of those pairs would buy nothing.
const MAX_BASE: usize = 8;
/// A client's undo depth (`cvc_reduce::client::MAX_UNDO_DEPTH`).
const DEPTH: usize = 100;

/// Every normalized operation of at most `MAX_COMPONENTS` components on a
/// document of `base` characters, inserting only `TEXTS`.
fn all_ops(base: usize) -> Vec<SeqOp> {
    fn grow(op: &SeqOp, left: usize, out: &mut Vec<SeqOp>) {
        if left == 0 {
            out.push(op.clone());
        }
        if op.components().len() == MAX_COMPONENTS {
            return;
        }
        let lengths = (1..=left).flat_map(|n| [Component::Retain(n), Component::Delete(n)]);
        let texts = TEXTS.iter().map(|t| Component::Insert(t.to_string()));
        for next in lengths.chain(texts) {
            let mut grown = op.clone();
            let used = match &next {
                Component::Retain(n) => grown.retain(*n).base_len() - op.base_len(),
                Component::Delete(n) => grown.delete(*n).base_len() - op.base_len(),
                Component::Insert(text) => grown.insert(text).base_len() - op.base_len(),
            };
            // Where the builder merged or reordered `next`, the result is a
            // second spelling of a normal form reached another way.
            if grown.components().len() == op.components().len() + 1
                && grown.components().last() == Some(&next)
            {
                grow(&grown, left - used, out);
            }
        }
    }
    let mut out = Vec::new();
    grow(&SeqOp::new(), base, &mut out);
    out
}

/// A stack deep enough for `ops`, holding them oldest first.
fn stack_of(ops: &[SeqOp]) -> OpStack {
    let mut stack = OpStack::new(ops.len());
    for op in ops {
        stack.push(op.clone());
    }
    stack
}

/// Pop every entry, returning them oldest first.
fn drain(mut stack: OpStack) -> Vec<SeqOp> {
    let mut out: Vec<SeqOp> = std::iter::from_fn(|| stack.pop()).collect();
    out.reverse();
    out
}

fn is_single_site(op: &SeqOp) -> bool {
    use Component::{Delete, Insert, Retain};
    let mut rest = op.components();
    if let [Retain(_), tail @ ..] = rest {
        rest = tail;
    }
    if let [Insert(_), tail @ ..] = rest {
        rest = tail;
    }
    if let [Delete(_), tail @ ..] = rest {
        rest = tail;
    }
    matches!(rest, [] | [Retain(_)])
}

#[test]
fn rebase_over_is_transform_on_every_small_pair() {
    let (mut pairs, mut single_site_pairs) = (0usize, 0usize);
    for base in 0..=MAX_BASE {
        let ops = all_ops(base);
        for b in &ops {
            if base > MAX_BASE_ALL_PAIRS && !is_single_site(b) {
                continue;
            }
            // The whole set rides `b` as one stack, as an undo stack does.
            let mut stack = stack_of(&ops);
            stack.ride(b).expect("equal bases");
            let rebased = drain(stack);
            assert_eq!(rebased.len(), ops.len());
            for (a, got) in ops.iter().zip(&rebased) {
                let want = SeqOp::transform(a, b).expect("equal bases").0;
                assert_eq!(got, &want, "a = {a}, b = {b}");
            }
            pairs += ops.len();
            single_site_pairs += ops.len() * usize::from(is_single_site(b));
        }
    }
    // A change to the enumeration should be a decision, not an accident.
    assert_eq!((pairs, single_site_pairs), (898_225, 535_737));
}

#[test]
fn rebase_over_rejects_a_base_mismatch_and_leaves_the_op_alone() {
    for a_base in 0..=3 {
        for b_base in (0..=3).filter(|&b| b != a_base) {
            for a in all_ops(a_base) {
                for b in all_ops(b_base).iter().take(40) {
                    let alone = std::slice::from_ref(&a);
                    let mut stack = stack_of(alone);
                    assert_eq!(
                        stack.ride(b),
                        Err(SeqError::TransformMismatch { a_base, b_base })
                    );
                    assert_eq!(drain(stack), alone);
                }
            }
        }
    }
}

/// What goes in comes out: a push and a pop give back the same normalized
/// operation, flat or held.
#[test]
fn push_then_pop_is_the_identity() {
    for base in 0..=MAX_BASE_ALL_PAIRS {
        for op in all_ops(base) {
            let mut stack = OpStack::new(1);
            stack.push(op.clone());
            assert_eq!(stack.pop(), Some(op));
            assert_eq!(stack.pop(), None);
        }
    }
}

/// A random operation on a document of `base` characters: the parts are
/// consumed until the base runs out, then the rest is retained or deleted.
fn build(base: usize, parts: &[(u8, usize, String)], delete_tail: bool) -> SeqOp {
    let mut op = SeqOp::new();
    let mut left = base;
    for (kind, n, text) in parts {
        let n = (*n).min(left);
        match kind {
            0 => {
                op.retain(n);
            }
            1 => {
                op.delete(n);
            }
            _ => {
                op.insert(text);
            }
        }
        if *kind < 2 {
            left -= n;
        }
    }
    if delete_tail {
        op.delete(left);
    } else {
        op.retain(left);
    }
    op
}

fn arb_parts(max: usize) -> impl Strategy<Value = Vec<(u8, usize, String)>> {
    proptest::collection::vec((0u8..3, 1usize..40, "[a-cé-ëλ]{1,6}"), 0..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Larger multi-component `a` against both multi-site and single-site
    /// `b` (three parts or fewer are mostly single-site).
    #[test]
    fn rebase_over_is_transform_on_random_ops(
        base in 0usize..200,
        a_parts in arb_parts(12),
        b_parts in prop_oneof![arb_parts(3), arb_parts(12)],
        a_tail in any::<bool>(),
        b_tail in any::<bool>(),
    ) {
        let a = build(base, &a_parts, a_tail);
        let b = build(base, &b_parts, b_tail);
        let want = SeqOp::transform(&a, &b).expect("equal bases").0;
        let mut stack = stack_of(&[a]);
        stack.ride(&b).expect("equal bases");
        prop_assert_eq!(drain(stack), [want]);
    }

    #[test]
    fn rebase_over_mismatch_is_transform_mismatch(
        a_base in 0usize..60,
        b_base in 0usize..60,
        a_parts in arb_parts(6),
        b_parts in arb_parts(3),
    ) {
        prop_assume!(a_base != b_base);
        let a = build(a_base, &a_parts, false);
        let b = build(b_base, &b_parts, false);
        let mut stack = stack_of(std::slice::from_ref(&a));
        prop_assert_eq!(stack.ride(&b), SeqOp::transform(&a, &b).map(|_| ()));
        prop_assert_eq!(drain(stack), [a]);
    }
}

/// One step of a random stack session: push an op on the current base,
/// ride an executed op, or pop.
#[derive(Debug, Clone)]
enum Step {
    Push(Vec<(u8, usize, String)>, bool),
    Ride(Vec<(u8, usize, String)>, bool),
    Pop,
}

/// Five pushes and three rides to a pop, so long sessions outgrow the
/// depth.
fn arb_step() -> impl Strategy<Value = Step> {
    let op = prop_oneof![arb_parts(3), arb_parts(8)];
    (0u8..9, op, any::<bool>()).prop_map(|(kind, parts, tail)| match kind {
        0..=4 => Step::Push(parts, tail),
        5..=7 => Step::Ride(parts, tail),
        _ => Step::Pop,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A stack driven past its depth pops exactly what a `VecDeque` of
    /// whole operations, riding by `transform`, pops — entries pushed after
    /// many rides, dropped by the depth cap, and left at the end included.
    #[test]
    fn random_stacks_match_a_transform_reference(
        base in 0usize..40,
        steps in proptest::collection::vec(arb_step(), (2 * DEPTH)..(4 * DEPTH)),
    ) {
        let mut base = base;
        let mut stack = OpStack::new(DEPTH);
        let mut reference = VecDeque::new();
        for step in steps {
            match step {
                Step::Push(parts, tail) => {
                    let op = build(base, &parts, tail);
                    stack.push(op.clone());
                    reference.push_back(op);
                    if reference.len() > DEPTH {
                        reference.pop_front();
                    }
                }
                Step::Ride(parts, tail) => {
                    let b = build(base, &parts, tail);
                    stack.ride(&b).expect("one frame");
                    for a in reference.iter_mut() {
                        *a = SeqOp::transform(a, &b).expect("one frame").0;
                    }
                    base = b.target_len();
                }
                Step::Pop => prop_assert_eq!(stack.pop(), reference.pop_back()),
            }
        }
        prop_assert_eq!(drain(stack), Vec::from(reference));
    }
}
