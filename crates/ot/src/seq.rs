//! Component-sequence operations: the engine-grade operation form.
//!
//! A [`SeqOp`] describes a whole-document edit as a run of components —
//! `Retain(n)`, `Insert(text)`, `Delete(n)` — that consume the old document
//! left to right and produce the new one. This is the representation used
//! by production OT systems (Google Wave, ShareDB, ot.js) because, unlike
//! positional operations, **transformation and composition are total**: a
//! delete straddling a concurrent insert simply becomes
//! `delete·retain·delete` instead of needing a special "split" case, and
//! list-against-list transformation terminates trivially.
//!
//! The `cvc-reduce` engines convert the paper's positional operations to
//! sequence form on ingestion ([`SeqOp::from_pos`]) and back for display
//! ([`SeqOp::to_pos`]).
//!
//! All lengths count `char`s, consistent with the rest of the workspace.

use crate::buffer::TextBuffer;
use crate::pos::PosOp;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One component of a [`SeqOp`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Component {
    /// Keep the next `n` characters.
    Retain(usize),
    /// Insert this text at the current position.
    Insert(String),
    /// Remove the next `n` characters.
    Delete(usize),
}

/// Errors from applying or combining sequence operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqError {
    /// The operation was built for a document of a different length.
    BaseLengthMismatch {
        /// Length the operation expects.
        expected: usize,
        /// Length it was given.
        got: usize,
    },
    /// `compose(a, b)`: `b` does not start where `a` ends.
    ComposeMismatch {
        /// `a.target_len()`.
        a_target: usize,
        /// `b.base_len()`.
        b_base: usize,
    },
    /// `transform(a, b)`: the operations are not defined on the same state.
    TransformMismatch {
        /// `a.base_len()`.
        a_base: usize,
        /// `b.base_len()`.
        b_base: usize,
    },
}

impl fmt::Display for SeqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeqError::BaseLengthMismatch { expected, got } => {
                write!(
                    f,
                    "operation expects base length {expected}, document has {got}"
                )
            }
            SeqError::ComposeMismatch { a_target, b_base } => {
                write!(
                    f,
                    "compose: a produces length {a_target} but b consumes {b_base}"
                )
            }
            SeqError::TransformMismatch { a_base, b_base } => {
                write!(
                    f,
                    "transform: operations consume {a_base} vs {b_base} characters"
                )
            }
        }
    }
}

impl std::error::Error for SeqError {}

/// A whole-document edit as a normalized component run.
///
/// Invariants maintained by the builder methods:
/// * no zero-length components;
/// * no two adjacent components of the same kind;
/// * an `Insert` never directly follows a `Delete` (the canonical order is
///   insert-then-delete, which is effect-equivalent).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct SeqOp {
    components: Vec<Component>,
    base_len: usize,
    target_len: usize,
}

impl SeqOp {
    /// The empty operation on the empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// The empty operation, with room for `components` components before
    /// its first reallocation.
    pub fn with_capacity(components: usize) -> Self {
        SeqOp {
            components: Vec::with_capacity(components),
            ..Self::default()
        }
    }

    /// Identity operation on a document of `n` characters.
    pub fn identity(n: usize) -> Self {
        let mut op = SeqOp::new();
        op.retain(n);
        op
    }

    /// Characters of the old document this operation consumes.
    #[inline]
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// Characters of the new document this operation produces.
    #[inline]
    pub fn target_len(&self) -> usize {
        self.target_len
    }

    /// The normalized component run.
    #[inline]
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// The component run, by value (an [`crate::stack::OpStack`] keeps an
    /// insert's text without copying it).
    pub(crate) fn into_components(self) -> Vec<Component> {
        self.components
    }

    /// True if the operation changes nothing (retains only).
    pub fn is_noop(&self) -> bool {
        self.components
            .iter()
            .all(|c| matches!(c, Component::Retain(_)))
    }

    /// Append a retain of `n` characters.
    pub fn retain(&mut self, n: usize) -> &mut Self {
        if n == 0 {
            return self;
        }
        self.base_len += n;
        self.target_len += n;
        if let Some(Component::Retain(m)) = self.components.last_mut() {
            *m += n;
        } else {
            self.components.push(Component::Retain(n));
        }
        self
    }

    /// Append an insert of `text`.
    pub fn insert(&mut self, text: &str) -> &mut Self {
        self.push_insert(text)
    }

    /// Append an insert of `text`, keeping the `String` itself when it
    /// becomes a component of its own — the decoder and the transforms
    /// already own the text they append, so this saves a copy.
    pub fn insert_owned(&mut self, text: String) -> &mut Self {
        self.push_insert(text)
    }

    fn push_insert<S: AsRef<str> + Into<String>>(&mut self, text: S) -> &mut Self {
        let s = text.as_ref();
        if s.is_empty() {
            return self;
        }
        self.target_len += s.chars().count();
        match self.components.last_mut() {
            Some(Component::Insert(prev)) => prev.push_str(s),
            Some(Component::Delete(_)) => {
                // Canonical order: insert before delete. If the component
                // before the delete is also an insert, merge into it.
                let del = self.components.pop().expect("just matched");
                if let Some(Component::Insert(prev)) = self.components.last_mut() {
                    prev.push_str(s);
                } else {
                    self.components.push(Component::Insert(text.into()));
                }
                self.components.push(del);
            }
            _ => self.components.push(Component::Insert(text.into())),
        }
        self
    }

    /// Append a delete of `n` characters.
    pub fn delete(&mut self, n: usize) -> &mut Self {
        if n == 0 {
            return self;
        }
        self.base_len += n;
        if let Some(Component::Delete(m)) = self.components.last_mut() {
            *m += n;
        } else {
            self.components.push(Component::Delete(n));
        }
        self
    }

    /// Close an operation whose trailing retain was left implied, as the
    /// wire sends it: retain the rest of a `base`-character document. An
    /// operation reaching past `base` is refused as
    /// [`SeqError::BaseLengthMismatch`] and left as it was; one already
    /// consuming exactly `base` is unchanged.
    pub fn close_to(&mut self, base: usize) -> Result<(), SeqError> {
        let rest = base
            .checked_sub(self.base_len)
            .ok_or(SeqError::BaseLengthMismatch {
                expected: self.base_len,
                got: base,
            })?;
        self.retain(rest);
        Ok(())
    }

    /// Apply to `doc`, producing the new document.
    pub fn apply(&self, doc: &str) -> Result<String, SeqError> {
        let chars: Vec<char> = doc.chars().collect();
        if chars.len() != self.base_len {
            return Err(SeqError::BaseLengthMismatch {
                expected: self.base_len,
                got: chars.len(),
            });
        }
        let mut out = String::with_capacity(doc.len());
        let mut pos = 0usize;
        for c in &self.components {
            match c {
                Component::Retain(n) => {
                    out.extend(&chars[pos..pos + n]);
                    pos += n;
                }
                Component::Insert(s) => out.push_str(s),
                Component::Delete(n) => pos += n,
            }
        }
        debug_assert_eq!(pos, chars.len());
        Ok(out)
    }

    /// Apply in place to a gap buffer: each component becomes one
    /// localized splice, so the cost is the edit size (plus gap movement)
    /// instead of a full-document reallocation per operation. This is the
    /// hot-path twin of [`SeqOp::apply`]; the engines keep their replicas
    /// as [`TextBuffer`]s and only materialise strings at the edges.
    pub fn apply_to_buffer(&self, buf: &mut TextBuffer) -> Result<(), SeqError> {
        if buf.len() != self.base_len {
            return Err(SeqError::BaseLengthMismatch {
                expected: self.base_len,
                got: buf.len(),
            });
        }
        let mut pos = 0usize;
        for c in &self.components {
            match c {
                Component::Retain(n) => pos += n,
                Component::Insert(s) => {
                    buf.insert_str(pos, s);
                    pos += s.chars().count();
                }
                Component::Delete(n) => buf.remove_range(pos, *n),
            }
        }
        debug_assert_eq!(buf.len(), self.target_len);
        Ok(())
    }

    /// The inverse operation computed against a gap-buffer pre-state —
    /// like [`SeqOp::invert`] but reading deleted text out of the buffer
    /// instead of re-collecting the whole document into chars.
    pub fn invert_in(&self, buf: &TextBuffer) -> Result<SeqOp, SeqError> {
        if buf.len() != self.base_len {
            return Err(SeqError::BaseLengthMismatch {
                expected: self.base_len,
                got: buf.len(),
            });
        }
        let mut inv = SeqOp::new();
        let mut pos = 0usize;
        for c in &self.components {
            match c {
                Component::Retain(n) => {
                    inv.retain(*n);
                    pos += n;
                }
                Component::Insert(s) => {
                    inv.delete(s.chars().count());
                }
                Component::Delete(n) => {
                    inv.insert_owned(buf.slice(pos, *n));
                    pos += n;
                }
            }
        }
        Ok(inv)
    }

    /// The inverse operation, valid on the *post*-state; needs the
    /// pre-state `doc` to recover deleted text.
    pub fn invert(&self, doc: &str) -> Result<SeqOp, SeqError> {
        let chars: Vec<char> = doc.chars().collect();
        if chars.len() != self.base_len {
            return Err(SeqError::BaseLengthMismatch {
                expected: self.base_len,
                got: chars.len(),
            });
        }
        let mut inv = SeqOp::new();
        let mut pos = 0usize;
        for c in &self.components {
            match c {
                Component::Retain(n) => {
                    inv.retain(*n);
                    pos += n;
                }
                Component::Insert(s) => {
                    inv.delete(s.chars().count());
                }
                Component::Delete(n) => {
                    inv.insert_owned(chars[pos..pos + n].iter().collect());
                    pos += n;
                }
            }
        }
        Ok(inv)
    }

    /// Compose: a single operation with the effect of `self` then `other`.
    pub fn compose(&self, other: &SeqOp) -> Result<SeqOp, SeqError> {
        if self.target_len != other.base_len {
            return Err(SeqError::ComposeMismatch {
                a_target: self.target_len,
                b_base: other.base_len,
            });
        }
        let mut out = SeqOp::new();
        let mut ai = ComponentCursor::new(&self.components);
        let mut bi = ComponentCursor::new(&other.components);
        loop {
            match (ai.peek(), bi.peek()) {
                (None, None) => break,
                // a's deletes pass straight through (they consume base text
                // that b never sees).
                (Some(Component::Delete(_)), _) => {
                    let n = ai.take_all_delete();
                    out.delete(n);
                }
                // b's inserts pass straight through.
                (_, Some(Component::Insert(_))) => {
                    out.insert_owned(bi.take_all_insert());
                }
                (None, Some(_)) | (Some(_), None) => {
                    unreachable!("length precondition violated despite check")
                }
                (Some(Component::Retain(_)), Some(Component::Retain(_))) => {
                    let n = ai.len_avail().min(bi.len_avail());
                    out.retain(n);
                    ai.consume(n);
                    bi.consume(n);
                }
                (Some(Component::Retain(_)), Some(Component::Delete(_))) => {
                    let n = ai.len_avail().min(bi.len_avail());
                    out.delete(n);
                    ai.consume(n);
                    bi.consume(n);
                }
                (Some(Component::Insert(_)), Some(Component::Retain(_))) => {
                    let n = ai.len_avail().min(bi.len_avail());
                    out.insert_owned(ai.take_insert_text(n));
                    bi.consume(n);
                }
                (Some(Component::Insert(_)), Some(Component::Delete(_))) => {
                    // a inserted text that b deletes: annihilates.
                    let n = ai.len_avail().min(bi.len_avail());
                    let _ = ai.take_insert_text(n);
                    bi.consume(n);
                }
            }
        }
        Ok(out)
    }

    /// Transform the concurrent pair `(a, b)` (same base state) into
    /// `(a', b')` with `base∘a∘b' = base∘b∘a'` (TP1). On insert ties `a`'s
    /// text ends up first; callers pass the higher-priority operation as
    /// `a`.
    pub fn transform(a: &SeqOp, b: &SeqOp) -> Result<(SeqOp, SeqOp), SeqError> {
        if a.base_len != b.base_len {
            return Err(SeqError::TransformMismatch {
                a_base: a.base_len,
                b_base: b.base_len,
            });
        }
        let mut a1 = SeqOp::new();
        let mut b1 = SeqOp::new();
        let mut ai = ComponentCursor::new(&a.components);
        let mut bi = ComponentCursor::new(&b.components);
        loop {
            match (ai.peek(), bi.peek()) {
                (None, None) => break,
                // a's insert goes first (priority) — b' must retain it.
                (Some(Component::Insert(_)), _) => {
                    let s = ai.take_all_insert();
                    b1.retain(s.chars().count());
                    a1.insert_owned(s);
                }
                (_, Some(Component::Insert(_))) => {
                    let s = bi.take_all_insert();
                    a1.retain(s.chars().count());
                    b1.insert_owned(s);
                }
                (None, Some(_)) | (Some(_), None) => {
                    unreachable!("length precondition violated despite check")
                }
                (Some(Component::Retain(_)), Some(Component::Retain(_))) => {
                    let n = ai.len_avail().min(bi.len_avail());
                    a1.retain(n);
                    b1.retain(n);
                    ai.consume(n);
                    bi.consume(n);
                }
                (Some(Component::Delete(_)), Some(Component::Delete(_))) => {
                    // Both deleted the same text: gone either way.
                    let n = ai.len_avail().min(bi.len_avail());
                    ai.consume(n);
                    bi.consume(n);
                }
                (Some(Component::Delete(_)), Some(Component::Retain(_))) => {
                    let n = ai.len_avail().min(bi.len_avail());
                    a1.delete(n);
                    ai.consume(n);
                    bi.consume(n);
                }
                (Some(Component::Retain(_)), Some(Component::Delete(_))) => {
                    let n = ai.len_avail().min(bi.len_avail());
                    b1.delete(n);
                    ai.consume(n);
                    bi.consume(n);
                }
            }
        }
        Ok((a1, b1))
    }

    /// Lift a positional operation onto a document of `doc_len` characters.
    pub fn from_pos(op: &PosOp, doc_len: usize) -> SeqOp {
        let mut s = SeqOp::new();
        match op {
            PosOp::Insert { pos, text } => {
                s.retain(*pos);
                s.insert(text);
                s.retain(doc_len - pos);
            }
            PosOp::Delete { pos, text } => {
                let n = text.chars().count();
                s.retain(*pos);
                s.delete(n);
                s.retain(doc_len - pos - n);
            }
        }
        s
    }

    /// Decompose into a sequential list of positional operations with the
    /// same effect. Deleted text is recovered from the pre-state `doc`.
    pub fn to_pos(&self, doc: &str) -> Result<Vec<PosOp>, SeqError> {
        let chars: Vec<char> = doc.chars().collect();
        if chars.len() != self.base_len {
            return Err(SeqError::BaseLengthMismatch {
                expected: self.base_len,
                got: chars.len(),
            });
        }
        let mut out = Vec::new();
        let mut new_pos = 0usize; // position in the evolving document
        let mut old_pos = 0usize; // position in the pre-state
        for c in &self.components {
            match c {
                Component::Retain(n) => {
                    new_pos += n;
                    old_pos += n;
                }
                Component::Insert(s) => {
                    out.push(PosOp::insert(new_pos, s.clone()));
                    new_pos += s.chars().count();
                }
                Component::Delete(n) => {
                    let text: String = chars[old_pos..old_pos + n].iter().collect();
                    out.push(PosOp::delete(new_pos, text));
                    old_pos += n;
                }
            }
        }
        Ok(out)
    }

    /// Total characters inserted (workload accounting).
    pub fn inserted_chars(&self) -> usize {
        self.components
            .iter()
            .map(|c| match c {
                Component::Insert(s) => s.chars().count(),
                _ => 0,
            })
            .sum()
    }

    /// Total characters deleted (workload accounting).
    pub fn deleted_chars(&self) -> usize {
        self.components
            .iter()
            .map(|c| match c {
                Component::Delete(n) => *n,
                _ => 0,
            })
            .sum()
    }
}

impl fmt::Display for SeqOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            match c {
                Component::Retain(n) => write!(f, "R{n}")?,
                Component::Insert(s) => write!(f, "I{s:?}")?,
                Component::Delete(n) => write!(f, "D{n}")?,
            }
        }
        write!(f, "⟩")
    }
}

/// Cursor over a component run that can consume partial components.
struct ComponentCursor<'a> {
    comps: &'a [Component],
    idx: usize,
    /// Offset consumed inside the current component (chars).
    offset: usize,
}

impl<'a> ComponentCursor<'a> {
    fn new(comps: &'a [Component]) -> Self {
        ComponentCursor {
            comps,
            idx: 0,
            offset: 0,
        }
    }

    fn peek(&self) -> Option<&'a Component> {
        self.comps.get(self.idx)
    }

    /// Characters remaining in the current component.
    fn len_avail(&self) -> usize {
        match self.peek() {
            Some(Component::Retain(n)) | Some(Component::Delete(n)) => n - self.offset,
            Some(Component::Insert(s)) => s.chars().count() - self.offset,
            None => 0,
        }
    }

    /// Consume `n` characters of the current retain/delete component.
    fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.len_avail());
        self.offset += n;
        if self.len_avail() == 0 {
            self.idx += 1;
            self.offset = 0;
        }
    }

    /// Take up to `n` chars of the current insert component's text.
    fn take_insert_text(&mut self, n: usize) -> String {
        let Some(Component::Insert(s)) = self.peek() else {
            unreachable!("take_insert_text on non-insert component")
        };
        let text: String = s.chars().skip(self.offset).take(n).collect();
        self.consume_insert(n);
        text
    }

    fn consume_insert(&mut self, n: usize) {
        debug_assert!(n <= self.len_avail());
        self.offset += n;
        if self.len_avail() == 0 {
            self.idx += 1;
            self.offset = 0;
        }
    }

    /// Take the whole remaining text of the current insert component.
    fn take_all_insert(&mut self) -> String {
        let n = self.len_avail();
        self.take_insert_text(n)
    }

    /// Take the whole remaining length of the current delete component.
    fn take_all_delete(&mut self) -> usize {
        let n = self.len_avail();
        self.consume(n);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(f: impl FnOnce(&mut SeqOp)) -> SeqOp {
        let mut o = SeqOp::new();
        f(&mut o);
        o
    }

    #[test]
    fn apply_basic() {
        let o = op(|o| {
            o.retain(1).insert("12").retain(4);
        });
        assert_eq!(o.apply("ABCDE").unwrap(), "A12BCDE");
        assert_eq!(o.base_len(), 5);
        assert_eq!(o.target_len(), 7);
    }

    #[test]
    fn apply_checks_base_length() {
        let o = op(|o| {
            o.retain(3);
        });
        assert!(matches!(
            o.apply("ab"),
            Err(SeqError::BaseLengthMismatch {
                expected: 3,
                got: 2
            })
        ));
    }

    /// An open op closes to the full op on any base it fits; a full op
    /// closes to itself; an op reaching past the base is refused, intact.
    #[test]
    fn close_to_retains_the_rest_and_refuses_a_reach_past_the_base() {
        let full = op(|o| {
            o.retain(1).insert("12").delete(1).retain(3);
        });
        let mut open = op(|o| {
            o.retain(1).insert("12").delete(1);
        });
        let (mut same, mut short) = (full.clone(), open.clone());
        assert_eq!(
            short.close_to(1),
            Err(SeqError::BaseLengthMismatch {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(short, open, "a refused close changes nothing");
        open.close_to(5).expect("fits");
        assert_eq!(open, full);
        same.close_to(5).expect("already closed");
        assert_eq!(same, full);
        let mut noop = SeqOp::new();
        noop.close_to(4)
            .expect("an empty op closes to the identity");
        assert_eq!(noop, SeqOp::identity(4));
    }

    #[test]
    fn builder_normalizes() {
        let o = op(|o| {
            o.retain(2)
                .retain(3)
                .insert("a")
                .insert("b")
                .delete(1)
                .delete(2);
        });
        assert_eq!(
            o.components(),
            &[
                Component::Retain(5),
                Component::Insert("ab".into()),
                Component::Delete(3)
            ]
        );
        // Insert after delete swaps into canonical insert-then-delete order.
        let o = op(|o| {
            o.delete(2).insert("xy");
        });
        assert_eq!(
            o.components(),
            &[Component::Insert("xy".into()), Component::Delete(2)]
        );
        // …and merges with an insert already sitting before the delete.
        let o = op(|o| {
            o.insert("a").delete(2).insert("b");
        });
        assert_eq!(
            o.components(),
            &[Component::Insert("ab".into()), Component::Delete(2)]
        );
    }

    #[test]
    fn owned_inserts_normalize_like_borrowed_ones() {
        let borrowed = op(|o| {
            o.retain(1)
                .insert("a")
                .delete(1)
                .insert("")
                .insert("b")
                .retain(1);
        });
        let mut owned = SeqOp::with_capacity(4);
        owned
            .retain(1)
            .insert_owned("a".into())
            .delete(1)
            .insert_owned(String::new())
            .insert_owned("b".into())
            .retain(1);
        assert_eq!(owned, borrowed);
        assert_eq!(
            owned.components(),
            &[
                Component::Retain(1),
                Component::Insert("ab".into()),
                Component::Delete(1),
                Component::Retain(1)
            ]
        );
        let mut o = SeqOp::new();
        o.delete(2).insert_owned("xy".into());
        assert_eq!(
            o.components(),
            &[Component::Insert("xy".into()), Component::Delete(2)]
        );
        assert_eq!((o.base_len(), o.target_len()), (2, 2));
    }

    #[test]
    fn zero_length_components_are_dropped() {
        let o = op(|o| {
            o.retain(0).insert("").delete(0).retain(2);
        });
        assert_eq!(o.components(), &[Component::Retain(2)]);
        assert!(o.is_noop());
    }

    #[test]
    fn paper_example_as_seq_ops() {
        // O1 = Insert["12",1], O2 = Delete[3,2] on "ABCDE".
        let o1 = SeqOp::from_pos(&PosOp::insert(1, "12"), 5);
        let o2 = SeqOp::from_pos(&PosOp::delete(2, "CDE"), 5);
        let (o1p, o2p) = SeqOp::transform(&o1, &o2).unwrap();
        // Both orders converge on the intention-preserved "A12B".
        let left = o2p.apply(&o1.apply("ABCDE").unwrap()).unwrap();
        let right = o1p.apply(&o2.apply("ABCDE").unwrap()).unwrap();
        assert_eq!(left, "A12B");
        assert_eq!(right, "A12B");
        // o2' is the paper's Delete[3,4].
        assert_eq!(
            o2p.to_pos("A12BCDE").unwrap(),
            vec![PosOp::delete(4, "CDE")]
        );
    }

    #[test]
    fn transform_delete_straddling_insert() {
        // Delete [1,5) of "abcdef" vs insert "XY" at 3: the delete becomes
        // delete·retain·delete with no special case.
        let a = SeqOp::from_pos(&PosOp::delete(1, "bcde"), 6);
        let b = SeqOp::from_pos(&PosOp::insert(3, "XY"), 6);
        let (a1, b1) = SeqOp::transform(&a, &b).unwrap();
        let left = b1.apply(&a.apply("abcdef").unwrap()).unwrap();
        let right = a1.apply(&b.apply("abcdef").unwrap()).unwrap();
        assert_eq!(left, right);
        assert_eq!(left, "aXYf");
    }

    #[test]
    fn transform_insert_tie_priority() {
        let a = SeqOp::from_pos(&PosOp::insert(2, "AA"), 4);
        let b = SeqOp::from_pos(&PosOp::insert(2, "BB"), 4);
        let (a1, b1) = SeqOp::transform(&a, &b).unwrap();
        let left = b1.apply(&a.apply("wxyz").unwrap()).unwrap();
        let right = a1.apply(&b.apply("wxyz").unwrap()).unwrap();
        assert_eq!(left, right);
        // a has priority: its text comes first.
        assert_eq!(left, "wxAABByz");
    }

    #[test]
    fn transform_overlapping_deletes() {
        let a = SeqOp::from_pos(&PosOp::delete(2, "cdef"), 10);
        let b = SeqOp::from_pos(&PosOp::delete(4, "efgh"), 10);
        let (a1, b1) = SeqOp::transform(&a, &b).unwrap();
        let doc = "abcdefghij";
        let left = b1.apply(&a.apply(doc).unwrap()).unwrap();
        let right = a1.apply(&b.apply(doc).unwrap()).unwrap();
        assert_eq!(left, right);
        assert_eq!(left, "abij");
    }

    #[test]
    fn transform_rejects_mismatched_bases() {
        let a = SeqOp::identity(3);
        let b = SeqOp::identity(4);
        assert!(SeqOp::transform(&a, &b).is_err());
    }

    #[test]
    fn compose_chains_edits() {
        let a = SeqOp::from_pos(&PosOp::insert(1, "12"), 5); // ABCDE → A12BCDE
        let b = SeqOp::from_pos(&PosOp::delete(4, "CDE"), 7); // → A12B
        let ab = a.compose(&b).unwrap();
        assert_eq!(ab.apply("ABCDE").unwrap(), "A12B");
        assert_eq!(ab.base_len(), 5);
        assert_eq!(ab.target_len(), 4);
    }

    #[test]
    fn compose_insert_then_delete_annihilates() {
        let a = SeqOp::from_pos(&PosOp::insert(2, "XY"), 4); // wxyz → wxXYyz
        let b = SeqOp::from_pos(&PosOp::delete(2, "XY"), 6); // back to wxyz
        let ab = a.compose(&b).unwrap();
        assert!(ab.is_noop());
        assert_eq!(ab.apply("wxyz").unwrap(), "wxyz");
    }

    #[test]
    fn compose_rejects_mismatch() {
        let a = SeqOp::identity(3);
        let b = SeqOp::identity(5);
        assert!(matches!(
            a.compose(&b),
            Err(SeqError::ComposeMismatch {
                a_target: 3,
                b_base: 5
            })
        ));
    }

    #[test]
    fn invert_round_trips() {
        let doc = "hello world";
        let o = op(|o| {
            o.retain(5).delete(6).insert(", friend");
        });
        let post = o.apply(doc).unwrap();
        assert_eq!(post, "hello, friend");
        let inv = o.invert(doc).unwrap();
        assert_eq!(inv.apply(&post).unwrap(), doc);
        // Compose gives an effect-identity (not necessarily a syntactic
        // noop: reinserted text is not matched against deleted text).
        let round = o.compose(&inv).unwrap();
        assert_eq!(round.apply(doc).unwrap(), doc);
    }

    #[test]
    fn from_pos_to_pos_round_trip() {
        let doc = "abcdef";
        for p in [PosOp::insert(3, "zz"), PosOp::delete(2, "cd")] {
            let s = SeqOp::from_pos(&p, 6);
            assert_eq!(s.to_pos(doc).unwrap(), vec![p]);
        }
    }

    #[test]
    fn to_pos_multi_component() {
        let o = op(|o| {
            o.delete(1).retain(2).insert("XY").retain(1).delete(2);
        });
        let doc = "abcdef";
        let pos_ops = o.to_pos(doc).unwrap();
        // Applying the positional decomposition sequentially matches apply().
        let mut buf = crate::buffer::TextBuffer::from_str(doc);
        for p in &pos_ops {
            p.apply(&mut buf).unwrap();
        }
        assert_eq!(buf.to_string(), o.apply(doc).unwrap());
    }

    #[test]
    fn accounting_helpers() {
        let o = op(|o| {
            o.retain(1).insert("abc").delete(2).retain(1).delete(1);
        });
        assert_eq!(o.inserted_chars(), 3);
        assert_eq!(o.deleted_chars(), 3);
    }

    #[test]
    fn display_is_compact() {
        let o = op(|o| {
            o.retain(2).insert("hi").delete(1);
        });
        assert_eq!(o.to_string(), "⟨R2 I\"hi\" D1⟩");
    }

    #[test]
    fn apply_to_buffer_matches_string_apply() {
        let doc = "hello world";
        let o = op(|o| {
            o.retain(5).delete(6).insert(", friend").retain(0);
        });
        let mut buf = TextBuffer::from_str(doc);
        o.apply_to_buffer(&mut buf).unwrap();
        assert_eq!(buf.to_string(), o.apply(doc).unwrap());
        // Length mismatch is detected, and the buffer is untouched.
        let mut short = TextBuffer::from_str("hi");
        assert!(matches!(
            o.apply_to_buffer(&mut short),
            Err(SeqError::BaseLengthMismatch { .. })
        ));
        assert_eq!(short.to_string(), "hi");
    }

    #[test]
    fn invert_in_matches_string_invert() {
        let doc = "aβγde";
        let o = op(|o| {
            o.retain(1).delete(2).insert("XY").retain(2);
        });
        let buf = TextBuffer::from_str(doc);
        assert_eq!(o.invert_in(&buf).unwrap(), o.invert(doc).unwrap());
        let post = o.apply(doc).unwrap();
        assert_eq!(o.invert_in(&buf).unwrap().apply(&post).unwrap(), doc);
    }

    #[test]
    fn unicode_lengths_are_char_based() {
        let o = op(|o| {
            o.retain(1).insert("βγ").delete(1).retain(1);
        });
        assert_eq!(o.apply("aδe").unwrap(), "aβγe");
        let inv = o.invert("aδe").unwrap();
        assert_eq!(inv.apply("aβγe").unwrap(), "aδe");
    }
}
