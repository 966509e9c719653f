//! Bounded operation stacks that ride every executed operation: a client's
//! undo and redo stacks.
//!
//! An [`OpStack`] keeps each entry transformed into the *current* document
//! frame: [`OpStack::ride`] rewrites every entry `a` into exactly
//! `SeqOp::transform(a, b)?.0` when `b` executes. Most entries are inverses
//! of keystrokes, backspaces and pastes — they edit one place — so the stack
//! holds them flat, as four integers (`retain pos · insert? · delete del ·
//! retain rest`) with the insert's text out of line, and a ride updates
//! them by integer arithmetic without following a pointer. An entry a
//! concurrent edit split into several places is held as a plain [`SeqOp`]
//! and rides through [`SeqOp::transform`].

use crate::seq::{Component, SeqError, SeqOp};
use std::collections::VecDeque;

/// A stack of at most `depth` operations, each kept transformed into the
/// frame of the last operation it rode. Pushing beyond the depth drops the
/// oldest entry.
#[derive(Debug, Clone)]
pub struct OpStack {
    /// What a ride reads and rewrites, oldest first: the entry's shape if
    /// it edits one place, `None` if its body holds the whole operation.
    shapes: VecDeque<Option<Flat>>,
    /// Beside each shape, read only to pop an entry or when a ride falls
    /// back to [`SeqOp::transform`].
    bodies: VecDeque<Body>,
    depth: usize,
}

/// The out-of-line part of an entry.
#[derive(Debug, Clone)]
enum Body {
    /// A single-site entry's insert text (empty if it inserts nothing).
    Text(String),
    /// An entry that edits several places.
    Op(SeqOp),
}

/// A single-site entry `retain pos · insert? · delete del · retain rest`:
/// the normalized components one to one, a zero length standing for an
/// absent component. An entry that edits nothing keeps its whole length in
/// `pos`, as normalization merges the two retains.
#[derive(Debug, Clone, Copy)]
struct Flat {
    pos: u32,
    del: u32,
    rest: u32,
    inserts: bool,
}

/// Where a single-site operation edits its base document: `inserted`
/// characters go in at `pos` and the `deleted` ones from `pos` on go out.
#[derive(Debug, Clone, Copy, Default)]
struct Site {
    pos: usize,
    inserted: usize,
    deleted: usize,
}

impl OpStack {
    /// An empty stack that keeps the newest `depth` entries.
    pub fn new(depth: usize) -> Self {
        OpStack {
            shapes: VecDeque::new(),
            bodies: VecDeque::new(),
            depth,
        }
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.shapes.clear();
        self.bodies.clear();
    }

    /// Push `op` as the newest entry, dropping the oldest one if the stack
    /// would exceed its depth.
    pub fn push(&mut self, op: SeqOp) {
        let (shape, body) = flatten(op);
        self.shapes.push_back(shape);
        self.bodies.push_back(body);
        if self.shapes.len() > self.depth {
            self.shapes.pop_front();
            self.bodies.pop_front();
        }
    }

    /// Remove and return the newest entry.
    pub fn pop(&mut self) -> Option<SeqOp> {
        let shape = self.shapes.pop_back()?;
        Some(match self.bodies.pop_back().expect("one body per shape") {
            Body::Op(op) => op,
            Body::Text(text) => shape.expect("a text body has a shape").op(&text),
        })
    }

    /// Rewrite every entry `a` into exactly `SeqOp::transform(a, b)?.0` —
    /// the same normalized components and lengths — or stop, oldest first,
    /// at the first entry on another base with the same
    /// [`SeqError::TransformMismatch`]: the entries before it are rewritten,
    /// it and the ones after it are untouched.
    ///
    /// When `b` edits one place (`retain? insert? delete? retain?`) that
    /// lies inside one retain of a single-site entry, the result is that
    /// retain changed by `inserted − deleted`: integer arithmetic, nothing
    /// allocated, neither text read. Anything else goes through
    /// [`SeqOp::transform`].
    pub fn ride(&mut self, b: &SeqOp) -> Result<(), SeqError> {
        if self.shapes.is_empty() {
            return Ok(());
        }
        let site = site(b);
        for (i, shape) in self.shapes.iter_mut().enumerate() {
            if let (Some(flat), Some(site)) = (shape.as_mut(), site) {
                if flat.base_len() == b.base_len() && flat.ride(site) {
                    continue;
                }
            }
            let body = &mut self.bodies[i];
            let rode = match body {
                Body::Op(a) => SeqOp::transform(a, b),
                Body::Text(text) => {
                    SeqOp::transform(&shape.expect("a text body has a shape").op(text), b)
                }
            }?
            .0;
            (*shape, *body) = flatten(rode);
        }
        Ok(())
    }
}

/// An entry's shape and body: flat if `op` edits one place and its lengths
/// fit the shape's integers, held whole otherwise.
fn flatten(op: SeqOp) -> (Option<Flat>, Body) {
    let Some(site) = site(&op) else {
        return (None, Body::Op(op));
    };
    let rest = op.base_len() - site.pos - site.deleted;
    let (Ok(pos), Ok(del), Ok(rest)) = (
        u32::try_from(site.pos),
        u32::try_from(site.deleted),
        u32::try_from(rest),
    ) else {
        return (None, Body::Op(op));
    };
    let text = op
        .into_components()
        .into_iter()
        .find_map(|c| match c {
            Component::Insert(text) => Some(text),
            _ => None,
        })
        .unwrap_or_default();
    let flat = Flat {
        pos,
        del,
        rest,
        inserts: !text.is_empty(),
    };
    (Some(flat), Body::Text(text))
}

/// The one place `op` edits, if its shape is `retain? insert? delete?
/// retain?` — every keystroke, backspace and paste.
fn site(op: &SeqOp) -> Option<Site> {
    let mut site = Site::default();
    let mut rest = op.components();
    if let [Component::Retain(n), tail @ ..] = rest {
        (site.pos, rest) = (*n, tail);
    }
    if let [Component::Insert(s), tail @ ..] = rest {
        (site.inserted, rest) = (s.chars().count(), tail);
    }
    if let [Component::Delete(n), tail @ ..] = rest {
        (site.deleted, rest) = (*n, tail);
    }
    matches!(rest, [] | [Component::Retain(_)]).then_some(site)
}

impl Flat {
    fn base_len(self) -> usize {
        self.pos as usize + self.del as usize + self.rest as usize
    }

    /// The entry as an operation, `text` its insert.
    fn op(self, text: &str) -> SeqOp {
        let mut op = SeqOp::new();
        op.retain(self.pos as usize)
            .insert(text)
            .delete(self.del as usize)
            .retain(self.rest as usize);
        op
    }

    /// Ride a `b` on the same base that edits only `site`, if that site
    /// lies inside one of this entry's retains: the retain changes by
    /// `inserted − deleted` and nothing else moves. A retain that reaches
    /// zero is simply absent, so that needs no re-normalizing. Returns
    /// `false`, with the entry untouched, when the site touches the
    /// entry's delete, spans components or would add one — the shapes
    /// whose result is no longer one site, or needs re-normalizing — or
    /// when the new length does not fit.
    ///
    /// Which retain owns a site on a component boundary is the arm order
    /// of [`SeqOp::transform`]: the entry's insert at `pos` goes first, so
    /// the site belongs to what follows that insert; otherwise an insert
    /// point at a retain's end extends that retain, while a deleted range
    /// belongs to the component it starts in.
    fn ride(&mut self, site: Site) -> bool {
        let Site {
            pos: at,
            inserted,
            deleted,
        } = site;
        let (pos, del, rest) = (self.pos as usize, self.del as usize, self.rest as usize);
        debug_assert!(at + deleted <= pos + del + rest, "b fits the entry's base");
        let extends = at == pos && deleted == 0 && !self.inserts;
        if pos > 0 && (at < pos || extends) {
            return at + deleted <= pos && set(&mut self.pos, pos + inserted - deleted);
        }
        // Past the leading retain (`at >= pos`): a site before the end of
        // the delete touches it, and with no delete there is nothing before
        // `pos` left.
        if at < pos + del {
            return false;
        }
        // Inside or at the end of the trailing retain, which then cannot
        // be reached past.
        rest > 0 && set(&mut self.rest, rest + inserted - deleted)
    }
}

/// Store `to` in `field` if it fits.
fn set(field: &mut u32, to: usize) -> bool {
    u32::try_from(to).map(|to| *field = to).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pos::PosOp;

    fn op(f: impl FnOnce(&mut SeqOp)) -> SeqOp {
        let mut o = SeqOp::new();
        f(&mut o);
        o
    }

    /// The boundary rules of `Flat::ride`, by name: which shapes are
    /// rewritten by arithmetic and which are left (untouched) to the
    /// general transform. Equality with `transform` for the whole class is
    /// `tests/rebase.rs`; this pins that the arithmetic is the path taken.
    #[test]
    fn flat_ride_boundary_rules() {
        let case = |a: &SeqOp, b: &SeqOp, by_arithmetic: Option<&str>| {
            let want = SeqOp::transform(a, b).unwrap().0;
            let (Some(mut flat), Body::Text(text)) = flatten(a.clone()) else {
                panic!("{a} edits one place");
            };
            let site = site(b).expect("b edits one place");
            assert_eq!(flat.ride(site), by_arithmetic.is_some(), "{a} / {b}");
            let got = flat.op(&text);
            assert_eq!(&got, if by_arithmetic.is_some() { &want } else { a });
            if let Some(shown) = by_arithmetic {
                assert_eq!(got.to_string(), shown);
            }
            let mut stack = OpStack::new(1);
            stack.push(a.clone());
            stack.ride(b).unwrap();
            assert_eq!(stack.pop(), Some(want));
        };
        let ins = |p, text: &str, len| SeqOp::from_pos(&PosOp::insert(p, text), len);
        let del = |p, n: usize, len| SeqOp::from_pos(&PosOp::delete(p, "x".repeat(n)), len);
        let a = op(|o| {
            o.retain(2).delete(1).retain(3);
        });
        // A site strictly inside a retain, either side of the delete.
        case(&a, &ins(1, "éλ", 6), Some("⟨R4 D1 R3⟩"));
        case(&a, &del(4, 2, 6), Some("⟨R2 D1 R1⟩"));
        // An insert point at the end of a retain that a delete follows
        // extends that retain; a deleted range there touches the delete.
        case(&a, &ins(2, "x", 6), Some("⟨R3 D1 R3⟩"));
        case(&a, &del(2, 1, 6), None);
        case(&a, &del(1, 2, 6), None);
        // A retain may shrink, or vanish: its neighbours keep their order.
        case(&a, &del(0, 2, 6), Some("⟨D1 R3⟩"));
        case(&a, &del(3, 3, 6), Some("⟨R2 D1⟩"));
        case(&a, &del(0, 1, 6), Some("⟨R1 D1 R3⟩"));
        let replace_all_of_first = op(|o| {
            o.insert("yz").delete(2).retain(4);
        });
        case(&a, &replace_all_of_first, Some("⟨R2 D1 R3⟩"));
        // The entry's insert at the site goes first, so the site belongs
        // to the retain after it; with no retain there, it is a new
        // component.
        let a = op(|o| {
            o.retain(2).insert("a").retain(2);
        });
        case(&a, &ins(2, "x", 4), Some("⟨R2 I\"a\" R3⟩"));
        case(&a, &del(2, 1, 4), Some("⟨R2 I\"a\" R1⟩"));
        case(&a, &del(1, 1, 4), Some("⟨R1 I\"a\" R2⟩"));
        case(&a, &del(1, 2, 4), None);
        let a = op(|o| {
            o.retain(2).insert("a").delete(2);
        });
        case(&a, &ins(2, "x", 4), None);
        case(&a, &ins(4, "x", 4), None);
        let a = op(|o| {
            o.retain(4).insert("a");
        });
        case(&a, &ins(4, "x", 4), None);
        // An insert point at the very end extends a trailing retain, and an
        // entry that edits nothing is one retain.
        case(&SeqOp::identity(4), &ins(4, "x", 4), Some("⟨R5⟩"));
        case(&SeqOp::identity(4), &del(0, 4, 4), Some("⟨⟩"));
        case(&SeqOp::new(), &ins(0, "x", 0), None);
        // Two sites are not a site.
        let two = op(|o| {
            o.delete(1).retain(1).insert("x").retain(2);
        });
        assert!(site(&two).is_none());
        assert!(matches!(flatten(two), (None, Body::Op(_))));
    }

    /// A length past the shape's integers is held whole, and a ride whose
    /// result would not fit falls back to the transform.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn lengths_past_u32_are_held_whole() {
        let big = u32::MAX as usize;
        assert!(flatten(SeqOp::identity(big + 1)).0.is_none());
        let mut stack = OpStack::new(2);
        stack.push(SeqOp::identity(big));
        let b = SeqOp::from_pos(&PosOp::insert(0, "x"), big);
        stack.ride(&b).unwrap();
        assert!(stack.shapes[0].is_none());
        assert_eq!(stack.pop(), Some(SeqOp::identity(big + 1)));
    }

    /// What a ride walks per entry (DESIGN §11 quotes it).
    #[test]
    fn a_shape_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Option<Flat>>(), 16);
    }

    #[test]
    fn depth_drops_the_oldest_entry() {
        let mut stack = OpStack::new(2);
        for n in 0..3 {
            stack.push(SeqOp::identity(n));
        }
        assert_eq!(stack.pop(), Some(SeqOp::identity(2)));
        assert_eq!(stack.pop(), Some(SeqOp::identity(1)));
        assert_eq!(stack.pop(), None);
    }
}
