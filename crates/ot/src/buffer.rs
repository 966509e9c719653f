//! The shared-document substrate: a gap buffer of one byte per character
//! until a character needs more.
//!
//! Every replica (client sites, the notifier, and the fully-distributed
//! baseline sites) holds one of these. Positions throughout the workspace
//! are *character* indices (Unicode scalar values), matching the paper's
//! `Insert["12", 1]` / `Delete[3, 2]` notation.
//!
//! A gap buffer gives O(1) amortised edits at or near the cursor — the
//! dominant pattern of real editing sessions (and of our workload
//! generator's typing bursts) — while staying simple enough to audit.
//!
//! **Narrow, then wide.** A buffer starts *narrow*: one `u8` per
//! character, which holds every scalar up to U+00FF (ASCII and Latin-1,
//! whose scalars are their own byte values). The first insert of a wider
//! scalar *widens* it: the whole store is copied once into one `char` per
//! character, gap and all, and the buffer stays wide. It never narrows
//! back: knowing that the last wide scalar left would cost a scan (or a
//! count) on every delete, and a document that held one is likely to get
//! another, which would copy the store again. Either way the text, the
//! positions, the errors and [`TextBuffer::checksum`] are the same; only
//! the bytes a replica holds and a gap move copies differ (4× fewer
//! narrow).

use crate::pos::ApplyError;
use std::fmt;

/// Default gap capacity reserved when the gap is exhausted.
const GAP_CHUNK: usize = 64;

/// A gap buffer's element: a narrow `u8` (a scalar ≤ U+00FF) or a `char`.
trait Elem: Copy + Default + Into<char> {}
impl Elem for u8 {}
impl Elem for char {}

/// A run of elements as a `String`.
fn text<T: Elem>(run: &[T]) -> String {
    run.iter().map(|&x| x.into()).collect()
}

/// A gap buffer of `T`s.
///
/// Invariant: `text = pre ++ post` where `pre` is `store[..gap_start]` and
/// `post` is `store[gap_end..]`.
#[derive(Clone, Default)]
struct Gap<T> {
    store: Vec<T>,
    gap_start: usize,
    gap_end: usize,
}

impl<T: Elem> Gap<T> {
    fn len(&self) -> usize {
        self.store.len() - (self.gap_end - self.gap_start)
    }

    fn at(&self, pos: usize) -> char {
        if pos < self.gap_start {
            self.store[pos].into()
        } else {
            self.store[pos + (self.gap_end - self.gap_start)].into()
        }
    }

    /// Move the gap so it starts at `pos`: the characters between the old
    /// and the new gap start cross the gap in one `memmove`.
    fn move_gap(&mut self, pos: usize) {
        debug_assert!(pos <= self.len());
        let gap_len = self.gap_end - self.gap_start;
        if pos < self.gap_start {
            self.store.copy_within(pos..self.gap_start, pos + gap_len);
        } else {
            self.store
                .copy_within(self.gap_end..pos + gap_len, self.gap_start);
        }
        self.gap_start = pos;
        self.gap_end = pos + gap_len;
    }

    /// The content as its two contiguous runs: before and after the gap.
    fn halves(&self) -> (&[T], &[T]) {
        (&self.store[..self.gap_start], &self.store[self.gap_end..])
    }

    /// The content's characters in order.
    fn chars(&self) -> impl Iterator<Item = char> + '_ {
        let (pre, post) = self.halves();
        pre.iter().chain(post).map(|&x| x.into())
    }

    /// Ensure the gap can hold at least `need` more characters.
    fn reserve_gap(&mut self, need: usize) {
        let gap_len = self.gap_end - self.gap_start;
        if gap_len >= need {
            return;
        }
        let grow = (need - gap_len).max(GAP_CHUNK);
        let old_end = self.gap_end;
        let tail_len = self.store.len() - old_end;
        self.store.resize(self.store.len() + grow, T::default());
        // Move the tail to the end of the grown store.
        self.store
            .copy_within(old_end..old_end + tail_len, old_end + grow);
        self.gap_end += grow;
    }

    /// Open `count` places at `pos` and let `fill` write them.
    fn insert_with(&mut self, pos: usize, count: usize, fill: impl FnOnce(&mut [T])) {
        self.move_gap(pos);
        self.reserve_gap(count);
        fill(&mut self.store[self.gap_start..self.gap_start + count]);
        self.gap_start += count;
    }

    /// Remove the `count` characters at `pos`; they stay readable, now
    /// inside the gap, until the next edit.
    fn remove(&mut self, pos: usize, count: usize) -> &[T] {
        self.move_gap(pos);
        self.gap_end += count;
        &self.store[self.gap_end - count..self.gap_end]
    }

    /// The `count` characters starting at `pos`.
    fn slice(&self, pos: usize, count: usize) -> String {
        let (pre, post) = self.halves();
        let (end, cut) = (pos + count, pre.len());
        let before_gap = &pre[pos.min(cut)..end.min(cut)];
        let after_gap = &post[pos.max(cut) - cut..end.max(cut) - cut];
        before_gap
            .iter()
            .chain(after_gap)
            .map(|&x| x.into())
            .collect()
    }
}

impl Gap<u8> {
    /// The same text one `char` per character, gap where it was.
    fn widen(&self) -> Gap<char> {
        Gap {
            store: self.store.iter().map(|&b| char::from(b)).collect(),
            gap_start: self.gap_start,
            gap_end: self.gap_end,
        }
    }
}

/// The store: narrow while every character is ≤ U+00FF, then wide.
#[derive(Clone)]
enum Store {
    Narrow(Gap<u8>),
    Wide(Gap<char>),
}

/// A gap buffer of characters, one byte each until a character above
/// U+00FF arrives (module docs).
#[derive(Clone)]
pub struct TextBuffer {
    store: Store,
}

/// Run `$body` with `$g` bound to the store's gap buffer, narrow or wide.
macro_rules! with_gap {
    ($store:expr, $g:ident => $body:expr) => {
        match $store {
            Store::Narrow($g) => $body,
            Store::Wide($g) => $body,
        }
    };
}

impl TextBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        TextBuffer {
            store: Store::Narrow(Gap::default()),
        }
    }

    /// A buffer initialised with `text`: narrow when every character of
    /// `text` is ≤ U+00FF.
    #[allow(clippy::should_implement_trait)] // infallible, unlike FromStr
    pub fn from_str(text: &str) -> Self {
        let mut b = TextBuffer::new();
        b.insert_str(0, text);
        b
    }

    /// Number of characters.
    #[inline]
    pub fn len(&self) -> usize {
        with_gap!(&self.store, g => g.len())
    }

    /// True if the buffer holds no characters.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Character at position `pos`.
    ///
    /// # Panics
    /// Panics if `pos >= len()`.
    pub fn char_at(&self, pos: usize) -> char {
        assert!(
            pos < self.len(),
            "char_at({pos}) out of bounds ({})",
            self.len()
        );
        with_gap!(&self.store, g => g.at(pos))
    }

    /// Insert `text` so its first character lands at position `pos`,
    /// returning [`ApplyError::OutOfBounds`] when `pos > len()` instead of
    /// panicking — the right entry point for positions derived from remote
    /// or otherwise untrusted input. A character above U+00FF widens a
    /// narrow buffer first.
    pub fn try_insert_str(&mut self, pos: usize, text: &str) -> Result<(), ApplyError> {
        let count = text.chars().count();
        if pos > self.len() {
            return Err(ApplyError::OutOfBounds {
                pos,
                len: count,
                doc_len: self.len(),
            });
        }
        let ascii = text.is_ascii();
        if let Store::Narrow(g) = &self.store {
            if !ascii && !text.chars().all(|c| u8::try_from(c).is_ok()) {
                self.store = Store::Wide(g.widen());
            }
        }
        match &mut self.store {
            Store::Narrow(g) if ascii => {
                g.insert_with(pos, count, |at| at.copy_from_slice(text.as_bytes()))
            }
            Store::Narrow(g) => g.insert_with(pos, count, |at| {
                for (slot, c) in at.iter_mut().zip(text.chars()) {
                    *slot = u8::try_from(c).expect("≤ U+00FF, checked above");
                }
            }),
            Store::Wide(g) => g.insert_with(pos, count, |at| {
                for (slot, c) in at.iter_mut().zip(text.chars()) {
                    *slot = c;
                }
            }),
        }
        Ok(())
    }

    /// Insert `text` so its first character lands at position `pos`.
    ///
    /// # Panics
    /// Panics if `pos > len()`. Use [`TextBuffer::try_insert_str`] for
    /// untrusted positions.
    pub fn insert_str(&mut self, pos: usize, text: &str) {
        self.try_insert_str(pos, text)
            .expect("insert position beyond length");
    }

    /// Delete `count` characters starting at `pos`, returning them —
    /// or [`ApplyError::OutOfBounds`] when the range exceeds `len()`.
    pub fn try_delete_range(&mut self, pos: usize, count: usize) -> Result<String, ApplyError> {
        if pos + count > self.len() {
            return Err(ApplyError::OutOfBounds {
                pos,
                len: count,
                doc_len: self.len(),
            });
        }
        Ok(with_gap!(&mut self.store, g => text(g.remove(pos, count))))
    }

    /// Delete `count` characters starting at `pos`, returning them.
    ///
    /// # Panics
    /// Panics if `pos + count > len()`. Use
    /// [`TextBuffer::try_delete_range`] for untrusted positions.
    pub fn delete_range(&mut self, pos: usize, count: usize) -> String {
        self.try_delete_range(pos, count)
            .expect("delete range beyond length")
    }

    /// Delete `count` characters starting at `pos`, discarding them — the
    /// allocation-free twin of [`TextBuffer::try_delete_range`] for
    /// callers that do not need the removed text (the hot transform path).
    pub fn try_remove_range(&mut self, pos: usize, count: usize) -> Result<(), ApplyError> {
        if pos + count > self.len() {
            return Err(ApplyError::OutOfBounds {
                pos,
                len: count,
                doc_len: self.len(),
            });
        }
        with_gap!(&mut self.store, g => {
            g.remove(pos, count);
        });
        Ok(())
    }

    /// Delete `count` characters starting at `pos`, discarding them.
    ///
    /// # Panics
    /// Panics if `pos + count > len()`. Use
    /// [`TextBuffer::try_remove_range`] for untrusted positions.
    pub fn remove_range(&mut self, pos: usize, count: usize) {
        self.try_remove_range(pos, count)
            .expect("delete range beyond length")
    }

    /// The `count` characters starting at `pos`, without removing them.
    pub fn slice(&self, pos: usize, count: usize) -> String {
        assert!(pos + count <= self.len());
        with_gap!(&self.store, g => g.slice(pos, count))
    }

    /// FNV-1a hash of the content's UTF-8 — cheap convergence fingerprint
    /// for comparing replicas without materialising strings. A narrow
    /// byte is hashed as its one (ASCII) or two UTF-8 bytes, so a narrow
    /// and a wide buffer of one text hash alike.
    pub fn checksum(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        };
        match &self.store {
            Store::Narrow(g) => {
                let (pre, post) = g.halves();
                for &b in pre.iter().chain(post) {
                    if b.is_ascii() {
                        eat(b);
                    } else {
                        eat(0xC0 | b >> 6);
                        eat(0x80 | b & 0x3F);
                    }
                }
            }
            Store::Wide(g) => {
                let mut buf = [0u8; 4];
                for c in g.chars() {
                    c.encode_utf8(&mut buf).bytes().for_each(&mut eat);
                }
            }
        }
        h
    }
}

impl Default for TextBuffer {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for TextBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Whole runs, not one write per character: a log snapshot copies
        // the whole document. An ASCII half is already UTF-8.
        match &self.store {
            Store::Narrow(g) => {
                let (pre, post) = g.halves();
                for half in [pre, post] {
                    match half.is_ascii().then(|| std::str::from_utf8(half)) {
                        Some(Ok(ascii)) => f.write_str(ascii)?,
                        _ => f.write_str(&text(half))?,
                    }
                }
                Ok(())
            }
            Store::Wide(g) => f.write_str(&g.chars().collect::<String>()),
        }
    }
}

impl fmt::Debug for TextBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TextBuffer({:?})", self.to_string())
    }
}

impl PartialEq for TextBuffer {
    fn eq(&self, other: &Self) -> bool {
        // A narrow and a wide buffer of one text are equal.
        self.len() == other.len()
            && with_gap!(&self.store, a => with_gap!(&other.store, b => a.chars().eq(b.chars())))
    }
}

impl Eq for TextBuffer {}

#[cfg(test)]
mod tests {
    use super::*;

    fn move_gap(b: &mut TextBuffer, pos: usize) {
        with_gap!(&mut b.store, g => g.move_gap(pos))
    }

    /// The store's heap footprint in bytes, and whether it is narrow.
    fn store_bytes(b: &TextBuffer) -> (usize, bool) {
        match &b.store {
            Store::Narrow(g) => (g.store.capacity(), true),
            Store::Wide(g) => (g.store.capacity() * std::mem::size_of::<char>(), false),
        }
    }

    #[test]
    fn insert_and_render() {
        let mut b = TextBuffer::new();
        b.insert_str(0, "ABCDE");
        assert_eq!(b.to_string(), "ABCDE");
        assert_eq!(b.len(), 5);
        // The paper's intention example: insert "12" at position 1.
        b.insert_str(1, "12");
        assert_eq!(b.to_string(), "A12BCDE");
    }

    #[test]
    fn delete_returns_removed_text() {
        let mut b = TextBuffer::from_str("ABCDE");
        // The paper's O2 = Delete[3, 2]: three chars from position 2.
        let removed = b.delete_range(2, 3);
        assert_eq!(removed, "CDE");
        assert_eq!(b.to_string(), "AB");
    }

    #[test]
    fn intention_preserved_result_from_paper() {
        // O1 then transformed O2' = Delete[3,4] yields "A12B".
        let mut b = TextBuffer::from_str("ABCDE");
        b.insert_str(1, "12");
        let removed = b.delete_range(4, 3);
        assert_eq!(removed, "CDE");
        assert_eq!(b.to_string(), "A12B");
    }

    #[test]
    fn gap_movement_back_and_forth() {
        let mut b = TextBuffer::from_str("hello world");
        b.insert_str(5, ",");
        b.insert_str(0, ">> ");
        b.insert_str(b.len(), " <<");
        assert_eq!(b.to_string(), ">> hello, world <<");
        let mid = b.delete_range(3, 6);
        assert_eq!(mid, "hello,");
        assert_eq!(b.to_string(), ">>  world <<");
    }

    #[test]
    fn char_at_spans_the_gap() {
        let mut b = TextBuffer::from_str("abcdef");
        move_gap(&mut b, 3);
        assert_eq!(b.char_at(0), 'a');
        assert_eq!(b.char_at(2), 'c');
        assert_eq!(b.char_at(3), 'd');
        assert_eq!(b.char_at(5), 'f');
    }

    #[test]
    fn remove_range_discards_without_allocating_text() {
        let mut b = TextBuffer::from_str("ABCDE");
        b.remove_range(2, 3);
        assert_eq!(b.to_string(), "AB");
        assert_eq!(b.len(), 2);
        let mut c = TextBuffer::from_str("ABCDE");
        let _ = c.delete_range(2, 3);
        assert_eq!(b, c);
        assert_eq!(b.checksum(), c.checksum());
    }

    #[test]
    fn slice_reads_without_mutating() {
        let b = TextBuffer::from_str("ABCDE");
        assert_eq!(b.slice(1, 3), "BCD");
        assert_eq!(b.to_string(), "ABCDE");
    }

    #[test]
    fn checksum_tracks_content_not_gap_position() {
        let mut a = TextBuffer::from_str("same text");
        let b = TextBuffer::from_str("same text");
        move_gap(&mut a, 4); // different internal layout
        assert_eq!(a.checksum(), b.checksum());
        assert_eq!(a, b);
        a.insert_str(0, "x");
        assert_ne!(a.checksum(), b.checksum());
        assert_ne!(a, b);
    }

    #[test]
    fn unicode_characters_count_as_one_position() {
        let mut b = TextBuffer::from_str("héllo");
        assert_eq!(b.len(), 5);
        assert_eq!(b.char_at(1), 'é');
        b.insert_str(2, "←→");
        assert_eq!(b.to_string(), "hé←→llo");
        assert_eq!(b.delete_range(2, 2), "←→");
    }

    /// The benchmark's prefill: 4 096 one-character inserts, mostly at a
    /// typing caret. One byte a character, so the store (gap included)
    /// stays within 8 KiB; at four bytes a character it was 16 KiB.
    #[test]
    fn an_ascii_document_costs_a_byte_per_character() {
        let mut b = TextBuffer::new();
        let (mut caret, mut state) = (0usize, 0x9e37_79b9_u32);
        for i in 0..4_096 {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            if state % 50 == 0 {
                caret = state as usize % (b.len() + 1);
            }
            b.insert_str(caret, &char::from(b'a' + (i % 26) as u8).to_string());
            caret += 1;
        }
        assert_eq!(b.len(), 4_096);
        let (bytes, narrow) = store_bytes(&b);
        assert!(narrow);
        assert!(bytes <= 8 * 1024, "store holds {bytes} B");
    }

    #[test]
    fn a_wide_scalar_widens_once_and_keeps_the_text() {
        let mut b = TextBuffer::from_str("naïve ÿ");
        assert!(store_bytes(&b).1, "Latin-1 stays narrow");
        let narrow_sum = b.checksum();
        assert_eq!(narrow_sum, TextBuffer::from_str("naïve ÿ").checksum());
        move_gap(&mut b, 3);
        b.insert_str(5, "中😀");
        assert!(!store_bytes(&b).1);
        assert_eq!(b.to_string(), "naïve中😀 ÿ");
        assert_eq!(b.char_at(2), 'ï');
        assert_eq!(b.delete_range(5, 2), "中😀");
        // Wide for good, and equal to the narrow buffer of the same text.
        assert!(!store_bytes(&b).1);
        let narrow = TextBuffer::from_str("naïve ÿ");
        assert_eq!(b, narrow);
        assert_eq!(narrow, b);
        assert_eq!(b.checksum(), narrow_sum);
        assert_eq!(b.slice(1, 4), "aïve");
    }

    #[test]
    fn many_random_edits_match_reference_string() {
        // Deterministic pseudo-random edit storm cross-checked against a
        // plain String reference implementation.
        let mut buf = TextBuffer::new();
        let mut reference = String::new();
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..2000 {
            let len = reference.chars().count();
            if len == 0 || next() % 3 != 0 {
                let pos = (next() as usize) % (len + 1);
                let text = format!("{}", i % 10);
                buf.insert_str(pos, &text);
                let byte_pos = reference
                    .char_indices()
                    .nth(pos)
                    .map_or(reference.len(), |(b, _)| b);
                reference.insert_str(byte_pos, &text);
            } else {
                let pos = (next() as usize) % len;
                let count = 1 + (next() as usize) % (len - pos).min(5);
                let got = buf.delete_range(pos, count);
                let start = reference
                    .char_indices()
                    .nth(pos)
                    .map_or(reference.len(), |(b, _)| b);
                let end = reference
                    .char_indices()
                    .nth(pos + count)
                    .map_or(reference.len(), |(b, _)| b);
                let expect: String = reference.drain(start..end).collect();
                assert_eq!(got, expect);
            }
            assert_eq!(buf.to_string(), reference, "diverged at step {i}");
        }
    }

    #[test]
    #[should_panic(expected = "beyond length")]
    fn insert_out_of_bounds_panics() {
        let mut b = TextBuffer::from_str("ab");
        b.insert_str(3, "x");
    }

    #[test]
    #[should_panic(expected = "beyond length")]
    fn delete_out_of_bounds_panics() {
        let mut b = TextBuffer::from_str("ab");
        b.delete_range(1, 2);
    }

    /// Regression: out-of-range positions must surface as the crate's
    /// position-out-of-bounds error through the fallible twins, never as
    /// a panic, and a rejected edit must leave the buffer untouched.
    #[test]
    fn out_of_bounds_edits_return_errors_not_panics() {
        let mut b = TextBuffer::from_str("ab");
        assert_eq!(
            b.try_insert_str(3, "x"),
            Err(ApplyError::OutOfBounds {
                pos: 3,
                len: 1,
                doc_len: 2
            })
        );
        assert_eq!(
            b.try_delete_range(1, 2),
            Err(ApplyError::OutOfBounds {
                pos: 1,
                len: 2,
                doc_len: 2
            })
        );
        assert_eq!(
            b.try_remove_range(2, 1),
            Err(ApplyError::OutOfBounds {
                pos: 2,
                len: 1,
                doc_len: 2
            })
        );
        // A rejected edit is a no-op; valid edits still work afterwards.
        assert_eq!(b.to_string(), "ab");
        assert_eq!(b.try_insert_str(2, "c"), Ok(()));
        assert_eq!(b.try_delete_range(0, 1), Ok("a".into()));
        assert_eq!(b.to_string(), "bc");
    }
}
