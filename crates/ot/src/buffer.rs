//! The shared-document substrate: a gap buffer over `char`s.
//!
//! Every replica (client sites, the notifier, and the fully-distributed
//! baseline sites) holds one of these. Positions throughout the workspace
//! are *character* indices, matching the paper's `Insert["12", 1]` /
//! `Delete[3, 2]` notation.
//!
//! A gap buffer gives O(1) amortised edits at or near the cursor — the
//! dominant pattern of real editing sessions (and of our workload
//! generator's typing bursts) — while staying simple enough to audit.

use crate::pos::ApplyError;
use std::fmt;

/// Default gap capacity reserved when the gap is exhausted.
const GAP_CHUNK: usize = 64;

/// A gap buffer of `char`s.
///
/// Invariant: `text = pre ++ post` where `pre` is `store[..gap_start]` and
/// `post` is `store[gap_end..]`.
#[derive(Clone)]
pub struct TextBuffer {
    store: Vec<char>,
    gap_start: usize,
    gap_end: usize,
}

impl TextBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        TextBuffer {
            store: Vec::new(),
            gap_start: 0,
            gap_end: 0,
        }
    }

    /// A buffer initialised with `text`.
    #[allow(clippy::should_implement_trait)] // infallible, unlike FromStr
    pub fn from_str(text: &str) -> Self {
        let mut b = TextBuffer::new();
        b.insert_str(0, text);
        b
    }

    /// Number of characters.
    #[inline]
    pub fn len(&self) -> usize {
        self.store.len() - (self.gap_end - self.gap_start)
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
        if pos < self.gap_start {
            self.store[pos]
        } else {
            self.store[pos + (self.gap_end - self.gap_start)]
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
    fn halves(&self) -> (&[char], &[char]) {
        (&self.store[..self.gap_start], &self.store[self.gap_end..])
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
        self.store.resize(self.store.len() + grow, '\0');
        // Move the tail to the end of the grown store.
        self.store
            .copy_within(old_end..old_end + tail_len, old_end + grow);
        self.gap_end += grow;
    }

    /// Insert `text` so its first character lands at position `pos`,
    /// returning [`ApplyError::OutOfBounds`] when `pos > len()` instead of
    /// panicking — the right entry point for positions derived from remote
    /// or otherwise untrusted input.
    pub fn try_insert_str(&mut self, pos: usize, text: &str) -> Result<(), ApplyError> {
        if pos > self.len() {
            return Err(ApplyError::OutOfBounds {
                pos,
                len: text.chars().count(),
                doc_len: self.len(),
            });
        }
        let count = text.chars().count();
        self.move_gap(pos);
        self.reserve_gap(count);
        for c in text.chars() {
            self.store[self.gap_start] = c;
            self.gap_start += 1;
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
        self.move_gap(pos);
        let removed: String = self.store[self.gap_end..self.gap_end + count]
            .iter()
            .collect();
        self.gap_end += count;
        Ok(removed)
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
        self.move_gap(pos);
        self.gap_end += count;
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
        let (pre, post) = self.halves();
        let (end, cut) = (pos + count, pre.len());
        let before_gap = &pre[pos.min(cut)..end.min(cut)];
        let after_gap = &post[pos.max(cut) - cut..end.max(cut) - cut];
        before_gap.iter().chain(after_gap).collect()
    }

    /// FNV-1a hash of the content — cheap convergence fingerprint for
    /// comparing replicas without materialising strings.
    pub fn checksum(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |c: char| {
            let mut buf = [0u8; 4];
            for &b in c.encode_utf8(&mut buf).as_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        let (pre, post) = self.halves();
        pre.iter().chain(post).copied().for_each(&mut eat);
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
        let (pre, post) = self.halves();
        pre.iter().chain(post).try_for_each(|c| write!(f, "{c}"))
    }
}

impl fmt::Debug for TextBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TextBuffer({:?})", self.to_string())
    }
}

impl PartialEq for TextBuffer {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.halves(), other.halves());
        self.len() == other.len() && a.0.iter().chain(a.1).eq(b.0.iter().chain(b.1))
    }
}

impl Eq for TextBuffer {}

#[cfg(test)]
mod tests {
    use super::*;

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
        b.move_gap(3);
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
        a.move_gap(4); // different internal layout
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
