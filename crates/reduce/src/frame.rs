//! The one frame codec: `[len varint][checksum u32 LE][payload bytes]`.
//!
//! The TCP stream and the write-ahead log ([`crate::wal`]) both go
//! through this module, so "this record arrived intact" has one
//! definition. [`split_frame`] is the one parser, with two
//! drivers: [`FrameReader`] buffers a socket's bytes under
//! [`MAX_FRAME_BYTES`], and [`crate::wal::Wal::recover`] loops over a log
//! image under the image's own length (a snapshot record carries the
//! whole document) and decides there which errors are a torn tail.
//!
//! The hostile shapes are the wire-codec battery's: **partial frames**
//! and **torn varints** are "need more" (a length varint never past 10
//! bytes), and a **hostile length** is rejected against the cap in the
//! `u64` domain before any buffering commitment, so a 32-bit `usize` can
//! never truncate it into a plausible value. The checksum is four fixed
//! bytes: a frame's length does not depend on its payload's hash, and no
//! header can claim a checksum wider than 32 bits. On TCP the checksum is
//! not defending against reordering; it catches a peer speaking a subtly
//! different framing, where a desynchronized length field would let
//! garbage parse as a plausible message.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use cvc_sim::wire::{put_varint, try_varint, varint_len};

/// Bytes of the frame header's checksum, after the length varint.
const CHECKSUM_BYTES: usize = 4;

/// Hard cap on one socket frame's payload bytes. A single editor message
/// is tens of bytes and a maximal compound batch a few KiB; a megabyte of
/// headroom means any larger claim is an attack or a desync, not traffic.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Why a byte sequence stopped being parseable as frames. Framing never
/// resynchronizes after a bad length or sum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix claimed more than the caller's cap.
    Oversized(u64),
    /// The length varint ran past 10 bytes or ended in a value no `u64`
    /// holds.
    TornVarint,
    /// The payload did not hash to the frame's checksum.
    BadChecksum {
        /// What the frame header claimed.
        claimed: u32,
        /// What the payload actually hashes to.
        actual: u32,
        /// Bytes the whole frame occupies, header included.
        framed: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized(n) => write!(f, "frame length {n} exceeds the cap"),
            FrameError::TornVarint => write!(f, "frame header varint is malformed"),
            FrameError::BadChecksum {
                claimed, actual, ..
            } => {
                write!(
                    f,
                    "frame checksum {claimed:#010x} != payload {actual:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming word-at-a-time frame checksum: 64-bit FNV-1a over the input
/// viewed as little-endian `u64` words (final partial word zero-padded),
/// with the byte length mixed in at the end (so `"a"` and `"a\0"` differ)
/// and the state folded to 32 bits.
///
/// One multiply per 8 bytes instead of one per byte — the checksum was a
/// visible slice of the reliable hot path once everything else in the
/// broadcast loop became O(1) per destination. Byte-at-a-time FNV-1a
/// cannot be widened without changing the function (xor does not
/// distribute over the modular multiply), so this *is* a different
/// checksum from the byte-wise one it replaced. Streaming over arbitrary
/// chunk boundaries yields the same value as one-shot over the
/// concatenation. Not cryptographic: an integrity check strong enough to
/// catch the simulator's injected bit-flips.
#[derive(Debug, Clone)]
pub struct FrameHasher {
    h: u64,
    /// Partial little-endian word, low bytes filled first.
    pending: u64,
    pending_len: u32,
    len: u64,
}

impl Default for FrameHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameHasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        FrameHasher {
            h: FNV64_OFFSET,
            pending: 0,
            pending_len: 0,
            len: 0,
        }
    }

    #[inline]
    fn mix(&mut self, w: u64) {
        self.h = (self.h ^ w).wrapping_mul(FNV64_PRIME);
    }

    /// Absorb `bytes`; chunk boundaries do not affect the result.
    pub fn update(&mut self, bytes: &[u8]) {
        self.len += bytes.len() as u64;
        let mut i = 0;
        while self.pending_len > 0 && self.pending_len < 8 && i < bytes.len() {
            self.pending |= u64::from(bytes[i]) << (8 * self.pending_len);
            self.pending_len += 1;
            i += 1;
        }
        if self.pending_len == 8 {
            let w = self.pending;
            self.mix(w);
            self.pending = 0;
            self.pending_len = 0;
        }
        let mut words = bytes[i..].chunks_exact(8);
        for w in &mut words {
            let mut word = [0u8; 8];
            word.copy_from_slice(w);
            self.mix(u64::from_le_bytes(word));
        }
        for &b in words.remainder() {
            self.pending |= u64::from(b) << (8 * self.pending_len);
            self.pending_len += 1;
        }
    }

    /// Zero-pad the trailing partial word, mix in the length, fold to 32
    /// bits.
    pub fn finish(mut self) -> u32 {
        if self.pending_len > 0 {
            let w = self.pending;
            self.mix(w);
        }
        let len = self.len;
        self.mix(len);
        (self.h ^ (self.h >> 32)) as u32
    }
}

/// [`FrameHasher`] over a sequence of byte runs (one pass, no copy).
pub fn frame_checksum(parts: &[&[u8]]) -> u32 {
    let mut h = FrameHasher::new();
    for p in parts {
        h.update(p);
    }
    h.finish()
}

/// Bytes a frame wrapping `payload_len` payload bytes occupies. The
/// checksum is four fixed bytes, so its value does not change the length;
/// the parameter keeps the callers' signature.
pub fn framed_len(payload_len: usize, _checksum: u32) -> usize {
    varint_len(payload_len as u64) + CHECKSUM_BYTES + payload_len
}

/// Append one frame wrapping the concatenation of `chunks` to `out`.
/// Chunked input is what the encode-once broadcast produces (a shared
/// body behind a per-destination head); the checksum is computed without
/// materializing the concatenation.
pub fn write_frame(out: &mut Vec<u8>, chunks: &[&[u8]]) {
    let len: usize = chunks.iter().map(|c| c.len()).sum();
    let sum = frame_checksum(chunks);
    out.reserve(framed_len(len, sum));
    put_varint(out, len as u64);
    out.extend_from_slice(&sum.to_le_bytes());
    for c in chunks {
        out.extend_from_slice(c);
    }
}

/// Split one frame off the front of `bytes`, claiming at most `cap`
/// payload bytes.
///
/// `Ok(Some((payload, consumed)))` — a whole frame whose checksum
/// verified, and the bytes it occupied. `Ok(None)` — the bytes end inside
/// the frame; more may complete it. `Err` — no continuation can make the
/// front of `bytes` a frame: a claim past `cap` (checked the moment the
/// length varint completes, before the checksum), a malformed length
/// varint, or a complete payload that fails its checksum (the error still
/// says how long the frame was).
pub fn split_frame(bytes: &[u8], cap: usize) -> Result<Option<(&[u8], usize)>, FrameError> {
    // Torn is "need more"; a value no `u64` holds is fatal.
    let Some((len, n_len)) = try_varint(bytes).map_err(|_| FrameError::TornVarint)? else {
        return Ok(None);
    };
    // Compared in u64, so a 2^32-straddling claim cannot wrap into
    // plausibility on a 32-bit target.
    if len > cap as u64 {
        return Err(FrameError::Oversized(len));
    }
    let header = n_len + CHECKSUM_BYTES;
    let Some(&[a, b, c, d]) = bytes.get(n_len..header) else {
        return Ok(None);
    };
    let claimed = u32::from_le_bytes([a, b, c, d]);
    // `len <= cap`, so the cast is exact; a sum past `usize` is a frame
    // no slice holds, which `get` reports as "need more".
    let framed = header.saturating_add(len as usize);
    let Some(payload) = bytes.get(header..framed) else {
        return Ok(None);
    };
    let actual = frame_checksum(&[payload]);
    if actual != claimed {
        return Err(FrameError::BadChecksum {
            claimed,
            actual,
            framed,
        });
    }
    Ok(Some((payload, framed)))
}

/// Incremental frame reassembly over a byte stream: [`split_frame`] under
/// [`MAX_FRAME_BYTES`], plus a buffer and a sticky error.
///
/// Feed raw read fragments with [`FrameReader::extend`]; pull complete,
/// checksum-verified payloads with [`FrameReader::next_frame`]. The
/// internal buffer is compacted lazily so a long-lived connection does
/// not grow without bound.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted away once large).
    start: usize,
    /// Set once the stream has produced a fatal framing error.
    poisoned: Option<FrameError>,
}

impl FrameReader {
    /// A fresh reader with an empty buffer.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Append raw bytes read from the stream.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Try to extract the next complete frame's payload.
    ///
    /// `Ok(Some(payload))` — a full frame was reassembled and its checksum
    /// verified. `Ok(None)` — the buffer holds only a partial frame (or a
    /// torn varint); read more and call again. `Err` — the stream is
    /// unrecoverable (hostile length, torn-beyond-repair varint, checksum
    /// mismatch); the error repeats on every later call, the connection
    /// must close.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        let (payload, consumed) = match split_frame(&self.buf[self.start..], MAX_FRAME_BYTES) {
            Ok(Some((payload, consumed))) => (payload.to_vec(), consumed),
            Ok(None) => return Ok(None),
            Err(e) => {
                self.poisoned = Some(e.clone());
                return Err(e);
            }
        };
        self.start += consumed;
        // Rewind once everything is consumed (the common case: a read
        // ends on a frame boundary); otherwise compact once the dead
        // prefix dominates, amortized O(1)/byte.
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(payload))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, &[payload]);
        out
    }

    #[test]
    fn frame_hasher_is_split_invariant() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        let one_shot = frame_checksum(&[&data]);
        for split in [0, 1, 7, 8, 9, 63, 500, 999, 1000] {
            let (a, b) = data.split_at(split);
            assert_eq!(frame_checksum(&[a, b]), one_shot, "split at {split}");
            let mut h = FrameHasher::new();
            h.update(a);
            h.update(b);
            assert_eq!(h.finish(), one_shot, "streamed split at {split}");
        }
    }

    #[test]
    fn frame_hasher_mixes_length_and_order() {
        // Same bytes, different boundaries, must collide (split-invariant);
        // different content or length must not (these vectors, at least).
        assert_ne!(frame_checksum(&[b"ab"]), frame_checksum(&[b"ba"]));
        assert_ne!(frame_checksum(&[b"a"]), frame_checksum(&[b"a\0"]));
        assert_ne!(frame_checksum(&[b""]), frame_checksum(&[b"\0"]));
    }

    #[test]
    fn whole_frame_round_trips() {
        let mut r = FrameReader::new();
        r.extend(&frame(b"hello"));
        assert_eq!(r.next_frame().unwrap(), Some(b"hello".to_vec()));
        assert_eq!(r.next_frame().unwrap(), None);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn chunked_write_matches_flat_write() {
        let mut flat = Vec::new();
        write_frame(&mut flat, &[b"abcdef"]);
        let mut split = Vec::new();
        write_frame(&mut split, &[b"ab", b"", b"cdef"]);
        assert_eq!(flat, split);
        assert_eq!(flat.len(), framed_len(6, frame_checksum(&[b"abcdef"])));
    }

    #[test]
    fn byte_by_byte_delivery_reassembles() {
        let payloads: [&[u8]; 3] = [b"one", b"", b"three-is-a-longer-payload"];
        let mut stream = Vec::new();
        for p in payloads {
            write_frame(&mut stream, &[p]);
        }
        let mut r = FrameReader::new();
        let mut got = Vec::new();
        for &b in &stream {
            r.extend(&[b]);
            while let Some(p) = r.next_frame().unwrap() {
                got.push(p);
            }
        }
        assert_eq!(got, payloads.iter().map(|p| p.to_vec()).collect::<Vec<_>>());
    }

    #[test]
    fn torn_varint_waits_then_rejects_overlong() {
        let mut r = FrameReader::new();
        // Continuation bytes only: torn, keep waiting…
        for _ in 0..9 {
            r.extend(&[0x80]);
            assert_eq!(r.next_frame().unwrap(), None);
        }
        // …until the 10th byte still hasn't terminated: fatal.
        r.extend(&[0x80]);
        assert_eq!(r.next_frame(), Err(FrameError::TornVarint));
        // Poisoned: the error is sticky.
        assert_eq!(r.next_frame(), Err(FrameError::TornVarint));
    }

    #[test]
    fn overlong_terminating_tenth_byte_rejected() {
        // Nine continuation bytes then a terminator with bits above u64
        // bit 63: the encoding ends, but no u64 holds the value. It must
        // error, never silently truncate to the low bit.
        for tenth in [0x02u8, 0x40, 0x7f] {
            let mut r = FrameReader::new();
            r.extend(&[0x80; 9]);
            assert_eq!(r.next_frame().unwrap(), None, "still torn at 9 bytes");
            r.extend(&[tenth]);
            assert_eq!(r.next_frame(), Err(FrameError::TornVarint));
        }
    }

    #[test]
    fn maximal_ten_byte_varint_still_parses() {
        // u64::MAX is the one legitimate 10-byte encoding shape; it must
        // survive the overlong gate and then fail only the length cap.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, u64::MAX);
        assert_eq!(bytes.len(), 10);
        let mut r = FrameReader::new();
        r.extend(&bytes);
        assert_eq!(r.next_frame(), Err(FrameError::Oversized(u64::MAX)));
    }

    #[test]
    fn hostile_length_rejected_before_buffering() {
        for claim in [
            MAX_FRAME_BYTES as u64 + 1,
            (1u64 << 32) + 5, // truncates to 5 on 32-bit usize
            u64::MAX,
        ] {
            let mut bytes = Vec::new();
            put_varint(&mut bytes, claim);
            let mut r = FrameReader::new();
            r.extend(&bytes);
            assert_eq!(r.next_frame(), Err(FrameError::Oversized(claim)));
        }
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut bytes = frame(b"payload");
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let mut r = FrameReader::new();
        r.extend(&bytes);
        assert!(matches!(
            r.next_frame(),
            Err(FrameError::BadChecksum { framed, .. }) if framed == bytes.len()
        ));
    }

    #[test]
    fn long_stream_compacts_buffer() {
        let mut r = FrameReader::new();
        let f = frame(&[7u8; 512]);
        for _ in 0..64 {
            r.extend(&f);
            while let Some(p) = r.next_frame().unwrap() {
                assert_eq!(p.len(), 512);
            }
        }
        assert_eq!(r.buffered(), 0);
        assert!(r.buf.len() < 8 * f.len(), "dead prefix must be compacted");
    }
}
