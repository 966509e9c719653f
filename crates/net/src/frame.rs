//! TCP stream framing and incremental reassembly.
//!
//! A frame on the socket is `[len varint][checksum varint][payload bytes]`
//! (the checksum is the reliable layer's word-wise [`frame_checksum`])
//! — the WAL's record discipline applied to the stream. TCP already
//! guarantees ordered bytes, so the checksum is not defending against
//! reordering; it catches the failure mode real deployments actually see:
//! a peer (or a middlebox) speaking a subtly different framing, where a
//! desynchronized length field would otherwise let garbage parse as a
//! plausible message.
//!
//! [`FrameReader`] reassembles frames from arbitrary read fragments. The
//! three hostile shapes it must survive are exactly the wire-codec
//! battery's: **partial frames** (payload split across reads — buffer and
//! wait), **torn varints** (a length prefix itself split mid-byte —
//! indistinguishable from "need more" until the continuation bit clears,
//! so also buffer and wait, but never past 10 bytes), and **hostile
//! lengths** (a claim past [`MAX_FRAME_BYTES`] is rejected *before* any
//! buffering commitment, in the `u64` domain, so a 32-bit `usize` can
//! never truncate it into a plausible value).

use cvc_reduce::reliable::frame_checksum;
use cvc_sim::wire::{self, put_varint, varint_len};

/// Hard cap on one frame's payload bytes. A single editor message is tens
/// of bytes and a maximal compound batch a few KiB; a megabyte of headroom
/// means any larger claim is an attack or a desync, not traffic.
pub const MAX_FRAME_BYTES: u64 = 1 << 20;

/// Why a stream stopped being parseable. All variants are fatal for the
/// connection: framing never resynchronizes after a bad length or sum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix claimed more than [`MAX_FRAME_BYTES`].
    Oversized(u64),
    /// A length or checksum varint ran past 10 bytes.
    TornVarint,
    /// The payload did not hash to the frame's checksum.
    BadChecksum {
        /// What the frame header claimed.
        claimed: u32,
        /// What the payload actually hashes to.
        actual: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized(n) => write!(f, "frame length {n} exceeds {MAX_FRAME_BYTES}"),
            FrameError::TornVarint => write!(f, "frame header varint exceeds 10 bytes"),
            FrameError::BadChecksum { claimed, actual } => {
                write!(
                    f,
                    "frame checksum {claimed:#010x} != payload {actual:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Bytes a frame wrapping `payload_len` payload bytes occupies on the
/// wire, given the payload's checksum.
pub fn framed_len(payload_len: usize, checksum: u32) -> usize {
    varint_len(payload_len as u64) + varint_len(u64::from(checksum)) + payload_len
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
    put_varint(out, u64::from(sum));
    for c in chunks {
        out.extend_from_slice(c);
    }
}

/// [`cvc_sim::wire::try_varint`] with this layer's error: a header varint
/// no u64 can hold is fatal for the stream.
fn try_varint(bytes: &[u8]) -> Result<Option<(u64, usize)>, FrameError> {
    wire::try_varint(bytes).map_err(|_| FrameError::TornVarint)
}

/// Incremental frame reassembly over a byte stream.
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
        match self.parse_one() {
            Ok(v) => Ok(v),
            Err(e) => {
                self.poisoned = Some(e.clone());
                Err(e)
            }
        }
    }

    fn parse_one(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let pending = &self.buf[self.start..];
        let Some((len, n_len)) = try_varint(pending)? else {
            return Ok(None);
        };
        // The length gate runs the moment the varint completes — before
        // the checksum, before any buffering commitment — and compares in
        // u64, so a 2^32-straddling claim cannot wrap into plausibility.
        if len > MAX_FRAME_BYTES {
            return Err(FrameError::Oversized(len));
        }
        let Some((sum, n_sum)) = try_varint(&pending[n_len..])? else {
            return Ok(None);
        };
        if sum > u64::from(u32::MAX) {
            // A checksum wider than 32 bits is a desynchronized stream.
            return Err(FrameError::TornVarint);
        }
        let header = n_len + n_sum;
        let len = len as usize;
        if pending.len() < header + len {
            return Ok(None);
        }
        let payload = &pending[header..header + len];
        let actual = frame_checksum(&[payload]);
        if actual != sum as u32 {
            return Err(FrameError::BadChecksum {
                claimed: sum as u32,
                actual,
            });
        }
        let out = payload.to_vec();
        self.start += header + len;
        // Compact once the dead prefix dominates, amortized O(1)/byte.
        if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, &[payload]);
        out
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
            MAX_FRAME_BYTES + 1,
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
            Err(FrameError::BadChecksum { .. })
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
