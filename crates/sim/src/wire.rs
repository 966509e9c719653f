//! Byte-accurate wire encoding.
//!
//! The paper's claim is about *communication overhead*: two integers per
//! message instead of `N`. To report that honestly the experiments measure
//! actual encoded bytes, not `size_of` guesses. This module provides the
//! compact varint (LEB128) codec the editor messages use, plus the
//! [`WireSize`] trait the simulator consults when accounting a send.
//!
//! Built on [`bytes::BufMut`]/[`bytes::Buf`] so encode paths write straight
//! into reusable buffers. A format is written down once, in its encoder:
//! an encoded size is that encoder run into a [`Counted`] sink, which
//! keeps no bytes, only their number.

use bytes::{Buf, BufMut};

/// Types that report their encoded size. A type with an encoder counts
/// what the encoder writes ([`counted`]); a type that holds its encoded
/// bytes reports their length.
pub trait WireSize {
    /// Exact number of bytes [`WireEncode::encode`] produces.
    fn wire_bytes(&self) -> usize;
}

/// A byte sink that keeps only the count of what is put into it.
#[derive(Debug)]
pub struct Counted(usize);

impl BufMut for Counted {
    fn put_u8(&mut self, _: u8) {
        self.0 += 1;
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.0 += src.len();
    }
}

/// Bytes `put` writes: how every encoded size is measured, with no heap
/// call.
pub fn counted(put: impl FnOnce(&mut Counted)) -> usize {
    let mut sink = Counted(0);
    put(&mut sink);
    sink.0
}

/// Types with a canonical wire encoding.
pub trait WireEncode: WireSize {
    /// Append the canonical encoding to `buf`.
    fn encode<B: BufMut>(&self, buf: &mut B);
}

/// Types decodable from the canonical encoding.
pub trait WireDecode: Sized {
    /// Decode from the front of `buf`, consuming exactly the encoded bytes.
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError>;
}

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended mid-value.
    Truncated,
    /// A varint ran past 10 bytes (not a valid u64), or a compound
    /// member's head flagged a zero delta: a longer encoding of a message
    /// that has a shorter one.
    Overlong,
    /// A string payload was not valid UTF-8.
    BadUtf8,
    /// An enum tag was not recognised: a tag byte, or the two kind bits
    /// of a folded varint.
    BadTag(u8),
    /// A span, position, or count field claimed a value past the
    /// document-size cap ([`MAX_WIRE_SPAN`]) — carried verbatim so logs
    /// show what the peer actually claimed.
    HostileLength(u64),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::Overlong => write!(f, "overlong varint"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string"),
            WireError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            WireError::HostileLength(n) => write!(f, "hostile length field {n}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Number of bytes `v` takes as a LEB128 varint.
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        return 1;
    }
    (64 - v.leading_zeros() as usize).div_ceil(7)
}

/// Write `v` as a LEB128 varint.
pub fn put_varint<B: BufMut>(buf: &mut B, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// The one LEB128 decoder: pull bytes from `next` until the continuation
/// bit clears. `Ok(None)` means the input ended mid-varint. The 10th byte
/// holds only u64 bit 63, so a set continuation bit or any payload bit
/// above the lowest there is [`WireError::Overlong`] — letting the shift
/// discard the high bits would decode `[0x80×9, 0x02]` as 0.
#[inline]
fn decode_varint(mut next: impl FnMut() -> Option<u8>) -> Result<Option<u64>, WireError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let Some(byte) = next() else {
            return Ok(None);
        };
        if shift == 63 && byte > 0x01 {
            break;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(Some(v));
        }
    }
    Err(WireError::Overlong)
}

/// Read a LEB128 varint.
pub fn get_varint<B: Buf>(buf: &mut B) -> Result<u64, WireError> {
    decode_varint(|| buf.has_remaining().then(|| buf.get_u8()))?.ok_or(WireError::Truncated)
}

/// Read a varint that must fit a `u32` (a site id, a caret's owner, a
/// char): a wider value is [`WireError::Overlong`], never
/// truncated into a small, valid-looking one.
pub fn get_u32<B: Buf>(buf: &mut B) -> Result<u32, WireError> {
    u32::try_from(get_varint(buf)?).map_err(|_| WireError::Overlong)
}

/// Parse one varint from the front of `bytes` without consuming them:
/// `Ok(Some((value, consumed)))` on a complete varint, `Ok(None)` when the
/// input ends mid-varint (torn — a stream reader waits for more bytes).
pub fn try_varint(bytes: &[u8]) -> Result<Option<(u64, usize)>, WireError> {
    let mut rest = bytes.iter();
    let v = decode_varint(|| rest.next().copied())?;
    Ok(v.map(|v| (v, bytes.len() - rest.as_slice().len())))
}

/// Upper bound on any single span, position, or repeat count accepted off
/// the wire (retain/delete run lengths, TTF positions). Generous — a
/// billion-character document is far past anything the sessions produce —
/// yet small enough that the decoded value survives a cast to a 32-bit
/// `usize` and leaves headroom for downstream arithmetic.
pub const MAX_WIRE_SPAN: u64 = 1 << 30;

/// Read a varint that prefixes a run of items costing at least `min_unit`
/// bytes each, rejecting any count the remaining input cannot possibly
/// hold. The comparison happens in the `u64` domain *before* the cast to
/// `usize`, so a 64-bit hostile length (for example `2^32 + 5`) can never
/// truncate into a small, in-bounds value on a 32-bit target. The returned
/// count is safe to use as an allocation hint: it is bounded by
/// `buf.remaining()`.
pub fn get_bounded_len<B: Buf>(buf: &mut B, min_unit: usize) -> Result<usize, WireError> {
    let n = get_varint(buf)?;
    let fits = (buf.remaining() / min_unit.max(1)) as u64;
    if n > fits {
        return Err(WireError::Truncated);
    }
    Ok(n as usize)
}

/// Read a varint span or position field, rejecting values past
/// [`MAX_WIRE_SPAN`] as [`WireError::HostileLength`]. Unlike
/// [`get_bounded_len`] the value does not prefix wire bytes — a retain
/// span costs one varint no matter how far it reaches — so the bound is a
/// document-size cap rather than a remaining-input check.
pub fn get_bounded_span<B: Buf>(buf: &mut B) -> Result<usize, WireError> {
    bounded_span(get_varint(buf)?)
}

/// A span or position already read off the wire (for example out of a
/// varint that also carries a kind), held to [`MAX_WIRE_SPAN`] as
/// [`get_bounded_span`] holds a whole varint.
pub fn bounded_span(n: u64) -> Result<usize, WireError> {
    if n > MAX_WIRE_SPAN {
        return Err(WireError::HostileLength(n));
    }
    Ok(n as usize)
}

/// Write a length-prefixed UTF-8 string.
pub fn put_string<B: BufMut>(buf: &mut B, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

/// Read a length-prefixed UTF-8 string. The length is checked against the
/// remaining input in the `u64` domain before any cast, so hostile 64-bit
/// lengths neither allocate nor truncate.
pub fn get_string<B: Buf>(buf: &mut B) -> Result<String, WireError> {
    let len = get_varint(buf)?;
    get_utf8(buf, len)
}

/// Read `len` bytes of UTF-8 whose length was already read off the wire.
/// A `len` past the remaining input is [`WireError::Truncated`], checked
/// in the `u64` domain before any allocation.
pub fn get_utf8<B: Buf>(buf: &mut B, len: u64) -> Result<String, WireError> {
    if len > buf.remaining() as u64 {
        return Err(WireError::Truncated);
    }
    let mut bytes = vec![0u8; len as usize];
    buf.copy_to_slice(&mut bytes);
    String::from_utf8(bytes).map_err(|_| WireError::BadUtf8)
}

impl WireSize for u64 {
    fn wire_bytes(&self) -> usize {
        varint_len(*self)
    }
}

impl WireEncode for u64 {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        put_varint(buf, *self);
    }
}

impl WireDecode for u64 {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        get_varint(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_lengths() {
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(16_383), 2);
        assert_eq!(varint_len(16_384), 3);
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, 1 << 32, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "length mismatch for {v}");
            assert_eq!(counted(|c| put_varint(c, v)), buf.len());
            let mut slice = &buf[..];
            assert_eq!(get_varint(&mut slice), Ok(v));
            assert!(slice.is_empty(), "decode must consume exactly");
        }
    }

    #[test]
    fn varint_error_cases() {
        let mut empty: &[u8] = &[];
        assert_eq!(get_varint(&mut empty), Err(WireError::Truncated));
        let mut cut: &[u8] = &[0x80, 0x80];
        assert_eq!(get_varint(&mut cut), Err(WireError::Truncated));
        let overlong = [0xffu8; 11];
        let mut o = &overlong[..];
        assert_eq!(get_varint(&mut o), Err(WireError::Overlong));
        // Nine continuation bytes then a terminator with bits above u64
        // bit 63: the encoding ends, but no u64 holds the value.
        for tenth in [0x02u8, 0x40, 0x7f] {
            let mut bytes = [0x80u8; 10];
            bytes[9] = tenth;
            assert_eq!(get_varint(&mut &bytes[..]), Err(WireError::Overlong));
            assert_eq!(try_varint(&bytes), Err(WireError::Overlong));
        }
        // u64::MAX is the one legitimate shape with the tenth byte set.
        let mut max = Vec::new();
        put_varint(&mut max, u64::MAX);
        assert_eq!(get_varint(&mut &max[..]), Ok(u64::MAX));
        assert_eq!(try_varint(&max), Ok(Some((u64::MAX, 10))));
        assert_eq!(try_varint(&max[..9]), Ok(None), "torn, not an error");
    }

    #[test]
    fn string_round_trip() {
        for s in ["", "a", "hello world", "日本語テキスト"] {
            let mut buf = Vec::new();
            put_string(&mut buf, s);
            assert_eq!(buf.len(), varint_len(s.len() as u64) + s.len());
            let mut slice = &buf[..];
            assert_eq!(get_string(&mut slice), Ok(s.to_string()));
        }
    }

    #[test]
    fn string_error_cases() {
        // Truncated payload.
        let mut buf = Vec::new();
        put_varint(&mut buf, 10);
        buf.extend_from_slice(b"abc");
        let mut slice = &buf[..];
        assert_eq!(get_string(&mut slice), Err(WireError::Truncated));
        // Invalid UTF-8.
        let mut buf = Vec::new();
        put_varint(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut slice = &buf[..];
        assert_eq!(get_string(&mut slice), Err(WireError::BadUtf8));
    }

    #[test]
    fn bounded_len_rejects_64_bit_hostile_counts() {
        // 2^32 + 5 truncates to 5 on a 32-bit usize; the u64-domain check
        // must reject it against a 5-byte buffer instead of reading 5.
        let mut buf = Vec::new();
        put_varint(&mut buf, (1u64 << 32) + 5);
        buf.extend_from_slice(&[1, 2, 3, 4, 5]);
        let mut slice = &buf[..];
        assert_eq!(get_bounded_len(&mut slice, 1), Err(WireError::Truncated));
        // An honest count passes and is returned exactly.
        let mut buf = Vec::new();
        put_varint(&mut buf, 3);
        buf.extend_from_slice(&[9, 9, 9]);
        let mut slice = &buf[..];
        assert_eq!(get_bounded_len(&mut slice, 1), Ok(3));
        // min_unit scales the bound: 3 two-byte items need 6 bytes.
        let mut slice = &buf[..];
        assert_eq!(get_bounded_len(&mut slice, 2), Err(WireError::Truncated));
    }

    #[test]
    fn bounded_span_caps_at_document_size() {
        let mut buf = Vec::new();
        put_varint(&mut buf, MAX_WIRE_SPAN);
        let mut slice = &buf[..];
        assert_eq!(get_bounded_span(&mut slice), Ok(MAX_WIRE_SPAN as usize));
        for hostile in [MAX_WIRE_SPAN + 1, u64::MAX, (1 << 32) + 5] {
            let mut buf = Vec::new();
            put_varint(&mut buf, hostile);
            let mut slice = &buf[..];
            assert_eq!(
                get_bounded_span(&mut slice),
                Err(WireError::HostileLength(hostile))
            );
        }
    }

    #[test]
    fn u64_trait_impls() {
        let v = 300u64;
        assert_eq!(v.wire_bytes(), 2);
        let mut buf = Vec::new();
        v.encode(&mut buf);
        let mut slice = &buf[..];
        assert_eq!(u64::decode(&mut slice), Ok(300));
    }
}
