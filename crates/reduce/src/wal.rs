//! Write-ahead log for notifier durability.
//!
//! The star topology makes site 0 the single point of failure: lose the
//! notifier, lose the session. This module gives the notifier a durable
//! input log: every client operation and acknowledgement is appended —
//! *before* any downstream broadcast leaves — in the existing editor wire
//! codec, each record framed with a length prefix and an FNV-1a checksum.
//! Replaying the log through the notifier's own fallible `try_on_*` paths
//! reproduces its state bit-for-bit, because the notifier is a
//! deterministic function of its input stream.
//!
//! Two design points carry the correctness argument:
//!
//! * **Write-ahead ordering.** An operation is logged before its broadcast
//!   is sent, so the log (and any standby tailing it) is always *ahead of
//!   or equal to* every client's view. A crash between append and send
//!   loses nothing (the standby has the op; clients resync to it); a crash
//!   before append means no client ever saw the op's broadcast, and the
//!   origin's own reliability layer still holds it un-acked and re-sends
//!   it after resync — the op is not lost, merely re-submitted.
//! * **Acks are part of the input stream.** The notifier's garbage
//!   collection and replay watermarks are driven by `acked_by`, which
//!   bare [`ClientAckMsg`]s advance. Omitting them from the log would let
//!   a replayed standby's GC state drift from the primary's — harmless for
//!   the document, fatal for bit-identical audits. So both record kinds
//!   are logged, in arrival order — and so is an eviction, the third
//!   input kind, because membership gates the same GC.
//!
//! **Compaction.** The log would otherwise grow without bound. When every
//! active client has acknowledged its entire broadcast stream (and the
//! history buffer is therefore fully trimmed —
//! [`Notifier::checkpoint_ready`]), the notifier's state collapses to the
//! document plus four counters per client. [`Wal::maybe_compact`] cuts a
//! [`WalSnapshot`] record at such a point and drops the prefix. The
//! compaction invariant required by recovery — *the snapshot covers every
//! un-acknowledged client cursor* — holds trivially: at a ready point
//! there are none. A disconnected-but-active client pins `acked_by` below
//! its stream head and thereby blocks compaction, exactly as it pins the
//! history-buffer trim, so the records it may still need are retained.
//!
//! **Recovery.** [`Wal::recover`] scans the log front to back. The suffix
//! after the last snapshot is the replay tail. A torn tail — a final
//! record whose bytes ran out, or whose checksum fails (a torn write and a
//! flipped bit are indistinguishable at the tail) — is tolerated and
//! reported, matching the write-ahead argument above: a torn final record
//! was never broadcast-confirmed to anyone. Anything malformed *before*
//! the tail is real corruption and surfaces as a typed [`WalError`];
//! recovery never panics and never silently diverges.

use crate::msg::{ClientAckMsg, ClientOpMsg, EditorMsg};
use crate::notifier::{CheckpointCursor, Notifier};
use crate::reliable::fnv1a32;
use bytes::{Buf, BufMut};
use cvc_core::site::SiteId;
use cvc_sim::wire::{
    get_bounded_len, get_string, get_varint, put_string, put_varint, string_len, varint_len,
    WireDecode, WireEncode, WireError, WireSize,
};

/// Record tag for [`WalRecord::Snapshot`]. Op and ack records reuse the
/// editor codec's own tags (`TAG_CLIENT_OP`, `TAG_CLIENT_ACK`), so an op
/// record's bytes are identical to the upstream wire frame that carried
/// it; the snapshot tag lives outside the editor tag space.
const WAL_TAG_SNAPSHOT: u8 = 32;

/// Record tag for [`WalRecord::AckFrontier`] — like the snapshot tag, it
/// lives outside the editor tag space.
const WAL_TAG_ACK_FRONTIER: u8 = 33;

/// Record tag for [`WalRecord::Evict`], outside the editor tag space.
const WAL_TAG_EVICT: u8 = 34;

/// Default ops between compaction attempts (see [`Wal::new`]).
pub const DEFAULT_COMPACT_EVERY: u64 = 256;

/// One write-ahead-log record: an element of the notifier's input stream,
/// or a compacted checkpoint of everything before it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A client operation the notifier executed, in its original upstream
    /// form (origin, 2-integer stamp, operation, caret). Replaying it
    /// through [`Notifier::try_on_client_op_outcome`] re-derives the executed op,
    /// the broadcast stamps, and every watermark delta deterministically.
    Op(ClientOpMsg),
    /// A bare acknowledgement the notifier integrated (GC watermark
    /// advance).
    Ack(ClientAckMsg),
    /// A packed acknowledgement frontier: the `acked_by` entries that
    /// *changed* since the previous frontier, coalescing a window of
    /// per-client [`WalRecord::Ack`] records. Cuts the WAL's ack-driven
    /// write amplification from one framed record per incoming ack to one
    /// delta record per [`crate::core::ACK_FRONTIER_EVERY`] acks —
    /// and because a window of W acks can touch at most W entries, the
    /// record is O(W) regardless of session width (a full-vector frontier
    /// would be O(N) every window, i.e. *quadratic* log bytes per op at
    /// large N, worse than the per-ack records it replaced). A crash
    /// between frontiers loses at most that window of watermark advances,
    /// which is safe — a standby behind on acks only *retains more*
    /// history, and clients re-ack on their next edit.
    AckFrontier(AckFrontierRecord),
    /// A site the notifier evicted after a protocol violation. Membership
    /// decides who is broadcast to and whose acks gate GC and compaction,
    /// so a replay that missed an eviction would keep the site's frozen
    /// watermark pinning both forever.
    Evict(SiteId),
    /// A compacted checkpoint: document plus per-client stream cursors.
    /// Supersedes every earlier record.
    Snapshot(WalSnapshot),
}

/// The packed acknowledgement frontier of [`WalRecord::AckFrontier`]:
/// each entry is `(client index, cumulative ack count)` for a client
/// whose watermark advanced since the previous frontier record. Counts
/// are cumulative and monotone, so replaying a stale or duplicate entry
/// is a no-op — order between frontier records is all that matters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AckFrontierRecord {
    /// Changed `(client index, cumulative ack count)` pairs, ascending by
    /// client index as produced (decoders must not rely on the order).
    pub entries: Vec<(u32, u64)>,
}

/// A compacted notifier checkpoint, cut only at a
/// [`Notifier::checkpoint_ready`] point (fully-acknowledged history).
/// Feeds [`Notifier::from_checkpoint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalSnapshot {
    /// The document at the checkpoint.
    pub doc: String,
    /// Per-client stream cursors, indexed by client (site `i + 1`).
    pub clients: Vec<CheckpointCursor>,
}

impl WalSnapshot {
    /// Capture a checkpoint from a live notifier. Callers must ensure
    /// [`Notifier::checkpoint_ready`] first; capturing earlier produces a
    /// snapshot that silently forgets un-acknowledged history.
    pub fn capture(notifier: &Notifier) -> Self {
        debug_assert!(notifier.checkpoint_ready(), "snapshot at a dirty point");
        WalSnapshot {
            doc: notifier.doc(),
            clients: notifier.checkpoint_cursors(),
        }
    }

    /// Rebuild a notifier from this checkpoint.
    pub fn restore(&self) -> Notifier {
        Notifier::from_checkpoint(&self.doc, &self.clients)
    }
}

impl WireSize for WalRecord {
    fn wire_bytes(&self) -> usize {
        match self {
            WalRecord::Op(m) => EditorMsg::ClientOp(m.clone()).wire_bytes(),
            WalRecord::Ack(m) => EditorMsg::ClientAck(*m).wire_bytes(),
            WalRecord::AckFrontier(f) => {
                1 + varint_len(f.entries.len() as u64)
                    + f.entries
                        .iter()
                        .map(|&(i, a)| varint_len(u64::from(i)) + varint_len(a))
                        .sum::<usize>()
            }
            WalRecord::Evict(site) => 1 + varint_len(u64::from(site.0)),
            WalRecord::Snapshot(s) => {
                1 + string_len(&s.doc)
                    + varint_len(s.clients.len() as u64)
                    + s.clients
                        .iter()
                        .map(|c| {
                            varint_len(c.sent)
                                + varint_len(c.received)
                                + varint_len(c.join_offset)
                                + 1
                        })
                        .sum::<usize>()
            }
        }
    }
}

impl WireEncode for WalRecord {
    fn encode<B: BufMut>(&self, buf: &mut B) {
        match self {
            // Byte-identical to the upstream wire frames (same tags, same
            // field codec) — the log format *is* the wire format.
            WalRecord::Op(m) => EditorMsg::ClientOp(m.clone()).encode(buf),
            WalRecord::Ack(m) => EditorMsg::ClientAck(*m).encode(buf),
            WalRecord::AckFrontier(f) => {
                buf.put_u8(WAL_TAG_ACK_FRONTIER);
                put_varint(buf, f.entries.len() as u64);
                for &(i, a) in &f.entries {
                    put_varint(buf, u64::from(i));
                    put_varint(buf, a);
                }
            }
            WalRecord::Evict(site) => {
                buf.put_u8(WAL_TAG_EVICT);
                put_varint(buf, u64::from(site.0));
            }
            WalRecord::Snapshot(s) => {
                buf.put_u8(WAL_TAG_SNAPSHOT);
                put_string(buf, &s.doc);
                put_varint(buf, s.clients.len() as u64);
                for c in &s.clients {
                    put_varint(buf, c.sent);
                    put_varint(buf, c.received);
                    put_varint(buf, c.join_offset);
                    buf.put_u8(u8::from(c.active));
                }
            }
        }
    }
}

impl WireDecode for WalRecord {
    fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::Truncated);
        }
        match buf.get_u8() {
            // Same field layout as the EditorMsg decoder's ClientOp and
            // ClientAck arms — the log format is the wire format.
            crate::msg::TAG_CLIENT_OP => Ok(WalRecord::Op(ClientOpMsg {
                origin: SiteId(get_varint(buf)? as u32),
                stamp: crate::msg::get_stamp(buf)?,
                op: crate::msg::get_seq_op(buf)?,
                cursor: crate::msg::get_opt_cursor(buf)?,
            })),
            crate::msg::TAG_CLIENT_ACK => Ok(WalRecord::Ack(ClientAckMsg {
                origin: SiteId(get_varint(buf)? as u32),
                received: get_varint(buf)?,
            })),
            WAL_TAG_ACK_FRONTIER => {
                // Each (index, count) entry costs ≥ 2 bytes on the wire; a
                // hostile count cannot drive the allocation past the buffer
                // (checked in u64, so no 32-bit truncation).
                let n = get_bounded_len(buf, 2)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    // A client index is a u32 everywhere else in the
                    // protocol; a wider varint here is an overlong value.
                    let idx = u32::try_from(get_varint(buf)?).map_err(|_| WireError::Overlong)?;
                    entries.push((idx, get_varint(buf)?));
                }
                Ok(WalRecord::AckFrontier(AckFrontierRecord { entries }))
            }
            WAL_TAG_EVICT => {
                let site = u32::try_from(get_varint(buf)?).map_err(|_| WireError::Overlong)?;
                Ok(WalRecord::Evict(SiteId(site)))
            }
            WAL_TAG_SNAPSHOT => {
                let doc = get_string(buf)?;
                // Each cursor costs ≥ 4 bytes; a hostile count cannot force
                // an allocation past the buffer it arrived in (checked in
                // u64, so no 32-bit truncation).
                let n = get_bounded_len(buf, 4)?;
                let mut clients = Vec::with_capacity(n);
                for _ in 0..n {
                    let sent = get_varint(buf)?;
                    let received = get_varint(buf)?;
                    let join_offset = get_varint(buf)?;
                    if !buf.has_remaining() {
                        return Err(WireError::Truncated);
                    }
                    let active = match buf.get_u8() {
                        0 => false,
                        1 => true,
                        t => return Err(WireError::BadTag(t)),
                    };
                    clients.push(CheckpointCursor {
                        sent,
                        received,
                        join_offset,
                        active,
                    });
                }
                Ok(WalRecord::Snapshot(WalSnapshot { doc, clients }))
            }
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Typed write-ahead-log recovery failures. Mirrors
/// [`crate::error::ProtocolError`]'s shape: kebab-case kind names for
/// counters, `Display` for humans, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// A record *before* the tail failed its checksum: real corruption,
    /// not a torn write (later records decoded fine after it).
    Corrupt {
        /// Zero-based index of the failing record.
        record: u64,
        /// Byte offset of the record's frame header in the log.
        offset: usize,
    },
    /// A record passed its checksum but its bytes are not a valid record —
    /// a codec mismatch (wrong version, foreign log), not line noise.
    Undecodable {
        /// Zero-based index of the failing record.
        record: u64,
        /// Byte offset of the record's frame header in the log.
        offset: usize,
        /// The decoder's verdict.
        err: WireError,
    },
    /// A record decoded cleanly but left trailing bytes inside its
    /// checksummed frame — a framing bug, surfaced loudly.
    TrailingBytes {
        /// Zero-based index of the failing record.
        record: u64,
        /// Byte offset of the record's frame header in the log.
        offset: usize,
        /// Undecoded bytes left inside the frame.
        extra: usize,
    },
}

impl WalError {
    /// Stable kebab-case name of the error kind (counter label).
    pub fn kind_name(&self) -> &'static str {
        match self {
            WalError::Corrupt { .. } => "wal-corrupt",
            WalError::Undecodable { .. } => "wal-undecodable",
            WalError::TrailingBytes { .. } => "wal-trailing-bytes",
        }
    }
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Corrupt { record, offset } => {
                write!(f, "wal record {record} at byte {offset}: checksum mismatch")
            }
            WalError::Undecodable {
                record,
                offset,
                err,
            } => write!(f, "wal record {record} at byte {offset}: {err}"),
            WalError::TrailingBytes {
                record,
                offset,
                extra,
            } => write!(
                f,
                "wal record {record} at byte {offset}: {extra} trailing bytes in frame"
            ),
        }
    }
}

impl std::error::Error for WalError {}

/// The result of scanning a write-ahead log: the latest snapshot (if any),
/// the records after it in append order, and how the scan ended.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WalRecovery {
    /// The last snapshot record, superseding everything before it.
    pub snapshot: Option<WalSnapshot>,
    /// Records appended after the snapshot (or from the start), in order.
    pub tail: Vec<WalRecord>,
    /// Total records recovered, including superseded ones and snapshots.
    pub records: u64,
    /// Bytes of torn final record dropped (0 for a clean log).
    pub torn_bytes: usize,
}

impl WalRecovery {
    /// Rebuild a notifier from this recovery: restore the snapshot (or
    /// start fresh with `n_clients` and `initial` when there is none) and
    /// fold [`crate::core::apply`] over the tail. Returns the
    /// notifier and the number of tail records replayed. A tail record the
    /// notifier rejects is a genuine log/state mismatch and surfaces as
    /// the notifier's own typed error.
    pub fn restore(
        &self,
        n_clients: usize,
        initial: &str,
    ) -> Result<(Notifier, u64), crate::error::ProtocolError> {
        let mut notifier = match &self.snapshot {
            Some(s) => s.restore(),
            None => Notifier::new(n_clients, initial),
        };
        for rec in &self.tail {
            crate::core::apply(&mut notifier, rec)?;
        }
        Ok((notifier, self.tail.len() as u64))
    }
}

/// An append-only, checksummed, compactable log of the notifier's input
/// stream. In the simulator the log lives in memory and doubles as the
/// mirrored channel a warm standby tails; the byte format — not the
/// transport — is the contract, so a file- or socket-backed log carries
/// the same records.
///
/// Frame format, per record:
///
/// ```text
/// [record-len varint] [fnv1a32(record-bytes) varint] [record-bytes]
/// ```
#[derive(Debug, Clone, Default)]
pub struct Wal {
    buf: Vec<u8>,
    /// Attempt compaction after this many op records (0 = never).
    compact_every: u64,
    ops_since_checkpoint: u64,
    appends: u64,
    bytes_appended: u64,
    op_bytes: u64,
    compactions: u64,
    scratch: Vec<u8>,
}

impl Wal {
    /// An empty log that attempts compaction after every `compact_every`
    /// op records (0 disables compaction).
    pub fn new(compact_every: u64) -> Self {
        Wal {
            compact_every,
            ..Wal::default()
        }
    }

    /// Append one record. Returns the framed size in bytes.
    pub fn append(&mut self, rec: &WalRecord) -> u64 {
        self.scratch.clear();
        rec.encode(&mut self.scratch);
        let sum = fnv1a32(&self.scratch);
        let framed =
            varint_len(self.scratch.len() as u64) + varint_len(u64::from(sum)) + self.scratch.len();
        self.buf.reserve(framed);
        put_varint(&mut self.buf, self.scratch.len() as u64);
        put_varint(&mut self.buf, u64::from(sum));
        self.buf.extend_from_slice(&self.scratch);
        self.appends += 1;
        self.bytes_appended += framed as u64;
        if matches!(rec, WalRecord::Op(_)) {
            self.ops_since_checkpoint += 1;
            self.op_bytes += self.scratch.len() as u64;
        }
        framed as u64
    }

    /// Compact if due and the notifier is at a checkpointable state:
    /// replaces the whole log with one snapshot record. Returns whether a
    /// compaction happened.
    pub fn maybe_compact(&mut self, notifier: &Notifier) -> bool {
        if self.compact_every == 0
            || self.ops_since_checkpoint < self.compact_every
            || !notifier.checkpoint_ready()
        {
            return false;
        }
        let snap = WalRecord::Snapshot(WalSnapshot::capture(notifier));
        self.buf.clear();
        self.append(&snap);
        self.ops_since_checkpoint = 0;
        self.compactions += 1;
        true
    }

    /// The log's current bytes (the recovery input and the standby feed).
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Live log size in bytes (after compactions).
    pub fn live_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Records appended over the log's lifetime.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Framed bytes appended over the log's lifetime (the write-
    /// amplification numerator; compaction does not subtract).
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }

    /// Unframed bytes of *operation* records appended (the write-
    /// amplification denominator: how much useful editing payload the log
    /// durably carries). Acks, snapshots and framing are overhead.
    pub fn op_bytes(&self) -> u64 {
        self.op_bytes
    }

    /// Write amplification so far: total framed bytes appended per byte of
    /// operation payload. 0.0 before any op record is appended. Scales
    /// with session fan-in — every client's acks are logged (for GC
    /// parity on the standby), so per-op-byte cost grows roughly
    /// linearly with the client count; compaction bounds the *live*
    /// bytes, not this lifetime ratio.
    pub fn amplification(&self) -> f64 {
        if self.op_bytes == 0 {
            0.0
        } else {
            self.bytes_appended as f64 / self.op_bytes as f64
        }
    }

    /// Compactions performed.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Scan a log image into a [`WalRecovery`]. Torn tails (truncated or
    /// checksum-failed *final* record) are tolerated and reported via
    /// [`WalRecovery::torn_bytes`]; malformed records before the tail are
    /// typed errors. Never panics.
    pub fn recover(bytes: &[u8]) -> Result<WalRecovery, WalError> {
        let mut out = WalRecovery::default();
        let mut rest = bytes;
        while !rest.is_empty() {
            let offset = bytes.len() - rest.len();
            let mut probe = rest;
            let header: Result<(u64, u64), WireError> = (|| {
                let len = get_varint(&mut probe)?;
                let sum = get_varint(&mut probe)?;
                Ok((len, sum))
            })();
            let (len, sum) = match header {
                Ok(h) => h,
                Err(_) => {
                    // Ran out of bytes mid-header: torn tail.
                    out.torn_bytes = rest.len();
                    return Ok(out);
                }
            };
            if (probe.len() as u64) < len {
                // The final record's bytes ran out: torn tail.
                out.torn_bytes = rest.len();
                return Ok(out);
            }
            let (frame, after) = probe.split_at(len as usize);
            if u64::from(fnv1a32(frame)) != sum {
                if after.is_empty() {
                    // A failed checksum on the *final* record is
                    // indistinguishable from a torn write; drop it.
                    out.torn_bytes = rest.len();
                    return Ok(out);
                }
                return Err(WalError::Corrupt {
                    record: out.records,
                    offset,
                });
            }
            let mut body = frame;
            let rec = WalRecord::decode(&mut body).map_err(|err| WalError::Undecodable {
                record: out.records,
                offset,
                err,
            })?;
            if !body.is_empty() {
                return Err(WalError::TrailingBytes {
                    record: out.records,
                    offset,
                    extra: body.len(),
                });
            }
            if let WalRecord::Snapshot(s) = rec {
                out.snapshot = Some(s);
                out.tail.clear();
            } else {
                out.tail.push(rec);
            }
            out.records += 1;
            rest = after;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvc_core::site::SiteId;
    use cvc_core::state_vector::CompressedStamp;
    use cvc_ot::pos::PosOp;
    use cvc_ot::seq::SeqOp;

    fn op_record(origin: u32, t1: u64, t2: u64, pos: usize, text: &str) -> WalRecord {
        WalRecord::Op(ClientOpMsg {
            origin: SiteId(origin),
            stamp: CompressedStamp::new(t1, t2),
            op: SeqOp::from_pos(&PosOp::insert(pos, text), 5 + pos + text.len()),
            cursor: None,
        })
    }

    fn ack_record(origin: u32, received: u64) -> WalRecord {
        WalRecord::Ack(ClientAckMsg {
            origin: SiteId(origin),
            received,
        })
    }

    fn sample_snapshot() -> WalSnapshot {
        WalSnapshot {
            doc: "ABCDE".into(),
            clients: vec![
                CheckpointCursor {
                    sent: 3,
                    received: 2,
                    join_offset: 0,
                    active: true,
                },
                CheckpointCursor {
                    sent: 2,
                    received: 3,
                    join_offset: 1,
                    active: false,
                },
            ],
        }
    }

    #[test]
    fn record_round_trip_all_kinds() {
        for rec in [
            op_record(1, 0, 1, 2, "xy"),
            ack_record(3, 129),
            WalRecord::Evict(SiteId(300)),
            WalRecord::Snapshot(sample_snapshot()),
        ] {
            let mut buf = Vec::new();
            rec.encode(&mut buf);
            assert_eq!(buf.len(), rec.wire_bytes(), "size mismatch for {rec:?}");
            let mut slice = &buf[..];
            let back = WalRecord::decode(&mut slice).expect("decode");
            assert!(slice.is_empty(), "decode must consume exactly");
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn op_record_bytes_match_wire_frame() {
        // The log format is the wire format: an op record is byte-identical
        // to the upstream ClientOp frame that carried it.
        let rec = op_record(2, 5, 7, 1, "hello");
        let mut log_bytes = Vec::new();
        rec.encode(&mut log_bytes);
        let WalRecord::Op(m) = &rec else {
            unreachable!()
        };
        let mut wire_bytes = Vec::new();
        EditorMsg::ClientOp(m.clone()).encode(&mut wire_bytes);
        assert_eq!(log_bytes, wire_bytes);
    }

    #[test]
    fn append_and_recover_round_trips() {
        let mut wal = Wal::new(0);
        let recs = vec![
            op_record(1, 0, 1, 0, "a"),
            ack_record(2, 1),
            op_record(2, 1, 1, 1, "b"),
        ];
        for r in &recs {
            wal.append(r);
        }
        assert_eq!(wal.appends(), 3);
        let rec = Wal::recover(wal.bytes()).expect("recover");
        assert_eq!(rec.tail, recs);
        assert_eq!(rec.records, 3);
        assert_eq!(rec.torn_bytes, 0);
        assert!(rec.snapshot.is_none());
    }

    #[test]
    fn snapshot_supersedes_prefix() {
        let mut wal = Wal::new(0);
        wal.append(&op_record(1, 0, 1, 0, "a"));
        wal.append(&WalRecord::Snapshot(sample_snapshot()));
        wal.append(&ack_record(1, 4));
        let rec = Wal::recover(wal.bytes()).expect("recover");
        assert_eq!(rec.snapshot, Some(sample_snapshot()));
        assert_eq!(rec.tail, vec![ack_record(1, 4)]);
        assert_eq!(rec.records, 3);
    }

    #[test]
    fn torn_tail_is_tolerated_at_every_boundary() {
        let mut wal = Wal::new(0);
        wal.append(&op_record(1, 0, 1, 0, "a"));
        let intact = Wal::recover(wal.bytes()).expect("recover").tail.len();
        let full = wal.bytes().to_vec();
        wal.append(&op_record(2, 1, 1, 1, "b"));
        for cut in full.len()..wal.bytes().len() {
            let rec = Wal::recover(&wal.bytes()[..cut]).expect("torn tail must recover");
            assert_eq!(rec.tail.len(), intact, "cut at {cut}");
            let expect_torn = cut - full.len();
            assert_eq!(rec.torn_bytes, expect_torn, "cut at {cut}");
        }
    }

    #[test]
    fn mid_log_corruption_is_a_typed_error() {
        let mut wal = Wal::new(0);
        wal.append(&op_record(1, 0, 1, 0, "a"));
        let first_len = wal.bytes().len();
        wal.append(&op_record(2, 1, 1, 1, "b"));
        let mut bytes = wal.bytes().to_vec();
        // Flip a bit inside the *first* record's body (past its header).
        bytes[first_len - 1] ^= 0x40;
        let err = Wal::recover(&bytes).expect_err("mid-log corruption");
        assert_eq!(err.kind_name(), "wal-corrupt");
        assert!(matches!(
            err,
            WalError::Corrupt {
                record: 0,
                offset: 0
            }
        ));
        // The same flip on the final record is a tolerated torn tail.
        let mut tail_flip = wal.bytes().to_vec();
        let last = tail_flip.len() - 1;
        tail_flip[last] ^= 0x40;
        let rec = Wal::recover(&tail_flip).expect("tail corruption tolerated");
        assert_eq!(rec.tail.len(), 1);
        assert!(rec.torn_bytes > 0);
    }

    #[test]
    fn checksum_valid_garbage_is_undecodable() {
        // Hand-frame a record whose checksum is correct but whose bytes are
        // not a valid record (unknown tag 0xEE), followed by a good record
        // so it is not tail-forgiven.
        let mut bytes = Vec::new();
        let body = [0xEEu8, 1, 2, 3];
        put_varint(&mut bytes, body.len() as u64);
        put_varint(&mut bytes, u64::from(fnv1a32(&body)));
        bytes.extend_from_slice(&body);
        let mut wal = Wal::new(0);
        wal.append(&ack_record(1, 1));
        bytes.extend_from_slice(wal.bytes());
        let err = Wal::recover(&bytes).expect_err("undecodable record");
        assert_eq!(err.kind_name(), "wal-undecodable");
    }

    #[test]
    fn compaction_waits_for_checkpoint_ready() {
        let mut notifier = Notifier::new(2, "");
        let mut wal = Wal::new(1);
        let msg = ClientOpMsg {
            origin: SiteId(1),
            stamp: CompressedStamp::new(0, 1),
            op: SeqOp::from_pos(&PosOp::insert(0, "x"), 0),
            cursor: None,
        };
        wal.append(&WalRecord::Op(msg.clone()));
        notifier.try_on_client_op_outcome(msg).expect("integrate");
        // Client 2 has not acked the broadcast: not checkpoint-ready.
        assert!(!wal.maybe_compact(&notifier));
        let ack = ClientAckMsg {
            origin: SiteId(2),
            received: 1,
        };
        wal.append(&WalRecord::Ack(ack));
        notifier.try_on_client_ack(ack).expect("ack");
        notifier.gc();
        assert!(notifier.checkpoint_ready());
        assert!(wal.maybe_compact(&notifier));
        assert_eq!(wal.compactions(), 1);
        // The compacted log restores to the same state.
        let rec = Wal::recover(wal.bytes()).expect("recover");
        assert_eq!(rec.tail.len(), 0);
        let (restored, replayed) = rec.restore(2, "").expect("restore");
        assert_eq!(replayed, 0);
        assert_eq!(restored.doc(), notifier.doc());
        assert_eq!(restored.checkpoint_cursors(), notifier.checkpoint_cursors());
    }

    #[test]
    fn restore_replays_tail_to_identical_state() {
        let mut notifier = Notifier::new(2, "seed");
        let mut wal = Wal::new(0);
        let ops = [
            // (origin, t1, t2, pos, text, generation-base): op 2 is
            // concurrent with op 1 (t1 = 0), so its base is the seed doc.
            (1u32, 0u64, 1u64, 0usize, "x", 4usize),
            (2, 0, 1, 2, "y", 4),
            (1, 1, 2, 4, "z", 6),
        ];
        for (origin, t1, t2, pos, text, base) in ops {
            let msg = ClientOpMsg {
                origin: SiteId(origin),
                stamp: CompressedStamp::new(t1, t2),
                op: SeqOp::from_pos(&PosOp::insert(pos, text), base),
                cursor: None,
            };
            wal.append(&WalRecord::Op(msg.clone()));
            notifier.try_on_client_op_outcome(msg).expect("integrate");
        }
        let rec = Wal::recover(wal.bytes()).expect("recover");
        let (restored, replayed) = rec.restore(2, "seed").expect("restore");
        assert_eq!(replayed, 3);
        assert_eq!(restored.doc(), notifier.doc());
        assert_eq!(restored.doc_checksum(), notifier.doc_checksum());
        assert_eq!(restored.checkpoint_cursors(), notifier.checkpoint_cursors());
        assert_eq!(restored.acked_by(), notifier.acked_by());
    }

    /// Restoring costs the width of the session, not the counters a
    /// snapshot carries: a cursor reading 2^40 is read back, not counted to.
    #[test]
    fn restore_does_not_loop_on_decoded_counters() {
        let mut snap = sample_snapshot();
        snap.clients[0].received = 1 << 40;
        snap.clients[1].received = 7;
        let mut wal = Wal::new(0);
        wal.append(&WalRecord::Snapshot(snap.clone()));
        let rec = Wal::recover(wal.bytes()).expect("recover");
        let (restored, _) = rec.restore(2, "").expect("restore");
        let sv = restored.state_vector();
        assert_eq!(sv.received_from(SiteId(1)), Ok(1 << 40));
        assert_eq!(sv.received_from(SiteId(2)), Ok(7));
        assert_eq!(sv.total(), (1 << 40) + 7);
        assert_eq!(restored.history_trimmed(), sv.total());
        assert_eq!(restored.checkpoint_cursors(), snap.clients);
    }

    #[test]
    fn from_checkpoint_continues_streams_exactly() {
        // Drive a notifier to a ready point, checkpoint it, restore, then
        // feed both the original and the restored notifier the same next
        // op: stamps and docs must match exactly.
        let mut a = Notifier::new(2, "");
        let m1 = ClientOpMsg {
            origin: SiteId(1),
            stamp: CompressedStamp::new(0, 1),
            op: SeqOp::from_pos(&PosOp::insert(0, "ab"), 0),
            cursor: None,
        };
        a.try_on_client_op_outcome(m1).expect("op");
        let ack = ClientAckMsg {
            origin: SiteId(2),
            received: 1,
        };
        a.try_on_client_ack(ack).expect("ack");
        a.gc();
        assert!(a.checkpoint_ready());
        let snap = WalSnapshot::capture(&a);
        let mut b = snap.restore();
        let m2 = ClientOpMsg {
            origin: SiteId(2),
            stamp: CompressedStamp::new(1, 1),
            op: SeqOp::from_pos(&PosOp::insert(2, "c"), 2),
            cursor: None,
        };
        let oa = a
            .try_on_client_op_outcome(m2.clone())
            .expect("a integrates");
        let ob = b.try_on_client_op_outcome(m2).expect("b integrates");
        assert_eq!(a.doc(), b.doc());
        assert_eq!(
            oa.broadcast_msgs()
                .iter()
                .map(|(s, m)| (*s, m.stamp))
                .collect::<Vec<_>>(),
            ob.broadcast_msgs()
                .iter()
                .map(|(s, m)| (*s, m.stamp))
                .collect::<Vec<_>>()
        );
        // Replay from the restored side serves the same resync snapshot.
        assert_eq!(
            a.resync_snapshot_for(SiteId(2)),
            b.resync_snapshot_for(SiteId(2))
        );
    }
}
