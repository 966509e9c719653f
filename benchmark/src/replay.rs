//! Offline replay of a traced run's integration log: the server-side
//! layers, one call at a time, each under its own clock.
//!
//! The live run can only charge the server's work to whole threads. Here
//! the captured log — the ops the server accepted, in its order — is fed
//! through fresh instances of the same public functions the core thread
//! calls (`Wal::append`, `Notifier::try_on_client_op_outcome`,
//! `ServerOpFrame`, `write_frame`, …), single-threaded and with nothing
//! else running, so each layer gets a per-call cost. The replay is also a
//! check: its notifier and its twin buffer must end on the live server's
//! document.

use cvc_core::formulas::formula7_counters;
use cvc_core::site::SiteId;
use cvc_net::frame::write_frame;
use cvc_net::{replay_twin, FrameReader};
use cvc_ot::buffer::TextBuffer;
use cvc_reduce::client::ACK_INTERVAL;
use cvc_reduce::msg::{ClientAckMsg, ClientOpMsg, EditorMsg};
use cvc_reduce::notifier::Notifier;
use cvc_reduce::wal::{Wal, WalRecord};
use cvc_sim::wire::WireEncode;
use std::hint::black_box;
use std::time::Instant;

/// Calls made and nanoseconds spent in one layer function.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    pub calls: u64,
    pub ns: u64,
}

impl Timed {
    /// Run `f`, charging its wall time as `calls` calls.
    fn run<T>(&mut self, calls: u64, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += calls;
        out
    }

    /// Mean nanoseconds per call (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        crate::stats::mean_ns(self.ns, self.calls)
    }
}

#[derive(Debug, Default)]
pub struct ReplayResult {
    pub ops: u64,
    /// `Notifier::try_on_client_op_outcome`, one call per op.
    pub integrate: Timed,
    /// `Wal::append`, one call per op record and per reader ack record.
    pub wal_append: Timed,
    /// `ServerOpFrame`: the shared body once plus N−1 heads, per op.
    pub frame_encode: Timed,
    /// `write_frame`, one call per outbound payload.
    pub frame_write: Timed,
    /// `FrameReader::extend` + `next_frame`, one inbound op frame each.
    pub frame_parse: Timed,
    /// `SeqOp::apply_to_buffer` of the executed op on a twin buffer.
    pub apply: Timed,
    /// `NotifierStateVector::compress_for`, one call per destination.
    pub compress: Timed,
    /// `formula7_counters`, one call per history entry the arriving op
    /// can still be concurrent with. Both core functions take a few ns and
    /// are timed in per-op batches, so their means carry a share of one
    /// timer pair (`trace.timer_ns`) that only a long batch — 63
    /// destinations, 200+ entries — makes small.
    pub formula7: Timed,
    pub concurrent_per_op: f64,
    pub scan_len_per_op: f64,
    pub wal_bytes_per_op: f64,
    /// Why the replay does not certify the log; empty when it does.
    pub failures: Vec<String>,
}

/// `replay_twin`'s replicas never collect their history, so its cost is
/// quadratic in the log; it certifies this many leading ops (any prefix of
/// an integration log is itself a complete session). The whole log is
/// certified by the replay's own notifier below.
const TWIN_PREFIX: usize = 4096;

/// Replay `log` through fresh server-side layers. `readers` are the sites
/// that never write: the live ones acknowledge every [`ACK_INTERVAL`]
/// broadcasts, and the notifier's history only trims when they do, so the
/// replay feeds the same acks (and logs them, as the core does).
pub fn replay(
    n_clients: usize,
    readers: std::ops::Range<usize>,
    log: &[ClientOpMsg],
    live_checksum: u64,
) -> ReplayResult {
    let mut r = ReplayResult {
        ops: log.len() as u64,
        ..ReplayResult::default()
    };
    // Configured as the server's core thread configures its own.
    let mut notifier = Notifier::new(n_clients, "");
    notifier.set_send_acks(true);
    let mut wal = Wal::new(0);
    let mut twin = TextBuffer::new();
    let mut reader = FrameReader::new();
    let (mut encoded, mut framed, mut outbound) = (Vec::new(), Vec::new(), Vec::new());
    let mut formula7_concurrent = 0u64;
    let mut reader_acked = 0u64;

    for (index, op) in log.iter().enumerate() {
        let (x, stamp) = (op.origin, op.stamp);

        // Inbound: the op as the worker thread meets it on the socket.
        let msg = EditorMsg::ClientOp(op.clone());
        encoded.clear();
        msg.encode(&mut encoded);
        framed.clear();
        write_frame(&mut framed, &[&encoded]);
        let parsed = r.frame_parse.run(1, || {
            reader.extend(&framed);
            reader.next_frame()
        });
        if !matches!(&parsed, Ok(Some(p)) if *p == encoded) {
            r.failures
                .push(format!("log[{index}]: frame did not survive a round trip"));
            break;
        }
        let EditorMsg::ClientOp(op) = msg else {
            unreachable!("wrapped above")
        };

        // Formula (7) from first principles, newest entry first. Stream
        // positions fall towards the front of the buffer, so the walk stops
        // at the first entry `x` had already received: the same suffix the
        // notifier's own scan is entitled to check, found independently.
        let hb = notifier.history();
        let mut from_x_incl = notifier.state_vector().received_from(x).unwrap_or(0);
        let mut scanned = 0u64;
        let t = Instant::now();
        for e in hb.iter().rev() {
            scanned += 1;
            let verdict = formula7_counters(stamp, x, e.origin, e.total_after, from_x_incl, 0);
            formula7_concurrent += u64::from(black_box(verdict));
            if e.total_after - from_x_incl <= stamp.get(1) {
                break;
            }
            from_x_incl -= u64::from(e.origin == x);
        }
        r.formula7.ns += t.elapsed().as_nanos() as u64;
        r.formula7.calls += scanned;

        // The core's order: durable first, then integrate, then encode.
        let rec = WalRecord::Op(op);
        r.wal_append.run(1, || wal.append(&rec));
        let WalRecord::Op(op) = rec else {
            unreachable!("wrapped above")
        };
        let Ok(outcome) = r.integrate.run(1, || notifier.try_on_client_op_outcome(op)) else {
            r.failures
                .push(format!("log[{index}]: rejected by the replay notifier"));
            break;
        };
        let payloads = r.frame_encode.run(1, || {
            let frame = outcome.frame();
            outcome
                .stamps
                .iter()
                .map(|&(_, stamp)| frame.payload_for(stamp))
                .collect::<Vec<_>>()
        });
        outbound.clear();
        r.frame_write.run(payloads.len() as u64, || {
            for p in &payloads {
                write_frame(&mut outbound, &p.chunks());
            }
        });
        if r.apply
            .run(1, || outcome.executed.apply_to_buffer(&mut twin))
            .is_err()
        {
            r.failures.push(format!(
                "log[{index}]: executed op does not fit the twin buffer"
            ));
            break;
        }
        let sv = notifier.state_vector();
        r.compress.run(outcome.stamps.len() as u64, || {
            for &(dest, _) in &outcome.stamps {
                black_box(sv.compress_for(black_box(dest)));
            }
        });

        // Readers have now been sent `index + 1` broadcasts each.
        let sent = index as u64 + 1;
        if sent - reader_acked >= ACK_INTERVAL {
            reader_acked = sent;
            for i in readers.clone() {
                let ack = ClientAckMsg {
                    origin: SiteId::from_client_index(i),
                    received: sent,
                };
                if notifier.try_on_client_ack(ack).is_err() {
                    r.failures
                        .push(format!("log[{index}]: reader ack rejected"));
                }
                let rec = WalRecord::Ack(ack);
                r.wal_append.run(1, || wal.append(&rec));
            }
        }
    }

    let m = notifier.metrics();
    if r.ops > 0 {
        r.concurrent_per_op = m.concurrent_verdicts as f64 / r.ops as f64;
        r.wal_bytes_per_op = wal.bytes_appended() as f64 / r.ops as f64;
    }
    r.scan_len_per_op = m.scan_len_per_op();
    if !r.failures.is_empty() {
        return r;
    }
    if formula7_concurrent != m.concurrent_verdicts {
        r.failures.push(format!(
            "formula (7) found {formula7_concurrent} concurrent pairs, the notifier's scan {}",
            m.concurrent_verdicts
        ));
    }
    if notifier.doc_checksum() != live_checksum || twin.checksum() != live_checksum {
        r.failures.push(format!(
            "replayed document {:#x} / twin buffer {:#x} != live {live_checksum:#x}",
            notifier.doc_checksum(),
            twin.checksum()
        ));
    }
    let prefix = &log[..log.len().min(TWIN_PREFIX)];
    if let Err(e) = replay_twin(n_clients, prefix) {
        r.failures
            .push(format!("replay_twin over {} ops: {e}", prefix.len()));
    }
    r
}
