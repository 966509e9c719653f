//! The *composing* client — a beyond-paper protocol variant.
//!
//! The paper's clients stream every operation immediately (no
//! acknowledgements anywhere in the protocol). Production descendants of
//! this architecture (Jupiter's successors: Google Wave, ShareDB) instead
//! keep **at most one operation in flight**: further local edits are
//! *composed* into a buffer that is sent as a single operation once the
//! outstanding one is acknowledged. This trades a little added latency for
//! far fewer (and better-batched) upstream messages under bursty typing.
//!
//! A [`ComposingClient`] is wire-compatible with the ordinary
//! [`Notifier`](crate::notifier::Notifier): its operations carry the same
//! 2-element stamps with the same semantics. The only addition is the
//! acknowledgement — either explicit ([`ServerAckMsg`], sent by a notifier
//! with acks enabled) or implicit (any server operation whose `T[2]`
//! covers the outstanding operation acknowledges it).
//!
//! Invariants:
//!
//! * `outstanding` is the last sent-but-unacknowledged operation, kept
//!   transformed against arriving server operations;
//! * `buffer` composes every local edit made since, likewise maintained;
//! * `SV_i[2]` counts **sent** operations (each flushed buffer is one
//!   operation), so stamps and the notifier's formula (7) work unchanged.

use crate::error::ProtocolError;
use crate::metrics::SiteMetrics;
use crate::msg::{ClientOpMsg, ServerAckMsg, ServerOpMsg};
use cvc_core::site::SiteId;
use cvc_core::state_vector::ClientStateVector;
use cvc_ot::pos::PosOp;
use cvc_ot::seq::SeqOp;

/// A client that batches local edits behind one in-flight operation.
#[derive(Debug, Clone)]
pub struct ComposingClient {
    site: SiteId,
    sv: ClientStateVector,
    doc: String,
    /// Sequence number (1-based) of the outstanding op, with its current
    /// form (re-based over arriving server ops).
    outstanding: Option<(u64, SeqOp)>,
    /// Composed unsent local edits, based on top of
    /// `received server ops ∘ outstanding`.
    buffer: Option<SeqOp>,
    metrics: SiteMetrics,
}

impl ComposingClient {
    /// A composing client for `site` starting from `initial`.
    pub fn new(site: SiteId, initial: &str) -> Self {
        assert!(!site.is_notifier(), "clients cannot be site 0");
        ComposingClient {
            site,
            sv: ClientStateVector::new(),
            doc: initial.to_owned(),
            outstanding: None,
            buffer: None,
            metrics: SiteMetrics::new(),
        }
    }

    /// This site's id.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Current document content.
    pub fn doc(&self) -> &str {
        &self.doc
    }

    /// Document length in characters.
    pub fn doc_len(&self) -> usize {
        self.doc.chars().count()
    }

    /// Current state vector.
    pub fn state_vector(&self) -> ClientStateVector {
        self.sv
    }

    /// Cost counters.
    pub fn metrics(&self) -> &SiteMetrics {
        &self.metrics
    }

    /// True when an operation is in flight.
    pub fn has_outstanding(&self) -> bool {
        self.outstanding.is_some()
    }

    /// True when local edits are waiting behind the outstanding op.
    pub fn has_buffered(&self) -> bool {
        self.buffer.is_some()
    }

    /// Perform a local edit. Returns a message only when nothing was in
    /// flight (otherwise the edit joins the compose buffer).
    pub fn local_edit(&mut self, op: SeqOp) -> Option<ClientOpMsg> {
        self.doc = op
            .apply(&self.doc)
            .expect("local op is built against the current document");
        self.metrics.ops_generated += 1;
        if self.outstanding.is_none() {
            debug_assert!(self.buffer.is_none(), "buffer without outstanding");
            Some(self.send(op))
        } else {
            self.buffer = Some(match self.buffer.take() {
                None => op,
                Some(b) => b.compose(&op).expect("sequential edits compose"),
            });
            None
        }
    }

    /// Convenience: insert `text` at `pos`.
    pub fn insert(&mut self, pos: usize, text: &str) -> Option<ClientOpMsg> {
        let op = SeqOp::from_pos(&PosOp::insert(pos, text), self.doc_len());
        self.local_edit(op)
    }

    /// Convenience: delete `count` chars at `pos`.
    pub fn delete(&mut self, pos: usize, count: usize) -> Option<ClientOpMsg> {
        let text: String = self.doc.chars().skip(pos).take(count).collect();
        assert_eq!(text.chars().count(), count, "delete range out of bounds");
        let op = SeqOp::from_pos(&PosOp::delete(pos, text), self.doc_len());
        self.local_edit(op)
    }

    fn send(&mut self, op: SeqOp) -> ClientOpMsg {
        self.sv.record_local();
        let stamp = self.sv.stamp();
        self.outstanding = Some((stamp.get(2), op.clone()));
        self.metrics.messages_sent += 1;
        self.metrics.stamp_integers_sent += 2;
        let msg = ClientOpMsg {
            origin: self.site,
            stamp,
            op,
            // Composing clients don't broadcast presence (their caret would
            // be stale by a full round trip anyway).
            cursor: None,
        };
        let wire = crate::msg::EditorMsg::ClientOp(msg.clone());
        self.metrics.stamp_bytes_sent += wire.stamp_bytes() as u64;
        self.metrics.bytes_sent += cvc_sim::wire::WireSize::wire_bytes(&wire) as u64;
        msg
    }

    /// Flush the buffer if the outstanding op has been acknowledged.
    fn maybe_flush(&mut self) -> Option<ClientOpMsg> {
        if self.outstanding.is_some() {
            return None;
        }
        self.buffer.take().map(|b| self.send(b))
    }

    /// Handle an explicit acknowledgement. May release the next buffered
    /// operation.
    pub fn on_server_ack(&mut self, msg: ServerAckMsg) -> Option<ClientOpMsg> {
        if let Some((seq, _)) = self.outstanding {
            if msg.acked >= seq {
                self.outstanding = None;
            }
        }
        self.maybe_flush()
    }

    /// Integrate a server operation. Returns the executed form and,
    /// possibly, the next upstream message (when the op implicitly
    /// acknowledged the outstanding one and a buffer was waiting).
    pub fn on_server_op(
        &mut self,
        msg: ServerOpMsg,
    ) -> Result<(SeqOp, Option<ClientOpMsg>), ProtocolError> {
        let expected = self.sv.received() + 1;
        if msg.stamp.get(1) != expected {
            return Err(ProtocolError::FifoViolation {
                site: self.site,
                expected,
                got: msg.stamp.get(1),
            });
        }
        if msg.stamp.get(2) > self.sv.generated() {
            return Err(ProtocolError::AckOverrun {
                site: self.site,
                sent: self.sv.generated(),
                acked: msg.stamp.get(2),
            });
        }

        let mut incoming = msg.op;
        // Outstanding: concurrent iff the server had not integrated it.
        if let Some((seq, out)) = self.outstanding.take() {
            if msg.stamp.get(2) < seq {
                let (inc2, out2) =
                    SeqOp::transform(&incoming, &out).map_err(ProtocolError::BadOperation)?;
                incoming = inc2;
                self.outstanding = Some((seq, out2));
                self.metrics.transforms += 1;
            } else {
                // Implicit acknowledgement: the server op's context already
                // contains the outstanding op.
                self.outstanding = None;
            }
        }
        // The compose buffer is never sent, hence always concurrent.
        if let Some(buf) = self.buffer.take() {
            let (inc2, buf2) =
                SeqOp::transform(&incoming, &buf).map_err(ProtocolError::BadOperation)?;
            incoming = inc2;
            self.buffer = Some(buf2);
            self.metrics.transforms += 1;
        }

        self.doc = incoming
            .apply(&self.doc)
            .map_err(ProtocolError::BadOperation)?;
        self.sv.record_from_notifier();
        self.metrics.ops_executed_remote += 1;
        let next = self.maybe_flush();
        Ok((incoming, next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::notifier::Notifier;

    /// Full loop with one composing client, one streaming-style peer
    /// (driven through the notifier directly) and explicit acks.
    #[test]
    fn composes_bursts_into_single_messages() {
        let mut c = ComposingClient::new(SiteId(1), "doc: ");
        // A typing burst of 5 chars: first goes out, rest compose.
        let first = c.insert(5, "h");
        assert!(first.is_some());
        for (i, ch) in ["e", "l", "l", "o"].iter().enumerate() {
            assert!(c.insert(6 + i, ch).is_none(), "char {i} must buffer");
        }
        assert_eq!(c.doc(), "doc: hello");
        assert!(c.has_outstanding() && c.has_buffered());
        // Ack for op 1 releases the rest as ONE message.
        let next = c.on_server_ack(ServerAckMsg { acked: 1 }).expect("flush");
        assert_eq!(next.stamp.as_pair(), (0, 2));
        assert_eq!(next.op.inserted_chars(), 4);
        assert_eq!(c.metrics().messages_sent, 2);
        assert_eq!(c.metrics().ops_generated, 5);
    }

    #[test]
    fn end_to_end_with_notifier_and_concurrent_peer() {
        let initial = "ABCDE";
        let mut notifier = Notifier::new(2, initial);
        let mut c1 = ComposingClient::new(SiteId(1), initial);

        // c1 types "12" at 1 as two edits; only the first is sent.
        let m1 = c1.insert(1, "1").expect("sent");
        assert!(c1.insert(2, "2").is_none());

        // Site 2 concurrently deletes "CDE" (driven via the notifier
        // directly, as a plain message).
        let from2 = crate::msg::ClientOpMsg {
            origin: SiteId(2),
            stamp: cvc_core::state_vector::CompressedStamp::new(0, 1),
            op: SeqOp::from_pos(&PosOp::delete(2, "CDE"), 5),
            cursor: None,
        };
        let out2 = notifier
            .try_on_client_op_outcome(from2)
            .expect("valid client op");

        // Notifier then receives c1's first op (concurrent with site 2's).
        let out1 = notifier
            .try_on_client_op_outcome(m1)
            .expect("valid client op");
        assert_eq!(out1.broadcast_msgs().len(), 1); // to site 2

        // c1 receives site 2's transformed op; this does NOT ack op 1
        // (T[2] = 0 at propagation time), so the buffer stays.
        let (dest, smsg) = out2.broadcast_msgs().into_iter().next().expect("to site 1");
        assert_eq!(dest, SiteId(1));
        let (_, next) = c1.on_server_op(smsg).expect("integrates");
        assert!(next.is_none());
        assert_eq!(c1.doc(), "A12B");

        // Explicit ack finally releases the buffered "2".
        let next = c1
            .on_server_ack(ServerAckMsg { acked: 1 })
            .expect("buffer flushes");
        let out3 = notifier
            .try_on_client_op_outcome(next)
            .expect("valid client op");
        assert_eq!(notifier.doc(), "A12B");
        assert_eq!(out3.broadcast_msgs().len(), 1);
    }

    #[test]
    fn implicit_ack_via_server_op_flushes_buffer() {
        let initial = "xy";
        let mut notifier = Notifier::new(2, initial);
        let mut c1 = ComposingClient::new(SiteId(1), initial);

        let m1 = c1.insert(0, "a").expect("sent");
        assert!(c1.insert(1, "b").is_none()); // buffered
        let _ = notifier
            .try_on_client_op_outcome(m1)
            .expect("valid client op");

        // Site 2 sends an op AFTER receiving c1's (so its broadcast back to
        // c1 carries T[2] = 1 — an implicit ack).
        let from2 = crate::msg::ClientOpMsg {
            origin: SiteId(2),
            stamp: cvc_core::state_vector::CompressedStamp::new(1, 1),
            op: SeqOp::from_pos(&PosOp::insert(3, "z"), 3),
            cursor: None,
        };
        let out = notifier
            .try_on_client_op_outcome(from2)
            .expect("valid client op");
        let (_, smsg) = out.broadcast_msgs().into_iter().next().expect("to c1");
        let (_, next) = c1.on_server_op(smsg).expect("integrates");
        let next = next.expect("implicit ack flushes the buffer");
        assert_eq!(next.stamp.as_pair(), (1, 2));
        let _ = notifier
            .try_on_client_op_outcome(next)
            .expect("valid client op");
        assert_eq!(notifier.doc(), "abxyz");
        assert_eq!(c1.doc(), "abxyz");
    }

    #[test]
    fn fifo_and_ack_violations_detected() {
        let mut c = ComposingClient::new(SiteId(1), "ab");
        let err = c
            .on_server_op(ServerOpMsg {
                stamp: cvc_core::state_vector::CompressedStamp::new(2, 0),
                op: SeqOp::identity(2),
                cursor: None,
            })
            .unwrap_err();
        assert!(matches!(err, ProtocolError::FifoViolation { .. }));
        let err = c
            .on_server_op(ServerOpMsg {
                stamp: cvc_core::state_vector::CompressedStamp::new(1, 4),
                op: SeqOp::identity(2),
                cursor: None,
            })
            .unwrap_err();
        assert!(matches!(err, ProtocolError::AckOverrun { .. }));
    }

    #[test]
    fn duplicated_ack_does_not_release_the_next_outstanding() {
        let mut c = ComposingClient::new(SiteId(1), "");
        let m1 = c.insert(0, "a").expect("sent");
        assert_eq!(m1.stamp.as_pair(), (0, 1));
        assert!(c.insert(1, "b").is_none()); // buffered behind op 1
                                             // First ack releases the buffer as op 2...
        let m2 = c.on_server_ack(ServerAckMsg { acked: 1 }).expect("flush");
        assert_eq!(m2.stamp.as_pair(), (0, 2));
        assert!(c.has_outstanding());
        // ...and a duplicated copy of the same ack (retransmitted or
        // duplicated on the wire) must neither clear op 2 nor send again.
        assert!(c.on_server_ack(ServerAckMsg { acked: 1 }).is_none());
        assert!(c.has_outstanding(), "dup ack must not ack a newer op");
        assert_eq!(c.metrics().messages_sent, 2);
        // The genuinely-new ack does clear it.
        assert!(c.on_server_ack(ServerAckMsg { acked: 2 }).is_none());
        assert!(!c.has_outstanding());
    }

    #[test]
    fn stale_ack_after_implicit_ack_is_inert() {
        // An explicit ack can arrive *after* a server op already implicitly
        // acknowledged the same sequence number (the two race on the wire).
        let initial = "xy";
        let mut notifier = Notifier::new(2, initial);
        let mut c1 = ComposingClient::new(SiteId(1), initial);
        let m1 = c1.insert(0, "a").expect("sent");
        assert!(c1.insert(1, "b").is_none());
        let _ = notifier
            .try_on_client_op_outcome(m1)
            .expect("valid client op");
        let from2 = crate::msg::ClientOpMsg {
            origin: SiteId(2),
            stamp: cvc_core::state_vector::CompressedStamp::new(1, 1),
            op: SeqOp::from_pos(&PosOp::insert(3, "z"), 3),
            cursor: None,
        };
        let out = notifier
            .try_on_client_op_outcome(from2)
            .expect("valid client op");
        let (_, smsg) = out.broadcast_msgs().into_iter().next().expect("to c1");
        // Implicit ack flushes the buffer as op 2.
        let (_, next) = c1.on_server_op(smsg).expect("integrates");
        let m2 = next.expect("implicit ack flushes");
        assert_eq!(m2.stamp.as_pair(), (1, 2));
        // The stale explicit ack for op 1 lands now: it must not touch the
        // new outstanding op or emit anything.
        assert!(c1.on_server_ack(ServerAckMsg { acked: 1 }).is_none());
        assert!(c1.has_outstanding());
        // Session still completes normally.
        let _ = notifier
            .try_on_client_op_outcome(m2)
            .expect("valid client op");
        assert_eq!(notifier.doc(), "abxyz");
        assert_eq!(c1.doc(), "abxyz");
    }

    #[test]
    fn outstanding_without_buffer_acks_cleanly() {
        let mut c = ComposingClient::new(SiteId(1), "");
        let _ = c.insert(0, "x").expect("sent");
        assert!(c.on_server_ack(ServerAckMsg { acked: 1 }).is_none());
        assert!(!c.has_outstanding());
        // Stale ack is harmless.
        assert!(c.on_server_ack(ServerAckMsg { acked: 1 }).is_none());
    }
}
