//! The 2-party synchronisation bridge.
//!
//! The paper's star architecture reduces consistency maintenance to `N`
//! independent **two-party** problems: each client↔notifier pair only ever
//! needs to reconcile *its own* two operation streams, because the notifier
//! re-defines everything else into its own stream first. A [`Bridge`] is
//! one such pair-endpoint: it tracks
//!
//! * `my_count` — operations this endpoint has generated on the pair's
//!   channel, and
//! * `their_count` — operations received from the peer,
//!
//! which are **exactly the two elements of the paper's compressed state
//! vector** (for a client: `[their_count, my_count] = [SV_i[1], SV_i[2]]`;
//! for the notifier's bridge to client *i*: `my_count = Σ_{j≠i} SV_0[j]`
//! and `their_count = SV_0[i]`, i.e. formulas (1)–(2)).
//!
//! The bridge also keeps the *pending list*: operations sent but not yet
//! covered by the peer's context. When a peer operation arrives carrying
//! the count of our operations it had seen (`acked`), the ops with sequence
//! number `> acked` are precisely the **concurrent** ones — the same set
//! the paper's formulas (5)/(7) select, which the engines assert in debug
//! builds. The arriving operation is then dual-transformed through that
//! pending list (only TP1 required) and comes out in this endpoint's frame.

use cvc_ot::cursor::{transform_cursor, Bias};
use cvc_ot::seq::{SeqError, SeqOp};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Errors integrating a peer operation into a bridge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BridgeError {
    /// The peer acknowledged more operations than this endpoint ever sent.
    AckOverrun {
        /// Operations actually sent.
        sent: u64,
        /// Operations the peer claims to have integrated.
        acked: u64,
    },
    /// Dual transformation failed (incompatible operation bases — corrupt
    /// or misrouted payload).
    Transform(SeqError),
}

impl fmt::Display for BridgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BridgeError::AckOverrun { sent, acked } => {
                write!(f, "peer acked {acked} ops but only {sent} were sent")
            }
            BridgeError::Transform(e) => write!(f, "dual transform failed: {e}"),
        }
    }
}

impl std::error::Error for BridgeError {}

impl From<SeqError> for BridgeError {
    fn from(e: SeqError) -> Self {
        BridgeError::Transform(e)
    }
}

/// Which endpoint's inserts win position ties. Globally consistent rule:
/// the notifier's (transformed) operations take priority, so both endpoints
/// of a bridge resolve every tie identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BridgeRole {
    /// The notifier's endpoint of the pair.
    Notifier,
    /// A client's endpoint of the pair.
    Client,
}

/// One endpoint of a client↔notifier pair.
#[derive(Debug, Clone, Hash)]
pub struct Bridge {
    role: BridgeRole,
    /// Operations I generated on this pair (1-based count).
    my_count: u64,
    /// Operations received from the peer.
    their_count: u64,
    /// My sent ops not yet seen by the peer; front has sequence number
    /// `first_pending_seq`. Shared (`Arc`) because the notifier records
    /// the same broadcast op on `N−1` bridges at once — the clone is a
    /// refcount bump until a transform rewrites an entry.
    pending: VecDeque<Arc<SeqOp>>,
    first_pending_seq: u64,
}

/// Result of integrating a peer operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Integrated {
    /// The peer op transformed into this endpoint's frame — execute this.
    pub op: SeqOp,
    /// How many pending local ops it was concurrent with (= transform
    /// count; metrics and formula cross-checks).
    pub concurrent_with: usize,
}

impl Bridge {
    /// A fresh bridge endpoint.
    pub fn new(role: BridgeRole) -> Self {
        Bridge {
            role,
            my_count: 0,
            their_count: 0,
            pending: VecDeque::new(),
            first_pending_seq: 1,
        }
    }

    /// A bridge endpoint resuming at known counters with `pending`, the
    /// last `pending.len()` ops it sent, still unseen by the peer — empty
    /// for a full-state resync, where the adopted snapshot already covers
    /// everything either side had sent; a notifier checkpoint's queue
    /// otherwise. A queue longer than `my_count` keeps its newest
    /// `my_count` entries.
    pub fn resume(
        role: BridgeRole,
        my_count: u64,
        their_count: u64,
        mut pending: VecDeque<Arc<SeqOp>>,
    ) -> Self {
        let excess = (pending.len() as u64).saturating_sub(my_count);
        pending.drain(..excess as usize);
        Bridge {
            role,
            my_count,
            their_count,
            first_pending_seq: my_count + 1 - pending.len() as u64,
            pending,
        }
    }

    /// Operations generated locally on this pair so far.
    #[inline]
    pub fn my_count(&self) -> u64 {
        self.my_count
    }

    /// Operations received from the peer so far.
    #[inline]
    pub fn their_count(&self) -> u64 {
        self.their_count
    }

    /// Sequence numbers of currently pending (unacknowledged) local ops.
    pub fn pending_seqs(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.pending.len()).map(move |i| self.first_pending_seq + i as u64)
    }

    /// Number of pending local ops.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The pending local ops, oldest first (sequence numbers
    /// [`Bridge::pending_seqs`]).
    pub fn pending(&self) -> impl DoubleEndedIterator<Item = &Arc<SeqOp>> {
        self.pending.iter()
    }

    /// The document length a peer operation carrying `acked` must be based
    /// on: the base of the first of our ops the peer had not yet seen, or
    /// `None` when it had seen them all (its base is then the endpoint's
    /// current document). Lets the owner close an arriving op, which
    /// travels without its trailing retain, on that base and refuse one
    /// reaching past it *before* integration moves any counter.
    pub fn peer_base_len(&self, acked: u64) -> Option<usize> {
        let seen = (acked + 1).saturating_sub(self.first_pending_seq) as usize;
        self.pending.get(seen).map(|op| op.base_len())
    }

    /// Record a locally generated operation about to be sent to the peer.
    /// Returns its sequence number (1-based; the peer's `acked` compares
    /// against these).
    pub fn record_send(&mut self, op: SeqOp) -> u64 {
        self.record_send_shared(Arc::new(op))
    }

    /// As [`Bridge::record_send`], but sharing an already-refcounted op —
    /// the notifier's broadcast path records one op on `N−1` bridges
    /// without `N−1` deep clones.
    pub fn record_send_shared(&mut self, op: Arc<SeqOp>) -> u64 {
        self.my_count += 1;
        self.pending.push_back(op);
        self.my_count
    }

    /// Drop the pending prefix the peer has acknowledged *without* an
    /// accompanying operation — the pure-ack path ([`crate::msg::ClientAckMsg`]).
    /// Ops with sequence number `≤ acked` can never again be selected as
    /// concurrent, so holding them only costs memory.
    pub fn ack_prefix(&mut self, acked: u64) -> Result<(), BridgeError> {
        if acked > self.my_count {
            return Err(BridgeError::AckOverrun {
                sent: self.my_count,
                acked,
            });
        }
        while self.first_pending_seq <= acked {
            self.pending
                .pop_front()
                .expect("acked ≤ my_count implies the prefix exists");
            self.first_pending_seq += 1;
        }
        Ok(())
    }

    /// Integrate an operation from the peer.
    ///
    /// * `op` — the peer's operation, in the peer frame at its send time;
    /// * `acked` — how many of *our* operations the peer had integrated
    ///   when it sent this (the `T[2]`/`T[1]` element of its stamp).
    ///
    /// Ops with sequence number `≤ acked` are causally before `op` and are
    /// dropped from the pending list; the remainder are concurrent and the
    /// op is dual-transformed through them.
    pub fn integrate(&mut self, op: SeqOp, acked: u64) -> Result<Integrated, BridgeError> {
        self.integrate_with_cursor(op, acked, None).map(|(i, _)| i)
    }

    /// Like [`Bridge::integrate`], additionally carrying the peer's caret
    /// position (expressed on the state right after `op`) through the same
    /// dual-transform chain, so it lands in this endpoint's frame — the
    /// telepointer mechanism.
    pub fn integrate_with_cursor(
        &mut self,
        op: SeqOp,
        acked: u64,
        cursor: Option<usize>,
    ) -> Result<(Integrated, Option<usize>), BridgeError> {
        if acked > self.my_count {
            return Err(BridgeError::AckOverrun {
                sent: self.my_count,
                acked,
            });
        }
        // Drop acknowledged prefix.
        while self.first_pending_seq <= acked {
            self.pending
                .pop_front()
                .expect("acked ≤ my_count implies the prefix exists");
            self.first_pending_seq += 1;
        }
        // Dual-transform through the concurrent tail.
        let mut incoming = op;
        let mut cursor = cursor;
        let concurrent_with = self.pending.len();
        for mine in self.pending.iter_mut() {
            // Priority: the notifier endpoint's pending ops are
            // server-frame ops and win ties; a client's pending ops yield.
            let (inc2, mine2) = match self.role {
                BridgeRole::Notifier => {
                    let (m2, i2) = SeqOp::transform(mine, &incoming)?;
                    (i2, m2)
                }
                BridgeRole::Client => {
                    let (i2, m2) = SeqOp::transform(&incoming, mine)?;
                    (i2, m2)
                }
            };
            // The caret lives on the state after `incoming`; `mine2` is the
            // op that carries that state to the joint state, so the caret
            // rides through it.
            if let Some(c) = cursor {
                cursor = Some(transform_cursor(c, &mine2, Bias::Before));
            }
            incoming = inc2;
            *mine = Arc::new(mine2);
        }
        self.their_count += 1;
        Ok((
            Integrated {
                op: incoming,
                concurrent_with,
            },
            cursor,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvc_ot::pos::PosOp;

    /// Simulate both ends of one pair exchanging concurrent ops and check
    /// they converge. `client_doc`/`server_doc` start equal.
    #[test]
    fn two_party_convergence_single_flight() {
        let doc = "ABCDE".to_string();
        let mut client = Bridge::new(BridgeRole::Client);
        let mut server = Bridge::new(BridgeRole::Notifier);

        // Client inserts "12" at 1; server (concurrently) deletes "CDE".
        let c_op = SeqOp::from_pos(&PosOp::insert(1, "12"), 5);
        let s_op = SeqOp::from_pos(&PosOp::delete(2, "CDE"), 5);
        let mut client_doc = c_op.apply(&doc).unwrap();
        let mut server_doc = s_op.apply(&doc).unwrap();

        let c_seq = client.record_send(c_op.clone());
        let s_seq = server.record_send(s_op.clone());
        assert_eq!((c_seq, s_seq), (1, 1));

        // Ops cross on the wire: each had seen 0 of the other's.
        let at_server = server.integrate(c_op, 0).unwrap();
        server_doc = at_server.op.apply(&server_doc).unwrap();
        let at_client = client.integrate(s_op, 0).unwrap();
        client_doc = at_client.op.apply(&client_doc).unwrap();

        assert_eq!(client_doc, server_doc);
        assert_eq!(client_doc, "A12B"); // the paper's intention-preserved result
        assert_eq!(at_server.concurrent_with, 1);
        assert_eq!(at_client.concurrent_with, 1);
    }

    #[test]
    fn multiple_unacked_ops_in_flight() {
        let doc = "hello".to_string();
        let mut client = Bridge::new(BridgeRole::Client);
        let mut server = Bridge::new(BridgeRole::Notifier);

        // Client types three ops without hearing back.
        let mut cdoc = doc.clone();
        let mut client_ops = Vec::new();
        for (pos, text) in [(5usize, " w"), (7, "or"), (9, "ld")] {
            let op = SeqOp::from_pos(&PosOp::insert(pos, text), cdoc.chars().count());
            cdoc = op.apply(&cdoc).unwrap();
            client.record_send(op.clone());
            client_ops.push(op);
        }
        assert_eq!(cdoc, "hello world");

        // Server concurrently uppercases h → H (delete+insert) having seen
        // none of the client ops.
        let mut sop = SeqOp::new();
        sop.insert("H").delete(1).retain(4);
        let mut sdoc = sop.apply(&doc).unwrap();
        server.record_send(sop.clone());

        // Client ops arrive at the server in order, each acking 0 server
        // ops.
        for op in &client_ops {
            let integrated = server.integrate(op.clone(), 0).unwrap();
            sdoc = integrated.op.apply(&sdoc).unwrap();
        }
        // Server op arrives at the client acking 0 client ops.
        let integrated = client.integrate(sop, 0).unwrap();
        cdoc = integrated.op.apply(&cdoc).unwrap();
        assert_eq!(integrated.concurrent_with, 3);

        assert_eq!(cdoc, sdoc);
        assert_eq!(cdoc, "Hello world");
    }

    #[test]
    fn acked_ops_are_not_transformed_against() {
        let doc = "abc".to_string();
        let mut client = Bridge::new(BridgeRole::Client);
        let mut server = Bridge::new(BridgeRole::Notifier);

        // Client op 1 reaches the server first.
        let op1 = SeqOp::from_pos(&PosOp::insert(3, "d"), 3);
        client.record_send(op1.clone());
        let i = server.integrate(op1, 0).unwrap();
        let sdoc = i.op.apply(&doc).unwrap();
        assert_eq!(sdoc, "abcd");

        // Server now generates an op that has SEEN client op 1 (acked=1).
        let sop = SeqOp::from_pos(&PosOp::insert(4, "!"), 4);
        server.record_send(sop.clone());
        let integrated = client.integrate(sop, 1).unwrap();
        // Client's op 1 was acked: no transformation happened.
        assert_eq!(integrated.concurrent_with, 0);
        assert_eq!(client.pending_len(), 0);
        let cdoc_after1 = "abcd"; // client applied its own op locally
        let cdoc = integrated.op.apply(cdoc_after1).unwrap();
        assert_eq!(cdoc, "abcd!");
    }

    #[test]
    fn tie_break_is_consistent_across_endpoints() {
        // Both endpoints insert different text at the same position; the
        // final docs must match exactly (server text first, by the rule).
        let doc = "xy".to_string();
        let mut client = Bridge::new(BridgeRole::Client);
        let mut server = Bridge::new(BridgeRole::Notifier);

        let c_op = SeqOp::from_pos(&PosOp::insert(1, "c"), 2);
        let s_op = SeqOp::from_pos(&PosOp::insert(1, "s"), 2);
        let mut cdoc = c_op.apply(&doc).unwrap();
        let mut sdoc = s_op.apply(&doc).unwrap();
        client.record_send(c_op.clone());
        server.record_send(s_op.clone());

        sdoc = server.integrate(c_op, 0).unwrap().op.apply(&sdoc).unwrap();
        cdoc = client.integrate(s_op, 0).unwrap().op.apply(&cdoc).unwrap();
        assert_eq!(cdoc, sdoc);
        assert_eq!(cdoc, "xscy");
    }

    #[test]
    fn cursor_rides_the_dual_transform() {
        // Client caret sits right after its own insert; the server's
        // concurrent insert earlier in the doc must shift it.
        let doc = "abcd".to_string();
        let mut server = Bridge::new(BridgeRole::Notifier);
        let s_op = SeqOp::from_pos(&PosOp::insert(0, "XY"), 4); // server op pending
        server.record_send(s_op.clone());
        // Client op: insert "z" at 4 (end), caret after it at 5.
        let c_op = SeqOp::from_pos(&PosOp::insert(4, "z"), 4);
        let (integrated, cursor) = server
            .integrate_with_cursor(c_op, 0, Some(5))
            .expect("integrates");
        // In the server frame the doc is "XYabcd"; the client op lands at
        // the end and the caret follows: position 7.
        let sdoc = integrated.op.apply(&s_op.apply(&doc).unwrap()).unwrap();
        assert_eq!(sdoc, "XYabcdz");
        assert_eq!(cursor, Some(7));
    }

    #[test]
    fn pending_seqs_track_window() {
        let mut b = Bridge::new(BridgeRole::Client);
        for i in 0..4 {
            b.record_send(SeqOp::from_pos(&PosOp::insert(0, "x"), i));
        }
        assert_eq!(b.pending_seqs().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        // Peer op acking 2 drops the first two.
        let peer = SeqOp::identity(0); // base_len 0 vs pending base 2 → transform err
                                       // Build a compatible peer op instead: identity on length 2 (after
                                       // 2 acked inserts the peer's frame has 2 chars).
        let _ = peer;
        let peer = SeqOp::identity(2);
        let res = b.integrate(peer, 2).unwrap();
        assert_eq!(res.concurrent_with, 2);
        assert_eq!(b.pending_seqs().collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(b.their_count(), 1);
        assert_eq!(b.my_count(), 4);
    }

    #[test]
    fn ack_prefix_drops_without_transforming() {
        let mut b = Bridge::new(BridgeRole::Notifier);
        for i in 0..3 {
            b.record_send(SeqOp::from_pos(&PosOp::insert(0, "x"), i));
        }
        b.ack_prefix(2).expect("within sent window");
        assert_eq!(b.pending_seqs().collect::<Vec<_>>(), vec![3]);
        // Idempotent and monotone: re-acking less does nothing.
        b.ack_prefix(1).expect("stale ack is a no-op");
        assert_eq!(b.pending_len(), 1);
        assert_eq!(
            b.ack_prefix(9),
            Err(BridgeError::AckOverrun { sent: 3, acked: 9 })
        );
    }

    #[test]
    fn over_acking_is_detected() {
        let mut b = Bridge::new(BridgeRole::Client);
        b.record_send(SeqOp::identity(0));
        assert_eq!(
            b.integrate(SeqOp::identity(0), 5),
            Err(BridgeError::AckOverrun { sent: 1, acked: 5 })
        );
        // State untouched: a correct ack still works afterwards.
        assert_eq!(b.pending_len(), 1);
        assert!(b.integrate(SeqOp::identity(1), 1).is_ok());
    }
}
