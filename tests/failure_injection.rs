//! Failure injection: the paper's scheme assumes FIFO (TCP) channels and a
//! fixed star — these tests deliver reordered, duplicated, dropped, and
//! corrupt messages and assert the engines *detect* each violation through
//! the stamp arithmetic instead of silently diverging, and that a detected
//! violation leaves the replica state untouched (the connection can be
//! re-established and the stream resumed).

use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use cvc_ot::pos::PosOp;
use cvc_ot::seq::SeqOp;
use cvc_reduce::client::Client;
use cvc_reduce::error::ProtocolError;
use cvc_reduce::msg::{ClientOpMsg, ServerOpMsg};
use cvc_reduce::notifier::Notifier;

/// Build a 3-client session where sites 2 and 3 each sent one op through
/// the notifier; returns the notifier and the two broadcasts for site 1.
fn session_with_two_broadcasts() -> (Notifier, Client, Vec<ServerOpMsg>) {
    let mut notifier = Notifier::new(3, "abc");
    let client1 = Client::new(SiteId(1), "abc");
    let mut for_site1 = Vec::new();
    let out = notifier
        .try_on_client_op_outcome(ClientOpMsg {
            origin: SiteId(2),
            stamp: CompressedStamp::new(0, 1),
            op: SeqOp::from_pos(&PosOp::insert(3, "d"), 3),
            cursor: None,
        })
        .expect("valid client op");
    for_site1.extend(
        out.broadcast_msgs()
            .into_iter()
            .filter_map(|(d, m)| (d == SiteId(1)).then_some(m)),
    );
    let out = notifier
        .try_on_client_op_outcome(ClientOpMsg {
            origin: SiteId(3),
            stamp: CompressedStamp::new(1, 1),
            op: SeqOp::from_pos(&PosOp::insert(4, "e"), 4),
            cursor: None,
        })
        .expect("valid client op");
    for_site1.extend(
        out.broadcast_msgs()
            .into_iter()
            .filter_map(|(d, m)| (d == SiteId(1)).then_some(m)),
    );
    assert_eq!(for_site1.len(), 2);
    (notifier, client1, for_site1)
}

#[test]
fn reordered_server_stream_is_detected_and_recoverable() {
    let (_n, mut client, msgs) = session_with_two_broadcasts();
    // Deliver the second broadcast first.
    let err = client.try_on_server_op(msgs[1].clone()).unwrap_err();
    assert!(matches!(
        err,
        ProtocolError::FifoViolation {
            expected: 1,
            got: 2,
            ..
        }
    ));
    // The failed delivery changed nothing: the correct order still works.
    assert_eq!(client.doc(), "abc");
    client.try_on_server_op(msgs[0].clone()).expect("in order");
    client.try_on_server_op(msgs[1].clone()).expect("in order");
    assert_eq!(client.doc(), "abcde");
}

#[test]
fn duplicated_server_message_is_detected() {
    let (_n, mut client, msgs) = session_with_two_broadcasts();
    client
        .try_on_server_op(msgs[0].clone())
        .expect("first copy");
    let err = client.try_on_server_op(msgs[0].clone()).unwrap_err();
    assert!(matches!(
        err,
        ProtocolError::FifoViolation {
            expected: 2,
            got: 1,
            ..
        }
    ));
    assert_eq!(client.doc(), "abcd", "duplicate must not re-apply");
}

#[test]
fn dropped_client_message_is_detected_at_the_notifier() {
    let mut notifier = Notifier::new(2, "abc");
    let mut client = Client::new(SiteId(1), "abc");
    let first = client.insert(0, "x");
    let second = client.insert(0, "y");
    // First message lost in transit; second arrives.
    drop(first);
    let err = notifier.try_on_client_op_outcome(second).unwrap_err();
    assert!(matches!(
        err,
        ProtocolError::FifoViolation {
            expected: 1,
            got: 2,
            ..
        }
    ));
    assert_eq!(notifier.doc(), "abc");
}

#[test]
fn replayed_client_message_is_detected() {
    let mut notifier = Notifier::new(2, "abc");
    let mut client = Client::new(SiteId(1), "abc");
    let msg = client.insert(3, "!");
    notifier
        .try_on_client_op_outcome(msg.clone())
        .expect("first copy");
    let err = notifier.try_on_client_op_outcome(msg).unwrap_err();
    assert!(matches!(
        err,
        ProtocolError::FifoViolation {
            expected: 2,
            got: 1,
            ..
        }
    ));
    assert_eq!(notifier.doc(), "abc!", "replay must not re-apply");
}

#[test]
fn corrupt_operation_payload_is_detected() {
    let mut notifier = Notifier::new(2, "abc");
    // Valid stamps, but the operation consumes the wrong base length.
    let err = notifier
        .try_on_client_op_outcome(ClientOpMsg {
            origin: SiteId(1),
            stamp: CompressedStamp::new(0, 1),
            op: SeqOp::from_pos(&PosOp::insert(9, "x"), 9),
            cursor: None,
        })
        .unwrap_err();
    assert!(matches!(err, ProtocolError::BadOperation(_)));
    assert_eq!(notifier.doc(), "abc");
    // A subsequent valid op from the same client is rejected too (the
    // corrupt one consumed the sequence number)… unless the sender
    // retransmits with the same sequence — which works, because the
    // failed integration did not advance any counter.
    let ok = notifier.try_on_client_op_outcome(ClientOpMsg {
        origin: SiteId(1),
        stamp: CompressedStamp::new(0, 1),
        op: SeqOp::from_pos(&PosOp::insert(3, "x"), 3),
        cursor: None,
    });
    assert!(ok.is_ok(), "retransmission with the same seq must succeed");
    assert_eq!(notifier.doc(), "abcx");
}

#[test]
fn forged_acknowledgement_is_detected() {
    let mut notifier = Notifier::new(2, "ab");
    let err = notifier
        .try_on_client_op_outcome(ClientOpMsg {
            origin: SiteId(2),
            stamp: CompressedStamp::new(7, 1), // claims 7 broadcasts seen
            op: SeqOp::identity(2),
            cursor: None,
        })
        .unwrap_err();
    assert!(matches!(
        err,
        ProtocolError::AckOverrun {
            sent: 0,
            acked: 7,
            ..
        }
    ));
}

#[test]
fn message_from_outside_the_session_is_detected() {
    let mut notifier = Notifier::new(2, "ab");
    for bad in [SiteId(0), SiteId(3), SiteId(99)] {
        let err = notifier
            .try_on_client_op_outcome(ClientOpMsg {
                origin: bad,
                stamp: CompressedStamp::new(0, 1),
                op: SeqOp::identity(2),
                cursor: None,
            })
            .unwrap_err();
        assert!(
            matches!(err, ProtocolError::UnknownSite { .. }),
            "{bad} should be rejected"
        );
    }
}

/// Recovery story: a client whose channel broke (detected via the FIFO
/// check) re-joins through the membership machinery — it leaves, joins as
/// a fresh site with a snapshot, and the session continues convergent.
#[test]
fn broken_client_recovers_by_rejoining() {
    let mut notifier = Notifier::new(2, "state");
    let mut c1 = Client::new(SiteId(1), "state");
    let mut c2 = Client::new(SiteId(2), "state");

    // Healthy traffic first.
    let m = c1.insert(5, "!");
    for (d, s) in notifier
        .try_on_client_op_outcome(m)
        .expect("valid client op")
        .broadcast_msgs()
    {
        assert_eq!(d, SiteId(2));
        c2.try_on_server_op(s).expect("valid server op");
    }

    // c2's downstream breaks: a message is lost, the next one trips the
    // FIFO check.
    let m = c1.insert(6, "?");
    let (d, lost_then_next) = notifier
        .try_on_client_op_outcome(m)
        .expect("valid client op")
        .broadcast_msgs()
        .into_iter()
        .next()
        .unwrap();
    assert_eq!(d, SiteId(2));
    // Simulate the loss of an earlier message by corrupting the expected
    // counter: deliver the same message twice (replay ⇒ FIFO violation).
    c2.try_on_server_op(lost_then_next.clone())
        .expect("valid server op");
    let err = c2.try_on_server_op(lost_then_next).unwrap_err();
    assert!(matches!(err, ProtocolError::FifoViolation { .. }));

    // Recovery: c2 leaves and rejoins as a fresh site with a snapshot.
    notifier.quarantine(SiteId(2)).expect("c2 is a member");
    let (new_site, snapshot) = notifier.add_client();
    assert_eq!(new_site, SiteId(3));
    let mut c2b = Client::new(new_site, &snapshot);
    assert_eq!(c2b.doc(), notifier.doc());

    // The session continues: both remaining members converge.
    let m = c2b.insert(0, ">> ");
    for (d, s) in notifier
        .try_on_client_op_outcome(m)
        .expect("valid client op")
        .broadcast_msgs()
    {
        assert_eq!(d, SiteId(1));
        c1.try_on_server_op(s).expect("valid server op");
    }
    let m = c1.insert(0, "# ");
    for (d, s) in notifier
        .try_on_client_op_outcome(m)
        .expect("valid client op")
        .broadcast_msgs()
    {
        assert_eq!(d, new_site);
        c2b.try_on_server_op(s).expect("valid server op");
    }
    assert_eq!(c1.doc(), c2b.doc());
    assert_eq!(c1.doc(), notifier.doc());
    assert_eq!(c1.doc(), "# >> state!?");
}

#[test]
fn departed_client_messages_are_detected() {
    let mut notifier = Notifier::new(3, "ab");
    let mut client2 = Client::new(SiteId(2), "ab");
    let msg = client2.insert(0, "z");
    notifier.quarantine(SiteId(2)).expect("site 2 is a member");
    let err = notifier.try_on_client_op_outcome(msg).unwrap_err();
    assert!(matches!(
        err,
        ProtocolError::DepartedSite { site: SiteId(2) }
    ));
}
