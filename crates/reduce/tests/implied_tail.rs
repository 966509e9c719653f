//! An op travels without its trailing retain, and each door that knows
//! the base closes it there.
//!
//! The wire (and the log, whose op records are the upstream wire format)
//! leaves out an op's final `Retain`: the rest of the document, which the
//! receiver computes anyway to check the op's base. Three doors close it
//! with [`SeqOp::close_to`] — [`Client::try_on_server_op`],
//! [`Notifier::try_on_client_op_outcome`] (behind
//! [`NotifierCore::integrate_op`]) and [`ComposingClient::on_server_op`] —
//! and each is held here to four claims:
//!
//! * a decoded open op executes byte-identically to the full op the
//!   parent format carried;
//! * an op reaching past the base is refused, the replica (and the log)
//!   untouched;
//! * the parent format's full-tail bytes still decode and integrate;
//! * a caret at an explicit position (cursor kind 1) keeps its op's tail,
//!   so a caret on the last character of the post-state decodes and one
//!   past it is still refused at decode.
//!
//! Closing makes no heap call: the decoder reserves the slot the retain
//! takes.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{tally, Tally};
use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use cvc_ot::pos::PosOp;
use cvc_ot::seq::{Component, SeqError, SeqOp};
use cvc_reduce::client::Client;
use cvc_reduce::composing::ComposingClient;
use cvc_reduce::core::NotifierCore;
use cvc_reduce::error::ProtocolError;
use cvc_reduce::msg::{decode_payload, ClientOpMsg, EditorMsg, ServerOpMsg};
use cvc_reduce::notifier::Notifier;
use cvc_reduce::wal::Wal;
use cvc_sim::wire::{put_varint, WireEncode, WireError};

const DOC: &str = "abcdefghij";

/// `insert(pos, "x")` on a `len`-character document: the full op.
fn insert_x(pos: usize, len: usize) -> SeqOp {
    SeqOp::from_pos(&PosOp::insert(pos, "x"), len)
}

fn encode(msg: &EditorMsg) -> Vec<u8> {
    let mut bytes = Vec::new();
    msg.encode(&mut bytes);
    bytes
}

fn decode(bytes: &[u8]) -> Result<EditorMsg, WireError> {
    let mut out = Vec::new();
    decode_payload([bytes, &[]], &mut out)?;
    assert_eq!(out.len(), 1, "one message");
    Ok(out.remove(0))
}

/// The bytes the parent format wrote for an op message whose caret is
/// absent (`cursor_kind` 0) or at the edit end (2): every component, the
/// trailing retain included.
fn with_tail(msg: &EditorMsg, cursor_kind: u64) -> Vec<u8> {
    let mut b = Vec::new();
    let (op, owner) = match msg {
        EditorMsg::ClientOp(m) => {
            b.push(1);
            put_varint(&mut b, u64::from(m.origin.0));
            put_varint(&mut b, m.stamp.get(1));
            put_varint(&mut b, m.stamp.get(2));
            (&m.op, None)
        }
        EditorMsg::ServerOp(m) => {
            b.push(2);
            put_varint(&mut b, m.stamp.get(1));
            put_varint(&mut b, m.stamp.get(2));
            (&m.op, m.cursor.map(|(owner, _)| owner))
        }
        other => panic!("not an op: {other:?}"),
    };
    put_varint(&mut b, (op.components().len() as u64) << 2 | cursor_kind);
    for c in op.components() {
        match c {
            Component::Retain(n) => put_varint(&mut b, (*n as u64) << 2),
            Component::Insert(s) => {
                put_varint(&mut b, (s.len() as u64) << 2 | 1);
                b.extend_from_slice(s.as_bytes());
            }
            Component::Delete(n) => put_varint(&mut b, (*n as u64) << 2 | 2),
        }
    }
    if let Some(owner) = owner {
        put_varint(&mut b, u64::from(owner));
    }
    b
}

fn server_op(msg: EditorMsg) -> ServerOpMsg {
    match msg {
        EditorMsg::ServerOp(m) => m,
        other => panic!("not a server op: {other:?}"),
    }
}

fn client_op(msg: EditorMsg) -> ClientOpMsg {
    match msg {
        EditorMsg::ClientOp(m) => m,
        other => panic!("not a client op: {other:?}"),
    }
}

/// The refusal an op reaching `reach` characters into a `base`-character
/// document meets at its door.
fn reach_past(reach: usize, base: usize) -> ProtocolError {
    ProtocolError::BadOperation(SeqError::BaseLengthMismatch {
        expected: reach,
        got: base,
    })
}

/// A replica's state with its protocol-error counter, the one thing a
/// refusal may move, zeroed.
fn image(debug: impl std::fmt::Debug) -> String {
    format!("{debug:?}").replace("protocol_errors: 1", "protocol_errors: 0")
}

#[test]
fn a_clients_door_closes_an_open_broadcast() {
    // A broadcast typed mid-document by site 2, its caret at the edit end.
    let full = EditorMsg::ServerOp(ServerOpMsg {
        stamp: CompressedStamp::new(1, 0),
        op: insert_x(4, DOC.len()),
        cursor: Some((2, 5)),
    });
    let open = encode(&full);
    let parent = with_tail(&full, 2);
    assert_eq!(open.len() + 1, parent.len(), "the tail's one-byte retain");
    let decoded = server_op(decode(&open).expect("decodes"));
    assert_eq!(decoded.op.components().len(), 2, "retain · insert, no tail");

    // Open, full-tail and in-memory full: the same execution, byte for
    // byte.
    let run = |msg: ServerOpMsg| {
        let mut c = Client::new(SiteId(1), DOC);
        let out = c.try_on_server_op(msg).expect("integrates");
        (c.doc(), out.executed, c.remote_carets().collect::<Vec<_>>())
    };
    let expect = run(server_op(full.clone()));
    assert_eq!(expect.0, "abcdxefghij");
    assert_eq!(run(decoded.clone()), expect);
    assert_eq!(
        run(server_op(decode(&parent).expect("parent bytes"))),
        expect
    );

    // Behind a pending local edit the base is the edit's, not the doc's.
    let mut c = Client::new(SiteId(1), DOC);
    c.local_edit(insert_x(0, DOC.len()));
    c.try_on_server_op(decoded)
        .expect("closes on the pending op's base");
    assert_eq!(c.doc(), "xabcdxefghij");

    // An op reaching past the base is refused; the replica is untouched.
    let mut c = Client::new(SiteId(1), DOC);
    let before = image(&c);
    let long = server_op(
        decode(&encode(&EditorMsg::ServerOp(ServerOpMsg {
            stamp: CompressedStamp::new(1, 0),
            op: insert_x(12, 12),
            cursor: None,
        })))
        .expect("decodes"),
    );
    assert_eq!(long.op.base_len(), 12);
    assert_eq!(c.try_on_server_op(long).unwrap_err(), reach_past(12, 10));
    assert_eq!(image(&c), before);
    assert_eq!(c.metrics().protocol_errors, 1);
}

#[test]
fn a_notifiers_door_closes_an_open_op_and_logs_it_open() {
    let core = || NotifierCore::new(Notifier::new(2, DOC), Some(Wal::new(0)), None);
    let full = EditorMsg::ClientOp(ClientOpMsg {
        origin: SiteId(1),
        stamp: CompressedStamp::new(0, 1),
        op: insert_x(4, DOC.len()),
        cursor: Some(5),
    });
    let open = encode(&full);
    let parent = with_tail(&full, 2);
    assert_eq!(open.len() + 1, parent.len(), "the tail's one-byte retain");

    // Open, full-tail and in-memory full: the same broadcast bytes, the
    // same document and the same log.
    let run = |msg: ClientOpMsg| {
        let mut c = core();
        let out = c.integrate_op(SiteId(1), msg).expect("integrates");
        let body = out.frame().payload_for(out.stamps[0].1).to_vec();
        let log = c.wal().expect("durable").bytes().to_vec();
        (c.notifier().doc(), body, log)
    };
    let expect = run(client_op(full.clone()));
    assert_eq!(expect.0, "abcdxefghij");
    assert_eq!(run(client_op(decode(&open).expect("decodes"))), expect);
    assert_eq!(
        run(client_op(decode(&parent).expect("parent bytes"))),
        expect
    );
    // The log holds the op open, as the wire carried it.
    assert!(
        expect.2.ends_with(&open),
        "the record is the upstream frame"
    );

    // An op reaching past the base is refused; the notifier and the log
    // are untouched.
    let mut c = core();
    c.integrate_op(SiteId(1), client_op(full))
        .expect("first op");
    let (before, log) = (
        image(c.notifier()),
        c.wal().expect("durable").bytes().to_vec(),
    );
    let long = ClientOpMsg {
        origin: SiteId(1),
        stamp: CompressedStamp::new(0, 2),
        op: insert_x(12, 12),
        cursor: None,
    };
    let long = client_op(decode(&encode(&EditorMsg::ClientOp(long))).expect("decodes"));
    assert_eq!(
        c.integrate_op(SiteId(1), long).unwrap_err(),
        reach_past(12, 11)
    );
    assert_eq!(image(c.notifier()), before);
    assert_eq!(c.wal().expect("durable").bytes(), &log[..]);
}

#[test]
fn a_composing_clients_door_closes_on_the_state_the_op_was_made_on() {
    let full = EditorMsg::ServerOp(ServerOpMsg {
        stamp: CompressedStamp::new(1, 0),
        op: insert_x(4, DOC.len()),
        cursor: None,
    });
    let open = encode(&full);
    let parent = with_tail(&full, 0);
    assert_eq!(open.len() + 1, parent.len(), "the tail's one-byte retain");

    // Concurrent with the in-flight op and a buffered one: the base is
    // the in-flight op's. Open, full-tail and full execute alike.
    let run = |msg: ServerOpMsg| {
        let mut c = ComposingClient::new(SiteId(1), DOC);
        c.insert(0, "p").expect("sent");
        assert!(c.insert(1, "q").is_none(), "buffered");
        let (executed, _) = c.on_server_op(msg).expect("integrates");
        (c.doc().to_owned(), executed)
    };
    let expect = run(server_op(full.clone()));
    assert_eq!(expect.0, "pqabcdxefghij");
    assert_eq!(run(server_op(decode(&open).expect("decodes"))), expect);
    assert_eq!(
        run(server_op(decode(&parent).expect("parent bytes"))),
        expect
    );

    // Acknowledging the in-flight op, the base is the buffer's.
    let mut c = ComposingClient::new(SiteId(1), DOC);
    c.insert(0, "p").expect("sent");
    assert!(c.insert(1, "q").is_none(), "buffered");
    let acked = server_op(
        decode(&encode(&EditorMsg::ServerOp(ServerOpMsg {
            stamp: CompressedStamp::new(1, 1),
            op: insert_x(5, 11),
            cursor: None,
        })))
        .expect("decodes"),
    );
    c.on_server_op(acked).expect("closes on the buffer's base");
    assert_eq!(c.doc(), "pqabcdxefghij");

    // An op reaching past the base is refused; the replica is untouched.
    let mut c = ComposingClient::new(SiteId(1), DOC);
    c.insert(0, "p").expect("sent");
    let before = image(&c);
    let long = ServerOpMsg {
        stamp: CompressedStamp::new(1, 0),
        op: insert_x(11, 11),
        cursor: None,
    };
    let long = server_op(decode(&encode(&EditorMsg::ServerOp(long))).expect("decodes"));
    assert_eq!(c.on_server_op(long).unwrap_err(), reach_past(11, 10));
    assert_eq!(image(&c), before);
}

/// A caret away from the edit end travels at its position, and its op
/// keeps the tail: the post-state bound checked at decode is the closed
/// op's, so the last position decodes and one more is refused, on either
/// kind of op message.
#[test]
fn a_kind_1_caret_keeps_its_tail_and_is_refused_past_the_post_state() {
    let op = insert_x(4, DOC.len());
    let end = op.target_len() as u64;
    for pos in [end, end + 1] {
        let down = EditorMsg::ServerOp(ServerOpMsg {
            stamp: CompressedStamp::new(1, 0),
            op: op.clone(),
            cursor: Some((2, pos)),
        });
        let up = EditorMsg::ClientOp(ClientOpMsg {
            origin: SiteId(1),
            stamp: CompressedStamp::new(0, 1),
            op: op.clone(),
            cursor: Some(pos),
        });
        for msg in [down, up] {
            let back = decode(&encode(&msg));
            if pos == end {
                assert_eq!(back, Ok(msg), "decoded whole, tail and all");
            } else {
                assert_eq!(back, Err(WireError::HostileLength(pos)));
            }
        }
    }
    // Executed at the client door, the caret lands where it was sent.
    let mut c = Client::new(SiteId(1), DOC);
    c.try_on_server_op(ServerOpMsg {
        stamp: CompressedStamp::new(1, 0),
        op,
        cursor: Some((2, end)),
    })
    .expect("integrates");
    assert_eq!(c.remote_carets().collect::<Vec<_>>(), vec![(2, 11)]);
}

/// Closing never reallocates: the decoder reserves the slot the door's
/// retain takes. A quiet reader closes and executes an open single-site
/// broadcast, an insert with its caret at the edit end or a delete with
/// none, without a heap call.
#[test]
fn closing_a_decoded_op_allocates_nothing() {
    let broadcast = |k: u64, op: SeqOp, cursor: Option<(u32, u64)>| {
        let msg = EditorMsg::ServerOp(ServerOpMsg {
            stamp: CompressedStamp::new(k, 0),
            op,
            cursor,
        });
        server_op(decode(&encode(&msg)).expect("decodes"))
    };
    // A reader that has executed one broadcast already, so its history
    // buffer and caret table hold their first entries and the gap buffer
    // has room.
    let mut c = Client::new(SiteId(3), DOC);
    c.try_on_server_op(broadcast(1, insert_x(0, 10), Some((2, 1))))
        .expect("in order");
    c.gc();
    let delete = SeqOp::from_pos(&PosOp::delete(5, "e"), 12);
    for (k, op, cursor) in [(2, insert_x(3, 11), Some((2, 4))), (3, delete, None)] {
        let len = op.base_len();
        // Decoded twice: closed alone, then closed and executed at the
        // door (a clone would not keep the decoder's reservation).
        let mut probe = broadcast(k, op.clone(), cursor).op;
        let tail = probe.components().last();
        assert!(!matches!(tail, Some(Component::Retain(_))), "sent open");
        let (closed, t) = tally(|| probe.close_to(len));
        assert_eq!((closed, t), (Ok(()), Tally::default()), "closing op {k}");
        let msg = broadcast(k, op, cursor);
        let (out, t) = tally(|| {
            let out = c.try_on_server_op(msg);
            c.gc();
            out
        });
        assert!(out.is_ok(), "op {k}: {out:?}");
        assert_eq!(t, Tally::default(), "close + execute + gc of op {k}");
    }
    assert_eq!(c.doc(), "xabxcefghij");
}
