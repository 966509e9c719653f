//! The heap calls a quiet replica's receive path makes per message.
//!
//! A site that never edits has nothing concurrent with an arriving
//! broadcast (formula (5) over an empty history), so executing it should
//! cost the apply and a few integer updates. These are exact counts,
//! made on the calling thread only; "before" is the parent of the change
//! that set them:
//!
//! | per message                              | before | now |
//! |------------------------------------------|--------|-----|
//! | decode a single-char `ServerOp` insert   | 3      | 2   |
//! | decode a `ServerOp` delete               | 1      | 1   |
//! | quiet execute + `gc` of that insert      | 2      | 0   |
//! | quiet execute + `gc` of that delete      | 1      | 0   |
//! | encode a WAL op record into a warm buffer | 2     | 0   |
//! | size a WAL op record                     | 2      | 0   |
//!
//! Before, the decoder copied the decoded insert text into the op a
//! second time, and the client copied every executed op into its history
//! buffer only for the next `gc` to free it. A decode now makes the op's
//! one component vector and, for an insert, its text; a delete was
//! already at that floor. The same floor holds inside a compound frame,
//! whose stamps travel as deltas and whose carets at the edit end travel
//! as a bare cursor tag: the frame adds its message list and nothing per
//! message. A WAL op record used to be sized and written through a
//! cloned `EditorMsg::ClientOp` (the op's component vector and insert
//! text); it now shares the message's field writer by reference.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{tally, Tally};
use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use cvc_ot::pos::PosOp;
use cvc_ot::seq::SeqOp;
use cvc_reduce::client::Client;
use cvc_reduce::msg::{
    decode_payload, write_compound, ClientOpMsg, EditorMsg, Payload, ServerOpMsg,
};
use cvc_reduce::wal::WalRecord;
use cvc_sim::wire::{WireDecode, WireEncode, WireSize};

const DOC: &str = "0123456789";

/// The wire bytes of the `k`-th broadcast a reader receives: site 2's
/// op, carrying site 2's caret.
fn server_op(k: u64, op: SeqOp) -> Vec<u8> {
    let msg = EditorMsg::ServerOp(ServerOpMsg {
        stamp: CompressedStamp::new(k, 0),
        op,
        cursor: Some((2, 1)),
    });
    let mut bytes = Vec::new();
    msg.encode(&mut bytes);
    bytes
}

fn decode(bytes: &[u8]) -> ServerOpMsg {
    let mut slice = bytes;
    match EditorMsg::decode(&mut slice) {
        Ok(EditorMsg::ServerOp(m)) if slice.is_empty() => m,
        other => panic!("not one server op: {other:?}"),
    }
}

fn insert_at(pos: usize, len: usize) -> SeqOp {
    SeqOp::from_pos(&PosOp::insert(pos, "x"), len)
}

fn delete_at(pos: usize, len: usize) -> SeqOp {
    SeqOp::from_pos(&PosOp::delete(pos, "x"), len)
}

/// A reader that has executed one broadcast already, so its history
/// buffer and caret table hold their first entries and the gap buffer
/// has room.
fn quiet_reader() -> Client {
    let mut c = Client::new(SiteId(3), DOC);
    c.try_on_server_op(decode(&server_op(1, insert_at(0, DOC.len()))))
        .expect("in order");
    c.gc();
    c
}

#[test]
fn decoding_a_server_op_allocates_its_op_and_nothing_else() {
    let insert = server_op(2, insert_at(3, 11));
    let delete = server_op(2, delete_at(3, 11));
    let (_, t) = tally(|| decode(&insert));
    assert_eq!(t.calls, 2, "component vector + insert text: {t:?}");
    let (_, t) = tally(|| decode(&delete));
    assert_eq!(t.calls, 1, "component vector: {t:?}");
}

#[test]
fn a_quiet_replica_executes_without_allocating() {
    let mut c = quiet_reader();
    for (k, op) in [(2, insert_at(3, 11)), (3, delete_at(5, 12))] {
        let msg = decode(&server_op(k, op));
        let (out, t) = tally(|| {
            let out = c.try_on_server_op(msg);
            c.gc();
            out
        });
        let out = out.expect("in order");
        assert!(out.checked.is_empty(), "nothing was in the history");
        assert_eq!(t, Tally::default(), "execute + gc of op {k}");
    }
    assert_eq!(c.doc(), "x01x2456789");
    assert_eq!(c.remote_carets().collect::<Vec<_>>(), vec![(2, 1)]);
}

#[test]
fn a_compound_decodes_at_the_single_message_floor() {
    // Carets at the edit end (tag 2); the second stamp a delta of 1.
    let at_end = |k: u64, op: SeqOp, pos: u64| {
        Payload::encode(&EditorMsg::ServerOp(ServerOpMsg {
            stamp: CompressedStamp::new(k, 0),
            op,
            cursor: Some((2, pos)),
        }))
    };
    let insert = at_end(2, insert_at(3, 11), 4);
    let delete = at_end(3, delete_at(3, 12), 3);
    let (insert_bytes, delete_bytes) = (insert.to_vec(), delete.to_vec());
    let (_, t) = tally(|| decode(&insert_bytes));
    assert_eq!(t.calls, 2, "tag-2 insert: component vector + text: {t:?}");
    let (_, t) = tally(|| decode(&delete_bytes));
    assert_eq!(t.calls, 1, "tag-2 delete: component vector: {t:?}");

    let mut frame = Vec::new();
    write_compound([insert, delete].iter(), &mut frame);
    let mut out = Vec::with_capacity(2);
    let (res, t) = tally(|| decode_payload([&frame, &[]], &mut out));
    assert_eq!(res, Ok(()));
    assert_eq!(
        t.calls,
        1 + 2 + 1,
        "message list + insert 2 + delete 1: {t:?}"
    );
    let stamps: Vec<_> = out
        .iter()
        .map(|m| match m {
            EditorMsg::ServerOp(o) => (o.stamp.get(1), o.cursor),
            other => panic!("{other:?}"),
        })
        .collect();
    assert_eq!(stamps, vec![(2, Some((2, 4))), (3, Some((2, 3)))]);
}

#[test]
fn a_wal_op_record_encodes_and_sizes_without_allocating() {
    let record = WalRecord::Op(ClientOpMsg {
        origin: SiteId(2),
        stamp: CompressedStamp::new(40, 7),
        op: insert_at(3, 11),
        cursor: Some(4),
    });
    let mut buf = Vec::with_capacity(64);
    let (len, t) = tally(|| record.wire_bytes());
    assert_eq!(t, Tally::default(), "sizing: {t:?}");
    let ((), t) = tally(|| record.encode(&mut buf));
    assert_eq!(t, Tally::default(), "encoding into a warm buffer: {t:?}");
    assert_eq!(buf.len(), len);
    // The record leaves the op's trailing retain implied; replay's door
    // closes it on the base it consumes (here its own).
    let mut slice: &[u8] = &buf;
    let mut back = WalRecord::decode(&mut slice);
    if let (Ok(WalRecord::Op(b)), WalRecord::Op(m)) = (&mut back, &record) {
        b.op.close_to(m.op.base_len()).expect("fits its own base");
    }
    assert_eq!(back, Ok(record));
}
