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
//!
//! Before, the decoder copied the decoded insert text into the op a
//! second time, and the client copied every executed op into its history
//! buffer only for the next `gc` to free it. A decode now makes the op's
//! one component vector and, for an insert, its text; a delete was
//! already at that floor.

#[path = "support/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{tally, Tally};
use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use cvc_ot::pos::PosOp;
use cvc_ot::seq::SeqOp;
use cvc_reduce::client::Client;
use cvc_reduce::msg::{EditorMsg, ServerOpMsg};
use cvc_sim::wire::{WireDecode, WireEncode};

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
