//! Property test for the client's undo/redo stacks.
//!
//! `Client` keeps every inverse transformed into the current document
//! frame by sweeping both stacks with `SeqOp::rebase_all_over` on every
//! executed operation. This test keeps *shadow* stacks beside a live
//! client, maintained the plain way — `SeqOp::transform(inv, op).0` per
//! entry per executed op, inverses from the `String` twin
//! `SeqOp::invert` — and demands that every `undo_last_local` /
//! `redo_last` produce exactly the operation the shadow predicts, `None`s
//! included.
//!
//! Sessions are random interleavings of the subject's inserts and deletes,
//! undos and redos, a second client's concurrent edits, and deliveries in
//! all four directions (so server ops arrive both concurrent with pending
//! local ops and after acknowledging them); half of them start beyond
//! `MAX_UNDO_DEPTH`, and some adopt a notifier snapshot midway.

use std::collections::VecDeque;

use cvc_core::site::SiteId;
use cvc_ot::seq::SeqOp;
use cvc_reduce::client::{Client, MAX_UNDO_DEPTH};
use cvc_reduce::msg::{ClientOpMsg, ServerOpMsg};
use cvc_reduce::notifier::Notifier;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const INITIAL: &str = "thé quick brown fox";
const SUBJECT: SiteId = SiteId(1);

/// The eager reference: what `Client` did before it had a fast path.
#[derive(Default)]
struct Shadow {
    undo: VecDeque<SeqOp>,
    redo: VecDeque<SeqOp>,
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Fresh,
    Undo,
    Redo,
}

impl Shadow {
    fn ride(&mut self, op: &SeqOp) {
        for inv in self.undo.iter_mut().chain(&mut self.redo) {
            *inv = SeqOp::transform(inv, op).expect("stack frame").0;
        }
    }

    /// The subject executed `op` locally on `doc_before`.
    fn local(&mut self, op: &SeqOp, doc_before: &str, kind: Kind) {
        let inverse = op.invert(doc_before).expect("op fits its pre-state");
        if kind == Kind::Fresh {
            self.redo.clear();
        }
        self.ride(op);
        let stack = if kind == Kind::Undo {
            &mut self.redo
        } else {
            &mut self.undo
        };
        stack.push_back(inverse);
        if stack.len() > MAX_UNDO_DEPTH {
            stack.pop_front();
        }
    }

    /// What the next undo (or redo) must produce.
    fn predict(&mut self, kind: Kind) -> Option<SeqOp> {
        let stack = if kind == Kind::Undo {
            &mut self.undo
        } else {
            &mut self.redo
        };
        stack.pop_back().filter(|op| !op.is_noop())
    }
}

struct World {
    notifier: Notifier,
    clients: [Client; 2],
    up: [VecDeque<ClientOpMsg>; 2],
    down: [VecDeque<ServerOpMsg>; 2],
    shadow: Shadow,
}

impl World {
    fn edit(&mut self, who: usize, rng: &mut SmallRng) {
        let c = &mut self.clients[who];
        let len = c.doc_len();
        let doc_before = c.doc();
        let msg = if len == 0 || rng.gen_range(0..3u8) > 0 {
            let text: String = (0..rng.gen_range(1..=3usize))
                .map(|_| ['a', 'b', 'é', 'λ'][rng.gen_range(0..4usize)])
                .collect();
            c.insert(rng.gen_range(0..=len), &text)
        } else {
            let pos = rng.gen_range(0..len);
            c.delete(pos, rng.gen_range(1..=(len - pos).min(3)))
        };
        if who == 0 {
            self.shadow.local(&msg.op, &doc_before, Kind::Fresh);
        }
        self.up[who].push_back(msg);
    }

    fn undo_or_redo(&mut self, kind: Kind) -> proptest::TestCaseResult {
        let subject = &mut self.clients[0];
        let doc_before = subject.doc();
        let want = self.shadow.predict(kind);
        let got = match kind {
            Kind::Undo => subject.undo_last_local(),
            _ => subject.redo_last(),
        };
        prop_assert_eq!(got.as_ref().map(|m| &m.op), want.as_ref());
        if let Some(msg) = got {
            self.shadow.local(&msg.op, &doc_before, kind);
            self.up[0].push_back(msg);
        }
        Ok(())
    }

    fn deliver_up(&mut self, who: usize) {
        let Some(msg) = self.up[who].pop_front() else {
            return;
        };
        for (dest, m) in self
            .notifier
            .try_on_client_op_outcome(msg)
            .expect("valid client op")
            .broadcast_msgs()
        {
            self.down[dest.client_index()].push_back(m);
        }
    }

    fn deliver_down(&mut self, who: usize) {
        let Some(msg) = self.down[who].pop_front() else {
            return;
        };
        let executed = self.clients[who]
            .try_on_server_op(msg)
            .expect("valid server op")
            .executed;
        self.clients[who].gc();
        if who == 0 {
            self.shadow.ride(&executed);
        }
    }

    /// The subject loses its replica and rebuilds it from the notifier:
    /// whatever was in flight either way is covered by, or abandoned for,
    /// the snapshot, and both stacks start over.
    fn adopt(&mut self) {
        let (doc, sent, received) = self
            .notifier
            .resync_snapshot_for(SUBJECT)
            .expect("the subject is a member");
        self.clients[0].adopt_snapshot(&doc, sent, received);
        self.up[0].clear();
        self.down[0].clear();
        self.shadow = Shadow::default();
    }
}

fn drive(
    seed: u64,
    typed_first: usize,
    steps: usize,
    adopt_at: Option<usize>,
) -> proptest::TestCaseResult {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut w = World {
        notifier: Notifier::new(2, INITIAL),
        clients: [
            Client::new(SUBJECT, INITIAL),
            Client::new(SiteId(2), INITIAL),
        ],
        up: Default::default(),
        down: Default::default(),
        shadow: Shadow::default(),
    };
    for _ in 0..typed_first {
        w.edit(0, &mut rng);
    }
    for step in 0..steps {
        if adopt_at == Some(step) {
            w.adopt();
        }
        match rng.gen_range(0..12u8) {
            0..=2 => w.edit(0, &mut rng),
            3 => w.edit(1, &mut rng),
            4 | 5 => w.undo_or_redo(Kind::Undo)?,
            6 => w.undo_or_redo(Kind::Redo)?,
            7 => w.deliver_up(0),
            8 => w.deliver_up(1),
            9 | 10 => w.deliver_down(0),
            _ => w.deliver_down(1),
        }
    }
    // Quiesce, then walk both stacks to the bottom: every entry the
    // session left behind is compared, not only the ones it happened to
    // pop.
    while w.up.iter().any(|q| !q.is_empty()) || w.down.iter().any(|q| !q.is_empty()) {
        for who in 0..2 {
            w.deliver_up(who);
            w.deliver_down(who);
        }
    }
    while !w.shadow.redo.is_empty() {
        w.undo_or_redo(Kind::Redo)?;
    }
    prop_assert!(w.clients[0].redo_last().is_none());
    while !w.shadow.undo.is_empty() {
        w.undo_or_redo(Kind::Undo)?;
    }
    prop_assert!(w.clients[0].undo_last_local().is_none());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn undo_and_redo_ops_match_eager_shadow_stacks(
        seed in any::<u64>(),
        typed_first in prop_oneof![Just(0usize), Just(MAX_UNDO_DEPTH + 20)],
        steps in 0usize..160,
        adopt_at in proptest::option::of(0usize..160),
    ) {
        drive(seed, typed_first, steps, adopt_at)?;
    }
}
