//! The star's causality claim checked over *every* interleaving of a tiny
//! scope, not a seeded sample: a depth-first search that clones
//! `(StarWorld, StarAudit)` at each branch. Two sites make two edits each,
//! every edit an insert of the site's letter at position 0; the enabled
//! actions are the world's `StarWorld::moves`, the list `verify::walk_star`
//! draws from (edit while budget is left, deliver up or down while that
//! channel holds a message).
//!
//! Each site's own actions form the poset edit < edit, edit_k < up_k,
//! up < up, up_k < down_k (at the other site), down < down, which has 5
//! linear extensions; the two sites' 6 actions interleave freely, so there
//! are 5 · 5 · C(12, 6) = 23 100 terminal interleavings. Every one must
//! converge with no verdict Definition 1 contradicts, and a run that flips
//! the first verdict fed to the audit must be caught on every path.
//!
//! Debug build on a 2-core Xeon: about 2.8 s for both searches run in
//! parallel, 3.9 s one after the other.

use cvc_reduce::audit::StarAudit;
use cvc_reduce::core::NotifierCore;
use cvc_reduce::notifier::Notifier;
use cvc_reduce::world::{Move, StarWorld};

const SITES: usize = 2;
const OPS: usize = 2;

/// One node of the search: the world, its audit, and what the path so
/// far has cost.
#[derive(Clone)]
struct Node {
    world: StarWorld,
    audit: StarAudit,
    budget: [usize; SITES],
    /// Flip the next verdict fed to the audit (the mutated run).
    flip: bool,
    /// Findings the audit returned along this path.
    findings: usize,
}

#[derive(Default, Debug, PartialEq, Eq)]
struct Tally {
    terminals: u64,
    /// Terminal paths by the number of findings along them.
    by_findings: [u64; 3],
    diverged: u64,
}

impl Node {
    fn new(flip: bool) -> Self {
        let core = NotifierCore::new(Notifier::new(SITES, ""), None, None);
        Node {
            world: StarWorld::new(core),
            audit: StarAudit::default(),
            budget: [OPS; SITES],
            flip,
            findings: 0,
        }
    }

    /// In the mutated run, flip the first of `verdicts`, once per path.
    fn mutate(&mut self, verdicts: &mut [bool]) {
        if let (true, Some(v)) = (self.flip, verdicts.first_mut()) {
            *v = !*v;
            self.flip = false;
        }
    }

    fn step(&mut self, m: Move) {
        let found = match m {
            Move::Edit(site) => {
                self.budget[site.client_index()] -= 1;
                let letter = char::from(b'a' + site.client_index() as u8).to_string();
                let stamp = self.world.edit(site, |c| Ok(c.insert(0, &letter)));
                self.audit.generate((site, stamp.expect("a member").get(2)));
                0
            }
            Move::Up(site) => {
                let out = self.world.deliver_up(site).expect("valid op");
                let mut out = out.expect("queued");
                let mut verdicts = out.full_verdicts();
                self.mutate(&mut verdicts);
                (out.first_checked, out.checked) = (0, verdicts);
                let found = self.audit.notifier_integrated(self.world.notifier(), &out);
                found.expect("every op was generated").len()
            }
            Move::Down(site) => {
                let out = self.world.deliver_down(site).expect("valid op");
                let mut out = out.expect("queued");
                self.mutate(&mut out.checked);
                let client = self.world.client(site).expect("a member");
                let found = self.audit.client_integrated(client, &out);
                found.expect("every broadcast was integrated").len()
            }
        };
        self.findings += found;
    }
}

fn explore(node: Node, tally: &mut Tally) {
    let moves = node.world.moves(&node.budget);
    if moves.is_empty() {
        tally.terminals += 1;
        tally.by_findings[node.findings.min(2)] += 1;
        let doc = node.world.notifier().doc();
        if !node.world.clients().all(|c| c.doc() == doc) {
            tally.diverged += 1;
        }
        return;
    }
    for m in moves {
        let mut next = node.clone();
        next.step(m);
        explore(next, tally);
    }
}

#[test]
fn every_interleaving_of_two_sites_by_two_ops_is_causally_exact() {
    let mut tally = Tally::default();
    explore(Node::new(false), &mut tally);
    assert_eq!(
        tally,
        Tally {
            terminals: 23_100,
            by_findings: [23_100, 0, 0],
            diverged: 0,
        }
    );
}

#[test]
fn a_flipped_first_verdict_is_caught_on_every_path() {
    let mut tally = Tally::default();
    explore(Node::new(true), &mut tally);
    assert_eq!(
        tally,
        Tally {
            terminals: 23_100,
            by_findings: [0, 23_100, 0],
            diverged: 0,
        }
    );
}
