//! The star's causality claim checked over *every* interleaving of small
//! scopes, not a seeded sample: `verify::explore`, a depth-first search
//! over `(StarWorld, StarAudit)` memoized on a digest of the protocol
//! state. Every move goes through `verify::step`, as in the seeded walks;
//! a state reached again adds the paths counted below it without walking
//! them.
//!
//! At 2 sites × 2 edits of the letter at 0, each site's own actions form
//! the poset edit < edit, edit_k < up_k, up < up, up_k < down_k (at the
//! other site), down < down, which has 5 linear extensions; the two
//! sites' 6 actions interleave freely, so there are 5 · 5 · C(12, 6) =
//! 23 100 paths, behind 607 states. Every path must end converged with no
//! verdict Definition 1 contradicts, and a run that flips the first
//! verdict fed to the audit must be caught exactly once on every path.

use cvc_reduce::verify::{explore, explore_checked, Edit, Explored, Scope};
use Edit::{LetterAtStart, WideAtEnd};

/// Explore (or, `checked`, explore and check the memo at every state
/// reached again) `sites` × `ops` over `menu`; states, terminal states and
/// paths by findings, with no terminal state diverged.
fn scope(sites: usize, ops: usize, menu: &[Edit], flip_first: bool, checked: bool) -> Explored {
    let menu = menu.to_vec();
    let scope = Scope {
        sites,
        ops,
        menu,
        flip_first,
    };
    let explored = if checked {
        explore_checked(&scope)
    } else {
        explore(&scope)
    };
    assert_eq!(explored.diverged, 0, "{explored:?}");
    explored
}

fn counts(e: Explored) -> (u64, u64, [u64; 3]) {
    (e.states, e.terminal_states, e.paths)
}

#[test]
fn every_interleaving_of_two_sites_by_two_ops_is_causally_exact() {
    let explored = scope(2, 2, &[LetterAtStart], false, false);
    assert_eq!(counts(explored), (607, 50, [23_100, 0, 0]));
}

#[test]
fn a_flipped_first_verdict_is_caught_on_every_path() {
    let explored = scope(2, 2, &[LetterAtStart], true, false);
    assert_eq!(counts(explored), (607, 50, [0, 23_100, 0]));
}

/// The memo checked: wherever two paths meet in one digest, every move
/// from there does the same — verdicts, findings, queued bytes — from
/// either node.
#[test]
fn every_interleaving_of_the_three_edit_menu_is_causally_exact() {
    let explored = scope(2, 2, &Edit::MENU, false, true);
    assert_eq!(counts(explored), (6_323, 698, [850_592, 0, 0]));
}

/// A wide letter in the menu: the first `WideAtEnd` of a path widens each
/// replica's and the notifier's document from a byte to a `char` per
/// character, its insert travels as two UTF-8 bytes, and every op closed
/// on an implied tail counts that tail in `char`s. Every terminal state
/// converges, memo checked; each of the 2 × 2 scope's 23 100 paths is
/// taken with each of the 2⁴ edit choices.
#[test]
fn every_interleaving_across_the_widening_converges() {
    let explored = scope(2, 2, &[LetterAtStart, WideAtEnd], false, true);
    assert_eq!(counts(explored), (8_121, 800, [369_600, 0, 0]));
}

/// Release build, 2 cores: about two and a half minutes.
#[test]
#[ignore = "minutes in release; CI runs it with --include-ignored"]
fn three_sites_by_two_ops() {
    let explored = scope(3, 2, &[LetterAtStart], false, false);
    let paths = [24_545_782_228_422, 0, 0];
    assert_eq!(counts(explored), (1_225_062, 16_206, paths));
}

/// Release build, 2 cores: about a minute and a half.
#[test]
#[ignore = "minutes in release; CI runs it with --include-ignored"]
fn two_sites_by_three_ops_of_the_three_edit_menu() {
    let explored = scope(2, 3, &Edit::MENU, false, false);
    assert_eq!(
        counts(explored),
        (1_310_880, 105_704, [25_075_444_696, 0, 0])
    );
}
