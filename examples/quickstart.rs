//! Quickstart: three users collaborate through the compressed-vector-clock
//! star, using the library API directly (no simulator).
//!
//! ```text
//! cargo run --example quickstart
//! ```

use cvc_core::site::SiteId;
use cvc_reduce::client::Client;
use cvc_reduce::notifier::Notifier;

fn main() {
    // A session: the notifier (site 0) plus three editor replicas, all
    // starting from the same document.
    let initial = "ABCDE";
    let mut notifier = Notifier::new(3, initial);
    let mut alice = Client::new(SiteId(1), initial);
    let mut bob = Client::new(SiteId(2), initial);
    let mut carol = Client::new(SiteId(3), initial);

    println!("initial document: {initial:?}\n");

    // Alice and Bob edit *concurrently* — neither has seen the other's op.
    let from_alice = alice.insert(1, "12"); // the paper's O1
    let from_bob = bob.delete(2, 3); // the paper's O2 (deletes "CDE")
    println!(
        "alice (site 1) inserts \"12\" at 1   → her replica: {:?}",
        alice.doc()
    );
    println!(
        "bob   (site 2) deletes 3 chars at 2 → his replica: {:?}",
        bob.doc()
    );
    println!(
        "both ops carry a 2-element timestamp: alice {}, bob {}\n",
        from_alice.stamp, from_bob.stamp
    );

    // Bob's op reaches the notifier first; it executes, re-stamps per
    // destination, and re-broadcasts the *transformed* form.
    for (dest, msg) in notifier
        .try_on_client_op_outcome(from_bob)
        .expect("valid client op")
        .broadcast_msgs()
    {
        println!("notifier → site {}: op stamped {}", dest.0, msg.stamp);
        match dest.0 {
            1 => {
                alice.try_on_server_op(msg).expect("valid server op");
            }
            3 => {
                carol.try_on_server_op(msg).expect("valid server op");
            }
            _ => unreachable!(),
        }
    }
    // Then Alice's — concurrent with Bob's, so the notifier transforms it.
    for (dest, msg) in notifier
        .try_on_client_op_outcome(from_alice)
        .expect("valid client op")
        .broadcast_msgs()
    {
        println!("notifier → site {}: op stamped {}", dest.0, msg.stamp);
        match dest.0 {
            2 => {
                bob.try_on_server_op(msg).expect("valid server op");
            }
            3 => {
                carol.try_on_server_op(msg).expect("valid server op");
            }
            _ => unreachable!(),
        }
    }

    println!("\nafter propagation:");
    println!("  notifier: {:?}", notifier.doc());
    println!("  alice:    {:?}", alice.doc());
    println!("  bob:      {:?}", bob.doc());
    println!("  carol:    {:?}", carol.doc());

    assert_eq!(alice.doc(), "A12B");
    assert_eq!(alice.doc(), bob.doc());
    assert_eq!(alice.doc(), carol.doc());
    assert_eq!(alice.doc(), notifier.doc());
    println!("\nall replicas converged on the intention-preserved result — and no");
    println!("message ever carried more than two timestamp integers.");
}
