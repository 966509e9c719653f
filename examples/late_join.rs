//! Dynamic membership: a user joins an editing session that is already in
//! full swing — the feature the paper's web demonstrator advertised
//! ("allows an arbitrary number of users to participate").
//!
//! The join is linearised at the notifier: the newcomer receives the
//! current document as a snapshot, a fresh site id, and pair counters that
//! start at zero. Its timestamps are still just two integers.
//!
//! ```text
//! cargo run --example late_join
//! ```

use cvc_core::site::SiteId;
use cvc_reduce::client::Client;
use cvc_reduce::notifier::Notifier;

fn main() {
    let mut notifier = Notifier::new(2, "fn main() {}");
    let mut alice = Client::new(SiteId(1), "fn main() {}");
    let mut bob = Client::new(SiteId(2), "fn main() {}");
    println!("session starts with alice and bob: {:?}\n", notifier.doc());

    // Some editing happens before anyone else shows up.
    let m = alice.insert(11, " println!(\"hi\"); ");
    for (dest, s) in notifier
        .try_on_client_op_outcome(m)
        .expect("valid client op")
        .broadcast_msgs()
    {
        assert_eq!(dest, SiteId(2));
        bob.try_on_server_op(s).expect("valid server op");
    }
    println!("alice adds a body: {:?}", notifier.doc());

    // Carol joins mid-session: she gets the current document as her
    // snapshot and a fresh site id.
    let (carol_site, snapshot) = notifier.add_client();
    let mut carol = Client::new(carol_site, &snapshot);
    println!("\ncarol joins as {carol_site} with snapshot {snapshot:?}");

    // Carol and bob now edit concurrently.
    let from_carol = carol.insert(0, "// carol was here\n");
    let from_bob = bob.insert(snapshot.chars().count(), " // bob");
    println!(
        "carol's first op is stamped {} — two integers, as always",
        from_carol.stamp
    );

    for (dest, s) in notifier
        .try_on_client_op_outcome(from_carol)
        .expect("valid client op")
        .broadcast_msgs()
    {
        match dest.0 {
            1 => {
                alice.try_on_server_op(s).expect("valid server op");
            }
            2 => {
                bob.try_on_server_op(s).expect("valid server op");
            }
            _ => unreachable!(),
        }
    }
    for (dest, s) in notifier
        .try_on_client_op_outcome(from_bob)
        .expect("valid client op")
        .broadcast_msgs()
    {
        match dest.0 {
            1 => {
                alice.try_on_server_op(s).expect("valid server op");
            }
            3 => {
                carol.try_on_server_op(s).expect("valid server op");
            }
            _ => unreachable!(),
        }
    }

    println!("\nafter propagation:");
    println!("  notifier: {:?}", notifier.doc());
    println!("  alice:    {:?}", alice.doc());
    println!("  bob:      {:?}", bob.doc());
    println!("  carol:    {:?}", carol.doc());
    assert_eq!(alice.doc(), notifier.doc());
    assert_eq!(bob.doc(), notifier.doc());
    assert_eq!(carol.doc(), notifier.doc());

    // Bob leaves; the session shrinks but keeps working.
    notifier.quarantine(SiteId(2)).expect("bob is a member");
    let m = alice.insert(0, "#![allow(fun)]\n");
    let out = notifier
        .try_on_client_op_outcome(m)
        .expect("valid client op");
    let dests: Vec<u32> = out.broadcast_msgs().iter().map(|(d, _)| d.0).collect();
    println!("\nbob leaves; alice's next op is broadcast only to sites {dests:?}");
    for (dest, s) in out.broadcast_msgs() {
        assert_eq!(dest, carol_site);
        carol.try_on_server_op(s).expect("valid server op");
    }
    assert_eq!(alice.doc(), carol.doc());
    println!("alice and carol stay convergent: {:?}", carol.doc());
}
