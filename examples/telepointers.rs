//! Telepointers: each user's caret rides the operation stream and is kept
//! correct on every replica through the same transformations that keep the
//! text convergent — the presence feature the original REDUCE demonstrator
//! shipped.
//!
//! ```text
//! cargo run --example telepointers
//! ```

use cvc_core::site::SiteId;
use cvc_reduce::client::Client;
use cvc_reduce::notifier::Notifier;

fn render(label: &str, client: &Client) {
    let doc: Vec<char> = client.doc().chars().collect();
    let mut line = String::new();
    for (i, c) in doc.iter().enumerate() {
        for (site, pos) in client.remote_carets() {
            if pos == i {
                line.push_str(&format!("⟨{site}⟩"));
            }
        }
        if client.caret() == i {
            line.push('|');
        }
        line.push(*c);
    }
    for (site, pos) in client.remote_carets() {
        if pos == doc.len() {
            line.push_str(&format!("⟨{site}⟩"));
        }
    }
    if client.caret() == doc.len() {
        line.push('|');
    }
    println!("  {label:8} {line}");
}

fn main() {
    let initial = "shared note";
    let mut notifier = Notifier::new(2, initial);
    let mut alice = Client::new(SiteId(1), initial);
    let mut bob = Client::new(SiteId(2), initial);

    println!("('|' is the local caret, ⟨n⟩ is site n's telepointer)\n");
    println!("bob types \" pad\" at the end:");
    let m = bob.insert(11, " pad");
    for (_, s) in notifier
        .try_on_client_op_outcome(m)
        .expect("valid client op")
        .broadcast_msgs()
    {
        alice.try_on_server_op(s).expect("valid server op");
    }
    render("alice:", &alice);
    render("bob:", &bob);

    println!("\nalice types \"my \" at the start — bob's pointer must shift:");
    let m = alice.insert(0, "my ");
    for (_, s) in notifier
        .try_on_client_op_outcome(m)
        .expect("valid client op")
        .broadcast_msgs()
    {
        bob.try_on_server_op(s).expect("valid server op");
    }
    render("alice:", &alice);
    render("bob:", &bob);

    assert_eq!(alice.doc(), bob.doc());
    let a_sees_bob = alice.remote_carets().next().unwrap();
    let b_own = bob.caret();
    assert_eq!(a_sees_bob.1, b_own, "alice's view of bob's caret is exact");
    println!(
        "\nalice's view of bob's caret ({}) matches bob's own ({b_own}).",
        a_sees_bob.1
    );
}
