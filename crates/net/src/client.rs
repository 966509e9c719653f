//! The TCP tier's sites, driven closed-loop against a running notifier.
//!
//! A site is what the paper's star (Fig. 1) puts on the wire: a [`Client`]
//! replica behind one [`Conn`] to the notifier. [`run_clients`] drives any
//! number of them from the calling thread over one [`Poller`]. The loop is
//! closed: a site keeps at most one op in flight and authors its next one
//! when the `ServerAck` covering the last arrives, so the server sets the
//! pace and a run measures it, not a schedule. Op `k` of `total_ops` is
//! authored by site `k mod n`, a one-character insert at a seeded position.
//! A replica collects its history after each remote op and sends the bare
//! ack it then owes, as the simulator's sessions do.
//!
//! A site says hello with [`Client::hello_frontier`]`(0)`: held back to its
//! oldest local op the notifier may not have integrated. It applies
//! `StarWorld::answer`'s rule once: a hello the hub could not serve (the
//! prefix it asks for was collected) is answered `ServerAck{acked:
//! integrated}` and then EOF, and the site dials again with
//! `hello_frontier(integrated)` if that is above the frontier it sent.
//! Otherwise the site is shed. A served hello's answer ends with a
//! `ServerAck` too, 0 included, and on it the site re-sends what the
//! count does not cover. Until then it authors nothing, skips the repeats
//! its held-back frontier asked for and owes no bare ack. A count above
//! what the replica generated is another replica's history under the
//! site's id: the site is lost, and its count is not taken.
//!
//! A run ends when every site holds every op it did not author and all of
//! its own are acked — then every document must be the same — or as soon
//! as one site is lost, or when nothing arrives for [`STALL`].

use crate::conn::Conn;
use crate::poll::{Interest, Poller};
use cvc_core::site::SiteId;
use cvc_reduce::client::Client;
use cvc_reduce::msg::{decode_payload, ClientAckMsg, EditorMsg, Payload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A run gives up, unconverged, when no site hears anything for this long.
pub const STALL: Duration = Duration::from_secs(30);

/// Shape of one run; the sites are the replicas handed to [`run_clients`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The notifier's address (`host:port`).
    pub addr: String,
    /// Operations authored across all sites, round-robin.
    pub total_ops: u64,
    /// Seed for the edit stream.
    pub seed: u64,
}

/// What a run produced.
#[derive(Debug)]
pub struct ClientReport {
    /// Operations the notifier acknowledged, summed over the sites.
    pub ops_acked: u64,
    /// Every site holds every op, all its own acked, no site was lost,
    /// and every document is the same.
    pub converged: bool,
    /// The first site's document checksum.
    pub doc_checksum: u64,
    /// The first site's document.
    pub doc: String,
    /// Broadcasts a replica refused (must be 0).
    pub protocol_errors: u64,
    /// Sites lost for good (must be 0): shed by the notifier — a refused
    /// hello, or a trimmed one that a re-dial would not get past — or
    /// their connection failed or closed, or a re-dial could not connect.
    pub conn_errors: u64,
    /// Hellos said again after a trimmed answer.
    pub redials: u64,
    /// Wall clock from the first hello to the end of the run.
    pub elapsed: Duration,
}

/// Fresh replicas of sites `1..=n` on an empty document.
pub fn fresh_replicas(n: usize) -> Vec<Client> {
    (0..n)
        .map(|c| Client::new(SiteId::from_client_index(c), ""))
        .collect()
}

/// One site: its replica, its connection and where its session stands.
struct Site {
    client: Client,
    conn: Conn,
    rng: SmallRng,
    /// Ops this site has still to author.
    to_author: u64,
    /// The notifier's count of this site's integrated ops, from its last
    /// `ServerAck`.
    acked: u64,
    /// The frontier of this connection's hello.
    frontier: u64,
    /// The hello's `ServerAck` is still to come.
    answer_due: bool,
    /// The connection's latest message was its hello's answer: an EOF
    /// right behind it ends a trimmed hello's answer. The op authored on
    /// the answer itself does not clear it — that op goes out before the
    /// EOF can be read.
    answered: bool,
    redialed: bool,
    /// Registered for writable events.
    writing: bool,
    /// The connection ended: closed, failed, or it carried something the
    /// replica refused.
    ended: bool,
}

impl Site {
    fn send(&mut self, msg: &EditorMsg) {
        let frame = Payload::encode(msg);
        self.ended |= self.conn.queue_frame(&frame.chunks()).is_err() || self.conn.flush().is_err();
    }

    /// Say hello on the current connection.
    fn hello(&mut self) {
        self.frontier = self.client.hello_frontier(self.acked);
        self.answer_due = true;
        self.answered = false;
        let origin = self.client.site();
        let received = self.frontier;
        self.send(&EditorMsg::ClientAck(ClientAckMsg { origin, received }));
    }

    /// Author the next op, unless one is in flight or the hello's answer
    /// is still to come.
    fn author(&mut self) {
        let in_flight = self.acked < self.client.state_vector().generated();
        if self.to_author == 0 || self.answer_due || in_flight {
            return;
        }
        let pos = self.rng.gen_range(0..=self.client.doc_len());
        let ch = (b'a' + self.rng.gen_range(0..26u8)) as char;
        let op = self.client.insert(pos, &ch.to_string());
        self.to_author -= 1;
        self.send(&EditorMsg::ClientOp(op));
    }

    /// Read what arrived and take it, one message at a time.
    fn read(&mut self, payloads: &mut Vec<Vec<u8>>, msgs: &mut Vec<EditorMsg>) {
        payloads.clear();
        let res = self.conn.on_readable(payloads);
        for p in payloads.iter() {
            self.ended |= decode_payload([p, &[]], msgs).is_err();
            for m in msgs.drain(..) {
                self.take(m);
            }
        }
        self.ended |= res.is_err();
    }

    fn take(&mut self, msg: EditorMsg) {
        if self.ended {
            return;
        }
        self.answered = false;
        match msg {
            EditorMsg::ServerOp(op) => {
                // A repeat the held-back frontier asked for.
                if self.answer_due && op.stamp.get(1) <= self.client.state_vector().received() {
                    return;
                }
                self.ended = self.client.try_on_server_op(op).is_err();
                self.client.gc();
                if self.ended || self.answer_due {
                    return;
                }
                if let Some(ack) = self.client.take_pending_ack() {
                    self.send(&EditorMsg::ClientAck(ack));
                }
            }
            // More of this site's ops than the replica generated: the
            // notifier's history under its id is another replica's.
            EditorMsg::ServerAck(a) if a.acked > self.client.state_vector().generated() => {
                self.ended = true;
            }
            EditorMsg::ServerAck(a) => {
                self.acked = a.acked;
                if std::mem::take(&mut self.answer_due) {
                    self.answered = true;
                    for op in self.client.unacked_local_since(a.acked) {
                        self.send(&EditorMsg::ClientOp(op));
                    }
                }
                self.author();
            }
            // Anything else downstream is a server bug.
            _ => self.ended = true,
        }
    }

    /// Whether the connection, just ended, carried a trimmed hello's
    /// answer that one more hello, from the integrated count, gets past.
    fn redials(&self) -> bool {
        self.answered && !self.redialed && self.client.hello_frontier(self.acked) > self.frontier
    }

    /// All authored, all acked, and every op authored elsewhere executed.
    fn done(&self, total: u64) -> bool {
        let sv = self.client.state_vector();
        self.to_author == 0
            && self.acked == sv.generated()
            && sv.received() == total - sv.generated()
    }

    /// Register for writable events exactly while output is pending.
    fn watch(&mut self, poller: &Poller, token: u64) {
        let want = self.conn.wants_write();
        let interest = Interest {
            readable: true,
            writable: want,
        };
        if want != self.writing && poller.modify(self.conn.fd(), token, interest).is_ok() {
            self.writing = want;
        }
    }
}

fn dial(addr: &str, poller: &Poller, token: u64) -> io::Result<Conn> {
    let conn = Conn::new(TcpStream::connect(addr)?)?;
    poller.register(conn.fd(), token, Interest::READ)?;
    Ok(conn)
}

/// Drive `replicas` — site `c + 1` is `replicas[c]`, fresh or holding
/// edits the notifier has integrated — closed-loop against the notifier
/// at `cfg.addr` until they converge, one is lost, or the run stalls.
pub fn run_clients(cfg: &ClientConfig, replicas: Vec<Client>) -> io::Result<ClientReport> {
    let n = replicas.len().max(1) as u64;
    let held: u64 = replicas.iter().map(|c| c.state_vector().generated()).sum();
    let total = cfg.total_ops + held;
    let poller = Poller::new()?;
    let mut sites = Vec::with_capacity(replicas.len());
    for (c, client) in (0..).zip(replicas) {
        sites.push(Site {
            client,
            conn: dial(&cfg.addr, &poller, c)?,
            rng: SmallRng::seed_from_u64(cfg.seed ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            to_author: cfg.total_ops / n + u64::from(c < cfg.total_ops % n),
            acked: 0,
            frontier: 0,
            answer_due: false,
            answered: false,
            redialed: false,
            writing: false,
            ended: false,
        });
    }
    // Every site connects before any says hello, and the run's clock
    // starts after: a connect the listener's full backlog drops is
    // retried a second later, which is no cost of the run.
    let t0 = Instant::now();
    for (c, site) in (0..).zip(&mut sites) {
        site.hello();
        site.author();
        site.watch(&poller, c);
    }

    let (mut conn_errors, mut redials) = (0, 0);
    let (mut events, mut payloads, mut msgs) = (Vec::new(), Vec::new(), Vec::new());
    while conn_errors == 0 && !sites.iter().all(|s| s.done(total)) {
        events.clear();
        poller.wait(&mut events, STALL.as_millis() as i32)?;
        if events.is_empty() {
            break;
        }
        for ev in &events {
            let site = &mut sites[ev.token as usize];
            if ev.readable || ev.hangup {
                site.read(&mut payloads, &mut msgs);
            }
            if ev.writable && !site.ended {
                site.ended = site.conn.flush().is_err();
            }
            if std::mem::take(&mut site.ended) {
                if !site.redials() {
                    conn_errors += 1;
                    continue;
                }
                let _ = poller.deregister(site.conn.fd());
                // A listener that is gone loses the site like any close.
                let Ok(conn) = dial(&cfg.addr, &poller, ev.token) else {
                    conn_errors += 1;
                    continue;
                };
                (site.conn, site.writing, site.redialed) = (conn, false, true);
                redials += 1;
                site.hello();
            }
            site.watch(&poller, ev.token);
        }
    }

    // A closing bare ack from each site: convergence lands between two
    // ack intervals for most of them, and without it the notifier's ack
    // frontiers — its GC watermark and the admin plane's evidence of
    // client execution — stay a few ops short forever.
    for site in &mut sites {
        let origin = site.client.site();
        let received = site.client.state_vector().received();
        site.send(&EditorMsg::ClientAck(ClientAckMsg { origin, received }));
    }

    let protocol_errors = sites
        .iter()
        .map(|s| s.client.metrics().protocol_errors)
        .sum();
    let doc_checksum = sites.first().map_or(0, |s| s.client.doc_checksum());
    let same = |s: &Site| s.done(total) && s.client.doc_checksum() == doc_checksum;
    Ok(ClientReport {
        ops_acked: sites.iter().map(|s| s.acked).sum(),
        converged: conn_errors + protocol_errors == 0 && sites.iter().all(same),
        doc_checksum,
        doc: sites.first().map(|s| s.client.doc()).unwrap_or_default(),
        protocol_errors,
        conn_errors,
        redials,
        elapsed: t0.elapsed(),
    })
}
