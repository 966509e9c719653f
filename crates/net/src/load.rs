//! `cvc-load`: an open-loop load generator for the TCP notifier.
//!
//! Each simulated editor is a real [`Client`] replica behind a real
//! loopback connection. Ops are issued on a global open-loop schedule —
//! op `k` is due at `t0 + k/rate`, authored by client `k mod n` — so a
//! slow server cannot flow-control the offered load (the failure mode a
//! closed-loop generator hides). Latency is the **ack RTT**: the time
//! from writing a `ClientOp` frame to receiving the notifier's
//! `ServerAck` covering it, measured per op with a per-client FIFO of
//! send instants (acks are cumulative, so one ack may retire several).
//!
//! Correctness is checked the way the simulator does: the run is not
//! "done" when the ops are sent, but when every replica has received
//! every other site's op and every local op is acked — at which point
//! all documents must be byte-identical (their checksums are compared,
//! and the first divergence fails the run).

use crate::conn::Conn;
use cvc_core::site::SiteId;
use cvc_reduce::client::Client;
use cvc_reduce::msg::{decode_payload, ClientAckMsg, EditorMsg, Payload};
use cvc_reduce::registry::MetricsRegistry;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Shape of one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Concurrent client connections (site ids `1..=n`).
    pub n_clients: usize,
    /// Total operations across all clients.
    pub total_ops: u64,
    /// Global target op rate (ops/sec). `0.0` = as fast as possible.
    pub rate: f64,
    /// Generator threads sharding the clients. 0 = 1.
    pub threads: usize,
    /// Seed for the deterministic edit stream.
    pub seed: u64,
    /// Give up (unconverged) after this long.
    pub timeout: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:0".to_string(),
            n_clients: 16,
            total_ops: 1024,
            rate: 0.0,
            threads: 1,
            seed: 0xC0FFEE,
            timeout: Duration::from_secs(60),
        }
    }
}

/// Latency summary in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct RttSummary {
    /// Acked operations measured.
    pub count: u64,
    /// Mean ack RTT.
    pub mean_us: f64,
    /// Median.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile — the headline number E22 sweeps.
    pub p99_us: u64,
    /// Worst observed.
    pub max_us: u64,
}

/// What a load run produced.
#[derive(Debug)]
pub struct LoadReport {
    /// Operations written to sockets.
    pub ops_sent: u64,
    /// Operations retired by server acks.
    pub ops_acked: u64,
    /// Every replica received every remote op, every local op acked, and
    /// all document checksums agree.
    pub converged: bool,
    /// Distinct final document checksums across replicas (1 = converged).
    pub distinct_checksums: usize,
    /// The common document checksum (first replica's if diverged).
    pub doc_checksum: u64,
    /// The first replica's final document.
    pub doc: String,
    /// Client-side protocol violations (must be 0).
    pub protocol_errors: u64,
    /// Connections that died mid-run (must be 0).
    pub conn_errors: u64,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// Ops actually delivered per second.
    pub achieved_rate: f64,
    /// Ack RTT distribution.
    pub rtt: RttSummary,
}

/// One simulated editor: replica + connection + in-flight send times.
struct LoadClient {
    site: SiteId,
    client: Client,
    conn: Conn,
    rng: SmallRng,
    /// Send instants of unacked local ops (FIFO; acks are cumulative).
    in_flight: VecDeque<Instant>,
    sent: u64,
    acked: u64,
    /// This client's share of the op schedule.
    planned: u64,
    /// Current poller interest includes write (tracked to skip redundant
    /// `epoll_ctl` calls — they dominate syscall count at high fan-in).
    registered_rw: bool,
    dead: bool,
}

impl LoadClient {
    fn queue_msg(&mut self, msg: &EditorMsg) -> bool {
        let frame = Payload::encode(msg);
        if self.conn.queue_frame(&frame.chunks()).is_err() || self.conn.flush().is_err() {
            self.dead = true;
            return false;
        }
        true
    }

    /// Issue the next scheduled op: a 1-char insert at a seeded position.
    fn issue(&mut self) {
        let pos = self.rng.gen_range(0..=self.client.doc_len());
        let ch = (b'a' + self.rng.gen_range(0..26u8)) as char;
        let op = self.client.insert(pos, &ch.to_string());
        let msg = EditorMsg::ClientOp(op);
        let now = Instant::now();
        if self.queue_msg(&msg) {
            self.in_flight.push_back(now);
            self.sent += 1;
        }
    }

    /// Apply one decoded downstream message; returns retired RTT samples.
    fn on_msg(&mut self, msg: EditorMsg, rtt_us: &mut Vec<u64>) {
        match msg {
            EditorMsg::ServerOp(m) => {
                if self.client.try_on_server_op(m).is_err() {
                    self.dead = true;
                    return;
                }
                // As `session.rs` and the benchmark harness do: without it
                // the replica scans and holds its whole history.
                self.client.gc();
                if let Some(ack) = self.client.take_pending_ack() {
                    self.queue_msg(&EditorMsg::ClientAck(ack));
                }
            }
            EditorMsg::ServerAck(a) => {
                let now = Instant::now();
                while self.acked < a.acked {
                    if let Some(sent_at) = self.in_flight.pop_front() {
                        rtt_us.push(now.duration_since(sent_at).as_micros() as u64);
                    }
                    self.acked += 1;
                }
            }
            // Anything else downstream is a server bug; count it fatal.
            _ => self.dead = true,
        }
    }

    /// Converged: all planned ops issued and acked, and every op authored
    /// elsewhere has arrived (the notifier never echoes an op to its
    /// origin, so the expected stream is `total - planned`).
    fn converged(&self, total_ops: u64) -> bool {
        !self.dead
            && self.sent == self.planned
            && self.acked == self.planned
            && self.client.state_vector().received() == total_ops - self.planned
    }
}

/// How many of `total` round-robin ops land on client `c` of `n`.
fn planned_for(c: usize, n: usize, total: u64) -> u64 {
    let base = total / n as u64;
    let extra = u64::from((c as u64) < total % n as u64);
    base + extra
}

/// Drive one thread's shard of clients to completion.
#[allow(clippy::too_many_lines)]
fn shard_loop(
    cfg: &LoadConfig,
    thread_id: usize,
    threads: usize,
    t0: Instant,
) -> io::Result<(Vec<LoadClient>, Vec<u64>, u64)> {
    use crate::poll::{Interest, PollEvent, Poller};

    // Connect this shard's clients (site c+1 owns global ops k ≡ c mod n).
    let mut clients: Vec<LoadClient> = Vec::new();
    for c in (0..cfg.n_clients).skip(thread_id).step_by(threads) {
        let stream = TcpStream::connect(&cfg.addr)?;
        let conn = Conn::new(stream)?;
        let site = SiteId::from_client_index(c);
        let mut lc = LoadClient {
            site,
            client: Client::new(site, ""),
            conn,
            rng: SmallRng::seed_from_u64(cfg.seed ^ (c as u64).wrapping_mul(0x9E3779B97F4A7C15)),
            in_flight: VecDeque::new(),
            sent: 0,
            acked: 0,
            planned: planned_for(c, cfg.n_clients, cfg.total_ops),
            registered_rw: false,
            dead: false,
        };
        // Hello: bind the connection to its site before any edits.
        lc.queue_msg(&EditorMsg::ClientAck(ClientAckMsg {
            origin: site,
            received: 0,
        }));
        clients.push(lc);
    }

    let poller = Poller::new()?;
    for (i, lc) in clients.iter_mut().enumerate() {
        // The hello may not have fully flushed; register with the
        // matching interest so it drains on the first writable event.
        let rw = lc.conn.wants_write();
        let want = if rw {
            Interest::READ_WRITE
        } else {
            Interest::READ
        };
        poller.register(lc.conn.fd(), i as u64, want)?;
        lc.registered_rw = rw;
    }

    // This shard's slice of the global schedule, in due order.
    let mut schedule: Vec<(u64, usize)> = Vec::new(); // (global k, local idx)
    let mut local_of = vec![usize::MAX; cfg.n_clients];
    for (i, lc) in clients.iter().enumerate() {
        local_of[lc.site.client_index()] = i;
    }
    for k in 0..cfg.total_ops {
        let c = (k % cfg.n_clients as u64) as usize;
        if c % threads == thread_id {
            schedule.push((k, local_of[c]));
        }
    }

    let mut next = 0usize;
    let mut rtt_us: Vec<u64> = Vec::new();
    let mut conn_errors = 0u64;
    let mut events: Vec<PollEvent> = Vec::new();
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let mut msgs: Vec<EditorMsg> = Vec::new();

    loop {
        let now = Instant::now();
        if now.duration_since(t0) > cfg.timeout {
            break;
        }

        // Issue every op whose due time has passed (open loop: the
        // schedule advances whether or not the server keeps up).
        while next < schedule.len() {
            let (k, idx) = schedule[next];
            if cfg.rate > 0.0 {
                let due = t0 + Duration::from_secs_f64(k as f64 / cfg.rate);
                if now < due {
                    break;
                }
            }
            let lc = &mut clients[idx];
            if !lc.dead {
                lc.issue();
                // A partially flushed op must get writable events even if
                // the server stays quiet.
                if lc.conn.wants_write()
                    && !lc.registered_rw
                    && poller
                        .modify(lc.conn.fd(), idx as u64, Interest::READ_WRITE)
                        .is_ok()
                {
                    lc.registered_rw = true;
                }
            }
            next += 1;
        }

        // Done?
        let all_done = next >= schedule.len()
            && clients
                .iter()
                .all(|lc| lc.dead || lc.converged(cfg.total_ops));
        if all_done {
            break;
        }

        // Sleep until the next due op (or a short convergence-poll tick).
        let timeout_ms = if cfg.rate > 0.0 && next < schedule.len() {
            let due = t0 + Duration::from_secs_f64(schedule[next].0 as f64 / cfg.rate);
            due.saturating_duration_since(Instant::now())
                .as_millis()
                .min(50) as i32
        } else {
            5
        };
        events.clear();
        poller.wait(&mut events, timeout_ms.max(0))?;

        for ev in &events {
            let idx = ev.token as usize;
            let Some(lc) = clients.get_mut(idx) else {
                continue;
            };
            if lc.dead {
                continue;
            }
            if ev.readable || ev.hangup {
                payloads.clear();
                let res = lc.conn.on_readable(&mut payloads);
                for p in &payloads {
                    if decode_payload([p, &[]], &mut msgs).is_err() {
                        lc.dead = true;
                        break;
                    }
                    for m in msgs.drain(..) {
                        lc.on_msg(m, &mut rtt_us);
                    }
                }
                if res.is_err() {
                    lc.dead = true;
                }
            }
            if !lc.dead && ev.writable && lc.conn.flush().is_err() {
                lc.dead = true;
            }
            if !lc.dead {
                let want_rw = lc.conn.wants_write();
                if want_rw != lc.registered_rw {
                    let want = if want_rw {
                        Interest::READ_WRITE
                    } else {
                        Interest::READ
                    };
                    if poller.modify(lc.conn.fd(), ev.token, want).is_ok() {
                        lc.registered_rw = want_rw;
                    }
                }
            }
            if lc.dead {
                conn_errors += 1;
                let _ = poller.deregister(lc.conn.fd());
            }
        }
    }

    // Final courtesy ack: convergence lands mid-ACK_INTERVAL for most
    // clients, leaving the notifier's `acked_by` — its GC watermark and
    // the admin plane's client-execution evidence — pinned a few stream
    // positions short forever. One bare ack per client closes the gap
    // before the sockets drop.
    for lc in clients.iter_mut().filter(|lc| !lc.dead) {
        let received = lc.client.state_vector().received();
        let ack = ClientAckMsg {
            origin: lc.site,
            received,
        };
        lc.queue_msg(&EditorMsg::ClientAck(ack));
    }

    Ok((clients, rtt_us, conn_errors))
}

/// Run a full load generation pass against a listening server.
pub fn run_load(cfg: &LoadConfig) -> io::Result<LoadReport> {
    let threads = cfg.threads.max(1).min(cfg.n_clients.max(1));
    let t0 = Instant::now();

    let mut shards = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for t in 0..threads {
            handles.push(scope.spawn(move || shard_loop(cfg, t, threads, t0)));
        }
        for h in handles {
            match h.join() {
                Ok(r) => shards.push(r),
                Err(_) => shards.push(Err(io::Error::other("load shard panicked"))),
            }
        }
    });

    let elapsed = t0.elapsed();
    let mut clients: Vec<LoadClient> = Vec::new();
    let mut registry = MetricsRegistry::new();
    let mut conn_errors = 0u64;
    for shard in shards {
        let (cs, rtts, errs) = shard?;
        for v in rtts {
            registry.record("ack_rtt_us", v);
        }
        conn_errors += errs;
        clients.extend(cs);
    }
    clients.sort_by_key(|lc| lc.site.client_index());

    let ops_sent: u64 = clients.iter().map(|c| c.sent).sum();
    let ops_acked: u64 = clients.iter().map(|c| c.acked).sum();
    let protocol_errors: u64 = clients
        .iter()
        .map(|c| c.client.metrics().protocol_errors)
        .sum();

    let mut checksums: Vec<u64> = clients.iter().map(|c| c.client.doc_checksum()).collect();
    let doc_checksum = checksums.first().copied().unwrap_or(0);
    let doc = clients.first().map(|c| c.client.doc()).unwrap_or_default();
    checksums.sort_unstable();
    checksums.dedup();
    let distinct = checksums.len();

    let converged = conn_errors == 0
        && protocol_errors == 0
        && distinct == 1
        && clients.iter().all(|lc| lc.converged(cfg.total_ops));

    let rtt = registry
        .histogram("ack_rtt_us")
        .map(|h| RttSummary {
            count: h.count(),
            mean_us: h.mean(),
            p50_us: h.quantile(0.50),
            p95_us: h.quantile(0.95),
            p99_us: h.quantile(0.99),
            max_us: h.max(),
        })
        .unwrap_or_default();

    Ok(LoadReport {
        ops_sent,
        ops_acked,
        converged,
        distinct_checksums: distinct,
        doc_checksum,
        doc,
        protocol_errors,
        conn_errors,
        elapsed,
        achieved_rate: if elapsed.as_secs_f64() > 0.0 {
            ops_acked as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        },
        rtt,
    })
}
