//! `cvc-serve`'s engine: the paper's notifier behind real TCP.
//!
//! ## Architecture
//!
//! ```text
//!            accept thread ──round robin──►  shard workers (thread per core)
//!                                             │  epoll loop, Conn state machines
//!                 frames in (mpsc)  ◄─────────┤  frame reassembly + decode
//!                      │                      ▲
//!                      ▼                      │ outbox (Mutex<VecDeque> + eventfd waker)
//!            core thread: NotifierCore ───────┘ per-destination payloads,
//!            (validate → log → compact)         coalesced into compound frames
//! ```
//!
//! The I/O tier never touches editor state and the core never touches a
//! socket: workers own reads, reassembly, decode, and writes; the single
//! core thread drives the same [`NotifierCore`] the simulator node does
//! (notifier + WAL behind one validate → log → compact entry point per
//! message kind), preserving the exact integration semantics (and total
//! order) the simulator validates. TCP
//! supplies the reliable-FIFO channel the paper assumes, so the sim's
//! go-back-N layer stays home; what crosses over is the framing
//! discipline — checksummed frames (the reliable layer's word-wise
//! `frame_checksum`), compound coalescing on the
//! write path, and a broadcast that can only be built from an outcome
//! whose record the core has already logged.
//!
//! A connection binds to its site with a hello frame: a `ClientAck`
//! carrying the site id and the client's ack frontier (`received: 0` for
//! a fresh client; a reconnecting site resumes with its real count, which
//! is validated and applied like any other ack) and is answered with the
//! suffix of its broadcast stream it has not received, rebuilt from the
//! notifier's history buffer — the one structure a lagging site is caught
//! up from, on this tier as in the simulator. Every later frame must
//! agree with that binding; disagreement, protocol violations, or
//! unparseable framing shed the connection, and a protocol violation also
//! evicts the *bound* site — never the origin a frame merely claimed —
//! mirroring the sim's hostile-site policy. A hello that fails costs only
//! its connection: nobody is bound to it yet. Those rules and the binding
//! table are [`Hub`]'s, shared with the simulator; this module turns what
//! the hub queues into worker commands and sheds what it refuses.
//!
//! Workers address connections by a **generation-tagged id** (slab slot
//! in the low 32 bits, a per-slot generation in the high 32). Slots are
//! recycled, and the core learns of a close asynchronously — so a write
//! command it queued for a dead connection can still be in flight when a
//! new stream adopts the same slot. The generation check makes such
//! commands die instead of reaching the unrelated new connection.

use crate::admin::{spawn_admin, AdminHandle, AdminShared, AliveGuard, Tier, RING_LOG_CAP};
use crate::conn::{Conn, ConnError};
use crate::poll::{Interest, PollEvent, Poller, Waker};
use cvc_core::site::{SiteId, NOTIFIER};
use cvc_reduce::core::NotifierCore;
use cvc_reduce::hub::{Hub, Step};
use cvc_reduce::msg::{compound_header, decode_payload, ClientOpMsg, EditorMsg, Payload};
use cvc_reduce::notifier::Notifier;
use cvc_reduce::recorder::{EventKind, FlightEvent, NO_SITE};
use cvc_reduce::registry::MetricsRegistry;
use cvc_reduce::trace::dump_event_line;
use cvc_reduce::wal::{Wal, DEFAULT_COMPACT_EVERY};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// How a server instance is shaped.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Number of client sites (the notifier's width); sites `1..=n`.
    pub n_clients: usize,
    /// Shard worker threads. 0 = one per available core.
    pub workers: usize,
    /// Acknowledge every integrated op to its origin (`ServerAck`) — what
    /// `cvc-load` measures RTT against.
    pub send_acks: bool,
    /// Record every accepted `ClientOpMsg` in arrival order, for the
    /// sim-twin differential oracle. Costs memory; off for soak runs.
    pub capture_integrations: bool,
    /// Where the admin plane listens (`None` disables it). Port 0 picks
    /// an ephemeral port, resolvable via [`ServerHandle::admin_addr`].
    pub admin_addr: Option<String>,
    /// Stream flight-recorder ring dumps on the admin port (`cvc-trace
    /// attach`). Requires `admin_addr`; costs one bounded text log.
    pub trace_rings: bool,
    /// Ring-dump log retention in bytes (`cvc-serve --trace-log-mb`).
    /// Dump volume is O(ops × clients) deliver lines plus O(ops × |HB|)
    /// transform lines, so large sessions need more than the default
    /// for an attached tailer to see every line.
    pub ring_log_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            n_clients: 16,
            workers: 0,
            send_acks: true,
            capture_integrations: false,
            admin_addr: None,
            trace_rings: false,
            ring_log_cap: RING_LOG_CAP,
        }
    }
}

/// Most sub-messages one compound frame may carry on the write path.
const COMPOUND_MAX: usize = 32;

/// Notifier flight-recorder ring capacity when `trace_rings` is on. Sized
/// for a full 512-message core batch at burst-level transform fan-out; the
/// per-batch drain empties it between batches, so this bounds single-batch
/// loss, not total load.
const TRACE_RING_CAPACITY: usize = 1 << 18;

/// Shared I/O-tier counters (workers increment, the report and the
/// admin plane snapshot).
#[derive(Debug, Default)]
pub(crate) struct IoStats {
    pub(crate) accepted: AtomicU64,
    pub(crate) frames_in: AtomicU64,
    pub(crate) msgs_in: AtomicU64,
    pub(crate) frames_out: AtomicU64,
    pub(crate) msgs_out: AtomicU64,
    pub(crate) compound_frames_out: AtomicU64,
    pub(crate) frame_errors: AtomicU64,
    pub(crate) closed: AtomicU64,
    /// Connections the core shed for protocol violations or backpressure.
    pub(crate) evicted: AtomicU64,
    /// Messages queued toward the core and not yet drained by it.
    pub(crate) core_queue: AtomicU64,
    /// Abnormal I/O-tier thread exits (a wedged accept loop or a worker
    /// whose poller died). Nonzero means the server is silently degraded.
    pub(crate) io_errors: AtomicU64,
}

/// Everything the server learned, returned at shutdown.
#[derive(Debug, Default)]
pub struct ServerReport {
    /// The notifier's final document.
    pub doc: String,
    /// FNV checksum of the final document.
    pub doc_checksum: u64,
    /// Client operations integrated.
    pub ops_integrated: u64,
    /// Protocol violations rejected (notifier counter).
    pub protocol_errors: u64,
    /// Connections whose byte stream failed framing or decode.
    pub frame_errors: u64,
    /// I/O-tier threads that exited abnormally (accept loop or worker
    /// poller failure). Nonzero distinguishes a wedged listener from an
    /// idle one.
    pub io_errors: u64,
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Frames read off sockets.
    pub frames_in: u64,
    /// Editor messages decoded (compound sub-messages counted singly).
    pub msgs_in: u64,
    /// Frames written to sockets.
    pub frames_out: u64,
    /// Editor messages those frames carried.
    pub msgs_out: u64,
    /// Frames that coalesced more than one message.
    pub compound_frames_out: u64,
    /// Mean messages per written frame, `None` when nothing was written
    /// (a zero-op run must report null, not NaN).
    pub msgs_per_frame: Option<f64>,
    /// Connections still open at shutdown.
    pub active_connections: u64,
    /// Connections the core shed (protocol violations, backpressure).
    pub evicted: u64,
    /// Per-worker peak queued write commands (outbox depth high-water).
    pub outbox_high_water: Vec<u64>,
    /// Rebinds shed because the broadcasts they asked for were already
    /// collected from the history buffer (a hello claiming a frontier
    /// below the site's own earlier ack).
    pub dropped_broadcasts: u64,
    /// WAL records appended.
    pub wal_appends: u64,
    /// WAL write amplification (bytes appended / op payload bytes).
    pub wal_amplification: f64,
    /// Final WAL byte image (recover with `Wal::recover`).
    pub wal_bytes: Vec<u8>,
    /// Peak history-buffer length at the notifier.
    pub hb_high_water: u64,
    /// Accepted client ops in integration order (when capture was on).
    pub integration_log: Vec<ClientOpMsg>,
}

/// Pack a worker-local connection identity: the slab slot in the low
/// 32 bits, a per-slot generation in the high 32. The generation bumps on
/// every close, so an id names one connection *incarnation*, never merely
/// a slot.
fn conn_id(slot: usize, gen: u32) -> u64 {
    (u64::from(gen) << 32) | slot as u64
}

/// Split a connection id back into `(slot, generation)`.
fn conn_parts(id: u64) -> (usize, u32) {
    ((id & 0xFFFF_FFFF) as usize, (id >> 32) as u32)
}

/// A command from the core to a worker's write side. `conn` is a
/// generation-tagged id ([`conn_id`]); the worker drops commands whose
/// generation no longer matches the slot's occupant.
enum OutCmd {
    /// Queue one editor-message payload for a connection.
    Frame { conn: u64, payload: Payload },
    /// Flush-and-close a connection (eviction or quarantine).
    Close { conn: u64 },
}

/// What workers tell the core. `conn` is a generation-tagged id
/// ([`conn_id`]).
enum CoreMsg {
    /// Decoded messages from one connection, in stream order.
    Frames {
        worker: usize,
        conn: u64,
        msgs: Vec<EditorMsg>,
    },
    /// A connection is gone (peer close, error, or eviction done).
    Disconnected { worker: usize, conn: u64 },
    /// Stop and produce the report.
    Shutdown,
}

/// Per-worker mailboxes shared between threads.
struct WorkerShared {
    waker: Waker,
    /// Freshly accepted streams awaiting registration.
    inbox: Mutex<Vec<TcpStream>>,
    /// Write-side commands from the core.
    outbox: Mutex<VecDeque<OutCmd>>,
    /// Connections this worker currently owns.
    active_conns: AtomicU64,
    /// Commands sitting in `outbox` right now / at peak.
    outbox_depth: AtomicU64,
    outbox_high_water: AtomicU64,
    /// Peak unsent bytes observed on any one connection after a flush.
    pending_out_high_water: AtomicU64,
}

impl WorkerShared {
    fn new() -> io::Result<WorkerShared> {
        Ok(WorkerShared {
            waker: Waker::new()?,
            inbox: Mutex::new(Vec::new()),
            outbox: Mutex::new(VecDeque::new()),
            active_conns: AtomicU64::new(0),
            outbox_depth: AtomicU64::new(0),
            outbox_high_water: AtomicU64::new(0),
            pending_out_high_water: AtomicU64::new(0),
        })
    }
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned mutex means a peer thread died mid-update; the data is
    // plain queues, safe to keep draining during teardown.
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A running server instance.
pub struct EditorServer;

/// Handle to a spawned server: the bound address plus the shutdown path.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_waker: Arc<Waker>,
    workers: Vec<Arc<WorkerShared>>,
    core_tx: mpsc::Sender<CoreMsg>,
    accept_thread: Option<thread::JoinHandle<()>>,
    worker_threads: Vec<thread::JoinHandle<()>>,
    core_thread: Option<thread::JoinHandle<ServerReport>>,
    admin: Option<AdminHandle>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admin plane's bound address, when one was configured.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin.as_ref().map(|a| a.addr)
    }

    /// Test hook: stop the core thread alone, leaving the I/O tier and
    /// admin plane up — the readiness probe must flip to unready. A full
    /// [`ServerHandle::shutdown`] still joins cleanly afterwards.
    pub fn halt_core(&self) {
        let _ = self.core_tx.send(CoreMsg::Shutdown);
    }

    /// Stop accepting, drain the tiers, and return the final report.
    pub fn shutdown(mut self) -> ServerReport {
        self.stop.store(true, Ordering::SeqCst);
        self.accept_waker.wake();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in &self.workers {
            w.waker.wake();
        }
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        let _ = self.core_tx.send(CoreMsg::Shutdown);
        let report = self.core_thread.take().map(|t| t.join());
        // Stop the admin plane only after the core published its final
        // registry delta and eof-marked the ring log; the admin thread
        // lingers briefly so attached tailers can pull that last chunk.
        if let Some(a) = self.admin.take() {
            a.stop.store(true, Ordering::SeqCst);
            a.waker.wake();
            let _ = a.thread.join();
        }
        match report {
            Some(Ok(r)) => r,
            // The core thread never panics by construction; an empty
            // report here means it was killed externally.
            _ => ServerReport::default(),
        }
    }
}

impl EditorServer {
    /// Bind, spawn the accept/worker/core threads, and return a handle.
    pub fn spawn(cfg: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let n_workers = if cfg.workers == 0 {
            thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            cfg.workers
        };
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(IoStats::default());
        let (core_tx, core_rx) = mpsc::channel::<CoreMsg>();

        let mut workers = Vec::with_capacity(n_workers);
        for _ in 0..n_workers {
            workers.push(Arc::new(WorkerShared::new()?));
        }

        // The admin plane binds before any serving thread spawns: a bad
        // --admin-addr fails the whole spawn instead of degrading silently.
        let admin_shared = cfg
            .admin_addr
            .as_ref()
            .map(|_| Arc::new(AdminShared::new(cfg.ring_log_cap)));
        let admin = match (&cfg.admin_addr, &admin_shared) {
            (Some(addr), Some(shared)) => {
                Some(spawn_admin(addr, Arc::clone(shared), Arc::clone(&stats))?)
            }
            _ => None,
        };

        let accept_waker = Arc::new(Waker::new()?);
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let workers: Vec<Arc<WorkerShared>> = workers.clone();
            let stats = Arc::clone(&stats);
            let waker = Arc::clone(&accept_waker);
            let guard = admin_shared
                .as_ref()
                .map(|s| AliveGuard::new(Arc::clone(s), Tier::Accept));
            thread::Builder::new()
                .name("cvc-accept".to_string())
                .spawn(move || {
                    let _alive = guard;
                    accept_loop(listener, &workers, &stats, &stop, &waker);
                })?
        };

        let mut worker_threads = Vec::with_capacity(n_workers);
        for (wi, shared) in workers.iter().enumerate() {
            let shared = Arc::clone(shared);
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let tx = core_tx.clone();
            worker_threads.push(
                thread::Builder::new()
                    .name(format!("cvc-worker-{wi}"))
                    .spawn(move || worker_loop(wi, &shared, &stats, &stop, &tx))?,
            );
        }

        let core_thread = {
            let cfg = cfg.clone();
            let workers: Vec<Arc<WorkerShared>> = workers.clone();
            let stats = Arc::clone(&stats);
            let admin_shared = admin_shared.clone();
            thread::Builder::new()
                .name("cvc-core".to_string())
                .spawn(move || {
                    let guard = admin_shared
                        .as_ref()
                        .map(|s| AliveGuard::new(Arc::clone(s), Tier::Core));
                    let report = core_loop(&cfg, core_rx, &workers, &stats, admin_shared);
                    drop(guard);
                    report
                })?
        };

        Ok(ServerHandle {
            addr,
            stop,
            accept_waker,
            workers,
            core_tx,
            accept_thread: Some(accept_thread),
            worker_threads,
            core_thread: Some(core_thread),
            admin,
        })
    }
}

fn accept_loop(
    listener: TcpListener,
    workers: &[Arc<WorkerShared>],
    stats: &IoStats,
    stop: &AtomicBool,
    waker: &Waker,
) {
    if accept_inner(&listener, workers, stats, stop, waker).is_err() {
        // A dead accept thread leaves the server silently refusing every
        // new connection; the counter lets the report tell that apart
        // from an idle listener.
        stats.io_errors.fetch_add(1, Ordering::Relaxed);
    }
}

fn accept_inner(
    listener: &TcpListener,
    workers: &[Arc<WorkerShared>],
    stats: &IoStats,
    stop: &AtomicBool,
    waker: &Waker,
) -> io::Result<()> {
    let poller = Poller::new()?;
    poller.register(waker.fd(), 0, Interest::READ)?;
    poller.register(listener.as_raw_fd(), 1, Interest::READ)?;
    let mut events: Vec<PollEvent> = Vec::new();
    let mut next = 0usize;
    while !stop.load(Ordering::SeqCst) {
        events.clear();
        poller.wait(&mut events, 500)?;
        waker.drain();
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    stats.accepted.fetch_add(1, Ordering::Relaxed);
                    let w = &workers[next % workers.len()];
                    next = next.wrapping_add(1);
                    lock(&w.inbox).push(stream);
                    w.waker.wake();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient per-connection accept failures (ECONNABORTED,
                // EMFILE pressure): skip; the poller will re-arm.
                Err(_) => break,
            }
        }
    }
    Ok(())
}

fn worker_loop(
    wi: usize,
    shared: &WorkerShared,
    stats: &IoStats,
    stop: &AtomicBool,
    tx: &mpsc::Sender<CoreMsg>,
) {
    if worker_inner(wi, shared, stats, stop, tx).is_err() {
        // This shard's connections are orphaned; surface the degradation.
        stats.io_errors.fetch_add(1, Ordering::Relaxed);
    }
}

fn worker_inner(
    wi: usize,
    shared: &WorkerShared,
    stats: &IoStats,
    stop: &AtomicBool,
    tx: &mpsc::Sender<CoreMsg>,
) -> io::Result<()> {
    let poller = Poller::new()?;
    poller.register(shared.waker.fd(), 0, Interest::READ)?;
    // Slab of connections; epoll token = slot + 1 (token 0 is the waker).
    // `gens[slot]` is the slot's current generation — together they form
    // the connection id the core addresses ([`conn_id`]).
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut gens: Vec<u32> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events: Vec<PollEvent> = Vec::new();

    let close_slot = |poller: &Poller,
                      conns: &mut Vec<Option<Conn>>,
                      gens: &mut [u32],
                      free: &mut Vec<usize>,
                      slot: usize| {
        if let Some(conn) = conns.get_mut(slot).and_then(Option::take) {
            let _ = poller.deregister(conn.fd());
            stats.core_queue.fetch_add(1, Ordering::Relaxed);
            let _ = tx.send(CoreMsg::Disconnected {
                worker: wi,
                conn: conn_id(slot, gens[slot]),
            });
            shared.active_conns.fetch_sub(1, Ordering::Relaxed);
            // Retire the identity *before* the slot becomes reusable:
            // commands the core already queued for this connection now
            // fail the generation check instead of reaching the slot's
            // next occupant.
            gens[slot] = gens[slot].wrapping_add(1);
            free.push(slot);
            stats.closed.fetch_add(1, Ordering::Relaxed);
        }
    };

    while !stop.load(Ordering::SeqCst) {
        events.clear();
        poller.wait(&mut events, 500)?;

        for ev in &events {
            if ev.token == 0 {
                shared.waker.drain();
                continue;
            }
            let slot = (ev.token - 1) as usize;
            let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
                continue;
            };
            let mut dead = false;
            if ev.readable || ev.hangup {
                let mut payloads = Vec::new();
                let res = conn.on_readable(&mut payloads);
                if !payloads.is_empty() {
                    stats
                        .frames_in
                        .fetch_add(payloads.len() as u64, Ordering::Relaxed);
                    let mut msgs = Vec::with_capacity(payloads.len());
                    match payloads
                        .iter()
                        .try_for_each(|p| decode_payload([p, &[]], &mut msgs))
                    {
                        Ok(()) => {
                            stats
                                .msgs_in
                                .fetch_add(msgs.len() as u64, Ordering::Relaxed);
                            stats.core_queue.fetch_add(1, Ordering::Relaxed);
                            let _ = tx.send(CoreMsg::Frames {
                                worker: wi,
                                conn: conn_id(slot, gens[slot]),
                                msgs,
                            });
                        }
                        Err(_) => {
                            stats.frame_errors.fetch_add(1, Ordering::Relaxed);
                            dead = true;
                        }
                    }
                }
                match res {
                    Ok(()) => {}
                    Err(ConnError::Frame(_)) => {
                        stats.frame_errors.fetch_add(1, Ordering::Relaxed);
                        dead = true;
                    }
                    Err(_) => dead = true,
                }
            }
            if !dead && ev.writable {
                dead = conn.flush().is_err()
                    || (!conn.wants_write()
                        && poller.modify(conn.fd(), ev.token, Interest::READ).is_err());
            }
            if dead || (ev.hangup && !ev.readable) {
                close_slot(&poller, &mut conns, &mut gens, &mut free, slot);
            }
        }

        // Adopt freshly accepted connections.
        let fresh: Vec<TcpStream> = std::mem::take(&mut *lock(&shared.inbox));
        for stream in fresh {
            let Ok(conn) = Conn::new(stream) else {
                continue;
            };
            let slot = free.pop().unwrap_or_else(|| {
                conns.push(None);
                gens.push(0);
                conns.len() - 1
            });
            let token = slot as u64 + 1;
            if poller.register(conn.fd(), token, Interest::READ).is_ok() {
                conns[slot] = Some(conn);
                shared.active_conns.fetch_add(1, Ordering::Relaxed);
            } else {
                free.push(slot);
            }
        }

        // Drain the core's write commands, coalescing per connection.
        let cmds: VecDeque<OutCmd> = std::mem::take(&mut *lock(&shared.outbox));
        shared.outbox_depth.store(0, Ordering::Relaxed);
        if cmds.is_empty() {
            continue;
        }
        let mut batches: HashMap<u64, Vec<Payload>> = HashMap::new();
        let mut order: Vec<u64> = Vec::new();
        let mut closes: Vec<u64> = Vec::new();
        for cmd in cmds {
            match cmd {
                OutCmd::Frame { conn, payload } => {
                    batches.entry(conn).or_insert_with(|| {
                        order.push(conn);
                        Vec::new()
                    });
                    if let Some(b) = batches.get_mut(&conn) {
                        b.push(payload);
                    }
                }
                OutCmd::Close { conn } => closes.push(conn),
            }
        }
        for id in order {
            let (slot, gen) = conn_parts(id);
            // A stale generation means the addressed connection closed
            // after the core queued this; the slot may already hold an
            // unrelated stream, so the batch must be dropped, not
            // delivered.
            if gens.get(slot).copied() != Some(gen) {
                continue;
            }
            let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else {
                continue;
            };
            let Some(batch) = batches.remove(&id) else {
                continue;
            };
            let mut failed = false;
            for group in batch.chunks(COMPOUND_MAX) {
                let res = if group.len() == 1 {
                    let [head, body] = group[0].chunks();
                    conn.queue_frame(&[head, body])
                } else {
                    // Compound coalescing: one frame header + checksum
                    // over the whole group — the PR 6 freight saving,
                    // applied at the socket boundary.
                    let header = compound_header(group.len());
                    let mut chunks: Vec<&[u8]> = Vec::with_capacity(1 + group.len() * 2);
                    chunks.push(&header);
                    for p in group {
                        let [head, body] = p.chunks();
                        chunks.push(head);
                        chunks.push(body);
                    }
                    stats.compound_frames_out.fetch_add(1, Ordering::Relaxed);
                    conn.queue_frame(&chunks)
                };
                stats.frames_out.fetch_add(1, Ordering::Relaxed);
                stats
                    .msgs_out
                    .fetch_add(group.len() as u64, Ordering::Relaxed);
                if res.is_err() {
                    failed = true;
                    break;
                }
            }
            if !failed && conn.flush().is_err() {
                failed = true;
            }
            if failed {
                close_slot(&poller, &mut conns, &mut gens, &mut free, slot);
                continue;
            }
            shared
                .pending_out_high_water
                .fetch_max(conn.pending_out() as u64, Ordering::Relaxed);
            if conn.wants_write() {
                let _ = poller.modify(conn.fd(), slot as u64 + 1, Interest::READ_WRITE);
            }
        }
        for id in closes {
            let (slot, gen) = conn_parts(id);
            // Same staleness rule: never close a successor connection on
            // behalf of its slot's previous occupant.
            if gens.get(slot).copied() != Some(gen) {
                continue;
            }
            // Best-effort final flush so eviction notices drain.
            if let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) {
                let _ = conn.flush();
            }
            close_slot(&poller, &mut conns, &mut gens, &mut free, slot);
        }
    }
    Ok(())
}

/// A connection as the core addresses it: `(worker, generation-tagged
/// conn id)`.
type ConnKey = (usize, u64);

/// The epoll tier's driver over a [`Hub`]: single-threaded, fed decoded
/// messages, emitting per-destination payloads to worker outboxes. The hub
/// owns who is bound to which site and every rule about it; the core
/// keeps only what is the transport's — shedding connections, counters,
/// capture and ring publishing.
struct Core<'a> {
    cfg: &'a ServerConfig,
    workers: &'a [Arc<WorkerShared>],
    /// The notifier, its WAL (auto-GC on, no standby on this tier) and
    /// the binding of connections to sites.
    hub: Hub<ConnKey>,
    /// The hub's sends for the message in hand (a reused buffer).
    sends: Vec<(ConnKey, Payload)>,
    /// Workers touched in the current drain (woken once at the end).
    touched: Vec<bool>,
    dropped_broadcasts: u64,
    integration_log: Vec<ClientOpMsg>,
    stats: &'a IoStats,
    /// The observability plane, when configured. The core only ever
    /// *pushes* here on its publish cadence; scrapes read the copies.
    admin: Option<Arc<AdminShared>>,
    /// Microsecond clock for recorder timestamps (elapsed since spawn).
    now_us: u64,
    /// The live registry image `publish` diffs against the admin plane.
    live: MetricsRegistry,
    /// Next unread notifier flight-recorder sequence.
    recorder_cursor: u64,
    /// Synthesized client-side dump lines (Generate/Send at integration,
    /// Execute from ack-frontier advancement) pending the next publish.
    synth: String,
    /// Per-client synthesized-event sequence numbers.
    synth_seq: Vec<u64>,
    /// Per-client acked stream position already emitted as synthetic
    /// Execute lines; the live frontier is the notifier's `acked_by`.
    ack_published: Vec<u64>,
}

impl<'a> Core<'a> {
    fn push(&mut self, worker: usize, cmd: OutCmd) {
        let w = &self.workers[worker];
        let depth = {
            let mut q = lock(&w.outbox);
            q.push_back(cmd);
            q.len() as u64
        };
        w.outbox_depth.store(depth, Ordering::Relaxed);
        w.outbox_high_water.fetch_max(depth, Ordering::Relaxed);
        self.touched[worker] = true;
    }

    /// Handle one decoded message from a connection: the hub steps, its
    /// sends become write commands, and a refused hello or input, a
    /// trimmed rebind, or an evicted site sheds the connection.
    fn on_msg(&mut self, key: ConnKey, msg: EditorMsg) {
        let (seq, captured) = match &msg {
            EditorMsg::ClientOp(op) => (
                op.stamp.get(2),
                self.cfg.capture_integrations.then(|| op.clone()),
            ),
            _ => (0, None),
        };
        let mut sends = std::mem::take(&mut self.sends);
        match self.hub.on_msg(key, msg, &mut sends) {
            Step::Op(_) => {
                if let Some(site) = self.tracing().then(|| self.hub.site_of(key)).flatten() {
                    // The server sees no client rings, but integration
                    // proves the op was generated and sent; synthesize
                    // those lines so attached tailers get full
                    // lifecycles. Timestamps collapse to arrival time.
                    self.synth_line(site, EventKind::Generate, site.0, seq);
                    self.synth_line(site, EventKind::Send, site.0, seq);
                }
                self.integration_log.extend(captured);
            }
            Step::Ack(_) | Step::Bound(_) => {}
            // Refused input, a trimmed rebind or an evicted site: the
            // connection speaks for nobody from here on. A trimmed rebind
            // (a stale backup's frontier) needs a snapshot this tier cannot
            // send yet, so it is also counted.
            shed => {
                if let Step::Trimmed(_) = shed {
                    self.dropped_broadcasts += 1;
                }
                self.hub.unbind(key);
                self.stats.evicted.fetch_add(1, Ordering::Relaxed);
                self.push(key.0, OutCmd::Close { conn: key.1 });
            }
        }
        for ((worker, conn), payload) in sends.drain(..) {
            self.push(worker, OutCmd::Frame { conn, payload });
        }
        self.sends = sends;
    }

    fn wake_touched(&mut self) {
        for (wi, touched) in self.touched.iter_mut().enumerate() {
            if *touched {
                self.workers[wi].waker.wake();
                *touched = false;
            }
        }
    }

    /// True when ring streaming is active (admin plane + trace flag).
    fn tracing(&self) -> bool {
        self.cfg.trace_rings && self.admin.is_some()
    }

    /// Append one synthesized client-side dump line.
    fn synth_line(&mut self, site: SiteId, kind: EventKind, op_site: u32, op_seq: u64) {
        let idx = site.client_index();
        let mut ev = FlightEvent::new(kind).with_op(op_site, op_seq);
        ev.seq = self.synth_seq[idx];
        ev.recorded_at = self.now_us;
        self.synth_seq[idx] += 1;
        dump_event_line(&mut self.synth, site, &ev);
    }

    /// The publish hook: push fresh ring-dump lines and a registry delta
    /// into the admin plane. Runs on the core thread between message
    /// batches — integration never pauses for a scraper, and each mutex
    /// is held only for a bounded append/diff, never across I/O.
    fn publish(&mut self, eof: bool) {
        let Some(admin) = self.admin.clone() else {
            return;
        };
        self.publish_rings(&admin, eof);
        self.refresh_registry();
        lock(&admin.deltas).publish(&self.live);
    }

    /// Drain fresh recorder events (plus synthesized client-side lines)
    /// into the admin ring log. Called after *every* message batch, not
    /// on the registry cadence: a concurrency burst can record more
    /// transform events in 100 ms than the recorder ring holds, and a
    /// per-batch drain bounds the loss window to one batch.
    fn publish_rings(&mut self, admin: &Arc<AdminShared>, eof: bool) {
        if self.tracing() {
            // Ack-frontier advancement is the client-side execution
            // evidence: a client acks position `p` only after executing
            // ops `1..=p` of its stream — bare acks and the implicit
            // `T[1]` carried by its own ops both land in `acked_by`.
            // `op_site = NO_SITE` + the stream position is exactly the
            // tailer's broadcast join key.
            let frontier = self.hub.notifier().acked_by().to_vec();
            for (idx, &acked) in frontier.iter().take(self.cfg.n_clients).enumerate() {
                while self.ack_published[idx] < acked {
                    self.ack_published[idx] += 1;
                    let pos = self.ack_published[idx];
                    self.synth_line(SiteId(idx as u32 + 1), EventKind::Execute, NO_SITE, pos);
                }
            }
            let recorder = self.hub.notifier().recorder();
            let (events, lost) = recorder.events_since(self.recorder_cursor);
            let mut text = std::mem::take(&mut self.synth);
            if lost > 0 {
                // Ring overwrite outran the publish cadence: surface the
                // gap the way a wrapped ring dump would, so downstream
                // assembly marks affected traces truncated instead of
                // silently reporting them incomplete.
                let mut gap = FlightEvent::new(EventKind::RingTruncated)
                    .with_ab(lost, 0)
                    .with_detail("ring-wrapped");
                gap.recorded_at = self.now_us;
                dump_event_line(&mut text, NOTIFIER, &gap);
            }
            for ev in &events {
                dump_event_line(&mut text, NOTIFIER, ev);
            }
            self.recorder_cursor += lost + events.len() as u64;
            let mut rings = lock(&admin.rings);
            rings.append(&text);
            if eof {
                rings.mark_eof();
            }
        } else if eof {
            lock(&admin.rings).mark_eof();
        }
    }

    /// Refresh the live registry image from the notifier, the I/O-tier
    /// atomics, the WAL, and the core's own gauges.
    fn refresh_registry(&mut self) {
        let metrics = self.hub.notifier().metrics();
        let ops_integrated = metrics.ops_executed_remote;
        let counters = metrics.counter_fields();
        let high_waters = metrics.high_water_fields();
        let live = &mut self.live;
        for (field, v) in counters {
            // Absolute set, not add: the source is already cumulative.
            live.set_counter(&format!("notifier.{field}"), v);
        }
        for (field, v) in high_waters {
            live.set_gauge(&format!("notifier.{field}"), v as f64);
        }
        let s = self.stats;
        live.set_counter("net.accepted", s.accepted.load(Ordering::Relaxed));
        live.set_counter("net.frames_in", s.frames_in.load(Ordering::Relaxed));
        live.set_counter("net.msgs_in", s.msgs_in.load(Ordering::Relaxed));
        live.set_counter("net.frames_out", s.frames_out.load(Ordering::Relaxed));
        live.set_counter("net.msgs_out", s.msgs_out.load(Ordering::Relaxed));
        live.set_counter(
            "net.compound_frames_out",
            s.compound_frames_out.load(Ordering::Relaxed),
        );
        live.set_counter("net.frame_errors", s.frame_errors.load(Ordering::Relaxed));
        live.set_counter("net.closed", s.closed.load(Ordering::Relaxed));
        live.set_counter("net.evicted", s.evicted.load(Ordering::Relaxed));
        live.set_counter("net.io_errors", s.io_errors.load(Ordering::Relaxed));
        live.set_gauge(
            "core.queue_depth",
            s.core_queue.load(Ordering::Relaxed) as f64,
        );
        let mut active_total = 0u64;
        for (wi, w) in self.workers.iter().enumerate() {
            let active = w.active_conns.load(Ordering::Relaxed);
            active_total += active;
            live.set_gauge(&format!("net.worker{wi}.active_conns"), active as f64);
            let gauges = [
                ("outbox_depth", &w.outbox_depth),
                ("outbox_high_water", &w.outbox_high_water),
                ("pending_out_high_water", &w.pending_out_high_water),
            ];
            for (name, v) in gauges {
                let v = v.load(Ordering::Relaxed) as f64;
                live.set_gauge(&format!("net.worker{wi}.{name}"), v);
            }
        }
        live.set_gauge("net.active_connections", active_total as f64);
        live.set_counter("core.ops_integrated", ops_integrated);
        live.set_counter("core.dropped_broadcasts", self.dropped_broadcasts);
        if let Some(wal) = self.hub.core().wal() {
            live.set_counter("wal.appends", wal.appends());
            live.set_counter("wal.bytes_appended", wal.bytes_appended());
            live.set_counter("wal.compactions", wal.compactions());
            live.set_gauge("wal.live_bytes", wal.live_bytes() as f64);
            live.set_gauge("wal.amplification", wal.amplification());
        }
        live.set_gauge("net.uptime_us", self.now_us as f64);
    }
}

/// Publish cadence for the admin plane (registry delta + ring lines).
const PUBLISH_INTERVAL: Duration = Duration::from_millis(100);

fn core_loop(
    cfg: &ServerConfig,
    rx: mpsc::Receiver<CoreMsg>,
    workers: &[Arc<WorkerShared>],
    stats: &IoStats,
    admin: Option<Arc<AdminShared>>,
) -> ServerReport {
    let started = Instant::now();
    let mut notifier = Notifier::new(cfg.n_clients, "");
    notifier.set_send_acks(cfg.send_acks);
    // Folded-in GC, as the simulator's sessions default to: the history
    // buffer stays at the in-flight window, which is also what lets the
    // log ever reach a checkpointable state and compact.
    notifier.set_auto_gc(true);
    if cfg.trace_rings && admin.is_some() {
        notifier.set_flight_recorder_capacity(TRACE_RING_CAPACITY);
        notifier.set_flight_recorder(true);
    }
    let has_admin = admin.is_some();
    let wal = Some(Wal::new(DEFAULT_COMPACT_EVERY));
    let mut core = Core {
        cfg,
        workers,
        hub: Hub::new(NotifierCore::new(notifier, wal, None)),
        sends: Vec::new(),
        touched: vec![false; workers.len()],
        dropped_broadcasts: 0,
        integration_log: Vec::new(),
        stats,
        admin,
        now_us: 0,
        live: MetricsRegistry::new(),
        recorder_cursor: 0,
        synth: String::new(),
        synth_seq: vec![0; cfg.n_clients],
        ack_published: vec![0; cfg.n_clients],
    };

    // Block for the first message, then drain greedily so a burst is
    // processed (and workers woken) in one pass. With an admin plane the
    // block carries a deadline so the publish cadence holds even while
    // the editor port is idle.
    let mut next_publish = Instant::now() + PUBLISH_INTERVAL;
    'outer: loop {
        let first = if has_admin {
            match rx.recv_timeout(next_publish.saturating_duration_since(Instant::now())) {
                Ok(m) => Some(m),
                Err(mpsc::RecvTimeoutError::Timeout) => None,
                Err(mpsc::RecvTimeoutError::Disconnected) => break 'outer,
            }
        } else {
            match rx.recv() {
                Ok(m) => Some(m),
                Err(_) => break 'outer,
            }
        };
        if let Some(first) = first {
            core.now_us = started.elapsed().as_micros() as u64;
            core.hub.core_mut().set_now(core.now_us);
            let mut batch = vec![first];
            while batch.len() < 512 {
                match rx.try_recv() {
                    Ok(m) => batch.push(m),
                    Err(_) => break,
                }
            }
            let mut since_drain = 0usize;
            for m in batch {
                match m {
                    CoreMsg::Frames { worker, conn, msgs } => {
                        stats.core_queue.fetch_sub(1, Ordering::Relaxed);
                        for msg in msgs {
                            core.on_msg((worker, conn), msg);
                            // Mid-batch ring drain: transform recording
                            // is O(|HB|) per op, and one socket read can
                            // decode thousands of ops into a single
                            // Frames message, so the drain counts editor
                            // messages, not batch items — every 32 ops
                            // bounds recorder-ring growth far below its
                            // capacity. A no-op unless tracing is on.
                            since_drain += 1;
                            if since_drain >= 32 {
                                since_drain = 0;
                                if let Some(admin) = core.admin.clone() {
                                    core.publish_rings(&admin, false);
                                }
                            }
                        }
                    }
                    CoreMsg::Disconnected { worker, conn } => {
                        stats.core_queue.fetch_sub(1, Ordering::Relaxed);
                        core.hub.unbind((worker, conn));
                    }
                    CoreMsg::Shutdown => {
                        // The final publish eof-marks the ring log so an
                        // attached tailer knows the stream is complete.
                        core.now_us = started.elapsed().as_micros() as u64;
                        core.publish(true);
                        core.wake_touched();
                        break 'outer;
                    }
                }
            }
            core.wake_touched();
            // Ring drain is per-batch, not per-cadence: a concurrency
            // burst can outrun the recorder ring inside one publish
            // interval, and lines lost to overwrite are lost for good.
            if let Some(admin) = core.admin.clone() {
                core.publish_rings(&admin, false);
            }
        }
        if has_admin && Instant::now() >= next_publish {
            core.now_us = started.elapsed().as_micros() as u64;
            core.publish(false);
            next_publish = Instant::now() + PUBLISH_INTERVAL;
        }
    }

    let frames_out = stats.frames_out.load(Ordering::Relaxed);
    let msgs_out = stats.msgs_out.load(Ordering::Relaxed);
    let notifier = core.hub.notifier();
    let m = notifier.metrics();
    let wal = core.hub.core().wal();
    ServerReport {
        doc: notifier.doc(),
        doc_checksum: notifier.doc_checksum(),
        ops_integrated: m.ops_executed_remote,
        protocol_errors: m.protocol_errors,
        frame_errors: stats.frame_errors.load(Ordering::Relaxed),
        io_errors: stats.io_errors.load(Ordering::Relaxed),
        accepted: stats.accepted.load(Ordering::Relaxed),
        frames_in: stats.frames_in.load(Ordering::Relaxed),
        msgs_in: stats.msgs_in.load(Ordering::Relaxed),
        frames_out,
        msgs_out,
        compound_frames_out: stats.compound_frames_out.load(Ordering::Relaxed),
        // Guarded ratio: a zero-op run has no frames, and NaN must never
        // reach a JSON report.
        msgs_per_frame: (frames_out > 0).then(|| msgs_out as f64 / frames_out as f64),
        active_connections: workers
            .iter()
            .map(|w| w.active_conns.load(Ordering::Relaxed))
            .sum(),
        evicted: stats.evicted.load(Ordering::Relaxed),
        outbox_high_water: workers
            .iter()
            .map(|w| w.outbox_high_water.load(Ordering::Relaxed))
            .collect(),
        dropped_broadcasts: core.dropped_broadcasts,
        wal_appends: wal.map_or(0, Wal::appends),
        wal_amplification: wal.map_or(0.0, Wal::amplification),
        wal_bytes: wal.map_or_else(Vec::new, |w| w.bytes().to_vec()),
        hb_high_water: m.hb_high_water,
        integration_log: core.integration_log,
    }
}
