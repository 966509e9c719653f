//! `cvc-serve`'s engine: the paper's notifier behind real TCP.
//!
//! ## Architecture
//!
//! ```text
//!            accept thread ──round robin──►  shard workers (thread per core)
//!                                             │  epoll loop, Conn state machines,
//!                                             │  frame reassembly + decode
//!     one CoreMsg per poll pass (mpsc) ◄──────┤  every message and close it read
//!                      │                      ▲
//!                      ▼                      │ one outbox append + one eventfd
//!            core thread: Hub/NotifierCore ───┘ wake per drained batch
//!            (validate → log → compact,         per-destination payloads; an
//!             ≤ CORE_BATCH messages a batch)    answer goes at once, a broadcast
//!                                               waits ≤ BROADCAST_HOLD for company,
//!                                               coalesced into compound frames
//! ```
//!
//! Each direction of that boundary is one hand-off per batch, and the
//! worker reads before it writes: while a pass read input, held output
//! waits (the next poll does not block) until either a pass reads nothing
//! or [`CORE_BATCH`] messages went to the core since output was last
//! written or empty. A write round then writes a connection only when its
//! output is due: the peer waits on some of it (the core marks an op's
//! `ServerAck` to its origin and a hello's catch-up *awaited*), it fills a
//! compound frame, its oldest payload has waited [`BROADCAST_HOLD`], or a
//! close is queued for it. Awaited connections go first. Everything else
//! stays held, and the worker's poll blocks no later than the oldest held
//! output falls due, so broadcasts that arrive within the hold share one
//! compound frame even on a quiet server.

//! The I/O tier never touches editor state and the core never touches a
//! socket: workers own reads, reassembly, decode, and writes; the single
//! core thread drives the same [`NotifierCore`] the simulator node does
//! (notifier + WAL behind one validate → log → compact entry point per
//! message kind), preserving the exact integration semantics (and total
//! order) the simulator validates. TCP
//! supplies the reliable-FIFO channel the paper assumes, and the
//! simulator's sessions run on simulated connections of the same shape;
//! what both share is the framing discipline — checksummed frames (the
//! word-wise `frame_checksum`), one write round framed by
//! `cvc_reduce::msg::frame_groups`, and a broadcast that can only be
//! built from an outcome whose record the core has already logged.
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
//! command it queued for a dead connection can still be in flight, or
//! held by the worker, when a new stream adopts the same slot. Held output
//! remembers its generation ([`OutBatch`]): a close the worker makes
//! drops it (a close the core queued writes it first), and the
//! generation check at write time makes a late command die instead of
//! reaching the unrelated new connection.

use crate::admin::{spawn_admin, AdminHandle, AdminShared, AliveGuard, Tier, RING_LOG_CAP};
use crate::conn::{Conn, ConnError};
use crate::poll::{Interest, PollEvent, Poller, Waker};
use cvc_core::site::{SiteId, NOTIFIER};
use cvc_reduce::core::NotifierCore;
use cvc_reduce::hub::{Hub, Step};
use cvc_reduce::msg::{
    decode_payload, frame_groups, ClientOpMsg, EditorMsg, Payload, ServerAckMsg, COMPOUND_MAX,
};
use cvc_reduce::notifier::Notifier;
use cvc_reduce::recorder::{EventKind, FlightEvent, NO_SITE};
use cvc_reduce::registry::{Histogram, MetricsRegistry};
use cvc_reduce::trace::dump_event_line;
use cvc_reduce::wal::{Wal, DEFAULT_COMPACT_EVERY};
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
            capture_integrations: false,
            admin_addr: None,
            trace_rings: false,
            ring_log_cap: RING_LOG_CAP,
        }
    }
}

/// Editor messages the core drains per batch (it stops at the first
/// hand-off that reaches the cap), and the read-first bound: a worker
/// whose reads keep arriving holds its output only until this many
/// messages went to the core since it last wrote or held nothing. One
/// constant, so held output waits for at most about one core batch.
const CORE_BATCH: usize = 512;

/// How long a write round may hold a connection's output that its peer
/// is not waiting on (a broadcast, not an answer to the peer's own
/// input), so later broadcasts can share its frame: far below the tens
/// of milliseconds in which a person notices a remote edit. Output its
/// peer waits on, a full compound and a connection about to close are
/// written at once.
const BROADCAST_HOLD: Duration = Duration::from_millis(1);

/// The longest a worker's poll blocks when nothing it holds has a
/// deadline: how soon an idle worker sees the stop flag.
const IDLE_POLL: Duration = Duration::from_millis(500);

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
    /// Editor messages (and closes) handed to the core and not yet
    /// drained by it.
    pub(crate) core_queue: AtomicU64,
    /// Worker→core hand-offs: one mpsc send per poll pass that read or
    /// closed something (a second only when its write round closed one).
    pub(crate) core_handoffs: AtomicU64,
    /// Worker write rounds: drains of held output that queued a frame.
    pub(crate) write_rounds: AtomicU64,
    /// Connections a write round left holding output that was not due
    /// yet, summed over rounds.
    pub(crate) deferred: AtomicU64,
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
    /// Per-worker peak write commands queued in the outbox or held by the
    /// worker unwritten (outbox depth high-water).
    pub outbox_high_water: Vec<u64>,
    /// Worker→core hand-offs (mpsc sends), one per poll pass that read or
    /// closed something.
    pub core_handoffs: u64,
    /// Worker write rounds: drains of held output that queued a frame.
    pub write_rounds: u64,
    /// Connections a write round left holding output that was not due
    /// yet, summed over rounds.
    pub deferred: u64,
    /// Rebinds shed because the broadcasts they asked for were already
    /// collected from the history buffer (a hello claiming a frontier
    /// below the site's own earlier ack).
    pub dropped_broadcasts: u64,
    /// Core-thread time spent publishing to the admin plane (zero without
    /// one): what being observed costs the core.
    pub publish_time: Duration,
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
    /// Queue one editor-message payload for a connection; `awaited` when
    /// it answers that connection's own input (an op's `ServerAck`, a
    /// hello's catch-up), which its peer is waiting on.
    Frame {
        conn: u64,
        payload: Payload,
        awaited: bool,
    },
    /// Flush-and-close a connection (eviction or quarantine).
    Close { conn: u64 },
}

/// One item of a worker's hand-off. Ids are generation-tagged
/// ([`conn_id`]).
enum Inbound {
    /// A decoded message, in its connection's stream order.
    Msg(u64, EditorMsg),
    /// The connection is gone (peer close, error, or eviction done).
    Closed(u64),
}

/// What workers tell the core.
enum CoreMsg {
    /// Everything one worker poll pass read or closed, in pass order.
    Pass { worker: usize, items: Vec<Inbound> },
    /// Stop and produce the report.
    Shutdown,
}

impl CoreMsg {
    /// Editor messages and closes carried: what the core's drain cap
    /// counts.
    fn len(&self) -> usize {
        match self {
            CoreMsg::Pass { items, .. } => items.len(),
            CoreMsg::Shutdown => 0,
        }
    }
}

/// A worker's held output, grouped per connection: bookkeeping only, no
/// sockets. A write round writes a connection only when its output is
/// due ([`OutBatch::drain`]), so a slot can close — and its generation
/// move on — with output for it still held, and a command the core queued
/// before it learned of the close can arrive after. Each slot's buffer
/// therefore remembers the generation it holds for: [`OutBatch::forget`]
/// drops it at close, a push for a newer generation supersedes it, and
/// [`OutBatch::drain`] checks it against the live generation at write
/// time. Buffers are slot-indexed and keep their capacity across drains.
#[derive(Default)]
struct OutBatch {
    slots: Vec<Held>,
    /// Slots with held payloads, in first-seen order — and so in order of
    /// [`Held::since`], since a slot joins only when it starts holding.
    order: Vec<usize>,
    /// Close commands (generation-tagged ids), in arrival order.
    closes: Vec<u64>,
    /// Commands held: payloads plus closes.
    len: usize,
}

struct Held {
    gen: u32,
    payloads: Vec<Payload>,
    /// When the slot started holding: its oldest payload's push.
    since: Instant,
    /// Some payload answers the peer's own input.
    awaited: bool,
}

impl Default for Held {
    fn default() -> Self {
        Held {
            gen: 0,
            payloads: Vec::new(),
            since: Instant::now(),
            awaited: false,
        }
    }
}

/// One step of [`OutBatch::drain`].
enum Flush<'a> {
    /// Every payload held for a live connection, in push order, and how
    /// long the oldest waited.
    Frames(usize, &'a [Payload], Duration),
    /// Close a live connection; closes come after every due
    /// connection's frames.
    Close(usize),
}

impl OutBatch {
    /// Hold `cmd`, which the worker took from its outbox at `now`.
    fn push(&mut self, cmd: OutCmd, now: Instant) {
        let (conn, payload, awaited) = match cmd {
            OutCmd::Frame {
                conn,
                payload,
                awaited,
            } => (conn, payload, awaited),
            OutCmd::Close { conn } => {
                self.closes.push(conn);
                self.len += 1;
                return;
            }
        };
        let (slot, gen) = conn_parts(conn);
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, Held::default);
        }
        let held = &mut self.slots[slot];
        let fresh = held.payloads.is_empty();
        if fresh || held.gen != gen {
            if fresh {
                held.since = now;
                self.order.push(slot);
            } else {
                // The slot's next incarnation: the core heard of the close
                // before it could address the successor, so what is held
                // is for the closed one and can never be written. The
                // successor inherits the slot's place and its deadline.
                self.len -= held.payloads.len();
                held.payloads.clear();
            }
            held.gen = gen;
            held.awaited = false;
        }
        held.awaited |= awaited;
        held.payloads.push(payload);
        self.len += 1;
    }

    /// The worker closed `slot`: nothing held for it may be written.
    fn forget(&mut self, slot: usize) {
        if let Some(held) = self.slots.get_mut(slot).filter(|h| !h.payloads.is_empty()) {
            self.len -= held.payloads.len();
            held.payloads.clear();
            self.order.retain(|&s| s != slot);
        }
    }

    /// Hand out what is due at `now` and keep the rest. A connection's
    /// output is due when its peer awaits some of it, when it fills a
    /// compound frame, when its oldest payload has waited
    /// [`BROADCAST_HOLD`], or when a close is queued for it. Awaited
    /// connections come first, then the other due ones, each group in
    /// first-seen order, then every live close. Output whose generation
    /// is not `gens[slot]` belongs to a closed incarnation and is dropped
    /// when due. Returns how many connections still hold output.
    fn drain(&mut self, gens: &[u32], now: Instant, mut each: impl FnMut(Flush<'_>)) -> usize {
        let live = |slot: usize, gen: u32| gens.get(slot) == Some(&gen);
        let (slots, len, closes) = (&mut self.slots, &mut self.len, &self.closes);
        for awaited_pass in [true, false] {
            self.order.retain(|&slot| {
                let held = &mut slots[slot];
                let age = now.saturating_duration_since(held.since);
                let due = if awaited_pass {
                    held.awaited
                } else {
                    closes.contains(&conn_id(slot, held.gen))
                        || held.payloads.len() >= COMPOUND_MAX
                        || age >= BROADCAST_HOLD
                };
                if !due {
                    return true;
                }
                if live(slot, held.gen) {
                    each(Flush::Frames(slot, &held.payloads, age));
                }
                *len -= held.payloads.len();
                held.payloads.clear();
                false
            });
        }
        self.len -= self.closes.len();
        for id in self.closes.drain(..) {
            let (slot, gen) = conn_parts(id);
            if live(slot, gen) {
                each(Flush::Close(slot));
            }
        }
        self.order.len()
    }

    /// When the oldest held output falls due, if anything is held.
    fn deadline(&self) -> Option<Instant> {
        let &slot = self.order.first()?;
        Some(self.slots[slot].since + BROADCAST_HOLD)
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Per-worker mailboxes shared between threads.
struct WorkerShared {
    waker: Waker,
    /// Freshly accepted streams awaiting registration.
    inbox: Mutex<Vec<TcpStream>>,
    /// Write-side commands from the core, appended once per core batch.
    outbox: Mutex<Vec<OutCmd>>,
    /// Connections this worker currently owns.
    active_conns: AtomicU64,
    /// Commands in `outbox` or held by the worker unwritten, right now /
    /// at peak.
    outbox_depth: AtomicU64,
    outbox_high_water: AtomicU64,
    /// Peak unsent bytes observed on any one connection after a flush.
    pending_out_high_water: AtomicU64,
    /// How long each written connection's oldest output was held, in µs;
    /// the core folds it into the registry's `net.worker.hold_us`.
    hold_us: Mutex<Histogram>,
}

impl WorkerShared {
    fn new() -> io::Result<WorkerShared> {
        Ok(WorkerShared {
            waker: Waker::new()?,
            inbox: Mutex::new(Vec::new()),
            outbox: Mutex::new(Vec::new()),
            active_conns: AtomicU64::new(0),
            outbox_depth: AtomicU64::new(0),
            outbox_high_water: AtomicU64::new(0),
            pending_out_high_water: AtomicU64::new(0),
            hold_us: Mutex::new(Histogram::new()),
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

/// The editor listener's accept queue. `TcpListener::bind` asks for 128,
/// and a connect burst past that drops SYNs, each retried a second later;
/// the kernel caps the request at `net.core.somaxconn`.
const LISTEN_BACKLOG: i32 = 4096;

extern "C" {
    fn listen(fd: i32, backlog: i32) -> i32;
}

/// `TcpListener::bind` with a [`LISTEN_BACKLOG`]-deep accept queue: a
/// second `listen` on a listening socket only resizes its queue.
fn bind_listener(addr: &str) -> io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    // SAFETY: the fd is the listener's own and stays open for the call.
    if unsafe { listen(listener.as_raw_fd(), LISTEN_BACKLOG) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(listener)
}

impl EditorServer {
    /// Bind, spawn the accept/worker/core threads, and return a handle.
    pub fn spawn(cfg: ServerConfig) -> io::Result<ServerHandle> {
        let listener = bind_listener(&cfg.addr)?;
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
    let mut w = Worker {
        wi,
        shared,
        stats,
        tx,
        poller,
        conns: Vec::new(),
        gens: Vec::new(),
        free: Vec::new(),
        handoff: Vec::new(),
        out: OutBatch::default(),
        compound: Vec::new(),
        frames: Vec::new(),
        msgs: Vec::new(),
        doomed: Vec::new(),
        ages: Vec::new(),
    };
    let mut events: Vec<PollEvent> = Vec::new();
    let mut cmds: Vec<OutCmd> = Vec::new();
    // Commands of `w.out` already counted in `outbox_depth`.
    let mut counted = 0usize;
    // Items handed to the core since output was last written or empty.
    let mut handed = 0usize;
    let mut hold = false;
    while !stop.load(Ordering::SeqCst) {
        events.clear();
        // Read first: while the last pass read input, held output waits
        // and this poll does not block. Otherwise it blocks no later than
        // the oldest held output falls due.
        let timeout = match w.out.deadline() {
            _ if hold => Duration::ZERO,
            Some(due) => due.saturating_duration_since(Instant::now()),
            None => IDLE_POLL,
        };
        w.poller.wait_for(&mut events, timeout.min(IDLE_POLL))?;
        let mut read_input = false;
        for ev in &events {
            if ev.token == 0 {
                shared.waker.drain();
            } else {
                read_input |= w.on_event(ev);
            }
        }
        w.adopt();
        handed += w.hand_off();

        // The core's commands move from the outbox into `w.out`; they stay
        // counted in `outbox_depth` until written or dropped.
        std::mem::swap(&mut *lock(&shared.outbox), &mut cmds);
        counted += cmds.len();
        if !cmds.is_empty() {
            let now = Instant::now();
            for cmd in cmds.drain(..) {
                w.out.push(cmd, now);
            }
        }
        hold = read_input && handed < CORE_BATCH && !w.out.is_empty();
        if !hold {
            w.write_round(Instant::now());
            handed = 0;
            // A failed write or an eviction closed connections the core
            // must hear of.
            w.hand_off();
        }
        // Written or dropped commands leave the depth gauge.
        let gone = (counted - w.out.len) as u64;
        shared.outbox_depth.fetch_sub(gone, Ordering::Relaxed);
        counted = w.out.len;
    }
    Ok(())
}

/// One shard worker's state: its connections, what its current poll pass
/// hands the core, and the output it holds.
struct Worker<'a> {
    wi: usize,
    shared: &'a WorkerShared,
    stats: &'a IoStats,
    tx: &'a mpsc::Sender<CoreMsg>,
    poller: Poller,
    /// Slab of connections; epoll token = slot + 1 (token 0 is the waker).
    /// `gens[slot]` is the slot's current generation — together they form
    /// the connection id the core addresses ([`conn_id`]).
    conns: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    /// This pass's messages and closes, sent to the core as one message.
    handoff: Vec<Inbound>,
    /// Output the core handed over that is not written yet.
    out: OutBatch,
    /// The compound frame being written, reused across frames.
    compound: Vec<u8>,
    /// Reused per-event and per-round buffers: the frames one read
    /// returned, their decoded messages, the slots a round closes, and
    /// the held ages a round wrote.
    frames: Vec<Vec<u8>>,
    msgs: Vec<EditorMsg>,
    doomed: Vec<usize>,
    ages: Vec<u64>,
}

impl Worker<'_> {
    /// Serve one readiness event on a connection; returns whether it read
    /// a frame. Decoded messages join this pass's hand-off; a dead
    /// connection is closed.
    fn on_event(&mut self, ev: &PollEvent) -> bool {
        let slot = (ev.token - 1) as usize;
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return false;
        };
        let stats = self.stats;
        let mut read = false;
        let mut dead = false;
        if ev.readable || ev.hangup {
            let (frames, msgs) = (&mut self.frames, &mut self.msgs);
            frames.clear();
            msgs.clear();
            let res = conn.on_readable(frames);
            if !frames.is_empty() {
                read = true;
                stats
                    .frames_in
                    .fetch_add(frames.len() as u64, Ordering::Relaxed);
                match frames
                    .iter()
                    .try_for_each(|p| decode_payload([p, &[]], msgs))
                {
                    Ok(()) => {
                        stats
                            .msgs_in
                            .fetch_add(msgs.len() as u64, Ordering::Relaxed);
                        let id = conn_id(slot, self.gens[slot]);
                        self.handoff
                            .extend(msgs.drain(..).map(|m| Inbound::Msg(id, m)));
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
                    && self
                        .poller
                        .modify(conn.fd(), ev.token, Interest::READ)
                        .is_err());
        }
        if dead || (ev.hangup && !ev.readable) {
            self.close(slot);
        }
        read
    }

    /// Adopt freshly accepted connections.
    fn adopt(&mut self) {
        let fresh: Vec<TcpStream> = std::mem::take(&mut *lock(&self.shared.inbox));
        for stream in fresh {
            let Ok(conn) = Conn::new(stream) else {
                continue;
            };
            let slot = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.gens.push(0);
                self.conns.len() - 1
            });
            if self
                .poller
                .register(conn.fd(), slot as u64 + 1, Interest::READ)
                .is_ok()
            {
                self.conns[slot] = Some(conn);
                self.shared.active_conns.fetch_add(1, Ordering::Relaxed);
            } else {
                self.free.push(slot);
            }
        }
    }

    /// Send this pass's messages and closes to the core as one
    /// [`CoreMsg`]; returns how many items went.
    fn hand_off(&mut self) -> usize {
        let n = self.handoff.len();
        if n > 0 {
            self.stats.core_queue.fetch_add(n as u64, Ordering::Relaxed);
            self.stats.core_handoffs.fetch_add(1, Ordering::Relaxed);
            let items = std::mem::take(&mut self.handoff);
            let _ = self.tx.send(CoreMsg::Pass {
                worker: self.wi,
                items,
            });
        }
        n
    }

    /// Write what is due at `now` ([`OutBatch::drain`]): each due
    /// connection's frames, flushed once, then the closes. Every written
    /// connection's held age goes into `hold_us`.
    fn write_round(&mut self, now: Instant) {
        let stats = self.stats;
        let (doomed, ages) = (&mut self.doomed, &mut self.ages);
        let deferred = self.out.drain(&self.gens, now, |flush| match flush {
            Flush::Frames(slot, payloads, age) => {
                let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                    return;
                };
                ages.push(age.as_micros() as u64);
                let res = frame_groups(payloads, &mut self.compound, |chunks, msgs| {
                    stats.frames_out.fetch_add(1, Ordering::Relaxed);
                    stats.msgs_out.fetch_add(msgs as u64, Ordering::Relaxed);
                    if msgs > 1 {
                        stats.compound_frames_out.fetch_add(1, Ordering::Relaxed);
                    }
                    conn.queue_frame(chunks)
                })
                .and_then(|()| conn.flush());
                if res.is_err() {
                    doomed.push(slot);
                    return;
                }
                self.shared
                    .pending_out_high_water
                    .fetch_max(conn.pending_out() as u64, Ordering::Relaxed);
                if conn.wants_write() {
                    let _ = self
                        .poller
                        .modify(conn.fd(), slot as u64 + 1, Interest::READ_WRITE);
                }
            }
            Flush::Close(slot) => {
                // Best-effort final flush so eviction notices drain.
                if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                    let _ = conn.flush();
                }
                doomed.push(slot);
            }
        });
        stats.deferred.fetch_add(deferred as u64, Ordering::Relaxed);
        if !ages.is_empty() {
            let mut hold_us = lock(&self.shared.hold_us);
            for age in ages.drain(..) {
                hold_us.record(age);
            }
            drop(hold_us);
            // Counted after its holds, so a scrape never sees a round
            // without them.
            stats.write_rounds.fetch_add(1, Ordering::Relaxed);
        }
        let mut doomed = std::mem::take(&mut self.doomed);
        for slot in doomed.drain(..) {
            self.close(slot);
        }
        self.doomed = doomed;
    }

    /// Close `slot`'s connection: the core hears of it in this pass's
    /// hand-off, and output held for it is dropped.
    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) {
            let _ = self.poller.deregister(conn.fd());
            self.handoff
                .push(Inbound::Closed(conn_id(slot, self.gens[slot])));
            self.out.forget(slot);
            self.shared.active_conns.fetch_sub(1, Ordering::Relaxed);
            // Retire the identity *before* the slot becomes reusable:
            // commands the core already queued for this connection now
            // fail the generation check instead of reaching the slot's
            // next occupant.
            self.gens[slot] = self.gens[slot].wrapping_add(1);
            self.free.push(slot);
            self.stats.closed.fetch_add(1, Ordering::Relaxed);
        }
    }
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
    /// Each worker's commands from the batch in hand, published with one
    /// outbox lock and one wake per worker at the batch's end.
    outgoing: Vec<Vec<OutCmd>>,
    dropped_broadcasts: u64,
    publish_time: Duration,
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
    /// Handle one decoded message from a connection: the hub steps, its
    /// sends become write commands, and a refused hello or input, a
    /// trimmed rebind, or an evicted site sheds the connection.
    fn on_msg(&mut self, key: ConnKey, msg: EditorMsg) {
        let (seq, captured) = match &msg {
            EditorMsg::ClientOp(op) => (
                op.stamp.get(2),
                self.cfg
                    .capture_integrations
                    .then(|| self.hub.notifier().closed(op)),
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
            // Refused input, a trimmed rebind or an evicted site: the
            // connection speaks for nobody from here on. A trimmed rebind
            // (a stale backup's frontier) needs a snapshot this tier cannot
            // send yet, so it is counted, and answered as on the simulator
            // tier with its integrated count — where its re-sends start.
            shed if shed.sheds() => {
                if let Step::Trimmed(site) = shed {
                    self.dropped_broadcasts += 1;
                    let acked = self.hub.notifier().state_vector().received_from(site);
                    let ack = ServerAckMsg {
                        acked: acked.unwrap_or(0),
                    };
                    self.outgoing[key.0].push(OutCmd::Frame {
                        conn: key.1,
                        payload: Payload::encode(&EditorMsg::ServerAck(ack)),
                        awaited: true,
                    });
                }
                self.hub.unbind(key);
                self.stats.evicted.fetch_add(1, Ordering::Relaxed);
                self.outgoing[key.0].push(OutCmd::Close { conn: key.1 });
            }
            _ => {}
        }
        // What goes back to the connection the message came on answers
        // it (an op's `ServerAck`, a hello's catch-up): its peer waits.
        for (to, payload) in sends.drain(..) {
            self.outgoing[to.0].push(OutCmd::Frame {
                conn: to.1,
                payload,
                awaited: to == key,
            });
        }
        self.sends = sends;
    }

    /// Publish the batch's commands: per worker, one outbox append under
    /// one lock, then one wake.
    fn hand_off(&mut self) {
        for (w, cmds) in self.workers.iter().zip(&mut self.outgoing) {
            if cmds.is_empty() {
                continue;
            }
            let n = cmds.len() as u64;
            let depth = {
                let mut q = lock(&w.outbox);
                q.append(cmds);
                // Counted under the lock: the worker subtracts these only
                // after it has taken them, which needs the lock too.
                w.outbox_depth.fetch_add(n, Ordering::Relaxed) + n
            };
            w.outbox_high_water.fetch_max(depth, Ordering::Relaxed);
            w.waker.wake();
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
        let t0 = Instant::now();
        self.publish_rings(&admin, eof);
        self.refresh_registry();
        lock(&admin.deltas).publish(&self.live);
        self.publish_time += t0.elapsed();
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
        live.set_counter("net.core_handoffs", s.core_handoffs.load(Ordering::Relaxed));
        live.set_counter("net.write_rounds", s.write_rounds.load(Ordering::Relaxed));
        live.set_counter("net.deferred", s.deferred.load(Ordering::Relaxed));
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
            let held = std::mem::take(&mut *lock(&w.hold_us));
            live.merge_histogram("net.worker.hold_us", &held);
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
    // Every integrated op is acknowledged to its origin: a client retires
    // its ops, and a hello's answer ends, on a `ServerAck`.
    notifier.set_send_acks(true);
    // Folded-in GC, as the simulator's sessions default to: the history
    // buffer stays at the in-flight window, and with it the snapshots the
    // log is cut to.
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
        outgoing: workers.iter().map(|_| Vec::new()).collect(),
        dropped_broadcasts: 0,
        publish_time: Duration::ZERO,
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
    let mut batch: Vec<CoreMsg> = Vec::new();
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
            let mut queued = first.len();
            batch.push(first);
            while queued < CORE_BATCH {
                let Ok(m) = rx.try_recv() else {
                    break;
                };
                queued += m.len();
                batch.push(m);
            }
            let mut since_drain = 0usize;
            for m in batch.drain(..) {
                let (worker, items) = match m {
                    CoreMsg::Pass { worker, items } => (worker, items),
                    CoreMsg::Shutdown => {
                        // The final publish eof-marks the ring log so an
                        // attached tailer knows the stream is complete.
                        core.now_us = started.elapsed().as_micros() as u64;
                        core.publish(true);
                        core.hand_off();
                        break 'outer;
                    }
                };
                stats
                    .core_queue
                    .fetch_sub(items.len() as u64, Ordering::Relaxed);
                for item in items {
                    let (conn, msg) = match item {
                        Inbound::Msg(conn, msg) => (conn, msg),
                        Inbound::Closed(conn) => {
                            core.hub.unbind((worker, conn));
                            continue;
                        }
                    };
                    core.on_msg((worker, conn), msg);
                    // Mid-batch ring drain: transform recording is
                    // O(|HB|) per op, and one socket read can decode
                    // thousands of ops into a single hand-off, so the
                    // drain counts editor messages, not batch items —
                    // every 32 ops bounds recorder-ring growth far below
                    // its capacity. A no-op unless tracing is on.
                    since_drain += 1;
                    if since_drain >= 32 {
                        since_drain = 0;
                        if let Some(admin) = core.admin.clone() {
                            core.publish_rings(&admin, false);
                        }
                    }
                }
            }
            core.hand_off();
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
        core_handoffs: stats.core_handoffs.load(Ordering::Relaxed),
        write_rounds: stats.write_rounds.load(Ordering::Relaxed),
        deferred: stats.deferred.load(Ordering::Relaxed),
        dropped_broadcasts: core.dropped_broadcasts,
        publish_time: core.publish_time,
        wal_appends: wal.map_or(0, Wal::appends),
        wal_amplification: wal.map_or(0.0, Wal::amplification),
        wal_bytes: wal.map_or_else(Vec::new, |w| w.bytes().to_vec()),
        hb_high_water: m.hb_high_water,
        integration_log: core.integration_log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvc_reduce::msg::ClientAckMsg;

    /// Up to 300 sites dialing at once all get through before any is
    /// accepted: past std's 128 a dropped SYN would be retried only after
    /// a second. The kernel caps the queue at `net.core.somaxconn`, so the
    /// burst is no larger, and a host whose cap is 128 or less cannot
    /// tell the two queues apart.
    #[test]
    fn the_listener_queues_a_connect_burst_past_128() {
        let cap = std::fs::read_to_string("/proc/sys/net/core/somaxconn");
        let cap: usize = cap.ok().and_then(|c| c.trim().parse().ok()).unwrap_or(0);
        if cap <= 128 {
            eprintln!("skipped: net.core.somaxconn is {cap}, not above 128");
            return;
        }
        let burst = cap.min(300);
        let listener = bind_listener("127.0.0.1:0").expect("binds");
        let addr = listener.local_addr().expect("bound");
        let conns: Vec<TcpStream> = (0..burst)
            .map(|k| {
                TcpStream::connect_timeout(&addr, Duration::from_millis(250))
                    .unwrap_or_else(|e| panic!("connect {k} of {burst}: {e}"))
            })
            .collect();
        assert_eq!(conns.len(), burst);
    }

    /// A distinguishable payload: an ack whose frontier is `n`.
    fn payload(n: u64) -> Payload {
        Payload::encode(&EditorMsg::ClientAck(ClientAckMsg {
            origin: SiteId(1),
            received: n,
        }))
    }

    /// A payload for `(slot, gen)` that its peer does not wait on.
    fn frame(slot: usize, gen: u32, n: u64) -> OutCmd {
        OutCmd::Frame {
            conn: conn_id(slot, gen),
            payload: payload(n),
            awaited: false,
        }
    }

    /// A payload answering `(slot, gen)`'s own input.
    fn answer(slot: usize, gen: u32, n: u64) -> OutCmd {
        OutCmd::Frame {
            conn: conn_id(slot, gen),
            payload: payload(n),
            awaited: true,
        }
    }

    fn close(slot: usize, gen: u32) -> OutCmd {
        OutCmd::Close {
            conn: conn_id(slot, gen),
        }
    }

    /// The frontiers of decoded [`payload`]s, in order.
    fn frontiers(msgs: &[EditorMsg]) -> Vec<u64> {
        msgs.iter()
            .map(|m| match m {
                EditorMsg::ClientAck(a) => a.received,
                other => panic!("unexpected {other:?}"),
            })
            .collect()
    }

    /// Drain what `out` has due at `now` against `gens`: each written
    /// connection's payloads by frontier, `None` for a close.
    fn due_at(out: &mut OutBatch, gens: &[u32], now: Instant) -> Vec<(usize, Option<Vec<u64>>)> {
        let mut got = Vec::new();
        out.drain(gens, now, |flush| {
            got.push(match flush {
                Flush::Frames(slot, payloads, _) => {
                    let mut msgs = Vec::new();
                    for p in payloads {
                        assert!(decode_payload(p.chunks(), &mut msgs).is_ok());
                    }
                    (slot, Some(frontiers(&msgs)))
                }
                Flush::Close(slot) => (slot, None),
            });
        });
        got
    }

    /// Drain `out` once everything pushed at `t0` is due: a drain then
    /// empties the batch.
    fn drained(out: &mut OutBatch, gens: &[u32], t0: Instant) -> Vec<(usize, Option<Vec<u64>>)> {
        let got = due_at(out, gens, t0 + BROADCAST_HOLD);
        assert!(
            out.is_empty(),
            "a drain past every deadline empties the batch"
        );
        got
    }

    #[test]
    fn held_output_never_reaches_the_slots_next_incarnation() {
        let t0 = Instant::now();
        let mut out = OutBatch::default();
        out.push(frame(3, 7, 1), t0);
        // The worker closes slot 3 (generation 7 → 8) while holding; a
        // command the core queued before it heard of the close arrives
        // late, then the slot's next occupant gets its own output.
        out.forget(3);
        out.push(frame(3, 7, 2), t0);
        out.push(frame(3, 8, 3), t0);
        out.push(
            OutCmd::Close {
                conn: conn_id(3, 7),
            },
            t0,
        );
        assert_eq!(
            drained(&mut out, &[0, 0, 0, 8], t0),
            vec![(3, Some(vec![3]))]
        );
    }

    #[test]
    fn awaited_output_is_written_at_once() {
        let t0 = Instant::now();
        let mut out = OutBatch::default();
        out.push(frame(2, 0, 20), t0);
        out.push(frame(5, 0, 50), t0);
        out.push(answer(5, 0, 51), t0);
        let gens = [0; 6];
        // Slot 5's peer waits on 51, so 50 rides along; slot 2 holds.
        assert_eq!(due_at(&mut out, &gens, t0), vec![(5, Some(vec![50, 51]))]);
        assert_eq!(out.len, 1);
        assert_eq!(out.deadline(), Some(t0 + BROADCAST_HOLD));
    }

    #[test]
    fn a_full_compound_is_written_at_once() {
        let t0 = Instant::now();
        let mut out = OutBatch::default();
        let full = COMPOUND_MAX as u64;
        for n in 0..full - 1 {
            out.push(frame(0, 0, n), t0);
        }
        assert!(
            due_at(&mut out, &[0], t0).is_empty(),
            "one short of a compound holds"
        );
        out.push(frame(0, 0, full - 1), t0);
        let want = vec![(0, Some((0..full).collect()))];
        assert_eq!(due_at(&mut out, &[0], t0), want);
        assert!(out.is_empty() && out.deadline().is_none());
    }

    #[test]
    fn held_output_is_written_when_its_deadline_passes() {
        let t0 = Instant::now();
        let t1 = t0 + BROADCAST_HOLD / 2;
        let mut out = OutBatch::default();
        out.push(frame(1, 0, 10), t0);
        out.push(frame(2, 0, 20), t1);
        // Later output for a holding slot keeps the slot's deadline.
        out.push(frame(1, 0, 11), t1);
        let gens = [0; 3];
        assert_eq!(out.deadline(), Some(t0 + BROADCAST_HOLD));
        let early = t0 + BROADCAST_HOLD - Duration::from_micros(1);
        assert!(due_at(&mut out, &gens, early).is_empty());
        let mut ages = Vec::new();
        let n = out.drain(&gens, t0 + BROADCAST_HOLD, |flush| {
            if let Flush::Frames(slot, _, age) = flush {
                ages.push((slot, age));
            }
        });
        assert_eq!(
            (n, ages),
            (1, vec![(1, BROADCAST_HOLD)]),
            "slot 2 still holds"
        );
        assert_eq!(out.deadline(), Some(t1 + BROADCAST_HOLD));
        let want = vec![(2, Some(vec![20]))];
        assert_eq!(due_at(&mut out, &gens, t1 + BROADCAST_HOLD), want);
    }

    #[test]
    fn a_queued_close_writes_the_held_output_before_the_fin() {
        let t0 = Instant::now();
        let mut out = OutBatch::default();
        out.push(frame(1, 0, 10), t0);
        out.push(frame(2, 0, 20), t0);
        out.push(frame(1, 0, 11), t0);
        out.push(close(1, 0), t0);
        let gens = [0; 3];
        let want = vec![(1, Some(vec![10, 11])), (1, None)];
        assert_eq!(due_at(&mut out, &gens, t0), want);
        // A close the worker made itself drops what is held.
        out.forget(2);
        assert!(out.is_empty() && drained(&mut out, &gens, t0).is_empty());
    }

    #[test]
    fn a_round_writes_awaited_then_due_output_closes_last() {
        let t0 = Instant::now();
        let mut out = OutBatch::default();
        out.push(close(0, 0), t0);
        out.push(frame(4, 0, 1), t0);
        out.push(frame(2, 0, 2), t0);
        out.push(frame(4, 0, 3), t0);
        out.push(frame(2, 0, 4), t0);
        out.push(answer(3, 0, 5), t0);
        let gens = [0; 5];
        let want = vec![
            (3, Some(vec![5])),
            (4, Some(vec![1, 3])),
            (2, Some(vec![2, 4])),
            (0, None),
        ];
        assert_eq!(drained(&mut out, &gens, t0), want);
        // The buffers are reused: a second round sees only its own output.
        out.push(frame(2, 0, 6), t0);
        assert_eq!(drained(&mut out, &gens, t0), vec![(2, Some(vec![6]))]);
    }

    #[test]
    fn frames_are_compound_groups_of_at_most_compound_max() {
        let mut out = OutBatch::default();
        let n = 2 * COMPOUND_MAX as u64 + 6;
        let t0 = Instant::now();
        for i in 0..n {
            out.push(frame(0, 0, i), t0);
        }
        let (mut sizes, mut msgs) = (Vec::new(), Vec::new());
        out.drain(&[0], t0, |flush| {
            let Flush::Frames(0, payloads, _) = flush else {
                panic!("one connection's frames");
            };
            let res: Result<(), ()> = frame_groups(payloads, &mut Vec::new(), |chunks, count| {
                let before = msgs.len();
                assert!(decode_payload([&chunks.concat(), &[]], &mut msgs).is_ok());
                assert_eq!(msgs.len() - before, count, "a frame carries its count");
                sizes.push(count);
                Ok(())
            });
            assert!(res.is_ok());
        });
        assert_eq!(sizes, vec![COMPOUND_MAX, COMPOUND_MAX, 6]);
        assert_eq!(frontiers(&msgs), (0..n).collect::<Vec<_>>());
    }
}
