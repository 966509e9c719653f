//! One benchmark session: an in-process server on loopback, N real
//! `Client` replicas behind N real connections, one generator thread.
//!
//! The generator is a **closed loop**: each writer keeps `window`
//! operations un-acknowledged and issues the next when a `ServerAck`
//! retires one. Editors are independent users, so an open loop would be
//! the natural model; it is rejected because on a shared two-core box its
//! microsecond latencies are scheduler wake-ups, not the program
//! (README.md, "noise study").
//!
//! Everything crosses the layers' public functions only: `Conn`, `Poller`,
//! `EditorMsg::{encode,decode}`, `Client::{insert,delete,try_on_server_op,
//! gc,take_pending_ack}` — the replica is driven exactly as
//! `cvc_reduce::session` drives it, `gc()` after every remote op included.

use crate::affinity;
use crate::procfs::{self, SchedStat, ThreadClock};
use crate::stats::SampleWindow;
use crate::trace::{Kind, OpId, Tracer, NO_OP};
use crate::workload::{letter_of, origin_of, Edit, EditGen, SendRing, Workload};
use cvc_core::site::SiteId;
use cvc_net::frame::framed_len;
use cvc_net::{Conn, EditorServer, Interest, PollEvent, Poller, ServerConfig, ServerReport};
use cvc_ot::seq::{Component, SeqOp};
use cvc_reduce::client::Client;
use cvc_reduce::msg::{ClientAckMsg, EditorMsg};
use cvc_reduce::reliable::frame_checksum;
use cvc_sim::wire::{WireDecode, WireEncode};
use std::collections::VecDeque;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Length of one window of the measured phase: long enough for hundreds
/// of ops on the slowest workload, short enough that a run has dozens.
pub const WINDOW: Duration = Duration::from_millis(250);

/// Latency samples one window can hold (acks; deliveries are N−1 per op):
/// several times what the fastest workload produces, and small next to the
/// system's own memory, which `rss_peak_mb` is meant to show.
const RTT_WINDOW_CAP: usize = 1 << 15;
const DELIVER_WINDOW_CAP: usize = 1 << 18;

/// How long a drain may take before the run fails. Generous: a healthy
/// drain takes milliseconds.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// Inserts of one origin whose send instants stay resident. One thread
/// reads every socket in turn, so replicas trail an origin by about what
/// the closed loop keeps in flight — hundreds of ops at most. A lapped
/// entry fails the run; it never yields a wrong latency.
const SEND_RING_CAP: usize = 1 << 13;

#[derive(Clone, Copy)]
pub struct SessionConfig<'a> {
    pub workload: &'a Workload,
    pub seed: u64,
    /// Length of the measured phase; zero in a session that is run for
    /// its set-up time alone and ends when the set-up does.
    pub measure: Duration,
    /// Alternate traced and untraced windows, and capture the server's
    /// integration log for the per-layer replay.
    pub trace: bool,
    /// Acknowledged operations between prefill and the measured phase.
    pub warmup_ops: u64,
    /// The CPUs the process may use. With two or more, the generator is
    /// pinned to the last and the server's threads to the others.
    pub cpus: &'a [usize],
}

/// What one window of the measured phase observed.
#[derive(Debug, Clone)]
pub struct WindowSample {
    pub traced: bool,
    pub wall_ns: u64,
    /// Operations acknowledged inside the window.
    pub acked: u64,
    /// Framed bytes written to plus read from all sockets.
    pub wire_bytes: u64,
    /// `(samples, p50 ns, p99 ns)`.
    pub rtt: (usize, Option<u32>, Option<u32>),
    pub deliver: (usize, Option<u32>, Option<u32>),
    pub generator: SchedStat,
    pub core: SchedStat,
    pub workers: SchedStat,
    /// `cvc-*` threads that are neither core nor worker (the accept loop).
    pub other_server: SchedStat,
}

pub struct SessionResult {
    /// Before `EditorServer::spawn` → every replica's document at the
    /// target length.
    pub setup_s: f64,
    pub windows: Vec<WindowSample>,
    pub issued: u64,
    pub acked: u64,
    /// Why the run is not correct; empty when every check passed.
    pub failures: Vec<String>,
    /// `VmHWM` when the workload's `rss_at_ops`-th measured op was acked
    /// (at the end of the run if it never was — see `rss_at_target`).
    pub rss_peak_mb: f64,
    pub rss_at_target: bool,
    /// `VmRSS` at the end of set-up.
    pub rss_baseline_mb: f64,
    pub samples_dropped: u64,
    pub report: ServerReport,
    pub tracer: Tracer,
    /// Checksum every replica agreed on (0 when they did not).
    pub doc_checksum: u64,
}

/// One client site: replica, connection, and its share of the closed loop.
struct Site {
    id: SiteId,
    client: Client,
    conn: Conn,
    /// The edit stream (writers only) and a second, independent stream
    /// that only the transform probe draws from.
    gen: Option<(EditGen, EditGen)>,
    /// `block` copies of this site's letter.
    text: String,
    /// Send instants (ns since the epoch) of un-acknowledged local ops.
    in_flight: VecDeque<u64>,
    issued: u64,
    acked: u64,
    /// Inserts seen so far from each origin.
    seen_inserts: Vec<u64>,
    registered_rw: bool,
}

/// Everything the per-message handlers touch besides the site itself.
struct Shared<'a> {
    w: &'a Workload,
    epoch: Instant,
    tracer: Tracer,
    issuing: bool,
    rtt: SampleWindow,
    deliver: SampleWindow,
    /// Send instants of each origin's inserts.
    sent: Vec<SendRing>,
    deliver_unmatched: u64,
    wire_bytes: u64,
    issued: u64,
    acked: u64,
    enc: Vec<u8>,
}

impl Shared<'_> {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

type Fatal = String;

/// `edit` as a bare `SeqOp` on a document of `doc_len` characters.
fn seq_op(edit: Edit, w: &Workload, text: &str, doc_len: usize) -> SeqOp {
    let mut op = SeqOp::new();
    match edit {
        Edit::Insert { pos } => op.retain(pos).insert(text).retain(doc_len - pos),
        Edit::Delete { pos } => op
            .retain(pos)
            .delete(w.block)
            .retain(doc_len - pos - w.block),
    };
    op
}

/// Whose insert `op` is, read off the inserted text's first letter.
fn inserted_origin(op: &SeqOp) -> Option<usize> {
    op.components().iter().find_map(|c| match c {
        Component::Insert(text) => text.chars().next().and_then(origin_of),
        _ => None,
    })
}

fn send_msg(site: &mut Site, sh: &mut Shared, msg: &EditorMsg, op: OpId) -> Result<(), Fatal> {
    // Called right after a span ended (edit, gc), so the boundaries are
    // shared rather than read twice.
    sh.tracer.begin_here(Kind::Encode);
    sh.enc.clear();
    msg.encode(&mut sh.enc);
    sh.tracer.end(Kind::Encode, op);

    sh.tracer.begin_here(Kind::Send);
    let before = site.conn.pending_out();
    let res = site
        .conn
        .queue_frame(&[&sh.enc])
        .and_then(|()| {
            sh.wire_bytes += (site.conn.pending_out() - before) as u64;
            site.conn.flush()
        })
        .map_err(|e| format!("site {}: send failed: {e}", site.id.0));
    sh.tracer.end(Kind::Send, op);
    res
}

/// Generate, execute and send this writer's next edit.
fn issue(site: &mut Site, sh: &mut Shared) -> Result<(), Fatal> {
    let Some((gen, probe_gen)) = site.gen.as_mut() else {
        return Ok(());
    };
    sh.tracer.begin(Kind::Issue);
    let (doc_len, caret) = (site.client.doc_len(), site.client.caret());
    let edit = gen.next(doc_len, caret);
    if sh.tracer.enabled() {
        // The transform probe: a second op drawn at the same document
        // state, transformed against the real one and thrown away.
        let a = seq_op(edit, sh.w, &site.text, doc_len);
        let b = seq_op(probe_gen.next(doc_len, caret), sh.w, &site.text, doc_len);
        sh.tracer.begin(Kind::Transform);
        let pair = SeqOp::transform(std::hint::black_box(&a), std::hint::black_box(&b));
        sh.tracer.end(Kind::Transform, NO_OP);
        if std::hint::black_box(pair).is_err() {
            return Err(format!("site {}: probe transform failed", site.id.0));
        }
    }
    sh.tracer.begin(Kind::Edit);
    let msg = match edit {
        Edit::Insert { pos } => site.client.insert(pos, &site.text),
        Edit::Delete { pos } => site.client.delete(pos, sh.w.block),
    };
    let op: OpId = (site.id.0, msg.stamp.get(2));
    sh.tracer.end(Kind::Edit, op);

    let sent_ns = sh.now_ns();
    let res = send_msg(site, sh, &EditorMsg::ClientOp(msg), op);
    site.in_flight.push_back(sent_ns);
    if matches!(edit, Edit::Insert { .. }) {
        sh.sent[site.id.client_index()].push(op.1, sent_ns);
    }
    site.issued += 1;
    sh.issued += 1;
    sh.tracer.end(Kind::Issue, op);
    res
}

/// Top the writer's window back up.
fn refill(site: &mut Site, sh: &mut Shared) -> Result<(), Fatal> {
    while sh.issuing && site.gen.is_some() && site.in_flight.len() < sh.w.window {
        issue(site, sh)?;
    }
    Ok(())
}

/// Apply one downstream message at its replica.
fn on_msg(site: &mut Site, sh: &mut Shared, msg: EditorMsg) -> Result<(), Fatal> {
    match msg {
        EditorMsg::ServerOp(m) => {
            // The k-th insert carrying origin o's letter is o's k-th
            // insert: that names the op and finds its send instant.
            let sent = inserted_origin(&m.op).and_then(|o| {
                let k = site.seen_inserts[o];
                site.seen_inserts[o] += 1;
                let hit = sh.sent.get(o).and_then(|ring| ring.get(k));
                if hit.is_none() {
                    sh.deliver_unmatched += 1;
                }
                hit.map(|(seq, sent_ns)| ((o as u32 + 1, seq), sent_ns))
            });
            let op = sent.map_or(NO_OP, |(op, _)| op);
            sh.tracer.begin(Kind::Deliver);
            sh.tracer.begin_here(Kind::Exec);
            let res = site.client.try_on_server_op(m);
            sh.tracer.end(Kind::Exec, op);
            sh.tracer.begin_here(Kind::Gc);
            site.client.gc();
            sh.tracer.end(Kind::Gc, op);
            if let Some((_, sent_ns)) = sent {
                sh.deliver.push(sh.now_ns().saturating_sub(sent_ns));
            }
            let out = res
                .map(|_| ())
                .map_err(|e| format!("site {}: server op rejected: {e}", site.id.0));
            match site.client.take_pending_ack().filter(|_| out.is_ok()) {
                Some(ack) => {
                    let sent = send_msg(site, sh, &EditorMsg::ClientAck(ack), NO_OP);
                    sh.tracer.end(Kind::Deliver, op);
                    sent
                }
                None => {
                    sh.tracer.end_here(Kind::Deliver, op);
                    out
                }
            }
        }
        EditorMsg::ServerAck(a) => {
            let now = sh.now_ns();
            while site.acked < a.acked {
                let Some(sent_ns) = site.in_flight.pop_front() else {
                    return Err(format!("site {}: ack beyond what was sent", site.id.0));
                };
                sh.rtt.push(now.saturating_sub(sent_ns));
                site.acked += 1;
                sh.acked += 1;
            }
            refill(site, sh)
        }
        EditorMsg::Compound(ms) => ms.into_iter().try_for_each(|m| on_msg(site, sh, m)),
        other => Err(format!(
            "site {}: unexpected downstream message {other:?}",
            site.id.0
        )),
    }
}

/// Clocks of the threads a window charges CPU to.
struct Clocks {
    generator: ThreadClock,
    core: Vec<ThreadClock>,
    workers: Vec<ThreadClock>,
    other_server: Vec<ThreadClock>,
}

/// Readings of every clock at one instant, summed per group.
#[derive(Debug, Clone, Copy, Default)]
struct ClockReading {
    generator: SchedStat,
    core: SchedStat,
    workers: SchedStat,
    other_server: SchedStat,
}

impl Clocks {
    /// Find the server's threads by name. They name themselves as they
    /// start, so a thread spawned a moment ago may not be visible yet.
    fn discover(workers: usize) -> Result<Clocks, Fatal> {
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let mut c = Clocks {
                generator: ThreadClock::current().map_err(|e| format!("own schedstat: {e}"))?,
                core: Vec::new(),
                workers: Vec::new(),
                other_server: Vec::new(),
            };
            let server =
                procfs::other_threads_named("cvc-").map_err(|e| format!("/proc scan: {e}"))?;
            for t in server {
                if t.name == "cvc-core" {
                    c.core.push(t);
                } else if t.name.starts_with("cvc-worker") {
                    c.workers.push(t);
                } else {
                    c.other_server.push(t);
                }
            }
            if c.core.len() == 1 && c.workers.len() == workers && !c.other_server.is_empty() {
                return Ok(c);
            }
            if Instant::now() > deadline {
                return Err("server threads (cvc-core, cvc-worker-*, cvc-accept) not found".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn server_threads(&self) -> impl Iterator<Item = &ThreadClock> {
        self.core
            .iter()
            .chain(&self.workers)
            .chain(&self.other_server)
    }

    fn read(&self) -> Result<ClockReading, Fatal> {
        let sum = |ts: &[ThreadClock]| -> Result<SchedStat, Fatal> {
            let mut s = SchedStat::default();
            for t in ts {
                let r = t.read().map_err(|e| e.to_string())?;
                s.run_ns += r.run_ns;
                s.wait_ns += r.wait_ns;
            }
            Ok(s)
        };
        Ok(ClockReading {
            generator: self.generator.read().map_err(|e| e.to_string())?,
            core: sum(&self.core)?,
            workers: sum(&self.workers)?,
            other_server: sum(&self.other_server)?,
        })
    }
}

/// Counters at the moment a window opened.
struct OpenWindow {
    traced: bool,
    start_ns: u64,
    end_ns: u64,
    clocks: ClockReading,
    acked: u64,
    wire_bytes: u64,
}

enum Phase {
    /// Writers type until every replica's document reaches the target.
    Prefill,
    /// A fixed number of ops more, so that the measured phase starts on
    /// full undo stacks and warm caches. Not part of `setup_s`: these are
    /// ordinary edits, which `goodput_ops_s` prices far more steadily.
    Warmup {
        until_acked: u64,
    },
    Measure {
        window: OpenWindow,
    },
    /// Nothing new is issued; wait until every op is acked everywhere.
    Drain {
        deadline: Instant,
    },
}

fn sync_interest(site: &mut Site, poller: &Poller, token: u64) {
    let want_rw = site.conn.wants_write();
    if want_rw != site.registered_rw {
        let want = if want_rw {
            Interest::READ_WRITE
        } else {
            Interest::READ
        };
        if poller.modify(site.conn.fd(), token, want).is_ok() {
            site.registered_rw = want_rw;
        }
    }
}

/// Run one session to completion. `Err` only for failures before there is
/// anything to report (bind, connect, `/proc`); failures of the run itself
/// come back in [`SessionResult::failures`].
#[allow(clippy::too_many_lines)]
pub fn run_session(cfg: &SessionConfig) -> Result<SessionResult, Fatal> {
    let w = cfg.workload;
    let epoch = Instant::now();

    // ---- set-up: server, connections, hellos, buffers ----
    let handle = EditorServer::spawn(ServerConfig {
        n_clients: w.clients,
        workers: 1,
        capture_integrations: cfg.trace,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server spawn: {e}"))?;

    let mut sh = Shared {
        w,
        epoch,
        tracer: Tracer::new(epoch, cfg.trace),
        issuing: true,
        rtt: SampleWindow::with_capacity(RTT_WINDOW_CAP),
        deliver: SampleWindow::with_capacity(DELIVER_WINDOW_CAP),
        sent: (0..w.writers)
            .map(|_| SendRing::new(SEND_RING_CAP))
            .collect(),
        deliver_unmatched: 0,
        wire_bytes: 0,
        issued: 0,
        acked: 0,
        enc: Vec::with_capacity(4096),
    };

    let poller = Poller::new().map_err(|e| format!("epoll: {e}"))?;
    let mut sites: Vec<Site> = Vec::with_capacity(w.clients);
    let mut failures: Vec<String> = Vec::new();
    for i in 0..w.clients {
        let stream = TcpStream::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        let id = SiteId::from_client_index(i);
        let mut site = Site {
            id,
            client: Client::new(id, ""),
            conn: Conn::new(stream).map_err(|e| format!("conn: {e}"))?,
            gen: (i < w.writers)
                .then(|| (EditGen::new(cfg.seed, i, w), EditGen::new(!cfg.seed, i, w))),
            text: letter_of(i).to_string().repeat(w.block),
            in_flight: VecDeque::with_capacity(w.window),
            issued: 0,
            acked: 0,
            seen_inserts: vec![0; w.clients],
            registered_rw: false,
        };
        // Hello: bind the connection to its site before any edit.
        let hello = EditorMsg::ClientAck(ClientAckMsg {
            origin: id,
            received: 0,
        });
        send_msg(&mut site, &mut sh, &hello, NO_OP)?;
        poller
            .register(site.conn.fd(), i as u64, Interest::READ)
            .map_err(|e| format!("epoll register: {e}"))?;
        // The hello may not have flushed whole.
        sync_interest(&mut site, &poller, i as u64);
        sites.push(site);
    }
    let clocks = Clocks::discover(1)?;
    if let [server_cpus @ .., generator_cpu] = cfg.cpus {
        if !server_cpus.is_empty() {
            affinity::pin(0, &[*generator_cpu]).map_err(|e| format!("pinning: {e}"))?;
            for t in clocks.server_threads() {
                affinity::pin(t.tid, server_cpus).map_err(|e| format!("pinning: {e}"))?;
            }
        }
    }

    // ---- the loop: prefill → warm-up → windows → drain ----
    let mut phase = Phase::Prefill;
    // At least one traced and one untraced window, however short the run;
    // none in a session that is run for its set-up alone.
    let n_windows = if cfg.measure.is_zero() {
        0
    } else {
        (cfg.measure.as_nanos() / WINDOW.as_nanos()).max(2) as usize
    };
    let mut windows: Vec<WindowSample> = Vec::with_capacity(n_windows);
    let mut setup_s = 0.0;
    let mut rss_baseline_mb = 0.0;
    let mut rss_peak_mb: Option<f64> = None;
    let mut measure_from_acked = 0u64;
    let mut events: Vec<PollEvent> = Vec::with_capacity(256);
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let window_len_ns = cfg.measure.as_nanos() as u64 / n_windows.max(1) as u64;

    let open_window = |sh: &mut Shared, index: usize| -> Result<OpenWindow, Fatal> {
        let traced = cfg.trace && index.is_multiple_of(2);
        sh.tracer.set_enabled(traced);
        let start_ns = sh.now_ns();
        Ok(OpenWindow {
            traced,
            start_ns,
            end_ns: start_ns + window_len_ns,
            clocks: clocks.read()?,
            acked: sh.acked,
            wire_bytes: sh.wire_bytes,
        })
    };

    for site in &mut sites {
        if let Err(e) = refill(site, &mut sh) {
            failures.push(e);
        }
    }

    'run: while failures.is_empty() {
        // Phase transitions, checked between batches of events.
        match &phase {
            Phase::Prefill => {
                if sites.iter().all(|s| s.client.doc_len() >= w.target_len) {
                    setup_s = epoch.elapsed().as_secs_f64();
                    phase = if n_windows == 0 {
                        sh.issuing = false;
                        Phase::Drain {
                            deadline: Instant::now() + DRAIN_GRACE,
                        }
                    } else {
                        Phase::Warmup {
                            until_acked: sh.acked + cfg.warmup_ops,
                        }
                    };
                }
            }
            Phase::Warmup { until_acked } => {
                if sh.acked >= *until_acked {
                    rss_baseline_mb = procfs::status_mb("VmRSS").map_err(|e| e.to_string())?;
                    measure_from_acked = sh.acked;
                    sh.rtt.clear();
                    sh.deliver.clear();
                    phase = Phase::Measure {
                        window: open_window(&mut sh, 0)?,
                    };
                }
            }
            Phase::Measure { window } => {
                if rss_peak_mb.is_none() && sh.acked - measure_from_acked >= w.rss_at_ops {
                    rss_peak_mb = Some(procfs::status_mb("VmHWM").map_err(|e| e.to_string())?);
                }
                let now = sh.now_ns();
                if now >= window.end_ns {
                    // Read every clock first; the percentile work below
                    // belongs to no window.
                    let end = clocks.read()?;
                    sh.tracer.set_enabled(false);
                    windows.push(WindowSample {
                        traced: window.traced,
                        wall_ns: now - window.start_ns,
                        acked: sh.acked - window.acked,
                        wire_bytes: sh.wire_bytes - window.wire_bytes,
                        rtt: sh.rtt.drain(),
                        deliver: sh.deliver.drain(),
                        generator: end.generator.since(window.clocks.generator),
                        core: end.core.since(window.clocks.core),
                        workers: end.workers.since(window.clocks.workers),
                        other_server: end.other_server.since(window.clocks.other_server),
                    });
                    if windows.len() == n_windows {
                        sh.issuing = false;
                        phase = Phase::Drain {
                            deadline: Instant::now() + DRAIN_GRACE,
                        };
                    } else {
                        phase = Phase::Measure {
                            window: open_window(&mut sh, windows.len())?,
                        };
                    }
                }
            }
            Phase::Drain { deadline } => {
                let quiet = sites.iter().all(|s| {
                    s.acked == s.issued
                        && s.client.state_vector().received() == sh.issued - s.issued
                });
                if quiet {
                    break 'run;
                }
                if Instant::now() > *deadline {
                    failures.push(format!(
                        "deadline: {} of {} ops acked, replicas still behind",
                        sh.acked, sh.issued
                    ));
                    break 'run;
                }
            }
        }

        events.clear();
        sh.tracer.begin(Kind::Poll);
        let waited = poller.wait(&mut events, 5);
        sh.tracer.end(Kind::Poll, NO_OP);
        waited.map_err(|e| format!("epoll wait: {e}"))?;

        for ev in &events {
            let Some(site) = sites.get_mut(ev.token as usize) else {
                continue;
            };
            let mut res: Result<(), Fatal> = Ok(());
            if ev.readable || ev.hangup {
                payloads.clear();
                sh.tracer.begin(Kind::Read);
                let read = site.conn.on_readable(&mut payloads);
                sh.tracer.end(Kind::Read, NO_OP);
                // `Conn` does not expose bytes read, and a frame's length
                // on the wire depends on its checksum's varint. Hashing
                // the payloads again is the harness's cost, so it gets a
                // span of its own instead of hiding between the layers'.
                sh.tracer.begin_here(Kind::Account);
                sh.wire_bytes += payloads
                    .iter()
                    .map(|p| framed_len(p.len(), frame_checksum(&[p])) as u64)
                    .sum::<u64>();
                sh.tracer.end(Kind::Account, NO_OP);
                for p in &payloads {
                    sh.tracer.begin(Kind::Decode);
                    let mut slice: &[u8] = p;
                    let msg = EditorMsg::decode(&mut slice);
                    sh.tracer.end(Kind::Decode, NO_OP);
                    res = match msg {
                        Ok(m) if slice.is_empty() => on_msg(site, &mut sh, m),
                        Ok(_) => Err(format!("site {}: trailing bytes in frame", site.id.0)),
                        Err(e) => Err(format!("site {}: decode failed: {e:?}", site.id.0)),
                    };
                    if res.is_err() {
                        break;
                    }
                }
                if let (Ok(()), Err(e)) = (&res, read) {
                    res = Err(format!("site {}: connection lost: {e}", site.id.0));
                }
            }
            if res.is_ok() && ev.writable {
                res = site
                    .conn
                    .flush()
                    .map_err(|e| format!("site {}: flush failed: {e}", site.id.0));
            }
            match res {
                Ok(()) => sync_interest(site, &poller, ev.token),
                Err(e) => {
                    failures.push(e);
                    break 'run;
                }
            }
        }
    }
    sh.tracer.set_enabled(false);

    // ---- verify: replicas against each other, then against the server ----
    let rss_at_target = rss_peak_mb.is_some();
    let rss_peak_mb = match rss_peak_mb {
        Some(mb) => mb,
        None => procfs::status_mb("VmHWM").map_err(|e| e.to_string())?,
    };
    if windows.len() != n_windows {
        failures.push(format!(
            "only {} of {n_windows} windows completed",
            windows.len()
        ));
    }
    let mut checksums: Vec<u64> = sites.iter().map(|s| s.client.doc_checksum()).collect();
    checksums.sort_unstable();
    checksums.dedup();
    if checksums.len() != 1 {
        failures.push(format!("{} distinct replica documents", checksums.len()));
    }
    for s in &sites {
        let perr = s.client.metrics().protocol_errors;
        if perr != 0 {
            failures.push(format!("site {}: {perr} protocol errors", s.id.0));
        }
    }
    if sh.deliver_unmatched != 0 {
        failures.push(format!(
            "{} delivered inserts had no recorded send instant",
            sh.deliver_unmatched
        ));
    }

    // Shut down with every connection still open, so the report's
    // connection count is part of the check.
    let report = handle.shutdown();
    let doc_checksum = if checksums.len() == 1 {
        checksums[0]
    } else {
        0
    };
    if report.doc_checksum != doc_checksum {
        failures.push(format!(
            "server document {:#x} != replicas' {doc_checksum:#x}",
            report.doc_checksum
        ));
    }
    for (name, got, want) in [
        ("ops_integrated", report.ops_integrated, sh.issued),
        ("accepted", report.accepted, w.clients as u64),
        (
            "active_connections",
            report.active_connections,
            w.clients as u64,
        ),
        ("protocol_errors", report.protocol_errors, 0),
        ("frame_errors", report.frame_errors, 0),
        ("io_errors", report.io_errors, 0),
        ("evicted", report.evicted, 0),
        ("dropped_broadcasts", report.dropped_broadcasts, 0),
    ] {
        if got != want {
            failures.push(format!("server report: {name} = {got}, expected {want}"));
        }
    }
    drop(sites);

    Ok(SessionResult {
        setup_s,
        windows,
        issued: sh.issued,
        acked: sh.acked,
        failures,
        rss_peak_mb,
        rss_at_target,
        rss_baseline_mb,
        samples_dropped: sh.rtt.dropped() + sh.deliver.dropped(),
        report,
        tracer: sh.tracer,
        doc_checksum,
    })
}
