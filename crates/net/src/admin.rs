//! The live observability plane: a second listener beside the editor
//! port that exposes what `ServerReport` only tells you post-mortem.
//!
//! ## Protocol
//!
//! HTTP/1.0, `GET` only, one request per connection — enough for `curl`,
//! a kubelet probe, `cvc-trace attach` and the E23 scraper, no HTTP
//! library:
//!
//! - `/metrics` — Prometheus text exposition of the registry.
//! - `/metrics.json` — full registry snapshot; `/metrics.json?since=C` —
//!   registry changes since snapshot sequence `C` (O(changed), not
//!   O(registry); a cursor outside the retained window, or ahead of the
//!   server, gets a `full` resync).
//! - `/healthz`, `/readyz` — liveness and readiness probes (200 / 503).
//! - `/rings?offset=N` — a chunk of the append-only ring-dump log
//!   starting at byte `N`: a `RINGS <start> <next> <eof>` header line
//!   ([`parse_rings_response`]) followed by whole dump lines.
//!
//! Bytes that are not an HTTP request head cost only their connection.
//!
//! ## Isolation
//!
//! The admin tier never touches the hot path. The core thread *pushes*
//! into [`AdminShared`] on its own publish cadence — a registry delta
//! under one mutex, fresh ring-dump lines under another — and the admin
//! thread serves scrapes from those copies. A slow or hostile scraper
//! can therefore stall only itself: the core's publish is a bounded
//! `lock / append / unlock`, and the mutexes are never held across I/O.
//!
//! Readiness is `accept thread alive ∧ core thread alive ∧ io_errors
//! unchanged since the previous probe` — the third clause turns the
//! "silently degraded" counter into a probe-visible signal.

use crate::poll::{Interest, PollEvent, Poller, Waker};
use crate::server::{lock, IoStats};
use cvc_reduce::registry::DeltaTracker;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Largest ring-dump chunk per `/rings` response.
const RINGS_CHUNK: usize = 700 * 1024;

/// After the server stops, the admin thread keeps serving this long so
/// an attached tailer can pull the final, eof-marked ring chunk.
const ADMIN_DRAIN_MS: u64 = 600;

/// An HTTP request head larger than this is not a probe; drop it.
const MAX_HTTP_HEAD: usize = 8 * 1024;

/// Default ring-dump log retention (bytes of dump text). Transform
/// events are O(|HB|) per integrated op while recording, so a burst can
/// produce tens of bytes per HB entry per op; the log only allocates
/// when `--trace` is on, so the cap buys slack for a lagging tailer
/// rather than resident memory for everyone.
pub(crate) const RING_LOG_CAP: usize = 32 << 20;

/// What the core publishes and the admin thread serves. Every field is
/// written by exactly one producer (core thread or probe path) and read
/// under short, I/O-free critical sections.
pub(crate) struct AdminShared {
    /// Registry snapshots + retained deltas (core publishes, scrapers read).
    pub(crate) deltas: Mutex<DeltaTracker>,
    /// Append-only ring-dump text log (core appends, tailers read).
    pub(crate) rings: Mutex<RingLog>,
    /// Cleared by [`AliveGuard`] when the accept thread exits.
    pub(crate) accept_alive: AtomicBool,
    /// Cleared by [`AliveGuard`] when the core thread exits.
    pub(crate) core_alive: AtomicBool,
    /// `io_errors` as of the previous readiness probe.
    pub(crate) last_probe_io_errors: AtomicU64,
    pub(crate) started: Instant,
}

impl AdminShared {
    pub(crate) fn new(ring_cap: usize) -> AdminShared {
        AdminShared {
            deltas: Mutex::new(DeltaTracker::new()),
            rings: Mutex::new(RingLog::new(ring_cap)),
            accept_alive: AtomicBool::new(true),
            core_alive: AtomicBool::new(true),
            last_probe_io_errors: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    fn uptime_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }
}

/// Which liveness flag an [`AliveGuard`] owns.
pub(crate) enum Tier {
    Accept,
    Core,
}

/// Drop-guard held by the accept and core threads: clears its liveness
/// flag on *any* exit path, including a panic unwinding the thread, so
/// readiness cannot keep reporting a dead tier as healthy.
pub(crate) struct AliveGuard {
    shared: Arc<AdminShared>,
    tier: Tier,
}

impl AliveGuard {
    pub(crate) fn new(shared: Arc<AdminShared>, tier: Tier) -> AliveGuard {
        AliveGuard { shared, tier }
    }
}

impl Drop for AliveGuard {
    fn drop(&mut self) {
        let flag = match self.tier {
            Tier::Accept => &self.shared.accept_alive,
            Tier::Core => &self.shared.core_alive,
        };
        flag.store(false, Ordering::SeqCst);
    }
}

/// Ready iff both tiers are alive and no I/O-tier thread died since the
/// previous probe. Each call consumes the `io_errors` delta: a burst of
/// abnormal exits flips exactly the next probe, after which a stable
/// (if smaller) server reads ready again.
pub(crate) fn readiness(shared: &AdminShared, stats: &IoStats) -> Result<(), &'static str> {
    let cur = stats.io_errors.load(Ordering::Relaxed);
    let prev = shared.last_probe_io_errors.swap(cur, Ordering::Relaxed);
    if !shared.accept_alive.load(Ordering::SeqCst) {
        return Err("accept thread dead");
    }
    if !shared.core_alive.load(Ordering::SeqCst) {
        return Err("core thread dead");
    }
    if cur != prev {
        return Err("io errors advanced since last probe");
    }
    Ok(())
}

/// An append-only log of ring-dump text with bounded retention: offsets
/// are stable over the log's whole lifetime, but only the last `cap`
/// bytes (rounded to whole lines) stay readable. A reader that falls
/// behind the window learns so from the served start offset.
pub(crate) struct RingLog {
    buf: Vec<u8>,
    /// Log offset of `buf[0]`.
    base: u64,
    cap: usize,
    eof: bool,
    /// A reader has pulled at least one chunk.
    tailed: bool,
    /// A reader has been served the final byte with the eof flag up.
    eof_served: bool,
}

impl RingLog {
    pub(crate) fn new(cap: usize) -> RingLog {
        RingLog {
            buf: Vec::new(),
            base: 0,
            cap: cap.max(4096),
            eof: false,
            tailed: false,
            eof_served: false,
        }
    }

    /// Append dump text (whole `\n`-terminated lines), evicting the
    /// oldest whole lines once retention is exceeded.
    pub(crate) fn append(&mut self, text: &str) {
        if text.is_empty() {
            return;
        }
        debug_assert!(text.ends_with('\n'));
        self.buf.extend_from_slice(text.as_bytes());
        if self.buf.len() > self.cap {
            let overflow = self.buf.len() - self.cap;
            // Evict at least `overflow` bytes, cutting on a line
            // boundary so readers never see a torn line.
            let from = overflow.saturating_sub(1);
            let cut = self.buf[from..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(self.buf.len(), |p| from + p + 1);
            self.buf.drain(..cut);
            self.base += cut as u64;
        }
    }

    /// No further appends will come (server shut down).
    pub(crate) fn mark_eof(&mut self) {
        self.eof = true;
    }

    /// Total bytes ever appended (the next write offset).
    #[cfg(test)]
    pub(crate) fn end(&self) -> u64 {
        self.base + self.buf.len() as u64
    }

    /// Read up to `max` bytes starting at log offset `offset`, clamped
    /// forward to the retention window and cut back to a line boundary.
    /// Returns `(served_start, bytes, eof)`; `served_start > offset`
    /// means the reader fell behind and lines were evicted unseen. The
    /// eof flag is only raised once the reader has seen the final byte.
    pub(crate) fn read_from(&mut self, offset: u64, max: usize) -> (u64, Vec<u8>, bool) {
        let idx = (offset.saturating_sub(self.base) as usize).min(self.buf.len());
        let start = self.base + idx as u64;
        let avail = &self.buf[idx..];
        let take = if avail.len() <= max {
            avail.len()
        } else {
            avail[..max]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |p| p + 1)
        };
        let eof = self.eof && idx + take == self.buf.len();
        let chunk = avail[..take].to_vec();
        self.tailed = true;
        self.eof_served |= eof;
        (start, chunk, eof)
    }

    /// A tailer is following this log and has not yet been told it ended:
    /// each poll is a connection of its own, so after shutdown the admin
    /// thread lingers for the one that fetches the final chunk.
    fn tailer_waiting(&self) -> bool {
        self.tailed && !self.eof_served
    }
}

/// A running admin listener.
pub(crate) struct AdminHandle {
    pub(crate) addr: SocketAddr,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) waker: Arc<Waker>,
    pub(crate) thread: thread::JoinHandle<()>,
}

/// Bind the admin listener and spawn its serving thread.
pub(crate) fn spawn_admin(
    addr: &str,
    shared: Arc<AdminShared>,
    stats: Arc<IoStats>,
) -> io::Result<AdminHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));
    let waker = Arc::new(Waker::new()?);
    let thread = {
        let stop = Arc::clone(&stop);
        let waker = Arc::clone(&waker);
        thread::Builder::new()
            .name("cvc-admin".to_string())
            .spawn(move || {
                if admin_loop(&listener, &shared, &stats, &stop, &waker).is_err() {
                    stats.io_errors.fetch_add(1, Ordering::Relaxed);
                }
            })?
    };
    Ok(AdminHandle {
        addr: local,
        stop,
        waker,
        thread,
    })
}

/// One-shot HTTP/1.0 exchange: read head, write response, close.
struct HttpExchange {
    stream: TcpStream,
    inb: Vec<u8>,
    out: Vec<u8>,
    sent: usize,
}

fn admin_loop(
    listener: &TcpListener,
    shared: &AdminShared,
    stats: &IoStats,
    stop: &AtomicBool,
    waker: &Waker,
) -> io::Result<()> {
    let poller = Poller::new()?;
    poller.register(waker.fd(), 0, Interest::READ)?;
    poller.register(listener.as_raw_fd(), 1, Interest::READ)?;
    // Slab of connections; epoll token = slot + 2.
    let mut conns: Vec<Option<HttpExchange>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events: Vec<PollEvent> = Vec::new();
    let mut drain_deadline: Option<Instant> = None;

    loop {
        if stop.load(Ordering::SeqCst) {
            // Linger briefly after shutdown so an attached tailer can pull
            // the final, eof-marked ring chunk; leave as soon as it has
            // and every exchange in progress is done.
            let deadline = *drain_deadline
                .get_or_insert_with(|| Instant::now() + Duration::from_millis(ADMIN_DRAIN_MS));
            let idle = conns.iter().all(Option::is_none) && !lock(&shared.rings).tailer_waiting();
            if Instant::now() >= deadline || idle {
                return Ok(());
            }
        }
        events.clear();
        let timeout = if drain_deadline.is_some() { 50 } else { 250 };
        poller.wait(&mut events, timeout)?;
        for ev in &events {
            match ev.token {
                0 => waker.drain(),
                1 => accept_admin(listener, &poller, &mut conns, &mut free),
                t => {
                    let slot = (t - 2) as usize;
                    let Some(ex) = conns.get_mut(slot).and_then(Option::take) else {
                        continue;
                    };
                    match step_http(ex, &poller, t, ev, shared, stats) {
                        Some(next) => conns[slot] = Some(next),
                        None => free.push(slot),
                    }
                }
            }
        }
    }
}

fn accept_admin(
    listener: &TcpListener,
    poller: &Poller,
    conns: &mut Vec<Option<HttpExchange>>,
    free: &mut Vec<usize>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let slot = free.pop().unwrap_or_else(|| {
                    conns.push(None);
                    conns.len() - 1
                });
                let token = slot as u64 + 2;
                if poller
                    .register(stream.as_raw_fd(), token, Interest::READ)
                    .is_ok()
                {
                    conns[slot] = Some(HttpExchange {
                        stream,
                        inb: Vec::new(),
                        out: Vec::new(),
                        sent: 0,
                    });
                } else {
                    free.push(slot);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Advance one exchange through one readiness event. Returns it back
/// while unfinished, or `None` when the connection is done (the fd is
/// deregistered before the stream drops).
fn step_http(
    mut ex: HttpExchange,
    poller: &Poller,
    token: u64,
    ev: &PollEvent,
    shared: &AdminShared,
    stats: &IoStats,
) -> Option<HttpExchange> {
    let fd = ex.stream.as_raw_fd();
    if ex.out.is_empty() && (ev.readable || ev.hangup) {
        let mut chunk = [0u8; 4096];
        loop {
            match ex.stream.read(&mut chunk) {
                Ok(0) => {
                    let _ = poller.deregister(fd);
                    return None;
                }
                Ok(n) => {
                    ex.inb.extend_from_slice(&chunk[..n]);
                    if ex.inb.len() > MAX_HTTP_HEAD {
                        let _ = poller.deregister(fd);
                        return None;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    let _ = poller.deregister(fd);
                    return None;
                }
            }
        }
        if headers_complete(&ex.inb) {
            let line_end = ex
                .inb
                .iter()
                .position(|&b| b == b'\n')
                .unwrap_or(ex.inb.len());
            let line = String::from_utf8_lossy(&ex.inb[..line_end]);
            ex.out = http_response(line.trim_end(), shared, stats);
            if poller.modify(fd, token, Interest::READ_WRITE).is_err() {
                let _ = poller.deregister(fd);
                return None;
            }
        }
    }
    if !ex.out.is_empty() {
        while ex.sent < ex.out.len() {
            match ex.stream.write(&ex.out[ex.sent..]) {
                Ok(0) => {
                    let _ = poller.deregister(fd);
                    return None;
                }
                Ok(n) => ex.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    let _ = poller.deregister(fd);
                    return None;
                }
            }
        }
        if ex.sent == ex.out.len() {
            // HTTP/1.0, Connection: close — the exchange is done.
            let _ = poller.deregister(fd);
            return None;
        }
    }
    Some(ex)
}

fn headers_complete(inb: &[u8]) -> bool {
    inb.windows(4).any(|w| w == b"\r\n\r\n") || inb.windows(2).any(|w| w == b"\n\n")
}

fn snapshot_json(shared: &AdminShared) -> String {
    let (seq, registry) = lock(&shared.deltas).snapshot();
    // Render outside the lock: to_json is O(registry).
    format!(
        "{{\"seq\":{seq},\"uptime_us\":{},\"registry\":{}}}",
        shared.uptime_us(),
        registry.to_json()
    )
}

fn prometheus_text(shared: &AdminShared) -> String {
    let (seq, registry) = lock(&shared.deltas).snapshot();
    let mut out = registry.to_prometheus();
    // The ready gauge reads the liveness flags only: a scrape must not
    // consume the readiness probe's io_errors delta.
    let alive =
        shared.accept_alive.load(Ordering::SeqCst) && shared.core_alive.load(Ordering::SeqCst);
    out.push_str("# TYPE cvc_admin_snapshot_seq gauge\n");
    out.push_str(&format!("cvc_admin_snapshot_seq {seq}\n"));
    out.push_str("# TYPE cvc_admin_uptime_seconds gauge\n");
    out.push_str(&format!(
        "cvc_admin_uptime_seconds {:.6}\n",
        shared.uptime_us() as f64 / 1e6
    ));
    out.push_str("# TYPE cvc_admin_ready gauge\n");
    out.push_str(&format!("cvc_admin_ready {}\n", u8::from(alive)));
    out
}

fn rings_chunk(shared: &AdminShared, offset: u64) -> Vec<u8> {
    let (start, chunk, eof) = lock(&shared.rings).read_from(offset, RINGS_CHUNK);
    let next = start + chunk.len() as u64;
    let mut out = format!("RINGS {start} {next} {}\n", u8::from(eof)).into_bytes();
    out.extend_from_slice(&chunk);
    out
}

/// Parse a `/rings` response body: a `RINGS <start> <next> <eof>` header
/// line followed by raw ring-dump text. `start > requested offset` means
/// the server evicted lines the reader never saw.
pub fn parse_rings_response(payload: &[u8]) -> Option<(u64, u64, bool, &[u8])> {
    let nl = payload.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&payload[..nl]).ok()?;
    let mut it = header.split_whitespace();
    if it.next()? != "RINGS" {
        return None;
    }
    let start: u64 = it.next()?.parse().ok()?;
    let next: u64 = it.next()?.parse().ok()?;
    let eof = it.next()? == "1";
    Some((start, next, eof, &payload[nl + 1..]))
}

/// Blocking admin-port client: one HTTP/1.0 `GET` per call, each on its
/// own connection. `cvc-trace attach` and the E23 scraper speak through
/// this; being a remote-facing tool surface it never panics.
pub struct AdminClient {
    addr: String,
    timeout: Duration,
}

impl AdminClient {
    /// A client for the admin port at `addr`; `timeout` applies to each
    /// request's connect, reads, and writes.
    pub fn new(addr: &str, timeout: Duration) -> AdminClient {
        AdminClient {
            addr: addr.to_string(),
            timeout,
        }
    }

    fn open(&self) -> io::Result<TcpStream> {
        let mut last = io::Error::new(io::ErrorKind::AddrNotAvailable, "no address resolved");
        for a in self.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&a, self.timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(self.timeout))?;
                    stream.set_write_timeout(Some(self.timeout))?;
                    return Ok(stream);
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// `GET path`: the response's status code and body. A response cut
    /// short of its `Content-Length` is an error, never a partial body.
    pub fn get(&self, path: &str) -> io::Result<(u16, Vec<u8>)> {
        let mut stream = self.open()?;
        stream.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
        let mut resp = Vec::new();
        stream.read_to_end(&mut resp)?;
        let malformed = || io::Error::new(io::ErrorKind::InvalidData, "malformed admin response");
        let head_end = resp
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or_else(malformed)?;
        let head = std::str::from_utf8(&resp[..head_end]).map_err(|_| malformed())?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|code| code.parse().ok())
            .ok_or_else(malformed)?;
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|n| n.parse().ok())
            .ok_or_else(malformed)?;
        let body = resp.split_off(head_end + 4);
        if body.len() != length {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "admin response cut short",
            ));
        }
        Ok((status, body))
    }

    /// Convenience: [`AdminClient::get`] + UTF-8 decode (lossy).
    pub fn get_text(&self, path: &str) -> io::Result<(u16, String)> {
        let (status, body) = self.get(path)?;
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

/// The `u64` value of a single-parameter query string `key=value`:
/// `Ok(None)` for an empty query, `Err` for anything else malformed.
fn query_u64(query: &str, key: &str) -> Result<Option<u64>, ()> {
    if query.is_empty() {
        return Ok(None);
    }
    let value = query.strip_prefix(key).and_then(|q| q.strip_prefix('='));
    value.and_then(|v| v.parse().ok()).map(Some).ok_or(())
}

fn http_response(line: &str, shared: &AdminShared, stats: &IoStats) -> Vec<u8> {
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("/");
    if method != "GET" {
        return http_package(
            405,
            "Method Not Allowed",
            "text/plain",
            b"only GET is served\n",
        );
    }
    let ok = |ctype, body: &[u8]| http_package(200, "OK", ctype, body);
    let bad_query = |why: &str| http_package(400, "Bad Request", "text/plain", why.as_bytes());
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    match path {
        "/metrics" => ok(
            "text/plain; version=0.0.4",
            prometheus_text(shared).as_bytes(),
        ),
        "/metrics.json" => match query_u64(query, "since") {
            Ok(None) => ok("application/json", snapshot_json(shared).as_bytes()),
            Ok(Some(cursor)) => {
                let delta = lock(&shared.deltas).delta_since(cursor);
                ok("application/json", delta.to_json().as_bytes())
            }
            Err(()) => bad_query("bad cursor: use ?since=<snapshot seq>\n"),
        },
        "/rings" => match query_u64(query, "offset") {
            Ok(offset) => ok("text/plain", &rings_chunk(shared, offset.unwrap_or(0))),
            Err(()) => bad_query("bad offset: use ?offset=<log byte offset>\n"),
        },
        "/healthz" => ok("text/plain", b"ok\n"),
        "/readyz" => match readiness(shared, stats) {
            Ok(()) => ok("text/plain", b"ready\n"),
            Err(why) => http_package(
                503,
                "Service Unavailable",
                "text/plain",
                format!("unready: {why}\n").as_bytes(),
            ),
        },
        _ => http_package(
            404,
            "Not Found",
            "text/plain",
            b"try /metrics, /metrics.json[?since=], /rings[?offset=], /healthz, /readyz\n",
        ),
    }
}

fn http_package(code: u16, reason: &str, ctype: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.0 {code} {reason}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_log_serves_stable_offsets_and_evicts_whole_lines() {
        let mut log = RingLog::new(4096);
        log.append("alpha 1\n");
        log.append("beta 2\n");
        let (start, bytes, eof) = log.read_from(0, 1 << 20);
        assert_eq!(start, 0);
        assert_eq!(bytes, b"alpha 1\nbeta 2\n");
        assert!(!eof);
        // Resume from the returned cursor: only the new line arrives.
        let next = start + bytes.len() as u64;
        log.append("gamma 3\n");
        let (start2, bytes2, _) = log.read_from(next, 1 << 20);
        assert_eq!(start2, next);
        assert_eq!(bytes2, b"gamma 3\n");
    }

    #[test]
    fn ring_log_eviction_advances_base_past_whole_lines() {
        let mut log = RingLog::new(4096);
        // The cap floors at 4096; overflow it with 9-byte lines.
        let line = "12345678\n";
        for _ in 0..600 {
            log.append(line);
        }
        let (start, bytes, _) = log.read_from(0, 1 << 20);
        assert!(start > 0, "old lines must have been evicted");
        assert_eq!(
            start % line.len() as u64,
            0,
            "eviction cuts on line boundaries"
        );
        assert!(bytes.len() <= 4096);
        assert!(bytes.ends_with(b"\n"));
        assert_eq!(start + bytes.len() as u64, log.end());
    }

    #[test]
    fn ring_log_chunk_limit_cuts_on_a_line_boundary() {
        let mut log = RingLog::new(1 << 20);
        for i in 0..100 {
            log.append(&format!("line number {i}\n"));
        }
        let (_, bytes, eof) = log.read_from(0, 64);
        assert!(!bytes.is_empty() && bytes.len() <= 64);
        assert!(bytes.ends_with(b"\n"));
        assert!(!eof, "eof only once the final byte is served");
        log.mark_eof();
        let (_, all, eof2) = log.read_from(0, 1 << 20);
        assert!(eof2);
        assert_eq!(all.len() as u64, log.end());
    }

    #[test]
    fn rings_response_round_trips_through_the_parser() {
        let shared = AdminShared::new(4096);
        lock(&shared.rings).append("1 0 5 Generate 1 1 0 0 0 0 0 - - 0\n");
        let resp = rings_chunk(&shared, 0);
        let (start, next, eof, body) = match parse_rings_response(&resp) {
            Some(p) => p,
            None => panic!("header must parse"),
        };
        assert_eq!(start, 0);
        assert_eq!(next as usize, body.len());
        assert!(!eof);
        assert!(body.ends_with(b"\n"));
    }

    #[test]
    fn readiness_consumes_the_io_error_delta_and_tracks_liveness() {
        let shared = AdminShared::new(4096);
        let stats = IoStats::default();
        assert!(readiness(&shared, &stats).is_ok());
        stats.io_errors.fetch_add(1, Ordering::Relaxed);
        assert!(
            readiness(&shared, &stats).is_err(),
            "fresh io error flips one probe"
        );
        assert!(readiness(&shared, &stats).is_ok(), "the delta is consumed");
        shared.core_alive.store(false, Ordering::SeqCst);
        assert_eq!(readiness(&shared, &stats), Err("core thread dead"));
    }

    #[test]
    fn http_router_serves_probes_and_404s() {
        let shared = AdminShared::new(4096);
        let stats = IoStats::default();
        let ok = String::from_utf8_lossy(&http_response("GET /healthz HTTP/1.0", &shared, &stats))
            .into_owned();
        assert!(ok.starts_with("HTTP/1.0 200 OK\r\n"));
        assert!(ok.contains("Content-Length:"));
        let ready =
            String::from_utf8_lossy(&http_response("GET /readyz HTTP/1.0", &shared, &stats))
                .into_owned();
        assert!(ready.starts_with("HTTP/1.0 200"));
        shared.accept_alive.store(false, Ordering::SeqCst);
        let unready =
            String::from_utf8_lossy(&http_response("GET /readyz HTTP/1.0", &shared, &stats))
                .into_owned();
        assert!(unready.starts_with("HTTP/1.0 503"));
        let missing =
            String::from_utf8_lossy(&http_response("GET /nope HTTP/1.0", &shared, &stats))
                .into_owned();
        assert!(missing.starts_with("HTTP/1.0 404"));
        let post =
            String::from_utf8_lossy(&http_response("POST /metrics HTTP/1.0", &shared, &stats))
                .into_owned();
        assert!(post.starts_with("HTTP/1.0 405"));
    }

    #[test]
    fn query_parameters_are_one_checked_integer() {
        assert_eq!(query_u64("", "offset"), Ok(None));
        assert_eq!(query_u64("offset=0", "offset"), Ok(Some(0)));
        assert_eq!(
            query_u64("since=18446744073709551615", "since"),
            Ok(Some(u64::MAX))
        );
        for bad in [
            "offset",
            "offset=",
            "offset=-1",
            "offset=1x",
            "offset=18446744073709551616",
            "offsets=1",
            "since=1",
            "offset=1&offset=2",
        ] {
            assert_eq!(query_u64(bad, "offset"), Err(()), "{bad}");
        }
    }

    #[test]
    fn prometheus_text_carries_the_admin_gauges() {
        let shared = AdminShared::new(4096);
        let text = prometheus_text(&shared);
        assert!(text.contains("cvc_admin_snapshot_seq 0"));
        assert!(text.contains("cvc_admin_ready 1"));
        assert!(text.contains("# TYPE cvc_admin_uptime_seconds gauge"));
    }

    fn admin_server() -> crate::server::ServerHandle {
        let cfg = crate::server::ServerConfig {
            n_clients: 2,
            workers: 1,
            admin_addr: Some("127.0.0.1:0".to_string()),
            trace_rings: true,
            ..crate::server::ServerConfig::default()
        };
        match crate::server::EditorServer::spawn(cfg) {
            Ok(h) => h,
            Err(e) => panic!("spawn: {e}"),
        }
    }

    fn admin_client(handle: &crate::server::ServerHandle) -> AdminClient {
        let addr = match handle.admin_addr() {
            Some(a) => a.to_string(),
            None => panic!("admin plane must bind"),
        };
        AdminClient::new(&addr, Duration::from_secs(5))
    }

    fn get(c: &AdminClient, path: &str) -> (u16, String) {
        match c.get_text(path) {
            Ok(r) => r,
            Err(e) => panic!("GET {path}: {e}"),
        }
    }

    #[test]
    fn live_server_answers_every_resource_over_http() {
        let handle = admin_server();
        let c = admin_client(&handle);

        let (code, health) = get(&c, "/healthz");
        assert_eq!((code, health.as_str()), (200, "ok\n"));
        assert_eq!(get(&c, "/readyz"), (200, "ready\n".to_string()));
        let (code, prom) = get(&c, "/metrics");
        assert_eq!(code, 200);
        assert!(prom.contains("cvc_admin_ready 1"), "{prom}");
        let (code, snap) = get(&c, "/metrics.json");
        assert_eq!(code, 200);
        assert!(snap.starts_with("{\"seq\":"), "{snap}");
        assert!(snap.contains("\"registry\":{"), "{snap}");
        assert_eq!(get(&c, "/nope").0, 404);

        // Deltas: wait for the core's first publish, then a cursor at the
        // current sequence gets an empty increment, an older one the
        // changes since, and one ahead of the server a full resync.
        let mut seq = 0;
        for _ in 0..100 {
            let (_, full) = get(&c, "/metrics.json?since=0");
            seq = full
                .strip_prefix("{\"seq\":")
                .and_then(|t| t.split(',').next())
                .and_then(|n| n.parse::<u64>().ok())
                .unwrap_or(0);
            if seq > 0 {
                assert!(full.contains("\"net.uptime_us\""), "{full}");
                break;
            }
            thread::sleep(Duration::from_millis(20));
        }
        assert!(seq > 0, "the core must have published a registry");
        let (code, ahead) = get(&c, &format!("/metrics.json?since={}", seq + 1_000));
        assert_eq!(code, 200);
        assert!(ahead.contains("\"full\":true"), "{ahead}");
        assert!(ahead.contains("\"net.uptime_us\""), "{ahead}");
        let (_, level) = get(&c, &format!("/metrics.json?since={seq}"));
        // Uptime moves on every publish, so `level` is empty or tiny — but
        // never a full resync.
        assert!(level.contains("\"full\":false"), "{level}");
        assert_eq!(get(&c, "/metrics.json?since=abc").0, 400);
        assert_eq!(get(&c, "/metrics.json?cursor=1").0, 400);

        // Rings: the retained range from any offset, clamped; bad → 400.
        let (code, body) = match c.get("/rings?offset=0") {
            Ok(r) => r,
            Err(e) => panic!("GET /rings: {e}"),
        };
        assert_eq!(code, 200);
        let Some((start, next, eof, text)) = parse_rings_response(&body) else {
            panic!("rings header must parse");
        };
        assert_eq!((start, eof), (0, false));
        assert_eq!(next as usize, text.len());
        let (_, past) = get(&c, &format!("/rings?offset={}", next + 1_000_000));
        assert_eq!(
            past,
            format!("RINGS {next} {next} 0\n"),
            "clamped to the end"
        );
        assert_eq!(get(&c, "/rings").1, get(&c, "/rings?offset=0").1);
        assert_eq!(get(&c, "/rings?offset=-1").0, 400);
        assert_eq!(get(&c, "/rings?offset=").0, 400);

        // Hostile bytes cost only their connection: one peer floods past
        // the head cap and is dropped, one stalls mid-garbage and is left
        // to rot; the next GET is served regardless.
        let addr = c.addr.clone();
        let (mut flood, mut stall) = match (TcpStream::connect(&addr), TcpStream::connect(&addr)) {
            (Ok(a), Ok(b)) => (a, b),
            _ => panic!("garbage peers connect"),
        };
        let _ = stall.write_all(&[0x10, 0x00, 0xEE, 0xFF]);
        let _ = flood.write_all(&vec![0xEE; MAX_HTTP_HEAD + 1]);
        let _ = flood.set_read_timeout(Some(Duration::from_secs(5)));
        let mut sink = Vec::new();
        // Closed (EOF) or reset — never a response, never a hang.
        let _ = flood.read_to_end(&mut sink);
        assert!(sink.is_empty(), "garbage must not be answered");
        assert_eq!(get(&c, "/healthz").0, 200);
        drop(stall);

        // After shutdown the log's tail is eof-marked for a tailer.
        let report = handle.shutdown();
        assert_eq!(report.io_errors, 0);
    }

    #[test]
    fn killing_the_core_flips_readiness() {
        let handle = admin_server();
        let c = admin_client(&handle);
        assert_eq!(get(&c, "/readyz").0, 200);
        handle.halt_core();
        let mut flipped = false;
        for _ in 0..100 {
            if get(&c, "/readyz") == (503, "unready: core thread dead\n".to_string()) {
                flipped = true;
                break;
            }
            thread::sleep(Duration::from_millis(20));
        }
        assert!(flipped, "readiness must flip once the core thread dies");
        let _ = handle.shutdown();
    }
}
