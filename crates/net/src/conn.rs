//! The per-connection state machine: one nonblocking TCP stream, a frame
//! reassembly buffer on the read side, and a pending-output buffer on the
//! write side that survives partial writes.
//!
//! A connection is driven entirely by readiness callbacks: the owning
//! worker calls [`Conn::on_readable`] / [`Conn::flush`] when its poller
//! says so, and consults [`Conn::wants_write`] to decide the registration
//! interest. Nothing here blocks, allocates per byte, or trusts the peer.

use crate::frame::{write_frame, FrameError, FrameReader};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};

/// Why a connection must close.
#[derive(Debug)]
pub enum ConnError {
    /// The socket failed (reset, broken pipe, …).
    Io(io::Error),
    /// The peer's byte stream stopped being parseable as frames.
    Frame(FrameError),
    /// The peer closed the stream in an orderly way.
    PeerClosed,
    /// The peer stopped draining and its pending output passed the cap.
    Backpressure(usize),
}

impl std::fmt::Display for ConnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnError::Io(e) => write!(f, "socket error: {e}"),
            ConnError::Frame(e) => write!(f, "framing error: {e}"),
            ConnError::PeerClosed => write!(f, "peer closed"),
            ConnError::Backpressure(n) => write!(f, "peer not draining ({n} bytes pending)"),
        }
    }
}

impl From<FrameError> for ConnError {
    fn from(e: FrameError) -> Self {
        ConnError::Frame(e)
    }
}

/// A peer that lets this many bytes pile up is gone or hostile; shedding
/// it protects the worker's memory (slow-consumer eviction).
const MAX_PENDING_OUT: usize = 8 << 20;

/// Most bytes one readable event may drain from a socket. Without a cap,
/// a firehose peer keeps `read` returning data and monopolizes its
/// worker, starving the shard's other connections; with one, the poller's
/// level-triggering re-arms the connection on the next tick, so nothing
/// is lost — the drain just interleaves fairly.
const MAX_READ_PER_EVENT: usize = 256 * 1024;

/// One framed, nonblocking connection.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    reader: FrameReader,
    /// Encoded-but-unsent bytes; `out_start` is the sent prefix.
    out: Vec<u8>,
    out_start: usize,
}

impl Conn {
    /// Adopt an accepted (or connected) stream: switches it to
    /// nonblocking and disables Nagle — the editor's frames are tiny and
    /// latency-bound, and the compound coalescing above this layer is the
    /// deliberate replacement for kernel batching.
    pub fn new(stream: TcpStream) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            reader: FrameReader::new(),
            out: Vec::new(),
            out_start: 0,
        })
    }

    /// The raw fd, for poller registration.
    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Drain the socket and append every completed frame payload to
    /// `frames`. Returns when the socket would block or the per-event
    /// byte budget ([`MAX_READ_PER_EVENT`]) is spent — level-triggered
    /// polling redelivers the event, so a capped return is a fairness
    /// yield, not data loss. Errors are fatal to the connection.
    pub fn on_readable(&mut self, frames: &mut Vec<Vec<u8>>) -> Result<(), ConnError> {
        let mut chunk = [0u8; 16 * 1024];
        let mut consumed = 0usize;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    // Orderly close. Frames already reassembled were
                    // appended on earlier iterations and stay valid.
                    return Err(ConnError::PeerClosed);
                }
                Ok(n) => {
                    self.reader.extend(&chunk[..n]);
                    while let Some(payload) = self.reader.next_frame()? {
                        frames.push(payload);
                    }
                    consumed += n;
                    if consumed >= MAX_READ_PER_EVENT {
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ConnError::Io(e)),
            }
        }
    }

    /// Queue one frame wrapping the concatenation of `chunks` (framed
    /// with length + checksum by this call). The caller must follow up
    /// with [`Conn::flush`] and re-register interest via
    /// [`Conn::wants_write`].
    pub fn queue_frame(&mut self, chunks: &[&[u8]]) -> Result<(), ConnError> {
        write_frame(&mut self.out, chunks);
        let pending = self.out.len() - self.out_start;
        if pending > MAX_PENDING_OUT {
            return Err(ConnError::Backpressure(pending));
        }
        Ok(())
    }

    /// Push pending bytes into the socket until empty or blocked.
    pub fn flush(&mut self) -> Result<(), ConnError> {
        while self.out_start < self.out.len() {
            match self.stream.write(&self.out[self.out_start..]) {
                Ok(0) => {
                    return Err(ConnError::Io(io::Error::from(io::ErrorKind::WriteZero)));
                }
                Ok(n) => self.out_start += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ConnError::Io(e)),
            }
        }
        if self.out_start == self.out.len() {
            self.out.clear();
            self.out_start = 0;
        } else if self.out_start > 4096 && self.out_start * 2 >= self.out.len() {
            self.out.drain(..self.out_start);
            self.out_start = 0;
        }
        Ok(())
    }

    /// True while unsent output remains (the worker should register write
    /// interest and flush again on writable).
    pub fn wants_write(&self) -> bool {
        self.out_start < self.out.len()
    }

    /// Unsent output bytes pending.
    pub fn pending_out(&self) -> usize {
        self.out.len() - self.out_start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (Conn, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (Conn::new(a).unwrap(), Conn::new(b).unwrap())
    }

    fn pump(from: &mut Conn, to: &mut Conn) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        for _ in 0..100 {
            from.flush().unwrap();
            match to.on_readable(&mut frames) {
                Ok(()) => {}
                Err(e) => panic!("read failed: {e}"),
            }
            if !from.wants_write() {
                break;
            }
        }
        frames
    }

    #[test]
    fn frames_cross_a_real_socket() {
        let (mut a, mut b) = pair();
        a.queue_frame(&[b"first"]).unwrap();
        a.queue_frame(&[b"sec", b"ond"]).unwrap();
        let frames = pump(&mut a, &mut b);
        assert_eq!(frames, vec![b"first".to_vec(), b"second".to_vec()]);
        assert!(!a.wants_write());
        assert_eq!(a.pending_out(), 0);
    }

    #[test]
    fn peer_close_is_reported() {
        let (a, mut b) = pair();
        drop(a);
        let mut frames = Vec::new();
        // The close may race the read; retry briefly.
        for _ in 0..50 {
            match b.on_readable(&mut frames) {
                Err(ConnError::PeerClosed) => return,
                Ok(()) => std::thread::sleep(std::time::Duration::from_millis(10)),
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        panic!("peer close never surfaced");
    }

    #[test]
    fn large_frame_survives_partial_writes() {
        let (mut a, mut b) = pair();
        let big = vec![0xabu8; 512 * 1024];
        a.queue_frame(&[&big]).unwrap();
        assert!(a.wants_write() || a.pending_out() == 0);
        let mut frames = Vec::new();
        // Interleave partial flushes and reads until the frame lands.
        for _ in 0..10_000 {
            a.flush().unwrap();
            b.on_readable(&mut frames).unwrap();
            if !frames.is_empty() {
                break;
            }
        }
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0], big);
    }
}
