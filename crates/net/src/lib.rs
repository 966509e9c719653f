//! Real-network transport for the compressed-vector-clock group editor.
//!
//! Everything else in this repository runs inside the deterministic
//! simulator; this crate is where the codec meets real sockets. It is a
//! hand-rolled readiness stack — the vendored-deps constraint rules out
//! tokio/mio, and the paper's protocol needs nothing more than level-
//! triggered epoll over nonblocking TCP:
//!
//! * [`poll`] — a thin FFI wrapper over `epoll(7)` plus an `eventfd(2)`
//!   waker for cross-thread nudges. Rust's std already links the platform
//!   libc, so the three syscall entry points are declared directly.
//! * [`frame`] — re-exports of `cvc_reduce::frame`, the codec the WAL
//!   writes: the TCP stream carries `[len][checksum][EditorMsg bytes]` in
//!   it, and [`FrameReader`] reassembles frames from arbitrary read
//!   fragments with the same parser `Wal::recover` runs — partial frames,
//!   torn varints, and hostile length claims are all first-class inputs,
//!   not edge cases.
//! * [`conn`] — the per-connection state machine: a nonblocking stream,
//!   a reassembly buffer, and a pending-write buffer that survives
//!   partial writes under backpressure.
//! * [`server`] — `cvc-serve`'s engine: an accept thread feeding
//!   thread-per-core shard workers (each with its own poller), and a core
//!   thread hosting the editor brain — `Notifier` + WAL with the
//!   append-before-broadcast discipline and compound-frame coalescing at
//!   the socket write path.
//! * [`client`] — the sites on the wire: `Client` replicas behind
//!   connections, driven closed-loop from one thread over one poller,
//!   re-dialing once after a trimmed hello; the engine of `cvc-load`,
//!   the e2e differential and E23.
//! * [`twin`] — the sim-as-oracle bridge: replays a server's captured
//!   integration order through fresh in-memory `Notifier`/`Client` twins
//!   and demands byte-identical convergence.
//!
//! TCP supplies the reliable-FIFO channel that is the paper's transport
//! assumption, and the simulator's sessions run on connections that fail
//! the way TCP's do; what the server shares with them is the framing
//! discipline (checksums, the one `frame_groups` batching rule) and the
//! WAL.

pub mod admin;
pub mod client;
pub mod conn;
pub mod poll;
pub mod server;
pub mod twin;

pub use admin::{parse_rings_response, AdminClient};
pub use client::{fresh_replicas, run_clients, ClientConfig, ClientReport};
pub use conn::{Conn, ConnError};
pub use cvc_reduce::frame::FrameReader;
pub use poll::{Interest, PollEvent, Poller, Waker};
pub use server::{EditorServer, ServerConfig, ServerHandle, ServerReport};
pub use twin::{replay_twin, TwinError, TwinReport};

/// The frame codec's writer, re-exported beside the connections that
/// call it.
pub mod frame {
    pub use cvc_reduce::frame::{framed_len, write_frame};
}
