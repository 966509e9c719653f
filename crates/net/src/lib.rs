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
//! * [`frame`] — the TCP stream framing `[len][checksum][EditorMsg bytes]`
//!   (the WAL record discipline applied to the socket; the checksum is
//!   the reliable layer's word-wise `frame_checksum`), and the
//!   incremental [`frame::FrameReader`] that reassembles frames from
//!   arbitrary read fragments: partial frames, torn varints, and hostile
//!   length claims are all first-class inputs, not edge cases.
//! * [`conn`] — the per-connection state machine: a nonblocking stream,
//!   a reassembly buffer, and a pending-write buffer that survives
//!   partial writes under backpressure.
//! * [`server`] — `cvc-serve`'s engine: an accept thread feeding
//!   thread-per-core shard workers (each with its own poller), and a core
//!   thread hosting the editor brain — `Notifier` + WAL with the
//!   append-before-broadcast discipline and compound-frame coalescing at
//!   the socket write path.
//! * [`load`] — `cvc-load`'s engine: an open-loop generator driving tens
//!   of thousands of concurrent loopback clients at a configured global
//!   op rate, with ack-RTT latency histograms through the existing
//!   `MetricsRegistry`.
//! * [`twin`] — the sim-as-oracle bridge: replays a server's captured
//!   integration order through fresh in-memory `Notifier`/`Client` twins
//!   and demands byte-identical convergence.
//!
//! TCP supplies the reliable-FIFO channel that is the paper's transport
//! assumption, so the simulator's go-back-N layer stays a fault-model
//! artifact; what the server reuses from it is the framing discipline
//! (checksums, compound coalescing) and the WAL.

pub mod admin;
pub mod conn;
pub mod frame;
pub mod load;
pub mod poll;
pub mod server;
pub mod twin;

pub use admin::{parse_rings_response, AdminClient};
pub use conn::{Conn, ConnError};
pub use frame::{FrameError, FrameReader, MAX_FRAME_BYTES};
pub use load::{run_load, LoadConfig, LoadReport, RttSummary};
pub use poll::{Interest, PollEvent, Poller, Waker};
pub use server::{EditorServer, ServerConfig, ServerHandle, ServerReport};
pub use twin::{replay_twin, TwinError, TwinReport};
