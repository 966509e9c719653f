//! # cvc-reduce — the web-REDUCE group editor, reproduced
//!
//! This crate assembles the full system of the paper — and the baselines it
//! implicitly compares against — on top of `cvc-core` (clocks), `cvc-ot`
//! (transformation) and `cvc-sim` (network):
//!
//! * [`client`] / [`notifier`] — the star/CVC deployment of Fig. 1: client
//!   replicas with 2-element state vectors, the transforming notifier with
//!   its full vector, formulas (5)/(7) for concurrency detection, and the
//!   per-pair [`bridge`] that performs the actual dual transformation.
//! * [`mesh`] — the classical fully-distributed REDUCE baseline: full
//!   vector clocks, causal delivery, GOTO-style history-buffer integration
//!   over TP2-correct tombstone operations.
//! * [`session`] — end-to-end simulated sessions of all deployments with
//!   byte-exact overhead accounting; [`workload`] generates reproducible
//!   editing scripts.
//! * [`reliable`] — an ack/retransmit reliability layer that restores the
//!   paper's FIFO-channel assumption over faulty simulated links, with
//!   client disconnect/reconnect and history-buffer resync.
//! * [`scenario`] — the paper's Fig. 2 (inconsistency demo) and Fig. 3
//!   (compressed-clock walkthrough) reproduced step by step.
//! * [`relay`] — multi-notifier federation: `K` sharded stars bridged by
//!   a mesh-replica relay tier over a checksummed go-back-N bus, stepped
//!   in parallel and verified against the Definition-1 oracle.
//! * [`core`] / [`wal`] / [`standby`] — notifier durability: the one
//!   validate → log → mirror → compact wiring both the simulator node and
//!   the TCP server drive, over a checksummed write-ahead log of the
//!   notifier's input stream with compacted snapshots and a warm standby
//!   that tails it and can be promoted when the primary crashes (clients
//!   resync via the 2-element-clock cursor).
//! * [`hub`] — who is bound to which site: the one binding table, hello,
//!   catch-up and eviction rules both notifier drivers share.
//! * [`world`] — the transport-free star (notifier, clients, FIFO
//!   channels) the verifier, the TCP twin and the Fig. 3 walkthrough step.
//! * [`verify`] — every engine concurrency verdict compared against a
//!   ground-truth Definition-1 oracle over randomized interleavings.
//!
//! ## Quick example
//!
//! ```
//! use cvc_reduce::session::{run_session, Deployment, SessionConfig};
//!
//! let cfg = SessionConfig::small(Deployment::StarCvc, 4, 7);
//! let report = run_session(&cfg);
//! assert!(report.converged);
//! // The paper's claim: never more than two timestamp integers on the wire.
//! assert_eq!(report.max_stamp_integers, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod bridge;
pub mod client;
pub mod composing;
pub mod core;
pub mod error;
pub mod hub;
pub mod mesh;
pub mod metrics;
pub mod msg;
pub mod notifier;
pub mod recorder;
pub mod registry;
pub mod relay;
pub mod reliable;
pub mod scenario;
pub mod session;
pub mod standby;
pub mod trace;
pub mod verify;
pub mod wal;
pub mod workload;
pub mod world;

pub use audit::{audit_streams, AuditReport, AuditViolation, AuditViolationKind};
pub use client::Client;
pub use composing::ComposingClient;
pub use core::NotifierCore;
pub use error::ProtocolError;
pub use mesh::MeshSite;
pub use metrics::SiteMetrics;
pub use msg::{ClientOpMsg, EditorMsg, MeshOpMsg, ServerAckMsg, ServerOpMsg};
pub use notifier::Notifier;
pub use recorder::{EventKind, FlightEvent, FlightRecorder};
pub use registry::{Histogram, MetricsRegistry};
pub use relay::{
    run_federation, FederationConfig, FederationReport, RelayBus, RelayBusStats, RelayFaultPlan,
    ShardMap, ShardReport,
};
pub use reliable::{
    run_robust_session, run_robust_session_traced, ClientEvent, CrashPoint, DisconnectSpec,
    NotifierCrash, NotifierStep, ReliableKind, ReliableMsg, SessionTrace,
};
pub use session::{
    run_session, ClientMode, Deployment, FailoverReport, SessionConfig, SessionReport,
};
pub use standby::Standby;
pub use wal::{Wal, WalError, WalRecord, WalRecovery, WalSnapshot};
pub use workload::WorkloadConfig;
