//! # cvc-core — Compressed Vector Clocks for star-topology group editors
//!
//! This crate implements the causality-capture machinery of
//! *"Capturing Causality by Compressed Vector Clock in Real-Time Group
//! Editors"* (Chengzheng Sun and Wentong Cai, IPPS 2002), together with the
//! classical logical-clock schemes the paper positions itself against:
//!
//! * [`lamport`] — Lamport scalar clocks (happened-before, no concurrency
//!   detection).
//! * [`vector`] — full vector clocks in the Fidge/Mattern style; the
//!   `N`-element scheme the paper compresses.
//! * [`fz`] — Fowler–Zwaenepoel direct-dependency tracking: one integer
//!   per message online, full vectors reconstructable only offline (the
//!   trace-analysis family the paper's introduction rules out for
//!   real-time use).
//! * [`sk`] — the Singhal–Kshemkalyani dynamic compression technique
//!   (carry only the entries that changed since the previous send to the
//!   same destination); the "early compressing technique" of the paper's
//!   related work, still `O(N)` worst case.
//! * [`state_vector`] — **the paper's contribution**: 2-element compressed
//!   state vectors at client sites, an `N`-element full state vector at the
//!   central notifier (site 0), and the per-destination compression of the
//!   full vector (paper formulas (1) and (2)).
//! * [`formulas`] — the concurrency-check predicates: the classical
//!   vector-clock test (formula (3)) and the paper's mixed
//!   compressed/full checks (formulas (4)–(7)).
//! * [`oracle`] — a ground-truth happened-before oracle built directly from
//!   Definition 1 of the paper (generation/execution events), used to verify
//!   that the compressed scheme captures causality *exactly*.
//!
//! The compressed scheme only works because the notifier re-defines every
//! operation via operational transformation before re-broadcasting it; the
//! OT substrate lives in the `cvc-ot` crate and the full system in
//! `cvc-reduce`.
//!
//! ## Quick example
//!
//! ```
//! use cvc_core::state_vector::{ClientStateVector, NotifierStateVector};
//! use cvc_core::site::SiteId;
//!
//! // A session with 3 client sites (1..=3) plus the notifier (site 0).
//! let mut sv2 = ClientStateVector::new();
//! sv2.record_local(); // site 2 generates O2
//! assert_eq!(sv2.stamp().as_pair(), (0, 1)); // [0,1] — as in the paper's Fig. 3
//!
//! let mut sv0 = NotifierStateVector::new(3);
//! sv0.record_receive(SiteId(2)); // notifier executes O2
//! // Timestamp of the transformed O2' when propagated to site 1:
//! let t = sv0.compress_for(SiteId(1));
//! assert_eq!(t.as_pair(), (1, 0)); // [1,0] — paper Fig. 3
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod error;
pub mod formulas;
pub mod fz;
pub mod lamport;
pub mod oracle;
pub mod site;
pub mod sk;
pub mod state_vector;
pub mod timestamp;
pub mod vector;

pub use error::{ClockError, Result};
pub use site::SiteId;
pub use state_vector::{ClientStateVector, CompressedStamp, NotifierStateVector};
pub use timestamp::{BufferedStamp, OriginAtClient, Timestamp};
pub use vector::VectorClock;
