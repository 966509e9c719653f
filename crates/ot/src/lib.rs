//! # cvc-ot — the operational-transformation substrate
//!
//! The paper's vector-clock compression is only possible because the
//! notifier re-defines every operation via **operational transformation**
//! before re-broadcasting it (its Section 6 stresses this is "the key").
//! This crate provides that substrate, built from scratch:
//!
//! * [`buffer`] — the replicated document: a gap buffer over `char`s with
//!   content checksums for convergence auditing.
//! * [`pos`] — paper-literal positional operations (`Insert["12",1]`,
//!   `Delete[3,2]`) with verified application and exact inverses.
//! * [`it`] / [`et`] — the classical pairwise inclusion/exclusion
//!   transformation functions of the REDUCE lineage (Sun et al.,
//!   TOCHI '98), including delete splitting and the documented partial
//!   cases of ET.
//! * [`seq`] — engine-grade component-sequence operations
//!   (retain/insert/delete) with **total** transform, compose, and invert;
//!   what the star-topology engines in `cvc-reduce` actually run on.
//! * [`stack`] — bounded operation stacks (a client's undo and redo) whose
//!   entries ride every executed operation by integer arithmetic.
//! * [`ttf`] — Tombstone Transformation Functions satisfying TP1 + TP2,
//!   powering the fully-distributed full-vector baseline.
//! * [`props`] — named convergence-property checkers (TP1, TP2) used by
//!   the property-test suite and the verification experiments.
//!
//! ## The paper's running example
//!
//! ```
//! use cvc_ot::pos::PosOp;
//! use cvc_ot::it::{it_op, Side};
//! use cvc_ot::buffer::TextBuffer;
//!
//! // "ABCDE"; O1 inserts "12" at 1, O2 deletes 3 chars from 2 ("CDE").
//! let o1 = PosOp::insert(1, "12");
//! let o2 = PosOp::delete(2, "CDE");
//!
//! // At site 1, O2 arrives after O1 executed; transformed it becomes
//! // Delete[3,4] and the document reaches the intention-preserved "A12B".
//! let o2t = it_op(&o2, &o1, Side::Left);
//! assert_eq!(o2t, vec![PosOp::delete(4, "CDE")]);
//! let mut doc = TextBuffer::from_str("ABCDE");
//! o1.apply(&mut doc).unwrap();
//! o2t[0].apply(&mut doc).unwrap();
//! assert_eq!(doc.to_string(), "A12B");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod cursor;
pub mod et;
pub mod it;
pub mod pos;
pub mod props;
pub mod seq;
pub mod stack;
pub mod ttf;

pub use buffer::TextBuffer;
pub use cursor::{transform_cursor, Bias, Selection};
pub use et::{et_op, EtError};
pub use it::{it_op, transform_pair, Side};
pub use pos::{ApplyError, PosOp};
pub use seq::{Component, SeqError, SeqOp};
pub use stack::OpStack;
pub use ttf::{it_ttf, transpose, TtfDoc, TtfOp};
