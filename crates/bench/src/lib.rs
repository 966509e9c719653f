//! # cvc-bench — benchmarks and experiment reproduction
//!
//! Everything DESIGN.md §6 promises: the `repro` binary prints each
//! experiment's table (`repro all`, `repro e1`, … — `repro list` names
//! them), writes the `BENCH_PR*.json` artefacts and checks the committed
//! ones (`repro check`); the criterion benches (`cargo bench`) measure
//! the hot paths. The library part hosts the experiment implementations
//! so binary, benches, and tests share one copy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod naive;
pub mod report;
