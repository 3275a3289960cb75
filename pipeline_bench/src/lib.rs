#![warn(missing_docs)]
//! The `pipeline` benchmark: what a user of the RA-linearizability
//! reproduction pays from scenario to checked verdict, end to end and
//! layer by layer.
//!
//! The path measured is the composed one — a scenario scheduled by
//! `ral-sim`, delivered by `ral-runtime`, decided by `ralin` (streaming
//! monitor, batch facade or sharded search) or checked by `ral-verify` —
//! on six workloads that each stress a different layer. All timing is
//! taken from outside the crates; nothing under `crates/` changes.
//!
//! * [`alloc`] — the counting allocator behind `case_heap_p50_mb`;
//! * [`kernel`] — the frozen reference kernel behind the `ru` unit, the
//!   clock, order statistics;
//! * [`timed`] — the traced run's timed adapters and aggregates;
//! * [`workloads`] — the six workloads and their correctness gates;
//! * [`measure`] — set-up, the closed-loop rounds, the metrics;
//! * [`report`] — the result line, the `--all` report, `--compare`.
//!
//! `PIPELINE.md` next to this crate's manifest defines every metric and
//! says which layer should move which number on which workload.

pub mod alloc;
pub mod kernel;
pub mod measure;
pub mod report;
pub mod timed;
pub mod workloads;
