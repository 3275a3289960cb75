#![warn(missing_docs)]
//! `ral-analyze` — the workspace's static-analysis gate.
//!
//! Two engines behind one CLI ([`main`](../ral_analyze/index.html)) and one
//! CI step:
//!
//! * **Obligation analyzer** — bounded-exhaustive discharge of the paper's
//!   replication-aware simulation obligations: one private `explorer`
//!   (the depth-first walk over reachable configurations, the witness, its
//!   shrinking and replay) over three models ([`op_engine`],
//!   [`state_engine`], [`ts_engine`]), each holding only its cluster's
//!   transitions and the predicates that are the analyzer's own. Where
//!   `ral_verify::state_props` / `commutativity` judge *sampled* seeded
//!   executions, the analyzer enumerates **every** cluster configuration
//!   reachable within a scope bound `k` (every
//!   [`SmallScope`](ral_core::scope::SmallScope) generator call, origin
//!   replica, and message interleaving) and judges each with the same
//!   statements: effector commutativity, Prop1–Prop3, Prop5, Prop6 and the
//!   argument order from `ral-verify`, the five lattice laws and the three
//!   delta laws from `ral_runtime::laws`, plus its own timestamp-discipline
//!   conformance for both composition modes `⊗` / `⊗ts` and quiescent
//!   convergence. A violation is shrunk
//!   delta-debugging-style ([`shrink`]) to a 1-minimal event trace and
//!   printed as a replayable fixture.
//! * **Determinism lint** ([`lint`]) — a hand-rolled Rust lexer (no `syn`)
//!   that walks the workspace sources and fails on nondeterminism hazards:
//!   hash-ordered collections in trace-affecting crates, wall-clock reads
//!   outside `crates/bench`, environment reads outside `ral_core::env`,
//!   thread-identity reads anywhere, and thread spawns or core-count reads
//!   outside the benchmark packages. Audited exceptions live in an
//!   allowlist file with mandatory justifications.
//!
//! [`registry`] runs the obligation engines over every shipped CRDT and the
//! deliberately broken [`fixtures`]; [`report`] serializes everything to
//! `ANALYZE_report.json` for the CI artifact.

mod explorer;
pub mod fixtures;
pub mod lint;
pub mod op_engine;
pub mod outcome;
pub mod registry;
pub mod report;
pub mod shrink;
pub mod state_engine;
pub mod ts_engine;

pub use outcome::{Obligation, TypeReport, Violation};
