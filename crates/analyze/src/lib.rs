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
//!   transitions and predicates. Where
//!   `ral_verify::state_props` / `commutativity` *sample* the obligations on
//!   seeded random executions, the analyzer enumerates **every** cluster
//!   configuration reachable within a scope bound `k` (every
//!   [`SmallScope`](ral_core::scope::SmallScope) generator call, origin
//!   replica, and message interleaving) and checks each obligation on each
//!   configuration: Prop1/Prop1′ effector commutativity, Prop2/Prop3
//!   merge-effector exchange, Prop4 merge ACI + idempotence + monotonicity
//!   w.r.t. `leq`, Prop5 origin replay, Prop6 idempotent re-application,
//!   the delta laws, and timestamp-discipline conformance for both
//!   composition modes `⊗` / `⊗ts`. A violation is shrunk
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
