#![warn(missing_docs)]
//! Property-based verification harness — the analogue of the paper's Boogie
//! mechanization (Section 6, Appendix F).
//!
//! The paper discharges, per CRDT, a handful of first-order proof
//! obligations that together imply RA-linearizability:
//!
//! * **Commutativity** (Section 4.1) — effectors of concurrent operations
//!   commute ([`commutativity`]);
//! * **Refinement** / **Refinement_ts** (Sections 4.1, 4.2) — every effector
//!   and generator is simulated by its specification operation through the
//!   refinement mapping `abs` ([`refinement`]);
//! * **Prop1–Prop6** with predicates `P1`/`P2` (Appendix D) — the
//!   state-based analogues relating local effectors and `merge`
//!   ([`state_props`]), on top of the join-semilattice laws of
//!   [`ral_runtime::laws`];
//! * **strong eventual consistency** ([`convergence`]) — equal views imply
//!   equal states, the observable consequence of RA-linearizability
//!   (Section 7).
//!
//! Instead of discharging them symbolically, this crate checks the *same*
//! obligations on systematically explored reachable states from seeded
//! random executions — a counterexample to any obligation would manifest as
//! a concrete failing state here. Each obligation is one function reporting
//! into a [`report::Checks`] sink; `ral-analyze` calls the same functions on
//! every configuration within a small scope.
//!
//! [`table`] assembles everything into the paper's headline artifact: the
//! Figure 12 table of nine CRDTs, each with its implementation style and
//! linearization class.

//! [`scenarios`] runs the same obligations through the `ral-sim`
//! discrete-event simulator's named scenario corpus, replacing the coin-flip
//! scheduler with latency, partitions, and crashes. [`delta`] adds the
//! delta-replication obligations: delta-transport convergence and lockstep
//! differential equivalence against full-state replication. [`crosscheck`]
//! runs the independent checker engines side by side over one history and
//! folds their outcomes into a single verdict — the oracle the `ral-fuzz`
//! scenario fuzzer drives.

pub mod commutativity;
pub mod convergence;
pub mod crosscheck;
pub mod delta;
pub mod families;
pub mod obligations;
pub mod refinement;
pub mod report;
pub mod scenarios;
pub mod state_props;
pub mod table;
mod walk;
pub mod workloads;

pub use report::Report;
pub use table::{fig12_rows, render_fig12, Fig12Row};
