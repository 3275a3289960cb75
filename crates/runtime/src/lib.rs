#![warn(missing_docs)]
//! Replicated-execution substrate for the RA-linearizability reproduction.
//!
//! Implements the labeled transition system of Section 3.1 (operation-based
//! CRDTs: generator/effector split, causal delivery) and Appendix D.2
//! (state-based CRDTs: local updates, merge-based propagation with message
//! loss, duplication, and reordering), recording the history `(L, vis)` of
//! every run.
//!
//! * [`gen`] — the generator context: fresh timestamps (Lamport clocks per
//!   replica) and unique identifiers;
//! * [`op_based`] — the [`op_based::OpBased`] trait and the one op-based
//!   cluster, [`op_based::OpCluster`], generic over how a record names its
//!   object; single-object [`op_based::Cluster`] is its `()` instance;
//! * [`multi`] — [`multi::MultiCluster`], its [`ObjId`](ral_core::ids::ObjId)
//!   instance: several objects of one data type under the unrestricted
//!   composition `⊗` or the shared-timestamp composition `⊗ts`
//!   (Section 5.3);
//! * [`state_based`] — the [`state_based::StateBased`] lattice (initial
//!   state, `merge_into`, `leq`, labels). Appendix D's full-state transport
//!   is a [`delta::DeltaCluster`] that only resyncs;
//! * [`delta`] — delta-state replication: [`delta::DeltaCrdt`], whose one
//!   mutator `invoke` reads the state and returns `(ret, δ)` as a
//!   [`gen::GenOutcome`], and [`delta::DeltaCluster`], a bandwidth-proportional
//!   transport with per-replica delta buffers, interval batching,
//!   ack-driven garbage collection, and full-state resync fallback;
//! * [`laws`] — the join-semilattice laws and the delta laws, stated once
//!   for every gate that discharges them, and the [`laws::Checks`] sink
//!   they report into;
//! * [`schedule`] — seeded random schedulers driving clusters through
//!   interleavings, plus convergence helpers.
//!
//! The clusters run on two delivery cores — [`op_based::OpCluster`] over
//! [`mailbox`], whichever way its records name their object, and
//! [`delta::DeltaCluster`], whether it gossips deltas or only resyncs full
//! states — sharing:
//!
//! * [`membership`] — per-replica liveness (crash/restart) and visibility
//!   (seen-set) bookkeeping, the [`membership::Member`] every node embeds;
//! * [`mailbox`] — per-replica delivery queues over a cluster-wide pool of
//!   immutable [`mailbox::DeliveryRecord`]s, with the causal holdback;
//!   [`op_based::OpCluster`] reads them in its one copy of op-based
//!   delivery: preconditions, holdback `receive`, and the single ascending
//!   drain pass.
//!
//! Delivery is sequential, as in the paper's interleaving semantics: one
//! OPERATION, EFFECTOR or merge step at one replica at a time, and
//! `deliver_all` / `sync_all` / `resync_round` visit the replicas in
//! ascending order.
//!
//! Every cluster exposes targeted per-message delivery
//! (`can_deliver`/`deliver`, `apply`) and crash/restart entry points; the
//! `ral-sim` crate builds a deterministic discrete-event network simulator
//! (latency, partitions, crashes, topologies) on top of them.

pub mod delta;
pub mod gen;
pub mod laws;
pub mod mailbox;
pub mod membership;
pub mod multi;
pub mod op_based;
pub mod schedule;
pub mod state_based;

pub use delta::{DeltaCluster, DeltaConfig, DeltaCrdt, DeltaStats};
pub use gen::{GenCtx, GenOutcome};
pub use mailbox::{DeliveryRecord, Mailbox, Received};
pub use membership::Member;
pub use multi::{MultiCluster, TsMode};
pub use op_based::{Cluster, OpBased};
pub use state_based::StateBased;
