#![warn(missing_docs)]
//! `ral-sim` — a deterministic discrete-event network simulator for the
//! RA-linearizability reproduction.
//!
//! The `ral_runtime` schedulers explore visibility concurrency by flipping
//! a weighted coin between "invoke" and "deliver"; this crate replaces the
//! coin with a *network*: a virtual clock, a tie-break-stable event queue,
//! and a per-link model with configurable latency distributions, message
//! drop/duplication, partitions that form and heal on schedule, and replica
//! crash/restart. Every run is a pure function of `(scenario, driver,
//! seed)` — the trace, the history, and the final states are all
//! byte-reproducible.
//!
//! The transport respects the paper's split between propagation models:
//!
//! * **op-based** CRDTs (Section 3.1) require causal delivery, so their
//!   links stay loss-free and duplicate-free; latency may reorder arrivals,
//!   which the driver absorbs with causal holdback, and cut links or
//!   crashed replicas trigger retransmission, never loss;
//! * **state-based** CRDTs (Appendix D.2) merge whole states, so their
//!   links drop, duplicate, and reorder exactly as configured, and a
//!   crashed replica recovers from its last durable checkpoint and
//!   re-merges.
//!
//! Modules:
//!
//! * [`time`] — the virtual clock ([`SimTime`]);
//! * [`queue`] — the `(time, sequence)`-ordered event queue: a calendar of
//!   FIFO buckets over the run's link horizon, an overflow heap beyond it;
//! * [`network`] — topologies, latency distributions, link faults;
//! * [`fault`] — scheduled partitions and crash/restart plans;
//! * [`driver`] — the [`Driver`] trait adapting the clusters: the op-based
//!   [`OpClusterDriver`] ([`OpDriver`] for one object, [`MultiDriver`] for
//!   a composition), and the lattice [`LatticeDriver`] ([`StateDriver`]
//!   for full states, [`DeltaDriver`] for delta batches);
//! * [`monitored`] — [`MonitoredDriver`], an [`OpDriver`] wrapper that
//!   verifies RA-linearizability continuously while the engine runs;
//! * [`sim`] — the engine: [`run`] records nothing, [`sim::replay`]
//!   recomputes the same run with its trace;
//! * [`trace`] — the byte-comparable event record ([`Trace`]) and the
//!   [`Record`] sink the engine hands each entry to;
//! * [`scenario`] — the named corpus (`geo_3dc`, `flaky_wan`,
//!   `rolling_restart`, `split_brain_heal`, `delta_wan`, `multi_mix`,
//!   `gossip_50`, `lan_tight`).
//!
//! # Example
//!
//! ```
//! use ral_sim::driver::{Driver, StateDriver};
//! use ral_sim::{scenario, sim};
//! # use ral_runtime::delta::DeltaCrdt;
//! # use ral_runtime::gen::{GenCtx, GenOutcome};
//! # use ral_runtime::state_based::StateBased;
//! # #[derive(Clone)]
//! # struct GCtr;
//! # impl StateBased for GCtr {
//! #     type State = Vec<i64>;
//! #     type Call = ();
//! #     type Ret = ();
//! #     type Label = ();
//! #     fn initial(&self, n: usize) -> Vec<i64> { vec![0; n] }
//! #     fn merge_into(&self, a: &mut Vec<i64>, b: &Vec<i64>) -> bool {
//! #         let before = a.clone();
//! #         for (x, y) in a.iter_mut().zip(b) { *x = (*x).max(*y); }
//! #         *a != before
//! #     }
//! #     fn leq(&self, a: &Vec<i64>, b: &Vec<i64>) -> bool {
//! #         a.iter().zip(b).all(|(x, y)| x <= y)
//! #     }
//! #     fn label(&self, _c: &(), _r: &()) {}
//! # }
//! # impl DeltaCrdt for GCtr { // whole states as deltas
//! #     type Delta = Vec<i64>;
//! #     fn invoke(&self, st: &Vec<i64>, _c: &(), ctx: &mut GenCtx) -> GenOutcome<(), Vec<i64>> {
//! #         let mut next = st.clone();
//! #         next[ctx.replica().0 as usize] += 1;
//! #         GenOutcome::update((), next)
//! #     }
//! #     fn diff(&self, _pre: &Vec<i64>, post: &Vec<i64>) -> Vec<i64> { post.clone() }
//! #     fn join_into(&self, s: &mut Vec<i64>, d: &Vec<i64>) -> bool { self.merge_into(s, d) }
//! #     fn join_deltas_into(&self, a: &mut Vec<i64>, b: &Vec<i64>) { self.merge_into(a, b); }
//! #     fn delta_bytes(&self, d: &Vec<i64>) -> usize { 8 * d.len() }
//! #     fn state_bytes(&self, s: &Vec<i64>) -> usize { 8 * s.len() }
//! # }
//!
//! let scenario = scenario::flaky_wan();
//! let mut driver = StateDriver::new(GCtr, scenario.cfg.n_replicas, |_, _, _| Some(()));
//! let run = sim::run(&mut driver, &scenario.cfg, 42);
//! assert!(driver.converged(), "merges absorb loss, duplication, reorder");
//! assert!(run.stats.dropped > 0, "the WAN really was flaky");
//! ```

pub mod driver;
pub mod fault;
pub mod monitored;
pub mod network;
pub mod queue;
pub mod scenario;
pub mod sim;
pub mod time;
pub mod trace;

pub use driver::{
    DeltaDriver, Driver, LatticeDriver, MultiDriver, OpClusterDriver, OpDriver, Received,
    StateDriver,
};
pub use fault::{CrashPlan, FaultPlan, Partition, PartitionWindow};
pub use monitored::MonitoredDriver;
pub use network::{Latency, LinkFaults, Network, Topology};
pub use scenario::Scenario;
pub use sim::{replay, run, SimConfig, SimRun, SimStats};
pub use time::SimTime;
pub use trace::{Record, Trace, TraceEvent};
