//! Bounded-exhaustive obligation checking for state-based CRDTs.
//!
//! The search enumerates every configuration a full-state [`DeltaCluster`]
//! (every send a [`DeltaCluster::resync`]) can reach within `k` update
//! invocations, at most [`MAX_SENDS`] snapshot messages,
//! and at most one application of each message per receiving replica (the
//! unreliable network of Appendix D.2 may duplicate applications, but a
//! duplicate is a merge of a state already below the receiver — the lattice
//! checks on each configuration cover it). On every configuration the engine
//! discharges the Appendix D obligations over the *configuration's state
//! set* — every replica state plus every in-flight snapshot — with the
//! statements of [`ral_verify::state_props`] and [`ral_runtime::laws`]:
//!
//! * **`prop1-commutativity`** — local effectors commute (restricted to
//!   concurrent operations for the uniquely-identified class, Prop1;
//!   unconditional otherwise, Prop1′);
//! * **`prop2-merge-exchange`** / **`prop3-shared-apply`** — effectors
//!   exchange with `merge` under the predicate `P1`/`P2`;
//! * **`prop4-lattice`** — `merge` is idempotent, commutative, associative,
//!   an upper bound, and monotone w.r.t. `leq`;
//! * **`prop5-origin-replay`** (checked on every invocation edge) — the
//!   invocation's state change equals applying the local effector;
//! * **`prop6-idempotent-apply`** — re-application is a no-op (idempotent
//!   class only);
//! * **`arg-order`** — argument uniqueness and visibility-consistency
//!   (Lemmas E.1/E.2, uniquely-identified class only);
//! * **`ts-discipline`** — the Lamport side condition of Figure 7;
//! * **`delta-laws`** — decomposition (on invocation edges) and batching
//!   (on configuration state triples) of [`DeltaCrdt`].
//!
//! The walk, the witness and its shrinking are the private `explorer`
//! module's; this one is the `Model` of a full-state [`DeltaCluster`] under those
//! budgets, handing each configuration and invocation edge to the
//! predicates above (only `ts-discipline` is stated in this crate).

use crate::explorer::{check_ts_discipline, explore, write_history_key, Model};
use crate::outcome::{Sink, TypeReport};
use ral_core::ids::ReplicaId;
use ral_core::scope::SmallScope;
use ral_crdts::state::local::{EffectorClass, LocalEffector};
use ral_runtime::delta::{DeltaCluster, DeltaConfig, DeltaCrdt};
use ral_runtime::laws;
use ral_runtime::state_based::StateBased;
use ral_verify::state_props;
use std::collections::BTreeSet;
use std::fmt::{self, Debug, Write as _};

pub use ral_runtime::laws::{OB_DELTA, OB_PROP4};
pub use ral_verify::state_props::{OB_ARG_ORDER, OB_PROP1, OB_PROP2, OB_PROP3, OB_PROP5, OB_PROP6};

/// Obligation key: timestamp freshness + uniqueness.
pub const OB_TS: &str = "ts-discipline";

/// Bound on snapshot messages per explored execution. Two snapshots suffice
/// to cross two concurrent updates both ways — the shape every merge
/// obligation quantifies over.
pub const MAX_SENDS: usize = 2;

/// One event of a state-based execution trace.
#[derive(Clone, Debug, PartialEq, Eq)]
enum StEvent<Call> {
    /// Execute `call` locally at `replica`.
    Invoke {
        /// Stable invocation id.
        id: usize,
        /// Origin replica.
        replica: u32,
        /// The method call.
        call: Call,
    },
    /// Snapshot `replica`'s state into a message.
    Send {
        /// Stable message id.
        id: usize,
        /// Sending replica.
        replica: u32,
    },
    /// Merge message `of` into `replica`.
    Apply {
        /// Receiving replica.
        replica: u32,
        /// The `id` of the [`StEvent::Send`] whose snapshot is merged.
        of: usize,
    },
}

impl<Call: Debug> fmt::Display for StEvent<Call> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StEvent::Invoke { id, replica, call } => {
                write!(f, "invoke#{id} at r{replica}: {call:?}")
            }
            StEvent::Send { id, replica } => write!(f, "send#{id} from r{replica}"),
            StEvent::Apply { replica, of } => write!(f, "apply send#{of} at r{replica}"),
        }
    }
}

/// The result of analyzing one state-based CRDT.
pub struct StateAnalysis {
    /// Per-obligation verdicts.
    pub report: TypeReport,
    /// `Debug` renderings of every replica state the search visited.
    pub state_keys: BTreeSet<String>,
}

/// Exhaustively explores `crdt` within scope `k` and discharges (or refutes,
/// with a shrunk counterexample) the state-based obligations.
pub fn analyze_state<C>(crdt: &C, name: &str, k: usize) -> StateAnalysis
where
    C: LocalEffector + DeltaCrdt + SmallScope<Call = <C as StateBased>::Call> + Clone,
{
    let root = StateModel {
        cluster: DeltaCluster::new(crdt.clone(), DeltaConfig::default(), crdt.scope_replicas(k)),
        sent: Vec::new(),
        applied: BTreeSet::new(),
    };
    let mut state_keys = BTreeSet::new();
    let report = explore(&root, name, k, |config| {
        for r in 0..config.cluster.n_replicas() {
            state_keys.insert(format!("{:?}", config.cluster.state(ReplicaId(r as u32))));
        }
    });
    StateAnalysis { report, state_keys }
}

/// A full-state [`DeltaCluster`] configuration.
#[derive(Clone)]
struct StateModel<C: DeltaCrdt> {
    cluster: DeltaCluster<C>,
    /// Ids of the sends on this path, by message index (the cluster numbers
    /// messages densely, so in the unshrunk trace message `m` is send `m`).
    sent: Vec<usize>,
    /// `(replica, message)` pairs already applied on this path.
    applied: BTreeSet<(u32, usize)>,
}

impl<C> Model for StateModel<C>
where
    C: LocalEffector + DeltaCrdt + SmallScope<Call = <C as StateBased>::Call> + Clone,
{
    const STYLE: &'static str = "state";
    type Event = StEvent<<C as StateBased>::Call>;

    fn obligations(&self) -> Vec<&'static str> {
        let mut obs = vec![
            OB_PROP1, OB_PROP2, OB_PROP3, OB_PROP4, OB_PROP5, OB_TS, OB_DELTA,
        ];
        match self.cluster.crdt().class() {
            EffectorClass::Idempotent => obs.push(OB_PROP6),
            EffectorClass::UniquelyIdentified => obs.push(OB_ARG_ORDER),
            EffectorClass::Cumulative => {}
        }
        obs
    }

    fn enabled(&self, k: usize) -> Vec<Self::Event> {
        let n = self.cluster.n_replicas() as u32;
        let mut events = Vec::new();
        let id = self.cluster.history().len();
        if id < k {
            for replica in 0..n {
                for call in self.cluster.crdt().scope_calls(id, k) {
                    events.push(StEvent::Invoke { id, replica, call });
                }
            }
        }
        let id = self.cluster.n_messages();
        if id < MAX_SENDS {
            events.extend((0..n).map(|replica| StEvent::Send { id, replica }));
        }
        for of in 0..self.cluster.n_messages() {
            for replica in 0..n {
                // Skip the origin (its state already dominates the snapshot)
                // and duplicate applications on the same path.
                if self.cluster.message_origin(of) != ReplicaId(replica)
                    && !self.applied.contains(&(replica, of))
                {
                    events.push(StEvent::Apply { replica, of });
                }
            }
        }
        events
    }

    fn apply(&mut self, ev: &Self::Event, sink: &mut Sink) -> bool {
        match ev {
            StEvent::Invoke { replica, call, .. } => {
                let r = ReplicaId(*replica);
                let pre = self.cluster.state(r).clone();
                let Some(inv) = self.cluster.invoke(r, call.clone()) else {
                    return false;
                };
                check_invoke_edge(&pre, &self.cluster, inv.op, sink);
            }
            StEvent::Send { id, replica } => {
                self.cluster.resync(ReplicaId(*replica));
                self.sent.push(*id);
            }
            // Skipped when the send was removed.
            StEvent::Apply { replica, of } => {
                let Some(m) = self.sent.iter().position(|id| id == of) else {
                    return false;
                };
                self.cluster.apply(ReplicaId(*replica), m);
                self.applied.insert((*replica, m));
            }
        }
        true
    }

    fn check(&self, sink: &mut Sink) {
        check_config(&self.cluster, sink);
    }

    fn key(&self) -> String {
        config_key(&self.cluster, &self.applied)
    }

    fn header(&self) -> String {
        format!("cluster with {} replicas\n", self.cluster.n_replicas())
    }

    fn is_update(ev: &Self::Event) -> bool {
        matches!(ev, StEvent::Invoke { .. })
    }
}

/// Prop5 and the delta decomposition law on one invocation edge
/// `pre → post` (the cluster's `op`-th history record).
fn check_invoke_edge<C>(pre: &C::State, cluster: &DeltaCluster<C>, op: usize, sink: &mut Sink)
where
    C: LocalEffector + DeltaCrdt,
{
    let record = cluster.history().op(op);
    let post = cluster.state(record.replica);
    state_props::check_invoke_edge(cluster.crdt(), pre, post, record, sink);
    laws::delta_decomposition(cluster.crdt(), pre, post, sink);
}

/// Discharges the configuration-level obligations over the distinct states
/// of the configuration (replica states + in-flight snapshots) and the
/// recorded history.
fn check_config<C>(cluster: &DeltaCluster<C>, sink: &mut Sink)
where
    C: LocalEffector + DeltaCrdt,
{
    let crdt = cluster.crdt();
    let replicas = (0..cluster.n_replicas()).map(|r| cluster.state(ReplicaId(r as u32)));
    let snapshots = (0..cluster.n_messages()).filter_map(|m| cluster.message(m).state());
    let states = laws::distinct(replicas.chain(snapshots));
    let h = cluster.history();
    let args = state_props::effector_args(crdt, h);
    state_props::check_config(crdt, h, &states, &args, sink);
    check_ts_discipline(h, OB_TS, |_, _| true, sink);
    laws::delta_laws(crdt, &crdt.initial(cluster.n_replicas()), &states, sink);
}

/// A canonical rendering of a configuration: replica states and seen sets,
/// in-flight messages (origin, state, seen), which (replica, message) pairs
/// this path has applied, and the history.
fn config_key<C: DeltaCrdt>(cluster: &DeltaCluster<C>, applied: &BTreeSet<(u32, usize)>) -> String {
    let mut s = String::new();
    let n = cluster.n_replicas();
    for r in 0..n {
        let r = ReplicaId(r as u32);
        let _ = write!(
            s,
            "R{:?}|{:?};",
            cluster.state(r),
            cluster.seen(r).iter().collect::<Vec<_>>()
        );
    }
    // The search never releases a message, so every one carries its state.
    for m in 0..cluster.n_messages() {
        let message = cluster.message(m);
        let _ = write!(s, "M{:?}|", cluster.message_origin(m));
        if let Some(state) = message.state() {
            let _ = write!(s, "{state:?}");
        }
        let _ = write!(s, "|{:?};", message.seen().iter().collect::<Vec<_>>());
    }
    let _ = write!(s, "A{applied:?};");
    write_history_key(&mut s, cluster.history());
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use ral_crdts::PnCounter;

    #[test]
    fn pn_counter_discharges_at_small_scope() {
        let analysis = analyze_state(&PnCounter, "PN-Counter", 2);
        assert!(analysis.report.discharged(), "{}", analysis.report);
        assert!(analysis.report.configs > 10);
    }

    #[test]
    fn replay_skips_events_of_removed_sends() {
        use ral_crdts::state::pn_counter::PnCall;
        let root = StateModel {
            cluster: DeltaCluster::new(PnCounter, DeltaConfig::default(), 3),
            sent: Vec::new(),
            applied: BTreeSet::new(),
        };
        let events = vec![
            StEvent::Invoke {
                id: 0,
                replica: 0,
                call: PnCall::Inc,
            },
            // send#0 was shrunk away; this apply must be skipped.
            StEvent::Apply { replica: 1, of: 0 },
            StEvent::Send { id: 1, replica: 0 },
            StEvent::Apply { replica: 1, of: 1 },
        ];
        let (config, sink) = crate::explorer::replay(&root, &events);
        assert!(sink.violation().is_none());
        let cluster = &config.cluster;
        assert_eq!(cluster.state(ReplicaId(0)), cluster.state(ReplicaId(1)));
    }
}
