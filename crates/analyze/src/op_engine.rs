//! Bounded-exhaustive obligation checking for operation-based CRDTs.
//!
//! The search enumerates **every** configuration a [`Cluster`] can reach
//! within `k` update invocations: at each configuration it branches on every
//! [`SmallScope`] call at every replica (pruned when the generator refuses)
//! and on every causally deliverable effector at every replica. Distinct
//! interleavings that produce the same configuration are deduplicated by a
//! rendered configuration key, so the exploration is over the *reachable
//! state graph*, not the execution tree.
//!
//! On every configuration the engine discharges:
//!
//! * **`effector-commutativity`** — Prop1: whenever the effectors of two
//!   concurrent operations are both deliverable at a replica (under causal
//!   delivery, simultaneous deliverability *implies* concurrency), applying
//!   them in either order must yield the same state. This is the premise of
//!   the paper's Theorem 4.2 for operation-based types; the statement is
//!   [`ral_verify::commutativity::check_pending_pairs`].
//! * **`ts-discipline`** — the OPERATION rule's side condition (Figure 7):
//!   every generated timestamp strictly exceeds every timestamp visible at
//!   the origin, and timestamps are globally unique.
//! * **`quiescent-convergence`** — strong eventual consistency: once no
//!   delivery is pending, all replicas hold equal states.
//!
//! The walk, the witness and its shrinking are the private `explorer`
//! module's; this one is the `Model` of a [`Cluster`] and the last two
//! predicates above.

use crate::explorer::{check_ts_discipline, explore, write_history_key, Model};
use crate::outcome::{Sink, TypeReport};
use ral_core::ids::ReplicaId;
use ral_core::scope::SmallScope;
use ral_runtime::laws::Checks;
use ral_runtime::op_based::{Cluster, OpBased};
use ral_verify::commutativity::check_pending_pairs;
use std::collections::BTreeSet;
use std::fmt::{self, Debug, Write as _};

pub use ral_verify::commutativity::OB_COMMUTE;
/// Obligation key: timestamp freshness + uniqueness (Figure 7 side condition).
pub const OB_TS: &str = "ts-discipline";
/// Obligation key: equal states once no delivery is pending.
pub const OB_CONVERGE: &str = "quiescent-convergence";

/// One event of an operation-based execution trace (single-object or
/// composed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum OpEvent<Call> {
    /// Run the generator of `call` at `replica`.
    Invoke {
        /// Stable invocation id.
        id: usize,
        /// Origin replica.
        replica: u32,
        /// The generator call.
        call: Call,
    },
    /// Apply the effector of invocation `of` at `replica`.
    Deliver {
        /// Receiving replica.
        replica: u32,
        /// The `id` of the [`OpEvent::Invoke`] whose effector is applied.
        of: usize,
    },
}

impl<Call: Debug> fmt::Display for OpEvent<Call> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpEvent::Invoke { id, replica, call } => {
                write!(f, "invoke#{id} at r{replica}: {call:?}")
            }
            OpEvent::Deliver { replica, of } => write!(f, "deliver invoke#{of} at r{replica}"),
        }
    }
}

/// The result of analyzing one operation-based CRDT.
pub struct OpAnalysis {
    /// Per-obligation verdicts.
    pub report: TypeReport,
    /// `Debug` renderings of every individual replica state the search
    /// visited — the coverage set the cross-check suite compares the random
    /// walks against.
    pub state_keys: BTreeSet<String>,
}

/// Exhaustively explores `crdt` within scope `k` and discharges (or refutes,
/// with a shrunk counterexample) the operation-based obligations.
pub fn analyze_op<C>(crdt: &C, name: &str, k: usize) -> OpAnalysis
where
    C: OpBased + SmallScope<Call = <C as OpBased>::Call> + Clone,
{
    let root = OpModel {
        cluster: Cluster::new(crdt.clone(), crdt.scope_replicas(k)),
        invoked: Vec::new(),
    };
    let mut state_keys = BTreeSet::new();
    let report = explore(&root, name, k, |config| {
        for r in 0..config.cluster.n_replicas() {
            state_keys.insert(format!("{:?}", config.cluster.state(ReplicaId(r as u32))));
        }
    });
    OpAnalysis { report, state_keys }
}

/// A [`Cluster`] configuration.
#[derive(Clone)]
struct OpModel<C: OpBased> {
    cluster: Cluster<C>,
    /// Ids of the invocations that took effect, by delivery id: the cluster
    /// numbers deliveries densely, one per successful invocation, so in the
    /// unshrunk trace delivery `d` is invocation `d`.
    invoked: Vec<usize>,
}

impl<C> Model for OpModel<C>
where
    C: OpBased + SmallScope<Call = <C as OpBased>::Call> + Clone,
{
    const STYLE: &'static str = "op";
    type Event = OpEvent<<C as OpBased>::Call>;

    fn obligations(&self) -> Vec<&'static str> {
        vec![OB_COMMUTE, OB_TS, OB_CONVERGE]
    }

    fn enabled(&self, k: usize) -> Vec<Self::Event> {
        let n = self.cluster.n_replicas() as u32;
        let mut events = Vec::new();
        for replica in 0..n {
            for of in self.cluster.deliverable(ReplicaId(replica)) {
                events.push(OpEvent::Deliver { replica, of });
            }
        }
        // Invokes last, so the LIFO walk explores invoke-rich (shallow,
        // concurrency-heavy) configurations first: a broken type is then
        // caught by the root-cause obligation (e.g. a non-commutative pair
        // of concurrent effectors) before one of its downstream symptoms
        // (divergence at quiescence) deep in a fully-delivered path.
        let id = self.invoked.len();
        if id < k {
            for replica in 0..n {
                for call in self.cluster.crdt().scope_calls(id, k) {
                    events.push(OpEvent::Invoke { id, replica, call });
                }
            }
        }
        events
    }

    fn apply(&mut self, ev: &Self::Event, _sink: &mut Sink) -> bool {
        match ev {
            OpEvent::Invoke { id, replica, call } => {
                // A refusing generator puts the call outside the client
                // obligation.
                let invoked = self.cluster.invoke(ReplicaId(*replica), call.clone());
                if invoked.is_some() {
                    self.invoked.push(*id);
                }
                invoked.is_some()
            }
            // Skipped when the invocation was removed, already applied
            // here, or not yet causally admissible.
            OpEvent::Deliver { replica, of } => {
                let r = ReplicaId(*replica);
                match self.invoked.iter().position(|id| id == of) {
                    Some(d) if self.cluster.can_deliver(r, d) => {
                        self.cluster.deliver(r, d);
                        true
                    }
                    _ => false,
                }
            }
        }
    }

    fn check(&self, sink: &mut Sink) {
        check_config(&self.cluster, sink);
    }

    fn key(&self) -> String {
        config_key(&self.cluster)
    }

    fn header(&self) -> String {
        format!("cluster with {} replicas\n", self.cluster.n_replicas())
    }

    fn is_update(ev: &Self::Event) -> bool {
        matches!(ev, OpEvent::Invoke { .. })
    }
}

/// Discharges the operation-based obligations on one configuration.
fn check_config<C: OpBased>(cluster: &Cluster<C>, sink: &mut Sink) {
    let n = cluster.n_replicas();

    check_pending_pairs(cluster, sink);
    let h = cluster.history();
    check_ts_discipline(h, OB_TS, |_, _| true, sink);

    // Strong eventual consistency at quiescence.
    if cluster.pending() == 0 && !h.is_empty() {
        sink.check(OB_CONVERGE, cluster.converged(), || {
            let states: Vec<String> = (0..n)
                .map(|r| format!("{:?}", cluster.state(ReplicaId(r as u32))))
                .collect();
            format!("all effectors delivered but replicas diverge: {states:?}")
        });
    }
}

/// A canonical rendering of a configuration: replica states and applied
/// sets, the delivery pool with per-replica delivery bits, and the history
/// (labels, origins, timestamps, visibility). Two configurations with equal
/// keys have identical futures, so the search visits each key once.
fn config_key<C: OpBased>(cluster: &Cluster<C>) -> String {
    let mut s = format!("u{};", cluster.n_deliveries());
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
    for d in 0..cluster.n_deliveries() {
        let _ = write!(
            s,
            "D{}|{:?}|",
            cluster.delivery_op(d),
            cluster.delivery_eff(d)
        );
        for r in 0..n {
            let _ = write!(
                s,
                "{}",
                u8::from(cluster.is_delivered(d, ReplicaId(r as u32)))
            );
        }
        s.push(';');
    }
    write_history_key(&mut s, cluster.history());
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{render_trace, replay};
    use ral_crdts::op::counter::CounterCall;
    use ral_crdts::OpCounter;

    #[test]
    fn counter_discharges_at_small_scope() {
        let analysis = analyze_op(&OpCounter, "Counter", 2);
        assert!(analysis.report.discharged(), "{}", analysis.report);
        assert!(analysis.report.configs > 10);
        // Reachable counter values within 2 ops: -2..=2.
        assert!(analysis.state_keys.contains("0"));
        assert!(analysis.state_keys.contains("2"));
        assert!(analysis.state_keys.contains("-2"));
    }

    fn root(n_replicas: usize) -> OpModel<OpCounter> {
        OpModel {
            cluster: Cluster::new(OpCounter, n_replicas),
            invoked: Vec::new(),
        }
    }

    /// Deliveries target invocations by id, so shrinking one invoke out of a
    /// trace must not re-target the remaining deliveries.
    #[test]
    fn replay_skips_inapplicable_events() {
        let events = vec![
            // invoke#0 was shrunk away; its delivery must be skipped, and
            // invoke#1's delivery must still land.
            OpEvent::Invoke {
                id: 1,
                replica: 0,
                call: CounterCall::Inc,
            },
            OpEvent::Deliver { replica: 1, of: 0 },
            OpEvent::Deliver { replica: 1, of: 1 },
            OpEvent::Deliver { replica: 2, of: 1 },
        ];
        let (config, sink) = replay(&root(3), &events);
        assert!(sink.violation().is_none());
        assert!(config.cluster.converged());
        assert_eq!(config.cluster.state(ReplicaId(1)), &1);
    }

    #[test]
    fn trace_rendering_is_replayable_syntax() {
        let events = vec![
            OpEvent::Invoke {
                id: 0,
                replica: 0,
                call: CounterCall::Inc,
            },
            OpEvent::Deliver { replica: 1, of: 0 },
        ];
        assert_eq!(
            render_trace(&root(3), &events),
            "cluster with 3 replicas\ninvoke#0 at r0: Inc\ndeliver invoke#0 at r1\n"
        );
    }
}
