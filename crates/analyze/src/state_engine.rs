//! Bounded-exhaustive obligation checking for state-based CRDTs.
//!
//! The search enumerates every configuration a [`StateCluster`] can reach
//! within `k` update invocations, at most [`MAX_SENDS`] snapshot messages,
//! and at most one application of each message per receiving replica (the
//! unreliable network of Appendix D.2 may duplicate applications, but a
//! duplicate is a merge of a state already below the receiver — the lattice
//! checks on each configuration cover it). On every configuration the engine
//! discharges the Appendix D obligations over the *configuration's state
//! set* — every replica state plus every in-flight snapshot:
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
//! * **`delta-laws`** — decomposition (on invocation edges), resynchronization
//!   and batching (on configuration state pairs/triples) of [`DeltaCrdt`].
//!
//! The walk, the witness and its shrinking are the private `explorer`
//! module's; this one is the `Model` of a [`StateCluster`] under those
//! budgets and the predicates above.

use crate::explorer::{check_ts_discipline, explore, write_history_key, Model};
use crate::outcome::{Sink, TypeReport};
use ral_core::ids::ReplicaId;
use ral_core::scope::SmallScope;
use ral_crdts::state::local::{EffectorClass, LocalEffector};
use ral_runtime::delta::DeltaCrdt;
use ral_runtime::state_based::{StateBased, StateCluster};
use std::collections::BTreeSet;
use std::fmt::{self, Debug, Write as _};

/// Obligation key: Prop1/Prop1′ local-effector commutativity.
pub const OB_PROP1: &str = "prop1-commutativity";
/// Obligation key: Prop2 merge/effector exchange under `P`.
pub const OB_PROP2: &str = "prop2-merge-exchange";
/// Obligation key: Prop3 apply-on-both-sides exchange.
pub const OB_PROP3: &str = "prop3-shared-apply";
/// Obligation key: Prop4 + lattice laws (ACI, upper bound, monotonicity).
pub const OB_PROP4: &str = "prop4-lattice";
/// Obligation key: Prop5 invocation-vs-local-effector agreement.
pub const OB_PROP5: &str = "prop5-origin-replay";
/// Obligation key: Prop6 idempotent re-application.
pub const OB_PROP6: &str = "prop6-idempotent-apply";
/// Obligation key: Lemma E.1/E.2 argument uniqueness and order.
pub const OB_ARG_ORDER: &str = "arg-order";
/// Obligation key: timestamp freshness + uniqueness.
pub const OB_TS: &str = "ts-discipline";
/// Obligation key: the four delta laws of [`DeltaCrdt`].
pub const OB_DELTA: &str = "delta-laws";

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
        cluster: StateCluster::new(crdt.clone(), crdt.scope_replicas(k)),
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

/// A [`StateCluster`] configuration.
#[derive(Clone)]
struct StateModel<C: StateBased> {
    cluster: StateCluster<C>,
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
                self.cluster.send(ReplicaId(*replica));
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
fn check_invoke_edge<C>(pre: &C::State, cluster: &StateCluster<C>, op: usize, sink: &mut Sink)
where
    C: LocalEffector + DeltaCrdt,
{
    let crdt = cluster.crdt();
    let record = cluster.history().op(op);
    let post = cluster.state(record.replica);
    match crdt.effector_arg(&record.label, record.replica, record.ts) {
        Some(arg) => {
            let mut replay = pre.clone();
            crdt.apply_arg(&mut replay, &arg);
            sink.check(OB_PROP5, replay == *post, || {
                format!(
                    "Prop5: apply_arg({arg:?}) on {pre:?} gives {replay:?}, \
                     but the invocation produced {post:?}"
                )
            });
        }
        None => {
            sink.check(OB_PROP5, pre == post, || {
                format!("Prop5: query changed the state from {pre:?} to {post:?}")
            });
        }
    }
    if pre != post {
        let delta = crdt.diff(pre, post);
        let rejoined = crdt.join(pre, &delta);
        sink.check(OB_DELTA, rejoined == *post, || {
            format!(
                "delta decomposition: join(pre, diff(pre, post)) = {rejoined:?} \
                 but post = {post:?}"
            )
        });
    }
}

/// Discharges the configuration-level obligations over the state set
/// (replica states + in-flight snapshots) and the recorded history.
fn check_config<C>(cluster: &StateCluster<C>, sink: &mut Sink)
where
    C: LocalEffector + DeltaCrdt,
{
    let crdt = cluster.crdt();
    let n = cluster.n_replicas();
    let mut states: Vec<&C::State> = (0..n).map(|r| cluster.state(ReplicaId(r as u32))).collect();
    states.extend((0..cluster.n_messages()).map(|m| cluster.message_state(m)));
    // Equal states are interchangeable in every check below.
    let mut uniq: Vec<&C::State> = Vec::new();
    for s in states {
        if !uniq.contains(&s) {
            uniq.push(s);
        }
    }
    let states = uniq;

    let h = cluster.history();
    let args: Vec<(usize, C::Arg)> = (0..h.len())
        .filter_map(|i| {
            crdt.effector_arg(h.label(i), h.op(i).replica, h.op(i).ts)
                .map(|a| (i, a))
        })
        .collect();

    // Prop4 + lattice laws first: they are the foundation the other
    // properties quantify over, so a type that is not even a semilattice
    // (e.g. the SummingCounter fixture) is reported as a lattice violation
    // rather than as whichever of Prop1–Prop3 happens to trip over it.
    for a in &states {
        sink.check(OB_PROP4, crdt.merge(a, a) == **a, || {
            format!("merge is not idempotent on {a:?}")
        });
        for b in &states {
            let ab = crdt.merge(a, b);
            sink.check(OB_PROP4, ab == crdt.merge(b, a), || {
                format!("merge is not commutative on {a:?} / {b:?}")
            });
            sink.check(OB_PROP4, crdt.leq(a, &ab) && crdt.leq(b, &ab), || {
                format!("merge of {a:?} / {b:?} is not an upper bound w.r.t. leq")
            });
            for c in &states {
                sink.check(
                    OB_PROP4,
                    crdt.merge(&ab, c) == crdt.merge(a, &crdt.merge(b, c)),
                    || format!("merge is not associative on {a:?} / {b:?} / {c:?}"),
                );
                if crdt.leq(a, b) {
                    sink.check(
                        OB_PROP4,
                        crdt.leq(&crdt.merge(a, c), &crdt.merge(b, c)),
                        || {
                            format!(
                                "merge is not monotone: {a:?} ⊑ {b:?} but not after merging {c:?}"
                            )
                        },
                    );
                }
            }
        }
    }

    // Prop1 / Prop1′.
    for (i, (op1, a1)) in args.iter().enumerate() {
        for (op2, a2) in &args[i + 1..] {
            if crdt.class() == EffectorClass::UniquelyIdentified && !h.concurrent(*op1, *op2) {
                continue;
            }
            for s in &states {
                let mut ab = (*s).clone();
                crdt.apply_arg(&mut ab, a1);
                crdt.apply_arg(&mut ab, a2);
                let mut ba = (*s).clone();
                crdt.apply_arg(&mut ba, a2);
                crdt.apply_arg(&mut ba, a1);
                sink.check(OB_PROP1, ab == ba, || {
                    format!("Prop1: {a1:?} and {a2:?} do not commute on {s:?}: {ab:?} vs {ba:?}")
                });
            }
        }
    }

    // Prop2 / Prop3.
    let unconditional_p3 = crdt.class() != EffectorClass::UniquelyIdentified;
    for s1 in &states {
        for s2 in &states {
            for (_, arg) in &args {
                let p_both = crdt.p_pred(s1, arg) && crdt.p_pred(s2, arg);
                if p_both {
                    let mut applied2 = (*s2).clone();
                    crdt.apply_arg(&mut applied2, arg);
                    let lhs = crdt.merge(s1, &applied2);
                    let mut rhs = crdt.merge(s1, s2);
                    crdt.apply_arg(&mut rhs, arg);
                    sink.check(OB_PROP2, lhs == rhs, || {
                        format!("Prop2 fails for {arg:?} on {s1:?} / {s2:?}")
                    });
                }
                if p_both || unconditional_p3 {
                    let mut applied1 = (*s1).clone();
                    crdt.apply_arg(&mut applied1, arg);
                    let mut applied2 = (*s2).clone();
                    crdt.apply_arg(&mut applied2, arg);
                    let lhs = crdt.merge(&applied1, &applied2);
                    let mut rhs = crdt.merge(s1, s2);
                    crdt.apply_arg(&mut rhs, arg);
                    sink.check(OB_PROP3, lhs == rhs, || {
                        format!("Prop3 fails for {arg:?} on {s1:?} / {s2:?}")
                    });
                }
            }
        }
    }

    // Prop6 (idempotent class).
    if crdt.class() == EffectorClass::Idempotent {
        for s in &states {
            for (_, arg) in &args {
                let mut once = (*s).clone();
                crdt.apply_arg(&mut once, arg);
                let mut twice = once.clone();
                crdt.apply_arg(&mut twice, arg);
                sink.check(OB_PROP6, once == twice, || {
                    format!("Prop6: {arg:?} is not idempotent on {s:?}")
                });
            }
        }
    }

    // Lemma E.1/E.2 (uniquely-identified class).
    if crdt.class() == EffectorClass::UniquelyIdentified {
        for (i, (op1, a1)) in args.iter().enumerate() {
            for (op2, a2) in &args[i + 1..] {
                sink.check(OB_ARG_ORDER, a1 != a2, || {
                    format!("argument {a1:?} of ops {op1}/{op2} is not unique")
                });
                if a1 == a2 {
                    continue;
                }
                if h.sees(*op2, *op1) {
                    sink.check(OB_ARG_ORDER, crdt.arg_lt(a1, a2), || {
                        format!("visibility {op1}≺{op2} but not {a1:?} < {a2:?}")
                    });
                } else if h.sees(*op1, *op2) {
                    sink.check(OB_ARG_ORDER, crdt.arg_lt(a2, a1), || {
                        format!("visibility {op2}≺{op1} but not {a2:?} < {a1:?}")
                    });
                } else if crdt.concurrent_incomparable() {
                    sink.check(
                        OB_ARG_ORDER,
                        !crdt.arg_lt(a1, a2) && !crdt.arg_lt(a2, a1),
                        || format!("concurrent ops {op1}, {op2} have comparable args"),
                    );
                }
            }
        }
    }

    check_ts_discipline(h, OB_TS, |_, _| true, sink);

    // Delta laws: resynchronization and batching.
    for a in &states {
        for b in &states {
            let resync = crdt.join(a, &crdt.full_delta(b));
            sink.check(OB_DELTA, resync == crdt.merge(a, b), || {
                format!("delta resync: join(a, full_delta(b)) ≠ merge(a, b) for {a:?} / {b:?}")
            });
            for t in &states {
                let da = crdt.full_delta(a);
                let db = crdt.full_delta(b);
                let one_by_one = crdt.join(&crdt.join(t, &da), &db);
                let batched = crdt.join(t, &crdt.join_deltas(&da, &db));
                sink.check(OB_DELTA, one_by_one == batched, || {
                    format!("delta batching differs on {t:?} with deltas of {a:?} / {b:?}")
                });
            }
        }
    }
}

/// A canonical rendering of a configuration: replica states and seen sets,
/// in-flight messages (origin, state, seen), which (replica, message) pairs
/// this path has applied, and the history.
fn config_key<C: StateBased>(
    cluster: &StateCluster<C>,
    applied: &BTreeSet<(u32, usize)>,
) -> String {
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
    for m in 0..cluster.n_messages() {
        let _ = write!(
            s,
            "M{:?}|{:?}|{:?};",
            cluster.message_origin(m),
            cluster.message_state(m),
            cluster.message_seen(m).iter().collect::<Vec<_>>()
        );
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
            cluster: StateCluster::new(PnCounter, 3),
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
