//! The state-based proof obligations of Appendix D, each stated once:
//! Prop1–Prop6 over local effectors, `merge`, and the predicates `P1`/`P2`,
//! on top of the join-semilattice laws of [`ral_runtime::laws`].
//!
//! | Property | Statement (informally) | Classes |
//! |---|---|---|
//! | Prop1 / Prop1' | local effectors commute (of concurrent ops, or unconditionally) | all |
//! | Prop2 / Prop2' | `merge(σ, apply(σ', x)) = apply(merge(σ, σ'), x)` when `P` holds on both | all |
//! | Prop3 / Prop3' | `merge(apply(σ, x), apply(σ', x)) = apply(merge(σ, σ'), x)` | all |
//! | Prop4 | `merge` is idempotent, commutative, associative, an upper bound and monotone w.r.t. `leq` | all |
//! | Prop5 | invoking at the origin equals applying the local effector | all |
//! | Prop6 | `apply(apply(σ, x), x) = apply(σ, x)` | idempotent |
//!
//! For the uniquely-identified class the argument order must additionally be
//! consistent with visibility (Lemma E.1) and incomparable for concurrent
//! operations (Lemma E.2).
//!
//! [`check_config`] and [`check_invoke_edge`] are the statements; who
//! produces the configurations is independent of them. [`check_state_based`]
//! samples deep seeded executions here, and `ral-analyze` calls the same two
//! functions on every configuration and invocation edge within its scope.

use crate::report::{Checks, Report};
use ral_core::history::{History, OpRecord};
use ral_core::ids::ReplicaId;
use ral_core::rng::Rng;
use ral_crdts::state::local::{EffectorClass, LocalEffector};
use ral_runtime::delta::{DeltaCluster, DeltaConfig, DeltaCrdt};
use ral_runtime::laws;
use std::ops::Range;

/// Obligation key: Prop1/Prop1′ local-effector commutativity.
pub const OB_PROP1: &str = "prop1-commutativity";
/// Obligation key: Prop2 merge/effector exchange under `P`.
pub const OB_PROP2: &str = "prop2-merge-exchange";
/// Obligation key: Prop3 apply-on-both-sides exchange.
pub const OB_PROP3: &str = "prop3-shared-apply";
/// Obligation key: Prop5 invocation-vs-local-effector agreement.
pub const OB_PROP5: &str = "prop5-origin-replay";
/// Obligation key: Prop6 idempotent re-application.
pub const OB_PROP6: &str = "prop6-idempotent-apply";
/// Obligation key: Lemma E.1/E.2 argument uniqueness and order.
pub const OB_ARG_ORDER: &str = "arg-order";

/// Caps on the per-seed sample sizes (states × args × pairs grows fast).
const MAX_STATES: usize = 12;
const MAX_ARGS: usize = 24;

/// Checks Prop1–Prop6 (as applicable to the CRDT's effector class) and the
/// lattice laws over seeded random executions: [`check_invoke_edge`] on
/// every invocation, [`check_config`] per seed on the distinct sampled
/// states and the first `MAX_ARGS` update arguments.
pub fn check_state_based<C, F>(
    crdt: C,
    n_replicas: usize,
    steps: usize,
    seeds: Range<u64>,
    mut call_gen: F,
) -> Report
where
    C: LocalEffector + DeltaCrdt + Clone,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
{
    let mut report = Report::new("Prop1-Prop6");
    for seed in seeds {
        let mut cluster = DeltaCluster::new(crdt.clone(), DeltaConfig::default(), n_replicas);
        let mut rng = Rng::seed_from_u64(seed);
        // Sampled reachable states.
        let mut states: Vec<C::State> = vec![cluster.state(ReplicaId(0)).clone()];

        for _ in 0..steps {
            let r = ReplicaId(rng.random_range(0..n_replicas) as u32);
            if rng.random_bool(0.55) {
                let Some(call) = call_gen(&mut rng, r, cluster.state(r)) else {
                    continue;
                };
                let before = cluster.state(r).clone();
                let Some(inv) = cluster.invoke(r, call) else {
                    continue;
                };
                let (after, record) = (cluster.state(r), cluster.history().op(inv.op));
                check_invoke_edge(&crdt, &before, after, record, &mut report);
                if states.len() < MAX_STATES {
                    states.push(after.clone());
                }
            } else if rng.random_bool(0.5) || cluster.n_messages() == 0 {
                cluster.resync(r);
            } else {
                let m = rng.random_range(0..cluster.n_messages());
                cluster.apply(r, m);
                if states.len() < MAX_STATES && rng.random_bool(0.3) {
                    states.push(cluster.state(r).clone());
                }
            }
        }

        let history = cluster.history();
        let mut args = effector_args(&crdt, history);
        args.truncate(MAX_ARGS);
        check_config(&crdt, history, &laws::distinct(&states), &args, &mut report);
    }
    report
}

/// The local-effector arguments of `h`'s updates, by operation index.
pub fn effector_args<C: LocalEffector>(crdt: &C, h: &History<C::Label>) -> Vec<(usize, C::Arg)> {
    (0..h.len())
        .filter_map(|i| {
            crdt.effector_arg(h.label(i), h.op(i).replica, h.op(i).ts)
                .map(|a| (i, a))
        })
        .collect()
}

/// Prop5 on one invocation edge `pre → post` recorded as `record`: the
/// invocation's state change equals applying its local effector, and a
/// query changes nothing.
pub fn check_invoke_edge<C: LocalEffector>(
    crdt: &C,
    pre: &C::State,
    post: &C::State,
    record: &OpRecord<C::Label>,
    sink: &mut impl Checks,
) {
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
}

/// Discharges the configuration-level obligations over distinct `states`,
/// the update arguments `args` (by operation index) and the history `h`
/// that relates them: which laws apply to which [`EffectorClass`], and in
/// which order.
pub fn check_config<C: LocalEffector>(
    crdt: &C,
    h: &History<C::Label>,
    states: &[&C::State],
    args: &[(usize, C::Arg)],
    sink: &mut impl Checks,
) {
    let uniquely_identified = crdt.class() == EffectorClass::UniquelyIdentified;

    // Prop4 + lattice laws first: they are the foundation the other
    // properties quantify over, so a type that is not even a semilattice
    // (e.g. the SummingCounter fixture) is reported as a lattice violation
    // rather than as whichever of Prop1–Prop3 happens to trip over it.
    laws::lattice_laws(crdt, states, sink);

    // Prop1 restricts to concurrent operations for the uniquely-identified
    // class; Prop1′ is unconditional.
    for (i, (op1, a1)) in args.iter().enumerate() {
        for (op2, a2) in &args[i + 1..] {
            if uniquely_identified && !h.concurrent(*op1, *op2) {
                continue;
            }
            for s in states {
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

    // Prop2 and Prop3 under `P` on both states; Prop3′ is unconditional
    // outside the uniquely-identified class.
    for s1 in states {
        for s2 in states {
            for (_, arg) in args {
                let p_both = crdt.p_pred(s1, arg) && crdt.p_pred(s2, arg);
                if !p_both && uniquely_identified {
                    continue;
                }
                let mut applied2 = (*s2).clone();
                crdt.apply_arg(&mut applied2, arg);
                let mut rhs = crdt.merge(s1, s2);
                crdt.apply_arg(&mut rhs, arg);
                if p_both {
                    // Prop2: merge(σ, apply(σ', x)) = apply(merge(σ, σ'), x)
                    sink.check(OB_PROP2, crdt.merge(s1, &applied2) == rhs, || {
                        format!("Prop2 fails for {arg:?} on {s1:?} / {s2:?}")
                    });
                }
                // Prop3: merge(apply(σ, x), apply(σ', x)) = apply(merge, x)
                let mut applied1 = (*s1).clone();
                crdt.apply_arg(&mut applied1, arg);
                sink.check(OB_PROP3, crdt.merge(&applied1, &applied2) == rhs, || {
                    format!("Prop3 fails for {arg:?} on {s1:?} / {s2:?}")
                });
            }
        }
    }

    // Prop6 (idempotent class): re-applying an argument is a no-op.
    if crdt.class() == EffectorClass::Idempotent {
        for s in states {
            for (_, arg) in args {
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

    // Lemma E.1 (uniquely-identified class): arguments are unique and
    // ordered consistently with visibility. Lemma E.2: concurrent operations
    // have incomparable arguments (version vectors, not total timestamp
    // orders).
    if uniquely_identified {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use ral_core::timestamp::Ts;
    use ral_crdts::state::lww_element_set::LwwElementSet;
    use ral_crdts::state::mv_register::MvRegister;
    use ral_crdts::state::pn_counter::PnCounter;
    use ral_crdts::state::two_phase_set::TwoPhaseSet;
    use ral_runtime::gen::{GenCtx, GenOutcome};
    use ral_runtime::state_based::StateBased;

    #[test]
    fn pn_counter_satisfies_props() {
        let report = check_state_based(PnCounter, 3, 40, 0..3, |rng, _, _| {
            Some(workloads::pn_counter(rng))
        });
        assert!(report.ok(), "{report}");
    }

    #[test]
    fn two_phase_set_satisfies_props() {
        let mut next = 0;
        let report = check_state_based(TwoPhaseSet::<u16>::new(), 3, 40, 0..3, |rng, _, st| {
            workloads::two_phase_set(rng, st, &mut next)
        });
        assert!(report.ok(), "{report}");
    }

    #[test]
    fn mv_register_satisfies_props() {
        let report = check_state_based(MvRegister::<u8>::new(), 3, 40, 0..3, |rng, _, _| {
            Some(workloads::mv_register(rng))
        });
        assert!(report.ok(), "{report}");
    }

    #[test]
    fn lww_element_set_satisfies_props() {
        let report = check_state_based(LwwElementSet::<u8>::new(), 3, 40, 0..3, |rng, _, _| {
            Some(workloads::lww_element_set(rng))
        });
        assert!(report.ok(), "{report}");
    }

    /// The one obligation a [`GCounter`] breaks.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Bug {
        None,
        Prop1,
        Prop2,
        Prop5,
        Prop6,
        ArgOrder,
    }

    /// A grow-only counter — one slot per replica, `merge` the slotwise
    /// max, an increment's argument its origin — with one seeded bug.
    #[derive(Clone)]
    struct GCounter(Bug);

    impl StateBased for GCounter {
        type State = Vec<u32>;
        type Call = ();
        type Ret = ();
        type Label = ();

        fn initial(&self, n_replicas: usize) -> Vec<u32> {
            vec![0; n_replicas]
        }

        fn merge_into(&self, a: &mut Vec<u32>, b: &Vec<u32>) -> bool {
            let mut grew = false;
            for (x, y) in a.iter_mut().zip(b) {
                grew |= *y > *x;
                *x = (*x).max(*y);
            }
            grew
        }

        fn leq(&self, a: &Vec<u32>, b: &Vec<u32>) -> bool {
            a.iter().zip(b).all(|(x, y)| x <= y)
        }

        fn label(&self, _: &(), _: &()) {}
    }

    /// Whole states as deltas: all a full-state transport needs.
    impl DeltaCrdt for GCounter {
        type Delta = Vec<u32>;

        fn invoke(&self, state: &Vec<u32>, _: &(), ctx: &mut GenCtx) -> GenOutcome<(), Vec<u32>> {
            let mut next = state.clone();
            self.apply_arg(&mut next, &(ctx.replica().0 as usize));
            if self.0 == Bug::Prop5 {
                next[0] += 1; // the invocation does more than its effector
            }
            GenOutcome::update((), next)
        }

        fn diff(&self, _pre: &Vec<u32>, post: &Vec<u32>) -> Vec<u32> {
            post.clone()
        }

        fn join_into(&self, state: &mut Vec<u32>, delta: &Vec<u32>) -> bool {
            self.merge_into(state, delta)
        }

        fn join_deltas_into(&self, a: &mut Vec<u32>, b: &Vec<u32>) {
            self.merge_into(a, b);
        }

        fn delta_bytes(&self, delta: &Vec<u32>) -> usize {
            4 * delta.len()
        }

        fn state_bytes(&self, state: &Vec<u32>) -> usize {
            4 * state.len()
        }
    }

    impl LocalEffector for GCounter {
        type Arg = usize;

        fn effector_arg(&self, _: &(), origin: ReplicaId, _: Option<Ts>) -> Option<usize> {
            Some(origin.0 as usize)
        }

        fn apply_arg(&self, state: &mut Vec<u32>, arg: &usize) {
            if self.0 == Bug::Prop1 {
                state[*arg] = state.iter().sum(); // reads the other slots
            }
            state[*arg] += 1;
        }

        fn class(&self) -> EffectorClass {
            match self.0 {
                Bug::Prop6 => EffectorClass::Idempotent, // but apply_arg counts
                Bug::ArgOrder => EffectorClass::UniquelyIdentified, // but args repeat
                _ => EffectorClass::Cumulative,
            }
        }

        fn p_pred(&self, state: &Vec<u32>, arg: &usize) -> bool {
            // Without the precondition, merge loses the applied increment.
            self.0 == Bug::Prop2 || state[*arg] == 0
        }
    }

    #[test]
    fn each_mutant_is_refuted_by_exactly_its_obligation() {
        let sampled = |bug| check_state_based(GCounter(bug), 3, 40, 0..3, |_, _, _| Some(()));
        assert!(sampled(Bug::None).ok());
        for (bug, key) in [
            (Bug::Prop1, OB_PROP1),
            (Bug::Prop2, OB_PROP2),
            (Bug::Prop5, OB_PROP5),
            (Bug::Prop6, OB_PROP6),
            (Bug::ArgOrder, OB_ARG_ORDER),
        ] {
            // The first failure: every check before it held.
            let report = sampled(bug);
            let first = report.failures.first();
            let first = first.unwrap_or_else(|| panic!("{bug:?} survived"));
            assert!(
                first.starts_with(key),
                "{bug:?} tripped another law: {first}"
            );
        }
    }
}
