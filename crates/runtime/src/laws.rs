//! The join-semilattice laws and the delta laws, each stated once.
//!
//! Convergence under the unreliable network of Appendix D.2 rests on
//! `merge` being a least upper bound w.r.t. `leq`, and the delta transport
//! on the delta laws of [`DeltaCrdt`]. Every gate that discharges them
//! — [`DeltaCluster::check_lattice_laws`] on live replica states,
//! `ral_verify::state_props` on sampled executions, `ral-analyze` on every
//! configuration within its scope — calls the functions below. The gates
//! differ in the states they quantify over and in the [`Checks`] sink they
//! report into, never in what a law says.
//!
//! [`DeltaCluster::check_lattice_laws`]: crate::delta::DeltaCluster::check_lattice_laws

use crate::delta::DeltaCrdt;
use crate::state_based::StateBased;

/// Obligation key: Prop4 + lattice laws (ACI, upper bound, monotonicity).
pub const OB_PROP4: &str = "prop4-lattice";
/// Obligation key: the delta laws of [`DeltaCrdt`].
pub const OB_DELTA: &str = "delta-laws";

/// Where an obligation reports: one call per individual check.
pub trait Checks {
    /// Records one check of obligation `kind`. `detail` describes a failing
    /// check; sinks that keep no description never call it.
    fn check(&mut self, kind: &'static str, ok: bool, detail: impl FnOnce() -> String);
}

/// "Every check so far held" — the sink of the boolean gates.
impl Checks for bool {
    fn check(&mut self, _kind: &'static str, ok: bool, _detail: impl FnOnce() -> String) {
        *self &= ok;
    }
}

/// `states` without repetitions, first occurrences in order. Equal states
/// are interchangeable in every law, so each is quantified over once.
pub fn distinct<'a, S: PartialEq + 'a>(states: impl IntoIterator<Item = &'a S>) -> Vec<&'a S> {
    let mut uniq: Vec<&S> = Vec::new();
    for s in states {
        if !uniq.contains(&s) {
            uniq.push(s);
        }
    }
    uniq
}

/// The five join-semilattice laws over `states`: `merge` is idempotent,
/// commutative, an upper bound w.r.t. `leq`, associative, and monotone
/// w.r.t. `leq`.
pub fn lattice_laws<C: StateBased>(crdt: &C, states: &[&C::State], sink: &mut impl Checks) {
    for a in states {
        sink.check(OB_PROP4, crdt.merge(a, a) == **a, || {
            format!("merge is not idempotent on {a:?}")
        });
        for b in states {
            let ab = crdt.merge(a, b);
            sink.check(OB_PROP4, ab == crdt.merge(b, a), || {
                format!("merge is not commutative on {a:?} / {b:?}")
            });
            sink.check(OB_PROP4, crdt.leq(a, &ab) && crdt.leq(b, &ab), || {
                format!("merge of {a:?} / {b:?} is not an upper bound w.r.t. leq")
            });
            let a_below_b = crdt.leq(a, b);
            for c in states {
                sink.check(
                    OB_PROP4,
                    crdt.merge(&ab, c) == crdt.merge(a, &crdt.merge(b, c)),
                    || format!("merge is not associative on {a:?} / {b:?} / {c:?}"),
                );
                if a_below_b {
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
}

/// The delta *decomposition* law on one local transition `pre → post`:
/// joining the transition's delta back into `pre` gives `post`. A
/// transition that changed nothing has no delta to check.
pub fn delta_decomposition<C: DeltaCrdt>(
    crdt: &C,
    pre: &C::State,
    post: &C::State,
    sink: &mut impl Checks,
) {
    if pre != post {
        let rejoined = crdt.join(pre, &crdt.diff(pre, post));
        sink.check(OB_DELTA, rejoined == *post, || {
            format!(
                "delta decomposition: join(pre, diff(pre, post)) = {rejoined:?} \
                 but post = {post:?}"
            )
        });
    }
}

/// The delta *batching* law on every triple of `states`: joining two
/// deltas one by one is joining their batch. A state's delta is drawn as
/// `diff(bottom, s)`, the fragment that builds `s` from the initial state
/// `bottom`.
pub fn delta_laws<C: DeltaCrdt>(
    crdt: &C,
    bottom: &C::State,
    states: &[&C::State],
    sink: &mut impl Checks,
) {
    let deltas: Vec<C::Delta> = states.iter().map(|s| crdt.diff(bottom, s)).collect();
    for (a, da) in states.iter().zip(&deltas) {
        for (b, db) in states.iter().zip(&deltas) {
            for t in states {
                let one_by_one = crdt.join(&crdt.join(t, da), db);
                let batched = crdt.join(t, &crdt.join_deltas(da, db));
                sink.check(OB_DELTA, one_by_one == batched, || {
                    format!("delta batching differs on {t:?} with deltas of {a:?} / {b:?}")
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{DeltaCluster, DeltaConfig};
    use crate::gen::{GenCtx, GenOutcome};
    use ral_core::ids::ReplicaId;

    /// The one law a [`Max`] breaks.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Bug {
        None,
        Commutative,
        UpperBound,
        Associative,
        Monotone,
        Decomposition,
        Batching,
    }

    /// A max-register: `merge_into`, `join_into` and `join_deltas_into` are
    /// `max`, `leq` is `≤`, a delta is the new value — with one seeded bug.
    struct Max(Bug);

    impl StateBased for Max {
        type State = u32;
        type Call = u32;
        type Ret = ();
        type Label = u32;

        fn initial(&self, _n: usize) -> u32 {
            0
        }

        fn merge_into(&self, a: &mut u32, b: &u32) -> bool {
            let (x, y) = (*a, *b);
            *a = match self.0 {
                Bug::Commutative => x,
                Bug::UpperBound => x.min(y),
                Bug::Associative if x != y => x.max(y) + 1,
                _ => x.max(y),
            };
            *a != x
        }

        fn leq(&self, a: &u32, b: &u32) -> bool {
            a <= b || (self.0 == Bug::Monotone && (*a, *b) == (2, 0))
        }

        fn label(&self, call: &u32, _ret: &()) -> u32 {
            *call
        }
    }

    impl DeltaCrdt for Max {
        type Delta = u32;

        fn invoke(&self, _state: &u32, call: &u32, _ctx: &mut GenCtx) -> GenOutcome<(), u32> {
            GenOutcome::update((), *call)
        }

        fn diff(&self, pre: &u32, post: &u32) -> u32 {
            *(if self.0 == Bug::Decomposition {
                pre
            } else {
                post
            })
        }

        fn join_into(&self, state: &mut u32, delta: &u32) -> bool {
            let grows = delta > state;
            *state = (*state).max(*delta);
            grows
        }

        fn join_deltas_into(&self, a: &mut u32, b: &u32) {
            if self.0 != Bug::Batching {
                *a = (*a).max(*b);
            }
        }

        fn delta_bytes(&self, _delta: &u32) -> usize {
            4
        }

        fn state_bytes(&self, _state: &u32) -> usize {
            4
        }
    }

    /// Keeps the first failing check: everything checked before it held.
    #[derive(Default)]
    struct First(Option<(&'static str, String)>);

    impl Checks for First {
        fn check(&mut self, kind: &'static str, ok: bool, detail: impl FnOnce() -> String) {
            if !ok && self.0.is_none() {
                self.0 = Some((kind, detail()));
            }
        }
    }

    /// Every law of this module on the edge `0 → 1` and the states 0, 1, 2,
    /// in the order the gates run them.
    fn first_failure(bug: Bug) -> Option<(&'static str, String)> {
        let (crdt, mut first) = (Max(bug), First::default());
        delta_decomposition(&crdt, &0, &1, &mut first);
        lattice_laws(&crdt, &[&0, &1, &2], &mut first);
        delta_laws(&crdt, &0, &[&0, &1, &2], &mut first);
        first.0
    }

    #[test]
    fn each_mutant_is_refuted_by_exactly_its_law() {
        assert_eq!(first_failure(Bug::None), None);
        // Idempotence is `ral-analyze`'s SummingCounter fixture.
        for (bug, key, law) in [
            (Bug::Commutative, OB_PROP4, "not commutative"),
            (Bug::UpperBound, OB_PROP4, "not an upper bound"),
            (Bug::Associative, OB_PROP4, "not associative"),
            (Bug::Monotone, OB_PROP4, "not monotone"),
            (Bug::Decomposition, OB_DELTA, "delta decomposition"),
            (Bug::Batching, OB_DELTA, "delta batching"),
        ] {
            let (kind, detail) = first_failure(bug).unwrap_or_else(|| panic!("{bug:?} survived"));
            assert_eq!(kind, key, "{bug:?}: {detail}");
            assert!(
                detail.contains(law),
                "{bug:?} tripped another law: {detail}"
            );
        }
    }

    #[test]
    fn the_cluster_gate_discharges_every_state_level_law() {
        let diverged = |bug| {
            let mut cluster = DeltaCluster::new(Max(bug), DeltaConfig::default(), 3);
            cluster.invoke(ReplicaId(0), 1).unwrap();
            cluster.invoke(ReplicaId(1), 2).unwrap();
            cluster
        };
        assert!(diverged(Bug::None).check_lattice_laws());
        for bug in [
            Bug::Commutative,
            Bug::UpperBound,
            Bug::Associative,
            Bug::Monotone,
            Bug::Batching,
        ] {
            assert!(!diverged(bug).check_lattice_laws(), "{bug:?} survived");
        }
    }

    #[test]
    fn distinct_keeps_first_occurrences_in_order() {
        assert_eq!(distinct(&[3, 1, 3, 2, 1]), [&3, &1, &2]);
    }
}
