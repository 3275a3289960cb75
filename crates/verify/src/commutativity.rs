//! The **Commutativity** obligation (Section 4.1): effectors of concurrent
//! operations commute.
//!
//! The paper's Boogie proofs encode two effectors as one procedure run on
//! two copies of a symbolic replica state, with preconditions capturing
//! concurrency (e.g. the OR-Set `remove` argument not containing the
//! concurrent `add`'s identifier — Example 4.1). Here the obligation is
//! checked on *reachable* configurations: whenever two pending effectors of
//! concurrent operations are simultaneously deliverable at a replica, both
//! application orders must yield the same state.

use crate::report::{Checks, Report};
use crate::walk::{self, Observer, Step};
use ral_core::ids::ReplicaId;
use ral_core::rng::Rng;
use ral_runtime::op_based::{Cluster, OpBased};
use std::ops::Range;

/// Obligation key: effector commutativity of concurrent operations.
pub const OB_COMMUTE: &str = "effector-commutativity";

/// Checks Commutativity for an operation-based CRDT over seeded random
/// executions.
///
/// At every scheduler step and every replica, each pair of simultaneously
/// deliverable effectors (necessarily of concurrent operations, by causal
/// delivery) is applied to a copy of the replica state in both orders.
pub fn check_op_based<C, F>(
    crdt: C,
    n_replicas: usize,
    steps: usize,
    seeds: Range<u64>,
    call_gen: F,
) -> Report
where
    C: OpBased + Clone,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
{
    let mut pairs = PendingPairs::new();
    walk::op_based(crdt, n_replicas, steps, seeds, call_gen, &mut [&mut pairs]);
    pairs.report
}

/// The Commutativity obligation as an observer of [`walk::op_based`].
pub(crate) struct PendingPairs {
    pub(crate) report: Report,
}

impl PendingPairs {
    pub(crate) fn new() -> Self {
        PendingPairs {
            report: Report::new("Commutativity"),
        }
    }
}

impl<C: OpBased> Observer<C> for PendingPairs {
    fn step(&mut self, cluster: &Cluster<C>, _r: ReplicaId, _step: &Step<'_, C::State>) {
        check_pending_pairs(cluster, &mut self.report);
    }

    fn seed_done(&mut self, seed: u64, converged: bool) {
        self.report.check("convergence", converged, || {
            format!("seed {seed}: replicas did not converge")
        });
    }
}

/// Effector commutativity on one configuration: whenever the effectors of
/// two operations are both deliverable at a replica, applying them in either
/// order yields the same state. Under causal delivery two simultaneously
/// deliverable effectors are necessarily of concurrent operations: if one
/// saw the other, the seen one would have to be applied (hence no longer
/// deliverable) first.
pub fn check_pending_pairs<C: OpBased>(cluster: &Cluster<C>, sink: &mut impl Checks) {
    let (crdt, h) = (cluster.crdt(), cluster.history());
    for r in 0..cluster.n_replicas() {
        let r = ReplicaId(r as u32);
        let ds = cluster.deliverable(r);
        for (i, &d1) in ds.iter().enumerate() {
            for &d2 in &ds[i + 1..] {
                debug_assert!(
                    h.concurrent(cluster.delivery_op(d1), cluster.delivery_op(d2)),
                    "simultaneously deliverable effectors must be concurrent"
                );
                let (Some(e1), Some(e2)) = (cluster.delivery_eff(d1), cluster.delivery_eff(d2))
                else {
                    continue; // identity effectors commute trivially
                };
                let mut ab = cluster.state(r).clone();
                crdt.apply(&mut ab, e1);
                crdt.apply(&mut ab, e2);
                let mut ba = cluster.state(r).clone();
                crdt.apply(&mut ba, e2);
                crdt.apply(&mut ba, e1);
                sink.check(OB_COMMUTE, ab == ba, || {
                    format!(
                        "concurrent effectors {e1:?} and {e2:?} do not commute on \
                         state {:?} at {r}: {ab:?} vs {ba:?}",
                        cluster.state(r)
                    )
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ral_runtime::gen::{GenCtx, GenOutcome};

    /// A broken "set last writer" CRDT whose effectors do NOT commute.
    #[derive(Clone)]
    struct Broken;

    impl OpBased for Broken {
        type State = i64;
        type Call = i64;
        type Ret = ();
        type Eff = i64;
        type Label = i64;
        fn initial(&self) -> i64 {
            0
        }
        fn generator(&self, _st: &i64, call: &i64, _ctx: &mut GenCtx) -> GenOutcome<(), i64> {
            GenOutcome::update((), *call)
        }
        fn apply(&self, st: &mut i64, eff: &i64) {
            *st = *eff; // last writer wins by arrival order: not commutative
        }
        fn label(&self, call: &i64, _ret: &()) -> i64 {
            *call
        }
    }

    /// A max-register whose effectors DO commute.
    #[derive(Clone)]
    struct MaxReg;

    impl OpBased for MaxReg {
        type State = i64;
        type Call = i64;
        type Ret = ();
        type Eff = i64;
        type Label = i64;
        fn initial(&self) -> i64 {
            0
        }
        fn generator(&self, _st: &i64, call: &i64, _ctx: &mut GenCtx) -> GenOutcome<(), i64> {
            GenOutcome::update((), *call)
        }
        fn apply(&self, st: &mut i64, eff: &i64) {
            *st = (*st).max(*eff);
        }
        fn label(&self, call: &i64, _ret: &()) -> i64 {
            *call
        }
    }

    #[test]
    fn detects_non_commutative_effectors() {
        let report = check_op_based(Broken, 3, 30, 0..5, |rng, _, _| {
            Some(rng.random_range(0..100))
        });
        assert!(!report.ok(), "the broken CRDT must be refuted");
    }

    #[test]
    fn accepts_commutative_effectors() {
        let report = check_op_based(MaxReg, 3, 30, 0..5, |rng, _, _| {
            Some(rng.random_range(0..100))
        });
        assert!(report.ok(), "{report}");
        assert!(report.checks > 50, "enough pairs must be exercised");
    }
}
