//! Deliberately broken CRDTs — the analyzer's negative controls.
//!
//! Each fixture violates exactly one obligation in a way the seeded random
//! suites could plausibly miss on an unlucky seed, but a bounded-exhaustive
//! search cannot: the violating configuration is reachable within two
//! operations. The registry runs both and *requires* the refutation — an
//! analyzer that stops refuting them has lost its teeth.

use ral_core::scope::SmallScope;
use ral_runtime::gen::{GenCtx, GenOutcome};
use ral_runtime::op_based::OpBased;
use ral_runtime::state_based::StateBased;

/// Calls of [`BrokenCounter`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BrokenCall {
    /// Increment.
    Inc,
    /// Decrement.
    Dec,
}

/// An operation-based counter whose effector is **not commutative**: the
/// generator computes the post-increment value at the origin and the
/// effector *assigns* it, so concurrent effectors race on arrival order —
/// the classic "compute locally, ship the result" replication bug.
///
/// `ral-analyze` refutes this type with a two-invocation counterexample:
/// at scope 2 the DFS first hits `effector-commutativity` (concurrent
/// `Inc` and `Dec` assign `1` and `-1`); deeper scopes may instead report
/// the downstream `quiescent-convergence` symptom of the same bug.
#[derive(Clone, Copy, Debug, Default)]
pub struct BrokenCounter;

impl OpBased for BrokenCounter {
    type State = i64;
    type Call = BrokenCall;
    type Ret = i64;
    type Eff = i64;
    type Label = BrokenCall;

    fn initial(&self) -> i64 {
        0
    }

    fn generator(&self, state: &i64, call: &BrokenCall, _ctx: &mut GenCtx) -> GenOutcome<i64, i64> {
        let next = match call {
            BrokenCall::Inc => state + 1,
            BrokenCall::Dec => state - 1,
        };
        // BUG: ships the origin-computed absolute value instead of the
        // increment; `apply` then assigns rather than adds.
        GenOutcome::update(next, next)
    }

    fn apply(&self, state: &mut i64, eff: &i64) {
        *state = *eff;
    }

    fn label(&self, call: &BrokenCall, _ret: &i64) -> BrokenCall {
        call.clone()
    }
}

impl SmallScope for BrokenCounter {
    type Call = BrokenCall;

    fn scope_replicas(&self, _k: usize) -> usize {
        3
    }

    fn scope_calls(&self, _op_index: usize, _k: usize) -> Vec<BrokenCall> {
        vec![BrokenCall::Inc, BrokenCall::Dec]
    }
}

/// Calls of [`SummingCounter`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SumCall {
    /// Increment.
    Inc,
}

/// A state-based counter whose `merge` **adds** the two states instead of
/// taking a least upper bound — so `merge` is not idempotent and the states
/// do not form a join semilattice. A duplicated snapshot delivery (which
/// the Appendix D.2 network is free to produce) double-counts.
///
/// `ral-analyze` refutes `prop4-lattice` with a one-invocation
/// counterexample: after a single `Inc`, `merge(1, 1) = 2 ≠ 1`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SummingCounter;

impl StateBased for SummingCounter {
    type State = i64;
    type Call = SumCall;
    type Ret = i64;
    type Label = SumCall;

    fn initial(&self, _n_replicas: usize) -> i64 {
        0
    }

    // BUG: addition is not a least upper bound (not idempotent).
    fn merge_into(&self, a: &mut i64, b: &i64) -> bool {
        *a += b;
        *b != 0
    }

    fn leq(&self, a: &i64, b: &i64) -> bool {
        a <= b
    }

    fn label(&self, call: &SumCall, _ret: &i64) -> SumCall {
        call.clone()
    }
}

impl ral_crdts::state::local::LocalEffector for SummingCounter {
    type Arg = i64;

    fn effector_arg(
        &self,
        label: &SumCall,
        _origin: ral_core::ids::ReplicaId,
        _ts: Option<ral_core::timestamp::Ts>,
    ) -> Option<i64> {
        match label {
            SumCall::Inc => Some(1),
        }
    }

    fn apply_arg(&self, state: &mut i64, arg: &i64) {
        *state += arg;
    }

    fn class(&self) -> ral_crdts::state::local::EffectorClass {
        ral_crdts::state::local::EffectorClass::Cumulative
    }

    fn p_pred(&self, _state: &i64, _arg: &i64) -> bool {
        true
    }
}

impl ral_runtime::delta::DeltaCrdt for SummingCounter {
    type Delta = i64;

    fn invoke(&self, state: &i64, call: &SumCall, _ctx: &mut GenCtx) -> GenOutcome<i64, i64> {
        match call {
            SumCall::Inc => GenOutcome::update(state + 1, 1),
        }
    }

    fn diff(&self, pre: &i64, post: &i64) -> i64 {
        post - pre
    }

    fn join_into(&self, state: &mut i64, delta: &i64) -> bool {
        *state += delta;
        *delta != 0
    }

    fn join_deltas_into(&self, a: &mut i64, b: &i64) {
        *a += b;
    }

    fn delta_bytes(&self, _delta: &i64) -> usize {
        8
    }

    fn state_bytes(&self, _state: &i64) -> usize {
        8
    }
}

impl SmallScope for SummingCounter {
    type Call = SumCall;

    fn scope_replicas(&self, _k: usize) -> usize {
        3
    }

    fn scope_calls(&self, _op_index: usize, _k: usize) -> Vec<SumCall> {
        vec![SumCall::Inc]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ral_core::ids::ReplicaId;
    use ral_runtime::delta::{DeltaCluster, DeltaConfig};
    use ral_runtime::op_based::Cluster;

    #[test]
    fn broken_counter_diverges_under_concurrent_updates() {
        let mut c = Cluster::new(BrokenCounter, 2);
        c.invoke(ReplicaId(0), BrokenCall::Inc).unwrap();
        c.invoke(ReplicaId(1), BrokenCall::Dec).unwrap();
        c.deliver_all();
        assert!(!c.converged(), "the broken effector must lose an update");
    }

    // The cluster drops a snapshot whose labels the receiver has all seen,
    // which is no join at all for this counter; one that brings a new label
    // is merged, and re-adds everything the receiver already holds.
    #[test]
    fn summing_counter_double_counts_duplicates() {
        let mut c = DeltaCluster::new(SummingCounter, DeltaConfig::default(), 2);
        c.invoke(ReplicaId(0), SumCall::Inc).unwrap();
        let a = c.resync(ReplicaId(0));
        c.apply(ReplicaId(1), a);
        c.invoke(ReplicaId(0), SumCall::Inc).unwrap();
        let ab = c.resync(ReplicaId(0));
        c.apply(ReplicaId(1), ab);
        assert_eq!(c.state(ReplicaId(0)), &2);
        assert_eq!(c.state(ReplicaId(1)), &3, "`a` counted twice: 1 + 2");
    }
}
