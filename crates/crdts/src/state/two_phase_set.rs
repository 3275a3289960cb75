//! The state-based Two-Phase Set (Listing 10, Appendix E.4).
//!
//! Payload `(A, R)`: added set and removed ("tombstone") set; an element is
//! present iff `a ∈ A \ R`. A value may be added and removed at most once
//! (the paper assumes clients guarantee this; the generator enforces it as
//! a precondition). Local effectors are **idempotent** (Appendix D.5); the
//! type admits **execution-order** linearizations w.r.t. `Spec(Set)`
//! (Figure 12). `A` and `R` are [`SortedSet`]s: `merge` is their union, a
//! walk of two sorted runs that clones only what the incoming side adds,
//! and the view `A \ R` is one more such walk.

use crate::state::local::{EffectorClass, LocalEffector};
use crate::state::SortedSet;
use ral_core::elem::Elem;
use ral_core::ids::ReplicaId;
use ral_core::ralin::Strategy;
use ral_core::scope::SmallScope;
use ral_runtime::delta::DeltaCrdt;
use ral_runtime::gen::{GenCtx, GenOutcome};
use ral_runtime::state_based::StateBased;
use ral_spec::set::SetOp;
use std::collections::BTreeSet;
use std::marker::PhantomData;
use std::mem::size_of;

/// Method invocations of the 2P-Set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TwoPCall<E> {
    /// `add(a)`.
    Add(E),
    /// `remove(a)`.
    Remove(E),
    /// `read()`.
    Read,
}

/// Replica payload: added and removed sets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TwoPState<E> {
    /// Elements ever added.
    pub added: SortedSet<E>,
    /// Elements removed (tombstones).
    pub removed: SortedSet<E>,
}

impl<E: Elem> TwoPState<E> {
    /// The visible set `A \ R`.
    pub fn view(&self) -> BTreeSet<E> {
        self.added.difference(&self.removed).cloned().collect()
    }

    // `self ⊔= other`: plain union of both sets. Returns whether `self`
    // grew.
    fn absorb(&mut self, other: &Self) -> bool {
        let added = self.added.union_with(&other.added);
        let removed = self.removed.union_with(&other.removed);
        added || removed
    }
}

/// Local-effector argument.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TwoPArg<E> {
    /// Insert into `A`.
    Add(E),
    /// Insert into `R`.
    Remove(E),
}

/// The state-based 2P-Set CRDT.
///
/// # Examples
///
/// ```
/// use ral_core::ids::ReplicaId;
/// use ral_crdts::state::two_phase_set::{TwoPCall, TwoPhaseSet};
/// use ral_runtime::state_based::StateCluster;
/// use std::collections::BTreeSet;
///
/// let mut cluster = StateCluster::new(TwoPhaseSet::<char>::new(), 2);
/// cluster.invoke(ReplicaId(0), TwoPCall::Add('a'));
/// cluster.sync_all();
/// cluster.invoke(ReplicaId(1), TwoPCall::Remove('a'));
/// cluster.sync_all();
/// let read = cluster.invoke(ReplicaId(0), TwoPCall::Read).unwrap();
/// assert_eq!(read.ret, Some(BTreeSet::new()));
/// ```
pub struct TwoPhaseSet<E> {
    _elem: PhantomData<E>,
}

impl<E> TwoPhaseSet<E> {
    /// The linearization class of Figure 12.
    pub const STRATEGY: Strategy = Strategy::ExecutionOrder;

    /// Creates the 2P-Set descriptor.
    pub fn new() -> Self {
        TwoPhaseSet { _elem: PhantomData }
    }
}

impl<E: Elem> TwoPhaseSet<E> {
    /// The refinement mapping `abs` onto `Spec(Set)` states.
    pub fn abs(state: &TwoPState<E>) -> BTreeSet<E> {
        state.view()
    }
}

impl<E> Clone for TwoPhaseSet<E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for TwoPhaseSet<E> {}

impl<E> Default for TwoPhaseSet<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for TwoPhaseSet<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TwoPhaseSet")
    }
}

impl<E: Elem> StateBased for TwoPhaseSet<E> {
    type State = TwoPState<E>;
    type Call = TwoPCall<E>;
    type Ret = Option<BTreeSet<E>>;
    type Label = SetOp<E>;

    fn initial(&self, _n_replicas: usize) -> TwoPState<E> {
        TwoPState {
            added: SortedSet::new(),
            removed: SortedSet::new(),
        }
    }

    fn merge_into(&self, a: &mut TwoPState<E>, b: &TwoPState<E>) -> bool {
        a.absorb(b)
    }

    fn leq(&self, a: &TwoPState<E>, b: &TwoPState<E>) -> bool {
        a.added.is_subset(&b.added) && a.removed.is_subset(&b.removed)
    }

    fn label(&self, call: &TwoPCall<E>, ret: &Option<BTreeSet<E>>) -> SetOp<E> {
        match call {
            TwoPCall::Add(a) => SetOp::Add(a.clone()),
            TwoPCall::Remove(a) => SetOp::Remove(a.clone()),
            TwoPCall::Read => SetOp::Read(ret.clone().expect("read returns the view")),
        }
    }
}

/// Deltas are state fragments (`merge` is plain union, so any sub-state is
/// a join decomposition): a mutation's delta holds just the added element
/// or the new tombstone.
impl<E: Elem> DeltaCrdt for TwoPhaseSet<E> {
    type Delta = TwoPState<E>;

    fn invoke(
        &self,
        state: &TwoPState<E>,
        call: &TwoPCall<E>,
        _ctx: &mut GenCtx,
    ) -> GenOutcome<Option<BTreeSet<E>>, TwoPState<E>> {
        let mut delta = self.initial(0);
        match call {
            TwoPCall::Add(a) => {
                // Client obligation: a value is added at most once, and never
                // after its removal.
                if state.added.contains(a) || state.removed.contains(a) {
                    return GenOutcome::Refused;
                }
                delta.added.insert(a.clone());
            }
            TwoPCall::Remove(a) => {
                // Precondition of Listing 10: a ∈ A ∧ a ∉ R.
                if !state.added.contains(a) || state.removed.contains(a) {
                    return GenOutcome::Refused;
                }
                delta.removed.insert(a.clone());
            }
            TwoPCall::Read => return GenOutcome::query(Some(state.view())),
        }
        GenOutcome::update(None, delta)
    }

    fn diff(&self, pre: &TwoPState<E>, post: &TwoPState<E>) -> TwoPState<E> {
        TwoPState {
            added: post.added.difference(&pre.added).cloned().collect(),
            removed: post.removed.difference(&pre.removed).cloned().collect(),
        }
    }

    fn join_into(&self, state: &mut TwoPState<E>, delta: &TwoPState<E>) -> bool {
        state.absorb(delta)
    }

    fn join_deltas_into(&self, a: &mut TwoPState<E>, b: &TwoPState<E>) {
        a.absorb(b);
    }

    fn delta_bytes(&self, delta: &TwoPState<E>) -> usize {
        self.state_bytes(delta)
    }

    fn state_bytes(&self, state: &TwoPState<E>) -> usize {
        // Two length headers plus the raw elements of both sets.
        16 + size_of::<E>() * (state.added.len() + state.removed.len())
    }
}

impl<E: Elem> LocalEffector for TwoPhaseSet<E> {
    type Arg = TwoPArg<E>;

    fn effector_arg(
        &self,
        label: &SetOp<E>,
        _origin: ReplicaId,
        _ts: Option<ral_core::timestamp::Ts>,
    ) -> Option<TwoPArg<E>> {
        match label {
            SetOp::Add(a) => Some(TwoPArg::Add(a.clone())),
            SetOp::Remove(a) => Some(TwoPArg::Remove(a.clone())),
            SetOp::Read(_) => None,
        }
    }

    fn apply_arg(&self, state: &mut TwoPState<E>, arg: &TwoPArg<E>) {
        match arg {
            TwoPArg::Add(a) => {
                state.added.insert(a.clone());
            }
            TwoPArg::Remove(a) => {
                state.removed.insert(a.clone());
            }
        }
    }

    fn class(&self) -> EffectorClass {
        EffectorClass::Idempotent
    }

    fn p_pred(&self, state: &TwoPState<E>, arg: &TwoPArg<E>) -> bool {
        match arg {
            TwoPArg::Add(a) => !state.added.contains(a),
            TwoPArg::Remove(a) => !state.removed.contains(a),
        }
    }
}

impl<E: Elem + From<u8>> SmallScope for TwoPhaseSet<E> {
    type Call = TwoPCall<E>;

    fn scope_replicas(&self, _k: usize) -> usize {
        3
    }

    // Client obligation (Listing 10): a value is added at most once, so op
    // `i` adds the fresh value `i + 1`; removals target earlier values and
    // are refused wherever the add is not yet visible.
    fn scope_calls(&self, op_index: usize, _k: usize) -> Vec<TwoPCall<E>> {
        let mut calls = vec![TwoPCall::Add(E::from(op_index as u8 + 1))];
        for j in 1..=op_index {
            calls.push(TwoPCall::Remove(E::from(j as u8)));
        }
        calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ral_core::label::Identity;
    use ral_core::ralin::ra_check;
    use ral_runtime::schedule::{drive_state_based, ScheduleConfig};
    use ral_runtime::state_based::StateCluster;
    use ral_spec::set::SetSpec;

    fn r(i: u32) -> ReplicaId {
        ReplicaId(i)
    }

    #[test]
    fn remove_wins_regardless_of_order() {
        // add at r0, remove at r0; r1 receives the states in any order.
        let mut c = StateCluster::new(TwoPhaseSet::<char>::new(), 2);
        c.invoke(r(0), TwoPCall::Add('a'));
        let m_add = c.send(r(0));
        c.invoke(r(0), TwoPCall::Remove('a'));
        let m_rem = c.send(r(0));
        c.apply(r(1), m_rem);
        c.apply(r(1), m_add);
        let read = c.invoke(r(1), TwoPCall::Read).unwrap();
        assert_eq!(read.ret, Some(BTreeSet::new()));
    }

    #[test]
    fn re_add_is_refused() {
        let mut c = StateCluster::new(TwoPhaseSet::<char>::new(), 1);
        c.invoke(r(0), TwoPCall::Add('a')).unwrap();
        assert!(c.invoke(r(0), TwoPCall::Add('a')).is_none());
        c.invoke(r(0), TwoPCall::Remove('a')).unwrap();
        assert!(c.invoke(r(0), TwoPCall::Add('a')).is_none());
        assert!(c.invoke(r(0), TwoPCall::Remove('a')).is_none());
    }

    #[test]
    fn random_histories_are_ra_linearizable_eo() {
        // The paper assumes clients never add the same value twice anywhere
        // in the execution (Listing 10); the workload mints fresh values.
        for seed in 0..20 {
            let mut c = StateCluster::new(TwoPhaseSet::<u16>::new(), 3);
            let mut next: u16 = 0;
            drive_state_based(
                &mut c,
                &ScheduleConfig::default(),
                seed,
                |rng, _, state| match rng.random_range(0..4u8) {
                    0 | 1 => {
                        next += 1;
                        Some(TwoPCall::Add(next))
                    }
                    2 => {
                        let view: Vec<u16> = state.view().into_iter().collect();
                        if view.is_empty() {
                            None
                        } else {
                            Some(TwoPCall::Remove(view[rng.random_range(0..view.len())]))
                        }
                    }
                    _ => Some(TwoPCall::Read),
                },
            );
            assert!(c.converged());
            assert!(c.check_lattice_laws());
            let h = c.into_history();
            ra_check(&h, &Identity, &SetSpec::new(), TwoPhaseSet::<u16>::STRATEGY)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn delta_laws_hold() {
        let c = TwoPhaseSet::<char>::new();
        let pre = TwoPState {
            added: SortedSet::from_iter(['a', 'b']),
            removed: SortedSet::from_iter(['b']),
        };
        let mut ctx = GenCtx::new(r(0), 0, 0);
        let GenOutcome::Done {
            eff: Some(delta), ..
        } = c.invoke(&pre, &TwoPCall::Add('c'), &mut ctx)
        else {
            panic!("a fresh add is a mutation")
        };
        assert_eq!(delta.added, SortedSet::from_iter(['c']));
        assert!(delta.removed.is_empty());
        // Decomposition and batching.
        let next = c.join(&pre, &delta);
        assert_eq!(c.diff(&pre, &next), delta);
        let d2 = c.diff(&next, &{
            let mut s = next.clone();
            s.removed.insert('a');
            s
        });
        let other = TwoPState {
            added: SortedSet::from_iter(['z']),
            removed: SortedSet::new(),
        };
        assert_eq!(
            c.join(&c.join(&other, &delta), &d2),
            c.join(&other, &c.join_deltas(&delta, &d2))
        );
        assert!(c.delta_bytes(&delta) < c.state_bytes(&pre));
    }

    #[test]
    fn the_mutator_delta_is_the_diff_of_its_transition() {
        use ral_core::rng::Rng;
        let c = TwoPhaseSet::<u8>::new();
        let mut rng = Rng::seed_from_u64(0x2b5e7);
        let mut state = c.initial(3);
        let (mut done, mut refused) = (0, 0);
        for _ in 0..300 {
            // A small domain, so re-adds and removals of absent or already
            // removed values (the refusals) are as common as mutations.
            let call = match rng.random_range(0..4u8) {
                0 | 1 => TwoPCall::Add(rng.random_range(0..24)),
                2 => TwoPCall::Remove(rng.random_range(0..24)),
                _ => TwoPCall::Read,
            };
            let mut ctx = GenCtx::new(r(0), 0, 0);
            match c.invoke(&state, &call, &mut ctx) {
                GenOutcome::Refused => refused += 1,
                // An update's one element is what diffing the two states
                // finds, and it changes the state.
                GenOutcome::Done {
                    eff: Some(delta), ..
                } => {
                    done += 1;
                    let next = c.join(&state, &delta);
                    assert_ne!(next, state, "{call:?} at {state:?}");
                    assert_eq!(c.diff(&state, &next), delta, "{call:?} at {state:?}");
                    state = next;
                }
                GenOutcome::Done { ret, eff: None } => {
                    done += 1;
                    assert_eq!(ret, Some(state.view()));
                }
            }
        }
        assert!(done > 50 && refused > 50, "{done} done, {refused} refused");
    }

    #[test]
    fn local_effectors_are_idempotent() {
        let c = TwoPhaseSet::<char>::new();
        let mut s = c.initial(1);
        c.apply_arg(&mut s, &TwoPArg::Add('a'));
        let once = s.clone();
        c.apply_arg(&mut s, &TwoPArg::Add('a'));
        assert_eq!(s, once);
    }
}
