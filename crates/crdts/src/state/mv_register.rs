//! The state-based Multi-Value Register (Listing 7, Appendix E.1).
//!
//! A write replaces the payload with a single pair `(a, V)` where the
//! version vector `V` dominates everything the origin has seen; `merge`
//! keeps the pairs that are not strictly dominated, so concurrent writes
//! *coexist* and a read may return several values (the Dynamo behaviour).
//! Local effectors are **uniquely identified** by their version vectors
//! (Appendix D.3); the register admits **execution-order** linearizations
//! w.r.t. `Spec(MV-Reg)` (Figure 12).

use crate::state::local::{EffectorClass, LocalEffector};
use ral_core::elem::Elem;
use ral_core::ids::ReplicaId;
use ral_core::ralin::Strategy;
use ral_core::scope::SmallScope;
use ral_runtime::delta::DeltaCrdt;
use ral_runtime::gen::{GenCtx, GenOutcome};
use ral_runtime::state_based::StateBased;
use ral_spec::register::{vv_leq, vv_lt, MvRegOp, VersionVec};
use std::collections::BTreeSet;
use std::marker::PhantomData;
use std::mem::size_of;

/// Method invocations of the MV-Register.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MvCall<E> {
    /// `write(a)`.
    Write(E),
    /// `read()`.
    Read,
}

/// Return values of the MV-Register.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MvRet<E> {
    /// The version vector minted by a write (needed by the label rewriting).
    Written(VersionVec),
    /// The set of concurrently-latest values.
    Values(BTreeSet<E>),
}

/// Replica payload: the number of replicas (fixing vector width) and the
/// set of undominated pairs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MvState<E> {
    /// Vector width (number of replicas).
    pub width: usize,
    /// Value/version-vector pairs, none strictly dominating another.
    pub pairs: BTreeSet<(E, VersionVec)>,
}

impl<E: Elem> MvState<E> {
    /// The read view: all stored values.
    pub fn values(&self) -> BTreeSet<E> {
        self.pairs.iter().map(|(a, _)| a.clone()).collect()
    }

    // `self ⊔= other`: the pairs of either side that no pair of the other
    // strictly dominates. Only the incoming survivors `self` lacks are
    // cloned. Returns whether `self` changed.
    fn absorb(&mut self, other: &Self) -> bool {
        let dominated_by = |v: &VersionVec, by: &Self| by.pairs.iter().any(|(_, w)| vv_lt(v, w));
        // Decided against `self` as it stands, before anything is pruned.
        let incoming: Vec<(E, VersionVec)> = other
            .pairs
            .iter()
            .filter(|pair| !dominated_by(&pair.1, self) && !self.pairs.contains(pair))
            .cloned()
            .collect();
        let (len, width) = (self.pairs.len(), self.width);
        self.pairs.retain(|(_, v)| !dominated_by(v, other));
        let pruned = self.pairs.len() < len;
        let grew = !incoming.is_empty();
        self.pairs.extend(incoming);
        self.width = width.max(other.width);
        pruned || grew || self.width != width
    }
}

/// The state-based MV-Register CRDT.
///
/// # Examples
///
/// ```
/// use ral_core::ids::ReplicaId;
/// use ral_crdts::state::mv_register::{MvCall, MvRegister, MvRet};
/// use ral_runtime::delta::{DeltaCluster, DeltaConfig};
/// use std::collections::BTreeSet;
///
/// let mut cluster = DeltaCluster::new(MvRegister::<char>::new(), DeltaConfig::default(), 2);
/// cluster.invoke(ReplicaId(0), MvCall::Write('a'));
/// cluster.invoke(ReplicaId(1), MvCall::Write('b'));
/// cluster.resync_round();
/// let read = cluster.invoke(ReplicaId(0), MvCall::Read).unwrap();
/// // Concurrent writes coexist.
/// assert_eq!(read.ret, MvRet::Values(BTreeSet::from(['a', 'b'])));
/// ```
pub struct MvRegister<E> {
    _elem: PhantomData<E>,
}

impl<E> MvRegister<E> {
    /// The linearization class of Figure 12.
    pub const STRATEGY: Strategy = Strategy::ExecutionOrder;

    /// Creates the MV-Register descriptor.
    pub fn new() -> Self {
        MvRegister { _elem: PhantomData }
    }
}

impl<E: Elem> MvRegister<E> {
    /// The refinement mapping `abs` onto `Spec(MV-Reg)` states — the pair
    /// set itself.
    pub fn abs(state: &MvState<E>) -> BTreeSet<(E, VersionVec)> {
        state.pairs.clone()
    }
}

impl<E> Clone for MvRegister<E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for MvRegister<E> {}

impl<E> Default for MvRegister<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for MvRegister<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MvRegister")
    }
}

impl<E: Elem> StateBased for MvRegister<E> {
    type State = MvState<E>;
    type Call = MvCall<E>;
    type Ret = MvRet<E>;
    type Label = MvRegOp<E>;

    fn initial(&self, n_replicas: usize) -> MvState<E> {
        MvState {
            width: n_replicas,
            pairs: BTreeSet::new(),
        }
    }

    fn merge_into(&self, a: &mut MvState<E>, b: &MvState<E>) -> bool {
        a.absorb(b)
    }

    fn leq(&self, a: &MvState<E>, b: &MvState<E>) -> bool {
        a.pairs
            .iter()
            .all(|(_, v)| b.pairs.iter().any(|(_, w)| vv_leq(v, w)))
    }

    fn label(&self, call: &MvCall<E>, ret: &MvRet<E>) -> MvRegOp<E> {
        match (call, ret) {
            (MvCall::Write(a), MvRet::Written(v)) => MvRegOp::Write(a.clone(), v.clone()),
            (MvCall::Read, MvRet::Values(values)) => MvRegOp::Read(values.clone()),
            _ => unreachable!("mismatched call/return pair"),
        }
    }
}

/// Deltas are state fragments: a write's delta is the singleton pair set
/// `{(a, V)}`. Its fresh vector `V` strictly dominates everything the
/// origin had seen, so `join` (which is `merge`'s dominance pruning)
/// removes the overwritten pairs at every receiver — the delta carries the
/// overwrite without carrying the overwritten pairs.
impl<E: Elem> DeltaCrdt for MvRegister<E> {
    type Delta = MvState<E>;

    fn invoke(
        &self,
        state: &MvState<E>,
        call: &MvCall<E>,
        ctx: &mut GenCtx,
    ) -> GenOutcome<MvRet<E>, MvState<E>> {
        match call {
            MvCall::Write(a) => {
                let g = ctx.replica().0 as usize;
                let mut v = vec![0; state.width];
                for (_, vv) in &state.pairs {
                    for (slot, x) in v.iter_mut().zip(vv) {
                        *slot = (*slot).max(*x);
                    }
                }
                v[g] += 1;
                let delta = MvState {
                    width: state.width,
                    pairs: BTreeSet::from([(a.clone(), v.clone())]),
                };
                GenOutcome::update(MvRet::Written(v), delta)
            }
            MvCall::Read => GenOutcome::query(MvRet::Values(state.values())),
        }
    }

    fn diff(&self, pre: &MvState<E>, post: &MvState<E>) -> MvState<E> {
        MvState {
            width: post.width,
            pairs: post.pairs.difference(&pre.pairs).cloned().collect(),
        }
    }

    fn join_into(&self, state: &mut MvState<E>, delta: &MvState<E>) -> bool {
        state.absorb(delta)
    }

    fn join_deltas_into(&self, a: &mut MvState<E>, b: &MvState<E>) {
        a.absorb(b);
    }

    fn delta_bytes(&self, delta: &MvState<E>) -> usize {
        self.state_bytes(delta)
    }

    fn state_bytes(&self, state: &MvState<E>) -> usize {
        // Length header plus (element + dense version vector) per pair.
        8 + (size_of::<E>() + 8 * state.width) * state.pairs.len()
    }
}

impl<E: Elem> LocalEffector for MvRegister<E> {
    type Arg = (E, VersionVec);

    fn effector_arg(
        &self,
        label: &MvRegOp<E>,
        _origin: ReplicaId,
        _ts: Option<ral_core::timestamp::Ts>,
    ) -> Option<(E, VersionVec)> {
        match label {
            MvRegOp::Write(a, v) => Some((a.clone(), v.clone())),
            MvRegOp::Read(_) => None,
        }
    }

    fn apply_arg(&self, state: &mut MvState<E>, arg: &(E, VersionVec)) {
        state.pairs.retain(|(_, w)| !vv_lt(w, &arg.1));
        state.pairs.insert(arg.clone());
    }

    fn class(&self) -> EffectorClass {
        EffectorClass::UniquelyIdentified
    }

    fn arg_lt(&self, a: &(E, VersionVec), b: &(E, VersionVec)) -> bool {
        vv_lt(&a.1, &b.1)
    }

    fn concurrent_incomparable(&self) -> bool {
        true
    }

    fn p_pred(&self, state: &MvState<E>, arg: &(E, VersionVec)) -> bool {
        // P1: the argument's vector is not below any vector in the state.
        !state.pairs.iter().any(|(_, w)| vv_lt(&arg.1, w))
    }
}

impl<E: Elem + From<u8>> SmallScope for MvRegister<E> {
    type Call = MvCall<E>;

    fn scope_replicas(&self, _k: usize) -> usize {
        3
    }

    // One distinct value per op index plus one shared value, so concurrent
    // writes of *equal* values (distinguished only by version vectors) are
    // reachable.
    fn scope_calls(&self, op_index: usize, _k: usize) -> Vec<MvCall<E>> {
        vec![
            MvCall::Write(E::from(10 + op_index as u8)),
            MvCall::Write(E::from(7)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ral_core::label::Identity;
    use ral_core::ralin::ra_check;
    use ral_runtime::delta::{DeltaCluster, DeltaConfig};
    use ral_runtime::schedule::{drive_state_based, ScheduleConfig};
    use ral_spec::register::MvRegSpec;

    fn r(i: u32) -> ReplicaId {
        ReplicaId(i)
    }

    #[test]
    fn dominating_write_overwrites() {
        let mut c = DeltaCluster::new(MvRegister::<char>::new(), DeltaConfig::default(), 2);
        c.invoke(r(0), MvCall::Write('a'));
        c.resync_round();
        c.invoke(r(1), MvCall::Write('b'));
        c.resync_round();
        let read = c.invoke(r(0), MvCall::Read).unwrap();
        assert_eq!(read.ret, MvRet::Values(BTreeSet::from(['b'])));
    }

    #[test]
    fn concurrent_writes_coexist_until_overwritten() {
        let mut c = DeltaCluster::new(MvRegister::<char>::new(), DeltaConfig::default(), 2);
        c.invoke(r(0), MvCall::Write('a'));
        c.invoke(r(1), MvCall::Write('b'));
        c.resync_round();
        assert!(c.converged());
        let read = c.invoke(r(0), MvCall::Read).unwrap();
        assert_eq!(read.ret, MvRet::Values(BTreeSet::from(['a', 'b'])));
        // A new write dominates both.
        c.invoke(r(0), MvCall::Write('c'));
        c.resync_round();
        let read = c.invoke(r(1), MvCall::Read).unwrap();
        assert_eq!(read.ret, MvRet::Values(BTreeSet::from(['c'])));
    }

    #[test]
    fn stale_message_does_not_resurrect() {
        let mut c = DeltaCluster::new(MvRegister::<char>::new(), DeltaConfig::default(), 2);
        c.invoke(r(0), MvCall::Write('a'));
        let stale = c.resync(r(0));
        c.resync_round();
        c.invoke(r(1), MvCall::Write('b'));
        c.resync_round();
        // Replay the stale snapshot: 'a' is dominated and stays gone.
        c.apply(r(0), stale);
        let read = c.invoke(r(0), MvCall::Read).unwrap();
        assert_eq!(read.ret, MvRet::Values(BTreeSet::from(['b'])));
    }

    #[test]
    fn random_histories_are_ra_linearizable_eo() {
        for seed in 0..20 {
            let mut c = DeltaCluster::new(MvRegister::<u8>::new(), DeltaConfig::default(), 3);
            drive_state_based(&mut c, &ScheduleConfig::default(), seed, |rng, _, _| {
                Some(if rng.random_bool(0.55) {
                    MvCall::Write(rng.random_range(0..5))
                } else {
                    MvCall::Read
                })
            });
            assert!(c.converged());
            assert!(c.check_lattice_laws());
            let h = c.into_history();
            ra_check(&h, &Identity, &MvRegSpec::new(), MvRegister::<u8>::STRATEGY)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn delta_laws_hold() {
        let c = MvRegister::<char>::new();
        let pre = MvState {
            width: 2,
            pairs: BTreeSet::from([('a', vec![1, 0]), ('b', vec![0, 1])]),
        };
        let mut ctx = GenCtx::new(r(0), 0, 0);
        let GenOutcome::Done {
            eff: Some(delta), ..
        } = c.invoke(&pre, &MvCall::Write('c'), &mut ctx)
        else {
            panic!("write is a mutation")
        };
        // The write's delta is the singleton dominating pair…
        assert_eq!(delta.pairs, BTreeSet::from([('c', vec![2, 1])]));
        // …and joining it anywhere prunes what it overwrote.
        let next = c.join(&pre, &delta);
        assert_eq!(next.pairs, BTreeSet::from([('c', vec![2, 1])]));
        assert_eq!(c.diff(&pre, &next), delta);
        let other = MvState {
            width: 2,
            pairs: BTreeSet::from([('d', vec![0, 3])]),
        };
        let joined = c.join(&other, &delta);
        assert_eq!(joined.values(), BTreeSet::from(['c', 'd']));
        // Idempotence.
        assert_eq!(c.join(&joined, &delta), joined);
        assert!(c.delta_bytes(&delta) < c.state_bytes(&pre));
    }

    #[test]
    fn local_effector_matches_write() {
        let crdt = MvRegister::<char>::new();
        let mut s = crdt.initial(2);
        crdt.apply_arg(&mut s, &('a', vec![1, 0]));
        crdt.apply_arg(&mut s, &('b', vec![0, 1]));
        assert_eq!(s.values(), BTreeSet::from(['a', 'b']));
        crdt.apply_arg(&mut s, &('c', vec![2, 2]));
        assert_eq!(s.values(), BTreeSet::from(['c']));
        assert!(crdt.p_pred(&s, &('d', vec![3, 2])));
        assert!(!crdt.p_pred(&s, &('d', vec![1, 1])));
    }
}
