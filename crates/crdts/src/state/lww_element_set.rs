//! The state-based Last-Writer-Wins Element Set (Listing 8, Appendix E.2).
//!
//! The payload keeps every `(element, timestamp)` pair ever added or
//! removed; an element is visible when some add-stamp beats every
//! remove-stamp for it. `merge` is plain union, so the lattice laws are
//! immediate. Each pair set is a [`SortedSet`] ordered by
//! `(element, timestamp)`: an element's pairs form one run, ascending by
//! timestamp, so its largest stamp is its run's last pair. The view, the
//! clock floor and the join are passes over those runs, never a per-pair
//! lookup. Conflict resolution is by timestamp, so the set admits
//! **timestamp-order** linearizations w.r.t. `Spec(Set)` (Figure 12); local
//! effectors are **uniquely identified** by their timestamps (Appendix D.3).

use crate::state::local::{EffectorClass, LocalEffector};
use crate::state::SortedSet;
use ral_core::elem::Elem;
use ral_core::ids::ReplicaId;
use ral_core::ralin::Strategy;
use ral_core::scope::SmallScope;
use ral_core::timestamp::Ts;
use ral_runtime::delta::DeltaCrdt;
use ral_runtime::gen::{GenCtx, GenOutcome};
use ral_runtime::state_based::StateBased;
use ral_spec::set::SetOp;
use std::collections::BTreeSet;
use std::marker::PhantomData;
use std::mem::size_of;

/// Method invocations of the LWW-Element-Set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LwwSetCall<E> {
    /// `add(a)`.
    Add(E),
    /// `remove(a)`.
    Remove(E),
    /// `read()`.
    Read,
}

/// Replica payload: timestamped add and remove sets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LwwSetState<E> {
    /// `(element, timestamp)` pairs recorded by `add`.
    pub added: SortedSet<(E, Ts)>,
    /// `(element, timestamp)` pairs recorded by `remove`.
    pub removed: SortedSet<(E, Ts)>,
}

impl<E: Elem> LwwSetState<E> {
    /// The visible set: elements with an add-stamp above all their
    /// remove-stamps.
    ///
    /// Both sets are ordered by `(element, timestamp)`, so one pass over
    /// each suffices: an element is visible iff its largest add-stamp
    /// exceeds its largest remove-stamp.
    pub fn view(&self) -> BTreeSet<E> {
        let mut adds = self.added.iter().peekable();
        let mut removes = self.removed.iter().peekable();
        let mut view = BTreeSet::new();
        while let Some((a, ts)) = adds.next() {
            if adds.peek().is_some_and(|(next, _)| next == a) {
                continue; // not `a`'s largest add-stamp
            }
            let mut last_remove = None;
            while let Some((b, rts)) = removes.next_if(|(b, _)| b <= a) {
                if b == a {
                    last_remove = Some(rts); // ascending: ends on the largest
                }
            }
            if last_remove.is_none_or(|rts| rts < ts) {
                view.insert(a.clone());
            }
        }
        view
    }

    // `self ⊔= other`: plain union of both pair sets. Returns whether `self`
    // grew.
    fn absorb(&mut self, other: &Self) -> bool {
        let added = self.added.union_with(&other.added);
        let removed = self.removed.union_with(&other.removed);
        added || removed
    }

    /// The largest timestamp counter stored anywhere in the payload.
    ///
    /// Reads the last pair of each element's run, hopping from run to run,
    /// so it costs `O(d · log n)` for `d` distinct elements among `n` pairs.
    pub fn max_counter(&self) -> u64 {
        self.run_maxima().map(|ts| ts.counter).max().unwrap_or(0)
    }

    /// Each element's largest timestamp in either set: a stored timestamp
    /// is above `ts` iff one of these is.
    fn run_maxima(&self) -> impl Iterator<Item = Ts> + '_ {
        run_maxima(self.added.as_slice()).chain(run_maxima(self.removed.as_slice()))
    }
}

/// The largest timestamp of each element's run in an ascending pair slice.
/// A run is found by galloping from its first pair and then bisecting, so
/// it costs `O(log r)` for a run of `r` pairs.
fn run_maxima<E: Eq>(pairs: &[(E, Ts)]) -> impl Iterator<Item = Ts> + '_ {
    let mut start = 0;
    std::iter::from_fn(move || {
        let (elem, _) = pairs.get(start)?;
        // `pairs[..lo]` from `start` on are in the run; `pairs[hi]` is not.
        let (mut lo, mut step) = (start + 1, 1);
        while lo + step <= pairs.len() && pairs[lo + step - 1].0 == *elem {
            lo += step;
            step *= 2;
        }
        let hi = (lo + step - 1).min(pairs.len());
        let end = lo + pairs[lo..hi].partition_point(|(e, _)| e == elem);
        start = end;
        Some(pairs[end - 1].1)
    })
}

/// Local-effector argument: the tagged pair plus its polarity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LwwSetArg<E> {
    /// Insert into the add set.
    Add(E, Ts),
    /// Insert into the remove set.
    Remove(E, Ts),
}

impl<E> LwwSetArg<E> {
    fn ts(&self) -> Ts {
        match self {
            LwwSetArg::Add(_, ts) | LwwSetArg::Remove(_, ts) => *ts,
        }
    }
}

/// The state-based LWW-Element-Set CRDT.
///
/// # Examples
///
/// ```
/// use ral_core::ids::ReplicaId;
/// use ral_crdts::state::lww_element_set::{LwwElementSet, LwwSetCall};
/// use ral_runtime::delta::{DeltaCluster, DeltaConfig};
/// use std::collections::BTreeSet;
///
/// let mut cluster = DeltaCluster::new(LwwElementSet::<char>::new(), DeltaConfig::default(), 2);
/// cluster.invoke(ReplicaId(0), LwwSetCall::Add('a'));
/// cluster.resync_round();
/// cluster.invoke(ReplicaId(1), LwwSetCall::Remove('a'));
/// cluster.resync_round();
/// let read = cluster.invoke(ReplicaId(0), LwwSetCall::Read).unwrap();
/// assert_eq!(read.ret, Some(BTreeSet::new()));
/// ```
pub struct LwwElementSet<E> {
    _elem: PhantomData<E>,
}

impl<E> LwwElementSet<E> {
    /// The linearization class of Figure 12.
    pub const STRATEGY: Strategy = Strategy::TimestampOrder;

    /// Creates the LWW-Element-Set descriptor.
    pub fn new() -> Self {
        LwwElementSet { _elem: PhantomData }
    }
}

impl<E: Elem> LwwElementSet<E> {
    /// The refinement mapping `abs` onto `Spec(Set)` states: the visible
    /// view.
    pub fn abs(state: &LwwSetState<E>) -> BTreeSet<E> {
        state.view()
    }

    /// All timestamps stored in the state (for `Refinement_ts`).
    pub fn state_timestamps(state: &LwwSetState<E>) -> Vec<Ts> {
        state
            .added
            .iter()
            .chain(state.removed.iter())
            .map(|(_, ts)| *ts)
            .collect()
    }
}

impl<E> Clone for LwwElementSet<E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for LwwElementSet<E> {}

impl<E> Default for LwwElementSet<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for LwwElementSet<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("LwwElementSet")
    }
}

impl<E: Elem> StateBased for LwwElementSet<E> {
    type State = LwwSetState<E>;
    type Call = LwwSetCall<E>;
    type Ret = Option<BTreeSet<E>>;
    type Label = SetOp<E>;

    fn initial(&self, _n_replicas: usize) -> LwwSetState<E> {
        LwwSetState {
            added: SortedSet::new(),
            removed: SortedSet::new(),
        }
    }

    fn merge_into(&self, a: &mut LwwSetState<E>, b: &LwwSetState<E>) -> bool {
        a.absorb(b)
    }

    fn leq(&self, a: &LwwSetState<E>, b: &LwwSetState<E>) -> bool {
        a.added.is_subset(&b.added) && a.removed.is_subset(&b.removed)
    }

    fn label(&self, call: &LwwSetCall<E>, ret: &Option<BTreeSet<E>>) -> SetOp<E> {
        match call {
            LwwSetCall::Add(a) => SetOp::Add(a.clone()),
            LwwSetCall::Remove(a) => SetOp::Remove(a.clone()),
            LwwSetCall::Read => SetOp::Read(ret.clone().expect("read returns the view")),
        }
    }

    fn clock_floor(&self, state: &LwwSetState<E>) -> u64 {
        state.max_counter()
    }
}

/// Deltas are state fragments (`merge` is plain union of the timestamped
/// pair sets): a mutation's delta holds exactly the one freshly stamped
/// pair — the big win, since full snapshots carry every pair ever written.
impl<E: Elem> DeltaCrdt for LwwElementSet<E> {
    type Delta = LwwSetState<E>;

    fn invoke(
        &self,
        state: &LwwSetState<E>,
        call: &LwwSetCall<E>,
        ctx: &mut GenCtx,
    ) -> GenOutcome<Option<BTreeSet<E>>, LwwSetState<E>> {
        let mut delta = self.initial(0);
        match call {
            LwwSetCall::Add(a) => delta.added.insert((a.clone(), ctx.fresh_ts())),
            LwwSetCall::Remove(a) => delta.removed.insert((a.clone(), ctx.fresh_ts())),
            LwwSetCall::Read => return GenOutcome::query(Some(state.view())),
        };
        GenOutcome::update(None, delta)
    }

    fn diff(&self, pre: &LwwSetState<E>, post: &LwwSetState<E>) -> LwwSetState<E> {
        LwwSetState {
            added: post.added.difference(&pre.added).cloned().collect(),
            removed: post.removed.difference(&pre.removed).cloned().collect(),
        }
    }

    fn join_into(&self, state: &mut LwwSetState<E>, delta: &LwwSetState<E>) -> bool {
        state.absorb(delta)
    }

    fn join_deltas_into(&self, a: &mut LwwSetState<E>, b: &LwwSetState<E>) {
        a.absorb(b);
    }

    fn delta_bytes(&self, delta: &LwwSetState<E>) -> usize {
        self.state_bytes(delta)
    }

    fn state_bytes(&self, state: &LwwSetState<E>) -> usize {
        // Two length headers plus (element + 12-byte Lamport timestamp)
        // per pair in either set.
        16 + (size_of::<E>() + 12) * (state.added.len() + state.removed.len())
    }
}

impl<E: Elem> LocalEffector for LwwElementSet<E> {
    type Arg = LwwSetArg<E>;

    fn effector_arg(
        &self,
        label: &SetOp<E>,
        _origin: ReplicaId,
        ts: Option<Ts>,
    ) -> Option<LwwSetArg<E>> {
        match label {
            SetOp::Add(a) => Some(LwwSetArg::Add(
                a.clone(),
                ts.expect("updates carry timestamps"),
            )),
            SetOp::Remove(a) => Some(LwwSetArg::Remove(
                a.clone(),
                ts.expect("updates carry timestamps"),
            )),
            SetOp::Read(_) => None,
        }
    }

    fn apply_arg(&self, state: &mut LwwSetState<E>, arg: &LwwSetArg<E>) {
        match arg {
            LwwSetArg::Add(a, ts) => {
                state.added.insert((a.clone(), *ts));
            }
            LwwSetArg::Remove(a, ts) => {
                state.removed.insert((a.clone(), *ts));
            }
        }
    }

    fn class(&self) -> EffectorClass {
        EffectorClass::UniquelyIdentified
    }

    fn arg_lt(&self, a: &LwwSetArg<E>, b: &LwwSetArg<E>) -> bool {
        a.ts() < b.ts()
    }

    fn p_pred(&self, state: &LwwSetState<E>, arg: &LwwSetArg<E>) -> bool {
        // P1: the argument's timestamp is not below any stored timestamp.
        let ts = arg.ts();
        !state.run_maxima().any(|t| ts < t)
    }
}

impl<E: Elem + From<u8>> SmallScope for LwwElementSet<E> {
    type Call = LwwSetCall<E>;

    fn scope_replicas(&self, _k: usize) -> usize {
        3
    }

    // Two values cover both the same-element add/remove timestamp race and
    // independent elements.
    fn scope_calls(&self, _op_index: usize, _k: usize) -> Vec<LwwSetCall<E>> {
        vec![
            LwwSetCall::Add(E::from(1)),
            LwwSetCall::Add(E::from(2)),
            LwwSetCall::Remove(E::from(1)),
            LwwSetCall::Remove(E::from(2)),
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
    use ral_spec::set::SetSpec;

    fn r(i: u32) -> ReplicaId {
        ReplicaId(i)
    }

    #[test]
    fn later_add_beats_earlier_remove() {
        let mut c = DeltaCluster::new(LwwElementSet::<char>::new(), DeltaConfig::default(), 2);
        c.invoke(r(0), LwwSetCall::Remove('a'));
        c.resync_round();
        c.invoke(r(1), LwwSetCall::Add('a'));
        c.resync_round();
        let read = c.invoke(r(0), LwwSetCall::Read).unwrap();
        assert_eq!(read.ret, Some(BTreeSet::from(['a'])));
    }

    #[test]
    fn later_remove_wins() {
        let mut c = DeltaCluster::new(LwwElementSet::<char>::new(), DeltaConfig::default(), 2);
        c.invoke(r(0), LwwSetCall::Add('a'));
        c.resync_round();
        c.invoke(r(1), LwwSetCall::Remove('a'));
        c.resync_round();
        assert!(c.converged());
        let read = c.invoke(r(0), LwwSetCall::Read).unwrap();
        assert_eq!(read.ret, Some(BTreeSet::new()));
    }

    #[test]
    fn concurrent_add_remove_resolved_by_timestamp_everywhere() {
        let mut c = DeltaCluster::new(LwwElementSet::<char>::new(), DeltaConfig::default(), 2);
        // Both replicas act concurrently; replica order breaks the tie
        // between equal counters, so r1's remove (1@r1) beats r0's add
        // (1@r0).
        c.invoke(r(0), LwwSetCall::Add('a'));
        c.invoke(r(1), LwwSetCall::Remove('a'));
        c.resync_round();
        assert!(c.converged());
        let read = c.invoke(r(0), LwwSetCall::Read).unwrap();
        assert_eq!(read.ret, Some(BTreeSet::new()));
    }

    #[test]
    fn random_histories_are_ra_linearizable_to() {
        for seed in 0..20 {
            let mut c = DeltaCluster::new(LwwElementSet::<u8>::new(), DeltaConfig::default(), 3);
            drive_state_based(&mut c, &ScheduleConfig::default(), seed, |rng, _, _| {
                Some(match rng.random_range(0..4u8) {
                    0 | 1 => LwwSetCall::Add(rng.random_range(0..4)),
                    2 => LwwSetCall::Remove(rng.random_range(0..4)),
                    _ => LwwSetCall::Read,
                })
            });
            assert!(c.converged());
            assert!(c.check_lattice_laws());
            let h = c.into_history();
            ra_check(
                &h,
                &Identity,
                &SetSpec::new(),
                LwwElementSet::<u8>::STRATEGY,
            )
            .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn delta_laws_hold() {
        let c = LwwElementSet::<char>::new();
        let mut pre = LwwSetState::<char>::default();
        pre.added.insert(('a', Ts::new(1, r(0))));
        pre.removed.insert(('b', Ts::new(2, r(1))));
        let mut ctx = GenCtx::new(r(0), 2, 0);
        let GenOutcome::Done {
            eff: Some(delta), ..
        } = c.invoke(&pre, &LwwSetCall::Add('c'), &mut ctx)
        else {
            panic!("add is a mutation")
        };
        // The delta is exactly the one freshly stamped pair.
        assert_eq!(delta.added, SortedSet::from_iter([('c', Ts::new(3, r(0)))]));
        assert!(delta.removed.is_empty());
        let next = c.join(&pre, &delta);
        assert_eq!(c.diff(&pre, &next), delta);
        // Batching.
        let mut post2 = next.clone();
        post2.removed.insert(('a', Ts::new(4, r(0))));
        let d2 = c.diff(&next, &post2);
        let other = c.initial(2);
        assert_eq!(
            c.join(&c.join(&other, &delta), &d2),
            c.join(&other, &c.join_deltas(&delta, &d2))
        );
        // One pair beats the whole history on the wire.
        assert!(c.delta_bytes(&delta) < c.state_bytes(&pre));
    }

    /// Listing 8's definition, word for word: an add-stamp above *all* of
    /// the element's remove-stamps. Quadratic; the oracle for `view`.
    fn view_by_definition(s: &LwwSetState<u8>) -> BTreeSet<u8> {
        s.added
            .iter()
            .filter(|(a, ts)| {
                s.removed
                    .iter()
                    .filter(|(b, _)| b == a)
                    .all(|(_, rts)| rts < ts)
            })
            .map(|(a, _)| *a)
            .collect()
    }

    #[test]
    fn one_pass_view_equals_the_definition_on_random_payloads() {
        use ral_core::rng::run_seeded_cases;
        run_seeded_cases("lww_view_one_pass", 256, |_, rng| {
            let s = random_payload(rng, 24);
            assert_eq!(s.view(), view_by_definition(&s), "payload {s:?}");
        });
    }

    /// A random payload: few elements, few counters, three replicas, so
    /// equal counters on different replicas, stamps shared between the two
    /// sets, and elements present only in `removed` all occur.
    fn random_payload(rng: &mut ral_core::rng::Rng, max_pairs: usize) -> LwwSetState<u8> {
        let mut s = LwwSetState::<u8>::default();
        for _ in 0..rng.random_range(0..max_pairs) {
            let pair = (
                rng.random_range(0..5u8),
                Ts::new(rng.random_range(1..5u64), r(rng.random_range(0..3u32))),
            );
            if rng.random_bool(0.5) {
                s.added.insert(pair);
            } else {
                s.removed.insert(pair);
            }
        }
        s
    }

    #[test]
    fn run_hopping_scans_equal_the_definitions_on_random_payloads() {
        use ral_core::rng::run_seeded_cases;
        let c = LwwElementSet::<u8>::new();
        run_seeded_cases("lww_run_hopping", 256, |_, rng| {
            // Up to 60 pairs over 5 elements: runs long enough to gallop.
            let s = random_payload(rng, 60);
            let stamps = LwwElementSet::state_timestamps(&s);
            let naive_max = stamps.iter().map(|ts| ts.counter).max().unwrap_or(0);
            assert_eq!(s.max_counter(), naive_max, "payload {s:?}");
            for counter in 0..6 {
                for replica in 0..3 {
                    let ts = Ts::new(counter, r(replica));
                    let naive = !stamps.iter().any(|t| ts < *t);
                    for arg in [LwwSetArg::Add(1, ts), LwwSetArg::Remove(4, ts)] {
                        assert_eq!(c.p_pred(&s, &arg), naive, "{arg:?} at {s:?}");
                    }
                }
            }
        });
    }

    #[test]
    fn view_edge_cases_follow_the_definition() {
        let ts = |c, rep| Ts::new(c, r(rep));
        let mut s = LwwSetState::<u8>::default();
        // Only removed: never visible. Equal counters: replica breaks the tie.
        s.removed.insert((1, ts(3, 0)));
        s.added.insert((2, ts(2, 0)));
        s.removed.insert((2, ts(2, 1)));
        s.added.insert((3, ts(2, 1)));
        s.removed.insert((3, ts(2, 0)));
        // The very same stamp on both sides: the remove is not *below* it.
        s.added.insert((4, ts(5, 2)));
        s.removed.insert((4, ts(5, 2)));
        assert_eq!(s.view(), BTreeSet::from([3]));
        assert_eq!(s.view(), view_by_definition(&s));
    }

    #[test]
    fn the_mutator_delta_is_the_diff_of_its_transition() {
        use ral_core::rng::Rng;
        let c = LwwElementSet::<u8>::new();
        let mut rng = Rng::seed_from_u64(0x1ee7);
        let (mut state, mut clock) = (c.initial(3), 0);
        for _ in 0..200 {
            let call = match rng.random_range(0..4u8) {
                0 | 1 => LwwSetCall::Add(rng.random_range(0..6)),
                2 => LwwSetCall::Remove(rng.random_range(0..6)),
                _ => LwwSetCall::Read,
            };
            let mut ctx = GenCtx::new(r(rng.random_range(0..3u32)), clock, 0);
            let GenOutcome::Done { ret, eff } = c.invoke(&state, &call, &mut ctx) else {
                panic!("the LWW set never refuses")
            };
            clock = ctx.clock();
            match eff {
                // An update's one pair is what diffing the two states finds.
                Some(delta) => {
                    let next = c.join(&state, &delta);
                    assert_eq!(c.diff(&state, &next), delta, "{call:?} at {state:?}");
                    assert_eq!(ret, None);
                    state = next;
                }
                None => assert_eq!(ret, Some(state.view())),
            }
        }
    }

    #[test]
    fn view_requires_add_above_all_removes() {
        let mut s = LwwSetState::<char>::default();
        s.added.insert(('a', Ts::new(1, r(0))));
        s.removed.insert(('a', Ts::new(2, r(0))));
        assert_eq!(s.view(), BTreeSet::new());
        s.added.insert(('a', Ts::new(3, r(1))));
        assert_eq!(s.view(), BTreeSet::from(['a']));
        assert_eq!(s.max_counter(), 3);
    }
}
