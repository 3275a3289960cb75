//! RGA with an index-based `addAt(a, k)` interface (Appendix C).
//!
//! Both variants run on the RGA timestamp tree: the generator translates the
//! index `k` into an `addAfter` anchor against its *local* visible list.
//!
//! * [`RgaAddAtSilent`] (Appendix C.1) returns nothing from mutators; its
//!   histories are checked against `Spec(addAt1)`/`Spec(addAt2)`, which
//!   Lemma C.1 refutes (reproduced from Figure 14 in
//!   `tests/fig14_addat.rs`).
//! * [`RgaAddAt`] (Appendix C.4) returns the updated local list from every
//!   mutator; Lemma C.2 shows it RA-linearizable w.r.t. the "local view"
//!   specification `Spec(addAt3)` under timestamp order.

use crate::op::rga::{Rga, RgaCall, RgaEff, RgaState};
use ral_core::elem::Elem;
use ral_core::ralin::Strategy;
use ral_core::scope::SmallScope;
use ral_runtime::gen::{GenCtx, GenOutcome};
use ral_runtime::op_based::OpBased;
use ral_spec::addat::{AddAtOp, AddAtRetOp};
use ral_spec::rga::Anchor;
use std::marker::PhantomData;

/// Method invocations of the `addAt` interface.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AddAtCall<E> {
    /// `addAt(a, k)` — insert `a` at index `k` of the local visible list
    /// (clamped to the tail).
    AddAt(E, usize),
    /// `remove(a)`.
    Remove(E),
    /// `read()`.
    Read,
}

/// Translates an index into the `addAfter` anchor the generator uses
/// (Appendix C.1/C.4): `◦` for an empty view or `k = 0`, the `k-1`-st
/// visible element if the view is long enough, the last element otherwise.
fn anchor_for_index<E: Elem>(visible: &[E], k: usize) -> Anchor<E> {
    if visible.is_empty() || k == 0 {
        Anchor::Head
    } else if k <= visible.len() {
        Anchor::Elem(visible[k - 1].clone())
    } else {
        Anchor::Elem(visible[visible.len() - 1].clone())
    }
}

fn add_at_generator<E: Elem>(
    state: &RgaState<E>,
    a: &E,
    k: usize,
    ctx: &mut GenCtx,
) -> Option<(RgaEff<E>, Vec<E>)> {
    if state.contains(a) {
        return None; // value must be fresh
    }
    let visible = state.visible();
    let parent = anchor_for_index(&visible, k);
    let eff = RgaEff::Insert {
        parent,
        ts: ctx.fresh_ts(),
        elem: a.clone(),
    };
    // The mutator's return value is the view *after* applying the effector
    // locally; simulate it on a copy.
    let mut next = state.clone();
    Rga::new().apply(&mut next, &eff);
    Some((eff, next.visible()))
}

fn remove_generator<E: Elem>(state: &RgaState<E>, a: &E) -> Option<(RgaEff<E>, Vec<E>)> {
    if !state.contains(a) || state.is_tombstoned(a) {
        return None;
    }
    let eff = RgaEff::Tomb(a.clone());
    let view: Vec<E> = state.visible().into_iter().filter(|x| x != a).collect();
    Some((eff, view))
}

/// The returning `addAt` variant (Appendix C.4): mutators return the updated
/// local list.
pub struct RgaAddAt<E> {
    _elem: PhantomData<E>,
}

impl<E> RgaAddAt<E> {
    /// The linearization class established by Lemma C.2.
    pub const STRATEGY: Strategy = Strategy::TimestampOrder;

    /// Creates the descriptor.
    pub fn new() -> Self {
        RgaAddAt { _elem: PhantomData }
    }
}

impl<E> Clone for RgaAddAt<E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for RgaAddAt<E> {}

impl<E> Default for RgaAddAt<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for RgaAddAt<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RgaAddAt")
    }
}

impl<E: Elem> OpBased for RgaAddAt<E> {
    type State = RgaState<E>;
    type Call = AddAtCall<E>;
    type Ret = Vec<E>;
    type Eff = RgaEff<E>;
    type Label = AddAtRetOp<E>;

    fn initial(&self) -> RgaState<E> {
        Rga::new().initial()
    }

    fn generator(
        &self,
        state: &RgaState<E>,
        call: &AddAtCall<E>,
        ctx: &mut GenCtx,
    ) -> GenOutcome<Vec<E>, RgaEff<E>> {
        match call {
            AddAtCall::AddAt(a, k) => match add_at_generator(state, a, *k, ctx) {
                Some((eff, view)) => GenOutcome::update(view, eff),
                None => GenOutcome::Refused,
            },
            AddAtCall::Remove(a) => match remove_generator(state, a) {
                Some((eff, view)) => GenOutcome::update(view, eff),
                None => GenOutcome::Refused,
            },
            AddAtCall::Read => GenOutcome::query(state.visible()),
        }
    }

    fn apply(&self, state: &mut RgaState<E>, eff: &RgaEff<E>) {
        Rga::new().apply(state, eff);
    }

    fn label(&self, call: &AddAtCall<E>, ret: &Vec<E>) -> AddAtRetOp<E> {
        match call {
            AddAtCall::AddAt(a, k) => AddAtRetOp::AddAt(a.clone(), *k, ret.clone()),
            AddAtCall::Remove(a) => AddAtRetOp::Remove(a.clone(), ret.clone()),
            AddAtCall::Read => AddAtRetOp::Read(ret.clone()),
        }
    }
}

/// The return-free `addAt` variant (Appendix C.1), whose histories are the
/// subject of Lemma C.1 (not RA-linearizable w.r.t. `Spec(addAt1)` or
/// `Spec(addAt2)`).
pub struct RgaAddAtSilent<E> {
    _elem: PhantomData<E>,
}

impl<E> RgaAddAtSilent<E> {
    /// Creates the descriptor.
    pub fn new() -> Self {
        RgaAddAtSilent { _elem: PhantomData }
    }
}

impl<E> Clone for RgaAddAtSilent<E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for RgaAddAtSilent<E> {}

impl<E> Default for RgaAddAtSilent<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for RgaAddAtSilent<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RgaAddAtSilent")
    }
}

impl<E: Elem> OpBased for RgaAddAtSilent<E> {
    type State = RgaState<E>;
    type Call = AddAtCall<E>;
    type Ret = Option<Vec<E>>;
    type Eff = RgaEff<E>;
    type Label = AddAtOp<E>;

    fn initial(&self) -> RgaState<E> {
        Rga::new().initial()
    }

    fn generator(
        &self,
        state: &RgaState<E>,
        call: &AddAtCall<E>,
        ctx: &mut GenCtx,
    ) -> GenOutcome<Option<Vec<E>>, RgaEff<E>> {
        match call {
            AddAtCall::AddAt(a, k) => match add_at_generator(state, a, *k, ctx) {
                Some((eff, _)) => GenOutcome::update(None, eff),
                None => GenOutcome::Refused,
            },
            AddAtCall::Remove(a) => match remove_generator(state, a) {
                Some((eff, _)) => GenOutcome::update(None, eff),
                None => GenOutcome::Refused,
            },
            AddAtCall::Read => GenOutcome::query(Some(state.visible())),
        }
    }

    fn apply(&self, state: &mut RgaState<E>, eff: &RgaEff<E>) {
        Rga::new().apply(state, eff);
    }

    fn label(&self, call: &AddAtCall<E>, ret: &Option<Vec<E>>) -> AddAtOp<E> {
        match call {
            AddAtCall::AddAt(a, k) => AddAtOp::AddAt(a.clone(), *k),
            AddAtCall::Remove(a) => AddAtOp::Remove(a.clone()),
            AddAtCall::Read => AddAtOp::Read(ret.clone().expect("read returns the list")),
        }
    }
}

/// Re-export of the underlying `addAfter` call type, handy when mixing both
/// interfaces in tests.
pub type UnderlyingRgaCall<E> = RgaCall<E>;

impl<E: Elem + From<u8>> SmallScope for RgaAddAt<E> {
    type Call = AddAtCall<E>;

    fn scope_replicas(&self, _k: usize) -> usize {
        3
    }

    // Same freshness discipline as [`Rga`]; indices `0..=op_index` cover
    // every position of the longest possible local view (out-of-range
    // indices clamp to the tail, so larger ones add nothing).
    fn scope_calls(&self, op_index: usize, _k: usize) -> Vec<AddAtCall<E>> {
        let fresh = E::from(op_index as u8 + 1);
        let mut calls: Vec<AddAtCall<E>> = (0..=op_index)
            .map(|at| AddAtCall::AddAt(fresh.clone(), at))
            .collect();
        for j in 1..=op_index {
            calls.push(AddAtCall::Remove(E::from(j as u8)));
        }
        calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::rga::tests::{assert_listing1, tree_shape};
    use ral_core::ids::ReplicaId;
    use ral_core::label::Identity;
    use ral_core::ralin::ra_check;
    use ral_runtime::op_based::Cluster;
    use ral_runtime::schedule::{drive_op_based, ScheduleConfig};
    use ral_spec::addat::AddAt3Spec;

    fn r(i: u32) -> ReplicaId {
        ReplicaId(i)
    }

    #[test]
    fn anchor_selection_matches_appendix_c() {
        let empty: Vec<char> = vec![];
        assert_eq!(anchor_for_index(&empty, 3), Anchor::Head);
        let v = vec!['a', 'b'];
        assert_eq!(anchor_for_index(&v, 0), Anchor::<char>::Head);
        assert_eq!(anchor_for_index(&v, 1), Anchor::Elem('a'));
        assert_eq!(anchor_for_index(&v, 2), Anchor::Elem('b'));
        assert_eq!(anchor_for_index(&v, 9), Anchor::Elem('b'));
    }

    #[test]
    fn add_at_returns_updated_view() {
        let mut c = Cluster::new(RgaAddAt::<char>::new(), 1);
        let a = c.invoke(r(0), AddAtCall::AddAt('a', 0)).unwrap();
        assert_eq!(a.ret, vec!['a']);
        let b = c.invoke(r(0), AddAtCall::AddAt('b', 1)).unwrap();
        assert_eq!(b.ret, vec!['a', 'b']);
        let x = c.invoke(r(0), AddAtCall::AddAt('x', 1)).unwrap();
        assert_eq!(x.ret, vec!['a', 'x', 'b']);
        let rem = c.invoke(r(0), AddAtCall::Remove('a')).unwrap();
        assert_eq!(rem.ret, vec!['x', 'b']);
    }

    #[test]
    fn silent_variant_converges() {
        let mut c = Cluster::new(RgaAddAtSilent::<char>::new(), 2);
        c.invoke(r(0), AddAtCall::AddAt('a', 0)).unwrap();
        c.invoke(r(1), AddAtCall::AddAt('b', 0)).unwrap();
        c.deliver_all();
        assert!(c.converged());
    }

    #[test]
    fn flat_order_is_listing1_under_random_causal_delivery() {
        let mut siblings = 0;
        for seed in 0..24u64 {
            let n = 3 + (seed % 3) as usize;
            let mut c = Cluster::new(RgaAddAt::<u16>::new(), n);
            let mut next: u16 = 0;
            let cfg = ScheduleConfig {
                steps: 160,
                invoke_weight: 1,
                deliver_weight: 1,
                final_sync: true,
            };
            drive_op_based(&mut c, &cfg, seed, |rng, _, state| {
                assert_listing1(state);
                let visible = state.visible();
                if rng.random_range(0..10u8) < 7 || visible.is_empty() {
                    next += 1;
                    let k = rng.random_range(0..=visible.len() + 1);
                    Some(AddAtCall::AddAt(next, k))
                } else {
                    Some(AddAtCall::Remove(
                        visible[rng.random_range(0..visible.len())],
                    ))
                }
            });
            assert!(c.converged(), "seed {seed} did not converge");
            for r in 0..n {
                assert_listing1(c.state(ReplicaId(r as u32)));
            }
            siblings += usize::from(tree_shape(c.state(r(0))).0 >= 3);
        }
        assert!(siblings >= 20, "sibling groups of three: {siblings} runs");
    }

    #[test]
    fn random_histories_are_ra_linearizable_addat3() {
        // Lemma C.2: the returning variant is RA-linearizable w.r.t.
        // Spec(addAt3) under timestamp order.
        for seed in 0..20 {
            let mut c = Cluster::new(RgaAddAt::<u16>::new(), 3);
            let mut next: u16 = 0;
            drive_op_based(&mut c, &ScheduleConfig::default(), seed, |rng, _, state| {
                let roll: u8 = rng.random_range(0..10);
                if roll < 5 {
                    next += 1;
                    Some(AddAtCall::AddAt(next, rng.random_range(0..5)))
                } else if roll < 7 {
                    let visible = state.visible();
                    if visible.is_empty() {
                        None
                    } else {
                        Some(AddAtCall::Remove(
                            visible[rng.random_range(0..visible.len())],
                        ))
                    }
                } else {
                    Some(AddAtCall::Read)
                }
            });
            assert!(c.converged(), "seed {seed} did not converge");
            let h = c.into_history();
            ra_check(&h, &Identity, &AddAt3Spec::new(), RgaAddAt::<u16>::STRATEGY)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }
}
