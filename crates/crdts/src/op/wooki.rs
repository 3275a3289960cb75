//! The Wooki list CRDT (Listing 5, Appendix B.3), an optimized Woot.
//!
//! Every element is a *W-character* `(id, value, degree, flag)`; the replica
//! state is a W-string framed by virtual `◦begin`/`◦end` sentinels.
//! `addBetween(a, b, c)` inserts `b` somewhere strictly between `a` and `c`,
//! the exact slot chosen by the recursive `integrateIns` routine: it narrows
//! the gap through the characters of minimal *degree* and breaks ties by
//! identifier (timestamp) order, which makes concurrent effectors commute.
//! Because the specification `Spec(Wooki)` is nondeterministic about the
//! slot, Wooki admits **execution-order** linearizations (Figure 12).

use ral_core::elem::Elem;
use ral_core::ralin::Strategy;
use ral_core::scope::SmallScope;
use ral_core::timestamp::Ts;
use ral_runtime::gen::{GenCtx, GenOutcome};
use ral_runtime::op_based::OpBased;
use ral_spec::seq::Doc;
use ral_spec::wooki::{WookiAnchor, WookiOp};
use std::marker::PhantomData;

/// A W-character: identifier (timestamp), value, degree, and visibility
/// flag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WChar<E> {
    /// Unique identifier; Wooki uses the generator's timestamp.
    pub id: Ts,
    /// The stored value.
    pub value: E,
    /// Insertion degree: one more than the larger of the anchors' degrees.
    pub degree: u32,
    /// `false` once removed (tombstoned in place).
    pub visible: bool,
}

/// Replica state: the W-string without its sentinels.
///
/// Extended positions run from `0` (the `◦begin` sentinel) through
/// `chars.len() + 1` (the `◦end` sentinel); character `i` sits at extended
/// position `i + 1`.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct WookiState<E> {
    chars: Vec<WChar<E>>,
}

impl<E: Elem> WookiState<E> {
    /// Extended position of an anchor, if it denotes an existing character.
    fn ext_pos(&self, anchor: &WookiAnchor<E>) -> Option<usize> {
        match anchor {
            WookiAnchor::Begin => Some(0),
            WookiAnchor::End => Some(self.chars.len() + 1),
            WookiAnchor::Elem(x) => self.chars.iter().position(|w| &w.value == x).map(|i| i + 1),
        }
    }

    fn degree_at(&self, ext: usize) -> u32 {
        if ext == 0 || ext == self.chars.len() + 1 {
            0
        } else {
            self.chars[ext - 1].degree
        }
    }

    /// Returns `true` if a W-character with this value exists (visible or
    /// not).
    pub fn contains(&self, value: &E) -> bool {
        self.chars.iter().any(|w| &w.value == value)
    }

    /// The visible values, in list order (the `read()` result).
    pub fn visible(&self) -> Vec<E> {
        self.chars
            .iter()
            .filter(|w| w.visible)
            .map(|w| w.value.clone())
            .collect()
    }

    /// All values in list order, including removed ones (the abstract `l`).
    pub fn all_values(&self) -> Vec<E> {
        self.chars.iter().map(|w| w.value.clone()).collect()
    }

    /// The W-characters, for inspection.
    pub fn chars(&self) -> &[WChar<E>] {
        &self.chars
    }

    /// The `integrateIns` routine of Listing 5, iteratively: narrows the
    /// `(wp, wn)` gap (extended positions) until the sub-sequence between
    /// the anchors is empty, then inserts.
    fn integrate_ins(&mut self, mut wp: usize, w: WChar<E>, mut wn: usize) {
        loop {
            debug_assert!(wp < wn, "anchors must be ordered");
            // S' = characters strictly between wp and wn: indices wp..wn-1.
            if wp + 1 == wn {
                self.chars.insert(wn - 1, w);
                return;
            }
            let between = wp..wn - 1;
            let dmin = between
                .clone()
                .map(|i| self.chars[i].degree)
                .min()
                .expect("non-empty gap");
            let f: Vec<usize> = between.filter(|&i| self.chars[i].degree == dmin).collect();
            if w.id < self.chars[f[0]].id {
                wn = f[0] + 1;
                continue;
            }
            let mut i = 0;
            while i < f.len() - 1 && self.chars[f[i]].id < w.id {
                i += 1;
            }
            if i == f.len() - 1 && self.chars[f[i]].id < w.id {
                wp = f[i] + 1;
            } else {
                debug_assert!(i >= 1, "w.id ≥ F[0].id here");
                wp = f[i - 1] + 1;
                wn = f[i] + 1;
            }
        }
    }
}

/// Method invocations of Wooki.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WookiCall<E> {
    /// `addBetween(a, b, c)`.
    AddBetween(WookiAnchor<E>, E, WookiAnchor<E>),
    /// `remove(a)`.
    Remove(E),
    /// `read()`.
    Read,
}

/// Effector payloads of Wooki.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WookiEff<E> {
    /// Run `integrateIns(prev, w, next)` at the receiving replica.
    Insert {
        /// The new W-character.
        w: WChar<E>,
        /// The left anchor observed at the origin.
        prev: WookiAnchor<E>,
        /// The right anchor observed at the origin.
        next: WookiAnchor<E>,
    },
    /// Clear the visibility flag of the character holding this value.
    Hide(E),
}

/// The Wooki CRDT.
///
/// # Examples
///
/// ```
/// use ral_core::ids::ReplicaId;
/// use ral_crdts::op::wooki::{Wooki, WookiCall};
/// use ral_spec::wooki::WookiAnchor;
/// use ral_runtime::op_based::Cluster;
///
/// let mut cluster = Cluster::new(Wooki::<char>::new(), 2);
/// cluster
///     .invoke(ReplicaId(0), WookiCall::AddBetween(WookiAnchor::Begin, 'x', WookiAnchor::End))
///     .unwrap();
/// cluster.deliver_all();
/// assert!(cluster.converged());
/// ```
pub struct Wooki<E> {
    _elem: PhantomData<E>,
}

impl<E> Wooki<E> {
    /// The linearization class of Figure 12.
    pub const STRATEGY: Strategy = Strategy::ExecutionOrder;

    /// Creates the Wooki descriptor.
    pub fn new() -> Self {
        Wooki { _elem: PhantomData }
    }
}

impl<E: Elem> Wooki<E> {
    /// The refinement mapping `abs` onto `Spec(Wooki)` states, in one pass.
    pub fn abs(state: &WookiState<E>) -> Doc<E> {
        state
            .chars
            .iter()
            .map(|w| (w.value.clone(), !w.visible))
            .collect()
    }

    /// All timestamps stored in the state.
    pub fn state_timestamps(state: &WookiState<E>) -> Vec<Ts> {
        state.chars.iter().map(|w| w.id).collect()
    }
}

impl<E> Clone for Wooki<E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for Wooki<E> {}

impl<E> Default for Wooki<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for Wooki<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Wooki")
    }
}

impl<E: Elem> OpBased for Wooki<E> {
    type State = WookiState<E>;
    type Call = WookiCall<E>;
    type Ret = Option<Vec<E>>;
    type Eff = WookiEff<E>;
    type Label = WookiOp<E>;

    fn initial(&self) -> WookiState<E> {
        WookiState { chars: Vec::new() }
    }

    fn generator(
        &self,
        state: &WookiState<E>,
        call: &WookiCall<E>,
        ctx: &mut GenCtx,
    ) -> GenOutcome<Option<Vec<E>>, WookiEff<E>> {
        match call {
            WookiCall::AddBetween(a, b, c) => {
                if matches!(a, WookiAnchor::End) || matches!(c, WookiAnchor::Begin) {
                    return GenOutcome::Refused;
                }
                if state.contains(b) {
                    return GenOutcome::Refused;
                }
                let (Some(pa), Some(pc)) = (state.ext_pos(a), state.ext_pos(c)) else {
                    return GenOutcome::Refused;
                };
                if pa >= pc {
                    return GenOutcome::Refused;
                }
                let degree = state.degree_at(pa).max(state.degree_at(pc)) + 1;
                let w = WChar {
                    id: ctx.fresh_ts(),
                    value: b.clone(),
                    degree,
                    visible: true,
                };
                GenOutcome::update(
                    None,
                    WookiEff::Insert {
                        w,
                        prev: a.clone(),
                        next: c.clone(),
                    },
                )
            }
            WookiCall::Remove(a) => {
                if !state.contains(a) {
                    return GenOutcome::Refused;
                }
                GenOutcome::update(None, WookiEff::Hide(a.clone()))
            }
            WookiCall::Read => GenOutcome::query(Some(state.visible())),
        }
    }

    fn apply(&self, state: &mut WookiState<E>, eff: &WookiEff<E>) {
        match eff {
            WookiEff::Insert { w, prev, next } => {
                let wp = state
                    .ext_pos(prev)
                    .expect("causal delivery guarantees the left anchor");
                let wn = state
                    .ext_pos(next)
                    .expect("causal delivery guarantees the right anchor");
                state.integrate_ins(wp, w.clone(), wn);
            }
            WookiEff::Hide(a) => {
                if let Some(w) = state.chars.iter_mut().find(|w| &w.value == a) {
                    w.visible = false;
                }
            }
        }
    }

    fn label(&self, call: &WookiCall<E>, ret: &Option<Vec<E>>) -> WookiOp<E> {
        match call {
            WookiCall::AddBetween(a, b, c) => WookiOp::AddBetween(a.clone(), b.clone(), c.clone()),
            WookiCall::Remove(a) => WookiOp::Remove(a.clone()),
            WookiCall::Read => WookiOp::Read(ret.clone().expect("read returns the list")),
        }
    }
}

impl<E: Elem + From<u8>> SmallScope for Wooki<E> {
    type Call = WookiCall<E>;

    fn scope_replicas(&self, _k: usize) -> usize {
        3
    }

    // Fresh value per index; anchor pairs range over `Begin`/`End` and the
    // values of earlier indices (one side at a time — `Elem`/`Elem` pairs
    // are reachable only in orders the generator accepts anyway, and the
    // one-sided pools already reach every insertion position).
    fn scope_calls(&self, op_index: usize, _k: usize) -> Vec<WookiCall<E>> {
        let fresh = E::from(op_index as u8 + 1);
        let mut calls = vec![WookiCall::AddBetween(
            WookiAnchor::Begin,
            fresh.clone(),
            WookiAnchor::End,
        )];
        for j in 1..=op_index {
            let elem = E::from(j as u8);
            calls.push(WookiCall::AddBetween(
                WookiAnchor::Begin,
                fresh.clone(),
                WookiAnchor::Elem(elem.clone()),
            ));
            calls.push(WookiCall::AddBetween(
                WookiAnchor::Elem(elem.clone()),
                fresh.clone(),
                WookiAnchor::End,
            ));
            calls.push(WookiCall::Remove(elem));
        }
        calls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ral_core::ids::ReplicaId;
    use ral_core::label::Identity;
    use ral_core::ralin::ra_check;
    use ral_runtime::op_based::Cluster;
    use ral_runtime::schedule::{drive_op_based, ScheduleConfig};
    use ral_spec::wooki::WookiSpec;

    fn r(i: u32) -> ReplicaId {
        ReplicaId(i)
    }

    fn begin() -> WookiAnchor<char> {
        WookiAnchor::Begin
    }

    fn end() -> WookiAnchor<char> {
        WookiAnchor::End
    }

    fn el(c: char) -> WookiAnchor<char> {
        WookiAnchor::Elem(c)
    }

    #[test]
    fn sequential_inserts() {
        let mut c = Cluster::new(Wooki::<char>::new(), 1);
        c.invoke(r(0), WookiCall::AddBetween(begin(), 'a', end()))
            .unwrap();
        c.invoke(r(0), WookiCall::AddBetween(el('a'), 'c', end()))
            .unwrap();
        c.invoke(r(0), WookiCall::AddBetween(el('a'), 'b', el('c')))
            .unwrap();
        let read = c.invoke(r(0), WookiCall::Read).unwrap();
        assert_eq!(read.ret, Some(vec!['a', 'b', 'c']));
    }

    #[test]
    fn concurrent_inserts_converge() {
        let mut c = Cluster::new(Wooki::<char>::new(), 3);
        c.invoke(r(0), WookiCall::AddBetween(begin(), 'a', end()))
            .unwrap();
        c.invoke(r(1), WookiCall::AddBetween(begin(), 'b', end()))
            .unwrap();
        c.invoke(r(2), WookiCall::AddBetween(begin(), 'c', end()))
            .unwrap();
        c.deliver_all();
        assert!(c.converged());
        // Everyone agrees on some order containing all three.
        let read = c.invoke(r(0), WookiCall::Read).unwrap().ret.unwrap();
        assert_eq!(read.len(), 3);
    }

    #[test]
    fn insert_between_concurrent_bounds_stays_bounded() {
        let mut c = Cluster::new(Wooki::<char>::new(), 2);
        c.invoke(r(0), WookiCall::AddBetween(begin(), 'a', end()))
            .unwrap();
        c.invoke(r(0), WookiCall::AddBetween(el('a'), 'z', end()))
            .unwrap();
        c.deliver_all();
        // Concurrently insert between a and z at both replicas.
        c.invoke(r(0), WookiCall::AddBetween(el('a'), 'm', el('z')))
            .unwrap();
        c.invoke(r(1), WookiCall::AddBetween(el('a'), 'n', el('z')))
            .unwrap();
        c.deliver_all();
        assert!(c.converged());
        let read = c.invoke(r(0), WookiCall::Read).unwrap().ret.unwrap();
        assert_eq!(read.first(), Some(&'a'));
        assert_eq!(read.last(), Some(&'z'));
        assert_eq!(read.len(), 4);
    }

    #[test]
    fn remove_hides_but_keeps_anchor() {
        let mut c = Cluster::new(Wooki::<char>::new(), 2);
        c.invoke(r(0), WookiCall::AddBetween(begin(), 'a', end()))
            .unwrap();
        c.deliver_all();
        c.invoke(r(0), WookiCall::Remove('a')).unwrap();
        // Concurrent insert anchored at the removed element still works.
        c.invoke(r(1), WookiCall::AddBetween(el('a'), 'b', end()))
            .unwrap();
        c.deliver_all();
        assert!(c.converged());
        let read = c.invoke(r(0), WookiCall::Read).unwrap();
        assert_eq!(read.ret, Some(vec!['b']));
    }

    #[test]
    fn preconditions_refuse_bad_calls() {
        let mut c = Cluster::new(Wooki::<char>::new(), 1);
        assert!(c
            .invoke(r(0), WookiCall::AddBetween(end(), 'a', end()))
            .is_none());
        assert!(c
            .invoke(r(0), WookiCall::AddBetween(begin(), 'a', begin()))
            .is_none());
        assert!(c.invoke(r(0), WookiCall::Remove('z')).is_none());
        c.invoke(r(0), WookiCall::AddBetween(begin(), 'a', end()))
            .unwrap();
        assert!(c
            .invoke(r(0), WookiCall::AddBetween(begin(), 'a', end()))
            .is_none());
        c.invoke(r(0), WookiCall::AddBetween(el('a'), 'b', end()))
            .unwrap();
        // anchors out of order
        assert!(c
            .invoke(r(0), WookiCall::AddBetween(el('b'), 'x', el('a')))
            .is_none());
    }

    /// Small random runs (the nondeterministic specification makes checking
    /// exponential in the number of concurrent inserts).
    #[test]
    fn random_histories_are_ra_linearizable_eo() {
        for seed in 0..15 {
            let mut c = Cluster::new(Wooki::<u16>::new(), 3);
            let mut next: u16 = 0;
            let cfg = ScheduleConfig {
                steps: 24,
                invoke_weight: 1,
                deliver_weight: 2,
                final_sync: true,
            };
            drive_op_based(&mut c, &cfg, seed, |rng, _, state| {
                let roll: u8 = rng.random_range(0..10);
                if roll < 4 && next < 8 {
                    let all = state.all_values();
                    let (a, b) = if all.is_empty() {
                        (WookiAnchor::Begin, WookiAnchor::End)
                    } else {
                        let i = rng.random_range(0..=all.len());
                        let j = rng.random_range(i..=all.len());
                        let left = if i == 0 {
                            WookiAnchor::Begin
                        } else {
                            WookiAnchor::Elem(all[i - 1])
                        };
                        let right = if j == all.len() {
                            WookiAnchor::End
                        } else {
                            WookiAnchor::Elem(all[j])
                        };
                        (left, right)
                    };
                    next += 1;
                    Some(WookiCall::AddBetween(a, next, b))
                } else if roll < 6 {
                    let vis = state.visible();
                    if vis.is_empty() {
                        None
                    } else {
                        Some(WookiCall::Remove(vis[rng.random_range(0..vis.len())]))
                    }
                } else {
                    Some(WookiCall::Read)
                }
            });
            assert!(c.converged(), "seed {seed} did not converge");
            let h = c.into_history();
            ra_check(&h, &Identity, &WookiSpec::new(), Wooki::<u16>::STRATEGY)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }
}
