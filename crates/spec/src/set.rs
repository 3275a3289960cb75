//! Set specifications: the plain `Spec(Set)` (Appendix E.2) and the
//! identifier-carrying `Spec(OR-Set)` (Example 3.4).
//!
//! `Spec(Set)` treats `remove(a)` as a plain update — this is the
//! specification under which the OR-Set execution of Figure 5a is **not**
//! linearizable. `Spec(OR-Set)` is the target of the query-update rewriting
//! of Example 3.6: `remove(a) ⇒ R` becomes `readIds(a) ⇒ R · remove(R)`.

use ral_core::elem::Elem;
use ral_core::ids::Uid;
use ral_core::label::{Kind, SpecLabel};
use ral_core::spec::{Spec, Step};
use std::collections::BTreeSet;
use std::marker::PhantomData;

/// Labels of the plain set specification.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SetOp<E> {
    /// `add(a)` — an update.
    Add(E),
    /// `remove(a)` — an update (this is the naive, non-rewritten view).
    Remove(E),
    /// `read() ⇒ A` — a query.
    Read(BTreeSet<E>),
}

impl<E> SpecLabel for SetOp<E> {
    fn kind(&self) -> Kind {
        match self {
            SetOp::Read(_) => Kind::Query,
            _ => Kind::Update,
        }
    }
}

/// `Spec(Set)`: abstract state is the set of present elements.
///
/// # Examples
///
/// ```
/// use std::collections::BTreeSet;
/// use ral_core::spec::admits;
/// use ral_spec::set::{SetOp, SetSpec};
///
/// let spec = SetSpec::new();
/// assert!(admits(&spec, &[
///     SetOp::Add('a'),
///     SetOp::Remove('a'),
///     SetOp::Read(BTreeSet::new()),
/// ]));
/// ```
pub struct SetSpec<E> {
    _elem: PhantomData<E>,
}

impl<E> SetSpec<E> {
    /// Creates the plain set specification.
    pub fn new() -> Self {
        SetSpec { _elem: PhantomData }
    }
}

impl<E> Clone for SetSpec<E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for SetSpec<E> {}

impl<E> Default for SetSpec<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for SetSpec<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SetSpec")
    }
}

impl<E: Elem> Spec for SetSpec<E> {
    type Label = SetOp<E>;
    type State = BTreeSet<E>;

    fn initial(&self) -> BTreeSet<E> {
        BTreeSet::new()
    }

    fn state_fingerprint(&self, state: &Self::State) -> u64 {
        // All abstract states in this crate are `Hash`: skip the default
        // `Debug`-formatting path in the memoized checker's hot loop.
        ral_core::spec::fingerprint(state)
    }

    fn step(&self, state: &BTreeSet<E>, label: &SetOp<E>, out: &mut Vec<BTreeSet<E>>) -> Step {
        match label {
            SetOp::Add(a) => {
                let mut next = state.clone();
                next.insert(a.clone());
                Step::write(out, next)
            }
            SetOp::Remove(a) => {
                let mut next = state.clone();
                next.remove(a);
                Step::write(out, next)
            }
            SetOp::Read(a) => Step::unchanged_if(a == state),
        }
    }
}

/// Labels of the OR-Set specification (Example 3.4), i.e. the image of the
/// query-update rewriting of Example 3.6.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum OrSetOp<E> {
    /// `add(a, id)` — an update; precondition `(a, id) ∉ ϕ`.
    Add(E, Uid),
    /// `remove(S)` — an update removing exactly the observed pairs.
    Remove(BTreeSet<(E, Uid)>),
    /// `readIds(a) ⇒ S` — a query returning all pairs carrying `a`.
    ReadIds(E, BTreeSet<(E, Uid)>),
    /// `read() ⇒ A` — a query returning the element view.
    Read(BTreeSet<E>),
}

impl<E> SpecLabel for OrSetOp<E> {
    fn kind(&self) -> Kind {
        match self {
            OrSetOp::Add(..) | OrSetOp::Remove(_) => Kind::Update,
            OrSetOp::ReadIds(..) | OrSetOp::Read(_) => Kind::Query,
        }
    }
}

/// `Spec(OR-Set)`: abstract state is a set of element/identifier pairs.
pub struct OrSetSpec<E> {
    _elem: PhantomData<E>,
}

impl<E> OrSetSpec<E> {
    /// Creates the OR-Set specification.
    pub fn new() -> Self {
        OrSetSpec { _elem: PhantomData }
    }
}

impl<E> Clone for OrSetSpec<E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for OrSetSpec<E> {}

impl<E> Default for OrSetSpec<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for OrSetSpec<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("OrSetSpec")
    }
}

impl<E: Elem> Spec for OrSetSpec<E> {
    type Label = OrSetOp<E>;
    type State = BTreeSet<(E, Uid)>;

    fn initial(&self) -> Self::State {
        BTreeSet::new()
    }

    fn state_fingerprint(&self, state: &Self::State) -> u64 {
        // All abstract states in this crate are `Hash`: skip the default
        // `Debug`-formatting path in the memoized checker's hot loop.
        ral_core::spec::fingerprint(state)
    }

    fn step(&self, state: &Self::State, label: &OrSetOp<E>, out: &mut Vec<Self::State>) -> Step {
        match label {
            OrSetOp::Add(a, id) => {
                let pair = (a.clone(), *id);
                if state.contains(&pair) {
                    return Step::Refused;
                }
                let mut next = state.clone();
                next.insert(pair);
                Step::write(out, next)
            }
            OrSetOp::Remove(s) => Step::write(out, state.difference(s).cloned().collect()),
            // Both sides iterate in `(element, id)` order, so the reads
            // compare in one pass without building a set.
            OrSetOp::ReadIds(a, s) => {
                Step::unchanged_if(state.iter().filter(|(e, _)| e == a).eq(s))
            }
            OrSetOp::Read(a) => Step::unchanged_if(distinct_firsts(state).eq(a)),
        }
    }
}

/// The distinct first components of an ordered set of pairs, ascending —
/// the element view of an OR-Set or MV-Register state, without a copy.
pub(crate) fn distinct_firsts<A: PartialEq, B>(
    pairs: &BTreeSet<(A, B)>,
) -> impl Iterator<Item = &A> {
    let mut last = None;
    pairs.iter().map(|(a, _)| a).filter(move |&a| {
        let fresh = last != Some(a);
        last = Some(a);
        fresh
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ral_core::spec::admits;

    #[test]
    fn plain_set_add_remove() {
        let spec = SetSpec::new();
        assert!(admits(
            &spec,
            &[
                SetOp::Add('a'),
                SetOp::Add('a'),
                SetOp::Remove('a'),
                SetOp::Read(BTreeSet::new()),
            ]
        ));
        assert!(!admits(
            &spec,
            &[SetOp::Add('a'), SetOp::Read(BTreeSet::new())]
        ));
    }

    #[test]
    fn plain_set_remove_absent_is_noop() {
        let spec = SetSpec::new();
        assert!(admits(
            &spec,
            &[SetOp::Remove('z'), SetOp::Read(BTreeSet::new())]
        ));
    }

    #[test]
    fn or_set_remove_only_observed_ids() {
        let spec = OrSetSpec::new();
        // add(a,0) ; readIds(a)⇒{(a,0)} ; add(a,1) ; remove({(a,0)}) ; read⇒{a}
        let seq = [
            OrSetOp::Add('a', Uid(0)),
            OrSetOp::ReadIds('a', BTreeSet::from([('a', Uid(0))])),
            OrSetOp::Add('a', Uid(1)),
            OrSetOp::Remove(BTreeSet::from([('a', Uid(0))])),
            OrSetOp::Read(BTreeSet::from(['a'])),
        ];
        assert!(admits(&spec, &seq));
    }

    #[test]
    fn or_set_add_requires_fresh_pair() {
        let spec = OrSetSpec::new();
        assert!(!admits(
            &spec,
            &[OrSetOp::Add('a', Uid(0)), OrSetOp::Add('a', Uid(0))]
        ));
        assert!(admits(
            &spec,
            &[OrSetOp::Add('a', Uid(0)), OrSetOp::Add('a', Uid(1))]
        ));
    }

    #[test]
    fn or_set_read_ids_checked() {
        let spec = OrSetSpec::new();
        assert!(!admits(
            &spec,
            &[
                OrSetOp::Add('a', Uid(0)),
                OrSetOp::ReadIds('a', BTreeSet::new()),
            ]
        ));
    }

    #[test]
    fn or_set_read_sees_all_values() {
        let spec = OrSetSpec::new();
        assert!(admits(
            &spec,
            &[
                OrSetOp::Add('a', Uid(0)),
                OrSetOp::Add('b', Uid(1)),
                OrSetOp::Read(BTreeSet::from(['a', 'b'])),
            ]
        ));
    }

    #[test]
    fn kinds() {
        assert!(SetOp::Add(1u32).is_update());
        assert!(SetOp::Remove(1u32).is_update());
        assert!(SetOp::<u32>::Read(BTreeSet::new()).is_query());
        assert!(OrSetOp::Add('a', Uid(0)).is_update());
        assert!(OrSetOp::<char>::Remove(BTreeSet::new()).is_update());
        assert!(OrSetOp::ReadIds('a', BTreeSet::new()).is_query());
        assert!(OrSetOp::<char>::Read(BTreeSet::new()).is_query());
    }
}
