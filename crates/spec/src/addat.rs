//! The three `addAt` list specifications of Appendix C.
//!
//! A list with an *index-based* insert (`addAt(a, k)` puts `a` at position
//! `k`) admits several plausible specifications:
//!
//! * [`AddAt1Spec`] — no tombstones: `remove` really deletes (Appendix C.2);
//! * [`AddAt2Spec`] — tombstones, with the index counted over *visible*
//!   elements (Appendix C.2, nondeterministic);
//! * [`AddAt3Spec`] — the "local view" specification (Appendix C.5): every
//!   mutating operation *returns* the updated local list, and the spec
//!   nondeterministically guesses which sub-sequence of the global list the
//!   origin replica observed.
//!
//! Lemma C.1 proves the RGA-based `addAt` implementation is **not**
//! RA-linearizable w.r.t. the first two; Lemma C.2 proves it **is** w.r.t.
//! the third. All three are reproduced in `tests/fig14_addat.rs`.

use crate::seq::{is_subsequence, position_of, Doc};
use ral_core::elem::Elem;
use ral_core::label::{Kind, SpecLabel};
use ral_core::spec::{Spec, Step};
use std::marker::PhantomData;

/// Labels for the return-free `addAt` interface (specs 1 and 2).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum AddAtOp<E> {
    /// `addAt(a, k)` — insert `a` at index `k` (clamped to the tail).
    AddAt(E, usize),
    /// `remove(a)`.
    Remove(E),
    /// `read() ⇒ s`.
    Read(Vec<E>),
}

impl<E> SpecLabel for AddAtOp<E> {
    fn kind(&self) -> Kind {
        match self {
            AddAtOp::Read(_) => Kind::Query,
            _ => Kind::Update,
        }
    }
}

/// `Spec(addAt1)`: no tombstones; `remove(a)` deletes `a` from the list.
pub struct AddAt1Spec<E> {
    _elem: PhantomData<E>,
}

impl<E> AddAt1Spec<E> {
    /// Creates the tombstone-free `addAt` specification.
    pub fn new() -> Self {
        AddAt1Spec { _elem: PhantomData }
    }
}

impl<E> Clone for AddAt1Spec<E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for AddAt1Spec<E> {}

impl<E> Default for AddAt1Spec<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for AddAt1Spec<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AddAt1Spec")
    }
}

impl<E: Elem> Spec for AddAt1Spec<E> {
    type Label = AddAtOp<E>;
    type State = Vec<E>;

    fn initial(&self) -> Vec<E> {
        Vec::new()
    }

    fn state_fingerprint(&self, state: &Self::State) -> u64 {
        // All abstract states in this crate are `Hash`: skip the default
        // `Debug`-formatting path in the memoized checker's hot loop.
        ral_core::spec::fingerprint(state)
    }

    fn step(&self, l: &Vec<E>, label: &AddAtOp<E>, out: &mut Vec<Vec<E>>) -> Step {
        match label {
            AddAtOp::AddAt(a, k) => {
                if l.contains(a) {
                    return Step::Refused;
                }
                let mut next = l.clone();
                let at = (*k).min(l.len());
                next.insert(at, a.clone());
                Step::write(out, next)
            }
            AddAtOp::Remove(a) => match position_of(l, a) {
                Some(p) => {
                    let mut next = l.clone();
                    next.remove(p);
                    Step::write(out, next)
                }
                None => Step::Refused,
            },
            AddAtOp::Read(s) => Step::unchanged_if(s == l),
        }
    }
}

/// `Spec(addAt2)`: tombstones; the index `k` counts only *visible* (not
/// tombstoned) elements, which makes insertion nondeterministic — any slot
/// whose visible prefix has length `k` qualifies.
pub struct AddAt2Spec<E> {
    _elem: PhantomData<E>,
}

impl<E> AddAt2Spec<E> {
    /// Creates the tombstoned `addAt` specification.
    pub fn new() -> Self {
        AddAt2Spec { _elem: PhantomData }
    }
}

impl<E> Clone for AddAt2Spec<E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for AddAt2Spec<E> {}

impl<E> Default for AddAt2Spec<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for AddAt2Spec<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AddAt2Spec")
    }
}

impl<E: Elem> Spec for AddAt2Spec<E> {
    type Label = AddAtOp<E>;
    /// The abstract state `(l, T)`.
    type State = Doc<E>;

    fn initial(&self) -> Doc<E> {
        Doc::new()
    }

    fn state_fingerprint(&self, state: &Doc<E>) -> u64 {
        state.fingerprint()
    }

    fn step(&self, l: &Doc<E>, label: &AddAtOp<E>, out: &mut Vec<Doc<E>>) -> Step {
        match label {
            AddAtOp::AddAt(a, k) => {
                if l.contains(a) {
                    return Step::Refused;
                }
                // Rule 1: split l = l1 · l2 with |l1 / T| = k, in increasing
                // |l1|. `visible` is |l[..p] / T|; once it passes k no later
                // split qualifies. `a` is fresh, so no two splits coincide.
                let mut visible = 0;
                let mut flags = l.iter().map(|(_, dead)| dead);
                for p in 0..=l.len() {
                    if visible == *k {
                        out.push(l.insert(p, a.clone()));
                    }
                    if flags.next() == Some(false) {
                        visible += 1;
                        if visible > *k {
                            break;
                        }
                    }
                }
                // Rule 2: |l / T| < k appends at the end (then no split
                // qualified above). One of the two rules always applies.
                if visible < *k {
                    out.push(l.insert(l.len(), a.clone()));
                }
                Step::Wrote
            }
            AddAtOp::Remove(a) => match l.position(a) {
                Some(p) => Step::write(out, l.tombstone(p)),
                None => Step::Refused,
            },
            AddAtOp::Read(s) => Step::unchanged_if(l.reads(s)),
        }
    }
}

/// Labels for the returning `addAt` interface of Appendix C.4 (spec 3):
/// mutating operations return the origin replica's updated list.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum AddAtRetOp<E> {
    /// `addAt(a, k) ⇒ s` — insert and return the local view.
    AddAt(E, usize, Vec<E>),
    /// `remove(a) ⇒ s` — remove and return the local view.
    Remove(E, Vec<E>),
    /// `read() ⇒ s`.
    Read(Vec<E>),
}

impl<E> SpecLabel for AddAtRetOp<E> {
    fn kind(&self) -> Kind {
        match self {
            AddAtRetOp::Read(_) => Kind::Query,
            _ => Kind::Update,
        }
    }
}

/// `Spec(addAt3)`: the "local view" specification of Appendix C.5.
///
/// `addAt(a, k) ⇒ s₁ · a · s₂` is admitted when `s₁ · s₂` is a sub-sequence
/// of the abstract list (the part the origin had seen), `|s₁| = k` (or
/// `|s₁| < k` with `s₂` empty — the clamped-to-tail case), and the new
/// element lands right after the last element of `s₁` (at the head if `s₁`
/// is empty).
pub struct AddAt3Spec<E> {
    _elem: PhantomData<E>,
}

impl<E> AddAt3Spec<E> {
    /// Creates the local-view `addAt` specification.
    pub fn new() -> Self {
        AddAt3Spec { _elem: PhantomData }
    }
}

impl<E> Clone for AddAt3Spec<E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for AddAt3Spec<E> {}

impl<E> Default for AddAt3Spec<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for AddAt3Spec<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AddAt3Spec")
    }
}

impl<E: Elem> Spec for AddAt3Spec<E> {
    type Label = AddAtRetOp<E>;
    /// The abstract state `(l, T)`, as in `Spec(addAt2)`.
    type State = Doc<E>;

    fn initial(&self) -> Doc<E> {
        Doc::new()
    }

    fn state_fingerprint(&self, state: &Doc<E>) -> u64 {
        state.fingerprint()
    }

    fn step(&self, l: &Doc<E>, label: &AddAtRetOp<E>, out: &mut Vec<Doc<E>>) -> Step {
        match label {
            AddAtRetOp::AddAt(a, k, s) => {
                if l.contains(a) {
                    return Step::Refused;
                }
                let Some(i) = position_of(s, a) else {
                    return Step::Refused; // the return must contain the new element
                };
                let s1 = &s[..i];
                let s2 = &s[i + 1..];
                if s1.len() != *k && !(s1.len() < *k && s2.is_empty()) {
                    return Step::Refused;
                }
                // `s1 · s2` is the part of `l` the origin had observed.
                if !is_subsequence(s1.iter().chain(s2), l.elements()) {
                    return Step::Refused;
                }
                let at = match s1.last() {
                    None => 0,
                    Some(b) => match l.position(b) {
                        Some(p) => p + 1,
                        None => return Step::Refused,
                    },
                };
                Step::write(out, l.insert(at, a.clone()))
            }
            AddAtRetOp::Remove(a, s) => {
                if s.contains(a) || !is_subsequence(s, l.elements()) {
                    return Step::Refused;
                }
                match l.position(a) {
                    Some(p) => Step::write(out, l.tombstone(p)),
                    None => Step::Refused,
                }
            }
            AddAtRetOp::Read(s) => Step::unchanged_if(l.reads(s)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ral_core::spec::{admits, Frontier};

    #[test]
    fn addat1_inserts_by_index() {
        let spec = AddAt1Spec::new();
        assert!(admits(
            &spec,
            &[
                AddAtOp::AddAt('a', 0),
                AddAtOp::AddAt('b', 0),
                AddAtOp::AddAt('c', 1),
                AddAtOp::Read(vec!['b', 'c', 'a']),
            ]
        ));
    }

    #[test]
    fn addat1_clamps_to_tail() {
        let spec = AddAt1Spec::new();
        assert!(admits(
            &spec,
            &[
                AddAtOp::AddAt('a', 9),
                AddAtOp::AddAt('b', 9),
                AddAtOp::Read(vec!['a', 'b']),
            ]
        ));
    }

    #[test]
    fn addat1_remove_deletes() {
        let spec = AddAt1Spec::new();
        assert!(admits(
            &spec,
            &[
                AddAtOp::AddAt('a', 0),
                AddAtOp::Remove('a'),
                AddAtOp::Read(vec![]),
            ]
        ));
        assert!(!admits(&spec, &[AddAtOp::<char>::Remove('z')]));
    }

    #[test]
    fn addat2_index_skips_tombstones() {
        let spec = AddAt2Spec::new();
        // a then b after it; remove a; inserting at visible index 0 may land
        // before or after the tombstoned a, so both reads are possible.
        let prefix = vec![
            AddAtOp::AddAt('a', 0),
            AddAtOp::AddAt('b', 1),
            AddAtOp::Remove('a'),
        ];
        let mut one = prefix.clone();
        one.extend([AddAtOp::AddAt('c', 0), AddAtOp::Read(vec!['c', 'b'])]);
        assert!(admits(&spec, &one));
        let mut two = prefix;
        two.extend([AddAtOp::AddAt('c', 1), AddAtOp::Read(vec!['b', 'c'])]);
        assert!(admits(&spec, &two));
    }

    #[test]
    fn addat2_nondeterministic_slot_count() {
        let spec = AddAt2Spec::new();
        let mut f = Frontier::new(&spec);
        assert!(f.advance(&AddAtOp::AddAt('a', 0)));
        assert!(f.advance(&AddAtOp::Remove('a')));
        // Visible list empty: slots before and after the tombstone both have
        // visible prefix 0.
        assert!(f.advance(&AddAtOp::AddAt('b', 0)));
        assert_eq!(f.states().len(), 2);
    }

    #[test]
    fn addat3_checks_local_view() {
        let spec = AddAt3Spec::new();
        assert!(admits(
            &spec,
            &[
                AddAtRetOp::AddAt('a', 0, vec!['a']),
                AddAtRetOp::AddAt('b', 1, vec!['a', 'b']),
                AddAtRetOp::Read(vec!['a', 'b']),
            ]
        ));
        // A replica that hadn't seen 'b' may insert at 1 observing only 'a'.
        assert!(admits(
            &spec,
            &[
                AddAtRetOp::AddAt('a', 0, vec!['a']),
                AddAtRetOp::AddAt('b', 1, vec!['a', 'b']),
                AddAtRetOp::AddAt('c', 1, vec!['a', 'c']),
            ]
        ));
    }

    #[test]
    fn addat3_rejects_bogus_views() {
        let spec = AddAt3Spec::new();
        // Return value must contain the inserted element.
        assert!(!admits(&spec, &[AddAtRetOp::AddAt('a', 0, vec![])]));
        // Observed part must be a subsequence of the abstract list.
        assert!(!admits(
            &spec,
            &[
                AddAtRetOp::AddAt('a', 0, vec!['a']),
                AddAtRetOp::AddAt('b', 1, vec!['z', 'b']),
            ]
        ));
        // Index must match the observed prefix.
        assert!(!admits(
            &spec,
            &[
                AddAtRetOp::AddAt('a', 0, vec!['a']),
                AddAtRetOp::AddAt('b', 0, vec!['a', 'b']),
            ]
        ));
    }

    #[test]
    fn addat3_head_insert_with_large_index() {
        // Empty local view, k arbitrary: s = [a] alone.
        let spec = AddAt3Spec::new();
        assert!(admits(&spec, &[AddAtRetOp::AddAt('a', 5, vec!['a'])]));
    }

    #[test]
    fn addat3_remove_view() {
        let spec = AddAt3Spec::new();
        assert!(admits(
            &spec,
            &[
                AddAtRetOp::AddAt('a', 0, vec!['a']),
                AddAtRetOp::AddAt('b', 1, vec!['a', 'b']),
                AddAtRetOp::Remove('a', vec!['b']),
                AddAtRetOp::Read(vec!['b']),
            ]
        ));
        // The view must not contain the removed element.
        assert!(!admits(
            &spec,
            &[
                AddAtRetOp::AddAt('a', 0, vec!['a']),
                AddAtRetOp::Remove('a', vec!['a']),
            ]
        ));
    }

    #[test]
    fn kinds() {
        assert!(AddAtOp::AddAt('a', 0).is_update());
        assert!(AddAtOp::Remove('a').is_update());
        assert!(AddAtOp::<char>::Read(vec![]).is_query());
        assert!(AddAtRetOp::AddAt('a', 0, vec![]).is_update());
        assert!(AddAtRetOp::Remove('a', vec![]).is_update());
        assert!(AddAtRetOp::<char>::Read(vec![]).is_query());
    }
}
