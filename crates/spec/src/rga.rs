//! `Spec(RGA)` — Example 3.3: a list with an add-after interface and a
//! tombstone set.
//!
//! The abstract state is `(l, T)` — a [`Doc`]: `l` lists every inserted
//! value (removed or not) and `T` is the tombstone set. `addAfter(b, a)`
//! inserts the fresh value `a` immediately after `b` (or at the head for
//! `b = ◦`); note that `b` may already be tombstoned — the implementation
//! allows inserting after a removed element, and so must the specification.

use crate::seq::Doc;
use ral_core::elem::Elem;
use ral_core::label::{Kind, SpecLabel};
use ral_core::spec::{Spec, Step};
use std::marker::PhantomData;

/// The first argument of `addAfter`: either the sentinel `◦` or an element
/// assumed to be present.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Anchor<E> {
    /// The pre-existing head sentinel `◦`.
    Head,
    /// An element already in the list.
    Elem(E),
}

/// Specification labels of RGA.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum RgaOp<E> {
    /// `addAfter(b, a)` — an update inserting `a` right after `b`.
    AddAfter(Anchor<E>, E),
    /// `remove(b)` — an update tombstoning `b`.
    Remove(E),
    /// `read() ⇒ l/T` — a query returning the visible list.
    Read(Vec<E>),
}

impl<E> SpecLabel for RgaOp<E> {
    fn kind(&self) -> Kind {
        match self {
            RgaOp::Read(_) => Kind::Query,
            _ => Kind::Update,
        }
    }
}

/// `Spec(RGA)`.
///
/// # Examples
///
/// ```
/// use ral_core::spec::admits;
/// use ral_spec::rga::{Anchor, RgaOp, RgaSpec};
///
/// let spec = RgaSpec::new();
/// assert!(admits(&spec, &[
///     RgaOp::AddAfter(Anchor::Head, 'a'),
///     RgaOp::AddAfter(Anchor::Elem('a'), 'b'),
///     RgaOp::Remove('a'),
///     RgaOp::Read(vec!['b']),
/// ]));
/// ```
pub struct RgaSpec<E> {
    _elem: PhantomData<E>,
}

impl<E> RgaSpec<E> {
    /// Creates the RGA specification.
    pub fn new() -> Self {
        RgaSpec { _elem: PhantomData }
    }
}

impl<E> Clone for RgaSpec<E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for RgaSpec<E> {}

impl<E> Default for RgaSpec<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for RgaSpec<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RgaSpec")
    }
}

impl<E: Elem> Spec for RgaSpec<E> {
    type Label = RgaOp<E>;
    /// The abstract state `(l, T)`.
    type State = Doc<E>;

    fn initial(&self) -> Doc<E> {
        Doc::new()
    }

    fn state_fingerprint(&self, state: &Doc<E>) -> u64 {
        state.fingerprint()
    }

    fn step(&self, l: &Doc<E>, label: &RgaOp<E>, out: &mut Vec<Doc<E>>) -> Step {
        match label {
            RgaOp::AddAfter(anchor, a) => {
                if l.contains(a) {
                    return Step::Refused; // `a` must be fresh
                }
                let at = match anchor {
                    Anchor::Head => 0,
                    Anchor::Elem(b) => match l.position(b) {
                        Some(p) => p + 1,
                        None => return Step::Refused, // `b` must be present
                    },
                };
                Step::write(out, l.insert(at, a.clone()))
            }
            RgaOp::Remove(b) => match l.position(b) {
                Some(p) => Step::write(out, l.tombstone(p)),
                None => Step::Refused, // precondition: b ∈ l
            },
            RgaOp::Read(s) => Step::unchanged_if(l.reads(s)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ral_core::spec::admits;

    fn head() -> Anchor<char> {
        Anchor::Head
    }

    fn after(c: char) -> Anchor<char> {
        Anchor::Elem(c)
    }

    #[test]
    fn builds_lists_in_order() {
        let spec = RgaSpec::new();
        // addAfter(◦,a) · addAfter(a,c) · addAfter(a,b) reads a·b·c
        assert!(admits(
            &spec,
            &[
                RgaOp::AddAfter(head(), 'a'),
                RgaOp::AddAfter(after('a'), 'c'),
                RgaOp::AddAfter(after('a'), 'b'),
                RgaOp::Read(vec!['a', 'b', 'c']),
            ]
        ));
    }

    #[test]
    fn head_insertion_prepends() {
        let spec = RgaSpec::new();
        assert!(admits(
            &spec,
            &[
                RgaOp::AddAfter(head(), 'a'),
                RgaOp::AddAfter(head(), 'b'),
                RgaOp::Read(vec!['b', 'a']),
            ]
        ));
    }

    #[test]
    fn remove_tombstones() {
        let spec = RgaSpec::new();
        assert!(admits(
            &spec,
            &[
                RgaOp::AddAfter(head(), 'a'),
                RgaOp::Remove('a'),
                RgaOp::Read(vec![]),
            ]
        ));
    }

    #[test]
    fn insert_after_tombstoned_element() {
        // The spec must allow adding after a removed element (it stays in l).
        let spec = RgaSpec::new();
        assert!(admits(
            &spec,
            &[
                RgaOp::AddAfter(head(), 'a'),
                RgaOp::Remove('a'),
                RgaOp::AddAfter(after('a'), 'b'),
                RgaOp::Read(vec!['b']),
            ]
        ));
    }

    #[test]
    fn preconditions_enforced() {
        let spec = RgaSpec::new();
        // anchor must exist
        assert!(!admits(&spec, &[RgaOp::AddAfter(after('z'), 'a')]));
        // value must be fresh
        assert!(!admits(
            &spec,
            &[RgaOp::AddAfter(head(), 'a'), RgaOp::AddAfter(head(), 'a')]
        ));
        // remove needs a present element
        assert!(!admits(&spec, &[RgaOp::<char>::Remove('z')]));
    }

    #[test]
    fn wrong_read_rejected() {
        let spec = RgaSpec::new();
        assert!(!admits(
            &spec,
            &[RgaOp::AddAfter(head(), 'a'), RgaOp::Read(vec![])]
        ));
    }

    #[test]
    fn kinds() {
        assert!(RgaOp::AddAfter(head(), 'a').is_update());
        assert!(RgaOp::Remove('a').is_update());
        assert!(RgaOp::<char>::Read(vec![]).is_query());
    }
}
