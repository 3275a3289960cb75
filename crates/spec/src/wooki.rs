//! `Spec(Wooki)` — Appendix B.3: a list with an add-*between* interface.
//!
//! Unlike RGA's `addAfter`, `addBetween(a, b, c)` only constrains the new
//! element to land somewhere strictly between `a` and `c`; the specification
//! is genuinely **nondeterministic** and the implementation's conflict
//! resolution (degrees + identifier order) deterministically refines it.

use crate::seq::Doc;
use ral_core::elem::Elem;
use ral_core::label::{Kind, SpecLabel};
use ral_core::spec::{Spec, Step};
use std::marker::PhantomData;

/// An anchor of `addBetween`: one of the sentinels or an element.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WookiAnchor<E> {
    /// The begin sentinel `◦_begin`.
    Begin,
    /// An element assumed present.
    Elem(E),
    /// The end sentinel `◦_end`.
    End,
}

/// Specification labels of Wooki.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum WookiOp<E> {
    /// `addBetween(a, b, c)` — an update inserting `b` somewhere between `a`
    /// and `c`.
    AddBetween(WookiAnchor<E>, E, WookiAnchor<E>),
    /// `remove(a)` — an update tombstoning `a`.
    Remove(E),
    /// `read() ⇒ l/T` — a query.
    Read(Vec<E>),
}

impl<E> SpecLabel for WookiOp<E> {
    fn kind(&self) -> Kind {
        match self {
            WookiOp::Read(_) => Kind::Query,
            _ => Kind::Update,
        }
    }
}

/// `Spec(Wooki)`.
///
/// # Examples
///
/// ```
/// use ral_core::spec::admits;
/// use ral_spec::wooki::{WookiAnchor, WookiOp, WookiSpec};
///
/// let spec = WookiSpec::new();
/// // b can land before or after x, so both reads are admitted.
/// let prefix = [
///     WookiOp::AddBetween(WookiAnchor::Begin, 'x', WookiAnchor::End),
///     WookiOp::AddBetween(WookiAnchor::Begin, 'b', WookiAnchor::End),
/// ];
/// let mut one = prefix.to_vec();
/// one.push(WookiOp::Read(vec!['b', 'x']));
/// let mut two = prefix.to_vec();
/// two.push(WookiOp::Read(vec!['x', 'b']));
/// assert!(admits(&spec, &one));
/// assert!(admits(&spec, &two));
/// ```
pub struct WookiSpec<E> {
    _elem: PhantomData<E>,
}

impl<E> WookiSpec<E> {
    /// Creates the Wooki specification.
    pub fn new() -> Self {
        WookiSpec { _elem: PhantomData }
    }
}

impl<E> Clone for WookiSpec<E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for WookiSpec<E> {}

impl<E> Default for WookiSpec<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for WookiSpec<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WookiSpec")
    }
}

impl<E: Elem> Spec for WookiSpec<E> {
    type Label = WookiOp<E>;
    /// The abstract state `(l, T)`.
    type State = Doc<E>;

    fn initial(&self) -> Doc<E> {
        Doc::new()
    }

    fn state_fingerprint(&self, state: &Doc<E>) -> u64 {
        state.fingerprint()
    }

    fn step(&self, l: &Doc<E>, label: &WookiOp<E>, out: &mut Vec<Doc<E>>) -> Step {
        match label {
            WookiOp::AddBetween(a, b, c) => {
                if l.contains(b) {
                    return Step::Refused; // b must be fresh
                }
                // Insertion slots strictly between the anchors. `lo` is the
                // first legal index, `hi` the last.
                let lo = match a {
                    WookiAnchor::Begin => 0,
                    WookiAnchor::Elem(x) => match l.position(x) {
                        Some(p) => p + 1,
                        None => return Step::Refused,
                    },
                    WookiAnchor::End => return Step::Refused, // a ≠ ◦_end
                };
                let hi = match c {
                    WookiAnchor::End => l.len(),
                    WookiAnchor::Elem(y) => match l.position(y) {
                        Some(p) => p,
                        None => return Step::Refused,
                    },
                    WookiAnchor::Begin => return Step::Refused, // c ≠ ◦_begin
                };
                if lo > hi {
                    return Step::Refused; // a must precede c
                }
                out.extend((lo..=hi).map(|at| l.insert(at, b.clone())));
                Step::Wrote
            }
            WookiOp::Remove(a) => match l.position(a) {
                Some(p) => Step::write(out, l.tombstone(p)),
                None => Step::Refused,
            },
            WookiOp::Read(s) => Step::unchanged_if(l.reads(s)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ral_core::spec::admits;

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
    fn insert_between_elements_is_constrained() {
        let spec = WookiSpec::new();
        let prefix = vec![
            WookiOp::AddBetween(begin(), 'a', end()),
            WookiOp::AddBetween(el('a'), 'c', end()),
            WookiOp::AddBetween(el('a'), 'b', el('c')),
        ];
        let mut good = prefix.clone();
        good.push(WookiOp::Read(vec!['a', 'b', 'c']));
        assert!(admits(&spec, &good));
        // b must stay between a and c.
        let mut bad = prefix;
        bad.push(WookiOp::Read(vec!['b', 'a', 'c']));
        assert!(!admits(&spec, &bad));
    }

    #[test]
    fn anchors_must_be_ordered() {
        let spec = WookiSpec::new();
        assert!(!admits(
            &spec,
            &[
                WookiOp::AddBetween(begin(), 'a', end()),
                WookiOp::AddBetween(begin(), 'b', end()),
                // a and b exist, but which order? Try to insert between them
                // both ways; one of the two prefixes must be inadmissible.
                WookiOp::Read(vec!['a', 'b']),
                WookiOp::AddBetween(el('b'), 'x', el('a')),
            ]
        ));
    }

    #[test]
    fn fresh_value_required() {
        let spec = WookiSpec::new();
        assert!(!admits(
            &spec,
            &[
                WookiOp::AddBetween(begin(), 'a', end()),
                WookiOp::AddBetween(begin(), 'a', end()),
            ]
        ));
    }

    #[test]
    fn sentinel_misuse_rejected() {
        let spec = WookiSpec::new();
        assert!(!admits(&spec, &[WookiOp::AddBetween(end(), 'a', end())]));
        assert!(!admits(
            &spec,
            &[WookiOp::AddBetween(begin(), 'a', begin())]
        ));
    }

    #[test]
    fn remove_and_read() {
        let spec = WookiSpec::new();
        assert!(admits(
            &spec,
            &[
                WookiOp::AddBetween(begin(), 'a', end()),
                WookiOp::Remove('a'),
                WookiOp::Read(vec![]),
            ]
        ));
        assert!(!admits(&spec, &[WookiOp::<char>::Remove('z')]));
    }

    #[test]
    fn nondeterminism_tracks_all_positions() {
        let spec = WookiSpec::new();
        // Three concurrent-ish inserts between the sentinels: any
        // permutation is readable.
        let prefix = vec![
            WookiOp::AddBetween(begin(), 'a', end()),
            WookiOp::AddBetween(begin(), 'b', end()),
            WookiOp::AddBetween(begin(), 'c', end()),
        ];
        for perm in [
            vec!['a', 'b', 'c'],
            vec!['c', 'b', 'a'],
            vec!['b', 'a', 'c'],
        ] {
            let mut seq = prefix.clone();
            seq.push(WookiOp::Read(perm));
            assert!(admits(&spec, &seq));
        }
    }

    #[test]
    fn kinds() {
        assert!(WookiOp::AddBetween(begin(), 'a', end()).is_update());
        assert!(WookiOp::Remove('a').is_update());
        assert!(WookiOp::<char>::Read(vec![]).is_query());
    }
}
