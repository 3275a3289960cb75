//! Sequence utilities shared by the list-like specifications, and [`Doc`],
//! the abstract state `(l, T)` of `Spec(RGA)`, `Spec(Wooki)`,
//! `Spec(addAt2)` and `Spec(addAt3)`.

use ral_core::spec::fingerprint;
use std::fmt;
use std::hash::Hash;
use std::rc::Rc;

/// Returns `true` if `needle` is a (not necessarily contiguous) subsequence
/// of `hay`.
///
/// # Examples
///
/// ```
/// use ral_spec::seq::is_subsequence;
///
/// assert!(is_subsequence(&['a', 'c'], &['a', 'b', 'c']));
/// assert!(!is_subsequence(&['c', 'a'], &['a', 'b', 'c']));
/// ```
pub fn is_subsequence<'a, E: PartialEq + 'a>(
    needle: impl IntoIterator<Item = &'a E>,
    hay: impl IntoIterator<Item = &'a E>,
) -> bool {
    let mut it = hay.into_iter();
    needle.into_iter().all(|n| it.any(|h| h == n))
}

/// Returns the index of `x` in `hay`, if present.
pub fn position_of<E: PartialEq>(hay: &[E], x: &E) -> Option<usize> {
    hay.iter().position(|y| y == x)
}

/// The paper's list state `(l, T)`: the sequence `l` of every inserted
/// element, each flagged when it is in the tombstone set `T`.
///
/// `T ⊆ l` by construction — a tombstone is a flag on an element of `l` —
/// and the read value `l / T` is `l` with the flagged elements skipped.
/// The elements live in one `Rc`-shared buffer: cloning a `Doc` is a
/// reference-count bump, and an edit ([`Doc::insert`], [`Doc::tombstone`])
/// builds the successor with one copy of the buffer, leaving `self` as it
/// was.
///
/// The [`fingerprint`](Doc::fingerprint) is maintained per edit in O(1): a
/// wrapping sum of one term per adjacent pair of `◦ · l · ◦` plus one term
/// per tombstone. It is a function of `(l, T)`, so equal documents have
/// equal fingerprints however they were built; equality checks it before
/// comparing elements.
///
/// # Examples
///
/// ```
/// use ral_spec::seq::Doc;
///
/// let doc = Doc::new().insert(0, 'b').insert(0, 'a').tombstone(0);
/// assert!(doc.reads(&['b']));
/// assert_eq!(doc, Doc::from_iter([('a', true), ('b', false)]));
/// ```
pub struct Doc<E> {
    slots: Rc<[(E, bool)]>,
    /// `|l / T|`.
    n_visible: usize,
    fp: u64,
}

/// The pair term's left sentinel `◦_begin`, right sentinel `◦_end`, and the
/// salt of a tombstone term.
const BEGIN: u64 = 0x243F_6A88_85A3_08D3;
const END: u64 = 0x1319_8A2E_0370_7344;
const TOMB: u64 = 0xA409_3822_299F_31D0;

/// SplitMix64's finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fingerprint term of `b` directly following `a` (order-sensitive).
fn link(a: u64, b: u64) -> u64 {
    mix(a.rotate_left(29) ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn tomb_term(k: u64) -> u64 {
    mix(k ^ TOMB)
}

impl<E> Doc<E> {
    /// The empty document `(ε, ∅)`.
    pub fn new() -> Self {
        Doc {
            slots: Rc::new([]),
            n_visible: 0,
            fp: link(BEGIN, END),
        }
    }

    /// `|l|`, tombstoned elements included.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if no element was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The elements of `l` in order, each with its tombstone flag.
    pub fn iter(&self) -> impl Iterator<Item = (&E, bool)> {
        self.slots.iter().map(|(e, t)| (e, *t))
    }

    /// The elements of `l` in order, tombstoned ones included.
    pub fn elements(&self) -> impl Iterator<Item = &E> {
        self.slots.iter().map(|(e, _)| e)
    }

    /// The read value `l / T`, in order.
    pub fn visible(&self) -> impl Iterator<Item = &E> {
        self.slots.iter().filter(|(_, t)| !t).map(|(e, _)| e)
    }

    /// The incrementally maintained fingerprint (see the type docs).
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }
}

impl<E: PartialEq> Doc<E> {
    /// The index of `x` in `l`, if present.
    pub fn position(&self, x: &E) -> Option<usize> {
        self.slots.iter().position(|(e, _)| e == x)
    }

    /// Returns `true` if `x ∈ l` (tombstoned or not).
    pub fn contains(&self, x: &E) -> bool {
        // No early exit: the usual question is whether an element is fresh,
        // which scans everything anyway, and a branch-free loop can be
        // vectorized.
        self.slots.iter().fold(false, |hit, (e, _)| hit | (e == x))
    }

    /// Returns `true` if `l / T = s` — one pass with no allocation, O(1)
    /// when the lengths differ.
    pub fn reads(&self, s: &[E]) -> bool {
        s.len() == self.n_visible && self.visible().eq(s)
    }
}

impl<E: Clone + Hash> Doc<E> {
    /// The document with `x` inserted at index `at` of `l` (`at ≤ |l|`).
    pub fn insert(&self, at: usize, x: E) -> Self {
        let key = |i: usize| fingerprint(&self.slots[i].0);
        let prev = at.checked_sub(1).map_or(BEGIN, key);
        let next = if at < self.len() { key(at) } else { END };
        let k = fingerprint(&x);
        let fp = self
            .fp
            .wrapping_sub(link(prev, next))
            .wrapping_add(link(prev, k))
            .wrapping_add(link(k, next));
        let mut slots = Vec::with_capacity(self.len() + 1);
        slots.extend_from_slice(&self.slots[..at]);
        slots.push((x, false));
        slots.extend_from_slice(&self.slots[at..]);
        Doc {
            slots: slots.into(),
            n_visible: self.n_visible + 1,
            fp,
        }
    }

    /// The document with the element at index `at` of `l` added to `T`
    /// (`self` itself, shared, if it already is).
    pub fn tombstone(&self, at: usize) -> Self {
        let (x, dead) = &self.slots[at];
        if *dead {
            return self.clone();
        }
        let fp = self.fp.wrapping_add(tomb_term(fingerprint(x)));
        // One block: the shared slots are copied straight into the new
        // `Rc`, which nothing else holds yet.
        let mut slots: Rc<[(E, bool)]> = Rc::from(&self.slots[..]);
        if let Some(fresh) = Rc::get_mut(&mut slots) {
            fresh[at].1 = true;
        }
        Doc {
            slots,
            n_visible: self.n_visible - 1,
            fp,
        }
    }
}

/// Builds `(l, T)` from `l`'s elements in order, each paired with whether
/// it is in `T` — in one pass.
impl<E: Hash> FromIterator<(E, bool)> for Doc<E> {
    fn from_iter<I: IntoIterator<Item = (E, bool)>>(iter: I) -> Self {
        let (mut fp, mut prev, mut n_visible) = (0u64, BEGIN, 0);
        let slots = iter
            .into_iter()
            .inspect(|(e, dead)| {
                let k = fingerprint(e);
                fp = fp.wrapping_add(link(prev, k));
                if *dead {
                    fp = fp.wrapping_add(tomb_term(k));
                } else {
                    n_visible += 1;
                }
                prev = k;
            })
            .collect();
        Doc {
            slots,
            n_visible,
            fp: fp.wrapping_add(link(prev, END)),
        }
    }
}

impl<E> Clone for Doc<E> {
    fn clone(&self) -> Self {
        Doc {
            slots: Rc::clone(&self.slots),
            n_visible: self.n_visible,
            fp: self.fp,
        }
    }
}

impl<E> Default for Doc<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: PartialEq> PartialEq for Doc<E> {
    fn eq(&self, other: &Self) -> bool {
        Rc::ptr_eq(&self.slots, &other.slots) || (self.fp == other.fp && self.slots == other.slots)
    }
}

impl<E: Eq> Eq for Doc<E> {}

/// Renders `(l, T)` as the paper writes it.
impl<E: fmt::Debug> fmt::Debug for Doc<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tomb: Vec<&E> = self.iter().filter(|(_, t)| *t).map(|(e, _)| e).collect();
        f.debug_tuple("Doc")
            .field(&self.elements().collect::<Vec<_>>())
            .field(&tomb)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsequence_basics() {
        let none: [u8; 0] = [];
        assert!(is_subsequence(&none, &none));
        assert!(is_subsequence(&none, &[1, 2]));
        assert!(is_subsequence(&[1, 2], &[1, 2]));
        assert!(is_subsequence(&[2], &[1, 2, 3]));
        assert!(is_subsequence(&[1, 3], &[1, 2, 3]));
        assert!(!is_subsequence(&[3, 1], &[1, 2, 3]));
        assert!(!is_subsequence(&[1, 1], &[1, 2]));
        assert!(!is_subsequence(&[4], &[1, 2, 3]));
    }

    #[test]
    fn position() {
        assert_eq!(position_of(&[7, 8, 9], &8), Some(1));
        assert_eq!(position_of(&[7, 8, 9], &1), None);
    }

    #[test]
    fn reads_skip_tombstones() {
        let doc = Doc::from_iter([(1, false), (2, true), (3, false)]);
        assert!(doc.reads(&[1, 3]));
        assert!(!doc.reads(&[1, 2, 3]));
        assert!(!doc.reads(&[1]));
        assert!(Doc::<u8>::new().reads(&[]));
        assert_eq!(doc.visible().count(), 2);
    }

    #[test]
    fn edits_leave_the_original_and_track_the_fingerprint() {
        let base = Doc::from_iter([(1, false), (3, false)]);
        let ins = base.insert(1, 2);
        assert_eq!(base, Doc::from_iter([(1, false), (3, false)]));
        let want = Doc::from_iter([(1, false), (2, false), (3, false)]);
        assert_eq!(ins, want);
        assert_eq!(ins.fingerprint(), want.fingerprint());
        let dead = ins.tombstone(1);
        let want = Doc::from_iter([(1, false), (2, true), (3, false)]);
        assert_eq!((&dead, dead.fingerprint()), (&want, want.fingerprint()));
        let again = dead.tombstone(1);
        assert!(Rc::ptr_eq(&again.slots, &dead.slots), "T ∪ {{2}} = T");
        assert_ne!(dead.fingerprint(), ins.fingerprint());
        for at in [0, 3] {
            let edge = dead.insert(at, 9);
            let mut pairs: Vec<_> = dead.iter().map(|(e, t)| (*e, t)).collect();
            pairs.insert(at, (9, false));
            assert_eq!(edge.fingerprint(), Doc::from_iter(pairs).fingerprint());
        }
    }

    #[test]
    fn order_and_tombstones_are_distinguished() {
        let ab = Doc::from_iter([('a', false), ('b', false)]);
        let ba = Doc::from_iter([('b', false), ('a', false)]);
        assert_ne!(ab, ba);
        assert_ne!(ab.fingerprint(), ba.fingerprint());
        assert_ne!(ab, ab.tombstone(0));
        assert_ne!(ab.tombstone(0), ab.tombstone(1));
        assert_eq!(format!("{:?}", ab.tombstone(1)), "Doc(['a', 'b'], ['b'])");
    }
}
