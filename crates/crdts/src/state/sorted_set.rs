//! [`SortedSet`]: the payload of the two set-union lattices, one ascending,
//! duplicate-free `Vec`.
//!
//! A full-state join is a union of two such runs, so it is one linear pass
//! over contiguous memory (or a binary search per element when the incoming
//! side is small), and copying a shared state is one block per set rather
//! than one heap node per B-tree leaf.

use std::fmt;

/// A set kept as one ascending, duplicate-free `Vec`.
///
/// The representation is canonical, so the derived `Eq` is set equality.
/// `Debug` renders exactly as [`std::collections::BTreeSet`] does.
///
/// Costs, for `n` elements: [`contains`](Self::contains) is a binary
/// search; [`insert`](Self::insert) a binary search plus a move of the
/// elements above the new one; [`union_with`](Self::union_with) — the join
/// — finds what the other side adds and moves it in, cloning only those
/// elements.
#[derive(Clone, PartialEq, Eq)]
pub struct SortedSet<T> {
    items: Vec<T>,
}

impl<T> SortedSet<T> {
    /// The empty set.
    pub const fn new() -> Self {
        SortedSet { items: Vec::new() }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The elements in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// The elements as one ascending slice.
    pub(crate) fn as_slice(&self) -> &[T] {
        &self.items
    }
}

impl<T: Ord> SortedSet<T> {
    /// Whether `x` is an element.
    pub fn contains(&self, x: &T) -> bool {
        self.items.binary_search(x).is_ok()
    }

    /// Inserts `x`; returns whether it was absent.
    pub fn insert(&mut self, x: T) -> bool {
        match self.items.binary_search(&x) {
            Ok(_) => false,
            Err(at) => {
                self.items.insert(at, x);
                true
            }
        }
    }

    /// Whether every element of `self` is in `other`.
    pub fn is_subset(&self, other: &Self) -> bool {
        if self.len() > other.len() {
            return false;
        }
        let mut theirs = other.items.iter();
        self.items
            .iter()
            .all(|x| theirs.by_ref().find(|y| *y >= x) == Some(x))
    }

    /// The elements of `self` not in `other`, ascending.
    pub fn difference<'a>(&'a self, other: &'a Self) -> impl Iterator<Item = &'a T> + 'a {
        let mut theirs = other.items.iter().peekable();
        self.items.iter().filter(move |x| {
            while theirs.next_if(|y| y < x).is_some() {}
            theirs.peek() != Some(x)
        })
    }
}

impl<T: Ord + Clone> SortedSet<T> {
    /// `self ∪= other`, the join. Returns whether `self` grew.
    ///
    /// The elements `other` adds are found by a binary search each when
    /// `other` is small against `self` (`|other| · log₂|self| < |self|`),
    /// and by one lockstep walk of both otherwise. Only those elements are
    /// cloned. They are appended, growing the buffer at most once, and
    /// moved into place: by one rotation each when there are few of them,
    /// by std's run-detecting stable sort (one merge of two runs) otherwise.
    /// So joining a set `self` already holds allocates nothing, and any
    /// join allocates at most twice.
    pub fn union_with(&mut self, other: &Self) -> bool {
        let n = self.items.len();
        let m = other.items.len();
        if search_beats_walk(m, n) {
            let mut lo = 0;
            for (j, x) in other.items.iter().enumerate() {
                match self.items[lo..n].binary_search(x) {
                    Ok(at) => lo += at + 1,
                    Err(at) => {
                        lo += at;
                        push_clone(&mut self.items, x, m - j);
                    }
                }
            }
        } else {
            let mut i = 0;
            for (j, x) in other.items.iter().enumerate() {
                while i < n && self.items[i] < *x {
                    i += 1;
                }
                if i < n && self.items[i] == *x {
                    i += 1;
                } else {
                    push_clone(&mut self.items, x, m - j);
                }
            }
        }
        let grew = self.items.len() > n;
        self.merge_tail(n);
        grew
    }

    // Merges the ascending tail `items[n..]`, disjoint from the ascending
    // head `items[..n]`, into it.
    fn merge_tail(&mut self, n: usize) {
        let k = self.items.len() - n;
        if k == 0 || n == 0 || self.items[n - 1] < self.items[n] {
            return; // already in order
        }
        if k.saturating_mul(k) > n {
            self.items.sort();
            return;
        }
        // From the largest tail element down: the head elements above it
        // move right past the tail elements still unplaced (one rotation),
        // which puts it and them where they end. Costs `n + k²/2` moves.
        let mut head = n;
        for j in (0..k).rev() {
            let x = &self.items[head + j];
            let at = self.items[..head].partition_point(|y| y < x);
            if at < head {
                self.items[at..head + j + 1].rotate_right(j + 1);
                head = at;
            }
        }
    }
}

/// Whether `m` binary searches in `n` elements take fewer steps than one
/// walk of both.
fn search_beats_walk(m: usize, n: usize) -> bool {
    let log_n = (usize::BITS - n.leading_zeros()) as usize;
    m.saturating_mul(log_n) < n
}

/// Pushes a clone of `x`; `left` elements of the other side, `x` included,
/// remain, so the buffer is grown at most once per join.
fn push_clone<T: Clone>(items: &mut Vec<T>, x: &T, left: usize) {
    if items.len() == items.capacity() {
        items.reserve(left);
    }
    items.push(x.clone());
}

impl<T> Default for SortedSet<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for SortedSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<T: Ord> FromIterator<T> for SortedSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut items: Vec<T> = iter.into_iter().collect();
        items.sort();
        items.dedup();
        SortedSet { items }
    }
}

impl<'a, T> IntoIterator for &'a SortedSet<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}
