//! A compact, growable bit set over `usize` indices.
//!
//! Visibility relations in histories are dense (operation indices are
//! consecutive), so predecessor sets are stored as bit vectors. This gives
//! O(1) membership tests and word-parallel unions/subset tests, which the
//! brute-force linearization search relies on.

use std::fmt;

const BITS: usize = 64;

/// A growable set of `usize` values backed by a vector of 64-bit blocks.
///
/// # Examples
///
/// ```
/// use ral_core::bitset::BitSet;
///
/// let mut s = BitSet::new();
/// s.insert(3);
/// s.insert(70);
/// assert!(s.contains(3));
/// assert!(!s.contains(4));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 70]);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitSet {
    blocks: Vec<u64>,
}

impl BitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        BitSet { blocks: Vec::new() }
    }

    /// Creates an empty set with room for indices up to `bits` without
    /// reallocating.
    pub fn with_capacity(bits: usize) -> Self {
        BitSet {
            blocks: Vec::with_capacity(bits.div_ceil(BITS)),
        }
    }

    /// Inserts `i` into the set. Returns `true` if the value was newly added.
    pub fn insert(&mut self, i: usize) -> bool {
        let (block, bit) = (i / BITS, i % BITS);
        if block >= self.blocks.len() {
            self.blocks.resize(block + 1, 0);
        }
        let mask = 1u64 << bit;
        let was = self.blocks[block] & mask != 0;
        self.blocks[block] |= mask;
        !was
    }

    /// Removes `i` from the set. Returns `true` if the value was present.
    pub fn remove(&mut self, i: usize) -> bool {
        let (block, bit) = (i / BITS, i % BITS);
        if block >= self.blocks.len() {
            return false;
        }
        let mask = 1u64 << bit;
        let was = self.blocks[block] & mask != 0;
        self.blocks[block] &= !mask;
        was
    }

    /// Returns `true` if `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        let (block, bit) = (i / BITS, i % BITS);
        self.blocks.get(block).is_some_and(|b| b & (1 << bit) != 0)
    }

    /// Adds every element of `other` to `self`.
    pub fn union_with(&mut self, other: &BitSet) {
        if other.blocks.len() > self.blocks.len() {
            self.blocks.resize(other.blocks.len(), 0);
        }
        for (dst, src) in self.blocks.iter_mut().zip(&other.blocks) {
            *dst |= src;
        }
    }

    /// Returns `true` if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.blocks.iter().enumerate().all(|(idx, b)| {
            let o = other.blocks.get(idx).copied().unwrap_or(0);
            b & !o == 0
        })
    }

    /// Returns `true` if `self` and `other` have no element in common.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.blocks
            .iter()
            .zip(&other.blocks)
            .all(|(a, b)| a & b == 0)
    }

    /// The smallest element of `self` at or above `from` that is not in
    /// `other`, or `None` if `self` has none. Word-parallel: it masks off the
    /// bits below `from` and tests `self & !other` a block at a time, so it
    /// never walks the elements `other` already holds.
    pub fn first_missing(&self, other: &BitSet, from: usize) -> Option<usize> {
        let start = from / BITS;
        let mut below = (1u64 << (from % BITS)) - 1;
        for (idx, &b) in self.blocks.iter().enumerate().skip(start) {
            let o = other.blocks.get(idx).copied().unwrap_or(0);
            let missing = b & !o & !below;
            if missing != 0 {
                return Some(idx * BITS + missing.trailing_zeros() as usize);
            }
            below = 0;
        }
        None
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Returns `true` if the set contains no elements.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// The largest element, or `None` for an empty set. Scans whole blocks
    /// downward from the top, so on dense sets (visibility sets, whose top
    /// block is almost always occupied) this is O(1) — unlike
    /// `iter().last()`, which walks every element.
    pub fn max(&self) -> Option<usize> {
        self.blocks.iter().enumerate().rev().find_map(|(idx, &b)| {
            (b != 0).then(|| idx * BITS + (BITS - 1 - b.leading_zeros() as usize))
        })
    }

    /// The backing 64-bit blocks, least-significant first. Block `j` holds
    /// the membership bits for values `64j..64j+64`; trailing blocks may be
    /// absent (absent means empty). Used by the streaming monitor for
    /// word-parallel window scans that skip the settled prefix.
    pub(crate) fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// A copy without trailing all-zero blocks: the block vector that
    /// inserting the elements one by one builds, so the copy is `==` to a
    /// set collected from [`BitSet::iter`].
    pub(crate) fn trimmed(&self) -> BitSet {
        let used = self.blocks.iter().rposition(|&b| b != 0);
        BitSet {
            blocks: self.blocks[..used.map_or(0, |j| j + 1)].to_vec(),
        }
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            block: 0,
            bits: self.blocks.first().copied().unwrap_or(0),
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = BitSet::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

impl Extend<usize> for BitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for i in iter {
            self.insert(i);
        }
    }
}

/// Iterator over the elements of a [`BitSet`] in increasing order.
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a BitSet,
    block: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.bits != 0 {
                let bit = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.block * BITS + bit);
            }
            self.block += 1;
            if self.block >= self.set.blocks.len() {
                return None;
            }
            self.bits = self.set.blocks[self.block];
        }
    }
}

impl<'a> IntoIterator for &'a BitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_tracks_the_largest_element() {
        let mut s = BitSet::new();
        assert_eq!(s.max(), None);
        s.insert(0);
        assert_eq!(s.max(), Some(0));
        s.insert(63);
        assert_eq!(s.max(), Some(63));
        s.insert(200);
        assert_eq!(s.max(), Some(200));
        s.remove(200);
        // The top block is now empty; the scan must skip it.
        assert_eq!(s.max(), Some(63));
        assert_eq!(s.max(), s.iter().last());
    }

    #[test]
    fn insert_and_contains() {
        let mut s = BitSet::new();
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(s.insert(1000));
        assert!(!s.insert(64));
        assert!(s.contains(0));
        assert!(s.contains(63));
        assert!(s.contains(64));
        assert!(s.contains(1000));
        assert!(!s.contains(1));
        assert!(!s.contains(999));
        assert!(!s.contains(100_000));
    }

    #[test]
    fn remove_round_trip() {
        let mut s: BitSet = [1, 2, 3].into_iter().collect();
        assert!(s.remove(2));
        assert!(!s.remove(2));
        assert!(!s.remove(77));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn len_and_empty() {
        let mut s = BitSet::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        s.insert(5);
        s.insert(500);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        s.remove(5);
        s.remove(500);
        assert!(s.is_empty());
    }

    #[test]
    fn union() {
        let mut a: BitSet = [1, 2].into_iter().collect();
        let b: BitSet = [2, 200].into_iter().collect();
        a.union_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 200]);
    }

    #[test]
    fn subset() {
        let small: BitSet = [1, 65].into_iter().collect();
        let big: BitSet = [1, 2, 65, 129].into_iter().collect();
        assert!(small.is_subset(&big));
        assert!(!big.is_subset(&small));
        assert!(BitSet::new().is_subset(&small));
        assert!(small.is_subset(&small));
    }

    #[test]
    fn disjoint() {
        let a: BitSet = [1, 2].into_iter().collect();
        let b: BitSet = [3, 4].into_iter().collect();
        let c: BitSet = [2, 3].into_iter().collect();
        assert!(a.is_disjoint(&b));
        assert!(!a.is_disjoint(&c));
    }

    #[test]
    fn iter_order() {
        let s: BitSet = [300, 1, 64, 63].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 63, 64, 300]);
    }

    #[test]
    fn debug_is_nonempty() {
        let s: BitSet = [1].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{1}");
        assert_eq!(format!("{:?}", BitSet::new()), "{}");
    }
}
