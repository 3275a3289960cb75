//! A compact, growable bit set over `usize` indices: a full prefix plus
//! tail words.
//!
//! Visibility relations in histories are prefix-heavy: an operation sees
//! everything below its origin's seen-frontier plus a few operations above
//! it. So a set is stored as a count `ones` of leading all-ones 64-bit words
//! — all of `0..64·ones` — followed by the tail words that hold the rest, and
//! a predecessor set costs its tail, not its index. Membership is O(1);
//! unions, subset and disjointness tests and [`BitSet::first_missing`] run a
//! word at a time across operands with different prefixes, which the
//! linearization search and the causal delivery rule rely on.
//!
//! The form is canonical: leading all-ones tail words are folded into the
//! prefix and trailing zero words are trimmed. Equal sets therefore have
//! equal representations, whatever order built them, and the derived `Eq`
//! and `Hash` agree with set equality.

use std::fmt;

const BITS: usize = 64;

/// A growable set of `usize` values: all of `0..64·ones`, plus tail words
/// for the values above.
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
///
/// // Equality is set equality, whatever order built the sets.
/// let mut t = BitSet::prefix(100);
/// t.insert(3);
/// for i in (0..100).filter(|&i| i != 3) {
///     t.remove(i);
/// }
/// t.insert(70);
/// assert_eq!(s, t);
/// ```
#[derive(Default, PartialEq, Eq, Hash)]
pub struct BitSet {
    /// Leading words that are all ones: the set holds all of `0..64·ones`.
    ones: usize,
    /// Words `ones..ones + tail.len()`, least-significant first. Canonical:
    /// the first is not all ones and the last is not zero.
    tail: Vec<u64>,
}

impl BitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        BitSet {
            ones: 0,
            tail: Vec::new(),
        }
    }

    /// Creates an empty set with room for tail words up to index `bits`
    /// without reallocating.
    pub fn with_capacity(bits: usize) -> Self {
        BitSet {
            ones: 0,
            tail: Vec::with_capacity(bits.div_ceil(BITS)),
        }
    }

    /// The set `{0, …, n-1}`. Allocates only when `n` is not a multiple of
    /// 64.
    pub fn prefix(n: usize) -> Self {
        let rest = n % BITS;
        BitSet {
            ones: n / BITS,
            tail: if rest == 0 {
                Vec::new()
            } else {
                vec![(1u64 << rest) - 1]
            },
        }
    }

    /// Word `j`: the membership bits for values `64j..64j+64`.
    #[inline]
    fn word(&self, j: usize) -> u64 {
        match j.checked_sub(self.ones) {
            None => !0,
            Some(t) => self.tail.get(t).copied().unwrap_or(0),
        }
    }

    /// One past the last word that may be nonzero.
    #[inline]
    fn end(&self) -> usize {
        self.ones + self.tail.len()
    }

    /// Moves the leading all-ones tail words into the prefix.
    fn fold(&mut self) {
        let full = self.tail.iter().take_while(|&&w| w == !0).count();
        self.tail.copy_within(full.., 0);
        self.tail.truncate(self.tail.len() - full);
        self.ones += full;
    }

    /// Inserts `i` into the set. Returns `true` if the value was newly added.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        let (block, mask) = (i / BITS, 1u64 << (i % BITS));
        let Some(t) = block.checked_sub(self.ones) else {
            return false;
        };
        let Some(w) = self.tail.get_mut(t) else {
            // A new last word holds one bit, so it folds nothing.
            self.tail.resize(t, 0);
            self.tail.push(mask);
            return true;
        };
        let was = *w & mask != 0;
        *w |= mask;
        if t == 0 && *w == !0 {
            self.fold();
        }
        !was
    }

    /// Removes `i` from the set. Returns `true` if the value was present.
    pub fn remove(&mut self, i: usize) -> bool {
        let (block, mask) = (i / BITS, 1u64 << (i % BITS));
        let Some(t) = block.checked_sub(self.ones) else {
            // Split the prefix at `block`: its words from there on become
            // tail words, the first of them with the bit cleared.
            let moved = self.ones - block;
            self.tail.splice(0..0, std::iter::repeat_n(!0, moved));
            self.ones = block;
            self.tail[0] &= !mask;
            return true;
        };
        let Some(w) = self.tail.get_mut(t) else {
            return false;
        };
        let was = *w & mask != 0;
        *w &= !mask;
        if t + 1 == self.tail.len() {
            let used = self.tail.iter().rposition(|&w| w != 0).map_or(0, |j| j + 1);
            self.tail.truncate(used);
        }
        was
    }

    /// Returns `true` if `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.word(i / BITS) & (1 << (i % BITS)) != 0
    }

    /// Adds every element of `other` to `self`.
    pub fn union_with(&mut self, other: &BitSet) {
        if other.ones > self.ones {
            // `other`'s prefix covers the tail words below it.
            let covered = (other.ones - self.ones).min(self.tail.len());
            self.tail.drain(..covered);
            self.ones = other.ones;
        }
        let src = other.tail.get(self.ones - other.ones..).unwrap_or(&[]);
        if src.len() > self.tail.len() {
            self.tail.resize(src.len(), 0);
        }
        for (dst, w) in self.tail.iter_mut().zip(src) {
            *dst |= w;
        }
        if self.tail.first() == Some(&!0) {
            self.fold();
        }
    }

    /// Returns `true` if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        // Canonical form: a prefix word of `self` past `other`'s prefix
        // meets `other`'s first tail word, which is not all ones; a last
        // tail word of `self` past `other`'s end meets a zero word.
        if self.ones > other.ones || self.end() > other.end() {
            return false;
        }
        self.tail
            .iter()
            .skip(other.ones - self.ones)
            .zip(&other.tail)
            .all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` if every element of `self` at or above word `from`
    /// (value `64·from`) is set in `window`, whose word `k` holds the bits
    /// for values `64(from + k)..64(from + k + 1)`; words past the end of
    /// `window` read as zero. Elements below `from` are not consulted: the
    /// caller knows them to be covered (settled operations, or a placed
    /// mask's leading all-ones words). Word-parallel, with no per-element
    /// work.
    #[inline]
    pub fn is_covered_from(&self, from: usize, window: &[u64]) -> bool {
        // Prefix words at or above `from` must meet full window words.
        let full = self.ones.saturating_sub(from);
        if full > window.len() || window[..full].iter().any(|&w| w != !0) {
            return false;
        }
        // Tail words below `from` are skipped. The last tail word is
        // nonzero, so a tail that reaches past the window is not covered.
        let tail = self
            .tail
            .get(from.saturating_sub(self.ones)..)
            .unwrap_or(&[]);
        let window = &window[full..];
        tail.len() <= window.len() && tail.iter().zip(window).all(|(a, b)| a & !b == 0)
    }

    /// Returns `true` if `self` and `other` have no element in common.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        let (lo, hi) = if self.ones <= other.ones {
            (self, other)
        } else {
            (other, self)
        };
        if lo.ones > 0 {
            return false; // both hold 0
        }
        let split = hi.ones.min(lo.tail.len());
        lo.tail[..split].iter().all(|&w| w == 0)
            && lo.tail[split..]
                .iter()
                .zip(&hi.tail)
                .all(|(a, b)| a & b == 0)
    }

    /// The smallest element of `self` at or above `from` that is not in
    /// `other`, or `None` if `self` has none. Word-parallel: it starts at
    /// `from` or at the end of `other`'s prefix, whichever is higher, masks
    /// off the bits below `from` and tests `self & !other` a word at a time,
    /// so it never walks the elements `other` already holds.
    pub fn first_missing(&self, other: &BitSet, from: usize) -> Option<usize> {
        let first = from / BITS;
        let start = first.max(other.ones);
        let mut below = if start == first {
            (1u64 << (from % BITS)) - 1
        } else {
            0
        };
        for j in start..self.end() {
            let missing = self.word(j) & !other.word(j) & !below;
            if missing != 0 {
                return Some(j * BITS + missing.trailing_zeros() as usize);
            }
            below = 0;
        }
        None
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.ones * BITS
            + self
                .tail
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
    }

    /// The smallest value not in the set: the `k` of the longest prefix
    /// `{0, …, k-1}` the set holds. O(1), since the canonical form puts
    /// it in the first tail word.
    #[inline]
    pub fn prefix_len(&self) -> usize {
        self.ones * BITS + self.tail.first().map_or(0, |w| w.trailing_ones() as usize)
    }

    /// Returns `true` if the set contains no elements.
    pub fn is_empty(&self) -> bool {
        self.ones == 0 && self.tail.is_empty()
    }

    /// The largest element, or `None` for an empty set. O(1): the last
    /// tail word is nonzero, and without a tail the prefix ends the set.
    pub fn max(&self) -> Option<usize> {
        match self.tail.last() {
            Some(w) => Some(self.end() * BITS - 1 - w.leading_zeros() as usize),
            None => (self.ones * BITS).checked_sub(1),
        }
    }

    /// The words from `from` up to the last nonzero one, as `(j, word)`:
    /// word `j` holds the membership bits for values `64j..64j+64`, and
    /// words below the prefix read as all ones. Used by the streaming
    /// monitor for word-parallel window scans that skip the settled prefix,
    /// and by the memoized walk to build its queries' visibility rows.
    pub(crate) fn words_from(&self, from: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let ones = self.ones;
        (from..ones).map(|j| (j, !0)).chain(
            self.tail
                .iter()
                .enumerate()
                .skip(from.saturating_sub(ones))
                .map(move |(t, &w)| (ones + t, w)),
        )
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            next: 0,
            prefix_end: self.ones * BITS,
            tail: &self.tail,
            word: 0,
            bits: self.tail.first().copied().unwrap_or(0),
        }
    }
}

impl Clone for BitSet {
    #[inline]
    fn clone(&self) -> Self {
        BitSet {
            ones: self.ones,
            tail: self.tail.clone(),
        }
    }

    /// Reuses `self`'s tail buffer: a copy into a warm set allocates only
    /// when the source's tail is longer than any this set held.
    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.ones = source.ones;
        self.tail.clone_from(&source.tail);
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

/// Iterator over the elements of a [`BitSet`] in increasing order: the
/// prefix by counting, then the tail a word at a time.
#[derive(Debug)]
pub struct Iter<'a> {
    /// Next prefix element, while below `prefix_end`.
    next: usize,
    prefix_end: usize,
    tail: &'a [u64],
    /// Index into `tail` of the word `bits` was read from.
    word: usize,
    /// Bits of that word not yet yielded.
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.next < self.prefix_end {
            self.next += 1;
            return Some(self.next - 1);
        }
        loop {
            if self.bits != 0 {
                let bit = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(self.prefix_end + self.word * BITS + bit);
            }
            self.word += 1;
            self.bits = *self.tail.get(self.word)?;
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

    /// `is_covered_from` against its definition, element by element.
    fn covered_model(s: &BitSet, from: usize, window: &[u64]) -> bool {
        s.iter().filter(|&i| i >= 64 * from).all(|i| {
            let k = i / 64 - from;
            window.get(k).is_some_and(|w| w & (1 << (i % 64)) != 0)
        })
    }

    #[test]
    fn covered_from_skips_the_words_below_the_window() {
        let full = !0u64;
        // A prefix longer than the words the window skips: words 1 and 2
        // of `prefix(192)` must be full in the window.
        let s: BitSet = (0..192).chain([200]).collect();
        assert_eq!((s.ones, s.tail.len()), (3, 1));
        assert!(s.is_covered_from(1, &[full, full, 1 << 8]));
        assert!(!s.is_covered_from(1, &[full, full - 1, 1 << 8]));
        assert!(!s.is_covered_from(1, &[full, full, 0]));
        assert!(s.is_covered_from(3, &[1 << 8]));
        assert!(s.is_covered_from(4, &[]));
        // A tail straddling `from`: the words below it are not consulted.
        let s: BitSet = [5, 70, 130, 131].into_iter().collect();
        assert_eq!(s.ones, 0);
        assert!(s.is_covered_from(2, &[0b1100]));
        assert!(!s.is_covered_from(2, &[0b0100]));
        assert!(!s.is_covered_from(1, &[0, 0b1100]));
        assert!(s.is_covered_from(1, &[1 << 6, 0b1100]));
        // The empty set is covered by anything, an empty window included.
        assert!(BitSet::new().is_covered_from(0, &[]));
        assert!(BitSet::new().is_covered_from(3, &[0]));
        // A window shorter than the set: the words past it read as zero.
        let s: BitSet = [1, 65].into_iter().collect();
        assert!(!s.is_covered_from(0, &[full]));
        assert!(s.is_covered_from(1, &[full]));
        assert!(!BitSet::prefix(128).is_covered_from(0, &[full]));

        let sets: Vec<BitSet> = vec![
            BitSet::new(),
            BitSet::prefix(64),
            BitSet::prefix(100),
            [0, 63, 64, 127, 190].into_iter().collect(),
            (0..128).chain([129, 255]).collect(),
        ];
        let windows: [&[u64]; 6] = [
            &[],
            &[full],
            &[full, full],
            &[full, 1 << 63, 1 << 62],
            &[1, full, 1 << 63, full],
            &[full, full, full, full],
        ];
        for s in &sets {
            for from in 0..5 {
                for w in windows {
                    assert_eq!(
                        s.is_covered_from(from, w),
                        covered_model(s, from, w),
                        "{s:?} from word {from} in {w:x?}"
                    );
                }
            }
        }
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

    fn hash_of(s: &BitSet) -> u64 {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    /// Equality and hashing are set equality: a set emptied by `remove`
    /// equals a fresh one, and the order that built a set does not show.
    #[test]
    fn equal_sets_compare_and_hash_equal_whatever_built_them() {
        let mut emptied = BitSet::new();
        emptied.insert(70);
        emptied.remove(70);
        assert_eq!(emptied, BitSet::new());
        assert_eq!(hash_of(&emptied), hash_of(&BitSet::new()));

        let mut emptied = BitSet::prefix(200);
        for i in (0..200).rev() {
            emptied.remove(i);
        }
        assert_eq!(emptied, BitSet::new());

        let up: BitSet = (0..300).filter(|i| i % 97 != 5).collect();
        let down: BitSet = (0..300).rev().filter(|i| i % 97 != 5).collect();
        let mut carved = BitSet::prefix(300);
        for i in [5, 102, 199, 296] {
            carved.remove(i);
        }
        let mut joined: BitSet = (150..300).filter(|i| i % 97 != 5).collect();
        joined.union_with(&(0..150).filter(|i| i % 97 != 5).collect());
        for s in [&down, &carved, &joined] {
            assert_eq!(&up, s);
            assert_eq!(hash_of(&up), hash_of(s));
        }
    }

    /// A dense prefix costs no tail words; a set's heap follows what lies
    /// above its prefix.
    #[test]
    fn a_prefix_folds_into_the_count() {
        let mut s: BitSet = (0..1000).collect();
        assert_eq!((s.ones, s.tail.len()), (15, 1));
        s.insert(1000);
        s.insert(1001);
        s.extend(1002..1024);
        assert_eq!((s.ones, s.tail.len()), (16, 0));
        assert_eq!(s, BitSet::prefix(1024));
        assert_eq!((s.len(), s.max()), (1024, Some(1023)));
        assert!(s.remove(3));
        assert_eq!((s.ones, s.tail.len()), (0, 16));
        assert!(s.insert(3));
        assert_eq!((s.ones, s.tail.len()), (16, 0));
    }

    #[test]
    fn clone_from_copies_the_set_into_the_targets_buffer() {
        let wide: BitSet = [3, 70, 500].into_iter().collect();
        let mut target = wide.clone();
        let buffer = target.tail.as_ptr();
        for source in [
            BitSet::prefix(130),
            [64, 65].into_iter().collect(),
            BitSet::new(),
        ] {
            target.clone_from(&source);
            assert_eq!(target, source);
            assert_eq!(
                target.iter().collect::<Vec<_>>(),
                source.iter().collect::<Vec<_>>()
            );
        }
        target.clone_from(&wide);
        assert_eq!(target, wide);
        assert_eq!(target.tail.as_ptr(), buffer, "a warm copy reallocated");
    }

    #[test]
    fn debug_is_nonempty() {
        let s: BitSet = [1].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{1}");
        assert_eq!(format!("{:?}", BitSet::new()), "{}");
    }
}
