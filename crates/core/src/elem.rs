//! The data domain `D` (Section 3.1), as a bound alias.
//!
//! Specifications and CRDTs are generic over the element type stored in the
//! data structure; [`Elem`] bundles the bounds they all need (cloning for
//! effector payloads, ordering for deterministic set representations,
//! hashing for tombstone lookups).

use std::fmt::Debug;
use std::hash::Hash;

/// An element of the data domain: any cloneable, totally ordered, hashable
/// value (e.g. `char`, `u32`, `String`).
pub trait Elem: Clone + Debug + Eq + Ord + Hash {}

impl<T: Clone + Debug + Eq + Ord + Hash> Elem for T {}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_elem<T: Elem>() {}

    #[test]
    fn common_types_are_elems() {
        assert_elem::<char>();
        assert_elem::<u32>();
        assert_elem::<String>();
        assert_elem::<(u32, char)>();
    }
}
