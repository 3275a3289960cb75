//! Constructive linearization strategies (Sections 4.1 and 4.2).
//!
//! * **Execution-order** (Theorem 4.4): linearize operations in the order
//!   their generators executed. History indices *are* generator order, so
//!   this is the identity permutation.
//! * **Timestamp-order** (Theorem 4.6): linearize by the timestamp `ts_h(ℓ)`
//!   — the generated timestamp, or for timestamp-less operations the maximal
//!   timestamp visible to them ("virtual" timestamp) — breaking ties by
//!   generator order.
//!
//! Both orders are consistent with visibility: if `ℓ₁ ≺ ℓ₂` then `ℓ₂`'s
//! generator ran after `ℓ₁`'s, and `ts_h(ℓ₁) ≤ ts_h(ℓ₂)` because timestamps
//! grow along visibility.

use super::check::{check_linearization, Violation};
use super::{Linearization, Strategy};
use crate::history::History;
use crate::spec::Spec;
use crate::timestamp::Ts;

/// The execution-order linearization: generator order, i.e. history index
/// order.
pub fn execution_order_of<L>(h: &History<L>) -> Vec<usize> {
    (0..h.len()).collect()
}

/// The timestamp-order linearization: sorted by `(ts_h(ℓ), generator order)`,
/// with `⊥ < Some(_)`.
pub fn timestamp_order_of<L>(h: &History<L>) -> Vec<usize> {
    let mut order: Vec<usize> = (0..h.len()).collect();
    let keys: Vec<Option<Ts>> = (0..h.len()).map(|i| h.virtual_ts(i)).collect();
    order.sort_by_key(|&i| (keys[i], i));
    order
}

/// Builds the guided linearization of the given strategy and validates it
/// against Definition 3.5. The history must be query-update free.
///
/// # Errors
///
/// Returns the [`Violation`] exhibited by the constructed sequence. Note
/// that for objects that *admit* the strategy (Theorems 4.4/4.6) a violation
/// here is a real bug; for other objects it merely means this particular
/// strategy fails (see Figure 8).
pub fn check_guided<S: Spec>(
    h: &History<S::Label>,
    spec: &S,
    strategy: Strategy,
) -> Result<Linearization, Violation> {
    let order = match strategy {
        Strategy::ExecutionOrder => execution_order_of(h),
        Strategy::TimestampOrder => timestamp_order_of(h),
    };
    check_linearization(h, spec, &order)?;
    Ok(Linearization { order })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::OpRecord;
    use crate::ids::ReplicaId;
    use crate::label::{Kind, SpecLabel};
    use crate::spec::Step;

    /// A last-writer-wins register specification keyed on write order.
    struct RegSpec;

    #[derive(Clone, Debug, PartialEq)]
    enum L {
        Write(u32),
        Read(Option<u32>),
    }

    impl SpecLabel for L {
        fn kind(&self) -> Kind {
            match self {
                L::Write(_) => Kind::Update,
                L::Read(_) => Kind::Query,
            }
        }
    }

    impl Spec for RegSpec {
        type Label = L;
        type State = Option<u32>;
        fn initial(&self) -> Option<u32> {
            None
        }
        fn step(&self, s: &Option<u32>, l: &L, out: &mut Vec<Option<u32>>) -> Step {
            match l {
                L::Write(v) => Step::write(out, Some(*v)),
                L::Read(v) => Step::unchanged_if(v == s),
            }
        }
    }

    fn r(i: u32) -> ReplicaId {
        ReplicaId(i)
    }

    #[test]
    fn execution_order_is_index_order() {
        let mut h = History::new();
        h.push(OpRecord::new(L::Write(1), r(0)), []);
        h.push(OpRecord::new(L::Write(2), r(1)), []);
        h.push(OpRecord::new(L::Read(Some(2)), r(1)), [0, 1]);
        assert_eq!(execution_order_of(&h), vec![0, 1, 2]);
    }

    #[test]
    fn timestamp_order_sorts_by_virtual_ts() {
        // Generator order: w_b (ts 2), w_a (ts 1), read seeing both.
        let mut h = History::new();
        let b = h.push(OpRecord::with_ts(L::Write(20), r(1), Ts::new(2, r(1))), []);
        let a = h.push(OpRecord::with_ts(L::Write(10), r(0), Ts::new(1, r(0))), []);
        let q = h.push(OpRecord::new(L::Read(Some(20)), r(0)), [a, b]);
        // TO: a (ts1) then b (ts2) then read (virtual ts2, later gen order).
        assert_eq!(timestamp_order_of(&h), vec![a, b, q]);
    }

    #[test]
    fn lww_register_needs_timestamp_order() {
        // Two concurrent writes; the read sees both and returns the one with
        // the larger timestamp even though its generator ran first.
        let mut h = History::new();
        let b = h.push(OpRecord::with_ts(L::Write(20), r(1), Ts::new(2, r(1))), []);
        let a = h.push(OpRecord::with_ts(L::Write(10), r(0), Ts::new(1, r(0))), []);
        let q = h.push(OpRecord::new(L::Read(Some(20)), r(0)), [a, b]);
        // Execution order (b, a, read 20) makes the read see value 10: fails.
        assert!(check_guided(&h, &RegSpec, Strategy::ExecutionOrder).is_err());
        // Timestamp order (a, b, read 20) succeeds.
        let lin = check_guided(&h, &RegSpec, Strategy::TimestampOrder).unwrap();
        assert_eq!(lin.order, vec![a, b, q]);
    }

    #[test]
    fn ties_broken_by_generator_order() {
        // A write and a later read with the same (virtual) timestamp: the
        // write must come first.
        let mut h = History::new();
        let w = h.push(OpRecord::with_ts(L::Write(7), r(0), Ts::new(1, r(0))), []);
        let q = h.push(OpRecord::new(L::Read(Some(7)), r(0)), [w]);
        assert_eq!(timestamp_order_of(&h), vec![w, q]);
        assert!(check_guided(&h, &RegSpec, Strategy::TimestampOrder).is_ok());
    }
}
