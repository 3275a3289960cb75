//! `Spec(Counter)` — Example 3.2 / Appendix B.1.
//!
//! The abstract state is an integer; `inc` and `dec` shift it and
//! `read() ⇒ k` is admitted exactly when `k` equals the state.

use ral_core::label::{Kind, SpecLabel};
use ral_core::spec::{Spec, Step};

/// Specification labels of the counter.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum CounterOp {
    /// `inc()` — an update.
    Inc,
    /// `dec()` — an update.
    Dec,
    /// `read() ⇒ k` — a query.
    Read(i64),
}

impl SpecLabel for CounterOp {
    fn kind(&self) -> Kind {
        match self {
            CounterOp::Inc | CounterOp::Dec => Kind::Update,
            CounterOp::Read(_) => Kind::Query,
        }
    }
}

/// The counter specification.
///
/// # Examples
///
/// ```
/// use ral_core::spec::admits;
/// use ral_spec::counter::{CounterOp, CounterSpec};
///
/// assert!(admits(&CounterSpec, &[CounterOp::Inc, CounterOp::Inc,
///                                CounterOp::Dec, CounterOp::Read(1)]));
/// assert!(!admits(&CounterSpec, &[CounterOp::Inc, CounterOp::Read(2)]));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSpec;

impl Spec for CounterSpec {
    type Label = CounterOp;
    type State = i64;

    fn initial(&self) -> i64 {
        0
    }

    fn state_fingerprint(&self, state: &Self::State) -> u64 {
        // All abstract states in this crate are `Hash`: skip the default
        // `Debug`-formatting path in the memoized checker's hot loop.
        ral_core::spec::fingerprint(state)
    }

    fn step(&self, state: &i64, label: &CounterOp, out: &mut Vec<i64>) -> Step {
        match label {
            CounterOp::Inc => Step::write(out, state + 1),
            CounterOp::Dec => Step::write(out, state - 1),
            CounterOp::Read(k) => Step::unchanged_if(k == state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ral_core::spec::admits;

    #[test]
    fn inc_dec_read() {
        assert!(admits(
            &CounterSpec,
            &[
                CounterOp::Inc,
                CounterOp::Read(1),
                CounterOp::Dec,
                CounterOp::Read(0)
            ]
        ));
    }

    #[test]
    fn negative_values_allowed() {
        assert!(admits(&CounterSpec, &[CounterOp::Dec, CounterOp::Read(-1)]));
    }

    #[test]
    fn wrong_read_rejected() {
        assert!(!admits(&CounterSpec, &[CounterOp::Read(5)]));
    }

    #[test]
    fn kinds() {
        assert!(CounterOp::Inc.is_update());
        assert!(CounterOp::Dec.is_update());
        assert!(CounterOp::Read(0).is_query());
    }
}
