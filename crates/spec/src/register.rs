//! Register specifications: `Spec(Reg)` for the LWW-Register (Appendix B.2)
//! and `Spec(MV-Reg)` for the Multi-Value Register (Appendix E.1).

use ral_core::elem::Elem;
use ral_core::label::{Kind, SpecLabel};
use ral_core::spec::{Spec, Step};
use std::collections::BTreeSet;
use std::marker::PhantomData;

/// Specification labels of the LWW register.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum RegOp<E> {
    /// `write(a)` — an update.
    Write(E),
    /// `read() ⇒ a` — a query (`None` is the initial, unwritten value).
    Read(Option<E>),
}

impl<E> SpecLabel for RegOp<E> {
    fn kind(&self) -> Kind {
        match self {
            RegOp::Write(_) => Kind::Update,
            RegOp::Read(_) => Kind::Query,
        }
    }
}

/// `Spec(Reg)`: the abstract state is the last written value.
///
/// # Examples
///
/// ```
/// use ral_core::spec::admits;
/// use ral_spec::register::{RegOp, RegSpec};
///
/// let spec = RegSpec::new();
/// assert!(admits(&spec, &[RegOp::Write('x'), RegOp::Read(Some('x'))]));
/// assert!(admits(&spec, &[RegOp::Read(None)]));
/// assert!(!admits(&spec, &[RegOp::Write('x'), RegOp::Read(None)]));
/// ```
pub struct RegSpec<E> {
    _elem: PhantomData<E>,
}

impl<E> RegSpec<E> {
    /// Creates the LWW register specification (initially unwritten).
    pub fn new() -> Self {
        RegSpec { _elem: PhantomData }
    }
}

impl<E> Clone for RegSpec<E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for RegSpec<E> {}

impl<E> Default for RegSpec<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for RegSpec<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RegSpec")
    }
}

impl<E: Elem> Spec for RegSpec<E> {
    type Label = RegOp<E>;
    type State = Option<E>;

    fn initial(&self) -> Option<E> {
        None
    }

    fn state_fingerprint(&self, state: &Self::State) -> u64 {
        // All abstract states in this crate are `Hash`: skip the default
        // `Debug`-formatting path in the memoized checker's hot loop.
        ral_core::spec::fingerprint(state)
    }

    fn step(&self, state: &Option<E>, label: &RegOp<E>, out: &mut Vec<Option<E>>) -> Step {
        match label {
            RegOp::Write(a) => Step::write(out, Some(a.clone())),
            RegOp::Read(a) => Step::unchanged_if(a == state),
        }
    }
}

/// A version vector (one counter per replica), the identifier domain of the
/// MV-Register.
pub type VersionVec = Vec<u64>;

/// Pointwise order on version vectors: `a ⊑ b`.
pub fn vv_leq(a: &VersionVec, b: &VersionVec) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x <= y)
}

/// Strict pointwise order: `a ⊏ b`.
pub fn vv_lt(a: &VersionVec, b: &VersionVec) -> bool {
    vv_leq(a, b) && a != b
}

/// Specification labels of the Multi-Value Register, after the rewriting
/// `γ(write(a) ⇒ V) = write(a, V)` (Appendix E.1).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum MvRegOp<E> {
    /// `write(a, id)` — an update; the identifier is the version vector the
    /// write generated.
    Write(E, VersionVec),
    /// `read() ⇒ A` — a query returning the set of concurrently-latest
    /// values.
    Read(BTreeSet<E>),
}

impl<E> SpecLabel for MvRegOp<E> {
    fn kind(&self) -> Kind {
        match self {
            MvRegOp::Write(..) => Kind::Update,
            MvRegOp::Read(_) => Kind::Query,
        }
    }
}

/// `Spec(MV-Reg)`: the abstract state is a set of value/identifier pairs;
/// a write removes every pair with a strictly smaller identifier.
pub struct MvRegSpec<E> {
    _elem: PhantomData<E>,
}

impl<E> MvRegSpec<E> {
    /// Creates the MV-Register specification.
    pub fn new() -> Self {
        MvRegSpec { _elem: PhantomData }
    }
}

impl<E> Clone for MvRegSpec<E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for MvRegSpec<E> {}

impl<E> Default for MvRegSpec<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for MvRegSpec<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MvRegSpec")
    }
}

impl<E: Elem> Spec for MvRegSpec<E> {
    type Label = MvRegOp<E>;
    type State = BTreeSet<(E, VersionVec)>;

    fn initial(&self) -> Self::State {
        BTreeSet::new()
    }

    fn state_fingerprint(&self, state: &Self::State) -> u64 {
        // All abstract states in this crate are `Hash`: skip the default
        // `Debug`-formatting path in the memoized checker's hot loop.
        ral_core::spec::fingerprint(state)
    }

    fn step(&self, state: &Self::State, label: &MvRegOp<E>, out: &mut Vec<Self::State>) -> Step {
        match label {
            MvRegOp::Write(a, id) => {
                // Precondition: id is not ≤ any identifier already present.
                if state.iter().any(|(_, id2)| vv_leq(id, id2)) {
                    return Step::Refused;
                }
                let mut next: Self::State = state
                    .iter()
                    .filter(|(_, id2)| !vv_lt(id2, id))
                    .cloned()
                    .collect();
                next.insert((a.clone(), id.clone()));
                Step::write(out, next)
            }
            MvRegOp::Read(a) => Step::unchanged_if(crate::set::distinct_firsts(state).eq(a)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ral_core::spec::admits;

    #[test]
    fn lww_register_roundtrip() {
        let spec = RegSpec::new();
        assert!(admits(
            &spec,
            &[
                RegOp::Write(1u32),
                RegOp::Write(2),
                RegOp::Read(Some(2)),
                RegOp::Read(Some(2))
            ]
        ));
        assert!(!admits(&spec, &[RegOp::Write(1u32), RegOp::Read(Some(3))]));
    }

    #[test]
    fn version_vector_order() {
        assert!(vv_leq(&vec![1, 2], &vec![1, 2]));
        assert!(vv_lt(&vec![1, 2], &vec![2, 2]));
        assert!(!vv_leq(&vec![1, 2], &vec![2, 1]));
        assert!(!vv_lt(&vec![1, 2], &vec![1, 2]));
        assert!(
            !vv_leq(&vec![1], &vec![1, 2]),
            "length mismatch is incomparable"
        );
    }

    #[test]
    fn mv_register_keeps_concurrent_writes() {
        let spec = MvRegSpec::new();
        // Two concurrent writes (incomparable vectors) both survive.
        let seq = [
            MvRegOp::Write('a', vec![1, 0]),
            MvRegOp::Write('b', vec![0, 1]),
            MvRegOp::Read(BTreeSet::from(['a', 'b'])),
        ];
        assert!(admits(&spec, &seq));
    }

    #[test]
    fn mv_register_dominating_write_overwrites() {
        let spec = MvRegSpec::new();
        let seq = [
            MvRegOp::Write('a', vec![1, 0]),
            MvRegOp::Write('b', vec![2, 1]),
            MvRegOp::Read(BTreeSet::from(['b'])),
        ];
        assert!(admits(&spec, &seq));
    }

    #[test]
    fn mv_register_rejects_dominated_write() {
        let spec = MvRegSpec::new();
        let seq = [
            MvRegOp::Write('a', vec![2, 2]),
            MvRegOp::Write('b', vec![1, 1]), // dominated: precondition fails
        ];
        assert!(!admits(&spec, &seq));
    }

    #[test]
    fn mv_register_rejects_wrong_read() {
        let spec = MvRegSpec::new();
        let seq = [
            MvRegOp::Write('a', vec![1, 0]),
            MvRegOp::Read(BTreeSet::from(['b'])),
        ];
        assert!(!admits(&spec, &seq));
    }

    #[test]
    fn kinds() {
        assert!(RegOp::Write(1u32).is_update());
        assert!(RegOp::<u32>::Read(None).is_query());
        assert!(MvRegOp::Write('a', vec![]).is_update());
        assert!(MvRegOp::<char>::Read(BTreeSet::new()).is_query());
    }
}
