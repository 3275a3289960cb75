//! Validation of a candidate linearization against Definition 3.5.

use crate::history::History;
use crate::label::SpecLabel;
use crate::spec::{Frontier, Spec};
use std::fmt;

/// Why a candidate sequence fails to be an RA-linearization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The sequence is not a permutation of the history's operations.
    NotAPermutation,
    /// Condition (i): an operation is placed before one of its visibility
    /// predecessors.
    InconsistentWithVisibility {
        /// The predecessor (`(earlier, later) ∈ vis`).
        earlier: usize,
        /// The operation that saw `earlier` yet was placed before it.
        later: usize,
    },
    /// Condition (ii): the projection onto updates is not admitted by the
    /// specification; `at` is the first offending update.
    UpdatesNotAdmitted {
        /// History index of the first update at which every specification run
        /// dies.
        at: usize,
    },
    /// Condition (iii): a query is not justified by the sub-sequence of
    /// updates visible to it.
    QueryNotJustified {
        /// History index of the unjustifiable query.
        query: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::NotAPermutation => write!(f, "sequence is not a permutation of the history"),
            Violation::InconsistentWithVisibility { earlier, later } => write!(
                f,
                "operation {later} sees operation {earlier} but is linearized before it"
            ),
            Violation::UpdatesNotAdmitted { at } => write!(
                f,
                "update projection rejected by the specification at operation {at}"
            ),
            Violation::QueryNotJustified { query } => {
                write!(f, "query {query} is not justified by its visible updates")
            }
        }
    }
}

impl std::error::Error for Violation {}

/// Condition (iii) of Definition 3.5 for a single query `q`: runs the
/// updates visible to `q` in the order given by `pos` (the linearization
/// position of every *placed* operation) and checks that the frontier then
/// admits `q`'s label.
///
/// This is the one shared justification routine: the validator
/// ([`check_linearization`]), the naive searcher
/// ([`super::brute::search_brute`]), and the memoized engine's
/// cross-checks all call it, so condition (iii) cannot silently diverge
/// between them. Callers guarantee every update visible to `q` has a
/// valid entry in `pos`.
pub(crate) fn query_justified<S: Spec>(
    h: &History<S::Label>,
    spec: &S,
    q: usize,
    pos: &[usize],
) -> bool {
    let mut visible: Vec<usize> = h
        .preds(q)
        .iter()
        .filter(|&u| h.label(u).is_update())
        .collect();
    visible.sort_by_key(|&u| pos[u]);
    let mut f = Frontier::new(spec);
    for u in visible {
        if !f.advance(h.label(u)) {
            return false;
        }
    }
    f.admits(h.label(q))
}

/// Checks that `order` is an RA-linearization of `h` w.r.t. `spec`
/// (Definition 3.5). The history must already be query-update free (apply
/// [`crate::history::rewrite_history`] first).
///
/// # Errors
///
/// Returns the first [`Violation`] found, checking condition (i), then (ii),
/// then (iii).
pub fn check_linearization<S: Spec>(
    h: &History<S::Label>,
    spec: &S,
    order: &[usize],
) -> Result<(), Violation> {
    // Permutation check.
    if order.len() != h.len() {
        return Err(Violation::NotAPermutation);
    }
    let mut pos = vec![usize::MAX; h.len()];
    for (p, &i) in order.iter().enumerate() {
        if i >= h.len() || pos[i] != usize::MAX {
            return Err(Violation::NotAPermutation);
        }
        pos[i] = p;
    }

    // (i) consistency with visibility.
    for later in 0..h.len() {
        for earlier in h.preds(later) {
            if pos[earlier] >= pos[later] {
                return Err(Violation::InconsistentWithVisibility { earlier, later });
            }
        }
    }

    // (ii) update projection admitted by the specification.
    let mut frontier = Frontier::new(spec);
    for &i in order {
        if h.label(i).is_update() && !frontier.advance(h.label(i)) {
            return Err(Violation::UpdatesNotAdmitted { at: i });
        }
    }

    // (iii) every query justified by its visible updates, in seq order.
    for &q in order {
        if h.label(q).is_query() && !query_justified(h, spec, q, &pos) {
            return Err(Violation::QueryNotJustified { query: q });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::OpRecord;
    use crate::ids::ReplicaId;
    use crate::label::Kind;
    use crate::spec::Step;

    /// Toy grow-only set.
    struct GSet;

    #[derive(Clone, Debug, PartialEq)]
    enum L {
        Add(u32),
        Read(Vec<u32>),
    }

    impl SpecLabel for L {
        fn kind(&self) -> Kind {
            match self {
                L::Add(_) => Kind::Update,
                L::Read(_) => Kind::Query,
            }
        }
    }

    impl Spec for GSet {
        type Label = L;
        type State = Vec<u32>;
        fn initial(&self) -> Vec<u32> {
            Vec::new()
        }
        fn step(&self, s: &Vec<u32>, l: &L, out: &mut Vec<Vec<u32>>) -> Step {
            match l {
                L::Add(x) => {
                    let mut s = s.clone();
                    s.push(*x);
                    s.sort_unstable();
                    Step::write(out, s)
                }
                L::Read(v) => {
                    let mut sorted = v.clone();
                    sorted.sort_unstable();
                    Step::unchanged_if(&sorted == s)
                }
            }
        }
    }

    fn r0() -> ReplicaId {
        ReplicaId(0)
    }

    #[test]
    fn accepts_valid_linearization() {
        let mut h = History::new();
        let a = h.push(OpRecord::new(L::Add(1), r0()), []);
        let b = h.push(OpRecord::new(L::Add(2), ReplicaId(1)), []);
        // The read sees only a.
        let q = h.push(OpRecord::new(L::Read(vec![1]), r0()), [a]);
        assert_eq!(check_linearization(&h, &GSet, &[a, b, q]), Ok(()));
        assert_eq!(check_linearization(&h, &GSet, &[b, a, q]), Ok(()));
        assert_eq!(check_linearization(&h, &GSet, &[a, q, b]), Ok(()));
    }

    #[test]
    fn rejects_visibility_violation() {
        let mut h = History::new();
        let a = h.push(OpRecord::new(L::Add(1), r0()), []);
        let q = h.push(OpRecord::new(L::Read(vec![1]), r0()), [a]);
        assert_eq!(
            check_linearization(&h, &GSet, &[q, a]),
            Err(Violation::InconsistentWithVisibility {
                earlier: a,
                later: q
            })
        );
    }

    #[test]
    fn rejects_unjustified_query() {
        let mut h = History::new();
        let a = h.push(OpRecord::new(L::Add(1), r0()), []);
        // Claims to have read {1,2} while seeing only add(1).
        let q = h.push(OpRecord::new(L::Read(vec![1, 2]), r0()), [a]);
        assert_eq!(
            check_linearization(&h, &GSet, &[a, q]),
            Err(Violation::QueryNotJustified { query: q })
        );
    }

    #[test]
    fn query_ignores_invisible_updates() {
        // The subsequence relaxation: a read that doesn't see add(2) may
        // return {1} even if add(2) is linearized before it.
        let mut h = History::new();
        let a = h.push(OpRecord::new(L::Add(1), r0()), []);
        let b = h.push(OpRecord::new(L::Add(2), ReplicaId(1)), []);
        let q = h.push(OpRecord::new(L::Read(vec![1]), r0()), [a]);
        assert_eq!(check_linearization(&h, &GSet, &[b, a, q]), Ok(()));
    }

    #[test]
    fn rejects_non_permutations() {
        let mut h = History::new();
        let a = h.push(OpRecord::new(L::Add(1), r0()), []);
        assert_eq!(
            check_linearization(&h, &GSet, &[]),
            Err(Violation::NotAPermutation)
        );
        assert_eq!(
            check_linearization(&h, &GSet, &[a, a]),
            Err(Violation::NotAPermutation)
        );
        assert_eq!(
            check_linearization(&h, &GSet, &[7]),
            Err(Violation::NotAPermutation)
        );
    }

    /// A spec where updates have preconditions, to exercise condition (ii).
    struct Once;

    impl Spec for Once {
        type Label = L;
        type State = Vec<u32>;
        fn initial(&self) -> Vec<u32> {
            Vec::new()
        }
        fn step(&self, s: &Vec<u32>, l: &L, out: &mut Vec<Vec<u32>>) -> Step {
            match l {
                L::Add(x) if s.contains(x) => Step::Refused, // each element only once
                L::Add(x) => {
                    let mut s = s.clone();
                    s.push(*x);
                    s.sort_unstable();
                    Step::write(out, s)
                }
                L::Read(_) => Step::Unchanged,
            }
        }
    }

    #[test]
    fn rejects_inadmissible_update_projection() {
        let mut h = History::new();
        let a = h.push(OpRecord::new(L::Add(1), r0()), []);
        let b = h.push(OpRecord::new(L::Add(1), ReplicaId(1)), []);
        assert_eq!(
            check_linearization(&h, &Once, &[a, b]),
            Err(Violation::UpdatesNotAdmitted { at: b })
        );
    }

    #[test]
    fn violation_display() {
        let v = Violation::QueryNotJustified { query: 3 };
        assert_eq!(
            v.to_string(),
            "query 3 is not justified by its visible updates"
        );
        assert!(!Violation::NotAPermutation.to_string().is_empty());
        let v = Violation::InconsistentWithVisibility {
            earlier: 1,
            later: 2,
        };
        assert!(v.to_string().contains("sees"));
        let v = Violation::UpdatesNotAdmitted { at: 0 };
        assert!(v.to_string().contains("rejected"));
    }
}
