//! Standard (visibility-based) linearizability, for contrast with
//! RA-linearizability.
//!
//! Section 2.1 adapts linearizability to CRDTs by replacing the returns-before
//! order with visibility: a history is *linearizable* here if there is a
//! total order of **all** its operations, consistent with visibility, that is
//! admitted by the sequential specification — i.e. every operation (queries
//! included) executes against the full prefix before it. This is the notion
//! under which the OR-Set execution of Figure 5a has no witness, motivating
//! the sub-sequence relaxation and the query-update rewriting of
//! RA-linearizability.

use crate::history::History;
use crate::ralin::{Linearization, SearchOutcome};
use crate::spec::{FrontierStack, Spec};

/// Searches for a standard linearization: a total order of all operations,
/// consistent with visibility, admitted as a whole by `spec`.
pub fn linearizable<S: Spec>(h: &History<S::Label>, spec: &S) -> SearchOutcome {
    linearizable_with_budget(h, spec, u64::MAX)
}

/// Budgeted variant of [`linearizable`]; visits at most `budget` search
/// nodes.
pub fn linearizable_with_budget<S: Spec>(
    h: &History<S::Label>,
    spec: &S,
    budget: u64,
) -> SearchOutcome {
    struct St<'a, S: Spec> {
        h: &'a History<S::Label>,
        spec: &'a S,
        missing: Vec<usize>,
        placed: Vec<bool>,
        order: Vec<usize>,
        /// The frontier after each placed operation.
        fstack: FrontierStack<S::State>,
        budget: u64,
        exhausted: bool,
    }
    impl<S: Spec> St<'_, S> {
        fn dfs(&mut self, depth: usize) -> Option<Vec<usize>> {
            // Completion is checked before the budget (and costs nothing):
            // a search holding a complete order must report it.
            if depth == self.h.len() {
                return Some(self.order.clone());
            }
            if self.budget == 0 {
                self.exhausted = true;
                return None;
            }
            self.budget -= 1;
            for x in 0..self.h.len() {
                if self.placed[x] || self.missing[x] != 0 {
                    continue;
                }
                if self.fstack.push_advanced(self.spec, self.h.label(x)) {
                    self.placed[x] = true;
                    self.order.push(x);
                    for succ in 0..self.h.len() {
                        if self.h.sees(succ, x) {
                            self.missing[succ] -= 1;
                        }
                    }
                    let res = self.dfs(depth + 1);
                    for succ in 0..self.h.len() {
                        if self.h.sees(succ, x) {
                            self.missing[succ] += 1;
                        }
                    }
                    self.fstack.pop();
                    self.order.pop();
                    self.placed[x] = false;
                    if res.is_some() {
                        return res;
                    }
                }
                if self.exhausted {
                    return None;
                }
            }
            None
        }
    }
    let mut s = St {
        h,
        spec,
        missing: (0..h.len()).map(|i| h.preds(i).len()).collect(),
        placed: vec![false; h.len()],
        order: Vec::with_capacity(h.len()),
        fstack: FrontierStack::new(spec.initial()),
        budget,
        exhausted: false,
    };
    match s.dfs(0) {
        Some(order) => SearchOutcome::Linearizable(Linearization { order }),
        None if s.exhausted => SearchOutcome::BudgetExhausted,
        None => SearchOutcome::NotLinearizable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::OpRecord;
    use crate::ids::ReplicaId;
    use crate::label::{Kind, SpecLabel};
    use crate::spec::Step;

    struct SetSpec;

    #[derive(Clone, Debug, PartialEq)]
    #[allow(dead_code)]
    enum L {
        Add(u32),
        Rem(u32),
        Read(Vec<u32>),
    }

    impl SpecLabel for L {
        fn kind(&self) -> Kind {
            match self {
                L::Read(_) => Kind::Query,
                _ => Kind::Update,
            }
        }
    }

    impl Spec for SetSpec {
        type Label = L;
        type State = Vec<u32>;
        fn initial(&self) -> Vec<u32> {
            Vec::new()
        }
        fn step(&self, s: &Vec<u32>, l: &L, out: &mut Vec<Vec<u32>>) -> Step {
            match l {
                L::Add(x) => {
                    let mut t = s.clone();
                    if !t.contains(x) {
                        t.push(*x);
                        t.sort_unstable();
                    }
                    Step::write(out, t)
                }
                L::Rem(x) => Step::write(out, s.iter().copied().filter(|y| y != x).collect()),
                L::Read(v) => {
                    let mut sorted = v.clone();
                    sorted.sort_unstable();
                    Step::unchanged_if(sorted == *s)
                }
            }
        }
    }

    fn r(i: u32) -> ReplicaId {
        ReplicaId(i)
    }

    #[test]
    fn sequential_history_is_linearizable() {
        let mut h = History::new();
        let a = h.push(OpRecord::new(L::Add(1), r(0)), []);
        let _q = h.push(OpRecord::new(L::Read(vec![1]), r(0)), [a]);
        assert!(linearizable(&h, &SetSpec).is_linearizable());
    }

    #[test]
    fn stale_read_is_not_linearizable_but_reorderable_one_is() {
        // read returning {} after seeing add(1): impossible in any order.
        let mut h = History::new();
        let a = h.push(OpRecord::new(L::Add(1), r(0)), []);
        h.push(OpRecord::new(L::Read(vec![]), r(0)), [a]);
        assert!(linearizable(&h, &SetSpec).is_refuted());

        // read returning {} concurrent with add(1): order read first.
        let mut h2 = History::new();
        h2.push(OpRecord::new(L::Add(1), r(0)), []);
        h2.push(OpRecord::new(L::Read(vec![]), r(1)), []);
        assert!(linearizable(&h2, &SetSpec).is_linearizable());
    }

    #[test]
    fn budget_is_respected() {
        let mut h = History::new();
        for i in 0..8 {
            h.push(OpRecord::new(L::Add(i), r(i)), []);
        }
        assert_eq!(
            linearizable_with_budget(&h, &SetSpec, 1),
            SearchOutcome::BudgetExhausted
        );
    }
}
