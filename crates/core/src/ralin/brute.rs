//! Naive complete RA-linearizability search (the seed's ground truth).
//!
//! Enumerates linear extensions of the visibility relation by depth-first
//! search, pruning with two sound cuts:
//!
//! * placing an update whose frontier dies can never be completed
//!   (specification runs only shrink);
//! * a query's justification (condition (iii)) is fully determined the moment
//!   it is placed — all its visible updates are already placed and their
//!   relative order is fixed — so an unjustified query prunes immediately.
//!
//! The search is exponential in the number of concurrent operations and
//! re-derives every query justification from scratch. The **memoized
//! engine** ([`super::memo`], the default behind [`super::search`]) decides
//! the same question orders of magnitude faster; this module remains the
//! independent ground truth the property suites cross-check against.
//!
//! Budget semantics: every call of the recursive step charges one node,
//! except a *completed* linearization (depth = history length), which is
//! free — a search holding a complete valid order in hand is never
//! misreported as [`SearchOutcome::BudgetExhausted`].

use super::check::query_justified;
use super::{Linearization, SearchOutcome};
use crate::history::History;
use crate::label::SpecLabel;
use crate::spec::{FrontierStack, Spec};

struct Search<'a, S: Spec> {
    h: &'a History<S::Label>,
    spec: &'a S,
    // Number of not-yet-placed predecessors per operation.
    missing: Vec<usize>,
    placed: Vec<bool>,
    pos: Vec<usize>,
    order: Vec<usize>,
    /// The update projection's frontier after each placed update.
    fstack: FrontierStack<S::State>,
    budget: u64,
    exhausted: bool,
}

impl<S: Spec> Search<'_, S> {
    fn dfs(&mut self, depth: usize) -> Option<Vec<usize>> {
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
            // Tentatively place x.
            self.placed[x] = true;
            self.pos[x] = depth;
            self.order.push(x);

            let is_update = self.h.label(x).is_update();
            let feasible = if is_update {
                self.fstack.push_advanced(self.spec, self.h.label(x))
            } else {
                query_justified(self.h, self.spec, x, &self.pos)
            };

            if feasible {
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
                if is_update {
                    self.fstack.pop();
                }
                if res.is_some() {
                    return res;
                }
            }

            self.order.pop();
            self.pos[x] = usize::MAX;
            self.placed[x] = false;
            if self.exhausted {
                return None;
            }
        }
        None
    }
}

fn init_missing<L>(h: &History<L>) -> Vec<usize> {
    (0..h.len()).map(|i| h.preds(i).len()).collect()
}

/// Searches for an RA-linearization of `h` w.r.t. `spec` without a budget,
/// with the naive (non-memoized, single-threaded) engine. The history must
/// be query-update free.
pub fn search_brute<S: Spec>(h: &History<S::Label>, spec: &S) -> SearchOutcome {
    search_brute_with_budget(h, spec, u64::MAX)
}

/// Naive search visiting at most `budget` search nodes (completed
/// linearizations are free — see the module docs).
pub fn search_brute_with_budget<S: Spec>(
    h: &History<S::Label>,
    spec: &S,
    budget: u64,
) -> SearchOutcome {
    let mut s = Search {
        h,
        spec,
        missing: init_missing(h),
        placed: vec![false; h.len()],
        pos: vec![usize::MAX; h.len()],
        order: Vec::with_capacity(h.len()),
        fstack: FrontierStack::new(spec.initial()),
        budget,
        exhausted: false,
    };
    match s.dfs(0) {
        Some(order) => {
            debug_assert_eq!(
                super::check::check_linearization(h, spec, &order),
                Ok(()),
                "search returned an invalid linearization"
            );
            SearchOutcome::Linearizable(Linearization { order })
        }
        None if s.exhausted => SearchOutcome::BudgetExhausted,
        None => SearchOutcome::NotLinearizable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::OpRecord;
    use crate::ids::ReplicaId;
    use crate::label::Kind;
    use crate::spec::Step;

    /// Plain set with add/remove/read — remove here is a *plain update*
    /// (this is the specification under which OR-Set is NOT linearizable).
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
    fn finds_reordering_witness() {
        // add(1) || add(2), then a read that saw only add(2).
        let mut h = History::new();
        let _a = h.push(OpRecord::new(L::Add(1), r(0)), []);
        let b = h.push(OpRecord::new(L::Add(2), r(1)), []);
        let _q = h.push(OpRecord::new(L::Read(vec![2]), r(1)), [b]);
        let out = search_brute(&h, &SetSpec);
        let lin = match out {
            SearchOutcome::Linearizable(l) => l,
            other => panic!("expected witness, got {other:?}"),
        };
        assert!(h.order_consistent(&lin.order));
    }

    #[test]
    fn refutes_impossible_history() {
        // One replica adds 1 then reads {} while seeing its own add: no
        // linearization can justify the read.
        let mut h = History::new();
        let a = h.push(OpRecord::new(L::Add(1), r(0)), []);
        h.push(OpRecord::new(L::Read(vec![]), r(0)), [a]);
        assert_eq!(search_brute(&h, &SetSpec), SearchOutcome::NotLinearizable);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut h = History::new();
        for i in 0..6 {
            h.push(OpRecord::new(L::Add(i), r(i)), []);
        }
        h.push(OpRecord::new(L::Read(vec![]), r(0)), []);
        assert_eq!(
            search_brute_with_budget(&h, &SetSpec, 1),
            SearchOutcome::BudgetExhausted
        );
    }

    #[test]
    fn exact_budget_still_reports_the_witness() {
        // Regression for the budget off-by-one: a single-update history
        // needs exactly one search node; reaching the completed order on
        // the final node must report the witness, not BudgetExhausted.
        let mut h = History::new();
        h.push(OpRecord::new(L::Add(1), r(0)), []);
        assert!(search_brute_with_budget(&h, &SetSpec, 1).is_linearizable());
        // A two-op chain costs two nodes; the completion itself is free.
        let mut h2 = History::new();
        let a = h2.push(OpRecord::new(L::Add(1), r(0)), []);
        h2.push(OpRecord::new(L::Add(2), r(0)), [a]);
        assert!(search_brute_with_budget(&h2, &SetSpec, 2).is_linearizable());
        assert_eq!(
            search_brute_with_budget(&h2, &SetSpec, 1),
            SearchOutcome::BudgetExhausted
        );
    }

    #[test]
    fn empty_history_is_linearizable() {
        let h: History<L> = History::new();
        assert!(search_brute(&h, &SetSpec).is_linearizable());
    }
}
