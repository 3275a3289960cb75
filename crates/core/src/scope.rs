//! **Small-scope enumeration** — the interface behind `ral-analyze`'s
//! bounded-exhaustive obligation checking.
//!
//! The paper discharges its simulation obligations symbolically; the seeded
//! property suites in `ral-verify` only *sample* them. The middle ground is
//! small-scope analysis: enumerate **every** execution of a CRDT within a
//! bound `k` on the number of update operations — every choice of generator
//! call, origin replica, and message interleaving (which is what determines
//! the timestamps the Lamport discipline can issue) — and check each
//! obligation on each reachable configuration. The small-scope hypothesis
//! (and the paper's own counterexamples, all of which fit in 2–4 operations,
//! e.g. Figures 2, 8 and 10) says that a data type that violates an
//! obligation almost always violates it within a tiny bound.
//!
//! [`SmallScope`] is what a CRDT contributes to that search: the finite call
//! pool to enumerate at each step, and the number of replicas to model. The
//! exploration itself — a depth-first (LIFO) walk over cluster
//! configurations, obligation checks, and delta-debugging of counterexamples
//! — lives in the `ral-analyze` crate; implementations for the shipped data types live next
//! to the CRDTs in `ral-crdts`.

use std::fmt::Debug;

/// A finite enumeration of a CRDT's generator calls within a scope bound.
///
/// `k` bounds the number of *update* invocations in an explored execution;
/// queries are exercised separately (they have identity effectors, so the
/// replication obligations quantify over updates). Implementations must keep
/// pools small — the explored state space is exponential in `k` with base
/// proportional to `scope_replicas * scope_calls(..).len()`.
///
/// # Client obligations
///
/// Several data types constrain their callers (Section 3.2): RGA elements
/// must be globally fresh, a 2P-Set element may be added at most once, list
/// anchors must come from the local view. `scope_calls` receives the
/// **op index** — how many update invocations the execution has performed
/// before this one — precisely so pools can respect those obligations: the
/// `i`-th insertion introduces the fresh element `i + 1`, and anchors and
/// removals only mention elements introduced by earlier indices. Calls whose
/// precondition still fails at a particular replica (e.g. an anchor not yet
/// visible there) are refused by the generator and pruned by the search.
pub trait SmallScope {
    /// The generator-call type being enumerated (the CRDT's `Call`).
    type Call: Clone + Debug;

    /// Number of replicas to model at scope `k`.
    ///
    /// Three is the canonical choice for operation-based types: it is the
    /// smallest cluster where two effectors of concurrent operations can be
    /// simultaneously deliverable at a third replica — the configuration the
    /// commutativity obligation quantifies over.
    fn scope_replicas(&self, k: usize) -> usize;

    /// The candidate calls for the `op_index`-th update invocation
    /// (`op_index < k`) of an execution bounded by `k` updates.
    fn scope_calls(&self, op_index: usize, k: usize) -> Vec<Self::Call>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-call toy type exercising the trait surface.
    struct Toy;

    impl SmallScope for Toy {
        type Call = u8;
        fn scope_replicas(&self, _k: usize) -> usize {
            3
        }
        fn scope_calls(&self, op_index: usize, k: usize) -> Vec<u8> {
            assert!(op_index < k);
            vec![0, op_index as u8 + 1]
        }
    }

    #[test]
    fn pools_can_depend_on_the_op_index() {
        assert_eq!(Toy.scope_calls(0, 3), vec![0, 1]);
        assert_eq!(Toy.scope_calls(2, 3), vec![0, 3]);
        assert_eq!(Toy.scope_replicas(3), 3);
    }
}
