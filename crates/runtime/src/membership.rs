//! Per-replica membership bookkeeping shared by every transport.
//!
//! The three delivery cores ([`Cluster`](crate::op_based::Cluster),
//! [`DeltaCluster`](crate::delta::DeltaCluster),
//! [`MultiCluster`](crate::multi::MultiCluster)) used to keep their own copy
//! of the same two facts about a replica: *which operations it has applied*
//! (the seen-set that drives causal deliverability and history visibility)
//! and *whether its process is running* (crash/restart liveness). This module
//! extracts that pair into one [`Member`] value each transport embeds in its
//! node struct, so the crash semantics and the seen-set invariant — `seen`
//! grows monotonically, one insert per applied operation — live in exactly
//! one place.
//!
//! Clock discipline deliberately stays transport-specific: the op-based
//! cluster carries one Lamport clock, the composed cluster a vector of
//! per-slot clocks, and the lattice core checkpoints its clock into durable
//! storage. A [`Member`] is only liveness plus visibility.

use ral_core::bitset::BitSet;
use ral_core::ids::ReplicaId;

/// Liveness and visibility bookkeeping for one replica.
///
/// The seen-set is the ground truth for delivery state: an operation's
/// effector has been applied at this replica **iff** its history index is in
/// `seen` (origins insert at invoke time, receivers insert at delivery
/// time). Transports therefore need no per-record `delivered` flags: a
/// drain reads shared immutable records and writes only its own replica.
#[derive(Debug, PartialEq, Eq)]
pub struct Member {
    seen: BitSet,
    /// First operation id *not* in `seen`: [`BitSet::prefix_len`], kept
    /// beside the set because every receive and every monitor observation
    /// reads it, and the set's first tail word lives on the heap. A pure
    /// function of `seen`, so the derived `PartialEq` stays consistent.
    /// Everything below the frontier is seen, which gives deliverability
    /// checks an O(1) fast path: an operation whose predecessors all lie
    /// below the frontier needs no set scan.
    frontier: usize,
    up: bool,
}

impl Member {
    /// A fresh, running member that has seen nothing.
    pub fn new() -> Self {
        Member {
            seen: BitSet::new(),
            frontier: 0,
            up: true,
        }
    }

    /// Whether the replica process is running (not crashed).
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Halts the replica: it refuses invocations, deliveries, and sends
    /// until [`Member::restart`]. Crashing never forgets — what survives a
    /// crash (everything for durable transports, a checkpoint for
    /// write-ahead ones) is the embedding transport's decision.
    pub fn crash(&mut self) {
        self.up = false;
    }

    /// Resumes a crashed replica.
    pub fn restart(&mut self) {
        self.up = true;
    }

    /// Panics with the transport's uniform liveness message when the
    /// replica is crashed. `action` is the verb phrase of the refused
    /// operation — `"invoke at"`, `"deliver at"`, `"apply at"`,
    /// `"send from"`, `"gossip at"`, `"ingest at"`.
    ///
    /// # Panics
    ///
    /// Panics iff the member is crashed.
    pub fn expect_up(&self, action: &str, r: ReplicaId) {
        assert!(self.up, "cannot {action} crashed replica {r}");
    }

    /// The set of operations applied at this replica.
    pub fn seen(&self) -> &BitSet {
        &self.seen
    }

    /// Whether operation `op` has been applied at this replica.
    pub fn has_seen(&self, op: usize) -> bool {
        op < self.frontier || self.seen.contains(op)
    }

    /// The contiguously-seen prefix: every operation with id below the
    /// returned value has been applied at this replica, and the operation
    /// *at* the returned id has not. Because operation ids ascend with
    /// creation order, `op <= frontier()` certifies that every causal
    /// predecessor of `op` (all of which have smaller ids) is seen —
    /// the constant-time deliverability fast path the drain hot loop takes
    /// on steady-state (hole-free) seen-sets.
    pub fn frontier(&self) -> usize {
        self.frontier
    }

    /// Records that operation `op` has been applied here.
    pub fn observe(&mut self, op: usize) {
        self.seen.insert(op);
        if op == self.frontier {
            self.frontier = self.seen.prefix_len();
        }
    }

    /// Merges another replica's seen-set into this one (state/delta
    /// transports propagate visibility wholesale with each message).
    pub fn merge_seen(&mut self, other: &BitSet) {
        self.seen.union_with(other);
        self.frontier = self.seen.prefix_len();
    }
}

impl Clone for Member {
    #[inline]
    fn clone(&self) -> Self {
        Member {
            seen: self.seen.clone(),
            frontier: self.frontier,
            up: self.up,
        }
    }

    /// Reuses `self`'s seen-set buffer ([`BitSet`]'s `clone_from`).
    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.seen.clone_from(&source.seen);
        self.frontier = source.frontier;
        self.up = source.up;
    }
}

impl Default for Member {
    fn default() -> Self {
        Member::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_member_is_up_and_empty() {
        let m = Member::new();
        assert!(m.is_up());
        assert!(m.seen().is_empty());
        assert!(!m.has_seen(0));
    }

    #[test]
    fn observe_and_merge_grow_the_seen_set() {
        let mut a = Member::new();
        a.observe(3);
        assert!(a.has_seen(3));
        let mut b = Member::new();
        b.observe(5);
        a.merge_seen(b.seen());
        assert!(a.has_seen(3) && a.has_seen(5));
    }

    #[test]
    fn crash_restart_round_trips() {
        let mut m = Member::new();
        m.crash();
        assert!(!m.is_up());
        m.restart();
        assert!(m.is_up());
        m.expect_up("deliver at", ReplicaId(0));
    }

    #[test]
    #[should_panic(expected = "cannot invoke at crashed replica r2")]
    fn expect_up_panics_with_the_transport_message() {
        let mut m = Member::new();
        m.crash();
        m.expect_up("invoke at", ReplicaId(2));
    }

    /// The frontier is always the first unseen id — through out-of-order
    /// observes and merges.
    #[test]
    fn frontier_is_canonical_first_unseen_id() {
        let mut m = Member::new();
        assert_eq!(m.frontier(), 0);
        m.observe(2); // hole at 0 and 1
        assert_eq!(m.frontier(), 0);
        m.observe(0);
        assert_eq!(m.frontier(), 1);
        m.observe(1); // closing the hole sweeps past the earlier observe
        assert_eq!(m.frontier(), 3);

        let mut other = BitSet::new();
        other.insert(3);
        other.insert(5);
        m.merge_seen(&other);
        assert_eq!(m.frontier(), 4);
    }

    /// Members that saw the same operations compare equal regardless of the
    /// order they saw them in — the canonical frontier cannot split them.
    #[test]
    fn equal_seen_sets_compare_equal_whatever_the_observe_order() {
        let mut a = Member::new();
        let mut b = Member::new();
        for op in [0usize, 1, 2, 7] {
            a.observe(op);
        }
        for op in [7usize, 2, 0, 1] {
            b.observe(op);
        }
        assert_eq!(a, b);
        assert_eq!(a.frontier(), b.frontier());
    }
}
