//! Per-replica mailboxes and the shared delivery-record pool.
//!
//! The op-based cluster ([`OpCluster`](crate::op_based::OpCluster), both as
//! a single-object [`Cluster`](crate::op_based::Cluster) and as a composed
//! [`MultiCluster`](crate::multi::MultiCluster)) broadcasts this way: an
//! invocation appends one immutable [`DeliveryRecord`] to a cluster-wide
//! pool, and because every record is addressed to *every* other replica, a
//! replica's inbound queue is just a suffix of that pool — each [`Mailbox`]
//! tracks a `cursor` (the first pool id no drain of this replica has
//! examined yet) instead of materializing per-replica queues, so an
//! invocation broadcasts in O(1) without touching any other replica's
//! memory. Delivery then happens replica-locally: a drain walks the blocked
//! `backlog` and then the pool from the cursor up, in ascending id order,
//! applies whatever causal delivery admits, and keeps the rest in the
//! backlog. Because record ids ascend with operation ids and every causal
//! predecessor of a record has a smaller id, **one ascending pass reaches
//! the fixpoint** — no retry loop. A drain writes nothing but its own
//! replica's node, and `deliver_all` drains the replicas in ascending
//! order: one EFFECTOR step at one replica at a time, the interleaving
//! semantics of Figure 7.
//!
//! The pending set is pruned lazily: whether an id is still pending is
//! decided by the replica's seen-set (see [`crate::membership::Member`]),
//! never by per-record flags — own-origin records and targeted deliveries
//! are simply skipped as already seen — so broadcasting, draining, and
//! targeted delivery all agree by construction.
//!
//! Out-of-order network arrivals wait in the mailbox's **holdback**, the
//! classic causal-broadcast holdback queue: an arrival causal delivery does
//! not admit yet is *filed under* the one predecessor operation it still
//! lacks, which the admission rule names. Applying an operation wakes
//! only the arrivals filed under it; a woken arrival that lacks another
//! predecessor is filed again under that one. Every held arrival is either
//! *ready* — held while the replica was down, or woken by a targeted
//! `deliver` — or filed under an operation the replica has not seen (a
//! drain applies the whole pool, so it empties the holdback). So an
//! in-order arrival re-examines the ready ones and what it wakes, smallest
//! id first, and releases exactly the causal closure a rescan of every held
//! arrival would: a receive costs what it releases, not what is held.
//!
//! Every admit asks the holdback what the operation wakes, and a replica
//! often waits on something else (on `batch_composed`, a third of all
//! admits find the holdback non-empty, and few of those wake anything).
//! So the filed arrivals are indexed by the operation they await: an
//! admit that wakes nothing costs one hash probe and allocates nothing.
//!
//! This module holds the data: the pool's records, each replica's
//! [`Mailbox`] and its node. The delivery logic that reads them — the
//! precondition trio (`deliverable_into` / `can_deliver` / `deliver`), the
//! holdback `receive` loop and the drain — is written once, as methods of
//! [`OpCluster`](crate::op_based::OpCluster), over the admission rule and
//! apply step of how its records name their object: the only two things
//! that differ between one object and a composition.

use crate::membership::Member;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// One replicated effector, broadcast at invoke time and applied at most
/// once per replica.
///
/// Records are immutable after creation — all delivery state lives in the
/// receiving replica's seen-set. `M` carries naming-specific metadata
/// (`()` for the single-object cluster; the object id for the composed
/// one).
#[derive(Clone, Debug)]
pub struct DeliveryRecord<E, M = ()> {
    /// History index of the operation this record replicates.
    pub op: usize,
    /// Effector payload; `None` for queries (identity effectors).
    pub eff: Option<E>,
    /// The origin replica's Lamport clock right after the generator ran;
    /// receivers take the max, so clocks propagate even through identity
    /// effectors (the paper's monotone-counter requirement, Section 5.3).
    pub clock: u64,
    /// Naming-specific metadata.
    pub meta: M,
}

/// A replica's view of its inbound deliveries.
///
/// `cursor` marks the prefix of the shared record pool this replica's
/// drains have already examined; everything at or above it is implicitly
/// queued (broadcast is O(1): appending to the pool addresses everyone).
/// `backlog` holds examined-but-blocked ids — records below the cursor
/// whose causal predecessors were missing at drain time — kept ascending.
/// The holdback buffers out-of-order network arrivals: ids a simulator
/// handed to [`receive`](crate::op_based::OpCluster::receive) before causal
/// delivery admitted them, each either `ready` to be re-examined or
/// `waiting` on the one predecessor operation it was filed under.
///
/// `waiting` is indexed by the awaited operation: the arrivals filed under
/// operation `op` form a list threaded through one flat hash table, whose
/// key `(op, END)` names the newest of them and key `(op, id)` the one
/// filed before `id` (`END` after the oldest). So waking `op` is one probe
/// when nothing waits on it, filing is a membership probe and two inserts,
/// and no entry has a heap node of its own. The table hands its storage
/// back when its last waiter wakes, so a replica that waits on nothing
/// keeps no table, whatever it held before.
#[derive(Clone, Debug, Default)]
pub struct Mailbox {
    cursor: usize,
    backlog: Vec<usize>,
    ready: BinaryHeap<Reverse<usize>>,
    waiting: HashMap<(usize, usize), usize, BuildIdHasher>,
    /// Arrivals in `waiting`: its entries other than the list heads.
    filed: usize,
}

/// The end of a waiter list, and the second half of a list head's key:
/// arrival ids index the record pool, so none is `usize::MAX`.
const END: usize = usize::MAX;

/// Hashes the waiting index's keys, pairs of operation and arrival ids, a
/// rotate, an xor and a multiply per word (the Fx hash). The ids come from
/// the cluster, not from an adversary, so SipHash's flooding resistance
/// buys nothing here; the table is only probed by key, never iterated, so
/// no order depends on the hash.
#[derive(Clone, Copy, Debug, Default)]
struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_usize(&mut self, word: usize) {
        self.add(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type BuildIdHasher = BuildHasherDefault<IdHasher>;

impl Mailbox {
    /// An empty mailbox with its cursor at the start of the pool.
    pub fn new() -> Self {
        Mailbox::default()
    }

    /// The pending candidate ids given the pool size `total`: the blocked
    /// backlog first, then every unexamined id from the cursor up —
    /// ascending overall, since backlog ids all precede the cursor. May
    /// include ids the replica has already applied (its own operations, or
    /// targeted delivers) — callers filter against the seen-set.
    pub fn pending(&self, total: usize) -> impl Iterator<Item = usize> + '_ {
        self.backlog.iter().copied().chain(self.cursor..total)
    }

    /// Pending-candidate count (including lazily-pruned ids) given the pool
    /// size `total`; the pre-drain mailbox depth the obs layer reports.
    pub fn depth(&self, total: usize) -> usize {
        self.backlog.len() + (total - self.cursor)
    }

    /// The first pool id no drain of this replica has examined yet.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Marks the pool prefix below `to` as examined (a drain walked it;
    /// whatever it could not apply went to the backlog).
    pub fn advance_cursor(&mut self, to: usize) {
        debug_assert!(to >= self.cursor, "cursor moved backwards");
        self.cursor = to;
    }

    /// Moves the backlog out for an in-place drain (zero allocation); the
    /// drain compacts survivors and hands the buffer back via
    /// [`Mailbox::restore_backlog`].
    pub fn take_backlog(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.backlog)
    }

    /// Returns the (compacted) backlog buffer after a drain.
    pub fn restore_backlog(&mut self, backlog: Vec<usize>) {
        debug_assert!(self.backlog.is_empty(), "restore over a non-empty backlog");
        self.backlog = backlog;
    }

    /// Holds arrival `id` as ready: the next holdback pass re-examines it.
    pub(crate) fn hold(&mut self, id: usize) {
        self.ready.push(Reverse(id));
    }

    /// Holds arrival `id` until operation `pred`, which it lacks, is
    /// applied: a membership probe, then `id` becomes the head of `pred`'s
    /// list. Filing the same arrival under the same operation twice holds
    /// it once. Amortised O(1); allocates only when the table grows.
    pub(crate) fn file(&mut self, pred: usize, id: usize) {
        debug_assert_ne!(id, END, "arrival id collides with the list end");
        if self.waiting.contains_key(&(pred, id)) {
            return;
        }
        let next = self.waiting.insert((pred, END), id).unwrap_or(END);
        self.waiting.insert((pred, id), next);
        self.filed += 1;
    }

    /// Operation `op` was applied: every arrival filed under it becomes
    /// ready. Every admit calls this, and on `batch_composed` about a
    /// third of them find the replica waiting on something; an operation
    /// nothing waits on costs one probe (none when nothing waits at all),
    /// and each woken arrival one more.
    pub(crate) fn wake(&mut self, op: usize) {
        if self.filed == 0 {
            return;
        }
        let Some(mut next) = self.waiting.remove(&(op, END)) else {
            return;
        };
        while next != END {
            let id = next;
            next = self
                .waiting
                .remove(&(op, id))
                .expect("a filed arrival links to the one filed before it");
            self.filed -= 1;
            self.ready.push(Reverse(id));
        }
        if self.filed == 0 {
            // The last waiter woke: hand the table's storage back.
            self.waiting = HashMap::default();
        }
    }

    /// Takes the smallest ready arrival out of the holdback.
    pub(crate) fn next_ready(&mut self) -> Option<usize> {
        self.ready.pop().map(|Reverse(id)| id)
    }

    /// Number of held arrivals, ready and filed. A ready entry may repeat
    /// an arrival or name one a targeted deliver has since applied; the
    /// next holdback pass drops those.
    pub(crate) fn held_len(&self) -> usize {
        self.ready.len() + self.filed
    }

    /// Drops every held arrival: what a drain of a running replica, which
    /// applies every record in the pool, leaves of the holdback.
    pub(crate) fn clear_holdback(&mut self) {
        self.ready.clear();
        self.waiting = HashMap::default();
        self.filed = 0;
    }
}

/// One replica of the op-based cluster. Everything in it is durable
/// (data, seen-set and clocks survive a crash): losing an applied effector
/// would be unrecoverable under exactly-once delivery, so a crash only
/// *halts* the replica. Undelivered effectors stay queued in the mailbox
/// and are re-delivered after restart.
#[derive(Clone)]
pub(crate) struct Node<D> {
    pub(crate) data: D,
    pub(crate) member: Member,
    pub(crate) mailbox: Mailbox,
}

impl<D> Node<D> {
    pub(crate) fn new(data: D) -> Self {
        Node {
            data,
            member: Member::new(),
            mailbox: Mailbox::new(),
        }
    }
}

/// How a driver's `receive` handled an inbound message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Received {
    /// Applied now; the count includes any held messages it unblocked.
    Applied(usize),
    /// Buffered for causal holdback (delivering now would violate causal
    /// order, or the replica is down).
    Held,
    /// A duplicate of something already applied; dropped.
    Ignored,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_mailbox_sees_the_whole_pool_as_pending() {
        let mb = Mailbox::new();
        assert_eq!(mb.cursor(), 0);
        assert_eq!(mb.pending(3).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(mb.depth(3), 3);
    }

    #[test]
    fn backlog_precedes_the_unexamined_suffix_and_stays_ascending() {
        let mut mb = Mailbox::new();
        let mut backlog = mb.take_backlog();
        backlog.push(1); // blocked below the cursor
        mb.restore_backlog(backlog);
        mb.advance_cursor(4);
        assert_eq!(mb.pending(6).collect::<Vec<_>>(), vec![1, 4, 5]);
        assert_eq!(mb.depth(6), 3);
    }

    #[test]
    fn take_and_restore_backlog_round_trip_without_realloc() {
        let mut mb = Mailbox::new();
        let mut b = mb.take_backlog();
        b.push(1);
        b.push(2);
        mb.restore_backlog(b);
        let mut b = mb.take_backlog();
        assert_eq!(mb.depth(0), 0);
        let cap = b.capacity();
        b.clear();
        b.push(2);
        mb.restore_backlog(b);
        assert_eq!(mb.pending(0).collect::<Vec<_>>(), vec![2]);
        assert!(mb.take_backlog().capacity() >= cap);
    }

    #[test]
    fn a_filed_arrival_waits_for_its_operation_and_wakes_smallest_first() {
        let mut mb = Mailbox::new();
        mb.file(3, 9);
        mb.file(3, 5);
        mb.file(3, 9); // the same arrival filed again is held once
        mb.file(4, 7);
        assert_eq!(mb.held_len(), 3);
        assert_eq!(mb.next_ready(), None, "filed arrivals are not ready");
        mb.wake(2);
        assert_eq!(mb.next_ready(), None, "nothing waits on operation 2");
        mb.wake(3);
        assert_eq!(mb.next_ready(), Some(5));
        assert_eq!(mb.next_ready(), Some(9));
        assert_eq!(mb.next_ready(), None);
        assert_eq!(mb.held_len(), 1, "the waiter on 4 stays filed");
    }

    #[test]
    fn a_woken_or_cleared_arrival_files_afresh() {
        let mut mb = Mailbox::new();
        mb.file(3, 9);
        mb.file(4, 7); // keeps the index from emptying
        mb.wake(3);
        assert_eq!(mb.next_ready(), Some(9));
        mb.file(3, 9);
        assert_eq!(mb.held_len(), 2, "a woken arrival filed again is held");
        mb.wake(3);
        assert_eq!(mb.next_ready(), Some(9), "and wakes again");
        assert_eq!(mb.next_ready(), None, "once");
        mb.clear_holdback();
        mb.file(4, 7);
        assert_eq!(mb.held_len(), 1, "a cleared arrival filed again is held");
        mb.wake(4);
        assert_eq!(mb.next_ready(), Some(7));
        assert_eq!(mb.held_len(), 0);
    }

    #[test]
    fn holdback_buffer_is_separate_and_prunable() {
        let mut mb = Mailbox::new();
        mb.hold(1);
        mb.file(10, 3);
        assert_eq!(mb.held_len(), 2);
        mb.clear_holdback();
        assert_eq!(mb.held_len(), 0);
        assert_eq!(mb.next_ready(), None);
        mb.wake(10);
        assert_eq!(mb.next_ready(), None, "a cleared waiter stays gone");
        assert_eq!(mb.cursor(), 0, "the holdback leaves the cursor alone");
    }
}
