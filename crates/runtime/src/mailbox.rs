//! Per-replica mailboxes and the shared delivery-record pool.
//!
//! Every broadcast transport ([`Cluster`](crate::op_based::Cluster),
//! [`MultiCluster`](crate::multi::MultiCluster)) follows the same shape: an
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
//! lacks, which the transport's rule names. Applying an operation wakes
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
//! The delivery logic itself lives here once, for both transports: the
//! precondition trio (`deliverable_into` / `can_deliver` / `deliver`), the
//! holdback `receive` loop and the `drain` pass, generic over a `Delivery`
//! — the transport's admission rule and apply step, the only two things
//! that differ between them.

use crate::membership::Member;
use ral_core::ids::ReplicaId;
use ral_obs as obs;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// One replicated effector, broadcast at invoke time and applied at most
/// once per replica.
///
/// Records are immutable after creation — all delivery state lives in the
/// receiving replica's seen-set. `M` carries transport-specific metadata
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
    /// Transport-specific metadata.
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
/// handed to [`receive`](crate::op_based::Cluster::receive) before causal
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

/// What a drain did: how many pending candidates it started from, how many
/// pool entries it probed for deliverability and how many effectors it
/// applied. The probe count is the complexity witness regression tests pin
/// (one probe per pending pair, no fixpoint re-scans); depth and applied
/// feed the obs mailbox metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct DrainStats {
    /// Pending candidates (including lazily-pruned ids) before the drain.
    pub(crate) depth: u64,
    /// Deliverability checks performed.
    pub(crate) probes: u64,
    /// Effectors applied.
    pub(crate) applied: u64,
}

/// What a broadcast transport plugs into the shared delivery path: its
/// admission rule and its apply step. Everything else about op-based
/// delivery is the functions below.
pub(crate) trait Delivery {
    /// The per-replica data the apply step writes: state(s) and clock(s).
    type Data;
    /// Effector payloads.
    type Eff;
    /// Transport-specific record metadata.
    type Meta;

    /// The causal predecessor `rec` still lacks at a replica whose seen-set
    /// is `member`'s and whose data is `data` — an operation the replica
    /// has not seen — or `None` if causal delivery admits `rec` now
    /// (liveness and duplicates are the callers' checks). The holdback
    /// files a blocked arrival under the operation returned.
    fn missing(
        &self,
        member: &Member,
        data: &Self::Data,
        rec: &DeliveryRecord<Self::Eff, Self::Meta>,
    ) -> Option<usize>;

    /// Applies `rec`'s effector and clock to a replica's data; `member`
    /// has already observed `rec.op`.
    fn apply(
        &self,
        data: &mut Self::Data,
        member: &Member,
        rec: &DeliveryRecord<Self::Eff, Self::Meta>,
    );
}

type Record<T> = DeliveryRecord<<T as Delivery>::Eff, <T as Delivery>::Meta>;

/// One replica of a broadcast transport. Everything in it is durable
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

/// The EFFECTOR step proper, preconditions already established. Wakes
/// nothing: the caller decides where the operation's held waiters go.
fn admit<T: Delivery>(rules: &T, node: &mut Node<T::Data>, rec: &Record<T>) {
    node.member.observe(rec.op);
    rules.apply(&mut node.data, &node.member, rec);
}

/// Whether causal delivery admits `rec` at `node` now.
fn admits<T: Delivery>(rules: &T, node: &Node<T::Data>, rec: &Record<T>) -> bool {
    rules.missing(&node.member, &node.data, rec).is_none()
}

/// Non-panicking probe for [`deliver`]: the replica is up, has not applied
/// `rec`, and causal delivery admits it now.
pub(crate) fn can_deliver<T: Delivery>(rules: &T, node: &Node<T::Data>, rec: &Record<T>) -> bool {
    node.member.is_up() && !node.member.has_seen(rec.op) && admits(rules, node, rec)
}

/// Fills `out` (cleared first) with the pending ids deliverable at `node`,
/// ascending. Empty while the replica is crashed.
pub(crate) fn deliverable_into<T: Delivery>(
    rules: &T,
    node: &Node<T::Data>,
    records: &[Record<T>],
    out: &mut Vec<usize>,
) {
    out.clear();
    if !node.member.is_up() {
        return;
    }
    let pending = node.mailbox.pending(records.len());
    out.extend(pending.filter(|&d| can_deliver(rules, node, &records[d])));
}

/// Delivers `rec` at `node`, which is replica `r` (the EFFECTOR rule). The
/// arrivals held under `rec`'s operation become ready: the next receive
/// re-examines them.
///
/// # Panics
///
/// Panics if the replica is crashed, the effector was already applied
/// there, or causal delivery would be violated.
pub(crate) fn deliver<T: Delivery>(
    rules: &T,
    node: &mut Node<T::Data>,
    rec: &Record<T>,
    r: ReplicaId,
) {
    node.member.expect_up("deliver at", r);
    assert!(
        !node.member.has_seen(rec.op),
        "effector of operation {} already applied at {r}",
        rec.op
    );
    assert!(
        admits(rules, node, rec),
        "causal delivery violated: operation {} has undelivered predecessors at {r}",
        rec.op
    );
    admit(rules, node, rec);
    node.mailbox.wake(rec.op);
}

/// Handles a network arrival of delivery `d` at `node` with causal
/// holdback: duplicates are ignored, an arrival at a crashed replica is
/// held ready, an out-of-order one is filed under the predecessor it
/// lacks, and an in-order arrival is applied together with every held
/// delivery it unblocks.
///
/// The unblocking pass re-examines only the ready arrivals and those the
/// pass itself wakes, smallest id first — every predecessor of a record
/// has a smaller id, so a woken chain releases in one probe per record.
/// Counts its probes and releases as `runtime.holdback.probes` /
/// `runtime.holdback.released`.
pub(crate) fn receive<T: Delivery>(
    rules: &T,
    node: &mut Node<T::Data>,
    records: &[Record<T>],
    d: usize,
) -> Received {
    let rec = &records[d];
    if node.member.has_seen(rec.op) {
        return Received::Ignored;
    }
    if !node.member.is_up() {
        node.mailbox.hold(d);
        return Received::Held;
    }
    if let Some(pred) = rules.missing(&node.member, &node.data, rec) {
        node.mailbox.file(pred, d);
        return Received::Held;
    }
    admit(rules, node, rec);
    node.mailbox.wake(rec.op);
    let (mut applied, mut probes) = (1, 0);
    while let Some(h) = node.mailbox.next_ready() {
        let held = &records[h];
        if node.member.has_seen(held.op) {
            // A repeated arrival, or one a targeted deliver applied.
            continue;
        }
        probes += 1;
        match rules.missing(&node.member, &node.data, held) {
            None => {
                admit(rules, node, held);
                node.mailbox.wake(held.op);
                applied += 1;
            }
            Some(pred) => node.mailbox.file(pred, h),
        }
    }
    if probes > 0 {
        obs::counter("runtime.holdback.probes", probes);
        obs::counter("runtime.holdback.released", applied as u64 - 1);
    }
    Received::Applied(applied)
}

/// One drain probe of a pending record: skipped if already seen (an own
/// operation, or applied through a targeted deliver), applied if admitted.
/// Returns `true` if the record stays blocked.
fn probe<T: Delivery>(
    rules: &T,
    node: &mut Node<T::Data>,
    rec: &Record<T>,
    stats: &mut DrainStats,
) -> bool {
    if node.member.has_seen(rec.op) {
        return false;
    }
    stats.probes += 1;
    let admitted = admits(rules, node, rec);
    if admitted {
        admit(rules, node, rec);
        stats.applied += 1;
    }
    !admitted
}

/// Drains one replica's mailbox: a single ascending pass, compacting the
/// blocked survivors in place (zero allocation). The pass applies every
/// record in the pool — each after its predecessors — so it empties the
/// holdback as well.
fn drain<T: Delivery>(rules: &T, node: &mut Node<T::Data>, records: &[Record<T>]) -> DrainStats {
    let mut stats = DrainStats {
        depth: node.mailbox.depth(records.len()) as u64,
        ..DrainStats::default()
    };
    if !node.member.is_up() {
        // Crashed replicas keep their backlog for after restart.
        return stats;
    }
    // Blocked backlog first, then the unexamined pool suffix — backlog ids
    // all precede the cursor, so the whole pass is ascending.
    let mut backlog = node.mailbox.take_backlog();
    backlog.retain(|&d| probe(rules, node, &records[d], &mut stats));
    for (d, rec) in records.iter().enumerate().skip(node.mailbox.cursor()) {
        if probe(rules, node, rec, &mut stats) {
            backlog.push(d);
        }
    }
    node.mailbox.advance_cursor(records.len());
    node.mailbox.restore_backlog(backlog);
    node.mailbox.clear_holdback();
    stats
}

/// Delivers every pending effector everywhere: one [`drain`] per replica,
/// in ascending replica order. Returns the summed stats.
pub(crate) fn drain_all<T: Delivery>(
    rules: &T,
    nodes: &mut [Node<T::Data>],
    records: &[Record<T>],
) -> DrainStats {
    let mut total = DrainStats::default();
    for node in nodes {
        let stats = drain(rules, node, records);
        total.depth += stats.depth;
        total.probes += stats.probes;
        total.applied += stats.applied;
    }
    total
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
