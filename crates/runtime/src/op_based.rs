//! Operation-based CRDT objects and their replicated execution (Section 3.1).
//!
//! An operation splits into a **generator** — runs once at the origin
//! replica, reads the state, returns the value and produces an effector —
//! and an **effector** — applied exactly once at every replica. The
//! [`Cluster`] implements the OPERATION and EFFECTOR rules of Figure 7,
//! including their side conditions: timestamps exceed everything visible,
//! effectors are delivered at most once per replica, and delivery is
//! *causal* (an effector is deliverable only after the effectors of every
//! operation visible to it).
//!
//! Replication plumbing is the shared delivery core: invocations append an
//! immutable [`DeliveryRecord`] to the pool every replica's
//! [`Mailbox`](crate::mailbox::Mailbox) reads, and every delivery entry
//! point is the [`crate::mailbox`] function of the same name under this
//! transport's rule — all visible predecessors applied. See the module docs
//! there for why [`Cluster::deliver_all`]'s one ascending pass per replica
//! reaches the fixpoint.

use crate::gen::{GenCtx, GenOutcome};
use crate::mailbox::{self, Delivery, DeliveryRecord, Node, Received};
use crate::membership::Member;
use ral_core::bitset::BitSet;
use ral_core::history::{History, OpRecord};
use ral_core::ids::ReplicaId;
use ral_obs as obs;
use std::fmt::Debug;

/// An operation-based CRDT, in the style of Listings 1–5.
pub trait OpBased {
    /// Replica state (the `payload` declaration).
    type State: Clone + Debug + PartialEq;
    /// A method invocation: name plus arguments.
    type Call: Clone + Debug;
    /// Return values.
    type Ret: Clone + Debug + PartialEq;
    /// Effector payloads (the arguments the generator passes to the
    /// effector).
    type Eff: Clone + Debug;
    /// Operation labels `m(a) ⇒ b` as recorded in histories.
    type Label: Clone + Debug;

    /// The initial replica state.
    fn initial(&self) -> Self::State;

    /// Runs the generator of `call` against `state` at the origin replica.
    ///
    /// Returns [`GenOutcome::Refused`] when the precondition fails; the
    /// cluster then records nothing.
    fn generator(
        &self,
        state: &Self::State,
        call: &Self::Call,
        ctx: &mut GenCtx,
    ) -> GenOutcome<Self::Ret, Self::Eff>;

    /// Applies an effector to a replica state.
    fn apply(&self, state: &mut Self::State, eff: &Self::Eff);

    /// The label of an invocation that returned `ret`.
    fn label(&self, call: &Self::Call, ret: &Self::Ret) -> Self::Label;
}

/// A successful invocation: the return value and the operation's history
/// index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Invoked<R> {
    /// Return value.
    pub ret: R,
    /// Index of the operation in the cluster's history.
    pub op: usize,
}

/// A replica's data: the object state and one Lamport clock.
#[derive(Clone)]
struct Local<S> {
    state: S,
    clock: u64,
}

/// Single-object causal delivery: what [`crate::mailbox`] reads while it
/// writes a replica. Its rule names the first visible predecessor a
/// replica lacks — the operation the holdback files a blocked arrival
/// under.
#[derive(Clone)]
struct Causal<C: OpBased> {
    crdt: C,
    history: History<C::Label>,
}

impl<C: OpBased> Delivery for Causal<C> {
    type Data = Local<C::State>;
    type Eff = C::Eff;
    type Meta = ();

    /// The first visible predecessor not yet applied. Every predecessor of
    /// `op` has a smaller history index, so a member whose seen
    /// [`frontier`](Member::frontier) has reached `op` lacks none — the
    /// O(1) path steady-state drains always take. Otherwise the pred set is
    /// tested against the seen-set a word at a time from the frontier up
    /// ([`BitSet::first_missing`]); everything below the frontier is seen.
    fn missing(
        &self,
        member: &Member,
        _: &Local<C::State>,
        rec: &DeliveryRecord<C::Eff>,
    ) -> Option<usize> {
        if rec.op <= member.frontier() {
            return None;
        }
        self.history
            .preds(rec.op)
            .first_missing(member.seen(), member.frontier())
    }

    fn apply(&self, data: &mut Local<C::State>, _: &Member, rec: &DeliveryRecord<C::Eff>) {
        if let Some(eff) = &rec.eff {
            self.crdt.apply(&mut data.state, eff);
        }
        data.clock = data.clock.max(rec.clock);
    }
}

/// A single replicated object: `n` replicas, a shared pool of effector
/// records with per-replica mailboxes, and the history recorded so far.
///
/// # Examples
///
/// ```
/// use ral_runtime::gen::{GenCtx, GenOutcome};
/// use ral_runtime::op_based::{Cluster, OpBased};
/// use ral_core::ids::ReplicaId;
///
/// /// A grow-only counter.
/// struct GCounter;
///
/// impl OpBased for GCounter {
///     type State = i64;
///     type Call = &'static str; // "inc" or "read"
///     type Ret = i64;
///     type Eff = ();
///     type Label = (String, i64);
///     fn initial(&self) -> i64 { 0 }
///     fn generator(&self, st: &i64, call: &&'static str, _ctx: &mut GenCtx)
///         -> GenOutcome<i64, ()> {
///         match *call {
///             "inc" => GenOutcome::update(0, ()),
///             _ => GenOutcome::query(*st),
///         }
///     }
///     fn apply(&self, st: &mut i64, _eff: &()) { *st += 1; }
///     fn label(&self, call: &&'static str, ret: &i64) -> (String, i64) {
///         (call.to_string(), *ret)
///     }
/// }
///
/// let mut cluster = Cluster::new(GCounter, 2);
/// cluster.invoke(ReplicaId(0), "inc");
/// // The other replica hasn't seen the increment yet.
/// let stale = cluster.invoke(ReplicaId(1), "read").unwrap();
/// assert_eq!(stale.ret, 0);
/// cluster.deliver_all();
/// let fresh = cluster.invoke(ReplicaId(1), "read").unwrap();
/// assert_eq!(fresh.ret, 1);
/// ```
// Cloning a cluster (possible whenever the descriptor is `Clone`) forks the
// whole configuration — replica states, pending deliveries, history — which
// is what `ral-analyze`'s bounded-exhaustive search branches on.
#[derive(Clone)]
pub struct Cluster<C: OpBased> {
    rules: Causal<C>,
    replicas: Vec<Node<Local<C::State>>>,
    records: Vec<DeliveryRecord<C::Eff>>,
    next_uid: u64,
}

impl<C: OpBased> Cluster<C> {
    /// Creates a cluster of `n_replicas` replicas, all in the initial
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if `n_replicas` is zero.
    pub fn new(crdt: C, n_replicas: usize) -> Self {
        assert!(n_replicas > 0, "a cluster needs at least one replica");
        let replicas = (0..n_replicas)
            .map(|_| {
                Node::new(Local {
                    state: crdt.initial(),
                    clock: 0,
                })
            })
            .collect();
        Cluster {
            rules: Causal {
                crdt,
                history: History::new(),
            },
            replicas,
            records: Vec::new(),
            next_uid: 0,
        }
    }

    /// Number of replicas.
    pub fn n_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The CRDT descriptor.
    pub fn crdt(&self) -> &C {
        &self.rules.crdt
    }

    /// The state of replica `r`.
    pub fn state(&self, r: ReplicaId) -> &C::State {
        &self.replicas[r.0 as usize].data.state
    }

    /// The history recorded so far.
    pub fn history(&self) -> &History<C::Label> {
        &self.rules.history
    }

    /// Consumes the cluster, returning its history.
    pub fn into_history(self) -> History<C::Label> {
        self.rules.history
    }

    /// The set of operations whose effector has been applied at replica `r`.
    pub fn seen(&self, r: ReplicaId) -> &BitSet {
        self.replicas[r.0 as usize].member.seen()
    }

    /// Invokes `call` at replica `r` (the OPERATION rule).
    ///
    /// Returns `None` if the generator's precondition refuses the call.
    ///
    /// # Panics
    ///
    /// Panics if the replica is crashed (see [`Cluster::crash`]).
    pub fn invoke(&mut self, r: ReplicaId, call: C::Call) -> Option<Invoked<C::Ret>> {
        let Causal { crdt, history } = &mut self.rules;
        let node = &mut self.replicas[r.0 as usize];
        node.member.expect_up("invoke at", r);
        let mut ctx = GenCtx::new(r, node.data.clock, self.next_uid);
        match crdt.generator(&node.data.state, &call, &mut ctx) {
            GenOutcome::Refused => None,
            GenOutcome::Done { ret, eff } => {
                let label = crdt.label(&call, &ret);
                let record = match ctx.issued_ts() {
                    Some(ts) => OpRecord::with_ts(label, r, ts),
                    None => OpRecord::new(label, r),
                };
                let op = history.push_set(record, node.member.seen().clone());
                node.data.clock = ctx.clock();
                self.next_uid = ctx.uid_counter();
                if let Some(eff) = &eff {
                    crdt.apply(&mut node.data.state, eff);
                }
                node.member.observe(op);
                // Appending to the shared pool IS the broadcast: every other
                // replica's mailbox cursor lies at or below the new id.
                self.records.push(DeliveryRecord {
                    op,
                    eff,
                    clock: node.data.clock,
                    meta: (),
                });
                Some(Invoked { ret, op })
            }
        }
    }

    /// Operations whose effector is deliverable at replica `r` under causal
    /// delivery: not yet applied there, with every visible predecessor
    /// already applied. Empty while the replica is crashed.
    pub fn deliverable(&self, r: ReplicaId) -> Vec<usize> {
        let mut out = Vec::new();
        self.deliverable_into(r, &mut out);
        out
    }

    /// [`Cluster::deliverable`] into a caller-owned scratch buffer (cleared
    /// first) — the allocation-free form the schedule drivers probe with on
    /// every delivery step.
    pub fn deliverable_into(&self, r: ReplicaId, out: &mut Vec<usize>) {
        let node = &self.replicas[r.0 as usize];
        mailbox::deliverable_into(&self.rules, node, &self.records, out);
    }

    /// Delivers pending effector `delivery` (an index into the deliverable
    /// pool) at replica `r` (the EFFECTOR rule).
    ///
    /// # Panics
    ///
    /// Panics if the effector was already applied at `r` or if causal
    /// delivery would be violated.
    pub fn deliver(&mut self, r: ReplicaId, delivery: usize) {
        let node = &mut self.replicas[r.0 as usize];
        mailbox::deliver(&self.rules, node, &self.records[delivery], r);
    }

    /// Handles a network arrival of delivery `d` at replica `r` with causal
    /// holdback: duplicates are ignored, out-of-order (or crashed-target)
    /// arrivals are buffered in the replica's mailbox, and an in-order
    /// arrival is applied together with every held delivery it unblocks.
    pub fn receive(&mut self, r: ReplicaId, d: usize) -> Received {
        let node = &mut self.replicas[r.0 as usize];
        mailbox::receive(&self.rules, node, &self.records, d)
    }

    /// Delivers every pending effector everywhere, respecting causal order.
    ///
    /// One ascending mailbox pass per replica, replicas in ascending order
    /// — complete without a fixpoint loop (see [`crate::mailbox`]).
    pub fn deliver_all(&mut self) {
        self.deliver_all_counting();
    }

    /// [`Cluster::deliver_all`], then reports each replica's updated
    /// seen-frontier (first unseen operation id) to `observe` — the hook a
    /// streaming RA-linearizability monitor uses to learn causal stability
    /// from mailbox drains. Replicas are reported in ascending id order.
    pub fn deliver_all_observed(&mut self, mut observe: impl FnMut(ReplicaId, usize)) {
        self.deliver_all_counting();
        for (i, node) in self.replicas.iter().enumerate() {
            observe(ReplicaId(i as u32), node.member.frontier());
        }
    }

    /// Replica `r`'s seen-frontier: the first operation id whose effector
    /// it has *not* applied (its own operations count as applied).
    pub fn seen_frontier(&self, r: ReplicaId) -> usize {
        self.replicas[r.0 as usize].member.frontier()
    }

    /// [`Cluster::deliver_all`], returning the number of deliverability
    /// probes performed — the regression hook pinning the drain's linearity
    /// (at most one probe per outstanding (record, replica) pair per
    /// drain). Crate-private: an implementation detail, not an API
    /// contract.
    pub(crate) fn deliver_all_counting(&mut self) -> u64 {
        let _span = obs::span("runtime.deliver_all");
        obs::counter("runtime.deliver_rounds", 1);
        let stats = mailbox::drain_all(&self.rules, &mut self.replicas, &self.records);
        if stats.applied > 0 {
            obs::counter("runtime.deliveries", stats.applied);
        }
        obs::observe("runtime.mailbox.depth", stats.depth);
        obs::observe("runtime.mailbox.batch", stats.applied);
        stats.probes
    }

    /// Returns `true` if all replicas are in the same state (strong eventual
    /// consistency requires this once every effector is delivered).
    pub fn converged(&self) -> bool {
        self.replicas
            .windows(2)
            .all(|w| w[0].data.state == w[1].data.state)
    }

    /// The history index of pending delivery `d`.
    pub fn delivery_op(&self, d: usize) -> usize {
        self.records[d].op
    }

    /// The effector payload of pending delivery `d` (`None` for queries).
    pub fn delivery_eff(&self, d: usize) -> Option<&C::Eff> {
        self.records[d].eff.as_ref()
    }

    /// Number of (replica, effector) deliveries still pending.
    pub fn pending(&self) -> usize {
        self.replicas
            .iter()
            .map(|n| {
                n.mailbox
                    .pending(self.records.len())
                    .filter(|&d| !n.member.has_seen(self.records[d].op))
                    .count()
            })
            .sum()
    }

    /// Number of network arrivals replica `r`'s causal holdback holds:
    /// [`Cluster::receive`]s answered [`Received::Held`] and not released
    /// since. An arrival held at a crashed replica counts once per arrival,
    /// and one a targeted [`Cluster::deliver`] applied counts until the
    /// next receive or drain drops it; a drain of a running replica leaves
    /// none.
    pub fn held(&self, r: ReplicaId) -> usize {
        self.replicas[r.0 as usize].mailbox.held_len()
    }

    /// Total number of deliveries created so far (one per successful
    /// invocation). Delivery ids are dense: `0..n_deliveries()`.
    pub fn n_deliveries(&self) -> usize {
        self.records.len()
    }

    /// Whether delivery `d` has already been applied at replica `r` —
    /// equivalently, whether the operation it replicates is in the
    /// replica's seen-set (origins count as applied).
    pub fn is_delivered(&self, d: usize, r: ReplicaId) -> bool {
        self.replicas[r.0 as usize]
            .member
            .has_seen(self.records[d].op)
    }

    /// Non-panicking probe for [`Cluster::deliver`]: `true` iff the replica
    /// is up, the effector has not been applied there, and causal delivery
    /// admits it now.
    pub fn can_deliver(&self, r: ReplicaId, d: usize) -> bool {
        let node = &self.replicas[r.0 as usize];
        mailbox::can_deliver(&self.rules, node, &self.records[d])
    }

    /// Whether replica `r` is running (not crashed).
    pub fn is_up(&self, r: ReplicaId) -> bool {
        self.replicas[r.0 as usize].member.is_up()
    }

    /// Crashes replica `r`: the process halts, refusing invocations and
    /// deliveries. Its state, applied set, and clock are durable; pending
    /// effectors addressed to it stay queued in its mailbox and become
    /// deliverable again after [`Cluster::restart`].
    pub fn crash(&mut self, r: ReplicaId) {
        self.replicas[r.0 as usize].member.crash();
    }

    /// Restarts a crashed replica; it resumes exactly where it halted.
    pub fn restart(&mut self, r: ReplicaId) {
        self.replicas[r.0 as usize].member.restart();
    }

    /// Restarts every crashed replica.
    pub fn restart_all(&mut self) {
        for node in &mut self.replicas {
            node.member.restart();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An add-only set used to exercise the cluster plumbing.
    struct GSet;

    impl OpBased for GSet {
        type State = Vec<u32>;
        type Call = Call;
        type Ret = Vec<u32>;
        type Eff = u32;
        type Label = Call;

        fn initial(&self) -> Vec<u32> {
            Vec::new()
        }

        fn generator(
            &self,
            state: &Vec<u32>,
            call: &Call,
            _ctx: &mut GenCtx,
        ) -> GenOutcome<Vec<u32>, u32> {
            match call {
                Call::Add(x) => GenOutcome::update(Vec::new(), *x),
                Call::Read => GenOutcome::query(state.clone()),
            }
        }

        fn apply(&self, state: &mut Vec<u32>, eff: &u32) {
            if !state.contains(eff) {
                state.push(*eff);
                state.sort_unstable();
            }
        }

        fn label(&self, call: &Call, _ret: &Vec<u32>) -> Call {
            call.clone()
        }
    }

    #[derive(Clone, Debug, PartialEq)]
    enum Call {
        Add(u32),
        Read,
    }

    fn r(i: u32) -> ReplicaId {
        ReplicaId(i)
    }

    #[test]
    fn origin_applies_immediately() {
        let mut c = Cluster::new(GSet, 3);
        c.invoke(r(0), Call::Add(7)).unwrap();
        assert_eq!(c.state(r(0)), &vec![7]);
        assert_eq!(c.state(r(1)), &Vec::<u32>::new());
    }

    #[test]
    fn delivery_propagates() {
        let mut c = Cluster::new(GSet, 2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        assert_eq!(c.pending(), 1);
        let ds = c.deliverable(r(1));
        assert_eq!(ds.len(), 1);
        c.deliver(r(1), ds[0]);
        assert_eq!(c.state(r(1)), &vec![1]);
        assert_eq!(c.pending(), 0);
        assert!(c.converged());
    }

    #[test]
    fn causal_delivery_orders_dependent_effectors() {
        let mut c = Cluster::new(GSet, 2);
        let a = c.invoke(r(0), Call::Add(1)).unwrap();
        let b = c.invoke(r(0), Call::Add(2)).unwrap();
        // b sees a, so at r1 only a is deliverable first.
        assert_eq!(c.deliverable(r(1)).len(), 1);
        let first = c.deliverable(r(1))[0];
        assert_eq!(c.delivery_op(first), a.op);
        c.deliver(r(1), first);
        let second = c.deliverable(r(1))[0];
        assert_eq!(c.delivery_op(second), b.op);
        c.deliver(r(1), second);
        assert!(c.converged());
    }

    #[test]
    #[should_panic(expected = "causal delivery violated")]
    fn out_of_order_delivery_panics() {
        let mut c = Cluster::new(GSet, 2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        c.invoke(r(0), Call::Add(2)).unwrap();
        // Delivery 1 is the second op; its predecessor hasn't been applied.
        c.deliver(r(1), 1);
    }

    #[test]
    #[should_panic(expected = "already applied")]
    fn double_delivery_panics() {
        let mut c = Cluster::new(GSet, 2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        c.deliver(r(1), 0);
        c.deliver(r(1), 0);
    }

    #[test]
    fn history_records_visibility() {
        let mut c = Cluster::new(GSet, 2);
        let a = c.invoke(r(0), Call::Add(1)).unwrap();
        let b = c.invoke(r(1), Call::Add(2)).unwrap();
        c.deliver_all();
        let q = c.invoke(r(1), Call::Read).unwrap();
        assert_eq!(q.ret, vec![1, 2]);
        let h = c.history();
        assert!(h.concurrent(a.op, b.op));
        assert!(h.sees(q.op, a.op));
        assert!(h.sees(q.op, b.op));
        assert!(h.is_transitive());
    }

    #[test]
    fn queries_enter_visibility() {
        // A query generates an identity effector; once delivered it becomes
        // visible to later operations at that replica.
        let mut c = Cluster::new(GSet, 2);
        let q = c.invoke(r(0), Call::Read).unwrap();
        c.deliver_all();
        let b = c.invoke(r(1), Call::Add(2)).unwrap();
        assert!(c.history().sees(b.op, q.op));
    }

    #[test]
    fn deliver_all_converges() {
        let mut c = Cluster::new(GSet, 4);
        for i in 0..4 {
            c.invoke(r(i), Call::Add(i)).unwrap();
        }
        assert!(!c.converged());
        c.deliver_all();
        assert!(c.converged());
        assert_eq!(c.state(r(0)), &vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_cluster_panics() {
        let _ = Cluster::new(GSet, 0);
    }

    #[test]
    fn can_deliver_mirrors_deliver_preconditions() {
        let mut c = Cluster::new(GSet, 2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        c.invoke(r(0), Call::Add(2)).unwrap();
        assert_eq!(c.n_deliveries(), 2);
        assert!(c.is_delivered(0, r(0)), "origin applied immediately");
        assert!(c.can_deliver(r(1), 0));
        assert!(!c.can_deliver(r(1), 1), "predecessor not applied yet");
        c.deliver(r(1), 0);
        assert!(!c.can_deliver(r(1), 0), "already applied");
        assert!(c.can_deliver(r(1), 1));
    }

    #[test]
    fn crashed_replica_buffers_and_redelivers() {
        let mut c = Cluster::new(GSet, 2);
        c.crash(r(1));
        assert!(!c.is_up(r(1)));
        c.invoke(r(0), Call::Add(1)).unwrap();
        // The crashed replica refuses delivery; the effector stays pending.
        assert!(c.deliverable(r(1)).is_empty());
        assert!(!c.can_deliver(r(1), 0));
        c.deliver_all();
        assert_eq!(c.pending(), 1, "effector buffered for the crashed node");
        // Durable state: after restart the effector is re-delivered.
        c.restart_all();
        c.deliver_all();
        assert_eq!(c.pending(), 0);
        assert!(c.converged());
    }

    #[test]
    #[should_panic(expected = "cannot invoke at crashed replica")]
    fn invoking_at_crashed_replica_panics() {
        let mut c = Cluster::new(GSet, 2);
        c.crash(r(0));
        c.invoke(r(0), Call::Add(1));
    }

    #[test]
    fn receive_applies_holds_and_ignores() {
        let mut c = Cluster::new(GSet, 2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        c.invoke(r(0), Call::Add(2)).unwrap();
        // Out of order: the second effector arrives first and is held.
        assert_eq!(c.receive(r(1), 1), Received::Held);
        // The first unblocks the held one: two applied in one receive.
        assert_eq!(c.receive(r(1), 0), Received::Applied(2));
        // A duplicate of either is ignored.
        assert_eq!(c.receive(r(1), 1), Received::Ignored);
        assert!(c.converged());
    }

    #[test]
    fn deliver_all_probes_each_pending_pair_once() {
        // The mailbox drain is a single ascending pass: one deliverability
        // probe per outstanding (record, replica) pair, no fixpoint
        // rescans. (The seed-era drain recomputed `deliverable` from the
        // full record pool until quiescence: O(d²·|preds|).)
        let mut c = Cluster::new(GSet, 5);
        for i in 0..100u32 {
            c.invoke(r(i % 5), Call::Add(i)).unwrap();
        }
        let outstanding = c.pending() as u64;
        assert_eq!(outstanding, 100 * 4);
        let probes = c.deliver_all_counting();
        assert_eq!(
            probes, outstanding,
            "mailbox drain must probe each outstanding pair exactly once"
        );
        assert!(c.converged());
        // A drained cluster re-drains for free.
        assert_eq!(c.deliver_all_counting(), 0);
    }
}
