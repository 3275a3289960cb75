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
//! One cluster type runs every op-based execution: [`OpCluster`], generic
//! over how a delivery record names its object ([`Naming`]): a
//! [`Cluster`]'s records name it by `()`, since there is only one, and a
//! [`MultiCluster`](crate::multi::MultiCluster)'s by an
//! [`ObjId`](ral_core::ids::ObjId), one object of a composition
//! (Section 5). The paper reads one object as the composition of one
//! (Thm. 5.3), and with one object per-object causal delivery *is* causal
//! delivery, so every per-message method is written once, on
//! [`OpCluster`]. A naming supplies only its admission rule and apply
//! step, the state and clock slots an invocation reads, the label it
//! records and what the invocation advances afterwards.
//!
//! Replication plumbing: an invocation appends an immutable
//! [`DeliveryRecord`] to the pool every replica's
//! [`Mailbox`](crate::mailbox::Mailbox) reads, and delivery — the
//! precondition trio, the holdback [`OpCluster::receive`] and the drain —
//! applies what the naming's rule admits: for a [`Cluster`], a record
//! whose visible predecessors are all applied. See [`crate::mailbox`] for
//! the holdback and for why [`OpCluster::deliver_all`]'s one ascending
//! pass per replica reaches the fixpoint.

use crate::gen::{GenCtx, GenOutcome};
use crate::mailbox::{DeliveryRecord, Node, Received};
use crate::membership::Member;
use ral_core::bitset::BitSet;
use ral_core::history::{History, OpRecord};
use ral_core::ids::ReplicaId;
use ral_core::rng::Rng;
use ral_obs as obs;
use sealed::{Causal, DrainStats, Local, Rule};
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

/// How a delivery record names its object: the one type parameter a
/// [`Cluster`] (`()`) and a [`MultiCluster`](crate::multi::MultiCluster)
/// ([`ObjId`](ral_core::ids::ObjId)) differ in. Sealed: those are the two.
pub trait Naming: Copy + sealed::Sealed {
    /// The history label of an operation whose object label is `L`: `L`
    /// itself for `()`, tagged with its object
    /// ([`ObjLabel`](ral_core::compose::ObjLabel)) for an `ObjId`.
    type Label<L: Clone + Debug>: Clone + Debug;
    /// The naming's causal-delivery rule.
    #[doc(hidden)]
    type Rule: Rule<Self>;
}

/// A client workload: the call replica `r` makes next, given the state it
/// reads. Every closure `FnMut(&mut Rng, ReplicaId, &C::State) ->
/// Option<C::Call>` is one for a [`Cluster`], and every closure
/// `FnMut(&mut Rng, ReplicaId, ObjId, &C::State) -> Option<C::Call>` one
/// for a [`MultiCluster`](crate::multi::MultiCluster), which draws the
/// object from `rng` first.
pub trait CallGen<C: OpBased, K: Naming> {
    /// Invokes the workload's next call at `r`; `None` if the workload
    /// skips its turn or the generator refuses the call.
    fn invoke(
        &mut self,
        rng: &mut Rng,
        r: ReplicaId,
        cluster: &mut OpCluster<C, K>,
    ) -> Option<Invoked<C::Ret>>;
}

impl<C, F> CallGen<C, ()> for F
where
    C: OpBased,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
{
    fn invoke(
        &mut self,
        rng: &mut Rng,
        r: ReplicaId,
        cluster: &mut Cluster<C>,
    ) -> Option<Invoked<C::Ret>> {
        let call = self(rng, r, cluster.state(r))?;
        cluster.invoke(r, call)
    }
}

/// What a naming plugs into [`OpCluster`]: public in name only, so that
/// [`Naming`] can point at it.
pub(crate) mod sealed {
    use super::*;

    pub trait Sealed {}

    /// A naming's causal-delivery rule, and where an operation on one
    /// object reads and writes a replica's data.
    pub trait Rule<K: Naming>: Clone {
        /// A replica's data: its objects' states and Lamport clocks.
        type Data<S: Clone>: Clone;
        /// What a record carries besides its operation, effector and clock.
        type Meta: Clone + Debug;
        /// The obs span a drain runs in.
        const DRAIN: &'static str;

        /// The predecessor `rec` still lacks at a replica whose seen-set is
        /// `member`'s and whose data is `data` — an operation the replica
        /// has not seen — or `None` if causal delivery admits `rec` now
        /// (liveness and duplicates are the callers' checks). The holdback
        /// files a blocked arrival under the operation returned.
        fn missing<S: Clone, E, L>(
            &self,
            history: &History<L>,
            member: &Member,
            data: &Self::Data<S>,
            rec: &DeliveryRecord<E, Self::Meta>,
        ) -> Option<usize>;

        /// Applies `rec`'s effector and clock to a replica's data; `member`
        /// has already observed `rec.op`.
        fn apply<C: OpBased>(
            &self,
            crdt: &C,
            data: &mut Self::Data<C::State>,
            member: &Member,
            rec: &DeliveryRecord<C::Eff, Self::Meta>,
        );

        /// The state and the clock an invocation on `obj` reads and writes.
        fn slots<'a, S: Clone>(
            &self,
            data: &'a mut Self::Data<S>,
            obj: K,
        ) -> (&'a mut S, &'a mut u64);

        /// Every object's state in `data`.
        fn states<S: Clone>(data: &Self::Data<S>) -> &[S];

        /// `label`, tagged with `obj`.
        fn label<L: Clone + Debug>(obj: K, label: L) -> K::Label<L>;

        /// What the origin advances once it has observed its new operation
        /// `op` on `obj`; returns the operation's record metadata.
        fn invoked<S: Clone>(
            &mut self,
            data: &mut Self::Data<S>,
            member: &Member,
            obj: K,
            op: usize,
        ) -> Self::Meta;

        /// Reports a drain under the naming's own obs names.
        fn drained(stats: &DrainStats);
    }

    /// What a drain did: how many pending candidates it started from, how
    /// many pool entries it probed for deliverability and how many
    /// effectors it applied. The probe count is the complexity witness
    /// regression tests pin (one probe per pending pair, no fixpoint
    /// re-scans); depth and applied feed the obs mailbox metrics.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct DrainStats {
        /// Pending candidates (including lazily-pruned ids) before the
        /// drain.
        pub depth: u64,
        /// Deliverability checks performed.
        pub probes: u64,
        /// Effectors applied.
        pub applied: u64,
    }

    /// A replica's data: the object state and one Lamport clock.
    #[derive(Clone)]
    pub struct Local<S> {
        pub(super) state: S,
        pub(super) clock: u64,
    }

    /// Single-object causal delivery. Its rule names the first visible
    /// predecessor a replica lacks — the operation the holdback files a
    /// blocked arrival under.
    #[derive(Clone, Copy)]
    pub struct Causal;
}

impl sealed::Sealed for () {}

impl Naming for () {
    type Label<L: Clone + Debug> = L;
    type Rule = Causal;
}

impl Rule<()> for Causal {
    type Data<S: Clone> = Local<S>;
    type Meta = ();
    const DRAIN: &'static str = "runtime.deliver_all";

    /// The first visible predecessor not yet applied. Every predecessor of
    /// `op` has a smaller history index, so a member whose seen
    /// [`frontier`](Member::frontier) has reached `op` lacks none — the
    /// O(1) path steady-state drains always take. Otherwise the pred set is
    /// tested against the seen-set a word at a time from the frontier up
    /// ([`BitSet::first_missing`]); everything below the frontier is seen.
    fn missing<S: Clone, E, L>(
        &self,
        history: &History<L>,
        member: &Member,
        _: &Local<S>,
        rec: &DeliveryRecord<E>,
    ) -> Option<usize> {
        if rec.op <= member.frontier() {
            return None;
        }
        history
            .preds(rec.op)
            .first_missing(member.seen(), member.frontier())
    }

    fn apply<C: OpBased>(
        &self,
        crdt: &C,
        data: &mut Local<C::State>,
        _: &Member,
        rec: &DeliveryRecord<C::Eff>,
    ) {
        if let Some(eff) = &rec.eff {
            crdt.apply(&mut data.state, eff);
        }
        data.clock = data.clock.max(rec.clock);
    }

    fn slots<'a, S: Clone>(&self, data: &'a mut Local<S>, (): ()) -> (&'a mut S, &'a mut u64) {
        (&mut data.state, &mut data.clock)
    }

    fn states<S: Clone>(data: &Local<S>) -> &[S] {
        std::slice::from_ref(&data.state)
    }

    fn label<L: Clone + Debug>((): (), label: L) -> L {
        label
    }

    // One object: its seen prefix is the seen frontier, which `observe`
    // has already moved.
    fn invoked<S: Clone>(&mut self, _: &mut Local<S>, _: &Member, (): (), _: usize) {}

    fn drained(stats: &DrainStats) {
        obs::counter("runtime.deliver_rounds", 1);
        if stats.applied > 0 {
            obs::counter("runtime.deliveries", stats.applied);
        }
        obs::observe("runtime.mailbox.depth", stats.depth);
        obs::observe("runtime.mailbox.batch", stats.applied);
    }
}

type Data<C, K> = <<K as Naming>::Rule as Rule<K>>::Data<<C as OpBased>::State>;
type Record<C, K> = DeliveryRecord<<C as OpBased>::Eff, <<K as Naming>::Rule as Rule<K>>::Meta>;

/// What delivery reads while it writes a replica: the descriptor, the
/// naming's rule and the history.
#[derive(Clone)]
pub(crate) struct Rules<C: OpBased, K: Naming> {
    crdt: C,
    pub(crate) rule: K::Rule,
    history: History<K::Label<C::Label>>,
}

impl<C: OpBased, K: Naming> Rules<C, K> {
    /// The predecessor `rec` still lacks at `node`, if any.
    fn missing(&self, node: &Node<Data<C, K>>, rec: &Record<C, K>) -> Option<usize> {
        self.rule
            .missing(&self.history, &node.member, &node.data, rec)
    }

    /// The EFFECTOR step proper, preconditions already established. Wakes
    /// nothing: the caller decides where the operation's held waiters go.
    fn admit(&self, node: &mut Node<Data<C, K>>, rec: &Record<C, K>) {
        node.member.observe(rec.op);
        self.rule
            .apply(&self.crdt, &mut node.data, &node.member, rec);
    }

    /// The replica is up, has not applied `rec`, and causal delivery
    /// admits it now.
    fn can_deliver(&self, node: &Node<Data<C, K>>, rec: &Record<C, K>) -> bool {
        node.member.is_up() && !node.member.has_seen(rec.op) && self.missing(node, rec).is_none()
    }

    /// One drain probe of a pending record: skipped if already seen (an
    /// own operation, or applied through a targeted deliver), applied if
    /// admitted. Returns `true` if the record stays blocked.
    fn probe(
        &self,
        node: &mut Node<Data<C, K>>,
        rec: &Record<C, K>,
        stats: &mut DrainStats,
    ) -> bool {
        if node.member.has_seen(rec.op) {
            return false;
        }
        stats.probes += 1;
        let admitted = self.missing(node, rec).is_none();
        if admitted {
            self.admit(node, rec);
            stats.applied += 1;
        }
        !admitted
    }

    /// Drains one replica's mailbox into `stats`: a single ascending pass,
    /// compacting the blocked survivors in place (zero allocation). The
    /// pass applies every record in the pool — each after its predecessors
    /// — so it empties the holdback as well.
    fn drain(&self, node: &mut Node<Data<C, K>>, records: &[Record<C, K>], stats: &mut DrainStats) {
        stats.depth += node.mailbox.depth(records.len()) as u64;
        if !node.member.is_up() {
            // Crashed replicas keep their backlog for after restart.
            return;
        }
        // Blocked backlog first, then the unexamined pool suffix — backlog
        // ids all precede the cursor, so the whole pass is ascending.
        let mut backlog = node.mailbox.take_backlog();
        backlog.retain(|&d| self.probe(node, &records[d], stats));
        for (d, rec) in records.iter().enumerate().skip(node.mailbox.cursor()) {
            if self.probe(node, rec, stats) {
                backlog.push(d);
            }
        }
        node.mailbox.advance_cursor(records.len());
        node.mailbox.restore_backlog(backlog);
        node.mailbox.clear_holdback();
    }
}

/// Replicated objects of one op-based data type: `n` replicas, a shared
/// pool of effector records with per-replica mailboxes, and the history
/// recorded so far. `K` is how a record names its object ([`Naming`]):
/// [`Cluster`] and [`MultiCluster`](crate::multi::MultiCluster) are the
/// two instances, each with its own constructor, `invoke` and `state`;
/// every other method is written here, once.
// Cloning a cluster (possible whenever the descriptor is `Clone`) forks the
// whole configuration — replica states, pending deliveries, history — which
// is what `ral-analyze`'s bounded-exhaustive searches branch on.
#[derive(Clone)]
pub struct OpCluster<C: OpBased, K: Naming> {
    pub(crate) rules: Rules<C, K>,
    pub(crate) replicas: Vec<Node<Data<C, K>>>,
    records: Vec<Record<C, K>>,
    next_uid: u64,
}

/// A single replicated object: the one-object [`OpCluster`].
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
pub type Cluster<C> = OpCluster<C, ()>;

impl<C: OpBased> Cluster<C> {
    /// Creates a cluster of `n_replicas` replicas, all in the initial
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if `n_replicas` is zero.
    pub fn new(crdt: C, n_replicas: usize) -> Self {
        OpCluster::with_replicas(crdt, Causal, n_replicas, |crdt| Local {
            state: crdt.initial(),
            clock: 0,
        })
    }

    /// The state of replica `r`.
    pub fn state(&self, r: ReplicaId) -> &C::State {
        &self.replicas[r.0 as usize].data.state
    }

    /// Invokes `call` at replica `r` (the OPERATION rule): the generator
    /// runs against the replica's state, the origin applies the effector at
    /// once, and the record is broadcast.
    ///
    /// Returns `None` if the generator's precondition refuses the call.
    ///
    /// # Panics
    ///
    /// Panics if the replica is crashed (see [`OpCluster::crash`]).
    pub fn invoke(&mut self, r: ReplicaId, call: C::Call) -> Option<Invoked<C::Ret>> {
        self.invoke_on(r, (), call)
    }
}

impl<C: OpBased, K: Naming> OpCluster<C, K> {
    /// A cluster of `n_replicas` replicas, each starting from `data(&crdt)`,
    /// under `rule`, with nothing invoked yet.
    ///
    /// # Panics
    ///
    /// Panics if `n_replicas` is zero.
    pub(crate) fn with_replicas(
        crdt: C,
        rule: K::Rule,
        n_replicas: usize,
        data: impl Fn(&C) -> Data<C, K>,
    ) -> Self {
        assert!(n_replicas > 0, "a cluster needs at least one replica");
        let replicas = (0..n_replicas).map(|_| Node::new(data(&crdt))).collect();
        let history = History::new();
        OpCluster {
            rules: Rules {
                crdt,
                rule,
                history,
            },
            replicas,
            records: Vec::new(),
            next_uid: 0,
        }
    }

    /// Invokes `call` on the object `obj` names at replica `r` (the
    /// OPERATION rule): the generator runs against that object's state and
    /// clock, the origin applies the effector at once, and the record is
    /// appended to the pool every other replica's mailbox reads. The one
    /// body of [`Cluster::invoke`] and
    /// [`MultiCluster::invoke`](crate::multi::MultiCluster::invoke).
    ///
    /// Returns `None` if the generator's precondition refuses the call.
    ///
    /// # Panics
    ///
    /// Panics if the replica is crashed (see [`OpCluster::crash`]) or `obj`
    /// names no object of the cluster.
    pub(crate) fn invoke_on(
        &mut self,
        r: ReplicaId,
        obj: K,
        call: C::Call,
    ) -> Option<Invoked<C::Ret>> {
        let Rules {
            crdt,
            rule,
            history,
        } = &mut self.rules;
        let node = &mut self.replicas[r.0 as usize];
        node.member.expect_up("invoke at", r);
        let (state, clock) = rule.slots(&mut node.data, obj);
        let mut ctx = GenCtx::new(r, *clock, self.next_uid);
        let GenOutcome::Done { ret, eff } = crdt.generator(state, &call, &mut ctx) else {
            return None;
        };
        let label = K::Rule::label(obj, crdt.label(&call, &ret));
        let record = match ctx.issued_ts() {
            Some(ts) => OpRecord::with_ts(label, r, ts),
            None => OpRecord::new(label, r),
        };
        let op = history.push_set(record, node.member.seen().clone());
        *clock = ctx.clock();
        self.next_uid = ctx.uid_counter();
        if let Some(eff) = &eff {
            crdt.apply(state, eff);
        }
        let clock = *clock;
        node.member.observe(op);
        let meta = rule.invoked(&mut node.data, &node.member, obj, op);
        // Appending to the shared pool IS the broadcast: every other
        // replica's mailbox cursor lies at or below the new id.
        self.records.push(DeliveryRecord {
            op,
            eff,
            clock,
            meta,
        });
        Some(Invoked { ret, op })
    }

    /// Number of replicas.
    pub fn n_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The CRDT descriptor.
    pub fn crdt(&self) -> &C {
        &self.rules.crdt
    }

    /// The history recorded so far (its visibility is global when the
    /// cluster composes several objects).
    pub fn history(&self) -> &History<K::Label<C::Label>> {
        &self.rules.history
    }

    /// Consumes the cluster, returning its history.
    pub fn into_history(self) -> History<K::Label<C::Label>> {
        self.rules.history
    }

    /// The set of operations whose effector has been applied at replica
    /// `r`, on every object (its own invocations count as applied).
    pub fn seen(&self, r: ReplicaId) -> &BitSet {
        self.replicas[r.0 as usize].member.seen()
    }

    /// Operations whose effector is deliverable at replica `r`: not yet
    /// applied there, with every predecessor causal delivery requires —
    /// every visible one, or in a composition every visible one on the
    /// same object — already applied. Empty while the replica is crashed.
    pub fn deliverable(&self, r: ReplicaId) -> Vec<usize> {
        let mut out = Vec::new();
        self.deliverable_into(r, &mut out);
        out
    }

    /// [`OpCluster::deliverable`] into a caller-owned scratch buffer
    /// (cleared first), ascending — the allocation-free form the schedule
    /// drivers probe with on every delivery step.
    pub fn deliverable_into(&self, r: ReplicaId, out: &mut Vec<usize>) {
        let node = &self.replicas[r.0 as usize];
        out.clear();
        if !node.member.is_up() {
            return;
        }
        let pending = node.mailbox.pending(self.records.len());
        out.extend(pending.filter(|&d| self.rules.can_deliver(node, &self.records[d])));
    }

    /// Delivers pending effector `delivery` (an index into the deliverable
    /// pool) at replica `r` (the EFFECTOR rule). The arrivals held under
    /// its operation become ready: the next receive re-examines them.
    ///
    /// # Panics
    ///
    /// Panics if the replica is crashed, the effector was already applied
    /// at `r`, or causal delivery would be violated.
    pub fn deliver(&mut self, r: ReplicaId, delivery: usize) {
        let node = &mut self.replicas[r.0 as usize];
        let rec = &self.records[delivery];
        node.member.expect_up("deliver at", r);
        assert!(
            !node.member.has_seen(rec.op),
            "effector of operation {} already applied at {r}",
            rec.op
        );
        assert!(
            self.rules.missing(node, rec).is_none(),
            "causal delivery violated: operation {} has undelivered predecessors at {r}",
            rec.op
        );
        self.rules.admit(node, rec);
        node.mailbox.wake(rec.op);
    }

    /// Handles a network arrival of delivery `d` at replica `r` with causal
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
    pub fn receive(&mut self, r: ReplicaId, d: usize) -> Received {
        let (rules, records) = (&self.rules, &self.records);
        let node = &mut self.replicas[r.0 as usize];
        let rec = &records[d];
        if node.member.has_seen(rec.op) {
            return Received::Ignored;
        }
        if !node.member.is_up() {
            node.mailbox.hold(d);
            return Received::Held;
        }
        if let Some(pred) = rules.missing(node, rec) {
            node.mailbox.file(pred, d);
            return Received::Held;
        }
        rules.admit(node, rec);
        node.mailbox.wake(rec.op);
        let (mut applied, mut probes) = (1, 0);
        while let Some(h) = node.mailbox.next_ready() {
            let held = &records[h];
            if node.member.has_seen(held.op) {
                // A repeated arrival, or one a targeted deliver applied.
                continue;
            }
            probes += 1;
            match rules.missing(node, held) {
                None => {
                    rules.admit(node, held);
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

    /// Delivers every pending effector everywhere, respecting causal order.
    ///
    /// One ascending mailbox pass per replica, replicas in ascending order
    /// — complete without a fixpoint loop (see [`crate::mailbox`]).
    pub fn deliver_all(&mut self) {
        self.deliver_all_counting();
    }

    /// [`OpCluster::deliver_all`], then reports each replica's updated
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

    /// [`OpCluster::deliver_all`], returning the number of deliverability
    /// probes performed — the regression hook pinning the drain's linearity
    /// (at most one probe per outstanding (record, replica) pair per
    /// drain). Crate-private: an implementation detail, not an API
    /// contract. Reported under the naming's own obs names.
    pub(crate) fn deliver_all_counting(&mut self) -> u64 {
        let _span = obs::span(<K::Rule as Rule<K>>::DRAIN);
        let mut stats = DrainStats::default();
        for node in &mut self.replicas {
            self.rules.drain(node, &self.records, &mut stats);
        }
        <K::Rule as Rule<K>>::drained(&stats);
        stats.probes
    }

    /// Returns `true` if all replicas hold the same state of every object
    /// (strong eventual consistency requires this once every effector is
    /// delivered).
    pub fn converged(&self) -> bool {
        let states = <K::Rule as Rule<K>>::states;
        self.replicas
            .windows(2)
            .all(|w| states(&w[0].data) == states(&w[1].data))
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
    /// [`OpCluster::receive`]s answered [`Received::Held`] and not released
    /// since. An arrival held at a crashed replica counts once per arrival,
    /// and one a targeted [`OpCluster::deliver`] applied counts until the
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

    /// Non-panicking probe for [`OpCluster::deliver`]: `true` iff the
    /// replica is up, the effector has not been applied there, and causal
    /// delivery admits it now.
    pub fn can_deliver(&self, r: ReplicaId, d: usize) -> bool {
        let node = &self.replicas[r.0 as usize];
        self.rules.can_deliver(node, &self.records[d])
    }

    /// Whether replica `r` is running (not crashed).
    pub fn is_up(&self, r: ReplicaId) -> bool {
        self.replicas[r.0 as usize].member.is_up()
    }

    /// Crashes replica `r`: the process halts, refusing invocations and
    /// deliveries. Its state, applied set, and clock are durable; pending
    /// effectors addressed to it stay queued in its mailbox and become
    /// deliverable again after [`OpCluster::restart`].
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
