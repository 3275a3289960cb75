//! Delta-state replication: bandwidth-proportional propagation for
//! state-based CRDTs.
//!
//! The state-based model of Appendix D ships a replica's **entire state**
//! on every broadcast, which is wasteful the moment states outgrow single
//! mutations: an LWW-Element-Set snapshot carries every `(element,
//! timestamp)` pair ever written just to communicate one `add`. Delta-state
//! replication (Almeida, Shoker, Baquero) keeps the same join-semilattice
//! semantics but ships **join decompositions**: a mutator returns a *delta*
//! — a small lattice element `d`, and the replica's next state is
//! `join(state, d)` — and replicas exchange joined batches of recent deltas
//! instead of whole states. Because deltas live in the same lattice and
//! `join` is the same least-upper-bound, the tolerance story of Appendix
//! D.2 is unchanged: duplicated, reordered, or re-delivered deltas are
//! absorbed by the join laws alone.
//!
//! Two pieces live here:
//!
//! * [`DeltaCrdt`] — the mutator API a state-based CRDT implements on top of
//!   [`StateBased`]: `invoke` (the one mutator: it reads the state and
//!   returns `(ret, δ)`), `diff` (the join decomposition of a transition,
//!   which the law checkers draw deltas with), `join_into` /
//!   `join_deltas_into` (the in-place joins every mutation, every receive and
//!   every batch run), and the wire-size model
//!   (`delta_bytes` / `state_bytes`) the simulator's bandwidth accounting
//!   uses;
//! * [`DeltaCluster`] — the replicated transport: per-replica **delta
//!   buffers** of unshipped mutations, **interval batching** (each gossip
//!   tick ships one joined batch covering every sequence number some peer
//!   still misses), **ack-driven garbage collection** (acks piggyback on
//!   gossip; buffer entries are dropped once every peer has confirmed
//!   them), and **full-state resync** as the fallback when a peer falls
//!   behind the garbage-collected horizon — after a crash/restart from a
//!   durable checkpoint, or when a prolonged partition lets the buffer
//!   outgrow [`DeltaConfig::resync_after`].
//!
//! The correctness argument mirrors the paper's inductive state-simulation
//! style: every replica state is a join of mutation deltas, every message
//! payload is a join of mutation deltas, so any interleaving of applies
//! stays inside the lattice generated by the mutations — and a final full
//! synchronization reaches the join of *all* mutations, exactly the state a
//! full-state run converges to. `ral_verify::delta` checks that equivalence
//! differentially on every scenario in the `ral-sim` corpus.

use crate::gen::{GenCtx, GenOutcome};
use crate::laws;
use crate::membership::Member;
use crate::op_based::Invoked;
use crate::state_based::StateBased;
use ral_core::bitset::BitSet;
use ral_core::history::{History, OpRecord};
use ral_core::ids::ReplicaId;
use ral_obs as obs;
use std::fmt::Debug;
use std::rc::Rc;

/// A state-based CRDT with its delta mutator.
///
/// [`DeltaCrdt::invoke`] is the type's one mutator, for both transports: it
/// reads the origin's state and returns the return value and the mutation's
/// delta `δ`, and the cluster joins `δ` into the state in place with
/// [`DeltaCrdt::join_into`] — the join every receive runs. A query returns
/// no delta and leaves the state untouched, so it copies nothing.
///
/// Implementations must satisfy the **delta laws** (stated in
/// [`crate::laws`], discharged by [`DeltaCluster::check_lattice_laws`] and
/// `ral-analyze`, and checked differentially by `ral_verify::delta`), for
/// all reachable states `s`, `t` and mutation deltas `a`, `b`:
///
/// 1. *decomposition* — for every local transition `s → s'`,
///    `join(s, diff(s, s')) == s'`;
/// 2. *batching* — `join(join(t, a), b) == join(t, join_deltas(a, b))`;
/// 3. *lattice* — `join` inherits idempotence, commutativity, and
///    associativity from `merge`, so duplicated and reordered deliveries
///    are harmless.
///
/// A resync ships the state itself and is joined with
/// [`StateBased::merge_into`], so it needs no law beyond the lattice laws.
///
/// The laws are stated over the by-value [`DeltaCrdt::join`] /
/// [`DeltaCrdt::join_deltas`], which are nothing but clone-then-mutate
/// wrappers around the two **required** in-place methods — so they are laws
/// about [`DeltaCrdt::join_into`] / [`DeltaCrdt::join_deltas_into`], the
/// code the transport runs, and moving to the in-place form changed none of
/// them.
pub trait DeltaCrdt: StateBased {
    /// A join decomposition fragment: the unit shipped by the delta
    /// transport. Often the state type itself (a sparse fragment of it).
    type Delta: Clone + Debug + PartialEq;

    /// Executes `call` at the origin replica: reads `state` and returns the
    /// return value plus the mutation's delta (`eff`), or
    /// [`GenOutcome::Refused`] when the method's precondition does not hold.
    /// Queries return no delta. The cluster joins the delta into the state in
    /// place and buffers it for replication, so the mutator never builds the
    /// next state itself.
    fn invoke(
        &self,
        state: &Self::State,
        call: &Self::Call,
        ctx: &mut GenCtx,
    ) -> GenOutcome<Self::Ret, Self::Delta>;

    /// The delta of a transition `pre → post` (with `pre ⊑ post` up to the
    /// mutation's own effect): a minimal `d` with `join(pre, d) == post`.
    /// The transport never calls it; the law checkers of [`crate::laws`]
    /// and `ral_verify::delta`'s differential harness draw their deltas from
    /// states with it.
    fn diff(&self, pre: &Self::State, post: &Self::State) -> Self::Delta;

    /// Joins `delta` into `state` in place (the least upper bound in the
    /// lattice) and returns whether `state` changed. **Required**; every
    /// receive runs it, so it should cost what the delta adds, not the size
    /// of the state. The returned flag is load-bearing — it decides whether
    /// a delivery counts as applied — and debug builds of [`DeltaCluster`]
    /// check it against a before/after comparison.
    fn join_into(&self, state: &mut Self::State, delta: &Self::Delta) -> bool;

    /// Joins delta `b` into delta `a` in place — one step of folding a
    /// batch. **Required**.
    fn join_deltas_into(&self, a: &mut Self::Delta, b: &Self::Delta);

    /// [`DeltaCrdt::join_into`] by value: clones `state` and joins into the
    /// copy. Provided for the law checkers and tests; implementations do
    /// not override it.
    fn join(&self, state: &Self::State, delta: &Self::Delta) -> Self::State {
        let mut out = state.clone();
        self.join_into(&mut out, delta);
        out
    }

    /// [`DeltaCrdt::join_deltas_into`] by value. Provided; implementations
    /// do not override it.
    fn join_deltas(&self, a: &Self::Delta, b: &Self::Delta) -> Self::Delta {
        let mut out = a.clone();
        self.join_deltas_into(&mut out, b);
        out
    }

    /// Wire size of a delta in bytes, under the crate's serialization
    /// model (sparse encodings for vector payloads, elements at
    /// `size_of::<E>()`, timestamps at 12 bytes).
    fn delta_bytes(&self, delta: &Self::Delta) -> usize;

    /// Wire size of a full state snapshot in bytes, under the same model.
    fn state_bytes(&self, state: &Self::State) -> usize;
}

/// Tuning knobs of the delta transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaConfig {
    /// Buffer length (in unacknowledged mutations) beyond which the next
    /// gossip ships a full-state resync instead of a delta batch. This is
    /// the prolonged-partition fallback: when acks cannot flow, the buffer
    /// grows until one resync supersedes it and the buffer is cleared.
    pub resync_after: usize,
}

impl Default for DeltaConfig {
    fn default() -> Self {
        DeltaConfig { resync_after: 64 }
    }
}

/// One buffered local mutation, awaiting acknowledgment by every peer.
/// Immutable once buffered, so the live buffer and the durable checkpoint
/// share each entry.
#[derive(Debug)]
struct DeltaEntry<D> {
    /// Per-origin sequence number (1-based, contiguous).
    seq: u64,
    /// The mutation's join decomposition.
    delta: D,
    /// Exactly the history ops whose effects this delta carries (the
    /// mutation's own op; empty for externally ingested deltas). A batch
    /// message's label set is the union over its entries, so a receiver
    /// records visibility of precisely what it applied — unlike a
    /// full-state snapshot, a delta does *not* convey the origin's
    /// transitive knowledge, and claiming it would produce histories
    /// that over-state visibility.
    seen: BitSet,
}

// The replicated per-node bookkeeping; `durable` holds a complete copy, so
// checkpointing and crash recovery are plain clones — cheap ones: the state
// and the buffered entries are reference-counted, `Rc::make_mut` copies the
// state once on the first write after a checkpoint, and `clone_from` refills
// the checkpoint's vectors in place.
#[derive(Debug)]
struct DeltaCore<S, D> {
    state: Rc<S>,
    /// Liveness and visibility bookkeeping. Cloning the core clones the
    /// member too, so a durable checkpoint carries the seen-set and a crash
    /// restores it alongside the state.
    member: Member,
    /// Whether the state carries no effect outside the seen-set: it lies
    /// below the join of the deltas of the seen operations. Lost by
    /// `ingest_local` (a delta without labels) and by a join that changed
    /// the state with effects whose labels it did not merge (a gapped batch,
    /// an uncovered payload); checkpointed and restored with the state.
    covered: bool,
    clock: u64,
    /// Unacknowledged local mutations, ascending contiguous `seq`.
    buffer: Vec<Rc<DeltaEntry<D>>>,
    /// Sequence number of the next local mutation (1-based; `next_seq - 1`
    /// is the newest existing mutation).
    next_seq: u64,
    /// `applied_upto[p]`: highest contiguous sequence number of peer `p`'s
    /// mutations this replica has applied. Doubles as the ack vector
    /// piggybacked on every outgoing message.
    applied_upto: Vec<u64>,
    /// `acked[p]`: highest sequence number of *this* replica's mutations
    /// that peer `p` has confirmed applying (learned from `p`'s piggybacked
    /// ack vectors). Overwritten, not maxed, so an ack regression after a
    /// peer's crash is visible and triggers a resync.
    acked: Vec<u64>,
    /// `ack_msg[p]`: one past the id of the newest message from peer `p`
    /// whose ack vector has been taken into [`DeltaCore::acked`]. Message
    /// ids are cluster-global and append-only, so this orders ack updates:
    /// a duplicated or reordered *old* message cannot regress `acked` (and
    /// spuriously trigger a resync), while a genuinely regressed ack after
    /// a peer's crash arrives in a *new* message and is honoured.
    ack_msg: Vec<u64>,
}

impl<S, D> Clone for DeltaCore<S, D> {
    fn clone(&self) -> Self {
        DeltaCore {
            state: Rc::clone(&self.state),
            member: self.member.clone(),
            covered: self.covered,
            clock: self.clock,
            buffer: self.buffer.clone(),
            next_seq: self.next_seq,
            applied_upto: self.applied_upto.clone(),
            acked: self.acked.clone(),
            ack_msg: self.ack_msg.clone(),
        }
    }

    // A checkpoint is taken on every invocation, reads included: reuse the
    // target's seen-set, buffer and per-peer vectors instead of allocating.
    fn clone_from(&mut self, source: &Self) {
        self.state.clone_from(&source.state);
        self.member.clone_from(&source.member);
        self.covered = source.covered;
        self.clock = source.clock;
        self.buffer.clone_from(&source.buffer);
        self.next_seq = source.next_seq;
        self.applied_upto.clone_from(&source.applied_upto);
        self.acked.clone_from(&source.acked);
        self.ack_msg.clone_from(&source.ack_msg);
    }
}

#[derive(Clone)]
struct DeltaNode<S, D> {
    core: DeltaCore<S, D>,
    durable: DeltaCore<S, D>,
}

/// What a delta message carries.
#[derive(Clone, Debug)]
pub enum DeltaPayload<S, D> {
    /// A joined batch of the origin's mutations `from ..= upto`
    /// (`delta: None` with `from > upto` is a pure ack/heartbeat).
    Batch {
        /// First sequence number covered by the batch.
        from: u64,
        /// Last sequence number covered by the batch.
        upto: u64,
        /// The joined deltas, absent for a heartbeat.
        delta: Option<D>,
    },
    /// A full-state resynchronization superseding every origin mutation up
    /// to `upto`.
    Resync {
        /// The newest origin sequence number the state reflects.
        upto: u64,
        /// The origin's whole state, shared with the origin until it next
        /// writes.
        state: Rc<S>,
    },
}

/// A delta-transport message: batch or resync, plus the piggybacked ack
/// vector and history metadata.
#[derive(Clone, Debug)]
pub struct DeltaMessage<S, D> {
    origin: ReplicaId,
    seen: BitSet,
    /// Whether the payload carries no effect outside `seen`: a batch that
    /// folds no ingested entry, a resync of a covered state, a heartbeat.
    covered: bool,
    clock: u64,
    /// The origin's `applied_upto` vector at send time — its acks, from
    /// which each receiver reads the entry about itself.
    acks: Vec<u64>,
    payload: DeltaPayload<S, D>,
}

impl<S, D> DeltaMessage<S, D> {
    /// Whether this message is a full-state resynchronization.
    pub fn is_resync(&self) -> bool {
        matches!(self.payload, DeltaPayload::Resync { .. })
    }

    /// Whether this message is a pure ack/heartbeat (no payload).
    pub fn is_heartbeat(&self) -> bool {
        matches!(self.payload, DeltaPayload::Batch { delta: None, .. })
    }

    /// The state a resync carries; `None` for a batch or a heartbeat.
    pub fn state(&self) -> Option<&S> {
        match &self.payload {
            DeltaPayload::Resync { state, .. } => Some(state),
            DeltaPayload::Batch { .. } => None,
        }
    }

    /// The joined delta a batch carries; `None` for a resync or a
    /// heartbeat.
    pub fn delta(&self) -> Option<&D> {
        match &self.payload {
            DeltaPayload::Batch { delta, .. } => delta.as_ref(),
            DeltaPayload::Resync { .. } => None,
        }
    }

    /// The label set `L` (Appendix D.2) the message conveys; empty once
    /// released.
    pub fn seen(&self) -> &BitSet {
        &self.seen
    }

    /// Whether the payload is *covered*: it carries no effect outside
    /// [`DeltaMessage::seen`]. A covered message whose labels a replica has
    /// all seen lies below that replica's state, so [`DeltaCluster::apply`]
    /// drops its payload instead of joining it.
    pub fn is_covered(&self) -> bool {
        self.covered
    }
}

/// Cumulative transport counters of a [`DeltaCluster`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Messages carrying a delta batch.
    pub batches: usize,
    /// Full-state resync messages.
    pub resyncs: usize,
    /// Pure ack/heartbeat messages.
    pub heartbeats: usize,
    /// Buffer entries garbage-collected after universal acknowledgment.
    pub gc_entries: usize,
}

/// A cluster of replicas of one delta-state CRDT.
///
/// The one lattice delivery core, for both of Appendix D's transports: a
/// full-state run is this cluster with every message a
/// [`DeltaCluster::resync`] and [`DeltaCluster::resync_round`] as its final
/// synchronization ([`crate::state_based`]).
///
/// # Examples
///
/// A two-replica grow-only set: the gossip message carries only the new
/// element's delta, not the whole payload.
///
/// ```
/// use ral_core::ids::ReplicaId;
/// use ral_runtime::delta::{DeltaCluster, DeltaConfig, DeltaCrdt};
/// # use ral_runtime::gen::{GenCtx, GenOutcome};
/// # use ral_runtime::state_based::StateBased;
/// # #[derive(Clone)]
/// # struct GSet;
/// # impl StateBased for GSet {
/// #     type State = Vec<u32>;
/// #     type Call = u32;
/// #     type Ret = ();
/// #     type Label = u32;
/// #     fn initial(&self, _n: usize) -> Vec<u32> { Vec::new() }
/// #     fn merge_into(&self, a: &mut Vec<u32>, b: &Vec<u32>) -> bool {
/// #         let before = a.len();
/// #         for x in b {
/// #             if !a.contains(x) { a.push(*x); }
/// #         }
/// #         a.sort_unstable();
/// #         a.len() > before
/// #     }
/// #     fn leq(&self, a: &Vec<u32>, b: &Vec<u32>) -> bool { a.iter().all(|x| b.contains(x)) }
/// #     fn label(&self, c: &u32, _r: &()) -> u32 { *c }
/// # }
/// # impl DeltaCrdt for GSet {
/// #     type Delta = Vec<u32>;
/// #     fn invoke(&self, _st: &Vec<u32>, c: &u32, _ctx: &mut GenCtx) -> GenOutcome<(), Vec<u32>> {
/// #         GenOutcome::update((), vec![*c]) // the delta is the new element
/// #     }
/// #     fn diff(&self, pre: &Vec<u32>, post: &Vec<u32>) -> Vec<u32> {
/// #         post.iter().filter(|x| !pre.contains(x)).copied().collect()
/// #     }
/// #     fn join_into(&self, s: &mut Vec<u32>, d: &Vec<u32>) -> bool { self.merge_into(s, d) }
/// #     fn join_deltas_into(&self, a: &mut Vec<u32>, b: &Vec<u32>) { self.merge_into(a, b); }
/// #     fn delta_bytes(&self, d: &Vec<u32>) -> usize { 4 * d.len() }
/// #     fn state_bytes(&self, s: &Vec<u32>) -> usize { 4 * s.len() }
/// # }
///
/// let mut cluster = DeltaCluster::new(GSet, DeltaConfig::default(), 2);
/// cluster.invoke(ReplicaId(0), 7).unwrap();
/// let msg = cluster.gossip(ReplicaId(0)); // ships the delta `[7]`, not the state
/// cluster.apply(ReplicaId(1), msg);
/// assert_eq!(cluster.state(ReplicaId(1)), &vec![7]);
/// ```
#[derive(Clone)]
pub struct DeltaCluster<C: DeltaCrdt> {
    crdt: C,
    config: DeltaConfig,
    replicas: Vec<DeltaNode<C::State, C::Delta>>,
    messages: Vec<DeltaMessage<C::State, C::Delta>>,
    history: History<C::Label>,
    next_uid: u64,
    stats: DeltaStats,
}

impl<C: DeltaCrdt> DeltaCluster<C> {
    /// Creates a cluster of `n_replicas` replicas in the initial state.
    ///
    /// # Panics
    ///
    /// Panics if `n_replicas` is zero.
    pub fn new(crdt: C, config: DeltaConfig, n_replicas: usize) -> Self {
        assert!(n_replicas > 0, "a cluster needs at least one replica");
        let replicas = (0..n_replicas)
            .map(|_| {
                let core = DeltaCore {
                    state: Rc::new(crdt.initial(n_replicas)),
                    member: Member::new(),
                    covered: true,
                    clock: 0,
                    buffer: Vec::new(),
                    next_seq: 1,
                    applied_upto: vec![0; n_replicas],
                    acked: vec![0; n_replicas],
                    ack_msg: vec![0; n_replicas],
                };
                DeltaNode {
                    durable: core.clone(),
                    core,
                }
            })
            .collect();
        DeltaCluster {
            crdt,
            config,
            replicas,
            messages: Vec::new(),
            history: History::new(),
            next_uid: 0,
            stats: DeltaStats::default(),
        }
    }

    /// Number of replicas.
    pub fn n_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The CRDT descriptor.
    pub fn crdt(&self) -> &C {
        &self.crdt
    }

    /// The state of replica `r`.
    pub fn state(&self, r: ReplicaId) -> &C::State {
        &self.replicas[r.0 as usize].core.state
    }

    /// The set of operations replica `r` has performed or applied.
    pub fn seen(&self, r: ReplicaId) -> &BitSet {
        self.replicas[r.0 as usize].core.member.seen()
    }

    /// The history recorded so far.
    ///
    /// Visibility is tracked *per applied payload*: a delta batch conveys
    /// exactly its own mutations' labels (never the origin's transitive
    /// knowledge — those effects are not in the batch), while a full-state
    /// resync conveys the origin's whole seen-set. Because the delta
    /// transport is not a causal broadcast, the recorded visibility
    /// relation need not be transitive — the same caveat as for object
    /// compositions (Section 5.1); `History` stores direct predecessor
    /// sets and never closes them.
    pub fn history(&self) -> &History<C::Label> {
        &self.history
    }

    /// Consumes the cluster, returning its history.
    /// See [`DeltaCluster::history`] for the visibility semantics.
    pub fn into_history(self) -> History<C::Label> {
        self.history
    }

    /// Cumulative transport counters.
    pub fn stats(&self) -> DeltaStats {
        self.stats
    }

    /// Unacknowledged local mutations buffered at replica `r`.
    pub fn buffered(&self, r: ReplicaId) -> usize {
        self.replicas[r.0 as usize].core.buffer.len()
    }

    /// Invokes `call` at replica `r` through [`DeltaCrdt::invoke`]; returns
    /// `None` if refused. A mutation's delta is joined into the state in
    /// place — a query touches nothing — appended to the replica's buffer,
    /// and written ahead to the durable checkpoint, so a crash never loses
    /// locally performed operations.
    ///
    /// # Panics
    ///
    /// Panics if the replica is crashed.
    pub fn invoke(&mut self, r: ReplicaId, call: C::Call) -> Option<Invoked<C::Ret>> {
        let idx = r.0 as usize;
        let node = &self.replicas[idx];
        node.core.member.expect_up("invoke at", r);
        let mut ctx = GenCtx::new(r, node.core.clock, self.next_uid);
        let GenOutcome::Done { ret, eff } = self.crdt.invoke(&node.core.state, &call, &mut ctx)
        else {
            return None;
        };
        let label = self.crdt.label(&call, &ret);
        let record = match ctx.issued_ts() {
            Some(ts) => OpRecord::with_ts(label, r, ts),
            None => OpRecord::new(label, r),
        };
        let node = &mut self.replicas[idx];
        let op = self
            .history
            .push_set(record, node.core.member.seen().clone());
        node.core.clock = ctx.clock();
        self.next_uid = ctx.uid_counter();
        node.core.member.observe(op);
        if let Some(delta) = eff {
            // The entry's label set is this op alone: a delta carries this
            // mutation's effect, not the origin's transitive knowledge.
            let mut seen = BitSet::new();
            seen.insert(op);
            push_local(&self.crdt, &mut node.core, delta, seen);
        }
        debug_assert_clock_covers_state(&self.crdt, &node.core);
        node.durable.clone_from(&node.core);
        Some(Invoked { ret, op })
    }

    /// Records an externally produced local mutation delta at replica `r`,
    /// as if a mutator had just returned it: the delta is joined into the
    /// state, buffered for replication, and written ahead durably.
    ///
    /// This is the differential-testing entry point (`ral_verify::delta`
    /// mirrors a full-state cluster's mutations through it so both
    /// transports replicate the *same* operations) and the natural hook
    /// for feeding pre-computed mutations into the transport.
    ///
    /// # Panics
    ///
    /// Panics if the replica is crashed.
    pub fn ingest_local(&mut self, r: ReplicaId, delta: C::Delta) {
        let node = &mut self.replicas[r.0 as usize];
        node.core.member.expect_up("ingest at", r);
        // No history op backs an ingested delta, so it conveys no labels,
        // and the state now holds an effect outside its seen-set.
        push_local(&self.crdt, &mut node.core, delta, BitSet::new());
        node.core.covered = false;
        // The delta was stamped elsewhere: keep the Lamport clock ahead of
        // whatever it carried, as a receive would.
        node.core.clock = node.core.clock.max(self.crdt.clock_floor(&node.core.state));
        debug_assert_clock_covers_state(&self.crdt, &node.core);
        node.durable.clone_from(&node.core);
    }

    // Garbage-collects replica `idx`'s buffer: entries every peer has
    // acknowledged are dropped. With a single replica everything is
    // trivially acknowledged.
    fn gc(&mut self, idx: usize) {
        let n = self.replicas.len();
        let node = &mut self.replicas[idx];
        let all_acked = (0..n)
            .filter(|&p| p != idx)
            .map(|p| node.core.acked[p])
            .min()
            .unwrap_or(node.core.next_seq - 1);
        let before = node.core.buffer.len();
        node.core.buffer.retain(|e| e.seq > all_acked);
        let collected = before - node.core.buffer.len();
        if collected > 0 {
            obs::counter("runtime.delta.gc_entries", collected as u64);
        }
        self.stats.gc_entries += collected;
    }

    /// One gossip tick at replica `r`: garbage-collects acknowledged
    /// buffer entries, then broadcasts either a joined delta batch
    /// covering everything some peer still misses, a full-state resync
    /// (when a peer has fallen behind the collected horizon, or the
    /// buffer outgrew [`DeltaConfig::resync_after`]), or a pure
    /// ack/heartbeat. Returns the message id.
    ///
    /// # Panics
    ///
    /// Panics if the replica is crashed.
    pub fn gossip(&mut self, r: ReplicaId) -> usize {
        let idx = r.0 as usize;
        self.replicas[idx].core.member.expect_up("gossip at", r);
        self.gc(idx);
        let n = self.replicas.len();
        let core = &self.replicas[idx].core;
        // The oldest sequence number some peer might still need.
        let oldest_needed = (0..n)
            .filter(|&p| p != idx)
            .map(|p| core.acked[p])
            .min()
            .unwrap_or(core.next_seq - 1)
            + 1;
        let buffer_start = core.buffer.first().map_or(core.next_seq, |e| e.seq);
        let newest = core.next_seq - 1;

        // A peer needs mutations that were garbage-collected (its ack
        // regressed after a crash, or a resync cleared the buffer and was
        // then lost) — only the whole state can catch it up — or acks
        // stopped flowing (prolonged partition) and the buffer outgrew the
        // batching horizon, so one resync supersedes it.
        if (oldest_needed < buffer_start && oldest_needed <= newest)
            || core.buffer.len() > self.config.resync_after
        {
            return self.resync(r);
        }
        let (seen, covered, payload) = if !core.buffer.is_empty() && oldest_needed <= newest {
            // Interval batching: one joined delta covering every entry
            // from the oldest unacknowledged onwards, folded in place. An
            // ingested entry (no labels) leaves the batch uncovered.
            let mut entries = core.buffer.iter().filter(|e| e.seq >= oldest_needed);
            let first = entries.next().expect("newest entry is unacknowledged");
            let mut joined = first.delta.clone();
            let mut seen = first.seen.clone();
            let mut covered = !first.seen.is_empty();
            let (from, mut upto) = (first.seq, first.seq);
            for e in entries {
                self.crdt.join_deltas_into(&mut joined, &e.delta);
                seen.union_with(&e.seen);
                covered &= !e.seen.is_empty();
                upto = e.seq;
            }
            self.stats.batches += 1;
            obs::counter("runtime.delta.batches", 1);
            let delta = Some(joined);
            (seen, covered, DeltaPayload::Batch { from, upto, delta })
        } else {
            // Nothing unacknowledged: a heartbeat still carries the ack
            // vector, which is what lets *other* replicas garbage-collect.
            self.stats.heartbeats += 1;
            obs::counter("runtime.delta.heartbeats", 1);
            let (from, upto) = (core.next_seq, newest);
            let heartbeat = DeltaPayload::Batch {
                from,
                upto,
                delta: None,
            };
            (core.member.seen().clone(), true, heartbeat)
        };
        self.broadcast(r, seen, covered, payload)
    }

    /// Ships replica `r`'s whole state with its transitive label set and
    /// clock, superseding its delta buffer; returns the message id. The
    /// message shares the replica's state allocation, so nothing is copied
    /// until the replica next writes. This is gossip's fallback, the last
    /// round of [`DeltaCluster::sync_all`], and every send of a full-state
    /// run.
    ///
    /// # Panics
    ///
    /// Panics if the replica is crashed.
    pub fn resync(&mut self, r: ReplicaId) -> usize {
        let core = &mut self.replicas[r.0 as usize].core;
        core.member.expect_up("send from", r);
        core.buffer.clear();
        self.stats.resyncs += 1;
        obs::counter("runtime.delta.resyncs", 1);
        let seen = core.member.seen().clone();
        let (upto, covered) = (core.next_seq - 1, core.covered);
        let state = Rc::clone(&core.state);
        self.broadcast(r, seen, covered, DeltaPayload::Resync { upto, state })
    }

    // Records a message from `r` conveying `seen` (`covered`: nothing
    // outside it), stamped with the origin's clock and ack vector; returns
    // its id.
    fn broadcast(
        &mut self,
        r: ReplicaId,
        seen: BitSet,
        covered: bool,
        payload: DeltaPayload<C::State, C::Delta>,
    ) -> usize {
        let core = &self.replicas[r.0 as usize].core;
        self.messages.push(DeltaMessage {
            origin: r,
            seen,
            covered,
            clock: core.clock,
            acks: core.applied_upto.clone(),
            payload,
        });
        self.messages.len() - 1
    }

    /// Number of messages created so far (ids are never reused — the
    /// network may duplicate deliveries arbitrarily).
    pub fn n_messages(&self) -> usize {
        self.messages.len()
    }

    /// Declares that the network will not deliver message `msg` again: its
    /// payload is dropped and what remains is the heartbeat the origin
    /// could have sent instead (header and acks, no delta, no labels).
    /// Applying a released message afterwards changes no state — exactly a
    /// dropped message, which Appendix D.2 already allows — while its acks
    /// are still honoured. [`DeltaCluster::message_bytes`] describes the
    /// heartbeat from then on, so wire accounting reads it before.
    pub fn release(&mut self, msg: usize) {
        let message = &mut self.messages[msg];
        let (DeltaPayload::Batch { upto, .. } | DeltaPayload::Resync { upto, .. }) =
            message.payload;
        message.payload = DeltaPayload::Batch {
            from: upto + 1,
            upto,
            delta: None,
        };
        message.seen = BitSet::new();
        message.covered = true;
    }

    /// The replica that sent message `msg`.
    pub fn message_origin(&self, msg: usize) -> ReplicaId {
        self.messages[msg].origin
    }

    /// The message itself (payload kind probes for tests and stats).
    pub fn message(&self, msg: usize) -> &DeltaMessage<C::State, C::Delta> {
        &self.messages[msg]
    }

    /// Wire size in bytes of message `msg` as serialized for the link to
    /// `to`: a 12-byte header (origin + Lamport clock), the single
    /// 12-byte ack entry relevant to `to` (acks are delta-encoded per
    /// link), the batch interval or resync horizon, and the payload under
    /// the CRDT's size model.
    pub fn message_bytes(&self, msg: usize, _to: ReplicaId) -> usize {
        let m = &self.messages[msg];
        let header = 12 + 12;
        header
            + match &m.payload {
                DeltaPayload::Batch { delta, .. } => {
                    16 + delta.as_ref().map_or(0, |d| self.crdt.delta_bytes(d))
                }
                DeltaPayload::Resync { state, .. } => 8 + self.crdt.state_bytes(state),
            }
    }

    /// Applies message `msg` at replica `r`. Joins are always sound, so
    /// duplicated and reordered deliveries need no special handling; a
    /// batch that leaves a sequence gap is still joined (partial knowledge
    /// helps convergence) but does not advance the contiguous-prefix ack,
    /// which is what eventually forces the origin to retransmit or resync.
    ///
    /// A [covered](DeltaMessage::is_covered) message whose labels `r` has
    /// all seen is dropped instead of joined: its acks, horizon and clock
    /// are taken, its payload is not read. For a join-semilattice that is
    /// the join's own outcome, at the cost of one seen-set subset test.
    ///
    /// Returns `true` if the message changed the replica's state.
    ///
    /// # Panics
    ///
    /// Panics if the replica is crashed.
    pub fn apply(&mut self, r: ReplicaId, msg: usize) -> bool {
        let idx = r.0 as usize;
        self.replicas[idx].core.member.expect_up("apply at", r);
        apply_message(
            &self.crdt,
            msg,
            &self.messages[msg],
            idx,
            &mut self.replicas[idx].core,
        )
    }

    /// Returns `true` if all replicas hold the same state.
    pub fn converged(&self) -> bool {
        self.replicas
            .windows(2)
            .all(|w| w[0].core.state == w[1].core.state)
    }

    /// One full synchronization round over the delta transport: every
    /// replica broadcasts (batch or resync) and applies everything, twice,
    /// then ack bookkeeping is settled. Used as the end-of-run
    /// reconciliation; the double round closes gaps the first round's
    /// retransmissions may still leave.
    pub fn sync_all(&mut self) {
        let _span = obs::span("runtime.delta.sync_all");
        for _ in 0..2 {
            let start = self.messages.len();
            for r in 0..self.replicas.len() {
                self.gossip(ReplicaId(r as u32));
            }
            self.apply_round(start);
        }
        // A final resync round guarantees convergence even if sequence
        // gaps survived (e.g. acks regressed right before the sync): the
        // full states themselves are exchanged.
        self.resync_round();
    }

    /// One resync round: every replica, in ascending order, ships its whole
    /// state ([`DeltaCluster::resync`]), then every replica applies the
    /// round's messages in message order. All replicas end in the join of
    /// every state, whatever preceded the round.
    pub fn resync_round(&mut self) {
        let start = self.messages.len();
        for r in 0..self.replicas.len() {
            self.resync(ReplicaId(r as u32));
        }
        self.apply_round(start);
    }

    // Applies every message from `start` onwards at every replica, in
    // ascending replica order — the apply phase of a sync round (all of the
    // round's sends happen before it).
    fn apply_round(&mut self, start: usize) {
        let round = &self.messages[start..];
        for (i, node) in self.replicas.iter_mut().enumerate() {
            node.core.member.expect_up("apply at", ReplicaId(i as u32));
            for (j, message) in round.iter().enumerate() {
                apply_message(&self.crdt, start + j, message, i, &mut node.core);
            }
        }
        let applies = (round.len() * self.replicas.len()) as u64;
        obs::observe("runtime.delta.sync_batch", applies);
    }

    /// Whether the five join-semilattice laws ([`laws::lattice_laws`]) and
    /// the delta batching law ([`laws::delta_laws`]) hold on the distinct
    /// current replica states. Buffered deltas are not inspected.
    pub fn check_lattice_laws(&self) -> bool {
        let states = laws::distinct(self.replicas.iter().map(|n| &*n.core.state));
        let bottom = self.crdt.initial(self.replicas.len());
        let mut all_hold = true;
        laws::lattice_laws(&self.crdt, &states, &mut all_hold);
        laws::delta_laws(&self.crdt, &bottom, &states, &mut all_hold);
        all_hold
    }

    /// Whether replica `r` is running (not crashed).
    pub fn is_up(&self, r: ReplicaId) -> bool {
        self.replicas[r.0 as usize].core.member.is_up()
    }

    /// Checkpoints replica `r`: its full core (state, seen-set, clock,
    /// delta buffer, sequence and ack bookkeeping) becomes the durable
    /// image a crash recovers to.
    pub fn persist(&mut self, r: ReplicaId) {
        let node = &mut self.replicas[r.0 as usize];
        node.durable.clone_from(&node.core);
    }

    /// Crashes replica `r`: volatile state is lost and the durable
    /// checkpoint restored. Locally performed mutations survive (they are
    /// written ahead); merged-in remote knowledge and ack bookkeeping may
    /// regress, which peers notice through the regressed piggybacked acks
    /// and repair with retransmission or a full-state resync.
    pub fn crash(&mut self, r: ReplicaId) {
        let node = &mut self.replicas[r.0 as usize];
        node.core.clone_from(&node.durable);
        node.core.member.crash();
        debug_assert_clock_covers_state(&self.crdt, &node.core);
    }

    /// Restarts a crashed replica from its durable checkpoint.
    pub fn restart(&mut self, r: ReplicaId) {
        self.replicas[r.0 as usize].core.member.restart();
    }

    /// Restarts every crashed replica.
    pub fn restart_all(&mut self) {
        for node in &mut self.replicas {
            node.core.member.restart();
        }
    }
}

// The invariant that lets a receive re-read `clock_floor` (an O(state) scan)
// only when its join changed the state: every path that writes the state
// leaves the Lamport clock at or above every timestamp stored in it.
fn debug_assert_clock_covers_state<C: DeltaCrdt>(crdt: &C, core: &DeltaCore<C::State, C::Delta>) {
    debug_assert!(
        core.clock >= crdt.clock_floor(&core.state),
        "Lamport clock {} fell behind a stored timestamp (floor {})",
        core.clock,
        crdt.clock_floor(&core.state)
    );
}

// Joins a local mutation's delta into the node state in place — copying the
// state first only if a checkpoint or snapshot still shares it — and buffers
// it under the next sequence number, conveying `seen`.
fn push_local<C: DeltaCrdt>(
    crdt: &C,
    core: &mut DeltaCore<C::State, C::Delta>,
    delta: C::Delta,
    seen: BitSet,
) {
    crdt.join_into(Rc::make_mut(&mut core.state), &delta);
    let seq = core.next_seq;
    core.next_seq += 1;
    core.buffer.push(Rc::new(DeltaEntry { seq, delta, seen }));
}

// Joins a payload into the node state in place with `join` (`name` is
// `join_into` for a delta, `merge_into` for a resync), copying the state
// first only if a checkpoint or snapshot still shares it. Whether the
// payload adds anything is the join's business, never tested here by `leq`
// or pointer equality (only the drop rule in front of it, on labels). The
// flag it returns decides `Applied` vs `Ignored` and whether the clock floor
// is re-read, so debug builds hold it to its definition.
fn join_checked<S: Clone + PartialEq>(
    state: &mut Rc<S>,
    name: &str,
    join: impl FnOnce(&mut S) -> bool,
) -> bool {
    let before = cfg!(debug_assertions).then(|| S::clone(state));
    let changed = join(Rc::make_mut(state));
    if let Some(before) = before {
        assert_eq!(
            changed,
            before != **state,
            "{name} misreported whether it changed the state"
        );
    }
    changed
}

// The message-apply body, shared by targeted [`DeltaCluster::apply`] and the
// apply phases of [`DeltaCluster::sync_all`].
fn apply_message<C: DeltaCrdt>(
    crdt: &C,
    msg: usize,
    message: &DeltaMessage<C::State, C::Delta>,
    idx: usize,
    core: &mut DeltaCore<C::State, C::Delta>,
) -> bool {
    let o = message.origin.0 as usize;
    if o == idx {
        return false;
    }
    // Piggybacked ack: what the origin has applied of *our* mutations.
    // Honour it only from messages newer than the last one taken —
    // message ids are cluster-global and append-only, so a duplicated
    // or reordered stale delivery cannot regress the ack (and trigger
    // a spurious resync), while a genuine post-crash regression
    // arrives in a fresh message and lands.
    let stamp = msg as u64 + 1;
    if stamp > core.ack_msg[o] {
        core.ack_msg[o] = stamp;
        core.acked[o] = message.acks[idx];
    }
    // The drop rule. Every replica state lies above the join of the deltas
    // of its seen operations, and a covered payload below the join of the
    // deltas of its labels, so when this replica has seen every label the
    // join is a no-op: the payload is dropped (a loss App. D.2 allows), and
    // the header's bookkeeping below stays as it is.
    let joins = !(message.covered && message.seen.is_subset(core.member.seen()));
    let mut changed = false;
    match &message.payload {
        DeltaPayload::Resync { upto, state } => {
            if joins {
                changed =
                    join_checked(&mut core.state, "merge_into", |s| crdt.merge_into(s, state));
                core.member.merge_seen(&message.seen);
                core.covered &= message.covered || !changed;
            }
            core.applied_upto[o] = core.applied_upto[o].max(*upto);
        }
        DeltaPayload::Batch {
            from,
            upto,
            delta: Some(delta),
        } => {
            // Contiguous: the batch closes every gap up to `upto`, so its
            // label set is fully reflected. A gapped batch still joins
            // (partial knowledge helps convergence) but merges no labels.
            let contiguous = *from <= core.applied_upto[o] + 1;
            if joins {
                changed = join_checked(&mut core.state, "join_into", |s| crdt.join_into(s, delta));
                if contiguous {
                    core.member.merge_seen(&message.seen);
                }
                core.covered &= !changed || (contiguous && message.covered);
            }
            if contiguous {
                core.applied_upto[o] = core.applied_upto[o].max(*upto);
            }
        }
        DeltaPayload::Batch { delta: None, .. } => {}
    }
    core.clock = core.clock.max(message.clock);
    if changed {
        core.clock = core.clock.max(crdt.clock_floor(&core.state));
        debug_assert_clock_covers_state(crdt, core);
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A grow-only set with sparse deltas, for transport-level tests —
    /// optionally breaking one clause of the transport's contract.
    #[derive(Clone)]
    struct GSet(Bug);

    #[derive(Clone, Copy, PartialEq)]
    enum Bug {
        None,
        /// `join_into` reports "unchanged" whatever it did.
        LyingJoin,
        /// `merge_into` reports "unchanged" whatever it did.
        LyingMerge,
        /// The elements count as timestamps (`clock_floor` is the largest),
        /// yet `invoke` stores them without advancing the Lamport clock.
        StaleClock,
    }

    const GSET: GSet = GSet(Bug::None);

    #[derive(Clone, Debug, PartialEq)]
    enum Call {
        Add(u32),
        Read,
    }

    impl StateBased for GSet {
        type State = Vec<u32>;
        type Call = Call;
        type Ret = Vec<u32>;
        type Label = Call;

        fn initial(&self, _n: usize) -> Vec<u32> {
            Vec::new()
        }

        fn merge_into(&self, a: &mut Vec<u32>, b: &Vec<u32>) -> bool {
            let before = a.len();
            for x in b {
                if !a.contains(x) {
                    a.push(*x);
                }
            }
            a.sort_unstable();
            a.len() > before && self.0 != Bug::LyingMerge
        }

        fn leq(&self, a: &Vec<u32>, b: &Vec<u32>) -> bool {
            a.iter().all(|x| b.contains(x))
        }

        fn label(&self, call: &Call, _ret: &Vec<u32>) -> Call {
            call.clone()
        }

        fn clock_floor(&self, state: &Vec<u32>) -> u64 {
            match self.0 {
                Bug::StaleClock => state.last().map_or(0, |x| *x as u64),
                _ => 0,
            }
        }
    }

    impl DeltaCrdt for GSet {
        type Delta = Vec<u32>;

        fn invoke(
            &self,
            state: &Vec<u32>,
            call: &Call,
            _ctx: &mut GenCtx,
        ) -> GenOutcome<Vec<u32>, Vec<u32>> {
            match call {
                Call::Add(x) if !state.contains(x) => GenOutcome::update(Vec::new(), vec![*x]),
                Call::Add(_) => GenOutcome::query(Vec::new()),
                Call::Read => GenOutcome::query(state.clone()),
            }
        }

        fn diff(&self, pre: &Vec<u32>, post: &Vec<u32>) -> Vec<u32> {
            post.iter().filter(|x| !pre.contains(x)).copied().collect()
        }

        fn join_into(&self, state: &mut Vec<u32>, delta: &Vec<u32>) -> bool {
            let before = state.len();
            self.merge_into(state, delta);
            state.len() > before && self.0 != Bug::LyingJoin
        }

        fn join_deltas_into(&self, a: &mut Vec<u32>, b: &Vec<u32>) {
            self.merge_into(a, b);
        }

        fn delta_bytes(&self, delta: &Vec<u32>) -> usize {
            4 * delta.len()
        }

        fn state_bytes(&self, state: &Vec<u32>) -> usize {
            4 * state.len()
        }
    }

    fn r(i: u32) -> ReplicaId {
        ReplicaId(i)
    }

    fn cluster(n: usize) -> DeltaCluster<GSet> {
        DeltaCluster::new(GSET, DeltaConfig::default(), n)
    }

    #[test]
    fn deltas_propagate_mutations() {
        let mut c = cluster(2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        let m = c.gossip(r(0));
        assert!(!c.message(m).is_resync());
        c.apply(r(1), m);
        assert_eq!(c.state(r(1)), &vec![1]);
        // Duplicate application is harmless.
        assert!(!c.apply(r(1), m));
        assert_eq!(c.state(r(1)), &vec![1]);
    }

    #[test]
    fn batches_cover_unacked_intervals() {
        let mut c = cluster(2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        c.invoke(r(0), Call::Add(2)).unwrap();
        let m1 = c.gossip(r(0));
        // Not yet acked: a third mutation re-ships the whole interval.
        c.invoke(r(0), Call::Add(3)).unwrap();
        let m2 = c.gossip(r(0));
        // The later batch alone carries all three mutations.
        c.apply(r(1), m2);
        assert_eq!(c.state(r(1)), &vec![1, 2, 3]);
        // Redundant older batch absorbed.
        c.apply(r(1), m1);
        assert_eq!(c.state(r(1)), &vec![1, 2, 3]);
    }

    #[test]
    fn acks_garbage_collect_buffers() {
        let mut c = cluster(2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        let m = c.gossip(r(0));
        c.apply(r(1), m);
        assert_eq!(c.buffered(r(0)), 1, "not yet acknowledged");
        // r1's gossip (a heartbeat) carries the piggybacked ack…
        let ack = c.gossip(r(1));
        assert!(c.message(ack).is_heartbeat());
        c.apply(r(0), ack);
        // …and r0's next gossip garbage-collects the buffer.
        c.gossip(r(0));
        assert_eq!(c.buffered(r(0)), 0);
        assert!(c.stats().gc_entries >= 1);
    }

    #[test]
    fn gapped_batches_join_but_do_not_ack() {
        let mut c = cluster(2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        let m1 = c.gossip(r(0));
        // Pretend m1 was acked so the buffer collects and the next batch
        // starts past it.
        c.apply(r(1), m1);
        let ack = c.gossip(r(1));
        c.apply(r(0), ack);
        c.invoke(r(0), Call::Add(2)).unwrap();
        let m2 = c.gossip(r(0));
        // A fresh replica (simulated by crashing r1 back to its initial
        // checkpoint) receives m2 with a gap: the join still applies.
        c.crash(r(1));
        c.restart(r(1));
        c.apply(r(1), m2);
        assert_eq!(c.state(r(1)), &vec![2], "gapped delta still joined");
    }

    #[test]
    fn crash_regressed_ack_triggers_full_resync() {
        let mut c = cluster(2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        let m = c.gossip(r(0));
        c.apply(r(1), m);
        // r1 acks, r0 garbage-collects.
        let ack = c.gossip(r(1));
        c.apply(r(0), ack);
        c.gossip(r(0));
        assert_eq!(c.buffered(r(0)), 0);
        // r1 crashes without having checkpointed the merge: its applied
        // prefix regresses to 0.
        c.crash(r(1));
        c.restart(r(1));
        assert_eq!(c.state(r(1)), &Vec::<u32>::new());
        // Its next gossip reports the regressed ack…
        let regressed = c.gossip(r(1));
        c.apply(r(0), regressed);
        // …so r0's next gossip must be a full-state resync.
        let resync = c.gossip(r(0));
        assert!(c.message(resync).is_resync());
        c.apply(r(1), resync);
        assert_eq!(c.state(r(1)), &vec![1]);
        assert!(c.stats().resyncs >= 1);
    }

    #[test]
    fn buffer_overflow_falls_back_to_resync() {
        let mut c = DeltaCluster::new(GSET, DeltaConfig { resync_after: 3 }, 2);
        // No acks ever flow (no gossip from r1): the buffer outgrows the
        // horizon and the next gossip ships the whole state.
        for x in 0..5 {
            c.invoke(r(0), Call::Add(x)).unwrap();
        }
        let m = c.gossip(r(0));
        assert!(c.message(m).is_resync());
        assert_eq!(c.buffered(r(0)), 0, "resync supersedes the buffer");
        c.apply(r(1), m);
        assert_eq!(c.state(r(1)), &vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn persist_checkpoints_merged_knowledge_and_acks() {
        let mut c = cluster(2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        let m = c.gossip(r(0));
        c.apply(r(1), m);
        c.persist(r(1));
        c.crash(r(1));
        c.restart(r(1));
        assert_eq!(c.state(r(1)), &vec![1], "checkpoint survived the crash");
        // The applied prefix was persisted too: no resync needed.
        let hb = c.gossip(r(1));
        c.apply(r(0), hb);
        let next = c.gossip(r(0));
        assert!(!c.message(next).is_resync());
    }

    #[test]
    fn sync_all_converges_and_histories_track_visibility() {
        let mut c = cluster(3);
        let a = c.invoke(r(0), Call::Add(1)).unwrap();
        let m = c.gossip(r(0));
        c.apply(r(1), m);
        let q = c.invoke(r(1), Call::Read).unwrap();
        assert_eq!(q.ret, vec![1]);
        assert!(c.history().sees(q.op, a.op));
        c.invoke(r(2), Call::Add(9)).unwrap();
        assert!(!c.converged());
        c.sync_all();
        assert!(c.converged());
        assert_eq!(c.state(r(0)), &vec![1, 9]);
        assert!(c.check_lattice_laws());
    }

    #[test]
    fn heartbeats_are_cheap_and_resyncs_expensive() {
        let mut c = cluster(2);
        for x in 0..20 {
            c.invoke(r(0), Call::Add(x)).unwrap();
        }
        let batch = c.gossip(r(0));
        let hb = c.gossip(r(1));
        assert!(c.message(hb).is_heartbeat());
        assert!(c.message_bytes(hb, r(0)) < c.message_bytes(batch, r(1)));
        // A batch of everything costs as much as the state itself here
        // (G-Set deltas are the new elements), never more.
        assert!(
            c.message_bytes(batch, r(1)) <= 40 + GSET.state_bytes(c.state(r(0))),
            "batch should not exceed header + full state"
        );
    }

    #[test]
    fn ingest_local_buffers_and_replicates() {
        let mut c = cluster(2);
        c.ingest_local(r(0), vec![7]);
        assert_eq!(c.state(r(0)), &vec![7]);
        assert_eq!(c.buffered(r(0)), 1);
        let m = c.gossip(r(0));
        c.apply(r(1), m);
        assert_eq!(c.state(r(1)), &vec![7]);
    }

    #[test]
    #[should_panic(expected = "cannot apply at crashed replica")]
    fn applying_at_crashed_replica_panics() {
        let mut c = cluster(2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        let m = c.gossip(r(0));
        c.crash(r(1));
        c.apply(r(1), m);
    }

    #[test]
    fn released_messages_keep_their_acks_and_nothing_else() {
        let mut c = cluster(2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        let batch = c.gossip(r(0));
        c.apply(r(1), batch);
        // r1's reply carries a payload of its own and the ack for `batch`.
        c.invoke(r(1), Call::Add(2)).unwrap();
        let reply = c.gossip(r(1));
        let wire = c.message_bytes(reply, r(0));
        c.release(reply);
        assert!(c.message(reply).is_heartbeat());
        assert!(c.message_bytes(reply, r(0)) < wire, "sized before release");
        // Applied after its release it is a dropped message with a live
        // header: nothing joins, nothing becomes visible, the ack lands.
        assert!(!c.apply(r(0), reply));
        assert_eq!(c.state(r(0)), &vec![1]);
        c.gossip(r(0));
        assert_eq!(c.buffered(r(0)), 0, "the released message's ack was taken");
        // A released resync likewise.
        let mut c = DeltaCluster::new(GSET, DeltaConfig { resync_after: 0 }, 2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        let resync = c.gossip(r(0));
        assert!(c.message(resync).is_resync());
        c.release(resync);
        assert!(!c.apply(r(1), resync));
        assert_eq!(c.state(r(1)), &Vec::<u32>::new());
    }

    #[test]
    fn checkpoints_share_state_and_buffer_with_the_live_core() {
        let mut c = cluster(2);
        for x in 0..8 {
            c.invoke(r(0), Call::Add(x)).unwrap();
        }
        let node = &c.replicas[0];
        assert!(Rc::ptr_eq(&node.core.state, &node.durable.state));
        for (live, kept) in node.core.buffer.iter().zip(&node.durable.buffer) {
            assert!(Rc::ptr_eq(live, kept));
        }
        // The first write after the checkpoint copies; the checkpoint stays.
        c.invoke(r(1), Call::Add(99)).unwrap();
        let m = c.gossip(r(1));
        c.apply(r(0), m);
        let node = &c.replicas[0];
        assert!(!Rc::ptr_eq(&node.core.state, &node.durable.state));
        assert_eq!(*node.durable.state, (0..8).collect::<Vec<u32>>());
        c.crash(r(0));
        c.restart(r(0));
        assert_eq!(c.state(r(0)), &(0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn a_dropped_arrival_keeps_its_header_and_copies_nothing() {
        let mut c = cluster(3);
        c.invoke(r(0), Call::Add(1)).unwrap();
        let batch = c.gossip(r(0));
        // r1 learns `1` through r2, which leaves its prefix of r0 at 0.
        c.apply(r(2), batch);
        let relay = c.resync(r(2));
        assert!(c.apply(r(1), relay));
        assert_eq!(c.replicas[1].core.applied_upto[0], 0);
        // A read checkpoints: the state is shared with the durable image.
        c.invoke(r(1), Call::Read).unwrap();
        assert!(c.message(batch).is_covered());
        assert!(!c.apply(r(1), batch));
        let node = &c.replicas[1];
        assert!(Rc::ptr_eq(&node.core.state, &node.durable.state), "copied");
        // The payload is dropped, the header is not: the prefix moves.
        assert_eq!(node.core.applied_upto[0], 1);
    }

    #[test]
    fn an_ingested_delta_is_never_dropped() {
        // `7` travels under no label, which every seen-set includes.
        for resync in [false, true] {
            let mut c = cluster(2);
            c.ingest_local(r(0), vec![7]);
            let m = if resync {
                c.resync(r(0))
            } else {
                c.gossip(r(0))
            };
            assert!(!c.message(m).is_covered() && c.message(m).seen().is_empty());
            assert!(c.apply(r(1), m));
            assert_eq!(c.state(r(1)), &vec![7]);
            // The receiver's state holds it now: its snapshots are uncovered.
            let relay = c.resync(r(1));
            assert!(!c.message(relay).is_covered());
        }
    }

    #[test]
    fn a_resync_after_a_gapped_batch_is_joined() {
        let mut c = cluster(3);
        c.invoke(r(0), Call::Add(1)).unwrap();
        let first = c.gossip(r(0));
        for q in [1, 2] {
            c.apply(r(q), first);
            let ack = c.gossip(r(q));
            c.apply(r(0), ack);
        }
        c.invoke(r(0), Call::Add(2)).unwrap();
        let second = c.gossip(r(0));
        assert!(matches!(
            c.message(second).payload,
            DeltaPayload::Batch { from: 2, .. }
        ));
        // r1 forgets `1` and receives `2` with a gap: joined, labels not
        // merged, so its state holds an effect outside its seen-set.
        c.crash(r(1));
        c.restart(r(1));
        assert!(c.apply(r(1), second));
        assert_eq!(c.state(r(1)), &vec![2]);
        assert!(c.seen(r(1)).is_empty());
        let relay = c.resync(r(1));
        assert!(!c.message(relay).is_covered());
        // r2 has seen every label of the relay (none) but not `2`.
        assert!(c.apply(r(2), relay));
        assert_eq!(c.state(r(2)), &vec![1, 2]);
        // A crash restores the checkpoint's coverage with its state.
        c.crash(r(1));
        c.restart(r(1));
        let restored = c.resync(r(1));
        assert!(c.message(restored).is_covered());
    }

    // The debug-build checks behind "a receive re-reads `clock_floor` only
    // when its join reports a change": each must trip on its mutant.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "join_into misreported whether it changed the state")]
    fn a_lying_join_into_is_caught_on_receive() {
        let mut c = DeltaCluster::new(GSet(Bug::LyingJoin), DeltaConfig::default(), 2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        let m = c.gossip(r(0));
        c.apply(r(1), m);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "merge_into misreported whether it changed the state")]
    fn a_lying_merge_into_is_caught_on_receive() {
        let mut c = DeltaCluster::new(GSet(Bug::LyingMerge), DeltaConfig::default(), 2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        let m = c.resync(r(0));
        c.apply(r(1), m);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "fell behind a stored timestamp")]
    fn a_clock_behind_the_state_is_caught_where_it_arises() {
        let mut c = DeltaCluster::new(GSet(Bug::StaleClock), DeltaConfig::default(), 2);
        c.invoke(r(0), Call::Add(7));
    }

    #[test]
    fn ingest_local_keeps_the_clock_ahead_of_foreign_stamps() {
        // With the elements read as timestamps, ingesting `[7]` must lift
        // the clock to 7 — the invariant every later receive relies on.
        let mut c = DeltaCluster::new(GSet(Bug::StaleClock), DeltaConfig::default(), 2);
        c.ingest_local(r(0), vec![7]);
        assert_eq!(c.replicas[0].core.clock, 7);
        let m = c.gossip(r(0));
        c.apply(r(1), m);
        c.apply(r(1), m);
        assert_eq!(c.replicas[1].core.clock, 7);
    }
}
