//! Drivers: the adapter between the transport-level simulator and the
//! runtime's clusters.
//!
//! The engine thinks in *messages* — opaque ids created by invocations or
//! gossip ticks and routed per destination. A [`Driver`] translates those
//! ids back into the cluster's own delivery machinery:
//!
//! * [`OpClusterDriver`] — an op-based [`OpCluster`]: [`OpDriver`] drives a
//!   [`Cluster`] (Section 3.1) and [`MultiDriver`] a [`MultiCluster`]
//!   (Section 5.3), whose workload also picks the target object. One
//!   message per operation, the effector. Causal delivery (per object, in
//!   a composition) is preserved by *holding back* effectors that arrive
//!   (over a reordering link) before their causal predecessors and
//!   draining the holdback once the gap closes, so the network may reorder
//!   freely while the replica still applies causally.
//! * [`LatticeDriver`] — a lattice [`DeltaCluster`] (Appendix D.2): one
//!   message per gossip tick. [`StateDriver`] ships a whole-state snapshot
//!   (a [`DeltaCluster::resync`]) and [`DeltaDriver`] a joined *delta
//!   batch* (or a resync) — the bandwidth-proportional transport,
//!   recovered by ack-driven retransmission instead of snapshot
//!   redundancy. Merges tolerate loss, duplication, and reordering, so no
//!   holdback is needed; the sealed [`Propagation`] parameter holds all
//!   the two differ in.
//!
//! Each driver exposes the same `History<L>` the RA-linearizability
//! checkers and the `ral_verify` harnesses consume — simulation changes how
//! executions are *scheduled*, never what they *record*.

use ral_core::ids::{ObjId, ReplicaId};
use ral_core::rng::Rng;
use ral_runtime::delta::{DeltaCluster, DeltaConfig, DeltaCrdt};
use ral_runtime::multi::MultiCluster;
use ral_runtime::op_based::{CallGen, Cluster, Naming, OpBased, OpCluster};

// Causal holdback lives in the clusters' own mailboxes now; the drivers
// reuse the runtime's arrival classification verbatim.
pub use ral_runtime::mailbox::Received;

/// Adapts one cluster kind to the discrete-event engine.
pub trait Driver {
    /// Whether the transport must be loss-free and duplicate-free (op-based
    /// causal broadcast). Reliable transports never see drop/duplication
    /// faults; cut links and crashed receivers trigger retries instead.
    const RELIABLE: bool;

    /// Whether propagation is by periodic gossip (lattice transports) rather
    /// than push-per-operation. Gossip drivers get periodic gossip events.
    const GOSSIPS: bool;

    /// Number of replicas.
    fn n_replicas(&self) -> usize;

    /// Invokes the next client operation at `r`; `false` if the workload
    /// skipped its turn or the generator refused.
    fn invoke(&mut self, rng: &mut Rng, r: ReplicaId) -> bool;

    /// One gossip tick at `r`: a snapshot or delta batch of its state into
    /// a message. `false` for push-based drivers (nothing to do).
    fn gossip(&mut self, r: ReplicaId) -> bool;

    /// Messages created so far; ids are dense `0..n_messages()`, and new
    /// ones appear only during [`Driver::invoke`] / [`Driver::gossip`].
    fn n_messages(&self) -> usize;

    /// Origin replica of message `m`. The engine asks once per message,
    /// when it routes `m` right after the [`Driver::invoke`] /
    /// [`Driver::gossip`] that created it, and keeps the answer for every
    /// arrival of `m`.
    fn origin(&self, m: usize) -> ReplicaId;

    /// Hands message `m` to replica `r`.
    fn receive(&mut self, r: ReplicaId, m: usize) -> Received;

    /// Wire size in bytes of message `m` as serialized for the link to
    /// `to`, under the transport's payload model. The engine accumulates
    /// this into [`SimStats::payload_bytes`](crate::sim::SimStats) per
    /// transmission (duplicates included). Drivers without a size model
    /// report zero.
    fn message_bytes(&self, _m: usize, _to: ReplicaId) -> usize {
        0
    }

    /// Tells the driver that no transmission of message `m` is in flight
    /// any more: the engine will never hand `m` to [`Driver::receive`]
    /// again, so whatever only `m` keeps alive may be freed. Called on
    /// loss-tolerant transports only (`RELIABLE = false`), after the last
    /// queued arrival of `m` was delivered or dropped — and therefore after
    /// every [`Driver::message_bytes`] read of `m`, which happens at routing
    /// time. Releasing changes memory, never behaviour; the default keeps
    /// everything.
    fn release(&mut self, _m: usize) {}

    /// Whether replica `r` is currently up.
    fn is_up(&self, r: ReplicaId) -> bool;

    /// Crashes replica `r`.
    fn crash(&mut self, r: ReplicaId);

    /// Restarts replica `r`.
    fn restart(&mut self, r: ReplicaId);

    /// Ends the run: restart every replica and synchronize fully, so
    /// convergence can be asserted (the paper's "all updates eventually
    /// visible everywhere" hypothesis).
    fn final_sync(&mut self);

    /// Whether all replicas agree (after [`Driver::final_sync`]).
    fn converged(&self) -> bool;
}

/// Drives an op-based [`OpCluster`]: one message per operation, its
/// effector. The workload is the cluster's [`CallGen`]: it picks the
/// target object too when the cluster composes several.
pub struct OpClusterDriver<C: OpBased, K: Naming, F> {
    cluster: OpCluster<C, K>,
    call_gen: F,
}

/// Drives a single-object [`Cluster`].
pub type OpDriver<C, F> = OpClusterDriver<C, (), F>;

/// Drives a composed [`MultiCluster`]; the workload also picks the target
/// object.
pub type MultiDriver<C, F> = OpClusterDriver<C, ObjId, F>;

impl<C, F> OpDriver<C, F>
where
    C: OpBased,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
{
    /// Wraps a fresh cluster of `n_replicas`; `call_gen` has the same
    /// signature as in [`ral_runtime::schedule::drive_op_based`], so the
    /// `ral_verify::workloads` generators plug in unchanged.
    pub fn new(crdt: C, n_replicas: usize, call_gen: F) -> Self {
        OpClusterDriver {
            cluster: Cluster::new(crdt, n_replicas),
            call_gen,
        }
    }
}

impl<C, F> MultiDriver<C, F>
where
    C: OpBased,
    F: FnMut(&mut Rng, ReplicaId, ObjId, &C::State) -> Option<C::Call>,
{
    /// Wraps a fresh composed cluster; `call_gen` has the same signature as
    /// in [`ral_runtime::schedule::drive_multi`].
    pub fn new(cluster: MultiCluster<C>, call_gen: F) -> Self {
        OpClusterDriver { cluster, call_gen }
    }
}

impl<C: OpBased, K: Naming, F> OpClusterDriver<C, K, F> {
    /// The underlying cluster.
    pub fn cluster(&self) -> &OpCluster<C, K> {
        &self.cluster
    }

    /// Mutable access to the underlying cluster (targeted fault injection
    /// in tests).
    pub fn cluster_mut(&mut self) -> &mut OpCluster<C, K> {
        &mut self.cluster
    }

    /// Consumes the driver, returning the cluster (and with it the
    /// recorded history).
    pub fn into_cluster(self) -> OpCluster<C, K> {
        self.cluster
    }
}

impl<C, K, F> Driver for OpClusterDriver<C, K, F>
where
    C: OpBased,
    K: Naming,
    F: CallGen<C, K>,
{
    const RELIABLE: bool = true;
    const GOSSIPS: bool = false;

    fn n_replicas(&self) -> usize {
        self.cluster.n_replicas()
    }

    fn invoke(&mut self, rng: &mut Rng, r: ReplicaId) -> bool {
        self.call_gen.invoke(rng, r, &mut self.cluster).is_some()
    }

    fn gossip(&mut self, _r: ReplicaId) -> bool {
        false
    }

    fn n_messages(&self) -> usize {
        self.cluster.n_deliveries()
    }

    fn origin(&self, m: usize) -> ReplicaId {
        self.cluster
            .history()
            .op(self.cluster.delivery_op(m))
            .replica
    }

    fn receive(&mut self, r: ReplicaId, m: usize) -> Received {
        self.cluster.receive(r, m)
    }

    fn is_up(&self, r: ReplicaId) -> bool {
        self.cluster.is_up(r)
    }

    fn crash(&mut self, r: ReplicaId) {
        self.cluster.crash(r);
    }

    fn restart(&mut self, r: ReplicaId) {
        // Nothing to drain: the engine never hands messages to a down
        // replica (reliable transmissions retry instead), so the held
        // backlog cannot have become deliverable while crashed.
        self.cluster.restart(r);
    }

    fn final_sync(&mut self) {
        // deliver_all applies the mailbox backlog (held entries included —
        // the drain prunes whatever it makes stale).
        self.cluster.restart_all();
        self.cluster.deliver_all();
    }

    fn converged(&self) -> bool {
        self.cluster.converged()
    }
}

/// Drives a lattice [`DeltaCluster`] (Appendix D.2): one message per
/// gossip tick, shaped by the [`Propagation`] `P`. Every local operation is
/// written ahead by [`DeltaCluster::invoke`], so a crash loses only
/// merged-in knowledge, which the lattice re-merges.
pub struct LatticeDriver<C: DeltaCrdt, F, P> {
    cluster: DeltaCluster<C>,
    call_gen: F,
    propagation: P,
}

/// Drives a full-state run: every gossip tick is a whole-state resync.
pub type StateDriver<C, F> = LatticeDriver<C, F, FullState<C>>;

/// Drives a delta-state run: gossip ticks broadcast joined delta batches
/// (or full-state resyncs).
pub type DeltaDriver<C, F> = LatticeDriver<C, F, Deltas>;

/// The propagation of a [`StateDriver`], with its optional model of a
/// snapshot's wire bytes.
pub struct FullState<C: DeltaCrdt> {
    #[allow(clippy::type_complexity)]
    sizer: Option<Box<dyn Fn(&C::State) -> usize>>,
}

/// The propagation of a [`DeltaDriver`].
pub struct Deltas;

mod sealed {
    pub trait Sealed {}
}

/// What a [`LatticeDriver`]'s two propagations differ in. Sealed: those
/// are the two.
pub trait Propagation<C: DeltaCrdt>: sealed::Sealed {
    /// One gossip tick at `r`: [`DeltaCluster::resync`] or
    /// [`DeltaCluster::gossip`].
    fn tick(cluster: &mut DeltaCluster<C>, r: ReplicaId);

    /// The end-of-run synchronization: [`DeltaCluster::resync_round`] or
    /// [`DeltaCluster::sync_all`].
    fn sync(cluster: &mut DeltaCluster<C>);

    /// The engine's answer to an arrival, given whether
    /// [`DeltaCluster::apply`] changed the state.
    fn received(changed: bool) -> Received;

    /// Wire size in bytes of message `m` on the link to `to`.
    fn message_bytes(&self, cluster: &DeltaCluster<C>, m: usize, to: ReplicaId) -> usize;
}

impl<C: DeltaCrdt> sealed::Sealed for FullState<C> {}

impl<C: DeltaCrdt> Propagation<C> for FullState<C> {
    fn tick(cluster: &mut DeltaCluster<C>, r: ReplicaId) {
        cluster.resync(r);
    }

    fn sync(cluster: &mut DeltaCluster<C>) {
        cluster.resync_round();
    }

    fn received(_changed: bool) -> Received {
        Received::Applied(1)
    }

    fn message_bytes(&self, cluster: &DeltaCluster<C>, m: usize, _to: ReplicaId) -> usize {
        // Snapshot plus a 12-byte origin+clock header; a released snapshot
        // is its header alone. Note the delta transport pays *more*
        // per-message overhead (12-byte header, 12-byte per-link ack entry,
        // 16-byte batch interval), so this asymmetry biases comparisons in
        // full-state's favour — the safe direction for the "delta ships
        // fewer bytes" claims.
        self.sizer
            .as_ref()
            .map_or(0, |f| 12 + cluster.message(m).state().map_or(0, f))
    }
}

impl sealed::Sealed for Deltas {}

impl<C: DeltaCrdt> Propagation<C> for Deltas {
    fn tick(cluster: &mut DeltaCluster<C>, r: ReplicaId) {
        cluster.gossip(r);
    }

    fn sync(cluster: &mut DeltaCluster<C>) {
        cluster.sync_all();
    }

    fn received(changed: bool) -> Received {
        if changed {
            Received::Applied(1)
        } else {
            Received::Ignored
        }
    }

    fn message_bytes(&self, cluster: &DeltaCluster<C>, m: usize, to: ReplicaId) -> usize {
        cluster.message_bytes(m, to)
    }
}

impl<C, F> StateDriver<C, F>
where
    C: DeltaCrdt,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
{
    /// Wraps a fresh cluster of `n_replicas`.
    pub fn new(crdt: C, n_replicas: usize, call_gen: F) -> Self {
        // Only gossip reads the configuration, and a full-state run never
        // gossips.
        LatticeDriver {
            cluster: DeltaCluster::new(crdt, DeltaConfig::default(), n_replicas),
            call_gen,
            propagation: FullState { sizer: None },
        }
    }

    /// Attaches a payload-size model: `sizer` gives the wire bytes of one
    /// full-state snapshot (a 12-byte origin+clock header is added per
    /// transmission), feeding
    /// [`SimStats::payload_bytes`](crate::sim::SimStats). For a
    /// [`DeltaCrdt`] type, pass its `state_bytes` so full-state and delta
    /// runs share one payload model.
    pub fn with_sizer(mut self, sizer: impl Fn(&C::State) -> usize + 'static) -> Self {
        self.propagation.sizer = Some(Box::new(sizer));
        self
    }
}

impl<C, F> DeltaDriver<C, F>
where
    C: DeltaCrdt,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
{
    /// Wraps a fresh delta cluster of `n_replicas`.
    pub fn new(crdt: C, config: DeltaConfig, n_replicas: usize, call_gen: F) -> Self {
        LatticeDriver {
            cluster: DeltaCluster::new(crdt, config, n_replicas),
            call_gen,
            propagation: Deltas,
        }
    }
}

impl<C: DeltaCrdt, F, P> LatticeDriver<C, F, P> {
    /// The underlying cluster.
    pub fn cluster(&self) -> &DeltaCluster<C> {
        &self.cluster
    }

    /// Consumes the driver, returning the cluster.
    pub fn into_cluster(self) -> DeltaCluster<C> {
        self.cluster
    }
}

impl<C, F, P> Driver for LatticeDriver<C, F, P>
where
    C: DeltaCrdt,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
    P: Propagation<C>,
{
    const RELIABLE: bool = false;
    const GOSSIPS: bool = true;

    fn n_replicas(&self) -> usize {
        self.cluster.n_replicas()
    }

    fn invoke(&mut self, rng: &mut Rng, r: ReplicaId) -> bool {
        match (self.call_gen)(rng, r, self.cluster.state(r)) {
            Some(call) => self.cluster.invoke(r, call).is_some(),
            None => false,
        }
    }

    fn gossip(&mut self, r: ReplicaId) -> bool {
        P::tick(&mut self.cluster, r);
        true
    }

    fn n_messages(&self) -> usize {
        self.cluster.n_messages()
    }

    fn origin(&self, m: usize) -> ReplicaId {
        self.cluster.message_origin(m)
    }

    fn receive(&mut self, r: ReplicaId, m: usize) -> Received {
        // Joins are always sound, whatever arrived and in whatever order.
        P::received(self.cluster.apply(r, m))
    }

    fn message_bytes(&self, m: usize, to: ReplicaId) -> usize {
        self.propagation.message_bytes(&self.cluster, m, to)
    }

    fn release(&mut self, m: usize) {
        self.cluster.release(m);
    }

    fn is_up(&self, r: ReplicaId) -> bool {
        self.cluster.is_up(r)
    }

    fn crash(&mut self, r: ReplicaId) {
        self.cluster.crash(r);
    }

    fn restart(&mut self, r: ReplicaId) {
        self.cluster.restart(r);
    }

    fn final_sync(&mut self) {
        self.cluster.restart_all();
        P::sync(&mut self.cluster);
    }

    fn converged(&self) -> bool {
        self.cluster.converged()
    }
}
