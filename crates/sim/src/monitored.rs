//! Continuous RA-linearizability verification *during* simulation.
//!
//! [`MonitoredDriver`] wraps an [`OpDriver`] and threads every event the
//! engine produces into a streaming [`Monitor`](ral_core::ralin::Monitor)
//! (via its label-rewriting [`MonitorFeed`]): each successful invocation
//! feeds the new operation with the origin's seen-set as visibility, and
//! each applied delivery (plus the final sync's mailbox drain) reports the
//! receiving replica's advanced seen-frontier so the monitor can settle
//! causally-stable operations and compact its retained state.
//!
//! Where the batch checkers limit `sim::run` verification to excerpts the
//! search can decide afterwards, a monitored run keeps a rolling verdict
//! the whole way: retained monitor state is O(concurrent window), and the
//! history's predecessor sets cost the operations above each origin's
//! seen-frontier, not the operation's index. A 105 039-op rolling-partition
//! churn ends with ≈13.9 MiB live, history and monitor included
//! (`tests/history_mem.rs` holds it to 16 MiB; `tests/monitor_streaming.rs`
//! holds the monitor's window).

use ral_core::ids::ReplicaId;
use ral_core::label::Rewrite;
use ral_core::ralin::monitor::{MonitorFeed, MonitorStats, Verdict};
use ral_core::rng::Rng;
use ral_core::spec::Spec;
use ral_runtime::op_based::{Cluster, OpBased};

use crate::driver::{Driver, OpDriver, Received};

/// An [`OpDriver`] that verifies RA-linearizability continuously while the
/// simulation runs.
///
/// Implements [`Driver`] by delegation, so it plugs into
/// [`crate::sim::run`] and the scenario corpus unchanged; query
/// [`MonitoredDriver::verdict`] at any point (typically after the run) for
/// the rolling judgement and [`MonitoredDriver::stats`] for the
/// bounded-memory counters.
pub struct MonitoredDriver<C, F, R, S>
where
    C: OpBased,
    R: Rewrite<C::Label>,
    S: Spec<Label = R::Out>,
{
    inner: OpDriver<C, F>,
    feed: MonitorFeed<C::Label, R, S>,
    fed: usize,
}

impl<C, F, R, S> MonitoredDriver<C, F, R, S>
where
    C: OpBased,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
    R: Rewrite<C::Label>,
    S: Spec<Label = R::Out>,
{
    /// Wraps `inner`, monitoring its history against `spec` under the
    /// query-update rewriting `rw`. The driver must be fresh (no
    /// operations invoked yet): the monitor streams from the beginning.
    pub fn new(inner: OpDriver<C, F>, rw: R, spec: S) -> Self {
        assert!(
            inner.cluster().history().is_empty(),
            "monitoring must start from an empty history"
        );
        let n = inner.cluster().n_replicas();
        MonitoredDriver {
            inner,
            feed: MonitorFeed::new(rw, spec, n),
            fed: 0,
        }
    }

    /// The wrapped driver.
    pub fn inner(&self) -> &OpDriver<C, F> {
        &self.inner
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster<C> {
        self.inner.cluster()
    }

    /// The monitor's rolling verdict. After [`Driver::final_sync`] every
    /// operation has settled, so [`Verdict::Ok`] means the whole recorded
    /// history is RA-linearizable and [`Verdict::Deferred`] /
    /// [`Verdict::Violated`] mean it is not.
    pub fn verdict(&self) -> Verdict {
        self.feed.verdict()
    }

    /// The monitor's counters (settled ops, live window, compactions…).
    pub fn stats(&self) -> &MonitorStats {
        self.feed.stats()
    }

    /// Emits the monitor counters to `ral_obs`.
    pub fn emit_obs(&self) {
        self.feed.monitor().emit_obs();
    }

    /// Consumes the driver, returning the wrapped one (and with it the
    /// cluster and history).
    pub fn into_inner(self) -> OpDriver<C, F> {
        self.inner
    }

    /// Feeds operations the cluster recorded since the last call, with
    /// the origin's frontier observation. An invocation pushes exactly
    /// one operation, but the loop keeps the feed correct even if a
    /// workload callback invokes multiple times per engine event.
    fn catch_up(&mut self) {
        let h = self.inner.cluster().history();
        while self.fed < h.len() {
            let i = self.fed;
            self.feed.feed_op(h.label(i), h.preds(i));
            self.fed += 1;
            let origin = h.op(i).replica;
            let f = self.inner.cluster().seen_frontier(origin);
            self.feed.observe_frontier(origin, f);
        }
    }
}

impl<C, F, R, S> Driver for MonitoredDriver<C, F, R, S>
where
    C: OpBased,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
    R: Rewrite<C::Label>,
    S: Spec<Label = R::Out>,
{
    const RELIABLE: bool = true;
    const GOSSIPS: bool = false;

    fn n_replicas(&self) -> usize {
        self.inner.n_replicas()
    }

    fn invoke(&mut self, rng: &mut Rng, r: ReplicaId) -> bool {
        let invoked = self.inner.invoke(rng, r);
        if invoked {
            self.catch_up();
        }
        invoked
    }

    fn gossip(&mut self, r: ReplicaId) -> bool {
        self.inner.gossip(r)
    }

    fn n_messages(&self) -> usize {
        self.inner.n_messages()
    }

    fn origin(&self, m: usize) -> ReplicaId {
        self.inner.origin(m)
    }

    fn receive(&mut self, r: ReplicaId, m: usize) -> Received {
        let received = self.inner.receive(r, m);
        if matches!(received, Received::Applied(_)) {
            let f = self.inner.cluster().seen_frontier(r);
            self.feed.observe_frontier(r, f);
        }
        received
    }

    fn is_up(&self, r: ReplicaId) -> bool {
        self.inner.is_up(r)
    }

    fn crash(&mut self, r: ReplicaId) {
        self.inner.crash(r);
    }

    fn restart(&mut self, r: ReplicaId) {
        self.inner.restart(r);
    }

    fn final_sync(&mut self) {
        let cluster = self.inner.cluster_mut();
        cluster.restart_all();
        let feed = &mut self.feed;
        cluster.deliver_all_observed(|r, f| {
            feed.observe_frontier(r, f);
        });
    }

    fn converged(&self) -> bool {
        self.inner.converged()
    }
}
