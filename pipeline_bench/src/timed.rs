//! Timed adapters: the traced run's view of the layers, taken from outside
//! the crates.
//!
//! The untraced run drives the real `ral_sim` drivers and the real
//! [`ral_sim::MonitoredDriver`]. The traced run swaps in the adapters of
//! this module, which make exactly the same calls with a clock read on
//! either side: [`Timed`] around any [`Driver`], and [`BenchMonitored`],
//! a line-for-line mirror of `MonitoredDriver` whose inner-driver and
//! [`MonitorFeed`] calls are timed separately (the benchmark asserts on
//! every traced case that it yields the verdict, `MonitorStats`,
//! `SimStats` and history length of the real one).
//!
//! Per-event calls are aggregated, not stored one by one: a [`Probe`]
//! keeps per layer a call count, the busy time and a [`Hist`] of the call
//! durations, and becomes one aggregate span per (case, layer).

use crate::kernel::now;
use ral_core::ids::ReplicaId;
use ral_core::label::Rewrite;
use ral_core::ralin::monitor::{MonitorFeed, MonitorStats, Verdict};
use ral_core::rng::Rng;
use ral_core::spec::Spec;
use ral_runtime::op_based::{Cluster, OpBased};
use ral_sim::driver::{Driver, OpDriver, Received};

/// Buckets of a [`Hist`]: values 0–3 exactly, then four per octave.
const HIST_BUCKETS: usize = 252;

/// A log2 histogram with four linear sub-buckets per octave (a recorded
/// value is known to within 25 %), plus the exact maximum.
#[derive(Clone)]
pub struct Hist {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            max: 0,
        }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < 4 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros() as u64;
        ((msb - 1) * 4 + ((v >> (msb - 2)) & 3)) as usize
    }

    /// Inclusive lower and exclusive upper bound of bucket `i`.
    fn bounds(i: usize) -> (u64, u64) {
        if i < 4 {
            return (i as u64, i as u64 + 1);
        }
        let shift = (i / 4 + 1 - 2) as u32;
        let low = (4 + (i % 4) as u64) << shift;
        (low, low.saturating_add(1 << shift))
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Adds every value of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }

    /// Largest value recorded (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Nearest-rank percentile `p` (0–100), as the midpoint of the bucket
    /// holding that rank (capped at the exact maximum); 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let (lo, hi) = Self::bounds(i);
                return ((lo + hi - 1) as f64 / 2.0).min(self.max as f64);
            }
        }
        self.max as f64
    }

    /// The non-empty buckets as `(lower bound, count)`.
    pub fn nonzero(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| (Self::bounds(i).0, *n))
            .collect()
    }
}

/// The per-event call sites a [`Probe`] distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Inner `Driver::invoke` (`ral-runtime`).
    Invoke,
    /// Inner `Driver::receive` (`ral-runtime`).
    Receive,
    /// Inner `Driver::gossip` (`ral-runtime`).
    Gossip,
    /// Inner `Driver::final_sync` (`ral-runtime`).
    FinalSync,
    /// `MonitorFeed::feed_op` (`ralin::monitor`).
    Feed,
    /// `MonitorFeed::observe_frontier` (`ralin::monitor`).
    Observe,
}

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; 6] = [
        Layer::Invoke,
        Layer::Receive,
        Layer::Gossip,
        Layer::FinalSync,
        Layer::Feed,
        Layer::Observe,
    ];

    /// The layers that are `ral-runtime` (the rest are `ralin::monitor`).
    pub const RUNTIME: [Layer; 4] = [
        Layer::Invoke,
        Layer::Receive,
        Layer::Gossip,
        Layer::FinalSync,
    ];

    /// Span name of the layer's per-case aggregate.
    pub fn span_name(self) -> &'static str {
        match self {
            Layer::Invoke => "runtime.invoke",
            Layer::Receive => "runtime.receive",
            Layer::Gossip => "runtime.gossip",
            Layer::FinalSync => "runtime.final_sync",
            Layer::Feed => "monitor.feed_op",
            Layer::Observe => "monitor.observe_frontier",
        }
    }
}

/// Calls, busy time and duration histogram of one layer.
#[derive(Clone, Default)]
pub struct LayerAgg {
    /// Timed calls.
    pub calls: u64,
    /// Sum of the measured intervals, nanoseconds (timer cost included).
    pub busy_ns: u64,
    /// Distribution of the measured intervals, nanoseconds.
    pub hist: Hist,
}

/// What the adapters record during one `sim::run`.
#[derive(Clone, Default)]
pub struct Probe {
    layers: [LayerAgg; 6],
    /// Monitor callbacks timed *inside* a timed `final_sync` interval.
    pub nested_calls: u64,
    /// Their measured time, nanoseconds.
    pub nested_ns: u64,
}

impl Probe {
    fn record(&mut self, layer: Layer, ns: u64) {
        let agg = &mut self.layers[layer as usize];
        agg.calls += 1;
        agg.busy_ns += ns;
        agg.hist.record(ns);
    }

    /// The aggregate of `layer`.
    pub fn layer(&self, layer: Layer) -> &LayerAgg {
        &self.layers[layer as usize]
    }

    /// Timed calls over all layers.
    pub fn calls(&self) -> u64 {
        self.layers.iter().map(|agg| agg.calls).sum()
    }

    /// Adds everything `other` recorded.
    pub fn merge(&mut self, other: &Probe) {
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.calls += b.calls;
            a.busy_ns += b.busy_ns;
            a.hist.merge(&b.hist);
        }
        self.nested_calls += other.nested_calls;
        self.nested_ns += other.nested_ns;
    }

    /// Busy time of `layer` in nanoseconds with the timers' own cost
    /// taken out: half a timer pair per call (the part of the two clock
    /// reads that falls inside the interval), and for `FinalSync` also
    /// the monitor callbacks nested in it with the rest of their pairs.
    pub fn corrected_ns(&self, layer: Layer, pair_ns: f64) -> f64 {
        let agg = self.layer(layer);
        let mut ns = agg.busy_ns as f64 - agg.calls as f64 * pair_ns / 2.0;
        if layer == Layer::FinalSync {
            ns -= self.nested_ns as f64 + self.nested_calls as f64 * pair_ns / 2.0;
        }
        ns.max(0.0)
    }

    /// Time in nanoseconds that the timed calls took out of the enclosing
    /// `sim::run` interval: every interval not nested in another, plus the
    /// half of each timer pair that falls outside its own interval.
    pub fn outer_ns(&self, pair_ns: f64) -> f64 {
        let busy: u64 = self.layers.iter().map(|agg| agg.busy_ns).sum();
        (busy - self.nested_ns) as f64 + (self.calls() - self.nested_calls) as f64 * pair_ns / 2.0
    }
}

/// Any [`Driver`] with its `invoke` / `receive` / `gossip` / `final_sync`
/// calls timed. The remaining trait methods are O(1) accessors and pass
/// through untimed (their cost stays with the engine's self time).
pub struct Timed<D> {
    inner: D,
    probe: Probe,
}

impl<D: Driver> Timed<D> {
    /// Wraps `inner`.
    pub fn new(inner: D) -> Self {
        Timed {
            inner,
            probe: Probe::default(),
        }
    }

    /// The wrapped driver.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// Unwraps into the driver and what was recorded.
    pub fn into_parts(self) -> (D, Probe) {
        (self.inner, self.probe)
    }
}

impl<D: Driver> Driver for Timed<D> {
    const RELIABLE: bool = D::RELIABLE;
    const GOSSIPS: bool = D::GOSSIPS;

    fn n_replicas(&self) -> usize {
        self.inner.n_replicas()
    }

    fn invoke(&mut self, rng: &mut Rng, r: ReplicaId) -> bool {
        let t0 = now();
        let invoked = self.inner.invoke(rng, r);
        self.probe.record(Layer::Invoke, now() - t0);
        invoked
    }

    fn gossip(&mut self, r: ReplicaId) -> bool {
        let t0 = now();
        let sent = self.inner.gossip(r);
        self.probe.record(Layer::Gossip, now() - t0);
        sent
    }

    fn n_messages(&self) -> usize {
        self.inner.n_messages()
    }

    fn origin(&self, m: usize) -> ReplicaId {
        self.inner.origin(m)
    }

    fn receive(&mut self, r: ReplicaId, m: usize) -> Received {
        let t0 = now();
        let received = self.inner.receive(r, m);
        self.probe.record(Layer::Receive, now() - t0);
        received
    }

    fn message_bytes(&self, m: usize, to: ReplicaId) -> usize {
        self.inner.message_bytes(m, to)
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
        let t0 = now();
        self.inner.final_sync();
        self.probe.record(Layer::FinalSync, now() - t0);
    }

    fn converged(&self) -> bool {
        self.inner.converged()
    }
}

/// The bench-side mirror of [`ral_sim::MonitoredDriver`]: the same calls
/// into the inner [`OpDriver`] and the [`MonitorFeed`], in the same
/// order, each timed into its own layer.
pub struct BenchMonitored<C, F, R, S>
where
    C: OpBased,
    R: Rewrite<C::Label>,
    S: Spec<Label = R::Out>,
{
    inner: OpDriver<C, F>,
    feed: MonitorFeed<C::Label, R, S>,
    fed: usize,
    probe: Probe,
}

impl<C, F, R, S> BenchMonitored<C, F, R, S>
where
    C: OpBased,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
    R: Rewrite<C::Label>,
    S: Spec<Label = R::Out>,
{
    /// Wraps a fresh `inner`, monitoring against `spec` under `rw`.
    pub fn new(inner: OpDriver<C, F>, rw: R, spec: S) -> Self {
        let n = inner.cluster().n_replicas();
        BenchMonitored {
            inner,
            feed: MonitorFeed::new(rw, spec, n),
            fed: 0,
            probe: Probe::default(),
        }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &Cluster<C> {
        self.inner.cluster()
    }

    /// The monitor's rolling verdict.
    pub fn verdict(&self) -> Verdict {
        self.feed.verdict()
    }

    /// The monitor's counters.
    pub fn stats(&self) -> &MonitorStats {
        self.feed.stats()
    }

    /// What was recorded so far.
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    fn observe(&mut self, r: ReplicaId) {
        let f = self.inner.cluster().seen_frontier(r);
        let t0 = now();
        self.feed.observe_frontier(r, f);
        self.probe.record(Layer::Observe, now() - t0);
    }

    fn catch_up(&mut self) {
        while self.fed < self.inner.cluster().history().len() {
            let i = self.fed;
            let h = self.inner.cluster().history();
            let t0 = now();
            self.feed.feed_op(h.label(i), h.preds(i));
            self.probe.record(Layer::Feed, now() - t0);
            self.fed += 1;
            let origin = h.op(i).replica;
            self.observe(origin);
        }
    }
}

impl<C, F, R, S> Driver for BenchMonitored<C, F, R, S>
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
        let t0 = now();
        let invoked = self.inner.invoke(rng, r);
        self.probe.record(Layer::Invoke, now() - t0);
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
        let t0 = now();
        let received = self.inner.receive(r, m);
        self.probe.record(Layer::Receive, now() - t0);
        if matches!(received, Received::Applied(_)) {
            self.observe(r);
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
        let t0 = now();
        let cluster = self.inner.cluster_mut();
        cluster.restart_all();
        let feed = &mut self.feed;
        let probe = &mut self.probe;
        cluster.deliver_all_observed(|r, f| {
            let t = now();
            feed.observe_frontier(r, f);
            let ns = now() - t;
            probe.record(Layer::Observe, ns);
            probe.nested_calls += 1;
            probe.nested_ns += ns;
        });
        self.probe.record(Layer::FinalSync, now() - t0);
    }

    fn converged(&self) -> bool {
        self.inner.converged()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_are_contiguous_and_percentiles_bracket() {
        let mut prev_hi = 0;
        for i in 0..HIST_BUCKETS {
            let (lo, hi) = Hist::bounds(i);
            assert_eq!(lo, prev_hi, "bucket {i} leaves a gap");
            assert_eq!(Hist::bucket(lo), i);
            assert_eq!(Hist::bucket(hi - 1), i);
            prev_hi = hi;
        }
        let mut h = Hist::default();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.max(), 1000);
        let p50 = h.percentile(50.0);
        assert!((400.0..=640.0).contains(&p50), "p50 {p50}");
        assert!(h.percentile(100.0) <= 1000.0);
        assert_eq!(Hist::default().percentile(99.0), 0.0);
    }

    #[test]
    fn probe_correction_removes_nested_time() {
        let mut p = Probe::default();
        p.record(Layer::FinalSync, 1_000);
        p.record(Layer::Observe, 300);
        p.nested_calls = 1;
        p.nested_ns = 300;
        assert_eq!(p.corrected_ns(Layer::FinalSync, 0.0), 700.0);
        assert_eq!(p.outer_ns(0.0), 1_000.0);
    }
}
