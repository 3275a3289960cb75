//! `Driver::release` changes memory, never behaviour.
//!
//! On the two loss-tolerant transports the engine tells the driver when the
//! last queued arrival of a message has been spent, and the cluster answers
//! by replacing the message's payload with ⊥: the heartbeat its origin could
//! have sent instead, for a full-state snapshot and a delta batch alike
//! (both ride the one lattice delivery core). These tests hold that to its
//! claim on the two lossy WAN
//! scenarios: a run through a wrapper that swallows every `release` has the
//! same trace, history, final states and statistics as the plain run; every
//! message whose arrivals were all spent really is released, and none is
//! handed to `receive` — or sized by `message_bytes` — afterwards. A
//! full-state run also never gossips: every message it sends is a resync.

use ral_core::ids::ReplicaId;
use ral_core::rng::Rng;
use ral_crdts::state::lww_element_set::{LwwElementSet, LwwSetCall, LwwSetState};
use ral_runtime::delta::{DeltaConfig, DeltaCrdt};
use ral_sim::driver::{DeltaDriver, Driver, LatticeDriver, Propagation, Received, StateDriver};
use ral_sim::scenario::{self, Scenario};
use ral_sim::sim::{self, SimRun, SimStats};
use ral_sim::trace::{Trace, TraceEvent};
use ral_verify::workloads;

type Lww = LwwElementSet<u8>;
type CallGen = fn(&mut Rng, ReplicaId, &LwwSetState<u8>) -> Option<LwwSetCall<u8>>;

fn calls(rng: &mut Rng, _: ReplicaId, _: &LwwSetState<u8>) -> Option<LwwSetCall<u8>> {
    Some(workloads::lww_element_set(rng))
}

fn state_driver(sc: &Scenario) -> StateDriver<Lww, CallGen> {
    let crdt = Lww::new();
    StateDriver::new(crdt, sc.cfg.n_replicas, calls as CallGen)
        .with_sizer(move |s| crdt.state_bytes(s))
}

fn delta_driver(sc: &Scenario) -> DeltaDriver<Lww, CallGen> {
    // A tight resync horizon, so resync payloads are released too.
    let config = DeltaConfig { resync_after: 8 };
    DeltaDriver::new(Lww::new(), config, sc.cfg.n_replicas, calls as CallGen)
}

/// Forwards everything to the wrapped driver — except `release`, which it
/// records (and forwards only if `forward` is set). Panics if the engine
/// touches a message after releasing it.
struct Watch<D> {
    inner: D,
    forward: bool,
    released: Vec<usize>,
}

impl<D: Driver> Watch<D> {
    fn new(inner: D, forward: bool) -> Self {
        Watch {
            inner,
            forward,
            released: Vec::new(),
        }
    }

    fn assert_live(&self, m: usize, what: &str) {
        assert!(
            !self.released.contains(&m),
            "{what} of released message {m}"
        );
    }
}

impl<D: Driver> Driver for Watch<D> {
    const RELIABLE: bool = D::RELIABLE;
    const GOSSIPS: bool = D::GOSSIPS;

    fn n_replicas(&self) -> usize {
        self.inner.n_replicas()
    }
    fn invoke(&mut self, rng: &mut Rng, r: ReplicaId) -> bool {
        self.inner.invoke(rng, r)
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
        self.assert_live(m, "receive");
        self.inner.receive(r, m)
    }
    fn message_bytes(&self, m: usize, to: ReplicaId) -> usize {
        // Routing sizes a message before any of its arrivals is queued,
        // hence before it can be released.
        self.assert_live(m, "message_bytes");
        self.inner.message_bytes(m, to)
    }
    fn release(&mut self, m: usize) {
        self.assert_live(m, "second release");
        self.released.push(m);
        if self.forward {
            self.inner.release(m);
        }
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
        self.inner.final_sync();
    }
    fn converged(&self) -> bool {
        self.inner.converged()
    }
}

/// Everything observable about one finished run.
#[derive(Debug, PartialEq)]
struct Observed {
    trace: String,
    stats: SimStats,
    history: String,
    states: Vec<LwwSetState<u8>>,
}

impl Observed {
    fn of<D>((run, trace): (SimRun, Trace), driver: &D, observe: Observe<D>) -> Self {
        let (history, states) = observe(driver);
        Observed {
            trace: trace.render(),
            stats: run.stats,
            history,
            states,
        }
    }
}

/// Reads the history (rendered) and the replica states off a driver.
type Observe<D> = fn(&D) -> (String, Vec<LwwSetState<u8>>);

/// Runs the driver `mk` builds plainly (releasing), through a [`Watch`]
/// that forwards every release, and through one that swallows them all;
/// the three must be indistinguishable. Returns the plain run's statistics
/// and the releases the engine issued.
fn release_is_unobservable<D: Driver>(
    sc: &Scenario,
    seed: u64,
    mk: fn(&Scenario) -> D,
    observe: Observe<D>,
) -> (SimStats, Vec<usize>) {
    let run_watched = |forward| {
        let mut driver = Watch::new(mk(sc), forward);
        let (run, trace) = sim::replay(&mut driver, &sc.cfg, seed);
        assert!(driver.converged(), "{}: no convergence", sc.name);
        // Every message routed during the active phase is either released
        // or still has an arrival queued past the end of the run.
        let routed = trace
            .iter()
            .filter_map(|(_, e)| match e {
                TraceEvent::Send { msg, .. } | TraceEvent::Drop { msg, .. } => Some(msg),
                _ => None,
            })
            .max()
            .map_or(0, |m| m + 1);
        assert!(driver.released.len() <= routed);
        assert!(
            driver.released.len() * 10 >= routed * 9,
            "{}: only {} of {routed} routed messages were released",
            sc.name,
            driver.released.len()
        );
        (
            Observed::of((run, trace), &driver.inner, observe),
            driver.released,
        )
    };
    let (kept, asked) = run_watched(false);
    let (released, asked_again) = run_watched(true);
    assert_eq!(asked, asked_again, "what is released depends on the answer");
    assert_eq!(kept, released, "{} seed {seed}", sc.name);

    let mut plain = mk(sc);
    let (run, trace) = sim::replay(&mut plain, &sc.cfg, seed);
    let stats = run.stats;
    let plain = Observed::of((run, trace), &plain, observe);
    assert_eq!(kept, plain, "{} seed {seed}: the wrapper itself", sc.name);
    (stats, asked)
}

fn observe<P: Propagation<Lww>>(
    d: &LatticeDriver<Lww, CallGen, P>,
) -> (String, Vec<LwwSetState<u8>>) {
    let c = d.cluster();
    let states = (0..c.n_replicas() as u32).map(|r| c.state(ReplicaId(r)).clone());
    (format!("{:?}", c.history()), states.collect())
}

#[test]
fn release_changes_nothing_a_state_based_run_can_observe() {
    for sc in [scenario::delta_wan(), scenario::flaky_wan()] {
        for seed in 0..2 {
            let (stats, released) = release_is_unobservable(&sc, seed, state_driver, observe);
            assert!(stats.dropped > 0 && stats.duplicated > 0, "{}", sc.name);
            assert!(stats.payload_bytes > 0, "sized before any release");
            assert!(!released.is_empty());
        }
    }
}

#[test]
fn release_changes_nothing_a_delta_run_can_observe() {
    for sc in [scenario::delta_wan(), scenario::flaky_wan()] {
        for seed in 0..2 {
            let (stats, released) = release_is_unobservable(&sc, seed, delta_driver, observe);
            assert!(stats.dropped > 0 && stats.duplicated > 0, "{}", sc.name);
            assert!(stats.payload_bytes > 0, "sized before any release");
            assert!(!released.is_empty());
        }
    }
}

#[test]
fn released_payloads_are_bottom_after_the_run() {
    // (That applying a heartbeat to a replica that lacks the payload changes
    // nothing is pinned next to the clusters, in `ral-runtime`.)
    let sc = scenario::delta_wan();

    let mut state = Watch::new(state_driver(&sc), true);
    sim::run(&mut state, &sc.cfg, 7);
    let cluster = state.inner.cluster();
    for &m in &state.released {
        assert!(cluster.message(m).is_heartbeat());
        assert!(cluster.message(m).seen().is_empty());
    }
    let kept = (0..cluster.n_messages()).filter(|&m| cluster.message(m).is_resync());
    assert_eq!(kept.count(), cluster.n_messages() - state.released.len());

    let mut delta = Watch::new(delta_driver(&sc), true);
    sim::run(&mut delta, &sc.cfg, 7);
    for &m in &delta.released {
        assert!(delta.inner.cluster().message(m).is_heartbeat());
        assert_eq!(delta.inner.receive(ReplicaId(0), m), Received::Ignored);
    }
}

/// A full-state run is a lattice cluster that only resyncs: whatever the
/// scenario does, no delta batch or heartbeat is ever sent, and every
/// message the engine did not release still carries its snapshot.
#[test]
fn a_full_state_run_never_gossips() {
    for sc in [
        scenario::flaky_wan(),
        scenario::delta_wan(),
        scenario::rolling_restart(),
    ] {
        for seed in 0..2 {
            let mut driver = Watch::new(state_driver(&sc), true);
            sim::run(&mut driver, &sc.cfg, seed);
            let cluster = driver.inner.cluster();
            let stats = cluster.stats();
            let at = format!("{} seed {seed}", sc.name);
            assert_eq!((stats.batches, stats.heartbeats), (0, 0), "{at}");
            assert_eq!(stats.resyncs, cluster.n_messages(), "{at}");
            for m in (0..cluster.n_messages()).filter(|m| !driver.released.contains(m)) {
                assert!(cluster.message(m).is_resync(), "{at}: message {m}");
            }
        }
    }
}

#[test]
fn reliable_runs_are_never_asked_to_release() {
    use ral_crdts::op::counter::OpCounter;
    use ral_sim::driver::OpDriver;
    let sc = scenario::split_brain_heal();
    let inner = OpDriver::new(OpCounter, sc.cfg.n_replicas, |rng: &mut Rng, _, _| {
        Some(workloads::counter(rng))
    });
    let mut driver = Watch::new(inner, false);
    sim::run(&mut driver, &sc.cfg, 3);
    assert!(driver.converged());
    assert!(driver.released.is_empty());
}
