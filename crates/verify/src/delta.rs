//! Delta-transport obligations: convergence of delta runs and differential
//! equivalence against full-state replication.
//!
//! Delta-state replication ([`ral_runtime::delta`]) must be *observably
//! indistinguishable* from Appendix D's full-state replication: whatever
//! the network lost, duplicated, reordered, or partitioned, and whatever
//! replicas crashed, the states everyone settles on must be the states a
//! full-state run settles on. The delta transport alone is held to
//! convergence and the lattice + delta laws on the whole `ral-sim`
//! scenario corpus by
//! [`lattice_converges_in`](crate::scenarios::lattice_converges_in), as the
//! full-state one is (every shipped payload is a lattice element, so the
//! obligations of Appendix D transfer verbatim). This module holds the
//! differential harness, [`delta_matches_full_state_in`]: a
//! [`ParityDriver`] runs a full-state [`DeltaCluster`] (resyncs only) and a
//! gossiping one in **lockstep** through the identical simulated schedule —
//! same invocations, same message timings, same faults — with the
//! gossiping cluster replicating the *same mutations* through
//! [`DeltaCluster::ingest_local`]. Both transports must converge to
//! **identical final states**: the inductive argument is that every
//! replica state in either cluster is a join of the same mutation deltas,
//! so the final full synchronization reaches the join of all of them — on
//! both sides.
//!
//! Holding the mutations fixed is what makes the comparison exact: CRDTs
//! whose mutators read the local state (an MV-Register write mints a
//! vector dominating what it has *seen*) would otherwise legitimately
//! resolve concurrency differently under the two transports' different
//! knowledge-propagation timing, and the comparison would say nothing. The
//! differential run isolates precisely the new machinery — buffering,
//! batching, ack-driven GC, resync — and demands it lose nothing.
//!
//! [`DeltaCluster`]: ral_runtime::delta::DeltaCluster

use crate::report::Report;
use ral_core::ids::ReplicaId;
use ral_core::rng::Rng;
use ral_runtime::delta::{DeltaCluster, DeltaConfig, DeltaCrdt};
use ral_sim::driver::{DeltaDriver, Driver, Received, StateDriver};
use ral_sim::scenario::Scenario;
use ral_sim::sim;
use std::ops::Range;

/// Runs a full-state [`DeltaCluster`] (every send a resync) and a
/// gossiping one in lockstep under one simulated schedule, replicating the *same* mutations through
/// both transports.
///
/// Invocations execute on the full-state cluster (the semantic reference);
/// each accepted mutation's join decomposition is mirrored into the delta
/// cluster with [`DeltaCluster::ingest_local`]. Every gossip tick makes
/// both clusters emit one message (snapshot vs batch/resync/heartbeat)
/// with a shared message id, so transmissions, faults, and arrival times
/// coincide exactly; crashes and restarts hit both. After the final
/// synchronization, [`ParityDriver::converged`] additionally demands the
/// two clusters agree replica by replica.
///
/// [`DeltaCluster`]: ral_runtime::delta::DeltaCluster
pub struct ParityDriver<C: DeltaCrdt + Clone, F> {
    full: DeltaCluster<C>,
    delta: DeltaCluster<C>,
    call_gen: F,
}

impl<C, F> ParityDriver<C, F>
where
    C: DeltaCrdt + Clone,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
{
    /// Builds the paired clusters; `call_gen` reads the full-state
    /// cluster's replica state (the semantic reference).
    pub fn new(crdt: C, config: DeltaConfig, n_replicas: usize, call_gen: F) -> Self {
        ParityDriver {
            full: DeltaCluster::new(crdt.clone(), DeltaConfig::default(), n_replicas),
            delta: DeltaCluster::new(crdt, config, n_replicas),
            call_gen,
        }
    }

    /// The full-state reference cluster.
    pub fn full(&self) -> &DeltaCluster<C> {
        &self.full
    }

    /// The delta cluster under test.
    pub fn delta(&self) -> &DeltaCluster<C> {
        &self.delta
    }

    /// Whether every replica of the delta cluster holds exactly the state
    /// of its full-state twin.
    pub fn states_match(&self) -> bool {
        (0..self.full.n_replicas())
            .all(|r| self.full.state(ReplicaId(r as u32)) == self.delta.state(ReplicaId(r as u32)))
    }
}

impl<C, F> Driver for ParityDriver<C, F>
where
    C: DeltaCrdt + Clone,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
{
    const RELIABLE: bool = false;
    const GOSSIPS: bool = true;

    fn n_replicas(&self) -> usize {
        self.full.n_replicas()
    }

    fn invoke(&mut self, rng: &mut Rng, r: ReplicaId) -> bool {
        let Some(call) = (self.call_gen)(rng, r, self.full.state(r)) else {
            return false;
        };
        let pre = self.full.state(r).clone();
        if self.full.invoke(r, call).is_none() {
            return false;
        }
        let post = self.full.state(r);
        if *post != pre {
            // Mirror the mutation's join decomposition into the delta
            // transport; queries leave nothing to replicate.
            let d = self.full.crdt().diff(&pre, post);
            self.delta.ingest_local(r, d);
        }
        true
    }

    fn gossip(&mut self, r: ReplicaId) -> bool {
        // One message each, under the same id.
        self.full.resync(r);
        self.delta.gossip(r);
        true
    }

    fn n_messages(&self) -> usize {
        debug_assert_eq!(self.full.n_messages(), self.delta.n_messages());
        self.full.n_messages()
    }

    fn origin(&self, m: usize) -> ReplicaId {
        self.full.message_origin(m)
    }

    fn receive(&mut self, r: ReplicaId, m: usize) -> Received {
        self.full.apply(r, m);
        self.delta.apply(r, m);
        Received::Applied(1)
    }

    fn is_up(&self, r: ReplicaId) -> bool {
        self.full.is_up(r)
    }

    fn crash(&mut self, r: ReplicaId) {
        self.full.crash(r);
        self.delta.crash(r);
    }

    fn restart(&mut self, r: ReplicaId) {
        self.full.restart(r);
        self.delta.restart(r);
    }

    fn final_sync(&mut self) {
        self.full.restart_all();
        self.full.resync_round();
        self.delta.restart_all();
        self.delta.sync_all();
    }

    fn converged(&self) -> bool {
        self.full.converged() && self.delta.converged() && self.states_match()
    }
}

/// Checks that delta and full-state replication reach **identical final
/// states** under a named scenario: for every seed, a lockstep
/// [`ParityDriver`] run converges on both transports and agrees replica by
/// replica.
pub fn delta_matches_full_state_in<C, F, M>(
    crdt: C,
    config: DeltaConfig,
    scenario: &Scenario,
    seeds: Range<u64>,
    mut mk_call_gen: M,
) -> Report
where
    C: DeltaCrdt + Clone,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
    M: FnMut() -> F,
{
    let mut report = Report::new(format!("DeltaParity@{}", scenario.name));
    for seed in seeds {
        let mut driver =
            ParityDriver::new(crdt.clone(), config, scenario.cfg.n_replicas, mk_call_gen());
        sim::run(&mut driver, &scenario.cfg, seed);
        if !driver.full().converged() {
            report.fail(format!("seed {seed}: full-state replicas diverged"));
        } else if !driver.delta().converged() {
            report.fail(format!("seed {seed}: delta replicas diverged"));
        } else if !driver.states_match() {
            report.fail(format!(
                "seed {seed}: delta final states differ from full-state final states"
            ));
        } else {
            report.pass();
        }
    }
    report
}

/// Runs one seeded scenario under both transports (independently, not in
/// lockstep) and returns `(full_state_bytes, delta_bytes)` — the total
/// wire payload each put on links. The bandwidth claim of the `ral-bench`
/// `delta_bandwidth` target, as a testable function.
pub fn payload_bytes_comparison<C, F, M>(
    crdt: C,
    config: DeltaConfig,
    scenario: &Scenario,
    seed: u64,
    mut mk_call_gen: M,
) -> (u64, u64)
where
    C: DeltaCrdt + Clone + 'static,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
    M: FnMut() -> F,
{
    let sizer_crdt = crdt.clone();
    let mut full_driver = StateDriver::new(crdt.clone(), scenario.cfg.n_replicas, mk_call_gen())
        .with_sizer(move |s| sizer_crdt.state_bytes(s));
    let full_run = sim::run(&mut full_driver, &scenario.cfg, seed);

    let mut delta_driver = DeltaDriver::new(crdt, config, scenario.cfg.n_replicas, mk_call_gen());
    let delta_run = sim::run(&mut delta_driver, &scenario.cfg, seed);
    assert!(full_driver.converged() && delta_driver.converged());
    (full_run.stats.payload_bytes, delta_run.stats.payload_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::lattice_converges_in;
    use crate::workloads;
    use ral_crdts::state::lww_element_set::LwwElementSet;
    use ral_crdts::state::pn_counter::PnCounter;
    use ral_sim::scenario;

    #[test]
    fn pn_counter_parity_on_the_delta_wan() {
        let report = delta_matches_full_state_in(
            PnCounter,
            DeltaConfig { resync_after: 8 },
            &scenario::delta_wan(),
            0..2,
            || |rng: &mut Rng, _, _| Some(workloads::pn_counter(rng)),
        );
        assert!(report.ok(), "{report}");
    }

    #[test]
    fn lww_set_delta_transport_converges_on_the_delta_wan() {
        let report = lattice_converges_in(&scenario::delta_wan(), 0..2, |n| {
            DeltaDriver::new(
                LwwElementSet::<u8>::new(),
                DeltaConfig::default(),
                n,
                |rng, _, _| Some(workloads::lww_element_set(rng)),
            )
        });
        assert!(report.ok(), "{report}");
    }

    #[test]
    fn deltas_ship_fewer_bytes_than_snapshots() {
        let (full, delta) = payload_bytes_comparison(
            LwwElementSet::<u8>::new(),
            DeltaConfig::default(),
            &scenario::flaky_wan(),
            3,
            || |rng: &mut Rng, _, _| Some(workloads::lww_element_set(rng)),
        );
        assert!(
            delta < full,
            "delta transport shipped {delta} bytes, full-state {full}"
        );
    }
}
