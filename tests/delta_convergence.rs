//! Delta-replication obligations over the whole scenario corpus:
//!
//! * **parity** — for all four state-based CRDTs and every named scenario,
//!   a lockstep differential run (`ral_verify::delta::ParityDriver`)
//!   replicates the *same mutations* through full-state snapshots and
//!   through the delta transport, under the identical schedule of
//!   invocations, transmissions, faults, and crashes — and must converge
//!   to **identical final states** on both sides;
//! * **native convergence** — the delta transport driving its own cluster
//!   (`DeltaDriver`, delta mutators included) converges and keeps the
//!   lattice + delta laws under every scenario;
//! * **bandwidth** — on the 50-replica gossip mesh the delta transport
//!   ships strictly fewer payload bytes than full-state snapshots (the
//!   claim the `delta_bandwidth` bench quantifies).
//!
//! A tight resync horizon (`resync_after: 8`) keeps the fallback machinery
//! — buffer overflow under partition, ack regression after crashes — in
//! play on the fault scenarios rather than only in unit tests.

use ral_core::rng::Rng;
use ral_crdts::state::lww_element_set::LwwElementSet;
use ral_crdts::state::mv_register::MvRegister;
use ral_crdts::state::pn_counter::PnCounter;
use ral_crdts::state::two_phase_set::TwoPhaseSet;
use ral_runtime::delta::DeltaConfig;
use ral_sim::driver::DeltaDriver;
use ral_sim::scenario;
use ral_verify::delta::{delta_matches_full_state_in, payload_bytes_comparison};
use ral_verify::scenarios::lattice_converges_in;
use ral_verify::workloads;

const SEEDS: std::ops::Range<u64> = 0..2;

fn config() -> DeltaConfig {
    DeltaConfig { resync_after: 8 }
}

// ---------------------------------------------------------------------------
// Parity: identical final states, all four CRDTs × the whole corpus.
// ---------------------------------------------------------------------------

#[test]
fn pn_counter_parity_across_the_corpus() {
    for sc in scenario::all() {
        let report = delta_matches_full_state_in(PnCounter, config(), &sc, SEEDS, || {
            |rng: &mut Rng, _, _| Some(workloads::pn_counter(rng))
        });
        assert!(report.ok(), "{}: {report}", sc.name);
    }
}

#[test]
fn mv_register_parity_across_the_corpus() {
    for sc in scenario::all() {
        let report =
            delta_matches_full_state_in(MvRegister::<u8>::new(), config(), &sc, SEEDS, || {
                |rng: &mut Rng, _, _| Some(workloads::mv_register(rng))
            });
        assert!(report.ok(), "{}: {report}", sc.name);
    }
}

#[test]
fn lww_element_set_parity_across_the_corpus() {
    for sc in scenario::all() {
        let report =
            delta_matches_full_state_in(LwwElementSet::<u8>::new(), config(), &sc, SEEDS, || {
                |rng: &mut Rng, _, _| Some(workloads::lww_element_set(rng))
            });
        assert!(report.ok(), "{}: {report}", sc.name);
    }
}

#[test]
fn two_phase_set_parity_across_the_corpus() {
    for sc in scenario::all() {
        let report =
            delta_matches_full_state_in(TwoPhaseSet::<u16>::new(), config(), &sc, SEEDS, || {
                let mut next = 0u16;
                move |rng: &mut Rng, _, st| workloads::two_phase_set(rng, st, &mut next)
            });
        assert!(report.ok(), "{}: {report}", sc.name);
    }
}

// ---------------------------------------------------------------------------
// Native delta runs: the transport with its own delta mutators converges.
// The parity suite above already walks the whole corpus; these runs focus
// on the fault-heavy scenarios, where retransmission, GC starvation, and
// resync actually fire.
// ---------------------------------------------------------------------------

fn fault_scenarios() -> Vec<scenario::Scenario> {
    scenario::all()
        .into_iter()
        .filter(|s| {
            matches!(
                s.name,
                "flaky_wan" | "rolling_restart" | "split_brain_heal" | "delta_wan"
            )
        })
        .collect()
}

#[test]
fn pn_counter_delta_transport_converges_across_the_corpus() {
    for sc in fault_scenarios() {
        let report = lattice_converges_in(&sc, SEEDS, |n| {
            DeltaDriver::new(PnCounter, config(), n, |rng: &mut Rng, _, _| {
                Some(workloads::pn_counter(rng))
            })
        });
        assert!(report.ok(), "{}: {report}", sc.name);
    }
}

#[test]
fn mv_register_delta_transport_converges_across_the_corpus() {
    for sc in fault_scenarios() {
        let report = lattice_converges_in(&sc, SEEDS, |n| {
            DeltaDriver::new(
                MvRegister::<u8>::new(),
                config(),
                n,
                |rng: &mut Rng, _, _| Some(workloads::mv_register(rng)),
            )
        });
        assert!(report.ok(), "{}: {report}", sc.name);
    }
}

#[test]
fn lww_element_set_delta_transport_converges_across_the_corpus() {
    for sc in fault_scenarios() {
        let report = lattice_converges_in(&sc, SEEDS, |n| {
            DeltaDriver::new(
                LwwElementSet::<u8>::new(),
                config(),
                n,
                |rng: &mut Rng, _, _| Some(workloads::lww_element_set(rng)),
            )
        });
        assert!(report.ok(), "{}: {report}", sc.name);
    }
}

#[test]
fn two_phase_set_delta_transport_converges_across_the_corpus() {
    for sc in fault_scenarios() {
        let report = lattice_converges_in(&sc, SEEDS, |n| {
            let mut next = 0u16;
            DeltaDriver::new(
                TwoPhaseSet::<u16>::new(),
                config(),
                n,
                move |rng: &mut Rng, _, st| workloads::two_phase_set(rng, st, &mut next),
            )
        });
        assert!(report.ok(), "{}: {report}", sc.name);
    }
}

// ---------------------------------------------------------------------------
// Bandwidth: strictly fewer payload bytes on the 50-replica gossip mesh.
// ---------------------------------------------------------------------------

#[test]
fn delta_ships_fewer_bytes_than_full_state_on_gossip_50() {
    let sc = scenario::gossip_50();
    let (full, delta) = payload_bytes_comparison(PnCounter, DeltaConfig::default(), &sc, 7, || {
        |rng: &mut Rng, _, _| Some(workloads::pn_counter(rng))
    });
    assert!(
        delta < full,
        "gossip_50/pn_counter: delta shipped {delta} bytes, full-state {full}"
    );

    // The gap widens for types whose full snapshots accumulate history:
    // an LWW snapshot carries every pair ever written, a delta only the
    // unacknowledged tail.
    let (full, delta) = payload_bytes_comparison(
        LwwElementSet::<u8>::new(),
        DeltaConfig::default(),
        &sc,
        7,
        || |rng: &mut Rng, _, _| Some(workloads::lww_element_set(rng)),
    );
    assert!(
        delta < full,
        "gossip_50/lww: delta shipped {delta} bytes, full-state {full}"
    );
}
