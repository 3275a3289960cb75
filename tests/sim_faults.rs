//! Fault-tolerance coverage through the simulator, per the paper's claims:
//!
//! * **Appendix D.2** — state-based propagation explicitly tolerates
//!   message loss, duplication, and reordering: every state-based CRDT in
//!   `ral_crdts::state` must converge (and keep its lattice laws) under
//!   the `flaky_wan` scenario, which drops a quarter of all snapshots,
//!   duplicates a fifth, and jitters latency enough to reorder almost
//!   every pair;
//! * **Sections 3–4** — op-based CRDTs assume causal delivery but nothing
//!   about timing or availability: every op-based CRDT's history recorded
//!   under the `split_brain_heal` scenario (two scheduled partitions, both
//!   sides writing throughout) must still pass its RA-linearizability
//!   check with the strategy Figure 12 claims.

use ral_core::label::Identity;
use ral_core::rng::Rng;
use ral_crdts::op::counter::OpCounter;
use ral_crdts::op::lww_register::LwwRegister;
use ral_crdts::op::or_set::{OrSet, OrSetRewrite};
use ral_crdts::op::rga::Rga;
use ral_crdts::op::rga_addat::RgaAddAt;
use ral_crdts::op::wooki::{Wooki, WookiCall, WookiState};
use ral_crdts::state::lww_element_set::LwwElementSet;
use ral_crdts::state::mv_register::MvRegister;
use ral_crdts::state::pn_counter::PnCounter;
use ral_crdts::state::two_phase_set::TwoPhaseSet;
use ral_sim::driver::StateDriver;
use ral_sim::scenario;
use ral_spec::addat::AddAt3Spec;
use ral_spec::counter::CounterSpec;
use ral_spec::register::RegSpec;
use ral_spec::rga::RgaSpec;
use ral_spec::set::OrSetSpec;
use ral_spec::wooki::{WookiAnchor, WookiSpec};
use ral_verify::scenarios::{lattice_converges_in, op_linearizable_in};
use ral_verify::workloads;

const SEEDS: std::ops::Range<u64> = 0..3;

// ---------------------------------------------------------------------------
// Appendix D.2: every state-based CRDT converges under flaky_wan.
// ---------------------------------------------------------------------------

#[test]
fn pn_counter_converges_under_flaky_wan() {
    let report = lattice_converges_in(&scenario::flaky_wan(), SEEDS, |n| {
        StateDriver::new(PnCounter, n, |rng: &mut Rng, _, _| {
            Some(workloads::pn_counter(rng))
        })
    });
    assert!(report.ok(), "{report}");
}

#[test]
fn mv_register_converges_under_flaky_wan() {
    let report = lattice_converges_in(&scenario::flaky_wan(), SEEDS, |n| {
        StateDriver::new(MvRegister::<u8>::new(), n, |rng: &mut Rng, _, _| {
            Some(workloads::mv_register(rng))
        })
    });
    assert!(report.ok(), "{report}");
}

#[test]
fn lww_element_set_converges_under_flaky_wan() {
    let report = lattice_converges_in(&scenario::flaky_wan(), SEEDS, |n| {
        StateDriver::new(LwwElementSet::<u8>::new(), n, |rng: &mut Rng, _, _| {
            Some(workloads::lww_element_set(rng))
        })
    });
    assert!(report.ok(), "{report}");
}

#[test]
fn two_phase_set_converges_under_flaky_wan() {
    let report = lattice_converges_in(&scenario::flaky_wan(), SEEDS, |n| {
        let mut next = 0u16;
        StateDriver::new(TwoPhaseSet::<u16>::new(), n, move |rng: &mut Rng, _, st| {
            workloads::two_phase_set(rng, st, &mut next)
        })
    });
    assert!(report.ok(), "{report}");
}

/// Crash-recovery belongs to the same tolerance story: durable-checkpoint
/// restarts lose only merged-in knowledge, which redelivery restores.
#[test]
fn state_crdts_converge_under_rolling_restart() {
    let report = lattice_converges_in(&scenario::rolling_restart(), SEEDS, |n| {
        StateDriver::new(PnCounter, n, |rng: &mut Rng, _, _| {
            Some(workloads::pn_counter(rng))
        })
    });
    assert!(report.ok(), "{report}");
    let report = lattice_converges_in(&scenario::rolling_restart(), SEEDS, |n| {
        StateDriver::new(LwwElementSet::<u8>::new(), n, |rng: &mut Rng, _, _| {
            Some(workloads::lww_element_set(rng))
        })
    });
    assert!(report.ok(), "{report}");
}

// ---------------------------------------------------------------------------
// Sections 3–4: every op-based CRDT RA-linearizes under split_brain_heal.
// ---------------------------------------------------------------------------

#[test]
fn op_counter_linearizes_under_split_brain() {
    let report = op_linearizable_in(
        OpCounter,
        &scenario::split_brain_heal(),
        &Identity,
        &CounterSpec,
        OpCounter::STRATEGY,
        SEEDS,
        || |rng: &mut Rng, _, _| Some(workloads::counter(rng)),
    );
    assert!(report.ok(), "{report}");
}

#[test]
fn lww_register_linearizes_under_split_brain() {
    let report = op_linearizable_in(
        LwwRegister::<u8>::new(),
        &scenario::split_brain_heal(),
        &Identity,
        &RegSpec::new(),
        LwwRegister::<u8>::STRATEGY,
        SEEDS,
        || |rng: &mut Rng, _, _| Some(workloads::lww_register(rng)),
    );
    assert!(report.ok(), "{report}");
}

#[test]
fn or_set_linearizes_under_split_brain() {
    let report = op_linearizable_in(
        OrSet::<u8>::new(),
        &scenario::split_brain_heal(),
        &OrSetRewrite::new(),
        &OrSetSpec::new(),
        OrSet::<u8>::STRATEGY,
        SEEDS,
        || |rng: &mut Rng, _, _| Some(workloads::or_set(rng)),
    );
    assert!(report.ok(), "{report}");
}

#[test]
fn rga_linearizes_under_split_brain() {
    let report = op_linearizable_in(
        Rga::<u16>::new(),
        &scenario::split_brain_heal(),
        &Identity,
        &RgaSpec::new(),
        Rga::<u16>::STRATEGY,
        SEEDS,
        || {
            let mut next = 0u16;
            move |rng: &mut Rng, _, st| workloads::rga(rng, st, &mut next)
        },
    );
    assert!(report.ok(), "{report}");
}

#[test]
fn rga_addat_linearizes_under_split_brain() {
    let report = op_linearizable_in(
        RgaAddAt::<u16>::new(),
        &scenario::split_brain_heal(),
        &Identity,
        &AddAt3Spec::new(),
        RgaAddAt::<u16>::STRATEGY,
        SEEDS,
        || {
            let mut next = 0u16;
            move |rng: &mut Rng, _, st| workloads::rga_addat(rng, st, &mut next)
        },
    );
    assert!(report.ok(), "{report}");
}

/// Wooki's nondeterministic specification makes checking exponential in
/// concurrent inserts (see `Wooki` in `ral_verify::families`), so its
/// split-brain workload is deliberately sparse: few inserts, occasional
/// reads, most turns skipped. The *scenario* — both partitions, full
/// duration — is unchanged.
#[test]
fn wooki_linearizes_under_split_brain() {
    let report = op_linearizable_in(
        Wooki::<u16>::new(),
        &scenario::split_brain_heal(),
        &Identity,
        &WookiSpec::new(),
        Wooki::<u16>::STRATEGY,
        0..2,
        || {
            let mut next = 0u16;
            move |rng: &mut Rng, _, state: &WookiState<u16>| {
                let roll: u8 = rng.random_range(0..12);
                if roll < 2 && next < 6 {
                    let all = state.all_values();
                    let (left, right) = if all.is_empty() {
                        (WookiAnchor::Begin, WookiAnchor::End)
                    } else {
                        let i = rng.random_range(0..=all.len());
                        let j = rng.random_range(i..=all.len());
                        (
                            if i == 0 {
                                WookiAnchor::Begin
                            } else {
                                WookiAnchor::Elem(all[i - 1])
                            },
                            if j == all.len() {
                                WookiAnchor::End
                            } else {
                                WookiAnchor::Elem(all[j])
                            },
                        )
                    };
                    next += 1;
                    Some(WookiCall::AddBetween(left, next, right))
                } else if roll == 11 {
                    Some(WookiCall::Read)
                } else {
                    None
                }
            }
        },
    );
    assert!(report.ok(), "{report}");
}
