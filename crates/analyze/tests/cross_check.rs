//! Cross-validation of the two verification walks.
//!
//! The repo has two independent ways to *produce the configurations* the
//! paper's obligations are judged on: the seeded random suites in
//! `ral-verify` (sampling, deep executions) and the bounded-exhaustive
//! engines in `ral-analyze` (complete, shallow executions). The obligations
//! themselves are stated once (`ral_runtime::laws`,
//! `ral_verify::{state_props, commutativity}`) and both walks report into
//! them, so agreement here shows neither walk misses what the other
//! reaches; that the predicates can fail at all is shown by the mutant
//! tables beside them, the two fixtures below and Figure 10
//! (`fixtures/fig10_inversion.txt`). The walks must never disagree:
//!
//! * on every **shipped** CRDT, the analyzer discharges and the seeded
//!   suite passes;
//! * on every **broken** fixture, the analyzer refutes and the seeded
//!   suite fails too;
//! * every replica state a seeded random walk (restricted to the
//!   [`SmallScope`] call pool and the scope's update budget) visits is a
//!   state the exhaustive search also visited — i.e. the bounded search
//!   really does subsume the random one at equal scope.
//!
//! The scope-2 analyses run here are also the ones that hold
//! `golden/analyze_k2.json` — the obligation sections of the scope-2
//! `ANALYZE_report.json`, byte for byte — so the debug profile explores
//! each type once: every scope-2 analysis below checks its own row, and
//! `remaining_rows_match_the_scope_2_golden` covers the six cheap rows no
//! other test here computes.

use ral_analyze::fixtures::{BrokenCall, BrokenCounter, SumCall, SummingCounter};
use ral_analyze::lint::LintOutcome;
use ral_analyze::op_engine::analyze_op;
use ral_analyze::registry::analyze_fixtures;
use ral_analyze::report::render_report;
use ral_analyze::state_engine::{analyze_state, MAX_SENDS};
use ral_analyze::ts_engine::analyze_ts;
use ral_analyze::TypeReport;
use ral_core::ids::ReplicaId;
use ral_core::rng::Rng;
use ral_core::scope::SmallScope;
use ral_crdts::{
    LwwElementSet, LwwRegister, MvRegister, OpCounter, OrSet, PnCounter, Rga, RgaAddAt,
    TwoPhaseSet, Wooki,
};
use ral_runtime::delta::{DeltaCluster, DeltaConfig, DeltaCrdt};
use ral_runtime::op_based::{Cluster, OpBased};
use ral_runtime::state_based::StateBased;
use ral_verify::{commutativity, state_props, workloads};
use std::collections::BTreeSet;

const SEEDS: std::ops::Range<u64> = 0..3;
const STEPS: usize = 30;
// A seed on which every type's scoped walk visits at least two distinct
// states (some seeds burn the whole update budget on no-op removes of
// absent elements, making the subset assertion vacuous).
const WALK_SEED: u64 = 37;
const WALK_STEPS: usize = 60;

/// A seeded random walk over an op-based cluster, restricted exactly to
/// what the exhaustive search explores: `scope_calls` pools, at most `k`
/// updates, causal deliveries. Returns every replica state it visits.
fn op_walk<C>(crdt: &C, k: usize) -> BTreeSet<String>
where
    C: OpBased + SmallScope<Call = <C as OpBased>::Call> + Clone,
{
    let n = crdt.scope_replicas(k);
    let mut cluster = Cluster::new(crdt.clone(), n);
    let mut rng = Rng::seed_from_u64(WALK_SEED);
    let mut updates = 0usize;
    let mut keys = BTreeSet::new();
    for _ in 0..WALK_STEPS {
        for r in 0..n {
            keys.insert(format!("{:?}", cluster.state(ReplicaId(r as u32))));
        }
        let r = ReplicaId(rng.random_range(0..n) as u32);
        if updates < k && rng.random_bool(0.5) {
            let pool = crdt.scope_calls(updates, k);
            if pool.is_empty() {
                continue;
            }
            let call = pool[rng.random_range(0..pool.len())].clone();
            if cluster.invoke(r, call).is_some() {
                updates += 1;
            }
        } else {
            let ds = cluster.deliverable(r);
            if ds.is_empty() {
                continue;
            }
            cluster.deliver(r, ds[rng.random_range(0..ds.len())]);
        }
    }
    for r in 0..n {
        keys.insert(format!("{:?}", cluster.state(ReplicaId(r as u32))));
    }
    keys
}

/// The state-based analogue of [`op_walk`], honoring the engine's send and
/// at-most-once-apply budgets.
fn state_walk<C>(crdt: &C, k: usize) -> BTreeSet<String>
where
    C: DeltaCrdt + SmallScope<Call = <C as StateBased>::Call> + Clone,
{
    let n = crdt.scope_replicas(k);
    let mut cluster = DeltaCluster::new(crdt.clone(), DeltaConfig::default(), n);
    let mut rng = Rng::seed_from_u64(WALK_SEED);
    let (mut updates, mut sends) = (0usize, 0usize);
    let mut applied: BTreeSet<(u32, usize)> = BTreeSet::new();
    let mut keys = BTreeSet::new();
    for _ in 0..WALK_STEPS {
        for r in 0..n {
            keys.insert(format!("{:?}", cluster.state(ReplicaId(r as u32))));
        }
        let r = ReplicaId(rng.random_range(0..n) as u32);
        match rng.random_range(0..3u8) {
            0 if updates < k => {
                let pool = crdt.scope_calls(updates, k);
                if pool.is_empty() {
                    continue;
                }
                let call = pool[rng.random_range(0..pool.len())].clone();
                if cluster.invoke(r, call).is_some() {
                    updates += 1;
                }
            }
            1 if sends < MAX_SENDS => {
                cluster.resync(r);
                sends += 1;
            }
            2 if cluster.n_messages() > 0 => {
                let m = rng.random_range(0..cluster.n_messages());
                if cluster.message_origin(m) != r && applied.insert((r.0, m)) {
                    cluster.apply(r, m);
                }
            }
            _ => {}
        }
    }
    for r in 0..n {
        keys.insert(format!("{:?}", cluster.state(ReplicaId(r as u32))));
    }
    keys
}

/// `report`'s row, exactly as `ANALYZE_report.json` prints it, must be a row
/// of the scope-2 golden: every `configs` and `checks` count, and for a
/// fixture the obligation, detail, `ops` and shrunk trace of its refutation.
fn assert_golden_row(report: &TypeReport, fixture: bool) {
    let one = std::slice::from_ref(report);
    let (shipped, fixtures): (&[TypeReport], &[TypeReport]) =
        if fixture { (&[], one) } else { (one, &[]) };
    let json = render_report(2, shipped, fixtures, &LintOutcome::default());
    let row = json
        .lines()
        .find(|l| l.starts_with("    {"))
        .expect("one report renders one row");
    assert!(
        include_str!("golden/analyze_k2.json")
            .lines()
            .any(|l| l.trim_end_matches(',') == row),
        "{} drifted from golden/analyze_k2.json:\n{row}",
        report.name
    );
}

fn assert_subset(name: &str, walked: &BTreeSet<String>, explored: &BTreeSet<String>) {
    for s in walked {
        assert!(
            explored.contains(s),
            "{name}: the seeded walk reached state {s} that the exhaustive \
             search never visited — the bounded search is not exhaustive"
        );
    }
    assert!(walked.len() > 1, "{name}: the walk went nowhere — vacuous");
}

#[test]
fn op_types_agree_with_seeded_suite_and_subsume_its_walks() {
    // (scope per type: 3 where the debug-build search is cheap, 2 for the
    // branching-heavy list types; the release CLI runs everything at 3.)
    let a = analyze_op(&OpCounter, "OpCounter", 3);
    assert!(a.report.discharged(), "{}", a.report);
    let s = commutativity::check_op_based(OpCounter, 3, STEPS, SEEDS, |rng, _, _| {
        Some(workloads::counter(rng))
    });
    assert!(s.ok(), "seeded suite disagrees on OpCounter: {s:?}");
    assert_subset("OpCounter", &op_walk(&OpCounter, 3), &a.state_keys);

    let reg = LwwRegister::<u8>::new();
    let a = analyze_op(&reg, "LwwRegister", 3);
    assert!(a.report.discharged(), "{}", a.report);
    let s = commutativity::check_op_based(reg, 3, STEPS, SEEDS, |rng, _, _| {
        Some(workloads::lww_register(rng))
    });
    assert!(s.ok(), "seeded suite disagrees on LwwRegister: {s:?}");
    assert_subset("LwwRegister", &op_walk(&reg, 3), &a.state_keys);

    let set = OrSet::<u8>::new();
    let a = analyze_op(&set, "OrSet<u8>", 2);
    assert!(a.report.discharged(), "{}", a.report);
    assert_golden_row(&a.report, false);
    let s = commutativity::check_op_based(set, 3, STEPS, SEEDS, |rng, _, _| {
        Some(workloads::or_set(rng))
    });
    assert!(s.ok(), "seeded suite disagrees on OrSet: {s:?}");
    assert_subset("OrSet", &op_walk(&set, 2), &a.state_keys);

    let rga = Rga::<u16>::new();
    let a = analyze_op(&rga, "Rga<u16>", 2);
    assert!(a.report.discharged(), "{}", a.report);
    assert_golden_row(&a.report, false);
    let mut next = 100u16;
    let s = commutativity::check_op_based(rga, 3, STEPS, SEEDS, |rng, _, state| {
        workloads::rga(rng, state, &mut next)
    });
    assert!(s.ok(), "seeded suite disagrees on Rga: {s:?}");
    assert_subset("Rga", &op_walk(&rga, 2), &a.state_keys);

    let rga = RgaAddAt::<u16>::new();
    let a = analyze_op(&rga, "RgaAddAt<u16>", 2);
    assert!(a.report.discharged(), "{}", a.report);
    assert_golden_row(&a.report, false);
    let mut next = 100u16;
    let s = commutativity::check_op_based(rga, 3, STEPS, SEEDS, |rng, _, state| {
        workloads::rga_addat(rng, state, &mut next)
    });
    assert!(s.ok(), "seeded suite disagrees on RgaAddAt: {s:?}");
    assert_subset("RgaAddAt", &op_walk(&rga, 2), &a.state_keys);

    let wooki = Wooki::<u16>::new();
    let a = analyze_op(&wooki, "Wooki<u16>", 2);
    assert!(a.report.discharged(), "{}", a.report);
    assert_golden_row(&a.report, false);
    let mut next = 100u16;
    let s = commutativity::check_op_based(wooki, 3, STEPS, SEEDS, |rng, _, state| {
        workloads::wooki(rng, state, &mut next, 120)
    });
    assert!(s.ok(), "seeded suite disagrees on Wooki: {s:?}");
    assert_subset("Wooki", &op_walk(&wooki, 2), &a.state_keys);
}

#[test]
fn state_types_agree_with_seeded_suite_and_subsume_its_walks() {
    let a = analyze_state(&PnCounter, "PnCounter", 2);
    assert!(a.report.discharged(), "{}", a.report);
    assert_golden_row(&a.report, false);
    let s = state_props::check_state_based(PnCounter, 3, STEPS, SEEDS, |rng, _, _| {
        Some(workloads::pn_counter(rng))
    });
    assert!(s.ok(), "seeded suite disagrees on PnCounter: {s:?}");
    assert_subset("PnCounter", &state_walk(&PnCounter, 2), &a.state_keys);

    let reg = MvRegister::<u8>::new();
    let a = analyze_state(&reg, "MvRegister<u8>", 2);
    assert!(a.report.discharged(), "{}", a.report);
    assert_golden_row(&a.report, false);
    let s = state_props::check_state_based(reg, 3, STEPS, SEEDS, |rng, _, _| {
        Some(workloads::mv_register(rng))
    });
    assert!(s.ok(), "seeded suite disagrees on MvRegister: {s:?}");
    assert_subset("MvRegister", &state_walk(&reg, 2), &a.state_keys);

    let set = LwwElementSet::<u8>::new();
    let a = analyze_state(&set, "LwwElementSet<u8>", 2);
    assert!(a.report.discharged(), "{}", a.report);
    assert_golden_row(&a.report, false);
    let s = state_props::check_state_based(set, 3, STEPS, SEEDS, |rng, _, _| {
        Some(workloads::lww_element_set(rng))
    });
    assert!(s.ok(), "seeded suite disagrees on LwwElementSet: {s:?}");
    assert_subset("LwwElementSet", &state_walk(&set, 2), &a.state_keys);

    let set = TwoPhaseSet::<u16>::new();
    let a = analyze_state(&set, "TwoPhaseSet<u16>", 2);
    assert!(a.report.discharged(), "{}", a.report);
    assert_golden_row(&a.report, false);
    let mut next = 100u16;
    let s = state_props::check_state_based(set, 3, STEPS, SEEDS, |rng, _, state| {
        workloads::two_phase_set(rng, state, &mut next)
    });
    assert!(s.ok(), "seeded suite disagrees on TwoPhaseSet: {s:?}");
    assert_subset("TwoPhaseSet", &state_walk(&set, 2), &a.state_keys);
}

#[test]
fn remaining_rows_match_the_scope_2_golden() {
    assert_golden_row(&analyze_op(&OpCounter, "OpCounter", 2).report, false);
    let reg = LwwRegister::<u8>::new();
    assert_golden_row(&analyze_op(&reg, "LwwRegister<u8>", 2).report, false);
    for report in analyze_ts(2) {
        assert_golden_row(&report, false);
    }
    for report in analyze_fixtures(2) {
        assert_golden_row(&report, true);
    }
}

#[test]
fn negative_fixtures_fail_both_layers() {
    // The analyzer refutes them (tested byte-for-byte in
    // negative_fixtures.rs); the seeded suites must catch them too, or the
    // two layers would disagree on a broken type.
    let s = commutativity::check_op_based(BrokenCounter, 3, 40, 0..5, |rng, _, _| {
        Some(if rng.random_bool(0.5) {
            BrokenCall::Inc
        } else {
            BrokenCall::Dec
        })
    });
    assert!(!s.ok(), "seeded commutativity suite missed BrokenCounter");

    let s =
        state_props::check_state_based(SummingCounter, 3, 40, 0..5, |_, _, _| Some(SumCall::Inc));
    assert!(!s.ok(), "seeded state-props suite missed SummingCounter");
}
