//! Lemma C.2, by its own proof obligations: the returning `addAt` variant
//! satisfies Commutativity and `Refinement_ts` w.r.t. `Spec(addAt3)`
//! (Appendix C.6), and therefore admits timestamp-order linearizations.
//!
//! The paper proves these two properties by hand; here they are discharged
//! by the same property harness used for the Figure 12 CRDTs. A negative
//! control confirms the harness would notice if the refinement mapping were
//! wrong.

use ral_core::label::Identity;
use ral_crdts::op::rga::Rga;
use ral_crdts::op::rga_addat::{AddAtCall, RgaAddAt};
use ral_spec::addat::AddAt3Spec;
use ral_verify::commutativity::check_op_based as check_commutativity;
use ral_verify::refinement::{check_op_based as check_refinement, Mode};

fn workload(
    rng: &mut ral_core::rng::Rng,
    state: &ral_crdts::op::rga::RgaState<u16>,
    next: &mut u16,
) -> Option<AddAtCall<u16>> {
    let roll: u8 = rng.random_range(0..10);
    if roll < 5 {
        *next += 1;
        Some(AddAtCall::AddAt(*next, rng.random_range(0..5)))
    } else if roll < 7 {
        let visible = state.visible();
        if visible.is_empty() {
            None
        } else {
            Some(AddAtCall::Remove(
                visible[rng.random_range(0..visible.len())],
            ))
        }
    } else {
        Some(AddAtCall::Read)
    }
}

#[test]
fn addat_effectors_commute() {
    let mut next = 0;
    let report = check_commutativity(RgaAddAt::<u16>::new(), 3, 40, 0..6, move |rng, _, st| {
        workload(rng, st, &mut next)
    });
    assert!(report.ok(), "{report}");
    assert!(report.checks > 20, "enough concurrent pairs exercised");
}

#[test]
fn addat_satisfies_refinement_ts() {
    // The abs mapping of the proof: the RGA traversal including tombstoned
    // elements, plus the tombstone set.
    let mut next = 0;
    let report = check_refinement(
        RgaAddAt::<u16>::new(),
        &AddAt3Spec::new(),
        &Identity,
        Mode::Timestamped,
        Rga::<u16>::abs,
        Rga::<u16>::state_timestamps,
        3,
        40,
        0..6,
        move |rng, _, st| workload(rng, st, &mut next),
    );
    assert!(report.ok(), "{report}");
}

#[test]
fn wrong_abs_is_refuted() {
    // Negative control: drop the tombstone component from the mapping and
    // the remove effectors stop being simulated.
    let mut next = 0;
    let report = check_refinement(
        RgaAddAt::<u16>::new(),
        &AddAt3Spec::new(),
        &Identity,
        Mode::Timestamped,
        |st| st.all_elements().into_iter().map(|e| (e, false)).collect(),
        Rga::<u16>::state_timestamps,
        3,
        40,
        0..6,
        move |rng, _, st| workload(rng, st, &mut next),
    );
    assert!(!report.ok(), "a broken refinement mapping must be caught");
}

#[test]
fn plain_refinement_fails_where_ts_variant_holds() {
    // Without the timestamp exemption, stale insert effectors are not
    // simulated by Spec(addAt3) transitions — Refinement (plain) fails while
    // Refinement_ts holds; this is exactly why Section 4.2 introduces the
    // weaker obligation.
    let mut found_plain_failure = false;
    for seed in 0..12u64 {
        let mut next = 0;
        let report = check_refinement(
            RgaAddAt::<u16>::new(),
            &AddAt3Spec::new(),
            &Identity,
            Mode::Plain,
            Rga::<u16>::abs,
            Rga::<u16>::state_timestamps,
            3,
            60,
            seed..seed + 1,
            move |rng, _, st| workload(rng, st, &mut next),
        );
        if !report.ok() {
            found_plain_failure = true;
            break;
        }
    }
    assert!(
        found_plain_failure,
        "some stale effector must violate plain Refinement"
    );
}
