//! The streaming monitor under fuzz: a full campaign of generated
//! scenario streams, every replay cross-checked by the oracle's monitor
//! arm (end-of-stream streaming verdict vs batch) alongside the
//! established deciders.
//!
//! The shipped CRDT families are correct, so the campaign must end with
//! zero findings — in particular zero `disagreement` verdicts, which is
//! exactly the claim "monitor ≡ memo ≡ sharded" over hundreds of
//! adversarial delivery schedules. `Exhausted` streaming runs and blown
//! budgets count as undecided, never as disagreement, so a wide
//! concurrent window cannot fake a pass *or* a failure here.

use ral_fuzz::{fuzz, FuzzConfig};

#[test]
fn monitor_arms_agree_across_a_200_stream_campaign() {
    let cfg = FuzzConfig {
        seed: 5,
        runs: 240,
        search_budget: 200_000,
        ..Default::default()
    };
    let out = fuzz(&cfg);
    let replayed = out.runs - out.dedup;
    assert!(
        replayed >= 200,
        "campaign replayed only {replayed} distinct streams; raise runs"
    );
    assert_eq!(
        out.verdicts.get("disagreement"),
        None,
        "checkers disagreed: {:?}",
        out.findings
            .first()
            .map(|f| (&f.verdict, f.detail.as_str()))
    );
    assert!(
        out.findings.is_empty(),
        "shipped families produced a finding: {:?}",
        out.findings[0].verdict
    );
}
