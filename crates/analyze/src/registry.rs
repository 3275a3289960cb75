//! The roster of analyses one `ral-analyze` run performs.
//!
//! Every shipped CRDT is analyzed by the engine matching its replication
//! style, the two-object composition is analyzed under both timestamp
//! modes, and the two negative fixtures are analyzed *expecting* a
//! refutation. The shipped descriptors come from [`ral_verify::families`],
//! so the gate explores the element types Figure 12 and the fuzzer run.
//! Keeping the roster in one place means the CLI, the CI gate, and the
//! integration tests cannot drift apart on what "all shipped types" means.

use crate::fixtures::{BrokenCounter, SummingCounter};
use crate::op_engine::analyze_op;
use crate::outcome::TypeReport;
use crate::state_engine::analyze_state;
use crate::ts_engine::analyze_ts;
use ral_verify::families::{self, OpFamily, StateFamily};

/// Analyzes every shipped CRDT (both styles) plus the composed cluster at
/// scope `k`; the returned reports must all be discharged for the gate to
/// pass.
pub fn analyze_shipped(k: usize) -> Vec<TypeReport> {
    let mut out = vec![
        // Operation-based types (Section 4 / Appendix C).
        analyze_op(&families::Counter::crdt(), "OpCounter", k).report,
        analyze_op(&families::LwwRegister::crdt(), "LwwRegister<u8>", k).report,
        analyze_op(&families::OrSet::crdt(), "OrSet<u8>", k).report,
        analyze_op(&families::Rga::crdt(), "Rga<u16>", k).report,
        analyze_op(&families::RgaAddAt::crdt(), "RgaAddAt<u16>", k).report,
        analyze_op(&families::Wooki::crdt(), "Wooki<u16>", k).report,
        // State-based types (Appendix D) — also exercises the delta laws.
        analyze_state(&families::PnCounter::crdt(), "PnCounter", k).report,
        analyze_state(&families::MvRegister::crdt(), "MvRegister<u8>", k).report,
        analyze_state(&families::LwwElementSet::crdt(), "LwwElementSet<u8>", k).report,
        analyze_state(&families::TwoPhaseSet::crdt(), "TwoPhaseSet<u16>", k).report,
    ];
    // Composed cluster under ⊗ and ⊗ts (Section 5).
    out.extend(analyze_ts(k));
    out
}

/// Analyzes the deliberately broken fixtures at scope `k`; the returned
/// reports must all be **refuted** (with a shrunk counterexample) for the
/// gate to pass — this is the analyzer's own negative control.
pub fn analyze_fixtures(k: usize) -> Vec<TypeReport> {
    vec![
        analyze_op(&BrokenCounter, "BrokenCounter (fixture)", k).report,
        analyze_state(&SummingCounter, "SummingCounter (fixture)", k).report,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_refuted_with_small_counterexamples() {
        for report in analyze_fixtures(2) {
            let (_, v) = report
                .violation()
                .unwrap_or_else(|| panic!("fixture must be refuted: {report}"));
            assert!(v.ops <= 4, "counterexample too large: {} ops", v.ops);
            assert!(!v.trace.is_empty());
        }
    }
}
