//! The paper's headline artifact: **Figure 12** — the table of CRDTs proved
//! RA-linearizable, each with its implementation style (operation-based /
//! state-based) and the class of linearizations used (execution-order /
//! timestamp-order).
//!
//! For every row we (a) discharge the proof obligations of Sections 4 and
//! Appendix D on random reachable configurations (Commutativity +
//! Refinement(/ts) for op-based types; Prop1–Prop6 and the lattice laws for
//! state-based ones), and (b) model-check RA-linearizability itself on
//! seeded random histories with the claimed linearization strategy.

use crate::commutativity::PendingPairs;
use crate::convergence::{self, EqualViews};
use crate::families::{self, Fig12Op, Scale, StateFamily};
use crate::refinement::{Mode, Simulation};
use crate::report::Report;
use crate::state_props;
use crate::walk;
use ral_core::compose::{compose_disjoint, MultiObjRewrite, MultiObjSpec};
use ral_core::history::History;
use ral_core::label::Rewrite;
use ral_core::ralin::{ra_check, ra_search_sharded_with_budget, ra_search_with_budget, Strategy};
use ral_core::spec::Spec;
use ral_runtime::delta::{DeltaCluster, DeltaConfig};
use ral_runtime::op_based::Cluster;
use ral_runtime::schedule::{drive_op_based, drive_state_based};

/// One row of Figure 12.
#[derive(Clone, Debug)]
pub struct Fig12Row {
    /// Data type name as printed in the paper.
    pub name: &'static str,
    /// Citation shorthand from the paper's table.
    pub source: &'static str,
    /// Implementation style: `"OB"` (operation-based) or `"SB"`
    /// (state-based).
    pub imp: &'static str,
    /// Linearization class: `"EO"` or `"TO"`.
    pub lin: &'static str,
    /// Proof-obligation reports (Commutativity, Refinement, Props…).
    pub obligations: Vec<Report>,
    /// Number of random histories model-checked RA-linearizable with the
    /// guided strategy.
    pub histories: u64,
    /// Failures among those histories (must be zero).
    pub history_failures: u64,
    /// Number of random histories additionally *decided* by the complete
    /// memoized search ([`ra_search_with_budget`]) — sizes the naive
    /// seed-era enumeration could not touch.
    pub searched: u64,
    /// Failures among the searched histories: refutations or exhausted
    /// budgets (must be zero — every Figure 12 type is RA-linearizable).
    pub search_failures: u64,
    /// Number of *composed* histories ([`SHARD_OBJECTS`] disjoint
    /// instances of the row's data type, interleaved) decided by the
    /// sharded compositional search ([`ra_search_sharded_with_budget`]).
    pub sharded: u64,
    /// Failures among the sharded histories (must be zero: Theorem 5.3 /
    /// 5.5 — compositions of Figure 12 types stay RA-linearizable).
    pub sharded_failures: u64,
}

impl Fig12Row {
    /// Returns `true` if every obligation and every history check passed.
    pub fn verified(&self) -> bool {
        self.history_failures == 0
            && self.histories > 0
            && self.search_failures == 0
            && self.searched > 0
            && self.sharded_failures == 0
            && self.sharded > 0
            && self.obligations.iter().all(Report::ok)
    }
}

const N_REPLICAS: usize = 3;
/// Node budget for one complete-search decision; with the memoized
/// engine the scheduler-generated histories finish orders of magnitude
/// below this.
const SEARCH_BUDGET: u64 = 5_000_000;
const OBLIGATION_SEEDS: std::ops::Range<u64> = 0..5;
/// Seed offset separating the search histories from the guided ones.
const SEARCH_SEED_OFFSET: u64 = 0x5EA7C4;
/// Objects per composed history in the sharded-search column.
pub const SHARD_OBJECTS: usize = 3;
/// Seed offset separating the sharded-search histories from the others.
const SHARD_SEED_OFFSET: u64 = 0x5A4DED;

/// The row of an operation-based roster entry: Commutativity, Refinement
/// (or `Refinement_ts`, by the entry's linearization class) and SEC
/// observed on one walk, then the three history columns.
fn op_row<F: Fig12Op>(histories: u64, seed0: u64) -> Fig12Row {
    let (spec, rewrite) = (F::spec(), F::rewrite());
    let mut pairs = PendingPairs::new();
    let mode = Mode::from(F::STRATEGY);
    let mut simulation = Simulation::new(&spec, &rewrite, mode, F::abs, F::state_timestamps);
    let mut views = EqualViews::new();
    walk::op_based(
        F::crdt(),
        N_REPLICAS,
        F::schedule(Scale::Obligations).steps,
        OBLIGATION_SEEDS,
        F::calls(Scale::Obligations),
        &mut [&mut pairs, &mut simulation, &mut views],
    );
    let obligations = vec![pairs.report, simulation.report, views.report];
    let history = |scale, seed| {
        let mut c = Cluster::new(F::crdt(), N_REPLICAS);
        drive_op_based(&mut c, &F::schedule(scale), seed, F::calls(scale));
        c.into_history()
    };
    let head = (F::NAME, F::SOURCE, "OB", F::STRATEGY);
    history_columns(head, obligations, rewrite, spec, history, histories, seed0)
}

/// The row of a state-based roster entry: Prop1–Prop6 with the lattice
/// laws and SEC, then the three history columns.
fn state_row<F: StateFamily>(histories: u64, seed0: u64) -> Fig12Row {
    let steps = Scale::Obligations.schedule().steps;
    let calls = || F::calls(Scale::Obligations);
    let obligations = vec![
        state_props::check_state_based(F::crdt(), N_REPLICAS, steps, OBLIGATION_SEEDS, calls()),
        convergence::check_state_based(F::crdt(), N_REPLICAS, steps, OBLIGATION_SEEDS, calls()),
    ];
    let history = |scale: Scale, seed| {
        let mut c = DeltaCluster::new(F::crdt(), DeltaConfig::default(), N_REPLICAS);
        drive_state_based(&mut c, &scale.schedule(), seed, F::calls(scale));
        c.into_history()
    };
    let (head, rw) = ((F::NAME, F::SOURCE, "SB", F::STRATEGY), F::rewrite());
    history_columns(head, obligations, rw, F::spec(), history, histories, seed0)
}

/// Fills the three history columns from `history(scale, seed)`, the row's
/// one generator: `Histories` validates guided-scale runs with the claimed
/// strategy; `Searched` and `Sharded` both decide searched-scale runs
/// outright (so the two measure the same workload by construction) — the
/// former one history at a time, the latter [`SHARD_OBJECTS`] of them
/// interleaved with [`compose_disjoint`]. A refutation or an exhausted
/// budget counts as a failure: every Figure 12 type is RA-linearizable, and
/// free compositions of such types stay so (Theorems 5.3/5.5).
fn history_columns<L, R, S>(
    (name, source, imp, strategy): (&'static str, &'static str, &'static str, Strategy),
    obligations: Vec<Report>,
    rw: R,
    spec: S,
    history: impl Fn(Scale, u64) -> History<L>,
    histories: u64,
    seed0: u64,
) -> Fig12Row
where
    L: Clone + std::fmt::Debug,
    R: Rewrite<L, Out = S::Label>,
    S: Spec,
{
    let failures = |ok: &dyn Fn(u64) -> bool| (0..histories).filter(|&i| !ok(i)).count() as u64;
    let search_failures = failures(&|i| {
        let h = history(Scale::Searched, seed0 + SEARCH_SEED_OFFSET + i);
        ra_search_with_budget(&h, &rw, &spec, SEARCH_BUDGET).is_linearizable()
    });
    let history_failures =
        failures(&|i| ra_check(&history(Scale::Guided, seed0 + i), &rw, &spec, strategy).is_ok());
    let (mrw, mspec) = (
        MultiObjRewrite::new(rw),
        MultiObjSpec::new(spec, SHARD_OBJECTS),
    );
    let sharded_failures = failures(&|i| {
        let first = seed0 + SHARD_SEED_OFFSET + i * SHARD_OBJECTS as u64;
        let parts: Vec<History<L>> = (0..SHARD_OBJECTS as u64)
            .map(|o| history(Scale::Searched, first + o))
            .collect();
        let composed = compose_disjoint(&parts);
        ra_search_sharded_with_budget(&composed, &mrw, &mspec, SEARCH_BUDGET).is_linearizable()
    });
    Fig12Row {
        name,
        source,
        imp,
        lin: strategy.short_name(),
        obligations,
        histories,
        history_failures,
        searched: histories,
        search_failures,
        sharded: histories,
        sharded_failures,
    }
}

/// Produces all nine rows of Figure 12, in the paper's order.
pub fn fig12_rows(histories_per_type: u64, seed0: u64) -> Vec<Fig12Row> {
    let (h, s) = (histories_per_type, seed0);
    vec![
        op_row::<families::Counter>(h, s),
        state_row::<families::PnCounter>(h, s),
        op_row::<families::LwwRegister>(h, s),
        state_row::<families::MvRegister>(h, s),
        state_row::<families::LwwElementSet>(h, s),
        state_row::<families::TwoPhaseSet>(h, s),
        op_row::<families::OrSet>(h, s),
        op_row::<families::Rga>(h, s),
        op_row::<families::Wooki>(h, s),
    ]
}

/// Renders the rows in the layout of Figure 12, with verification columns
/// appended.
pub fn render_fig12(rows: &[Fig12Row]) -> String {
    let mut out = String::new();
    out.push_str(
        "CRDT               | Source                      | Imp | Lin | Obligations | Histories | Searched | Sharded | Verdict\n",
    );
    out.push_str(
        "-------------------+-----------------------------+-----+-----+-------------+-----------+----------+---------+--------\n",
    );
    for row in rows {
        let checks: u64 = row.obligations.iter().map(|o| o.checks).sum();
        let verdict = if row.verified() { "OK" } else { "FAIL" };
        out.push_str(&format!(
            "{:<18} | {:<27} | {:<3} | {:<3} | {:>11} | {:>9} | {:>8} | {:>7} | {}\n",
            row.name,
            row.source,
            row.imp,
            row.lin,
            checks,
            row.histories,
            row.searched,
            row.sharded,
            verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_rows_verify_quickly() {
        let rows = fig12_rows(3, 1000);
        assert_eq!(rows.len(), 9);
        for row in &rows {
            assert!(
                row.verified(),
                "{} failed: {:?}",
                row.name,
                row.obligations
                    .iter()
                    .filter(|o| !o.ok())
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn render_matches_paper_classification() {
        let rows = fig12_rows(1, 2000);
        let table = render_fig12(&rows);
        // The paper's Figure 12 classification, row by row.
        for expected in [
            "Counter",
            "PN-Counter",
            "LWW-Register",
            "Multi-Value Reg.",
            "LWW-Element Set",
            "2P-Set",
            "OR-Set",
            "RGA",
            "Wooki",
        ] {
            assert!(table.contains(expected), "missing row {expected}");
        }
        let classes: Vec<(&str, &str, &str)> = vec![
            ("Counter", "OB", "EO"),
            ("PN-Counter", "SB", "EO"),
            ("LWW-Register", "OB", "TO"),
            ("Multi-Value Reg.", "SB", "EO"),
            ("LWW-Element Set", "SB", "TO"),
            ("2P-Set", "SB", "EO"),
            ("OR-Set", "OB", "EO"),
            ("RGA", "OB", "TO"),
            ("Wooki", "OB", "EO"),
        ];
        for (row, (name, imp, lin)) in rows.iter().zip(classes) {
            assert_eq!(row.name, name);
            assert_eq!(row.imp, imp);
            assert_eq!(row.lin, lin);
        }
    }
}
