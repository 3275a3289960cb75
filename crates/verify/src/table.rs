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

use crate::commutativity;
use crate::convergence;
use crate::refinement::{self, Mode};
use crate::report::Report;
use crate::state_props;
use crate::workloads;
use ral_core::compose::{compose_disjoint, MultiObjRewrite, MultiObjSpec};
use ral_core::history::History;
use ral_core::label::{Identity, Rewrite};
use ral_core::ralin::{ra_check, ra_search_sharded_with_budget, ra_search_with_budget, Strategy};
use ral_core::spec::Spec;
use ral_crdts::op::counter::OpCounter;
use ral_crdts::op::lww_register::LwwRegister;
use ral_crdts::op::or_set::{OrSet, OrSetRewrite};
use ral_crdts::op::rga::Rga;
use ral_crdts::op::wooki::Wooki;
use ral_crdts::state::lww_element_set::LwwElementSet;
use ral_crdts::state::mv_register::MvRegister;
use ral_crdts::state::pn_counter::PnCounter;
use ral_crdts::state::two_phase_set::TwoPhaseSet;
use ral_runtime::op_based::Cluster;
use ral_runtime::schedule::{drive_op_based, drive_state_based, ScheduleConfig};
use ral_runtime::state_based::StateCluster;
use ral_spec::counter::CounterSpec;
use ral_spec::register::{MvRegSpec, RegSpec};
use ral_spec::rga::RgaSpec;
use ral_spec::set::{OrSetSpec, SetSpec};
use ral_spec::wooki::WookiSpec;

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
const STEPS: usize = 40;
/// Scheduler steps for the complete-search histories: ~3× the largest
/// histories the naive brute search could decide (the `checker_scaling`
/// bench capped the naive engine at 12 steps ≈ 10 operations; 36 steps
/// yield ~25).
const SEARCH_STEPS: usize = 36;
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

/// Schedule for the complete-search histories.
fn search_cfg() -> ScheduleConfig {
    ScheduleConfig {
        steps: SEARCH_STEPS,
        ..ScheduleConfig::default()
    }
}

fn check_histories<L, R, S>(
    histories: impl Iterator<Item = History<L>>,
    rw: &R,
    spec: &S,
    strategy: Strategy,
) -> (u64, u64)
where
    R: Rewrite<L, Out = S::Label>,
    S: Spec,
{
    let mut total = 0;
    let mut failures = 0;
    for h in histories {
        total += 1;
        if ra_check(&h, rw, spec, strategy).is_err() {
            failures += 1;
        }
    }
    (total, failures)
}

/// Builds `histories` composed histories — [`SHARD_OBJECTS`] independent
/// single-object runs of the row's generator, interleaved with
/// [`compose_disjoint`] — and decides each outright with the sharded
/// compositional search. A refutation or an exhausted budget counts as a
/// failure: free compositions of RA-linearizable types must stay
/// RA-linearizable (Theorems 5.3/5.5).
fn sharded_search_histories<L, R, S>(
    histories: u64,
    mk: impl Fn(u64) -> History<L>,
    rw: R,
    spec: S,
) -> (u64, u64)
where
    L: Clone + std::fmt::Debug,
    R: Rewrite<L, Out = S::Label>,
    S: Spec,
{
    let mrw = MultiObjRewrite::new(rw);
    let mspec = MultiObjSpec::new(spec, SHARD_OBJECTS);
    let mut total = 0;
    let mut failures = 0;
    for i in 0..histories {
        let parts: Vec<History<L>> = (0..SHARD_OBJECTS as u64)
            .map(|o| mk(SHARD_SEED_OFFSET + i * SHARD_OBJECTS as u64 + o))
            .collect();
        let composed = compose_disjoint(&parts);
        total += 1;
        if !ra_search_sharded_with_budget(&composed, &mrw, &mspec, SEARCH_BUDGET).is_linearizable()
        {
            failures += 1;
        }
    }
    (total, failures)
}

/// Decides each history outright with the complete memoized search; a
/// refutation or an exhausted budget counts as a failure.
fn search_histories<L, R, S>(
    histories: impl Iterator<Item = History<L>>,
    rw: &R,
    spec: &S,
) -> (u64, u64)
where
    R: Rewrite<L, Out = S::Label>,
    S: Spec,
{
    let mut total = 0;
    let mut failures = 0;
    for h in histories {
        total += 1;
        if !ra_search_with_budget(&h, rw, spec, SEARCH_BUDGET).is_linearizable() {
            failures += 1;
        }
    }
    (total, failures)
}

/// Counter (Shapiro et al. 2011) — OB, EO.
pub fn counter_row(histories: u64, seed0: u64) -> Fig12Row {
    let obligations = vec![
        commutativity::check_op_based(
            OpCounter,
            N_REPLICAS,
            STEPS,
            OBLIGATION_SEEDS,
            |rng, _, _| Some(workloads::counter(rng)),
        ),
        refinement::check_op_based(
            OpCounter,
            &CounterSpec,
            &Identity,
            Mode::Plain,
            OpCounter::abs,
            |_| vec![],
            N_REPLICAS,
            STEPS,
            OBLIGATION_SEEDS,
            |rng, _, _| Some(workloads::counter(rng)),
        ),
        convergence::check_op_based(
            OpCounter,
            N_REPLICAS,
            STEPS,
            OBLIGATION_SEEDS,
            |rng, _, _| Some(workloads::counter(rng)),
        ),
    ];
    let runs = (0..histories).map(|i| {
        let mut c = Cluster::new(OpCounter, N_REPLICAS);
        drive_op_based(
            &mut c,
            &ScheduleConfig::default(),
            seed0 + i,
            |rng, _, _| Some(workloads::counter(rng)),
        );
        c.into_history()
    });
    // One generator serves both complete-search columns: Searched draws
    // seeds at SEARCH_SEED_OFFSET, Sharded at SHARD_SEED_OFFSET (applied
    // inside sharded_search_histories), so the two columns measure the
    // same workload by construction.
    let search_history = |seed: u64| {
        let mut c = Cluster::new(OpCounter, N_REPLICAS);
        drive_op_based(&mut c, &search_cfg(), seed, |rng, _, _| {
            Some(workloads::counter(rng))
        });
        c.into_history()
    };
    let (searched, search_failures) = search_histories(
        (0..histories).map(|i| search_history(seed0 + SEARCH_SEED_OFFSET + i)),
        &Identity,
        &CounterSpec,
    );
    let (sharded, sharded_failures) = sharded_search_histories(
        histories,
        |seed| search_history(seed0 + seed),
        Identity,
        CounterSpec,
    );
    let (histories, history_failures) =
        check_histories(runs, &Identity, &CounterSpec, OpCounter::STRATEGY);
    Fig12Row {
        name: "Counter",
        source: "[Shapiro et al. 2011]",
        imp: "OB",
        lin: "EO",
        obligations,
        histories,
        history_failures,
        searched,
        search_failures,
        sharded,
        sharded_failures,
    }
}

/// PN-Counter (Shapiro et al. 2011) — SB, EO.
pub fn pn_counter_row(histories: u64, seed0: u64) -> Fig12Row {
    let obligations = vec![
        state_props::check_state_based(
            PnCounter,
            N_REPLICAS,
            STEPS,
            OBLIGATION_SEEDS,
            |rng, _, _| Some(workloads::pn_counter(rng)),
        ),
        convergence::check_state_based(
            PnCounter,
            N_REPLICAS,
            STEPS,
            OBLIGATION_SEEDS,
            |rng, _, _| Some(workloads::pn_counter(rng)),
        ),
    ];
    let runs = (0..histories).map(|i| {
        let mut c = StateCluster::new(PnCounter, N_REPLICAS);
        drive_state_based(
            &mut c,
            &ScheduleConfig::default(),
            seed0 + i,
            |rng, _, _| Some(workloads::pn_counter(rng)),
        );
        c.into_history()
    });
    let search_history = |seed: u64| {
        let mut c = StateCluster::new(PnCounter, N_REPLICAS);
        drive_state_based(&mut c, &search_cfg(), seed, |rng, _, _| {
            Some(workloads::pn_counter(rng))
        });
        c.into_history()
    };
    let (searched, search_failures) = search_histories(
        (0..histories).map(|i| search_history(seed0 + SEARCH_SEED_OFFSET + i)),
        &Identity,
        &CounterSpec,
    );
    let (sharded, sharded_failures) = sharded_search_histories(
        histories,
        |seed| search_history(seed0 + seed),
        Identity,
        CounterSpec,
    );
    let (histories, history_failures) =
        check_histories(runs, &Identity, &CounterSpec, PnCounter::STRATEGY);
    Fig12Row {
        name: "PN-Counter",
        source: "[Shapiro et al. 2011]",
        imp: "SB",
        lin: "EO",
        obligations,
        histories,
        history_failures,
        searched,
        search_failures,
        sharded,
        sharded_failures,
    }
}

/// LWW-Register (Johnson and Thomas 1975) — OB, TO.
pub fn lww_register_row(histories: u64, seed0: u64) -> Fig12Row {
    let obligations = vec![
        commutativity::check_op_based(
            LwwRegister::<u8>::new(),
            N_REPLICAS,
            STEPS,
            OBLIGATION_SEEDS,
            |rng, _, _| Some(workloads::lww_register(rng)),
        ),
        refinement::check_op_based(
            LwwRegister::<u8>::new(),
            &RegSpec::new(),
            &Identity,
            Mode::Timestamped,
            LwwRegister::<u8>::abs,
            LwwRegister::<u8>::state_timestamps,
            N_REPLICAS,
            STEPS,
            OBLIGATION_SEEDS,
            |rng, _, _| Some(workloads::lww_register(rng)),
        ),
        convergence::check_op_based(
            LwwRegister::<u8>::new(),
            N_REPLICAS,
            STEPS,
            OBLIGATION_SEEDS,
            |rng, _, _| Some(workloads::lww_register(rng)),
        ),
    ];
    let runs = (0..histories).map(|i| {
        let mut c = Cluster::new(LwwRegister::<u8>::new(), N_REPLICAS);
        drive_op_based(
            &mut c,
            &ScheduleConfig::default(),
            seed0 + i,
            |rng, _, _| Some(workloads::lww_register(rng)),
        );
        c.into_history()
    });
    let search_history = |seed: u64| {
        let mut c = Cluster::new(LwwRegister::<u8>::new(), N_REPLICAS);
        drive_op_based(&mut c, &search_cfg(), seed, |rng, _, _| {
            Some(workloads::lww_register(rng))
        });
        c.into_history()
    };
    let (searched, search_failures) = search_histories(
        (0..histories).map(|i| search_history(seed0 + SEARCH_SEED_OFFSET + i)),
        &Identity,
        &RegSpec::new(),
    );
    let (sharded, sharded_failures) = sharded_search_histories(
        histories,
        |seed| search_history(seed0 + seed),
        Identity,
        RegSpec::new(),
    );
    let (histories, history_failures) = check_histories(
        runs,
        &Identity,
        &RegSpec::new(),
        LwwRegister::<u8>::STRATEGY,
    );
    Fig12Row {
        name: "LWW-Register",
        source: "[Johnson and Thomas 1975]",
        imp: "OB",
        lin: "TO",
        obligations,
        histories,
        history_failures,
        searched,
        search_failures,
        sharded,
        sharded_failures,
    }
}

/// Multi-Value Register (DeCandia et al. 2007) — SB, EO.
pub fn mv_register_row(histories: u64, seed0: u64) -> Fig12Row {
    let obligations = vec![
        state_props::check_state_based(
            MvRegister::<u8>::new(),
            N_REPLICAS,
            STEPS,
            OBLIGATION_SEEDS,
            |rng, _, _| Some(workloads::mv_register(rng)),
        ),
        convergence::check_state_based(
            MvRegister::<u8>::new(),
            N_REPLICAS,
            STEPS,
            OBLIGATION_SEEDS,
            |rng, _, _| Some(workloads::mv_register(rng)),
        ),
    ];
    let runs = (0..histories).map(|i| {
        let mut c = StateCluster::new(MvRegister::<u8>::new(), N_REPLICAS);
        drive_state_based(
            &mut c,
            &ScheduleConfig::default(),
            seed0 + i,
            |rng, _, _| Some(workloads::mv_register(rng)),
        );
        c.into_history()
    });
    let search_history = |seed: u64| {
        let mut c = StateCluster::new(MvRegister::<u8>::new(), N_REPLICAS);
        drive_state_based(&mut c, &search_cfg(), seed, |rng, _, _| {
            Some(workloads::mv_register(rng))
        });
        c.into_history()
    };
    let (searched, search_failures) = search_histories(
        (0..histories).map(|i| search_history(seed0 + SEARCH_SEED_OFFSET + i)),
        &Identity,
        &MvRegSpec::new(),
    );
    let (sharded, sharded_failures) = sharded_search_histories(
        histories,
        |seed| search_history(seed0 + seed),
        Identity,
        MvRegSpec::new(),
    );
    let (histories, history_failures) = check_histories(
        runs,
        &Identity,
        &MvRegSpec::new(),
        MvRegister::<u8>::STRATEGY,
    );
    Fig12Row {
        name: "Multi-Value Reg.",
        source: "[DeCandia et al. 2007]",
        imp: "SB",
        lin: "EO",
        obligations,
        histories,
        history_failures,
        searched,
        search_failures,
        sharded,
        sharded_failures,
    }
}

/// LWW-Element-Set (Shapiro et al. 2011) — SB, TO.
pub fn lww_element_set_row(histories: u64, seed0: u64) -> Fig12Row {
    let obligations = vec![
        state_props::check_state_based(
            LwwElementSet::<u8>::new(),
            N_REPLICAS,
            STEPS,
            OBLIGATION_SEEDS,
            |rng, _, _| Some(workloads::lww_element_set(rng)),
        ),
        convergence::check_state_based(
            LwwElementSet::<u8>::new(),
            N_REPLICAS,
            STEPS,
            OBLIGATION_SEEDS,
            |rng, _, _| Some(workloads::lww_element_set(rng)),
        ),
    ];
    let runs = (0..histories).map(|i| {
        let mut c = StateCluster::new(LwwElementSet::<u8>::new(), N_REPLICAS);
        drive_state_based(
            &mut c,
            &ScheduleConfig::default(),
            seed0 + i,
            |rng, _, _| Some(workloads::lww_element_set(rng)),
        );
        c.into_history()
    });
    let search_history = |seed: u64| {
        let mut c = StateCluster::new(LwwElementSet::<u8>::new(), N_REPLICAS);
        drive_state_based(&mut c, &search_cfg(), seed, |rng, _, _| {
            Some(workloads::lww_element_set(rng))
        });
        c.into_history()
    };
    let (searched, search_failures) = search_histories(
        (0..histories).map(|i| search_history(seed0 + SEARCH_SEED_OFFSET + i)),
        &Identity,
        &SetSpec::new(),
    );
    let (sharded, sharded_failures) = sharded_search_histories(
        histories,
        |seed| search_history(seed0 + seed),
        Identity,
        SetSpec::new(),
    );
    let (histories, history_failures) = check_histories(
        runs,
        &Identity,
        &SetSpec::new(),
        LwwElementSet::<u8>::STRATEGY,
    );
    Fig12Row {
        name: "LWW-Element Set",
        source: "[Shapiro et al. 2011]",
        imp: "SB",
        lin: "TO",
        obligations,
        histories,
        history_failures,
        searched,
        search_failures,
        sharded,
        sharded_failures,
    }
}

/// 2P-Set (Shapiro et al. 2011) — SB, EO.
pub fn two_phase_set_row(histories: u64, seed0: u64) -> Fig12Row {
    let mut next = 0;
    let mut next_sec = 0;
    let obligations = vec![
        state_props::check_state_based(
            TwoPhaseSet::<u16>::new(),
            N_REPLICAS,
            STEPS,
            OBLIGATION_SEEDS,
            move |rng, _, st| workloads::two_phase_set(rng, st, &mut next),
        ),
        convergence::check_state_based(
            TwoPhaseSet::<u16>::new(),
            N_REPLICAS,
            STEPS,
            OBLIGATION_SEEDS,
            move |rng, _, st| workloads::two_phase_set(rng, st, &mut next_sec),
        ),
    ];
    let runs = (0..histories).map(|i| {
        let mut c = StateCluster::new(TwoPhaseSet::<u16>::new(), N_REPLICAS);
        let mut next = 0;
        drive_state_based(
            &mut c,
            &ScheduleConfig::default(),
            seed0 + i,
            |rng, _, st| workloads::two_phase_set(rng, st, &mut next),
        );
        c.into_history()
    });
    let search_history = |seed: u64| {
        let mut c = StateCluster::new(TwoPhaseSet::<u16>::new(), N_REPLICAS);
        let mut next = 0;
        drive_state_based(&mut c, &search_cfg(), seed, |rng, _, st| {
            workloads::two_phase_set(rng, st, &mut next)
        });
        c.into_history()
    };
    let (searched, search_failures) = search_histories(
        (0..histories).map(|i| search_history(seed0 + SEARCH_SEED_OFFSET + i)),
        &Identity,
        &SetSpec::new(),
    );
    let (sharded, sharded_failures) = sharded_search_histories(
        histories,
        |seed| search_history(seed0 + seed),
        Identity,
        SetSpec::new(),
    );
    let (histories, history_failures) = check_histories(
        runs,
        &Identity,
        &SetSpec::new(),
        TwoPhaseSet::<u16>::STRATEGY,
    );
    Fig12Row {
        name: "2P-Set",
        source: "[Shapiro et al. 2011]",
        imp: "SB",
        lin: "EO",
        obligations,
        histories,
        history_failures,
        searched,
        search_failures,
        sharded,
        sharded_failures,
    }
}

/// OR-Set (Shapiro et al. 2011) — OB, EO (with the query-update rewriting).
pub fn or_set_row(histories: u64, seed0: u64) -> Fig12Row {
    let obligations = vec![
        commutativity::check_op_based(
            OrSet::<u8>::new(),
            N_REPLICAS,
            STEPS,
            OBLIGATION_SEEDS,
            |rng, _, _| Some(workloads::or_set(rng)),
        ),
        refinement::check_op_based(
            OrSet::<u8>::new(),
            &OrSetSpec::new(),
            &OrSetRewrite::new(),
            Mode::Plain,
            OrSet::<u8>::abs,
            |_| vec![],
            N_REPLICAS,
            STEPS,
            OBLIGATION_SEEDS,
            |rng, _, _| Some(workloads::or_set(rng)),
        ),
        convergence::check_op_based(
            OrSet::<u8>::new(),
            N_REPLICAS,
            STEPS,
            OBLIGATION_SEEDS,
            |rng, _, _| Some(workloads::or_set(rng)),
        ),
    ];
    let runs = (0..histories).map(|i| {
        let mut c = Cluster::new(OrSet::<u8>::new(), N_REPLICAS);
        drive_op_based(
            &mut c,
            &ScheduleConfig::default(),
            seed0 + i,
            |rng, _, _| Some(workloads::or_set(rng)),
        );
        c.into_history()
    });
    let search_history = |seed: u64| {
        let mut c = Cluster::new(OrSet::<u8>::new(), N_REPLICAS);
        drive_op_based(&mut c, &search_cfg(), seed, |rng, _, _| {
            Some(workloads::or_set(rng))
        });
        c.into_history()
    };
    let (searched, search_failures) = search_histories(
        (0..histories).map(|i| search_history(seed0 + SEARCH_SEED_OFFSET + i)),
        &OrSetRewrite::new(),
        &OrSetSpec::new(),
    );
    let (sharded, sharded_failures) = sharded_search_histories(
        histories,
        |seed| search_history(seed0 + seed),
        OrSetRewrite::new(),
        OrSetSpec::new(),
    );
    let (histories, history_failures) = check_histories(
        runs,
        &OrSetRewrite::new(),
        &OrSetSpec::new(),
        OrSet::<u8>::STRATEGY,
    );
    Fig12Row {
        name: "OR-Set",
        source: "[Shapiro et al. 2011]",
        imp: "OB",
        lin: "EO",
        obligations,
        histories,
        history_failures,
        searched,
        search_failures,
        sharded,
        sharded_failures,
    }
}

/// RGA (Roh et al. 2011) — OB, TO.
pub fn rga_row(histories: u64, seed0: u64) -> Fig12Row {
    let obligations = vec![
        commutativity::check_op_based(Rga::<u16>::new(), N_REPLICAS, STEPS, OBLIGATION_SEEDS, {
            let mut next = 0;
            move |rng, _, st| workloads::rga(rng, st, &mut next)
        }),
        refinement::check_op_based(
            Rga::<u16>::new(),
            &RgaSpec::new(),
            &Identity,
            Mode::Timestamped,
            Rga::<u16>::abs,
            Rga::<u16>::state_timestamps,
            N_REPLICAS,
            STEPS,
            OBLIGATION_SEEDS,
            {
                let mut next = 0;
                move |rng, _, st| workloads::rga(rng, st, &mut next)
            },
        ),
        convergence::check_op_based(Rga::<u16>::new(), N_REPLICAS, STEPS, OBLIGATION_SEEDS, {
            let mut next = 0;
            move |rng, _, st| workloads::rga(rng, st, &mut next)
        }),
    ];
    let runs = (0..histories).map(|i| {
        let mut c = Cluster::new(Rga::<u16>::new(), N_REPLICAS);
        let mut next = 0;
        drive_op_based(
            &mut c,
            &ScheduleConfig::default(),
            seed0 + i,
            |rng, _, st| workloads::rga(rng, st, &mut next),
        );
        c.into_history()
    });
    let search_history = |seed: u64| {
        let mut c = Cluster::new(Rga::<u16>::new(), N_REPLICAS);
        let mut next = 0;
        drive_op_based(&mut c, &search_cfg(), seed, |rng, _, st| {
            workloads::rga(rng, st, &mut next)
        });
        c.into_history()
    };
    let (searched, search_failures) = search_histories(
        (0..histories).map(|i| search_history(seed0 + SEARCH_SEED_OFFSET + i)),
        &Identity,
        &RgaSpec::new(),
    );
    let (sharded, sharded_failures) = sharded_search_histories(
        histories,
        |seed| search_history(seed0 + seed),
        Identity,
        RgaSpec::new(),
    );
    let (histories, history_failures) =
        check_histories(runs, &Identity, &RgaSpec::new(), Rga::<u16>::STRATEGY);
    Fig12Row {
        name: "RGA",
        source: "[Roh et al. 2011]",
        imp: "OB",
        lin: "TO",
        obligations,
        histories,
        history_failures,
        searched,
        search_failures,
        sharded,
        sharded_failures,
    }
}

/// Wooki (Weiss et al. 2007) — OB, EO. Histories are kept small: the
/// nondeterministic specification makes checking exponential in the number
/// of concurrent inserts.
pub fn wooki_row(histories: u64, seed0: u64) -> Fig12Row {
    let wooki_cfg = ScheduleConfig {
        steps: 24,
        invoke_weight: 1,
        deliver_weight: 2,
        final_sync: true,
    };
    let obligations = vec![
        commutativity::check_op_based(Wooki::<u16>::new(), N_REPLICAS, 24, OBLIGATION_SEEDS, {
            let mut next = 0;
            move |rng, _, st| workloads::wooki(rng, st, &mut next, 10)
        }),
        refinement::check_op_based(
            Wooki::<u16>::new(),
            &WookiSpec::new(),
            &Identity,
            Mode::Plain,
            Wooki::<u16>::abs,
            |_| vec![],
            N_REPLICAS,
            24,
            OBLIGATION_SEEDS,
            {
                let mut next = 0;
                move |rng, _, st| workloads::wooki(rng, st, &mut next, 10)
            },
        ),
        convergence::check_op_based(Wooki::<u16>::new(), N_REPLICAS, 24, OBLIGATION_SEEDS, {
            let mut next = 0;
            move |rng, _, st| workloads::wooki(rng, st, &mut next, 10)
        }),
    ];
    let runs = (0..histories).map(|i| {
        let mut c = Cluster::new(Wooki::<u16>::new(), N_REPLICAS);
        let mut next = 0;
        drive_op_based(&mut c, &wooki_cfg, seed0 + i, |rng, _, st| {
            workloads::wooki(rng, st, &mut next, 8)
        });
        c.into_history()
    });
    let search_history = |seed: u64| {
        let mut c = Cluster::new(Wooki::<u16>::new(), N_REPLICAS);
        let mut next = 0;
        // Wooki's nondeterministic specification makes even the memoized
        // search (and per-shard searches) exponential in concurrent
        // inserts: keep these mid-size.
        let cfg = ScheduleConfig {
            steps: 14,
            invoke_weight: 1,
            deliver_weight: 2,
            final_sync: true,
        };
        drive_op_based(&mut c, &cfg, seed, |rng, _, st| {
            workloads::wooki(rng, st, &mut next, 5)
        });
        c.into_history()
    };
    let (searched, search_failures) = search_histories(
        (0..histories).map(|i| search_history(seed0 + SEARCH_SEED_OFFSET + i)),
        &Identity,
        &WookiSpec::new(),
    );
    let (sharded, sharded_failures) = sharded_search_histories(
        histories,
        |seed| search_history(seed0 + seed),
        Identity,
        WookiSpec::new(),
    );
    let (histories, history_failures) =
        check_histories(runs, &Identity, &WookiSpec::new(), Wooki::<u16>::STRATEGY);
    Fig12Row {
        name: "Wooki",
        source: "[Weiss et al. 2007]",
        imp: "OB",
        lin: "EO",
        obligations,
        histories,
        history_failures,
        searched,
        search_failures,
        sharded,
        sharded_failures,
    }
}

/// Produces all nine rows of Figure 12, in the paper's order.
pub fn fig12_rows(histories_per_type: u64, seed0: u64) -> Vec<Fig12Row> {
    vec![
        counter_row(histories_per_type, seed0),
        pn_counter_row(histories_per_type, seed0),
        lww_register_row(histories_per_type, seed0),
        mv_register_row(histories_per_type, seed0),
        lww_element_set_row(histories_per_type, seed0),
        two_phase_set_row(histories_per_type, seed0),
        or_set_row(histories_per_type, seed0),
        rga_row(histories_per_type, seed0),
        wooki_row(histories_per_type, seed0),
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
