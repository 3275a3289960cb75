//! Scenario-driven workloads: the `ral-sim` corpus wired into the harness.
//!
//! [`crate::workloads`] supplies per-CRDT call generators;
//! `ral_sim::scenario` supplies named delivery environments (geo
//! topologies, flaky WANs, rolling restarts, split brains, large gossip
//! meshes). This module runs one through the other and reports the
//! paper-level obligations that must survive the trip:
//!
//! * [`lattice_converges_in`] — Appendix D.2: a state-based CRDT converges
//!   (and keeps its lattice and delta laws) on either lattice transport,
//!   whatever the network lost, duplicated, or reordered, and whatever
//!   replicas crashed back to their durable checkpoints;
//! * [`op_linearizable_in`] — Sections 3–4: an op-based CRDT's history,
//!   recorded under partitions/crashes/latency, still RA-linearizes with
//!   the strategy Figure 12 claims for it.

use crate::crosscheck::streaming_disagreement;
use crate::report::Report;
use ral_core::compose::{ComposedLabel, ObjLabel};
use ral_core::ids::{ObjId, ReplicaId};
use ral_core::label::Rewrite;
use ral_core::ralin::{
    ra_check, ra_search_sharded_with_budget, ra_search_with_budget, SearchOutcome, ShardableSpec,
    Strategy,
};
use ral_core::rng::Rng;
use ral_core::spec::Spec;
use ral_runtime::delta::DeltaCrdt;
use ral_runtime::multi::{MultiCluster, TsMode};
use ral_runtime::op_based::OpBased;
use ral_sim::driver::{Driver, LatticeDriver, MultiDriver, OpDriver, Propagation};
use ral_sim::scenario::Scenario;
use ral_sim::{sim, MonitoredDriver};
use std::ops::Range;

// The per-seed skeleton of every entry point: build a driver, run it
// through the scenario, require convergence after the final sync, then let
// `judge` have the finished driver. A diverged run fails whatever its
// history would have proved — the checkers assume the paper's "all updates
// eventually visible everywhere" hypothesis.
fn converged_runs<D: Driver>(
    name: &str,
    scenario: &Scenario,
    seeds: Range<u64>,
    mut build: impl FnMut() -> D,
    mut judge: impl FnMut(D) -> Result<(), String>,
) -> Report {
    let mut report = Report::new(format!("{name}@{}", scenario.name));
    for seed in seeds {
        let mut driver = build();
        sim::run(&mut driver, &scenario.cfg, seed);
        let outcome = if driver.converged() {
            judge(driver)
        } else {
            Err("replicas diverged after final sync".into())
        };
        match outcome {
            Ok(()) => report.pass(),
            Err(why) => report.fail(format!("seed {seed}: {why}")),
        }
    }
    report
}

/// Checks strong eventual consistency of a state-based CRDT under a named
/// scenario, on either lattice transport: for every seed, the replicas
/// converge after the final synchronization and the lattice and delta laws
/// hold on the surviving states.
///
/// `build(n_replicas)` makes a fresh [`StateDriver`] or [`DeltaDriver`] per
/// seed (workloads that thread fresh-value counters are rebuilt rather
/// than shared across runs).
///
/// [`StateDriver`]: ral_sim::driver::StateDriver
/// [`DeltaDriver`]: ral_sim::driver::DeltaDriver
pub fn lattice_converges_in<C, F, P>(
    scenario: &Scenario,
    seeds: Range<u64>,
    mut build: impl FnMut(usize) -> LatticeDriver<C, F, P>,
) -> Report
where
    C: DeltaCrdt,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
    P: Propagation<C>,
{
    converged_runs(
        "Convergence",
        scenario,
        seeds,
        || build(scenario.cfg.n_replicas),
        |driver| {
            if driver.cluster().check_lattice_laws() {
                Ok(())
            } else {
                Err("lattice/delta laws violated".into())
            }
        },
    )
}

/// Checks RA-linearizability of an op-based CRDT under a named scenario:
/// for every seed, the cluster converges and the recorded history passes
/// `ra_check` with the given rewriting, specification, and strategy.
pub fn op_linearizable_in<C, F, M, R, S>(
    crdt: C,
    scenario: &Scenario,
    rw: &R,
    spec: &S,
    strategy: Strategy,
    seeds: Range<u64>,
    mut mk_call_gen: M,
) -> Report
where
    C: OpBased + Clone,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
    M: FnMut() -> F,
    R: Rewrite<C::Label, Out = S::Label>,
    S: Spec,
{
    converged_runs(
        "RA-Linearizability",
        scenario,
        seeds,
        || OpDriver::new(crdt.clone(), scenario.cfg.n_replicas, mk_call_gen()),
        |driver| {
            let history = driver.into_cluster().into_history();
            let ops = history.len();
            ra_check(&history, rw, spec, strategy)
                .map(drop)
                .map_err(|v| format!("history of {ops} ops not RA-linearizable: {v:?}"))
        },
    )
}

/// Decides RA-linearizability of an op-based CRDT's scenario histories
/// *outright* with the complete memoized search ([`ra_search_with_budget`])
/// — no strategy hint, no guided construction: for every seed the recorded
/// history must admit *some* linearization within `budget` explored
/// configurations.
///
/// This is strictly stronger evidence than [`op_linearizable_in`] (a
/// failing guided strategy says nothing; a refutation here is a
/// counterexample), at sizes the naive seed-era enumeration could not
/// touch. An exhausted budget is reported as its own failure, so an
/// undecided history can never pass silently — and so is a run whose
/// replicas diverged, even when its history happens to linearize.
pub fn op_search_in<C, F, M, R, S>(
    crdt: C,
    scenario: &Scenario,
    rw: &R,
    spec: &S,
    budget: u64,
    seeds: Range<u64>,
    mut mk_call_gen: M,
) -> Report
where
    C: OpBased + Clone,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
    M: FnMut() -> F,
    R: Rewrite<C::Label, Out = S::Label>,
    S: Spec,
{
    converged_runs(
        "RA-Search",
        scenario,
        seeds,
        || OpDriver::new(crdt.clone(), scenario.cfg.n_replicas, mk_call_gen()),
        |driver| {
            let history = driver.into_cluster().into_history();
            let ops = history.len();
            match ra_search_with_budget(&history, rw, spec, budget) {
                SearchOutcome::Linearizable(_) => Ok(()),
                SearchOutcome::NotLinearizable => {
                    Err(format!("history of {ops} ops admits no RA-linearization"))
                }
                SearchOutcome::BudgetExhausted => Err(format!(
                    "search over {ops} ops undecided within {budget} nodes"
                )),
            }
        },
    )
}

/// Verifies an op-based CRDT *while the scenario runs*: every seed wraps
/// the driver in a [`MonitoredDriver`], so the streaming monitor consumes
/// each invocation and each applied delivery as the engine produces them,
/// settling causally-stable operations along the way. After the run the
/// end-of-stream verdict is cross-checked against the batch search
/// ([`ra_search_with_budget`]) on the recorded history.
///
/// Past the convergence gate every entry point shares, three obligations
/// per seed:
///
/// 1. **agreement** — a definite streaming verdict must match the batch
///    outcome (`Verdict::Exhausted` and budget exhaustion are undecided,
///    never disagreement — but both are still reported as failures here,
///    because an undecided corpus run means the harness chose a scenario
///    the monitor cannot carry);
/// 2. **acceptance** — the corpus histories are RA-linearizable, so the
///    verdict must be `Verdict::Ok`;
/// 3. **stability** — the final sync drains every mailbox, so every
///    operation must have settled and the live window collapsed to zero.
pub fn monitor_in<C, F, M, R, S>(
    crdt: C,
    scenario: &Scenario,
    rw: &R,
    spec: &S,
    budget: u64,
    seeds: Range<u64>,
    mut mk_call_gen: M,
) -> Report
where
    C: OpBased + Clone,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
    M: FnMut() -> F,
    R: Rewrite<C::Label, Out = S::Label>,
    S: Spec,
{
    converged_runs(
        "RA-Monitor",
        scenario,
        seeds,
        || {
            let inner = OpDriver::new(crdt.clone(), scenario.cfg.n_replicas, mk_call_gen());
            MonitoredDriver::new(inner, rw, spec)
        },
        |driver| {
            let verdict = driver.verdict();
            let stats = driver.stats().clone();
            let history = driver.into_inner().into_cluster().into_history();
            let ops = history.len();
            let batch = ra_search_with_budget(&history, rw, spec, budget);
            if let Some(disagreement) = streaming_disagreement(verdict, &batch, ops) {
                Err(disagreement)
            } else if !verdict.is_ok() {
                Err(format!("monitored run of {ops} ops ended {verdict:?}"))
            } else if stats.settled != ops as u64 || stats.live_window != 0 {
                Err(format!(
                    "final sync left {} of {ops} ops unsettled (live window {})",
                    ops as u64 - stats.settled,
                    stats.live_window
                ))
            } else {
                Ok(())
            }
        },
    )
}

/// Decides RA-linearizability of a *composed* workload outright with the
/// sharded compositional search ([`ra_search_sharded_with_budget`]): for
/// every seed, a [`MultiCluster`] of `n_objects` objects under the given
/// timestamp discipline runs through the scenario, and the recorded
/// composed history must admit some RA-linearization — decided per
/// object, witnesses stitched, stitch failures falling back to the
/// whole-history engine.
///
/// This is the scenario harness the sharded checker exists for: `⊗ts`
/// (Theorem 5.5) workloads at replica/object counts the monolithic
/// search cannot touch. As in [`op_search_in`], refutations and
/// exhausted budgets are failures of their own.
#[allow(clippy::too_many_arguments)]
pub fn composed_search_in<C, F, M, R, S>(
    crdt: C,
    n_objects: usize,
    mode: TsMode,
    scenario: &Scenario,
    rw: &R,
    spec: &S,
    budget: u64,
    seeds: Range<u64>,
    mut mk_call_gen: M,
) -> Report
where
    C: OpBased + Clone,
    F: FnMut(&mut Rng, ReplicaId, ObjId, &C::State) -> Option<C::Call>,
    M: FnMut() -> F,
    R: Rewrite<ObjLabel<C::Label>, Out = S::Label>,
    S: ShardableSpec,
    S::Label: ComposedLabel,
{
    converged_runs(
        "Sharded-RA-Search",
        scenario,
        seeds,
        || {
            let cluster = MultiCluster::new(crdt.clone(), n_objects, scenario.cfg.n_replicas, mode);
            MultiDriver::new(cluster, mk_call_gen())
        },
        |driver| {
            let history = driver.into_cluster().into_history();
            let ops = history.len();
            match ra_search_sharded_with_budget(&history, rw, spec, budget) {
                SearchOutcome::Linearizable(_) => Ok(()),
                SearchOutcome::NotLinearizable => Err(format!(
                    "composed history of {ops} ops over {n_objects} objects admits no RA-linearization"
                )),
                SearchOutcome::BudgetExhausted => Err(format!(
                    "sharded search over {ops} ops undecided within {budget} nodes/shard"
                )),
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::tests::LastArrival;
    use crate::workloads;
    use ral_core::compose::{MultiObjRewrite, MultiObjSpec};
    use ral_core::label::Identity;
    use ral_crdts::op::counter::OpCounter;
    use ral_crdts::state::pn_counter::PnCounter;
    use ral_sim::driver::StateDriver;
    use ral_sim::scenario;
    use ral_spec::counter::CounterSpec;
    use ral_spec::register::RegSpec;

    #[test]
    fn pn_counter_survives_the_flaky_wan() {
        let report = lattice_converges_in(&scenario::flaky_wan(), 0..2, |n| {
            StateDriver::new(PnCounter, n, |rng, _, _| Some(workloads::pn_counter(rng)))
        });
        assert!(report.ok(), "{report}");
    }

    #[test]
    fn op_counter_search_decides_the_split_brain() {
        let report = op_search_in(
            OpCounter,
            &scenario::split_brain_heal(),
            &Identity,
            &CounterSpec,
            2_000_000,
            0..2,
            || |rng: &mut Rng, _, _| Some(workloads::counter(rng)),
        );
        assert!(report.ok(), "{report}");
    }

    #[test]
    fn diverged_run_fails_the_search_even_though_its_history_linearizes() {
        // LastArrival's replicas keep whichever write arrived last, so the
        // healed split brain leaves them disagreeing — while the recorded
        // history is writes only, which a register admits in any order.
        let report = op_search_in(
            LastArrival,
            &scenario::split_brain_heal(),
            &Identity,
            &RegSpec::new(),
            2_000_000,
            0..2,
            || |rng: &mut Rng, _, _: &i64| Some(rng.random_range(0..100)),
        );
        assert!(!report.ok());
        assert_eq!(report.failures.len(), 2, "{report}");
        for failure in &report.failures {
            assert!(
                failure.contains("diverged"),
                "unexpected failure: {failure}"
            );
        }
    }

    #[test]
    fn composed_counters_search_through_multi_mix() {
        // The tentpole wiring: 50 replicas × 32 objects through the
        // multi_mix scenario, decided by the sharded search, in both
        // timestamp disciplines.
        for mode in [TsMode::Shared, TsMode::PerObject] {
            let report = composed_search_in(
                OpCounter,
                32,
                mode,
                &scenario::by_name("multi_mix").unwrap(),
                &MultiObjRewrite::new(Identity),
                &MultiObjSpec::new(CounterSpec, 32),
                5_000_000,
                0..1,
                || |rng: &mut Rng, _, _o: ObjId, _| Some(workloads::counter(rng)),
            );
            assert!(report.ok(), "{mode:?}: {report}");
        }
    }

    #[test]
    fn monitor_tracks_the_corpus_live() {
        // The streaming monitor rides inside the engine for the corpus
        // scenario whose concurrent window it can always carry — the
        // tight LAN it was built for: verdicts must match the batch
        // search, end Ok, and settle everything at the final sync.
        let name = "lan_tight";
        let report = monitor_in(
            OpCounter,
            &scenario::by_name(name).unwrap(),
            &Identity,
            &CounterSpec,
            2_000_000,
            0..2,
            || |rng: &mut Rng, _, _| Some(workloads::counter(rng)),
        );
        assert!(report.ok(), "{name}: {report}");
    }

    #[test]
    fn monitor_exhausts_honestly_on_split_brain() {
        // A split brain holds hundreds of operations concurrent for the
        // whole partition window; the complete streaming closure tracks
        // every placement order, so the live-config cap trips. The
        // obligation here is honesty: the monitor must end Exhausted
        // (undecided), never a wrong definite verdict — monitor_in counts
        // that as a failure and says why, and the batch arms still decide
        // the same histories (op_counter_search_decides_the_split_brain).
        let report = monitor_in(
            OpCounter,
            &scenario::split_brain_heal(),
            &Identity,
            &CounterSpec,
            2_000_000,
            0..2,
            || |rng: &mut Rng, _, _| Some(workloads::counter(rng)),
        );
        assert!(!report.ok());
        let shown = format!("{report}");
        assert!(shown.contains("Exhausted"), "unexpected failure: {shown}");
    }

    #[test]
    fn op_counter_linearizes_through_the_split_brain() {
        let report = op_linearizable_in(
            OpCounter,
            &scenario::split_brain_heal(),
            &Identity,
            &CounterSpec,
            OpCounter::STRATEGY,
            0..2,
            || |rng: &mut Rng, _, _| Some(workloads::counter(rng)),
        );
        assert!(report.ok(), "{report}");
    }
}
