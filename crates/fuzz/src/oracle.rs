//! The fuzzing oracle: replay one [`FuzzScenario`] and decide what it
//! proved.
//!
//! Every run goes through the same three gates:
//!
//! 1. **Lattice laws** on the surviving states (gossip transports only) —
//!    the join-semilattice obligations of Appendix D. First, because a
//!    broken join usually diverges as well and this verdict names the
//!    cause (the [`super::scenario::Family::SummingCounter`] negative
//!    control trips exactly here).
//! 2. **Convergence** after the driver's final sync — the paper's "all
//!    updates eventually visible everywhere" hypothesis. A correct CRDT can
//!    *never* fail this, whatever the network did, so a failure is a
//!    finding on its own (the [`super::scenario::Family::BrokenCounter`]
//!    negative control trips exactly here).
//! 3. **Checker cross-check** of the recorded history through
//!    [`ral_verify::crosscheck`]: guided strategy vs complete memoized
//!    search vs brute-force reference (single-object), or sharded vs
//!    whole-history search (composed). Refutations *and* decider
//!    disagreements are findings.
//!
//! Alongside the verdict, the oracle reports which structural-coverage
//! dimensions the run exercised (from the scenario shape, the engine's
//! fault counters, and the history's concurrency structure) — the feedback
//! signal of the fuzz loop. A verdict never reads the engine trace, so
//! [`run_scenario`] records none; [`replay_trace`] recomputes it for
//! byte-stable replay comparison.

use crate::coverage::dim;
use crate::scenario::{Family, FuzzScenario, FuzzTopology, Transport};
use ral_analyze::fixtures::{BrokenCall, BrokenCounter, SumCall, SummingCounter};
use ral_core::compose::{MultiObjRewrite, MultiObjSpec, ObjLabel};
use ral_core::history::History;
use ral_core::ids::ReplicaId;
use ral_core::label::Rewrite;
use ral_core::ralin::Strategy;
use ral_core::rng::Rng;
use ral_core::spec::Spec;
use ral_runtime::delta::{DeltaConfig, DeltaCrdt};
use ral_runtime::multi::{MultiCluster, TsMode};
use ral_runtime::op_based::{CallGen, Naming, OpBased};
use ral_sim::driver::{
    DeltaDriver, Driver, LatticeDriver, MultiDriver, OpClusterDriver, OpDriver, Propagation,
    StateDriver,
};
use ral_sim::sim::{self, SimRun, SimStats};
use ral_sim::trace::{Record, Trace};
use ral_verify::crosscheck::{self, HistoryVerdict};
use ral_verify::families::{self, OpFamily, Scale, StateFamily};

/// What one replayed scenario proved.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum VerdictKind {
    /// Converged and every decider agreed the history is RA-linearizable.
    Pass,
    /// Replicas disagreed after final sync — a convergence violation.
    Diverged,
    /// The surviving states violate the join-semilattice laws.
    LatticeBroken,
    /// The complete search refuted RA-linearizability of the history.
    Refuted,
    /// Two deciders reached contradictory definite verdicts — a checker bug.
    Disagreement,
    /// Complete search found a witness the guided strategy missed
    /// (heuristic blind spot, not a soundness bug).
    StrategyMiss,
    /// Every decider exhausted its budget undecided.
    Undecided,
}

impl VerdictKind {
    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            VerdictKind::Pass => "pass",
            VerdictKind::Diverged => "diverged",
            VerdictKind::LatticeBroken => "lattice_broken",
            VerdictKind::Refuted => "refuted",
            VerdictKind::Disagreement => "disagreement",
            VerdictKind::StrategyMiss => "strategy_miss",
            VerdictKind::Undecided => "undecided",
        }
    }

    /// Whether this verdict is a counterexample worth shrinking.
    pub fn is_finding(self) -> bool {
        matches!(
            self,
            VerdictKind::Diverged
                | VerdictKind::LatticeBroken
                | VerdictKind::Refuted
                | VerdictKind::Disagreement
        )
    }
}

/// What one replay proved: the verdict and the coverage dimensions the run
/// lit up.
#[derive(Clone, Debug)]
pub struct Observation {
    /// The oracle's verdict.
    pub verdict: VerdictKind,
    /// Human-readable account of a non-`Pass` verdict (empty on `Pass`).
    pub detail: String,
    /// Structural-coverage dimension indices the run exercised.
    pub dims: Vec<usize>,
    /// Successful invocations the engine performed.
    pub invokes: u64,
    /// Operations in the recorded history.
    pub history_len: usize,
}

/// Replays `sc` and cross-checks it with `budget` search nodes per decider.
pub fn run_scenario(sc: &FuzzScenario, budget: u64) -> Observation {
    dispatch(sc, Some(budget), &mut ())
}

/// Replays `sc` without the history cross-check and renders its engine
/// trace ([`Trace::render`]) — the byte-stable replay record the
/// round-trip fixtures compare.
pub fn replay_trace(sc: &FuzzScenario) -> String {
    let mut trace = Trace::new();
    dispatch(sc, None, &mut trace);
    trace.render()
}

// One arm per family: the transport it runs on and its roster entry — the
// (crdt, γ, spec, strategy, workload) tuple lives in `ral_verify::families`.
// The engine hands its entries to `trace`.
fn dispatch(sc: &FuzzScenario, budget: Option<u64>, trace: &mut impl Record) -> Observation {
    match sc.family {
        Family::OpCounter => op_case::<families::Counter>(sc, budget, trace),
        Family::OpLwwRegister => op_case::<families::LwwRegister>(sc, budget, trace),
        Family::OpOrSet => op_case::<families::OrSet>(sc, budget, trace),
        Family::OpRga => op_case::<families::Rga>(sc, budget, trace),
        Family::OpRgaAddAt => op_case::<families::RgaAddAt>(sc, budget, trace),
        Family::OpWooki => op_case::<families::Wooki>(sc, budget, trace),
        Family::StatePnCounter => lattice_case::<families::PnCounter>(sc, budget, trace),
        Family::StateMvRegister => lattice_case::<families::MvRegister>(sc, budget, trace),
        Family::StateLwwElementSet => lattice_case::<families::LwwElementSet>(sc, budget, trace),
        Family::StateTwoPhaseSet => lattice_case::<families::TwoPhaseSet>(sc, budget, trace),
        Family::DeltaPnCounter => lattice_case::<families::PnCounter>(sc, budget, trace),
        Family::DeltaLwwElementSet => lattice_case::<families::LwwElementSet>(sc, budget, trace),
        Family::MultiCounter => multi_case::<families::Counter>(sc, budget, trace),
        Family::MultiLwwRegister => multi_case::<families::LwwRegister>(sc, budget, trace),
        Family::BrokenCounter => broken_case(sc, trace),
        Family::SummingCounter => summing_case(sc, trace),
    }
}

// Wraps a workload with the scenario's total-invoke cap (the knob that
// keeps histories inside the complete searches' reach — and that the
// shrinker minimizes).
fn capped<St, Call>(
    max_invokes: u64,
    mut call_gen: impl FnMut(&mut Rng, ReplicaId, &St) -> Option<Call>,
) -> impl FnMut(&mut Rng, ReplicaId, &St) -> Option<Call> {
    let mut left = max_invokes;
    move |rng, r, st| {
        if left == 0 {
            return None;
        }
        let call = call_gen(rng, r, st)?;
        left -= 1;
        Some(call)
    }
}

// What is left of a run once its driver is consumed — all the shared tail
// ([`conclude`]) needs, whatever the transport.
struct Finished<L> {
    run: SimRun,
    converged: bool,
    /// `true` on transports without a join.
    laws_hold: bool,
    history: History<L>,
    /// Transport-specific dims, on top of [`all_dims`].
    extra_dims: Vec<usize>,
}

// A history cross-check with its search budget.
type CrossCheck<'a, L> = &'a dyn Fn(&History<L>, u64) -> HistoryVerdict;

// The one run-to-`Observation` tail: the lattice and convergence gates,
// then `cross_check` on the recorded history — when the family has one
// (the negative controls do not) and a budget was supplied (trace-only
// replays skip it).
fn conclude<L>(
    sc: &FuzzScenario,
    budget: Option<u64>,
    done: Finished<L>,
    cross_check: Option<CrossCheck<'_, L>>,
) -> Observation {
    let h = &done.history;
    let (verdict, detail) = if !done.laws_hold {
        (
            VerdictKind::LatticeBroken,
            "surviving states violate the join-semilattice laws".into(),
        )
    } else if !done.converged {
        (
            VerdictKind::Diverged,
            "replicas disagree after final sync".into(),
        )
    } else {
        match (cross_check, budget) {
            (Some(cross_check), Some(budget)) => fold(cross_check(h, budget)),
            _ => (VerdictKind::Pass, String::new()),
        }
    };
    let mut dims = all_dims(sc, &done.run.stats, h);
    dims.extend(done.extra_dims);
    dims.sort_unstable();
    dims.dedup();
    Observation {
        verdict,
        detail,
        dims,
        invokes: done.run.stats.invokes as u64,
        history_len: h.len(),
    }
}

// The cross-check of every single-object transport: guided strategy vs
// complete search vs streaming monitor (vs brute force when small).
fn single_object<L, R, S>(
    rw: R,
    spec: S,
    strategy: Strategy,
) -> impl Fn(&History<L>, u64) -> HistoryVerdict
where
    R: Rewrite<L, Out = S::Label>,
    S: Spec,
{
    move |h, budget| crosscheck::op_oracle(h, &rw, &spec, strategy, budget)
}

fn op_case<F: OpFamily>(
    sc: &FuzzScenario,
    budget: Option<u64>,
    trace: &mut impl Record,
) -> Observation {
    let done = run_op(sc, trace, F::crdt(), F::calls(Scale::Searched));
    let check = single_object(F::rewrite(), F::spec(), F::STRATEGY);
    conclude(sc, budget, done, Some(&check))
}

fn lattice_case<F: StateFamily>(
    sc: &FuzzScenario,
    budget: Option<u64>,
    trace: &mut impl Record,
) -> Observation {
    let done = run_lattice(sc, trace, F::crdt(), F::calls(Scale::Searched));
    let check = single_object(F::rewrite(), F::spec(), F::STRATEGY);
    conclude(sc, budget, done, Some(&check))
}

// Sharded vs whole-history search over `n_objects` instances of the entry.
fn multi_case<F: OpFamily>(
    sc: &FuzzScenario,
    budget: Option<u64>,
    trace: &mut impl Record,
) -> Observation {
    let done = run_multi(sc, trace, F::crdt(), F::calls(Scale::Searched));
    let rw = MultiObjRewrite::new(F::rewrite());
    let spec = MultiObjSpec::new(F::spec(), sc.n_objects as usize);
    let check = |h: &History<_>, budget| crosscheck::composed_oracle(h, &rw, &spec, budget);
    conclude(sc, budget, done, Some(&check))
}

// Negative control: convergence is the only oracle a broken op-based
// counter needs — its non-commutative effectors diverge on their own.
fn broken_case(sc: &FuzzScenario, trace: &mut impl Record) -> Observation {
    let done = run_op(sc, trace, BrokenCounter, |rng: &mut Rng, _, _: &_| {
        Some(if rng.random_bool(0.7) {
            BrokenCall::Inc
        } else {
            BrokenCall::Dec
        })
    });
    conclude(sc, None, done, None)
}

// Negative control: the summing "join" breaks idempotence, so the lattice
// laws catch it even when the states happen to agree.
fn summing_case(sc: &FuzzScenario, trace: &mut impl Record) -> Observation {
    let done = run_lattice(sc, trace, SummingCounter, |_: &mut Rng, _, _: &_| {
        Some(SumCall::Inc)
    });
    conclude(sc, None, done, None)
}

// The one op-based run: a single object or a composition, whichever
// cluster `driver` wraps.
fn run_op_based<C, K, F>(
    sc: &FuzzScenario,
    trace: &mut impl Record,
    mut driver: OpClusterDriver<C, K, F>,
) -> Finished<K::Label<C::Label>>
where
    C: OpBased,
    K: Naming,
    F: CallGen<C, K>,
{
    let run = sim::run_into(&mut driver, &sc.sim_config(), sc.sim_seed, trace);
    Finished {
        run,
        converged: driver.converged(),
        laws_hold: true,
        history: driver.into_cluster().into_history(),
        extra_dims: Vec::new(),
    }
}

fn run_op<C: OpBased>(
    sc: &FuzzScenario,
    trace: &mut impl Record,
    crdt: C,
    calls: impl FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
) -> Finished<C::Label> {
    let calls = capped(sc.max_invokes, calls);
    run_op_based(
        sc,
        trace,
        OpDriver::new(crdt, sc.n_replicas as usize, calls),
    )
}

// The one lattice run: full-state or delta, as the family's transport says.
fn run_lattice<C: DeltaCrdt>(
    sc: &FuzzScenario,
    trace: &mut impl Record,
    crdt: C,
    calls: impl FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
) -> Finished<C::Label> {
    let calls = capped(sc.max_invokes, calls);
    let n = sc.n_replicas as usize;
    if sc.family.transport() != Transport::Delta {
        return run_lattice_driver(sc, trace, StateDriver::new(crdt, n, calls));
    }
    let config = DeltaConfig {
        resync_after: sc.resync_after as usize,
    };
    run_lattice_driver(sc, trace, DeltaDriver::new(crdt, config, n, calls))
}

fn run_lattice_driver<C, F, P>(
    sc: &FuzzScenario,
    trace: &mut impl Record,
    mut driver: LatticeDriver<C, F, P>,
) -> Finished<C::Label>
where
    C: DeltaCrdt,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
    P: Propagation<C>,
{
    let run = sim::run_into(&mut driver, &sc.sim_config(), sc.sim_seed, trace);
    // A full-state run's every message is a resync: only a delta run's
    // resyncs and collections say something about the delta machinery.
    let delta = sc.family.transport() == Transport::Delta;
    let stats = driver.cluster().stats();
    let extra_dims = [
        ("delta_resync", stats.resyncs),
        ("delta_gc", stats.gc_entries),
    ]
    .into_iter()
    .filter(|&(_, n)| delta && n > 0)
    .map(|(name, _)| dim(name))
    .collect();
    Finished {
        run,
        converged: driver.converged(),
        laws_hold: driver.cluster().check_lattice_laws(),
        history: driver.into_cluster().into_history(),
        extra_dims,
    }
}

// One cap across all objects: every object draws from the same workload.
fn run_multi<C: OpBased>(
    sc: &FuzzScenario,
    trace: &mut impl Record,
    crdt: C,
    calls: impl FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
) -> Finished<ObjLabel<C::Label>> {
    let cluster = MultiCluster::new(
        crdt,
        sc.n_objects as usize,
        sc.n_replicas as usize,
        sc.ts_mode,
    );
    let mut calls = capped(sc.max_invokes, calls);
    let driver = MultiDriver::new(cluster, move |rng, r, _obj, st| calls(rng, r, st));
    let mut done = run_op_based(sc, trace, driver);
    if cross_object_interleave(&done.history) {
        done.extra_dims.push(dim("cross_object_interleave"));
    }
    done
}

fn fold(v: HistoryVerdict) -> (VerdictKind, String) {
    match v {
        HistoryVerdict::Linearizable => (VerdictKind::Pass, String::new()),
        HistoryVerdict::StrategyMiss => (
            VerdictKind::StrategyMiss,
            "guided strategy missed a witness the complete search found".into(),
        ),
        HistoryVerdict::Refuted { detail } => (VerdictKind::Refuted, detail),
        HistoryVerdict::Disagreement { detail } => (VerdictKind::Disagreement, detail),
        HistoryVerdict::Undecided => (
            VerdictKind::Undecided,
            "every decider exhausted its budget".into(),
        ),
    }
}

// The structural dimensions a run exercised: scenario shape + engine fault
// counters + history concurrency. Transport-specific dims (delta resync,
// cross-object interleave) arrive as `Finished::extra_dims`.
fn all_dims<L>(sc: &FuzzScenario, stats: &SimStats, h: &History<L>) -> Vec<usize> {
    let mut dims = Vec::new();
    dims.push(match sc.n_replicas {
        2 => dim("replicas_2"),
        3 | 4 => dim("replicas_3_4"),
        _ => dim("replicas_5_plus"),
    });
    dims.push(match sc.topo {
        FuzzTopology::Uniform { .. } => dim("topology_uniform"),
        FuzzTopology::DataCenters { .. } => dim("topology_dc"),
    });
    match sc.partitions.len() {
        0 => {}
        1 => dims.push(dim("partition_single")),
        _ => dims.push(dim("partition_multi")),
    }
    if sc.partitions.iter().any(|p| p.sides() >= 3) {
        dims.push(dim("partition_3way"));
    }
    if sc.crashes.iter().any(|c| c.restart_at.is_some()) {
        dims.push(dim("crash_bounce"));
    }
    if sc.crashes.iter().any(|c| c.restart_at.is_none()) {
        dims.push(dim("crash_permanent"));
    }
    if sc.crashes.iter().any(|c| {
        sc.partitions
            .iter()
            .any(|p| p.start <= c.crash_at && c.crash_at < p.end)
    }) {
        dims.push(dim("crash_during_partition"));
    }
    if stats.dropped > 0 {
        dims.push(dim("faults_drop"));
    }
    if stats.duplicated > 0 {
        dims.push(dim("faults_dup"));
    }
    if stats.held > 0 {
        dims.push(dim("reorder_held"));
    }
    if stats.retried > 0 {
        dims.push(dim("retry_recovery"));
    }
    dims.push(match sc.family.transport() {
        Transport::Op => dim("family_op"),
        Transport::State => dim("family_state"),
        Transport::Delta => dim("family_delta"),
        Transport::Multi => dim("family_multi"),
    });
    if sc.family.transport() == Transport::Multi {
        dims.push(match sc.ts_mode {
            TsMode::Shared => dim("ts_shared"),
            TsMode::PerObject => dim("ts_per_object"),
        });
        if sc.n_objects >= 2 {
            dims.push(dim("multi_objects_2plus"));
        }
    }
    if antichain_at_least(h, 4) {
        dims.push(dim("concurrency_width_4plus"));
    }
    dims
}

// Greedy search for an antichain of `k` pairwise-concurrent operations
// (exact maximum-width computation is NP-ish; greedy from each start is
// plenty for a coverage bit on histories this small).
fn antichain_at_least<L>(h: &History<L>, k: usize) -> bool {
    for start in 0..h.len() {
        let mut chain = vec![start];
        for j in start + 1..h.len() {
            if chain.iter().all(|&c| h.concurrent(c, j)) {
                chain.push(j);
                if chain.len() >= k {
                    return true;
                }
            }
        }
    }
    false
}

// Did two operations on *different* objects overlap in time? The composed
// shapes the §5 composition theorems (and the Fig. 10 anomaly) care about.
fn cross_object_interleave<L>(h: &History<ObjLabel<L>>) -> bool {
    for i in 0..h.len() {
        for j in i + 1..h.len() {
            if h.label(i).obj != h.label(j).obj && h.concurrent(i, j) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn quiet(family: Family) -> FuzzScenario {
        FuzzScenario {
            family,
            ts_mode: TsMode::Shared,
            n_objects: if family.transport() == Transport::Multi {
                2
            } else {
                1
            },
            n_replicas: 2,
            duration: 200,
            invoke: (15, 5),
            gossip: (10, 2),
            topo: FuzzTopology::Uniform { base: 2, jitter: 3 },
            drop_pm: 0,
            dup_pm: 0,
            retry: 10,
            resync_after: 8,
            max_invokes: 8,
            sim_seed: 42,
            partitions: Vec::new(),
            crashes: Vec::new(),
        }
    }

    #[test]
    fn every_shipped_family_passes_a_quiet_scenario() {
        for family in Family::SHIPPED {
            let obs = run_scenario(&quiet(family), 2_000_000);
            assert_eq!(
                obs.verdict,
                VerdictKind::Pass,
                "{}: {}",
                family.name(),
                obs.detail
            );
            assert!(obs.history_len > 0, "{}: empty history", family.name());
        }
    }

    #[test]
    fn broken_counter_is_caught() {
        // Concurrent ops on both replicas: the non-commutative effectors
        // race, so some seed in a small window must diverge.
        let mut sc = quiet(Family::BrokenCounter);
        sc.invoke = (5, 2);
        sc.max_invokes = 12;
        let found = (0..20).any(|seed| {
            sc.sim_seed = seed;
            run_scenario(&sc, 1_000).verdict == VerdictKind::Diverged
        });
        assert!(found, "BrokenCounter never diverged in 20 seeds");
    }

    #[test]
    fn summing_counter_breaks_the_lattice() {
        let obs = run_scenario(&quiet(Family::SummingCounter), 1_000);
        assert_eq!(obs.verdict, VerdictKind::LatticeBroken, "{}", obs.detail);
    }

    #[test]
    fn observation_is_deterministic() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..8 {
            let sc = gen::generate(&mut rng, &Family::SHIPPED);
            let a = run_scenario(&sc, 500_000);
            let b = run_scenario(&sc, 500_000);
            assert_eq!(a.verdict, b.verdict);
            assert_eq!(a.dims, b.dims);
            assert_eq!((a.invokes, a.history_len), (b.invokes, b.history_len));
            assert_eq!(replay_trace(&sc), replay_trace(&sc));
        }
    }
}
