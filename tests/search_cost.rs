//! The cost contract of the `ra_search*` facades, in deterministic
//! expansion counts: a history that linearizes is decided in about one
//! expansion per operation — however many operations could go first and
//! however wide the partition — and a refutation expands every distinct
//! reachable configuration exactly once. A composed history that one of
//! the paper's constructive witnesses decides costs the sharded facade no
//! expansion at all, and a bounded number of specification steps. The
//! streaming monitor steps each operation of a sequential stream once,
//! where it places it: settling it steps nothing.

use ral_core::bitset::BitSet;
use ral_core::compose::{MultiObjSpec, ObjLabel};
use ral_core::history::{History, OpRecord};
use ral_core::ids::{ObjId, ReplicaId};
use ral_core::label::{Identity, Kind, SpecLabel};
use ral_core::ralin::{
    check_linearization, ra_search_with_budget, ra_search_with_stats, search_sharded_with_stats,
    search_with_stats, shard_history, Monitor, SearchOutcome, Strategy, Verdict,
};
use ral_core::rng::Rng;
use ral_core::spec::{Spec, Step};
use ral_crdts::op::counter::OpCounter;
use ral_runtime::multi::{MultiCluster, TsMode};
use ral_runtime::schedule::{drive_multi, ScheduleConfig};
use ral_sim::driver::{Driver, OpDriver};
use ral_sim::{scenario, sim};
use ral_spec::counter::{CounterOp, CounterSpec};
use ral_verify::workloads;
use std::cell::Cell;
use std::collections::BTreeSet;

/// `k` replicas partitioned from the start: each alternates an increment
/// and a read of its own count `rounds` times, seeing only itself; after
/// the heal every replica reads the total. `k` concurrent roots,
/// `2·k·rounds + k` operations, the last one a read.
fn split_brain_counter(k: usize, rounds: usize) -> History<CounterOp> {
    let mut h = History::new();
    let mut split_phase = Vec::new();
    for r in 0..k {
        let mut own = Vec::new();
        for j in 0..rounds {
            for op in [CounterOp::Inc, CounterOp::Read(j as i64 + 1)] {
                let id = h.push(OpRecord::new(op, ReplicaId(r as u32)), own.iter().copied());
                own.push(id);
            }
        }
        split_phase.extend(own);
    }
    for r in 0..k {
        h.push(
            OpRecord::new(CounterOp::Read((k * rounds) as i64), ReplicaId(r as u32)),
            split_phase.iter().copied(),
        );
    }
    h
}

/// `h` with its last read rewritten by `tamper`.
fn tamper_last_read<L: SpecLabel>(h: History<L>, tamper: impl Fn(L) -> L) -> History<L> {
    let last = (0..h.len())
        .rfind(|&i| h.label(i).is_query())
        .expect("a read");
    let mut i = 0;
    h.map(|l| {
        i += 1;
        if i - 1 == last {
            tamper(l)
        } else {
            l
        }
    })
}

/// A read claiming one more than it saw.
fn one_more(l: CounterOp) -> CounterOp {
    match l {
        CounterOp::Read(v) => CounterOp::Read(v + 1),
        l => l,
    }
}

/// Distinct configurations a search of counter history `h` can reach when
/// operation `bad` is never placeable and every other placement is
/// feasible: increments commute and a read's justification depends only on
/// *which* increments it saw, so a configuration is its placed set, and
/// the reachable ones are the visibility-closed sets avoiding `bad`.
fn reachable_configurations(h: &History<CounterOp>, bad: usize) -> usize {
    assert!(h.len() <= 64);
    let mut seen = BTreeSet::from([0u64]);
    let mut frontier = vec![0u64];
    while let Some(mask) = frontier.pop() {
        for x in (0..h.len()).filter(|&x| x != bad && mask & (1 << x) == 0) {
            let next = mask | 1 << x;
            if h.preds(x).iter().all(|p| mask & (1 << p) != 0) && seen.insert(next) {
                frontier.push(next);
            }
        }
    }
    seen.len()
}

#[test]
fn witness_costs_one_expansion_per_operation() {
    let h = split_brain_counter(3, 3);
    let n = h.len() as u64;
    let (outcome, stats) = ra_search_with_stats(&h, &Identity, &CounterSpec);
    assert!(outcome.is_linearizable());
    assert!(
        stats.nodes_expanded <= n + 1,
        "{} expansions for {n} ops",
        stats.nodes_expanded
    );
    // The budget is one global counter: what the unbudgeted run spent is
    // enough, whatever the number of concurrent roots.
    assert_eq!(
        ra_search_with_budget(&h, &Identity, &CounterSpec, n + 1),
        outcome
    );
}

#[test]
fn refutation_expands_each_configuration_once() {
    let h = tamper_last_read(split_brain_counter(3, 3), one_more);
    let bad = h.len() - 1;
    // (2·3+1)³ split-phase placed sets, the full one extended by the
    // 2² subsets of the two placeable heal reads: 343 + 4 − 1.
    assert_eq!(reachable_configurations(&h, bad), 346);
    let (outcome, stats) = ra_search_with_stats(&h, &Identity, &CounterSpec);
    assert_eq!(outcome, SearchOutcome::NotLinearizable);
    assert_eq!(stats.nodes_expanded, 346);
    // The facade and the engine's own entry point are the same walk: one
    // table, not one per first operation.
    let (direct, direct_stats) = search_with_stats(&h, &CounterSpec, u64::MAX);
    assert_eq!(direct, outcome);
    assert_eq!(direct_stats.nodes_expanded, 346);
}

/// The recorded counter history of the full-length split-brain-and-heal
/// scenario (266 operations).
fn split_brain_heal() -> History<CounterOp> {
    let sc = scenario::split_brain_heal();
    let mut driver = OpDriver::new(OpCounter, sc.cfg.n_replicas, |rng: &mut Rng, _, _| {
        Some(workloads::counter(rng))
    });
    sim::run(&mut driver, &sc.cfg, 0);
    assert!(driver.converged());
    driver.into_cluster().into_history()
}

#[test]
fn full_length_split_brain_heal_is_decided_without_backtracking() {
    let h = split_brain_heal();
    let n = h.len() as u64;
    let (outcome, stats) = ra_search_with_stats(&h, &Identity, &CounterSpec);
    assert!(outcome.is_linearizable());
    assert!(
        stats.nodes_expanded <= n + 1,
        "{} expansions for {n} ops",
        stats.nodes_expanded
    );
    assert_eq!(
        ra_search_with_budget(&h, &Identity, &CounterSpec, n + 1),
        outcome
    );
}

/// [`CounterSpec`], counting every [`Spec::step`] call made through it.
#[derive(Default)]
struct CountingSpec {
    steps: Cell<u64>,
}

impl Spec for CountingSpec {
    type Label = CounterOp;
    type State = <CounterSpec as Spec>::State;

    fn initial(&self) -> Self::State {
        CounterSpec.initial()
    }

    fn step(&self, state: &Self::State, label: &CounterOp, out: &mut Vec<Self::State>) -> Step {
        self.steps.set(self.steps.get() + 1);
        CounterSpec.step(state, label, out)
    }

    fn state_fingerprint(&self, state: &Self::State) -> u64 {
        CounterSpec.state_fingerprint(state)
    }
}

thread_local! {
    static KIND_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// A [`CounterOp`] that counts (per thread) every [`SpecLabel::kind`] call.
#[derive(Clone, Debug, PartialEq)]
struct Kinded(CounterOp);

impl SpecLabel for Kinded {
    fn kind(&self) -> Kind {
        KIND_CALLS.with(|n| n.set(n.get() + 1));
        self.0.kind()
    }
}

/// [`CounterSpec`] over [`Kinded`] labels.
struct KindedSpec;

impl Spec for KindedSpec {
    type Label = Kinded;
    type State = <CounterSpec as Spec>::State;

    fn initial(&self) -> Self::State {
        CounterSpec.initial()
    }

    fn step(&self, state: &Self::State, label: &Kinded, out: &mut Vec<Self::State>) -> Step {
        CounterSpec.step(state, &label.0, out)
    }

    fn state_fingerprint(&self, state: &Self::State) -> u64 {
        CounterSpec.state_fingerprint(state)
    }
}

/// The memoized walk reads visibility a word at a time: an operation is
/// enabled when its predecessor set sits inside the placed mask, and the
/// per-history structure is the queries' visible-update rows, built from
/// one update mask. So a witness search asks each label its kind twice —
/// once building that mask, once where the label is placed — not once per
/// visibility edge: the 266 operations of the full-length
/// split-brain-and-heal history carry 32 032 edges, and the walk that
/// expanded them into successor and watcher lists asked 89 750 times.
#[test]
fn a_witness_search_reads_each_label_kind_a_bounded_number_of_times() {
    let h = split_brain_heal().map(Kinded);
    let n = h.len() as u64;
    let edges: u64 = (0..h.len()).map(|i| h.preds(i).len() as u64).sum();
    let before = KIND_CALLS.with(Cell::get);
    let (outcome, stats) = search_with_stats(&h, &KindedSpec, u64::MAX);
    let mut calls = KIND_CALLS.with(Cell::get) - before;
    let SearchOutcome::Linearizable(witness) = outcome else {
        panic!("a recorded counter run must linearize: {outcome:?}");
    };
    assert!(stats.nodes_expanded <= n + 1);
    // A debug build re-checks the witness (`debug_assert!`); that replay
    // is not the walk's.
    if cfg!(debug_assertions) {
        let before = KIND_CALLS.with(Cell::get);
        assert_eq!(check_linearization(&h, &KindedSpec, &witness.order), Ok(()));
        calls -= KIND_CALLS.with(Cell::get) - before;
    }
    assert!(
        calls <= 2 * n,
        "{calls} kind calls for {n} operations and {edges} visibility edges"
    );
}

/// A converged three-replica run over `objects` composed counters, about
/// twenty operations per object.
fn composed_counters(objects: usize) -> History<ObjLabel<CounterOp>> {
    let mut cluster = MultiCluster::new(OpCounter, objects, 3, TsMode::Shared);
    let cfg = ScheduleConfig {
        steps: objects * 30,
        ..ScheduleConfig::default()
    };
    drive_multi(&mut cluster, &cfg, 5, |rng: &mut Rng, _, _, _| {
        Some(workloads::counter(rng))
    });
    assert!(cluster.converged());
    cluster.into_history()
}

/// What validating one order of `h` per component may cost in
/// [`Spec::step`] calls: one per update (condition (ii)), one per query
/// (its admission), and one replay of every *distinct* (object, visible
/// update set) pair — the sum of those sets' sizes — however many queries
/// see the same set.
fn validation_step_bound(h: &History<ObjLabel<CounterOp>>) -> u64 {
    let objects: BTreeSet<ObjId> = h.iter().map(|(_, op)| op.label.obj).collect();
    let mut distinct: BTreeSet<(ObjId, Vec<usize>)> = BTreeSet::new();
    for q in (0..h.len()).filter(|&q| h.label(q).is_query()) {
        for &obj in &objects {
            let seen = h.preds(q).iter();
            let of_obj = seen.filter(|&u| h.label(u).is_update() && h.label(u).obj == obj);
            distinct.insert((obj, of_obj.collect()));
        }
    }
    let replays: usize = distinct.iter().map(|(_, seen)| seen.len()).sum();
    (replays + h.len()) as u64
}

#[test]
fn composed_witness_costs_no_walk_and_one_replay_per_distinct_visible_set() {
    for objects in [4usize, 8] {
        let h = composed_counters(objects);
        let spec = MultiObjSpec::new(CountingSpec::default(), objects);
        let (outcome, stats) = search_sharded_with_stats(&h, &spec, u64::MAX);
        let SearchOutcome::Linearizable(witness) = outcome else {
            panic!("a recorded counter run must linearize: {outcome:?}");
        };
        assert_eq!(stats.guided, Some(Strategy::ExecutionOrder));
        assert_eq!((stats.shards, stats.nodes_expanded), (0, 0));
        // A debug build re-checks the accepted order against the composed
        // specification (`debug_assert!`); that replay is not validation.
        let mut steps = spec.inner().steps.replace(0);
        if cfg!(debug_assertions) {
            assert_eq!(check_linearization(&h, &spec, &witness.order), Ok(()));
            steps -= spec.inner().steps.get();
        }
        let bound = validation_step_bound(&h);
        assert!(steps <= bound, "{steps} steps, bound {bound}");
        // Replaying every query's visible updates query by query — what
        // condition (iii) costs without the sharing — takes more.
        let per_query: usize = (0..h.len())
            .filter(|&q| h.label(q).is_query())
            .map(|q| {
                h.preds(q)
                    .iter()
                    .filter(|&u| h.label(u).is_update())
                    .count()
            })
            .sum();
        assert!(bound < (per_query + h.len()) as u64, "{bound}, {per_query}");

        // A tampered read misses both witnesses and is refuted by the very
        // shard walks the search made before it tried them first.
        let bad = tamper_last_read(h, |l| ObjLabel::new(l.obj, one_more(l.label)));
        let spec = MultiObjSpec::new(CounterSpec, objects);
        let (outcome, stats) = search_sharded_with_stats(&bad, &spec, u64::MAX);
        assert_eq!(outcome, SearchOutcome::NotLinearizable);
        assert_eq!((stats.guided, stats.fallback), (None, false));
        let walks: Vec<u64> = shard_history(&bad)
            .iter()
            .map(|shard| {
                let flat = shard.history.clone().map(|l| l.label);
                search_with_stats(&flat, &CounterSpec, u64::MAX)
                    .1
                    .nodes_expanded
            })
            .collect();
        assert_eq!(stats.shards, objects as u64);
        assert_eq!(walks.len(), objects);
        assert_eq!(stats.nodes_expanded, walks.iter().sum::<u64>());
    }
}

/// A sequential counter stream through the streaming monitor: every
/// operation sees all earlier ones, and both replicas observe it before
/// the next one arrives. Each operation costs one [`Spec::step`], where it
/// is placed (an increment stepped, a read admitted). Settling it costs
/// none: the settled suffix is the whole unabsorbed one, so the base takes
/// the configuration's frontier instead of replaying the increment. A
/// debug build replays it anyway, once, to check that handover.
#[test]
fn a_sequential_stream_is_stepped_where_it_is_placed_and_settles_for_free() {
    const OPS: usize = 300;
    let spec = CountingSpec::default();
    let mut monitor = Monitor::new_streaming(&spec, 2);
    let mut seen = BitSet::new();
    let (mut count, mut updates) = (0, 0);
    let (mut placing, mut settling) = (0, 0);
    for i in 0..OPS {
        let op = if i % 3 == 2 {
            CounterOp::Read(count)
        } else {
            count += 1;
            updates += 1;
            CounterOp::Inc
        };
        assert_eq!(monitor.advance_op(op, seen.clone()), Verdict::Ok);
        placing += spec.steps.replace(0);
        seen.insert(i);
        monitor.observe_frontier(ReplicaId(0), i + 1);
        assert_eq!(monitor.observe_frontier(ReplicaId(1), i + 1), Verdict::Ok);
        settling += spec.steps.replace(0);
    }
    assert_eq!(monitor.settled(), OPS);
    assert_eq!(placing, OPS as u64, "one step per placed operation");
    let check = if cfg!(debug_assertions) { updates } else { 0 };
    assert_eq!(settling, check, "settling {updates} increments");
}
