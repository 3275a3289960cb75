//! Simulator determinism: same seed + same scenario ⇒ byte-identical event
//! traces and histories, for every named scenario in the corpus.
//!
//! This is the contract everything else leans on: a failure seed printed by
//! a scenario-driven property run must replay the exact run that failed —
//! trace, history, RNG consumption, fault schedule and all. The comparison
//! is on rendered bytes, not just structural equality, so even a `Debug`
//! formatting drift (which would invalidate recorded traces) fails here.

use ral_core::ids::ObjId;
use ral_core::rng::Rng;
use ral_core::spec::Fnv64;
use ral_crdts::op::counter::OpCounter;
use ral_crdts::op::lww_register::LwwRegister;
use ral_crdts::op::or_set::OrSet;
use ral_crdts::state::lww_element_set::LwwElementSet;
use ral_crdts::state::pn_counter::PnCounter;
use ral_runtime::delta::DeltaConfig;
use ral_runtime::multi::{MultiCluster, TsMode};
use ral_sim::driver::{DeltaDriver, Driver, MultiDriver, OpDriver, StateDriver};
use ral_sim::scenario::{self, Scenario};
use ral_sim::sim::{self, SimConfig, SimRun};
use ral_verify::workloads;
use std::hash::Hasher;

/// Trace bytes and history bytes of one run.
type RunBytes = (Vec<u8>, Vec<u8>);

/// A run's statistics and end, with its bytes.
type Ran = (SimRun, RunBytes);

/// How a runner enters the engine.
trait Entry {
    /// Runs `driver` through `cfg` under `seed`; returns the run and its
    /// rendered trace (empty where the entry records none).
    fn enter<D: Driver>(driver: &mut D, cfg: &SimConfig, seed: u64) -> (SimRun, Vec<u8>);
}

/// [`sim::replay`]: the entry the reruns and the golden hashes pin.
struct Replay;

impl Entry for Replay {
    fn enter<D: Driver>(driver: &mut D, cfg: &SimConfig, seed: u64) -> (SimRun, Vec<u8>) {
        let (run, trace) = sim::replay(driver, cfg, seed);
        (run, trace.render().into_bytes())
    }
}

/// [`sim::run`]: the entry the pipeline and every harness take.
struct Run;

impl Entry for Run {
    fn enter<D: Driver>(driver: &mut D, cfg: &SimConfig, seed: u64) -> (SimRun, Vec<u8>) {
        (sim::run(driver, cfg, seed), Vec::new())
    }
}

fn op_run<E: Entry>(sc: &Scenario, seed: u64) -> Ran {
    let mut driver = OpDriver::new(
        OrSet::<u8>::new(),
        sc.cfg.n_replicas,
        |rng: &mut Rng, _, _| Some(workloads::or_set(rng)),
    );
    let (run, trace) = E::enter(&mut driver, &sc.cfg, seed);
    assert!(driver.converged(), "{}: no convergence", sc.name);
    let history = format!("{:?}", driver.into_cluster().into_history());
    (run, (trace, history.into_bytes()))
}

fn state_run<E: Entry>(sc: &Scenario, seed: u64) -> Ran {
    let mut driver = StateDriver::new(PnCounter, sc.cfg.n_replicas, |rng: &mut Rng, _, _| {
        Some(workloads::pn_counter(rng))
    });
    let (run, trace) = E::enter(&mut driver, &sc.cfg, seed);
    assert!(driver.converged(), "{}: no convergence", sc.name);
    let history = format!("{:?}", driver.into_cluster().into_history());
    (run, (trace, history.into_bytes()))
}

fn delta_run<E: Entry>(sc: &Scenario, seed: u64) -> Ran {
    // A tight resync horizon so the delta-transport fallback machinery is
    // itself under the determinism contract.
    let mut driver = DeltaDriver::new(
        LwwElementSet::<u8>::new(),
        DeltaConfig { resync_after: 8 },
        sc.cfg.n_replicas,
        |rng: &mut Rng, _, _| Some(workloads::lww_element_set(rng)),
    );
    let (run, trace) = E::enter(&mut driver, &sc.cfg, seed);
    assert!(driver.converged(), "{}: no convergence", sc.name);
    let history = format!("{:?}", driver.into_cluster().into_history());
    (run, (trace, history.into_bytes()))
}

fn multi_run_mode<E: Entry>(sc: &Scenario, seed: u64, mode: TsMode) -> Ran {
    // A TO data type, so the timestamp discipline (the whole point of
    // ⊗ vs ⊗ts) is visible in the recorded history bytes.
    let cluster = MultiCluster::new(LwwRegister::<u8>::new(), 32, sc.cfg.n_replicas, mode);
    let mut driver = MultiDriver::new(cluster, |rng: &mut Rng, _, _obj: ObjId, _| {
        Some(workloads::lww_register(rng))
    });
    let (run, trace) = E::enter(&mut driver, &sc.cfg, seed);
    assert!(driver.converged(), "{}: no convergence", sc.name);
    let history = format!("{:?}", driver.into_cluster().into_history());
    (run, (trace, history.into_bytes()))
}

fn multi_run<E: Entry>(sc: &Scenario, seed: u64) -> Ran {
    multi_run_mode::<E>(sc, seed, TsMode::Shared)
}

/// The cluster kind each corpus scenario most stresses, entered by `E`.
fn runner_for<E: Entry>(name: &str) -> fn(&Scenario, u64) -> Ran {
    match name {
        // Reliable causal broadcast through geo latency, partitions, and
        // the tight LAN the streaming monitor rides…
        "geo_3dc" | "split_brain_heal" | "lan_tight" => op_run::<E>,
        // …lossy gossip through faults, restarts, and the big mesh…
        "flaky_wan" | "rolling_restart" | "gossip_50" => state_run::<E>,
        // …the delta transport through its own stress scenario…
        "delta_wan" => delta_run::<E>,
        // …and the composed cluster through the 50×32 object mix.
        "multi_mix" => multi_run::<E>,
        other => panic!("unknown scenario {other}"),
    }
}

/// The bytes of a run through [`sim::replay`] (`runner_for::<Replay>`).
fn replayed(name: &str) -> impl Fn(&Scenario, u64) -> RunBytes {
    let runner = runner_for::<Replay>(name);
    move |sc, seed| runner(sc, seed).1
}

/// Every named scenario, each through the cluster kind it most stresses;
/// byte-identical reruns for several seeds, and distinct seeds distinct.
#[test]
fn every_corpus_scenario_is_byte_deterministic() {
    for sc in scenario::all() {
        let runner = replayed(sc.name);
        for seed in [0u64, 42] {
            let (trace_a, hist_a) = runner(&sc, seed);
            let (trace_b, hist_b) = runner(&sc, seed);
            assert_eq!(trace_a, trace_b, "{}: trace differs, seed {seed}", sc.name);
            assert_eq!(hist_a, hist_b, "{}: history differs, seed {seed}", sc.name);
            assert!(!trace_a.is_empty(), "{}: empty trace", sc.name);
        }
        let (trace_1, _) = runner(&sc, 1);
        let (trace_2, _) = runner(&sc, 2);
        assert_ne!(
            trace_1, trace_2,
            "{}: different seeds should explore different runs",
            sc.name
        );
    }
}

/// FNV-1a of `bytes`: enough to pin a rendering without embedding it.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// The golden lines of one driver: one per corpus scenario × seed, holding
/// the FNV-1a of the rendered trace and of the `Debug` history.
fn golden_lines(driver: &str, runner: fn(&Scenario, u64) -> Ran) -> Vec<String> {
    let mut out = Vec::new();
    for sc in scenario::all() {
        for seed in [1u64, 7, 1000] {
            let (_, (trace, history)) = runner(&sc, seed);
            out.push(format!(
                "{driver} {} seed={seed} trace={:016x} history={:016x}",
                sc.name,
                fnv(&trace),
                fnv(&history)
            ));
        }
    }
    out
}

/// Every corpus scenario through `driver` matches the runs recorded in
/// `tests/golden/sim_traces.txt`. The reruns above compare a run only with
/// itself, so a reordering that is merely self-consistent — a different
/// tie-break in the event queue, a trace record that renders differently —
/// passes them and fails here.
fn assert_golden(driver: &str, runner: fn(&Scenario, u64) -> Ran) {
    let want: Vec<&str> = include_str!("golden/sim_traces.txt")
        .lines()
        .filter(|l| l.split(' ').next() == Some(driver))
        .collect();
    let got = golden_lines(driver, runner);
    assert_eq!(
        want.len(),
        got.len(),
        "tests/golden/sim_traces.txt covers other {driver} runs; these are:\n{}",
        got.join("\n")
    );
    for (w, g) in want.iter().zip(&got) {
        assert_eq!(w, g, "run drifted from tests/golden/sim_traces.txt");
    }
}

#[test]
fn op_driver_runs_match_their_golden_hashes() {
    assert_golden("op", op_run::<Replay>);
}

#[test]
fn state_driver_runs_match_their_golden_hashes() {
    assert_golden("state", state_run::<Replay>);
}

#[test]
fn delta_driver_runs_match_their_golden_hashes() {
    assert_golden("delta", delta_run::<Replay>);
}

#[test]
fn multi_driver_runs_match_their_golden_hashes() {
    assert_golden("multi", multi_run::<Replay>);
}

/// Both cluster kinds over the *same* scenario must be independently
/// deterministic (they consume randomness differently).
#[test]
fn op_and_state_runs_are_independently_deterministic() {
    let sc = scenario::flaky_wan();
    assert_eq!(op_run::<Replay>(&sc, 9).1 .0, op_run::<Replay>(&sc, 9).1 .0);
    assert_eq!(
        state_run::<Replay>(&sc, 9).1 .0,
        state_run::<Replay>(&sc, 9).1 .0
    );
    // The two transports see the same scenario differently: reliable links
    // ignore drop/duplication, so the traces must *not* coincide.
    assert_ne!(
        op_run::<Replay>(&sc, 9).1 .0,
        state_run::<Replay>(&sc, 9).1 .0
    );
}

/// `multi_mix` under the *per-object* timestamp discipline (`⊗`): the
/// other half of the composed-object contract — the corpus loop covers
/// the shared generator (`⊗ts`), this covers independent clocks.
#[test]
fn multi_mix_per_object_mode_is_byte_deterministic() {
    let sc = scenario::by_name("multi_mix").unwrap();
    let (_, (trace_a, hist_a)) = multi_run_mode::<Replay>(&sc, 3, TsMode::PerObject);
    let (_, (trace_b, hist_b)) = multi_run_mode::<Replay>(&sc, 3, TsMode::PerObject);
    assert_eq!(trace_a, trace_b, "multi_mix ⊗: trace differs");
    assert_eq!(hist_a, hist_b, "multi_mix ⊗: history differs");
    // The timestamp discipline feeds generated timestamps back into the
    // recorded history, so the two modes must not coincide.
    let (_, (_, hist_shared)) = multi_run_mode::<Replay>(&sc, 3, TsMode::Shared);
    assert_ne!(hist_a, hist_shared, "⊗ and ⊗ts must differ in histories");
}

/// The composed cluster kind (`⊗ts`) is deterministic under simulation too.
#[test]
fn multi_cluster_scenario_is_byte_deterministic() {
    let run = |seed: u64| -> RunBytes {
        let sc = scenario::split_brain_heal();
        let cluster = MultiCluster::new(OpCounter, 2, sc.cfg.n_replicas, TsMode::Shared);
        let mut driver = MultiDriver::new(cluster, |rng: &mut Rng, _, _obj: ObjId, _| {
            Some(workloads::counter(rng))
        });
        let (_, trace) = sim::replay(&mut driver, &sc.cfg, seed);
        assert!(driver.converged());
        (
            trace.render().into_bytes(),
            format!("{:?}", driver.into_cluster().into_history()).into_bytes(),
        )
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

/// Observability is inert under simulation: every corpus scenario
/// replays byte-identically — trace and history — with recording on.
/// This is the obs layer's non-negotiable contract: spans and counters
/// observe the run, they never steer it.
#[test]
fn obs_recording_leaves_every_scenario_byte_identical() {
    for sc in scenario::all() {
        let runner = replayed(sc.name);
        let off = runner(&sc, 7);
        ral_obs::reset();
        ral_obs::enable(None);
        let on = runner(&sc, 7);
        ral_obs::disable();
        ral_obs::reset();
        assert_eq!(off.0, on.0, "{}: recording changed the trace", sc.name);
        assert_eq!(off.1, on.1, "{}: recording changed the history", sc.name);
    }
}

/// Recording never steers a run: every corpus scenario, through its
/// runner on fresh drivers, gives the same statistics, the same end and
/// the same `Debug` history through [`sim::run`], which records nothing,
/// as through [`sim::replay`], which records the trace the golden hashes
/// pin. The pipeline and every harness take the first; the golden pins
/// the second.
#[test]
fn run_and_replay_are_the_same_run() {
    for sc in scenario::all() {
        for seed in [7u64, 1000] {
            let (run, (none, history)) = runner_for::<Run>(sc.name)(&sc, seed);
            let (replay, (trace, replay_history)) = runner_for::<Replay>(sc.name)(&sc, seed);
            let at = format!("{} seed {seed}", sc.name);
            assert!(none.is_empty() && !trace.is_empty(), "{at}");
            assert_eq!(run.stats, replay.stats, "{at}: SimStats");
            assert_eq!(run.end, replay.end, "{at}: end");
            assert_eq!(history, replay_history, "{at}: history");
        }
    }
}

/// Corpus-registration guard: every `Scenario` constructor `ral-sim`
/// exports is listed in [`scenario::CONSTRUCTOR_NAMES`], reachable by
/// name, present in `all()`, and wired to a runner in this suite. A new
/// constructor that is not registered fails the in-crate scraping test
/// (`every_constructor_is_registered`); one that is registered but has no
/// runner panics here — either way, adding a scenario without putting it
/// under the determinism contract is a CI failure.
#[test]
fn corpus_table_and_runners_cover_every_constructor() {
    let all = scenario::all();
    assert_eq!(
        all.len(),
        scenario::CONSTRUCTOR_NAMES.len(),
        "corpus and constructor table disagree on size"
    );
    for name in scenario::CONSTRUCTOR_NAMES {
        let sc = scenario::by_name(name)
            .unwrap_or_else(|| panic!("{name}: in CONSTRUCTOR_NAMES but not by_name"));
        assert!(
            all.iter().any(|s| s.name == name),
            "{name}: in CONSTRUCTOR_NAMES but not in all()"
        );
        // `runner_for` panics on an unregistered name; one short run proves
        // the pairing actually executes.
        let (trace, history) = replayed(name)(&sc, 11);
        assert!(!trace.is_empty(), "{name}: empty trace");
        assert!(!history.is_empty(), "{name}: empty history");
    }
}

/// Crash/restart bookkeeping is part of the determinism contract: the
/// rolling restart fires exactly its scheduled crashes, every time.
#[test]
fn rolling_restart_fires_its_schedule() {
    let sc = scenario::rolling_restart();
    let mut driver = StateDriver::new(
        LwwElementSet::<u8>::new(),
        sc.cfg.n_replicas,
        |rng: &mut Rng, _, _| Some(workloads::lww_element_set(rng)),
    );
    let (_, trace) = sim::replay(&mut driver, &sc.cfg, 3);
    assert!(driver.converged());
    let text = trace.render();
    let crashes = text.lines().filter(|l| l.contains("Crash")).count();
    let restarts = text.lines().filter(|l| l.contains("Restart")).count();
    assert_eq!(crashes, 6, "one crash per replica");
    assert_eq!(restarts, 6, "one restart per replica");
}
