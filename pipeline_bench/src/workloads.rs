//! The six workloads: how a case is built from the seed, and how one case
//! runs verified, unverified and traced.
//!
//! A *case* is one `(SimConfig, seed)` pair taken from scenario to
//! checked verdict. Every workload has [`CASES`] of them, their seeds drawn
//! from a generator seeded with `--seed`. The shapes come from the `ral-sim` corpus and the
//! `monitor_streaming` bench, scaled so that one round over all cases
//! takes a few seconds; PIPELINE.md says why each exists and what it must
//! not show.
//!
//! Three ways to run a case:
//!
//! * **verified** — the path a user runs: the real drivers, the real
//!   [`MonitoredDriver`], the real `ra_search*` facades and `ral-verify`
//!   checks. Timed as one interval from driver construction to verdict.
//! * **unverified** — the same scenario through `ral-sim` and
//!   `ral-runtime` only: no monitor, no search, no law check.
//! * **traced** — verified, through the timed adapters of
//!   [`crate::timed`], yielding a [`CaseTrace`].
//!
//! Each returns the case's [`Counts`]; they are pure functions of the
//! case, and the runner requires them to repeat exactly.

use crate::kernel::now;
use crate::timed::{BenchMonitored, Probe, Timed};
use ral_core::compose::{MultiObjRewrite, MultiObjSpec, ObjLabel};
use ral_core::history::{rewrite_history, History};
use ral_core::ids::{ObjId, ReplicaId};
use ral_core::label::{Identity, SpecLabel};
use ral_core::ralin::{
    check_linearization, monitor_history, ra_search_sharded_with_budget, ra_search_with_budget,
    MonitorStats, SearchOutcome, Verdict,
};
use ral_core::rng::Rng;
use ral_core::spec::Spec;
use ral_crdts::op::counter::OpCounter;
use ral_crdts::op::rga::Rga;
use ral_crdts::state::lww_element_set::LwwElementSet;
use ral_runtime::delta::{DeltaConfig, DeltaCrdt};
use ral_runtime::multi::{MultiCluster, TsMode};
use ral_runtime::op_based::OpBased;
use ral_sim::driver::{DeltaDriver, Driver, MultiDriver, OpDriver, StateDriver};
use ral_sim::fault::{CrashPlan, FaultPlan, PartitionWindow};
use ral_sim::network::{Latency, LinkFaults, Network, Topology};
use ral_sim::sim::{self, SimConfig, SimStats};
use ral_sim::time::SimTime;
use ral_sim::{scenario, MonitoredDriver};
use ral_spec::counter::{CounterOp, CounterSpec};
use ral_spec::rga::{RgaOp, RgaSpec};
use ral_verify::workloads as calls;
use std::fmt::Debug;

/// Cases per workload: a hundred, so that ten lie beyond `case_ru_p90`.
pub const CASES: usize = 100;

/// Node budget of the `ra_search_with_budget` facade calls.
const SEARCH_BUDGET: u64 = 2_000_000;
/// Node budget (per shard) of the sharded facade calls.
const SHARDED_BUDGET: u64 = 5_000_000;
/// Objects composed in `batch_composed`.
const OBJECTS: usize = 32;
/// The convergence gate's failure.
const DIVERGED: &str = "replicas diverged after the final sync";

/// The workloads, in `BENCHMARK.json` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Streaming monitor under recurring short partitions; counter.
    LiveChurn,
    /// Streaming monitor with a tiny window on fifty replicas; counter.
    LiveFanout,
    /// Streaming monitor over a growing RGA document.
    LiveDoc,
    /// Batch facade (closure + `memo` fallback) on split-brain histories.
    BatchWide,
    /// Composed objects on fifty replicas, sharded search.
    BatchComposed,
    /// Lossy gossip: full-state and delta transport on one scenario.
    GossipLossy,
}

/// One `(config, seed)` pair.
#[derive(Clone, Debug)]
pub struct Case {
    /// The scenario.
    pub cfg: SimConfig,
    /// The simulation seed.
    pub seed: u64,
    /// Timestamp discipline (`batch_composed` alternates; unused elsewhere).
    pub mode: TsMode,
}

/// Everything a case execution counts. A pure function of the case: the
/// runner fails the run if two executions of one case disagree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Operations in the recorded history (both runs of `gossip_lossy`).
    pub ops: u64,
    /// `SimStats::events`, summed over the case's simulations.
    pub events: u64,
    /// `SimStats::sends`.
    pub sends: u64,
    /// `SimStats::applied`.
    pub applied: u64,
    /// `SimStats::dropped`.
    pub dropped: u64,
    /// `SimStats::held`.
    pub held: u64,
    /// `SimStats::retried`.
    pub retried: u64,
    /// Wire bytes of the full-state run (`gossip_lossy` only).
    pub state_bytes: u64,
    /// Wire bytes of the delta run (`gossip_lossy` only).
    pub delta_bytes: u64,
    /// The case ended `Exhausted` / `BudgetExhausted`.
    pub undecided: bool,
    /// The streaming monitor's counters (live workloads only).
    pub monitor: Option<MonitorStats>,
}

impl Counts {
    fn add_sim(&mut self, s: &SimStats) {
        self.events += s.events as u64;
        self.sends += s.sends as u64;
        self.applied += s.applied as u64;
        self.dropped += s.dropped as u64;
        self.held += s.held as u64;
        self.retried += s.retried as u64;
    }
}

/// One timed execution.
pub struct Run {
    /// Driver construction to verdict, nanoseconds.
    pub ns: u64,
    /// What it counted.
    pub counts: Counts,
}

/// Checker-side counts of a traced case (reported, never pinned: the
/// parallel engines' exploration counters may differ between runs).
#[derive(Clone, Debug, Default)]
pub struct SearchCounts {
    /// `ralin.nodes_expanded`.
    pub nodes: u64,
    /// `ralin.memo_hits`.
    pub memo_hits: u64,
    /// `monitor.batch_fallback`: closure overran, `memo` decided.
    pub fallbacks: u64,
    /// `ralin.shards`.
    pub shards: u64,
    /// `ralin.fallback`: stitch failed, whole-history search decided.
    pub stitch_fallbacks: u64,
}

impl SearchCounts {
    /// Adds `other`'s counts.
    pub fn add(&mut self, other: &SearchCounts) {
        self.nodes += other.nodes;
        self.memo_hits += other.memo_hits;
        self.fallbacks += other.fallbacks;
        self.shards += other.shards;
        self.stitch_fallbacks += other.stitch_fallbacks;
    }
}

/// A `sim::run` interval of a traced case with what its adapters recorded.
pub struct SimSpan {
    /// `"sim.run"`, or `"sim.run.state"` / `"sim.run.delta"`.
    pub name: &'static str,
    /// Start, nanoseconds on the bench clock.
    pub start: u64,
    /// End.
    pub end: u64,
    /// Per-event aggregates of the driver and monitor calls inside.
    pub probe: Probe,
}

/// The spans of one traced case execution.
pub struct CaseTrace {
    /// Case start (driver construction).
    pub start: u64,
    /// Verdict reached.
    pub end: u64,
    /// The simulations, in order.
    pub sims: Vec<SimSpan>,
    /// `(name, start, end)` of the `search` / `sharded` / `verify` stage.
    pub stage: Option<(&'static str, u64, u64)>,
    /// Checker-side counts of that stage.
    pub search: SearchCounts,
}

/// A traced execution: the counts and the spans.
pub struct TracedRun {
    /// What it counted (must equal the verified run's).
    pub counts: Counts,
    /// Its spans.
    pub trace: CaseTrace,
}

/// The scenario fingerprint of a workload: counts of its first case at
/// seed 1000, which no performance change may move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Operations recorded.
    pub ops: u64,
    /// Simulator events.
    pub events: u64,
    /// Messages applied by the runtime.
    pub applied: u64,
    /// Payload bytes put on links (both transports; 0 without a size model).
    pub payload_bytes: u64,
}

/// Seed at which the [`Fingerprint`]s are pinned.
pub const FINGERPRINT_SEED: u64 = 1000;

// ---------------------------------------------------------------------
// Scenario shapes
// ---------------------------------------------------------------------

/// The `monitor_streaming` churn shape: four replicas on a 1–2-tick LAN
/// with a 2|2 partition (rolling through three splits) every 3000 ticks.
/// The partition lasts 45 ticks, not the bench's 60: at 60, one case in
/// three thousand grows past the monitor's 2¹⁴ live-configuration cap and
/// ends `Exhausted`; at 45 the widest of ten thousand cases peaks at 1599
/// configurations, and the monitor still does 70 % of the work.
fn churn_config(duration: u64) -> SimConfig {
    let splits = [vec![0u32, 0, 1, 1], vec![0, 1, 0, 1], vec![0, 1, 1, 0]];
    let mut partitions = Vec::new();
    let mut start = 1_000;
    while start + 45 < duration {
        partitions.push(PartitionWindow::new(
            SimTime(start),
            SimTime(start + 45),
            splits[partitions.len() % splits.len()].clone(),
        ));
        start += 3_000;
    }
    SimConfig {
        n_replicas: 4,
        duration: SimTime(duration),
        invoke_every: Latency::jittered(25, 30),
        gossip_every: Latency::jittered(20, 25),
        network: Network {
            topology: Topology::Uniform(Latency::jittered(1, 2)),
            faults: LinkFaults::NONE,
            retry: 10,
        },
        faults: FaultPlan {
            partitions,
            crashes: vec![],
        },
        final_sync: true,
    }
}

/// Fifty replicas, each invoking every 2000–4000 ticks over 1–2-tick
/// links: every operation reaches 49 peers before the next is invoked.
fn fanout_config(duration: u64) -> SimConfig {
    SimConfig {
        n_replicas: 50,
        duration: SimTime(duration),
        invoke_every: Latency::jittered(2_000, 2_000),
        gossip_every: Latency::jittered(20, 25),
        network: Network {
            topology: Topology::Uniform(Latency::jittered(1, 2)),
            faults: LinkFaults::NONE,
            retry: 10,
        },
        faults: FaultPlan::none(),
        final_sync: true,
    }
}

/// Scales every instant of `cfg` (duration, partition windows, crash
/// plans) by `num / den`; rates and latencies are kept.
fn scale_time(mut cfg: SimConfig, num: u64, den: u64) -> SimConfig {
    let f = |t: SimTime| SimTime(t.0 * num / den);
    cfg.duration = f(cfg.duration);
    for w in &mut cfg.faults.partitions {
        w.start = f(w.start);
        w.end = f(w.end);
    }
    for c in &mut cfg.faults.crashes {
        *c = CrashPlan {
            crash_at: f(c.crash_at),
            restart_at: c.restart_at.map(f),
            ..*c
        };
    }
    cfg
}

/// `split_brain_heal` at a third of its length, with metronome clients
/// (one invocation per replica every 40 ticks) on a 3–5-tick LAN. The
/// fixed cadence keeps the closure's cost within ±15 % from seed to seed;
/// with the corpus's 25–55-tick jitter it spreads over a factor of
/// twenty, and no number of cases a run can afford averages that out.
fn wide_config() -> SimConfig {
    let mut cfg = scale_time(scenario::split_brain_heal().cfg, 1, 3);
    cfg.invoke_every = Latency::fixed(40);
    cfg.network.topology = Topology::Uniform(Latency::jittered(3, 2));
    cfg
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 6] = [
        Kind::LiveChurn,
        Kind::LiveFanout,
        Kind::LiveDoc,
        Kind::BatchWide,
        Kind::BatchComposed,
        Kind::GossipLossy,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::LiveChurn => "live_churn",
            Kind::LiveFanout => "live_fanout",
            Kind::LiveDoc => "live_doc",
            Kind::BatchWide => "batch_wide",
            Kind::BatchComposed => "batch_composed",
            Kind::GossipLossy => "gossip_lossy",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn config(self) -> SimConfig {
        match self {
            Kind::LiveChurn => churn_config(30_000),
            Kind::LiveFanout => fanout_config(60_000),
            Kind::LiveDoc => churn_config(6_000),
            Kind::BatchWide => wide_config(),
            Kind::BatchComposed => scale_time(scenario::multi_mix().cfg, 1, 3),
            Kind::GossipLossy => scale_time(scenario::delta_wan().cfg, 3, 4),
        }
    }

    /// The first `n` cases of the workload's list for `seed`.
    ///
    /// Case seeds are drawn from a generator seeded with `seed`, so that
    /// two base seeds share no case (with `seed + i`, neighbouring base
    /// seeds would share all but one).
    pub fn cases(self, seed: u64, n: usize) -> Vec<Case> {
        let mut stream = Rng::seed_from_u64(seed);
        (0..n)
            .map(|i| Case {
                cfg: self.config(),
                seed: stream.next_u64(),
                mode: if i % 2 == 0 {
                    TsMode::Shared
                } else {
                    TsMode::PerObject
                },
            })
            .collect()
    }

    /// The pinned scenario fingerprint (first case at
    /// [`FINGERPRINT_SEED`]).
    pub fn fingerprint(self) -> Fingerprint {
        let (ops, events, applied, payload_bytes) = match self {
            Kind::LiveChurn => (2_993, 12_255, 8_979, 0),
            Kind::LiveFanout => (970, 48_500, 47_530, 0),
            Kind::LiveDoc => (594, 2_445, 1_782, 0),
            Kind::BatchWide => (84, 1_641, 420, 0),
            Kind::BatchComposed => (644, 40_580, 30_381, 0),
            Kind::GossipLossy => (472, 4_626, 1_981, 1_953_691),
        };
        Fingerprint {
            ops,
            events,
            applied,
            payload_bytes,
        }
    }

    /// Runs `case` the way a user would, timed from driver construction
    /// to verdict, then applies the correctness gate.
    ///
    /// # Errors
    ///
    /// A wrong verdict, a divergence, an invalid witness or a failed law.
    pub fn verified(self, case: &Case) -> Result<Run, String> {
        match self {
            Kind::LiveChurn | Kind::LiveFanout => live_verified::<CounterFam>(case),
            Kind::LiveDoc => live_verified::<RgaFam>(case),
            Kind::BatchWide => wide_run(case, Mode::Verified).map(|t| t.0),
            Kind::BatchComposed => composed_run(case, Mode::Verified).map(|t| t.0),
            Kind::GossipLossy => gossip_run(case, Mode::Verified).map(|t| t.0),
        }
    }

    /// Runs `case` through `ral-sim` and `ral-runtime` only.
    ///
    /// # Errors
    ///
    /// A divergence after the final sync.
    pub fn unverified(self, case: &Case) -> Result<Run, String> {
        match self {
            Kind::LiveChurn | Kind::LiveFanout | Kind::BatchWide => {
                plain_run::<CounterFam>(case).map(|t| t.0)
            }
            Kind::LiveDoc => plain_run::<RgaFam>(case).map(|t| t.0),
            Kind::BatchComposed => composed_run(case, Mode::Unverified).map(|t| t.0),
            Kind::GossipLossy => gossip_run(case, Mode::Unverified).map(|t| t.0),
        }
    }

    /// Runs `case` verified through the timed adapters.
    ///
    /// # Errors
    ///
    /// As [`Kind::verified`].
    pub fn traced(self, case: &Case) -> Result<TracedRun, String> {
        let (run, trace) = match self {
            Kind::LiveChurn | Kind::LiveFanout => return live_traced::<CounterFam>(case),
            Kind::LiveDoc => return live_traced::<RgaFam>(case),
            Kind::BatchWide => wide_run(case, Mode::Traced)?,
            Kind::BatchComposed => composed_run(case, Mode::Traced)?,
            Kind::GossipLossy => gossip_run(case, Mode::Traced)?,
        };
        Ok(TracedRun {
            counts: run.counts,
            trace: trace.expect("a traced run yields a trace"),
        })
    }

    /// The set-up checks beyond the per-case gate: the scenario
    /// fingerprint, a negative control (one read's return value tampered
    /// must be rejected by the monitor and by the facade), and two live
    /// cases cross-checked against `ra_search_with_budget`. They run on
    /// the cases of [`FINGERPRINT_SEED`] whatever `--seed` is, so that
    /// `setup_s` does not depend on the seed; negative-control and
    /// cross-check histories are taken at a tenth of the case length so
    /// the batch search decides them in milliseconds.
    ///
    /// # Errors
    ///
    /// A moved fingerprint, an accepted tampered history, or a
    /// disagreement between the monitor and the batch search.
    pub fn setup_checks(self) -> Result<(), String> {
        let cases = self.cases(FINGERPRINT_SEED, 2);
        let counts = self.unverified(&cases[0])?.counts;
        let got = Fingerprint {
            ops: counts.ops,
            events: counts.events,
            applied: counts.applied,
            payload_bytes: counts.state_bytes + counts.delta_bytes,
        };
        if got != self.fingerprint() {
            return Err(format!(
                "scenario fingerprint moved: pinned {:?}, got {got:?}",
                self.fingerprint()
            ));
        }
        let short = |c: &Case| Case {
            cfg: scale_time(c.cfg.clone(), 1, 10),
            ..c.clone()
        };
        match self {
            Kind::LiveChurn | Kind::LiveFanout => {
                negative_control::<CounterFam>(&short(&cases[0]))?;
                cases
                    .iter()
                    .try_for_each(|c| cross_check::<CounterFam>(&short(c)))
            }
            Kind::LiveDoc => {
                negative_control::<RgaFam>(&short(&cases[0]))?;
                cases
                    .iter()
                    .try_for_each(|c| cross_check::<RgaFam>(&short(c)))
            }
            Kind::BatchWide => negative_control::<CounterFam>(&cases[0]),
            Kind::BatchComposed => composed_negative_control(&short(&cases[0])),
            // No checker in the loop: the per-case gate (convergence, laws,
            // state ≡ delta, delta bytes < state bytes) is the whole check.
            Kind::GossipLossy => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------
// Data-type families
// ---------------------------------------------------------------------

/// An op-based data type with its specification and client workload.
trait Family {
    type Crdt: OpBased<Label = Self::Label>;
    type Label: SpecLabel + Clone + Debug + Sync;
    type Spec: Spec<Label = Self::Label> + Sync;

    fn crdt() -> Self::Crdt;
    fn spec() -> Self::Spec;
    fn calls() -> impl FnMut(
        &mut Rng,
        ReplicaId,
        &<Self::Crdt as OpBased>::State,
    ) -> Option<<Self::Crdt as OpBased>::Call>;
    /// `label` with an impossible return value, if it is a read.
    fn tamper(label: &Self::Label) -> Option<Self::Label>;
}

struct CounterFam;

impl Family for CounterFam {
    type Crdt = OpCounter;
    type Label = CounterOp;
    type Spec = CounterSpec;

    fn crdt() -> OpCounter {
        OpCounter
    }
    fn spec() -> CounterSpec {
        CounterSpec
    }
    fn calls(
    ) -> impl FnMut(&mut Rng, ReplicaId, &i64) -> Option<ral_crdts::op::counter::CounterCall> {
        |rng: &mut Rng, _, _| Some(calls::counter(rng))
    }
    fn tamper(label: &CounterOp) -> Option<CounterOp> {
        match label {
            // No history here has a million operations.
            CounterOp::Read(v) => Some(CounterOp::Read(v + 1_000_000)),
            _ => None,
        }
    }
}

struct RgaFam;

impl Family for RgaFam {
    type Crdt = Rga<u16>;
    type Label = RgaOp<u16>;
    type Spec = RgaSpec<u16>;

    fn crdt() -> Rga<u16> {
        Rga::new()
    }
    fn spec() -> RgaSpec<u16> {
        RgaSpec::new()
    }
    fn calls() -> impl FnMut(
        &mut Rng,
        ReplicaId,
        &ral_crdts::op::rga::RgaState<u16>,
    ) -> Option<ral_crdts::op::rga::RgaCall<u16>> {
        let mut next = 0u16;
        move |rng: &mut Rng, _, state| calls::rga(rng, state, &mut next)
    }
    fn tamper(label: &RgaOp<u16>) -> Option<RgaOp<u16>> {
        match label {
            RgaOp::Read(list) => {
                // Element names count up from 1; this one is never added.
                let mut list = list.clone();
                list.push(u16::MAX);
                Some(RgaOp::Read(list))
            }
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// Live workloads
// ---------------------------------------------------------------------

/// The live gate: accepted, fully settled, window collapsed.
fn live_gate(verdict: Verdict, stats: &MonitorStats, ops: usize) -> Result<bool, String> {
    match verdict {
        Verdict::Exhausted => return Ok(true),
        Verdict::Ok => {}
        v => return Err(format!("monitored run of {ops} ops ended {v:?}")),
    }
    if stats.settled != stats.ops || stats.live_window != 0 {
        return Err(format!(
            "final sync left {} of {} ops unsettled (live window {})",
            stats.ops - stats.settled,
            stats.ops,
            stats.live_window
        ));
    }
    Ok(false)
}

fn live_counts(sim: &SimStats, ops: usize, undecided: bool, stats: &MonitorStats) -> Counts {
    let mut counts = Counts {
        ops: ops as u64,
        undecided,
        monitor: Some(stats.clone()),
        ..Counts::default()
    };
    counts.add_sim(sim);
    counts
}

fn live_verified<Fm: Family>(case: &Case) -> Result<Run, String> {
    let t0 = now();
    let inner = OpDriver::new(Fm::crdt(), case.cfg.n_replicas, Fm::calls());
    let mut driver = MonitoredDriver::new(inner, Identity, Fm::spec());
    let run = sim::run(&mut driver, &case.cfg, case.seed);
    let verdict = driver.verdict();
    let ns = now() - t0;
    let ops = driver.cluster().history().len();
    if !driver.converged() {
        return Err(DIVERGED.into());
    }
    let undecided = live_gate(verdict, driver.stats(), ops)?;
    Ok(Run {
        ns,
        counts: live_counts(&run.stats, ops, undecided, driver.stats()),
    })
}

fn live_traced<Fm: Family>(case: &Case) -> Result<TracedRun, String> {
    let start = now();
    let inner = OpDriver::new(Fm::crdt(), case.cfg.n_replicas, Fm::calls());
    let mut driver = BenchMonitored::new(inner, Identity, Fm::spec());
    let s0 = now();
    let run = sim::run(&mut driver, &case.cfg, case.seed);
    let s1 = now();
    let verdict = driver.verdict();
    let end = now();
    let ops = driver.cluster().history().len();
    if !driver.converged() {
        return Err(DIVERGED.into());
    }
    let undecided = live_gate(verdict, driver.stats(), ops)?;
    Ok(TracedRun {
        counts: live_counts(&run.stats, ops, undecided, driver.stats()),
        trace: CaseTrace {
            start,
            end,
            sims: vec![SimSpan {
                name: "sim.run",
                start: s0,
                end: s1,
                probe: driver.probe().clone(),
            }],
            stage: None,
            search: SearchCounts::default(),
        },
    })
}

/// An op-based run with no checker: the unverified side of the live
/// workloads and of `batch_wide`. Also returns the history.
fn plain_run<Fm: Family>(case: &Case) -> Result<(Run, History<Fm::Label>), String> {
    let t0 = now();
    let mut driver = OpDriver::new(Fm::crdt(), case.cfg.n_replicas, Fm::calls());
    let run = sim::run(&mut driver, &case.cfg, case.seed);
    let ns = now() - t0;
    if !driver.converged() {
        return Err(DIVERGED.into());
    }
    let history = driver.into_cluster().into_history();
    let mut counts = Counts {
        ops: history.len() as u64,
        ..Counts::default()
    };
    counts.add_sim(&run.stats);
    Ok((Run { ns, counts }, history))
}

/// `h` with the return value of its last read made impossible; `tamper`
/// yields the tampered label of a read and `None` for anything else.
fn tamper_last_read<L>(
    h: History<L>,
    tamper: impl Fn(&L) -> Option<L>,
) -> Result<History<L>, String> {
    let target = (0..h.len())
        .rev()
        .find(|&i| tamper(h.label(i)).is_some())
        .ok_or("negative control: the history has no read to tamper with")?;
    let mut i = 0;
    Ok(h.map(|label| {
        i += 1;
        if i - 1 == target {
            tamper(&label).expect("target is a read")
        } else {
            label
        }
    }))
}

fn negative_control<Fm: Family>(case: &Case) -> Result<(), String> {
    let bad = tamper_last_read(plain_run::<Fm>(case)?.1, Fm::tamper)?;
    let (verdict, _) = monitor_history(&bad, &Identity, Fm::spec());
    if verdict == Verdict::Ok {
        return Err("negative control: the monitor accepted a tampered read".into());
    }
    match ra_search_with_budget(&bad, &Identity, &Fm::spec(), SEARCH_BUDGET) {
        SearchOutcome::NotLinearizable => Ok(()),
        out => Err(format!(
            "negative control: the facade did not refute a tampered read ({out:?})"
        )),
    }
}

fn cross_check<Fm: Family>(case: &Case) -> Result<(), String> {
    let inner = OpDriver::new(Fm::crdt(), case.cfg.n_replicas, Fm::calls());
    let mut driver = MonitoredDriver::new(inner, Identity, Fm::spec());
    sim::run(&mut driver, &case.cfg, case.seed);
    let verdict = driver.verdict();
    let history = driver.into_inner().into_cluster().into_history();
    let batch = ra_search_with_budget(&history, &Identity, &Fm::spec(), SEARCH_BUDGET);
    if verdict == Verdict::Ok && batch.is_linearizable() {
        Ok(())
    } else {
        Err(format!(
            "cross-check: monitor says {verdict:?}, batch search says {batch:?} on {} ops",
            history.len()
        ))
    }
}

// ---------------------------------------------------------------------
// Batch workloads
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Verified,
    Unverified,
    Traced,
}

/// Runs `driver` through the case, timed adapter or not, and returns the
/// driver back with the statistics and the `sim::run` interval.
fn run_sim<D: Driver>(
    driver: D,
    case: &Case,
    traced: bool,
    name: &'static str,
) -> (D, SimStats, SimSpan) {
    if traced {
        let mut timed = Timed::new(driver);
        let start = now();
        let run = sim::run(&mut timed, &case.cfg, case.seed);
        let end = now();
        let (driver, probe) = timed.into_parts();
        let span = SimSpan {
            name,
            start,
            end,
            probe,
        };
        (driver, run.stats, span)
    } else {
        let mut driver = driver;
        let start = now();
        let run = sim::run(&mut driver, &case.cfg, case.seed);
        let span = SimSpan {
            name,
            start,
            end: now(),
            probe: Probe::default(),
        };
        (driver, run.stats, span)
    }
}

/// Runs `search`; when `traced`, with `ral-obs` recording on, and reads
/// the checker-side counters it emitted.
fn with_search_counts<T>(traced: bool, search: impl FnOnce() -> T) -> (T, SearchCounts) {
    if !traced {
        return (search(), SearchCounts::default());
    }
    ral_obs::reset();
    ral_obs::enable(None);
    let out = search();
    ral_obs::disable();
    let snap = ral_obs::drain();
    let counts = SearchCounts {
        nodes: snap.counter_total("ralin.nodes_expanded"),
        memo_hits: snap.counter_total("ralin.memo_hits"),
        fallbacks: snap.counter_total("monitor.batch_fallback"),
        shards: snap.counter_total("ralin.shards"),
        stitch_fallbacks: snap.counter_total("ralin.fallback"),
    };
    (out, counts)
}

/// The batch gate: decided, linearizable, and the witness validates
/// against the rewritten history.
fn batch_gate<L, S>(outcome: &SearchOutcome, h: &History<L>, spec: &S) -> Result<bool, String>
where
    S: Spec<Label = L>,
{
    match outcome {
        SearchOutcome::BudgetExhausted => Ok(true),
        SearchOutcome::NotLinearizable => Err(format!(
            "history of {} ops admits no RA-linearization",
            h.len()
        )),
        SearchOutcome::Linearizable(lin) => check_linearization(h, spec, &lin.order)
            .map(|()| false)
            .map_err(|v| format!("the search returned an invalid witness: {v:?}")),
    }
}

fn wide_run(case: &Case, mode: Mode) -> Result<(Run, Option<CaseTrace>), String> {
    let traced = mode == Mode::Traced;
    let start = now();
    let driver = OpDriver::new(OpCounter, case.cfg.n_replicas, CounterFam::calls());
    let (driver, stats, sim_span) = run_sim(driver, case, traced, "sim.run");
    if !driver.converged() {
        return Err(DIVERGED.into());
    }
    let history = driver.into_cluster().into_history();
    let search = || ra_search_with_budget(&history, &Identity, &CounterSpec, SEARCH_BUDGET);
    let q0 = now();
    let (outcome, search_counts) = with_search_counts(traced, search);
    let end = now();
    let rewritten = rewrite_history(&history, &Identity).history;
    let mut counts = Counts {
        ops: history.len() as u64,
        undecided: batch_gate(&outcome, &rewritten, &CounterSpec)?,
        ..Counts::default()
    };
    counts.add_sim(&stats);
    let trace = traced.then(|| CaseTrace {
        start,
        end,
        sims: vec![sim_span],
        stage: Some(("search", q0, end)),
        search: search_counts,
    });
    let ns = end - start;
    Ok((Run { ns, counts }, trace))
}

fn composed_spec() -> MultiObjSpec<CounterSpec> {
    MultiObjSpec::new(CounterSpec, OBJECTS)
}

fn composed_driver(
    case: &Case,
) -> MultiDriver<
    OpCounter,
    impl FnMut(&mut Rng, ReplicaId, ObjId, &i64) -> Option<ral_crdts::op::counter::CounterCall>,
> {
    let cluster = MultiCluster::new(OpCounter, OBJECTS, case.cfg.n_replicas, case.mode);
    MultiDriver::new(cluster, |rng: &mut Rng, _, _, _: &i64| {
        Some(calls::counter(rng))
    })
}

fn composed_run(case: &Case, mode: Mode) -> Result<(Run, Option<CaseTrace>), String> {
    let traced = mode == Mode::Traced;
    let start = now();
    let (driver, stats, sim_span) = run_sim(composed_driver(case), case, traced, "sim.run");
    let mut counts = Counts::default();
    counts.add_sim(&stats);
    if !driver.converged() {
        return Err(DIVERGED.into());
    }
    if mode == Mode::Unverified {
        let ns = sim_span.end - start;
        counts.ops = driver.cluster().history().len() as u64;
        return Ok((Run { ns, counts }, None));
    }
    let history = driver.into_cluster().into_history();
    let rw = MultiObjRewrite::new(Identity);
    let spec = composed_spec();
    let search = || ra_search_sharded_with_budget(&history, &rw, &spec, SHARDED_BUDGET);
    let q0 = now();
    let (outcome, search_counts) = with_search_counts(traced, search);
    let end = now();
    let rewritten = rewrite_history(&history, &rw).history;
    counts.undecided = batch_gate(&outcome, &rewritten, &spec)?;
    counts.ops = history.len() as u64;
    let trace = traced.then(|| CaseTrace {
        start,
        end,
        sims: vec![sim_span],
        stage: Some(("sharded", q0, end)),
        search: search_counts,
    });
    let ns = end - start;
    Ok((Run { ns, counts }, trace))
}

fn composed_negative_control(case: &Case) -> Result<(), String> {
    let mut driver = composed_driver(case);
    sim::run(&mut driver, &case.cfg, case.seed);
    let bad = tamper_last_read(driver.into_cluster().into_history(), |l| {
        CounterFam::tamper(&l.label).map(|t| ObjLabel::new(l.obj, t))
    })?;
    let rw = MultiObjRewrite::new(Identity);
    match ra_search_sharded_with_budget(&bad, &rw, &composed_spec(), SHARDED_BUDGET) {
        SearchOutcome::NotLinearizable => Ok(()),
        out => Err(format!(
            "negative control: the sharded facade did not refute a tampered read ({out:?})"
        )),
    }
}

// ---------------------------------------------------------------------
// Gossip workload
// ---------------------------------------------------------------------

fn gossip_calls() -> impl FnMut(
    &mut Rng,
    ReplicaId,
    &<LwwElementSet<u8> as ral_runtime::state_based::StateBased>::State,
) -> Option<ral_crdts::state::lww_element_set::LwwSetCall<u8>> {
    |rng: &mut Rng, _, _| Some(calls::lww_element_set(rng))
}

fn gossip_run(case: &Case, mode: Mode) -> Result<(Run, Option<CaseTrace>), String> {
    let traced = mode == Mode::Traced;
    let n = case.cfg.n_replicas;
    let start = now();
    let crdt = LwwElementSet::<u8>::new();
    let state = StateDriver::new(crdt, n, gossip_calls()).with_sizer(move |s| crdt.state_bytes(s));
    let (state, state_stats, state_span) = run_sim(state, case, traced, "sim.run.state");
    let delta = DeltaDriver::new(crdt, DeltaConfig::default(), n, gossip_calls());
    let (delta, delta_stats, delta_span) = run_sim(delta, case, traced, "sim.run.delta");

    let mut counts = Counts {
        ops: (state.cluster().history().len() + delta.cluster().history().len()) as u64,
        state_bytes: state_stats.payload_bytes,
        delta_bytes: delta_stats.payload_bytes,
        ..Counts::default()
    };
    counts.add_sim(&state_stats);
    counts.add_sim(&delta_stats);
    if mode == Mode::Unverified {
        let ns = now() - start;
        return Ok((Run { ns, counts }, None));
    }

    // The `ral-verify` obligations (`state_converges_in`,
    // `delta_converges_in`), plus state ≡ delta replica by replica.
    let v0 = now();
    let converged = state.converged() && delta.converged();
    let laws = state.cluster().check_lattice_laws() && delta.cluster().check_lattice_laws();
    let equal = (0..n as u32)
        .all(|r| state.cluster().state(ReplicaId(r)) == delta.cluster().state(ReplicaId(r)));
    let end = now();
    if !converged {
        return Err(DIVERGED.into());
    }
    if !laws {
        return Err("lattice/delta laws violated".into());
    }
    if !equal {
        return Err("delta final states differ from full-state final states".into());
    }
    if counts.delta_bytes >= counts.state_bytes {
        return Err(format!(
            "delta transport shipped {} bytes, full-state {}",
            counts.delta_bytes, counts.state_bytes
        ));
    }
    let trace = traced.then(|| CaseTrace {
        start,
        end,
        sims: vec![state_span, delta_span],
        stage: Some(("verify", v0, end)),
        search: SearchCounts::default(),
    });
    Ok((
        Run {
            ns: end - start,
            counts,
        },
        trace,
    ))
}
