//! The streaming monitor's bounded-memory and determinism contracts, at
//! the scale the batch checkers cannot touch.
//!
//! * **Bounded memory** — a rolling-partition churn run of ≥100k
//!   operations, monitored continuously: every partition window holds a
//!   handful of operations concurrent, so causal stability must keep the
//!   peak retained configuration set and live window O(window) — five
//!   orders of magnitude below the operation count — while base
//!   compaction recycles settled state throughout.
//! * **Determinism** — the monitor is sequential by construction: a
//!   same-seed replay repeats the verdict stream, the settle points, and
//!   every counter exactly — and `tests/golden/monitor_streams.txt` pins
//!   them across commits, so "same exploration, cheaper" is checkable.
//! * **Watermark** — `settled()` is the minimum per-replica seen-frontier
//!   after every observation, however the frontiers arrive.

use ral_core::bitset::BitSet;
use ral_core::history::History;
use ral_core::ids::ReplicaId;
use ral_core::label::Identity;
use ral_core::ralin::{Monitor, MonitorFeed, MonitorStats, Verdict};
use ral_core::rng::{run_seeded_cases, Rng};
use ral_core::spec::{fingerprint, Spec};
use ral_crdts::op::counter::OpCounter;
use ral_crdts::op::rga::Rga;
use ral_runtime::op_based::OpBased;
use ral_sim::driver::{Driver, OpDriver};
use ral_sim::fault::{FaultPlan, PartitionWindow};
use ral_sim::network::{Latency, LinkFaults, Network, Topology};
use ral_sim::sim::{self, SimConfig};
use ral_sim::time::SimTime;
use ral_sim::MonitoredDriver;
use ral_spec::counter::{CounterOp, CounterSpec};
use ral_spec::rga::RgaSpec;
use ral_verify::workloads;

/// Four replicas on a tick-tight LAN, with a 60-tick partition window
/// reopening every `cycle` ticks and rolling through three different
/// 2|2 splits — churn that stalls settlement briefly, over and over,
/// without ever letting the concurrent window grow past a handful of
/// operations per side. (The window length is load-bearing: at ~0.15
/// invokes/tick, 60 ticks hold ~4 ops concurrent; doubling it holds ~9
/// per side, and the complete closure's interleaving count C(18,9) would
/// blow the live-config cap — honestly, as Exhausted.)
fn churn_config(duration: u64, cycle: u64) -> SimConfig {
    let splits = [vec![0u32, 0, 1, 1], vec![0, 1, 0, 1], vec![0, 1, 1, 0]];
    let mut partitions = Vec::new();
    let mut start = 1_000;
    while start + 60 < duration {
        partitions.push(PartitionWindow::new(
            SimTime(start),
            SimTime(start + 60),
            splits[partitions.len() % splits.len()].clone(),
        ));
        start += cycle;
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

/// ≥100k operations through rolling partitions, verified live. The run
/// must end accepted and fully settled, with peak retained state bounded
/// by the partition window, and the monitor's obs counters must mirror
/// its own stats exactly.
#[test]
fn monitored_churn_of_100k_ops_retains_only_the_window() {
    let cfg = churn_config(1_050_000, 3_000);
    cfg.validate();
    let inner = OpDriver::new(OpCounter, cfg.n_replicas, |rng: &mut Rng, _, _| {
        Some(workloads::counter(rng))
    });
    let mut driver = MonitoredDriver::new(inner, Identity, CounterSpec);
    sim::run(&mut driver, &cfg, 0xC0FFEE);
    assert!(driver.converged(), "churn run failed to converge");

    let verdict = driver.verdict();
    let stats = driver.stats().clone();
    let ops = driver.cluster().history().len() as u64;
    assert!(ops >= 100_000, "only {ops} ops invoked; lengthen the run");
    assert_eq!(verdict, Verdict::Ok, "stats: {stats:?}");
    assert_eq!(stats.ops, ops);
    assert_eq!(stats.settled, ops, "final sync must settle everything");
    assert_eq!(stats.live_window, 0, "settled stream, empty window");

    // The bounded-memory claim: peak retained state tracks the partition
    // window (a handful of ops per side), not the 100k-op stream. The
    // bounds below are ~50× looser than typical peaks and ~5 orders of
    // magnitude below O(n) retention, so they fail on a real leak only.
    assert!(
        stats.peak_live_window <= 512,
        "live window grew to {} ops",
        stats.peak_live_window
    );
    assert!(
        stats.peak_live_configs <= 4_096,
        "configuration frontier grew to {}",
        stats.peak_live_configs
    );
    assert!(
        stats.compactions >= 1_000,
        "only {} base compactions across {ops} settled ops",
        stats.compactions
    );

    // The obs surface mirrors the stats it summarizes, field for field.
    ral_obs::reset();
    ral_obs::enable(None);
    driver.emit_obs();
    ral_obs::disable();
    let snap = ral_obs::drain();
    ral_obs::reset();
    assert_eq!(snap.counter_total("monitor.ops"), stats.ops);
    assert_eq!(snap.counter_total("monitor.settled_ops"), stats.settled);
    assert_eq!(snap.counter_total("monitor.compactions"), stats.compactions);
    assert_eq!(
        snap.values("monitor.peak_live_configs"),
        vec![stats.peak_live_configs]
    );
    assert_eq!(
        snap.values("monitor.peak_live_window"),
        vec![stats.peak_live_window]
    );
}

/// Feeds a recorded history through a fresh monitor, event by event,
/// capturing the verdict and settle point after every step — the full
/// observable behavior of a streaming run.
fn replay_stream<S: Spec>(
    h: &History<S::Label>,
    spec: &S,
    n_replicas: usize,
) -> (Vec<(Verdict, usize)>, MonitorStats) {
    let mut feed = MonitorFeed::new(&Identity, spec, n_replicas);
    let mut fronts = vec![0usize; n_replicas];
    let mut steps = Vec::with_capacity(h.len());
    for i in 0..h.len() {
        feed.feed_op(h.label(i), h.preds(i));
        let r = h.op(i).replica;
        let f = &mut fronts[r.0 as usize];
        while *f < h.len() && (*f == i || h.preds(i).contains(*f)) {
            *f += 1;
        }
        feed.observe_frontier(r, *f);
        steps.push((feed.verdict(), feed.monitor().settled()));
    }
    (steps, feed.stats().clone())
}

/// The seed-7 counter churn history both replay tests below stream.
fn counter_churn_history() -> History<<OpCounter as OpBased>::Label> {
    let cfg = churn_config(20_000, 3_000);
    let mut driver = OpDriver::new(OpCounter, cfg.n_replicas, |rng: &mut Rng, _, _| {
        Some(workloads::counter(rng))
    });
    sim::run(&mut driver, &cfg, 7);
    let h = driver.into_cluster().into_history();
    assert!(h.len() > 1_000, "churn history unexpectedly small");
    h
}

/// Same seed ⇒ identical verdict stream, settle points, and counters.
#[test]
fn monitor_stream_replays_identically() {
    let h = counter_churn_history();
    let baseline = replay_stream(&h, &CounterSpec, 4);
    assert_eq!(
        baseline.0.last().map(|(v, _)| *v),
        Some(Verdict::Ok),
        "replay must end accepted"
    );
    assert_eq!(
        baseline,
        replay_stream(&h, &CounterSpec, 4),
        "same-seed replay diverged"
    );
}

/// One golden block: the stream's name and length, every `MonitorStats`
/// field, and the fingerprint of the per-step `(verdict, settled)` stream.
fn golden_block<S: Spec>(name: &str, h: &History<S::Label>, spec: &S) -> String {
    let (steps, stats) = replay_stream(h, spec, 4);
    let stream: Vec<(String, u64)> = steps
        .iter()
        .map(|(v, settled)| (format!("{v:?}"), *settled as u64))
        .collect();
    format!(
        "{name} history_ops={}\n{stats:#?}\nsteps_fingerprint={:#018x}\n",
        h.len(),
        fingerprint(&stream)
    )
}

/// The monitor's exploration, pinned across commits: which configurations
/// it expands, merges and prunes decides every counter below, so a change
/// that claims "same exploration, cheaper" passes this unedited and one
/// that changes the live set shows exactly what it changed. Streams: the
/// counter churn history above, and a growing RGA document from four
/// replicas on the same network.
#[test]
fn monitor_streams_match_their_golden_file() {
    let counter = counter_churn_history();

    let cfg = churn_config(6_000, 3_000);
    let mut next = 0u16;
    let mut driver = OpDriver::new(Rga::new(), cfg.n_replicas, |rng: &mut Rng, _, state| {
        workloads::rga(rng, state, &mut next)
    });
    sim::run(&mut driver, &cfg, 7);
    let doc = driver.into_cluster().into_history();

    let got = golden_block("counter_churn_seed7", &counter, &CounterSpec)
        + &golden_block("rga_doc_seed7", &doc, &RgaSpec::new());
    assert_eq!(
        got,
        include_str!("golden/monitor_streams.txt"),
        "monitor exploration drifted from tests/golden/monitor_streams.txt"
    );
}

/// A monitor over a chain of increments (each sees its predecessor, so
/// the stream can never be refuted and holds one configuration per open
/// op) beside the model of its watermark: per replica, the largest
/// frontier it ever claimed, each claim clamped to the operations fed when
/// it was made.
struct Shadowed {
    monitor: Monitor<CounterSpec>,
    seen: Vec<usize>,
}

impl Shadowed {
    fn new(n_replicas: usize) -> Self {
        Shadowed {
            monitor: Monitor::new_streaming(CounterSpec, n_replicas),
            seen: vec![0; n_replicas],
        }
    }

    fn feed(&mut self, ops: usize) {
        for _ in 0..ops {
            let preds: BitSet = self.monitor.len().checked_sub(1).into_iter().collect();
            self.monitor.advance_op(CounterOp::Inc, preds);
        }
    }

    fn observe(&mut self, replica: usize, first_unseen: usize) {
        let verdict = self
            .monitor
            .observe_frontier(ReplicaId(replica as u32), first_unseen);
        assert_eq!(verdict, Verdict::Ok);
        let seen = &mut self.seen[replica];
        *seen = (*seen).max(first_unseen.min(self.monitor.len()));
        assert_eq!(
            Some(self.monitor.settled()),
            self.seen.iter().copied().min(),
            "after replica {replica} claimed {first_unseen}: model {:?}",
            self.seen
        );
    }
}

/// 1 000 seeded streams over 1–50 replicas whose frontier claims advance,
/// repeat, regress and over-claim in any order: the watermark equals the
/// model after every single observation.
#[test]
fn watermark_is_the_minimum_seen_frontier_after_every_observation() {
    run_seeded_cases("monitor_watermark", 1_000, |_, rng| {
        let n_replicas = rng.random_range(1..=50usize);
        let mut m = Shadowed::new(n_replicas);
        for _ in 0..rng.random_range(20..120usize) {
            if rng.random_bool(0.2) {
                m.feed(rng.random_range(1..=3usize));
                continue;
            }
            let replica = rng.random_range(0..n_replicas);
            let len = m.monitor.len();
            let first_unseen = match rng.random_range(0..4u8) {
                0 => m.seen[replica],                    // repeated
                1 => rng.random_range(0..=len),          // anywhere, often regressing
                2 => len + rng.random_range(0..5usize),  // everything, or over-claimed
                _ => (m.monitor.settled() + 1).min(len), // just past the watermark
            };
            m.observe(replica, first_unseen);
        }
    });
}

/// The two shapes the incremental count is easiest to get wrong on: one
/// replica (every advance moves the minimum) and all replicas jumping to
/// the same frontier (the minimum moves on the last one only).
#[test]
fn watermark_with_one_replica_and_with_all_replicas_jumping_at_once() {
    let mut one = Shadowed::new(1);
    for step in 1..=10 {
        one.feed(2);
        one.observe(0, 2 * step - 1);
        assert_eq!(one.monitor.settled(), 2 * step - 1);
    }

    let mut all = Shadowed::new(50);
    all.feed(7);
    for replica in 0..50 {
        all.observe(replica, 7);
        assert_eq!(all.monitor.settled(), if replica == 49 { 7 } else { 0 });
    }
    all.feed(3);
    for replica in (0..50).rev() {
        all.observe(replica, usize::MAX);
    }
    assert_eq!(all.monitor.settled(), 10);
}
