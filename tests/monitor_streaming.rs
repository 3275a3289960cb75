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
//!   every counter exactly.

use ral_core::history::History;
use ral_core::label::Identity;
use ral_core::ralin::{MonitorFeed, MonitorStats, Verdict};
use ral_core::rng::Rng;
use ral_crdts::op::counter::OpCounter;
use ral_sim::driver::{Driver, OpDriver};
use ral_sim::fault::{FaultPlan, PartitionWindow};
use ral_sim::network::{Latency, LinkFaults, Network, Topology};
use ral_sim::sim::{self, SimConfig};
use ral_sim::time::SimTime;
use ral_sim::MonitoredDriver;
use ral_spec::counter::CounterSpec;
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
fn replay_stream(
    h: &History<<OpCounter as ral_runtime::op_based::OpBased>::Label>,
    n_replicas: usize,
) -> (Vec<(Verdict, usize)>, MonitorStats) {
    let mut feed = MonitorFeed::new(&Identity, &CounterSpec, n_replicas);
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

/// Same seed ⇒ identical verdict stream, settle points, and counters.
#[test]
fn monitor_stream_replays_identically() {
    let cfg = churn_config(20_000, 3_000);
    let mut driver = OpDriver::new(OpCounter, cfg.n_replicas, |rng: &mut Rng, _, _| {
        Some(workloads::counter(rng))
    });
    sim::run(&mut driver, &cfg, 7);
    let h = driver.into_cluster().into_history();
    assert!(h.len() > 1_000, "churn history unexpectedly small");

    let baseline = replay_stream(&h, cfg.n_replicas);
    assert_eq!(
        baseline.0.last().map(|(v, _)| *v),
        Some(Verdict::Ok),
        "replay must end accepted"
    );
    assert_eq!(
        baseline,
        replay_stream(&h, cfg.n_replicas),
        "same-seed replay diverged"
    );
}
