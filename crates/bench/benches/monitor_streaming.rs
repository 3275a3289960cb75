//! Streaming-monitor throughput: monitored events/sec over rolling-
//! partition churn histories of 1k, 10k, and 100k operations.
//!
//! Histories are generated once per size by a deterministic simulation
//! (four replicas on a tick-tight LAN with recurring 2|2 partition
//! windows — the regime where causal stability keeps the monitor's
//! retained state O(window)); the measured region is the monitor alone,
//! replaying the recorded stream event by event. Every replay must end
//! accepted (`Verdict::Ok`) and fully settled, so a monitor regression
//! fails the bench outright rather than skewing it. A series is named by
//! the stream length asked for; the operations the generated stream
//! really holds travel in the record's `elements`, so the JSON report
//! yields monitored ops/sec as `elements` ÷ `median_ns`. The peak live
//! window / configuration counts are printed per size before sampling.
//!
//! Run with `cargo bench -p ral-bench --bench monitor_streaming`.

use ral_bench::{bench_group, bench_main, BenchmarkId, Criterion};
use ral_core::history::History;
use ral_core::label::Identity;
use ral_core::ralin::{MonitorFeed, MonitorStats, Verdict};
use ral_core::rng::Rng;
use ral_crdts::op::counter::OpCounter;
use ral_runtime::op_based::OpBased;
use ral_sim::driver::{Driver, OpDriver};
use ral_sim::fault::{FaultPlan, PartitionWindow};
use ral_sim::network::{Latency, LinkFaults, Network, Topology};
use ral_sim::sim::{self, SimConfig};
use ral_sim::time::SimTime;
use ral_verify::workloads;
use std::hint::black_box;

type CtrLabel = <OpCounter as OpBased>::Label;

const SIZES: [usize; 3] = [1_000, 10_000, 100_000];
const REPLICAS: usize = 4;

/// The churn environment: a 60-tick 2|2 partition window (rolling
/// through three different splits — short enough that each side holds
/// only a handful of concurrent ops) reopening every 3000 ticks on an
/// otherwise tick-tight LAN.
fn churn_config(duration: u64) -> SimConfig {
    let splits = [vec![0u32, 0, 1, 1], vec![0, 1, 0, 1], vec![0, 1, 1, 0]];
    let mut partitions = Vec::new();
    let mut start = 1_000;
    while start + 60 < duration {
        partitions.push(PartitionWindow::new(
            SimTime(start),
            SimTime(start + 60),
            splits[partitions.len() % splits.len()].clone(),
        ));
        start += 3_000;
    }
    SimConfig {
        n_replicas: REPLICAS,
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

/// Generates a churn history of at least `n_ops` operations (the invoke
/// rate is ~0.1 ops/tick, so the duration is sized with headroom).
fn churn_history(n_ops: usize) -> History<CtrLabel> {
    let cfg = churn_config(n_ops as u64 * 11 + 2_000);
    let mut driver = OpDriver::new(OpCounter, cfg.n_replicas, |rng: &mut Rng, _, _| {
        Some(workloads::counter(rng))
    });
    sim::run(&mut driver, &cfg, 0xBEEF);
    assert!(driver.converged(), "churn generation failed to converge");
    let h = driver.into_cluster().into_history();
    assert!(
        h.len() >= n_ops,
        "{} ops generated, wanted {n_ops}",
        h.len()
    );
    h
}

/// One monitored replay of the full stream: every operation fed with its
/// visibility, every origin frontier observed, and the generating run's
/// final sync replayed as full end-of-stream frontiers. Returns the final
/// stats; panics unless the stream ends accepted and fully settled.
fn replay(h: &History<CtrLabel>) -> MonitorStats {
    let mut feed = MonitorFeed::new(&Identity, &ral_spec::counter::CounterSpec, REPLICAS);
    let mut fronts = [0usize; REPLICAS];
    for i in 0..h.len() {
        feed.feed_op(h.label(i), h.preds(i));
        let r = h.op(i).replica;
        let f = &mut fronts[r.0 as usize];
        while *f < h.len() && (*f == i || h.preds(i).contains(*f)) {
            *f += 1;
        }
        feed.observe_frontier(r, *f);
    }
    for r in 0..REPLICAS {
        feed.observe_frontier(ral_core::ids::ReplicaId(r as u32), h.len());
    }
    assert_eq!(
        feed.verdict(),
        Verdict::Ok,
        "churn replay must end accepted"
    );
    let stats = feed.stats().clone();
    assert_eq!(stats.settled, h.len() as u64, "stream must settle fully");
    stats
}

fn churn_replays(c: &mut Criterion) {
    let mut group = c.benchmark_group("monitor_streaming/churn_4r");
    group.sample_size(11);
    for n_ops in SIZES {
        let h = churn_history(n_ops);
        let stats = replay(&h);
        eprintln!(
            "monitor_streaming: {} ops — peak live window {}, peak live configs {}, \
             {} compactions",
            h.len(),
            stats.peak_live_window,
            stats.peak_live_configs,
            stats.compactions
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(n_ops).elements(h.len() as u64),
            &h,
            |b, h| b.iter(|| black_box(replay(h))),
        );
    }
    group.finish();
}

bench_group!(monitor_streaming, churn_replays);
bench_main!(monitor_streaming; SERIES);

/// Every series this target emits, in order (held by `Harness::finalize`).
const SERIES: &str = "monitor_streaming/churn_4r/1000 monitor_streaming/churn_4r/10000 \
    monitor_streaming/churn_4r/100000";
