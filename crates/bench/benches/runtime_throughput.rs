//! Replication-runtime throughput: delivered effectors/sec of the shared
//! mailbox drain, one series per façade — the composed `MultiCluster` on a
//! `multi_mix`-class workload (50 replicas × 32 objects of a TO
//! LWW-Register) and the single-object `Cluster` on 50 replicas of the same
//! register.
//!
//! This measures the runtime itself, not the discrete-event simulator: the
//! workload invokes in round-robin bursts and drains every mailbox with
//! `deliver_all`, so nearly all time is spent applying effectors. Every
//! invocation is delivered at the 49 other replicas, so one run performs
//! `ops × 49` deliveries; the count is deterministic and baked into the
//! benchmark name (`{events}ev`), making the JSON report (median_ns per
//! run) yield events/sec directly. The derived events/sec is also printed
//! per series before sampling.
//!
//! Run with `cargo bench -p ral-bench --bench runtime_throughput`.

use ral_bench::{bench_group, bench_main, BenchmarkId, Criterion};
use ral_core::ids::{ObjId, ReplicaId};
use ral_crdts::op::lww_register::{LwwRegister, RegCall};
use ral_runtime::multi::{MultiCluster, TsMode};
use ral_runtime::op_based::Cluster;
use std::hint::black_box;
use std::time::Instant;

const REPLICAS: usize = 50;
const OBJECTS: usize = 32;
const OPS: usize = 10_000;
/// Invocations between drains: small enough that the pending suffix stays
/// cache-resident.
const BURST: usize = 1_000;
/// Deliveries one run performs.
const EVENTS: usize = OPS * (REPLICAS - 1);

/// `OPS` writes round-robin over replicas and objects, drained every
/// `BURST`; returns the deliveries performed.
fn run_multi() -> usize {
    let mut cluster =
        MultiCluster::new(LwwRegister::<u8>::new(), OBJECTS, REPLICAS, TsMode::Shared);
    for i in 0..OPS {
        let r = ReplicaId((i % REPLICAS) as u32);
        let obj = ObjId(((i / REPLICAS) % OBJECTS) as u32);
        cluster.invoke(r, obj, RegCall::Write((i % 251) as u8));
        if i % BURST == BURST - 1 {
            cluster.deliver_all();
        }
    }
    cluster.deliver_all();
    assert!(cluster.converged());
    EVENTS
}

/// The same stream into one object.
fn run_single() -> usize {
    let mut cluster = Cluster::new(LwwRegister::<u8>::new(), REPLICAS);
    for i in 0..OPS {
        let r = ReplicaId((i % REPLICAS) as u32);
        cluster.invoke(r, RegCall::Write((i % 251) as u8));
        if i % BURST == BURST - 1 {
            cluster.deliver_all();
        }
    }
    cluster.deliver_all();
    assert!(cluster.converged());
    EVENTS
}

/// One façade's series: a timed first run for the printed events/sec,
/// then the sampled benchmark.
fn series(c: &mut Criterion, name: &str, run: fn() -> usize) {
    let mut group = c.benchmark_group(&format!("runtime_throughput/{name}"));
    group.sample_size(11);
    let start = Instant::now();
    let events = run();
    eprintln!(
        "runtime_throughput: {name} — {events} deliveries/run, ~{:.0} events/sec",
        events as f64 / start.elapsed().as_secs_f64()
    );
    group.bench_function(BenchmarkId::from_parameter(format!("{events}ev")), |b| {
        b.iter(|| black_box(run()))
    });
    group.finish();
}

fn mailbox_drain(c: &mut Criterion) {
    series(c, "multi_mix_50x32", run_multi);
    series(c, "cluster_50", run_single);
}

bench_group!(runtime_throughput, mailbox_drain);
bench_main!(runtime_throughput);
