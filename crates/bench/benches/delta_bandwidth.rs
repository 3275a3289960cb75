//! Delta vs full-state replication bandwidth: bytes shipped and time per
//! run as the gossip mesh grows from 5 to 15 to 50 replicas.
//!
//! Each size runs the same seeded `gossip` scenario (50 is the corpus
//! entry `gossip_50`) twice — once with `StateDriver` shipping full
//! PN-Counter snapshots, once with `DeltaDriver` shipping joined delta
//! batches — under the same wire-size model (`DeltaCrdt::state_bytes` /
//! `delta_bytes`, 12-byte headers both ways). A series is named by
//! transport and mesh size (`.../{full,delta}/{n}rep`); the payload bytes
//! the run shipped travel in the record's `elements`, so the JSON report
//! carries both the time per run and the bandwidth each transport paid.
//! The pre-run print shows the ratio directly and asserts the delta
//! transport ships strictly fewer bytes at every size.
//!
//! An LWW-Element-Set pair at 50 replicas shows the gap widening when
//! full snapshots accumulate history (every pair ever written) while
//! deltas stay proportional to the unacknowledged tail.
//!
//! Run with `cargo bench -p ral-bench --bench delta_bandwidth`.

use ral_bench::{bench_group, bench_main, BenchmarkId, Criterion};
use ral_crdts::state::lww_element_set::{LwwElementSet, LwwSetState};
use ral_crdts::state::pn_counter::{PnCounter, PnState};
use ral_runtime::delta::{DeltaConfig, DeltaCrdt};
use ral_sim::driver::{DeltaDriver, Driver, StateDriver};
use ral_sim::{scenario, sim};
use ral_verify::workloads;
use std::hint::black_box;

const SIZES: [usize; 3] = [5, 15, 50];
const SEED: u64 = 7;

fn pn_state_bytes(s: &PnState) -> usize {
    PnCounter.state_bytes(s)
}

fn lww_state_bytes(s: &LwwSetState<u8>) -> usize {
    LwwElementSet::<u8>::new().state_bytes(s)
}

/// One full-state run; returns the payload bytes shipped.
fn full_run(n: usize) -> u64 {
    let sc = scenario::gossip(n);
    let mut driver = StateDriver::new(PnCounter, n, |rng, _, _| Some(workloads::pn_counter(rng)))
        .with_sizer(pn_state_bytes);
    let run = sim::run(&mut driver, &sc.cfg, SEED);
    assert!(driver.converged());
    run.stats.payload_bytes
}

/// One delta run; returns the payload bytes shipped.
fn delta_run(n: usize) -> u64 {
    let sc = scenario::gossip(n);
    let mut driver = DeltaDriver::new(PnCounter, DeltaConfig::default(), n, |rng, _, _| {
        Some(workloads::pn_counter(rng))
    });
    let run = sim::run(&mut driver, &sc.cfg, SEED);
    assert!(driver.converged());
    run.stats.payload_bytes
}

fn lww_full_run(n: usize) -> u64 {
    let sc = scenario::gossip(n);
    let mut driver = StateDriver::new(LwwElementSet::<u8>::new(), n, |rng, _, _| {
        Some(workloads::lww_element_set(rng))
    })
    .with_sizer(lww_state_bytes);
    let run = sim::run(&mut driver, &sc.cfg, SEED);
    assert!(driver.converged());
    run.stats.payload_bytes
}

fn lww_delta_run(n: usize) -> u64 {
    let sc = scenario::gossip(n);
    let mut driver = DeltaDriver::new(
        LwwElementSet::<u8>::new(),
        DeltaConfig::default(),
        n,
        |rng, _, _| Some(workloads::lww_element_set(rng)),
    );
    let run = sim::run(&mut driver, &sc.cfg, SEED);
    assert!(driver.converged());
    run.stats.payload_bytes
}

fn pn_counter_bandwidth(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta_bandwidth/pn_counter");
    group.sample_size(11);
    for n in SIZES {
        let (full_bytes, delta_bytes) = (full_run(n), delta_run(n));
        assert!(
            delta_bytes < full_bytes,
            "{n} replicas: delta shipped {delta_bytes} B, full-state {full_bytes} B"
        );
        eprintln!(
            "delta_bandwidth: pn_counter at {n:>2} replicas — full {full_bytes} B, \
             delta {delta_bytes} B ({:.1}x less)",
            full_bytes as f64 / delta_bytes as f64,
        );
        group.bench_with_input(
            BenchmarkId::new("full", format!("{n}rep")).elements(full_bytes),
            &n,
            |b, &n| b.iter(|| black_box(full_run(n))),
        );
        group.bench_with_input(
            BenchmarkId::new("delta", format!("{n}rep")).elements(delta_bytes),
            &n,
            |b, &n| b.iter(|| black_box(delta_run(n))),
        );
    }
    group.finish();
}

fn lww_set_bandwidth(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta_bandwidth/lww_element_set");
    group.sample_size(11);
    let n = 50;
    let full_bytes = lww_full_run(n);
    let delta_bytes = lww_delta_run(n);
    assert!(
        delta_bytes < full_bytes,
        "{n} replicas: delta shipped {delta_bytes} B, full-state {full_bytes} B"
    );
    eprintln!(
        "delta_bandwidth: lww_element_set at {n} replicas — full {full_bytes} B, \
         delta {delta_bytes} B ({:.1}x less)",
        full_bytes as f64 / delta_bytes as f64,
    );
    group.bench_with_input(
        BenchmarkId::new("full", format!("{n}rep")).elements(full_bytes),
        &n,
        |b, &n| b.iter(|| black_box(lww_full_run(n))),
    );
    group.bench_with_input(
        BenchmarkId::new("delta", format!("{n}rep")).elements(delta_bytes),
        &n,
        |b, &n| b.iter(|| black_box(lww_delta_run(n))),
    );
    group.finish();
}

bench_group!(delta_bandwidth, pn_counter_bandwidth, lww_set_bandwidth);
bench_main!(delta_bandwidth; SERIES);

/// Every series this target emits, in order (held by `Harness::finalize`).
const SERIES: &str = "\
    delta_bandwidth/pn_counter/full/5rep delta_bandwidth/pn_counter/delta/5rep \
    delta_bandwidth/pn_counter/full/15rep delta_bandwidth/pn_counter/delta/15rep \
    delta_bandwidth/pn_counter/full/50rep delta_bandwidth/pn_counter/delta/50rep \
    delta_bandwidth/lww_element_set/full/50rep delta_bandwidth/lww_element_set/delta/50rep";
