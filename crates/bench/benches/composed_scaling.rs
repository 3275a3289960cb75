//! Ablation — composed-history scaling: the sharded compositional search
//! against the monolithic memoized engine, objects × ops.
//!
//! A composed history over `k` objects costs the monolithic engine the
//! *product* of the per-object configuration spaces (every specification
//! step clones a `k`-vector of abstract states); the sharded facade first
//! validates the witness Section 5 constructs — execution order
//! (Theorem 5.3) for the OR-Sets of `sharded/k`, the composed timestamp
//! order (Theorem 5.5) for the last-writer-wins registers of
//! `sharded_ts/k`, whose histories execution order does *not* linearize —
//! one per-object pass, and searches shards only on a miss. The
//! `composed_scaling` group measures both engines on the same OR-Set
//! histories, so the `monolithic/k` ÷ `sharded/k` ratio in
//! `BENCH_composed_scaling.json` is the headline speedup; every record
//! carries the operation count of its rewritten history in `elements`, so
//! ns/op and the growth per doubling read off the report.
//!
//! Run with `cargo bench -p ral-bench --bench composed_scaling`.

use ral_bench::{bench_group, bench_main, BenchmarkId, Criterion};
use ral_core::compose::{MultiObjRewrite, MultiObjSpec, ObjLabel};
use ral_core::history::rewrite_history;
use ral_core::history::History;
use ral_core::label::Identity;
use ral_core::ralin::{
    search_sharded_with_budget, search_sharded_with_stats, search_with_budget, Strategy,
};
use ral_core::rng::Rng;
use ral_crdts::op::lww_register::LwwRegister;
use ral_crdts::op::or_set::{OrSet, OrSetCall, OrSetRewrite};
use ral_runtime::multi::{MultiCluster, TsMode};
use ral_runtime::schedule::{drive_multi, ScheduleConfig};
use ral_spec::register::{RegOp, RegSpec};
use ral_spec::set::{OrSetOp, OrSetSpec};
use ral_verify::workloads;
use std::hint::black_box;

/// The schedule both history builders share: 3 replicas, the op count
/// scaling linearly in the object count.
fn schedule(objects: usize) -> ScheduleConfig {
    ScheduleConfig {
        steps: objects * 12,
        ..ScheduleConfig::default()
    }
}

/// Builds a composed OR-Set history over `objects` objects (shared
/// timestamps — the `⊗ts` regime Theorem 5.5 covers), then applies the
/// query-update rewriting once.
fn composed_history(objects: usize, seed: u64) -> History<ObjLabel<OrSetOp<u8>>> {
    let mut c = MultiCluster::new(OrSet::<u8>::new(), objects, 3, TsMode::Shared);
    let cfg = schedule(objects);
    drive_multi(&mut c, &cfg, seed, |rng: &mut Rng, _, _, _| {
        Some(match rng.random_range(0..4u8) {
            0 | 1 => OrSetCall::Add(rng.random_range(0..3)),
            2 => OrSetCall::Remove(rng.random_range(0..3)),
            _ => OrSetCall::Read,
        })
    });
    let h = c.into_history();
    // Rewrite once, outside the measured region: both engines take the
    // same rewritten history.
    rewrite_history(&h, &MultiObjRewrite::new(OrSetRewrite::new())).history
}

/// Builds a composed LWW-register history over `objects` objects under
/// the shared timestamp generator of `⊗ts`: the first seed from `from` on
/// whose history execution order misses and the composed timestamp order
/// decides, so the series times the second constructive witness.
fn timestamped_history(objects: usize, from: u64) -> History<ObjLabel<RegOp<u8>>> {
    let (spec, cfg) = (
        MultiObjSpec::new(RegSpec::new(), objects),
        schedule(objects),
    );
    (from..)
        .map(|seed| {
            let mut c = MultiCluster::new(LwwRegister::<u8>::new(), objects, 3, TsMode::Shared);
            drive_multi(&mut c, &cfg, seed, |rng: &mut Rng, _, _, _| {
                Some(workloads::lww_register(rng))
            });
            rewrite_history(&c.into_history(), &MultiObjRewrite::new(Identity)).history
        })
        .find(|h| {
            search_sharded_with_stats(h, &spec, u64::MAX).1.guided == Some(Strategy::TimestampOrder)
        })
        .expect("some seed orders two concurrent writes against their timestamps")
}

/// Monolithic vs sharded on identical composed histories. The object
/// counts double up to 32; per-object work is constant, so a flat engine
/// would scale linearly — the monolithic engine does not.
fn composed_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("composed_scaling");
    group.sample_size(10);
    for objects in [2usize, 4, 8, 16, 32] {
        let h = composed_history(objects, 7);
        let id = |series: &str, ops: usize| BenchmarkId::new(series, objects).elements(ops as u64);
        let spec = MultiObjSpec::new(OrSetSpec::new(), objects);
        group.bench_with_input(id("monolithic", h.len()), &h, |b, h| {
            b.iter(|| {
                let outcome = search_with_budget(h, &spec, u64::MAX);
                assert!(outcome.is_linearizable());
                black_box(outcome)
            })
        });
        group.bench_with_input(id("sharded", h.len()), &h, |b, h| {
            b.iter(|| {
                let outcome = search_sharded_with_budget(h, &spec, u64::MAX);
                assert!(outcome.is_linearizable());
                black_box(outcome)
            })
        });
        let h = timestamped_history(objects, 7);
        let spec = MultiObjSpec::new(RegSpec::new(), objects);
        group.bench_with_input(id("sharded_ts", h.len()), &h, |b, h| {
            b.iter(|| {
                let outcome = search_sharded_with_budget(h, &spec, u64::MAX);
                assert!(outcome.is_linearizable());
                black_box(outcome)
            })
        });
    }
    group.finish();
}

bench_group!(composed, composed_scaling);
bench_main!(composed; SERIES);

/// Every series this target emits, in order (held by `Harness::finalize`).
const SERIES: &str = "\
    composed_scaling/monolithic/2 composed_scaling/sharded/2 composed_scaling/sharded_ts/2 \
    composed_scaling/monolithic/4 composed_scaling/sharded/4 composed_scaling/sharded_ts/4 \
    composed_scaling/monolithic/8 composed_scaling/sharded/8 composed_scaling/sharded_ts/8 \
    composed_scaling/monolithic/16 composed_scaling/sharded/16 composed_scaling/sharded_ts/16 \
    composed_scaling/monolithic/32 composed_scaling/sharded/32 composed_scaling/sharded_ts/32";
