//! Ablation — composed-history scaling: the sharded compositional search
//! against the monolithic memoized engine, objects × ops.
//!
//! A composed history over `k` objects costs the monolithic engine the
//! *product* of the per-object configuration spaces (every specification
//! step clones a `k`-vector of abstract states); the sharded search
//! (Theorem 5.5) pays the *sum* — project per object, search every shard,
//! stitch the witnesses. The `composed_scaling` group measures both
//! engines on the same histories so the `monolithic/k` ÷ `sharded/k`
//! ratio in `BENCH_composed_scaling.json` is the headline speedup.
//!
//! Run with `cargo bench -p ral-bench --bench composed_scaling`.

use ral_bench::{bench_group, bench_main, BenchmarkId, Criterion};
use ral_core::compose::{MultiObjRewrite, MultiObjSpec};
use ral_core::history::rewrite_history;
use ral_core::history::History;
use ral_core::ralin::{search_sharded_with_budget, search_with_budget};
use ral_core::rng::Rng;
use ral_crdts::op::or_set::{OrSet, OrSetCall, OrSetRewrite};
use ral_runtime::multi::{MultiCluster, TsMode};
use ral_runtime::schedule::{drive_multi, ScheduleConfig};
use ral_spec::set::{OrSetOp, OrSetSpec};
use std::hint::black_box;

/// Builds a composed OR-Set history over `objects` objects (3 replicas,
/// shared timestamps — the `⊗ts` regime Theorem 5.5 covers), with the
/// op count scaling linearly in the object count, then applies the
/// query-update rewriting once.
fn composed_history(
    objects: usize,
    seed: u64,
) -> History<ral_core::compose::ObjLabel<OrSetOp<u8>>> {
    let mut c = MultiCluster::new(OrSet::<u8>::new(), objects, 3, TsMode::Shared);
    let cfg = ScheduleConfig {
        steps: objects * 12,
        ..ScheduleConfig::default()
    };
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

/// Monolithic vs sharded on identical composed histories. The object
/// counts double up to 32; per-object work is constant, so a flat engine
/// would scale linearly — the monolithic engine does not.
fn composed_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("composed_scaling");
    group.sample_size(10);
    for objects in [2usize, 4, 8, 16, 32] {
        let h = composed_history(objects, 7);
        let spec = MultiObjSpec::new(OrSetSpec::new(), objects);
        group.bench_with_input(BenchmarkId::new("monolithic", objects), &h, |b, h| {
            b.iter(|| {
                let outcome = search_with_budget(h, &spec, u64::MAX);
                assert!(outcome.is_linearizable());
                black_box(outcome)
            })
        });
        group.bench_with_input(BenchmarkId::new("sharded", objects), &h, |b, h| {
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
    composed_scaling/monolithic/2 composed_scaling/sharded/2 \
    composed_scaling/monolithic/4 composed_scaling/sharded/4 \
    composed_scaling/monolithic/8 composed_scaling/sharded/8 \
    composed_scaling/monolithic/16 composed_scaling/sharded/16 \
    composed_scaling/monolithic/32 composed_scaling/sharded/32";
