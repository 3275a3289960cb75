//! Ablation A1 — checker scaling: the two complete engines (naive brute
//! force, memoized) against each other and against the constructive
//! execution-order witness of Theorem 4.4, plus the `ra_search` facade —
//! the path users hit — on split-brain histories.
//!
//! The naive decision procedure blows up factorially with the number of
//! concurrent operations; the memoized engine collapses permutations into
//! placed-set configurations (exponential, but in a far smaller base) and
//! decides histories the naive search cannot touch within any practical
//! node budget; the guided check is near-linear. The `*_refute` groups are
//! where the gap matters: refutations must exhaust the whole search space,
//! while a witness (`memo_search`, `facade_witness`) costs about one
//! expansion per operation.
//!
//! Run with `cargo bench -p ral-bench --bench checker_scaling`.

use ral_bench::{bench_group, bench_main, BenchmarkId, Criterion};
use ral_core::history::{rewrite_history, History};
use ral_core::label::Identity;
use ral_core::ralin::{
    check_guided, ra_search_with_budget, search_brute, search_brute_with_budget,
    search_with_budget, SearchOutcome, Strategy,
};
use ral_core::rng::Rng;
use ral_crdts::op::counter::OpCounter;
use ral_crdts::op::or_set::{OrSet, OrSetLabel, OrSetRewrite};
use ral_runtime::op_based::Cluster;
use ral_runtime::schedule::{drive_op_based, ScheduleConfig};
use ral_sim::driver::{Driver, OpDriver};
use ral_sim::fault::PartitionWindow;
use ral_sim::network::Latency;
use ral_sim::time::SimTime;
use ral_sim::{scenario, sim};
use ral_spec::counter::{CounterOp, CounterSpec};
use ral_spec::set::OrSetSpec;
use ral_verify::workloads;
use std::hint::black_box;

/// Builds an OR-Set history with roughly `steps` scheduler steps.
fn or_set_history(steps: usize, seed: u64) -> History<OrSetLabel<u8>> {
    let mut c = Cluster::new(OrSet::<u8>::new(), 3);
    let cfg = ScheduleConfig {
        steps,
        ..ScheduleConfig::default()
    };
    drive_op_based(&mut c, &cfg, seed, |rng, _, _| {
        Some(match rng.random_range(0..4u8) {
            0 | 1 => ral_crdts::op::or_set::OrSetCall::Add(rng.random_range(0..3)),
            2 => ral_crdts::op::or_set::OrSetCall::Remove(rng.random_range(0..3)),
            _ => ral_crdts::op::or_set::OrSetCall::Read,
        })
    });
    c.into_history()
}

fn guided_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("guided_eo");
    for steps in [15, 30, 60, 120, 240, 480] {
        let h = or_set_history(steps, 7);
        let rewritten = rewrite_history(&h, &OrSetRewrite::new());
        group.bench_with_input(
            BenchmarkId::from_parameter(rewritten.history.len()),
            &rewritten.history,
            |b, h| {
                b.iter(|| {
                    let lin = check_guided(h, &OrSetSpec::new(), Strategy::ExecutionOrder);
                    assert!(lin.is_ok());
                    black_box(lin)
                })
            },
        );
    }
    group.finish();
}

fn brute_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("brute_force");
    group.sample_size(10);
    // The naive search explodes: keep histories tiny.
    for steps in [4, 6, 8, 10, 12] {
        let h = or_set_history(steps, 7);
        let rewritten = rewrite_history(&h, &OrSetRewrite::new());
        group.bench_with_input(
            BenchmarkId::from_parameter(rewritten.history.len()),
            &rewritten.history,
            |b, h| {
                b.iter(|| {
                    let outcome = search_brute(h, &OrSetSpec::new());
                    assert!(outcome.is_linearizable());
                    black_box(outcome)
                })
            },
        );
    }
    group.finish();
}

/// The memoized engine on the same workload, at sizes 2–10× beyond the
/// naive cap (12 steps) — same outcomes, tractable work.
fn memo_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("memo_search");
    group.sample_size(10);
    for steps in [12, 24, 48, 96] {
        let h = or_set_history(steps, 7);
        let rewritten = rewrite_history(&h, &OrSetRewrite::new());
        group.bench_with_input(
            BenchmarkId::from_parameter(rewritten.history.len()),
            &rewritten.history,
            |b, h| {
                b.iter(|| {
                    let outcome = search_with_budget(h, &OrSetSpec::new(), u64::MAX);
                    assert!(outcome.is_linearizable());
                    black_box(outcome)
                })
            },
        );
    }
    group.finish();
}

/// Refutations are where the exponential bites: a history with an
/// impossible read forces the search to exhaust every linear extension,
/// while the guided check rejects in linear time.
fn brute_refutation_scaling(c: &mut Criterion) {
    use ral_core::history::{History, OpRecord};
    use ral_core::ids::ReplicaId;

    fn impossible_history(concurrent_incs: usize) -> History<CounterOp> {
        let mut h = History::new();
        let incs: Vec<usize> = (0..concurrent_incs)
            .map(|i| h.push(OpRecord::new(CounterOp::Inc, ReplicaId(i as u32)), []))
            .collect();
        // A read that saw every inc but claims one too many.
        h.push(
            OpRecord::new(CounterOp::Read(concurrent_incs as i64 + 1), ReplicaId(0)),
            incs,
        );
        h
    }

    let mut group = c.benchmark_group("brute_refute");
    group.sample_size(10);
    for n in [4usize, 5, 6, 7, 8] {
        let h = impossible_history(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &h, |b, h| {
            b.iter(|| {
                let outcome = search_brute(h, &CounterSpec);
                assert!(outcome.is_refuted());
                black_box(outcome)
            })
        });
    }
    group.finish();

    // The memoized engine refutes far wider concurrency: n concurrent
    // increments cost 2^n configurations instead of n! permutations.
    let mut group = c.benchmark_group("memo_refute");
    group.sample_size(10);
    for n in [8usize, 12, 14] {
        let h = impossible_history(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &h, |b, h| {
            b.iter(|| {
                let outcome = search_with_budget(h, &CounterSpec, u64::MAX);
                assert!(outcome.is_refuted());
                black_box(outcome)
            })
        });
    }
    group.finish();

    // Budget parity at 16 concurrent ops: within the same 1M-node budget
    // the naive engine cannot decide (16! ≈ 2·10¹³ permutations — its
    // measured time below is spent burning the budget and giving up)
    // while the memoized engine refutes outright. At the largest size both
    // engines can decide (n = 8, above), the memoized engine is ~95×
    // faster; from n = 9 on, only it finishes at all.
    let mut group = c.benchmark_group("refute_budget_1m");
    group.sample_size(10);
    let h16 = impossible_history(16);
    group.bench_with_input(BenchmarkId::new("brute", 16), &h16, |b, h| {
        b.iter(|| {
            let outcome = search_brute_with_budget(h, &CounterSpec, 1_000_000);
            assert_eq!(outcome, SearchOutcome::BudgetExhausted);
            black_box(outcome)
        })
    });
    group.bench_with_input(BenchmarkId::new("memo", 16), &h16, |b, h| {
        b.iter(|| {
            let outcome = search_with_budget(h, &CounterSpec, 1_000_000);
            assert!(outcome.is_refuted());
            black_box(outcome)
        })
    });
    group.finish();

    let mut group = c.benchmark_group("guided_refute");
    for n in [4usize, 5, 6, 7, 8, 64, 512] {
        let h = impossible_history(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &h, |b, h| {
            b.iter(|| {
                let violation = check_guided(h, &CounterSpec, Strategy::ExecutionOrder);
                assert!(violation.is_err());
                black_box(violation)
            })
        });
    }
    group.finish();
}

/// A counter history recorded on `split_brain_heal`'s six replicas with one
/// 3|3 split over the middle third of `duration` ticks and metronome
/// clients (one invocation per replica every 40 ticks): both sides keep
/// writing, so the split holds `duration / 120` operations per replica
/// concurrent with the other side's.
fn split_counter_history(duration: u64) -> History<CounterOp> {
    let mut cfg = scenario::split_brain_heal().cfg;
    cfg.duration = SimTime(duration);
    cfg.invoke_every = Latency::fixed(40);
    cfg.faults.partitions = vec![PartitionWindow::new(
        SimTime(duration / 3),
        SimTime(2 * duration / 3),
        vec![0, 0, 0, 1, 1, 1],
    )];
    let mut driver = OpDriver::new(OpCounter, cfg.n_replicas, |rng: &mut Rng, _, _| {
        Some(workloads::counter(rng))
    });
    sim::run(&mut driver, &cfg, 7);
    assert!(driver.converged());
    driver.into_cluster().into_history()
}

/// The `ra_search_with_budget` facade — rewrite, then the complete search
/// — on 3|3-split counter histories: as recorded (`facade_witness`, the
/// case nearly every user call is) and with the last read's value made
/// impossible (`facade_refute`, which must visit every configuration).
fn facade_scaling(c: &mut Criterion) {
    const BUDGET: u64 = 2_000_000;
    let histories: Vec<History<CounterOp>> = [300, 600, 1_200].map(split_counter_history).into();

    let mut group = c.benchmark_group("facade_witness");
    group.sample_size(10);
    for h in &histories {
        group.bench_with_input(BenchmarkId::from_parameter(h.len()), h, |b, h| {
            b.iter(|| {
                let outcome = ra_search_with_budget(h, &Identity, &CounterSpec, BUDGET);
                assert!(outcome.is_linearizable());
                black_box(outcome)
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("facade_refute");
    group.sample_size(10);
    for h in histories {
        let n = h.len();
        let last_read = (0..n)
            .rev()
            .find(|&i| matches!(h.label(i), CounterOp::Read(_)))
            .expect("the history has a read");
        let mut i = 0;
        let tampered = h.map(|l| {
            i += 1;
            match l {
                CounterOp::Read(v) if i - 1 == last_read => CounterOp::Read(v + 1),
                l => l,
            }
        });
        group.bench_with_input(BenchmarkId::from_parameter(n), &tampered, |b, h| {
            b.iter(|| {
                let outcome = ra_search_with_budget(h, &Identity, &CounterSpec, BUDGET);
                assert!(outcome.is_refuted());
                black_box(outcome)
            })
        });
    }
    group.finish();
}

/// Observability overhead on the `memo_refute` workload: recording off
/// (the production default — one relaxed atomic load per instrumentation
/// point) vs recording on (full stats emission). "off" should
/// be indistinguishable from the pre-instrumentation engine; "on" prices
/// what `RAL_OBS=1` costs.
fn obs_overhead(c: &mut Criterion) {
    use ral_core::history::OpRecord;
    use ral_core::ids::ReplicaId;

    fn impossible_history(concurrent_incs: usize) -> History<CounterOp> {
        let mut h = History::new();
        let incs: Vec<usize> = (0..concurrent_incs)
            .map(|i| h.push(OpRecord::new(CounterOp::Inc, ReplicaId(i as u32)), []))
            .collect();
        h.push(
            OpRecord::new(CounterOp::Read(concurrent_incs as i64 + 1), ReplicaId(0)),
            incs,
        );
        h
    }

    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    let h = impossible_history(12);
    ral_obs::reset();
    ral_obs::disable();
    group.bench_with_input(BenchmarkId::new("off", 12), &h, |b, h| {
        b.iter(|| {
            let outcome = search_with_budget(h, &CounterSpec, u64::MAX);
            assert!(outcome.is_refuted());
            black_box(outcome)
        })
    });
    ral_obs::enable(None);
    group.bench_with_input(BenchmarkId::new("on", 12), &h, |b, h| {
        b.iter(|| {
            let outcome = search_with_budget(h, &CounterSpec, u64::MAX);
            assert!(outcome.is_refuted());
            black_box(outcome)
        })
    });
    ral_obs::disable();
    ral_obs::reset();
    group.finish();
}

/// Ablation A4 — nondeterministic specifications: the generic frontier
/// checker vs the polynomial constraint-graph validator on Wooki.
fn wooki_checker_scaling(c: &mut Criterion) {
    use ral_core::ralin::ra_check;
    use ral_crdts::op::wooki::{Wooki, WookiCall};
    use ral_spec::wooki::{WookiAnchor, WookiSpec};
    use ral_spec::wooki_fast::check_wooki_guided;

    fn wooki_history(steps: usize, cap: u16, seed: u64) -> History<ral_spec::wooki::WookiOp<u16>> {
        let mut c = Cluster::new(Wooki::<u16>::new(), 3);
        let mut next: u16 = 0;
        let cfg = ScheduleConfig {
            steps,
            invoke_weight: 1,
            deliver_weight: 1,
            final_sync: true,
        };
        drive_op_based(&mut c, &cfg, seed, |rng, _, state| {
            let roll: u8 = rng.random_range(0..10);
            if roll < 4 && next < cap {
                let all = state.all_values();
                let (l, r2) = if all.is_empty() {
                    (WookiAnchor::Begin, WookiAnchor::End)
                } else {
                    let i = rng.random_range(0..=all.len());
                    let j = rng.random_range(i..=all.len());
                    (
                        if i == 0 {
                            WookiAnchor::Begin
                        } else {
                            WookiAnchor::Elem(all[i - 1])
                        },
                        if j == all.len() {
                            WookiAnchor::End
                        } else {
                            WookiAnchor::Elem(all[j])
                        },
                    )
                };
                next += 1;
                Some(WookiCall::AddBetween(l, next, r2))
            } else {
                Some(WookiCall::Read)
            }
        });
        c.into_history()
    }

    let mut group = c.benchmark_group("wooki_frontier");
    group.sample_size(10);
    for (steps, cap) in [(16usize, 4u16), (28, 7), (40, 10)] {
        let h = wooki_history(steps, cap, 2);
        group.bench_with_input(BenchmarkId::from_parameter(h.len()), &h, |b, h| {
            b.iter(|| {
                let lin = ra_check(h, &Identity, &WookiSpec::new(), Strategy::ExecutionOrder);
                assert!(lin.is_ok());
                black_box(lin)
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("wooki_constraint_graph");
    for (steps, cap) in [(24usize, 8u16), (80, 30), (200, 60), (400, 120)] {
        let h = wooki_history(steps, cap, 2);
        group.bench_with_input(BenchmarkId::from_parameter(h.len()), &h, |b, h| {
            b.iter(|| {
                let lin = check_wooki_guided(h);
                assert!(lin.is_ok());
                black_box(lin)
            })
        });
    }
    group.finish();
}

bench_group!(
    scaling,
    guided_scaling,
    brute_scaling,
    memo_scaling,
    brute_refutation_scaling,
    facade_scaling,
    obs_overhead,
    wooki_checker_scaling
);
bench_main!(scaling; SERIES);

/// Every series this target emits, in order (held by `Harness::finalize`;
/// the history sizes in the names are fixed by the seeds above).
const SERIES: &str = "\
    guided_eo/17 guided_eo/29 guided_eo/53 guided_eo/100 guided_eo/196 guided_eo/392 \
    brute_force/6 brute_force/8 brute_force/9 brute_force/12 brute_force/13 \
    memo_search/13 memo_search/24 memo_search/44 memo_search/83 \
    brute_refute/4 brute_refute/5 brute_refute/6 brute_refute/7 brute_refute/8 \
    memo_refute/8 memo_refute/12 memo_refute/14 \
    refute_budget_1m/brute/16 refute_budget_1m/memo/16 \
    guided_refute/4 guided_refute/5 guided_refute/6 guided_refute/7 guided_refute/8 \
    guided_refute/64 guided_refute/512 \
    facade_witness/42 facade_witness/84 facade_witness/174 \
    facade_refute/42 facade_refute/84 facade_refute/174 \
    obs_overhead/off/12 obs_overhead/on/12 \
    wooki_frontier/9 wooki_frontier/18 wooki_frontier/26 \
    wooki_constraint_graph/15 wooki_constraint_graph/55 wooki_constraint_graph/119 \
    wooki_constraint_graph/220";
