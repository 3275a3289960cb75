//! Compositional-correctness property suite: the sharded search
//! ([`ral_core::ralin::search_sharded`]) must agree with the monolithic
//! memoized engine and with the naive brute-force ground truth on
//! composed `MultiCluster` histories — 2–4 objects, both timestamp
//! disciplines (`⊗` per-object and `⊗ts` shared), every op-based CRDT
//! type — and on corrupted histories all three must refute together.
//!
//! Runs on the workspace's seeded harness
//! ([`ral_core::rng::run_seeded_cases`]); a failing case prints its seed.

use ral_core::compose::{MultiObjRewrite, MultiObjSpec, ObjLabel};
use ral_core::history::{rewrite_history, History, OpRecord};
use ral_core::ids::{ObjId, ReplicaId};
use ral_core::label::{Identity, Rewrite};
use ral_core::ralin::{
    check_linearization, search_brute_with_budget, search_sharded_with_budget, search_with_budget,
    SearchOutcome,
};
use ral_core::rng::{run_seeded_cases, Rng};
use ral_core::spec::Spec;
use ral_crdts::op::counter::OpCounter;
use ral_crdts::op::lww_register::LwwRegister;
use ral_crdts::op::or_set::{OrSet, OrSetRewrite};
use ral_crdts::op::rga::Rga;
use ral_crdts::op::rga_addat::RgaAddAt;
use ral_crdts::op::wooki::Wooki;
use ral_runtime::multi::{MultiCluster, TsMode};
use ral_runtime::op_based::OpBased;
use ral_runtime::schedule::{drive_multi, ScheduleConfig};
use ral_spec::addat::AddAt3Spec;
use ral_spec::counter::CounterSpec;
use ral_spec::register::RegSpec;
use ral_spec::rga::RgaSpec;
use ral_spec::set::OrSetSpec;
use ral_spec::wooki::WookiSpec;
use ral_verify::workloads;

/// Node budget for the cross-checks; these histories are small enough
/// that only the naive engine ever comes near it.
const CROSS_BUDGET: u64 = 2_000_000;

fn small_cfg(steps: usize) -> ScheduleConfig {
    ScheduleConfig {
        steps,
        ..ScheduleConfig::default()
    }
}

/// Picks a composition shape from the seed stream: 2–4 objects, either
/// timestamp discipline.
fn composition_shape(rng: &mut Rng) -> (usize, TsMode) {
    let objects = rng.random_range(2..=4usize);
    let mode = if rng.random_bool(0.5) {
        TsMode::Shared
    } else {
        TsMode::PerObject
    };
    (objects, mode)
}

/// Asserts sharded ≡ memo ≡ brute on one rewritten composed history.
///
/// When an engine exhausts its (engine-specific) budget only the absence
/// of contradiction is required; otherwise the verdicts must match, and a
/// sharded witness must validate end to end.
fn cross_check_composed<S>(h: &History<S::Label>, spec: &S)
where
    S: ral_core::ralin::ShardableSpec,
    S::Label: ral_core::compose::ComposedLabel,
{
    let brute = search_brute_with_budget(h, spec, CROSS_BUDGET);
    let memo = search_with_budget(h, spec, CROSS_BUDGET);
    let sharded = search_sharded_with_budget(h, spec, CROSS_BUDGET);
    if let SearchOutcome::Linearizable(lin) = &sharded {
        assert_eq!(
            check_linearization(h, spec, &lin.order),
            Ok(()),
            "sharded witness must validate against the composed history"
        );
    }
    let engines = [&brute, &memo, &sharded];
    if engines
        .iter()
        .any(|o| matches!(o, SearchOutcome::BudgetExhausted))
    {
        let lin = engines.iter().any(|o| o.is_linearizable());
        let refuted = engines.iter().any(|o| o.is_refuted());
        assert!(
            !(lin && refuted),
            "engines contradict each other: brute={brute:?} memo={memo:?} sharded={sharded:?}"
        );
    } else {
        assert_eq!(brute.is_linearizable(), memo.is_linearizable());
        assert_eq!(
            memo.is_linearizable(),
            sharded.is_linearizable(),
            "sharded verdict must agree with the monolithic engine: memo={memo:?} sharded={sharded:?}"
        );
    }
}

/// Drives a composed cluster and cross-checks the rewritten history.
#[allow(clippy::too_many_arguments)]
fn cross_check_multi<C, R, S>(
    crdt: C,
    seed: u64,
    steps: usize,
    objects: usize,
    mode: TsMode,
    inner_rw: R,
    inner_spec: S,
    gen: impl FnMut(&mut Rng, ReplicaId, ObjId, &C::State) -> Option<C::Call>,
) where
    C: OpBased,
    R: Rewrite<C::Label, Out = S::Label>,
    S: Spec,
{
    let mut c = MultiCluster::new(crdt, objects, 3, mode);
    drive_multi(&mut c, &small_cfg(steps), seed, gen);
    assert!(c.converged());
    let h = c.into_history();
    let rewritten = rewrite_history(&h, &MultiObjRewrite::new(inner_rw));
    cross_check_composed(&rewritten.history, &MultiObjSpec::new(inner_spec, objects));
}

#[test]
fn sharded_matches_engines_counter() {
    run_seeded_cases("sharded_matches_engines_counter", 24, |seed, rng| {
        let (objects, mode) = composition_shape(rng);
        cross_check_multi(
            OpCounter,
            seed,
            12,
            objects,
            mode,
            Identity,
            CounterSpec,
            |rng, _, _, _| Some(workloads::counter(rng)),
        );
    });
}

#[test]
fn sharded_matches_engines_lww_register() {
    run_seeded_cases("sharded_matches_engines_lww_register", 24, |seed, rng| {
        let (objects, mode) = composition_shape(rng);
        cross_check_multi(
            LwwRegister::<u8>::new(),
            seed,
            12,
            objects,
            mode,
            Identity,
            RegSpec::new(),
            |rng, _, _, _| Some(workloads::lww_register(rng)),
        );
    });
}

#[test]
fn sharded_matches_engines_or_set() {
    run_seeded_cases("sharded_matches_engines_or_set", 24, |seed, rng| {
        let (objects, mode) = composition_shape(rng);
        cross_check_multi(
            OrSet::<u8>::new(),
            seed,
            12,
            objects,
            mode,
            OrSetRewrite::new(),
            OrSetSpec::new(),
            |rng, _, _, _| Some(workloads::or_set(rng)),
        );
    });
}

#[test]
fn sharded_matches_engines_rga() {
    run_seeded_cases("sharded_matches_engines_rga", 24, |seed, rng| {
        let (objects, mode) = composition_shape(rng);
        let mut next = 0;
        cross_check_multi(
            Rga::<u16>::new(),
            seed,
            12,
            objects,
            mode,
            Identity,
            RgaSpec::new(),
            |rng, _, _, st| workloads::rga(rng, st, &mut next),
        );
    });
}

#[test]
fn sharded_matches_engines_rga_addat() {
    run_seeded_cases("sharded_matches_engines_rga_addat", 16, |seed, rng| {
        let (objects, mode) = composition_shape(rng);
        let mut next = 0;
        cross_check_multi(
            RgaAddAt::<u16>::new(),
            seed,
            10,
            objects,
            mode,
            Identity,
            AddAt3Spec::new(),
            |rng, _, _, st| workloads::rga_addat(rng, st, &mut next),
        );
    });
}

#[test]
fn sharded_matches_engines_wooki() {
    run_seeded_cases("sharded_matches_engines_wooki", 16, |seed, rng| {
        let (objects, mode) = composition_shape(rng);
        let mut next = 0;
        cross_check_multi(
            Wooki::<u16>::new(),
            seed,
            10,
            objects,
            mode,
            Identity,
            WookiSpec::new(),
            |rng, _, _, st| workloads::wooki(rng, st, &mut next, 4),
        );
    });
}

/// Corrupted composed histories must be *refuted*, and identically so:
/// bump a counter read so no shard (and no global order) can justify it,
/// then demand all three engines agree.
#[test]
fn sharded_matches_engines_on_refutations() {
    run_seeded_cases("sharded_matches_engines_on_refutations", 24, |seed, rng| {
        let (objects, mode) = composition_shape(rng);
        let mut c = MultiCluster::new(OpCounter, objects, 3, mode);
        drive_multi(&mut c, &small_cfg(12), seed, |rng, _, _, _| {
            Some(workloads::counter(rng))
        });
        let h = c.into_history();
        let bump = rng.random_range(1i64..4);
        let mut corrupted: History<ObjLabel<ral_spec::counter::CounterOp>> = History::new();
        for (i, op) in h.iter() {
            let label = match op.label.label.clone() {
                ral_spec::counter::CounterOp::Read(v) => {
                    ral_spec::counter::CounterOp::Read(v + bump)
                }
                other => other,
            };
            corrupted.push_set(
                OpRecord {
                    label: ObjLabel::new(op.label.obj, label),
                    replica: op.replica,
                    ts: op.ts,
                },
                h.preds(i).clone(),
            );
        }
        cross_check_composed(&corrupted, &MultiObjSpec::new(CounterSpec, objects));
    });
}
