//! Property-based cross-checks between the guided linearization strategies
//! and the complete brute-force search, over random CRDT executions.
//!
//! * If the guided witness validates, the brute-force search must find a
//!   witness too (trivially — but it exercises the search).
//! * If the brute-force search refutes, the guided check must fail
//!   (soundness of the guided path).
//! * For the data types of Figure 12, the guided check of the claimed class
//!   never fails, so guided and search always agree positively.
//!
//! Runs on the workspace's seeded harness
//! ([`ral_core::rng::run_seeded_cases`]); a failing case prints its seed.

use ral_core::history::{rewrite_history, History};
use ral_core::ids::ReplicaId;
use ral_core::label::{Identity, Rewrite};
use ral_core::ralin::{
    check_guided, search_brute_with_budget, search_with_budget, search_with_stats, SearchOutcome,
    Strategy,
};
use ral_core::rng::run_seeded_cases;
use ral_core::spec::Spec;
use ral_crdts::op::counter::{CounterCall, OpCounter};
use ral_crdts::op::lww_register::{LwwRegister, RegCall};
use ral_crdts::op::or_set::{OrSet, OrSetCall, OrSetRewrite};
use ral_crdts::op::rga::Rga;
use ral_crdts::op::wooki::Wooki;
use ral_crdts::state::lww_element_set::LwwElementSet;
use ral_crdts::state::mv_register::MvRegister;
use ral_crdts::state::pn_counter::PnCounter;
use ral_crdts::state::two_phase_set::TwoPhaseSet;
use ral_runtime::delta::{DeltaCluster, DeltaConfig, DeltaCrdt};
use ral_runtime::op_based::{Cluster, OpBased};
use ral_runtime::schedule::{drive_op_based, drive_state_based, ScheduleConfig};
use ral_spec::counter::CounterSpec;
use ral_spec::register::{MvRegSpec, RegSpec};
use ral_spec::rga::RgaSpec;
use ral_spec::set::{OrSetSpec, SetSpec};
use ral_spec::wooki::WookiSpec;
use ral_verify::workloads;

mod common;
use common::random_schedule;

/// Interprets a [`random_schedule`]: action < 16 selects an invocation and
/// the rest request one delivery.
fn run_schedule<C: OpBased>(
    crdt: C,
    schedule: &[(u8, u8)],
    mut call_of: impl FnMut(u8, &C::State) -> Option<C::Call>,
) -> Cluster<C> {
    let mut cluster = Cluster::new(crdt, 3);
    for &(raw_replica, action) in schedule {
        let r = ReplicaId((raw_replica % 3) as u32);
        if action < 16 {
            if let Some(call) = call_of(action, cluster.state(r)) {
                cluster.invoke(r, call);
            }
        } else {
            let ds = cluster.deliverable(r);
            if !ds.is_empty() {
                let d = ds[(action as usize) % ds.len()];
                cluster.deliver(r, d);
            }
        }
    }
    cluster.deliver_all();
    cluster
}

/// Counter: guided EO always validates and the brute-force search finds a
/// witness too.
#[test]
fn counter_guided_and_search_agree() {
    run_seeded_cases("counter_guided_and_search_agree", 64, |_, rng| {
        let schedule = random_schedule(rng, 14);
        let cluster = run_schedule(OpCounter, &schedule, |a, _| {
            Some(match a % 3 {
                0 => CounterCall::Inc,
                1 => CounterCall::Dec,
                _ => CounterCall::Read,
            })
        });
        assert!(cluster.converged());
        let h = cluster.into_history();
        let rewritten = rewrite_history(&h, &Identity);
        let guided = check_guided(&rewritten.history, &CounterSpec, Strategy::ExecutionOrder);
        assert!(guided.is_ok(), "{guided:?}");
        let brute = search_brute_with_budget(&rewritten.history, &CounterSpec, 2_000_000);
        assert!(brute.is_linearizable(), "{brute:?}");
    });
}

/// LWW-Register: guided TO always validates; when the execution-order
/// strategy fails, a witness still exists (TO is one).
#[test]
fn lww_register_to_subsumes_search() {
    run_seeded_cases("lww_register_to_subsumes_search", 64, |_, rng| {
        let schedule = random_schedule(rng, 14);
        let cluster = run_schedule(LwwRegister::<u8>::new(), &schedule, |a, _| {
            Some(if a % 2 == 0 {
                RegCall::Write(a % 4)
            } else {
                RegCall::Read
            })
        });
        let h = cluster.into_history();
        let rewritten = rewrite_history(&h, &Identity);
        let spec = RegSpec::new();
        let to = check_guided(&rewritten.history, &spec, Strategy::TimestampOrder);
        assert!(to.is_ok(), "{to:?}");
        if check_guided(&rewritten.history, &spec, Strategy::ExecutionOrder).is_err() {
            let outcome = search_with_budget(&rewritten.history, &spec, 2_000_000);
            assert!(
                matches!(
                    outcome,
                    SearchOutcome::Linearizable(_) | SearchOutcome::BudgetExhausted
                ),
                "EO may fail, but a witness must still exist: {outcome:?}"
            );
        }
    });
}

/// OR-Set: the γ-rewritten guided EO witness always validates, and the
/// brute-force search never refutes.
#[test]
fn or_set_never_refuted() {
    run_seeded_cases("or_set_never_refuted", 64, |_, rng| {
        let schedule = random_schedule(rng, 12);
        let cluster = run_schedule(OrSet::<u8>::new(), &schedule, |a, _| {
            Some(match a % 4 {
                0 | 1 => OrSetCall::Add(a % 3),
                2 => OrSetCall::Remove(a % 3),
                _ => OrSetCall::Read,
            })
        });
        assert!(cluster.converged());
        let h = cluster.into_history();
        let rewritten = rewrite_history(&h, &OrSetRewrite::new());
        let spec = OrSetSpec::new();
        let guided = check_guided(&rewritten.history, &spec, Strategy::ExecutionOrder);
        assert!(guided.is_ok(), "{guided:?}");
        let outcome = search_with_budget(&rewritten.history, &spec, 2_000_000);
        assert!(!outcome.is_refuted());
    });
}

// ---------------------------------------------------------------------
// Memoized-engine cross-checks: for every Figure 12 data type, the memo
// engine (sequential AND parallel) must agree bit-for-bit with the naive
// brute-force ground truth on random histories — same verdict and, for
// witnesses, the same (lexicographically minimal) order.
// ---------------------------------------------------------------------

/// Node budget for the cross-checks; the histories are small enough that
/// neither engine comes close.
const CROSS_BUDGET: u64 = 2_000_000;

/// Asserts brute ≡ memo on one rewritten history. When either engine exhausts its (engine-specific) budget only
/// the absence of contradiction is required.
fn cross_check<S: Spec>(h: &History<S::Label>, spec: &S) {
    let brute = search_brute_with_budget(h, spec, CROSS_BUDGET);
    let memo = search_with_budget(h, spec, CROSS_BUDGET);
    if matches!(brute, SearchOutcome::BudgetExhausted)
        || matches!(memo, SearchOutcome::BudgetExhausted)
    {
        let contradictory = (brute.is_linearizable() && memo.is_refuted())
            || (brute.is_refuted() && memo.is_linearizable());
        assert!(
            !contradictory,
            "engines contradict each other: brute={brute:?} memo={memo:?}"
        );
    } else {
        assert_eq!(brute, memo, "memo must be bit-identical to brute");
    }
}

fn cross_cfg(steps: usize) -> ScheduleConfig {
    ScheduleConfig {
        steps,
        ..ScheduleConfig::default()
    }
}

/// Drives an op-based cluster and cross-checks the rewritten history.
fn cross_check_op<C, R, S>(
    crdt: C,
    seed: u64,
    steps: usize,
    rw: &R,
    spec: &S,
    mut gen: impl FnMut(&mut ral_core::rng::Rng, ReplicaId, &C::State) -> Option<C::Call>,
) where
    C: OpBased + Clone,
    R: Rewrite<C::Label, Out = S::Label>,
    S: Spec,
{
    let mut c = Cluster::new(crdt, 3);
    drive_op_based(&mut c, &cross_cfg(steps), seed, &mut gen);
    let rewritten = rewrite_history(&c.into_history(), rw);
    cross_check(&rewritten.history, spec);
}

/// Drives a state-based cluster and cross-checks the rewritten history.
fn cross_check_state<C, S>(
    crdt: C,
    seed: u64,
    steps: usize,
    spec: &S,
    mut gen: impl FnMut(&mut ral_core::rng::Rng, ReplicaId, &C::State) -> Option<C::Call>,
) where
    C: DeltaCrdt + Clone,
    S: Spec,
    Identity: Rewrite<C::Label, Out = S::Label>,
{
    let mut c = DeltaCluster::new(crdt, DeltaConfig::default(), 3);
    drive_state_based(&mut c, &cross_cfg(steps), seed, &mut gen);
    let rewritten = rewrite_history(&c.into_history(), &Identity);
    cross_check(&rewritten.history, spec);
}

#[test]
fn memo_matches_brute_counter() {
    run_seeded_cases("memo_matches_brute_counter", 24, |seed, _| {
        cross_check_op(OpCounter, seed, 12, &Identity, &CounterSpec, |rng, _, _| {
            Some(workloads::counter(rng))
        });
    });
}

#[test]
fn memo_matches_brute_lww_register() {
    run_seeded_cases("memo_matches_brute_lww_register", 24, |seed, _| {
        cross_check_op(
            LwwRegister::<u8>::new(),
            seed,
            12,
            &Identity,
            &RegSpec::new(),
            |rng, _, _| Some(workloads::lww_register(rng)),
        );
    });
}

#[test]
fn memo_matches_brute_or_set() {
    run_seeded_cases("memo_matches_brute_or_set", 24, |seed, _| {
        cross_check_op(
            OrSet::<u8>::new(),
            seed,
            12,
            &OrSetRewrite::new(),
            &OrSetSpec::new(),
            |rng, _, _| Some(workloads::or_set(rng)),
        );
    });
}

#[test]
fn memo_matches_brute_rga() {
    run_seeded_cases("memo_matches_brute_rga", 24, |seed, _| {
        let mut next = 0;
        cross_check_op(
            Rga::<u16>::new(),
            seed,
            12,
            &Identity,
            &RgaSpec::new(),
            |rng, _, st| workloads::rga(rng, st, &mut next),
        );
    });
}

#[test]
fn memo_matches_brute_wooki() {
    run_seeded_cases("memo_matches_brute_wooki", 16, |seed, _| {
        let mut next = 0;
        cross_check_op(
            Wooki::<u16>::new(),
            seed,
            10,
            &Identity,
            &WookiSpec::new(),
            |rng, _, st| workloads::wooki(rng, st, &mut next, 4),
        );
    });
}

#[test]
fn memo_matches_brute_pn_counter() {
    run_seeded_cases("memo_matches_brute_pn_counter", 24, |seed, _| {
        cross_check_state(PnCounter, seed, 12, &CounterSpec, |rng, _, _| {
            Some(workloads::pn_counter(rng))
        });
    });
}

#[test]
fn memo_matches_brute_mv_register() {
    run_seeded_cases("memo_matches_brute_mv_register", 24, |seed, _| {
        cross_check_state(
            MvRegister::<u8>::new(),
            seed,
            12,
            &MvRegSpec::new(),
            |rng, _, _| Some(workloads::mv_register(rng)),
        );
    });
}

#[test]
fn memo_matches_brute_lww_element_set() {
    run_seeded_cases("memo_matches_brute_lww_element_set", 24, |seed, _| {
        cross_check_state(
            LwwElementSet::<u8>::new(),
            seed,
            12,
            &SetSpec::new(),
            |rng, _, _| Some(workloads::lww_element_set(rng)),
        );
    });
}

#[test]
fn memo_matches_brute_two_phase_set() {
    run_seeded_cases("memo_matches_brute_two_phase_set", 24, |seed, _| {
        let mut next = 0;
        cross_check_state(
            TwoPhaseSet::<u16>::new(),
            seed,
            12,
            &SetSpec::new(),
            |rng, _, st| workloads::two_phase_set(rng, st, &mut next),
        );
    });
}

/// Corrupted histories (negative cases) must be *refuted* identically:
/// tamper with a read and demand both engines agree on the verdict.
#[test]
fn memo_matches_brute_on_refutations() {
    run_seeded_cases("memo_matches_brute_on_refutations", 24, |seed, rng| {
        let mut c = Cluster::new(OpCounter, 3);
        drive_op_based(&mut c, &cross_cfg(12), seed, |rng, _, _| {
            Some(workloads::counter(rng))
        });
        let h = c.into_history();
        let mut corrupted = History::new();
        let bump = rng.random_range(1i64..4);
        for (i, op) in h.iter() {
            let label = match op.label.clone() {
                ral_spec::counter::CounterOp::Read(v) => {
                    ral_spec::counter::CounterOp::Read(v + bump)
                }
                other => other,
            };
            corrupted.push_set(
                ral_core::history::OpRecord {
                    label,
                    replica: op.replica,
                    ts: op.ts,
                },
                h.preds(i).clone(),
            );
        }
        cross_check(&corrupted, &CounterSpec);
    });
}

/// Refutations are where memoization earns its keep: at `n ≥ 8`
/// concurrent increments the impossible-read walk revisits placed-set
/// configurations, so the reported hit rate is non-zero.
#[test]
fn refuting_runs_hit_the_memo_table() {
    use ral_core::history::OpRecord;
    use ral_spec::counter::CounterOp;

    for n in [8usize, 10, 12] {
        let mut h = History::new();
        let incs: Vec<usize> = (0..n)
            .map(|i| h.push(OpRecord::new(CounterOp::Inc, ReplicaId(i as u32)), []))
            .collect();
        h.push(
            OpRecord::new(CounterOp::Read(n as i64 + 1), ReplicaId(0)),
            incs,
        );

        let (outcome, stats) = search_with_stats(&h, &CounterSpec, u64::MAX);
        assert!(outcome.is_refuted(), "n = {n}");
        assert!(stats.memo_hits > 0, "n = {n}: no memo hits on a refutation");
        assert!(stats.memo_hit_rate() > 0.0, "n = {n}");
        assert!(stats.nodes_expanded > 0, "n = {n}");
    }
}

/// Tampering with a counter read's return value must be caught by both
/// the guided check and the search.
#[test]
fn corrupted_reads_are_rejected() {
    run_seeded_cases("corrupted_reads_are_rejected", 64, |_, rng| {
        let mut schedule = random_schedule(rng, 10);
        if schedule.is_empty() {
            schedule.push((rng.random_range(0..=u8::MAX), rng.random_range(0..=u8::MAX)));
        }
        let bump = rng.random_range(1i64..5);
        let cluster = run_schedule(OpCounter, &schedule, |a, _| {
            Some(if a % 2 == 0 {
                CounterCall::Inc
            } else {
                CounterCall::Read
            })
        });
        let h = cluster.into_history();
        // Corrupt the last read, if any.
        let mut labels: Vec<ral_spec::counter::CounterOp> =
            (0..h.len()).map(|i| h.label(i).clone()).collect();
        let Some(pos) = labels
            .iter()
            .rposition(|l| matches!(l, ral_spec::counter::CounterOp::Read(_)))
        else {
            return;
        };
        if let ral_spec::counter::CounterOp::Read(v) = labels[pos] {
            labels[pos] = ral_spec::counter::CounterOp::Read(v + bump);
        }
        let mut corrupted = ral_core::history::History::new();
        for (i, label) in labels.into_iter().enumerate() {
            let rec = ral_core::history::OpRecord {
                label,
                replica: h.op(i).replica,
                ts: h.op(i).ts,
            };
            corrupted.push_set(rec, h.preds(i).clone());
        }
        assert!(check_guided(&corrupted, &CounterSpec, Strategy::ExecutionOrder).is_err());
        let outcome = search_with_budget(&corrupted, &CounterSpec, 2_000_000);
        assert!(matches!(
            outcome,
            SearchOutcome::NotLinearizable | SearchOutcome::BudgetExhausted
        ));
    });
}
