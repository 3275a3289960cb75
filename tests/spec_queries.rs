//! Section 3.2's query contract, checked on every shipped specification: a
//! query never changes the abstract state, so `Spec::step` answers every
//! query label with `Step::Unchanged` or `Step::Refused` and writes nothing
//! to its buffer. The engines rely on it — the batch walk and the monitor
//! admit a query without a buffer of their own.
//!
//! The scope of each data type is the labels of a few short recorded runs
//! (rewritten by γ, as every checker sees them) and the states its
//! specification reaches from the initial one by at most three of those
//! updates.

use ral_core::compose::{MultiObjSpec, ObjLabel};
use ral_core::history::{rewrite_history, History};
use ral_core::ids::ObjId;
use ral_core::label::{Rewrite, SpecLabel};
use ral_core::spec::{Spec, Step};
use ral_runtime::delta::{DeltaCluster, DeltaConfig};
use ral_runtime::op_based::Cluster;
use ral_runtime::schedule::{drive_op_based, drive_state_based};
use ral_verify::families::{self, OpFamily, Scale, StateFamily};
use std::collections::BTreeSet;

const REPLICAS: usize = 3;
const SEEDS: std::ops::Range<u64> = 0..3;
/// Updates applied from the initial state to reach a scope state.
const DEPTH: usize = 3;
/// Scope states kept per data type (the first ones reached).
const MAX_STATES: usize = 200;

/// The distinct update and query labels of `histories`, after `rw`
/// (labels need not be `PartialEq`: they are told apart by rendering).
fn labels<In, R: Rewrite<In>>(
    histories: impl IntoIterator<Item = History<In>>,
    rw: &R,
) -> (Vec<R::Out>, Vec<R::Out>) {
    let (mut updates, mut queries) = (Vec::new(), Vec::new());
    let mut seen = BTreeSet::new();
    for h in histories {
        let rewritten = rewrite_history(&h, rw).history;
        for i in 0..rewritten.len() {
            let l = rewritten.label(i);
            if seen.insert(format!("{l:?}")) {
                let into = if l.is_query() {
                    &mut queries
                } else {
                    &mut updates
                };
                into.push(l.clone());
            }
        }
    }
    (updates, queries)
}

/// `labels` on object 0 and on object 1 of a composition.
fn on_both<L: Clone>(labels: &[L]) -> Vec<ObjLabel<L>> {
    (0..2)
        .flat_map(|o| {
            labels
                .iter()
                .map(move |l| ObjLabel::new(ObjId(o), l.clone()))
        })
        .collect()
}

/// Checks every query of `queries` from every state `spec` reaches by at
/// most [`DEPTH`] labels of `updates`; returns how many (state, query)
/// pairs were admitted and how many refused.
fn check_queries<S: Spec>(spec: &S, updates: &[S::Label], queries: &[S::Label]) -> (u64, u64) {
    assert!(!queries.is_empty() && !updates.is_empty());
    let mut states = vec![spec.initial()];
    let mut layer = states.clone();
    for _ in 0..DEPTH {
        let mut next = Vec::new();
        for st in &layer {
            for u in updates {
                let mut succs = Vec::new();
                if spec.step(st, u, &mut succs) == Step::Unchanged {
                    succs.push(st.clone());
                }
                for s in succs {
                    if states.len() < MAX_STATES && !states.contains(&s) {
                        states.push(s.clone());
                        next.push(s);
                    }
                }
            }
        }
        layer = next;
    }
    let (mut admitted, mut refused) = (0, 0);
    // A buffer holding one state: a query must leave it exactly as it is.
    let mut out = vec![spec.initial()];
    for st in &states {
        for q in queries {
            match spec.step(st, q, &mut out) {
                Step::Unchanged => admitted += 1,
                Step::Refused => refused += 1,
                Step::Wrote => panic!("query {q:?} wrote a successor from {st:?}"),
            }
            assert_eq!(out, [spec.initial()], "query {q:?} wrote to the buffer");
        }
    }
    (admitted, refused)
}

fn op_family<F: OpFamily>() {
    let runs = SEEDS.map(|seed| {
        let mut c = Cluster::new(F::crdt(), REPLICAS);
        drive_op_based(
            &mut c,
            &Scale::Searched.schedule(),
            seed,
            F::calls(Scale::Searched),
        );
        c.into_history()
    });
    let (updates, queries) = labels(runs, &F::rewrite());
    let (admitted, refused) = check_queries(&F::spec(), &updates, &queries);
    assert!(
        admitted > 0 && refused > 0,
        "{}: {admitted} / {refused}",
        F::NAME
    );
}

fn state_family<F: StateFamily>() {
    let runs = SEEDS.map(|seed| {
        let mut c = DeltaCluster::new(F::crdt(), DeltaConfig::default(), REPLICAS);
        drive_state_based(
            &mut c,
            &Scale::Searched.schedule(),
            seed,
            F::calls(Scale::Searched),
        );
        c.into_history()
    });
    let (updates, queries) = labels(runs, &F::rewrite());
    let (admitted, refused) = check_queries(&F::spec(), &updates, &queries);
    assert!(
        admitted > 0 && refused > 0,
        "{}: {admitted} / {refused}",
        F::NAME
    );
}

#[test]
fn every_operation_based_query_answers_without_writing() {
    op_family::<families::Counter>();
    op_family::<families::LwwRegister>();
    op_family::<families::OrSet>();
    op_family::<families::Rga>();
    op_family::<families::RgaAddAt>();
    op_family::<families::Wooki>();
}

#[test]
fn every_state_based_query_answers_without_writing() {
    state_family::<families::PnCounter>();
    state_family::<families::MvRegister>();
    state_family::<families::LwwElementSet>();
    state_family::<families::TwoPhaseSet>();
}

/// Two OR-Sets composed: each object's labels, on either object, from the
/// states both reach together.
#[test]
fn a_composed_query_answers_without_writing() {
    type F = families::OrSet;
    let runs = SEEDS.map(|seed| {
        let mut c = Cluster::new(F::crdt(), REPLICAS);
        drive_op_based(
            &mut c,
            &Scale::Searched.schedule(),
            seed,
            F::calls(Scale::Searched),
        );
        c.into_history()
    });
    let (updates, queries) = labels(runs, &F::rewrite());
    let spec = MultiObjSpec::new(F::spec(), 2);
    let (admitted, refused) = check_queries(&spec, &on_both(&updates), &on_both(&queries));
    assert!(admitted > 0 && refused > 0, "{admitted} / {refused}");
}
