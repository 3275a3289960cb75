//! Heterogeneous composition: a counter and an OR-Set living side by side
//! (`Spec₁ ⊗ Spec₂`, Section 5.1).
//!
//! The composed history interleaves operations of *different* data types;
//! its projections must be admitted by the component specifications and the
//! whole must respect the global (cross-object) visibility — the causality
//! a key-value store client relies on (Section 7's referential-integrity
//! discussion).

use ral_core::compose::{EitherLabel, PairSpec};
use ral_core::history::{History, OpRecord};
use ral_core::ids::{ReplicaId, Uid};
use ral_core::ralin::{check_guided, search, Strategy};
use ral_spec::counter::{CounterOp, CounterSpec};
use ral_spec::set::{OrSetOp, OrSetSpec};
use std::collections::BTreeSet;

type Label = EitherLabel<CounterOp, OrSetOp<char>>;

fn ctr(op: CounterOp) -> Label {
    EitherLabel::First(op)
}

fn set(op: OrSetOp<char>) -> Label {
    EitherLabel::Second(op)
}

fn r(i: u32) -> ReplicaId {
    ReplicaId(i)
}

#[test]
fn interleaved_history_validates() {
    // r0: ctr.inc ; set.add(a) ; ctr.read⇒1 — r1: set.add(b) ; set.read⇒{b}.
    let mut h: History<Label> = History::new();
    let inc = h.push(OpRecord::new(ctr(CounterOp::Inc), r(0)), []);
    let add_a = h.push(OpRecord::new(set(OrSetOp::Add('a', Uid(0))), r(0)), [inc]);
    let _read_c = h.push(OpRecord::new(ctr(CounterOp::Read(1)), r(0)), [inc, add_a]);
    let add_b = h.push(OpRecord::new(set(OrSetOp::Add('b', Uid(1))), r(1)), []);
    h.push(
        OpRecord::new(set(OrSetOp::Read(BTreeSet::from(['b']))), r(1)),
        [add_b],
    );
    let spec = PairSpec::new(CounterSpec, OrSetSpec::new());
    let lin = check_guided(&h, &spec, Strategy::ExecutionOrder)
        .expect("interleaved EO history validates");
    assert_eq!(lin.order.len(), 5);
    assert!(search(&h, &spec).is_linearizable());
}

#[test]
fn cross_object_causality_restricts_witnesses() {
    // The pointer pattern: set.add('p') is issued only after ctr.inc is
    // visible — every linearization orders the record before the pointer.
    let mut h: History<Label> = History::new();
    let record = h.push(OpRecord::new(ctr(CounterOp::Inc), r(0)), []);
    let pointer = h.push(
        OpRecord::new(set(OrSetOp::Add('p', Uid(0))), r(1)),
        [record],
    );
    let spec = PairSpec::new(CounterSpec, OrSetSpec::new());
    let lin = check_guided(&h, &spec, Strategy::ExecutionOrder).unwrap();
    let pos = |x: usize| lin.order.iter().position(|&y| y == x).unwrap();
    assert!(pos(record) < pos(pointer));
    // And the inverted order is rejected outright.
    assert!(ral_core::ralin::check_linearization(&h, &spec, &[pointer, record]).is_err());
}

#[test]
fn component_violations_surface_in_the_composition() {
    // A wrong counter read poisons the composed history even though the
    // set part is fine.
    let mut h: History<Label> = History::new();
    let inc = h.push(OpRecord::new(ctr(CounterOp::Inc), r(0)), []);
    h.push(OpRecord::new(ctr(CounterOp::Read(7)), r(0)), [inc]);
    h.push(OpRecord::new(set(OrSetOp::Add('a', Uid(0))), r(1)), []);
    let spec = PairSpec::new(CounterSpec, OrSetSpec::new());
    assert!(check_guided(&h, &spec, Strategy::ExecutionOrder).is_err());
    assert!(search(&h, &spec).is_refuted());
}

#[test]
fn projections_match_component_specs() {
    use ral_core::spec::{Spec, Step};
    let spec = PairSpec::new(CounterSpec, OrSetSpec::new());
    let st = spec.initial();
    // Stepping a counter label leaves the set component untouched and vice
    // versa.
    let mut out = Vec::new();
    assert_eq!(spec.step(&st, &ctr(CounterOp::Inc), &mut out), Step::Wrote);
    let st = out.pop().unwrap();
    assert_eq!(st.0, 1);
    assert!(st.1.is_empty());
    let add = set(OrSetOp::Add('z', Uid(9)));
    assert_eq!(spec.step(&st, &add, &mut out), Step::Wrote);
    let st = out.pop().unwrap();
    assert_eq!(st.0, 1);
    assert!(st.1.contains(&('z', Uid(9))));
    // A read of either component answers without writing.
    let read = ctr(CounterOp::Read(1));
    assert_eq!(spec.step(&st, &read, &mut out), Step::Unchanged);
    assert!(out.is_empty());
}
