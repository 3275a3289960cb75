//! The cost contract of the list specifications' `(l, T)` and of the RGA
//! replica's flat pre-order, in deterministic clone counts: a document
//! edit copies the document once, a read or a rejected label copies
//! nothing, and fingerprinting or sharing a state is free.
//!
//! The element type counts its own clones, so every number below is a
//! count of element copies, not a time (`tests/runtime_cost.rs` holds the
//! lattice transports to the same kind of contract).

use ral_core::ids::ReplicaId;
use ral_core::spec::Spec;
use ral_core::timestamp::Ts;
use ral_crdts::op::rga::{Rga, RgaEff};
use ral_runtime::op_based::OpBased;
use ral_spec::addat::{AddAt2Spec, AddAtOp};
use ral_spec::rga::{Anchor, RgaOp, RgaSpec};
use ral_spec::seq::Doc;
use std::cell::Cell;

thread_local! {
    static CLONES: Cell<u64> = const { Cell::new(0) };
}

/// A list element that counts how often it is cloned (per test thread).
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Counted(u16);

impl Clone for Counted {
    fn clone(&self) -> Self {
        CLONES.with(|c| c.set(c.get() + 1));
        Counted(self.0)
    }
}

/// Element clones made while `f` runs.
fn clones_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CLONES.with(Cell::get);
    let out = f();
    (CLONES.with(Cell::get) - before, out)
}

const N: u16 = 512;

/// `(0 1 … 511, {every fifth})`.
fn doc() -> Doc<Counted> {
    (0..N).map(|x| (Counted(x), x % 5 == 0)).collect()
}

fn visible(doc: &Doc<Counted>) -> Vec<Counted> {
    doc.visible().map(|e| Counted(e.0)).collect()
}

#[test]
fn a_read_step_clones_nothing_admitted_or_rejected() {
    let (spec, doc) = (RgaSpec::new(), doc());
    let right = RgaOp::Read(visible(&doc));
    let (clones, succs) = clones_during(|| spec.step(&doc, &right));
    assert_eq!((clones, succs.len()), (0, 1));
    assert_eq!(succs[0], doc);
    let mut wrong = visible(&doc);
    wrong.pop();
    let (clones, succs) = clones_during(|| spec.step(&doc, &RgaOp::Read(wrong)));
    assert_eq!((clones, succs.len()), (0, 0));
}

#[test]
fn an_edit_clones_each_element_at_most_once() {
    let (spec, doc) = (RgaSpec::new(), doc());
    let len = doc.len() as u64;
    let add = RgaOp::AddAfter(Anchor::Elem(Counted(100)), Counted(9_999));
    let (clones, succs) = clones_during(|| spec.step(&doc, &add));
    assert_eq!(succs.len(), 1);
    assert!(clones <= len + 1, "{clones} clones for {len} + 1 elements");
    let (clones, succs) = clones_during(|| spec.step(&doc, &RgaOp::Remove(Counted(101))));
    assert_eq!(succs.len(), 1);
    assert!(clones <= len, "{clones} clones for {len} elements");

    // Rejected or state-preserving edits copy nothing.
    for label in [
        RgaOp::AddAfter(Anchor::Elem(Counted(N)), Counted(9_999)), // stale anchor
        RgaOp::AddAfter(Anchor::Head, Counted(7)),                 // not fresh
        RgaOp::Remove(Counted(N)),                                 // not in l
        RgaOp::Remove(Counted(100)),                               // already in T
    ] {
        let (clones, _) = clones_during(|| spec.step(&doc, &label));
        assert_eq!(clones, 0, "{label:?}");
    }

    // addAt2's rule 1 is one pass: one copy per admitted slot. Elements 0
    // and 5 are tombstoned, so visible index 4 has two slots.
    let (clones, succs) =
        clones_during(|| AddAt2Spec::new().step(&doc, &AddAtOp::AddAt(Counted(9_999), 4)));
    assert_eq!(succs.len(), 2);
    assert!(clones <= 2 * (len + 1), "{clones} clones for two slots");
}

#[test]
fn fingerprints_and_shared_successors_clone_nothing() {
    let (spec, doc) = (RgaSpec::new(), doc());
    let succs = spec.step(&doc, &RgaOp::Remove(Counted(1)));
    let (clones, fp) = clones_during(|| spec.state_fingerprint(&succs[0]));
    assert_eq!((clones, fp), (0, succs[0].fingerprint()));
    let (clones, copy) = clones_during(|| succs.clone());
    assert_eq!((clones, &copy), (0, &succs));
}

#[test]
fn a_replica_read_clones_exactly_the_visible_elements() {
    let rga = Rga::<Counted>::new();
    let mut state = rga.initial();
    let mut parent = Anchor::Head;
    for x in 0..N {
        let ts = Ts::new(u64::from(x) + 1, ReplicaId(0));
        let elem = Counted(x);
        rga.apply(&mut state, &RgaEff::Insert { parent, ts, elem });
        // Every third insert goes under the head, the rest continue the
        // current line: a tree with siblings and long chains.
        parent = if x % 3 == 0 {
            Anchor::Head
        } else {
            Anchor::Elem(Counted(x))
        };
    }
    for x in (0..N).step_by(7) {
        rga.apply(&mut state, &RgaEff::Tomb(Counted(x)));
    }
    let (clones, read) = clones_during(|| state.visible());
    assert_eq!(read.len(), usize::from(N) - usize::from(N).div_ceil(7));
    assert_eq!(clones, read.len() as u64);
    let (clones, all) = clones_during(|| state.all_elements());
    assert_eq!(clones, all.len() as u64);
    let (clones, abs) = clones_during(|| Rga::abs(&state));
    assert_eq!(clones, abs.len() as u64);
    assert!(abs.reads(&read));
}
