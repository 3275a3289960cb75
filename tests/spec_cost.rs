//! The cost contract of the list specifications' `(l, T)` and of the RGA
//! replica's flat pre-order, in deterministic clone and allocation counts:
//! a document edit copies the document once and allocates only the new
//! document when stepped into a warm buffer, a read or a rejected label
//! copies nothing and allocates nothing, and fingerprinting or sharing a
//! state is free.
//!
//! The element type counts its own clones, and this binary's allocator
//! counts the blocks it hands out, so every number below is a count of
//! element copies or heap blocks, not a time (`tests/runtime_cost.rs` holds
//! the lattice transports to the same kind of contract).

use ral_core::ids::ReplicaId;
use ral_core::spec::{Spec, Step};
use ral_core::timestamp::Ts;
use ral_crdts::op::rga::{Rga, RgaEff};
use ral_runtime::op_based::OpBased;
use ral_spec::addat::{AddAt2Spec, AddAtOp};
use ral_spec::rga::{Anchor, RgaOp, RgaSpec};
use ral_spec::seq::Doc;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static CLONES: Cell<u64> = const { Cell::new(0) };
    // Per thread, so the tests of this binary, run in parallel, do not
    // count each other's blocks.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting (per thread) the blocks it hands out or
/// resizes.
struct Counting;

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the accounting touches only
// a thread-local counter and never the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: as in `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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

/// Heap blocks (fresh or resized) allocated while `f` runs.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The successors `spec` writes for `label` from `doc`, stepped into a
/// fresh buffer, with the answer.
fn step_into_fresh<S: Spec>(spec: &S, doc: &S::State, label: &S::Label) -> (Step, Vec<S::State>) {
    let mut out = Vec::new();
    (spec.step(doc, label, &mut out), out)
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
    let (clones, (answer, succs)) = clones_during(|| step_into_fresh(&spec, &doc, &right));
    assert_eq!((clones, answer, succs.len()), (0, Step::Unchanged, 0));
    let mut wrong = visible(&doc);
    wrong.pop();
    let (clones, (answer, succs)) =
        clones_during(|| step_into_fresh(&spec, &doc, &RgaOp::Read(wrong)));
    assert_eq!((clones, answer, succs.len()), (0, Step::Refused, 0));
}

/// A read answers in place: an RGA read and an addAt read, admitted or
/// not, allocate no block and clone no element, and the buffer they are
/// handed stays as it was.
#[test]
fn a_list_read_allocates_nothing_and_clones_nothing() {
    let doc = doc();
    let mut out = vec![Doc::new()];
    let reads = [visible(&doc), visible(&doc)[1..].to_vec()];
    for (s, answer) in reads.into_iter().zip([Step::Unchanged, Step::Refused]) {
        let rga = RgaOp::Read(s.clone());
        let (allocs, (clones, got)) =
            allocs_during(|| clones_during(|| RgaSpec::new().step(&doc, &rga, &mut out)));
        assert_eq!((allocs, clones, got), (0, 0, answer), "RGA {answer:?}");
        let addat = AddAtOp::Read(s);
        let (allocs, (clones, got)) =
            allocs_during(|| clones_during(|| AddAt2Spec::new().step(&doc, &addat, &mut out)));
        assert_eq!((allocs, clones, got), (0, 0, answer), "addAt {answer:?}");
    }
    assert_eq!(out, [Doc::new()]);
}

/// An edit stepped into a warm buffer (one that held a successor before)
/// allocates only the new document and copies each element once: an
/// insert builds it in a `Vec` and moves it into its shared `Rc` (two
/// blocks), a remove copies the shared slots straight into a fresh `Rc`
/// (one block). The buffer itself never grows.
#[test]
fn an_edit_into_a_warm_buffer_allocates_only_the_new_document() {
    let (spec, doc) = (RgaSpec::new(), doc());
    let len = doc.len() as u64;
    let mut out = Vec::with_capacity(1);
    let add = RgaOp::AddAfter(Anchor::Elem(Counted(100)), Counted(9_999));
    let (allocs, (clones, answer)) =
        allocs_during(|| clones_during(|| spec.step(&doc, &add, &mut out)));
    assert_eq!((allocs, answer, out.len()), (2, Step::Wrote, 1));
    assert!(clones <= len + 1, "{clones} clones for {len} + 1 elements");
    out.clear();
    let remove = RgaOp::Remove(Counted(101));
    let (allocs, (clones, answer)) =
        allocs_during(|| clones_during(|| spec.step(&doc, &remove, &mut out)));
    assert_eq!((allocs, answer, out.len()), (1, Step::Wrote, 1));
    assert!(clones <= len, "{clones} clones for {len} elements");
}

#[test]
fn an_edit_clones_each_element_at_most_once() {
    let (spec, doc) = (RgaSpec::new(), doc());
    let len = doc.len() as u64;
    let add = RgaOp::AddAfter(Anchor::Elem(Counted(100)), Counted(9_999));
    let (clones, (answer, succs)) = clones_during(|| step_into_fresh(&spec, &doc, &add));
    assert_eq!((answer, succs.len()), (Step::Wrote, 1));
    assert!(clones <= len + 1, "{clones} clones for {len} + 1 elements");
    let remove = RgaOp::Remove(Counted(101));
    let (clones, (answer, succs)) = clones_during(|| step_into_fresh(&spec, &doc, &remove));
    assert_eq!((answer, succs.len()), (Step::Wrote, 1));
    assert!(clones <= len, "{clones} clones for {len} elements");

    // Rejected or state-preserving edits copy nothing.
    for label in [
        RgaOp::AddAfter(Anchor::Elem(Counted(N)), Counted(9_999)), // stale anchor
        RgaOp::AddAfter(Anchor::Head, Counted(7)),                 // not fresh
        RgaOp::Remove(Counted(N)),                                 // not in l
        RgaOp::Remove(Counted(100)),                               // already in T
    ] {
        let (clones, _) = clones_during(|| step_into_fresh(&spec, &doc, &label));
        assert_eq!(clones, 0, "{label:?}");
    }

    // addAt2's rule 1 is one pass: one copy per admitted slot. Elements 0
    // and 5 are tombstoned, so visible index 4 has two slots.
    let add = AddAtOp::AddAt(Counted(9_999), 4);
    let (clones, (_, succs)) = clones_during(|| step_into_fresh(&AddAt2Spec::new(), &doc, &add));
    assert_eq!(succs.len(), 2);
    assert!(clones <= 2 * (len + 1), "{clones} clones for two slots");
}

#[test]
fn fingerprints_and_shared_successors_clone_nothing() {
    let (spec, doc) = (RgaSpec::new(), doc());
    let (_, succs) = step_into_fresh(&spec, &doc, &RgaOp::Remove(Counted(1)));
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
