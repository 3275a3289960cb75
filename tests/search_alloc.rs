//! The memoized walk's allocation contract, in heap blocks: a history that
//! linearizes without backtracking is decided with a number of allocations
//! linear in its length. The walk's buffers — one frontier per update
//! depth, one justification frontier per query, one undo arena — are
//! allocated once and reused by every placement; nothing is hashed or
//! stored until a configuration fails.
//!
//! A test binary of its own, because it installs a counting
//! `#[global_allocator]` (per thread, so parallel tests do not count each
//! other's blocks). `tests/search_cost.rs` holds the same walk to its
//! expansion counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ral_core::history::History;
use ral_core::ralin::{check_linearization, search_with_stats, SearchOutcome};
use ral_core::rng::Rng;
use ral_crdts::op::counter::OpCounter;
use ral_sim::driver::{Driver, OpDriver};
use ral_sim::{scenario, sim};
use ral_spec::counter::{CounterOp, CounterSpec};
use ral_verify::workloads;

thread_local! {
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

/// Heap blocks (fresh or resized) allocated while `f` runs.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The recorded counter history of the full-length split-brain-and-heal
/// scenario — the history `tests/search_cost.rs` decides in at most one
/// expansion per operation.
fn split_brain_heal() -> History<CounterOp> {
    let sc = scenario::split_brain_heal();
    let mut driver = OpDriver::new(OpCounter, sc.cfg.n_replicas, |rng: &mut Rng, _, _| {
        Some(workloads::counter(rng))
    });
    sim::run(&mut driver, &sc.cfg, 0);
    assert!(driver.converged());
    driver.into_cluster().into_history()
}

/// The witness search allocates at most one and a half blocks per
/// operation: the per-history structure (the queries' visible-update rows,
/// one justification frontier per query) and each update depth's frontier
/// buffer on first use. The placements themselves allocate nothing. 311
/// blocks for the 266 operations measured (debug and release alike, the
/// debug build's re-check of the witness subtracted); with flat successor
/// and watcher lists and a per-operation missing-predecessor count it took
/// 318, and the engine that cloned a frontier per placement and a query
/// frontier per visible update took 14 197.
#[test]
fn witness_search_allocates_linearly_in_the_history() {
    let h = split_brain_heal();
    let n = h.len() as u64;
    let (mut blocks, (outcome, stats)) =
        allocs_during(|| search_with_stats(&h, &CounterSpec, u64::MAX));
    let SearchOutcome::Linearizable(witness) = outcome else {
        panic!("a recorded counter run must linearize: {outcome:?}");
    };
    // A debug build re-checks the witness (`debug_assert!`); that replay
    // is not the walk's.
    if cfg!(debug_assertions) {
        let (check, verdict) =
            allocs_during(|| check_linearization(&h, &CounterSpec, &witness.order));
        assert_eq!(verdict, Ok(()));
        blocks -= check;
    }
    assert!(
        stats.nodes_expanded <= n + 1,
        "{} expansions",
        stats.nodes_expanded
    );
    assert_eq!(stats.memo_entries, 0, "no configuration failed");
    assert!(
        2 * blocks <= 3 * n,
        "{blocks} blocks for {n} operations = {:.2} per operation",
        blocks as f64 / n as f64
    );
}
