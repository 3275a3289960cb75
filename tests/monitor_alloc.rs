//! The streaming monitor's steady-state allocation budget.
//!
//! A test binary of its own, because it installs a counting
//! `#[global_allocator]`: on a sequential stream — every operation sees
//! all earlier ones and settles before the next arrives — an event must
//! not allocate for anything it does not change. `Spec::step` writes into
//! buffers the monitor owns (a query writes nothing), children are filled
//! into the buffers of retired, boxed configurations, settlement copies
//! each configuration's frontier into its own base buffer (a debug build
//! also replays it through one scratch buffer, to check the copy), and
//! the dedup index and the settlement filter are rebuilt in place: once
//! warm, the stream allocates only when a buffer outgrows its capacity.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use ral_core::bitset::BitSet;
use ral_core::ids::ReplicaId;
use ral_core::label::Identity;
use ral_core::ralin::{MonitorFeed, Verdict};
use ral_spec::counter::{CounterOp, CounterSpec};

// A statistic only: it publishes no other data, so `Relaxed` suffices.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every call that hands out a block.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the accounting touches only
// the atomic above and never the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: as in `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const OPS: usize = 2_000;
const REPLICAS: u32 = 4;

/// 2 000 sequential counter operations (two increments, then a read of
/// the running total) from four replicas: each sees every earlier
/// operation, and four frontier observations settle it before the next is
/// fed. Averaged over the second half of the stream — the first warms the
/// recycled buffers — the monitor may allocate at most once per hundred
/// operations (once per thousand measured; two per operation when every
/// step returned a fresh vector).
#[test]
fn sequential_stream_allocates_at_most_once_per_hundred_operations() {
    let mut feed = MonitorFeed::new(Identity, CounterSpec, REPLICAS as usize);
    let mut seen = BitSet::with_capacity(OPS);
    let mut total = 0i64;
    let mut at_half = 0;
    for i in 0..OPS {
        if i == OPS / 2 {
            at_half = ALLOCATIONS.load(Relaxed);
        }
        let label = if i % 3 == 2 {
            CounterOp::Read(total)
        } else {
            total += 1;
            CounterOp::Inc
        };
        feed.feed_op(&label, &seen);
        seen.insert(i);
        let mut verdict = feed.verdict();
        for r in 0..REPLICAS {
            verdict = feed.observe_frontier(ReplicaId(r), i + 1);
        }
        assert_eq!(verdict, Verdict::Ok, "op {i}");
        assert_eq!(feed.monitor().settled(), i + 1, "op {i} must settle");
    }
    let allocations = ALLOCATIONS.load(Relaxed) - at_half;
    let per_op = allocations as f64 / (OPS - OPS / 2) as f64;
    assert!(
        per_op <= 0.01,
        "{allocations} allocations over the last {} operations = {per_op:.2} per operation",
        OPS - OPS / 2
    );
}
