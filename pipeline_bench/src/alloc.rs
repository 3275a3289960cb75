//! A counting allocator: the exact peak of live heap bytes over a chosen
//! stretch of the run.
//!
//! `VmHWM` cannot serve as the memory metric here. It covers the whole
//! process, so on the live workloads it reports the set-up's batch
//! cross-check and not the streaming monitor; and on footprints of under
//! ten MiB it moves by one or two from run to run (arenas, trim and mmap
//! thresholds). The runner therefore installs [`Counting`] as its global
//! allocator. It forwards every call to the system allocator; between
//! [`arm`] and [`disarm`] it also keeps the number of heap bytes
//! allocated since arming that are still live, and its maximum, which for
//! a single-threaded workload is a pure function of the seed.
//!
//! The timed rounds run disarmed — one relaxed load and a predicted
//! branch per call — because counting costs a locked add per allocation
//! and per release (≈5 % on `live_churn`). The runner arms it for one
//! extra, untimed round.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

// Statistics only: these publish no other data, so `Relaxed` suffices.
static ARMED: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// The system allocator with optional live-byte accounting.
pub struct Counting;

fn grew(bytes: usize) {
    if ARMED.load(Relaxed) {
        let live = LIVE.fetch_add(bytes as isize, Relaxed) + bytes as isize;
        if live > PEAK.load(Relaxed) {
            PEAK.fetch_max(live, Relaxed);
        }
    }
}

fn shrank(bytes: usize) {
    // A block from before `arm` may be released here and take the count
    // below zero; the runner arms at a round boundary, where nothing
    // transient is live, so that stays negligible.
    if ARMED.load(Relaxed) {
        LIVE.fetch_sub(bytes as isize, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the accounting touches only
// the three atomics above and never the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as in `dealloc`; `new_size` is the caller's to vouch for.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Starts counting from zero.
pub fn arm() {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ARMED.store(true, Relaxed);
}

/// Stops counting and returns the largest number of bytes allocated
/// since [`arm`] that were live at once (0 when [`Counting`] is not the
/// global allocator).
pub fn disarm() -> usize {
    ARMED.store(false, Relaxed);
    PEAK.load(Relaxed).max(0) as usize
}
