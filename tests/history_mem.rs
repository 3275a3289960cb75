//! The history's memory contract: visibility costs the window, not the
//! history.
//!
//! A test binary of its own, because it installs a counting
//! `#[global_allocator]` that tracks live heap bytes. A predecessor set is
//! a full-word prefix plus tail words, so an operation's visibility costs
//! the operations above its origin's seen-frontier — a handful — and not
//! its index. Stored densely from operation 0, the 100k-op monitored churn
//! below held ≈ 658 MiB of predecessor sets; it must now hold at most
//! 16 MiB of live heap in all at its end, history included (13.9 MiB
//! measured; 17.0 MiB while the monitor's feed kept an entry per
//! operation of the stream, 25.0 MiB when every run kept its trace).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ral_core::bitset::BitSet;
use ral_core::label::Identity;
use ral_core::ralin::Verdict;
use ral_core::rng::Rng;
use ral_crdts::op::counter::OpCounter;
use ral_sim::driver::{Driver, OpDriver};
use ral_sim::fault::{FaultPlan, PartitionWindow};
use ral_sim::network::{Latency, LinkFaults, Network, Topology};
use ral_sim::sim::{self, SimConfig};
use ral_sim::time::SimTime;
use ral_sim::MonitoredDriver;
use ral_spec::counter::CounterSpec;
use ral_verify::workloads;

thread_local! {
    // Per thread, so the two tests of this binary, run in parallel, do
    // not count each other's blocks.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(bytes: i64) {
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

/// Heap bytes this thread holds, counted since it started.
fn live() -> usize {
    LIVE.with(Cell::get).max(0) as usize
}

/// The system allocator, counting (per thread) the bytes handed out and
/// not yet handed back.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the accounting touches only
// a thread-local counter and never the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: as in `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MIB: usize = 1 << 20;

/// Live heap bytes a copy of `set` holds.
fn heap_of(set: &BitSet) -> usize {
    let before = live();
    let copy = set.clone();
    let bytes = live() - before;
    drop(copy);
    bytes
}

/// A seen-set shape at every scale: everything below `index` but two
/// holes just under it, and two operations above it. Its copy costs the
/// same two tail words whether `index` is a thousand or a billion.
#[test]
fn a_predecessor_set_costs_its_tail_not_its_index() {
    for index in [1usize << 10, 1 << 20, 1 << 30] {
        let mut seen = BitSet::prefix(index);
        seen.remove(index - 3);
        seen.remove(index - 60);
        seen.insert(index + 1);
        seen.insert(index + 2);
        assert_eq!(seen.len(), index);
        assert_eq!(heap_of(&seen), 16, "index {index}");
        assert_eq!(heap_of(&BitSet::prefix(index)), 0, "index {index}");
    }
}

/// The rolling-partition churn of `monitor_streaming`'s
/// `monitored_churn_of_100k_ops_retains_only_the_window`: four replicas,
/// a 60-tick 2|2 partition every 3 000 ticks, rolling through three
/// splits.
fn churn_config() -> SimConfig {
    let (duration, cycle) = (1_050_000, 3_000);
    let splits = [vec![0u32, 0, 1, 1], vec![0, 1, 0, 1], vec![0, 1, 1, 0]];
    let mut partitions = Vec::new();
    let mut start = 1_000;
    while start + 60 < duration {
        partitions.push(PartitionWindow::new(
            SimTime(start),
            SimTime(start + 60),
            splits[partitions.len() % splits.len()].clone(),
        ));
        start += cycle;
    }
    SimConfig {
        n_replicas: 4,
        duration: SimTime(duration),
        invoke_every: Latency::jittered(25, 30),
        gossip_every: Latency::jittered(20, 25),
        network: Network {
            topology: Topology::Uniform(Latency::jittered(1, 2)),
            faults: LinkFaults::NONE,
            retry: 10,
        },
        faults: FaultPlan {
            partitions,
            crashes: vec![],
        },
        final_sync: true,
    }
}

/// ≥ 100k operations through rolling partitions, verified live: at the
/// end, with the driver and its history alive, the heap holds at most
/// 16 MiB (13.9 MiB measured, plus a margin of ≈ 15 %), and the history's
/// predecessor sets at most 16 bytes of tail per operation.
#[test]
fn monitored_churn_of_100k_ops_holds_at_most_16_mib() {
    let cfg = churn_config();
    cfg.validate();
    let inner = OpDriver::new(OpCounter, cfg.n_replicas, |rng: &mut Rng, _, _| {
        Some(workloads::counter(rng))
    });
    let mut driver = MonitoredDriver::new(inner, Identity, CounterSpec);
    sim::run(&mut driver, &cfg, 0xC0FFEE);
    let held = live();
    assert!(driver.converged(), "churn run failed to converge");
    assert_eq!(driver.verdict(), Verdict::Ok);

    let history = driver.cluster().history();
    let ops = history.len();
    assert!(ops >= 100_000, "only {ops} ops invoked; lengthen the run");
    assert!(
        held <= 16 * MIB,
        "{:.1} MiB live after {ops} ops",
        held as f64 / MIB as f64
    );
    let tails: usize = (0..ops).map(|i| heap_of(history.preds(i))).sum();
    assert!(
        tails <= 16 * ops,
        "{tails} bytes of predecessor tails for {ops} ops"
    );
}
