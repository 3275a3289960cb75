//! The simulator's cost contract on a 50-replica reliable fan-out: a
//! broadcast costs what it delivers.
//!
//! A test binary of its own, because it installs a counting
//! `#[global_allocator]`. Every operation is broadcast to the other 49
//! replicas, so a run is almost all transmissions and arrivals. Scheduling
//! them (the event queue) and applying them must not allocate per event;
//! what is left is amortised growth, pinned at its measured count. A
//! [`sim::run`] records no trace, so a trace growing inside it — one
//! regrowth per doubling, 15 on this run — fails the pin.
//!
//! What an operation does keep is the replica's seen-set, copied into the
//! history as the operation's visibility. That copy is the record the
//! checkers read, not overhead, but it costs its tail words, not its
//! index: on the fan-out, operation `i` sees exactly `0..i`, a full-word
//! prefix plus at most one tail word. So the copies are pinned at ≤ 16
//! bytes per operation for both op-based cluster kinds, where a dense copy
//! from operation 0 cost ≈ `i / 8` bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ral_core::ids::{ObjId, ReplicaId};
use ral_core::rng::Rng;
use ral_crdts::op::counter::{CounterCall, OpCounter};
use ral_runtime::multi::{MultiCluster, TsMode};
use ral_sim::driver::{Driver, MultiDriver, OpDriver, Received};
use ral_sim::fault::FaultPlan;
use ral_sim::network::{Latency, LinkFaults, Network, Topology};
use ral_sim::sim::{self, SimConfig};
use ral_sim::time::SimTime;

/// Allocations made outside [`Driver::invoke`] (the engine and the
/// receives) and inside it.
const ENGINE: usize = 0;
const INVOKE: usize = 1;

thread_local! {
    static PHASE: Cell<usize> = const { Cell::new(ENGINE) };
    static ALLOCATIONS: [Cell<u64>; 2] = const { [Cell::new(0), Cell::new(0)] };
    static FRESH_BYTES: [Cell<u64>; 2] = const { [Cell::new(0), Cell::new(0)] };
}

/// The system allocator, counting (per thread) every call that hands out
/// a block, by phase, and the bytes of fresh blocks (not regrowth), by
/// phase.
struct Counting;

fn count_allocation() {
    let _ = PHASE.try_with(|phase| {
        let _ = ALLOCATIONS.try_with(|a| a[phase.get()].set(a[phase.get()].get() + 1));
    });
}

fn count_fresh_bytes(size: usize) {
    let _ = PHASE.try_with(|phase| {
        let _ = FRESH_BYTES.try_with(|b| b[phase.get()].set(b[phase.get()].get() + size as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the accounting touches only
// thread-local counters and never the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        count_fresh_bytes(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        count_fresh_bytes(layout.size());
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: as in `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations(phase: usize) -> u64 {
    ALLOCATIONS.with(|a| a[phase].get())
}

fn fresh_bytes(phase: usize) -> u64 {
    FRESH_BYTES.with(|b| b[phase].get())
}

/// A driver that attributes the allocations of each invocation to
/// [`INVOKE`] and counts the successful invocations past `warm` by how
/// many allocations each made: none, one, two, more; and the bytes of the
/// fresh blocks they made (regrowth of the history and the delivery pool
/// reallocates, so what is left is the seen-set copies). It also counts
/// the engine's [`Driver::origin`] calls and the arrivals that were
/// applied.
struct Phased<D> {
    inner: D,
    warm: usize,
    invoked: usize,
    made: [u64; 4],
    copied_bytes: u64,
    origin_calls: Cell<usize>,
    delivered: u64,
}

impl<D> Phased<D> {
    fn new(inner: D, warm: usize) -> Self {
        Phased {
            inner,
            warm,
            invoked: 0,
            made: [0; 4],
            copied_bytes: 0,
            origin_calls: Cell::new(0),
            delivered: 0,
        }
    }
}

impl<D: Driver> Driver for Phased<D> {
    const RELIABLE: bool = D::RELIABLE;
    const GOSSIPS: bool = D::GOSSIPS;

    fn n_replicas(&self) -> usize {
        self.inner.n_replicas()
    }

    fn invoke(&mut self, rng: &mut Rng, r: ReplicaId) -> bool {
        let before = allocations(INVOKE);
        let bytes_before = fresh_bytes(INVOKE);
        PHASE.with(|p| p.set(INVOKE));
        let ok = self.inner.invoke(rng, r);
        PHASE.with(|p| p.set(ENGINE));
        if ok {
            self.invoked += 1;
            if self.invoked > self.warm {
                let made = allocations(INVOKE) - before;
                self.made[made.min(3) as usize] += 1;
                self.copied_bytes += fresh_bytes(INVOKE) - bytes_before;
            }
        }
        ok
    }

    fn gossip(&mut self, r: ReplicaId) -> bool {
        self.inner.gossip(r)
    }

    fn n_messages(&self) -> usize {
        self.inner.n_messages()
    }

    fn origin(&self, m: usize) -> ReplicaId {
        self.origin_calls.set(self.origin_calls.get() + 1);
        self.inner.origin(m)
    }

    fn receive(&mut self, r: ReplicaId, m: usize) -> Received {
        let received = self.inner.receive(r, m);
        if let Received::Applied(_) = received {
            self.delivered += 1;
        }
        received
    }

    fn message_bytes(&self, m: usize, to: ReplicaId) -> usize {
        self.inner.message_bytes(m, to)
    }

    fn release(&mut self, m: usize) {
        self.inner.release(m)
    }

    fn is_up(&self, r: ReplicaId) -> bool {
        self.inner.is_up(r)
    }

    fn crash(&mut self, r: ReplicaId) {
        self.inner.crash(r)
    }

    fn restart(&mut self, r: ReplicaId) {
        self.inner.restart(r)
    }

    fn final_sync(&mut self) {
        self.inner.final_sync()
    }

    fn converged(&self) -> bool {
        self.inner.converged()
    }
}

const REPLICAS: usize = 50;

/// Allocations outside [`Driver::invoke`] on the fan-out, both cluster
/// kinds: the queue's, the engine's tables' and the receives' amortised
/// growth (85 when every run kept its trace).
const ENGINE_ALLOCATIONS: u64 = 70;

/// The streaming benchmark's fan-out shape: 50 replicas on a 1–3-tick
/// LAN, each invoking every 2 000–4 000 ticks, no faults.
fn fanout() -> SimConfig {
    SimConfig {
        n_replicas: REPLICAS,
        duration: SimTime(40_000),
        invoke_every: Latency::jittered(2_000, 2_000),
        gossip_every: Latency::jittered(20, 25),
        network: Network {
            topology: Topology::Uniform(Latency::jittered(1, 2)),
            faults: LinkFaults::NONE,
            retry: 10,
        },
        faults: FaultPlan::none(),
        final_sync: true,
    }
}

fn counter_call(rng: &mut Rng) -> CounterCall {
    if rng.random_bool(0.8) {
        CounterCall::Inc
    } else {
        CounterCall::Read
    }
}

/// Runs `driver` through the fan-out and checks the contract: engine and
/// receives at most 0.01 allocations per delivered arrival and at most
/// [`ENGINE_ALLOCATIONS`] in all, one [`Driver::origin`] call per routed
/// message (none per arrival), one allocation — the seen-set copy —
/// for nine operations in ten, only amortised growth beside it, and at
/// most 16 bytes of seen-set copy per operation.
fn check_contract<D: Driver>(name: &str, driver: D) {
    let cfg = fanout();
    let mut driver = Phased::new(driver, REPLICAS);
    let engine_before = allocations(ENGINE);
    let run = sim::run(&mut driver, &cfg, 1000);
    let engine = allocations(ENGINE) - engine_before;
    assert!(driver.converged(), "{name}: no convergence");

    let delivered = driver.delivered;
    assert!(
        delivered >= 40 * run.stats.invokes as u64,
        "{name}: a fan-out delivers every operation to the other replicas"
    );
    assert!(
        engine * 100 <= delivered,
        "{name}: {engine} engine and receive allocations for {delivered} delivered arrivals"
    );
    assert!(
        engine <= ENGINE_ALLOCATIONS,
        "{name}: {engine} engine and receive allocations, {ENGINE_ALLOCATIONS} measured"
    );
    assert_eq!(
        driver.origin_calls.get(),
        driver.n_messages(),
        "{name}: the engine asks a message's origin once, when it routes it"
    );

    // Growth of the history and the delivery pool lands on a few
    // invocations; every other one allocates the seen-set copy alone, or
    // nothing when the copy has no tail word.
    let [none, one, two, more] = driver.made;
    let measured = none + one + two + more;
    assert!(measured * 2 >= run.stats.invokes as u64);
    assert!(
        one * 10 >= measured * 9,
        "{name}: {one} of {measured} operations allocate once ({none} none, {two} twice, {more} more)"
    );
    let copied = driver.copied_bytes;
    assert!(
        copied <= 16 * measured,
        "{name}: {copied} bytes of seen-set copies for {measured} operations"
    );
}

#[test]
fn op_based_fan_out_costs_what_it_delivers() {
    let driver = OpDriver::new(OpCounter, REPLICAS, |rng: &mut Rng, _, _| {
        Some(counter_call(rng))
    });
    check_contract("Cluster", driver);
}

#[test]
fn composed_fan_out_costs_what_it_delivers() {
    let cluster = MultiCluster::new(OpCounter, 8, REPLICAS, TsMode::Shared);
    let driver = MultiDriver::new(cluster, |rng: &mut Rng, _, _: ObjId, _: &i64| {
        Some(counter_call(rng))
    });
    check_contract("MultiCluster", driver);
}
