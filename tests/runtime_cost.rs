//! The cost contract of the lattice delivery core, in deterministic counts:
//! a receive costs what the message changes, a covered arrival whose labels
//! the receiver has seen costs nothing at all, a snapshot, a resync, a
//! write-ahead checkpoint and a read cost nothing, and a replica state is
//! copied once per write-after-share — never per send, per invoke and per
//! receive.
//!
//! The element type counts its own clones, so most numbers below are counts
//! of element copies, not times; two tests count `clock_floor` scans
//! instead, and five count heap allocations (this binary installs a
//! per-thread counting `#[global_allocator]`): a shared state is copied in
//! one block per pair set, a join that adds nothing allocates nothing, and
//! neither does a dropped arrival or a warm checkpoint.
//! Debug builds of [`DeltaCluster`] additionally copy the state
//! once per merged receive to check the flag `join_into` / `merge_into`
//! returns, and read the clock floor once per state write to check the
//! Lamport clock against it (`debug_assert`s, see `ral_runtime::delta`); the
//! tests that go through a merged receive add those explicitly, the way
//! `tests/search_cost.rs` subtracts the debug replay. A dropped arrival
//! makes neither.
//!
//! The last section holds the op-based delivery core's holdback to its
//! contract in `ral-obs` counts: a receive costs what it releases, not
//! what is held.

use ral_core::ids::{ObjId, ReplicaId};
use ral_core::rng::Rng;
use ral_core::timestamp::Ts;
use ral_crdts::op::counter::{CounterCall, OpCounter};
use ral_crdts::state::lww_element_set::{LwwElementSet, LwwSetCall, LwwSetState};
use ral_runtime::delta::{DeltaCluster, DeltaConfig, DeltaCrdt};
use ral_runtime::gen::{GenCtx, GenOutcome};
use ral_runtime::mailbox::Received;
use ral_runtime::multi::{MultiCluster, TsMode};
use ral_runtime::op_based::Cluster;
use ral_runtime::state_based::StateBased;
use ral_sim::driver::{Driver, MultiDriver};
use ral_sim::fault::CrashPlan;
use ral_sim::scenario;
use ral_sim::sim::{self, SimConfig};
use ral_sim::time::SimTime;
use ral_verify::workloads;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, PoisonError};

thread_local! {
    static CLONES: Cell<u64> = const { Cell::new(0) };
    static FLOOR_SCANS: Cell<u64> = const { Cell::new(0) };
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

/// Heap allocations (fresh blocks and resizes) made while `f` runs.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// A set element that counts how often it is cloned (per test thread).
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

fn r(i: u32) -> ReplicaId {
    ReplicaId(i)
}

fn pairs(state: &LwwSetState<Counted>) -> u64 {
    (state.added.len() + state.removed.len()) as u64
}

/// The state copy a debug-build receive makes to check the changed-flag of
/// `join_into` / `merge_into`; release builds make none.
fn debug_flag_check(state: &LwwSetState<Counted>) -> u64 {
    if cfg!(debug_assertions) {
        pairs(state)
    } else {
        0
    }
}

type Lww = LwwElementSet<Counted>;

/// A state of 128 add-pairs and 128 remove-pairs, built through invocations.
fn big_delta_cluster() -> DeltaCluster<Lww> {
    let mut c = DeltaCluster::new(Lww::new(), DeltaConfig { resync_after: 512 }, 2);
    for x in 0..128 {
        c.invoke(r(1), LwwSetCall::Add(Counted(x))).unwrap();
        c.invoke(r(1), LwwSetCall::Remove(Counted(x))).unwrap();
    }
    assert_eq!(pairs(c.state(r(1))), 256);
    c
}

#[test]
fn a_one_pair_delta_costs_one_clone_and_its_duplicate_none() {
    // At the trait: the in-place joins clone what they add.
    let lww = Lww::new();
    let big = big_delta_cluster().state(r(1)).clone();
    let mut one = lww.initial(2);
    one.added
        .insert((Counted(999), Ts::new(1_000, ReplicaId(0))));
    let mut state = big.clone();
    let (clones, changed) = clones_during(|| lww.join_into(&mut state, &one));
    assert_eq!((clones, changed), (1, true));
    let (clones, changed) = clones_during(|| lww.join_into(&mut state, &one));
    assert_eq!((clones, changed), (0, false), "a duplicate adds nothing");
    let (clones, changed) = clones_during(|| lww.merge_into(&mut state, &big));
    assert_eq!(
        (clones, changed),
        (0, false),
        "merging a state below this one adds nothing"
    );
    let mut batch = one.clone();
    let (clones, ()) = clones_during(|| lww.join_deltas_into(&mut batch, &one));
    assert_eq!(clones, 0);

    // Through the cluster: the same, once the state is no longer shared
    // with the write-ahead checkpoint.
    let mut c = big_delta_cluster();
    c.invoke(r(0), LwwSetCall::Add(Counted(500))).unwrap();
    let first = c.gossip(r(0));
    c.invoke(r(0), LwwSetCall::Add(Counted(501))).unwrap();
    let second = c.gossip(r(0)); // unacknowledged: carries both pairs
    let shared = pairs(c.state(r(1)));
    let check = debug_flag_check(c.state(r(1)));
    let (clones, changed) = clones_during(|| c.apply(r(1), first));
    assert!(changed);
    assert_eq!(
        clones,
        shared + 1 + check,
        "the first write after a checkpoint copies the state once"
    );
    let check = debug_flag_check(c.state(r(1)));
    let (clones, changed) = clones_during(|| c.apply(r(1), second));
    assert!(changed);
    assert_eq!(clones, 1 + check, "one new pair into 257: one clone");
    let (clones, changed) = clones_during(|| c.apply(r(1), second));
    assert!(!changed);
    assert_eq!(
        clones, 0,
        "a duplicate delivery is dropped: no clone, debug or not"
    );
}

#[test]
fn a_snapshot_is_free_and_the_state_is_copied_once_per_write_after_share() {
    let mut c = DeltaCluster::new(Lww::new(), DeltaConfig::default(), 2);
    for x in 0..20 {
        c.invoke(r(0), LwwSetCall::Add(Counted(x))).unwrap();
    }
    let (clones, _) = clones_during(|| c.resync(r(0)));
    assert_eq!(clones, 0, "a snapshot shares the replica's state");
    let (clones, _) = clones_during(|| (c.resync(r(0)), c.persist(r(0)), c.resync(r(0))));
    assert_eq!(clones, 0, "so does a checkpoint, however many are taken");

    c.invoke(r(1), LwwSetCall::Add(Counted(100))).unwrap();
    let first = c.resync(r(1));
    c.invoke(r(1), LwwSetCall::Add(Counted(101))).unwrap();
    let second = c.resync(r(1));
    let check = debug_flag_check(c.state(r(0)));
    let (clones, _) = clones_during(|| c.apply(r(0), first));
    assert_eq!(
        clones,
        20 + 1 + check,
        "first write after the share: one copy + one pair"
    );
    let check = debug_flag_check(c.state(r(0)));
    let (clones, _) = clones_during(|| c.apply(r(0), second));
    assert_eq!(
        clones,
        1 + check,
        "second write: the state is this replica's alone"
    );
    let (clones, _) = clones_during(|| c.apply(r(0), second));
    assert_eq!(clones, 0, "a duplicate snapshot is dropped, debug or not");
    // The snapshots taken before the writes still hold what they held.
    assert_eq!(c.message(0).state().map(pairs), Some(20));
    assert_eq!(pairs(c.state(r(0))), 22);
}

#[test]
fn a_write_ahead_invoke_clones_no_buffered_delta() {
    let mut c = DeltaCluster::new(Lww::new(), DeltaConfig::default(), 2);
    for x in 0..64 {
        c.invoke(r(0), LwwSetCall::Add(Counted(x))).unwrap();
    }
    assert_eq!(c.buffered(r(0)), 64);
    let held = pairs(c.state(r(0)));
    let (clones, _) = clones_during(|| c.invoke(r(0), LwwSetCall::Add(Counted(64))).unwrap());
    // The state is shared with the last checkpoint, so joining the delta
    // into it copies the 64 pairs once (write-after-share); the mutation
    // itself clones its element into the delta, the state and the label.
    // The checkpoint of state + 65 buffered entries adds nothing.
    assert_eq!(clones, held + 3);
    assert_eq!(c.buffered(r(0)), 65);
}

#[test]
fn a_read_invoke_copies_no_state() {
    let mut c = DeltaCluster::new(Lww::new(), DeltaConfig::default(), 2);
    for x in 0..64 {
        c.invoke(r(0), LwwSetCall::Add(Counted(x))).unwrap();
    }
    let state: *const LwwSetState<Counted> = c.state(r(0));
    let (clones, read) = clones_during(|| c.invoke(r(0), LwwSetCall::Read).unwrap());
    let view = read.ret.expect("a read returns the view").len() as u64;
    assert_eq!(view, 64);
    // What a read copies is its answer — the view, and the label's copy of
    // it — never the 64 pairs of the state, which stays where it was.
    assert_eq!(clones, 2 * view);
    assert!(std::ptr::eq(state, c.state(r(0))), "a read moved the state");
    assert_eq!(c.buffered(r(0)), 64, "a read buffers no delta");
}

#[test]
fn a_batch_of_64_entries_clones_each_pair_once() {
    let mut c = DeltaCluster::new(Lww::new(), DeltaConfig::default(), 2);
    for x in 0..64 {
        c.invoke(r(0), LwwSetCall::Add(Counted(x))).unwrap();
    }
    let (clones, m) = clones_during(|| c.gossip(r(0)));
    assert!(!c.message(m).is_resync() && !c.message(m).is_heartbeat());
    assert_eq!(
        clones, 64,
        "folded in place: no intermediate batch is rebuilt"
    );
    assert_eq!(
        c.message_bytes(m, r(1)),
        24 + 16 + Lww::new().state_bytes(c.state(r(0)))
    );
}

#[test]
fn a_resync_shares_the_state_it_ships() {
    let mut c = DeltaCluster::new(Lww::new(), DeltaConfig { resync_after: 8 }, 2);
    for x in 0..20 {
        c.invoke(r(0), LwwSetCall::Add(Counted(x))).unwrap();
    }
    let (clones, m) = clones_during(|| c.gossip(r(0)));
    assert!(c.message(m).is_resync(), "20 buffered entries outgrew 8");
    assert_eq!(clones, 0, "the message shares the replica's state");
    assert_eq!(
        c.message_bytes(m, r(1)),
        24 + 8 + Lww::new().state_bytes(c.state(r(0)))
    );
}

#[test]
fn a_write_after_share_copies_each_pair_set_in_one_block() {
    let big = big_delta_cluster().state(r(1)).clone();
    let (allocs, copy) = allocs_during(|| big.clone());
    assert!(allocs <= 2, "{allocs} allocations to copy 256 pairs");
    assert_eq!(copy, big);
}

#[test]
fn a_snapshot_that_adds_nothing_allocates_nothing() {
    let lww = Lww::new();
    let big = big_delta_cluster().state(r(1)).clone();
    let mut lower = big.clone();
    lower.added = big.added.iter().take(100).cloned().collect();
    let mut state = big.clone();
    for (b, what) in [(&big, "an equal"), (&lower, "a lower")] {
        let (allocs, changed) = allocs_during(|| lww.merge_into(&mut state, b));
        assert!(!changed);
        assert_eq!(allocs, 0, "merging {what} state allocated");
    }
}

#[test]
fn a_batch_of_fresh_pairs_joins_with_at_most_two_allocations() {
    let lww = Lww::new();
    let big = big_delta_cluster().state(r(1)).clone();
    for k in [1u16, 8, 64, 256] {
        // Stamps above every stored one, spread over the state's elements
        // (and past them for k = 256): each pair lands at the end of its
        // element's run, not after the whole set.
        let mut batch = lww.initial(2);
        for x in 0..k {
            let ts = Ts::new(1_000 + u64::from(x), ReplicaId(0));
            batch.added.insert((Counted(x * 128 / k.min(128)), ts));
        }
        let fresh = batch.added.len();
        let mut state = big.clone();
        let (allocs, changed) = allocs_during(|| lww.join_into(&mut state, &batch));
        assert!(changed);
        assert_eq!(state.added.len(), big.added.len() + fresh);
        assert!(allocs <= 2, "{allocs} allocations to join {fresh} pairs");
    }
}

/// [`Lww`] with its `clock_floor` scans counted (per test thread).
#[derive(Clone, Copy)]
struct Floors(Lww);

/// `clock_floor` scans made while `f` runs.
fn floor_scans_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = FLOOR_SCANS.with(Cell::get);
    let out = f();
    (FLOOR_SCANS.with(Cell::get) - before, out)
}

/// The floor a debug build reads to check the clock after a receive.
fn debug_clock_check() -> u64 {
    cfg!(debug_assertions) as u64
}

impl StateBased for Floors {
    type State = LwwSetState<Counted>;
    type Call = LwwSetCall<Counted>;
    type Ret = <Lww as StateBased>::Ret;
    type Label = <Lww as StateBased>::Label;

    fn initial(&self, n: usize) -> Self::State {
        self.0.initial(n)
    }

    fn merge_into(&self, a: &mut Self::State, b: &Self::State) -> bool {
        self.0.merge_into(a, b)
    }

    fn leq(&self, a: &Self::State, b: &Self::State) -> bool {
        self.0.leq(a, b)
    }

    fn label(&self, call: &Self::Call, ret: &Self::Ret) -> Self::Label {
        self.0.label(call, ret)
    }

    fn clock_floor(&self, state: &Self::State) -> u64 {
        FLOOR_SCANS.with(|c| c.set(c.get() + 1));
        self.0.clock_floor(state)
    }
}

impl DeltaCrdt for Floors {
    type Delta = LwwSetState<Counted>;

    fn invoke(
        &self,
        state: &Self::State,
        call: &Self::Call,
        ctx: &mut GenCtx,
    ) -> GenOutcome<Self::Ret, Self::Delta> {
        self.0.invoke(state, call, ctx)
    }

    fn diff(&self, pre: &Self::State, post: &Self::State) -> Self::Delta {
        self.0.diff(pre, post)
    }

    fn join_into(&self, state: &mut Self::State, delta: &Self::Delta) -> bool {
        self.0.join_into(state, delta)
    }

    fn join_deltas_into(&self, a: &mut Self::Delta, b: &Self::Delta) {
        self.0.join_deltas_into(a, b);
    }

    fn delta_bytes(&self, delta: &Self::Delta) -> usize {
        self.0.delta_bytes(delta)
    }

    fn state_bytes(&self, state: &Self::State) -> usize {
        self.0.state_bytes(state)
    }
}

#[test]
fn a_stale_or_duplicate_snapshot_never_scans_the_clock_floor() {
    let mut c = DeltaCluster::new(Floors(Lww::new()), DeltaConfig::default(), 2);
    for x in 0..20 {
        c.invoke(r(0), LwwSetCall::Add(Counted(x))).unwrap();
    }
    let old = c.resync(r(0));
    c.invoke(r(0), LwwSetCall::Add(Counted(20))).unwrap();
    let new = c.resync(r(0));
    let (scans, _) = floor_scans_during(|| c.apply(r(1), new));
    assert_eq!(
        scans,
        1 + debug_clock_check(),
        "a snapshot that adds something re-reads the floor once"
    );
    for (m, what) in [(new, "duplicate"), (old, "stale")] {
        let (scans, _) = floor_scans_during(|| c.apply(r(1), m));
        assert_eq!(
            scans, 0,
            "a {what} snapshot is dropped and scans nothing, debug or not"
        );
    }
}

#[test]
fn a_covered_arrival_whose_labels_are_seen_costs_nothing() {
    let mut c = DeltaCluster::new(Floors(Lww::new()), DeltaConfig::default(), 2);
    for x in 0..20 {
        c.invoke(r(0), LwwSetCall::Add(Counted(x))).unwrap();
    }
    let batch = c.gossip(r(0));
    let snapshot = c.resync(r(0));
    assert!(c.apply(r(1), snapshot));
    // r1's state is shared with its checkpoint (a read writes one) and
    // with an unreleased snapshot of its own.
    c.invoke(r(1), LwwSetCall::Read).unwrap();
    let own = c.resync(r(1));
    let state: *const LwwSetState<Counted> = c.state(r(1));
    for m in [snapshot, batch, snapshot] {
        assert!(c.message(m).is_covered());
        let (scans, (clones, (allocs, changed))) =
            floor_scans_during(|| clones_during(|| allocs_during(|| c.apply(r(1), m))));
        assert!(!changed);
        assert_eq!(
            (clones, allocs, scans),
            (0, 0, 0),
            "element clones, allocations and floor scans of a dropped arrival"
        );
        assert!(
            std::ptr::eq(state, c.state(r(1))),
            "the shared state was copied"
        );
    }
    assert_eq!(c.message(own).state().map(pairs), Some(20));
}

#[test]
fn a_warm_write_ahead_checkpoint_allocates_nothing() {
    let mut c = DeltaCluster::new(Lww::new(), DeltaConfig::default(), 2);
    for x in 0..100 {
        c.invoke(r(0), LwwSetCall::Add(Counted(x))).unwrap();
    }
    // Every invocation checkpoints; so does `persist`, and a crash restores
    // the checkpoint. Into warm buffers, none of them allocates: the
    // seen-set, the buffer and the per-peer vectors are refilled in place.
    let (allocs, ()) = allocs_during(|| c.persist(r(0)));
    assert_eq!(allocs, 0, "a warm checkpoint allocated");
    let (allocs, ()) = allocs_during(|| {
        c.crash(r(0));
        c.restart(r(0));
    });
    assert_eq!(allocs, 0, "a crash into warm buffers allocated");
    assert_eq!((c.buffered(r(0)), pairs(c.state(r(0)))), (100, 100));
}

// ---------------------------------------------------------------------------
// The op-based holdback: a receive costs what it releases.
//
// Read through `ral-obs` counters: `runtime.holdback.probes` (admissibility
// probes of held arrivals during receives), `runtime.holdback.released`
// (held arrivals those receives applied) and `runtime.multi.candidates`
// (same-object candidates the composed rule scanned). Recording is global,
// so the tests that read it take `OBS_LOCK` and record one run at a time.

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with recording on; returns its result and the three counters.
fn holdback_counts<T>(f: impl FnOnce() -> T) -> (T, HoldbackCounts) {
    let _serial = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    ral_obs::reset();
    ral_obs::enable(None);
    let out = f();
    ral_obs::disable();
    let snap = ral_obs::drain();
    ral_obs::reset();
    let counts = HoldbackCounts {
        probes: snap.counter_total("runtime.holdback.probes"),
        released: snap.counter_total("runtime.holdback.released"),
        candidates: snap.counter_total("runtime.multi.candidates"),
    };
    (out, counts)
}

#[derive(Clone, Copy, Debug, Default)]
struct HoldbackCounts {
    probes: u64,
    released: u64,
    candidates: u64,
}

/// `pipeline_bench`'s `scale_time`: the scenario's instants times `num/den`.
fn scale_time(mut cfg: SimConfig, num: u64, den: u64) -> SimConfig {
    let f = |t: SimTime| SimTime(t.0 * num / den);
    cfg.duration = f(cfg.duration);
    for w in &mut cfg.faults.partitions {
        w.start = f(w.start);
        w.end = f(w.end);
    }
    for c in &mut cfg.faults.crashes {
        *c = CrashPlan {
            crash_at: f(c.crash_at),
            restart_at: c.restart_at.map(f),
            ..*c
        };
    }
    cfg
}

/// The `batch_composed` workload's unverified run — `multi_mix` at a third
/// of its length, 50 replicas × 32 counters, the timestamp discipline
/// alternating — on its first 20 cases at seed 1000, where the rescanning
/// holdback probed 2 477 509 times to release 55 995 records (≈44 each).
/// The filed holdback probes 68 004 times (≈1.2 each).
#[test]
fn batch_composed_receives_probe_at_most_twice_per_released_record() {
    let cfg = scale_time(scenario::multi_mix().cfg, 1, 3);
    let mut seeds = Rng::seed_from_u64(1000);
    let mut total = HoldbackCounts::default();
    for i in 0..20 {
        let (seed, mode) = (seeds.next_u64(), [TsMode::Shared, TsMode::PerObject][i % 2]);
        let cluster = MultiCluster::new(OpCounter, 32, cfg.n_replicas, mode);
        let mut driver = MultiDriver::new(cluster, |rng: &mut Rng, _, _, _: &i64| {
            Some(workloads::counter(rng))
        });
        let (run, counts) = holdback_counts(|| sim::run(&mut driver, &cfg, seed));
        assert!(driver.converged(), "case {i} diverged");
        assert!(
            run.stats.held > 500,
            "case {i} holds what the contract is about"
        );
        total.probes += counts.probes;
        total.released += counts.released;
        total.candidates += counts.candidates;
    }
    // The closure the rescanning holdback released, record for record.
    assert_eq!(total.released, 55_995, "{total:?}");
    assert!(
        total.probes <= 2 * total.released,
        "{} probes for {} released records",
        total.probes,
        total.released
    );
}

/// A replica that misses no same-object operation scans no candidate,
/// however many holes the other objects leave in its global seen frontier:
/// replica 1 takes 32 objects' operations one object at a time, so its
/// frontier stalls at object 1's first operation for the whole run.
#[test]
fn a_receive_missing_no_same_object_operation_scans_at_most_one_candidate() {
    let (objects, rounds) = (32u32, 20u32);
    let mut c = MultiCluster::new(OpCounter, objects as usize, 2, TsMode::Shared);
    for _ in 0..rounds {
        for o in 0..objects {
            c.invoke(r(0), ObjId(o), CounterCall::Inc).unwrap();
        }
    }
    let by_object: Vec<usize> = (0..objects as usize)
        .flat_map(|o| (0..rounds as usize).map(move |k| k * objects as usize + o))
        .collect();
    let (received, counts) = holdback_counts(|| {
        by_object
            .iter()
            .map(|&d| c.receive(r(1), d))
            .collect::<Vec<_>>()
    });
    assert!(received.iter().all(|&x| x == Received::Applied(1)));
    assert!(c.converged());
    assert!(
        counts.candidates <= received.len() as u64,
        "{} candidates over {} receives",
        counts.candidates,
        received.len()
    );
}

/// 10⁴ records arriving in reverse: every one but the first is held, and
/// the last arrival releases them all in one probe each — O(n) probes,
/// where rescanning the held list after every admit took O(n²).
#[test]
fn ten_thousand_reverse_order_receives_are_linear_in_probes() {
    const N: usize = 10_000;
    let mut single = Cluster::new(OpCounter, 2);
    let mut multi = MultiCluster::new(OpCounter, 32, 2, TsMode::Shared);
    for i in 0..N {
        single.invoke(r(0), CounterCall::Inc).unwrap();
        multi
            .invoke(r(0), ObjId(i as u32 % 32), CounterCall::Inc)
            .unwrap();
    }
    let (outcomes, counts) = holdback_counts(|| {
        (0..N)
            .rev()
            .map(|d| single.receive(r(1), d))
            .collect::<Vec<_>>()
    });
    assert!(outcomes[..N - 1].iter().all(|&x| x == Received::Held));
    assert_eq!(outcomes[N - 1], Received::Applied(N));
    assert_eq!(counts.released, N as u64 - 1);
    assert_eq!(counts.probes, N as u64 - 1, "one probe per released record");
    assert!(single.converged());

    let (outcomes, counts) = holdback_counts(|| {
        (0..N)
            .rev()
            .map(|d| multi.receive(r(1), d))
            .collect::<Vec<_>>()
    });
    // Each object's first operation is admitted on arrival and releases
    // the rest of its object.
    let applied: usize = outcomes
        .iter()
        .map(|x| match x {
            Received::Applied(k) => *k,
            _ => 0,
        })
        .sum();
    assert_eq!(applied, N);
    assert_eq!(counts.probes, counts.released);
    assert_eq!(counts.released, N as u64 - 32);
    assert!(
        counts.candidates <= N as u64,
        "{} candidates",
        counts.candidates
    );
    assert!(multi.converged());
}

/// 64 arrivals wait at replica 1 on operations that never reach it, one
/// per object: each was invoked at replica 2 and seen by replica 0, whose
/// next operation on that object reached replica 1 first. The holdback
/// is never empty, so every admit asks it what the operation wakes; 10⁴
/// in-order receives of another object's operations then allocate
/// nothing: an operation nothing waits on costs one probe of the index.
#[test]
fn an_admit_that_wakes_nothing_allocates_nothing() {
    // Receives emit holdback counters: keep them out of another test's
    // recording.
    let _serial = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    const N: usize = 10_000;
    const WARM: usize = 128;
    const BLOCKED: u32 = 64;
    let mut c = MultiCluster::new(OpCounter, 1 + BLOCKED as usize, 3, TsMode::Shared);
    for _ in 0..WARM + N {
        c.invoke(r(0), ObjId(0), CounterCall::Inc).unwrap();
    }
    for o in 1..=BLOCKED {
        let missed = c.n_deliveries();
        c.invoke(r(2), ObjId(o), CounterCall::Inc).unwrap();
        c.deliver(r(0), missed);
        c.invoke(r(0), ObjId(o), CounterCall::Inc).unwrap();
        assert_eq!(c.receive(r(1), missed + 1), Received::Held);
    }
    assert_eq!(c.held(r(1)), BLOCKED as usize);
    for d in 0..WARM {
        assert_eq!(c.receive(r(1), d), Received::Applied(1));
    }
    let (allocs, applied) = allocs_during(|| {
        (WARM..WARM + N)
            .filter(|&d| c.receive(r(1), d) == Received::Applied(1))
            .count()
    });
    assert_eq!(applied, N);
    assert_eq!(c.held(r(1)), BLOCKED as usize, "nothing woke");
    assert_eq!(allocs, 0, "{N} admits that wake nothing allocated");
}

/// 10⁴ arrivals, each filed under its own object's first operation, then
/// woken one by one as those operations arrive: the index grows by
/// doubling and hands its storage back when the last waiter wakes, so the
/// whole exchange allocates a few dozen blocks, not one per arrival.
#[test]
fn filing_and_waking_ten_thousand_arrivals_allocates_a_few_dozen_blocks() {
    let _serial = OBS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    const N: usize = 10_000;
    let mut c = MultiCluster::new(OpCounter, N, 2, TsMode::Shared);
    for _ in 0..2 {
        for o in 0..N {
            c.invoke(r(0), ObjId(o as u32), CounterCall::Inc).unwrap();
        }
    }
    let (allocs, ()) = allocs_during(|| {
        for d in N..2 * N {
            assert_eq!(c.receive(r(1), d), Received::Held);
        }
        assert_eq!(c.held(r(1)), N);
        for d in 0..N {
            assert_eq!(c.receive(r(1), d), Received::Applied(2));
        }
    });
    assert_eq!(c.held(r(1)), 0);
    assert!(c.converged());
    assert!(
        allocs <= 64,
        "{allocs} allocations to file and wake {N} arrivals"
    );
}
