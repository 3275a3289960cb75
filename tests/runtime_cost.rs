//! The cost contract of the lattice delivery core, in deterministic counts:
//! a receive costs what the message changes, a snapshot, a resync, a
//! write-ahead checkpoint and a read cost nothing, and a replica state is
//! copied once per write-after-share — never per send, per invoke and per
//! receive.
//!
//! The element type counts its own clones, so most numbers below are counts
//! of element copies, not times; one test counts `clock_floor` scans
//! instead. Debug builds of [`DeltaCluster`] additionally copy the state
//! once per receive to check the flag `join_into` / `merge_into` returns,
//! and read the clock floor once per state write to check the Lamport
//! clock against it (`debug_assert`s, see `ral_runtime::delta`); the tests
//! that go through a receive add those explicitly, the way
//! `tests/search_cost.rs` subtracts the debug replay.

use ral_core::ids::ReplicaId;
use ral_crdts::state::lww_element_set::{LwwElementSet, LwwSetCall, LwwSetState};
use ral_runtime::delta::{DeltaCluster, DeltaConfig, DeltaCrdt};
use ral_runtime::gen::{GenCtx, GenOutcome};
use ral_runtime::state_based::{StateBased, StateCluster};
use std::cell::Cell;

thread_local! {
    static CLONES: Cell<u64> = const { Cell::new(0) };
    static FLOOR_SCANS: Cell<u64> = const { Cell::new(0) };
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
    one.added.insert((
        Counted(999),
        ral_core::timestamp::Ts::new(1_000, ReplicaId(0)),
    ));
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
    let check = debug_flag_check(c.state(r(1)));
    let (clones, changed) = clones_during(|| c.apply(r(1), second));
    assert!(!changed);
    assert_eq!(clones, check, "a duplicate delivery clones nothing");
}

#[test]
fn a_snapshot_is_free_and_the_state_is_copied_once_per_write_after_share() {
    let mut c = StateCluster::new(Lww::new(), 2);
    for x in 0..20 {
        c.invoke(r(0), LwwSetCall::Add(Counted(x))).unwrap();
    }
    let (clones, _) = clones_during(|| c.send(r(0)));
    assert_eq!(clones, 0, "a snapshot shares the replica's state");
    let (clones, _) = clones_during(|| (c.send(r(0)), c.persist(r(0)), c.send(r(0))));
    assert_eq!(clones, 0, "so does a checkpoint, however many are taken");

    c.invoke(r(1), LwwSetCall::Add(Counted(100))).unwrap();
    let first = c.send(r(1));
    c.invoke(r(1), LwwSetCall::Add(Counted(101))).unwrap();
    let second = c.send(r(1));
    let check = debug_flag_check(c.state(r(0)));
    let (clones, ()) = clones_during(|| c.apply(r(0), first));
    assert_eq!(
        clones,
        20 + 1 + check,
        "first write after the share: one copy + one pair"
    );
    let check = debug_flag_check(c.state(r(0)));
    let (clones, ()) = clones_during(|| c.apply(r(0), second));
    assert_eq!(
        clones,
        1 + check,
        "second write: the state is this replica's alone"
    );
    let check = debug_flag_check(c.state(r(0)));
    let (clones, ()) = clones_during(|| c.apply(r(0), second));
    assert_eq!(clones, check);
    // The snapshots taken before the writes still hold what they held.
    assert_eq!(pairs(c.message_state(0)), 20);
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
    let mut c = StateCluster::new(Floors(Lww::new()), 2);
    for x in 0..20 {
        c.invoke(r(0), LwwSetCall::Add(Counted(x))).unwrap();
    }
    let old = c.send(r(0));
    c.invoke(r(0), LwwSetCall::Add(Counted(20))).unwrap();
    let new = c.send(r(0));
    let (scans, ()) = floor_scans_during(|| c.apply(r(1), new));
    assert_eq!(
        scans,
        1 + debug_clock_check(),
        "a snapshot that adds something re-reads the floor once"
    );
    for (m, what) in [(new, "duplicate"), (old, "stale")] {
        let (scans, ()) = floor_scans_during(|| c.apply(r(1), m));
        assert_eq!(
            scans,
            debug_clock_check(),
            "a {what} snapshot changes nothing and scans nothing"
        );
    }
}
