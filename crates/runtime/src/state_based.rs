//! State-based CRDT objects and their replicated execution (Appendix D).
//!
//! In a state-based CRDT every method executes locally at the origin; instead
//! of effectors, replicas exchange whole states. Replica states form a join
//! semilattice; `merge` is the least upper bound and `leq` ("compare") the
//! lattice order. The network offers **no** guarantees: a message may be
//! applied several times, at any subset of replicas, in any order, or never
//! (Appendix D.2) — convergence must come from the lattice laws alone.
//!
//! [`StateCluster`] runs them as a façade over the delta delivery core;
//! `docs/RUNTIME.md` ("Lattice transports") has the whole story.

use crate::delta::{DeltaCluster, DeltaConfig, DeltaCrdt, DeltaMessage};
pub use crate::op_based::Invoked;
use ral_core::bitset::BitSet;
use ral_core::history::History;
use ral_core::ids::ReplicaId;
use std::fmt::Debug;

/// The lattice of a state-based CRDT, in the style of Listings 7–10: its
/// states, their join and order, and its labels. The type's one mutator is
/// [`DeltaCrdt::invoke`], which reads the origin's state and returns the
/// delta the cluster joins into it in place.
pub trait StateBased {
    /// Replica state; the carrier of the join semilattice.
    type State: Clone + Debug + PartialEq;
    /// A method invocation: name plus arguments.
    type Call: Clone + Debug;
    /// Return values.
    type Ret: Clone + Debug + PartialEq;
    /// Operation labels `m(a) ⇒ b`.
    type Label: Clone + Debug;

    /// The initial replica state. Vector-clock based types (MV-Register,
    /// PN-Counter) size their payload by `n_replicas`.
    fn initial(&self, n_replicas: usize) -> Self::State;

    /// Joins `b` into `a` — afterwards `a` holds the least upper bound of the
    /// two states — and returns whether `a` changed. This is the **required**
    /// form and the one every snapshot receive runs. A snapshot is a whole
    /// state, so a join may walk both operands, but it should clone and
    /// allocate only for what `b` adds to `a`: a snapshot that adds
    /// nothing then costs comparisons and no allocation. The flag is load-bearing,
    /// like [`DeltaCrdt::join_into`]'s: a receive re-reads
    /// [`StateBased::clock_floor`] only when it is set, and debug builds of
    /// [`DeltaCluster`] check it against a before/after comparison. The
    /// lattice laws of [`crate::laws`] are stated over
    /// [`StateBased::merge`], i.e. over this method.
    fn merge_into(&self, a: &mut Self::State, b: &Self::State) -> bool;

    /// The least upper bound of two replica states, by value: clones `a`
    /// and runs [`StateBased::merge_into`]. Provided for the law checkers
    /// and tests; implementations do not override it.
    fn merge(&self, a: &Self::State, b: &Self::State) -> Self::State {
        let mut out = a.clone();
        self.merge_into(&mut out, b);
        out
    }

    /// The lattice order (`compare` in the listings): `a ⊑ b`.
    fn leq(&self, a: &Self::State, b: &Self::State) -> bool;

    /// The label of an invocation that returned `ret`.
    fn label(&self, call: &Self::Call, ret: &Self::Ret) -> Self::Label;

    /// The largest timestamp counter stored in `state`, used to keep Lamport
    /// clocks ahead of merged-in timestamps. Types without timestamps keep
    /// the default.
    fn clock_floor(&self, _state: &Self::State) -> u64 {
        0
    }
}

/// A cluster of replicas of one state-based object, exchanging whole-state
/// snapshots.
///
/// A façade over the delta delivery core: [`StateCluster::send`] is a
/// [`DeltaCluster::resync`] — the origin's state (shared copy-on-write, so
/// a snapshot costs nothing until the origin next writes), its transitive
/// label set `L` (Appendix D.2) and its clock — and an arrival merges it in
/// place. The façade never gossips, so no delta batch, heartbeat or
/// acknowledgment is ever in flight; a local mutation's buffered delta is
/// simply superseded by the replica's next snapshot.
///
/// # Examples
///
/// Local updates stay local until a snapshot message is applied, and
/// duplicate deliveries are absorbed by the merge:
///
/// ```
/// use ral_core::ids::ReplicaId;
/// use ral_runtime::state_based::StateCluster;
/// # use ral_runtime::delta::DeltaCrdt;
/// # use ral_runtime::gen::{GenCtx, GenOutcome};
/// # use ral_runtime::state_based::StateBased;
/// # #[derive(Clone)]
/// # struct MaxReg; // merge is `max`; a delta is a whole state
/// # impl StateBased for MaxReg {
/// #     type State = u32;
/// #     type Call = u32;
/// #     type Ret = ();
/// #     type Label = u32;
/// #     fn initial(&self, _n: usize) -> u32 { 0 }
/// #     fn merge_into(&self, a: &mut u32, b: &u32) -> bool { let up = b > a; *a = (*a).max(*b); up }
/// #     fn leq(&self, a: &u32, b: &u32) -> bool { a <= b }
/// #     fn label(&self, c: &u32, _: &()) -> u32 { *c }
/// # }
/// # impl DeltaCrdt for MaxReg {
/// #     type Delta = u32;
/// #     fn invoke(&self, _: &u32, c: &u32, _: &mut GenCtx) -> GenOutcome<(), u32> {
/// #         GenOutcome::update((), *c)
/// #     }
/// #     fn diff(&self, _: &u32, post: &u32) -> u32 { *post }
/// #     fn join_into(&self, s: &mut u32, d: &u32) -> bool { self.merge_into(s, d) }
/// #     fn join_deltas_into(&self, a: &mut u32, b: &u32) { self.merge_into(a, b); }
/// #     fn delta_bytes(&self, _: &u32) -> usize { 4 }
/// #     fn state_bytes(&self, _: &u32) -> usize { 4 }
/// # }
///
/// let mut cluster = StateCluster::new(MaxReg, 2);
/// cluster.invoke(ReplicaId(0), 7).unwrap();
/// assert_eq!(cluster.state(ReplicaId(1)), &0);
/// let msg = cluster.send(ReplicaId(0));
/// cluster.apply(ReplicaId(1), msg);
/// cluster.apply(ReplicaId(1), msg); // duplicate delivery is harmless
/// assert_eq!(cluster.state(ReplicaId(1)), &7);
/// ```
// Cloning forks the whole configuration (replica states, in-flight
// messages, history) — the branch point of `ral-analyze`'s search.
#[derive(Clone)]
pub struct StateCluster<C: DeltaCrdt> {
    core: DeltaCluster<C>,
}

impl<C: DeltaCrdt> StateCluster<C> {
    /// Creates a cluster of `n_replicas` replicas in the initial state.
    ///
    /// # Panics
    ///
    /// Panics if `n_replicas` is zero.
    pub fn new(crdt: C, n_replicas: usize) -> Self {
        // Only gossip reads the configuration, and the façade never gossips.
        let core = DeltaCluster::new(crdt, DeltaConfig::default(), n_replicas);
        StateCluster { core }
    }

    /// Number of replicas.
    pub fn n_replicas(&self) -> usize {
        self.core.n_replicas()
    }

    /// The CRDT descriptor.
    pub fn crdt(&self) -> &C {
        self.core.crdt()
    }

    /// The state of replica `r`.
    pub fn state(&self, r: ReplicaId) -> &C::State {
        self.core.state(r)
    }

    /// The history recorded so far. Every snapshot conveys its origin's
    /// whole seen-set, so visibility propagates transitively.
    pub fn history(&self) -> &History<C::Label> {
        self.core.history()
    }

    /// Consumes the cluster, returning its history.
    pub fn into_history(self) -> History<C::Label> {
        self.core.into_history()
    }

    /// The set of operations replica `r` has performed or merged in.
    pub fn seen(&self, r: ReplicaId) -> &BitSet {
        self.core.seen(r)
    }

    /// Message `msg`: a resync until released, a heartbeat after.
    pub fn message(&self, msg: usize) -> &DeltaMessage<C::State, C::Delta> {
        self.core.message(msg)
    }

    /// The set of operations reflected in snapshot message `msg` (empty once
    /// released).
    pub fn message_seen(&self, msg: usize) -> &BitSet {
        self.core.message(msg).seen()
    }

    /// Invokes `call` at replica `r`; returns `None` if refused. Written
    /// ahead: [`StateCluster::crash`] never loses a local operation.
    ///
    /// # Panics
    ///
    /// Panics if the replica is crashed.
    pub fn invoke(&mut self, r: ReplicaId, call: C::Call) -> Option<Invoked<C::Ret>> {
        self.core.invoke(r, call)
    }

    /// Snapshots replica `r`'s state into a message ([`DeltaCluster::resync`]);
    /// returns the message id. Nothing is copied until `r` next writes.
    ///
    /// # Panics
    ///
    /// Panics if the replica is crashed.
    pub fn send(&mut self, r: ReplicaId) -> usize {
        self.core.resync(r)
    }

    /// The replica whose snapshot message `msg` carries.
    pub fn message_origin(&self, msg: usize) -> ReplicaId {
        self.core.message_origin(msg)
    }

    /// The state snapshot message `msg` carries (payload-size accounting).
    ///
    /// # Panics
    ///
    /// Panics if the message was released.
    pub fn message_state(&self, msg: usize) -> &C::State {
        self.core
            .message(msg)
            .state()
            .expect("a released snapshot carries no state")
    }

    /// Number of messages created so far (ids are never reused).
    pub fn n_messages(&self) -> usize {
        self.core.n_messages()
    }

    /// Declares that the network will not deliver message `msg` again
    /// ([`DeltaCluster::release`]): the snapshot becomes the heartbeat its
    /// origin could have sent instead, which changes nothing when applied —
    /// exactly a dropped message, which Appendix D.2 already allows.
    pub fn release(&mut self, msg: usize) {
        self.core.release(msg);
    }

    /// Applies message `msg` at replica `r` (merging states), any number of
    /// times, in any order. A replica's own snapshot is never merged back
    /// into it ([`DeltaCluster::apply`] skips the origin).
    ///
    /// # Panics
    ///
    /// Panics if the replica is crashed.
    pub fn apply(&mut self, r: ReplicaId, msg: usize) {
        self.core.apply(r, msg);
    }

    /// One full synchronization round ([`DeltaCluster::resync_round`]).
    pub fn sync_all(&mut self) {
        self.core.resync_round();
    }

    /// Returns `true` if all replicas hold the same state.
    pub fn converged(&self) -> bool {
        self.core.converged()
    }

    /// Whether the lattice laws and the delta batching law hold on the
    /// distinct current replica states ([`DeltaCluster::check_lattice_laws`]).
    pub fn check_lattice_laws(&self) -> bool {
        self.core.check_lattice_laws()
    }

    /// Whether replica `r` is running (not crashed).
    pub fn is_up(&self, r: ReplicaId) -> bool {
        self.core.is_up(r)
    }

    /// Checkpoints replica `r`, merged-in remote knowledge included
    /// ([`DeltaCluster::persist`]).
    pub fn persist(&mut self, r: ReplicaId) {
        self.core.persist(r);
    }

    /// Crashes replica `r` back to its last durable checkpoint
    /// ([`DeltaCluster::crash`]). What it loses was merge-derived and can be
    /// re-merged: the lattice makes recovery and redelivery one operation.
    pub fn crash(&mut self, r: ReplicaId) {
        self.core.crash(r);
    }

    /// Restarts a crashed replica from its durable checkpoint.
    pub fn restart(&mut self, r: ReplicaId) {
        self.core.restart(r);
    }

    /// Restarts every crashed replica.
    pub fn restart_all(&mut self) {
        self.core.restart_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GenCtx, GenOutcome};

    /// A grow-only set as a join semilattice.
    struct GSet;

    #[derive(Clone, Debug, PartialEq)]
    enum Call {
        Add(u32),
        Read,
    }

    impl StateBased for GSet {
        type State = Vec<u32>;
        type Call = Call;
        type Ret = Vec<u32>;
        type Label = Call;

        fn initial(&self, _n: usize) -> Vec<u32> {
            Vec::new()
        }

        fn merge_into(&self, a: &mut Vec<u32>, b: &Vec<u32>) -> bool {
            let before = a.len();
            for x in b {
                if !a.contains(x) {
                    a.push(*x);
                }
            }
            a.sort_unstable();
            a.len() > before
        }

        fn leq(&self, a: &Vec<u32>, b: &Vec<u32>) -> bool {
            a.iter().all(|x| b.contains(x))
        }

        fn label(&self, call: &Call, _ret: &Vec<u32>) -> Call {
            call.clone()
        }
    }

    /// Whole states as deltas: all a full-state transport needs.
    impl DeltaCrdt for GSet {
        type Delta = Vec<u32>;

        fn invoke(
            &self,
            state: &Vec<u32>,
            call: &Call,
            _ctx: &mut GenCtx,
        ) -> GenOutcome<Vec<u32>, Vec<u32>> {
            match call {
                Call::Add(x) if !state.contains(x) => GenOutcome::update(Vec::new(), vec![*x]),
                Call::Add(_) => GenOutcome::query(Vec::new()),
                Call::Read => GenOutcome::query(state.clone()),
            }
        }

        fn diff(&self, _pre: &Vec<u32>, post: &Vec<u32>) -> Vec<u32> {
            post.clone()
        }

        fn join_into(&self, state: &mut Vec<u32>, delta: &Vec<u32>) -> bool {
            self.merge_into(state, delta)
        }

        fn join_deltas_into(&self, a: &mut Vec<u32>, b: &Vec<u32>) {
            self.merge_into(a, b);
        }

        fn delta_bytes(&self, delta: &Vec<u32>) -> usize {
            4 * delta.len()
        }

        fn state_bytes(&self, state: &Vec<u32>) -> usize {
            4 * state.len()
        }
    }

    fn r(i: u32) -> ReplicaId {
        ReplicaId(i)
    }

    #[test]
    fn local_updates_do_not_propagate() {
        let mut c = StateCluster::new(GSet, 2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        assert_eq!(c.state(r(0)), &vec![1]);
        assert_eq!(c.state(r(1)), &Vec::<u32>::new());
    }

    #[test]
    fn merge_propagates_and_is_idempotent() {
        let mut c = StateCluster::new(GSet, 2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        let m = c.send(r(0));
        c.apply(r(1), m);
        assert_eq!(c.state(r(1)), &vec![1]);
        // Duplicate application is harmless.
        c.apply(r(1), m);
        assert_eq!(c.state(r(1)), &vec![1]);
    }

    #[test]
    fn stale_messages_are_absorbed() {
        let mut c = StateCluster::new(GSet, 2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        let old = c.send(r(0));
        c.invoke(r(0), Call::Add(2)).unwrap();
        let new = c.send(r(0));
        // Out of order: newer snapshot first, stale one after.
        c.apply(r(1), new);
        c.apply(r(1), old);
        assert_eq!(c.state(r(1)), &vec![1, 2]);
    }

    #[test]
    fn sync_all_converges() {
        let mut c = StateCluster::new(GSet, 3);
        for i in 0..3 {
            c.invoke(r(i), Call::Add(i)).unwrap();
        }
        assert!(!c.converged());
        c.sync_all();
        assert!(c.converged());
        assert_eq!(c.state(r(0)), &vec![0, 1, 2]);
    }

    #[test]
    fn history_tracks_visibility_through_merges() {
        let mut c = StateCluster::new(GSet, 2);
        let a = c.invoke(r(0), Call::Add(1)).unwrap();
        let m = c.send(r(0));
        c.apply(r(1), m);
        let q = c.invoke(r(1), Call::Read).unwrap();
        assert_eq!(q.ret, vec![1]);
        assert!(c.history().sees(q.op, a.op));
    }

    #[test]
    fn lattice_laws_hold() {
        let mut c = StateCluster::new(GSet, 3);
        c.invoke(r(0), Call::Add(1)).unwrap();
        c.invoke(r(1), Call::Add(2)).unwrap();
        assert!(c.check_lattice_laws());
    }

    #[test]
    fn crash_loses_only_unpersisted_merges() {
        let mut c = StateCluster::new(GSet, 2);
        // Own invocations are written ahead…
        c.invoke(r(1), Call::Add(9)).unwrap();
        // …but a merged-in snapshot is volatile until the next checkpoint.
        c.invoke(r(0), Call::Add(1)).unwrap();
        let m = c.send(r(0));
        c.apply(r(1), m);
        assert_eq!(c.state(r(1)), &vec![1, 9]);
        c.crash(r(1));
        assert!(!c.is_up(r(1)));
        c.restart(r(1));
        assert_eq!(c.state(r(1)), &vec![9], "merge was lost with the crash");
        // Redelivery of the (never-consumed) message recovers it.
        c.apply(r(1), m);
        assert_eq!(c.state(r(1)), &vec![1, 9]);
        assert_eq!(c.message_origin(m), r(0));
    }

    #[test]
    fn persist_checkpoints_merged_knowledge() {
        let mut c = StateCluster::new(GSet, 2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        let m = c.send(r(0));
        c.apply(r(1), m);
        c.persist(r(1));
        c.crash(r(1));
        c.restart(r(1));
        assert_eq!(c.state(r(1)), &vec![1], "checkpoint survived the crash");
    }

    #[test]
    fn snapshots_share_the_state_until_the_next_write() {
        let mut c = StateCluster::new(GSet, 2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        let m = c.send(r(0));
        assert!(std::ptr::eq(c.state(r(0)), c.message_state(m)));
        // A write after the share copies; snapshot and checkpoint stay put.
        c.invoke(r(1), Call::Add(2)).unwrap();
        let other = c.send(r(1));
        c.apply(r(0), other);
        assert_eq!(c.state(r(0)), &vec![1, 2]);
        assert_eq!(c.message_state(m), &vec![1]);
        c.crash(r(0));
        c.restart(r(0));
        assert_eq!(c.state(r(0)), &vec![1], "the checkpoint kept its state");
    }

    #[test]
    fn a_released_message_is_a_dropped_message() {
        let mut c = StateCluster::new(GSet, 2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        let m = c.send(r(0));
        c.release(m);
        assert!(c.message(m).is_heartbeat());
        assert!(c.message_seen(m).is_empty());
        c.apply(r(1), m);
        assert_eq!(c.state(r(1)), &Vec::<u32>::new());
        assert!(c.seen(r(1)).is_empty(), "no effect, so no visibility");
        assert_eq!(c.message_origin(m), r(0));
    }

    #[test]
    #[should_panic(expected = "cannot apply at crashed replica")]
    fn applying_at_crashed_replica_panics() {
        let mut c = StateCluster::new(GSet, 2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        let m = c.send(r(0));
        c.crash(r(1));
        c.apply(r(1), m);
    }
}
