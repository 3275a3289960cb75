//! State-based CRDT objects and their replicated execution (Appendix D).
//!
//! In a state-based CRDT every method executes locally at the origin; instead
//! of effectors, replicas exchange whole states. Replica states form a join
//! semilattice; `merge` is the least upper bound and `leq` ("compare") the
//! lattice order. The network offers **no** guarantees: a message may be
//! applied several times, at any subset of replicas, in any order, or never
//! (Appendix D.2) — convergence must come from the lattice laws alone.
//!
//! The join runs in place ([`StateBased::merge_into`]) on every delivery,
//! and a replica's state, its durable checkpoint and the snapshots taken of
//! it share one copy-on-write allocation, so a receive costs what the
//! message adds and a send costs nothing; `docs/RUNTIME.md` ("Lattice
//! transports") has the whole story, including [`StateCluster::release`].
//!
//! Liveness and visibility bookkeeping live in the shared [`Member`].

use crate::gen::GenCtx;
use crate::laws;
use crate::membership::Member;
use ral_core::bitset::BitSet;
use ral_core::history::{History, OpRecord};
use ral_core::ids::ReplicaId;
use ral_obs as obs;
use std::fmt::Debug;
use std::rc::Rc;

/// The result of invoking a method on a state-based CRDT.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateOutcome<R, S> {
    /// The method executed, returning `ret` and moving the replica to
    /// `next`.
    Done {
        /// Return value.
        ret: R,
        /// New replica state (equal to the old one for queries).
        next: S,
    },
    /// The method's precondition does not hold.
    Refused,
}

/// A state-based CRDT, in the style of Listings 7–10.
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

    /// Executes `call` locally at the origin replica.
    fn invoke(
        &self,
        state: &Self::State,
        call: &Self::Call,
        ctx: &mut GenCtx,
    ) -> StateOutcome<Self::Ret, Self::State>;

    /// Joins `b` into `a`: afterwards `a` holds the least upper bound of the
    /// two states. This is the **required** form and the one every receive
    /// runs, so its cost should be what `b` adds to `a`, not the size of
    /// `a`. The lattice laws of [`crate::laws`] are stated over
    /// [`StateBased::merge`], i.e. over this method.
    fn merge_into(&self, a: &mut Self::State, b: &Self::State);

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

#[derive(Clone)]
struct StateNode<S> {
    // One allocation shared with the durable checkpoint and with every
    // snapshot message taken since the last write: checkpointing and sending
    // bump the count, and `Rc::make_mut` copies the state once on the first
    // write after a share.
    state: Rc<S>,
    // Liveness + seen-set.
    member: Member,
    clock: u64,
    // Last durable checkpoint `(state, seen, clock)`. Local invocations are
    // written ahead (invoke re-checkpoints automatically), so a crash can
    // only lose *merged-in* remote knowledge — which the unreliable network
    // may re-merge at any time, making the loss indistinguishable from a
    // dropped message (Appendix D.2).
    durable: (Rc<S>, BitSet, u64),
}

/// A snapshot message: the sending replica's state plus the set of
/// operations it reflects (the label set `L` of Appendix D.2, used to extract
/// visibility).
#[derive(Clone, Debug)]
pub struct Message<S> {
    seen: BitSet,
    state: Rc<S>,
    clock: u64,
    origin: ReplicaId,
}

/// A successful invocation on a [`StateCluster`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Invoked<R> {
    /// Return value.
    pub ret: R,
    /// Index of the operation in the cluster's history.
    pub op: usize,
}

/// A cluster of replicas of one state-based object.
///
/// # Examples
///
/// Local updates stay local until a snapshot message is applied, and
/// duplicate deliveries are absorbed by the merge:
///
/// ```
/// use ral_core::ids::ReplicaId;
/// use ral_runtime::state_based::StateCluster;
/// # use ral_runtime::gen::GenCtx;
/// # use ral_runtime::state_based::{StateBased, StateOutcome};
/// # #[derive(Clone)]
/// # struct GSet;
/// # impl StateBased for GSet {
/// #     type State = Vec<u32>;
/// #     type Call = u32;
/// #     type Ret = ();
/// #     type Label = u32;
/// #     fn initial(&self, _n: usize) -> Vec<u32> { Vec::new() }
/// #     fn invoke(&self, st: &Vec<u32>, c: &u32, _ctx: &mut GenCtx) -> StateOutcome<(), Vec<u32>> {
/// #         let mut next = st.clone();
/// #         if !next.contains(c) { next.push(*c); next.sort_unstable(); }
/// #         StateOutcome::Done { ret: (), next }
/// #     }
/// #     fn merge_into(&self, a: &mut Vec<u32>, b: &Vec<u32>) {
/// #         for x in b {
/// #             if !a.contains(x) { a.push(*x); }
/// #         }
/// #         a.sort_unstable();
/// #     }
/// #     fn leq(&self, a: &Vec<u32>, b: &Vec<u32>) -> bool { a.iter().all(|x| b.contains(x)) }
/// #     fn label(&self, c: &u32, _r: &()) -> u32 { *c }
/// # }
///
/// let mut cluster = StateCluster::new(GSet, 2);
/// cluster.invoke(ReplicaId(0), 7).unwrap();
/// assert_eq!(cluster.state(ReplicaId(1)), &Vec::<u32>::new());
/// let msg = cluster.send(ReplicaId(0));
/// cluster.apply(ReplicaId(1), msg);
/// cluster.apply(ReplicaId(1), msg); // duplicate delivery is harmless
/// assert_eq!(cluster.state(ReplicaId(1)), &vec![7]);
/// ```
// Cloning forks the whole configuration (replica states, in-flight
// messages, history) — the branch point of `ral-analyze`'s search.
#[derive(Clone)]
pub struct StateCluster<C: StateBased> {
    crdt: C,
    replicas: Vec<StateNode<C::State>>,
    messages: Vec<Message<C::State>>,
    history: History<C::Label>,
    next_uid: u64,
    // ⊥, the initial state: what a released message's payload becomes.
    bottom: Rc<C::State>,
}

impl<C: StateBased> StateCluster<C> {
    /// Creates a cluster of `n_replicas` replicas in the initial state.
    ///
    /// # Panics
    ///
    /// Panics if `n_replicas` is zero.
    pub fn new(crdt: C, n_replicas: usize) -> Self {
        assert!(n_replicas > 0, "a cluster needs at least one replica");
        let bottom = Rc::new(crdt.initial(n_replicas));
        let replicas = (0..n_replicas)
            .map(|_| StateNode {
                state: Rc::clone(&bottom),
                member: Member::new(),
                clock: 0,
                durable: (Rc::clone(&bottom), BitSet::new(), 0),
            })
            .collect();
        StateCluster {
            crdt,
            replicas,
            messages: Vec::new(),
            history: History::new(),
            next_uid: 0,
            bottom,
        }
    }

    /// Number of replicas.
    pub fn n_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The CRDT descriptor.
    pub fn crdt(&self) -> &C {
        &self.crdt
    }

    /// The state of replica `r`.
    pub fn state(&self, r: ReplicaId) -> &C::State {
        &self.replicas[r.0 as usize].state
    }

    /// The history recorded so far.
    pub fn history(&self) -> &History<C::Label> {
        &self.history
    }

    /// Consumes the cluster, returning its history.
    pub fn into_history(self) -> History<C::Label> {
        self.history
    }

    /// The set of operations replica `r` has performed or merged in.
    pub fn seen(&self, r: ReplicaId) -> &BitSet {
        self.replicas[r.0 as usize].member.seen()
    }

    /// The set of operations reflected in snapshot message `msg`.
    pub fn message_seen(&self, msg: usize) -> &BitSet {
        &self.messages[msg].seen
    }

    /// Invokes `call` at replica `r`; returns `None` if refused.
    ///
    /// The invocation is written ahead: a successful call immediately
    /// re-checkpoints the replica's durable state, so a later
    /// [`StateCluster::crash`] never loses locally performed operations.
    ///
    /// # Panics
    ///
    /// Panics if the replica is crashed.
    pub fn invoke(&mut self, r: ReplicaId, call: C::Call) -> Option<Invoked<C::Ret>> {
        let idx = r.0 as usize;
        let node = &self.replicas[idx];
        node.member.expect_up("invoke at", r);
        let mut ctx = GenCtx::new(r, node.clock, self.next_uid);
        match self.crdt.invoke(&node.state, &call, &mut ctx) {
            StateOutcome::Refused => None,
            StateOutcome::Done { ret, next } => {
                let label = self.crdt.label(&call, &ret);
                let record = match ctx.issued_ts() {
                    Some(ts) => OpRecord::with_ts(label, r, ts),
                    None => OpRecord::new(label, r),
                };
                let node = &mut self.replicas[idx];
                let op = self.history.push_set(record, node.member.seen().clone());
                node.clock = ctx.clock();
                self.next_uid = ctx.uid_counter();
                node.state = Rc::new(next);
                node.member.observe(op);
                node.durable = (
                    Rc::clone(&node.state),
                    node.member.seen().clone(),
                    node.clock,
                );
                Some(Invoked { ret, op })
            }
        }
    }

    /// Snapshots replica `r`'s state into a message; returns the message id.
    /// The snapshot shares the replica's state allocation — nothing is
    /// copied until the replica next writes to it.
    ///
    /// # Panics
    ///
    /// Panics if the replica is crashed.
    pub fn send(&mut self, r: ReplicaId) -> usize {
        let node = &self.replicas[r.0 as usize];
        node.member.expect_up("send from", r);
        self.messages.push(Message {
            seen: node.member.seen().clone(),
            state: Rc::clone(&node.state),
            clock: node.clock,
            origin: r,
        });
        self.messages.len() - 1
    }

    /// The replica whose snapshot message `msg` carries.
    pub fn message_origin(&self, msg: usize) -> ReplicaId {
        self.messages[msg].origin
    }

    /// The state snapshot message `msg` carries (payload-size accounting).
    pub fn message_state(&self, msg: usize) -> &C::State {
        &self.messages[msg].state
    }

    /// Number of messages created so far (ids are never reused — the
    /// network may duplicate deliveries arbitrarily).
    pub fn n_messages(&self) -> usize {
        self.messages.len()
    }

    /// Declares that the network will not deliver message `msg` again: its
    /// payload (state and label set) is replaced with ⊥, the initial state,
    /// so whatever the snapshot alone kept alive is freed. Applying a
    /// released message afterwards merges ⊥ — a no-op, exactly a dropped
    /// message, which Appendix D.2 already allows.
    pub fn release(&mut self, msg: usize) {
        let message = &mut self.messages[msg];
        message.state = Rc::clone(&self.bottom);
        message.seen = BitSet::new();
    }

    /// Applies message `msg` at replica `r` (merging states). May be called
    /// any number of times, in any order.
    ///
    /// # Panics
    ///
    /// Panics if the replica is crashed.
    pub fn apply(&mut self, r: ReplicaId, msg: usize) {
        let node = &mut self.replicas[r.0 as usize];
        node.member.expect_up("apply at", r);
        apply_message(&self.crdt, &self.messages[msg], node);
    }

    /// Broadcasts every replica's current state and applies all snapshots
    /// everywhere — one full synchronization round.
    ///
    /// All sends come first; then each replica, in ascending order, merges
    /// the round's snapshots in message order.
    pub fn sync_all(&mut self) {
        let snapshot_start = self.messages.len();
        for r in 0..self.replicas.len() {
            self.send(ReplicaId(r as u32));
        }
        let round = &self.messages[snapshot_start..];
        for (i, node) in self.replicas.iter_mut().enumerate() {
            node.member.expect_up("apply at", ReplicaId(i as u32));
            for msg in round {
                apply_message(&self.crdt, msg, node);
            }
        }
        let merges = (round.len() * self.replicas.len()) as u64;
        obs::observe("runtime.state.sync_batch", merges);
    }

    /// Returns `true` if all replicas hold the same state.
    pub fn converged(&self) -> bool {
        self.replicas.windows(2).all(|w| w[0].state == w[1].state)
    }

    /// Whether the five join-semilattice laws ([`laws::lattice_laws`]) hold
    /// on the distinct current replica states.
    pub fn check_lattice_laws(&self) -> bool {
        let states = laws::distinct(self.replicas.iter().map(|n| &*n.state));
        let mut all_hold = true;
        laws::lattice_laws(&self.crdt, &states, &mut all_hold);
        all_hold
    }

    /// Whether replica `r` is running (not crashed).
    pub fn is_up(&self, r: ReplicaId) -> bool {
        self.replicas[r.0 as usize].member.is_up()
    }

    /// Checkpoints replica `r`: its current state (including merged-in
    /// remote knowledge) becomes the durable state a crash recovers to.
    pub fn persist(&mut self, r: ReplicaId) {
        let node = &mut self.replicas[r.0 as usize];
        node.durable = (
            Rc::clone(&node.state),
            node.member.seen().clone(),
            node.clock,
        );
    }

    /// Crashes replica `r`: the process halts and its volatile state is
    /// lost. On [`StateCluster::restart`] it recovers the last durable
    /// checkpoint and rejoins; anything lost was merge-derived and can be
    /// re-merged (the lattice makes recovery and message redelivery the
    /// same operation).
    pub fn crash(&mut self, r: ReplicaId) {
        let node = &mut self.replicas[r.0 as usize];
        node.member.crash();
        node.state = Rc::clone(&node.durable.0);
        node.member.restore_seen(node.durable.1.clone());
        node.clock = node.durable.2;
    }

    /// Restarts a crashed replica from its durable checkpoint.
    pub fn restart(&mut self, r: ReplicaId) {
        self.replicas[r.0 as usize].member.restart();
    }

    /// Restarts every crashed replica.
    pub fn restart_all(&mut self) {
        for node in &mut self.replicas {
            node.member.restart();
        }
    }
}

/// Merges one snapshot message into one node — the core of both the
/// targeted [`StateCluster::apply`] and `sync_all`. Every message is merged:
/// whether it adds anything is `merge_into`'s business, never tested here
/// (a skipped "redundant" merge would hide a non-idempotent one).
fn apply_message<C: StateBased>(crdt: &C, msg: &Message<C::State>, node: &mut StateNode<C::State>) {
    crdt.merge_into(Rc::make_mut(&mut node.state), &msg.state);
    node.member.merge_seen(&msg.seen);
    node.clock = node.clock.max(msg.clock).max(crdt.clock_floor(&node.state));
}

#[cfg(test)]
mod tests {
    use super::*;

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

        fn invoke(
            &self,
            state: &Vec<u32>,
            call: &Call,
            _ctx: &mut GenCtx,
        ) -> StateOutcome<Vec<u32>, Vec<u32>> {
            match call {
                Call::Add(x) => {
                    let mut next = state.clone();
                    if !next.contains(x) {
                        next.push(*x);
                        next.sort_unstable();
                    }
                    StateOutcome::Done {
                        ret: Vec::new(),
                        next,
                    }
                }
                Call::Read => StateOutcome::Done {
                    ret: state.clone(),
                    next: state.clone(),
                },
            }
        }

        fn merge_into(&self, a: &mut Vec<u32>, b: &Vec<u32>) {
            for x in b {
                if !a.contains(x) {
                    a.push(*x);
                }
            }
            a.sort_unstable();
        }

        fn leq(&self, a: &Vec<u32>, b: &Vec<u32>) -> bool {
            a.iter().all(|x| b.contains(x))
        }

        fn label(&self, call: &Call, _ret: &Vec<u32>) -> Call {
            call.clone()
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
        let node = &c.replicas[0];
        assert!(Rc::ptr_eq(&node.state, &c.messages[m].state));
        assert!(Rc::ptr_eq(&node.state, &node.durable.0));
        // A write after the share copies; snapshot and checkpoint stay put.
        c.invoke(r(1), Call::Add(2)).unwrap();
        let other = c.send(r(1));
        c.apply(r(0), other);
        assert_eq!(c.state(r(0)), &vec![1, 2]);
        assert_eq!(c.message_state(m), &vec![1]);
        assert_eq!(*c.replicas[0].durable.0, vec![1]);
    }

    #[test]
    fn a_released_message_is_a_dropped_message() {
        let mut c = StateCluster::new(GSet, 2);
        c.invoke(r(0), Call::Add(1)).unwrap();
        let m = c.send(r(0));
        c.release(m);
        assert_eq!(c.message_state(m), &Vec::<u32>::new());
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
