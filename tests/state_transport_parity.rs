//! Full-state parity: a `DeltaCluster` run that only resyncs (every send a
//! `DeltaCluster::resync`, the final sync a `resync_round`) — the full-state
//! transport — against the full-state cluster it replaced, copied below
//! verbatim as the oracle. The resyncing cluster is called the façade
//! below, after the type that used to wrap it.
//!
//! The two run in lockstep — one random stream drives both, every answer
//! either gives must be the other's — in two harnesses:
//!
//! * **sim runs** over the `delta_convergence` corpus (every named
//!   scenario, seeds 0 and 1), through a [`Lockstep`] driver that hands
//!   each engine call to both clusters and requires equal answers, the
//!   invoking replica's state and seen-set after every invocation, and
//!   each new message's origin, state and label set. The engine only ever
//!   sees those answers, so the run is at once the façade's and the
//!   oracle's: same trace, same `SimStats`, `payload_bytes` included. A
//!   plain `StateDriver` run of the same seed must then reproduce the
//!   lockstep run's trace, statistics, history and states byte for byte;
//! * **schedules** in the style of `drive_state_based` — invoke, send,
//!   apply with duplication and reordering — plus crash, restart, persist
//!   and release, with every replica, every message and the history
//!   (`Debug` bytes) compared after every step.
//!
//! Both cover the four state types and the non-idempotent `SummingCounter`,
//! the one type on which merging a state into itself is visible.
//!
//! The façade differs in two places. It never merges a replica's own
//! snapshot into itself, because `DeltaCluster::apply` skips origin =
//! receiver. The simulator never routes a message to its origin, and the
//! schedules below withhold that delivery from the oracle, so the one
//! place it shows is the final sync (the oracle's `sync_all`, the façade's
//! `resync_round`) — see [`final_sync_both`]. And it drops a snapshot
//! whose labels the receiver has all seen (the drop rule, docs/RUNTIME.md),
//! where the oracle merges every arrival. For a lattice the dropped merge
//! is a no-op, so the four lattice legs hold every state equal
//! ([`Relation::equal`]). For `SummingCounter` a merge adds the snapshot's
//! count, never negative, so a dropped arrival only leaves out an addend:
//! its legs hold every façade state, snapshot state and return value at or
//! below the oracle's ([`summing_below`]), and everything else — histories,
//! seen-sets, message ids, origins, label sets and sizes, liveness,
//! `SimStats` — equal, as for the lattices.

use ral_analyze::fixtures::{SumCall, SummingCounter};
use ral_core::ids::ReplicaId;
use ral_core::rng::{run_seeded_cases, Rng};
use ral_crdts::state::lww_element_set::LwwElementSet;
use ral_crdts::state::mv_register::MvRegister;
use ral_crdts::state::pn_counter::PnCounter;
use ral_crdts::state::two_phase_set::TwoPhaseSet;
use ral_runtime::delta::{DeltaCluster, DeltaConfig, DeltaCrdt};
use ral_runtime::state_based::StateBased;
use ral_sim::driver::{Driver, Received, StateDriver};
use ral_sim::scenario::{self, Scenario};
use ral_sim::sim;
use ral_sim::time::SimTime;
use ral_verify::workloads;
use std::fmt;

/// The full-state cluster as it stood before the façade, verbatim but for
/// its rustdoc example and the lines marked below.
#[allow(dead_code)] // a copy: not every accessor is exercised
mod oracle {
    use ral_core::bitset::BitSet;
    use ral_core::history::{History, OpRecord};
    use ral_core::ids::ReplicaId;
    use ral_obs as obs;
    use ral_runtime::delta::DeltaCrdt;
    use ral_runtime::gen::{GenCtx, GenOutcome};
    use ral_runtime::laws;
    use ral_runtime::membership::Member;
    use ral_runtime::state_based::StateBased;
    use std::rc::Rc;

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

    // `DeltaCrdt` (formerly `StateBased`): the type's mutator lives there.
    impl<C: DeltaCrdt> StateCluster<C> {
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
                GenOutcome::Refused => None,
                GenOutcome::Done { ret, eff } => {
                    // Formerly returned by the mutator: the next state by
                    // value, which is the old state joined with the delta.
                    let next = match &eff {
                        Some(delta) => self.crdt.join(&node.state, delta),
                        None => C::State::clone(&node.state),
                    };
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
            // The one changed line, formerly `member.restore_seen(seen)`,
            // which left `Member` with this cluster: same seen-set, frontier
            // and liveness.
            node.member = Member::new();
            node.member.merge_seen(&node.durable.1);
            node.member.crash();
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
    fn apply_message<C: StateBased>(
        crdt: &C,
        msg: &Message<C::State>,
        node: &mut StateNode<C::State>,
    ) {
        crdt.merge_into(Rc::make_mut(&mut node.state), &msg.state);
        node.member.merge_seen(&msg.seen);
        node.clock = node.clock.max(msg.clock).max(crdt.clock_floor(&node.state));
    }
}

/// How a façade value must relate to the oracle's: replica states and
/// snapshot states by `state`, return values by `ret`.
struct Relation<C: StateBased> {
    /// The relation's symbol, for failure messages.
    name: &'static str,
    state: fn(&C::State, &C::State) -> bool,
    ret: fn(&C::Ret, &C::Ret) -> bool,
}

impl<C: StateBased> Relation<C> {
    /// Equality, for the four lattices.
    fn equal() -> Self {
        Relation {
            name: "==",
            state: |f, o| f == o,
            ret: |f, o| f == o,
        }
    }

    fn states(&self, facade: &C::State, oracle: &C::State, what: fmt::Arguments) {
        assert!(
            (self.state)(facade, oracle),
            "{what}: façade {facade:?} !{} oracle {oracle:?}",
            self.name
        );
    }

    /// Both invocations answer alike: both refused, or the same operation
    /// id with related return values.
    fn invoked(
        &self,
        facade: Option<(C::Ret, usize)>,
        oracle: Option<(C::Ret, usize)>,
        what: fmt::Arguments,
    ) {
        match (facade, oracle) {
            (None, None) => {}
            (Some((f, fop)), Some((o, oop))) if fop == oop => assert!(
                (self.ret)(&f, &o),
                "{what}: façade returned {f:?} !{} oracle's {o:?}",
                self.name
            ),
            (f, o) => panic!("{what}: façade {f:?}, oracle {o:?}"),
        }
    }
}

/// A workload: the next call at a replica, given its state.
trait Calls<C: StateBased>: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call> {}
impl<C: StateBased, F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>> Calls<C> for F {}

fn replicas(n: usize) -> impl Iterator<Item = ReplicaId> {
    (0..n as u32).map(ReplicaId)
}

/// Replica `r` agrees: liveness, state (under `rel`) and seen-set.
fn assert_replica_agrees<C: DeltaCrdt>(
    rel: &Relation<C>,
    facade: &DeltaCluster<C>,
    oracle: &oracle::StateCluster<C>,
    r: ReplicaId,
    at: &str,
) {
    assert_eq!(facade.is_up(r), oracle.is_up(r), "{at}: liveness of {r}");
    rel.states(
        facade.state(r),
        oracle.state(r),
        format_args!("{at}: state of {r}"),
    );
    assert_eq!(facade.seen(r), oracle.seen(r), "{at}: seen-set of {r}");
}

/// Message `m` agrees: origin, label set, and state (under `rel`) — the
/// oracle's ⊥ where the façade's released snapshot became the delta
/// heartbeat.
fn assert_message_agrees<C: DeltaCrdt>(
    rel: &Relation<C>,
    facade: &DeltaCluster<C>,
    oracle: &oracle::StateCluster<C>,
    m: usize,
    at: &str,
) {
    assert_eq!(
        facade.message_origin(m),
        oracle.message_origin(m),
        "{at}: origin of {m}"
    );
    assert_eq!(
        facade.message(m).seen(),
        oracle.message_seen(m),
        "{at}: label set of {m}"
    );
    match facade.message(m).state() {
        Some(state) => rel.states(
            state,
            oracle.message_state(m),
            format_args!("{at}: state of {m}"),
        ),
        None => {
            assert!(facade.message(m).is_heartbeat(), "{at}: {m} is neither");
            let bottom = oracle.crdt().initial(oracle.n_replicas());
            assert_eq!(oracle.message_state(m), &bottom, "{at}: released {m}");
        }
    }
}

/// Everything agrees: every replica, every message, and the history's
/// `Debug` bytes.
fn assert_agree<C: DeltaCrdt>(
    rel: &Relation<C>,
    facade: &DeltaCluster<C>,
    oracle: &oracle::StateCluster<C>,
    at: &str,
) {
    assert_eq!(facade.n_replicas(), oracle.n_replicas());
    for r in replicas(facade.n_replicas()) {
        assert_replica_agrees(rel, facade, oracle, r, at);
    }
    assert_eq!(
        facade.n_messages(),
        oracle.n_messages(),
        "{at}: message count"
    );
    for m in 0..facade.n_messages() {
        assert_message_agrees(rel, facade, oracle, m, at);
    }
    assert_eq!(
        format!("{:?}", facade.history()),
        format!("{:?}", oracle.history()),
        "{at}: history"
    );
}

/// The end of a run on both: `restart_all`, then one full-sync round
/// (`resync_round` on the façade, `sync_all` on the oracle).
///
/// Here the façade's one difference shows. The oracle's round merges all n
/// snapshots into every replica, its own included; the façade's skips the
/// replica's own. Merging its own state into a replica is a no-op for a
/// lattice (`merge` is idempotent), so there the states stay equal — but
/// `SummingCounter`'s merge is addition, so the oracle's `sync_all` *sums*
/// each replica's own pre-sync state in once more. Both cases are one
/// statement: the oracle ends at `merge(façade state, own pre-sync state)`
/// — under `rel`, as the round's dropped snapshots make `SummingCounter`'s
/// façade sum fewer addends. Seen-sets, histories and the round's messages
/// agree either way.
fn final_sync_both<C: DeltaCrdt>(
    rel: &Relation<C>,
    facade: &mut DeltaCluster<C>,
    oracle: &mut oracle::StateCluster<C>,
) {
    facade.restart_all();
    oracle.restart_all();
    assert_agree(rel, facade, oracle, "before the final sync");
    let n = facade.n_replicas();
    let pre: Vec<C::State> = replicas(n).map(|r| facade.state(r).clone()).collect();
    facade.resync_round();
    oracle.sync_all();
    for (r, own) in replicas(n).zip(&pre) {
        let expected = facade.crdt().merge(facade.state(r), own);
        rel.states(
            &expected,
            oracle.state(r),
            format_args!("final sync: state of {r}"),
        );
        assert_eq!(
            facade.seen(r),
            oracle.seen(r),
            "final sync: seen-set of {r}"
        );
    }
    for m in 0..facade.n_messages() {
        assert_message_agrees(rel, facade, oracle, m, "final sync");
    }
}

// ---------------------------------------------------------------------------
// Sim runs over the corpus.
// ---------------------------------------------------------------------------

/// Hands every engine call to both clusters, the way `StateDriver` hands it
/// to one, and requires both to answer alike.
struct Lockstep<'a, C: DeltaCrdt, G> {
    rel: &'a Relation<C>,
    facade: DeltaCluster<C>,
    oracle: oracle::StateCluster<C>,
    calls: G,
}

impl<C: DeltaCrdt + Clone, G: Calls<C>> Driver for Lockstep<'_, C, G> {
    const RELIABLE: bool = false;
    const GOSSIPS: bool = true;

    fn n_replicas(&self) -> usize {
        assert_eq!(self.facade.n_replicas(), self.oracle.n_replicas());
        self.facade.n_replicas()
    }

    fn invoke(&mut self, rng: &mut Rng, r: ReplicaId) -> bool {
        let Some(call) = (self.calls)(rng, r, self.facade.state(r)) else {
            return false;
        };
        let facade = self.facade.invoke(r, call.clone()).map(|i| (i.ret, i.op));
        let oracle = self.oracle.invoke(r, call).map(|i| (i.ret, i.op));
        let invoked = facade.is_some();
        self.rel
            .invoked(facade, oracle, format_args!("invoke at {r}"));
        assert_replica_agrees(self.rel, &self.facade, &self.oracle, r, "invoke");
        invoked
    }

    fn gossip(&mut self, r: ReplicaId) -> bool {
        let m = self.facade.resync(r);
        assert_eq!(m, self.oracle.send(r), "message id");
        assert_message_agrees(self.rel, &self.facade, &self.oracle, m, "send");
        true
    }

    fn n_messages(&self) -> usize {
        assert_eq!(self.facade.n_messages(), self.oracle.n_messages());
        self.facade.n_messages()
    }

    fn origin(&self, m: usize) -> ReplicaId {
        assert_eq!(self.facade.message_origin(m), self.oracle.message_origin(m));
        self.facade.message_origin(m)
    }

    fn receive(&mut self, r: ReplicaId, m: usize) -> Received {
        // Compared when `r` next invokes or sends, and at the end.
        self.facade.apply(r, m);
        self.oracle.apply(r, m);
        Received::Applied(1)
    }

    fn message_bytes(&self, m: usize, _to: ReplicaId) -> usize {
        // `StateDriver`'s model with `with_sizer(state_bytes)`.
        let crdt = self.facade.crdt();
        let facade = 12
            + self
                .facade
                .message(m)
                .state()
                .map_or(0, |s| crdt.state_bytes(s));
        let oracle = 12 + crdt.state_bytes(self.oracle.message_state(m));
        assert_eq!(facade, oracle, "size of {m}");
        facade
    }

    fn release(&mut self, m: usize) {
        self.facade.release(m);
        self.oracle.release(m);
        assert_message_agrees(self.rel, &self.facade, &self.oracle, m, "release");
    }

    fn is_up(&self, r: ReplicaId) -> bool {
        assert_eq!(self.facade.is_up(r), self.oracle.is_up(r));
        self.facade.is_up(r)
    }

    fn crash(&mut self, r: ReplicaId) {
        self.facade.crash(r);
        self.oracle.crash(r);
        assert_replica_agrees(self.rel, &self.facade, &self.oracle, r, "crash");
    }

    fn restart(&mut self, r: ReplicaId) {
        self.facade.restart(r);
        self.oracle.restart(r);
        assert_replica_agrees(self.rel, &self.facade, &self.oracle, r, "restart");
    }

    fn final_sync(&mut self) {
        final_sync_both(self.rel, &mut self.facade, &mut self.oracle);
    }

    fn converged(&self) -> bool {
        self.facade.converged()
    }
}

/// One corpus scenario and seed in lockstep, then the same seed through a
/// plain `StateDriver`, which must reproduce the lockstep run exactly.
fn corpus_run<C, G>(rel: &Relation<C>, crdt: C, sc: &Scenario, seed: u64, mk_calls: impl Fn() -> G)
where
    C: DeltaCrdt + Clone + 'static,
    G: Calls<C>,
{
    let n = sc.cfg.n_replicas;
    let mut lockstep = Lockstep {
        rel,
        facade: DeltaCluster::new(crdt.clone(), DeltaConfig::default(), n),
        oracle: oracle::StateCluster::new(crdt.clone(), n),
        calls: mk_calls(),
    };
    let (run, trace) = sim::replay(&mut lockstep, &sc.cfg, seed);
    let at = format!("{} seed {seed}", sc.name);
    assert_eq!(
        format!("{:?}", lockstep.facade.history()),
        format!("{:?}", lockstep.oracle.history()),
        "{at}: history"
    );

    let sizer = crdt.clone();
    let mut plain = StateDriver::new(crdt, n, mk_calls()).with_sizer(move |s| sizer.state_bytes(s));
    let (plain_run, plain_trace) = sim::replay(&mut plain, &sc.cfg, seed);
    assert_eq!(plain_trace.render(), trace.render(), "{at}: trace");
    assert_eq!(plain_run.stats, run.stats, "{at}: SimStats");
    let cluster = plain.cluster();
    assert_eq!(
        format!("{:?}", cluster.history()),
        format!("{:?}", lockstep.facade.history()),
        "{at}: history"
    );
    for r in replicas(n) {
        assert_eq!(
            cluster.state(r),
            lockstep.facade.state(r),
            "{at}: state of {r}"
        );
        assert_eq!(
            cluster.seen(r),
            lockstep.facade.seen(r),
            "{at}: seen-set of {r}"
        );
    }
    assert!(run.stats.payload_bytes > 0, "{at}: sized");
}

/// Every corpus scenario at seeds 0 and 1, every state equal.
fn across_the_corpus<C, G>(crdt: C, ticks: Option<u64>, mk_calls: impl Fn() -> G)
where
    C: DeltaCrdt + Clone + 'static,
    G: Calls<C>,
{
    across_the_corpus_under(&Relation::equal(), crdt, ticks, mk_calls);
}

/// Every corpus scenario at seeds 0 and 1 — `multi_mix` at seed 0 only, as
/// one of its runs (50 replicas gossiping whole states for 1 200 ticks) costs
/// as much as all other scenarios together — each cut to `ticks` if given.
fn across_the_corpus_under<C, G>(
    rel: &Relation<C>,
    crdt: C,
    ticks: Option<u64>,
    mk_calls: impl Fn() -> G,
) where
    C: DeltaCrdt + Clone + 'static,
    G: Calls<C>,
{
    for mut sc in scenario::all() {
        if let Some(ticks) = ticks {
            sc.cfg.duration = SimTime(ticks);
        }
        let seeds = if sc.name == "multi_mix" { 0..1 } else { 0..2 };
        for seed in seeds {
            corpus_run(rel, crdt.clone(), &sc, seed, &mk_calls);
        }
    }
}

#[test]
fn pn_counter_sim_runs_match_the_oracle() {
    across_the_corpus(PnCounter, None, || {
        |rng: &mut Rng, _, _: &_| Some(workloads::pn_counter(rng))
    });
}

#[test]
fn mv_register_sim_runs_match_the_oracle() {
    across_the_corpus(MvRegister::<u8>::new(), None, || {
        |rng: &mut Rng, _, _: &_| Some(workloads::mv_register(rng))
    });
}

#[test]
fn lww_element_set_sim_runs_match_the_oracle() {
    across_the_corpus(LwwElementSet::<u8>::new(), None, || {
        |rng: &mut Rng, _, _: &_| Some(workloads::lww_element_set(rng))
    });
}

#[test]
fn two_phase_set_sim_runs_match_the_oracle() {
    across_the_corpus(TwoPhaseSet::<u16>::new(), None, || {
        let mut next = 0u16;
        move |rng: &mut Rng, _, st: &_| workloads::two_phase_set(rng, st, &mut next)
    });
}

/// `SummingCounter`'s relation: every façade state, snapshot state and
/// return value (the count after the increment) at or below the oracle's.
/// A merge here adds a count that is never negative, and the façade merges
/// a subset of the oracle's arrivals (it drops those whose labels the
/// receiver has seen), so by induction over the run it sums a subset of
/// the oracle's addends, each no larger.
fn summing_below() -> Relation<SummingCounter> {
    Relation {
        name: "<=",
        state: |f, o| f <= o,
        ret: |f, o| f <= o,
    }
}

#[test]
fn summing_counter_sim_runs_match_the_oracle() {
    // Every arrival adds the sender's whole count, so counts grow by about
    // the replica count per gossip round: 120 ticks (some five rounds) keep
    // even `gossip_50` inside `i64`.
    across_the_corpus_under(&summing_below(), SummingCounter, Some(120), || {
        |_: &mut Rng, _, _: &_| Some(SumCall::Inc)
    });
}

// ---------------------------------------------------------------------------
// Schedules with crash, restart, persist and release.
// ---------------------------------------------------------------------------

const REPLICAS: usize = 3;

/// `drive_state_based`'s step mix — invoke, or send, or apply a random
/// message (duplicates and reordering included) — plus crash, restart,
/// persist and release, on both clusters from one stream, everything
/// compared after every step; then the final sync.
fn schedule_in_lockstep<C: DeltaCrdt + Clone>(
    rel: &Relation<C>,
    crdt: &C,
    rng: &mut Rng,
    calls: &mut impl Calls<C>,
) {
    let mut facade = DeltaCluster::new(crdt.clone(), DeltaConfig::default(), REPLICAS);
    let mut oracle = oracle::StateCluster::new(crdt.clone(), REPLICAS);
    for step in 0..rng.random_range(20..80usize) {
        let r = ReplicaId(rng.random_range(0..REPLICAS as u32));
        let action = rng.random_range(0..12u8);
        if !facade.is_up(r) {
            // A crashed replica can only come back.
            facade.restart(r);
            oracle.restart(r);
        } else if action < 5 {
            if let Some(call) = calls(rng, r, facade.state(r)) {
                let f = facade.invoke(r, call.clone()).map(|i| (i.ret, i.op));
                let o = oracle.invoke(r, call).map(|i| (i.ret, i.op));
                rel.invoked(f, o, format_args!("step {step}: invoke at {r}"));
            }
        } else if action < 7 || facade.n_messages() == 0 {
            assert_eq!(facade.resync(r), oracle.send(r));
        } else if action < 10 {
            let m = rng.random_range(0..facade.n_messages());
            facade.apply(r, m);
            // The façade skips a replica's own snapshot; withheld from the
            // oracle too, as the simulator never routes one (see the module
            // comment).
            if oracle.message_origin(m) != r {
                oracle.apply(r, m);
            }
        } else if action == 10 {
            if rng.random_bool(0.5) {
                facade.persist(r);
                oracle.persist(r);
            } else {
                facade.crash(r);
                oracle.crash(r);
            }
        } else {
            let m = rng.random_range(0..facade.n_messages());
            facade.release(m);
            oracle.release(m);
        }
        assert_agree(rel, &facade, &oracle, &format!("step {step}"));
    }
    final_sync_both(rel, &mut facade, &mut oracle);
}

fn schedules<C: DeltaCrdt + Clone, G: Calls<C>>(label: &str, crdt: C, mk_calls: impl Fn() -> G) {
    schedules_under(&Relation::equal(), label, crdt, mk_calls);
}

fn schedules_under<C: DeltaCrdt + Clone, G: Calls<C>>(
    rel: &Relation<C>,
    label: &str,
    crdt: C,
    mk_calls: impl Fn() -> G,
) {
    run_seeded_cases(label, 64, |_, rng| {
        schedule_in_lockstep(rel, &crdt, rng, &mut mk_calls());
    });
}

#[test]
fn schedules_with_faults_match_the_oracle() {
    schedules("parity_pn_counter", PnCounter, || {
        |rng: &mut Rng, _, _: &_| Some(workloads::pn_counter(rng))
    });
    schedules("parity_mv_register", MvRegister::<u8>::new(), || {
        |rng: &mut Rng, _, _: &_| Some(workloads::mv_register(rng))
    });
    schedules("parity_lww_element_set", LwwElementSet::<u8>::new(), || {
        |rng: &mut Rng, _, _: &_| Some(workloads::lww_element_set(rng))
    });
    schedules("parity_two_phase_set", TwoPhaseSet::<u16>::new(), || {
        let mut next = 0u16;
        move |rng: &mut Rng, _, st: &_| workloads::two_phase_set(rng, st, &mut next)
    });
    schedules_under(
        &summing_below(),
        "parity_summing_counter",
        SummingCounter,
        || |_: &mut Rng, _, _: &_| Some(SumCall::Inc),
    );
}
