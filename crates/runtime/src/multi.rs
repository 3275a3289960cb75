//! Several objects of one data type, replicated together: the object
//! compositions `⊗` and `⊗ts` of Section 5.
//!
//! The composed history records a *global* visibility relation — an
//! operation on object `o₁` delivered at replica `r` becomes visible to every
//! later operation issued at `r`, whatever its object — while **causal
//! delivery holds only per object** (Section 5.1). The difference between the
//! unrestricted composition `⊗` and the shared-timestamp composition `⊗ts`
//! (Figure 11) is whether replicas keep one Lamport clock per object or a
//! single clock spanning all of them.
//!
//! A [`MultiCluster`] is the [`OpCluster`] whose records name their object
//! by [`ObjId`]: every per-message method is the one a
//! [`Cluster`](crate::op_based::Cluster) runs, under this module's rule,
//! `PerObject`. Because causal delivery is per object, a replica's
//! *global* seen frontier says little under many objects — it stalls at the
//! first hole of any object. So each replica keeps, per object, its **seen
//! prefix**: how many of that object's operations, in issue order, it has
//! applied contiguously. The prefix advances when the replica applies or
//! invokes an operation on the object, and the rule starts its search for a
//! missing same-object predecessor there, so it decides in O(1) whenever no
//! same-object operation is missing.

use crate::mailbox::DeliveryRecord;
use crate::membership::Member;
use crate::op_based::sealed::{DrainStats, Rule, Sealed};
use crate::op_based::{CallGen, Invoked, Naming, OpBased, OpCluster};
use ral_core::compose::ObjLabel;
use ral_core::history::History;
use ral_core::ids::{ObjId, ReplicaId};
use ral_core::rng::Rng;
use ral_obs as obs;
use rule::{Locals, MultiMeta, PerObject};
use std::fmt::Debug;

/// Timestamp-generator sharing discipline for a composition of objects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TsMode {
    /// Unrestricted composition `⊗`: each object has its own timestamp
    /// generator, so timestamps of different objects may be inconsistent
    /// with the global visibility (Figure 10).
    PerObject,
    /// Shared-timestamp composition `⊗ts`: all objects of a replica share
    /// one generator, so every new timestamp exceeds all timestamps visible
    /// at the replica regardless of object (Figure 11).
    Shared,
}

// Public in name only, so that `Naming for ObjId` can point at them.
mod rule {
    use super::TsMode;

    /// A replica's data: one state per object, one Lamport clock per
    /// object ([`TsMode::PerObject`]) or a single shared one
    /// ([`TsMode::Shared`]), and one seen prefix per object.
    #[derive(Clone)]
    pub struct Locals<S> {
        pub(super) states: Vec<S>,
        pub(super) clocks: Vec<u64>,
        // `prefix[o]`: the replica has applied `obj_ops[o][..prefix[o]]`,
        // and not `obj_ops[o][prefix[o]]` — a pure function of the
        // seen-set, kept canonical by `advance_prefix` after every apply
        // and invoke.
        pub(super) prefix: Vec<usize>,
    }

    /// Composed-transport record metadata: the target object and the
    /// operation's position in that object's issue order
    /// (`obj_ops[obj][idx]` is the record's op). The op's *same-object*
    /// visibility predecessors are not materialized per record: they are
    /// the history's preds among `obj_ops[obj][..idx]`, and the rule only
    /// looks at the part of that range the target's seen prefix has not
    /// covered.
    #[derive(Clone, Debug)]
    pub struct MultiMeta {
        pub(super) obj: usize,
        pub(super) idx: usize,
    }

    /// Per-object causal delivery.
    #[derive(Clone)]
    pub struct PerObject {
        pub(super) mode: TsMode,
        // Per-object index of every op issued on that object, ascending —
        // the candidate pool of the causal rule, entered at the target's
        // seen prefix.
        pub(super) obj_ops: Vec<Vec<usize>>,
    }
}

impl PerObject {
    fn clock_slot(&self, obj: usize) -> usize {
        match self.mode {
            TsMode::PerObject => obj,
            TsMode::Shared => 0,
        }
    }
}

/// Moves `prefix` past every operation of `ops` (one object's issue order)
/// `member` has seen contiguously from it. O(1) unless the step closes a
/// hole, and then linear in what it skips.
fn advance_prefix(ops: &[usize], prefix: &mut usize, member: &Member) {
    while ops.get(*prefix).is_some_and(|&p| member.has_seen(p)) {
        *prefix += 1;
    }
}

impl Rule<ObjId> for PerObject {
    type Data<S: Clone> = Locals<S>;
    type Meta = MultiMeta;
    const DRAIN: &'static str = "runtime.multi.drain";

    /// The first same-object predecessor not yet applied.
    ///
    /// The candidates are the operations on `rec`'s object issued before
    /// it, `obj_ops[obj][..idx]`. The replica's seen prefix covers the
    /// front of that range, so the rule starts there: when the prefix has
    /// reached `idx` — no same-object operation missing, whatever holes the
    /// other objects leave — it lacks nothing, in O(1). Otherwise it scans
    /// the uncovered candidates for the first one the replica has not seen
    /// and `rec.op` does (the history's pred set), counting the scan as
    /// `runtime.multi.candidates`.
    fn missing<S: Clone, E, L>(
        &self,
        history: &History<L>,
        member: &Member,
        data: &Locals<S>,
        rec: &DeliveryRecord<E, MultiMeta>,
    ) -> Option<usize> {
        let MultiMeta { obj, idx } = rec.meta;
        let from = data.prefix[obj];
        if from >= idx {
            return None;
        }
        let preds = history.preds(rec.op);
        let candidates = &self.obj_ops[obj][from..idx];
        let hit = candidates
            .iter()
            .position(|&p| !member.has_seen(p) && preds.contains(p));
        obs::counter(
            "runtime.multi.candidates",
            hit.map_or(candidates.len(), |i| i + 1) as u64,
        );
        hit.map(|i| candidates[i])
    }

    fn apply<C: OpBased>(
        &self,
        crdt: &C,
        data: &mut Locals<C::State>,
        member: &Member,
        rec: &DeliveryRecord<C::Eff, MultiMeta>,
    ) {
        let MultiMeta { obj, .. } = rec.meta;
        let slot = self.clock_slot(obj);
        if let Some(eff) = &rec.eff {
            crdt.apply(&mut data.states[obj], eff);
        }
        data.clocks[slot] = data.clocks[slot].max(rec.clock);
        advance_prefix(&self.obj_ops[obj], &mut data.prefix[obj], member);
    }

    fn slots<'a, S: Clone>(&self, data: &'a mut Locals<S>, obj: ObjId) -> (&'a mut S, &'a mut u64) {
        let o = obj.0 as usize;
        (&mut data.states[o], &mut data.clocks[self.clock_slot(o)])
    }

    fn states<S: Clone>(data: &Locals<S>) -> &[S] {
        &data.states
    }

    fn label<L: Clone + Debug>(obj: ObjId, label: L) -> ObjLabel<L> {
        ObjLabel::new(obj, label)
    }

    fn invoked<S: Clone>(
        &mut self,
        data: &mut Locals<S>,
        member: &Member,
        obj: ObjId,
        op: usize,
    ) -> MultiMeta {
        let o = obj.0 as usize;
        let ops = &mut self.obj_ops[o];
        let idx = ops.len();
        ops.push(op);
        advance_prefix(ops, &mut data.prefix[o], member);
        MultiMeta { obj: o, idx }
    }

    fn drained(stats: &DrainStats) {
        if stats.probes > 0 {
            obs::counter("runtime.multi.probes", stats.probes);
        }
        obs::observe("runtime.multi.mailbox.depth", stats.depth);
        obs::observe("runtime.multi.mailbox.batch", stats.applied);
    }
}

impl Sealed for ObjId {}

impl Naming for ObjId {
    type Label<L: Clone + Debug> = ObjLabel<L>;
    type Rule = PerObject;
}

/// A cluster replicating `n` objects of the same data type: the
/// [`OpCluster`] whose records name their object by [`ObjId`].
// Cloning forks the whole composed configuration — the branch point of
// `ral-analyze`'s timestamp-discipline search.
pub type MultiCluster<C> = OpCluster<C, ObjId>;

impl<C: OpBased> MultiCluster<C> {
    /// Creates a cluster of `n_replicas` replicas, each holding `n_objects`
    /// objects, under the given timestamp discipline.
    ///
    /// # Panics
    ///
    /// Panics if `n_replicas` or `n_objects` is zero.
    pub fn new(crdt: C, n_objects: usize, n_replicas: usize, mode: TsMode) -> Self {
        assert!(n_objects > 0, "a composition needs at least one object");
        let clock_slots = match mode {
            TsMode::PerObject => n_objects,
            TsMode::Shared => 1,
        };
        let obj_ops = vec![Vec::new(); n_objects];
        OpCluster::with_replicas(crdt, PerObject { mode, obj_ops }, n_replicas, |crdt| {
            Locals {
                states: (0..n_objects).map(|_| crdt.initial()).collect(),
                clocks: vec![0; clock_slots],
                prefix: vec![0; n_objects],
            }
        })
    }

    /// Number of composed objects.
    pub fn n_objects(&self) -> usize {
        self.rules.rule.obj_ops.len()
    }

    /// The timestamp discipline of this composition.
    pub fn mode(&self) -> TsMode {
        self.rules.rule.mode
    }

    /// The state of object `obj` at replica `r`.
    pub fn state(&self, r: ReplicaId, obj: ObjId) -> &C::State {
        &self.replicas[r.0 as usize].data.states[obj.0 as usize]
    }

    /// Invokes `call` on object `obj` at replica `r` (the OPERATION rule):
    /// the generator runs against that object's state and clock, the origin
    /// applies the effector at once, and the record is broadcast.
    ///
    /// Returns `None` if the generator's precondition refuses the call.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is out of range or the replica is crashed (see
    /// [`OpCluster::crash`]).
    pub fn invoke(&mut self, r: ReplicaId, obj: ObjId, call: C::Call) -> Option<Invoked<C::Ret>> {
        assert!(
            (obj.0 as usize) < self.n_objects(),
            "object {obj} out of range"
        );
        self.invoke_on(r, obj, call)
    }

    /// Replica `r`'s seen prefix on object `obj`: how many of the
    /// operations issued on `obj`, in issue order, it has applied
    /// contiguously — the per-object analogue of
    /// [`OpCluster::seen_frontier`], where the causal rule starts looking
    /// for a missing predecessor.
    pub fn seen_prefix(&self, r: ReplicaId, obj: ObjId) -> usize {
        self.replicas[r.0 as usize].data.prefix[obj.0 as usize]
    }
}

impl<C, F> CallGen<C, ObjId> for F
where
    C: OpBased,
    F: FnMut(&mut Rng, ReplicaId, ObjId, &C::State) -> Option<C::Call>,
{
    fn invoke(
        &mut self,
        rng: &mut Rng,
        r: ReplicaId,
        cluster: &mut MultiCluster<C>,
    ) -> Option<Invoked<C::Ret>> {
        let obj = ObjId(rng.random_range(0..cluster.n_objects()) as u32);
        let call = self(rng, r, obj, cluster.state(r, obj))?;
        cluster.invoke(r, obj, call)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GenCtx, GenOutcome};
    use crate::mailbox::Received;
    use ral_core::timestamp::Ts;

    /// A register that stores the last written value with its timestamp.
    struct Reg;

    #[derive(Clone, Debug, PartialEq)]
    #[allow(dead_code)]
    enum Call {
        Write(u32),
        Read,
    }

    impl OpBased for Reg {
        type State = (u32, u64);
        type Call = Call;
        type Ret = u32;
        type Eff = (u32, Ts);
        type Label = Call;

        fn initial(&self) -> (u32, u64) {
            (0, 0)
        }

        fn generator(
            &self,
            state: &(u32, u64),
            call: &Call,
            ctx: &mut GenCtx,
        ) -> GenOutcome<u32, (u32, Ts)> {
            match call {
                Call::Write(v) => GenOutcome::update(0, (*v, ctx.fresh_ts())),
                Call::Read => GenOutcome::query(state.0),
            }
        }

        fn apply(&self, state: &mut (u32, u64), eff: &(u32, Ts)) {
            if state.1 < eff.1.counter {
                *state = (eff.0, eff.1.counter);
            }
        }

        fn label(&self, call: &Call, _ret: &u32) -> Call {
            call.clone()
        }
    }

    fn r(i: u32) -> ReplicaId {
        ReplicaId(i)
    }

    fn o(i: u32) -> ObjId {
        ObjId(i)
    }

    #[test]
    fn objects_are_independent() {
        let mut c = MultiCluster::new(Reg, 2, 2, TsMode::PerObject);
        c.invoke(r(0), o(0), Call::Write(5)).unwrap();
        assert_eq!(c.state(r(0), o(0)), &(5, 1));
        assert_eq!(c.state(r(0), o(1)), &(0, 0));
    }

    #[test]
    fn shared_mode_orders_timestamps_across_objects() {
        let mut c = MultiCluster::new(Reg, 2, 1, TsMode::Shared);
        let a = c.invoke(r(0), o(0), Call::Write(1)).unwrap();
        let b = c.invoke(r(0), o(1), Call::Write(2)).unwrap();
        let ts_a = c.history().op(a.op).ts.unwrap();
        let ts_b = c.history().op(b.op).ts.unwrap();
        assert!(ts_a < ts_b, "shared generator must be monotone");
    }

    #[test]
    fn per_object_mode_can_reuse_counters() {
        let mut c = MultiCluster::new(Reg, 2, 1, TsMode::PerObject);
        let a = c.invoke(r(0), o(0), Call::Write(1)).unwrap();
        let b = c.invoke(r(0), o(1), Call::Write(2)).unwrap();
        let ts_a = c.history().op(a.op).ts.unwrap();
        let ts_b = c.history().op(b.op).ts.unwrap();
        // Independent generators: both operations get counter 1.
        assert_eq!(ts_a.counter, ts_b.counter);
    }

    #[test]
    fn global_visibility_crosses_objects() {
        let mut c = MultiCluster::new(Reg, 2, 2, TsMode::Shared);
        let a = c.invoke(r(0), o(0), Call::Write(1)).unwrap();
        c.deliver_all();
        let b = c.invoke(r(1), o(1), Call::Write(2)).unwrap();
        assert!(c.history().sees(b.op, a.op));
    }

    #[test]
    fn causal_delivery_is_per_object() {
        let mut c = MultiCluster::new(Reg, 2, 2, TsMode::Shared);
        // r0 writes o0 then o1; the o1 write "sees" the o0 write globally,
        // but r1 may receive the o1 effector first.
        c.invoke(r(0), o(0), Call::Write(1)).unwrap();
        c.invoke(r(0), o(1), Call::Write(2)).unwrap();
        let ds = c.deliverable(r(1));
        assert_eq!(ds.len(), 2, "both effectors deliverable: different objects");
        c.deliver(r(1), ds[1]);
        c.deliver_all();
        assert!(c.converged());
    }

    #[test]
    fn convergence_across_objects() {
        let mut c = MultiCluster::new(Reg, 3, 3, TsMode::Shared);
        for i in 0..3 {
            c.invoke(r(i), o(i % 3), Call::Write(i + 10)).unwrap();
        }
        c.deliver_all();
        assert!(c.converged());
    }

    /// A last-writer-wins register with the full `(counter, replica)`
    /// timestamp tiebreak, so concurrent writes converge under *any*
    /// causal delivery order — what the drain-equivalence tests need.
    struct TsReg;

    impl OpBased for TsReg {
        type State = (u32, Option<Ts>);
        type Call = Call;
        type Ret = u32;
        type Eff = (u32, Ts);
        type Label = Call;

        fn initial(&self) -> Self::State {
            (0, None)
        }

        fn generator(
            &self,
            state: &Self::State,
            call: &Call,
            ctx: &mut GenCtx,
        ) -> GenOutcome<u32, (u32, Ts)> {
            match call {
                Call::Write(v) => GenOutcome::update(0, (*v, ctx.fresh_ts())),
                Call::Read => GenOutcome::query(state.0),
            }
        }

        fn apply(&self, state: &mut Self::State, eff: &(u32, Ts)) {
            if state.1.is_none_or(|t| t < eff.1) {
                *state = (eff.0, Some(eff.1));
            }
        }

        fn label(&self, call: &Call, _ret: &u32) -> Call {
            call.clone()
        }
    }

    /// The seed-era fixpoint drain, through the public per-delivery API:
    /// rescan `deliverable` until no pass makes progress. Kept as the
    /// behavioural oracle for the mailbox-based `deliver_all`.
    fn reference_drain<C: OpBased>(c: &mut MultiCluster<C>) {
        loop {
            let mut progress = false;
            for r in 0..c.n_replicas() {
                let r = ReplicaId(r as u32);
                for d in c.deliverable(r) {
                    c.deliver(r, d);
                    progress = true;
                }
            }
            if !progress {
                return;
            }
        }
    }

    #[test]
    fn deliver_all_matches_the_fixpoint_reference_drain() {
        // Same invocation stream into two clusters; one drains with the
        // mailbox-based deliver_all, the other with the seed-era
        // fixpoint rescan. History and every per-replica object state
        // must come out identical.
        let mut fast = MultiCluster::new(TsReg, 3, 4, TsMode::Shared);
        let mut slow = MultiCluster::new(TsReg, 3, 4, TsMode::Shared);
        for i in 0..300u32 {
            let (rep, obj) = (r(i % 4), o(i % 3));
            fast.invoke(rep, obj, Call::Write(i)).unwrap();
            slow.invoke(rep, obj, Call::Write(i)).unwrap();
            if i % 50 == 17 {
                // Interleave partial drains so pruning of already-applied
                // queue entries is exercised too.
                fast.deliver_all();
                reference_drain(&mut slow);
            }
        }
        fast.deliver_all();
        reference_drain(&mut slow);
        assert!(fast.converged() && slow.converged());
        assert_eq!(
            format!("{:?}", fast.history()),
            format!("{:?}", slow.history()),
            "drain strategy must not change the recorded history"
        );
        for rep in 0..4 {
            for obj in 0..3 {
                assert_eq!(
                    fast.state(r(rep), o(obj)),
                    slow.state(r(rep), o(obj)),
                    "state of o{obj}@r{rep} diverged between drains"
                );
            }
        }
    }

    #[test]
    fn ten_thousand_delivery_drain_is_linear_in_probes() {
        // 10⁴ deliveries outstanding at 3 peers each — the multi_mix
        // regime. The mailbox drain must probe each outstanding
        // (delivery, replica) pair exactly once: O(d) probes, where the
        // seed-era fixpoint rescan performed O(d²·|preds|) work.
        let mut c = MultiCluster::new(TsReg, 8, 4, TsMode::Shared);
        for i in 0..10_000u32 {
            c.invoke(r(i % 4), o(i % 8), Call::Write(i)).unwrap();
        }
        assert_eq!(c.n_deliveries(), 10_000);
        let outstanding = (c.n_deliveries() * (c.n_replicas() - 1)) as u64;
        let probes = c.deliver_all_counting();
        assert_eq!(
            probes, outstanding,
            "mailbox drain must probe each outstanding pair exactly once"
        );
        assert!(c.converged());
        // A drained cluster re-drains for free.
        assert_eq!(c.deliver_all_counting(), 0);
    }

    #[test]
    fn crash_buffers_deliveries_until_restart() {
        let mut c = MultiCluster::new(Reg, 2, 2, TsMode::Shared);
        c.crash(r(1));
        c.invoke(r(0), o(0), Call::Write(1)).unwrap();
        assert_eq!(c.n_deliveries(), 1);
        assert!(!c.can_deliver(r(1), 0));
        assert!(c.deliverable(r(1)).is_empty());
        c.deliver_all();
        assert!(!c.is_delivered(0, r(1)));
        c.restart_all();
        assert!(c.can_deliver(r(1), 0));
        c.deliver_all();
        assert!(c.converged());
    }

    #[test]
    fn one_object_composition_delivers_exactly_like_the_single_cluster() {
        // Both instances run the same `OpCluster` methods; with one object
        // "same-object predecessors" is "all predecessors", so a script
        // played in lockstep must be indistinguishable step by step: the
        // holdback `receive` and the drain the simulator takes, and the
        // targeted `can_deliver` / `deliver` and `deliverable_into` the
        // `ral-analyze` op and ts engines take.
        use crate::op_based::Cluster;
        enum Step {
            Invoke(u32, u32),
            Receive(u32, usize, Received),
            Deliver(u32, usize, bool),
            Crash(u32),
            Restart(u32),
            Drain,
        }
        use Step::*;
        let script = [
            Invoke(0, 1), // d0
            Invoke(0, 2), // d1, sees d0
            Invoke(1, 3), // d2, concurrent
            Receive(2, 1, Received::Held),
            Receive(2, 2, Received::Applied(1)), // leaves a hole below it
            Receive(2, 0, Received::Applied(2)), // unblocks d1
            Receive(2, 1, Received::Ignored),
            Deliver(1, 1, false), // d1 waits on d0
            Deliver(1, 0, true),
            Deliver(1, 1, true),
            Deliver(1, 1, false), // already applied
            Crash(1),
            Invoke(2, 4),                  // d3
            Receive(1, 3, Received::Held), // down: buffered
            Deliver(1, 3, false),          // down: refused
            Drain,
            Restart(1),
            Drain,
        ];
        let mut single = Cluster::new(TsReg, 3);
        let mut multi = MultiCluster::new(TsReg, 1, 3, TsMode::Shared);
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for step in script {
            match step {
                Invoke(rep, v) => assert_eq!(
                    single.invoke(r(rep), Call::Write(v)),
                    multi.invoke(r(rep), o(0), Call::Write(v))
                ),
                Receive(rep, d, expected) => {
                    assert_eq!(single.receive(r(rep), d), expected, "d{d} at r{rep}");
                    assert_eq!(multi.receive(r(rep), d), expected, "d{d} at r{rep}");
                }
                Deliver(rep, d, admitted) => {
                    assert_eq!(single.can_deliver(r(rep), d), admitted, "d{d} at r{rep}");
                    assert_eq!(multi.can_deliver(r(rep), d), admitted, "d{d} at r{rep}");
                    if admitted {
                        single.deliver(r(rep), d);
                        multi.deliver(r(rep), d);
                    }
                }
                Crash(rep) => {
                    single.crash(r(rep));
                    multi.crash(r(rep));
                }
                Restart(rep) => {
                    single.restart(r(rep));
                    multi.restart(r(rep));
                }
                Drain => {
                    let probes = single.deliver_all_counting();
                    assert!(probes > 0, "the script leaves every drain work to do");
                    assert_eq!(multi.deliver_all_counting(), probes);
                }
            }
            for rep in (0..3).map(r) {
                single.deliverable_into(rep, &mut want);
                multi.deliverable_into(rep, &mut got);
                assert_eq!(got, want, "deliverable at {rep}");
                assert_eq!(multi.held(rep), single.held(rep), "held at {rep}");
            }
        }
        assert!(single.converged() && multi.converged());
        for rep in (0..3).map(r) {
            assert_eq!(multi.state(rep, o(0)), single.state(rep));
            assert_eq!(multi.seen(rep), single.seen(rep));
            assert_eq!(multi.seen_frontier(rep), single.seen_frontier(rep));
        }
        assert_eq!(
            format!("{:?}", multi.into_history().map(|l| l.label)),
            format!("{:?}", single.into_history()),
            "histories must be equal up to the object tag"
        );
    }
}
