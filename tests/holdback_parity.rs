//! Holdback parity: the shared delivery core's causal holdback — arrivals
//! filed under the one predecessor they lack, per-object seen prefixes —
//! against the holdback it replaced, copied below verbatim as the oracle:
//! one held list per replica, rescanned from the front after every admit,
//! under the global-frontier admission rules.
//!
//! One seeded script drives both in lockstep: invocations, network
//! arrivals in random order (duplicates and arrivals at crashed replicas
//! included), crashes and restarts, targeted `deliver`s and `deliver_all`.
//! After every step the two must agree on the step's answer, on every
//! replica's seen-set, states and per-pair deliverability, and on the
//! history (`Debug` bytes). The new core answers three more questions the
//! oracle is checked against: the per-object seen prefix equals the one
//! recomputed from the oracle's seen-set, the holdback never holds more
//! than the oracle's held list, and a drain leaves a running replica
//! holding nothing.
//!
//! Scripts run on [`MultiCluster`] with 1, 4 and 32 objects under both
//! [`TsMode`]s and on the single-object [`Cluster`], each over a counter
//! and an RGA.

use ral_core::bitset::BitSet;
use ral_core::compose::ObjLabel;
use ral_core::ids::{ObjId, ReplicaId};
use ral_core::rng::{run_seeded_cases, Rng};
use ral_crdts::op::counter::OpCounter;
use ral_crdts::op::rga::Rga;
use ral_runtime::mailbox::Received;
use ral_runtime::multi::{MultiCluster, TsMode};
use ral_runtime::op_based::{Cluster, Invoked, OpBased};
use ral_verify::workloads;

/// The op-based delivery core as it stood before the filed holdback:
/// `mailbox.rs`'s precondition trio, holdback `receive` and ascending
/// drain, `op_based.rs`'s and `multi.rs`'s admission rules, and
/// `MultiCluster`'s invoke, copied verbatim but for the drain statistics
/// and panic messages left out and the lines marked. One generic cluster
/// plays both transports: the single-object rule on one object with one
/// clock is `Cluster`.
mod oracle {
    use ral_core::compose::ObjLabel;
    use ral_core::history::{History, OpRecord};
    use ral_core::ids::{ObjId, ReplicaId};
    use ral_runtime::gen::{GenCtx, GenOutcome};
    use ral_runtime::mailbox::Received;
    use ral_runtime::membership::Member;
    use ral_runtime::multi::TsMode;
    use ral_runtime::op_based::{Invoked, OpBased};

    /// Which transport's admission predicate the oracle runs.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Rule {
        /// `op_based::Causal`: every visible predecessor applied.
        Causal,
        /// `multi::PerObject`: every same-object predecessor applied.
        PerObject,
    }

    // Marked: the record's object is a field, not `MultiMeta`.
    struct DeliveryRecord<E> {
        op: usize,
        eff: Option<E>,
        clock: u64,
        obj: usize,
    }

    struct Locals<S> {
        states: Vec<S>,
        clocks: Vec<u64>,
    }

    struct Node<S> {
        data: Locals<S>,
        member: Member,
        // Marked: the old `Mailbox`, inlined.
        cursor: usize,
        backlog: Vec<usize>,
        held: Vec<usize>,
    }

    struct Rules<C: OpBased> {
        crdt: C,
        rule: Rule,
        mode: TsMode,
        obj_ops: Vec<Vec<usize>>,
        history: History<ObjLabel<C::Label>>,
    }

    impl<C: OpBased> Rules<C> {
        fn clock_slot(&self, obj: usize) -> usize {
            match self.mode {
                TsMode::PerObject => obj,
                TsMode::Shared => 0,
            }
        }

        // Marked: one oracle runs either transport's rule.
        fn admits(&self, member: &Member, rec: &DeliveryRecord<C::Eff>) -> bool {
            match self.rule {
                Rule::Causal => {
                    rec.op <= member.frontier()
                        || self.history.preds(rec.op).is_subset(member.seen())
                }
                Rule::PerObject => {
                    if rec.op <= member.frontier() {
                        return true;
                    }
                    let same_obj = &self.obj_ops[rec.obj];
                    let cut = same_obj.partition_point(|&p| p < rec.op);
                    let lo = same_obj.partition_point(|&p| p < member.frontier());
                    let candidates = &same_obj[lo..cut];
                    if candidates.is_empty() {
                        return true;
                    }
                    let preds = self.history.preds(rec.op);
                    candidates
                        .iter()
                        .all(|&p| member.has_seen(p) || !preds.contains(p))
                }
            }
        }

        fn apply(&self, data: &mut Locals<C::State>, rec: &DeliveryRecord<C::Eff>) {
            let slot = self.clock_slot(rec.obj);
            if let Some(eff) = &rec.eff {
                self.crdt.apply(&mut data.states[rec.obj], eff);
            }
            data.clocks[slot] = data.clocks[slot].max(rec.clock);
        }
    }

    fn admit<C: OpBased>(
        rules: &Rules<C>,
        node: &mut Node<C::State>,
        rec: &DeliveryRecord<C::Eff>,
    ) {
        rules.apply(&mut node.data, rec);
        node.member.observe(rec.op);
    }

    fn can_deliver<C: OpBased>(
        rules: &Rules<C>,
        node: &Node<C::State>,
        rec: &DeliveryRecord<C::Eff>,
    ) -> bool {
        node.member.is_up() && !node.member.has_seen(rec.op) && rules.admits(&node.member, rec)
    }

    fn receive<C: OpBased>(
        rules: &Rules<C>,
        node: &mut Node<C::State>,
        records: &[DeliveryRecord<C::Eff>],
        d: usize,
    ) -> Received {
        let rec = &records[d];
        if node.member.has_seen(rec.op) {
            return Received::Ignored;
        }
        if !can_deliver(rules, node, rec) {
            node.held.push(d);
            return Received::Held;
        }
        admit(rules, node, rec);
        let mut applied = 1;
        let mut held = std::mem::take(&mut node.held);
        while let Some(pos) = held
            .iter()
            .position(|&h| can_deliver(rules, node, &records[h]))
        {
            let h = held.swap_remove(pos);
            admit(rules, node, &records[h]);
            applied += 1;
        }
        node.held = held;
        Received::Applied(applied)
    }

    fn probe<C: OpBased>(
        rules: &Rules<C>,
        node: &mut Node<C::State>,
        rec: &DeliveryRecord<C::Eff>,
    ) -> bool {
        if node.member.has_seen(rec.op) {
            return false;
        }
        let admitted = rules.admits(&node.member, rec);
        if admitted {
            admit(rules, node, rec);
        }
        !admitted
    }

    fn drain<C: OpBased>(
        rules: &Rules<C>,
        node: &mut Node<C::State>,
        records: &[DeliveryRecord<C::Eff>],
    ) {
        if !node.member.is_up() {
            return;
        }
        let mut backlog = std::mem::take(&mut node.backlog);
        backlog.retain(|&d| probe(rules, node, &records[d]));
        for (d, rec) in records.iter().enumerate().skip(node.cursor) {
            if probe(rules, node, rec) {
                backlog.push(d);
            }
        }
        node.cursor = records.len();
        node.backlog = backlog;
        let member = &node.member;
        node.held.retain(|&id| !member.has_seen(records[id].op));
    }

    /// The old cluster: `MultiCluster`'s fields under either rule.
    pub struct Oracle<C: OpBased> {
        rules: Rules<C>,
        replicas: Vec<Node<C::State>>,
        records: Vec<DeliveryRecord<C::Eff>>,
        next_uid: u64,
    }

    impl<C: OpBased> Oracle<C> {
        pub fn new(crdt: C, rule: Rule, n_objects: usize, n_replicas: usize, mode: TsMode) -> Self {
            let clock_slots = match mode {
                TsMode::PerObject => n_objects,
                TsMode::Shared => 1,
            };
            let replicas = (0..n_replicas)
                .map(|_| Node {
                    data: Locals {
                        states: (0..n_objects).map(|_| crdt.initial()).collect(),
                        clocks: vec![0; clock_slots],
                    },
                    member: Member::new(),
                    cursor: 0,
                    backlog: Vec::new(),
                    held: Vec::new(),
                })
                .collect();
            Oracle {
                rules: Rules {
                    crdt,
                    rule,
                    mode,
                    obj_ops: vec![Vec::new(); n_objects],
                    history: History::new(),
                },
                replicas,
                records: Vec::new(),
                next_uid: 0,
            }
        }

        pub fn invoke(
            &mut self,
            r: ReplicaId,
            obj: ObjId,
            call: C::Call,
        ) -> Option<Invoked<C::Ret>> {
            let o = obj.0 as usize;
            let slot = self.rules.clock_slot(o);
            let Rules {
                crdt,
                obj_ops,
                history,
                ..
            } = &mut self.rules;
            let node = &mut self.replicas[r.0 as usize];
            node.member.expect_up("invoke at", r);
            let mut ctx = GenCtx::new(r, node.data.clocks[slot], self.next_uid);
            match crdt.generator(&node.data.states[o], &call, &mut ctx) {
                GenOutcome::Refused => None,
                GenOutcome::Done { ret, eff } => {
                    let label = ObjLabel::new(obj, crdt.label(&call, &ret));
                    let record = match ctx.issued_ts() {
                        Some(ts) => OpRecord::with_ts(label, r, ts),
                        None => OpRecord::new(label, r),
                    };
                    let op = history.push_set(record, node.member.seen().clone());
                    node.data.clocks[slot] = ctx.clock();
                    self.next_uid = ctx.uid_counter();
                    if let Some(eff) = &eff {
                        crdt.apply(&mut node.data.states[o], eff);
                    }
                    node.member.observe(op);
                    obj_ops[o].push(op);
                    self.records.push(DeliveryRecord {
                        op,
                        eff,
                        clock: node.data.clocks[slot],
                        obj: o,
                    });
                    Some(Invoked { ret, op })
                }
            }
        }

        pub fn can_deliver(&self, r: ReplicaId, d: usize) -> bool {
            can_deliver(&self.rules, &self.replicas[r.0 as usize], &self.records[d])
        }

        pub fn deliver(&mut self, r: ReplicaId, d: usize) {
            let node = &mut self.replicas[r.0 as usize];
            node.member.expect_up("deliver at", r);
            assert!(!node.member.has_seen(self.records[d].op));
            assert!(self.rules.admits(&node.member, &self.records[d]));
            admit(&self.rules, node, &self.records[d]);
        }

        pub fn receive(&mut self, r: ReplicaId, d: usize) -> Received {
            let node = &mut self.replicas[r.0 as usize];
            receive(&self.rules, node, &self.records, d)
        }

        pub fn deliver_all(&mut self) {
            for node in &mut self.replicas {
                drain(&self.rules, node, &self.records);
            }
        }

        pub fn crash(&mut self, r: ReplicaId) {
            self.replicas[r.0 as usize].member.crash();
        }

        pub fn restart(&mut self, r: ReplicaId) {
            self.replicas[r.0 as usize].member.restart();
        }

        pub fn is_up(&self, r: ReplicaId) -> bool {
            self.replicas[r.0 as usize].member.is_up()
        }

        pub fn member(&self, r: ReplicaId) -> &Member {
            &self.replicas[r.0 as usize].member
        }

        pub fn state(&self, r: ReplicaId, obj: usize) -> &C::State {
            &self.replicas[r.0 as usize].data.states[obj]
        }

        /// The old held list, duplicates and lazily pruned ids included.
        pub fn held(&self, r: ReplicaId) -> usize {
            self.replicas[r.0 as usize].held.len()
        }

        pub fn obj_ops(&self, obj: usize) -> &[usize] {
            &self.rules.obj_ops[obj]
        }

        pub fn history(&self) -> &History<ObjLabel<C::Label>> {
            &self.rules.history
        }

        pub fn n_deliveries(&self) -> usize {
            self.records.len()
        }
    }
}

use oracle::{Oracle, Rule};

/// The two clusters the new core runs, behind the calls a script makes.
trait Core<C: OpBased> {
    fn invoke(&mut self, r: ReplicaId, obj: ObjId, call: C::Call) -> Option<Invoked<C::Ret>>;
    fn receive(&mut self, r: ReplicaId, d: usize) -> Received;
    fn deliver(&mut self, r: ReplicaId, d: usize);
    fn can_deliver(&self, r: ReplicaId, d: usize) -> bool;
    fn deliver_all(&mut self);
    fn crash(&mut self, r: ReplicaId);
    fn restart(&mut self, r: ReplicaId);
    fn seen(&self, r: ReplicaId) -> &BitSet;
    fn state(&self, r: ReplicaId, obj: usize) -> &C::State;
    fn held(&self, r: ReplicaId) -> usize;
    /// The per-object seen prefix, where the transport keeps one.
    fn seen_prefix(&self, r: ReplicaId, obj: usize) -> Option<usize>;
    /// The history's `Debug` bytes, object tags included.
    fn history_debug(&self) -> String;
}

impl<C: OpBased> Core<C> for Cluster<C> {
    fn invoke(&mut self, r: ReplicaId, _: ObjId, call: C::Call) -> Option<Invoked<C::Ret>> {
        Cluster::invoke(self, r, call)
    }
    fn receive(&mut self, r: ReplicaId, d: usize) -> Received {
        Cluster::receive(self, r, d)
    }
    fn deliver(&mut self, r: ReplicaId, d: usize) {
        Cluster::deliver(self, r, d)
    }
    fn can_deliver(&self, r: ReplicaId, d: usize) -> bool {
        Cluster::can_deliver(self, r, d)
    }
    fn deliver_all(&mut self) {
        Cluster::deliver_all(self)
    }
    fn crash(&mut self, r: ReplicaId) {
        Cluster::crash(self, r)
    }
    fn restart(&mut self, r: ReplicaId) {
        Cluster::restart(self, r)
    }
    fn seen(&self, r: ReplicaId) -> &BitSet {
        Cluster::seen(self, r)
    }
    fn state(&self, r: ReplicaId, _: usize) -> &C::State {
        Cluster::state(self, r)
    }
    fn held(&self, r: ReplicaId) -> usize {
        Cluster::held(self, r)
    }
    fn seen_prefix(&self, _: ReplicaId, _: usize) -> Option<usize> {
        None
    }
    fn history_debug(&self) -> String {
        // The oracle tags every label with object 0.
        let tagged = self.history().clone().map(|l| ObjLabel::new(ObjId(0), l));
        format!("{tagged:?}")
    }
}

impl<C: OpBased> Core<C> for MultiCluster<C> {
    fn invoke(&mut self, r: ReplicaId, obj: ObjId, call: C::Call) -> Option<Invoked<C::Ret>> {
        MultiCluster::invoke(self, r, obj, call)
    }
    fn receive(&mut self, r: ReplicaId, d: usize) -> Received {
        MultiCluster::receive(self, r, d)
    }
    fn deliver(&mut self, r: ReplicaId, d: usize) {
        MultiCluster::deliver(self, r, d)
    }
    fn can_deliver(&self, r: ReplicaId, d: usize) -> bool {
        MultiCluster::can_deliver(self, r, d)
    }
    fn deliver_all(&mut self) {
        MultiCluster::deliver_all(self)
    }
    fn crash(&mut self, r: ReplicaId) {
        MultiCluster::crash(self, r)
    }
    fn restart(&mut self, r: ReplicaId) {
        MultiCluster::restart(self, r)
    }
    fn seen(&self, r: ReplicaId) -> &BitSet {
        MultiCluster::seen(self, r)
    }
    fn state(&self, r: ReplicaId, obj: usize) -> &C::State {
        MultiCluster::state(self, r, ObjId(obj as u32))
    }
    fn held(&self, r: ReplicaId) -> usize {
        MultiCluster::held(self, r)
    }
    fn seen_prefix(&self, r: ReplicaId, obj: usize) -> Option<usize> {
        Some(MultiCluster::seen_prefix(self, r, ObjId(obj as u32)))
    }
    fn history_debug(&self) -> String {
        format!("{:?}", self.history())
    }
}

/// One scripted step.
#[derive(Debug)]
enum Step {
    Invoke(ReplicaId, ObjId),
    /// A network arrival: the in-flight message at this index of the
    /// script's network (kept for a later duplicate if the flag is set).
    Receive(usize, bool),
    Deliver(ReplicaId),
    DeliverAll,
    Crash(ReplicaId),
    Restart(ReplicaId),
}

/// Draws the next step. A network arrival is any message in flight, so
/// arrivals overtake one another, and one in ten stays in flight to arrive
/// again.
fn draw_step(rng: &mut Rng, n_replicas: usize, n_objects: usize, in_flight: usize) -> Step {
    let r = ReplicaId(rng.random_range(0..n_replicas) as u32);
    let roll = rng.random_range(0..100u32);
    if roll < 35 || in_flight == 0 {
        return Step::Invoke(r, ObjId(rng.random_range(0..n_objects) as u32));
    }
    match roll {
        35..=89 => Step::Receive(rng.random_range(0..in_flight), rng.random_bool(0.1)),
        90..=93 => Step::Deliver(r),
        94 => Step::DeliverAll,
        95..=96 => Step::Crash(r),
        _ => Step::Restart(r),
    }
}

/// What a script invokes: a call for object state `state`, or `None` to
/// skip the step.
type Calls<C> = fn(&mut Rng, &<C as OpBased>::State, &mut u16) -> Option<<C as OpBased>::Call>;

fn counter_calls(rng: &mut Rng, _: &i64, _: &mut u16) -> Option<<OpCounter as OpBased>::Call> {
    Some(workloads::counter(rng))
}

fn rga_calls(
    rng: &mut Rng,
    state: &<Rga<u16> as OpBased>::State,
    next: &mut u16,
) -> Option<<Rga<u16> as OpBased>::Call> {
    workloads::rga(rng, state, next)
}

/// Checks everything the two clusters must agree on after a step.
fn compare<C, K>(core: &K, oracle: &Oracle<C>, n_replicas: usize, n_objects: usize, at: &str)
where
    C: OpBased,
    K: Core<C>,
{
    for i in 0..n_replicas {
        let r = ReplicaId(i as u32);
        let member = oracle.member(r);
        assert_eq!(core.seen(r), member.seen(), "{at}: seen-set of {r}");
        for o in 0..n_objects {
            assert_eq!(
                core.state(r, o),
                oracle.state(r, o),
                "{at}: state of o{o}@{r}"
            );
            if let Some(prefix) = core.seen_prefix(r, o) {
                let ops = oracle.obj_ops(o);
                let expected = ops.iter().take_while(|&&p| member.has_seen(p)).count();
                assert_eq!(prefix, expected, "{at}: seen prefix of o{o}@{r}");
            }
        }
        for d in 0..oracle.n_deliveries() {
            assert_eq!(
                core.can_deliver(r, d),
                oracle.can_deliver(r, d),
                "{at}: deliverability of d{d} at {r}"
            );
        }
        assert!(
            core.held(r) <= oracle.held(r),
            "{at}: {r} holds {} arrivals, the oracle {}",
            core.held(r),
            oracle.held(r)
        );
    }
    assert_eq!(
        core.history_debug(),
        format!("{:?}", oracle.history()),
        "{at}: history"
    );
}

/// How a script's arrivals went.
#[derive(Debug, Default)]
struct Tally {
    /// Arrivals held at a running replica.
    held: usize,
    /// Arrivals held at a crashed replica.
    held_down: usize,
    /// Arrivals that released at least one held arrival.
    released_many: usize,
    /// Repeated arrivals.
    ignored: usize,
}

/// Plays `steps` seeded steps on `core` and `oracle` in lockstep.
fn lockstep<C, K>(
    rng: &mut Rng,
    core: &mut K,
    oracle: &mut Oracle<C>,
    calls: Calls<C>,
    (n_replicas, n_objects): (usize, usize),
    steps: usize,
) -> Tally
where
    C: OpBased,
    K: Core<C>,
{
    let mut tally = Tally::default();
    let mut next = 0u16;
    let mut ready = Vec::new();
    // Every (target, delivery) message the network still carries.
    let mut network: Vec<(ReplicaId, usize)> = Vec::new();
    for i in 0..steps {
        let step = draw_step(rng, n_replicas, n_objects, network.len());
        let at = format!("step {i} ({step:?})");
        match step {
            Step::Invoke(r, obj) => {
                if !oracle.is_up(r) {
                    continue;
                }
                let Some(call) = calls(rng, oracle.state(r, obj.0 as usize), &mut next) else {
                    continue;
                };
                let got = core.invoke(r, obj, call.clone());
                assert_eq!(got, oracle.invoke(r, obj, call), "{at}");
                if let Some(Invoked { op, .. }) = got {
                    // Delivery ids are operation ids on both transports.
                    let peers = (0..n_replicas as u32).map(ReplicaId).filter(|&p| p != r);
                    network.extend(peers.map(|p| (p, op)));
                }
            }
            Step::Receive(m, again) => {
                let (r, d) = if again {
                    network[m]
                } else {
                    network.swap_remove(m)
                };
                let got = core.receive(r, d);
                assert_eq!(got, oracle.receive(r, d), "{at}");
                match got {
                    Received::Held if oracle.is_up(r) => tally.held += 1,
                    Received::Held => tally.held_down += 1,
                    Received::Applied(k) if k > 1 => tally.released_many += 1,
                    Received::Ignored => tally.ignored += 1,
                    Received::Applied(_) => {}
                }
            }
            Step::Deliver(r) => {
                ready.clear();
                ready.extend((0..oracle.n_deliveries()).filter(|&d| oracle.can_deliver(r, d)));
                if ready.is_empty() {
                    continue;
                }
                let d = ready[rng.random_range(0..ready.len())];
                core.deliver(r, d);
                oracle.deliver(r, d);
            }
            Step::DeliverAll => {
                core.deliver_all();
                oracle.deliver_all();
                for i in 0..n_replicas {
                    let r = ReplicaId(i as u32);
                    if oracle.is_up(r) {
                        assert_eq!(core.held(r), 0, "{at}: a drained {r} holds nothing");
                    }
                }
            }
            Step::Crash(r) => {
                core.crash(r);
                oracle.crash(r);
            }
            Step::Restart(r) => {
                core.restart(r);
                oracle.restart(r);
            }
        }
        compare(core, oracle, n_replicas, n_objects, &at);
    }
    for i in 0..n_replicas {
        core.restart(ReplicaId(i as u32));
        oracle.restart(ReplicaId(i as u32));
    }
    core.deliver_all();
    oracle.deliver_all();
    compare(core, oracle, n_replicas, n_objects, "final drain");
    tally
}

/// Steps per script: enough for holes several operations deep.
const STEPS: usize = 160;

fn multi_parity<C: OpBased + Clone>(label: &str, crdt: C, calls: Calls<C>) {
    for n_objects in [1usize, 4, 32] {
        for mode in [TsMode::Shared, TsMode::PerObject] {
            let label = format!("{label}_{n_objects}_{mode:?}");
            run_seeded_cases(&label, 12, |_, rng| {
                let n_replicas = rng.random_range(2..6usize);
                let mut core = MultiCluster::new(crdt.clone(), n_objects, n_replicas, mode);
                let mut oracle =
                    Oracle::new(crdt.clone(), Rule::PerObject, n_objects, n_replicas, mode);
                lockstep(
                    rng,
                    &mut core,
                    &mut oracle,
                    calls,
                    (n_replicas, n_objects),
                    STEPS,
                );
            });
        }
    }
}

fn cluster_parity<C: OpBased + Clone>(label: &str, crdt: C, calls: Calls<C>) {
    run_seeded_cases(label, 48, |_, rng| {
        let n_replicas = rng.random_range(2..6usize);
        let mut core = Cluster::new(crdt.clone(), n_replicas);
        let mut oracle = Oracle::new(crdt.clone(), Rule::Causal, 1, n_replicas, TsMode::Shared);
        lockstep(rng, &mut core, &mut oracle, calls, (n_replicas, 1), STEPS);
    });
}

#[test]
fn multi_cluster_counter_holdback_matches_the_rescan() {
    multi_parity("holdback_multi_counter", OpCounter, counter_calls);
}

#[test]
fn multi_cluster_rga_holdback_matches_the_rescan() {
    multi_parity("holdback_multi_rga", Rga::<u16>::new(), rga_calls);
}

#[test]
fn cluster_counter_holdback_matches_the_rescan() {
    cluster_parity("holdback_cluster_counter", OpCounter, counter_calls);
}

#[test]
fn cluster_rga_holdback_matches_the_rescan() {
    cluster_parity("holdback_cluster_rga", Rga::<u16>::new(), rga_calls);
}

/// The scripts reach what the parity is about: arrivals held several deep
/// and released in one receive, held at crashed replicas, and repeated.
#[test]
fn scripts_hold_release_and_repeat_arrivals() {
    let mut tally = Tally::default();
    for seed in 0..8 {
        let mut rng = Rng::seed_from_u64(seed);
        let n = 4;
        let mut core = MultiCluster::new(OpCounter, 4, n, TsMode::Shared);
        let mut oracle = Oracle::new(OpCounter, Rule::PerObject, 4, n, TsMode::Shared);
        let t = lockstep(
            &mut rng,
            &mut core,
            &mut oracle,
            counter_calls,
            (n, 4),
            STEPS,
        );
        tally.held += t.held;
        tally.held_down += t.held_down;
        tally.released_many += t.released_many;
        tally.ignored += t.ignored;
    }
    assert!(
        tally.held > 100 && tally.held_down > 50 && tally.released_many > 20 && tally.ignored > 100,
        "{tally:?}"
    );
}
