//! Seeded random schedulers.
//!
//! Concurrency in the paper's semantics is *visibility* concurrency: which
//! operations had been delivered where when a generator ran. A scheduler
//! explores it by interleaving invocations with deliveries under a seeded
//! RNG, so every run — including every counterexample — is reproducible from
//! its seed.
//!
//! These helpers are untimed: they flip a weighted coin between "invoke" and
//! "deliver" with no notion of latency, links, or failures. Scenarios that
//! need virtual time, per-link latency distributions, message loss and
//! duplication, scheduled partitions, or replica crash/restart are driven by
//! the `ral-sim` discrete-event simulator, which builds on the same targeted
//! per-message entry points ([`Cluster::can_deliver`],
//! [`Cluster::deliver`], [`DeltaCluster::apply`], crash/restart) that these
//! wrappers consume.

use crate::delta::{DeltaCluster, DeltaCrdt};
use crate::multi::MultiCluster;
use crate::op_based::{CallGen, Cluster, Naming, OpBased, OpCluster};
use ral_core::ids::{ObjId, ReplicaId};
use ral_core::rng::Rng;

/// Knobs for a random schedule.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleConfig {
    /// Number of scheduler steps (each an invocation or a delivery attempt).
    pub steps: usize,
    /// Relative weight of invocation steps.
    pub invoke_weight: u32,
    /// Relative weight of delivery/merge steps.
    pub deliver_weight: u32,
    /// Whether to fully synchronize the cluster after the last step (so
    /// convergence can be asserted).
    pub final_sync: bool,
}

impl Default for ScheduleConfig {
    fn default() -> Self {
        ScheduleConfig {
            steps: 60,
            invoke_weight: 2,
            deliver_weight: 1,
            final_sync: true,
        }
    }
}

fn pick_replica(rng: &mut Rng, n: usize) -> ReplicaId {
    ReplicaId(rng.random_range(0..n) as u32)
}

/// Drives an operation-based cluster through a random schedule.
///
/// `call_gen` produces the next invocation for a replica given its current
/// state (returning `None` to skip); the scheduler interleaves those
/// invocations with causal deliveries. Thin wrapper over
/// [`drive_op_based_filtered`] with every link admitted.
pub fn drive_op_based<C, F>(cluster: &mut Cluster<C>, cfg: &ScheduleConfig, seed: u64, call_gen: F)
where
    C: OpBased,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
{
    drive_op_based_filtered(cluster, cfg, seed, call_gen, |_, _| true);
}

/// Drives a multi-object cluster through a random schedule; `call_gen` also
/// receives the target object, drawn uniformly before it is called.
pub fn drive_multi<C, F>(
    cluster: &mut MultiCluster<C>,
    cfg: &ScheduleConfig,
    seed: u64,
    call_gen: F,
) where
    C: OpBased,
    F: FnMut(&mut Rng, ReplicaId, ObjId, &C::State) -> Option<C::Call>,
{
    drive_op_based_filtered(cluster, cfg, seed, call_gen, |_, _| true);
}

/// The one op-based schedule loop, delivering only along links the
/// `admit(origin, destination)` predicate allows — the core of
/// [`drive_op_based`] and [`drive_multi`] (always `true`) and
/// [`drive_op_based_partitioned`] (same partition side). Each step picks a
/// replica, then either invokes the workload's next call there or delivers
/// one pending effector that causal delivery and `admit` allow, chosen
/// uniformly. `admit` is consulted per delivery attempt, so a caller can
/// vary it over the run.
pub fn drive_op_based_filtered<C, K, W, P>(
    cluster: &mut OpCluster<C, K>,
    cfg: &ScheduleConfig,
    seed: u64,
    mut call_gen: W,
    mut admit: P,
) where
    C: OpBased,
    K: Naming,
    W: CallGen<C, K>,
    P: FnMut(ReplicaId, ReplicaId) -> bool,
{
    let mut rng = Rng::seed_from_u64(seed);
    let total = cfg.invoke_weight + cfg.deliver_weight;
    assert!(total > 0, "at least one action must have non-zero weight");
    // One scratch buffer for the whole schedule: `deliverable_into` refills
    // it in place, so delivery steps allocate nothing after warm-up.
    let mut ds: Vec<usize> = Vec::new();
    for _ in 0..cfg.steps {
        let r = pick_replica(&mut rng, cluster.n_replicas());
        if rng.random_range(0..total) < cfg.invoke_weight {
            call_gen.invoke(&mut rng, r, cluster);
        } else {
            cluster.deliverable_into(r, &mut ds);
            ds.retain(|&d| {
                let origin = cluster.history().op(cluster.delivery_op(d)).replica;
                admit(origin, r)
            });
            if !ds.is_empty() {
                let d = ds[rng.random_range(0..ds.len())];
                cluster.deliver(r, d);
            }
        }
    }
    if cfg.final_sync {
        cluster.deliver_all();
    }
}

/// Drives a full-state run of a lattice cluster: invocations, snapshot
/// sends ([`DeltaCluster::resync`]), and merge applications (with
/// duplication and reordering; loss happens implicitly by never applying a
/// message). The final synchronization is a
/// [`DeltaCluster::resync_round`]; the cluster never gossips deltas.
pub fn drive_state_based<C, F>(
    cluster: &mut DeltaCluster<C>,
    cfg: &ScheduleConfig,
    seed: u64,
    mut call_gen: F,
) where
    C: DeltaCrdt,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
{
    let mut rng = Rng::seed_from_u64(seed);
    let total = cfg.invoke_weight + cfg.deliver_weight;
    assert!(total > 0, "at least one action must have non-zero weight");
    for _ in 0..cfg.steps {
        let r = pick_replica(&mut rng, cluster.n_replicas());
        if rng.random_range(0..total) < cfg.invoke_weight {
            if let Some(call) = call_gen(&mut rng, r, cluster.state(r)) {
                cluster.invoke(r, call);
            }
        } else if rng.random_bool(0.5) || cluster.n_messages() == 0 {
            cluster.resync(r);
        } else {
            let m = rng.random_range(0..cluster.n_messages());
            cluster.apply(r, m);
        }
    }
    if cfg.final_sync {
        cluster.resync_round();
    }
}

/// A network partition: replicas are split into groups; effectors cross
/// group boundaries only after the partition heals.
///
/// This is the paper's motivating scenario (Section 1): CRDTs keep every
/// partition side available — generators never block — and reconcile
/// deterministically on healing.
#[derive(Clone, Debug)]
pub struct Partition {
    groups: Vec<u32>,
}

impl Partition {
    /// Creates a partition from a group id per replica.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn new(groups: Vec<u32>) -> Self {
        assert!(!groups.is_empty(), "a partition needs at least one replica");
        Partition { groups }
    }

    /// Are `a` and `b` on the same side?
    pub fn connected(&self, a: ReplicaId, b: ReplicaId) -> bool {
        self.groups[a.0 as usize] == self.groups[b.0 as usize]
    }

    /// Number of replicas the grouping covers.
    pub fn n_replicas(&self) -> usize {
        self.groups.len()
    }
}

/// Drives an operation-based cluster with a partition in force for every
/// scheduler step: deliveries whose origin lies across the partition are
/// withheld. The partition heals only at the final synchronization
/// ([`ScheduleConfig::final_sync`]), which delivers everything.
pub fn drive_op_based_partitioned<C, F>(
    cluster: &mut Cluster<C>,
    cfg: &ScheduleConfig,
    partition: &Partition,
    seed: u64,
    call_gen: F,
) where
    C: OpBased,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
{
    // Thin wrapper: the final deliver_all is the partition healing.
    drive_op_based_filtered(cluster, cfg, seed, call_gen, |origin, dest| {
        partition.connected(origin, dest)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaConfig;
    use crate::gen::{GenCtx, GenOutcome};
    use crate::multi::TsMode;
    use crate::state_based::StateBased;

    struct GCtr;

    impl OpBased for GCtr {
        type State = i64;
        type Call = bool; // true = inc, false = read
        type Ret = i64;
        type Eff = ();
        type Label = (bool, i64);
        fn initial(&self) -> i64 {
            0
        }
        fn generator(&self, st: &i64, call: &bool, _ctx: &mut GenCtx) -> GenOutcome<i64, ()> {
            if *call {
                GenOutcome::update(0, ())
            } else {
                GenOutcome::query(*st)
            }
        }
        fn apply(&self, st: &mut i64, _eff: &()) {
            *st += 1;
        }
        fn label(&self, call: &bool, ret: &i64) -> (bool, i64) {
            (*call, *ret)
        }
    }

    impl StateBased for GCtr {
        type State = Vec<i64>;
        type Call = bool;
        type Ret = i64;
        type Label = (bool, i64);
        fn initial(&self, n: usize) -> Vec<i64> {
            vec![0; n]
        }
        fn merge_into(&self, a: &mut Vec<i64>, b: &Vec<i64>) -> bool {
            let before = a.clone();
            for (x, y) in a.iter_mut().zip(b) {
                *x = (*x).max(*y);
            }
            *a != before
        }
        fn leq(&self, a: &Vec<i64>, b: &Vec<i64>) -> bool {
            a.iter().zip(b).all(|(x, y)| x <= y)
        }
        fn label(&self, call: &bool, ret: &i64) -> (bool, i64) {
            (*call, *ret)
        }
    }

    // Whole states as deltas: all a full-state transport needs.
    impl DeltaCrdt for GCtr {
        type Delta = Vec<i64>;
        fn invoke(
            &self,
            st: &Vec<i64>,
            call: &bool,
            ctx: &mut GenCtx,
        ) -> GenOutcome<i64, Vec<i64>> {
            if *call {
                let mut delta = st.clone();
                delta[ctx.replica().0 as usize] += 1;
                GenOutcome::update(0, delta)
            } else {
                GenOutcome::query(st.iter().sum())
            }
        }
        fn diff(&self, _pre: &Vec<i64>, post: &Vec<i64>) -> Vec<i64> {
            post.clone()
        }
        fn join_into(&self, state: &mut Vec<i64>, delta: &Vec<i64>) -> bool {
            self.merge_into(state, delta)
        }
        fn join_deltas_into(&self, a: &mut Vec<i64>, b: &Vec<i64>) {
            self.merge_into(a, b);
        }
        fn delta_bytes(&self, delta: &Vec<i64>) -> usize {
            8 * delta.len()
        }
        fn state_bytes(&self, state: &Vec<i64>) -> usize {
            8 * state.len()
        }
    }

    #[test]
    fn op_based_schedule_is_deterministic_and_converges() {
        let run = |seed| {
            let mut c = Cluster::new(GCtr, 3);
            drive_op_based(&mut c, &ScheduleConfig::default(), seed, |rng, _, _| {
                Some(rng.random_bool(0.7))
            });
            assert!(c.converged());
            (c.history().len(), *c.state(ReplicaId(0)))
        };
        assert_eq!(run(42), run(42));
        // With ~42 invocations, two different seeds almost surely differ.
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn multi_schedule_converges() {
        let mut c = MultiCluster::new(GCtr, 2, 3, TsMode::Shared);
        drive_multi(&mut c, &ScheduleConfig::default(), 7, |_, _, _, _| {
            Some(true)
        });
        assert!(c.converged());
    }

    #[test]
    fn state_based_schedule_converges() {
        let mut c = DeltaCluster::new(GCtr, DeltaConfig::default(), 3);
        drive_state_based(&mut c, &ScheduleConfig::default(), 11, |rng, _, _| {
            Some(rng.random_bool(0.6))
        });
        assert!(c.converged());
        assert!(c.check_lattice_laws());
    }
}
