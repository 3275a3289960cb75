//! The one seeded walk behind every operation-based obligation.
//!
//! Commutativity, Refinement and strong eventual consistency are all
//! checked on *reachable* configurations of a [`Cluster`]: per seed, a
//! scheduler picks a replica and either invokes the workload's next call
//! there or delivers one of its deliverable effectors. The obligations
//! differ only in what they inspect after each step, so the schedule lives
//! here once and each obligation is an [`Observer`] of it — Figure 12 hands
//! all three to a single walk instead of replaying the same executions
//! three times.

use ral_core::ids::ReplicaId;
use ral_core::rng::Rng;
use ral_runtime::op_based::{Cluster, OpBased};
use std::ops::Range;

/// What one scheduler step did at the picked replica. `before` is that
/// replica's state just before the step; its state after is the cluster's.
pub(crate) enum Step<'a, St> {
    /// Nothing: the workload skipped, the generator refused, or no
    /// effector was deliverable.
    Idle,
    /// The replica invoked the operation with history index `op`.
    Invoked { op: usize, before: &'a St },
    /// The replica applied pending delivery `delivery`.
    Delivered { delivery: usize, before: &'a St },
}

/// One obligation watching the walk.
pub(crate) trait Observer<C: OpBased> {
    /// Called after every scheduler step at replica `r`.
    fn step(&mut self, cluster: &Cluster<C>, r: ReplicaId, step: &Step<'_, C::State>);

    /// Called once per seed, after every pending effector was delivered.
    fn seed_done(&mut self, _seed: u64, _converged: bool) {}
}

/// Walks `steps` scheduler steps per seed over a fresh cluster, reporting
/// every step and every seed's end to each observer in turn.
pub(crate) fn op_based<C, F>(
    crdt: C,
    n_replicas: usize,
    steps: usize,
    seeds: Range<u64>,
    mut call_gen: F,
    observers: &mut [&mut dyn Observer<C>],
) where
    C: OpBased + Clone,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
{
    for seed in seeds {
        let mut cluster = Cluster::new(crdt.clone(), n_replicas);
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..steps {
            let r = ReplicaId(rng.random_range(0..n_replicas) as u32);
            let before;
            let mut step = Step::Idle;
            if rng.random_bool(0.6) {
                if let Some(call) = call_gen(&mut rng, r, cluster.state(r)) {
                    before = cluster.state(r).clone();
                    if let Some(inv) = cluster.invoke(r, call) {
                        step = Step::Invoked {
                            op: inv.op,
                            before: &before,
                        };
                    }
                }
            } else {
                let ds = cluster.deliverable(r);
                if !ds.is_empty() {
                    let delivery = ds[rng.random_range(0..ds.len())];
                    before = cluster.state(r).clone();
                    cluster.deliver(r, delivery);
                    step = Step::Delivered {
                        delivery,
                        before: &before,
                    };
                }
            }
            for o in observers.iter_mut() {
                o.step(&cluster, r, &step);
            }
        }
        cluster.deliver_all();
        let converged = cluster.converged();
        for o in observers.iter_mut() {
            o.seed_done(seed, converged);
        }
    }
}
