//! Strong eventual consistency (SEC) as a checkable obligation.
//!
//! Section 7: RA-linearizability implies a unique total order of updates,
//! hence "if at some point all updates are visible to all replicas, all
//! subsequent query operations at any replica will return the same value" —
//! observably strong eventual consistency. At the state level this is
//! Lemma 4.2's consequence: replicas that have applied the *same set* of
//! operations are in the *same state*, not just after full delivery but at
//! every intermediate instant.

use crate::report::{Checks, Report};
use crate::walk::{self, Observer, Step};
use ral_core::ids::ReplicaId;
use ral_core::rng::Rng;
use ral_runtime::delta::{DeltaCluster, DeltaConfig, DeltaCrdt};
use ral_runtime::op_based::{Cluster, OpBased};
use ral_runtime::schedule::{drive_state_based, ScheduleConfig};
use std::ops::Range;

/// Checks SEC for an operation-based CRDT: along random executions, any two
/// replicas with equal applied sets hold equal states, and full delivery
/// converges.
pub fn check_op_based<C, F>(
    crdt: C,
    n_replicas: usize,
    steps: usize,
    seeds: Range<u64>,
    call_gen: F,
) -> Report
where
    C: OpBased + Clone,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
{
    let mut views = EqualViews::new();
    walk::op_based(crdt, n_replicas, steps, seeds, call_gen, &mut [&mut views]);
    views.report
}

/// The SEC obligation as an observer of [`walk::op_based`].
pub(crate) struct EqualViews {
    pub(crate) report: Report,
}

impl EqualViews {
    pub(crate) fn new() -> Self {
        EqualViews {
            report: Report::new("StrongEventualConsistency"),
        }
    }
}

impl<C: OpBased> Observer<C> for EqualViews {
    fn step(&mut self, cluster: &Cluster<C>, _r: ReplicaId, _step: &Step<'_, C::State>) {
        check_equal_views_equal_states(cluster, &mut self.report);
    }

    fn seed_done(&mut self, seed: u64, converged: bool) {
        self.report.check("convergence", converged, || {
            format!("seed {seed}: no convergence after full delivery")
        });
    }
}

fn check_equal_views_equal_states<C: OpBased>(cluster: &Cluster<C>, report: &mut Report) {
    for a in 0..cluster.n_replicas() {
        for b in a + 1..cluster.n_replicas() {
            let (ra, rb) = (ReplicaId(a as u32), ReplicaId(b as u32));
            if cluster.seen(ra) == cluster.seen(rb) {
                report.check(
                    "equal-views",
                    cluster.state(ra) == cluster.state(rb),
                    || format!("replicas {ra} and {rb} saw the same operations but diverged"),
                );
            }
        }
    }
}

/// Checks SEC for a state-based CRDT under the unreliable network: one full
/// synchronization round converges whatever loss/duplication/reordering
/// preceded it.
pub fn check_state_based<C, F>(
    crdt: C,
    n_replicas: usize,
    steps: usize,
    seeds: Range<u64>,
    mut call_gen: F,
) -> Report
where
    C: DeltaCrdt + Clone,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
{
    // Invocations, sends and applies at 2 : 1 : 1, no final sync: the
    // lattice laws are judged on the diverged states the schedule leaves.
    let schedule = ScheduleConfig {
        steps,
        invoke_weight: 1,
        deliver_weight: 1,
        final_sync: false,
    };
    let mut report = Report::new("StrongEventualConsistency");
    for seed in seeds {
        let mut cluster = DeltaCluster::new(crdt.clone(), DeltaConfig::default(), n_replicas);
        drive_state_based(&mut cluster, &schedule, seed, &mut call_gen);
        report.check("lattice-laws", cluster.check_lattice_laws(), || {
            format!("seed {seed}: lattice laws violated")
        });
        cluster.resync_round();
        report.check("convergence", cluster.converged(), || {
            format!("seed {seed}: no convergence after sync round")
        });
    }
    report
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::workloads;
    use ral_crdts::op::or_set::OrSet;
    use ral_crdts::state::pn_counter::PnCounter;
    use ral_runtime::gen::{GenCtx, GenOutcome};
    use ral_spec::register::RegOp;

    #[test]
    fn or_set_satisfies_sec() {
        let report = check_op_based(OrSet::<u8>::new(), 3, 40, 0..5, |rng, _, _| {
            Some(workloads::or_set(rng))
        });
        assert!(report.ok(), "{report}");
    }

    #[test]
    fn pn_counter_satisfies_sec() {
        let report = check_state_based(PnCounter, 3, 40, 0..5, |rng, _, _| {
            Some(workloads::pn_counter(rng))
        });
        assert!(report.ok(), "{report}");
    }

    /// A CRDT whose effector depends on arrival order: SEC must fail. Its
    /// histories are register writes only, so they linearize regardless
    /// (what `scenarios`' convergence-gate test relies on).
    #[derive(Clone)]
    pub(crate) struct LastArrival;

    impl OpBased for LastArrival {
        type State = i64;
        type Call = i64;
        type Ret = ();
        type Eff = i64;
        type Label = RegOp<i64>;
        fn initial(&self) -> i64 {
            0
        }
        fn generator(&self, _st: &i64, call: &i64, _ctx: &mut GenCtx) -> GenOutcome<(), i64> {
            GenOutcome::update((), *call)
        }
        fn apply(&self, st: &mut i64, eff: &i64) {
            *st = *eff;
        }
        fn label(&self, call: &i64, _ret: &()) -> RegOp<i64> {
            RegOp::Write(*call)
        }
    }

    #[test]
    fn arrival_order_dependence_is_caught() {
        let report = check_op_based(LastArrival, 3, 40, 0..10, |rng, _, _| {
            Some(rng.random_range(0..100))
        });
        assert!(!report.ok(), "order-dependent effectors must fail SEC");
    }
}
