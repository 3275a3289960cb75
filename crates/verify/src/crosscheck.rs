//! Checker cross-check oracles: one history, several independent deciders,
//! one combined verdict.
//!
//! The fuzzer (and anything else generating adversarial histories) does not
//! just want "is this linearizable?" — it wants to know when the *checkers
//! themselves* disagree. A complete memoized search refuting a history that
//! the brute-force reference accepts (or a sharded compositional verdict
//! diverging from the whole-history search) is a checker bug worth a shrunk
//! counterexample every bit as much as a genuine RA-linearizability
//! violation. These helpers run the deciders side by side and fold their
//! outcomes into one [`HistoryVerdict`].

use ral_core::compose::ComposedLabel;
use ral_core::history::History;
use ral_core::label::Rewrite;
use ral_core::ralin::{
    monitor_history, ra_check, ra_search_brute, ra_search_sharded_with_budget,
    ra_search_with_budget, SearchOutcome, ShardableSpec, Strategy, Verdict,
};
use ral_core::spec::Spec;

/// Histories at or below this many operations also get the factorial
/// brute-force reference check (8! orders is still instant; 9! is not).
pub const BRUTE_CAP: usize = 8;

/// The combined verdict of all deciders on one history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HistoryVerdict {
    /// Every decider that finished agrees the history is RA-linearizable.
    Linearizable,
    /// The complete search found a linearization but the guided strategy
    /// missed it — not a soundness bug (the strategies are heuristics), but
    /// worth counting: it maps the strategies' blind spots.
    StrategyMiss,
    /// The complete search proved no RA-linearization exists.
    Refuted {
        /// Human-readable account of which decider refuted and why.
        detail: String,
    },
    /// Two deciders reached *contradictory* definite verdicts — a checker
    /// bug, the most valuable find a fuzzer can make.
    Disagreement {
        /// Which deciders disagreed and how.
        detail: String,
    },
    /// Every complete decider ran out of budget before deciding.
    Undecided,
}

fn outcome_name(o: &SearchOutcome) -> &'static str {
    match o {
        SearchOutcome::Linearizable(_) => "linearizable",
        SearchOutcome::NotLinearizable => "not-linearizable",
        SearchOutcome::BudgetExhausted => "budget-exhausted",
    }
}

/// Cross-checks a single-object history: guided strategy vs the complete
/// memoized search vs the streaming monitor, plus the brute-force
/// reference on histories small enough ([`BRUTE_CAP`]).
pub fn op_oracle<In, R, S>(
    h: &History<In>,
    rw: &R,
    spec: &S,
    strategy: Strategy,
    budget: u64,
) -> HistoryVerdict
where
    R: Rewrite<In, Out = S::Label>,
    S: Spec,
{
    let guided_ok = ra_check(h, rw, spec, strategy).is_ok();
    let searched = ra_search_with_budget(h, rw, spec, budget);
    let (streamed, _) = monitor_history(h, rw, spec);
    if let Some(detail) = streaming_disagreement(streamed, &searched, h.len()) {
        return HistoryVerdict::Disagreement { detail };
    }
    if h.len() <= BRUTE_CAP {
        let brute = ra_search_brute(h, rw, spec);
        if definite_disagreement(&searched, &brute) {
            return HistoryVerdict::Disagreement {
                detail: format!(
                    "batch search says {} but brute-force reference says {} on {} ops",
                    outcome_name(&searched),
                    outcome_name(&brute),
                    h.len()
                ),
            };
        }
    }
    match searched {
        SearchOutcome::Linearizable(_) if guided_ok => HistoryVerdict::Linearizable,
        SearchOutcome::Linearizable(_) => HistoryVerdict::StrategyMiss,
        SearchOutcome::NotLinearizable if guided_ok => HistoryVerdict::Disagreement {
            detail: format!(
                "guided {strategy:?} validated a witness but the complete search \
                 refutes the {}-op history",
                h.len()
            ),
        },
        SearchOutcome::NotLinearizable => HistoryVerdict::Refuted {
            detail: format!("no RA-linearization of the {}-op history exists", h.len()),
        },
        SearchOutcome::BudgetExhausted => HistoryVerdict::Undecided,
    }
}

/// Cross-checks a composed (multi-object) history: the sharded
/// compositional search (§5 soundness route) against the whole-history
/// memoized search. Both are complete, so any definite split verdict is a
/// checker bug.
pub fn composed_oracle<In, R, S>(h: &History<In>, rw: &R, spec: &S, budget: u64) -> HistoryVerdict
where
    R: Rewrite<In, Out = S::Label>,
    S: ShardableSpec,
    S::Label: ComposedLabel,
{
    let sharded = ra_search_sharded_with_budget(h, rw, spec, budget);
    let memo = ra_search_with_budget(h, rw, spec, budget);
    if definite_disagreement(&sharded, &memo) {
        return HistoryVerdict::Disagreement {
            detail: format!(
                "sharded search says {} but whole-history search says {} on {} ops",
                outcome_name(&sharded),
                outcome_name(&memo),
                h.len()
            ),
        };
    }
    let (streamed, _) = monitor_history(h, rw, spec);
    if let Some(detail) = streaming_disagreement(streamed, &memo, h.len()) {
        return HistoryVerdict::Disagreement { detail };
    }
    match (sharded, memo) {
        (SearchOutcome::Linearizable(_), _) | (_, SearchOutcome::Linearizable(_)) => {
            HistoryVerdict::Linearizable
        }
        (SearchOutcome::NotLinearizable, _) | (_, SearchOutcome::NotLinearizable) => {
            HistoryVerdict::Refuted {
                detail: format!(
                    "no RA-linearization of the {}-op composed history exists",
                    h.len()
                ),
            }
        }
        (SearchOutcome::BudgetExhausted, SearchOutcome::BudgetExhausted) => {
            HistoryVerdict::Undecided
        }
    }
}

/// A definite end-of-stream monitor verdict contradicting a definite batch
/// outcome. After the whole history has streamed through, the monitor's
/// eager closure is complete, so [`Verdict::Ok`] means a linearization
/// exists and [`Verdict::Deferred`] / [`Verdict::Violated`] mean none does;
/// [`Verdict::Exhausted`] (the streaming live-config cap) is not a verdict
/// and never disagrees — like batch budget exhaustion, it only counts as
/// undecided.
pub(crate) fn streaming_disagreement(
    v: Verdict,
    batch: &SearchOutcome,
    n: usize,
) -> Option<String> {
    match (v, batch) {
        (Verdict::Ok, SearchOutcome::NotLinearizable) => Some(format!(
            "streaming monitor accepts the {n}-op history but the batch search refutes it"
        )),
        (Verdict::Deferred | Verdict::Violated, SearchOutcome::Linearizable(_)) => Some(format!(
            "streaming monitor says {v:?} but the batch search found a witness on {n} ops"
        )),
        _ => None,
    }
}

/// Two definite outcomes that contradict each other (budget exhaustion is
/// not a verdict, so it never disagrees with anything).
fn definite_disagreement(a: &SearchOutcome, b: &SearchOutcome) -> bool {
    matches!(
        (a, b),
        (
            SearchOutcome::Linearizable(_),
            SearchOutcome::NotLinearizable
        ) | (
            SearchOutcome::NotLinearizable,
            SearchOutcome::Linearizable(_)
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use ral_core::compose::{MultiObjRewrite, MultiObjSpec};
    use ral_core::ids::{ObjId, ReplicaId};
    use ral_core::label::Identity;
    use ral_core::rng::Rng;
    use ral_crdts::op::counter::OpCounter;
    use ral_crdts::op::lww_register::LwwRegister;
    use ral_runtime::multi::{MultiCluster, TsMode};
    use ral_sim::driver::{Driver, OpDriver};
    use ral_sim::{scenario, sim};
    use ral_spec::counter::CounterSpec;
    use ral_spec::register::RegSpec;

    #[test]
    fn healthy_scenario_history_is_linearizable() {
        let sc = scenario::split_brain_heal();
        let mut driver = OpDriver::new(OpCounter, sc.cfg.n_replicas, |rng: &mut Rng, _, _| {
            Some(workloads::counter(rng))
        });
        sim::run(&mut driver, &sc.cfg, 0);
        assert!(driver.converged());
        let h = driver.into_cluster().into_history();
        let verdict = op_oracle(
            &h,
            &Identity,
            &CounterSpec,
            Strategy::ExecutionOrder,
            2_000_000,
        );
        assert_eq!(verdict, HistoryVerdict::Linearizable);
    }

    #[test]
    fn composed_oracle_agrees_on_healthy_history() {
        let mut cluster = MultiCluster::new(LwwRegister::<u8>::new(), 3, 2, TsMode::Shared);
        let mut rng = Rng::seed_from_u64(9);
        for step in 0..10u32 {
            let r = ReplicaId(step % 2);
            let obj = ObjId(step % 3);
            cluster
                .invoke(r, obj, workloads::lww_register(&mut rng))
                .unwrap();
        }
        cluster.deliver_all();
        let h = cluster.into_history();
        let verdict = composed_oracle(
            &h,
            &MultiObjRewrite::new(Identity),
            &MultiObjSpec::new(RegSpec::new(), 3),
            2_000_000,
        );
        assert_eq!(verdict, HistoryVerdict::Linearizable);
    }
}
