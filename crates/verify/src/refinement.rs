//! The **Refinement** and **Refinement_ts** obligations (Sections 4.1/4.2).
//!
//! A refinement mapping `abs` relates replica states to specification
//! states such that
//!
//! * *Simulating effectors*: applying the effector of `ℓ` on `σ` is matched
//!   by the specification transition of `upd(γ(ℓ))` from `abs(σ)`. Under
//!   `Refinement_ts` the obligation is only required when the effector's
//!   timestamp is not below any timestamp stored in `σ` (Example 4.5);
//! * *Simulating generators*: a query (or the query part of a query-update)
//!   returning `b` from `σ` is admitted by the specification in `abs(σ)`
//!   and leaves it unchanged.
//!
//! The checker replays seeded executions and discharges the obligation at
//! every generator execution and every effector delivery.

use crate::report::{Checks, Report};
use crate::walk::{self, Observer, Step};
use ral_core::ids::ReplicaId;
use ral_core::label::{Rewrite, Rewritten, SpecLabel};
use ral_core::ralin::Strategy;
use ral_core::rng::Rng;
use ral_core::spec::{Spec, Step as SpecStep};
use ral_core::timestamp::Ts;
use ral_runtime::op_based::{Cluster, OpBased};
use std::ops::Range;

/// Check kind: simulating effectors.
const EFFECTOR: &str = "simulating-effectors";
/// Check kind: simulating generators.
const GENERATOR: &str = "simulating-generators";

/// Which flavour of the obligation to check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `Refinement` (Section 4.1): effectors simulate unconditionally.
    Plain,
    /// `Refinement_ts` (Section 4.2): an effector whose timestamp is below
    /// some timestamp already in the state is exempt.
    Timestamped,
}

/// The flavour a linearization class calls for: execution-order types
/// prove `Refinement`, timestamp-order types `Refinement_ts`.
impl From<Strategy> for Mode {
    fn from(strategy: Strategy) -> Self {
        match strategy {
            Strategy::ExecutionOrder => Mode::Plain,
            Strategy::TimestampOrder => Mode::Timestamped,
        }
    }
}

/// Checks Refinement (or `Refinement_ts`) for an operation-based CRDT.
///
/// * `abs` is the refinement mapping;
/// * `state_ts` lists the timestamps stored in a state (used only in
///   [`Mode::Timestamped`]).
#[allow(clippy::too_many_arguments)]
pub fn check_op_based<C, S, R, FA, FT, F>(
    crdt: C,
    spec: &S,
    rewrite: &R,
    mode: Mode,
    abs: FA,
    state_ts: FT,
    n_replicas: usize,
    steps: usize,
    seeds: Range<u64>,
    call_gen: F,
) -> Report
where
    C: OpBased + Clone,
    S: Spec,
    R: Rewrite<C::Label, Out = S::Label>,
    FA: Fn(&C::State) -> S::State,
    FT: Fn(&C::State) -> Vec<Ts>,
    F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
{
    let mut simulation = Simulation::new(spec, rewrite, mode, abs, state_ts);
    walk::op_based(
        crdt,
        n_replicas,
        steps,
        seeds,
        call_gen,
        &mut [&mut simulation],
    );
    simulation.report
}

/// The Refinement obligation as an observer of [`walk::op_based`]: every
/// generator execution and every effector delivery is discharged as the
/// walk performs it.
pub(crate) struct Simulation<'a, S, R, FA, FT> {
    spec: &'a S,
    rewrite: &'a R,
    mode: Mode,
    abs: FA,
    state_ts: FT,
    pub(crate) report: Report,
}

impl<'a, S, R, FA, FT> Simulation<'a, S, R, FA, FT> {
    pub(crate) fn new(spec: &'a S, rewrite: &'a R, mode: Mode, abs: FA, state_ts: FT) -> Self {
        let name = match mode {
            Mode::Plain => "Refinement",
            Mode::Timestamped => "Refinement_ts",
        };
        Simulation {
            spec,
            rewrite,
            mode,
            abs,
            state_ts,
            report: Report::new(name),
        }
    }
}

impl<C, S, R, FA, FT> Observer<C> for Simulation<'_, S, R, FA, FT>
where
    C: OpBased,
    S: Spec,
    R: Rewrite<C::Label, Out = S::Label>,
    FA: Fn(&C::State) -> S::State,
    FT: Fn(&C::State) -> Vec<Ts>,
{
    fn step(&mut self, cluster: &Cluster<C>, r: ReplicaId, step: &Step<'_, C::State>) {
        let after = cluster.state(r);
        let report = &mut self.report;
        match *step {
            Step::Idle => {}
            Step::Invoked { op, before } => check_generator_and_origin_effector::<C, S, R, FA>(
                self.spec,
                self.rewrite,
                &self.abs,
                cluster.history().label(op),
                before,
                after,
                report,
            ),
            Step::Delivered { delivery, before } => {
                let op = cluster.delivery_op(delivery);
                if cluster.delivery_eff(delivery).is_none() {
                    // Identity effector: the state must not change.
                    report.check(EFFECTOR, before == after, || {
                        format!("identity effector of {op} changed the state")
                    });
                    return;
                }
                if self.mode == Mode::Timestamped {
                    if let Some(ts) = cluster.history().op(op).ts {
                        if (self.state_ts)(before).iter().any(|t| ts < *t) {
                            // Exempt under Refinement_ts.
                            report.pass();
                            return;
                        }
                    }
                }
                let update = match self.rewrite.rewrite(cluster.history().label(op)) {
                    Rewritten::One(l) => l,
                    Rewritten::Split { update, .. } => update,
                };
                check_effector_step(self.spec, &self.abs, &update, op, before, after, report);
            }
        }
    }
}

fn check_generator_and_origin_effector<C, S, R, FA>(
    spec: &S,
    rewrite: &R,
    abs: &FA,
    label: &C::Label,
    before: &C::State,
    after: &C::State,
    report: &mut Report,
) where
    C: OpBased,
    S: Spec,
    R: Rewrite<C::Label, Out = S::Label>,
    FA: Fn(&C::State) -> S::State,
{
    match rewrite.rewrite(label) {
        Rewritten::One(l) => {
            if l.is_query() {
                // Simulating generators: abs(σ) —ℓ→ abs(σ).
                let a = abs(before);
                report.check(GENERATOR, transition(spec, &a, &l, &a), || {
                    format!("query {l:?} not simulated at {a:?}")
                });
                report.check(GENERATOR, before == after, || {
                    format!("query {l:?} changed the replica state")
                });
            } else {
                // Origin effector: timestamps are fresh at the origin, so
                // the obligation applies in both modes.
                check_effector_step(spec, abs, &l, usize::MAX, before, after, report);
            }
        }
        Rewritten::Split { query, update } => {
            let a = abs(before);
            report.check(GENERATOR, transition(spec, &a, &query, &a), || {
                format!("query part {query:?} of a query-update not simulated at {a:?}")
            });
            check_effector_step(spec, abs, &update, usize::MAX, before, after, report);
        }
    }
}

/// `from —label→ to` is a transition of `spec`.
fn transition<S: Spec>(spec: &S, from: &S::State, label: &S::Label, to: &S::State) -> bool {
    let mut succs = Vec::new();
    match spec.step(from, label, &mut succs) {
        SpecStep::Refused => false,
        SpecStep::Unchanged => from == to,
        SpecStep::Wrote => succs.contains(to),
    }
}

fn check_effector_step<S, St, FA>(
    spec: &S,
    abs: &FA,
    update: &S::Label,
    op: usize,
    before: &St,
    after: &St,
    report: &mut Report,
) where
    S: Spec,
    FA: Fn(&St) -> S::State,
{
    let a_before = abs(before);
    let a_after = abs(after);
    report.check(
        EFFECTOR,
        transition(spec, &a_before, update, &a_after),
        || {
            let what = if op == usize::MAX {
                "origin effector".to_string()
            } else {
                format!("effector of operation {op}")
            };
            format!("{what} {update:?} not simulated: {a_before:?} -/-> {a_after:?}")
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ral_core::label::{Identity, Kind};
    use ral_runtime::gen::{GenCtx, GenOutcome};

    /// Grow-only counter with a correct spec.
    #[derive(Clone)]
    struct GCtr;

    #[derive(Clone, Debug, PartialEq)]
    enum L {
        Inc,
        Read(i64),
    }

    impl SpecLabel for L {
        fn kind(&self) -> Kind {
            match self {
                L::Inc => Kind::Update,
                L::Read(_) => Kind::Query,
            }
        }
    }

    impl OpBased for GCtr {
        type State = i64;
        type Call = bool;
        type Ret = i64;
        type Eff = ();
        type Label = L;
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
        fn label(&self, call: &bool, ret: &i64) -> L {
            if *call {
                L::Inc
            } else {
                L::Read(*ret)
            }
        }
    }

    struct CtrSpec;

    impl Spec for CtrSpec {
        type Label = L;
        type State = i64;
        fn initial(&self) -> i64 {
            0
        }
        fn step(&self, s: &i64, l: &L, out: &mut Vec<i64>) -> SpecStep {
            match l {
                L::Inc => SpecStep::write(out, s + 1),
                L::Read(k) => SpecStep::unchanged_if(k == s),
            }
        }
    }

    /// A WRONG spec (inc adds two) to prove the checker notices.
    struct WrongSpec;

    impl Spec for WrongSpec {
        type Label = L;
        type State = i64;
        fn initial(&self) -> i64 {
            0
        }
        fn step(&self, s: &i64, l: &L, out: &mut Vec<i64>) -> SpecStep {
            match l {
                L::Inc => SpecStep::write(out, s + 2),
                L::Read(k) => SpecStep::unchanged_if(k == s),
            }
        }
    }

    #[test]
    fn accepts_correct_refinement() {
        let report = check_op_based(
            GCtr,
            &CtrSpec,
            &Identity,
            Mode::Plain,
            |s: &i64| *s,
            |_| vec![],
            3,
            40,
            0..4,
            |rng, _, _| Some(rng.random_bool(0.7)),
        );
        assert!(report.ok(), "{report}");
    }

    #[test]
    fn refutes_wrong_specification() {
        let report = check_op_based(
            GCtr,
            &WrongSpec,
            &Identity,
            Mode::Plain,
            |s: &i64| *s,
            |_| vec![],
            3,
            40,
            0..4,
            |rng, _, _| Some(rng.random_bool(0.7)),
        );
        assert!(!report.ok());
    }

    #[test]
    fn refutes_wrong_abs() {
        let report = check_op_based(
            GCtr,
            &CtrSpec,
            &Identity,
            Mode::Plain,
            |s: &i64| s + 1, // bogus mapping
            |_| vec![],
            3,
            40,
            0..4,
            |rng, _, _| Some(rng.random_bool(0.7)),
        );
        assert!(!report.ok());
    }
}
