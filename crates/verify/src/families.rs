//! The roster: one declaration per shipped data type.
//!
//! A roster entry is a zero-sized type naming everything the harnesses need
//! to run and judge one CRDT — its descriptor, its rewriting γ, its
//! specification, the linearization class Figure 12 claims for it, and a
//! workload respecting its client obligations. [`crate::table`] builds a
//! Figure 12 row from an entry and `ral-fuzz`'s oracle builds a fuzz arm
//! from one, so that tuple is written exactly once. **Adding a data type is
//! adding one entry here** (plus its line in `fig12_rows` / the fuzzer's
//! `Family` enum, which only name it).

use crate::workloads;
use ral_core::ids::ReplicaId;
use ral_core::label::{Identity, Rewrite};
use ral_core::ralin::Strategy;
use ral_core::rng::Rng;
use ral_core::spec::Spec;
use ral_core::timestamp::Ts;
use ral_crdts::op::{counter::OpCounter, lww_register, or_set, rga, rga_addat, wooki};
use ral_crdts::state::local::LocalEffector;
use ral_crdts::state::{lww_element_set, mv_register, pn_counter, two_phase_set};
use ral_runtime::delta::DeltaCrdt;
use ral_runtime::op_based::OpBased;
use ral_runtime::schedule::ScheduleConfig;
use ral_runtime::state_based::StateBased;
use ral_spec::addat::AddAt3Spec;
use ral_spec::counter::CounterSpec;
use ral_spec::register::{MvRegSpec, RegSpec};
use ral_spec::rga::RgaSpec;
use ral_spec::set::{OrSetSpec, SetSpec};
use ral_spec::wooki::WookiSpec;

/// A workload: the next call for a replica given its current state, or
/// `None` to skip the turn. Owns whatever it threads between calls (the
/// fresh-element counter of the list and 2P-Set workloads).
pub type CallGen<St, Call> = Box<dyn FnMut(&mut Rng, ReplicaId, &St) -> Option<Call>>;

/// The workload of an operation-based entry.
pub type OpCalls<F> = CallGen<OpState<F>, <<F as OpFamily>::Crdt as OpBased>::Call>;
/// The replica state of an operation-based entry.
pub type OpState<F> = <<F as OpFamily>::Crdt as OpBased>::State;
/// The workload of a state-based entry.
pub type StateCalls<F> = CallGen<
    <<F as StateFamily>::Crdt as StateBased>::State,
    <<F as StateFamily>::Crdt as StateBased>::Call,
>;

/// What the histories a workload feeds will go through — which bounds how
/// large they may grow. Only [`Wooki`] distinguishes the three.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Obligation checks on reachable configurations (no search at all).
    Obligations,
    /// Histories validated with the entry's guided strategy (linear).
    Guided,
    /// Histories decided outright by a complete search.
    Searched,
}

impl Scale {
    /// The coin-flip schedule Figure 12 runs at this scale (obligation
    /// walks read only its `steps`). Searched histories are ~3× the
    /// largest the naive brute search could decide (12 steps ≈ 10
    /// operations; 36 steps yield ~25).
    pub fn schedule(self) -> ScheduleConfig {
        let mut cfg = ScheduleConfig::default();
        match self {
            Scale::Obligations => cfg.steps = 40,
            Scale::Guided => {}
            Scale::Searched => cfg.steps = 36,
        }
        cfg
    }
}

/// An operation-based roster entry.
pub trait OpFamily {
    /// The CRDT descriptor.
    type Crdt: OpBased + Clone + Default;
    /// The rewriting γ from implementation to specification labels.
    type Rewrite: Rewrite<<Self::Crdt as OpBased>::Label, Out = <Self::Spec as Spec>::Label>
        + Default;
    /// The sequential specification.
    type Spec: Spec + Default;
    /// Data type name as printed in the paper.
    const NAME: &'static str;
    /// Citation shorthand from the paper's table.
    const SOURCE: &'static str;
    /// The linearization class, re-exported from the CRDT.
    const STRATEGY: Strategy;

    /// The CRDT descriptor.
    fn crdt() -> Self::Crdt {
        Self::Crdt::default()
    }
    /// The rewriting γ.
    fn rewrite() -> Self::Rewrite {
        Self::Rewrite::default()
    }
    /// The specification.
    fn spec() -> Self::Spec {
        Self::Spec::default()
    }
    /// A fresh workload (fresh-element counters start over).
    fn calls(scale: Scale) -> OpCalls<Self>;
}

/// What only Figure 12 asks of an operation-based entry: the refinement
/// mapping of Sections 4.1/4.2 and the schedule its columns run. Separate
/// from [`OpFamily`] because [`RgaAddAt`] ships no refinement mapping.
pub trait Fig12Op: OpFamily {
    /// The refinement mapping `abs` from replica to specification states.
    fn abs(state: &OpState<Self>) -> <Self::Spec as Spec>::State;
    /// The timestamps stored in a state — consulted only under
    /// `Refinement_ts`, so execution-order entries keep the default.
    fn state_timestamps(_state: &OpState<Self>) -> Vec<Ts> {
        Vec::new()
    }
    /// The schedule of the column at `scale`.
    fn schedule(scale: Scale) -> ScheduleConfig {
        scale.schedule()
    }
}

/// A state-based roster entry, run through both lattice transports.
pub trait StateFamily {
    /// The CRDT descriptor.
    type Crdt: LocalEffector + DeltaCrdt + Clone + Default;
    /// The rewriting γ from implementation to specification labels.
    type Rewrite: Rewrite<<Self::Crdt as StateBased>::Label, Out = <Self::Spec as Spec>::Label>
        + Default;
    /// The sequential specification.
    type Spec: Spec + Default;
    /// Data type name as printed in the paper.
    const NAME: &'static str;
    /// Citation shorthand from the paper's table.
    const SOURCE: &'static str;
    /// The linearization class, re-exported from the CRDT.
    const STRATEGY: Strategy;

    /// The CRDT descriptor.
    fn crdt() -> Self::Crdt {
        Self::Crdt::default()
    }
    /// The rewriting γ.
    fn rewrite() -> Self::Rewrite {
        Self::Rewrite::default()
    }
    /// The specification.
    fn spec() -> Self::Spec {
        Self::Spec::default()
    }
    /// A fresh workload (fresh-element counters start over).
    fn calls(scale: Scale) -> StateCalls<Self>;
}

/// Counter — operation-based.
pub struct Counter;

impl OpFamily for Counter {
    type Crdt = OpCounter;
    type Rewrite = Identity;
    type Spec = CounterSpec;
    const NAME: &'static str = "Counter";
    const SOURCE: &'static str = "[Shapiro et al. 2011]";
    const STRATEGY: Strategy = <Self::Crdt>::STRATEGY;
    fn calls(_: Scale) -> OpCalls<Self> {
        Box::new(|rng, _, _| Some(workloads::counter(rng)))
    }
}

impl Fig12Op for Counter {
    fn abs(state: &OpState<Self>) -> <Self::Spec as Spec>::State {
        <Self::Crdt>::abs(state)
    }
}

/// LWW-Register — operation-based.
pub struct LwwRegister;

impl OpFamily for LwwRegister {
    type Crdt = lww_register::LwwRegister<u8>;
    type Rewrite = Identity;
    type Spec = RegSpec<u8>;
    const NAME: &'static str = "LWW-Register";
    const SOURCE: &'static str = "[Johnson and Thomas 1975]";
    const STRATEGY: Strategy = <Self::Crdt>::STRATEGY;
    fn calls(_: Scale) -> OpCalls<Self> {
        Box::new(|rng, _, _| Some(workloads::lww_register(rng)))
    }
}

impl Fig12Op for LwwRegister {
    fn abs(state: &OpState<Self>) -> <Self::Spec as Spec>::State {
        <Self::Crdt>::abs(state)
    }
    fn state_timestamps(state: &OpState<Self>) -> Vec<Ts> {
        <Self::Crdt>::state_timestamps(state)
    }
}

/// OR-Set — operation-based, with the query-update rewriting.
pub struct OrSet;

impl OpFamily for OrSet {
    type Crdt = or_set::OrSet<u8>;
    type Rewrite = or_set::OrSetRewrite<u8>;
    type Spec = OrSetSpec<u8>;
    const NAME: &'static str = "OR-Set";
    const SOURCE: &'static str = "[Shapiro et al. 2011]";
    const STRATEGY: Strategy = <Self::Crdt>::STRATEGY;
    fn calls(_: Scale) -> OpCalls<Self> {
        Box::new(|rng, _, _| Some(workloads::or_set(rng)))
    }
}

impl Fig12Op for OrSet {
    fn abs(state: &OpState<Self>) -> <Self::Spec as Spec>::State {
        <Self::Crdt>::abs(state)
    }
}

/// RGA — operation-based.
pub struct Rga;

impl OpFamily for Rga {
    type Crdt = rga::Rga<u16>;
    type Rewrite = Identity;
    type Spec = RgaSpec<u16>;
    const NAME: &'static str = "RGA";
    const SOURCE: &'static str = "[Roh et al. 2011]";
    const STRATEGY: Strategy = <Self::Crdt>::STRATEGY;
    fn calls(_: Scale) -> OpCalls<Self> {
        let mut next = 0;
        Box::new(move |rng, _, st| workloads::rga(rng, st, &mut next))
    }
}

impl Fig12Op for Rga {
    fn abs(state: &OpState<Self>) -> <Self::Spec as Spec>::State {
        <Self::Crdt>::abs(state)
    }
    fn state_timestamps(state: &OpState<Self>) -> Vec<Ts> {
        <Self::Crdt>::state_timestamps(state)
    }
}

/// RGA with the returning `addAt` interface (Appendix C) — operation-based.
/// Not a Figure 12 row: no refinement mapping ships for it.
pub struct RgaAddAt;

impl OpFamily for RgaAddAt {
    type Crdt = rga_addat::RgaAddAt<u16>;
    type Rewrite = Identity;
    type Spec = AddAt3Spec<u16>;
    const NAME: &'static str = "RGA-addAt";
    const SOURCE: &'static str = "[Attiya et al. 2016]";
    const STRATEGY: Strategy = <Self::Crdt>::STRATEGY;
    fn calls(_: Scale) -> OpCalls<Self> {
        let mut next = 0;
        Box::new(move |rng, _, st| workloads::rga_addat(rng, st, &mut next))
    }
}

/// Wooki — operation-based. Its nondeterministic specification makes every
/// check exponential in the number of concurrent inserts, so this entry
/// alone sizes its workload and schedule by [`Scale`].
pub struct Wooki;

impl Wooki {
    /// (scheduler steps, insert cap) per scale.
    const fn size(scale: Scale) -> (usize, u16) {
        match scale {
            Scale::Obligations => (24, 10),
            Scale::Guided => (24, 8),
            Scale::Searched => (14, 5),
        }
    }
}

impl OpFamily for Wooki {
    type Crdt = wooki::Wooki<u16>;
    type Rewrite = Identity;
    type Spec = WookiSpec<u16>;
    const NAME: &'static str = "Wooki";
    const SOURCE: &'static str = "[Weiss et al. 2007]";
    const STRATEGY: Strategy = <Self::Crdt>::STRATEGY;
    fn calls(scale: Scale) -> OpCalls<Self> {
        let (mut next, limit) = (0, Self::size(scale).1);
        Box::new(move |rng, _, st| workloads::wooki(rng, st, &mut next, limit))
    }
}

impl Fig12Op for Wooki {
    fn abs(state: &OpState<Self>) -> <Self::Spec as Spec>::State {
        <Self::Crdt>::abs(state)
    }
    fn schedule(scale: Scale) -> ScheduleConfig {
        ScheduleConfig {
            steps: Self::size(scale).0,
            invoke_weight: 1,
            deliver_weight: 2,
            final_sync: true,
        }
    }
}

/// PN-Counter — state-based.
pub struct PnCounter;

impl StateFamily for PnCounter {
    type Crdt = pn_counter::PnCounter;
    type Rewrite = Identity;
    type Spec = CounterSpec;
    const NAME: &'static str = "PN-Counter";
    const SOURCE: &'static str = "[Shapiro et al. 2011]";
    const STRATEGY: Strategy = <Self::Crdt>::STRATEGY;
    fn calls(_: Scale) -> StateCalls<Self> {
        Box::new(|rng, _, _| Some(workloads::pn_counter(rng)))
    }
}

/// Multi-Value Register — state-based.
pub struct MvRegister;

impl StateFamily for MvRegister {
    type Crdt = mv_register::MvRegister<u8>;
    type Rewrite = Identity;
    type Spec = MvRegSpec<u8>;
    const NAME: &'static str = "Multi-Value Reg.";
    const SOURCE: &'static str = "[DeCandia et al. 2007]";
    const STRATEGY: Strategy = <Self::Crdt>::STRATEGY;
    fn calls(_: Scale) -> StateCalls<Self> {
        Box::new(|rng, _, _| Some(workloads::mv_register(rng)))
    }
}

/// LWW-Element-Set — state-based.
pub struct LwwElementSet;

impl StateFamily for LwwElementSet {
    type Crdt = lww_element_set::LwwElementSet<u8>;
    type Rewrite = Identity;
    type Spec = SetSpec<u8>;
    const NAME: &'static str = "LWW-Element Set";
    const SOURCE: &'static str = "[Shapiro et al. 2011]";
    const STRATEGY: Strategy = <Self::Crdt>::STRATEGY;
    fn calls(_: Scale) -> StateCalls<Self> {
        Box::new(|rng, _, _| Some(workloads::lww_element_set(rng)))
    }
}

/// 2P-Set — state-based.
pub struct TwoPhaseSet;

impl StateFamily for TwoPhaseSet {
    type Crdt = two_phase_set::TwoPhaseSet<u16>;
    type Rewrite = Identity;
    type Spec = SetSpec<u16>;
    const NAME: &'static str = "2P-Set";
    const SOURCE: &'static str = "[Shapiro et al. 2011]";
    const STRATEGY: Strategy = <Self::Crdt>::STRATEGY;
    fn calls(_: Scale) -> StateCalls<Self> {
        let mut next = 0;
        Box::new(move |rng, _, st| workloads::two_phase_set(rng, st, &mut next))
    }
}
