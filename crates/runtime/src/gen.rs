//! The generator context: the services a generator may call while reading
//! the origin replica's state.
//!
//! The OPERATION rule of Figure 7 lets a generator sample a timestamp that is
//! strictly larger than every timestamp visible at the replica and globally
//! unique, and a unique identifier (`getUniqueIdentifier()` of Listing 2).
//! [`GenCtx`] provides both against a Lamport clock owned by the cluster;
//! nothing is committed until the cluster accepts the generator's outcome, so
//! a refused precondition consumes neither timestamps nor identifiers.

use ral_core::ids::{ReplicaId, Uid};
use ral_core::timestamp::Ts;

/// The result of running a generator at the origin replica: an op-based
/// generator ([`crate::op_based::OpBased::generator`]) or a state-based
/// mutator ([`crate::delta::DeltaCrdt::invoke`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GenOutcome<R, E> {
    /// The operation executed: it returns `ret` and broadcasts `eff` (or
    /// nothing, for queries).
    Done {
        /// Return value `b` of the label `m(a) ⇒ b`.
        ret: R,
        /// What every replica applies, the origin included: the effector of
        /// an op-based type, the delta of a state-based one. `None` for
        /// queries (identity effector).
        eff: Option<E>,
    },
    /// The generator's precondition does not hold at the replica; no
    /// operation happens.
    Refused,
}

impl<R, E> GenOutcome<R, E> {
    /// Builds a query outcome (no effector).
    pub fn query(ret: R) -> Self {
        GenOutcome::Done { ret, eff: None }
    }

    /// Builds an effectful outcome.
    pub fn update(ret: R, eff: E) -> Self {
        GenOutcome::Done {
            ret,
            eff: Some(eff),
        }
    }
}

/// Context handed to a generator: replica identity, timestamp sampling, and
/// unique-identifier sampling.
///
/// The context operates on *copies* of the cluster's clock and identifier
/// counters; the cluster commits them only when the generator completes, so
/// refusal has no side effects.
#[derive(Debug)]
pub struct GenCtx {
    replica: ReplicaId,
    clock: u64,
    uid: u64,
    issued_ts: Option<Ts>,
}

impl GenCtx {
    /// Creates a context for `replica` whose next timestamp will exceed
    /// `clock` and whose next identifier is `uid`.
    pub fn new(replica: ReplicaId, clock: u64, uid: u64) -> Self {
        GenCtx {
            replica,
            clock,
            uid,
            issued_ts: None,
        }
    }

    /// The replica executing the generator (`myRep()` in Listing 9).
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// Samples a fresh timestamp, strictly larger than every timestamp
    /// visible at this replica and globally unique (Lamport pair).
    ///
    /// # Panics
    ///
    /// Panics if called twice: a label carries at most one timestamp.
    pub fn fresh_ts(&mut self) -> Ts {
        assert!(
            self.issued_ts.is_none(),
            "a generator may sample at most one timestamp"
        );
        self.clock += 1;
        let ts = Ts::new(self.clock, self.replica);
        self.issued_ts = Some(ts);
        ts
    }

    /// Samples a fresh unique identifier.
    pub fn fresh_uid(&mut self) -> Uid {
        let u = Uid(self.uid);
        self.uid += 1;
        u
    }

    /// The timestamp issued to this operation, if any (`⊥` otherwise).
    pub fn issued_ts(&self) -> Option<Ts> {
        self.issued_ts
    }

    /// The clock value to commit back to the cluster.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The identifier counter to commit back to the cluster.
    pub fn uid_counter(&self) -> u64 {
        self.uid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ts_exceeds_clock() {
        let mut ctx = GenCtx::new(ReplicaId(1), 5, 0);
        let ts = ctx.fresh_ts();
        assert_eq!(ts, Ts::new(6, ReplicaId(1)));
        assert_eq!(ctx.issued_ts(), Some(ts));
        assert_eq!(ctx.clock(), 6);
    }

    #[test]
    #[should_panic(expected = "at most one timestamp")]
    fn second_ts_panics() {
        let mut ctx = GenCtx::new(ReplicaId(0), 0, 0);
        ctx.fresh_ts();
        ctx.fresh_ts();
    }

    #[test]
    fn uids_are_sequential() {
        let mut ctx = GenCtx::new(ReplicaId(0), 0, 41);
        assert_eq!(ctx.fresh_uid(), Uid(41));
        assert_eq!(ctx.fresh_uid(), Uid(42));
        assert_eq!(ctx.uid_counter(), 43);
        assert_eq!(ctx.issued_ts(), None);
    }

    #[test]
    fn outcome_constructors() {
        let q: GenOutcome<i32, ()> = GenOutcome::query(7);
        assert_eq!(q, GenOutcome::Done { ret: 7, eff: None });
        let u: GenOutcome<i32, &str> = GenOutcome::update(1, "eff");
        assert_eq!(
            u,
            GenOutcome::Done {
                ret: 1,
                eff: Some("eff")
            }
        );
    }
}
