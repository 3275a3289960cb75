//! The RA-linearizability checker (Definitions 3.5 and 3.7).
//!
//! A history `h = (L, vis)` with `L ⊆ Queries ⊎ Updates` is RA-linearizable
//! w.r.t. a specification `Spec` if there is a sequence `(L, seq)` such that
//!
//! 1. `seq` is consistent with `vis` (their union is acyclic);
//! 2. the projection of `seq` onto updates is admitted by `Spec`;
//! 3. every query `ℓ` is justified by the sub-sequence of updates visible to
//!    it: `seq ↓ (vis⁻¹(ℓ) ∩ Updates) · ℓ ∈ Spec`.
//!
//! Histories containing query-updates are first rewritten with a
//! query-update rewriting `γ` ([`crate::history::rewrite_history`]).
//!
//! Six checkers are provided:
//!
//! * [`check_linearization`] validates a *given* candidate sequence;
//! * [`check_guided`] builds the constructive *execution-order* (Section 4.1)
//!   or *timestamp-order* (Section 4.2) linearization and validates it —
//!   linear-size work, the practical path justified by Theorems 4.4/4.6;
//! * [`search`] (module [`memo`]) is the complete decision procedure:
//!   one depth-first, smallest-operation-first walk of the configuration
//!   DAG with incremental query justification and a single table of
//!   failed configurations — a witness costs about one expansion per
//!   operation, a refutation one per distinct configuration; this is what
//!   establishes the paper's *negative* results (Figures 5a, 9, 10, 14
//!   need "no linearization exists") at useful history sizes;
//! * [`search_sharded`] (module [`sharded`]) decides *composed* histories
//!   guided-first: it validates the linearization Section 5 constructs —
//!   execution order (Theorem 5.3), then the composed timestamp order
//!   (Theorem 5.5) where the history carries timestamps — in one
//!   per-object pass, and only on a miss shards the history, searches
//!   every shard with the memoized engine and stitches the witnesses,
//!   falling back to the whole-history search when the stitch fails, so it
//!   agrees with [`search`] even on non-compositional `⊗` histories
//!   (Figure 10);
//! * [`search_brute`] is the seed's naive permutation enumeration —
//!   factorially slower, kept as the independent ground truth the
//!   property suites cross-check the memoized engine against;
//! * [`Monitor`] (module [`monitor`]) is the *streaming* checker: a
//!   per-event `advance(op | delivery) → Verdict` that extends live
//!   configuration frontiers instead of re-searching, with a
//!   causal-stability rule that settles ops below every replica's
//!   seen-frontier and compacts retained state to O(concurrent window) —
//!   with predecessor sets that cost their tail words
//!   ([`crate::bitset`]), this is what lets the simulator verify long runs
//!   continuously (a 105 039-op churn ends with ≈25 MiB live).
//!
//! The `ra_search*` facades rewrite and call [`memo`] directly — it is the
//! only complete batch engine; the monitor is an independent code the
//! cross-check suites compare it against.

mod brute;
mod check;
mod config;
mod guided;
pub mod memo;
pub mod monitor;
pub mod sharded;

pub use brute::{search_brute, search_brute_with_budget};
pub use check::{check_linearization, Violation};
pub use guided::{check_guided, execution_order_of, timestamp_order_of};
pub use memo::{search, search_with_budget, search_with_stats, SearchStats};
pub use monitor::{monitor_history, Monitor, MonitorFeed, MonitorStats, Verdict};
pub use sharded::{
    search_sharded, search_sharded_with_budget, search_sharded_with_stats, shard_history,
    ShardableSpec,
};

use crate::compose::ComposedLabel;
use crate::history::{rewrite_history, History};
use crate::label::Rewrite;
use crate::spec::Spec;

/// Result of a complete search ([`search`], [`search_brute`], or
/// [`crate::linearizability::linearizable`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SearchOutcome {
    /// A valid RA-linearization was found.
    Linearizable(Linearization),
    /// The search space was exhausted: no RA-linearization exists.
    NotLinearizable,
    /// The node budget ran out before the search completed.
    BudgetExhausted,
}

impl SearchOutcome {
    /// Returns `true` if a linearization was found.
    pub fn is_linearizable(&self) -> bool {
        matches!(self, SearchOutcome::Linearizable(_))
    }

    /// Returns `true` if the search proved that no linearization exists.
    pub fn is_refuted(&self) -> bool {
        matches!(self, SearchOutcome::NotLinearizable)
    }
}

/// Which constructive linearization an object admits (Figure 12's "Lin"
/// column).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Execution-order linearizations (Section 4.1): operations linearize in
    /// the order their generators executed.
    ExecutionOrder,
    /// Timestamp-order linearizations (Section 4.2): operations linearize by
    /// (virtual) timestamp, ties broken by generator order.
    TimestampOrder,
}

impl Strategy {
    /// Short name as used in the paper's Figure 12 ("EO" / "TO").
    pub fn short_name(self) -> &'static str {
        match self {
            Strategy::ExecutionOrder => "EO",
            Strategy::TimestampOrder => "TO",
        }
    }
}

/// A linearization: a permutation of the (rewritten) history's operation
/// indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Linearization {
    /// Operation indices in linearization order.
    pub order: Vec<usize>,
}

/// Applies a query-update rewriting and then checks the guided linearization
/// of the given strategy — the full pipeline of Definition 3.7 plus
/// Theorem 4.4/4.6.
///
/// # Errors
///
/// Returns the [`Violation`] that the constructed linearization exhibits, if
/// any.
///
/// # Examples
///
/// A two-replica counter history where each replica increments without
/// seeing the other, then reads its own update only — RA-linearizable in
/// execution order:
///
/// ```
/// use ral_core::history::{History, OpRecord};
/// use ral_core::ids::ReplicaId;
/// use ral_core::label::Identity;
/// use ral_core::ralin::{ra_check, Strategy};
/// # use ral_core::label::{Kind, SpecLabel};
/// # use ral_core::spec::{Spec, Step};
/// # #[derive(Clone, Debug, PartialEq)]
/// # enum Ctr { Inc, Read(i64) }
/// # impl SpecLabel for Ctr {
/// #     fn kind(&self) -> Kind {
/// #         match self { Ctr::Inc => Kind::Update, Ctr::Read(_) => Kind::Query }
/// #     }
/// # }
/// # struct CtrSpec;
/// # impl Spec for CtrSpec {
/// #     type Label = Ctr;
/// #     type State = i64;
/// #     fn initial(&self) -> i64 { 0 }
/// #     fn step(&self, s: &i64, l: &Ctr, out: &mut Vec<i64>) -> Step {
/// #         match l {
/// #             Ctr::Inc => Step::write(out, s + 1),
/// #             Ctr::Read(k) => Step::unchanged_if(k == s),
/// #         }
/// #     }
/// # }
///
/// let mut h = History::new();
/// let a = h.push(OpRecord::new(Ctr::Inc, ReplicaId(0)), []);
/// let b = h.push(OpRecord::new(Ctr::Inc, ReplicaId(1)), []);
/// h.push(OpRecord::new(Ctr::Read(1), ReplicaId(0)), [a]);
/// h.push(OpRecord::new(Ctr::Read(1), ReplicaId(1)), [b]);
/// let lin = ra_check(&h, &Identity, &CtrSpec, Strategy::ExecutionOrder).unwrap();
/// assert_eq!(lin.order.len(), 4);
/// ```
pub fn ra_check<In, R, S>(
    h: &History<In>,
    rw: &R,
    spec: &S,
    strategy: Strategy,
) -> Result<Linearization, Violation>
where
    R: Rewrite<In, Out = S::Label>,
    S: Spec,
{
    let rewritten = rewrite_history(h, rw);
    check_guided(&rewritten.history, spec, strategy)
}

/// Applies a query-update rewriting and then decides RA-linearizability
/// outright — the complete decision procedure for Definition 3.7, run on
/// the memoized engine ([`memo`]). Use [`ra_search_brute`] to force the
/// naive enumeration.
///
/// # Examples
///
/// The complete search *refutes* where the guided one merely fails: a
/// query that observes an impossible value admits no linearization at all.
///
/// ```
/// use ral_core::history::{History, OpRecord};
/// use ral_core::ids::ReplicaId;
/// use ral_core::label::Identity;
/// use ral_core::ralin::{ra_search, SearchOutcome};
/// # use ral_core::label::{Kind, SpecLabel};
/// # use ral_core::spec::{Spec, Step};
/// # #[derive(Clone, Debug, PartialEq)]
/// # enum Ctr { Inc, Read(i64) }
/// # impl SpecLabel for Ctr {
/// #     fn kind(&self) -> Kind {
/// #         match self { Ctr::Inc => Kind::Update, Ctr::Read(_) => Kind::Query }
/// #     }
/// # }
/// # struct CtrSpec;
/// # impl Spec for CtrSpec {
/// #     type Label = Ctr;
/// #     type State = i64;
/// #     fn initial(&self) -> i64 { 0 }
/// #     fn step(&self, s: &i64, l: &Ctr, out: &mut Vec<i64>) -> Step {
/// #         match l {
/// #             Ctr::Inc => Step::write(out, s + 1),
/// #             Ctr::Read(k) => Step::unchanged_if(k == s),
/// #         }
/// #     }
/// # }
///
/// let mut h = History::new();
/// let a = h.push(OpRecord::new(Ctr::Inc, ReplicaId(0)), []);
/// h.push(OpRecord::new(Ctr::Read(5), ReplicaId(0)), [a]); // saw one inc, read 5
/// assert!(matches!(ra_search(&h, &Identity, &CtrSpec), SearchOutcome::NotLinearizable));
/// ```
pub fn ra_search<In, R, S>(h: &History<In>, rw: &R, spec: &S) -> SearchOutcome
where
    R: Rewrite<In, Out = S::Label>,
    S: Spec,
{
    ra_search_with_budget(h, rw, spec, u64::MAX)
}

/// [`ra_search`], also returning the engine's [`SearchStats`]
/// (nodes expanded, memo hits, prune-cause breakdown, timing). The stats
/// are observational only — they never influence the verdict — and their
/// exploration counters are deterministic (see [`SearchStats`]).
pub fn ra_search_with_stats<In, R, S>(
    h: &History<In>,
    rw: &R,
    spec: &S,
) -> (SearchOutcome, SearchStats)
where
    R: Rewrite<In, Out = S::Label>,
    S: Spec,
{
    let rewritten = rewrite_history(h, rw);
    search_with_stats(&rewritten.history, spec, u64::MAX)
}

/// [`ra_search`] with a node budget: the memoized engine expands at most
/// `budget` configurations (one global counter — see [`memo`]) before
/// reporting [`SearchOutcome::BudgetExhausted`].
pub fn ra_search_with_budget<In, R, S>(
    h: &History<In>,
    rw: &R,
    spec: &S,
    budget: u64,
) -> SearchOutcome
where
    R: Rewrite<In, Out = S::Label>,
    S: Spec,
{
    let rewritten = rewrite_history(h, rw);
    search_with_budget(&rewritten.history, spec, budget)
}

/// [`ra_search`] for composed histories, decided per object: rewrite,
/// then validate the witness Section 5 names in advance — execution order
/// (Theorem 5.3) or, for timestamped histories, the composed timestamp
/// order (Theorem 5.5) — component by component; only when neither
/// validates, project into per-object shards, run the memoized engine on
/// every shard, and stitch the per-object witnesses into one validated
/// global linearization ([`sharded`]).
///
/// Sound over the unrestricted composition `⊗`, where per-object
/// RA-linearizability does *not* imply composed RA-linearizability
/// (Figure 10): a shard refutation refutes globally, and a Linearizable
/// verdict is only reported for an order that passes the per-component
/// statement of Definition 3.5 (equivalent to [`check_linearization`],
/// which debug builds re-run on it) — otherwise the search falls back to
/// the whole-history memoized engine, so the verdict agrees with
/// [`ra_search`] on every history. The win is Section 5's regime: a
/// history its theorems cover costs one validation pass, and any other
/// the *sum* of the per-object exponentials instead of the product.
///
/// # Examples
///
/// Two composed counters, each incremented and read on its own replica:
///
/// ```
/// use ral_core::compose::{MultiObjSpec, ObjLabel};
/// use ral_core::history::{History, OpRecord};
/// use ral_core::ids::{ObjId, ReplicaId};
/// use ral_core::label::Identity;
/// use ral_core::ralin::ra_search_sharded;
/// # use ral_core::label::{Kind, SpecLabel};
/// # use ral_core::spec::{Spec, Step};
/// # #[derive(Clone, Debug, PartialEq)]
/// # enum Ctr { Inc, Read(i64) }
/// # impl SpecLabel for Ctr {
/// #     fn kind(&self) -> Kind {
/// #         match self { Ctr::Inc => Kind::Update, Ctr::Read(_) => Kind::Query }
/// #     }
/// # }
/// # #[derive(Clone, Debug)]
/// # struct CtrSpec;
/// # impl Spec for CtrSpec {
/// #     type Label = Ctr;
/// #     type State = i64;
/// #     fn initial(&self) -> i64 { 0 }
/// #     fn step(&self, s: &i64, l: &Ctr, out: &mut Vec<i64>) -> Step {
/// #         match l {
/// #             Ctr::Inc => Step::write(out, s + 1),
/// #             Ctr::Read(k) => Step::unchanged_if(k == s),
/// #         }
/// #     }
/// # }
///
/// let mut h = History::new();
/// let a = h.push(OpRecord::new(ObjLabel::new(ObjId(0), Ctr::Inc), ReplicaId(0)), []);
/// let b = h.push(OpRecord::new(ObjLabel::new(ObjId(1), Ctr::Inc), ReplicaId(1)), []);
/// h.push(OpRecord::new(ObjLabel::new(ObjId(0), Ctr::Read(1)), ReplicaId(0)), [a]);
/// h.push(OpRecord::new(ObjLabel::new(ObjId(1), Ctr::Read(1)), ReplicaId(1)), [b]);
/// let spec = MultiObjSpec::new(CtrSpec, 2);
/// assert!(ra_search_sharded(&h, &Identity, &spec).is_linearizable());
/// ```
pub fn ra_search_sharded<In, R, S>(h: &History<In>, rw: &R, spec: &S) -> SearchOutcome
where
    R: Rewrite<In, Out = S::Label>,
    S: ShardableSpec,
    S::Label: ComposedLabel,
{
    let rewritten = rewrite_history(h, rw);
    search_sharded(&rewritten.history, spec)
}

/// [`ra_search_sharded`] with a node budget, applied per shard (and to
/// the monolithic fallback when the stitch fails); a history one of the
/// constructive witnesses decides spends none of it.
pub fn ra_search_sharded_with_budget<In, R, S>(
    h: &History<In>,
    rw: &R,
    spec: &S,
    budget: u64,
) -> SearchOutcome
where
    R: Rewrite<In, Out = S::Label>,
    S: ShardableSpec,
    S::Label: ComposedLabel,
{
    let rewritten = rewrite_history(h, rw);
    search_sharded_with_budget(&rewritten.history, spec, budget)
}

/// [`ra_search`] on the naive seed-era engine ([`search_brute`]): rewrite,
/// then enumerate permutations. Factorially slower than [`ra_search`] —
/// kept for cross-checks against the memoized engine.
pub fn ra_search_brute<In, R, S>(h: &History<In>, rw: &R, spec: &S) -> SearchOutcome
where
    R: Rewrite<In, Out = S::Label>,
    S: Spec,
{
    let rewritten = rewrite_history(h, rw);
    search_brute(&rewritten.history, spec)
}
