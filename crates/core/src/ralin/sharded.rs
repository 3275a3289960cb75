//! Guided-first compositional checking of composed histories (Section 5).
//!
//! A composed history interleaves operations on several objects, and the
//! monolithic complete search ([`super::memo`]) pays for that dearly: its
//! configuration space is (up to memoization) the *product* of the
//! per-object configuration spaces, with every specification step cloning
//! the whole vector of per-object abstract states. Section 5 says more
//! than "objects are independent": it names the composed linearization in
//! advance. [`search_sharded_with_stats`] therefore works in this order:
//!
//! 1. **Try the paper's witnesses.** Index order — execution order, the
//!    Theorem 4.4 / 5.3 witness, consistent with `vis` by
//!    [`History::push`]'s construction — and, when some operation carries
//!    a timestamp, [`composed_timestamp_order`] (the Theorem 4.6 / 5.5
//!    witness, where `vis ∪ ≺ts` is acyclic). The first candidate that
//!    `validate_composed` accepts *is* the witness: no projection, no
//!    walk, no stitch. Which candidates apply is read off the history.
//! 2. **Validate per component.** `validate_composed` checks all of
//!    Definition 3.5 — the same conditions as
//!    [`super::check_linearization`] — through
//!    [`ShardableSpec::admits_shard`], so a specification step touches one
//!    component state and every distinct visible update set of an object
//!    is replayed once.
//! 3. **On a miss, search.** Project the history into per-object
//!    sub-histories ([`shard_history`]: same-object visibility plus an
//!    index map back), decide every shard with the memoized engine
//!    ([`ShardableSpec::search_shard_with_stats`], one sequential walk per
//!    shard in ascending-object order — the *sum* of the per-object
//!    exponentials, not their product), merge the witnesses topologically
//!    over `vis ∪ (per-object witness order)` ([`stitch_witness`]) and put
//!    the stitched order through the validator of step 2.
//!
//! When index order is valid, its projection is every shard's
//! smallest-first witness and the smallest-first merge returns `0..n`, so
//! a step-1 hit on index order returns exactly the order step 3 would.
//!
//! # Soundness over the unrestricted `⊗`
//!
//! Per-object RA-linearizability does **not** imply composed
//! RA-linearizability under the unrestricted composition `⊗` — Figure 10
//! is the counterexample: both of its shards linearize while the composed
//! history does not. The verdicts here are therefore asymmetric:
//!
//! * a shard **refutation refutes globally** — a global linearization
//!   projects to a valid per-object one (the composed specifications
//!   implementing [`ShardableSpec`] factor into independent per-object
//!   components), so no shard of a linearizable history can refute;
//! * a **Linearizable verdict is only reported for an order the validator
//!   accepted**. When both candidates miss and the merge is cyclic or the
//!   stitched order exhibits a violation (as Figure 10 forces), the search
//!   **falls back to the whole-history memoized engine**, so
//!   [`search_sharded`] agrees with [`super::search`] on every history —
//!   this path is an optimization, never a weakening.

use super::check::check_linearization;
use super::config::replay_admits;
use super::memo::{search_with_stats, SearchStats};
use super::{Linearization, SearchOutcome, Strategy};
use crate::bitset::BitSet;
use crate::compose::{
    composed_timestamp_order, project_objects, ComposedLabel, EitherLabel, MultiObjSpec, PairSpec,
};
use crate::history::History;
use crate::ids::ObjId;
use crate::label::SpecLabel;
use crate::spec::Spec;
use ral_obs as obs;
use std::collections::BTreeMap;

/// One object's projection of a composed history.
#[derive(Clone, Debug)]
pub struct Shard<L> {
    /// The object every operation of this shard belongs to.
    pub obj: ObjId,
    /// The sub-history: this object's operations in generator order, with
    /// visibility restricted to same-object edges.
    pub history: History<L>,
    /// `to_global[local]` is the index of shard operation `local` in the
    /// composed history.
    pub to_global: Vec<usize>,
}

/// Projects a composed history into its per-object sub-histories, in
/// ascending [`ObjId`] order. Objects without operations produce no shard.
///
/// Each shard keeps the composed label type (the object tag is retained so
/// [`ShardableSpec`] implementations can dispatch on it) and the same
/// generator order; predecessor sets are restricted to same-object edges,
/// which is the per-object projection of `vis` Section 5 reasons about.
pub fn shard_history<L: ComposedLabel + Clone + std::fmt::Debug>(h: &History<L>) -> Vec<Shard<L>> {
    // Shards keyed by object id: BTreeMap gives ascending-ObjId order.
    let mut shards: BTreeMap<ObjId, Shard<L>> = BTreeMap::new();
    let mut local_of = vec![usize::MAX; h.len()];
    for (i, op) in h.iter() {
        let obj = op.label.object();
        let shard = shards.entry(obj).or_insert_with(|| Shard {
            obj,
            history: History::new(),
            to_global: Vec::new(),
        });
        let preds: BitSet = h
            .preds(i)
            .iter()
            .filter(|&p| h.label(p).object() == obj)
            .map(|p| local_of[p])
            .collect();
        local_of[i] = shard.history.push_set(op.clone(), preds);
        shard.to_global.push(i);
    }
    shards.into_values().collect()
}

/// A composed specification whose abstract state factors into independent
/// per-object components, each decidable on its own.
///
/// This is the contract that makes a shard refutation globally sound: the
/// composed frontier after any label sequence must be the product of the
/// per-object frontiers of the sequence's projections (true of
/// [`MultiObjSpec`] and [`PairSpec`], whose steps touch exactly one
/// component). Implementations decide one single-object sub-history with
/// the *component* specification — stripped of the object tag, so shard
/// searches run on per-object states instead of whole composed vectors.
pub trait ShardableSpec: Spec
where
    Self::Label: ComposedLabel,
{
    /// Runs the complete memoized search on one shard (a sub-history whose
    /// operations all belong to `obj`) against the per-object component
    /// specification, returning the outcome and the [`SearchStats`] of the
    /// shard walk. `budget` as in [`super::memo::search_with_budget`]; the
    /// returned witness is in shard-local indices.
    fn search_shard_with_stats(
        &self,
        obj: ObjId,
        shard: &History<Self::Label>,
        budget: u64,
    ) -> (SearchOutcome, SearchStats);

    /// Component-level admission: runs `updates` (labels of `obj`, in
    /// candidate order) through the per-object specification once and
    /// checks that every label of `queries` (queries of `obj`) is admitted
    /// afterwards.
    ///
    /// This is what lets a candidate order be validated in per-object
    /// terms — O(1)-sized component states instead of whole composed
    /// vectors; by the factorization contract the two views agree.
    fn admits_shard(&self, obj: ObjId, updates: &[&Self::Label], queries: &[&Self::Label]) -> bool;
}

impl<S: Spec> ShardableSpec for MultiObjSpec<S> {
    fn search_shard_with_stats(
        &self,
        _obj: ObjId,
        shard: &History<Self::Label>,
        budget: u64,
    ) -> (SearchOutcome, SearchStats) {
        let inner = shard.clone().map(|l| l.label);
        search_with_stats(&inner, self.inner(), budget)
    }

    fn admits_shard(
        &self,
        _obj: ObjId,
        updates: &[&Self::Label],
        queries: &[&Self::Label],
    ) -> bool {
        replay_admits(
            self.inner(),
            updates.iter().map(|l| &l.label),
            queries.iter().map(|l| &l.label),
        )
    }
}

/// The label of object 0 of a [`PairSpec`] composition.
fn first<A, B>(l: &EitherLabel<A, B>) -> &A {
    match l {
        EitherLabel::First(a) => a,
        EitherLabel::Second(_) => unreachable!("object 0 holds First labels only"),
    }
}

/// The label of object 1 of a [`PairSpec`] composition.
fn second<A, B>(l: &EitherLabel<A, B>) -> &B {
    match l {
        EitherLabel::Second(b) => b,
        EitherLabel::First(_) => unreachable!("object 1 holds Second labels only"),
    }
}

impl<S1: Spec, S2: Spec> ShardableSpec for PairSpec<S1, S2> {
    fn search_shard_with_stats(
        &self,
        obj: ObjId,
        shard: &History<Self::Label>,
        budget: u64,
    ) -> (SearchOutcome, SearchStats) {
        if obj == ObjId(0) {
            let inner = shard.clone().map(|l| match l {
                EitherLabel::First(a) => a,
                EitherLabel::Second(_) => unreachable!("shard of object 0 holds First labels only"),
            });
            search_with_stats(&inner, self.first(), budget)
        } else {
            let inner = shard.clone().map(|l| match l {
                EitherLabel::Second(b) => b,
                EitherLabel::First(_) => unreachable!("shard of object 1 holds Second labels only"),
            });
            search_with_stats(&inner, self.second(), budget)
        }
    }

    fn admits_shard(&self, obj: ObjId, updates: &[&Self::Label], queries: &[&Self::Label]) -> bool {
        if obj == ObjId(0) {
            let (updates, queries) = (
                updates.iter().map(|l| first(l)),
                queries.iter().map(|l| first(l)),
            );
            replay_admits(self.first(), updates, queries)
        } else {
            let (updates, queries) = (
                updates.iter().map(|l| second(l)),
                queries.iter().map(|l| second(l)),
            );
            replay_admits(self.second(), updates, queries)
        }
    }
}

/// Validates a candidate order against the composed history in per-object
/// terms: the permutation check and conditions (i)–(iii) of Definition
/// 3.5, nothing skipped, with every specification step running on one
/// component state instead of the whole composed vector. Equivalent to
/// [`check_linearization`] for any [`ShardableSpec`] by the factorization
/// contract — the composed frontier after a label sequence is the product
/// of the per-object frontiers of its projections, so the update
/// projection is admitted iff each object's projection is, and a query is
/// justified iff every object's visible sub-sequence survives its
/// component specification and the query's own component then admits the
/// query label.
fn validate_composed<S>(h: &History<S::Label>, spec: &S, order: &[usize]) -> bool
where
    S: ShardableSpec,
    S::Label: ComposedLabel,
{
    let n = h.len();
    if order.len() != n {
        return false;
    }
    // Permutation and (i): every operation once, after everything it sees.
    // Alongside, per object, its updates in candidate order.
    let mut placed = BitSet::with_capacity(n);
    let mut updates: BTreeMap<ObjId, Vec<usize>> = BTreeMap::new();
    for &i in order {
        if i >= n || !h.preds(i).is_subset(&placed) || !placed.insert(i) {
            return false;
        }
        let of_object = updates.entry(h.label(i).object()).or_default();
        if h.label(i).is_update() {
            of_object.push(i);
        }
    }
    let queries: Vec<usize> = (0..n).filter(|&q| h.label(q).is_query()).collect();
    for (&obj, seq) in &updates {
        // (ii) the object's update projection is admitted.
        let all: Vec<&S::Label> = seq.iter().map(|&u| h.label(u)).collect();
        if !spec.admits_shard(obj, &all, &[]) {
            return false;
        }
        // (iii) every query's visible subset of `seq` as a bit mask over
        // it; queries are grouped by mask so each distinct visible
        // sub-sequence is replayed once — admitted for every query that
        // sees it, and justifying those among them that are on `obj`.
        let words = seq.len().div_ceil(64).max(1);
        let mut masks = vec![0u64; queries.len() * words];
        for (mask, &q) in masks.chunks_mut(words).zip(&queries) {
            for (j, _) in seq.iter().enumerate().filter(|&(_, &u)| h.sees(q, u)) {
                mask[j / 64] |= 1 << (j % 64);
            }
        }
        let mut groups: BTreeMap<&[u64], Vec<&S::Label>> = BTreeMap::new();
        for (mask, &q) in masks.chunks(words).zip(&queries) {
            let own = groups.entry(mask).or_default();
            if h.label(q).object() == obj {
                own.push(h.label(q));
            }
        }
        for (seen, own) in groups {
            let visible: Vec<&S::Label> = (0..seq.len())
                .filter(|j| seen[j / 64] >> (j % 64) & 1 == 1)
                .map(|j| all[j])
                .collect();
            if !spec.admits_shard(obj, &visible, &own) {
                return false;
            }
        }
    }
    true
}

/// Topologically merges the global visibility relation with the
/// per-object witness orders into one candidate linearization.
///
/// Edges are `vis` (every direct predecessor edge of the composed
/// history) plus, per shard, the consecutive pairs of its witness mapped
/// back to global indices. Kahn's algorithm takes the smallest ready
/// index first, so the merge is deterministic. Returns `None` when the
/// union is cyclic — which Figure 10 shows does happen under the
/// unrestricted `⊗` even though every shard linearizes on its own.
pub fn stitch_witness<L>(
    h: &History<L>,
    shard_orders: &[(Vec<usize>, &[usize])],
) -> Option<Vec<usize>> {
    let n = h.len();
    let mut indegree = vec![0usize; n];
    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (b, degree) in indegree.iter_mut().enumerate() {
        for a in h.preds(b) {
            successors[a].push(b);
            *degree += 1;
        }
    }
    for (order, to_global) in shard_orders {
        for pair in order.windows(2) {
            let (a, b) = (to_global[pair[0]], to_global[pair[1]]);
            if !h.sees(b, a) {
                successors[a].push(b);
                indegree[b] += 1;
            }
        }
    }
    crate::compose::kahn_smallest_first(indegree, &successors)
}

/// [`search_sharded_with_budget`], also returning the [`SearchStats`] of
/// the decision: `stats.guided` names the constructive witness that
/// validated (no shard is projected or walked then, so `shards` and the
/// exploration counters read 0); on a miss the stats of every shard walk
/// are merged (plus the monolithic fallback's, when taken), `stats.shards`
/// counts the shards searched and `stats.fallback` reports the Figure 10
/// regime. Determinism caveats as in [`SearchStats`].
pub fn search_sharded_with_stats<S>(
    h: &History<S::Label>,
    spec: &S,
    budget: u64,
) -> (SearchOutcome, SearchStats)
where
    S: ShardableSpec,
    S::Label: ComposedLabel,
{
    let t0 = obs::wallclock::now_nanos();
    let _span = obs::span("ralin.search_sharded");
    if h.is_empty() {
        let lin = SearchOutcome::Linearizable(Linearization { order: Vec::new() });
        return (lin, SearchStats::default());
    }
    if budget == 0 {
        return (SearchOutcome::BudgetExhausted, SearchStats::default());
    }
    let finish = |outcome: SearchOutcome, mut stats: SearchStats| {
        stats.elapsed_nanos = obs::wallclock::now_nanos().saturating_sub(t0);
        (outcome, stats)
    };
    // The witnesses Section 5 constructs, before any search: execution
    // order (Thm. 5.3), then the composed timestamp order (Thm. 5.5) where
    // the history carries timestamps and `vis ∪ ≺ts` is acyclic.
    for strategy in [Strategy::ExecutionOrder, Strategy::TimestampOrder] {
        let order = match strategy {
            Strategy::ExecutionOrder => Some((0..h.len()).collect()),
            Strategy::TimestampOrder => (h.iter().any(|(_, op)| op.ts.is_some()))
                .then(|| composed_timestamp_order(&project_objects(h)))
                .flatten(),
        };
        if let Some(order) = order.filter(|order| validate_composed(h, spec, order)) {
            debug_assert!(check_linearization(h, spec, &order).is_ok());
            obs::counter("ralin.guided_hit", 1);
            let stats = SearchStats {
                guided: Some(strategy),
                ..SearchStats::default()
            };
            return finish(SearchOutcome::Linearizable(Linearization { order }), stats);
        }
    }
    let shards = shard_history(h);
    if shards.len() <= 1 {
        // One object: sharding adds nothing over the monolithic engine.
        let (out, mut stats) = search_with_stats(h, spec, budget);
        stats.shards = shards.len() as u64;
        return (out, stats);
    }
    // Shards are independent problems, walked in ascending-object order;
    // each gets the full budget (exhaustion is per shard) and every shard
    // is walked even after one refutes, so the merged stats count them all.
    obs::counter("ralin.shards", shards.len() as u64);
    let mut stats = SearchStats::default();
    let mut outcomes = Vec::with_capacity(shards.len());
    for shard in &shards {
        let s0 = obs::wallclock::now_nanos();
        let (outcome, shard_stats) =
            spec.search_shard_with_stats(shard.obj, &shard.history, budget);
        obs::observe(
            "ralin.shard_nanos",
            obs::wallclock::now_nanos().saturating_sub(s0),
        );
        stats.merge(&shard_stats);
        outcomes.push(outcome);
    }
    stats.shards = shards.len() as u64;
    if outcomes.iter().any(SearchOutcome::is_refuted) {
        // A global witness would project to a witness of every shard
        // (ShardableSpec's factorization contract), so this is final.
        return finish(SearchOutcome::NotLinearizable, stats);
    }
    if outcomes
        .iter()
        .any(|o| matches!(o, SearchOutcome::BudgetExhausted))
    {
        return finish(SearchOutcome::BudgetExhausted, stats);
    }
    let shard_orders: Vec<(Vec<usize>, &[usize])> = outcomes
        .into_iter()
        .zip(&shards)
        .map(|(o, shard)| match o {
            SearchOutcome::Linearizable(lin) => (lin.order, shard.to_global.as_slice()),
            _ => unreachable!("refutations and exhaustion handled above"),
        })
        .collect();
    let stitched = stitch_witness(h, &shard_orders);
    if let Some(order) = stitched.filter(|order| validate_composed(h, spec, order)) {
        debug_assert!(check_linearization(h, spec, &order).is_ok());
        return finish(SearchOutcome::Linearizable(Linearization { order }), stats);
    }
    // Every shard linearizes but no global witness could be stitched —
    // the Figure 10 regime. Only the whole-history engine can tell a
    // genuinely non-compositional history from an unlucky stitch.
    stats.fallback = true;
    obs::counter("ralin.fallback", 1);
    let (out, fallback_stats) = search_with_stats(h, spec, budget);
    stats.merge(&fallback_stats);
    finish(out, stats)
}

/// Sharded complete search of a composed history. Agrees with
/// [`super::search`] on every history (see the module docs), while paying
/// the sum — not the product — of the per-object search costs.
pub fn search_sharded<S>(h: &History<S::Label>, spec: &S) -> SearchOutcome
where
    S: ShardableSpec,
    S::Label: ComposedLabel,
{
    search_sharded_with_budget(h, spec, u64::MAX)
}

/// [`search_sharded`] with a per-shard node budget (the monolithic
/// fallback, when taken, receives the same budget). The outcome agrees
/// with [`super::memo::search_with_budget`] on every history (budgets
/// excepted — shard budgets are per shard, and a history one of the
/// constructive witnesses decides costs no budget at all, so compare
/// exhaustion only qualitatively across engines).
pub fn search_sharded_with_budget<S>(h: &History<S::Label>, spec: &S, budget: u64) -> SearchOutcome
where
    S: ShardableSpec,
    S::Label: ComposedLabel,
{
    search_sharded_with_stats(h, spec, budget).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::ObjLabel;
    use crate::history::OpRecord;
    use crate::ids::ReplicaId;
    use crate::label::{Kind, SpecLabel};
    use crate::ralin::search;
    use crate::spec::Step;
    use crate::timestamp::Ts;

    #[derive(Clone, Debug, PartialEq)]
    enum L {
        Inc,
        Set(i64),
        Read(i64),
    }

    impl SpecLabel for L {
        fn kind(&self) -> Kind {
            match self {
                L::Inc | L::Set(_) => Kind::Update,
                L::Read(_) => Kind::Query,
            }
        }
    }

    #[derive(Clone, Debug)]
    struct Ctr;

    impl Spec for Ctr {
        type Label = L;
        type State = i64;
        fn initial(&self) -> i64 {
            0
        }
        fn step(&self, s: &i64, l: &L, out: &mut Vec<i64>) -> Step {
            match l {
                L::Inc => Step::write(out, s + 1),
                L::Set(v) => Step::write(out, *v),
                L::Read(k) => Step::unchanged_if(k == s),
            }
        }
    }

    fn r(i: u32) -> ReplicaId {
        ReplicaId(i)
    }

    fn o(i: u32) -> ObjId {
        ObjId(i)
    }

    /// Two counters incremented and read on separate replicas, with a
    /// cross-object visibility edge thrown in.
    fn two_counter_history() -> History<ObjLabel<L>> {
        let mut h = History::new();
        let a = h.push(OpRecord::new(ObjLabel::new(o(0), L::Inc), r(0)), []);
        let b = h.push(OpRecord::new(ObjLabel::new(o(1), L::Inc), r(1)), [a]);
        h.push(OpRecord::new(ObjLabel::new(o(0), L::Read(1)), r(0)), [a]);
        h.push(OpRecord::new(ObjLabel::new(o(1), L::Read(1)), r(1)), [a, b]);
        h
    }

    #[test]
    fn shards_project_same_object_edges_only() {
        let h = two_counter_history();
        let shards = shard_history(&h);
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].obj, o(0));
        assert_eq!(shards[0].to_global, vec![0, 2]);
        assert_eq!(shards[1].to_global, vec![1, 3]);
        // The o1 read saw the o0 inc globally; the shard drops that edge.
        assert!(shards[1].history.sees(1, 0));
        assert_eq!(shards[1].history.preds(1).iter().count(), 1);
    }

    #[test]
    fn sharded_agrees_with_monolithic_on_witnesses() {
        let h = two_counter_history();
        let spec = MultiObjSpec::new(Ctr, 2);
        let sharded = search_sharded(&h, &spec);
        assert!(sharded.is_linearizable());
        assert_eq!(
            sharded.is_linearizable(),
            search(&h, &spec).is_linearizable()
        );
        if let SearchOutcome::Linearizable(lin) = sharded {
            assert_eq!(check_linearization(&h, &spec, &lin.order), Ok(()));
        }
    }

    #[test]
    fn shard_refutation_refutes_globally() {
        let mut h = two_counter_history();
        // An impossible read on object 1: its shard refutes, so the whole
        // composed history must refute without consulting object 0.
        h.push(OpRecord::new(ObjLabel::new(o(1), L::Read(9)), r(1)), [1]);
        let spec = MultiObjSpec::new(Ctr, 2);
        assert!(search_sharded(&h, &spec).is_refuted());
        assert!(search(&h, &spec).is_refuted());
    }

    /// A specification that is not `Sync` (it holds an `Rc`) goes through
    /// both complete engines and agrees with the naive one.
    #[test]
    fn non_sync_spec_goes_through_memo_and_sharded() {
        use crate::ralin::{search_brute, search_with_budget};
        use std::rc::Rc;

        struct RcCtr(Rc<i64>);

        impl Spec for RcCtr {
            type Label = L;
            type State = i64;
            fn initial(&self) -> i64 {
                *self.0
            }
            fn step(&self, s: &i64, l: &L, out: &mut Vec<i64>) -> Step {
                Ctr.step(s, l, out)
            }
        }

        let mut flat = History::new();
        let a = flat.push(OpRecord::new(L::Inc, r(0)), []);
        flat.push(OpRecord::new(L::Inc, r(1)), []);
        flat.push(OpRecord::new(L::Read(1), r(0)), [a]);
        let spec = RcCtr(Rc::new(0));
        assert_eq!(
            search_with_budget(&flat, &spec, u64::MAX),
            search_brute(&flat, &spec)
        );

        let h = two_counter_history();
        let spec = MultiObjSpec::new(spec, 2);
        assert!(search_sharded_with_budget(&h, &spec, u64::MAX).is_linearizable());
        assert!(search_brute(&h, &spec).is_linearizable());
    }

    #[test]
    fn empty_and_zero_budget_edges() {
        let h: History<ObjLabel<L>> = History::new();
        let spec = MultiObjSpec::new(Ctr, 2);
        assert!(search_sharded(&h, &spec).is_linearizable());
        let h = two_counter_history();
        assert_eq!(
            search_sharded_with_budget(&h, &spec, 0),
            SearchOutcome::BudgetExhausted
        );
    }

    #[test]
    fn pair_spec_shards_dispatch_to_components() {
        let mut h: History<EitherLabel<L, L>> = History::new();
        let a = h.push(OpRecord::new(EitherLabel::First(L::Inc), r(0)), []);
        let b = h.push(OpRecord::new(EitherLabel::Second(L::Inc), r(1)), []);
        h.push(OpRecord::new(EitherLabel::First(L::Read(1)), r(0)), [a]);
        h.push(OpRecord::new(EitherLabel::Second(L::Read(1)), r(1)), [b]);
        let spec = PairSpec::new(Ctr, Ctr);
        assert!(search_sharded(&h, &spec).is_linearizable());
        // Corrupt the second object's read: the Second shard refutes.
        let mut bad: History<EitherLabel<L, L>> = History::new();
        let a = bad.push(OpRecord::new(EitherLabel::First(L::Inc), r(0)), []);
        let b = bad.push(OpRecord::new(EitherLabel::Second(L::Inc), r(1)), []);
        bad.push(OpRecord::new(EitherLabel::First(L::Read(1)), r(0)), [a]);
        bad.push(OpRecord::new(EitherLabel::Second(L::Read(7)), r(1)), [b]);
        assert!(search_sharded(&bad, &spec).is_refuted());
    }

    /// Figure 10, minimized: on each object a read pins the order of two
    /// concurrent writes (`a` before `b`, `c` before `d`) while
    /// cross-object visibility says `d ≺ a` and `b ≺ c` — a cycle no global
    /// order escapes, though each object linearizes on its own. With
    /// `timestamps`, per-object clocks agree with the pinned orders, so
    /// `vis ∪ ≺ts` is the same cycle.
    fn figure_10_shape(timestamps: bool) -> History<ObjLabel<L>> {
        let mut h = History::new();
        let mut write = |obj: u32, v: i64, replica: u32, ts: u64, preds: Vec<usize>| {
            let mut record = OpRecord::new(ObjLabel::new(o(obj), L::Set(v)), r(replica));
            record.ts = timestamps.then(|| Ts::new(ts, r(replica)));
            h.push(record, preds)
        };
        let d = write(1, 4, 0, 2, vec![]);
        let a = write(0, 1, 0, 1, vec![d]);
        let b = write(0, 2, 1, 2, vec![]);
        let c = write(1, 3, 1, 1, vec![b]);
        h.push(OpRecord::new(ObjLabel::new(o(0), L::Read(2)), r(2)), [a, b]);
        h.push(OpRecord::new(ObjLabel::new(o(1), L::Read(4)), r(2)), [c, d]);
        h
    }

    /// The whole-history fallback is reachable and decides: every shard
    /// linearizes, both constructive witnesses miss, the stitch is cyclic.
    #[test]
    fn figure_10_shape_misses_both_candidates_and_falls_back() {
        let spec = MultiObjSpec::new(Ctr, 2);
        for timestamps in [false, true] {
            let h = figure_10_shape(timestamps);
            for shard in shard_history(&h) {
                let (outcome, _) = spec.search_shard_with_stats(shard.obj, &shard.history, 99);
                assert!(outcome.is_linearizable(), "shard {:?}", shard.obj);
            }
            let index_order: Vec<usize> = (0..h.len()).collect();
            assert!(!validate_composed(&h, &spec, &index_order));
            // Without timestamps the second candidate does not apply;
            // with them `vis ∪ ≺ts` is cyclic.
            let ts_order = composed_timestamp_order(&project_objects(&h));
            assert_eq!(ts_order.is_none(), timestamps);
            let (outcome, stats) = search_sharded_with_stats(&h, &spec, u64::MAX);
            assert_eq!(outcome, SearchOutcome::NotLinearizable);
            assert_eq!(
                (stats.guided, stats.shards, stats.fallback),
                (None, 2, true)
            );
            assert!(search(&h, &spec).is_refuted());
        }
    }

    /// Figure 9's history — `r0` runs `o0.inc · o1.inc`, `r1` runs
    /// `o1.inc · o0.inc`, nothing delivered — is decided by execution
    /// order alone: no shard is projected, no configuration expanded.
    #[test]
    fn figure_9_shape_hits_execution_order_without_a_walk() {
        let mut h = History::new();
        let d = h.push(OpRecord::new(ObjLabel::new(o(0), L::Inc), r(0)), []);
        h.push(OpRecord::new(ObjLabel::new(o(1), L::Inc), r(0)), [d]);
        let b = h.push(OpRecord::new(ObjLabel::new(o(1), L::Inc), r(1)), []);
        h.push(OpRecord::new(ObjLabel::new(o(0), L::Inc), r(1)), [b]);
        let (outcome, stats) = search_sharded_with_stats(&h, &MultiObjSpec::new(Ctr, 2), 1);
        let witness = Linearization {
            order: vec![0, 1, 2, 3],
        };
        assert_eq!(outcome, SearchOutcome::Linearizable(witness));
        assert_eq!(stats.guided, Some(Strategy::ExecutionOrder));
        assert_eq!((stats.shards, stats.nodes_expanded), (0, 0));
    }

    /// Two last-writer-wins registers under `⊗ts`: on each the write
    /// generated first carries the larger timestamp and a read sees both,
    /// so execution order misses and the composed timestamp order hits.
    #[test]
    fn shared_timestamp_registers_hit_timestamp_order() {
        let mut h = History::new();
        for (obj, base) in [(0u32, 0usize), (1, 3)] {
            let write = |v: i64, replica: u32, ts: u64| {
                let label = ObjLabel::new(o(obj), L::Set(v));
                OpRecord::with_ts(label, r(replica), Ts::new(ts, r(replica)))
            };
            h.push(write(1, 0, 2 * u64::from(obj) + 2), []);
            h.push(write(2, 1, 2 * u64::from(obj) + 1), []);
            let read = OpRecord::new(ObjLabel::new(o(obj), L::Read(1)), r(0));
            h.push(read, [base, base + 1]);
        }
        let spec = MultiObjSpec::new(Ctr, 2);
        let index_order: Vec<usize> = (0..h.len()).collect();
        assert!(!validate_composed(&h, &spec, &index_order));
        let (outcome, stats) = search_sharded_with_stats(&h, &spec, 1);
        let witness = Linearization {
            order: vec![1, 0, 2, 4, 3, 5],
        };
        assert_eq!(outcome, SearchOutcome::Linearizable(witness));
        assert_eq!(stats.guided, Some(Strategy::TimestampOrder));
        assert_eq!((stats.shards, stats.nodes_expanded), (0, 0));
    }

    /// Calls `f` on every permutation of `0..n` (Heap's algorithm).
    fn for_each_permutation(n: usize, mut f: impl FnMut(&[usize])) {
        let mut order: Vec<usize> = (0..n).collect();
        let mut count = vec![0; n];
        f(&order);
        let mut i = 0;
        while i < n {
            if count[i] < i {
                order.swap(if i % 2 == 0 { 0 } else { count[i] }, i);
                f(&order);
                count[i] += 1;
                i = 0;
            } else {
                count[i] = 0;
                i += 1;
            }
        }
    }

    /// Holds `validate_composed` equal to `check_linearization` on every
    /// permutation of `h` and on non-permutations; returns how many
    /// permutations are linearizations.
    fn validator_matches_checker<S>(h: &History<S::Label>, spec: &S) -> usize
    where
        S: ShardableSpec,
        S::Label: ComposedLabel,
    {
        let n = h.len();
        let mut accepted = 0;
        for_each_permutation(n, |order| {
            let expected = check_linearization(h, spec, order).is_ok();
            assert_eq!(validate_composed(h, spec, order), expected, "{order:?}");
            accepted += usize::from(expected);
        });
        let mut short: Vec<usize> = (0..n).collect();
        let (mut duplicate, mut out_of_range) = (short.clone(), short.clone());
        short.pop();
        duplicate[n - 1] = 0;
        out_of_range[0] = n;
        for bad in [short, duplicate, out_of_range] {
            assert!(check_linearization(h, spec, &bad).is_err());
            assert!(!validate_composed(h, spec, &bad), "{bad:?}");
        }
        accepted
    }

    /// A switch whose updates are not total: `On` needs it off, `Off`
    /// needs it on — so a *sub-sequence* of an admitted update sequence
    /// can be rejected, which counters and sets never exhibit.
    #[derive(Clone, Debug)]
    struct Toggle;

    #[derive(Clone, Debug, PartialEq)]
    enum T {
        On,
        Off,
        IsOn(bool),
    }

    impl SpecLabel for T {
        fn kind(&self) -> Kind {
            match self {
                T::IsOn(_) => Kind::Query,
                _ => Kind::Update,
            }
        }
    }

    impl Spec for Toggle {
        type Label = T;
        type State = bool;
        fn initial(&self) -> bool {
            false
        }
        fn step(&self, s: &bool, l: &T, out: &mut Vec<bool>) -> Step {
            match l {
                T::On if !s => Step::write(out, true),
                T::Off if *s => Step::write(out, false),
                T::IsOn(k) => Step::unchanged_if(k == s),
                _ => Step::Refused,
            }
        }
    }

    /// The validator is only `debug_assert`ed against the reference on
    /// orders it accepts; a wrong rejection would silently send every
    /// history down the slow path. So: equality on every order.
    #[test]
    fn validator_equals_check_linearization_on_every_permutation() {
        // MultiObjSpec, seven operations, cross-object visibility.
        let mut h = two_counter_history();
        let e = h.push(OpRecord::new(ObjLabel::new(o(0), L::Inc), r(1)), []);
        h.push(OpRecord::new(ObjLabel::new(o(0), L::Read(2)), r(1)), [0, e]);
        h.push(OpRecord::new(ObjLabel::new(o(1), L::Read(1)), r(0)), [1, e]);
        let accepted = validator_matches_checker(&h, &MultiObjSpec::new(Ctr, 2));
        assert!(0 < accepted && accepted < 5040, "{accepted}");

        // Figure 10's shape: no order at all is a linearization.
        let spec = MultiObjSpec::new(Ctr, 2);
        assert_eq!(validator_matches_checker(&figure_10_shape(true), &spec), 0);

        // PairSpec, with a query on each side seeing across objects.
        let mut h: History<EitherLabel<L, T>> = History::new();
        let a = h.push(OpRecord::new(EitherLabel::First(L::Inc), r(0)), []);
        let b = h.push(OpRecord::new(EitherLabel::Second(T::On), r(1)), [a]);
        h.push(OpRecord::new(EitherLabel::First(L::Read(1)), r(0)), [a, b]);
        h.push(
            OpRecord::new(EitherLabel::Second(T::IsOn(true)), r(1)),
            [a, b],
        );
        h.push(OpRecord::new(EitherLabel::Second(T::Off), r(0)), [b]);
        let accepted = validator_matches_checker(&h, &PairSpec::new(Ctr, Toggle));
        assert!(0 < accepted && accepted < 120, "{accepted}");

        // Non-total updates: `on · off · on` is admitted, and a query on
        // the *other* object decides the history by what it sees of it —
        // all three (justified) or the two `on`s only (their sub-sequence
        // is rejected, so no order justifies the query).
        for (sees_off, linearizable) in [(true, true), (false, false)] {
            let mut h: History<ObjLabel<T>> = History::new();
            let on1 = h.push(OpRecord::new(ObjLabel::new(o(0), T::On), r(0)), []);
            let off = h.push(OpRecord::new(ObjLabel::new(o(0), T::Off), r(0)), [on1]);
            let on2 = h.push(OpRecord::new(ObjLabel::new(o(0), T::On), r(0)), [on1, off]);
            let seen = [on1, on2].into_iter().chain(sees_off.then_some(off));
            h.push(
                OpRecord::new(ObjLabel::new(o(1), T::IsOn(false)), r(1)),
                seen,
            );
            h.push(
                OpRecord::new(ObjLabel::new(o(0), T::IsOn(true)), r(1)),
                [on1],
            );
            let spec = MultiObjSpec::new(Toggle, 2);
            let accepted = validator_matches_checker(&h, &spec);
            assert_eq!(accepted > 0, linearizable, "{accepted}");
            assert_eq!(search_sharded(&h, &spec), search(&h, &spec));
        }
    }

    #[test]
    fn stitch_detects_cycles() {
        // Hand-built contradictory shard orders: shard o0 wants 0 before
        // 2, vis wants 2 before... build a 2-op cycle directly.
        let mut h: History<ObjLabel<L>> = History::new();
        let a = h.push(OpRecord::new(ObjLabel::new(o(0), L::Inc), r(0)), []);
        let b = h.push(OpRecord::new(ObjLabel::new(o(1), L::Inc), r(0)), [a]);
        // vis: a before b. A (fake) shard order demanding b before a
        // across objects cannot be topologically merged.
        let reversed = [b, a];
        let fake: Vec<(Vec<usize>, &[usize])> = vec![(vec![0, 1], &reversed[..])];
        assert_eq!(stitch_witness(&h, &fake), None);
        // The honest orders merge fine.
        let (ga, gb) = ([a], [b]);
        let honest: Vec<(Vec<usize>, &[usize])> = vec![(vec![0], &ga[..]), (vec![0], &gb[..])];
        assert_eq!(stitch_witness(&h, &honest), Some(vec![a, b]));
    }
}
