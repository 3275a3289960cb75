//! Memoized depth-first RA-linearizability search — the complete batch
//! decision procedure behind [`super::search`], [`super::ra_search`] and
//! every shard of [`super::search_sharded`].
//!
//! The naive search ([`super::search_brute`]) enumerates *permutations*: two
//! interleavings that place the same operations in different orders are
//! explored as unrelated branches, which is what makes it factorial. This
//! engine walks the **configuration DAG** instead. A configuration is
//!
//! 1. the *placed set* (as a bitmask) — which operations the prefix
//!    contains;
//! 2. the *specification frontier* after the prefix's update projection
//!    (condition (ii) of Definition 3.5);
//! 3. one *incremental justification frontier per pending query*: the
//!    frontier reached by running the updates visible to that query in
//!    placement order (condition (iii)). A query can only be placed once
//!    all its predecessors are, so when its turn comes this frontier has
//!    consumed exactly its visible updates — justification is a single
//!    `admits` call instead of the naive engine's per-placement re-sort
//!    and re-run.
//!
//! That triple determines everything a continuation can observe, so any
//! two prefixes reaching the same configuration have the same set of
//! completions: configurations that were fully explored and failed are
//! memoized (hash-keyed on the frontiers' canonical hashes, verified with
//! full state equality, so hash collisions cannot unsoundly prune) and
//! never explored twice. On commuting workloads this collapses `k!`
//! permutations of `k` concurrent operations into `2^k` placed-set nodes
//! — e.g. refuting a counter history with 16 concurrent increments takes
//! tens of thousands of nodes instead of `16! ≈ 2·10¹³`.
//!
//! The incremental query frontiers also yield a cut the naive engine
//! lacks: the moment a *pending* query's frontier dies, no completion can
//! ever justify it, and the whole branch is abandoned without waiting for
//! the query to be placed.
//!
//! # Visibility a word at a time
//!
//! Condition (i) only asks that an operation come after everything it saw,
//! so the walk needs the placed set, not an edge list: an operation is
//! enabled when its predecessor set is covered by the placed mask, one
//! word-parallel test ([`BitSet::is_covered_from`]) that skips the mask's
//! leading all-ones words. Placing or undoing an operation touches no
//! per-edge count. The only per-history structure is one row per query —
//! the words of its predecessor set ANDed with an update mask — which
//! keys the pending justification frontiers and names the queries a placed
//! update advances.
//!
//! [`BitSet::is_covered_from`]: crate::bitset::BitSet::is_covered_from
//!
//! # One walk, one table
//!
//! The search is a single sequential depth-first walk from the empty
//! configuration, always trying the smallest enabled operation first, with
//! **one** failed-configuration table for the whole history — a failure
//! learnt under one first operation prunes the same configuration under
//! every other. Two consequences:
//!
//! * a history that linearizes without backtracking costs `n` expansions
//!   (one per prefix of the witness), and the first witness the walk
//!   reaches is the lexicographically minimal valid linearization — the
//!   one [`super::search_brute`] returns;
//! * a refutation expands every distinct reachable configuration exactly
//!   once.
//!
//! The walk is deterministic, so outcomes, witnesses and every exploration
//! counter of [`SearchStats`] repeat exactly — also through
//! [`super::sharded`], which runs one such walk per object shard.
//!
//! # Budget semantics
//!
//! `budget` bounds the number of *expanded* configurations with one global
//! counter — table hits, infeasible placements and completed orders are
//! free. A witness found within the budget is reported; otherwise running
//! out yields [`SearchOutcome::BudgetExhausted`]. The naive engine counts
//! permutation-tree nodes instead, so compare node budgets across engines
//! only qualitatively.

use super::check::check_linearization;
use super::config;
use super::{Linearization, SearchOutcome, Strategy};
use crate::history::History;
use crate::label::SpecLabel;
use crate::spec::{
    advance_states, states_admit, states_canonical_hash, states_set_eq, FrontierStack, Spec,
};
use ral_obs as obs;
use std::collections::HashMap;

/// Hard cap on memo entries. Beyond it the walk keeps running
/// (still sound, still complete) but stops recording new failed
/// configurations, bounding memory on adversarial inputs.
const MEMO_CAP: usize = 1 << 20;

/// Diagnostic counters of one complete search, returned by the `_stats`
/// entry points ([`search_with_stats`],
/// [`super::ra_search_with_stats`], [`super::search_sharded_with_stats`]).
///
/// The counts describe *work done*, not the verdict. Every walk is
/// sequential and the sharded engine walks every shard to completion, so
/// the exploration counters (`nodes_expanded`, `memo_hits`, the prune
/// breakdown) are deterministic for witnesses and refutations alike.
/// The `*_nanos` fields are wall-clock measurements
/// and never deterministic. None of this feeds back into the search —
/// verdicts and witnesses are bit-identical whether or not anyone looks at
/// the stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Configurations expanded (budget charged); memo hits and infeasible
    /// placements are free, as in the module's budget semantics.
    pub nodes_expanded: u64,
    /// Configurations skipped because an equal, fully-explored failure was
    /// memoized.
    pub memo_hits: u64,
    /// Failed configurations recorded (summed over shards by the sharded
    /// engine).
    pub memo_entries: u64,
    /// Placements rejected because the update projection's frontier died
    /// (condition (ii) of Definition 3.5).
    pub prune_frontier_death: u64,
    /// Placements rejected because a placed query was not justified by its
    /// visible updates (condition (iii)).
    pub prune_query_unjustified: u64,
    /// Branch abandonments because a *pending* query's incremental
    /// justification frontier died before the query was placed — the cut
    /// the naive engine lacks.
    pub prune_dead_pending_query: u64,
    /// The constructive witness the sharded engine validated instead of
    /// searching — execution order (Theorem 5.3) or the composed timestamp
    /// order (Theorem 5.5); `None` when shards were searched, and always
    /// for the monolithic engine.
    pub guided: Option<Strategy>,
    /// Shards searched (sharded engine only; `0` for the monolithic one
    /// and on a `guided` hit).
    pub shards: u64,
    /// Whether the sharded engine fell back to the whole-history search
    /// (the Figure 10 regime).
    pub fallback: bool,
    /// Wall-clock nanoseconds summed over walks; in a sharded search
    /// `elapsed_nanos - busy_nanos` is projection, stitch and validation.
    pub busy_nanos: u64,
    /// Wall-clock nanoseconds from entry to verdict.
    pub elapsed_nanos: u64,
}

impl SearchStats {
    /// Fraction of configuration lookups answered by the memo table:
    /// `memo_hits / (nodes_expanded + memo_hits)`; `0.0` for an empty run.
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.nodes_expanded + self.memo_hits;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }

    /// The prune breakdown as labelled counts, stable order.
    pub fn prune_causes(&self) -> [(&'static str, u64); 3] {
        [
            ("frontier-death", self.prune_frontier_death),
            ("query-unjustified", self.prune_query_unjustified),
            ("dead-pending-query", self.prune_dead_pending_query),
        ]
    }

    /// Accumulates `other` into `self`: counts and `busy_nanos` add,
    /// `fallback` ORs, `guided` keeps the first hit, `elapsed_nanos` takes
    /// the maximum (callers overwrite it with the whole-search value
    /// afterwards).
    pub fn merge(&mut self, other: &SearchStats) {
        self.nodes_expanded += other.nodes_expanded;
        self.memo_hits += other.memo_hits;
        self.memo_entries += other.memo_entries;
        self.prune_frontier_death += other.prune_frontier_death;
        self.prune_query_unjustified += other.prune_query_unjustified;
        self.prune_dead_pending_query += other.prune_dead_pending_query;
        self.guided = self.guided.or(other.guided);
        self.shards += other.shards;
        self.fallback |= other.fallback;
        self.busy_nanos += other.busy_nanos;
        self.elapsed_nanos = self.elapsed_nanos.max(other.elapsed_nanos);
    }
}

/// Reports a finished walk to the observability sink (one relaxed load
/// when disabled). Counter names are mapped in `docs/PAPER_MAP.md`.
fn emit_obs(stats: &SearchStats) {
    if !obs::enabled() {
        return;
    }
    obs::counter("ralin.nodes_expanded", stats.nodes_expanded);
    obs::counter("ralin.memo_hits", stats.memo_hits);
    obs::counter("ralin.memo_entries", stats.memo_entries);
    obs::counter("ralin.prune.frontier_death", stats.prune_frontier_death);
    obs::counter(
        "ralin.prune.query_unjustified",
        stats.prune_query_unjustified,
    );
    obs::counter(
        "ralin.prune.dead_pending_query",
        stats.prune_dead_pending_query,
    );
    obs::observe("ralin.elapsed_nanos", stats.elapsed_nanos);
}

/// Immutable per-history search structure: the queries' visibility rows.
/// Enabledness needs no structure of its own — an operation is enabled
/// when its predecessor set sits inside the placed mask — so the shape
/// keeps no edge lists and is built a word at a time, asking each label
/// its kind once.
struct Shape {
    n: usize,
    /// Mask width in 64-bit words.
    words: usize,
    /// Row `i` (`words` words) is the bitmask of the updates visible to
    /// `queries[i]`: its predecessor set ANDed with the update mask.
    /// Intersected with the placed mask to decide which pending
    /// justification frontiers participate in the configuration key, and
    /// read a bit at a time for an update's watchers.
    vis_upd: Vec<u64>,
    /// Indices of query operations, ascending.
    queries: Vec<usize>,
}

impl Shape {
    fn of<L: SpecLabel>(h: &History<L>) -> Shape {
        let n = h.len();
        let words = n.div_ceil(64).max(1);
        let mut updates = vec![0u64; words];
        let mut queries = Vec::new();
        for i in 0..n {
            if h.label(i).is_query() {
                queries.push(i);
            } else {
                updates[i / 64] |= 1 << (i % 64);
            }
        }
        let mut vis_upd = vec![0u64; queries.len() * words];
        for (row, &q) in vis_upd.chunks_exact_mut(words).zip(&queries) {
            for (j, w) in h.preds(q).words_from(0) {
                row[j] = w & updates[j];
            }
        }
        Shape {
            n,
            words,
            vis_upd,
            queries,
        }
    }

    /// The queries that see update `x`, ascending: those after `x` whose
    /// row has bit `x`.
    fn watchers(&self, x: usize) -> impl Iterator<Item = usize> + '_ {
        let first = self.queries.partition_point(|&q| q < x);
        let rows = self.vis_upd[first * self.words..].iter();
        let bit = 1 << (x % 64);
        self.queries[first..]
            .iter()
            .zip(rows.skip(x / 64).step_by(self.words))
            .filter(move |&(_, &w)| w & bit != 0)
            .map(|(&q, _)| q)
    }

    /// The visible-update mask of the `i`-th query.
    fn vis_upd(&self, i: usize) -> &[u64] {
        &self.vis_upd[i * self.words..(i + 1) * self.words]
    }
}

/// The stored justification frontiers of started pending queries:
/// `(query index, frontier states)`, ascending by query index.
type StoredQueryFronts<St> = Box<[(usize, Box<[St]>)]>;

/// A fully-explored, completion-free configuration, stored for exact
/// verification behind its hash key.
struct MemoEntry<St> {
    mask: Box<[u64]>,
    frontier: Box<[St]>,
    /// Justification frontiers of the *started* pending queries (some
    /// visible update placed), ascending by query index. Which queries
    /// those are is determined by `mask`, so both sides of a comparison
    /// enumerate the same list.
    qfronts: StoredQueryFronts<St>,
}

/// Book-keeping to undo one tentative placement.
struct PlacementUndo {
    undo_mark: usize,
    pushed_frontier: bool,
}

/// The sequential memoized walk over one history.
///
/// The placed set is one bitmask, and it is all the walk needs to know
/// which operations are enabled: `x` is enabled when it is unplaced and
/// its predecessor set is covered by the mask, a test a word at a time
/// that skips the mask's leading all-ones words. Nothing is counted per
/// visibility edge on a placement or its undo.
///
/// Every buffer is owned by the walk and reused: one frontier per update
/// depth, one justification frontier per query, and one flat arena the
/// query frontiers a placement advances are moved into (and moved back out
/// of on undo). A warm walk allocates nothing per placement; only a memoized
/// failure stores anything.
struct Walk<'a, S: Spec> {
    h: &'a History<S::Label>,
    spec: &'a S,
    shape: &'a Shape,
    /// The placed set.
    mask: Vec<u64>,
    order: Vec<usize>,
    /// Frontier after each placed update; `top()` is the current one.
    fstack: FrontierStack<S::State>,
    /// Incremental justification frontier per query (empty for updates).
    qfront: Vec<Vec<S::State>>,
    /// `(query, arena start)` of every query frontier a pending placement
    /// advanced, in placement order.
    undo: Vec<(usize, usize)>,
    /// The frontiers `undo` restores, stacked end to end.
    arena: Vec<S::State>,
    memo: HashMap<u64, Vec<MemoEntry<S::State>>>,
    memo_entries: usize,
    budget: u64,
    exhausted: bool,
    nodes: u64,
    // Diagnostic tallies (plain integers: no observability calls inside
    // the walk, so the hot loop costs the same with obs on or off).
    memo_hits: u64,
    prune_frontier_death: u64,
    prune_query_unjustified: u64,
    prune_dead_pending_query: u64,
}

impl<'a, S: Spec> Walk<'a, S> {
    fn new(h: &'a History<S::Label>, spec: &'a S, shape: &'a Shape, budget: u64) -> Self {
        let mut qfront = vec![Vec::new(); shape.n];
        for &q in &shape.queries {
            qfront[q].push(spec.initial());
        }
        Walk {
            h,
            spec,
            shape,
            mask: vec![0u64; shape.words],
            order: Vec::with_capacity(shape.n),
            fstack: FrontierStack::new(spec.initial()),
            qfront,
            undo: Vec::new(),
            arena: Vec::new(),
            memo: HashMap::new(),
            memo_entries: 0,
            budget,
            exhausted: false,
            nodes: 0,
            memo_hits: 0,
            prune_frontier_death: 0,
            prune_query_unjustified: 0,
            prune_dead_pending_query: 0,
        }
    }

    /// Whether `x` is in the placed set.
    fn is_placed(&self, x: usize) -> bool {
        self.mask[x / 64] & (1 << (x % 64)) != 0
    }

    /// The justification frontiers in a configuration's key: those of the
    /// started pending queries (some visible update placed), ascending by
    /// query index.
    fn keyed_queries(&self) -> impl Iterator<Item = usize> + '_ {
        let shape = self.shape;
        shape
            .queries
            .iter()
            .enumerate()
            .filter(|&(i, &q)| {
                !self.is_placed(q)
                    && shape
                        .vis_upd(i)
                        .iter()
                        .zip(&self.mask)
                        .any(|(v, m)| v & m != 0)
            })
            .map(|(_, &q)| q)
    }

    /// Hashes the current configuration: placed mask, main frontier, and
    /// the justification frontiers of started pending queries, with the
    /// key-fold helpers of [`super::config`] every engine shares.
    fn config_hash(&self) -> u64 {
        let mut key = config::CONFIG_KEY_SEED;
        for &w in &self.mask {
            key = config::fold_mask_word(key, w);
        }
        key = config::fold_frontier_hash(key, states_canonical_hash(self.spec, self.fstack.top()));
        for q in self.keyed_queries() {
            let qhash = states_canonical_hash(self.spec, &self.qfront[q]);
            key = config::fold_query_frontier(key, q, qhash);
        }
        key
    }

    /// Returns `true` if the current configuration is a memoized failure.
    fn memo_hit(&self, key: u64) -> bool {
        let Some(bucket) = self.memo.get(&key) else {
            return false;
        };
        bucket.iter().any(|e| {
            e.mask[..] == self.mask[..]
                && states_set_eq(self.fstack.top(), &e.frontier)
                && e.qfronts
                    .iter()
                    .all(|(q, states)| states_set_eq(&self.qfront[*q], states))
        })
    }

    /// Records the current configuration as fully explored and
    /// completion-free.
    fn memo_insert(&mut self, key: u64) {
        if self.memo_entries >= MEMO_CAP {
            return;
        }
        let qfronts: StoredQueryFronts<S::State> = self
            .keyed_queries()
            .map(|q| (q, self.qfront[q].clone().into_boxed_slice()))
            .collect();
        self.memo.entry(key).or_default().push(MemoEntry {
            mask: self.mask.clone().into_boxed_slice(),
            frontier: self.fstack.top().into(),
            qfronts,
        });
        self.memo_entries += 1;
    }

    /// Tentatively places `x`; returns the undo token and whether the
    /// placement (and every pending query it touches) stays feasible.
    fn place(&mut self, x: usize) -> (PlacementUndo, bool) {
        let shape = self.shape;
        let label = self.h.label(x);
        let undo_mark = self.undo.len();
        self.mask[x / 64] |= 1 << (x % 64);
        self.order.push(x);
        let mut pushed_frontier = false;
        let feasible = if label.is_update() {
            if self.fstack.push_advanced(self.spec, label) {
                pushed_frontier = true;
                // Incrementally extend the justification frontier of every
                // pending query that sees x; a dead pending query can never
                // be justified, so it kills the whole branch right here.
                // The old frontier moves to the arena and the new one is
                // stepped into the query's own buffer: nothing is cloned.
                let mut alive = true;
                for q in shape.watchers(x) {
                    if self.is_placed(q) {
                        continue;
                    }
                    let start = self.arena.len();
                    self.arena.append(&mut self.qfront[q]);
                    self.undo.push((q, start));
                    if !advance_states(self.spec, &self.arena[start..], label, &mut self.qfront[q])
                    {
                        alive = false;
                        break;
                    }
                }
                if !alive {
                    self.prune_dead_pending_query += 1;
                }
                alive
            } else {
                self.prune_frontier_death += 1;
                false
            }
        } else {
            // Queries: all visible updates are placed (x is enabled), so
            // the incremental frontier has consumed exactly them, in
            // placement order — condition (iii) is one `admits` call.
            let justified = states_admit(self.spec, &self.qfront[x], label);
            if !justified {
                self.prune_query_unjustified += 1;
            }
            justified
        };
        (
            PlacementUndo {
                undo_mark,
                pushed_frontier,
            },
            feasible,
        )
    }

    fn unplace(&mut self, x: usize, undo: PlacementUndo) {
        while self.undo.len() > undo.undo_mark {
            let (q, start) = self.undo.pop().expect("undo entry");
            self.qfront[q].clear();
            self.qfront[q].extend(self.arena.drain(start..));
        }
        if undo.pushed_frontier {
            self.fstack.pop();
        }
        self.order.pop();
        self.mask[x / 64] &= !(1 << (x % 64));
    }

    fn dfs(&mut self) -> Option<Vec<usize>> {
        if self.order.len() == self.shape.n {
            return Some(self.order.clone());
        }
        // While no failure is recorded there is nothing to look up, and the
        // key waits for the insert (if any): every placement below is
        // undone by then, so it is the key this configuration has now. A
        // walk that never backtracks hashes nothing.
        let mut key = None;
        if !self.memo.is_empty() {
            let k = self.config_hash();
            if self.memo_hit(k) {
                self.memo_hits += 1;
                return None;
            }
            key = Some(k);
        }
        // Only *expansions* are charged: a memo hit is a constant-time
        // lookup, and a completed order is a result, not work.
        if self.budget == 0 {
            self.exhausted = true;
            return None;
        }
        self.budget -= 1;
        self.nodes += 1;
        let mut fully_explored = true;
        // Everything below the mask's leading all-ones words is placed, so
        // candidates start there and their predecessors are tested only
        // against the words from there on. Every placement below is undone
        // before the next candidate, so `full` holds for the whole loop.
        let full = self.mask.iter().take_while(|&&w| w == !0).count();
        for x in full * 64..self.shape.n {
            if self.is_placed(x) || !self.h.preds(x).is_covered_from(full, &self.mask[full..]) {
                continue;
            }
            let (undo, feasible) = self.place(x);
            let res = if feasible { self.dfs() } else { None };
            self.unplace(x, undo);
            if res.is_some() {
                return res;
            }
            if self.exhausted {
                fully_explored = false;
                break;
            }
        }
        if fully_explored {
            let key = key.unwrap_or_else(|| self.config_hash());
            self.memo_insert(key);
        }
        None
    }
}

/// [`search_with_budget`], also returning the [`SearchStats`] of the run.
/// The outcome component is identical to the plain entry point's; the
/// stats are diagnostic only.
pub fn search_with_stats<S: Spec>(
    h: &History<S::Label>,
    spec: &S,
    budget: u64,
) -> (SearchOutcome, SearchStats) {
    let t0 = obs::wallclock::now_nanos();
    let _span = obs::span("ralin.search");
    let shape = Shape::of(h);
    let mut w = Walk::new(h, spec, &shape, budget);
    let witness = w.dfs();
    let elapsed = obs::wallclock::now_nanos().saturating_sub(t0);
    let stats = SearchStats {
        nodes_expanded: w.nodes,
        memo_hits: w.memo_hits,
        memo_entries: w.memo_entries as u64,
        prune_frontier_death: w.prune_frontier_death,
        prune_query_unjustified: w.prune_query_unjustified,
        prune_dead_pending_query: w.prune_dead_pending_query,
        busy_nanos: elapsed,
        elapsed_nanos: elapsed,
        ..SearchStats::default()
    };
    emit_obs(&stats);

    let outcome = match witness {
        Some(order) => {
            debug_assert_eq!(
                check_linearization(h, spec, &order),
                Ok(()),
                "memoized search returned an invalid linearization"
            );
            SearchOutcome::Linearizable(Linearization { order })
        }
        None if w.exhausted => SearchOutcome::BudgetExhausted,
        None => SearchOutcome::NotLinearizable,
    };
    (outcome, stats)
}

/// Searches for an RA-linearization of `h` w.r.t. `spec` without a budget.
/// The history must be query-update free.
///
/// This is the memoized engine (see the module docs). Use
/// [`super::search_brute`] to force the naive seed-era enumeration.
pub fn search<S: Spec>(h: &History<S::Label>, spec: &S) -> SearchOutcome {
    search_with_budget(h, spec, u64::MAX)
}

/// Memoized search expanding at most `budget` configurations (one global
/// counter; see the module docs).
pub fn search_with_budget<S: Spec>(h: &History<S::Label>, spec: &S, budget: u64) -> SearchOutcome {
    search_with_stats(h, spec, budget).0
}

#[cfg(test)]
mod tests {
    use super::super::brute;
    use super::*;
    use crate::history::OpRecord;
    use crate::ids::ReplicaId;
    use crate::label::Kind;
    use crate::spec::Step;

    struct CtrSpec;

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

    impl Spec for CtrSpec {
        type Label = L;
        type State = i64;
        fn initial(&self) -> i64 {
            0
        }
        fn step(&self, s: &i64, l: &L, out: &mut Vec<i64>) -> Step {
            match l {
                L::Inc => Step::write(out, s + 1),
                L::Read(k) => Step::unchanged_if(k == s),
            }
        }
    }

    fn r(i: u32) -> ReplicaId {
        ReplicaId(i)
    }

    /// `n` concurrent increments and one read that saw all of them but
    /// claims one too many: refuted, with a fully concurrent top.
    fn impossible(n: usize) -> History<L> {
        let mut h = History::new();
        let incs: Vec<usize> = (0..n)
            .map(|i| h.push(OpRecord::new(L::Inc, r(i as u32)), []))
            .collect();
        h.push(OpRecord::new(L::Read(n as i64 + 1), r(0)), incs);
        h
    }

    #[test]
    fn empty_history_is_linearizable() {
        let h: History<L> = History::new();
        assert!(search(&h, &CtrSpec).is_linearizable());
        assert!(search_with_budget(&h, &CtrSpec, 0).is_linearizable());
    }

    #[test]
    fn finds_witness_and_matches_brute_order() {
        let mut h = History::new();
        let a = h.push(OpRecord::new(L::Inc, r(0)), []);
        let b = h.push(OpRecord::new(L::Inc, r(1)), []);
        h.push(OpRecord::new(L::Read(1), r(0)), [a]);
        h.push(OpRecord::new(L::Read(1), r(1)), [b]);
        let memo = search(&h, &CtrSpec);
        let naive = brute::search_brute(&h, &CtrSpec);
        assert!(memo.is_linearizable());
        assert_eq!(memo, naive, "memo must return the naive engine's witness");
    }

    #[test]
    fn refutes_where_brute_refutes() {
        let h = impossible(6);
        assert_eq!(search(&h, &CtrSpec), SearchOutcome::NotLinearizable);
        assert_eq!(brute::search_brute(&h, &CtrSpec), search(&h, &CtrSpec));
    }

    #[test]
    fn refutes_wide_histories_brute_cannot_touch() {
        // 14 concurrent increments: 14! ≈ 8.7·10¹⁰ permutations, but only
        // 2^14 placed sets. The memoized engine refutes within a budget
        // the naive engine exhausts instantly.
        let h = impossible(14);
        let budget = 2_000_000;
        assert_eq!(
            search_with_budget(&h, &CtrSpec, budget),
            SearchOutcome::NotLinearizable
        );
        assert_eq!(
            brute::search_brute_with_budget(&h, &CtrSpec, budget),
            SearchOutcome::BudgetExhausted
        );
    }

    #[test]
    fn budget_exhaustion_is_reported_deterministically() {
        let h = impossible(10);
        // Too small to finish: the one global counter stops the walk after
        // exactly `budget` expansions.
        let (tiny, stats) = search_with_stats(&h, &CtrSpec, 50);
        assert_eq!(tiny, SearchOutcome::BudgetExhausted);
        assert_eq!(stats.nodes_expanded, 50);
        assert_eq!(
            search_with_budget(&h, &CtrSpec, 0),
            SearchOutcome::BudgetExhausted
        );
    }

    #[test]
    fn exact_budget_still_reports_the_witness() {
        // A witness reached without backtracking costs one expansion per
        // proper prefix (the completed order is free): n in total, however
        // many operations could have gone first.
        let mut h = History::new();
        let a = h.push(OpRecord::new(L::Inc, r(0)), []);
        let b = h.push(OpRecord::new(L::Inc, r(1)), []);
        h.push(OpRecord::new(L::Read(2), r(2)), [a, b]);
        let (out, stats) = search_with_stats(&h, &CtrSpec, 3);
        assert!(out.is_linearizable());
        assert_eq!(stats.nodes_expanded, 3);
        assert_eq!(
            search_with_budget(&h, &CtrSpec, 2),
            SearchOutcome::BudgetExhausted
        );
    }

    #[test]
    fn failures_are_remembered_across_first_operations() {
        // Refuting k concurrent increments expands each of the 2^k placed
        // sets once; per-first-operation tables would re-explore the shared
        // sub-DAG under every root.
        let (out, stats) = search_with_stats(&impossible(10), &CtrSpec, u64::MAX);
        assert_eq!(out, SearchOutcome::NotLinearizable);
        assert_eq!(stats.nodes_expanded, 1 << 10);
        assert_eq!(stats.memo_entries, 1 << 10);
    }

    /// A spec with an update precondition (`set` fires only from state 0),
    /// so a pending query's justification frontier can die *before* the
    /// query is placed even while the main frontier survives.
    struct OnceSpec;

    #[derive(Clone, Debug, PartialEq)]
    enum OnceL {
        /// Admitted only while the state is 0; moves it to 1.
        Set,
        /// Always admitted; moves the state back to 0.
        Reset,
        Read(i64),
    }

    impl SpecLabel for OnceL {
        fn kind(&self) -> Kind {
            match self {
                OnceL::Set | OnceL::Reset => Kind::Update,
                OnceL::Read(_) => Kind::Query,
            }
        }
    }

    impl Spec for OnceSpec {
        type Label = OnceL;
        type State = i64;
        fn initial(&self) -> i64 {
            0
        }
        fn step(&self, s: &i64, l: &OnceL, out: &mut Vec<i64>) -> Step {
            match l {
                OnceL::Set if *s == 0 => Step::write(out, 1),
                OnceL::Set => Step::Refused,
                OnceL::Reset => Step::write(out, 0),
                OnceL::Read(k) => Step::unchanged_if(k == s),
            }
        }
    }

    #[test]
    fn dead_pending_query_is_refuted() {
        // The read sees both `set`s but not the concurrent `reset`. The
        // update projection survives when the reset is linearized between
        // the sets, but the read's justification sub-sequence (set · set)
        // dies the moment the second visible set is placed — the
        // incremental cut fires while the read is still pending, and the
        // engine refutes exactly where brute refutes.
        let mut h = History::new();
        let a = h.push(OpRecord::new(OnceL::Set, r(0)), []);
        h.push(OpRecord::new(OnceL::Reset, r(1)), []);
        let b = h.push(OpRecord::new(OnceL::Set, r(0)), [a]);
        h.push(OpRecord::new(OnceL::Read(1), r(0)), [a, b]);
        assert_eq!(search(&h, &OnceSpec), SearchOutcome::NotLinearizable);
        assert_eq!(brute::search_brute(&h, &OnceSpec), search(&h, &OnceSpec));
    }
}
