//! Streaming online RA-linearizability monitor — an incremental
//! configuration-frontier core for continuous per-event verification.
//!
//! The batch search ([`super::memo`]) decides a *finished* history by
//! walking its configuration DAG depth-first. A [`Monitor`] tracks the
//! same kind of configuration — a placement mask over operations, the
//! update projection's spec frontier, and an incremental justification
//! frontier per pending query, keyed by a canonical configuration hash —
//! but behind a per-event [`Monitor::advance_op`] /
//! [`Monitor::observe_frontier`] interface that *extends* live
//! configurations instead of re-searching the history, in the
//! induction-style per-op shape of "Automatically Verifying
//! Replication-aware Linearizability" (arXiv 2502.19967). It shares only
//! the key-fold helpers of `ralin::config` with the batch engine; the
//! two decide independently, which is what the cross-check suites rely on.
//!
//! The monitor consumes an open-ended op/delivery stream. The live
//! configuration set `R` is kept *eagerly closed*: every configuration
//! reachable by placing known operations is materialized (deduplicated by
//! canonical key), so a verdict is maintained after every event with no
//! re-search.
//!
//! # Causal stability
//!
//! The monitor tracks each replica's seen-frontier (the first operation id
//! the replica has *not* seen). The minimum over all replicas is the
//! **settled watermark**: every op below it is in the causal past of any
//! future operation, so any future operation must be linearized after it.
//! That justifies the stability rule: a live configuration that has not
//! placed a settled op can be discarded — any completion it admits passes
//! through a configuration (already in the eagerly-closed `R`) that places
//! the settled op before all future ops. Settled prefixes are then
//! *compacted*: placement-mask words below the watermark are dropped,
//! per-configuration settled placements are absorbed into a base state
//! (`qbase`), and per-op metadata is released. A configuration whose
//! unabsorbed placements have all settled absorbs them by taking its own
//! update frontier as the base (the frontier already is the base advanced
//! over them); only a straggler suffix, a settled op placed after a live
//! one, is replayed. Retained state is O(concurrent window), not
//! O(history length), in the monitor and in [`MonitorFeed`]'s id map
//! alike — the property the `monitor_streaming` bench and the 100k-op
//! churn test pin.
//!
//! An event pays for what it changes, not for what is retained: children
//! are filled into recycled configurations, configurations are boxed so
//! pruning, retiring and inserting move a pointer, pruning filters the
//! live set in place, the dedup index is rebuilt without allocating,
//! closure walks the open window only, the watermark is kept by a count of
//! the replicas sitting at it, and state-set hashes are stored where the
//! sets are produced (docs/MONITOR.md, "What an event costs").
//!
//! # Verdicts
//!
//! Prefix RA-linearizability is *not* monotone (a currently-linearizable
//! prefix can become unrepairable, and a currently-unorderable prefix can
//! be repaired by future concurrent ops), so the monitor distinguishes
//! [`Verdict::Ok`] (some configuration places everything fed so far) from
//! [`Verdict::Deferred`] (no complete configuration yet, but live ones
//! remain) and the sticky [`Verdict::Violated`] (no configuration can ever
//! complete — detected when settlement empties `R`).

use std::collections::HashMap;
use std::marker::PhantomData;

use super::config::{
    fold_frontier_hash, fold_mask_word, fold_query_frontier, BuildKeyHasher, CONFIG_KEY_SEED,
};
use crate::bitset::BitSet;
use crate::history::{History, Parts};
use crate::ids::ReplicaId;
use crate::label::{Rewrite, Rewritten, SpecLabel};
use crate::spec::{
    advance_states, mix64, states_admit, states_canonical_hash, states_set_eq, Spec,
};
use ral_obs as obs;

/// The monitor's rolling judgement about the stream consumed so far.
///
/// Prefix RA-linearizability is not monotone, hence the four-way split:
/// only [`Verdict::Violated`] and [`Verdict::Exhausted`] are permanent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Some live configuration places every operation fed so far: the
    /// stream, read as a finished history, is RA-linearizable right now.
    Ok,
    /// No configuration is complete yet, but live configurations remain:
    /// concurrent operations still in flight can repair the prefix. At
    /// end-of-stream this means *not* linearizable.
    Deferred,
    /// The live configuration set is empty: no extension of the stream can
    /// ever linearize it. Sticky.
    Violated,
    /// The monitor exceeded its live-configuration cap and gave up
    /// tracking. Sticky; no judgement is implied.
    Exhausted,
}

impl Verdict {
    /// True when the prefix fed so far is linearizable as-is.
    pub fn is_ok(self) -> bool {
        matches!(self, Verdict::Ok)
    }

    /// True for the permanent verdicts that stop all further tracking.
    pub fn is_sticky(self) -> bool {
        matches!(self, Verdict::Violated | Verdict::Exhausted)
    }
}

/// Diagnostic counters for one monitor run.
///
/// `peak_live_configs` and `peak_live_window` are the bounded-memory
/// story: the long-churn tests assert they stay O(concurrent window)
/// while `ops` grows unbounded.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MonitorStats {
    /// Operations fed via `advance_op` (rewritten space: a split
    /// query-update pair counts as two).
    pub ops: u64,
    /// Query operations among `ops`.
    pub queries: u64,
    /// Seen-frontier observations fed via `observe_frontier`.
    pub frontier_observations: u64,
    /// Configurations expanded (candidate placements enumerated).
    pub expansions: u64,
    /// Child configurations dropped because an equal configuration was
    /// already live (the memoization of the incremental core).
    pub dedup_hits: u64,
    /// Placements rejected because the update projection's frontier died.
    pub prune_frontier_death: u64,
    /// Placements rejected because a placed query was not justified by its
    /// visible-update projection.
    pub prune_query_unjustified: u64,
    /// Children discarded because a pending query's justification frontier
    /// died and can never be revived.
    pub prune_dead_pending_query: u64,
    /// Configurations discarded by the causal-stability rule (a settled op
    /// was never placed).
    pub prune_unsettled: u64,
    /// Operations below the settled watermark (cumulative).
    pub settled: u64,
    /// Times the settled prefix was compacted out of the live window.
    pub compactions: u64,
    /// Live configurations after the last event.
    pub live_configs: u64,
    /// Maximum of `live_configs` over the whole run.
    pub peak_live_configs: u64,
    /// Operations currently retained (fed minus settled).
    pub live_window: u64,
    /// Maximum of `live_window` over the whole run.
    pub peak_live_window: u64,
}

/// Emits the streaming counters to [`ral_obs`]. Called once per run (the
/// hot path stays observability-free, like the batch walk).
fn emit_monitor_obs(stats: &MonitorStats) {
    if !obs::enabled() {
        return;
    }
    obs::counter("monitor.ops", stats.ops);
    obs::counter("monitor.queries", stats.queries);
    obs::counter("monitor.expansions", stats.expansions);
    obs::counter("monitor.dedup_hits", stats.dedup_hits);
    obs::counter("monitor.settled_ops", stats.settled);
    obs::counter("monitor.compactions", stats.compactions);
    obs::counter("monitor.prune.unsettled", stats.prune_unsettled);
    obs::observe("monitor.live_window", stats.live_window);
    obs::observe("monitor.peak_live_window", stats.peak_live_window);
    obs::observe("monitor.live_configs", stats.live_configs);
    obs::observe("monitor.peak_live_configs", stats.peak_live_configs);
}

/// Per-operation bookkeeping, indexed by `id - meta_base`.
struct OpMeta<S: Spec> {
    /// The operation's label. Kept as long as the entry: `meta` drops a
    /// settled prefix only once no live configuration's unabsorbed
    /// suffix (`rem`) can still replay it.
    label: S::Label,
    /// Direct predecessors (rewritten ids). Released at settlement.
    preds: Option<BitSet>,
    is_query: bool,
    /// Settled watermark when the op arrived. Every update below it is in
    /// the op's causal past even if the caller truncated it out of
    /// `preds` (settled ⇒ seen by every replica ⇒ seen by the origin).
    vis_floor: usize,
    /// Pending queries that see this update (for incremental justification
    /// frontier upkeep when the update is placed).
    watchers: Vec<usize>,
}

/// The justification frontier of one pending query.
#[derive(Clone, Debug)]
struct QFront<St> {
    query: usize,
    states: Vec<St>,
    /// Canonical hash of `states`, computed where the set is produced.
    hash: u64,
}

/// One live configuration: a placement of a subset of the known ops,
/// closed under visibility, with the state needed to extend it.
#[derive(Debug)]
struct Config<St> {
    /// Window-relative placement mask: bit `i - base` set iff op `i` is
    /// placed. Words below the settled base are compacted away.
    mask: Vec<u64>,
    /// Number of placed ops inside the window (`base + placed == n` means
    /// the configuration is complete).
    placed: usize,
    /// Spec states after the update projection of the placement order.
    frontier: Vec<St>,
    /// States after replaying the settled placement-order prefix — the
    /// base every *future* query's justification starts from.
    qbase: Vec<St>,
    /// Canonical hash of `qbase`, computed where the set is produced.
    qbase_hash: u64,
    /// Placed updates not yet absorbed into `qbase`, in placement order
    /// (absolute ids).
    rem: Vec<usize>,
    /// Justification frontiers of pending queries, ascending by query id;
    /// every pending query is registered at arrival.
    qfronts: Vec<QFront<St>>,
    /// Emptied state buffers the next `qfronts` are filled into.
    free: Vec<Vec<St>>,
    /// Canonical key (see the `fold_*` helpers).
    key: u64,
    /// Next configuration with the same key (the dedup index chain).
    next: Option<usize>,
}

impl<St> Config<St> {
    /// A configuration holding no buffer yet.
    fn unallocated() -> Self {
        Config {
            mask: Vec::new(),
            placed: 0,
            frontier: Vec::new(),
            qbase: Vec::new(),
            qbase_hash: 0,
            rem: Vec::new(),
            qfronts: Vec::new(),
            free: Vec::new(),
            key: 0,
            next: None,
        }
    }

    /// Empties `qfronts`, keeping each frontier's buffer in `free`.
    fn release_qfronts(&mut self) {
        for mut qf in self.qfronts.drain(..) {
            qf.states.clear();
            self.free.push(qf.states);
        }
    }

    /// An empty state buffer: a released one if there is one.
    fn take_buffer(&mut self) -> Vec<St> {
        self.free.pop().unwrap_or_default()
    }
}

/// Why a candidate placement was rejected.
enum Prune {
    FrontierDeath,
    QueryUnjustified,
    DeadPendingQuery,
}

/// Default cap on live configurations before the monitor declares
/// [`Verdict::Exhausted`].
const DEFAULT_MAX_LIVE_CONFIGS: usize = 1 << 14;

/// Retired configurations kept for reuse. The steady state retires one
/// configuration per settled op and builds one per arriving op, so a few
/// suffice; the bound keeps a collapsing partition tail (hundreds pruned
/// at one settlement) from pinning its buffers.
const MAX_SPARE_CONFIGS: usize = 32;

/// The incremental RA-linearizability engine.
///
/// Construct with [`Monitor::new_streaming`] and feed events with
/// [`Monitor::advance_op`] / [`Monitor::observe_frontier`]. Histories with
/// query-update operations must be rewritten first — [`MonitorFeed`] does
/// this incrementally for live streams.
///
/// # Examples
///
/// ```
/// use ral_core::bitset::BitSet;
/// use ral_core::ids::ReplicaId;
/// use ral_core::label::{Kind, SpecLabel};
/// use ral_core::ralin::monitor::{Monitor, Verdict};
/// use ral_core::spec::{Spec, Step};
///
/// #[derive(Clone, Debug, PartialEq)]
/// enum L {
///     Inc,
///     Read(i64),
/// }
/// impl SpecLabel for L {
///     fn kind(&self) -> Kind {
///         match self {
///             L::Inc => Kind::Update,
///             L::Read(_) => Kind::Query,
///         }
///     }
/// }
/// struct Ctr;
/// impl Spec for Ctr {
///     type Label = L;
///     type State = i64;
///     fn initial(&self) -> i64 {
///         0
///     }
///     fn step(&self, s: &i64, l: &L, out: &mut Vec<i64>) -> Step {
///         match l {
///             L::Inc => Step::write(out, s + 1),
///             L::Read(k) => Step::unchanged_if(k == s),
///         }
///     }
/// }
///
/// let mut m = Monitor::new_streaming(Ctr, 2);
/// assert_eq!(m.advance_op(L::Inc, BitSet::new()), Verdict::Ok);
/// let seen: BitSet = [0].into_iter().collect();
/// assert_eq!(m.advance_op(L::Read(1), seen), Verdict::Ok);
/// // Both replicas saw both ops: the prefix settles and compacts.
/// m.observe_frontier(ReplicaId(0), 2);
/// assert_eq!(m.observe_frontier(ReplicaId(1), 2), Verdict::Ok);
/// assert_eq!(m.settled(), 2);
/// ```
// `clippy::vec_box` (here and on `retire` / `retain_configs`): the boxes
// are the point. A configuration is 184 bytes; held by value, every
// filter, retire, fill and insert copied it out of line, on the path every
// event takes (docs/MONITOR.md, "What an event costs").
#[allow(clippy::vec_box)]
pub struct Monitor<S: Spec> {
    spec: S,
    /// Operations fed so far (ids are dense `0..n`).
    n: usize,
    /// 64-aligned start of the live window; mask words below it are
    /// compacted away. `base <= watermark`.
    base: usize,
    /// Settled watermark: minimum replica seen-frontier; every op below it
    /// is placed in every live configuration.
    watermark: usize,
    /// Replicas whose seen-frontier equals `watermark`; the minimum can
    /// only move when the last of them advances.
    at_watermark: usize,
    /// First op id whose metadata is still retained.
    meta_base: usize,
    meta: Vec<OpMeta<S>>,
    /// Per-replica seen-frontiers (first unseen op id), monotone.
    frontiers: Vec<usize>,
    /// Boxed, so pruning, retiring and inserting move a pointer, never a
    /// configuration.
    configs: Vec<Box<Config<S::State>>>,
    /// Canonical key → first index into `configs` with that key; the rest
    /// follow through [`Config::next`]. Point lookups only, never
    /// iterated, so it cannot leak iteration nondeterminism.
    index: HashMap<u64, usize, BuildKeyHasher>,
    /// Retired configurations (pruned, merged or rejected): specification
    /// states dropped, buffers kept for [`Monitor::try_extend`] to refill.
    /// At most [`MAX_SPARE_CONFIGS`].
    spare: Vec<Box<Config<S::State>>>,
    /// The buffer a replay steps into before swapping it in; empty between
    /// events.
    scratch: Vec<S::State>,
    verdict: Verdict,
    max_live_configs: usize,
    stats: MonitorStats,
}

/// Bits `lo..hi` of `mask` are all set.
fn range_all_set(mask: &[u64], lo: usize, hi: usize) -> bool {
    (lo..hi).all(|b| mask[b / 64] & (1 << (b % 64)) != 0)
}

/// Configuration equality (the collision check behind the canonical key).
/// `frontier` is derived from `qbase ⊕ rem` and needs no comparison of its
/// own.
fn configs_equal<St: PartialEq>(a: &Config<St>, b: &Config<St>) -> bool {
    a.mask == b.mask
        && a.rem == b.rem
        && states_set_eq(&a.qbase, &b.qbase)
        && a.qfronts.len() == b.qfronts.len()
        && a.qfronts
            .iter()
            .zip(&b.qfronts)
            .all(|(x, y)| x.query == y.query && states_set_eq(&x.states, &y.states))
}

/// Moves a configuration that left the live set to the spare list (or
/// drops it when the list is full). Its specification states are dropped
/// either way — a spare holds buffers, never a document.
#[allow(clippy::vec_box)]
fn retire<St>(spare: &mut Vec<Box<Config<St>>>, mut c: Box<Config<St>>) {
    if spare.len() < MAX_SPARE_CONFIGS {
        c.frontier.clear();
        c.qbase.clear();
        c.release_qfronts();
        spare.push(c);
    }
}

/// Overwrites `dst` with a copy of the state set `src`. A buffer that must
/// grow is sized exactly: a state set is usually one state, and an
/// amortized first push would reserve four.
fn copy_states<St: Clone>(dst: &mut Vec<St>, src: &[St]) {
    dst.clear();
    dst.reserve_exact(src.len());
    dst.extend_from_slice(src);
}

/// Keeps the configurations `keep` accepts, in place and in order; retires
/// the rest and returns how many there were.
#[allow(clippy::vec_box)]
fn retain_configs<St>(
    configs: &mut Vec<Box<Config<St>>>,
    spare: &mut Vec<Box<Config<St>>>,
    mut keep: impl FnMut(&mut Config<St>) -> bool,
) -> u64 {
    let mut kept = 0;
    for i in 0..configs.len() {
        if keep(&mut configs[i]) {
            if kept != i {
                configs.swap(kept, i);
            }
            kept += 1;
        }
    }
    let pruned = configs.len() - kept;
    for c in configs.drain(kept..) {
        retire(spare, c);
    }
    pruned as u64
}

impl<S: Spec> Monitor<S> {
    /// Creates a streaming monitor over `n_replicas` replicas. The empty
    /// stream is trivially linearizable, so the initial verdict is
    /// [`Verdict::Ok`].
    pub fn new_streaming(spec: S, n_replicas: usize) -> Self {
        let mut m = Monitor {
            spec,
            n: 0,
            base: 0,
            watermark: 0,
            at_watermark: n_replicas,
            meta_base: 0,
            meta: Vec::new(),
            frontiers: vec![0; n_replicas],
            configs: Vec::new(),
            index: HashMap::default(),
            spare: Vec::new(),
            scratch: Vec::new(),
            verdict: Verdict::Ok,
            max_live_configs: DEFAULT_MAX_LIVE_CONFIGS,
            stats: MonitorStats::default(),
        };
        let mut root = Box::new(Config::unallocated());
        root.frontier.push(m.spec.initial());
        root.qbase.push(m.spec.initial());
        root.qbase_hash = states_canonical_hash(&m.spec, &root.qbase);
        m.configs.push(root);
        m.rebuild_index();
        m.stats.live_configs = 1;
        m.stats.peak_live_configs = 1;
        m
    }

    /// Overrides the live-configuration cap past which the monitor stops
    /// tracking with [`Verdict::Exhausted`].
    pub fn with_max_live_configs(mut self, cap: usize) -> Self {
        self.max_live_configs = cap.max(1);
        self
    }

    /// Operations fed so far.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if no operation has been fed yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The settled watermark: ops below it are in every future op's causal
    /// past and have been committed to every live configuration.
    pub fn settled(&self) -> usize {
        self.watermark
    }

    /// Operations currently retained (fed minus settled).
    pub fn live_window(&self) -> usize {
        self.n - self.watermark
    }

    /// Live configurations currently tracked.
    pub fn live_configs(&self) -> usize {
        self.configs.len()
    }

    /// The current verdict (see [`Verdict`] for prefix semantics).
    pub fn verdict(&self) -> Verdict {
        self.verdict
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &MonitorStats {
        &self.stats
    }

    /// Emits the run's counters to [`ral_obs`] (once, typically at end of
    /// stream — the per-event path is observability-free).
    pub fn emit_obs(&self) {
        emit_monitor_obs(&self.stats);
    }

    /// Feeds one operation and returns the refreshed verdict.
    ///
    /// `preds` are the op's visible predecessors as *rewritten* ids (use
    /// [`MonitorFeed`] to map an original-label stream). Predecessors
    /// below the settled watermark may be omitted — they are implied,
    /// since a settled op has been seen by every replica. Ids must be fed
    /// densely in order: this call assigns id [`Monitor::len`].
    pub fn advance_op(&mut self, label: S::Label, preds: BitSet) -> Verdict {
        let id = self.n;
        self.n += 1;
        debug_assert!(
            preds.max().is_none_or(|m| m < id),
            "predecessors must be earlier ops"
        );
        let is_query = label.is_query();
        self.stats.ops += 1;
        if is_query {
            self.stats.queries += 1;
        }
        if self.verdict.is_sticky() {
            // Terminal: keep id accounting for feeds, drop all tracking.
            return self.verdict;
        }
        if is_query {
            // Register as a watcher of every visible unsettled update.
            let meta_base = self.meta_base;
            for (j, word) in preds.words_from(self.watermark / 64) {
                let mut bits = word;
                while bits != 0 {
                    let u = j * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if u >= self.watermark && !self.meta[u - meta_base].is_query {
                        self.meta[u - meta_base].watchers.push(id);
                    }
                }
            }
        }
        self.meta.push(OpMeta {
            label,
            preds: Some(preds),
            is_query,
            vis_floor: self.watermark,
            watchers: Vec::new(),
        });
        self.stats.live_window = (self.n - self.watermark) as u64;
        self.stats.peak_live_window = self.stats.peak_live_window.max(self.stats.live_window);
        self.grow_masks();
        if is_query && !self.stream_register_query(id) {
            return self.verdict; // Violated: the query is dead in every config.
        }
        self.stream_closure(id);
        self.refresh_verdict();
        self.stats.live_configs = self.configs.len() as u64;
        self.stats.peak_live_configs = self.stats.peak_live_configs.max(self.stats.live_configs);
        self.verdict
    }

    /// Feeds one replica seen-frontier observation (`first_unseen` is the
    /// first rewritten op id the replica has *not* seen) and returns the
    /// refreshed verdict. Advancing the minimum frontier settles ops and
    /// compacts the retained window.
    pub fn observe_frontier(&mut self, replica: ReplicaId, first_unseen: usize) -> Verdict {
        self.stats.frontier_observations += 1;
        if self.verdict.is_sticky() {
            return self.verdict;
        }
        let r = replica.0 as usize;
        assert!(r < self.frontiers.len(), "replica out of range");
        // An over-claimed frontier means "has seen everything fed so far".
        let f = first_unseen.min(self.n);
        if f > self.frontiers[r] {
            if self.frontiers[r] == self.watermark {
                self.at_watermark -= 1;
            }
            self.frontiers[r] = f;
            if self.at_watermark == 0 {
                // The last replica at the old minimum moved: find the new one.
                let wm = self.frontiers.iter().copied().min().unwrap_or(0);
                self.at_watermark = self.frontiers.iter().filter(|&&f| f == wm).count();
                self.settle(wm);
            }
        }
        self.verdict
    }

    /// Widens every live mask to the current window (trailing zero words
    /// do not participate in keys, so no rekeying is needed).
    fn grow_masks(&mut self) {
        let words = (self.n - self.base).div_ceil(64);
        if self.configs.first().is_some_and(|c| c.mask.len() < words) {
            for c in &mut self.configs {
                c.mask.resize(words, 0);
            }
        }
    }

    /// Installs the justification frontier of freshly-arrived query `q` in
    /// every live configuration (replaying the visible part of each
    /// configuration's unabsorbed placement suffix on top of its base
    /// states), pruning configurations where it is already dead. Returns
    /// `false` if no configuration survives.
    fn stream_register_query(&mut self, q: usize) -> bool {
        let vis_floor = self.meta[q - self.meta_base].vis_floor;
        let preds = self.meta[q - self.meta_base]
            .preds
            .take()
            .expect("preds retained for live ops");
        let (spec, meta, meta_base) = (&self.spec, &self.meta, self.meta_base);
        let scratch = &mut self.scratch;
        let pruned = retain_configs(&mut self.configs, &mut self.spare, |c| {
            let mut states = c.take_buffer();
            copy_states(&mut states, &c.qbase);
            let mut replayed = false;
            for &u in &c.rem {
                if u < vis_floor || preds.contains(u) {
                    let lbl = &meta[u - meta_base].label;
                    let alive = advance_states(spec, &states, lbl, scratch);
                    std::mem::swap(&mut states, scratch);
                    if !alive {
                        c.free.push(states);
                        return false;
                    }
                    replayed = true;
                }
            }
            let hash = if replayed {
                states_canonical_hash(spec, &states)
            } else {
                c.qbase_hash
            };
            c.qfronts.push(QFront {
                query: q,
                states,
                hash,
            });
            true
        });
        self.scratch.clear();
        self.meta[q - self.meta_base].preds = Some(preds);
        self.stats.prune_dead_pending_query += pruned;
        self.rebuild_index();
        if self.configs.is_empty() {
            self.fail(Verdict::Violated);
            return false;
        }
        true
    }

    /// Restores eager closure after op `seed` arrives: tries `seed` in
    /// every live configuration, then closes each new configuration over
    /// every known op. (Feasibility of a placement is static, so old
    /// configurations never gain new extensions from old ops.)
    fn stream_closure(&mut self, seed: usize) {
        let existing = self.configs.len();
        for parent in 0..existing {
            self.try_extend(parent, seed);
        }
        let mut idx = existing;
        while idx < self.configs.len() {
            if self.configs.len() > self.max_live_configs {
                self.fail(Verdict::Exhausted);
                return;
            }
            self.stats.expansions += 1;
            // Ops below the watermark are placed in every live
            // configuration, hence in every child of one.
            for x in self.watermark..self.n {
                self.try_extend(idx, x);
            }
            idx += 1;
        }
        if self.configs.len() > self.max_live_configs {
            self.fail(Verdict::Exhausted);
        }
    }

    /// Attempts to place `x` on top of configuration `parent`, inserting
    /// the child (deduplicated) if the placement is feasible and live.
    fn try_extend(&mut self, parent: usize, x: usize) {
        let base_w = self.base / 64;
        let bit = x - self.base;
        {
            let c = &self.configs[parent];
            if c.mask[bit / 64] & (1 << (bit % 64)) != 0 {
                return; // already placed
            }
            let preds = self.meta[x - self.meta_base]
                .preds
                .as_ref()
                .expect("preds retained for unplaced ops");
            // Predecessors below the window base are settled, hence
            // placed everywhere.
            if !preds.is_covered_from(base_w, &c.mask) {
                return; // not yet enabled
            }
        }
        let mut child = self
            .spare
            .pop()
            .unwrap_or_else(|| Box::new(Config::unallocated()));
        match self.fill_child(&mut child, parent, x) {
            Ok(()) => return self.insert_or_merge(child),
            Err(Prune::FrontierDeath) => self.stats.prune_frontier_death += 1,
            Err(Prune::QueryUnjustified) => self.stats.prune_query_unjustified += 1,
            Err(Prune::DeadPendingQuery) => self.stats.prune_dead_pending_query += 1,
        }
        retire(&mut self.spare, child);
    }

    /// Overwrites `child` (a spare: its buffers are reused, none of its
    /// contents survive) with the configuration `parent + x`, or returns
    /// the prune cause and leaves `child` unspecified. Every state set is
    /// stepped or copied into one of `child`'s own buffers.
    fn fill_child(
        &self,
        child: &mut Config<S::State>,
        parent: usize,
        x: usize,
    ) -> Result<(), Prune> {
        let m = &self.meta[x - self.meta_base];
        let label = &m.label;
        let p = &self.configs[parent];
        child.release_qfronts();
        if m.is_query {
            let i = p
                .qfronts
                .binary_search_by_key(&x, |e| e.query)
                .expect("query frontiers exist from arrival");
            if !states_admit(&self.spec, &p.qfronts[i].states, label) {
                return Err(Prune::QueryUnjustified);
            }
            copy_states(&mut child.frontier, &p.frontier);
            child.rem.clone_from(&p.rem);
            for e in p.qfronts.iter().filter(|e| e.query != x) {
                let mut states = child.take_buffer();
                copy_states(&mut states, &e.states);
                child.qfronts.push(QFront {
                    query: e.query,
                    states,
                    hash: e.hash,
                });
            }
        } else {
            if !advance_states(&self.spec, &p.frontier, label, &mut child.frontier) {
                return Err(Prune::FrontierDeath);
            }
            child.rem.clone_from(&p.rem);
            child.rem.push(x);
            // `p.qfronts` holds exactly the queries pending in `p`; those
            // that see `x` (its watchers, ascending like every id list
            // here) advance over it, the others carry over.
            for e in &p.qfronts {
                let mut states = child.take_buffer();
                let hash = if m.watchers.binary_search(&e.query).is_ok() {
                    if !advance_states(&self.spec, &e.states, label, &mut states) {
                        child.free.push(states);
                        return Err(Prune::DeadPendingQuery);
                    }
                    states_canonical_hash(&self.spec, &states)
                } else {
                    copy_states(&mut states, &e.states);
                    e.hash
                };
                child.qfronts.push(QFront {
                    query: e.query,
                    states,
                    hash,
                });
            }
        }
        let bit = x - self.base;
        child.mask.clone_from(&p.mask);
        child.mask[bit / 64] |= 1 << (bit % 64);
        child.placed = p.placed + 1;
        copy_states(&mut child.qbase, &p.qbase);
        child.qbase_hash = p.qbase_hash;
        child.key = self.config_key(child);
        Ok(())
    }

    /// Canonical key of a configuration, folded from the hashes stored
    /// beside its state sets. Trailing zero mask words are skipped so the
    /// window can grow without rekeying.
    fn config_key(&self, c: &Config<S::State>) -> u64 {
        debug_assert_eq!(c.qbase_hash, states_canonical_hash(&self.spec, &c.qbase));
        let mut key = CONFIG_KEY_SEED;
        let tail = c.mask.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
        for &w in &c.mask[..tail] {
            key = fold_mask_word(key, w);
        }
        key = fold_frontier_hash(key, c.qbase_hash);
        for &u in &c.rem {
            key = mix64(key ^ (u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        for qf in &c.qfronts {
            debug_assert_eq!(qf.hash, states_canonical_hash(&self.spec, &qf.states));
            key = fold_query_frontier(key, qf.query, qf.hash);
        }
        key
    }

    /// Inserts `child` unless an equal configuration is already live.
    fn insert_or_merge(&mut self, mut child: Box<Config<S::State>>) {
        let head = self.index.get(&child.key).copied();
        let mut at = head;
        while let Some(i) = at {
            if configs_equal(&self.configs[i], &child) {
                self.stats.dedup_hits += 1;
                debug_assert!(states_set_eq(&self.configs[i].frontier, &child.frontier));
                return retire(&mut self.spare, child);
            }
            at = self.configs[i].next;
        }
        child.next = head;
        self.index.insert(child.key, self.configs.len());
        self.configs.push(child);
    }

    /// Applies the causal-stability rule after the watermark advances to
    /// `wm`: prunes configurations that never placed a newly settled op,
    /// absorbs settled placement prefixes into base states, and compacts
    /// mask words and metadata out of the live window.
    fn settle(&mut self, wm: usize) {
        debug_assert!(wm > self.watermark && wm <= self.n);
        let old_wm = self.watermark;
        let lo = old_wm - self.base;
        let hi = wm - self.base;
        self.watermark = wm;
        self.stats.settled = wm as u64;
        self.stats.live_window = (self.n - wm) as u64;
        self.stats.prune_unsettled += retain_configs(&mut self.configs, &mut self.spare, |c| {
            range_all_set(&c.mask, lo, hi)
        });
        if self.configs.is_empty() {
            self.fail(Verdict::Violated);
            return;
        }
        // Absorb each configuration's settled placement prefix into its
        // base states; stragglers (settled ops placed after a still-live
        // one) stay in `rem` and are bounded by the concurrent window. A
        // wholly settled `rem` needs no replay: `frontier` already is
        // `qbase ⊕ rem`, so the base takes a copy of it. Only a partly
        // settled suffix replays (a debug build replays either way, to
        // check the handover).
        for c in &mut self.configs {
            let k = c.rem.iter().take_while(|&&u| u < wm).count();
            if k == 0 {
                continue;
            }
            let whole = k == c.rem.len();
            if !whole || cfg!(debug_assertions) {
                for &u in &c.rem[..k] {
                    let lbl = &self.meta[u - self.meta_base].label;
                    let alive = advance_states(&self.spec, &c.qbase, lbl, &mut self.scratch);
                    debug_assert!(alive, "absorbed prefix replays a live frontier");
                    std::mem::swap(&mut c.qbase, &mut self.scratch);
                }
            }
            if whole {
                debug_assert!(states_set_eq(&c.qbase, &c.frontier));
                copy_states(&mut c.qbase, &c.frontier);
            }
            c.rem.drain(..k);
            c.qbase_hash = states_canonical_hash(&self.spec, &c.qbase);
        }
        self.scratch.clear();
        // Compact whole settled words out of the window.
        let new_base = wm & !63;
        if new_base > self.base {
            let k_words = (new_base - self.base) / 64;
            for c in &mut self.configs {
                debug_assert!(c.mask[..k_words].iter().all(|&w| w == !0u64));
                c.mask.drain(..k_words);
                c.placed -= k_words * 64;
            }
            self.base = new_base;
            self.stats.compactions += 1;
            let min_rem = self
                .configs
                .iter()
                .flat_map(|c| c.rem.iter().copied())
                .min()
                .unwrap_or(usize::MAX);
            let keep_from = new_base.min(min_rem);
            if keep_from > self.meta_base {
                self.meta.drain(..keep_from - self.meta_base);
                self.meta_base = keep_from;
            }
        }
        // Settled ops are placed everywhere: their predecessor sets and
        // watcher lists can never be consulted again.
        for id in old_wm.max(self.meta_base)..wm {
            let m = &mut self.meta[id - self.meta_base];
            m.preds = None;
            m.watchers = Vec::new();
        }
        self.rebuild_index();
        self.refresh_verdict();
        self.stats.live_configs = self.configs.len() as u64;
    }

    /// Recomputes every key and rebuilds the dedup index (needed whenever
    /// masks shift, base states absorb, or query frontiers are installed).
    fn rebuild_index(&mut self) {
        self.index.clear();
        for i in 0..self.configs.len() {
            let key = self.config_key(&self.configs[i]);
            self.configs[i].key = key;
            self.configs[i].next = self.index.insert(key, i);
        }
    }

    fn refresh_verdict(&mut self) {
        if self.verdict.is_sticky() {
            return;
        }
        self.verdict = if self.configs.is_empty() {
            Verdict::Violated
        } else if self.configs.iter().any(|c| self.base + c.placed == self.n) {
            Verdict::Ok
        } else {
            Verdict::Deferred
        };
    }

    /// Enters a sticky terminal verdict and releases tracking state: no
    /// later event reads a configuration or an op's metadata again.
    fn fail(&mut self, v: Verdict) {
        debug_assert!(v.is_sticky());
        self.verdict = v;
        self.configs = Vec::new();
        self.index = HashMap::default();
        self.spare = Vec::new();
        self.scratch = Vec::new();
        self.meta = Vec::new();
        self.stats.live_configs = 0;
    }
}

/// Settled [`MonitorFeed`] entries dropped at once, at the least.
const MIN_PARTS_DROP: usize = 64;

/// Incremental mirror of [`crate::history::rewrite_history`]: feeds a
/// stream of *original* labels (queries, updates, or query-updates) to a
/// [`Monitor`], splitting query-updates on the fly and mapping visibility
/// and seen-frontiers into the rewritten id space.
///
/// Use [`MonitorFeed::feed_op`] for each invocation (with its visible
/// predecessors as original ids) and [`MonitorFeed::observe_frontier`]
/// whenever a replica's seen-frontier advances (e.g. after mailbox
/// drains). [`monitor_history`] replays a finished [`History`] through a
/// feed, synthesizing the frontier observations from its visibility sets.
pub struct MonitorFeed<In, R: Rewrite<In>, S: Spec<Label = R::Out>> {
    rw: R,
    monitor: Monitor<S>,
    /// Where each original operation from `parts_base` on was fed:
    /// `parts[i]` describes operation `parts_base + i`.
    parts: Vec<Parts>,
    /// First original id still in `parts`. Entries below `orig_floor` are
    /// dropped in batches, once there are [`MIN_PARTS_DROP`] of them and
    /// at least as many as there are entries above the floor: each entry
    /// moves at most once, and the feed holds the window, not the stream.
    parts_base: usize,
    /// Original ids below this are wholly settled; their predecessors are
    /// implied and skipped when building rewritten visibility sets, so a
    /// feed scans and inserts O(concurrent window) predecessors. The set
    /// it builds starts as the settled prefix's full words, so its tail
    /// words span the window only, not the history.
    orig_floor: usize,
    _in: PhantomData<fn(&In)>,
}

impl<In, R: Rewrite<In>, S: Spec<Label = R::Out>> MonitorFeed<In, R, S> {
    /// Creates a feed over a fresh streaming monitor.
    pub fn new(rw: R, spec: S, n_replicas: usize) -> Self {
        MonitorFeed {
            rw,
            monitor: Monitor::new_streaming(spec, n_replicas),
            parts: Vec::new(),
            parts_base: 0,
            orig_floor: 0,
            _in: PhantomData,
        }
    }

    /// The underlying monitor.
    pub fn monitor(&self) -> &Monitor<S> {
        &self.monitor
    }

    /// The current verdict.
    pub fn verdict(&self) -> Verdict {
        self.monitor.verdict()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &MonitorStats {
        self.monitor.stats()
    }

    /// Original operations fed so far.
    pub fn len(&self) -> usize {
        self.parts_base + self.parts.len()
    }

    /// True if nothing has been fed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feeds one original-label operation with its visible predecessors
    /// (original ids, e.g. the origin replica's seen-set at invocation).
    pub fn feed_op(&mut self, label: &In, preds: &BitSet) -> Verdict {
        let wm = self.monitor.settled();
        let n = self.len();
        while self.orig_floor < n && self.parts[self.orig_floor - self.parts_base].update() < wm {
            self.orig_floor += 1;
        }
        let dropped = self.orig_floor - self.parts_base;
        if dropped >= MIN_PARTS_DROP.max(n - self.orig_floor) {
            self.parts.drain(..dropped);
            self.parts_base = self.orig_floor;
        }
        // Map visibility into rewritten space, skipping the settled prefix
        // (implied by the monitor's vis_floor rule). The set starts as the
        // settled prefix's full words, so only the mapped ids above it take
        // tail words.
        let mut pred_updates = BitSet::prefix(wm / 64 * 64);
        let floor_w = self.orig_floor / 64;
        for (j, word) in preds.words_from(floor_w) {
            let mut bits = word;
            if j == floor_w && self.orig_floor % 64 != 0 {
                bits &= !0u64 << (self.orig_floor % 64);
            }
            while bits != 0 {
                let p = j * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                pred_updates.insert(self.parts[p - self.parts_base].update());
            }
        }
        match self.rw.rewrite(label) {
            Rewritten::One(l) => {
                let id = self.monitor.len();
                let v = self.monitor.advance_op(l, pred_updates);
                self.parts.push(Parts::One(id));
                v
            }
            Rewritten::Split { query, update } => {
                let q = self.monitor.len();
                self.monitor.advance_op(query, pred_updates);
                let mut qp = BitSet::new();
                qp.insert(q);
                let v = self.monitor.advance_op(update, qp);
                self.parts.push(Parts::Split {
                    query: q,
                    update: q + 1,
                });
                v
            }
        }
    }

    /// Feeds one replica seen-frontier observation in *original* id space
    /// (`first_unseen` = the first original op the replica has not seen).
    /// A frontier beyond the operations fed so far is clamped, as in
    /// [`Monitor::observe_frontier`]: it means "has seen everything fed".
    /// One at or below the settled floor maps to 0: every operation below
    /// the floor is settled, so the monitor ignores it either way.
    pub fn observe_frontier(&mut self, replica: ReplicaId, first_unseen: usize) -> Verdict {
        let f = first_unseen.min(self.len());
        let mapped = if f <= self.orig_floor {
            0
        } else {
            self.parts[f - 1 - self.parts_base].update() + 1
        };
        self.monitor.observe_frontier(replica, mapped)
    }
}

/// Streams a finished history through a [`MonitorFeed`], synthesizing each
/// replica's seen-frontier from the history's visibility sets (an op's
/// predecessor set *is* its origin's seen-set at invocation), and returns
/// the end-of-stream verdict. At end of stream [`Verdict::Ok`] means
/// RA-linearizable and [`Verdict::Deferred`] / [`Verdict::Violated`] mean
/// refuted — the cross-check suites hold this equal to `ra_search`.
pub fn monitor_history<In, R, S>(h: &History<In>, rw: &R, spec: S) -> (Verdict, MonitorStats)
where
    R: Rewrite<In>,
    S: Spec<Label = R::Out>,
{
    let n_replicas = h
        .iter()
        .map(|(_, op)| op.replica.0 as usize + 1)
        .max()
        .unwrap_or(0);
    let mut feed: MonitorFeed<In, &R, S> = MonitorFeed::new(rw, spec, n_replicas);
    let mut frontiers = vec![0usize; n_replicas];
    let mut verdict = feed.verdict();
    for i in 0..h.len() {
        feed.feed_op(h.label(i), h.preds(i));
        let r = h.op(i).replica;
        let f = &mut frontiers[r.0 as usize];
        while *f < h.len() && (*f == i || h.preds(i).contains(*f)) {
            *f += 1;
        }
        verdict = feed.observe_frontier(r, *f);
    }
    feed.monitor().emit_obs();
    (verdict, feed.monitor().stats().clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::OpRecord;
    use crate::label::{Identity, Kind};
    use crate::spec::Step;
    use std::cell::Cell;

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

    /// A flag that can be set exactly once: concurrent duplicate sets can
    /// never linearize.
    struct OnceSpec;

    #[derive(Clone, Debug, PartialEq)]
    enum O {
        Set,
        IsSet(bool),
    }

    impl SpecLabel for O {
        fn kind(&self) -> Kind {
            match self {
                O::Set => Kind::Update,
                O::IsSet(_) => Kind::Query,
            }
        }
    }

    impl Spec for OnceSpec {
        type Label = O;
        type State = bool;
        fn initial(&self) -> bool {
            false
        }
        fn step(&self, s: &bool, l: &O, out: &mut Vec<bool>) -> Step {
            match l {
                O::Set if !s => Step::write(out, true),
                O::Set => Step::Refused,
                O::IsSet(k) => Step::unchanged_if(k == s),
            }
        }
    }

    fn r(i: u32) -> ReplicaId {
        ReplicaId(i)
    }

    fn bits<const N: usize>(ids: [usize; N]) -> BitSet {
        ids.into_iter().collect()
    }

    #[test]
    fn empty_stream_is_ok() {
        let m = Monitor::new_streaming(CtrSpec, 2);
        assert_eq!(m.verdict(), Verdict::Ok);
        assert!(m.is_empty());
    }

    #[test]
    fn ordered_counter_stream_stays_ok_and_settles() {
        let mut m = Monitor::new_streaming(CtrSpec, 2);
        assert_eq!(m.advance_op(L::Inc, BitSet::new()), Verdict::Ok);
        assert_eq!(m.advance_op(L::Read(1), bits([0])), Verdict::Ok);
        m.observe_frontier(r(0), 2);
        assert_eq!(m.observe_frontier(r(1), 2), Verdict::Ok);
        assert_eq!(m.settled(), 2);
        assert_eq!(m.live_window(), 0);
        assert_eq!(m.live_configs(), 1);
    }

    #[test]
    fn concurrent_once_sets_defer_then_violate_at_settlement() {
        let mut m = Monitor::new_streaming(OnceSpec, 2);
        assert_eq!(m.advance_op(O::Set, BitSet::new()), Verdict::Ok);
        // A concurrent second Set: no configuration can place both, so no
        // complete configuration exists, but the prefix is still repairable
        // in the open world.
        assert_eq!(m.advance_op(O::Set, BitSet::new()), Verdict::Deferred);
        // Once both replicas have seen both sets, the unplaceable one
        // settles: every live configuration misses a settled op.
        m.observe_frontier(r(0), 2);
        assert_eq!(m.observe_frontier(r(1), 2), Verdict::Violated);
        assert!(m.verdict().is_sticky());
        // Sticky: further ops do not resurrect it.
        assert_eq!(m.advance_op(O::IsSet(true), bits([0])), Verdict::Violated);
        assert!(m.stats().prune_unsettled > 0);
    }

    #[test]
    fn unjustified_query_violates_at_settlement() {
        let mut m = Monitor::new_streaming(CtrSpec, 1);
        assert_eq!(m.advance_op(L::Inc, BitSet::new()), Verdict::Ok);
        // A read of 2 that saw exactly one increment can never be
        // justified, so no configuration ever places it: the prefix hangs
        // at Deferred until the query settles, which empties the live set.
        assert_eq!(m.advance_op(L::Read(2), bits([0])), Verdict::Deferred);
        assert_eq!(m.observe_frontier(r(0), 2), Verdict::Violated);
        assert!(m.stats().prune_query_unjustified > 0);
    }

    #[test]
    fn long_chain_compacts_to_constant_state() {
        let mut m = Monitor::new_streaming(CtrSpec, 2);
        let mut preds = BitSet::new();
        for i in 0..1000usize {
            assert_eq!(m.advance_op(L::Inc, preds.clone()), Verdict::Ok, "op {i}");
            preds.insert(i);
            m.observe_frontier(r(0), i + 1);
            m.observe_frontier(r(1), i + 1);
        }
        assert_eq!(m.settled(), 1000);
        assert_eq!(m.live_window(), 0);
        assert!(m.stats().compactions >= 10);
        // Retained state is O(window), not O(history).
        assert!(m.meta.len() <= 64, "meta retained: {}", m.meta.len());
        assert!(m.stats().peak_live_configs <= 4);
        assert_eq!(m.stats().settled, 1000);
    }

    #[test]
    fn streaming_replay_agrees_with_batch_search() {
        let mut h = History::new();
        let a = h.push(OpRecord::new(L::Inc, r(0)), []);
        let b = h.push(OpRecord::new(L::Inc, r(1)), [a]);
        h.push(OpRecord::new(L::Read(2), r(1)), [a, b]);
        let (verdict, _) = monitor_history(&h, &Identity, CtrSpec);
        assert_eq!(verdict, Verdict::Ok);

        let mut h = History::new();
        let a = h.push(OpRecord::new(L::Inc, r(0)), []);
        h.push(OpRecord::new(L::Read(3), r(1)), [a]);
        let (verdict, _) = monitor_history(&h, &Identity, CtrSpec);
        assert!(matches!(verdict, Verdict::Deferred | Verdict::Violated));
    }

    #[test]
    fn exhaustion_is_sticky() {
        let mut m = Monitor::new_streaming(CtrSpec, 1).with_max_live_configs(2);
        for _ in 0..6 {
            m.advance_op(L::Inc, BitSet::new());
        }
        assert_eq!(m.verdict(), Verdict::Exhausted);
        assert_eq!(m.advance_op(L::Inc, BitSet::new()), Verdict::Exhausted);
        assert_eq!(m.live_configs(), 0);
    }

    /// `fail` releases everything a later event could only have read
    /// through a live configuration — the metadata of a window that was
    /// wide enough to exhaust included — while the verdict, the counters
    /// and the id accounting go on as before.
    #[test]
    fn sticky_verdict_releases_all_tracking_state() {
        let mut m = Monitor::new_streaming(CtrSpec, 1).with_max_live_configs(8);
        m.advance_op(L::Inc, BitSet::new());
        assert_eq!(m.observe_frontier(r(0), 1), Verdict::Ok);
        assert!(!m.spare.is_empty(), "settlement retires the pruned parent");
        m.advance_op(L::Inc, bits([0]));
        m.advance_op(L::Inc, bits([0]));
        assert!(!m.verdict().is_sticky());
        assert!(m.meta.len() >= 2, "the open window holds its metadata");
        assert_eq!(m.advance_op(L::Inc, bits([0])), Verdict::Exhausted);
        assert_eq!(m.meta.capacity(), 0);
        assert_eq!(m.spare.capacity(), 0);
        assert_eq!(m.configs.capacity(), 0);
        assert_eq!(m.index.capacity(), 0);
        let stats = m.stats().clone();
        assert_eq!(m.advance_op(L::Read(9), bits([0])), Verdict::Exhausted);
        assert_eq!(m.observe_frontier(r(0), 5), Verdict::Exhausted);
        assert_eq!(m.len(), 5);
        assert_eq!(m.settled(), 1);
        assert_eq!(m.stats().ops, stats.ops + 1);
        assert_eq!(m.stats().queries, stats.queries + 1);
        assert_eq!(m.stats().expansions, stats.expansions);
        assert!(m.meta.is_empty());
    }

    #[test]
    fn feed_clamps_an_over_claimed_frontier() {
        let run = |first_unseen| {
            let mut feed: MonitorFeed<L, Identity, CtrSpec> =
                MonitorFeed::new(Identity, CtrSpec, 1);
            feed.feed_op(&L::Inc, &BitSet::new());
            let verdict = feed.observe_frontier(r(0), first_unseen);
            (verdict, feed.monitor().settled())
        };
        assert_eq!(run(1), (Verdict::Ok, 1));
        assert_eq!(run(5), run(1), "seen more than was fed = seen all of it");
    }

    /// Appends a digit: a state is the digits pushed so far read as a
    /// number, so two pushes leave a different state in each order.
    /// Counts its steps.
    #[derive(Default)]
    struct DigitSpec {
        steps: Cell<u64>,
    }

    #[derive(Clone, Debug, PartialEq)]
    struct Push(u64);

    impl SpecLabel for Push {
        fn kind(&self) -> Kind {
            Kind::Update
        }
    }

    impl Spec for DigitSpec {
        type Label = Push;
        type State = u64;
        fn initial(&self) -> u64 {
            0
        }
        fn step(&self, s: &u64, l: &Push, out: &mut Vec<u64>) -> Step {
            self.steps.set(self.steps.get() + 1);
            Step::write(out, s * 10 + l.0)
        }
    }

    /// The states `order` leads to from the initial one, stepped from
    /// scratch.
    fn replay(order: &[&Push]) -> Vec<u64> {
        let spec = DigitSpec::default();
        let mut states = vec![spec.initial()];
        let mut next = Vec::new();
        for &l in order {
            assert!(advance_states(&spec, &states, l, &mut next));
            std::mem::swap(&mut states, &mut next);
        }
        states
    }

    /// Settlement's two ways into a base. `a` (id 0) and `b` (id 1) are
    /// concurrent. Once `a` alone settles, `[a, b]` replays `a` (its `b`
    /// is still live: the straggler path), `[a]` hands its frontier over,
    /// and `[b, a]` absorbs nothing, its settled `a` sitting behind a live
    /// `b`. Once `b` settles too, both orders hand their frontiers over.
    /// A debug build also replays every handover, to check it.
    #[test]
    fn settlement_replays_a_straggler_and_hands_a_settled_suffix_over() {
        let (a, b) = (Push(1), Push(2));
        let mut m = Monitor::new_streaming(DigitSpec::default(), 2);
        m.advance_op(a.clone(), BitSet::new());
        assert_eq!(m.advance_op(b.clone(), BitSet::new()), Verdict::Ok);
        // (rem, qbase, frontier) of every live configuration.
        let live = |m: &Monitor<DigitSpec>| {
            let mut v: Vec<_> = m
                .configs
                .iter()
                .map(|c| (c.rem.clone(), c.qbase.clone(), c.frontier.clone()))
                .collect();
            v.sort();
            v
        };
        let steps = |m: &Monitor<DigitSpec>| m.spec.steps.replace(0);
        let check = u64::from(cfg!(debug_assertions));
        steps(&m);

        m.observe_frontier(r(0), 1);
        assert_eq!(m.observe_frontier(r(1), 1), Verdict::Ok);
        assert_eq!(m.settled(), 1);
        assert_eq!(
            live(&m),
            [
                (vec![], replay(&[&a]), replay(&[&a])),
                (vec![1], replay(&[&a]), replay(&[&a, &b])),
                (vec![1, 0], replay(&[]), replay(&[&b, &a])),
            ]
        );
        assert_eq!(steps(&m), 1 + check, "one straggler replayed");

        m.observe_frontier(r(0), 2);
        assert_eq!(m.observe_frontier(r(1), 2), Verdict::Ok);
        assert_eq!(
            live(&m),
            [
                (vec![], replay(&[&a, &b]), replay(&[&a, &b])),
                (vec![], replay(&[&b, &a]), replay(&[&b, &a])),
            ]
        );
        assert_eq!(steps(&m), 3 * check, "both suffixes handed over");
    }

    /// The feed keeps where each operation went only for the window: the
    /// settled prefix is dropped, its length still counted. A replica
    /// lagging at or below the settled floor reports a frontier the
    /// monitor ignores; one past it moves the watermark as before.
    #[test]
    fn feed_holds_the_window_and_ignores_a_lagging_frontier() {
        let mut feed: MonitorFeed<L, Identity, CtrSpec> = MonitorFeed::new(Identity, CtrSpec, 3);
        let mut seen = BitSet::new();
        for i in 0..200 {
            feed.feed_op(&L::Inc, &seen);
            seen.insert(i);
            feed.observe_frontier(r(0), i + 1);
            feed.observe_frontier(r(1), i + 1);
            if i < 150 {
                feed.observe_frontier(r(2), i + 1);
            }
        }
        assert_eq!(feed.monitor().settled(), 150);
        feed.feed_op(&L::Read(200), &seen);
        assert_eq!((feed.len(), feed.orig_floor), (201, 150));
        // Dropped in batches: fewer than `MIN_PARTS_DROP` settled entries,
        // or fewer than the window holds, are still kept.
        let window = feed.len() - feed.orig_floor;
        assert!(feed.parts_base > 0);
        assert!(feed.parts.len() < MIN_PARTS_DROP + 2 * window);
        let observations = feed.stats().frontier_observations;
        for lagging in [0, 100, 150] {
            assert_eq!(feed.observe_frontier(r(2), lagging), Verdict::Ok);
            assert_eq!(feed.monitor().frontiers[2], 150);
        }
        assert_eq!(feed.stats().frontier_observations, observations + 3);
        assert_eq!(feed.monitor().settled(), 150);
        feed.observe_frontier(r(2), 180);
        assert_eq!(feed.monitor().settled(), 180);
        for replica in 0..3 {
            feed.observe_frontier(r(replica), 201);
        }
        assert_eq!(
            (feed.verdict(), feed.monitor().settled()),
            (Verdict::Ok, 201)
        );
    }
}
