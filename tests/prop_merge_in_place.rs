//! In-place ≡ reference: `merge_into`, `join_into` and `join_deltas_into` of
//! the four state-based CRDTs against an independent by-value reference
//! written here (set union, pointwise maximum, dominated-pair filter), on
//! states and deltas reached by random executions.
//!
//! The in-place forms are the ones every receive runs, and they are written
//! to touch only what the incoming side adds — which is exactly where an
//! aliasing or "already there" shortcut could go wrong. Each case therefore
//! covers every way two states can relate (equal, `a ⊑ b`, `b ⊑ a`,
//! overlapping, disjoint — tallied, and all required to occur), checks the
//! changed-flags `merge_into` and `join_into` return against `result != a`
//! (a receive re-reads the clock floor only when the flag is set), and
//! holds every outstanding snapshot — which *aliases* the sender's state
//! until the sender next writes — to the value it was taken at.
//!
//! The pair and element sets of the two set-union lattices are
//! [`SortedSet`]s; the last test holds every public method of that type to
//! a `BTreeSet` model, its join included.
//!
//! Runs on the workspace's seeded harness
//! ([`ral_core::rng::run_seeded_cases`]); a failing case prints its seed.

use ral_core::ids::ReplicaId;
use ral_core::rng::{run_seeded_cases, Rng};
use ral_crdts::state::lww_element_set::{LwwElementSet, LwwSetState};
use ral_crdts::state::mv_register::{MvRegister, MvState};
use ral_crdts::state::pn_counter::{PnCounter, PnDelta, PnState};
use ral_crdts::state::two_phase_set::{TwoPState, TwoPhaseSet};
use ral_crdts::state::SortedSet;
use ral_runtime::delta::{DeltaCluster, DeltaConfig, DeltaCrdt};
use ral_spec::register::vv_lt;
use ral_verify::workloads;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

const CASES: u64 = 48;

/// States and mutation deltas reached by one random execution.
struct Pool<C: DeltaCrdt> {
    states: Vec<C::State>,
    deltas: Vec<C::Delta>,
}

/// Drives a three-replica full-state [`DeltaCluster`] through random invocations,
/// snapshots and (re)deliveries, collecting every state a replica passed
/// through and every mutation's delta. After each step, every snapshot ever
/// taken must still hold the state it was taken at: the sender mutates in
/// place, and copy-on-write is what keeps that away from the snapshot.
fn explore<C, G>(crdt: &C, rng: &mut Rng, mut call: G) -> Pool<C>
where
    C: DeltaCrdt + Clone,
    G: FnMut(&mut Rng, &C::State) -> Option<C::Call>,
{
    let mut cluster = DeltaCluster::new(crdt.clone(), DeltaConfig::default(), 3);
    let mut pool = Pool {
        states: vec![crdt.initial(3)],
        deltas: Vec::new(),
    };
    let mut snapshots: Vec<C::State> = Vec::new(); // by message id
    for _ in 0..rng.random_range(10..40usize) {
        let r = ReplicaId(rng.random_range(0..3u32));
        match rng.random_range(0..5u8) {
            0..=2 => {
                let pre = cluster.state(r).clone();
                let invoked = call(rng, &pre).and_then(|c| cluster.invoke(r, c));
                if invoked.is_some() && *cluster.state(r) != pre {
                    pool.deltas.push(crdt.diff(&pre, cluster.state(r)));
                    pool.states.push(cluster.state(r).clone());
                }
            }
            3 => {
                cluster.resync(r);
                snapshots.push(cluster.state(r).clone());
            }
            _ if !snapshots.is_empty() => {
                cluster.apply(r, rng.random_range(0..snapshots.len()));
                pool.states.push(cluster.state(r).clone());
            }
            _ => {}
        }
        for (m, taken_at) in snapshots.iter().enumerate() {
            assert_eq!(
                cluster.message(m).state(),
                Some(taken_at),
                "a write reached snapshot {m} through the state it shares"
            );
        }
    }
    pool
}

/// How often each relation between the two merged states occurred.
#[derive(Debug, Default)]
struct Relations {
    equal: u32,
    below: u32,
    above: u32,
    overlapping: u32,
    disjoint: u32,
}

impl Relations {
    fn all_occurred(&self) -> bool {
        [
            self.equal,
            self.below,
            self.above,
            self.overlapping,
            self.disjoint,
        ]
        .iter()
        .all(|&n| n > 0)
    }
}

/// The by-value reference a CRDT's in-place joins are held to.
struct Reference<C: DeltaCrdt> {
    merge: fn(&C::State, &C::State) -> C::State,
    join: fn(&C::State, &C::Delta) -> C::State,
    join_deltas: fn(&C::Delta, &C::Delta) -> C::Delta,
    /// How much a state holds (pairs, elements, non-zero slots): two
    /// incomparable states are disjoint iff their join holds the sum.
    weight: fn(&C::State) -> usize,
}

fn check_against<C: DeltaCrdt>(
    crdt: &C,
    pool: &Pool<C>,
    reference: &Reference<C>,
    seen: &mut Relations,
) {
    // Joins of neighbours make comparable pairs (`a ⊑ a ⊔ b`) plentiful.
    let mut states = pool.states.clone();
    for pair in pool.states.windows(2) {
        states.push((reference.merge)(&pair[0], &pair[1]));
    }
    for a in &states {
        for b in &states {
            let expected = (reference.merge)(a, b);
            match (crdt.leq(a, b), crdt.leq(b, a)) {
                (true, true) => seen.equal += 1,
                (true, false) => seen.below += 1,
                (false, true) => seen.above += 1,
                (false, false) => {
                    let sum = (reference.weight)(a) + (reference.weight)(b);
                    if (reference.weight)(&expected) == sum {
                        seen.disjoint += 1;
                    } else {
                        seen.overlapping += 1;
                    }
                }
            }
            let mut merged = a.clone();
            let changed = crdt.merge_into(&mut merged, b);
            assert_eq!(merged, expected, "merge_into({a:?}, {b:?})");
            assert_eq!(changed, expected != *a, "changed-flag on {a:?} / {b:?}");
        }
        for d in &pool.deltas {
            let expected = (reference.join)(a, d);
            let mut joined = a.clone();
            let changed = crdt.join_into(&mut joined, d);
            assert_eq!(joined, expected, "join_into({a:?}, {d:?})");
            assert_eq!(changed, expected != *a, "changed-flag on {a:?} / {d:?}");
        }
    }
    for d in &pool.deltas {
        for e in &pool.deltas {
            let mut batch = d.clone();
            crdt.join_deltas_into(&mut batch, e);
            assert_eq!(batch, (reference.join_deltas)(d, e), "{d:?} / {e:?}");
        }
    }
}

/// Runs [`CASES`] seeded executions of `crdt` and holds each to `reference`.
fn in_place_equals_reference<C, G>(
    label: &str,
    crdt: C,
    reference: Reference<C>,
    mut call_gen: impl FnMut() -> G,
) where
    C: DeltaCrdt + Clone,
    G: FnMut(&mut Rng, &C::State) -> Option<C::Call>,
{
    let (mut seen, mut ran) = (Relations::default(), 0);
    run_seeded_cases(label, CASES, |_, rng| {
        let pool = explore(&crdt, rng, call_gen());
        check_against(&crdt, &pool, &reference, &mut seen);
        ran += 1;
    });
    // (A `RAL_PROP_SEED` / `RAL_PROP_CASES` replay runs fewer cases and need
    // not reach every relation.)
    assert!(
        ran < CASES || seen.all_occurred(),
        "a relation never occurred: {seen:?}"
    );
}

// ---------------------------------------------------------------------------
// References: what the listings say, by value.
// ---------------------------------------------------------------------------

fn union<T: Ord + Clone>(a: &BTreeSet<T>, b: &BTreeSet<T>) -> BTreeSet<T> {
    a.union(b).cloned().collect()
}

/// [`union`] of two sorted sets, computed on their `BTreeSet` copies.
fn sorted_union<T: Ord + Clone>(a: &SortedSet<T>, b: &SortedSet<T>) -> SortedSet<T> {
    let model = |s: &SortedSet<T>| s.iter().cloned().collect::<BTreeSet<T>>();
    union(&model(a), &model(b)).into_iter().collect()
}

fn lww_union(a: &LwwSetState<u8>, b: &LwwSetState<u8>) -> LwwSetState<u8> {
    LwwSetState {
        added: sorted_union(&a.added, &b.added),
        removed: sorted_union(&a.removed, &b.removed),
    }
}

fn two_p_union(a: &TwoPState<u16>, b: &TwoPState<u16>) -> TwoPState<u16> {
    TwoPState {
        added: sorted_union(&a.added, &b.added),
        removed: sorted_union(&a.removed, &b.removed),
    }
}

/// Listing 7: the pairs of either side no pair of the other strictly
/// dominates.
fn mv_undominated(a: &MvState<u8>, b: &MvState<u8>) -> MvState<u8> {
    let keep = |from: &MvState<u8>, other: &MvState<u8>| {
        from.pairs
            .iter()
            .filter(|(_, v)| !other.pairs.iter().any(|(_, w)| vv_lt(v, w)))
            .cloned()
            .collect::<BTreeSet<_>>()
    };
    MvState {
        width: a.width.max(b.width),
        pairs: union(&keep(a, b), &keep(b, a)),
    }
}

fn pointwise_max(a: &PnState, b: &PnState) -> PnState {
    let max = |x: &[u64], y: &[u64]| x.iter().zip(y).map(|(x, y)| *x.max(y)).collect();
    PnState {
        p: max(&a.p, &b.p),
        n: max(&a.n, &b.n),
    }
}

fn pn_raise(state: &PnState, delta: &PnDelta) -> PnState {
    let raise = |dense: &[u64], sparse: &[(u32, u64)]| {
        let at = |i: usize| {
            sparse
                .iter()
                .filter(move |e| e.0 as usize == i)
                .map(|e| e.1)
        };
        dense
            .iter()
            .enumerate()
            .map(|(i, &v)| at(i).fold(v, u64::max))
            .collect()
    };
    PnState {
        p: raise(&state.p, &delta.p),
        n: raise(&state.n, &delta.n),
    }
}

fn pn_batch(a: &PnDelta, b: &PnDelta) -> PnDelta {
    let max = |x: &[(u32, u64)], y: &[(u32, u64)]| {
        let mut slots = BTreeMap::new();
        for &(slot, v) in x.iter().chain(y) {
            let s = slots.entry(slot).or_insert(0);
            *s = v.max(*s);
        }
        slots.into_iter().collect()
    };
    PnDelta {
        p: max(&a.p, &b.p),
        n: max(&a.n, &b.n),
    }
}

// ---------------------------------------------------------------------------
// The four types.
// ---------------------------------------------------------------------------

#[test]
fn lww_element_set_in_place_is_set_union() {
    in_place_equals_reference(
        "lww_element_set_in_place",
        LwwElementSet::<u8>::new(),
        Reference {
            merge: lww_union,
            join: lww_union,
            join_deltas: lww_union,
            weight: |s| s.added.len() + s.removed.len(),
        },
        || |rng: &mut Rng, _: &LwwSetState<u8>| Some(workloads::lww_element_set(rng)),
    );
}

#[test]
fn two_phase_set_in_place_is_set_union() {
    in_place_equals_reference(
        "two_phase_set_in_place",
        TwoPhaseSet::<u16>::new(),
        Reference {
            merge: two_p_union,
            join: two_p_union,
            join_deltas: two_p_union,
            weight: |s| s.added.len() + s.removed.len(),
        },
        || {
            let mut next = 0u16;
            move |rng: &mut Rng, st: &TwoPState<u16>| workloads::two_phase_set(rng, st, &mut next)
        },
    );
}

#[test]
fn mv_register_in_place_is_the_dominated_pair_filter() {
    in_place_equals_reference(
        "mv_register_in_place",
        MvRegister::<u8>::new(),
        Reference {
            merge: mv_undominated,
            join: mv_undominated,
            join_deltas: mv_undominated,
            weight: |s| s.pairs.len(),
        },
        || |rng: &mut Rng, _: &MvState<u8>| Some(workloads::mv_register(rng)),
    );
}

#[test]
fn pn_counter_in_place_is_pointwise_max() {
    in_place_equals_reference(
        "pn_counter_in_place",
        PnCounter,
        Reference {
            merge: pointwise_max,
            join: pn_raise,
            join_deltas: pn_batch,
            weight: |s| s.p.iter().chain(&s.n).filter(|&&v| v > 0).count(),
        },
        || |rng: &mut Rng, _: &PnState| Some(workloads::pn_counter(rng)),
    );
}

// ---------------------------------------------------------------------------
// The sorted set against its `BTreeSet` model.
// ---------------------------------------------------------------------------

thread_local! {
    static CLONES: Cell<u64> = const { Cell::new(0) };
}

/// A set element that counts how often it is cloned (per test thread).
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Counted(u16);

impl Clone for Counted {
    fn clone(&self) -> Self {
        CLONES.with(|c| c.set(c.get() + 1));
        Counted(self.0)
    }
}

/// Element clones made while `f` runs.
fn clones_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CLONES.with(Cell::get);
    let out = f();
    (CLONES.with(Cell::get) - before, out)
}

/// A model set of about `len` draws below `domain`.
fn draw(rng: &mut Rng, len: usize, domain: u16) -> BTreeSet<u16> {
    (0..len).map(|_| rng.random_range(0..domain)).collect()
}

fn sorted(model: &BTreeSet<u16>) -> SortedSet<Counted> {
    model.iter().map(|&x| Counted(x)).collect()
}

fn model(set: &SortedSet<Counted>) -> BTreeSet<u16> {
    set.iter().map(|x| x.0).collect()
}

/// Every public method of `set` against `want`, the model it stands for.
fn check_reads(set: &SortedSet<Counted>, want: &BTreeSet<u16>, domain: u16) {
    let elems: Vec<u16> = want.iter().copied().collect();
    assert_eq!(set.len(), want.len());
    assert_eq!(set.is_empty(), want.is_empty());
    assert!(set.iter().map(|x| x.0).eq(elems.iter().copied()));
    assert!(set.into_iter().map(|x| x.0).eq(elems.iter().copied()));
    let btree: BTreeSet<Counted> = want.iter().map(|&x| Counted(x)).collect();
    assert_eq!(format!("{set:?}"), format!("{btree:?}"));
    assert_eq!(format!("{set:#?}"), format!("{btree:#?}"));
    for x in 0..=domain {
        assert_eq!(set.contains(&Counted(x)), want.contains(&x), "contains {x}");
    }
}

#[test]
fn sorted_set_matches_its_btreeset_model() {
    // The join finds what `b` adds by a binary search per element when
    // `|b| · log₂|a| < |a|` and by a lockstep walk otherwise; it merges the
    // additions by rotations when `k² ≤ |a|` for `k` of them and by a sort
    // otherwise. Both choices must be taken, on both sides, many times.
    const SET_CASES: u64 = 512;
    let (mut search, mut walk, mut rotate, mut sort, mut ran) = (0, 0, 0, 0, 0);
    run_seeded_cases("sorted_set_model", SET_CASES, |_, rng| {
        ran += 1;
        let domain = rng.random_range(1..600u16);
        let n = rng.random_range(0..300usize);
        let ma = draw(rng, n, domain);
        let mb = match rng.random_range(0..4u8) {
            // Small against `a`, or as large.
            0 => {
                let m = rng.random_range(0..6);
                draw(rng, m, domain)
            }
            1 => {
                let m = rng.random_range(0..300);
                draw(rng, m, domain)
            }
            // Below `a`, or `a` plus a few.
            2 => ma
                .iter()
                .copied()
                .filter(|_| rng.random_bool(0.7))
                .collect(),
            _ => {
                let m = rng.random_range(0..8);
                let extra = draw(rng, m, domain);
                ma.union(&extra).copied().collect()
            }
        };
        let (a, b) = (sorted(&ma), sorted(&mb));
        check_reads(&a, &ma, domain);
        check_reads(&b, &mb, domain);
        assert_eq!(SortedSet::<Counted>::new(), SortedSet::default());
        assert!(SortedSet::<Counted>::new().is_empty());

        // Reads across two sets.
        assert_eq!(a.is_subset(&b), ma.is_subset(&mb), "{ma:?} ⊆ {mb:?}");
        assert_eq!(b.is_subset(&a), mb.is_subset(&ma), "{mb:?} ⊆ {ma:?}");
        assert!(a
            .difference(&b)
            .map(|x| x.0)
            .eq(ma.difference(&mb).copied()));
        assert!(b
            .difference(&a)
            .map(|x| x.0)
            .eq(mb.difference(&ma).copied()));
        assert_eq!(a == b, ma == mb);

        // Collecting sorts and drops duplicates, whatever the input order.
        let mut shuffled: Vec<u16> = ma.iter().chain(&mb).copied().collect();
        rng.shuffle(&mut shuffled);
        let collected: SortedSet<Counted> = shuffled.iter().map(|&x| Counted(x)).collect();
        assert_eq!(model(&collected), ma.union(&mb).copied().collect());

        // The join: the model's union, its changed-flag, and one clone per
        // element `b` adds.
        let adds = mb.difference(&ma).count();
        let log_a = (usize::BITS - ma.len().leading_zeros()) as usize;
        if mb.len() * log_a < ma.len() {
            search += 1;
        } else {
            walk += 1;
        }
        if adds > 0 && adds * adds <= ma.len() {
            rotate += 1;
        } else if adds > 0 {
            sort += 1;
        }
        let mut joined = a.clone();
        let (clones, grew) = clones_during(|| joined.union_with(&b));
        let want: BTreeSet<u16> = ma.union(&mb).copied().collect();
        check_reads(&joined, &want, domain);
        assert_eq!(joined, sorted(&want));
        assert_eq!(grew, adds > 0, "changed-flag of {ma:?} ∪= {mb:?}");
        assert_eq!(clones, adds as u64, "clones of {ma:?} ∪= {mb:?}");

        // Insert, one element at a time.
        let mut inserted = a.clone();
        let mut grown = ma.clone();
        for _ in 0..4 {
            let x = rng.random_range(0..domain);
            assert_eq!(inserted.insert(Counted(x)), grown.insert(x), "insert {x}");
            check_reads(&inserted, &grown, domain);
        }
    });
    for (count, what) in [
        (search, "search"),
        (walk, "walk"),
        (rotate, "rotate"),
        (sort, "sort"),
    ] {
        // (A `RAL_PROP_SEED` / `RAL_PROP_CASES` replay runs fewer cases.)
        assert!(
            ran < SET_CASES || count >= 32,
            "the {what} path ran {count} times"
        );
    }
}
