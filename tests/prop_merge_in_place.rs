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
//! Runs on the workspace's seeded harness
//! ([`ral_core::rng::run_seeded_cases`]); a failing case prints its seed.

use ral_core::ids::ReplicaId;
use ral_core::rng::{run_seeded_cases, Rng};
use ral_crdts::state::lww_element_set::{LwwElementSet, LwwSetState};
use ral_crdts::state::mv_register::{MvRegister, MvState};
use ral_crdts::state::pn_counter::{PnCounter, PnDelta, PnState};
use ral_crdts::state::two_phase_set::{TwoPState, TwoPhaseSet};
use ral_runtime::delta::DeltaCrdt;
use ral_runtime::state_based::StateCluster;
use ral_spec::register::vv_lt;
use ral_verify::workloads;
use std::collections::{BTreeMap, BTreeSet};

const CASES: u64 = 48;

/// States and mutation deltas reached by one random execution.
struct Pool<C: DeltaCrdt> {
    states: Vec<C::State>,
    deltas: Vec<C::Delta>,
}

/// Drives a three-replica [`StateCluster`] through random invocations,
/// snapshots and (re)deliveries, collecting every state a replica passed
/// through and every mutation's delta. After each step, every snapshot ever
/// taken must still hold the state it was taken at: the sender mutates in
/// place, and copy-on-write is what keeps that away from the snapshot.
fn explore<C, G>(crdt: &C, rng: &mut Rng, mut call: G) -> Pool<C>
where
    C: DeltaCrdt + Clone,
    G: FnMut(&mut Rng, &C::State) -> Option<C::Call>,
{
    let mut cluster = StateCluster::new(crdt.clone(), 3);
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
                cluster.send(r);
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
                cluster.message_state(m),
                taken_at,
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

fn lww_union(a: &LwwSetState<u8>, b: &LwwSetState<u8>) -> LwwSetState<u8> {
    LwwSetState {
        added: union(&a.added, &b.added),
        removed: union(&a.removed, &b.removed),
    }
}

fn two_p_union(a: &TwoPState<u16>, b: &TwoPState<u16>) -> TwoPState<u16> {
    TwoPState {
        added: union(&a.added, &b.added),
        removed: union(&a.removed, &b.removed),
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
