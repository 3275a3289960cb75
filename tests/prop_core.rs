//! Property-based tests for the core data structures: the bit set against a
//! `BTreeSet` model, and history invariants on randomly generated DAGs.
//!
//! These run on the workspace's own seeded harness
//! ([`ral_core::rng::run_seeded_cases`]) instead of `proptest`: each case is
//! generated from a per-case seed, and a failure prints the seed to re-run
//! (`RAL_PROP_SEED=<seed> cargo test ...`).

use ral_core::bitset::BitSet;
use ral_core::history::{rewrite_history, History, OpRecord};
use ral_core::ids::ReplicaId;
use ral_core::label::{Identity, Kind, Rewrite, Rewritten, SpecLabel};
use ral_core::rng::{run_seeded_cases, Rng};
use ral_core::timestamp::Ts;
use ral_crdts::op::counter::OpCounter;
use ral_crdts::op::or_set::{OrSet, OrSetRewrite};
use ral_runtime::op_based::Cluster;
use ral_runtime::schedule::{drive_op_based, ScheduleConfig};
use ral_verify::workloads;
use std::collections::BTreeSet;

/// A random vector whose length is drawn from `0..max_len`.
fn random_vec<T>(rng: &mut Rng, max_len: usize, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
    let len = rng.random_range(0..max_len);
    (0..len).map(|_| item(rng)).collect()
}

/// Insert/remove/contains agree with the reference set.
#[test]
fn bitset_matches_btreeset_model() {
    run_seeded_cases("bitset_model", 256, |_, rng| {
        let ops = random_vec(rng, 200, |rng| {
            (rng.random_range(0..300usize), rng.random_bool(0.5))
        });
        let mut bits = BitSet::new();
        let mut model = BTreeSet::new();
        for (value, insert) in ops {
            if insert {
                assert_eq!(bits.insert(value), model.insert(value));
            } else {
                assert_eq!(bits.remove(value), model.remove(&value));
            }
            assert_eq!(bits.len(), model.len());
            assert_eq!(bits.contains(value), model.contains(&value));
        }
        let collected: Vec<usize> = bits.iter().collect();
        let expected: Vec<usize> = model.iter().copied().collect();
        assert_eq!(collected, expected);
    });
}

/// Union and subset agree with the reference set.
#[test]
fn bitset_union_subset() {
    run_seeded_cases("bitset_union_subset", 256, |_, rng| {
        let random_set = |rng: &mut Rng| -> BTreeSet<usize> {
            random_vec(rng, 50, |rng| rng.random_range(0..200usize))
                .into_iter()
                .collect()
        };
        let a = random_set(rng);
        let b = random_set(rng);
        let mut ba: BitSet = a.iter().copied().collect();
        let bb: BitSet = b.iter().copied().collect();
        assert_eq!(ba.is_subset(&bb), a.is_subset(&b));
        assert_eq!(ba.is_disjoint(&bb), a.is_disjoint(&b));
        ba.union_with(&bb);
        let union: BTreeSet<usize> = a.union(&b).copied().collect();
        assert_eq!(ba.iter().collect::<BTreeSet<_>>(), union);
    });
}

/// `first_missing` is the smallest element of `a \ b` at or above `from`,
/// for operands of unequal lengths (one of them often empty) and `from`
/// anywhere: inside either operand, on a 64-bit word boundary, past both.
#[test]
fn bitset_first_missing_matches_btreeset_model() {
    run_seeded_cases("bitset_first_missing", 512, |_, rng| {
        let random_set = |rng: &mut Rng| -> BTreeSet<usize> {
            let top = [0, 1, 64, 65, 130, 400][rng.random_range(0..6usize)];
            if top == 0 {
                return BTreeSet::new();
            }
            // Sparse or dense: holes in a dense set are what the rule hunts.
            let density = rng.random_range(1..=100u32) as f64 / 100.0;
            (0..top).filter(|_| rng.random_bool(density)).collect()
        };
        let a = random_set(rng);
        let b = random_set(rng);
        let (ba, bb): (BitSet, BitSet) = (a.iter().copied().collect(), b.iter().copied().collect());
        for _ in 0..16 {
            let from = match rng.random_range(0..3u32) {
                0 => (64 * rng.random_range(0..8usize) + rng.random_range(0..3usize))
                    .saturating_sub(1),
                1 => rng.random_range(0..450usize),
                _ => a
                    .iter()
                    .nth(rng.random_range(0..a.len().max(1)))
                    .copied()
                    .unwrap_or(0),
            };
            let expected = a.range(from..).copied().find(|x| !b.contains(x));
            assert_eq!(ba.first_missing(&bb, from), expected, "from {from}");
        }
    });
}

fn hash_of(s: &BitSet) -> u64 {
    use std::hash::{DefaultHasher, Hash, Hasher};
    let mut h = DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

/// A random set shaped like a seen-set: a prefix `0..n` (often several
/// full words, often not word-aligned) with a few holes, plus sparse or
/// dense elements above it. Returned with the set built that way —
/// `prefix`, `remove`, `insert` / `extend` — so its full-word prefix
/// count is random.
fn random_seen_set(rng: &mut Rng) -> (BTreeSet<usize>, BitSet) {
    let n = [0, 1, 63, 64, 65, 128, 200, 320][rng.random_range(0..8usize)];
    let mut model: BTreeSet<usize> = (0..n).collect();
    let mut bits = BitSet::prefix(n);
    for _ in 0..rng.random_range(0..4usize) {
        if n > 0 {
            let hole = rng.random_range(0..n);
            assert_eq!(bits.remove(hole), model.remove(&hole));
        }
    }
    let density = rng.random_range(0..=100u32) as f64 / 100.0;
    let above: Vec<usize> = (n..n + rng.random_range(0..200usize))
        .filter(|_| rng.random_bool(density))
        .collect();
    if rng.random_bool(0.5) {
        for &x in &above {
            assert_eq!(bits.insert(x), model.insert(x));
        }
    } else {
        bits.extend(above.iter().copied());
        model.extend(above);
    }
    (model, bits)
}

/// Every public `BitSet` method agrees with a `BTreeSet` reference on
/// operands whose full-word prefixes and holes are random and differ
/// between the two, and equality and hashing are canonical: a set equals
/// and hashes like the one collected from its elements in any order.
#[test]
fn bitset_prefix_and_tail_match_btreeset_model() {
    run_seeded_cases("bitset_prefix_tail", 512, |_, rng| {
        let (a, ba) = random_seen_set(rng);
        let (b, bb) = if rng.random_bool(0.3) {
            // A subset of `a`: carve elements out of a copy.
            let mut model = a.clone();
            let mut bits = ba.clone();
            for x in a.iter().copied().filter(|_| rng.random_bool(0.1)) {
                assert!(bits.remove(x) && model.remove(&x));
            }
            (model, bits)
        } else {
            random_seen_set(rng)
        };
        for (model, bits) in [(&a, &ba), (&b, &bb)] {
            let collected: BitSet = model.iter().rev().copied().collect();
            assert_eq!(bits, &collected);
            assert_eq!(hash_of(bits), hash_of(&collected));
            assert_eq!(format!("{bits:?}"), format!("{model:?}"));
            assert_eq!(bits.len(), model.len());
            assert_eq!(bits.is_empty(), model.is_empty());
            assert_eq!(bits.max(), model.last().copied());
            let gap = (0..).find(|x| !model.contains(x));
            assert_eq!(Some(bits.prefix_len()), gap);
            assert!(bits.iter().eq(model.iter().copied()));
            assert!(bits.into_iter().eq(model.iter().copied()));
            let top = model.last().map_or(0, |m| m + 70);
            for _ in 0..32 {
                let x = rng.random_range(0..=top);
                assert_eq!(bits.contains(x), model.contains(&x), "contains {x}");
            }
        }
        assert_eq!(ba == bb, a == b);
        assert_eq!(ba.is_subset(&bb), a.is_subset(&b));
        assert_eq!(bb.is_subset(&ba), b.is_subset(&a));
        assert_eq!(ba.is_disjoint(&bb), a.is_disjoint(&b));
        assert_eq!(bb.is_disjoint(&ba), b.is_disjoint(&a));
        let top = a.last().max(b.last()).map_or(0, |m| m + 70);
        for _ in 0..16 {
            let from = rng.random_range(0..=top);
            let expected = a.range(from..).copied().find(|x| !b.contains(x));
            assert_eq!(ba.first_missing(&bb, from), expected, "from {from}");
        }

        let union: BTreeSet<usize> = a.union(&b).copied().collect();
        let expected: BitSet = union.iter().copied().collect();
        for (mut joined, other) in [(ba.clone(), &bb), (bb.clone(), &ba)] {
            joined.union_with(other);
            assert_eq!(joined, expected);
            assert_eq!(hash_of(&joined), hash_of(&expected));
            assert!(joined.iter().eq(union.iter().copied()));
        }

        // Mutations on either side of the prefix keep the form canonical.
        let (mut model, mut bits) = (a.clone(), ba.clone());
        for _ in 0..16 {
            let x = rng.random_range(0..=top);
            if rng.random_bool(0.5) {
                assert_eq!(bits.insert(x), model.insert(x), "insert {x}");
            } else {
                assert_eq!(bits.remove(x), model.remove(&x), "remove {x}");
            }
            let collected: BitSet = model.iter().copied().collect();
            assert_eq!(bits, collected);
            assert_eq!(hash_of(&bits), hash_of(&collected));
            assert_eq!(bits.max(), model.last().copied());
            assert_eq!(Some(bits.prefix_len()), (0..).find(|x| !model.contains(x)));
        }

        let n = rng.random_range(0..300usize);
        let prefix: BitSet = (0..n).collect();
        assert_eq!(BitSet::prefix(n), prefix);
        assert_eq!(BitSet::prefix(n).prefix_len(), n);
        assert_eq!(BitSet::with_capacity(n), BitSet::new());
        assert_eq!(BitSet::default(), BitSet::new());
        assert_eq!(hash_of(&BitSet::with_capacity(n)), hash_of(&BitSet::new()));
    });
}

/// Timestamps are totally ordered and `max_ts` is commutative,
/// associative, and idempotent with `None` as identity.
#[test]
fn timestamp_lattice() {
    use ral_core::timestamp::max_ts;
    run_seeded_cases("timestamp_lattice", 256, |_, rng| {
        let tss: Vec<Option<Ts>> = random_vec(rng, 20, |rng| {
            (rng.random_range(0..50u64), rng.random_range(0..4u32))
        })
        .into_iter()
        .map(|(c, r)| Some(Ts::new(c, ReplicaId(r))))
        .collect();
        for &a in &tss {
            assert_eq!(max_ts(a, None), a);
            assert_eq!(max_ts(a, a), a);
            for &b in &tss {
                assert_eq!(max_ts(a, b), max_ts(b, a));
                for &c in &tss {
                    assert_eq!(max_ts(max_ts(a, b), c), max_ts(a, max_ts(b, c)));
                }
            }
        }
    });
}

/// Builds a random history DAG: each op sees a random subset of its
/// predecessors, closed transitively (mimicking causal delivery).
fn random_history(edges: &[(usize, bool)]) -> History<usize> {
    let mut h: History<usize> = History::new();
    for (i, &(window, dense)) in edges.iter().enumerate() {
        let mut preds: Vec<usize> = Vec::new();
        if i > 0 {
            let from = i.saturating_sub(window % (i + 1));
            for p in from..i {
                if dense || p % 2 == 0 {
                    preds.push(p);
                }
            }
        }
        // Transitive closure (single-object discipline).
        let mut closed: BTreeSet<usize> = preds.iter().copied().collect();
        for &p in &preds {
            closed.extend(h.preds(p).iter());
        }
        h.push(OpRecord::new(i, ReplicaId(0)), closed);
    }
    h
}

/// Draws the DAG shape the two invariant tests share: 1..max ops, each
/// with a visibility window and a density flag.
fn random_edges(rng: &mut Rng, max: usize) -> Vec<(usize, bool)> {
    let len = rng.random_range(1..max);
    (0..len)
        .map(|_| (rng.random_range(0..6usize), rng.random_bool(0.5)))
        .collect()
}

/// Insertion order is always a valid linear extension, and transitively
/// closed construction yields a transitive history.
#[test]
fn history_invariants() {
    run_seeded_cases("history_invariants", 256, |_, rng| {
        let h = random_history(&random_edges(rng, 30));
        let order: Vec<usize> = (0..h.len()).collect();
        assert!(h.order_consistent(&order));
        assert!(h.is_transitive());
        // Concurrency is symmetric and irreflexive.
        for a in 0..h.len() {
            assert!(!h.concurrent(a, a));
            for b in 0..h.len() {
                assert_eq!(h.concurrent(a, b), h.concurrent(b, a));
            }
        }
    });
}

/// Virtual timestamps are monotone along visibility.
#[test]
fn virtual_ts_monotone() {
    run_seeded_cases("virtual_ts_monotone", 256, |_, rng| {
        let mut h = random_history(&random_edges(rng, 25));
        // Give every third op a real timestamp, increasing with the index
        // (as a Lamport discipline would).
        let mut stamped: History<usize> = History::new();
        for (i, op) in h.iter() {
            let record = if i % 3 == 0 {
                OpRecord::with_ts(*h.label(i), op.replica, Ts::new(i as u64 + 1, ReplicaId(0)))
            } else {
                OpRecord::new(*h.label(i), op.replica)
            };
            stamped.push_set(record, h.preds(i).clone());
        }
        h = stamped;
        for b in 0..h.len() {
            for a in h.preds(b).iter() {
                assert!(
                    h.virtual_ts(a) <= h.virtual_ts(b),
                    "ts_h must grow along visibility"
                );
            }
        }
    });
}

/// Definition 3.7 one predecessor bit at a time, through [`History::push`]:
/// the reference [`rewrite_history`] must stay `==` to (block vectors of
/// the predecessor sets included) while it copies predecessor words for
/// the prefix in which nothing has split yet.
fn rewrite_bit_by_bit<In, R: Rewrite<In>>(h: &History<In>, rw: &R) -> History<R::Out> {
    let mut out = History::new();
    let mut update_of: Vec<usize> = Vec::new();
    for (i, op) in h.iter() {
        let preds: Vec<usize> = h.preds(i).iter().map(|p| update_of[p]).collect();
        let (replica, ts) = (op.replica, op.ts);
        match rw.rewrite(&op.label) {
            Rewritten::One(label) => {
                update_of.push(out.push(OpRecord { label, replica, ts }, preds));
            }
            Rewritten::Split { query, update } => {
                let query = OpRecord::new(query, replica);
                let q = out.push(query, preds);
                let update = OpRecord {
                    label: update,
                    replica,
                    ts,
                };
                update_of.push(out.push(update, [q]));
            }
        }
    }
    out
}

/// Where an operation of [`SplitFrom`]'s image came from.
#[derive(Clone, Debug, PartialEq)]
enum Part {
    Whole(usize),
    Query(usize),
    Update(usize),
}

impl SpecLabel for Part {
    fn kind(&self) -> Kind {
        match self {
            Part::Query(_) => Kind::Query,
            _ => Kind::Update,
        }
    }
}

/// Splits every third label from `self.0` on, so the first split can sit
/// anywhere in a history — or nowhere.
struct SplitFrom(usize);

impl Rewrite<usize> for SplitFrom {
    type Out = Part;

    fn rewrite(&self, &label: &usize) -> Rewritten<Part> {
        if label >= self.0 && label % 3 == 0 {
            Rewritten::Split {
                query: Part::Query(label),
                update: Part::Update(label),
            }
        } else {
            Rewritten::One(Part::Whole(label))
        }
    }
}

/// Random DAGs whose first split sits at the start, mid-way or nowhere,
/// with predecessor sets that carry trailing all-zero blocks.
#[test]
fn rewrite_history_equals_the_bit_by_bit_construction() {
    run_seeded_cases("rewrite_history_bit_by_bit", 256, |_, rng| {
        let plain = random_history(&random_edges(rng, 30));
        let mut h: History<usize> = History::new();
        for (i, op) in plain.iter() {
            let mut preds = plain.preds(i).clone();
            if rng.random_bool(0.5) {
                preds.insert(500);
                preds.remove(500);
            }
            h.push_set(op.clone(), preds);
        }
        let rw = SplitFrom(rng.random_range(0..=h.len()));
        assert_eq!(
            rewrite_history(&h, &rw).history,
            rewrite_bit_by_bit(&h, &rw)
        );
    });
}

/// The same on recorded executions: OR-Set histories under the rewriting
/// that splits their removes, counter histories under [`Identity`].
#[test]
fn rewrite_history_equals_the_bit_by_bit_construction_on_cluster_histories() {
    run_seeded_cases("rewrite_history_cluster", 32, |seed, _| {
        let cfg = ScheduleConfig::default();
        let mut sets = Cluster::new(OrSet::<u8>::new(), 3);
        drive_op_based(&mut sets, &cfg, seed, |rng, _, _| {
            Some(workloads::or_set(rng))
        });
        let (h, rw) = (sets.into_history(), OrSetRewrite::new());
        assert_eq!(
            rewrite_history(&h, &rw).history,
            rewrite_bit_by_bit(&h, &rw)
        );
        let mut counters = Cluster::new(OpCounter, 3);
        drive_op_based(&mut counters, &cfg, seed, |rng, _, _| {
            Some(workloads::counter(rng))
        });
        let h = counters.into_history();
        assert_eq!(
            rewrite_history(&h, &Identity).history,
            rewrite_bit_by_bit(&h, &Identity)
        );
    });
}
