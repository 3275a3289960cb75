//! Object composition `⊗` at the specification level (Section 5).
//!
//! The composition of specifications `Spec₁ ⊗ Spec₂` is the set of
//! interleavings whose per-object projections are admitted by the component
//! specifications. Two forms are provided:
//!
//! * [`MultiObjSpec`] — `n` objects of the *same* data type, labelled by
//!   [`ObjLabel`]; this is what Figures 9 (two OR-Sets) and 10 (two RGAs)
//!   need;
//! * [`PairSpec`] — two objects of *different* data types, labelled by
//!   [`EitherLabel`].
//!
//! Whether the shared timestamp generator of `⊗ts` (Section 5.3) is used is a
//! property of the *runtime* (the cluster either shares one Lamport clock per
//! replica across objects or keeps one per object); the specification-side
//! composition is the same in both cases.

use crate::history::History;
use crate::ids::ObjId;
use crate::label::{Kind, Rewrite, Rewritten, SpecLabel};
use crate::ralin::{Linearization, Strategy, Violation};
use crate::spec::{Spec, Step};
use crate::timestamp::Ts;
use std::fmt::Debug;

/// A label of a composed history: an inner label tagged with the object it
/// belongs to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjLabel<L> {
    /// The object the operation was issued on.
    pub obj: ObjId,
    /// The object-local label.
    pub label: L,
}

impl<L> ObjLabel<L> {
    /// Creates a label for object `obj`.
    pub fn new(obj: ObjId, label: L) -> Self {
        ObjLabel { obj, label }
    }
}

impl<L: SpecLabel> SpecLabel for ObjLabel<L> {
    fn kind(&self) -> Kind {
        self.label.kind()
    }
}

/// The composition `Spec ⊗ … ⊗ Spec` of `n` objects of one data type.
///
/// The abstract state is the vector of per-object abstract states; a step on
/// object `o` touches only component `o`.
#[derive(Clone, Debug)]
pub struct MultiObjSpec<S> {
    spec: S,
    objects: usize,
}

impl<S: Spec> MultiObjSpec<S> {
    /// Composes `objects` instances of `spec`.
    pub fn new(spec: S, objects: usize) -> Self {
        MultiObjSpec { spec, objects }
    }

    /// Number of composed objects.
    pub fn objects(&self) -> usize {
        self.objects
    }

    /// The underlying per-object specification.
    pub fn inner(&self) -> &S {
        &self.spec
    }
}

impl<S: Spec> Spec for MultiObjSpec<S> {
    type Label = ObjLabel<S::Label>;
    type State = Vec<S::State>;

    fn initial(&self) -> Self::State {
        (0..self.objects).map(|_| self.spec.initial()).collect()
    }

    fn step(&self, state: &Self::State, label: &Self::Label, out: &mut Vec<Self::State>) -> Step {
        let o = label.obj.0 as usize;
        let Some(component) = state.get(o) else {
            return Step::Refused;
        };
        // A query answers without writing, so the component buffer stays
        // unallocated unless an update produces successors.
        let mut succs = Vec::new();
        let answer = self.spec.step(component, &label.label, &mut succs);
        out.extend(succs.into_iter().map(|succ| {
            let mut next = Vec::with_capacity(state.len());
            next.extend_from_slice(&state[..o]);
            next.push(succ);
            next.extend_from_slice(&state[o + 1..]);
            next
        }));
        answer
    }

    fn state_fingerprint(&self, state: &Self::State) -> u64 {
        // Positional fold over the per-object fingerprints, so composed
        // searches inherit the components' fast paths.
        state.iter().fold(0xcbf2_9ce4_8422_2325, |acc, s| {
            acc.rotate_left(7) ^ self.spec.state_fingerprint(s).wrapping_mul(0x100_0000_01B3)
        })
    }
}

/// Lifts a per-object query-update rewriting to composed labels.
#[derive(Clone, Debug, Default)]
pub struct MultiObjRewrite<R> {
    inner: R,
}

impl<R> MultiObjRewrite<R> {
    /// Wraps the per-object rewriting `inner`.
    pub fn new(inner: R) -> Self {
        MultiObjRewrite { inner }
    }
}

impl<L, R: Rewrite<L>> Rewrite<ObjLabel<L>> for MultiObjRewrite<R> {
    type Out = ObjLabel<R::Out>;

    fn rewrite(&self, label: &ObjLabel<L>) -> Rewritten<Self::Out> {
        match self.inner.rewrite(&label.label) {
            Rewritten::One(l) => Rewritten::One(ObjLabel::new(label.obj, l)),
            Rewritten::Split { query, update } => Rewritten::Split {
                query: ObjLabel::new(label.obj, query),
                update: ObjLabel::new(label.obj, update),
            },
        }
    }
}

/// A label of a two-data-type composition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EitherLabel<A, B> {
    /// An operation on the first object.
    First(A),
    /// An operation on the second object.
    Second(B),
}

impl<A: SpecLabel, B: SpecLabel> SpecLabel for EitherLabel<A, B> {
    fn kind(&self) -> Kind {
        match self {
            EitherLabel::First(a) => a.kind(),
            EitherLabel::Second(b) => b.kind(),
        }
    }
}

/// The composition `Spec₁ ⊗ Spec₂` of two different data types.
#[derive(Clone, Debug)]
pub struct PairSpec<S1, S2> {
    first: S1,
    second: S2,
}

impl<S1: Spec, S2: Spec> PairSpec<S1, S2> {
    /// Composes `first ⊗ second`.
    pub fn new(first: S1, second: S2) -> Self {
        PairSpec { first, second }
    }

    /// The first component specification.
    pub fn first(&self) -> &S1 {
        &self.first
    }

    /// The second component specification.
    pub fn second(&self) -> &S2 {
        &self.second
    }
}

impl<S1: Spec, S2: Spec> Spec for PairSpec<S1, S2> {
    type Label = EitherLabel<S1::Label, S2::Label>;
    type State = (S1::State, S2::State);

    fn initial(&self) -> Self::State {
        (self.first.initial(), self.second.initial())
    }

    fn step(&self, state: &Self::State, label: &Self::Label, out: &mut Vec<Self::State>) -> Step {
        // As in `MultiObjSpec::step`: the component buffers are written to
        // only by updates.
        match label {
            EitherLabel::First(l) => {
                let mut succs = Vec::new();
                let answer = self.first.step(&state.0, l, &mut succs);
                out.extend(succs.into_iter().map(|s| (s, state.1.clone())));
                answer
            }
            EitherLabel::Second(l) => {
                let mut succs = Vec::new();
                let answer = self.second.step(&state.1, l, &mut succs);
                out.extend(succs.into_iter().map(|s| (state.0.clone(), s)));
                answer
            }
        }
    }

    fn state_fingerprint(&self, state: &Self::State) -> u64 {
        self.first
            .state_fingerprint(&state.0)
            .rotate_left(31)
            .wrapping_mul(0x100_0000_01B3)
            ^ self.second.state_fingerprint(&state.1)
    }
}

/// The per-object virtual timestamp `ts_h(ℓ)` of operation `i`: its own
/// timestamp, or the maximal timestamp among *same-object* operations
/// visible to it.
///
/// In a composed history the global visibility relation is not transitive
/// (causal delivery holds per object, Section 5.1), so the timestamp-order
/// witness must not compare timestamps across objects.
pub fn object_virtual_ts<L>(h: &History<ObjLabel<L>>, i: usize) -> Option<Ts> {
    if let Some(ts) = h.op(i).ts {
        return Some(ts);
    }
    let obj = h.label(i).obj;
    h.preds(i)
        .iter()
        .filter(|&p| h.label(p).obj == obj)
        .fold(None, |acc, p| crate::timestamp::max_ts(acc, h.op(p).ts))
}

/// Builds the composed timestamp-order linearization: a topological sort of
/// the global visibility relation together with, per object, the order of
/// (virtual) timestamps (Lemma 5.4 / Theorem 5.5). Ties are broken by
/// generator order.
///
/// Returns `None` when `vis ∪ ≺h` is cyclic — which Theorem 5.5 rules out
/// for the shared-timestamp composition `⊗ts`, but which does happen under
/// the unrestricted `⊗` (Figure 10).
pub fn composed_timestamp_order<L>(h: &History<ObjLabel<L>>) -> Option<Vec<usize>> {
    let n = h.len();
    // Only operations that *generate* timestamps are ordered by them.
    // Timestamp-less operations (queries, tombstone removes) are
    // position-insensitive — condition (iii) only constrains the relative
    // order of the updates visible to a query — so visibility alone places
    // them; adding virtual-timestamp edges would create spurious cycles
    // through non-transitive cross-object visibility.
    let keys: Vec<Option<Ts>> = (0..n).map(|i| h.op(i).ts).collect();
    // successors[a] lists b with an edge a → b; indegree counts edges into b.
    let mut indegree = vec![0usize; n];
    let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (b, degree) in indegree.iter_mut().enumerate() {
        for a in h.preds(b) {
            successors[a].push(b);
            *degree += 1;
        }
    }
    // Per object, sort the timestamped operations once and chain
    // consecutive timestamp levels — a transitive reduction of the
    // all-pairs `ts_a < ts_b` edge set (same reachability closure, so
    // Kahn's smallest-ready-first walk below returns the identical
    // witness), built in O(m log m) per object instead of O(n²) overall.
    // Edges already present as visibility edges are skipped, as before.
    let mut by_obj: std::collections::BTreeMap<crate::ids::ObjId, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, key) in keys.iter().enumerate() {
        if key.is_some() {
            by_obj.entry(h.label(i).obj).or_default().push(i);
        }
    }
    for ops in by_obj.values_mut() {
        ops.sort_by_key(|&i| keys[i]);
        // Equal timestamps (possible only in hand-built histories — the
        // runtime's Lamport pairs are unique) form one level; each level
        // is linked fully to the next so the closure stays exact.
        let mut level_start = 0;
        let mut next_start = 0;
        while next_start < ops.len() {
            let level_key = keys[ops[next_start]];
            let level_end =
                next_start + ops[next_start..].partition_point(|&i| keys[i] == level_key);
            if next_start > 0 {
                for &a in &ops[level_start..next_start] {
                    for &b in &ops[next_start..level_end] {
                        if !h.sees(b, a) {
                            successors[a].push(b);
                            indegree[b] += 1;
                        }
                    }
                }
            }
            level_start = next_start;
            next_start = level_end;
        }
    }
    kahn_smallest_first(indegree, &successors)
}

/// Kahn's algorithm over an explicit edge list, always taking the
/// smallest ready index first — the tie-break every deterministic witness
/// in this crate relies on (it yields the lexicographically smallest
/// linear extension, a function of the reachability relation alone, not
/// of the particular edge set). Returns `None` when the graph is cyclic.
///
/// Shared by [`composed_timestamp_order`] and the sharded checker's
/// witness stitching ([`crate::ralin::sharded`]), so the tie-break rule
/// cannot drift between the guided and stitched witnesses.
pub(crate) fn kahn_smallest_first(
    mut indegree: Vec<usize>,
    successors: &[Vec<usize>],
) -> Option<Vec<usize>> {
    let n = indegree.len();
    let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&i| indegree[i] == 0)
        .map(std::cmp::Reverse)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse(a)) = ready.pop() {
        order.push(a);
        for &b in &successors[a] {
            indegree[b] -= 1;
            if indegree[b] == 0 {
                ready.push(std::cmp::Reverse(b));
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// Checks a composed history with the appropriate guided witness: index
/// order for [`Strategy::ExecutionOrder`] objects, the topological witness
/// of [`composed_timestamp_order`] for [`Strategy::TimestampOrder`].
///
/// # Errors
///
/// Returns the violation exhibited by the witness;
/// [`Violation::InconsistentWithVisibility`] with both fields `usize::MAX`
/// signals a `vis ∪ ≺h` cycle (no witness exists at all).
pub fn check_composed<S>(
    h: &History<S::Label>,
    spec: &S,
    strategy: Strategy,
) -> Result<Linearization, Violation>
where
    S: Spec,
    S::Label: ComposedLabel,
{
    let order = match strategy {
        Strategy::ExecutionOrder => (0..h.len()).collect(),
        Strategy::TimestampOrder => {
            let tagged = project_objects(h);
            match composed_timestamp_order(&tagged) {
                Some(order) => order,
                None => {
                    return Err(Violation::InconsistentWithVisibility {
                        earlier: usize::MAX,
                        later: usize::MAX,
                    })
                }
            }
        }
    };
    crate::ralin::check_linearization(h, spec, &order)?;
    Ok(Linearization { order })
}

/// A label that knows which object it belongs to (implemented by
/// [`ObjLabel`] and [`EitherLabel`]).
pub trait ComposedLabel: SpecLabel {
    /// The object of the operation.
    fn object(&self) -> ObjId;
}

impl<L: SpecLabel> ComposedLabel for ObjLabel<L> {
    fn object(&self) -> ObjId {
        self.obj
    }
}

impl<A: SpecLabel, B: SpecLabel> ComposedLabel for EitherLabel<A, B> {
    fn object(&self) -> ObjId {
        match self {
            EitherLabel::First(_) => ObjId(0),
            EitherLabel::Second(_) => ObjId(1),
        }
    }
}

/// Freely composes `k` independent single-object histories into one
/// composed history over `k` disjoint objects: operations are interleaved
/// round-robin in generator order, each keeping its within-object
/// visibility and gaining no cross-object edges (the composition `⊗` of
/// histories that never communicated).
///
/// This is the scenario-diversity workhorse for compositional checking:
/// it turns any per-type history generator into a `MultiObjSpec`-shaped
/// workload, for state-based types just as for op-based ones.
pub fn compose_disjoint<L: Clone + Debug>(parts: &[History<L>]) -> History<ObjLabel<L>> {
    let mut out = History::new();
    let mut maps: Vec<Vec<usize>> = parts.iter().map(|h| Vec::with_capacity(h.len())).collect();
    let mut next: Vec<usize> = vec![0; parts.len()];
    loop {
        let mut progressed = false;
        for (o, part) in parts.iter().enumerate() {
            if next[o] < part.len() {
                let i = next[o];
                next[o] += 1;
                let preds: crate::bitset::BitSet =
                    part.preds(i).iter().map(|p| maps[o][p]).collect();
                let record = part
                    .op(i)
                    .clone()
                    .map(|l| ObjLabel::new(ObjId(o as u32), l));
                maps[o].push(out.push_set(record, preds));
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    out
}

/// The history with every label reduced to its object tag — all that
/// [`composed_timestamp_order`] reads.
pub(crate) fn project_objects<L: ComposedLabel + Clone + Debug>(
    h: &History<L>,
) -> History<ObjLabel<()>> {
    let mut out = History::new();
    for (i, op) in h.iter() {
        let record = crate::history::OpRecord {
            label: ObjLabel::new(op.label.object(), ()),
            replica: op.replica,
            ts: op.ts,
        };
        out.push_set(record, h.preds(i).clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::{History, OpRecord};
    use crate::ids::ReplicaId;
    use crate::ralin::{search, SearchOutcome};

    /// Grow-only counter spec for testing.
    #[derive(Clone, Debug)]
    struct Ctr;

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

    impl Spec for Ctr {
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

    #[test]
    fn multi_obj_dispatches() {
        let spec = MultiObjSpec::new(Ctr, 2);
        let st = spec.initial();
        assert_eq!(st, vec![0, 0]);
        let mut out = Vec::new();
        let inc = ObjLabel::new(ObjId(1), L::Inc);
        assert_eq!(spec.step(&st, &inc, &mut out), Step::Wrote);
        let st = out.pop().unwrap();
        assert_eq!(st, vec![0, 1]);
        let read = |o, k| ObjLabel::new(ObjId(o), L::Read(k));
        assert_eq!(spec.step(&st, &read(1, 1), &mut out), Step::Unchanged);
        assert_eq!(spec.step(&st, &read(0, 1), &mut out), Step::Refused);
        assert!(out.is_empty());
    }

    #[test]
    fn multi_obj_rejects_out_of_range() {
        let spec = MultiObjSpec::new(Ctr, 1);
        let st = spec.initial();
        let label = ObjLabel::new(ObjId(5), L::Inc);
        assert_eq!(spec.step(&st, &label, &mut Vec::new()), Step::Refused);
    }

    #[test]
    fn composed_history_search() {
        // Two counters, each incremented once on different replicas; reads
        // observe per-object values.
        let spec = MultiObjSpec::new(Ctr, 2);
        let mut h = History::new();
        let a = h.push(
            OpRecord::new(ObjLabel::new(ObjId(0), L::Inc), ReplicaId(0)),
            [],
        );
        let b = h.push(
            OpRecord::new(ObjLabel::new(ObjId(1), L::Inc), ReplicaId(1)),
            [],
        );
        h.push(
            OpRecord::new(ObjLabel::new(ObjId(0), L::Read(1)), ReplicaId(0)),
            [a],
        );
        h.push(
            OpRecord::new(ObjLabel::new(ObjId(1), L::Read(1)), ReplicaId(1)),
            [b],
        );
        assert!(matches!(search(&h, &spec), SearchOutcome::Linearizable(_)));
    }

    #[test]
    fn pair_spec_dispatches() {
        let spec = PairSpec::new(Ctr, Ctr);
        let st = spec.initial();
        let mut out = Vec::new();
        assert_eq!(
            spec.step(&st, &EitherLabel::First(L::Inc), &mut out),
            Step::Wrote
        );
        let st = out.pop().unwrap();
        assert_eq!(st, (1, 0));
        let read = |k| EitherLabel::<L, L>::Second(L::Read(k));
        assert_eq!(spec.step(&st, &read(0), &mut out), Step::Unchanged);
        assert_eq!(spec.step(&st, &read(1), &mut out), Step::Refused);
        assert!(out.is_empty());
    }

    #[test]
    fn composed_to_witness_and_cycle_detection() {
        use crate::history::OpRecord;
        use crate::timestamp::Ts;

        // Two objects; real-timestamped ops must sort per object, with
        // visibility bridging them.
        let mut h: History<ObjLabel<L>> = History::new();
        let a = h.push(
            OpRecord::with_ts(
                ObjLabel::new(ObjId(0), L::Inc),
                ReplicaId(0),
                Ts::new(2, ReplicaId(0)),
            ),
            [],
        );
        let b = h.push(
            OpRecord::with_ts(
                ObjLabel::new(ObjId(0), L::Inc),
                ReplicaId(1),
                Ts::new(1, ReplicaId(1)),
            ),
            [],
        );
        let c = h.push(
            OpRecord::with_ts(
                ObjLabel::new(ObjId(1), L::Inc),
                ReplicaId(0),
                Ts::new(1, ReplicaId(0)),
            ),
            [a],
        );
        let order = composed_timestamp_order(&h).expect("acyclic");
        let pos = |x: usize| order.iter().position(|&y| y == x).unwrap();
        // Same-object ts order: b (ts 1) before a (ts 2); vis: a before c.
        assert!(pos(b) < pos(a));
        assert!(pos(a) < pos(c));

        // A cycle: o0 wants x before y (timestamps) but y is visible to x.
        let mut h: History<ObjLabel<L>> = History::new();
        let y = h.push(
            OpRecord::with_ts(
                ObjLabel::new(ObjId(0), L::Inc),
                ReplicaId(0),
                Ts::new(5, ReplicaId(0)),
            ),
            [],
        );
        h.push(
            OpRecord::with_ts(
                ObjLabel::new(ObjId(0), L::Inc),
                ReplicaId(1),
                Ts::new(1, ReplicaId(1)),
            ),
            [y],
        );
        assert_eq!(composed_timestamp_order(&h), None);
    }

    #[test]
    fn object_virtual_ts_is_per_object() {
        use crate::history::OpRecord;
        use crate::timestamp::Ts;

        let mut h: History<ObjLabel<L>> = History::new();
        let big = h.push(
            OpRecord::with_ts(
                ObjLabel::new(ObjId(1), L::Inc),
                ReplicaId(0),
                Ts::new(9, ReplicaId(0)),
            ),
            [],
        );
        // A read of object 0 that saw the big-timestamped o1 op: its
        // per-object virtual timestamp stays ⊥.
        let q = h.push(
            OpRecord::new(ObjLabel::new(ObjId(0), L::Read(0)), ReplicaId(0)),
            [big],
        );
        assert_eq!(object_virtual_ts(&h, q), None);
        // The global virtual timestamp, by contrast, picks it up.
        assert_eq!(h.virtual_ts(q), Some(Ts::new(9, ReplicaId(0))));
    }

    #[test]
    fn obj_label_kind_passthrough() {
        assert_eq!(ObjLabel::new(ObjId(0), L::Inc).kind(), Kind::Update);
        assert_eq!(EitherLabel::<L, L>::Second(L::Read(0)).kind(), Kind::Query);
    }

    /// The seed-era all-pairs timestamp-edge construction, kept verbatim
    /// as the regression oracle for the consecutive-chain rewrite in
    /// [`composed_timestamp_order`]: the chained edge set is a transitive
    /// reduction, so Kahn's smallest-ready-first walk must return the
    /// bit-identical witness.
    fn composed_timestamp_order_naive<L>(h: &History<ObjLabel<L>>) -> Option<Vec<usize>> {
        let n = h.len();
        let keys: Vec<Option<Ts>> = (0..n).map(|i| h.op(i).ts).collect();
        let mut indegree = vec![0usize; n];
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (b, degree) in indegree.iter_mut().enumerate() {
            for a in h.preds(b) {
                successors[a].push(b);
                *degree += 1;
            }
        }
        for a in 0..n {
            for b in 0..n {
                if a != b
                    && h.label(a).obj == h.label(b).obj
                    && keys[a].is_some()
                    && keys[a] < keys[b]
                    && !h.sees(b, a)
                {
                    successors[a].push(b);
                    indegree[b] += 1;
                }
            }
        }
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
            .filter(|&i| indegree[i] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(a)) = ready.pop() {
            order.push(a);
            for &b in &successors[a] {
                indegree[b] -= 1;
                if indegree[b] == 0 {
                    ready.push(std::cmp::Reverse(b));
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    #[test]
    fn chained_timestamp_edges_match_the_all_pairs_oracle() {
        use crate::rng::Rng;

        // Random composed histories: mixed objects, sparse timestamps
        // (including duplicates, which hand-built histories may contain),
        // random visibility over earlier operations.
        for seed in 0..200u64 {
            let mut rng = Rng::seed_from_u64(0xC0DE + seed);
            let n = rng.random_range(1..14usize);
            let mut h: History<ObjLabel<L>> = History::new();
            for i in 0..n {
                let obj = ObjId(rng.random_range(0..3u32));
                let replica = ReplicaId(rng.random_range(0..3u32));
                let label = ObjLabel::new(obj, L::Inc);
                let record = if rng.random_bool(0.7) {
                    let counter = rng.random_range(1..6u64);
                    OpRecord::with_ts(label, replica, crate::timestamp::Ts::new(counter, replica))
                } else {
                    OpRecord::new(label, replica)
                };
                let preds: Vec<usize> = (0..i).filter(|_| rng.random_bool(0.3)).collect();
                h.push(record, preds);
            }
            assert_eq!(
                composed_timestamp_order(&h),
                composed_timestamp_order_naive(&h),
                "witness drifted from the all-pairs oracle at seed {seed}"
            );
        }
    }

    #[test]
    fn compose_disjoint_interleaves_without_cross_edges() {
        let mut h0: History<L> = History::new();
        let a = h0.push(OpRecord::new(L::Inc, ReplicaId(0)), []);
        h0.push(OpRecord::new(L::Read(1), ReplicaId(0)), [a]);
        let mut h1: History<L> = History::new();
        h1.push(OpRecord::new(L::Inc, ReplicaId(1)), []);
        let composed = compose_disjoint(&[h0, h1]);
        assert_eq!(composed.len(), 3);
        // Round-robin: o0.inc, o1.inc, o0.read.
        assert_eq!(composed.label(0).obj, ObjId(0));
        assert_eq!(composed.label(1).obj, ObjId(1));
        assert_eq!(composed.label(2).obj, ObjId(0));
        // Within-object visibility is remapped; no cross-object edges.
        assert!(composed.sees(2, 0));
        assert!(!composed.sees(2, 1));
        let spec = MultiObjSpec::new(Ctr, 2);
        assert!(matches!(
            search(&composed, &spec),
            SearchOutcome::Linearizable(_)
        ));
    }
}
