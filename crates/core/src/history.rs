//! Histories `(L, vis)` — the abstract view of CRDT executions (Section 3.1).
//!
//! A history is a set of operation labels together with an acyclic
//! *visibility* relation: `ℓ₁ ≺ ℓ₂` when the effector of `ℓ₁` had been applied
//! at the origin replica of `ℓ₂` before `ℓ₂` executed. Operations are stored
//! densely; index `i` in the history is also the unique identifier of the
//! operation, and insertion order is the order in which generators executed
//! (a linear extension of visibility).
//!
//! For single objects visibility is transitive (a consequence of causal
//! delivery); for object compositions it need not be (Section 5.1), so the
//! history stores the *direct* predecessor sets it is given and never closes
//! them.
//!
//! Each predecessor set is a [`BitSet`]: a count of full leading words plus
//! tail words. A replica's seen-set is everything below its seen-frontier
//! plus a few operations above it, so an operation's visibility costs the
//! operations above its origin's frontier, not its index: a history built
//! from seen-sets holds a few words per operation, where a set dense from
//! operation 0 held `i / 64` for operation `i`.

use crate::bitset::BitSet;
use crate::ids::ReplicaId;
use crate::label::{Kind, Rewrite, Rewritten, SpecLabel};
use crate::timestamp::{max_ts, Ts};
use std::fmt::Debug;

/// One operation of a history: its label plus the execution metadata the
/// constructive linearization strategies need.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpRecord<L> {
    /// The operation label `m(a) ⇒ b`.
    pub label: L,
    /// The origin replica.
    pub replica: ReplicaId,
    /// The timestamp generated by the operation, or `None` for `⊥`.
    pub ts: Option<Ts>,
}

impl<L> OpRecord<L> {
    /// Creates a record with no timestamp (`ts = ⊥`).
    pub fn new(label: L, replica: ReplicaId) -> Self {
        OpRecord {
            label,
            replica,
            ts: None,
        }
    }

    /// Creates a record carrying a generated timestamp.
    pub fn with_ts(label: L, replica: ReplicaId, ts: Ts) -> Self {
        OpRecord {
            label,
            replica,
            ts: Some(ts),
        }
    }

    /// Maps the label, keeping the metadata.
    pub fn map<M>(self, f: impl FnOnce(L) -> M) -> OpRecord<M> {
        OpRecord {
            label: f(self.label),
            replica: self.replica,
            ts: self.ts,
        }
    }
}

/// A history `(L, vis)`: a sequence of operations (in generator order) with a
/// visibility relation between them.
///
/// # Examples
///
/// ```
/// use ral_core::history::{History, OpRecord};
/// use ral_core::ids::ReplicaId;
///
/// let mut h: History<&str> = History::new();
/// let a = h.push(OpRecord::new("add(x)", ReplicaId(0)), []);
/// let b = h.push(OpRecord::new("read()", ReplicaId(0)), [a]);
/// assert!(h.sees(b, a));
/// assert!(!h.sees(a, b));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct History<L> {
    ops: Vec<OpRecord<L>>,
    /// Direct predecessors of each operation, in prefix-plus-tail form.
    preds: Vec<BitSet>,
}

impl<L> History<L> {
    /// Creates an empty history.
    pub fn new() -> Self {
        History {
            ops: Vec::new(),
            preds: Vec::new(),
        }
    }

    /// Appends an operation that sees exactly the operations in `preds`.
    ///
    /// Returns the dense index of the new operation. Visibility is acyclic by
    /// construction because predecessors must already be present.
    ///
    /// # Panics
    ///
    /// Panics if a predecessor index is out of range.
    pub fn push(&mut self, record: OpRecord<L>, preds: impl IntoIterator<Item = usize>) -> usize {
        let mut set = BitSet::new();
        for p in preds {
            assert!(p < self.ops.len(), "predecessor {p} not yet in history");
            set.insert(p);
        }
        self.push_set(record, set)
    }

    /// Appends an operation whose predecessor set is already a [`BitSet`].
    ///
    /// # Panics
    ///
    /// Panics if a predecessor index is out of range.
    pub fn push_set(&mut self, record: OpRecord<L>, preds: BitSet) -> usize {
        if let Some(max) = preds.max() {
            assert!(max < self.ops.len(), "predecessor {max} not yet in history");
        }
        let idx = self.ops.len();
        self.ops.push(record);
        self.preds.push(preds);
        idx
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the history has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operation record at index `i`.
    pub fn op(&self, i: usize) -> &OpRecord<L> {
        &self.ops[i]
    }

    /// The label of operation `i`.
    pub fn label(&self, i: usize) -> &L {
        &self.ops[i].label
    }

    /// The direct visibility predecessors of operation `i`.
    pub fn preds(&self, i: usize) -> &BitSet {
        &self.preds[i]
    }

    /// Returns `true` if operation `b` sees operation `a` (i.e. `(a, b) ∈ vis`).
    pub fn sees(&self, b: usize, a: usize) -> bool {
        self.preds[b].contains(a)
    }

    /// Returns `true` if `a` and `b` are concurrent (`a ▷◁ b`): neither sees
    /// the other.
    pub fn concurrent(&self, a: usize, b: usize) -> bool {
        a != b && !self.sees(a, b) && !self.sees(b, a)
    }

    /// Iterates over `(index, record)` pairs in generator order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &OpRecord<L>)> {
        self.ops.iter().enumerate()
    }

    /// The timestamp `ts_h(ℓ)` of operation `i` in the context of this
    /// history (Section 4.2): the operation's own timestamp if it generated
    /// one, otherwise the maximal timestamp among the operations it sees
    /// ("virtual" timestamp), otherwise `⊥`.
    pub fn virtual_ts(&self, i: usize) -> Option<Ts> {
        if self.ops[i].ts.is_some() {
            return self.ops[i].ts;
        }
        self.preds[i]
            .iter()
            .fold(None, |acc, p| max_ts(acc, self.ops[p].ts))
    }

    /// Checks that `order` (a permutation of indices) is consistent with
    /// visibility: every operation appears after all its predecessors.
    pub fn order_consistent(&self, order: &[usize]) -> bool {
        let mut pos = vec![usize::MAX; self.len()];
        for (p, &i) in order.iter().enumerate() {
            pos[i] = p;
        }
        if pos.contains(&usize::MAX) {
            return false;
        }
        (0..self.len()).all(|b| self.preds[b].iter().all(|a| pos[a] < pos[b]))
    }

    /// Maps every label, keeping structure and metadata.
    pub fn map<M>(self, mut f: impl FnMut(L) -> M) -> History<M> {
        History {
            ops: self.ops.into_iter().map(|op| op.map(&mut f)).collect(),
            preds: self.preds,
        }
    }

    /// Checks that visibility is transitive (it always is for single-object
    /// histories produced under causal delivery; compositions may violate it).
    pub fn is_transitive(&self) -> bool {
        (0..self.len()).all(|b| {
            self.preds[b]
                .iter()
                .all(|a| self.preds[a].is_subset(&self.preds[b]))
        })
    }

    /// Checks whether visibility is an *interval order*: whenever
    /// `(a, b) ∈ vis` and `(c, d) ∈ vis`, also `(a, d) ∈ vis` or
    /// `(c, b) ∈ vis`.
    ///
    /// Returns-before orders of standard linearizability are interval
    /// orders; visibility generally is not — footnote 12 of the paper pins
    /// the compositionality gap between linearizability and
    /// RA-linearizability on exactly this difference (Section 5.1).
    pub fn is_interval_order(&self) -> bool {
        let edges: Vec<(usize, usize)> = (0..self.len())
            .flat_map(|b| self.preds[b].iter().map(move |a| (a, b)))
            .collect();
        edges.iter().all(|&(a, b)| {
            edges
                .iter()
                .all(|&(c, d)| self.sees(d, a) || self.sees(b, c))
        })
    }
}

/// Where the parts of an original operation ended up in a rewritten history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Parts {
    /// The operation was a plain query or update; one index.
    One(usize),
    /// The operation was a query-update; indices of its query and update
    /// parts.
    Split {
        /// Index of the query part.
        query: usize,
        /// Index of the update part.
        update: usize,
    },
}

impl Parts {
    /// Index of the query part.
    pub fn query(&self) -> usize {
        match *self {
            Parts::One(i) => i,
            Parts::Split { query, .. } => query,
        }
    }

    /// Index of the update part.
    pub fn update(&self) -> usize {
        match *self {
            Parts::One(i) => i,
            Parts::Split { update, .. } => update,
        }
    }
}

/// A history after query-update rewriting, with the mapping back to the
/// original operations.
#[derive(Clone, Debug)]
pub struct RewrittenHistory<Out> {
    /// The γ-rewritten history `γ(h)`.
    pub history: History<Out>,
    /// For each original operation index, where its parts live in
    /// [`RewrittenHistory::history`].
    pub parts: Vec<Parts>,
}

/// Applies a query-update rewriting `γ` to a history (Definition 3.7).
///
/// Singleton images keep the visibility of the original: their predecessors
/// are the *update parts* of the original predecessors. A split image places
/// the query before the update; the query part sees exactly what the original
/// saw, and operations that saw the original see its update part.
pub fn rewrite_history<In, R>(h: &History<In>, rw: &R) -> RewrittenHistory<R::Out>
where
    R: Rewrite<In>,
{
    let mut out = History::new();
    let mut parts: Vec<Parts> = Vec::with_capacity(h.len());
    for (i, op) in h.iter() {
        // Until the first split every earlier operation kept its index, so
        // the predecessor set is the original one, copied word by word.
        let pred_updates: BitSet = if out.len() == i {
            h.preds(i).clone()
        } else {
            h.preds(i).iter().map(|p| parts[p].update()).collect()
        };
        match rw.rewrite(&op.label) {
            Rewritten::One(l) => {
                let idx = out.push_set(
                    OpRecord {
                        label: l,
                        replica: op.replica,
                        ts: op.ts,
                    },
                    pred_updates,
                );
                parts.push(Parts::One(idx));
            }
            Rewritten::Split { query, update } => {
                debug_assert_eq!(query.kind(), Kind::Query, "γ split must start with a query");
                debug_assert_eq!(
                    update.kind(),
                    Kind::Update,
                    "γ split must end with an update"
                );
                let q = out.push_set(
                    OpRecord {
                        label: query,
                        replica: op.replica,
                        ts: None,
                    },
                    pred_updates,
                );
                let mut upd_preds = BitSet::new();
                upd_preds.insert(q);
                let u = out.push_set(
                    OpRecord {
                        label: update,
                        replica: op.replica,
                        ts: op.ts,
                    },
                    upd_preds,
                );
                parts.push(Parts::Split {
                    query: q,
                    update: u,
                });
            }
        }
    }
    RewrittenHistory {
        history: out,
        parts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Identity;

    #[derive(Clone, Debug, PartialEq)]
    enum L {
        Add(u32),
        Rem(u32),
        Read(Vec<u32>),
    }

    impl SpecLabel for L {
        fn kind(&self) -> Kind {
            match self {
                L::Read(_) => Kind::Query,
                _ => Kind::Update,
            }
        }
    }

    fn r(i: u32) -> ReplicaId {
        ReplicaId(i)
    }

    #[test]
    fn push_and_visibility() {
        let mut h = History::new();
        let a = h.push(OpRecord::new(L::Add(1), r(0)), []);
        let b = h.push(OpRecord::new(L::Add(2), r(1)), []);
        let c = h.push(OpRecord::new(L::Read(vec![1, 2]), r(0)), [a, b]);
        assert!(h.sees(c, a));
        assert!(h.sees(c, b));
        assert!(h.concurrent(a, b));
        assert!(!h.concurrent(a, c));
        assert_eq!(h.len(), 3);
    }

    #[test]
    #[should_panic(expected = "not yet in history")]
    fn push_rejects_forward_edges() {
        let mut h = History::new();
        h.push(OpRecord::new(L::Add(1), r(0)), [5]);
    }

    #[test]
    fn virtual_timestamps() {
        let mut h = History::new();
        let a = h.push(OpRecord::with_ts(L::Add(1), r(0), Ts::new(1, r(0))), []);
        let b = h.push(OpRecord::with_ts(L::Add(2), r(1), Ts::new(2, r(1))), []);
        let q = h.push(OpRecord::new(L::Read(vec![]), r(0)), [a, b]);
        let lone = h.push(OpRecord::new(L::Read(vec![]), r(2)), []);
        assert_eq!(h.virtual_ts(a), Some(Ts::new(1, r(0))));
        assert_eq!(h.virtual_ts(q), Some(Ts::new(2, r(1))));
        assert_eq!(h.virtual_ts(lone), None);
    }

    #[test]
    fn order_consistency() {
        let mut h = History::new();
        let a = h.push(OpRecord::new(L::Add(1), r(0)), []);
        let b = h.push(OpRecord::new(L::Add(2), r(0)), [a]);
        let c = h.push(OpRecord::new(L::Add(3), r(1)), []);
        assert!(h.order_consistent(&[a, b, c]));
        assert!(h.order_consistent(&[c, a, b]));
        assert!(!h.order_consistent(&[b, a, c]));
        assert!(!h.order_consistent(&[a, b])); // not a permutation
    }

    #[test]
    fn transitivity_check() {
        let mut h = History::new();
        let a = h.push(OpRecord::new(L::Add(1), r(0)), []);
        let b = h.push(OpRecord::new(L::Add(2), r(0)), [a]);
        let _c = h.push(OpRecord::new(L::Add(3), r(0)), [a, b]);
        assert!(h.is_transitive());
        let mut h2 = h.clone();
        // d sees only b, not a: not transitively closed.
        h2.push(OpRecord::new(L::Add(4), r(1)), [b]);
        assert!(!h2.is_transitive());
    }

    #[test]
    fn identity_rewriting_preserves_structure() {
        let mut h = History::new();
        let a = h.push(OpRecord::new(L::Add(1), r(0)), []);
        let q = h.push(OpRecord::new(L::Read(vec![1]), r(0)), [a]);
        let rw = rewrite_history(&h, &Identity);
        assert_eq!(rw.history.len(), 2);
        assert!(rw.history.sees(q, a));
        assert_eq!(rw.parts[a], Parts::One(0));
    }

    /// OR-Set-style rewriting: `Rem(x)` becomes `ReadIds ; RemIds`.
    struct SplitRem;

    #[derive(Clone, Debug, PartialEq)]
    enum SL {
        Add(u32),
        ReadIds(u32),
        RemIds(u32),
        Read(Vec<u32>),
    }

    impl SpecLabel for SL {
        fn kind(&self) -> Kind {
            match self {
                SL::ReadIds(_) | SL::Read(_) => Kind::Query,
                _ => Kind::Update,
            }
        }
    }

    impl Rewrite<L> for SplitRem {
        type Out = SL;
        fn rewrite(&self, label: &L) -> Rewritten<SL> {
            match label {
                L::Add(x) => Rewritten::One(SL::Add(*x)),
                L::Read(v) => Rewritten::One(SL::Read(v.clone())),
                L::Rem(x) => Rewritten::Split {
                    query: SL::ReadIds(*x),
                    update: SL::RemIds(*x),
                },
            }
        }
    }

    #[test]
    fn split_rewriting_visibility() {
        // add(1) -> rem(1) -> read
        let mut h = History::new();
        let a = h.push(OpRecord::new(L::Add(1), r(0)), []);
        let m = h.push(OpRecord::new(L::Rem(1), r(0)), [a]);
        let q = h.push(OpRecord::new(L::Read(vec![]), r(0)), [a, m]);
        let rw = rewrite_history(&h, &SplitRem);
        assert_eq!(rw.history.len(), 4);
        let (rq, ru) = match rw.parts[m] {
            Parts::Split { query, update } => (query, update),
            Parts::One(_) => panic!("rem must split"),
        };
        let ra = rw.parts[a].update();
        let rr = rw.parts[q].query();
        // query part sees what the original rem saw
        assert!(rw.history.sees(rq, ra));
        // query precedes update within the pair
        assert!(rw.history.sees(ru, rq));
        // the read sees the update part of rem and add
        assert!(rw.history.sees(rr, ru));
        assert!(rw.history.sees(rr, ra));
    }
}
