//! The Replicated Growable Array (Listing 1, Section 2.1).
//!
//! Each replica keeps a *timestamp tree* (`Ti-Tree`): every inserted element
//! is a child of the element it was added after, tagged with the timestamp
//! its generator sampled. Reading traverses the tree in pre-order with
//! siblings ordered by **descending** timestamp; removal only marks elements
//! in a tombstone set, so a concurrent `addAfter` under a removed element
//! still finds its parent. Conflicting sibling insertions are resolved by
//! timestamp, which is why RGA admits **timestamp-order** (not
//! execution-order) linearizations (Figure 8, Figure 12).

use ral_core::elem::Elem;
use ral_core::ralin::Strategy;
use ral_core::scope::SmallScope;
use ral_core::timestamp::Ts;
use ral_runtime::gen::{GenCtx, GenOutcome};
use ral_runtime::op_based::OpBased;
use ral_spec::rga::{Anchor, RgaOp};
use ral_spec::seq::Doc;
use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;

/// Method invocations of RGA.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RgaCall<E> {
    /// `addAfter(a, b)` — insert `b` right after `a` (`Anchor::Head` is `◦`).
    AddAfter(Anchor<E>, E),
    /// `remove(a)`.
    Remove(E),
    /// `read()`.
    Read,
}

/// Effector payloads of RGA.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RgaEff<E> {
    /// Add `(parent, ts, elem)` to the timestamp tree.
    Insert {
        /// Parent node (the `addAfter` anchor).
        parent: Anchor<E>,
        /// Timestamp sampled by the generator.
        ts: Ts,
        /// The inserted element.
        elem: E,
    },
    /// Add `elem` to the tombstone set.
    Tomb(E),
}

/// Replica state: the timestamp tree plus the tombstone set, and the tree's
/// pre-order kept flat beside it.
///
/// The tree is the source of truth; `order` is what reading it in
/// pre-order yields (Listing 1), maintained per effector — the same flat
/// shape [`crate::op::wooki::WookiState`] has. Reads, `abs` and the
/// workloads' anchor draws are one pass over it, and nothing recurses on
/// the depth of the tree.
#[derive(Clone, PartialEq, Eq)]
pub struct RgaState<E: Elem> {
    /// Children of each node, sorted by descending timestamp.
    children: BTreeMap<Anchor<E>, Vec<(Ts, E)>>,
    /// Every element in the tree with its timestamp.
    present: BTreeMap<E, Ts>,
    /// Tombstoned (conceptually erased) elements.
    tomb: BTreeSet<E>,
    /// Every element in pre-order, flagged when tombstoned.
    order: Vec<(E, bool)>,
}

impl<E: Elem> RgaState<E> {
    fn new() -> Self {
        RgaState {
            children: BTreeMap::new(),
            present: BTreeMap::new(),
            tomb: BTreeSet::new(),
            order: Vec::new(),
        }
    }

    /// Returns `true` if `elem` is in the timestamp tree (tombstoned or not).
    pub fn contains(&self, elem: &E) -> bool {
        self.present.contains_key(elem)
    }

    /// Returns `true` if `elem` has been tombstoned.
    pub fn is_tombstoned(&self, elem: &E) -> bool {
        self.tomb.contains(elem)
    }

    /// The timestamp of `elem`, if present.
    pub fn timestamp_of(&self, elem: &E) -> Option<Ts> {
        self.present.get(elem).copied()
    }

    /// The tombstone set.
    pub fn tombstones(&self) -> &BTreeSet<E> {
        &self.tomb
    }

    /// Pre-order traversal skipping tombstones — the `read()` result.
    pub fn visible(&self) -> Vec<E> {
        self.order
            .iter()
            .filter(|(_, dead)| !dead)
            .map(|(e, _)| e.clone())
            .collect()
    }

    /// Pre-order traversal including tombstoned elements — the sequence `l`
    /// of the abstract state.
    pub fn all_elements(&self) -> Vec<E> {
        self.order.iter().map(|(e, _)| e.clone()).collect()
    }

    /// Index in `order` of `elem`, searched from the back: the scan is
    /// linear wherever the element is, and typing anchors at the end.
    fn index_of(&self, elem: &E) -> usize {
        self.order
            .iter()
            .rposition(|(e, _)| e == elem)
            .expect("causal delivery guarantees the anchor")
    }

    /// Adds `elem` under `parent` at timestamp `ts` — to the tree, and to
    /// `order` where the pre-order puts it: right after its parent when it
    /// is the first (largest-timestamp) child, otherwise right after the
    /// last descendant of its preceding sibling.
    fn insert(&mut self, parent: &Anchor<E>, ts: Ts, elem: &E) {
        let kids = self.children.entry(parent.clone()).or_default();
        // Siblings are kept in descending timestamp order.
        let at = kids.partition_point(|(t, _)| *t > ts);
        let mut before = match at {
            0 => parent.clone(),
            _ => Anchor::Elem(kids[at - 1].1.clone()),
        };
        kids.insert(at, (ts, elem.clone()));
        if at > 0 {
            while let Some((_, last)) = self.children.get(&before).and_then(|k| k.last()) {
                before = Anchor::Elem(last.clone());
            }
        }
        let pos = match &before {
            Anchor::Head => 0,
            Anchor::Elem(b) => self.index_of(b) + 1,
        };
        self.order.insert(pos, (elem.clone(), false));
        self.present.insert(elem.clone(), ts);
    }

    fn tombstone(&mut self, elem: &E) {
        if self.tomb.insert(elem.clone()) {
            let i = self.index_of(elem);
            self.order[i].1 = true;
        }
    }

    /// Listing 1's read, verbatim: the recursive pre-order walk of the tree
    /// that `order` replaces — the oracle `order` is tested against.
    #[cfg(test)]
    pub(crate) fn listing1_walk(&self, include_tombstoned: bool) -> Vec<E> {
        fn walk<E: Elem>(s: &RgaState<E>, node: &Anchor<E>, all: bool, out: &mut Vec<E>) {
            if let Some(kids) = s.children.get(node) {
                for (_, elem) in kids {
                    if all || !s.tomb.contains(elem) {
                        out.push(elem.clone());
                    }
                    walk(s, &Anchor::Elem(elem.clone()), all, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &Anchor::Head, include_tombstoned, &mut out);
        out
    }
}

/// Renders the tree and the tombstone set (`order` is derived from them).
impl<E: Elem> std::fmt::Debug for RgaState<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RgaState")
            .field("children", &self.children)
            .field("present", &self.present)
            .field("tomb", &self.tomb)
            .finish()
    }
}

/// The RGA CRDT.
///
/// # Examples
///
/// ```
/// use ral_core::ids::ReplicaId;
/// use ral_crdts::op::rga::{Rga, RgaCall};
/// use ral_spec::rga::Anchor;
/// use ral_runtime::op_based::Cluster;
///
/// let mut cluster = Cluster::new(Rga::<char>::new(), 2);
/// cluster.invoke(ReplicaId(0), RgaCall::AddAfter(Anchor::Head, 'a')).unwrap();
/// cluster.deliver_all();
/// cluster.invoke(ReplicaId(1), RgaCall::AddAfter(Anchor::Elem('a'), 'b')).unwrap();
/// cluster.deliver_all();
/// let read = cluster.invoke(ReplicaId(0), RgaCall::Read).unwrap();
/// assert_eq!(read.ret, Some(vec!['a', 'b']));
/// ```
pub struct Rga<E> {
    _elem: PhantomData<E>,
}

impl<E> Rga<E> {
    /// The linearization class of Figure 12.
    pub const STRATEGY: Strategy = Strategy::TimestampOrder;

    /// Creates the RGA descriptor.
    pub fn new() -> Self {
        Rga { _elem: PhantomData }
    }
}

impl<E: Elem> Rga<E> {
    /// The refinement mapping `abs` of Example 4.5: the pre-order traversal
    /// (ignoring tombstones for membership in `l`) plus the tombstone set,
    /// read off the flat pre-order in one pass.
    pub fn abs(state: &RgaState<E>) -> Doc<E> {
        state.order.iter().cloned().collect()
    }

    /// All timestamps stored in the state (for `Refinement_ts`).
    pub fn state_timestamps(state: &RgaState<E>) -> Vec<Ts> {
        state.present.values().copied().collect()
    }
}

impl<E> Clone for Rga<E> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<E> Copy for Rga<E> {}

impl<E> Default for Rga<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for Rga<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Rga")
    }
}

impl<E: Elem> OpBased for Rga<E> {
    type State = RgaState<E>;
    type Call = RgaCall<E>;
    type Ret = Option<Vec<E>>;
    type Eff = RgaEff<E>;
    type Label = RgaOp<E>;

    fn initial(&self) -> RgaState<E> {
        RgaState::new()
    }

    fn generator(
        &self,
        state: &RgaState<E>,
        call: &RgaCall<E>,
        ctx: &mut GenCtx,
    ) -> GenOutcome<Option<Vec<E>>, RgaEff<E>> {
        match call {
            RgaCall::AddAfter(a, b) => {
                let anchor_ok = match a {
                    Anchor::Head => true,
                    Anchor::Elem(x) => state.contains(x) && !state.is_tombstoned(x),
                };
                if !anchor_ok || state.contains(b) {
                    return GenOutcome::Refused;
                }
                GenOutcome::update(
                    None,
                    RgaEff::Insert {
                        parent: a.clone(),
                        ts: ctx.fresh_ts(),
                        elem: b.clone(),
                    },
                )
            }
            RgaCall::Remove(a) => {
                if !state.contains(a) || state.is_tombstoned(a) {
                    return GenOutcome::Refused;
                }
                GenOutcome::update(None, RgaEff::Tomb(a.clone()))
            }
            RgaCall::Read => GenOutcome::query(Some(state.visible())),
        }
    }

    fn apply(&self, state: &mut RgaState<E>, eff: &RgaEff<E>) {
        match eff {
            RgaEff::Insert { parent, ts, elem } => state.insert(parent, *ts, elem),
            RgaEff::Tomb(elem) => state.tombstone(elem),
        }
    }

    fn label(&self, call: &RgaCall<E>, ret: &Option<Vec<E>>) -> RgaOp<E> {
        match call {
            RgaCall::AddAfter(a, b) => RgaOp::AddAfter(a.clone(), b.clone()),
            RgaCall::Remove(a) => RgaOp::Remove(a.clone()),
            RgaCall::Read => RgaOp::Read(ret.clone().expect("read returns the list")),
        }
    }
}

impl<E: Elem + From<u8>> SmallScope for Rga<E> {
    type Call = RgaCall<E>;

    fn scope_replicas(&self, _k: usize) -> usize {
        3
    }

    // Client obligation (Section 3.2): inserted values are globally fresh,
    // so op `i` introduces value `i + 1` and may only anchor on or remove
    // values introduced by earlier indices. Anchors not yet visible at a
    // replica are refused by the generator and pruned by the search.
    fn scope_calls(&self, op_index: usize, _k: usize) -> Vec<RgaCall<E>> {
        let fresh = E::from(op_index as u8 + 1);
        let mut calls = vec![RgaCall::AddAfter(Anchor::Head, fresh.clone())];
        for j in 1..=op_index {
            let elem = E::from(j as u8);
            calls.push(RgaCall::AddAfter(Anchor::Elem(elem.clone()), fresh.clone()));
            calls.push(RgaCall::Remove(elem));
        }
        calls
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ral_core::ids::ReplicaId;
    use ral_core::label::Identity;
    use ral_core::ralin::{ra_check, Strategy};
    use ral_runtime::op_based::Cluster;
    use ral_runtime::schedule::{drive_op_based, ScheduleConfig};
    use ral_spec::rga::RgaSpec;

    fn r(i: u32) -> ReplicaId {
        ReplicaId(i)
    }

    fn head() -> Anchor<char> {
        Anchor::Head
    }

    fn after(c: char) -> Anchor<char> {
        Anchor::Elem(c)
    }

    #[test]
    fn sequential_inserts_read_in_order() {
        let mut c = Cluster::new(Rga::<char>::new(), 1);
        c.invoke(r(0), RgaCall::AddAfter(head(), 'a')).unwrap();
        c.invoke(r(0), RgaCall::AddAfter(after('a'), 'b')).unwrap();
        c.invoke(r(0), RgaCall::AddAfter(after('b'), 'c')).unwrap();
        let read = c.invoke(r(0), RgaCall::Read).unwrap();
        assert_eq!(read.ret, Some(vec!['a', 'b', 'c']));
    }

    #[test]
    fn concurrent_siblings_resolve_by_timestamp() {
        // Two replicas insert after the same parent; the higher timestamp
        // is read first (Section 2.1).
        let mut c = Cluster::new(Rga::<char>::new(), 2);
        c.invoke(r(0), RgaCall::AddAfter(head(), 'a')).unwrap();
        c.deliver_all();
        c.invoke(r(0), RgaCall::AddAfter(after('a'), 'b')).unwrap(); // ts 2@r0
        c.invoke(r(1), RgaCall::AddAfter(after('a'), 'c')).unwrap(); // ts 2@r1
        c.deliver_all();
        assert!(c.converged());
        let read = c.invoke(r(0), RgaCall::Read).unwrap();
        // 2@r1 > 2@r0, so c comes first among the siblings.
        assert_eq!(read.ret, Some(vec!['a', 'c', 'b']));
    }

    #[test]
    fn remove_keeps_subtree_reachable() {
        // A concurrent addAfter under a removed element still lands.
        let mut c = Cluster::new(Rga::<char>::new(), 2);
        c.invoke(r(0), RgaCall::AddAfter(head(), 'a')).unwrap();
        c.deliver_all();
        c.invoke(r(0), RgaCall::Remove('a')).unwrap();
        c.invoke(r(1), RgaCall::AddAfter(after('a'), 'b')).unwrap();
        c.deliver_all();
        assert!(c.converged());
        let read = c.invoke(r(1), RgaCall::Read).unwrap();
        assert_eq!(read.ret, Some(vec!['b']));
    }

    #[test]
    fn preconditions_refuse_bad_calls() {
        let mut c = Cluster::new(Rga::<char>::new(), 1);
        assert!(c.invoke(r(0), RgaCall::AddAfter(after('z'), 'a')).is_none());
        assert!(c.invoke(r(0), RgaCall::Remove('z')).is_none());
        c.invoke(r(0), RgaCall::AddAfter(head(), 'a')).unwrap();
        // duplicate element refused
        assert!(c.invoke(r(0), RgaCall::AddAfter(head(), 'a')).is_none());
        // removing twice refused
        c.invoke(r(0), RgaCall::Remove('a')).unwrap();
        assert!(c.invoke(r(0), RgaCall::Remove('a')).is_none());
        // adding after a tombstoned element refused at the generator
        assert!(c.invoke(r(0), RgaCall::AddAfter(after('a'), 'b')).is_none());
    }

    fn random_rga_run(seed: u64) -> ral_core::history::History<RgaOp<u16>> {
        let mut c = Cluster::new(Rga::<u16>::new(), 3);
        let mut next: u16 = 0;
        drive_op_based(&mut c, &ScheduleConfig::default(), seed, |rng, _, state| {
            let roll: u8 = rng.random_range(0..10);
            if roll < 5 {
                let visible = state.visible();
                let anchor = if visible.is_empty() || rng.random_bool(0.3) {
                    Anchor::Head
                } else {
                    Anchor::Elem(visible[rng.random_range(0..visible.len())])
                };
                next += 1;
                Some(RgaCall::AddAfter(anchor, next))
            } else if roll < 7 {
                let visible = state.visible();
                if visible.is_empty() {
                    None
                } else {
                    Some(RgaCall::Remove(visible[rng.random_range(0..visible.len())]))
                }
            } else {
                Some(RgaCall::Read)
            }
        });
        assert!(c.converged(), "seed {seed} did not converge");
        c.into_history()
    }

    #[test]
    fn random_histories_are_ra_linearizable_to() {
        for seed in 0..20 {
            let h = random_rga_run(seed);
            ra_check(&h, &Identity, &RgaSpec::new(), Rga::<u16>::STRATEGY)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn execution_order_can_fail() {
        // Figure 8: some RGA history refutes the execution-order strategy.
        let mut failed_eo = false;
        for seed in 0..300 {
            let h = random_rga_run(seed);
            if ra_check(&h, &Identity, &RgaSpec::new(), Strategy::ExecutionOrder).is_err() {
                failed_eo = true;
                break;
            }
        }
        assert!(failed_eo, "expected some history to refute execution order");
    }

    /// Holds `order` to Listing 1's recursive walk of the same tree.
    pub(crate) fn assert_listing1(state: &RgaState<u16>) {
        assert_eq!(state.visible(), state.listing1_walk(false));
        assert_eq!(state.all_elements(), state.listing1_walk(true));
    }

    /// (widest sibling group, deepest node) of a replica's tree.
    pub(crate) fn tree_shape(state: &RgaState<u16>) -> (usize, usize) {
        let widest = state.children.values().map(Vec::len).max().unwrap_or(0);
        let (mut deepest, mut level) = (0, vec![Anchor::Head]);
        while !level.is_empty() {
            level = level
                .iter()
                .filter_map(|n| state.children.get(n))
                .flatten()
                .map(|(_, e)| Anchor::Elem(*e))
                .collect();
            deepest += usize::from(!level.is_empty());
        }
        (widest, deepest)
    }

    #[test]
    fn flat_order_is_listing1_under_random_causal_delivery() {
        let (mut siblings, mut under_tomb, mut depth) = (0, 0, 0);
        for seed in 0..24u64 {
            let n = 3 + (seed % 3) as usize;
            let mut c = Cluster::new(Rga::<u16>::new(), n);
            let (mut next, mut last) = (0u16, vec![None; n]);
            let cfg = ScheduleConfig {
                steps: 160,
                invoke_weight: 1,
                deliver_weight: 1,
                final_sync: true,
            };
            drive_op_based(&mut c, &cfg, seed, |rng, r, state| {
                assert_listing1(state);
                let visible = state.visible();
                let roll: u8 = rng.random_range(0..10);
                if roll < 6 || visible.is_empty() {
                    // Mostly type after this replica's last insert (deep
                    // chains), sometimes anchor anywhere (siblings).
                    let anchor = match (last[r.0 as usize], roll) {
                        (Some(x), 0..=3) if !state.is_tombstoned(&x) => Anchor::Elem(x),
                        _ if visible.is_empty() || roll == 5 => Anchor::Head,
                        _ => Anchor::Elem(visible[rng.random_range(0..visible.len())]),
                    };
                    next += 1;
                    last[r.0 as usize] = Some(next);
                    Some(RgaCall::AddAfter(anchor, next))
                } else if roll < 8 {
                    Some(RgaCall::Remove(visible[rng.random_range(0..visible.len())]))
                } else {
                    Some(RgaCall::Read)
                }
            });
            assert!(c.converged(), "seed {seed} did not converge");
            for r in 0..n {
                assert_listing1(c.state(ReplicaId(r as u32)));
            }
            let (wide, deep) = tree_shape(c.state(r(0)));
            siblings += usize::from(wide >= 3);
            depth = depth.max(deep);
            // An insert concurrent with the removal of its anchor is applied
            // under a tombstoned parent at the remover's replica.
            let h = c.history();
            for (i, op) in h.iter() {
                if let RgaOp::AddAfter(Anchor::Elem(b), _) = &op.label {
                    under_tomb += h
                        .iter()
                        .filter(|(j, o)| o.label == RgaOp::Remove(*b) && h.concurrent(i, *j))
                        .count();
                }
            }
        }
        assert!(siblings >= 20, "sibling groups of three: {siblings} runs");
        assert!(under_tomb >= 50, "inserts under tombstones: {under_tomb}");
        assert!(depth >= 12, "deepest chain: {depth}");
    }

    #[test]
    fn typing_100k_characters_reads_back_without_recursion() {
        // Each character is inserted after the previous one: a chain as deep
        // as the document is long, which overflowed the recursive walk.
        const N: u32 = 100_000;
        let rga = Rga::<u32>::new();
        let mut state = rga.initial();
        let mut parent = Anchor::Head;
        for x in 0..N {
            let ts = Ts::new(u64::from(x) + 1, ReplicaId(0));
            rga.apply(
                &mut state,
                &RgaEff::Insert {
                    parent,
                    ts,
                    elem: x,
                },
            );
            parent = Anchor::Elem(x);
        }
        rga.apply(&mut state, &RgaEff::Tomb(7));
        let typed: Vec<u32> = (0..N).collect();
        assert_eq!(state.all_elements(), typed);
        let visible = state.visible();
        assert_eq!((visible.len(), visible[7]), (N as usize - 1, 8));
        let doc = Rga::abs(&state);
        assert_eq!(doc.len(), N as usize);
        assert!(doc.reads(&visible));
    }

    #[test]
    fn abs_projects_tree_to_sequence() {
        let mut c = Cluster::new(Rga::<char>::new(), 1);
        c.invoke(r(0), RgaCall::AddAfter(head(), 'a')).unwrap();
        c.invoke(r(0), RgaCall::AddAfter(after('a'), 'b')).unwrap();
        c.invoke(r(0), RgaCall::Remove('a')).unwrap();
        assert_eq!(
            Rga::abs(c.state(r(0))),
            Doc::from_iter([('a', true), ('b', false)])
        );
        assert_eq!(c.state(r(0)).visible(), vec!['b']);
    }
}
