//! Sequential specifications (Section 3.2).
//!
//! A specification is presented operationally: an abstract state domain `Φ`,
//! an initial state `ϕ₀`, and a transition relation `ϕ —ℓ→ ϕ′` per label.
//! Transitions may be *nondeterministic* — Wooki's `addBetween(a,b,c)`
//! inserts at any position between `a` and `c`, and `Spec(addAt3)` observes
//! an arbitrary sub-sequence — so [`Spec::step`] produces a *set* of
//! successor states. It writes them into a buffer the caller owns and
//! answers with a [`Step`]: [`Step::Refused`] when the label is not admitted
//! (its precondition fails or its return value is wrong), [`Step::Unchanged`]
//! when the one successor is the state itself — what every admitted query
//! answers, since a query never changes the state — and [`Step::Wrote`]
//! when it appended the successors. A query therefore neither clones a state
//! nor touches the buffer, and an update writes into storage the caller
//! reuses from step to step.
//!
//! The checker explores the resulting state space with a [`Frontier`]: the
//! set of abstract states reachable by some run of the specification over a
//! prefix of labels. A sequence is *admitted* (`seq ∈ Spec`) iff the frontier
//! stays non-empty.

use crate::label::SpecLabel;
use std::fmt::{Debug, Write as _};
use std::hash::{Hash, Hasher};

/// A sequential specification: labels, abstract states, and a transition
/// relation.
pub trait Spec {
    /// Specification label type (already query/update classified).
    type Label: SpecLabel + Clone + Debug;
    /// Abstract state domain `Φ`.
    type State: Clone + Debug + PartialEq;

    /// The initial abstract state `ϕ₀`.
    fn initial(&self) -> Self::State;

    /// The successor states of `state` under `label`.
    ///
    /// Contract:
    ///
    /// * [`Step::Refused`] — no successor (the label is not admitted in
    ///   `state`); nothing was written.
    /// * [`Step::Unchanged`] — the successor set is exactly `{state}`;
    ///   nothing was written. Every query answers this or `Refused`
    ///   (Section 3.2: a query never changes the state), and the engines
    ///   rely on it to admit a query without copying anything.
    /// * [`Step::Wrote`] — the successors, at least one, were *appended* to
    ///   `out`, possibly with repeats (callers deduplicate).
    ///
    /// `step` only ever appends: whatever `out` held before the call is
    /// left as it was, so a caller can collect the successors of many
    /// states into one buffer.
    fn step(&self, state: &Self::State, label: &Self::Label, out: &mut Vec<Self::State>) -> Step;

    /// A 64-bit fingerprint of an abstract state, used by the memoized
    /// checker ([`crate::ralin::search`]) to key search configurations.
    ///
    /// Contract: **equal states (`PartialEq`) must produce equal
    /// fingerprints**. Unequal states *may* collide — the memo table
    /// verifies candidates with full state equality, so collisions only
    /// cost lookups, never soundness.
    ///
    /// The default hashes the `Debug` rendering, which satisfies the
    /// contract for derived `Debug` impls (equal values render
    /// identically). Override with [`fingerprint`] when `State: Hash` —
    /// it avoids formatting and is what every `ral_spec` type does.
    fn state_fingerprint(&self, state: &Self::State) -> u64 {
        let mut h = Fnv64::new();
        let _ = write!(&mut h, "{state:?}");
        h.finish()
    }
}

/// What [`Spec::step`] did: how the successor set of one state under one
/// label was delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The label is not admitted: no successor, nothing written.
    Refused,
    /// The successor set is exactly `{state}`: nothing written, the caller
    /// keeps the state it holds.
    Unchanged,
    /// The successors were appended to the caller's buffer.
    Wrote,
}

impl Step {
    /// A query's answer: [`Step::Unchanged`] if `admitted`, else
    /// [`Step::Refused`].
    pub fn unchanged_if(admitted: bool) -> Step {
        if admitted {
            Step::Unchanged
        } else {
            Step::Refused
        }
    }

    /// Appends the one successor `next` to `out` and answers
    /// [`Step::Wrote`].
    pub fn write<St>(out: &mut Vec<St>, next: St) -> Step {
        out.push(next);
        Step::Wrote
    }
}

// A specification can be used through a shared reference. This is what lets
// the batch search entry points drive a borrowing `Monitor<&S>` without
// taking ownership of the caller's spec. Delegates every method so
// `state_fingerprint` overrides are preserved.
impl<S: Spec> Spec for &S {
    type Label = S::Label;
    type State = S::State;

    fn initial(&self) -> Self::State {
        (**self).initial()
    }

    fn step(&self, state: &Self::State, label: &Self::Label, out: &mut Vec<Self::State>) -> Step {
        (**self).step(state, label, out)
    }

    fn state_fingerprint(&self, state: &Self::State) -> u64 {
        (**self).state_fingerprint(state)
    }
}

/// FNV-1a, 64-bit: the workspace's dependency-free deterministic hasher.
///
/// Used for state fingerprints and memo keys. Unlike
/// `std::collections::hash_map::DefaultHasher`, its output is stable
/// across processes for byte-identical input.
#[derive(Clone, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// A hasher in the standard FNV-1a initial state.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for Fnv64 {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        Hasher::write(self, s.as_bytes());
        Ok(())
    }
}

/// Fingerprints any hashable value with [`Fnv64`] — the fast path for
/// [`Spec::state_fingerprint`] overrides when `State: Hash`.
pub fn fingerprint<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv64::new();
    value.hash(&mut h);
    h.finish()
}

/// SplitMix64's finalizer: a cheap bijective bit mixer, used to spread
/// fingerprints before order-independent combination.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Advances a duplicate-free state *set* by one label into `next`: the
/// union of [`Spec::step`] over every state, deduplicated with `PartialEq`
/// (first occurrence kept, in order). `next` is cleared first and keeps its
/// capacity, so a caller stepping between two buffers allocates only when
/// the set outgrows them. Returns `false` (and leaves `next` empty) when no
/// run admits the label.
///
/// This is the single transition primitive shared by [`Frontier`], the
/// memoized checker, and the incremental monitor
/// ([`crate::ralin::monitor`]) — they all hold bare state slices and step
/// them through here so the dedup discipline (and therefore every
/// canonical hash) is identical across engines.
pub(crate) fn advance_states<S: Spec>(
    spec: &S,
    states: &[S::State],
    label: &S::Label,
    next: &mut Vec<S::State>,
) -> bool {
    next.clear();
    // A fresh buffer is sized to the set it steps from (usually one state)
    // rather than to the four an amortized first push reserves.
    next.reserve_exact(states.len());
    for st in states {
        let from = next.len();
        match spec.step(st, label, next) {
            Step::Refused => {}
            Step::Unchanged => {
                if !next.contains(st) {
                    next.push(st.clone());
                }
            }
            Step::Wrote => {
                let mut i = from;
                while i < next.len() {
                    if next[..i].contains(&next[i]) {
                        next.remove(i);
                    } else {
                        i += 1;
                    }
                }
            }
        }
    }
    !next.is_empty()
}

/// Returns `true` if some state in the set admits `label` (has at least one
/// successor), without advancing. A query answers without writing, so this
/// neither clones a state nor allocates.
pub(crate) fn states_admit<S: Spec>(spec: &S, states: &[S::State], label: &S::Label) -> bool {
    // Written to only if `label` is an update: `Vec::new` allocates nothing.
    let mut sink = Vec::new();
    states
        .iter()
        .any(|st| spec.step(st, label, &mut sink) != Step::Refused)
}

/// An order-independent 64-bit hash of a state *set*: two slices holding the
/// same states in any order hash identically. The canonical-hash half of
/// both search engines' configuration keys; key equality is always verified
/// with [`states_set_eq`] afterwards, so collisions are harmless.
pub(crate) fn states_canonical_hash<S: Spec>(spec: &S, states: &[S::State]) -> u64 {
    let mut sum = 0u64;
    let mut xor = 0u64;
    for st in states {
        let m = mix64(spec.state_fingerprint(st));
        sum = sum.wrapping_add(m);
        xor ^= m.rotate_left(31);
    }
    mix64(sum ^ xor.rotate_left(7) ^ (states.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Set equality of two duplicate-free state slices.
pub(crate) fn states_set_eq<St: PartialEq>(a: &[St], b: &[St]) -> bool {
    a.len() == b.len() && a.iter().all(|st| b.contains(st))
}

/// The set of abstract states reachable by some specification run over the
/// labels fed to [`Frontier::advance`].
///
/// For deterministic specifications the frontier has at most one state; for
/// nondeterministic ones duplicates are pruned with `PartialEq`. The states
/// are double-buffered: an advance steps into the second buffer and swaps,
/// so a warm frontier allocates only for the states an update creates.
pub struct Frontier<'a, S: Spec> {
    spec: &'a S,
    states: Vec<S::State>,
    /// The buffer the next advance writes into; empty between advances.
    next: Vec<S::State>,
}

impl<S: Spec> Clone for Frontier<'_, S> {
    fn clone(&self) -> Self {
        Frontier {
            spec: self.spec,
            states: self.states.clone(),
            next: Vec::new(),
        }
    }
}

impl<S: Spec> Debug for Frontier<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frontier")
            .field("states", &self.states)
            .finish()
    }
}

impl<'a, S: Spec> Frontier<'a, S> {
    /// A frontier containing only the initial state.
    pub fn new(spec: &'a S) -> Self {
        Frontier {
            spec,
            states: vec![spec.initial()],
            next: Vec::new(),
        }
    }

    /// Advances the frontier by one label; returns `false` (and leaves the
    /// frontier empty) if no run admits it.
    pub fn advance(&mut self, label: &S::Label) -> bool {
        let alive = advance_states(self.spec, &self.states, label, &mut self.next);
        std::mem::swap(&mut self.states, &mut self.next);
        self.next.clear();
        alive
    }

    /// Returns `true` if some frontier state admits `label`, without
    /// advancing. Used for justifying queries (condition (iii) of
    /// Definition 3.5).
    pub fn admits(&self, label: &S::Label) -> bool {
        states_admit(self.spec, &self.states, label)
    }

    /// The current frontier states.
    pub fn states(&self) -> &[S::State] {
        &self.states
    }

    /// Returns `true` if no run admits the labels consumed so far.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }
}

/// The frontiers of a depth-first walk's update prefixes, one reusable
/// buffer per depth: advancing steps the top frontier into the buffer
/// above it, popping clears that buffer and keeps its capacity. A walk that
/// revisits a depth allocates nothing for it — the shared frontier discipline
/// of the batch engines ([`crate::ralin::search`], the naive search,
/// [`crate::linearizability`]).
pub(crate) struct FrontierStack<St> {
    bufs: Vec<Vec<St>>,
    top: usize,
}

impl<St: Clone + PartialEq> FrontierStack<St> {
    /// A stack holding the initial frontier `{initial}`.
    pub(crate) fn new(initial: St) -> Self {
        FrontierStack {
            bufs: vec![vec![initial]],
            top: 0,
        }
    }

    /// The current (top) frontier.
    pub(crate) fn top(&self) -> &[St] {
        &self.bufs[self.top]
    }

    /// Pushes the top frontier advanced by `label`; returns `false` and
    /// pushes nothing if no run admits it.
    pub(crate) fn push_advanced<S: Spec<State = St>>(
        &mut self,
        spec: &S,
        label: &S::Label,
    ) -> bool {
        if self.bufs.len() == self.top + 1 {
            self.bufs.push(Vec::new());
        }
        let (below, above) = self.bufs.split_at_mut(self.top + 1);
        let alive = advance_states(spec, &below[self.top], label, &mut above[0]);
        if alive {
            self.top += 1;
        }
        alive
    }

    /// Pops the top frontier (never the initial one).
    pub(crate) fn pop(&mut self) {
        debug_assert!(self.top > 0, "the initial frontier stays");
        self.bufs[self.top].clear();
        self.top -= 1;
    }
}

/// Returns `true` if the label sequence is admitted by the specification
/// (`seq ∈ Spec`).
pub fn admits<'l, S: Spec>(spec: &S, seq: impl IntoIterator<Item = &'l S::Label>) -> bool
where
    S::Label: 'l,
{
    let mut f = Frontier::new(spec);
    for l in seq {
        if !f.advance(l) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Kind;

    /// A register whose write is nondeterministic: it may round up by one.
    struct Fuzzy;

    #[derive(Clone, Debug, PartialEq)]
    enum L {
        Write(i64),
        Read(i64),
    }

    impl SpecLabel for L {
        fn kind(&self) -> Kind {
            match self {
                L::Write(_) => Kind::Update,
                L::Read(_) => Kind::Query,
            }
        }
    }

    impl Spec for Fuzzy {
        type Label = L;
        type State = i64;
        fn initial(&self) -> i64 {
            0
        }
        fn step(&self, s: &i64, l: &L, out: &mut Vec<i64>) -> Step {
            match l {
                L::Write(v) => {
                    out.extend([*v, *v + 1]);
                    Step::Wrote
                }
                L::Read(v) => Step::unchanged_if(v == s),
            }
        }
    }

    #[test]
    fn frontier_tracks_nondeterminism() {
        let spec = Fuzzy;
        let mut f = Frontier::new(&spec);
        assert!(f.advance(&L::Write(10)));
        assert_eq!(f.states().len(), 2);
        assert!(f.admits(&L::Read(10)));
        assert!(f.admits(&L::Read(11)));
        assert!(!f.admits(&L::Read(12)));
    }

    #[test]
    fn frontier_dedups() {
        let spec = Fuzzy;
        let mut f = Frontier::new(&spec);
        f.advance(&L::Write(5));
        f.advance(&L::Write(5));
        // {5,6} x write(5) = {5,6} again, deduplicated
        assert_eq!(f.states().len(), 2);
    }

    /// A write that lists some successors twice.
    struct Stutter;

    impl Spec for Stutter {
        type Label = L;
        type State = i64;
        fn initial(&self) -> i64 {
            0
        }
        fn step(&self, s: &i64, l: &L, out: &mut Vec<i64>) -> Step {
            match l {
                L::Write(v) => {
                    out.extend([*v, *v + 1, *v, *v + 2, *v + 1]);
                    Step::Wrote
                }
                L::Read(v) => Step::unchanged_if(v == s),
            }
        }
    }

    #[test]
    fn one_state_steps_to_its_successors_deduplicated_in_order() {
        let spec = Stutter;
        let mut f = Frontier::new(&spec);
        assert!(f.advance(&L::Read(0)));
        assert_eq!(f.states(), &[0]);
        assert!(f.advance(&L::Write(4)));
        assert_eq!(f.states(), &[4, 5, 6]);
        // Three states: the general path, same discipline.
        assert!(f.advance(&L::Write(1)));
        assert_eq!(f.states(), &[1, 2, 3]);
    }

    #[test]
    fn step_appends_and_a_query_writes_nothing() {
        let mut out = vec![7];
        assert_eq!(Stutter.step(&0, &L::Read(0), &mut out), Step::Unchanged);
        assert_eq!(Stutter.step(&0, &L::Read(1), &mut out), Step::Refused);
        assert_eq!(out, [7]);
        assert_eq!(Fuzzy.step(&0, &L::Write(3), &mut out), Step::Wrote);
        assert_eq!(out, [7, 3, 4]);
        // Two states, one refusing: the survivors, deduplicated across
        // states, overwrite whatever the buffer held.
        assert!(advance_states(&Stutter, &[4, 5], &L::Read(5), &mut out));
        assert_eq!(out, [5]);
        assert!(advance_states(&Fuzzy, &[1, 2], &L::Write(1), &mut out));
        assert_eq!(out, [1, 2]);
        assert!(!advance_states(&Fuzzy, &[1, 2], &L::Read(3), &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn frontier_stack_reuses_one_buffer_per_depth() {
        let mut fs = FrontierStack::new(0i64);
        assert!(fs.push_advanced(&Fuzzy, &L::Write(1)));
        assert_eq!(fs.top(), &[1, 2]);
        assert!(
            !fs.push_advanced(&Fuzzy, &L::Read(3)),
            "a dead frontier is not pushed"
        );
        assert_eq!(fs.top(), &[1, 2]);
        let depth1 = fs.bufs[1].as_ptr();
        fs.pop();
        assert_eq!(fs.top(), &[0]);
        assert!(fs.push_advanced(&Fuzzy, &L::Write(5)));
        assert_eq!((fs.top(), fs.bufs[1].as_ptr()), (&[5, 6][..], depth1));
    }

    #[test]
    fn admits_sequences() {
        let spec = Fuzzy;
        assert!(admits(&spec, &[L::Write(1), L::Read(2)]));
        assert!(!admits(&spec, &[L::Write(1), L::Read(3)]));
        assert!(admits(&spec, &[]));
    }

    #[test]
    fn rejection_is_sticky() {
        let spec = Fuzzy;
        let mut f = Frontier::new(&spec);
        assert!(!f.advance(&L::Read(9)));
        assert!(f.is_empty());
        assert!(!f.advance(&L::Write(9)));
    }

    #[test]
    fn state_fingerprint_default_respects_equality() {
        let spec = Fuzzy;
        assert_eq!(spec.state_fingerprint(&42), spec.state_fingerprint(&42));
        assert_ne!(spec.state_fingerprint(&42), spec.state_fingerprint(&43));
        // The Hash-based fast path agrees with itself, too.
        assert_eq!(fingerprint(&42i64), fingerprint(&42i64));
        assert_ne!(fingerprint(&42i64), fingerprint(&43i64));
    }

    /// A spec whose write order permutes the frontier's state vector: the
    /// canonical hash and set equality must not care.
    struct TwoWay;

    impl Spec for TwoWay {
        type Label = L;
        type State = i64;
        fn initial(&self) -> i64 {
            0
        }
        fn step(&self, s: &i64, l: &L, out: &mut Vec<i64>) -> Step {
            match l {
                // Successors listed argument-first, so `write(5)` yields
                // the frontier `[5, -5]` and `write(-5)` yields `[-5, 5]`:
                // same set, different order.
                L::Write(v) => {
                    out.extend([*v, -*v]);
                    Step::Wrote
                }
                L::Read(v) => Step::unchanged_if(v == s),
            }
        }
    }

    #[test]
    fn canonical_hash_is_order_independent() {
        let spec = TwoWay;
        let mut a = Frontier::new(&spec);
        let mut b = Frontier::new(&spec);
        a.advance(&L::Write(5)); // states [5, -5]
        b.advance(&L::Write(-5)); // states [-5, 5]
        let hash = |f: &Frontier<'_, TwoWay>| states_canonical_hash(&spec, f.states());
        assert!(states_set_eq(a.states(), b.states()));
        assert_eq!(hash(&a), hash(&b));
        let mut c = Frontier::new(&spec);
        c.advance(&L::Write(6));
        assert!(!states_set_eq(a.states(), c.states()));
        assert_ne!(hash(&a), hash(&c));
    }
}
