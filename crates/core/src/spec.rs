//! Sequential specifications (Section 3.2).
//!
//! A specification is presented operationally: an abstract state domain `Φ`,
//! an initial state `ϕ₀`, and a transition relation `ϕ —ℓ→ ϕ′` per label.
//! Transitions may be *nondeterministic* — Wooki's `addBetween(a,b,c)`
//! inserts at any position between `a` and `c`, and `Spec(addAt3)` observes
//! an arbitrary sub-sequence — so [`Spec::step`] returns the set of successor
//! states; an empty set means the label is not admitted (its precondition
//! fails or its return value is wrong).
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

    /// All successor states of `state` under `label`; empty when the label is
    /// not admitted in `state`.
    fn step(&self, state: &Self::State, label: &Self::Label) -> Vec<Self::State>;

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

    fn step(&self, state: &Self::State, label: &Self::Label) -> Vec<Self::State> {
        (**self).step(state, label)
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

/// Advances a duplicate-free state *set* by one label: the union of
/// [`Spec::step`] over every state, deduplicated with `PartialEq`. An empty
/// result means no run admits the label.
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
) -> Vec<S::State> {
    if let [state] = states {
        // One state — every run of a deterministic specification: its
        // successor set is the result, deduplicated in place.
        let mut next = spec.step(state, label);
        let mut i = 1;
        while i < next.len() {
            if next[..i].contains(&next[i]) {
                next.remove(i);
            } else {
                i += 1;
            }
        }
        return next;
    }
    let mut next: Vec<S::State> = Vec::new();
    for st in states {
        for succ in spec.step(st, label) {
            if !next.contains(&succ) {
                next.push(succ);
            }
        }
    }
    next
}

/// Returns `true` if some state in the set admits `label` (has at least one
/// successor), without advancing.
pub(crate) fn states_admit<S: Spec>(spec: &S, states: &[S::State], label: &S::Label) -> bool {
    states.iter().any(|st| !spec.step(st, label).is_empty())
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
/// nondeterministic ones duplicates are pruned with `PartialEq`.
pub struct Frontier<'a, S: Spec> {
    spec: &'a S,
    states: Vec<S::State>,
}

impl<S: Spec> Clone for Frontier<'_, S> {
    fn clone(&self) -> Self {
        Frontier {
            spec: self.spec,
            states: self.states.clone(),
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
        }
    }

    /// Advances the frontier by one label; returns `false` (and leaves the
    /// frontier empty) if no run admits it.
    pub fn advance(&mut self, label: &S::Label) -> bool {
        self.states = advance_states(self.spec, &self.states, label);
        !self.states.is_empty()
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

    /// An order-independent 64-bit hash of the frontier's state *set*: two
    /// frontiers holding the same states in any order hash identically.
    ///
    /// This is the canonical-hash half of the memoized checker's
    /// configuration key; equality of keys is later verified with
    /// [`Frontier::states_set_eq`], so hash collisions are harmless.
    pub fn canonical_hash(&self) -> u64 {
        states_canonical_hash(self.spec, &self.states)
    }

    /// Returns `true` if this frontier holds exactly the states in `other`
    /// (as sets; both sides are duplicate-free by construction).
    pub fn states_set_eq(&self, other: &[S::State]) -> bool {
        states_set_eq(&self.states, other)
    }

    /// Returns `true` if no run admits the labels consumed so far.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
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
        fn step(&self, s: &i64, l: &L) -> Vec<i64> {
            match l {
                L::Write(v) => vec![*v, *v + 1],
                L::Read(v) if v == s => vec![*s],
                L::Read(_) => vec![],
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
        fn step(&self, s: &i64, l: &L) -> Vec<i64> {
            match l {
                L::Write(v) => vec![*v, *v + 1, *v, *v + 2, *v + 1],
                L::Read(v) if v == s => vec![*s, *s],
                L::Read(_) => vec![],
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
        fn step(&self, s: &i64, l: &L) -> Vec<i64> {
            match l {
                // Successors listed argument-first, so `write(5)` yields
                // the frontier `[5, -5]` and `write(-5)` yields `[-5, 5]`:
                // same set, different order.
                L::Write(v) => vec![*v, -*v],
                L::Read(v) if v == s => vec![*s],
                L::Read(_) => vec![],
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
        assert!(a.states_set_eq(b.states()));
        assert_eq!(a.canonical_hash(), b.canonical_hash());
        let mut c = Frontier::new(&spec);
        c.advance(&L::Write(6));
        assert!(!a.states_set_eq(c.states()));
        assert_ne!(a.canonical_hash(), c.canonical_hash());
    }
}
