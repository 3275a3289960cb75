//! What the RA-linearizability engines share without depending on each
//! other: the canonical configuration key and label-sequence replay.
//!
//! A configuration — placed-operation mask, specification frontier, one
//! justification frontier per pending query — is keyed the same way by the
//! batch walk's failed-configuration table ([`super::memo`]) and the
//! streaming monitor's live-set index ([`super::monitor`]): start from
//! [`CONFIG_KEY_SEED`] and fold the parts in with the helpers below. The
//! replay helpers are the per-object admissibility check of
//! [`super::sharded`].

use std::hash::{BuildHasherDefault, Hasher};

use crate::spec::{advance_states, mix64, states_admit, Spec};

/// Seed of the canonical configuration key (the FNV-64 offset basis, shared
/// with [`crate::spec::fingerprint`]).
pub(crate) const CONFIG_KEY_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one placement-mask word into a configuration key.
pub(crate) fn fold_mask_word(key: u64, word: u64) -> u64 {
    mix64(key ^ word)
}

/// Folds the canonical hash of the main spec frontier (or, in the monitor,
/// of the absorbed base states) into a configuration key.
pub(crate) fn fold_frontier_hash(key: u64, frontier_hash: u64) -> u64 {
    mix64(key ^ frontier_hash)
}

/// Folds one pending query's justification frontier into a configuration
/// key. The rotation decorrelates it from the main frontier fold.
pub(crate) fn fold_query_frontier(key: u64, query: usize, qfront_hash: u64) -> u64 {
    mix64(key ^ (query as u64) ^ qfront_hash.rotate_left(17))
}

/// Hasher of a table keyed by finished configuration keys: the last fold of
/// every key is a [`mix64`], so the key serves as its own hash.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`std::hash::BuildHasher`] of [`KeyHasher`].
pub(crate) type BuildKeyHasher = BuildHasherDefault<KeyHasher>;

/// Replays `updates` from the initial state, returning the reachable state
/// set, or `None` if the sequence is not admitted by `spec`. Shared by the
/// per-shard admissibility checks in [`super::sharded`].
pub(crate) fn replay_updates<'l, S, I>(spec: &S, updates: I) -> Option<Vec<S::State>>
where
    S: Spec,
    I: IntoIterator<Item = &'l S::Label>,
    S::Label: 'l,
{
    let mut states = vec![spec.initial()];
    for l in updates {
        states = advance_states(spec, &states, l);
        if states.is_empty() {
            return None;
        }
    }
    Some(states)
}

/// Returns `true` if `updates` is admitted by `spec` and every label of
/// `queries` is admitted by some state reached — the shape of every
/// `ShardableSpec::admits_shard` implementation: one replay, however many
/// queries share the sequence.
pub(crate) fn replay_admits<'l, S, U, Q>(spec: &S, updates: U, queries: Q) -> bool
where
    S: Spec,
    U: IntoIterator<Item = &'l S::Label>,
    Q: IntoIterator<Item = &'l S::Label>,
    S::Label: 'l,
{
    replay_updates(spec, updates)
        .is_some_and(|states| queries.into_iter().all(|q| states_admit(spec, &states, q)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{Kind, SpecLabel};

    /// A flag that can be set exactly once.
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
        fn step(&self, s: &bool, l: &O) -> Vec<bool> {
            match l {
                O::Set if !s => vec![true],
                O::Set => vec![],
                O::IsSet(k) if k == s => vec![*s],
                O::IsSet(_) => vec![],
            }
        }
    }

    #[test]
    fn replay_helpers_admit_and_refute() {
        let set = O::Set;
        let (yes, no) = (O::IsSet(true), O::IsSet(false));
        assert!(replay_admits(&OnceSpec, [&set], [&yes, &yes]));
        assert!(!replay_admits(&OnceSpec, [&set], [&yes, &no]));
        assert!(!replay_admits(&OnceSpec, [], [&yes]));
        assert!(!replay_admits(&OnceSpec, [&set, &set], []));
    }
}
