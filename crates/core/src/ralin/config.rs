//! What the RA-linearizability engines share without depending on each
//! other: the canonical configuration key and label-sequence replay.
//!
//! A configuration — placed-operation mask, specification frontier, one
//! justification frontier per pending query — is keyed the same way by the
//! batch walk's failed-configuration table ([`super::memo`]) and the
//! streaming monitor's live-set index ([`super::monitor`]): start from
//! [`CONFIG_KEY_SEED`] and fold the parts in with the helpers below. The
//! replay helper is the per-object admissibility check of
//! [`super::sharded`].

use std::hash::{BuildHasherDefault, Hasher};

use crate::spec::{mix64, Frontier, Spec};

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

/// Returns `true` if `updates` is admitted by `spec` and every label of
/// `queries` is admitted by some state reached — the shape of every
/// `ShardableSpec::admits_shard` implementation: one replay through one
/// double-buffered [`Frontier`], however many queries share the sequence.
pub(crate) fn replay_admits<'l, S, U, Q>(spec: &S, updates: U, queries: Q) -> bool
where
    S: Spec,
    U: IntoIterator<Item = &'l S::Label>,
    Q: IntoIterator<Item = &'l S::Label>,
    S::Label: 'l,
{
    let mut frontier = Frontier::new(spec);
    updates.into_iter().all(|l| frontier.advance(l))
        && queries.into_iter().all(|q| frontier.admits(q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{Kind, SpecLabel};
    use crate::spec::Step;

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
        fn step(&self, s: &bool, l: &O, out: &mut Vec<bool>) -> Step {
            match l {
                O::Set if !s => Step::write(out, true),
                O::Set => Step::Refused,
                O::IsSet(k) => Step::unchanged_if(k == s),
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
