//! The structural-coverage map: a fixed vocabulary of scenario/run
//! features whose novelty drives corpus admission and mutation.
//!
//! Dimensions are *structural*, not line-based: they describe the shape of
//! the concurrency the run produced (partition depth, crash-during-
//! partition, cross-object interleaving, delta resyncs, …) — the shapes
//! the paper's anomalies live in. A run's dimension set is computed by the
//! oracle from the scenario, the engine's counters and the history, so it
//! is as deterministic as the run itself.

use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Names of every structural-coverage dimension, in index order.
///
/// The report and the rendered map both use this order; appending is fine,
/// reordering is a format break.
pub const DIMENSIONS: [&str; 26] = [
    "replicas_2",
    "replicas_3_4",
    "replicas_5_plus",
    "topology_uniform",
    "topology_dc",
    "partition_single",
    "partition_multi",
    "partition_3way",
    "crash_bounce",
    "crash_permanent",
    "crash_during_partition",
    "faults_drop",
    "faults_dup",
    "reorder_held",
    "retry_recovery",
    "family_op",
    "family_state",
    "family_delta",
    "family_multi",
    "ts_shared",
    "ts_per_object",
    "multi_objects_2plus",
    "cross_object_interleave",
    "delta_resync",
    "delta_gc",
    "concurrency_width_4plus",
];

/// Index of a dimension name (compile-time table, index by constant).
pub fn dim(name: &str) -> usize {
    DIMENSIONS
        .iter()
        .position(|d| *d == name)
        .unwrap_or_else(|| panic!("unknown coverage dimension {name:?}"))
}

/// Hit counts per dimension plus the set of distinct dimension-signatures
/// seen (which exact combination of dimensions one run lit up).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoverageMap {
    counts: Vec<u64>,
    signatures: BTreeSet<u64>,
}

impl Default for CoverageMap {
    fn default() -> Self {
        CoverageMap::new()
    }
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> Self {
        CoverageMap {
            counts: vec![0; DIMENSIONS.len()],
            signatures: BTreeSet::new(),
        }
    }

    /// Records one run's dimension set. Returns `(newly_hit, new_signature)`:
    /// how many dimensions went from zero to nonzero, and whether this exact
    /// combination had never been seen.
    pub fn record(&mut self, dims: &[usize]) -> (usize, bool) {
        let mut newly = 0;
        let mut sig = 0u64;
        for &d in dims {
            sig |= 1 << d;
            if self.counts[d] == 0 {
                newly += 1;
            }
            self.counts[d] += 1;
        }
        let new_sig = self.signatures.insert(sig);
        (newly, new_sig)
    }

    /// Number of dimensions hit at least once.
    pub fn hit(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Fraction of dimensions hit, in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        self.hit() as f64 / DIMENSIONS.len() as f64
    }

    /// Number of distinct dimension-signatures seen.
    pub fn signatures(&self) -> usize {
        self.signatures.len()
    }

    /// Hit count of one dimension by name.
    pub fn count(&self, name: &str) -> u64 {
        self.counts[dim(name)]
    }

    /// Iterates `(name, count)` in index order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        DIMENSIONS.iter().copied().zip(self.counts.iter().copied())
    }

    /// Byte-stable text rendering (one `name count` line per dimension),
    /// used by the determinism fixture.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, count) in self.iter() {
            let _ = writeln!(out, "{name} {count}");
        }
        let _ = writeln!(out, "signatures {}", self.signatures());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_tracks_novelty_and_signatures() {
        let mut map = CoverageMap::new();
        let (newly, new_sig) = map.record(&[0, 3, 5]);
        assert_eq!(newly, 3);
        assert!(new_sig);
        let (newly, new_sig) = map.record(&[0, 3, 5]);
        assert_eq!(newly, 0, "already hit");
        assert!(!new_sig, "same combination");
        let (newly, new_sig) = map.record(&[0, 4]);
        assert_eq!(newly, 1);
        assert!(new_sig);
        assert_eq!(map.hit(), 4);
        assert_eq!(map.signatures(), 2);
        assert_eq!(map.count("topology_uniform"), 2);
    }

    #[test]
    fn render_is_stable_and_complete() {
        let mut map = CoverageMap::new();
        map.record(&[dim("replicas_2"), dim("family_op")]);
        let text = map.render();
        assert_eq!(text.lines().count(), DIMENSIONS.len() + 1);
        assert!(text.contains("replicas_2 1\n"));
        assert!(text.contains("family_state 0\n"));
        assert_eq!(map.render(), text);
    }

    #[test]
    fn all_dimension_names_resolve() {
        for (i, name) in DIMENSIONS.iter().enumerate() {
            assert_eq!(dim(name), i);
        }
    }
}
