//! The per-link network model: topologies, latency distributions, and
//! link-level fault probabilities.
//!
//! Latencies are sampled from [`ral_core::rng`], so a link's behaviour — and
//! therefore every reordering it induces — is a pure function of the
//! simulation seed. Drop and duplication probabilities apply only to
//! transports that tolerate them (state-based merge propagation,
//! Appendix D.2); the engine keeps op-based links loss-free to preserve
//! causal delivery (Section 3.1).

use ral_core::ids::ReplicaId;
use ral_core::rng::Rng;

/// A latency distribution: `base + uniform(0..=jitter)` ticks.
///
/// Uniform jitter is deliberately wide-tailed enough to reorder messages on
/// a link (two sends 1 tick apart with `jitter > 1` can arrive swapped)
/// while staying trivially seeded-deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Latency {
    /// Minimum delay in ticks.
    pub base: u64,
    /// Additional uniform jitter in ticks (inclusive upper bound).
    pub jitter: u64,
}

impl Latency {
    /// A fixed delay with no jitter.
    pub const fn fixed(base: u64) -> Self {
        Latency { base, jitter: 0 }
    }

    /// A jittered delay.
    pub const fn jittered(base: u64, jitter: u64) -> Self {
        Latency { base, jitter }
    }

    /// Samples one delay.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        if self.jitter == 0 {
            self.base
        } else {
            self.base + rng.random_range(0..=self.jitter)
        }
    }
}

/// Link-level fault probabilities, applied per message per destination.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFaults {
    /// Probability a message is silently lost.
    pub drop: f64,
    /// Probability a message is delivered a second time (later).
    pub duplicate: f64,
}

impl LinkFaults {
    /// A perfect link: no loss, no duplication.
    pub const NONE: LinkFaults = LinkFaults {
        drop: 0.0,
        duplicate: 0.0,
    };
}

/// Who is directly linked to whom, and how slow each link is.
///
/// Every topology is a complete graph of links (messages never route through
/// intermediaries); what varies is the latency class of each pair.
#[derive(Clone, Debug)]
pub enum Topology {
    /// Every pair of replicas shares one latency distribution.
    Uniform(Latency),
    /// Replicas grouped into data centers: fast intra-DC links, slow
    /// inter-DC links. `dc_of[r]` is the data center of replica `r`.
    DataCenters {
        /// Data-center id per replica.
        dc_of: Vec<u32>,
        /// Latency between replicas of the same data center.
        intra: Latency,
        /// Latency between replicas of different data centers.
        inter: Latency,
    },
}

impl Topology {
    /// The latency distribution of the `from → to` link.
    pub fn link(&self, from: ReplicaId, to: ReplicaId) -> Latency {
        match self {
            Topology::Uniform(l) => *l,
            Topology::DataCenters {
                dc_of,
                intra,
                inter,
            } => {
                if dc_of[from.0 as usize] == dc_of[to.0 as usize] {
                    *intra
                } else {
                    *inter
                }
            }
        }
    }

    /// Number of replicas the topology must cover, if it constrains one
    /// (`DataCenters` does; `Uniform` fits any cluster).
    pub fn n_replicas(&self) -> Option<usize> {
        match self {
            Topology::Uniform(_) => None,
            Topology::DataCenters { dc_of, .. } => Some(dc_of.len()),
        }
    }
}

/// The full network model of a scenario.
#[derive(Clone, Debug)]
pub struct Network {
    /// Link layout and latencies.
    pub topology: Topology,
    /// Fault probabilities on loss-tolerant transports.
    pub faults: LinkFaults,
    /// Retransmission delay, in ticks, for *reliable* transports whose
    /// message met a cut link or a crashed receiver: the message is not
    /// lost, it retries until it lands.
    pub retry: u64,
}

impl Network {
    /// A perfect network with the given topology (no faults, fast retry).
    pub fn perfect(topology: Topology) -> Self {
        Network {
            topology,
            faults: LinkFaults::NONE,
            retry: 10,
        }
    }

    /// The longest delay any link can sample.
    pub fn max_delay(&self) -> u64 {
        let max = |l: &Latency| l.base.saturating_add(l.jitter);
        match &self.topology {
            Topology::Uniform(l) => max(l),
            Topology::DataCenters { intra, inter, .. } => max(intra).max(max(inter)),
        }
    }

    /// Samples the delay of one `from → to` transmission.
    pub fn delay(&self, rng: &mut Rng, from: ReplicaId, to: ReplicaId) -> u64 {
        self.topology.link(from, to).sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> ReplicaId {
        ReplicaId(i)
    }

    #[test]
    fn latency_samples_stay_in_range() {
        let mut rng = Rng::seed_from_u64(1);
        let l = Latency::jittered(10, 5);
        for _ in 0..200 {
            let d = l.sample(&mut rng);
            assert!((10..=15).contains(&d), "{d} out of 10..=15");
        }
        assert_eq!(Latency::fixed(3).sample(&mut rng), 3);
        let most = |l| Network::perfect(Topology::Uniform(l)).max_delay();
        assert_eq!(most(l), 15);
        assert_eq!(most(Latency::jittered(u64::MAX, 1)), u64::MAX);
    }

    #[test]
    fn datacenter_topology_distinguishes_links() {
        let topo = Topology::DataCenters {
            dc_of: vec![0, 0, 1],
            intra: Latency::fixed(1),
            inter: Latency::fixed(60),
        };
        assert_eq!(topo.link(r(0), r(1)), Latency::fixed(1));
        assert_eq!(topo.link(r(0), r(2)), Latency::fixed(60));
        assert_eq!(topo.n_replicas(), Some(3));
        assert_eq!(Network::perfect(topo).max_delay(), 60);
        assert_eq!(Topology::Uniform(Latency::fixed(5)).n_replicas(), None);
    }
}
