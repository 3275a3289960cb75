//! The named scenario corpus.
//!
//! Each scenario is a complete [`SimConfig`] with a stable name, usable
//! with any cluster kind. The corpus covers the delivery environments the
//! paper reasons about:
//!
//! | name               | shape                                             | paper hook |
//! |--------------------|---------------------------------------------------|------------|
//! | `geo_3dc`          | 9 replicas in 3 DCs, 1–3 tick intra, 40–100 inter | §1 geo-replication motivation |
//! | `flaky_wan`        | 5 replicas, heavy jitter, 25% drop, 20% dup       | App. D.2 loss/dup/reorder tolerance |
//! | `rolling_restart`  | 6 replicas crash-restarted one after another      | crash-recovery durability |
//! | `split_brain_heal` | 6 replicas, 3/3 partition, heal, re-split 2/2/2   | §1 availability under partition |
//! | `delta_wan`        | 8 replicas, loss + dup + long 4/4 split + crash   | delta-transport stress: retransmission, GC starvation, resync |
//! | `multi_mix`        | 50 replicas on composed objects, split + crashes  | §5 composition at scale; sharded-checker workload |
//! | `gossip_50`        | 50 replicas, light faults — the scaling scenario  | "large enough to matter" benchmarking |
//! | `lan_tight`        | 4 replicas, 1–2 tick LAN, no faults               | streaming-monitor settlement regime |
//!
//! All parameters are fixed constants: a scenario never samples its own
//! shape, so `(scenario, seed)` fully determines a run.

use crate::fault::{CrashPlan, FaultPlan, PartitionWindow};
use crate::network::{Latency, LinkFaults, Network, Topology};
use crate::sim::SimConfig;
use crate::time::SimTime;
use ral_core::ids::ReplicaId;

/// A named, reusable simulation configuration.
///
/// # Examples
///
/// ```
/// use ral_sim::scenario;
///
/// let sc = scenario::by_name("flaky_wan").unwrap();
/// assert_eq!(sc.cfg.n_replicas, 5);
/// sc.cfg.validate();
/// // The whole corpus, in its stable order:
/// let names: Vec<&str> = scenario::all().iter().map(|s| s.name).collect();
/// assert!(names.contains(&"delta_wan"));
/// ```
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable name (used by tests, benches, and reports).
    pub name: &'static str,
    /// One-line description for reports.
    pub about: &'static str,
    /// The configuration to run.
    pub cfg: SimConfig,
}

/// Three geo-replicated data centers: three replicas each, fast local
/// links, slow wide-area links. No faults — latency asymmetry alone is
/// enough to produce deep visibility concurrency.
pub fn geo_3dc() -> Scenario {
    Scenario {
        name: "geo_3dc",
        about: "9 replicas across 3 data centers; 1-3 tick LAN, 40-100 tick WAN",
        cfg: SimConfig {
            n_replicas: 9,
            duration: SimTime(1_500),
            invoke_every: Latency::jittered(30, 40),
            gossip_every: Latency::jittered(25, 30),
            network: Network {
                topology: Topology::DataCenters {
                    dc_of: vec![0, 0, 0, 1, 1, 1, 2, 2, 2],
                    intra: Latency::jittered(1, 2),
                    inter: Latency::jittered(40, 60),
                },
                faults: LinkFaults::NONE,
                retry: 20,
            },
            faults: FaultPlan::none(),
            final_sync: true,
        },
    }
}

/// A flaky wide-area network: latency jitter wide enough to reorder almost
/// every pair of messages, a quarter of snapshots lost, a fifth duplicated.
/// This is Appendix D.2's adversarial environment; state-based merges must
/// shrug it off, and op-based transports (which the engine keeps reliable)
/// see only the reordering.
pub fn flaky_wan() -> Scenario {
    Scenario {
        name: "flaky_wan",
        about: "5 replicas; 10-170 tick jitter, 25% drop, 20% duplication",
        cfg: SimConfig {
            n_replicas: 5,
            duration: SimTime(1_500),
            invoke_every: Latency::jittered(25, 30),
            gossip_every: Latency::jittered(20, 25),
            network: Network {
                topology: Topology::Uniform(Latency::jittered(10, 160)),
                faults: LinkFaults {
                    drop: 0.25,
                    duplicate: 0.20,
                },
                retry: 15,
            },
            faults: FaultPlan::none(),
            final_sync: true,
        },
    }
}

/// A rolling restart: the six replicas crash and recover one after
/// another, as a deployment rollout would. State-based replicas recover
/// from their durable checkpoint and re-merge; op-based replicas find
/// their undelivered effectors buffered by the transport.
pub fn rolling_restart() -> Scenario {
    let crashes = (0..6)
        .map(|i| {
            CrashPlan::bounce(
                ReplicaId(i as u32),
                SimTime(150 + 250 * i),
                SimTime(300 + 250 * i),
            )
        })
        .collect();
    Scenario {
        name: "rolling_restart",
        about: "6 replicas bounced in sequence, 150-tick outages",
        cfg: SimConfig {
            n_replicas: 6,
            duration: SimTime(1_900),
            invoke_every: Latency::jittered(25, 30),
            gossip_every: Latency::jittered(20, 25),
            network: Network {
                topology: Topology::Uniform(Latency::jittered(3, 10)),
                faults: LinkFaults::NONE,
                retry: 10,
            },
            faults: FaultPlan {
                partitions: vec![],
                crashes,
            },
            final_sync: true,
        },
    }
}

/// A split-brain that heals, then a different split: first 3|3 by halves,
/// later 2|2|2 interleaved. Both sides keep accepting writes throughout
/// (the CAP scenario of Section 1); reconciliation happens on healing.
pub fn split_brain_heal() -> Scenario {
    Scenario {
        name: "split_brain_heal",
        about: "6 replicas; 3|3 split t300-t900, 2|2|2 re-split t1200-t1500",
        cfg: SimConfig {
            n_replicas: 6,
            duration: SimTime(1_800),
            invoke_every: Latency::jittered(25, 30),
            gossip_every: Latency::jittered(20, 25),
            network: Network {
                topology: Topology::Uniform(Latency::jittered(3, 10)),
                faults: LinkFaults::NONE,
                retry: 12,
            },
            faults: FaultPlan {
                partitions: vec![
                    PartitionWindow::new(SimTime(300), SimTime(900), vec![0, 0, 0, 1, 1, 1]),
                    PartitionWindow::new(SimTime(1_200), SimTime(1_500), vec![0, 1, 2, 0, 1, 2]),
                ],
                crashes: vec![],
            },
            final_sync: true,
        },
    }
}

/// The delta-transport stress scenario: a lossy WAN *plus* a prolonged
/// 4|4 partition and a crash bounce. Dropped batches must be recovered by
/// ack-driven retransmission; the long partition starves acks until
/// buffers hit the resync horizon; the crash regresses a replica's applied
/// prefix past the garbage-collected horizon, forcing a full-state resync.
/// Full-state transports see the same network and simply pay for it in
/// snapshot bytes.
pub fn delta_wan() -> Scenario {
    Scenario {
        name: "delta_wan",
        about: "8 replicas; 10-120 tick jitter, 20% drop, 15% dup, 4|4 split t400-t1000, crash t1100-t1250",
        cfg: SimConfig {
            n_replicas: 8,
            duration: SimTime(1_600),
            invoke_every: Latency::jittered(25, 30),
            gossip_every: Latency::jittered(20, 25),
            network: Network {
                topology: Topology::Uniform(Latency::jittered(10, 110)),
                faults: LinkFaults {
                    drop: 0.20,
                    duplicate: 0.15,
                },
                retry: 15,
            },
            faults: FaultPlan {
                partitions: vec![PartitionWindow::new(
                    SimTime(400),
                    SimTime(1_000),
                    vec![0, 0, 0, 0, 1, 1, 1, 1],
                )],
                crashes: vec![CrashPlan::bounce(
                    ReplicaId(2),
                    SimTime(1_100),
                    SimTime(1_250),
                )],
            },
            final_sync: true,
        },
    }
}

/// The composed-object stress scenario: 50 replicas driving many objects
/// of one data type through a [`MultiCluster`](ral_runtime::multi), under
/// a 25|25 split and staggered crash bounces. Tests run it at 32 objects
/// in **both** timestamp disciplines (`⊗ts` shared and `⊗` per-object) —
/// the workload the sharded compositional checker exists for, and the
/// delivery volume (thousands of per-object-causal effectors fanning out
/// to 49 peers each) that motivated the linear `deliver_all` drain.
pub fn multi_mix() -> Scenario {
    Scenario {
        name: "multi_mix",
        about: "50 replicas on composed objects; 25|25 split t300-t600, 3 staggered crash bounces",
        cfg: SimConfig {
            n_replicas: 50,
            duration: SimTime(1_200),
            invoke_every: Latency::jittered(20, 20),
            gossip_every: Latency::jittered(25, 25),
            network: Network {
                topology: Topology::Uniform(Latency::jittered(5, 20)),
                faults: LinkFaults::NONE,
                retry: 30,
            },
            faults: FaultPlan {
                partitions: vec![PartitionWindow::new(
                    SimTime(300),
                    SimTime(600),
                    (0..50u32).map(|i| i % 2).collect(),
                )],
                crashes: vec![
                    CrashPlan::bounce(ReplicaId(7), SimTime(650), SimTime(800)),
                    CrashPlan::bounce(ReplicaId(23), SimTime(700), SimTime(850)),
                    CrashPlan::bounce(ReplicaId(41), SimTime(750), SimTime(900)),
                ],
            },
            final_sync: true,
        },
    }
}

/// The scaling scenario at its headline size — the named corpus entry.
pub fn gossip_50() -> Scenario {
    let mut sc = gossip(50);
    sc.name = "gossip_50";
    sc.about = "50-replica gossip mesh with light loss and duplication";
    sc
}

/// `n` replicas gossiping over a uniformly jittered mesh with light faults
/// — the mesh-size scaling scenario, parametric in the replica count
/// ([`gossip_50`] is the named corpus entry; the `delta_bandwidth` bench
/// also runs 5 and 15).
pub fn gossip(n: usize) -> Scenario {
    Scenario {
        name: "gossip",
        about: "parametric gossip mesh with light loss and duplication",
        cfg: SimConfig {
            n_replicas: n,
            duration: SimTime(600),
            invoke_every: Latency::jittered(40, 40),
            gossip_every: Latency::jittered(45, 45),
            network: Network {
                topology: Topology::Uniform(Latency::jittered(5, 25)),
                faults: LinkFaults {
                    drop: 0.05,
                    duplicate: 0.05,
                },
                retry: 10,
            },
            faults: FaultPlan::none(),
            final_sync: true,
        },
    }
}

/// A tight LAN: four replicas a tick or two apart, no faults. Operations
/// become causally stable almost as soon as they are invoked, so the
/// streaming monitor's settlement keeps its live window (and so its
/// configuration frontier) a handful of operations wide for the whole run
/// — the corpus scenario for continuous monitored verification, where the
/// wide-window scenarios above are the ones that exhaust it honestly.
pub fn lan_tight() -> Scenario {
    Scenario {
        name: "lan_tight",
        about: "4 replicas; 1-2 tick LAN, no faults — ops settle almost immediately",
        cfg: SimConfig {
            n_replicas: 4,
            duration: SimTime(1_500),
            invoke_every: Latency::jittered(25, 30),
            gossip_every: Latency::jittered(20, 25),
            network: Network {
                topology: Topology::Uniform(Latency::jittered(1, 2)),
                faults: LinkFaults::NONE,
                retry: 10,
            },
            faults: FaultPlan::none(),
            final_sync: true,
        },
    }
}

/// Names of every zero-argument scenario constructor this module exports,
/// in corpus order. Guard tests (`crates/sim` unit tests and the root
/// `sim_determinism` suite) scrape the module source against this table, so
/// adding a constructor without registering it here — and without giving it
/// a determinism runner — fails the build's test gate, not a code review.
pub const CONSTRUCTOR_NAMES: [&str; 8] = [
    "geo_3dc",
    "flaky_wan",
    "rolling_restart",
    "split_brain_heal",
    "delta_wan",
    "multi_mix",
    "gossip_50",
    "lan_tight",
];

/// The whole named corpus, in a stable order.
pub fn all() -> Vec<Scenario> {
    vec![
        geo_3dc(),
        flaky_wan(),
        rolling_restart(),
        split_brain_heal(),
        delta_wan(),
        multi_mix(),
        gossip_50(),
        lan_tight(),
    ]
}

/// Looks a scenario up by its stable name.
pub fn by_name(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_complete_and_valid() {
        let corpus = all();
        assert_eq!(corpus.len(), 8);
        let names: Vec<&str> = corpus.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "geo_3dc",
                "flaky_wan",
                "rolling_restart",
                "split_brain_heal",
                "delta_wan",
                "multi_mix",
                "gossip_50",
                "lan_tight"
            ]
        );
        for s in &corpus {
            s.cfg.validate();
            assert!(
                s.cfg.final_sync,
                "{}: convergence needs a final sync",
                s.name
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("flaky_wan").unwrap().cfg.n_replicas, 5);
        assert!(by_name("no_such_scenario").is_none());
        assert_eq!(gossip(15).cfg.n_replicas, 15);
    }

    /// Scrapes this module's own source: every zero-argument constructor
    /// returning `Scenario` must be registered in [`CONSTRUCTOR_NAMES`]
    /// (and therefore reachable through [`all`] / [`by_name`]).
    #[test]
    fn every_constructor_is_registered() {
        let src = include_str!("scenario.rs");
        let mut scraped = Vec::new();
        for line in src.lines() {
            let Some(rest) = line.trim_start().strip_prefix("pub fn ") else {
                continue;
            };
            let Some((name, args)) = rest.split_once('(') else {
                continue;
            };
            if args.starts_with(')') && args.contains("-> Scenario") {
                scraped.push(name.to_string());
            }
        }
        let expected: Vec<String> = CONSTRUCTOR_NAMES.iter().map(|s| s.to_string()).collect();
        assert_eq!(
            scraped, expected,
            "zero-arg Scenario constructors drifted from CONSTRUCTOR_NAMES"
        );
        for name in CONSTRUCTOR_NAMES {
            assert!(by_name(name).is_some(), "{name}: not reachable by_name");
        }
        assert_eq!(all().len(), CONSTRUCTOR_NAMES.len());
    }
}
