//! Observability integration: the recorded event stream must agree with
//! the ground truth it mirrors, and the virtual-domain Perfetto export
//! must be golden-stable for a fixed seed.
//!
//! * Per-link delivery counters sum to the simulator's own [`SimStats`]
//!   totals — every send, drop, duplicate, and applied batch is attributed
//!   to exactly one link.
//! * The checker's emitted `ralin.*` counters equal the [`SearchStats`]
//!   the search returns.
//! * A small fixed-seed simulation renders to a byte-pinned Chrome
//!   trace-event JSON (wall-domain events excluded — only the virtual
//!   clock is deterministic).
//!
//! The `ral-obs` sink is process-global, so this suite lives in its own
//! test binary and every test serializes on [`OBS_LOCK`].
//!
//! [`SimStats`]: ral_sim::sim::SimStats
//! [`SearchStats`]: ral_core::ralin::SearchStats

use ral_core::compose::{MultiObjSpec, ObjLabel};
use ral_core::history::{History, OpRecord};
use ral_core::ids::{ObjId, ReplicaId};
use ral_core::ralin::{search_sharded_with_stats, search_with_stats};
use ral_core::rng::Rng;
use ral_crdts::op::or_set::OrSet;
use ral_crdts::state::pn_counter::PnCounter;
use ral_sim::driver::{Driver, OpDriver, StateDriver};
use ral_sim::fault::FaultPlan;
use ral_sim::network::{Latency, LinkFaults, Network, Topology};
use ral_sim::scenario;
use ral_sim::sim::{self, SimConfig};
use ral_sim::time::SimTime;
use ral_spec::counter::{CounterOp, CounterSpec};
use ral_verify::workloads;
use std::sync::Mutex;

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Runs `f` with recording on (from a clean sink) and returns its result
/// alongside the drained snapshot.
fn recorded<R>(f: impl FnOnce() -> R) -> (R, ral_obs::Snapshot) {
    ral_obs::reset();
    ral_obs::enable(None);
    let out = f();
    ral_obs::disable();
    let snap = ral_obs::drain();
    ral_obs::reset();
    (out, snap)
}

/// Every link-keyed counter must sum to the corresponding `SimStats`
/// total, on the corpus scenario that exercises loss, duplication, and
/// retries all at once.
#[test]
fn per_link_counters_agree_with_sim_stats() {
    let _guard = OBS_LOCK.lock().unwrap();
    let sc = scenario::flaky_wan();
    let (stats, snap) = recorded(|| {
        let mut driver = StateDriver::new(PnCounter, sc.cfg.n_replicas, |rng: &mut Rng, _, _| {
            Some(workloads::pn_counter(rng))
        });
        let run = sim::run(&mut driver, &sc.cfg, 11);
        assert!(driver.converged(), "flaky_wan must converge");
        run.stats
    });
    assert_eq!(snap.dropped, 0, "lane capacity must hold the whole run");
    let sum = |name: &str| snap.counter_by_key(name).values().sum::<u64>();
    assert_eq!(sum("sim.link.sends"), stats.sends as u64);
    assert_eq!(sum("sim.link.bytes"), stats.payload_bytes);
    assert_eq!(sum("sim.link.dropped"), stats.dropped as u64);
    assert_eq!(sum("sim.link.applied"), stats.applied as u64);
    assert_eq!(sum("sim.link.duplicated"), stats.duplicated as u64);
    // The cross-check only means something if the faults actually fired.
    assert!(stats.dropped > 0, "scenario must drop snapshots");
    assert!(stats.duplicated > 0, "scenario must duplicate snapshots");
    // Every attributed link is a real (from, to) pair, and no link talks
    // to itself.
    for (&key, _) in snap.counter_by_key("sim.link.sends").iter() {
        let (from, to) = ral_obs::link_from_to(key);
        assert!((from as usize) < sc.cfg.n_replicas);
        assert!((to as usize) < sc.cfg.n_replicas);
        assert_ne!(from, to, "no self-links");
    }
}

/// The canonical impossible-read refutation: `n` concurrent increments
/// and a read that claims one too many.
fn impossible_history(n: usize) -> History<CounterOp> {
    let mut h = History::new();
    let incs: Vec<usize> = (0..n)
        .map(|i| h.push(OpRecord::new(CounterOp::Inc, ReplicaId(i as u32)), []))
        .collect();
    h.push(
        OpRecord::new(CounterOp::Read(n as i64 + 1), ReplicaId(0)),
        incs,
    );
    h
}

/// The `ralin.*` counters the search emits must equal the `SearchStats`
/// it returns — one code path feeds both.
#[test]
fn checker_counters_agree_with_search_stats() {
    let _guard = OBS_LOCK.lock().unwrap();
    let h = impossible_history(10);
    let ((outcome, stats), snap) = recorded(|| search_with_stats(&h, &CounterSpec, u64::MAX));
    assert!(outcome.is_refuted());
    assert!(snap.has_span("ralin.search"));
    assert_eq!(
        snap.counter_total("ralin.nodes_expanded"),
        stats.nodes_expanded
    );
    assert_eq!(snap.counter_total("ralin.memo_hits"), stats.memo_hits);
    assert_eq!(snap.counter_total("ralin.memo_entries"), stats.memo_entries);
    assert_eq!(
        snap.counter_total("ralin.prune.frontier_death"),
        stats.prune_frontier_death
    );
    assert!(
        stats.memo_hits > 0,
        "the refutation must revisit configurations"
    );
}

/// The sharded facade says which path decided, identically in its stats
/// and its counters: a constructive-witness hit emits `ralin.guided_hit`
/// and no shard counter; a miss emits the shard counters and no hit.
#[test]
fn sharded_counters_agree_with_search_stats() {
    let _guard = OBS_LOCK.lock().unwrap();
    let spec = MultiObjSpec::new(CounterSpec, 2);
    for read in [1, 2] {
        let mut h = History::new();
        let a = h.push(
            OpRecord::new(ObjLabel::new(ObjId(0), CounterOp::Inc), ReplicaId(0)),
            [],
        );
        let b = h.push(
            OpRecord::new(ObjLabel::new(ObjId(1), CounterOp::Inc), ReplicaId(1)),
            [a],
        );
        let label = ObjLabel::new(ObjId(1), CounterOp::Read(read));
        h.push(OpRecord::new(label, ReplicaId(1)), [a, b]);
        let ((outcome, stats), snap) = recorded(|| search_sharded_with_stats(&h, &spec, u64::MAX));
        assert_eq!(outcome.is_linearizable(), read == 1);
        assert_eq!(stats.guided.is_some(), read == 1);
        assert!(snap.has_span("ralin.search_sharded"));
        assert_eq!(
            snap.counter_total("ralin.guided_hit"),
            u64::from(stats.guided.is_some())
        );
        assert_eq!(snap.counter_total("ralin.shards"), stats.shards);
        assert_eq!(
            snap.counter_total("ralin.nodes_expanded"),
            stats.nodes_expanded
        );
        assert_eq!(
            snap.counter_total("ralin.fallback"),
            u64::from(stats.fallback)
        );
    }
}

/// FNV-1a, 64-bit — enough to pin a golden byte string without embedding
/// all of it in the source.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A deliberately tiny lossless run: 2 replicas, short active phase.
fn tiny_cfg() -> SimConfig {
    SimConfig {
        n_replicas: 2,
        duration: SimTime(120),
        invoke_every: Latency::jittered(25, 30),
        gossip_every: Latency::jittered(20, 25),
        network: Network {
            topology: Topology::Uniform(Latency::jittered(3, 10)),
            faults: LinkFaults::NONE,
            retry: 10,
        },
        faults: FaultPlan::none(),
        final_sync: true,
    }
}

fn tiny_trace() -> String {
    let cfg = tiny_cfg();
    let (_, snap) = recorded(|| {
        let mut driver =
            OpDriver::new(OrSet::<u8>::new(), cfg.n_replicas, |rng: &mut Rng, _, _| {
                Some(workloads::or_set(rng))
            });
        sim::run(&mut driver, &cfg, 7);
        assert!(driver.converged());
    });
    // Wall-domain events (none are expected inside a sim run, but the
    // exclusion is the documented golden contract) are filtered out:
    // only virtual-clock timestamps replay exactly.
    let opts = ral_obs::perfetto::TraceOptions {
        include_wall: false,
    };
    ral_obs::perfetto::render_trace(&snap, &opts)
}

/// The virtual-domain Perfetto export of a fixed-seed run is pinned to
/// the byte. If this fails because the trace format or the sim's
/// instrumentation *intentionally* changed, re-pin the hash; anything
/// else is a determinism regression (recorded traces would no longer
/// replay).
#[test]
fn perfetto_export_is_golden() {
    let _guard = OBS_LOCK.lock().unwrap();
    let trace = tiny_trace();
    ral_obs::json::validate(&trace).expect("trace must be valid JSON");
    assert_eq!(tiny_trace(), trace, "export must be run-to-run identical");
    assert!(trace.contains("\"name\": \"sim.run\""));
    assert!(trace.contains("\"name\": \"sim.event.invoke\""));
    assert!(trace.contains("\"name\": \"sim.final_sync\""));
    assert_eq!(
        fnv1a(trace.as_bytes()),
        8_299_106_443_037_103_021,
        "golden Perfetto trace drifted ({} bytes)",
        trace.len()
    );
}
