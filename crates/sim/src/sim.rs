//! The discrete-event engine.
//!
//! One run owns a virtual clock, an [`EventQueue`] of pending events, a
//! seeded RNG, and a [`Driver`]. Processing an event
//! may invoke operations, route freshly created messages (sampling per-link
//! latency and faults), apply arrivals, or fire scheduled partitions and
//! crashes; each decision is one entry handed to a [`Record`] sink. Because
//! events pop in a total `(time, sequence)` order and all randomness flows
//! through the one seeded stream, the entire run — trace, history, final
//! states — is a pure function of `(scenario, driver, seed)`. So [`run`]
//! records nothing, and [`replay`] recomputes the trace of the same run.
//!
//! Transport discipline follows the paper's split:
//!
//! * **reliable** drivers (op-based, Section 3.1) never lose or duplicate
//!   messages; a transmission that meets a cut link or a crashed receiver
//!   retries until it lands, and arrivals that outran their causal
//!   predecessors are held back by the driver;
//! * **lossy** drivers (state-based, Appendix D.2) see drops, duplicates,
//!   and reordering exactly as configured — crashed receivers simply lose
//!   the message, which the merge discipline tolerates. A lossy arrival is
//!   never re-queued, so the engine knows when the last transmission of a
//!   message is spent and tells the driver ([`Driver::release`]): the
//!   payload may be freed, since nothing will deliver it again.

use crate::driver::{Driver, Received};
use crate::fault::FaultPlan;
use crate::network::{Latency, Network};
use crate::queue::EventQueue;
use crate::time::SimTime;
use crate::trace::{Record, Trace, TraceEvent};
use ral_core::ids::ReplicaId;
use ral_core::rng::Rng;
use ral_obs as obs;

/// Configuration of one simulated run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of replicas (drivers must be built with the same count).
    pub n_replicas: usize,
    /// End of the active phase: no new invocations, gossip, or faults fire
    /// at or after this instant.
    pub duration: SimTime,
    /// Inter-invocation gap per replica.
    pub invoke_every: Latency,
    /// Gossip tick gap per replica (used only by gossiping drivers).
    pub gossip_every: Latency,
    /// Link layout, latencies, faults, and the reliable-retry delay.
    pub network: Network,
    /// Scheduled partitions and crashes.
    pub faults: FaultPlan,
    /// Whether to heal everything and synchronize fully after the active
    /// phase (required for convergence assertions).
    pub final_sync: bool,
}

impl SimConfig {
    /// Validates internal consistency (topology arity, fault bounds).
    ///
    /// # Panics
    ///
    /// Panics when the topology or a fault plan names replicas the config
    /// does not have, or a probability is outside `[0, 1]`.
    pub fn validate(&self) {
        if let Some(n) = self.network.topology.n_replicas() {
            assert_eq!(
                n, self.n_replicas,
                "topology covers {n} replicas, config declares {}",
                self.n_replicas
            );
        }
        for w in &self.faults.partitions {
            assert_eq!(
                w.partition.n_replicas(),
                self.n_replicas,
                "partition window groups {} replicas, config declares {}",
                w.partition.n_replicas(),
                self.n_replicas
            );
        }
        for c in &self.faults.crashes {
            assert!(
                (c.replica.0 as usize) < self.n_replicas,
                "crash plan names replica {} of {}",
                c.replica,
                self.n_replicas
            );
        }
        let f = self.network.faults;
        assert!((0.0..=1.0).contains(&f.drop), "drop probability {}", f.drop);
        assert!(
            (0.0..=1.0).contains(&f.duplicate),
            "duplicate probability {}",
            f.duplicate
        );
    }
}

/// Aggregate statistics of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events processed (invokes + gossips + arrivals + faults).
    pub events: usize,
    /// Successful invocations.
    pub invokes: usize,
    /// Point-to-point transmissions put on links.
    pub sends: usize,
    /// Messages applied on arrival (effectors/merges, holdback included).
    pub applied: usize,
    /// Messages lost to link faults.
    pub dropped: usize,
    /// Extra transmissions created by duplication faults.
    pub duplicated: usize,
    /// Arrivals held back for causal delivery.
    pub held: usize,
    /// Reliable transmissions rescheduled past a cut link or down replica.
    pub retried: usize,
    /// Total wire bytes put on links ([`Driver::message_bytes`] summed
    /// over every transmission, duplicates included; zero for drivers
    /// without a payload-size model).
    pub payload_bytes: u64,
}

/// The result of a run: its statistics and final virtual time. The event
/// record of the same run is [`replay`]'s.
#[derive(Clone, Debug)]
pub struct SimRun {
    /// Aggregate counters.
    pub stats: SimStats,
    /// Virtual instant of the last processed event.
    pub end: SimTime,
}

// Engine-internal events; trace events are derived from these.
#[derive(Debug)]
enum Event {
    Invoke(ReplicaId),
    Gossip(ReplicaId),
    Arrive { to: ReplicaId, msg: usize },
    PartitionStart(usize),
    PartitionEnd(usize),
    Crash(ReplicaId),
    Restart(ReplicaId),
}

/// Runs `driver` through `cfg` under `seed`, recording nothing; the driver
/// keeps the cluster (and its history) afterwards.
///
/// The whole run is a pure function of `(cfg, driver, seed)`: re-running
/// with the same inputs reproduces the history and the final states byte
/// for byte, and [`replay`] reproduces the run with its trace
/// (`tests/sim_determinism.rs` pins this for every scenario in the
/// corpus). See the crate-level example for a complete seeded run;
/// `ral_verify::scenarios` and `ral_verify::delta` wrap this entry point
/// with the paper's per-CRDT obligations.
///
/// # Panics
///
/// Panics if `cfg` is internally inconsistent ([`SimConfig::validate`]) or
/// disagrees with the driver on the cluster size.
pub fn run<D: Driver>(driver: &mut D, cfg: &SimConfig, seed: u64) -> SimRun {
    run_into(driver, cfg, seed, &mut ())
}

/// [`run`], recording every engine decision into a [`Trace`]: on a fresh
/// driver it is the same run, with the same history and statistics.
///
/// # Panics
///
/// As [`run`].
pub fn replay<D: Driver>(driver: &mut D, cfg: &SimConfig, seed: u64) -> (SimRun, Trace) {
    let mut trace = Trace::new();
    let run = run_into(driver, cfg, seed, &mut trace);
    (run, trace)
}

/// [`run`], handing every engine decision to `trace`: `()` keeps nothing
/// and a [`Trace`] keeps everything.
///
/// # Panics
///
/// As [`run`].
pub fn run_into<D: Driver, R: Record>(
    driver: &mut D,
    cfg: &SimConfig,
    seed: u64,
    trace: &mut R,
) -> SimRun {
    cfg.validate();
    assert_eq!(
        driver.n_replicas(),
        cfg.n_replicas,
        "driver and config disagree on the cluster size"
    );
    let mut rng = Rng::seed_from_u64(seed);
    let mut queue = EventQueue::new(cfg.network.max_delay().max(cfg.network.retry));
    let mut stats = SimStats::default();
    // Every message put on links so far, by its origin: an arrival reads
    // its sender here, asked of the driver once per message when routed.
    let mut origins: Vec<ReplicaId> = Vec::new();
    // Queued arrivals per message, kept for loss-tolerant transports only:
    // when a count reaches zero the driver may release the payload.
    let mut in_flight: Vec<u32> = Vec::new();
    let mut now = SimTime::ZERO;

    // Everything recorded until these guards drop carries sim-tick
    // timestamps. Declaration order matters: `_run_span` drops first, so
    // its End event is still stamped on the virtual clock.
    let _vclock = obs::enter_virtual_clock(0);
    let _run_span = obs::span("sim.run");

    // Seed the periodic activity…
    for r in 0..cfg.n_replicas {
        let r = ReplicaId(r as u32);
        queue.push(SimTime(cfg.invoke_every.sample(&mut rng)), Event::Invoke(r));
        if D::GOSSIPS {
            queue.push(SimTime(cfg.gossip_every.sample(&mut rng)), Event::Gossip(r));
        }
    }
    // …and the scheduled faults. Partition windows need no events to take
    // effect (cuts are evaluated per arrival), but marking them keeps the
    // trace a complete story of the run.
    for (i, w) in cfg.faults.partitions.iter().enumerate() {
        queue.push(w.start, Event::PartitionStart(i));
        queue.push(w.end, Event::PartitionEnd(i));
    }
    for c in &cfg.faults.crashes {
        queue.push(c.crash_at, Event::Crash(c.replica));
        if let Some(at) = c.restart_at {
            queue.push(at, Event::Restart(c.replica));
        }
    }

    while let Some((t, event)) = queue.pop() {
        if t >= cfg.duration {
            break; // active phase over; the queue drains into final sync
        }
        now = t;
        obs::set_virtual_now(now.0);
        stats.events += 1;
        match event {
            Event::Invoke(r) => {
                let _span = obs::span("sim.event.invoke");
                let ok = driver.is_up(r) && driver.invoke(&mut rng, r);
                if ok {
                    stats.invokes += 1;
                    obs::counter("sim.invokes", 1);
                }
                trace.push(now, TraceEvent::Invoke { replica: r, ok });
                route_new(
                    driver,
                    cfg,
                    &mut rng,
                    &mut queue,
                    trace,
                    &mut stats,
                    now,
                    &mut origins,
                    &mut in_flight,
                );
                queue.push(
                    now + cfg.invoke_every.sample(&mut rng).max(1),
                    Event::Invoke(r),
                );
            }
            Event::Gossip(r) => {
                let _span = obs::span("sim.event.gossip");
                let ok = driver.is_up(r) && driver.gossip(r);
                if ok {
                    obs::counter("sim.gossips", 1);
                }
                trace.push(now, TraceEvent::Gossip { replica: r, ok });
                route_new(
                    driver,
                    cfg,
                    &mut rng,
                    &mut queue,
                    trace,
                    &mut stats,
                    now,
                    &mut origins,
                    &mut in_flight,
                );
                queue.push(
                    now + cfg.gossip_every.sample(&mut rng).max(1),
                    Event::Gossip(r),
                );
            }
            Event::Arrive { to, msg } => {
                let _span = obs::span("sim.event.arrive");
                let from = origins[msg];
                let link = obs::link_key(from.0, to.0);
                let blocked = cfg.faults.cut(now, from, to) || !driver.is_up(to);
                if blocked {
                    if D::RELIABLE {
                        // The transport retransmits until the link heals and
                        // the receiver is back.
                        let at = now + cfg.network.retry.max(1);
                        stats.retried += 1;
                        obs::counter("sim.retries", 1);
                        trace.push(now, TraceEvent::Retry { msg, to, at });
                        queue.push(at, Event::Arrive { to, msg });
                    } else {
                        stats.dropped += 1;
                        obs::counter_keyed("sim.link.dropped", link, 1);
                        trace.push(now, TraceEvent::Drop { msg, to });
                        arrival_spent(driver, &mut in_flight, msg);
                    }
                    continue;
                }
                match driver.receive(to, msg) {
                    Received::Applied(n) => {
                        stats.applied += n;
                        obs::counter_keyed("sim.link.delivered", link, 1);
                        obs::counter_keyed("sim.link.applied", link, n as u64);
                        trace.push(
                            now,
                            TraceEvent::Deliver {
                                msg,
                                to,
                                applied: n,
                            },
                        );
                    }
                    Received::Held => {
                        stats.held += 1;
                        obs::counter("sim.held", 1);
                        trace.push(now, TraceEvent::Hold { msg, to });
                    }
                    Received::Ignored => {
                        trace.push(now, TraceEvent::Ignore { msg, to });
                    }
                }
                if !D::RELIABLE {
                    arrival_spent(driver, &mut in_flight, msg);
                }
            }
            Event::PartitionStart(w) => {
                obs::instant_keyed("sim.partition.start", w as u64);
                trace.push(now, TraceEvent::PartitionStart { window: w });
            }
            Event::PartitionEnd(w) => {
                obs::instant_keyed("sim.partition.end", w as u64);
                trace.push(now, TraceEvent::PartitionEnd { window: w });
            }
            Event::Crash(r) => {
                obs::instant_keyed("sim.crash", r.0 as u64);
                driver.crash(r);
                trace.push(now, TraceEvent::Crash { replica: r });
            }
            Event::Restart(r) => {
                obs::instant_keyed("sim.restart", r.0 as u64);
                driver.restart(r);
                trace.push(now, TraceEvent::Restart { replica: r });
            }
        }
    }

    if cfg.final_sync {
        now = cfg.duration;
        obs::set_virtual_now(now.0);
        obs::instant("sim.final_sync");
        let _span = obs::span("sim.event.final_sync");
        trace.push(now, TraceEvent::FinalSync);
        driver.final_sync();
    }
    SimRun { stats, end: now }
}

// One queued arrival of `msg` on a loss-tolerant transport is spent — landed
// or lost, never re-queued. After the last one nothing can deliver `msg`
// again, and the driver may free its payload.
fn arrival_spent<D: Driver>(driver: &mut D, in_flight: &mut [u32], msg: usize) {
    in_flight[msg] -= 1;
    if in_flight[msg] == 0 {
        driver.release(msg);
    }
}

// Routes every message the driver created since the last call: one
// transmission per destination, with latency sampled per link and faults
// applied on loss-tolerant transports. Destination order is replica order,
// so RNG consumption is deterministic. Each message's origin is asked of
// the driver once, here, and kept in `origins` (slot `msg`) for its
// arrivals. On loss-tolerant transports the queued arrivals are counted per
// message in `in_flight` (reliable runs never touch it), and a message
// whose every transmission was lost at once is released on the spot.
#[allow(clippy::too_many_arguments)]
fn route_new<D: Driver, R: Record>(
    driver: &mut D,
    cfg: &SimConfig,
    rng: &mut Rng,
    queue: &mut EventQueue<Event>,
    trace: &mut R,
    stats: &mut SimStats,
    now: SimTime,
    origins: &mut Vec<ReplicaId>,
    in_flight: &mut Vec<u32>,
) {
    while origins.len() < driver.n_messages() {
        let msg = origins.len();
        let from = driver.origin(msg);
        origins.push(from); // message ids are dense: this is slot `msg`
        let mut queued = 0;
        for to in 0..cfg.n_replicas {
            let to = ReplicaId(to as u32);
            if to == from {
                continue;
            }
            let link = obs::link_key(from.0, to.0);
            if !D::RELIABLE && rng.random_bool(cfg.network.faults.drop) {
                stats.dropped += 1;
                obs::counter_keyed("sim.link.dropped", link, 1);
                trace.push(now, TraceEvent::Drop { msg, to });
                continue;
            }
            let delay = cfg.network.delay(rng, from, to).max(1);
            let bytes = driver.message_bytes(msg, to) as u64;
            stats.sends += 1;
            stats.payload_bytes += bytes;
            obs::counter_keyed("sim.link.sends", link, 1);
            obs::counter_keyed("sim.link.bytes", link, bytes);
            obs::observe("sim.link.delay", delay);
            trace.push(
                now,
                TraceEvent::Send {
                    msg,
                    from,
                    to,
                    delay,
                    duplicate: false,
                },
            );
            queue.push(now + delay, Event::Arrive { to, msg });
            queued += 1;
            if !D::RELIABLE && rng.random_bool(cfg.network.faults.duplicate) {
                let delay = cfg.network.delay(rng, from, to).max(1);
                stats.duplicated += 1;
                stats.sends += 1;
                stats.payload_bytes += bytes;
                obs::counter_keyed("sim.link.duplicated", link, 1);
                obs::counter_keyed("sim.link.sends", link, 1);
                obs::counter_keyed("sim.link.bytes", link, bytes);
                obs::observe("sim.link.delay", delay);
                trace.push(
                    now,
                    TraceEvent::Send {
                        msg,
                        from,
                        to,
                        delay,
                        duplicate: true,
                    },
                );
                queue.push(now + delay, Event::Arrive { to, msg });
                queued += 1;
            }
        }
        if !D::RELIABLE {
            in_flight.push(queued); // message ids are dense: this is slot `msg`
            if queued == 0 {
                driver.release(msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{OpDriver, StateDriver};
    use crate::fault::{CrashPlan, FaultPlan, PartitionWindow};
    use crate::network::{LinkFaults, Topology};
    use ral_runtime::delta::DeltaCrdt;
    use ral_runtime::gen::{GenCtx, GenOutcome};
    use ral_runtime::op_based::OpBased;
    use ral_runtime::state_based::StateBased;

    /// A grow-only counter in both styles, for engine-level tests.
    #[derive(Clone)]
    struct GCtr;

    impl OpBased for GCtr {
        type State = i64;
        type Call = ();
        type Ret = ();
        type Eff = ();
        type Label = ();
        fn initial(&self) -> i64 {
            0
        }
        fn generator(&self, _st: &i64, _call: &(), _ctx: &mut GenCtx) -> GenOutcome<(), ()> {
            GenOutcome::update((), ())
        }
        fn apply(&self, st: &mut i64, _eff: &()) {
            *st += 1;
        }
        fn label(&self, _call: &(), _ret: &()) {}
    }

    impl StateBased for GCtr {
        type State = Vec<i64>;
        type Call = ();
        type Ret = ();
        type Label = ();
        fn initial(&self, n: usize) -> Vec<i64> {
            vec![0; n]
        }
        fn merge_into(&self, a: &mut Vec<i64>, b: &Vec<i64>) -> bool {
            let mut grew = false;
            for (x, y) in a.iter_mut().zip(b) {
                grew |= *y > *x;
                *x = (*x).max(*y);
            }
            grew
        }
        fn leq(&self, a: &Vec<i64>, b: &Vec<i64>) -> bool {
            a.iter().zip(b).all(|(x, y)| x <= y)
        }
        fn label(&self, _call: &(), _ret: &()) {}
    }

    // Whole states as deltas: all a full-state transport needs.
    impl DeltaCrdt for GCtr {
        type Delta = Vec<i64>;
        fn invoke(&self, st: &Vec<i64>, _call: &(), ctx: &mut GenCtx) -> GenOutcome<(), Vec<i64>> {
            let mut next = st.clone();
            next[ctx.replica().0 as usize] += 1;
            GenOutcome::update((), next)
        }
        fn diff(&self, _pre: &Vec<i64>, post: &Vec<i64>) -> Vec<i64> {
            post.clone()
        }
        fn join_into(&self, state: &mut Vec<i64>, delta: &Vec<i64>) -> bool {
            self.merge_into(state, delta)
        }
        fn join_deltas_into(&self, a: &mut Vec<i64>, b: &Vec<i64>) {
            self.merge_into(a, b);
        }
        fn delta_bytes(&self, delta: &Vec<i64>) -> usize {
            8 * delta.len()
        }
        fn state_bytes(&self, state: &Vec<i64>) -> usize {
            8 * state.len()
        }
    }

    fn small_cfg(n: usize) -> SimConfig {
        SimConfig {
            n_replicas: n,
            duration: SimTime(300),
            invoke_every: Latency::jittered(20, 20),
            gossip_every: Latency::jittered(15, 15),
            network: Network {
                topology: Topology::Uniform(Latency::jittered(3, 10)),
                faults: LinkFaults::NONE,
                retry: 5,
            },
            faults: FaultPlan::none(),
            final_sync: true,
        }
    }

    #[test]
    fn op_based_run_converges_and_counts() {
        let mut driver = OpDriver::new(GCtr, 3, |_, _, _| Some(()));
        let run = run(&mut driver, &small_cfg(3), 7);
        assert!(driver.converged());
        assert!(run.stats.invokes > 0);
        assert_eq!(run.stats.dropped, 0, "reliable transport never drops");
        assert_eq!(
            driver.cluster().history().len(),
            run.stats.invokes,
            "one history record per successful invocation"
        );
    }

    #[test]
    fn lossy_run_still_converges_after_final_sync() {
        let mut cfg = small_cfg(3);
        cfg.network.faults = LinkFaults {
            drop: 0.4,
            duplicate: 0.3,
        };
        let mut driver = StateDriver::new(GCtr, 3, |_, _, _| Some(()));
        let run = run(&mut driver, &cfg, 11);
        assert!(driver.converged(), "merge semantics absorb loss and dup");
        assert!(run.stats.dropped > 0, "faults actually fired");
        assert!(run.stats.duplicated > 0);
    }

    #[test]
    fn partitions_block_and_heal() {
        let mut cfg = small_cfg(4);
        cfg.faults.partitions = vec![PartitionWindow::new(
            SimTime(0),
            SimTime(299),
            vec![0, 0, 1, 1],
        )];
        let mut driver = OpDriver::new(GCtr, 4, |_, _, _| Some(()));
        let run = run(&mut driver, &cfg, 3);
        assert!(run.stats.retried > 0, "cut links force retries");
        assert!(driver.converged(), "healing + final sync reconciles");
    }

    #[test]
    fn crashes_halt_and_recover() {
        let mut cfg = small_cfg(3);
        cfg.faults.crashes = vec![CrashPlan::bounce(ReplicaId(0), SimTime(50), SimTime(200))];
        let mut driver = StateDriver::new(GCtr, 3, |_, _, _| Some(()));
        let (_, trace) = replay(&mut driver, &cfg, 5);
        let crashes = trace
            .iter()
            .filter(|(_, e)| matches!(e, TraceEvent::Crash { .. }))
            .count();
        assert_eq!(crashes, 1);
        assert!(driver.converged());
    }

    #[test]
    fn an_event_fits_in_sixteen_bytes() {
        // The calendar queue stores one per scheduled transmission; the
        // arrival's origin lives in the engine's per-message table.
        assert!(std::mem::size_of::<Event>() <= 16);
    }

    #[test]
    #[should_panic(expected = "disagree on the cluster size")]
    fn size_mismatch_panics() {
        let mut driver = OpDriver::new(GCtr, 2, |_, _, _| Some(()));
        run(&mut driver, &small_cfg(3), 0);
    }
}
