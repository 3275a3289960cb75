//! The cost contract of the `ra_search*` facades, in deterministic
//! expansion counts: a history that linearizes is decided in about one
//! expansion per operation — however many operations could go first and
//! however wide the partition — and a refutation expands every distinct
//! reachable configuration exactly once.

use ral_core::history::{History, OpRecord};
use ral_core::ids::ReplicaId;
use ral_core::label::Identity;
use ral_core::ralin::{
    ra_search_with_budget, ra_search_with_stats, search_with_stats, SearchOutcome,
};
use ral_core::rng::Rng;
use ral_crdts::op::counter::OpCounter;
use ral_sim::driver::{Driver, OpDriver};
use ral_sim::{scenario, sim};
use ral_spec::counter::{CounterOp, CounterSpec};
use ral_verify::workloads;
use std::collections::BTreeSet;

/// `k` replicas partitioned from the start: each alternates an increment
/// and a read of its own count `rounds` times, seeing only itself; after
/// the heal every replica reads the total. `k` concurrent roots,
/// `2·k·rounds + k` operations, the last one a read.
fn split_brain_counter(k: usize, rounds: usize) -> History<CounterOp> {
    let mut h = History::new();
    let mut split_phase = Vec::new();
    for r in 0..k {
        let mut own = Vec::new();
        for j in 0..rounds {
            for op in [CounterOp::Inc, CounterOp::Read(j as i64 + 1)] {
                let id = h.push(OpRecord::new(op, ReplicaId(r as u32)), own.iter().copied());
                own.push(id);
            }
        }
        split_phase.extend(own);
    }
    for r in 0..k {
        h.push(
            OpRecord::new(CounterOp::Read((k * rounds) as i64), ReplicaId(r as u32)),
            split_phase.iter().copied(),
        );
    }
    h
}

/// `h` with its last operation — a read — claiming one more than it saw.
fn tamper_last_read(h: History<CounterOp>) -> History<CounterOp> {
    let last = h.len() - 1;
    let mut i = 0;
    h.map(|l| {
        i += 1;
        match l {
            CounterOp::Read(v) if i - 1 == last => CounterOp::Read(v + 1),
            l => l,
        }
    })
}

/// Distinct configurations a search of counter history `h` can reach when
/// operation `bad` is never placeable and every other placement is
/// feasible: increments commute and a read's justification depends only on
/// *which* increments it saw, so a configuration is its placed set, and
/// the reachable ones are the visibility-closed sets avoiding `bad`.
fn reachable_configurations(h: &History<CounterOp>, bad: usize) -> usize {
    assert!(h.len() <= 64);
    let mut seen = BTreeSet::from([0u64]);
    let mut frontier = vec![0u64];
    while let Some(mask) = frontier.pop() {
        for x in (0..h.len()).filter(|&x| x != bad && mask & (1 << x) == 0) {
            let next = mask | 1 << x;
            if h.preds(x).iter().all(|p| mask & (1 << p) != 0) && seen.insert(next) {
                frontier.push(next);
            }
        }
    }
    seen.len()
}

#[test]
fn witness_costs_one_expansion_per_operation() {
    let h = split_brain_counter(3, 3);
    let n = h.len() as u64;
    let (outcome, stats) = ra_search_with_stats(&h, &Identity, &CounterSpec);
    assert!(outcome.is_linearizable());
    assert!(
        stats.nodes_expanded <= n + 1,
        "{} expansions for {n} ops",
        stats.nodes_expanded
    );
    // The budget is one global counter: what the unbudgeted run spent is
    // enough, whatever the number of concurrent roots.
    assert_eq!(
        ra_search_with_budget(&h, &Identity, &CounterSpec, n + 1),
        outcome
    );
}

#[test]
fn refutation_expands_each_configuration_once() {
    let h = tamper_last_read(split_brain_counter(3, 3));
    let bad = h.len() - 1;
    // (2·3+1)³ split-phase placed sets, the full one extended by the
    // 2² subsets of the two placeable heal reads: 343 + 4 − 1.
    assert_eq!(reachable_configurations(&h, bad), 346);
    let (outcome, stats) = ra_search_with_stats(&h, &Identity, &CounterSpec);
    assert_eq!(outcome, SearchOutcome::NotLinearizable);
    assert_eq!(stats.nodes_expanded, 346);
    // The facade and the engine's own entry point are the same walk: one
    // table, not one per first operation.
    let (direct, direct_stats) = search_with_stats(&h, &CounterSpec, u64::MAX);
    assert_eq!(direct, outcome);
    assert_eq!(direct_stats.nodes_expanded, 346);
}

#[test]
fn full_length_split_brain_heal_is_decided_without_backtracking() {
    let sc = scenario::split_brain_heal();
    let mut driver = OpDriver::new(OpCounter, sc.cfg.n_replicas, |rng: &mut Rng, _, _| {
        Some(workloads::counter(rng))
    });
    sim::run(&mut driver, &sc.cfg, 0);
    assert!(driver.converged());
    let h = driver.into_cluster().into_history();
    let n = h.len() as u64;
    let (outcome, stats) = ra_search_with_stats(&h, &Identity, &CounterSpec);
    assert!(outcome.is_linearizable());
    assert!(
        stats.nodes_expanded <= n + 1,
        "{} expansions for {n} ops",
        stats.nodes_expanded
    );
    assert_eq!(
        ra_search_with_budget(&h, &Identity, &CounterSpec, n + 1),
        outcome
    );
}
