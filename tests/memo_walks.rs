//! The memoized walk's exploration, pinned across commits: for every
//! history the `checker_scaling` bench times through the walk, the outcome,
//! the full witness order and every exploration counter of `SearchStats`
//! (expansions, memo hits and entries, the three prune causes) are held to
//! `tests/golden/memo_walks.txt`. Which configurations the walk expands, in
//! which order, decides every line, so a change that claims "same walk,
//! cheaper" passes it unedited.
//!
//! Histories: the `facade_*` 3|3-split counter histories (300 / 600 /
//! 1 200 ticks, as recorded and with the last read tampered) through the
//! `ra_search` facade, the `memo_search` OR-Set histories (12 / 24 / 48 /
//! 96 scheduler steps, rewritten), and the `memo_refute` impossible-counter
//! histories at 8 and 12 concurrent increments.

use ral_core::history::{rewrite_history, History, OpRecord};
use ral_core::ids::ReplicaId;
use ral_core::label::Identity;
use ral_core::ralin::{ra_search_with_stats, search_with_stats, SearchOutcome, SearchStats};
use ral_core::rng::Rng;
use ral_crdts::op::counter::OpCounter;
use ral_crdts::op::or_set::{OrSet, OrSetCall, OrSetLabel, OrSetRewrite};
use ral_runtime::op_based::Cluster;
use ral_runtime::schedule::{drive_op_based, ScheduleConfig};
use ral_sim::driver::{Driver, OpDriver};
use ral_sim::fault::PartitionWindow;
use ral_sim::network::Latency;
use ral_sim::time::SimTime;
use ral_sim::{scenario, sim};
use ral_spec::counter::{CounterOp, CounterSpec};
use ral_spec::set::OrSetSpec;
use ral_verify::workloads;

/// `checker_scaling`'s `split_counter_history`: `split_brain_heal`'s six
/// replicas, one 3|3 split over the middle third of `duration` ticks, one
/// invocation per replica every 40 ticks, seed 7.
fn split_counter_history(duration: u64) -> History<CounterOp> {
    let mut cfg = scenario::split_brain_heal().cfg;
    cfg.duration = SimTime(duration);
    cfg.invoke_every = Latency::fixed(40);
    cfg.faults.partitions = vec![PartitionWindow::new(
        SimTime(duration / 3),
        SimTime(2 * duration / 3),
        vec![0, 0, 0, 1, 1, 1],
    )];
    let mut driver = OpDriver::new(OpCounter, cfg.n_replicas, |rng: &mut Rng, _, _| {
        Some(workloads::counter(rng))
    });
    sim::run(&mut driver, &cfg, 7);
    assert!(driver.converged());
    driver.into_cluster().into_history()
}

/// `h` with its last read claiming one more than it saw.
fn tamper_last_read(h: History<CounterOp>) -> History<CounterOp> {
    let last_read = (0..h.len())
        .rev()
        .find(|&i| matches!(h.label(i), CounterOp::Read(_)))
        .expect("the history has a read");
    let mut i = 0;
    h.map(|l| {
        i += 1;
        match l {
            CounterOp::Read(v) if i - 1 == last_read => CounterOp::Read(v + 1),
            l => l,
        }
    })
}

/// `checker_scaling`'s `or_set_history`: three replicas, roughly `steps`
/// scheduler steps, seed 7.
fn or_set_history(steps: usize) -> History<OrSetLabel<u8>> {
    let mut c = Cluster::new(OrSet::<u8>::new(), 3);
    let cfg = ScheduleConfig {
        steps,
        ..ScheduleConfig::default()
    };
    drive_op_based(&mut c, &cfg, 7, |rng, _, _| {
        Some(match rng.random_range(0..4u8) {
            0 | 1 => OrSetCall::Add(rng.random_range(0..3)),
            2 => OrSetCall::Remove(rng.random_range(0..3)),
            _ => OrSetCall::Read,
        })
    });
    c.into_history()
}

/// `n` concurrent increments and a read that saw them all but claims one
/// too many.
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

/// One golden block: the case's name (the bench row it times) and length, the outcome with the
/// full witness order, and every exploration counter.
fn block(name: &str, n: usize, (outcome, stats): (SearchOutcome, SearchStats)) -> String {
    let verdict = match outcome {
        SearchOutcome::Linearizable(lin) => {
            let order: Vec<String> = lin.order.iter().map(usize::to_string).collect();
            format!("Linearizable order={}", order.join(" "))
        }
        other => format!("{other:?}"),
    };
    format!(
        "{name} ops={n}\n{verdict}\n\
         nodes_expanded={} memo_hits={} memo_entries={} \
         prune_frontier_death={} prune_query_unjustified={} prune_dead_pending_query={}\n",
        stats.nodes_expanded,
        stats.memo_hits,
        stats.memo_entries,
        stats.prune_frontier_death,
        stats.prune_query_unjustified,
        stats.prune_dead_pending_query,
    )
}

#[test]
fn memo_walks_match_their_golden_file() {
    let mut got = String::new();
    for duration in [300, 600, 1_200] {
        let h = split_counter_history(duration);
        let n = h.len();
        let walk = ra_search_with_stats(&h, &Identity, &CounterSpec);
        got += &block(&format!("facade_witness/{n} ({duration} ticks)"), n, walk);
        let tampered = tamper_last_read(h);
        let walk = ra_search_with_stats(&tampered, &Identity, &CounterSpec);
        got += &block(&format!("facade_refute/{n} ({duration} ticks)"), n, walk);
    }
    for steps in [12, 24, 48, 96] {
        let h = rewrite_history(&or_set_history(steps), &OrSetRewrite::new()).history;
        let (n, walk) = (h.len(), search_with_stats(&h, &OrSetSpec::new(), u64::MAX));
        got += &block(&format!("memo_search/{n} ({steps} steps)"), n, walk);
    }
    for n in [8, 12] {
        let h = impossible_history(n);
        let walk = search_with_stats(&h, &CounterSpec, u64::MAX);
        got += &block(&format!("memo_refute/{n}"), h.len(), walk);
    }
    assert_eq!(
        got,
        include_str!("golden/memo_walks.txt"),
        "memo walk drifted from tests/golden/memo_walks.txt"
    );
}
