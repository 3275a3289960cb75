//! End-to-end observability: a traced simulation plus a profiled checker
//! run, exported as a Chrome trace-event / Perfetto JSON file.
//!
//! The `multi_mix` scenario (50 replicas × 32 composed counters, a
//! partition split and three crash bounces) runs under the deterministic
//! simulator with recording on, then the recorded composed history is
//! decided by the sharded compositional search — by validating execution
//! order, the witness Theorem 5.3 constructs, without a single shard walk.
//! A second call on the same history with its last read tampered misses
//! that witness and is refuted by the per-object walks. Everything the
//! stack emits — per-event sim spans, per-link delivery counters, checker
//! node/memo/prune counters — lands in one trace you can open at
//! <https://ui.perfetto.dev>.
//!
//! Recording is opt-in: run with
//!
//! ```text
//! RAL_OBS=1 RAL_OBS_OUT=OBS_trace.json cargo run --example observability
//! ```
//!
//! Without `RAL_OBS` the same workload runs with recording disabled (the
//! instrumented fast path), prints the checker statistics, and writes
//! nothing — so the example is also a smoke test of the inert path.

use ral_core::compose::{MultiObjRewrite, MultiObjSpec, ObjLabel};
use ral_core::history::rewrite_history;
use ral_core::ids::ObjId;
use ral_core::label::{Identity, SpecLabel};
use ral_core::ralin::{search_sharded_with_stats, SearchOutcome, SearchStats};
use ral_core::rng::Rng;
use ral_crdts::op::counter::OpCounter;
use ral_runtime::multi::{MultiCluster, TsMode};
use ral_sim::driver::{Driver, MultiDriver};
use ral_sim::scenario;
use ral_sim::sim;
use ral_spec::counter::{CounterOp, CounterSpec};
use std::path::PathBuf;

const N_OBJECTS: usize = 32;
const SEED: u64 = 42;
const BUDGET: u64 = 5_000_000;

fn print_stats(stats: &SearchStats) {
    println!(
        "  guided {:?}, shards {} (fallback: {}), nodes expanded {}, memo hits {} ({:.1}% hit rate)",
        stats.guided,
        stats.shards,
        stats.fallback,
        stats.nodes_expanded,
        stats.memo_hits,
        stats.memo_hit_rate() * 100.0
    );
    for (cause, n) in stats.prune_causes() {
        println!("  pruned by {cause}: {n}");
    }
}

fn main() {
    let recording = ral_core::env::obs();
    if recording {
        ral_obs::reset();
        ral_obs::enable(ral_core::env::obs_capacity());
        println!("recording on (RAL_OBS set)");
    } else {
        println!("recording off — set RAL_OBS=1 to capture a trace");
    }

    // --- the traced simulation -------------------------------------------
    let sc = scenario::by_name("multi_mix").expect("named scenario");
    let cluster = MultiCluster::new(OpCounter, N_OBJECTS, sc.cfg.n_replicas, TsMode::Shared);
    let mut driver = MultiDriver::new(cluster, |rng: &mut Rng, _, _obj: ObjId, _| {
        Some(ral_verify::workloads::counter(rng))
    });
    let run = sim::run(&mut driver, &sc.cfg, SEED);
    assert!(driver.converged(), "multi_mix must converge");
    let history = driver.into_cluster().into_history();
    println!(
        "simulated `{}` (seed {SEED}): {} sends, {} applied, {} dropped, {} ops recorded",
        sc.name,
        run.stats.sends,
        run.stats.applied,
        run.stats.dropped,
        history.len()
    );

    // --- the profiled checker run ----------------------------------------
    let rewritten = rewrite_history(&history, &MultiObjRewrite::new(Identity));
    let spec = MultiObjSpec::new(CounterSpec, N_OBJECTS);
    let (outcome, stats) = search_sharded_with_stats(&rewritten.history, &spec, BUDGET);
    match outcome {
        SearchOutcome::Linearizable(lin) => {
            println!(
                "sharded search: RA-linearizable ({} ops in witness)",
                lin.order.len()
            );
        }
        SearchOutcome::NotLinearizable => panic!("multi_mix history must linearize"),
        SearchOutcome::BudgetExhausted => panic!("search undecided within {BUDGET} nodes"),
    }
    print_stats(&stats);

    // The same history with its last read claiming one more than it saw:
    // no constructive witness validates, so the shards are walked.
    let last_read = (0..rewritten.history.len())
        .rfind(|&i| rewritten.history.label(i).is_query())
        .expect("multi_mix reads");
    let mut index = 0;
    let tampered = rewritten.history.map(|l| {
        index += 1;
        match l.label {
            CounterOp::Read(v) if index - 1 == last_read => {
                ObjLabel::new(l.obj, CounterOp::Read(v + 1))
            }
            _ => l,
        }
    });
    let (outcome, stats) = search_sharded_with_stats(&tampered, &spec, BUDGET);
    assert_eq!(outcome, SearchOutcome::NotLinearizable);
    println!("sharded search, last read tampered: refuted");
    print_stats(&stats);

    // --- export ------------------------------------------------------------
    if !recording {
        return;
    }
    ral_obs::disable();
    let snapshot = ral_obs::drain();
    // The full summary has one row per (counter, link) pair — thousands on
    // a 50-replica mesh. Print a readable prefix; the JSON report carries
    // everything.
    let summary = ral_obs::summary::render_summary(&snapshot);
    const MAX_LINES: usize = 60;
    let total_lines = summary.lines().count();
    for line in summary.lines().take(MAX_LINES) {
        println!("{line}");
    }
    if total_lines > MAX_LINES {
        println!(
            "… ({} more summary lines in the JSON report)",
            total_lines - MAX_LINES
        );
    }

    let trace = ral_obs::perfetto::render_trace(&snapshot, &Default::default());
    ral_obs::json::validate(&trace).expect("trace must be valid JSON");
    let report = ral_obs::report::render_report(&snapshot);
    ral_obs::json::validate(&report).expect("report must be valid JSON");

    let trace_path = ral_core::env::obs_out().unwrap_or_else(|| PathBuf::from("OBS_trace.json"));
    let report_path = trace_path.with_file_name("OBS_report.json");
    std::fs::write(&trace_path, &trace).expect("write trace");
    std::fs::write(&report_path, &report).expect("write report");
    println!(
        "wrote {} ({} bytes) and {} ({} bytes) — open the trace at https://ui.perfetto.dev",
        trace_path.display(),
        trace.len(),
        report_path.display(),
        report.len()
    );
}
