//! The runner: set-up, the closed-loop rounds, and the metrics.
//!
//! A run measures one workload on one thread. The case list is run for
//! whole *rounds* (rounds are the outer loop, so repeats of a case are
//! spread over the run) until `--seconds` have passed. In every round
//! each case execution is preceded by one run of the reference kernel
//! and followed by the same case unverified; the cost of a case is
//! `case_time / ref_time` in reference units (`ru`), and its value is the
//! median over the rounds.
//!
//! The traced run replaces the unverified execution by the real verified
//! one: each case runs through the timed adapters and then through the
//! real drivers, which gives the per-layer numbers, the adapter-drift
//! check and `trace.overhead_x` from the same pair.

use crate::kernel::{self, median, now, percentile};
use crate::timed::{Hist, Layer, Probe};
use crate::workloads::{Case, CaseTrace, Counts, Kind, SearchCounts, CASES};
use std::collections::BTreeMap;

/// One metric declaration: name, unit, `true` when higher is better, and
/// the regression bound (share of the baseline's median).
pub type EndToEnd = (&'static str, &'static str, bool, f64);

/// The end-to-end metrics, as declared in `BENCHMARK.json`.
pub const END_TO_END: [EndToEnd; 6] = [
    ("setup_s", "s", false, 0.25),
    ("verified_ops_per_ru", "ops/ru", true, 0.15),
    ("case_ru_p50", "ru", false, 0.15),
    ("case_ru_p90", "ru", false, 0.20),
    ("verify_overhead_x", "ratio", false, 0.15),
    ("case_heap_p50_mb", "MiB", false, 0.10),
];

/// The per-layer metrics `(name, unit)`, as declared in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("sim.self_s", "s"),
    ("sim.share", "ratio"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.sends", "count"),
    ("sim.retried", "count"),
    ("sim.held", "count"),
    ("sim.dropped", "count"),
    ("runtime.invoke_s", "s"),
    ("runtime.receive_s", "s"),
    ("runtime.gossip_s", "s"),
    ("runtime.final_sync_s", "s"),
    ("runtime.share", "ratio"),
    ("runtime.calls", "count"),
    ("runtime.applied", "count"),
    ("runtime.ns_per_applied", "ns"),
    ("runtime.receive_ns_p50", "ns"),
    ("runtime.receive_ns_p99", "ns"),
    ("runtime.state.busy_s", "s"),
    ("runtime.delta.busy_s", "s"),
    ("runtime.state.payload_bytes", "bytes"),
    ("runtime.delta.payload_bytes", "bytes"),
    ("runtime.delta.bytes_ratio", "ratio"),
    ("monitor.feed_s", "s"),
    ("monitor.observe_s", "s"),
    ("monitor.share", "ratio"),
    ("monitor.feed_us_p50", "us"),
    ("monitor.feed_us_p99", "us"),
    ("monitor.feed_us_max", "us"),
    ("monitor.observe_ns_p50", "ns"),
    ("monitor.observe_ns_p99", "ns"),
    ("monitor.ops", "count"),
    ("monitor.frontier_observations", "count"),
    ("monitor.expansions", "count"),
    ("monitor.dedup_hits", "count"),
    ("monitor.pruned", "count"),
    ("monitor.useful_ratio", "ratio"),
    ("monitor.settled", "count"),
    ("monitor.compactions", "count"),
    ("monitor.peak_live_configs", "count"),
    ("monitor.peak_live_window", "count"),
    ("search.busy_s", "s"),
    ("search.share", "ratio"),
    ("search.ms_p50", "ms"),
    ("search.ms_max", "ms"),
    ("search.nodes", "count"),
    ("search.memo_hits", "count"),
    ("search.fallbacks", "count"),
    ("sharded.busy_s", "s"),
    ("sharded.share", "ratio"),
    ("sharded.shards", "count"),
    ("sharded.nodes", "count"),
    ("sharded.stitch_fallbacks", "count"),
    ("verify.busy_s", "s"),
    ("verify.share", "ratio"),
    ("trace.overhead_x", "ratio"),
    ("trace.timer_pair_ns", "ns"),
    ("trace.ref_kernel_ms", "ms"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Cases executed (untimed) at the end of each set-up to warm caches.
const WARMUP_CASES: usize = 5;
/// Cases and rounds of a `--quick` run.
const QUICK: usize = 2;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Base seed of the case list.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub traced: bool,
    /// Two cases, two rounds, `--seconds` ignored.
    pub quick: bool,
    /// Where to write the spans of a traced run.
    pub spans: Option<std::path::PathBuf>,
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json` (or free-form under `info`).
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// The result of a run.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Cases attempted.
    pub attempted: u64,
    /// Cases that ended undecided (`Exhausted` / `BudgetExhausted`).
    pub failed: u64,
    /// The gated metrics: end-to-end, or per-layer for a traced run.
    pub metrics: Vec<Metric>,
    /// Ungated context: raw seconds, ops/s, rounds, environment.
    pub info: Vec<Metric>,
}

/// One set-up: clock calibration, the case list, the set-up checks, and a
/// short warm-up. Returns the cases and the timer-pair cost.
fn setup(opts: &Options) -> Result<(Vec<Case>, f64), String> {
    let pair_ns = kernel::timer_pair_ns(10_000);
    for _ in 0..5 {
        kernel::timed_ref();
    }
    let n = if opts.quick { QUICK } else { CASES };
    let cases = opts.kind.cases(opts.seed, n);
    opts.kind.setup_checks()?;
    for case in cases.iter().take(WARMUP_CASES) {
        opts.kind.verified(case)?;
        if opts.traced {
            opts.kind.traced(case)?;
        } else {
            opts.kind.unverified(case)?;
        }
    }
    Ok((cases, pair_ns))
}

/// Whether the round loop is done after `rounds` rounds and `elapsed_s`
/// seconds: at least two rounds, then stop at the round boundary nearest
/// to the target. The untraced run keeps one round's time back for its
/// untimed memory round.
fn done(opts: &Options, rounds: usize, elapsed_s: f64) -> bool {
    if opts.quick {
        return rounds >= QUICK;
    }
    let kept_back = if opts.traced { 0.5 } else { 1.5 };
    rounds >= 2 && elapsed_s + kept_back * elapsed_s / rounds as f64 >= opts.seconds
}

/// Checks that an execution counted what the case's first execution did.
fn same_counts(kind: Kind, case: usize, first: &Counts, again: &Counts) -> Result<(), String> {
    if first == again {
        Ok(())
    } else {
        Err(format!(
            "{}: case {case} does not repeat: {first:?} then {again:?}",
            kind.name()
        ))
    }
}

/// Runs the benchmark described by `opts`. `t0` is the process start on
/// the bench clock.
///
/// # Errors
///
/// Any failed check: a wrong verdict, a divergence, a failed law, a moved
/// fingerprint, an accepted negative control, counts that do not repeat,
/// or adapters that drifted from the real drivers.
pub fn run(opts: &Options, t0: u64) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut last = t0;
    let mut built = None;
    for _ in 0..SETUPS {
        built = Some(setup(opts)?);
        let t = now();
        setups.push((t - last) as f64 / 1e9);
        last = t;
    }
    let (cases, pair_ns) = built.expect("SETUPS > 0");
    let setup_s = median(&setups);
    if opts.traced {
        traced_rounds(opts, &cases, pair_ns)
    } else {
        plain_rounds(opts, &cases, setup_s, pair_ns)
    }
}

fn env_info(info: &mut Vec<Metric>, pair_ns: f64, ref_ns: &[f64], rounds: usize, wall_s: f64) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    info.push(Metric::new("rounds", rounds as f64, "count"));
    info.push(Metric::new("measured_s", wall_s, "s"));
    info.push(Metric::new("nproc", nproc as f64, "count"));
    info.push(Metric::new("timer_pair_ns", pair_ns, "ns"));
    let mean_ref = ref_ns.iter().sum::<f64>() / ref_ns.len() as f64;
    info.push(Metric::new("ref_kernel_ms", mean_ref / 1e6, "ms"));
}

fn plain_rounds(
    opts: &Options,
    cases: &[Case],
    setup_s: f64,
    pair_ns: f64,
) -> Result<Outcome, String> {
    let kind = opts.kind;
    let n = cases.len();
    let mut cost = vec![Vec::new(); n]; // verified, ru, per round
    let mut ucost = vec![Vec::new(); n]; // unverified, ru, per round
    let mut counts: Vec<Option<Counts>> = vec![None; n];
    let mut ref_ns = Vec::new();
    let (mut verified_ns, mut unverified_ns) = (0u64, 0u64);
    let start = now();
    let mut rounds = 0;
    while !done(opts, rounds, (now() - start) as f64 / 1e9) {
        for (i, case) in cases.iter().enumerate() {
            let r = kernel::timed_ref() as f64;
            let v = kind.verified(case)?;
            let u = kind.unverified(case)?;
            ref_ns.push(r);
            cost[i].push(v.ns as f64 / r);
            ucost[i].push(u.ns as f64 / r);
            verified_ns += v.ns;
            unverified_ns += u.ns;
            if (u.counts.ops, u.counts.events, u.counts.applied)
                != (v.counts.ops, v.counts.events, v.counts.applied)
            {
                return Err(format!(
                    "{}: case {i}: the unverified run is not the same scenario: {:?} vs {:?}",
                    kind.name(),
                    u.counts,
                    v.counts
                ));
            }
            match &counts[i] {
                Some(first) => same_counts(kind, i, first, &v.counts)?,
                None => counts[i] = Some(v.counts),
            }
        }
        rounds += 1;
    }
    let wall_s = (now() - start) as f64 / 1e9;
    let counts: Vec<Counts> = counts.into_iter().flatten().collect();

    // One more round, untimed, with the allocator counting per case.
    let mut case_heap = Vec::with_capacity(n);
    for (i, case) in cases.iter().enumerate() {
        crate::alloc::arm();
        let again = kind.verified(case);
        case_heap.push(crate::alloc::disarm() as f64 / (1024.0 * 1024.0));
        same_counts(kind, i, &counts[i], &again?.counts)?;
    }

    let case_ru: Vec<f64> = cost.iter().map(|c| median(c)).collect();
    let case_uru: Vec<f64> = ucost.iter().map(|c| median(c)).collect();
    let total_ru: f64 = case_ru.iter().sum();
    let decided_ops: u64 = counts.iter().filter(|c| !c.undecided).map(|c| c.ops).sum();
    let failed = counts.iter().filter(|c| c.undecided).count() as u64;
    let values = [
        setup_s,
        decided_ops as f64 / total_ru,
        percentile(&case_ru, 50.0),
        percentile(&case_ru, 90.0),
        total_ru / case_uru.iter().sum::<f64>(),
        percentile(&case_heap, 50.0),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit, _, _), v)| Metric::new(name, v, unit))
        .collect();

    let mut info = Vec::new();
    env_info(&mut info, pair_ns, &ref_ns, rounds, wall_s);
    let all_ops: u64 = counts.iter().map(|c| c.ops).sum();
    info.push(Metric::new("cases", n as f64, "count"));
    info.push(Metric::new("ops_per_round", all_ops as f64, "count"));
    info.push(Metric::new(
        "verified_ops_per_s",
        (all_ops * rounds as u64) as f64 / (verified_ns as f64 / 1e9),
        "1/s",
    ));
    info.push(Metric::new(
        "unverified_ops_per_s",
        (all_ops * rounds as u64) as f64 / (unverified_ns as f64 / 1e9),
        "1/s",
    ));
    info.push(Metric::new(
        "case_heap_max_mb",
        percentile(&case_heap, 100.0),
        "MiB",
    ));
    if let Some(rss) = kernel::peak_rss_mib() {
        info.push(Metric::new("peak_rss_mb", rss, "MiB"));
    }
    info.push(Metric::new(
        "verified_s_per_round",
        verified_ns as f64 / 1e9 / rounds as f64,
        "s",
    ));
    Ok(Outcome {
        attempted: n as u64,
        failed,
        metrics,
        info,
    })
}

/// One span of the trace file.
struct SpanRec {
    id: u64,
    parent: Option<u64>,
    /// The request identifier: the case's index in the list.
    case: usize,
    round: usize,
    name: &'static str,
    start: u64,
    end: u64,
    /// Aggregate spans only: calls, busy nanoseconds, histogram.
    agg: Option<(u64, u64, Hist)>,
}

/// Appends the spans of one traced case execution.
fn push_spans(spans: &mut Vec<SpanRec>, case: usize, round: usize, trace: &CaseTrace) {
    let mut id = spans.len() as u64;
    let mut push = |parent, name, start, end, agg| {
        spans.push(SpanRec {
            id,
            parent,
            case,
            round,
            name,
            start,
            end,
            agg,
        });
        id += 1;
        id - 1
    };
    let root = push(None, "case", trace.start, trace.end, None);
    for sim in &trace.sims {
        let sim_id = push(Some(root), sim.name, sim.start, sim.end, None);
        for layer in Layer::ALL {
            let agg = sim.probe.layer(layer);
            if agg.calls > 0 {
                let data = (agg.calls, agg.busy_ns, agg.hist.clone());
                push(
                    Some(sim_id),
                    layer.span_name(),
                    sim.start,
                    sim.end,
                    Some(data),
                );
            }
        }
    }
    if let Some((name, start, end)) = trace.stage {
        push(Some(root), name, start, end, None);
    }
}

fn write_spans(path: &std::path::Path, kind: Kind, spans: &[SpanRec]) -> Result<(), String> {
    use std::fmt::Write as _;
    let mut out = format!("{{\"workload\":\"{}\",\"spans\":[", kind.name());
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"id\":{},\"parent\":{parent},\"case\":{},\"round\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
            s.id, s.case, s.round, s.name, s.start, s.end
        );
        if let Some((calls, busy, hist)) = &s.agg {
            let buckets: Vec<String> = hist
                .nonzero()
                .iter()
                .map(|(lo, n)| format!("[{lo},{n}]"))
                .collect();
            let _ = write!(
                out,
                ",\"calls\":{calls},\"busy_ns\":{busy},\"hist_ns\":[{}]",
                buckets.join(",")
            );
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    ral_obs::json::validate(&out).map_err(|e| format!("trace file is not valid JSON: {e}"))?;
    std::fs::write(path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn traced_rounds(opts: &Options, cases: &[Case], pair_ns: f64) -> Result<Outcome, String> {
    let kind = opts.kind;
    let n = cases.len();
    let mut counts: Vec<Option<Counts>> = vec![None; n];
    let mut overhead = vec![Vec::new(); n]; // traced ns / untraced ns, per round
    let mut stage_ms = vec![Vec::new(); n]; // search / sharded / verify, per round
    let mut ref_ns = Vec::new();
    let mut spans = Vec::new();
    // Sums over every round.
    let mut case_ns = 0.0;
    let mut sim_self_ns = 0.0;
    let mut stage_ns = 0.0;
    let mut all = Probe::default();
    let mut layer_ns = [0.0; 6];
    let (mut state_ns, mut delta_ns) = (0.0, 0.0);
    // Checker-side counts of the first round.
    let mut search = SearchCounts::default();

    let start = now();
    let mut rounds = 0;
    while !done(opts, rounds, (now() - start) as f64 / 1e9) {
        for (i, case) in cases.iter().enumerate() {
            ref_ns.push(kernel::timed_ref() as f64);
            let t = kind.traced(case)?;
            let v = kind.verified(case)?;
            // The adapters may not drift from the real drivers.
            if t.counts != v.counts {
                return Err(format!(
                    "{}: case {i}: the timed adapters drifted from the real drivers: {:?} vs {:?}",
                    kind.name(),
                    t.counts,
                    v.counts
                ));
            }
            match &counts[i] {
                Some(first) => same_counts(kind, i, first, &v.counts)?,
                None => counts[i] = Some(v.counts),
            }
            let trace = &t.trace;
            let traced_ns = (trace.end - trace.start) as f64;
            overhead[i].push(traced_ns / v.ns as f64);
            // Shares are taken of the case time with the timers' own cost
            // (one pair per timed call) removed, as it is from each layer.
            let timed_calls: u64 = trace.sims.iter().map(|s| s.probe.calls()).sum();
            case_ns += traced_ns - timed_calls as f64 * pair_ns;
            for sim in &trace.sims {
                let run_ns = (sim.end - sim.start) as f64;
                sim_self_ns += (run_ns - sim.probe.outer_ns(pair_ns)).max(0.0);
                let mut runtime_ns = 0.0;
                for layer in Layer::ALL {
                    let ns = sim.probe.corrected_ns(layer, pair_ns);
                    layer_ns[layer as usize] += ns;
                    if Layer::RUNTIME.contains(&layer) {
                        runtime_ns += ns;
                    }
                }
                match sim.name {
                    "sim.run.state" => state_ns += runtime_ns,
                    "sim.run.delta" => delta_ns += runtime_ns,
                    _ => {}
                }
                all.merge(&sim.probe);
            }
            if let Some((_, s, e)) = trace.stage {
                stage_ns += (e - s) as f64;
                stage_ms[i].push((e - s) as f64 / 1e6);
            }
            if rounds == 0 {
                search.add(&trace.search);
            }
            if opts.spans.is_some() {
                push_spans(&mut spans, i, rounds, trace);
            }
        }
        rounds += 1;
    }
    let wall_s = (now() - start) as f64 / 1e9;
    if let Some(path) = &opts.spans {
        write_spans(path, kind, &spans)?;
    }

    let counts: Vec<Counts> = counts.into_iter().flatten().collect();
    let sum = |f: fn(&Counts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    let per_round = |ns: f64| ns / 1e9 / rounds as f64;
    let share = |ns: f64| ns / case_ns;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let layer = |l: Layer| layer_ns[l as usize];
    let runtime_ns: f64 = Layer::RUNTIME.into_iter().map(layer).sum();
    let monitor_ns = layer(Layer::Feed) + layer(Layer::Observe);
    let runtime_calls: u64 = Layer::RUNTIME.iter().map(|l| all.layer(*l).calls).sum();
    let stage = |name: Kind| if kind == name { stage_ns } else { 0.0 };
    let (search_ns, sharded_ns, verify_ns) = (
        stage(Kind::BatchWide),
        stage(Kind::BatchComposed),
        stage(Kind::GossipLossy),
    );
    let stage_case_ms: Vec<f64> = stage_ms
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| median(v))
        .collect();

    let mon = |f: fn(&ral_core::ralin::MonitorStats) -> u64| {
        counts
            .iter()
            .filter_map(|c| c.monitor.as_ref())
            .map(f)
            .sum::<u64>() as f64
    };
    let mon_max = |f: fn(&ral_core::ralin::MonitorStats) -> u64| {
        counts
            .iter()
            .filter_map(|c| c.monitor.as_ref())
            .map(f)
            .max()
            .unwrap_or(0) as f64
    };
    let expansions = mon(|m| m.expansions);
    let dedup = mon(|m| m.dedup_hits);
    let pruned = mon(|m| {
        m.prune_frontier_death
            + m.prune_query_unjustified
            + m.prune_dead_pending_query
            + m.prune_unsettled
    });
    let feed = &all.layer(Layer::Feed).hist;
    let observe = &all.layer(Layer::Observe).hist;
    let receive = &all.layer(Layer::Receive).hist;
    let rounds_f = rounds as f64;
    let is = |k: Kind| if kind == k { 1.0 } else { 0.0 };

    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    m.insert("sim.self_s", per_round(sim_self_ns));
    m.insert("sim.share", share(sim_self_ns));
    m.insert("sim.events", sum(|c| c.events));
    m.insert(
        "sim.ns_per_event",
        ratio(sim_self_ns / rounds_f, sum(|c| c.events)),
    );
    m.insert("sim.sends", sum(|c| c.sends));
    m.insert("sim.retried", sum(|c| c.retried));
    m.insert("sim.held", sum(|c| c.held));
    m.insert("sim.dropped", sum(|c| c.dropped));
    m.insert("runtime.invoke_s", per_round(layer(Layer::Invoke)));
    m.insert("runtime.receive_s", per_round(layer(Layer::Receive)));
    m.insert("runtime.gossip_s", per_round(layer(Layer::Gossip)));
    m.insert("runtime.final_sync_s", per_round(layer(Layer::FinalSync)));
    m.insert("runtime.share", share(runtime_ns));
    m.insert("runtime.calls", runtime_calls as f64 / rounds_f);
    m.insert("runtime.applied", sum(|c| c.applied));
    m.insert(
        "runtime.ns_per_applied",
        ratio(runtime_ns / rounds_f, sum(|c| c.applied)),
    );
    m.insert("runtime.receive_ns_p50", receive.percentile(50.0));
    m.insert("runtime.receive_ns_p99", receive.percentile(99.0));
    m.insert("runtime.state.busy_s", per_round(state_ns));
    m.insert("runtime.delta.busy_s", per_round(delta_ns));
    m.insert("runtime.state.payload_bytes", sum(|c| c.state_bytes));
    m.insert("runtime.delta.payload_bytes", sum(|c| c.delta_bytes));
    m.insert(
        "runtime.delta.bytes_ratio",
        ratio(sum(|c| c.delta_bytes), sum(|c| c.state_bytes)),
    );
    m.insert("monitor.feed_s", per_round(layer(Layer::Feed)));
    m.insert("monitor.observe_s", per_round(layer(Layer::Observe)));
    m.insert("monitor.share", share(monitor_ns));
    m.insert("monitor.feed_us_p50", feed.percentile(50.0) / 1e3);
    m.insert("monitor.feed_us_p99", feed.percentile(99.0) / 1e3);
    m.insert("monitor.feed_us_max", feed.max() as f64 / 1e3);
    m.insert("monitor.observe_ns_p50", observe.percentile(50.0));
    m.insert("monitor.observe_ns_p99", observe.percentile(99.0));
    m.insert("monitor.ops", mon(|m| m.ops));
    m.insert(
        "monitor.frontier_observations",
        mon(|m| m.frontier_observations),
    );
    m.insert("monitor.expansions", expansions);
    m.insert("monitor.dedup_hits", dedup);
    m.insert("monitor.pruned", pruned);
    // Useful outcomes to attempts: every operation must be placed once;
    // every expansion beyond that explored an order that did not matter.
    m.insert("monitor.useful_ratio", ratio(mon(|m| m.ops), expansions));
    m.insert("monitor.settled", mon(|m| m.settled));
    m.insert("monitor.compactions", mon(|m| m.compactions));
    m.insert(
        "monitor.peak_live_configs",
        mon_max(|m| m.peak_live_configs),
    );
    m.insert("monitor.peak_live_window", mon_max(|m| m.peak_live_window));
    let wide = is(Kind::BatchWide);
    m.insert("search.busy_s", per_round(search_ns));
    m.insert("search.share", share(search_ns));
    let (p50, max) = if stage_case_ms.is_empty() {
        (0.0, 0.0)
    } else {
        (
            percentile(&stage_case_ms, 50.0),
            percentile(&stage_case_ms, 100.0),
        )
    };
    m.insert("search.ms_p50", wide * p50);
    m.insert("search.ms_max", wide * max);
    m.insert("search.nodes", wide * search.nodes as f64);
    m.insert("search.memo_hits", wide * search.memo_hits as f64);
    m.insert("search.fallbacks", wide * search.fallbacks as f64);
    let composed = is(Kind::BatchComposed);
    m.insert("sharded.busy_s", per_round(sharded_ns));
    m.insert("sharded.share", share(sharded_ns));
    m.insert("sharded.shards", composed * search.shards as f64);
    m.insert("sharded.nodes", composed * search.nodes as f64);
    m.insert(
        "sharded.stitch_fallbacks",
        composed * search.stitch_fallbacks as f64,
    );
    m.insert("verify.busy_s", per_round(verify_ns));
    m.insert("verify.share", share(verify_ns));
    let case_overhead: Vec<f64> = overhead.iter().map(|o| median(o)).collect();
    m.insert(
        "trace.overhead_x",
        case_overhead.iter().sum::<f64>() / n as f64,
    );
    m.insert("trace.timer_pair_ns", pair_ns);
    m.insert(
        "trace.ref_kernel_ms",
        ref_ns.iter().sum::<f64>() / ref_ns.len() as f64 / 1e6,
    );

    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let value = m
                .remove(name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not computed"));
            Metric::new(name, value, unit)
        })
        .collect();
    assert!(m.is_empty(), "undeclared per-layer metrics: {m:?}");

    let mut info = Vec::new();
    env_info(&mut info, pair_ns, &ref_ns, rounds, wall_s);
    info.push(Metric::new("cases", n as f64, "count"));
    info.push(Metric::new(
        "share_sum",
        share(sim_self_ns + runtime_ns + monitor_ns + stage_ns),
        "ratio",
    ));
    Ok(Outcome {
        attempted: n as u64,
        failed: counts.iter().filter(|c| c.undecided).count() as u64,
        metrics,
        info,
    })
}
