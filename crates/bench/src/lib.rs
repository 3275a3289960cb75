#![warn(missing_docs)]
//! Minimal internal benchmarking harness — the workspace's `criterion`
//! replacement, so `cargo bench` works offline with zero external crates.
//!
//! Each bench target is a plain binary (`harness = false` in
//! `Cargo.toml`) built from [`bench_group!`] + [`bench_main!`]. A target
//! exists only if it sweeps a parameter every workload of the end-to-end
//! `pipeline` benchmark (`BENCHMARK.json`) holds fixed *and* `ci.sh` runs
//! it; `tests/registry.rs` holds the manifest, `benches/` and `ci.sh`
//! equal. The measurement protocol per benchmark:
//!
//! 1. **warmup** — run the closure for ~`warmup` wall time to stabilise
//!    caches and frequency scaling;
//! 2. **calibrate** — pick an iteration count per sample so one sample
//!    takes ~`sample_time`;
//! 3. **sample** — collect `sample_size` samples and report the
//!    **median** per-iteration time (plus min/mean/max).
//!
//! Every run prints a human-readable line per benchmark and, at process
//! exit, a JSON document on stdout (between `BENCH-JSON-BEGIN`/`END`
//! markers) for machine consumption. Passing `--save <path>` writes the
//! JSON to a file instead.
//!
//! A benchmark name passed as a CLI argument filters (substring match),
//! mirroring libtest: `cargo bench --bench checker_scaling -- facade`.
//!
//! A benchmark's name never carries a quantity read off a run: every
//! target declares its full series list and [`Harness::finalize`] refuses
//! a run that emitted anything else, so two reports always diff series by
//! series. What a run measured about its *input* (operations replayed,
//! bytes shipped) travels in [`Record::elements`].

use ral_obs::json::{json_string, validate};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One measured benchmark: its name and per-iteration statistics.
#[derive(Clone, Debug)]
pub struct Record {
    /// Full benchmark name (`group/function/param`).
    pub name: String,
    /// Units of work one iteration processes (operations, bytes), when
    /// the benchmark declared them ([`BenchmarkId::elements`]).
    pub elements: Option<u64>,
    /// Samples actually collected.
    pub samples: usize,
    /// Iterations per sample.
    pub iters_per_sample: u64,
    /// Median per-iteration time.
    pub median: Duration,
    /// Arithmetic mean per-iteration time.
    pub mean: Duration,
    /// Fastest sample's per-iteration time.
    pub min: Duration,
    /// Slowest sample's per-iteration time.
    pub max: Duration,
}

impl Record {
    fn to_json(&self) -> String {
        format!(
            "{{\"name\":{},\"elements\":{},\"samples\":{},\"iters_per_sample\":{},\
             \"median_ns\":{},\"mean_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
            json_string(&self.name),
            self.elements.map_or("null".to_string(), |n| n.to_string()),
            self.samples,
            self.iters_per_sample,
            self.median.as_nanos(),
            self.mean.as_nanos(),
            self.min.as_nanos(),
            self.max.as_nanos(),
        )
    }
}

/// Formats a duration the way humans read benchmark output.
fn human(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", ns as f64 / 1_000_000_000.0)
    }
}

/// Names a benchmark within a group, optionally parameterised.
///
/// API-compatible with the criterion type of the same name for the two
/// constructors the benches use.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
    elements: Option<u64>,
}

impl BenchmarkId {
    /// A function name plus a parameter, rendered `name/param`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self::from_parameter(format!("{}/{}", name.into(), parameter))
    }

    /// Just a parameter (the group name already identifies the function).
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
            elements: None,
        }
    }

    /// Declares how many units of work one iteration processes
    /// ([`Record::elements`]; `elements / median` is the rate).
    pub fn elements(mut self, n: u64) -> Self {
        self.elements = Some(n);
        self
    }
}

/// Hands the benchmark closure to the measurement loop.
pub struct Bencher<'a> {
    harness: &'a Harness,
    sample_size: usize,
    record: Option<Record>,
    name: String,
    elements: Option<u64>,
}

impl Bencher<'_> {
    /// Measures `routine`: warmup, calibration, then `sample_size`
    /// samples whose median is reported.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        // Warmup (and a first timing estimate).
        let warmup_start = Instant::now();
        let mut warmup_iters: u64 = 0;
        while warmup_start.elapsed() < self.harness.warmup {
            std::hint::black_box(routine());
            warmup_iters += 1;
        }
        let per_iter = warmup_start.elapsed().as_nanos() / u128::from(warmup_iters.max(1));

        // Calibrate iterations per sample to ~sample_time.
        let target = self.harness.sample_time.as_nanos();
        let iters = ((target / per_iter.max(1)).min(u128::from(u64::MAX)) as u64).max(1);

        let mut per_iter_times: Vec<Duration> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            per_iter_times.push(start.elapsed() / iters.try_into().unwrap_or(u32::MAX));
        }
        per_iter_times.sort_unstable();
        let median = per_iter_times[per_iter_times.len() / 2];
        let mean = per_iter_times.iter().sum::<Duration>() / per_iter_times.len() as u32;
        self.record = Some(Record {
            name: self.name.clone(),
            elements: self.elements,
            samples: per_iter_times.len(),
            iters_per_sample: iters,
            median,
            mean,
            min: per_iter_times[0],
            max: *per_iter_times.last().unwrap(),
        });
    }
}

/// Top-level harness state: configuration, the name filter, and every
/// record measured so far.
pub struct Harness {
    warmup: Duration,
    sample_time: Duration,
    default_sample_size: usize,
    filter: Option<String>,
    save_path: Option<PathBuf>,
    records: Vec<Record>,
}

/// Criterion-compatible alias so bench functions keep their
/// `fn bench(c: &mut Criterion)` signatures.
pub type Criterion = Harness;

const USAGE: &str = "usage: cargo bench --bench <target> -- [--quick] [--save <path>] [<filter>]";

impl Harness {
    /// The harness [`bench_main!`] runs, built from the process arguments.
    /// A bad argument prints the usage on stderr and exits with status 2:
    /// a typo in `ci.sh` must fail the step, not run some other benchmark.
    pub fn from_env() -> Self {
        Harness::from_args(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Builds a harness from CLI-style arguments.
    ///
    /// Recognised: `--save <path>` (JSON destination), `--quick` (fewer,
    /// shorter samples), and a free-form substring filter. The flags cargo
    /// and libtest pass to every bench binary (`--bench`, `--test`,
    /// `--nocapture`) are accepted and ignored; any other `--flag`, and a
    /// `--save` without a path, is an error.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let (mut filter, mut quick, mut save_path) = (None, false, None);
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--bench" | "--test" | "--nocapture" => {}
                "--save" => match args.next() {
                    Some(path) if !path.starts_with("--") => save_path = Some(PathBuf::from(path)),
                    _ => return Err("--save needs a path".to_string()),
                },
                "--quick" => quick = true,
                a if a.starts_with("--") => return Err(format!("unknown flag {a}")),
                a => filter = Some(a.to_string()),
            }
        }
        Ok(Harness {
            warmup: Duration::from_millis(if quick { 20 } else { 300 }),
            sample_time: Duration::from_millis(if quick { 10 } else { 60 }),
            default_sample_size: if quick { 5 } else { 21 },
            filter,
            save_path,
            records: Vec::new(),
        })
    }

    fn wants(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Opens a named group; benchmarks inside are reported as
    /// `group/name`.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            harness: self,
            name: name.to_string(),
            sample_size: None,
        }
    }

    /// Renders all collected records as a JSON array.
    pub fn json(&self) -> String {
        let rows: Vec<String> = self.records.iter().map(Record::to_json).collect();
        format!("[\n  {}\n]", rows.join(",\n  "))
    }

    /// Holds the run to the target's declared series: the names measured
    /// must be exactly the whitespace-separated `series` (those the filter
    /// selects), in order.
    fn assert_series(&self, series: &str) {
        let declared: Vec<&str> = series
            .split_whitespace()
            .filter(|n| self.wants(n))
            .collect();
        let emitted: Vec<&str> = self.records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            emitted, declared,
            "the series this run emitted are not the ones the target declares"
        );
    }

    /// Holds the run to the target's declared `series` (a panic otherwise)
    /// and emits the JSON report: to the `--save` path if given, else to
    /// stdout between explicit markers. Called once by [`bench_main!`].
    pub fn finalize(&self, series: &str) {
        self.assert_series(series);
        if self.records.is_empty() {
            return;
        }
        let json = self.json();
        validate(&json).expect("the bench report is valid JSON");
        match &self.save_path {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &json) {
                    eprintln!("warning: could not write {path:?}: {e}");
                } else {
                    eprintln!("wrote {} records to {path:?}", self.records.len());
                }
            }
            None => {
                println!("BENCH-JSON-BEGIN");
                println!("{json}");
                println!("BENCH-JSON-END");
            }
        }
    }
}

/// A group of related benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'a> {
    harness: &'a mut Harness,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of samples for benchmarks in this group
    /// (use a small count for expensive routines).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(3));
        self
    }

    /// Measures `group/id`, passing `input` through to the closure.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        f: impl FnOnce(&mut Bencher<'_>, &I),
    ) {
        let name = format!("{}/{}", self.name, id.id);
        if !self.harness.wants(&name) {
            return;
        }
        let mut bencher = Bencher {
            harness: self.harness,
            sample_size: self.sample_size.unwrap_or(self.harness.default_sample_size),
            record: None,
            name,
            elements: id.elements,
        };
        f(&mut bencher, input);
        if let Some(record) = bencher.record {
            let elements = record
                .elements
                .map_or_else(String::new, |n| format!(", {n} elements"));
            eprintln!(
                "bench {:<44} median {:>10}   (mean {}, {} samples x {} iters{elements})",
                record.name,
                human(record.median),
                human(record.mean),
                record.samples,
                record.iters_per_sample,
            );
            self.harness.records.push(record);
        }
    }

    /// Ends the group (kept for criterion source compatibility).
    pub fn finish(self) {}
}

/// Declares a bench group: a runner function calling each listed
/// benchmark function in order. Drop-in for `criterion_group!`.
#[macro_export]
macro_rules! bench_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(c: &mut $crate::Harness) {
            $( $target(c); )+
        }
    };
}

/// Declares `main` for a bench binary: builds a [`Harness`] from CLI
/// args, runs the groups, holds the run to the target's declared series
/// list and emits the JSON report.
#[macro_export]
macro_rules! bench_main {
    ($($group:path),+; $series:expr) => {
        fn main() {
            let mut harness = $crate::Harness::from_env();
            $( $group(&mut harness); )+
            harness.finalize($series);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<Harness, String> {
        Harness::from_args(args.split_whitespace().map(String::from))
    }

    fn quiet_harness() -> Harness {
        let mut h = parse("--quick").unwrap();
        h.warmup = Duration::from_micros(200);
        h.sample_time = Duration::from_micros(100);
        h.default_sample_size = 3;
        h
    }

    /// Measures a no-op as `grp/<id>`.
    fn bench(h: &mut Harness, id: BenchmarkId) {
        h.benchmark_group("grp")
            .bench_with_input(id, &(), |b, _| b.iter(|| ()));
    }

    #[test]
    fn measures_and_records() {
        let mut h = quiet_harness();
        bench(&mut h, BenchmarkId::from_parameter("tiny"));
        assert_eq!(h.records.len(), 1);
        let r = &h.records[0];
        assert_eq!(r.name, "grp/tiny");
        assert!(r.min <= r.median && r.median <= r.max);
        assert!(r.iters_per_sample >= 1);
    }

    #[test]
    fn groups_prefix_names_and_respect_sample_size() {
        let mut h = quiet_harness();
        let mut g = h.benchmark_group("grp");
        g.sample_size(5);
        g.bench_with_input(BenchmarkId::from_parameter(32), &32u64, |b, &n| {
            b.iter(|| std::hint::black_box(n * 2))
        });
        g.bench_with_input(BenchmarkId::new("f", 7), &(), |b, _| b.iter(|| ()));
        g.finish();
        assert_eq!(h.records[0].name, "grp/32");
        assert_eq!(h.records[0].samples, 5);
        assert_eq!(h.records[1].name, "grp/f/7");
    }

    #[test]
    fn filter_skips_non_matching() {
        let mut h = quiet_harness();
        h.filter = Some("keep".to_string());
        bench(&mut h, BenchmarkId::from_parameter("keep_this"));
        bench(&mut h, BenchmarkId::from_parameter("drop_this"));
        assert_eq!(h.records.len(), 1);
        assert_eq!(h.records[0].name, "grp/keep_this");
        // The declared list is filtered the same way before it is compared.
        h.assert_series("grp/keep_this grp/drop_this");
    }

    #[test]
    fn cargo_and_libtest_flags_are_accepted() {
        let h = parse("--quick --save o.json memo --bench --test --nocapture").unwrap();
        assert_eq!(h.default_sample_size, 5);
        assert_eq!(h.save_path, Some(PathBuf::from("o.json")));
        assert_eq!(h.filter.as_deref(), Some("memo"));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert_eq!(parse("--qiuck").err().unwrap(), "unknown flag --qiuck");
    }

    #[test]
    fn save_without_a_path_is_an_error() {
        // Cargo appends `--bench` after the user's arguments, so a bare
        // `--save` is followed by a flag, not by nothing.
        for args in ["--save", "--quick --save --bench"] {
            assert_eq!(parse(args).err().unwrap(), "--save needs a path");
        }
    }

    #[test]
    fn json_report_is_valid_and_carries_elements() {
        let mut h = quiet_harness();
        bench(&mut h, BenchmarkId::new("with \"quotes\"", 1).elements(42));
        bench(&mut h, BenchmarkId::from_parameter("bare"));
        assert_eq!(h.records[0].elements, Some(42));
        let json = h.json();
        validate(&json).expect("strictly valid JSON");
        assert!(json.contains(r#"{"name":"grp/with \"quotes\"/1","elements":42,"#));
        assert!(json.contains(r#"{"name":"grp/bare","elements":null,"#));
    }

    #[test]
    #[should_panic(expected = "not the ones the target declares")]
    fn a_series_the_target_does_not_declare_fails_the_run() {
        let mut h = quiet_harness();
        bench(&mut h, BenchmarkId::from_parameter("1658kB"));
        h.assert_series("grp/50rep");
    }
}
