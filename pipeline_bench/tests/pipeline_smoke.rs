//! Smoke test of the `pipeline` runner against its declaration.
//!
//! `--quick` (two cases, two rounds) must emit, for every workload, every
//! metric `BENCHMARK.json` names — end-to-end untraced, per-layer traced —
//! with the declared unit, as one strictly valid JSON result line with
//! exactly the contract's keys; two quick runs must agree on every count;
//! and the declaration itself must match the tables the runner is built
//! from. Run with `cargo test --release --manifest-path
//! pipeline_bench/Cargo.toml` (a debug build works, a minute slower).

use pipeline_bench::measure::{END_TO_END, PER_LAYER};
use pipeline_bench::report::Json;
use pipeline_bench::workloads::Kind;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

fn declaration() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    match entry.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("{key}: expected a string, found {other:?}"),
    }
}

fn entries<'a>(decl: &'a Json, key: &str) -> &'a [Json] {
    match decl.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key}: expected an array, found {other:?}"),
    }
}

/// Runs `pipeline --quick` on one workload and returns `metric → (value,
/// unit)` of its result line.
fn quick(workload: &str, trace: &str) -> BTreeMap<String, (f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_pipeline"))
        .args(["--workload", workload, "--seed", "1000", "--seconds", "1"])
        .args(["--trace", trace, "--quick"])
        .output()
        .expect("the runner starts");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    ral_obs::json::validate(line).expect("the result line passes the strict parser");
    let json = Json::parse(line).expect("the result line parses");
    let keys: Vec<&str> = json.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(json.get("attempted").and_then(Json::num), Some(2.0));
    assert_eq!(json.get("failed").and_then(Json::num), Some(0.0));
    json.get("metrics")
        .expect("metrics")
        .members()
        .iter()
        .map(|(name, body)| {
            let value = body.get("value").and_then(Json::num).expect("a number");
            assert!(value.is_finite(), "{workload}/{name} is not finite");
            (name.clone(), (value, text(body, "unit").to_string()))
        })
        .collect()
}

#[test]
fn declaration_matches_the_runner() {
    let decl = declaration();
    let workloads: Vec<&str> = entries(&decl, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    let kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(workloads, kinds);

    let declared: Vec<(&str, &str, bool, f64)> = entries(&decl, "end_to_end")
        .iter()
        .map(|m| {
            let higher = match text(m, "better") {
                "higher" => true,
                "lower" => false,
                other => panic!("better: {other}"),
            };
            let bound = m.get("bound").and_then(Json::num).expect("bound");
            (text(m, "name"), text(m, "unit"), higher, bound)
        })
        .collect();
    assert_eq!(declared, END_TO_END);

    let declared: Vec<(&str, &str)> = entries(&decl, "per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect();
    assert_eq!(declared, PER_LAYER);
}

#[test]
fn quick_runs_emit_every_declared_metric_and_repeat_their_counts() {
    for kind in Kind::ALL {
        let name = kind.name();
        let untraced = quick(name, "0");
        let names: Vec<&str> = untraced.keys().map(String::as_str).collect();
        let mut expected: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        expected.sort_unstable();
        assert_eq!(names, expected, "{name}: end-to-end metrics");
        for (metric, unit, _, _) in END_TO_END {
            let (value, got_unit) = &untraced[metric];
            assert_eq!(got_unit, unit, "{name}/{metric}");
            assert!(*value > 0.0, "{name}/{metric} must never be 0");
        }

        let traced = quick(name, "1");
        let again = quick(name, "1");
        let names: Vec<&str> = traced.keys().map(String::as_str).collect();
        let mut expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        expected.sort_unstable();
        assert_eq!(names, expected, "{name}: per-layer metrics");
        for (metric, unit) in PER_LAYER {
            assert_eq!(&traced[metric].1, unit, "{name}/{metric}");
            // Scenario-side counts repeat exactly; the checker-side
            // exploration counters are reported, not pinned.
            let pinned = matches!(unit, "count" | "bytes")
                && !metric.ends_with(".nodes")
                && !metric.ends_with(".memo_hits");
            if pinned {
                assert_eq!(traced[metric].0, again[metric].0, "{name}/{metric} repeats");
            }
        }
        let shares: f64 = ["sim", "runtime", "monitor", "search", "sharded", "verify"]
            .iter()
            .map(|layer| traced[&format!("{layer}.share")].0)
            .sum();
        assert!(
            (0.8..=1.2).contains(&shares),
            "{name}: layer shares sum to {shares}"
        );
    }
}

#[test]
fn a_bad_workload_name_is_an_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_pipeline"))
        .args([
            "--workload",
            "no_such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("the runner starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line on failure");
}
