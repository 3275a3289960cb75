//! The rule that admits a bench target, held mechanically: a target exists
//! only if it sweeps a parameter every `pipeline` workload holds fixed
//! *and* `ci.sh` runs it. The first half is a judgement recorded in the
//! README; the second is checked here — the `[[bench]]` targets the
//! manifest declares, the files under `benches/`, the targets `ci.sh` runs
//! with `--quick --save` and the `BENCH_*.json` artifacts the workflow
//! uploads must be the same set, so a bench nobody runs cannot be added
//! (or left behind) without failing this test.

use std::path::PathBuf;

fn read(relative: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

fn sorted(mut names: Vec<String>) -> Vec<String> {
    names.sort();
    names
}

/// The text between `prefix` and `suffix` on every line that has both.
fn between(text: &str, prefix: &str, suffix: &str) -> Vec<String> {
    let cut = |line: &str| {
        let rest = &line[line.find(prefix)? + prefix.len()..];
        Some(rest[..rest.find(suffix)?].to_string())
    };
    sorted(text.lines().filter_map(cut).collect())
}

#[test]
fn manifest_benches_dir_ci_and_workflow_name_the_same_targets() {
    let manifest = read("Cargo.toml");
    let benches = manifest.split_once("[[bench]]").expect("bench targets").1;
    let declared = between(benches, "name = \"", "\"");

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("benches");
    let on_disk = sorted(
        std::fs::read_dir(dir)
            .expect("benches/ exists")
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .map(|file| file.strip_suffix(".rs").expect("a .rs file").to_string())
            .collect(),
    );

    // One `cargo bench` line per target, each saving `BENCH_<target>.json`.
    let (ci, workflow) = (read("../../ci.sh"), read("../../.github/workflows/ci.yml"));
    let run = between(
        &ci,
        "step cargo bench --offline --bench ",
        " -- --quick --save ",
    );
    let saved = between(&ci, " -- --quick --save \"$PWD/BENCH_", ".json\"");
    let uploaded = between(&workflow, "path: BENCH_", ".json");

    assert!(!declared.is_empty());
    assert_eq!(declared, on_disk, "Cargo.toml [[bench]] vs benches/*.rs");
    assert_eq!(declared, run, "Cargo.toml [[bench]] vs ci.sh");
    assert_eq!(run, saved, "ci.sh: --bench <t> saves BENCH_<t>.json");
    assert_eq!(saved, uploaded, "ci.sh artifacts vs ci.yml uploads");
}

/// `composed_scaling` sweeps the object count for three series; a size one
/// of them skips, or a record without `elements` (ns/op and the growth per
/// doubling could not be read off the report), fails here.
#[test]
fn composed_scaling_times_every_series_at_every_size_with_elements() {
    let source = read("benches/composed_scaling.rs");
    assert_eq!(
        source.matches("BenchmarkId::new(").count(),
        source.matches(".elements(").count(),
        "every BenchmarkId declares its elements"
    );
    let declared = source.split_once("const SERIES").expect("SERIES").1;
    let sizes = |series: &str| -> Vec<&str> {
        let prefix = format!("composed_scaling/{series}/");
        let names = declared.split(|c: char| c.is_whitespace() || c == '"' || c == ';');
        names
            .filter_map(|name| name.strip_prefix(&prefix))
            .collect()
    };
    assert!(!sizes("monolithic").is_empty());
    assert_eq!(sizes("sharded"), sizes("monolithic"));
    assert_eq!(sizes("sharded_ts"), sizes("monolithic"));
}
