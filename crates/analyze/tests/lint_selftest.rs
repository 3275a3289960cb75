//! Self-test of the determinism lint: each rule must fire on its fixture
//! file, the clean fixture must pass, and the real workspace must be clean
//! with no stale allowlist entries.
//!
//! The fixture files live under `tests/lint_fixtures/` — a directory the
//! workspace scanner skips by name, so the fixtures can contain the banned
//! constructs without failing the gate they exist to test.

use ral_analyze::lint::{
    lint_workspace, scan_source, RULE_CLOCK, RULE_ENV, RULE_HASH, RULE_SPAWN, RULE_THREAD,
};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/lint_fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn each_rule_fires_on_its_fixture() {
    let cases = [
        ("uses_hash_collections.rs", RULE_HASH),
        ("uses_wall_clock.rs", RULE_CLOCK),
        ("uses_env_read.rs", RULE_ENV),
        ("uses_thread_id.rs", RULE_THREAD),
        ("uses_thread_spawn.rs", RULE_SPAWN),
    ];
    for (file, rule) in cases {
        // Scan under a synthetic non-exempt path: the rules must judge the
        // content, not the fixture's real location.
        let hits = scan_source(&format!("crates/example/src/{file}"), &fixture(file));
        assert!(!hits.is_empty(), "{file}: expected a {rule} hit, got none");
        assert!(
            hits.iter().all(|h| h.rule == rule),
            "{file}: expected only {rule} hits, got {hits:?}"
        );
    }
}

#[test]
fn wall_clock_in_obs_outside_wallclock_module_still_fires() {
    // `crates/obs` carries the one allowlisted wall-clock read in
    // `src/wallclock.rs`. That entry is file-scoped: the same construct
    // anywhere else in the crate must still fail the gate.
    let src = fixture("uses_wall_clock_in_obs.rs");
    for path in ["crates/obs/src/recorder.rs", "crates/obs/src/perfetto.rs"] {
        let hits = scan_source(path, &src);
        assert!(
            hits.iter().any(|h| h.rule == RULE_CLOCK),
            "{path}: expected a {RULE_CLOCK} hit, got {hits:?}"
        );
    }
    // The allowlisted file itself also *scans* dirty — suppression is the
    // allowlist's job, not the scanner's, which is what keeps the entry
    // from going stale silently.
    let hits = scan_source("crates/obs/src/wallclock.rs", &src);
    assert!(hits.iter().any(|h| h.rule == RULE_CLOCK));
}

#[test]
fn thread_id_in_runtime_outside_exec_module_still_fires() {
    // `crates/runtime` delivers sequentially and has no allowlisted
    // thread-identity read (the sharded executor's `exec.rs` entry went
    // with it): the construct anywhere in the crate must fail the gate.
    let src = fixture("uses_thread_id_in_runtime.rs");
    for path in [
        "crates/runtime/src/mailbox.rs",
        "crates/runtime/src/op_based.rs",
    ] {
        let hits = scan_source(path, &src);
        assert!(
            hits.iter().any(|h| h.rule == RULE_THREAD),
            "{path}: expected a {RULE_THREAD} hit, got {hits:?}"
        );
    }
}

#[test]
fn clean_fixture_stays_clean() {
    let hits = scan_source("crates/example/src/clean.rs", &fixture("clean.rs"));
    assert!(hits.is_empty(), "clean fixture tripped the lint: {hits:?}");
}

#[test]
fn workspace_is_clean_and_fixture_dir_is_skipped() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let outcome = lint_workspace(&root).expect("scan");
    assert!(
        outcome.clean(),
        "workspace lint hits:\n{}",
        outcome
            .hits
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        outcome.stale_allow.is_empty(),
        "stale allowlist entries: {:?}",
        outcome.stale_allow
    );
    // Every allowlist entry is exercised by the current tree.
    assert!(outcome.allowed > 0, "allowlist suppressed nothing");
    // The banned-construct fixtures must not appear in the scan set: the
    // workspace count stays stable whether or not they exist.
    assert!(outcome.files_scanned > 50, "suspiciously few files scanned");
}
