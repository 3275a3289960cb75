//! `ral-analyze` — the CI gate binary.
//!
//! Runs both engines and fails (exit 1) unless:
//!
//! * every obligation of every shipped CRDT is **discharged** at the scope
//!   bound,
//! * both negative fixtures are **refuted** with a shrunk counterexample,
//! * the workspace determinism lint is **clean** (modulo the audited
//!   allowlist) and every allowlist entry still matches something.
//!
//! ```text
//! cargo run --release -p ral-analyze             # full gate, scope 3
//! cargo run -p ral-analyze -- --quick            # scope 2 (debug-friendly)
//! cargo run -p ral-analyze -- --scope 4          # deeper search
//! cargo run -p ral-analyze -- --report out.json  # explicit artifact path
//! ```
//!
//! The machine-readable artifact defaults to `ANALYZE_report.json` in the
//! workspace root; CI uploads it.

use ral_analyze::lint::lint_workspace;
use ral_analyze::registry::{analyze_fixtures, analyze_shipped};
use ral_analyze::report::render_report;
use ral_analyze::TypeReport;
use ral_verify::obligations::{render_obligation_table, ObligationRow, Verdict};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Default scope bound (max update operations per explored execution).
const DEFAULT_SCOPE: usize = 3;
/// Scope bound under `--quick`.
const QUICK_SCOPE: usize = 2;

fn usage() -> &'static str {
    "usage: ral-analyze [--quick] [--scope N] [--report PATH] [--no-report]\n\
     \n\
     Bounded-exhaustive simulation-obligation checking plus the workspace\n\
     determinism lint. Exits non-zero on any undischarged obligation, any\n\
     unrefuted negative fixture, any lint hit, or any stale allowlist entry.\n\
     \n\
       --quick        scope 2 instead of 3 (fast debug-build runs)\n\
       --scope N      explicit scope bound (overrides --quick)\n\
       --report PATH  where to write ANALYZE_report.json\n\
       --no-report    skip writing the JSON artifact\n"
}

struct Options {
    scope: usize,
    report_path: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut scope = None;
    let mut quick = false;
    let mut report_path = None;
    let mut no_report = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--scope" => {
                let v = args.next().ok_or("--scope needs a value")?;
                scope = Some(v.parse::<usize>().map_err(|e| format!("--scope: {e}"))?);
            }
            "--report" => {
                report_path = Some(PathBuf::from(args.next().ok_or("--report needs a path")?));
            }
            "--no-report" => no_report = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    let scope = scope.unwrap_or(if quick { QUICK_SCOPE } else { DEFAULT_SCOPE });
    if scope == 0 {
        return Err("--scope must be at least 1".to_string());
    }
    let report_path = if no_report {
        None
    } else {
        Some(report_path.unwrap_or_else(|| workspace_root().join("ANALYZE_report.json")))
    };
    Ok(Options { scope, report_path })
}

/// The workspace root, resolved from this crate's manifest directory so the
/// binary works from any CWD.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

fn rows_of(reports: &[TypeReport], expected_refuted: bool) -> Vec<ObligationRow> {
    let mut rows = Vec::new();
    for r in reports {
        for ob in &r.obligations {
            rows.push(ObligationRow {
                type_name: r.name.clone(),
                style: r.style.to_string(),
                obligation: ob.name.clone(),
                scope: r.scope,
                checks: ob.checks,
                verdict: match (&ob.violation, expected_refuted) {
                    (None, _) => Verdict::Discharged,
                    (Some(_), true) => Verdict::RefutedExpected,
                    (Some(_), false) => Verdict::Refuted,
                },
            });
        }
    }
    rows
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };

    println!(
        "== engine 1: simulation obligations (scope {}) ==",
        opts.scope
    );
    let shipped = analyze_shipped(opts.scope);
    let fixtures = analyze_fixtures(opts.scope);
    let mut rows = rows_of(&shipped, false);
    rows.extend(rows_of(&fixtures, true));
    println!("{}", render_obligation_table(&rows));

    let mut failed = false;
    for r in &shipped {
        if let Some((kind, v)) = r.violation() {
            failed = true;
            println!("UNDISCHARGED: {} / {kind}", r.name);
            println!("  {}", v.detail);
            if !v.trace.is_empty() {
                println!("  minimal counterexample ({} ops):", v.ops);
                for line in v.trace.lines() {
                    println!("    {line}");
                }
            }
        }
    }
    for r in &fixtures {
        match r.violation() {
            Some((kind, v)) => {
                println!(
                    "negative control OK: {} refuted ({kind}, {} ops after shrinking)",
                    r.name, v.ops
                );
            }
            None => {
                failed = true;
                println!(
                    "NEGATIVE CONTROL FAILED: {} was not refuted — the analyzer lost a rule",
                    r.name
                );
            }
        }
    }

    println!("\n== engine 2: determinism lint ==");
    let root = workspace_root();
    let lint = match lint_workspace(&root) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: lint scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "scanned {} files, {} allowlisted occurrence(s)",
        lint.files_scanned, lint.allowed
    );
    for hit in &lint.hits {
        failed = true;
        println!("LINT: {hit}");
    }
    for stale in &lint.stale_allow {
        failed = true;
        println!("STALE: allowlist entry matches nothing: {stale}");
    }
    if lint.clean() && lint.stale_allow.is_empty() {
        println!("lint clean");
    }

    if let Some(path) = &opts.report_path {
        let json = render_report(opts.scope, &shipped, &fixtures, &lint);
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("\nreport written to {}", path.display());
    }

    if failed {
        println!("\nanalyze gate: FAILED");
        ExitCode::FAILURE
    } else {
        println!("\nanalyze gate: green");
        ExitCode::SUCCESS
    }
}
