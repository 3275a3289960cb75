//! The `pipeline` benchmark runner. See `PIPELINE.md`.
//!
//! ```text
//! pipeline --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--spans <file>]
//! pipeline --all [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick] [--out <file>]
//! pipeline --compare <baseline.json[,more.json…]> <change.json[,more.json…]>
//! ```

use pipeline_bench::measure::{self, Options};
use pipeline_bench::workloads::Kind;
use pipeline_bench::{kernel, report};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

#[global_allocator]
static ALLOCATOR: pipeline_bench::alloc::Counting = pipeline_bench::alloc::Counting;

const USAGE: &str = "usage:
  pipeline --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--spans <file>]
  pipeline --all [--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick] [--out <file>]
  pipeline --compare <baseline.json[,…]> <change.json[,…]>
workloads: live_churn live_fanout live_doc batch_wide batch_composed gossip_lossy";

struct Args {
    workload: Option<String>,
    all: bool,
    compare: Option<(String, String)>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        compare: None,
        seed: 1000,
        seconds: 15.0,
        traced: false,
        quick: false,
        spans: None,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--all" => args.all = true,
            "--compare" => {
                args.compare = Some((value("two report sets")?, value("two report sets")?))
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--spans" => args.spans = Some(value("a path")?.into()),
            "--out" => args.out = Some(value("a path")?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Runs every workload, each in a child process of its own (so that
/// memory is per workload), one at a time.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut results = Vec::new();
    for kind in Kind::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .stdout(Stdio::piped());
        if args.quick {
            cmd.arg("--quick");
        }
        let child = cmd
            .output()
            .map_err(|e| format!("cannot start {}: {e}", kind.name()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        if !child.status.success() {
            return Err(format!("{} failed ({})", kind.name(), child.status));
        }
        let (table, line) = stdout
            .trim_end()
            .rsplit_once('\n')
            .ok_or_else(|| format!("{} printed no result", kind.name()))?;
        println!("{table}");
        results.push((kind.name().to_string(), line.to_string()));
    }
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".into());
    let text = report::all_report(args.seed, args.traced, &rustc, &results)?;
    match &args.out {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))
        }
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn run(t0: u64) -> Result<bool, String> {
    let args = parse_args().map_err(|e| format!("{e}\n{USAGE}"))?;
    if let Some((base, change)) = &args.compare {
        return report::compare(base, change);
    }
    if args.all {
        return run_all(&args).map(|()| true);
    }
    let name = args.workload.as_deref().ok_or(USAGE)?;
    let kind = Kind::from_name(name).ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?;
    let opts = Options {
        kind,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        quick: args.quick,
        spans: args.spans,
    };
    let outcome = measure::run(&opts, t0)?;
    let line = report::result_line(&outcome)?;
    print!("{}", report::table(name, &outcome));
    println!("{line}");
    Ok(true)
}

fn main() -> ExitCode {
    // First clock read: anchors the bench clock at process start.
    let t0 = kernel::now();
    // The defaults are what users hit: thread counts come from the
    // machine, never from the caller's environment.
    std::env::remove_var("RAL_CHECK_THREADS");
    std::env::remove_var("RAL_RUNTIME_THREADS");
    match run(t0) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("pipeline: {e}");
            ExitCode::FAILURE
        }
    }
}
