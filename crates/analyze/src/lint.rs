//! Workspace determinism lint — engine 2 of `ral-analyze`.
//!
//! Everything this repository verifies rests on runs being **replayable**:
//! the brute checker, the RA-linearization search, and the simulation
//! corpus all assume that the same seed produces the same trace. Five
//! std-library conveniences silently break that assumption, so this module
//! bans them at the token level across the workspace:
//!
//! * **`hash-collections`** — `HashMap`/`HashSet` have seed-randomized
//!   iteration order (`RandomState`); any trace that iterates one is
//!   nondeterministic across runs. `BTreeMap`/`BTreeSet` are the
//!   deterministic substitutes.
//! * **`wall-clock`** — `SystemTime`/`Instant` reads differ per run;
//!   logical [Lamport time](ral_core::timestamp::Ts) is the only clock
//!   trace-affecting code may consult. `crates/bench` is exempt (measuring
//!   wall time is its whole point).
//! * **`env-read`** — ad-hoc `std::env::var` calls scatter hidden run
//!   configuration; every read must go through the documented
//!   [`ral_core::env`] module, the single exempt file.
//! * **`thread-id`** — `thread::current()` names/ids vary per run and per
//!   machine; nothing that can reach an output path may use them.
//! * **`thread-spawn`** — `thread::spawn`/`thread::scope`/
//!   `thread::Builder` and `available_parallelism`: every library path is
//!   one sequential walk, so no cost or counter depends on the core count
//!   or a schedule. The benchmark packages (`crates/bench`,
//!   `pipeline_bench`) are exempt — they report the core count next to
//!   their numbers.
//!
//! The scanner is a hand-rolled lexer (no `syn`, no dependencies): it
//! strips nested block comments, line comments, strings, raw strings, and
//! char literals (disambiguating lifetimes), then pattern-matches the
//! remaining identifier/`::` token stream. Audited exceptions live in
//! `crates/analyze/lint_allowlist.txt` as `<rule> <path> <justification>`
//! lines; an entry without a justification is itself a lint failure, and
//! entries that no longer match anything are reported as stale (which
//! fails the gate, so the file cannot rot).

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Rule id: seed-randomized `HashMap`/`HashSet`.
pub const RULE_HASH: &str = "hash-collections";
/// Rule id: `SystemTime`/`Instant` outside `crates/bench`.
pub const RULE_CLOCK: &str = "wall-clock";
/// Rule id: `env::var` family outside `ral_core::env`.
pub const RULE_ENV: &str = "env-read";
/// Rule id: `thread::current()` anywhere.
pub const RULE_THREAD: &str = "thread-id";
/// Rule id: spawning threads or reading the core count outside the
/// benchmark packages.
pub const RULE_SPAWN: &str = "thread-spawn";
/// Rule id: malformed allowlist entry (missing justification).
pub const RULE_ALLOWLIST: &str = "allowlist-format";

/// All scanner rules, for reports and docs.
pub const RULES: [&str; 5] = [RULE_HASH, RULE_CLOCK, RULE_ENV, RULE_THREAD, RULE_SPAWN];

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintHit {
    /// Which rule fired (one of [`RULES`] or [`RULE_ALLOWLIST`]).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: usize,
    /// The source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for LintHit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}:{}: {}",
            self.rule, self.path, self.line, self.snippet
        )
    }
}

/// The result of a workspace scan.
#[derive(Clone, Debug, Default)]
pub struct LintOutcome {
    /// Findings not covered by the allowlist, in path order.
    pub hits: Vec<LintHit>,
    /// Allowlist entries that suppressed at least one finding.
    pub allowed: usize,
    /// Allowlist entries that matched nothing — stale, should be pruned.
    pub stale_allow: Vec<String>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl LintOutcome {
    /// Whether the scan found no hits. Stale allowlist entries are
    /// reported separately in `stale_allow`; the CLI gate and the
    /// self-test fail on those too.
    pub fn clean(&self) -> bool {
        self.hits.is_empty()
    }
}

/// Scans every `.rs` file under `root` (skipping `target/`, `.git/`, and
/// `lint_fixtures/` self-test directories) and applies the allowlist at
/// `root/crates/analyze/lint_allowlist.txt` if present.
pub fn lint_workspace(root: &Path) -> io::Result<LintOutcome> {
    let allowlist = read_allowlist(&root.join("crates/analyze/lint_allowlist.txt"))?;
    let mut outcome = LintOutcome::default();
    // Malformed entries fail the gate like any other hit.
    outcome.hits.extend(allowlist.malformed.clone());
    let mut used = vec![false; allowlist.entries.len()];
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let content = fs::read_to_string(&path)?;
        outcome.files_scanned += 1;
        for hit in scan_source(&rel, &content) {
            match allowlist
                .entries
                .iter()
                .position(|e| e.rule == hit.rule && e.path == rel)
            {
                Some(i) => {
                    used[i] = true;
                    outcome.allowed += 1;
                }
                None => outcome.hits.push(hit),
            }
        }
    }
    for (i, entry) in allowlist.entries.iter().enumerate() {
        if !used[i] {
            outcome
                .stale_allow
                .push(format!("{} {}", entry.rule, entry.path));
        }
    }
    Ok(outcome)
}

/// Applies all five rules to one file's source text. Pure — this is the
/// entry point the self-tests drive directly.
pub fn scan_source(rel_path: &str, content: &str) -> Vec<LintHit> {
    let tokens = tokenize(content);
    let lines: Vec<&str> = content.lines().collect();
    let snippet = |line: usize| -> String {
        lines
            .get(line.saturating_sub(1))
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };
    let mut hits = Vec::new();
    let mut push = |rule: &'static str, line: usize| {
        if !exempt(rule, rel_path) {
            hits.push(LintHit {
                rule,
                path: rel_path.to_string(),
                line,
                snippet: snippet(line),
            });
        }
    };
    for (i, tok) in tokens.iter().enumerate() {
        let Tok::Ident(name, line) = tok else {
            continue;
        };
        match name.as_str() {
            "HashMap" | "HashSet" => push(RULE_HASH, *line),
            "SystemTime" | "Instant" => push(RULE_CLOCK, *line),
            "env" if path_call(&tokens, i, &["var", "var_os", "vars", "vars_os"]) => {
                push(RULE_ENV, *line)
            }
            "thread" if path_call(&tokens, i, &["current"]) => push(RULE_THREAD, *line),
            "thread" if path_call(&tokens, i, &["spawn", "scope", "Builder"]) => {
                push(RULE_SPAWN, *line)
            }
            "available_parallelism" => push(RULE_SPAWN, *line),
            _ => {}
        }
    }
    hits
}

/// Whether the identifier at `i` is followed by `::` and then one of
/// `methods` — i.e. the token stream reads `ident :: method`.
fn path_call(tokens: &[Tok], i: usize, methods: &[&str]) -> bool {
    matches!(tokens.get(i + 1), Some(Tok::PathSep))
        && matches!(tokens.get(i + 2), Some(Tok::Ident(m, _)) if methods.contains(&m.as_str()))
}

/// Per-rule path exemptions (crate- or file-scoped; audited one-offs go in
/// the allowlist instead).
fn exempt(rule: &str, rel_path: &str) -> bool {
    match rule {
        // Benchmarks measure wall time and may key scratch tables however
        // they like — nothing in `crates/bench` affects a verified trace.
        RULE_HASH | RULE_CLOCK => rel_path.starts_with("crates/bench/"),
        // The one place allowed to read the process environment.
        RULE_ENV => rel_path == "crates/core/src/env.rs",
        // Benchmarks report the core count next to their numbers.
        RULE_SPAWN => {
            rel_path.starts_with("crates/bench/") || rel_path.starts_with("pipeline_bench/")
        }
        _ => false,
    }
}

#[derive(Debug)]
enum Tok {
    Ident(String, usize),
    PathSep,
}

/// Lexes `content` into identifier / `::` tokens, skipping comments
/// (nested), strings, raw strings, and char literals.
fn tokenize(content: &str) -> Vec<Tok> {
    let chars: Vec<char> = content.chars().collect();
    let mut toks = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            '/' if chars.get(i + 1) == Some(&'/') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                let mut depth = 1usize;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if chars[i] == '\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
            }
            '"' => i = skip_string(&chars, i, &mut line),
            '\'' => i = skip_char_or_lifetime(&chars, i, &mut line),
            ':' if chars.get(i + 1) == Some(&':') => {
                toks.push(Tok::PathSep);
                i += 2;
            }
            _ if c == '_' || c.is_alphabetic() => {
                // Raw strings and byte strings start like identifiers:
                // r"..", r#".."#, br"..", b"..".
                if let Some(end) = raw_string_end(&chars, i, &mut line) {
                    i = end;
                    continue;
                }
                if c == 'b' && chars.get(i + 1) == Some(&'"') {
                    i = skip_string(&chars, i + 1, &mut line);
                    continue;
                }
                let start = i;
                while i < chars.len() && (chars[i] == '_' || chars[i].is_alphanumeric()) {
                    i += 1;
                }
                toks.push(Tok::Ident(chars[start..i].iter().collect(), line));
            }
            _ => i += 1,
        }
    }
    toks
}

/// Skips a `"`-delimited string starting at `i` (the opening quote);
/// returns the index just past the closing quote.
fn skip_string(chars: &[char], i: usize, line: &mut usize) -> usize {
    let mut j = i + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => j += 2,
            '\n' => {
                *line += 1;
                j += 1;
            }
            '"' => return j + 1,
            _ => j += 1,
        }
    }
    j
}

/// If position `i` starts a raw (byte) string — `r"`, `r#"`, `br##"`, … —
/// skips it and returns the index past its closing delimiter.
fn raw_string_end(chars: &[char], i: usize, line: &mut usize) -> Option<usize> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) != Some(&'"') {
        return None;
    }
    j += 1;
    while j < chars.len() {
        if chars[j] == '\n' {
            *line += 1;
        }
        if chars[j] == '"'
            && chars[j + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == '#')
                .count()
                == hashes
        {
            return Some(j + 1 + hashes);
        }
        j += 1;
    }
    Some(j)
}

/// Skips a char literal, or recognizes a lifetime (`'a`) and leaves its
/// identifier unemitted (lifetime names are never lint targets).
fn skip_char_or_lifetime(chars: &[char], i: usize, line: &mut usize) -> usize {
    match chars.get(i + 1) {
        Some('\\') => {
            // Escaped char literal: scan to the closing quote.
            let mut j = i + 2;
            while j < chars.len() && chars[j] != '\'' {
                j += 1;
            }
            j + 1
        }
        Some(&c) if c == '_' || c.is_alphabetic() => {
            if chars.get(i + 2) == Some(&'\'') {
                i + 3 // 'x' — a plain char literal
            } else {
                // A lifetime: consume the identifier after the tick.
                let mut j = i + 1;
                while j < chars.len() && (chars[j] == '_' || chars[j].is_alphanumeric()) {
                    j += 1;
                }
                j
            }
        }
        Some('\n') => {
            *line += 1;
            i + 2
        }
        Some(_) => {
            if chars.get(i + 2) == Some(&'\'') {
                i + 3
            } else {
                i + 1
            }
        }
        None => i + 1,
    }
}

struct Allowlist {
    entries: Vec<AllowEntry>,
    malformed: Vec<LintHit>,
}

struct AllowEntry {
    rule: String,
    path: String,
}

fn read_allowlist(path: &Path) -> io::Result<Allowlist> {
    let mut entries = Vec::new();
    let mut malformed = Vec::new();
    let content = match fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(e),
    };
    for (lineno, raw) in content.lines().enumerate() {
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.splitn(3, char::is_whitespace);
        let rule = parts.next().unwrap_or_default();
        let file = parts.next().unwrap_or_default();
        let justification = parts.next().unwrap_or_default().trim();
        if file.is_empty() || justification.is_empty() || !RULES.contains(&rule) {
            malformed.push(LintHit {
                rule: RULE_ALLOWLIST,
                path: path.to_string_lossy().into_owned(),
                line: lineno + 1,
                snippet: format!(
                    "allowlist entry needs `<rule> <path> <justification>`: {trimmed}"
                ),
            });
            continue;
        }
        entries.push(AllowEntry {
            rule: rule.to_string(),
            path: file.to_string(),
        });
    }
    Ok(Allowlist { entries, malformed })
}

/// Collects workspace `.rs` files in deterministic (sorted) order, skipping
/// build output, VCS metadata, and the lint self-test fixtures.
fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries = fs::read_dir(&dir)?.collect::<Result<Vec<_>, _>>()?;
        entries.sort_by_key(|e| e.file_name());
        for entry in entries {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if name == "target" || name == ".git" || name == "lint_fixtures" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_hash_collections() {
        let hits = scan_source("crates/x/src/lib.rs", "use std::collections::HashMap;\n");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RULE_HASH);
        assert_eq!(hits[0].line, 1);
    }

    #[test]
    fn comments_and_strings_do_not_trip() {
        let src = "// HashMap in a comment\n/* SystemTime /* nested Instant */ */\nlet s = \"HashSet env::var\";\nlet r = r#\"thread::current()\"#;\n";
        assert!(scan_source("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn env_macro_and_args_are_fine_but_var_is_not() {
        let ok = "let p = env!(\"CARGO_MANIFEST_DIR\");\nlet a: Vec<String> = std::env::args().collect();\n";
        assert!(scan_source("crates/x/src/lib.rs", ok).is_empty());
        let bad = "let v = std::env::var(\"RAL_THREADS\");\n";
        let hits = scan_source("crates/x/src/lib.rs", bad);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RULE_ENV);
    }

    #[test]
    fn bench_crate_is_exempt_from_clock_and_hash() {
        let src = "use std::time::Instant;\nuse std::collections::HashMap;\n";
        assert!(scan_source("crates/bench/src/lib.rs", src).is_empty());
        assert_eq!(scan_source("crates/other/src/lib.rs", src).len(), 2);
    }

    #[test]
    fn lifetimes_do_not_break_the_lexer() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { let c = 'x'; let e = '\\n'; x }\nuse std::collections::HashSet;\n";
        let hits = scan_source("crates/x/src/lib.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn thread_current_flags_everywhere_even_bench() {
        let src = "let id = std::thread::current().id();\n";
        assert_eq!(scan_source("crates/bench/src/lib.rs", src).len(), 1);
    }

    #[test]
    fn thread_spawn_flags_outside_the_benchmark_packages() {
        let src = "std::thread::scope(|s| { s.spawn(|| ()); });\nlet h = thread::spawn(|| ());\nlet n = std::thread::available_parallelism();\nstd::thread::sleep(d);\n";
        let hits = scan_source("crates/core/src/ralin/sharded.rs", src);
        assert_eq!(hits.iter().map(|h| h.line).collect::<Vec<_>>(), [1, 2, 3]);
        assert!(hits.iter().all(|h| h.rule == RULE_SPAWN));
        assert!(scan_source("crates/bench/src/lib.rs", src).is_empty());
        assert!(scan_source("pipeline_bench/src/measure.rs", src).is_empty());
    }
}
