//! Output: the result line, the `--all` report file, and `--compare`.
//!
//! The workspace carries no serde, and `ral_obs::json` only validates, so
//! this module has the small JSON reader `--compare` and `--all` need.
//! Everything written is checked with the strict `ral_obs::json::validate`
//! before it leaves the process.

use crate::kernel::median;
use crate::measure::{Metric, Outcome, END_TO_END};
use ral_obs::json::json_string;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in file order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON value.
    ///
    /// # Errors
    ///
    /// The first syntax error, with its byte offset.
    pub fn parse(s: &str) -> Result<Json, String> {
        ral_obs::json::validate(s)?;
        let mut p = Reader {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.value()
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(members) => members,
            _ => &[],
        }
    }
}

/// A reader over text the strict validator already accepted, so malformed
/// input cannot reach it; it still returns errors rather than panicking.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        let err = |pos: usize| format!("unexpected input at byte {pos}");
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.ws();
                while !self.eat("}") {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(":") {
                        return Err(err(self.pos));
                    }
                    members.push((key, self.value()?));
                    self.ws();
                    self.eat(",");
                }
                Ok(Json::Obj(members))
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.ws();
                while !self.eat("]") {
                    items.push(self.value()?);
                    self.ws();
                    self.eat(",");
                }
                Ok(Json::Arr(items))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(_) if self.eat("null") => Ok(Json::Null),
            Some(_) if self.eat("true") => Ok(Json::Bool(true)),
            Some(_) if self.eat("false") => Ok(Json::Bool(false)),
            Some(_) => {
                let start = self.pos;
                let numeric = |b: &u8| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E');
                while self.bytes.get(self.pos).is_some_and(numeric) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
                text.parse().map(Json::Num).map_err(|_| err(start))
            }
            None => Err(err(self.pos)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        let err = |pos: usize| format!("bad string at byte {pos}");
        if !self.eat("\"") {
            return Err(err(self.pos));
        }
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|_| err(self.pos));
                }
                Some(b'\\') => {
                    let esc = *self.bytes.get(self.pos + 1).ok_or_else(|| err(self.pos))?;
                    self.pos += 2;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4);
                            let code = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| err(self.pos))?;
                            self.pos += 4;
                            out.extend(code.to_string().bytes());
                        }
                        other => out.push(other),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
                None => return Err(err(self.pos)),
            }
        }
    }
}

fn render_metrics(metrics: &[Metric]) -> Result<String, String> {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(m.name),
            m.value,
            json_string(m.unit)
        );
    }
    out.push('}');
    Ok(out)
}

/// The result line of the benchmark contract: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
///
/// # Errors
///
/// A metric that is not a finite number.
pub fn result_line(outcome: &Outcome) -> Result<String, String> {
    let line = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        render_metrics(&outcome.metrics)?
    );
    ral_obs::json::validate(&line)?;
    Ok(line)
}

/// A human-readable table of one outcome.
pub fn table(workload: &str, outcome: &Outcome) -> String {
    let mut out = format!(
        "== {workload}: {} cases attempted, {} undecided\n",
        outcome.attempted, outcome.failed
    );
    for m in &outcome.metrics {
        let _ = writeln!(out, "  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.info {
        let _ = writeln!(out, "  info.{:<29} {:>16.6} {}", m.name, m.value, m.unit);
    }
    out
}

/// The `--all` report: the environment block and, per workload, the
/// result object of its child process.
///
/// # Errors
///
/// A result that is not valid JSON.
pub fn all_report(
    seed: u64,
    traced: bool,
    rustc: &str,
    results: &[(String, String)],
) -> Result<String, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = format!(
        "{{\n\"benchmark\": \"pipeline\",\n\"seed\": {seed},\n\"trace\": {traced},\n\"env\": {{\"nproc\": {nproc}, \"rustc\": {}, \"cleared\": [\"RAL_CHECK_THREADS\", \"RAL_RUNTIME_THREADS\"]}},\n\"workloads\": {{",
        json_string(rustc)
    );
    for (i, (name, line)) in results.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\n{}: {line}", json_string(name));
    }
    out.push_str("\n}\n}\n");
    ral_obs::json::validate(&out)?;
    Ok(out)
}

/// `workload → metric → value` of one `--all` report.
fn read_report(path: &str) -> Result<BTreeMap<String, BTreeMap<String, f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = json
        .get("workloads")
        .ok_or_else(|| format!("{path}: no \"workloads\" object"))?;
    let mut out = BTreeMap::new();
    for (name, result) in workloads.members() {
        let mut metrics = BTreeMap::new();
        for (metric, body) in result.get("metrics").map_or(&[][..], Json::members) {
            if let Some(v) = body.get("value").and_then(Json::num) {
                metrics.insert(metric.clone(), v);
            }
        }
        let failed = result.get("failed").and_then(Json::num).unwrap_or(0.0);
        metrics.insert("failed".into(), failed);
        out.insert(name.clone(), metrics);
    }
    Ok(out)
}

/// `--compare`: applies each end-to-end metric's bound and direction per
/// workload to two sets of `--all` reports (comma-separated paths per
/// side: baseline, then change). Prints one row per (workload, metric)
/// with both medians and their ratio. A row whose run-to-run spread
/// (range over median, either side) exceeds the bound is `unresolved`,
/// unless every run of the change reads better than every run of the
/// baseline. Returns `Ok(true)` when no row regressed.
///
/// # Errors
///
/// An unreadable or malformed report, or sides that do not hold the same
/// workloads.
pub fn compare(base: &str, change: &str) -> Result<bool, String> {
    let read_side =
        |side: &str| -> Result<Vec<_>, String> { side.split(',').map(read_report).collect() };
    let (a, b) = (read_side(base)?, read_side(change)?);
    let values = |side: &[BTreeMap<String, BTreeMap<String, f64>>], w: &str, m: &str| {
        side.iter()
            .filter_map(|r| r.get(w).and_then(|ms| ms.get(m)).copied())
            .collect::<Vec<f64>>()
    };
    let spread = |v: &[f64]| {
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
        (hi - lo) / median(v).abs()
    };
    println!(
        "{:<15} {:<20} {:>14} {:>14} {:>8} {:>7}  status",
        "workload", "metric", "baseline", "change", "ratio", "bound"
    );
    let mut ok = true;
    for workload in a[0].keys() {
        for (metric, _, higher_better, bound) in END_TO_END {
            let (va, vb) = (values(&a, workload, metric), values(&b, workload, metric));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}/{metric}: missing on one side"));
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse_by = if higher_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let better = |x: f64, y: f64| if higher_better { x > y } else { x < y };
            let all_better = vb.iter().all(|x| va.iter().all(|y| better(*x, *y)));
            let noisy = spread(&va) > bound || spread(&vb) > bound;
            let status = if noisy && !all_better {
                "unresolved"
            } else if worse_by > bound {
                ok = false;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "{workload:<15} {metric:<20} {ma:>14.5} {mb:>14.5} {:>8.4} {bound:>7.2}  {status}",
                mb / ma
            );
        }
        // `failed` is exact: any new undecided case is a regression.
        let (fa, fb) = (
            values(&a, workload, "failed"),
            values(&b, workload, "failed"),
        );
        let (ma, mb) = (median(&fa), median(&fb));
        let status = if mb > ma {
            ok = false;
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "{workload:<15} {:<20} {ma:>14} {mb:>14} {:>8} {:>7}  {status}",
            "failed", "-", "exact"
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_round_trips_a_result_line() {
        let outcome = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric {
                name: "case_ru_p50",
                value: 12.5,
                unit: "ru",
            }],
            info: vec![],
        };
        let line = result_line(&outcome).unwrap();
        let json = Json::parse(&line).unwrap();
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(json.get("attempted").and_then(Json::num), Some(3.0));
        let m = json.get("metrics").and_then(|m| m.get("case_ru_p50"));
        assert_eq!(
            m.and_then(|m| m.get("value")).and_then(Json::num),
            Some(12.5)
        );
        assert_eq!(m.and_then(|m| m.get("unit")), Some(&Json::Str("ru".into())));
    }

    #[test]
    fn reader_handles_escapes_and_nesting() {
        let json = Json::parse(r#"{"a": [1, -2.5e1, "x\"yA"], "b": {"c": null}}"#).unwrap();
        assert_eq!(
            json.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-25.0),
                Json::Str("x\"yA".into())
            ]))
        );
        assert_eq!(json.get("b").and_then(|b| b.get("c")), Some(&Json::Null));
        assert!(Json::parse("{\"a\": }").is_err());
    }

    #[test]
    fn non_finite_metrics_are_refused() {
        let outcome = Outcome {
            attempted: 1,
            failed: 0,
            metrics: vec![Metric {
                name: "x",
                value: f64::NAN,
                unit: "s",
            }],
            info: vec![],
        };
        assert!(result_line(&outcome).is_err());
    }
}
