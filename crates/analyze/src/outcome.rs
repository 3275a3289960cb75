//! Result types shared by the obligation engines.

use ral_runtime::laws::Checks;
use std::collections::BTreeMap;
use std::fmt;

/// A refutation: the obligation's violation witness, shrunk to a 1-minimal
/// replayable event trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// What exactly failed (states, arguments, expected vs. actual).
    pub detail: String,
    /// The shrunk trace, one event per line, replayable against the engine.
    pub trace: String,
    /// Number of update invocations in the shrunk trace.
    pub ops: usize,
}

/// The verdict for one obligation family of one data type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Obligation {
    /// Obligation key, e.g. `"commutativity"` or `"merge-idempotence"`.
    pub name: String,
    /// Number of individual checks discharged.
    pub checks: u64,
    /// The counterexample, when refuted.
    pub violation: Option<Violation>,
}

/// Everything the analyzer established about one data type at one scope.
#[derive(Clone, Debug)]
pub struct TypeReport {
    /// Data type name, e.g. `"OpCounter"`.
    pub name: String,
    /// `"op"`, `"state"`, or `"composed"`.
    pub style: &'static str,
    /// The scope bound `k` (maximum update invocations per execution).
    pub scope: usize,
    /// Number of distinct cluster configurations explored.
    pub configs: usize,
    /// Per-obligation verdicts.
    pub obligations: Vec<Obligation>,
}

impl TypeReport {
    /// `true` when every obligation was discharged (no violations).
    pub fn discharged(&self) -> bool {
        self.obligations.iter().all(|o| o.violation.is_none())
    }

    /// The first violation, if any.
    pub fn violation(&self) -> Option<(&str, &Violation)> {
        self.obligations
            .iter()
            .find_map(|o| o.violation.as_ref().map(|v| (o.name.as_str(), v)))
    }
}

impl fmt::Display for TypeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} ({}, k={}): {} configurations",
            self.name, self.style, self.scope, self.configs
        )?;
        for o in &self.obligations {
            match &o.violation {
                None => writeln!(f, "  {:<24} {:>8} checks  discharged", o.name, o.checks)?,
                Some(v) => {
                    writeln!(
                        f,
                        "  {:<24} {:>8} checks  REFUTED ({} ops): {}",
                        o.name, o.checks, v.ops, v.detail
                    )?;
                    for line in v.trace.lines() {
                        writeln!(f, "      {line}")?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// The engines' running check accumulator: per-obligation counts plus the
/// first violation seen (one counterexample refutes; later ones add noise).
#[derive(Clone, Debug, Default)]
pub(crate) struct Sink {
    counts: BTreeMap<&'static str, u64>,
    violation: Option<(&'static str, String)>,
}

/// Records one check of `kind`; on the first failure, captures `detail`.
impl Checks for Sink {
    fn check(&mut self, kind: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        *self.counts.entry(kind).or_insert(0) += 1;
        if !ok && self.violation.is_none() {
            self.violation = Some((kind, detail()));
        }
    }
}

impl Sink {
    pub(crate) fn new() -> Self {
        Sink::default()
    }

    /// Ensures `kind` appears in the output even if no check of it ran.
    pub(crate) fn touch(&mut self, kind: &'static str) {
        self.counts.entry(kind).or_insert(0);
    }

    pub(crate) fn violation(&self) -> Option<(&'static str, &str)> {
        self.violation.as_ref().map(|(k, d)| (*k, d.as_str()))
    }

    /// Whether a violation of exactly `kind` has been recorded.
    pub(crate) fn violated(&self, kind: &str) -> bool {
        self.violation.as_ref().is_some_and(|(k, _)| *k == kind)
    }

    /// Converts the accumulated counts into [`Obligation`] rows, attaching
    /// `violation` (with its shrunk trace) to the obligation it refutes.
    pub(crate) fn into_obligations(self, violation: Option<Violation>) -> Vec<Obligation> {
        let violated_kind = self.violation.as_ref().map(|(k, _)| *k);
        self.counts
            .into_iter()
            .map(|(name, checks)| Obligation {
                name: name.to_string(),
                checks,
                violation: if Some(name) == violated_kind {
                    violation.clone()
                } else {
                    None
                },
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_keeps_first_violation() {
        let mut s = Sink::new();
        s.check("a", true, || unreachable!());
        s.check("a", false, || "first".into());
        s.check("b", false, || "second".into());
        assert_eq!(s.violation(), Some(("a", "first")));
        assert!(s.violated("a"));
        assert!(!s.violated("b"));
        let obs = s.into_obligations(Some(Violation {
            detail: "first".into(),
            trace: "t".into(),
            ops: 1,
        }));
        assert_eq!(obs.len(), 2);
        assert!(obs.iter().any(|o| o.name == "a" && o.violation.is_some()));
        assert!(obs.iter().any(|o| o.name == "b" && o.violation.is_none()));
    }
}
