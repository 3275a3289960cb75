//! Verification reports: how many obligations were checked and which failed.

pub use ral_runtime::laws::Checks;
use std::fmt;

/// The outcome of checking a family of proof obligations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    /// Name of the obligation family (e.g. `"Commutativity"`).
    pub name: String,
    /// Number of individual checks performed.
    pub checks: u64,
    /// Human-readable descriptions of failing checks (empty when all hold).
    pub failures: Vec<String>,
}

impl Report {
    /// Creates an empty report for the named obligation family.
    pub fn new(name: impl Into<String>) -> Self {
        Report {
            name: name.into(),
            checks: 0,
            failures: Vec::new(),
        }
    }

    /// Records one successful check.
    pub fn pass(&mut self) {
        self.checks += 1;
    }

    /// Records one failing check with a description.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.checks += 1;
        // Keep reports bounded; one counterexample is enough to refute.
        if self.failures.len() < 16 {
            self.failures.push(why.into());
        }
    }

    /// Returns `true` if every check passed (and at least one ran).
    pub fn ok(&self) -> bool {
        self.checks > 0 && self.failures.is_empty()
    }

    /// Folds another report into this one.
    pub fn absorb(&mut self, other: Report) {
        self.checks += other.checks;
        for f in other.failures {
            if self.failures.len() < 16 {
                self.failures.push(format!("{}: {}", other.name, f));
            }
        }
    }
}

/// One check is one pass or one failure described as `kind: detail`.
impl Checks for Report {
    fn check(&mut self, kind: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            self.pass();
        } else {
            self.fail(format!("{kind}: {}", detail()));
        }
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.failures.is_empty() {
            write!(f, "{}: {} checks, all passed", self.name, self.checks)
        } else {
            writeln!(
                f,
                "{}: {} checks, {} FAILED:",
                self.name,
                self.checks,
                self.failures.len()
            )?;
            for failure in &self.failures {
                writeln!(f, "  - {failure}")?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_and_fail_accounting() {
        let mut r = Report::new("Test");
        assert!(!r.ok(), "no checks yet");
        r.pass();
        assert!(r.ok());
        r.fail("boom");
        assert!(!r.ok());
        assert_eq!(r.checks, 2);
        assert!(r.to_string().contains("FAILED"));
    }

    #[test]
    fn failures_are_bounded() {
        let mut r = Report::new("Test");
        for i in 0..100 {
            r.fail(format!("f{i}"));
        }
        assert_eq!(r.checks, 100);
        assert_eq!(r.failures.len(), 16);
    }

    #[test]
    fn absorb_merges() {
        let mut a = Report::new("A");
        a.pass();
        let mut b = Report::new("B");
        b.fail("oops");
        a.absorb(b);
        assert_eq!(a.checks, 2);
        assert_eq!(a.failures.len(), 1);
        assert!(a.failures[0].contains("B"));
    }

    #[test]
    fn display_success() {
        let mut r = Report::new("Ok");
        r.pass();
        assert_eq!(r.to_string(), "Ok: 1 checks, all passed");
    }
}
