//! The bounded-exhaustive walk every obligation model shares.
//!
//! A [`Model`] is one configuration of one replication style — what it can
//! do next within the scope bound, how an event changes it, and which
//! obligations hold on it. [`explore`] owns everything else: the depth-first
//! (LIFO) walk over the *reachable configuration graph* (interleavings that
//! render the same [`Model::key`] are visited once), the first-violation
//! witness, its [`shrink_trace`] minimization and the [`Violation`]
//! assembly. The search and the shrinker's replay drive the same
//! [`Model::apply`], so a shrunk trace cannot mean something else on replay
//! than it did in the search.

use crate::outcome::{Sink, TypeReport, Violation};
use crate::shrink::shrink_trace;
use ral_core::history::History;
use ral_core::spec::fingerprint;
use ral_runtime::laws::Checks;
use std::collections::BTreeSet;
use std::fmt::{self, Debug, Write as _};

/// One configuration of a bounded-exhaustive search.
pub(crate) trait Model: Clone {
    /// The report's replication style: `"op"`, `"state"` or `"composed"`.
    const STYLE: &'static str;

    /// One step of an execution. Events name what they refer to by ids that
    /// are stable under shrinking (dense in the unshrunk trace), never by
    /// position, so removing an event cannot re-target another.
    type Event: Clone + fmt::Display;

    /// Obligation keys reported even when no check of them ran.
    fn obligations(&self) -> Vec<&'static str>;

    /// The events to branch on within scope `k`, in exploration order. The
    /// walk is LIFO, so the *last* event's subtree is explored first.
    fn enabled(&self, k: usize) -> Vec<Self::Event>;

    /// Applies `ev`, running the obligations checked on the edge itself.
    /// Returns `false` and leaves the configuration unchanged when `ev` is
    /// inapplicable — a refused invocation, or a reference to an event that
    /// was shrunk away — which is what makes every subset of a witness
    /// trace replayable.
    fn apply(&mut self, ev: &Self::Event, sink: &mut Sink) -> bool;

    /// Discharges the per-configuration obligations.
    fn check(&self, sink: &mut Sink);

    /// A canonical rendering: configurations with equal keys have identical
    /// futures, so the walk visits each key once.
    fn key(&self) -> String;

    /// First line of a rendered trace (newline-terminated).
    fn header(&self) -> String;

    /// Whether `ev` is an update invocation (counted as [`Violation::ops`]).
    fn is_update(ev: &Self::Event) -> bool;
}

/// Walks every configuration reachable from `root` within scope `k`,
/// calling `visit` and then [`Model::check`] on each. The first violated
/// obligation halts the walk; its trace is shrunk to a 1-minimal replayable
/// event sequence.
pub(crate) fn explore<M: Model>(
    root: &M,
    name: &str,
    k: usize,
    mut visit: impl FnMut(&M),
) -> TypeReport {
    let mut sink = Sink::new();
    for ob in root.obligations() {
        sink.touch(ob);
    }
    let mut seen = BTreeSet::from([fingerprint(&root.key())]);
    let mut stack = vec![(root.clone(), Vec::new())];
    let mut configs = 0usize;
    let mut witness = None;

    'search: while let Some((config, trace)) = stack.pop() {
        configs += 1;
        visit(&config);
        config.check(&mut sink);
        if sink.violation().is_some() {
            witness = Some(trace);
            break;
        }
        for ev in config.enabled(k) {
            let mut next = config.clone();
            if !next.apply(&ev, &mut sink) {
                continue;
            }
            let refuted = sink.violation().is_some();
            if !refuted && !seen.insert(fingerprint(&next.key())) {
                continue;
            }
            let mut trace = trace.clone();
            trace.push(ev);
            if refuted {
                witness = Some(trace);
                break 'search;
            }
            stack.push((next, trace));
        }
    }

    let violation = witness.map(|trace| {
        let kind = sink.violation().expect("witness implies violation").0;
        let shrunk = shrink_trace(&trace, |candidate| replay(root, candidate).1.violated(kind));
        let detail = replay(root, &shrunk)
            .1
            .violation()
            .map(|(_, d)| d.to_string())
            .unwrap_or_default();
        Violation {
            detail,
            trace: render_trace(root, &shrunk),
            ops: shrunk.iter().filter(|ev| M::is_update(ev)).count(),
        }
    });
    TypeReport {
        name: name.to_string(),
        style: M::STYLE,
        scope: k,
        configs,
        obligations: sink.into_obligations(violation),
    }
}

/// Renders a trace as the replayable fixture format used in reports and
/// golden files.
pub(crate) fn render_trace<M: Model>(root: &M, events: &[M::Event]) -> String {
    let mut out = root.header();
    for ev in events {
        let _ = writeln!(out, "{ev}");
    }
    out
}

/// Replays a (possibly shrunk) trace from `root`, skipping inapplicable
/// events and checking every configuration it passes through.
pub(crate) fn replay<M: Model>(root: &M, events: &[M::Event]) -> (M, Sink) {
    let mut config = root.clone();
    let mut sink = Sink::new();
    config.check(&mut sink);
    for ev in events {
        if config.apply(ev, &mut sink) {
            config.check(&mut sink);
        }
    }
    (config, sink)
}

/// The Lamport side condition of the OPERATION rule (Figure 7) on a recorded
/// history, restricted to the pairs of operations `in_scope` admits (all of
/// them, or same-object pairs under `⊗`): every generated timestamp strictly
/// exceeds the timestamp of every visible operation — `preds` is the
/// origin's full applied set at invocation time, so it is exactly the
/// visible operations — and no two operations share a timestamp.
///
/// Uniqueness is counted only when it fails: a passing pair adds nothing to
/// `kind`'s check count.
pub(crate) fn check_ts_discipline<L>(
    h: &History<L>,
    kind: &'static str,
    in_scope: impl Fn(usize, usize) -> bool,
    sink: &mut Sink,
) {
    for i in 0..h.len() {
        let Some(ts) = h.op(i).ts else { continue };
        for p in h.preds(i).iter().filter(|&p| in_scope(i, p)) {
            sink.check(kind, Some(ts) > h.op(p).ts, || {
                format!(
                    "op {i} generated ts {ts} not above visible op {p} (ts {:?})",
                    h.op(p).ts
                )
            });
        }
        for j in (0..i).filter(|&j| in_scope(i, j)) {
            if h.op(j).ts == Some(ts) {
                sink.check(kind, false, || {
                    format!("ops {j} and {i} share timestamp {ts}")
                });
            }
        }
    }
}

/// Appends the rendering of a recorded history (labels, origins, timestamps,
/// visibility) to a configuration key.
pub(crate) fn write_history_key<L: Debug>(key: &mut String, h: &History<L>) {
    for i in 0..h.len() {
        let _ = write!(
            key,
            "H{:?}|{:?}|{:?}|{:?};",
            h.label(i),
            h.op(i).replica,
            h.op(i).ts,
            h.preds(i).iter().collect::<Vec<_>>()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::Obligation;

    const OB_SUM: &str = "toy-sum";
    const OB_ADD: &str = "toy-add";

    /// A cluster-free model with the shape of the real ones: `Add` issues an
    /// amount under a stable id (an invocation), `Take` collects the amount
    /// of a still-pending id (a delivery). The sum collected must stay below
    /// `limit` (a per-configuration obligation) and no amount may be zero
    /// (an edge obligation).
    #[derive(Clone)]
    struct Toy {
        pool: &'static [u32],
        limit: u32,
        added: Vec<(usize, u32)>,
        taken: BTreeSet<usize>,
    }

    #[derive(Clone, Debug, PartialEq)]
    enum ToyEvent {
        Add { id: usize, amount: u32 },
        Take { of: usize },
    }

    impl fmt::Display for ToyEvent {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                ToyEvent::Add { id, amount } => write!(f, "add#{id} {amount}"),
                ToyEvent::Take { of } => write!(f, "take add#{of}"),
            }
        }
    }

    impl Toy {
        fn new(pool: &'static [u32], limit: u32) -> Self {
            Toy {
                pool,
                limit,
                added: Vec::new(),
                taken: BTreeSet::new(),
            }
        }

        fn sum(&self) -> u32 {
            let taken = self.added.iter().filter(|(id, _)| self.taken.contains(id));
            taken.map(|(_, amount)| amount).sum()
        }
    }

    impl Model for Toy {
        const STYLE: &'static str = "toy";
        type Event = ToyEvent;

        fn obligations(&self) -> Vec<&'static str> {
            vec![OB_SUM, OB_ADD]
        }

        fn enabled(&self, k: usize) -> Vec<ToyEvent> {
            let pending = self.added.iter().filter(|(id, _)| !self.taken.contains(id));
            let mut events: Vec<_> = pending.map(|&(of, _)| ToyEvent::Take { of }).collect();
            let id = self.added.len();
            if id < k {
                events.extend(self.pool.iter().map(|&amount| ToyEvent::Add { id, amount }));
            }
            events
        }

        fn apply(&mut self, ev: &ToyEvent, sink: &mut Sink) -> bool {
            match *ev {
                ToyEvent::Add { id, amount } => {
                    self.added.push((id, amount));
                    sink.check(OB_ADD, amount > 0, || format!("add#{id} adds nothing"));
                    true
                }
                ToyEvent::Take { of } => {
                    self.added.iter().any(|&(id, _)| id == of) && self.taken.insert(of)
                }
            }
        }

        fn check(&self, sink: &mut Sink) {
            let sum = self.sum();
            sink.check(OB_SUM, sum < self.limit, || {
                format!("took {sum}, limit {}", self.limit)
            });
        }

        fn key(&self) -> String {
            format!("{:?}|{:?}", self.added, self.taken)
        }

        fn header(&self) -> String {
            "toy\n".to_string()
        }

        fn is_update(ev: &ToyEvent) -> bool {
            matches!(ev, ToyEvent::Add { .. })
        }
    }

    fn row<'a>(explored: &'a TypeReport, name: &str) -> &'a Obligation {
        let row = explored.obligations.iter().find(|o| o.name == name);
        row.expect("obligation reported")
    }

    #[test]
    fn a_diamond_is_counted_once_per_distinct_key() {
        // Two adds of 1 and their takes, in every order. `take add#0` and
        // `add#1` commute, and so do the two takes: seven distinct
        // configurations (∅, a0, a0t0, a0a1, a0a1t0, a0a1t1, a0a1t0t1)
        // behind eight edges. Edge checks run per edge, also on the one
        // that re-enters a visited configuration (a0t0 → a0a1t0).
        let mut visited = 0;
        let explored = explore(&Toy::new(&[1], 9), "toy", 2, |_| visited += 1);
        assert_eq!(explored.configs, 7);
        assert_eq!(visited, 7);
        assert_eq!(row(&explored, OB_SUM).checks, 7, "one check per key");
        assert_eq!(row(&explored, OB_ADD).checks, 3, "one check per add edge");
        assert!(explored.obligations.iter().all(|o| o.violation.is_none()));
    }

    #[test]
    fn the_first_violation_in_exploration_order_is_reported() {
        // Both amounts break the limit once taken; the walk is LIFO, so the
        // subtree of the last enabled add is the one explored first.
        let explored = explore(&Toy::new(&[9, 10], 9), "toy", 1, |_| {});
        let v = row(&explored, OB_SUM).violation.as_ref().expect("refuted");
        assert_eq!(v.detail, "took 10, limit 9");
        assert_eq!(v.trace, "toy\nadd#0 10\ntake add#0\n");
        assert!(row(&explored, OB_ADD).violation.is_none());
    }

    #[test]
    fn the_witness_shrinks_to_a_one_minimal_trace_with_stable_ids() {
        // The walk first reaches the limit by taking the third add of 9;
        // the two earlier adds are incidental. What survives keeps its id —
        // `take add#2` still names the add it took in the search.
        let explored = explore(&Toy::new(&[1, 9], 9), "toy", 3, |_| {});
        let v = row(&explored, OB_SUM).violation.as_ref().expect("refuted");
        assert_eq!(v.trace, "toy\nadd#2 9\ntake add#2\n");
        assert_eq!(v.ops, 1);
        assert_eq!(v.detail, "took 9, limit 9");
    }

    #[test]
    fn an_edge_violation_is_witnessed_by_the_edge_itself() {
        let explored = explore(&Toy::new(&[0, 1], 9), "toy", 2, |_| {});
        let v = row(&explored, OB_ADD).violation.as_ref().expect("refuted");
        assert_eq!(v.trace, "toy\nadd#0 0\n");
        assert_eq!(v.detail, "add#0 adds nothing");
        assert_eq!(explored.configs, 1, "refuted while expanding the root");
    }

    #[test]
    fn replay_skips_an_event_whose_target_was_shrunk_away() {
        // add#0 was removed: its take is skipped, not re-targeted at the
        // add now in its position, and the events after it still apply.
        let events = [
            ToyEvent::Add { id: 1, amount: 5 },
            ToyEvent::Take { of: 0 },
            ToyEvent::Take { of: 1 },
        ];
        let (config, sink) = replay(&Toy::new(&[], 9), &events);
        assert_eq!(config.taken, BTreeSet::from([1]));
        assert_eq!(config.sum(), 5);
        assert!(sink.violation().is_none());
    }
}
