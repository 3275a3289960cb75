//! Event traces: the byte-comparable record of everything a run did.
//!
//! Every decision the engine makes — invocations, transmissions, arrivals
//! and their outcomes, faults firing — is one entry handed to a [`Record`]
//! sink. [`crate::sim::run`] hands them to `()`, which keeps nothing: the
//! verdicts read the history, never the trace. [`crate::sim::replay`] runs
//! the same seeded loop into a [`Trace`], which keeps every entry. The
//! determinism suite asserts that two runs of the same seeded scenario
//! render to byte-identical traces, which pins the event order, the RNG
//! consumption order, *and* the fault schedule at once.

use crate::time::SimTime;
use ral_core::ids::ReplicaId;
use std::fmt::Write as _;

/// What happened at one instant of the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A client operation was invoked at the replica (`refused` invocations
    /// — generator precondition failures and skipped turns — are recorded
    /// with `ok: false`).
    Invoke {
        /// The origin replica.
        replica: ReplicaId,
        /// Whether an operation was actually recorded.
        ok: bool,
    },
    /// A snapshot broadcast tick at a state-based replica.
    Gossip {
        /// The broadcasting replica.
        replica: ReplicaId,
        /// Whether a snapshot was produced (false while crashed).
        ok: bool,
    },
    /// A message was put on a link.
    Send {
        /// Message id.
        msg: usize,
        /// Origin replica.
        from: ReplicaId,
        /// Destination replica.
        to: ReplicaId,
        /// Sampled link delay in ticks.
        delay: u64,
        /// Whether this transmission is a network duplicate.
        duplicate: bool,
    },
    /// A message was silently lost on a loss-tolerant link.
    Drop {
        /// Message id.
        msg: usize,
        /// Destination it never reached.
        to: ReplicaId,
    },
    /// A message arrived and was applied (op-based: its effector plus any
    /// causally unblocked held effectors; state-based: one merge).
    Deliver {
        /// Message id.
        msg: usize,
        /// Receiving replica.
        to: ReplicaId,
        /// Number of effectors/merges applied (>1 when a held backlog
        /// drains).
        applied: usize,
    },
    /// A message arrived before its causal predecessors and was held back.
    Hold {
        /// Message id.
        msg: usize,
        /// Receiving replica.
        to: ReplicaId,
    },
    /// A message arrived but was ignored (already applied — duplicate on a
    /// reliable transport after a retry race).
    Ignore {
        /// Message id.
        msg: usize,
        /// Receiving replica.
        to: ReplicaId,
    },
    /// A reliable transmission met a cut link or a down receiver and was
    /// rescheduled.
    Retry {
        /// Message id.
        msg: usize,
        /// Receiving replica.
        to: ReplicaId,
        /// When it will try again.
        at: SimTime,
    },
    /// A partition formed.
    PartitionStart {
        /// Index into the scenario's partition windows.
        window: usize,
    },
    /// A partition healed.
    PartitionEnd {
        /// Index into the scenario's partition windows.
        window: usize,
    },
    /// A replica crashed.
    Crash {
        /// The failed replica.
        replica: ReplicaId,
    },
    /// A replica restarted.
    Restart {
        /// The recovered replica.
        replica: ReplicaId,
    },
    /// The active phase ended; every replica restarts, every partition is
    /// healed, and outstanding messages are delivered.
    FinalSync,
}

/// Where the engine's entries go.
pub trait Record {
    /// Takes the entry `event`, fired at `time`.
    fn push(&mut self, time: SimTime, event: TraceEvent);
}

/// Keeps nothing: the sink of [`crate::sim::run`].
impl Record for () {
    #[inline(always)]
    fn push(&mut self, _: SimTime, _: TraceEvent) {}
}

/// The ordered record of a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    entries: Vec<(SimTime, TraceEvent)>,
}

impl Record for Trace {
    fn push(&mut self, time: SimTime, event: TraceEvent) {
        self.entries.push((time, event));
    }
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// The recorded entries, in firing order.
    pub fn iter(&self) -> std::slice::Iter<'_, (SimTime, TraceEvent)> {
        self.entries.iter()
    }

    /// Renders the trace one line per entry — the canonical byte
    /// representation the determinism tests compare.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (t, e) in &self.entries {
            let _ = writeln!(out, "{t} {e:?}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_one_line_per_entry() {
        let mut trace = Trace::new();
        trace.push(
            SimTime(3),
            TraceEvent::Invoke {
                replica: ReplicaId(1),
                ok: true,
            },
        );
        trace.push(SimTime(9), TraceEvent::FinalSync);
        let text = trace.render();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("t3 Invoke"));
        assert_eq!(trace.iter().count(), 2);
    }

    /// Each variant, at ordinary and extreme values, reads back as pushed
    /// and renders exactly the `{t} {e:?}` lines of the entries themselves
    /// (`tests/golden/sim_traces.txt` hashes that rendering).
    #[test]
    fn every_entry_round_trips_and_renders_as_itself() {
        let mut trace = Trace::new();
        let mut want = Vec::new();
        for (t, msg, r, n) in [
            (0, 0, 0, 0),
            (7, 5, 3, 2),
            (u64::MAX, usize::MAX, u32::MAX, u64::MAX),
        ] {
            let to = ReplicaId(r);
            for event in [
                TraceEvent::Invoke {
                    replica: to,
                    ok: true,
                },
                TraceEvent::Gossip {
                    replica: to,
                    ok: false,
                },
                TraceEvent::Send {
                    msg,
                    from: ReplicaId(r / 2),
                    to,
                    delay: n,
                    duplicate: true,
                },
                TraceEvent::Drop { msg, to },
                TraceEvent::Deliver {
                    msg,
                    to,
                    applied: n as usize,
                },
                TraceEvent::Hold { msg, to },
                TraceEvent::Ignore { msg, to },
                TraceEvent::Retry {
                    msg,
                    to,
                    at: SimTime(n),
                },
                TraceEvent::PartitionStart { window: msg },
                TraceEvent::PartitionEnd { window: msg },
                TraceEvent::Crash { replica: to },
                TraceEvent::Restart { replica: to },
                TraceEvent::FinalSync,
            ] {
                trace.push(SimTime(t), event.clone());
                want.push((SimTime(t), event));
            }
        }
        assert_eq!(trace.iter().cloned().collect::<Vec<_>>(), want);
        let lines: String = want.iter().map(|(t, e)| format!("{t} {e:?}\n")).collect();
        assert_eq!(trace.render(), lines);
    }
}
