//! Event traces: the byte-comparable record of everything a run did.
//!
//! Every decision the engine makes — invocations, transmissions, arrivals
//! and their outcomes, faults firing — appends one entry. The determinism
//! suite asserts that two runs of the same seeded scenario render to
//! byte-identical traces, which pins the event order, the RNG consumption
//! order, *and* the fault schedule at once.
//!
//! A broadcast to `n` replicas records `n - 1` sends and as many arrivals,
//! so the trace stores entries packed, not as [`TraceEvent`] values: each
//! is one 64-bit record holding the time step since the previous entry, a
//! tag and the fields, so a run's trace takes 8 bytes an entry, or 16 just
//! after its vector doubled. An entry whose step or fields do not fit is
//! written whole instead (six words: the tag, the absolute time and every
//! field at 64 bits), so nothing is lost: a step backwards or of 2⁹ ticks
//! or more, a replica id or window of 2¹⁰ or more, a message id of 2²² or
//! more, a delay of 2⁸ or more, a count or retry distance of 2¹⁸ or more,
//! or a retry into the past. [`Trace::iter`] decodes the entries back.

use crate::time::SimTime;
use ral_core::ids::ReplicaId;
use std::fmt::{self, Write as _};

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

// A record, from the low bits up: tag (4 bits: the variant's position in
// `TraceEvent`), flag (1), time step (9), the replica or window the event
// is about (10), the message id (22), and the variant's third field (18):
// sender and delay (10 + 8 bits), applied count, or retry distance.
const FLAG: u32 = 4;
const STEP: u32 = 5;
const SMALL: u32 = 14;
const MSG: u32 = 24;
const THIRD: u32 = 46;
const DELAY_BITS: u32 = 8;
/// The tags whose third field is not zero.
const SEND: u64 = 2;
const DELIVER: u64 = 4;
const RETRY: u64 = 7;
/// The tag of an entry written whole; its own tag follows the flag bit.
const WHOLE: u64 = 15;

/// Whether `x` fits a field from bit `from` to bit `to`.
fn fits(x: u64, from: u32, to: u32) -> bool {
    x >> (to - from) == 0
}

/// Packs an entry, `step` ticks after the previous one, into one record,
/// if its fields fit.
fn pack(step: u64, time: u64, p: &Parts) -> Option<u64> {
    let third = match p.tag {
        // A sender past the third field's width fails its check below.
        SEND if fits(p.wide, 0, DELAY_BITS) => p.from << DELAY_BITS | p.wide,
        SEND => return None,
        DELIVER => p.wide,
        RETRY => p.wide.checked_sub(time)?,
        _ => 0,
    };
    (fits(step, STEP, SMALL)
        && fits(p.small, SMALL, MSG)
        && fits(p.msg, MSG, THIRD)
        && fits(third, THIRD, 64))
    .then_some(
        p.tag
            | u64::from(p.flag) << FLAG
            | step << STEP
            | p.small << SMALL
            | p.msg << MSG
            | third << THIRD,
    )
}

/// An entry taken apart: tag, flag, and four fields — the replica or
/// window it is about, the message id, the delay / count / retry instant,
/// and the sender.
struct Parts {
    tag: u64,
    flag: bool,
    small: u64,
    msg: u64,
    wide: u64,
    from: u64,
}

impl Parts {
    fn of(event: &TraceEvent) -> Parts {
        let parts = |tag, flag, small: u64, msg: usize, wide: u64, from: u64| Parts {
            tag,
            flag,
            small,
            msg: msg as u64,
            wide,
            from,
        };
        let id = |r: &ReplicaId| u64::from(r.0);
        match event {
            TraceEvent::Invoke { replica, ok } => parts(0, *ok, id(replica), 0, 0, 0),
            TraceEvent::Gossip { replica, ok } => parts(1, *ok, id(replica), 0, 0, 0),
            TraceEvent::Send {
                msg,
                from,
                to,
                delay,
                duplicate,
            } => parts(SEND, *duplicate, id(to), *msg, *delay, id(from)),
            TraceEvent::Drop { msg, to } => parts(3, false, id(to), *msg, 0, 0),
            TraceEvent::Deliver { msg, to, applied } => {
                parts(DELIVER, false, id(to), *msg, *applied as u64, 0)
            }
            TraceEvent::Hold { msg, to } => parts(5, false, id(to), *msg, 0, 0),
            TraceEvent::Ignore { msg, to } => parts(6, false, id(to), *msg, 0, 0),
            TraceEvent::Retry { msg, to, at } => parts(RETRY, false, id(to), *msg, at.0, 0),
            TraceEvent::PartitionStart { window } => parts(8, false, *window as u64, 0, 0, 0),
            TraceEvent::PartitionEnd { window } => parts(9, false, *window as u64, 0, 0, 0),
            TraceEvent::Crash { replica } => parts(10, false, id(replica), 0, 0, 0),
            TraceEvent::Restart { replica } => parts(11, false, id(replica), 0, 0, 0),
            TraceEvent::FinalSync => parts(12, false, 0, 0, 0, 0),
        }
    }

    fn event(&self) -> TraceEvent {
        let replica = ReplicaId(self.small as u32);
        let msg = self.msg as usize;
        match self.tag {
            0 => TraceEvent::Invoke {
                replica,
                ok: self.flag,
            },
            1 => TraceEvent::Gossip {
                replica,
                ok: self.flag,
            },
            SEND => TraceEvent::Send {
                msg,
                from: ReplicaId(self.from as u32),
                to: replica,
                delay: self.wide,
                duplicate: self.flag,
            },
            3 => TraceEvent::Drop { msg, to: replica },
            DELIVER => TraceEvent::Deliver {
                msg,
                to: replica,
                applied: self.wide as usize,
            },
            5 => TraceEvent::Hold { msg, to: replica },
            6 => TraceEvent::Ignore { msg, to: replica },
            RETRY => TraceEvent::Retry {
                msg,
                to: replica,
                at: SimTime(self.wide),
            },
            8 => TraceEvent::PartitionStart {
                window: self.small as usize,
            },
            9 => TraceEvent::PartitionEnd {
                window: self.small as usize,
            },
            10 => TraceEvent::Crash { replica },
            11 => TraceEvent::Restart { replica },
            _ => TraceEvent::FinalSync,
        }
    }

    /// Reads a record's third field back.
    fn set_third(&mut self, third: u64, time: u64) {
        match self.tag {
            SEND => {
                self.from = third >> DELAY_BITS;
                self.wide = third & ((1 << DELAY_BITS) - 1);
            }
            DELIVER => self.wide = third,
            RETRY => self.wide = time + third,
            _ => {}
        }
    }
}

/// The ordered record of a run.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Trace {
    records: Vec<u64>,
    /// Time of the last entry: the next step is measured from it.
    last: SimTime,
    len: usize,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends one entry.
    pub fn push(&mut self, time: SimTime, event: TraceEvent) {
        let p = Parts::of(&event);
        let packed = time
            .0
            .checked_sub(self.last.0)
            .and_then(|step| pack(step, time.0, &p));
        self.last = time;
        self.len += 1;
        match packed {
            Some(record) => self.records.push(record),
            None => {
                let head = WHOLE | u64::from(p.flag) << FLAG | p.tag << STEP;
                self.records
                    .extend([head, time.0, p.small, p.msg, p.wide, p.from]);
            }
        }
    }

    /// The recorded entries, in firing order.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, TraceEvent)> + '_ {
        let mut records = self.records.iter().copied();
        let mut last = 0u64;
        (0..self.len).map(move |_| {
            let mut next = || records.next().unwrap_or_default();
            let record = next();
            let field = |from: u32, to: u32| record << (64 - to) >> (64 - to + from);
            let flag = field(FLAG, STEP) == 1;
            let parts = if field(0, FLAG) == WHOLE {
                last = next();
                Parts {
                    tag: record >> STEP,
                    flag,
                    small: next(),
                    msg: next(),
                    wide: next(),
                    from: next(),
                }
            } else {
                last += field(STEP, SMALL);
                let mut parts = Parts {
                    tag: field(0, FLAG),
                    flag,
                    small: field(SMALL, MSG),
                    msg: field(MSG, THIRD),
                    wide: 0,
                    from: 0,
                };
                parts.set_third(field(THIRD, 64), last);
                parts
            };
            (SimTime(last), parts.event())
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Renders the trace one line per entry — the canonical byte
    /// representation the determinism tests compare.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (t, e) in self.iter() {
            let _ = writeln!(out, "{t} {e:?}");
        }
        out
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
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
        assert!(!trace.is_empty());
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.iter().count(), 2);
    }

    /// Every variant, with fields that pack and fields that do not.
    fn every_variant(msg: usize, r: u32, n: u64) -> Vec<TraceEvent> {
        let to = ReplicaId(r);
        vec![
            TraceEvent::Invoke {
                replica: to,
                ok: true,
            },
            TraceEvent::Invoke {
                replica: to,
                ok: false,
            },
            TraceEvent::Gossip {
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
                duplicate: false,
            },
            TraceEvent::Send {
                msg,
                from: to,
                to: ReplicaId(r / 3),
                delay: n / 2,
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
            TraceEvent::PartitionStart { window: r as usize },
            TraceEvent::PartitionEnd { window: msg },
            TraceEvent::Crash { replica: to },
            TraceEvent::Restart { replica: to },
            TraceEvent::FinalSync,
        ]
    }

    /// Each variant at ordinary and extreme values — `u64::MAX` instants
    /// and retry targets, message ids past 2³², replica ids past 2¹⁶,
    /// steps past the packed field and backwards, and every field on both
    /// sides of its packed width — reads back as pushed and renders exactly
    /// the `{t} {e:?}` lines of the entries themselves.
    #[test]
    fn every_entry_round_trips_and_renders_as_itself() {
        let times = [
            0,
            0,
            1,
            511,
            511 + 512,
            511 + 512 + 511,
            1 << 40,
            (1 << 40) - 1,
            7,
            u64::MAX - 1,
            u64::MAX,
            u64::MAX,
            3,
        ];
        let fields = [
            (0usize, 0u32, 0u64),
            (5, 3, 2),
            ((1 << 22) - 1, 1_023, 255),
            (1 << 22, 1_024, 256),
            (7, 2_047, (1 << 18) - 1),
            (9, 2_048, 1 << 18),
            (u32::MAX as usize, u16::MAX as u32, u16::MAX as u64),
            (1 << 32, 1 << 16, 1 << 16),
            (usize::MAX, u32::MAX, u64::MAX),
            (12, 65_537, u32::MAX as u64 + 1),
        ];
        let mut trace = Trace::new();
        let mut want = Vec::new();
        let mut step = 0;
        for &(msg, r, n) in &fields {
            for event in every_variant(msg, r, n) {
                let t = SimTime(times[step % times.len()]);
                step += 1;
                trace.push(t, event.clone());
                want.push((t, event));
            }
        }
        // Entries where one field alone does not fit: a retry whose target
        // lies before its own instant, sends from a sender past 2¹⁰ and
        // with a delay of 2⁸.
        let odd = [
            TraceEvent::Retry {
                msg: 1,
                to: ReplicaId(1),
                at: SimTime(4),
            },
            TraceEvent::Send {
                msg: 1,
                from: ReplicaId(1_024),
                to: ReplicaId(1),
                delay: 1,
                duplicate: false,
            },
            TraceEvent::Send {
                msg: 1,
                from: ReplicaId(1),
                to: ReplicaId(2),
                delay: 256,
                duplicate: true,
            },
        ];
        for event in odd {
            trace.push(SimTime(10), event.clone());
            want.push((SimTime(10), event));
        }

        assert_eq!(trace.len(), want.len());
        assert_eq!(trace.iter().collect::<Vec<_>>(), want);
        let lines: String = want.iter().map(|(t, e)| format!("{t} {e:?}\n")).collect();
        assert_eq!(trace.render(), lines);
    }

    /// A fan-out — one send per recipient, one arrival each, a few ticks
    /// apart — takes one 8-byte record per entry.
    #[test]
    fn a_fan_out_packs_one_word_per_entry() {
        let mut trace = Trace::new();
        for msg in 0..100 {
            let t = 60 * msg as u64;
            for to in 1..50 {
                let (to, from) = (ReplicaId(to), ReplicaId(0));
                let send = TraceEvent::Send {
                    msg,
                    from,
                    to,
                    delay: 2,
                    duplicate: false,
                };
                trace.push(SimTime(t), send);
            }
            for to in 1..50 {
                let (to, applied) = (ReplicaId(to), 1);
                trace.push(SimTime(t + 2), TraceEvent::Deliver { msg, to, applied });
            }
        }
        assert_eq!(trace.records.len(), trace.len());
    }
}
