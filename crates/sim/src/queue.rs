//! The tie-break-stable event queue.
//!
//! Events fire in virtual-time order, and events scheduled for the *same*
//! instant fire in the order they were pushed: the pop order is `(time,
//! sequence)`, where the sequence number counts pushes. The order is total,
//! so the pop order — and with it every RNG draw the engine makes — is a
//! pure function of the push sequence. This is the property the determinism
//! suite pins: same seed, same scenario ⇒ byte-identical traces.
//!
//! Two structures keep that order between them:
//!
//! * a **calendar**: a ring of FIFO buckets, one per tick of the *horizon*
//!   (the next power of two above the run's longest link delay and its
//!   retry delay, see [`EventQueue::new`]), covering the ticks from the
//!   last popped instant onwards. Every transmission the engine schedules
//!   lands in it, so a broadcast to `n` replicas costs `n` appends to a
//!   bucket and `n` pops from its front. The buckets are linked lists
//!   threaded through one slab of nodes, so a bucket costs 8 bytes of ring
//!   and nothing is allocated per bucket;
//! * an **overflow** min-heap on `(time, sequence)` for everything beyond
//!   the horizon (periodic invocations and gossip, scheduled faults) and
//!   for a push earlier than the last popped instant, which is legal and
//!   pops before anything the calendar holds.
//!
//! A pop takes the smaller `(time, sequence)` of the calendar's first
//! bucket and the heap's top. Within the horizon every tick has a bucket of
//! its own, so a bucket holds one instant, in push order.

use crate::time::SimTime;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// The calendar's ring never exceeds this many ticks (512 KiB of ring);
/// a longer link delay only sends more events to the overflow heap.
const MAX_RING: u64 = 1 << 16;

/// The end of a bucket's list.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

// Ordering ignores the payload entirely: (time, seq) is already total.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// One calendar event, linked into its bucket (or, vacant, into the free
/// list).
#[derive(Debug)]
struct Node<E> {
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// A bucket's list: the slab indices of its first and last node.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// A queue of timed events with stable tie-breaking: a calendar over the
/// next few ticks and an overflow heap behind it.
#[derive(Debug)]
pub struct EventQueue<E> {
    ring: Vec<Bucket>,
    slab: Vec<Node<E>>,
    free: u32,
    /// Events in the calendar.
    booked: usize,
    /// The latest instant popped so far: the calendar covers
    /// `[base, base + ring.len())`.
    base: u64,
    /// No calendar event lies before this instant. A pop first moves it to
    /// the calendar's earliest event, which no pop precedes, so it never
    /// falls behind `base` while the calendar holds anything.
    cursor: u64,
    overflow: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// An empty queue whose calendar covers every delay up to
    /// `max_delay` ticks: its ring has the next power of two above
    /// `max_delay` buckets (at most 2¹⁶). Later events wait in the overflow
    /// heap; the pop order does not depend on `max_delay`.
    pub fn new(max_delay: u64) -> Self {
        let ticks = max_delay
            .saturating_add(1)
            .min(MAX_RING)
            .next_power_of_two();
        EventQueue {
            ring: vec![EMPTY; ticks as usize],
            slab: Vec::new(),
            free: NIL,
            booked: 0,
            base: 0,
            cursor: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at `time`. Events pushed for the same instant pop
    /// in push order. An instant earlier than the last popped one is legal
    /// too: the event waits in the overflow heap and still pops in `(time,
    /// sequence)` order, before everything later.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let t = time.0;
        // An instant before `base` wraps around to far beyond the ring.
        if t.wrapping_sub(self.base) >= self.ring.len() as u64 {
            self.overflow.push(Reverse(Entry { time, seq, event }));
            return;
        }
        let node = Node {
            seq,
            next: NIL,
            event: Some(event),
        };
        let id = if self.free == NIL {
            self.slab.push(node);
            (self.slab.len() - 1) as u32
        } else {
            let id = self.free;
            self.free = std::mem::replace(&mut self.slab[id as usize], node).next;
            id
        };
        let slot = self.slot(t);
        let bucket = &mut self.ring[slot];
        if bucket.head == NIL {
            bucket.head = id;
        } else {
            self.slab[bucket.tail as usize].next = id;
        }
        bucket.tail = id;
        self.cursor = if self.booked == 0 {
            t
        } else {
            self.cursor.min(t)
        };
        self.booked += 1;
    }

    /// Pops the earliest event (push order among ties).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let booked = self.first_booked();
        let from_heap = match (booked, self.overflow.peek()) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some((t, seq)), Some(Reverse(top))) => (top.time.0, top.seq) < (t, seq),
        };
        let (time, event) = if from_heap {
            let Reverse(e) = self.overflow.pop()?;
            (e.time, e.event)
        } else {
            let t = self.cursor;
            let slot = self.slot(t);
            let id = self.ring[slot].head;
            let node = &mut self.slab[id as usize];
            let event = node.event.take()?;
            self.ring[slot].head = std::mem::replace(&mut node.next, self.free);
            self.free = id;
            self.booked -= 1;
            (SimTime(t), event)
        };
        self.base = self.base.max(time.0);
        Some((time, event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.booked + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn slot(&self, t: u64) -> usize {
        (t & (self.ring.len() as u64 - 1)) as usize
    }

    /// Moves `cursor` to the calendar's first non-empty bucket and returns
    /// its instant and the sequence number of its first event.
    fn first_booked(&mut self) -> Option<(u64, u64)> {
        if self.booked == 0 {
            return None;
        }
        // Every calendar event lies in [cursor, base + ring), one instant
        // per bucket, so this stops within one turn of the ring.
        while self.ring[self.slot(self.cursor)].head == NIL {
            self.cursor += 1;
        }
        let head = self.ring[self.slot(self.cursor)].head;
        Some((self.cursor, self.slab[head as usize].seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ral_core::rng::Rng;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new(4);
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_in_push_order() {
        let mut q = EventQueue::new(4);
        for i in 0..100u32 {
            q.push(SimTime(5), i);
        }
        // Interleave an earlier event to exercise heap reshuffling.
        q.push(SimTime(1), 999);
        assert_eq!(q.pop(), Some((SimTime(1), 999)));
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)), "tie order must be FIFO");
        }
    }

    #[test]
    fn a_push_into_the_past_pops_first() {
        let mut q = EventQueue::new(4);
        q.push(SimTime(10), "now");
        q.push(SimTime(12), "soon");
        assert_eq!(q.pop(), Some((SimTime(10), "now")));
        q.push(SimTime(10), "again");
        q.push(SimTime(3), "past");
        q.push(SimTime(11), "next");
        assert_eq!(q.pop(), Some((SimTime(3), "past")));
        assert_eq!(q.pop(), Some((SimTime(10), "again")));
        assert_eq!(q.pop(), Some((SimTime(11), "next")));
        assert_eq!(q.pop(), Some((SimTime(12), "soon")));
        assert!(q.is_empty());
    }

    #[test]
    fn the_ring_is_the_next_power_of_two_above_the_delay() {
        assert_eq!(EventQueue::<()>::new(0).ring.len(), 1);
        assert_eq!(EventQueue::<()>::new(2).ring.len(), 4);
        assert_eq!(EventQueue::<()>::new(4).ring.len(), 8);
        assert_eq!(EventQueue::<()>::new(10).ring.len(), 16);
        assert_eq!(EventQueue::<()>::new(u64::MAX).ring.len(), 1 << 16);
    }

    /// Replays `ops` — `Some(time)` pushes, `None` pops — against the queue
    /// and against a plain heap on `(time, seq)`, which is the contract.
    fn agrees_with_reference(max_delay: u64, ops: &[Option<u64>]) {
        let mut q = EventQueue::new(max_delay);
        let mut reference = BinaryHeap::new();
        for (seq, op) in ops.iter().enumerate() {
            match *op {
                Some(t) => {
                    q.push(SimTime(t), seq);
                    reference.push(Reverse((t, seq)));
                }
                None => {
                    let want = reference.pop().map(|Reverse((t, s))| (SimTime(t), s));
                    assert_eq!(q.pop(), want, "max_delay {max_delay}, op {seq}");
                }
            }
            assert_eq!(q.len(), reference.len());
        }
        while let Some(Reverse((t, s))) = reference.pop() {
            assert_eq!(
                q.pop(),
                Some((SimTime(t), s)),
                "draining, max_delay {max_delay}"
            );
        }
        assert_eq!(q.pop(), None);
    }

    /// Random interleavings: pushes a few ticks past the last popped
    /// instant (ties, the horizon's last tick, exactly one horizon on, far
    /// beyond it, and before it), runs of pops that jump over empty
    /// stretches, for rings of 1 to 64 ticks.
    #[test]
    fn random_interleavings_pop_as_the_reference_heap() {
        let mut rng = Rng::seed_from_u64(0x5eed);
        for case in 0..400 {
            let max_delay = [0u64, 1, 2, 3, 7, 10, 63][case % 7];
            let ring = (max_delay + 1).next_power_of_two();
            let mut now = 0u64; // the last popped instant, tracked loosely
            let mut ops = Vec::new();
            let mut pending = 0usize;
            for _ in 0..rng.random_range(1..300usize) {
                if pending > 0 && rng.random_bool(0.45) {
                    ops.push(None);
                    pending -= 1;
                    continue;
                }
                let t = match rng.random_range(0..8u32) {
                    0 => now,                                           // same tick
                    1 => now + ring - 1,                                // the horizon's last tick
                    2 => now + ring,                                    // exactly one horizon on
                    3 => now + ring * rng.random_range(2..9u64),        // an empty stretch
                    4 => now.saturating_sub(rng.random_range(0..4u64)), // the past
                    _ => now + rng.random_range(0..=max_delay),
                };
                ops.push(Some(t));
                pending += 1;
                if rng.random_bool(0.1) {
                    now = t.max(now);
                }
            }
            agrees_with_reference(max_delay, &ops);
        }
    }

    #[test]
    fn pushes_at_the_horizon_and_beyond_keep_their_order() {
        // Ring of 4: base 0 covers ticks 0..=3; tick 4 shares bucket 0.
        let ops = [
            Some(4),
            Some(0),
            Some(3),
            Some(4),
            None,
            Some(0),
            Some(8),
            None,
            None,
            Some(7),
            Some(4),
            None,
            None,
            None,
            None,
        ];
        agrees_with_reference(2, &ops);
    }

    #[test]
    fn a_one_tick_ring_still_orders_everything() {
        let mut ops = Vec::new();
        for t in [5, 0, 0, 3, 9, 0, 1, 1] {
            ops.push(Some(t));
        }
        ops.extend([None, None, Some(0), Some(2), None, None, None]);
        agrees_with_reference(0, &ops);
    }

    #[test]
    fn instants_near_the_end_of_time_do_not_overflow() {
        let ops = [
            Some(u64::MAX - 1),
            Some(u64::MAX),
            None,
            Some(u64::MAX),
            Some(u64::MAX - 1),
            None,
            None,
            None,
        ];
        agrees_with_reference(3, &ops);
    }
}
