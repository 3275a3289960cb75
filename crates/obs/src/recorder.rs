//! The recording core: a global on/off switch, per-thread event lanes
//! behind a global sink, and the span/counter/histogram entry points.
//!
//! # Cost model
//!
//! Every entry point starts with one relaxed [`AtomicBool`] load and
//! returns immediately when recording is off — no timestamp is taken, no
//! thread-local is touched, nothing allocates. Instrumentation sites can
//! therefore stay in place permanently; the determinism suites further pin
//! that toggling recording never changes a sim trace or checker verdict
//! (observability is *inert* — it observes state, it never feeds back).
//!
//! # Lanes
//!
//! When recording is on, each thread appends to its own *lane* — a buffer
//! registered in a global registry on first use, surviving thread exit so
//! a caller's scoped worker threads keep their events. Lane ids
//! are assigned in registration order, never from OS thread identity
//! (which the workspace determinism lint bans). A lane stops recording
//! (and counts drops instead) once it holds [`capacity`] events.
//!
//! # Clock domains
//!
//! Timestamps come from one of two domains, tagged on every event: the
//! **virtual** domain — sim ticks, installed per thread via
//! [`enter_virtual_clock`] / [`set_virtual_now`] — and the **wall**
//! domain, read through the one allowlisted [`crate::wallclock`] module.
//! Inside a simulation every event is virtual-stamped and therefore fully
//! deterministic; checker events outside a sim fall back to wall time.

use crate::wallclock;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Default per-lane event capacity (events beyond it are counted, not
/// stored). Override per run with [`enable`] / `RAL_OBS_CAPACITY`.
pub const DEFAULT_CAPACITY: usize = 1 << 21;

/// Sentinel key for events recorded without a dimension ([`counter`],
/// [`instant`]). Distinct from key `0`, which is a legitimate replica,
/// window, or link value.
pub const NO_KEY: u64 = u64::MAX;

/// Which clock domain stamped an event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Sim ticks from the virtual clock installed by
    /// [`enter_virtual_clock`]; deterministic for a fixed seed.
    Virtual,
    /// Nanoseconds since an arbitrary process-local anchor, read through
    /// [`crate::wallclock`].
    Wall,
}

/// What one recorded event says.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened ([`span`]).
    Begin(&'static str),
    /// A span closed (the guard dropped).
    End(&'static str),
    /// A point event, with an optional dimension key ([`NO_KEY`] if none).
    Point {
        /// Event name.
        name: &'static str,
        /// Dimension key (replica, partition window, [`link_key`], …).
        key: u64,
    },
    /// A monotone counter increment, with an optional dimension key.
    Counter {
        /// Counter name.
        name: &'static str,
        /// Dimension key ([`NO_KEY`] for the plain aggregate).
        key: u64,
        /// Amount added.
        delta: u64,
    },
    /// One histogram sample ([`observe`]).
    Value {
        /// Histogram name.
        name: &'static str,
        /// The sampled value.
        value: u64,
    },
}

impl EventKind {
    /// The event's name, whatever its kind.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Begin(n) | EventKind::End(n) => n,
            EventKind::Point { name, .. }
            | EventKind::Counter { name, .. }
            | EventKind::Value { name, .. } => name,
        }
    }
}

/// One recorded event: which lane produced it, when, and what it says.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObsEvent {
    /// Registration-order id of the producing lane.
    pub lane: u32,
    /// Clock domain of `ts`.
    pub clock: Clock,
    /// Timestamp: sim ticks (virtual) or anchor-relative nanoseconds
    /// (wall).
    pub ts: u64,
    /// The payload.
    pub kind: EventKind,
}

struct LaneBuf {
    events: Vec<ObsEvent>,
    dropped: u64,
}

struct Lane {
    id: u32,
    buf: Mutex<LaneBuf>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
/// Bumped by [`reset`] so threads drop their cached lane handle.
static GENERATION: AtomicU64 = AtomicU64::new(0);
static REGISTRY: Mutex<Vec<Arc<Lane>>> = Mutex::new(Vec::new());

thread_local! {
    /// `(generation, lane)` cache; re-registered after a [`reset`].
    static LANE: RefCell<Option<(u64, Arc<Lane>)>> = const { RefCell::new(None) };
    /// The installed virtual clock, if any.
    static VIRTUAL: Cell<Option<u64>> = const { Cell::new(None) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking recorder thread must not take observability down with
    // it: recover the data behind a poisoned lock.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Whether recording is currently on. One relaxed atomic load — this is
/// the fast path every instrumentation site takes when observability is
/// disabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on, optionally overriding the per-lane event
/// [`capacity`] (values below 1 are clamped to 1). Does not clear
/// previously recorded events — pair with [`reset`] for a fresh run.
pub fn enable(capacity_override: Option<usize>) {
    if let Some(c) = capacity_override {
        CAPACITY.store(c.max(1), Ordering::Relaxed);
    }
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording off. Buffered events stay available to [`drain`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// The current per-lane event capacity.
pub fn capacity() -> usize {
    CAPACITY.load(Ordering::Relaxed)
}

/// Discards every recorded event and all lane registrations. Threads
/// re-register (with fresh lane ids, again in first-record order) on
/// their next event.
pub fn reset() {
    let mut reg = lock(&REGISTRY);
    reg.clear();
    GENERATION.fetch_add(1, Ordering::Relaxed);
}

/// Takes every buffered event out of the sink: lanes in id order, each
/// lane's events in record order. Lane registrations survive, so ids stay
/// stable across repeated drains.
pub fn drain() -> Snapshot {
    let reg = lock(&REGISTRY);
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for lane in reg.iter() {
        let mut buf = lock(&lane.buf);
        events.append(&mut buf.events);
        dropped += buf.dropped;
        buf.dropped = 0;
    }
    Snapshot { events, dropped }
}

fn record(kind: EventKind) {
    let (clock, ts) = match VIRTUAL.with(Cell::get) {
        Some(t) => (Clock::Virtual, t),
        None => (Clock::Wall, wallclock::now_nanos()),
    };
    let generation = GENERATION.load(Ordering::Relaxed);
    LANE.with(|slot| {
        let mut slot = slot.borrow_mut();
        let lane = match slot.as_ref() {
            Some((g, lane)) if *g == generation => lane.clone(),
            _ => {
                let mut reg = lock(&REGISTRY);
                let lane = Arc::new(Lane {
                    id: reg.len() as u32,
                    buf: Mutex::new(LaneBuf {
                        events: Vec::new(),
                        dropped: 0,
                    }),
                });
                reg.push(lane.clone());
                *slot = Some((generation, lane.clone()));
                lane
            }
        };
        let mut buf = lock(&lane.buf);
        if buf.events.len() >= capacity() {
            buf.dropped += 1;
        } else {
            let lane_id = lane.id;
            buf.events.push(ObsEvent {
                lane: lane_id,
                clock,
                ts,
                kind,
            });
        }
    });
}

/// Adds `delta` to the aggregate counter `name`.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if enabled() {
        record(EventKind::Counter {
            name,
            key: NO_KEY,
            delta,
        });
    }
}

/// Adds `delta` to counter `name` under dimension `key` (e.g. a
/// [`link_key`]).
#[inline]
pub fn counter_keyed(name: &'static str, key: u64, delta: u64) {
    if enabled() {
        record(EventKind::Counter { name, key, delta });
    }
}

/// Records one histogram sample.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if enabled() {
        record(EventKind::Value { name, value });
    }
}

/// Records a point event with no dimension.
#[inline]
pub fn instant(name: &'static str) {
    if enabled() {
        record(EventKind::Point { name, key: NO_KEY });
    }
}

/// Records a point event under dimension `key` (replica id, partition
/// window, …).
#[inline]
pub fn instant_keyed(name: &'static str, key: u64) {
    if enabled() {
        record(EventKind::Point { name, key });
    }
}

/// An open span; dropping it records the matching end event. Disarmed
/// (fully free) when recording was off at [`span`] time.
#[must_use = "dropping the guard immediately makes a zero-length span"]
pub struct SpanGuard {
    name: Option<&'static str>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            if enabled() {
                record(EventKind::End(name));
            }
        }
    }
}

/// Opens a span: records a begin event now and an end event when the
/// returned guard drops. When recording is off this is a no-op returning
/// a disarmed guard.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if enabled() {
        record(EventKind::Begin(name));
        SpanGuard { name: Some(name) }
    } else {
        SpanGuard { name: None }
    }
}

/// Installs the virtual clock on this thread, starting at `ticks`;
/// restores the previous state (usually "no virtual clock") when the
/// guard drops. While installed, every event this thread records is
/// stamped [`Clock::Virtual`].
pub fn enter_virtual_clock(ticks: u64) -> VirtualClockScope {
    let prev = VIRTUAL.with(|c| c.replace(Some(ticks)));
    VirtualClockScope { prev }
}

/// Moves this thread's virtual clock to `ticks`. A no-op stamp-wise
/// outside an [`enter_virtual_clock`] scope is *not* provided: calling
/// this without a scope installs the clock until the thread ends, so
/// always pair it with a scope guard.
#[inline]
pub fn set_virtual_now(ticks: u64) {
    VIRTUAL.with(|c| c.set(Some(ticks)));
}

/// Guard restoring the previous virtual-clock state; see
/// [`enter_virtual_clock`].
pub struct VirtualClockScope {
    prev: Option<u64>,
}

impl Drop for VirtualClockScope {
    fn drop(&mut self) {
        let prev = self.prev;
        VIRTUAL.with(|c| c.set(prev));
    }
}

/// Packs a directed link into one counter dimension key.
#[inline]
pub fn link_key(from: u32, to: u32) -> u64 {
    (u64::from(from) << 32) | u64::from(to)
}

/// Inverse of [`link_key`].
#[inline]
pub fn link_from_to(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// A drained batch of events, plus how many were lost to the per-lane
/// capacity bound.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Events, grouped by lane id and in record order within a lane.
    pub events: Vec<ObsEvent>,
    /// Events discarded because a lane was full.
    pub dropped: u64,
}

impl Snapshot {
    /// Sum of `delta`s of counter `name` across all keys and lanes.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Counter { name: n, delta, .. } if *n == name => Some(*delta),
                _ => None,
            })
            .sum()
    }

    /// Per-key totals of counter `name`, ascending by key.
    pub fn counter_by_key(&self, name: &str) -> std::collections::BTreeMap<u64, u64> {
        let mut out = std::collections::BTreeMap::new();
        for e in &self.events {
            if let EventKind::Counter {
                name: n,
                key,
                delta,
            } = &e.kind
            {
                if *n == name {
                    *out.entry(*key).or_insert(0) += *delta;
                }
            }
        }
        out
    }

    /// Whether any span with this name was opened.
    pub fn has_span(&self, name: &str) -> bool {
        self.events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::Begin(n) if *n == name))
    }

    /// All distinct event names, sorted.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = self.events.iter().map(|e| e.kind.name()).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    /// All samples of histogram `name`, in record order.
    pub fn values(&self, name: &str) -> Vec<u64> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Value { name: n, value } if *n == name => Some(*value),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use std::sync::{Mutex, MutexGuard};

    /// The recorder is process-global, so tests that enable/drain/reset it
    /// must serialize. Every obs unit test takes this guard first.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    pub fn serialize() -> MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = test_support::serialize();
        reset();
        disable();
        counter("t.count", 3);
        observe("t.hist", 9);
        instant("t.mark");
        let _s = span("t.span");
        drop(_s);
        let snap = drain();
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn events_round_trip_with_keys_and_totals() {
        let _g = test_support::serialize();
        reset();
        enable(Some(1024));
        counter("t.bytes", 10);
        counter_keyed("t.bytes", link_key(1, 2), 32);
        counter_keyed("t.bytes", link_key(1, 2), 8);
        observe("t.delay", 7);
        instant_keyed("t.crash", 4);
        {
            let _s = span("t.work");
            counter("t.inner", 1);
        }
        disable();
        let snap = drain();
        assert_eq!(snap.counter_total("t.bytes"), 50);
        assert_eq!(
            snap.counter_by_key("t.bytes").get(&link_key(1, 2)),
            Some(&40)
        );
        assert!(snap.has_span("t.work"));
        assert_eq!(snap.values("t.delay"), vec![7]);
        // Begin comes before the inner counter, End after it.
        let kinds: Vec<&EventKind> = snap.events.iter().map(|e| &e.kind).collect();
        let begin = kinds
            .iter()
            .position(|k| matches!(k, EventKind::Begin("t.work")))
            .unwrap();
        let end = kinds
            .iter()
            .position(|k| matches!(k, EventKind::End("t.work")))
            .unwrap();
        assert!(begin < end);
        reset();
    }

    #[test]
    fn virtual_clock_scopes_stamp_and_restore() {
        let _g = test_support::serialize();
        reset();
        enable(Some(1024));
        instant("t.wall-before");
        {
            let _v = enter_virtual_clock(100);
            instant("t.virtual");
            set_virtual_now(250);
            instant("t.virtual-later");
        }
        instant("t.wall-after");
        disable();
        let snap = drain();
        let find = |name: &str| {
            snap.events
                .iter()
                .find(|e| e.kind.name() == name)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert_eq!(find("t.wall-before").clock, Clock::Wall);
        let v = find("t.virtual");
        assert_eq!((v.clock, v.ts), (Clock::Virtual, 100));
        let vl = find("t.virtual-later");
        assert_eq!((vl.clock, vl.ts), (Clock::Virtual, 250));
        assert_eq!(find("t.wall-after").clock, Clock::Wall);
        reset();
    }

    #[test]
    fn capacity_bounds_a_lane_and_counts_drops() {
        let _g = test_support::serialize();
        reset();
        enable(Some(4));
        for _ in 0..10 {
            counter("t.c", 1);
        }
        disable();
        let snap = drain();
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.dropped, 6);
        reset();
        // Restore the default so later tests are not artificially bounded.
        CAPACITY.store(DEFAULT_CAPACITY, Ordering::Relaxed);
    }

    #[test]
    fn scoped_threads_get_their_own_lanes() {
        let _g = test_support::serialize();
        reset();
        enable(Some(1024));
        counter("t.main", 1);
        std::thread::scope(|s| {
            s.spawn(|| counter("t.worker", 1));
        });
        disable();
        let snap = drain();
        assert_eq!(snap.counter_total("t.main"), 1);
        assert_eq!(snap.counter_total("t.worker"), 1, "worker lane survives");
        let lanes: std::collections::BTreeSet<u32> = snap.events.iter().map(|e| e.lane).collect();
        assert_eq!(lanes.len(), 2, "one lane per thread");
        reset();
    }

    #[test]
    fn link_key_round_trips() {
        assert_eq!(link_from_to(link_key(7, 31)), (7, 31));
        assert_eq!(link_from_to(link_key(0, 0)), (0, 0));
        assert_ne!(link_key(0, 0), NO_KEY);
    }
}
