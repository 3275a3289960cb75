//! The frozen reference kernel, the clock, and the process probes.
//!
//! Identical work drifts by ±15 % in wall-clock time between and within
//! processes on the small sandboxes this benchmark runs on, so a case is
//! not reported in seconds: every case execution is preceded by one run
//! of [`ref_kernel`], and the case's cost is `case_time / ref_time` in
//! *reference units* (`ru`). The kernel exercises what the pipeline
//! exercises — ordered-map insert/lookup, small-`Vec` clone/drop, heap
//! push/pop — so that frequency, cache and scheduler drift move both
//! sides of the ratio together.
//!
//! **Frozen:** changing [`ref_kernel`] changes the meaning of every `ru`
//! metric and is a new benchmark version.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;

/// Nanoseconds on the workspace's single audited wall clock
/// ([`ral_obs::wallclock`]; the determinism lint bans every other read).
pub fn now() -> u64 {
    ral_obs::wallclock::now_nanos()
}

/// One xorshift64 step.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Steps of the reference kernel. Sized for ~0.5 ms on the 2-core box the
/// benchmark was defined on.
const REF_STEPS: usize = 8_000;

/// The reference kernel: a fixed xorshift-driven mix of `BTreeMap<u64,
/// Vec<usize>>` insert/lookup, small-`Vec` clone/drop and `BinaryHeap`
/// push/pop. Returns a checksum so the work cannot be optimised away; the
/// checksum is the same on every call.
///
/// (An ordered map rather than a hash map: the workspace's determinism
/// lint bans the hash collections outside `crates/bench`, and the pipeline
/// itself keeps its hot state in ordered maps and vectors.)
pub fn ref_kernel() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut map: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut heap: BinaryHeap<u64> = BinaryHeap::new();
    let mut sum = 0u64;
    for i in 0..REF_STEPS {
        let r = xorshift(&mut x);
        let key = r % 512;
        match r >> 61 {
            0..=2 => map.entry(key).or_default().push(i),
            3 | 4 => {
                if let Some(v) = map.get(&key) {
                    let copy = v.clone();
                    sum = sum.wrapping_add(copy.len() as u64);
                }
            }
            5 => heap.push(r),
            6 => sum = sum.wrapping_add(heap.pop().unwrap_or(0) & 0xFF),
            _ => {
                if let Some(v) = map.get_mut(&key) {
                    v.truncate(v.len() / 2);
                }
            }
        }
    }
    black_box(sum.wrapping_add(map.len() as u64))
}

/// Times one [`ref_kernel`] run, in nanoseconds (at least 1).
pub fn timed_ref() -> u64 {
    let t0 = now();
    black_box(ref_kernel());
    (now() - t0).max(1)
}

/// Calibrates the clock: the mean cost in nanoseconds of one start/stop
/// timer pair (two clock reads), over `pairs` back-to-back pairs.
pub fn timer_pair_ns(pairs: u32) -> f64 {
    let t0 = now();
    for _ in 0..pairs {
        let a = now();
        let b = now();
        black_box(b.wrapping_sub(a));
    }
    (now() - t0) as f64 / pairs as f64
}

/// Peak resident set size (`VmHWM`) of this process in MiB, or `None` off
/// Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ref_kernel_is_frozen() {
        // The checksum pins the kernel's work: a change here is a new
        // benchmark version (every `ru` metric changes meaning).
        assert_eq!(ref_kernel(), ref_kernel());
        assert_eq!(ref_kernel(), 134_293);
    }

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&v[..4]), 3.0);
        assert_eq!(percentile(&v, 90.0), 5.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), 90.0);
    }
}
