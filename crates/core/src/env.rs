//! The workspace's **only** window onto process environment variables.
//!
//! Determinism is the repo's oracle: the same seed must produce byte-identical
//! traces on every machine, so ambient configuration can only enter through a
//! single audited surface. Every `RAL_*` variable is read here, through a
//! typed accessor with a documented default — and `ral-analyze`'s determinism
//! lint fails the CI gate on any `std::env::var` call *outside* this module,
//! which keeps the table below complete by construction.
//!
//! | Variable | Accessor | Default | Meaning |
//! |---|---|---|---|
//! | `RAL_PROP_SEED` | [`prop_seed`] | unset | replay exactly one property case with this seed |
//! | `RAL_PROP_CASES` | [`prop_cases`] | per-suite | run this many property cases |
//! | `RAL_OBS` | [`obs`] | unset | enable `ral-obs` recording in obs-aware entry points |
//! | `RAL_OBS_OUT` | [`obs_out`] | unset | destination for the Perfetto trace the observability example writes |
//! | `RAL_OBS_CAPACITY` | [`obs_capacity`] | per-lane default | `ral-obs` per-lane event capacity |
//! | `CARGO` | [`cargo`] | `"cargo"` | cargo binary for subprocess smoke tests |
//!
//! All accessors are **read-once-per-call** (no caching): overrides behave
//! the same whether set before launch or mid-test via `std::env::set_var`.
//! A set-but-unparseable value panics instead of silently falling back — a
//! typo'd reproduction seed must fail loudly.

use std::ffi::OsString;
use std::path::PathBuf;

/// Parses a `u64` that may be decimal or `0x`-prefixed hex.
fn parse_u64(raw: &str) -> Option<u64> {
    let raw = raw.trim();
    match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

/// Reads a `u64` variable; `None` when unset.
///
/// # Panics
///
/// Panics on a set-but-unparseable value: silently ignoring a typo'd
/// override (e.g. a reproduction seed) would let a broken replay "pass".
fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    match parse_u64(&raw) {
        Some(v) => Some(v),
        None => panic!("invalid {name}={raw:?}: expected a decimal or 0x-prefixed hex u64"),
    }
}

/// `RAL_PROP_SEED` — replay exactly one property-test case with this seed
/// (decimal or `0x`-prefixed hex), as printed by a previous failure report.
///
/// # Panics
///
/// Panics on an unparseable value.
pub fn prop_seed() -> Option<u64> {
    env_u64("RAL_PROP_SEED")
}

/// `RAL_PROP_CASES` — run this many property-test cases instead of the
/// suite's default.
///
/// # Panics
///
/// Panics on an unparseable value.
pub fn prop_cases() -> Option<u64> {
    env_u64("RAL_PROP_CASES")
}

/// `RAL_OBS` — when set to anything but `"0"` (or the empty string),
/// obs-aware entry points (the observability example, `ci.sh`) turn on
/// `ral-obs` recording. Recording is *inert* — it never changes a trace
/// or verdict — so this is an output switch, not a behavior switch.
pub fn obs() -> bool {
    match std::env::var("RAL_OBS") {
        Ok(v) => {
            let v = v.trim();
            !v.is_empty() && v != "0"
        }
        Err(_) => false,
    }
}

/// `RAL_OBS_OUT` — where the observability example writes its Chrome
/// trace-event / Perfetto JSON (its accompanying `OBS_report.json` lands
/// next to it).
pub fn obs_out() -> Option<PathBuf> {
    std::env::var_os("RAL_OBS_OUT").map(PathBuf::from)
}

/// `RAL_OBS_CAPACITY` — override for the `ral-obs` per-lane event
/// capacity (`ral_obs::DEFAULT_CAPACITY` when unset).
///
/// # Panics
///
/// Panics on an unparseable value.
pub fn obs_capacity() -> Option<usize> {
    env_u64("RAL_OBS_CAPACITY").map(|v| v as usize)
}

/// `CARGO` — the cargo binary to use when a test shells out to cargo (set
/// by cargo itself for subprocesses); falls back to `"cargo"` on `PATH`.
pub fn cargo() -> OsString {
    std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_decimal_and_hex() {
        assert_eq!(parse_u64("42"), Some(42));
        assert_eq!(parse_u64(" 0xAB "), Some(0xAB));
        assert_eq!(parse_u64("0Xff"), Some(0xFF));
        assert_eq!(parse_u64("nope"), None);
        assert_eq!(parse_u64(""), None);
    }

    #[test]
    fn cargo_falls_back_to_path_lookup() {
        // Under `cargo test` the CARGO variable is set; either way the
        // accessor returns something non-empty.
        assert!(!cargo().is_empty());
    }
}
