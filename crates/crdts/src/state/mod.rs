//! State-based CRDT implementations (Appendices D and E).
//!
//! Every type here implements both [`ral_runtime::StateBased`] (the lattice
//! full-state merge propagation runs on, Appendix D.2) and
//! [`ral_runtime::DeltaCrdt`] (its one mutator, which returns the delta
//! both transports join into the origin's state in place), plus the
//! [`local::LocalEffector`] decomposition the Prop1–Prop6 obligations reason
//! about.

pub mod local;
pub mod lww_element_set;
pub mod mv_register;
pub mod pn_counter;
pub mod two_phase_set;

use std::collections::BTreeSet;

/// `a ∪= b` in place — the join of the two set-union lattices. Only the
/// elements `a` lacks are cloned and inserted, so a small `b` costs
/// `O(|b| log |a|)` whatever `a` holds. Returns whether `a` grew.
fn union_into<T: Ord + Clone>(a: &mut BTreeSet<T>, b: &BTreeSet<T>) -> bool {
    let fresh: Vec<T> = b.difference(a).cloned().collect();
    let grew = !fresh.is_empty();
    a.extend(fresh);
    grew
}
