//! State-based CRDT implementations (Appendices D and E).
//!
//! Every type here implements both [`ral_runtime::StateBased`] (the lattice
//! full-state merge propagation runs on, Appendix D.2) and
//! [`ral_runtime::DeltaCrdt`] (its one mutator, which returns the delta
//! both transports join into the origin's state in place), plus the
//! [`local::LocalEffector`] decomposition the Prop1–Prop6 obligations reason
//! about.
//!
//! The two set-union lattices (the LWW-Element-Set's pair sets and the
//! 2P-Set's element sets) store each set as a [`SortedSet`]: one ascending
//! `Vec`. Their join walks both operands — or binary-searches the larger
//! one for each element of a small one — and clones only what the incoming
//! side adds, so joining a state already held costs comparisons and no
//! allocation, and copying a shared state copies one block per set. An
//! insert, fresh or joined, also moves the elements above it.

pub mod local;
pub mod lww_element_set;
pub mod mv_register;
pub mod pn_counter;
mod sorted_set;
pub mod two_phase_set;

pub use sorted_set::SortedSet;
