#![warn(missing_docs)]
//! CRDT implementations from the RA-linearizability paper — the nine data
//! types of Figure 12 plus the `addAt` variants of Appendix C.
//!
//! Operation-based ([`op`]) and state-based ([`state`]) implementations each
//! bundle:
//!
//! * the replicated implementation ([`ral_runtime::OpBased`] /
//!   [`ral_runtime::StateBased`] with [`ral_runtime::DeltaCrdt`]);
//! * the query-update rewriting `γ` onto the label types of `ral-spec`
//!   (identity where the paper needs none);
//! * the refinement mapping `abs` used in the Refinement proofs
//!   (Section 4);
//! * the linearization class (`EO` / `TO`) claimed by Figure 12.
//!
//! A state-based type's one mutator is [`ral_runtime::DeltaCrdt::invoke`]:
//! it returns the mutation's delta, which the cluster joins into the
//! origin's state in place and which the bandwidth-proportional delta
//! transport ([`ral_runtime::DeltaCluster`]) ships instead of whole-state
//! snapshots.
//!
//! | Type | Module | Paper | Style | Lin |
//! |---|---|---|---|---|
//! | Counter | [`op::counter`] | Listing 3 | op-based | EO |
//! | LWW-Register | [`op::lww_register`] | Listing 4 | op-based | TO |
//! | OR-Set | [`op::or_set`] | Listing 2 | op-based | EO |
//! | RGA | [`op::rga`] | Listing 1 | op-based | TO |
//! | RGA-addAt | [`op::rga_addat`] | Appendix C | op-based | TO |
//! | Wooki | [`op::wooki`] | Listing 5 | op-based | EO |
//! | PN-Counter | [`state::pn_counter`] | Listing 9 | state-based | EO |
//! | MV-Register | [`state::mv_register`] | Listing 7 | state-based | EO |
//! | LWW-Element-Set | [`state::lww_element_set`] | Listing 8 | state-based | TO |
//! | 2P-Set | [`state::two_phase_set`] | Listing 10 | state-based | EO |

pub mod op;
pub mod state;

pub use op::counter::OpCounter;
pub use op::lww_register::LwwRegister;
pub use op::or_set::OrSet;
pub use op::rga::Rga;
pub use op::rga_addat::{RgaAddAt, RgaAddAtSilent};
pub use op::wooki::Wooki;
pub use state::local::{EffectorClass, LocalEffector};
pub use state::lww_element_set::LwwElementSet;
pub use state::mv_register::MvRegister;
pub use state::pn_counter::PnCounter;
pub use state::two_phase_set::TwoPhaseSet;
