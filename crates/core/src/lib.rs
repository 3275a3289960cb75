#![warn(missing_docs)]
//! Core definitions of **Replication-Aware Linearizability** (RA-linearizability),
//! the correctness criterion for CRDTs introduced by Enea, Mutluergil, Petri and
//! Wang (PLDI 2019).
//!
//! This crate contains the paper's semantic domains and the checker:
//!
//! * [`ids`] — replicas, operation identifiers, objects, unique tags;
//! * [`timestamp`] — the totally ordered timestamp domain `T` (Lamport pairs);
//! * [`bitset`] — dense bit sets used for visibility relations;
//! * [`label`] — operation labels, the query/update classification, and
//!   query-update rewritings `γ` (Definition 3.7);
//! * [`history`] — histories `(L, vis)` with their visibility partial order
//!   (Section 3.1);
//! * [`spec`] — sequential specifications as (possibly nondeterministic)
//!   transition relations over abstract states (Section 3.2);
//! * [`rng`] — deterministic, dependency-free randomness (the workspace's
//!   `rand` replacement) plus the seeded property-test harness;
//! * [`ralin`] — the RA-linearizability checker (Definition 3.5/3.7), both
//!   brute-force over linear extensions and guided by the constructive
//!   *execution-order* / *timestamp-order* strategies (Sections 4.1, 4.2);
//! * [`linearizability`] — a standard (visibility-based) linearizability
//!   checker used to contrast with RA-linearizability (Figure 5a);
//! * [`compose`] — object composition `⊗` at the specification level
//!   (Section 5);
//! * [`sessions`] — the session guarantees of Terry et al., which
//!   RA-linearizable systems subsume (Section 7);
//! * [`mod@env`] — the workspace's single audited surface for environment
//!   variables (everything else is determinism-lint-enforced env-free);
//! * [`scope`] — the [`SmallScope`] enumeration interface behind
//!   `ral-analyze`'s bounded-exhaustive obligation checking.
//!
//! # Example
//!
//! Build a two-operation history by hand and check it against a counter
//! specification:
//!
//! ```
//! use ral_core::history::{History, OpRecord};
//! use ral_core::ids::ReplicaId;
//! use ral_core::ralin::{check_guided, Strategy};
//! use ral_core::label::{Kind, SpecLabel};
//! use ral_core::spec::{Spec, Step};
//!
//! #[derive(Clone, Debug, PartialEq)]
//! enum Ctr { Inc, Read(i64) }
//! impl SpecLabel for Ctr {
//!     fn kind(&self) -> Kind {
//!         match self { Ctr::Inc => Kind::Update, Ctr::Read(_) => Kind::Query }
//!     }
//! }
//! struct CtrSpec;
//! impl Spec for CtrSpec {
//!     type Label = Ctr;
//!     type State = i64;
//!     fn initial(&self) -> i64 { 0 }
//!     fn step(&self, s: &i64, l: &Ctr, out: &mut Vec<i64>) -> Step {
//!         match l {
//!             Ctr::Inc => Step::write(out, s + 1),
//!             Ctr::Read(k) => Step::unchanged_if(k == s),
//!         }
//!     }
//! }
//!
//! let mut h = History::new();
//! let inc = h.push(OpRecord::new(Ctr::Inc, ReplicaId(0)), []);
//! h.push(OpRecord::new(Ctr::Read(1), ReplicaId(0)), [inc]);
//! let lin = check_guided(&h, &CtrSpec, Strategy::ExecutionOrder).unwrap();
//! assert_eq!(lin.order.len(), 2);
//! ```

pub mod bitset;
pub mod compose;
pub mod dot;
pub mod elem;
pub mod env;
pub mod history;
pub mod ids;
pub mod label;
pub mod linearizability;
pub mod ralin;
pub mod rng;
pub mod scope;
pub mod sessions;
pub mod spec;
pub mod timestamp;

pub use bitset::BitSet;
pub use elem::Elem;
pub use history::{History, OpRecord};
pub use ids::{ObjId, OpId, ReplicaId, Uid};
pub use label::{Kind, Rewrite, Rewritten, SpecLabel};
pub use ralin::{Strategy, Violation};
pub use scope::SmallScope;
pub use spec::Spec;
pub use timestamp::Ts;
