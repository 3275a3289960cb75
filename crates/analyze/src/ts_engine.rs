//! Bounded-exhaustive timestamp-discipline checking for object
//! compositions (Section 5, Figures 10/11).
//!
//! The composition of several objects keeps either one Lamport generator
//! per object (`⊗`, [`TsMode::PerObject`]) or a single generator spanning
//! all of them (`⊗ts`, [`TsMode::Shared`]). The engine explores every
//! configuration of a two-object, two-replica [`MultiCluster`] of LWW
//! registers within `k` writes and discharges the discipline each mode
//! actually promises:
//!
//! * **`ts-shared-discipline`** — under `⊗ts`, every generated timestamp
//!   strictly exceeds the timestamp of *every* visible operation, whatever
//!   its object, and timestamps are globally unique (the premise of
//!   Theorem 5.2);
//! * **`ts-per-object-discipline`** — under `⊗`, the same holds restricted
//!   to same-object visibility, with per-object uniqueness (all Figure 7
//!   guarantees);
//! * **`cross-object-inversion`** — a *reachability* obligation: under `⊗`
//!   the search must find a configuration where an operation's timestamp
//!   does **not** exceed a visible other-object timestamp — the Figure 10
//!   anomaly that makes `⊗` weaker than `⊗ts` and breaks compositionality
//!   for timestamp-ordered types. Failing to reach it would mean the
//!   per-object mode silently degenerated into the shared one.
//!
//! The walk, the witness and its shrinking are the private `explorer`
//! module's; this one is the `Model` of a [`MultiCluster`] in either mode
//! and the reachability row.

use crate::explorer::{check_ts_discipline, explore, write_history_key, Model};
use crate::op_engine::OpEvent;
use crate::outcome::{Obligation, Sink, TypeReport, Violation};
use ral_core::ids::{ObjId, ReplicaId};
use ral_crdts::op::lww_register::{LwwRegister, RegCall};
use ral_runtime::multi::{MultiCluster, TsMode};
use std::fmt::{self, Write as _};

/// Obligation key: global freshness + uniqueness under `⊗ts`.
pub const OB_SHARED: &str = "ts-shared-discipline";
/// Obligation key: per-object freshness + uniqueness under `⊗`.
pub const OB_PER_OBJECT: &str = "ts-per-object-discipline";
/// Obligation key: the Figure 10 anomaly is reachable under `⊗`.
pub const OB_INVERSION: &str = "cross-object-inversion";

/// Number of composed objects in the explored cluster.
const N_OBJECTS: usize = 2;
/// Number of replicas in the explored cluster.
const N_REPLICAS: usize = 2;

/// A write of `value` to object `obj`, rendered `o<obj>.Write(<value>)` in
/// traces.
#[derive(Clone, Copy, PartialEq, Eq)]
struct ObjWrite {
    obj: u32,
    value: u8,
}

impl fmt::Debug for ObjWrite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}.Write({})", self.obj, self.value)
    }
}

/// Explores both composition modes at scope `k`; returns one report per
/// mode (`LwwRegister ⊗` and `LwwRegister ⊗ts`).
pub fn analyze_ts(k: usize) -> Vec<TypeReport> {
    vec![
        analyze_mode(TsMode::PerObject, k),
        analyze_mode(TsMode::Shared, k),
    ]
}

fn analyze_mode(mode: TsMode, k: usize) -> TypeReport {
    let name = match mode {
        TsMode::PerObject => "LwwRegister ⊗ (per-object ts)",
        TsMode::Shared => "LwwRegister ⊗ts (shared ts)",
    };
    let mut inversion = false;
    let mut report = explore(&TsModel::new(mode, mode), name, k, |config| {
        inversion = inversion || has_inversion(&config.cluster);
    });
    if mode == TsMode::PerObject {
        // Reachability obligation: discharged iff the anomaly was found.
        // The reachability *refutation* carries no trace — there is nothing
        // to replay when the whole bounded space lacks the configuration.
        let violation = (!inversion).then(|| Violation {
            detail: "no cross-object timestamp inversion reachable under ⊗ — \
                     the per-object mode degenerated into the shared one"
                .to_string(),
            trace: String::new(),
            ops: 0,
        });
        report.obligations.push(Obligation {
            name: OB_INVERSION.to_string(),
            checks: report.configs as u64,
            violation,
        });
    }
    report
}

/// A [`MultiCluster`] configuration, checked against the discipline of
/// `discipline` — the cluster's own mode in every shipped analysis.
#[derive(Clone)]
struct TsModel {
    cluster: MultiCluster<LwwRegister<u8>>,
    discipline: TsMode,
    /// Ids of the invocations that took effect, by delivery id (dense, one
    /// per successful invocation).
    invoked: Vec<usize>,
}

impl TsModel {
    fn new(mode: TsMode, discipline: TsMode) -> Self {
        TsModel {
            cluster: MultiCluster::new(LwwRegister::new(), N_OBJECTS, N_REPLICAS, mode),
            discipline,
            invoked: Vec::new(),
        }
    }

    fn obligation(&self) -> &'static str {
        match self.discipline {
            TsMode::PerObject => OB_PER_OBJECT,
            TsMode::Shared => OB_SHARED,
        }
    }
}

impl Model for TsModel {
    const STYLE: &'static str = "composed";
    type Event = OpEvent<ObjWrite>;

    fn obligations(&self) -> Vec<&'static str> {
        vec![self.obligation()]
    }

    fn enabled(&self, k: usize) -> Vec<Self::Event> {
        let mut events = Vec::new();
        let id = self.invoked.len();
        if id < k {
            for replica in 0..N_REPLICAS as u32 {
                for obj in 0..N_OBJECTS as u32 {
                    let value = 10 + id as u8;
                    let call = ObjWrite { obj, value };
                    events.push(OpEvent::Invoke { id, replica, call });
                }
            }
        }
        for replica in 0..N_REPLICAS as u32 {
            for of in self.cluster.deliverable(ReplicaId(replica)) {
                events.push(OpEvent::Deliver { replica, of });
            }
        }
        events
    }

    fn apply(&mut self, ev: &Self::Event, _sink: &mut Sink) -> bool {
        match *ev {
            OpEvent::Invoke { id, replica, call } => {
                let write = RegCall::Write(call.value);
                let invoked = self
                    .cluster
                    .invoke(ReplicaId(replica), ObjId(call.obj), write);
                if invoked.is_some() {
                    self.invoked.push(id);
                }
                invoked.is_some()
            }
            OpEvent::Deliver { replica, of } => {
                let r = ReplicaId(replica);
                match self.invoked.iter().position(|&id| id == of) {
                    Some(d) if self.cluster.can_deliver(r, d) => {
                        self.cluster.deliver(r, d);
                        true
                    }
                    _ => false,
                }
            }
        }
    }

    /// The discipline each mode promises, checked over the composed history.
    fn check(&self, sink: &mut Sink) {
        let h = self.cluster.history();
        let shared = self.discipline == TsMode::Shared;
        check_ts_discipline(
            h,
            self.obligation(),
            |i, j| shared || h.label(i).obj == h.label(j).obj,
            sink,
        );
    }

    fn key(&self) -> String {
        config_key(&self.cluster)
    }

    fn header(&self) -> String {
        format!(
            "composed cluster: {N_OBJECTS} objects, {N_REPLICAS} replicas, {:?}\n",
            self.cluster.mode()
        )
    }

    fn is_update(ev: &Self::Event) -> bool {
        matches!(ev, OpEvent::Invoke { .. })
    }
}

/// A canonical rendering of a composed configuration: per-replica object
/// states, delivery status bits, and the history (labels, origins,
/// timestamps, visibility).
fn config_key(cluster: &MultiCluster<LwwRegister<u8>>) -> String {
    let mut s = format!("u{};", cluster.n_deliveries());
    for r in 0..N_REPLICAS {
        for obj in 0..N_OBJECTS {
            let _ = write!(
                s,
                "R{r}o{obj}{:?};",
                cluster.state(ReplicaId(r as u32), ObjId(obj as u32))
            );
        }
    }
    for d in 0..cluster.n_deliveries() {
        let bits: Vec<bool> = (0..N_REPLICAS)
            .map(|r| cluster.is_delivered(d, ReplicaId(r as u32)))
            .collect();
        let _ = write!(s, "D{}|{bits:?};", cluster.delivery_op(d));
    }
    write_history_key(&mut s, cluster.history());
    s
}

/// Whether the composed history exhibits the Figure 10 anomaly: an
/// operation whose timestamp does not exceed a *visible* other-object
/// timestamp.
fn has_inversion(cluster: &MultiCluster<LwwRegister<u8>>) -> bool {
    let h = cluster.history();
    (0..h.len()).any(|i| {
        let Some(ts) = h.op(i).ts else { return false };
        h.preds(i)
            .iter()
            .any(|p| h.label(p).obj != h.label(i).obj && h.op(p).ts >= Some(ts))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_modes_discharge_their_discipline() {
        for report in analyze_ts(3) {
            assert!(report.discharged(), "{report}");
        }
    }

    #[test]
    fn per_object_mode_reaches_the_inversion() {
        let reports = analyze_ts(2);
        let per_obj = &reports[0];
        let row = per_obj
            .obligations
            .iter()
            .find(|o| o.name == OB_INVERSION)
            .expect("inversion obligation present");
        assert!(row.violation.is_none(), "inversion must be reachable");
    }

    #[test]
    fn shared_mode_has_no_inversion_row() {
        let reports = analyze_ts(2);
        assert!(reports[1]
            .obligations
            .iter()
            .all(|o| o.name != OB_INVERSION));
    }

    /// The composed model's refutation path: a `⊗` cluster does not keep the
    /// `⊗ts` discipline, and the shrunk witness is Figure 10 itself — a
    /// write that sees a write to the other object, yet draws a timestamp
    /// from its own object's generator that is not above it.
    #[test]
    fn per_object_cluster_is_refuted_against_the_shared_discipline() {
        let root = TsModel::new(TsMode::PerObject, TsMode::Shared);
        let explored = explore(&root, "⊗ against ⊗ts", 2, |_| {});
        let [row] = &explored.obligations[..] else {
            panic!("one discipline row expected");
        };
        assert_eq!(row.name, OB_SHARED);
        let v = row.violation.as_ref().expect("refuted");
        assert_eq!(v.ops, 2);
        assert_eq!(
            v.trace,
            include_str!("../tests/fixtures/fig10_inversion.txt")
        );
    }
}
