//! Section 7: RA-linearizable systems subsume the session guarantees of
//! Terry et al. (1994).
//!
//! Every history recorded by the runtime — op-based with causal delivery
//! *or* state-based over the unreliable merge network — satisfies Read Your
//! Writes, Monotonic Reads, Monotonic Writes, and Writes Follow Reads.
//! Interval orders (footnote 12) separate standard linearizability's
//! returns-before relation from visibility.

use ral_core::history::{History, OpRecord};
use ral_core::ids::ReplicaId;
use ral_core::sessions::check_sessions;
use ral_crdts::op::or_set::{OrSet, OrSetCall};
use ral_crdts::state::lww_element_set::{LwwElementSet, LwwSetCall};
use ral_runtime::delta::{DeltaCluster, DeltaConfig};
use ral_runtime::op_based::Cluster;
use ral_runtime::schedule::{drive_op_based, drive_state_based, ScheduleConfig};

#[test]
fn op_based_histories_satisfy_session_guarantees() {
    for seed in 0..20 {
        let mut c = Cluster::new(OrSet::<u8>::new(), 3);
        drive_op_based(&mut c, &ScheduleConfig::default(), seed, |rng, _, _| {
            Some(match rng.random_range(0..4u8) {
                0 | 1 => OrSetCall::Add(rng.random_range(0..3)),
                2 => OrSetCall::Remove(rng.random_range(0..3)),
                _ => OrSetCall::Read,
            })
        });
        let h = c.into_history().map(|l| OrSet::plain_label(&l));
        let report = check_sessions(&h);
        assert!(report.all_hold(), "seed {seed}: {report}");
    }
}

#[test]
fn state_based_histories_satisfy_session_guarantees() {
    // Even without causal delivery: merges only ever grow the observed set,
    // and observed sets travel with the states.
    for seed in 0..20 {
        let mut c = DeltaCluster::new(LwwElementSet::<u8>::new(), DeltaConfig::default(), 3);
        drive_state_based(&mut c, &ScheduleConfig::default(), seed, |rng, _, _| {
            Some(match rng.random_range(0..4u8) {
                0 | 1 => LwwSetCall::Add(rng.random_range(0..4)),
                2 => LwwSetCall::Remove(rng.random_range(0..4)),
                _ => LwwSetCall::Read,
            })
        });
        let h = c.into_history();
        let report = check_sessions(&h);
        assert!(report.all_hold(), "seed {seed}: {report}");
    }
}

#[test]
fn visibility_is_generally_not_an_interval_order() {
    use ral_spec::set::SetOp;
    use std::collections::BTreeSet;

    // Two disjoint causal chains: (a → b) and (c → d) with no cross edges.
    // An interval order would require a ≺ d or c ≺ b.
    let mut h: History<SetOp<char>> = History::new();
    let a = h.push(OpRecord::new(SetOp::Add('a'), ReplicaId(0)), []);
    h.push(
        OpRecord::new(SetOp::Read(BTreeSet::from(['a'])), ReplicaId(0)),
        [a],
    );
    let c = h.push(OpRecord::new(SetOp::Add('c'), ReplicaId(1)), []);
    h.push(
        OpRecord::new(SetOp::Read(BTreeSet::from(['c'])), ReplicaId(1)),
        [c],
    );
    assert!(!h.is_interval_order());
    assert!(h.is_transitive());

    // A totally-ordered history trivially is an interval order.
    let mut seq: History<SetOp<char>> = History::new();
    let x = seq.push(OpRecord::new(SetOp::Add('x'), ReplicaId(0)), []);
    let y = seq.push(OpRecord::new(SetOp::Add('y'), ReplicaId(0)), [x]);
    seq.push(
        OpRecord::new(SetOp::Read(BTreeSet::from(['x', 'y'])), ReplicaId(0)),
        [x, y],
    );
    assert!(seq.is_interval_order());
}
