//! Property-based convergence (strong eventual consistency) tests: under
//! arbitrary schedules, once everything is delivered all replicas agree —
//! for every CRDT in the library.
//!
//! RA-linearizability implies convergence (Section 4.1's discussion of
//! nondeterministic specifications): two queries seeing the same updates
//! return the same value. These tests check the state-level consequence
//! directly, including for the *unreliable* state-based network (loss,
//! duplication, reordering).
//!
//! Runs on the workspace's seeded harness
//! ([`ral_core::rng::run_seeded_cases`]); a failing case prints its seed.

use ral_core::ids::ReplicaId;
use ral_core::rng::run_seeded_cases;
use ral_crdts::op::rga::{Rga, RgaCall};
use ral_crdts::op::wooki::{Wooki, WookiCall};
use ral_crdts::state::lww_element_set::{LwwElementSet, LwwSetCall};
use ral_crdts::state::mv_register::{MvCall, MvRegister};
use ral_crdts::state::pn_counter::{PnCall, PnCounter};
use ral_runtime::delta::{DeltaCluster, DeltaConfig, DeltaCrdt};
use ral_runtime::op_based::Cluster;
use ral_spec::rga::Anchor;
use ral_spec::wooki::WookiAnchor;

mod common;
use common::random_schedule;

fn replica(raw: u8) -> ReplicaId {
    ReplicaId((raw % 3) as u32)
}

/// RGA converges under arbitrary invocation/delivery interleavings.
#[test]
fn rga_converges() {
    run_seeded_cases("rga_converges", 48, |_, rng| {
        let schedule = random_schedule(rng, 25);
        let mut cluster = Cluster::new(Rga::<u16>::new(), 3);
        let mut next = 0u16;
        for &(raw, action) in &schedule {
            let r = replica(raw);
            if action < 12 {
                let visible = cluster.state(r).visible();
                let call = match action % 3 {
                    0 | 1 => {
                        let anchor = if visible.is_empty() || action % 2 == 0 {
                            Anchor::Head
                        } else {
                            Anchor::Elem(visible[action as usize % visible.len()])
                        };
                        next += 1;
                        RgaCall::AddAfter(anchor, next)
                    }
                    _ => {
                        if visible.is_empty() {
                            continue;
                        }
                        RgaCall::Remove(visible[action as usize % visible.len()])
                    }
                };
                cluster.invoke(r, call);
            } else {
                let ds = cluster.deliverable(r);
                if !ds.is_empty() {
                    cluster.deliver(r, ds[action as usize % ds.len()]);
                }
            }
        }
        cluster.deliver_all();
        assert!(cluster.converged());
        assert!(cluster.history().is_transitive());
    });
}

/// Wooki converges likewise; every element stays between its anchors.
#[test]
fn wooki_converges() {
    run_seeded_cases("wooki_converges", 48, |_, rng| {
        let schedule = random_schedule(rng, 20);
        let mut cluster = Cluster::new(Wooki::<u16>::new(), 3);
        let mut next = 0u16;
        for &(raw, action) in &schedule {
            let r = replica(raw);
            if action < 12 {
                let all = cluster.state(r).all_values();
                let i = if all.is_empty() {
                    0
                } else {
                    action as usize % (all.len() + 1)
                };
                let j = if all.is_empty() {
                    0
                } else {
                    i + (raw as usize % (all.len() + 1 - i))
                };
                let left = if i == 0 {
                    WookiAnchor::Begin
                } else {
                    WookiAnchor::Elem(all[i - 1])
                };
                let right = if j >= all.len() {
                    WookiAnchor::End
                } else {
                    WookiAnchor::Elem(all[j])
                };
                next += 1;
                cluster.invoke(r, WookiCall::AddBetween(left, next, right));
            } else {
                let ds = cluster.deliverable(r);
                if !ds.is_empty() {
                    cluster.deliver(r, ds[action as usize % ds.len()]);
                }
            }
        }
        cluster.deliver_all();
        assert!(cluster.converged());
    });
}

/// State-based CRDTs converge after one synchronization round, whatever
/// messages were lost, duplicated, or reordered before it — and the
/// lattice laws hold throughout.
#[test]
fn state_based_converge_despite_chaos() {
    fn chaos<C: DeltaCrdt + Clone>(
        crdt: C,
        schedule: &[(u8, u8)],
        mut call: impl FnMut(u8) -> C::Call,
    ) -> DeltaCluster<C> {
        let mut cluster = DeltaCluster::new(crdt, DeltaConfig::default(), 3);
        for &(raw, action) in schedule {
            let r = replica(raw);
            match action % 4 {
                0 | 1 => {
                    let c = call(action);
                    cluster.invoke(r, c);
                }
                2 => {
                    cluster.resync(r);
                }
                _ => {
                    if cluster.n_messages() > 0 {
                        let m = action as usize % cluster.n_messages();
                        cluster.apply(r, m); // duplication & reordering
                    }
                }
            }
        }
        cluster.resync_round();
        cluster
    }

    run_seeded_cases("state_based_converge_despite_chaos", 48, |_, rng| {
        let schedule = random_schedule(rng, 25);

        let pn = chaos(PnCounter, &schedule, |a| match a % 3 {
            0 => PnCall::Inc,
            1 => PnCall::Dec,
            _ => PnCall::Read,
        });
        assert!(pn.converged());
        assert!(pn.check_lattice_laws());

        let mv = chaos(MvRegister::<u8>::new(), &schedule, |a| {
            if a % 2 == 0 {
                MvCall::Write(a % 5)
            } else {
                MvCall::Read
            }
        });
        assert!(mv.converged());
        assert!(mv.check_lattice_laws());

        let lww = chaos(LwwElementSet::<u8>::new(), &schedule, |a| match a % 3 {
            0 => LwwSetCall::Add(a % 4),
            1 => LwwSetCall::Remove(a % 4),
            _ => LwwSetCall::Read,
        });
        assert!(lww.converged());
        assert!(lww.check_lattice_laws());
    });
}
