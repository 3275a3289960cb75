//! The drop rule of the lattice delivery core, on random schedules.
//!
//! `DeltaCluster::apply` drops the payload of a *covered* message whose
//! labels the receiver has all seen, instead of joining it
//! (docs/RUNTIME.md, "Lattice transports"). That is sound while two
//! invariants hold: every replica state lies above the join of the deltas of
//! its seen operations, and a covered payload lies below the join of the
//! deltas of its labels. Neither is visible from outside, so this suite
//! checks their consequences at every arrival of random delta and
//! full-state schedules over the four `ral_crdts::state` lattices, with
//! loss, duplicates, reordering, sequence gaps, crash/restart, checkpoints,
//! releases and `ingest_local`:
//!
//! * a receive is the join: the replica ends at `join(pre, payload)`
//!   (`merge` for a resync, `join` for a batch) and reports a change iff
//!   that differs from `pre`;
//! * at every arrival the rule drops (a payload, `is_covered()`, labels
//!   inside the receiver's seen-set), joining the payload into a copy of
//!   the receiver's state changes nothing;
//! * every resync's coverage flag is the one a model of the three clauses
//!   predicts (a state loses coverage on `ingest_local` and on an arrival
//!   that changed it without bringing all of its labels, or without being
//!   covered; a crash restores the checkpoint's), read from outside: an
//!   arrival "brought its labels" iff they are in the seen-set afterwards,
//!   which a gapped batch's are not;
//! * a closing resync round, applied arrival by arrival under the same
//!   checks, converges.
//!
//! Each lattice's cases must reach both sides of the coverage flag: dropped
//! payloads, uncovered payloads whose labels the receiver has all seen
//! (which the rule must join), and gapped batches that changed a state.
//! Half the sends reach every running peer at once, and half the crashes
//! are bounces after a round in which everyone gossips to everyone, so
//! acks flow and a bounced replica's next batch starts past its recovered
//! prefix.
//!
//! Runs on the workspace's seeded harness
//! ([`ral_core::rng::run_seeded_cases`]); a failing case prints its seed.

use ral_core::ids::ReplicaId;
use ral_core::rng::{run_seeded_cases, Rng};
use ral_crdts::state::lww_element_set::LwwElementSet;
use ral_crdts::state::mv_register::MvRegister;
use ral_crdts::state::pn_counter::PnCounter;
use ral_crdts::state::two_phase_set::TwoPhaseSet;
use ral_runtime::delta::{DeltaCluster, DeltaConfig, DeltaCrdt};
use ral_verify::workloads;

const CASES: u64 = 48;
const REPLICAS: usize = 3;

/// How often the cases reached each side of the coverage flag.
#[derive(Default)]
struct Tally {
    /// Arrivals whose payload the rule dropped.
    dropped: usize,
    /// Arrivals with an uncovered payload whose labels the receiver had all
    /// seen: joined only because of the flag.
    uncovered_seen: usize,
    /// Gapped batches that changed the receiver: joined without their
    /// labels.
    gapped: usize,
}

/// The coverage model: each replica's flag and its checkpoint's.
struct Coverage {
    live: [bool; REPLICAS],
    durable: [bool; REPLICAS],
}

impl Coverage {
    fn checkpoint(&mut self, r: ReplicaId) {
        self.durable[r.0 as usize] = self.live[r.0 as usize];
    }

    /// A resync from `r` is covered iff `r`'s state is.
    fn check_resync<C: DeltaCrdt>(&self, c: &DeltaCluster<C>, m: usize) {
        let r = c.message_origin(m);
        if c.message(m).is_resync() {
            let expected = self.live[r.0 as usize];
            assert_eq!(
                c.message(m).is_covered(),
                expected,
                "coverage of {r}'s resync {m}"
            );
        }
    }
}

/// Sends from `r`: a resync in a full-state run, a gossip in a delta run;
/// returns the message id.
fn send<C: DeltaCrdt>(
    c: &mut DeltaCluster<C>,
    cover: &Coverage,
    r: ReplicaId,
    full_state: bool,
) -> usize {
    let m = if full_state { c.resync(r) } else { c.gossip(r) };
    cover.check_resync(c, m);
    m
}

/// Delivers message `m` to every running replica but its origin.
fn broadcast<C: DeltaCrdt>(
    c: &mut DeltaCluster<C>,
    cover: &mut Coverage,
    m: usize,
    tally: &mut Tally,
) {
    for q in (0..REPLICAS as u32).map(ReplicaId) {
        if q != c.message_origin(m) && c.is_up(q) {
            arrival(c, cover, q, m, tally);
        }
    }
}

/// Applies message `m` at `r`, holding the receive to the join, every
/// dropped payload to adding nothing, and `r`'s coverage to the model.
fn arrival<C: DeltaCrdt>(
    c: &mut DeltaCluster<C>,
    cover: &mut Coverage,
    r: ReplicaId,
    m: usize,
    tally: &mut Tally,
) {
    let pre = c.state(r).clone();
    let expected = {
        let (crdt, msg) = (c.crdt(), c.message(m));
        let joined = match (msg.state(), msg.delta()) {
            (Some(state), _) => crdt.merge(&pre, state),
            (None, Some(delta)) => crdt.join(&pre, delta),
            (None, None) => return assert!(!c.apply(r, m), "a heartbeat changed {r}"),
        };
        let own = c.message_origin(m) == r;
        let seen = msg.seen().is_subset(c.seen(r));
        if !own && seen && msg.is_covered() {
            assert_eq!(joined, pre, "message {m} dropped at {r} adds something");
            tally.dropped += 1;
        }
        if !own && seen && !msg.is_covered() {
            tally.uncovered_seen += 1;
        }
        if own {
            pre.clone()
        } else {
            joined
        }
    };
    let changed = c.apply(r, m);
    assert_eq!(c.state(r), &expected, "applying {m} at {r} is not the join");
    assert_eq!(changed, expected != pre, "changed-flag of {m} at {r}");
    let msg = c.message(m);
    let brought_labels = msg.seen().is_subset(c.seen(r));
    if changed && msg.delta().is_some() && !brought_labels {
        tally.gapped += 1;
    }
    if changed && !(msg.is_covered() && brought_labels) {
        cover.live[r.0 as usize] = false;
    }
}

/// One random schedule: every send a `gossip` (delta run) or a `resync`
/// (full-state run), every arrival checked by [`arrival`]; then a resync
/// round applied the same way, which must converge.
fn schedule<C: DeltaCrdt + Clone>(
    crdt: &C,
    rng: &mut Rng,
    calls: &mut impl FnMut(&mut Rng, &C::State) -> Option<C::Call>,
    tally: &mut Tally,
) {
    let full_state = rng.random_bool(0.5);
    let ingests = rng.random_bool(0.5);
    let config = DeltaConfig {
        resync_after: rng.random_range(2..16usize),
    };
    let mut c = DeltaCluster::new(crdt.clone(), config, REPLICAS);
    let mut cover = Coverage {
        live: [true; REPLICAS],
        durable: [true; REPLICAS],
    };
    let bottom = crdt.initial(REPLICAS);
    let replica = |rng: &mut Rng| ReplicaId(rng.random_range(0..REPLICAS as u32));
    for _ in 0..rng.random_range(30..120usize) {
        let r = replica(rng);
        if !c.is_up(r) {
            c.restart(r);
            continue;
        }
        match rng.random_range(0..16u8) {
            0..=4 => {
                let call = calls(rng, c.state(r));
                if call.and_then(|call| c.invoke(r, call)).is_some() {
                    cover.checkpoint(r);
                }
            }
            5 | 6 => {
                let m = send(&mut c, &cover, r, full_state);
                if rng.random_bool(0.5) {
                    broadcast(&mut c, &mut cover, m, tally);
                }
            }
            7..=11 if c.n_messages() > 0 => {
                let m = rng.random_range(0..c.n_messages());
                arrival(&mut c, &mut cover, r, m, tally);
            }
            12 => {
                c.persist(r);
                cover.checkpoint(r);
            }
            13 => {
                let bounce = rng.random_bool(0.5);
                if bounce {
                    // Everyone gossips to everyone first, so `r` acks what
                    // it will lose: the next batch its peers send it after
                    // the bounce starts past its recovered prefix.
                    for q in (0..REPLICAS as u32).map(ReplicaId) {
                        if c.is_up(q) {
                            let m = send(&mut c, &cover, q, full_state);
                            broadcast(&mut c, &mut cover, m, tally);
                        }
                    }
                }
                c.crash(r);
                cover.live[r.0 as usize] = cover.durable[r.0 as usize];
                if bounce {
                    c.restart(r);
                }
            }
            14 if ingests => {
                // Another replica's whole state, as a delta without labels.
                let delta = crdt.diff(&bottom, c.state(replica(rng)));
                c.ingest_local(r, delta);
                cover.live[r.0 as usize] = false;
                cover.checkpoint(r);
            }
            15 if c.n_messages() > 0 => c.release(rng.random_range(0..c.n_messages())),
            _ => {}
        }
    }
    c.restart_all();
    let start = c.n_messages();
    for r in (0..REPLICAS as u32).map(ReplicaId) {
        let m = c.resync(r);
        cover.check_resync(&c, m);
    }
    for r in (0..REPLICAS as u32).map(ReplicaId) {
        for m in start..c.n_messages() {
            arrival(&mut c, &mut cover, r, m, tally);
        }
    }
    assert!(c.converged(), "the closing resync round did not converge");
}

fn cases<C: DeltaCrdt + Clone, G>(label: &str, crdt: C, mk_calls: impl Fn() -> G)
where
    G: FnMut(&mut Rng, &C::State) -> Option<C::Call>,
{
    let (mut tally, mut ran) = (Tally::default(), 0);
    run_seeded_cases(label, CASES, |_, rng| {
        schedule(&crdt, rng, &mut mk_calls(), &mut tally);
        ran += 1;
    });
    // A replay of one seed (or of fewer cases) need not reach both sides.
    if ran == CASES {
        assert!(tally.dropped > 0, "{label}: no payload was dropped");
        assert!(
            tally.uncovered_seen > 0,
            "{label}: no uncovered payload with seen labels arrived"
        );
        assert!(tally.gapped > 0, "{label}: no gapped batch changed a state");
    }
}

#[test]
fn pn_counter_drops_only_what_the_join_ignores() {
    cases("drop_rule_pn_counter", PnCounter, || {
        |rng: &mut Rng, _: &_| Some(workloads::pn_counter(rng))
    });
}

#[test]
fn mv_register_drops_only_what_the_join_ignores() {
    cases("drop_rule_mv_register", MvRegister::<u8>::new(), || {
        |rng: &mut Rng, _: &_| Some(workloads::mv_register(rng))
    });
}

#[test]
fn lww_element_set_drops_only_what_the_join_ignores() {
    cases(
        "drop_rule_lww_element_set",
        LwwElementSet::<u8>::new(),
        || |rng: &mut Rng, _: &_| Some(workloads::lww_element_set(rng)),
    );
}

#[test]
fn two_phase_set_drops_only_what_the_join_ignores() {
    cases("drop_rule_two_phase_set", TwoPhaseSet::<u16>::new(), || {
        let mut next = 0u16;
        move |rng: &mut Rng, st: &_| workloads::two_phase_set(rng, st, &mut next)
    });
}
