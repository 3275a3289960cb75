//! The state-based PN-Counter (Listing 9, Appendix E.3).
//!
//! The payload is a pair of vectors `P`, `N` (one slot per replica);
//! `inc`/`dec` bump the origin's slot, the value is `ΣP − ΣN`, and `merge`
//! is the pointwise maximum. Local effectors are **cumulative**
//! (Appendix D.4) and the counter admits **execution-order** linearizations
//! (Figure 12).

use crate::state::local::{EffectorClass, LocalEffector};
use ral_core::ids::ReplicaId;
use ral_core::ralin::Strategy;
use ral_core::scope::SmallScope;
use ral_runtime::delta::DeltaCrdt;
use ral_runtime::gen::{GenCtx, GenOutcome};
use ral_runtime::state_based::StateBased;
use ral_spec::counter::CounterOp;

/// Method invocations of the PN-Counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PnCall {
    /// `inc()`.
    Inc,
    /// `dec()`.
    Dec,
    /// `read()`.
    Read,
}

/// Replica payload: the increment and decrement vectors.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PnState {
    /// Per-replica increment counts.
    pub p: Vec<u64>,
    /// Per-replica decrement counts.
    pub n: Vec<u64>,
}

impl PnState {
    /// The counter value `ΣP − ΣN`.
    pub fn value(&self) -> i64 {
        self.p.iter().sum::<u64>() as i64 - self.n.iter().sum::<u64>() as i64
    }
}

/// Local-effector argument: which vector to bump, at which replica slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PnArg {
    /// `inc` at this replica.
    Inc(ReplicaId),
    /// `dec` at this replica.
    Dec(ReplicaId),
}

/// The state-based PN-Counter CRDT.
///
/// # Examples
///
/// ```
/// use ral_core::ids::ReplicaId;
/// use ral_crdts::state::pn_counter::{PnCall, PnCounter};
/// use ral_runtime::delta::{DeltaCluster, DeltaConfig};
///
/// let mut cluster = DeltaCluster::new(PnCounter, DeltaConfig::default(), 2);
/// cluster.invoke(ReplicaId(0), PnCall::Inc);
/// cluster.invoke(ReplicaId(1), PnCall::Dec);
/// cluster.resync_round();
/// let read = cluster.invoke(ReplicaId(0), PnCall::Read).unwrap();
/// assert_eq!(read.ret, Some(0));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PnCounter;

impl PnCounter {
    /// The linearization class of Figure 12.
    pub const STRATEGY: Strategy = Strategy::ExecutionOrder;

    /// The refinement mapping `abs` onto `Spec(Counter)` states.
    pub fn abs(state: &PnState) -> i64 {
        state.value()
    }
}

impl StateBased for PnCounter {
    type State = PnState;
    type Call = PnCall;
    type Ret = Option<i64>;
    type Label = CounterOp;

    fn initial(&self, n_replicas: usize) -> PnState {
        PnState {
            p: vec![0; n_replicas],
            n: vec![0; n_replicas],
        }
    }

    fn merge_into(&self, a: &mut PnState, b: &PnState) -> bool {
        let p = max_into(&mut a.p, &b.p);
        let n = max_into(&mut a.n, &b.n);
        p || n
    }

    fn leq(&self, a: &PnState, b: &PnState) -> bool {
        a.p.iter().zip(&b.p).all(|(x, y)| x <= y) && a.n.iter().zip(&b.n).all(|(x, y)| x <= y)
    }

    fn label(&self, call: &PnCall, ret: &Option<i64>) -> CounterOp {
        match call {
            PnCall::Inc => CounterOp::Inc,
            PnCall::Dec => CounterOp::Dec,
            PnCall::Read => CounterOp::Read(ret.expect("read returns a value")),
        }
    }
}

/// The PN-Counter's join decomposition: only the vector slots a mutation
/// (or batch of mutations) touched, as `(slot, value)` pairs. Joining
/// takes the pointwise maximum into the dense payload — each slot is
/// written only by its owning replica, so the shipped value is
/// authoritative and duplicates are absorbed by `max`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PnDelta {
    /// Touched increment slots: `(replica index, new slot value)`.
    pub p: Vec<(u32, u64)>,
    /// Touched decrement slots: `(replica index, new slot value)`.
    pub n: Vec<(u32, u64)>,
}

// Raises each slot of `a` to the same slot of `b`; returns whether any
// slot rose.
fn max_into(a: &mut [u64], b: &[u64]) -> bool {
    let mut rose = false;
    for (x, y) in a.iter_mut().zip(b) {
        if *y > *x {
            *x = *y;
            rose = true;
        }
    }
    rose
}

// Merges the `(slot, value)` map `b` into `a` by pointwise maximum, keeping
// slots sorted.
fn join_slots_into(a: &mut Vec<(u32, u64)>, b: &[(u32, u64)]) {
    for &(slot, v) in b {
        match a.binary_search_by_key(&slot, |e| e.0) {
            Ok(i) => a[i].1 = a[i].1.max(v),
            Err(i) => a.insert(i, (slot, v)),
        }
    }
}

// Raises the dense slots of `dense` to the sparse entries of `slots`;
// returns whether any slot rose.
fn raise_slots(dense: &mut [u64], slots: &[(u32, u64)]) -> bool {
    let mut rose = false;
    for &(slot, v) in slots {
        let s = &mut dense[slot as usize];
        if v > *s {
            *s = v;
            rose = true;
        }
    }
    rose
}

// The sparse entries of `post` that exceed `pre` (pointwise).
fn diff_slots(pre: &[u64], post: &[u64]) -> Vec<(u32, u64)> {
    post.iter()
        .enumerate()
        .filter(|&(i, &v)| v > pre.get(i).copied().unwrap_or(0))
        .map(|(i, &v)| (i as u32, v))
        .collect()
}

impl DeltaCrdt for PnCounter {
    type Delta = PnDelta;

    /// `inc` / `dec` ship the origin's one bumped slot.
    fn invoke(
        &self,
        state: &PnState,
        call: &PnCall,
        ctx: &mut GenCtx,
    ) -> GenOutcome<Option<i64>, PnDelta> {
        let g = ctx.replica().0;
        let bump = |slots: &[u64]| vec![(g, slots[g as usize] + 1)];
        match call {
            PnCall::Inc => GenOutcome::update(
                None,
                PnDelta {
                    p: bump(&state.p),
                    n: Vec::new(),
                },
            ),
            PnCall::Dec => GenOutcome::update(
                None,
                PnDelta {
                    p: Vec::new(),
                    n: bump(&state.n),
                },
            ),
            PnCall::Read => GenOutcome::query(Some(state.value())),
        }
    }

    fn diff(&self, pre: &PnState, post: &PnState) -> PnDelta {
        PnDelta {
            p: diff_slots(&pre.p, &post.p),
            n: diff_slots(&pre.n, &post.n),
        }
    }

    fn join_into(&self, state: &mut PnState, delta: &PnDelta) -> bool {
        let p = raise_slots(&mut state.p, &delta.p);
        let n = raise_slots(&mut state.n, &delta.n);
        p || n
    }

    fn join_deltas_into(&self, a: &mut PnDelta, b: &PnDelta) {
        join_slots_into(&mut a.p, &b.p);
        join_slots_into(&mut a.n, &b.n);
    }

    fn delta_bytes(&self, delta: &PnDelta) -> usize {
        // Sparse wire encoding: 4-byte slot + 8-byte value per entry.
        12 * (delta.p.len() + delta.n.len())
    }

    fn state_bytes(&self, state: &PnState) -> usize {
        // Dense wire encoding: 8 bytes per slot, both vectors.
        8 * (state.p.len() + state.n.len())
    }
}

impl LocalEffector for PnCounter {
    type Arg = PnArg;

    fn effector_arg(
        &self,
        label: &CounterOp,
        origin: ReplicaId,
        _ts: Option<ral_core::timestamp::Ts>,
    ) -> Option<PnArg> {
        match label {
            CounterOp::Inc => Some(PnArg::Inc(origin)),
            CounterOp::Dec => Some(PnArg::Dec(origin)),
            CounterOp::Read(_) => None,
        }
    }

    fn apply_arg(&self, state: &mut PnState, arg: &PnArg) {
        match arg {
            PnArg::Inc(r) => state.p[r.0 as usize] += 1,
            PnArg::Dec(r) => state.n[r.0 as usize] += 1,
        }
    }

    fn class(&self) -> EffectorClass {
        EffectorClass::Cumulative
    }

    fn p_pred(&self, state: &PnState, arg: &PnArg) -> bool {
        // P2: no effector with this argument has contributed yet.
        match arg {
            PnArg::Inc(r) => state.p[r.0 as usize] == 0,
            PnArg::Dec(r) => state.n[r.0 as usize] == 0,
        }
    }
}

impl SmallScope for PnCounter {
    type Call = PnCall;

    fn scope_replicas(&self, _k: usize) -> usize {
        3
    }

    fn scope_calls(&self, _op_index: usize, _k: usize) -> Vec<PnCall> {
        vec![PnCall::Inc, PnCall::Dec]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ral_core::label::Identity;
    use ral_core::ralin::ra_check;
    use ral_runtime::delta::{DeltaCluster, DeltaConfig};
    use ral_runtime::schedule::{drive_state_based, ScheduleConfig};
    use ral_spec::counter::CounterSpec;

    fn r(i: u32) -> ReplicaId {
        ReplicaId(i)
    }

    #[test]
    fn merge_takes_pointwise_max() {
        let c = PnCounter;
        let a = PnState {
            p: vec![3, 0],
            n: vec![1, 0],
        };
        let b = PnState {
            p: vec![1, 2],
            n: vec![0, 1],
        };
        let m = c.merge(&a, &b);
        assert_eq!(
            m,
            PnState {
                p: vec![3, 2],
                n: vec![1, 1]
            }
        );
        assert!(c.leq(&a, &m));
        assert!(c.leq(&b, &m));
        assert!(!c.leq(&m, &a));
        assert_eq!(m.value(), 3);
    }

    #[test]
    fn duplicated_messages_do_not_double_count() {
        let mut c = DeltaCluster::new(PnCounter, DeltaConfig::default(), 2);
        c.invoke(r(0), PnCall::Inc);
        let m = c.resync(r(0));
        c.apply(r(1), m);
        c.apply(r(1), m);
        c.apply(r(1), m);
        let read = c.invoke(r(1), PnCall::Read).unwrap();
        assert_eq!(read.ret, Some(1));
    }

    #[test]
    fn random_histories_are_ra_linearizable_eo() {
        for seed in 0..20 {
            let mut c = DeltaCluster::new(PnCounter, DeltaConfig::default(), 3);
            drive_state_based(&mut c, &ScheduleConfig::default(), seed, |rng, _, _| {
                Some(match rng.random_range(0..3u8) {
                    0 => PnCall::Inc,
                    1 => PnCall::Dec,
                    _ => PnCall::Read,
                })
            });
            assert!(c.converged());
            assert!(c.check_lattice_laws());
            let h = c.into_history();
            ra_check(&h, &Identity, &CounterSpec, PnCounter::STRATEGY)
                .unwrap_or_else(|v| panic!("seed {seed}: {v}"));
        }
    }

    #[test]
    fn delta_laws_hold() {
        let c = PnCounter;
        let pre = PnState {
            p: vec![3, 0],
            n: vec![1, 2],
        };
        // The mutator ships the origin's bumped slot, and the transition it
        // makes decomposes back into exactly that delta.
        let mut ctx = GenCtx::new(r(0), 0, 0);
        let GenOutcome::Done {
            eff: Some(delta), ..
        } = c.invoke(&pre, &PnCall::Inc, &mut ctx)
        else {
            panic!("inc is a mutation")
        };
        assert_eq!(
            delta,
            PnDelta {
                p: vec![(0, 4)],
                n: vec![]
            }
        );
        let next = c.join(&pre, &delta);
        assert_eq!(c.diff(&pre, &next), delta);
        // Batching: joining a batch equals joining sequentially.
        let d2 = c.diff(&next, &{
            let mut s = next.clone();
            s.n[0] += 1;
            s
        });
        let other = PnState {
            p: vec![1, 7],
            n: vec![0, 0],
        };
        assert_eq!(
            c.join(&c.join(&other, &delta), &d2),
            c.join(&other, &c.join_deltas(&delta, &d2))
        );
        // Joins are idempotent.
        let joined = c.join(&other, &delta);
        assert_eq!(c.join(&joined, &delta), joined);
        // A single-mutation delta is cheaper on the wire than the state.
        assert!(c.delta_bytes(&delta) < c.state_bytes(&pre));
        // Queries produce no delta.
        assert_eq!(
            c.invoke(&pre, &PnCall::Read, &mut ctx),
            GenOutcome::query(Some(0))
        );
    }

    #[test]
    fn local_effector_reconstructs_state() {
        let c = PnCounter;
        let mut s = c.initial(2);
        c.apply_arg(&mut s, &PnArg::Inc(r(0)));
        c.apply_arg(&mut s, &PnArg::Inc(r(1)));
        c.apply_arg(&mut s, &PnArg::Dec(r(1)));
        assert_eq!(s.value(), 1);
        assert!(!c.p_pred(&s, &PnArg::Inc(r(0))));
        assert!(c.p_pred(&c.initial(2), &PnArg::Inc(r(0))));
    }
}
