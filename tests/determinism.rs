//! Determinism regression tests guarding the PRNG swap: driving any
//! scheduler twice with the same seed must produce **byte-identical**
//! histories (compared both structurally and on their full `Debug`
//! rendering). If `ral_core::rng` ever changes its stream — or a scheduler
//! starts consuming randomness in a different order — every recorded
//! failure seed in the repo becomes meaningless, and this suite fails.
//! The composed, partitioned and state-based schedules are also pinned
//! across builds by golden hashes, which a reordering that is merely
//! self-consistent cannot pass.

use ral_core::ids::ReplicaId;
use ral_core::rng::Rng;
use ral_core::spec::Fnv64;
use ral_crdts::op::or_set::OrSet;
use ral_crdts::op::rga::Rga;
use ral_crdts::state::lww_element_set::LwwElementSet;
use ral_crdts::state::pn_counter::PnCounter;
use ral_runtime::delta::{DeltaCluster, DeltaConfig, DeltaCrdt};
use ral_runtime::multi::{MultiCluster, TsMode};
use ral_runtime::op_based::Cluster;
use ral_runtime::schedule::{
    drive_multi, drive_op_based, drive_op_based_partitioned, drive_state_based, Partition,
    ScheduleConfig,
};
// The canonical workload generators — reusing them here means this suite
// also pins *their* randomness consumption, not a drifting copy of it.
use ral_verify::workloads;
use std::hash::Hasher;

/// Runs one op-based OR-Set schedule and returns the `Debug` bytes of its
/// history.
fn op_based_bytes(seed: u64) -> Vec<u8> {
    let mut c = Cluster::new(OrSet::<u8>::new(), 3);
    drive_op_based(&mut c, &ScheduleConfig::default(), seed, |rng, _, _| {
        Some(workloads::or_set(rng))
    });
    format!("{:?}", c.into_history()).into_bytes()
}

#[test]
fn op_based_same_seed_is_byte_identical() {
    for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
        // Structural equality…
        let mut a = Cluster::new(OrSet::<u8>::new(), 3);
        let mut b = Cluster::new(OrSet::<u8>::new(), 3);
        drive_op_based(&mut a, &ScheduleConfig::default(), seed, |rng, _, _| {
            Some(workloads::or_set(rng))
        });
        drive_op_based(&mut b, &ScheduleConfig::default(), seed, |rng, _, _| {
            Some(workloads::or_set(rng))
        });
        assert_eq!(a.history(), b.history(), "seed {seed}");
        // …and byte-for-byte identity of the rendering.
        assert_eq!(op_based_bytes(seed), op_based_bytes(seed), "seed {seed}");
    }
}

#[test]
fn op_based_different_seeds_differ() {
    // With ~40 random invocations per run, two seeds colliding on the
    // exact same history would be astronomically unlikely.
    assert_ne!(op_based_bytes(1), op_based_bytes(2));
}

#[test]
fn multi_object_same_seed_is_byte_identical() {
    let run = |seed: u64| {
        let mut c = MultiCluster::new(Rga::<u16>::new(), 2, 3, TsMode::Shared);
        let mut next: u16 = 0;
        drive_multi(
            &mut c,
            &ScheduleConfig::default(),
            seed,
            |rng, _, _, state| workloads::rga(rng, state, &mut next),
        );
        format!("{:?}", c.into_history()).into_bytes()
    };
    for seed in [3u64, 7, 1 << 40] {
        assert_eq!(run(seed), run(seed), "seed {seed}");
    }
    assert_ne!(run(1), run(2));
}

#[test]
fn state_based_same_seed_is_byte_identical() {
    let run = |seed: u64| {
        let mut c = state_cluster(PnCounter);
        drive_state_based(&mut c, &ScheduleConfig::default(), seed, |rng, _, _| {
            Some(workloads::pn_counter(rng))
        });
        format!("{:?}", c.history()).into_bytes()
    };
    for seed in [0u64, 11, 99] {
        assert_eq!(run(seed), run(seed), "seed {seed}");
    }
    assert_ne!(run(5), run(6));
}

#[test]
fn partitioned_same_seed_is_byte_identical() {
    let run = |seed: u64| {
        let mut c = Cluster::new(OrSet::<u8>::new(), 4);
        let partition = Partition::new(vec![0, 0, 1, 1]);
        drive_op_based_partitioned(
            &mut c,
            &ScheduleConfig::default(),
            &partition,
            seed,
            |rng, _, _| Some(workloads::or_set(rng)),
        );
        assert!(c.converged());
        format!("{:?}", c.into_history()).into_bytes()
    };
    for seed in [0u64, 8, 1234] {
        assert_eq!(run(seed), run(seed), "seed {seed}");
    }
}

/// Observability is inert: recording events must not perturb a scheduler
/// run. Same seed, recording off vs on, byte-identical histories — the
/// load-bearing invariant that lets `RAL_OBS=1` be turned on in
/// production runs without invalidating recorded seeds.
#[test]
fn obs_recording_leaves_histories_byte_identical() {
    let off = op_based_bytes(42);
    ral_obs::reset();
    ral_obs::enable(None);
    let on = op_based_bytes(42);
    ral_obs::disable();
    ral_obs::reset();
    assert_eq!(off, on, "recording changed an op-based scheduler run");
}

#[test]
fn raw_rng_stream_is_stable_within_a_run() {
    // The schedulers above go through closures; this pins the raw stream
    // the same way so a regression is attributable to the generator
    // itself rather than scheduler consumption order.
    let draws = |seed: u64| -> Vec<u64> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..64).map(|_| rng.next_u64()).collect()
    };
    for seed in [0u64, 1, u64::MAX] {
        assert_eq!(draws(seed), draws(seed));
    }
}

/// FNV-1a of `bytes`: enough to pin a history rendering without embedding
/// it.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// `drive_multi` histories pinned across builds, under both timestamp
/// disciplines. The same-seed reruns above compare a run only with
/// itself, so a schedule loop that drew the RNG in a different order
/// would still pass them; these hashes would not.
#[test]
fn multi_object_runs_match_their_golden_hashes() {
    let run = |mode: TsMode, seed: u64| {
        let mut c = MultiCluster::new(Rga::<u16>::new(), 2, 3, mode);
        let mut next: u16 = 0;
        drive_multi(
            &mut c,
            &ScheduleConfig::default(),
            seed,
            |rng, _, _, state| workloads::rga(rng, state, &mut next),
        );
        assert!(c.converged());
        fnv(format!("{:?}", c.into_history()).as_bytes())
    };
    let golden = [
        (TsMode::Shared, 3, 0xc26a_8d03_ed48_caff),
        (TsMode::Shared, 7, 0xebd8_0882_d5fc_3550),
        (TsMode::Shared, 1 << 40, 0xcf31_d237_9c19_b9e4),
        (TsMode::PerObject, 3, 0xbc7a_dd65_c829_9a2d),
        (TsMode::PerObject, 7, 0x1b7c_8956_3540_913c),
        (TsMode::PerObject, 1 << 40, 0x6e0e_a991_9bcd_a9af),
    ];
    for (mode, seed, want) in golden {
        assert_eq!(run(mode, seed), want, "{mode:?} seed {seed}");
    }
}

/// `drive_op_based_partitioned` histories pinned across builds: the
/// filtered delivery steps draw the RNG only among admitted links.
#[test]
fn partitioned_runs_match_their_golden_hashes() {
    let run = |seed: u64| {
        let mut c = Cluster::new(OrSet::<u8>::new(), 4);
        let partition = Partition::new(vec![0, 0, 1, 1]);
        drive_op_based_partitioned(
            &mut c,
            &ScheduleConfig::default(),
            &partition,
            seed,
            |rng, _, _| Some(workloads::or_set(rng)),
        );
        fnv(format!("{:?}", c.into_history()).as_bytes())
    };
    for (seed, want) in [
        (0, 0xee13_baf8_43a8_30d6),
        (8, 0xefce_f25d_64f5_dfcc),
        (1234, 0xea58_a3c5_136c_859b),
    ] {
        assert_eq!(run(seed), want, "seed {seed}");
    }
}

/// A fresh three-replica full-state cluster for the state-based goldens.
fn state_cluster<C: DeltaCrdt>(crdt: C) -> DeltaCluster<C> {
    DeltaCluster::new(crdt, DeltaConfig::default(), 3)
}

/// `drive_state_based` runs pinned across builds: the history hash, the
/// number of messages and a hash of the final replica states. The final
/// synchronization invokes nothing, so the history alone would not tell a
/// resync round from a delta `sync_all`; the message count and the states
/// would.
#[test]
fn state_based_runs_match_their_golden_hashes() {
    fn run<C, F>(crdt: C, seed: u64, call_gen: F) -> (u64, usize, u64)
    where
        C: DeltaCrdt,
        F: FnMut(&mut Rng, ReplicaId, &C::State) -> Option<C::Call>,
    {
        let mut c = state_cluster(crdt);
        drive_state_based(&mut c, &ScheduleConfig::default(), seed, call_gen);
        assert!(c.converged(), "seed {seed}");
        let states: Vec<_> = (0..3).map(|r| c.state(ReplicaId(r))).collect();
        (
            fnv(format!("{:?}", c.history()).as_bytes()),
            c.n_messages(),
            fnv(format!("{states:?}").as_bytes()),
        )
    }
    let counter = [
        (0, (0x9523_8333_b3bc_fbae, 11, 0x93b5_cb38_6e18_0711)),
        (11, (0x315a_ff1f_7de5_8a0d, 12, 0xa680_83ef_136d_c3ae)),
        (99, (0x5079_6453_1820_96c6, 16, 0x3a51_da5b_d95d_e1a3)),
    ];
    for (seed, want) in counter {
        let got = run(PnCounter, seed, |rng, _, _| {
            Some(workloads::pn_counter(rng))
        });
        assert_eq!(got, want, "PnCounter seed {seed}");
    }
    let set = [
        (0, (0x55e0_fa81_fe6e_9047, 9, 0xd152_b46e_e969_c1d8)),
        (11, (0x7777_4c49_86c6_5144, 17, 0xc881_9549_cc7f_8e55)),
        (99, (0x506b_f320_9244_bdec, 13, 0x44dd_5801_201d_4c42)),
    ];
    for (seed, want) in set {
        let got = run(LwwElementSet::<u8>::new(), seed, |rng, _, _| {
            Some(workloads::lww_element_set(rng))
        });
        assert_eq!(got, want, "LwwElementSet seed {seed}");
    }
}
