//! The `split_brain_heal` scenario end to end, through the discrete-event
//! simulator: two scheduled partitions cut a six-replica OR-Set cluster
//! apart while both sides keep writing; retransmission carries everything
//! across once the links heal; and the recorded history — partitions,
//! latency, retries and all — is certified RA-linearizable.
//!
//! Where `examples/network_partition.rs` stages one partition by hand,
//! this demo lets the simulator's virtual clock, per-link latency, and
//! fault schedule produce the run.
//!
//! Run with `cargo run --example partition_demo`.

use ral_core::ralin::ra_check;
use ral_core::rng::Rng;
use ral_crdts::op::or_set::{OrSet, OrSetRewrite};
use ral_sim::driver::{Driver, OpDriver};
use ral_sim::trace::TraceEvent;
use ral_sim::{scenario, sim};
use ral_spec::set::OrSetSpec;
use ral_verify::workloads;

fn main() {
    let sc = scenario::split_brain_heal();
    println!("scenario {}: {}", sc.name, sc.about);

    // Hold the final synchronization back so we can look at the cluster
    // the instant the active phase ends.
    let mut cfg = sc.cfg.clone();
    cfg.final_sync = false;

    let mut driver = OpDriver::new(OrSet::<u8>::new(), cfg.n_replicas, |rng: &mut Rng, _, _| {
        Some(workloads::or_set(rng))
    });
    let (run, trace) = sim::replay(&mut driver, &cfg, 2024);

    println!(
        "active phase: {} events to {}; {} invocations, {} point-to-point sends",
        run.stats.events, run.end, run.stats.invokes, run.stats.sends
    );
    println!(
        "the partitions forced {} retransmissions and {} causal holdbacks",
        run.stats.retried, run.stats.held
    );
    for (t, e) in trace.iter() {
        if matches!(
            e,
            TraceEvent::PartitionStart { .. } | TraceEvent::PartitionEnd { .. }
        ) {
            println!("  {t} {e:?}");
        }
    }
    assert!(run.stats.retried > 0, "the splits must actually cut links");
    println!(
        "replicas agree before the final sync: {}",
        driver.converged()
    );

    // Heal everything and let the transport finish its deliveries.
    driver.final_sync();
    assert!(driver.converged(), "healing reconciles every replica");
    println!("replicas agree after it:          {}", driver.converged());

    // The partitions left no scar on correctness (Section 1's promise).
    let history = driver.into_cluster().into_history();
    ra_check(
        &history,
        &OrSetRewrite::new(),
        &OrSetSpec::new(),
        OrSet::<u8>::STRATEGY,
    )
    .expect("the partitioned session is RA-linearizable");
    println!(
        "history of {} operations certified RA-linearizable",
        history.len()
    );
}
