#!/usr/bin/env bash
# Hermetic CI for the RA-linearizability workspace.
#
# Every step runs with networking disabled (--offline / CARGO_NET_OFFLINE):
# the workspace has zero external crate dependencies, so a clean checkout
# with an empty registry cache must pass all of this.
#
# Usage: ./ci.sh            # full gate
#        ./ci.sh quick      # skip the release build (local iteration)

set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true
export CARGO_TERM_COLOR="${CARGO_TERM_COLOR:-always}"

step() {
    echo
    echo "==> $*"
    "$@"
}

step cargo fmt --all -- --check
step cargo clippy --offline --workspace --all-targets -- -D warnings
# Docs are a checked contract: missing docs (under the crates'
# `#![warn(missing_docs)]`) and broken intra-doc links fail the gate.
step env RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps
if [[ "${1:-}" != "quick" ]]; then
    step cargo build --offline --release
fi
step cargo build --offline --examples
step cargo test -q --offline
# Explicit sim-suite step: names the scenario suites in CI output so a
# regression there is immediately attributable (the plain run above already
# executes them) — determinism, fault tolerance, "release changes memory,
# never behaviour", and five cost contracts in deterministic counts: the
# simulator's (on a 50-replica fan-out the engine allocates at most 0.01
# times per delivered arrival and `sim::run` allocates no trace storage, and
# an operation's seen-set copy costs at most 16 bytes), the history's
# (`history_mem`: a seen-set copy costs its tail words, not its index, and
# the 100k-op monitored churn holds at most 16 MiB live at its end), the lattice
# core's (a receive costs what the message changes; a covered arrival whose
# labels the receiver has seen is dropped and costs no clone, allocation,
# floor scan or state copy; snapshots, resyncs and checkpoints cost nothing,
# and a warm checkpoint allocates nothing; a write-after-share copies a
# pair set as one block, and a join that adds nothing allocates nothing), the
# op-based holdback's (on `batch_composed`'s cases a receive probes at most
# twice per held record it releases, a replica missing no same-object
# operation scans at most one candidate per receive, 10⁴ reverse-order
# arrivals release in linear probes, an admit that wakes nothing allocates
# nothing, and filing then waking 10⁴ arrivals allocates at most 64 blocks;
# the engine asks a message's origin once, when it routes it, never per
# arrival) and the list specifications' (a
# document edit copies the document once and, stepped into a warm buffer,
# allocates only the new document; reads, rejected labels and fingerprints
# copy nothing, and a read allocates nothing). `spec_queries` holds every
# shipped specification to the query contract the checkers rely on: a
# query answers `Unchanged` or `Refused` and writes nothing.
# `holdback_parity` holds the filed holdback to a copy of the rescanning
# one it replaced, step by step. `determinism` pins the seeded schedules'
# histories, the composed (`drive_multi`, both timestamp disciplines) and
# partitioned ones by golden hashes across builds: the one op-based
# schedule loop must draw the RNG in the order it always has. Its
# `state_based_runs_match_their_golden_hashes` pins `drive_state_based`
# (history hash, message count, final states), so a final sync that
# gossips deltas instead of one resync round shows. The next three suites
# are what checks that a full-state run is a `DeltaCluster` that only
# resyncs: delta ≡ full state over the scenario corpus, every in-place
# join and its changed-flag against a by-value reference (and the sorted
# set the two set lattices store against a `BTreeSet` model), and
# `state_transport_parity`: the verbatim full-state cluster from before
# the delta core, run in lockstep against `DeltaCluster` resyncs.
# `lattice_drop_rule` holds every arrival of random delta and full-state
# schedules to the join, every dropped payload to adding nothing, and
# every resync's coverage flag to a model of it.
# `sim_release` also holds a `StateDriver` to never gossiping.
# `prop_crdt_convergence` runs every state CRDT through both transports end
# to end. `fuzz_roundtrip` replays every fixture through `sim::replay`, the
# one place a fuzz scenario's trace is rendered.
# The holdback index's unit tests (file, dedup, wake, clear) by name, then
# the op-based cluster's: `Cluster` is the one-object instance of the
# cluster `MultiCluster` composes, and a one-object `MultiCluster` must
# answer every receive, targeted `can_deliver` / `deliver`,
# `deliverable_into` and drain exactly as `Cluster` does, step by step.
step cargo test -q --offline -p ral-runtime mailbox::
step cargo test -q --offline -p ral-runtime -- op_based:: multi::
step cargo test -q --offline --test determinism --test sim_determinism --test sim_faults --test sim_release --test sim_cost --test history_mem --test runtime_cost --test holdback_parity --test spec_cost --test spec_queries --test delta_convergence --test prop_merge_in_place --test state_transport_parity --test lattice_drop_rule --test prop_crdt_convergence --test fuzz_roundtrip
# The checkers' cost contracts, in deterministic counts. The memoized walk:
# a history that linearizes costs at most one expansion per operation, a
# refutation expands each reachable configuration once, and a witness
# search allocates at most one and a half blocks per operation — its
# buffers (one frontier per update depth, one per query, one undo arena)
# are reused by every placement, and nothing is hashed or stored before a
# configuration fails. It reads visibility a word at a time: an operation
# is enabled when its predecessor set sits inside the placed mask, and the
# per-history shape reads only the queries' rows, so a witness search asks
# each label its kind twice, not once per visibility edge. `memo_walks`
# pins the walk itself (outcome, witness order, every exploration counter)
# on the `checker_scaling` histories. The streaming monitor: once warm, a sequential stream allocates at
# most once per hundred operations (children are filled into retired
# configurations' buffers, and a query clones no state), and each of its
# operations is stepped once, where it is placed: settling a wholly
# settled suffix steps nothing, because the configuration's frontier
# becomes its base. A debug build replays that suffix anyway to check the
# handover, so the step count is exact only in release: the second line
# runs that contract there.
step cargo test -q --offline --test search_cost --test search_alloc --test monitor_alloc --test memo_walks
step cargo test -q --offline --release --test search_cost a_sequential_stream
step cargo bench --offline --no-run
# Checker-throughput smoke: run the brute-vs-memo scaling bench (plus the
# `ra_search` facade series, facade_witness/facade_refute) in quick mode
# and persist its JSON so the bench trajectory
# (BENCH_checker_scaling.json) tracks checker throughput per commit. The
# bench asserts every outcome (witness/refutation/budget), so a checker
# regression fails this step outright.
# (the bench binary runs from the package dir, so pass an absolute path)
step cargo bench --offline --bench checker_scaling -- --quick --save "$PWD/BENCH_checker_scaling.json"
# Compositional-checker smoke: guided-first sharded search vs monolithic
# memo on composed OR-Set histories (objects × ops), plus sharded_ts/k on
# LWW-register histories that only the composed timestamp order decides.
# The bench asserts every outcome, and the persisted
# BENCH_composed_scaling.json tracks the sharded speedup (monolithic/k ÷
# sharded/k) per commit, each record with its operation count in
# `elements`.
step cargo bench --offline --bench composed_scaling -- --quick --save "$PWD/BENCH_composed_scaling.json"
# Streaming-monitor smoke: monitored ops/sec replaying churn histories of
# 1k/10k/100k operations. Every replay must end accepted and fully
# settled (the bench asserts both); BENCH_monitor_streaming.json carries
# each stream's operation count in `elements` next to its median replay
# time, and the printed peak live window / live configs show the
# O(window) retention claim per commit.
step cargo bench --offline --bench monitor_streaming -- --quick --save "$PWD/BENCH_monitor_streaming.json"
# Delta-transport smoke: the same seeded gossip mesh at 5/15/50 replicas
# through full-state and delta replication. The bench asserts that every
# run converges and that the delta transport ships strictly fewer payload
# bytes than full-state at every size, so a transport regression fails
# this step; BENCH_delta_bandwidth.json carries each run's bytes in
# `elements` next to its median time.
step cargo bench --offline --bench delta_bandwidth -- --quick --save "$PWD/BENCH_delta_bandwidth.json"
# End-to-end pipeline smoke: the `pipeline` benchmark package's own tests
# (it lives outside the workspace, so the plain test run above does not
# reach it). Its smoke test runs every workload in `--quick` mode, traced
# and untraced, requires every metric BENCHMARK.json names with a correct
# result line, and holds that declaration equal to the runner's tables.
step cargo test --offline --release --manifest-path pipeline_bench/Cargo.toml
# Observability smoke: the traced multi_mix + sharded-search example with
# recording on. The example itself validates both JSON artifacts with the
# strict ral-obs parser before writing them, so a malformed trace fails
# this step; OBS_report.json persists the span/counter aggregates per
# commit (the full Perfetto trace stays local — it is tens of MB).
step env RAL_OBS=1 RAL_OBS_OUT="$PWD/OBS_trace.json" cargo run --offline --example observability
# Fuzz smoke: a fixed-seed coverage-guided campaign over every shipped
# family. Fails on any finding (the shrunk counterexample is printed) or
# if structural coverage drops below the 900-per-mille baseline; the
# campaign is deterministic per seed, so FUZZ_report.json is a stable
# per-commit artifact (modulo its wall_nanos field). The --broken run is
# the oracle's negative control: the deliberately broken fixtures must be
# caught and shrunk, or the step fails. Its stdout (every finding, its
# verdict, shrunk size and replay count) is deterministic and pinned byte
# for byte, so a change that thins the control shows up even while it
# still finds something.
step cargo run --offline --release -p ral-fuzz -- --quick --seed 1 --min-coverage 900 --report "$PWD/FUZZ_report.json"
echo
echo "==> ral-fuzz --broken --seed 1 --runs 10 | diff - tests/golden/fuzz_broken_seed1.txt"
cargo run --offline --release -p ral-fuzz -- --broken --seed 1 --runs 10 --no-report |
    diff - tests/golden/fuzz_broken_seed1.txt
# Static-analysis gate: bounded-exhaustive simulation-obligation checking
# over every shipped CRDT plus the workspace determinism lint (its
# `thread-spawn` rule is what holds "no library code spawns a thread").
# Exits non-zero on any undischarged obligation, unrefuted negative fixture,
# lint hit, or stale allowlist entry, and persists the machine-readable
# verdicts per commit.
step cargo run --offline --release -p ral-analyze -- --report "$PWD/ANALYZE_report.json"
# The obligation sections of that report (everything but its `lint` line,
# whose `files_scanned` moves with every added file) are pinned byte for
# byte: exploration order, dedup keys and check order decide every
# `configs` / `checks` count and every shrunk trace, so a change to the
# explorer or to a model shows up here even when the gate stays green.
# (`cargo test` holds the scope-2 twin, golden/analyze_k2.json.)
echo
echo "==> diff ANALYZE_report.json (minus lint) crates/analyze/tests/golden/analyze_k3.json"
sed '/^  "lint":/d' ANALYZE_report.json | diff - crates/analyze/tests/golden/analyze_k3.json

echo
echo "CI green: fmt, clippy, docs, build, examples, tests, the four scaling benches (checker, composed, monitor, delta), pipeline smoke, fuzz smoke, analyze gate all pass offline."
