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
# times per delivered arrival, the trace holds an entry in at most 16 bytes,
# and an operation's seen-set copy costs at most 16 bytes), the history's
# (`history_mem`: a seen-set copy costs its tail words, not its index, and
# the 100k-op monitored churn holds at most 64 MiB live at its end), the lattice
# core's (a receive costs what the message changes, a stale snapshot scans
# no clock floor; snapshots, resyncs and checkpoints cost nothing; a
# write-after-share copies a pair set as one block, and a snapshot that
# adds nothing allocates nothing), the
# op-based holdback's (on `batch_composed`'s cases a receive probes at most
# twice per held record it releases, a replica missing no same-object
# operation scans at most one candidate per receive, and 10⁴ reverse-order
# arrivals release in linear probes) and the list specifications' (a
# document edit copies the document once; reads, rejected labels and
# fingerprints copy nothing). `holdback_parity` holds the filed holdback to
# a copy of the rescanning one it replaced, step by step. The next three
# suites are what checks that the full-state transport is a façade over the
# delta core: delta ≡ full state over the scenario corpus, every in-place
# join and its changed-flag against a by-value reference (and the sorted
# set the two set lattices store against a `BTreeSet` model), and the façade
# against a copy of the full-state cluster it replaced.
# `prop_crdt_convergence` runs every state CRDT through both transports end
# to end.
step cargo test -q --offline --test sim_determinism --test sim_faults --test sim_release --test sim_cost --test history_mem --test runtime_cost --test holdback_parity --test spec_cost --test delta_convergence --test prop_merge_in_place --test state_transport_parity --test prop_crdt_convergence
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
# caught and shrunk, or the step fails.
step cargo run --offline --release -p ral-fuzz -- --quick --seed 1 --min-coverage 900 --report "$PWD/FUZZ_report.json"
step cargo run --offline --release -p ral-fuzz -- --broken --seed 1 --runs 10 --no-report
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
