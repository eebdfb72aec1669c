#!/usr/bin/env bash
# Full CI chain: the tier-1 gate plus everything it doesn't cover —
# workspace-member tests, the examples build, the trace-feature build
# (whose golden digests prove the recorder changes nothing it observes),
# and the analytic-tier equivalence gates.
#
#   1. scripts/lint.sh        simlint, environment access confined to
#                             core's settings.rs, release build, root
#                             test suite, 1-run bench smoke
#                             (CAMPAIGN/METRICS_JSON, prefilter
#                             accounting)
#   2. cargo test --workspace every crate's unit tests (trace off)
#   3. cargo build --examples the doc examples compile against the
#                             current API (they are not test targets, so
#                             nothing else catches their drift)
#   4. cargo test --features trace
#                             root suite again with the recorder live:
#                             golden stream digests + on/off equivalence;
#                             then the live-stream goldens by name. They
#                             project out events that never acted, so
#                             they must survive schedule-only changes;
#                             the raw stream goldens may not
#   5. analytic tier          batch-vs-scalar bit-identity proptest and
#                             the prefilter digest oracle (the two
#                             equivalence contracts of the analytic
#                             pre-filter) as an explicit, named gate
#   6. concurrency + lint harness
#                             schedcheck's bounded-exhaustive schedule
#                             exploration of the grid pool's claim/slab/
#                             fold protocol (incl. seeded-bug regressions)
#                             and simlint's own fixture suite (each rule
#                             family must still trip on its fixture)
#   7. variance reduction     KS marginal-preservation proptests for the
#                             antithetic reflection, stratified fold
#                             consistency, VR/adaptive thread-count
#                             invariance, the adaptive-grid and
#                             fixed-count VR grid golden digests, and
#                             the VR-on zero-allocation gate
#   8. shard scale-out        cross-process equivalence (sharded merges
#                             bit-identical to single-process sweeps,
#                             incl. VR and prefilter modes), the sharded
#                             golden grid, and the fault-injection suite
#                             (killed / truncated / corrupted / hung
#                             children recover to the same digest)
#   9. settings + campaign service
#                             the PCKPT_* settings gates by name (every
#                             variable's grammar and garbage table, and
#                             the coordinator's child environment parsing
#                             back to its own campaign); then the
#                             fingerprint gates by name: the
#                             value-encoding-vs-Debug oracle and the
#                             campaign form (pckpt-core --lib
#                             fingerprint) and phrasing invariance
#                             (service_suite phrasings_of_one_campaign);
#                             then the pckptd end-to-end suite (cache
#                             replay digest oracle, single-flight
#                             admission, torn-journal crash/resume
#                             property test) plus the service crate's
#                             unit tests (cell-frame codec, journal,
#                             cache, single-flight primitives, request
#                             limits, journal-lock cleanup)
#  10. benchmark self-test   python3 perfbench/run.py --self-test: builds
#                             perfbench and pckptd (into .bench_build) and
#                             runs every BENCHMARK.json workload for 1 s,
#                             traced and untraced, with its in-bench
#                             digest checks — the only stage that builds
#                             perfbench/ against the library APIs
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==== [1/10] tier-1 gate (scripts/lint.sh) ===="
scripts/lint.sh

echo
echo "==== [2/10] workspace tests ===="
cargo test -q --workspace

echo
echo "==== [3/10] examples build ===="
cargo build -q --examples

echo
echo "==== [4/10] trace-feature tests ===="
cargo test -q --features trace
cargo test -q --features trace --test trace_determinism live_stream

echo
echo "==== [5/10] analytic tier: batch + prefilter equivalence ===="
cargo test -q -p pckpt-analysis --test batch_equivalence
cargo test -q --test grid_equivalence

echo
echo "==== [6/10] schedcheck exhaustive + simlint fixtures ===="
cargo test -q -p schedcheck
cargo test -q -p simlint

echo
echo "==== [7/10] variance reduction: marginals, folds, determinism ===="
cargo test -q --test variance_reduction
cargo test -q --test trace_determinism -- adaptive_grid vr_fixed_grid
cargo test -q -p pckpt-core --test alloc_free

echo
echo "==== [8/10] shard scale-out: equivalence + fault injection ===="
cargo test -q --test grid_equivalence sharded
cargo test -q --test trace_determinism sharded_grid
cargo test -q --test shard_faults

echo
echo "==== [9/10] settings + campaign service: fingerprints, cache, single-flight, crash/resume ===="
cargo test -q -p pckpt-core --lib settings
cargo test -q -p pckpt-core --lib fingerprint
cargo test -q --test service_suite phrasings_of_one_campaign
cargo test -q --test service_suite
cargo test -q -p pckpt-service

echo
echo "==== [10/10] benchmark self-test: perfbench builds and checks its digests ===="
python3 perfbench/run.py --self-test

echo
echo "ci.sh: all stages passed"
