#!/usr/bin/env bash
# The single tier-1 gate: determinism lint, release build, test suite.
# Run from anywhere inside the repo.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== simlint =="
# Machine-readable report is the CI artifact: archived whether or not
# findings exist (|| true keeps the artifact on failure; the smoke below
# re-asserts zero findings and fails the gate if any slipped through).
mkdir -p target/ci
cargo run -q -p simlint -- --json > target/ci/simlint-report.json || true
python3 -c '
import json
rec = json.load(open("target/ci/simlint-report.json"))
lines = ["{}:{}: [{}] {}".format(f["path"], f["line"], f["rule"], f["message"])
         for f in rec["findings"]]
assert rec["count"] == 0 and not lines, "simlint findings:\n" + "\n".join(lines)
print("simlint clean ({} files, report: target/ci/simlint-report.json)".format(rec["files"]))
'

echo "== unused manifest dependencies =="
# A [dependencies] edge whose crate name never appears in the package's
# own sources is dead weight in the build graph: fail on it. A package's
# sources are its .rs files outside nested packages and build output.
python3 -c '
import os, re, tomllib
manifests = ["Cargo.toml"] + sorted(
    os.path.join("crates", d, "Cargo.toml") for d in os.listdir("crates")
    if os.path.isfile(os.path.join("crates", d, "Cargo.toml")))
unused = []
for manifest in manifests:
    root = os.path.dirname(manifest) or "."
    deps = tomllib.load(open(manifest, "rb")).get("dependencies", {})
    text = []
    for d, subdirs, files in os.walk(root):
        subdirs[:] = [s for s in subdirs if not s.startswith(".") and s != "target"
                      and not os.path.isfile(os.path.join(d, s, "Cargo.toml"))]
        text += [open(os.path.join(d, f)).read() for f in files if f.endswith(".rs")]
    text = "\n".join(text)
    for dep in deps:
        name = dep.replace("-", "_")
        if not re.search(r"\b" + name + r"\b", text):
            unused.append("{}: [dependencies] {} is never named in its sources".format(manifest, dep))
assert not unused, "unused dependencies:\n" + "\n".join(unused)
print("manifest dependencies all used ({} manifests)".format(len(manifests)))
'

echo "== environment access confined to settings.rs =="
# Every PCKPT_* variable is parsed once, by pckpt_core::settings, at each
# binary's edge; library code in core and service takes typed values.
# Fail on any process-environment read or write anywhere else there.
if grep -rnE 'env::(var|var_os|vars|vars_os|set_var|remove_var)\b' \
    crates/core/src crates/service/src | grep -v '^crates/core/src/settings\.rs:'; then
    echo "environment access outside crates/core/src/settings.rs (see above)" >&2
    exit 1
fi
echo "environment access confined to crates/core/src/settings.rs"

echo "== release build =="
cargo build --release

echo "== tests =="
cargo test -q

echo "== bench smoke (1-run campaign) =="
# One Monte-Carlo run through the end-to-end campaign timer: proves the
# bench harness stays runnable and its CAMPAIGN_JSON / METRICS_JSON
# output parseable without paying for a full benchmark session.
PCKPT_RUNS=1 cargo run --release -q -p pckpt-bench --bin bench_campaign \
    | python3 -c '
import json, sys
seen = {"CAMPAIGN_JSON ": 0, "METRICS_JSON ": 0}
for line in sys.stdin:
    for tag in seen:
        if line.startswith(tag):
            rec = json.loads(line[len(tag):])
            if tag == "CAMPAIGN_JSON ":
                assert rec["runs_per_sec"] > 0, rec
            else:
                assert rec["runs"] == 1 and rec["events_handled"] > 0, rec
            seen[tag] += 1
for tag, n in seen.items():
    assert n == 2, f"expected 2 {tag.strip()} lines, saw {n}"
print("bench smoke ok (2 campaigns, 2 metrics blocks)")
'

echo "== bench smoke (1-run grid + prefilter + VR + shard headline) =="
# One-run grid sweep: the grid METRICS_JSON must carry the analytic
# pre-filter accounting (pruned + simulated == cells on every grid) and
# consistent shard accounting (shards >= 1; an unsharded grid reports
# zero re-executions and frame bytes, a sharded one carries real
# frames), the POP crossover sweep must actually prune at least half its
# cells, the variance-reduction headline (which runs at its own fixed
# budgets, independent of PCKPT_RUNS) must beat fixed provisioning, and
# the shard scale-out headline must report a bit-identical 2-shard
# merge. No speedup floor on sharding: on a single-core host parallel
# shards timeslice and the ratio measures coordination overhead only.
PCKPT_RUNS=1 cargo run --release -q -p pckpt-bench --bin bench_grid \
    | python3 -c '
import json, sys
grids = prefilter = vr = shard = 0
for line in sys.stdin:
    if line.startswith("METRICS_JSON ") and "\"prefilter_pruned\"" in line:
        rec = json.loads(line[len("METRICS_JSON "):])
        assert rec["prefilter_pruned"] + rec["prefilter_simulated"] == rec["cells"], rec
        assert rec["shards"] >= 1 and rec["reexecutions"] >= 0, rec
        if rec["shards"] == 1:
            assert rec["reexecutions"] == 0 and rec["frame_bytes"] == 0, rec
        else:
            assert rec["frame_bytes"] > 0, rec
        grids += 1
    if line.startswith("GRID_JSON "):
        rec = json.loads(line[len("GRID_JSON "):])
        if rec["name"] == "grid_prefilter_pop":
            assert rec["prune_rate"] >= 0.5, rec
            assert rec["pruned"] + rec["simulated"] == rec["cells"], rec
            prefilter += 1
        if rec["name"] == "variance_reduction_fig4":
            assert rec["variance_reduction_speedup"] > 1.5, rec
            assert 0.0 < rec["adaptive_runs_saved_pct"] < 100.0, rec
            vr += 1
        if rec["name"] == "shard_scaleout_fig4":
            assert rec["shards"] == 2 and rec["digest_match"] is True, rec
            assert rec["reexecutions"] == 0 and rec["frame_bytes"] > 0, rec
            assert rec["shard_speedup"] > 0.0, rec
            shard += 1
assert grids == 6, f"expected 6 grid METRICS_JSON lines, saw {grids}"
assert prefilter == 1, "missing grid_prefilter_pop GRID_JSON line"
assert vr == 1, "missing variance_reduction_fig4 GRID_JSON line"
assert shard == 1, "missing shard_scaleout_fig4 GRID_JSON line"
print("grid smoke ok (6 grids, prefilter prunes >= 50%, VR speedup > 1.5x, "
      "2-shard merge bit-identical)")
'

echo "== bench smoke (1-run campaign service: cache + journal) =="
# One-run pass through the campaign service bench: cold compute, warm
# content-addressed replay, torn-journal resume, full-journal replay.
# Asserts the cache accounting reaches meta_json (cache_hits covers the
# whole warm sweep, zero cells simulated, uncached=false) and that both
# GRID_JSON lines report digest-identical replays. No speedup floor at
# smoke budgets — bench_service only asserts >= 50x at real budgets.
PCKPT_RUNS=1 cargo run --release -q -p pckpt-bench --bin bench_service \
    | python3 -c '
import json, sys
cache = journal = metrics = 0
for line in sys.stdin:
    if line.startswith("METRICS_JSON "):
        rec = json.loads(line[len("METRICS_JSON "):])
        assert rec["name"] == "service_fig4_grid", rec
        assert rec["cache_hits"] + rec["journal_recovered"] == rec["cells"], rec
        assert rec["computed_cells"] == 0 and rec["uncached"] is False, rec
        metrics += 1
    if line.startswith("GRID_JSON "):
        rec = json.loads(line[len("GRID_JSON "):])
        if rec["name"] == "service_cache_fig4":
            assert rec["digest_match"] is True, rec
            assert rec["cache_hit_rate"] == 1.0, rec
            assert rec["cache_hit_speedup"] > 0.0, rec
            cache += 1
        if rec["name"] == "service_journal_fig4":
            assert rec["digest_match"] is True, rec
            assert rec["resume_recovered"] + rec["resume_computed"] == rec["cells"], rec
            assert rec["journal_resume_overhead_pct"] > 0.0, rec
            journal += 1
assert metrics == 1, "missing warm-pass METRICS_JSON line"
assert cache == 1, "missing service_cache_fig4 GRID_JSON line"
assert journal == 1, "missing service_journal_fig4 GRID_JSON line"
print("service smoke ok (warm pass fully cache-served, crash resume "
      "digest-identical)")
'

echo "lint.sh: all gates passed"
