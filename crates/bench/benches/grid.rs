//! Grid sweep engine micro-benchmarks.
//!
//! `grid_sweep` times a fig4-shaped 4-cell sweep (lead scales × [B, M2]
//! on POP) at a small, fixed run count two ways: `serial_cells` runs one
//! campaign per cell back to back (the pre-grid behavior), `grid` runs
//! all cells through one work-stealing pool with cross-cell trace
//! sharing and lead-blind deduplication. Their ratio is the
//! work-elimination speedup `scripts/bench.sh` tracks; both are pinned
//! to one thread so the comparison measures eliminated work, not
//! scheduling luck.
//!
//! `grid_unit_warm` times one warm worker unit execution — the grid's
//! steady-state inner loop — split into a trace-cache *miss* (generate)
//! and *hit* (reuse) so the cache's per-unit saving is visible directly.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pckpt_core::{run_grid, run_models, GridCell, GridPlan, GridWorker, ModelKind, RunnerConfig, SimParams};
use pckpt_failure::{FailureDistribution, LeadTimeModel};
use pckpt_simrng::SimRng;
use pckpt_workloads::Application;

const SWEEP_SCALES: [f64; 4] = [1.5, 1.1, 0.9, 0.5];
const MODELS: [ModelKind; 2] = [ModelKind::B, ModelKind::M2];
const RUNS: usize = 8;
const SEED: u64 = 20_220_530;

fn sweep_cells(app_name: &str) -> Vec<GridCell> {
    let app = Application::by_name(app_name).expect("Table I app");
    SWEEP_SCALES
        .iter()
        .map(|&scale| {
            let mut p =
                SimParams::with_distribution(ModelKind::B, app, FailureDistribution::OLCF_TITAN);
            p.lead_scale = scale;
            GridCell::new(p, &MODELS)
        })
        .collect()
}

fn bench_grid_sweep(c: &mut Criterion) {
    let leads = LeadTimeModel::desh_default();
    let cells = sweep_cells("POP");
    let mut cfg = RunnerConfig::new(RUNS, SEED);
    cfg.threads = 1;

    let mut group = c.benchmark_group("grid_sweep");
    group.bench_function("serial_cells_pop", |b| {
        b.iter(|| {
            for cell in &cells {
                let campaign = run_models(&cell.params, &cell.models, &leads, &cfg);
                black_box(campaign.aggregates[0].total_hours.mean());
            }
        })
    });
    group.bench_function("grid_pop", |b| {
        b.iter(|| {
            let grid = run_grid(&cells, &leads, &cfg);
            black_box(grid.cells[0].aggregates[0].total_hours.mean());
        })
    });
    group.finish();
}

fn bench_grid_unit_warm(c: &mut Criterion) {
    let leads = LeadTimeModel::desh_default();
    let cells = sweep_cells("XGC");
    let plan = GridPlan::new(&cells, &leads);
    let master = SimRng::seed_from(SEED);
    let mut worker = GridWorker::new(&plan);
    // Touch every unit once so simulators and buffers exist.
    for unit in 0..plan.units() {
        worker.run_unit(&master, 0, unit);
    }

    let mut group = c.benchmark_group("grid_unit_warm");
    // Both arms execute the same unit, so their gap is the cost of
    // generating its trace. Miss: a fresh run index every iteration.
    const UNIT: usize = 0;
    let mut run = 1usize;
    group.bench_function("trace_miss_xgc", |b| {
        b.iter(|| {
            let r = worker.run_unit(&master, run, UNIT);
            run += 1;
            black_box(r.wall_secs);
        })
    });
    // Hit: the run held fixed, so every execution after the first
    // reuses the worker's cached trace.
    group.bench_function("trace_hit_xgc", |b| {
        b.iter(|| {
            let r = worker.run_unit(&master, 0, UNIT);
            black_box(r.wall_secs);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_grid_sweep, bench_grid_unit_warm);
criterion_main!(benches);
