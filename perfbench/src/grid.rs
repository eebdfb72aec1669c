//! The two grid-sweep workloads: back-to-back `run_grid` sweeps, as a
//! researcher runs a Monte-Carlo campaign.
//!
//! * `fig4_sweep` — the Fig.-4 grid ({CHIMERA, XGC, POP} × lead scale
//!   {1.5, 1.1, 0.9, 0.5} × [B, M2], OLCF Titan, analytic PFS). Cells of
//!   one application share per-run traces and the lead-blind B lanes
//!   collapse to one unit per application, so trace generation is a
//!   small share and the simulator dominates.
//! * `fnr_fluid` — the Obs.-9 false-negative sweep (the same apps × FN
//!   rate {0, .1, .2, .3, .4} × [P2]) under the fluid PFS model. Every
//!   cell is its own trace group: no reuse, no dedup, a larger trace
//!   generation share, and the fluid I/O model on every PFS operation.

use std::hint::black_box;
use std::time::Duration;

use pckpt_core::iosim::PfsMode;
use pckpt_core::{
    run_grid, run_grid_with_cell_sink, CellFold, CrSim, GridCell, GridPlan, GridResult, GridWorker,
    ModelKind, RunResult, RunnerConfig, SimParams,
};
use pckpt_failure::{FailureTrace, LeadTimeModel, Predictor, TraceConfig, TraceCore};
use pckpt_service::grid_digest;
use pckpt_simrng::SimRng;
use pckpt_workloads::Application;

use crate::report::{
    median, peak_rss_mb, print_provenance, quantile, secs, LayerTable, Outcome, Stopwatch,
};
use crate::{nproc, Args};

/// Set-up repetitions before the first sweep; more follow between sweeps
/// while set-up has taken less than `SETUP_SHARE` of the run, so the
/// median spans the same host conditions as the sweeps.
const SETUP_REPS: usize = 5;
const SETUP_SHARE: f64 = 0.01;
/// Campaign seeds the timed sweeps cycle through. One seed's sweep cost
/// differs from another's by several percent (its failure traces), so a
/// run averages over many seeds to keep its figures steady.
const SEED_POOL: u64 = 16;

#[derive(Clone, Copy, PartialEq)]
pub enum Grid {
    Fig4Sweep,
    FnrFluid,
}

impl Grid {
    fn name(self) -> &'static str {
        match self {
            Grid::Fig4Sweep => "fig4_sweep",
            Grid::FnrFluid => "fnr_fluid",
        }
    }

    /// Runs per cell: sized so one sweep takes tens of milliseconds on a
    /// 2-core host, giving well over 100 sweeps in a 10-second run.
    fn runs(self) -> usize {
        match self {
            Grid::Fig4Sweep => 48,
            Grid::FnrFluid => 24,
        }
    }

    fn cells(self, pfs_mode: PfsMode) -> Vec<GridCell> {
        let apps = ["CHIMERA", "XGC", "POP"].map(|n| Application::by_name(n).expect("Table I app"));
        let mut cells = Vec::new();
        for app in apps {
            match self {
                Grid::Fig4Sweep => {
                    for scale in [1.5, 1.1, 0.9, 0.5] {
                        let mut p = SimParams::paper_defaults(ModelKind::B, app);
                        p.lead_scale = scale;
                        p.pfs_mode = pfs_mode;
                        let label = format!("{}@{scale}", app.name);
                        cells.push(
                            GridCell::new(p, &[ModelKind::B, ModelKind::M2]).with_label(label),
                        );
                    }
                }
                Grid::FnrFluid => {
                    for fnr in [0.0, 0.1, 0.2, 0.3, 0.4] {
                        let mut p = SimParams::paper_defaults(ModelKind::B, app);
                        p.predictor = p.predictor.with_false_negative_rate(fnr);
                        p.pfs_mode = pfs_mode;
                        let label = format!("{}/fn{fnr}", app.name);
                        cells.push(GridCell::new(p, &[ModelKind::P2]).with_label(label));
                    }
                }
            }
        }
        cells
    }

    fn pfs_mode(self) -> PfsMode {
        match self {
            Grid::Fig4Sweep => PfsMode::Analytic,
            Grid::FnrFluid => PfsMode::Fluid,
        }
    }
}

fn config(grid: Grid, seed: u64, threads: usize) -> RunnerConfig {
    let mut config = RunnerConfig::new(grid.runs(), seed);
    config.threads = threads;
    config
}

fn lanes(cells: &[GridCell]) -> usize {
    cells.iter().map(|c| c.models.len()).sum()
}

/// One start of the simulator stack: the lead-time model, the grid plan,
/// and one simulator per lane (fluid lanes build their PFS capacity
/// tables here).
fn set_up(cells: &[GridCell]) -> Duration {
    let started = Stopwatch::start();
    let leads = LeadTimeModel::desh_default();
    let plan = GridPlan::new(cells, &leads);
    let sims: Vec<CrSim> = cells
        .iter()
        .flat_map(|cell| {
            cell.models.iter().map(|&model| {
                let mut p = cell.params.clone();
                p.model = model;
                CrSim::new(p, FailureTrace::default(), &leads)
            })
        })
        .collect();
    black_box((&plan, &sims));
    started.elapsed()
}

/// `--trace 0`: back-to-back sweeps on `nproc` worker threads over a
/// pool of campaign seeds drawn from `--seed`, each sweep checked
/// against a single-threaded sweep of its seed made during set-up.
pub fn end_to_end(grid: Grid, args: &Args) -> Outcome {
    let threads = nproc();
    print_provenance(grid.name(), args.seed, threads, "n/a");
    let cells = grid.cells(grid.pfs_mode());
    let mut setups: Vec<f64> = (0..SETUP_REPS).map(|_| secs(set_up(&cells))).collect();
    let leads = LeadTimeModel::desh_default();
    let pool = SimRng::seed_from(args.seed);
    let seeds: Vec<u64> = (0..SEED_POOL)
        .map(|k| pool.split(k).next_raw() >> 12)
        .collect();
    let oracles: Vec<_> = seeds
        .iter()
        .map(|&seed| grid_digest(&run_grid(&cells, &leads, &config(grid, seed, 1))))
        .collect();

    let results_per_sweep = (lanes(&cells) * grid.runs()) as f64;
    let mut out = Outcome::default();
    let mut sweeps = Vec::new();
    let run = Stopwatch::start();
    while run.secs() < args.seconds {
        if setups.iter().sum::<f64>() < SETUP_SHARE * run.secs() {
            setups.push(secs(set_up(&cells)));
        }
        let k = sweeps.len() % seeds.len();
        let config = config(grid, seeds[k], threads);
        let sweep = Stopwatch::start();
        let result = run_grid(&cells, &leads, &config);
        sweeps.push(sweep.secs());
        out.check(grid_digest(&result) == oracles[k]);
    }
    let busy: f64 = sweeps.iter().sum();
    out.push("setup_s", median(&setups), "s");
    out.push(
        "results_per_s",
        results_per_sweep * sweeps.len() as f64 / busy,
        "1/s",
    );
    out.push("op_p50_ms", 1e3 * quantile(&sweeps, 0.5), "ms");
    out.push("op_p90_ms", 1e3 * quantile(&sweeps, 0.9), "ms");
    out.push("peak_rss_mb", peak_rss_mb(None), "MiB");
    eprintln!(
        "{}: {} sweeps of {results_per_sweep} results",
        grid.name(),
        sweeps.len()
    );
    out
}

/// The runner's per-cell trace configuration, rebuilt from public
/// parameters so trace generation can be timed on its own.
fn trace_config(p: &SimParams) -> TraceConfig {
    TraceConfig::new(
        p.distribution,
        p.app.nodes,
        p.app.compute_hours * p.horizon_factor,
    )
    .with_lead_scale(p.lead_scale)
    .with_projection(p.projection)
    .with_node_selection(p.node_selection)
    .with_lead_error(p.lead_error_cv)
}

/// Cells that share per-run failure traces: equal scale-invariant trace
/// configuration and predictor.
struct TraceGroup {
    key: TraceConfig,
    predictor: Predictor,
    /// Distinct lead-scale views of the group's member cells.
    views: Vec<TraceConfig>,
}

fn trace_groups(cells: &[GridCell]) -> Vec<TraceGroup> {
    let mut groups: Vec<TraceGroup> = Vec::new();
    for cell in cells {
        let view = trace_config(&cell.params);
        let key = view.scale_invariant();
        let predictor = cell.params.predictor;
        match groups
            .iter_mut()
            .find(|g| g.key == key && g.predictor == predictor)
        {
            Some(g) => {
                if !g.views.contains(&view) {
                    g.views.push(view);
                }
            }
            None => groups.push(TraceGroup {
                key,
                predictor,
                views: vec![view],
            }),
        }
    }
    groups
}

/// Times every (run, group) trace generation of one sweep on its own:
/// the group's configuration over the run's `master.split(run)` stream,
/// as the runner draws it. Returns (total ns, generations, failures).
fn time_trace_generation(
    groups: &[TraceGroup],
    leads: &LeadTimeModel,
    master: &SimRng,
    runs: usize,
) -> (f64, u64, u64) {
    let mut core = TraceCore::default();
    let mut trace = FailureTrace::default();
    let (mut ns, mut calls, mut failures) = (0.0, 0u64, 0u64);
    for run in 0..runs {
        for g in groups {
            let mut rng = master.split(run as u64);
            let started = Stopwatch::start();
            if g.views.len() > 1 {
                core.generate_into(&g.key, leads, &g.predictor, &mut rng);
                for view in &g.views {
                    core.instantiate_into(view, &g.predictor, &mut trace);
                }
            } else {
                trace.generate_into(&g.views[0], leads, &g.predictor, &mut rng);
            }
            ns += started.ns();
            black_box(&trace);
            calls += 1;
            failures += trace.failure_count() as u64;
        }
    }
    (ns, calls, failures)
}

/// Runs `f`, adding its wall time to `acc` when `TRACED`.
fn timed<const TRACED: bool, T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    if !TRACED {
        return f();
    }
    let started = Stopwatch::start();
    let out = f();
    *acc += started.ns();
    out
}

/// What one single-threaded replay of a sweep measured.
#[derive(Default)]
struct Replay {
    wall_ns: f64,
    plan_ns: f64,
    unit_ns: f64,
    fold_ns: f64,
    unit_calls: u64,
    events: u64,
    pfs_ops: u64,
    trace_generations: u64,
    digest_ok: bool,
}

/// Replays one sweep on one thread through the layers' public calls:
/// `GridPlan::new`, `GridWorker::run_unit` for every (run, unit) in the
/// pool's run-major order, then `CellFold` over each cell's results.
/// With `TRACED` each call is timed; without, only the whole replay.
/// `cell_results` holds every cell's lane-major results of the same
/// sweep (a unit's result belongs to lanes the plan does not expose);
/// `None` skips the fold.
fn replay<const TRACED: bool>(
    cells: &[GridCell],
    leads: &LeadTimeModel,
    config: &RunnerConfig,
    cell_results: Option<&[Vec<RunResult>]>,
    oracle: &str,
) -> Replay {
    let mut r = Replay::default();
    let started = Stopwatch::start();
    let master = SimRng::seed_from(config.base_seed);
    let plan = timed::<TRACED, _>(&mut r.plan_ns, || GridPlan::new(cells, leads));
    let mut worker = GridWorker::new(&plan);
    for run in 0..config.runs {
        for unit in 0..plan.units() {
            let result = timed::<TRACED, _>(&mut r.unit_ns, || worker.run_unit(&master, run, unit));
            r.events += result.obs.events_handled;
            r.pfs_ops += result.ledger.periodic_ckpts
                + result.obs.lat_phase1.count()
                + result.obs.lat_pfs_full.count();
            r.unit_calls += 1;
            black_box(result);
        }
    }
    r.trace_generations = worker.trace_generations;
    if let Some(cell_results) = cell_results {
        let (campaigns, cis): (Vec<_>, Vec<_>) = timed::<TRACED, _>(&mut r.fold_ns, || {
            cells
                .iter()
                .zip(cell_results)
                .map(|(cell, results)| {
                    let mut fold = CellFold::new(cell, config, 1);
                    for result in results {
                        fold.push(result);
                    }
                    fold.finish()
                })
                .unzip()
        });
        // The digest check below is the benchmark's, not a layer's.
        r.wall_ns = started.ns();
        let folded = GridResult {
            cells: campaigns,
            labels: cells.iter().map(|c| c.label.clone()).collect(),
            runs_per_cell: config.runs,
            cell_runs: vec![config.runs; cells.len()],
            cell_ci_rel: cis,
            threads: 1,
            trace_groups: plan.trace_groups(),
            lanes: plan.lanes(),
            units: plan.units(),
            trace_generations: worker.trace_generations,
            trace_reuses: worker.trace_reuses,
            leads_digest: leads.digest(),
            analytic_verdicts: vec![None; cells.len()],
            cells_pruned: 0,
            shard_meta: None,
        };
        r.digest_ok = grid_digest(&folded).hex() == oracle;
    } else {
        r.wall_ns = started.ns();
    }
    r
}

/// `--trace 1`: per-layer split of one sweep, from single-threaded
/// replays, plus the pool's parallel efficiency from untraced sweeps.
pub fn traced(grid: Grid, args: &Args) -> Outcome {
    let threads = nproc();
    print_provenance(grid.name(), args.seed, threads, "n/a");
    let cells = grid.cells(grid.pfs_mode());
    let leads = LeadTimeModel::desh_default();
    let serial = config(grid, args.seed, 1);
    let parallel = config(grid, args.seed, threads);
    let mut out = Outcome::default();

    // The oracle sweep also supplies each cell's results for the fold.
    let mut cell_results: Vec<Vec<RunResult>> = Vec::new();
    let oracle_grid = run_grid_with_cell_sink(&cells, &leads, &serial, &mut |cr| {
        cell_results.push(cr.iter().cloned().collect());
    });
    let oracle = grid_digest(&oracle_grid).hex();
    out.check(grid_digest(&run_grid(&cells, &leads, &serial)).hex() == oracle);

    let groups = trace_groups(&cells);
    let plan = GridPlan::new(&cells, &leads);
    let (units, lanes, n_groups) = (plan.units(), plan.lanes(), plan.trace_groups());
    drop(plan);
    if groups.len() != n_groups {
        eprintln!(
            "{}: {} trace groups rebuilt, the plan has {n_groups}",
            grid.name(),
            groups.len()
        );
        out.check(false);
    }
    let analytic_cells = (grid.pfs_mode() == PfsMode::Fluid).then(|| grid.cells(PfsMode::Analytic));

    let master = SimRng::seed_from(args.seed);
    let mut table = LayerTable::default();
    let (mut traced_walls, mut untraced_walls, mut parallel_walls) = (vec![], vec![], vec![]);
    let (mut busy_ns, mut wall_ns) = (0.0, 0.0);
    let (mut gen_ns, mut gen_calls, mut failures) = (0.0, 0u64, 0u64);
    let (mut unit_calls, mut events, mut pfs_ops, mut generations) = (0u64, 0u64, 0u64, 0u64);
    let (mut sim_ns, mut fold_ns) = (0.0, 0.0);
    let (mut analytic_sim_ns, mut analytic_events) = (0.0, 0u64);
    let (mut reuse_rate, mut sweep_events) = (0.0, 0u64);
    let run = Stopwatch::start();
    let mut rounds = 0;
    while rounds < 2 || run.secs() < args.seconds {
        rounds += 1;
        let plain = replay::<false>(&cells, &leads, &serial, Some(&cell_results), &oracle);
        out.check(plain.digest_ok);
        untraced_walls.push(plain.wall_ns);

        let r = replay::<true>(&cells, &leads, &serial, Some(&cell_results), &oracle);
        out.check(r.digest_ok);
        let (g_ns, g_calls, g_failures) =
            time_trace_generation(&groups, &leads, &master, grid.runs());
        // The runner generates each (run, group) trace inside run_unit;
        // its cost is the directly timed generation of the same trace.
        let per_gen = g_ns / g_calls as f64;
        let failure = per_gen * r.trace_generations as f64;
        table.add("runner", r.plan_ns);
        table.add("failure", failure);
        table.add("sim", r.unit_ns - failure);
        table.add("fold", r.fold_ns);
        traced_walls.push(r.wall_ns);
        wall_ns += r.wall_ns;
        busy_ns += r.unit_ns;
        sim_ns += r.unit_ns - failure;
        fold_ns += r.fold_ns;
        gen_ns += g_ns;
        gen_calls += g_calls;
        failures += g_failures;
        generations += r.trace_generations;
        unit_calls += r.unit_calls;
        events += r.events;
        pfs_ops += r.pfs_ops;

        if let Some(analytic) = &analytic_cells {
            let a = replay::<true>(analytic, &leads, &serial, None, &oracle);
            analytic_sim_ns += a.unit_ns - per_gen * a.trace_generations as f64;
            analytic_events += a.events;
        }

        let started = Stopwatch::start();
        let swept = run_grid(&cells, &leads, &parallel);
        parallel_walls.push(started.ns());
        out.check(grid_digest(&swept).hex() == oracle);
        reuse_rate =
            swept.trace_reuses as f64 / (swept.trace_generations + swept.trace_reuses) as f64;
        sweep_events = r.events;
    }

    let unattributed = table.print(grid.name(), wall_ns);
    let n = rounds as f64;
    let sim_ns_per_event = sim_ns / events as f64;
    out.push(
        "runner.units_per_lane",
        units as f64 / lanes as f64,
        "ratio",
    );
    out.push("runner.trace_reuse_rate", reuse_rate, "ratio");
    out.push(
        "runner.parallel_efficiency",
        (busy_ns / n) / (threads as f64 * median(&parallel_walls)),
        "ratio",
    );
    out.push("runner.plan.share", table.get("runner") / wall_ns, "ratio");
    out.push("failure.trace_gen.calls", generations as f64 / n, "count");
    out.push(
        "failure.trace_gen.ns_per_call",
        gen_ns / gen_calls as f64,
        "ns",
    );
    out.push(
        "failure.trace_gen.share",
        table.get("failure") / wall_ns,
        "ratio",
    );
    out.push(
        "failure.failures_per_trace",
        failures as f64 / gen_calls as f64,
        "count",
    );
    out.push("sim.unit.ns_per_call", sim_ns / unit_calls as f64, "ns");
    out.push(
        "sim.events_per_unit",
        events as f64 / unit_calls as f64,
        "count",
    );
    out.push("sim.ns_per_event", sim_ns_per_event, "ns");
    out.push(
        "sim.events_per_s",
        sweep_events as f64 / (median(&parallel_walls) * 1e-9),
        "1/s",
    );
    out.push("sim.share", table.get("sim") / wall_ns, "ratio");
    out.push(
        "iosim.pfs_ops_per_unit",
        pfs_ops as f64 / unit_calls as f64,
        "count",
    );
    if analytic_cells.is_some() {
        let analytic_ns_per_event = analytic_sim_ns / analytic_events as f64;
        out.push(
            "iosim.fluid_extra_ns_per_event",
            sim_ns_per_event - analytic_ns_per_event,
            "ns",
        );
    }
    out.push(
        "fold.ns_per_result",
        fold_ns / (n * (lanes * grid.runs()) as f64),
        "ns",
    );
    out.push("fold.share", table.get("fold") / wall_ns, "ratio");
    out.push("unattributed.share", unattributed, "ratio");
    let (traced_wall, untraced_wall) = (median(&traced_walls), median(&untraced_walls));
    out.push(
        "trace_overhead_pct",
        100.0 * (traced_wall - untraced_wall) / untraced_wall,
        "%",
    );
    eprintln!("{}: {rounds} traced rounds", grid.name());
    out
}
