//! Shared plumbing for the cross-process shard suites.
//!
//! The shard protocol ships **results only** — configuration travels as
//! a *recipe*: a compact string (`PCKPT_SHARD_GRID`) from which parent
//! and child independently rebuild bit-identical `GridCell`s. Every test
//! binary that spawns shard children re-invokes itself with a single
//! `shard_child_entry` test selected; that entry calls
//! [`maybe_run_shard_child`], which notices the coordinator's
//! environment contract (`PCKPT_SHARD`, `PCKPT_SHARD_OUT`) and executes
//! one shard instead of asserting anything.
#![allow(dead_code)]

use pckpt::core::iosim::PfsMode;
use pckpt::core::{run_shard_child, GridCell, GridResult, ModelKind, Settings, ShardLauncher};
use pckpt::prelude::*;

/// Environment variable carrying the grid recipe to shard children.
pub const RECIPE_ENV: &str = "PCKPT_SHARD_GRID";

fn parse_models(csv: &str) -> Result<Vec<ModelKind>, String> {
    csv.split(',')
        .map(|m| ModelKind::by_name(m).ok_or_else(|| format!("unknown model {m:?}")))
        .collect()
}

fn parse_scales(csv: &str) -> Result<Vec<f64>, String> {
    csv.split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad scale {s:?}")))
        .collect()
}

/// Rebuilds a grid from its recipe. Three shapes cover the suites:
///
/// * `sweep|<app>|<scales>|<models>` — `paper_defaults(B)` lead-scale
///   sweep, default labels (the `grid_equivalence` proptest shape);
/// * `golden|<app>|<scales>|<models>` — `paper_defaults(P2)` with
///   `PfsMode::Analytic` and `"{app}@{scale}"` labels (the
///   `trace_determinism` golden-grid shape);
/// * `xover|<app>@<alpha>[,...]|<models>` — `paper_defaults(B)` with
///   `lm_transfer_factor = alpha` and `"{app}/a{alpha}"` labels (the
///   prefilter crossover shape).
pub fn cells_from_recipe(recipe: &str) -> Result<Vec<GridCell>, String> {
    let parts: Vec<&str> = recipe.split('|').collect();
    let app_by_name = |name: &str| {
        Application::by_name(name).ok_or_else(|| format!("unknown application {name:?}"))
    };
    match parts.as_slice() {
        ["sweep", app, scales, models] => {
            let app = app_by_name(app)?;
            let models = parse_models(models)?;
            Ok(parse_scales(scales)?
                .into_iter()
                .map(|scale| {
                    let mut p = SimParams::paper_defaults(ModelKind::B, app);
                    p.lead_scale = scale;
                    GridCell::new(p, &models)
                })
                .collect())
        }
        ["golden", app, scales, models] => {
            let app = app_by_name(app)?;
            let models = parse_models(models)?;
            Ok(parse_scales(scales)?
                .into_iter()
                .map(|scale| {
                    let mut p = SimParams::paper_defaults(ModelKind::P2, app);
                    p.pfs_mode = PfsMode::Analytic;
                    p.lead_scale = scale;
                    GridCell::new(p, &models).with_label(format!("{}@{scale}", app.name))
                })
                .collect())
        }
        ["xover", cells, models] => {
            let models = parse_models(models)?;
            cells
                .split(',')
                .map(|spec| {
                    let (app, alpha) = spec
                        .split_once('@')
                        .ok_or_else(|| format!("xover cell {spec:?} is not APP@alpha"))?;
                    let alpha: f64 =
                        alpha.parse().map_err(|_| format!("bad alpha {alpha:?}"))?;
                    let mut p = SimParams::paper_defaults(ModelKind::B, app_by_name(app)?);
                    p.lm_transfer_factor = alpha;
                    Ok(GridCell::new(p, &models).with_label(format!("{app}/a{alpha}")))
                })
                .collect()
        }
        _ => Err(format!("unrecognized recipe {recipe:?}")),
    }
}

/// Child-side hook: when the coordinator's environment contract is
/// present, executes one shard of the recipe grid and returns `true`
/// (the caller's test then passes, leaving the frame file as the real
/// output). Returns `false` in ordinary test runs.
pub fn maybe_run_shard_child() -> bool {
    let settings = Settings::from_env().expect("shard child settings parse");
    let Some(spec) = &settings.shard else {
        return false;
    };
    let recipe = std::env::var(RECIPE_ENV).expect("shard child needs PCKPT_SHARD_GRID");
    let cells = cells_from_recipe(&recipe).expect("shard child got a bad recipe");
    let leads = LeadTimeModel::desh_default();
    let config = settings.runner(settings.runs_or(1), settings.seed.unwrap_or(0));
    run_shard_child(&cells, &leads, &config, settings.prefilter.as_ref(), spec)
        .expect("shard child failed");
    true
}

/// A launcher that re-invokes this test binary with exactly one test —
/// the caller's `shard_child_entry` — selected, carrying `recipe` to the
/// child through the environment.
pub fn launcher_for(child_test: &str, recipe: &str) -> ShardLauncher {
    ShardLauncher::current_exe(vec![
        child_test.to_string(),
        "--exact".into(),
        "--nocapture".into(),
        "--test-threads=1".into(),
    ])
    .expect("test binary path")
    .with_env(RECIPE_ENV, recipe)
}

/// Everything figure-feeding in a grid result, as exact bits: per-lane
/// aggregate digests plus the per-cell attained CI half-widths (which
/// exercise the coordinator's replay of the VR tracker fold).
pub fn grid_digest(grid: &GridResult) -> String {
    let mut s = String::new();
    for (i, (label, c)) in grid.labels.iter().zip(&grid.cells).enumerate() {
        for (m, a) in c.models.iter().zip(&c.aggregates) {
            s.push_str(&format!(
                "{}/{}:{:016x}-{:016x}-{:016x}-{:016x}-{:016x};",
                label,
                m.name(),
                a.total_hours.mean().to_bits(),
                a.ckpt_hours.mean().to_bits(),
                a.recomp_hours.mean().to_bits(),
                a.ft_ratio_pooled().to_bits(),
                a.failures.sum().to_bits(),
            ));
        }
        s.push_str(&format!("ci[{i}]={:016x};", grid.cell_ci_rel[i].to_bits()));
    }
    s
}
