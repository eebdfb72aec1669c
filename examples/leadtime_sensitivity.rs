//! Lead-time sensitivity study for a single application.
//!
//! Sweeps the prediction lead-time scale (the ±50 % experiments of
//! Figs. 4/7) for one app and prints how each prediction-driven model's
//! benefit erodes as warnings shrink — the paper's central motivation
//! for p-ckpt.
//!
//! ```text
//! cargo run --release --example leadtime_sensitivity [APP] [RUNS]
//! ```

use pckpt::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let app_name = args.get(1).map(String::as_str).unwrap_or("CHIMERA");
    let runs: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(150);
    let app = Application::by_name(app_name).unwrap_or_else(|| {
        eprintln!("unknown application {app_name:?}");
        std::process::exit(1);
    });

    let leads = LeadTimeModel::desh_default();
    let mut config = RunnerConfig::new(runs, 5);
    config.threads = Settings::from_env().expect("PCKPT_* settings").threads;
    let models = [
        ModelKind::B,
        ModelKind::M1,
        ModelKind::M2,
        ModelKind::P1,
        ModelKind::P2,
    ];
    println!(
        "Lead-time sensitivity for {} ({} nodes, θ_LM ≈ {:.1}s, p-ckpt phase-1 ≈ {:.1}s)\n",
        app.name,
        app.nodes,
        SimParams::paper_defaults(ModelKind::P2, app).theta_secs(),
        SimParams::paper_defaults(ModelKind::P2, app)
            .io
            .pfs
            .single_node_write_secs(app.checkpoint_per_node()),
    );
    println!(
        "{:>6} | {:>8} {:>8} {:>8} {:>8} | {:>6} {:>6} {:>6} {:>6}",
        "lead", "M1 vs B", "M2 vs B", "P1 vs B", "P2 vs B", "FT M1", "FT M2", "FT P1", "FT P2"
    );
    for (scale, label) in [
        (1.5, "+50%"),
        (1.25, "+25%"),
        (1.0, "0%"),
        (0.75, "-25%"),
        (0.5, "-50%"),
        (0.25, "-75%"),
    ] {
        let mut params = SimParams::paper_defaults(ModelKind::B, app);
        params.lead_scale = scale;
        let c = run_models(&params, &models, &leads, &config);
        let b = c.get(ModelKind::B).unwrap();
        let red = |m: ModelKind| c.get(m).unwrap().reduction_vs(b);
        let ft = |m: ModelKind| c.get(m).unwrap().ft_ratio_pooled();
        println!(
            "{:>6} | {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% | {:>6.2} {:>6.2} {:>6.2} {:>6.2}",
            label,
            red(ModelKind::M1),
            red(ModelKind::M2),
            red(ModelKind::P1),
            red(ModelKind::P2),
            ft(ModelKind::M1),
            ft(ModelKind::M2),
            ft(ModelKind::P1),
            ft(ModelKind::P2),
        );
    }
    println!(
        "\nExpected shape (paper Figs. 4 & 7): M1 useless for large apps at any lead;\n\
         M2 collapses once leads shrink below θ; P1/P2 degrade gracefully because\n\
         the prioritized phase-1 commit needs far less warning than a migration."
    );
}
