//! Model advisor: the paper's deployment recommendation, executable.
//!
//! "HPC systems with a high fault rate and low lead times should utilize
//! p-ckpt (P1) for large applications with short runtimes ... In
//! contrast, applications with long runtimes should use the hybrid
//! p-ckpt (P2), irrespective of size and failure rate" (Sec. VII).
//!
//! For every Table-I application × Table-III failure distribution, this
//! example runs P1 and P2 head to head, consults the analytical model
//! (Eqs. 4–8), and prints a recommendation.
//!
//! ```text
//! cargo run --release --example model_advisor [RUNS]
//! ```

use pckpt::analysis::analytic::{pckpt_beats_lm, SIGMA_MAX};
use pckpt::core::oci::sigma;
use pckpt::prelude::*;

fn main() {
    let runs: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(150);
    let leads = LeadTimeModel::desh_default();
    let mut config = RunnerConfig::new(runs, 99);
    config.threads = Settings::from_env().expect("PCKPT_* settings").threads;

    println!(
        "{:<9} {:<16} {:>7} {:>9} {:>9} {:>7} {:>9}  recommendation",
        "app", "system", "sigma", "P1 vs B", "P2 vs B", "analytic", "winner"
    );
    for app in &TABLE_I {
        for dist in &FailureDistribution::ALL {
            let mut params = SimParams::with_distribution(ModelKind::B, *app, *dist);
            params.model = ModelKind::B;
            let campaign = run_models(
                &params,
                &[ModelKind::B, ModelKind::P1, ModelKind::P2],
                &leads,
                &config,
            );
            let p1 = campaign.reduction(ModelKind::P1, ModelKind::B).unwrap();
            let p2 = campaign.reduction(ModelKind::P2, ModelKind::B).unwrap();
            let s = sigma(&leads, &params.predictor, params.theta_secs(), 1.0);
            let analytic = if s < SIGMA_MAX && pckpt_beats_lm(params.lm_transfer_factor, s, 1.0) {
                "p-ckpt"
            } else {
                "LM"
            };
            let winner = if p1 > p2 { "P1" } else { "P2" };
            let recommendation = recommend(app, p1, p2);
            println!(
                "{:<9} {:<16} {:>7.2} {:>8.1}% {:>8.1}% {:>7} {:>9}  {}",
                app.name, dist.name, s, p1, p2, analytic, winner, recommendation
            );
        }
    }
    println!(
        "\nPaper guidance: short-runtime large apps on failure-prone systems → P1;\n\
         long-runtime apps → P2 regardless of size (checkpoint overhead eclipses\n\
         recomputation over long horizons)."
    );
}

fn recommend(app: &Application, p1: f64, p2: f64) -> &'static str {
    let long_running = app.compute_hours >= 360.0;
    if long_running {
        "P2 (long runtime: checkpoint overhead dominates)"
    } else if p1 >= p2 {
        "P1 (short runtime + frequent faults favour p-ckpt)"
    } else {
        "P2 (LM assist still pays off)"
    }
}
