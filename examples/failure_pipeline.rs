//! End-to-end failure-analysis pipeline: synthesize system logs, mine
//! failure chains Desh-style, fit a lead-time model from the *mined*
//! statistics, and drive a C/R simulation with it.
//!
//! This mirrors how the paper's prediction stack is built: the
//! simulation's lead times come from log analysis, not from an assumed
//! distribution.
//!
//! ```text
//! cargo run --release --example failure_pipeline
//! ```

use pckpt::failure::chains::{ChainAnalyzer, LogGenerator};
use pckpt::prelude::*;

fn main() {
    // 1. Six months of synthetic logs for a 400-node system.
    let mut rng = SimRng::seed_from(2022);
    let six_months = 0.5 * 365.25 * 24.0 * 3600.0;
    let generator = LogGenerator::desh_default();
    let (log, truth) = generator.generate(&mut rng, six_months, 400, 900);
    println!(
        "Generated {} log lines over 6 months; {} failures planted.",
        log.len(),
        truth.len()
    );

    // 2. Mine the chains (Desh: phrase sequences culminating in failure).
    let report = ChainAnalyzer::desh_default().analyze(&log);
    println!("Mined {} failure chains.", report.chains.len());
    for (id, n, plot) in report.boxplots() {
        println!(
            "  seq {id:>2}: n={n:<4} lead mean {:>6.1}s  [q1 {:>6.1}, median {:>6.1}, q3 {:>6.1}]",
            plot.mean, plot.q1, plot.median, plot.q3
        );
    }

    // 3. Turn the mined statistics into a lead-time model.
    let labels: Vec<(u32, &'static str)> = LeadTimeModel::desh_default()
        .sequences()
        .iter()
        .map(|s| (s.id, s.label))
        .collect();
    let mined = report.to_leadtime_model(&labels);
    println!(
        "\nMined lead-time model: {} sequences, mixture mean {:.1}s \
         (design ground truth: {:.1}s).",
        mined.len(),
        mined.mean_secs(),
        LeadTimeModel::desh_default().mean_secs()
    );

    // 4. Drive a hybrid p-ckpt campaign with the mined model.
    let app = Application::by_name("S3D").unwrap();
    let params = SimParams::paper_defaults(ModelKind::B, app);
    let mut config = RunnerConfig::new(150, 7);
    config.threads = Settings::from_env().expect("PCKPT_* settings").threads;
    let campaign = run_models(&params, &[ModelKind::B, ModelKind::P2], &mined, &config);
    let reduction = campaign.reduction(ModelKind::P2, ModelKind::B).unwrap();
    let ft = campaign.get(ModelKind::P2).unwrap().ft_ratio_pooled();
    println!(
        "\nS3D under hybrid p-ckpt with the mined model: {reduction:.1}% less overhead \
         than periodic checkpointing, FT ratio {ft:.2}."
    );
}
