//! Quickstart: compare all five C/R models on one application.
//!
//! ```text
//! cargo run --release --example quickstart [APP] [RUNS]
//! ```
//!
//! Defaults to XGC and 200 Monte-Carlo runs. Prints the overhead
//! breakdown and the FT ratio of each model over *identical* failure
//! traces.

use pckpt::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let app_name = args.get(1).map(String::as_str).unwrap_or("XGC");
    let runs: usize = args
        .get(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);

    let Some(app) = Application::by_name(app_name) else {
        eprintln!(
            "unknown application {app_name:?}; pick one of: {}",
            TABLE_I.map(|a| a.name).join(", ")
        );
        std::process::exit(1);
    };

    println!(
        "Simulating {} ({} nodes, {:.0} GB checkpoint/node, {:.0} h compute)",
        app.name,
        app.nodes,
        app.checkpoint_per_node_gb(),
        app.compute_hours
    );
    println!("Failure model: {} (Table III), Aarohi-style predictor, {runs} paired runs\n",
        FailureDistribution::OLCF_TITAN.name);

    let params = SimParams::paper_defaults(ModelKind::B, app);
    let leads = LeadTimeModel::desh_default();
    let mut config = RunnerConfig::new(runs, 42);
    config.threads = Settings::from_env().expect("PCKPT_* settings").threads;
    let campaign = run_models(&params, &ModelKind::ALL, &leads, &config);

    let base = campaign.get(ModelKind::B).unwrap();
    println!(
        "{:<6} {:>9} {:>10} {:>11} {:>9} {:>9} {:>8}",
        "model", "ckpt(h)", "recomp(h)", "recovery(h)", "total(h)", "vs B", "FT"
    );
    for model in ModelKind::ALL {
        let a = campaign.get(model).unwrap();
        println!(
            "{:<6} {:>9.2} {:>10.2} {:>11.2} {:>9.2} {:>8.1}% {:>8.2}",
            model.name(),
            a.ckpt_hours.mean(),
            a.recomp_hours.mean(),
            a.recovery_hours.mean(),
            a.total_hours.mean(),
            a.reduction_vs(base),
            a.ft_ratio_pooled(),
        );
    }
    println!(
        "\nLegend: B periodic ckpt only; M1 +safeguard ckpt; M2 +live migration;\n\
         P1 +p-ckpt (this paper); P2 hybrid p-ckpt = p-ckpt + LM (this paper).\n\
         {:.2} failures hit each run on average.",
        base.failures.mean()
    );
}
