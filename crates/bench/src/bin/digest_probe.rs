//! Prints campaign digests (bit patterns of key aggregates) for the
//! P2/XGC cell in both PFS modes — a manual scheduler-equivalence probe.
use pckpt_bench::fixed_runner;
use pckpt_core::iosim::PfsMode;
use pckpt_core::{run_models, Aggregate, ModelKind, SimParams};
use pckpt_failure::LeadTimeModel;
use pckpt_workloads::Application;

fn digest(agg: &Aggregate) -> String {
    format!(
        "{:016x}-{:016x}-{:016x}-{:016x}",
        agg.total_hours.mean().to_bits(),
        agg.ft_ratio_pooled().to_bits(),
        agg.failures.sum().to_bits(),
        agg.total_hours_quantile(0.9).to_bits()
    )
}

fn main() {
    let leads = LeadTimeModel::desh_default();
    let app = Application::by_name("XGC").expect("Table I app");
    for (name, mode) in [("analytic", PfsMode::Analytic), ("fluid", PfsMode::Fluid)] {
        let mut params = SimParams::paper_defaults(ModelKind::P2, app);
        params.pfs_mode = mode;
        let campaign = run_models(
            &params,
            &[ModelKind::B, ModelKind::P2],
            &leads,
            &fixed_runner(24, 41),
        );
        for (m, agg) in campaign.models.iter().zip(&campaign.aggregates) {
            println!("DIGEST {name} {m:?} {}", digest(agg));
        }
    }
}
