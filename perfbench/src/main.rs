//! Repository benchmark for the p-ckpt simulator and its campaign
//! daemon.
//!
//! ```text
//! perfbench --workload <fig4_sweep|fnr_fluid|service_mix> --seed <n>
//!           --seconds <s> --trace <0|1> --pckptd <path to pckptd>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no timer inside a
//! sweep or a request. `--trace 1` is a separate run that splits each
//! workload's wall time into the repository's layers, timed from
//! outside around calls into each layer's public functions, with the
//! remainder reported as `unattributed`. Every operation's output is
//! checked against a digest oracle. The last line on stdout is the
//! result object; `perfbench/run.py` builds and runs this binary.

mod grid;
mod report;
mod service;

use std::path::PathBuf;

use report::Outcome;

/// End-to-end metrics, printed by every `--trace 0` run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("results_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every `--trace 1` run. A layer that a
/// workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runner.units_per_lane", "ratio"),
    ("runner.trace_reuse_rate", "ratio"),
    ("runner.parallel_efficiency", "ratio"),
    ("runner.plan.share", "ratio"),
    ("failure.trace_gen.calls", "count"),
    ("failure.trace_gen.ns_per_call", "ns"),
    ("failure.trace_gen.share", "ratio"),
    ("failure.failures_per_trace", "count"),
    ("sim.unit.ns_per_call", "ns"),
    ("sim.events_per_unit", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.events_per_s", "1/s"),
    ("sim.share", "ratio"),
    ("iosim.pfs_ops_per_unit", "count"),
    ("iosim.fluid_extra_ns_per_event", "ns"),
    ("fold.ns_per_result", "ns"),
    ("fold.share", "ratio"),
    ("service.warm_p50_ms", "ms"),
    ("service.cold_p50_ms", "ms"),
    ("service.parse.us", "us"),
    ("service.fingerprint.us", "us"),
    ("service.journal_open.us", "us"),
    ("service.journal.recovered_cells", "count"),
    ("service.cache.get_us_per_cell", "us"),
    ("service.cache.hits", "count"),
    ("service.cache.misses", "count"),
    ("service.flight.coalesced", "count"),
    ("service.cellframe.decode_ns_per_result", "ns"),
    ("service.render.us", "us"),
    ("prefilter.us_per_cell", "us"),
    ("prefilter.prune_rate", "ratio"),
    ("service.compute.ms", "ms"),
    ("service.compute.warm_ms", "ms"),
    ("service.cellframe.encode_us_per_cell", "us"),
    ("service.cache.put_us_per_cell", "us"),
    ("service.journal.append_us_per_cell", "us"),
    ("service.frame_bytes_per_cell", "bytes"),
    ("unattributed.share", "ratio"),
    ("trace_overhead_pct", "%"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub pckptd: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        pckptd: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--pckptd" => args.pckptd = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.seconds == 0.0 {
        return Err("--seconds is required".into());
    }
    Ok(args)
}

/// Grid worker threads: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Adds a 0 for every per-layer metric the workload's layers never
/// reached, keeping the declared order.
fn complete_layers(outcome: &mut Outcome) {
    let mut ordered = Vec::with_capacity(PER_LAYER.len());
    for &(name, unit) in PER_LAYER {
        let value = outcome
            .metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value);
        ordered.push(report::Metric { name, value, unit });
    }
    outcome.metrics = ordered;
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = match (args.workload.as_str(), args.trace) {
        ("fig4_sweep", false) => grid::end_to_end(grid::Grid::Fig4Sweep, args),
        ("fig4_sweep", true) => grid::traced(grid::Grid::Fig4Sweep, args),
        ("fnr_fluid", false) => grid::end_to_end(grid::Grid::FnrFluid, args),
        ("fnr_fluid", true) => grid::traced(grid::Grid::FnrFluid, args),
        ("service_mix", false) => service::end_to_end(args)?,
        ("service_mix", true) => service::traced(args)?,
        (other, _) => return Err(format!("unknown workload '{other}'")),
    };
    if args.trace {
        complete_layers(&mut outcome);
    }
    Ok(outcome)
}

fn main() -> std::process::ExitCode {
    // The library reads `PCKPT_*` settings (prefilter, threads, journal
    // sync, VR) from the environment; the workloads fix them explicitly.
    for (key, _) in std::env::vars() {
        if key.starts_with("PCKPT_") {
            std::env::remove_var(key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| run(&args));
    match result {
        Ok(outcome) => {
            report::print_result(&outcome);
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
