//! Result assembly: quantiles, the per-layer table, the provenance
//! block, and the final JSON line.

use std::time::Duration;

/// One named metric with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark invocation measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Timed operations (sweeps or requests) whose output was checked.
    pub attempted: u64,
    /// Operations that returned an error or a wrong digest.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// A started wall-clock timer. Every wall-clock read of the benchmark
/// goes through here: measuring real time is its job, while the
/// repository's linter keeps the wall clock out of simulation code.
#[derive(Clone, Copy)]
pub struct Stopwatch(std::time::Instant); // simlint: allow(no-wall-clock)

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch(std::time::Instant::now()) // simlint: allow(no-wall-clock)
    }

    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }

    pub fn secs(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }

    pub fn ns(&self) -> f64 {
        self.elapsed().as_nanos() as f64
    }
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Layer spans of a traced run, accumulated in memory and written out
/// once at the end: total nanoseconds per layer row.
#[derive(Default)]
pub struct LayerTable {
    rows: Vec<(&'static str, f64)>,
}

impl LayerTable {
    pub fn add(&mut self, layer: &'static str, ns: f64) {
        match self.rows.iter_mut().find(|(name, _)| *name == layer) {
            Some(row) => row.1 += ns,
            None => self.rows.push((layer, ns)),
        }
    }

    pub fn get(&self, layer: &str) -> f64 {
        self.rows
            .iter()
            .find(|(name, _)| *name == layer)
            .map_or(0.0, |row| row.1)
    }

    /// Prints the table with an explicit `unattributed` row so the rows
    /// sum to `wall_ns`, and returns the unattributed share.
    pub fn print(&self, workload: &str, wall_ns: f64) -> f64 {
        let attributed: f64 = self.rows.iter().map(|r| r.1).sum();
        let rest = wall_ns - attributed;
        let mut rows: Vec<String> = self
            .rows
            .iter()
            .chain(std::iter::once(&("unattributed", rest)))
            .map(|(name, ns)| {
                format!(
                    "{{\"layer\":\"{name}\",\"ns\":{ns:.0},\"share\":{:.6}}}",
                    ns / wall_ns
                )
            })
            .collect();
        rows.sort();
        println!(
            "LAYERS {{\"workload\":\"{workload}\",\"traced_wall_ns\":{wall_ns:.0},\"rows\":[{}]}}",
            rows.join(",")
        );
        rest / wall_ns
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Prints the host/provenance block that accompanies every result.
pub fn print_provenance(workload: &str, seed: u64, threads: usize, journal_sync: &str) {
    let esc = |s: String| s.replace('\\', "\\\\").replace('"', "\\\"");
    println!(
        "PROVENANCE {{\"workload\":\"{workload}\",\"seed\":{seed},\"nproc\":{},\
         \"cpu_model\":\"{}\",\"rustc\":\"{}\",\"git_commit\":\"{}\",\
         \"worker_threads\":{threads},\"journal_sync\":\"{journal_sync}\"}}",
        crate::nproc(),
        esc(cpu_model()),
        esc(command_line("rustc", &["--version"])),
        esc(command_line("git", &["rev-parse", "HEAD"])),
    );
}

/// Prints the final result line. A non-finite value cannot be
/// reported, so it makes the result incorrect instead.
pub fn print_result(outcome: &Outcome) {
    let finite = outcome.metrics.iter().all(|m| m.value.is_finite());
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    // A run that checked nothing has at least its one missing check failed.
    let (attempted, failed) = match outcome.attempted {
        0 => (1, 1),
        n => (n, outcome.failed),
    };
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        finite && failed == 0,
        metrics.join(",")
    );
}
