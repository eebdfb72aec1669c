//! Offline compatibility shim for the subset of the `criterion` API used
//! by this workspace's benches.
//!
//! The build environment cannot reach crates.io. This crate provides a
//! working measurement harness behind criterion's names: calibrated
//! timing loops, warmup, multi-sample medians, substring filters from
//! the CLI, and machine-readable output.
//!
//! Every completed benchmark prints one human line and one
//! `CRITERION_JSON {...}` line; `scripts/bench.sh` parses the latter
//! into `BENCH_pr1.json`. Environment knobs:
//!
//! * `PCKPT_BENCH_SAMPLE_MS` — target wall time per sample (default 10)
//! * `PCKPT_BENCH_SAMPLES` — samples per benchmark (default 12)

#![warn(missing_docs)]

use std::time::Instant;

/// How batched inputs are grouped (accepted for API parity; the shim
/// times one routine call per drawn input regardless).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small inputs: many per batch.
    SmallInput,
    /// Large inputs: few per batch.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

/// Identifies a benchmark within a group (`function_id/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id with both a function name and a parameter.
    pub fn new(function_id: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            id: format!("{}/{}", function_id.into(), parameter),
        }
    }

    /// An id that is just a parameter.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.id)
    }
}

/// One benchmark's summary statistics (nanoseconds per iteration).
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Full benchmark path (`group/function/parameter`).
    pub name: String,
    /// Median over samples.
    pub median_ns: f64,
    /// Mean over samples.
    pub mean_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Iterations per sample used.
    pub iters_per_sample: u64,
    /// Number of samples taken.
    pub samples: usize,
}

/// The measurement context handed to each benchmark closure.
pub struct Bencher {
    sample_ns_target: f64,
    samples_target: usize,
    /// Per-iteration nanoseconds, one entry per sample.
    sample_ns_per_iter: Vec<f64>,
    iters_per_sample: u64,
}

impl Bencher {
    fn new() -> Self {
        let sample_ms: f64 = std::env::var("PCKPT_BENCH_SAMPLE_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(10.0);
        let samples = std::env::var("PCKPT_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(12usize)
            .max(3);
        Self {
            sample_ns_target: sample_ms * 1e6,
            samples_target: samples,
            sample_ns_per_iter: Vec::new(),
            iters_per_sample: 1,
        }
    }

    /// Calibrates the per-sample iteration count from one timed call.
    fn calibrate(&mut self, first_call_ns: f64) {
        let per_iter = first_call_ns.max(1.0);
        self.iters_per_sample = ((self.sample_ns_target / per_iter).ceil() as u64).clamp(1, 10_000_000);
    }

    /// Benchmarks `routine` called back-to-back.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        let t0 = Instant::now();
        std::hint::black_box(routine());
        self.calibrate(t0.elapsed().as_nanos() as f64);
        // One warmup sample, discarded.
        for _ in 0..self.iters_per_sample {
            std::hint::black_box(routine());
        }
        for _ in 0..self.samples_target {
            let t = Instant::now();
            for _ in 0..self.iters_per_sample {
                std::hint::black_box(routine());
            }
            let ns = t.elapsed().as_nanos() as f64;
            self.sample_ns_per_iter.push(ns / self.iters_per_sample as f64);
        }
    }

    /// Benchmarks `routine` over fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        let input = setup();
        let t0 = Instant::now();
        std::hint::black_box(routine(input));
        self.calibrate(t0.elapsed().as_nanos() as f64);
        // Bound batch memory: inputs are pre-drawn per sample.
        self.iters_per_sample = self.iters_per_sample.min(4096);
        let mut inputs: Vec<I> = Vec::with_capacity(self.iters_per_sample as usize);
        for sample in 0..=self.samples_target {
            inputs.clear();
            for _ in 0..self.iters_per_sample {
                inputs.push(setup());
            }
            let t = Instant::now();
            for input in inputs.drain(..) {
                std::hint::black_box(routine(input));
            }
            let ns = t.elapsed().as_nanos() as f64;
            if sample > 0 {
                // Sample 0 is warmup.
                self.sample_ns_per_iter.push(ns / self.iters_per_sample as f64);
            }
        }
    }

    fn result(mut self, name: &str) -> BenchResult {
        assert!(
            !self.sample_ns_per_iter.is_empty(),
            "benchmark {name} never called iter()/iter_batched()"
        );
        self.sample_ns_per_iter
            .sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let n = self.sample_ns_per_iter.len();
        let median = if n % 2 == 1 {
            self.sample_ns_per_iter[n / 2]
        } else {
            0.5 * (self.sample_ns_per_iter[n / 2 - 1] + self.sample_ns_per_iter[n / 2])
        };
        let mean = self.sample_ns_per_iter.iter().sum::<f64>() / n as f64;
        BenchResult {
            name: name.to_string(),
            median_ns: median,
            mean_ns: mean,
            min_ns: self.sample_ns_per_iter[0],
            iters_per_sample: self.iters_per_sample,
            samples: n,
        }
    }
}

/// The top-level benchmark harness.
pub struct Criterion {
    filters: Vec<String>,
    results: Vec<BenchResult>,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            filters: Vec::new(),
            results: Vec::new(),
        }
    }
}

impl Criterion {
    /// Builds a harness from CLI arguments: flags are ignored, positional
    /// arguments become substring filters on benchmark names.
    pub fn from_args() -> Self {
        let mut filters = Vec::new();
        for arg in std::env::args().skip(1) {
            if !arg.starts_with('-') {
                filters.push(arg);
            }
        }
        Self {
            filters,
            results: Vec::new(),
        }
    }

    fn selected(&self, name: &str) -> bool {
        self.filters.is_empty() || self.filters.iter().any(|f| name.contains(f))
    }

    fn record(&mut self, result: BenchResult) {
        println!(
            "{:<52} time: [{} median, {} mean, {} min] ({} samples x {} iters)",
            result.name,
            fmt_ns(result.median_ns),
            fmt_ns(result.mean_ns),
            fmt_ns(result.min_ns),
            result.samples,
            result.iters_per_sample,
        );
        println!(
            "CRITERION_JSON {{\"name\":\"{}\",\"median_ns\":{:.3},\"mean_ns\":{:.3},\"min_ns\":{:.3},\"samples\":{},\"iters_per_sample\":{}}}",
            result.name,
            result.median_ns,
            result.mean_ns,
            result.min_ns,
            result.samples,
            result.iters_per_sample,
        );
        self.results.push(result);
    }

    /// Runs one benchmark if it passes the CLI filter.
    pub fn bench_function(&mut self, name: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        if self.selected(name) {
            let mut b = Bencher::new();
            f(&mut b);
            let r = b.result(name);
            self.record(r);
        }
        self
    }

    /// Opens a named group; benchmark names are prefixed `group/...`.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    /// All results measured so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Prints the closing summary (called by `criterion_main!`).
    pub fn final_summary(&self) {
        println!("\n{} benchmark(s) completed", self.results.len());
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one benchmark in the group.
    pub fn bench_function(
        &mut self,
        id: impl std::fmt::Display,
        f: impl FnOnce(&mut Bencher),
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        let selected = self.criterion.selected(&full);
        if selected {
            let mut b = Bencher::new();
            f(&mut b);
            let r = b.result(&full);
            self.criterion.record(r);
        }
        self
    }

    /// Runs one benchmark with a borrowed input value.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        f: impl FnOnce(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Closes the group (no-op; for API parity).
    pub fn finish(self) {}
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Re-export for closures that want explicit black-boxing (real
/// criterion deprecated its own in favor of `std::hint`).
pub use std::hint::black_box;

/// Declares a benchmark group function combining several registration
/// functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares the benchmark binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::from_args();
            $($group(&mut c);)+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `set_var` is process-global while tests run concurrently; every
    /// test mutating `PCKPT_BENCH_SAMPLE_MS` holds this lock for its
    /// whole span.
    fn env_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn bencher_measures_and_summarizes() {
        let _env = env_lock();
        std::env::set_var("PCKPT_BENCH_SAMPLE_MS", "1");
        let mut b = Bencher::new();
        b.iter(|| std::hint::black_box(3u64.wrapping_mul(7)));
        let r = b.result("tiny");
        assert!(r.median_ns > 0.0 && r.median_ns.is_finite());
        assert!(r.min_ns <= r.median_ns);
        assert_eq!(r.samples, 12);
    }

    #[test]
    fn iter_batched_excludes_setup() {
        let _env = env_lock();
        std::env::set_var("PCKPT_BENCH_SAMPLE_MS", "1");
        let mut b = Bencher::new();
        b.iter_batched(
            || vec![1u64; 64],
            |v| std::hint::black_box(v.iter().sum::<u64>()),
            BatchSize::SmallInput,
        );
        let r = b.result("batched");
        assert!(r.median_ns > 0.0);
    }

    #[test]
    fn filters_select_by_substring() {
        let c = Criterion {
            filters: vec!["flow".into()],
            results: Vec::new(),
        };
        assert!(c.selected("flow_link_churn"));
        assert!(!c.selected("event_queue"));
        let open = Criterion::default();
        assert!(open.selected("anything"));
    }

    #[test]
    fn benchmark_ids_format() {
        assert_eq!(BenchmarkId::new("f", 3).to_string(), "f/3");
        assert_eq!(BenchmarkId::from_parameter("CHIMERA").to_string(), "CHIMERA");
    }
}
