//! Every `PCKPT_*` variable a binary honors, parsed once at its edge:
//! a binary calls [`Settings::from_env`] at start-up and passes typed
//! values down, so library code never reads the environment.
//! [`Settings::parse`] is pure over a name → value lookup. A malformed
//! value is an error naming the variable and its grammar; an empty value
//! counts as unset; unknown `PCKPT_*` names are ignored.

use std::path::PathBuf;

use crate::prefilter::Prefilter;
use crate::runner::{parse_runs_spec, parse_vr_spec, RunnerConfig, RunsSpec, VrConfig};
use crate::shard::{FailMode, ShardSpec};

/// When appended journal records reach the disk (`PCKPT_JOURNAL_SYNC`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// `sync_data` after every record (default; survives power cut).
    #[default]
    Always,
    /// Leave flushing to the OS (survives process kill only).
    Off,
}

/// The typed `PCKPT_*` configuration; `Default` is the empty environment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Settings {
    /// `PCKPT_RUNS` (`None`: the binary's own default).
    pub runs: Option<RunsSpec>,
    /// `PCKPT_SEED` (`None`: the binary's own default).
    pub seed: Option<u64>,
    /// `PCKPT_VR`: antithetic pairs and strata (`auto` runs set adaptive).
    pub vr: VrConfig,
    /// `PCKPT_THREADS` (0 = one worker per available core).
    pub threads: usize,
    /// `PCKPT_PREFILTER`.
    pub prefilter: Option<Prefilter>,
    /// `PCKPT_SHARD` + `PCKPT_SHARD_OUT` (set in shard children only), with
    /// the `PCKPT_SHARD_FAIL` hook gated on shard and `PCKPT_SHARD_ATTEMPT`.
    pub shard: Option<ShardSpec>,
    /// `PCKPT_SHARD_TIMEOUT_SECS`: the coordinator's per-child watchdog.
    pub shard_timeout_secs: Option<u64>,
    /// `PCKPT_CACHE_DIR`: the service's persistent cell cache.
    pub cache_dir: Option<PathBuf>,
    /// `PCKPT_CACHE_MAX`: the service's on-disk cell retention cap.
    pub cache_max: Option<usize>,
    /// `PCKPT_JOURNAL_SYNC`.
    pub journal_sync: SyncPolicy,
    /// `PCKPT_SERVICE_FAIL=crash:<k>`: exit after the `k`-th journal append.
    pub service_crash_after: Option<u64>,
}

/// The grammar each variable's parse error quotes.
const GRAMMARS: [(&str, &str); 12] = [
    (
        "PCKPT_RUNS",
        "a positive integer, auto, auto:<target> or auto:<target>:<cap>",
    ),
    ("PCKPT_SEED", "an unsigned 64-bit integer"),
    (
        "PCKPT_VR",
        "off or a comma list of antithetic, stratified[:K]",
    ),
    ("PCKPT_THREADS", "an integer (0 = one per core)"),
    ("PCKPT_PREFILTER", "off, analytic or analytic:<margin>"),
    ("PCKPT_SHARD", "<index>/<run_splits>x<group_splits>"),
    ("PCKPT_SHARD_ATTEMPT", "an integer"),
    (
        "PCKPT_SHARD_FAIL",
        "<shard>:<kill|truncate|baddigest|hang>[:always]",
    ),
    ("PCKPT_SHARD_TIMEOUT_SECS", "a positive integer"),
    ("PCKPT_CACHE_MAX", "an integer"),
    ("PCKPT_JOURNAL_SYNC", "always or off"),
    ("PCKPT_SERVICE_FAIL", "crash:<k>"),
];

/// Reads `name` through `accept`: `Ok(None)` when unset or empty, an
/// error naming the variable and its grammar when `accept` rejects it.
fn read_var<T>(
    lookup: &dyn Fn(&str) -> Option<String>,
    name: &str,
    accept: impl FnOnce(&str) -> Option<T>,
) -> Result<Option<T>, String> {
    let Some(raw) = lookup(name).filter(|v| !v.trim().is_empty()) else {
        return Ok(None);
    };
    let grammar = GRAMMARS
        .iter()
        .find(|(n, _)| *n == name)
        .map_or("", |(_, g)| *g);
    let err = || format!("{name}={raw:?} is invalid: expected {grammar}");
    accept(raw.trim()).map(Some).ok_or_else(err)
}

/// `<shard>:<kill|truncate|baddigest|hang>[:always]`.
fn parse_fail(spec: &str) -> Option<(usize, FailMode, bool)> {
    let (shard, mode) = spec.split_once(':')?;
    let (mode, always) = mode
        .strip_suffix(":always")
        .map_or((mode, false), |m| (m, true));
    let mode = match mode.trim() {
        "kill" => FailMode::Kill,
        "truncate" => FailMode::Truncate,
        "baddigest" => FailMode::BadDigest,
        "hang" => FailMode::Hang,
        _ => return None,
    };
    Some((shard.trim().parse().ok()?, mode, always))
}

/// `<index>/<run_splits>x<group_splits>`.
fn parse_geometry(spec: &str) -> Option<(usize, usize, usize)> {
    let (index, geom) = spec.split_once('/')?;
    let (rs, gs) = geom.split_once('x')?;
    Some((
        index.trim().parse().ok()?,
        rs.trim().parse().ok()?,
        gs.trim().parse().ok()?,
    ))
}

impl Settings {
    /// Parses every `PCKPT_*` variable through `lookup` (name → value).
    pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> Result<Settings, String> {
        let lookup: &dyn Fn(&str) -> Option<String> = &lookup;
        let uint = |s: &str| s.parse::<u64>().ok();
        let count = |s: &str| s.parse::<usize>().ok();
        let attempt = read_var(lookup, "PCKPT_SHARD_ATTEMPT", count)?.unwrap_or(1);
        let fail = read_var(lookup, "PCKPT_SHARD_FAIL", parse_fail)?;
        let shard = match (
            read_var(lookup, "PCKPT_SHARD", parse_geometry)?,
            read_var(lookup, "PCKPT_SHARD_OUT", |s| Some(PathBuf::from(s)))?,
        ) {
            (None, None) => None,
            (Some((index, run_splits, group_splits)), Some(out)) => {
                let fail = fail.filter(|&(s, _, always)| s == index && (always || attempt <= 1));
                let fail = fail.map(|(_, mode, _)| mode);
                Some(ShardSpec {
                    index,
                    run_splits,
                    group_splits,
                    out,
                    fail,
                })
            }
            _ => return Err("PCKPT_SHARD and PCKPT_SHARD_OUT must be set together".into()),
        };
        Ok(Settings {
            runs: read_var(lookup, "PCKPT_RUNS", parse_runs_spec)?,
            seed: read_var(lookup, "PCKPT_SEED", uint)?,
            vr: read_var(lookup, "PCKPT_VR", parse_vr_spec)?.unwrap_or_default(),
            threads: read_var(lookup, "PCKPT_THREADS", count)?.unwrap_or(0),
            prefilter: read_var(lookup, "PCKPT_PREFILTER", |s| Prefilter::parse(s).ok())?.flatten(),
            shard,
            shard_timeout_secs: read_var(lookup, "PCKPT_SHARD_TIMEOUT_SECS", |s| {
                uint(s).filter(|&n| n > 0)
            })?,
            cache_dir: read_var(lookup, "PCKPT_CACHE_DIR", |s| Some(PathBuf::from(s)))?,
            cache_max: read_var(lookup, "PCKPT_CACHE_MAX", count)?,
            journal_sync: read_var(lookup, "PCKPT_JOURNAL_SYNC", |s| match s {
                "always" => Some(SyncPolicy::Always),
                "off" => Some(SyncPolicy::Off),
                _ => None,
            })?
            .unwrap_or_default(),
            service_crash_after: read_var(lookup, "PCKPT_SERVICE_FAIL", |s| {
                uint(s.strip_prefix("crash:")?.trim())
            })?,
        })
    }

    /// [`Self::parse`] over the process environment: the one place the
    /// library reads it.
    // simlint: config — runs, seed and VR define the experiment; the rest
    // size pools, place files or inject test faults, never digests.
    pub fn from_env() -> Result<Settings, String> {
        Self::parse(|name| std::env::var(name).ok())
    }

    /// `runs` runs from `seed` (the binary's own) under `PCKPT_VR`,
    /// `PCKPT_THREADS` and `PCKPT_RUNS=auto` (adaptive, its cap as the run
    /// count); a fixed `PCKPT_RUNS` is the caller's ([`Self::runs_or`]).
    pub fn runner(&self, runs: usize, seed: u64) -> RunnerConfig {
        let mut config = RunnerConfig::new(runs, seed);
        config.threads = self.threads;
        config.vr = self.vr;
        if let Some(RunsSpec::Auto(a)) = self.runs {
            config.runs = a.max_runs;
            config.vr.adaptive = Some(a);
        }
        config
    }

    /// The `PCKPT_RUNS` run count (the cap in adaptive mode), or
    /// `default` when unset.
    pub fn runs_or(&self, default: usize) -> usize {
        match self.runs {
            Some(RunsSpec::Fixed(n)) => n,
            Some(RunsSpec::Auto(a)) => a.max_runs,
            None => default,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::shard::{child_env, ShardPlan};

    /// [`Settings::parse`] over a literal environment.
    pub(crate) fn parse(pairs: &[(&str, &str)]) -> Result<Settings, String> {
        Settings::parse(|name| {
            pairs
                .iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn every_variable_accepts_its_grammar_and_rejects_garbage() {
        let child = [("PCKPT_SHARD", "0/1x1"), ("PCKPT_SHARD_OUT", "/f")];
        for (name, good, bad) in [
            ("PCKPT_RUNS", "auto:0.02:256", "1o00"),
            ("PCKPT_SEED", "61", "-1"),
            ("PCKPT_VR", "antithetic,stratified:4", "antithetc"),
            ("PCKPT_THREADS", "2", "two"),
            ("PCKPT_PREFILTER", "analytic:0.2", "analytic:-1"),
            ("PCKPT_SHARD", "3/2x2", "3of2"),
            ("PCKPT_SHARD_ATTEMPT", "2", "second"),
            ("PCKPT_SHARD_FAIL", "0:hang", "0:explode"),
            ("PCKPT_SHARD_TIMEOUT_SECS", "30", "0"),
            ("PCKPT_CACHE_MAX", "64", "lots"),
            ("PCKPT_JOURNAL_SYNC", "off", "sometimes"),
            ("PCKPT_SERVICE_FAIL", "crash:2", "crash:soon"),
        ] {
            let good = parse(&[(name, good), child[0], child[1]]);
            assert!(good.is_ok(), "{name}: {good:?}");
            let err = parse(&[(name, bad), child[0], child[1]]).expect_err(name);
            assert!(err.contains(name) && err.contains("expected"), "{err}");
        }
        assert!(parse(&child[..1]).is_err(), "PCKPT_SHARD alone");
        assert_eq!(parse(&[("PCKPT_RUNS", " ")]), Ok(Settings::default()));
        let service = parse(&[
            ("PCKPT_CACHE_DIR", "/c"),
            ("PCKPT_CACHE_MAX", "64"),
            ("PCKPT_JOURNAL_SYNC", "off"),
            ("PCKPT_SERVICE_FAIL", "crash:2"),
        ])
        .unwrap();
        let parsed = (service.cache_max, service.journal_sync, service.service_crash_after);
        assert_eq!(parsed, (Some(64), SyncPolicy::Off, Some(2)));
        assert_eq!(service.cache_dir, Some(PathBuf::from("/c")));
    }

    #[test]
    fn coordinator_child_env_parses_back_to_the_coordinators_campaign() {
        let mut plain = RunnerConfig::new(12, 61);
        plain.threads = 2;
        let mut vr = RunnerConfig::new(12, 61);
        vr.vr = parse_vr_spec("antithetic,stratified:4").unwrap();
        let prefiltered = (RunnerConfig::new(5, 3), Some(Prefilter::new(0.2)));
        for (config, prefilter) in [(plain, None), (vr, None), prefiltered] {
            let plan = ShardPlan::new(4, config.runs, 2, &config.vr);
            let out = PathBuf::from("/tmp/pckpt-shard-1.frame");
            let env = child_env(&config, prefilter.as_ref(), &plan, 1, &out, 2);
            let s = Settings::parse(|name| {
                let pair = env.iter().find(|(k, _)| *k == name);
                pair.map(|(_, v)| v.clone())
            })
            .unwrap();
            assert_eq!(s.runner(s.runs_or(1), s.seed.unwrap_or(0)), config);
            assert_eq!(s.prefilter, prefilter);
            let spec = s.shard.expect("child pairs carry the shard spec");
            let geometry = (spec.index, spec.run_splits, spec.group_splits);
            assert_eq!(geometry, (1, plan.run_splits, plan.group_splits));
            assert_eq!((spec.out, spec.fail), (out, None));
        }
    }
}
