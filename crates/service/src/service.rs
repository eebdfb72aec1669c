//! The campaign engine: reuse layers between a request and the
//! simulation pool, tried cheapest first for each surviving cell.
//!
//! 1. **Memory tier** ([`crate::flight::SingleFlight`]): each cell
//!    that entered this daemon stays resident as its *fold*, so a
//!    repeat is answered with no filesystem access, seal check, decode
//!    or fold. The same table is the single-flight admission layer:
//!    concurrent identical cells coalesce onto one computation.
//! 2. **Sweep journal** ([`crate::journal::Journal`]): every computed
//!    cell is appended (digest-checked) before it is published, so a
//!    killed daemon resumes the campaign re-executing only the cells
//!    that never completed — and the merged digest is bit-identical to
//!    an uninterrupted sweep. Opened only when some cell missed memory.
//! 3. **Content-addressed cache** ([`crate::cache::CellStore`]): a
//!    cell whose fingerprint was computed before — by any request, any
//!    daemon lifetime — is served from its sealed frame. The repo's
//!    determinism contract (per-cell grid aggregates are bit-identical
//!    to standalone runs regardless of pool composition) is what makes
//!    per-cell reuse *sound*: a cached frame folds to the exact bytes
//!    a fresh simulation would produce.
//!
//! A cell that misses all three is computed, and the fold the core
//! hands its cell sink ([`pckpt_core::CellResults::folded`]) is what
//! enters memory. Whatever layer a cell comes from, it is seal-checked
//! (if read from disk) and folded exactly once.
//!
//! Adaptive-allocation campaigns (`config.vr.adaptive`) are the one
//! shape none of this applies to: grid-pooled pilot feedback makes a
//! cell's results depend on which other cells share the pool, so such
//! requests bypass cache and journal entirely (same precedent as the
//! shard coordinator's in-process fallback) and are flagged
//! `"uncached":true` in the meta.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use pckpt_core::{
    campaign_fingerprints, run_grid_filtered, run_grid_with_cell_sink, splice_pruned, split_cells,
    CampaignResult, CellFold, Fingerprint, GridCell, GridResult, PoolStats, RunResult,
    RunnerConfig, Settings,
};
use pckpt_failure::LeadTimeModel;

use crate::cache::CellStore;
use crate::cellframe::{CellFrame, CellFrameReader};
use crate::flight::{Claim, LeaderGuard, SingleFlight};
use crate::journal::{Journal, SyncPolicy};
use crate::request::CampaignRequest;

/// A cell's folded result and attained relative CI: what the memory
/// tier holds. `CampaignResult::threads` is stamped per request.
type Folded = (CampaignResult, f64);

/// Service configuration (directories, retention and defaults).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Cell-cache directory (`None` disables the persistent cache).
    pub cache_dir: Option<PathBuf>,
    /// Journal directory (`None` disables crash-safe journaling).
    pub state_dir: Option<PathBuf>,
    /// Maximum cells retained on disk.
    pub cache_max: usize,
    /// Maximum folded cells retained in memory.
    pub mem_max: usize,
    /// Journal sync policy.
    pub sync: SyncPolicy,
    /// Worker threads for requests that leave `threads` at 0 (0 = one
    /// per available core).
    pub threads: usize,
    /// Test hook (`PCKPT_SERVICE_FAIL=crash:<k>`): exit with status 13
    /// right after the `k`-th journal append, to exercise resume.
    pub crash_after: Option<u64>,
}

impl ServiceConfig {
    /// A config rooted at explicit directories, with default retention,
    /// `SyncPolicy::Always` and auto threads.
    pub fn in_dirs(cache_dir: Option<PathBuf>, state_dir: Option<PathBuf>) -> ServiceConfig {
        ServiceConfig {
            cache_dir,
            state_dir,
            cache_max: 4096,
            mem_max: 256,
            sync: SyncPolicy::Always,
            threads: 0,
            crash_after: None,
        }
    }

    /// The config `settings` describe: `PCKPT_CACHE_DIR` with the
    /// journal beside it (`<cache>/journal/`), `PCKPT_CACHE_MAX`,
    /// `PCKPT_JOURNAL_SYNC`, `PCKPT_THREADS` and `PCKPT_SERVICE_FAIL`.
    pub fn from_settings(settings: &Settings) -> ServiceConfig {
        let cache_dir = settings.cache_dir.clone();
        let state_dir = cache_dir.as_ref().map(|d| d.join("journal"));
        let mut cfg = Self::in_dirs(cache_dir, state_dir);
        cfg.cache_max = settings.cache_max.unwrap_or(cfg.cache_max);
        cfg.sync = settings.journal_sync;
        cfg.threads = settings.threads;
        cfg.crash_after = settings.service_crash_after;
        cfg
    }
}

/// Per-request accounting, reported in the response meta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceMeta {
    /// Survivor cells served from the memory tier or the persistent
    /// cache.
    pub cache_hits: u64,
    /// Survivor cells not found in any reuse layer (computed fresh).
    pub cache_misses: u64,
    /// Survivor cells served by waiting on another request's
    /// computation (single-flight coalescing).
    pub coalesced: u64,
    /// Cells this request actually simulated.
    pub computed_cells: u64,
    /// Cells recovered from a pre-existing journal (crash resume).
    pub journal_recovered: u64,
    /// Cells appended to the journal by this request.
    pub journal_appended: u64,
    /// Cells answered analytically (never simulated, never cached).
    pub pruned: u64,
    /// Whether the request bypassed the reuse layers entirely
    /// (adaptive allocation).
    pub uncached: bool,
}

/// A completed campaign: the spliced grid plus service accounting.
pub struct ServiceOutcome {
    /// The full-input-order grid result (pruned cells spliced in).
    pub grid: GridResult,
    /// Cache/journal/flight accounting for this request.
    pub meta: ServiceMeta,
}

impl ServiceOutcome {
    /// The grid's `meta_json` with the service accounting fields
    /// injected (same object, extra keys), e.g.
    /// `..,"cache_hits":3,"cache_misses":1,..,"uncached":false}`.
    pub fn meta_json(&self, name: &str) -> String {
        let base = self.grid.meta_json(name);
        let open = base.strip_suffix('}').unwrap_or(&base);
        format!(
            "{open},\"cache_hits\":{},\"cache_misses\":{},\"coalesced\":{},\
             \"computed_cells\":{},\"journal_recovered\":{},\"journal_appended\":{},\
             \"service_pruned\":{},\"uncached\":{}}}",
            self.meta.cache_hits,
            self.meta.cache_misses,
            self.meta.coalesced,
            self.meta.computed_cells,
            self.meta.journal_recovered,
            self.meta.journal_appended,
            self.meta.pruned,
            self.meta.uncached,
        )
    }
}

/// One request's handle on its campaign's journal lock. Dropping it
/// removes the table entry when no other request holds the lock, so the
/// table stays as small as the set of campaigns in flight.
struct CampaignLock<'a> {
    locks: &'a Mutex<BTreeMap<u128, Arc<Mutex<()>>>>,
    key: u128,
    lock: Arc<Mutex<()>>,
}

impl Drop for CampaignLock<'_> {
    fn drop(&mut self) {
        let mut locks = self.locks.lock().unwrap_or_else(PoisonError::into_inner);
        // Under the table lock no request can take a new handle, so the
        // table's reference plus this one means nobody else holds it.
        if Arc::strong_count(&self.lock) == 2 {
            locks.remove(&self.key);
        }
    }
}

/// The long-running campaign service. One instance per daemon; shared
/// across connection threads behind an `Arc`.
pub struct Service {
    cfg: ServiceConfig,
    store: CellStore,
    flight: SingleFlight<Folded>,
    /// Per-campaign journal locks: identical concurrent campaigns
    /// serialize on their shared journal file; distinct campaigns
    /// proceed in parallel. An entry lives only while some request
    /// holds it ([`CampaignLock`]).
    journal_locks: Mutex<BTreeMap<u128, Arc<Mutex<()>>>>,
    leads: LeadTimeModel,
    /// Journal appends across all campaigns (the `crash_after` hook).
    appends: AtomicU64,
}

impl Service {
    /// Opens the service (creating cache directories as needed).
    pub fn open(cfg: ServiceConfig) -> Result<Service, String> {
        let store = CellStore::open(cfg.cache_dir.as_deref(), cfg.cache_max)?;
        let flight = SingleFlight::new(cfg.mem_max);
        Ok(Service {
            store,
            flight,
            journal_locks: Mutex::new(BTreeMap::new()),
            leads: LeadTimeModel::desh_default(),
            appends: AtomicU64::new(0),
            cfg,
        })
    }

    /// The shared lead-time model requests run against.
    pub fn leads(&self) -> &LeadTimeModel {
        &self.leads
    }

    fn campaign_lock(&self, fp: Fingerprint) -> CampaignLock<'_> {
        let key = fp.as_u128();
        let mut locks = self
            .journal_locks
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let lock = Arc::clone(locks.entry(key).or_default());
        CampaignLock {
            locks: &self.journal_locks,
            key,
            lock,
        }
    }

    /// Validates recovered/cached bytes as the frame for `cell`
    /// (fingerprint `fp`), folds them and publishes the fold to the
    /// memory tier. This is the only place stored bytes are read: one
    /// seal check, then the results stream straight into `CellFold`
    /// through one scratch value. `None` (damage, wrong identity or
    /// shape) sends the cell on to the next layer.
    fn adopt(
        &self,
        fp: Fingerprint,
        cell: &GridCell,
        bytes: &[u8],
        config: &RunnerConfig,
    ) -> Option<Arc<Folded>> {
        let mut reader = CellFrameReader::open(bytes, Some(fp)).ok()?;
        if reader.lanes as usize != cell.models.len() || reader.runs as usize != config.runs {
            return None;
        }
        let mut fold = CellFold::new(cell, config, 0);
        let mut scratch = RunResult::default();
        for _ in 0..cell.models.len() * config.runs {
            reader.next_result_into(&mut scratch).ok()?;
            fold.push(&scratch);
        }
        let folded = Arc::new(fold.finish());
        self.flight.publish(fp.as_u128(), Arc::clone(&folded));
        Some(folded)
    }

    /// Serves one campaign request through the reuse layers: memory,
    /// then journal, then disk cache, then compute.
    pub fn execute(&self, req: &CampaignRequest) -> Result<ServiceOutcome, String> {
        let mut config = req.config;
        if config.threads == 0 {
            config.threads = self.cfg.threads;
        }
        let config = &config;
        if config.vr.adaptive.is_some() {
            // Grid-pooled adaptive feedback: cell results depend on
            // pool composition, so frames are not independently
            // addressable. Run uncached (shard.rs precedent).
            let grid = run_grid_filtered(&req.cells, &self.leads, config, req.prefilter.as_ref());
            let meta = ServiceMeta {
                pruned: grid.cells_pruned as u64,
                computed_cells: grid.cells_simulated() as u64,
                uncached: true,
                ..ServiceMeta::default()
            };
            return Ok(ServiceOutcome { grid, meta });
        }

        let (verdicts, survivors) = split_cells(&req.cells, &self.leads, req.prefilter.as_ref());
        let mut meta = ServiceMeta {
            pruned: (req.cells.len() - survivors.len()) as u64,
            ..ServiceMeta::default()
        };

        let (fps, campaign_fp) =
            campaign_fingerprints(&survivors, self.leads.digest(), config, req.prefilter.as_ref());

        // Serialize identical concurrent campaigns on their journal.
        let campaign = self.campaign_lock(campaign_fp);
        let _held = campaign.lock.lock().unwrap_or_else(PoisonError::into_inner);

        // Memory tier first: a resident cell is already folded.
        let mut resolved: Vec<Option<Arc<Folded>>> =
            fps.iter().map(|fp| self.flight.peek(fp.as_u128())).collect();
        meta.cache_hits = resolved.iter().flatten().count() as u64;

        // The journal is opened only when some cell missed memory, and
        // only those cells are adopted from it.
        let mut journal = match self.cfg.state_dir.as_ref() {
            Some(dir) if resolved.iter().any(Option::is_none) => {
                let path = dir.join(format!("{}.journal", campaign_fp.hex()));
                let (journal, recovered) =
                    Journal::open(&path, campaign_fp, survivors.len(), self.cfg.sync)?;
                // Recovered cells re-enter every layer: a resumed
                // daemon serves them without re-execution.
                for (idx, bytes) in recovered {
                    if resolved[idx].is_some() {
                        continue;
                    }
                    if let Some(folded) = self.adopt(fps[idx], &survivors[idx], &bytes, config) {
                        self.store.put(fps[idx], &bytes)?;
                        meta.journal_recovered += 1;
                        resolved[idx] = Some(folded);
                    }
                }
                Some(journal)
            }
            _ => None,
        };

        // Layer pass: resolve every remaining survivor to Ready /
        // Leader / Pending. All claims happen before any wait
        // (deadlock-free coalescing; see crate::flight).
        let mut to_compute: Vec<usize> = Vec::new();
        let mut pending: Vec<usize> = Vec::new();
        for i in 0..survivors.len() {
            if resolved[i].is_some() {
                continue;
            }
            if let Some(bytes) = self.store.get(fps[i]) {
                if let Some(folded) = self.adopt(fps[i], &survivors[i], &bytes, config) {
                    resolved[i] = Some(folded);
                    meta.cache_hits += 1;
                    continue;
                }
            }
            match self.flight.claim(fps[i].as_u128()) {
                Claim::Ready(folded) => {
                    resolved[i] = Some(folded);
                    meta.cache_hits += 1;
                }
                Claim::Leader => {
                    meta.cache_misses += 1;
                    to_compute.push(i);
                }
                Claim::Pending => {
                    meta.coalesced += 1;
                    pending.push(i);
                }
            }
        }

        // Compute everything this request leads as one pooled grid.
        let mut computed_grid: Option<GridResult> = None;
        if !to_compute.is_empty() {
            computed_grid = Some(self.compute_batch(
                &survivors,
                &fps,
                &to_compute,
                config,
                journal.as_mut(),
                &mut resolved,
                &mut meta,
            )?);
        }

        // Only now wait on cells other requests lead.
        for i in pending {
            loop {
                if let Some(folded) = self.flight.wait(fps[i].as_u128()) {
                    resolved[i] = Some(folded);
                    break;
                }
                // The leader abandoned this cell; take over.
                match self.flight.claim(fps[i].as_u128()) {
                    Claim::Ready(folded) => {
                        resolved[i] = Some(folded);
                        break;
                    }
                    Claim::Pending => continue,
                    Claim::Leader => {
                        let solo = [i];
                        let grid = self.compute_batch(
                            &survivors,
                            &fps,
                            &solo,
                            config,
                            journal.as_mut(),
                            &mut resolved,
                            &mut meta,
                        )?;
                        if computed_grid.is_none() {
                            computed_grid = Some(grid);
                        }
                        break;
                    }
                }
            }
        }

        // Assemble the survivor grid from the folds, stamping this
        // request's thread count onto each cell (one when no pool ran).
        let idle = || PoolStats {
            threads: 1,
            ..PoolStats::default()
        };
        let pool = computed_grid.as_ref().map_or_else(idle, PoolStats::from);
        let folds = resolved
            .iter()
            .enumerate()
            .map(|(i, folded)| {
                let (campaign, ci) = folded
                    .as_deref()
                    .ok_or_else(|| format!("cell {i} unresolved after compute/wait"))?;
                let campaign = CampaignResult {
                    threads: pool.threads,
                    ..campaign.clone()
                };
                Ok((campaign, *ci))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let simulated = (!survivors.is_empty()).then(|| {
            let cell_runs = vec![config.runs; survivors.len()];
            GridResult::assemble(&survivors, folds, cell_runs, config.runs, pool, &self.leads)
        });

        let grid = splice_pruned(&req.cells, &self.leads, config, verdicts, simulated);
        Ok(ServiceOutcome { grid, meta })
    }

    /// Runs the `indices` subset of `survivors` as one pooled grid,
    /// journaling, caching and publishing each cell's fold as the core
    /// finishes it.
    #[allow(clippy::too_many_arguments)]
    fn compute_batch(
        &self,
        survivors: &[GridCell],
        fps: &[Fingerprint],
        indices: &[usize],
        config: &RunnerConfig,
        mut journal: Option<&mut Journal>,
        resolved: &mut [Option<Arc<Folded>>],
        meta: &mut ServiceMeta,
    ) -> Result<GridResult, String> {
        let subset: Vec<GridCell> = indices.iter().map(|&i| survivors[i].clone()).collect();
        let mut guard = LeaderGuard::new(
            &self.flight,
            indices.iter().map(|&i| fps[i].as_u128()).collect(),
        );
        let mut sink_err: Option<String> = None;
        let mut appended = 0u64;
        let grid = run_grid_with_cell_sink(&subset, &self.leads, config, &mut |cr| {
            if sink_err.is_some() {
                return;
            }
            let survivor_idx = indices[cr.cell];
            let fp = fps[survivor_idx];
            let bytes = CellFrame {
                fp,
                lanes: cr.lanes as u32,
                runs: cr.runs as u64,
                results: cr.iter().cloned().collect(),
            }
            .encode();
            if let Some(j) = journal.as_deref_mut() {
                if let Err(e) = j.append_cell(survivor_idx, &bytes) {
                    sink_err = Some(e);
                    return;
                }
                appended += 1;
                let total = self.appends.fetch_add(1, Ordering::SeqCst) + 1;
                if self.cfg.crash_after.is_some_and(|k| total >= k) {
                    std::process::exit(13);
                }
            }
            if let Err(e) = self.store.put(fp, &bytes) {
                sink_err = Some(e);
                return;
            }
            let folded = Arc::new(cr.folded().clone());
            self.flight.publish(fp.as_u128(), Arc::clone(&folded));
            guard.published(fp.as_u128());
            resolved[survivor_idx] = Some(folded);
        });
        drop(guard); // Abandons anything the sink never published.
        if let Some(e) = sink_err {
            return Err(e);
        }
        meta.computed_cells += indices.len() as u64;
        meta.journal_appended += appended;
        Ok(grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::parse_request;

    #[test]
    fn journal_lock_table_empties_after_each_campaign() {
        let service = Service::open(ServiceConfig::in_dirs(None, None)).expect("open service");
        for seed in 0..5 {
            let req = parse_request(&format!(
                r#"{{"app":"POP","models":["B"],"runs":1,"seed":{seed},"threads":1}}"#
            ))
            .expect("request parses");
            service.execute(&req).expect("request runs");
        }
        let locks = service.journal_locks.lock().unwrap();
        assert!(locks.is_empty(), "{} journal locks left behind", locks.len());
    }
}
