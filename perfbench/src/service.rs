//! The `service_mix` workload: campaign requests against `pckptd`.
//!
//! Requests come from a catalog made from the seed. Three in four are
//! *warm*: repeats of four Fig.-4-shaped campaigns (one of them over
//! B/M2/P1 crossover cells with `"prefilter":"analytic"`) computed
//! before the daemon starts, so the daemon replays their journals,
//! decodes and folds stored frames and simulates nothing. One in four
//! is *cold*: a single-cell campaign with a fresh seed and
//! `"threads":1`, which the daemon computes, encodes, caches and
//! journals. Reads and writes thus pass through the same layers side by
//! side.
//!
//! The end-to-end run drives a spawned `pckptd serve` with one
//! closed-loop client over its Unix socket. The traced run replays the
//! same kind of sequence on one thread against an in-process `Service`,
//! then times each layer's public calls on the same inputs.

use std::hint::black_box;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use pckpt_core::{
    campaign_fingerprints, fold_cell_results, run_grid_filtered, run_grid_with_cell_sink, CellFold,
    GridCell, RunResult,
};
use pckpt_failure::LeadTimeModel;
use pckpt_service::json::{parse, Json};
use pckpt_service::{
    grid_digest, parse_request, respond, submit_unix, CellFrame, CellFrameReader, CellStore,
    Journal, Service, ServiceConfig, SyncPolicy,
};
use pckpt_simrng::SimRng;

use crate::report::{
    median, peak_rss_mb, print_provenance, quantile, secs, LayerTable, Outcome, Stopwatch,
};
use crate::{nproc, Args};

/// Daemon start-ups timed per run, spread evenly over the timed window
/// so that they meet the same host conditions as the requests;
/// `setup_s` is their median.
const SETUP_REPS: u32 = 20;
/// Closed-loop client connections. Each warm repeat rewrites the cache
/// index once per cell; with a second client that file traffic slowed
/// the virtual disk from one run to the next.
const CLIENTS: u64 = 1;
/// Runs per cell of the warm campaigns (12 cells × 2 or 3 models).
const RUNS_WARM: usize = 512;
/// Runs per cell of a cold single-cell campaign (2 models): enough that
/// a cold request takes longer than any warm one.
const RUNS_COLD: usize = 256;
/// The journal sync policy the daemon runs with. The daemon's default,
/// `always`, puts an fsync on every cold cell, and on a shared virtual
/// disk those latencies follow the host's other traffic more than the
/// program; `off` still journals every cell through the page cache.
const JOURNAL_SYNC: &str = "off";
const SYNC: SyncPolicy = SyncPolicy::Off;
/// Fixes glibc's otherwise adaptive mmap threshold and arena count in
/// the daemon, so its peak resident set follows what it holds rather
/// than the order in which per-connection threads freed memory.
const MALLOC_TUNABLES: &str = "glibc.malloc.mmap_threshold=131072:glibc.malloc.arena_max=2";
/// Retention caps of the daemon's defaults.
const CACHE_MAX: usize = 4096;
const MEM_MAX: usize = 256;

const APPS: [&str; 3] = ["CHIMERA", "XGC", "POP"];
/// Cold requests all simulate one application, so they form a single
/// latency mode above the warm requests: with one request in four cold,
/// `op_p50_ms` falls inside the warm mode and `op_p90_ms` inside the
/// cold one, not on an edge between two modes.
const COLD_APP: &str = "CHIMERA";
const SCALES: [f64; 4] = [1.5, 1.1, 0.9, 0.5];

/// The warm catalog: three Fig.-4 campaigns and one prefiltered
/// crossover campaign, each with its own seed.
fn warm_catalog(seed: u64, threads: usize) -> Vec<String> {
    let mut rng = SimRng::seed_from(seed).split(0);
    let apps = APPS.map(|a| format!("\"{a}\"")).join(",");
    let scales = SCALES.map(|s| s.to_string()).join(",");
    let mut catalog = Vec::new();
    for k in 0..4 {
        let (models, prefilter) = if k == 3 {
            ("\"B\",\"M2\",\"P1\"", ",\"prefilter\":\"analytic\"")
        } else {
            ("\"B\",\"M2\"", "")
        };
        catalog.push(format!(
            "{{\"name\":\"warm{k}\",\"apps\":[{apps}],\"scales\":[{scales}],\
             \"models\":[{models}],\"runs\":{RUNS_WARM},\"seed\":{},\"threads\":{threads}{prefilter}}}",
            rng.next_raw() >> 24
        ));
    }
    catalog
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Warm(usize),
    Cold,
}

struct Request {
    kind: Kind,
    text: String,
}

/// Request `i` of client stream `stream`. Every fourth request is cold;
/// cold requests cycle through the lead scales of one application and
/// warm ones through the catalog, so every run has the same mix of
/// request costs and the seed sets only the campaign seeds.
fn request(seed: u64, stream: u64, i: u64, warm: &[String]) -> Request {
    // Staggered so that concurrent streams do not go cold together.
    let j = i + 2 * stream;
    let (round, slot) = (j / 4, j % 4);
    if slot == 3 {
        let scale = SCALES[(round % SCALES.len() as u64) as usize];
        let cold_seed = SimRng::seed_from(seed)
            .split(1 + stream)
            .split(i)
            .next_raw()
            >> 24;
        let text = format!(
            "{{\"name\":\"cold\",\"app\":\"{COLD_APP}\",\"scale\":{scale},\"models\":[\"B\",\"M2\"],\
             \"runs\":{RUNS_COLD},\"seed\":{cold_seed},\"threads\":1}}"
        );
        Request {
            kind: Kind::Cold,
            text,
        }
    } else {
        let k = ((3 * round + slot) % warm.len() as u64) as usize;
        Request {
            kind: Kind::Warm(k),
            text: warm[k].clone(),
        }
    }
}

/// The digest a request must produce, from a direct sweep of its cells,
/// and the (cell, model, run) results it delivers.
fn oracle(text: &str, leads: &LeadTimeModel, threads: usize) -> Result<(String, u64), String> {
    let req = parse_request(text)?;
    let mut config = req.config;
    config.threads = threads;
    let grid = run_grid_filtered(&req.cells, leads, &config, req.prefilter.as_ref());
    let results = grid
        .cells
        .iter()
        .zip(&grid.cell_runs)
        .map(|(c, &runs)| (c.aggregates.len() * runs) as u64)
        .sum();
    Ok((grid_digest(&grid).hex(), results))
}

/// The checked parts of a response.
struct Response {
    ok: bool,
    digest: Option<String>,
    meta: Option<Json>,
}

fn parse_response(body: &str) -> Response {
    let lines: Vec<&str> = body.lines().collect();
    let ok = lines.last() == Some(&"OK") && !lines.iter().any(|l| l.starts_with("ERR"));
    let field = |tag: &str| lines.iter().find_map(|l| l.strip_prefix(tag));
    Response {
        ok,
        digest: field("DIGEST ").map(str::to_string),
        meta: field("SERVICE_JSON ").and_then(|m| parse(m).ok()),
    }
}

fn meta_count(meta: &Option<Json>, key: &str) -> u64 {
    meta.as_ref()
        .and_then(|m| m.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// A fresh scratch directory inside the working directory, removed
/// (with everything in it) when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Result<Scratch, String> {
        let dir = Path::new(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run's directory is left.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// A spawned `pckptd serve`, killed and reaped on drop.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Spawns a daemon over the default cache/journal layout in `dir`
    /// and returns it with the time until its socket accepted.
    fn spawn(pckptd: &Path, dir: &Path) -> Result<(Daemon, Duration), String> {
        let socket = dir.join("d.sock");
        let started = Stopwatch::start();
        let child = Command::new(pckptd)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--cache-dir")
            .arg(dir.join("cache"))
            .env_clear()
            .env("PCKPT_JOURNAL_SYNC", JOURNAL_SYNC)
            .env("GLIBC_TUNABLES", MALLOC_TUNABLES)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", pckptd.display()))?;
        let mut daemon = Daemon { child, socket };
        while UnixStream::connect(&daemon.socket).is_err() {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("pckptd exited during start-up: {status}"));
            }
            if started.elapsed() > Duration::from_secs(30) {
                return Err("pckptd did not accept within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        Ok((daemon, started.elapsed()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Computes the warm catalog with `pckptd once` over the cache
/// directory the daemon will serve from, so every warm campaign is
/// journaled and cached before the daemon starts, and checks each
/// response against its oracle.
fn prewarm(
    pckptd: &Path,
    dir: &Path,
    warm: &[String],
    oracles: &[(String, u64)],
    out: &mut Outcome,
) -> Result<(), String> {
    let requests = dir.join("requests");
    std::fs::create_dir_all(&requests)
        .map_err(|e| format!("create {}: {e}", requests.display()))?;
    for (k, text) in warm.iter().enumerate() {
        let file = requests.join(format!("warm{k}.json"));
        std::fs::write(&file, text).map_err(|e| format!("write {}: {e}", file.display()))?;
    }
    let output = Command::new(pckptd)
        .arg("once")
        .arg("--request")
        .arg(&requests)
        .arg("--cache-dir")
        .arg(dir.join("cache"))
        .env_clear()
        .env("PCKPT_JOURNAL_SYNC", JOURNAL_SYNC)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("run {}: {e}", pckptd.display()))?;
    // One response per request file, in file-name order, each ending
    // with `OK` or consisting of one `ERR` line.
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut responses = Vec::new();
    let mut current = String::new();
    for line in stdout.lines() {
        current.push_str(line);
        current.push('\n');
        if line == "OK" || line.starts_with("ERR") {
            responses.push(parse_response(&std::mem::take(&mut current)));
        }
    }
    for (k, (digest, _)) in oracles.iter().enumerate() {
        let response = responses.get(k);
        out.check(
            output.status.success()
                && response.is_some_and(|r| r.ok && r.digest.as_ref() == Some(digest)),
        );
    }
    Ok(())
}

struct Sample {
    request: Request,
    secs: f64,
    response: Response,
}

/// One closed-loop client: sends its next request when the previous
/// response has arrived, until the deadline.
fn client(
    socket: &Path,
    seed: u64,
    stream: u64,
    warm: &[String],
    run: Stopwatch,
    seconds: f64,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut i = 0;
    while run.secs() < seconds {
        let request = request(seed, stream, i, warm);
        let started = Stopwatch::start();
        let body = submit_unix(socket, &request.text);
        let secs = started.secs();
        let response = body.map_or_else(
            |e| {
                eprintln!("service_mix: request failed: {e}");
                Response {
                    ok: false,
                    digest: None,
                    meta: None,
                }
            },
            |body| parse_response(&body),
        );
        samples.push(Sample {
            request,
            secs,
            response,
        });
        i += 1;
    }
    samples
}

/// `--trace 0`: the daemon under one closed-loop client.
pub fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let threads = nproc();
    print_provenance("service_mix", args.seed, threads, JOURNAL_SYNC);
    let pckptd = args.pckptd.as_deref().ok_or("service_mix needs --pckptd")?;
    let scratch = Scratch::new("service_mix")?;
    let leads = LeadTimeModel::desh_default();
    let warm = warm_catalog(args.seed, threads);
    let oracles: Vec<(String, u64)> = warm
        .iter()
        .map(|t| oracle(t, &leads, threads))
        .collect::<Result<_, _>>()?;

    let mut out = Outcome::default();
    let dir = scratch.path();
    prewarm(pckptd, dir, &warm, &oracles, &mut out)?;
    let (daemon, _) = Daemon::spawn(pckptd, dir)?;

    let run = Stopwatch::start();
    let mut setups = Vec::new();
    let samples: Vec<Sample> = std::thread::scope(|s| -> Result<Vec<Sample>, String> {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|stream| {
                let (socket, warm) = (&daemon.socket, &warm);
                s.spawn(move || client(socket, args.seed, stream, warm, run, args.seconds))
            })
            .collect();
        // Meanwhile, start and stop spare daemons on fresh directories.
        for k in 0..SETUP_REPS {
            let due = Duration::from_secs_f64(args.seconds) * k / SETUP_REPS;
            std::thread::sleep(due.saturating_sub(run.elapsed()));
            let spare = dir.join(format!("spare{k}"));
            std::fs::create_dir_all(&spare)
                .map_err(|e| format!("create {}: {e}", spare.display()))?;
            setups.push(secs(Daemon::spawn(pckptd, &spare)?.1));
        }
        Ok(handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect())
    })?;
    let window = run.secs();
    let rss = peak_rss_mb(Some(daemon.child.id()));
    drop(daemon);

    let mut results = 0u64;
    for sample in &samples {
        let (digest, delivered) = match sample.request.kind {
            Kind::Warm(k) => oracles[k].clone(),
            Kind::Cold => oracle(&sample.request.text, &leads, threads)?,
        };
        let ok = sample.response.ok && sample.response.digest.as_ref() == Some(&digest);
        out.check(ok);
        if ok {
            results += delivered;
        }
    }
    let latencies: Vec<f64> = samples.iter().map(|s| s.secs).collect();
    out.push("setup_s", median(&setups), "s");
    out.push("results_per_s", results as f64 / window, "1/s");
    out.push("op_p50_ms", 1e3 * quantile(&latencies, 0.5), "ms");
    out.push("op_p90_ms", 1e3 * quantile(&latencies, 0.9), "ms");
    out.push("peak_rss_mb", rss, "MiB");
    let cold = samples
        .iter()
        .filter(|s| s.request.kind == Kind::Cold)
        .count();
    eprintln!("service_mix: {} requests ({cold} cold)", samples.len());
    Ok(out)
}

/// Per-layer sums of the traced replay.
#[derive(Default)]
struct Probes {
    requests: u64,
    warm: u64,
    cold: u64,
    parse_ns: f64,
    fingerprint_ns: f64,
    warm_journal_open_ns: f64,
    recovered: u64,
    get_ns: f64,
    get_cells: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
    decode_ns: f64,
    decoded: u64,
    render_ns: f64,
    prefilter_ns: f64,
    prefilter_cells: u64,
    pruned: u64,
    cold_compute_ns: f64,
    warm_compute_ns: f64,
    encode_ns: f64,
    put_ns: f64,
    append_ns: f64,
    written_cells: u64,
    frame_bytes: u64,
    fold_ns: f64,
    folded: u64,
}

struct Replica {
    service: Service,
    leads: LeadTimeModel,
    journal_dir: PathBuf,
    /// Read-only view of the service's cache, for timing reads.
    live: CellStore,
    /// A second store and journal directory that receive the writes
    /// the service made, for timing writes without touching its state.
    probe_store: CellStore,
    probe_journals: PathBuf,
    threads: usize,
}

/// Times each layer's public calls on one request the service has just
/// answered (`meta` is its response accounting), adding them to
/// `table` and `p`.
fn probe(
    r: &Replica,
    request: &Request,
    meta: &Option<Json>,
    seq: u64,
    table: &mut LayerTable,
    p: &mut Probes,
) -> Result<bool, String> {
    let t = Stopwatch::start();
    let req = parse_request(&request.text)?;
    let parse_ns = t.ns();
    p.parse_ns += parse_ns;
    table.add("service.request", parse_ns);

    let survivors: Vec<&GridCell> = match req.prefilter.as_ref() {
        Some(pf) => {
            let t = Stopwatch::start();
            let verdicts: Vec<_> = req
                .cells
                .iter()
                .map(|c| pf.cell_verdict(c, &r.leads))
                .collect();
            let took = t.ns();
            p.prefilter_ns += took;
            table.add("prefilter", took);
            p.prefilter_cells += req.cells.len() as u64;
            p.pruned += verdicts.iter().filter(|v| v.is_some()).count() as u64;
            req.cells
                .iter()
                .zip(&verdicts)
                .filter(|(_, v)| v.is_none())
                .map(|(c, _)| c)
                .collect()
        }
        None => req.cells.iter().collect(),
    };
    let survivors: Vec<GridCell> = survivors.into_iter().cloned().collect();

    let t = Stopwatch::start();
    let (fps, campaign_fp) = campaign_fingerprints(
        &survivors,
        r.leads.digest(),
        &req.config,
        req.prefilter.as_ref(),
    );
    let took = t.ns();
    p.fingerprint_ns += took;
    table.add("service.fingerprint", took);

    let (hits, recovered) = (
        meta_count(meta, "cache_hits"),
        meta_count(meta, "journal_recovered"),
    );
    p.hits += hits;
    p.misses += meta_count(meta, "cache_misses");
    p.coalesced += meta_count(meta, "coalesced");
    let mut digest_ok = true;
    if meta_count(meta, "computed_cells") == 0 {
        // A read: journal recovery, frame validation and decode, fold.
        let path = r.journal_dir.join(format!("{}.journal", campaign_fp.hex()));
        let t = Stopwatch::start();
        let (journal, frames) = Journal::open(&path, campaign_fp, survivors.len(), SYNC)?;
        let took = t.ns();
        drop(journal);
        p.warm_journal_open_ns += took;
        table.add("service.journal", took);
        p.recovered += recovered;
        let (mut get_ns, mut put_ns) = (0.0, 0.0);
        for (i, cell) in survivors.iter().enumerate() {
            let t = Stopwatch::start();
            let cached = r.live.get(fps[i]);
            get_ns += t.ns();
            let bytes = frames
                .get(&i)
                .cloned()
                .or(cached)
                .ok_or_else(|| format!("cell {i} of a warm request is stored nowhere"))?;
            // The service re-puts each recovered frame; the entry exists.
            r.probe_store.put(fps[i], &bytes)?;
            let t = Stopwatch::start();
            r.probe_store.put(fps[i], &bytes)?;
            put_ns += t.ns();

            let mut decoded = vec![RunResult::default(); cell.models.len() * req.config.runs];
            let t = Stopwatch::start();
            CellFrameReader::open(&bytes, Some(fps[i]))?;
            let mut reader = CellFrameReader::open(&bytes, Some(fps[i]))?;
            for slot in decoded.iter_mut() {
                reader.next_result_into(slot)?;
            }
            let took = t.ns();
            p.decode_ns += took;
            table.add("service.cellframe", took);
            p.decoded += decoded.len() as u64;

            let t = Stopwatch::start();
            let mut fold = CellFold::new(cell, &req.config, 1);
            for result in &decoded {
                fold.push(result);
            }
            black_box(fold.finish());
            let took = t.ns();
            p.fold_ns += took;
            table.add("fold", took);
            p.folded += decoded.len() as u64;
        }
        let cells = survivors.len().max(1) as f64;
        p.get_ns += get_ns;
        p.get_cells += survivors.len() as u64;
        // The table counts the cache calls the request made.
        table.add(
            "service.cache",
            put_ns / cells * recovered as f64 + get_ns / cells * hits as f64,
        );
    } else {
        // A write: compute, then encode, journal and cache each cell.
        let path = r.probe_journals.join(format!("{seq}.journal"));
        let t = Stopwatch::start();
        let (mut journal, _) = Journal::open(&path, campaign_fp, survivors.len(), SYNC)?;
        table.add("service.journal", t.ns());
        let mut frames = Vec::with_capacity(survivors.len());
        let t = Stopwatch::start();
        let grid = run_grid_with_cell_sink(&survivors, &r.leads, &req.config, &mut |cr| {
            frames.push(CellFrame {
                fp: fps[cr.cell],
                lanes: cr.lanes as u32,
                runs: cr.runs as u64,
                results: cr.iter().cloned().collect(),
            });
        });
        let took = t.ns();
        table.add("service.compute", took);
        match request.kind {
            Kind::Cold => p.cold_compute_ns += took,
            Kind::Warm(_) => p.warm_compute_ns += took,
        }
        if req.prefilter.is_none() {
            digest_ok = grid_digest(&grid).hex() == oracle(&request.text, &r.leads, r.threads)?.0;
        }
        for (i, frame) in frames.iter().enumerate() {
            let t = Stopwatch::start();
            let bytes = frame.encode();
            let encode = t.ns();
            let t = Stopwatch::start();
            journal.append_cell(i, &bytes)?;
            let append = t.ns();
            let t = Stopwatch::start();
            r.probe_store.put(frame.fp, &bytes)?;
            let put = t.ns();
            let t = Stopwatch::start();
            black_box(fold_cell_results(
                &survivors[i],
                &req.config,
                &frame.results,
                1,
            ));
            let fold = t.ns();
            p.encode_ns += encode;
            p.append_ns += append;
            p.put_ns += put;
            p.fold_ns += fold;
            p.folded += frame.results.len() as u64;
            p.written_cells += 1;
            p.frame_bytes += bytes.len() as u64;
            table.add("service.cellframe", encode);
            table.add("service.journal", append);
            table.add("service.cache", put);
            table.add("fold", fold);
        }
    }

    // Render: the public parts of the response (campaign digest and
    // service meta) over a repeat's outcome, which has the same shape;
    // the per-cell lines are formatted inline and stay unattributed.
    let outcome = r.service.execute(&req)?;
    let t = Stopwatch::start();
    black_box(grid_digest(&outcome.grid));
    black_box(outcome.meta_json(&req.name));
    let render_ns = t.ns();
    p.render_ns += render_ns;
    table.add("service.server", render_ns);

    p.requests += 1;
    match request.kind {
        Kind::Warm(_) => p.warm += 1,
        Kind::Cold => p.cold += 1,
    }
    Ok(digest_ok)
}

/// `--trace 1`: a single-threaded in-process replay, untraced then
/// traced, with every layer's calls timed on each traced request.
pub fn traced(args: &Args) -> Result<Outcome, String> {
    let threads = nproc();
    print_provenance("service_mix", args.seed, threads, JOURNAL_SYNC);
    let scratch = Scratch::new("service_mix")?;
    let cache_dir = scratch.path().join("cache");
    let journal_dir = cache_dir.join("journal");
    let mut config = ServiceConfig::in_dirs(Some(cache_dir.clone()), Some(journal_dir.clone()));
    config.cache_max = CACHE_MAX;
    config.mem_max = MEM_MAX;
    config.sync = SYNC;
    let probe_journals = scratch.path().join("probe-journal");
    std::fs::create_dir_all(&probe_journals).map_err(|e| e.to_string())?;
    let replica = Replica {
        service: Service::open(config)?,
        leads: LeadTimeModel::desh_default(),
        live: CellStore::open(Some(&cache_dir), CACHE_MAX)?,
        probe_store: CellStore::open(Some(&scratch.path().join("probe-cache")), CACHE_MAX)?,
        journal_dir,
        probe_journals,
        threads,
    };
    let warm = warm_catalog(args.seed, threads);
    let mut out = Outcome::default();
    let mut oracles = Vec::with_capacity(warm.len());
    for text in &warm {
        let digest = oracle(text, &replica.leads, threads)?.0;
        let response = parse_response(&respond(text, &replica.service));
        out.check(response.ok && response.digest.as_ref() == Some(&digest));
        oracles.push(digest);
    }
    let check = |request: &Request, response: &Response| -> Result<bool, String> {
        let digest = match request.kind {
            Kind::Warm(k) => oracles[k].clone(),
            Kind::Cold => oracle(&request.text, &replica.leads, threads)?.0,
        };
        Ok(response.ok && response.digest.as_ref() == Some(&digest))
    };

    // Untraced: the same kind of sequence, timed per request only.
    let run = Stopwatch::start();
    let (mut warm_ms, mut cold_ms) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i < 8 || run.secs() < args.seconds / 3.0 {
        let request = request(args.seed, 0, i, &warm);
        let t = Stopwatch::start();
        let response = parse_response(&respond(&request.text, &replica.service));
        let ms = t.secs() * 1e3;
        match request.kind {
            Kind::Warm(_) => warm_ms.push(ms),
            Kind::Cold => cold_ms.push(ms),
        }
        out.check(check(&request, &response)?);
        i += 1;
    }

    // Traced: each request's wall time, then its layers timed alone.
    let mut table = LayerTable::default();
    let mut p = Probes::default();
    let (mut traced_warm_ms, mut traced_cold_ms) = (Vec::new(), Vec::new());
    let mut wall_ns = 0.0;
    let run = Stopwatch::start();
    let mut i = 0;
    while i < 8 || run.secs() < args.seconds * 2.0 / 3.0 {
        let request = request(args.seed, 1, i, &warm);
        let t = Stopwatch::start();
        let body = respond(&request.text, &replica.service);
        let took = t.elapsed();
        wall_ns += took.as_nanos() as f64;
        let response = parse_response(&body);
        match request.kind {
            Kind::Warm(_) => traced_warm_ms.push(secs(took) * 1e3),
            Kind::Cold => traced_cold_ms.push(secs(took) * 1e3),
        }
        let ok = check(&request, &response)?;
        let probed = probe(&replica, &request, &response.meta, i, &mut table, &mut p)?;
        out.check(ok && probed);
        i += 1;
    }

    let unattributed = table.print("service_mix", wall_ns);
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    out.push("fold.ns_per_result", per(p.fold_ns, p.folded), "ns");
    out.push("fold.share", table.get("fold") / wall_ns, "ratio");
    out.push("service.warm_p50_ms", median(&warm_ms), "ms");
    out.push("service.cold_p50_ms", median(&cold_ms), "ms");
    out.push("service.parse.us", per(p.parse_ns, p.requests) / 1e3, "us");
    out.push(
        "service.fingerprint.us",
        per(p.fingerprint_ns, p.requests) / 1e3,
        "us",
    );
    out.push(
        "service.journal_open.us",
        per(p.warm_journal_open_ns, p.warm) / 1e3,
        "us",
    );
    out.push(
        "service.journal.recovered_cells",
        per(p.recovered as f64, p.warm),
        "count",
    );
    out.push(
        "service.cache.get_us_per_cell",
        per(p.get_ns, p.get_cells) / 1e3,
        "us",
    );
    out.push(
        "service.cache.hits",
        per(p.hits as f64, p.requests),
        "count",
    );
    out.push(
        "service.cache.misses",
        per(p.misses as f64, p.requests),
        "count",
    );
    out.push(
        "service.flight.coalesced",
        per(p.coalesced as f64, p.requests),
        "count",
    );
    out.push(
        "service.cellframe.decode_ns_per_result",
        per(p.decode_ns, p.decoded),
        "ns",
    );
    out.push(
        "service.render.us",
        per(p.render_ns, p.requests) / 1e3,
        "us",
    );
    out.push(
        "prefilter.us_per_cell",
        per(p.prefilter_ns, p.prefilter_cells) / 1e3,
        "us",
    );
    out.push(
        "prefilter.prune_rate",
        per(p.pruned as f64, p.prefilter_cells),
        "ratio",
    );
    out.push(
        "service.compute.ms",
        per(p.cold_compute_ns, p.cold) / 1e6,
        "ms",
    );
    out.push(
        "service.compute.warm_ms",
        per(p.warm_compute_ns, p.warm) / 1e6,
        "ms",
    );
    out.push(
        "service.cellframe.encode_us_per_cell",
        per(p.encode_ns, p.written_cells) / 1e3,
        "us",
    );
    out.push(
        "service.cache.put_us_per_cell",
        per(p.put_ns, p.written_cells) / 1e3,
        "us",
    );
    out.push(
        "service.journal.append_us_per_cell",
        per(p.append_ns, p.written_cells) / 1e3,
        "us",
    );
    out.push(
        "service.frame_bytes_per_cell",
        per(p.frame_bytes as f64, p.written_cells),
        "bytes",
    );
    out.push("unattributed.share", unattributed, "ratio");
    // Three warm requests to one cold, as in the workload.
    let mix = |warm: &[f64], cold: &[f64]| 0.75 * median(warm) + 0.25 * median(cold);
    let (traced, untraced) = (
        mix(&traced_warm_ms, &traced_cold_ms),
        mix(&warm_ms, &cold_ms),
    );
    out.push(
        "trace_overhead_pct",
        100.0 * (traced - untraced) / untraced,
        "%",
    );
    eprintln!(
        "service_mix: {} traced requests ({} cold)",
        p.requests, p.cold
    );
    Ok(out)
}
