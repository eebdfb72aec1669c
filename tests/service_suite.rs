//! The campaign service's three reuse layers, held to the repo's
//! digest oracle:
//!
//! * **cache equivalence** — a service-served sweep (cold, then warm
//!   through a fresh daemon instance) is bit-identical to a direct
//!   `run_grid_filtered` call, and the warm pass computes nothing;
//! * **single-flight** — N concurrent identical (and overlapping)
//!   requests perform exactly one computation per distinct cell;
//! * **crash/resume** — a daemon killed mid-sweep (via the
//!   `PCKPT_SERVICE_FAIL=crash:<k>` hook, same idiom as
//!   `PCKPT_SHARD_FAIL`) resumes to a bit-identical merged digest,
//!   re-executing only the cells that never hit the journal;
//! * **memory tier** — repeats inside one daemon are answered from
//!   resident folds, without the journal or the cache, and respond
//!   exactly as a restarted daemon would;
//! * **journal robustness** — a journal truncated or corrupted at an
//!   *arbitrary byte offset* still resumes to the golden digest
//!   (proptest), because recovery keeps exactly the longest valid
//!   record prefix and recomputes the rest.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use pckpt::core::{run_grid_filtered, Settings};
use pckpt::prelude::*;
use pckpt_service::{
    grid_digest, parse_request, respond, serve_unix, submit_unix, Service, ServiceConfig,
};

static SCRATCH: AtomicU64 = AtomicU64::new(0);

/// A fresh scratch root per call (counter + pid; no wall clock).
fn scratch_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pckpt-service-suite-{tag}-{}-{}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A service at `root` under this process's `PCKPT_*` settings, which
/// in the crash child include `PCKPT_SERVICE_FAIL`.
fn service_in(root: &PathBuf) -> Service {
    let mut cfg = ServiceConfig::from_settings(&Settings::from_env().expect("PCKPT_* settings"));
    cfg.cache_dir = Some(root.join("cache"));
    cfg.state_dir = Some(root.join("state"));
    cfg.sync = pckpt_service::SyncPolicy::Off; // tests kill processes, not machines
    Service::open(cfg).expect("open service")
}

/// The suite's standard request: 2 apps × 2 scales, 2 models, small
/// fixed run count, single worker thread for cheap determinism.
const REQ: &str = r#"{"name":"suite","apps":["XGC","POP"],"scales":[1.2,0.6],
                     "models":["B","P2"],"runs":6,"seed":61,"threads":1}"#;

/// The digest a direct (service-free) run of `REQ` produces.
fn golden_digest() -> String {
    let req = parse_request(REQ).expect("suite request parses");
    let leads = LeadTimeModel::desh_default();
    let grid = run_grid_filtered(&req.cells, &leads, &req.config, req.prefilter.as_ref());
    grid_digest(&grid).hex()
}

#[test]
fn cold_and_warm_service_match_direct_execution_bit_for_bit() {
    let root = scratch_root("equiv");
    let golden = golden_digest();
    let req = parse_request(REQ).unwrap();

    // Cold: everything computed, journaled, cached.
    let cold_service = service_in(&root);
    let cold = cold_service.execute(&req).expect("cold request");
    assert_eq!(cold.meta.computed_cells, 4);
    assert_eq!(cold.meta.cache_hits, 0);
    assert_eq!(grid_digest(&cold.grid).hex(), golden, "cold != direct");

    // Warm, through a *fresh* service instance (daemon restart): every
    // cell served from persisted frames, nothing computed.
    drop(cold_service);
    let warm = service_in(&root).execute(&req).expect("warm request");
    assert_eq!(warm.meta.computed_cells, 0, "warm pass must not simulate");
    assert_eq!(grid_digest(&warm.grid).hex(), golden, "warm != direct");

    // Warm cells are byte-identical on disk across the two passes:
    // content-addressing means the second pass never rewrote them.
    let cache = root.join("cache");
    let mut cells: Vec<PathBuf> = std::fs::read_dir(&cache)
        .expect("cache dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "cell"))
        .collect();
    cells.sort();
    assert_eq!(cells.len(), 4, "one frame per survivor cell");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn concurrent_identical_requests_compute_each_cell_exactly_once() {
    let root = scratch_root("flight");
    let service = Arc::new(service_in(&root));
    let n = 6;
    let mut handles = Vec::new();
    for _ in 0..n {
        let service = Arc::clone(&service);
        handles.push(std::thread::spawn(move || {
            let req = parse_request(REQ).unwrap();
            let out = service.execute(&req).expect("request");
            (grid_digest(&out.grid).hex(), out.meta.computed_cells)
        }));
    }
    let results: Vec<(String, u64)> = handles
        .into_iter()
        .map(|h| h.join().expect("request thread"))
        .collect();
    let golden = golden_digest();
    for (digest, _) in &results {
        assert_eq!(digest, &golden);
    }
    let total_computed: u64 = results.iter().map(|(_, c)| c).sum();
    assert_eq!(
        total_computed, 4,
        "4 distinct cells → exactly 4 computations across {n} identical requests"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn overlapping_requests_coalesce_shared_cells() {
    // Two *different* campaigns (different cell sets → different
    // journals, so they run concurrently) sharing the POP cells: the
    // shared cells must be computed once globally, whichever request
    // wins the claim.
    let a = r#"{"name":"a","apps":["XGC","POP"],"scales":[1.0],"models":["B","P2"],
                "runs":6,"seed":61,"threads":1}"#;
    let b = r#"{"name":"b","apps":["POP","VULCAN"],"scales":[1.0],"models":["B","P2"],
                "runs":6,"seed":61,"threads":1}"#;
    let root = scratch_root("overlap");
    let service = Arc::new(service_in(&root));
    let mut handles = Vec::new();
    for text in [a, b, a, b] {
        let service = Arc::clone(&service);
        handles.push(std::thread::spawn(move || {
            let req = parse_request(text).unwrap();
            service.execute(&req).expect("request").meta.computed_cells
        }));
    }
    let total: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("request thread"))
        .sum();
    // XGC@1, POP@1, VULCAN@1 — three distinct cells across 4 requests.
    assert_eq!(total, 3, "shared cells must not be recomputed");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn socket_roundtrip_serves_and_coalesces() {
    let root = scratch_root("socket");
    let socket = root.join("pckptd.sock");
    std::fs::create_dir_all(&root).unwrap();
    let service = Arc::new(service_in(&root));
    let server = {
        let socket = socket.clone();
        let service = Arc::clone(&service);
        std::thread::spawn(move || serve_unix(&socket, service, Some(2)))
    };
    // Wait for the socket to appear (bounded spin; no clocks in prod
    // code — tests may sleep).
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let one = submit_unix(&socket, REQ).expect("first request");
    let two = submit_unix(&socket, REQ).expect("second request");
    server.join().expect("server thread").expect("serve_unix");
    assert!(one.ends_with("OK\n"), "response must terminate with OK: {one}");
    let digest_line = |body: &str| {
        body.lines()
            .find(|l| l.starts_with("DIGEST "))
            .map(str::to_string)
            .expect("DIGEST line")
    };
    assert_eq!(digest_line(&one), digest_line(&two));
    assert_eq!(
        digest_line(&one),
        format!("DIGEST {}", golden_digest()),
        "socket-served digest must equal direct execution"
    );
    // The warm response must report zero computed cells.
    let meta = two
        .lines()
        .find(|l| l.starts_with("SERVICE_JSON "))
        .expect("meta line");
    assert!(
        meta.contains("\"computed_cells\":0"),
        "warm socket request must be cache-served: {meta}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Child entry for the kill test: when the driver environment is
/// present, runs the suite request against the given directories
/// (crashing at the injected append via `PCKPT_SERVICE_FAIL`) instead
/// of asserting anything.
#[test]
fn service_child_entry() {
    let Ok(root) = std::env::var("PCKPT_SERVICE_SUITE_ROOT") else {
        return;
    };
    let root = PathBuf::from(root);
    let req = parse_request(REQ).unwrap();
    // Crash hook fires inside execute(); reaching the end means the
    // injection threshold exceeded the workload (driver asserts on
    // exit status, so just return).
    let _ = service_in(&root).execute(&req);
}

#[test]
fn killed_daemon_resumes_to_identical_digest_recomputing_only_the_tail() {
    let root = scratch_root("crash");
    std::fs::create_dir_all(&root).unwrap();
    let exe = std::env::current_exe().expect("test binary path");
    const CRASH_AFTER: u64 = 2;
    let status = Command::new(&exe)
        .args(["service_child_entry", "--exact", "--nocapture", "--test-threads=1"])
        .env("PCKPT_SERVICE_SUITE_ROOT", &root)
        .env("PCKPT_SERVICE_FAIL", format!("crash:{CRASH_AFTER}"))
        .status()
        .expect("spawn service child");
    assert!(
        !status.success(),
        "child must die at the injected crash, got {status:?}"
    );

    // The journal holds exactly the cells that completed pre-crash.
    let state = root.join("state");
    let journals: Vec<PathBuf> = std::fs::read_dir(&state)
        .expect("journal dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    assert_eq!(journals.len(), 1, "one campaign → one journal file");

    // Resume in-process: only the never-journaled cells re-execute,
    // and the merged digest equals the uninterrupted golden.
    let req = parse_request(REQ).unwrap();
    let resumed = service_in(&root).execute(&req).expect("resumed request");
    assert_eq!(
        resumed.meta.journal_recovered, CRASH_AFTER,
        "crash-surviving cells come from the journal"
    );
    assert_eq!(
        resumed.meta.computed_cells,
        4 - CRASH_AFTER,
        "only uncompleted cells re-execute"
    );
    assert_eq!(
        grid_digest(&resumed.grid).hex(),
        golden_digest(),
        "resumed campaign must be bit-identical to an uninterrupted one"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Builds a completed journal for `REQ` and returns its bytes plus the
/// journal path and root (kept alive for the resume pass).
fn completed_journal() -> (PathBuf, PathBuf, Vec<u8>) {
    let root = scratch_root("journal-prop");
    let req = parse_request(REQ).unwrap();
    let out = service_in(&root).execute(&req).expect("seed request");
    assert_eq!(out.meta.computed_cells, 4);
    let state = root.join("state");
    let journal = std::fs::read_dir(&state)
        .expect("journal dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .next()
        .expect("journal file");
    let bytes = std::fs::read(&journal).expect("journal bytes");
    (root, journal, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Damage the journal anywhere — truncate to an arbitrary length
    /// or flip a byte at an arbitrary offset — and the resumed sweep
    /// still merges to the golden digest. Recovery may only lose
    /// *work* (cells recomputed), never *correctness*.
    #[test]
    fn journal_damage_at_any_offset_resumes_to_golden_digest(
        frac in 0.0f64..1.0,
        flip in any::<bool>(),
    ) {
        let (root, journal, bytes) = completed_journal();
        let offset = ((bytes.len() as f64 * frac) as usize).min(bytes.len().saturating_sub(1));
        let damaged = if flip {
            let mut d = bytes.clone();
            d[offset] ^= 0xFF;
            d
        } else {
            bytes[..offset].to_vec()
        };
        std::fs::write(&journal, &damaged).expect("write damaged journal");
        // Drop the cell cache so the resume leans on the journal alone
        // (otherwise every cell would trivially cache-hit).
        std::fs::remove_dir_all(root.join("cache")).expect("clear cache");

        let req = parse_request(REQ).unwrap();
        let resumed = service_in(&root).execute(&req).expect("resume over damage");
        prop_assert_eq!(grid_digest(&resumed.grid).hex(), golden_digest());
        prop_assert_eq!(
            resumed.meta.journal_recovered + resumed.meta.computed_cells
                + resumed.meta.cache_hits,
            4,
            "every cell is recovered, cache-served, or recomputed"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn adaptive_requests_bypass_the_reuse_layers() {
    let adaptive = r#"{"name":"adaptive","apps":["POP"],"scales":[1.0],
                       "models":["B","P2"],"runs":8,"seed":61,"threads":1,
                       "vr":"antithetic"}"#;
    // Fixed VR is cacheable; adaptive (set through RunnerConfig) is not.
    let root = scratch_root("adaptive");
    let service = service_in(&root);
    let mut req = parse_request(adaptive).unwrap();
    req.config.vr.adaptive = Some(pckpt::core::AdaptiveConfig {
        rel_target: 0.5,
        confidence: 0.95,
        batch: 4,
        max_runs: 8,
    });
    let out = service.execute(&req).expect("adaptive request");
    assert!(out.meta.uncached, "adaptive sweeps must not be cached");
    assert!(
        out.meta_json("adaptive").contains("\"uncached\":true"),
        "meta must flag the bypass"
    );
    // And nothing was journaled or cached for it.
    assert!(
        !root.join("state").exists()
            || std::fs::read_dir(root.join("state")).map(|d| d.count()).unwrap_or(0) == 0,
        "adaptive requests must leave no journal"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn respond_reports_errors_without_panicking() {
    let root = scratch_root("errors");
    let service = service_in(&root);
    for bad in [
        "not json",
        r#"{"app":"NOPE"}"#,
        r#"{}"#,
        r#"{"app":"XGC","lm_alpha":0}"#,
        r#"{"app":"XGC","runs":1000000000}"#,
    ] {
        let body = respond(bad, &service);
        assert!(body.starts_with("ERR "), "{bad:?} → {body}");
        assert!(!body.contains("OK"));
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Requests that mean the same sweep share one identity however they
/// are phrased: key order, whitespace, `app` for a one-element `apps`
/// and `1.50` for `1.5` all reach the same cells, so every phrasing
/// after the first is answered from memory with the same digest.
#[test]
fn phrasings_of_one_campaign_share_its_fingerprints() {
    let phrasings = [
        r#"{"name":"phrasing","apps":["POP"],"scales":[1.5,0.5],"models":["B","P2"],"runs":4,"seed":7,"threads":1}"#,
        r#"{"threads":1,"seed":7,"runs":4,"models":["B","P2"],"scales":[1.5,0.5],"apps":["POP"],"name":"phrasing"}"#,
        "{ \"name\" : \"phrasing\" ,\n  \"apps\" : [ \"POP\" ] ,\t\"scales\" : [ 1.5 , 0.5 ] ,\r\n  \
         \"models\" : [ \"B\" , \"P2\" ] , \"runs\" : 4 , \"seed\" : 7 , \"threads\" : 1 }",
        r#"{"name":"phrasing","app":"POP","scales":[1.5,0.5],"models":["B","P2"],"runs":4,"seed":7,"threads":1}"#,
        r#"{"name":"phrasing","apps":["POP"],"scales":[1.50,0.5],"models":["B","P2"],"runs":4,"seed":7,"threads":1}"#,
        r#"{"name":"phrasing","apps":["POP"],"scales":[1.5,0.5],"models":["B","P2"],"runs":4,"seed":7,"threads":1,"prefilter":"off"}"#,
    ];
    let root = scratch_root("phrasing");
    let service = service_in(&root);
    let first = service
        .execute(&parse_request(phrasings[0]).expect("first phrasing parses"))
        .expect("first phrasing");
    assert_eq!(first.meta.computed_cells, 2);
    let golden = grid_digest(&first.grid).hex();
    for text in &phrasings[1..] {
        let out = service
            .execute(&parse_request(text).expect("phrasing parses"))
            .expect("phrasing runs");
        assert_eq!(grid_digest(&out.grid).hex(), golden, "{text}");
        assert_eq!(out.meta.cache_hits, 2, "{text}");
        assert_eq!(out.meta.computed_cells, 0, "{text}");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn repeats_inside_one_daemon_are_served_from_memory() {
    let root = scratch_root("memory");
    let golden = golden_digest();
    let req = parse_request(REQ).unwrap();
    let service = service_in(&root);
    let cold = service.execute(&req).expect("cold request");
    assert_eq!(cold.meta.computed_cells, 4);

    let warm = service.execute(&req).expect("repeat request");
    assert_eq!(warm.meta.cache_hits, 4, "every cell resident in memory");
    assert_eq!(warm.meta.journal_recovered, 0, "a resident repeat never replays the journal");
    assert_eq!(warm.meta.computed_cells, 0);
    assert_eq!(grid_digest(&warm.grid).hex(), golden, "memory-served != direct");

    // The memory tier needs no file at all.
    std::fs::remove_dir_all(root.join("cache")).expect("clear cache");
    std::fs::remove_dir_all(root.join("state")).expect("clear journal");
    let again = service.execute(&req).expect("repeat without files");
    assert_eq!(again.meta.computed_cells, 0);
    assert_eq!(grid_digest(&again.grid).hex(), golden, "file-free repeat != direct");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn memory_served_response_matches_a_restart_served_one() {
    let root = scratch_root("memory-respond");
    let service = service_in(&root);
    let cold = respond(REQ, &service);
    assert!(cold.ends_with("OK\n"), "{cold}");
    let from_memory = respond(REQ, &service);
    let from_disk = respond(REQ, &service_in(&root));
    assert!(from_memory.contains("\"journal_recovered\":0"), "{from_memory}");
    assert!(from_disk.contains("\"journal_recovered\":4"), "{from_disk}");

    // The service accounting keys trail the grid meta; everything
    // before them (threads included) must match line for line.
    let without_accounting = |body: &str| -> Vec<String> {
        body.lines()
            .map(|l| l.split(",\"cache_hits\":").next().unwrap_or(l).to_string())
            .collect()
    };
    assert_eq!(without_accounting(&from_memory), without_accounting(&from_disk));

    // Per-cell thread stamps agree as well.
    let req = parse_request(REQ).unwrap();
    let threads = |outcome: pckpt_service::ServiceOutcome| -> Vec<usize> {
        outcome.grid.cells.iter().map(|c| c.threads).collect()
    };
    assert_eq!(
        threads(service.execute(&req).expect("memory repeat")),
        threads(service_in(&root).execute(&req).expect("restart repeat")),
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn oversized_thread_requests_are_capped_at_host_parallelism() {
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let request = |threads: u64| {
        format!(
            r#"{{"name":"threads","apps":["XGC"],"scales":[1.0],"models":["B","P2"],
                 "runs":4,"seed":61,"threads":{threads}}}"#
        )
    };
    let huge = parse_request(&request(100_000)).expect("request parses");
    assert!(huge.config.threads <= host, "parsed {} threads", huge.config.threads);
    let mut digests = Vec::new();
    for (tag, threads) in [("threads-1", 1), ("threads-huge", 100_000)] {
        let root = scratch_root(tag);
        let req = parse_request(&request(threads)).expect("request parses");
        let out = service_in(&root).execute(&req).expect("request");
        assert_eq!(out.meta.computed_cells, 1, "each request computes cold");
        for cell in &out.grid.cells {
            assert!(cell.threads <= host, "reported {} threads", cell.threads);
        }
        digests.push(grid_digest(&out.grid).hex());
        let _ = std::fs::remove_dir_all(&root);
    }
    assert_eq!(digests[0], digests[1], "thread count reached the digest");
}
