//! `pckptd` — the campaign daemon and its client.
//!
//! ```text
//! pckptd serve  --socket <PATH> [--cache-dir <DIR>] [--state-dir <DIR>]
//!               [--max-requests <N>]
//! pckptd once   --request <FILE-or-DIR> [--cache-dir <DIR>] [--state-dir <DIR>]
//! pckptd submit --socket <PATH> --request <FILE>
//! ```
//!
//! `serve` runs the long-lived service on a Unix socket (one JSON
//! request per connection; `--max-requests` bounds the accept loop for
//! scripted runs). `once` processes a request file — or every `*.json`
//! in a directory, sorted — in-process against the same cache and
//! journal directories a daemon would use, so a cold `once`, a crashed
//! daemon, and a resumed daemon all share state. `submit` is the thin
//! client: it sends one request file to a running daemon and prints
//! the response verbatim.
//!
//! Environment: `PCKPT_CACHE_DIR`, `PCKPT_CACHE_MAX`, `PCKPT_THREADS`,
//! `PCKPT_JOURNAL_SYNC=always|off` (flags override the environment).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use pckpt_core::Settings;
use pckpt_service::{respond, serve_unix, submit_unix, Service, ServiceConfig};

const USAGE: &str = "\
usage:
  pckptd serve  --socket <PATH> [--cache-dir <DIR>] [--state-dir <DIR>]
                [--max-requests <N>]
  pckptd once   --request <FILE-or-DIR> [--cache-dir <DIR>] [--state-dir <DIR>]
  pckptd submit --socket <PATH> --request <FILE>

environment (a malformed value is an error):
  PCKPT_CACHE_DIR      persistent cell-cache directory
  PCKPT_CACHE_MAX      on-disk cell retention cap (default 4096)
  PCKPT_JOURNAL_SYNC   always (default) | off";

struct Flags {
    socket: Option<PathBuf>,
    request: Option<PathBuf>,
    cache_dir: Option<PathBuf>,
    state_dir: Option<PathBuf>,
    max_requests: Option<usize>,
}

fn parse_flags(argv: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        socket: None,
        request: None,
        cache_dir: None,
        state_dir: None,
        max_requests: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--socket" => flags.socket = Some(PathBuf::from(value("--socket")?)),
            "--request" => flags.request = Some(PathBuf::from(value("--request")?)),
            "--cache-dir" => flags.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--state-dir" => flags.state_dir = Some(PathBuf::from(value("--state-dir")?)),
            "--max-requests" => {
                flags.max_requests = Some(
                    value("--max-requests")?
                        .parse()
                        .map_err(|_| "--max-requests needs an integer".to_string())?,
                )
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(flags)
}

/// Builds the service config: environment defaults, flag overrides.
fn service_config(flags: &Flags, settings: &Settings) -> ServiceConfig {
    let mut cfg = ServiceConfig::from_settings(settings);
    if let Some(dir) = flags.cache_dir.clone() {
        cfg.state_dir = Some(dir.join("journal"));
        cfg.cache_dir = Some(dir);
    }
    if let Some(dir) = flags.state_dir.clone() {
        cfg.state_dir = Some(dir);
    }
    cfg
}

fn request_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if path.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("no *.json requests in {}", path.display()));
        }
        Ok(files)
    } else {
        Ok(vec![path.to_path_buf()])
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let Some(mode) = argv.first() else {
        return Err("missing subcommand".into());
    };
    let flags = parse_flags(&argv[1..])?;
    let settings = Settings::from_env()?;
    match mode.as_str() {
        "serve" => {
            let socket = flags.socket.clone().ok_or("serve needs --socket")?;
            let service = Arc::new(Service::open(service_config(&flags, &settings))?);
            serve_unix(&socket, service, flags.max_requests)
        }
        "once" => {
            let request = flags.request.clone().ok_or("once needs --request")?;
            let service = Service::open(service_config(&flags, &settings))?;
            for file in request_files(&request)? {
                let text = std::fs::read_to_string(&file)
                    .map_err(|e| format!("read {}: {e}", file.display()))?;
                print!("{}", respond(text.trim(), &service));
            }
            Ok(())
        }
        "submit" => {
            let socket = flags.socket.ok_or("submit needs --socket")?;
            let request = flags.request.ok_or("submit needs --request")?;
            let text = std::fs::read_to_string(&request)
                .map_err(|e| format!("read {}: {e}", request.display()))?;
            let body = submit_unix(&socket, text.trim())?;
            print!("{body}");
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}'")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
