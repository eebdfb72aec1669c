//! The wire layer: a line-oriented protocol over a Unix socket, plus
//! the in-process `respond` entry the CLI's `once` mode shares.
//!
//! Request: one JSON document (see [`crate::request`]) terminated by a
//! newline or EOF, at most `MAX_REQUEST_BYTES` long. Response, line by
//! line:
//!
//! ```text
//! CELL_JSON {...}      one per input cell, input order
//! SERVICE_JSON {...}   grid meta_json + cache/journal accounting
//! DIGEST <hex32>       the campaign digest (see `grid_digest`)
//! OK                   terminator (or: ERR <message> alone)
//! ```
//!
//! `CELL_JSON` carries both human-readable means and `hours_bits`, the
//! exact f64 bit patterns, so clients can verify bit-identical replay
//! without parsing floats.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::json::escape;
use crate::request::parse_request;
use crate::service::Service;
use crate::grid_digest;

/// Longest request line a connection may send, newline excluded. Real
/// requests are well under 1 KB; a longer line is answered with `ERR`
/// after reading at most one byte past the cap.
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Serves one request text, in-process.
pub fn respond(req_text: &str, service: &Service) -> String {
    match respond_inner(req_text, service) {
        Ok(body) => body,
        Err(e) => format!("ERR {}\n", e.replace('\n', " ")),
    }
}

fn respond_inner(req_text: &str, service: &Service) -> Result<String, String> {
    let req = parse_request(req_text)?;
    let outcome = service.execute(&req)?;
    let grid = &outcome.grid;
    let mut out = String::new();
    for (i, campaign) in grid.cells.iter().enumerate() {
        let pruned = grid.analytic_verdicts[i].is_some();
        let models: Vec<String> = campaign
            .models
            .iter()
            .map(|m| format!("\"{}\"", m.name()))
            .collect();
        let mut hours = Vec::new();
        let mut ratios = Vec::new();
        let mut bits = Vec::new();
        for agg in &campaign.aggregates {
            hours.push(format!("{:.6}", agg.total_hours.mean()));
            ratios.push(format!("{:.6}", agg.ft_ratio_pooled()));
            bits.push(format!("\"{:016x}\"", agg.total_hours.mean().to_bits()));
        }
        out.push_str(&format!(
            "CELL_JSON {{\"label\":\"{}\",\"pruned\":{pruned},\"models\":[{}],\
             \"runs\":{},\"ci_rel\":{:.6},\"total_hours\":[{}],\"ft_ratio\":[{}],\
             \"hours_bits\":[{}]}}\n",
            escape(&grid.labels[i]),
            models.join(","),
            grid.cell_runs[i],
            grid.cell_ci_rel[i],
            hours.join(","),
            ratios.join(","),
            bits.join(","),
        ));
    }
    out.push_str(&format!("SERVICE_JSON {}\n", outcome.meta_json(&req.name)));
    out.push_str(&format!("DIGEST {}\n", grid_digest(grid).hex()));
    out.push_str("OK\n");
    Ok(out)
}

/// Accepts connections on `socket_path` until `max_requests` (if any)
/// have been served. Each connection carries one request line; the
/// response is streamed back and the connection closed. Connections
/// are handled on their own threads so identical concurrent requests
/// actually exercise single-flight coalescing; each accept reaps the
/// threads of finished connections, so a long-running daemon holds
/// handles only for connections still in flight.
pub fn serve_unix(
    socket_path: &Path,
    service: Arc<Service>,
    max_requests: Option<usize>,
) -> Result<(), String> {
    let _ = std::fs::remove_file(socket_path);
    let listener = UnixListener::bind(socket_path)
        .map_err(|e| format!("bind {}: {e}", socket_path.display()))?;
    let mut served = 0usize;
    let mut workers = Vec::new();
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(e) => return Err(format!("accept: {e}")),
        };
        let service = Arc::clone(&service);
        admit(&mut workers, std::thread::spawn(move || handle(stream, &service)));
        served += 1;
        if let Some(cap) = max_requests {
            if served >= cap {
                break;
            }
        }
    }
    for w in workers {
        let _ = w.join();
    }
    let _ = std::fs::remove_file(socket_path);
    Ok(())
}

/// Registers a new connection thread after joining and dropping the
/// handles of every connection thread that has finished.
fn admit(workers: &mut Vec<JoinHandle<()>>, new: JoinHandle<()>) {
    let mut i = 0;
    while i < workers.len() {
        if workers[i].is_finished() {
            // Already finished: the join returns at once.
            let _ = workers.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
    workers.push(new);
}

fn handle(stream: UnixStream, service: &Service) {
    let mut reader = BufReader::new((&stream).take(MAX_REQUEST_BYTES as u64 + 1));
    let mut line = Vec::new();
    let read = reader.read_until(b'\n', &mut line);
    let body = if line.strip_suffix(b"\n").unwrap_or(&line).len() > MAX_REQUEST_BYTES {
        format!("ERR request exceeds {MAX_REQUEST_BYTES} bytes\n")
    } else {
        match (read, std::str::from_utf8(&line)) {
            (Ok(_), Ok(text)) if !text.trim().is_empty() => respond(text.trim(), service),
            _ => "ERR empty request\n".to_string(),
        }
    };
    let _ = (&stream).write_all(body.as_bytes());
    let _ = (&stream).flush();
}

/// Client side: submits one request line to a daemon and returns the
/// raw response text.
pub fn submit_unix(socket_path: &Path, req_text: &str) -> Result<String, String> {
    let mut stream = UnixStream::connect(socket_path)
        .map_err(|e| format!("connect {}: {e}", socket_path.display()))?;
    let line = req_text.replace('\n', " ");
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .map_err(|e| format!("send: {e}"))?;
    stream
        .shutdown(std::net::Shutdown::Write)
        .map_err(|e| format!("shutdown: {e}"))?;
    let mut body = String::new();
    stream
        .read_to_string(&mut body)
        .map_err(|e| format!("recv: {e}"))?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A connection thread that runs until `gate` fires (or its sender
    /// is dropped), then reports on `done` just before it finishes.
    fn connection(gate: mpsc::Receiver<()>, done: mpsc::Sender<()>) -> JoinHandle<()> {
        std::thread::spawn(move || {
            let _ = gate.recv();
            let _ = done.send(());
        })
    }

    /// Blocks until one of `workers` has finished its thread.
    fn until_one_finished(done: &mpsc::Receiver<()>, workers: &[JoinHandle<()>]) {
        done.recv().unwrap();
        while !workers.iter().any(JoinHandle::is_finished) {
            std::thread::yield_now();
        }
    }

    /// Sends `request` over a socket pair to `handle` and returns the
    /// reply.
    fn exchange(request: Vec<u8>) -> String {
        let service = Service::open(crate::ServiceConfig::in_dirs(None, None)).unwrap();
        let (client, server) = UnixStream::pair().unwrap();
        // The request outgrows the socket buffer: write it concurrently.
        let writer = std::thread::spawn(move || {
            (&client).write_all(&request).unwrap();
            let _ = client.shutdown(std::net::Shutdown::Write);
            let mut reply = String::new();
            (&client).read_to_string(&mut reply).unwrap();
            reply
        });
        handle(server, &service);
        writer.join().unwrap()
    }

    #[test]
    fn oversized_request_line_is_refused() {
        let reply = exchange(vec![b'['; MAX_REQUEST_BYTES + 1]);
        assert_eq!(
            reply,
            format!("ERR request exceeds {MAX_REQUEST_BYTES} bytes\n")
        );
        // A line exactly at the cap is read in full and reaches the
        // decoder, which rejects this one as malformed JSON.
        let mut at_cap = vec![b' '; MAX_REQUEST_BYTES];
        at_cap[0] = b'{';
        at_cap.push(b'\n');
        let reply = exchange(at_cap);
        assert!(
            reply.starts_with("ERR ") && !reply.contains("exceeds"),
            "{reply}"
        );
    }

    #[test]
    fn accept_loop_retains_only_in_flight_connections() {
        let mut workers = Vec::new();
        let (done_tx, done_rx) = mpsc::channel();
        // Sequential requests: each connection finishes before the next
        // accept, so the list never holds more than the one in flight.
        for _ in 0..16 {
            let (release, gate) = mpsc::channel();
            admit(&mut workers, connection(gate, done_tx.clone()));
            assert_eq!(workers.len(), 1, "only the new connection is in flight");
            release.send(()).unwrap();
            until_one_finished(&done_rx, &workers);
        }
        // Overlapping requests: finished ones are reaped, live ones kept.
        let (release_a, gate_a) = mpsc::channel();
        admit(&mut workers, connection(gate_a, done_tx.clone()));
        let (release_b, gate_b) = mpsc::channel();
        admit(&mut workers, connection(gate_b, done_tx.clone()));
        assert_eq!(workers.len(), 2, "two connections in flight");
        release_a.send(()).unwrap();
        until_one_finished(&done_rx, &workers);
        let (release_c, gate_c) = mpsc::channel();
        admit(&mut workers, connection(gate_c, done_tx.clone()));
        assert_eq!(workers.len(), 2, "the finished connection was reaped");
        drop((release_b, release_c));
        for w in workers {
            w.join().unwrap();
        }
    }
}
