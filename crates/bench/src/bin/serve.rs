//! `cvc-serve` — the compressed-vector-clock notifier behind real TCP.
//!
//! ```text
//! cvc-serve --addr 127.0.0.1:4100 --clients 64
//! cvc-serve --clients 10000 --workers 2 --seconds 120
//! ```
//!
//! Binds, prints the resolved address (port 0 picks one) as
//! `LISTEN <addr>` on stdout, serves until `--seconds` elapses (default:
//! until SIGINT/EOF is impossible here, so a duration is required for
//! scripted runs), then prints a JSON summary and exits 0 if no protocol
//! or framing errors were observed, 1 otherwise.

use cvc_net::{EditorServer, ServerConfig};
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: cvc-serve [--addr HOST:PORT] [--clients N] [--workers N] \
         [--seconds SECS] [--capture] \
         [--admin-addr HOST:PORT] [--trace] [--trace-log-mb MB]"
    );
    std::process::exit(2);
}

/// JSON-safe float: a ratio over a zero denominator must print as a
/// number (0), never as `NaN`/`inf`, which are not JSON.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        n_clients: 64,
        workers: 0,
        ..ServerConfig::default()
    };
    let mut seconds = 60u64;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => cfg.addr = it.next().unwrap_or_else(|| usage()),
            "--clients" => {
                cfg.n_clients = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--workers" => {
                cfg.workers = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seconds" => {
                seconds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--capture" => cfg.capture_integrations = true,
            "--admin-addr" => cfg.admin_addr = Some(it.next().unwrap_or_else(|| usage())),
            "--trace" => cfg.trace_rings = true,
            // Dump volume is O(ops × clients) deliver lines, so a large
            // traced session needs more retention than the default for
            // an attached tailer to see every line.
            "--trace-log-mb" => {
                let mb: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&v| v > 0)
                    .unwrap_or_else(|| usage());
                cfg.ring_log_cap = mb << 20;
            }
            _ => usage(),
        }
    }

    let server = match EditorServer::spawn(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cvc-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("LISTEN {}", server.addr());
    if let Some(admin) = server.admin_addr() {
        println!("ADMIN {admin}");
    }

    std::thread::sleep(Duration::from_secs(seconds));
    let r = server.shutdown();

    println!(
        "{{\"ops_integrated\":{},\"protocol_errors\":{},\"frame_errors\":{},\
         \"io_errors\":{},\
         \"accepted\":{},\"frames_in\":{},\"msgs_in\":{},\"frames_out\":{},\
         \"msgs_out\":{},\"compound_frames_out\":{},\"msgs_per_frame\":{},\
         \"active_connections\":{},\"evicted\":{},\"dropped_broadcasts\":{},\
         \"wal_appends\":{},\"wal_amplification\":{},\"hb_high_water\":{},\
         \"doc_len\":{},\"doc_checksum\":{}}}",
        r.ops_integrated,
        r.protocol_errors,
        r.frame_errors,
        r.io_errors,
        r.accepted,
        r.frames_in,
        r.msgs_in,
        r.frames_out,
        r.msgs_out,
        r.compound_frames_out,
        r.msgs_per_frame.map_or("null".to_string(), json_f64),
        r.active_connections,
        r.evicted,
        r.dropped_broadcasts,
        r.wal_appends,
        json_f64(r.wal_amplification),
        r.hb_high_water,
        r.doc.chars().count(),
        r.doc_checksum,
    );
    std::process::exit(i32::from(
        r.protocol_errors > 0 || r.frame_errors > 0 || r.io_errors > 0,
    ));
}
