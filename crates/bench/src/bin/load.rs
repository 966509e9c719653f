//! `cvc-load` — drive a running `cvc-serve` with closed-loop sites.
//!
//! ```text
//! cvc-load --addr 127.0.0.1:4100 --clients 64 --ops 4096 --seed 7
//! ```
//!
//! Connects `--clients` fresh sites, which author `--ops` operations
//! round-robin, each site's next op once its last is acked
//! (`cvc_net::client`). Prints a JSON summary and exits 0 only if every
//! replica converged on one document with no error.

use cvc_net::{fresh_replicas, run_clients, ClientConfig};

fn usage() -> ! {
    eprintln!("usage: cvc-load --addr HOST:PORT [--clients N] [--ops N] [--seed N]");
    std::process::exit(2);
}

fn main() {
    let mut cfg = ClientConfig {
        addr: String::new(),
        total_ops: 4096,
        seed: 0xC0FFEE,
    };
    let mut clients = 64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match (flag.as_str(), value.parse().ok()) {
            ("--addr", _) => cfg.addr = value,
            ("--clients", Some(n)) => clients = n,
            ("--ops", Some(n)) => cfg.total_ops = n,
            ("--seed", Some(n)) => cfg.seed = n,
            _ => usage(),
        }
    }
    if cfg.addr.is_empty() {
        usage();
    }
    let report = run_clients(&cfg, fresh_replicas(clients as usize)).unwrap_or_else(|e| {
        eprintln!("cvc-load: {e}");
        std::process::exit(1);
    });
    let r = &report;
    println!(
        "{{\"converged\":{},\"ops_acked\":{},\"doc_checksum\":{},\
         \"protocol_errors\":{},\"conn_errors\":{},\"redials\":{},\"elapsed_secs\":{:.3}}}",
        r.converged,
        r.ops_acked,
        r.doc_checksum,
        r.protocol_errors,
        r.conn_errors,
        r.redials,
        r.elapsed.as_secs_f64(),
    );
    std::process::exit(i32::from(!r.converged));
}
