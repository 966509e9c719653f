//! Sweep the number of collaborators and print how each clock scheme's
//! timestamp cost scales — the paper's headline claim as a table.
//!
//! ```text
//! cargo run --release --example overhead_comparison
//! ```

use cvc_reduce::session::{run_session, Deployment, SessionConfig};
use cvc_reduce::workload::WorkloadConfig;
use cvc_sim::latency::LatencyModel;

fn main() {
    println!("timestamp integers per message, measured over whole sessions");
    println!("(10 single-character ops per site, jittery Internet links)\n");
    println!(
        "{:>5}  {:>14}  {:>14}  {:>18}",
        "N", "star/cvc", "mesh/full-vc", "relay (no OT)"
    );
    for n in [2usize, 4, 8, 16, 32, 64] {
        let mut cells = Vec::new();
        for deployment in [
            Deployment::StarCvc,
            Deployment::MeshFullVc,
            Deployment::RelayStar,
        ] {
            let cfg = SessionConfig {
                deployment,
                initial_doc: "shared state".into(),
                latency: LatencyModel::internet(),
                net_seed: 9,
                workload: WorkloadConfig {
                    n_sites: n,
                    ops_per_site: 10,
                    seed: 9,
                    mean_gap_us: 30_000,
                    delete_fraction: 0.25,
                    burst_len: 3,
                    hotspot_width: None,
                    undo_fraction: 0.0,
                    string_ops: false,
                },
                record_deliveries: false,
                auto_gc: false,
                client_mode: cvc_reduce::session::ClientMode::Streaming,
                bandwidth_bytes_per_sec: None,
                share_carets: false,
                notifier_scan: cvc_reduce::notifier::ScanMode::SuffixBounded,
                fault_plan: None,
                disconnects: Vec::new(),
                standby: false,
                crash: None,
                flight_recorder: false,
                flight_recorder_capacity: cvc_reduce::recorder::DEFAULT_CAPACITY,
                flight_recorder_notifier_capacity: 0,
            };
            let r = run_session(&cfg);
            assert!(r.converged);
            cells.push(format!(
                "{:.1} (max {})",
                r.total_metrics().stamp_integers_per_message(),
                r.max_stamp_integers
            ));
        }
        println!(
            "{:>5}  {:>14}  {:>14}  {:>18}",
            n, cells[0], cells[1], cells[2]
        );
    }
    println!("\nstar/cvc is constant at 2 integers; every alternative grows with N.");
    println!("(see `repro e4` for the byte-level view and the Singhal–Kshemkalyani rows)");
}
