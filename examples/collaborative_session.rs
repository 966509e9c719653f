//! Simulate realistic multi-user editing sessions over a jittery Internet
//! and compare the paper's star/CVC system against the fully-distributed
//! full-vector baseline.
//!
//! ```text
//! cargo run --example collaborative_session            # defaults: N=6
//! cargo run --example collaborative_session -- 12 40   # N=12, 40 ops/site
//! ```

use cvc_reduce::session::{run_session, Deployment, SessionConfig};
use cvc_reduce::workload::WorkloadConfig;
use cvc_sim::latency::LatencyModel;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args
        .next()
        .map(|a| a.parse().expect("N must be a number"))
        .unwrap_or(6);
    let ops: usize = args
        .next()
        .map(|a| a.parse().expect("ops must be a number"))
        .unwrap_or(25);

    println!("simulating {n} users, {ops} ops each, over jittery Internet links\n");

    for deployment in [
        Deployment::StarCvc,
        Deployment::MeshFullVc,
        Deployment::RelayStar,
    ] {
        let cfg = SessionConfig {
            deployment,
            initial_doc: "collaborative editing needs causality".into(),
            latency: LatencyModel::internet(),
            net_seed: 42,
            workload: WorkloadConfig {
                n_sites: n,
                ops_per_site: ops,
                seed: 42,
                mean_gap_us: 50_000,
                delete_fraction: 0.2,
                burst_len: 5,
                hotspot_width: Some(0.3), // everyone edits the same region
                undo_fraction: 0.05,      // occasional user-level undo
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
        let m = r.total_metrics();
        println!("── {} ──", deployment.label());
        println!("  converged:            {}", r.converged);
        println!(
            "  final doc length:     {} chars",
            r.final_doc.chars().count()
        );
        println!(
            "  session length:       {:.1}s virtual",
            r.quiesced_at.as_secs_f64()
        );
        println!("  messages on wire:     {}", m.messages_sent);
        println!("  bytes on wire:        {}", m.bytes_sent);
        println!(
            "  timestamp overhead:   {} bytes ({:.1}% of traffic), {:.1} ints/msg, max {} ints",
            m.stamp_bytes_sent,
            100.0 * m.stamp_byte_fraction(),
            m.stamp_integers_per_message(),
            r.max_stamp_integers,
        );
        println!(
            "  transformations:      {}   concurrency checks: {}\n",
            m.transforms, m.concurrency_checks
        );
        assert!(r.converged, "deployment must converge");
    }

    println!("note how star/cvc's timestamp cost stays 2 integers/message while");
    println!("the full-vector deployments grow linearly with the number of users.");
}
