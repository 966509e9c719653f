//! Soak tests: larger sessions under adversarial conditions — heavy-tail
//! latency, contention hotspots, undo churn, membership churn — run on
//! every `cargo test`. Sizes are chosen to finish in seconds in debug
//! builds while exercising history buffers in the hundreds.

use cvc_reduce::session::{run_session, ClientMode, Deployment, SessionConfig};
use cvc_reduce::verify::{verify_star, verify_star_dynamic, VerifyConfig};
use cvc_reduce::workload::WorkloadConfig;
use cvc_sim::latency::LatencyModel;

fn soak_cfg(deployment: Deployment, n: usize, ops: usize, seed: u64) -> SessionConfig {
    SessionConfig {
        deployment,
        initial_doc: "soak test baseline document with some length to it".into(),
        latency: LatencyModel::congested(),
        net_seed: seed ^ 0x5041,
        workload: WorkloadConfig {
            n_sites: n,
            ops_per_site: ops,
            seed,
            mean_gap_us: 15_000,
            delete_fraction: 0.3,
            burst_len: 5,
            hotspot_width: Some(0.2),
            undo_fraction: 0.1,
            string_ops: false,
        },
        record_deliveries: false,
        auto_gc: true,
        client_mode: ClientMode::Streaming,
        bandwidth_bytes_per_sec: Some(200_000),
        share_carets: false,
        notifier_scan: cvc_reduce::notifier::ScanMode::SuffixBounded,
        fault_plan: None,
        disconnects: Vec::new(),
        standby: false,
        crash: None,
        flight_recorder: false,
        flight_recorder_capacity: cvc_reduce::recorder::DEFAULT_CAPACITY,
        flight_recorder_notifier_capacity: 0,
    }
}

#[test]
fn star_soak_large_session() {
    let r = run_session(&soak_cfg(Deployment::StarCvc, 24, 30, 1));
    assert!(r.converged, "{:?}", r.final_docs.first());
    assert_eq!(r.max_stamp_integers, 2);
    let m = r.total_metrics();
    assert!(
        m.ops_generated >= 24 * 25,
        "undo skips aside, most ops fire"
    );
}

/// GC effectiveness is gated by acknowledgement currency. Under the
/// heavy-tail model a single 400 ms stall head-of-line-blocks the whole
/// FIFO stream (exactly like TCP under loss), so acks arrive after a short
/// burst session ends and almost nothing can be collected — that regime is
/// asserted in `star_soak_large_session` only for convergence. With
/// spike-free jitter and a longer session, acks stay current and GC keeps
/// the buffers well below session size.
#[test]
fn star_soak_gc_with_current_acks() {
    let mut cfg = soak_cfg(Deployment::StarCvc, 12, 40, 4);
    cfg.latency = LatencyModel::internet();
    cfg.workload.mean_gap_us = 60_000; // acks get ~2 round trips of slack
    let r = run_session(&cfg);
    assert!(r.converged);
    let total_ops: usize = r
        .client_metrics
        .iter()
        .map(|m| m.ops_generated as usize)
        .sum();
    assert!(
        r.max_history_len < total_ops / 2,
        "history {} of {total_ops} ops",
        r.max_history_len
    );
}

#[test]
fn mesh_soak_session() {
    let mut cfg = soak_cfg(Deployment::MeshFullVc, 10, 25, 2);
    cfg.workload.undo_fraction = 0.0; // mesh has no undo
    let r = run_session(&cfg);
    assert!(r.converged);
    assert_eq!(r.max_stamp_integers, 10);
}

#[test]
fn composing_soak_session() {
    let mut cfg = soak_cfg(Deployment::StarCvc, 12, 30, 3);
    cfg.client_mode = ClientMode::Composing;
    cfg.workload.undo_fraction = 0.0; // composing clients have no undo
    cfg.auto_gc = false; // composing clients keep no history anyway
    let r = run_session(&cfg);
    assert!(r.converged, "{:?}", r.final_docs.first());
    let m = r.total_metrics();
    let client_msgs: u64 = r.client_metrics.iter().map(|c| c.messages_sent).sum();
    assert!(client_msgs < m.ops_generated, "composition must batch");
}

#[test]
fn oracle_soak_star() {
    // One big adversarial interleaving, every verdict checked.
    let r = verify_star(&VerifyConfig::new(8, 40, 99));
    assert_eq!(r.disagreements, 0, "{:#?}", r.samples);
    assert!(r.converged);
    assert!(r.checks > 50_000, "checks: {}", r.checks);
}

#[test]
fn membership_churn_soak() {
    for seed in 0..3 {
        let r = verify_star_dynamic(&VerifyConfig::new(3, 25, seed), 20);
        assert_eq!(r.disagreements, 0, "seed {seed}: {:#?}", r.samples);
        assert!(r.converged, "seed {seed}");
    }
}
