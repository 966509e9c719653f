//! End-to-end sessions across all deployments: convergence under many
//! seeds, latency models, and workload shapes; overhead invariants.

use cvc_reduce::session::{run_session, Deployment, SessionConfig};
use cvc_reduce::workload::WorkloadConfig;
use cvc_sim::latency::LatencyModel;

fn cfg(
    deployment: Deployment,
    n: usize,
    ops: usize,
    seed: u64,
    latency: LatencyModel,
    hotspot: Option<f64>,
) -> SessionConfig {
    SessionConfig {
        deployment,
        initial_doc: "integration testing across crates".into(),
        latency,
        net_seed: seed ^ 0xdead_beef,
        workload: WorkloadConfig {
            n_sites: n,
            ops_per_site: ops,
            seed,
            mean_gap_us: 20_000,
            delete_fraction: 0.3,
            burst_len: 4,
            hotspot_width: hotspot,
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
    }
}

#[test]
fn all_deployments_converge_across_seeds_and_latencies() {
    for deployment in [
        Deployment::StarCvc,
        Deployment::MeshFullVc,
        Deployment::RelayStar,
    ] {
        for (li, latency) in [
            LatencyModel::lan(),
            LatencyModel::internet(),
            LatencyModel::congested(),
        ]
        .into_iter()
        .enumerate()
        {
            for seed in 0..4 {
                let r = run_session(&cfg(deployment, 4, 12, seed, latency, None));
                assert!(
                    r.converged,
                    "{} seed={seed} latency#{li}: {:?}",
                    deployment.label(),
                    r.final_docs
                );
            }
        }
    }
}

#[test]
fn hotspot_contention_still_converges() {
    for deployment in [Deployment::StarCvc, Deployment::MeshFullVc] {
        for seed in 0..4 {
            let r = run_session(&cfg(
                deployment,
                5,
                20,
                seed,
                LatencyModel::congested(),
                Some(0.1),
            ));
            assert!(r.converged, "{} seed={seed}", deployment.label());
            // Contention means real transformation work happened.
            let m = r.total_metrics();
            assert!(m.transforms > 0, "hotspot should force transforms");
        }
    }
}

#[test]
fn star_stamp_width_is_constant_and_mesh_grows() {
    for n in [2usize, 5, 9, 17] {
        let star = run_session(&cfg(
            Deployment::StarCvc,
            n,
            6,
            3,
            LatencyModel::lan(),
            None,
        ));
        assert_eq!(star.max_stamp_integers, 2, "N={n}");
        let mesh = run_session(&cfg(
            Deployment::MeshFullVc,
            n,
            6,
            3,
            LatencyModel::lan(),
            None,
        ));
        assert_eq!(mesh.max_stamp_integers, n, "N={n}");
    }
}

#[test]
fn site_byte_accounting_matches_network_accounting() {
    // Bytes counted by sites on send must equal bytes the channels
    // delivered (nothing lost, nothing double-counted).
    for deployment in [
        Deployment::StarCvc,
        Deployment::MeshFullVc,
        Deployment::RelayStar,
    ] {
        let r = run_session(&cfg(deployment, 4, 10, 8, LatencyModel::internet(), None));
        let m = r.total_metrics();
        // Operation traffic and bare GC acks are tallied separately at the
        // sites; the channels see both.
        assert_eq!(
            m.bytes_sent + m.ack_bytes_sent,
            r.net.bytes,
            "{}: site accounting diverged from channel accounting",
            deployment.label()
        );
        assert_eq!(
            m.messages_sent + m.acks_sent,
            r.net.messages,
            "{}",
            deployment.label()
        );
    }
}

#[test]
fn star_message_count_matches_topology_model() {
    // Every client op costs 1 upstream + (N-1) downstream messages.
    let n = 6;
    let r = run_session(&cfg(
        Deployment::StarCvc,
        n,
        8,
        5,
        LatencyModel::lan(),
        None,
    ));
    let ops: u64 = r.client_metrics.iter().map(|m| m.ops_generated).sum();
    // Plus any bare acks quiet clients owed the garbage collector.
    let acks = r.total_metrics().acks_sent;
    assert_eq!(r.net.messages, ops * n as u64 + acks);
}

#[test]
fn mesh_message_count_matches_topology_model() {
    let n = 6;
    let r = run_session(&cfg(
        Deployment::MeshFullVc,
        n,
        8,
        5,
        LatencyModel::lan(),
        None,
    ));
    let ops: u64 = r.client_metrics.iter().map(|m| m.ops_generated).sum();
    assert_eq!(r.net.messages, ops * (n as u64 - 1));
}

#[test]
fn notifier_replica_matches_clients() {
    let r = run_session(&cfg(
        Deployment::StarCvc,
        3,
        15,
        6,
        LatencyModel::internet(),
        None,
    ));
    assert!(r.converged);
    // final_docs[0] is the notifier's copy in the star deployment.
    assert_eq!(r.final_docs.len(), 4);
}

#[test]
fn string_op_sessions_converge_and_star_wins_on_messages() {
    // Typing bursts as whole-string ops: the star sends one message per
    // burst; the char-based mesh pays one per character.
    let mut star_cfg = cfg(
        Deployment::StarCvc,
        4,
        20,
        3,
        LatencyModel::internet(),
        None,
    );
    star_cfg.workload.string_ops = true;
    let mut mesh_cfg = star_cfg.clone();
    mesh_cfg.deployment = Deployment::MeshFullVc;
    let star = run_session(&star_cfg);
    let mesh = run_session(&mesh_cfg);
    assert!(star.converged && mesh.converged);
    let star_ops: u64 = star.client_metrics.iter().map(|m| m.ops_generated).sum();
    let mesh_ops: u64 = mesh.client_metrics.iter().map(|m| m.ops_generated).sum();
    assert!(
        mesh_ops > star_ops,
        "char decomposition must generate more ops: {mesh_ops} vs {star_ops}"
    );
}

#[test]
fn composing_clients_converge_with_fewer_messages() {
    use cvc_reduce::session::ClientMode;
    for seed in 0..5 {
        let mut streaming = cfg(
            Deployment::StarCvc,
            4,
            25,
            seed,
            LatencyModel::internet(),
            None,
        );
        streaming.workload.burst_len = 6; // bursty typing: composition shines
        let mut composing = streaming.clone();
        composing.client_mode = ClientMode::Composing;
        let a = run_session(&streaming);
        let b = run_session(&composing);
        assert!(a.converged, "streaming seed {seed}");
        assert!(b.converged, "composing seed {seed}: {:?}", b.final_docs);
        // Composing must send fewer upstream client ops (acks come back,
        // but upstream messages from clients shrink).
        let a_up: u64 = a.client_metrics.iter().map(|m| m.messages_sent).sum();
        let b_up: u64 = b.client_metrics.iter().map(|m| m.messages_sent).sum();
        assert!(
            b_up < a_up,
            "seed {seed}: composing {b_up} vs streaming {a_up}"
        );
        // Same user intent executed in both.
        let a_ops: u64 = a.client_metrics.iter().map(|m| m.ops_generated).sum();
        let b_ops: u64 = b.client_metrics.iter().map(|m| m.ops_generated).sum();
        assert_eq!(a_ops, b_ops);
    }
}

#[test]
fn sessions_with_undo_converge() {
    for seed in 0..5 {
        let mut c = cfg(
            Deployment::StarCvc,
            4,
            25,
            seed,
            LatencyModel::internet(),
            Some(0.3),
        );
        c.workload.undo_fraction = 0.25;
        let r = run_session(&c);
        assert!(r.converged, "seed {seed}: {:?}", r.final_docs);
    }
}

#[test]
fn two_client_minimum_works() {
    let r = run_session(&cfg(
        Deployment::StarCvc,
        2,
        10,
        7,
        LatencyModel::congested(),
        None,
    ));
    assert!(r.converged);
}

#[test]
#[should_panic(expected = "at least two clients")]
fn single_client_sessions_are_rejected() {
    let _ = run_session(&cfg(
        Deployment::StarCvc,
        1,
        5,
        0,
        LatencyModel::lan(),
        None,
    ));
}
