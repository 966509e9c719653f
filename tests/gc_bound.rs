//! Properties of ack-driven history collection (on by default since E16).
//!
//! Two claims, both over randomized star/CVC sessions:
//!
//! 1. **GC is invisible to the document**: the same seeded workload run
//!    with `auto_gc` on and off produces byte-identical final documents
//!    at every replica. Collection only discards history entries that can
//!    no longer transform anything.
//! 2. **The history buffer is window-bounded, not session-bounded**: with
//!    GC on, the notifier's `hb_high_water` is bounded by the number of
//!    operations that can be in flight (or awaiting a bare ack) at once —
//!    a function of latency, rate, and `ACK_INTERVAL`, *not* of how long
//!    the session runs. Doubling the session length must not move the
//!    high-water mark by more than ack-latency slack.

use cvc_reduce::client::ACK_INTERVAL;
use cvc_reduce::notifier::ScanMode;
use cvc_reduce::session::{run_session, ClientMode, Deployment, SessionConfig};
use cvc_reduce::workload::WorkloadConfig;
use cvc_sim::prelude::*;
use proptest::prelude::*;

/// One-way link latency (µs). Constant, so the in-flight window is
/// analyzable: ops generated during ~2 hops plus one ack interval.
const LATENCY_US: u64 = 30_000;
/// Mean think time between one site's edits (µs).
const GAP_US: u64 = 40_000;

fn cfg(n: usize, ops: usize, seed: u64, auto_gc: bool) -> SessionConfig {
    SessionConfig {
        deployment: Deployment::StarCvc,
        initial_doc: "the quick brown fox jumps over the lazy dog".into(),
        latency: LatencyModel::Constant(LATENCY_US),
        net_seed: seed ^ 0xfeed,
        workload: WorkloadConfig {
            n_sites: n,
            ops_per_site: ops,
            seed,
            mean_gap_us: GAP_US,
            delete_fraction: 0.25,
            burst_len: 4,
            hotspot_width: None,
            undo_fraction: 0.0,
            string_ops: false,
        },
        record_deliveries: false,
        auto_gc,
        client_mode: ClientMode::Streaming,
        bandwidth_bytes_per_sec: None,
        share_carets: false,
        notifier_scan: ScanMode::SuffixBounded,
        fault_plan: None,
        disconnects: Vec::new(),
        standby: false,
        crash: None,
        flight_recorder: false,
        flight_recorder_capacity: cvc_reduce::recorder::DEFAULT_CAPACITY,
        flight_recorder_notifier_capacity: 0,
    }
}

/// The analytical window bound: operations the notifier can have
/// integrated but not yet seen acknowledged. A client's ack lags by up to
/// two hops plus `ACK_INTERVAL` further executions (a quiet client owes a
/// bare ack only every `ACK_INTERVAL` server ops); during that lag the
/// notifier integrates at the global rate `n / GAP_US`. Bursts (length 4)
/// and end-of-session stragglers get a 2× safety factor.
fn window_bound(n: usize) -> u64 {
    let global_ops_per_lag = (2 * LATENCY_US * n as u64).div_ceil(GAP_US);
    2 * (ACK_INTERVAL + global_ops_per_lag + 4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Claim 1: collection never changes what any replica converges to.
    #[test]
    fn gc_on_and_off_converge_to_identical_documents(
        seed in any::<u64>(),
        n in 2usize..8,
        ops in 10usize..30,
    ) {
        let on = run_session(&cfg(n, ops, seed, true));
        let off = run_session(&cfg(n, ops, seed, false));
        prop_assert!(on.converged, "GC-on session diverged (seed {seed})");
        prop_assert!(off.converged, "GC-off session diverged (seed {seed})");
        prop_assert_eq!(
            &on.final_doc,
            &off.final_doc,
            "GC changed the converged document (seed {})",
            seed
        );
        prop_assert_eq!(&on.final_docs, &off.final_docs);
    }

    /// Claim 2: the notifier's history high-water mark respects the
    /// in-flight + ack-latency window, independent of session length.
    #[test]
    fn hb_high_water_is_window_bounded(
        seed in any::<u64>(),
        n in 2usize..8,
        ops in 20usize..40,
    ) {
        let r = run_session(&cfg(n, ops, seed, true));
        prop_assert!(r.converged);
        let hw = r.centre_metrics.expect("star has a centre").hb_high_water;
        let bound = window_bound(n);
        prop_assert!(
            hw <= bound,
            "hb high-water {} exceeds the window bound {} (n={}, ops={}, seed={})",
            hw, bound, n, ops, seed
        );
        // The bound is a *window*, not a fraction of the session: it must
        // also be far below the total operation count for long sessions.
        let total_ops = (n * ops) as u64;
        prop_assert!(
            hw < total_ops,
            "GC never trimmed anything: high water {} == total ops {}",
            hw, total_ops
        );
    }
}

/// Directed form of claim 2: doubling the session length leaves the
/// high-water mark in the same window (within ack-interval slack), while
/// the GC-off baseline grows linearly with it.
#[test]
fn high_water_tracks_the_window_not_the_session_length() {
    for seed in [3u64, 17, 92] {
        for n in [4usize, 6] {
            let short = run_session(&cfg(n, 20, seed, true));
            let long = run_session(&cfg(n, 40, seed, true));
            let hw_s = short.centre_metrics.expect("centre").hb_high_water;
            let hw_l = long.centre_metrics.expect("centre").hb_high_water;
            assert!(
                hw_l <= hw_s + ACK_INTERVAL + n as u64,
                "doubling the session moved the window: {hw_s} -> {hw_l} (n={n}, seed={seed})"
            );
            // Contrast: without collection the buffer scales with the
            // session itself.
            let off = run_session(&cfg(n, 40, seed, false));
            let hw_off = off.centre_metrics.expect("centre").hb_high_water;
            assert_eq!(hw_off, (n * 40) as u64, "GC-off high water is total ops");
            assert!(
                hw_l < hw_off / 2,
                "GC-on window {hw_l} not below half of {hw_off}"
            );
        }
    }
}
