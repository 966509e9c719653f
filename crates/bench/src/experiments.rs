//! The experiment suite: one function per entry of DESIGN.md §6, one
//! registry ([`EXPERIMENTS`]) that names them all.
//!
//! Every experiment returns a [`Report`]: the table `repro` prints and
//! EXPERIMENTS.md records, and — for E14 onwards — the `BENCH_PR*.json`
//! artefact, both produced from one list of cells per row (each cell one
//! line: header, key, formats, value).
//! An experiment measures; its *gate*, the function right below it,
//! judges: whatever a gate finds wrong becomes a `FAILED:` line and a
//! non-zero exit, and `repro check` applies the same gate to the
//! committed artefact. Nothing here reads the environment or writes a
//! file; the `repro` binary does both.
//!
//! Everything is seeded, and all but the registry's `timing` experiments
//! run on virtual time, so their reports are reproducible bit for bit
//! (`tests/golden.rs` holds them to that).

use crate::naive::run_naive_relay;
use crate::report::Fmt::{Fixed, Pct, Times};
use crate::report::{cell, float, kept, object, shown, Findings, Json, Report, Row, Value};
use cvc_core::clock::{ClockScheme, FullVectorScheme, LamportScheme, SkScheme};
use cvc_core::site::SiteId;
use cvc_net::{replay_twin, run_load, AdminClient, EditorServer, LoadConfig, LoadReport};
use cvc_net::{ServerConfig, ServerHandle, ServerReport};
use cvc_reduce::client::ACK_INTERVAL;
use cvc_reduce::registry::MetricsRegistry;
use cvc_reduce::scenario::{failover_walkthrough, fig2_report, fig3_walkthrough};
use cvc_reduce::session::Deployment::{MeshFullVc, RelayStar, StarCvc};
use cvc_reduce::session::{run_session, Deployment, SessionConfig, SessionReport};
use cvc_reduce::verify::{verify_mesh, verify_star, verify_star_dynamic, VerifyConfig};
use cvc_reduce::workload::WorkloadConfig;
use cvc_sim::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// The `N` sweep used by the scaling experiments.
pub const N_SWEEP: [usize; 7] = [2, 4, 8, 16, 32, 64, 128];

/// The suite's session: [`SessionConfig::small`] with the experiment's
/// own op count, a 40 ms mean typing gap and a seed-derived network seed.
fn session_cfg(deployment: Deployment, n: usize, ops: usize, seed: u64) -> SessionConfig {
    SessionConfig {
        net_seed: seed ^ 0xc0ffee,
        workload: WorkloadConfig {
            ops_per_site: ops,
            mean_gap_us: 40_000,
            ..WorkloadConfig::small(n, seed)
        },
        ..SessionConfig::small(deployment, n, seed)
    }
}

/// [`session_cfg`] under the E16 scaling discipline: the *global*
/// operation rate is held constant as N grows (each site slows down by
/// N), so the number of operations in flight — and with it the GC'd
/// history buffer — is set by the network RTT, not by N.
fn scaling_cfg(n: usize, ops: usize, seed: u64) -> SessionConfig {
    let mut cfg = session_cfg(StarCvc, n, ops, seed);
    cfg.workload.mean_gap_us = 20_000 * n as u64;
    cfg
}

fn ops_generated(r: &SessionReport) -> u64 {
    r.client_metrics.iter().map(|m| m.ops_generated).sum()
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The `pct`-th percentile of an ascending slice by the suite's
/// nearest-rank rule (`None` when it is empty).
fn percentile<T: Copy>(sorted: &[T], pct: usize) -> Option<T> {
    let rank = (sorted.len() * pct / 100).min(sorted.len().checked_sub(1)?);
    Some(sorted[rank])
}

/// Every delivery's one-way latency, in ms (needs `record_deliveries`).
fn one_way_ms(r: &SessionReport) -> Vec<f64> {
    let sent_to_delivered = |d: &DeliveryRecord| (d.delivered_at - d.sent_at).as_millis_f64();
    r.deliveries.iter().map(sent_to_delivered).collect()
}

/// What a report is judged as.
#[derive(Debug, Clone, Copy)]
pub enum Scope<'a> {
    /// The experiment's full sweep — a fresh `repro eN`, or the committed
    /// artefact: the row gates, the sweep's coverage and the headline
    /// claims all apply.
    Full,
    /// A partial sweep (`repro eN-smoke`, or a test's tiny one): the row
    /// gates, plus the regression bound against the committed artefact
    /// when there is one to compare with.
    Partial(Option<&'a Report>),
}

/// A gate: everything that must hold of a report, as findings.
pub type Gate = fn(&Report, Scope<'_>) -> Vec<String>;

/// Require each condition of the report; a finding quotes the condition
/// that does not hold, which is the gate's name.
macro_rules! require {
    ($g:expr, $($cond:expr),+ $(,)?) => {$(
        $g.all($cond, stringify!($cond));
    )+};
}

/// [`require!`] of one row, which the finding names.
macro_rules! require_of {
    ($g:expr, $row:expr, $($cond:expr),+ $(,)?) => {$(
        $g.row(&$row, $cond, stringify!($cond));
    )+};
}

/// The gate of an experiment whose report makes no checkable promise.
fn ungated(_: &Report, _: Scope<'_>) -> Vec<String> {
    Vec::new()
}

/// E1 — Fig. 1: the star maps N-way communication into 2-way
/// communication. Observed per-operation message counts vs closed forms.
pub fn e1_topology() -> Report {
    let mut rep =
        Report::new("E1 — star topology maps N-way to 2-way communication (paper Fig. 1)");
    for &n in &[4usize, 8, 16] {
        for (deployment, topo) in [
            (StarCvc, Topology::Star { n_clients: n }),
            (MeshFullVc, Topology::Mesh { n_clients: n }),
        ] {
            let r = run_session(&session_cfg(deployment, n, 10, 11));
            let measured = r.net.messages as f64 / ops_generated(&r) as f64;
            rep.row([
                cell("N", "n", &n),
                cell("topology", "topology", &deployment.label()),
                cell("msgs/op (model)", "model", &topo.messages_per_op()),
                cell("msgs/op (measured)", "measured", &measured).text(Fixed(2)),
                shown("channels/client", &topo.channels_per_client()),
                shown("hops", &topo.hops_to_peer()),
            ]);
        }
    }
    rep
}

/// E1's ack budget. The mesh sends exactly the model's N − 1 copies per
/// op. The star sends the model's N (one up, N − 1 down) plus bare acks:
/// a quiet client acks once per [`ACK_INTERVAL`] server ops executed
/// since it last told the notifier (a local op resets that count), so
/// the N − 1 receipts of each op buy at most (N − 1) / `ACK_INTERVAL`
/// acks.
fn e1_gate(r: &Report, _: Scope<'_>) -> Vec<String> {
    let mut g = Findings::default();
    for row in g.rows(r) {
        let (n, model, measured) = (row.num("n"), row.num("model"), row.num("measured"));
        if row.text("topology") == StarCvc.label() {
            require_of!(g, row, measured <= model + (n - 1.0) / ACK_INTERVAL as f64);
        } else {
            require_of!(g, row, measured == model);
        }
    }
    g.0
}

/// E2 — Fig. 2: divergence and intention violation without OT.
pub fn e2_fig2() -> Report {
    let r = fig2_report();
    let mut rep =
        Report::new("E2 — executing original operation forms (paper Fig. 2, Section 2.2)");
    for ((label, order), doc) in r.orders.iter().zip(&r.final_docs) {
        rep.row([
            shown("site", label),
            shown("execution order", &order.join(", ")),
            shown("final document", &format!("{doc:?}")),
        ]);
    }
    rep.para(format!(
        "divergence: {} (final documents differ across sites)",
        r.diverged
    ));
    rep.note(format!(
        "intention violation: O1;O2 on \"ABCDE\" gives {:?}, intended {:?}",
        r.violated, r.intended
    ));
    rep
}

/// E3 — Fig. 3: the full compressed-clock walkthrough.
pub fn e3_fig3() -> Report {
    let t = fig3_walkthrough();
    let mut rep = Report::new("E3 — compressed state vector walkthrough (paper Fig. 3, Section 5)");
    for line in &t.narration {
        rep.intro(format!("  {line}"));
    }
    for (site, a, b, concurrent) in &t.verdicts {
        rep.row([
            shown("where", site),
            shown("Oa", a),
            shown("Ob", b),
            shown("concurrent?", concurrent),
        ]);
    }
    let [v0, v1, v2, v3] = &t.buffered_vectors;
    rep.para(format!(
        "buffered full vectors at site 0: {v0:?} {v1:?} {v2:?} {v3:?}"
    ));
    rep.note(format!(
        "converged: {} — final document {:?}",
        t.converged, t.final_docs[0]
    ));
    rep.set(kept("converged", &t.converged));
    rep
}

/// The gate of both walkthroughs: the scripted session converged.
fn walkthrough_gate(r: &Report, _: Scope<'_>) -> Vec<String> {
    let mut g = Findings::default();
    require!(g, *r.top("converged") == Json::Bool(true));
    g.0
}

/// The step-by-step WAL / promotion / resync walkthrough.
pub fn failover() -> Report {
    let t = failover_walkthrough();
    let mut rep = Report::new("durability & failover walkthrough");
    for line in &t.narration {
        rep.intro(line.as_str());
    }
    rep.set(kept("converged", &t.converged));
    rep
}

/// E4 — timestamp size vs `N`: the paper's headline claim measured in wire
/// integers and bytes per message.
pub fn e4_timestamp_size() -> Report {
    let mut rep =
        Report::new("E4 — timestamp size vs N (paper: constant 2 vs N; S-K is O(N) worst case)");
    let mut row = |n: usize, scheme: &str, mean: f64, max: usize, bytes: f64, share: Value| {
        rep.row([
            shown("N", &n),
            shown("scheme", &scheme),
            shown("stamp ints/msg (mean)", &mean).text(Fixed(2)),
            shown("stamp ints/msg (max)", &max),
            shown("stamp bytes/msg", &bytes).text(Fixed(2)),
            shown("stamp % of msg", &share).text(Pct(1)),
        ]);
    };
    for &n in &N_SWEEP {
        // Star/CVC and mesh measured end-to-end.
        for deployment in [StarCvc, MeshFullVc] {
            let r = run_session(&session_cfg(deployment, n, 10, 21));
            let m = r.total_metrics();
            row(
                n,
                deployment.label(),
                m.stamp_integers_per_message(),
                r.max_stamp_integers,
                m.stamp_bytes_per_message(),
                Value::Num(m.stamp_byte_fraction()),
            );
        }
        // Lamport, Singhal–Kshemkalyani and full vectors over the
        // equivalent broadcast script (every op = N−1 point-to-point
        // sends); ~1 byte per small varint integer.
        let lamport = point_to_point_cost(n, 10, 21, |_, _| LamportScheme::new());
        let sk = point_to_point_cost(n, 10, 21, SkScheme::new);
        let full = point_to_point_cost(n, 10, 21, FullVectorScheme::new);
        for (scheme, (mean, max)) in [
            ("lamport (no ‖-detect)", lamport),
            ("singhal-kshemkalyani", sk),
            ("full vector (p2p)", full),
        ] {
            row(n, scheme, mean, max, mean, Value::Text("-".into()));
        }
    }
    rep
}

/// Drive a point-to-point clock scheme through a broadcast-editing-like
/// script and return (mean, max) stamp integers per message.
fn point_to_point_cost<S: ClockScheme>(
    n: usize,
    ops_per_site: usize,
    seed: u64,
    mk: impl Fn(usize, usize) -> S,
) -> (f64, usize) {
    let mut procs: Vec<S> = (0..n).map(|i| mk(i, n)).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut total = 0usize;
    let mut count = 0usize;
    let mut max = 0usize;
    for _ in 0..ops_per_site {
        for src in 0..n {
            // An "operation": broadcast to every other site.
            for dst in 0..n {
                if dst == src {
                    continue;
                }
                let stamp = procs[src].on_send(dst).expect("send");
                let ints = S::stamp_integers(&stamp);
                total += ints;
                max = max.max(ints);
                count += 1;
                procs[dst].on_receive(src, &stamp).expect("receive");
            }
            // Occasionally interleave an extra local event.
            if rng.gen_bool(0.3) {
                let _ = rng.gen::<u8>();
            }
        }
    }
    (total as f64 / count as f64, max)
}

/// E5 — per-site clock storage (paper Section 6: one 2-element vector vs
/// "three full vectors of N elements" for S-K).
pub fn e5_storage() -> Report {
    let mut rep = Report::new("E5 — clock storage per site, in integers (paper Section 6)");
    for &n in &N_SWEEP {
        rep.row([
            shown("N", &n),
            shown("CVC client", &2usize),
            shown("CVC notifier", &n),
            shown("full-vector site", &n),
            shown("S-K site", &(3 * n)),
            shown("F-Z site (online)", &n),
            shown("matrix-clock site", &(n * n)),
        ]);
    }
    rep
}

/// E6 — end-to-end session communication cost: total bytes on the wire and
/// the timestamp share, star/CVC vs mesh vs relay-star.
pub fn e6_session_overhead() -> Report {
    let mut rep = Report::new("E6 — whole-session wire cost (10 single-char ops/site)");
    for &n in &[4usize, 8, 16, 32, 64] {
        for deployment in [StarCvc, MeshFullVc, RelayStar] {
            let r = run_session(&session_cfg(deployment, n, 10, 33));
            let m = r.total_metrics();
            rep.row([
                shown("N", &n),
                shown("deployment", &deployment.label()),
                shown("msgs", &m.messages_sent),
                shown("total bytes", &m.bytes_sent),
                shown("stamp bytes", &m.stamp_bytes_sent),
                shown("stamp %", &m.stamp_byte_fraction()).text(Pct(1)),
                shown("converged", &r.converged),
            ]);
        }
    }
    rep
}

/// E7 — processing throughput: wall-clock cost of the hot paths
/// (complements the criterion benches with one-shot numbers).
pub fn e7_throughput() -> Report {
    let mut rep = Report::new("E7 — processing throughput (one-shot; see criterion benches)");
    let mut row = |operation: String, iterations: u64, total: Duration, per_op: String| {
        rep.row([
            shown("operation", &operation),
            shown("iterations", &iterations),
            shown("total", &format!("{total:.2?}")),
            shown("per-op", &per_op),
        ]);
    };

    // Concurrency checks at the notifier.
    {
        let hb_vec = cvc_core::vector::VectorClock::from_entries(vec![3; 32]);
        let stamp = cvc_core::state_vector::CompressedStamp::new(5, 2);
        let iters = 1_000_000u64;
        let start = Instant::now();
        let mut hits = 0u64;
        for i in 0..iters {
            if cvc_core::formulas::formula7_notifier(
                stamp,
                SiteId(1 + (i % 31) as u32),
                &hb_vec,
                SiteId(32),
            ) {
                hits += 1;
            }
        }
        let el = start.elapsed();
        row(
            format!("formula7 check (N=32), {hits} hits"),
            iters,
            el,
            format!("{:.1}ns", el.as_nanos() as f64 / iters as f64),
        );
    }

    // Fowler–Zwaenepoel offline reconstruction: the cost the paper deems
    // unusable online.
    {
        use cvc_core::fz::{reconstruct_vector, FzEvent, FzProcess};
        let n = 32;
        let rounds = 40;
        let mut procs: Vec<FzProcess> = (0..n).map(|i| FzProcess::new(i, n)).collect();
        for _ in 0..rounds {
            for src in 0..n {
                let stamps: Vec<_> = (0..n)
                    .filter(|&d| d != src)
                    .map(|_| procs[src].send())
                    .collect();
                let mut k = 0;
                for (dst, proc) in procs.iter_mut().enumerate() {
                    if dst != src {
                        proc.receive(stamps[k]).expect("valid");
                        k += 1;
                    }
                }
            }
        }
        let traces: Vec<&[FzEvent]> = procs.iter().map(|p| p.log()).collect();
        let events: u64 = procs[0].event_count();
        let start = Instant::now();
        let mut acc = 0u64;
        for e in 1..=events {
            acc += reconstruct_vector(&traces, 0, e).iter().sum::<u64>();
        }
        let el = start.elapsed();
        std::hint::black_box(acc);
        row(
            format!("FZ offline vector reconstruction (N={n})"),
            events,
            el,
            format!("{:.1}µs/event", el.as_micros() as f64 / events as f64),
        );
    }

    // Full star session processing (no network wait — virtual time).
    for &n in &[4usize, 16, 64] {
        let cfg = session_cfg(StarCvc, n, 20, 55);
        let start = Instant::now();
        let r = run_session(&cfg);
        let el = start.elapsed();
        let ops = ops_generated(&r);
        row(
            format!("star/cvc session N={n} ({ops} ops)"),
            1,
            el,
            format!("{:.1}µs/op", el.as_micros() as f64 / ops as f64),
        );
    }
    rep
}

/// E8 — the correctness claim: every engine concurrency verdict equals the
/// Definition-1 oracle, across deployments and seeds.
pub fn e8_oracle() -> Report {
    let mut rep = Report::new("E8 — CVC verdicts vs ground-truth causality oracle (Definition 1)");
    let mut row = |harness: &str, ops: u64, checks: u64, disagreements: u64, converged: &str| {
        rep.row([
            cell("harness", "harness", &harness),
            shown("N", &5usize),
            shown("ops", &ops),
            shown("checks", &checks),
            cell("disagreements", "disagreements", &disagreements),
            shown("converged", &converged),
        ]);
    };
    let (mut star_checks, mut star_dis) = (0u64, 0u64);
    for seed in 0..20 {
        let r = verify_star(&VerifyConfig::new(5, 20, seed));
        star_checks += r.checks;
        star_dis += r.disagreements;
        if seed == 0 {
            let converged = r.converged.to_string();
            row(
                "star/cvc (per-seed sample)",
                r.ops,
                r.checks,
                r.disagreements,
                &converged,
            );
        }
    }
    row(
        "star/cvc (20 seeds total)",
        20 * 100,
        star_checks,
        star_dis,
        "-",
    );
    let (mut mesh_checks, mut mesh_dis) = (0u64, 0u64);
    for seed in 0..20 {
        let r = verify_mesh(&VerifyConfig::new(5, 15, seed));
        mesh_checks += r.checks;
        mesh_dis += r.disagreements;
    }
    row(
        "mesh/full-vc (20 seeds total)",
        20 * 75,
        mesh_checks,
        mesh_dis,
        "-",
    );
    rep
}

/// E8's and E11's gate: no verdict disagrees with the oracle, and every
/// row that records convergence converged.
fn oracle_gate(r: &Report, _: Scope<'_>) -> Vec<String> {
    let mut g = Findings::default();
    for row in g.rows(r) {
        require_of!(
            g,
            row,
            row.num("disagreements") == 0.0,
            !row.has("all_converged") || row.flag("all_converged"),
        );
    }
    g.0
}

/// E9 — the ablation behind Section 6's closing remark: the same 2-element
/// stamps *without* a transforming centre mis-capture causality.
pub fn e9_ablation() -> Report {
    let mut rep = Report::new(
        "E9 — compressed stamps without operational transformation (Section 6 ablation)",
    );
    for &n in &[3usize, 5, 8] {
        let (mut checks, mut dis, mut missed, mut spurious) = (0u64, 0u64, 0u64, 0u64);
        for seed in 0..20 {
            let r = run_naive_relay(n, 15, seed);
            checks += r.checks;
            dis += r.disagreements;
            missed += r.missed_concurrency;
            spurious += r.spurious_concurrency;
        }
        let error_rate = format!("{:.1}%", 100.0 * dis as f64 / checks as f64);
        rep.row([
            shown("scheme", &"2-elem stamps, relay (no OT)"),
            shown("N", &n),
            shown("checks", &checks),
            shown("wrong", &dis),
            shown("error rate", &error_rate),
            shown("missed ‖", &missed),
            shown("spurious ‖", &spurious),
        ]);
    }
    // Contrast: with the transforming notifier the error rate is exactly 0
    // (E8); with a relay, capturing causality correctly needs N-element
    // stamps (the relay-star deployment of E4/E6).
    rep.para(
        "With the transforming notifier (E8) the error rate is 0.0%; a non-transforming\n\
         relay needs full N-element stamps (the relay-star rows of E4/E6) to stay correct.",
    );
    rep
}

/// E10 — the price of the star: operation-delivery latency doubles the
/// one-way hop. Measured end-to-end from generation to remote execution.
pub fn e10_latency() -> Report {
    let mut rep = Report::new("E10 — delivery latency: the star pays an extra hop for O(1) stamps");
    for &n in &[4usize, 8] {
        for deployment in [StarCvc, MeshFullVc] {
            let mut cfg = session_cfg(deployment, n, 15, 77);
            cfg.record_deliveries = true;
            let r = run_session(&cfg);
            let one_way = one_way_ms(&r);
            // End-to-end: for the mesh every delivery IS gen→exec; for the
            // star, pair each notifier re-broadcast (sent_at == the
            // client-op delivery time) with the originating send.
            let e2e = match deployment {
                MeshFullVc => one_way.clone(),
                _ => {
                    let mut ends = Vec::new();
                    for up in r.deliveries.iter().filter(|d| d.to == 0) {
                        for down in r
                            .deliveries
                            .iter()
                            .filter(|d| d.from == 0 && d.sent_at == up.delivered_at)
                        {
                            ends.push((down.delivered_at - up.sent_at).as_millis_f64());
                        }
                    }
                    ends
                }
            };
            let mut sorted = e2e.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            let p99 = percentile(&sorted, 99).unwrap_or(0.0);
            rep.row([
                shown("N", &n),
                shown("deployment", &deployment.label()),
                shown("mean one-way (ms)", &mean(&one_way)).text(Fixed(1)),
                shown("mean gen→exec (ms)", &mean(&e2e)).text(Fixed(1)),
                shown("p99 gen→exec (ms)", &p99).text(Fixed(1)),
                shown("quiesce (ms)", &r.quiesced_at.as_millis()),
            ]);
        }
    }
    rep
}

/// E11 — beyond-paper extension: dynamic membership. Clients join with a
/// document snapshot and leave mid-session; stamps stay 2 integers and the
/// verdicts stay oracle-exact.
pub fn e11_membership() -> Report {
    let mut rep = Report::new(
        "E11 — dynamic membership (extension): joins/leaves mid-session, 2-integer stamps throughout",
    );
    for (n0, max_n) in [(2usize, 6usize), (3, 10), (4, 16)] {
        let (mut ops, mut checks, mut dis, mut all_conv) = (0u64, 0u64, 0u64, true);
        for seed in 0..10 {
            let r = verify_star_dynamic(&VerifyConfig::new(n0, 15, seed), max_n);
            ops += r.ops;
            checks += r.checks;
            dis += r.disagreements;
            all_conv &= r.converged;
        }
        rep.row([
            cell("start N", "start_n", &n0),
            cell("max N", "max_n", &max_n),
            shown("seeds", &10usize),
            shown("ops", &ops),
            shown("checks", &checks),
            cell("disagreements", "disagreements", &dis),
            cell("all converged", "all_converged", &all_conv),
        ]);
    }
    rep
}

/// E12 — beyond-paper extension: streaming (the paper) vs composing
/// (ShareDB-style) clients under bursty typing.
pub fn e12_composing() -> Report {
    use cvc_reduce::session::ClientMode;
    let mut rep = Report::new(
        "E12 — client protocol ablation (extension): compose-behind-one-outstanding vs streaming",
    );
    for &n in &[4usize, 8, 16] {
        for (mode, label) in [
            (ClientMode::Streaming, "streaming (paper)"),
            (ClientMode::Composing, "composing (+acks)"),
        ] {
            let mut cfg = session_cfg(StarCvc, n, 20, 44);
            cfg.workload.burst_len = 6;
            cfg.client_mode = mode;
            let r = run_session(&cfg);
            let client_msgs: u64 = r.client_metrics.iter().map(|m| m.messages_sent).sum();
            rep.row([
                shown("N", &n),
                shown("mode", &label),
                shown("user edits", &ops_generated(&r)),
                shown("client msgs", &client_msgs),
                shown("total msgs", &r.net.messages),
                shown("total bytes", &r.net.bytes),
                shown("quiesce (ms)", &r.quiesced_at.as_millis()),
                shown("converged", &r.converged),
            ]);
        }
    }
    rep
}

/// E13 — beyond-paper extension: narrow links turn bytes into queueing
/// delay. Two separate effects show up, and the honest reading matters:
///
/// * comparing star vs mesh, the dominant effect is *hub concentration* —
///   every notifier↔client link carries all traffic, while mesh links each
///   carry one site's ops — so the star queues first as N grows;
/// * comparing star/cvc vs relay-star (identical hub topology and message
///   counts, different stamp widths) isolates the *timestamp bytes*: the
///   N-element stamps of the relay measurably raise queueing delay on the
///   very same links.
pub fn e13_bandwidth() -> Report {
    let mut rep =
        Report::new("E13 — narrow links: hub concentration vs timestamp bytes (extension)");
    for &n in &[8usize, 16, 32] {
        for (label, bw) in [("unlimited", None), ("56 kbit/s", Some(7_000u64))] {
            for deployment in [StarCvc, RelayStar, MeshFullVc] {
                let mut cfg = session_cfg(deployment, n, 10, 66);
                cfg.latency = LatencyModel::Constant(30_000); // isolate queueing
                cfg.bandwidth_bytes_per_sec = bw;
                cfg.record_deliveries = true;
                let r = run_session(&cfg);
                rep.row([
                    shown("N", &n),
                    shown("link", &label),
                    shown("deployment", &deployment.label()),
                    shown("total bytes", &r.net.bytes),
                    shown("quiesce (ms)", &r.quiesced_at.as_millis()),
                    shown("mean one-way (ms)", &mean(&one_way_ms(&r))).text(Fixed(1)),
                    shown("converged", &r.converged),
                ]);
            }
        }
    }
    rep.para(
        "Read star/cvc vs mesh for the hub-concentration effect, and star/cvc vs\n\
         relay-star (same hub, same message counts, N-element stamps) for the pure\n\
         timestamp-byte effect on identical links.",
    );
    rep
}

/// E14 — notifier hot-path throughput: the suffix-bounded formula-(7)
/// scan (this repo) vs the paper's literal full-buffer scan vs the
/// mesh/full-vector baseline. Reports end-to-end session ops/sec and the
/// per-op history-scan length. Artefact: `BENCH_PR1.json`.
///
/// (Numbered E14 because e11–e13 already exist; DESIGN.md §6 calls it
/// "E11 — throughput" in the issue that introduced it.)
pub fn e14_throughput(ns: &[usize], ops_per_site: usize) -> Report {
    use cvc_reduce::notifier::ScanMode::{FullScanReference, SuffixBounded};
    let mut rep =
        Report::new("E14 — notifier hot-path throughput: suffix-bounded vs full-scan vs mesh")
            .artifact(
                "E14 notifier hot-path throughput",
                &[
                    (
                        "baseline",
                        "star/cvc full-scan (the paper's literal per-op HB scan) and mesh/full-vc",
                    ),
                    (
                        "candidate",
                        "star/cvc suffix (watermark-bounded formula-7 scan)",
                    ),
                ],
            );
    let mut skipped = Vec::new();
    for &n in ns {
        for (variant, deployment, scan) in [
            ("star/cvc suffix", StarCvc, SuffixBounded),
            ("star/cvc full-scan", StarCvc, FullScanReference),
            ("mesh/full-vc", MeshFullVc, SuffixBounded),
        ] {
            if deployment == MeshFullVc && n > 64 {
                // Every mesh op is executed (and scanned) at N−1 sites, so
                // the session is O(N²·ops²) — hours at N=256. The star
                // rows are the measured claim; the mesh trend is visible
                // up to N=64.
                skipped.push(format!("mesh/full-vc N={n}"));
                continue;
            }
            let mut cfg = session_cfg(deployment, n, ops_per_site, 88);
            cfg.notifier_scan = scan;
            // E14 is the *ungoverned* buffer-growth baseline: suffix scan
            // vs full scan on histories that actually grow. E16 measures
            // the GC-on production path against these rows.
            cfg.auto_gc = false;
            let start = Instant::now();
            let r = run_session(&cfg);
            let wall = start.elapsed().as_secs_f64();
            let ops = ops_generated(&r);
            // The scan counters live at the scanning sites: the centre for
            // the star, every replica for the mesh.
            let m = match deployment {
                StarCvc => r.centre_metrics.expect("star has a centre"),
                _ => r.total_metrics(),
            };
            rep.row([
                cell("N", "n", &n),
                cell("variant", "variant", &variant),
                cell("ops", "ops", &ops),
                float("wall (ms)", "wall_ms", wall * 1e3, 1, 3),
                float("ops/sec", "ops_per_sec", ops as f64 / wall, 0, 1),
                float("scan/op", "scan_per_op", m.scan_len_per_op(), 1, 2),
                cell("scan max", "scan_max", &m.scan_len_max),
                cell("hb high-water", "hb_high_water", &m.hb_high_water),
                cell("converged", "converged", &r.converged),
            ]);
        }
    }
    if !skipped.is_empty() {
        rep.para(format!(
            "skipped (quadratic baseline): {}",
            skipped.join(", ")
        ));
    }
    rep
}

fn e14_gate(r: &Report, _: Scope<'_>) -> Vec<String> {
    let mut g = Findings::default();
    let rows = g.rows(r);
    for row in &rows {
        require_of!(
            g,
            row,
            row.flag("converged"),
            row.num("scan_max") <= row.num("hb_high_water"),
        );
        if row.text("variant") == "star/cvc full-scan" {
            // The suffix scan at this N scans no more than the full scan.
            let suffix = r.find(&[("n", row.num("n"))]);
            require_of!(
                g,
                row,
                suffix.text("variant") == "star/cvc suffix",
                suffix.num("scan_per_op") <= row.num("scan_per_op"),
                suffix.num("scan_max") <= row.num("scan_max"),
            );
        }
    }
    g.0
}

/// The loss-rate sweep of E15: 0 is the fault-free baseline; faulty rows
/// also duplicate and reorder at half the loss rate.
pub const E15_LOSS_SWEEP: [f64; 4] = [0.0, 0.001, 0.01, 0.05];

fn e15_plan(loss: f64) -> FaultPlan {
    FaultPlan {
        drop: loss,
        duplicate: loss / 2.0,
        reorder: loss / 2.0,
        reorder_extra_us: 50_000,
        ..FaultPlan::NONE
    }
}

/// `cfg` over connections, under [`e15_plan`] faults (none at `loss` 0).
fn lossy_cfg(mut cfg: SessionConfig, loss: f64) -> SessionConfig {
    cfg.fault_plan = Some(e15_plan(loss));
    cfg
}

/// E15 — robustness: sessions over connections on faulty links, which
/// fail the way TCP fails — a drop stalls the connection for one RTO,
/// duplicates and reordering never surface. Sweeps loss rate × N,
/// reporting goodput (delivered editor-payload bytes over wire bytes),
/// stalls, resets, catch-up replays, and p99 one-way frame latency
/// against the fault-free baseline of the same configuration. Artefact:
/// `BENCH_PR2.json` — virtual-time, so `repro check` regenerates it and
/// demands the same bytes.
pub fn e15_robustness(ns: &[usize], ops_per_site: usize) -> Report {
    let mut rep =
        Report::new("E15 — unreliable-transport survival: loss sweep over connections (extension)")
            .artifact(
                "E15 unreliable-transport survival",
                &[
                    ("baseline", "loss 0.0 over fault-free connections (per N)"),
                    (
                        "candidate",
                        "seeded drop/duplicate/reorder plans, which a connection sees as stalls",
                    ),
                ],
            );
    let mut summaries: Vec<String> = Vec::new();
    for &n in ns {
        let mut baseline_p99 = 0.0f64;
        for &loss in &E15_LOSS_SWEEP {
            let mut cfg = lossy_cfg(session_cfg(StarCvc, n, ops_per_site, 99), loss);
            cfg.record_deliveries = true;
            let r = run_session(&cfg);
            let m = r.total_metrics();
            let mut latencies_ms = one_way_ms(&r);
            latencies_ms.sort_unstable_by(f64::total_cmp);
            let p99 = percentile(&latencies_ms, 99).unwrap_or(0.0);
            if loss == 0.0 {
                baseline_p99 = p99;
            }
            let goodput = if r.net.bytes == 0 {
                0.0
            } else {
                m.delivered_payload_bytes as f64 / r.net.bytes as f64
            };
            rep.row([
                cell("N", "n", &n),
                cell("loss", "loss", &loss).text(Pct(1)),
                cell("ops", "ops", &ops_generated(&r)),
                cell("wire bytes", "wire_bytes", &r.net.bytes),
                kept("payload_bytes", &m.delivered_payload_bytes),
                cell("goodput", "goodput", &goodput)
                    .text(Pct(1))
                    .json(Fixed(4)),
                cell("stalls", "stalls", &r.fault_stats.delay_spiked),
                cell("resets", "resets", &m.resets),
                cell("replayed", "replayed", &m.resync_replayed),
                float("p99 (ms)", "p99_ms", p99, 1, 3),
                float("baseline p99", "baseline_p99_ms", baseline_p99, 1, 3),
                cell("converged", "converged", &r.converged),
            ]);
            if let Some(line) = m.robustness_summary() {
                summaries.push(format!("  N={n} loss {:.1}%: {line}", 100.0 * loss));
            }
        }
    }
    if !summaries.is_empty() {
        rep.para("connection activity:");
        for line in summaries {
            rep.note(line);
        }
    }
    rep
}

fn e15_gate(r: &Report, scope: Scope<'_>) -> Vec<String> {
    let mut g = Findings::default();
    let rows = g.rows(r);
    for row in &rows {
        require_of!(
            g,
            row,
            row.flag("converged"),
            row.num("goodput") > 0.0 && row.num("goodput") <= 1.0,
            row.num("p99_ms") >= 0.0,
            // A fault-free run neither stalls nor resets.
            row.num("loss") != 0.0 || row.num("stalls") + row.num("resets") == 0.0,
        );
    }
    if let Scope::Full = scope {
        // The sweep has both endpoints, and 5% loss stalls connections
        // into a slower tail.
        let lossy = |row: &Row<'_>| {
            row.num("loss") >= 0.05
                && row.num("stalls") > 0.0
                && row.num("p99_ms") > row.num("baseline_p99_ms")
        };
        require!(
            g,
            rows.iter().any(|row| row.num("loss") == 0.0),
            rows.iter().any(lossy),
        );
    }
    g.0
}

/// E16 — the flattened per-op cost curve: with ack-driven GC on by
/// default, the allocation-free transform path, and the gap-buffer
/// document, the *per-executed-operation* wall cost stays ~flat from N=4
/// to N=1024 while the history buffer holds at the in-flight window.
/// Contrast with the E14 baseline rows (GC off), where N=256 already pays
/// seconds of wall per session. Artefact: `BENCH_PR3.json`.
pub fn e16_scaling(ns: &[usize], ops_per_site: usize) -> Report {
    let mut rep = Report::new(
        "E16 — per-op cost curve with ack-driven GC on (N up to 1024, constant global rate)",
    )
    .artifact(
        "E16 per-op cost curve with ack-driven GC",
        &[
            (
                "baseline",
                "E14 star/cvc rows (GC off, fixed per-site gap) in BENCH_PR1.json",
            ),
            (
                "candidate",
                "GC-on star/cvc: gap-buffer document, window-bounded history, suffix scan",
            ),
        ],
    );
    let mut per_exec: Vec<f64> = Vec::new();
    for &n in ns {
        let cfg = scaling_cfg(n, ops_per_site, 88);
        let start = Instant::now();
        let r = run_session(&cfg);
        let wall = start.elapsed();
        let ops = ops_generated(&r);
        // Each operation is integrated once at the notifier and executed
        // at every one of the N replicas: the work the session performs
        // scales with ops×N, so wall/(ops×N) is the flatness metric.
        let execs = ops * n as u64;
        let per_exec_us = wall.as_micros() as f64 / execs as f64;
        let m = r.centre_metrics.expect("star has a centre");
        rep.row([
            cell("N", "n", &n),
            cell("ops", "ops", &ops),
            cell("execs", "execs", &execs),
            float("wall (ms)", "wall_ms", wall.as_secs_f64() * 1e3, 1, 3),
            float("per-exec (µs)", "per_exec_us", per_exec_us, 2, 3),
            float(
                "ops/sec",
                "ops_per_sec",
                ops as f64 / wall.as_secs_f64(),
                0,
                1,
            ),
            float("scan/op", "scan_per_op", m.scan_len_per_op(), 1, 2),
            cell("hb high-water", "hb_high_water", &m.hb_high_water),
            cell("acks", "acks", &r.total_metrics().acks_sent),
            cell("converged", "converged", &r.converged),
        ]);
        per_exec.push(per_exec_us);
    }
    if per_exec.len() >= 2 {
        let base = per_exec[0].max(f64::EPSILON);
        let worst = per_exec.iter().map(|p| p / base).fold(0.0f64, f64::max);
        rep.para(format!(
            "per-exec drift across the sweep: worst {worst:.2}× the N={} row",
            ns[0]
        ));
    }
    rep
}

/// Rows of the E16 shape (E16, E19): converged, `execs = ops × N`, a
/// positive per-exec cost.
fn per_exec_rows(g: &mut Findings, r: &Report) {
    for row in g.rows(r) {
        require_of!(
            g,
            row,
            row.flag("converged"),
            row.num("execs") == row.num("ops") * row.num("n"),
            row.num("per_exec_us") > 0.0,
        );
    }
}

/// The smoke regression bound of E16 and E19: the cell at `at` costs at
/// most twice per executed op what the committed artefact's does (2× is
/// headroom for shared-runner noise; the column is rate-normalised).
fn within_2x_of_committed(g: &mut Findings, r: &Report, committed: &Report, at: &[(&str, f64)]) {
    let (now, then) = (
        r.find(at).num("per_exec_us"),
        committed.find(at).num("per_exec_us"),
    );
    g.all(
        now <= 2.0 * then,
        &format!("per_exec_us at {at:?} <= 2x the committed row's ({now} vs {then} µs)"),
    );
}

fn e16_gate(r: &Report, scope: Scope<'_>) -> Vec<String> {
    let mut g = Findings::default();
    per_exec_rows(&mut g, r);
    for row in r.rows().filter(|row| row.num("ops") >= 100.0) {
        // The window bound, not the session: high water must sit far below
        // total ops once the session is long enough.
        require_of!(
            g,
            row,
            row.num("hb_high_water") < (row.num("ops") / 2.0).floor()
        );
    }
    match scope {
        Scope::Full => {
            g.covers(r, "n", &[4.0, 64.0, 256.0, 1024.0]);
            // 5x under the 11135.127 ms E14's GC-off N=256 row took.
            require!(g, r.find(&[("n", 256.0)]).num("wall_ms") < 11135.127 / 5.0);
        }
        Scope::Partial(Some(base)) => within_2x_of_committed(&mut g, r, base, &[("n", 64.0)]),
        Scope::Partial(None) => {}
    }
    g.0
}

/// The committed artefact `name`, when the working directory has one.
fn committed(name: &str) -> Option<Report> {
    Report::from_json(&std::fs::read_to_string(name).ok()?).ok()
}

/// E17 — flight-recorder overhead: with the recorder *off* (the hooks
/// still compiled in, each guarded by one `bool` check) the
/// per-executed-operation cost must stay within noise — ≤2% — of the E16
/// `BENCH_PR3.json` N=64 row measured before the hooks existed; with the
/// recorder *on*, the bounded allocation-free ring must stay cheap.
/// Artefact: `BENCH_PR4.json`, with the metrics-registry snapshot
/// embedded.
pub fn e17_recorder_overhead(n: usize, ops_per_site: usize, reps: usize) -> Report {
    let reps = reps.max(1);
    let mut rep = Report::new(format!(
        "E17 — flight-recorder overhead at N={n} (best of {reps} rep(s) per config)"
    ))
    .artifact(
        "E17 flight-recorder overhead",
        &[(
            "baseline",
            "E16 per-exec row at the same N in BENCH_PR3.json",
        )],
    );
    let pr3 = committed("BENCH_PR3.json")
        .map_or(f64::NAN, |b| b.find(&[("n", n as f64)]).num("per_exec_us"));
    rep.set(kept("pr3_per_exec_us", &pr3).json(Fixed(3)));

    let mut registry = MetricsRegistry::new();
    let mut best_per_exec = [f64::INFINITY; 2];
    for (i, (config, recorder_on)) in [("recorder-off", false), ("recorder-on", true)]
        .into_iter()
        .enumerate()
    {
        let mut best = (0u64, 0u64, 0.0f64);
        for rep_no in 0..reps {
            // Exactly the E16 scaling configuration for this N, so the
            // recorder-off row is directly comparable to the BENCH_PR3
            // trajectory (constant global rate, suffix scan, GC on).
            let mut cfg = scaling_cfg(n, ops_per_site, 88);
            cfg.flight_recorder = recorder_on;
            let start = Instant::now();
            let r = run_session(&cfg);
            let wall = start.elapsed();
            assert!(r.converged, "E17 session must converge");
            let ops = ops_generated(&r);
            let execs = ops * n as u64;
            let per_exec_us = wall.as_micros() as f64 / execs as f64;
            registry.record(&format!("{config}.per_exec_ns"), (per_exec_us * 1e3) as u64);
            if rep_no + 1 == reps {
                // The unification path: the flat per-site counters land in
                // the registry under stable names, once per configuration.
                let centre = r.centre_metrics.as_ref().expect("star has a centre");
                registry.absorb_site_metrics(&format!("{config}.notifier"), centre);
                for m in &r.client_metrics {
                    registry.absorb_site_metrics(&format!("{config}.clients"), m);
                }
            }
            if per_exec_us < best_per_exec[i] {
                best_per_exec[i] = per_exec_us;
                best = (ops, execs, wall.as_secs_f64() * 1e3);
            }
        }
        rep.row([
            cell("config", "config", &config),
            cell("ops", "ops", &best.0),
            cell("execs", "execs", &best.1),
            float("wall (ms)", "wall_ms", best.2, 1, 3),
            float("per-exec (µs)", "per_exec_us", best_per_exec[i], 2, 3),
        ]);
    }

    let off = best_per_exec[0].max(f64::EPSILON);
    let on_ratio = best_per_exec[1] / off;
    registry.set_gauge("overhead.on_vs_off_ratio", on_ratio);
    rep.para(format!(
        "recorder-on vs recorder-off: {on_ratio:.3}× per executed op"
    ));
    if pr3.is_finite() {
        let ratio = off / pr3.max(f64::EPSILON);
        registry.set_gauge("overhead.off_vs_pr3_ratio", ratio);
        rep.note(format!(
            "recorder-off vs BENCH_PR3.json N={n} baseline ({pr3:.3} µs): {ratio:.3}× ({:+.1}%)",
            (ratio - 1.0) * 100.0
        ));
    } else {
        rep.note(format!(
            "(no BENCH_PR3.json N={n} row found — baseline comparison skipped)"
        ));
    }
    rep.metrics(&registry);
    rep
}

fn e17_gate(r: &Report, scope: Scope<'_>) -> Vec<String> {
    let mut g = Findings::default();
    let rows = g.rows(r);
    let configs: Vec<&str> = rows.iter().map(|row| row.text("config")).collect();
    require!(g, configs == ["recorder-off", "recorder-on"]);
    for row in &rows {
        require_of!(
            g,
            row,
            row.num("per_exec_us") > 0.0,
            row.num("execs") % row.num("ops") == 0.0,
        );
    }
    // The unified registry snapshot must be embedded, with the SiteMetrics
    // counters named per config — and identical across configs: recording
    // must not change behaviour.
    let m = r.top("metrics");
    let (counters, histograms) = (m.get("counters"), m.get("histograms"));
    require!(
        g,
        histograms.has("recorder-off.per_exec_ns") && histograms.has("recorder-on.per_exec_ns"),
        counters.num("recorder-on.notifier.transforms")
            == counters.num("recorder-off.notifier.transforms"),
        m.get("gauges").has("overhead.on_vs_off_ratio"),
    );
    if let Scope::Full = scope {
        // Hooks compiled in but off: within 2% of the pre-recorder baseline.
        let off = rows.first().map_or(f64::NAN, |row| row.num("per_exec_us"));
        require!(g, off <= 1.02 * r.top("pr3_per_exec_us").as_num());
    }
    g.0
}

fn exact_percentile_us(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1).min((sorted.len() - 1) * pct / 100)]
}

/// E18 — convergence-latency attribution: the trace assembler stitches
/// every op's lifecycle across all sites into one end-to-end trace, so
/// tail latency can be *attributed* to a stage (upstream transport,
/// notifier transform, broadcast fan-out, downstream delivery) instead of
/// observed as an opaque total. Sweeps loss × N over connections (a
/// drop stalls one, stretching its transport stage), reporting convergence-latency p50/p95/p99 and the critical-path
/// stage per cell.
///
/// Costs are priced three ways. The hot-path hooks when *disabled* stay
/// under the E17 gate (≤2% vs the pre-recorder baseline). The *capture*
/// ratio (tracing-on vs tracing-off wall) is informational here because
/// E18 sizes every ring to hold the entire run un-wrapped; capture with
/// production-size rings is E17's 1.1× number. The *attribution* cost
/// (assembling + summarising, post-hoc and off the editing path) is
/// reported per event with a share-of-wall tripwire. The hard gate is
/// zero dangling traces. Artefact: `BENCH_PR5.json`.
pub fn e18_convergence_tracing(
    ns: &[usize],
    losses: &[f64],
    ops_budget: usize,
    reps: usize,
) -> Report {
    use cvc_reduce::trace::{Stage, TraceAssembler};
    let reps = reps.max(1);
    let mut rep = Report::new(format!(
        "E18 — convergence-latency attribution (loss x N sweep, best of {reps} rep(s))"
    ))
    .artifact("E18 convergence-latency attribution", &[]);
    let mut registry = MetricsRegistry::new();
    let (mut shares, mut ratios, mut per_event_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut dangling_total = 0usize;
    for &n in ns {
        // Constant op budget across N (the E16 scaling discipline), so
        // convergence latencies compare across the sweep.
        let ops_per_site = (ops_budget / n).max(2);
        for &loss in losses {
            let cfg = lossy_cfg(session_cfg(StarCvc, n, ops_per_site, 77), loss);
            let mut wall_off_ms = f64::INFINITY;
            let mut wall_on_ms = f64::INFINITY;
            let mut assemble_ms = f64::INFINITY;
            let mut ring_events = 0u64;
            let mut set = None;
            for _ in 0..reps {
                let mut off = cfg.clone();
                off.flight_recorder = false;
                let t0 = Instant::now();
                let r = run_session(&off);
                wall_off_ms = wall_off_ms.min(t0.elapsed().as_secs_f64() * 1e3);
                assert!(r.converged, "E18 baseline session must converge");
                let watermark = r
                    .centre_metrics
                    .map(|m| m.hb_high_water)
                    .unwrap_or(u64::MAX);

                let mut on = cfg.clone();
                on.flight_recorder = true;
                // Rings sized so the whole run survives un-wrapped — the
                // precondition for complete traces. The notifier ring is
                // derived from the untraced rep's live GC watermark
                // rather than the worst-case constant, cutting traced
                // memory by ~2-8x across the sweep.
                let (ccap, ncap) =
                    cvc_reduce::trace::recommended_capacities_measured(n, ops_per_site, watermark);
                on.flight_recorder_capacity = ccap;
                on.flight_recorder_notifier_capacity = ncap;
                let t0 = Instant::now();
                let r = run_session(&on);
                wall_on_ms = wall_on_ms.min(t0.elapsed().as_secs_f64() * 1e3);
                assert!(r.converged, "E18 traced session must converge");
                let t0 = Instant::now();
                let assembled = TraceAssembler::assemble(&r.flight_traces);
                assemble_ms = assemble_ms.min(t0.elapsed().as_secs_f64() * 1e3);
                ring_events = r.flight_traces.iter().map(|(_, e)| e.len() as u64).sum();
                set = Some(assembled);
            }
            let set = set.expect("at least one rep ran");
            // Virtual-time traces are seed-deterministic: the latency
            // numbers are identical no matter which rep produced them.
            set.register_summary(&mut registry);
            let mut conv: Vec<u64> = set
                .complete_traces()
                .filter_map(|t| t.convergence_us())
                .collect();
            conv.sort_unstable();
            let mut stage_totals: Vec<(&'static str, f64)> =
                Stage::ALL.iter().map(|s| (s.name(), 0.0)).collect();
            let mut span_total = 0.0f64;
            let mut critical_counts: std::collections::BTreeMap<&'static str, usize> =
                std::collections::BTreeMap::new();
            for t in set.complete_traces() {
                if let Some(b) = t.stage_breakdown() {
                    for (i, (_, d)) in b.iter().enumerate() {
                        stage_totals[i].1 += *d as f64;
                        span_total += *d as f64;
                    }
                }
                if let Some(s) = t.critical_stage() {
                    *critical_counts.entry(s.name()).or_insert(0) += 1;
                }
            }
            let stage_share = Value::Map(
                stage_totals
                    .iter()
                    .map(|&(name, sum)| {
                        let share = sum / span_total.max(f64::EPSILON);
                        (name.to_string(), Value::Num(share))
                    })
                    .collect(),
            );
            let critical_stage = critical_counts
                .iter()
                .max_by_key(|&(_, c)| *c)
                .map_or("-", |(s, _)| *s);
            let (traces, complete) = (set.traces.len(), set.complete_traces().count());
            let dangling = set.dangling().len();
            let [p50, p95, p99] = [50, 95, 99].map(|pct| exact_percentile_us(&conv, pct));
            let ratio = wall_on_ms / wall_off_ms.max(f64::EPSILON);
            let assemble_share = assemble_ms / wall_on_ms.max(f64::EPSILON);
            let truncated = set.traces.iter().filter(|t| t.truncated).count();
            rep.row([
                cell("N", "n", &n),
                cell("loss", "loss", &loss).text(Pct(0)),
                cell("ops", "ops", &(n * ops_per_site)),
                shown("complete", &format!("{complete}/{traces}")),
                kept("traces", &traces),
                kept("complete", &complete),
                cell("trunc", "truncated", &truncated),
                kept("dangling", &dangling),
                shown("p50 (ms)", &(p50 as f64 / 1e3)).text(Fixed(1)),
                shown("p95 (ms)", &(p95 as f64 / 1e3)).text(Fixed(1)),
                shown("p99 (ms)", &(p99 as f64 / 1e3)).text(Fixed(1)),
                kept("p50_us", &p50),
                kept("p95_us", &p95),
                kept("p99_us", &p99),
                cell("critical stage", "critical_stage", &critical_stage),
                kept("stage_share", &stage_share).json(Fixed(4)),
                kept("wall_off_ms", &wall_off_ms).json(Fixed(3)),
                kept("wall_on_ms", &wall_on_ms).json(Fixed(3)),
                shown("asm %", &assemble_share).text(Pct(2)),
                shown("on/off", &ratio).text(Times(3)),
                kept("overhead_ratio", &ratio).json(Fixed(4)),
                kept("assemble_ms", &assemble_ms).json(Fixed(3)),
                kept("assemble_share", &assemble_share).json(Fixed(4)),
                kept("ring_events", &ring_events),
            ]);
            let gauge = format!("e18.n{}.loss{:.0}pct", n, loss * 100.0);
            registry.set_gauge(&format!("{gauge}.p50_us"), p50 as f64);
            registry.set_gauge(&format!("{gauge}.p95_us"), p95 as f64);
            registry.set_gauge(&format!("{gauge}.p99_us"), p99 as f64);
            registry.set_gauge(&format!("{gauge}.overhead_ratio"), ratio);
            registry.set_gauge(&format!("{gauge}.assemble_share"), assemble_share);
            dangling_total += dangling;
            shares.push(assemble_share);
            ratios.push(ratio);
            if ring_events > 0 {
                per_event_ns.push(assemble_ms * 1e6 / ring_events as f64);
            }
        }
    }

    if dangling_total == 0 {
        rep.para("every generated op assembled into exactly one explained trace");
    }
    registry.set_gauge("e18.mean_assemble_share", mean(&shares));
    rep.note(format!(
        "attribution cost (post-hoc assemble, off the editing path): {:.0} ns/event mean, \
         {:.1}% of traced wall (tripwire <=15%)",
        mean(&per_event_ns),
        100.0 * mean(&shares)
    ));
    registry.set_gauge("e18.mean_overhead_ratio", mean(&ratios));
    rep.note(format!(
        "full-lifecycle capture on/off wall ratio: {:.3}x mean (informational — \
         rings here hold whole runs; production-size capture and the <=2% hooks-off gate \
         are E17's)",
        mean(&ratios)
    ));
    rep.metrics(&registry);
    rep
}

fn e18_gate(r: &Report, scope: Scope<'_>) -> Vec<String> {
    let mut g = Findings::default();
    for row in g.rows(r) {
        // The hard gate: every op assembled into one explained trace —
        // nothing dangles, and fault-free cells lose nothing at all.
        require_of!(
            g,
            row,
            row.num("dangling") == 0.0,
            row.num("complete") + row.num("truncated") == row.num("traces"),
            row.num("p50_us") <= row.num("p95_us") && row.num("p95_us") <= row.num("p99_us"),
        );
        if row.num("loss") == 0.0 {
            require_of!(
                g,
                row,
                row.num("complete") == row.num("ops") && row.num("ops") == row.num("traces"),
            );
        }
        if row.num("complete") > 0.0 {
            // Stage durations chain through the critical destination, so
            // the shares sum to 1 (4-decimal rounding in the artefact).
            let shares = row.get("stage_share").fields().iter();
            let stage_share_sum: f64 = shares.map(|(_, v)| v.as_num()).sum();
            require_of!(g, row, (stage_share_sum - 1.0).abs() < 2e-3);
        }
    }
    let m = r.top("metrics");
    require!(
        g,
        m.get("histograms").has("trace.convergence_us"),
        m.get("gauges").has("e18.mean_assemble_share"),
    );
    if let Scope::Full = scope {
        // The committed sweep covers the N x loss grid.
        require!(
            g,
            *r.find(&[("n", 16.0), ("loss", 0.0)]) != Json::Null,
            *r.find(&[("n", 64.0), ("loss", 0.01)]) != Json::Null,
            *r.find(&[("n", 256.0), ("loss", 0.05)]) != Json::Null,
        );
    }
    g.0
}

/// E19 — encode-once broadcast + compound-frame goodput. The notifier
/// serializes each broadcast body **once** and patches the
/// per-destination compressed stamp into a small header over the shared
/// refcounted bytes; what a connection queues while its previous frame is
/// in flight coalesces into one write round of compound frames, each
/// carrying one header and one word-at-a-time checksum (the TCP tier's
/// `frame_groups`). The sweep runs the star over connections to N=4096
/// at 0% and 1% loss under the E16 constant-global-rate discipline and
/// reports per-exec cost, goodput (in-order delivered editor payload
/// over total wire bytes), and frames-per-op (the coalescing ratio).
/// Gates: per-exec stays flat (≤1.5× the N=64 row of the same loss
/// rate) through N=4096, and goodput clears 0.7 under loss. Artefact:
/// `BENCH_PR6.json`.
pub fn e19_throughput(ns: &[usize], losses: &[f64], ops_budget: usize) -> Report {
    let mut rep = Report::new(
        "E19 — encode-once broadcast + compound-frame goodput (star over connections to N=4096)",
    )
    .artifact(
        "E19 encode-once broadcast + compound-frame goodput",
        &[
            (
                "baseline",
                "per-destination EditorMsg::encode + one frame per message",
            ),
            (
                "candidate",
                "shared-body ServerOpFrame broadcast + Nagle-style compound frames",
            ),
        ],
    );
    // (n, loss, per-exec µs, goodput) per cell, for the summary lines.
    let mut cells: Vec<(usize, f64, f64, f64)> = Vec::new();
    for &n in ns {
        // Constant op budget and constant global rate across N (the E16
        // scaling discipline), so per-exec and goodput compare across
        // the sweep.
        let ops_per_site = (ops_budget / n).max(2);
        for &loss in losses {
            let cfg = lossy_cfg(scaling_cfg(n, ops_per_site, 66), loss);
            let start = Instant::now();
            let r = run_session(&cfg);
            let wall = start.elapsed();
            let ops = ops_generated(&r);
            let execs = ops * n as u64;
            let total = r.total_metrics();
            let per_exec_us = wall.as_micros() as f64 / execs.max(1) as f64;
            let goodput = total.delivered_payload_bytes as f64 / r.net.bytes.max(1) as f64;
            let frames_per_op =
                total.data_frames_sent as f64 / total.editor_msgs_sent.max(1) as f64;
            rep.row([
                cell("N", "n", &n),
                cell("loss", "loss", &loss).text(Pct(0)),
                cell("ops", "ops", &ops),
                cell("execs", "execs", &execs),
                float("wall (ms)", "wall_ms", wall.as_secs_f64() * 1e3, 1, 3),
                float("per-exec (µs)", "per_exec_us", per_exec_us, 2, 3),
                float("goodput", "goodput", goodput, 3, 4),
                float("frames/op", "frames_per_op", frames_per_op, 3, 4),
                cell("converged", "converged", &r.converged),
            ]);
            cells.push((n, loss, per_exec_us, goodput));
        }
    }
    for (i, &loss) in losses.iter().enumerate() {
        let at_loss: Vec<_> = cells.iter().filter(|c| c.1 == loss).collect();
        if let Some(base) = at_loss.iter().find(|c| c.0 == 64).or(at_loss.first()) {
            // The gate reads upward: scaling from the N=64 anchor to
            // N=4096 must stay flat. Smaller N pay fixed session overhead
            // over few executions and are not part of the claim.
            let worst = at_loss
                .iter()
                .filter(|c| c.0 >= base.0)
                .map(|c| c.2 / base.2.max(f64::EPSILON))
                .fold(0.0f64, f64::max);
            let line = format!(
                "per-exec drift at {:.0}% loss: worst {worst:.2}x the N={} row (gate <=1.5x)",
                100.0 * loss,
                base.0
            );
            if i == 0 {
                rep.para(line);
            } else {
                rep.note(line);
            }
        }
    }
    let lossy = cells.iter().filter(|c| c.1 > 0.0).map(|c| c.3);
    if let Some(worst_goodput) = lossy.min_by(|a, b| a.total_cmp(b)) {
        rep.note(format!(
            "worst lossy-cell goodput: {worst_goodput:.3} (gate > 0.7)"
        ));
    }
    rep
}

fn e19_gate(r: &Report, scope: Scope<'_>) -> Vec<String> {
    let mut g = Findings::default();
    per_exec_rows(&mut g, r);
    for row in r.rows() {
        require_of!(
            g,
            row,
            row.num("goodput") > 0.0 && row.num("goodput") <= 1.0,
            // Compound framing must actually coalesce: strictly fewer wire
            // frames than editor messages.
            row.num("frames_per_op") > 0.0 && row.num("frames_per_op") < 1.0,
            // Byte counts are seeded and virtual-time, so unlike the wall
            // clock this gate is deterministic.
            row.num("loss") == 0.0 || row.num("goodput") > 0.7,
        );
    }
    match scope {
        Scope::Full => {
            g.covers(r, "n", &[16.0, 64.0, 256.0, 1024.0, 4096.0]);
            // Per-exec flatness: the N=4096 row stays within 1.5x the
            // N=64 anchor at each loss rate.
            for n64 in r.rows().filter(|row| row.num("n") == 64.0) {
                let n4096 = r.find(&[("n", 4096.0), ("loss", n64.num("loss"))]);
                require_of!(
                    g,
                    n64,
                    n4096.num("per_exec_us") <= 1.5 * n64.num("per_exec_us")
                );
            }
        }
        Scope::Partial(Some(base)) => {
            within_2x_of_committed(&mut g, r, base, &[("n", 64.0), ("loss", 0.0)])
        }
        Scope::Partial(None) => {}
    }
    g.0
}

/// E20 — notifier durability and warm-standby failover. Every cell kills
/// the primary mid-session at a seeded crash point (before the WAL'd op's
/// fan-out, mid-broadcast, or after it) and measures the failover: the
/// dead primary's connections closing, standby promotion from the
/// mirrored WAL, each client re-dialing it with a hello, and the session
/// running to convergence. All
/// times are virtual (seeded), so every column is deterministic. Gates:
/// every cell converges with all clients resynced, and recovery time at
/// N=64 stays under 10 s of virtual time. WAL write amplification
/// (framed log bytes per op-payload byte) is reported per cell but not
/// gated — it scales with fan-in because every client's acks are logged
/// for standby GC parity. Artefact: `BENCH_PR7.json` — virtual-time, so
/// `repro check` regenerates it and demands the same bytes.
pub fn e20_failover(ns: &[usize], losses: &[f64], ops_budget: usize) -> Report {
    use cvc_reduce::reliable::CrashPoint::{AfterSend, BeforeSend, MidBroadcast};
    use cvc_reduce::reliable::NotifierCrash;
    let mut rep = Report::new(
        "E20 — notifier durability and warm-standby failover (crash-point x loss x N sweep)",
    )
    .artifact("E20 notifier durability and warm-standby failover", &[]);
    let mut registry = MetricsRegistry::new();
    let mut all_recovered = true;
    let (mut worst64, mut worst_amp) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for &n in ns {
        let ops_per_site = (ops_budget / n).max(2);
        let total = (n * ops_per_site) as u64;
        for &loss in losses {
            for point in [BeforeSend, MidBroadcast, AfterSend] {
                // Kill the primary mid-stream: half the ops are WAL'd
                // history the standby must replay, half arrive after
                // promotion and exercise the re-dial path.
                let at_op = (total / 2).max(1);
                let mut cfg = lossy_cfg(scaling_cfg(n, ops_per_site, 0x20E0 + n as u64), loss);
                cfg.standby = true;
                cfg.crash = Some(NotifierCrash { at_op, point });
                let r = run_session(&cfg);
                let fo = r.failover.clone().unwrap_or_default();
                registry.absorb_failover(&fo);
                let recovery_ms = fo.recovery_us().unwrap_or(0) as f64 / 1e3;
                let amp = fo.wal_amplification;
                rep.row([
                    cell("N", "n", &n),
                    cell("loss", "loss", &loss).text(Pct(0)),
                    cell("crash point", "crash_point", &point.name()),
                    cell("at op", "at_op", &at_op),
                    cell("ops", "ops", &ops_generated(&r)),
                    kept("converged", &r.converged),
                    float("recovery (ms)", "recovery_ms", recovery_ms, 1, 3),
                    cell("replay ops", "replay_ops", &fo.standby_replay_ops),
                    cell("resynced", "resynced_clients", &fo.resynced_clients),
                    cell("WAL appends", "wal_appends", &fo.wal_appends),
                    kept("wal_bytes", &fo.wal_bytes),
                    float("WAL amp", "wal_amplification", amp, 3, 4),
                    cell(
                        "compactions",
                        "snapshot_compactions",
                        &fo.snapshot_compactions,
                    ),
                    cell("stale", "stale_drops", &fo.stale_drops),
                    shown("converged", &r.converged),
                ]);
                all_recovered &= r.converged && fo.resynced_clients == n && recovery_ms > 0.0;
                if n == 64 {
                    worst64 = worst64.max(recovery_ms);
                }
                worst_amp = worst_amp.max(amp);
            }
        }
    }
    if all_recovered {
        rep.para("every crash point recovered: all clients resynced, all sessions converged");
    }
    // Recovery at the N=64 anchor stays bounded (virtual time — each
    // client hears its close one latency draw after the crash, then its
    // hello takes one round trip).
    if worst64.is_finite() {
        rep.note(format!(
            "worst N=64 recovery: {worst64:.1} ms virtual (gate <= 10000 ms)"
        ));
    }
    // Amplification is reported, not gated: every client's acks are
    // logged for GC parity on the standby, so framed-bytes-per-op-byte
    // grows roughly linearly with N — a fixed threshold across the
    // sweep would be meaningless. Compaction bounds live bytes instead.
    if worst_amp.is_finite() {
        rep.note(format!(
            "worst WAL write amplification: {worst_amp:.3}x (scales with fan-in; reported, not gated)"
        ));
    }
    rep.metrics(&registry);
    rep
}

fn e20_gate(r: &Report, scope: Scope<'_>) -> Vec<String> {
    let mut g = Findings::default();
    let rows = g.rows(r);
    for row in &rows {
        require_of!(
            g,
            row,
            // The hard gates: zero convergence failures anywhere in the
            // sweep, and every surviving client resynced against the
            // promoted standby, which replayed the log to get there.
            row.flag("converged"),
            row.num("resynced_clients") == row.num("n"),
            row.num("recovery_ms") > 0.0,
            row.num("replay_ops") > 0.0,
            row.num("wal_appends") > 0.0 && row.num("wal_bytes") > 0.0,
            // Amplification is reported, not gated — but it must be a sane
            // positive ratio.
            row.num("wal_amplification") > 0.0 && row.num("stale_drops") >= 0.0,
            // Crash detection + promotion + resync inside 10 s at N=64;
            // virtual time is deterministic, so no runner-noise headroom.
            row.num("n") != 64.0 || row.num("recovery_ms") <= 10_000.0,
        );
    }
    // Crash-anywhere: the sweep exercises all three points.
    let crashes = |point: &str| rows.iter().any(|row| row.text("crash_point") == point);
    let m = r.top("metrics");
    require!(
        g,
        crashes("before-send") && crashes("mid-broadcast") && crashes("after-send"),
        m.get("histograms").has("failover.recovery_us"),
        m.get("counters").num("failover.wal_appends") > 0.0,
    );
    if let Scope::Full = scope {
        g.covers(r, "n", &[16.0, 64.0, 256.0]);
    }
    g.0
}

/// An in-process editor server on an ephemeral loopback port, capturing
/// its integration log for the sim twin; `admin` adds the admin plane on
/// another ephemeral port, `trace_rings` the ring-dump stream.
fn loopback_server(n: usize, admin: bool, trace_rings: bool) -> ServerHandle {
    EditorServer::spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        n_clients: n,
        capture_integrations: true,
        admin_addr: admin.then(|| "127.0.0.1:0".to_string()),
        trace_rings,
        ..ServerConfig::default()
    })
    .expect("bind loopback server")
}

/// Drive `server` at saturation (`rate 0`): `ops` operations from its `n`
/// clients, open loop.
fn saturate(server: &ServerHandle, n: usize, ops: u64, seed: u64) -> LoadReport {
    run_load(&LoadConfig {
        addr: server.addr().to_string(),
        n_clients: n,
        total_ops: ops,
        rate: 0.0,
        threads: 2,
        seed,
        timeout: Duration::from_secs(240),
    })
    .expect("loopback load run")
}

/// The offline sim twin replays the server's integration log to the
/// document both the server and the clients ended on.
fn twin_certified(n: usize, served: &ServerReport, load: &LoadReport) -> bool {
    replay_twin(n, &served.integration_log)
        .map(|t| t.doc_checksum == served.doc_checksum && t.doc_checksum == load.doc_checksum)
        .unwrap_or(false)
}

/// E22 — loopback saturation sweep: the real TCP server (`cvc-serve`'s
/// engine) driven by the open-loop generator over real loopback
/// sockets, in-process. Client count escalates at maximum rate (`rate
/// 0` = saturation); each cell reports achieved throughput, the ack-RTT
/// distribution from the `MetricsRegistry` histogram, and the socket
/// path's compound coalescing ratio (messages per physical frame).
/// Gates per cell: converged with one distinct checksum, zero
/// protocol/connection/framing errors, every op's ack RTT measured, and
/// the server's integration log replayed through an offline sim twin
/// (`replay_twin`) reproducing the same stamps and document — the sim
/// stays the correctness oracle; the server is only the wall-clock
/// truth. Artefact: `BENCH_PR9.json`. The sweep tops out at 4096
/// in-process clients (2 fds per loopback client; the two-process
/// `cvc-serve`/`cvc-load` pair is how the 10k acceptance run is driven —
/// see EXPERIMENTS.md E22).
pub fn e22_loopback(ns: &[usize]) -> Report {
    let mut rep = Report::new(
        "E22 — loopback saturation sweep: real TCP sockets, open-loop load, sim-twin certification",
    )
    .artifact(
        "E22 loopback saturation sweep",
        &[("transport", "real TCP over loopback, in-process server")],
    );
    let (mut all_clean, mut all_twinned) = (true, true);
    for &n in ns {
        // Constant-ish delivery budget: every op fans out to n-1
        // receivers, so ops shrink as clients grow.
        let ops = (65_536 / n).clamp(64, 1024) as u64;
        let server = loopback_server(n, false, false);
        let load = saturate(&server, n, ops, 0x22E0 + n as u64);
        let served = server.shutdown();
        let twin_ok = twin_certified(n, &served, &load);
        let protocol_errors = load.protocol_errors + served.protocol_errors;
        let errors = protocol_errors + load.conn_errors + served.frame_errors;
        // Outbound messages per physical frame on the socket path (the
        // compound coalescing win; 1.0 = no batching).
        let msgs_per_frame = served.msgs_out as f64 / served.frames_out.max(1) as f64;
        rep.row([
            cell("clients", "clients", &n),
            cell("ops", "ops", &ops),
            cell("acked", "acked", &load.ops_acked),
            float("ops/sec", "achieved_rate", load.achieved_rate, 0, 1),
            kept("rtt_count", &load.rtt.count),
            cell("p50 µs", "rtt_p50_us", &load.rtt.p50_us),
            cell("p95 µs", "rtt_p95_us", &load.rtt.p95_us),
            cell("p99 µs", "rtt_p99_us", &load.rtt.p99_us),
            float("msgs/frame", "msgs_per_frame", msgs_per_frame, 1, 2),
            float(
                "WAL amp",
                "wal_amplification",
                served.wal_amplification,
                3,
                4,
            ),
            shown("errors", &errors),
            kept("protocol_errors", &protocol_errors),
            kept("conn_errors", &load.conn_errors),
            kept("frame_errors", &served.frame_errors),
            kept("distinct_checksums", &load.distinct_checksums),
            cell("twin", "twin_ok", &twin_ok),
            cell("converged", "converged", &load.converged),
        ]);
        all_clean &= load.converged && load.distinct_checksums == 1 && errors == 0;
        all_twinned &= twin_ok;
    }
    if all_clean {
        rep.para("every cell converged on one checksum with 0 protocol/connection/framing errors");
    }
    if all_twinned {
        rep.note("sim twin replayed every cell's integration log to the same document");
    }
    rep
}

fn e22_gate(r: &Report, scope: Scope<'_>) -> Vec<String> {
    let mut g = Findings::default();
    for row in g.rows(r) {
        require_of!(
            g,
            row,
            // The hard gates: every cell converged on one checksum, zero
            // protocol/connection/framing errors end to end, and the
            // server's integration log replayed through the offline sim
            // twin to the same document.
            row.flag("converged") && row.num("distinct_checksums") == 1.0,
            row.flag("twin_ok"),
            row.num("protocol_errors") + row.num("conn_errors") + row.num("frame_errors") == 0.0,
            row.num("acked") == row.num("ops"),
            // p99 sanity: every op's ack RTT measured, quantiles ordered
            // and non-degenerate.
            row.num("rtt_count") == row.num("ops"),
            0.0 < row.num("rtt_p50_us") && row.num("rtt_p50_us") <= row.num("rtt_p95_us"),
            row.num("rtt_p95_us") <= row.num("rtt_p99_us"),
            row.num("achieved_rate") > 0.0,
            // The socket write path must coalesce fan-out broadcasts into
            // compound frames once there is real fan-out.
            row.num("clients") < 64.0 || row.num("msgs_per_frame") > 1.0,
        );
    }
    if let Scope::Full = scope {
        g.covers(r, "clients", &[64.0, 512.0, 2048.0, 4096.0]);
    }
    g.0
}

/// E23 — live observability overhead and fidelity: the admin plane of
/// PR 10 measured against the exact same load with no admin plane at
/// all. Three checks per run:
///
/// 1. **Scrape overhead** — for each client count, the per-executed-op
///    wall time of a plain server vs one with `admin_addr` set and a
///    scraper hammering `/metrics.json?since=`, `/metrics` and `/readyz`
///    the whole run (≥10 scrapes/s). Gate: ≤5% overhead (best of 3
///    interleaved runs per configuration), zero malformed responses,
///    twin certification intact on the scraped cell.
/// 2. **Attach fidelity** — a `--trace` server under load with an
///    in-process `cvc-trace attach`-style tailer streaming `/rings`
///    chunks over the admin socket. Gate: ≥95% of ops assemble into
///    complete traces once the eof-marked final chunk is consumed.
/// 3. **Readiness flip** — killing the core thread must flip `/readyz`
///    to `unready core thread dead` while the admin plane itself stays
///    up to report it.
///
/// Artefact: `BENCH_PR10.json`. The scrape-overhead gate deliberately
/// excludes `--trace` (the ring-dump plane is an opt-in debugging aid
/// with its own documented cost); the attach cell carries the tracing
/// cost and is gated on fidelity, not time. Cells must run for seconds,
/// not sub-second: the paired off/on comparison is wall-clock, and a
/// busy runner's spread on a sub-second cell exceeds the 5% gate by
/// itself — so the smoke sweep keeps the full sweep's ops budget.
pub fn e23_observability(ns: &[usize], ops_budget: usize, max_ops: usize) -> Report {
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    let mut rep = Report::new(
        "E23 — live observability plane: scrape overhead, attach fidelity, readiness probes",
    )
    .artifact("E23 live observability plane", &[]);
    let mut worst = f64::NEG_INFINITY;
    for &n in ns {
        let ops = (ops_budget / n).clamp(64, max_ops) as u64;
        let stats = Arc::new(ScrapeStats::default());
        let unused = Arc::new(ScrapeStats::default());
        let mut per_off = f64::INFINITY;
        let mut per_on = f64::INFINITY;
        let mut clean = true;
        let mut twin_ok = true;
        let mut elapsed_on = 0.0f64;
        // Interleave the two configurations so machine drift hits both;
        // keep the best of three passes each (load noise is one-sided,
        // and on a shared single core one stalled pass is routine).
        for round in 0..3u64 {
            let seed = 0x23E0 + n as u64 + round * 7919;
            let (p, c, _t, _e) = e23_pass(n, ops, seed, false, &unused);
            per_off = per_off.min(p);
            clean &= c;
            let (p, c, t, e) = e23_pass(n, ops, seed, true, &stats);
            per_on = per_on.min(p);
            elapsed_on += e;
            clean &= c;
            twin_ok &= t;
        }
        let scrapes = stats.scrapes.load(Ordering::Relaxed);
        let overhead_pct = (per_on / per_off - 1.0) * 100.0;
        let scrape_rate = scrapes as f64 / elapsed_on.max(1e-9);
        rep.row([
            cell("clients", "clients", &n),
            cell("ops", "ops", &ops),
            float("off µs/op", "per_exec_off_us", per_off, 1, 2),
            float("on µs/op", "per_exec_on_us", per_on, 1, 2),
            shown("overhead", &format!("{overhead_pct:+.1}%")),
            kept("overhead_pct", &overhead_pct).json(Fixed(2)),
            cell("scrapes", "scrapes", &scrapes),
            float("scrapes/s", "scrape_rate_per_sec", scrape_rate, 0, 1),
            cell(
                "errors",
                "scrape_errors",
                &stats.errors.load(Ordering::Relaxed),
            ),
            kept("ready_ok", &stats.ready_ok.load(Ordering::Relaxed)),
            cell("clean", "clean", &clean),
            cell("twin", "twin_ok", &twin_ok),
        ]);
        worst = worst.max(overhead_pct);
    }

    // Sized so the full ring-dump text (O(ops × HB) transform lines)
    // fits the server's bounded ring log even if the tailer lags a
    // whole burst behind; eviction would show up as dangling traces.
    let attach = e23_attach_cell(8, 1024);
    let flip_ok = e23_readiness_flip();
    rep.para(format!(
        "attach cell: {} clients × {} ops — {} complete ({:.1}%), \
         {} truncated, {} dangling, {} parse error(s)",
        attach.num("clients"),
        attach.num("ops"),
        attach.num("complete"),
        attach.num("complete_pct"),
        attach.num("truncated"),
        attach.num("dangling"),
        attach.num("parse_errors"),
    ));
    rep.note(format!(
        "readiness flip on core death: {}",
        if flip_ok { "observed" } else { "NOT observed" }
    ));
    if worst <= 5.0 {
        rep.note(format!(
            "scrape overhead within the 5% ceiling (worst cell {worst:+.1}%)"
        ));
    }
    rep.set_json("attach", attach);
    rep.set(kept("readiness_flip_ok", &flip_ok));
    let overhead_gate = [
        kept("limit_pct", &5.0).json(Fixed(1)),
        kept("worst_pct", &worst).json(Fixed(2)),
        kept("ok", &(worst <= 5.0)),
    ];
    rep.set_json("overhead_gate", object(overhead_gate));
    rep
}

fn e23_gate(r: &Report, scope: Scope<'_>) -> Vec<String> {
    let mut g = Findings::default();
    for row in g.rows(r) {
        require_of!(
            g,
            row,
            // The hard gates: a live scrape loop at >=10/s with zero
            // malformed responses, every ready probe answered, the cell
            // clean and sim-twin-certified.
            row.flag("clean") && row.flag("twin_ok"),
            row.num("scrape_errors") == 0.0,
            row.num("scrape_rate_per_sec") >= 10.0,
            row.num("ready_ok") > 0.0,
            row.num("per_exec_off_us") > 0.0 && row.num("per_exec_on_us") > 0.0,
        );
    }
    let (attach, overhead) = (r.top("attach"), r.top("overhead_gate"));
    require!(
        g,
        // Live attach must assemble >=95% of ops into complete traces
        // with zero parse errors on the stream.
        attach.num("complete_pct") >= 95.0 && attach.num("parse_errors") == 0.0,
        attach.flag("clean") && attach.flag("twin_ok"),
        // Killing the core flips the ready probe.
        *r.top("readiness_flip_ok") == Json::Bool(true),
        overhead.flag("ok") && overhead.num("worst_pct") <= overhead.num("limit_pct"),
    );
    if let Scope::Full = scope {
        g.covers(r, "clients", &[64.0, 256.0]);
    }
    g.0
}

/// Scrape counters shared with the background scraper thread.
#[derive(Default)]
struct ScrapeStats {
    scrapes: std::sync::atomic::AtomicU64,
    errors: std::sync::atomic::AtomicU64,
    ready_ok: std::sync::atomic::AtomicU64,
}

/// One measured load pass. `admin` attaches the admin plane and a
/// scraper thread driving `/metrics.json?since=`, `/metrics` and `/readyz`
/// for the whole run.
/// Returns (per-executed-op µs, run-was-clean, twin-ok, elapsed secs).
fn e23_pass(
    n: usize,
    ops: u64,
    seed: u64,
    admin: bool,
    stats: &std::sync::Arc<ScrapeStats>,
) -> (f64, bool, bool, f64) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let server = loopback_server(n, admin, false);

    let stop = Arc::new(AtomicBool::new(false));
    let scraper = admin.then(|| {
        let addr = server
            .admin_addr()
            .expect("admin plane requested")
            .to_string();
        let stop = stop.clone();
        let stats = stats.clone();
        std::thread::spawn(move || {
            let client = AdminClient::new(&addr, Duration::from_secs(2));
            let mut cursor = 0u64;
            let mut iter = 0u64;
            let malformed = || {
                stats.errors.fetch_add(1, Ordering::Relaxed);
            };
            while !stop.load(Ordering::Relaxed) {
                let delta = client.get_text(&format!("/metrics.json?since={cursor}"));
                match delta.map(|(status, body)| (status, Json::parse(&body))) {
                    Ok((200, Ok(delta))) if delta.has("seq") => cursor = delta.num("seq") as u64,
                    Ok((200, Ok(_))) => {}
                    _ => malformed(),
                }
                // The full Prometheus exposition serialises the whole
                // registry per request — that is what the delta channel
                // exists to avoid at high frequency. Pull it at 1-in-10
                // (~2.5/s, still ~40× a production Prometheus cadence);
                // delta + ready carry the per-iteration scrape.
                if iter.is_multiple_of(10) {
                    match client.get_text("/metrics") {
                        Ok((200, t)) if t.contains("cvc_admin_ready") => {}
                        _ => malformed(),
                    }
                }
                iter += 1;
                match client.get("/readyz") {
                    Ok((200, _)) => {
                        stats.ready_ok.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(_) => {}
                    Err(_) => malformed(),
                }
                stats.scrapes.fetch_add(1, Ordering::Relaxed);
                // ~25 scrapes/s: comfortably past the 10/s acceptance
                // floor and already 25-100× a production Prometheus
                // cadence, without turning the overhead measurement
                // into single-core CPU-share arithmetic.
                std::thread::sleep(Duration::from_millis(40));
            }
        })
    });

    let load = saturate(&server, n, ops, seed);
    stop.store(true, Ordering::Relaxed);
    if let Some(h) = scraper {
        let _ = h.join();
    }
    let served = server.shutdown();

    let clean = load.converged
        && load.distinct_checksums == 1
        && load.protocol_errors + load.conn_errors == 0
        && served.protocol_errors + served.frame_errors + served.io_errors == 0;
    let per_exec = load.elapsed.as_secs_f64() * 1e6 / load.ops_acked.max(1) as f64;
    let twin_ok = twin_certified(n, &served, &load);
    (per_exec, clean, twin_ok, load.elapsed.as_secs_f64())
}

/// The attach-fidelity cell: a `--trace` server under load with an
/// in-process tailer streaming `/rings` chunks like `cvc-trace attach`.
fn e23_attach_cell(n: usize, ops: u64) -> Json {
    use cvc_net::parse_rings_response;
    use cvc_reduce::trace::{parse_ring_line, TraceTailer};

    let server = loopback_server(n, true, true);
    let admin_addr = server.admin_addr().expect("admin plane on").to_string();

    // Set whenever the tailer polls an empty chunk, i.e. it has consumed
    // everything published so far. Shutdown waits for it: the admin
    // plane's post-shutdown drain window is sized for the final chunk,
    // not for a debug-build tailer's whole parsing backlog.
    let caught_up = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let caught_up_tailer = caught_up.clone();

    let tailer_thread = std::thread::spawn(move || {
        let mut tailer = TraceTailer::with_clients(1..=n as u32);
        let mut parse_errors = 0u64;
        let client = AdminClient::new(&admin_addr, Duration::from_secs(2));
        let mut offset = 0u64;
        let mut carry = String::new();
        let deadline = Instant::now() + Duration::from_secs(60);
        // Server past its drain window => request errors end the stream.
        while let Ok((200, payload)) = client.get(&format!("/rings?offset={offset}")) {
            let Some((_, next, eof, body)) = parse_rings_response(&payload) else {
                parse_errors += 1;
                break;
            };
            offset = next;
            if !body.is_empty() {
                carry.push_str(&String::from_utf8_lossy(body));
                while let Some(nl) = carry.find('\n') {
                    let line: String = carry.drain(..=nl).collect();
                    match parse_ring_line(&line) {
                        Ok(Some((site, ev))) => tailer.push(site, &ev),
                        Ok(None) => {}
                        Err(_) => parse_errors += 1,
                    }
                }
            }
            if eof || Instant::now() > deadline {
                break;
            }
            if body.is_empty() {
                caught_up_tailer.store(true, std::sync::atomic::Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        (tailer.finish(), parse_errors)
    });

    let load = saturate(&server, n, ops, 0x23A7 + n as u64);
    // The flag may have been set mid-run (tailer briefly level with the
    // live stream); clear it and wait for a fresh catch-up against the
    // post-load ring end before tearing the server down.
    caught_up.store(false, std::sync::atomic::Ordering::Relaxed);
    let wait_deadline = Instant::now() + Duration::from_secs(90);
    while !caught_up.load(std::sync::atomic::Ordering::Relaxed)
        && !tailer_thread.is_finished()
        && Instant::now() < wait_deadline
    {
        std::thread::sleep(Duration::from_millis(20));
    }
    let served = server.shutdown();
    let (set, parse_errors) = tailer_thread.join().expect("tailer thread");

    let complete = set.traces.iter().filter(|t| t.complete()).count();
    let truncated = set.traces.iter().filter(|t| t.truncated).count();
    let dangling = set.traces.len().saturating_sub(complete + truncated);
    let complete_pct = complete as f64 * 100.0 / ops.max(1) as f64;
    let clean = load.converged
        && load.protocol_errors + load.conn_errors == 0
        && served.protocol_errors + served.frame_errors + served.io_errors == 0;
    object([
        kept("clients", &n),
        kept("ops", &ops),
        kept("complete", &complete),
        kept("truncated", &truncated),
        kept("dangling", &dangling),
        kept("parse_errors", &parse_errors),
        kept("complete_pct", &complete_pct).json(Fixed(2)),
        kept("clean", &clean),
        kept("twin_ok", &twin_certified(n, &served, &load)),
    ])
}

/// Kill the core thread on a live server and watch the `/readyz` probe
/// flip while the admin plane stays answerable.
fn e23_readiness_flip() -> bool {
    let server = loopback_server(2, true, false);
    let addr = server.admin_addr().expect("admin plane on").to_string();
    let client = AdminClient::new(&addr, Duration::from_secs(2));
    if !matches!(client.get("/readyz"), Ok((200, _))) {
        return false;
    }
    server.halt_core();
    let mut flipped = false;
    for _ in 0..200 {
        match client.get_text("/readyz") {
            Ok((503, t)) if t.contains("core thread dead") => {
                flipped = true;
                break;
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(10)),
            Err(_) => break,
        }
    }
    server.shutdown();
    flipped
}

/// One entry of the registry: everything `repro` needs to run, list,
/// gate and check an experiment.
pub struct Experiment {
    /// The id `repro <name>` takes.
    pub name: &'static str,
    /// One line for `repro list`.
    pub summary: &'static str,
    /// Measures wall-clock: must not share the machine with the worker
    /// pool, records `cores`, and is not reproducible bit for bit.
    pub timing: bool,
    /// The committed artefact the full run regenerates, if it writes one.
    pub artifact: Option<&'static str>,
    /// The full sweep.
    pub run: fn() -> Report,
    /// The small sweep behind `repro <name>-smoke` (the CI bench gates).
    pub smoke: Option<fn() -> Report>,
    /// What must hold of the report.
    pub gate: Gate,
}

impl Experiment {
    /// A virtual-time experiment that prints a table and promises nothing.
    const fn new(name: &'static str, summary: &'static str, run: fn() -> Report) -> Experiment {
        Experiment {
            name,
            summary,
            timing: false,
            artifact: None,
            run,
            smoke: None,
            gate: ungated,
        }
    }

    const fn wall_clock(mut self) -> Experiment {
        self.timing = true;
        self
    }

    const fn gated(mut self, gate: Gate) -> Experiment {
        self.gate = gate;
        self
    }

    const fn writes(mut self, artifact: &'static str, gate: Gate) -> Experiment {
        self.artifact = Some(artifact);
        self.gate = gate;
        self
    }

    const fn smoke(mut self, smoke: fn() -> Report) -> Experiment {
        self.smoke = Some(smoke);
        self
    }
}

/// Every experiment, in report order: the one list behind `repro <id>`,
/// `repro <id>-smoke`, `repro list`, `repro all` and `repro check`.
pub static EXPERIMENTS: [Experiment; 23] = [
    Experiment::new("e1", "topology message mapping (Fig. 1)", e1_topology).gated(e1_gate),
    Experiment::new("e2", "divergence & intention violation (Fig. 2)", e2_fig2),
    Experiment::new("e3", "compressed clock walkthrough (Fig. 3)", e3_fig3).gated(walkthrough_gate),
    Experiment::new("e4", "timestamp size vs N", e4_timestamp_size),
    Experiment::new("e5", "clock storage per site", e5_storage),
    Experiment::new("e6", "whole-session wire cost", e6_session_overhead),
    Experiment::new("e7", "processing throughput", e7_throughput).wall_clock(),
    Experiment::new("e8", "verdicts vs causality oracle", e8_oracle).gated(oracle_gate),
    Experiment::new("e9", "ablation: stamps without OT", e9_ablation),
    Experiment::new("e10", "delivery latency: the star's extra hop", e10_latency),
    Experiment::new("e11", "dynamic membership (extension)", e11_membership).gated(oracle_gate),
    Experiment::new("e12", "composing clients (extension)", e12_composing),
    Experiment::new("e13", "bandwidth-limited links (extension)", e13_bandwidth),
    Experiment::new(
        "e14",
        "notifier hot-path throughput (suffix vs full scan)",
        || e14_throughput(&[4, 16, 64, 256], 10),
    )
    .wall_clock()
    .writes("BENCH_PR1.json", e14_gate),
    Experiment::new(
        "e15",
        "unreliable-transport survival (sessions over connections)",
        || e15_robustness(&[4, 16, 64], 12),
    )
    .writes("BENCH_PR2.json", e15_gate),
    Experiment::new(
        "e16",
        "per-op cost curve with ack-driven GC (N to 1024)",
        || e16_scaling(&[4, 64, 256, 1024], 10),
    )
    .smoke(|| e16_scaling(&[4, 64], 5))
    .wall_clock()
    .writes("BENCH_PR3.json", e16_gate),
    Experiment::new(
        "e17",
        "flight-recorder overhead vs the E16 baseline",
        || e17_recorder_overhead(64, 10, 3),
    )
    .smoke(|| e17_recorder_overhead(8, 5, 1))
    .wall_clock()
    .writes("BENCH_PR4.json", e17_gate),
    Experiment::new(
        "e18",
        "convergence-latency attribution (traced loss x N sweep)",
        || e18_convergence_tracing(&[16, 64, 256], &[0.0, 0.01, 0.05], 512, 2),
    )
    .smoke(|| e18_convergence_tracing(&[4], &[0.0, 0.01], 20, 1))
    .wall_clock()
    .writes("BENCH_PR5.json", e18_gate),
    Experiment::new(
        "e19",
        "encode-once broadcast + compound-frame goodput (N to 4096)",
        || e19_throughput(&[16, 64, 256, 1024, 4096], &[0.0, 0.01], 4096),
    )
    .smoke(|| e19_throughput(&[16, 64], &[0.0, 0.01], 512))
    .wall_clock()
    .writes("BENCH_PR6.json", e19_gate),
    Experiment::new(
        "e20",
        "notifier durability and warm-standby failover (crash sweep)",
        || e20_failover(&[16, 64, 256], &[0.0, 0.01], 2048),
    )
    .smoke(|| e20_failover(&[16, 64], &[0.0, 0.01], 512))
    .writes("BENCH_PR7.json", e20_gate),
    Experiment::new(
        "e22",
        "loopback saturation sweep over real TCP (N to 4096)",
        || e22_loopback(&[64, 512, 2048, 4096]),
    )
    .smoke(|| e22_loopback(&[32, 128]))
    .wall_clock()
    .writes("BENCH_PR9.json", e22_gate),
    Experiment::new(
        "e23",
        "live observability plane: scrape overhead, attach, probes",
        || e23_observability(&[64, 256], 262_144, 4096),
    )
    .smoke(|| e23_observability(&[32, 128], 262_144, 2048))
    .wall_clock()
    .writes("BENCH_PR10.json", e23_gate),
    Experiment::new(
        "failover",
        "step-by-step WAL/promotion/resync walkthrough",
        failover,
    )
    .gated(walkthrough_gate),
];

/// `repro list`: one line per runnable id.
pub fn list() -> String {
    let mut out = String::new();
    for e in &EXPERIMENTS {
        let clock = if e.timing { " [wall-clock]" } else { "" };
        out.push_str(&format!("{:<3} {}{clock}\n", e.name, e.summary));
        if e.smoke.is_some() {
            out.push_str(&format!(
                "{0}-smoke  small {0} sweep for the CI bench gate\n",
                e.name
            ));
        }
    }
    out
}

/// Resolve `e16` or `e16-smoke` to its entry (and whether it is the smoke).
pub fn lookup(id: &str) -> Option<(&'static Experiment, bool)> {
    let (name, smoke) = id.strip_suffix("-smoke").map_or((id, false), |n| (n, true));
    let e = EXPERIMENTS.iter().find(|e| e.name == name)?;
    (!smoke || e.smoke.is_some()).then_some((e, smoke))
}

/// The machine's available parallelism (1 when it cannot be told).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Run one experiment and gate it. A smoke run is judged as a partial
/// sweep against the committed artefact (read from the working
/// directory, the way E17 reads `BENCH_PR3.json`); a full run is judged
/// as the artefact it would replace.
pub fn run_gated(e: &Experiment, smoke: bool) -> Report {
    let run = e.smoke.filter(|_| smoke).unwrap_or(e.run);
    let mut report = run();
    if e.timing {
        report.stamp_cores(cores());
        if cfg!(debug_assertions) {
            report.para("NOTE: debug build — timings are not representative; use --release.");
        }
    }
    let baseline = e.artifact.filter(|_| smoke).and_then(committed);
    let scope = if smoke {
        Scope::Partial(baseline.as_ref())
    } else {
        Scope::Full
    };
    report.failed = (e.gate)(&report, scope);
    report
}

/// Run every experiment, gated, in registry order.
///
/// The virtual-time experiments fan out across `threads` scoped workers
/// (work-stealing off a shared index); the `timing` ones then run one at
/// a time on the idle machine. Every virtual-time report is identical no
/// matter how many workers ran.
pub fn run_all(threads: usize) -> Vec<(&'static Experiment, Report)> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let indexed = || EXPERIMENTS.iter().enumerate();
    let pooled: Vec<(usize, &Experiment)> = indexed().filter(|(_, e)| !e.timing).collect();
    // A work index publishes nothing but itself.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, Report)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.clamp(1, pooled.len()))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    while let Some(&(i, e)) = pooled.get(next.fetch_add(1, Ordering::Relaxed)) {
                        mine.push((i, run_gated(e, false)));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("an experiment panicked"))
            .collect()
    });
    for (i, e) in indexed().filter(|(_, e)| e.timing) {
        done.push((i, run_gated(e, false)));
    }
    done.sort_by_key(|(i, _)| *i);
    let in_order = done.into_iter();
    in_order.map(|(i, r)| (&EXPERIMENTS[i], r)).collect()
}

/// `repro check`: judge one committed artefact. `name` is its path (for
/// the findings, and to hold a `BENCH_PRn.json` to the experiment the
/// registry says owns it); `text` its contents. The experiment's gate
/// applies at full scope; with `regenerate`, a virtual-time experiment is
/// also re-run and must reproduce the file byte for byte.
pub fn check_artifact(name: &str, text: &str, regenerate: bool) -> Vec<String> {
    let report = match Report::from_json(text) {
        Ok(r) => r,
        Err(e) => return vec![format!("{name}: not a JSON artefact: {e}")],
    };
    let title = report.top("experiment").as_text();
    let id = title.split(' ').next().unwrap_or("").to_lowercase();
    let Some(e) = EXPERIMENTS
        .iter()
        .find(|e| e.name == id && e.artifact.is_some())
    else {
        return vec![format!(
            "{name}: `experiment` {title:?} names no experiment that writes an artefact"
        )];
    };
    let mut g = Findings::default();
    let file = name.rsplit('/').next().unwrap_or(name);
    let profile = report.top("profile").as_text();
    require!(
        g,
        // A `BENCH_PRn.json` holds the experiment the registry says
        // writes it, and committed artefacts are release builds.
        !EXPERIMENTS
            .iter()
            .any(|x| x.artifact == Some(file) && x.name != e.name),
        profile == "release",
    );
    g.0.extend((e.gate)(&report, Scope::Full));
    if regenerate && !e.timing {
        // Virtual-time numbers do not depend on the build profile; only
        // the stamp does, so it is the one line allowed to differ.
        let fresh = (e.run)().to_json();
        let mut lines = text.lines().zip(fresh.lines()).enumerate();
        let moved = lines.find(|(_, (was, now))| was != now && !was.starts_with("  \"profile\": "));
        if let Some((i, (was, now))) = moved {
            g.0.push(format!(
                "line {} is not what `repro {}` regenerates (byte-identical gate):\n  committed:   {}\n  regenerated: {}",
                i + 1,
                e.name,
                was.trim(),
                now.trim()
            ));
        }
        require!(g, text.lines().count() == fresh.lines().count());
    }
    let prefix = |f: String| format!("{name}: {} gate: {f}", e.name);
    g.0.into_iter().map(prefix).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed artefact at the repository root.
    fn committed_text(artifact: &str) -> String {
        let path = format!("{}/../../{artifact}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    /// A value's schema: keys in order, and for every number whether it
    /// is an integer or how many decimals it carries.
    fn shape(v: &Json) -> String {
        match v {
            Json::Num(t) => match t.split_once('.') {
                Some((_, frac)) => format!("f{}", frac.len()),
                None => "i".to_string(),
            },
            Json::Obj(fields) => {
                let fields: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{k}:{}", shape(v)))
                    .collect();
                format!("{{{}}}", fields.join(","))
            }
            Json::Arr(items) => format!("[{}]", items.first().map_or(String::new(), shape)),
            Json::Str(_) => "s".to_string(),
            Json::Bool(_) => "b".to_string(),
            Json::Null => "null".to_string(),
        }
    }

    /// A tiny sweep passes its row gates and writes what the committed
    /// artefact holds: the same top-level keys in the same order (`cores`
    /// aside — only `run_gated` stamps it), the same row keys in the same
    /// order, and the same number format under every key.
    fn assert_well_formed(rep: &Report, gate: Gate, artifact: &str) {
        assert_well_formed_but(rep, gate, artifact, "");
    }

    /// [`assert_well_formed`], where the committed artefact, measured
    /// before a row field went, still carries it: `dropped` is its shape.
    fn assert_well_formed_but(rep: &Report, gate: Gate, artifact: &str, dropped: &str) {
        assert_eq!(gate(rep, Scope::Partial(None)), Vec::<String>::new());
        let fresh = Report::from_json(&rep.to_json()).expect("the writer writes JSON");
        let committed = Report::from_json(&committed_text(artifact)).expect("committed JSON");
        let keys = |r: &Report| -> Vec<String> {
            let top = Json::parse(&r.to_json()).expect("JSON");
            let keys = top.fields().iter().map(|(k, _)| k.clone());
            keys.filter(|k| k != "cores").collect()
        };
        assert_eq!(keys(&fresh), keys(&committed), "{artifact}: top-level keys");
        let first_row = |r: &Report| r.rows().next().map(|row| shape(&row));
        assert_eq!(
            first_row(&fresh),
            first_row(&committed).map(|shape| shape.replacen(dropped, "", 1)),
            "{artifact}: rows"
        );
        for key in ["attach", "overhead_gate"] {
            assert_eq!(shape(fresh.top(key)), shape(committed.top(key)), "{key}");
        }
        let sections = |r: &Report| -> Vec<String> {
            let metrics = r.top("metrics").fields().iter();
            metrics.map(|(k, _)| k.clone()).collect()
        };
        assert_eq!(
            sections(&fresh),
            sections(&committed),
            "{artifact}: metrics"
        );
    }

    #[test]
    fn e1_reports_both_topologies() {
        let s = e1_topology().render();
        assert!(s.contains("star/cvc") && s.contains("mesh/full-vc"));
    }

    #[test]
    fn e1_gate_bounds_the_star_by_its_ack_budget_and_pins_the_mesh() {
        let budget = 3.0 / ACK_INTERVAL as f64;
        let mut rep = Report::new("t");
        for (topology, model, measured) in [
            ("star/cvc", 4u64, 4.0 + budget),
            ("star/cvc", 4, 4.0 + budget + 0.01),
            ("mesh/full-vc", 3, 3.0),
            ("mesh/full-vc", 3, 3.01),
        ] {
            rep.row([
                cell("N", "n", &4u64),
                cell("topology", "topology", &topology),
                cell("msgs/op (model)", "model", &model),
                cell("msgs/op (measured)", "measured", &measured),
            ]);
        }
        let found = e1_gate(&rep, Scope::Full);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].starts_with("row 1 (") && found[0].ends_with("ACK_INTERVAL as f64"));
        assert!(found[1].starts_with("row 3 (") && found[1].ends_with("measured == model"));
    }

    #[test]
    fn e2_contains_paper_strings() {
        let s = e2_fig2().render();
        assert!(s.contains("A1DE") && s.contains("A12B"));
        assert!(s.contains("divergence: true"));
    }

    #[test]
    fn e3_walkthrough_converges() {
        let rep = e3_fig3();
        assert!(rep.render().contains("converged: true"));
        assert_eq!(walkthrough_gate(&rep, Scope::Full), Vec::<String>::new());
        let broken = Report::new("a walkthrough that did not converge");
        assert_eq!(walkthrough_gate(&broken, Scope::Full).len(), 1);
    }

    #[test]
    fn e5_has_rows_for_sweep() {
        let s = e5_storage().render();
        for n in N_SWEEP {
            assert!(s.contains(&format!("\n{n} ")), "missing N={n}");
        }
    }

    #[test]
    fn e8_shows_zero_disagreements() {
        let rep = e8_oracle();
        assert_eq!(oracle_gate(&rep, Scope::Full), Vec::<String>::new());
        for line in rep.render().lines().filter(|l| l.contains("seeds total")) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            // "disagreements" column is second from last.
            assert_eq!(cols[cols.len() - 2], "0", "line: {line}");
        }
    }

    #[test]
    fn oracle_gate_names_the_disagreeing_row() {
        let mut rep = Report::new("t");
        for (harness, disagreements, converged) in [("clean", 0u64, true), ("wrong", 3, false)] {
            rep.row([
                cell("harness", "harness", &harness),
                cell("disagreements", "disagreements", &disagreements),
                cell("all converged", "all_converged", &converged),
            ]);
        }
        let found = oracle_gate(&rep, Scope::Full);
        assert_eq!(
            found,
            [
                "row 1 (harness=\"wrong\" disagreements=3 all_converged=false): \
                 row.num(\"disagreements\") == 0.0",
                "row 1 (harness=\"wrong\" disagreements=3 all_converged=false): \
                 !row.has(\"all_converged\") || row.flag(\"all_converged\")",
            ]
        );
        rep.failed = found;
        assert!(rep.render().contains("\n\nFAILED: row 1 ("));
    }

    #[test]
    fn e11_membership_is_clean() {
        let rep = e11_membership();
        assert_eq!(oracle_gate(&rep, Scope::Full), Vec::<String>::new());
        let s = rep.render();
        assert!(s.contains("true"));
        let mut in_body = false;
        for line in s.lines() {
            if line.starts_with('-') {
                in_body = true;
                continue;
            }
            if !in_body || line.is_empty() {
                continue;
            }
            let cols: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cols[cols.len() - 2], "0", "disagreements in: {line}");
        }
    }

    #[test]
    fn e12_composing_reduces_client_messages() {
        let s = e12_composing().render();
        assert!(s.contains("streaming") && s.contains("composing"));
        assert!(s.contains("true"));
    }

    #[test]
    fn e14_compares_scan_strategies() {
        // Small sizes so the quadratic baseline stays cheap in debug.
        let s = e14_throughput(&[4, 8], 5).render();
        assert!(s.contains("star/cvc suffix") && s.contains("star/cvc full-scan"));
        assert!(s.contains("mesh/full-vc"));
        assert!(s.contains("true"), "sessions must converge: {s}");
    }

    #[test]
    fn e14_json_rows_are_well_formed() {
        assert_well_formed(&e14_throughput(&[4], 5), e14_gate, "BENCH_PR1.json");
    }

    #[test]
    fn e15_loss_sweep_converges_and_shows_activity() {
        // Small sizes so the sweep stays cheap in debug.
        let rep = e15_robustness(&[3], 6);
        assert_eq!(e15_gate(&rep, Scope::Full), Vec::<String>::new());
        let s = rep.render();
        // The 0% row is clean; the 5% row must show stalled connections.
        assert!(s.contains("0.0%") && s.contains("5.0%"), "{s}");
        let stalled = |row: &Row<'_>| row.num("loss") == 0.05 && row.num("stalls") > 0.0;
        assert!(rep.rows().any(|row| stalled(&row)), "{s}");
    }

    #[test]
    fn e15_json_rows_are_well_formed() {
        assert_well_formed(&e15_robustness(&[3], 6), e15_gate, "BENCH_PR2.json");
    }

    #[test]
    fn e16_sweep_converges_and_reports_drift() {
        // Small sizes so the sweep stays cheap in debug.
        let s = e16_scaling(&[4, 8], 5).render();
        assert!(s.contains("per-exec drift"), "{s}");
        assert!(s.contains("true"), "sessions must converge: {s}");
    }

    #[test]
    fn e16_json_rows_are_well_formed() {
        let rep = e16_scaling(&[4, 8], 5);
        assert_well_formed(&rep, e16_gate, "BENCH_PR3.json");
        // The smoke regression bound: within 2x of the baseline's N=64
        // row — which this sweep does not even have.
        let found = e16_gate(&rep, Scope::Partial(Some(&rep)));
        assert!(
            found.len() == 1 && found[0].contains("NaN vs NaN"),
            "{found:?}"
        );
    }

    #[test]
    fn e17_json_embeds_rows_and_metrics() {
        let rep = e17_recorder_overhead(4, 3, 1);
        assert_well_formed(&rep, e17_gate, "BENCH_PR4.json");
        let json = rep.to_json();
        assert!(json.contains("\"config\": \"recorder-off\""));
        assert!(json.contains("\"config\": \"recorder-on\""));
        assert!(
            json.contains(
                "\n  \"metrics\": {\"counters\":{\"recorder-off.clients.ack_bytes_sent\":"
            ),
            "registry snapshot must be embedded, compact: {json}"
        );
    }

    #[test]
    fn e17_smoke_reports_both_configs() {
        let s = e17_recorder_overhead(4, 3, 1).render();
        assert!(
            s.contains("recorder-off") && s.contains("recorder-on"),
            "{s}"
        );
        assert!(s.contains("recorder-on vs recorder-off"), "{s}");
    }

    #[test]
    fn pr3_baseline_parser_reads_the_row() {
        let pr3 = Report::from_json(
            "{\n  \"rows\": [\n    {\"n\": 4, \"per_exec_us\": 3.594, \"acks\": 2},\n    {\"n\": 64, \"per_exec_us\": 2.666, \"acks\": 4741}\n  ]\n}\n",
        )
        .expect("JSON");
        assert_eq!(pr3.find(&[("n", 64.0)]).num("per_exec_us"), 2.666);
        assert!(pr3.find(&[("n", 1024.0)]).num("per_exec_us").is_nan());
    }

    #[test]
    fn experiment_registry_is_complete_and_ordered() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        // E21 (the retired federation) stays reserved.
        let mut expected: Vec<String> = (1..=23)
            .filter(|&i| i != 21)
            .map(|i| format!("e{i}"))
            .collect();
        expected.push("failover".to_string());
        assert_eq!(names, expected);
        // Exactly the wall-clock experiments are marked timing-sensitive.
        let timing: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| e.timing)
            .map(|e| e.name)
            .collect();
        assert_eq!(
            timing,
            vec!["e7", "e14", "e16", "e17", "e18", "e19", "e22", "e23"]
        );
        // Every id `repro list` prints resolves, and nothing else does.
        for line in list().lines() {
            let id = line.split(' ').next().expect("an id");
            let (e, smoke) = lookup(id).unwrap_or_else(|| panic!("{id} does not resolve"));
            assert_eq!(smoke, id.ends_with("-smoke"));
            assert!(id.starts_with(e.name));
        }
        assert!(lookup("e14-smoke").is_none() && lookup("e24").is_none());
        assert!(lookup("e21").is_none() && lookup("e21-smoke").is_none());
        // Every artefact is committed under the name the registry gives
        // it, numbered in registry order, and names its experiment.
        let artifacts: Vec<&str> = EXPERIMENTS.iter().filter_map(|e| e.artifact).collect();
        let numbered: Vec<String> = (1..=10)
            .filter(|&i| i != 8)
            .map(|i| format!("BENCH_PR{i}.json"))
            .collect();
        assert_eq!(artifacts, numbered);
        for e in EXPERIMENTS.iter().filter(|e| e.artifact.is_some()) {
            let text = committed_text(e.artifact.expect("filtered"));
            let prefix = format!("  \"experiment\": \"{} ", e.name.to_uppercase());
            assert!(
                text.contains(&prefix),
                "{:?} is not {}'s",
                e.artifact,
                e.name
            );
        }
    }

    #[test]
    fn every_committed_artefact_passes_its_gate() {
        for artifact in EXPERIMENTS.iter().filter_map(|e| e.artifact) {
            let text = committed_text(artifact);
            assert_eq!(check_artifact(artifact, &text, false), Vec::<String>::new());
            // The one writer lays a file out exactly as it was committed.
            let reread = Report::from_json(&text).expect("checked above");
            assert_eq!(reread.to_json(), text, "{artifact} does not round-trip");
        }
    }

    #[test]
    fn a_diverged_cell_fails_check_naming_file_row_and_gate() {
        let text = committed_text("BENCH_PR7.json");
        let row_4 = text.lines().nth(8).expect("header, then rows");
        let flipped = row_4.replacen("\"converged\": true", "\"converged\": false", 1);
        let found = check_artifact(
            "/tmp/BENCH_PR7.json",
            &text.replacen(row_4, &flipped, 1),
            false,
        );
        assert_eq!(
            found,
            ["/tmp/BENCH_PR7.json: e20 gate: row 4 (n=16 loss=0.01 crash_point=\"mid-broadcast\"): \
              row.flag(\"converged\")"]
        );
    }

    #[test]
    fn a_missing_sweep_row_fails_check_naming_file_row_and_gate() {
        let text = committed_text("BENCH_PR3.json");
        let kept: Vec<&str> = text
            .lines()
            .filter(|l| !l.contains("\"n\": 256,"))
            .collect();
        let found = check_artifact("BENCH_PR3.json", &(kept.join("\n") + "\n"), false);
        assert_eq!(found.len(), 2, "{found:?}");
        assert_eq!(
            found[0],
            "BENCH_PR3.json: e16 gate: the sweep has a n=256 row"
        );
        assert!(found[1].ends_with("r.find(&[(\"n\", 256.0)]).num(\"wall_ms\") < 11135.127 / 5.0"));
    }

    #[test]
    fn an_edited_digit_fails_check_naming_file_row_and_gate() {
        // 304920 wire bytes at N=64 / 1% loss; every row gate still holds
        // one byte up, so only regeneration can tell.
        let text = committed_text("BENCH_PR2.json");
        let edited = text.replacen("\"wire_bytes\": 304920", "\"wire_bytes\": 304921", 1);
        assert_ne!(edited, text);
        assert_eq!(
            check_artifact("BENCH_PR2.json", &edited, false),
            Vec::<String>::new()
        );
        let found = check_artifact("BENCH_PR2.json", &edited, true);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].starts_with(
                "BENCH_PR2.json: e15 gate: line 17 is not what `repro e15` regenerates \
                 (byte-identical gate):\n  committed:   {\"n\": 64, \"loss\": 0.01,"
            ),
            "{found:?}"
        );
        // …and the committed file is exactly what E15 writes.
        assert_eq!(
            check_artifact("BENCH_PR2.json", &text, true),
            Vec::<String>::new()
        );
    }

    #[test]
    fn check_refuses_what_it_cannot_place() {
        let found = check_artifact("x.json", "{\"experiment\": \"E1 topology\"}", false);
        assert!(found[0].contains("names no experiment that writes an artefact"));
        assert!(check_artifact("x.json", "[1, 2", false)[0].contains("not a JSON artefact"));
        // E14's artefact under E15's committed name, built in debug.
        let misplaced = committed_text("BENCH_PR1.json").replace("release", "debug");
        let found = check_artifact("BENCH_PR2.json", &misplaced, false);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].ends_with("x.artifact == Some(file) && x.name != e.name)"));
        assert!(found[1].ends_with("profile == \"release\""));
    }

    #[test]
    fn e19_small_sweep_converges_and_coalesces() {
        // Tiny sizes so the sessions stay cheap in debug; the
        // byte-derived columns (goodput, frames/op) are deterministic.
        let rep = e19_throughput(&[4, 8], &[0.0, 0.01], 64);
        // The committed wall-clock artefact predates connections and
        // still carries the link's retransmit count.
        assert_well_formed_but(&rep, e19_gate, "BENCH_PR6.json", "retransmits:i,");
        let s = rep.render();
        assert!(s.contains("goodput") && s.contains("frames/op"), "{s}");
        // Compound framing must actually coalesce: every row's
        // frames-per-op ratio sits strictly below one frame per message.
        for line in s
            .lines()
            .filter(|l| l.starts_with(|c: char| c.is_ascii_digit()))
        {
            let cols: Vec<&str> = line.split_whitespace().collect();
            let frames_per_op: f64 = cols[7].parse().expect("frames/op column");
            assert!(frames_per_op < 1.0, "no coalescing in row: {line}");
        }
    }

    #[test]
    fn e18_tiny_sweep_traces_every_op() {
        let rep = e18_convergence_tracing(&[4], &[0.0, 0.01], 20, 1);
        assert_well_formed(&rep, e18_gate, "BENCH_PR5.json");
        assert!(rep
            .render()
            .contains("every generated op assembled into exactly one explained trace"));
    }

    #[test]
    fn e20_small_sweep_recovers_every_crash_point() {
        // Tiny sizes so the crash sessions stay cheap in debug; recovery
        // times are virtual, so the gates are exact.
        let rep = e20_failover(&[4, 8], &[0.0, 0.01], 64);
        assert_well_formed(&rep, e20_gate, "BENCH_PR7.json");
        let s = rep.render();
        assert!(
            s.contains("every crash point recovered"),
            "missing recovery line: {s}"
        );
        // All three crash points appear per (N, loss) cell.
        for point in ["before-send", "mid-broadcast", "after-send"] {
            assert_eq!(
                s.matches(point).count(),
                4,
                "expected 4 rows for {point}: {s}"
            );
        }
    }

    #[test]
    fn e9_shows_nonzero_errors() {
        let s = e9_ablation().render();
        assert!(s.contains('%'));
        // At least one row should have nonzero "wrong".
        let any_nonzero = s
            .lines()
            .filter(|l| l.contains("no OT"))
            .any(|l| !l.contains(" 0 "));
        assert!(any_nonzero, "{s}");
    }
}
