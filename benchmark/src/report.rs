//! The metric tables, and how each value is computed from a session.
//!
//! The tables are the single source for three things: what a run prints,
//! the JSON result line, and `BENCHMARK.json` (`--describe` prints it; a
//! test holds the committed file to that output).

use crate::harness::{SessionResult, WindowSample};
use crate::replay::ReplayResult;
use crate::stats::{good_decile, median};
use crate::trace::Kind;
use crate::workload::WORKLOADS;
use std::fmt::Write as _;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

/// What a user of the editor (or its operator) sees. Every timing is the
/// good-side decile over the run's windows of the per-window statistic.
pub const END_TO_END: [MetricDef; 8] = [
    // Spawn, N connects, hellos, prefill to the target length: median of
    // the run's set-ups.
    e2e("setup_s", "s", "lower", 0.25),
    // Operations acknowledged per second.
    e2e("goodput_ops_s", "ops/s", "higher", 0.25),
    // Send → the ServerAck covering the op; p50 per window.
    e2e("ack_rtt_p50_us", "us", "lower", 0.25),
    // Run time of every thread — the server's and the generator's — per
    // acknowledged op: what one edit costs the machine, kernel included.
    e2e("cpu_us_per_op", "us", "lower", 0.25),
    // The generator's part of it: all N replicas and their sockets. The
    // rest is the server's (`net.server.cpu_us_per_op` in a traced run).
    e2e("client_cpu_us_per_op", "us", "lower", 0.25),
    // Framed bytes up + down over all connections per op: the paper's
    // headline (a 2-integer stamp keeps this flat as clients are added).
    e2e("wire_bytes_per_op", "B", "lower", 0.05),
    // VmHWM when a fixed number of measured ops has been acknowledged.
    e2e("rss_peak_mb", "MB", "lower", 0.10),
    // Ops acknowledged and converged / ops issued. 1.0 or the run failed.
    e2e("acked_share", "ratio", "higher", 0.01),
];

/// One layer each; README.md says which end-to-end metric each should
/// move, on which workload.
pub const PER_LAYER: [MetricDef; 56] = [
    layer("net.server.cpu_us_per_op", "us", "lower"),
    layer("net.server.worker_cpu_us_per_op", "us", "lower"),
    layer("net.server.worker_runq_wait_us_per_op", "us", "lower"),
    layer("net.server.core_cpu_us_per_op", "us", "lower"),
    layer("net.server.core_runq_wait_us_per_op", "us", "lower"),
    layer("net.server.core_unattributed_us_per_op", "us", "lower"),
    layer("net.server.msgs_per_frame", "count", "higher"),
    layer("net.server.frames_out_per_op", "count", "lower"),
    layer("net.server.frames_in_per_op", "count", "lower"),
    layer("net.server.outbox_high_water", "count", "lower"),
    layer("reduce.wal.amplification", "ratio", "lower"),
    layer("reduce.wal.appends_per_op", "count", "lower"),
    layer("reduce.wal.bytes_per_op", "B", "lower"),
    layer("reduce.wal.append_ns", "ns", "lower"),
    layer("reduce.notifier.hb_high_water", "count", "lower"),
    layer("reduce.notifier.integrate_ns", "ns", "lower"),
    layer("reduce.notifier.concurrent_per_op", "count", "lower"),
    layer("reduce.notifier.scan_len_per_op", "count", "lower"),
    layer("reduce.msg.frame_encode_ns", "ns", "lower"),
    layer("net.frame.write_ns", "ns", "lower"),
    layer("net.frame.write_calls_per_op", "count", "lower"),
    layer("net.frame.parse_ns", "ns", "lower"),
    layer("ot.buffer.apply_ns", "ns", "lower"),
    layer("core.compress_ns", "ns", "lower"),
    layer("core.compress_calls_per_op", "count", "lower"),
    layer("core.formula7_ns", "ns", "lower"),
    layer("core.formula7_calls_per_op", "count", "lower"),
    layer("reduce.msg.encode_ns", "ns", "lower"),
    layer("reduce.msg.encode_calls_per_op", "count", "lower"),
    layer("reduce.msg.decode_ns", "ns", "lower"),
    layer("reduce.msg.decode_calls_per_op", "count", "lower"),
    layer("reduce.client.edit_ns", "ns", "lower"),
    layer("reduce.client.edit_calls_per_op", "count", "lower"),
    layer("reduce.client.exec_ns", "ns", "lower"),
    layer("reduce.client.exec_calls_per_op", "count", "lower"),
    layer("reduce.client.gc_ns", "ns", "lower"),
    layer("reduce.client.gc_calls_per_op", "count", "lower"),
    layer("net.conn.send_ns", "ns", "lower"),
    layer("net.conn.send_calls_per_op", "count", "lower"),
    layer("net.conn.read_ns", "ns", "lower"),
    layer("net.conn.read_calls_per_op", "count", "lower"),
    layer("net.poll.wakeups_per_op", "count", "lower"),
    layer("ot.seq.transform_ns", "ns", "lower"),
    layer("loadgen.issue_self_ns", "ns", "lower"),
    layer("loadgen.deliver_self_ns", "ns", "lower"),
    layer("loadgen.wire_account_ns", "ns", "lower"),
    layer("loadgen.unattributed_share", "ratio", "lower"),
    layer("loadgen.busy_share", "ratio", "lower"),
    layer("loadgen.rss_baseline_mb", "MB", "lower"),
    layer("loadgen.ack_rtt_p99_us", "us", "lower"),
    layer("loadgen.ack_rtt_samples", "count", "higher"),
    layer("loadgen.deliver_p50_us", "us", "lower"),
    layer("loadgen.deliver_p99_us", "us", "lower"),
    layer("loadgen.deliver_samples", "count", "higher"),
    layer("trace.overhead_share", "ratio", "lower"),
    layer("trace.timer_ns", "ns", "lower"),
];

/// Seconds one driver run measures for (`BENCHMARK.json`'s `run_seconds`).
pub const RUN_SECONDS: u32 = 50;

/// A computed metric. `value` is `None` when the run produced no sample to
/// compute it from — that fails the run; it never becomes a fake number.
pub struct Metric {
    pub name: &'static str,
    pub value: Option<f64>,
    /// Free text after the unit on the human line (sample counts).
    pub note: String,
}

fn m(name: &'static str, value: Option<f64>) -> Metric {
    Metric {
        name,
        value: value.filter(|v| v.is_finite()),
        note: String::new(),
    }
}

/// `f` of every window where it is defined.
fn per_window<'a>(
    windows: impl IntoIterator<Item = &'a WindowSample>,
    f: impl Fn(&WindowSample) -> Option<f64>,
) -> Vec<f64> {
    windows.into_iter().filter_map(f).collect()
}

/// A windowed end-to-end metric: the good-side decile as its value, the
/// window median (what the run looked like with the host's weather in it)
/// in the note. A regression that spares a tenth of the windows shows in
/// the second number only, so read both.
fn windowed(name: &'static str, values: &[f64], lower_is_better: bool, note: &str) -> Metric {
    let mut metric = m(name, good_decile(values, lower_is_better));
    let sep = if note.is_empty() { "" } else { "; " };
    metric.note = format!(
        "{note}{sep}window median {}",
        median(values).map_or("-".into(), |v| format!("{v:.4}"))
    );
    metric
}

fn rtt_p50_us(w: &WindowSample) -> Option<f64> {
    w.rtt.1.map(|ns| f64::from(ns) / 1000.0)
}

fn deliver_p50_us(w: &WindowSample) -> Option<f64> {
    w.deliver.1.map(|ns| f64::from(ns) / 1000.0)
}

/// Run time of every `cvc-*` thread in the window.
fn server_run_ns(w: &WindowSample) -> u64 {
    w.core.run_ns + w.workers.run_ns + w.other_server.run_ns
}

/// `ns / ops` in microseconds; undefined for a window that acked nothing.
fn us_per_op(ns: u64, w: &WindowSample) -> Option<f64> {
    (w.acked > 0).then(|| ns as f64 / 1000.0 / w.acked as f64)
}

fn goodput(w: &WindowSample) -> Option<f64> {
    (w.wall_ns > 0).then(|| w.acked as f64 * 1e9 / w.wall_ns as f64)
}

/// The end-to-end metrics, from the untraced windows (all of them in an
/// untraced run). `setup_s` is the median over the run's set-ups.
pub fn end_to_end(s: &SessionResult, setups: &[f64], correct: bool) -> Vec<Metric> {
    let ws: Vec<&WindowSample> = s.windows.iter().filter(|w| !w.traced).collect();
    let all = || ws.iter().copied();
    let samples = |f: fn(&WindowSample) -> usize| -> usize { all().map(f).sum() };
    let acked_share = if correct && s.issued > 0 {
        s.acked as f64 / s.issued as f64
    } else {
        0.0
    };
    let total = |f: fn(&WindowSample) -> u64| -> u64 { all().map(f).sum() };
    let noted = |mut metric: Metric, note: String| {
        metric.note = note;
        metric
    };
    let n_of = |n: usize| format!("n={n} over {} windows", ws.len());
    let rss = m("rss_peak_mb", Some(s.rss_peak_mb));
    vec![
        noted(
            m("setup_s", median(setups)),
            format!("median of {} set-ups: {setups:.3?}", setups.len()),
        ),
        windowed("goodput_ops_s", &per_window(all(), goodput), false, ""),
        windowed(
            "ack_rtt_p50_us",
            &per_window(all(), rtt_p50_us),
            true,
            &n_of(samples(|w| w.rtt.0)),
        ),
        windowed(
            "cpu_us_per_op",
            &per_window(all(), |w| {
                us_per_op(server_run_ns(w) + w.generator.run_ns, w)
            }),
            true,
            "",
        ),
        windowed(
            "client_cpu_us_per_op",
            &per_window(all(), |w| us_per_op(w.generator.run_ns, w)),
            true,
            "",
        ),
        // Bytes do not depend on how fast the box is: the whole measured
        // phase, not a pick of its windows.
        m(
            "wire_bytes_per_op",
            (total(|w| w.acked) > 0)
                .then(|| total(|w| w.wire_bytes) as f64 / total(|w| w.acked) as f64),
        ),
        if s.rss_at_target {
            rss
        } else {
            noted(
                rss,
                "taken at end of run: the memory checkpoint was not reached".into(),
            )
        },
        m("acked_share", Some(acked_share)),
    ]
}

/// The per-layer metrics of a traced run.
pub fn per_layer(s: &SessionResult, r: &ReplayResult, timer_ns: f64) -> Vec<Metric> {
    let all = || s.windows.iter();
    let traced = || s.windows.iter().filter(|w| w.traced);
    let ops_traced: u64 = traced().map(|w| w.acked).sum();
    let per_op = |count: u64, ops: u64| (ops > 0).then(|| count as f64 / ops as f64);
    let rep = &s.report;
    let ops = rep.ops_integrated;

    // A per-window cost's good-side decile, as the end-to-end metrics use.
    let cost = |f: fn(&WindowSample) -> Option<f64>| good_decile(&per_window(all(), f), true);
    // A tail is about the disturbed windows too: the window median.
    let tail = |f: fn(&WindowSample) -> Option<f64>| median(&per_window(all(), f));
    let core_cpu = cost(|w| us_per_op(w.core.run_ns, w));
    let appends_per_op = per_op(rep.wal_appends, ops);
    // First cut of the core thread's budget: what integrate + WAL append
    // + frame encode do not explain is channel, outbox and wake-up work.
    let core_unattributed = core_cpu.zip(appends_per_op).map(|(cpu, appends)| {
        let explained_ns =
            r.integrate.mean_ns() + r.wal_append.mean_ns() * appends + r.frame_encode.mean_ns();
        cpu - explained_ns / 1000.0
    });

    let leaf_ns: u64 = [
        Kind::Read,
        Kind::Account,
        Kind::Decode,
        Kind::Exec,
        Kind::Gc,
        Kind::Edit,
        Kind::Encode,
        Kind::Send,
        Kind::Transform,
    ]
    .iter()
    .map(|&k| s.tracer.agg(k).total_ns)
    .sum();
    let gen_cpu_traced: u64 = traced().map(|w| w.generator.run_ns).sum();
    // Paired: each traced window against the untraced one right after it,
    // which shares its stretch of host weather.
    let overhead = median(
        &s.windows
            .chunks_exact(2)
            .filter(|pair| pair[0].traced && !pair[1].traced)
            .filter_map(|pair| goodput(&pair[0]).zip(goodput(&pair[1])))
            .filter(|&(_, off)| off > 0.0)
            .map(|(on, off)| 1.0 - on / off)
            .collect::<Vec<_>>(),
    );

    let span = |k: Kind| s.tracer.agg(k);
    let span_ns = |k: Kind| (span(k).calls > 0).then(|| span(k).mean_ns());
    let span_calls = |k: Kind| per_op(span(k).calls, ops_traced);
    let self_ns =
        |k: Kind| (span(k).calls > 0).then(|| span(k).self_ns as f64 / span(k).calls as f64);
    let timed = |t: crate::replay::Timed| (t.calls > 0).then(|| t.mean_ns());
    let samples = |f: fn(&WindowSample) -> usize| all().map(f).sum::<usize>() as f64;

    vec![
        m(
            "net.server.cpu_us_per_op",
            cost(|w| us_per_op(server_run_ns(w), w)),
        ),
        m(
            "net.server.worker_cpu_us_per_op",
            cost(|w| us_per_op(w.workers.run_ns, w)),
        ),
        m(
            "net.server.worker_runq_wait_us_per_op",
            cost(|w| us_per_op(w.workers.wait_ns, w)),
        ),
        m("net.server.core_cpu_us_per_op", core_cpu),
        m(
            "net.server.core_runq_wait_us_per_op",
            cost(|w| us_per_op(w.core.wait_ns, w)),
        ),
        m("net.server.core_unattributed_us_per_op", core_unattributed),
        m("net.server.msgs_per_frame", rep.msgs_per_frame),
        m("net.server.frames_out_per_op", per_op(rep.frames_out, ops)),
        m("net.server.frames_in_per_op", per_op(rep.frames_in, ops)),
        m(
            "net.server.outbox_high_water",
            rep.outbox_high_water.iter().max().map(|&d| d as f64),
        ),
        m("reduce.wal.amplification", Some(rep.wal_amplification)),
        m("reduce.wal.appends_per_op", appends_per_op),
        m("reduce.wal.bytes_per_op", Some(r.wal_bytes_per_op)),
        m("reduce.wal.append_ns", timed(r.wal_append)),
        m(
            "reduce.notifier.hb_high_water",
            Some(rep.hb_high_water as f64),
        ),
        m("reduce.notifier.integrate_ns", timed(r.integrate)),
        m(
            "reduce.notifier.concurrent_per_op",
            Some(r.concurrent_per_op),
        ),
        m("reduce.notifier.scan_len_per_op", Some(r.scan_len_per_op)),
        m("reduce.msg.frame_encode_ns", timed(r.frame_encode)),
        m("net.frame.write_ns", timed(r.frame_write)),
        m(
            "net.frame.write_calls_per_op",
            per_op(r.frame_write.calls, r.ops),
        ),
        m("net.frame.parse_ns", timed(r.frame_parse)),
        m("ot.buffer.apply_ns", timed(r.apply)),
        m("core.compress_ns", timed(r.compress)),
        m(
            "core.compress_calls_per_op",
            per_op(r.compress.calls, r.ops),
        ),
        // An op that arrives at an empty history checks nothing.
        m("core.formula7_ns", Some(r.formula7.mean_ns())),
        m(
            "core.formula7_calls_per_op",
            per_op(r.formula7.calls, r.ops),
        ),
        m("reduce.msg.encode_ns", span_ns(Kind::Encode)),
        m("reduce.msg.encode_calls_per_op", span_calls(Kind::Encode)),
        m("reduce.msg.decode_ns", span_ns(Kind::Decode)),
        m("reduce.msg.decode_calls_per_op", span_calls(Kind::Decode)),
        m("reduce.client.edit_ns", span_ns(Kind::Edit)),
        m("reduce.client.edit_calls_per_op", span_calls(Kind::Edit)),
        m("reduce.client.exec_ns", span_ns(Kind::Exec)),
        m("reduce.client.exec_calls_per_op", span_calls(Kind::Exec)),
        m("reduce.client.gc_ns", span_ns(Kind::Gc)),
        m("reduce.client.gc_calls_per_op", span_calls(Kind::Gc)),
        m("net.conn.send_ns", span_ns(Kind::Send)),
        m("net.conn.send_calls_per_op", span_calls(Kind::Send)),
        m("net.conn.read_ns", span_ns(Kind::Read)),
        m("net.conn.read_calls_per_op", span_calls(Kind::Read)),
        m("net.poll.wakeups_per_op", span_calls(Kind::Poll)),
        m("ot.seq.transform_ns", span_ns(Kind::Transform)),
        m("loadgen.issue_self_ns", self_ns(Kind::Issue)),
        m("loadgen.deliver_self_ns", self_ns(Kind::Deliver)),
        m("loadgen.wire_account_ns", span_ns(Kind::Account)),
        m(
            "loadgen.unattributed_share",
            (gen_cpu_traced > 0).then(|| 1.0 - leaf_ns as f64 / gen_cpu_traced as f64),
        ),
        m(
            "loadgen.busy_share",
            median(&per_window(all(), |w| {
                (w.wall_ns > 0).then(|| w.generator.run_ns as f64 / w.wall_ns as f64)
            })),
        ),
        m("loadgen.rss_baseline_mb", Some(s.rss_baseline_mb)),
        m(
            "loadgen.ack_rtt_p99_us",
            tail(|w| w.rtt.2.map(|ns| f64::from(ns) / 1000.0)),
        ),
        m("loadgen.ack_rtt_samples", Some(samples(|w| w.rtt.0))),
        m("loadgen.deliver_p50_us", cost(deliver_p50_us)),
        m(
            "loadgen.deliver_p99_us",
            tail(|w| w.deliver.2.map(|ns| f64::from(ns) / 1000.0)),
        ),
        m("loadgen.deliver_samples", Some(samples(|w| w.deliver.0))),
        m("trace.overhead_share", overhead),
        m("trace.timer_ns", Some(timer_ns)),
    ]
}

/// Print `metrics` as `workload/name value unit [note]` lines, in `table`
/// order, and return the JSON `metrics` object. A table entry without a
/// value is appended to `failures`.
pub fn emit(
    workload: &str,
    table: &[MetricDef],
    metrics: &[Metric],
    failures: &mut Vec<String>,
) -> String {
    let mut json = String::from("{");
    for def in table {
        let found = metrics.iter().find(|x| x.name == def.name);
        let Some(value) = found.and_then(|x| x.value) else {
            failures.push(format!("metric {} has no value", def.name));
            continue;
        };
        let note = found.map_or("", |x| x.note.as_str());
        let gap = if note.is_empty() { "" } else { "  # " };
        println!("{workload}/{} {value} {}{gap}{note}", def.name, def.unit);
        if json.len() > 1 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    json.push('}');
    json
}

/// The contents of `BENCHMARK.json`.
pub fn describe() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    let gated: Vec<_> = WORKLOADS.iter().filter(|w| w.gated).collect();
    for (i, w) in gated.iter().enumerate() {
        let sep = if i + 1 == gated.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            d.name, d.unit, d.better, d.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            d.name, d.unit, d.better
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_meet_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.better == "lower" || d.better == "higher");
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).unwrap();
        // Not assert_eq: two 6 KB strings in a failure message help nobody.
        assert!(
            committed == describe(),
            "BENCHMARK.json is stale; regenerate with: cvc-benchmark --describe > BENCHMARK.json"
        );
        assert!(committed.len() <= 64 * 1024);
    }
}
