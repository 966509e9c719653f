//! Cross-site trace assembly: stitch per-site flight-recorder rings into
//! end-to-end per-operation traces with a derived convergence latency.
//!
//! The paper's central trick — the notifier re-defines every operation,
//! collapsing causality to 2 dimensions — has an observability corollary:
//! the pair `(origin site, per-origin sequence)` plus the propagation
//! stamp is a **complete trace context**. No extra wire bytes, no
//! baggage headers: the identity every [`crate::recorder::FlightEvent`]
//! already carries is enough to join one operation's lifecycle across
//! every site into a single trace:
//!
//! ```text
//! generate ──enqueue──▶ send ──upstream──▶ notifier deliver
//!        ──notifier-transform──▶ execute@0 ──broadcast──▶ per-dest send
//!        ──deliver──▶ dest deliver ──execute──▶ dest execute
//! ```
//!
//! The derived **convergence latency** of an operation is the span from
//! its generation until it has executed at *every live site* (the origin
//! executes at generation; the notifier and each destination follow).
//! [`TraceAssembler::assemble`] performs the join; [`TraceSet`] exports
//! Chrome `trace_event` JSON (loadable in `chrome://tracing` / Perfetto)
//! and registers a deterministic per-stage summary into a
//! [`MetricsRegistry`].
//!
//! A stalled connection needs no event of its own: as on TCP, the
//! application never sees the retransmission, and the stall shows up as a
//! longer upstream or downstream stage. Truncation is first-class rather
//! than silent: quarantined offenders (the notifier's eviction path) and
//! wrapped rings ([`EventKind::RingTruncated`]) mark the affected traces
//! [`OpTrace::truncated`] instead of leaving them dangling as assembly
//! errors.

use crate::recorder::{EventKind, FlightEvent, NO_SITE};
use crate::registry::MetricsRegistry;
use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;

/// Pack an `(site, seq)` identity into one map key — assembly folds
/// ~10⁶ events for a long session, so the join maps hash a single `u64`
/// instead of comparing tuples (sequence numbers stay far below 2³²).
#[inline]
fn pack_id(site: u32, seq: u64) -> u64 {
    ((site as u64) << 32) | (seq & 0xffff_ffff)
}

/// One typed lifecycle stage of an operation's end-to-end trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Cross-shard relay hop: from the origin shard queueing the frame to
    /// this shard's notifier injecting it (federated sessions only; zero
    /// for ops generated by a local client).
    Relay,
    /// Generation to wire send at the origin client (local queueing).
    Enqueue,
    /// Origin client's send to notifier delivery (upstream transport,
    /// including any connection stall).
    Upstream,
    /// Notifier delivery to notifier execution (formula (7) checks,
    /// transformation, the integration queue).
    NotifierTransform,
    /// Notifier execution to the broadcast send for the critical
    /// destination (per formulas (1)–(2)).
    Broadcast,
    /// Broadcast send to delivery at the critical destination
    /// (downstream transport).
    Deliver,
    /// Delivery to execution at the critical destination (formula (5)
    /// checks and transformation).
    Execute,
}

impl Stage {
    /// All stages in lifecycle order.
    pub const ALL: [Stage; 7] = [
        Stage::Relay,
        Stage::Enqueue,
        Stage::Upstream,
        Stage::NotifierTransform,
        Stage::Broadcast,
        Stage::Deliver,
        Stage::Execute,
    ];

    /// Stable lower-case name (used by dumps, metrics, and JSON exports).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Relay => "relay",
            Stage::Enqueue => "enqueue",
            Stage::Upstream => "upstream",
            Stage::NotifierTransform => "notifier-transform",
            Stage::Broadcast => "broadcast",
            Stage::Deliver => "deliver",
            Stage::Execute => "execute",
        }
    }

    /// Metric-safe name (dots and dashes replaced).
    fn metric_name(self) -> &'static str {
        match self {
            Stage::Relay => "relay",
            Stage::Enqueue => "enqueue",
            Stage::Upstream => "upstream",
            Stage::NotifierTransform => "notifier_transform",
            Stage::Broadcast => "broadcast",
            Stage::Deliver => "deliver",
            Stage::Execute => "execute",
        }
    }
}

/// One operation's assembled end-to-end trace. All times are the
/// recorder's virtual-time stamps (µs); in un-timed runs (the Fig. 3
/// walkthrough) they are all 0 and only the structure is meaningful.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTrace {
    /// The CVC trace context: `(origin site, per-origin sequence)`.
    pub op: (u32, u64),
    /// When the origin client generated (and locally executed) the op.
    pub generated_at: u64,
    /// When the origin client put it on the wire.
    pub sent_at: Option<u64>,
    /// When the notifier delivered it (pre-validation).
    pub notifier_delivered_at: Option<u64>,
    /// When the notifier executed (and re-defined) it.
    pub notifier_executed_at: Option<u64>,
    /// Formula (7) concurrency checks the notifier ran against it.
    pub notifier_checks: u64,
    /// Per-destination broadcast sends `(dest site, at)`.
    pub broadcasts: Vec<(u32, u64)>,
    /// Per-destination deliveries `(dest site, at)`.
    pub deliveries: Vec<(u32, u64)>,
    /// Per-destination executions `(dest site, at)`.
    pub executions: Vec<(u32, u64)>,
    /// Destinations that must execute this op for convergence (live
    /// clients other than the origin).
    pub expected_dests: Vec<u32>,
    /// The trace is incomplete *by design*: its origin was quarantined
    /// mid-run, or an input ring wrapped over part of its lifecycle.
    pub truncated: bool,
    /// The op arrived over the cross-shard relay tier (its "origin
    /// client" is the shard's virtual relay slot).
    pub relayed: bool,
    /// Relay hop latency (µs): origin shard queueing the frame to this
    /// shard injecting it. 0 for locally-generated ops.
    pub relay_hop_us: u64,
}

impl OpTrace {
    fn new(op: (u32, u64)) -> Self {
        OpTrace {
            op,
            generated_at: 0,
            sent_at: None,
            notifier_delivered_at: None,
            notifier_executed_at: None,
            notifier_checks: 0,
            broadcasts: Vec::new(),
            deliveries: Vec::new(),
            executions: Vec::new(),
            expected_dests: Vec::new(),
            truncated: false,
            relayed: false,
            relay_hop_us: 0,
        }
    }

    fn lookup(list: &[(u32, u64)], site: u32) -> Option<u64> {
        list.iter().find(|(s, _)| *s == site).map(|&(_, t)| t)
    }

    /// When `dest` executed this op, if recorded.
    pub fn executed_at(&self, dest: u32) -> Option<u64> {
        Self::lookup(&self.executions, dest)
    }

    /// The op walked its full lifecycle: sent, integrated at the
    /// notifier, and executed at every expected destination.
    pub fn complete(&self) -> bool {
        self.sent_at.is_some()
            && self.notifier_delivered_at.is_some()
            && self.notifier_executed_at.is_some()
            && self
                .expected_dests
                .iter()
                .all(|&d| self.executed_at(d).is_some())
    }

    /// Generation until executed at all live sites (µs); `None` until
    /// the trace is complete.
    pub fn convergence_us(&self) -> Option<u64> {
        if !self.complete() {
            return None;
        }
        let last_exec = self
            .executions
            .iter()
            .map(|&(_, t)| t)
            .chain(self.notifier_executed_at)
            .max()
            .unwrap_or(self.generated_at);
        Some(last_exec.saturating_sub(self.generated_at))
    }

    /// The destination whose execution completed last — the critical
    /// path runs through it.
    pub fn critical_dest(&self) -> Option<u32> {
        self.executions
            .iter()
            .max_by_key(|&&(s, t)| (t, s))
            .map(|&(s, _)| s)
    }

    /// Critical-path decomposition of the convergence latency into the
    /// seven typed stages, through the critical destination. The durations
    /// sum to [`OpTrace::convergence_us`] exactly when that destination
    /// executed last (they are chained differences over the same span).
    /// `None` until the trace is complete.
    pub fn stage_breakdown(&self) -> Option<[(Stage, u64); 7]> {
        if !self.complete() {
            return None;
        }
        let d = self.critical_dest();
        let t0 = self.generated_at;
        // For a relayed op, generation is anchored at the origin *shard*'s
        // queue time; the relay hop ends where the local lifecycle starts.
        let tr = t0 + self.relay_hop_us;
        let t1 = self.sent_at.unwrap_or(tr).max(tr);
        let t2 = self.notifier_delivered_at.unwrap_or(t1);
        let t3 = self.notifier_executed_at.unwrap_or(t2);
        // A wrapped ring can lose broadcast/delivery events of an
        // otherwise complete trace; fall back to the previous anchor so
        // the decomposition still sums to the full span.
        let t4 = d
            .and_then(|d| Self::lookup(&self.broadcasts, d))
            .unwrap_or(t3);
        let t5 = d
            .and_then(|d| Self::lookup(&self.deliveries, d))
            .unwrap_or(t4);
        let t6 = d.and_then(|d| self.executed_at(d)).unwrap_or(t5);
        Some([
            (Stage::Relay, self.relay_hop_us),
            (Stage::Enqueue, t1.saturating_sub(tr)),
            (Stage::Upstream, t2.saturating_sub(t1)),
            (Stage::NotifierTransform, t3.saturating_sub(t2)),
            (Stage::Broadcast, t4.saturating_sub(t3)),
            (Stage::Deliver, t5.saturating_sub(t4)),
            (Stage::Execute, t6.saturating_sub(t5)),
        ])
    }

    /// The stage contributing the most to the convergence latency.
    pub fn critical_stage(&self) -> Option<Stage> {
        self.stage_breakdown()
            .map(|b| b.iter().max_by_key(|(_, d)| *d).map(|&(s, _)| s))?
    }

    /// Every recorded timestamp respects the lifecycle order: generate ≤
    /// send ≤ notifier deliver ≤ notifier execute, and for each
    /// destination, notifier execute ≤ broadcast ≤ deliver ≤ execute.
    pub fn monotone(&self) -> bool {
        let mut t = self.generated_at;
        for next in [
            self.sent_at,
            self.notifier_delivered_at,
            self.notifier_executed_at,
        ]
        .into_iter()
        .flatten()
        {
            if next < t {
                return false;
            }
            t = next;
        }
        let nexec = self.notifier_executed_at.unwrap_or(t);
        let dests: BTreeSet<u32> = self
            .broadcasts
            .iter()
            .chain(&self.deliveries)
            .chain(&self.executions)
            .map(|&(s, _)| s)
            .collect();
        for d in dests {
            let mut t = nexec;
            for next in [
                Self::lookup(&self.broadcasts, d),
                Self::lookup(&self.deliveries, d),
                self.executed_at(d),
            ]
            .into_iter()
            .flatten()
            {
                if next < t {
                    return false;
                }
                t = next;
            }
        }
        true
    }

    /// Multi-line human-readable rendering with the per-stage breakdown
    /// (the `cvc-trace` CLI's display format).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "op {}:{}", self.op.0, self.op.1);
        match self.convergence_us() {
            Some(c) => {
                let _ = writeln!(
                    out,
                    "  convergence {c} us  (generated @{} us)",
                    self.generated_at
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  INCOMPLETE{}  (generated @{} us)",
                    if self.truncated { " (truncated)" } else { "" },
                    self.generated_at
                );
            }
        }
        if let Some(breakdown) = self.stage_breakdown() {
            for (stage, dur) in breakdown {
                let _ = writeln!(out, "    {:<19} {:>10} us", stage.name(), dur);
            }
            if let Some(d) = self.critical_dest() {
                let _ = writeln!(
                    out,
                    "    critical dest: site {d}, executed at {} of {} sites",
                    self.executions.len(),
                    self.expected_dests.len()
                );
            }
        }
        if self.relayed {
            let _ = writeln!(out, "    relayed: cross-shard hop {} us", self.relay_hop_us);
        }
        out
    }
}

/// A set of assembled traces plus the run-level context the assembly
/// discovered (quarantines, ring truncation, live membership).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSet {
    /// All assembled traces, ordered by generation time then identity.
    pub traces: Vec<OpTrace>,
    /// Client sites whose input ring wrapped (coverage is a suffix).
    pub truncated_inputs: Vec<SiteId>,
    /// Sites the notifier quarantined during the run.
    pub quarantined: Vec<SiteId>,
    /// Clients still live at the end of the run.
    pub live_clients: Vec<u32>,
}

impl TraceSet {
    /// Traces that walked their full lifecycle.
    pub fn complete_traces(&self) -> impl Iterator<Item = &OpTrace> {
        self.traces.iter().filter(|t| t.complete())
    }

    /// Incomplete traces *not* explained by truncation or quarantine —
    /// on a fault-free or reliable run this must be empty.
    pub fn dangling(&self) -> Vec<&OpTrace> {
        self.traces
            .iter()
            .filter(|t| !t.complete() && !t.truncated)
            .collect()
    }

    /// The `k` slowest complete traces, by convergence latency,
    /// slowest first.
    pub fn slowest(&self, k: usize) -> Vec<&OpTrace> {
        let mut v: Vec<&OpTrace> = self.complete_traces().collect();
        v.sort_by_key(|t| std::cmp::Reverse((t.convergence_us().unwrap_or(0), t.op)));
        v.truncate(k);
        v
    }

    /// Register the deterministic summary into `reg`: convergence and
    /// per-stage histograms (exported with p50/p95/p99), completeness
    /// counters, and the critical-path stage tallies.
    pub fn register_summary(&self, reg: &mut MetricsRegistry) {
        reg.add_counter("trace.ops", self.traces.len() as u64);
        for t in &self.traces {
            if let Some(c) = t.convergence_us() {
                reg.add_counter("trace.complete", 1);
                reg.record("trace.convergence_us", c);
                if let Some(b) = t.stage_breakdown() {
                    for (stage, dur) in b {
                        reg.record(&format!("trace.stage.{}_us", stage.metric_name()), dur);
                    }
                }
                if let Some(s) = t.critical_stage() {
                    reg.add_counter(&format!("trace.critical_path.{}", s.metric_name()), 1);
                }
            } else if t.truncated {
                reg.add_counter("trace.truncated", 1);
            } else {
                reg.add_counter("trace.dangling", 1);
            }
        }
    }

    /// Export as Chrome `trace_event` JSON (the "X" complete-event form),
    /// loadable in `chrome://tracing` or Perfetto. One track per site
    /// (`pid` = site, `tid` = origin site of the op); stage spans carry
    /// the op identity in `args.op`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let push = |out: &mut String,
                    first: &mut bool,
                    name: &str,
                    pid: u32,
                    op: (u32, u64),
                    ts: u64,
                    dur: u64| {
            if !*first {
                out.push(',');
            }
            *first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"cat\":\"op\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
                 \"pid\":{pid},\"tid\":{tid},\"args\":{{\"op\":\"{o}:{s}\"}}}}",
                tid = op.0,
                o = op.0,
                s = op.1,
            );
        };
        for t in &self.traces {
            let (o, _) = t.op;
            if t.relayed {
                push(
                    &mut out,
                    &mut first,
                    "relay",
                    0,
                    t.op,
                    t.generated_at,
                    t.relay_hop_us,
                );
            }
            if let Some(sent) = t.sent_at {
                push(
                    &mut out,
                    &mut first,
                    "enqueue",
                    o,
                    t.op,
                    t.generated_at + t.relay_hop_us,
                    sent.saturating_sub(t.generated_at + t.relay_hop_us),
                );
                if let Some(nd) = t.notifier_delivered_at {
                    push(
                        &mut out,
                        &mut first,
                        "upstream",
                        o,
                        t.op,
                        sent,
                        nd.saturating_sub(sent),
                    );
                    if let Some(ne) = t.notifier_executed_at {
                        push(
                            &mut out,
                            &mut first,
                            "notifier-transform",
                            0,
                            t.op,
                            nd,
                            ne.saturating_sub(nd),
                        );
                        for &(d, tb) in &t.broadcasts {
                            push(
                                &mut out,
                                &mut first,
                                "broadcast",
                                0,
                                t.op,
                                ne,
                                tb.saturating_sub(ne),
                            );
                            if let Some(td) = OpTrace::lookup(&t.deliveries, d) {
                                push(
                                    &mut out,
                                    &mut first,
                                    "deliver",
                                    d,
                                    t.op,
                                    tb,
                                    td.saturating_sub(tb),
                                );
                                if let Some(te) = t.executed_at(d) {
                                    push(
                                        &mut out,
                                        &mut first,
                                        "execute",
                                        d,
                                        t.op,
                                        td,
                                        te.saturating_sub(td),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Export as OTLP/JSON — the `ExportTraceServiceRequest` shape
    /// (`resourceSpans` → `scopeSpans` → `spans`) of the OpenTelemetry
    /// protocol, hand-rolled so the exporter works fully offline with no
    /// collector and no new dependencies: write the string to a file and
    /// POST it to any OTLP/HTTP collector's `/v1/traces` later, or feed
    /// it to any OTel-compatible viewer.
    ///
    /// One OTel trace per operation: the 128-bit trace id derives
    /// deterministically from the CVC trace context `(origin site, per-
    /// origin seq)` — the compressed clock *is* the trace id, no extra
    /// wire bytes. A root `op` span covers generation → convergence and
    /// complete traces add one child span per lifecycle stage, including
    /// the federation's cross-shard `relay` stage. The simulator's
    /// virtual-time µs are exported as `µs × 1000` "unix nanos" (there is
    /// no epoch; viewers only use differences).
    pub fn to_otlp_json(&self) -> String {
        let mut spans = String::new();
        let mut first = true;
        #[allow(clippy::too_many_arguments)]
        fn push_span(
            out: &mut String,
            first: &mut bool,
            trace_id: &str,
            span_id: u64,
            parent: Option<u64>,
            name: &str,
            start_us: u64,
            end_us: u64,
            attrs: &[(&str, String)],
        ) {
            if !*first {
                out.push(',');
            }
            *first = false;
            let _ = write!(
                out,
                "{{\"traceId\":\"{trace_id}\",\"spanId\":\"{span_id:016x}\"",
            );
            if let Some(p) = parent {
                let _ = write!(out, ",\"parentSpanId\":\"{p:016x}\"");
            }
            let _ = write!(
                out,
                ",\"name\":\"{name}\",\"kind\":1,\
                 \"startTimeUnixNano\":\"{}\",\"endTimeUnixNano\":\"{}\",\
                 \"attributes\":[",
                start_us * 1000,
                end_us * 1000,
            );
            for (i, (k, v)) in attrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"key\":\"{k}\",\"value\":{{{v}}}}}");
            }
            out.push_str("]}");
        }
        for t in &self.traces {
            // Deterministic, collision-free 128-bit id from the identity.
            let trace_id = format!(
                "{:016x}{:016x}",
                u64::from(t.op.0).wrapping_add(1),
                t.op.1.wrapping_add(1)
            );
            let op_attr = (
                "cvc.op",
                format!("\"stringValue\":\"{}:{}\"", t.op.0, t.op.1),
            );
            let end = t
                .convergence_us()
                .map(|c| t.generated_at + c)
                .unwrap_or(t.generated_at);
            let mut root_attrs = vec![
                op_attr.clone(),
                ("cvc.complete", format!("\"boolValue\":{}", t.complete())),
                ("cvc.relayed", format!("\"boolValue\":{}", t.relayed)),
            ];
            if t.relayed {
                root_attrs.push((
                    "cvc.relay_hop_us",
                    format!("\"intValue\":\"{}\"", t.relay_hop_us),
                ));
            }
            if t.truncated {
                root_attrs.push(("cvc.truncated", "\"boolValue\":true".to_string()));
            }
            if let Some(c) = t.convergence_us() {
                root_attrs.push(("cvc.convergence_us", format!("\"intValue\":\"{c}\"")));
            }
            push_span(
                &mut spans,
                &mut first,
                &trace_id,
                1,
                None,
                "op",
                t.generated_at,
                end,
                &root_attrs,
            );
            if let Some(breakdown) = t.stage_breakdown() {
                let mut at = t.generated_at;
                for (i, (stage, dur)) in breakdown.iter().enumerate() {
                    // A plain star op has no relay hop — the stage exists
                    // in the breakdown (zero-width) but a span for it
                    // would just be noise in a viewer, so skip it; the
                    // chrome export makes the same choice.
                    if *stage == Stage::Relay && !t.relayed {
                        continue;
                    }
                    push_span(
                        &mut spans,
                        &mut first,
                        &trace_id,
                        i as u64 + 2,
                        Some(1),
                        stage.name(),
                        at,
                        at + dur,
                        std::slice::from_ref(&op_attr),
                    );
                    at += dur;
                }
            }
        }
        format!(
            "{{\"resourceSpans\":[{{\"resource\":{{\"attributes\":[\
             {{\"key\":\"service.name\",\"value\":{{\"stringValue\":\"cvc-session\"}}}}]}},\
             \"scopeSpans\":[{{\"scope\":{{\"name\":\"cvc-trace\",\"version\":\"1\"}},\
             \"spans\":[{spans}]}}]}}]}}"
        )
    }
}

/// Ring capacities `(per client, notifier)` sized so a traced session of
/// `n` sites × `ops_per_site` ops survives end-to-end **un-wrapped** —
/// the precondition for every op assembling into a complete trace.
///
/// The dominant terms, measured over the E18 sweep (N ∈ {16, 64, 256},
/// 512-op budget, 0–5% loss, reliable transport):
///
/// * a client holds a handful of events per session op (deliver +
///   execute + gc-trim + its ack share; worst measured ~9/op) — a loss
///   rate adds none, since a stalled connection records nothing;
/// * the notifier holds the broadcast fan-out (one event per op per
///   destination) plus the formula-(5) `transform` stream. Over
///   reliable transport acks arrive a full RTT late, so the GC
///   watermark lags and the scan window swells to ~300 checks/op even
///   loss-free (worst measured: 543 events/op at N=256) — which is why
///   the notifier term does not depend on the loss rate.
///
/// Both formulas carry ≥1.3× headroom over the worst measured cell.
pub fn recommended_capacities(n: usize, ops_per_site: usize) -> (usize, usize) {
    let total = n * ops_per_site;
    let client = 8 * total + 128 * ops_per_site + 512;
    let notifier = total * (n + 512) + 256;
    (client, notifier)
}

/// As [`recommended_capacities`], but with the notifier ring sized from
/// a **measured** history-buffer high-water mark — e.g. the notifier's
/// [`crate::metrics::SiteMetrics::hb_high_water`] from an untraced probe
/// run of the same configuration — instead of the worst-case 512-
/// checks-per-op constant.
///
/// The notifier ring holds, per op, the broadcast fan-out (one event per
/// destination plus fixed deliver/execute/gc bookkeeping) and the
/// formula-(7) transform stream, whose length is bounded by the scan
/// window — which ack-driven GC keeps at the in-flight window, far below
/// the worst case. The watermark gets 2× headroom (acks land a full RTT
/// late, so a traced run's window can lag the probe's), and the result
/// never exceeds the worst-case sizing. E18 measures the saving at
/// roughly 2×–8× traced notifier memory across its sweep.
pub fn recommended_capacities_measured(
    n: usize,
    ops_per_site: usize,
    notifier_hb_high_water: u64,
) -> (usize, usize) {
    let (client, worst_notifier) = recommended_capacities(n, ops_per_site);
    let total = n * ops_per_site;
    let wm = usize::try_from(notifier_hb_high_water).unwrap_or(usize::MAX);
    let per_op = (n + 8).saturating_add(wm.saturating_mul(2));
    let notifier = total.saturating_mul(per_op).saturating_add(256);
    (client, notifier.min(worst_notifier))
}

/// Assembles per-site flight-recorder rings into [`OpTrace`]s, joining
/// events on the CVC identity `(origin site, per-origin sequence)`.
///
/// The same join the [`crate::audit`] replayer uses for verdicts is used
/// here for time: client-side events that identify operations only by
/// stream position (`T[1]`) are resolved through the notifier's
/// broadcast events.
pub struct TraceAssembler;

impl TraceAssembler {
    /// Join `traces` (one `(site, events-oldest-first)` pair per
    /// participant, the notifier as site 0) into per-op traces: a
    /// [`TraceTailer`] whose membership is the sites given, fed whole
    /// rings — the notifier's first, so no client event ever waits in the
    /// unresolved-join buffer.
    pub fn assemble(traces: &[(SiteId, Vec<FlightEvent>)]) -> TraceSet {
        let mut tailer = TraceTailer::with_clients(traces.iter().map(|(s, _)| s.0));
        let (notifier, clients): (Vec<_>, Vec<_>) = traces.iter().partition(|(s, _)| s.0 == 0);
        for (site, events) in notifier.into_iter().chain(clients) {
            for ev in events {
                tailer.push(*site, ev);
            }
        }
        tailer.finish()
    }
}

/// The one trace assembler, incremental: feed flight events one at a
/// time, in any interleaving across sites (oldest-first per site), drain
/// op traces the moment their lifecycle closes — without waiting for the
/// run to end — and [`TraceTailer::finish`] for the whole [`TraceSet`].
/// The set does not depend on the interleaving.
///
/// The destinations a trace must reach are the live client set: pin it
/// up front with [`TraceTailer::with_clients`] when the membership is
/// known (the `cvc-trace tail --n` flag), or let [`TraceTailer::new`]
/// learn it as sites first appear. Learned membership is conservative —
/// a trace closes only against the clients seen *so far*, so nothing is
/// drained until at least two clients have spoken, and a site that
/// joins later simply keeps subsequent traces open longer.
#[derive(Debug, Default)]
pub struct TraceTailer {
    expected: BTreeSet<u32>,
    pinned: bool,
    quarantined: BTreeSet<u32>,
    truncated_inputs: BTreeSet<u32>,
    /// `(dest, stream position) → (origin site, origin seq)` from the
    /// notifier's broadcast events.
    broadcast_map: HashMap<u64, (u32, u64)>,
    /// Client deliver/execute events that arrived before the notifier
    /// broadcast line carrying their join key.
    unresolved: HashMap<u64, Vec<(EventKind, u32, u64)>>,
    ops: HashMap<u64, OpTrace>,
    emitted: BTreeSet<u64>,
}

impl TraceTailer {
    /// A tailer that learns live membership from the stream itself.
    pub fn new() -> Self {
        TraceTailer::default()
    }

    /// A tailer with the live client set pinned up front; traces close
    /// the moment every one of these (minus the origin) has executed.
    pub fn with_clients(clients: impl IntoIterator<Item = u32>) -> Self {
        TraceTailer {
            expected: clients.into_iter().filter(|&c| c != 0).collect(),
            pinned: true,
            ..TraceTailer::default()
        }
    }

    /// Feed one flight event from `site`'s ring, oldest-first per site.
    pub fn push(&mut self, site: SiteId, ev: &FlightEvent) {
        // A post-hoc dump surfaces a wrapped ring's truncation marker as
        // its first line; a live stream can wrap at any moment — register
        // the marker wherever it appears.
        if ev.kind == EventKind::RingTruncated {
            self.truncated_inputs.insert(site.0);
        }
        if site.0 == 0 {
            self.push_notifier(ev);
        } else {
            if !self.pinned {
                self.expected.insert(site.0);
            }
            self.push_client(site.0, ev);
        }
    }

    fn push_notifier(&mut self, ev: &FlightEvent) {
        match ev.kind {
            EventKind::Broadcast => {
                let key = pack_id(ev.a as u32, ev.stamp.get(1));
                let id = (ev.op_site, ev.op_seq);
                self.broadcast_map.insert(key, id);
                let t = entry(&mut self.ops, id);
                t.broadcasts.push((ev.a as u32, ev.recorded_at));
                // The broadcast resolves any deliver/execute events the
                // destination's ring emitted ahead of this line.
                for (kind, dest, at) in self.unresolved.remove(&key).unwrap_or_default() {
                    match kind {
                        EventKind::Deliver => t.deliveries.push((dest, at)),
                        _ => t.executions.push((dest, at)),
                    }
                }
            }
            EventKind::Deliver if ev.op_site != NO_SITE => {
                entry(&mut self.ops, (ev.op_site, ev.op_seq))
                    .notifier_delivered_at
                    .get_or_insert(ev.recorded_at);
            }
            EventKind::Transform if ev.op_site != NO_SITE => {
                entry(&mut self.ops, (ev.op_site, ev.op_seq)).notifier_checks += 1;
            }
            EventKind::Execute if ev.op_site != NO_SITE => {
                entry(&mut self.ops, (ev.op_site, ev.op_seq))
                    .notifier_executed_at
                    .get_or_insert(ev.recorded_at);
            }
            // A cross-shard injection: the virtual relay client's
            // "generation". `b` carries the relay hop latency, so
            // generation is anchored back at the origin shard's queue time
            // and the hop becomes the trace's seventh stage; the injection
            // time doubles as the wire-send anchor (the mesh tier has no
            // per-op client enqueue).
            EventKind::Relay if ev.op_site != NO_SITE => {
                let t = entry(&mut self.ops, (ev.op_site, ev.op_seq));
                t.relayed = true;
                t.relay_hop_us = ev.b;
                t.generated_at = ev.recorded_at.saturating_sub(ev.b);
                t.sent_at.get_or_insert(ev.recorded_at);
            }
            // The notifier records an Error and the session layer
            // quarantines the offender; treat the error's origin as
            // evicted for membership purposes.
            EventKind::Error if ev.op_site != NO_SITE && ev.op_site != 0 => {
                self.quarantined.insert(ev.op_site);
            }
            _ => {}
        }
    }

    fn push_client(&mut self, site: u32, ev: &FlightEvent) {
        match ev.kind {
            EventKind::Generate => {
                entry(&mut self.ops, (ev.op_site, ev.op_seq)).generated_at = ev.recorded_at;
            }
            EventKind::Send if ev.op_site == site => {
                entry(&mut self.ops, (ev.op_site, ev.op_seq))
                    .sent_at
                    .get_or_insert(ev.recorded_at);
            }
            EventKind::Deliver | EventKind::Execute if ev.op_site == NO_SITE => {
                let key = pack_id(site, ev.op_seq);
                if let Some(&id) = self.broadcast_map.get(&key) {
                    let t = entry(&mut self.ops, id);
                    match ev.kind {
                        EventKind::Deliver => t.deliveries.push((site, ev.recorded_at)),
                        _ => t.executions.push((site, ev.recorded_at)),
                    }
                } else {
                    self.unresolved
                        .entry(key)
                        .or_default()
                        .push((ev.kind, site, ev.recorded_at));
                }
            }
            _ => {}
        }
    }

    /// Live clients under the current membership view.
    fn live(&self) -> Vec<u32> {
        self.expected
            .iter()
            .copied()
            .filter(|c| !self.quarantined.contains(c))
            .collect()
    }

    /// Traces whose lifecycle closed since the last drain, oldest first.
    /// Each op is emitted exactly once.
    pub fn drain_complete(&mut self) -> Vec<OpTrace> {
        // Learned membership with fewer than two clients can't certify
        // anything: a lone origin would close every trace vacuously.
        if !self.pinned && self.expected.len() < 2 {
            return Vec::new();
        }
        let live = self.live();
        let mut out: Vec<OpTrace> = Vec::new();
        for (&key, t) in &mut self.ops {
            if self.emitted.contains(&key) {
                continue;
            }
            t.expected_dests = live.iter().copied().filter(|&d| d != t.op.0).collect();
            if t.complete() {
                out.push(t.clone());
            }
        }
        for t in &out {
            self.emitted.insert(pack_id(t.op.0, t.op.1));
        }
        out.sort_by_key(|t| (t.generated_at, t.op));
        out
    }

    /// Number of ops started but not yet drained as complete.
    pub fn open_ops(&self) -> usize {
        self.ops.len() - self.emitted.len()
    }

    /// Close the stream: every op seen (drained or not) as a
    /// [`TraceSet`] — expected destinations from the final membership,
    /// unexplained incompleteness left dangling and quarantine/ring-wrap
    /// truncation marked.
    pub fn finish(mut self) -> TraceSet {
        let live = self.live();
        let any_truncated = !self.truncated_inputs.is_empty();
        for t in self.ops.values_mut() {
            t.expected_dests = live.iter().copied().filter(|&d| d != t.op.0).collect();
            // Per-destination lists in site order (stable, so each site's
            // own order stands): the set is the same whatever interleaving
            // the rings were fed in.
            t.deliveries.sort_by_key(|&(site, _)| site);
            t.executions.sort_by_key(|&(site, _)| site);
            if !t.complete() && (self.quarantined.contains(&t.op.0) || any_truncated) {
                t.truncated = true;
            }
        }
        let mut traces: Vec<OpTrace> = self.ops.into_values().collect();
        traces.sort_by_key(|t| (t.generated_at, t.op));
        TraceSet {
            traces,
            truncated_inputs: self.truncated_inputs.into_iter().map(SiteId).collect(),
            quarantined: self.quarantined.into_iter().map(SiteId).collect(),
            live_clients: live,
        }
    }
}

fn entry(ops: &mut HashMap<u64, OpTrace>, id: (u32, u64)) -> &mut OpTrace {
    ops.entry(pack_id(id.0, id.1))
        .or_insert_with(|| OpTrace::new(id))
}

/// Serialise rings to the `cvc-trace` dump format (one event per line,
/// whitespace-separated; `#`-prefixed lines are comments). Round-trips
/// line by line through [`parse_ring_line`] up to detail-string interning.
pub fn dump_rings(traces: &[(SiteId, Vec<FlightEvent>)]) -> String {
    let mut out = String::from("# cvc flight rings v1\n");
    let _ = writeln!(
        out,
        "# site seq recorded_at kind op_site op_seq t1 t2 a b flag detail vector trunc"
    );
    for (site, events) in traces {
        for ev in events {
            dump_event_line(&mut out, *site, ev);
        }
    }
    out
}

/// Append one event as a [`dump_rings`]-format line. The streaming unit
/// the live admin plane shares with the batch dump: a server drains its
/// recorder ring incrementally and emits each event through this, so
/// `cvc-trace attach` parses exactly what `cvc-trace read` would.
pub fn dump_event_line(out: &mut String, site: SiteId, ev: &FlightEvent) {
    let vec_s = if ev.vector_len == 0 {
        "-".to_string()
    } else {
        ev.vector_slice()
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let _ = writeln!(
        out,
        "{} {} {} {} {} {} {} {} {} {} {} {} {} {}",
        site.0,
        ev.seq,
        ev.recorded_at,
        ev.kind.name(),
        ev.op_site,
        ev.op_seq,
        ev.stamp.get(1),
        ev.stamp.get(2),
        ev.a,
        ev.b,
        u8::from(ev.flag),
        if ev.detail.is_empty() { "-" } else { ev.detail },
        vec_s,
        u8::from(ev.vector_truncated),
    );
}

/// Map a detail string back to the recorder's static vocabulary; unknown
/// details (free-form error kinds) intern to `""`.
fn intern_detail(s: &str) -> &'static str {
    const KNOWN: [&str; 11] = [
        "edit",
        "undo",
        "redo",
        "client-op",
        "server-op",
        "formula5",
        "formula7",
        "client-ack",
        "bare-ack",
        "client-gc",
        "ring-wrapped",
    ];
    KNOWN.iter().find(|&&k| k == s).copied().unwrap_or("")
}

/// Parse one line of the [`dump_rings`] format: `Ok(None)` for blank or
/// `#`-comment lines, `Ok(Some((site, event)))` for a data line. The
/// unit every reader of a dump (`cvc-trace read` / `tail` / `attach`) feeds
/// a [`TraceTailer`] from.
pub fn parse_ring_line(line: &str) -> Result<Option<(SiteId, FlightEvent)>, String> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let f: Vec<&str> = line.split_whitespace().collect();
    if f.len() != 14 {
        return Err(format!("expected 14 fields, got {}", f.len()));
    }
    let num = |i: usize| -> Result<u64, String> {
        f[i].parse::<u64>()
            .map_err(|e| format!("field {}: {e}", i + 1))
    };
    let kind =
        EventKind::from_name(f[3]).ok_or_else(|| format!("unknown event kind {:?}", f[3]))?;
    let mut ev = FlightEvent::new(kind)
        .with_op(num(4)? as u32, num(5)?)
        .with_stamp(CompressedStamp::new(num(6)?, num(7)?))
        .with_ab(num(8)?, num(9)?)
        .with_flag(num(10)? != 0)
        .with_detail(intern_detail(f[11]));
    if f[12] != "-" {
        let v: Result<Vec<u64>, _> = f[12].split(',').map(str::parse::<u64>).collect();
        ev = ev.with_vector(&v.map_err(|e| format!("vector: {e}"))?);
    }
    ev.vector_truncated = num(13)? != 0;
    ev.seq = num(1)?;
    ev.recorded_at = num(2)?;
    Ok(Some((SiteId(num(0)? as u32), ev)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{run_session, ClientMode, Deployment, SessionConfig};
    use std::collections::BTreeMap;

    /// A [`dump_rings`] dump back as per-site rings.
    fn parse_rings(input: &str) -> Result<Vec<(SiteId, Vec<FlightEvent>)>, String> {
        let mut by_site: BTreeMap<u32, Vec<FlightEvent>> = BTreeMap::new();
        for (ln, line) in input.lines().enumerate() {
            if let Some((site, ev)) =
                parse_ring_line(line).map_err(|e| format!("line {}: {e}", ln + 1))?
            {
                by_site.entry(site.0).or_default().push(ev);
            }
        }
        Ok(by_site.into_iter().map(|(s, e)| (SiteId(s), e)).collect())
    }

    fn traced_cfg(n: usize, seed: u64) -> SessionConfig {
        let mut cfg = SessionConfig::small(Deployment::StarCvc, n, seed);
        cfg.client_mode = ClientMode::Streaming;
        cfg.flight_recorder = true;
        cfg.flight_recorder_capacity = 16 * 1024;
        cfg
    }

    #[test]
    fn measured_capacities_shrink_the_notifier_ring_but_never_exceed_worst_case() {
        let (client_w, notifier_w) = recommended_capacities(64, 8);
        // A healthy ack-driven-GC watermark is tiny next to the 512-
        // checks/op worst case: the measured sizing must shrink a lot.
        let (client_m, notifier_m) = recommended_capacities_measured(64, 8, 16);
        assert_eq!(client_m, client_w, "client term is unchanged");
        assert!(
            notifier_m * 2 < notifier_w,
            "measured {notifier_m} must at least halve worst-case {notifier_w}"
        );
        // A pathological watermark (GC off, unbounded history) caps at
        // the worst-case sizing instead of exploding.
        let (_, capped) = recommended_capacities_measured(64, 8, u64::MAX);
        assert_eq!(capped, notifier_w);
    }

    /// End-to-end proof the measured sizing is still sufficient: a traced
    /// session whose rings come from an untraced probe's live watermark
    /// assembles every op un-wrapped.
    #[test]
    fn watermark_sized_rings_still_assemble_complete_traces() {
        let mut probe = SessionConfig::small(Deployment::StarCvc, 4, 7);
        probe.client_mode = ClientMode::Streaming;
        probe.fault_plan = Some(cvc_sim::fault::FaultPlan::NONE);
        let pr = run_session(&probe);
        let watermark = pr.centre_metrics.expect("star centre").hb_high_water;
        let (ccap, ncap) =
            recommended_capacities_measured(4, probe.workload.ops_per_site, watermark);
        let mut cfg = probe.clone();
        cfg.flight_recorder = true;
        cfg.flight_recorder_capacity = ccap;
        cfg.flight_recorder_notifier_capacity = ncap;
        let r = run_session(&cfg);
        assert!(r.converged);
        let set = TraceAssembler::assemble(&r.flight_traces);
        assert_eq!(set.traces.len() as u64, r.total_metrics().ops_generated);
        assert!(set.truncated_inputs.is_empty(), "rings must not wrap");
        assert!(set.dangling().is_empty());
        for t in &set.traces {
            assert!(t.complete(), "op {:?} incomplete", t.op);
        }
    }

    #[test]
    fn clean_session_assembles_every_op_into_one_complete_trace() {
        let cfg = traced_cfg(4, 7);
        let report = run_session(&cfg);
        assert!(report.converged);
        assert_eq!(report.flight_traces.len(), 5, "notifier + 4 clients");
        let set = TraceAssembler::assemble(&report.flight_traces);
        let expected_ops: u64 = report.total_metrics().ops_generated;
        assert_eq!(set.traces.len() as u64, expected_ops);
        assert!(set.dangling().is_empty(), "no unexplained incompleteness");
        assert!(set.truncated_inputs.is_empty());
        assert!(set.quarantined.is_empty());
        for t in &set.traces {
            assert!(t.complete(), "op {:?} incomplete", t.op);
            assert!(t.monotone(), "op {:?} not monotone: {t:?}", t.op);
            let c = t.convergence_us().expect("complete");
            assert!(c > 0, "virtual time must flow for {:?}", t.op);
            let sum: u64 = t
                .stage_breakdown()
                .expect("complete")
                .iter()
                .map(|(_, d)| d)
                .sum();
            assert_eq!(sum, c, "stage decomposition must sum to convergence");
        }
    }

    #[test]
    fn slowest_is_sorted_and_summary_registers() {
        let report = run_session(&traced_cfg(4, 11));
        let set = TraceAssembler::assemble(&report.flight_traces);
        let slow = set.slowest(3);
        assert_eq!(slow.len(), 3);
        assert!(slow[0].convergence_us() >= slow[1].convergence_us());
        assert!(slow[1].convergence_us() >= slow[2].convergence_us());
        let mut reg = MetricsRegistry::new();
        set.register_summary(&mut reg);
        assert_eq!(reg.counter("trace.ops"), set.traces.len() as u64);
        assert_eq!(reg.counter("trace.complete"), set.traces.len() as u64);
        assert_eq!(reg.counter("trace.dangling"), 0);
        let h = reg.histogram("trace.convergence_us").expect("histogram");
        assert_eq!(h.count(), set.traces.len() as u64);
        let j = reg.to_json();
        assert!(j.contains("\"p95\":"), "{j}");
        assert!(j.contains("trace.stage.upstream_us"), "{j}");
    }

    #[test]
    fn chrome_export_is_balanced_and_carries_spans() {
        let report = run_session(&traced_cfg(3, 3));
        let set = TraceAssembler::assemble(&report.flight_traces);
        let j = set.to_chrome_json();
        assert!(j.starts_with("{\"traceEvents\":["), "{j}");
        assert!(j.ends_with("\"displayTimeUnit\":\"ms\"}"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        for stage in Stage::ALL {
            if stage == Stage::Relay && !set.traces.iter().any(|t| t.relayed) {
                // A plain star session never crosses a shard boundary;
                // the relay stage only appears in federation traces.
                continue;
            }
            assert!(
                j.contains(&format!("\"name\":\"{}\"", stage.name())),
                "{stage:?}"
            );
        }
    }

    #[test]
    fn dump_round_trips_and_reassembles_identically() {
        let report = run_session(&traced_cfg(3, 5));
        let dump = dump_rings(&report.flight_traces);
        let parsed = parse_rings(&dump).expect("parse own dump");
        assert_eq!(parsed.len(), report.flight_traces.len());
        let a = TraceAssembler::assemble(&report.flight_traces);
        let b = TraceAssembler::assemble(&parsed);
        assert_eq!(a.traces.len(), b.traces.len());
        for (x, y) in a.traces.iter().zip(&b.traces) {
            assert_eq!(x.op, y.op);
            assert_eq!(x.convergence_us(), y.convergence_us());
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_rings("1 2 3").is_err());
        assert!(parse_rings("0 0 0 nonsense 0 0 0 0 0 0 0 - - 0").is_err());
        assert_eq!(parse_rings("# only comments\n").expect("ok").len(), 0);
    }

    /// The Fig. 3 walkthrough (no simulator, all timestamps 0): the four
    /// paper operations each assemble into one complete trace.
    #[test]
    fn fig3_assembles_four_complete_traces() {
        let t = crate::scenario::fig3_walkthrough();
        let set = TraceAssembler::assemble(&t.flight_traces);
        assert_eq!(set.traces.len(), 4, "O1..O4");
        for tr in &set.traces {
            assert!(tr.complete(), "op {:?}", tr.op);
            assert!(tr.monotone());
            assert_eq!(tr.convergence_us(), Some(0), "walkthrough is untimed");
        }
        assert_eq!(set.live_clients, vec![1, 2, 3]);
    }

    /// The chronological interleaving a live tail sees: every event of
    /// every ring, ordered by time.
    fn time_sorted(rings: &[(SiteId, Vec<FlightEvent>)]) -> Vec<(SiteId, &FlightEvent)> {
        let mut stream: Vec<(SiteId, &FlightEvent)> = rings
            .iter()
            .flat_map(|(s, evs)| evs.iter().map(move |e| (*s, e)))
            .collect();
        stream.sort_by_key(|(s, e)| (e.recorded_at, s.0, e.seq));
        stream
    }

    /// Order independence, live-tail side: fed the chronological
    /// interleaving and drained as it goes, the tailer hands out every
    /// complete trace exactly once with the timings whole-ring assembly
    /// (notifier ring first) gives it, and closes to the identical set.
    #[test]
    fn tailer_streams_the_batch_assemblers_traces_incrementally() {
        let report = run_session(&traced_cfg(4, 7));
        assert!(report.converged);
        let batch = TraceAssembler::assemble(&report.flight_traces);
        let stream = time_sorted(&report.flight_traces);

        let mut tailer = TraceTailer::with_clients(1..=4);
        let mut drained = Vec::new();
        for (i, (site, ev)) in stream.iter().enumerate() {
            tailer.push(*site, ev);
            if i % 7 == 0 {
                drained.extend(tailer.drain_complete());
            }
        }
        drained.extend(tailer.drain_complete());
        assert_eq!(drained.len(), batch.complete_traces().count());
        for t in &drained {
            let b = batch
                .traces
                .iter()
                .find(|b| b.op == t.op)
                .expect("assembled from whole rings");
            assert_eq!(t.convergence_us(), b.convergence_us(), "op {:?}", t.op);
            assert_eq!(t.notifier_checks, b.notifier_checks, "op {:?}", t.op);
        }
        assert!(tailer.drain_complete().is_empty(), "drains exactly once");
        assert_eq!(tailer.open_ops(), 0);
        let set = tailer.finish();
        assert!(set.dangling().is_empty());
        assert_eq!(set, batch, "the set must not depend on the interleaving");
    }

    /// Order independence, worst case — every client ring in full
    /// *before* the notifier ring, membership learned — forces every
    /// deliver/execute through the unresolved-join buffer; the set must
    /// still be the one notifier-first assembly yields.
    #[test]
    fn tailer_buffers_joins_that_arrive_before_their_broadcast() {
        let report = run_session(&traced_cfg(3, 5));
        let batch = TraceAssembler::assemble(&report.flight_traces);

        let mut tailer = TraceTailer::new();
        let (notifier_rings, client_rings): (Vec<_>, Vec<_>) =
            report.flight_traces.iter().partition(|(s, _)| s.0 == 0);
        for (site, evs) in client_rings.iter().chain(&notifier_rings) {
            for ev in evs {
                tailer.push(*site, ev);
            }
        }
        let drained = tailer.drain_complete();
        assert_eq!(drained.len(), batch.complete_traces().count());
        assert_eq!(tailer.finish(), batch);
    }

    /// Stall attribution belongs to the one assembler, not to an input
    /// order: a lossy session pushed event by event, as a live tail sees
    /// it, charges each op's stages the stalls whole-ring assembly charges
    /// them — a stalled connection shows as a longer transport stage.
    #[test]
    fn finish_attributes_stalls_like_assemble() {
        let mut cfg = traced_cfg(4, 7);
        cfg.fault_plan = Some(cvc_sim::fault::FaultPlan {
            drop: 0.1,
            ..cvc_sim::fault::FaultPlan::NONE
        });
        let (ccap, ncap) = recommended_capacities(4, cfg.workload.ops_per_site);
        cfg.flight_recorder_capacity = ccap;
        cfg.flight_recorder_notifier_capacity = ncap;
        let report = run_session(&cfg);
        assert!(report.converged);
        let batch = TraceAssembler::assemble(&report.flight_traces);

        let mut tailer = TraceTailer::with_clients(1..=4);
        for (site, ev) in time_sorted(&report.flight_traces) {
            tailer.push(site, ev);
        }
        let tailed = tailer.finish();
        let stall = cvc_sim::sim::STALL_US;
        assert!(
            tailed
                .traces
                .iter()
                .any(|t| t.convergence_us().is_some_and(|c| c >= stall)),
            "a 10% lossy run must stall some op"
        );
        assert_eq!(tailed, batch);
    }

    /// With learned membership, nothing drains while only one client has
    /// spoken — a lone origin must not close traces vacuously.
    #[test]
    fn tailer_with_learned_membership_waits_for_a_second_client() {
        let report = run_session(&traced_cfg(3, 9));
        let mut tailer = TraceTailer::new();
        let notifier = &report.flight_traces[0];
        assert_eq!(notifier.0, SiteId(0));
        let first_client = &report.flight_traces[1];
        for ev in &notifier.1 {
            tailer.push(notifier.0, ev);
        }
        for ev in &first_client.1 {
            tailer.push(first_client.0, ev);
        }
        assert!(
            tailer.drain_complete().is_empty(),
            "one known client cannot certify convergence"
        );
    }

    /// Quarantined offenders' incomplete traces are marked truncated.
    #[test]
    fn quarantined_origin_marks_traces_truncated() {
        let s = CompressedStamp::new(0, 1);
        let notifier = vec![FlightEvent::new(EventKind::Error)
            .with_op(2, 1)
            .with_stamp(s)];
        let offender = vec![
            FlightEvent::new(EventKind::Generate)
                .with_op(2, 1)
                .with_stamp(s),
            FlightEvent::new(EventKind::Send)
                .with_op(2, 1)
                .with_stamp(s),
        ];
        let set = TraceAssembler::assemble(&[
            (SiteId(0), notifier),
            (SiteId(1), Vec::new()),
            (SiteId(2), offender),
        ]);
        assert_eq!(set.quarantined, vec![SiteId(2)]);
        assert_eq!(set.live_clients, vec![1]);
        assert_eq!(set.traces.len(), 1);
        assert!(!set.traces[0].complete());
        assert!(
            set.traces[0].truncated,
            "quarantine explains incompleteness"
        );
        assert!(set.dangling().is_empty());
    }
}
