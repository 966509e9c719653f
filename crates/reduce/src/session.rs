//! End-to-end sessions: workload + sites + simulated network.
//!
//! A session wires one of three deployments onto the `cvc-sim`
//! discrete-event network and drives a [`WorkloadConfig`] through it:
//!
//! * [`Deployment::StarCvc`] — the paper's system: star topology,
//!   transforming notifier, 2-element compressed stamps everywhere.
//! * [`Deployment::MeshFullVc`] — the classical fully-distributed REDUCE
//!   baseline: full mesh, full `N`-element vector stamps, GOTO/TTF
//!   integration.
//! * [`Deployment::RelayStar`] — the ablation of Section 6's closing
//!   remark: the same star wiring but the centre only *relays* (no
//!   transformation) — so causality stays `N`-dimensional and messages
//!   must carry full vectors.
//!
//! The report carries everything the experiments tabulate: convergence,
//! wire bytes split into payload vs timestamp, stamp widths, transform and
//! check counts, and optional per-delivery latency records.

use crate::client::Client;
use crate::composing::ComposingClient;
use crate::core::NotifierCore;
use crate::mesh::MeshSite;
use crate::metrics::SiteMetrics;
use crate::msg::EditorMsg;
use crate::notifier::{Notifier, ScanMode};
use crate::recorder::FlightEvent;
use crate::reliable::DisconnectSpec;
use crate::workload::{EditIntent, ScheduledEdit, WorkloadConfig};
use cvc_core::site::SiteId;
use cvc_sim::prelude::*;
use cvc_sim::wire::WireSize;
use serde::{Deserialize, Serialize};

/// Which system variant a session runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Deployment {
    /// The paper: star + transforming notifier + compressed stamps.
    StarCvc,
    /// Classic fully-distributed REDUCE with full vector stamps.
    MeshFullVc,
    /// Star topology whose centre relays without transforming (full
    /// vector stamps required).
    RelayStar,
}

impl Deployment {
    /// Short label for report tables.
    pub fn label(&self) -> &'static str {
        match self {
            Deployment::StarCvc => "star/cvc",
            Deployment::MeshFullVc => "mesh/full-vc",
            Deployment::RelayStar => "relay-star/full-vc",
        }
    }
}

/// How star/CVC clients propagate local edits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClientMode {
    /// The paper's protocol: every operation streams out immediately.
    Streaming,
    /// The ShareDB-style extension: one op in flight, the rest composed
    /// behind it (requires notifier acks).
    Composing,
}

/// Everything needed to run one session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionConfig {
    /// System variant.
    pub deployment: Deployment,
    /// Shared initial document.
    pub initial_doc: String,
    /// Link latency model (uniform across channels).
    pub latency: LatencyModel,
    /// Seed for latency draws (workload has its own in [`WorkloadConfig`]).
    pub net_seed: u64,
    /// The editing workload.
    pub workload: WorkloadConfig,
    /// Keep a per-delivery record (costs memory; used by E10).
    pub record_deliveries: bool,
    /// Garbage-collect history buffers after every integration (bounded
    /// memory; see `Client::gc` / `Notifier::gc`).
    pub auto_gc: bool,
    /// Star/CVC client behaviour (ignored by the other deployments).
    pub client_mode: ClientMode,
    /// Store-and-forward link rate for every channel (None = unlimited).
    /// On narrow links, timestamp bytes become real queueing delay.
    pub bandwidth_bytes_per_sec: Option<u64>,
    /// Attach telepointer presence to star-client operations (off by
    /// default so overhead experiments measure the paper's bare protocol).
    pub share_carets: bool,
    /// How the notifier scans its history buffer (ignored by the other
    /// deployments). Defaults to the watermark-bounded suffix scan; the
    /// full-scan reference exists for before/after measurements.
    pub notifier_scan: ScanMode,
    /// Fault plan applied to every channel (`None` = the paper's reliable
    /// FIFO network). Faulty plans normally require [`SessionConfig::
    /// reliable`]; without it, protocol-level FIFO checks will (by
    /// design) detect the violated transport assumption: each rejected
    /// message is counted in the site's `protocol_errors` and dropped.
    pub fault_plan: Option<FaultPlan>,
    /// Run the star/CVC deployment over the ack/retransmit reliability
    /// layer (`crate::reliable`), which restores FIFO semantics on top of
    /// whatever `fault_plan` does to the links.
    pub reliable: bool,
    /// Coalesce editor messages queued behind an in-flight reliable
    /// window into compound frames (one header + one checksum for several
    /// ops). On by default; off reproduces the previous one-frame-per-
    /// message wire behaviour exactly. Ignored without `reliable`.
    pub compound_frames: bool,
    /// Scheduled client outages (each ends in a reconnect + resync).
    /// Requires `reliable`.
    pub disconnects: Vec<DisconnectSpec>,
    /// Deadline (µs) after which a compound-frame payload parked behind an
    /// in-flight reliable window is flushed even though no ack has arrived
    /// (`0` = flushing stays purely ack-driven, the pre-deadline
    /// behaviour). Bounds the worst-case batching delay a quiet channel
    /// can impose. Ignored without `reliable` + `compound_frames`.
    pub compound_flush_ticks: u64,
    /// Run the notifier with a write-ahead log and a warm standby that
    /// tails it ([`crate::wal`] / [`crate::standby`]). Requires
    /// `reliable`; a [`SessionConfig::crash`] plan requires this.
    pub standby: bool,
    /// Kill the primary notifier at a chosen integration point and promote
    /// the standby (see [`crate::reliable::NotifierCrash`]). Requires
    /// `standby`.
    pub crash: Option<crate::reliable::NotifierCrash>,
    /// Enable every site's flight recorder (star/CVC only). Costs one
    /// ring of [`crate::recorder::DEFAULT_CAPACITY`] events per site;
    /// E17 measures the overhead of both settings.
    pub flight_recorder: bool,
    /// Ring capacity per *client* when the recorder is on; the notifier's
    /// ring is `N`× this (its stream carries the broadcast fan-out). The
    /// default keeps E17's footprint; traced runs (`cvc-trace`, E18) size
    /// this to the workload so full lifecycles survive without wrapping.
    pub flight_recorder_capacity: usize,
    /// Explicit notifier-ring capacity; `0` (the default) derives it as
    /// `N × flight_recorder_capacity`. Traced runs set both from
    /// [`crate::trace::recommended_capacities`], whose notifier term
    /// follows the transform stream rather than the client rings.
    pub flight_recorder_notifier_capacity: usize,
}

impl SessionConfig {
    /// A small default session of `n` clients.
    pub fn small(deployment: Deployment, n: usize, seed: u64) -> Self {
        SessionConfig {
            deployment,
            initial_doc: "the quick brown fox jumps over the lazy dog".into(),
            latency: LatencyModel::internet(),
            net_seed: seed.wrapping_mul(31).wrapping_add(7),
            workload: WorkloadConfig::small(n, seed),
            record_deliveries: false,
            // On by default: with ack-driven collection the history buffers
            // stay at the in-flight window, which is what flattens the
            // per-op cost curve (E16). Baseline measurements that need the
            // unbounded buffers opt out explicitly.
            auto_gc: true,
            client_mode: ClientMode::Streaming,
            bandwidth_bytes_per_sec: None,
            share_carets: false,
            notifier_scan: ScanMode::SuffixBounded,
            fault_plan: None,
            reliable: false,
            compound_frames: true,
            disconnects: Vec::new(),
            // Just under the base retransmission timeout: the deadline is
            // a last resort for pathologically parked batches, not a
            // competitor to the ack-driven flush (which fires at RTT
            // timescale). E19's goodput numbers are unchanged by it.
            compound_flush_ticks: 200_000,
            standby: false,
            crash: None,
            flight_recorder: false,
            flight_recorder_capacity: crate::recorder::DEFAULT_CAPACITY,
            flight_recorder_notifier_capacity: 0,
        }
    }

    /// The star/CVC notifier this session runs, for `slots` client sites:
    /// scan mode, folded-in GC and flight recorder as configured.
    pub(crate) fn notifier(&self, slots: usize) -> Notifier {
        let mut notifier = Notifier::new(slots, &self.initial_doc);
        notifier.set_scan_mode(self.notifier_scan);
        notifier.set_auto_gc(self.auto_gc);
        notifier.set_flight_recorder_capacity(self.notifier_ring_capacity(slots));
        notifier.set_flight_recorder(self.flight_recorder);
        notifier
    }

    /// The streaming star/CVC client replica at `site`.
    pub(crate) fn client(&self, site: SiteId) -> Client {
        let mut client = Client::new(site, &self.initial_doc);
        client.set_share_caret(self.share_carets);
        client.set_flight_recorder_capacity(self.flight_recorder_capacity);
        client.set_flight_recorder(self.flight_recorder);
        client
    }

    /// The notifier's ring capacity: the explicit override when set,
    /// otherwise `N×` the per-client capacity (its stream carries the
    /// broadcast fan-out).
    pub fn notifier_ring_capacity(&self, n: usize) -> usize {
        if self.flight_recorder_notifier_capacity > 0 {
            self.flight_recorder_notifier_capacity
        } else {
            self.flight_recorder_capacity.saturating_mul(n.max(1))
        }
    }
}

/// What a notifier crash + standby promotion cost, measured inside one
/// session (present on [`SessionReport::failover`] when a
/// [`SessionConfig::crash`] plan fired).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FailoverReport {
    /// Virtual time (µs) the primary died.
    pub crash_at_us: u64,
    /// Virtual time (µs) the *last* client channel was unfenced — i.e.
    /// every survivor had completed an epoch-bumped resync against the
    /// promoted notifier. `None` if some channel never recovered (the
    /// session will also have failed to converge).
    pub recovered_at_us: Option<u64>,
    /// Clients that resynced against the promoted notifier.
    pub resynced_clients: usize,
    /// WAL operation records the standby had replayed at promotion.
    pub standby_replay_ops: u64,
    /// WAL ack records the standby had replayed at promotion.
    pub standby_replay_acks: u64,
    /// Records appended to the WAL over the whole session.
    pub wal_appends: u64,
    /// Framed bytes appended to the WAL over the whole session.
    pub wal_bytes: u64,
    /// Live WAL size (bytes) at quiescence, after compactions.
    pub wal_live_bytes: u64,
    /// Snapshot compactions performed.
    pub snapshot_compactions: u64,
    /// Write amplification: framed WAL bytes per byte of op payload.
    pub wal_amplification: f64,
    /// Zombie-epoch frames the fencing rules discarded after promotion.
    pub fenced_drops: u64,
}

impl FailoverReport {
    /// Recovery time (µs), crash to last unfence; `None` while any
    /// channel is still fenced.
    pub fn recovery_us(&self) -> Option<u64> {
        self.recovered_at_us
            .map(|t| t.saturating_sub(self.crash_at_us))
    }
}

/// Result of a completed session.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// System variant that ran.
    pub deployment: Deployment,
    /// Client count `N`.
    pub n_clients: usize,
    /// All replicas (clients, and the notifier for star/CVC) ended
    /// identical.
    pub converged: bool,
    /// The agreed document (first client's if divergent).
    pub final_doc: String,
    /// Every replica's final content, for divergence diagnostics.
    pub final_docs: Vec<String>,
    /// Virtual time at quiescence.
    pub quiesced_at: SimTime,
    /// Per-client metrics (index 0 = site 1).
    pub client_metrics: Vec<SiteMetrics>,
    /// Centre metrics (notifier or relay), when the topology has one.
    pub centre_metrics: Option<SiteMetrics>,
    /// Aggregate network statistics.
    pub net: ChannelStats,
    /// Widest timestamp (integer elements) any message carried.
    pub max_stamp_integers: usize,
    /// Largest history buffer left on any replica at quiescence.
    pub max_history_len: usize,
    /// Per-delivery records (empty unless requested).
    pub deliveries: Vec<DeliveryRecord>,
    /// Injected-fault tallies (all zero on a clean network).
    pub fault_stats: FaultStats,
    /// One-way in-order delivery latencies (µs) measured by the
    /// reliability layer, send-to-usable: a dropped first copy counts
    /// until its retransmission lands. Empty for plain sessions.
    pub delivery_latencies_us: Vec<u64>,
    /// Per-site flight-recorder rings harvested at quiescence (site 0 =
    /// notifier), oldest event first, each stamped with virtual time.
    /// Empty unless [`SessionConfig::flight_recorder`] was set (star/CVC
    /// only). Feed to [`crate::trace::TraceAssembler`] or
    /// [`crate::audit::audit_streams`].
    pub flight_traces: Vec<(SiteId, Vec<FlightEvent>)>,
    /// Failover accounting, present when a [`SessionConfig::crash`] plan
    /// fired during the session.
    pub failover: Option<FailoverReport>,
}

impl SessionReport {
    /// Sum of all site metrics (clients + centre).
    pub fn total_metrics(&self) -> SiteMetrics {
        let mut total = SiteMetrics::new();
        for m in &self.client_metrics {
            total += *m;
        }
        if let Some(c) = self.centre_metrics {
            total += c;
        }
        total
    }
}

/// One simulator node of a session.
enum SessionNode {
    /// The star's notifier: a core with no log, so there is nothing to
    /// mirror or compact.
    Notifier(Box<NotifierCore>),
    Client {
        client: Box<Client>,
        script: Vec<ScheduledEdit>,
        auto_gc: bool,
    },
    ComposingClient {
        client: Box<ComposingClient>,
        script: Vec<ScheduledEdit>,
    },
    MeshSite {
        site: Box<MeshSite>,
        peers: Vec<NodeId>,
        script: Vec<ScheduledEdit>,
        wire: SiteMetrics,
        max_stamp: usize,
        auto_gc: bool,
    },
    Relay {
        client_nodes: Vec<NodeId>,
        wire: SiteMetrics,
        max_stamp: usize,
    },
}

impl SessionNode {
    fn count_send(wire: &mut SiteMetrics, max_stamp: &mut usize, msg: &EditorMsg, copies: usize) {
        let c = copies as u64;
        wire.messages_sent += c;
        wire.bytes_sent += msg.wire_bytes() as u64 * c;
        wire.stamp_bytes_sent += msg.stamp_bytes() as u64 * c;
        wire.stamp_integers_sent += msg.stamp_integers() as u64 * c;
        *max_stamp = (*max_stamp).max(msg.stamp_integers());
    }
}

impl Node<EditorMsg> for SessionNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_, EditorMsg>, from: NodeId, msg: EditorMsg) {
        // Stamp the virtual clock onto the site's flight recorder before
        // delegating, so every event recorded inside carries sim time.
        match self {
            SessionNode::Notifier(core) => core.set_now(ctx.now.as_micros()),
            SessionNode::Client { client, .. } => client.set_now(ctx.now.as_micros()),
            _ => {}
        }
        match (self, msg) {
            (
                SessionNode::Notifier(core),
                msg @ (EditorMsg::ClientOp(_) | EditorMsg::ClientAck(_)),
            ) => {
                // The channel names the sender; GC (when enabled) is folded
                // into the integration itself via `Notifier::set_auto_gc`.
                let sender = SiteId(from as u32);
                let res = match msg {
                    EditorMsg::ClientOp(m) => core.integrate_op(sender, m).map(|outcome| {
                        for (dest, smsg) in outcome.broadcast_msgs() {
                            ctx.send(dest.0 as usize, EditorMsg::ServerOp(smsg));
                        }
                        if let Some((dest, ack)) = outcome.ack {
                            ctx.send(dest.0 as usize, EditorMsg::ServerAck(ack));
                        }
                    }),
                    EditorMsg::ClientAck(a) => core.integrate_ack(sender, a),
                    _ => Ok(()),
                };
                if let Err(e) = res {
                    // Hostile or corrupted input must never take the
                    // session down: dump the evidence, evict the sender,
                    // keep serving the surviving clients.
                    eprintln!("notifier rejected input from {sender}: {e}");
                    eprintln!("{}", core.notifier().dump_recorder());
                    let _ = core.integrate_eviction(sender);
                }
            }
            (
                SessionNode::Client {
                    client, auto_gc, ..
                },
                EditorMsg::ServerOp(m),
            ) => {
                if let Err(e) = client.try_on_server_op(m) {
                    // The replica counted the violation and is untouched;
                    // drop the message (a duplicate is harmless, a gap
                    // shows up as a diverged report, never as a panic).
                    eprintln!("{} rejected server op: {e}", client.site());
                    eprintln!("{}", client.dump_recorder());
                    return;
                }
                if *auto_gc {
                    client.gc();
                }
                // Quiet clients still owe the notifier a periodic bare ack,
                // or their frozen watermarks would starve its collector.
                if let Some(a) = client.take_pending_ack() {
                    ctx.send(0, EditorMsg::ClientAck(a));
                }
            }
            (SessionNode::Client { .. }, EditorMsg::ServerAck(_)) => {
                // Streaming clients ignore acknowledgements.
            }
            (SessionNode::ComposingClient { client, .. }, EditorMsg::ServerOp(m)) => {
                match client.on_server_op(m) {
                    Ok((_, Some(up))) => ctx.send(0, EditorMsg::ClientOp(up)),
                    Ok((_, None)) => {}
                    Err(e) => eprintln!("composing client rejected server op: {e}"),
                }
            }
            (SessionNode::ComposingClient { client, .. }, EditorMsg::ServerAck(m)) => {
                if let Some(up) = client.on_server_ack(m) {
                    ctx.send(0, EditorMsg::ClientOp(up));
                }
            }
            (SessionNode::MeshSite { site, auto_gc, .. }, EditorMsg::MeshOp(m)) => {
                site.on_remote(m);
                if *auto_gc {
                    site.gc();
                }
            }
            (
                SessionNode::Relay {
                    client_nodes,
                    wire,
                    max_stamp,
                },
                EditorMsg::MeshOp(m),
            ) => {
                let msg = EditorMsg::MeshOp(m);
                let copies = client_nodes.iter().filter(|&&n| n != from).count();
                SessionNode::count_send(wire, max_stamp, &msg, copies);
                for &node in client_nodes.iter() {
                    if node != from {
                        ctx.send(node, msg.clone());
                    }
                }
            }
            (_, other) => {
                // A message kind this node cannot process — impossible in a
                // well-formed session, possible under forged frames. Drop it
                // rather than crash; the sender's stream checks will catch
                // any real gap.
                eprintln!("dropping incompatible message {other:?}");
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, EditorMsg>, tag: u64) {
        match self {
            SessionNode::Client { client, script, .. } => {
                client.set_now(ctx.now.as_micros());
                if let Some(msg) = script[tag as usize].intent.apply_to(client) {
                    ctx.send(0, EditorMsg::ClientOp(msg));
                }
            }
            SessionNode::MeshSite {
                site,
                peers,
                script,
                wire,
                max_stamp,
                ..
            } => {
                let edit = script[tag as usize].clone();
                let len = site.doc().chars().count();
                let mut msgs = Vec::new();
                match &edit.intent {
                    EditIntent::InsertChar { ch, .. } => {
                        let pos = edit.intent.position(len).expect("insert always applies");
                        msgs.push(site.local_insert(pos, *ch));
                    }
                    EditIntent::InsertText { text, .. } => {
                        // Char-based ops: the mesh pays one operation (and
                        // one broadcast) per character.
                        let pos = edit.intent.position(len).expect("insert always applies");
                        for (k, ch) in text.chars().enumerate() {
                            msgs.push(site.local_insert(pos + k, ch));
                        }
                    }
                    EditIntent::DeleteChar { .. } => {
                        if let Some(pos) = edit.intent.position(len) {
                            msgs.push(site.local_delete(pos));
                        }
                    }
                    // The mesh baseline has no undo; skip.
                    EditIntent::Undo => {}
                }
                for m in msgs {
                    let wire_msg = EditorMsg::MeshOp(m);
                    SessionNode::count_send(wire, max_stamp, &wire_msg, peers.len());
                    for &p in peers.iter() {
                        ctx.send(p, wire_msg.clone());
                    }
                }
            }
            SessionNode::ComposingClient { client, script } => {
                let edit = script[tag as usize].clone();
                let len = client.doc_len();
                let sent = match &edit.intent {
                    EditIntent::InsertChar { ch, .. } => {
                        let pos = edit.intent.position(len).expect("insert always applies");
                        client.insert(pos, &ch.to_string())
                    }
                    EditIntent::InsertText { text, .. } => {
                        let pos = edit.intent.position(len).expect("insert always applies");
                        client.insert(pos, text)
                    }
                    EditIntent::DeleteChar { .. } => edit
                        .intent
                        .position(len)
                        .and_then(|pos| client.delete(pos, 1)),
                    // Composing clients have no undo.
                    EditIntent::Undo => None,
                };
                if let Some(msg) = sent {
                    ctx.send(0, EditorMsg::ClientOp(msg));
                }
            }
            SessionNode::Notifier(..) | SessionNode::Relay { .. } => {
                unreachable!("centre nodes have no scheduled edits")
            }
        }
    }
}

/// Run a configured session to quiescence and report.
pub fn run_session(cfg: &SessionConfig) -> SessionReport {
    if cfg.reliable {
        return crate::reliable::run_robust_session(cfg);
    }
    assert!(
        cfg.disconnects.is_empty(),
        "client outages require the reliability layer (cfg.reliable)"
    );
    assert!(
        !cfg.standby && cfg.crash.is_none(),
        "notifier durability/failover requires the reliability layer (cfg.reliable)"
    );
    let n = cfg.workload.n_sites;
    assert!(n >= 2, "sessions need at least two clients");
    let scripts = cfg.workload.generate();
    let mut sim: Simulator<EditorMsg, SessionNode> = Simulator::new(cfg.latency, cfg.net_seed);
    sim.set_default_bandwidth(cfg.bandwidth_bytes_per_sec);
    sim.record_deliveries(cfg.record_deliveries);
    if let Some(plan) = cfg.fault_plan {
        // Without the reliability layer the protocol checks detect the
        // broken FIFO assumption and count it; that detection is itself
        // under test in the chaos suite.
        sim.set_default_fault_plan(plan);
    }

    // Build nodes per deployment.
    match cfg.deployment {
        Deployment::StarCvc => {
            let mut notifier = cfg.notifier(n);
            if cfg.client_mode == ClientMode::Composing {
                notifier.set_send_acks(true);
            }
            let core = NotifierCore::new(notifier, None, None);
            sim.add_node(SessionNode::Notifier(Box::new(core)));
            for (i, script) in scripts.iter().enumerate() {
                match cfg.client_mode {
                    ClientMode::Streaming => sim.add_node(SessionNode::Client {
                        client: Box::new(cfg.client(SiteId(i as u32 + 1))),
                        script: script.clone(),
                        auto_gc: cfg.auto_gc,
                    }),
                    ClientMode::Composing => sim.add_node(SessionNode::ComposingClient {
                        client: Box::new(ComposingClient::new(
                            SiteId(i as u32 + 1),
                            &cfg.initial_doc,
                        )),
                        script: script.clone(),
                    }),
                };
            }
        }
        Deployment::RelayStar => {
            sim.add_node(SessionNode::Relay {
                client_nodes: (1..=n).collect(),
                wire: SiteMetrics::new(),
                max_stamp: 0,
            });
            for (i, script) in scripts.iter().enumerate() {
                sim.add_node(SessionNode::MeshSite {
                    site: Box::new(MeshSite::new(SiteId(i as u32 + 1), n, &cfg.initial_doc)),
                    peers: vec![0],
                    script: script.clone(),
                    wire: SiteMetrics::new(),
                    max_stamp: 0,
                    auto_gc: cfg.auto_gc,
                });
            }
        }
        Deployment::MeshFullVc => {
            for (i, script) in scripts.iter().enumerate() {
                let peers = (0..n).filter(|&p| p != i).collect();
                sim.add_node(SessionNode::MeshSite {
                    site: Box::new(MeshSite::new(SiteId(i as u32 + 1), n, &cfg.initial_doc)),
                    peers,
                    script: script.clone(),
                    wire: SiteMetrics::new(),
                    max_stamp: 0,
                    auto_gc: cfg.auto_gc,
                });
            }
        }
    }

    // Schedule every edit as a timer on its site's node.
    let client_node_base = match cfg.deployment {
        Deployment::StarCvc | Deployment::RelayStar => 1usize,
        Deployment::MeshFullVc => 0usize,
    };
    for (i, script) in scripts.iter().enumerate() {
        for (k, edit) in script.iter().enumerate() {
            sim.schedule_timer(client_node_base + i, edit.at, k as u64);
        }
    }

    let quiesced_at = sim.run();

    // Harvest.
    let mut final_docs = Vec::new();
    let mut mesh_models: Vec<cvc_ot::ttf::TtfDoc> = Vec::new();
    let mut client_metrics = Vec::new();
    let mut centre_metrics: Option<SiteMetrics> = None;
    let mut max_stamp_integers = 0usize;
    let mut max_history = 0usize;
    let mut flight_traces: Vec<(SiteId, Vec<FlightEvent>)> = Vec::new();
    for node in sim.nodes() {
        match node {
            SessionNode::Notifier(core) => {
                let nf = core.notifier();
                centre_metrics = Some(*nf.metrics());
                final_docs.push(nf.doc().to_owned());
                max_stamp_integers = max_stamp_integers.max(2);
                max_history = max_history.max(nf.history().len());
                if cfg.flight_recorder {
                    flight_traces.push((SiteId(0), nf.recorder().events()));
                }
            }
            SessionNode::Client { client, .. } => {
                client_metrics.push(*client.metrics());
                final_docs.push(client.doc().to_owned());
                max_stamp_integers = max_stamp_integers.max(2);
                max_history = max_history.max(client.history().len());
                if cfg.flight_recorder {
                    flight_traces.push((client.site(), client.recorder().events()));
                }
            }
            SessionNode::ComposingClient { client, .. } => {
                assert!(
                    !client.has_outstanding() && !client.has_buffered(),
                    "composing client left unflushed work at quiescence"
                );
                client_metrics.push(*client.metrics());
                final_docs.push(client.doc().to_owned());
                max_stamp_integers = max_stamp_integers.max(2);
            }
            SessionNode::MeshSite {
                site,
                wire,
                max_stamp,
                ..
            } => {
                assert_eq!(site.pending_len(), 0, "ops stuck awaiting causality");
                mesh_models.push(site.model().clone());
                let mut m = *site.metrics();
                m += *wire;
                client_metrics.push(m);
                final_docs.push(site.doc());
                max_stamp_integers = max_stamp_integers.max(*max_stamp);
                max_history = max_history.max(site.history_len());
            }
            SessionNode::Relay {
                wire, max_stamp, ..
            } => {
                centre_metrics = Some(*wire);
                max_stamp_integers = max_stamp_integers.max(*max_stamp);
            }
        }
    }
    let converged = final_docs.windows(2).all(|w| w[0] == w[1]);
    // Structural audit for tombstone replicas: not just the visible text —
    // the full models (every cell ever inserted, dead or alive) must be
    // identical, which pins down intention preservation at the character
    // level (each insert contributes exactly one cell everywhere; a delete
    // kills the same cell everywhere).
    assert!(
        mesh_models.windows(2).all(|w| w[0] == w[1]),
        "visible texts may agree while models diverge — structural audit failed"
    );
    let final_doc = final_docs.last().cloned().unwrap_or_default();

    SessionReport {
        deployment: cfg.deployment,
        n_clients: n,
        converged,
        final_doc,
        final_docs,
        quiesced_at,
        client_metrics,
        centre_metrics,
        net: sim.total_stats(),
        max_stamp_integers,
        max_history_len: max_history,
        deliveries: sim.deliveries().to_vec(),
        fault_stats: sim.fault_stats(),
        delivery_latencies_us: Vec::new(),
        flight_traces,
        failover: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(deployment: Deployment, n: usize, seed: u64) -> SessionReport {
        let cfg = SessionConfig::small(deployment, n, seed);
        run_session(&cfg)
    }

    #[test]
    fn star_cvc_converges() {
        for seed in 0..5 {
            let r = run(Deployment::StarCvc, 4, seed);
            assert!(r.converged, "seed {seed}: {:?}", r.final_docs);
            assert_eq!(r.max_stamp_integers, 2);
        }
    }

    #[test]
    fn mesh_converges() {
        for seed in 0..5 {
            let r = run(Deployment::MeshFullVc, 4, seed);
            assert!(r.converged, "seed {seed}: {:?}", r.final_docs);
            assert_eq!(r.max_stamp_integers, 4);
        }
    }

    #[test]
    fn relay_star_converges_with_full_stamps() {
        for seed in 0..5 {
            let r = run(Deployment::RelayStar, 4, seed);
            assert!(r.converged, "seed {seed}: {:?}", r.final_docs);
            assert_eq!(r.max_stamp_integers, 4, "relaying cannot compress");
        }
    }

    #[test]
    fn star_stamps_stay_constant_as_n_grows() {
        let small = run(Deployment::StarCvc, 2, 1);
        let large = run(Deployment::StarCvc, 8, 1);
        assert_eq!(small.max_stamp_integers, 2);
        assert_eq!(large.max_stamp_integers, 2);
        // Mesh stamp width grows with N instead.
        let mesh_large = run(Deployment::MeshFullVc, 8, 1);
        assert_eq!(mesh_large.max_stamp_integers, 8);
    }

    #[test]
    fn star_uses_more_messages_but_fewer_stamp_bytes_per_message() {
        let n = 6;
        let star = run(Deployment::StarCvc, n, 2);
        let mesh = run(Deployment::MeshFullVc, n, 2);
        let star_total = star.total_metrics();
        let mesh_total = mesh.total_metrics();
        assert!(star_total.messages_sent > 0 && mesh_total.messages_sent > 0);
        assert!(
            star_total.stamp_integers_per_message() < mesh_total.stamp_integers_per_message(),
            "star {} vs mesh {}",
            star_total.stamp_integers_per_message(),
            mesh_total.stamp_integers_per_message()
        );
        assert_eq!(star_total.stamp_integers_per_message(), 2.0);
    }

    #[test]
    fn auto_gc_bounds_history_and_preserves_results() {
        let mut plain = SessionConfig::small(Deployment::StarCvc, 4, 13);
        plain.workload.ops_per_site = 40;
        plain.auto_gc = false; // the unbounded baseline under test
        let mut gc = plain.clone();
        gc.auto_gc = true;
        let a = run_session(&plain);
        let b = run_session(&gc);
        assert!(a.converged && b.converged);
        assert_eq!(a.final_doc, b.final_doc, "GC must not change results");
        // Without GC the history grows with the session; with it the
        // buffers stay near the in-flight window.
        assert!(
            a.max_history_len >= 160,
            "plain run kept {}",
            a.max_history_len
        );
        assert!(
            b.max_history_len < a.max_history_len / 4,
            "gc run kept {} vs {}",
            b.max_history_len,
            a.max_history_len
        );
    }

    #[test]
    fn scan_modes_agree_and_suffix_touches_less() {
        let mut fast = SessionConfig::small(Deployment::StarCvc, 4, 23);
        fast.workload.ops_per_site = 30;
        // GC off: this measures the scan bound itself, on buffers that
        // actually grow (with GC on, both modes only ever see the window).
        fast.auto_gc = false;
        let mut slow = fast.clone();
        slow.notifier_scan = ScanMode::FullScanReference;
        let a = run_session(&fast);
        let b = run_session(&slow);
        assert!(a.converged && b.converged);
        assert_eq!(
            a.final_doc, b.final_doc,
            "scan mode must not change results"
        );
        let ca = a.centre_metrics.expect("star has a centre");
        let cb = b.centre_metrics.expect("star has a centre");
        assert_eq!(ca.concurrency_checks, cb.concurrency_checks);
        assert_eq!(ca.concurrent_verdicts, cb.concurrent_verdicts);
        // The reference pays the full buffer per op; the bounded scan only
        // the un-acked window.
        assert_eq!(cb.scan_len_total, cb.concurrency_checks);
        assert!(
            ca.scan_len_total < cb.scan_len_total / 2,
            "suffix touched {} vs full {}",
            ca.scan_len_total,
            cb.scan_len_total
        );
    }

    #[test]
    fn mesh_auto_gc_bounds_history_too() {
        let mut plain = SessionConfig::small(Deployment::MeshFullVc, 4, 17);
        plain.workload.ops_per_site = 40;
        plain.auto_gc = false; // the unbounded baseline under test
        let mut gc = plain.clone();
        gc.auto_gc = true;
        let a = run_session(&plain);
        let b = run_session(&gc);
        assert!(a.converged && b.converged);
        assert_eq!(a.final_doc, b.final_doc);
        assert!(
            b.max_history_len < a.max_history_len,
            "gc kept {} vs {}",
            b.max_history_len,
            a.max_history_len
        );
    }

    #[test]
    fn shared_carets_cost_a_few_bytes_and_still_converge() {
        let plain = SessionConfig::small(Deployment::StarCvc, 3, 19);
        let mut presence = plain.clone();
        presence.share_carets = true;
        let a = run_session(&plain);
        let b = run_session(&presence);
        assert!(a.converged && b.converged);
        assert_eq!(a.final_doc, b.final_doc, "presence must not affect text");
        let (ab, bb) = (a.total_metrics().bytes_sent, b.total_metrics().bytes_sent);
        assert!(bb > ab, "presence adds bytes: {bb} vs {ab}");
        assert!(bb < ab + a.total_metrics().messages_sent * 4);
    }

    /// Without the reliability layer a duplicating network breaks the
    /// FIFO assumption; every replica detects that through its fallible
    /// entry point and the session still ends in a report.
    #[test]
    fn duplicating_links_yield_counted_errors_not_a_panic() {
        let mut cfg = SessionConfig::small(Deployment::StarCvc, 3, 5);
        cfg.fault_plan = Some(FaultPlan {
            duplicate: 0.3,
            ..FaultPlan::NONE
        });
        let r = run_session(&cfg);
        assert!(r.fault_stats.duplicated > 0, "the plan must have fired");
        let at_clients: u64 = r.client_metrics.iter().map(|m| m.protocol_errors).sum();
        assert!(at_clients > 0, "clients count the duplicates they refuse");
        let centre = r.centre_metrics.expect("star has a centre");
        assert!(centre.protocol_errors > 0, "and so does the notifier");
    }

    /// On the plain tier too the channel, not the envelope, names the
    /// sender: node 1 delivering what would be site 2's valid first op
    /// gets site 1 quarantined and leaves site 2 a member.
    #[test]
    fn forged_origin_quarantines_the_channel_it_arrived_on() {
        let mut sim: Simulator<EditorMsg, SessionNode> = Simulator::new(LatencyModel::lan(), 1);
        let core = NotifierCore::new(Notifier::new(3, "ab"), None, None);
        sim.add_node(SessionNode::Notifier(Box::new(core)));
        for i in 1..=3 {
            sim.add_node(SessionNode::Client {
                client: Box::new(Client::new(SiteId(i), "ab")),
                script: Vec::new(),
                auto_gc: true,
            });
        }
        let forged = Client::new(SiteId(2), "ab").insert(0, "F");
        sim.inject_send(1, 0, EditorMsg::ClientOp(forged));
        sim.run();
        let SessionNode::Notifier(core) = sim.node(0) else {
            unreachable!("node 0 is the notifier");
        };
        let n = core.notifier();
        assert!(!n.is_active(SiteId(1)), "the sender is out");
        assert!(n.is_active(SiteId(2)) && n.is_active(SiteId(3)));
        assert_eq!(n.doc(), "ab");
    }

    #[test]
    fn deliveries_recorded_on_request() {
        let mut cfg = SessionConfig::small(Deployment::StarCvc, 3, 4);
        cfg.record_deliveries = true;
        let r = run_session(&cfg);
        assert!(!r.deliveries.is_empty());
        assert_eq!(r.net.messages, r.deliveries.len() as u64);
    }

    #[test]
    fn reports_are_reproducible() {
        let a = run(Deployment::StarCvc, 3, 9);
        let b = run(Deployment::StarCvc, 3, 9);
        assert_eq!(a.final_doc, b.final_doc);
        assert_eq!(a.net.bytes, b.net.bytes);
        assert_eq!(a.quiesced_at, b.quiesced_at);
    }
}
