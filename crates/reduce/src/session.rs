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
//! A plain star session is a timed chooser over the one
//! [`StarWorld`]: the simulator decides *when* — script timers, latency
//! draws, the FIFO clamp, bandwidth, fault plans — and the world decides
//! *what*: the hub integrates, the replicas integrate, and every send is
//! popped off the world's FIFOs the moment it is queued and carried, as
//! its payload bytes, through the simulator's channel (node 0 is the
//! notifier, node `i` site `i`). A session over connections — a fault
//! plan, outages or a standby — is a timed chooser over the same world
//! (`crate::reliable`), and both harvest their report from it the same
//! way ([`SessionReport::harvest`]). The two loops stay apart: a plain
//! session charges each message's bare payload bytes, a connection its
//! framed write rounds, so one loop would move every plain golden. The
//! two full-vector baselines are timed choosers over their mesh sites.
//!
//! The report carries everything the experiments tabulate: convergence,
//! wire bytes split into payload vs timestamp, stamp widths, transform and
//! check counts, and optional per-delivery latency records.

use crate::client::Client;
use crate::core::NotifierCore;
use crate::mesh::MeshSite;
use crate::metrics::SiteMetrics;
use crate::msg::{EditorMsg, Payload};
use crate::notifier::{Notifier, ScanMode};
use crate::recorder::FlightEvent;
use crate::reliable::DisconnectSpec;
use crate::standby::Standby;
use crate::wal::{Wal, DEFAULT_COMPACT_EVERY};
use crate::workload::{ScheduledEdit, WorkloadConfig};
use crate::world::StarWorld;
use cvc_core::site::SiteId;
use cvc_sim::prelude::*;
use cvc_sim::wire::WireSize;
use serde::{Deserialize, Serialize};

/// Which system variant a session runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Deployment {
    /// The paper: star + transforming notifier + compressed stamps.
    #[default]
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
    /// Fault plan applied to every channel. `None` is the paper's ideal
    /// FIFO network; `Some` runs the star/CVC deployment over connections
    /// (`crate::reliable`), which the plan stalls and resets the way TCP
    /// fails — `Some(FaultPlan::NONE)` is a fault-free network of them.
    pub fault_plan: Option<FaultPlan>,
    /// Scheduled client outages (each ends in a reconnect + resync). A
    /// session with any runs over connections.
    pub disconnects: Vec<DisconnectSpec>,
    /// Run the notifier with a write-ahead log and a warm standby that
    /// tails it ([`crate::wal`] / [`crate::standby`]); the session runs
    /// over connections. A [`SessionConfig::crash`] plan requires this.
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
            disconnects: Vec::new(),
            standby: false,
            crash: None,
            flight_recorder: false,
            flight_recorder_capacity: crate::recorder::DEFAULT_CAPACITY,
            flight_recorder_notifier_capacity: 0,
        }
    }

    /// The notifier core this session's star runs: the star/CVC notifier
    /// with its scan mode, folded-in GC and flight recorder as configured,
    /// sending acks to composing clients, and — in standby sessions — its
    /// write-ahead log and a warm standby tailing it.
    pub(crate) fn core(&self) -> NotifierCore {
        let n = self.workload.n_sites;
        let mut notifier = Notifier::new(n, &self.initial_doc);
        notifier.set_scan_mode(self.notifier_scan);
        notifier.set_auto_gc(self.auto_gc);
        // The notifier's ring: the explicit override when set, otherwise
        // `N×` the per-client capacity (its stream carries the fan-out).
        let ring = match self.flight_recorder_notifier_capacity {
            0 => self.flight_recorder_capacity.saturating_mul(n.max(1)),
            ring => ring,
        };
        notifier.set_flight_recorder_capacity(ring);
        notifier.set_flight_recorder(self.flight_recorder);
        notifier.set_send_acks(self.client_mode == ClientMode::Composing);
        let standby = self.standby.then(|| {
            let mut sb = Standby::new(n, &self.initial_doc, self.notifier_scan);
            sb.set_auto_gc(self.auto_gc);
            sb
        });
        let wal = self.standby.then(|| Wal::new(DEFAULT_COMPACT_EVERY));
        NotifierCore::new(notifier, wal, standby)
    }

    /// The streaming star/CVC client replica at `site`.
    pub(crate) fn client(&self, site: SiteId) -> Client {
        let mut client = Client::new(site, &self.initial_doc);
        client.set_share_caret(self.share_carets);
        client.set_flight_recorder_capacity(self.flight_recorder_capacity);
        client.set_flight_recorder(self.flight_recorder);
        client
    }
}

/// What a notifier crash + standby promotion cost, measured inside one
/// session (present on [`SessionReport::failover`] when a
/// [`SessionConfig::crash`] plan fired).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FailoverReport {
    /// Virtual time (µs) the primary died.
    pub crash_at_us: u64,
    /// Virtual time (µs) the *last* client channel was bound again — i.e.
    /// every survivor had re-dialed the promoted notifier and its hello
    /// was served. `None` if some channel never recovered (the session
    /// will also have failed to converge).
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
    /// Live WAL size (bytes) when the session ends: the last snapshot
    /// and the records after it.
    pub wal_live_bytes: u64,
    /// Snapshot compactions performed.
    pub snapshot_compactions: u64,
    /// Write amplification: framed WAL bytes per byte of op payload.
    pub wal_amplification: f64,
    /// Frames the notifier dropped because their connection was dead.
    pub stale_drops: u64,
}

impl FailoverReport {
    /// Recovery time (µs), crash to the last channel bound again; `None`
    /// while any channel is still unbound.
    pub fn recovery_us(&self) -> Option<u64> {
        self.recovered_at_us
            .map(|t| t.saturating_sub(self.crash_at_us))
    }
}

/// Result of a completed session.
#[derive(Debug, Clone, Default)]
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

/// Run a configured session to quiescence and report. A session with a
/// fault plan, outages or a standby runs over connections.
pub fn run_session(cfg: &SessionConfig) -> SessionReport {
    assert!(
        cfg.workload.n_sites >= 2,
        "sessions need at least two clients"
    );
    assert!(
        cfg.crash.is_none() || cfg.standby,
        "a notifier crash plan requires the warm standby (cfg.standby)"
    );
    if cfg.fault_plan.is_some() || !cfg.disconnects.is_empty() || cfg.standby {
        return crate::reliable::run_connections(cfg, false).0;
    }
    let scripts = cfg.workload.generate();
    match cfg.deployment {
        Deployment::StarCvc => run_star(cfg, &scripts),
        Deployment::MeshFullVc | Deployment::RelayStar => run_baseline(cfg, &scripts),
    }
}

/// The simulated network of a session over `nodes`, every edit of
/// script `i` scheduled as a timer (tagged with its index) on node
/// `first_site + i`.
pub(crate) fn network<M: WireSize + Clone, N>(
    cfg: &SessionConfig,
    nodes: impl IntoIterator<Item = N>,
    scripts: &[Vec<ScheduledEdit>],
    first_site: NodeId,
) -> Simulator<M, N> {
    let mut sim = Simulator::new(cfg.latency, cfg.net_seed);
    sim.set_default_bandwidth(cfg.bandwidth_bytes_per_sec);
    sim.record_deliveries(cfg.record_deliveries);
    for node in nodes {
        sim.add_node(node);
    }
    for (i, script) in scripts.iter().enumerate() {
        for (k, edit) in script.iter().enumerate() {
            sim.schedule_timer(first_site + i, edit.at, k as u64);
        }
    }
    sim
}

/// The paper's star as a timed chooser over a [`StarWorld`] (see the
/// module docs).
fn run_star(cfg: &SessionConfig, scripts: &[Vec<ScheduledEdit>]) -> SessionReport {
    let mut world = StarWorld::for_session(cfg);
    let mut sim: Simulator<Payload, ()> = network(cfg, vec![(); scripts.len() + 1], scripts, 1);
    while let Some(fired) = sim.step(SimTime(u64::MAX)) {
        world.set_now(sim.now().as_micros());
        let site = match fired {
            Fired::Timer(node, tag) => {
                let site = SiteId(node as u32);
                let _ = world.perform(site, &scripts[node - 1][tag as usize].intent);
                site
            }
            Fired::Deliver(from, 0, msg) => {
                // The channel, not the envelope, names the sender; a
                // rejected input evicts it and sheds its channel.
                match world.receive_up(from - 1, &msg) {
                    // The hub's sends in the order it produced them, one
                    // per channel: the broadcasts in destination order,
                    // then the ack. That order is the latency draws'.
                    // Channel `i` is node `i + 1`'s for the whole session.
                    Ok(Some(out)) => {
                        for (ch, payload) in world.pop_sends(&out) {
                            sim.inject_send(0, ch + 1, payload);
                        }
                    }
                    Ok(None) => {}
                    Err(e) => eprintln!("notifier rejected input from node {from}: {e}"),
                }
                continue;
            }
            // Datagram channels never reset.
            Fired::Reset(..) => continue,
            Fired::Deliver(_, to, msg) => {
                let site = SiteId(to as u32);
                // A refused message was counted and dropped: a duplicate is
                // harmless, a gap shows up as a diverged report.
                match world.receive_down(site, &msg) {
                    Ok(_) if cfg.auto_gc => _ = world.gc(site),
                    Ok(_) => {}
                    Err(e) => {
                        eprintln!("{site} rejected server op: {e}");
                        continue;
                    }
                }
                // Quiet clients still owe the notifier a periodic bare ack,
                // or their frozen watermarks would starve its collector.
                world.take_pending_ack(site);
                site
            }
        };
        while let Some(payload) = world.pop_up(site) {
            sim.inject_send(site.0 as usize, 0, payload);
        }
    }

    SessionReport::harvest(&world, cfg).finish(cfg, &sim)
}

/// The full-vector baselines, as a timed chooser too: a mesh site sends
/// each op it generates to every peer — in relay-star, to the relay at
/// node 0, which forwards it to every other site — counting what each
/// node puts on the wire.
fn run_baseline(cfg: &SessionConfig, scripts: &[Vec<ScheduledEdit>]) -> SessionReport {
    let n = scripts.len();
    let first = usize::from(cfg.deployment == Deployment::RelayStar);
    let new_site = |i| MeshSite::new(SiteId::from_client_index(i), n, &cfg.initial_doc);
    let mut sites: Vec<MeshSite> = (0..n).map(new_site).collect();
    // Per node: what it sent, and the widest stamp among it.
    let mut wire = vec![(SiteMetrics::new(), 0); n + first];
    let mut sim: Simulator<EditorMsg, ()> = network(cfg, vec![(); n + first], scripts, first);
    while let Some(fired) = sim.step(SimTime(u64::MAX)) {
        let (from, skip, msgs) = match fired {
            Fired::Timer(node, tag) => {
                let ops = scripts[node - first][tag as usize]
                    .intent
                    .apply_to_mesh(&mut sites[node - first]);
                (node, node, ops.into_iter().map(EditorMsg::MeshOp).collect())
            }
            Fired::Deliver(site, 0, msg) if first == 1 => (0, site, vec![msg]),
            Fired::Deliver(_, to, EditorMsg::MeshOp(m)) => {
                let site = &mut sites[to - first];
                site.on_remote(m);
                if cfg.auto_gc {
                    site.gc();
                }
                continue;
            }
            // A message kind a site cannot process — impossible in a
            // well-formed session. Drop it rather than crash; the
            // sender's stream checks will catch any real gap.
            Fired::Deliver(_, _, other) => {
                eprintln!("dropping incompatible message {other:?}");
                continue;
            }
            Fired::Reset(..) => continue,
        };
        let peers: Vec<NodeId> = match from {
            0 if first == 1 => (1..=n).filter(|&p| p != skip).collect(),
            _ if first == 1 => vec![0],
            _ => (0..n).filter(|&p| p != skip).collect(),
        };
        let (sent, widest) = &mut wire[from];
        for msg in msgs {
            let c = peers.len() as u64;
            sent.messages_sent += c;
            sent.bytes_sent += msg.wire_bytes() as u64 * c;
            sent.stamp_bytes_sent += msg.stamp_bytes() as u64 * c;
            sent.stamp_integers_sent += msg.stamp_integers() as u64 * c;
            *widest = (*widest).max(msg.stamp_integers());
            for &p in &peers {
                sim.inject_send(from, p, msg.clone());
            }
        }
    }

    let mut r = SessionReport {
        centre_metrics: (first == 1).then_some(wire[0].0),
        max_stamp_integers: wire.iter().map(|w| w.1).max().unwrap_or(0),
        ..SessionReport::default()
    };
    for (site, (sent, _)) in sites.iter().zip(&wire[first..]) {
        assert_eq!(site.pending_len(), 0, "ops stuck awaiting causality");
        let mut m = *site.metrics();
        m += *sent;
        r.client_metrics.push(m);
        r.final_docs.push(site.doc());
        r.max_history_len = r.max_history_len.max(site.history_len());
    }
    // Structural audit for tombstone replicas: not just the visible text —
    // the full models (every cell ever inserted, dead or alive) must be
    // identical, which pins down intention preservation at the character
    // level (each insert contributes exactly one cell everywhere; a delete
    // kills the same cell everywhere).
    assert!(
        sites.windows(2).all(|w| w[0].model() == w[1].model()),
        "visible texts may agree while models diverge — structural audit failed"
    );
    r.finish(cfg, &sim)
}

impl SessionReport {
    /// A star session's report at quiescence, harvested from its world:
    /// the notifier's document first, then each seated replica's, with
    /// their metrics, history lengths and (when on) flight recorders.
    pub(crate) fn harvest(world: &StarWorld, cfg: &SessionConfig) -> Self {
        let (nf, traced) = (world.notifier(), cfg.flight_recorder);
        let mut r = SessionReport {
            final_docs: vec![nf.doc()],
            centre_metrics: Some(*nf.metrics()),
            max_stamp_integers: 2,
            max_history_len: nf.history().len(),
            ..SessionReport::default()
        };
        r.flight_traces
            .extend(traced.then(|| (SiteId(0), nf.recorder().events())));
        for site in (0..cfg.workload.n_sites).map(SiteId::from_client_index) {
            if let Some(c) = world.client(site) {
                r.client_metrics.push(*c.metrics());
                r.final_docs.push(c.doc());
                r.max_history_len = r.max_history_len.max(c.history().len());
                r.flight_traces
                    .extend(traced.then(|| (site, c.recorder().events())));
            } else if let Some(c) = world.composing(site) {
                assert!(
                    !nf.is_active(site) || !c.has_outstanding() && !c.has_buffered(),
                    "composing member left unflushed work at quiescence"
                );
                r.client_metrics.push(*c.metrics());
                r.final_docs.push(c.doc().to_owned());
            }
        }
        r
    }

    /// Complete a simulated session's report with what every driver
    /// reports the same way: its configuration, the verdict over the
    /// harvested documents (the centre's first, when it keeps one) and the
    /// network's tallies at quiescence.
    pub(crate) fn finish<M: WireSize + Clone, N>(
        mut self,
        cfg: &SessionConfig,
        sim: &Simulator<M, N>,
    ) -> Self {
        self.deployment = cfg.deployment;
        self.n_clients = cfg.workload.n_sites;
        self.converged = self.final_docs.windows(2).all(|w| w[0] == w[1]);
        self.final_doc = self.final_docs.last().cloned().unwrap_or_default();
        self.quiesced_at = sim.now();
        self.net = sim.total_stats();
        self.deliveries = sim.deliveries().to_vec();
        self.fault_stats = sim.fault_stats();
        self
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

    /// On the plain tier too the channel, not the envelope, names the
    /// sender: channel 0 (site 1's) carrying what would be site 2's valid
    /// first op gets site 1 quarantined and leaves site 2 a member.
    #[test]
    fn forged_origin_quarantines_the_channel_it_arrived_on() {
        let core = NotifierCore::new(Notifier::new(3, "ab"), None, None);
        let mut world = StarWorld::new(core);
        let forged = Client::new(SiteId(2), "ab").insert(0, "F");
        let forged = Payload::encode(&EditorMsg::ClientOp(forged));
        assert!(world.receive_up(0, &forged).is_err());
        let n = world.notifier();
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
