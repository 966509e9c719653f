//! Multi-notifier federation: shard the star, relay between the stars.
//!
//! The paper's notifier collapses causality for *its* clients to two
//! integers — but a single notifier is also a single machine. This module
//! scales the deployment out: `K` independent [`crate::reliable`] stars
//! (one notifier + its local clients each), stitched together by a
//! cross-shard **relay tier**:
//!
//! ```text
//!   shard 0 star          relay bus           shard 1 star
//!   c c c                (wire frames,        c c c
//!    \|/                  go-back-N)           \|/
//!   notifier 0  ◀━━━━━━━━━━━━━━━━━━━━━━━━▶  notifier 1
//!      │ mesh replica 0          mesh replica 1 │
//! ```
//!
//! Each notifier owns a [`MeshSite`] replica — the classical full-vector
//! REDUCE baseline — at mesh site = its shard index. Every operation the
//! notifier integrates is decomposed into per-character mesh ops, applied
//! to the local replica, and queued as [`RelayOpMsg`] frames for every
//! peer shard. Inbound frames run the mesh's vector-clock transformation
//! and each visible effect is re-injected into the star through a
//! permanently-fenced **virtual relay client** slot, stamped so that
//! formula (7) finds zero concurrency (the cross-shard transformation
//! already happened in the mesh tier — the star tier just executes). The
//! compressed clock thus stays 2 integers wide on every client wire; only
//! the K-wide relay tier pays vector-clock freight, and K (shards) is far
//! smaller than N (clients).
//!
//! The federation driver ([`run_federation`]) steps all `K` shard
//! simulators **in parallel** (`std::thread::scope`) through lock-step
//! virtual-time windows; at each window barrier it exchanges relay frames
//! over a faultable, checksummed, go-back-N [`RelayBus`] — single-threaded
//! and in shard order, so every run is deterministic. Convergence of every
//! replica (notifier docs, client docs, mesh replicas, warm standbys) is
//! checked at the end, and the causal order of the relay tier is verified
//! against the ground-truth Definition-1 [`CausalityOracle`]: if frame `a`
//! happened-before frame `b`, no shard may have integrated `b` first.
//!
//! Per-shard notifier **failover during federation** is out of scope for
//! this tier (a crash plan on a shard config is rejected): promoting a
//! standby mid-relay would need relay-sequence handoff in the WAL, which
//! DESIGN §16 leaves as future work. The WAL/standby machinery itself
//! runs fine per shard — frames a dead notifier never relayed are simply
//! re-relayed by the go-back-N bus once it answers again.

use crate::audit::audit_streams;
use crate::frame::frame_checksum;
use crate::mesh::MeshSite;
use crate::msg::{decode_payload, EditorMsg, MeshOpMsg, Payload, RelayAckMsg, RelayOpMsg};
use crate::recorder::{EventKind, FlightEvent};
use crate::reliable::{build_shard_sim, RobustNotifier, ShardSim};
use crate::session::{ClientMode, Deployment, SessionConfig};
use crate::trace::TraceAssembler;
use cvc_core::oracle::{CausalityOracle, OpRef};
use cvc_core::site::SiteId;
use cvc_sim::latency::LatencyModel;
use cvc_sim::time::SimTime;
use cvc_sim::wire::{WireEncode, WireSize};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Per-shard relay state, owned by the shard's notifier (boxed behind
/// `RobustNotifier::relay`; `None` on non-federated notifiers).
#[derive(Debug)]
pub(crate) struct RelayState {
    /// This shard's index (`0..n_shards`), also its mesh site.
    pub(crate) shard: u32,
    /// Total shards in the federation.
    pub(crate) n_shards: u32,
    /// The shard's mesh replica: full-vector causal delivery and
    /// transformation for the cross-shard tier.
    pub(crate) mesh: MeshSite,
    /// The virtual relay client's site id (client index `n_local`).
    pub(crate) virtual_site: SiteId,
    /// `T[2]` of the virtual client: one per injected operation, FIFO.
    pub(crate) virtual_seq: u64,
    /// Next outbound relay sequence (1-based, shared by all peers).
    pub(crate) next_out_seq: u64,
    /// Next expected inbound sequence per origin shard (1-based; own
    /// slot unused).
    pub(crate) next_in_seq: Vec<u64>,
    /// Frames queued for the peer shards since the last barrier.
    pub(crate) outbox: Vec<RelayOpMsg>,
    /// Mesh operations actually integrated since the last barrier, as
    /// `(origin shard, origin mesh seq)` — the driver drains this to feed
    /// the causality oracle with *real* execution order (a causally
    /// pending frame buffers in the mesh and is logged only when it
    /// finally executes).
    pub(crate) integration_log: Vec<(u32, u64)>,
    /// Frames queued outbound over the federation's lifetime.
    pub(crate) relayed_out: u64,
    /// In-order frames accepted from peers.
    pub(crate) relayed_in: u64,
    /// Duplicate frames dropped (go-back-N redelivery below the cursor).
    pub(crate) relay_dup_drops: u64,
    /// Out-of-order frames dropped (gap; the bus re-sends in order).
    pub(crate) relay_gap_drops: u64,
    /// Hostile frames quarantined: impossible shard ids, or payloads the
    /// mesh's own ingress guards rejected.
    pub(crate) relay_hostile_drops: u64,
    /// Sum of per-frame relay hop latencies (µs), over accepted frames.
    pub(crate) hop_us_total: u64,
    /// Worst single relay hop (µs).
    pub(crate) hop_us_max: u64,
}

impl RelayState {
    /// Relay state for shard `shard` of `n_shards`, whose star hosts
    /// `n_local` real clients (the virtual relay client is slot
    /// `n_local`). `initial` is the shared initial document.
    pub(crate) fn new(shard: u32, n_shards: u32, n_local: usize, initial: &str) -> Self {
        RelayState {
            shard,
            n_shards,
            mesh: MeshSite::new(
                SiteId::from_client_index(shard as usize),
                n_shards as usize,
                initial,
            ),
            virtual_site: SiteId::from_client_index(n_local),
            virtual_seq: 0,
            next_out_seq: 1,
            next_in_seq: vec![1; n_shards as usize],
            outbox: Vec::new(),
            integration_log: Vec::new(),
            relayed_out: 0,
            relayed_in: 0,
            relay_dup_drops: 0,
            relay_gap_drops: 0,
            relay_hostile_drops: 0,
            hop_us_total: 0,
            hop_us_max: 0,
        }
    }

    /// Queue one locally-integrated mesh op for relay to every peer.
    pub(crate) fn queue_out(&mut self, inner: MeshOpMsg, now_us: u64) {
        if self.n_shards == 1 {
            // A singleton federation has no peers: the mesh mirror stays
            // warm (the caller already applied the op) but nothing ships.
            return;
        }
        let seq = self.next_out_seq;
        self.next_out_seq += 1;
        self.relayed_out += 1;
        self.outbox.push(RelayOpMsg {
            origin_shard: self.shard,
            seq,
            sent_at_us: now_us,
            inner,
        });
    }
}

/// Deterministic assignment of clients to shards: contiguous blocks, the
/// per-document / per-region sharding of a real deployment (clients of
/// one document land on one notifier; here the global client index space
/// is split into `K` equal regions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardMap {
    /// Number of shards (`K`).
    pub n_shards: u32,
    /// Total clients across the federation.
    pub n_clients: usize,
}

impl ShardMap {
    /// A map splitting `n_clients` over `n_shards` contiguous blocks.
    /// Shards `< n_clients % n_shards` get one extra client.
    pub fn new(n_shards: u32, n_clients: usize) -> Self {
        assert!(n_shards >= 1, "at least one shard");
        ShardMap {
            n_shards,
            n_clients,
        }
    }

    /// Clients hosted by `shard`.
    pub fn n_locals(&self, shard: u32) -> usize {
        let k = self.n_shards as usize;
        let base = self.n_clients / k;
        let extra = self.n_clients % k;
        base + usize::from((shard as usize) < extra)
    }

    /// The shard hosting global client index `client`.
    pub fn shard_of(&self, client: usize) -> u32 {
        assert!(client < self.n_clients, "client index in range");
        let k = self.n_shards as usize;
        let base = self.n_clients / k;
        let extra = self.n_clients % k;
        // The first `extra` shards hold `base + 1` clients each.
        let fat = extra * (base + 1);
        if client < fat {
            (client / (base + 1)) as u32
        } else {
            (extra + (client - fat) / base.max(1)) as u32
        }
    }
}

/// Seeded faults for the relay bus (the cross-shard links). Same spirit
/// as [`cvc_sim::fault::FaultPlan`], but applied per delivery attempt at
/// the federation barrier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RelayFaultPlan {
    /// Probability a delivery attempt is dropped.
    pub drop: f64,
    /// Probability a delivery attempt has one bit flipped.
    pub corrupt: f64,
    /// RNG seed for the fault stream.
    pub seed: u64,
}

impl RelayFaultPlan {
    /// No faults.
    pub const NONE: RelayFaultPlan = RelayFaultPlan {
        drop: 0.0,
        corrupt: 0.0,
        seed: 0,
    };
}

/// Counters of the relay bus's life.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RelayBusStats {
    /// Relay operations enqueued (one per op per destination shard).
    pub frames_sent: u64,
    /// Physical bus frames enqueued — one compound (or bare) wire frame
    /// per `(origin, dest, barrier)` with traffic, so coalescing pushes
    /// this below `frames_sent`.
    pub physical_frames: u64,
    /// Encoded frame bytes enqueued.
    pub bytes_sent: u64,
    /// Relay operations delivered intact and in sequence-eligible order.
    pub deliveries: u64,
    /// Delivery attempts beyond a frame's first (go-back-N redelivery).
    pub redeliveries: u64,
    /// Attempts lost to the seeded drop fault.
    pub drops: u64,
    /// Attempts discarded at the checksum / decode gate after the seeded
    /// corruption fault.
    pub corrupt_drops: u64,
    /// Ack frames carried backwards (one per ordered pair per barrier
    /// with traffic).
    pub acks: u64,
}

impl RelayBusStats {
    /// Physical bus frames per relayed operation: `1.0` means every op
    /// shipped alone; compound coalescing drives this toward
    /// `1 / batch`. Zero when nothing was relayed.
    pub fn frames_per_op(&self) -> f64 {
        if self.frames_sent == 0 {
            0.0
        } else {
            self.physical_frames as f64 / self.frames_sent as f64
        }
    }
}

/// One in-flight frame on an ordered shard pair's queue — a contiguous
/// run of relay ops ending at `last_seq` under one wire image (a bare
/// `RelayOp` when the run is a singleton, a `Compound` otherwise).
#[derive(Debug, Clone)]
struct BusFrame {
    last_seq: u64,
    bytes: Vec<u8>,
    checksum: u32,
    attempts: u32,
}

/// The cross-shard transport: per ordered pair `(origin, dest)` a FIFO of
/// **wire-encoded** [`EditorMsg::RelayOp`] frames with the frame codec's
/// [`frame_checksum`] taken at send time. Every barrier the whole unacked
/// window is redelivered in order (go-back-N); the destination notifier's
/// in-order cursor, carried back as a wire-encoded [`EditorMsg::RelayAck`],
/// advances the queue head. Seeded drop/corrupt faults apply per attempt,
/// so a lossy federation makes progress exactly as fast as its redelivery
/// cadence — and a corrupted frame can never reach a notifier: the
/// checksum gate and the typed wire decoder both stand in front of it.
#[derive(Debug)]
pub struct RelayBus {
    k: usize,
    queues: Vec<VecDeque<BusFrame>>,
    faults: RelayFaultPlan,
    rng: SmallRng,
    stats: RelayBusStats,
}

impl RelayBus {
    /// A bus for `k` shards with the given fault plan.
    pub fn new(k: usize, faults: RelayFaultPlan) -> Self {
        RelayBus {
            k,
            queues: vec![VecDeque::new(); k * k],
            faults,
            rng: SmallRng::seed_from_u64(faults.seed ^ 0xB05_BA11),
            stats: RelayBusStats::default(),
        }
    }

    fn idx(&self, origin: usize, dest: usize) -> usize {
        origin * self.k + dest
    }

    /// Enqueue one frame from `origin` for every other shard.
    pub fn send(&mut self, origin: usize, frame: &RelayOpMsg) {
        self.send_batch(origin, std::slice::from_ref(frame));
    }

    /// Enqueue one barrier's worth of frames from `origin` for every
    /// other shard as a **single** physical bus frame: a bare `RelayOp`
    /// for a singleton, a compound frame for a run. The batch must be
    /// the origin's FIFO outbox (consecutive seqs). The compound is
    /// wire-encoded **once**; each pair queue shares the byte image.
    pub fn send_batch(&mut self, origin: usize, frames: &[RelayOpMsg]) {
        let (Some(first), Some(last)) = (frames.first(), frames.last()) else {
            return;
        };
        debug_assert!(
            frames.windows(2).all(|w| w[1].seq == w[0].seq + 1),
            "relay batches are contiguous seq runs"
        );
        let msg = if frames.len() == 1 {
            EditorMsg::RelayOp(first.clone())
        } else {
            EditorMsg::Compound(frames.iter().cloned().map(EditorMsg::RelayOp).collect())
        };
        let mut bytes = Vec::with_capacity(msg.wire_bytes());
        msg.encode(&mut bytes);
        let checksum = frame_checksum(&[&bytes]);
        for dest in 0..self.k {
            if dest == origin {
                continue;
            }
            self.stats.frames_sent += frames.len() as u64;
            self.stats.physical_frames += 1;
            self.stats.bytes_sent += bytes.len() as u64;
            let i = self.idx(origin, dest);
            self.queues[i].push_back(BusFrame {
                last_seq: last.seq,
                bytes: bytes.clone(),
                checksum,
                attempts: 0,
            });
        }
    }

    /// One barrier's delivery attempt for the pair `(origin, dest)`:
    /// every unacked frame, in order, through the fault plan and the
    /// checksum/decoder gate. Returns the frames that survived.
    pub fn deliver(&mut self, origin: usize, dest: usize) -> Vec<RelayOpMsg> {
        let i = self.idx(origin, dest);
        let mut out = Vec::new();
        // Split borrows: the queue, the RNG and the stats are disjoint
        // fields, but `self.queues[i]` pins `self`, so take the queue out.
        let mut q = std::mem::take(&mut self.queues[i]);
        for f in q.iter_mut() {
            f.attempts += 1;
            if f.attempts > 1 {
                self.stats.redeliveries += 1;
            }
            if self.faults.drop > 0.0 && self.rng.gen::<f64>() < self.faults.drop {
                self.stats.drops += 1;
                continue;
            }
            let mut bytes = f.bytes.clone();
            if self.faults.corrupt > 0.0 && self.rng.gen::<f64>() < self.faults.corrupt {
                let at = self.rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << self.rng.gen_range(0..8u8);
            }
            if frame_checksum(&[&bytes]) != f.checksum {
                self.stats.corrupt_drops += 1;
                continue;
            }
            // A frame that does not decode, or carries (or smuggles in a
            // compound) anything but relay ops, is line noise the checksum
            // missed: drop the whole physical frame.
            let mut msgs = Vec::new();
            let intact = decode_payload([&bytes, &[]], &mut msgs).is_ok()
                && msgs.iter().all(|m| matches!(m, EditorMsg::RelayOp(_)));
            if intact {
                self.stats.deliveries += msgs.len() as u64;
                out.extend(msgs.into_iter().filter_map(|m| match m {
                    EditorMsg::RelayOp(x) => Some(x),
                    _ => None,
                }));
            } else {
                self.stats.corrupt_drops += 1;
            }
        }
        self.queues[i] = q;
        out
    }

    /// Apply a destination's cumulative ack for the pair: drop every
    /// frame wholly below `ack.received` (its next-expected cursor). A
    /// compound frame straddling the cursor stays queued and redelivers
    /// in full — the destination's in-order cursor absorbs the
    /// already-integrated prefix as duplicate drops. The ack itself
    /// rides the wire format, so the backward path is typed too.
    pub fn accept_ack(&mut self, dest: usize, ack: &RelayAckMsg) {
        let wire = Payload::encode(&EditorMsg::RelayAck(*ack));
        let mut msgs = Vec::new();
        if decode_payload(wire.chunks(), &mut msgs).is_err() {
            return;
        }
        let [EditorMsg::RelayAck(back)] = &msgs[..] else {
            return;
        };
        self.stats.acks += 1;
        let i = self.idx(back.origin_shard as usize, dest);
        let q = &mut self.queues[i];
        while q.front().is_some_and(|f| f.last_seq < back.received) {
            q.pop_front();
        }
    }

    /// No frames in flight on any pair.
    pub fn is_empty(&self) -> bool {
        self.queues.iter().all(|q| q.is_empty())
    }

    /// Lifetime counters.
    pub fn stats(&self) -> RelayBusStats {
        self.stats
    }
}

/// Configuration of a federated (multi-notifier) session.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Number of shards (`K >= 1`).
    pub n_shards: u32,
    /// Real clients per shard.
    pub clients_per_shard: usize,
    /// Scripted edits per client.
    pub ops_per_client: usize,
    /// Mean think time between a client's edits (µs).
    pub mean_gap_us: u64,
    /// Shared initial document.
    pub initial_doc: String,
    /// Master seed (per-shard workload/net seeds derive from it).
    pub seed: u64,
    /// Intra-shard link latency model.
    pub latency: LatencyModel,
    /// Lock-step window between federation barriers (µs).
    pub window_us: u64,
    /// Run each shard's WAL + warm standby.
    pub standby: bool,
    /// Arm every site's flight recorder (enables trace assembly and the
    /// causality audit per shard).
    pub flight_recorder: bool,
    /// Notifier-side history GC.
    pub auto_gc: bool,
    /// Faults on the cross-shard relay bus.
    pub faults: RelayFaultPlan,
}

impl FederationConfig {
    /// A small deterministic federation.
    pub fn small(n_shards: u32, clients_per_shard: usize, seed: u64) -> Self {
        FederationConfig {
            n_shards,
            clients_per_shard,
            ops_per_client: 8,
            mean_gap_us: 30_000,
            initial_doc: "the quick brown fox jumps over the lazy dog".into(),
            seed,
            latency: LatencyModel::internet(),
            window_us: 25_000,
            standby: false,
            flight_recorder: false,
            auto_gc: true,
            faults: RelayFaultPlan::NONE,
        }
    }

    /// The session config for one shard's star.
    fn shard_session(&self, shard: u32) -> SessionConfig {
        let mut sc = SessionConfig::small(
            Deployment::StarCvc,
            self.clients_per_shard,
            self.seed
                .wrapping_mul(131)
                .wrapping_add(u64::from(shard) + 1),
        );
        sc.client_mode = ClientMode::Streaming;
        sc.initial_doc = self.initial_doc.clone();
        sc.latency = self.latency;
        sc.standby = self.standby;
        sc.auto_gc = self.auto_gc;
        sc.flight_recorder = self.flight_recorder;
        sc.workload.ops_per_site = self.ops_per_client;
        sc.workload.mean_gap_us = self.mean_gap_us;
        if self.flight_recorder {
            // A shard's notifier also executes every *peer* shard's ops
            // (injected per character through the virtual client), so the
            // rings must hold the federation-wide op volume un-wrapped.
            // The star-session worst-case formula does not fit here — its
            // 512-checks-per-op scan constant is sized for a full-fan-in
            // notifier and would make large federations quadratic in N —
            // so size directly: a client records ~3 events per federation
            // op it executes plus ~10 per own op; the notifier records the
            // per-destination broadcast fan-out plus the formula-(7)
            // transform stream, whose window ack-driven GC (helped by the
            // relay keepalive) holds near the in-flight set — 96× covers
            // the RTT ack lag. `fedwide` already carries 4× headroom for
            // the per-character decomposition of multi-char inserts.
            let fedwide = self.ops_per_client * self.clients_per_shard * self.n_shards as usize * 4;
            sc.flight_recorder_capacity = 4 * fedwide + 1024;
            sc.flight_recorder_notifier_capacity =
                fedwide * (self.clients_per_shard + 2) + 96 * fedwide + 1024;
        }
        sc
    }
}

/// One shard's slice of the federation report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardReport {
    /// Shard index.
    pub shard: u32,
    /// Real clients hosted.
    pub n_clients: usize,
    /// Operations this shard's notifier integrated (local + injected).
    pub ops_integrated: u64,
    /// Relay frames queued outbound.
    pub relayed_out: u64,
    /// In-order relay frames accepted.
    pub relayed_in: u64,
    /// Duplicate relay frames dropped.
    pub relay_dup_drops: u64,
    /// Out-of-order relay frames dropped (redelivered later in order).
    pub relay_gap_drops: u64,
    /// Hostile relay frames quarantined.
    pub relay_hostile_drops: u64,
    /// Mean accepted relay hop latency (µs).
    pub hop_us_mean: f64,
    /// Worst accepted relay hop latency (µs).
    pub hop_us_max: u64,
    /// WAL appends (0 without standby).
    pub wal_appends: u64,
    /// WAL bytes appended (0 without standby).
    pub wal_bytes: u64,
    /// WAL write amplification: framed bytes appended per byte of
    /// operation payload (the PR-7 metric, now with packed ack-frontier
    /// records eliding 15 of every 16 per-ack appends).
    pub wal_amplification: f64,
    /// Incomplete-and-unexplained traces (0 without flight recorders; the
    /// federation gate requires 0 with them).
    pub dangling_traces: usize,
    /// The per-shard causality audit replay passed (vacuously true
    /// without flight recorders).
    pub audit_ok: bool,
}

/// Outcome of a federated session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FederationReport {
    /// Shards run.
    pub n_shards: u32,
    /// Real clients across all shards.
    pub n_clients_total: usize,
    /// Every replica of every kind ended on the same document.
    pub converged: bool,
    /// That document.
    pub final_doc: String,
    /// Client-generated operations integrated federation-wide.
    pub local_ops_total: u64,
    /// Distinct relay frames generated (before per-destination fan-out).
    pub relay_frames_total: u64,
    /// Relay bus counters.
    pub bus: RelayBusStats,
    /// Causal-order checks run against the Definition-1 oracle.
    pub oracle_checks: u64,
    /// Checks that failed (an effect integrated before its cause).
    pub oracle_violations: u64,
    /// Wall-clock time of the parallel stepping + barrier loop (µs).
    pub wall_us: u64,
    /// Virtual time at which the federation quiesced (µs).
    pub virtual_us: u64,
    /// Barrier rounds run.
    pub rounds: u64,
    /// Aggregate throughput: client-generated ops per wall-clock second.
    pub ops_per_sec: f64,
    /// Per-shard details.
    pub shards: Vec<ShardReport>,
}

/// Step every shard to `deadline` — in parallel when there is more than
/// one. `drain` runs each simulator to full quiescence instead.
fn step_all(shards: &mut [ShardSim], deadline: SimTime, drain: bool) {
    let step = |sh: &mut ShardSim| {
        if drain {
            sh.sim.run();
        } else {
            sh.sim.run_until(deadline);
        }
    };
    match shards {
        [] => {}
        [only] => step(only),
        many => {
            std::thread::scope(|scope| {
                for sh in many.iter_mut() {
                    scope.spawn(|| step(sh));
                }
            });
        }
    }
}

/// Oracle bookkeeping for the relay tier: each relay frame is one
/// operation, generated at its origin shard's mesh site and executed at a
/// peer shard when (and only when) that shard's mesh actually integrates
/// it.
struct RelayOracle {
    oracle: CausalityOracle,
    /// `(origin shard, relay seq) → op`.
    refs: HashMap<(u32, u64), OpRef>,
    /// Per shard, the ops it generated or integrated, in that order.
    execs: Vec<Vec<OpRef>>,
}

impl RelayOracle {
    fn new(k: usize) -> Self {
        RelayOracle {
            oracle: CausalityOracle::new(),
            refs: HashMap::new(),
            execs: vec![Vec::new(); k],
        }
    }

    fn generated(&mut self, shard: usize, seq: u64) {
        let r = self.oracle.record_generation(
            SiteId::from_client_index(shard),
            format!("shard{shard}#{seq}"),
        );
        self.refs.insert((shard as u32, seq), r);
        self.execs[shard].push(r);
    }

    fn executed(&mut self, at: usize, origin_shard: u32, mesh_seq: u64) {
        // Mesh per-origin seqs are 1-based vector-clock counts; the relay
        // frame that carried mesh op `s` of a shard is that shard's
        // `s`-th frame.
        if let Some(&r) = self.refs.get(&(origin_shard, mesh_seq)) {
            self.oracle
                .record_execution(SiteId::from_client_index(at), r);
            self.execs[at].push(r);
        }
    }

    /// Definition-1 check over every shard's integration order: for any
    /// two ops a shard saw, the later one must not happened-before the
    /// earlier one. Bounded to a sliding window per shard so the check
    /// stays O(ops · window) on big federations.
    fn check(&self) -> (u64, u64) {
        const WINDOW: usize = 64;
        let mut checks = 0u64;
        let mut violations = 0u64;
        for seq in &self.execs {
            for (i, &earlier) in seq.iter().enumerate() {
                for &later in seq.iter().skip(i + 1).take(WINDOW) {
                    if earlier == later {
                        continue;
                    }
                    checks += 1;
                    if self.oracle.happened_before(later, earlier) {
                        violations += 1;
                    }
                }
            }
        }
        (checks, violations)
    }
}

/// Reconstruct the virtual relay client's event stream from the shard
/// notifier's ring, for the causality audit: every broadcast the notifier
/// addressed to the virtual slot becomes an `Execute` (the virtual client
/// "knows" everything it was sent — that is exactly its `T[1]` stamp),
/// and every relay injection becomes its `Generate`. The audit can then
/// linearise injected operations with the same rules as real clients.
fn synthesize_virtual_stream(
    notifier_events: &[FlightEvent],
    virtual_site: SiteId,
) -> (SiteId, Vec<FlightEvent>) {
    let mut evs = Vec::new();
    for ev in notifier_events {
        match ev.kind {
            EventKind::Broadcast if ev.a == u64::from(virtual_site.0) => {
                let mut e = FlightEvent::new(EventKind::Execute)
                    .with_op(crate::recorder::NO_SITE, ev.stamp.get(1));
                e.seq = ev.seq;
                e.recorded_at = ev.recorded_at;
                evs.push(e);
            }
            EventKind::Relay if ev.op_site == virtual_site.0 => {
                let mut e = FlightEvent::new(EventKind::Generate).with_op(ev.op_site, ev.op_seq);
                e.seq = ev.seq;
                e.recorded_at = ev.recorded_at;
                evs.push(e);
            }
            _ => {}
        }
    }
    (virtual_site, evs)
}

/// Margin past the last scripted edit before the driver switches to
/// drain-to-quiescence rounds (lets in-flight intra-shard traffic land).
const DRAIN_MARGIN_US: u64 = 1_000_000;
/// Consecutive fully-idle barrier rounds required to declare the
/// federation quiesced.
const IDLE_ROUNDS: u32 = 3;
/// Hard cap on barrier rounds — a liveness backstop, far above any real
/// run (a lossy bus retries every round, so progress is geometric).
const MAX_ROUNDS: u64 = 1_000_000;

/// Run a `K`-notifier federated session to quiescence and convergence.
pub fn run_federation(cfg: &FederationConfig) -> FederationReport {
    let k = cfg.n_shards as usize;
    assert!(k >= 1, "at least one shard");
    let mut shards: Vec<ShardSim> = (0..k)
        .map(|s| {
            let sc = cfg.shard_session(s as u32);
            build_shard_sim(&sc, s as u32, cfg.n_shards, false)
        })
        .collect();
    let horizon = shards.iter().map(|s| s.last_edit_us).max().unwrap_or(0) + DRAIN_MARGIN_US;
    let window = cfg.window_us.max(1);
    let mut bus = RelayBus::new(k, cfg.faults);
    let mut orc = RelayOracle::new(k);

    let wall = Instant::now();
    let mut deadline = 0u64;
    let mut rounds = 0u64;
    let mut idle = 0u32;
    loop {
        rounds += 1;
        assert!(rounds <= MAX_ROUNDS, "federation failed to quiesce");
        let draining = deadline >= horizon;
        deadline += window;
        step_all(&mut shards, SimTime::from_micros(deadline), draining);

        // Barrier: single-threaded, in shard order — deterministic.
        let mut moved = false;
        // 1. Harvest every shard's outbox onto the bus — the whole
        // window's run as one compound frame per destination.
        for (s, shard) in shards.iter_mut().enumerate() {
            let frames = notifier(shard).take_relay_outbox();
            if frames.is_empty() {
                continue;
            }
            moved = true;
            for f in &frames {
                orc.generated(s, f.seq);
            }
            bus.send_batch(s, &frames);
        }
        // 2. Deliver each pair's unacked window; ack back the in-order
        // cursor; log real mesh integrations into the oracle.
        for (d, shard) in shards.iter_mut().enumerate() {
            for o in 0..k {
                if o == d {
                    continue;
                }
                let frames = bus.deliver(o, d);
                if frames.is_empty() {
                    continue;
                }
                moved = true;
                for m in frames {
                    shard.sim.with_node_ctx(0, |node, ctx| {
                        node.as_notifier_mut().on_relay_frame(ctx, m)
                    });
                }
                let received = shard.sim.node(0).as_notifier().relay_cursor(o as u32);
                bus.accept_ack(
                    d,
                    &RelayAckMsg {
                        origin_shard: o as u32,
                        received,
                    },
                );
            }
            for (origin_shard, mesh_seq) in notifier(shard).take_relay_integrations() {
                orc.executed(d, origin_shard, mesh_seq);
            }
            // 3. Keepalive: the virtual slot never acks on its own; let GC
            // advance past everything the notifier has sent it.
            notifier(shard).relay_keepalive();
        }

        if draining && !moved && bus.is_empty() {
            idle += 1;
            if idle >= IDLE_ROUNDS {
                break;
            }
        } else if moved {
            idle = 0;
        }
    }
    let wall_us = u64::try_from(wall.elapsed().as_micros()).unwrap_or(u64::MAX);

    let (oracle_checks, oracle_violations) = orc.check();

    // Convergence + per-shard harvest.
    let mut docs: Vec<String> = Vec::new();
    let mut local_ops_total = 0u64;
    let mut relay_frames_total = 0u64;
    let mut reports = Vec::with_capacity(k);
    for (s, sh) in shards.iter_mut().enumerate() {
        let n_local = sh.n_local;
        // Client docs and rings first (separate borrow from the notifier).
        let mut client_docs: Vec<String> = Vec::new();
        let mut rings: Vec<(SiteId, Vec<FlightEvent>)> = Vec::new();
        for i in 1..=n_local {
            let rc = sh.sim.node(i).as_client();
            assert!(rc.is_connected(), "federation clients never disconnect");
            client_docs.push(rc.inner.doc().to_owned());
            if cfg.flight_recorder {
                rings.push((rc.inner.site(), rc.inner.recorder().events()));
            }
        }
        let rn = sh.sim.node_mut(0).as_notifier_mut();
        let rel = rn.relay.as_ref().expect("federated notifier");
        let accepted = rel.relayed_in.max(1);
        let mut rep = ShardReport {
            shard: s as u32,
            n_clients: n_local,
            ops_integrated: rn.ops_integrated,
            relayed_out: rel.relayed_out,
            relayed_in: rel.relayed_in,
            relay_dup_drops: rel.relay_dup_drops,
            relay_gap_drops: rel.relay_gap_drops,
            relay_hostile_drops: rel.relay_hostile_drops,
            hop_us_mean: rel.hop_us_total as f64 / accepted as f64,
            hop_us_max: rel.hop_us_max,
            wal_appends: 0,
            wal_bytes: 0,
            wal_amplification: 0.0,
            dangling_traces: 0,
            audit_ok: true,
        };
        relay_frames_total += rel.relayed_out;
        // Local ops = everything integrated that was not a relay injection.
        local_ops_total += rn.ops_integrated - rel.virtual_seq;
        docs.push(rn.hub.notifier().doc());
        docs.push(rel.mesh.doc());
        docs.extend(client_docs);
        if let Some(wal) = rn.hub.core().wal() {
            rep.wal_appends = wal.appends();
            rep.wal_bytes = wal.bytes_appended();
            rep.wal_amplification = wal.amplification();
        }
        if let Some(sb) = rn.hub.core().standby() {
            assert!(
                sb.poisoned().is_none(),
                "shard {s} standby poisoned: {:?}",
                sb.poisoned()
            );
            docs.push(sb.notifier().doc().to_owned());
        }
        if cfg.flight_recorder {
            let notifier_ring = rn.hub.notifier().recorder().events();
            let virtual_stream = synthesize_virtual_stream(&notifier_ring, rel.virtual_site);
            let mut assembly = vec![(SiteId(0), notifier_ring)];
            assembly.extend(rings.iter().cloned());
            let set = TraceAssembler::assemble(&assembly);
            rep.dangling_traces = set.dangling().len();
            let mut audit_input = assembly;
            audit_input.push(virtual_stream);
            rep.audit_ok = audit_streams(&audit_input).is_ok();
        }
        reports.push(rep);
    }
    let final_doc = docs.first().cloned().unwrap_or_default();
    let converged = docs.iter().all(|d| *d == final_doc);
    let wall_s = (wall_us as f64 / 1e6).max(1e-9);

    FederationReport {
        n_shards: cfg.n_shards,
        n_clients_total: shards.iter().map(|s| s.n_local).sum(),
        converged,
        final_doc,
        local_ops_total,
        relay_frames_total,
        bus: bus.stats(),
        oracle_checks,
        oracle_violations,
        wall_us,
        virtual_us: deadline,
        rounds,
        ops_per_sec: local_ops_total as f64 / wall_s,
        shards: reports,
    }
}

/// Borrow a shard's notifier.
fn notifier(sh: &mut ShardSim) -> &mut RobustNotifier {
    sh.sim.node_mut(0).as_notifier_mut()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_partitions_exactly() {
        for (k, n) in [(1u32, 5usize), (2, 5), (3, 7), (4, 4), (4, 1023)] {
            let m = ShardMap::new(k, n);
            let total: usize = (0..k).map(|s| m.n_locals(s)).sum();
            assert_eq!(total, n, "k={k} n={n}");
            let mut counts = vec![0usize; k as usize];
            for c in 0..n {
                counts[m.shard_of(c) as usize] += 1;
            }
            for s in 0..k {
                assert_eq!(counts[s as usize], m.n_locals(s), "k={k} n={n} s={s}");
            }
        }
    }

    #[test]
    fn two_shard_federation_converges() {
        let mut cfg = FederationConfig::small(2, 2, 11);
        cfg.flight_recorder = true;
        cfg.standby = true;
        let rep = run_federation(&cfg);
        assert!(rep.converged, "federation diverged: {rep:?}");
        assert_eq!(rep.oracle_violations, 0);
        assert!(rep.oracle_checks > 0, "oracle saw no relay traffic");
        assert!(rep.relay_frames_total > 0, "no cross-shard relay happened");
        for sh in &rep.shards {
            assert_eq!(sh.dangling_traces, 0, "shard {} dangling", sh.shard);
            assert!(sh.audit_ok, "shard {} audit failed", sh.shard);
            assert_eq!(sh.relay_hostile_drops, 0);
        }
    }

    #[test]
    fn single_shard_federation_matches_plain_star() {
        let rep = run_federation(&FederationConfig::small(1, 3, 7));
        assert!(rep.converged);
        assert_eq!(rep.relay_frames_total, 0, "K=1 must relay nothing");
        assert_eq!(rep.bus.frames_sent, 0);
    }

    #[test]
    fn lossy_bus_federation_converges_with_exactly_once_relay() {
        // A lossy bus delays whole coalesced batches, so the faulty run's
        // interleaving — and thus its serialized document — legitimately
        // differs from a fault-free twin's. The invariants that must
        // survive loss are convergence *within* the run, zero causal
        // violations, and exactly-once relay accounting: every frame a
        // shard queued is eventually accepted by every peer exactly once
        // (go-back-N redelivery absorbed by the in-order cursor).
        let mut cfg = FederationConfig::small(2, 2, 23);
        cfg.ops_per_client = 16;
        cfg.faults = RelayFaultPlan {
            drop: 0.35,
            corrupt: 0.2,
            seed: 99,
        };
        let rep = run_federation(&cfg);
        assert!(rep.converged, "lossy federation diverged: {rep:?}");
        assert!(
            rep.bus.drops + rep.bus.corrupt_drops > 0,
            "fault plan never fired"
        );
        assert!(rep.bus.redeliveries > 0, "go-back-N never redelivered");
        assert_eq!(rep.oracle_violations, 0);
        for sh in &rep.shards {
            let peer_out: u64 = rep
                .shards
                .iter()
                .filter(|p| p.shard != sh.shard)
                .map(|p| p.relayed_out)
                .sum();
            assert_eq!(
                sh.relayed_in, peer_out,
                "shard {} must accept every peer frame exactly once",
                sh.shard
            );
        }
        assert!(
            rep.bus.frames_per_op() < 1.0,
            "coalescing must ship fewer physical frames than relay ops \
             ({} physical / {} ops)",
            rep.bus.physical_frames,
            rep.bus.frames_sent
        );
    }

    /// A well-formed relay frame for tests: `origin_shard`'s mesh site
    /// inserting one character at position 0.
    fn test_frame(origin_shard: u32, seq: u64) -> RelayOpMsg {
        RelayOpMsg {
            origin_shard,
            seq,
            sent_at_us: 5,
            inner: MeshOpMsg {
                vector: cvc_core::vector::VectorClock::new(2),
                origin: SiteId::from_client_index(origin_shard as usize % 2),
                op: cvc_ot::ttf::TtfOp::Insert {
                    pos: 0,
                    ch: 'x',
                    site: origin_shard % 2,
                },
            },
        }
    }

    #[test]
    fn bus_gates_corruption_before_the_notifier() {
        let mut bus = RelayBus::new(2, RelayFaultPlan::NONE);
        bus.send(0, &test_frame(0, 1));
        // Corrupt the queued image directly: the checksum gate must eat it.
        bus.queues[1].front_mut().unwrap().bytes[0] ^= 0xff;
        assert!(bus.deliver(0, 1).is_empty());
        assert_eq!(bus.stats().corrupt_drops, 1);
    }

    #[test]
    fn bus_coalesces_a_barrier_into_one_physical_frame() {
        let mut bus = RelayBus::new(3, RelayFaultPlan::NONE);
        let batch: Vec<RelayOpMsg> = (1..=4).map(|s| test_frame(0, s)).collect();
        bus.send_batch(0, &batch);
        let st = bus.stats();
        assert_eq!(st.frames_sent, 8, "4 ops x 2 destinations");
        assert_eq!(st.physical_frames, 2, "one compound per destination");
        assert!(st.frames_per_op() < 1.0);
        let got = bus.deliver(0, 1);
        let seqs: Vec<u64> = got.iter().map(|m| m.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4], "compound unpacks in order");
        assert_eq!(bus.stats().deliveries, 4);
    }

    #[test]
    fn ack_straddling_a_compound_redelivers_it_whole() {
        let mut bus = RelayBus::new(2, RelayFaultPlan::NONE);
        let batch: Vec<RelayOpMsg> = (1..=3).map(|s| test_frame(0, s)).collect();
        bus.send_batch(0, &batch);
        // The destination's cursor sits mid-run (next expected = 3): the
        // compound [1..3] straddles it and must stay queued whole.
        bus.accept_ack(
            1,
            &RelayAckMsg {
                origin_shard: 0,
                received: 3,
            },
        );
        let got = bus.deliver(0, 1);
        let seqs: Vec<u64> = got.iter().map(|m| m.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3], "straddled compound redelivers whole");
        // Cursor past the whole run: the frame finally leaves the queue.
        bus.accept_ack(
            1,
            &RelayAckMsg {
                origin_shard: 0,
                received: 4,
            },
        );
        assert!(bus.is_empty());
    }

    #[test]
    fn compound_smuggling_foreign_messages_is_line_noise() {
        use crate::msg::ServerAckMsg;
        let mut bus = RelayBus::new(2, RelayFaultPlan::NONE);
        // Hand-craft a compound that hides a non-relay message between
        // two legitimate relay ops, with a valid checksum.
        let msg = EditorMsg::Compound(vec![
            EditorMsg::RelayOp(test_frame(0, 1)),
            EditorMsg::ServerAck(ServerAckMsg { acked: 9 }),
            EditorMsg::RelayOp(test_frame(0, 2)),
        ]);
        let mut bytes = Vec::with_capacity(msg.wire_bytes());
        msg.encode(&mut bytes);
        let checksum = frame_checksum(&[&bytes]);
        bus.queues[1].push_back(BusFrame {
            last_seq: 2,
            bytes,
            checksum,
            attempts: 0,
        });
        assert!(bus.deliver(0, 1).is_empty(), "whole frame must drop");
        assert_eq!(bus.stats().corrupt_drops, 1);
        assert_eq!(bus.stats().deliveries, 0);
    }

    #[test]
    fn hostile_shard_ids_are_quarantined_not_panicked() {
        // A federated shard-0 notifier in a K=2 federation. Frames that
        // claim to come from itself (a reflection attack) or from shards
        // that do not exist must bump the quarantine counter and change
        // nothing else — no panic, no document edit, no mesh state.
        let cfg = FederationConfig::small(2, 2, 3);
        let mut sh = crate::reliable::build_shard_sim(&cfg.shard_session(0), 0, 2, false);
        let before = notifier(&mut sh).hub.notifier().doc();
        let hostile = [0u32, 2, 7, u32::MAX];
        for os in hostile {
            let frame = test_frame(os, 1);
            sh.sim.with_node_ctx(0, |node, ctx| {
                node.as_notifier_mut().on_relay_frame(ctx, frame)
            });
        }
        let n = notifier(&mut sh);
        let rel = n.relay.as_ref().expect("federated");
        assert_eq!(rel.relay_hostile_drops, hostile.len() as u64);
        assert_eq!(
            rel.relayed_in, 0,
            "hostile frames must not count as relayed"
        );
        assert!(rel.integration_log.is_empty(), "nothing may reach the mesh");
        assert_eq!(n.hub.notifier().doc(), before, "document must be untouched");
    }
}
