//! The deterministic discrete-event simulator.
//!
//! The paper's deployment substrate — Java applets talking TCP to a
//! notifier servlet over the Internet — is replaced by this simulator (see
//! DESIGN.md §5): nodes exchange messages over per-directed-pair channels
//! that are **FIFO** (like a TCP connection) with latencies drawn from a
//! seeded [`LatencyModel`]. Cross-channel reordering happens freely, which
//! is exactly the concurrency the paper's scheme must capture; in-channel
//! reordering never happens, which is the precondition of its simplified
//! formulas (5) and (7).
//!
//! Everything is virtual-time and seeded: a run is a pure function of
//! `(nodes, topology, seed, workload)`.

use crate::fault::{FaultPlan, FaultStats};
use crate::latency::LatencyModel;
use crate::time::{SimDuration, SimTime};
use crate::wire::WireSize;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// Index of a node in the simulator.
pub type NodeId = usize;

/// Behaviour of a simulated node.
pub trait Node<M> {
    /// A message from `from` has been delivered.
    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: NodeId, msg: M);

    /// A timer set with [`Ctx::set_timer`] (or scheduled externally) fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, tag: u64) {
        let _ = (ctx, tag);
    }

    /// A stream channel between this node and `peer` reset under `msg`,
    /// the message it would have carried (see [`Simulator::set_streams`]).
    /// Both ends hear it, the receiver first.
    fn on_reset(&mut self, ctx: &mut Ctx<'_, M>, peer: NodeId, msg: &M) {
        let _ = (ctx, peer, msg);
    }
}

/// Side-effect collector handed to node callbacks.
pub struct Ctx<'a, M> {
    /// Current simulated time.
    pub now: SimTime,
    /// The node being invoked.
    pub me: NodeId,
    outbox: &'a mut Vec<(NodeId, M)>,
    timers: &'a mut Vec<(SimDuration, u64)>,
    channels: &'a HashMap<(NodeId, NodeId), Channel>,
}

impl<M> Ctx<'_, M> {
    /// Queue `msg` for delivery to `to` over the FIFO channel `me → to`.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push((to, msg));
    }

    /// [`Simulator::horizon`] of the channel `me → to` as the callback
    /// began: the sends this callback queues are not in it yet.
    pub fn horizon(&self, to: NodeId) -> SimTime {
        horizon(self.channels, self.me, to)
    }

    /// Arrange for `on_timer(tag)` to fire on this node after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.timers.push((delay, tag));
    }
}

/// One event [`Simulator::step`] fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fired<M> {
    /// `(from, to, msg)`: a message reached its receiver.
    Deliver(NodeId, NodeId, M),
    /// `(node, tag)`: a timer of the node's fired.
    Timer(NodeId, u64),
    /// `(from, to, msg)`: the stream channel `from → to` reset where it
    /// would have delivered `msg` (see [`Simulator::set_streams`]).
    Reset(NodeId, NodeId, M),
}

enum EventKind<M> {
    Deliver {
        from: NodeId,
        msg: M,
        sent_at: SimTime,
        bytes: usize,
        /// Per-channel send index of the logical message (duplicates share
        /// their original's index) — lets the receiver side count realised
        /// inversions.
        index: u64,
    },
    Timer {
        tag: u64,
    },
    Reset {
        from: NodeId,
        msg: M,
    },
}

struct Event<M> {
    time: SimTime,
    seq: u64,
    to: NodeId,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first; ties
        // broken by insertion sequence for determinism.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Per-directed-channel accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Messages delivered.
    pub messages: u64,
    /// Payload bytes delivered (per [`WireSize`]).
    pub bytes: u64,
    /// Sum of per-message one-way latencies (µs).
    pub total_latency_us: u64,
}

impl ChannelStats {
    /// Mean one-way latency over delivered messages.
    pub fn mean_latency(&self) -> SimDuration {
        self.total_latency_us
            .checked_div(self.messages)
            .map_or(SimDuration::ZERO, SimDuration::from_micros)
    }
}

struct Channel {
    latency: LatencyModel,
    /// Store-and-forward link rate; `None` = infinitely fast serialisation.
    bandwidth_bytes_per_sec: Option<u64>,
    /// When the sender's link is free again (serialisation queueing).
    busy_until: SimTime,
    last_arrival: SimTime,
    stats: ChannelStats,
    /// Send index of the next logical message on this channel.
    send_index: u64,
    /// Highest send index delivered so far (inversion detection).
    max_delivered: Option<u64>,
}

/// One delivered-message record (enabled via
/// [`Simulator::record_deliveries`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// When the message was sent.
    pub sent_at: SimTime,
    /// When it was delivered.
    pub delivered_at: SimTime,
    /// Encoded payload size.
    pub bytes: usize,
}

/// Head-of-line stall (µs) a stream channel suffers where a datagram
/// channel would drop the message: one TCP retransmission timeout.
pub const STALL_US: u64 = 250_000;

/// When the channel `from → to`'s last FIFO message lands ([`SimTime::ZERO`]
/// for an unused channel).
fn horizon(channels: &HashMap<(NodeId, NodeId), Channel>, from: NodeId, to: NodeId) -> SimTime {
    channels
        .get(&(from, to))
        .map_or(SimTime::ZERO, |c| c.last_arrival)
}

/// The simulator: nodes + event queue + channels.
pub struct Simulator<M, N> {
    nodes: Vec<N>,
    queue: BinaryHeap<Event<M>>,
    channels: HashMap<(NodeId, NodeId), Channel>,
    default_latency: LatencyModel,
    rng: SmallRng,
    now: SimTime,
    seq: u64,
    deliveries: Option<Vec<DeliveryRecord>>,
    events_processed: u64,
    default_bandwidth: Option<u64>,
    /// Fault plans per directed channel; `default_fault_plan` covers the
    /// rest. All fault randomness comes from `fault_rng`, a stream
    /// separate from the latency RNG so that fault-free configurations
    /// reproduce pre-fault-layer runs bit for bit.
    fault_plans: HashMap<(NodeId, NodeId), FaultPlan>,
    default_fault_plan: FaultPlan,
    partitions: Vec<(NodeId, NodeId, SimTime, SimTime)>,
    fault_rng: SmallRng,
    fault_stats: FaultStats,
    /// Channels are TCP connections' byte streams rather than datagram
    /// links ([`Simulator::set_streams`]).
    streams: bool,
}

impl<M: WireSize + Clone, N> Simulator<M, N> {
    /// A simulator whose channels default to `latency`, seeded for
    /// reproducible latency draws.
    pub fn new(latency: LatencyModel, seed: u64) -> Self {
        Simulator {
            nodes: Vec::new(),
            queue: BinaryHeap::new(),
            channels: HashMap::new(),
            default_latency: latency,
            rng: SmallRng::seed_from_u64(seed),
            now: SimTime::ZERO,
            seq: 0,
            deliveries: None,
            events_processed: 0,
            default_bandwidth: None,
            fault_plans: HashMap::new(),
            default_fault_plan: FaultPlan::NONE,
            partitions: Vec::new(),
            fault_rng: SmallRng::seed_from_u64(seed ^ 0xFA11_AB1E_0BAD_F00D),
            fault_stats: FaultStats::default(),
            streams: false,
        }
    }

    /// Register a node; ids are assigned densely from 0.
    pub fn add_node(&mut self, node: N) -> NodeId {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Give the directed channel `from → to` its own latency model.
    pub fn set_channel_latency(&mut self, from: NodeId, to: NodeId, model: LatencyModel) {
        self.channel_entry(from, to).latency = model;
    }

    /// Make every channel (present and future) a store-and-forward link of
    /// `bytes_per_sec`: each message occupies the sender's link for
    /// `size / rate` before its propagation delay starts, so big
    /// timestamps turn into real queueing time. `None` restores
    /// infinitely fast serialisation (the default).
    pub fn set_default_bandwidth(&mut self, bytes_per_sec: Option<u64>) {
        self.default_bandwidth = bytes_per_sec;
        for c in self.channels.values_mut() {
            c.bandwidth_bytes_per_sec = bytes_per_sec;
        }
    }

    /// Attach a [`FaultPlan`] to the directed channel `from → to`.
    pub fn set_fault_plan(&mut self, from: NodeId, to: NodeId, plan: FaultPlan) {
        self.fault_plans.insert((from, to), plan);
    }

    /// Fault plan applied to every channel without an explicit plan.
    pub fn set_default_fault_plan(&mut self, plan: FaultPlan) {
        self.default_fault_plan = plan;
    }

    /// Partition nodes `a` and `b` (both directions) during
    /// `[from, until)`: messages sent in the window are lost.
    pub fn add_partition(&mut self, a: NodeId, b: NodeId, from: SimTime, until: SimTime) {
        self.partitions.push((a, b, from, until));
    }

    /// Counters of every fault injected (and inversion observed) so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// Make every channel a TCP connection's byte stream: the fault plans
    /// and partitions then fail it the way TCP fails, in one of two ways.
    /// A `drop` is a head-of-line stall of [`STALL_US`] that later
    /// messages queue behind; a `corrupt` frame (its checksum fails at the
    /// receiver), a flap or a partition resets the stream, delivered as
    /// [`Fired::Reset`] where the message would have landed; `duplicate`
    /// and `reorder` never fire (TCP hides both). Off, the default, the
    /// channels are datagram links that lose, copy and reorder messages.
    pub fn set_streams(&mut self, on: bool) {
        self.streams = on;
    }

    /// When the last FIFO message sent on `from → to` lands: while this is
    /// later than [`Simulator::now`], the channel has a frame in flight.
    pub fn horizon(&self, from: NodeId, to: NodeId) -> SimTime {
        horizon(&self.channels, from, to)
    }

    /// Start keeping a [`DeliveryRecord`] per delivered message.
    pub fn record_deliveries(&mut self, on: bool) {
        self.deliveries = if on { Some(Vec::new()) } else { None };
    }

    /// Records collected so far (empty unless enabled).
    pub fn deliveries(&self) -> &[DeliveryRecord] {
        self.deliveries.as_deref().unwrap_or(&[])
    }

    /// Schedule `on_timer(tag)` on `node` at absolute time `at`.
    pub fn schedule_timer(&mut self, node: NodeId, at: SimTime, tag: u64) {
        assert!(node < self.nodes.len(), "unknown node {node}");
        let seq = self.next_seq();
        self.queue.push(Event {
            time: at.max(self.now),
            seq,
            to: node,
            kind: EventKind::Timer { tag },
        });
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id]
    }

    /// Mutable access to a node (e.g. to inject local operations between
    /// runs).
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// All nodes, mutably (e.g. to harvest per-node logs after a run).
    pub fn nodes_mut(&mut self) -> &mut [N] {
        &mut self.nodes
    }

    /// Stats of the directed channel `from → to` (zero if unused).
    pub fn channel_stats(&self, from: NodeId, to: NodeId) -> ChannelStats {
        self.channels
            .get(&(from, to))
            .map(|c| c.stats)
            .unwrap_or_default()
    }

    /// Sum of all channel stats.
    pub fn total_stats(&self) -> ChannelStats {
        let mut total = ChannelStats::default();
        for c in self.channels.values() {
            total.messages += c.stats.messages;
            total.bytes += c.stats.bytes;
            total.total_latency_us += c.stats.total_latency_us;
        }
        total
    }

    /// Pop the next event due by `deadline` and account for it: the clock
    /// moves to it, and a delivery is counted on its channel (stats,
    /// inversions, its [`DeliveryRecord`]). This is the pull half of the
    /// event loop: the caller reacts through [`Simulator::inject_send`]
    /// and [`Simulator::schedule_timer`] and steps again;
    /// [`Simulator::run_until`] is the same loop reacting through
    /// [`Node`]s.
    pub fn step(&mut self, deadline: SimTime) -> Option<Fired<M>> {
        // Peek decides, pop consumes: both guarded, so the loop stays
        // panic-free (no "peeked therefore poppable" claim).
        self.queue.peek().filter(|ev| ev.time <= deadline)?;
        let ev = self.queue.pop()?;
        self.now = ev.time;
        self.events_processed += 1;
        Some(match ev.kind {
            EventKind::Deliver {
                from,
                msg,
                sent_at,
                bytes,
                index,
            } => {
                let latency = self.now - sent_at;
                // A delivery is only ever enqueued by `inject_send`, which
                // creates the channel entry first — so the entry always
                // exists and the guard (rather than a panic) only skips
                // accounting.
                if let Some(ch) = self.channels.get_mut(&(from, ev.to)) {
                    ch.stats.messages += 1;
                    ch.stats.bytes += bytes as u64;
                    ch.stats.total_latency_us += latency.as_micros();
                    match ch.max_delivered {
                        Some(m) if index < m => self.fault_stats.inversions_observed += 1,
                        Some(m) if index == m => {} // duplicate of the head
                        _ => ch.max_delivered = Some(index),
                    }
                }
                if let Some(log) = &mut self.deliveries {
                    log.push(DeliveryRecord {
                        from,
                        to: ev.to,
                        sent_at,
                        delivered_at: self.now,
                        bytes,
                    });
                }
                Fired::Deliver(from, ev.to, msg)
            }
            EventKind::Timer { tag } => Fired::Timer(ev.to, tag),
            EventKind::Reset { from, msg } => Fired::Reset(from, ev.to, msg),
        })
    }

    /// Advance the clock to `t` without processing events (only forward).
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(
            self.queue.peek().is_none_or(|e| e.time >= t),
            "cannot advance past pending events"
        );
        self.now = self.now.max(t);
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|e| e.time)
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn channel_entry(&mut self, from: NodeId, to: NodeId) -> &mut Channel {
        let default = self.default_latency;
        let bandwidth = self.default_bandwidth;
        self.channels.entry((from, to)).or_insert_with(|| Channel {
            latency: default,
            bandwidth_bytes_per_sec: bandwidth,
            busy_until: SimTime::ZERO,
            last_arrival: SimTime::ZERO,
            stats: ChannelStats::default(),
            send_index: 0,
            max_delivered: None,
        })
    }

    /// Send `msg` from `from` to `to` over their FIFO channel: a pull
    /// driver's sends, a test driving a single node directly, and every
    /// send a node makes through its [`Ctx`].
    pub fn inject_send(&mut self, from: NodeId, to: NodeId, msg: M) {
        assert!(to < self.nodes.len(), "send to unknown node {to}");
        assert_ne!(from, to, "self-sends are not modelled");
        let now = self.now;
        let model = self.channel_entry(from, to).latency;
        let sampled = model.sample(&mut self.rng);

        // Fault pipeline. All fault randomness comes from `fault_rng`, so
        // a run with no plan and no partitions is bit-identical to the
        // fault-free simulator.
        let plan = *self
            .fault_plans
            .get(&(from, to))
            .unwrap_or(&self.default_fault_plan);
        let mut extra = SimDuration::ZERO;
        let mut unclamped = false;
        let mut duplicate = false;
        let mut reset = false;
        if !plan.is_none() || !self.partitions.is_empty() {
            if self.partitions.iter().any(|&(a, b, s, e)| {
                ((a == from && b == to) || (a == to && b == from)) && now >= s && now < e
            }) {
                self.fault_stats.partition_dropped += 1;
                reset = true;
            } else if plan.flap.is_some_and(|f| f.is_down(now)) {
                self.fault_stats.flap_dropped += 1;
                reset = true;
            } else if plan.drop > 0.0 && self.fault_rng.gen_bool(plan.drop.clamp(0.0, 1.0)) {
                if !self.streams {
                    self.fault_stats.dropped += 1;
                    return;
                }
                self.fault_stats.delay_spiked += 1;
                extra += SimDuration::from_micros(STALL_US);
            }
            if !reset && plan.corrupt > 0.0 && self.fault_rng.gen_bool(plan.corrupt.clamp(0.0, 1.0))
            {
                self.fault_stats.corrupted += 1;
                reset = true;
            }
            if reset {
                // A datagram link loses the message: cut, down, or
                // discarded by the receiver as mangled.
                if !self.streams {
                    return;
                }
            } else {
                duplicate = !self.streams
                    && plan.duplicate > 0.0
                    && self.fault_rng.gen_bool(plan.duplicate.clamp(0.0, 1.0));
                if plan.delay_spike > 0.0
                    && self.fault_rng.gen_bool(plan.delay_spike.clamp(0.0, 1.0))
                {
                    self.fault_stats.delay_spiked += 1;
                    extra += SimDuration::from_micros(plan.spike_us);
                }
                if !self.streams
                    && plan.reorder > 0.0
                    && self.fault_rng.gen_bool(plan.reorder.clamp(0.0, 1.0))
                {
                    self.fault_stats.reordered += 1;
                    unclamped = true;
                    if plan.reorder_extra_us > 0 {
                        extra += SimDuration::from_micros(
                            self.fault_rng.gen_range(0..=plan.reorder_extra_us),
                        );
                    }
                }
            }
        }

        let bytes = msg.wire_bytes();
        let seq = self.next_seq();
        let dup_latency = if duplicate {
            // The copy races independently: its own latency draw, no FIFO
            // clamp, no serialisation queueing (it is born in the network).
            Some(model.sample(&mut self.fault_rng))
        } else {
            None
        };
        let ch = self.channel_entry(from, to);
        let index = ch.send_index;
        ch.send_index += 1;
        // Store-and-forward: the message first occupies the sender's link
        // for its serialisation time (if a rate is set)…
        let start = now.max(ch.busy_until);
        let ser = ch
            .bandwidth_bytes_per_sec
            .and_then(|rate| (bytes as u64).saturating_mul(1_000_000).checked_div(rate))
            .map_or(SimDuration::ZERO, SimDuration::from_micros);
        let departed = start + ser;
        ch.busy_until = departed;
        // …then propagates; FIFO (TCP-like): a message never overtakes its
        // predecessor on the same directed channel — unless a reorder
        // fault exempted it from the clamp.
        let raw = departed + sampled + extra;
        let arrival = if unclamped {
            raw
        } else {
            let a = raw.max(ch.last_arrival);
            ch.last_arrival = a;
            a
        };
        let deliver = |msg| EventKind::Deliver {
            from,
            msg,
            sent_at: now,
            bytes,
            index,
        };
        if let Some(dup_lat) = dup_latency {
            self.fault_stats.duplicated += 1;
            let seq = self.next_seq();
            self.queue.push(Event {
                time: departed + dup_lat,
                seq,
                to,
                kind: deliver(msg.clone()),
            });
        }
        let kind = if reset {
            EventKind::Reset { from, msg }
        } else {
            deliver(msg)
        };
        self.queue.push(Event {
            time: arrival,
            seq,
            to,
            kind,
        });
    }
}

impl<M: WireSize + Clone, N: Node<M>> Simulator<M, N> {
    /// Run until the event queue drains; returns the quiescence time.
    pub fn run(&mut self) -> SimTime {
        self.run_until(SimTime(u64::MAX))
    }

    /// Process events with `time <= deadline`, each through its node;
    /// returns the current time afterwards.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while let Some(fired) = self.step(deadline) {
            match fired {
                Fired::Deliver(from, to, msg) => {
                    self.with_node_ctx(to, |node, ctx| node.on_message(ctx, from, msg))
                }
                Fired::Timer(node, tag) => self.with_node_ctx(node, |n, ctx| n.on_timer(ctx, tag)),
                Fired::Reset(from, to, msg) => {
                    self.with_node_ctx(to, |n, ctx| n.on_reset(ctx, from, &msg));
                    self.with_node_ctx(from, |n, ctx| n.on_reset(ctx, to, &msg));
                }
            }
        }
        self.now = self
            .now
            .max(deadline.min(self.peek_time().unwrap_or(self.now)));
        self.now
    }

    /// Invoke `f` as if it ran inside `node`'s callback: sends and timers
    /// it issues through the [`Ctx`] are honoured. [`Simulator::run_until`]
    /// hands every fired event to its node this way, and drivers use it to
    /// deliver *local user operations* to a site.
    pub fn with_node_ctx(&mut self, node: NodeId, f: impl FnOnce(&mut N, &mut Ctx<'_, M>)) {
        let mut outbox = Vec::new();
        let mut timers = Vec::new();
        f(
            &mut self.nodes[node],
            &mut Ctx {
                now: self.now,
                me: node,
                outbox: &mut outbox,
                timers: &mut timers,
                channels: &self.channels,
            },
        );
        for (to, msg) in outbox {
            self.inject_send(node, to, msg);
        }
        for (delay, tag) in timers {
            let at = self.now + delay;
            self.schedule_timer(node, at, tag);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FlapSpec;

    /// Test message: a payload byte count plus an id.
    #[derive(Debug, Clone, PartialEq)]
    struct TestMsg {
        id: u64,
        size: usize,
    }

    impl WireSize for TestMsg {
        fn wire_bytes(&self) -> usize {
            self.size
        }
    }

    /// Node that logs deliveries and can relay.
    #[derive(Default)]
    struct Logger {
        seen: Vec<(NodeId, u64, SimTime)>,
        relay_to: Option<NodeId>,
        timer_fired: Vec<u64>,
    }

    impl Node<TestMsg> for Logger {
        fn on_message(&mut self, ctx: &mut Ctx<'_, TestMsg>, from: NodeId, msg: TestMsg) {
            self.seen.push((from, msg.id, ctx.now));
            if let Some(to) = self.relay_to {
                ctx.send(
                    to,
                    TestMsg {
                        id: msg.id + 100,
                        size: msg.size,
                    },
                );
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, TestMsg>, tag: u64) {
            self.timer_fired.push(tag);
            if tag == 7 {
                ctx.send(1, TestMsg { id: 777, size: 3 });
            }
        }
    }

    fn sim(latency: LatencyModel) -> Simulator<TestMsg, Logger> {
        let mut s = Simulator::new(latency, 99);
        s.add_node(Logger::default());
        s.add_node(Logger::default());
        s.add_node(Logger::default());
        s
    }

    #[test]
    fn constant_latency_delivery() {
        let mut s = sim(LatencyModel::Constant(1000));
        s.inject_send(0, 1, TestMsg { id: 1, size: 10 });
        s.run();
        let seen = &s.node(1).seen;
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0], (0, 1, SimTime::from_micros(1000)));
        let stats = s.channel_stats(0, 1);
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.bytes, 10);
        assert_eq!(stats.mean_latency().as_micros(), 1000);
    }

    #[test]
    fn fifo_within_channel_despite_jitter() {
        // Huge jitter: without the FIFO clamp, later sends would often
        // arrive first.
        let mut s = sim(LatencyModel::Uniform {
            lo: 10,
            hi: 100_000,
        });
        for id in 0..50 {
            s.inject_send(0, 1, TestMsg { id, size: 1 });
        }
        s.run();
        let ids: Vec<u64> = s.node(1).seen.iter().map(|&(_, id, _)| id).collect();
        assert_eq!(ids, (0..50).collect::<Vec<_>>(), "FIFO violated");
    }

    #[test]
    fn cross_channel_reordering_is_possible() {
        let mut s = sim(LatencyModel::Constant(1000));
        s.set_channel_latency(0, 2, LatencyModel::Constant(10_000));
        s.set_channel_latency(1, 2, LatencyModel::Constant(100));
        // 0 sends first, 1 sends second; 1's message must win the race.
        s.inject_send(0, 2, TestMsg { id: 1, size: 1 });
        s.inject_send(1, 2, TestMsg { id: 2, size: 1 });
        s.run();
        let ids: Vec<u64> = s.node(2).seen.iter().map(|&(_, id, _)| id).collect();
        assert_eq!(ids, vec![2, 1]);
    }

    #[test]
    fn relaying_chains_events() {
        let mut s = sim(LatencyModel::Constant(500));
        s.node_mut(1).relay_to = Some(2);
        s.inject_send(0, 1, TestMsg { id: 5, size: 2 });
        s.run();
        assert_eq!(s.node(2).seen.len(), 1);
        assert_eq!(s.node(2).seen[0].1, 105);
        assert_eq!(s.node(2).seen[0].2, SimTime::from_micros(1000));
        assert_eq!(s.events_processed(), 2);
    }

    #[test]
    fn timers_fire_and_can_send() {
        let mut s = sim(LatencyModel::Constant(100));
        s.schedule_timer(0, SimTime::from_micros(50), 7);
        s.schedule_timer(0, SimTime::from_micros(60), 8);
        s.run();
        assert_eq!(s.node(0).timer_fired, vec![7, 8]);
        assert_eq!(s.node(1).seen.len(), 1);
        assert_eq!(s.node(1).seen[0].1, 777);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut s = sim(LatencyModel::Constant(1000));
        s.inject_send(0, 1, TestMsg { id: 1, size: 1 });
        s.inject_send(0, 1, TestMsg { id: 2, size: 1 });
        s.run_until(SimTime::from_micros(500));
        assert_eq!(s.node(1).seen.len(), 0, "messages still in flight");
        s.run();
        assert_eq!(s.node(1).seen.len(), 2);
    }

    #[test]
    fn with_node_ctx_honours_side_effects() {
        let mut s = sim(LatencyModel::Constant(100));
        s.with_node_ctx(0, |_node, ctx| {
            ctx.send(1, TestMsg { id: 9, size: 4 });
            ctx.set_timer(SimDuration::from_micros(10), 42);
        });
        s.run();
        assert_eq!(s.node(1).seen.len(), 1);
        assert_eq!(s.node(0).timer_fired, vec![42]);
    }

    /// A caller stepping the queue and reacting by hand (relaying, the
    /// tag-7 timer's send) reproduces the node-driven run exactly: the
    /// same delivery records in the same order, the same quiescence time.
    #[test]
    fn pull_driving_reproduces_the_node_driven_run() {
        let network = || {
            let mut s = sim(LatencyModel::Uniform { lo: 10, hi: 5_000 });
            s.record_deliveries(true);
            s.node_mut(1).relay_to = Some(2);
            s.node_mut(2).relay_to = Some(0);
            for (k, at) in [(7, 40), (8, 40), (7, 900)] {
                s.schedule_timer(0, SimTime::from_micros(at), k);
            }
            for id in 0..20 {
                s.inject_send(0, 1, TestMsg { id, size: 3 });
                s.inject_send(
                    2,
                    1,
                    TestMsg {
                        id: 50 + id,
                        size: 5,
                    },
                );
            }
            s
        };
        let mut driven = network();
        let quiesced = driven.run();
        let mut pulled = network();
        let mut fired = 0;
        while let Some(ev) = pulled.step(SimTime(u64::MAX)) {
            fired += 1;
            match ev {
                Fired::Deliver(_, to, msg) => {
                    if let Some(next) = pulled.node(to).relay_to {
                        let size = msg.size;
                        pulled.inject_send(
                            to,
                            next,
                            TestMsg {
                                id: msg.id + 100,
                                size,
                            },
                        );
                    }
                }
                Fired::Timer(node, 7) => {
                    pulled.inject_send(node, 1, TestMsg { id: 777, size: 3 });
                }
                Fired::Timer(..) | Fired::Reset(..) => {}
            }
        }
        assert!(driven.deliveries().len() > 40, "relays and timers ran");
        assert_eq!(pulled.deliveries(), driven.deliveries());
        assert_eq!(pulled.now(), quiesced);
        assert_eq!(fired, driven.events_processed());
    }

    #[test]
    fn delivery_records_when_enabled() {
        let mut s = sim(LatencyModel::Constant(250));
        s.record_deliveries(true);
        s.inject_send(0, 1, TestMsg { id: 1, size: 8 });
        s.run();
        let recs = s.deliveries();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].from, 0);
        assert_eq!(recs[0].to, 1);
        assert_eq!(recs[0].bytes, 8);
        assert_eq!((recs[0].delivered_at - recs[0].sent_at).as_micros(), 250);
    }

    #[test]
    fn bandwidth_adds_serialisation_delay() {
        let mut s = sim(LatencyModel::Constant(1_000));
        // 1000 bytes/sec → a 10-byte message takes 10ms to serialise.
        s.set_default_bandwidth(Some(1_000));
        s.inject_send(0, 1, TestMsg { id: 1, size: 10 });
        s.run();
        let t = s.node(1).seen[0].2;
        assert_eq!(t.as_micros(), 10_000 + 1_000);
    }

    #[test]
    fn bandwidth_queues_back_to_back_messages() {
        let mut s = sim(LatencyModel::Constant(500));
        s.set_default_bandwidth(Some(1_000));
        // Two 5-byte messages sent at t=0: the second waits for the link.
        s.inject_send(0, 1, TestMsg { id: 1, size: 5 });
        s.inject_send(0, 1, TestMsg { id: 2, size: 5 });
        s.run();
        let t1 = s.node(1).seen[0].2.as_micros();
        let t2 = s.node(1).seen[1].2.as_micros();
        assert_eq!(t1, 5_000 + 500);
        assert_eq!(t2, 10_000 + 500, "second message queued behind the first");
        // Different channels don't queue against each other.
        let mut s = sim(LatencyModel::Constant(500));
        s.set_default_bandwidth(Some(1_000));
        s.inject_send(0, 1, TestMsg { id: 1, size: 5 });
        s.inject_send(2, 1, TestMsg { id: 2, size: 5 });
        s.run();
        assert_eq!(s.node(1).seen[0].2.as_micros(), 5_500);
        assert_eq!(s.node(1).seen[1].2.as_micros(), 5_500);
    }

    #[test]
    fn zero_bandwidth_is_treated_as_unlimited() {
        let mut s = sim(LatencyModel::Constant(100));
        s.set_default_bandwidth(Some(0));
        s.inject_send(
            0,
            1,
            TestMsg {
                id: 1,
                size: 1_000_000,
            },
        );
        s.run();
        assert_eq!(s.node(1).seen[0].2.as_micros(), 100);
    }

    /// FIFO channels exhibit head-of-line blocking, like TCP under loss: a
    /// single slow delivery holds every later message on the same channel
    /// behind it (this is why acknowledgement currency — and with it,
    /// history GC — degrades on spiky links; see the soak tests).
    #[test]
    fn fifo_head_of_line_blocking() {
        let mut s = sim(LatencyModel::Constant(1_000));
        // One message on a pathologically slow path…
        s.set_channel_latency(0, 1, LatencyModel::Constant(500_000));
        s.inject_send(0, 1, TestMsg { id: 1, size: 1 });
        // …then the channel recovers, but the next 10 fast messages must
        // still queue behind the slow one.
        s.set_channel_latency(0, 1, LatencyModel::Constant(1_000));
        for id in 2..12 {
            s.inject_send(0, 1, TestMsg { id, size: 1 });
        }
        s.run();
        let seen = &s.node(1).seen;
        assert_eq!(seen.len(), 11);
        for (k, &(_, id, t)) in seen.iter().enumerate() {
            assert_eq!(id as usize, k + 1, "order preserved");
            assert!(
                t.as_micros() >= 500_000,
                "message {id} overtook the stalled head: {t}"
            );
        }
    }

    #[test]
    fn identical_seeds_reproduce_runs() {
        let run = |seed: u64| {
            let mut s: Simulator<TestMsg, Logger> = Simulator::new(LatencyModel::internet(), seed);
            s.add_node(Logger::default());
            s.add_node(Logger::default());
            for id in 0..20 {
                s.inject_send(0, 1, TestMsg { id, size: 1 });
            }
            s.run();
            s.node(1)
                .seen
                .iter()
                .map(|&(_, id, t)| (id, t.as_micros()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn empty_fault_plan_reproduces_baseline_runs() {
        let run = |with_plan: bool| {
            let mut s: Simulator<TestMsg, Logger> = Simulator::new(LatencyModel::internet(), 17);
            s.add_node(Logger::default());
            s.add_node(Logger::default());
            if with_plan {
                s.set_default_fault_plan(FaultPlan::NONE);
                s.set_fault_plan(0, 1, FaultPlan::NONE);
            }
            for id in 0..30 {
                s.inject_send(0, 1, TestMsg { id, size: 1 });
            }
            s.run();
            s.node(1)
                .seen
                .iter()
                .map(|&(_, id, t)| (id, t.as_micros()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn drops_lose_messages_deterministically() {
        let run = || {
            let mut s = sim(LatencyModel::Constant(100));
            s.set_fault_plan(0, 1, FaultPlan::lossy(0.5));
            for id in 0..100 {
                s.inject_send(0, 1, TestMsg { id, size: 1 });
            }
            s.run();
            (s.node(1).seen.len(), s.fault_stats())
        };
        let (delivered, stats) = run();
        assert_eq!(delivered as u64 + stats.dropped, 100);
        assert!(stats.dropped > 20, "p=0.5 over 100 sends: {stats:?}");
        assert_eq!(run(), (delivered, stats), "fault draws are seeded");
    }

    #[test]
    fn duplicates_deliver_twice() {
        let mut s = sim(LatencyModel::Constant(100));
        s.set_fault_plan(
            0,
            1,
            FaultPlan {
                duplicate: 1.0,
                ..FaultPlan::NONE
            },
        );
        for id in 0..10 {
            s.inject_send(0, 1, TestMsg { id, size: 1 });
        }
        s.run();
        assert_eq!(s.fault_stats().duplicated, 10);
        assert_eq!(s.node(1).seen.len(), 20);
        let mut ids: Vec<u64> = s.node(1).seen.iter().map(|&(_, id, _)| id).collect();
        ids.sort_unstable();
        let expect: Vec<u64> = (0..10).flat_map(|id| [id, id]).collect();
        assert_eq!(ids, expect);
    }

    #[test]
    fn reorder_faults_realise_inversions() {
        let mut s = sim(LatencyModel::Uniform { lo: 10, hi: 200 });
        s.set_fault_plan(
            0,
            1,
            FaultPlan {
                reorder: 0.3,
                reorder_extra_us: 5_000,
                ..FaultPlan::NONE
            },
        );
        for id in 0..100 {
            s.inject_send(0, 1, TestMsg { id, size: 1 });
        }
        s.run();
        assert_eq!(s.node(1).seen.len(), 100, "reorder never loses messages");
        let ids: Vec<u64> = s.node(1).seen.iter().map(|&(_, id, _)| id).collect();
        let inversions = ids.windows(2).filter(|w| w[0] > w[1]).count();
        assert!(inversions > 0, "no inversion realised: {ids:?}");
        assert!(s.fault_stats().inversions_observed > 0);
        assert!(s.fault_stats().reordered > 10);
    }

    #[test]
    fn flap_window_drops_only_inside_window() {
        let mut s = sim(LatencyModel::Constant(10));
        s.set_fault_plan(
            0,
            1,
            FaultPlan {
                flap: Some(FlapSpec {
                    period_us: 1_000,
                    down_us: 500,
                    offset_us: 0,
                }),
                ..FaultPlan::NONE
            },
        );
        // One send per 100µs for 2 cycles via timers on node 0.
        for k in 0..20 {
            s.schedule_timer(0, SimTime::from_micros(k * 100), 7); // tag 7 sends to 1
        }
        s.run();
        // Down during [0,500) and [1000,1500): 10 of 20 sends lost.
        assert_eq!(s.fault_stats().flap_dropped, 10);
        assert_eq!(s.node(1).seen.len(), 10);
    }

    #[test]
    fn partition_blocks_both_directions_in_window() {
        let mut s = sim(LatencyModel::Constant(10));
        s.add_partition(0, 1, SimTime::from_micros(100), SimTime::from_micros(1_000));
        s.inject_send(0, 1, TestMsg { id: 1, size: 1 }); // t=0: passes
        s.run();
        s.advance_to(SimTime::from_micros(500));
        s.inject_send(0, 1, TestMsg { id: 2, size: 1 }); // inside window
        s.inject_send(1, 0, TestMsg { id: 3, size: 1 }); // reverse, inside
        s.inject_send(0, 2, TestMsg { id: 4, size: 1 }); // other pair: passes
        s.run();
        s.advance_to(SimTime::from_micros(2_000));
        s.inject_send(0, 1, TestMsg { id: 5, size: 1 }); // after window
        s.run();
        assert_eq!(s.fault_stats().partition_dropped, 2);
        let ids: Vec<u64> = s.node(1).seen.iter().map(|&(_, id, _)| id).collect();
        assert_eq!(ids, vec![1, 5]);
        assert_eq!(s.node(2).seen.len(), 1);
    }

    #[test]
    fn corruption_without_corruptor_is_a_loss() {
        let mut s = sim(LatencyModel::Constant(10));
        s.set_fault_plan(
            0,
            1,
            FaultPlan {
                corrupt: 1.0,
                ..FaultPlan::NONE
            },
        );
        s.inject_send(0, 1, TestMsg { id: 1, size: 1 });
        s.run();
        assert_eq!(s.fault_stats().corrupted, 1);
        assert!(s.node(1).seen.is_empty());
    }

    /// Node that logs deliveries and the resets it hears.
    #[derive(Default)]
    struct Ends {
        seen: Vec<u64>,
        resets: Vec<(NodeId, u64)>,
    }

    impl Node<TestMsg> for Ends {
        fn on_message(&mut self, _: &mut Ctx<'_, TestMsg>, _: NodeId, msg: TestMsg) {
            self.seen.push(msg.id);
        }

        fn on_reset(&mut self, _: &mut Ctx<'_, TestMsg>, peer: NodeId, msg: &TestMsg) {
            self.resets.push((peer, msg.id));
        }
    }

    fn streams(plan: FaultPlan) -> Simulator<TestMsg, Ends> {
        let mut s = Simulator::new(LatencyModel::Uniform { lo: 10, hi: 200 }, 5);
        s.set_streams(true);
        s.set_default_fault_plan(plan);
        s.add_node(Ends::default());
        s.add_node(Ends::default());
        s
    }

    #[test]
    fn corruption_on_a_stream_is_a_reset() {
        let mut s = streams(FaultPlan {
            corrupt: 1.0,
            ..FaultPlan::NONE
        });
        s.inject_send(0, 1, TestMsg { id: 1, size: 1 });
        s.run();
        assert_eq!(s.fault_stats().corrupted, 1);
        assert!(
            s.node(1).seen.is_empty(),
            "a mangled frame is never delivered"
        );
        assert_eq!(s.node(1).resets, vec![(0, 1)], "the receiver closes");
        assert_eq!(s.node(0).resets, vec![(1, 1)], "and the sender sees it");
    }

    /// On a stream a drop is one RTO of head-of-line stall, and TCP hides
    /// duplicates and reordering: every message lands once, in order.
    #[test]
    fn a_stream_stalls_where_a_datagram_link_loses() {
        let mut s = streams(FaultPlan {
            drop: 0.3,
            duplicate: 0.5,
            reorder: 0.5,
            reorder_extra_us: 5_000,
            ..FaultPlan::NONE
        });
        for id in 0..100 {
            s.inject_send(0, 1, TestMsg { id, size: 1 });
        }
        s.run();
        assert_eq!(s.node(1).seen, (0..100).collect::<Vec<_>>());
        let f = s.fault_stats();
        assert!(f.delay_spiked > 10, "{f:?}");
        assert_eq!((f.dropped, f.duplicated, f.reordered), (0, 0, 0));
        assert_eq!(f.inversions_observed, 0);
        assert!(s.now().as_micros() >= STALL_US, "the stalls cost time");
    }

    /// A flap or a partition kills the stream: each message sent while the
    /// link is down is a reset both ends hear, in FIFO order with the
    /// traffic around it.
    #[test]
    fn flaps_and_partitions_reset_streams() {
        let mut s = streams(FaultPlan {
            flap: Some(FlapSpec {
                period_us: 1_000,
                down_us: 500,
                offset_us: 0,
            }),
            ..FaultPlan::NONE
        });
        s.inject_send(0, 1, TestMsg { id: 1, size: 1 });
        s.run();
        s.advance_to(SimTime::from_micros(600));
        s.inject_send(0, 1, TestMsg { id: 2, size: 1 });
        s.add_partition(0, 1, SimTime::from_micros(600), SimTime::from_micros(700));
        s.inject_send(1, 0, TestMsg { id: 3, size: 1 });
        s.run();
        assert_eq!(s.node(1).seen, vec![2], "sent while the link was up");
        assert_eq!(s.node(1).resets, vec![(0, 1), (0, 3)]);
        assert_eq!(s.node(0).resets, vec![(1, 1), (1, 3)]);
        assert_eq!(s.fault_stats().flap_dropped, 1);
        assert_eq!(s.fault_stats().partition_dropped, 1);
    }

    #[test]
    fn horizon_is_when_the_last_fifo_message_lands() {
        let mut s = sim(LatencyModel::Constant(100));
        assert_eq!(s.horizon(0, 1), SimTime::ZERO);
        s.inject_send(0, 1, TestMsg { id: 1, size: 1 });
        assert_eq!(s.horizon(0, 1), SimTime::from_micros(100));
        assert_eq!(s.horizon(1, 0), SimTime::ZERO, "per directed channel");
        s.run();
        assert_eq!(s.now(), s.horizon(0, 1), "nothing in flight once it landed");
    }

    #[test]
    fn delay_spike_preserves_fifo() {
        let mut s = sim(LatencyModel::Constant(100));
        s.set_fault_plan(
            0,
            1,
            FaultPlan {
                delay_spike: 0.5,
                spike_us: 50_000,
                ..FaultPlan::NONE
            },
        );
        for id in 0..50 {
            s.inject_send(0, 1, TestMsg { id, size: 1 });
        }
        s.run();
        assert!(s.fault_stats().delay_spiked > 5);
        let ids: Vec<u64> = s.node(1).seen.iter().map(|&(_, id, _)| id).collect();
        assert_eq!(ids, (0..50).collect::<Vec<_>>(), "spikes must not reorder");
        assert_eq!(s.fault_stats().inversions_observed, 0);
    }

    #[test]
    #[should_panic(expected = "self-sends")]
    fn self_send_rejected() {
        let mut s = sim(LatencyModel::lan());
        s.inject_send(1, 1, TestMsg { id: 0, size: 0 });
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn unknown_destination_rejected() {
        let mut s = sim(LatencyModel::lan());
        s.inject_send(0, 9, TestMsg { id: 0, size: 0 });
    }
}
