//! Sessions over connections: the simulated star on TCP's terms, with
//! client reconnect through the hub's hello.
//!
//! The CVC formulas (5)/(7) are only sound on reliable FIFO channels —
//! the paper assumes TCP, and the deployed tier (`cvc-net`) runs on it. A
//! session with a fault plan, client outages or a standby runs here, on
//! the simulator's streams ([`Simulator::set_streams`]): a fault stalls a
//! connection or resets it, the two ways TCP fails, and nothing inside a
//! connection is ever lost, copied or reordered.
//!
//! * A `Connection` is an id and an outbox. What an end queues while
//!   the channel's previous frame is still in flight goes out when that
//!   frame lands, as one write round framed by [`frame_groups`] — the TCP
//!   server's own batching rule — and each frame costs what
//!   `crate::frame`'s `[len][checksum][bytes]` costs on a socket.
//! * A reset (a corrupt frame, a flap, a partition) closes the connection
//!   at both ends, and whatever was in flight or queued on it dies with
//!   it. A client hanging up for an outage sends its close; a crashed
//!   primary's connections close as its process dies. A frame arriving on
//!   a dead connection is dropped and counted.
//! * A client re-dials as it would over TCP: a new connection whose first
//!   message is a hello. The hello is an unbound [`ClientAckMsg`]; the
//!   notifier feeds it to [`Hub::on_msg`], the hub replays the broadcast
//!   suffix past the hello's frontier from its history buffer, and the
//!   driver ends the answer with `ServerAck{acked: integrated}`, from
//!   which the client re-sends its unacked local operations
//!   ([`Client::unacked_local_since`]). The hello integrates like an ack,
//!   so its frontier is held back to the oldest stamp the client may
//!   re-send ([`Client::hello_frontier`]); an answer whose count shows it
//!   was held back too far is followed by one exact hello. The hello rides
//!   the channel behind the old connection's traffic, close included, so
//!   it always finds its channel unbound.
//!
//! [`run_robust_session`] wires the whole thing onto the simulator and
//! returns the same [`SessionReport`] as a plain session, with the
//! transport counters folded into each site's [`SiteMetrics`].
//! [`run_robust_session_traced`] additionally records every integration
//! (messages, formula verdicts, broadcasts) so the chaos tests can replay
//! the run against a ground-truth oracle.

use crate::client::Client;
use crate::core::NotifierCore;
pub use crate::frame::frame_checksum;
use crate::frame::framed_len;
use crate::hub::{Hub, Sends, Step};
use crate::metrics::SiteMetrics;
use crate::msg::{
    decode_payload, frame_groups, ClientAckMsg, ClientOpMsg, EditorMsg, Payload, ServerAckMsg,
    ServerOpMsg,
};
use crate::recorder::{EventKind, FlightEvent};
use crate::session::{ClientMode, Deployment, FailoverReport, SessionConfig, SessionReport};
use crate::standby::Standby;
use crate::wal::{Wal, DEFAULT_COMPACT_EVERY};
use crate::workload::ScheduledEdit;
use cvc_core::site::SiteId;
use cvc_sim::fault::FaultPlan;
use cvc_sim::sim::{Ctx, Node, NodeId, Simulator};
use cvc_sim::time::{SimDuration, SimTime};
use cvc_sim::wire::WireSize;
use serde::{Deserialize, Serialize};

/// Timer tag of a connection's write round (the notifier adds the peer's
/// client index). Script-edit timers use their small script index, so the
/// high-bit spaces never collide.
const WRITE_TAG: u64 = 1 << 40;
/// Timer tag scheduling a client's disconnect.
const DISCONNECT_TAG: u64 = 2 << 40;
/// Timer tag scheduling a client's reconnect.
const RECONNECT_TAG: u64 = 3 << 40;

/// What one simulated channel carries.
#[derive(Debug, Clone)]
enum Segment {
    /// One frame of connection `conn`: an encoded editor message, or a
    /// write round's compound of several.
    Frame {
        /// The connection it was written on.
        conn: u32,
        /// The frame's bytes.
        payload: Payload,
    },
    /// Connection `conn` closed: its FIN.
    Close {
        /// The connection that closed.
        conn: u32,
    },
}

impl Segment {
    fn conn(&self) -> u32 {
        match self {
            Segment::Frame { conn, .. } | Segment::Close { conn } => *conn,
        }
    }
}

impl WireSize for Segment {
    /// A frame costs what it does on a socket; the connection is the
    /// socket's, not a byte on the wire.
    fn wire_bytes(&self) -> usize {
        match self {
            Segment::Frame { payload, .. } => {
                framed_len(payload.len(), frame_checksum(&payload.chunks()))
            }
            Segment::Close { .. } => 0,
        }
    }
}

/// One end of a channel's current connection. The id counts the client's
/// dials, so a larger one is a newer connection; the write-round timer
/// belongs to the channel and outlives a close.
#[derive(Debug, Default)]
struct Connection {
    id: u32,
    /// Closed, by either end, a reset or a crash.
    dead: bool,
    /// Payloads queued since the last write round, in queue order.
    outbox: Vec<Payload>,
    /// A write-round timer is out (at most one: timers cannot be
    /// cancelled).
    armed: bool,
    /// This end's transport counters, folded into its site's metrics.
    m: SiteMetrics,
}

impl Connection {
    /// Queue one payload for `peer`. The write round goes out when the
    /// channel's last frame lands — at once when none is in flight:
    /// Nagle's rule, with the landing for the ack.
    fn queue(&mut self, ctx: &mut Ctx<'_, Segment>, peer: NodeId, tag: u64, p: Payload) {
        self.m.editor_msgs_sent += 1;
        self.outbox.push(p);
        if !self.armed {
            self.armed = true;
            ctx.set_timer(ctx.horizon(peer).max(ctx.now) - ctx.now, tag);
        }
    }

    /// Put the write round on the wire, one frame per [`frame_groups`]
    /// group: a lone payload as itself (its shared body is not copied), a
    /// compound as the bytes `frame_groups` wrote.
    fn write(&mut self, ctx: &mut Ctx<'_, Segment>, peer: NodeId) {
        let (conn, outbox, frames) = (self.id, &self.outbox, &mut self.m.data_frames_sent);
        let mut next = 0;
        let _ = frame_groups(outbox, &mut Vec::new(), |chunks, msgs| {
            *frames += 1;
            let payload = match msgs {
                1 => outbox[next].clone(),
                _ => Payload::from_vec(chunks.concat()),
            };
            next += msgs;
            ctx.send(peer, Segment::Frame { conn, payload });
            Ok::<_, ()>(())
        });
        self.outbox.clear();
    }

    /// The write-round timer fired.
    fn on_write_timer(&mut self, ctx: &mut Ctx<'_, Segment>, peer: NodeId) {
        self.armed = false;
        self.write(ctx, peer);
    }

    /// Close this end: what it queued dies with it.
    fn close(&mut self) {
        self.dead = true;
        self.outbox.clear();
    }

    /// Open connection `id` on this channel.
    fn open(&mut self, id: u32) {
        self.id = id;
        self.dead = false;
        self.outbox.clear();
    }

    /// Whether `conn` is this end's live connection.
    fn live(&self, conn: u32) -> bool {
        !self.dead && conn == self.id
    }

    /// The payload of a frame that arrived, if it came on this live
    /// connection; a frame on a dead one is dropped and counted.
    fn accept(&mut self, conn: u32, payload: Payload) -> Option<Payload> {
        if !self.live(conn) {
            self.m.stale_drops += 1;
            return None;
        }
        self.m.delivered_payload_bytes += payload.len() as u64;
        Some(payload)
    }
}

/// One scheduled client outage: the client hangs up its connection at
/// `at` (local edits keep applying locally), then re-dials — a new
/// connection and a hello — after `down`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DisconnectSpec {
    /// Client index (0-based; the site id is `client + 1`).
    pub client: usize,
    /// When the outage starts.
    pub at: SimTime,
    /// Outage duration.
    pub down: SimDuration,
}

/// Where in its integration stride the primary notifier dies (see
/// [`NotifierCrash`]). The WAL append always precedes every send — the
/// write-ahead ordering under test — so "before send" is the earliest
/// observable crash once an operation exists at all: a crash *before* the
/// append is indistinguishable from the operation never arriving (the
/// origin re-sends it after its hello). A channel the dying process wrote
/// to gets its whole write round, as a killed process's kernel still
/// sends what it was given; every other round dies unwritten.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashPoint {
    /// Die between the WAL append and the first broadcast: the log has
    /// the op, no client does.
    BeforeSend,
    /// Die halfway through the broadcast fan-out: some clients got the
    /// frame, some did not.
    MidBroadcast,
    /// Die after writing to every destination.
    AfterSend,
}

impl CrashPoint {
    /// Stable lower-case name (used by experiment rows and event details).
    pub fn name(self) -> &'static str {
        match self {
            CrashPoint::BeforeSend => "before-send",
            CrashPoint::MidBroadcast => "mid-broadcast",
            CrashPoint::AfterSend => "after-send",
        }
    }

    /// Small stable discriminant for event operands.
    pub fn index(self) -> u64 {
        match self {
            CrashPoint::BeforeSend => 0,
            CrashPoint::MidBroadcast => 1,
            CrashPoint::AfterSend => 2,
        }
    }
}

/// A seeded primary-notifier crash: die at the `at_op`-th integrated
/// operation (1-based), at the chosen [`CrashPoint`]. Requires
/// [`SessionConfig::standby`]; the warm standby is promoted in place, the
/// dead primary's connections close, and each client re-dials it: a new
/// connection whose hello binds its channel again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NotifierCrash {
    /// Crash while integrating the `at_op`-th client operation (1-based).
    /// A count the session never reaches means the crash never fires.
    pub at_op: u64,
    /// Where in the integration stride to die.
    pub point: CrashPoint,
}

/// Connection state of a robust client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    Connected,
    /// Hung up for an outage: local edits apply locally.
    Disconnected,
    /// Re-dialed: the hello is the connection's first payload, and the
    /// `ServerAck` that ends its answer has not arrived yet.
    Hello {
        /// The frontier the hello presented.
        frontier: u64,
        /// The replica's `T[1]` when it said hello.
        received: u64,
    },
}

/// One integration recorded at the notifier, in arrival order.
#[derive(Debug, Clone)]
pub struct NotifierStep {
    /// The client operation exactly as integrated.
    pub msg: ClientOpMsg,
    /// Formula (7) verdict per pre-existing history entry.
    pub verdicts: Vec<bool>,
    /// The broadcasts this integration produced.
    pub broadcasts: Vec<(SiteId, ServerOpMsg)>,
}

/// One event recorded at a client, in execution order.
#[derive(Debug, Clone)]
pub enum ClientEvent {
    /// A local edit was generated (the propagation message, as built).
    Local(ClientOpMsg),
    /// A server operation was executed.
    Remote {
        /// The message exactly as integrated.
        msg: ServerOpMsg,
        /// Formula (5) verdict per pre-existing history entry.
        checked: Vec<bool>,
    },
}

/// Everything that happened at the editor layer during a robust session,
/// in each node's execution order — enough to replay the run on a clean
/// network and to audit every verdict against a causality oracle.
#[derive(Debug, Clone, Default)]
pub struct SessionTrace {
    /// Notifier integrations, in arrival order.
    pub notifier: Vec<NotifierStep>,
    /// Bare acks the notifier integrated, each with the number of
    /// `notifier` steps that preceded it — with `notifier`, the complete
    /// input stream of site 0.
    pub notifier_acks: Vec<(usize, ClientAckMsg)>,
    /// The notifier's final write-ahead-log image (empty unless
    /// [`SessionConfig::standby`]).
    pub wal_image: Vec<u8>,
    /// Per-client event logs (index 0 = site 1).
    pub clients: Vec<Vec<ClientEvent>>,
}

/// The simulator's driver over a [`Hub`] whose channel ids are node ids:
/// it owns what is genuinely the transport's — connections, the crash
/// plan, the trace. A channel whose connection closed is an unbound one.
struct RobustNotifier {
    /// The notifier, its durability pipeline (WAL + warm standby in
    /// standby sessions) and who is bound to which client channel: an
    /// outcome to broadcast only ever comes out of here, already logged
    /// and mirrored, with its sends queued for the bound channels.
    hub: Hub<NodeId>,
    /// One connection end per client; index = client index, peer node =
    /// index + 1.
    conns: Vec<Connection>,
    trace: Option<Vec<NotifierStep>>,
    /// Traced sessions: integrated bare acks, keyed by `trace` position.
    trace_acks: Vec<(usize, ClientAckMsg)>,
    /// Seeded crash plan; taken when it fires.
    crash: Option<NotifierCrash>,
    /// Client operations integrated so far (the crash plan's clock).
    ops_integrated: u64,
    /// When the primary died (set once).
    crash_at: Option<SimTime>,
    /// Per channel, when a hello bound it again after the crash; all
    /// `Some` once recovery completed.
    rebound_at: Vec<Option<SimTime>>,
    /// `(replayed ops, replayed acks)` captured from the standby at
    /// promotion.
    promoted_replay: Option<(u64, u64)>,
}

impl RobustNotifier {
    /// The notifier node for a session of `slots` client channels: the
    /// configured notifier wrapped — in standby sessions with its log and
    /// warm shadow — in a [`NotifierCore`], plus one connection end per
    /// channel, every client channel bound to its site.
    fn new(cfg: &SessionConfig, slots: usize, traced: bool) -> Self {
        let notifier = cfg.notifier(slots);
        let standby = cfg.standby.then(|| {
            let mut sb = Standby::new(slots, &cfg.initial_doc, cfg.notifier_scan);
            sb.set_auto_gc(cfg.auto_gc);
            sb
        });
        let wal = cfg.standby.then(|| Wal::new(DEFAULT_COMPACT_EVERY));
        let mut hub = Hub::new(NotifierCore::new(notifier, wal, standby));
        for i in 0..slots {
            hub.bind(1 + i, SiteId(i as u32 + 1));
        }
        RobustNotifier {
            hub,
            conns: (0..slots).map(|_| Connection::default()).collect(),
            trace: traced.then(Vec::new),
            trace_acks: Vec::new(),
            crash: cfg.crash,
            ops_integrated: 0,
            crash_at: None,
            rebound_at: Vec::new(),
            promoted_replay: None,
        }
    }

    /// Feed one input from node `node` through the hub and put what it
    /// queued on the connections. Node `i` speaks only for site `i`: node
    /// identity stands in for an authenticated connection, so a hello
    /// naming another site is refused here. A bound channel's input
    /// integrates as its site; otherwise the hub hears a stranger, and
    /// only a hello binds.
    fn integrate(&mut self, ctx: &mut Ctx<'_, Segment>, node: NodeId, msg: EditorMsg) {
        let site = SiteId(node as u32);
        let traced = self.trace.is_some().then(|| msg.clone());
        // Write-ahead ordering lives in the core: by the time an outcome
        // comes back its record is durable and mirrored to the warm
        // standby, so nothing below can broadcast an unlogged op. A crash
        // before the append is indistinguishable from the op never
        // arriving — the origin re-sends it after its hello.
        let mut sends = Vec::new();
        let step = match msg {
            EditorMsg::ClientAck(a) if a.origin != site && self.hub.site_of(node).is_none() => {
                Step::Refused
            }
            msg => self.hub.on_msg(node, msg, &mut sends),
        };
        match step {
            Step::Op(out) => {
                self.ops_integrated += 1;
                if let (Some(tr), Some(EditorMsg::ClientOp(msg))) = (&mut self.trace, traced) {
                    tr.push(NotifierStep {
                        msg,
                        verdicts: out.full_verdicts(),
                        broadcasts: out.broadcast_msgs(),
                    });
                }
                let crashing = self.crash.filter(|cr| cr.at_op == self.ops_integrated);
                // Every channel is bound until the crash, so the sends are
                // the broadcasts in destination order.
                match crashing.map(|cr| cr.point) {
                    Some(CrashPoint::BeforeSend) => sends.clear(),
                    Some(CrashPoint::MidBroadcast) => sends.truncate(out.stamps.len().div_ceil(2)),
                    _ => {}
                }
                let written: Vec<NodeId> = sends.iter().map(|&(node, _)| node).collect();
                self.put(ctx, sends);
                if crashing.is_some() {
                    self.crash_and_promote(ctx, &written);
                }
            }
            Step::Ack(_) => self.trace_ack(traced),
            // A hello integrates its frontier like any ack, and the hub
            // queued the catch-up behind it.
            Step::Bound(_) => {
                self.trace_ack(traced);
                if let Some(at @ None) = self.rebound_at.get_mut(node - 1) {
                    *at = Some(ctx.now);
                }
                let m = &mut self.conns[node - 1].m;
                m.resyncs += 1;
                m.resync_replayed += sends.len() as u64;
                self.answer_hello(ctx, node, sends);
            }
            // A frame that arrived intact but violates the editor protocol
            // is hostile input, not line noise: the hub evicted the site
            // whose channel carried it — whatever origin the frame claimed;
            // dump the flight recorder and keep serving everyone else.
            Step::Evicted(site, e) => {
                eprintln!("notifier rejected input from {site}: {e}");
                eprintln!("{}", self.hub.notifier().dump_recorder());
            }
            // Server-to-client frames arriving upstream, a hello that names
            // another node's site, is taken or overruns, and anything but a
            // hello from a connection nobody is bound to are nonsense. The
            // channel stays as it was.
            Step::Refused => self.conns[node - 1].m.protocol_errors += 1,
            // A hello asking for a collected prefix integrated its frontier
            // too, stays unbound and is counted like a refusal; its answer
            // is the count alone, so an honest client whose frontier was
            // held back too far learns where to say hello from again.
            Step::Trimmed(_) => {
                self.trace_ack(traced);
                self.conns[node - 1].m.protocol_errors += 1;
                self.answer_hello(ctx, node, sends);
            }
        }
    }

    /// Traced sessions: record an integrated ack — a hello's frontier
    /// included — at its place in the op stream.
    fn trace_ack(&mut self, msg: Option<EditorMsg>) {
        if let (Some(tr), Some(EditorMsg::ClientAck(a))) = (&self.trace, msg) {
            self.trace_acks.push((tr.len(), a));
        }
    }

    /// End the answer to node `node`'s hello — the catch-up the hub queued
    /// in `sends`, if it bound the channel — with `ServerAck{acked:
    /// integrated}`: where the client's re-sends start. The hub adds that
    /// ack only when the notifier sends acks and has integrated something;
    /// this notifier sends none, and the client needs the count even when
    /// it is 0.
    fn answer_hello(&mut self, ctx: &mut Ctx<'_, Segment>, node: NodeId, mut sends: Sends<NodeId>) {
        let site = SiteId(node as u32);
        let acked = self
            .hub
            .notifier()
            .state_vector()
            .received_from(site)
            .unwrap_or(0);
        let ack = EditorMsg::ServerAck(ServerAckMsg { acked });
        sends.push((node, Payload::encode(&ack)));
        self.put(ctx, sends);
    }

    /// Queue each send on its channel's connection.
    fn put(&mut self, ctx: &mut Ctx<'_, Segment>, sends: Sends<NodeId>) {
        for (node, p) in sends {
            self.conns[node - 1].queue(ctx, node, WRITE_TAG + node as u64 - 1, p);
        }
    }

    /// Close node `node`'s connection at this end: whoever it spoke for
    /// must say hello again.
    fn close(&mut self, node: NodeId) {
        self.conns[node - 1].close();
        self.hub.unbind(node);
    }

    /// The seeded crash point was reached: the primary dies mid-stride
    /// and the warm standby is promoted in its place. The channels in
    /// `written` got the dying process's last write round; every other
    /// queued round dies unwritten, and every connection closes, each
    /// client hearing its close one latency draw later. Everything
    /// appended to the WAL survives, which is exactly the invariant the
    /// chaos suite checks.
    fn crash_and_promote(&mut self, ctx: &mut Ctx<'_, Segment>, written: &[NodeId]) {
        let crash = self.crash.take().expect("crash plan present");
        self.crash_at = Some(ctx.now);
        let n = self.conns.len();
        for node in 1..=n {
            let c = &mut self.conns[node - 1];
            if written.contains(&node) {
                c.write(ctx, node);
            }
            if !c.dead {
                ctx.send(node, Segment::Close { conn: c.id });
            }
            self.close(node);
        }
        // A poisoned standby means the WAL and the primary disagreed —
        // refusing to serve divergent state beats silent corruption. The
        // promoted notifier inherits the dead primary's black box; mark
        // the lifecycle transition on it.
        let core = self.hub.core_mut();
        let replay = core
            .promote()
            .expect("a crash plan requires the standby")
            .expect("standby poisoned at promotion");
        core.set_now(ctx.now.as_micros());
        core.note_lifecycle(
            FlightEvent::new(EventKind::Crash)
                .with_ab(self.ops_integrated, crash.point.index())
                .with_detail(crash.point.name()),
        );
        core.note_lifecycle(
            FlightEvent::new(EventKind::Promote)
                .with_ab(replay.0, n as u64)
                .with_detail("standby-promoted"),
        );
        self.promoted_replay = Some(replay);
        self.rebound_at = vec![None; n];
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Segment>, from: NodeId, seg: Segment) {
        assert!(from >= 1, "notifier is node 0; peers are clients");
        let xi = from - 1;
        let (conn, payload) = match seg {
            Segment::Frame { conn, payload } => (conn, payload),
            Segment::Close { conn } if self.conns[xi].live(conn) => return self.close(from),
            Segment::Close { .. } => return,
        };
        if conn > self.conns[xi].id {
            // A new connection: its hello binds whoever it speaks for.
            self.close(from);
            self.conns[xi].open(conn);
        }
        let Some(payload) = self.conns[xi].accept(conn, payload) else {
            return;
        };
        // Intact but undecodable means a hostile or buggy peer: drop the
        // frame (nothing was decoded from it) and keep serving.
        let mut msgs = Vec::new();
        if decode_payload(payload.chunks(), &mut msgs).is_err() {
            self.conns[xi].m.protocol_errors += 1;
        }
        // A compound frame arrives as its queued messages, in queue order,
        // each from the site bound at its own arrival. A crash inside the
        // frame kills the rest of it with the connection.
        for m in msgs {
            if self.conns[xi].dead {
                break;
            }
            self.integrate(ctx, from, m);
        }
    }
}

struct RobustClient {
    inner: Box<Client>,
    conn: Connection,
    script: Vec<ScheduledEdit>,
    state: ConnState,
    auto_gc: bool,
    /// Local operations the last hello's answer said the notifier had
    /// integrated: a lower bound the next hello's frontier starts from.
    integrated: u64,
    trace: Option<Vec<ClientEvent>>,
}

impl RobustClient {
    fn send(&mut self, ctx: &mut Ctx<'_, Segment>, m: &EditorMsg) {
        self.conn.queue(ctx, 0, WRITE_TAG, Payload::encode(m));
    }

    /// Close this end of the connection and send the close along.
    fn hang_up(&mut self, ctx: &mut Ctx<'_, Segment>) {
        if !self.conn.dead {
            ctx.send(0, Segment::Close { conn: self.conn.id });
        }
        self.conn.close();
    }

    /// Open a new connection and say hello — the shared tail of a
    /// scheduled reconnect, of a connection lost under the client and of
    /// an answer that shows the frontier was held back too far. The hello
    /// is the connection's first payload; its frontier
    /// ([`Client::hello_frontier`]) is the cursor the catch-up starts from.
    fn begin_reconnect(&mut self, ctx: &mut Ctx<'_, Segment>) {
        self.hang_up(ctx);
        self.conn.open(self.conn.id + 1);
        let frontier = self.inner.hello_frontier(self.integrated);
        let received = self.inner.state_vector().received();
        self.state = ConnState::Hello { frontier, received };
        let hello = ClientAckMsg {
            origin: self.inner.site(),
            received: frontier,
        };
        self.send(ctx, &EditorMsg::ClientAck(hello));
    }

    /// The connection died under the client — a reset, or the notifier's
    /// close: re-dial.
    fn lost(&mut self, ctx: &mut Ctx<'_, Segment>) {
        self.conn.m.resets += 1;
        self.conn.close();
        self.begin_reconnect(ctx);
    }

    /// The `ServerAck` that ends a hello's answer: `integrated` says where
    /// the re-sends start. The frontier was exact if it is the one that
    /// count gives; only then was it surely served — a frontier held back
    /// below operations the notifier had in fact integrated may have asked
    /// for a collected prefix, and the hub then binds nothing. A short one
    /// says hello again, exactly.
    fn on_answer(&mut self, ctx: &mut Ctx<'_, Segment>, integrated: u64) {
        let ConnState::Hello { frontier, received } = self.state else {
            return; // a streaming client ignores every other ack
        };
        self.integrated = integrated;
        if frontier < self.inner.hello_frontier(integrated).min(received) {
            self.begin_reconnect(ctx);
            return;
        }
        self.state = ConnState::Connected;
        self.conn.m.resyncs += 1;
        for c in self.inner.unacked_local_since(integrated) {
            self.send(ctx, &EditorMsg::ClientOp(c));
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Segment>, seg: Segment) {
        let (conn, payload) = match seg {
            Segment::Frame { conn, payload } => (conn, payload),
            Segment::Close { conn } if self.conn.live(conn) => return self.lost(ctx),
            Segment::Close { .. } => return,
        };
        let Some(payload) = self.conn.accept(conn, payload) else {
            return;
        };
        // Intact but undecodable: hostile or buggy notifier — drop the
        // frame and keep editing.
        let mut msgs = Vec::new();
        if decode_payload(payload.chunks(), &mut msgs).is_err() {
            self.conn.m.protocol_errors += 1;
        }
        // A compound frame arrives as its queued messages, in queue order.
        for m in msgs {
            if !self.conn.live(conn) {
                break; // the answer said hello again: the rest is stale
            }
            match m {
                // The catch-up repeats what the replica executed past its
                // hello's frontier.
                EditorMsg::ServerOp(m)
                    if matches!(self.state, ConnState::Hello { .. })
                        && m.stamp.get(1) <= self.inner.state_vector().received() => {}
                EditorMsg::ServerOp(m) => match self.inner.try_on_server_op(m.clone()) {
                    Ok(out) => {
                        if let Some(tr) = &mut self.trace {
                            tr.push(ClientEvent::Remote {
                                msg: m,
                                checked: out.checked,
                            });
                        }
                        if self.auto_gc {
                            self.inner.gc();
                        }
                    }
                    Err(e) => {
                        // A server op that violates the protocol is
                        // dropped; the client stays usable offline.
                        eprintln!("client {} rejected server op: {e}", self.inner.site());
                        eprintln!("{}", self.inner.dump_recorder());
                        self.conn.m.protocol_errors += 1;
                    }
                },
                EditorMsg::ServerAck(a) => self.on_answer(ctx, a.acked),
                // Client-to-server frames arriving downstream are
                // nonsense; drop rather than crash.
                _ => self.conn.m.protocol_errors += 1,
            }
        }
        // A quiet client still owes the notifier a periodic bare ack, or
        // its frozen watermark would starve the GC. NOT while the hello's
        // answer is still arriving though: an ack covering the catch-up
        // would overtake the un-acked local ops the closing `ServerAck`
        // releases — the notifier would prune exactly the pending context
        // those ops still transform against. The ack stays latched and
        // goes out behind the re-sent ops.
        if self.state == ConnState::Connected {
            if let Some(a) = self.inner.take_pending_ack() {
                self.send(ctx, &EditorMsg::ClientAck(a));
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Segment>, tag: u64) {
        match tag {
            WRITE_TAG => self.conn.on_write_timer(ctx, 0),
            DISCONNECT_TAG => {
                self.state = ConnState::Disconnected;
                self.hang_up(ctx);
            }
            RECONNECT_TAG => self.begin_reconnect(ctx),
            k => {
                // A scheduled edit. It always applies locally; it goes on
                // the wire only while connected — otherwise the re-sends
                // after the hello (driven by the notifier's integrated
                // count) cover it, and sending now would double-transmit.
                if let Some(c) = self.script[k as usize].intent.apply_to(&mut self.inner) {
                    if let Some(tr) = &mut self.trace {
                        tr.push(ClientEvent::Local(c.clone()));
                    }
                    if self.state == ConnState::Connected {
                        self.send(ctx, &EditorMsg::ClientOp(c));
                    }
                }
            }
        }
    }
}

enum RobustNode {
    Notifier(Box<RobustNotifier>),
    Client(Box<RobustClient>),
}

impl RobustNode {
    /// Stamp the virtual clock onto the site's flight recorder, so events
    /// recorded inside carry sim time.
    fn set_now(&mut self, now: SimTime) {
        match self {
            RobustNode::Notifier(n) => n.hub.core_mut().set_now(now.as_micros()),
            RobustNode::Client(c) => c.inner.set_now(now.as_micros()),
        }
    }
}

impl Node<Segment> for RobustNode {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Segment>, from: NodeId, seg: Segment) {
        self.set_now(ctx.now);
        match self {
            RobustNode::Notifier(n) => n.on_message(ctx, from, seg),
            RobustNode::Client(c) => c.on_message(ctx, seg),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Segment>, tag: u64) {
        self.set_now(ctx.now);
        match self {
            RobustNode::Notifier(n) => {
                let xi = (tag - WRITE_TAG) as usize;
                n.conns[xi].on_write_timer(ctx, xi + 1);
            }
            RobustNode::Client(c) => c.on_timer(ctx, tag),
        }
    }

    /// Both ends of a reset close the connection it killed, if it is
    /// still theirs.
    fn on_reset(&mut self, ctx: &mut Ctx<'_, Segment>, peer: NodeId, seg: &Segment) {
        self.set_now(ctx.now);
        match self {
            RobustNode::Notifier(n) if n.conns[peer - 1].live(seg.conn()) => n.close(peer),
            RobustNode::Client(c) if c.conn.live(seg.conn()) => c.lost(ctx),
            _ => {}
        }
    }
}

/// Run a star/CVC session over connections and report. The network
/// faults come from [`SessionConfig::fault_plan`]; scheduled outages from
/// [`SessionConfig::disconnects`].
pub fn run_robust_session(cfg: &SessionConfig) -> SessionReport {
    run_robust_inner(cfg, false).0
}

/// As [`run_robust_session`], also recording a full [`SessionTrace`] for
/// oracle replay.
pub fn run_robust_session_traced(cfg: &SessionConfig) -> (SessionReport, SessionTrace) {
    let (report, trace) = run_robust_inner(cfg, true);
    (report, trace.expect("trace requested"))
}

/// The simulated star a session runs on: streams under the session's
/// fault plan, the notifier at node 0, one scripted client per workload
/// site at nodes `1..`, and every scripted edit scheduled.
fn build_star(cfg: &SessionConfig, traced: bool) -> Simulator<Segment, RobustNode> {
    let scripts = cfg.workload.generate();
    let mut sim = Simulator::new(cfg.latency, cfg.net_seed);
    sim.set_default_bandwidth(cfg.bandwidth_bytes_per_sec);
    sim.set_streams(true);
    sim.set_default_fault_plan(cfg.fault_plan.unwrap_or(FaultPlan::NONE));
    let notifier = RobustNotifier::new(cfg, scripts.len(), traced);
    sim.add_node(RobustNode::Notifier(Box::new(notifier)));
    for (i, script) in scripts.iter().enumerate() {
        sim.add_node(RobustNode::Client(Box::new(RobustClient {
            inner: Box::new(cfg.client(SiteId(i as u32 + 1))),
            conn: Connection::default(),
            script: script.clone(),
            state: ConnState::Connected,
            auto_gc: cfg.auto_gc,
            integrated: 0,
            trace: traced.then(Vec::new),
        })));
        for (k, edit) in script.iter().enumerate() {
            sim.schedule_timer(1 + i, edit.at, k as u64);
        }
    }
    sim
}

fn run_robust_inner(cfg: &SessionConfig, traced: bool) -> (SessionReport, Option<SessionTrace>) {
    assert_eq!(
        cfg.deployment,
        Deployment::StarCvc,
        "sessions over connections run the star/CVC deployment"
    );
    assert_eq!(
        cfg.client_mode,
        ClientMode::Streaming,
        "robust sessions run streaming clients"
    );
    assert!(
        cfg.crash.is_none() || cfg.standby,
        "a notifier crash plan requires the warm standby (cfg.standby)"
    );
    if let Some(crash) = cfg.crash {
        assert!(
            crash.at_op >= 1,
            "crash points are 1-based integration counts"
        );
    }
    let n = cfg.workload.n_sites;
    assert!(n >= 2, "sessions need at least two clients");
    let mut sim = build_star(cfg, traced);
    sim.record_deliveries(cfg.record_deliveries);
    for spec in &cfg.disconnects {
        assert!(spec.client < n, "disconnect spec for unknown client");
        assert!(spec.down.as_micros() > 0, "zero-length outage");
        sim.schedule_timer(1 + spec.client, spec.at, DISCONNECT_TAG);
        sim.schedule_timer(1 + spec.client, spec.at + spec.down, RECONNECT_TAG);
    }

    sim.run();

    let mut r = SessionReport {
        max_stamp_integers: 2,
        ..SessionReport::default()
    };
    let mut trace = traced.then(SessionTrace::default);
    for node in sim.nodes_mut() {
        match node {
            RobustNode::Notifier(rn) => {
                let mut m = *rn.hub.notifier().metrics();
                let mut stale_drops = 0;
                for c in &rn.conns {
                    assert!(c.outbox.is_empty(), "notifier left a write round unsent");
                    stale_drops += c.m.stale_drops;
                    m += c.m;
                }
                r.centre_metrics = Some(m);
                let notifier = rn.hub.notifier();
                r.final_docs.push(notifier.doc());
                r.max_history_len = r.max_history_len.max(notifier.history().len());
                if let (Some(tr), Some(steps)) = (&mut trace, rn.trace.take()) {
                    tr.notifier = steps;
                    tr.notifier_acks = std::mem::take(&mut rn.trace_acks);
                    tr.wal_image = rn
                        .hub
                        .core()
                        .wal()
                        .map_or_else(Vec::new, |w| w.bytes().to_vec());
                }
                if cfg.flight_recorder {
                    r.flight_traces
                        .push((SiteId(0), notifier.recorder().events()));
                }
                if let Some(crash_at) = rn.crash_at {
                    let wal = rn.hub.core().wal().expect("a crash implies the WAL");
                    let recovered_at = rn
                        .rebound_at
                        .iter()
                        .copied()
                        .collect::<Option<Vec<_>>>()
                        .and_then(|ts| ts.into_iter().max());
                    let (replay_ops, replay_acks) = rn.promoted_replay.unwrap_or((0, 0));
                    r.failover = Some(FailoverReport {
                        crash_at_us: crash_at.as_micros(),
                        recovered_at_us: recovered_at.map(|t| t.as_micros()),
                        resynced_clients: rn.rebound_at.iter().filter(|t| t.is_some()).count(),
                        standby_replay_ops: replay_ops,
                        standby_replay_acks: replay_acks,
                        wal_appends: wal.appends(),
                        wal_bytes: wal.bytes_appended(),
                        wal_live_bytes: wal.live_bytes() as u64,
                        snapshot_compactions: wal.compactions(),
                        wal_amplification: wal.amplification(),
                        stale_drops,
                    });
                }
            }
            RobustNode::Client(rc) => {
                // A crash session may legitimately end un-clean when the
                // failure is under test; convergence (checked below) and
                // the failover report carry the verdict instead of an
                // abort here.
                if cfg.crash.is_none() {
                    assert_eq!(
                        rc.state,
                        ConnState::Connected,
                        "client left disconnected or mid-hello at quiescence"
                    );
                }
                assert!(
                    rc.conn.outbox.is_empty(),
                    "client left a write round unsent"
                );
                let mut m = *rc.inner.metrics();
                m += rc.conn.m;
                r.client_metrics.push(m);
                r.final_docs.push(rc.inner.doc().to_owned());
                r.max_history_len = r.max_history_len.max(rc.inner.history().len());
                if let (Some(tr), Some(events)) = (&mut trace, rc.trace.take()) {
                    tr.clients.push(events);
                }
                if cfg.flight_recorder {
                    r.flight_traces
                        .push((rc.inner.site(), rc.inner.recorder().events()));
                }
            }
        }
    }
    (r.finish(cfg, &sim), trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{split_frame, write_frame, FrameError, MAX_FRAME_BYTES};
    use crate::msg::COMPOUND_MAX;
    use crate::notifier::Notifier;
    use cvc_core::state_vector::CompressedStamp;
    use cvc_ot::pos::PosOp;
    use cvc_ot::seq::SeqOp;
    use cvc_sim::fault::FlapSpec;
    use cvc_sim::latency::LatencyModel;
    use cvc_sim::sim::STALL_US;

    /// The re-exported frame checksum hashes a split payload as its
    /// logical bytes.
    #[test]
    fn payload_checksum_covers_both_chunks() {
        let whole = Payload::from_vec(vec![1, 2, 3, 4, 5, 6]);
        let split = Payload::from_parts(vec![1, 2, 3], vec![4, 5, 6].into());
        assert_eq!(whole, split, "same logical bytes");
        assert_eq!(
            frame_checksum(&whole.chunks()),
            frame_checksum(&split.chunks())
        );
    }

    /// A connection's frame as a socket carries it: `crate::frame`'s
    /// `[len][checksum][bytes]`, whose length is what the simulator
    /// charges the channel, and whose bytes split back into the payload.
    fn framed(payload: &Payload) -> Vec<u8> {
        let mut socket = Vec::new();
        write_frame(&mut socket, &payload.chunks());
        socket
    }

    #[test]
    fn reliable_frames_round_trip() {
        let payload = Payload::from_parts(vec![1, 2, 3], vec![4, 5, 6].into());
        let socket = framed(&payload);
        let seg = Segment::Frame {
            conn: 7,
            payload: payload.clone(),
        };
        assert_eq!(seg.wire_bytes(), socket.len(), "a frame costs its bytes");
        let Ok(Some((back, used))) = split_frame(&socket, MAX_FRAME_BYTES) else {
            panic!("a whole frame splits");
        };
        assert_eq!((back, used), (&payload.to_vec()[..], socket.len()));
        assert_eq!(Segment::Close { conn: 7 }.wire_bytes(), 0, "a FIN is free");
    }

    /// Every strict prefix of a connection's frame is "need more", never a
    /// panic and never a different frame.
    #[test]
    fn truncated_frames_are_rejected_not_panicked() {
        let socket = framed(&Payload::from_vec(vec![9; 40]));
        for cut in 0..socket.len() {
            assert_eq!(
                split_frame(&socket[..cut], MAX_FRAME_BYTES),
                Ok(None),
                "cut {cut}"
            );
        }
    }

    /// A header claiming a huge payload is refused against the cap before
    /// anything is buffered for it; a claim under the cap just waits.
    #[test]
    fn overlong_payload_length_is_truncation_not_allocation() {
        let mut socket = Vec::new();
        cvc_sim::wire::put_varint(&mut socket, 1 << 40);
        cvc_sim::wire::put_varint(&mut socket, 0);
        socket.extend_from_slice(&[1, 2, 3]);
        assert_eq!(
            split_frame(&socket, MAX_FRAME_BYTES),
            Err(FrameError::Oversized(1 << 40))
        );
        assert_eq!(split_frame(&socket, usize::MAX), Ok(None), "truncated");
    }

    impl RobustNode {
        fn as_notifier(&self) -> &RobustNotifier {
            match self {
                RobustNode::Notifier(n) => n,
                RobustNode::Client(_) => unreachable!("node is a client, not the notifier"),
            }
        }

        fn as_notifier_mut(&mut self) -> &mut RobustNotifier {
            match self {
                RobustNode::Notifier(n) => n,
                RobustNode::Client(_) => unreachable!("node is a client, not the notifier"),
            }
        }

        fn as_client(&self) -> &RobustClient {
            match self {
                RobustNode::Client(c) => c,
                RobustNode::Notifier(_) => unreachable!("node is the notifier, not a client"),
            }
        }
    }

    impl RobustClient {
        fn is_connected(&self) -> bool {
            self.state == ConnState::Connected
        }
    }

    fn robust_cfg(n: usize, seed: u64) -> SessionConfig {
        let mut cfg = SessionConfig::small(Deployment::StarCvc, n, seed);
        cfg.fault_plan = Some(FaultPlan::NONE);
        cfg
    }

    /// Under fan-out load the notifier's connections queue behind
    /// in-flight frames, so write rounds must coalesce: strictly fewer
    /// frames than editor messages, the same editor-layer work as on the
    /// ideal network, and no frame past [`COMPOUND_MAX`] messages.
    #[test]
    fn compound_framing_coalesces_under_load() {
        let mut cfg = robust_cfg(6, 23);
        cfg.workload.ops_per_site = 20;
        cfg.record_deliveries = true;
        let batched = run_robust_session(&cfg);
        assert!(batched.converged, "{:?}", batched.final_docs);
        let bt = batched.total_metrics();
        assert!(
            bt.data_frames_sent < bt.editor_msgs_sent,
            "no coalescing happened: {} frames for {} msgs",
            bt.data_frames_sent,
            bt.editor_msgs_sent
        );
        assert_eq!(batched.net.messages, bt.data_frames_sent, "no closes");
        let max_frame = COMPOUND_MAX * 64;
        assert!(batched.deliveries.iter().all(|d| d.bytes < max_frame));
        cfg.fault_plan = None;
        let ideal = crate::session::run_session(&cfg);
        assert_eq!(bt.ops_generated, ideal.total_metrics().ops_generated);
    }

    /// A serial workload never queues behind a frame in flight (each op is
    /// delivered long before the next exists), so every message is a frame
    /// of its own: no write round ever waits.
    #[test]
    fn serial_workload_sends_one_message_per_frame() {
        let mut cfg = robust_cfg(3, 37);
        cfg.workload.ops_per_site = 6;
        cfg.workload.mean_gap_us = 5_000_000; // ≫ RTT: strictly serial
        let r = run_robust_session(&cfg);
        assert!(r.converged);
        let t = r.total_metrics();
        assert!(t.editor_msgs_sent > 0);
        assert_eq!(t.data_frames_sent, t.editor_msgs_sent);
        assert_eq!(r.net.messages, t.data_frames_sent);
    }

    /// A burst queued in one callback leaves as one write round, through
    /// the TCP tier's `frame_groups`: frames of at most [`COMPOUND_MAX`]
    /// messages, in order.
    #[test]
    fn a_burst_coalesces_at_most_compound_max_per_frame() {
        let mut cfg = robust_cfg(2, 5);
        cfg.workload.ops_per_site = 0;
        let mut sim = build_star(&cfg, false);
        sim.record_deliveries(true);
        let burst = 2 * COMPOUND_MAX + 6;
        sim.with_node_ctx(0, |node, ctx| {
            let n = node.as_notifier_mut();
            // From 32 on, every ack's member head is two bytes, so the two
            // full frames are the same size.
            for acked in 32..32 + burst {
                let ack = EditorMsg::ServerAck(ServerAckMsg {
                    acked: acked as u64,
                });
                n.put(ctx, vec![(1, Payload::encode(&ack))]);
            }
        });
        sim.run();
        let sent = &sim.node(0).as_notifier().conns[0].m;
        assert_eq!(sent.editor_msgs_sent, burst as u64);
        assert_eq!(sent.data_frames_sent, 3, "32 + 32 + 6");
        let sizes: Vec<usize> = sim.deliveries().iter().map(|d| d.bytes).collect();
        assert_eq!(sizes.len(), 3);
        assert!(sizes[0] == sizes[1] && sizes[2] < sizes[0], "{sizes:?}");
    }

    /// Sessions under loss converge: each drop is one RTO of head-of-line
    /// stall, and frames never outnumber messages.
    #[test]
    fn lossy_batched_sessions_converge() {
        let mut cfg = robust_cfg(5, 61);
        cfg.workload.ops_per_site = 16;
        cfg.fault_plan = Some(FaultPlan::lossy(0.05));
        let r = run_robust_session(&cfg);
        assert!(r.converged, "{:?}", r.final_docs);
        assert!(r.fault_stats.delay_spiked > 0, "loss must stall");
        let t = r.total_metrics();
        assert!(
            t.data_frames_sent <= t.editor_msgs_sent,
            "frames can never exceed messages"
        );
    }

    #[test]
    fn clean_network_robust_session_converges_without_retransmits() {
        let r = run_robust_session(&robust_cfg(4, 11));
        assert!(r.converged, "{:?}", r.final_docs);
        let total = r.total_metrics();
        assert_eq!((total.resets, total.stale_drops), (0, 0));
        assert!(r.fault_stats.is_clean());
        assert_eq!(r.net.messages, total.data_frames_sent, "every frame lands");
    }

    /// A drop on a connection is TCP's retransmission, seen from above as
    /// a stall; duplicates and reordering never surface. Nothing is lost,
    /// so nothing resets.
    #[test]
    fn lossy_links_converge_via_retransmission() {
        let mut cfg = robust_cfg(4, 5);
        cfg.workload.ops_per_site = 12;
        cfg.record_deliveries = true;
        cfg.fault_plan = Some(FaultPlan {
            drop: 0.15,
            duplicate: 0.1,
            reorder: 0.1,
            reorder_extra_us: 40_000,
            ..FaultPlan::NONE
        });
        let r = run_robust_session(&cfg);
        assert!(r.converged, "{:?}", r.final_docs);
        let f = r.fault_stats;
        assert!(f.delay_spiked > 0, "drops must stall: {f:?}");
        assert_eq!((f.dropped, f.duplicated, f.reordered), (0, 0, 0));
        assert_eq!(f.inversions_observed, 0);
        let total = r.total_metrics();
        assert_eq!((total.resets, total.stale_drops), (0, 0));
        let slowest = r.deliveries.iter().map(|d| d.delivered_at - d.sent_at);
        assert!(slowest.max().expect("frames") >= SimDuration::from_micros(STALL_US));
    }

    /// A corrupted frame fails its checksum and the receiver closes the
    /// connection: each one is a counted reset, the client re-dials, and
    /// the session converges.
    #[test]
    fn corruption_is_caught_by_checksums() {
        let mut cfg = robust_cfg(3, 8);
        cfg.workload.ops_per_site = 10;
        cfg.fault_plan = Some(FaultPlan {
            corrupt: 0.2,
            ..FaultPlan::NONE
        });
        let r = run_robust_session(&cfg);
        assert!(r.converged, "{:?}", r.final_docs);
        let resets: u64 = r.client_metrics.iter().map(|m| m.resets).sum();
        assert!(resets > 0, "{:?}", r.fault_stats);
        // A reset on a connection the client already left is no reset.
        assert!(resets <= r.fault_stats.corrupted);
        assert!(r.total_metrics().resyncs > 0, "each re-dial says hello");
    }

    #[test]
    fn link_flap_is_survived() {
        let mut cfg = robust_cfg(3, 21);
        cfg.workload.ops_per_site = 10;
        cfg.fault_plan = Some(FaultPlan {
            flap: Some(FlapSpec {
                period_us: 700_000,
                down_us: 200_000,
                offset_us: 100_000,
            }),
            ..FaultPlan::NONE
        });
        let r = run_robust_session(&cfg);
        assert!(r.converged, "{:?}", r.final_docs);
        assert!(r.fault_stats.flap_dropped > 0);
        assert!(r.total_metrics().resets > 0);
    }

    /// A reset while a write round is parked behind a frame in flight: the
    /// parked round dies with the connection, the frame in flight lands on
    /// a dead one, and the new connection carries only its hello's answer.
    #[test]
    fn a_reset_drops_the_parked_round_with_the_connection() {
        let mut cfg = robust_cfg(2, 5);
        cfg.workload.ops_per_site = 0;
        cfg.latency = LatencyModel::Constant(10_000);
        let mut sim = build_star(&cfg, false);
        let ack = |acked| Payload::encode(&EditorMsg::ServerAck(ServerAckMsg { acked }));
        let put = |sim: &mut Simulator<Segment, RobustNode>, acked| {
            sim.with_node_ctx(0, |node, ctx| {
                node.as_notifier_mut().put(ctx, vec![(1, ack(acked))])
            });
        };
        put(&mut sim, 100);
        sim.run_until(SimTime::from_millis(1));
        put(&mut sim, 101);
        put(&mut sim, 102);
        let in_flight = Segment::Close { conn: 0 };
        sim.with_node_ctx(0, |node, ctx| node.on_reset(ctx, 1, &in_flight));
        sim.with_node_ctx(1, |node, ctx| node.on_reset(ctx, 0, &in_flight));
        sim.run();
        let n = sim.node(0).as_notifier();
        assert_eq!(
            n.conns[0].m.data_frames_sent, 2,
            "the first ack, the answer"
        );
        assert_eq!(n.hub.site_of(1), Some(SiteId(1)), "the hello bound it");
        let c = sim.node(1).as_client();
        assert!(c.is_connected());
        assert_eq!(
            (c.conn.id, c.conn.m.resets, c.conn.m.stale_drops),
            (1, 1, 1)
        );
        let answer = ack(0).len() as u64;
        assert_eq!(c.conn.m.delivered_payload_bytes, answer, "nothing parked");
    }

    #[test]
    fn disconnected_client_resyncs_and_converges() {
        let mut cfg = robust_cfg(4, 3);
        cfg.workload.ops_per_site = 15;
        // Knock client 2 out for a stretch in the middle of the session;
        // it keeps editing offline.
        cfg.disconnects = vec![DisconnectSpec {
            client: 1,
            at: SimTime::from_millis(400),
            down: SimDuration::from_millis(900),
        }];
        let r = run_robust_session(&cfg);
        assert!(r.converged, "{:?}", r.final_docs);
        let total = r.total_metrics();
        assert!(total.resyncs >= 2, "served + completed: {}", total.resyncs);
        assert!(
            total.resync_replayed > 0,
            "the notifier must replay the missed suffix"
        );
        let centre = r.centre_metrics.expect("star has a centre");
        assert!(centre.robustness_summary().is_some());
    }

    /// A client that edits only while it is away: the notifier has
    /// integrated none of its ops when it says hello, so the hub's answer
    /// alone (no ack when the count is 0) would leave it waiting forever.
    /// The closing `ServerAck{acked: 0}` is what releases its re-sends.
    #[test]
    fn ops_made_entirely_offline_converge_after_the_hello() {
        let mut cfg = robust_cfg(3, 47);
        cfg.workload.ops_per_site = 6;
        let scripts = cfg.workload.generate();
        let last = scripts[0]
            .iter()
            .map(|e| e.at)
            .max()
            .expect("client 0 edits");
        assert!(scripts[0].iter().all(|e| e.at > SimTime::ZERO));
        cfg.disconnects = vec![DisconnectSpec {
            client: 0,
            at: SimTime::ZERO,
            down: SimDuration::from_micros(last.as_micros() + 100_000),
        }];
        let r = run_robust_session(&cfg);
        assert!(r.converged, "{:?}", r.final_docs);
        let c0 = &r.client_metrics[0];
        assert_eq!(c0.ops_generated, 6);
        assert_eq!(c0.resyncs, 1, "one hello, one answer");
        assert!(r.final_doc.len() > cfg.initial_doc.len());
    }

    /// An honest client that does not know its in-flight ops were
    /// integrated holds its hello's frontier back to their stamps; when
    /// the collector already trimmed past that, the hub binds nothing and
    /// the answer is the count alone — the client says hello again from
    /// the exact frontier. More connections than completed handshakes.
    #[test]
    fn a_frontier_held_back_too_far_says_hello_again() {
        let mut cfg = robust_cfg(4, 3);
        cfg.workload.ops_per_site = 15;
        cfg.disconnects = vec![DisconnectSpec {
            client: 1,
            at: SimTime::from_millis(400),
            down: SimDuration::from_millis(900),
        }];
        let r = run_robust_session(&cfg);
        assert!(r.converged, "{:?}", r.final_docs);
        let centre = r.centre_metrics.expect("star has a centre");
        let c1 = &r.client_metrics[1];
        assert_eq!(c1.resyncs, 1, "one completed handshake");
        assert_eq!(centre.resyncs, 1, "one hello bound the channel");
        assert_eq!(centre.protocol_errors, 1, "the trimmed hello is counted");
    }

    /// `payload` as a frame of connection `conn`.
    fn frame(conn: u32, payload: Payload) -> Segment {
        Segment::Frame { conn, payload }
    }

    /// Node identity stands in for an authenticated connection: a hello
    /// on node 1 naming site 2 is hostile, binds nothing, and leaves site
    /// 2's own channel alone.
    #[test]
    fn a_hello_naming_another_nodes_site_binds_nothing() {
        let mut cfg = robust_cfg(3, 5);
        cfg.workload.ops_per_site = 0;
        let mut sim = build_star(&cfg, false);
        let hello = ClientAckMsg {
            origin: SiteId(2),
            received: 0,
        };
        sim.inject_send(
            1,
            0,
            frame(1, Payload::encode(&EditorMsg::ClientAck(hello))),
        );
        sim.run();
        let node = sim.node(0).as_notifier();
        assert_eq!(node.conns[0].m.protocol_errors, 1);
        assert_eq!(
            node.hub.site_of(1),
            None,
            "the new connection speaks for nobody"
        );
        assert_eq!(node.hub.channel_of(SiteId(1)), None);
        assert_eq!(node.hub.site_of(2), Some(SiteId(2)));
        assert_eq!(node.conns[0].m.resync_replayed, 0, "no catch-up was served");
    }

    /// Once a new connection has said hello, a frame of the old one is a
    /// straggler of a connection that is gone: dropped and counted, not
    /// integrated.
    #[test]
    fn old_epoch_frames_after_the_hello_are_dropped() {
        let mut cfg = robust_cfg(3, 5);
        cfg.workload.ops_per_site = 0;
        let mut sim = build_star(&cfg, false);
        sim.schedule_timer(1, SimTime::from_millis(1), RECONNECT_TAG);
        sim.run();
        let client = sim.node(1).as_client();
        assert!(client.is_connected() && client.conn.id == 1);
        let op = Client::new(SiteId(1), &cfg.initial_doc).insert(0, "Z");
        sim.inject_send(1, 0, frame(0, Payload::encode(&EditorMsg::ClientOp(op))));
        sim.run();
        let node = sim.node(0).as_notifier();
        assert_eq!((node.conns[0].id, node.conns[0].m.stale_drops), (1, 1));
        assert_eq!(node.hub.site_of(1), Some(SiteId(1)), "the hello bound it");
        assert_eq!(node.ops_integrated, 0);
        assert_eq!(node.hub.notifier().doc(), cfg.initial_doc);
    }

    #[test]
    fn repeated_outages_of_multiple_clients_converge() {
        let mut cfg = robust_cfg(5, 77);
        cfg.workload.ops_per_site = 12;
        cfg.fault_plan = Some(FaultPlan::lossy(0.05));
        cfg.disconnects = vec![
            DisconnectSpec {
                client: 0,
                at: SimTime::from_millis(300),
                down: SimDuration::from_millis(500),
            },
            DisconnectSpec {
                client: 3,
                at: SimTime::from_millis(600),
                down: SimDuration::from_millis(700),
            },
            DisconnectSpec {
                client: 0,
                at: SimTime::from_millis(1600),
                down: SimDuration::from_millis(400),
            },
        ];
        let r = run_robust_session(&cfg);
        assert!(r.converged, "{:?}", r.final_docs);
        assert!(r.total_metrics().resyncs >= 6);
    }

    #[test]
    fn traced_run_records_every_integration() {
        let mut cfg = robust_cfg(3, 13);
        cfg.workload.ops_per_site = 6;
        cfg.fault_plan = Some(FaultPlan::lossy(0.1));
        let (r, trace) = run_robust_session_traced(&cfg);
        assert!(r.converged);
        let locals: usize = trace.clients.iter().flatten().fold(0, |acc, e| {
            acc + usize::from(matches!(e, ClientEvent::Local(_)))
        });
        assert_eq!(
            trace.notifier.len(),
            locals,
            "every generated op is integrated exactly once"
        );
        let remotes: usize = trace.clients.iter().flatten().fold(0, |acc, e| {
            acc + usize::from(matches!(e, ClientEvent::Remote { .. }))
        });
        let broadcast_total: usize = trace.notifier.iter().map(|s| s.broadcasts.len()).sum();
        assert_eq!(remotes, broadcast_total, "every broadcast executes once");
    }

    #[test]
    fn partition_window_is_survived() {
        // One long outage of every channel mid-session: each frame sent
        // into it resets its connection, and the clients re-dial until it
        // lifts.
        let mut cfg = robust_cfg(3, 41);
        cfg.workload.ops_per_site = 10;
        cfg.fault_plan = Some(FaultPlan {
            flap: Some(FlapSpec {
                period_us: 100_000_000, // one cycle: effectively one outage
                down_us: 800_000,
                offset_us: 500_000,
            }),
            ..FaultPlan::NONE
        });
        let r = run_robust_session(&cfg);
        assert!(r.converged, "{:?}", r.final_docs);
        assert!(r.fault_stats.flap_dropped > 0);
    }

    #[test]
    fn reliable_sessions_are_reproducible() {
        let mut cfg = robust_cfg(4, 19);
        cfg.workload.ops_per_site = 10;
        cfg.fault_plan = Some(FaultPlan {
            drop: 0.1,
            corrupt: 0.05,
            ..FaultPlan::NONE
        });
        let a = run_robust_session(&cfg);
        let b = run_robust_session(&cfg);
        assert_eq!(a.final_doc, b.final_doc);
        assert_eq!(a.net.bytes, b.net.bytes);
        assert_eq!(a.quiesced_at, b.quiesced_at);
        assert_eq!(a.total_metrics(), b.total_metrics());
    }

    /// A fault plan — even the empty one — or an outage or a standby puts
    /// a session on connections; without any, it runs on the ideal network.
    #[test]
    fn run_session_delegates_to_the_reliability_layer() {
        let mut cfg = robust_cfg(3, 2);
        cfg.fault_plan = Some(FaultPlan::lossy(0.1));
        let r = crate::session::run_session(&cfg);
        assert!(r.converged);
        assert!(r.fault_stats.delay_spiked > 0);
        cfg.fault_plan = Some(FaultPlan::NONE);
        let frames = |r: &SessionReport| r.total_metrics().data_frames_sent;
        assert!(frames(&crate::session::run_session(&cfg)) > 0);
        cfg.fault_plan = None;
        assert_eq!(frames(&crate::session::run_session(&cfg)), 0);
        cfg.standby = true;
        assert!(frames(&crate::session::run_session(&cfg)) > 0);
    }

    /// Off the connections, the same fault classes must be *detected* by
    /// the editor protocol (formula counters make FIFO gaps visible), not
    /// silently mis-integrated. A duplicated client op is the canonical
    /// case.
    #[test]
    fn without_reliability_duplicates_are_detected_as_fifo_violations() {
        use crate::error::ProtocolError;
        let mut n = Notifier::new(2, "seed");
        let mut c1 = Client::new(SiteId(1), "seed");
        c1.set_share_caret(false);
        let m = c1.local_edit(SeqOp::from_pos(&PosOp::insert(0, "x"), 4));
        n.try_on_client_op_outcome(m.clone())
            .expect("valid client op");
        let err = n
            .try_on_client_op_outcome(m)
            .expect_err("duplicate must be caught");
        assert!(
            matches!(err, ProtocolError::FifoViolation { got: 1, .. }),
            "{err:?}"
        );
        // A dropped (skipped) op is equally visible as a gap.
        let _skipped = c1.local_edit(SeqOp::from_pos(&PosOp::insert(1, "y"), 5));
        let m3 = c1.local_edit(SeqOp::from_pos(&PosOp::insert(2, "z"), 6));
        let err = n
            .try_on_client_op_outcome(m3)
            .expect_err("gap must be caught");
        assert!(
            matches!(
                err,
                ProtocolError::FifoViolation {
                    expected: 2,
                    got: 3,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    /// A frame says who sent it by the connection it arrived on. Site 1's
    /// connection carrying what would be site 2's valid first op gets site
    /// 1 evicted — through the log — and leaves site 2 a member and the
    /// document untouched.
    #[test]
    fn forged_origin_on_a_reliable_channel_evicts_the_sender() {
        let mut cfg = robust_cfg(3, 5);
        cfg.workload.ops_per_site = 0;
        cfg.standby = true;
        let mut sim = build_star(&cfg, false);
        let forged = Client::new(SiteId(2), &cfg.initial_doc).insert(0, "F");
        sim.inject_send(
            1,
            0,
            frame(0, Payload::encode(&EditorMsg::ClientOp(forged))),
        );
        sim.run();
        let node = sim.node(0).as_notifier();
        let live = node.hub.notifier();
        assert!(!live.is_active(SiteId(1)), "the sender is out");
        assert!(live.is_active(SiteId(2)) && live.is_active(SiteId(3)));
        assert_eq!(live.doc(), cfg.initial_doc);
        let wal = node.hub.core().wal().expect("standby sessions log");
        let cold = Standby::from_log(wal.bytes(), 3, &cfg.initial_doc).expect("scan");
        assert!(!cold.notifier().is_active(SiteId(1)), "and stays out");
    }

    /// `msg` encoded, then one byte the message does not account for.
    fn with_trailing_junk(msg: &EditorMsg) -> Payload {
        let mut bytes = Payload::encode(msg).to_vec();
        bytes.push(0x2a);
        Payload::from_vec(bytes)
    }

    /// The twin and the socket agree on what a payload is: a valid
    /// `ClientOp` followed by one junk byte kills a TCP connection in the
    /// worker's decode, so the simulator's notifier must refuse it too —
    /// counted hostile, nothing integrated — not read the op and ignore
    /// the remainder.
    #[test]
    fn client_op_with_a_trailing_byte_is_hostile_at_the_notifier() {
        let mut cfg = robust_cfg(3, 5);
        cfg.workload.ops_per_site = 0;
        let mut sim = build_star(&cfg, false);
        let op = Client::new(SiteId(1), &cfg.initial_doc).insert(0, "J");
        sim.inject_send(1, 0, frame(0, with_trailing_junk(&EditorMsg::ClientOp(op))));
        sim.run();
        let node = sim.node(0).as_notifier();
        assert_eq!(node.conns[0].m.protocol_errors, 1);
        assert_eq!(node.ops_integrated, 0);
        assert_eq!(node.hub.notifier().doc(), cfg.initial_doc);
    }

    /// The client-side mirror: a `ServerOp` with a trailing byte is
    /// dropped whole and the replica stays where it was.
    #[test]
    fn server_op_with_a_trailing_byte_is_hostile_at_the_client() {
        let mut cfg = robust_cfg(3, 5);
        cfg.workload.ops_per_site = 0;
        let mut sim = build_star(&cfg, false);
        let len = cfg.initial_doc.chars().count();
        let op = ServerOpMsg {
            stamp: CompressedStamp::new(1, 0),
            op: SeqOp::from_pos(&PosOp::insert(0, "J"), len),
            cursor: None,
        };
        sim.inject_send(0, 1, frame(0, with_trailing_junk(&EditorMsg::ServerOp(op))));
        sim.run();
        let node = sim.node(1).as_client();
        assert_eq!(node.conn.m.protocol_errors, 1);
        assert_eq!(node.inner.doc(), cfg.initial_doc);
        assert_eq!(node.inner.state_vector().received(), 0);
    }

    /// Latencies come from the simulator's delivery records, as in plain
    /// sessions: every one positive, and a stalled frame carries its
    /// stall.
    #[test]
    fn latency_log_survives_faults_and_joins_cleanly() {
        let mut cfg = robust_cfg(3, 29);
        cfg.workload.ops_per_site = 8;
        cfg.fault_plan = Some(FaultPlan::lossy(0.2));
        cfg.latency = LatencyModel::internet();
        cfg.record_deliveries = true;
        let r = run_robust_session(&cfg);
        assert!(r.converged);
        let lat: Vec<u64> = r
            .deliveries
            .iter()
            .map(|d| (d.delivered_at - d.sent_at).as_micros())
            .collect();
        assert_eq!(lat.len() as u64, r.net.messages);
        assert!(lat.iter().all(|&l| l > 0));
        assert!(lat.iter().any(|&l| l >= STALL_US));
    }

    #[test]
    fn stamps_survive_reliable_transport_byte_for_byte() {
        // The whole point: the editor layer above the connections still
        // never sees more than two timestamp integers.
        let mut cfg = robust_cfg(4, 57);
        cfg.fault_plan = Some(FaultPlan {
            drop: 0.1,
            reorder: 0.1,
            reorder_extra_us: 50_000,
            ..FaultPlan::NONE
        });
        let (r, trace) = run_robust_session_traced(&cfg);
        assert!(r.converged);
        assert_eq!(r.max_stamp_integers, 2);
        for step in &trace.notifier {
            let _: CompressedStamp = step.msg.stamp; // two integers, by type
        }
    }

    /// A standby that only ever tails the WAL yields no failover report
    /// and the same session: the WAL sits beside the wire, and detecting a
    /// crash needs no traffic of its own — a dead process's connections
    /// close.
    #[test]
    fn standby_without_crash_yields_no_failover() {
        let mut cfg = robust_cfg(4, 97);
        cfg.workload.ops_per_site = 10;
        let plain = run_robust_session(&cfg);
        cfg.standby = true;
        let shadowed = run_robust_session(&cfg);
        assert!(plain.converged && shadowed.converged);
        assert!(shadowed.failover.is_none(), "no crash, no failover");
        assert_eq!(plain.final_doc, shadowed.final_doc);
        assert_eq!(plain.net, shadowed.net, "the same wire traffic");
        let (p, s) = (plain.total_metrics(), shadowed.total_metrics());
        assert_eq!(p.editor_msgs_sent, s.editor_msgs_sent);
    }

    fn crash_cfg(n: usize, seed: u64, at_op: u64, point: CrashPoint) -> SessionConfig {
        let mut cfg = robust_cfg(n, seed);
        cfg.workload.ops_per_site = 12;
        cfg.standby = true;
        cfg.crash = Some(NotifierCrash { at_op, point });
        cfg
    }

    fn assert_failed_over(r: &crate::session::SessionReport, n: usize) -> FailoverReport {
        assert!(r.converged, "{:?}", r.final_docs);
        let fo = r.failover.clone().expect("crash must yield a report");
        assert_eq!(fo.resynced_clients, n, "every client must resync");
        assert!(
            fo.recovered_at_us.is_some(),
            "recovery never completed: {fo:?}"
        );
        assert!(fo.recovery_us().expect("recovered") > 0);
        assert!(fo.wal_appends > 0, "the WAL must have seen the ops");
        assert!(
            fo.standby_replay_ops > 0,
            "the standby must have replayed the log"
        );
        // Framing, checksums and acks make the log strictly larger than
        // its op payload, but never wildly so.
        assert!(fo.wal_amplification > 1.0, "{}", fo.wal_amplification);
        fo
    }

    #[test]
    fn crash_before_send_fails_over_and_converges() {
        let r = run_robust_session(&crash_cfg(4, 101, 7, CrashPoint::BeforeSend));
        let fo = assert_failed_over(&r, 4);
        // The op was logged but never broadcast: the WAL replay is the
        // only reason the promoted notifier knows it.
        assert!(fo.standby_replay_ops >= 7);
    }

    #[test]
    fn crash_mid_broadcast_fails_over_and_converges() {
        let r = run_robust_session(&crash_cfg(4, 103, 7, CrashPoint::MidBroadcast));
        let fo = assert_failed_over(&r, 4);
        // What the clients had in flight to the dead primary lands on a
        // closed connection: dropped and counted, never integrated.
        assert!(fo.stale_drops > 0, "{fo:?}");
    }

    #[test]
    fn crash_after_send_fails_over_and_converges() {
        let r = run_robust_session(&crash_cfg(4, 107, 7, CrashPoint::AfterSend));
        let fo = assert_failed_over(&r, 4);
        assert!(fo.stale_drops > 0, "{fo:?}");
    }

    #[test]
    fn failover_survives_a_lossy_network() {
        for point in [
            CrashPoint::BeforeSend,
            CrashPoint::MidBroadcast,
            CrashPoint::AfterSend,
        ] {
            let mut cfg = crash_cfg(4, 113, 9, point);
            cfg.fault_plan = Some(FaultPlan::lossy(0.01));
            let r = run_robust_session(&cfg);
            assert_failed_over(&r, 4);
        }
    }

    /// Site 1 re-dials and its hello is taken by the primary, which dies
    /// (on site 2's op, landing right behind it) before the answer's write
    /// round leaves: the answer dies with the process. The dead primary's
    /// close reaches site 1 mid-hello, and it says hello again to the
    /// promoted standby, which serves it; everyone converges.
    #[test]
    fn a_hello_whose_answer_died_with_the_primary_is_said_again() {
        let mut cfg = crash_cfg(3, 36, 1, CrashPoint::AfterSend);
        cfg.workload.ops_per_site = 0;
        cfg.latency = LatencyModel::Constant(10_000);
        let mut sim = build_star(&cfg, false);
        sim.schedule_timer(1, SimTime::from_millis(1), RECONNECT_TAG);
        sim.run_until(SimTime::from_millis(1));
        sim.with_node_ctx(2, |node, ctx| {
            let RobustNode::Client(c) = node else {
                unreachable!("node 2 is a client");
            };
            let op = c.inner.insert(0, "Z");
            c.send(ctx, &EditorMsg::ClientOp(op));
        });
        sim.run();
        let n = sim.node(0).as_notifier();
        assert!(n.crash_at.is_some(), "the op crashed the primary");
        assert!(n.rebound_at.iter().all(Option::is_some), "all re-dialed");
        // The primary bound the first hello; the promoted standby bound
        // all three channels.
        assert_eq!(n.conns.iter().map(|c| c.m.resyncs).sum::<u64>(), 4);
        let c1 = sim.node(1).as_client();
        assert!(c1.is_connected());
        assert_eq!((c1.conn.id, c1.conn.m.resets), (2, 1), "two dials");
        let doc = n.hub.notifier().doc();
        assert!(doc.starts_with('Z'));
        for i in 1..=3 {
            assert_eq!(sim.node(i).as_client().inner.doc(), doc);
        }
    }

    #[test]
    fn failover_sessions_are_reproducible() {
        let cfg = crash_cfg(5, 127, 11, CrashPoint::MidBroadcast);
        let a = run_robust_session(&cfg);
        let b = run_robust_session(&cfg);
        assert_eq!(a.final_doc, b.final_doc);
        assert_eq!(a.quiesced_at, b.quiesced_at);
        let (fa, fb) = (a.failover.expect("crash"), b.failover.expect("crash"));
        assert_eq!(fa.recovered_at_us, fb.recovered_at_us);
        assert_eq!(fa.stale_drops, fb.stale_drops);
        assert_eq!(fa.wal_bytes, fb.wal_bytes);
    }

    /// The promoted notifier inherits the primary's flight-recorder
    /// history and stamps the crash + promotion lifecycle events onto it.
    #[test]
    fn promoted_recorder_carries_crash_and_promote_events() {
        let mut cfg = crash_cfg(4, 131, 7, CrashPoint::MidBroadcast);
        cfg.flight_recorder = true;
        // Big enough that nothing wraps the ring past the crash/promote
        // events recorded mid-session.
        cfg.flight_recorder_notifier_capacity = 1 << 14;
        let r = run_robust_session(&cfg);
        assert!(r.converged);
        let (_, events) = r
            .flight_traces
            .iter()
            .find(|(site, _)| *site == SiteId(0))
            .expect("notifier trace");
        let crashes: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Crash)
            .collect();
        let promotes: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::Promote)
            .collect();
        assert_eq!(crashes.len(), 1, "exactly one crash");
        assert_eq!(promotes.len(), 1, "exactly one promotion");
        assert_eq!(crashes[0].a, 7, "ops integrated at the crash");
        assert_eq!(crashes[0].b, CrashPoint::MidBroadcast.index());
        assert!(promotes[0].a >= 7, "replayed at least the logged ops");
        // The inherited pre-crash history is still there.
        assert!(
            events.iter().any(|e| e.kind == EventKind::Execute),
            "primary's integrations must survive the hand-off"
        );
    }
}
