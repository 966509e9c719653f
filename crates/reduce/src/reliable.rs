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
//! Like a plain session it is a timed chooser over the one [`StarWorld`]:
//! the simulator decides *when*, the world decides *what* — the hub
//! integrates and answers hellos, the replicas integrate, and the
//! reconnect policy (the hello's held-back frontier, the skipped repeats,
//! the re-sends and the exact second hello) and the crash are world
//! actions. What is left here is transport:
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
//!   message is its hello ([`StarWorld::open_hello`]). The notifier ends
//!   the hub's answer with `ServerAck{acked: integrated}`, which the
//!   client hands to [`StarWorld::answer`]. The hello rides the channel
//!   behind the old connection's traffic, close included, so it always
//!   finds its channel unbound.
//! * The seeded crash cuts the dying stride's sends at its
//!   [`CrashPoint`], writes what the process had written, closes every
//!   connection and calls [`StarWorld::crash`].
//!
//! [`run_robust_session_traced`] additionally records every integration
//! (messages, formula verdicts, broadcasts) so the chaos tests can replay
//! the run against a ground-truth oracle.

pub use crate::frame::frame_checksum;
use crate::frame::framed_len;
use crate::hub::Step;
use crate::metrics::SiteMetrics;
use crate::msg::{
    decode_payload, frame_groups, ClientAckMsg, ClientOpMsg, EditorMsg, Payload, ServerAckMsg,
    ServerOpMsg,
};
use crate::session::{
    network, ClientMode, Deployment, FailoverReport, SessionConfig, SessionReport,
};
use crate::workload::ScheduledEdit;
use crate::world::StarWorld;
use cvc_core::site::SiteId;
use cvc_sim::fault::FaultPlan;
use cvc_sim::sim::{Ctx, Fired, Node, NodeId, Simulator};
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

/// What one simulated channel carries: a frame of connection `conn` — an
/// encoded editor message, or a write round's compound of several — or,
/// with no frame, the connection's FIN.
#[derive(Debug, Clone)]
struct Segment {
    conn: u32,
    frame: Option<Payload>,
}

impl WireSize for Segment {
    /// A frame costs what it does on a socket; the connection is the
    /// socket's, not a byte on the wire. The checksum is four fixed bytes,
    /// so the length needs no hashing.
    fn wire_bytes(&self) -> usize {
        self.frame.as_ref().map_or(0, |p| framed_len(p.len(), 0))
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
    /// A client's end: hellos in a row whose connection the notifier
    /// closed before answering. At two the client stops re-dialing — an
    /// evicted site is out for good.
    unanswered: u8,
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
            let frame = Some(payload);
            ctx.send(peer, Segment { conn, frame });
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

    /// Close this end and send `peer` the FIN, if it is still open.
    fn hang_up(&mut self, ctx: &mut Ctx<'_, Segment>, peer: NodeId) {
        if !self.dead {
            let fin = Segment {
                conn: self.id,
                frame: None,
            };
            ctx.send(peer, fin);
        }
        self.close();
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

    /// The messages of a frame that arrived, if it came on this live
    /// connection; a frame on a dead one is dropped and counted (`None`). Intact
    /// but undecodable means a hostile or buggy peer: nothing was decoded
    /// from it, and it is counted too.
    fn receive(&mut self, conn: u32, payload: &Payload) -> Option<Vec<EditorMsg>> {
        if !self.live(conn) {
            self.m.stale_drops += 1;
            return None;
        }
        self.m.delivered_payload_bytes += payload.len() as u64;
        let mut msgs = Vec::new();
        if decode_payload(payload.chunks(), &mut msgs).is_err() {
            self.m.protocol_errors += 1;
        }
        Some(msgs)
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

/// A simulator node that holds nothing: every event is the [`Star`]'s,
/// handed to it through [`Simulator::with_node_ctx`].
struct Idle;

impl Node<Segment> for Idle {
    fn on_message(&mut self, _: &mut Ctx<'_, Segment>, _: NodeId, _: Segment) {}
}

/// The star over connections: the world, and what is genuinely the
/// transport's — both ends of each client's connection, the crash plan,
/// the failover bookkeeping and the trace. The notifier is node 0 and
/// client index `i` is node `i + 1`, on channel `i` for the whole
/// session: node identity stands in for an authenticated connection.
struct Star {
    world: StarWorld,
    /// Per channel, the notifier's end and the client's: node `me` holds
    /// end `usize::from(me != 0)`.
    ends: Vec<[Connection; 2]>,
    scripts: Vec<Vec<ScheduledEdit>>,
    auto_gc: bool,
    /// Seeded crash plan; taken when it fires.
    crash: Option<NotifierCrash>,
    /// A fired crash plan: when the primary died, and the promoted
    /// standby's `(replayed ops, replayed acks)`.
    failover: Option<(SimTime, (u64, u64))>,
    /// Per channel, when a hello bound it again after the crash; all
    /// `Some` once recovery completed.
    rebound_at: Vec<Option<SimTime>>,
    trace: Option<SessionTrace>,
}

impl Star {
    /// The star a session runs on: its world
    /// ([`SessionConfig::core`] and one streaming replica per workload
    /// site), one connection per site, and streams under the session's
    /// fault plan with every scripted edit scheduled.
    fn new(cfg: &SessionConfig, traced: bool) -> (Simulator<Segment, Idle>, Star) {
        let scripts = cfg.workload.generate();
        let n = scripts.len();
        let mut sim = network(cfg, (0..=n).map(|_| Idle), &scripts, 1);
        sim.set_streams(true);
        sim.set_default_fault_plan(cfg.fault_plan.unwrap_or(FaultPlan::NONE));
        let star = Star {
            world: StarWorld::for_session(cfg),
            ends: (0..n).map(|_| Default::default()).collect(),
            scripts,
            auto_gc: cfg.auto_gc,
            crash: cfg.crash,
            failover: None,
            rebound_at: Vec::new(),
            trace: traced.then(|| SessionTrace {
                clients: vec![Vec::new(); n],
                ..SessionTrace::default()
            }),
        };
        (sim, star)
    }

    /// Hand every event due by `deadline` to its node's side of the star.
    fn run_until(&mut self, sim: &mut Simulator<Segment, Idle>, deadline: SimTime) {
        while let Some(fired) = sim.step(deadline) {
            self.world.set_now(sim.now().as_micros());
            match fired {
                Fired::Deliver(from, to, seg) => {
                    sim.with_node_ctx(to, |_, ctx| self.on_segment(ctx, from, seg))
                }
                Fired::Timer(node, tag) => {
                    sim.with_node_ctx(node, |_, ctx| self.on_timer(ctx, tag))
                }
                // Both ends of a reset close the connection it killed; the
                // receiver hears it first.
                Fired::Reset(from, to, seg) => {
                    for (me, peer) in [(to, from), (from, to)] {
                        let i = me.max(peer) - 1;
                        sim.with_node_ctx(me, |_, ctx| self.on_close(ctx, i, seg.conn, false));
                    }
                }
            }
        }
    }

    /// Connection `conn` of channel `i` died under node `ctx.me`'s end —
    /// a reset, or the peer's FIN (`fin`) — if it is still that end's.
    /// The notifier unbinds the channel: whoever it spoke for must say
    /// hello again. The client re-dials, unless it is out: a FIN on its
    /// open hello is one more unanswered hello in a row.
    fn on_close(&mut self, ctx: &mut Ctx<'_, Segment>, i: usize, conn: u32, fin: bool) {
        let site = SiteId::from_client_index(i);
        let end = &mut self.ends[i][usize::from(ctx.me != 0)];
        if !end.live(conn) {
            return;
        }
        end.close();
        if ctx.me == 0 {
            return self.world.close(i);
        }
        end.m.resets += 1;
        end.unanswered += u8::from(fin && self.world.awaits_answer(site));
        if end.unanswered < 2 {
            self.redial(ctx, i, None);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Segment>, tag: u64) {
        if (WRITE_TAG..DISCONNECT_TAG).contains(&tag) {
            let i = (tag - WRITE_TAG) as usize;
            let (s, peer) = if ctx.me == 0 { (0, i + 1) } else { (1, 0) };
            return self.ends[i][s].on_write_timer(ctx, peer);
        }
        let i = ctx.me - 1;
        match tag {
            DISCONNECT_TAG => self.ends[i][1].hang_up(ctx, 0),
            RECONNECT_TAG => self.redial(ctx, i, None),
            k => {
                // A scripted edit always applies locally; it goes on the
                // wire only while connected — otherwise the re-sends after
                // the hello cover it. Traced sessions record the op as
                // built.
                let (site, edit) = (SiteId::from_client_index(i), &self.scripts[i][k as usize]);
                let sent = self.world.perform(site, &edit.intent);
                if let (Some(tr), Ok(Some(op))) = (&mut self.trace, sent) {
                    tr.clients[i].push(ClientEvent::Local(op));
                }
                self.send_up(ctx, i);
            }
        }
    }

    /// Whether client `i` is connected: its connection open and its hello,
    /// if it said one, answered.
    fn connected(&self, i: usize) -> bool {
        !self.ends[i][1].dead && !self.world.awaits_answer(SiteId::from_client_index(i))
    }

    /// Put what client `i`'s replica queued up on its connection while it
    /// is connected; otherwise it is dropped, the re-sends after the hello
    /// covering it.
    fn send_up(&mut self, ctx: &mut Ctx<'_, Segment>, i: usize) {
        let connected = self.connected(i);
        while let Some(p) = self.world.pop_up(SiteId::from_client_index(i)) {
            if connected {
                self.ends[i][1].queue(ctx, 0, WRITE_TAG + i as u64, p);
            }
        }
    }

    /// Client `i` opens a new connection and says `hello` on it — its
    /// replica's next one when `None`: a scheduled reconnect, a connection
    /// lost under it, or an answer that shows the frontier was held back
    /// too far.
    fn redial(&mut self, ctx: &mut Ctx<'_, Segment>, i: usize, hello: Option<ClientAckMsg>) {
        let site = SiteId::from_client_index(i);
        let Some(hello) = hello.or_else(|| self.world.open_hello(site).ok()) else {
            return;
        };
        let end = &mut self.ends[i][1];
        end.hang_up(ctx, 0);
        end.open(end.id + 1);
        let hello = Payload::encode(&EditorMsg::ClientAck(hello));
        end.queue(ctx, 0, WRITE_TAG + i as u64, hello);
    }

    fn on_segment(&mut self, ctx: &mut Ctx<'_, Segment>, from: NodeId, seg: Segment) {
        let (i, s) = (ctx.me.max(from) - 1, usize::from(ctx.me != 0));
        let (conn, Some(payload)) = (seg.conn, seg.frame) else {
            return self.on_close(ctx, i, seg.conn, true);
        };
        let end = &mut self.ends[i][s];
        if s == 0 && conn > end.id {
            // A new connection: its hello binds whoever it speaks for.
            end.open(conn);
            self.world.close(i);
        }
        // A compound frame arrives as its queued messages, in queue order,
        // each from the site bound at its own arrival. A crash inside the
        // frame kills the rest of it with the connection, and so does an
        // answer that says hello again at the client.
        let Some(msgs) = self.ends[i][s].receive(conn, &payload) else {
            return;
        };
        for m in msgs {
            if !self.ends[i][s].live(conn) {
                break;
            }
            if s == 0 {
                self.integrate(ctx, i, m);
            } else {
                self.take(ctx, i, m);
            }
        }
        if s == 1 {
            // A quiet client still owes the notifier a periodic bare ack,
            // or its frozen watermark would starve the GC; the world holds
            // it back while the hello's answer is still arriving.
            self.world.take_pending_ack(SiteId::from_client_index(i));
            self.send_up(ctx, i);
        }
    }

    /// Client `i` takes one message of a frame. A broadcast that violates
    /// the protocol is dropped; the client stays usable offline.
    fn take(&mut self, ctx: &mut Ctx<'_, Segment>, i: usize, m: EditorMsg) {
        let site = SiteId::from_client_index(i);
        let m = match m {
            EditorMsg::ServerOp(op) => op,
            EditorMsg::ServerAck(a) => {
                let awaited = self.world.awaits_answer(site);
                if awaited {
                    self.ends[i][1].unanswered = 0;
                }
                return match self.world.answer(site, a.acked) {
                    Ok(Some(hello)) => self.redial(ctx, i, Some(hello)),
                    Ok(None) if awaited => self.ends[i][1].m.resyncs += 1,
                    _ => {}
                };
            }
            // Client-to-server frames arriving downstream are nonsense;
            // drop rather than crash.
            _ => return self.ends[i][1].m.protocol_errors += 1,
        };
        // Traced as integrated: closed on the base the replica's door
        // closes it on.
        let traced = self
            .trace
            .as_ref()
            .and(self.world.client(site))
            .map(|c| c.closed(&m));
        match self.world.take_op(site, m) {
            Ok(Some(out)) => {
                if let (Some(tr), Some(msg)) = (&mut self.trace, traced) {
                    let checked = out.checked;
                    tr.clients[i].push(ClientEvent::Remote { msg, checked });
                }
                if self.auto_gc {
                    let _ = self.world.gc(site);
                }
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!("client {site} rejected server op: {e}");
                if let Some(c) = self.world.client(site) {
                    eprintln!("{}", c.dump_recorder());
                }
                self.ends[i][1].m.protocol_errors += 1;
            }
        }
    }

    /// One message on channel `i` through the world, and what it queued
    /// put on the connections. A hello naming another node's site is
    /// refused here, before the hub hears it.
    fn integrate(&mut self, ctx: &mut Ctx<'_, Segment>, i: usize, msg: EditorMsg) {
        let site = SiteId::from_client_index(i);
        // Traced as integrated: an op closed on the base the notifier's
        // door closes it on.
        let traced = self.trace.is_some().then(|| match &msg {
            EditorMsg::ClientOp(op) => EditorMsg::ClientOp(self.world.notifier().closed(op)),
            m => m.clone(),
        });
        // Write-ahead ordering lives in the core: by the time an outcome
        // comes back its record is durable and mirrored to the warm
        // standby, so nothing below can broadcast an unlogged op.
        let stranger = matches!(&msg, EditorMsg::ClientAck(a) if a.origin != site);
        let step = if stranger && self.world.hub().site_of(i).is_none() {
            Step::Refused
        } else {
            self.world.feed(i, msg)
        };
        // Traced sessions record an integrated ack — a hello's frontier
        // included — at its place in the op stream.
        if let (Some(tr), Some(EditorMsg::ClientAck(a))) = (&mut self.trace, &traced) {
            if matches!(step, Step::Ack(_) | Step::Bound(_) | Step::Trimmed(_)) {
                tr.notifier_acks.push((tr.notifier.len(), *a));
            }
        }
        let (hub_end, sheds) = (&mut self.ends[i][0], step.sheds());
        match step {
            Step::Op(out) => {
                if let (Some(tr), Some(EditorMsg::ClientOp(msg))) = (&mut self.trace, traced) {
                    tr.notifier.push(NotifierStep {
                        msg,
                        verdicts: out.full_verdicts(),
                        broadcasts: out.broadcast_msgs(),
                    });
                }
                // The crash plan's clock: client ops integrated so far.
                let integrated = self.world.notifier().state_vector().total();
                let crashing = self.crash.take_if(|cr| cr.at_op == integrated);
                let mut sends = self.world.pop_sends(&out);
                match crashing.map(|cr| cr.point) {
                    Some(CrashPoint::BeforeSend) => sends.clear(),
                    Some(CrashPoint::MidBroadcast) => sends.truncate(out.stamps.len().div_ceil(2)),
                    _ => {}
                }
                let written: Vec<usize> = sends.iter().map(|&(ch, _)| ch).collect();
                for (ch, p) in sends {
                    self.ends[ch][0].queue(ctx, ch + 1, WRITE_TAG + ch as u64, p);
                }
                // The primary dies mid-stride and the warm standby is
                // promoted in its place. The channels in `written` got the
                // dying process's last write round; every other queued
                // round dies unwritten, and every connection closes, each
                // client hearing its close one latency draw later.
                // Everything appended to the WAL survives, which is exactly
                // the invariant the chaos suite checks.
                if let Some(crash) = crashing {
                    for (ch, [end, _]) in self.ends.iter_mut().enumerate() {
                        if written.contains(&ch) {
                            end.write(ctx, ch + 1);
                        }
                        end.hang_up(ctx, ch + 1);
                    }
                    // A poisoned standby means the WAL and the primary
                    // disagreed — refusing to serve divergent state beats
                    // silent corruption.
                    let promoted = self.world.crash(crash.point);
                    let replay = promoted.expect("a crash plan requires the standby");
                    self.failover = Some((ctx.now, replay.expect("standby poisoned at promotion")));
                    self.rebound_at = vec![None; self.ends.len()];
                }
            }
            Step::Ack(_) => {}
            // A hello integrates its frontier like any ack, and the hub
            // queued the catch-up behind it. A hello asking for a
            // collected prefix stays unbound and is counted like a
            // refusal. Either answer ends with `ServerAck{acked:
            // integrated}` — the hub adds one only when the notifier sends
            // acks, which a streaming session's does not, and the client
            // needs the count even when it is 0 — so an honest client whose
            // frontier was held back too far learns where to say hello
            // from again.
            Step::Bound(_) | Step::Trimmed(_) => {
                let catch_up: Vec<Payload> =
                    std::iter::from_fn(|| self.world.pop_down(i)).collect();
                if matches!(step, Step::Bound(_)) {
                    hub_end.m.resyncs += 1;
                    hub_end.m.resync_replayed += catch_up.len() as u64;
                    if let Some(at @ None) = self.rebound_at.get_mut(i) {
                        *at = Some(ctx.now);
                    }
                } else {
                    hub_end.m.protocol_errors += 1;
                }
                let nf = self.world.notifier();
                let acked = nf.state_vector().received_from(site).unwrap_or(0);
                let ack = EditorMsg::ServerAck(ServerAckMsg { acked });
                for p in catch_up.into_iter().chain([Payload::encode(&ack)]) {
                    hub_end.queue(ctx, i + 1, WRITE_TAG + i as u64, p);
                }
            }
            // A frame that arrived intact but violates the editor protocol
            // is hostile input, not line noise: the hub evicted the site
            // whose channel carried it — whatever origin the frame claimed;
            // dump the flight recorder and keep serving everyone else.
            Step::Evicted(site, e) => {
                eprintln!("notifier rejected input from {site}: {e}");
                eprintln!("{}", self.world.notifier().dump_recorder());
            }
            // Server-to-client frames arriving upstream, a hello that names
            // another node's site, is taken or overruns, and anything but a
            // hello from a connection nobody is bound to are nonsense.
            Step::Refused => hub_end.m.protocol_errors += 1,
        }
        // A shedding step costs the connection, as on TCP: what the step
        // queued — a trimmed hello's answer — is written, then the FIN.
        if sheds {
            let end = &mut self.ends[i][0];
            end.write(ctx, i + 1);
            end.hang_up(ctx, i + 1);
        }
    }
}

/// As [`crate::session::run_session`] for a session over connections,
/// also recording a full [`SessionTrace`] for oracle replay.
pub fn run_robust_session_traced(cfg: &SessionConfig) -> (SessionReport, SessionTrace) {
    let (report, trace) = run_connections(cfg, true);
    (report, trace.expect("trace requested"))
}

/// Run a star/CVC session over connections and report, with the
/// transport counters folded into each site's [`SiteMetrics`]. The
/// network faults come from [`SessionConfig::fault_plan`]; scheduled
/// outages from [`SessionConfig::disconnects`].
pub(crate) fn run_connections(
    cfg: &SessionConfig,
    traced: bool,
) -> (SessionReport, Option<SessionTrace>) {
    assert!(
        cfg.deployment == Deployment::StarCvc && cfg.client_mode == ClientMode::Streaming,
        "sessions over connections run streaming star/CVC clients"
    );
    assert!(
        cfg.crash.is_none_or(|c| c.at_op >= 1),
        "crash points are 1-based integration counts"
    );
    let (mut sim, mut star) = Star::new(cfg, traced);
    for spec in &cfg.disconnects {
        assert!(
            spec.client < cfg.workload.n_sites,
            "disconnect for an unknown client"
        );
        assert!(spec.down.as_micros() > 0, "zero-length outage");
        sim.schedule_timer(1 + spec.client, spec.at, DISCONNECT_TAG);
        sim.schedule_timer(1 + spec.client, spec.at + spec.down, RECONNECT_TAG);
    }
    star.run_until(&mut sim, SimTime(u64::MAX));

    let mut r = SessionReport::harvest(&star.world, cfg);
    let mut stale_drops = 0;
    let centre = r.centre_metrics.as_mut().expect("a star has a centre");
    for (i, [hub_end, end]) in star.ends.iter().enumerate() {
        // A crash session may legitimately end un-clean when the failure
        // is under test; convergence and the failover report carry the
        // verdict instead of an abort here. A client is out only once the
        // notifier evicted its site.
        let site = SiteId::from_client_index(i);
        let out = end.unanswered >= 2 && !star.world.notifier().is_active(site);
        assert!(
            cfg.crash.is_some() || star.connected(i) || out,
            "client left disconnected or mid-hello at quiescence"
        );
        assert!(
            hub_end.outbox.is_empty() && end.outbox.is_empty(),
            "a write round was left unsent"
        );
        stale_drops += hub_end.m.stale_drops;
        *centre += hub_end.m;
        r.client_metrics[i] += end.m;
    }
    let core = star.world.hub().core();
    if let Some((crash_at, (replay_ops, replay_acks))) = star.failover {
        let wal = core.wal().expect("a crash implies the WAL");
        let rebound = &star.rebound_at;
        let recovered_at = rebound
            .iter()
            .try_fold(0, |t, at| Some(t.max((*at)?.as_micros())));
        r.failover = Some(FailoverReport {
            crash_at_us: crash_at.as_micros(),
            recovered_at_us: recovered_at,
            resynced_clients: rebound.iter().flatten().count(),
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
    let trace = star.trace.map(|mut tr| {
        tr.wal_image = core.wal().map_or_else(Vec::new, |w| w.bytes().to_vec());
        tr
    });
    (r.finish(cfg, &sim), trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::frame::{split_frame, write_frame, FrameError, MAX_FRAME_BYTES};
    use crate::msg::COMPOUND_MAX;
    use crate::notifier::Notifier;
    use crate::recorder::EventKind;
    use crate::session::run_session;
    use crate::standby::Standby;
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
        let split = Payload::from_parts(&[1, 2, 3], vec![4, 5, 6].into());
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
        let payload = Payload::from_parts(&[1, 2, 3], vec![4, 5, 6].into());
        let socket = framed(&payload);
        let seg = frame(7, payload.clone());
        assert_eq!(seg.wire_bytes(), socket.len(), "a frame costs its bytes");
        let Ok(Some((back, used))) = split_frame(&socket, MAX_FRAME_BYTES) else {
            panic!("a whole frame splits");
        };
        assert_eq!((back, used), (&payload.to_vec()[..], socket.len()));
        let fin = Segment {
            conn: 7,
            frame: None,
        };
        assert_eq!(fin.wire_bytes(), 0, "a FIN is free");
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

    /// The star `cfg` builds, and a driver that runs it to quiescence.
    fn star(cfg: &SessionConfig) -> (Simulator<Segment, Idle>, Star) {
        Star::new(cfg, false)
    }

    fn run(sim: &mut Simulator<Segment, Idle>, star: &mut Star) {
        star.run_until(sim, SimTime(u64::MAX));
    }

    /// Queue `p` on the notifier's end of channel 0.
    fn put(sim: &mut Simulator<Segment, Idle>, star: &mut Star, p: Payload) {
        sim.with_node_ctx(0, |_, ctx| star.ends[0][0].queue(ctx, 1, WRITE_TAG, p));
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
        let batched = run_session(&cfg);
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
        let ideal = run_session(&cfg);
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
        let r = run_session(&cfg);
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
        let (mut sim, mut star) = star(&cfg);
        sim.record_deliveries(true);
        let burst = 2 * COMPOUND_MAX + 6;
        // From 32 on, every ack's member head is two bytes, so the two
        // full frames are the same size.
        for acked in 32..32 + burst {
            let ack = EditorMsg::ServerAck(ServerAckMsg {
                acked: acked as u64,
            });
            put(&mut sim, &mut star, Payload::encode(&ack));
        }
        run(&mut sim, &mut star);
        let sent = &star.ends[0][0].m;
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
        let r = run_session(&cfg);
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
        let r = run_session(&robust_cfg(4, 11));
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
        let r = run_session(&cfg);
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
        let r = run_session(&cfg);
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
        let r = run_session(&cfg);
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
        let (mut sim, mut star) = star(&cfg);
        let ack = |acked| Payload::encode(&EditorMsg::ServerAck(ServerAckMsg { acked }));
        put(&mut sim, &mut star, ack(100));
        star.run_until(&mut sim, SimTime::from_millis(1));
        sim.advance_to(SimTime::from_millis(1));
        put(&mut sim, &mut star, ack(101));
        put(&mut sim, &mut star, ack(102));
        // A reset of connection 0 under the frame in flight.
        sim.with_node_ctx(0, |_, ctx| star.on_close(ctx, 0, 0, false));
        sim.with_node_ctx(1, |_, ctx| star.on_close(ctx, 0, 0, false));
        run(&mut sim, &mut star);
        assert_eq!(
            star.ends[0][0].m.data_frames_sent, 2,
            "the first ack, the answer"
        );
        let hub = star.world.hub();
        assert_eq!(hub.site_of(0), Some(SiteId(1)), "the hello bound it");
        assert!(star.connected(0));
        let c = &star.ends[0][1];
        assert_eq!((c.id, c.m.resets, c.m.stale_drops), (1, 1, 1));
        let answer = ack(0).len() as u64;
        assert_eq!(c.m.delivered_payload_bytes, answer, "nothing parked");
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
        let r = run_session(&cfg);
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
        let r = run_session(&cfg);
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
        let r = run_session(&cfg);
        assert!(r.converged, "{:?}", r.final_docs);
        let centre = r.centre_metrics.expect("star has a centre");
        let c1 = &r.client_metrics[1];
        assert_eq!(c1.resyncs, 1, "one completed handshake");
        assert_eq!(centre.resyncs, 1, "one hello bound the channel");
        assert_eq!(centre.protocol_errors, 1, "the trimmed hello is counted");
    }

    /// `payload` as a frame of connection `conn`.
    fn frame(conn: u32, payload: Payload) -> Segment {
        Segment {
            conn,
            frame: Some(payload),
        }
    }

    /// Node identity stands in for an authenticated connection: a hello
    /// on node 1 naming site 2 is hostile, binds nothing, and leaves site
    /// 2's own channel alone.
    #[test]
    fn a_hello_naming_another_nodes_site_binds_nothing() {
        let mut cfg = robust_cfg(3, 5);
        cfg.workload.ops_per_site = 0;
        let (mut sim, mut star) = star(&cfg);
        let hello = ClientAckMsg {
            origin: SiteId(2),
            received: 0,
        };
        sim.inject_send(
            1,
            0,
            frame(1, Payload::encode(&EditorMsg::ClientAck(hello))),
        );
        run(&mut sim, &mut star);
        let (hub, m) = (star.world.hub(), &star.ends[0][0].m);
        assert_eq!(m.protocol_errors, 1);
        assert_eq!(hub.site_of(0), None, "the new connection speaks for nobody");
        assert_eq!(hub.channel_of(SiteId(1)), None);
        assert_eq!(hub.site_of(1), Some(SiteId(2)));
        assert_eq!(m.resync_replayed, 0, "no catch-up was served");
    }

    /// Once a new connection has said hello, a frame of the old one is a
    /// straggler of a connection that is gone: dropped and counted, not
    /// integrated.
    #[test]
    fn old_epoch_frames_after_the_hello_are_dropped() {
        let mut cfg = robust_cfg(3, 5);
        cfg.workload.ops_per_site = 0;
        let (mut sim, mut star) = star(&cfg);
        sim.schedule_timer(1, SimTime::from_millis(1), RECONNECT_TAG);
        run(&mut sim, &mut star);
        assert!(star.connected(0) && star.ends[0][1].id == 1);
        let op = Client::new(SiteId(1), &cfg.initial_doc).insert(0, "Z");
        sim.inject_send(1, 0, frame(0, Payload::encode(&EditorMsg::ClientOp(op))));
        run(&mut sim, &mut star);
        let end = &star.ends[0][0];
        assert_eq!((end.id, end.m.stale_drops), (1, 1));
        let hub = star.world.hub();
        assert_eq!(hub.site_of(0), Some(SiteId(1)), "the hello bound it");
        assert_eq!(star.world.notifier().state_vector().total(), 0);
        assert_eq!(hub.notifier().doc(), cfg.initial_doc);
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
        let r = run_session(&cfg);
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
        let r = run_session(&cfg);
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
        let a = run_session(&cfg);
        let b = run_session(&cfg);
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
        let r = run_session(&cfg);
        assert!(r.converged);
        assert!(r.fault_stats.delay_spiked > 0);
        cfg.fault_plan = Some(FaultPlan::NONE);
        let frames = |r: &SessionReport| r.total_metrics().data_frames_sent;
        assert!(frames(&run_session(&cfg)) > 0);
        cfg.fault_plan = None;
        assert_eq!(frames(&run_session(&cfg)), 0);
        cfg.standby = true;
        assert!(frames(&run_session(&cfg)) > 0);
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
        let (mut sim, mut star) = star(&cfg);
        let forged = Client::new(SiteId(2), &cfg.initial_doc).insert(0, "F");
        sim.inject_send(
            1,
            0,
            frame(0, Payload::encode(&EditorMsg::ClientOp(forged))),
        );
        run(&mut sim, &mut star);
        let live = star.world.notifier();
        assert!(!live.is_active(SiteId(1)), "the sender is out");
        assert!(live.is_active(SiteId(2)) && live.is_active(SiteId(3)));
        assert_eq!(live.doc(), cfg.initial_doc);
        let wal = star.world.hub().core().wal().expect("standby sessions log");
        let cold = Standby::from_log(wal.bytes(), 3, &cfg.initial_doc).expect("scan");
        assert!(!cold.notifier().is_active(SiteId(1)), "and stays out");
    }

    /// A shedding step costs the connection, as on TCP: after a
    /// forged-origin eviction the notifier closes client 1's connection.
    /// The client re-dials; each hello is refused and its connection
    /// closed unanswered, and after two in a row the client stays out.
    /// The session quiesces.
    #[test]
    fn an_evicted_site_hears_the_close_and_stays_out() {
        let mut cfg = robust_cfg(3, 5);
        cfg.workload.ops_per_site = 0;
        let (mut sim, mut star) = star(&cfg);
        let forged = Client::new(SiteId(2), &cfg.initial_doc).insert(0, "F");
        let forged = Payload::encode(&EditorMsg::ClientOp(forged));
        sim.inject_send(1, 0, frame(0, forged));
        star.run_until(&mut sim, SimTime::from_millis(60_000));
        assert!(sim.step(SimTime(u64::MAX)).is_none(), "quiescent");
        assert!(!star.world.notifier().is_active(SiteId(1)));
        let [hub_end, end] = &star.ends[0];
        assert_eq!(end.m.resets, 3, "the eviction's close, then two hellos'");
        assert!(end.dead && end.unanswered == 2, "out");
        assert_eq!(hub_end.m.protocol_errors, 2, "both hellos refused");
        assert!(star.connected(1) && star.connected(2));
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
        let (mut sim, mut star) = star(&cfg);
        let op = Client::new(SiteId(1), &cfg.initial_doc).insert(0, "J");
        sim.inject_send(1, 0, frame(0, with_trailing_junk(&EditorMsg::ClientOp(op))));
        run(&mut sim, &mut star);
        assert_eq!(star.ends[0][0].m.protocol_errors, 1);
        assert_eq!(star.world.notifier().state_vector().total(), 0);
        assert_eq!(star.world.notifier().doc(), cfg.initial_doc);
    }

    /// The client-side mirror: a `ServerOp` with a trailing byte is
    /// dropped whole and the replica stays where it was.
    #[test]
    fn server_op_with_a_trailing_byte_is_hostile_at_the_client() {
        let mut cfg = robust_cfg(3, 5);
        cfg.workload.ops_per_site = 0;
        let (mut sim, mut star) = star(&cfg);
        let len = cfg.initial_doc.chars().count();
        let op = ServerOpMsg {
            stamp: CompressedStamp::new(1, 0),
            op: SeqOp::from_pos(&PosOp::insert(0, "J"), len),
            cursor: None,
        };
        sim.inject_send(0, 1, frame(0, with_trailing_junk(&EditorMsg::ServerOp(op))));
        run(&mut sim, &mut star);
        assert_eq!(star.ends[0][1].m.protocol_errors, 1);
        let replica = star.world.client(SiteId(1)).expect("seated");
        assert_eq!(replica.doc(), cfg.initial_doc);
        assert_eq!(replica.state_vector().received(), 0);
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
        let r = run_session(&cfg);
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
        let plain = run_session(&cfg);
        cfg.standby = true;
        let shadowed = run_session(&cfg);
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
        let r = run_session(&crash_cfg(4, 101, 7, CrashPoint::BeforeSend));
        let fo = assert_failed_over(&r, 4);
        // The op was logged but never broadcast: the WAL replay is the
        // only reason the promoted notifier knows it.
        assert!(fo.standby_replay_ops >= 7);
    }

    #[test]
    fn crash_mid_broadcast_fails_over_and_converges() {
        let r = run_session(&crash_cfg(4, 103, 7, CrashPoint::MidBroadcast));
        let fo = assert_failed_over(&r, 4);
        // What the clients had in flight to the dead primary lands on a
        // closed connection: dropped and counted, never integrated.
        assert!(fo.stale_drops > 0, "{fo:?}");
    }

    #[test]
    fn crash_after_send_fails_over_and_converges() {
        let r = run_session(&crash_cfg(4, 107, 7, CrashPoint::AfterSend));
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
            let r = run_session(&cfg);
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
        let (mut sim, mut star) = star(&cfg);
        sim.schedule_timer(1, SimTime::from_millis(1), RECONNECT_TAG);
        star.run_until(&mut sim, SimTime::from_millis(1));
        star.world
            .edit(SiteId(2), |c| Ok(c.insert(0, "Z")))
            .expect("a member");
        sim.with_node_ctx(2, |_, ctx| star.send_up(ctx, 1));
        run(&mut sim, &mut star);
        assert!(star.failover.is_some(), "the op crashed the primary");
        assert!(star.rebound_at.iter().all(Option::is_some), "all re-dialed");
        // The primary bound the first hello; the promoted standby bound
        // all three channels.
        let resyncs = star
            .ends
            .iter()
            .map(|[hub_end, _]| hub_end.m.resyncs)
            .sum::<u64>();
        assert_eq!(resyncs, 4);
        assert!(star.connected(0));
        let c1 = &star.ends[0][1];
        assert_eq!((c1.id, c1.m.resets), (2, 1), "two dials");
        let doc = star.world.notifier().doc();
        assert!(doc.starts_with('Z'));
        assert!(star.world.clients().all(|c| c.doc() == doc));
    }

    #[test]
    fn failover_sessions_are_reproducible() {
        let cfg = crash_cfg(5, 127, 11, CrashPoint::MidBroadcast);
        let a = run_session(&cfg);
        let b = run_session(&cfg);
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
        let r = run_session(&cfg);
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
        assert_eq!(crashes[0].b, CrashPoint::MidBroadcast as u64);
        assert!(promotes[0].a >= 7, "replayed at least the logged ops");
        // The inherited pre-crash history is still there.
        assert!(
            events.iter().any(|e| e.kind == EventKind::Execute),
            "primary's integrations must survive the hand-off"
        );
    }
}
