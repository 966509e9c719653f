//! End-to-end checks for the TCP tier: torn-read reassembly equivalence,
//! a live server ↔ sim-twin differential at 8 and (ignored) 4 096
//! closed-loop sites, hostile-peer eviction (framing
//! garbage, a bound peer's protocol violation that must stay out of the
//! log, and a forged origin that must cost the sender, not the site it
//! names), reconnect rebinding (a rebind is a replay from the history
//! buffer; one below a collected prefix is shed, and the client says a
//! trimmed hello once more from its integrated count), connection churn over
//! recycled slab slots, a long session whose history buffer stays
//! bounded, a pipelined session whose log stays bounded with no quiet
//! point, a reader that never pauses and still cannot hold back a
//! broadcast, and the hand-off counters read alike from `/metrics` and
//! the report.

use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use cvc_net::{fresh_replicas, replay_twin, run_clients, AdminClient, ClientConfig};
use cvc_net::{EditorServer, ServerConfig};
use cvc_reduce::client::{Client, ACK_INTERVAL};
use cvc_reduce::frame::{write_frame, FrameReader};
use cvc_reduce::msg::{ClientAckMsg, EditorMsg, ServerAckMsg, ServerOpMsg};
use cvc_reduce::notifier::Notifier;
use cvc_reduce::wal::DEFAULT_COMPACT_EVERY;
use cvc_sim::wire::{WireDecode, WireEncode, WireSize};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A hand-driven framed client for tests that need exact control over
/// connect/disconnect timing (blocking I/O, 10 s read timeout).
struct TestPeer {
    stream: TcpStream,
    reader: FrameReader,
    /// Sub-messages of a compound frame not yet handed out.
    unpacked: std::collections::VecDeque<EditorMsg>,
}

impl TestPeer {
    fn connect(addr: &str) -> TestPeer {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set timeout");
        TestPeer {
            stream,
            reader: FrameReader::new(),
            unpacked: std::collections::VecDeque::new(),
        }
    }

    /// Connect and bind to `site` with a fresh-client hello.
    fn bind(addr: &str, site: SiteId) -> TestPeer {
        let mut peer = TestPeer::connect(addr);
        peer.send(&EditorMsg::ClientAck(ClientAckMsg {
            origin: site,
            received: 0,
        }));
        peer
    }

    fn send(&mut self, msg: &EditorMsg) {
        let mut body = Vec::with_capacity(msg.wire_bytes());
        msg.encode(&mut body);
        let mut frame = Vec::new();
        write_frame(&mut frame, &[&body]);
        self.stream.write_all(&frame).expect("write frame");
    }

    /// Block until the next editor message arrives (compound frames are
    /// unpacked, so no sub-message is ever lost between calls).
    fn recv(&mut self) -> EditorMsg {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(m) = self.unpacked.pop_front() {
                return m;
            }
            if let Some(p) = self.reader.next_frame().expect("valid frame") {
                let mut slice: &[u8] = &p;
                match EditorMsg::decode(&mut slice).expect("decodable frame") {
                    EditorMsg::Compound(ms) => self.unpacked.extend(ms),
                    m => return m,
                }
                continue;
            }
            let n = self.stream.read(&mut chunk).expect("read");
            assert!(n > 0, "server closed the connection unexpectedly");
            self.reader.extend(&chunk[..n]);
        }
    }

    /// Block until the next broadcast arrives, skipping origin acks.
    fn recv_server_op(&mut self) -> ServerOpMsg {
        loop {
            match self.recv() {
                EditorMsg::ServerOp(m) => return m,
                EditorMsg::ServerAck(_) => {}
                other => panic!("unexpected downstream message: {other:?}"),
            }
        }
    }

    /// Block until the server closes this connection, demanding that no
    /// byte and no message arrives before the close.
    fn expect_eof(mut self) {
        assert!(self.unpacked.is_empty(), "{:?}", self.unpacked);
        assert_eq!(self.reader.buffered(), 0, "bytes before the close");
        let mut chunk = [0u8; 64];
        let n = self.stream.read(&mut chunk).expect("a clean close");
        assert_eq!(n, 0, "bytes before the close: {:?}", &chunk[..n]);
    }

    /// Block until the server closes this connection (an eviction).
    fn wait_closed(mut self) {
        let mut chunk = [0u8; 4096];
        // A reset counts as closed: the server may drop unread bytes.
        while matches!(self.stream.read(&mut chunk), Ok(n) if n > 0) {}
    }
}

/// Returns once the (single) worker has read everything the test wrote
/// before this call: a throwaway connection's out-of-range hello is read
/// no earlier than bytes already sitting in other sockets, and its
/// eviction closes it only after the worker finished that pass — so by
/// then the earlier messages are in the core's FIFO queue, ahead of any
/// later shutdown.
fn barrier(addr: &str) {
    TestPeer::bind(addr, SiteId::from_client_index(1 << 20)).wait_closed();
}

/// Reassemble `stream` delivered in the given chunk sizes.
fn reassemble(stream: &[u8], chunks: &[usize]) -> Vec<Vec<u8>> {
    let mut r = FrameReader::new();
    let mut got = Vec::new();
    let mut off = 0;
    for &c in chunks {
        let end = (off + c).min(stream.len());
        r.extend(&stream[off..end]);
        while let Some(p) = r.next_frame().expect("valid stream must parse") {
            got.push(p);
        }
        off = end;
        if off == stream.len() {
            break;
        }
    }
    r.extend(&stream[off..]);
    while let Some(p) = r.next_frame().expect("valid stream must parse") {
        got.push(p);
    }
    got
}

proptest! {
    /// Any fragmentation of a valid frame stream — byte-by-byte, random
    /// splits, or whole — yields the byte-identical payload sequence.
    #[test]
    fn torn_reads_reassemble_byte_identically(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200),
            1..8,
        ),
        split_seed in any::<u64>(),
    ) {
        let mut stream = Vec::new();
        for p in &payloads {
            write_frame(&mut stream, &[p]);
        }

        let whole = reassemble(&stream, &[stream.len()]);
        prop_assert_eq!(&whole, &payloads);

        let byte_by_byte = reassemble(&stream, &vec![1; stream.len()]);
        prop_assert_eq!(&byte_by_byte, &payloads);

        let mut rng = SmallRng::seed_from_u64(split_seed);
        let mut random_chunks = Vec::new();
        let mut left = stream.len();
        while left > 0 {
            let c = rng.gen_range(1..=left.min(31));
            random_chunks.push(c);
            left -= c;
        }
        let random = reassemble(&stream, &random_chunks);
        prop_assert_eq!(&random, &payloads);
    }
}

/// The full differential: real sockets → server → broadcasts → replicas,
/// then the captured integration order replayed through fresh sim-grade
/// twins. Every document checksum in sight must agree.
#[test]
fn server_and_sim_twin_converge_byte_identically() {
    twin_certified_run(8, 512);
}

/// The same differential at 4 096 sites, each with its own loopback
/// connection, under a constant delivery budget: every op fans out to
/// n − 1 receivers, so the op count shrinks as sites grow. Needs some
/// 8 200 open files (`ulimit -n`).
#[test]
#[ignore = "4 096 loopback connections; run with --include-ignored"]
fn server_and_sim_twin_converge_at_4096_sites() {
    let n = 4096;
    twin_certified_run(n, (65_536 / n).clamp(64, 1024) as u64);
}

/// `n` closed-loop sites author `ops` operations against a live server;
/// every replica, the server, its WAL and the sim twin end on one
/// document, with no protocol, connection or frame error anywhere, and
/// from 64 sites on the fan-out rides compound frames.
fn twin_certified_run(n: usize, ops: u64) {
    let server = EditorServer::spawn(ServerConfig {
        n_clients: n,
        workers: 2,
        capture_integrations: true,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let cfg = ClientConfig {
        addr: server.addr().to_string(),
        total_ops: ops,
        seed: 7,
    };
    let load = run_clients(&cfg, fresh_replicas(n)).expect("clients run");

    assert_eq!(load.conn_errors, 0, "no connection may die");
    assert_eq!(load.redials, 0, "every hello binds at once");
    assert_eq!(load.protocol_errors, 0, "no replica may see a violation");
    assert_eq!(load.ops_acked, ops, "every op must be acked");
    assert!(load.converged, "all replicas must converge on one document");

    let report = server.shutdown();
    assert_eq!(report.ops_integrated, ops);
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.frame_errors, 0);
    assert_eq!(report.io_errors, 0, "no I/O-tier thread may die");
    if n >= 64 {
        let coalesced = report.msgs_per_frame.is_some_and(|m| m > 1.0);
        assert!(coalesced, "fan-out must ride compound frames");
    }
    assert_eq!(
        report.doc_checksum, load.doc_checksum,
        "server and replicas must agree"
    );
    assert_eq!(report.doc, load.doc);
    assert_eq!(report.doc.chars().count() as u64, ops);

    // The WAL must recover to the same document the live server reached.
    let recovery = cvc_reduce::wal::Wal::recover(&report.wal_bytes).expect("WAL recovers");
    let (recovered, _) = recovery.restore(n, "").expect("WAL restores");
    assert_eq!(recovered.doc_checksum(), report.doc_checksum);

    // The sim twin certifies the integration order offline.
    let twin = replay_twin(n, &report.integration_log).expect("twin replay certifies");
    assert_eq!(twin.ops_replayed as u64, ops);
    assert_eq!(
        twin.doc_checksum, report.doc_checksum,
        "sim twin and server must agree"
    );
    assert_eq!(twin.doc, report.doc);
}

/// A peer speaking garbage is evicted without taking the server down;
/// well-behaved clients converge around it.
#[test]
fn hostile_peer_is_evicted_not_fatal() {
    let n = 4;
    let server = EditorServer::spawn(ServerConfig {
        n_clients: n,
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr().to_string();

    // A hostile length claim straight on the socket: 2^32 + 5, the exact
    // shape a 32-bit truncation bug would misread as tiny.
    let mut hostile = TcpStream::connect(&addr).expect("connect");
    let mut claim = Vec::new();
    cvc_sim::wire::put_varint(&mut claim, (1u64 << 32) + 5);
    hostile.write_all(&claim).expect("write");

    // And a peer whose frame wraps undecodable bytes.
    let mut garbled = TcpStream::connect(&addr).expect("connect");
    let mut frame = Vec::new();
    write_frame(&mut frame, &[&[0xEE, 0xFF, 0x00, 0x01]]);
    garbled.write_all(&frame).expect("write");

    let cfg = ClientConfig {
        addr,
        total_ops: 64,
        seed: 11,
    };
    let load = run_clients(&cfg, fresh_replicas(n)).expect("clients run");
    assert!(load.converged, "honest clients still converge");
    assert_eq!(load.redials, 0, "no honest hello is trimmed");

    drop(hostile);
    drop(garbled);
    let report = server.shutdown();
    assert_eq!(report.ops_integrated, 64);
    assert!(
        report.frame_errors >= 1,
        "the hostile stream must be counted"
    );
    assert_eq!(report.io_errors, 0, "hostile peers must not kill a worker");
    assert_eq!(report.doc_checksum, load.doc_checksum);
}

/// A reconnecting site rebinds with its *real* ack frontier in the hello,
/// and receives exactly the ops integrated while it was away — no replay
/// of what it already acknowledged, no loss of the tail it missed.
#[test]
fn reconnect_rebinds_with_real_ack_frontier() {
    let server = EditorServer::spawn(ServerConfig {
        n_clients: 2,
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr().to_string();

    let site1 = SiteId::from_client_index(0);
    let site2 = SiteId::from_client_index(1);
    let mut editor1 = Client::new(site1, "");
    let mut replica2 = Client::new(site2, "");

    let mut peer1 = TestPeer::bind(&addr, site1);
    let mut peer2 = TestPeer::bind(&addr, site2);

    // Op 1 reaches site 2's first connection.
    peer1.send(&EditorMsg::ClientOp(editor1.insert(0, "a")));
    apply_server_ops(&mut peer2, &mut replica2, 1);
    assert_eq!(replica2.doc(), "a");

    // Site 2 drops. Wait for the server to process the disconnect (site
    // unbound): a hello that overtakes its own site's close is refused as
    // "site taken" — newest-wins is a policy this tier does not have (the
    // rule and that race are pinned without sockets in `cvc-reduce`'s
    // `tests/hub.rs`, `hello_before_the_old_close_is_refused_then_binds`).
    drop(peer2);
    barrier(&addr);
    peer1.send(&EditorMsg::ClientOp(editor1.insert(1, "b")));

    // Reconnect with the true frontier: one broadcast already received.
    let mut peer2 = TestPeer::connect(&addr);
    peer2.send(&EditorMsg::ClientAck(ClientAckMsg {
        origin: site2,
        received: replica2.state_vector().received(),
    }));
    apply_server_ops(&mut peer2, &mut replica2, 1);
    assert_eq!(replica2.doc(), "ab", "exactly the missed tail arrives");

    let report = server.shutdown();
    assert_eq!(report.ops_integrated, 2);
    assert_eq!(
        report.protocol_errors, 0,
        "the hello frontier must be valid"
    );
    assert_eq!(report.frame_errors, 0);
    assert_eq!(report.io_errors, 0);
    assert_eq!(report.doc, replica2.doc());

    // The hello frontiers went through the same validate-then-log path as
    // every other ack: recovery must replay the log back to the live
    // document.
    let recovery = cvc_reduce::wal::Wal::recover(&report.wal_bytes).expect("WAL recovers");
    let (recovered, _) = recovery.restore(2, "").expect("WAL restores");
    assert_eq!(recovered.doc_checksum(), report.doc_checksum);
}

/// The history buffer is the one structure a lagging site is caught up
/// from: a broadcast already written to a socket that then died is still
/// in it (the site never acknowledged it), so the rebind replays it. The
/// parked-payload queue this replaces only ever held what was *not* yet
/// written, and lost the rest.
#[test]
fn rebind_replays_what_the_dead_socket_swallowed() {
    let server = EditorServer::spawn(ServerConfig {
        n_clients: 2,
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr().to_string();
    let site1 = SiteId::from_client_index(0);
    let site2 = SiteId::from_client_index(1);
    let mut editor1 = Client::new(site1, "");
    let mut replica2 = Client::new(site2, "");

    let mut peer1 = TestPeer::bind(&addr, site1);
    let peer2 = TestPeer::bind(&addr, site2);
    barrier(&addr);

    // Op 1 is integrated and written to both sockets: the worker queues
    // site 2's broadcast ahead of site 1's ack.
    peer1.send(&EditorMsg::ClientOp(editor1.insert(0, "a")));
    assert!(matches!(peer1.recv(), EditorMsg::ServerAck(a) if a.acked == 1));

    // Site 2 dies without reading it, and comes back with its honest
    // frontier once the server has seen the close.
    drop(peer2);
    barrier(&addr);
    let mut peer2 = TestPeer::bind(&addr, site2);
    apply_server_ops(&mut peer2, &mut replica2, 1);
    assert_eq!(replica2.doc(), "a", "op 1 must be replayed");

    let report = server.shutdown();
    assert_eq!(report.ops_integrated, 1);
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.dropped_broadcasts, 0);
    assert_eq!(report.doc, replica2.doc());
}

/// A hello claiming a frontier below the site's own earlier ack asks for
/// broadcasts the history buffer has already collected (a replica restored
/// from a stale backup). Serving the live tail on top of that replica
/// would diverge silently; the connection is shed and counted instead —
/// not a protocol error, and nobody else notices.
#[test]
fn rebind_below_a_trimmed_prefix_is_shed_and_counted() {
    let server = EditorServer::spawn(ServerConfig {
        n_clients: 2,
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr().to_string();
    let site1 = SiteId::from_client_index(0);
    let site2 = SiteId::from_client_index(1);
    let mut editor1 = Client::new(site1, "");
    let mut replica2 = Client::new(site2, "");

    let mut peer1 = TestPeer::bind(&addr, site1);
    let mut peer2 = TestPeer::bind(&addr, site2);

    // Site 2 receives and acknowledges op 1; with two clients that is the
    // last ack the entry was waiting for, so the notifier trims it.
    peer1.send(&EditorMsg::ClientOp(editor1.insert(0, "a")));
    apply_server_ops(&mut peer2, &mut replica2, 1);
    peer2.send(&EditorMsg::ClientAck(ClientAckMsg {
        origin: site2,
        received: 1,
    }));
    drop(peer2);
    barrier(&addr);

    // The stale rebind costs its connection and nothing else. Its answer
    // is its integrated count alone (site 2 sent no ops), then EOF.
    let mut stale = TestPeer::bind(&addr, site2);
    assert_eq!(
        stale.recv(),
        EditorMsg::ServerAck(ServerAckMsg { acked: 0 }),
        "the trimmed hello's answer"
    );
    stale.expect_eof();
    peer1.send(&EditorMsg::ClientOp(editor1.insert(1, "b")));
    let acks: Vec<EditorMsg> = (0..2).map(|_| peer1.recv()).collect();
    assert!(
        matches!(acks[1], EditorMsg::ServerAck(a) if a.acked == 2),
        "site 1 keeps editing: {acks:?}"
    );

    let report = server.shutdown();
    assert_eq!(report.dropped_broadcasts, 1, "the shed rebind is counted");
    assert_eq!(report.protocol_errors, 0, "a stale frontier is not hostile");
    assert_eq!(report.ops_integrated, 2);
    assert_eq!(report.doc, "ab");
    let recovery = cvc_reduce::wal::Wal::recover(&report.wal_bytes).expect("WAL recovers");
    let (recovered, _) = recovery.restore(2, "").expect("WAL restores");
    assert_eq!(recovered.doc_checksum(), report.doc_checksum);
}

/// A replica that never heard its op acked holds its hello's frontier
/// back to that op's stamp. When the notifier integrated the op and has
/// since collected past the frontier, the hub cannot serve the hello: the
/// answer is the site's integrated count, then EOF. The client says hello
/// once more from that count, binds, re-sends what the count does not
/// cover and converges; without the re-dial the site would be shed.
#[test]
fn a_trimmed_hello_is_said_again_from_the_integrated_count() {
    let server = EditorServer::spawn(ServerConfig {
        n_clients: 2,
        workers: 1,
        capture_integrations: true,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr().to_string();
    let site1 = SiteId::from_client_index(0);
    let site2 = SiteId::from_client_index(1);
    let mut editor1 = Client::new(site1, "");
    let mut editor2 = Client::new(site2, "");
    let mut peer1 = TestPeer::bind(&addr, site1);
    let mut peer2 = TestPeer::bind(&addr, site2);

    // Site 2 types before it hears site 1's op, so its op's stamp is
    // T = [0, 1]; it then executes site 1's op and acknowledges it, the
    // last ack that op's history entry waited for.
    let held = editor2.insert(0, "x");
    peer1.send(&EditorMsg::ClientOp(editor1.insert(0, "a")));
    apply_server_ops(&mut peer2, &mut editor2, 1);
    peer2.send(&EditorMsg::ClientOp(held));
    peer2.send(&EditorMsg::ClientAck(ClientAckMsg {
        origin: site2,
        received: 1,
    }));
    // Both drop without reading the acks of their ops.
    drop(peer1);
    drop(peer2);
    barrier(&addr);
    assert_eq!(editor2.hello_frontier(0), 0, "held back to the op's stamp");
    assert_eq!(
        editor2.hello_frontier(1),
        1,
        "the integrated count frees it"
    );

    let cfg = ClientConfig {
        addr,
        total_ops: 4,
        seed: 0x47,
    };
    let load = run_clients(&cfg, vec![editor1, editor2]).expect("clients run");
    assert_eq!(load.redials, 1, "site 2 says hello once more");
    assert_eq!(
        (load.conn_errors, load.protocol_errors),
        (0, 0),
        "none shed"
    );
    assert!(load.converged, "the re-dialed site converges");

    let report = server.shutdown();
    assert_eq!(report.dropped_broadcasts, 1, "one trimmed hello");
    assert_eq!(report.ops_integrated, 6);
    assert_eq!(report.doc_checksum, load.doc_checksum);
    let twin = replay_twin(2, &report.integration_log).expect("twin replay certifies");
    assert_eq!(twin.doc, load.doc);
}

/// A stand-in notifier's end of the one connection the next site dials:
/// the listener is dropped at once when `keep_listening` is false.
fn accept_site(listener: TcpListener, keep_listening: bool) -> (TestPeer, Option<TcpListener>) {
    let (stream, _) = listener.accept().expect("the site dials");
    let peer = TestPeer {
        stream,
        reader: FrameReader::new(),
        unpacked: std::collections::VecDeque::new(),
    };
    (peer, keep_listening.then_some(listener))
}

/// Site 2's first op, as a two-site notifier broadcasts it to site 1.
fn site2_op_for_site1(notifier: &mut Notifier) -> ServerOpMsg {
    let op = Client::new(SiteId::from_client_index(1), "").insert(0, "z");
    let out = notifier
        .try_on_client_op_outcome(op)
        .expect("op integrates");
    out.broadcast_msgs().remove(0).1
}

/// A connection closed right after an op's `ServerAck`, with the listener
/// still up, costs its site: that ack is no hello's answer, so the site
/// is counted lost and never says hello again.
#[test]
fn a_close_after_an_ops_ack_is_counted_not_re_dialed() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let cfg = ClientConfig {
        addr: listener.local_addr().expect("addr").to_string(),
        total_ops: 2,
        seed: 0x4C,
    };
    let run = std::thread::spawn(move || run_clients(&cfg, fresh_replicas(1)));
    let (mut peer, _listening) = accept_site(listener, true);
    let mut notifier = Notifier::new(2, "");
    notifier.set_send_acks(true);
    assert!(matches!(peer.recv(), EditorMsg::ClientAck(_)), "the hello");
    let EditorMsg::ClientOp(op) = peer.recv() else {
        panic!("site 1's first op");
    };
    // Site 1 executes a remote op, so a re-dial would ask for more than
    // its first hello did; then its op is acked and the connection closes.
    peer.send(&EditorMsg::ServerOp(site2_op_for_site1(&mut notifier)));
    let out = notifier
        .try_on_client_op_outcome(op)
        .expect("op integrates");
    peer.send(&EditorMsg::ServerAck(out.ack.expect("acks are on").1));
    drop(peer);

    let load = run
        .join()
        .expect("client thread joins")
        .expect("run reports");
    assert_eq!(load.redials, 0, "an op's ack is no hello's answer");
    assert_eq!(load.conn_errors, 1, "the closed site is counted");
    assert!(!load.converged);
}

/// A trimmed hello's answer whose re-dial finds no listener loses the
/// site like any close, and the run still reports.
#[test]
fn a_re_dial_that_cannot_connect_is_counted() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let cfg = ClientConfig {
        addr: listener.local_addr().expect("addr").to_string(),
        total_ops: 0,
        seed: 0x4D,
    };
    // Site 1 types, then executes site 2's op: its hello is held back.
    let mut notifier = Notifier::new(2, "");
    let mut site1 = Client::new(SiteId::from_client_index(0), "");
    site1.insert(0, "x");
    let z = site2_op_for_site1(&mut notifier);
    site1.try_on_server_op(z).expect("site 2's op applies");
    let run = std::thread::spawn(move || run_clients(&cfg, vec![site1]));

    let (mut peer, _) = accept_site(listener, false);
    assert!(matches!(
        peer.recv(),
        EditorMsg::ClientAck(ClientAckMsg { received: 0, .. })
    ));
    // The trimmed answer: the integrated count, then EOF.
    peer.send(&EditorMsg::ServerAck(ServerAckMsg { acked: 1 }));
    drop(peer);

    let load = run
        .join()
        .expect("client thread joins")
        .expect("run reports");
    assert_eq!(load.redials, 0, "the re-dial never connected");
    assert_eq!(load.conn_errors, 1, "the site is counted lost");
    assert!(!load.converged);
}

/// Pump `peer` until `count` server ops have been applied to `replica`.
fn apply_server_ops(peer: &mut TestPeer, replica: &mut Client, count: usize) {
    for _ in 0..count {
        let m = peer.recv_server_op();
        replica.try_on_server_op(m).expect("server op applies");
    }
}

/// DESIGN §17: a bound peer's protocol violation is evicted *and stays
/// out of the write-ahead log* — recovery replays the log through the
/// same validation, so one logged hostile op would poison every restart.
#[test]
fn hostile_op_from_a_bound_peer_never_reaches_the_log() {
    let n = 3;
    let server = EditorServer::spawn(ServerConfig {
        n_clients: n,
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr().to_string();
    let sites: Vec<SiteId> = (0..n).map(SiteId::from_client_index).collect();
    let mut replicas: Vec<Client> = sites.iter().map(|&s| Client::new(s, "")).collect();
    let mut peers: Vec<TestPeer> = sites.iter().map(|&s| TestPeer::bind(&addr, s)).collect();

    // One honest op from the soon-to-be-hostile site reaches both others.
    let honest = replicas[0].insert(0, "a");
    peers[0].send(&EditorMsg::ClientOp(honest.clone()));
    for j in 1..n {
        apply_server_ops(&mut peers[j], &mut replicas[j], 1);
    }

    // Then a FIFO gap: T[2] jumps from 1 to 3. The server must close the
    // stream and quarantine the site.
    let mut gap = replicas[0].insert(1, "z");
    gap.stamp = CompressedStamp::new(gap.stamp.get(1), 3);
    peers[0].send(&EditorMsg::ClientOp(gap));
    peers.remove(0).wait_closed();

    // The honest peers keep editing around the hole and converge.
    let next = replicas[1].insert(1, "b");
    peers[0].send(&EditorMsg::ClientOp(next));
    apply_server_ops(&mut peers[1], &mut replicas[2], 1);
    assert_eq!(replicas[1].doc(), "ab");
    assert_eq!(replicas[2].doc(), "ab");

    let report = server.shutdown();
    assert_eq!(report.ops_integrated, 2);
    assert_eq!(report.protocol_errors, 1, "exactly the gap is rejected");
    assert!(report.evicted >= 1, "the hostile connection is shed");
    assert_eq!(report.doc, "ab");

    let recovery = cvc_reduce::wal::Wal::recover(&report.wal_bytes).expect("WAL recovers");
    let (recovered, _) = recovery
        .restore(n, "")
        .expect("a rejected op must not be in the log");
    assert_eq!(recovered.doc_checksum(), report.doc_checksum);
    // The eviction, unlike the op that caused it, is in the log.
    assert!(
        !recovered.is_active(sites[0]),
        "offender back after restart"
    );
    assert!(recovered.is_active(sites[1]) && recovered.is_active(sites[2]));
}

/// The channel says who sent a frame; the envelope is only a claim. Site
/// 1's connection forging `origin: site 2` gets site 1 evicted — logged,
/// so recovery agrees — while site 2 stays a member whose next op reaches
/// site 3. (Evicting the claimed origin let any peer remove any other.)
/// Strangers' hellos, whatever they claim, cost only their connection.
#[test]
fn forged_origin_evicts_the_sender_not_the_named_site() {
    let n = 3;
    let server = EditorServer::spawn(ServerConfig {
        n_clients: n,
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr().to_string();
    let sites: Vec<SiteId> = (0..n).map(SiteId::from_client_index).collect();
    let mut replicas: Vec<Client> = sites.iter().map(|&s| Client::new(s, "")).collect();
    let mut peers: Vec<TestPeer> = sites.iter().map(|&s| TestPeer::bind(&addr, s)).collect();

    // Unbound strangers claiming the notifier's id and a bound site's id.
    TestPeer::bind(&addr, SiteId(0)).wait_closed();
    TestPeer::bind(&addr, sites[1]).wait_closed();

    // Site 1's connection sends what would be site 2's valid first op.
    let mut forger = peers.remove(0);
    let as_site2 = Client::new(sites[1], "").insert(0, "F");
    forger.send(&EditorMsg::ClientOp(as_site2));
    forger.wait_closed();

    // The victim never noticed: its honest op integrates and reaches
    // site 3 (and is not broadcast to the evicted site 1).
    let honest = replicas[1].insert(0, "v");
    peers[0].send(&EditorMsg::ClientOp(honest));
    apply_server_ops(&mut peers[1], &mut replicas[2], 1);
    assert_eq!(replicas[2].doc(), "v");

    // The offender cannot rebind.
    TestPeer::bind(&addr, sites[0]).wait_closed();

    let report = server.shutdown();
    assert_eq!(report.ops_integrated, 1);
    assert_eq!(report.doc, "v");
    assert_eq!(report.io_errors, 0, "no hello may take the core down");
    assert_eq!(report.dropped_broadcasts, 0);

    let recovery = cvc_reduce::wal::Wal::recover(&report.wal_bytes).expect("WAL recovers");
    let (recovered, _) = recovery.restore(n, "").expect("WAL restores");
    assert_eq!(recovered.doc_checksum(), report.doc_checksum);
    assert!(!recovered.is_active(sites[0]), "the sender is out");
    assert!(recovered.is_active(sites[1]) && recovered.is_active(sites[2]));
}

/// A lockstep session of `ops` ops over `n` sites, the first `writers` of
/// which take turns editing (one op in flight). Every other site
/// executes each op and acks exactly as `Client::take_pending_ack`
/// dictates, then every site sends one final ack. The notifier's
/// history must stay within the ack-lag window and the log must have
/// compacted to a snapshot. Returns each site's bare-ack count.
fn lockstep_session(n: usize, writers: usize, ops: usize) -> Vec<u64> {
    let server = EditorServer::spawn(ServerConfig {
        n_clients: n,
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr().to_string();
    let sites: Vec<SiteId> = (0..n).map(SiteId::from_client_index).collect();
    let mut replicas: Vec<Client> = sites.iter().map(|&s| Client::new(s, "")).collect();
    let mut peers: Vec<TestPeer> = sites.iter().map(|&s| TestPeer::bind(&addr, s)).collect();
    let mut bare_acks = vec![0u64; n];

    for k in 0..ops {
        let origin = k % writers;
        let op = replicas[origin].insert(k / 2, "x");
        peers[origin].send(&EditorMsg::ClientOp(op));
        for j in (0..n).filter(|&j| j != origin) {
            apply_server_ops(&mut peers[j], &mut replicas[j], 1);
            replicas[j].gc();
            if let Some(ack) = replicas[j].take_pending_ack() {
                peers[j].send(&EditorMsg::ClientAck(ack));
                bare_acks[j] += 1;
            }
        }
    }
    for (peer, replica) in peers.iter_mut().zip(&replicas) {
        peer.send(&EditorMsg::ClientAck(ClientAckMsg {
            origin: replica.site(),
            received: replica.state_vector().received(),
        }));
    }
    barrier(&addr);

    let report = server.shutdown();
    assert_eq!(report.ops_integrated, ops as u64);
    assert_eq!(report.protocol_errors, 0);
    for replica in &replicas {
        assert_eq!(replica.doc(), report.doc);
    }

    // The window, as `tests/gc_bound.rs` derives it for the sim: an entry
    // dies once every other client acked past it, and a client's ack lags
    // by at most ACK_INTERVAL executions (sooner when its own next op
    // carries T[1]); one op is in flight. 2x for slack.
    let bound = 2 * (ACK_INTERVAL + n as u64 + 1);
    assert!(
        report.hb_high_water <= bound,
        "history buffer grew with the session: high water {} > window {bound} over {ops} ops",
        report.hb_high_water
    );
    let recovery = cvc_reduce::wal::Wal::recover(&report.wal_bytes).expect("WAL recovers");
    assert!(
        recovery.snapshot.is_some(),
        "a fully acknowledged {ops}-op session must have compacted at least once"
    );
    let (recovered, _) = recovery.restore(n, "").expect("WAL restores");
    assert_eq!(recovered.doc_checksum(), report.doc_checksum);
    bare_acks
}

/// DESIGN §15/§17: the TCP server's history is bounded by the in-flight
/// window, not by the session. Four round-robin writers run 2 000 ops;
/// each receives only three ops between its own, so every ack rides
/// `T[1]` of an op. The lockstep script applies every broadcast before
/// the next op, so the server is quiet after each one: this checks the
/// history window and that the log is cut to a snapshot, not that the log
/// stays bounded under load — `a_pipelined_session_keeps_the_log_bounded`
/// does that.
#[test]
fn long_session_keeps_history_and_log_bounded() {
    assert_eq!(lockstep_session(4, 4, 2_000), [0; 4]);
}

/// DESIGN §15/§17 under load: the log's live bytes are bounded by the
/// document and the in-flight window, not by the session. Four writers
/// each send an op every round, concurrently, and take the broadcasts of
/// the round before only after sending the next, so the notifier always
/// holds a round of unacknowledged history and is never quiet, for
/// 20 × [`DEFAULT_COMPACT_EVERY`] ops. The snapshot the log ends on was
/// cut with history in flight, and recovery from it reproduces the
/// document.
#[test]
fn a_pipelined_session_keeps_the_log_bounded() {
    let n = 4;
    let rounds = 20 * DEFAULT_COMPACT_EVERY as usize / n;
    let server = EditorServer::spawn(ServerConfig {
        n_clients: n,
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr().to_string();
    let sites: Vec<SiteId> = (0..n).map(SiteId::from_client_index).collect();
    let mut replicas: Vec<Client> = sites.iter().map(|&s| Client::new(s, "")).collect();
    let mut peers: Vec<TestPeer> = sites.iter().map(|&s| TestPeer::bind(&addr, s)).collect();
    for round in 0..=rounds {
        for (peer, replica) in peers.iter_mut().zip(&mut replicas) {
            if round == rounds {
                break;
            }
            // The document hovers at 16 characters.
            let len = replica.doc_len();
            let op = if len < 16 {
                replica.insert(len / 2, "x")
            } else {
                replica.delete(0, 1)
            };
            peer.send(&EditorMsg::ClientOp(op));
        }
        if round == 0 {
            continue;
        }
        for (peer, replica) in peers.iter_mut().zip(&mut replicas) {
            apply_server_ops(peer, replica, n - 1);
            replica.gc();
            if let Some(ack) = replica.take_pending_ack() {
                peer.send(&EditorMsg::ClientAck(ack));
            }
        }
    }
    // No final acks: the session ends as it ran, with history in flight.
    barrier(&addr);

    let report = server.shutdown();
    assert_eq!(report.ops_integrated, (n * rounds) as u64);
    assert_eq!(report.protocol_errors, 0);
    for replica in &replicas {
        assert_eq!(replica.doc(), report.doc);
    }
    // A snapshot holds the document and, per history entry, its op and a
    // few varints, plus a reference per pending broadcast; the live log is
    // at most two snapshots and one cadence of records (each op record
    // under 24 bytes here, ack frontiers included).
    let window = report.hb_high_water as usize;
    let snapshot = 64 + report.doc.len() + window * 16 + n * (16 + window * 4);
    let bound = 2 * snapshot + 24 * DEFAULT_COMPACT_EVERY as usize;
    assert!(
        report.wal_bytes.len() <= bound,
        "live log {} B > {bound} B (window {window}) after {} ops",
        report.wal_bytes.len(),
        n * rounds
    );
    let recovery = cvc_reduce::wal::Wal::recover(&report.wal_bytes).expect("WAL recovers");
    let snap = recovery.snapshot.as_ref().expect("the log was cut");
    assert!(!snap.history.is_empty(), "cut with history in flight");
    let (recovered, _) = recovery.restore(n, "").expect("WAL restores");
    assert_eq!(recovered.doc_checksum(), report.doc_checksum);
}

/// The reader path of the ack rule on real sockets: two writers and two
/// read-only sites, which can only send a bare ack every
/// [`ACK_INTERVAL`] executions. Those acks alone must keep the history
/// within the same window and let the log compact; a hub that dropped
/// them would pin every op.
#[test]
fn quiet_readers_ack_every_interval_and_keep_history_bounded() {
    let ops = 8 * ACK_INTERVAL;
    let readers_acks = ops / ACK_INTERVAL;
    assert_eq!(
        lockstep_session(4, 2, ops as usize),
        [0, 0, readers_acks, readers_acks]
    );
}

/// Heavy connect/disconnect churn forces the workers to recycle slab
/// slots while honest traffic flows and evictions race disconnects. The
/// generation tag on connection ids must keep every stale write or close
/// command away from a slot's next occupant: the honest session still
/// converges and no cross-connection leak corrupts a stream.
#[test]
fn connection_churn_never_leaks_across_slot_reuse() {
    let n = 4;
    let server = EditorServer::spawn(ServerConfig {
        n_clients: n,
        // One worker: every churned connection shares the honest
        // clients' slab, maximizing slot reuse.
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr().to_string();

    let churn_stop = Arc::new(AtomicBool::new(false));
    let churner = {
        let addr = addr.clone();
        let stop = Arc::clone(&churn_stop);
        std::thread::spawn(move || {
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let Ok(mut s) = TcpStream::connect(&addr) else {
                    continue;
                };
                match i % 3 {
                    // Connect-and-drop: pure slot churn.
                    0 => {}
                    // Out-of-range hello: the bind is refused and an
                    // eviction Close is queued — a command that can race
                    // this drop and the slot's reuse.
                    1 => {
                        let msg = EditorMsg::ClientAck(ClientAckMsg {
                            origin: SiteId::from_client_index(64),
                            received: 0,
                        });
                        let mut body = Vec::with_capacity(msg.wire_bytes());
                        msg.encode(&mut body);
                        let mut frame = Vec::new();
                        write_frame(&mut frame, &[&body]);
                        let _ = s.write_all(&frame);
                    }
                    // Unparseable garbage: a frame-error close in the
                    // worker's event phase.
                    _ => {
                        let _ = s.write_all(&[0xDE, 0xAD, 0xBE, 0xEF]);
                    }
                }
                drop(s);
                i += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    let cfg = ClientConfig {
        addr,
        total_ops: 64,
        seed: 23,
    };
    let load = run_clients(&cfg, fresh_replicas(n)).expect("clients run");
    churn_stop.store(true, Ordering::Relaxed);
    churner.join().expect("churner joins");

    assert_eq!(load.conn_errors, 0, "honest connections must survive churn");
    assert_eq!(
        load.redials, 0,
        "no honest connection is closed and re-dialed"
    );
    assert_eq!(load.protocol_errors, 0);
    assert!(load.converged, "honest clients converge through the churn");

    let report = server.shutdown();
    assert_eq!(report.ops_integrated, 64);
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.io_errors, 0);
    assert_eq!(report.doc_checksum, load.doc_checksum);
}

/// The worker reads before it writes, but only for a bounded while: a
/// bound reader that sends valid acks at its frontier without pause keeps
/// every one of its worker's passes reading, yet the other readers still
/// get a broadcast within the deadline. Held output waits for at most
/// one core batch of hand-offs, not for the sockets to go quiet.
#[test]
fn a_reader_that_never_pauses_cannot_hold_back_broadcasts() {
    const DEADLINE: Duration = Duration::from_secs(2);
    let n = 4;
    let server = EditorServer::spawn(ServerConfig {
        n_clients: n,
        // One worker: the chatter shares its poll passes with everyone.
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr().to_string();
    let sites: Vec<SiteId> = (0..n).map(SiteId::from_client_index).collect();
    let mut writer = TestPeer::bind(&addr, sites[0]);
    let mut chatter = TestPeer::bind(&addr, sites[1]).stream;
    let mut readers: Vec<TestPeer> = sites[2..]
        .iter()
        .map(|&s| TestPeer::bind(&addr, s))
        .collect();
    barrier(&addr);

    // Stops the chatter however the test ends.
    struct StopOnDrop(Arc<AtomicBool>);
    impl Drop for StopOnDrop {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let stop = StopOnDrop(Arc::new(AtomicBool::new(false)));
    let chatter = {
        let stop = Arc::clone(&stop.0);
        let mut burst = Vec::new();
        let ack = EditorMsg::ClientAck(ClientAckMsg {
            origin: sites[1],
            received: 0,
        });
        let mut body = Vec::with_capacity(ack.wire_bytes());
        ack.encode(&mut body);
        for _ in 0..256 {
            write_frame(&mut burst, &[&body]);
        }
        let (flooding, flood_on) = std::sync::mpsc::channel();
        let chatter = std::thread::spawn(move || {
            for sent in 0u64.. {
                if stop.load(Ordering::Relaxed) || chatter.write_all(&burst).is_err() {
                    break;
                }
                if sent == 16 {
                    let _ = flooding.send(());
                }
            }
        });
        // The op below goes out only once the flood has taken hold.
        flood_on.recv().expect("the chatter floods");
        chatter
    };

    let started = std::time::Instant::now();
    writer.send(&EditorMsg::ClientOp(
        Client::new(sites[0], "").insert(0, "a"),
    ));
    for (reader, &site) in readers.iter_mut().zip(&sites[2..]) {
        reader
            .stream
            .set_read_timeout(Some(DEADLINE))
            .expect("set timeout");
        let mut replica = Client::new(site, "");
        apply_server_ops(reader, &mut replica, 1);
        assert_eq!(replica.doc(), "a");
    }
    let waited = started.elapsed();
    drop(stop);
    chatter.join().expect("chatter joins");
    assert!(waited < DEADLINE, "the broadcast took {waited:?}");

    let report = server.shutdown();
    assert_eq!(report.ops_integrated, 1);
    assert_eq!(report.protocol_errors, 0, "every chatter ack is valid");
    assert_eq!(report.io_errors, 0);
}

/// The hand-off counters are the same numbers on `/metrics` and in the
/// report, and the core's queue gauge — which counts editor messages, not
/// worker passes — reads empty once the barrier has gone through.
#[test]
fn hand_off_counters_agree_between_registry_and_report() {
    let server = EditorServer::spawn(ServerConfig {
        n_clients: 2,
        workers: 1,
        admin_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr().to_string();
    let admin = AdminClient::new(
        &server.admin_addr().expect("admin binds").to_string(),
        Duration::from_secs(5),
    );
    let site1 = SiteId::from_client_index(0);
    let site2 = SiteId::from_client_index(1);
    let mut editor1 = Client::new(site1, "");
    let mut replica2 = Client::new(site2, "");
    let mut peer1 = TestPeer::bind(&addr, site1);
    let mut peer2 = TestPeer::bind(&addr, site2);
    for k in 0..3 {
        peer1.send(&EditorMsg::ClientOp(editor1.insert(k, "x")));
        apply_server_ops(&mut peer2, &mut replica2, 1);
    }
    barrier(&addr);

    // The registry is published every 100 ms: wait for two snapshots that
    // agree, taken after everything above reached the core.
    let scrape = || {
        let (code, text) = admin.get_text("/metrics").expect("scrape");
        assert_eq!(code, 200);
        let value = |name: &str| -> Option<f64> {
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        };
        Some((
            value("cvc_admin_snapshot_seq")?,
            [
                value("cvc_net_core_handoffs")?,
                value("cvc_net_write_rounds")?,
                value("cvc_core_queue_depth")?,
                value("cvc_net_deferred")?,
                value("cvc_net_worker_hold_us_count")?,
            ],
        ))
    };
    let mut last = None;
    let mut settled = None;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(50));
        let now = scrape();
        if let (Some((seq, values)), Some((last_seq, last_values))) = (now, last) {
            if seq > last_seq && values == last_values {
                settled = Some(values);
                break;
            }
        }
        last = now;
    }
    let [handoffs, write_rounds, queue_depth, deferred, holds] =
        settled.expect("the registry settles");
    assert_eq!(
        queue_depth, 0.0,
        "the core drained every handed-over message"
    );

    let report = server.shutdown();
    assert_eq!(report.ops_integrated, 3);
    assert!(report.core_handoffs > 0 && report.write_rounds > 0);
    assert_eq!(report.core_handoffs as f64, handoffs);
    assert_eq!(report.write_rounds as f64, write_rounds);
    assert_eq!(report.deferred as f64, deferred);
    // Every round that wrote recorded at least one connection's hold.
    assert!(
        holds >= write_rounds,
        "{holds} holds over {write_rounds} rounds"
    );
}

/// A broadcast its reader is not waiting on is held for company, but
/// only until its deadline, and the worker wakes for that deadline: one
/// op's broadcast, with no later traffic to carry it, reaches a quiet
/// reader well inside the 500 ms an idle worker's poll blocks.
#[test]
fn a_lone_broadcast_reaches_a_quiet_reader_without_later_traffic() {
    let server = EditorServer::spawn(ServerConfig {
        n_clients: 2,
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr().to_string();
    let (site1, site2) = (SiteId::from_client_index(0), SiteId::from_client_index(1));
    let mut writer = TestPeer::bind(&addr, site1);
    let mut reader = TestPeer::bind(&addr, site2);
    barrier(&addr);

    let started = std::time::Instant::now();
    writer.send(&EditorMsg::ClientOp(Client::new(site1, "").insert(0, "a")));
    let mut replica = Client::new(site2, "");
    apply_server_ops(&mut reader, &mut replica, 1);
    let waited = started.elapsed();
    assert_eq!(replica.doc(), "a");
    assert!(
        waited < Duration::from_millis(200),
        "the broadcast took {waited:?}"
    );
    assert!(matches!(writer.recv(), EditorMsg::ServerAck(_)));

    let report = server.shutdown();
    assert_eq!((report.ops_integrated, report.io_errors), (1, 0));
}

/// A hello's catch-up answers the peer's own input, as an op's
/// `ServerAck` does: both are written in the round that takes them from
/// the core, never left behind to wait for the broadcast hold.
#[test]
fn a_fresh_hellos_catch_up_is_answered_without_the_hold() {
    let server = EditorServer::spawn(ServerConfig {
        n_clients: 2,
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr().to_string();
    let (site1, site2) = (SiteId::from_client_index(0), SiteId::from_client_index(1));
    let mut writer = TestPeer::bind(&addr, site1);
    let mut editor = Client::new(site1, "");
    for k in 0..3 {
        writer.send(&EditorMsg::ClientOp(editor.insert(k, "x")));
        assert!(matches!(writer.recv(), EditorMsg::ServerAck(_)));
    }
    let mut late = TestPeer::bind(&addr, site2);
    let mut replica = Client::new(site2, "");
    apply_server_ops(&mut late, &mut replica, 3);
    assert_eq!(replica.doc(), "xxx");

    let report = server.shutdown();
    assert_eq!(report.ops_integrated, 3);
    assert_eq!(report.deferred, 0, "no answer was held for company");
}
