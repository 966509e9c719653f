//! End-to-end checks for the TCP tier: torn-read reassembly equivalence,
//! a live server ↔ sim-twin differential, hostile-peer eviction (framing
//! garbage, a bound peer's protocol violation that must stay out of the
//! log, and a forged origin that must cost the sender, not the site it
//! names), reconnect rebinding (a rebind is a replay from the history
//! buffer; one below a collected prefix is shed), connection churn over
//! recycled slab slots, a long session whose history buffer and log
//! stay bounded, a reader that never pauses and still cannot hold back a
//! broadcast, and the hand-off counters read alike from `/metrics` and
//! the report.

use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use cvc_net::{replay_twin, run_load, AdminClient, EditorServer, LoadConfig, ServerConfig};
use cvc_reduce::client::{Client, ACK_INTERVAL};
use cvc_reduce::frame::{write_frame, FrameReader};
use cvc_reduce::msg::{ClientAckMsg, EditorMsg, ServerOpMsg};
use cvc_sim::wire::{WireDecode, WireEncode, WireSize};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
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
    let n = 8;
    let server = EditorServer::spawn(ServerConfig {
        n_clients: n,
        workers: 2,
        capture_integrations: true,
        ..ServerConfig::default()
    })
    .expect("server spawns");
    let addr = server.addr().to_string();

    let load = run_load(&LoadConfig {
        addr,
        n_clients: n,
        total_ops: 512,
        rate: 0.0,
        threads: 2,
        seed: 7,
        timeout: Duration::from_secs(60),
    })
    .expect("load runs");

    assert_eq!(load.conn_errors, 0, "no connection may die");
    assert_eq!(load.protocol_errors, 0, "no replica may see a violation");
    assert_eq!(load.ops_sent, 512);
    assert_eq!(load.ops_acked, 512, "every op must be acked");
    assert!(load.converged, "all replicas must converge");
    assert_eq!(load.distinct_checksums, 1);
    assert_eq!(load.rtt.count, 512, "every op's RTT must be measured");

    let report = server.shutdown();
    assert_eq!(report.ops_integrated, 512);
    assert_eq!(report.protocol_errors, 0);
    assert_eq!(report.frame_errors, 0);
    assert_eq!(report.io_errors, 0, "no I/O-tier thread may die");
    assert_eq!(
        report.doc_checksum, load.doc_checksum,
        "server and replicas must agree"
    );
    assert_eq!(report.doc, load.doc);
    assert_eq!(report.doc.chars().count(), 512);

    // The WAL must recover to the same document the live server reached.
    let recovery = cvc_reduce::wal::Wal::recover(&report.wal_bytes).expect("WAL recovers");
    let (recovered, _) = recovery.restore(n, "").expect("WAL restores");
    assert_eq!(recovered.doc_checksum(), report.doc_checksum);

    // The sim twin certifies the integration order offline.
    let twin = replay_twin(n, &report.integration_log).expect("twin replay certifies");
    assert_eq!(twin.ops_replayed, 512);
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

    let load = run_load(&LoadConfig {
        addr,
        n_clients: n,
        total_ops: 64,
        rate: 0.0,
        threads: 1,
        seed: 11,
        timeout: Duration::from_secs(30),
    })
    .expect("load runs");
    assert!(load.converged, "honest clients still converge");

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

    // The stale rebind costs its connection and nothing else.
    TestPeer::bind(&addr, site2).wait_closed();
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

/// DESIGN §15/§17: the TCP server's state is bounded by the in-flight
/// window, not by the session. Four lockstep writers (one op in flight,
/// acks exactly as `Client::take_pending_ack` dictates, one final ack
/// each) run 2 000 ops; the notifier's history buffer must stay within
/// the ack-lag window and the log must have compacted to a snapshot.
#[test]
fn long_session_keeps_history_and_log_bounded() {
    const OPS: usize = 2_000;
    let n = 4;
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

    for k in 0..OPS {
        let origin = k % n;
        let op = replicas[origin].insert(k / 2, "x");
        peers[origin].send(&EditorMsg::ClientOp(op));
        for j in (0..n).filter(|&j| j != origin) {
            apply_server_ops(&mut peers[j], &mut replicas[j], 1);
            replicas[j].gc();
            if let Some(ack) = replicas[j].take_pending_ack() {
                peers[j].send(&EditorMsg::ClientAck(ack));
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
    assert_eq!(report.ops_integrated, OPS as u64);
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
        "history buffer grew with the session: high water {} > window {bound} over {OPS} ops",
        report.hb_high_water
    );

    let recovery = cvc_reduce::wal::Wal::recover(&report.wal_bytes).expect("WAL recovers");
    assert!(
        recovery.snapshot.is_some(),
        "a fully acknowledged {OPS}-op session must have compacted at least once"
    );
    let (recovered, _) = recovery.restore(n, "").expect("WAL restores");
    assert_eq!(recovered.doc_checksum(), report.doc_checksum);
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

    let load = run_load(&LoadConfig {
        addr,
        n_clients: n,
        total_ops: 64,
        rate: 0.0,
        threads: 1,
        seed: 23,
        timeout: Duration::from_secs(30),
    })
    .expect("load runs");
    churn_stop.store(true, Ordering::Relaxed);
    churner.join().expect("churner joins");

    assert_eq!(load.conn_errors, 0, "honest connections must survive churn");
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
    let [handoffs, write_rounds, queue_depth] = settled.expect("the registry settles");
    assert_eq!(
        queue_depth, 0.0,
        "the core drained every handed-over message"
    );

    let report = server.shutdown();
    assert_eq!(report.ops_integrated, 3);
    assert!(report.core_handoffs > 0 && report.write_rounds > 0);
    assert_eq!(report.core_handoffs as f64, handoffs);
    assert_eq!(report.write_rounds as f64, write_rounds);
}
