//! The workload table and the edit generator.
//!
//! Every workload is the same harness with different numbers. Edits are
//! caret-local on a length-stationary document: a writer types at its
//! caret until its replica reaches the target length, then backspaces, so
//! the document hovers at the target and every window of a run does the
//! same work (uniform positions on an ever-growing document halve the
//! throughput inside one run — see README.md, "noise study").

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One benchmark workload. All are closed loops: a writer keeps `window`
/// operations un-acknowledged and issues the next when an ack retires one.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line: which layers it stresses and why it exists.
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so the driver runs it and holds its
    /// end-to-end metrics to their bounds. The driver's time limit pays
    /// for two workloads at a run length this host repeats at (README.md,
    /// noise study); the others are run by `run.sh` for their layers.
    pub gated: bool,
    /// Client sites (= connections = replicas in the generator).
    pub clients: usize,
    /// Sites `1..=writers` edit; the rest only read and acknowledge.
    pub writers: usize,
    /// Un-acknowledged operations each writer keeps in flight.
    pub window: usize,
    /// Characters per insert or delete.
    pub block: usize,
    /// Document length the edit stream hovers at.
    pub target_len: usize,
    /// Acknowledged operations between prefill and the measured phase
    /// (fills the writers' undo stacks and the allocator's free lists).
    pub warmup_ops: u64,
    /// Measured operations after which memory is sampled, so the number is
    /// taken at the same amount of work whatever the throughput.
    pub rss_at_ops: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "typing_n8",
        why: "The paper's common case: 8 users typing single chars, one op in flight each. Client replicas and per-op syscalls dominate; the notifier's transform path is idle.",
        gated: true,
        clients: 8,
        writers: 8,
        window: 1,
        block: 1,
        target_len: 4096,
        warmup_ops: 6000,
        rss_at_ops: 30_000,
    },
    Workload {
        name: "fanout_n64",
        why: "4 writers, 60 readers acking every 8th op: 63 broadcasts per op load the worker write path, encode-once heads, compound coalescing and WAL ack records.",
        gated: true,
        clients: 64,
        writers: 4,
        window: 2,
        block: 1,
        target_len: 4096,
        warmup_ops: 3000,
        rss_at_ops: 15_000,
    },
    Workload {
        name: "burst_n8",
        why: "typing_n8's sockets and sizes with 256 ops in flight: each op is concurrent with up to 224 others, so the formula-7 scan and SeqOp::transform in the notifier dominate.",
        gated: false,
        clients: 8,
        writers: 8,
        window: 32,
        block: 1,
        target_len: 4096,
        warmup_ops: 6000,
        rss_at_ops: 25_000,
    },
    Workload {
        name: "paste_n8",
        why: "typing_n8's layers with 512-char block inserts and deletes on a 64 KiB document: bytes, not message count, cost - checksums, codec, WAL bytes, buffer moves.",
        gated: false,
        clients: 8,
        writers: 8,
        window: 1,
        block: 512,
        target_len: 65_536,
        warmup_ops: 1000,
        rss_at_ops: 4000,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Probability that a writer moves its caret to a uniform position before
/// an edit (a user clicking elsewhere); otherwise it edits where it is.
const JUMP_P: f64 = 0.02;

/// What a writer does next. Lengths are the workload's `block`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// Insert `block` copies of the site's letter at `pos`.
    Insert { pos: usize },
    /// Delete the `block` characters starting at `pos`.
    Delete { pos: usize },
}

/// A site's edit stream: a pure function of `(seed, site)` and of the
/// `(doc_len, caret)` pairs it is shown. The server sees only the frames
/// the edits turn into.
#[derive(Debug, Clone)]
pub struct EditGen {
    rng: SmallRng,
    block: usize,
    target_len: usize,
}

impl EditGen {
    pub fn new(seed: u64, site_index: usize, w: &Workload) -> Self {
        let stream = seed ^ (site_index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        EditGen {
            rng: SmallRng::seed_from_u64(stream),
            block: w.block,
            target_len: w.target_len,
        }
    }

    pub fn next(&mut self, doc_len: usize, caret: usize) -> Edit {
        let caret = if self.rng.gen_bool(JUMP_P) {
            self.rng.gen_range(0..=doc_len)
        } else {
            caret.min(doc_len)
        };
        if doc_len >= self.target_len && caret >= self.block {
            Edit::Delete {
                pos: caret - self.block,
            }
        } else {
            Edit::Insert { pos: caret }
        }
    }
}

/// Each site inserts only its own letter, so a replica executing a remote
/// insert can tell whose it is from the text alone.
const LETTERS: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

pub fn letter_of(site_index: usize) -> char {
    LETTERS[site_index] as char
}

pub fn origin_of(letter: char) -> Option<usize> {
    LETTERS.iter().position(|&l| l as char == letter)
}

/// Send instants of one origin's inserts, by ordinal. Replica `j` seeing
/// the k-th insert carrying origin `o`'s letter looks up `o`'s k-th send
/// instant here (the notifier keeps each origin's operations in order).
/// A ring, so memory does not grow with the run; a slot is checked against
/// the ordinal it was written for, so a lapped entry reads as missing, not
/// as a wrong latency.
#[derive(Debug)]
pub struct SendRing {
    slots: Vec<SentInsert>,
    next: u64,
}

/// One recorded insert: its ordinal, the op's sequence number at its
/// origin, and when it was written to the socket.
#[derive(Debug, Clone, Copy, Default)]
struct SentInsert {
    ordinal_plus_1: u64,
    seq: u64,
    sent_ns: u64,
}

impl SendRing {
    /// `capacity` must be a power of two.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity.is_power_of_two());
        SendRing {
            slots: vec![SentInsert::default(); capacity],
            next: 0,
        }
    }

    /// Record the next insert of this origin.
    pub fn push(&mut self, seq: u64, sent_ns: u64) {
        let mask = self.slots.len() as u64 - 1;
        self.slots[(self.next & mask) as usize] = SentInsert {
            ordinal_plus_1: self.next + 1,
            seq,
            sent_ns,
        };
        self.next += 1;
    }

    /// `(seq, sent_ns)` of this origin's `ordinal`-th insert (0-based).
    pub fn get(&self, ordinal: u64) -> Option<(u64, u64)> {
        let mask = self.slots.len() as u64 - 1;
        let s = self.slots[(ordinal & mask) as usize];
        (s.ordinal_plus_1 == ordinal + 1).then_some((s.seq, s.sent_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_table_is_consistent() {
        for w in &WORKLOADS {
            assert!(w.writers >= 1 && w.writers <= w.clients, "{}", w.name);
            assert!(
                w.clients <= LETTERS.len(),
                "{}: one letter per site",
                w.name
            );
            assert!(w.window >= 1 && w.block >= 1, "{}", w.name);
            assert!(w.target_len >= 2 * w.block, "{}", w.name);
            // `why` goes into BENCHMARK.json verbatim, as one line.
            assert!(w.why.len() <= 200, "{}", w.name);
            assert!(!w.why.contains(['\n', '"', '\\']), "{}", w.name);
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
        assert!(WORKLOADS.iter().filter(|w| w.gated).count() >= 2);
    }

    /// Drive a generator over a deterministic walk of (doc_len, caret).
    fn walk(seed: u64, site: usize, w: &Workload) -> Vec<Edit> {
        let mut g = EditGen::new(seed, site, w);
        let (mut len, mut caret) = (0usize, 0usize);
        (0..5000)
            .map(|_| {
                let e = g.next(len, caret);
                match e {
                    Edit::Insert { pos } => {
                        len += w.block;
                        caret = pos + w.block;
                    }
                    Edit::Delete { pos } => {
                        len -= w.block;
                        caret = pos;
                    }
                }
                e
            })
            .collect()
    }

    #[test]
    fn edit_stream_is_a_pure_function_of_seed_site_and_state() {
        let w = &WORKLOADS[0];
        assert_eq!(walk(7, 3, w), walk(7, 3, w));
        assert_ne!(walk(7, 3, w), walk(7, 4, w));
        assert_ne!(walk(7, 3, w), walk(8, 3, w));
        // Same generator state, different document state: the answer
        // follows the state it is shown.
        let mut a = EditGen::new(1, 0, w);
        let mut b = a.clone();
        assert_eq!(a.next(10, 4), b.next(10, 4));
        // Below the target length the only edit is an insert; at it, with
        // room before the caret, a delete (a caret jump may land on 0).
        assert!(matches!(b.next(w.target_len - 1, 40), Edit::Insert { .. }));
        let at_target = a.next(w.target_len, 40);
        assert!(matches!(
            at_target,
            Edit::Delete { .. } | Edit::Insert { pos: 0 }
        ));
    }

    #[test]
    fn edits_fit_the_document_and_hold_it_at_the_target() {
        for w in &WORKLOADS {
            let mut g = EditGen::new(42, 0, w);
            let (mut len, mut caret) = (0usize, 0usize);
            let mut peak = 0;
            for _ in 0..20_000 {
                match g.next(len, caret) {
                    Edit::Insert { pos } => {
                        assert!(pos <= len);
                        len += w.block;
                        caret = pos + w.block;
                    }
                    Edit::Delete { pos } => {
                        assert!(pos + w.block <= len);
                        len -= w.block;
                        caret = pos;
                    }
                }
                peak = peak.max(len);
            }
            assert!(len >= w.target_len - w.block, "{}: ended at {len}", w.name);
            assert!(
                peak <= w.target_len + w.block,
                "{}: peaked at {peak}",
                w.name
            );
        }
    }

    #[test]
    fn letters_identify_their_origin() {
        for i in 0..LETTERS.len() {
            assert_eq!(origin_of(letter_of(i)), Some(i));
        }
        assert_eq!(origin_of('-'), None);
    }

    #[test]
    fn kth_insert_maps_to_its_send_instant() {
        let mut ring = SendRing::new(4);
        assert_eq!(ring.get(0), None);
        for k in 0..6u64 {
            ring.push(10 + k, 1000 * k);
        }
        // Ordinals 2..=5 are resident; 0 and 1 were lapped and must read
        // as missing, never as another insert's instant.
        assert_eq!(ring.get(0), None);
        assert_eq!(ring.get(1), None);
        for k in 2..6u64 {
            assert_eq!(ring.get(k), Some((10 + k, 1000 * k)));
        }
        assert_eq!(ring.get(6), None);
    }
}
