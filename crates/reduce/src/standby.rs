//! Warm-standby notifier: tails the write-ahead log, promotes on crash.
//!
//! The standby is a second [`Notifier`] kept current by observing the
//! primary's WAL records as they are appended (in the simulator the log is
//! mirrored synchronously; over a real deployment the same byte stream
//! would ride a channel — the [`crate::wal`] record format is the
//! contract, not the transport). Every record goes through
//! [`crate::core::apply`] — the same step function the primary and log
//! recovery run — so by the write-ahead ordering the standby's state is
//! always *ahead of or equal to* every client's view of the primary.
//!
//! On promotion the reliability layer swaps the standby's notifier in for
//! the dead primary's and fences every channel (see
//! `RobustNotifier`): the promoted notifier hears only a data frame in a
//! *bumped* epoch — a new connection, which is exactly what crashed-out
//! clients open after their retransmit stall detector fires — and its
//! hello, answered by the hub like any other. Replay then runs off the
//! standby's history buffer via the 2-element-clock cursor
//! ([`Notifier::replay_for`]); a cursor below a collected prefix is
//! answered `Trimmed`, as on the socket tier. Frames the zombie primary
//! may still emit carry the old epoch and are discarded by the
//! established epoch rules on every survivor.
//!
//! A *cold* standby — one started after the crash — reaches the same
//! state from the log image alone: [`Standby::from_log`] recovers the
//! latest snapshot and replays the tail.

use crate::error::ProtocolError;
use crate::notifier::{Notifier, ScanMode};
use crate::wal::{Wal, WalError, WalRecord, WalRecovery};

/// A warm-standby notifier fed by the primary's WAL record stream.
#[derive(Debug, Clone)]
pub struct Standby {
    notifier: Notifier,
    replayed_ops: u64,
    replayed_acks: u64,
    /// First record that failed to integrate, if any. A poisoned standby
    /// means the log and the primary's state disagree — promotion must
    /// not proceed silently.
    poisoned: Option<ProtocolError>,
}

impl Standby {
    /// A standby for a fresh session: same client count, same initial
    /// document, same scan mode as the primary it shadows.
    pub fn new(n_clients: usize, initial: &str, scan_mode: ScanMode) -> Self {
        let mut notifier = Notifier::new(n_clients, initial);
        notifier.set_scan_mode(scan_mode);
        Standby::shadowing(notifier)
    }

    fn shadowing(notifier: Notifier) -> Self {
        Standby {
            notifier,
            replayed_ops: 0,
            replayed_acks: 0,
            poisoned: None,
        }
    }

    /// Cold start from a log image: recover the latest snapshot, replay
    /// the tail. Torn tails are tolerated per [`Wal::recover`]; a tail
    /// record the notifier rejects poisons the standby just as live
    /// observation would.
    pub fn from_log(bytes: &[u8], n_clients: usize, initial: &str) -> Result<Standby, WalError> {
        let recovery = Wal::recover(bytes)?;
        Ok(Standby::from_recovery(&recovery, n_clients, initial))
    }

    /// Build a standby from an already-scanned [`WalRecovery`].
    pub fn from_recovery(recovery: &WalRecovery, n_clients: usize, initial: &str) -> Standby {
        let mut standby = match &recovery.snapshot {
            Some(s) => Standby::shadowing(s.restore()),
            None => Standby::new(n_clients, initial, ScanMode::SuffixBounded),
        };
        for rec in &recovery.tail {
            // A failing record poisons the standby; the error is retained.
            let _ = standby.observe(rec);
        }
        standby
    }

    /// Integrate one WAL record. Returns the integration verdict; a
    /// failure also poisons the standby permanently (first error wins),
    /// since a divergent replica must not be promoted silently.
    pub fn observe(&mut self, rec: &WalRecord) -> Result<(), ProtocolError> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        match crate::core::apply(&mut self.notifier, rec) {
            Ok(_) => {
                match rec {
                    WalRecord::Op(_) => self.replayed_ops += 1,
                    WalRecord::Ack(_) | WalRecord::AckFrontier(_) => self.replayed_acks += 1,
                    WalRecord::Evict(_) | WalRecord::Snapshot(_) => {}
                }
                Ok(())
            }
            Err(e) => {
                self.poisoned = Some(e.clone());
                Err(e)
            }
        }
    }

    /// Mirror the primary's auto-GC setting so the shadow history buffer
    /// trims on the same schedule. Survives snapshot-record restores
    /// ([`crate::core::apply`] carries it across).
    pub fn set_auto_gc(&mut self, on: bool) {
        self.notifier.set_auto_gc(on);
    }

    /// Operation records integrated so far.
    pub fn replayed_ops(&self) -> u64 {
        self.replayed_ops
    }

    /// Ack records integrated so far.
    pub fn replayed_acks(&self) -> u64 {
        self.replayed_acks
    }

    /// The first integration failure, if the standby is poisoned.
    pub fn poisoned(&self) -> Option<&ProtocolError> {
        self.poisoned.as_ref()
    }

    /// Read access to the shadow notifier.
    pub fn notifier(&self) -> &Notifier {
        &self.notifier
    }

    /// Consume the standby, yielding its notifier for promotion. Errors
    /// with the poisoning failure instead of promoting a divergent
    /// replica.
    pub fn promote(self) -> Result<Notifier, ProtocolError> {
        match self.poisoned {
            Some(e) => Err(e),
            None => Ok(self.notifier),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::{ClientAckMsg, ClientOpMsg};
    use crate::wal::WalSnapshot;
    use cvc_core::site::SiteId;
    use cvc_core::state_vector::CompressedStamp;
    use cvc_ot::pos::PosOp;
    use cvc_ot::seq::SeqOp;

    fn op(origin: u32, t1: u64, t2: u64, pos: usize, text: &str, base: usize) -> ClientOpMsg {
        ClientOpMsg {
            origin: SiteId(origin),
            stamp: CompressedStamp::new(t1, t2),
            op: SeqOp::from_pos(&PosOp::insert(pos, text), base),
            cursor: None,
        }
    }

    #[test]
    fn shadow_tracks_primary_exactly() {
        let mut primary = Notifier::new(2, "base");
        let mut wal = Wal::new(0);
        let mut standby = Standby::new(2, "base", ScanMode::SuffixBounded);
        let script = [
            op(1, 0, 1, 0, "x", 4),
            op(2, 0, 1, 2, "y", 4),
            op(1, 1, 2, 4, "z", 6),
        ];
        for m in script {
            let rec = WalRecord::Op(m.clone());
            wal.append(&rec);
            standby.observe(&rec).expect("standby integrates");
            primary
                .try_on_client_op_outcome(m)
                .expect("primary integrates");
        }
        assert_eq!(standby.replayed_ops(), 3);
        assert_eq!(standby.notifier().doc(), primary.doc());
        assert_eq!(standby.notifier().doc_checksum(), primary.doc_checksum());
        assert_eq!(
            standby.notifier().checkpoint_cursors(),
            primary.checkpoint_cursors()
        );
        let promoted = standby.promote().expect("clean promote");
        assert_eq!(promoted.doc(), primary.doc());
    }

    #[test]
    fn cold_start_from_log_matches_warm_shadow() {
        let mut wal = Wal::new(0);
        let mut warm = Standby::new(2, "", ScanMode::SuffixBounded);
        for (i, m) in [op(1, 0, 1, 0, "ab", 0), op(2, 1, 1, 1, "c", 2)]
            .into_iter()
            .enumerate()
        {
            let rec = WalRecord::Op(m);
            wal.append(&rec);
            warm.observe(&rec).expect("warm integrates");
            let ack = ClientAckMsg {
                origin: SiteId(1),
                received: i as u64,
            };
            let rec = WalRecord::Ack(ack);
            wal.append(&rec);
            warm.observe(&rec).expect("warm acks");
        }
        let cold = Standby::from_log(wal.bytes(), 2, "").expect("cold recover");
        assert!(cold.poisoned().is_none());
        assert_eq!(cold.replayed_ops(), 2);
        assert_eq!(cold.replayed_acks(), 2);
        assert_eq!(cold.notifier().doc(), warm.notifier().doc());
        assert_eq!(
            cold.notifier().checkpoint_cursors(),
            warm.notifier().checkpoint_cursors()
        );
    }

    #[test]
    fn snapshot_record_resets_the_shadow() {
        let snap = WalSnapshot {
            doc: "SNAP".into(),
            clients: vec![
                crate::notifier::CheckpointCursor {
                    sent: 2,
                    received: 1,
                    join_offset: 0,
                    active: true,
                },
                crate::notifier::CheckpointCursor {
                    sent: 1,
                    received: 2,
                    join_offset: 0,
                    active: true,
                },
            ],
        };
        let mut standby = Standby::new(2, "unrelated", ScanMode::SuffixBounded);
        standby
            .observe(&WalRecord::Snapshot(snap))
            .expect("snapshot adopts");
        assert_eq!(standby.notifier().doc(), "SNAP");
        assert_eq!(standby.notifier().checkpoint_cursors()[0].sent, 2);
    }

    #[test]
    fn bad_record_poisons_and_blocks_promotion() {
        let mut standby = Standby::new(2, "", ScanMode::SuffixBounded);
        // FIFO violation: first op from client 1 must carry T[2] = 1.
        let bad = WalRecord::Op(op(1, 0, 7, 0, "x", 0));
        assert!(standby.observe(&bad).is_err());
        assert!(standby.poisoned().is_some());
        // Subsequent (even valid) records are refused.
        let good = WalRecord::Op(op(2, 0, 1, 0, "y", 0));
        assert!(standby.observe(&good).is_err());
        assert!(standby.promote().is_err());
    }
}
