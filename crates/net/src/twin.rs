//! The sim twin: replay a server's integration log through fresh
//! simulator-grade replicas and demand byte-identical convergence.
//!
//! The TCP server and the discrete-event simulator host the *same*
//! `Notifier`, so any divergence between them is a transport bug — a
//! frame decoded wrong, a broadcast dropped, an integration reordered.
//! This module turns that observation into an oracle: given the ops the
//! server accepted, **in its integration order**, rebuild the whole star
//! offline — `cvc-reduce`'s `StarWorld`: the server's `Hub` over a twin
//! notifier, a twin `Client` per site, and the payload bytes the hub
//! encodes queued per channel and decoded on delivery — and check that
//!
//! 1. each twin client, once caught up to the causal context the real
//!    client claimed (`T_O[1]` server ops received), generates an op with
//!    the **same stamp** the wire carried, and
//! 2. after full delivery, every twin document equals the twin notifier's
//!    document.
//!
//! The caller then compares [`TwinReport::doc_checksum`] against the live
//! server's and the live load clients' checksums; equality closes the
//! loop wire → server → wire → replica against sim semantics.

use cvc_core::site::SiteId;
use cvc_core::state_vector::CompressedStamp;
use cvc_reduce::client::Client;
use cvc_reduce::core::NotifierCore;
use cvc_reduce::msg::ClientOpMsg;
use cvc_reduce::notifier::Notifier;
use cvc_reduce::world::StarWorld;

/// Why a replay refused to certify the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TwinError {
    /// A logged op's stamp claims more received context than the log can
    /// deliver — the server integrated an op whose causal past it never
    /// broadcast (or the log is out of order).
    MissingContext {
        /// The authoring site.
        site: SiteId,
        /// Server ops the stamp says the author had received.
        claimed: u64,
        /// Server ops the twin could actually deliver.
        available: u64,
    },
    /// The twin client, in the same causal context, stamped the op
    /// differently than the wire did.
    StampMismatch {
        /// The authoring site.
        site: SiteId,
        /// What the wire carried.
        wire: CompressedStamp,
        /// What the twin generated.
        twin: CompressedStamp,
    },
    /// A replica (twin client or twin notifier) rejected a logged op.
    Rejected {
        /// The authoring site.
        site: SiteId,
        /// Which op in the log (0-based).
        index: usize,
    },
    /// All ops integrated but a twin document diverged from the twin
    /// notifier's.
    Diverged {
        /// The divergent replica.
        site: SiteId,
    },
}

impl std::fmt::Display for TwinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TwinError::MissingContext {
                site,
                claimed,
                available,
            } => write!(
                f,
                "site {site:?} op claims {claimed} received, only {available} deliverable"
            ),
            TwinError::StampMismatch { site, wire, twin } => {
                write!(
                    f,
                    "site {site:?} stamp mismatch: wire {wire} vs twin {twin}"
                )
            }
            TwinError::Rejected { site, index } => {
                write!(f, "log[{index}] from site {site:?} rejected by twin")
            }
            TwinError::Diverged { site } => write!(f, "site {site:?} document diverged"),
        }
    }
}

impl std::error::Error for TwinError {}

/// A certified replay.
#[derive(Debug)]
pub struct TwinReport {
    /// The converged document (notifier's == every twin's).
    pub doc: String,
    /// Its checksum — compare against the live server and load clients.
    pub doc_checksum: u64,
    /// Ops replayed.
    pub ops_replayed: usize,
}

/// Replay `log` (a server's accepted ops, in integration order) through a
/// fresh offline star and certify convergence.
pub fn replay_twin(n_clients: usize, log: &[ClientOpMsg]) -> Result<TwinReport, TwinError> {
    let mut world = StarWorld::new(NotifierCore::new(Notifier::new(n_clients, ""), None, None));
    for (index, m) in log.iter().enumerate() {
        let site = m.origin;
        let rejected = TwinError::Rejected { site, index };
        // Catch the twin up to the causal context the wire stamp claims
        // (`T_O[1]` = server ops received at generation time).
        let Some(received) = world.client(site).map(|c| c.state_vector().received()) else {
            return Err(rejected);
        };
        let available = received + world.queued(site).1 as u64;
        if available < m.stamp.t1 {
            return Err(TwinError::MissingContext {
                site,
                claimed: m.stamp.t1,
                available,
            });
        }
        for _ in received..m.stamp.t1 {
            world.deliver_down(site).map_err(|_| rejected.clone())?;
        }
        // Regenerate the op at the twin and demand the identical stamp,
        // then integrate it at the twin notifier.
        let twin = world
            .edit(site, |c| c.try_local_edit(m.op.clone()))
            .map_err(|_| rejected.clone())?;
        if twin != m.stamp {
            return Err(TwinError::StampMismatch {
                site,
                wire: m.stamp,
                twin,
            });
        }
        world.deliver_up(site).map_err(|_| rejected)?;
    }

    // Drain every remaining broadcast, then demand convergence.
    let checksum = world.notifier().doc_checksum();
    for i in 0..n_clients {
        let site = SiteId::from_client_index(i);
        let rejected = TwinError::Rejected {
            site,
            index: log.len(),
        };
        while world.queued(site).1 > 0 {
            world.deliver_down(site).map_err(|_| rejected.clone())?;
        }
        if world.client(site).map(Client::doc_checksum) != Some(checksum) {
            return Err(TwinError::Diverged { site });
        }
    }

    Ok(TwinReport {
        doc: world.notifier().doc(),
        doc_checksum: checksum,
        ops_replayed: log.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvc_ot::pos::PosOp;
    use cvc_ot::seq::SeqOp;
    use cvc_reduce::core::NotifierCore;

    fn insert(origin: u32, stamp: (u64, u64), pos: usize, text: &str, base: usize) -> ClientOpMsg {
        ClientOpMsg {
            origin: SiteId(origin),
            stamp: CompressedStamp::new(stamp.0, stamp.1),
            op: SeqOp::from_pos(&PosOp::insert(pos, text), base),
            cursor: None,
        }
    }

    #[test]
    fn a_stamp_claiming_unbroadcast_context_is_missing_context() {
        // Site 1's first op claims one server op received; none was sent.
        let log = [insert(1, (1, 1), 0, "a", 0)];
        assert_eq!(
            replay_twin(2, &log).map(|r| r.ops_replayed),
            Err(TwinError::MissingContext {
                site: SiteId(1),
                claimed: 1,
                available: 0,
            })
        );
    }

    #[test]
    fn a_tampered_sequence_counter_is_a_stamp_mismatch() {
        let log = [insert(1, (0, 1), 0, "a", 0), insert(1, (0, 3), 1, "b", 1)];
        assert_eq!(
            replay_twin(2, &log).map(|r| r.ops_replayed),
            Err(TwinError::StampMismatch {
                site: SiteId(1),
                wire: CompressedStamp::new(0, 3),
                twin: CompressedStamp::new(0, 2),
            })
        );
    }

    #[test]
    fn an_op_that_does_not_fit_is_rejected() {
        // Site 2 has received "a" (length 1); the op claims a base of 5.
        let log = [insert(1, (0, 1), 0, "a", 0), insert(2, (1, 1), 5, "x", 5)];
        assert_eq!(
            replay_twin(2, &log).map(|r| r.ops_replayed),
            Err(TwinError::Rejected {
                site: SiteId(2),
                index: 1,
            })
        );
    }

    /// A log captured from a live star — two concurrent ops, then one
    /// that saw both — certifies, at the live notifier's document.
    #[test]
    fn an_honest_log_replays_to_the_live_notifiers_document() {
        let mut core = NotifierCore::new(Notifier::new(3, ""), None, None);
        let mut clients: Vec<Client> = (1..=3).map(|i| Client::new(SiteId(i), "")).collect();
        let mut log = Vec::new();
        let mut integrate = |core: &mut NotifierCore, clients: &mut [Client], m: ClientOpMsg| {
            log.push(m.clone());
            let out = core.integrate_op(m.origin, m).expect("honest op");
            for (dest, b) in out.broadcast_msgs() {
                clients[dest.client_index()]
                    .try_on_server_op(b)
                    .expect("honest broadcast");
            }
        };
        let a = clients[0].insert(0, "ab");
        let b = clients[1].insert(0, "xy");
        integrate(&mut core, &mut clients, a);
        integrate(&mut core, &mut clients, b);
        let c = clients[2].insert(2, "-");
        integrate(&mut core, &mut clients, c);
        let report = replay_twin(3, &log).expect("an honest log certifies");
        assert_eq!(report.ops_replayed, 3);
        assert_eq!(report.doc_checksum, core.notifier().doc_checksum());
        assert_eq!(report.doc, core.notifier().doc());
    }
}
