//! Protocol-level errors.
//!
//! The paper's simplified formulas (5) and (7) are only sound because the
//! star topology plus TCP give FIFO delivery per channel. A deployment
//! should therefore *detect* a violated assumption rather than silently
//! diverge. The compressed stamps make that cheap: both directions of
//! every channel carry strictly sequential counters, so a gap or
//! regression is visible on arrival. The fallible `try_*` entry points of
//! [`crate::client::Client`] and [`crate::notifier::Notifier`] return
//! these errors; the failure-injection tests deliver reordered and
//! duplicated messages and assert they are caught.

use cvc_core::site::SiteId;
use cvc_ot::seq::SeqError;
use std::fmt;

/// Errors detected while integrating a remote operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A message arrived out of order on a FIFO channel: its sequential
    /// counter is not exactly one past the last one seen.
    FifoViolation {
        /// Whose channel.
        site: SiteId,
        /// Counter expected next.
        expected: u64,
        /// Counter observed.
        got: u64,
    },
    /// The peer claims to have integrated more of our operations than we
    /// ever sent.
    AckOverrun {
        /// Whose state detected it.
        site: SiteId,
        /// Operations we actually sent.
        sent: u64,
        /// Operations the peer claims to have seen.
        acked: u64,
    },
    /// An operation's `T[1]` fell below what its site had already
    /// acknowledged. A site's count of received broadcasts never falls, so
    /// the op claims a context its author had already left behind, and
    /// the notifier would judge and transform it against the wrong one.
    AckRegression {
        /// Whose channel.
        site: SiteId,
        /// Broadcasts the site had already acknowledged.
        acked: u64,
        /// The `T[1]` the op carried.
        got: u64,
    },
    /// An operation arrived from a site outside the session.
    UnknownSite {
        /// The offending site id.
        site: SiteId,
        /// Client count of the session.
        n_clients: usize,
    },
    /// An operation arrived from a client that already left the session.
    DepartedSite {
        /// The departed site id.
        site: SiteId,
    },
    /// The operation could not be transformed/applied (corrupt payload).
    BadOperation(SeqError),
    /// A message named an origin other than the site bound to the channel
    /// it arrived on. The channel says who sent it; the envelope is a
    /// claim, and acting on it would let one peer get another evicted.
    ForgedOrigin {
        /// The site bound to the channel.
        sender: SiteId,
        /// The origin the message claimed.
        claimed: SiteId,
    },
    /// A reconnect replay asked for operations that were already
    /// garbage-collected out of the notifier's history buffer. This cannot
    /// happen for a client that merely disconnected (its frozen `acked_by`
    /// entry pins the trim watermark), but a client restored from a stale
    /// backup can claim to have received *less* than it once acknowledged;
    /// the replay prefix is then gone and only a full-state resync can
    /// rebuild the replica.
    ReplayTrimmed {
        /// The replaying client.
        site: SiteId,
        /// First stream position the client needs (`received + 1`).
        needed_from: u64,
        /// First stream position still reconstructible from the HB.
        available_from: u64,
    },
}

impl ProtocolError {
    /// Stable kebab-case variant name — the `detail` tag flight-recorder
    /// error events and metrics carry (event fields hold `&'static str`,
    /// so the full [`fmt::Display`] rendering cannot ride along).
    pub fn kind_name(&self) -> &'static str {
        match self {
            ProtocolError::FifoViolation { .. } => "fifo-violation",
            ProtocolError::AckOverrun { .. } => "ack-overrun",
            ProtocolError::AckRegression { .. } => "ack-regression",
            ProtocolError::UnknownSite { .. } => "unknown-site",
            ProtocolError::DepartedSite { .. } => "departed-site",
            ProtocolError::BadOperation(_) => "bad-operation",
            ProtocolError::ForgedOrigin { .. } => "forged-origin",
            ProtocolError::ReplayTrimmed { .. } => "replay-trimmed",
        }
    }

    /// The sender check every driver runs before a message reaches the
    /// notifier: `claimed` (the envelope's origin) must be the site bound
    /// to the channel the message arrived on.
    pub fn check_sender(sender: SiteId, claimed: SiteId) -> Result<(), ProtocolError> {
        if claimed == sender {
            Ok(())
        } else {
            Err(ProtocolError::ForgedOrigin { sender, claimed })
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::FifoViolation {
                site,
                expected,
                got,
            } => write!(
                f,
                "FIFO violation at {site}: expected sequence {expected}, got {got}"
            ),
            ProtocolError::AckOverrun { site, sent, acked } => write!(
                f,
                "ack overrun at {site}: peer acked {acked} ops but only {sent} were sent"
            ),
            ProtocolError::AckRegression { site, acked, got } => write!(
                f,
                "ack regression at {site}: an op acked {got} broadcasts after {acked} were acked"
            ),
            ProtocolError::UnknownSite { site, n_clients } => {
                write!(f, "{site} outside session of {n_clients} clients")
            }
            ProtocolError::DepartedSite { site } => {
                write!(f, "{site} already left the session")
            }
            ProtocolError::BadOperation(e) => write!(f, "bad operation payload: {e}"),
            ProtocolError::ForgedOrigin { sender, claimed } => {
                write!(f, "{sender}'s channel carried a message claiming {claimed}")
            }
            ProtocolError::ReplayTrimmed {
                site,
                needed_from,
                available_from,
            } => write!(
                f,
                "replay for {site} needs stream position {needed_from} but GC kept only \
                 {available_from} onward; full-state resync required"
            ),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<SeqError> for ProtocolError {
    fn from(e: SeqError) -> Self {
        ProtocolError::BadOperation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ProtocolError::FifoViolation {
            site: SiteId(2),
            expected: 3,
            got: 5,
        };
        assert!(e.to_string().contains("expected sequence 3"));
        let e = ProtocolError::AckOverrun {
            site: SiteId(1),
            sent: 2,
            acked: 9,
        };
        assert!(e.to_string().contains("acked 9"));
        let e = ProtocolError::UnknownSite {
            site: SiteId(9),
            n_clients: 3,
        };
        assert!(e.to_string().contains("site 9"));
    }

    #[test]
    fn seq_errors_convert() {
        let e: ProtocolError = SeqError::BaseLengthMismatch {
            expected: 1,
            got: 2,
        }
        .into();
        assert!(matches!(e, ProtocolError::BadOperation(_)));
    }
}
