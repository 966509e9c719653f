//! Deterministic link-fault injection.
//!
//! The base simulator models the paper's deployment assumption — TCP-like
//! reliable FIFO channels — because that is the precondition of the CVC
//! formulas (5)/(7). A [`FaultPlan`] attached to a directed channel drops,
//! duplicates, reorders, corrupts, delays, or flaps messages, all drawn
//! from a dedicated fault RNG so that a run with an empty plan is
//! bit-identical to a run on a fault-free simulator with the same seed.
//!
//! What a fault does depends on what the channel is. A datagram link (the
//! default) suffers it as written, which *violates* the paper's
//! assumption on purpose: the protocol's FIFO checks must catch it. A
//! stream ([`Simulator::set_streams`](crate::Simulator::set_streams)) is
//! a TCP connection and fails only the two ways TCP fails: a `drop` is a
//! head-of-line stall of one retransmission timeout
//! ([`STALL_US`](crate::sim::STALL_US)), a `corrupt` frame, a flap or a
//! partition resets the connection, and duplicates and reordering never
//! surface. `cvc-reduce`'s sessions over connections (`reliable.rs`) run
//! on streams and re-dial a reset connection.
//!
//! Faults compose with the existing [`LatencyModel`](crate::LatencyModel):
//! the latency draw happens first, then the fault pipeline decides what
//! actually happens to the message.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Periodic link outage ("flap"): the link is down for `down_us` out of
/// every `period_us`, phase-shifted by `offset_us`. Messages sent while
/// the link is down are silently discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlapSpec {
    /// Full cycle length in µs (up-time + down-time).
    pub period_us: u64,
    /// How long the link is down at the start of each cycle, in µs.
    pub down_us: u64,
    /// Phase offset: the first cycle starts at this absolute time (µs).
    pub offset_us: u64,
}

impl FlapSpec {
    /// Is the link down at time `t`?
    pub fn is_down(&self, t: SimTime) -> bool {
        if self.period_us == 0 {
            return false;
        }
        match t.as_micros().checked_sub(self.offset_us) {
            None => false, // before the first cycle starts
            Some(elapsed) => elapsed % self.period_us < self.down_us,
        }
    }
}

/// A per-channel fault plan: probabilities of each fault class, applied
/// per message in a fixed pipeline order (partition → flap → drop →
/// corrupt → duplicate → delay spike → reorder). All probabilities are
/// clamped to `[0, 1]` at draw time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability a message is silently lost.
    pub drop: f64,
    /// Probability a message is delivered twice (the copy takes an
    /// independent latency draw and is *not* FIFO-clamped, so it may also
    /// arrive out of order).
    pub duplicate: f64,
    /// Probability a message bypasses the FIFO clamp entirely (plus an
    /// extra uniform delay in `0..=reorder_extra_us`), letting later
    /// messages overtake it.
    pub reorder: f64,
    /// Extra delay budget for reordered messages (µs).
    pub reorder_extra_us: u64,
    /// Probability a message is corrupted in flight: the receiver's
    /// checksum catches it, so a datagram link loses it (separately
    /// counted) and a stream resets.
    pub corrupt: f64,
    /// Probability a message suffers an extra `spike_us` delay (FIFO
    /// order is preserved: later messages queue behind the spike, exactly
    /// like a stalled TCP segment).
    pub delay_spike: f64,
    /// Size of a delay spike (µs).
    pub spike_us: u64,
    /// Optional periodic link outage.
    pub flap: Option<FlapSpec>,
}

impl FaultPlan {
    /// The no-fault plan: every probability zero, no flap.
    pub const NONE: FaultPlan = FaultPlan {
        drop: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
        reorder_extra_us: 0,
        corrupt: 0.0,
        delay_spike: 0.0,
        spike_us: 0,
        flap: None,
    };

    /// A plan that only drops, with probability `p`.
    pub fn lossy(p: f64) -> FaultPlan {
        FaultPlan {
            drop: p,
            ..FaultPlan::NONE
        }
    }

    /// True when this plan can never affect a message.
    pub fn is_none(&self) -> bool {
        self.drop <= 0.0
            && self.duplicate <= 0.0
            && self.reorder <= 0.0
            && self.corrupt <= 0.0
            && self.delay_spike <= 0.0
            && self.flap.is_none()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::NONE
    }
}

/// Counters for injected (and observed) faults, aggregated across all
/// channels of a simulator run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Messages lost to the `drop` probability (datagram links; on a
    /// stream a drop is a stall, counted in `delay_spiked`).
    pub dropped: u64,
    /// Messages delivered twice.
    pub duplicated: u64,
    /// Messages that bypassed the FIFO clamp.
    pub reordered: u64,
    /// Messages corrupted in flight (lost on a datagram link, a reset on
    /// a stream).
    pub corrupted: u64,
    /// Messages that took a delay spike, a stream's drop stalls included.
    pub delay_spiked: u64,
    /// Messages lost because the link was flapped down.
    pub flap_dropped: u64,
    /// Messages lost to a node partition window.
    pub partition_dropped: u64,
    /// Deliveries observed out of send order at the receiver (ground
    /// truth, counted at delivery time — reordering that the latency race
    /// did not actually realise is not counted).
    pub inversions_observed: u64,
}

impl FaultStats {
    /// Total messages the fault layer removed from the network.
    pub fn total_lost(&self) -> u64 {
        self.dropped + self.flap_dropped + self.partition_dropped
    }

    /// True when no fault of any kind fired.
    pub fn is_clean(&self) -> bool {
        *self == FaultStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flap_windows() {
        let f = FlapSpec {
            period_us: 100,
            down_us: 30,
            offset_us: 10,
        };
        assert!(!f.is_down(SimTime::from_micros(0)), "before first cycle");
        assert!(f.is_down(SimTime::from_micros(10)));
        assert!(f.is_down(SimTime::from_micros(39)));
        assert!(!f.is_down(SimTime::from_micros(40)));
        assert!(!f.is_down(SimTime::from_micros(109)));
        assert!(f.is_down(SimTime::from_micros(110)));
    }

    #[test]
    fn zero_period_flap_is_never_down() {
        let f = FlapSpec {
            period_us: 0,
            down_us: 10,
            offset_us: 0,
        };
        assert!(!f.is_down(SimTime::from_micros(5)));
    }

    #[test]
    fn none_plan_is_none() {
        assert!(FaultPlan::NONE.is_none());
        assert!(FaultPlan::default().is_none());
        assert!(!FaultPlan::lossy(0.1).is_none());
        let flappy = FaultPlan {
            flap: Some(FlapSpec {
                period_us: 10,
                down_us: 1,
                offset_us: 0,
            }),
            ..FaultPlan::NONE
        };
        assert!(!flappy.is_none());
    }

    #[test]
    fn stats_aggregate() {
        let s = FaultStats {
            dropped: 2,
            flap_dropped: 1,
            partition_dropped: 3,
            ..FaultStats::default()
        };
        assert_eq!(s.total_lost(), 6);
        assert!(!s.is_clean());
        assert!(FaultStats::default().is_clean());
    }
}
