//! Replication configuration for the decision service: primary/follower
//! roles and ship acknowledgement deadlines.
//!
//! PR 9's `bap serve` is a single process: when the host dies, the service
//! dies with it. This module defines the knobs of the replication layer
//! that removes that failure mode — a primary ships every admitted batch
//! to followers as a replication log entry, followers replay each tick
//! through their own `DecisionService`, and a fenced promotion turns a
//! follower into the new primary without ever re-answering an
//! acknowledged decision differently. No replica retains shipped entries:
//! a follower joins from one checkpoint encoded when it attaches.
//!
//! Like [`crate::OverloadConfig`], the layer is **behaviour-neutral when
//! unset**: `ServeConfig.replication` is an `Option`, and `None` (the
//! default) leaves the service byte-identical to the unreplicated PR 9
//! server — responses carry no term stamp. The knobs here therefore
//! default to tuned production values, so enabling the layer with
//! `ReplicationConfig::default()` alone gives a sensible machine.

use serde::{Deserialize, Serialize};

/// Replication role and ship deadline. Presence of the config is the
/// master switch (see the module docs); `follower` selects which side of
/// the protocol this process speaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicationConfig {
    /// True when this service starts as a follower: it refuses
    /// state-mutating client requests with `not-primary` and applies
    /// shipped log entries instead, until promoted.
    pub follower: bool,
    /// How long the primary waits for a follower to acknowledge a shipped
    /// entry before declaring the follower lost and dropping its sink
    /// (milliseconds, floored at 1). Acknowledged-before-answered is the
    /// durability contract: client responses wait on this.
    pub ack_timeout_ms: u64,
}

impl Default for ReplicationConfig {
    /// The tuned production preset: primary role and a one-second ship
    /// deadline.
    fn default() -> Self {
        ReplicationConfig {
            follower: false,
            ack_timeout_ms: 1000,
        }
    }
}

impl ReplicationConfig {
    /// Ship acknowledgement deadline, floored at one millisecond.
    pub fn ack_timeout(&self) -> std::time::Duration {
        std::time::Duration::from_millis(self.ack_timeout_ms.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_a_primary_with_bounded_log() {
        let c = ReplicationConfig::default();
        assert!(!c.follower);
        assert_eq!(c.ack_timeout(), std::time::Duration::from_secs(1));
    }

    #[test]
    fn floors_hold_at_zero() {
        let c = ReplicationConfig {
            follower: true,
            ack_timeout_ms: 0,
        };
        assert_eq!(c.ack_timeout(), std::time::Duration::from_millis(1));
    }
}
