//! MOESI directory cache-coherence protocol.
//!
//! The paper's GEMS substrate keeps the L1s of the 8 cores coherent over the
//! shared L2 with a MOESI directory protocol; this crate is our equivalent.
//! The directory lives logically at the L2 (one entry per block cached by
//! any L1) and is exact: it knows the owner and the sharer set.
//!
//! * [`MoesiState`] — the five per-cache-line states.
//! * [`directory::Directory`] — the home-node state machine: takes
//!   [`directory::Request`]s, returns [`directory::Response`]s naming the
//!   data source and the invalidations to perform.
//! * [`cluster::CoherentCluster`] — an executable model of N private caches
//!   plus the directory, with versioned data so tests can check that every
//!   read observes the latest write. Used heavily by the property tests and
//!   by `bap-system` for shared-segment workloads.

pub mod cluster;
pub mod directory;

pub use cluster::{ClusterState, CoherentCluster};
pub use directory::{DataSource, Directory, DirectoryState, Request, Response, ShardedDirectory};

use serde::{Deserialize, Serialize};

/// Per-line MOESI state as held by one private cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MoesiState {
    /// Dirty, exclusive: this cache has the only valid copy.
    Modified,
    /// Dirty, shared: this cache owns the block and must supply it, but
    /// other caches may hold Shared copies.
    Owned,
    /// Clean, exclusive: silent upgrade to Modified is allowed.
    Exclusive,
    /// Clean (or owned elsewhere), possibly many copies.
    Shared,
    /// No valid copy.
    #[default]
    Invalid,
}

impl MoesiState {
    /// Whether a local load hits without a coherence transaction.
    pub fn can_read(self) -> bool {
        !matches!(self, MoesiState::Invalid)
    }

    /// Whether a local store hits without a coherence transaction.
    pub fn can_write(self) -> bool {
        matches!(self, MoesiState::Modified | MoesiState::Exclusive)
    }

    /// Whether this cache must supply data on a remote request.
    pub fn is_owner(self) -> bool {
        matches!(
            self,
            MoesiState::Modified | MoesiState::Owned | MoesiState::Exclusive
        )
    }

    /// Whether the copy is dirty with respect to memory.
    pub fn is_dirty(self) -> bool {
        matches!(self, MoesiState::Modified | MoesiState::Owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_permissions() {
        assert!(MoesiState::Modified.can_read());
        assert!(MoesiState::Modified.can_write());
        assert!(MoesiState::Exclusive.can_write());
        assert!(MoesiState::Owned.can_read());
        assert!(!MoesiState::Owned.can_write());
        assert!(!MoesiState::Shared.can_write());
        assert!(!MoesiState::Invalid.can_read());
    }

    #[test]
    fn ownership_and_dirtiness() {
        assert!(MoesiState::Owned.is_owner());
        assert!(MoesiState::Exclusive.is_owner());
        assert!(!MoesiState::Shared.is_owner());
        assert!(MoesiState::Owned.is_dirty());
        assert!(!MoesiState::Exclusive.is_dirty());
    }

    #[test]
    fn default_is_invalid() {
        assert_eq!(MoesiState::default(), MoesiState::Invalid);
    }
}
