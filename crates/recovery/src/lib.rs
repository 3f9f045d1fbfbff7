//! Crash-recovery primitives: versioned, checksummed checkpoints and a
//! bounded checkpoint history with a recovery ladder.
//!
//! A [`Checkpoint`] wraps an opaque [`serde::Value`] payload (the full
//! pipeline state as assembled by `bap-system`) together with a format
//! version. [`Checkpoint::encode`] frames the JSON payload with a header
//! carrying the version and an FNV-1a-64 checksum of the body;
//! [`Checkpoint::decode`] refuses anything whose checksum or version does
//! not match, so a checkpoint truncated or bit-flipped by a crash is
//! detected *before* any state is rebuilt from it.
//!
//! The [`RecoveryManager`] keeps the last few encoded checkpoints in a
//! ring and walks them newest-first when asked to recover, reporting which
//! rung of the ladder produced the survivor:
//!
//! 1. newest checkpoint decoded, validated and accepted,
//! 2. an older checkpoint accepted after newer candidates were rejected,
//! 3. no checkpoint usable — the caller must rebuild from scratch
//!    (re-profile), and
//! 4. even the rebuild is impossible or pointless — equal-partition
//!    fallback.
//!
//! Rungs 3 and 4 live in the caller (`bap-system`); this crate reports
//! exhaustion so the caller knows to take them.

use std::collections::VecDeque;
use std::fmt;

/// Current checkpoint format version. Bump on any layout change to the
/// payload assembled by `bap-system`; decode refuses other versions.
pub const CHECKPOINT_VERSION: u32 = 1;

/// Magic prefix of an encoded checkpoint ("BAPC" — BAnk-aware Partitioning
/// Checkpoint).
pub const MAGIC: [u8; 4] = *b"BAPC";

/// Why a checkpoint could not be decoded or a recovery attempt failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryError {
    /// The byte stream is too short or does not start with [`MAGIC`].
    BadFraming,
    /// The header names a version this build does not understand.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this build writes and accepts.
        expected: u32,
    },
    /// The FNV-1a checksum over the payload does not match the header.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum recomputed over the payload bytes.
        computed: u64,
    },
    /// The payload passed the checksum but is not valid JSON (only
    /// possible if the encoder was buggy or the header survived a
    /// coordinated corruption of body and checksum).
    Corrupt(String),
    /// The decoded state was rejected by the caller's validator (geometry
    /// mismatch, unhealthy curves, …).
    Rejected(String),
    /// Stable storage failed underneath a checkpoint file operation.
    Io(String),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::BadFraming => write!(f, "checkpoint framing invalid (magic/length)"),
            RecoveryError::VersionMismatch { found, expected } => {
                write!(f, "checkpoint version {found} != supported {expected}")
            }
            RecoveryError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            RecoveryError::Corrupt(why) => write!(f, "checkpoint payload corrupt: {why}"),
            RecoveryError::Rejected(why) => write!(f, "restored state rejected: {why}"),
            RecoveryError::Io(why) => write!(f, "checkpoint file i/o failed: {why}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// FNV-1a 64-bit hash — tiny, dependency-free, and plenty for detecting
/// torn or bit-flipped checkpoints (this is corruption *detection*, not an
/// adversarial integrity guarantee).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// One full-pipeline checkpoint: a format version plus the opaque state
/// payload assembled by the system layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Format version the payload was written under.
    pub version: u32,
    /// The epoch the state had completed when the checkpoint was taken.
    pub epoch: u64,
    /// The state itself (shape owned by `bap-system`).
    pub payload: serde::Value,
}

impl Checkpoint {
    /// Wrap a payload under the current format version.
    pub fn new(epoch: u64, payload: serde::Value) -> Self {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            epoch,
            payload,
        }
    }

    /// Frame the checkpoint as bytes:
    /// `MAGIC | version:u32le | epoch:u64le | checksum:u64le | json-body`.
    ///
    /// The checksum covers the version and epoch header fields as well as
    /// the JSON body, so a bit-flip anywhere past the magic is caught.
    pub fn encode(&self) -> Vec<u8> {
        let body = serde_json::to_string(&self.payload)
            .expect("Value serialization is infallible")
            .into_bytes();
        let mut out = Vec::with_capacity(24 + body.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        // Checksum over version + epoch + body, so header corruption is
        // caught too.
        let mut hashed = Vec::with_capacity(12 + body.len());
        hashed.extend_from_slice(&self.version.to_le_bytes());
        hashed.extend_from_slice(&self.epoch.to_le_bytes());
        hashed.extend_from_slice(&body);
        out.extend_from_slice(&fnv1a64(&hashed).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Inverse of [`Checkpoint::encode`]: validate framing, version and
    /// checksum, then parse the payload.
    pub fn decode(bytes: &[u8]) -> Result<Self, RecoveryError> {
        if bytes.len() < 24 || bytes[..4] != MAGIC {
            return Err(RecoveryError::BadFraming);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let epoch = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let stored = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let body = &bytes[24..];
        let mut hashed = Vec::with_capacity(12 + body.len());
        hashed.extend_from_slice(&bytes[4..16]);
        hashed.extend_from_slice(body);
        let computed = fnv1a64(&hashed);
        if computed != stored {
            return Err(RecoveryError::ChecksumMismatch { stored, computed });
        }
        if version != CHECKPOINT_VERSION {
            return Err(RecoveryError::VersionMismatch {
                found: version,
                expected: CHECKPOINT_VERSION,
            });
        }
        let text = std::str::from_utf8(body)
            .map_err(|e| RecoveryError::Corrupt(format!("payload not UTF-8: {e}")))?;
        let payload: serde::Value =
            serde_json::from_str(text).map_err(|e| RecoveryError::Corrupt(e.to_string()))?;
        Ok(Checkpoint {
            version,
            epoch,
            payload,
        })
    }
}

/// Persist encoded checkpoint bytes ([`Checkpoint::encode`]) to a file,
/// atomically *and durably*:
/// write to `<path>.tmp`, fsync the tmp file, rename over the destination,
/// then fsync the parent directory. The rename alone only orders the two
/// names in memory — without the data fsync a host crash right after a
/// "successful" save can surface a zero-length or garbage file under the
/// final name, and without the directory fsync the rename itself can
/// vanish. Torn writes that survive anyway are caught by the checksum on
/// load. Used by the `bap serve` restart story and the replication-log
/// anchor. Returns the number of bytes written.
pub fn save_checkpoint_file(path: &std::path::Path, bytes: &[u8]) -> Result<usize, RecoveryError> {
    use std::io::Write;
    let tmp = path.with_extension("tmp");
    let mut file = std::fs::File::create(&tmp)
        .map_err(|e| RecoveryError::Io(format!("create {}: {e}", tmp.display())))?;
    file.write_all(bytes)
        .map_err(|e| RecoveryError::Io(format!("write {}: {e}", tmp.display())))?;
    // Data must be on stable storage before the rename publishes the name.
    file.sync_all()
        .map_err(|e| RecoveryError::Io(format!("fsync {}: {e}", tmp.display())))?;
    drop(file);
    std::fs::rename(&tmp, path)
        .map_err(|e| RecoveryError::Io(format!("rename to {}: {e}", path.display())))?;
    sync_parent_dir(path)?;
    Ok(bytes.len())
}

/// Fsync the directory holding `path` so the rename that published it is
/// itself durable. Directory fds are a Unix notion; elsewhere this is a
/// no-op (the rename is still atomic, just not crash-durable).
#[cfg(unix)]
fn sync_parent_dir(path: &std::path::Path) -> Result<(), RecoveryError> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => std::path::Path::new("."),
    };
    let dir = std::fs::File::open(parent)
        .map_err(|e| RecoveryError::Io(format!("open dir {}: {e}", parent.display())))?;
    dir.sync_all()
        .map_err(|e| RecoveryError::Io(format!("fsync dir {}: {e}", parent.display())))
}

#[cfg(not(unix))]
fn sync_parent_dir(_path: &std::path::Path) -> Result<(), RecoveryError> {
    Ok(())
}

/// Load and validate a checkpoint file written by [`save_checkpoint_file`].
/// Missing files, short reads and corruption all come back as typed
/// [`RecoveryError`]s, never panics.
pub fn load_checkpoint_file(path: &std::path::Path) -> Result<Checkpoint, RecoveryError> {
    let bytes = std::fs::read(path)
        .map_err(|e| RecoveryError::Io(format!("read {}: {e}", path.display())))?;
    Checkpoint::decode(&bytes)
}

/// Which rung of the recovery ladder produced a restore.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryRung {
    /// The newest checkpoint was accepted.
    Newest,
    /// An older checkpoint was accepted after newer candidates failed.
    Older,
}

impl RecoveryRung {
    /// Ladder rung number (1-based; rungs 3 and 4 live in the caller).
    pub fn number(self) -> u8 {
        match self {
            RecoveryRung::Newest => 1,
            RecoveryRung::Older => 2,
        }
    }
}

/// Outcome of a ladder walk over the checkpoint history.
#[derive(Debug)]
pub struct RecoveryOutcome<T> {
    /// The value the caller's attempt closure produced.
    pub value: T,
    /// Which rung it came from.
    pub rung: RecoveryRung,
    /// The epoch of the accepted checkpoint.
    pub epoch: u64,
    /// Candidates rejected before the survivor, newest first, with the
    /// reason each was refused.
    pub rejected: Vec<RecoveryError>,
}

/// A bounded ring of encoded checkpoints plus the ladder walk over them.
///
/// Checkpoints are stored *encoded* (as the crash would find them on
/// stable storage), so the manager exercises the same decode-and-validate
/// path a real restart would.
pub struct RecoveryManager {
    slots: VecDeque<Vec<u8>>,
    capacity: usize,
}

impl RecoveryManager {
    /// A manager retaining up to `capacity` checkpoints (at least 1).
    pub fn new(capacity: usize) -> Self {
        RecoveryManager {
            slots: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Record a checkpoint, evicting the oldest beyond capacity. Returns
    /// the encoded size in bytes.
    pub fn push(&mut self, cp: &Checkpoint) -> usize {
        let bytes = cp.encode();
        let n = bytes.len();
        if self.slots.len() == self.capacity {
            self.slots.pop_front();
        }
        self.slots.push_back(bytes);
        n
    }

    /// The newest retained checkpoint's encoded bytes.
    pub fn newest(&self) -> Option<&[u8]> {
        self.slots.back().map(Vec::as_slice)
    }

    /// Number of retained checkpoints.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no checkpoint is retained.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Drop all retained checkpoints.
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Flip one byte of the newest retained checkpoint (chaos hook for the
    /// soak harness — simulates a torn write). Returns false if there is
    /// nothing to corrupt.
    pub fn corrupt_newest(&mut self, offset: usize) -> bool {
        match self.slots.back_mut() {
            Some(bytes) if !bytes.is_empty() => {
                let i = offset % bytes.len();
                bytes[i] ^= 0xff;
                true
            }
            _ => false,
        }
    }

    /// Flip one byte of *every* retained checkpoint (chaos hook —
    /// simulates systemic storage corruption). Returns how many slots were
    /// touched.
    pub fn corrupt_all(&mut self, offset: usize) -> usize {
        let mut touched = 0;
        for bytes in &mut self.slots {
            if !bytes.is_empty() {
                let i = offset % bytes.len();
                bytes[i] ^= 0xff;
                touched += 1;
            }
        }
        touched
    }

    /// Walk the ladder newest-first: decode each retained checkpoint and
    /// hand it to `attempt`, which rebuilds state from the payload and may
    /// itself reject it ([`RecoveryError::Rejected`] or any other error).
    /// The first success wins. `Err(rejections)` means every candidate
    /// failed — the caller proceeds to rung 3 (re-profile) or 4 (equal
    /// fallback).
    pub fn recover<T>(
        &self,
        mut attempt: impl FnMut(&Checkpoint) -> Result<T, RecoveryError>,
    ) -> Result<RecoveryOutcome<T>, Vec<RecoveryError>> {
        let mut rejected = Vec::new();
        for (i, bytes) in self.slots.iter().rev().enumerate() {
            match Checkpoint::decode(bytes).and_then(|cp| {
                let epoch = cp.epoch;
                attempt(&cp).map(|value| (value, epoch))
            }) {
                Ok((value, epoch)) => {
                    let rung = if i == 0 {
                        RecoveryRung::Newest
                    } else {
                        RecoveryRung::Older
                    };
                    return Ok(RecoveryOutcome {
                        value,
                        rung,
                        epoch,
                        rejected,
                    });
                }
                Err(e) => rejected.push(e),
            }
        }
        Err(rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(x: i64) -> serde::Value {
        serde::Value::Object(vec![("x".to_string(), serde::Value::Int(x as i128))])
    }

    #[test]
    fn encode_decode_round_trips() {
        let cp = Checkpoint::new(17, payload(42));
        let back = Checkpoint::decode(&cp.encode()).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn any_single_byte_flip_is_detected() {
        let cp = Checkpoint::new(3, payload(7));
        let clean = cp.encode();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x40;
            let res = Checkpoint::decode(&bad);
            assert!(
                res.is_err(),
                "flip at byte {i} of {} went undetected",
                clean.len()
            );
        }
    }

    #[test]
    fn version_mismatch_is_reported() {
        let cp = Checkpoint {
            version: CHECKPOINT_VERSION + 9,
            epoch: 0,
            payload: payload(0),
        };
        match Checkpoint::decode(&cp.encode()) {
            Err(RecoveryError::VersionMismatch { found, expected }) => {
                assert_eq!(found, CHECKPOINT_VERSION + 9);
                assert_eq!(expected, CHECKPOINT_VERSION);
            }
            other => panic!("expected version mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_bad_framing_or_checksum() {
        let cp = Checkpoint::new(1, payload(5));
        let clean = cp.encode();
        for cut in [0, 3, 10, 23, clean.len() - 1] {
            assert!(Checkpoint::decode(&clean[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn ladder_prefers_newest_and_falls_back() {
        let mut mgr = RecoveryManager::new(3);
        for e in 0..3u64 {
            mgr.push(&Checkpoint::new(e, payload(e as i64)));
        }
        // Clean history: rung 1, newest epoch.
        let out = mgr.recover(|cp| Ok::<_, RecoveryError>(cp.epoch)).unwrap();
        assert_eq!(out.rung, RecoveryRung::Newest);
        assert_eq!(out.epoch, 2);
        assert!(out.rejected.is_empty());

        // Corrupt the newest: rung 2, next-newest epoch, one rejection.
        assert!(mgr.corrupt_newest(30));
        let out = mgr.recover(|cp| Ok::<_, RecoveryError>(cp.epoch)).unwrap();
        assert_eq!(out.rung, RecoveryRung::Older);
        assert_eq!(out.epoch, 1);
        assert_eq!(out.rejected.len(), 1);
        assert!(matches!(
            out.rejected[0],
            RecoveryError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn caller_rejection_walks_to_older_candidates() {
        let mut mgr = RecoveryManager::new(2);
        mgr.push(&Checkpoint::new(10, payload(1)));
        mgr.push(&Checkpoint::new(11, payload(2)));
        let out = mgr
            .recover(|cp| {
                if cp.epoch == 11 {
                    Err(RecoveryError::Rejected("unhealthy curves".to_string()))
                } else {
                    Ok(cp.epoch)
                }
            })
            .unwrap();
        assert_eq!(out.rung, RecoveryRung::Older);
        assert_eq!(out.epoch, 10);
    }

    #[test]
    fn exhausted_ladder_reports_every_rejection() {
        let mut mgr = RecoveryManager::new(2);
        mgr.push(&Checkpoint::new(0, payload(0)));
        mgr.push(&Checkpoint::new(1, payload(1)));
        let err = mgr
            .recover(|_| Err::<(), _>(RecoveryError::Rejected("no".to_string())))
            .unwrap_err();
        assert_eq!(err.len(), 2);
    }

    #[test]
    fn checkpoint_files_round_trip_and_fail_typed() {
        let dir = std::env::temp_dir().join(format!("bap_recovery_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("server.ckpt");

        let cp = Checkpoint::new(9, payload(33));
        let bytes = save_checkpoint_file(&path, &cp.encode()).unwrap();
        assert_eq!(bytes, cp.encode().len());
        assert_eq!(load_checkpoint_file(&path).unwrap(), cp);

        // Overwrite goes through the tmp+rename path and replaces cleanly.
        let cp2 = Checkpoint::new(10, payload(34));
        save_checkpoint_file(&path, &cp2.encode()).unwrap();
        assert_eq!(load_checkpoint_file(&path).unwrap().epoch, 10);

        // Missing file: typed Io error, no panic.
        let missing = dir.join("nope.ckpt");
        assert!(matches!(
            load_checkpoint_file(&missing),
            Err(RecoveryError::Io(_))
        ));

        // On-disk corruption is caught by the checksum on load.
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();
        assert!(load_checkpoint_file(&path).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn newest_is_the_last_push_encoded() {
        let mut mgr = RecoveryManager::new(2);
        assert_eq!(mgr.newest(), None);
        mgr.push(&Checkpoint::new(1, payload(1)));
        let cp = Checkpoint::new(2, payload(2));
        mgr.push(&cp);
        assert_eq!(mgr.newest(), Some(cp.encode().as_slice()));
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut mgr = RecoveryManager::new(2);
        for e in 0..5u64 {
            mgr.push(&Checkpoint::new(e, payload(0)));
        }
        assert_eq!(mgr.len(), 2);
        let out = mgr.recover(|cp| Ok::<_, RecoveryError>(cp.epoch)).unwrap();
        assert_eq!(out.epoch, 4);
    }
}
