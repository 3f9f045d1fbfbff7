//! Degraded-machine views: which banks are physically usable right now.
//!
//! The partitioning pipeline normally assumes all `2 × cores` banks of the
//! Fig. 1 floorplan are alive. Under fault injection (or on a real part with
//! a disabled bank) that assumption breaks, so every consumer that used to
//! take a bare [`Topology`] can instead take a [`DegradedTopology`]: the
//! same floorplan plus a [`BankMask`] of currently-healthy banks. A full
//! mask reproduces the healthy behaviour exactly — the degraded view is
//! zero-cost when nothing is wrong.

use crate::ids::BankId;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};

/// Number of `u64` words backing a [`BankMask`].
const MASK_WORDS: usize = 8;

/// The largest bank count a [`BankMask`] can cover (512 banks = the 256-core
/// scalability ceiling, banks = 2 × cores).
pub const MAX_BANKS: usize = MASK_WORDS * 64;

/// A bitmask over the physical banks: bit `b` set means bank `b` is healthy
/// (online and usable). Backed by a fixed array of words so it stays `Copy`
/// while covering up to [`MAX_BANKS`] banks — far beyond the 16-bank
/// baseline, and enough for the 256-core (512-bank) scalability machines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BankMask {
    words: [u64; MASK_WORDS],
    num_banks: usize,
}

impl BankMask {
    /// All `num_banks` banks healthy.
    pub fn all_healthy(num_banks: usize) -> Self {
        assert!(
            num_banks <= MAX_BANKS,
            "BankMask supports at most {MAX_BANKS} banks"
        );
        let mut words = [0u64; MASK_WORDS];
        for (w, word) in words.iter_mut().enumerate() {
            let lo = w * 64;
            if num_banks >= lo + 64 {
                *word = u64::MAX;
            } else if num_banks > lo {
                *word = (1u64 << (num_banks - lo)) - 1;
            }
        }
        BankMask { words, num_banks }
    }

    /// Number of banks the mask covers (healthy or not).
    pub fn num_banks(&self) -> usize {
        self.num_banks
    }

    /// A compact 64-bit health label — the form stamped into solver-timing
    /// trace events and benchmark rows so degraded-mode solve costs are
    /// attributable to the mask they ran under. For masks of at most 64
    /// banks (every machine the trace gates pin) this is exactly the raw
    /// bit word, bit `b` set = bank `b` healthy; wider masks fold their
    /// words together with XOR, so it does not identify a mask: past 64
    /// banks, losing banks 0 and 64 leaves the healthy mask's label.
    /// Compare masks themselves to tell machines apart.
    pub fn bits(&self) -> u64 {
        self.words.iter().fold(0, |acc, w| acc ^ w)
    }

    /// Whether `bank` is healthy.
    pub fn is_healthy(&self, bank: BankId) -> bool {
        let b = bank.index();
        b < self.num_banks && self.words[b / 64] & (1u64 << (b % 64)) != 0
    }

    /// Mark `bank` offline. Returns whether the mask changed.
    pub fn disable(&mut self, bank: BankId) -> bool {
        let b = bank.index();
        assert!(b < self.num_banks, "bank {bank} out of range");
        let was = self.is_healthy(bank);
        self.words[b / 64] &= !(1u64 << (b % 64));
        was
    }

    /// Mark `bank` healthy again. Returns whether the mask changed.
    pub fn enable(&mut self, bank: BankId) -> bool {
        let b = bank.index();
        assert!(b < self.num_banks, "bank {bank} out of range");
        let was = self.is_healthy(bank);
        self.words[b / 64] |= 1u64 << (b % 64);
        !was
    }

    /// Number of healthy banks.
    pub fn healthy_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of offline banks.
    pub fn disabled_count(&self) -> usize {
        self.num_banks - self.healthy_count()
    }

    /// Whether every bank is healthy.
    pub fn is_full(&self) -> bool {
        self.healthy_count() == self.num_banks
    }

    /// The offline banks, in ascending order.
    pub fn disabled_banks(&self) -> impl Iterator<Item = BankId> + '_ {
        (0..self.num_banks)
            .map(BankId::from_index)
            .filter(|&b| !self.is_healthy(b))
    }

    /// The healthy banks, in ascending order.
    pub fn healthy_banks(&self) -> impl Iterator<Item = BankId> + '_ {
        (0..self.num_banks)
            .map(BankId::from_index)
            .filter(|&b| self.is_healthy(b))
    }
}

/// A [`Topology`] together with the live [`BankMask`]: the machine as the
/// allocator must currently see it. All floorplan queries (distances,
/// adjacency, bank classification) delegate to the underlying topology;
/// the bank *iterators* are filtered to healthy banks only.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DegradedTopology {
    topo: Topology,
    mask: BankMask,
}

impl DegradedTopology {
    /// Wrap a topology with an explicit health mask.
    pub fn new(topo: Topology, mask: BankMask) -> Self {
        assert_eq!(
            mask.num_banks(),
            topo.num_banks(),
            "mask must cover every bank"
        );
        DegradedTopology { topo, mask }
    }

    /// The healthy view: every bank online (behaves exactly like the bare
    /// topology).
    pub fn healthy(topo: Topology) -> Self {
        let mask = BankMask::all_healthy(topo.num_banks());
        DegradedTopology { topo, mask }
    }

    /// The underlying floorplan.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The live health mask.
    pub fn mask(&self) -> &BankMask {
        &self.mask
    }

    /// Whether `bank` is currently usable.
    pub fn is_healthy(&self, bank: BankId) -> bool {
        self.mask.is_healthy(bank)
    }

    /// Number of cores (unaffected by bank health).
    pub fn num_cores(&self) -> usize {
        self.topo.num_cores()
    }

    /// Number of physical banks, healthy or not.
    pub fn num_banks(&self) -> usize {
        self.topo.num_banks()
    }

    /// Number of currently-healthy banks.
    pub fn num_healthy_banks(&self) -> usize {
        self.mask.healthy_count()
    }

    /// Healthy Center banks, in the topology's order.
    pub fn healthy_center_banks(&self) -> impl Iterator<Item = BankId> + '_ {
        self.topo
            .center_banks()
            .filter(move |&b| self.mask.is_healthy(b))
    }

    /// Healthy Local banks, in the topology's order.
    pub fn healthy_local_banks(&self) -> impl Iterator<Item = BankId> + '_ {
        self.topo
            .local_banks()
            .filter(move |&b| self.mask.is_healthy(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::CoreId;

    #[test]
    fn full_mask_is_transparent() {
        let dt = DegradedTopology::healthy(Topology::baseline());
        assert!(dt.mask().is_full());
        assert_eq!(dt.num_healthy_banks(), 16);
        let centers: Vec<BankId> = dt.healthy_center_banks().collect();
        let raw: Vec<BankId> = dt.topology().center_banks().collect();
        assert_eq!(centers, raw, "healthy view preserves order and content");
        assert_eq!(dt.healthy_local_banks().count(), 8);
    }

    #[test]
    fn disable_and_enable_round_trip() {
        let mut mask = BankMask::all_healthy(16);
        assert!(mask.disable(BankId(3)));
        assert!(!mask.disable(BankId(3)), "already offline");
        assert!(!mask.is_healthy(BankId(3)));
        assert_eq!(mask.healthy_count(), 15);
        assert_eq!(mask.disabled_count(), 1);
        assert_eq!(mask.disabled_banks().collect::<Vec<_>>(), vec![BankId(3)]);
        assert!(mask.enable(BankId(3)));
        assert!(mask.is_full());
    }

    #[test]
    fn degraded_view_filters_iterators() {
        let mut mask = BankMask::all_healthy(16);
        mask.disable(BankId(0)); // Local bank of core 0
        mask.disable(BankId(9)); // a Center bank
        let dt = DegradedTopology::new(Topology::baseline(), mask);
        assert_eq!(dt.num_healthy_banks(), 14);
        assert_eq!(dt.healthy_local_banks().count(), 7);
        assert_eq!(dt.healthy_center_banks().count(), 7);
        assert!(!dt.is_healthy(BankId(9)));
        // Floorplan queries still work for offline banks (wiring exists).
        assert_eq!(dt.topology().local_bank(CoreId(0)), BankId(0));
    }

    #[test]
    fn serde_round_trip() {
        let mut mask = BankMask::all_healthy(16);
        mask.disable(BankId(7));
        let json = serde_json::to_string(&mask).unwrap();
        let back: BankMask = serde_json::from_str(&json).unwrap();
        assert_eq!(mask, back);
    }

    #[test]
    fn wide_masks_cover_512_banks() {
        let mut mask = BankMask::all_healthy(512);
        assert!(mask.is_full());
        assert_eq!(mask.healthy_count(), 512);
        // Flip banks in different words.
        assert!(mask.disable(BankId(0)));
        assert!(mask.disable(BankId(100)));
        assert!(mask.disable(BankId(511)));
        assert_eq!(mask.healthy_count(), 509);
        assert!(!mask.is_healthy(BankId(100)));
        assert!(mask.is_healthy(BankId(101)));
        assert_eq!(
            mask.disabled_banks().collect::<Vec<_>>(),
            vec![BankId(0), BankId(100), BankId(511)]
        );
        assert!(mask.enable(BankId(100)));
        assert_eq!(mask.healthy_count(), 510);
        // Serde survives the wide form too.
        let json = serde_json::to_string(&mask).unwrap();
        let back: BankMask = serde_json::from_str(&json).unwrap();
        assert_eq!(mask, back);
    }

    #[test]
    fn bits_fingerprint_matches_raw_word_for_small_masks() {
        // ≤64-bank masks put every bit in word 0, so the XOR fold reproduces
        // the historical single-u64 value exactly (trace stamps unchanged).
        let mut mask = BankMask::all_healthy(16);
        assert_eq!(mask.bits(), 0xFFFF);
        mask.disable(BankId(9));
        assert_eq!(mask.bits(), 0xFFFF & !(1 << 9));
        let full32 = BankMask::all_healthy(32);
        assert_eq!(full32.bits(), 0xFFFF_FFFF);
    }
}
