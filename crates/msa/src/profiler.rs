//! The hardware stack-distance profiler.
//!
//! A [`StackProfiler`] shadows the tag state of the monitored cache: for
//! each *sampled* set it tracks the LRU recency order of (possibly
//! partial) tags up to the maximum assignable depth `K`, and per access it
//! increments the histogram counter of the stack position touched
//! (Fig. 2).
//!
//! Two interchangeable engines compute the stack distance
//! ([`EngineKind`]):
//!
//! * **Naive** — a literal per-set LRU list, scanned linearly: O(K) per
//!   access. This models the hardware most directly and serves as the
//!   oracle in tests.
//! * **Fenwick** (default) — the [`crate::fenwick`] timestamp engine:
//!   hash map + binary-indexed tree, O(log K) per access, bit-identical
//!   histograms (property-tested against the naive engine over random
//!   streams, partial tags, sampling, depth caps and decay/reset
//!   interleavings).
//!
//! Three hardware-overhead reductions from §III-A are modelled faithfully,
//! including their error sources:
//!
//! * **partial tags** — tags truncated to `tag_bits` bits; distinct blocks
//!   may alias, inflating hit counts slightly;
//! * **set sampling** — only one in `sample_ratio` sets is monitored;
//! * **maximum assignable capacity** — the stack depth is capped at `K`
//!   (the paper uses 72 = 9/16 of the 128-way-equivalent cache).

use crate::fenwick::FenwickSet;
use crate::histogram::MsaHistogram;
use bap_types::BlockAddr;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Which stack-distance engine a profiler runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineKind {
    /// Literal LRU list, O(K) per access — the test oracle.
    Naive,
    /// Timestamp hash map + Fenwick tree, O(log K) per access.
    #[default]
    Fenwick,
}

/// Profiler configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfilerConfig {
    /// Number of sets of the monitored cache (power of two).
    pub num_sets: usize,
    /// Maximum monitored stack depth `K` (ways).
    pub max_ways: usize,
    /// Monitor one in `sample_ratio` sets (1 = every set).
    pub sample_ratio: usize,
    /// Tag truncation in bits; `None` = full tags.
    pub tag_bits: Option<u32>,
    /// Stack-distance engine (distances are bit-identical either way).
    #[serde(default)]
    pub engine: EngineKind,
}

impl ProfilerConfig {
    /// The paper's hardware configuration for the baseline machine:
    /// 2048 sets, 72-way depth (9/16 of 128), 1-in-32 sampling, 12-bit
    /// partial tags.
    pub fn paper_hardware(num_sets: usize) -> Self {
        ProfilerConfig {
            num_sets,
            max_ways: 72,
            sample_ratio: 32,
            tag_bits: Some(12),
            engine: EngineKind::default(),
        }
    }

    /// An idealised full-tag, all-sets reference profiler of depth `max_ways`.
    pub fn reference(num_sets: usize, max_ways: usize) -> Self {
        ProfilerConfig {
            num_sets,
            max_ways,
            sample_ratio: 1,
            tag_bits: None,
            engine: EngineKind::default(),
        }
    }

    /// The same configuration running the given engine.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Number of monitored sets.
    pub fn sampled_sets(&self) -> usize {
        self.num_sets.div_ceil(self.sample_ratio)
    }
}

/// Per-set stack-distance state of one engine family.
#[derive(Clone, Debug)]
enum Engine {
    /// One LRU tag list per sampled set, MRU first, length ≤ `max_ways`.
    Naive(Vec<VecDeque<u64>>),
    /// One timestamp/Fenwick structure per sampled set.
    Fenwick(Vec<FenwickSet>),
}

impl Engine {
    fn new(kind: EngineKind, sampled_sets: usize, max_ways: usize) -> Self {
        match kind {
            EngineKind::Naive => Engine::Naive(vec![VecDeque::new(); sampled_sets]),
            EngineKind::Fenwick => Engine::Fenwick(
                (0..sampled_sets)
                    .map(|_| FenwickSet::new(max_ways))
                    .collect(),
            ),
        }
    }

    fn kind(&self) -> EngineKind {
        match self {
            Engine::Naive(_) => EngineKind::Naive,
            Engine::Fenwick(_) => EngineKind::Fenwick,
        }
    }

    /// Record one access; returns the stack distance (`None` = miss).
    #[inline]
    fn observe(&mut self, set: usize, tag: u64, max_ways: usize) -> Option<usize> {
        match self {
            Engine::Naive(stacks) => {
                let stack = &mut stacks[set];
                match stack.iter().position(|&t| t == tag) {
                    Some(pos) => {
                        // INVARIANT: `pos` came from `position()` over this
                        // very stack one line up, with `&mut self` held
                        // throughout, so the index is in bounds.
                        let t = stack.remove(pos).expect("position valid");
                        stack.push_front(t);
                        Some(pos)
                    }
                    None => {
                        stack.push_front(tag);
                        if stack.len() > max_ways {
                            stack.pop_back();
                        }
                        None
                    }
                }
            }
            Engine::Fenwick(sets) => sets[set].observe(tag, max_ways),
        }
    }

    fn clear(&mut self) {
        match self {
            Engine::Naive(stacks) => stacks.iter_mut().for_each(VecDeque::clear),
            Engine::Fenwick(sets) => sets.iter_mut().for_each(FenwickSet::clear),
        }
    }

    /// The logical LRU stacks (MRU first) — engine-independent state.
    fn stacks(&self) -> Vec<Vec<u64>> {
        match self {
            Engine::Naive(stacks) => stacks.iter().map(|s| s.iter().copied().collect()).collect(),
            Engine::Fenwick(sets) => sets.iter().map(FenwickSet::stack).collect(),
        }
    }

    fn from_stacks(kind: EngineKind, stacks: Vec<Vec<u64>>, max_ways: usize) -> Self {
        match kind {
            EngineKind::Naive => {
                Engine::Naive(stacks.into_iter().map(VecDeque::from_iter).collect())
            }
            EngineKind::Fenwick => Engine::Fenwick(
                stacks
                    .iter()
                    .map(|s| FenwickSet::from_stack(s, max_ways))
                    .collect(),
            ),
        }
    }
}

// Both engines serialize as the *logical* LRU stacks plus the engine tag,
// so serialized profilers are engine-portable and the Fenwick internals
// (hash map, tree, stale timestamp slots) never leak into persisted state.
impl Serialize for Engine {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("kind".to_string(), self.kind().to_value()),
            ("stacks".to_string(), self.stacks().to_value()),
        ])
    }
}

/// Deserialization helper: the engine alone cannot know `max_ways`, so
/// [`StackProfiler`]'s `Deserialize` impl rebuilds the engine itself from
/// this intermediate form.
#[derive(Deserialize)]
struct EngineRepr {
    kind: EngineKind,
    stacks: Vec<Vec<u64>>,
}

/// A serialized [`StackProfiler`], before its engine is rebuilt.
#[derive(Deserialize)]
struct ProfilerRepr {
    cfg: ProfilerConfig,
    engine: EngineRepr,
    histogram: MsaHistogram,
    total_accesses: u64,
}

/// A per-core stack-distance profiler.
#[derive(Clone, Debug)]
pub struct StackProfiler {
    cfg: ProfilerConfig,
    engine: Engine,
    histogram: MsaHistogram,
    /// Accesses presented to the profiler (sampled or not).
    total_accesses: u64,
}

impl Serialize for StackProfiler {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("cfg".to_string(), self.cfg.to_value()),
            ("engine".to_string(), self.engine.to_value()),
            ("histogram".to_string(), self.histogram.to_value()),
            ("total_accesses".to_string(), self.total_accesses.to_value()),
        ])
    }
}

impl Deserialize for StackProfiler {
    fn deserialize(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let p = ProfilerRepr::deserialize(r)?;
        Ok(StackProfiler {
            engine: Engine::from_stacks(p.engine.kind, p.engine.stacks, p.cfg.max_ways),
            cfg: p.cfg,
            histogram: p.histogram,
            total_accesses: p.total_accesses,
        })
    }
}

impl StackProfiler {
    /// Build a profiler.
    pub fn new(cfg: ProfilerConfig) -> Self {
        assert!(cfg.num_sets.is_power_of_two());
        assert!(cfg.sample_ratio >= 1);
        assert!(cfg.max_ways >= 1);
        StackProfiler {
            engine: Engine::new(cfg.engine, cfg.sampled_sets(), cfg.max_ways),
            histogram: MsaHistogram::new(cfg.max_ways),
            cfg,
            total_accesses: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ProfilerConfig {
        &self.cfg
    }

    /// The engine in use.
    pub fn engine_kind(&self) -> EngineKind {
        self.engine.kind()
    }

    /// Observe one access of the monitored stream. Non-sampled sets are
    /// ignored (that is the sampling).
    #[inline]
    pub fn observe(&mut self, block: BlockAddr) {
        self.total_accesses += 1;
        let set = block.set_index(self.cfg.num_sets);
        if !set.is_multiple_of(self.cfg.sample_ratio) {
            return;
        }
        let stack_idx = set / self.cfg.sample_ratio;
        let tag = match self.cfg.tag_bits {
            Some(bits) => block.partial_tag(self.cfg.num_sets, bits),
            None => block.tag(self.cfg.num_sets),
        };
        let distance = self.engine.observe(stack_idx, tag, self.cfg.max_ways);
        self.histogram.record(distance);
    }

    /// The histogram accumulated so far.
    pub fn histogram(&self) -> &MsaHistogram {
        &self.histogram
    }

    /// Total accesses presented (including non-sampled ones).
    pub fn total_accesses(&self) -> u64 {
        self.total_accesses
    }

    /// Scale factor from sampled counts to whole-cache estimates
    /// (= `sample_ratio`).
    pub fn scale(&self) -> f64 {
        self.cfg.sample_ratio as f64
    }

    /// Epoch-boundary decay: halve the histogram. Tag stacks are kept so
    /// stack distances remain meaningful across epochs.
    pub fn decay(&mut self) {
        self.histogram.decay();
    }

    /// Full reset: counters and tag stacks.
    pub fn reset(&mut self) {
        self.histogram.reset();
        self.engine.clear();
        self.total_accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn reference(sets: usize, ways: usize) -> StackProfiler {
        StackProfiler::new(ProfilerConfig::reference(sets, ways))
    }

    #[test]
    fn repeated_access_is_mru_hit() {
        let mut p = reference(16, 8);
        let b = BlockAddr(0x40);
        p.observe(b); // cold miss
        p.observe(b); // MRU hit
        p.observe(b);
        assert_eq!(p.histogram().counters()[0], 2);
        assert_eq!(p.histogram().misses(), 1);
    }

    #[test]
    fn stack_distance_counts_distinct_intervening_blocks() {
        let mut p = reference(16, 8);
        // A, B, C, A: A's reuse distance is 2 (B and C in between).
        let set0 = |i: u64| BlockAddr(i * 16);
        p.observe(set0(1));
        p.observe(set0(2));
        p.observe(set0(3));
        p.observe(set0(1));
        assert_eq!(p.histogram().counters()[2], 1);
        assert_eq!(p.histogram().misses(), 3);
    }

    #[test]
    fn duplicate_intervening_blocks_do_not_deepen_distance() {
        let mut p = reference(16, 8);
        let set0 = |i: u64| BlockAddr(i * 16);
        // A, B, B, B, A: distance of the second A is 1.
        p.observe(set0(1));
        p.observe(set0(2));
        p.observe(set0(2));
        p.observe(set0(2));
        p.observe(set0(1));
        assert_eq!(p.histogram().counters()[1], 1);
    }

    #[test]
    fn depth_cap_turns_deep_reuse_into_misses() {
        let mut p = reference(16, 4);
        let set0 = |i: u64| BlockAddr(i * 16);
        // Touch 5 distinct blocks then re-touch the first: beyond depth 4.
        for i in 0..5 {
            p.observe(set0(i));
        }
        p.observe(set0(0));
        assert_eq!(p.histogram().misses(), 6);
        assert_eq!(p.histogram().hits_within(4), 0);
    }

    #[test]
    fn set_sampling_ignores_unsampled_sets() {
        let cfg = ProfilerConfig {
            num_sets: 16,
            max_ways: 4,
            sample_ratio: 4,
            tag_bits: None,
            engine: EngineKind::default(),
        };
        let mut p = StackProfiler::new(cfg);
        // Set 1 is not sampled (1 % 4 != 0).
        p.observe(BlockAddr(1));
        p.observe(BlockAddr(1));
        assert_eq!(p.histogram().accesses(), 0);
        assert_eq!(p.total_accesses(), 2);
        // Set 4 is sampled.
        p.observe(BlockAddr(4));
        assert_eq!(p.histogram().accesses(), 1);
    }

    #[test]
    fn partial_tags_can_alias() {
        let cfg = ProfilerConfig {
            num_sets: 16,
            max_ways: 8,
            sample_ratio: 1,
            tag_bits: Some(2),
            engine: EngineKind::default(),
        };
        let mut p = StackProfiler::new(cfg);
        // Two different blocks in set 0 whose tags agree in the low 2 bits:
        // tags 1 and 5 → both truncate to 1.
        p.observe(BlockAddr(1 << 4));
        p.observe(BlockAddr(5 << 4));
        // The second access falsely hits at MRU.
        assert_eq!(p.histogram().counters()[0], 1);
        assert_eq!(p.histogram().misses(), 1);
    }

    #[test]
    fn full_tags_do_not_alias() {
        let mut p = reference(16, 8);
        p.observe(BlockAddr(1 << 4));
        p.observe(BlockAddr(5 << 4));
        assert_eq!(p.histogram().misses(), 2);
    }

    #[test]
    fn paper_hardware_sampled_sets() {
        let cfg = ProfilerConfig::paper_hardware(2048);
        assert_eq!(cfg.sampled_sets(), 64);
        assert_eq!(cfg.max_ways, 72);
    }

    #[test]
    fn sampled_profile_approximates_reference() {
        // A synthetic stream with a known reuse structure, measured by the
        // reference profiler and by the paper's sampled hardware profiler:
        // the sampled miss *ratio* must track the reference closely.
        let sets = 256;
        let mut reference = StackProfiler::new(ProfilerConfig::reference(sets, 16));
        let mut sampled = StackProfiler::new(ProfilerConfig {
            num_sets: sets,
            max_ways: 16,
            sample_ratio: 8,
            tag_bits: Some(16),
            engine: EngineKind::default(),
        });
        let mut rng = StdRng::seed_from_u64(7);
        let footprint = 4096u64;
        for _ in 0..200_000 {
            // Zipf-ish: small working set touched often.
            let b = if rng.gen_bool(0.8) {
                rng.gen_range(0..footprint / 16)
            } else {
                rng.gen_range(0..footprint)
            };
            reference.observe(BlockAddr(b));
            sampled.observe(BlockAddr(b));
        }
        let ref_ratio =
            reference.histogram().misses() as f64 / reference.histogram().accesses() as f64;
        let smp_ratio = sampled.histogram().misses() as f64 / sampled.histogram().accesses() as f64;
        let err = (ref_ratio - smp_ratio).abs() / ref_ratio;
        assert!(
            err < 0.10,
            "sampling error too large: ref {ref_ratio:.4} vs sampled {smp_ratio:.4}"
        );
    }

    #[test]
    fn decay_halves_histogram_but_keeps_stacks() {
        let mut p = reference(16, 4);
        let b = BlockAddr(0);
        p.observe(b);
        p.observe(b);
        p.observe(b); // one cold miss, two MRU hits
        assert_eq!(p.histogram().counters()[0], 2);
        p.decay();
        assert_eq!(p.histogram().counters()[0], 1);
        // The stack still knows the block: next access is an MRU hit.
        p.observe(b);
        assert_eq!(p.histogram().counters()[0], 2);
    }

    #[test]
    fn reset_clears_everything() {
        for engine in [EngineKind::Naive, EngineKind::Fenwick] {
            let mut p = StackProfiler::new(ProfilerConfig::reference(16, 4).with_engine(engine));
            p.observe(BlockAddr(0));
            p.reset();
            assert_eq!(p.histogram().accesses(), 0);
            p.observe(BlockAddr(0));
            assert_eq!(
                p.histogram().misses(),
                1,
                "stack was cleared: cold miss again"
            );
        }
    }

    #[test]
    fn serde_roundtrip_preserves_stack_state() {
        for engine in [EngineKind::Naive, EngineKind::Fenwick] {
            let mut p = StackProfiler::new(ProfilerConfig::reference(16, 4).with_engine(engine));
            for i in [3u64, 7, 3, 11, 19, 7] {
                p.observe(BlockAddr(i << 4));
            }
            let json = serde_json::to_string(&p).expect("serializable");
            let mut q: StackProfiler = serde_json::from_str(&json).expect("roundtrip");
            assert_eq!(q.engine_kind(), engine);
            assert_eq!(q.histogram(), p.histogram());
            // Distances continue identically after the roundtrip.
            for i in [3u64, 19, 42, 7] {
                p.observe(BlockAddr(i << 4));
                q.observe(BlockAddr(i << 4));
            }
            assert_eq!(q.histogram(), p.histogram());
        }
    }

    /// One step of a cross-engine equivalence stream.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Observe(u64),
        Decay,
        Reset,
    }

    fn step_strategy(addr_space: u64) -> impl Strategy<Value = Step> {
        prop_oneof![
            40 => (0..addr_space).prop_map(Step::Observe),
            1 => Just(Step::Decay),
            1 => Just(Step::Reset),
        ]
    }

    proptest! {
        /// The defining equivalence of this PR's engine work: over random
        /// streams with partial tags, set sampling, small depth caps and
        /// interleaved decay/reset, the Fenwick engine's histogram is
        /// bit-identical to the naive oracle's at every step.
        #[test]
        fn engines_produce_bit_identical_histograms(
            steps in proptest::collection::vec(step_strategy(1 << 12), 1..400),
            sets_log in 2u32..5,
            max_ways in 1usize..9,
            sample_ratio in 1usize..4,
            tag_bits in prop_oneof![
                1 => Just(None),
                3 => (2u32..8).prop_map(Some),
            ],
        ) {
            let cfg = ProfilerConfig {
                num_sets: 1 << sets_log,
                max_ways,
                sample_ratio,
                tag_bits,
                engine: EngineKind::Naive,
            };
            let mut naive = StackProfiler::new(cfg);
            let mut fenwick = StackProfiler::new(cfg.with_engine(EngineKind::Fenwick));
            for step in steps {
                match step {
                    Step::Observe(b) => {
                        naive.observe(BlockAddr(b));
                        fenwick.observe(BlockAddr(b));
                    }
                    Step::Decay => {
                        naive.decay();
                        fenwick.decay();
                    }
                    Step::Reset => {
                        naive.reset();
                        fenwick.reset();
                    }
                }
                prop_assert_eq!(naive.histogram(), fenwick.histogram());
            }
            prop_assert_eq!(naive.total_accesses(), fenwick.total_accesses());
        }

        /// Long single-set streams with a tight address space force many
        /// Fenwick compactions (capacity 64 at small K): distances must
        /// survive every renumbering.
        #[test]
        fn engines_agree_across_compactions(
            blocks in proptest::collection::vec(0u64..24, 200..1200),
        ) {
            let cfg = ProfilerConfig::reference(1, 6).with_engine(EngineKind::Naive);
            let mut naive = StackProfiler::new(cfg);
            let mut fenwick = StackProfiler::new(cfg.with_engine(EngineKind::Fenwick));
            for &b in &blocks {
                naive.observe(BlockAddr(b));
                fenwick.observe(BlockAddr(b));
            }
            prop_assert_eq!(naive.histogram(), fenwick.histogram());
        }

        /// The profiler's projected misses at the monitored cache's true
        /// associativity must exactly match a real LRU cache of that
        /// associativity simulated on the same stream (full tags, no
        /// sampling) — MSA's defining property. Checked for both engines.
        #[test]
        fn projection_matches_real_lru_cache(blocks in proptest::collection::vec(0u64..256, 1..500)) {
            use std::collections::VecDeque;
            let sets = 8usize;
            let ways = 4usize;
            for engine in [EngineKind::Naive, EngineKind::Fenwick] {
                let mut p = StackProfiler::new(
                    ProfilerConfig::reference(sets, 8).with_engine(engine));
                let mut cache: Vec<VecDeque<u64>> = vec![VecDeque::new(); sets];
                let mut real_misses = 0u64;
                for &raw in &blocks {
                    let b = BlockAddr(raw);
                    p.observe(b);
                    let set = &mut cache[b.set_index(sets)];
                    if let Some(pos) = set.iter().position(|&t| t == raw) {
                        set.remove(pos);
                        set.push_front(raw);
                    } else {
                        real_misses += 1;
                        set.push_front(raw);
                        set.truncate(ways);
                    }
                }
                prop_assert_eq!(p.histogram().misses_at(ways), real_misses);
            }
        }
    }
}
