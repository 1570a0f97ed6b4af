//! Sparse epoch-demand ledger.
//!
//! The lazy meta-algorithm (Feder et al., the paper's Section 1) only ever
//! observes the pairs a trace actually requests, and real traces touch far
//! fewer than n² pairs (the sparse-demand insight of *Toward Demand-Aware
//! Networking*). A dense n×n count array is therefore the wrong ledger: at
//! the engine's 10⁶-node per-shard scale it would cost 8 TB before the
//! first request is served. [`SparseDemand`] stores one hash-map entry per
//! **distinct directed pair**, so memory is O(distinct pairs) and clearing
//! an epoch is O(distinct pairs) too.
//!
//! Iteration order of a hash map is not deterministic, so every exposed
//! traversal ([`SparseDemand::pairs_sorted`],
//! [`SparseDemand::key_weights`]) sorts into the canonical row-major
//! (source, destination) order first — rebuild policies consuming the
//! ledger are bit-reproducible across runs and platforms.
//!
//! Every request of a lazy net hashes its pair into the map, so the map
//! hashes with one folded multiply per packed pair instead of the default
//! SipHash. Traces can come from files, so each ledger still draws a
//! random seed for its hasher, as the default one does: pairs cannot be
//! chosen in advance to collide.

use crate::trace::NodeKey;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Packs a directed pair into one `u64` key that sorts in row-major
/// order (shared with the decaying ledger, whose smoothed `Vec` is sorted
/// by it and merge-joined with the epoch under the same encoding).
#[inline]
pub(crate) fn pack(u: NodeKey, v: NodeKey) -> u64 {
    ((u as u64) << 32) | v as u64
}

#[inline]
pub(crate) fn unpack(p: u64) -> (NodeKey, NodeKey) {
    ((p >> 32) as NodeKey, p as NodeKey)
}

/// Hasher for packed pairs: the seeded key times an odd 64-bit constant,
/// as a full 128-bit product whose halves are XORed. The map takes its
/// bucket index from the low bits of the hash and its control byte from
/// the top seven, and both halves of the product depend on every key
/// bit, so pairs that differ only in `u` (the high word) still spread
/// over the buckets.
#[derive(Debug, Clone, Copy)]
struct PairHasher(u64);

/// Odd multiplier of `PairHasher` (the 64-bit golden ratio).
const PAIR_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for PairHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let m = ((self.0 ^ x) as u128) * PAIR_MUL as u128;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Starts every `PairHasher` of one map from the same seed, drawn from
/// the standard library's per-process random keys when the map is made.
#[derive(Debug, Clone, Copy)]
struct PairHashSeed(u64);

impl Default for PairHashSeed {
    fn default() -> PairHashSeed {
        PairHashSeed(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for PairHashSeed {
    type Hasher = PairHasher;

    #[inline]
    fn build_hasher(&self) -> PairHasher {
        PairHasher(self.0)
    }
}

/// Sparse directed-demand counts over the keyspace `1..=n`: O(distinct
/// pairs) memory, O(1) expected record/lookup, canonical-order iteration.
///
/// Recording a pair already in the ledger never allocates; a **new**
/// distinct pair may allocate (amortized hash-map growth), which is the
/// price of output-sensitive memory.
#[derive(Debug, Clone, Default)]
pub struct SparseDemand {
    n: usize,
    counts: HashMap<u64, u64, PairHashSeed>,
    total: u64,
}

impl SparseDemand {
    /// An empty ledger over keys `1..=n`.
    pub fn new(n: usize) -> SparseDemand {
        SparseDemand {
            n,
            counts: HashMap::default(),
            total: 0,
        }
    }

    /// Number of nodes in the keyspace.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total recorded requests (sum of all pair counts).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct directed pairs observed.
    pub fn distinct_pairs(&self) -> usize {
        self.counts.len()
    }

    /// True when nothing has been recorded since the last clear.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Records one `u → v` request (1-based keys, `u != v`).
    #[inline]
    pub fn record(&mut self, u: NodeKey, v: NodeKey) {
        self.record_many(u, v, 1);
    }

    /// Records `w` requests `u → v` at once.
    ///
    /// # Panics
    ///
    /// In every build, when `u == v` or either key lies outside `1..=n`:
    /// the decaying ledgers index their per-key arrays by key, so an
    /// out-of-range key would otherwise surface later as a bare index
    /// error, or be dropped (key 0), and a self pair would credit its key
    /// twice.
    #[inline]
    pub fn record_many(&mut self, u: NodeKey, v: NodeKey, w: u64) {
        assert!(u != v, "self-demand ({u},{u})");
        assert!(
            u >= 1 && u as usize <= self.n,
            "demand key {u} out of 1..={}",
            self.n
        );
        assert!(
            v >= 1 && v as usize <= self.n,
            "demand key {v} out of 1..={}",
            self.n
        );
        if w == 0 {
            return;
        }
        *self.counts.entry(pack(u, v)).or_insert(0) += w;
        self.total += w;
    }

    /// Demand from `u` to `v` (0 when the pair was never recorded).
    pub fn get(&self, u: NodeKey, v: NodeKey) -> u64 {
        self.counts.get(&pack(u, v)).copied().unwrap_or(0)
    }

    /// Forgets all recorded demand but keeps the table capacity, so the
    /// next epoch records its recurring pairs without reallocating.
    pub fn clear(&mut self) {
        self.counts.clear();
        self.total = 0;
    }

    /// All `(u, v, count)` entries in canonical row-major order — the
    /// deterministic view rebuild policies and the decaying ledger's
    /// merge-join consume.
    pub fn pairs_sorted(&self) -> Vec<(NodeKey, NodeKey, u64)> {
        let mut pairs: Vec<(NodeKey, NodeKey, u64)> = self
            .counts
            // ksan-allow: determinism collected fully and sorted canonically below
            .iter()
            .map(|(&p, &c)| {
                let (u, v) = unpack(p);
                (u, v, c)
            })
            .collect();
        pairs.sort_unstable_by_key(|&(u, v, _)| (u, v));
        pairs
    }

    /// Appends every `(pack(u, v), count << shift)` entry to `out`
    /// (whose capacity the caller keeps), sorted by packed pair — the
    /// decaying ledger's merge input, in the same row-major order as
    /// [`SparseDemand::pairs_sorted`].
    pub(crate) fn extend_packed_sorted(&self, shift: u32, out: &mut Vec<(u64, u64)>) {
        let start = out.len();
        // ksan-allow: determinism collected fully and sorted by packed pair below
        out.extend(self.counts.iter().map(|(&p, &c)| (p, c << shift)));
        out[start..].sort_unstable_by_key(|e| e.0);
    }

    /// Observed per-key frequencies — each recorded `u → v` pair credits
    /// its count to **both** endpoints — as `(key, weight)` entries sorted
    /// by key, only for keys that appeared at all (O(distinct pairs)).
    /// This is the input of the weight-balanced rebuild policy.
    pub fn key_weights(&self) -> Vec<(NodeKey, u64)> {
        let mut w: HashMap<NodeKey, u64> = HashMap::with_capacity(self.counts.len());
        // ksan-allow: determinism commutative accumulation; the result is sorted by key below
        for (&p, &c) in &self.counts {
            let (u, v) = unpack(p);
            *w.entry(u).or_insert(0) += c;
            *w.entry(v).or_insert(0) += c;
        }
        // ksan-allow: determinism collected fully and sorted by key below
        let mut out: Vec<(NodeKey, u64)> = w.into_iter().collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_get() {
        let mut d = SparseDemand::new(10);
        assert!(d.is_empty());
        d.record(1, 2);
        d.record(1, 2);
        d.record(9, 3);
        assert_eq!(d.get(1, 2), 2);
        assert_eq!(d.get(2, 1), 0, "demand is directed");
        assert_eq!(d.get(9, 3), 1);
        assert_eq!(d.total(), 3);
        assert_eq!(d.distinct_pairs(), 2);
    }

    #[test]
    fn clear_empties_but_keeps_keyspace() {
        let mut d = SparseDemand::new(5);
        d.record_many(1, 5, 7);
        d.clear();
        assert!(d.is_empty());
        assert_eq!(d.total(), 0);
        assert_eq!(d.distinct_pairs(), 0);
        assert_eq!(d.n(), 5);
        assert_eq!(d.get(1, 5), 0);
    }

    #[test]
    fn pairs_sorted_is_canonical_row_major() {
        let mut d = SparseDemand::new(100);
        // insertion order deliberately scrambled
        for &(u, v) in &[(50u32, 3u32), (2, 90), (2, 4), (50, 1), (7, 7 + 1)] {
            d.record(u, v);
        }
        let pairs = d.pairs_sorted();
        let keys: Vec<(u32, u32)> = pairs.iter().map(|&(u, v, _)| (u, v)).collect();
        assert_eq!(keys, vec![(2, 4), (2, 90), (7, 8), (50, 1), (50, 3)]);
    }

    #[test]
    fn key_weights_credit_both_endpoints() {
        let mut d = SparseDemand::new(10);
        d.record_many(1, 2, 3);
        d.record_many(2, 5, 4);
        let w = d.key_weights();
        assert_eq!(w, vec![(1, 3), (2, 7), (5, 4)]);
    }

    #[test]
    #[should_panic(expected = "demand key 0 out of 1..=10")]
    fn record_rejects_key_zero() {
        SparseDemand::new(10).record(0, 3);
    }

    #[test]
    #[should_panic(expected = "demand key 11 out of 1..=10")]
    fn record_rejects_a_key_past_n() {
        SparseDemand::new(10).record_many(4, 11, 2);
    }

    #[test]
    #[should_panic(expected = "self-demand (7,7)")]
    fn record_rejects_a_self_pair() {
        SparseDemand::new(10).record(7, 7);
    }

    #[test]
    fn pair_hasher_spreads_high_word_only_keys() {
        // Pairs (u, 1) differ only in the high word of the packed key;
        // both the low bucket bits and the top control bits must vary.
        let seed = PairHashSeed::default();
        let hash = |p: u64| seed.hash_one(p);
        let low: std::collections::BTreeSet<u64> =
            (1..=64u32).map(|u| hash(pack(u, 1)) & 63).collect();
        let top: std::collections::BTreeSet<u64> =
            (1..=64u32).map(|u| hash(pack(u, 1)) >> 57).collect();
        assert!(low.len() >= 32, "{} distinct low buckets", low.len());
        assert!(top.len() >= 32, "{} distinct control bytes", top.len());
    }

    #[test]
    fn record_zero_is_a_noop() {
        let mut d = SparseDemand::new(4);
        d.record_many(1, 2, 0);
        assert!(d.is_empty());
    }
}
