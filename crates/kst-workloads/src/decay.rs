//! Decaying epoch-demand ledger and the planner-facing demand view.
//!
//! [`SparseDemand`] forgets everything at each rebuild boundary, which is
//! exactly wrong for the non-stationary traffic *Toward Demand-Aware
//! Networking* argues real datacenter workloads exhibit: a lazy net that
//! re-optimizes from single-epoch samples thrashes between unrelated
//! optima. [`EwmaLedger`] keeps an **exponentially weighted moving
//! average** of the per-pair demand across epochs: at every epoch boundary
//! ([`EwmaLedger::decay_merge`]) the smoothed ledger is multiplied by
//! `λ = 2^(−1/half_life)` and the raw epoch counts are added, so demand
//! observed `half_life` epochs ago contributes half of what fresh demand
//! does. `half_life = 0` disables the memory entirely (λ = 0), reproducing
//! the per-epoch `SparseDemand` semantics bit-for-bit — the differential
//! tests rely on that degenerate case.
//!
//! The EWMA runs in **fixed-point** arithmetic ([`FRAC`] fractional bits,
//! decay multiplication rounds *down*) so the ledger stays deterministic
//! across platforms and every entry strictly decreases under decay —
//! un-refreshed pairs reach zero and are pruned, keeping memory
//! output-sensitive. `tests/proptests.rs` pins the arithmetic against an
//! f64 reference with a derived error bound.
//!
//! **Memory.** The smoothed pairs live in one `Vec` sorted by packed
//! `(u, v)`, plus a spare buffer of the same size the next merge writes
//! into: 16 B per live pair per buffer, nothing per key. A merge is one
//! merge-join of that `Vec` with the sorted epoch, which decays, prunes
//! and totals in the same pass, so iteration is canonical without a sort.
//! [`EwmaLedger`] is that ledger alone; the engine's reshard ledger spans
//! the whole keyspace and uses it as is. [`DecayingDemand`], the lazy
//! nets' ledger, wraps it with two dense per-key arrays, 16 B per key in
//! all: the exact fixed-point per-key fold, which the merge pass fills,
//! and the planned baselines. The allocation is zeroed, so its pages are
//! mapped when the first merge touches them.
//!
//! On top of the per-key fold sits the **dirty tracking** the two-phase
//! rebuild planner consumes: the ledger remembers the rounded per-key
//! weights the last plan was built from ([`DecayingDemand::mark_planned`])
//! and [`DecayingDemand::view`] exposes the absolute per-key weight change
//! since then as a [`DirtyIndex`] — prefix-summed, so a planner can ask
//! "how much did demand change inside key range `[a, b]`" in O(log)
//! ("which subtree roots saw demand change ≥ τ since the last rebuild").
//! The view is one linear scan over the keys: no hashing and no sort.

use crate::demand::{pack, unpack, SparseDemand};
use crate::trace::NodeKey;

/// Fractional bits of the fixed-point EWMA counts.
pub const FRAC: u32 = 16;

const HALF: u64 = 1 << (FRAC - 1);

/// Rounds a fixed-point count to the nearest integer (half away from
/// zero) — the integer view rebuild policies consume.
#[inline]
fn round_fp(v: u64) -> u64 {
    (v + HALF) >> FRAC
}

/// Per-epoch decay multiplier `2^(−1/half_life)` in [`FRAC`]-bit
/// fixed-point; 0 for `half_life = 0` (no memory). Clamped to strictly
/// below 1.0: past `half_life ≈ 90 852` the rounded multiplier would
/// saturate to exactly `1 << FRAC`, turning decay into a no-op and
/// breaking the strictly-decreasing/pruning invariant (unbounded ledger
/// growth) — huge half-lives degrade to the slowest representable decay
/// instead.
///
/// This is the ledger's one f64 touchpoint: all merge arithmetic is
/// integer-only given `lambda_fp`, but the multiplier itself comes from
/// `powf`, which is not correctly rounded and may differ by 1 ulp across
/// libm implementations. The 16-bit quantization absorbs that for every
/// half-life checked, and `lambda_fp_is_pinned_for_common_half_lives`
/// pins representative values so any platform drift fails loudly instead
/// of silently desynchronizing replicas.
fn lambda_fp(half_life: u32) -> u64 {
    if half_life == 0 {
        return 0;
    }
    let lambda = 0.5f64.powf(1.0 / half_life as f64);
    ((lambda * (1u64 << FRAC) as f64).round() as u64).min((1u64 << FRAC) - 1)
}

/// EWMA-smoothed sparse pair ledger: O(live pairs) memory, nothing per
/// key, so it serves any keyspace size.
///
/// Owns the current epoch's raw [`SparseDemand`]; epoch boundaries fold it
/// into the smoothed fixed-point ledger via [`EwmaLedger::decay_merge`].
#[derive(Debug, Clone)]
pub struct EwmaLedger {
    n: usize,
    half_life: u32,
    lambda_fp: u64,
    /// Raw demand of the current (not yet merged) epoch.
    epoch: SparseDemand,
    /// Smoothed `(pack(u, v), fixed-point count)` entries, sorted by
    /// packed pair (row-major), every count nonzero.
    smoothed: Vec<(u64, u64)>,
    /// The merge's output buffer; holds the previous ledger's capacity
    /// between merges so steady-state merges do not reallocate.
    spare: Vec<(u64, u64)>,
    /// Exact sum of all `smoothed` entries.
    total_fp: u64,
}

impl EwmaLedger {
    /// An empty ledger over keys `1..=n` with the given half-life in
    /// epochs (`0` = no cross-epoch memory: each merge replaces the
    /// smoothed ledger with the epoch's raw counts).
    pub fn new(n: usize, half_life: u32) -> EwmaLedger {
        EwmaLedger {
            n,
            half_life,
            lambda_fp: lambda_fp(half_life),
            epoch: SparseDemand::new(n),
            smoothed: Vec::new(),
            spare: Vec::new(),
            total_fp: 0,
        }
    }

    /// Number of nodes in the keyspace.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Configured half-life in epochs (0 = no memory).
    pub fn half_life(&self) -> u32 {
        self.half_life
    }

    /// The per-epoch decay multiplier exactly as represented in fixed
    /// point (`λ = lambda_fp / 2^FRAC ≈ 2^(−1/half_life)`) — the value an
    /// f64 reference model must use to reproduce the ledger's arithmetic
    /// up to per-merge floor rounding.
    pub fn lambda(&self) -> f64 {
        self.lambda_fp as f64 / (1u64 << FRAC) as f64
    }

    /// Read access to the current (unmerged) epoch's raw ledger.
    pub fn epoch(&self) -> &SparseDemand {
        &self.epoch
    }

    /// Records one `u → v` request into the current epoch.
    #[inline]
    pub fn record(&mut self, u: NodeKey, v: NodeKey) {
        self.epoch.record(u, v);
    }

    /// Records `w` requests `u → v` into the current epoch.
    #[inline]
    pub fn record_many(&mut self, u: NodeKey, v: NodeKey, w: u64) {
        self.epoch.record_many(u, v, w);
    }

    /// Smoothed demand from `u` to `v`, rounded to the nearest integer
    /// (excludes the current unmerged epoch).
    pub fn get(&self, u: NodeKey, v: NodeKey) -> u64 {
        round_fp(self.get_fp(u, v))
    }

    /// Smoothed demand in raw fixed-point units (testing hook for the
    /// EWMA arithmetic proptests); a binary search.
    pub fn get_fp(&self, u: NodeKey, v: NodeKey) -> u64 {
        let p = pack(u, v);
        self.smoothed
            .binary_search_by_key(&p, |e| e.0)
            .map_or(0, |i| self.smoothed[i].1)
    }

    /// Total smoothed demand, rounded (excludes the unmerged epoch).
    pub fn total(&self) -> u64 {
        round_fp(self.total_fp)
    }

    /// Exact fixed-point total (sum of all smoothed entries).
    pub fn total_fp(&self) -> u64 {
        self.total_fp
    }

    /// Number of distinct pairs in the smoothed ledger.
    pub fn distinct_pairs(&self) -> usize {
        self.smoothed.len()
    }

    /// True when both the smoothed ledger and the current epoch are empty.
    pub fn is_empty(&self) -> bool {
        self.smoothed.is_empty() && self.epoch.is_empty()
    }

    /// Epoch boundary: decays the smoothed ledger by one half-life step
    /// and folds the current epoch's raw counts in, then clears the epoch.
    ///
    /// Decay multiplies each entry by `λ` rounding **down**, so every
    /// un-refreshed entry strictly decreases and is pruned on reaching
    /// zero (bounded memory); the fold adds exact fixed-point values, so
    /// with `half_life = 0` the smoothed ledger equals the epoch's raw
    /// counts exactly.
    pub fn decay_merge(&mut self) {
        self.merge_with(|_, _, _| {});
    }

    /// [`EwmaLedger::decay_merge`], calling `fold(u, v, fp)` once for
    /// every entry of the merged ledger, in canonical order — the one
    /// pass a wrapper derives per-key sums from.
    fn merge_with(&mut self, mut fold: impl FnMut(NodeKey, NodeKey, u64)) {
        let lam = self.lambda_fp;
        let epoch = self.epoch.pairs_sorted();
        let mut out = std::mem::take(&mut self.spare);
        out.clear();
        out.reserve(self.smoothed.len() + epoch.len());
        let mut total = 0u64;
        let mut keep = |p: u64, fp: u64| {
            if fp > 0 {
                out.push((p, fp));
                total += fp;
                let (u, v) = unpack(p);
                fold(u, v, fp);
            }
        };
        let mut fresh = epoch
            .iter()
            .map(|&(u, v, c)| (pack(u, v), c << FRAC))
            .peekable();
        for &(p, fp) in &self.smoothed {
            while let Some(&(q, c)) = fresh.peek().filter(|e| e.0 < p) {
                keep(q, c);
                fresh.next();
            }
            let mut fp = ((fp as u128 * lam as u128) >> FRAC) as u64;
            if let Some(&(_, c)) = fresh.peek().filter(|e| e.0 == p) {
                fp += c;
                fresh.next();
            }
            keep(p, fp);
        }
        for (q, c) in fresh {
            keep(q, c);
        }
        self.spare = std::mem::replace(&mut self.smoothed, out);
        self.total_fp = total;
        self.epoch.clear();
    }

    /// Forgets everything: smoothed ledger and current epoch (capacity
    /// retained).
    pub fn clear(&mut self) {
        self.smoothed.clear();
        self.total_fp = 0;
        self.epoch.clear();
    }

    /// All smoothed `(u, v, count)` entries with nonzero rounded count, in
    /// canonical row-major order (the ledger's own order: no sort).
    pub fn pairs_sorted(&self) -> Vec<(NodeKey, NodeKey, u64)> {
        self.smoothed
            .iter()
            .filter_map(|&(p, fp)| {
                let c = round_fp(fp);
                (c > 0).then(|| {
                    let (u, v) = unpack(p);
                    (u, v, c)
                })
            })
            .collect()
    }
}

/// The lazy nets' ledger: an [`EwmaLedger`] plus the dense per-key fold
/// and planned baselines behind the planner's [`DemandView`].
///
/// Dereferences to the wrapped [`EwmaLedger`] for every read-only query;
/// the mutating calls go through this type so the per-key arrays stay in
/// step with the pairs.
#[derive(Debug, Clone)]
pub struct DecayingDemand {
    ledger: EwmaLedger,
    /// Exact fixed-point per-key fold of the smoothed ledger, indexed by
    /// key (slot 0 unused): every entry credits both endpoints. Filled
    /// by the merge pass.
    key_fp: Vec<u64>,
    /// Rounded per-key weight the last plan consumed, indexed by key
    /// (0 = absent, planned at weight 0). Baselines update only for the
    /// key ranges a plan actually patched, so drift in untouched regions
    /// keeps accumulating until a patch covers it.
    planned: Vec<u64>,
}

impl std::ops::Deref for DecayingDemand {
    type Target = EwmaLedger;

    fn deref(&self) -> &EwmaLedger {
        &self.ledger
    }
}

impl DecayingDemand {
    /// An empty ledger over keys `1..=n` with the given half-life in
    /// epochs (`0` = no cross-epoch memory: each merge replaces the
    /// smoothed ledger with the epoch's raw counts).
    pub fn new(n: usize, half_life: u32) -> DecayingDemand {
        DecayingDemand {
            ledger: EwmaLedger::new(n, half_life),
            key_fp: vec![0; n + 1],
            planned: vec![0; n + 1],
        }
    }

    /// Records one `u → v` request into the current epoch.
    #[inline]
    pub fn record(&mut self, u: NodeKey, v: NodeKey) {
        self.ledger.record(u, v);
    }

    /// Records `w` requests `u → v` into the current epoch.
    #[inline]
    pub fn record_many(&mut self, u: NodeKey, v: NodeKey, w: u64) {
        self.ledger.record_many(u, v, w);
    }

    /// [`EwmaLedger::decay_merge`], refolding the per-key weights in the
    /// same pass.
    pub fn decay_merge(&mut self) {
        let key_fp = &mut self.key_fp;
        key_fp.fill(0);
        self.ledger.merge_with(|u, v, fp| {
            key_fp[u as usize] += fp;
            key_fp[v as usize] += fp;
        });
    }

    /// Forgets everything: smoothed ledger, current epoch, per-key fold
    /// and planned baselines (capacity retained).
    pub fn clear(&mut self) {
        self.ledger.clear();
        // Plain loops, not `fill`: kst-analyze resolves calls by name, and
        // the hot-path graph reaches this `clear` through other `clear`s.
        for w in &mut self.key_fp {
            *w = 0;
        }
        for w in &mut self.planned {
            *w = 0;
        }
    }

    /// Rounded smoothed per-key weights (each pair credits both
    /// endpoints), sorted by key, zero-weight keys omitted. The
    /// fixed-point sums are rounded once per key, so with `half_life = 0`
    /// this equals `SparseDemand::key_weights` of the last epoch exactly.
    pub fn key_weights(&self) -> Vec<(NodeKey, u64)> {
        self.key_fp
            .iter()
            .enumerate()
            .skip(1)
            .filter_map(|(key, &fp)| {
                let w = round_fp(fp);
                (w > 0).then_some((key as NodeKey, w))
            })
            .collect()
    }

    /// Builds the planner-facing view of the smoothed ledger: rounded key
    /// weights plus the dirty index of per-key change since each key's
    /// last planned baseline, both from one scan over the keys. Call
    /// after [`DecayingDemand::decay_merge`].
    ///
    /// A key counts as **drifted** once its weight roughly doubled or
    /// halved relative to the baseline (or appeared/vanished); sub-octave
    /// jitter is noise — a weight-balanced tree assigns depth on a log
    /// scale, so sub-factor-2 changes never warrant moving a key, and
    /// counting them would let diffuse ±1 noise across a big range
    /// masquerade as structural drift. Changes entirely at or below
    /// weight 2 are filtered the same way: `ShapeTree::weight_balanced`
    /// gives every key an implicit base weight of 1, so observed weights
    /// in `{1, 2}` are indistinguishable from the cold floor and their
    /// 1 ↔ 2 flips (formally factor-2 moves) carry no placement signal.
    /// A drifted key's dirty mass is the absolute weight change, so
    /// τ-thresholded range queries weigh a hot key's explosion far above
    /// a warm key's flicker.
    pub fn view(&self) -> DemandView<'_> {
        let mut kw: Vec<(NodeKey, u64)> = Vec::new();
        let mut dirty: Vec<(NodeKey, u64)> = Vec::new();
        let keys = self.key_fp.iter().zip(&self.planned).enumerate().skip(1);
        for (key, (&fp, &base)) in keys {
            let w = round_fp(fp);
            if w > 0 {
                kw.push((key as NodeKey, w));
            }
            // A key decayed to zero passes with delta = base: a vanished
            // key is as drifted as a doubled one.
            let delta = w.abs_diff(base);
            if delta > 0 && (w >= 2 * base || 2 * w <= base) && w.max(base) > 2 {
                dirty.push((key as NodeKey, delta));
            }
        }
        DemandView {
            n: self.n(),
            weights_pre: prefix_sums(&kw),
            key_weights: kw,
            dirty: DirtyIndex::new(dirty),
            ledger: &self.ledger,
        }
    }

    /// Records the current rounded key weights inside the given key
    /// ranges as the new planned baseline — the ranges a rebuild plan
    /// actually patched. Keys outside every range keep their old
    /// baseline, so their drift keeps counting as dirty.
    pub fn mark_planned(&mut self, ranges: &[(NodeKey, NodeKey)]) {
        for &(lo, hi) in ranges {
            let span = lo as usize..=(hi as usize).min(self.n());
            if let (Some(base), Some(fp)) =
                (self.planned.get_mut(span.clone()), self.key_fp.get(span))
            {
                for (b, &f) in base.iter_mut().zip(fp) {
                    *b = round_fp(f);
                }
            }
        }
    }
}

/// Mass of entries with key in `[a, b]` given by-key sorted entries and
/// their prefix sums — the one copy of the boundary logic behind
/// [`DirtyIndex::range_mass`] and [`DemandView::weight_mass`]. Inverted
/// ranges are empty, never an underflow.
fn range_mass_over(entries: &[(NodeKey, u64)], pre: &[u64], a: NodeKey, b: NodeKey) -> u64 {
    if a > b {
        return 0;
    }
    let lo = entries.partition_point(|&(key, _)| key < a);
    let hi = entries.partition_point(|&(key, _)| key <= b);
    pre[hi] - pre[lo]
}

/// `pre[i]` = sum of the first `i` weights — the range-mass backbone
/// shared by [`DemandView::weight_mass`] and [`DirtyIndex`].
fn prefix_sums(entries: &[(NodeKey, u64)]) -> Vec<u64> {
    let mut pre = Vec::with_capacity(entries.len() + 1);
    let mut acc = 0u64;
    pre.push(0);
    for &(_, w) in entries {
        acc += w;
        pre.push(acc);
    }
    pre
}

/// The demand snapshot a rebuild planner consumes: node count, rounded
/// per-key weights, canonical-order pair counts, and the dirty index of
/// demand change since the last plan.
///
/// Constructed by [`DecayingDemand::view`] (smoothed, dirty vs planned
/// baselines).
pub struct DemandView<'a> {
    n: usize,
    key_weights: Vec<(NodeKey, u64)>,
    /// Prefix sums over `key_weights` backing [`DemandView::weight_mass`].
    weights_pre: Vec<u64>,
    dirty: DirtyIndex,
    ledger: &'a EwmaLedger,
}

impl<'a> DemandView<'a> {
    /// Number of nodes in the keyspace.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rounded per-key weights sorted by key (zero-weight keys omitted) —
    /// the input of the weight-balanced policies.
    pub fn key_weights(&self) -> &[(NodeKey, u64)] {
        &self.key_weights
    }

    /// Per-key weights restricted to keys in `[a, b]` (a sorted subslice).
    pub fn key_weights_in(&self, a: NodeKey, b: NodeKey) -> &[(NodeKey, u64)] {
        let lo = self.key_weights.partition_point(|&(key, _)| key < a);
        let hi = self.key_weights.partition_point(|&(key, _)| key <= b);
        &self.key_weights[lo..hi]
    }

    /// All `(u, v, count)` pair entries in canonical row-major order
    /// (materialized on demand — only the dense-DP policies need pairs).
    pub fn pairs_sorted(&self) -> Vec<(NodeKey, NodeKey, u64)> {
        self.ledger.pairs_sorted()
    }

    /// Total smoothed demand (sum of all pair counts, rounded).
    pub fn total(&self) -> u64 {
        self.ledger.total()
    }

    /// The dirty index: per-key absolute weight change since the last
    /// planned baseline, with O(log) range-mass queries.
    pub fn dirty(&self) -> &DirtyIndex {
        &self.dirty
    }

    /// Total demand weight of keys in `[a, b]` (two binary searches) —
    /// the denominator a planner compares dirty mass against to decide
    /// whether a range's demand profile has fundamentally changed.
    pub fn weight_mass(&self, a: NodeKey, b: NodeKey) -> u64 {
        range_mass_over(&self.key_weights, &self.weights_pre, a, b)
    }
}

/// Prefix-summed per-key change mass: lets a planner ask "how much did
/// demand change inside key range `[a, b]` since the last rebuild" in two
/// binary searches.
#[derive(Debug, Clone, Default)]
pub struct DirtyIndex {
    /// `(key, |Δweight|)` sorted by key, zero deltas omitted.
    keys: Vec<(NodeKey, u64)>,
    /// `pre[i]` = sum of the first `i` deltas.
    pre: Vec<u64>,
}

impl DirtyIndex {
    /// Builds the index from by-key sorted `(key, change)` entries.
    pub fn new(keys: Vec<(NodeKey, u64)>) -> DirtyIndex {
        debug_assert!(keys.windows(2).all(|w| w[0].0 < w[1].0));
        let pre = prefix_sums(&keys);
        DirtyIndex { keys, pre }
    }

    /// Total change mass across all keys.
    pub fn total(&self) -> u64 {
        *self.pre.last().unwrap_or(&0)
    }

    /// Change mass of keys in `[a, b]` (0 for an inverted/empty range —
    /// never an underflow).
    pub fn range_mass(&self, a: NodeKey, b: NodeKey) -> u64 {
        range_mass_over(&self.keys, &self.pre, a, b)
    }

    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The raw `(key, change)` entries, sorted by key.
    pub fn entries(&self) -> &[(NodeKey, u64)] {
        &self.keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_memory_half_life_reproduces_the_epoch_exactly() {
        let mut d = DecayingDemand::new(50, 0);
        let mut s = SparseDemand::new(50);
        for &(u, v, w) in &[(1u32, 2u32, 3u64), (7, 40, 1), (2, 1, 9)] {
            d.record_many(u, v, w);
            s.record_many(u, v, w);
        }
        d.decay_merge();
        assert_eq!(d.pairs_sorted(), s.pairs_sorted());
        assert_eq!(d.key_weights(), s.key_weights());
        assert_eq!(d.total(), s.total());
        assert!(d.epoch().is_empty(), "merge must clear the epoch");
        // A second merge with an empty epoch wipes everything (λ = 0).
        d.decay_merge();
        assert_eq!(d.total(), 0);
        assert_eq!(d.distinct_pairs(), 0);
    }

    #[test]
    fn half_life_halves_after_h_epochs() {
        let h = 4u32;
        let mut d = DecayingDemand::new(10, h);
        d.record_many(1, 2, 1000);
        d.decay_merge();
        let start = d.get(1, 2);
        assert_eq!(start, 1000);
        for _ in 0..h {
            d.decay_merge(); // empty epochs: pure decay
        }
        let halved = d.get(1, 2);
        assert!(
            (halved as i64 - 500).abs() <= 2,
            "after {h} epochs 1000 should decay to ~500, got {halved}"
        );
    }

    #[test]
    fn unrefreshed_pairs_decay_to_zero_and_are_pruned() {
        let mut d = DecayingDemand::new(10, 2);
        d.record_many(3, 4, 5);
        d.decay_merge();
        let mut merges = 0;
        while d.distinct_pairs() > 0 {
            d.decay_merge();
            merges += 1;
            assert!(merges < 200, "entry never pruned");
        }
        assert_eq!(d.total_fp(), 0);
    }

    #[test]
    fn dirty_tracks_change_since_mark_planned() {
        let mut d = DecayingDemand::new(100, 0);
        d.record_many(10, 20, 6);
        d.decay_merge();
        // Nothing planned yet: everything is dirty.
        let v = d.view();
        assert_eq!(v.dirty().total(), 12); // both endpoints credited 6
        d.mark_planned(&[(1, 100)]);
        // Same demand again: weights unchanged → clean.
        d.record_many(10, 20, 6);
        d.decay_merge();
        assert_eq!(d.view().dirty().total(), 0);
        // New traffic elsewhere: only those keys dirty.
        d.record_many(50, 60, 3);
        d.record_many(10, 20, 6);
        d.decay_merge();
        let v = d.view();
        assert_eq!(v.dirty().range_mass(50, 60), 6);
        assert_eq!(v.dirty().range_mass(1, 40), 0);
    }

    #[test]
    fn lambda_fp_is_pinned_for_common_half_lives() {
        // Golden values for the one f64-derived constant in the ledger:
        // if a platform's powf rounds differently, this fails loudly
        // instead of letting replicas silently desynchronize.
        for (h, want) in [
            (1u32, 32768u64),
            (2, 46341),
            (4, 55109),
            (8, 60097),
            (16, 62757),
            (64, 64830),
        ] {
            assert_eq!(lambda_fp(h), want, "half_life {h}");
        }
        assert_eq!(lambda_fp(0), 0);
    }

    #[test]
    fn huge_half_life_still_decays() {
        // Regression: past H ≈ 90 852 the rounded multiplier would
        // saturate to 1.0 and never forget; the clamp keeps decay strict.
        let mut d = DecayingDemand::new(10, u32::MAX);
        assert!(d.lambda() < 1.0);
        d.record_many(1, 2, 5);
        d.decay_merge();
        let before = d.get_fp(1, 2);
        d.decay_merge(); // empty epoch: pure decay
        assert!(
            d.get_fp(1, 2) < before,
            "entry must strictly decrease under any positive half-life"
        );
    }

    #[test]
    fn sub_base_weight_flicker_is_not_dirty() {
        // Weight-1↔2 flips sit at the implicit +1 base weight of the
        // weight-balanced builder: formally factor-2 changes, but they
        // carry no placement signal and must not count as drift.
        let mut d = DecayingDemand::new(100, 0);
        d.record_many(10, 20, 1);
        d.decay_merge();
        d.mark_planned(&[(1, 100)]);
        d.record_many(10, 20, 2);
        d.decay_merge();
        assert_eq!(d.view().dirty().total(), 0, "1→2 flicker counted as drift");
        // A genuine jump clears both the factor-2 and the floor filter.
        d.record_many(10, 20, 40);
        d.decay_merge();
        assert!(d.view().dirty().range_mass(10, 20) >= 76);
    }

    #[test]
    fn mark_planned_only_resets_covered_ranges() {
        let mut d = DecayingDemand::new(100, 0);
        d.record_many(5, 6, 4);
        d.record_many(90, 91, 8);
        d.decay_merge();
        d.mark_planned(&[(1, 10)]); // only the left region was patched
        let v = d.view();
        assert_eq!(v.dirty().range_mass(1, 10), 0);
        assert_eq!(
            v.dirty().range_mass(80, 100),
            16,
            "uncovered drift persists"
        );
    }

    #[test]
    fn decayed_to_zero_keys_count_as_dirty() {
        let mut d = DecayingDemand::new(50, 0);
        d.record_many(7, 8, 5);
        d.decay_merge();
        d.mark_planned(&[(1, 50)]);
        // Next epoch has no traffic at all: with half_life 0 the weights
        // drop to zero, which is a change of the full baseline.
        d.decay_merge();
        let v = d.view();
        assert_eq!(v.dirty().range_mass(7, 8), 10);
    }

    #[test]
    fn dirty_index_range_masses_are_prefix_consistent() {
        let idx = DirtyIndex::new(vec![(2, 5), (7, 1), (8, 4), (40, 10)]);
        assert_eq!(idx.total(), 20);
        assert_eq!(idx.range_mass(1, 100), 20);
        assert_eq!(idx.range_mass(3, 6), 0);
        assert_eq!(idx.range_mass(7, 8), 5);
        assert_eq!(idx.range_mass(8, 40), 14);
    }

    #[test]
    fn key_weights_in_slices_by_range() {
        let mut d = DecayingDemand::new(100, 0);
        d.record_many(10, 20, 1);
        d.record_many(30, 40, 2);
        d.decay_merge();
        let v = d.view();
        assert_eq!(v.key_weights_in(15, 35), &[(20, 1), (30, 2)]);
        assert_eq!(v.key_weights_in(41, 100), &[]);
    }

    #[test]
    fn pair_ledger_holds_nothing_per_key_at_a_2_pow_30_keyspace() {
        // The engine's reshard ledger spans the whole keyspace: its
        // buffers must scale with live pairs, never with n.
        let n = 1usize << 30;
        let top = n as NodeKey;
        let mut d = EwmaLedger::new(n, 8);
        d.record_many(1, top, 3);
        d.record_many(top, 1, 2);
        d.record_many(12_345, 678, 1);
        d.decay_merge();
        d.record_many(1, top, 1);
        d.decay_merge();
        assert_eq!(d.distinct_pairs(), 3);
        let pairs = d.pairs_sorted();
        let keys: Vec<(NodeKey, NodeKey)> = pairs.iter().map(|&(u, v, _)| (u, v)).collect();
        assert_eq!(keys, vec![(1, top), (12_345, 678), (top, 1)]);
        let held = d.smoothed.capacity() + d.spare.capacity();
        assert!(held <= 64, "pair ledger holds {held} entries for 3 pairs");
    }

    #[test]
    fn merge_join_keeps_the_ledger_sorted_and_totals_exact() {
        let mut d = DecayingDemand::new(40, 4);
        for &(u, v, w) in &[(30u32, 2u32, 5u64), (1, 40, 2), (7, 8, 9)] {
            d.record_many(u, v, w);
        }
        d.decay_merge();
        // Interleave refreshed, new and decaying-only pairs.
        for &(u, v, w) in &[(7u32, 8u32, 1u64), (2, 3, 4), (40, 1, 6)] {
            d.record_many(u, v, w);
        }
        d.decay_merge();
        assert!(d.smoothed.windows(2).all(|e| e[0].0 < e[1].0));
        let sum: u64 = d.smoothed.iter().map(|e| e.1).sum();
        assert_eq!(d.total_fp(), sum);
        let folded: u64 = d.key_fp.iter().sum();
        assert_eq!(folded, 2 * sum, "each pair credits both endpoints");
    }
}
