//! Decaying epoch-demand ledger and the planner-facing demand view.
//!
//! The lazy meta-algorithm (Feder et al., the paper's Section 1) only ever
//! observes the pairs a trace actually requests, and real traces touch far
//! fewer than n² pairs (the sparse-demand insight of *Toward Demand-Aware
//! Networking*), so every ledger here is O(observed pairs), never n². A
//! ledger that forgets everything at each rebuild boundary is exactly
//! wrong for the non-stationary traffic that paper argues real datacenter
//! workloads exhibit: a lazy net that re-optimizes from single-epoch
//! samples thrashes between unrelated optima. [`EwmaLedger`] keeps an
//! **exponentially weighted moving average** of the per-pair demand across
//! epochs: at every epoch boundary ([`EwmaLedger::decay_merge`]) the
//! smoothed ledger is multiplied by `λ = 2^(−1/half_life)` and the raw
//! epoch counts are added, so demand observed `half_life` epochs ago
//! contributes half of what fresh demand does. `half_life = 0` disables
//! the memory entirely (λ = 0): the smoothed ledger is then exactly the
//! last epoch's raw counts — the differential tests rely on that
//! degenerate case.
//!
//! The EWMA runs in **fixed-point** arithmetic ([`FRAC`] fractional bits,
//! decay multiplication rounds *down*) so the ledger stays deterministic
//! across platforms and every entry strictly decreases under decay —
//! un-refreshed pairs reach zero and are pruned, keeping memory
//! output-sensitive. `tests/proptests.rs` pins the arithmetic against an
//! f64 reference with a derived error bound.
//!
//! **Memory.** The smoothed pairs live in one `Vec` sorted by packed
//! `(u, v)`: 16 B per live pair, nothing per key. The current epoch is a
//! second `Vec` of packed `(pair, count)` runs, 16 B per entry: a request
//! appends one entry, and a full buffer is coalesced in place (one entry
//! per pair) and grows only when that frees less than half of it, so its
//! capacity stays below four entries per distinct pair of the largest
//! epoch so far. A coalesce sorts only the raw records since the last
//! one and merges their run into the already coalesced prefix, in room
//! past the run's end that the buffer keeps.
//! A merge coalesces it once more and merge-joins the sorted run with the
//! smoothed `Vec` in place, back to front, decaying, pruning and totalling
//! in the same pass, so iteration is canonical without sorting the ledger,
//! no hashing happens anywhere, and no second ledger-sized buffer exists.
//! [`EwmaLedger`] is that ledger alone; the engine's reshard ledger spans
//! the whole keyspace and uses it as is. [`DecayingDemand`], the lazy
//! nets' ledger, wraps it with three dense per-key arrays, 24 B per key in
//! all: the rounded key-weight prefix (the merge pass folds the exact
//! fixed-point per-key sums into it, then prefix-sums their rounded values
//! in place), the planned baselines, and the dirty prefix the view fills.
//! The allocations are zeroed, so their pages are mapped when the first
//! merge or view touches them.
//!
//! On top of the per-key fold sits the **dirty tracking** the two-phase
//! rebuild planner consumes: the ledger remembers the rounded per-key
//! weights the last plan was built from ([`DecayingDemand::mark_planned`])
//! and [`DecayingDemand::view`] exposes the absolute per-key weight change
//! since then as a [`DirtyIndex`] ("which subtree roots saw demand change
//! ≥ τ since the last rebuild"). The view (`&mut self`) is one linear pass
//! over the keys that writes the retained drifted-delta prefix next to
//! the key-weight prefix the merge left, so "how much weight, and how
//! much change, lies inside key range `[a, b]`" is one subtraction each:
//! no hashing, no sort, no allocation.

use crate::trace::NodeKey;

/// Fractional bits of the fixed-point EWMA counts.
pub const FRAC: u32 = 16;

const HALF: u64 = 1 << (FRAC - 1);

/// Packs a directed pair into one `u64` key that sorts in row-major
/// order; both the epoch buffer and the smoothed ledger sort by it.
#[inline]
fn pack(u: NodeKey, v: NodeKey) -> u64 {
    ((u as u64) << 32) | v as u64
}

#[inline]
fn unpack(p: u64) -> (NodeKey, NodeKey) {
    ((p >> 32) as NodeKey, p as NodeKey)
}

/// Rounds a fixed-point count to the nearest integer (half away from
/// zero) — the integer view rebuild policies consume.
#[inline]
fn round_fp(v: u64) -> u64 {
    (v + HALF) >> FRAC
}

/// Sums two fixed-point counts of the pair packed as `p`. Panics in every
/// build, naming the pair, when the sum does not fit: a wrapped count
/// would silently turn heavy demand into light demand.
#[inline]
fn add_fp(a: u64, b: u64, p: u64) -> u64 {
    a.checked_add(b).unwrap_or_else(|| {
        let (u, v) = unpack(p);
        panic!("demand for pair ({u},{v}) overflows the fixed-point ledger")
    })
}

/// Sorts `run` by pair and sums each pair's entries into the first of
/// them, moved to the front; returns how many distinct pairs lead `run`.
fn sum_sorted(run: &mut [(u64, u64)]) -> usize {
    run.sort_unstable_by_key(|e| e.0);
    let mut kept = 0;
    for r in 0..run.len() {
        let e = run[r];
        if kept > 0 && run[kept - 1].0 == e.0 {
            run[kept - 1].1 = add_fp(run[kept - 1].1, e.1, e.0);
        } else {
            run[kept] = e;
            kept += 1;
        }
    }
    kept
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
/// Records the current epoch into its own sorted-run buffer; epoch
/// boundaries fold it into the smoothed fixed-point ledger via
/// [`EwmaLedger::decay_merge`].
#[derive(Debug, Clone)]
pub struct EwmaLedger {
    n: usize,
    half_life: u32,
    lambda_fp: u64,
    /// The current (not yet merged) epoch: `(pack(u, v), w << FRAC)`
    /// entries after a `pack(0, 0)` sentinel, which no recorded pair
    /// reaches (keys start at 1). Recording appends; `coalesce` sorts the
    /// entries and sums each pair's into one. The merge reads the
    /// coalesced run and truncates back to the sentinel, so the capacity
    /// carries over between epochs.
    fresh: Vec<(u64, u64)>,
    /// Length of `fresh`'s coalesced prefix, sentinel included: entries
    /// from here on are raw records.
    coalesced: usize,
    /// Smoothed `(pack(u, v), fixed-point count)` entries from index
    /// `start` on, sorted by packed pair (row-major), every count nonzero.
    /// The merge rewrites it in place, so its capacity carries over
    /// between merges.
    smoothed: Vec<(u64, u64)>,
    /// First live entry of `smoothed`. The in-place merge leaves a gap
    /// before it, one slot per pruned entry and per epoch pair already
    /// in the ledger; the gap is closed once it exceeds an eighth of the
    /// live entries, so it costs at most one move per several merges.
    start: usize,
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
            fresh: vec![(0, 0)],
            coalesced: 1,
            smoothed: Vec::new(),
            start: 0,
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

    /// Records one `u → v` request into the current epoch.
    #[inline]
    pub fn record(&mut self, u: NodeKey, v: NodeKey) {
        self.record_many(u, v, 1);
    }

    /// Records `w` requests `u → v` into the current epoch (`w = 0`
    /// records nothing).
    ///
    /// # Panics
    ///
    /// In every build, when `u == v`, when either key lies outside
    /// `1..=n`, or when `w` exceeds `u64::MAX >> FRAC`: the per-key
    /// arrays of [`DecayingDemand`] are indexed by key, so an
    /// out-of-range key would otherwise surface later as a bare index
    /// error, or be dropped (key 0); a self pair would credit its key
    /// twice; and a larger weight would wrap in fixed point.
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
        assert!(
            w <= u64::MAX >> FRAC,
            "demand weight {w} exceeds the fixed-point cap {}",
            u64::MAX >> FRAC
        );
        if w == 0 {
            return;
        }
        if self.fresh.len() == self.fresh.capacity() {
            self.coalesce();
        }
        self.fresh.push((pack(u, v), w << FRAC));
    }

    /// Sorts the epoch buffer by pair and sums each pair's entries into
    /// one, in place. Only the raw records since the last coalesce are
    /// sorted and summed; their run is then copied past its end and
    /// merged into the coalesced prefix back to front. The copy lands in
    /// the room the summed duplicates freed, or in capacity the buffer
    /// keeps, so a warmed ledger allocates nothing here. The sums are
    /// integer, so the result does not depend on how records were
    /// grouped. If the buffer is left more than half full, it grows, so
    /// at least as many records as it holds fit before the next coalesce.
    #[inline(never)]
    fn coalesce(&mut self) {
        let fresh = &mut self.fresh;
        let (c, raw_end) = (self.coalesced, fresh.len());
        let end = c + sum_sorted(&mut fresh[c..]);
        let run = end - c;
        let len = if c == 1 || run == 0 {
            end
        } else {
            // The run moves to `end..end + run` (room the summed
            // duplicates freed, or retained capacity), and the join
            // writes below `end`: its write cursor `w` never passes an
            // unread prefix entry, and the sentinel stops the prefix
            // cursor `i`.
            if end + run > raw_end {
                fresh.resize(end + run, (0, 0));
            }
            fresh.copy_within(c..end, end);
            let (mut i, mut w) = (c - 1, end);
            for j in (end..end + run).rev() {
                let (p, fp) = fresh[j];
                while fresh[i].0 > p {
                    w -= 1;
                    fresh[w] = fresh[i];
                    i -= 1;
                }
                w -= 1;
                fresh[w] = if fresh[i].0 == p {
                    i -= 1;
                    (p, add_fp(fresh[i + 1].1, fp, p))
                } else {
                    (p, fp)
                };
            }
            // Entries 1..=i never moved; close the gap each summed pair
            // left between them and the merged run.
            fresh.copy_within(w..end, i + 1);
            end - (w - i - 1)
        };
        fresh.truncate(len);
        self.coalesced = len;
        if len > fresh.capacity() / 2 {
            fresh.reserve(len);
        }
    }

    /// Requests recorded in the current (unmerged) epoch.
    pub fn epoch_total(&self) -> u64 {
        self.fresh.iter().map(|e| e.1 >> FRAC).sum()
    }

    /// The current epoch's `(u, v, count)` entries, one per distinct
    /// pair, in canonical row-major order. Coalesces the epoch buffer
    /// first, hence `&mut self`.
    pub fn epoch_pairs(&mut self) -> impl ExactSizeIterator<Item = (NodeKey, NodeKey, u64)> + '_ {
        self.coalesce();
        self.fresh[1..].iter().map(|&(p, fp)| {
            let (u, v) = unpack(p);
            (u, v, fp >> FRAC)
        })
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
        let live = self.live();
        live.binary_search_by_key(&p, |e| e.0)
            .map_or(0, |i| live[i].1)
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
        self.live().len()
    }

    /// The live smoothed entries.
    fn live(&self) -> &[(u64, u64)] {
        &self.smoothed[self.start..]
    }

    /// True when both the smoothed ledger and the current epoch are empty.
    pub fn is_empty(&self) -> bool {
        self.live().is_empty() && self.fresh.len() == 1
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
    /// every entry of the merged ledger, in descending pair order — the
    /// one pass a wrapper derives per-key sums from.
    ///
    /// The epoch buffer is coalesced into one sorted run behind its
    /// sentinel. The join then runs backwards, writing the merged ledger
    /// in place from the end of `smoothed` grown by the epoch's length:
    /// its write cursor never passes an unread entry, and the sentinel
    /// stops the epoch cursor without an end test.
    fn merge_with(&mut self, mut fold: impl FnMut(NodeKey, NodeKey, u64)) {
        let lam = self.lambda_fp;
        self.coalesce();
        let fresh = &self.fresh;
        let ledger = &mut self.smoothed;
        let old_len = ledger.len();
        let mut j = fresh.len() - 1;
        ledger.resize(old_len + j, (0, 0));
        let mut w = ledger.len();
        let mut total = 0u64;
        let mut put = |ledger: &mut [(u64, u64)], w: &mut usize, p: u64, fp: u64| {
            *w -= 1;
            ledger[*w] = (p, fp);
            total = total
                .checked_add(fp)
                .unwrap_or_else(|| panic!("total demand overflows the fixed-point ledger"));
            let (u, v) = unpack(p);
            fold(u, v, fp);
        };
        for i in (self.start..old_len).rev() {
            let (p, fp) = ledger[i];
            while fresh[j].0 > p {
                put(ledger, &mut w, fresh[j].0, fresh[j].1);
                j -= 1;
            }
            let mut fp = ((fp as u128 * lam as u128) >> FRAC) as u64;
            if fresh[j].0 == p {
                fp = add_fp(fp, fresh[j].1, p);
                j -= 1;
            }
            if fp > 0 {
                put(ledger, &mut w, p, fp);
            }
        }
        for &(q, c) in fresh[1..=j].iter().rev() {
            put(ledger, &mut w, q, c);
        }
        if w > (ledger.len() - w) / 8 {
            ledger.drain(..w);
            w = 0;
        }
        self.start = w;
        self.total_fp = total;
        self.fresh.truncate(1);
        self.coalesced = 1;
    }

    /// Forgets everything: smoothed ledger and current epoch (capacity
    /// retained).
    pub fn clear(&mut self) {
        self.smoothed.clear();
        self.start = 0;
        self.total_fp = 0;
        self.fresh.truncate(1);
        self.coalesced = 1;
    }

    /// All smoothed `(u, v, count)` entries with nonzero rounded count, in
    /// canonical row-major order (the ledger's own order: no sort).
    pub fn pairs_sorted(&self) -> Vec<(NodeKey, NodeKey, u64)> {
        self.pairs().collect()
    }

    /// [`EwmaLedger::pairs_sorted`] without the copy: the same entries,
    /// in the same order, read straight from the ledger.
    pub fn pairs(&self) -> impl Iterator<Item = (NodeKey, NodeKey, u64)> + '_ {
        self.live().iter().filter_map(|&(p, fp)| {
            let c = round_fp(fp);
            (c > 0).then(|| {
                let (u, v) = unpack(p);
                (u, v, c)
            })
        })
    }
}

/// The lazy nets' ledger: an [`EwmaLedger`] plus the dense per-key weight
/// prefix, planned baselines and dirty prefix behind the planner's
/// [`DemandView`].
///
/// Dereferences to the wrapped [`EwmaLedger`] for every read-only query;
/// the mutating calls go through this type so the per-key arrays stay in
/// step with the pairs.
#[derive(Debug, Clone)]
pub struct DecayingDemand {
    ledger: EwmaLedger,
    /// `weight_pre[i]` = rounded smoothed weight of keys `1..=i`, where
    /// every ledger entry credits both endpoints and each key's exact
    /// fixed-point sum is rounded once. The merge pass folds those sums
    /// into this array, then prefix-sums it in place.
    weight_pre: Vec<u64>,
    /// Rounded per-key weight the last plan consumed, indexed by key
    /// (0 = absent, planned at weight 0). Baselines update only for the
    /// key ranges a plan actually patched, so drift in untouched regions
    /// keeps accumulating until a patch covers it.
    planned: Vec<u64>,
    /// `dirty_pre[i]` = drifted-delta mass of keys `1..=i`; filled by
    /// [`DecayingDemand::view`].
    dirty_pre: Vec<u64>,
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
            weight_pre: vec![0; n + 1],
            planned: vec![0; n + 1],
            dirty_pre: vec![0; n + 1],
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

    /// [`EwmaLedger::epoch_pairs`]: the current epoch, coalesced.
    pub fn epoch_pairs(&mut self) -> impl ExactSizeIterator<Item = (NodeKey, NodeKey, u64)> + '_ {
        self.ledger.epoch_pairs()
    }

    /// [`EwmaLedger::decay_merge`], refolding the per-key weights in the
    /// same pass and prefix-summing their rounded values after it.
    pub fn decay_merge(&mut self) {
        let fold = &mut self.weight_pre;
        fold.fill(0);
        self.ledger.merge_with(|u, v, fp| {
            fold[u as usize] += fp;
            fold[v as usize] += fp;
        });
        let mut weight = 0u64;
        for x in fold.iter_mut() {
            weight += round_fp(*x);
            *x = weight;
        }
    }

    /// Forgets everything: smoothed ledger, current epoch, key weights
    /// and planned baselines (capacity retained). The dirty prefix is
    /// rewritten by the next [`DecayingDemand::view`].
    pub fn clear(&mut self) {
        self.ledger.clear();
        // Plain loops, not `fill`: kst-analyze resolves calls by name, and
        // the hot-path graph reaches this `clear` through other `clear`s.
        for w in &mut self.weight_pre {
            *w = 0;
        }
        for w in &mut self.planned {
            *w = 0;
        }
    }

    /// Rounded smoothed per-key weights (each pair credits both
    /// endpoints), sorted by key, zero-weight keys omitted. The
    /// fixed-point sums are rounded once per key, so with `half_life = 0`
    /// these are exactly the last epoch's per-key request counts.
    pub fn key_weights(&self) -> Vec<(NodeKey, u64)> {
        nonzero_steps(&self.weight_pre)
    }

    /// Builds the planner-facing view of the smoothed ledger. One pass
    /// over the keys fills the retained dirty prefix: the mass of per-key
    /// change since each key's last planned baseline. It allocates
    /// nothing. Call after [`DecayingDemand::decay_merge`].
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
    pub fn view(&mut self) -> DemandView<'_> {
        let (mut before, mut dirty) = (0u64, 0u64);
        let keys = self.weight_pre[1..].iter().zip(&self.planned[1..]);
        for ((&pre, &base), d_pre) in keys.zip(&mut self.dirty_pre[1..]) {
            let w = pre - before;
            before = pre;
            // A key decayed to zero passes with delta = base: a vanished
            // key is as drifted as a doubled one. Drift implies w ≠ base.
            let drifted = ((w >= 2 * base) | (2 * w <= base)) & (w.max(base) > 2);
            dirty += u64::from(drifted) * w.abs_diff(base);
            *d_pre = dirty;
        }
        DemandView {
            weight_pre: &self.weight_pre,
            dirty: DirtyIndex {
                pre: &self.dirty_pre,
            },
            ledger: &self.ledger,
        }
    }

    /// Records the current rounded key weights inside the given key
    /// ranges as the new planned baseline — the ranges a rebuild plan
    /// actually patched. Keys outside every range keep their old
    /// baseline, so their drift keeps counting as dirty.
    pub fn mark_planned(&mut self, ranges: &[(NodeKey, NodeKey)]) {
        for &(lo, hi) in ranges {
            let (lo, hi) = ((lo as usize).max(1), (hi as usize).min(self.n()));
            if lo > hi {
                continue;
            }
            let weights = self.weight_pre[lo - 1..=hi].windows(2);
            for (b, pre) in self.planned[lo..=hi].iter_mut().zip(weights) {
                *b = pre[1] - pre[0];
            }
        }
    }
}

/// Mass of keys `[a, b]` from a prefix array with `pre[i]` = mass of
/// keys `1..=i` — the one copy of the boundary logic behind
/// [`DirtyIndex::range_mass`] and [`DemandView::weight_mass`]. The range
/// is clipped to `1..=n`, and an inverted or empty range is 0, never an
/// underflow.
fn prefix_mass(pre: &[u64], a: NodeKey, b: NodeKey) -> u64 {
    let lo = (a as usize).max(1);
    let hi = (b as usize).min(pre.len() - 1);
    if lo > hi {
        return 0;
    }
    pre[hi] - pre[lo - 1]
}

/// The demand snapshot a rebuild planner consumes: node count, rounded
/// per-key weights as a dense prefix array, canonical-order pair counts,
/// and the dirty index of demand change since the last plan. Every range
/// query is one subtraction.
///
/// Constructed by [`DecayingDemand::view`] (smoothed, dirty vs planned
/// baselines); it borrows the ledger's retained arrays.
pub struct DemandView<'a> {
    /// `weight_pre[i]` = rounded weight of keys `1..=i`.
    weight_pre: &'a [u64],
    dirty: DirtyIndex<'a>,
    ledger: &'a EwmaLedger,
}

impl<'a> DemandView<'a> {
    /// Number of nodes in the keyspace.
    pub fn n(&self) -> usize {
        self.weight_pre.len() - 1
    }

    /// Rounded per-key weights sorted by key (zero-weight keys omitted),
    /// materialized on demand from the prefix array — the sparse form
    /// tests and sparse consumers read.
    pub fn key_weights(&self) -> Vec<(NodeKey, u64)> {
        nonzero_steps(self.weight_pre)
    }

    /// The dense weight prefix over keys `0..=n`: entry `i` is the
    /// rounded weight of keys `1..=i`. The slice over `[a − 1, b]` is the
    /// prefix `ShapeTree::weight_balanced_from_prefix` takes for the
    /// fragment on keys `[a, b]`.
    pub fn weight_prefix(&self) -> &'a [u64] {
        self.weight_pre
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
    /// planned baseline, with O(1) range-mass queries.
    pub fn dirty(&self) -> &DirtyIndex<'a> {
        &self.dirty
    }

    /// Total demand weight of keys in `[a, b]` (one subtraction) — the
    /// denominator a planner compares dirty mass against to decide
    /// whether a range's demand profile has fundamentally changed.
    pub fn weight_mass(&self, a: NodeKey, b: NodeKey) -> u64 {
        prefix_mass(self.weight_pre, a, b)
    }
}

/// The `(key, mass)` of every key whose prefix step is nonzero.
fn nonzero_steps(pre: &[u64]) -> Vec<(NodeKey, u64)> {
    pre.windows(2)
        .enumerate()
        .filter(|(_, w)| w[1] > w[0])
        .map(|(i, w)| ((i + 1) as NodeKey, w[1] - w[0]))
        .collect()
}

/// Prefix-summed per-key change mass, borrowed from the ledger: lets a
/// planner ask "how much did demand change inside key range `[a, b]`
/// since the last rebuild" in one subtraction.
#[derive(Debug, Clone, Copy)]
pub struct DirtyIndex<'a> {
    /// `pre[i]` = change mass of keys `1..=i`.
    pre: &'a [u64],
}

impl DirtyIndex<'_> {
    /// Total change mass across all keys.
    pub fn total(&self) -> u64 {
        self.pre[self.pre.len() - 1]
    }

    /// Change mass of keys in `[a, b]`, clipped to `1..=n` (0 for an
    /// inverted/empty range — never an underflow).
    pub fn range_mass(&self, a: NodeKey, b: NodeKey) -> u64 {
        prefix_mass(self.pre, a, b)
    }

    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.pre[self.pre.len() - 1] == 0
    }

    /// The `(key, change)` entries with nonzero change, sorted by key,
    /// materialized from the prefix.
    pub fn entries(&self) -> Vec<(NodeKey, u64)> {
        nonzero_steps(self.pre)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_memory_half_life_reproduces_the_epoch_exactly() {
        let mut d = DecayingDemand::new(50, 0);
        for &(u, v, w) in &[(2u32, 1u32, 4u64), (1, 2, 3), (7, 40, 1), (2, 1, 5)] {
            d.record_many(u, v, w);
        }
        let epoch = vec![(1, 2, 3), (2, 1, 9), (7, 40, 1)];
        assert_eq!(d.epoch_total(), 13);
        assert_eq!(d.epoch_pairs().collect::<Vec<_>>(), epoch);
        d.decay_merge();
        assert_eq!(d.pairs_sorted(), epoch);
        assert_eq!(d.key_weights(), vec![(1, 12), (2, 12), (7, 1), (40, 1)]);
        assert_eq!(d.total(), 13);
        assert_eq!(d.epoch_total(), 0, "merge must clear the epoch");
        assert_eq!(d.epoch_pairs().len(), 0);
        // A second merge with an empty epoch wipes everything (λ = 0).
        d.decay_merge();
        assert_eq!(d.total(), 0);
        assert_eq!(d.distinct_pairs(), 0);
        assert!(d.is_empty());
    }

    #[test]
    fn epoch_buffer_stays_bounded_by_distinct_pairs() {
        // Hot repeats coalesce in place: 30 000 records of 3 pairs never
        // grow the buffer past a few entries per pair, and the counts sum.
        let mut d = EwmaLedger::new(10, 0);
        for i in 0..30_000u32 {
            d.record(1 + i % 3, 9);
        }
        d.record_many(1, 9, 0);
        assert!(d.fresh.capacity() <= 16, "{} entries", d.fresh.capacity());
        assert_eq!(d.epoch_total(), 30_000);
        let epoch: Vec<_> = d.epoch_pairs().collect();
        assert_eq!(epoch, vec![(1, 9, 10_000), (2, 9, 10_000), (3, 9, 10_000)]);
        d.decay_merge();
        assert_eq!(d.pairs_sorted(), epoch);
        assert_eq!(d.total(), 30_000);
    }

    #[test]
    fn record_takes_the_largest_weight_the_fixed_point_holds() {
        let cap = u64::MAX >> FRAC;
        let mut d = DecayingDemand::new(4, 0);
        d.record_many(1, 4, cap);
        assert_eq!(d.epoch_total(), cap);
        d.decay_merge();
        assert_eq!(d.get(1, 4), cap);
        assert_eq!(d.key_weights(), vec![(1, cap), (4, cap)]);
    }

    #[test]
    #[should_panic(expected = "demand weight 281474976710656 exceeds the fixed-point cap")]
    fn record_rejects_a_weight_past_the_fixed_point_cap() {
        EwmaLedger::new(4, 0).record_many(1, 2, (u64::MAX >> FRAC) + 1);
    }

    #[test]
    #[should_panic(expected = "demand for pair (1,2) overflows the fixed-point ledger")]
    fn coalesce_rejects_a_pair_sum_past_the_fixed_point_cap() {
        let cap = u64::MAX >> FRAC;
        let mut l = EwmaLedger::new(4, 0);
        l.record_many(1, 2, cap);
        l.record_many(1, 2, cap);
        l.decay_merge();
    }

    #[test]
    #[should_panic(expected = "demand for pair (1,2) overflows the fixed-point ledger")]
    fn merge_rejects_a_pair_sum_past_the_fixed_point_cap() {
        let cap = u64::MAX >> FRAC;
        let mut l = EwmaLedger::new(4, 1);
        l.record_many(1, 2, cap);
        l.decay_merge();
        l.record_many(1, 2, cap);
        l.decay_merge();
    }

    #[test]
    #[should_panic(expected = "total demand overflows the fixed-point ledger")]
    fn merge_rejects_a_total_past_the_fixed_point_cap() {
        let cap = u64::MAX >> FRAC;
        let mut l = EwmaLedger::new(4, 0);
        l.record_many(1, 2, cap);
        l.record_many(3, 4, cap);
        l.decay_merge();
    }

    #[test]
    #[should_panic(expected = "demand key 0 out of 1..=10")]
    fn record_rejects_key_zero() {
        EwmaLedger::new(10, 0).record(0, 3);
    }

    #[test]
    #[should_panic(expected = "demand key 11 out of 1..=10")]
    fn record_rejects_a_key_past_n() {
        DecayingDemand::new(10, 4).record_many(4, 11, 2);
    }

    #[test]
    #[should_panic(expected = "self-demand (7,7)")]
    fn record_rejects_a_self_pair() {
        EwmaLedger::new(10, 0).record(7, 7);
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
        // Changes (2, 5), (7, 1), (8, 4), (40, 10) over keys 1..=50.
        let mut pre = vec![0u64; 51];
        for (key, w) in [(2usize, 5u64), (7, 1), (8, 4), (40, 10)] {
            pre[key] = w;
        }
        for i in 1..pre.len() {
            pre[i] += pre[i - 1];
        }
        let idx = DirtyIndex { pre: &pre };
        assert_eq!(idx.total(), 20);
        assert_eq!(idx.entries(), vec![(2, 5), (7, 1), (8, 4), (40, 10)]);
        assert_eq!(idx.range_mass(1, 100), 20, "b past n is clipped");
        assert_eq!(idx.range_mass(0, 2), 5, "key 0 is clipped");
        assert_eq!(idx.range_mass(3, 6), 0);
        assert_eq!(idx.range_mass(7, 8), 5);
        assert_eq!(idx.range_mass(8, 40), 14);
        assert_eq!(idx.range_mass(40, 8), 0, "inverted range");
        assert_eq!(idx.range_mass(60, 70), 0, "range past n");
    }

    #[test]
    fn view_weights_are_the_key_weights_in_prefix_form() {
        let mut d = DecayingDemand::new(100, 0);
        d.record_many(10, 20, 1);
        d.record_many(30, 40, 2);
        d.decay_merge();
        let want = d.key_weights();
        let v = d.view();
        assert_eq!(v.n(), 100);
        assert_eq!(v.key_weights(), want);
        assert_eq!(v.weight_prefix().len(), 101);
        assert_eq!(v.weight_mass(15, 35), 3);
        assert_eq!(v.weight_mass(41, 100), 0);
        assert_eq!(v.weight_mass(1, 1_000), 6);
    }

    #[test]
    fn coalescing_in_runs_equals_one_sort_of_every_record() {
        // `epoch_pairs` coalesces mid-epoch, so later records meet a
        // coalesced prefix: runs with many repeats are joined in the room
        // their duplicates free, runs of new pairs past the buffer's end.
        let mut d = EwmaLedger::new(64, 0);
        let mut want = std::collections::BTreeMap::new();
        for round in 0..24u32 {
            let repeats = round % 2 == 0;
            for i in 0..60u32 {
                let (u, v) = if repeats {
                    (1 + (round + i % 4) % 63, 64 - i % 3)
                } else {
                    (1 + (round * 61 + i) % 63, 64)
                };
                d.record_many(u, v, 1 + u64::from(i % 3));
                *want.entry((u, v)).or_insert(0u64) += 1 + u64::from(i % 3);
            }
            let got: Vec<_> = d.epoch_pairs().collect();
            let expect: Vec<_> = want.iter().map(|(&(u, v), &w)| (u, v, w)).collect();
            assert_eq!(got, expect, "round {round}");
        }
        d.decay_merge();
        let expect: Vec<_> = want.iter().map(|(&(u, v), &w)| (u, v, w)).collect();
        assert_eq!(d.pairs_sorted(), expect);
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
        let held = d.smoothed.capacity() + d.fresh.capacity();
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
        assert!(d.live().windows(2).all(|e| e[0].0 < e[1].0));
        let sum: u64 = d.live().iter().map(|e| e.1).sum();
        assert_eq!(d.total_fp(), sum);
        // Each pair credits both endpoints, and each key rounds once.
        let mut fold = vec![0u64; 41];
        for &(p, fp) in d.live() {
            let (u, v) = unpack(p);
            fold[u as usize] += fp;
            fold[v as usize] += fp;
        }
        let want: Vec<(NodeKey, u64)> = (1..=40)
            .map(|key| (key as NodeKey, round_fp(fold[key])))
            .filter(|&(_, w)| w > 0)
            .collect();
        assert_eq!(d.key_weights(), want);
    }
}
