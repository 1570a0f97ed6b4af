//! Differential guard for the decaying demand ledger.
//!
//! The production [`DecayingDemand`] records each epoch as a buffer of
//! `(pair, count)` entries that it sorts and coalesces in place whenever
//! the buffer fills, keeps its smoothed pairs in a sorted `Vec`
//! merge-joined with that run, folds per-key weights into a dense array
//! during the merge, and holds the planned baselines densely. The
//! reference below is the earlier `HashMap` ledger, copied here as it
//! was: a hashed epoch, hashed smoothed pairs decayed with `retain`, a
//! per-call hashed key fold plus sort, and hashed baselines. Random
//! sequences of `record_many`, `decay_merge`, `mark_planned` and `clear`
//! run against both, over half-lives {0, 1, 4, 8, `u32::MAX`} and
//! keyspaces whose end keys 1 and n see traffic. After every step every
//! observable must be equal: the epoch's total and pairs, the smoothed
//! pairs, the key weights, the view's weights, dirty entries, pairs and
//! total, the fixed-point total, the pair count and `get_fp`. A second
//! family of sequences records many times more entries than distinct
//! pairs — bursts of hot repeats, zero weights, and weights near the
//! fixed-point cap — so the in-place coalesce runs several times inside
//! each epoch.
//! The view's O(1) prefix queries, `weight_mass(a, b)` and
//! `dirty().range_mass(a, b)`, must equal brute-force sums over the
//! reference's weights and dirty entries on random, inverted,
//! single-key and past-n ranges.

use ksan::prelude::*;
use ksan::workloads::decay::FRAC;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const HALF_LIVES: [u32; 5] = [0, 1, 4, 8, u32::MAX];

/// The earlier decay multiplier, kept verbatim.
fn lambda_fp(half_life: u32) -> u64 {
    if half_life == 0 {
        return 0;
    }
    let lambda = 0.5f64.powf(1.0 / half_life as f64);
    ((lambda * (1u64 << FRAC) as f64).round() as u64).min((1u64 << FRAC) - 1)
}

fn round_fp(v: u64) -> u64 {
    (v + (1 << (FRAC - 1))) >> FRAC
}

fn pack(u: u32, v: u32) -> u64 {
    ((u as u64) << 32) | v as u64
}

fn unpack(p: u64) -> (u32, u32) {
    ((p >> 32) as u32, p as u32)
}

/// The hashed ledger the dense one replaced.
struct Reference {
    lambda_fp: u64,
    epoch: HashMap<u64, u64>,
    smoothed: HashMap<u64, u64>,
    total_fp: u64,
    planned: HashMap<u32, u64>,
}

impl Reference {
    fn new(half_life: u32) -> Reference {
        Reference {
            lambda_fp: lambda_fp(half_life),
            epoch: HashMap::new(),
            smoothed: HashMap::new(),
            total_fp: 0,
            planned: HashMap::new(),
        }
    }

    fn record_many(&mut self, u: u32, v: u32, w: u64) {
        if w > 0 {
            *self.epoch.entry(pack(u, v)).or_insert(0) += w;
        }
    }

    fn decay_merge(&mut self) {
        let lam = self.lambda_fp;
        let mut total = 0u64;
        if lam == 0 {
            self.smoothed.clear();
        } else {
            self.smoothed.retain(|_, v| {
                *v = ((*v as u128 * lam as u128) >> FRAC) as u64;
                total += *v;
                *v > 0
            });
        }
        for (&p, &c) in &self.epoch {
            let fp = c << FRAC;
            *self.smoothed.entry(p).or_insert(0) += fp;
            total += fp;
        }
        self.total_fp = total;
        self.epoch.clear();
    }

    fn clear(&mut self) {
        self.smoothed.clear();
        self.total_fp = 0;
        self.epoch.clear();
        self.planned.clear();
    }

    fn epoch_total(&self) -> u64 {
        self.epoch.values().sum()
    }

    fn epoch_pairs(&self) -> Vec<(u32, u32, u64)> {
        let mut pairs: Vec<(u32, u32, u64)> = self
            .epoch
            .iter()
            .map(|(&p, &c)| {
                let (u, v) = unpack(p);
                (u, v, c)
            })
            .collect();
        pairs.sort_unstable_by_key(|&(u, v, _)| (u, v));
        pairs
    }

    fn get_fp(&self, u: u32, v: u32) -> u64 {
        self.smoothed.get(&pack(u, v)).copied().unwrap_or(0)
    }

    fn pairs_sorted(&self) -> Vec<(u32, u32, u64)> {
        let mut pairs: Vec<(u32, u32, u64)> = self
            .smoothed
            .iter()
            .filter_map(|(&p, &fp)| {
                let c = round_fp(fp);
                (c > 0).then(|| {
                    let (u, v) = unpack(p);
                    (u, v, c)
                })
            })
            .collect();
        pairs.sort_unstable_by_key(|&(u, v, _)| (u, v));
        pairs
    }

    fn key_weights(&self) -> Vec<(u32, u64)> {
        let mut w: HashMap<u32, u64> = HashMap::new();
        for (&p, &fp) in &self.smoothed {
            let (u, v) = unpack(p);
            *w.entry(u).or_insert(0) += fp;
            *w.entry(v).or_insert(0) += fp;
        }
        let mut out: Vec<(u32, u64)> = w
            .into_iter()
            .filter_map(|(key, fp)| {
                let c = round_fp(fp);
                (c > 0).then_some((key, c))
            })
            .collect();
        out.sort_unstable_by_key(|&(key, _)| key);
        out
    }

    fn dirty(&self) -> Vec<(u32, u64)> {
        let kw = self.key_weights();
        let mut dirty = Vec::new();
        for &(key, w) in &kw {
            let base = self.planned.get(&key).copied().unwrap_or(0);
            let delta = w.abs_diff(base);
            if delta > 0 && (w >= 2 * base || 2 * w <= base) && w.max(base) > 2 {
                dirty.push((key, delta));
            }
        }
        for (&key, &base) in &self.planned {
            if base > 2 && kw.binary_search_by_key(&key, |e| e.0).is_err() {
                dirty.push((key, base));
            }
        }
        dirty.sort_unstable_by_key(|&(key, _)| key);
        dirty
    }

    fn mark_planned(&mut self, ranges: &[(u32, u32)]) {
        if ranges.is_empty() {
            return;
        }
        let key_weights = self.key_weights();
        let in_ranges = |key: u32| {
            let i = ranges.partition_point(|&(_, hi)| hi < key);
            i < ranges.len() && ranges[i].0 <= key
        };
        self.planned.retain(|&key, _| !in_ranges(key));
        for &(key, w) in &key_weights {
            if in_ranges(key) {
                self.planned.insert(key, w);
            }
        }
    }
}

/// Sorted, disjoint key ranges inside `1..=n`, sometimes touching 1 or n.
fn random_ranges(rng: &mut StdRng, n: u32) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut lo = if rng.gen_bool(0.3) {
        1
    } else {
        rng.gen_range(1..=n)
    };
    while lo <= n && ranges.len() < 4 {
        let hi = if rng.gen_bool(0.2) {
            n
        } else {
            rng.gen_range(lo..=n)
        };
        ranges.push((lo, hi));
        if hi == n {
            break;
        }
        lo = rng.gen_range(hi + 1..=n);
    }
    ranges
}

/// Range queries for the view's prefix masses: random, inverted,
/// single-key, whole-keyspace, and ranges reaching past n (or starting at
/// key 0), which the view clips to `1..=n`.
fn query_ranges(rng: &mut StdRng, n: u32) -> Vec<(u32, u32)> {
    let mut ranges = vec![(1, n), (0, n), (1, n + 7), (n, n), (1, 1), (n + 1, n + 9)];
    for _ in 0..6 {
        let (a, b) = (rng.gen_range(1..=n), rng.gen_range(1..=n));
        ranges.push((a.min(b), a.max(b)));
        if a != b {
            ranges.push((a.max(b), a.min(b)));
        }
        ranges.push((a, a));
        ranges.push((a, n + rng.gen_range(1..=5u32)));
    }
    ranges
}

/// A request pair biased toward the end keys 1 and n.
fn random_pair(rng: &mut StdRng, n: u32) -> (u32, u32) {
    let key = |rng: &mut StdRng| match rng.gen_range(0..6u32) {
        0 => 1,
        1 => n,
        _ => rng.gen_range(1..=n),
    };
    loop {
        let (u, v) = (key(rng), key(rng));
        if u != v {
            return (u, v);
        }
    }
}

fn assert_agree(d: &mut DecayingDemand, r: &Reference, n: u32, ranges: &[(u32, u32)], ctx: &str) {
    assert_eq!(d.epoch_total(), r.epoch_total(), "{ctx}: epoch_total");
    let epoch: Vec<(u32, u32, u64)> = d.epoch_pairs().collect();
    assert_eq!(epoch, r.epoch_pairs(), "{ctx}: epoch_pairs");
    let pairs = r.pairs_sorted();
    let weights = r.key_weights();
    assert_eq!(d.pairs_sorted(), pairs, "{ctx}: pairs_sorted");
    assert_eq!(d.key_weights(), weights, "{ctx}: key_weights");
    assert_eq!(d.total_fp(), r.total_fp, "{ctx}: total_fp");
    assert_eq!(
        d.distinct_pairs(),
        r.smoothed.len(),
        "{ctx}: distinct_pairs"
    );
    let view = d.view();
    let dirty = r.dirty();
    assert_eq!(view.key_weights(), weights, "{ctx}: view key_weights");
    assert_eq!(view.dirty().entries(), dirty, "{ctx}: dirty");
    assert_eq!(view.pairs_sorted(), pairs, "{ctx}: view pairs_sorted");
    assert_eq!(view.total(), round_fp(r.total_fp), "{ctx}: view total");
    let brute = |entries: &[(u32, u64)], a: u32, b: u32| -> u64 {
        entries
            .iter()
            .filter(|&&(key, _)| a <= key && key <= b)
            .map(|&(_, w)| w)
            .sum()
    };
    let dirty_total: u64 = dirty.iter().map(|&(_, w)| w).sum();
    assert_eq!(view.dirty().total(), dirty_total, "{ctx}: dirty total");
    assert_eq!(view.dirty().is_empty(), dirty.is_empty(), "{ctx}: is_empty");
    for &(a, b) in ranges {
        assert_eq!(
            view.weight_mass(a, b),
            brute(&weights, a, b),
            "{ctx}: weight_mass({a}, {b})"
        );
        assert_eq!(
            view.dirty().range_mass(a, b),
            brute(&dirty, a, b),
            "{ctx}: range_mass({a}, {b})"
        );
    }
    for &p in r.smoothed.keys() {
        let (u, v) = unpack(p);
        assert_eq!(d.get_fp(u, v), r.get_fp(u, v), "{ctx}: get_fp({u}, {v})");
    }
    for (u, v) in [(1, n), (n, 1), (1, 2), (n - 1, n)] {
        assert_eq!(d.get_fp(u, v), r.get_fp(u, v), "{ctx}: get_fp({u}, {v})");
    }
}

#[test]
fn dense_ledger_matches_the_hashed_reference_step_for_step() {
    for half_life in HALF_LIVES {
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64((half_life as u64) << 8 | seed);
            let mut queries = StdRng::seed_from_u64(!((half_life as u64) << 8 | seed));
            let n = rng.gen_range(2..=48u32);
            let mut d = DecayingDemand::new(n as usize, half_life);
            let mut r = Reference::new(half_life);
            for step in 0..300 {
                let ctx = format!("H={half_life} seed={seed} n={n} step={step}");
                match rng.gen_range(0..100u32) {
                    0..=59 => {
                        let (u, v) = random_pair(&mut rng, n);
                        let w = if rng.gen_bool(0.1) {
                            rng.gen_range(100..=5000u64)
                        } else {
                            rng.gen_range(0..=12u64)
                        };
                        d.record_many(u, v, w);
                        r.record_many(u, v, w);
                    }
                    60..=84 => {
                        d.decay_merge();
                        r.decay_merge();
                    }
                    85..=97 => {
                        let ranges = random_ranges(&mut rng, n);
                        d.mark_planned(&ranges);
                        r.mark_planned(&ranges);
                    }
                    _ => {
                        d.clear();
                        r.clear();
                    }
                }
                let ranges = query_ranges(&mut queries, n);
                assert_agree(&mut d, &r, n, &ranges, &ctx);
            }
        }
    }
}

/// Largest weight `record_many` accepts.
const CAP: u64 = u64::MAX >> FRAC;

#[test]
fn epoch_heavy_sequences_match_the_hashed_reference() {
    for half_life in HALF_LIVES {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(0xe90c << 16 | (half_life as u64) << 8 | seed);
            let mut queries = StdRng::seed_from_u64(!(0xe90c << 16 | seed));
            let n = rng.gen_range(3..=40u32);
            let hot: Vec<(u32, u32)> = (0..rng.gen_range(1..=4))
                .map(|_| random_pair(&mut rng, n))
                .collect();
            let mut d = DecayingDemand::new(n as usize, half_life);
            let mut r = Reference::new(half_life);
            // With no memory each epoch starts the fixed point afresh, so
            // one near-cap weight per epoch fits; the small weights around
            // it sum to far less than the headroom left below the cap.
            let mut big_this_epoch = false;
            for step in 0..150 {
                let ctx = format!("heavy H={half_life} seed={seed} n={n} step={step}");
                match rng.gen_range(0..100u32) {
                    0..=49 => {
                        for _ in 0..rng.gen_range(20..=400u32) {
                            let (u, v) = hot[rng.gen_range(0..hot.len())];
                            let w = rng.gen_range(0..=3u64);
                            d.record_many(u, v, w);
                            r.record_many(u, v, w);
                        }
                    }
                    50..=64 => {
                        let (u, v) = random_pair(&mut rng, n);
                        let w = rng.gen_range(1..=12u64);
                        d.record_many(u, v, w);
                        r.record_many(u, v, w);
                    }
                    65..=69 => {
                        let (u, v) = random_pair(&mut rng, n);
                        d.record_many(u, v, 0);
                        r.record_many(u, v, 0);
                    }
                    70..=74 if half_life == 0 && !big_this_epoch => {
                        let (u, v) = random_pair(&mut rng, n);
                        let w = CAP - rng.gen_range(1u64 << 24..=1u64 << 26);
                        d.record_many(u, v, w);
                        r.record_many(u, v, w);
                        big_this_epoch = true;
                    }
                    70..=89 => {
                        d.decay_merge();
                        r.decay_merge();
                        big_this_epoch = false;
                    }
                    90..=96 => {
                        let ranges = random_ranges(&mut rng, n);
                        d.mark_planned(&ranges);
                        r.mark_planned(&ranges);
                    }
                    _ => {
                        d.clear();
                        r.clear();
                        big_this_epoch = false;
                    }
                }
                let ranges = query_ranges(&mut queries, n);
                assert_agree(&mut d, &r, n, &ranges, &ctx);
            }
        }
    }
}
