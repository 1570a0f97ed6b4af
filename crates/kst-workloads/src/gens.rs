//! Workload generators (Section 5 "Setup and data").
//!
//! Two of the paper's workload families are exactly specified and
//! reproduced verbatim:
//! * [`uniform`] — each request an independent uniform pair (n = 100 in the
//!   paper);
//! * [`temporal`] — repeat the previous request with probability `p`
//!   (the "temporal complexity parameter" of Avin et al. \[2\]; n = 1023,
//!   p ∈ {0.25, 0.5, 0.75, 0.9}).
//!
//! The three real datacenter trace datasets (DOE HPC mini-apps \[11\],
//! ProjecToR \[14\], Facebook \[21\]) are proprietary / unavailable, so we
//! **simulate** them with seeded generators that reproduce the published,
//! behaviour-relevant characteristics — node counts, request counts, and
//! the temporal/spatial-locality regime the paper itself uses to interpret
//! its results (HPC: highest locality of the three; ProjecToR: sparse,
//! skewed, medium-low locality; Facebook: large n, heavy-tailed,
//! medium-low locality). See DESIGN.md §3 for the substitution rationale
//! and `stats` for the measured locality of each simulated trace.

use crate::trace::{NodeKey, Trace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform workload: i.i.d. uniform ordered pairs `u != v`.
pub fn uniform(n: usize, m: usize, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reqs = Vec::with_capacity(m);
    for _ in 0..m {
        reqs.push(random_pair(&mut rng, n));
    }
    Trace::new(n, reqs)
}

/// Synthetic trace with temporal complexity parameter `p`: with probability
/// `p` repeat the previous request, otherwise draw a fresh uniform pair.
pub fn temporal(n: usize, m: usize, p: f64, seed: u64) -> Trace {
    assert!((0.0..1.0).contains(&p) || p == 0.0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reqs: Vec<(NodeKey, NodeKey)> = Vec::with_capacity(m);
    for i in 0..m {
        if i > 0 && rng.gen::<f64>() < p {
            reqs.push(reqs[i - 1]);
        } else {
            reqs.push(random_pair(&mut rng, n));
        }
    }
    Trace::new(n, reqs)
}

/// Zipf-skewed traffic: endpoints drawn from independent Zipf(α) marginals
/// over independently permuted node ranks.
pub fn zipf(n: usize, m: usize, alpha: f64, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = ZipfSampler::new(n, alpha);
    let perm_src = random_permutation(&mut rng, n);
    let perm_dst = random_permutation(&mut rng, n);
    let mut reqs = Vec::with_capacity(m);
    while reqs.len() < m {
        let u = (perm_src[zipf.sample(&mut rng)] + 1) as NodeKey;
        let v = (perm_dst[zipf.sample(&mut rng)] + 1) as NodeKey;
        if u != v {
            reqs.push((u, v));
        }
    }
    Trace::new(n, reqs)
}

/// Simulated DOE mini-apps HPC workload (substitute for \[11\]; paper uses
/// n = 500).
///
/// Iterative bulk-synchronous phases on a 3-D rank grid:
/// * **stencil** phases emit halo exchanges with ±x/±y/±z neighbours,
/// * **collective** phases emit binomial-tree all-reduce pairs,
/// * **transpose** phases emit a fixed random permutation's pairs.
///
/// Emission is direction-major (all ranks exchange "simultaneously", as MPI
/// traces look on the wire) with occasional immediate duplicates for split
/// messages. The result is sparse, neighbour-structured traffic whose
/// locality is dominated by *pair recurrence* (the same few pairs every
/// iteration) with moderate temporal repetition — the highest overall
/// locality of the three simulated datasets, matching the paper's
/// characterization of the HPC trace (Section 5.2).
pub fn hpc(n: usize, m: usize, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    // 3-D grid dimensions as close to cubic as possible.
    let dx = (n as f64).cbrt().round().max(1.0) as usize;
    let dy = ((n / dx) as f64).sqrt().round().max(1.0) as usize;
    let dz = (n / (dx * dy)).max(1);
    let grid = |x: usize, y: usize, z: usize| -> usize { x + dx * (y + dy * z) };
    // Forward neighbour per direction (+x, +y, +z), clipped at faces/n.
    let mut neighbours: Vec<[Option<usize>; 3]> = vec![[None; 3]; n];
    for z in 0..dz {
        for y in 0..dy {
            for x in 0..dx {
                let r = grid(x, y, z);
                if r >= n {
                    continue;
                }
                let keep = |s: usize| if s < n && s != r { Some(s) } else { None };
                if x + 1 < dx {
                    neighbours[r][0] = keep(grid(x + 1, y, z));
                }
                if y + 1 < dy {
                    neighbours[r][1] = keep(grid(x, y + 1, z));
                }
                if z + 1 < dz {
                    neighbours[r][2] = keep(grid(x, y, z + 1));
                }
            }
        }
    }
    let transpose = random_permutation(&mut rng, n);
    // Bulk-synchronous emission: within an iteration all ranks exchange
    // "simultaneously", so the trace interleaves ranks (direction-major)
    // rather than bursting per rank — matching how MPI traces look on the
    // wire. Immediate duplicates (large halos split into several messages)
    // occur with moderate probability, so temporal locality is moderate
    // while the *pair* structure recurs every iteration (strong spatial
    // locality) — the regime of the DOE mini-app traces.
    let dup_p = 0.15;
    let mut reqs: Vec<(NodeKey, NodeKey)> = Vec::with_capacity(m);
    let mut phase = 0usize;
    let emit = |reqs: &mut Vec<(NodeKey, NodeKey)>, rng: &mut StdRng, u: usize, v: usize| {
        reqs.push((u as NodeKey + 1, v as NodeKey + 1));
        if reqs.len() < m && rng.gen::<f64>() < dup_p {
            reqs.push((u as NodeKey + 1, v as NodeKey + 1));
        }
    };
    'outer: loop {
        let kind = phase % 4; // stencil, stencil, collective, transpose
        phase += 1;
        match kind {
            0 | 1 => {
                // One stencil iteration, direction-major: +x for all ranks,
                // then +y, then +z.
                for dir in 0..3 {
                    for (r, nb) in neighbours.iter().enumerate() {
                        if let Some(s) = nb[dir] {
                            emit(&mut reqs, &mut rng, r, s);
                            if reqs.len() >= m {
                                break 'outer;
                            }
                        }
                    }
                }
            }
            2 => {
                // Binomial-tree all-reduce: pairs (i, i + 2^s), round-major.
                let mut step = 1usize;
                while step < n {
                    let mut i = 0usize;
                    while i + step < n {
                        emit(&mut reqs, &mut rng, i, i + step);
                        if reqs.len() >= m {
                            break 'outer;
                        }
                        i += step * 2;
                    }
                    step *= 2;
                }
            }
            _ => {
                // Transpose: fixed permutation pairs.
                for (r, &s) in transpose.iter().enumerate() {
                    if s == r {
                        continue;
                    }
                    emit(&mut reqs, &mut rng, r, s);
                    if reqs.len() >= m {
                        break 'outer;
                    }
                }
            }
        }
    }
    reqs.truncate(m);
    Trace::new(n, reqs)
}

/// Simulated ProjecToR-like workload (substitute for \[14\]; paper uses
/// n = 100).
///
/// A sparse skewed demand graph: each node keeps 2–6 partners biased toward
/// a small hot set, edge weights Zipf-distributed; requests sample that
/// graph i.i.d. with a moderate burst-repeat probability. Sparse + skewed
/// with medium-low temporal locality.
pub fn projector(n: usize, m: usize, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let hot = (n / 10).max(2);
    let mut edges: Vec<(NodeKey, NodeKey)> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    for u in 0..n {
        let degree = rng.gen_range(2..=6usize);
        for _ in 0..degree {
            let v = if rng.gen::<f64>() < 0.5 {
                rng.gen_range(0..hot)
            } else {
                rng.gen_range(0..n)
            };
            if v == u {
                continue;
            }
            edges.push((u as NodeKey + 1, v as NodeKey + 1));
            // Zipf-ish weight by current edge count.
            weights.push(1.0 / (edges.len() as f64).powf(0.9));
        }
    }
    let cdf = cumsum(&weights);
    // ksan-allow: panic-surface cumsum of the nonempty weight vector is nonempty
    let total = *cdf.last().unwrap();
    let mut reqs: Vec<(NodeKey, NodeKey)> = Vec::with_capacity(m);
    let repeat_p = 0.08;
    for i in 0..m {
        if i > 0 && rng.gen::<f64>() < repeat_p {
            reqs.push(reqs[i - 1]);
        } else {
            let x = rng.gen::<f64>() * total;
            let e = cdf.partition_point(|&c| c < x).min(edges.len() - 1);
            reqs.push(edges[e]);
        }
    }
    Trace::new(n, reqs)
}

/// Simulated Facebook-datacenter-like workload (substitute for \[21\]; paper
/// uses n = 10⁴).
///
/// Nodes grouped into racks/clusters; source popularity is Zipf(1.05);
/// destinations prefer the source's cluster with probability 0.3 and
/// otherwise follow global popularity; small repeat probability. Large,
/// heavy-tailed, wide fan-out, medium-low temporal locality.
pub fn facebook(n: usize, m: usize, seed: u64) -> Trace {
    let mut rng = StdRng::seed_from_u64(seed);
    let cluster_size = 64.min(n.max(2) / 2).max(2);
    let zipf = ZipfSampler::new(n, 1.05);
    let perm = random_permutation(&mut rng, n);
    let mut reqs: Vec<(NodeKey, NodeKey)> = Vec::with_capacity(m);
    let repeat_p = 0.05;
    while reqs.len() < m {
        if !reqs.is_empty() && rng.gen::<f64>() < repeat_p {
            // ksan-allow: panic-surface guarded by the is_empty check on this branch
            reqs.push(*reqs.last().unwrap());
            continue;
        }
        let u = perm[zipf.sample(&mut rng)];
        let v = if rng.gen::<f64>() < 0.3 {
            // intra-cluster
            let c = u / cluster_size;
            let lo = c * cluster_size;
            let hi = (lo + cluster_size).min(n);
            lo + rng.gen_range(0..hi - lo)
        } else {
            perm[zipf.sample(&mut rng)]
        };
        if u != v {
            reqs.push((u as NodeKey + 1, v as NodeKey + 1));
        }
    }
    Trace::new(n, reqs)
}

/// Shard-friendly hot-pair workload for engine scale tests and benches:
/// the keyspace is split into `shards` contiguous ranges (exactly as the
/// sharded engine partitions it), each range gets one far-apart hot pair
/// `(lo, hi)`, and requests round-robin across the shards' hot pairs with
/// every `cold_every`-th per-shard request replaced by a random cold peer
/// *inside the same range* (`cold_every = 0` disables cold requests).
///
/// All traffic is intra-shard by construction — the embarrassingly
/// parallel regime whose aggregate cost is provably the sum of the
/// per-shard costs; cross-shard routing is exercised separately by the
/// engine's differential tests.
pub fn sharded_hot_pairs(n: usize, m: usize, shards: usize, cold_every: usize, seed: u64) -> Trace {
    let ranges = crate::trace::partition_keyspace(n, shards);
    assert!(
        ranges.iter().all(|r| r.len() >= 3),
        "each shard needs ≥3 keys for a hot pair plus cold peers"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reqs = Vec::with_capacity(m);
    let mut served = vec![0usize; ranges.len()];
    for i in 0..m {
        let s = i % ranges.len();
        let r = ranges[s];
        served[s] += 1;
        if cold_every > 0 && served[s].is_multiple_of(cold_every) {
            // cold peer strictly inside the range, distinct from lo
            let w = rng.gen_range(r.lo + 1..=r.hi);
            reqs.push((r.lo, w));
        } else {
            reqs.push((r.lo, r.hi));
        }
    }
    Trace::new(n, reqs)
}

/// Non-stationary hot-pair workload: the hot-pair set **rotates** every
/// `period` requests through `sets` independently drawn sets of
/// `pairs_per_set` far-apart pairs (cycling back to the first set), and
/// each request picks a pair from the *current* set with probability
/// `p_hot` (direction uniform), otherwise a uniform random pair.
///
/// This is the regime where per-epoch demand ledgers thrash — each rebuild
/// specializes to the phase that just ended — while an EWMA ledger
/// ([`crate::DecayingDemand`]) converges on the union of the rotating
/// sets. Seeded and fully deterministic like every other generator here.
pub fn phase_shift(
    n: usize,
    m: usize,
    period: usize,
    sets: usize,
    pairs_per_set: usize,
    p_hot: f64,
    seed: u64,
) -> Trace {
    assert!(period >= 1 && sets >= 1 && pairs_per_set >= 1);
    assert!(
        n >= 2 * sets * pairs_per_set,
        "keyspace too small for hot sets"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    // Draw the hot sets up front from a shared permutation so sets are
    // disjoint (rotation really does move to *unrelated* pairs).
    let perm = random_permutation(&mut rng, n);
    let mut hot: Vec<Vec<(NodeKey, NodeKey)>> = Vec::with_capacity(sets);
    let mut next = 0usize;
    for _ in 0..sets {
        let mut set = Vec::with_capacity(pairs_per_set);
        for _ in 0..pairs_per_set {
            set.push((perm[next] as NodeKey + 1, perm[next + 1] as NodeKey + 1));
            next += 2;
        }
        hot.push(set);
    }
    let mut reqs: Vec<(NodeKey, NodeKey)> = Vec::with_capacity(m);
    for i in 0..m {
        let set = &hot[(i / period) % sets];
        if rng.gen::<f64>() < p_hot {
            let (u, v) = set[rng.gen_range(0..set.len())];
            if rng.gen::<f64>() < 0.5 {
                reqs.push((u, v));
            } else {
                reqs.push((v, u));
            }
        } else {
            reqs.push(random_pair(&mut rng, n));
        }
    }
    Trace::new(n, reqs)
}

/// Phase-shifting **boundary-straddling** workload: the hot-pair set
/// rotates every `period` requests through the `shards − 1` boundaries of
/// the canonical equal-width partition of `1..=n` into `shards` ranges,
/// and each request picks the current boundary's straddling pair
/// `(hi, hi + 1)` with probability `p_hot` (direction uniform), otherwise
/// a uniform random pair.
///
/// Under a static partition every hot request is **cross-shard by
/// construction** — two gateway half-serves plus the router charge — no
/// matter how well the shard trees self-adjust. A live-resharding engine
/// can shift the hot boundary by a handful of keys and serve the pair
/// locally, which is exactly the regime `results/resharding.md` measures.
/// Seeded and fully deterministic.
pub fn boundary_phase_shift(
    n: usize,
    m: usize,
    shards: usize,
    period: usize,
    p_hot: f64,
    seed: u64,
) -> Trace {
    assert!(shards >= 2, "need at least one shard boundary");
    assert!(period >= 1);
    let ranges = crate::partition_keyspace(n, shards);
    assert!(ranges.len() >= 2, "keyspace too small for {shards} shards");
    let hot: Vec<(NodeKey, NodeKey)> = ranges[..ranges.len() - 1]
        .iter()
        .map(|r| (r.hi, r.hi + 1))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reqs: Vec<(NodeKey, NodeKey)> = Vec::with_capacity(m);
    for i in 0..m {
        let (u, v) = hot[(i / period) % hot.len()];
        if rng.gen::<f64>() < p_hot {
            if rng.gen::<f64>() < 0.5 {
                reqs.push((u, v));
            } else {
                reqs.push((v, u));
            }
        } else {
            reqs.push(random_pair(&mut rng, n));
        }
    }
    Trace::new(n, reqs)
}

/// Non-stationary Zipf workload: endpoints follow Zipf(α) marginals over a
/// rank permutation that **drifts** — every `drift_every` requests,
/// `swaps_per_drift` random transpositions are applied to the permutation,
/// so the identity of the hot keys slowly wanders across the keyspace
/// instead of rotating abruptly (the gradual-churn counterpart of
/// [`phase_shift`]). Seeded and fully deterministic.
pub fn drifting_zipf(
    n: usize,
    m: usize,
    alpha: f64,
    drift_every: usize,
    swaps_per_drift: usize,
    seed: u64,
) -> Trace {
    assert!(drift_every >= 1 && n >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = ZipfSampler::new(n, alpha);
    let mut perm = random_permutation(&mut rng, n);
    let mut reqs: Vec<(NodeKey, NodeKey)> = Vec::with_capacity(m);
    let mut since_drift = 0usize;
    while reqs.len() < m {
        if since_drift >= drift_every {
            since_drift = 0;
            for _ in 0..swaps_per_drift {
                let i = rng.gen_range(0..n);
                let j = rng.gen_range(0..n);
                perm.swap(i, j);
            }
        }
        let u = (perm[zipf.sample(&mut rng)] + 1) as NodeKey;
        let v = (perm[zipf.sample(&mut rng)] + 1) as NodeKey;
        if u != v {
            // Count only emitted requests toward the drift cadence, so
            // rejected u == v draws (frequent under strong skew) cannot
            // make the permutation drift faster than documented.
            reqs.push((u, v));
            since_drift += 1;
        }
    }
    Trace::new(n, reqs)
}

fn random_pair(rng: &mut StdRng, n: usize) -> (NodeKey, NodeKey) {
    loop {
        let u = rng.gen_range(1..=n as NodeKey);
        let v = rng.gen_range(1..=n as NodeKey);
        if u != v {
            return (u, v);
        }
    }
}

fn random_permutation(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        p.swap(i, j);
    }
    p
}

fn cumsum(w: &[f64]) -> Vec<f64> {
    let mut c = Vec::with_capacity(w.len());
    let mut s = 0.0;
    for &x in w {
        s += x;
        c.push(s);
    }
    c
}

/// Zipf(α) sampler over ranks `0..n` via inverse-CDF binary search.
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Precomputes the CDF for `n` ranks with exponent `alpha`.
    pub fn new(n: usize, alpha: f64) -> ZipfSampler {
        let mut w = Vec::with_capacity(n);
        for i in 1..=n {
            w.push(1.0 / (i as f64).powf(alpha));
        }
        ZipfSampler { cdf: cumsum(&w) }
    }

    /// Draws a rank in `0..n` (rank 0 most popular).
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        // ksan-allow: panic-surface the sampler is always constructed over a nonempty key set
        let total = *self.cdf.last().unwrap();
        let x = rng.gen::<f64>() * total;
        self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::stats;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(uniform(50, 1000, 7), uniform(50, 1000, 7));
        assert_eq!(temporal(50, 1000, 0.5, 7), temporal(50, 1000, 0.5, 7));
        assert_eq!(hpc(60, 1000, 7), hpc(60, 1000, 7));
        assert_eq!(projector(50, 1000, 7), projector(50, 1000, 7));
        assert_eq!(facebook(200, 1000, 7), facebook(200, 1000, 7));
        assert_eq!(zipf(50, 1000, 1.2, 7), zipf(50, 1000, 1.2, 7));
        assert_eq!(
            phase_shift(200, 1000, 100, 3, 4, 0.9, 7),
            phase_shift(200, 1000, 100, 3, 4, 0.9, 7)
        );
        assert_eq!(
            drifting_zipf(100, 1000, 1.2, 50, 4, 7),
            drifting_zipf(100, 1000, 1.2, 50, 4, 7)
        );
    }

    #[test]
    fn phase_shift_rotates_its_hot_set() {
        // Within one phase the hot pairs dominate; across a phase boundary
        // the dominating pair set changes.
        let t = phase_shift(400, 4000, 1000, 4, 3, 0.95, 11);
        assert_eq!(t.len(), 4000);
        let canon = |(u, v): (NodeKey, NodeKey)| (u.min(v), u.max(v));
        let top_pairs = |reqs: &[(NodeKey, NodeKey)]| {
            let mut cnt = std::collections::HashMap::new();
            for &p in reqs {
                *cnt.entry(canon(p)).or_insert(0u32) += 1;
            }
            let mut v: Vec<_> = cnt.into_iter().collect();
            v.sort_by_key(|&(p, c)| (std::cmp::Reverse(c), p));
            v.truncate(3);
            v.into_iter().map(|(p, _)| p).collect::<Vec<_>>()
        };
        let phase0 = top_pairs(&t.requests()[..1000]);
        let phase1 = top_pairs(&t.requests()[1000..2000]);
        assert!(
            phase0.iter().all(|p| !phase1.contains(p)),
            "hot sets must rotate"
        );
        // ...and the cycle returns: phase 4 repeats phase 0's set.
        // (only 4 phases fit in 4000 requests, so check set disjointness
        // plus dominance instead)
        let s = stats(&t);
        assert!(s.distinct_pairs < 4000 / 2, "hot pairs must dominate");
    }

    #[test]
    fn drifting_zipf_moves_its_hot_keys() {
        // The most popular source early in the trace loses its dominance
        // late in the trace once the permutation has drifted far enough.
        let t = drifting_zipf(500, 40_000, 1.3, 200, 25, 13);
        assert_eq!(t.len(), 40_000);
        let top_src = |reqs: &[(NodeKey, NodeKey)]| {
            let mut cnt = std::collections::HashMap::new();
            for &(u, _) in reqs {
                *cnt.entry(u).or_insert(0u32) += 1;
            }
            cnt.into_iter().max_by_key(|&(k, c)| (c, k)).unwrap()
        };
        let (early_key, early_cnt) = top_src(&t.requests()[..5000]);
        let late_cnt = t.requests()[35_000..]
            .iter()
            .filter(|&&(u, _)| u == early_key)
            .count() as u32;
        assert!(
            late_cnt < early_cnt / 2,
            "early hot key {early_key} should fade: early {early_cnt}, late {late_cnt}"
        );
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(uniform(50, 1000, 1), uniform(50, 1000, 2));
    }

    #[test]
    fn temporal_repeat_rate_tracks_p() {
        for p in [0.25, 0.5, 0.75, 0.9] {
            let t = temporal(100, 40_000, p, 3);
            let s = stats(&t);
            // fresh draws may also coincide with the previous pair, so the
            // empirical rate is >= p - tolerance
            assert!(
                (s.repeat_rate - p).abs() < 0.02,
                "p={p} measured={}",
                s.repeat_rate
            );
        }
    }

    #[test]
    fn uniform_has_high_entropy_and_no_locality() {
        let t = uniform(100, 50_000, 11);
        let s = stats(&t);
        assert!(s.repeat_rate < 0.01);
        assert!(s.src_entropy > 6.5, "entropy {}", s.src_entropy); // log2(100)≈6.64
    }

    #[test]
    fn hpc_has_highest_locality_of_simulated_traces() {
        // Paper (Section 5.2): the HPC trace has higher locality than the
        // other two real-world traces. Locality here is both temporal
        // (repeat rate) and spatial (pair concentration).
        let h = stats(&hpc(500, 60_000, 5));
        let p = stats(&projector(100, 60_000, 5));
        let f = stats(&facebook(1000, 60_000, 5));
        assert!(
            h.repeat_rate > p.repeat_rate && h.repeat_rate > f.repeat_rate,
            "hpc={} projector={} facebook={}",
            h.repeat_rate,
            p.repeat_rate,
            f.repeat_rate
        );
        assert!(
            h.repeat_rate > 0.1,
            "hpc temporal locality too low: {}",
            h.repeat_rate
        );
        // spatial structure: stencil demand touches very few distinct pairs
        assert!(
            h.distinct_pairs < 5 * 500,
            "hpc demand not sparse: {} pairs",
            h.distinct_pairs
        );
    }

    #[test]
    fn projector_is_sparse() {
        let s = stats(&projector(100, 50_000, 9));
        // sparse demand: far fewer distinct pairs than n^2
        assert!(
            s.distinct_pairs < 100 * 99 / 8,
            "pairs={}",
            s.distinct_pairs
        );
    }

    #[test]
    fn facebook_is_heavy_tailed() {
        let s = stats(&facebook(2000, 50_000, 13));
        // skewed: source entropy well below log2(n)
        assert!(
            s.src_entropy < (2000f64).log2() - 1.0,
            "entropy={}",
            s.src_entropy
        );
    }

    #[test]
    fn zipf_sampler_is_skewed() {
        let z = ZipfSampler::new(1000, 1.2);
        let mut rng = StdRng::seed_from_u64(1);
        let mut c0 = 0usize;
        for _ in 0..10_000 {
            if z.sample(&mut rng) == 0 {
                c0 += 1;
            }
        }
        assert!(c0 > 500, "rank 0 drawn {c0} times of 10000");
    }

    #[test]
    fn sharded_hot_pairs_stays_intra_shard() {
        let t = sharded_hot_pairs(1000, 8000, 4, 16, 3);
        assert_eq!(t.len(), 8000);
        let ranges = crate::trace::partition_keyspace(1000, 4);
        let counts: Vec<usize> = ranges
            .iter()
            .map(|r| {
                t.requests()
                    .iter()
                    .filter(|&&(u, v)| r.contains(u) && r.contains(v))
                    .count()
            })
            .collect();
        // every request is intra-shard, and traffic is evenly spread
        assert_eq!(counts.iter().sum::<usize>(), 8000);
        for &c in &counts {
            assert_eq!(c, 2000);
        }
        // determinism
        assert_eq!(t, sharded_hot_pairs(1000, 8000, 4, 16, 3));
        // hot pair dominates: the range endpoints pair appears often
        let r = ranges[0];
        let hot = t.requests().iter().filter(|&&p| p == (r.lo, r.hi)).count();
        assert!(hot > 1800, "hot pair served {hot} of 2000");
    }

    #[test]
    fn requested_sizes_are_respected() {
        for (n, m) in [(100usize, 12_345usize), (37, 1), (1023, 5000)] {
            assert_eq!(uniform(n, m, 1).len(), m);
            assert_eq!(temporal(n, m, 0.5, 1).len(), m);
            assert_eq!(hpc(n, m, 1).len(), m);
            assert_eq!(projector(n, m, 1).len(), m);
            assert_eq!(facebook(n, m, 1).len(), m);
        }
    }
}
