//! Trace statistics: the locality measures used by the paper (via Avin,
//! Ghobadi, Griner, Schmid: "On the complexity of traffic traces and
//! implications" \[2\]) to characterize workloads — temporal locality
//! (repeat rate) and spatial locality (entropy of the endpoint marginals).
//!
//! These verify that our *simulated* datacenter traces (see `gens`) land in
//! the locality regime the paper reports for the corresponding real trace.

use crate::trace::Trace;

/// Summary statistics of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Fraction of requests identical to their predecessor — the paper's
    /// "temporal complexity parameter" is exactly the generator-side analog.
    pub repeat_rate: f64,
    /// Shannon entropy (bits) of the source marginal.
    pub src_entropy: f64,
    /// Shannon entropy (bits) of the destination marginal.
    pub dst_entropy: f64,
    /// Shannon entropy (bits) of the joint pair distribution.
    pub pair_entropy: f64,
    /// Number of distinct ordered pairs observed.
    pub distinct_pairs: usize,
    /// Fraction of all requests carried by the most frequent pair.
    pub top_pair_share: f64,
    /// Number of nodes and requests, for reference.
    pub n: usize,
    /// Requests in the trace.
    pub m: usize,
}

/// Computes all statistics in one pass over the trace, plus a sort of a
/// copy of its requests: each run of equal pairs in the sorted copy is one
/// distinct pair's count, in canonical row-major order.
pub fn stats(trace: &Trace) -> TraceStats {
    let n = trace.n();
    let m = trace.len();
    let mut src = vec![0u64; n];
    let mut dst = vec![0u64; n];
    let mut repeats = 0u64;
    let mut prev: Option<(u32, u32)> = None;
    for &(u, v) in trace.requests() {
        let (ui, vi) = (u as usize - 1, v as usize - 1);
        src[ui] += 1;
        dst[vi] += 1;
        if prev == Some((u, v)) {
            repeats += 1;
        }
        prev = Some((u, v));
    }
    let mut sorted = trace.requests().to_vec();
    sorted.sort_unstable();
    let pairs: Vec<u64> = sorted
        .chunk_by(|a, b| a == b)
        .map(|run| run.len() as u64)
        .collect();
    let top = pairs.iter().copied().max().unwrap_or(0);
    TraceStats {
        repeat_rate: if m > 1 {
            repeats as f64 / (m - 1) as f64
        } else {
            0.0
        },
        src_entropy: entropy(&src, m as u64),
        dst_entropy: entropy(&dst, m as u64),
        pair_entropy: entropy(&pairs, m as u64),
        distinct_pairs: pairs.len(),
        top_pair_share: if m > 0 { top as f64 / m as f64 } else { 0.0 },
        n,
        m,
    }
}

/// Shannon entropy in bits of a count vector with total `m`.
pub fn entropy(counts: &[u64], m: u64) -> f64 {
    if m == 0 {
        return 0.0;
    }
    let mf = m as f64;
    let mut h = 0.0;
    for &c in counts {
        if c > 0 {
            let p = c as f64 / mf;
            h -= p * p.log2();
        }
    }
    h
}

/// The right-hand side of Theorem 13's entropy bound (up to its constant):
/// `Σ_x a_x · log(m / a_x) + b_x · log(m / b_x)` where `a_x`/`b_x` count
/// appearances of `x` as source/destination.
pub fn entropy_bound_rhs(trace: &Trace) -> f64 {
    let n = trace.n();
    let m = trace.len() as f64;
    let mut a = vec![0u64; n];
    let mut b = vec![0u64; n];
    for &(u, v) in trace.requests() {
        let (ui, vi) = (u as usize - 1, v as usize - 1);
        a[ui] += 1;
        b[vi] += 1;
    }
    let term = |c: u64| {
        if c == 0 {
            0.0
        } else {
            c as f64 * (m / c as f64).log2()
        }
    };
    a.iter().map(|&c| term(c)).sum::<f64>() + b.iter().map(|&c| term(c)).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_rate_of_constant_trace_is_one() {
        let t = Trace::new(3, vec![(1, 2); 100]);
        let s = stats(&t);
        assert!((s.repeat_rate - 1.0).abs() < 1e-12);
        assert_eq!(s.distinct_pairs, 1);
        assert!((s.top_pair_share - 1.0).abs() < 1e-12);
        assert_eq!(s.src_entropy, 0.0);
    }

    #[test]
    fn entropy_of_uniform_counts_is_log_n() {
        let counts = vec![5u64; 16];
        let h = entropy(&counts, 80);
        assert!((h - 4.0).abs() < 1e-12);
    }

    #[test]
    fn alternating_trace_has_zero_repeat_rate() {
        let mut reqs = Vec::new();
        for _ in 0..50 {
            reqs.push((1u32, 2u32));
            reqs.push((2u32, 3u32));
        }
        let s = stats(&Trace::new(3, reqs));
        assert_eq!(s.repeat_rate, 0.0);
        assert_eq!(s.distinct_pairs, 2);
    }

    #[test]
    fn entropy_bound_rhs_positive_for_mixed_trace() {
        let t = Trace::new(4, vec![(1, 2), (3, 4), (1, 3), (2, 4)]);
        assert!(entropy_bound_rhs(&t) > 0.0);
    }
}
