//! Key spaces for k-ary search tree networks.
//!
//! The paper's central modelling requirement (Section 1, Definition 1) is
//! that a network node's *identifier* is permanent while its *routing array*
//! is re-shuffled by rotations, and that identifiers are **not** members of
//! routing arrays (the non-routing-based trees of Remark 11, which are the
//! only ones the k-splay rotations apply to).
//!
//! We therefore keep two ordered spaces:
//!
//! * [`NodeKey`] — the node identifier, `1..=n`. It doubles as the arena
//!   index (`key - 1`), so a node's identity is immutable by construction.
//! * [`RoutingKey`] — a `u32` in which node key `κ` of an arity-`k` tree
//!   embeds as `κ · 2^s` ([`key_image`]), where `2^s` is the smallest power
//!   of two strictly above `k` (`s` = [`key_shift`]`(k)`, the bit length of
//!   `k`). Routing elements are arbitrary `u32` values that are never key
//!   images; between two consecutive key images there are `2^s − 1 ≥ k`
//!   routing values.
//!
//! Routing and rotations only ever compare elements with each other and
//! with key images, so any spacing works that leaves room for the values a
//! build places: one node's `k − 1` elements, plus the one separator that
//! may close the gap between its key and the next. `KstTree::write_fragment`
//! documents why `2^s > k` is enough. The spacing caps a tree at
//! [`max_keys`]`(k)` keys, `(n + 1) · 2^s ≤ 2^32`; every constructor checks
//! it before it allocates.

/// Permanent node identifier, `1..=n`. Also the network address used for
/// routing requests.
pub type NodeKey = u32;

/// Value in the routing-element order. Node keys embed via [`key_image`];
/// routing-array elements are `RoutingKey`s that are never key images.
pub type RoutingKey = u32;

/// Arena index of a node (`key - 1`). `NIL` marks an absent node/slot.
pub type NodeIdx = u32;

/// Sentinel for "no node": empty child slot, or the parent of the root.
pub const NIL: NodeIdx = u32::MAX;

/// Bits by which a node key of an arity-`k` tree is shifted to embed into
/// the routing space: the bit length of `k`, so `2^s` is the smallest
/// power of two strictly above `k` (k = 2, 3 → 2; k = 4…7 → 3; k = 256 →
/// 9).
#[inline]
pub const fn key_shift(k: usize) -> u32 {
    usize::BITS - k.leading_zeros()
}

/// The largest key count an arity-`k` tree can hold: the largest `n` with
/// `(n + 1) · 2^s ≤ 2^32`, so the largest image plus its `k − 1` spill
/// values stays below [`RoutingKey::MAX`].
pub const fn max_keys(k: usize) -> usize {
    let s = key_shift(k);
    if s >= 32 {
        0
    } else {
        (1usize << (32 - s)) - 1
    }
}

/// Panics, naming `k`, `n` and the cap, unless an arity-`k` tree can hold
/// `n` keys ([`max_keys`]). Runs in every build, before any arena grows.
#[inline]
pub(crate) fn check_capacity(k: usize, n: usize) {
    assert!(
        n <= max_keys(k),
        "{n} keys exceed the 32-bit routing-element space of arity {k} (at most {} keys)",
        max_keys(k)
    );
}

/// Embeds a node key of an arity-`k` tree into the routing-element order.
#[inline]
pub fn key_image(key: NodeKey, k: usize) -> RoutingKey {
    key << key_shift(k)
}

/// Inverse of [`key_image`] for values that are exact key images.
#[inline]
pub fn image_key(img: RoutingKey, k: usize) -> Option<NodeKey> {
    let s = key_shift(k);
    if img & ((1 << s) - 1) == 0 && img != 0 {
        Some(img >> s)
    } else {
        None
    }
}

/// The largest key whose image is at most `e` (`0` below the first image).
#[inline]
pub fn floor_key(e: RoutingKey, k: usize) -> NodeKey {
    e >> key_shift(k)
}

/// Converts a node key to its arena index.
#[inline]
pub fn key_to_idx(key: NodeKey) -> NodeIdx {
    debug_assert!(key >= 1);
    key - 1
}

/// Converts an arena index back to the node key it permanently carries.
#[inline]
pub fn idx_to_key(idx: NodeIdx) -> NodeKey {
    idx + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_image_is_monotone_and_invertible() {
        for k in [2usize, 3, 4, 7, 8, 256] {
            let mut prev = 0;
            for key in 1..1000u32 {
                let img = key_image(key, k);
                assert!(img > prev);
                assert_eq!(image_key(img, k), Some(key));
                assert_eq!(floor_key(img, k), key);
                assert_eq!(floor_key(img - 1, k), key - 1);
                prev = img;
            }
        }
    }

    #[test]
    fn non_images_are_rejected() {
        assert_eq!(image_key(key_image(7, 2) + 1, 2), None);
        assert_eq!(image_key(0, 2), None);
    }

    #[test]
    fn spacing_is_the_smallest_power_of_two_above_k() {
        for (k, gap) in [
            (2usize, 4u32),
            (3, 4),
            (4, 8),
            (7, 8),
            (8, 16),
            (15, 16),
            (256, 512),
        ] {
            assert_eq!(key_image(2, k) - key_image(1, k), gap, "k={k}");
        }
        for k in 2..=1024usize {
            let gap = 1usize << key_shift(k);
            assert!(gap > k && gap <= 2 * k, "k={k}");
        }
    }

    #[test]
    fn largest_image_and_its_spill_fit_for_every_arity() {
        for k in 2..=1024usize {
            let n = max_keys(k);
            let top = u64::from(key_image(n as NodeKey, k)) + (k as u64 - 1);
            assert!(top < u64::from(RoutingKey::MAX), "k={k} n={n}");
            // One more key would not fit the 2^32 values.
            assert!(((n as u64 + 2) << key_shift(k)) > 1u64 << 32, "k={k}");
        }
    }

    #[test]
    fn key_idx_roundtrip() {
        for k in 1..100 {
            assert_eq!(idx_to_key(key_to_idx(k)), k);
        }
    }
}
