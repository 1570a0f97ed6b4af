//! Keyspace → shard mapping: the engine's **versioned range table**.
//!
//! The engine partitions the global keyspace `1..=n` into `S` contiguous
//! ranges. At construction this is the canonical equal-width partition of
//! [`kst_workloads::partition_keyspace`]. Live resharding shifts range
//! boundaries between neighbouring shards at epoch ends
//! ([`ShardMap::shift_boundary`]); each shift bumps the map's
//! **version**. `shard_of` is one binary search over the range table,
//! before and after any shift: O(log S) and allocation-free on the
//! engine's one routing path.

use kst_workloads::{partition_keyspace, KeyRange, NodeKey};

/// The engine's keyspace partition: `S` contiguous shards over `1..=n`,
/// with O(log S) key → shard lookup, per-shard gateway keys, and a
/// version counter bumped by every live-resharding boundary shift.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    n: usize,
    ranges: Vec<KeyRange>,
    /// Bumped by every boundary shift; 0 for the construction partition.
    version: u64,
}

impl ShardMap {
    /// Builds the canonical contiguous partition of `1..=n` into `shards`
    /// ranges (clamped to `1..=n`), version 0.
    pub fn contiguous(n: usize, shards: usize) -> ShardMap {
        let ranges = partition_keyspace(n, shards);
        let map = ShardMap {
            n,
            version: 0,
            ranges,
        };
        debug_assert_eq!(map.validate(), Ok(()));
        map
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.ranges.len()
    }

    /// Global node count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Range-table version: 0 at construction, +1 per boundary shift.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The key range of shard `s`.
    pub fn range(&self, s: usize) -> KeyRange {
        self.ranges[s]
    }

    /// All shard ranges in keyspace order.
    pub fn ranges(&self) -> &[KeyRange] {
        &self.ranges
    }

    /// The shard owning `key`: an O(log S) binary search for the first
    /// range that ends at or above it.
    ///
    /// # Panics
    ///
    /// If `key` lies outside `1..=n`.
    #[inline]
    pub fn shard_of(&self, key: NodeKey) -> usize {
        assert!(
            key >= 1 && key as usize <= self.n,
            "key {key} outside keyspace 1..={}",
            self.n
        );
        self.ranges.partition_point(|r| r.hi < key)
    }

    /// Shard `s`'s gateway: the median key of its range. The gateway is
    /// the shard-local endpoint of every cross-shard traversal (the node
    /// "wired to the router"); the median is the root of the shard's
    /// initial balanced tree, so cold gateways start near the top and hot
    /// gateways stay there by self-adjustment.
    #[inline]
    pub fn gateway(&self, s: usize) -> NodeKey {
        let r = self.ranges[s];
        r.lo + (r.len() as NodeKey - 1) / 2
    }

    /// Moves `delta.abs()` keys across the boundary between shards `b` and
    /// `b + 1`: positive `delta` grows shard `b` by taking the low end of
    /// `b + 1`'s range, negative shrinks it, donating its high end. Both
    /// shards must keep at least one key. Bumps the version. The caller is responsible for moving the
    /// matching subtree fragment between the shard networks (see
    /// `kst_core::reshard`).
    pub fn shift_boundary(&mut self, b: usize, delta: isize) {
        assert!(b + 1 < self.ranges.len(), "boundary {b} out of range");
        assert!(delta != 0, "boundary shift must move at least one key");
        let moved = delta.unsigned_abs() as NodeKey;
        if delta > 0 {
            assert!(
                (moved as usize) < self.ranges[b + 1].len(),
                "shard {} would be emptied",
                b + 1
            );
            self.ranges[b].hi += moved;
            self.ranges[b + 1].lo += moved;
        } else {
            assert!(
                (moved as usize) < self.ranges[b].len(),
                "shard {b} would be emptied"
            );
            self.ranges[b].hi -= moved;
            self.ranges[b + 1].lo -= moved;
        }
        self.version += 1;
        debug_assert_eq!(self.validate(), Ok(()));
    }

    /// Checks that the range table is a partition of `1..=n` — non-empty
    /// contiguous disjoint covering ranges — and that every gateway lies
    /// inside its range. Used by the migration applier after every shift
    /// and by the debug build at construction.
    pub fn validate(&self) -> Result<(), String> {
        if self.ranges.is_empty() {
            return Err("no shard ranges".into());
        }
        let mut expect = 1 as NodeKey;
        for (s, r) in self.ranges.iter().enumerate() {
            if r.lo != expect {
                return Err(format!(
                    "shard {s} starts at {} (expected {expect}): ranges not contiguous",
                    r.lo
                ));
            }
            if r.hi < r.lo {
                return Err(format!("shard {s} range [{},{}] is empty", r.lo, r.hi));
            }
            expect = r.hi + 1;
        }
        let last = self.ranges[self.ranges.len() - 1];
        if last.hi as usize != self.n {
            return Err(format!(
                "last shard ends at {} (expected {}): ranges not covering",
                last.hi, self.n
            ));
        }
        for s in 0..self.ranges.len() {
            let g = self.gateway(s);
            if !self.ranges[s].contains(g) {
                return Err(format!("shard {s} gateway {g} outside its range"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_matches_linear_scan() {
        for n in [1usize, 5, 17, 100, 1023] {
            for shards in [1usize, 2, 3, 7, 16, 5000] {
                let map = ShardMap::contiguous(n, shards);
                for key in 1..=n as NodeKey {
                    let s = map.shard_of(key);
                    assert!(
                        map.range(s).contains(key),
                        "n={n} shards={shards} key={key}: got shard {s} ({:?})",
                        map.range(s)
                    );
                }
            }
        }
    }

    #[test]
    fn gateway_is_inside_its_shard() {
        let map = ShardMap::contiguous(103, 7);
        for s in 0..map.shards() {
            let g = map.gateway(s);
            assert!(map.range(s).contains(g));
            assert_eq!(map.shard_of(g), s);
        }
    }

    #[test]
    fn single_shard_covers_everything() {
        let map = ShardMap::contiguous(42, 1);
        assert_eq!(map.shards(), 1);
        assert_eq!(map.range(0), KeyRange { lo: 1, hi: 42 });
        for key in 1..=42 {
            assert_eq!(map.shard_of(key), 0);
        }
    }

    #[test]
    fn shift_boundary_keeps_partition_and_bumps_version() {
        let mut map = ShardMap::contiguous(100, 4);
        assert_eq!(map.version(), 0);
        map.shift_boundary(1, 7);
        assert_eq!(map.version(), 1);
        map.shift_boundary(2, -3);
        assert_eq!(map.version(), 2);
        map.validate().unwrap();
        assert_eq!(map.range(1).hi, 57);
        assert_eq!(map.range(2).lo, 58);
        // Lookup still agrees with a linear scan.
        for key in 1..=100 {
            let s = map.shard_of(key);
            assert!(map.range(s).contains(key), "key={key} shard={s}");
        }
    }

    #[test]
    #[should_panic(expected = "key 0 outside keyspace 1..=100")]
    fn shard_of_rejects_key_zero() {
        ShardMap::contiguous(100, 4).shard_of(0);
    }

    #[test]
    #[should_panic(expected = "key 101 outside keyspace 1..=100")]
    fn shard_of_rejects_key_past_n() {
        ShardMap::contiguous(100, 4).shard_of(101);
    }

    #[test]
    #[should_panic(expected = "key 0 outside keyspace 1..=100")]
    fn shard_of_rejects_key_zero_after_a_shift() {
        let mut map = ShardMap::contiguous(100, 4);
        map.shift_boundary(0, 5);
        map.shard_of(0);
    }

    #[test]
    #[should_panic(expected = "key 101 outside keyspace 1..=100")]
    fn shard_of_rejects_key_past_n_after_a_shift() {
        let mut map = ShardMap::contiguous(100, 4);
        map.shift_boundary(2, -5);
        map.shard_of(101);
    }

    #[test]
    #[should_panic(expected = "emptied")]
    fn shift_boundary_refuses_to_empty_a_shard() {
        let mut map = ShardMap::contiguous(10, 5);
        map.shift_boundary(0, 2);
    }
}
