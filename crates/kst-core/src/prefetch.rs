//! Safe software-prefetch hints for the pointer-chasing hot paths.
//!
//! The `distance_lca` climb is a chain of dependent loads through the
//! `parent` array; once a tree is deep enough that the array falls out of
//! LLC, every step is a full memory round-trip. Issuing a prefetch for the
//! *next* step's cache line while the current step is still in flight hides
//! part of that latency. On a tree past the prefetch threshold the climb
//! hints the routing-element and child rows of every node it passes
//! instead, which are the rows the splays after it rotate; `splay_until`'s
//! ancestor climb does the same for its own path. A prefetch is purely a
//! hint — it has no architectural effect, cannot fault, and never changes
//! observable behaviour — so the helper is safe to call with any index and
//! compiles to nothing on architectures without the intrinsic.

/// Hints the CPU to pull `slice[idx]` toward the L1 cache.
///
/// No-op when `idx` is out of bounds (the hint would be useless, and the
/// address computed from a one-past-the-end index is still within the
/// allocation only for `idx == len`, so out-of-range indices are simply
/// skipped) and on non-x86_64 targets.
#[inline(always)]
pub fn prefetch_read<T>(slice: &[T], idx: usize) {
    if idx >= slice.len() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    {
        let ptr = slice.as_ptr().wrapping_add(idx);
        // SAFETY: `idx < slice.len()` was checked above, so the pointer is
        // in bounds of the slice allocation; `_mm_prefetch` is a pure hint
        // with no architectural side effects — it cannot fault even on an
        // invalid address and reads or writes no memory.
        unsafe {
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                ptr as *const i8,
            );
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = slice;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_is_behaviour_free() {
        let v: Vec<u32> = (0..64).collect();
        prefetch_read(&v, 0);
        prefetch_read(&v, 63);
        prefetch_read(&v, 64); // out of bounds: silently skipped
        prefetch_read(&v, usize::MAX);
        let empty: [u32; 0] = [];
        prefetch_read(&empty, 0);
        assert_eq!(v[63], 63);
    }
}
