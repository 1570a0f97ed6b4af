//! Arena digests: a pinned hash of every node's parent, routing elements
//! and child slots after each operation that writes the node arena.
//!
//! For k ∈ {2, 3, 4, 8} the test builds, serves, patches, extracts and
//! absorbs, and hashes the tree after each step through the public
//! accessors (`parent`, `elems`, `children`) with FNV-1a, which is stable
//! across toolchains and platforms:
//!
//! 1. `from_shape` of `balanced_kary`, and of a `weight_balanced` shape
//!    whose hot keys sit at the high end;
//! 2. 2 000 seeded k-splay serves on the balanced tree;
//! 3. a `patch_subtree` of the largest contiguous proper subtree with a
//!    `weight_balanced` fragment;
//! 4. `extract_range` of a High run and `absorb_fragment` of it at the
//!    Low end of the weight-balanced tree;
//! 5. `extract_range` of a Low run that needs a connector patch (so the
//!    remaining leading elements are compressed) and `absorb_fragment` of
//!    it at the High end.
//!
//! The digests depend only on where the code places elements and links,
//! not on how the arena stores them, so a storage change must leave them
//! unchanged. A change that moves placement on purpose (a new fragment
//! writer, say) re-pins them: the failure message prints the whole table
//! of new digests in the form of [`PINNED`]; paste it over the constant
//! and say in the change log why placement moved.

use ksan::core::invariants::validate;
use ksan::core::{End, KSplayNet, KstTree, Network, NodeKey, ShapeTree, NIL};

/// `(k, step, digest)` for every arity and step, recorded while routing
/// elements and child slots still lived in two separate arrays.
const PINNED: &[(usize, &str, u64)] = &[
    (2, "balanced", 0xe2e28ecefec341ee),
    (2, "hot_end", 0xe366777b7fadcfd2),
    (2, "served", 0x7165f95d7c6fdb0a),
    (2, "patched", 0x4654d4034c62fbaf),
    (2, "extract_high", 0xba31d5bd3b7e5cf7),
    (2, "absorb_low", 0xe0e794f5bab81b59),
    (2, "extract_low", 0x3968d02c9430fe55),
    (2, "absorb_high", 0x1db49c7123f4db23),
    (3, "balanced", 0x4887989ac0c7ed35),
    (3, "hot_end", 0x78b440adfbe1d3c8),
    (3, "served", 0x29453b8a56b4d3a2),
    (3, "patched", 0x5c9463422d046770),
    (3, "extract_high", 0xf9b3add421d9c8a4),
    (3, "absorb_low", 0xcb2c2534e350581a),
    (3, "extract_low", 0x65c800866cb8979e),
    (3, "absorb_high", 0x5d65407b8709e097),
    (4, "balanced", 0xd62fe347b701d73b),
    (4, "hot_end", 0xae4d49e624786cad),
    (4, "served", 0x1ca41f81b2b99296),
    (4, "patched", 0x78c0fd8775b94b48),
    (4, "extract_high", 0x2b6f93a4ed279f38),
    (4, "absorb_low", 0xb71b4c1587552890),
    (4, "extract_low", 0x9f800c2faad7f311),
    (4, "absorb_high", 0x0419b5f0136ee62a),
    (8, "balanced", 0xc8b9b0602cf6175d),
    (8, "hot_end", 0x45c60efe810f338c),
    (8, "served", 0xecffb24571bf5c35),
    (8, "patched", 0x9bd4eac6ba90e31c),
    (8, "extract_high", 0x501952769e0ab498),
    (8, "absorb_low", 0x8df00eb7461c24d6),
    (8, "extract_low", 0x40a39f7a48c954dd),
    (8, "absorb_high", 0x6135460c15ddb0ab),
];

/// 64-bit FNV-1a over the little-endian bytes of each word.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hashes k, n, the root and every node's parent, elements and slots.
fn digest(t: &KstTree) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(t.k() as u32);
    h.word(t.n() as u32);
    h.word(t.root());
    for v in t.nodes() {
        h.word(t.parent(v));
        t.elems(v).iter().for_each(|&e| h.word(e));
        t.children(v).iter().for_each(|&c| h.word(c));
    }
    h.0
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The root of the largest proper subtree whose keys form one contiguous
/// range, with that range (ties go to the smallest key).
fn largest_contiguous_subtree(t: &KstTree) -> (NodeKey, NodeKey) {
    let mut best = (0usize, 0, 0);
    for r in t.nodes().filter(|&r| r != t.root()) {
        let (mut count, mut lo, mut hi) = (0usize, NodeKey::MAX, 0);
        let mut stack = vec![r];
        while let Some(v) = stack.pop() {
            count += 1;
            lo = lo.min(t.key_of(v));
            hi = hi.max(t.key_of(v));
            stack.extend(t.children(v).iter().filter(|&&c| c != NIL));
        }
        if (hi - lo + 1) as usize == count && count > best.0 {
            best = (count, lo, hi);
        }
    }
    (best.1, best.2)
}

/// Runs every step at arity `k`, validating each tree, and returns the
/// digests in step order.
fn digests(k: usize) -> Vec<(&'static str, u64)> {
    let n = 240usize;
    let check = |t: &KstTree, step: &str| {
        validate(t).unwrap_or_else(|e| panic!("k={k} {step}: {e}"));
        digest(t)
    };
    let mut out = Vec::new();
    let balanced = KstTree::from_shape(k, &ShapeTree::balanced_kary(n, k));
    out.push(("balanced", check(&balanced, "balanced")));
    let top = n as NodeKey;
    let hot = [(top - 7, 40), (top - 2, 300), (top, 90)];
    let mut hot_end = KstTree::from_shape(k, &ShapeTree::weight_balanced(n, k, &hot));
    out.push(("hot_end", check(&hot_end, "hot_end")));

    let mut net = KSplayNet::from_tree(balanced);
    let mut x = 0x5eed_0000 + k as u64;
    let mut served = 0;
    while served < 2000 {
        let u = (xorshift(&mut x) % n as u64 + 1) as NodeKey;
        let v = (xorshift(&mut x) % n as u64 + 1) as NodeKey;
        if u != v {
            net.serve(u, v);
            served += 1;
        }
    }
    let mut t = net.tree().clone();
    out.push(("served", check(&t, "served")));

    let (lo, hi) = largest_contiguous_subtree(&t);
    let size = (hi - lo + 1) as usize;
    assert!(
        size >= 4,
        "k={k}: largest contiguous subtree has {size} keys"
    );
    let fragment = ShapeTree::weight_balanced(size, k, &[(size as NodeKey - 1, 500)]);
    t.patch_subtree(lo, hi, &fragment);
    out.push(("patched", check(&t, "patched")));

    let (high_run, _) = t.extract_range(top - 16, top);
    out.push(("extract_high", check(&t, "extract_high")));
    hot_end.absorb_fragment(End::Low, &high_run);
    out.push(("absorb_low", check(&hot_end, "absorb_low")));

    // A connector root (key cut + 1) places all k − 1 of its elements
    // between the images of keys cut and cut + 1, so the renumbering
    // compresses them.
    let cut = 23;
    let (low_run, cost) = t.extract_range(1, cut);
    assert_eq!(
        cost.rebuild_patches, 1,
        "k={k}: Low run needed no connector"
    );
    out.push(("extract_low", check(&t, "extract_low")));
    hot_end.absorb_fragment(End::High, &low_run);
    out.push(("absorb_high", check(&hot_end, "absorb_high")));
    out
}

#[test]
fn arena_digests_match_the_pins() {
    let mut got = Vec::new();
    for k in [2usize, 3, 4, 8] {
        for (step, d) in digests(k) {
            got.push((k, step, d));
        }
    }
    if got != PINNED {
        let table: String = got
            .iter()
            .map(|(k, step, d)| format!("    ({k}, {step:?}, {d:#018x}),\n"))
            .collect();
        panic!("arena digests moved; if placement changed on purpose, re-pin:\nconst PINNED: &[(usize, &str, u64)] = &[\n{table}];");
    }
}
