//! # splaynet-classic — the original binary SplayNet
//!
//! Independent implementation of SplayNet (Schmid, Avin, Scheideler,
//! Borokhovich, Haeupler, Lotker: *SplayNet: Towards Locally Self-Adjusting
//! Networks*, IEEE/ACM ToN 2016 — reference \[22\] of the reproduced paper).
//!
//! SplayNet is a **routing-based** binary search tree network: each node's
//! routing element *is* its key, and a request `(u, v)` splays `u` into the
//! position of `w = LCA(u, v)` and then splays `v` until it is `u`'s child,
//! using the classic zig / zig-zig / zig-zag rotations of Sleator–Tarjan
//! splay trees.
//!
//! In this workspace the crate serves two purposes:
//! * it is the paper's baseline ("SplayNet", the k = 2 column of Tables 1–7
//!   and the second column of Table 8);
//! * it is a differential-testing oracle: the generalized k-ary rotations of
//!   `kst-core` must reproduce these classic rotations move-for-move at
//!   k = 2 (see `tests/differential_k2.rs` at the workspace root).

#![forbid(unsafe_code)]

use kst_core::net::{Network, ServeCost};
use kst_core::shape::ShapeTree;
use kst_core::NodeKey;

const NIL: u32 = u32::MAX;

/// Classic binary SplayNet over keys `1..=n`.
#[derive(Clone)]
pub struct ClassicSplayNet {
    n: usize,
    root: u32,
    parent: Vec<u32>,
    left: Vec<u32>,
    right: Vec<u32>,
}

impl ClassicSplayNet {
    /// Balanced (complete) initial topology on `n` nodes — identical in
    /// shape to `KstTree::balanced(2, n)`.
    pub fn balanced(n: usize) -> ClassicSplayNet {
        ClassicSplayNet::from_shape(&ShapeTree::balanced_kary(n, 2))
    }

    /// Builds from any binary shape on keys `1..=n` (shape offset `i` is
    /// node index `i`): a child is left when its key is below its
    /// parent's, right otherwise.
    pub fn from_shape(shape: &ShapeTree) -> ClassicSplayNet {
        let n = shape.len();
        assert!(n >= 1);
        if let Err(e) = shape.validate(2) {
            panic!("shape is not binary: {e}");
        }
        let mut net = ClassicSplayNet {
            n,
            root: shape.root,
            parent: shape.parent.clone(),
            left: vec![NIL; n],
            right: vec![NIL; n],
        };
        for (v, &p) in (0..n as u32).zip(&shape.parent) {
            if p == NIL {
                continue;
            }
            let side = if v < p { &mut net.left } else { &mut net.right };
            assert!(
                side[p as usize] == NIL,
                "shape node {p} has two children on one side"
            );
            side[p as usize] = v;
        }
        net
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Root node index (key − 1).
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Parent of a node index (`u32::MAX` for the root).
    pub fn parent_of(&self, v: u32) -> u32 {
        self.parent[v as usize]
    }

    /// Left child (`u32::MAX` if none).
    pub fn left_of(&self, v: u32) -> u32 {
        self.left[v as usize]
    }

    /// Right child (`u32::MAX` if none).
    pub fn right_of(&self, v: u32) -> u32 {
        self.right[v as usize]
    }

    fn depth(&self, mut v: u32) -> usize {
        let mut d = 0;
        while self.parent[v as usize] != NIL {
            v = self.parent[v as usize];
            d += 1;
        }
        d
    }

    fn lca(&self, u: u32, v: u32) -> u32 {
        self.distance_lca_idx(u, v).1
    }

    /// Tree distance and LCA from a single pass over the access paths (the
    /// serve hot path charges routing and picks its splay target from the
    /// same pointer chase — mirroring `KstTree::distance_lca`).
    fn distance_lca_idx(&self, u: u32, v: u32) -> (u64, u32) {
        if u == v {
            return (0, u);
        }
        let du = self.depth(u);
        let dv = self.depth(v);
        let (mut a, mut b) = (u, v);
        let (mut da, mut db) = (du, dv);
        while da > db {
            a = self.parent[a as usize];
            da -= 1;
        }
        while db > da {
            b = self.parent[b as usize];
            db -= 1;
        }
        while a != b {
            a = self.parent[a as usize];
            b = self.parent[b as usize];
            da -= 1;
        }
        ((du - da + (dv - da)) as u64, a)
    }

    /// Tree distance between two node indices.
    pub fn dist_idx(&self, u: u32, v: u32) -> u64 {
        self.distance_lca_idx(u, v).0
    }

    /// Rotates `x` above its parent; returns the number of physical links
    /// changed (undirected).
    fn rotate_up(&mut self, x: u32) -> u64 {
        let p = self.parent[x as usize];
        debug_assert!(p != NIL);
        let g = self.parent[p as usize];
        let x_is_left = self.left[p as usize] == x;
        // inner subtree that changes sides
        let b = if x_is_left {
            self.right[x as usize]
        } else {
            self.left[x as usize]
        };
        if x_is_left {
            self.left[p as usize] = b;
            self.right[x as usize] = p;
        } else {
            self.right[p as usize] = b;
            self.left[x as usize] = p;
        }
        if b != NIL {
            self.parent[b as usize] = p;
        }
        self.parent[p as usize] = x;
        self.parent[x as usize] = g;
        if g == NIL {
            self.root = x;
        } else if self.left[g as usize] == p {
            self.left[g as usize] = x;
        } else {
            self.right[g as usize] = x;
        }
        // {g,p}→{g,x} and {x,b}→{p,b}; the {p,x} link only flips direction.
        2 * u64::from(g != NIL) + 2 * u64::from(b != NIL)
    }

    /// Splays `x` until its parent is `boundary` (`u32::MAX` → to the
    /// root). Returns (elementary rotations, links changed).
    pub fn splay_until(&mut self, x: u32, boundary: u32) -> (u64, u64) {
        let mut rot = 0u64;
        let mut links = 0u64;
        loop {
            let p = self.parent[x as usize];
            if p == boundary {
                return (rot, links);
            }
            let g = self.parent[p as usize];
            if g == boundary {
                links += self.rotate_up(x); // zig
                rot += 1;
            } else {
                let zigzig = (self.left[g as usize] == p) == (self.left[p as usize] == x);
                if zigzig {
                    links += self.rotate_up(p);
                    links += self.rotate_up(x);
                } else {
                    links += self.rotate_up(x);
                    links += self.rotate_up(x);
                }
                rot += 2;
            }
        }
    }

    /// Adjusts for `(u, v)` with the SplayNet double-splay discipline,
    /// making the endpoints adjacent. Returns (rotations, links changed).
    pub fn adjust(&mut self, u: NodeKey, v: NodeKey) -> (u64, u64) {
        let nu = u - 1;
        let nv = v - 1;
        if nu == nv {
            return (0, 0);
        }
        let w = self.lca(nu, nv);
        self.adjust_at(nu, nv, w)
    }

    /// Adjustment with the LCA already in hand.
    fn adjust_at(&mut self, nu: u32, nv: u32, w: u32) -> (u64, u64) {
        if w == nu {
            self.splay_until(nv, nu)
        } else if w == nv {
            self.splay_until(nu, nv)
        } else {
            let boundary = self.parent[w as usize];
            let (r1, l1) = self.splay_until(nu, boundary);
            let (r2, l2) = self.splay_until(nv, nu);
            (r1 + r2, l1 + l2)
        }
    }

    /// In-order key sequence (must always be `1..=n`; used by tests).
    pub fn inorder(&self) -> Vec<NodeKey> {
        let mut out = Vec::with_capacity(self.n);
        let mut stack = Vec::new();
        let mut cur = self.root;
        while cur != NIL || !stack.is_empty() {
            while cur != NIL {
                stack.push(cur);
                cur = self.left[cur as usize];
            }
            // ksan-allow: panic-surface the outer loop condition guarantees the stack is non-empty here
            let v = stack.pop().unwrap();
            out.push(v + 1);
            cur = self.right[v as usize];
        }
        out
    }

    /// Structural invariant check: BST property, link symmetry,
    /// reachability.
    pub fn validate(&self) -> Result<(), String> {
        if self.parent[self.root as usize] != NIL {
            return Err("root has a parent".into());
        }
        let inord = self.inorder();
        if inord.len() != self.n {
            return Err(format!(
                "inorder visits {} of {} nodes",
                inord.len(),
                self.n
            ));
        }
        for (i, &key) in inord.iter().enumerate() {
            if key as usize != i + 1 {
                return Err(format!("BST order violated at position {i}: key {key}"));
            }
        }
        for v in 0..self.n as u32 {
            for c in [self.left[v as usize], self.right[v as usize]] {
                if c != NIL && self.parent[c as usize] != v {
                    return Err(format!("link asymmetry at node {}", v + 1));
                }
            }
        }
        Ok(())
    }
}

impl Network for ClassicSplayNet {
    fn len(&self) -> usize {
        self.n
    }

    fn distance(&self, u: NodeKey, v: NodeKey) -> u64 {
        self.dist_idx(u - 1, v - 1)
    }

    fn serve(&mut self, u: NodeKey, v: NodeKey) -> ServeCost {
        let nu = u - 1;
        let nv = v - 1;
        if nu == nv {
            return ServeCost::default();
        }
        // Adjacency fast path (mirrors KSplayNet::serve): adjacent
        // endpoints route in one hop and the double splay is a no-op.
        if self.parent[nv as usize] == nu || self.parent[nu as usize] == nv {
            return ServeCost {
                routing: 1,
                ..ServeCost::default()
            };
        }
        let (routing, w) = self.distance_lca_idx(nu, nv);
        let (rotations, links_changed) = self.adjust_at(nu, nv, w);
        ServeCost {
            routing,
            rotations,
            links_changed,
            ..ServeCost::default()
        }
    }

    fn label(&self) -> String {
        "SplayNet (classic)".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn balanced_is_valid_bst() {
        for n in [1usize, 2, 3, 7, 64, 100, 255] {
            ClassicSplayNet::balanced(n).validate().unwrap();
        }
    }

    #[test]
    fn serve_makes_endpoints_adjacent() {
        let mut net = ClassicSplayNet::balanced(100);
        let mut x = 9u64;
        for _ in 0..500 {
            let u = (xorshift(&mut x) % 100 + 1) as NodeKey;
            let v = (xorshift(&mut x) % 100 + 1) as NodeKey;
            if u == v {
                continue;
            }
            net.serve(u, v);
            assert_eq!(net.distance(u, v), 1);
            net.validate().unwrap();
        }
    }

    #[test]
    fn repeated_request_is_free_to_adjust() {
        let mut net = ClassicSplayNet::balanced(64);
        net.serve(5, 40);
        let c = net.serve(5, 40);
        assert_eq!(c.routing, 1);
        assert_eq!(c.rotations, 0);
    }

    #[test]
    fn splay_to_root_works() {
        let mut net = ClassicSplayNet::balanced(31);
        for key in [1u32, 31, 16, 7] {
            net.splay_until(key - 1, NIL);
            assert_eq!(net.root(), key - 1);
            net.validate().unwrap();
        }
    }

    #[test]
    fn sequential_access_locality() {
        // splaying exploits locality: repeated neighbors are cheap
        let mut net = ClassicSplayNet::balanced(255);
        let mut total = 0u64;
        for i in 1..255u32 {
            total += net.serve(i, i + 1).routing;
        }
        // sequential access in a splay tree is amortized O(1) per op
        assert!(total < 4 * 255, "sequential access too expensive: {total}");
    }

    #[test]
    fn rotation_link_accounting() {
        // Physical links are undirected: a zig at the root with no inner
        // subtree only re-orients edges — zero links change.
        let mut net = ClassicSplayNet::balanced(3); // keys 1,2,3; root 2
        let (_, links) = net.splay_until(0, NIL); // splay key 1 to root: zig
        assert_eq!(links, 0);
        // With an inner subtree: {x.inner} re-hangs onto p — 2 links change.
        let mut net = ClassicSplayNet::balanced(7); // root 4, left 2 (1,3)
        let (_, links) = net.splay_until(1, NIL); // splay key 2: zig, b = 3
        assert_eq!(links, 2);
        net.validate().unwrap();
    }
}
