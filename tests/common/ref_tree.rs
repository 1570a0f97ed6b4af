//! A deliberately naive, allocation-happy reference implementation of the
//! paper's k-ary search tree network, shared by the move-for-move
//! differential tests (`differential_oracle`, `exhaustive_small`).
//!
//! [`RefKstTree`] keeps per-node `Vec`s, performs merges by rebuilding
//! whole arrays, collects window candidates into fresh vectors, and does
//! link accounting by diffing edge sets before and after every
//! restructure. It transcribes the window rules of Section 4.1 (merge the
//! routing arrays, give each path node `k-1` consecutive elements covering
//! its key's gap, prefer windows that avoid pending path keys, centre on
//! the own gap, tie-break leftmost) directly from the text, independently
//! of the optimized arena implementation in `kst-core`.

use kst_core::{key_image, KstTree, NodeKey, RoutingKey, SplayStrategy, WindowPolicy};

const REF_NIL: u32 = u32::MAX;

/// One node of the reference tree: everything heap-allocated per node, the
/// layout the arena implementation exists to avoid.
#[derive(Clone)]
struct RefNode {
    parent: u32,
    /// `k - 1` strictly increasing routing elements.
    elems: Vec<RoutingKey>,
    /// `k` child slots (`REF_NIL` = empty).
    children: Vec<u32>,
}

/// Naive reference k-ary search tree network.
pub struct RefKstTree {
    k: usize,
    nodes: Vec<RefNode>,
    root: u32,
    /// Diff only the edges incident to the path nodes instead of the
    /// global edge set. A restructure rewrites nothing but the path
    /// nodes' rows, their slot children's parents and the anchor's slot,
    /// so every edge it adds or removes has a path node as an endpoint;
    /// large trees use this to keep each step O(path), not O(n log n).
    pub local_links: bool,
}

impl RefKstTree {
    /// Copies the initial state of an arena tree (initial construction is
    /// not under test; the rotations are).
    pub fn snapshot(t: &KstTree) -> RefKstTree {
        let nodes = t
            .nodes()
            .map(|v| RefNode {
                parent: t.parent(v),
                elems: t.elems(v).to_vec(),
                children: t.children(v).to_vec(),
            })
            .collect();
        RefKstTree {
            k: t.k(),
            nodes,
            root: t.root(),
            local_links: false,
        }
    }

    pub fn ancestors(&self, mut v: u32) -> Vec<u32> {
        let mut a = vec![v];
        while self.nodes[v as usize].parent != REF_NIL {
            v = self.nodes[v as usize].parent;
            a.push(v);
        }
        a
    }

    fn lca(&self, u: u32, v: u32) -> u32 {
        let au = self.ancestors(u);
        let av = self.ancestors(v);
        *au.iter()
            .find(|x| av.contains(x))
            .expect("tree is connected")
    }

    pub fn distance(&self, u: u32, v: u32) -> u64 {
        if u == v {
            return 0;
        }
        let au = self.ancestors(u);
        let av = self.ancestors(v);
        let w = self.lca(u, v);
        let du = au.iter().position(|&x| x == w).unwrap();
        let dv = av.iter().position(|&x| x == w).unwrap();
        (du + dv) as u64
    }

    /// The global undirected edge set, sorted (naive: recomputed in full for
    /// every link-accounting query).
    fn edge_set(&self) -> Vec<(u32, u32)> {
        let mut edges = Vec::new();
        for (v, nd) in self.nodes.iter().enumerate() {
            if nd.parent != REF_NIL {
                let v = v as u32;
                edges.push((v.min(nd.parent), v.max(nd.parent)));
            }
        }
        edges.sort_unstable();
        edges
    }

    /// The undirected edges with an endpoint in `path`, sorted and
    /// deduplicated (naive: collected afresh for every query).
    fn edges_around(&self, path: &[u32]) -> Vec<(u32, u32)> {
        let mut edges = Vec::new();
        for &p in path {
            let nd = &self.nodes[p as usize];
            if nd.parent != REF_NIL {
                edges.push((p.min(nd.parent), p.max(nd.parent)));
            }
            for &c in &nd.children {
                if c != REF_NIL {
                    edges.push((p.min(c), p.max(c)));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// The edge set link accounting diffs: global, or around `path`.
    fn link_edges(&self, path: &[u32]) -> Vec<(u32, u32)> {
        if self.local_links {
            self.edges_around(path)
        } else {
            self.edge_set()
        }
    }

    /// Installs a node's routing array and child slots; re-parents the
    /// children.
    fn set_node(&mut self, node: u32, elems: Vec<RoutingKey>, slots: Vec<u32>) {
        for &c in &slots {
            if c != REF_NIL {
                self.nodes[c as usize].parent = node;
            }
        }
        let nd = &mut self.nodes[node as usize];
        nd.elems = elems;
        nd.children = slots;
    }

    /// The paper's generalized restructure on a downward path, transcribed
    /// naively. Returns (rotations, links changed).
    fn restructure(&mut self, path: &[u32], policy: WindowPolicy) -> (u64, u64) {
        let d = path.len();
        assert!(d >= 2);
        let km1 = self.k - 1;
        let before = self.link_edges(path);

        let top = path[0];
        let anchor = self.nodes[top as usize].parent;
        let anchor_slot = if anchor == REF_NIL {
            usize::MAX
        } else {
            self.nodes[anchor as usize]
                .children
                .iter()
                .position(|&c| c == top)
                .unwrap()
        };

        // Step 1: merge the d routing arrays and d(k-1)+1 hanging subtrees
        // into one virtual super-node, rebuilding the arrays from scratch at
        // every splice.
        let mut elems = self.nodes[top as usize].elems.clone();
        let mut slots = self.nodes[top as usize].children.clone();
        for &child in &path[1..] {
            let pos = slots.iter().position(|&s| s == child).unwrap();
            let ce = self.nodes[child as usize].elems.clone();
            let cs = self.nodes[child as usize].children.clone();
            let mut ne = Vec::new();
            ne.extend_from_slice(&elems[..pos]);
            ne.extend_from_slice(&ce);
            ne.extend_from_slice(&elems[pos..]);
            elems = ne;
            let mut ns = Vec::new();
            ns.extend_from_slice(&slots[..pos]);
            ns.extend_from_slice(&cs);
            ns.extend_from_slice(&slots[pos + 1..]);
            slots = ns;
        }
        assert_eq!(elems.len(), d * km1);
        assert_eq!(slots.len(), d * km1 + 1);

        // Step 2: re-form the nodes in path order; each takes k-1
        // consecutive elements whose span covers its key's gap, consumes the
        // k subtrees between them, and collapses into one subtree.
        for i in 0..d {
            let node = path[i];
            let img = key_image(node + 1, self.k);
            let m = elems.len();
            let gap = elems.iter().filter(|&&e| e < img).count();
            if i + 1 == d {
                // Step 3: the last node takes everything that remains.
                assert_eq!(m, km1);
                self.set_node(node, elems.clone(), slots.clone());
                break;
            }
            let mut candidates: Vec<usize> = (gap.saturating_sub(km1)..=gap.min(m - km1)).collect();
            let a = match policy {
                WindowPolicy::Leftmost => candidates[0],
                WindowPolicy::Rightmost => *candidates.last().unwrap(),
                WindowPolicy::Paper => {
                    // Rule 1: prefer windows whose span avoids the gaps of
                    // the pending path keys (first 8 considered).
                    let pend: Vec<usize> = path[i + 1..]
                        .iter()
                        .take(8)
                        .map(|&p| {
                            let pimg = key_image(p + 1, self.k);
                            elems.iter().filter(|&&e| e < pimg).count()
                        })
                        .collect();
                    let clean = |a: usize| pend.iter().all(|&q| q < a || q > a + km1);
                    if candidates.iter().any(|&a| clean(a)) {
                        candidates.retain(|&a| clean(a));
                    }
                    // Rule 2: centre the window on the own key's gap;
                    // rule 3: tie-break leftmost.
                    let ideal = gap as i64 - (km1 as i64 + 1) / 2;
                    *candidates
                        .iter()
                        .min_by_key(|&&a| ((a as i64 - ideal).abs(), a))
                        .unwrap()
                }
            };
            self.set_node(
                node,
                elems[a..a + km1].to_vec(),
                slots[a..=a + km1].to_vec(),
            );
            let mut ne: Vec<RoutingKey> = elems[..a].to_vec();
            ne.extend_from_slice(&elems[a + km1..]);
            elems = ne;
            let mut ns: Vec<u32> = slots[..a].to_vec();
            ns.push(node);
            ns.extend_from_slice(&slots[a + km1 + 1..]);
            slots = ns;
        }

        // Reattach the fragment where the old top hung.
        let new_top = *path.last().unwrap();
        self.nodes[new_top as usize].parent = anchor;
        if anchor == REF_NIL {
            self.root = new_top;
        } else {
            self.nodes[anchor as usize].children[anchor_slot] = new_top;
        }

        let after = self.link_edges(path);
        let changed = before.iter().filter(|e| !after.contains(e)).count()
            + after.iter().filter(|e| !before.contains(e)).count();
        ((d - 1) as u64, changed as u64)
    }

    fn span(strategy: SplayStrategy) -> usize {
        match strategy {
            SplayStrategy::KSplay => 3,
            SplayStrategy::SemiOnly => 2,
            SplayStrategy::Deep(d) => (d as usize).max(2),
        }
    }

    /// Splays `z` until its parent is `boundary`, re-deriving the access
    /// path from parent pointers on every step.
    pub fn splay_until(
        &mut self,
        z: u32,
        boundary: u32,
        strategy: SplayStrategy,
        policy: WindowPolicy,
    ) -> (u64, u64) {
        let span = Self::span(strategy);
        let (mut rot, mut links) = (0u64, 0u64);
        loop {
            if self.nodes[z as usize].parent == boundary {
                return (rot, links);
            }
            let mut path = vec![z];
            let mut top = z;
            while path.len() < span {
                let q = self.nodes[top as usize].parent;
                if q == boundary {
                    break;
                }
                top = q;
                path.push(q);
            }
            path.reverse();
            let (r, l) = self.restructure(&path, policy);
            rot += r;
            links += l;
        }
    }

    /// The k-ary SplayNet serve discipline (Section 4.1): charge the current
    /// distance, splay `u` into the LCA's position, then splay `v` until it
    /// is `u`'s child. Returns (routing, rotations, links changed).
    pub fn serve(
        &mut self,
        u: NodeKey,
        v: NodeKey,
        strategy: SplayStrategy,
        policy: WindowPolicy,
    ) -> (u64, u64, u64) {
        let nu = u - 1;
        let nv = v - 1;
        let routing = self.distance(nu, nv);
        if nu == nv {
            return (0, 0, 0);
        }
        let w = self.lca(nu, nv);
        let (rot, links) = if w == nu {
            self.splay_until(nv, nu, strategy, policy)
        } else if w == nv {
            self.splay_until(nu, nv, strategy, policy)
        } else {
            let boundary = self.nodes[w as usize].parent;
            let (r1, l1) = self.splay_until(nu, boundary, strategy, policy);
            let (r2, l2) = self.splay_until(nv, nu, strategy, policy);
            (r1 + r2, l1 + l2)
        };
        (routing, rot, links)
    }
}

/// Asserts the production tree and the oracle agree on every piece of
/// per-node state: parent, child slots, routing elements.
pub fn assert_same_state(t: &KstTree, oracle: &RefKstTree, ctx: &str) {
    assert_eq!(t.root(), oracle.root, "{ctx}: roots differ");
    for v in t.nodes() {
        let o = &oracle.nodes[v as usize];
        assert_eq!(t.parent(v), o.parent, "{ctx}: key {} parent differs", v + 1);
        assert_eq!(
            t.children(v),
            &o.children[..],
            "{ctx}: key {} child slots differ",
            v + 1
        );
        assert_eq!(
            t.elems(v),
            &o.elems[..],
            "{ctx}: key {} routing elements differ",
            v + 1
        );
    }
}
