//! **k-ary SplayNet** (Section 4.1): the online self-adjusting k-ary search
//! tree network generalizing SplayNet.
//!
//! Upon a request `(u, v)` the network charges the current distance, then
//! moves `u` into the position of `w = LCA(u, v)` with k-splay /
//! k-semi-splay rotations and finally splays `v` until it is a direct child
//! of `u`; the pair ends up adjacent, so repeated requests are served in
//! constant time. This is exactly the SplayNet discipline with the binary
//! rotations replaced by the paper's k-ary ones, which by Theorem 12/13
//! preserves SplayNet's entropy bound.

use crate::key::NodeKey;
use crate::net::{Network, ServeCost};
use crate::reshard::Reshardable;
use crate::restructure::WindowPolicy;
use crate::shape::ShapeTree;
use crate::splay::SplayStrategy;
use crate::tree::{End, KstTree};

/// Online self-adjusting k-ary search tree network.
#[derive(Clone)]
pub struct KSplayNet {
    tree: KstTree,
    strategy: SplayStrategy,
    policy: WindowPolicy,
}

impl KSplayNet {
    /// Starts from the complete (balanced) k-ary search tree on `n` nodes —
    /// the demand-oblivious initial topology used in the paper's
    /// experiments.
    pub fn balanced(k: usize, n: usize) -> KSplayNet {
        KSplayNet::from_tree(KstTree::balanced(k, n))
    }

    /// Starts from an arbitrary initial k-ary search tree. The tree's
    /// scratch arenas are pre-sized for the strategy's path span, so even
    /// the very first serve performs zero heap allocations.
    pub fn from_tree(tree: KstTree) -> KSplayNet {
        let mut net = KSplayNet {
            tree,
            strategy: SplayStrategy::KSplay,
            policy: WindowPolicy::Paper,
        };
        net.tree.reserve_scratch(net.strategy.span());
        net
    }

    /// Overrides the splay strategy (ablation) and re-sizes the scratch
    /// arenas for its path span.
    pub fn with_strategy(mut self, strategy: SplayStrategy) -> KSplayNet {
        self.strategy = strategy;
        self.tree.reserve_scratch(strategy.span());
        self
    }

    /// Overrides the window policy (ablation).
    pub fn with_policy(mut self, policy: WindowPolicy) -> KSplayNet {
        self.policy = policy;
        self
    }

    /// Read access to the underlying tree.
    pub fn tree(&self) -> &KstTree {
        &self.tree
    }

    /// Mutable access to the underlying tree (tests, custom disciplines).
    pub fn tree_mut(&mut self) -> &mut KstTree {
        &mut self.tree
    }

    /// Arity.
    pub fn k(&self) -> usize {
        self.tree.k()
    }

    /// Adjusts the topology for `(u, v)` and returns its cost (`routing`
    /// = 0); the endpoints are adjacent afterwards.
    pub fn adjust(&mut self, u: NodeKey, v: NodeKey) -> ServeCost {
        let nu = self.tree.node_of(u);
        let nv = self.tree.node_of(v);
        if nu == nv {
            return ServeCost::default();
        }
        // As in `serve`: the LCA climb starts the splay paths' rows moving.
        let (_, w) = self.tree.distance_lca(nu, nv);
        self.tree.splay_pair(nu, nv, w, self.strategy, self.policy)
    }
}

impl Network for KSplayNet {
    fn len(&self) -> usize {
        self.tree.n()
    }

    fn distance(&self, u: NodeKey, v: NodeKey) -> u64 {
        self.tree.distance_keys(u, v)
    }

    fn serve(&mut self, u: NodeKey, v: NodeKey) -> ServeCost {
        let nu = self.tree.node_of(u);
        let nv = self.tree.node_of(v);
        if nu == nv {
            return ServeCost::default();
        }
        // Adjacency fast path: when the endpoints already share a link the
        // LCA is the upper endpoint and both splays return without moving
        // anything, so the full discipline provably reduces to a routing
        // charge of one — no depth walks needed. This makes converged
        // hot-pair serves O(1) with two memory reads.
        if self.tree.parent(nv) == nu || self.tree.parent(nu) == nv {
            return ServeCost {
                routing: 1,
                ..ServeCost::default()
            };
        }
        // One pointer chase yields both the routing charge and the splay
        // target, and its climb starts the rows of both splay paths moving,
        // so the splays need not walk them again.
        let (routing, w) = self.tree.distance_lca(nu, nv);
        let adjust = self.tree.splay_pair(nu, nv, w, self.strategy, self.policy);
        ServeCost { routing, ..adjust }
    }

    fn label(&self) -> String {
        format!("{}-ary SplayNet", self.tree.k())
    }

    fn reshardable(&mut self) -> Option<&mut dyn Reshardable> {
        Some(self)
    }
}

impl Reshardable for KSplayNet {
    fn extract_low(&mut self, count: usize) -> (ShapeTree, ServeCost) {
        self.tree.extract_range(1, count as NodeKey)
    }

    fn extract_high(&mut self, count: usize) -> (ShapeTree, ServeCost) {
        let n = self.tree.n();
        self.tree
            .extract_range((n - count + 1) as NodeKey, n as NodeKey)
    }

    fn absorb_low(&mut self, fragment: &ShapeTree) -> ServeCost {
        self.tree.absorb_fragment(End::Low, fragment)
    }

    fn absorb_high(&mut self, fragment: &ShapeTree) -> ServeCost {
        self.tree.absorb_fragment(End::High, fragment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::validate;

    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn serve_makes_endpoints_adjacent() {
        for k in 2..=6 {
            let mut net = KSplayNet::balanced(k, 80);
            let mut x = 42u64;
            for _ in 0..200 {
                let u = (xorshift(&mut x) % 80 + 1) as NodeKey;
                let v = (xorshift(&mut x) % 80 + 1) as NodeKey;
                if u == v {
                    continue;
                }
                net.serve(u, v);
                assert_eq!(net.distance(u, v), 1, "k={k} u={u} v={v}");
            }
            validate(net.tree()).unwrap_or_else(|e| panic!("k={k}: {e}"));
        }
    }

    #[test]
    fn repeated_request_costs_one_hop() {
        let mut net = KSplayNet::balanced(3, 100);
        net.serve(10, 90);
        let c = net.serve(10, 90);
        assert_eq!(c.routing, 1);
        assert_eq!(c.rotations, 0, "already adjacent: no adjustment needed");
    }

    #[test]
    fn higher_k_reduces_routing_cost_on_uniform_traffic() {
        // Section 5.1's headline observation, in miniature.
        let run = |k: usize| -> u64 {
            let mut net = KSplayNet::balanced(k, 128);
            let mut x = 7u64;
            let mut total = 0u64;
            for _ in 0..3000 {
                let u = (xorshift(&mut x) % 128 + 1) as NodeKey;
                let v = (xorshift(&mut x) % 128 + 1) as NodeKey;
                if u == v {
                    continue;
                }
                total += net.serve(u, v).routing;
            }
            total
        };
        let c2 = run(2);
        let c8 = run(8);
        assert!(
            c8 < c2,
            "8-ary should route cheaper than 2-ary on uniform traffic ({c8} vs {c2})"
        );
    }

    #[test]
    fn ancestor_requests_work() {
        let mut net = KSplayNet::balanced(2, 63);
        let root_key = net.tree().key_of(net.tree().root());
        // request where one endpoint is the root (ancestor of everything)
        net.serve(root_key, 1);
        assert_eq!(net.distance(root_key, 1), 1);
        validate(net.tree()).unwrap();
    }

    #[test]
    fn strategies_and_policies_all_serve_correctly() {
        for strategy in [SplayStrategy::KSplay, SplayStrategy::SemiOnly] {
            for policy in [
                WindowPolicy::Paper,
                WindowPolicy::Leftmost,
                WindowPolicy::Rightmost,
            ] {
                let mut net = KSplayNet::balanced(4, 60)
                    .with_strategy(strategy)
                    .with_policy(policy);
                let mut x = 5u64;
                for _ in 0..120 {
                    let u = (xorshift(&mut x) % 60 + 1) as NodeKey;
                    let v = (xorshift(&mut x) % 60 + 1) as NodeKey;
                    if u != v {
                        net.serve(u, v);
                        assert_eq!(net.distance(u, v), 1);
                    }
                }
                validate(net.tree()).unwrap();
            }
        }
    }

    #[test]
    #[should_panic(expected = "key 0 outside keyspace 1..=40")]
    fn serve_rejects_key_zero() {
        KSplayNet::balanced(3, 40).serve(0, 7);
    }

    #[test]
    #[should_panic(expected = "key 41 outside keyspace 1..=40")]
    fn serve_rejects_key_past_n() {
        KSplayNet::balanced(3, 40).serve(7, 41);
    }

    #[test]
    fn nil_boundary_note() {
        // splay-to-root path exercised through serve on shallow trees
        let mut net = KSplayNet::balanced(5, 5);
        for u in 1..=5u32 {
            for v in 1..=5u32 {
                if u != v {
                    net.serve(u, v);
                }
            }
        }
        validate(net.tree()).unwrap();
    }
}
