//! Property tests for the metrics algebra behind sharded serving:
//! `Metrics::merge` must be a commutative monoid (associative,
//! commutative, `Metrics::default()` identity), folding per-request
//! singletons through `merge` must equal the sequential `absorb` fold,
//! and both must agree with the `ServeCost` monoid they are built on —
//! that algebra is what lets per-shard partials reduce to unsharded
//! totals in any grouping.

use ksan::prelude::*;
use proptest::prelude::*;

type Fields = (u64, u64, u64, u64, u64, u64);

fn metrics(
    (requests, routing, rotations, links_changed, rebuild_patches, rebuild_nodes): Fields,
) -> Metrics {
    Metrics {
        requests,
        routing,
        rotations,
        links_changed,
        rebuild_patches,
        rebuild_nodes,
    }
}

fn merged(a: &Metrics, b: &Metrics) -> Metrics {
    let mut m = *a;
    m.merge(b);
    m
}

type CostFields = (u64, u64, u64, u64, u64);

/// Up to 40 per-request costs, each field capped so their sum cannot
/// overflow u64.
fn arb_costs() -> impl Strategy<Value = Vec<CostFields>> {
    let f = 0u64..1 << 30;
    proptest::collection::vec((f.clone(), f.clone(), f.clone(), f.clone(), f), 0..40)
}

fn serve_costs(fields: Vec<CostFields>) -> Vec<ServeCost> {
    fields
        .into_iter()
        .map(
            |(routing, rotations, links_changed, rebuild_patches, rebuild_nodes)| ServeCost {
                routing,
                rotations,
                links_changed,
                rebuild_patches,
                rebuild_nodes,
            },
        )
        .collect()
}

/// Field values capped so chains of merges can never overflow u64.
fn arb_fields() -> impl Strategy<Value = Fields> {
    let f = 0u64..1 << 40;
    (f.clone(), f.clone(), f.clone(), f.clone(), f.clone(), f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merge_is_commutative(a in arb_fields(), b in arb_fields()) {
        let (a, b) = (metrics(a), metrics(b));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    #[test]
    fn merge_is_associative(a in arb_fields(), b in arb_fields(), c in arb_fields()) {
        let (a, b, c) = (metrics(a), metrics(b), metrics(c));
        prop_assert_eq!(
            merged(&merged(&a, &b), &c),
            merged(&a, &merged(&b, &c))
        );
    }

    #[test]
    fn default_is_the_identity(a in arb_fields()) {
        let a = metrics(a);
        prop_assert_eq!(merged(&a, &Metrics::default()), a);
        prop_assert_eq!(merged(&Metrics::default(), &a), a);
    }

    #[test]
    fn serve_cost_sum_equals_sequential_add_assign(costs in arb_costs()) {
        let costs = serve_costs(costs);
        let mut sequential = ServeCost::default();
        for &c in &costs {
            sequential += c;
        }
        prop_assert_eq!(costs.iter().copied().sum::<ServeCost>(), sequential);
        prop_assert_eq!(costs.iter().rev().copied().sum::<ServeCost>(), sequential);
    }

    #[test]
    fn absorb_fold_is_a_request_count_plus_the_summed_cost(costs in arb_costs()) {
        let costs = serve_costs(costs);
        let mut m = Metrics::default();
        for &c in &costs {
            m.absorb(c);
        }
        prop_assert_eq!(m.requests, costs.len() as u64);
        prop_assert_eq!(m.cost(), costs.iter().copied().sum::<ServeCost>());
    }

    #[test]
    fn merging_singletons_equals_sequential_absorb(costs in arb_costs()) {
        let costs = serve_costs(costs);
        // Sequential accumulation, as the unsharded runner does it.
        let mut sequential = Metrics::default();
        for &c in &costs {
            sequential.absorb(c);
        }
        // Arbitrary re-grouping: left fold, right fold, pairwise tree.
        let left = costs.iter().fold(Metrics::default(), |acc, &c| {
            merged(&acc, &Metrics::from_cost(c))
        });
        let right = costs.iter().rev().fold(Metrics::default(), |acc, &c| {
            merged(&Metrics::from_cost(c), &acc)
        });
        let mut level: Vec<Metrics> = costs.iter().map(|&c| Metrics::from_cost(c)).collect();
        while level.len() > 1 {
            level = level
                .chunks(2)
                .map(|pair| {
                    if pair.len() == 2 {
                        merged(&pair[0], &pair[1])
                    } else {
                        pair[0]
                    }
                })
                .collect();
        }
        let tree = level.first().copied().unwrap_or_default();
        prop_assert_eq!(left, sequential);
        prop_assert_eq!(right, sequential);
        prop_assert_eq!(tree, sequential);
        prop_assert_eq!(sequential.requests, costs.len() as u64);
    }
}
