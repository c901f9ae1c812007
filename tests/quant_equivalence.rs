//! Int8 coverage is the float pipeline run on the int8 round-tripped model.
//!
//! The accelerator IP runs the network's parameters after an int8 round trip
//! (`round_trip_network`, the same per-segment fitting
//! `WeightMemory`/`AcceleratorIp` applies). Its coverage is not a mode of
//! the evaluator: it is an evaluator, or a registered workspace model, over
//! that network. Pins three contracts across MLP and CNN zoo models:
//!
//! 1. **The round-tripped model evaluates like any other.** For every
//!    built-in criterion, the batched evaluator over `round_trip_network`
//!    agrees bit for bit with the per-sample reference oracle on it.
//! 2. **Bounded drift.** Coverage fractions of the round-tripped model stay
//!    valid and close to the float model's on well-conditioned models.
//! 3. **Separate cache entries.** Registered side by side in one
//!    `Workspace`, the two models have different fingerprints, and their
//!    cached sets never alias each other.

use std::sync::Arc;

mod common;

use common::{seeded_inputs, zoo_networks};
use dnnip::accel::quant::{round_trip_network, BitWidth};
use dnnip::core::coverage::CoverageConfig;
use dnnip::core::criterion::builtin_criteria;
use dnnip::core::eval::Evaluator;
use dnnip::core::workspace::{CriterionSpec, Workspace};
use dnnip::prelude::*;

/// A budget-0 evaluator under `criterion`: every call computes afresh.
fn uncached(net: &Network, criterion: Arc<dyn CoverageCriterion>) -> Evaluator {
    Evaluator::with_criterion_cache_bytes(net, CoverageConfig::default(), criterion, 0)
}

fn int8(net: &Network) -> Network {
    round_trip_network(net, BitWidth::Int8).unwrap()
}

#[test]
fn round_tripped_networks_match_the_reference_for_every_criterion() {
    for (name, net) in zoo_networks() {
        let pool = seeded_inputs(&net, 8, 11);
        let rt = int8(&net);
        for criterion in builtin_criteria(&CoverageConfig::default()) {
            let on_rt = uncached(&rt, criterion.clone());
            let sets = on_rt.activation_sets(&pool).unwrap();
            for (i, x) in pool.iter().enumerate() {
                assert_eq!(
                    *sets[i],
                    on_rt.activation_set_reference(x).unwrap(),
                    "{name}/{} sample {i}",
                    criterion.id()
                );
            }
        }
    }
}

#[test]
fn quantized_coverage_drift_is_bounded() {
    for (name, net) in zoo_networks() {
        let pool = seeded_inputs(&net, 12, 13);
        let rt = int8(&net);
        for criterion in builtin_criteria(&CoverageConfig::default()) {
            let c_full = uncached(&net, criterion.clone())
                .coverage_of_set(&pool)
                .unwrap();
            let c_quant = uncached(&rt, criterion.clone())
                .coverage_of_set(&pool)
                .unwrap();
            assert!((0.0..=1.0).contains(&c_quant), "{name}/{}", criterion.id());
            // Int8 round-trips move each parameter by at most half a step of
            // its segment; on these well-conditioned zoo models the covered
            // fraction cannot swing wildly.
            assert!(
                (c_full - c_quant).abs() <= 0.25,
                "{name}/{}: full {c_full} vs quant {c_quant}",
                criterion.id()
            );
        }
    }
}

#[test]
fn quantized_and_full_evaluators_share_a_cache_without_aliasing() {
    let (_, net) = zoo_networks().remove(2);
    let pool = seeded_inputs(&net, 6, 17);
    let ws = Workspace::new();
    let float_model = ws.register("float", net.clone(), CoverageConfig::default());
    let int8_model = ws.register("int8", int8(&net), CoverageConfig::default());
    assert_ne!(
        float_model, int8_model,
        "the round trip must change the fingerprint"
    );
    for criterion in builtin_criteria(&CoverageConfig::default()) {
        let spec = CriterionSpec::Instance(criterion.clone());
        let full = ws.evaluator(float_model, &spec).unwrap();
        let quant = ws.evaluator(int8_model, &spec).unwrap();
        // Warm both, then re-query: each evaluator must keep returning its
        // own sets even though both share one cache and saw the same
        // samples.
        let a1 = full.activation_sets(&pool).unwrap();
        let b1 = quant.activation_sets(&pool).unwrap();
        let a2 = full.activation_sets(&pool).unwrap();
        let b2 = quant.activation_sets(&pool).unwrap();
        assert_eq!(a1, a2, "{}", criterion.id());
        assert_eq!(b1, b2, "{}", criterion.id());
        // And the int8 sets are genuinely computed on a different model
        // (equality would mean the cache keys collided or the round trip was
        // a no-op — both wrong for a real CNN).
        assert_ne!(a1, b1, "{}: int8 sets alias float sets", criterion.id());
    }
}
