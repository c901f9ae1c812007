//! Differential harness for the quantized int8 forward path
//! (`ForwardPrecision::QuantizedInt8`, opt-in via `DNNIP_QUANT=1` in the
//! experiment binaries).
//!
//! Pins four contracts across MLP and CNN zoo models:
//!
//! 1. **Off by default, bit for bit.** `ForwardPrecision::Full` (the default)
//!    produces exactly the sets the pre-quantization pipeline produced, for
//!    every criterion.
//! 2. **Gradient criteria never quantize.** The paper's parameter-gradient
//!    metric is defined on the float model; the flag must be a no-op for it.
//! 3. **The quantized path evaluates the accelerator's model.** Forward-only
//!    criteria under `QuantizedInt8` must agree bit-for-bit with a
//!    full-precision evaluator over `round_trip_network` — the same
//!    per-segment fitting `WeightMemory`/`AcceleratorIp` applies.
//! 4. **Bounded drift.** Coverage fractions under quantization stay valid and
//!    close to the full-precision fractions on well-conditioned models.

use std::sync::Arc;

mod common;

use common::{seeded_inputs, zoo_networks};
use dnnip::accel::quant::{round_trip_network, BitWidth};
use dnnip::core::coverage::{CoverageConfig, ForwardPrecision};
use dnnip::core::criterion::builtin_criteria;
use dnnip::core::eval::Evaluator;
use dnnip::prelude::*;

fn quant_config() -> CoverageConfig {
    CoverageConfig {
        precision: ForwardPrecision::QuantizedInt8,
        ..CoverageConfig::default()
    }
}

/// A budget-0 evaluator under `criterion`: every call computes afresh.
fn uncached(
    net: &Network,
    config: CoverageConfig,
    criterion: Arc<dyn CoverageCriterion>,
) -> Evaluator {
    Evaluator::with_criterion_cache_bytes(net, config, criterion, 0)
}

#[test]
fn full_precision_default_is_unchanged_for_every_criterion() {
    for (name, net) in zoo_networks() {
        let pool = seeded_inputs(&net, 8, 3);
        for criterion in builtin_criteria(&CoverageConfig::default()) {
            let default_cfg =
                Evaluator::with_criterion(&net, CoverageConfig::default(), criterion.clone());
            let explicit_full = Evaluator::with_criterion(
                &net,
                CoverageConfig {
                    precision: ForwardPrecision::Full,
                    ..CoverageConfig::default()
                },
                criterion.clone(),
            );
            assert!(!default_cfg.quantized_forward());
            assert_eq!(
                default_cfg.activation_sets(&pool).unwrap(),
                explicit_full.activation_sets(&pool).unwrap(),
                "{name}/{}",
                criterion.id()
            );
        }
    }
}

#[test]
fn gradient_criteria_ignore_the_quantization_flag() {
    for (name, net) in zoo_networks() {
        let pool = seeded_inputs(&net, 8, 7);
        let full = Evaluator::new(&net, CoverageConfig::default());
        let flagged = Evaluator::new(&net, quant_config());
        assert!(
            !flagged.quantized_forward(),
            "{name}: gradient criterion must not take the quantized path"
        );
        assert_eq!(
            full.activation_sets(&pool).unwrap(),
            flagged.activation_sets(&pool).unwrap(),
            "{name}: flag changed param-gradient sets"
        );
    }
}

#[test]
fn quantized_forward_only_criteria_evaluate_the_round_tripped_network() {
    for (name, net) in zoo_networks() {
        let pool = seeded_inputs(&net, 8, 11);
        let rt = round_trip_network(&net, BitWidth::Int8).unwrap();
        for criterion in builtin_criteria(&CoverageConfig::default()) {
            if !criterion.forward_only() {
                continue;
            }
            let quant = uncached(&net, quant_config(), criterion.clone());
            assert!(quant.quantized_forward(), "{name}/{}", criterion.id());
            let on_rt = uncached(&rt, CoverageConfig::default(), criterion.clone());
            let a = quant.activation_sets(&pool).unwrap();
            let b = on_rt.activation_sets(&pool).unwrap();
            assert_eq!(a, b, "{name}/{}", criterion.id());
            // Batched-vs-reference differential holds on the quantized model.
            for (i, x) in pool.iter().enumerate() {
                assert_eq!(
                    a[i],
                    quant.activation_set_reference(x).unwrap(),
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
        for criterion in builtin_criteria(&CoverageConfig::default()) {
            if !criterion.forward_only() {
                continue;
            }
            let full = uncached(&net, CoverageConfig::default(), criterion.clone());
            let quant = uncached(&net, quant_config(), criterion.clone());
            let c_full = full.coverage_of_set(&pool).unwrap();
            let c_quant = quant.coverage_of_set(&pool).unwrap();
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
    for criterion in builtin_criteria(&CoverageConfig::default()) {
        if !criterion.forward_only() {
            continue;
        }
        let full = Evaluator::with_criterion(&net, CoverageConfig::default(), criterion.clone());
        let quant = Evaluator::with_criterion(&net, quant_config(), criterion.clone());
        // Warm both caches, then re-query: each evaluator must keep returning
        // its own sets even though both saw the same samples and network.
        let a1 = full.activation_sets(&pool).unwrap();
        let b1 = quant.activation_sets(&pool).unwrap();
        let a2 = full.activation_sets(&pool).unwrap();
        let b2 = quant.activation_sets(&pool).unwrap();
        assert_eq!(a1, a2, "{}", criterion.id());
        assert_eq!(b1, b2, "{}", criterion.id());
        // And the quantized sets are genuinely computed on a different model
        // (equality would mean the cache key collided back to full precision
        // or the round-trip was a no-op — both wrong for a real CNN).
        assert_ne!(
            a1,
            b1,
            "{}: quantized sets alias full-precision sets",
            criterion.id()
        );
    }
}
