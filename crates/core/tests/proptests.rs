//! Property-based tests for the core test-generation crate: bitset algebra,
//! coverage invariants, greedy-selection guarantees, protocol round trips,
//! replay verdicts and the suite decoder's answers to hostile streams.

use dnnip_accel::ip::FloatIp;
use dnnip_core::bitset::Bitset;
use dnnip_core::coverage::{CoverageConfig, EpsilonPolicy};
use dnnip_core::criterion::{
    builtin_criteria, criterion_digest, CoverageCriterion, NeuronActivation, ParamGradient,
    TopKNeuron,
};
use dnnip_core::eval::Evaluator;
use dnnip_core::generator::GenerationMethod;
use dnnip_core::par::ExecPolicy;
use dnnip_core::protocol::FunctionalTestSuite;
use dnnip_core::select::{greedy_select_covered, greedy_select_naive, SelectionResult};
use dnnip_core::workspace::{TestGenReport, TestGenRequest, Workspace, WorkspaceConfig};
use dnnip_faults::attacks::{Attack, RandomPerturbation};
use dnnip_faults::detection::MatchPolicy;
use dnnip_nn::batch::BatchGradientEngine;
use dnnip_nn::layers::Activation;
use dnnip_nn::{zoo, Network};
use dnnip_tensor::hash::checksum;
use dnnip_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bitset_from_indices(len: usize, indices: &[usize]) -> Bitset {
    let mut b = Bitset::new(len);
    for &i in indices {
        b.set(i % len.max(1));
    }
    b
}

/// The lazy greedy selection ([`greedy_select_covered`]) over dense sets.
fn lazy_greedy(sets: &[Bitset], len: usize, budget: usize) -> SelectionResult {
    let sets: Vec<std::sync::Arc<Bitset>> = sets.iter().cloned().map(std::sync::Arc::new).collect();
    greedy_select_covered(&sets, len, budget).unwrap()
}

/// Strategy producing a family of bitsets over a shared length.
fn bitset_family() -> impl Strategy<Value = (usize, Vec<Vec<usize>>)> {
    (16usize..200).prop_flat_map(|len| {
        (
            Just(len),
            prop::collection::vec(prop::collection::vec(0..len, 0..len / 2), 1..12),
        )
    })
}

/// Strategy for the covered-set properties: lengths from a few words to past
/// 8192 bits, and member sets spanning the density spectrum (empty, sparse,
/// dense, all-ones).
fn covered_family() -> impl Strategy<Value = (usize, Vec<Vec<usize>>)> {
    covered_len().prop_flat_map(|len| (Just(len), prop::collection::vec(covered_member(len), 1..6)))
}

/// [`covered_family`]'s lengths.
fn covered_len() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..90, 4090usize..4110, 8185usize..8205, 500usize..3000,]
}

/// One of [`covered_family`]'s member sets over `len` positions.
fn covered_member(len: usize) -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![
        // Sparse.
        prop::collection::vec(0..len, 0..24),
        // Dense.
        prop::collection::vec(0..len, 0..len.min(1600)),
        // Full: every position.
        Just((0..len).collect::<Vec<usize>>()),
    ]
}

/// Candidate pools for budget sweeps: [`covered_member`]'s sets, weighted
/// towards sparse ones so that most selections run many rounds before no
/// candidate adds coverage.
fn sweep_pool() -> impl Strategy<Value = (usize, Vec<Vec<usize>>)> {
    covered_len().prop_flat_map(|len| {
        let sparse = || prop::collection::vec(0..len, 0..24);
        let member = prop_oneof![
            sparse(),
            sparse(),
            sparse(),
            sparse(),
            sparse(),
            covered_member(len)
        ];
        (Just(len), prop::collection::vec(member, 1..32))
    })
}

/// A criterion that looks its covered sets up in a table: the one-element
/// sample `[i]` covers `table[i]`. It drives any family of sets through a
/// workspace's evaluator, cache and selection.
#[derive(Debug)]
struct TableCriterion {
    len: usize,
    table: Vec<Bitset>,
}

impl CoverageCriterion for TableCriterion {
    fn id(&self) -> &'static str {
        "test-table"
    }

    fn config_digest(&self) -> u64 {
        0x7ab1e
    }

    fn num_units(&self, _network: &Network) -> usize {
        self.len
    }

    fn covered_units(
        &self,
        _engine: &BatchGradientEngine,
        chunk: &[Tensor],
    ) -> dnnip_core::Result<Vec<Bitset>> {
        Ok(chunk
            .iter()
            .map(|sample| self.table[sample.data()[0] as usize].clone())
            .collect())
    }
}

/// Coverage-curve bits, so curves compare exactly.
fn curve_bits(curve: &[f32]) -> Vec<u32> {
    curve.iter().map(|c| c.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn union_gain_matches_count_difference((len, families) in bitset_family()) {
        let sets: Vec<Bitset> = families.iter().map(|f| bitset_from_indices(len, f)).collect();
        let mut union = Bitset::new(len);
        for set in &sets {
            let before = union.count_ones();
            let gain = union.union_gain(set);
            union.union_with(set);
            prop_assert_eq!(union.count_ones(), before + gain);
        }
        // The union is at least as large as any member and at most the sum.
        let max_member = sets.iter().map(Bitset::count_ones).max().unwrap_or(0);
        let sum: usize = sets.iter().map(Bitset::count_ones).sum();
        prop_assert!(union.count_ones() >= max_member);
        prop_assert!(union.count_ones() <= sum.min(len));
    }

    #[test]
    fn iter_ones_matches_the_per_bit_reference((len, families) in bitset_family()) {
        // The word-wise `trailing_zeros` walk must enumerate exactly the
        // positions the bounds-checked per-bit probe enumerates, in order —
        // including sets with dense words, empty words and a ragged tail.
        for family in &families {
            let set = bitset_from_indices(len, family);
            let word_wise: Vec<usize> = set.iter_ones().collect();
            let per_bit: Vec<usize> = (0..set.len()).filter(|&i| set.get(i)).collect();
            prop_assert_eq!(&word_wise, &per_bit);
            prop_assert_eq!(word_wise.len(), set.count_ones());
            // All-set and empty extremes over the same length.
            let full = bitset_from_indices(len, &(0..len).collect::<Vec<_>>());
            prop_assert_eq!(full.iter_ones().count(), len);
            prop_assert_eq!(Bitset::new(len).iter_ones().count(), 0);
        }
    }

    #[test]
    fn greedy_selection_is_within_budget_and_monotone((len, families) in bitset_family()) {
        let sets: Vec<Bitset> = families.iter().map(|f| bitset_from_indices(len, f)).collect();
        let budget = 1 + families.len() / 2;
        let result = lazy_greedy(&sets, len, budget);
        prop_assert!(result.selected.len() <= budget);
        prop_assert_eq!(result.selected.len(), result.coverage_curve.len());
        for w in result.coverage_curve.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
        // Greedy never selects a candidate twice.
        let mut seen = result.selected.clone();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), result.selected.len());
    }

    #[test]
    fn lazy_greedy_equals_naive_greedy((len, families) in bitset_family()) {
        let sets: Vec<Bitset> = families.iter().map(|f| bitset_from_indices(len, f)).collect();
        let budget = families.len();
        let lazy = lazy_greedy(&sets, len, budget);
        let naive = greedy_select_naive(&sets, len, budget).unwrap();
        prop_assert_eq!(lazy.coverage_curve, naive.coverage_curve);
        prop_assert_eq!(lazy.covered.count_ones(), naive.covered.count_ones());
    }

    #[test]
    fn greedy_first_pick_is_the_densest_candidate((len, families) in bitset_family()) {
        let sets: Vec<Bitset> = families.iter().map(|f| bitset_from_indices(len, f)).collect();
        let best = sets.iter().map(Bitset::count_ones).max().unwrap_or(0);
        if best > 0 {
            let result = lazy_greedy(&sets, len, 1);
            prop_assert_eq!(sets[result.selected[0]].count_ones(), best);
        }
    }

    #[test]
    fn coverage_is_monotone_under_epsilon(seed in 0u64..500, eps in 1e-5f32..0.5) {
        // A stricter epsilon can only reduce the number of activated parameters.
        let net = zoo::tiny_mlp(5, 9, 3, Activation::Tanh, seed).unwrap();
        let sample = Tensor::from_fn(&[5], |i| ((i as u64 + seed) as f32 * 0.3).sin());
        let loose = Evaluator::with_cache_bytes(&net, CoverageConfig {
            epsilon: EpsilonPolicy::RelativeToMax(1e-6),
            ..CoverageConfig::default()
        }, 0);
        let strict = Evaluator::with_cache_bytes(&net, CoverageConfig {
            epsilon: EpsilonPolicy::RelativeToMax(eps),
            ..CoverageConfig::default()
        }, 0);
        let l = loose.coverage_of_sample(&sample).unwrap();
        let s = strict.coverage_of_sample(&sample).unwrap();
        prop_assert!(s <= l + 1e-6, "strict {} vs loose {}", s, l);
    }

    #[test]
    fn set_coverage_dominates_member_coverage(seed in 0u64..200, n in 2usize..6) {
        let net = zoo::tiny_mlp(4, 8, 3, Activation::Relu, seed).unwrap();
        let evaluator = Evaluator::with_cache_bytes(&net, CoverageConfig::default(), 0);
        let samples: Vec<Tensor> = (0..n)
            .map(|i| Tensor::from_fn(&[4], |j| ((i * 4 + j) as f32 + seed as f32).sin()))
            .collect();
        let set_cov = evaluator.coverage_of_set(&samples).unwrap();
        for s in &samples {
            let single = evaluator.coverage_of_sample(s).unwrap();
            prop_assert!(set_cov >= single - 1e-6);
        }
    }

    #[test]
    fn cached_sets_equal_fresh_sets_under_eviction_pressure(
        seed in 0u64..100,
        pool_size in 2usize..12,
        budget_entries in 1usize..5,
        rounds in 1usize..4,
    ) {
        // The cache must be a pure memoization: whatever the byte budget (and
        // therefore however often entries are evicted and recomputed), the
        // returned activation sets are bit-identical to a cache-free evaluator.
        let net = zoo::tiny_mlp(4, 8, 3, Activation::Relu, seed).unwrap();
        let uncached = Evaluator::with_cache_bytes(&net, CoverageConfig::default(), 0);
        let pool: Vec<Tensor> = (0..pool_size)
            .map(|i| Tensor::from_fn(&[4], |j| ((i * 4 + j) as f32 * 0.31 + seed as f32).sin()))
            .collect();
        let fresh = uncached.activation_sets(&pool).unwrap();
        // Budget measured in whole entries — sized from the pool's actual
        // footprints — so eviction pressure scales with the pool: budgets
        // smaller than the pool force constant turnover.
        let entry_sizes: Vec<usize> = fresh.iter().map(|b| b.words().len() * 8 + 96).collect();
        let entry_bytes = entry_sizes.iter().copied().max().unwrap();
        let budget = entry_bytes * budget_entries;
        let evaluator = Evaluator::with_cache_bytes(&net, CoverageConfig::default(), budget);
        for round in 0..rounds {
            let cached = evaluator.activation_sets(&pool).unwrap();
            prop_assert_eq!(&cached, &fresh, "round {} diverged", round);
            // Interleave single-sample queries to churn the LRU order.
            let probe = &pool[round % pool.len()];
            prop_assert_eq!(
                evaluator.activation_set(probe).unwrap(),
                uncached.activation_set(probe).unwrap()
            );
        }
        let stats = evaluator.cache_stats();
        prop_assert!(stats.bytes <= budget);
        prop_assert!(stats.resident_bytes + stats.entries * 96 == stats.bytes);
        if entry_sizes.iter().sum::<usize>() > budget {
            prop_assert!(stats.evictions > 0, "undersized cache never evicted");
        }
    }

    #[test]
    fn cache_hits_preserve_coverage_numbers(seed in 0u64..100, n in 2usize..8) {
        let net = zoo::tiny_mlp(4, 8, 3, Activation::Relu, seed).unwrap();
        let uncached = Evaluator::with_cache_bytes(&net, CoverageConfig::default(), 0);
        let evaluator = Evaluator::new(&net, CoverageConfig::default());
        let pool: Vec<Tensor> = (0..n)
            .map(|i| Tensor::from_fn(&[4], |j| ((i * 4 + j) as f32 * 0.23 + seed as f32).cos()))
            .collect();
        // First pass populates, second pass must be all hits with exactly the
        // same f32 coverage values as a cache-free evaluator.
        let cold = evaluator.coverage_of_set(&pool).unwrap();
        let warm = evaluator.coverage_of_set(&pool).unwrap();
        prop_assert_eq!(cold.to_bits(), warm.to_bits());
        prop_assert_eq!(cold.to_bits(), uncached.coverage_of_set(&pool).unwrap().to_bits());
        let stats = evaluator.cache_stats();
        prop_assert_eq!(stats.misses as usize, n);
        prop_assert_eq!(stats.hits as usize, n);
    }

    #[test]
    fn every_criterion_coverage_is_monotone_under_sample_union(
        seed in 0u64..100,
        n in 2usize..8,
        split in 1usize..7,
    ) {
        // For any criterion, adding samples to a test set can only add covered
        // units: coverage(S) <= coverage(S ∪ T), exactly (bitwise union).
        let net = zoo::tiny_mlp(4, 8, 3, Activation::Relu, seed).unwrap();
        let pool: Vec<Tensor> = (0..n)
            .map(|i| Tensor::from_fn(&[4], |j| ((i * 4 + j) as f32 * 0.29 + seed as f32).sin()))
            .collect();
        let k = split.min(n - 1);
        for criterion in builtin_criteria(&CoverageConfig::default()) {
            let evaluator = Evaluator::with_criterion(
                &net,
                CoverageConfig::default(),
                criterion.clone(),
            );
            let subset = evaluator.coverage_of_set(&pool[..k]).unwrap();
            let full = evaluator.coverage_of_set(&pool).unwrap();
            prop_assert!(
                full >= subset,
                "{}: union coverage {} < subset coverage {}",
                criterion.id(), full, subset
            );
            // Per-sample sets are subsets of the union too.
            let sets = evaluator.activation_sets(&pool).unwrap();
            let mut union = Bitset::new(evaluator.num_units());
            for s in &sets {
                union.union_with(s);
            }
            for s in &sets {
                prop_assert_eq!(union.union_gain(s), 0);
            }
        }
    }

    #[test]
    fn criterion_digests_track_config_changes(
        threshold_a in 0.0f32..2.0,
        threshold_b in 0.0f32..2.0,
        k_a in 1usize..64,
        k_b in 1usize..64,
        eps_a in 1e-6f32..0.5,
        eps_b in 1e-6f32..0.5,
    ) {
        // The evaluator cache key must change whenever the criterion config
        // changes — equal configs hash equal, different configs hash different.
        let na = NeuronActivation { threshold: threshold_a };
        let nb = NeuronActivation { threshold: threshold_b };
        prop_assert_eq!(
            na.config_digest() == nb.config_digest(),
            threshold_a.to_bits() == threshold_b.to_bits()
        );
        let ta = TopKNeuron { k: k_a };
        let tb = TopKNeuron { k: k_b };
        prop_assert_eq!(ta.config_digest() == tb.config_digest(), k_a == k_b);
        let pa = ParamGradient {
            epsilon: EpsilonPolicy::Absolute(eps_a),
            projection: Default::default(),
        };
        let pb = ParamGradient {
            epsilon: EpsilonPolicy::Absolute(eps_b),
            projection: Default::default(),
        };
        prop_assert_eq!(
            pa.config_digest() == pb.config_digest(),
            eps_a.to_bits() == eps_b.to_bits()
        );
        // Cross-criterion keys never collide even when raw config digests do:
        // the cache key mixes in the criterion id.
        prop_assert_ne!(criterion_digest(&na), criterion_digest(&ta));
        prop_assert_ne!(criterion_digest(&na), criterion_digest(&pa));
        prop_assert_ne!(criterion_digest(&ta), criterion_digest(&pa));
    }

    #[test]
    fn evaluator_golden_outputs_match_direct_inference(seed in 0u64..100, n in 1usize..6) {
        // Golden outputs fan out over the evaluator's workers; each must be
        // the single-sample forward pass, bit for bit, in input order.
        let net = zoo::tiny_mlp(4, 6, 3, Activation::Relu, seed).unwrap();
        let evaluator = Evaluator::new(
            &net,
            CoverageConfig {
                exec: ExecPolicy::Threads(2),
                ..CoverageConfig::default()
            },
        );
        let inputs: Vec<Tensor> = (0..n)
            .map(|i| Tensor::from_fn(&[4], |j| ((i * 4 + j) as f32 * 0.37 + seed as f32).cos()))
            .collect();
        let outputs = evaluator.forward_outputs(&inputs).unwrap();
        prop_assert_eq!(outputs.len(), n);
        for (x, golden) in inputs.iter().zip(&outputs) {
            prop_assert_eq!(golden, &net.forward_sample(x).unwrap());
        }
    }

    #[test]
    fn quantized_round_trip_drift_is_bounded_by_half_step(seed in 0u64..300) {
        // The int8 round trip an accelerator IP runs may move each
        // parameter by at most half a quantization step of its own segment
        // (symmetric rounding), and must leave the layout intact.
        use dnnip_accel::ip::AcceleratorIp;
        use dnnip_accel::quant::{BitWidth, QuantScale};
        let net = zoo::tiny_mlp(4, 8, 3, Activation::Tanh, seed).unwrap();
        let rt = AcceleratorIp::from_network(&net, BitWidth::Int8)
            .effective_network()
            .unwrap();
        let before = net.parameters_flat();
        let after = rt.parameters_flat();
        prop_assert_eq!(before.len(), after.len());
        for seg in net.param_layout().segments() {
            let orig = &before[seg.offset..seg.offset + seg.len];
            let scale = QuantScale::fit(orig, BitWidth::Int8);
            for (o, a) in orig.iter().zip(&after[seg.offset..seg.offset + seg.len]) {
                prop_assert!(
                    (o - a).abs() <= scale.scale * 0.5 + 1e-6,
                    "parameter {} drifted to {} with step {}",
                    o, a, scale.scale
                );
            }
        }
        // Int8 coverage is an evaluator over the round-tripped model, and
        // stays a valid fraction on it.
        let evaluator = Evaluator::with_criterion_cache_bytes(
            &rt,
            CoverageConfig::default(),
            std::sync::Arc::new(NeuronActivation::default()),
            0,
        );
        let sample = Tensor::from_fn(&[4], |i| ((i as u64 + seed) as f32 * 0.3).sin());
        let cov = evaluator.coverage_of_sample(&sample).unwrap();
        prop_assert!((0.0..=1.0).contains(&cov));
    }

    #[test]
    fn suite_serialization_round_trips(seed in 0u64..300, n in 1usize..6, tol in 1e-6f32..1e-2) {
        let net = zoo::tiny_mlp(4, 6, 3, Activation::Relu, seed).unwrap();
        let inputs: Vec<Tensor> = (0..n)
            .map(|i| Tensor::from_fn(&[4], |j| ((i * 4 + j) as f32 * 0.21 + seed as f32).cos()))
            .collect();
        let suite = FunctionalTestSuite::from_network(
            &net,
            inputs,
            MatchPolicy::OutputTolerance(tol),
        )
        .unwrap();
        let restored = FunctionalTestSuite::from_bytes(&suite.to_bytes()).unwrap();
        prop_assert_eq!(restored, suite);
    }

    #[test]
    fn covered_encoding_round_trips_and_rejects_truncation((len, families) in covered_family()) {
        for family in &families {
            let set = bitset_from_indices(len, family);
            let mut bytes = Vec::new();
            set.encode(&mut bytes);
            prop_assert_eq!(bytes.len(), 8 + set.words().len() * 8);
            prop_assert_eq!(Bitset::decode(&bytes), Some(set.clone()));
            // Structural validation: a truncated or padded payload is
            // rejected rather than misread.
            prop_assert!(Bitset::decode(&bytes[..bytes.len() - 1]).is_none());
            let mut padded = bytes.clone();
            padded.push(0);
            prop_assert!(Bitset::decode(&padded).is_none());
        }
    }

    #[test]
    fn covered_payload_round_trips_at_every_length(
        words in prop::collection::vec(0u64..u64::MAX, 4..5),
    ) {
        for len in 0..=200usize {
            let mut words = words[..len.div_ceil(64)].to_vec();
            let tail = len % 64;
            if tail != 0 {
                *words.last_mut().unwrap() &= (1u64 << tail) - 1;
            }
            let set = Bitset::from_words(words.clone(), len).expect("no stray bits");
            let mut bytes = Vec::new();
            set.encode(&mut bytes);
            prop_assert_eq!(bytes.len(), 8 + 8 * len.div_ceil(64));
            prop_assert_eq!(Bitset::decode(&bytes), Some(set), "len {}", len);
            if tail != 0 {
                // A bit past the length, in the payload or in the words, is
                // rejected.
                let last = bytes.len() - 8;
                for bit in tail..64 {
                    let mut stray = bytes.clone();
                    stray[last + bit / 8] |= 1 << (bit % 8);
                    prop_assert!(Bitset::decode(&stray).is_none(), "len {} bit {}", len, bit);
                }
                let mut high = words;
                *high.last_mut().unwrap() |= 1 << 63;
                prop_assert!(Bitset::from_words(high, len).is_none());
            }
        }
    }

    #[test]
    fn covered_payload_decode_survives_arbitrary_bytes(
        claimed_len in prop_oneof![0u64..300, 0u64..u64::MAX],
        body in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..64),
    ) {
        // Arbitrary bytes behind an arbitrary (often plausible) length field:
        // the decoder returns `None` or a set that re-encodes to the input.
        let mut bytes = claimed_len.to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        for input in [&bytes[..], &body[..]] {
            if let Some(set) = Bitset::decode(input) {
                let mut again = Vec::new();
                set.encode(&mut again);
                prop_assert_eq!(&again[..], input);
                prop_assert_eq!(set.words().len(), set.len().div_ceil(64));
            }
        }
    }

    #[test]
    fn budget_sweep_resumes_to_fresh_selections(
        (len, families) in sweep_pool(),
        budget_fractions in prop::collection::vec(0usize..1000, 1..12),
        evicting in 0u8..2,
    ) {
        // Pool A is the table in order, pool B the same sets reversed: the
        // same handles in another order, which must not resume A's selection.
        let table: Vec<Bitset> = families.iter().map(|f| bitset_from_indices(len, f)).collect();
        // Budgets from 1 to two past the length of the full selection:
        // ascending, descending and repeated steps, and budgets past the
        // point where no candidate adds coverage.
        let full = greedy_select_naive(&table, len, table.len()).unwrap().selected.len();
        let budgets: Vec<usize> = budget_fractions
            .iter()
            .map(|f| 1 + f * (full + 2) / 1000)
            .collect();
        let sample = |i: usize| Tensor::from_vec(vec![i as f32], &[1]).unwrap();
        let pool_a: Vec<usize> = (0..table.len()).collect();
        let pool_b: Vec<usize> = pool_a.iter().rev().copied().collect();
        // An evicting cache holds about half the pool, so sets are dropped
        // and recomputed (new handles) between calls.
        let cache_bytes = if evicting == 1 {
            let bytes: usize = table.iter().map(|b| b.words().len() * 8 + 96).sum();
            (bytes / 2).max(1)
        } else {
            WorkspaceConfig::default().cache_bytes
        };
        let ws = Workspace::with_config(WorkspaceConfig {
            cache_bytes,
            ..WorkspaceConfig::default()
        });
        let model = ws.register(
            "table",
            zoo::tiny_mlp(1, 2, 2, Activation::Relu, 3).unwrap(),
            CoverageConfig::default(),
        );
        let criterion = std::sync::Arc::new(TableCriterion { len, table: table.clone() });
        for pool in [&pool_a, &pool_b, &pool_a] {
            let candidates: Vec<Tensor> = pool.iter().map(|&i| sample(i)).collect();
            let sets: Vec<Bitset> = pool.iter().map(|&i| table[i].clone()).collect();
            for &budget in &budgets {
                let request =
                    TestGenRequest::new(model, GenerationMethod::TrainingSetSelection, budget)
                        .with_criterion(criterion.clone())
                        .with_candidates(candidates.clone());
                let report = ws.run(&request).unwrap();
                let fresh = greedy_select_naive(&sets, len, budget).unwrap();
                prop_assert_eq!(&report.selected_indices(), &fresh.selected, "budget {}", budget);
                prop_assert_eq!(
                    curve_bits(&report.tests.coverage_curve),
                    curve_bits(&fresh.coverage_curve)
                );
            }
        }
    }

    #[test]
    fn covered_greedy_selection_equals_dense_greedy((len, families) in covered_family()) {
        use std::sync::Arc;
        let sets: Vec<Bitset> = families.iter().map(|f| bitset_from_indices(len, f)).collect();
        let covered: Vec<Arc<Bitset>> = sets.iter().cloned().map(Arc::new).collect();
        for budget in [1usize, families.len()] {
            // The naive oracle runs on the dense sets.
            let dense_result = greedy_select_naive(&sets, len, budget).unwrap();
            let covered_result = greedy_select_covered(&covered, len, budget).unwrap();
            prop_assert_eq!(&covered_result.selected, &dense_result.selected);
            let dense_bits: Vec<u32> =
                dense_result.coverage_curve.iter().map(|f| f.to_bits()).collect();
            let covered_bits: Vec<u32> =
                covered_result.coverage_curve.iter().map(|f| f.to_bits()).collect();
            prop_assert_eq!(covered_bits, dense_bits);
            prop_assert_eq!(&covered_result.covered, &dense_result.covered);
        }
    }
}

/// One model's Fig. 3 sweep requests: the paper's budgets, plus one past
/// the pool size, under Algorithm 1 and the neuron-coverage baseline.
fn fig3_requests(ws: &Workspace, seed: u64, pool: &[Tensor]) -> Vec<TestGenRequest> {
    let network = zoo::tiny_mlp(6, 32, 4, Activation::Relu, seed).unwrap();
    let model = ws.register("fig3", network, CoverageConfig::default());
    [
        GenerationMethod::TrainingSetSelection,
        GenerationMethod::NeuronCoverageBaseline,
    ]
    .into_iter()
    .flat_map(|method| {
        [1usize, 5, 10, 20, 30, 50]
            .map(|budget| TestGenRequest::new(model, method, budget).with_candidates(pool.to_vec()))
    })
    .collect()
}

/// Selected indices and coverage-curve bits of a report.
fn outcome(report: &TestGenReport) -> (Vec<usize>, Vec<u32>) {
    (
        report.selected_indices(),
        curve_bits(&report.tests.coverage_curve),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn budget_sweep_in_one_workspace_equals_fresh_workspaces(seed in 0u64..1000) {
        let pool: Vec<Tensor> = (0..60)
            .map(|i| {
                Tensor::from_fn(&[6], |j| ((seed as usize * 13 + i * 7 + j) as f32 * 0.37).sin())
            })
            .collect();
        let ws = Workspace::new();
        for request in fig3_requests(&ws, seed, &pool) {
            let swept = outcome(&ws.run(&request).unwrap());
            let fresh_ws = Workspace::new();
            let fresh = fig3_requests(&fresh_ws, seed, &pool)
                .into_iter()
                .find(|r| r.strategy == request.strategy && r.budget == request.budget)
                .unwrap();
            prop_assert_eq!(swept, outcome(&fresh_ws.run(&fresh).unwrap()), "budget {}", request.budget);
        }
    }
}

fn probes(n: usize, dim: usize, seed: u64) -> Vec<Tensor> {
    let value = |i: usize, j: usize| ((i * dim + j) as f32 * 0.17 + seed as f32).sin();
    (0..n)
        .map(|i| Tensor::from_fn(&[dim], |j| value(i, j)))
        .collect()
}

/// Whether replaying `tests`, released on `net` under `policy`, flags `ip`.
fn flags(net: &Network, tests: &[Tensor], policy: MatchPolicy, ip: &FloatIp) -> bool {
    let suite = FunctionalTestSuite::from_network(net, tests.to_vec(), policy).unwrap();
    !suite.validate(ip).unwrap().passed
}

/// `body` behind a correct checksum trailer, so the decoder itself answers.
fn with_checksum(mut body: Vec<u8>) -> Vec<u8> {
    body.extend_from_slice(&checksum(&body).to_le_bytes());
    body
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn unperturbed_ip_is_never_flagged(seed in 0u64..200, n_tests in 1usize..8) {
        let net = zoo::tiny_mlp(5, 8, 3, Activation::Relu, seed).unwrap();
        let ip = FloatIp::new(net.clone());
        let tests = probes(n_tests, 5, seed);
        for policy in [MatchPolicy::ArgMax, MatchPolicy::OutputTolerance(1e-5)] {
            prop_assert!(!flags(&net, &tests, policy, &ip));
        }
    }

    #[test]
    fn argmax_detection_implies_tolerance_detection(seed in 0u64..150) {
        // If the predicted class of some test changed, the raw outputs certainly
        // changed too: ArgMax-detected ⇒ OutputTolerance-detected.
        let net = zoo::tiny_mlp(5, 8, 3, Activation::Relu, seed).unwrap();
        let tests = probes(6, 5, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let p = RandomPerturbation { num_params: 6, std: 1.5 }
            .generate(&net, &[], &mut rng)
            .unwrap();
        let tampered_ip = FloatIp::new(p.apply_to_network(&net).unwrap());
        let by_argmax = flags(&net, &tests, MatchPolicy::ArgMax, &tampered_ip);
        let by_tol = flags(&net, &tests, MatchPolicy::OutputTolerance(1e-6), &tampered_ip);
        prop_assert!(!by_argmax || by_tol);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn suite_decoder_survives_hostile_streams(
        body in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..96),
        field in 0usize..5,
        at in 0usize..4,
        lie in prop_oneof![0u32..6, 0u32..u32::MAX],
    ) {
        // Two tests: inputs of 4 values, golden outputs of 3, all in [1, 2), so
        // a misaligned decoder reads every value word as a count over 10^9.
        let record = |n: usize, salt: usize| {
            Tensor::from_fn(&[n], |j| 1.0 + ((salt * 4 + j) as f32 * 0.37).sin().abs() * 0.9)
        };
        let suite = FunctionalTestSuite {
            inputs: vec![record(4, 0), record(4, 1)],
            golden_outputs: vec![record(3, 2), record(3, 3)],
            policy: MatchPolicy::OutputTolerance(1e-3),
        };
        let bytes = suite.to_bytes();

        // Arbitrary bytes behind a correct checksum, with and without a valid
        // header (magic, version, policy tag, tolerance) in front.
        prop_assert!(FunctionalTestSuite::from_bytes(&with_checksum(body.clone())).is_err());
        let headed = [&bytes[..20], &body].concat();
        prop_assert!(FunctionalTestSuite::from_bytes(&with_checksum(headed)).is_err());

        // One field lying: the policy tag, the record count, or one record's
        // ndim, dim or length. Records start at byte 24; an input record
        // takes 28 bytes, a golden one 24. Only the truth decodes.
        let record_at = 24 + [0, 28, 56, 80][at];
        let offset = [12, 20, record_at, record_at + 4, record_at + 8][field];
        let mut lying = bytes[..bytes.len() - 8].to_vec();
        let truth = u32::from_le_bytes(lying[offset..offset + 4].try_into().unwrap());
        lying[offset..offset + 4].copy_from_slice(&lie.to_le_bytes());
        let decoded = FunctionalTestSuite::from_bytes(&with_checksum(lying));
        prop_assert_eq!(decoded.is_ok(), lie == truth, "lie {} for {} at byte {}", lie, truth, offset);
    }
}

#[test]
fn every_single_bit_flip_of_a_suite_is_rejected() {
    let net = zoo::tiny_mlp(3, 4, 2, Activation::Relu, 5).unwrap();
    let policy = MatchPolicy::OutputTolerance(1e-4);
    let suite = FunctionalTestSuite::from_network(&net, probes(2, 3, 5), policy).unwrap();
    let bytes = suite.to_bytes();
    assert!(FunctionalTestSuite::from_bytes(&bytes).is_ok());
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let accepted = FunctionalTestSuite::from_bytes(&flipped).is_ok();
        assert!(!accepted, "bit {bit} accepted");
    }
}
