//! The combined functional-test generator (paper Section IV-D).
//!
//! Algorithm 1 (training-set selection) is very efficient for the first few tests
//! but saturates; Algorithm 2 (gradient-based synthesis) keeps finding new
//! coverage but its early tests are weaker than real training samples. The
//! combined generator runs Algorithm 1 and switches to Algorithm 2 at the point
//! where the *marginal coverage gain per test* of a synthetic batch exceeds the
//! gain of the best remaining training sample.

use std::sync::Arc;

use dnnip_tensor::Tensor;

use crate::covered::CoveredSet;
use crate::eval::Evaluator;
use crate::gradgen::{GradGenConfig, GradientGenerator};
use crate::{CoreError, Result};

/// Where a generated functional test came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestSource {
    /// Selected from the training set by Algorithm 1 (stores the candidate index).
    TrainingSample(usize),
    /// Synthesized by Algorithm 2 (stores the target class).
    Synthetic(usize),
}

/// Run the combined generator: Algorithm 1 until Algorithm 2 offers a better
/// per-test coverage gain, then Algorithm 2 until `max_tests` tests exist.
/// Returns the tests in generation order with the provenance of each; the
/// first [`TestSource::Synthetic`] entry is the switch point.
///
/// `candidates` is the training set (or a representative subsample of it).
///
/// # Errors
///
/// Returns [`CoreError::EmptyCandidatePool`] when `candidates` is empty and
/// propagates gradient / coverage errors.
pub(crate) fn generate_combined(
    evaluator: &Evaluator,
    candidates: &[Tensor],
    max_tests: usize,
    gradgen: GradGenConfig,
) -> Result<(Vec<Tensor>, Vec<TestSource>)> {
    if candidates.is_empty() {
        return Err(CoreError::EmptyCandidatePool);
    }

    let num_units = evaluator.num_units();
    let candidate_sets = evaluator.activation_sets(candidates)?;
    let mut taken = vec![false; candidates.len()];
    let mut covered = CoveredSet::new(num_units);
    let mut tests: Vec<Tensor> = Vec::with_capacity(max_tests);
    let mut sources: Vec<TestSource> = Vec::with_capacity(max_tests);

    let mut generator = evaluator.gradient_generator(gradgen);
    // One synthetic batch is kept pending: its per-test gain against the current
    // covered set is the "benefit achieved by Algorithm 2" the switch rule
    // compares against. Generating it lazily (only once Algorithm 1 starts
    // saturating would be cheaper, but the paper's rule compares benefits from
    // the start, and one batch of k gradient descents is affordable).
    let mut pending_batch: Vec<(Tensor, usize, Arc<CoveredSet>)> = Vec::new();
    let mut switched = false;

    while tests.len() < max_tests {
        if switched {
            // Algorithm 2 only: add the pending batch (or a fresh one), test by test.
            if pending_batch.is_empty() {
                pending_batch = materialize_batch(&mut generator, evaluator)?;
            }
            let (input, class, set) = pending_batch.remove(0);
            covered.union_with(&set);
            tests.push(input);
            sources.push(TestSource::Synthetic(class));
            continue;
        }

        // Best remaining training candidate (Algorithm 1's next step).
        let mut best: Option<(usize, usize)> = None; // (gain, index)
        for (i, set) in candidate_sets.iter().enumerate() {
            if taken[i] {
                continue;
            }
            let gain = covered.union_gain(set);
            if best.map(|(g, _)| gain > g).unwrap_or(true) {
                best = Some((gain, i));
            }
        }
        let train_gain = best.map(|(g, _)| g).unwrap_or(0);

        // Per-test gain of the pending synthetic batch.
        if pending_batch.is_empty() {
            pending_batch = materialize_batch(&mut generator, evaluator)?;
        }
        let batch_gain: usize = {
            let mut union = covered.clone();
            let mut total = 0usize;
            for (_, _, set) in &pending_batch {
                total += union.union_gain(set);
                union.union_with(set);
            }
            total
        };
        let synthetic_gain_per_test = batch_gain / pending_batch.len().max(1);

        // The paper's switch rule: move to Algorithm 2 once its per-test benefit
        // exceeds Algorithm 1's. Also switch if the training set is exhausted.
        if best.is_none() || synthetic_gain_per_test > train_gain {
            switched = true;
            continue;
        }

        let (_, index) = best.expect("checked above");
        taken[index] = true;
        covered.union_with(&candidate_sets[index]);
        tests.push(candidates[index].clone());
        sources.push(TestSource::TrainingSample(index));
    }
    Ok((tests, sources))
}

fn materialize_batch(
    generator: &mut GradientGenerator,
    evaluator: &Evaluator,
) -> Result<Vec<(Tensor, usize, Arc<CoveredSet>)>> {
    let batch = generator.generate_batch()?;
    // One batched (and possibly multi-threaded) coverage pass over the whole
    // synthetic batch instead of per-input analyses.
    let inputs: Vec<Tensor> = batch.iter().map(|t| t.input.clone()).collect();
    let sets = evaluator.activation_sets(&inputs)?;
    Ok(batch
        .into_iter()
        .zip(sets)
        .map(|(t, set)| (t.input, t.target_class, set))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::CoverageConfig;
    use crate::generator::{GeneratedTests, GenerationMethod};
    use crate::workspace::{TestGenRequest, Workspace};
    use dnnip_nn::layers::Activation;
    use dnnip_nn::zoo;

    fn candidates(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| Tensor::from_fn(&[6], |j| ((i * 6 + j) as f32 * 0.37).sin().max(0.0)))
            .collect()
    }

    /// Run `method` through a fresh workspace's front door.
    fn generate(
        method: GenerationMethod,
        budget: usize,
        pool: Vec<Tensor>,
    ) -> Result<GeneratedTests> {
        let ws = Workspace::new();
        let network = zoo::tiny_mlp(6, 16, 4, Activation::Relu, 17).unwrap();
        let key = ws.register("m", network, CoverageConfig::default());
        Ok(ws
            .run(&TestGenRequest::new(key, method, budget).with_candidates(pool))?
            .tests)
    }

    fn num_synthetic(tests: &GeneratedTests) -> usize {
        tests
            .provenance
            .iter()
            .filter(|s| matches!(s, TestSource::Synthetic(_)))
            .count()
    }

    #[test]
    fn produces_the_requested_number_of_tests() {
        let result = generate(GenerationMethod::Combined, 12, candidates(20)).unwrap();
        assert_eq!(result.inputs.len(), 12);
        assert_eq!(result.provenance.len(), 12);
        assert_eq!(result.coverage_curve.len(), 12);
        assert_eq!(result.pool_indices().len() + num_synthetic(&result), 12);
        // Coverage curve is non-decreasing.
        for w in result.coverage_curve.windows(2) {
            assert!(w[1] >= w[0] - 1e-6);
        }
    }

    #[test]
    fn switches_to_synthesis_when_training_set_saturates() {
        // A tiny, highly redundant candidate pool saturates almost immediately.
        let pool: Vec<Tensor> = vec![candidates(1)[0].clone(); 5];
        let result = generate(GenerationMethod::Combined, 8, pool).unwrap();
        assert!(num_synthetic(&result) > 0, "generator never switched");
        // Once switched, it never goes back to the training set.
        let switch = result
            .provenance
            .iter()
            .position(|s| matches!(s, TestSource::Synthetic(_)))
            .unwrap();
        assert_eq!(num_synthetic(&result), 8 - switch);
        assert_eq!(result.inputs.len(), 8);
    }

    #[test]
    fn combined_matches_or_beats_pure_training_selection() {
        let budget = 10usize;
        let combined = generate(GenerationMethod::Combined, budget, candidates(15)).unwrap();
        let training_only = generate(
            GenerationMethod::TrainingSetSelection,
            budget,
            candidates(15),
        )
        .unwrap();
        assert!(
            combined.final_coverage() >= training_only.final_coverage() - 1e-6,
            "combined {} vs training-only {}",
            combined.final_coverage(),
            training_only.final_coverage()
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            generate(GenerationMethod::Combined, 30, Vec::new()),
            Err(CoreError::EmptyCandidatePool)
        ));
        assert!(generate(GenerationMethod::Combined, 0, candidates(3)).is_err());
    }
}
