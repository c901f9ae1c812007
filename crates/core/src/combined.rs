//! The combined functional-test generator (paper Section IV-D).
//!
//! Algorithm 1 (training-set selection) is very efficient for the first few tests
//! but saturates; Algorithm 2 (gradient-based synthesis) keeps finding new
//! coverage but its early tests are weaker than real training samples. The
//! combined generator runs Algorithm 1 until Algorithm 2's per-test benefit
//! exceeds it: it switches when a pending synthetic batch's union gain over
//! the covered set exceeds `pool_gain × batch_len` (exact, no division), or
//! when no candidate adds coverage. Its pool picks are the evaluator's
//! resumable greedy selection (`Evaluator::greedy_select`), so a following
//! `TrainingSetSelection` on the same pool resumes it.

use dnnip_tensor::Tensor;

use crate::bitset::Bitset;
use crate::eval::Evaluator;
use crate::workspace::TestGenRequest;
use crate::{CoreError, Result};

/// Where a generated functional test came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestSource {
    /// Selected from the training set by Algorithm 1 (stores the candidate index).
    TrainingSample(usize),
    /// Synthesized by Algorithm 2 (stores the target class).
    Synthetic(usize),
}

/// Run the combined generator (see the module doc) on the request's
/// candidates, the training set or a subsample of it, until its budget of
/// tests exists. Returns the tests in generation order with the provenance
/// of each; the first [`TestSource::Synthetic`] entry is the switch point.
///
/// # Errors
///
/// Returns [`CoreError::EmptyCandidatePool`] when the candidates are empty
/// and propagates gradient / coverage / deadline errors.
pub(crate) fn generate_combined(
    evaluator: &Evaluator,
    request: &TestGenRequest,
) -> Result<(Vec<Tensor>, Vec<TestSource>)> {
    let (candidates, max_tests, deadline) = (&request.candidates, request.budget, request.deadline);
    if candidates.is_empty() {
        return Err(CoreError::EmptyCandidatePool);
    }
    let sets = evaluator.activation_sets_until(candidates, deadline)?;
    let mut generator = evaluator
        .gradient_generator(request.gradgen)
        .until(deadline);
    // The pending batch is Algorithm 2's next round, built before the first
    // pick because the paper's rule compares benefits from the start. Its
    // benefit is its union's gain over the covered set: the sum of its tests'
    // gains taken one after another.
    let batch = generator.generate_batch()?;
    let inputs: Vec<Tensor> = batch.iter().map(|t| t.input.clone()).collect();
    let batch_sets = evaluator.activation_sets_until(&inputs, deadline)?;
    let batch_union = Bitset::union_of(evaluator.num_units(), batch_sets.iter().map(|s| &**s));

    let mut covered = Bitset::new(evaluator.num_units());
    let mut picks: Vec<usize> = Vec::new();
    while picks.len() < max_tests {
        // Resumes the evaluator's suspended selection: one extension per pick.
        let selection = evaluator.greedy_select(&sets, picks.len() + 1)?;
        let Some(&next) = selection.get(picks.len()) else {
            break;
        };
        let pool_gain = covered.union_gain(&sets[next]);
        if synthesis_wins(covered.union_gain(&batch_union), batch.len(), pool_gain) {
            break;
        }
        covered.union_with(&sets[next]);
        picks.push(next);
    }

    // Algorithm 2 for the rest of the budget: the pending batch, then fresh
    // rounds. Their covered sets are left to the caller's coverage pass.
    let rest = max_tests - picks.len();
    let fresh = generator.generate(rest.saturating_sub(batch.len()))?;
    let synthetic = batch.into_iter().chain(fresh).take(rest);
    Ok(picks
        .into_iter()
        .map(|i| (candidates[i].clone(), TestSource::TrainingSample(i)))
        .chain(synthetic.map(|t| (t.input, TestSource::Synthetic(t.target_class))))
        .unzip())
}

/// Section IV-D's switch rule: Algorithm 2's per-test benefit, the batch's
/// gain spread over its `batch_len` tests, exceeds Algorithm 1's,
/// `pool_gain`. Compared by cross-multiplying, so a batch that gains fewer
/// units than it has tests still counts.
fn synthesis_wins(batch_gain: usize, batch_len: usize, pool_gain: usize) -> bool {
    batch_gain > pool_gain * batch_len
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
    fn the_switch_rule_compares_per_test_gains_exactly() {
        // The shape seen on mnist-scaled: a batch of 10 gaining 32 units
        // offers 3.2 per test, more than a pool pick's 3 (integer division
        // truncates 3.2 to 3 and would not switch); 30 units over 10 tests
        // only ties it.
        assert!(synthesis_wins(32, 10, 3));
        assert!(!synthesis_wins(30, 10, 3));
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
