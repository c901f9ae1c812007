//! The functional-test generation strategies behind
//! [`crate::workspace::Workspace::run`].
//!
//! The benchmark harness (Fig. 3, Tables II/III) sweeps several generation
//! methods over the same model and budget. A [`GenerationMethod`] names one
//! of them, including a random-selection control that the paper does not
//! plot but which is useful as a sanity floor; every method runs through one
//! declarative [`crate::workspace::TestGenRequest`].

use dnnip_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::bitset::Bitset;
use crate::combined::{generate_combined, TestSource};
use crate::eval::Evaluator;
use crate::workspace::TestGenRequest;
use crate::{CoreError, Result};

/// Which functional-test generation strategy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GenerationMethod {
    /// Algorithm 1: greedy selection from the training set by parameter coverage.
    TrainingSetSelection,
    /// Algorithm 2: gradient-based synthesis.
    GradientBased,
    /// The combined generator (Section IV-D).
    Combined,
    /// Baseline: greedy selection from the training set by **neuron** coverage
    /// (the comparison method of Tables II/III), i.e. by the covered sets of
    /// [`crate::criterion::NeuronActivation::default`].
    NeuronCoverageBaseline,
    /// Control: uniformly random selection from the training set.
    RandomSelection,
}

impl GenerationMethod {
    /// Short stable name used in reports and benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            GenerationMethod::TrainingSetSelection => "training-set-selection",
            GenerationMethod::GradientBased => "gradient-based",
            GenerationMethod::Combined => "combined",
            GenerationMethod::NeuronCoverageBaseline => "neuron-coverage",
            GenerationMethod::RandomSelection => "random-selection",
        }
    }

    /// Whether the strategy scores the **whole** candidate pool's covered-unit
    /// sets under the request's criterion (Algorithm 1's selection input).
    /// These are the pools a coalesced group may precompute in one shared
    /// batched pass ([`crate::workspace::Workspace::run_coalesced`]) without
    /// ever computing a set that an isolated run would not.
    /// `NeuronCoverageBaseline` scores its pool under the neuron-activation
    /// criterion whatever the request's criterion is, and `RandomSelection`
    /// only evaluates the tests it draws, so neither benefits from that
    /// pre-warming.
    pub fn consumes_pool(self) -> bool {
        matches!(
            self,
            GenerationMethod::TrainingSetSelection | GenerationMethod::Combined
        )
    }

    /// All methods, in the order used by the experiment tables.
    pub fn all() -> [GenerationMethod; 5] {
        [
            GenerationMethod::TrainingSetSelection,
            GenerationMethod::GradientBased,
            GenerationMethod::Combined,
            GenerationMethod::NeuronCoverageBaseline,
            GenerationMethod::RandomSelection,
        ]
    }
}

/// The functional tests one [`crate::workspace::Workspace::run`] generated,
/// plus their coverage curve.
#[derive(Debug, Clone)]
pub struct GeneratedTests {
    /// The functional-test inputs, in generation order.
    pub inputs: Vec<Tensor>,
    /// Coverage under the evaluator's criterion after each test, regardless of
    /// which strategy drove the generation — so methods are always compared on
    /// one metric (the paper's parameter-gradient metric by default).
    pub coverage_curve: Vec<f32>,
    /// The method that produced the tests.
    pub method: GenerationMethod,
    /// Where each test came from (parallel to `inputs`): a candidate-pool
    /// index for selection-based methods, the target class for synthesized
    /// tests. This is what lets [`crate::workspace::TestGenReport`] expose
    /// selection indices without re-running the selection.
    pub provenance: Vec<TestSource>,
}

impl GeneratedTests {
    /// Final validation coverage (0.0 if no tests were generated).
    pub fn final_coverage(&self) -> f32 {
        self.coverage_curve.last().copied().unwrap_or(0.0)
    }

    /// Number of generated tests.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Whether no tests were generated.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// The candidate-pool indices of every pool-drawn test, in generation
    /// order (synthesized tests contribute nothing here).
    pub fn pool_indices(&self) -> Vec<usize> {
        self.provenance
            .iter()
            .filter_map(|s| match s {
                TestSource::TrainingSample(i) => Some(*i),
                TestSource::Synthetic(_) => None,
            })
            .collect()
    }
}

/// Coverage after each of `sets` is added to a running union: the curve
/// every strategy reports.
pub(crate) fn prefix_curve<'a>(
    sets: impl IntoIterator<Item = &'a Bitset>,
    num_units: usize,
) -> Vec<f32> {
    let mut covered = Bitset::new(num_units);
    sets.into_iter()
        .map(|set| {
            covered.union_with(set);
            covered.density()
        })
        .collect()
}

/// The first `budget` indices of a seeded shuffle of `0..len`: the
/// random-selection control's draw.
pub(crate) fn random_indices(len: usize, budget: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut indices: Vec<usize> = (0..len).collect();
    indices.shuffle(&mut rng);
    indices.truncate(budget);
    indices
}

/// Run `request`'s strategy on a network model.
///
/// `evaluator` is the evaluator of the request's criterion: it drives
/// Algorithms 1 and 2 and scores the coverage curve, so methods are always
/// compared on one metric. `selector` supplies the covered sets greedy pool
/// selection maximises: `evaluator` itself, except for the neuron-coverage
/// baseline, whose selector runs [`crate::criterion::NeuronActivation`].
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for a zero budget,
/// [`CoreError::EmptyCandidatePool`] when a selection-based method receives an
/// empty pool, and propagates coverage/gradient errors.
pub(crate) fn generate_tests(
    evaluator: &Evaluator,
    selector: &Evaluator,
    request: &TestGenRequest,
) -> Result<GeneratedTests> {
    let (pool, budget, method) = (&request.candidates, request.budget, request.strategy);
    if budget == 0 {
        return Err(CoreError::InvalidConfig {
            reason: "max_tests must be at least 1".to_string(),
        });
    }
    let from_pool = |indices: Vec<usize>| -> (Vec<Tensor>, Vec<TestSource>) {
        indices
            .into_iter()
            .map(|i| (pool[i].clone(), TestSource::TrainingSample(i)))
            .unzip()
    };
    let (inputs, provenance) = match method {
        GenerationMethod::TrainingSetSelection | GenerationMethod::NeuronCoverageBaseline => {
            if pool.is_empty() {
                return Err(CoreError::EmptyCandidatePool);
            }
            let sets = selector.activation_sets(pool)?;
            from_pool(selector.greedy_select(&sets, budget)?)
        }
        GenerationMethod::GradientBased => evaluator
            .gradient_generator(request.gradgen)
            .generate(budget)?
            .into_iter()
            .take(budget)
            .map(|t| (t.input, TestSource::Synthetic(t.target_class)))
            .unzip(),
        GenerationMethod::Combined => generate_combined(evaluator, pool, budget, request.gradgen)?,
        GenerationMethod::RandomSelection => {
            if pool.is_empty() {
                return Err(CoreError::EmptyCandidatePool);
            }
            from_pool(random_indices(pool.len(), budget, request.seed))
        }
    };
    // One batched, cache-aware coverage pass: tests whose sets were computed
    // during generation (every pool sample a selection scored) are hits.
    let sets = evaluator.activation_sets(&inputs)?;
    let coverage_curve = prefix_curve(sets.iter().map(|s| &**s), evaluator.num_units());
    Ok(GeneratedTests {
        inputs,
        coverage_curve,
        method,
        provenance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::CoverageConfig;
    use crate::workspace::Workspace;
    use dnnip_nn::layers::Activation;
    use dnnip_nn::zoo;

    fn pool(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| Tensor::from_fn(&[6], |j| ((i * 7 + j) as f32 * 0.31).sin().abs()))
            .collect()
    }

    /// Run `method` through a fresh workspace's front door.
    fn generate(
        method: GenerationMethod,
        budget: usize,
        pool: &[Tensor],
    ) -> Result<GeneratedTests> {
        let ws = Workspace::new();
        let network = zoo::tiny_mlp(6, 16, 4, Activation::Relu, 23).unwrap();
        let key = ws.register("m", network, CoverageConfig::default());
        let request = TestGenRequest::new(key, method, budget).with_candidates(pool.to_vec());
        Ok(ws.run(&request)?.tests)
    }

    #[test]
    fn every_method_produces_tests_and_a_curve() {
        let candidates = pool(25);
        for method in GenerationMethod::all() {
            let out = generate(method, 8, &candidates).unwrap();
            assert!(!out.is_empty(), "{} produced nothing", method.name());
            assert!(out.len() <= 8, "{} exceeded the budget", method.name());
            assert_eq!(out.inputs.len(), out.coverage_curve.len());
            assert!(out.final_coverage() > 0.0);
            assert_eq!(out.method, method);
            assert!(!method.name().is_empty());
        }
    }

    #[test]
    fn greedy_selection_dominates_random_selection() {
        let candidates = pool(40);
        let greedy = generate(GenerationMethod::TrainingSetSelection, 6, &candidates).unwrap();
        let random = generate(GenerationMethod::RandomSelection, 6, &candidates).unwrap();
        assert!(
            greedy.final_coverage() >= random.final_coverage() - 1e-6,
            "greedy {} vs random {}",
            greedy.final_coverage(),
            random.final_coverage()
        );
    }

    #[test]
    fn combined_dominates_each_individual_method_at_equal_budget() {
        let candidates = pool(25);
        let combined = generate(GenerationMethod::Combined, 10, &candidates)
            .unwrap()
            .final_coverage();
        let training = generate(GenerationMethod::TrainingSetSelection, 10, &candidates)
            .unwrap()
            .final_coverage();
        assert!(
            combined >= training - 1e-6,
            "combined {combined} vs training {training}"
        );
    }

    #[test]
    fn zero_budget_and_empty_pool_are_rejected() {
        assert!(generate(GenerationMethod::Combined, 0, &pool(5)).is_err());
        for method in [
            GenerationMethod::RandomSelection,
            GenerationMethod::TrainingSetSelection,
            GenerationMethod::NeuronCoverageBaseline,
        ] {
            assert!(matches!(
                generate(method, 30, &[]),
                Err(CoreError::EmptyCandidatePool)
            ));
        }
    }
}
