//! Mini-batch training loop and accuracy evaluation.
//!
//! Just enough machinery to train the Table-I models (and their scaled variants)
//! on the synthetic datasets: shuffled mini-batches, cross-entropy loss, an
//! SGD-with-momentum step over the flat parameter vector, and per-epoch
//! statistics.

use dnnip_tensor::{ops, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::loss::Loss;
use crate::optim::Sgd;
use crate::{Network, NnError, Result};

/// Configuration of a training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate.
    pub learning_rate: f32,
    /// SGD momentum (0.0 disables momentum).
    pub momentum: f32,
    /// Loss function.
    pub loss: Loss,
    /// RNG seed controlling shuffling.
    pub seed: u64,
    /// Multiplicative learning-rate decay applied after every epoch.
    pub lr_decay: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 5,
            batch_size: 32,
            learning_rate: 0.05,
            momentum: 0.9,
            loss: Loss::CrossEntropy,
            seed: 0,
            lr_decay: 1.0,
        }
    }
}

/// Statistics of one training epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean loss over all mini-batches.
    pub mean_loss: f32,
    /// Accuracy on the training set measured after the epoch.
    pub train_accuracy: f32,
}

/// Result of a training run.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Per-epoch statistics in order.
    pub epochs: Vec<EpochStats>,
}

impl TrainReport {
    /// Accuracy after the final epoch (0.0 if no epochs ran).
    pub fn final_accuracy(&self) -> f32 {
        self.epochs.last().map(|e| e.train_accuracy).unwrap_or(0.0)
    }

    /// Mean loss of the final epoch (`f32::INFINITY` if no epochs ran).
    pub fn final_loss(&self) -> f32 {
        self.epochs
            .last()
            .map(|e| e.mean_loss)
            .unwrap_or(f32::INFINITY)
    }
}

fn validate_dataset(network: &Network, inputs: &[Tensor], labels: &[usize]) -> Result<()> {
    if inputs.is_empty() {
        return Err(NnError::InvalidTrainingData("empty dataset".to_string()));
    }
    if inputs.len() != labels.len() {
        return Err(NnError::InvalidTrainingData(format!(
            "{} inputs but {} labels",
            inputs.len(),
            labels.len()
        )));
    }
    let classes = network.num_classes();
    if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
        return Err(NnError::InvalidLabel {
            label: bad,
            classes,
        });
    }
    Ok(())
}

/// Train `network` in place on `(inputs, labels)` with SGD + momentum.
///
/// # Errors
///
/// Returns an error for an empty or inconsistent dataset, labels outside the
/// network's class range, or shape mismatches between samples and the network
/// input shape.
pub fn train(
    network: &mut Network,
    inputs: &[Tensor],
    labels: &[usize],
    config: &TrainConfig,
) -> Result<TrainReport> {
    validate_dataset(network, inputs, labels)?;
    let mut optimizer = Sgd::new(config.learning_rate, config.momentum);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut indices: Vec<usize> = (0..inputs.len()).collect();
    let mut report = TrainReport::default();
    let batch_size = config.batch_size.max(1);

    for epoch in 0..config.epochs {
        indices.shuffle(&mut rng);
        let mut loss_sum = 0.0f32;
        let mut batches = 0usize;

        for chunk in indices.chunks(batch_size) {
            let batch_inputs: Vec<Tensor> = chunk.iter().map(|&i| inputs[i].clone()).collect();
            let batch_labels: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
            let batch = ops::stack(&batch_inputs)?;

            let pass = network.forward_cached(&batch)?;
            let loss_out = config.loss.evaluate(&pass.output, &batch_labels)?;
            let grads = network.backward(&pass, &loss_out.grad_logits)?;

            let mut params = network.parameters_flat();
            optimizer.step(&mut params, &grads.param_grads)?;
            network.set_parameters_flat(&params)?;

            loss_sum += loss_out.value;
            batches += 1;
        }

        optimizer.lr *= config.lr_decay;
        let train_accuracy = evaluate(network, inputs, labels)?;
        report.epochs.push(EpochStats {
            epoch,
            mean_loss: loss_sum / batches.max(1) as f32,
            train_accuracy,
        });
    }
    Ok(report)
}

/// Classification accuracy of `network` on `(inputs, labels)`, in `[0, 1]`.
///
/// # Errors
///
/// Returns an error for inconsistent datasets or shape mismatches.
pub fn evaluate(network: &Network, inputs: &[Tensor], labels: &[usize]) -> Result<f32> {
    if inputs.is_empty() {
        return Err(NnError::InvalidTrainingData("empty dataset".to_string()));
    }
    if inputs.len() != labels.len() {
        return Err(NnError::InvalidTrainingData(format!(
            "{} inputs but {} labels",
            inputs.len(),
            labels.len()
        )));
    }
    let mut correct = 0usize;
    // Evaluate in modest batches to bound memory.
    for chunk in inputs.chunks(64).zip(labels.chunks(64)) {
        let (ci, cl) = chunk;
        let batch = ops::stack(ci)?;
        let preds = network.predict(&batch)?;
        correct += preds.iter().zip(cl).filter(|(p, l)| p == l).count();
    }
    Ok(correct as f32 / inputs.len() as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Activation;
    use crate::zoo;

    /// A linearly separable 2-class dataset in 4 dimensions.
    fn toy_dataset(n: usize) -> (Vec<Tensor>, Vec<usize>) {
        let mut inputs = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let class = i % 2;
            let sign = if class == 0 { 1.0 } else { -1.0 };
            let jitter = (i as f32 * 0.37).sin() * 0.2;
            inputs.push(
                Tensor::from_vec(
                    vec![
                        sign * 1.0 + jitter,
                        sign * 0.5 - jitter,
                        -sign * 0.8 + jitter,
                        0.1 * jitter,
                    ],
                    &[4],
                )
                .unwrap(),
            );
            labels.push(class);
        }
        (inputs, labels)
    }

    #[test]
    fn training_improves_accuracy_on_separable_data() {
        let mut net = zoo::tiny_mlp(4, 16, 2, Activation::Relu, 3).unwrap();
        let (inputs, labels) = toy_dataset(64);
        let before = evaluate(&net, &inputs, &labels).unwrap();
        let config = TrainConfig {
            epochs: 20,
            batch_size: 8,
            learning_rate: 0.1,
            ..TrainConfig::default()
        };
        let report = train(&mut net, &inputs, &labels, &config).unwrap();
        let after = report.final_accuracy();
        assert!(after >= before);
        assert!(
            after > 0.95,
            "expected near-perfect separation, got {after}"
        );
        assert!(report.final_loss() < 0.3);
        assert_eq!(report.epochs.len(), 20);
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let mut net = zoo::tiny_mlp(4, 8, 2, Activation::Tanh, 5).unwrap();
        let (inputs, labels) = toy_dataset(32);
        let config = TrainConfig {
            epochs: 10,
            batch_size: 4,
            learning_rate: 0.05,
            ..TrainConfig::default()
        };
        let report = train(&mut net, &inputs, &labels, &config).unwrap();
        let first = report.epochs.first().unwrap().mean_loss;
        let last = report.epochs.last().unwrap().mean_loss;
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn training_is_deterministic_for_a_fixed_seed() {
        let (inputs, labels) = toy_dataset(16);
        let config = TrainConfig {
            epochs: 3,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let mut a = zoo::tiny_mlp(4, 8, 2, Activation::Relu, 7).unwrap();
        let mut b = zoo::tiny_mlp(4, 8, 2, Activation::Relu, 7).unwrap();
        train(&mut a, &inputs, &labels, &config).unwrap();
        train(&mut b, &inputs, &labels, &config).unwrap();
        assert_eq!(a.parameters_flat(), b.parameters_flat());
    }

    #[test]
    fn validation_rejects_bad_datasets() {
        let mut net = zoo::tiny_mlp(4, 8, 2, Activation::Relu, 0).unwrap();
        let (inputs, labels) = toy_dataset(8);
        let config = TrainConfig::default();
        assert!(train(&mut net, &[], &[], &config).is_err());
        assert!(train(&mut net, &inputs, &labels[..4], &config).is_err());
        let bad_labels = vec![5usize; inputs.len()];
        assert!(train(&mut net, &inputs, &bad_labels, &config).is_err());
        assert!(evaluate(&net, &[], &[]).is_err());
    }

    #[test]
    fn evaluate_matches_manual_count() {
        let net = zoo::tiny_mlp(4, 8, 3, Activation::Relu, 1).unwrap();
        let (inputs, _) = toy_dataset(10);
        // Labels equal to the network's own predictions give accuracy 1.0.
        let preds: Vec<usize> = inputs
            .iter()
            .map(|x| net.predict_sample(x).unwrap())
            .collect();
        assert_eq!(evaluate(&net, &inputs, &preds).unwrap(), 1.0);
        // All-wrong labels give accuracy 0.0.
        let wrong: Vec<usize> = preds.iter().map(|&p| (p + 1) % 3).collect();
        assert_eq!(evaluate(&net, &inputs, &wrong).unwrap(), 0.0);
    }
}
