//! Golden constants for the zoo models, pinned before the batched engine's
//! convolution lowering was rewritten.
//!
//! Every constant below is an FNV-1a digest of exact `f32` bit patterns (or of
//! selection indices) produced by the engine as it stood before the row-copy
//! im2col/col2im kernels and per-sample re-lowering landed. Any change to
//! those hot paths must reproduce them bit for bit:
//!
//! * per-sample parameter gradients from
//!   `BatchGradientEngine::for_each_parameter_gradient` under both output
//!   projections (`SumOfOutputs` and the one-hot-per-class `PerClassMax`);
//! * input gradients from `BatchGradientEngine::input_gradient` (the
//!   gradient-synthesis path);
//! * `Workspace::run` selected indices, coverage curves, generated inputs and
//!   their golden outputs for `training-set-selection` and `combined`, under
//!   `param-gradient` and `neuron-activation:0.25`;
//! * the Tables II/III baseline (`neuron-coverage`): selected indices and the
//!   coverage curve's bits under both criteria, pinned while the baseline
//!   still ran on its own unbatched neuron analyzer;
//! * the residual graph model's selections under the forward-only criteria,
//!   pinned while it still ran on a graph executor of its own, and its
//!   `param-gradient` covered sets, which must equal the reference oracle's.
//!
//! A mismatch prints the observed digest in hex so a deliberate change of
//! semantics can re-pin it; a performance change never should.

use dnnip::core::gradgen::GradGenConfig;
use dnnip::nn::batch::BatchGradientEngine;
use dnnip::prelude::*;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(FNV_OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    fn usize(&mut self, v: usize) {
        self.bytes(&(v as u64).to_le_bytes());
    }
}

/// Deterministic inputs in `[0, 1)` from a splitmix64 stream, with a few
/// exact zeros so ReLU/padding boundaries are exercised.
fn seeded_inputs(shape: &[usize], n: usize, seed: u64) -> Vec<Tensor> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| {
            Tensor::from_fn(shape, |_| {
                let r = next();
                if r % 11 == 0 {
                    0.0
                } else {
                    (r >> 40) as f32 / (1u64 << 24) as f32
                }
            })
        })
        .collect()
}

fn one_hot(classes: usize) -> Vec<Vec<f32>> {
    (0..classes)
        .map(|c| {
            let mut p = vec![0.0f32; classes];
            p[c] = 1.0;
            p
        })
        .collect()
}

fn zoo_models() -> [(&'static str, Network); 2] {
    [
        ("cifar-scaled", zoo::cifar_model_scaled(7).unwrap()),
        ("mnist-scaled", zoo::mnist_model_scaled(14).unwrap()),
    ]
}

fn param_gradient_digest(network: &Network, samples: &[Tensor], projections: &[Vec<f32>]) -> u64 {
    let engine = BatchGradientEngine::new(network);
    let mut h = Fnv::new();
    let mut visits = 0usize;
    engine
        .for_each_parameter_gradient(samples, projections, |s, p, grads| {
            assert_eq!(
                (s, p),
                (visits / projections.len(), visits % projections.len())
            );
            visits += 1;
            h.f32s(grads);
        })
        .unwrap();
    assert_eq!(visits, samples.len() * projections.len());
    h.0
}

fn assert_golden(what: &str, got: u64, expected: u64) {
    assert_eq!(
        got, expected,
        "{what}: digest {got:#018x} differs from the pinned {expected:#018x}"
    );
}

#[test]
fn parameter_gradients_sum_of_outputs_are_pinned() {
    let expected = [0x56c6_1f32_f787_c875, 0xb055_cf62_212e_08c8];
    for ((name, network), want) in zoo_models().into_iter().zip(expected) {
        let samples = seeded_inputs(network.input_shape(), 6, 0x5eed_0001);
        let ones = vec![vec![1.0f32; network.num_classes()]];
        assert_golden(
            &format!("{name} SumOfOutputs"),
            param_gradient_digest(&network, &samples, &ones),
            want,
        );
    }
}

#[test]
fn parameter_gradients_per_class_max_are_pinned() {
    let expected = [0x7bdd_5ac1_b7a5_9821, 0x461e_dd01_b371_2fd7];
    for ((name, network), want) in zoo_models().into_iter().zip(expected) {
        let samples = seeded_inputs(network.input_shape(), 3, 0x5eed_0002);
        let projections = one_hot(network.num_classes());
        assert_golden(
            &format!("{name} PerClassMax"),
            param_gradient_digest(&network, &samples, &projections),
            want,
        );
    }
}

#[test]
fn input_gradients_are_pinned() {
    let expected = [0xee1b_fbc2_3681_e0b4, 0xf6af_6f2b_b91e_53cb];
    for ((name, network), want) in zoo_models().into_iter().zip(expected) {
        let engine = BatchGradientEngine::new(&network);
        let samples = seeded_inputs(network.input_shape(), 5, 0x5eed_0003);
        let pass = engine.forward_batch(&samples).unwrap();
        let classes = network.num_classes();
        let mut h = Fnv::new();
        h.f32s(pass.output().data());
        for s in 0..samples.len() {
            // A one-hot target and a dense softmax-like gradient per sample.
            let mut proj = vec![0.0f32; classes];
            proj[s % classes] = 1.0;
            h.f32s(engine.input_gradient(&pass, s, &proj).unwrap().data());
            let dense: Vec<f32> = (0..classes)
                .map(|c| ((s * classes + c) as f32 * 0.37).sin())
                .collect();
            h.f32s(engine.input_gradient(&pass, s, &dense).unwrap().data());
        }
        assert_golden(&format!("{name} input gradients"), h.0, want);
    }
}

/// Digest of everything a `Workspace::run` hands back that the lowering can
/// influence: selected indices, the coverage curve, the generated inputs and
/// their golden outputs on the trusted model.
fn run_digest(
    ws: &Workspace,
    key: dnnip::nn::fingerprint::NetworkFingerprint,
    network: &Network,
    strategy: GenerationMethod,
    criterion: &str,
) -> u64 {
    let candidates = seeded_inputs(network.input_shape(), 12, 0x5eed_0004);
    let report = ws
        .run(
            &TestGenRequest::new(key, strategy, 4)
                .with_seed(9)
                .with_criterion_spec(criterion)
                .with_gradgen(GradGenConfig {
                    steps: 3,
                    ..GradGenConfig::default()
                })
                .with_candidates(candidates),
        )
        .unwrap();
    let mut h = Fnv::new();
    for i in report.selected_indices() {
        h.usize(i);
    }
    h.f32s(&report.tests.coverage_curve);
    h.f32s(&[report.final_coverage()]);
    for input in &report.tests.inputs {
        h.f32s(input.data());
        h.f32s(
            network
                .forward(&network.batch_one(input).unwrap())
                .unwrap()
                .data(),
        );
    }
    h.0
}

#[test]
fn workspace_selections_and_coverage_are_pinned() {
    // (model, strategy, criterion) in a fixed order, one digest each.
    let expected = [
        [
            0xadcf_0e64_f703_c8d1,
            0xe3f7_d48e_dc19_b806,
            0x9aed_492e_9093_db31,
            0xe3f7_d48e_dc19_b806,
        ],
        [
            0xbde7_3fd8_32d3_d355,
            0x1b2e_281f_6e08_fc8b,
            0xd76b_8240_eb2b_f5ab,
            0x1b2e_281f_6e08_fc8b,
        ],
    ];
    for ((name, network), want) in zoo_models().into_iter().zip(expected) {
        let ws = Workspace::new();
        let key = ws.register(name, network.clone(), CoverageConfig::default());
        let mut got = Vec::new();
        for strategy in [
            GenerationMethod::TrainingSetSelection,
            GenerationMethod::Combined,
        ] {
            for criterion in ["param-gradient", "neuron-activation:0.25"] {
                got.push(run_digest(&ws, key, &network, strategy, criterion));
            }
        }
        for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
            assert_golden(&format!("{name} workspace run {i}"), g, w);
        }
    }
}

/// The Tables II/III baseline through `Workspace::run`: greedy selection by
/// neuron coverage over a seeded pool. Returns the selected pool indices and
/// a digest of the coverage curve's bits, which is scored under `criterion`.
fn baseline_run(
    ws: &Workspace,
    key: dnnip::nn::fingerprint::NetworkFingerprint,
    network: &Network,
    criterion: &str,
) -> (Vec<usize>, u64) {
    let candidates = seeded_inputs(network.input_shape(), 40, 0x5eed_0005);
    let report = ws
        .run(
            &TestGenRequest::new(key, GenerationMethod::NeuronCoverageBaseline, 8)
                .with_criterion_spec(criterion)
                .with_candidates(candidates),
        )
        .unwrap();
    let mut h = Fnv::new();
    h.f32s(&report.tests.coverage_curve);
    (report.selected_indices(), h.0)
}

#[test]
fn neuron_coverage_baseline_is_pinned() {
    // Per model: the selection (independent of the scoring criterion), then
    // the curve digest under `param-gradient` and `neuron-activation:0.25`.
    let expected: [([usize; 8], [u64; 2]); 2] = [
        (
            [6, 16, 26, 8, 13, 23, 17, 25],
            [0x03af_5a7f_2885_183c, 0x4636_71ab_c428_4444],
        ),
        (
            [19, 29, 34, 25, 39, 1, 32, 5],
            [0x8cb5_180b_9273_f978, 0xf09e_2ce2_d59c_79ed],
        ),
    ];
    for ((name, network), (selection, curves)) in zoo_models().into_iter().zip(expected) {
        let ws = Workspace::new();
        let key = ws.register(name, network.clone(), CoverageConfig::default());
        for (criterion, want) in ["param-gradient", "neuron-activation:0.25"]
            .into_iter()
            .zip(curves)
        {
            let (selected, curve) = baseline_run(&ws, key, &network, criterion);
            assert_eq!(selected, selection, "{name} baseline selection");
            assert_golden(&format!("{name} baseline curve ({criterion})"), curve, want);
        }
    }
}

/// The residual graph model (Add node) through `Workspace::run`: selections,
/// coverage curves, inputs and golden outputs under the forward-only
/// criteria, per (strategy, criterion). Pinned while the model still ran on
/// its own graph executor, so they prove the batched engine's node walk
/// reproduces it bit for bit.
#[test]
fn residual_graph_selections_are_pinned() {
    let network = zoo::residual_classifier(15).unwrap();
    let ws = Workspace::new();
    let key = ws.register("residual", network.clone(), CoverageConfig::default());
    let expected = [
        (
            GenerationMethod::TrainingSetSelection,
            "neuron-activation:0.1",
            0xfc0d_e669_41e6_3eee,
        ),
        (
            GenerationMethod::TrainingSetSelection,
            "topk-neuron:2",
            0x268b_4582_fff8_ee54,
        ),
        (
            GenerationMethod::RandomSelection,
            "neuron-activation:0.1",
            0x7818_d8a0_f3f2_e6fe,
        ),
        (
            GenerationMethod::RandomSelection,
            "topk-neuron:2",
            0x9910_90cc_bfcc_a5b1,
        ),
    ];
    for (strategy, criterion, want) in expected {
        assert_golden(
            &format!("residual {} {criterion}", strategy.name()),
            run_digest(&ws, key, &network, strategy, criterion),
            want,
        );
    }
}

/// The paper's criterion on the residual graph: the engine's covered sets
/// equal the `Network` reference oracle's, and their digest is pinned.
#[test]
fn residual_graph_param_gradient_sets_match_the_oracle() {
    let network = zoo::residual_classifier(15).unwrap();
    let samples = seeded_inputs(network.input_shape(), 12, 0x5eed_0006);
    let evaluator = Evaluator::new(&network, CoverageConfig::default());
    let sets = evaluator.activation_sets(&samples).unwrap();
    let mut h = Fnv::new();
    for (s, (set, sample)) in sets.iter().zip(&samples).enumerate() {
        let reference = evaluator.activation_set_reference(sample).unwrap();
        assert!(
            **set == reference,
            "sample {s}: engine set differs from the oracle"
        );
        assert_eq!(set.len(), 986);
        for i in set.iter_ones() {
            h.usize(i);
        }
        h.usize(usize::MAX);
    }
    assert_golden("residual param-gradient sets", h.0, 0x8c48_baf3_9af4_e22f);
}
