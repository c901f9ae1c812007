//! Property-based tests for the neural-network substrate: gradient correctness
//! against finite differences on random networks, flat-parameter round trips,
//! softmax/loss invariants, and the model format — round trips are bit-exact,
//! every corruption (truncation, padding, bit flips) is rejected, the
//! fingerprint tracks single parameter bits and every structural field, and
//! the decoder answers hostile but checksum-valid streams with an error,
//! never a panic.

use std::collections::BTreeSet;

use dnnip_nn::fingerprint::NetworkFingerprint;
use dnnip_nn::graph::{Node, NodeOp};
use dnnip_nn::layers::{Activation, ActivationLayer, Conv2d, Layer, MaxPool2d};
use dnnip_nn::loss::{cross_entropy, one_hot};
use dnnip_nn::{serialize, zoo, Network, NnError};
use dnnip_tensor::hash::checksum;
use dnnip_tensor::Tensor;
use proptest::prelude::*;

/// Networks from every construction source the format must cover: the two
/// graph models and a chain.
fn arb_model() -> impl Strategy<Value = Network> {
    (0u64..100, 0u8..3).prop_map(|(seed, which)| match which {
        0 => zoo::residual_classifier(seed).expect("valid zoo geometry"),
        1 => zoo::branching_classifier(seed).expect("valid zoo geometry"),
        _ => zoo::tiny_cnn(2, 3, Activation::Relu, seed).expect("valid geometry"),
    })
}

/// One node of a hand-written stream: tag, edges, and a layer payload behind
/// its declared byte length.
type RawNode = (u8, Vec<u32>, Option<(u32, Vec<u8>)>);

/// A model stream written field by field, so a test can make any field lie.
/// The checksum is always right.
fn model_stream(shape: &[u32], count: u32, nodes: &[RawNode]) -> Vec<u8> {
    let mut b = b"DNNIPGRF".to_vec();
    let u32s = |b: &mut Vec<u8>, v: &[u32]| {
        b.extend_from_slice(&(v.len() as u32).to_le_bytes());
        for x in v {
            b.extend_from_slice(&x.to_le_bytes());
        }
    };
    b.extend_from_slice(&2u32.to_le_bytes());
    u32s(&mut b, shape);
    b.extend_from_slice(&count.to_le_bytes());
    for (tag, inputs, payload) in nodes {
        b.push(*tag);
        u32s(&mut b, inputs);
        if let Some((len, p)) = payload {
            b.extend_from_slice(&len.to_le_bytes());
            b.extend_from_slice(p);
        }
    }
    with_checksum(b)
}

fn with_checksum(mut body: Vec<u8>) -> Vec<u8> {
    body.extend_from_slice(&checksum(&body).to_le_bytes());
    body
}

/// `net` cut after each node and the copies of that cut that differ in one
/// structural field of its last node: a conv's stride or pad, a pool's
/// kernel or stride, an activation, or one input edge. The changed node is
/// the output, so no shape downstream can reject the change; copies that
/// still fail validation are skipped. Each copy comes with its field's name.
fn structural_variants(net: &Network) -> Vec<(Network, &'static str, Network)> {
    let mut out = Vec::new();
    for (i, node) in net.nodes().iter().enumerate() {
        let taken = net.nodes()[..=i]
            .iter()
            .filter(|n| matches!(n.op(), NodeOp::Layer(_)))
            .count();
        let cut = |last: Option<Layer>, inputs: Vec<usize>| {
            let mut layers = net.layers()[..taken].to_vec();
            if let Some(layer) = last {
                layers[taken - 1] = layer;
            }
            let mut nodes = net.nodes()[..=i].to_vec();
            nodes[i] = Node::new(node.op(), inputs);
            Network::from_nodes(layers, nodes, net.input_shape()).ok()
        };
        let Some(base) = cut(None, node.inputs().to_vec()) else {
            continue;
        };
        let mut changes: Vec<(&'static str, Option<Layer>)> = Vec::new();
        if let NodeOp::Layer(l) = node.op() {
            match &net.layers()[l] {
                Layer::Conv2d(conv) => {
                    let ((w, b), g) = (conv.parameters(), conv.geometry());
                    let conv = |stride, pad| Conv2d::new(w.clone(), b.clone(), stride, pad).ok();
                    changes.push(("stride", conv(g.stride + 1, g.pad).map(Layer::from)));
                    changes.push(("pad", conv(g.stride, g.pad + 1).map(Layer::from)));
                }
                Layer::MaxPool2d(pool) => {
                    let (k, s) = (pool.kernel(), pool.stride());
                    changes.push(("kernel", Some(MaxPool2d::new(k + 1, s).into())));
                    changes.push(("stride", Some(MaxPool2d::new(k, s + 1).into())));
                }
                Layer::Activation(act) => {
                    let other = match act.activation() {
                        Activation::Relu => Activation::Tanh,
                        _ => Activation::Relu,
                    };
                    changes.push(("activation", Some(ActivationLayer::new(other).into())));
                }
                _ => {}
            }
        }
        let mut variants: Vec<_> = changes
            .into_iter()
            .filter_map(|(field, layer)| Some((field, cut(Some(layer?), node.inputs().to_vec()))))
            .collect();
        for (slot, &edge) in node.inputs().iter().enumerate() {
            for other in (0..i).filter(|&j| j != edge) {
                let mut inputs = node.inputs().to_vec();
                inputs[slot] = other;
                variants.push(("edge", cut(None, inputs)));
            }
        }
        for (field, changed) in variants {
            out.extend(changed.map(|changed| (base.clone(), field, changed)));
        }
    }
    out
}

/// A payload declared at its true length.
fn payload(p: Vec<u8>) -> Option<(u32, Vec<u8>)> {
    Some((p.len() as u32, p))
}

/// A Dense layer payload: tag, weight shape, weights, bias.
fn dense_payload(inputs: u32, outputs: u32) -> Vec<u8> {
    let mut p = vec![2u8];
    for v in [2, inputs, outputs, inputs * outputs] {
        p.extend_from_slice(&v.to_le_bytes());
    }
    p.extend((0..inputs * outputs).flat_map(|i| (i as f32 * 0.1).to_le_bytes()));
    p.extend_from_slice(&outputs.to_le_bytes());
    p.extend((0..outputs).flat_map(|i| (i as f32).to_le_bytes()));
    p
}

/// The decoder's contract on any input: an error, or a network that passes
/// validation again and re-encodes to a stream that decodes to it.
fn check_decode(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(net) = serialize::from_bytes(bytes) {
        let again = Network::from_nodes(
            net.layers().to_vec(),
            net.nodes().to_vec(),
            net.input_shape(),
        );
        prop_assert!(again.is_ok(), "decoded network fails validation");
        let restored = serialize::from_bytes(&serialize::to_bytes(&net));
        prop_assert!(restored.is_ok());
    }
    Ok(())
}

fn activation_strategy() -> impl Strategy<Value = Activation> {
    prop_oneof![
        Just(Activation::Relu),
        Just(Activation::Tanh),
        Just(Activation::Sigmoid),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parameter_gradients_match_finite_differences(
        seed in 0u64..200,
        act in activation_strategy(),
    ) {
        let net = zoo::tiny_mlp(4, 6, 3, act, seed).unwrap();
        let sample = Tensor::from_fn(&[4], |i| ((i as u64 * 13 + seed) % 17) as f32 * 0.1 - 0.8);
        let grads = net.parameter_gradients(&sample, &[1.0; 3]).unwrap();
        let objective = |n: &dnnip_nn::Network| n.forward_sample(&sample).unwrap().sum();
        let eps = 1e-2f32;
        // Spot-check a few parameter indices spread across the layers.
        for idx in [0usize, 5, 11, 23, net.num_parameters() - 1] {
            let mut plus = net.clone();
            plus.perturb_parameter(idx, eps).unwrap();
            let mut minus = net.clone();
            minus.perturb_parameter(idx, -eps).unwrap();
            let numeric = (objective(&plus) - objective(&minus)) / (2.0 * eps);
            prop_assert!(
                (numeric - grads[idx]).abs() < 5e-2 * (1.0 + numeric.abs()),
                "idx {}: numeric {} vs analytic {}", idx, numeric, grads[idx]
            );
        }
    }

    #[test]
    fn input_gradients_match_finite_differences(seed in 0u64..200, class in 0usize..3) {
        let net = zoo::tiny_mlp(5, 7, 3, Activation::Tanh, seed).unwrap();
        let sample = Tensor::from_fn(&[5], |i| ((i as u64 * 7 + seed) % 23) as f32 * 0.05 - 0.5);
        let grad = net.input_gradient_for_class(&sample, class).unwrap();
        let eps = 1e-2f32;
        for idx in 0..5 {
            let mut plus = sample.clone();
            plus.data_mut()[idx] += eps;
            let mut minus = sample.clone();
            minus.data_mut()[idx] -= eps;
            let numeric = (net.forward_sample(&plus).unwrap().data()[class]
                - net.forward_sample(&minus).unwrap().data()[class])
                / (2.0 * eps);
            prop_assert!(
                (numeric - grad.data()[idx]).abs() < 5e-2 * (1.0 + numeric.abs()),
                "idx {}: numeric {} vs analytic {}", idx, numeric, grad.data()[idx]
            );
        }
    }

    #[test]
    fn flat_parameter_round_trip_preserves_behaviour(seed in 0u64..200, scale in 0.1f32..2.0) {
        let mut net = zoo::tiny_cnn(3, 4, Activation::Relu, seed).unwrap();
        let params: Vec<f32> = net.parameters_flat().iter().map(|p| p * scale).collect();
        net.set_parameters_flat(&params).unwrap();
        prop_assert_eq!(net.parameters_flat(), params);
        // Per-index access agrees with the flat vector.
        let flat = net.parameters_flat();
        for idx in [0usize, flat.len() / 2, flat.len() - 1] {
            prop_assert_eq!(net.parameter(idx).unwrap(), flat[idx]);
        }
    }

    #[test]
    fn cross_entropy_is_positive_and_gradient_rows_sum_to_zero(
        seed in 0u64..500, n in 1usize..5
    ) {
        let logits = Tensor::from_fn(&[n, 4], |i| (((i as u64 + seed) * 37) % 19) as f32 * 0.3 - 2.0);
        let labels: Vec<usize> = (0..n).map(|i| (i + seed as usize) % 4).collect();
        let out = cross_entropy(&logits, &labels).unwrap();
        prop_assert!(out.value >= 0.0);
        // Softmax-CE gradient rows sum to zero: (p - onehot) sums to 1 - 1.
        for row in 0..n {
            let s: f32 = out.grad_logits.data()[row * 4..(row + 1) * 4].iter().sum();
            prop_assert!(s.abs() < 1e-5, "row {} grad sum {}", row, s);
        }
        let oh = one_hot(&labels, 4).unwrap();
        prop_assert_eq!(oh.sum() as usize, n);
    }

    #[test]
    fn serialization_round_trip_is_exact(seed in 0u64..200, act in activation_strategy()) {
        let net = zoo::tiny_mlp(3, 5, 2, act, seed).unwrap();
        let restored = serialize::from_bytes(&serialize::to_bytes(&net)).unwrap();
        prop_assert_eq!(restored.parameters_flat(), net.parameters_flat());
        let x = Tensor::from_fn(&[3], |i| (i as f32 + seed as f32 * 0.01).sin());
        prop_assert!(restored
            .forward_sample(&x)
            .unwrap()
            .approx_eq(&net.forward_sample(&x).unwrap(), 1e-6));
    }

    #[test]
    fn fingerprint_changes_when_any_parameter_changes(
        seed in 0u64..200,
        act in activation_strategy(),
        param_fraction in 0.0f64..1.0,
        delta_bits in 1u32..24,
    ) {
        // The content-addressing contract of the evaluator cache: perturbing
        // any single parameter — by as little as one mantissa ULP step — must
        // change the network fingerprint, and restoring the parameter must
        // restore the fingerprint exactly.
        let net = zoo::tiny_mlp(4, 6, 3, act, seed).unwrap();
        let base = NetworkFingerprint::of(&net);
        prop_assert_eq!(base, NetworkFingerprint::of(&net.clone()));

        let index = ((net.num_parameters() - 1) as f64 * param_fraction) as usize;
        let original = net.parameter(index).unwrap();
        // Flip a single low mantissa bit so even near-invisible numeric
        // changes are covered (never a no-op: XOR changes the bit pattern).
        let tweaked_value = f32::from_bits(original.to_bits() ^ (1u32 << (delta_bits % 23)));
        let mut tampered = net.clone();
        tampered.set_parameter(index, tweaked_value).unwrap();
        prop_assert_ne!(
            base,
            NetworkFingerprint::of(&tampered),
            "parameter {} tweak went unnoticed",
            index
        );

        tampered.set_parameter(index, original).unwrap();
        prop_assert_eq!(base, NetworkFingerprint::of(&tampered));
    }

    #[test]
    fn fingerprint_changes_when_any_structural_field_changes(net in arb_model()) {
        // Every conv stride and pad, pool kernel and stride, activation and
        // input edge that can change while the network still validates
        // changes the fingerprint; the parameters stay bit-identical.
        let variants = structural_variants(&net);
        let fields: BTreeSet<&str> = variants.iter().map(|(_, field, _)| *field).collect();
        prop_assert_eq!(fields, BTreeSet::from(["activation", "edge", "kernel", "pad", "stride"]));
        for (base, field, changed) in &variants {
            prop_assert_eq!(base.parameters_flat(), changed.parameters_flat());
            prop_assert_ne!(
                NetworkFingerprint::of(base),
                NetworkFingerprint::of(changed),
                "{} change went unnoticed: {}",
                field,
                changed.summary()
            );
        }
    }

    #[test]
    fn round_trip_is_bit_exact_and_behaviour_preserving(net in arb_model()) {
        let bytes = serialize::to_bytes(&net);
        let restored = serialize::from_bytes(&bytes).unwrap();
        // Encode(decode(bytes)) reproduces the stream exactly, so the
        // fingerprint survives an export → import round trip.
        prop_assert_eq!(serialize::to_bytes(&restored), bytes);
        prop_assert_eq!(NetworkFingerprint::of(&restored), NetworkFingerprint::of(&net));
        prop_assert_eq!(restored.num_parameters(), net.num_parameters());
        prop_assert_eq!(restored.summary(), net.summary());

        let mut shape = vec![2];
        shape.extend_from_slice(net.input_shape());
        let batch = Tensor::from_fn(&shape, |j| ((j * 13 + 5) as f32 * 0.07).sin());
        let a = net.forward(&batch).unwrap();
        let b = restored.forward(&batch).unwrap();
        prop_assert_eq!(a.data(), b.data());
    }

    #[test]
    fn truncated_streams_are_rejected(seed in 0u64..50, frac in 0.0f32..1.0) {
        let bytes = serialize::to_bytes(&zoo::residual_classifier(seed).expect("valid"));
        // Any strict prefix must fail — either at the length check, the
        // checksum, or the parser. None may yield a network.
        let cut = ((bytes.len() - 1) as f32 * frac) as usize;
        prop_assert!(serialize::from_bytes(&bytes[..cut]).is_err());
    }

    #[test]
    fn padded_streams_are_rejected(seed in 0u64..50, extra in 1usize..16, byte in 0u8..255) {
        let mut bytes = serialize::to_bytes(&zoo::branching_classifier(seed).expect("valid"));
        bytes.extend(std::iter::repeat_n(byte, extra));
        // Appended bytes shift the checksum trailer off the real digest.
        prop_assert!(serialize::from_bytes(&bytes).is_err());
    }

    #[test]
    fn any_single_bit_flip_is_rejected(seed in 0u64..50, pos in 0usize..100_000, bit in 0u32..8) {
        let mut bytes = serialize::to_bytes(&zoo::residual_classifier(seed).expect("valid"));
        let idx = pos % bytes.len();
        bytes[idx] ^= 1 << bit;
        let err = serialize::from_bytes(&bytes).unwrap_err();
        prop_assert!(matches!(err, NnError::Deserialize(_)), "flip at {}: {}", idx, err);
        // Flips in the body trip the checksum with the actionable message;
        // flips inside the 8-byte trailer corrupt the stored digest itself.
        prop_assert!(
            err.to_string().contains("checksum mismatch"),
            "flip at {} of {}: {}", idx, bytes.len(), err
        );
    }

    #[test]
    fn fingerprints_are_sensitive_to_single_parameter_bits(
        seed in 0u64..50,
        pidx in 0usize..10_000,
        bit in 0u32..23,
    ) {
        // Flip one mantissa bit of one parameter: the fingerprints must
        // differ (and the unchanged copy must collide).
        let net = zoo::tiny_cnn(2, 3, Activation::Tanh, seed).expect("valid geometry");
        let mut params = net.parameters_flat();
        let idx = pidx % params.len();
        params[idx] = f32::from_bits(params[idx].to_bits() ^ (1 << bit));
        let mut flipped = net.clone();
        flipped.set_parameters_flat(&params).unwrap();

        let original = NetworkFingerprint::of(&net);
        prop_assert_eq!(NetworkFingerprint::of(&net.clone()), original);
        prop_assert_ne!(NetworkFingerprint::of(&flipped), original);
    }

    #[test]
    fn model_decoder_survives_hostile_streams(
        body in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..96),
        field in 0u8..6,
        at in 0usize..8,
        lie in prop_oneof![0u32..12, 0u32..u32::MAX],
    ) {
        // Arbitrary bytes, with and without a valid header in front, behind a
        // correct checksum: the decoder itself must answer.
        check_decode(&with_checksum(body.clone()))?;
        let mut headed = model_stream(&[4], 0, &[]);
        headed.truncate(headed.len() - 12);
        headed.extend_from_slice(&body);
        check_decode(&with_checksum(headed))?;

        // A valid residual-and-concat stream with one field lying: the node
        // count, an edge id, a payload length, a layer tag or a node tag.
        let mut nodes: Vec<RawNode> = vec![
            (0, vec![], None),
            (1, vec![0], payload(dense_payload(4, 3))),
            (1, vec![1], payload(vec![5, 0])),
            (1, vec![0], payload(dense_payload(4, 3))),
            (2, vec![2, 3], None),
            (3, vec![4, 1], None),
            (1, vec![5], payload(dense_payload(6, 2))),
        ];
        prop_assert!(serialize::from_bytes(&model_stream(&[4], 7, &nodes)).is_ok());
        let mut count = nodes.len() as u32;
        let k = at % nodes.len();
        match field {
            0 => count = lie,
            1 => {
                if let Some(edge) = nodes[k].1.first_mut() {
                    *edge = lie;
                }
            }
            2 => nodes[k].1 = (0..lie % 5).map(|i| i.wrapping_mul(lie)).collect(),
            3 => {
                if let Some((_, p)) = nodes[k].2.as_mut() {
                    p[0] = lie as u8;
                }
            }
            4 => nodes[k].0 = lie as u8,
            _ => {
                if let Some((len, _)) = nodes[k].2.as_mut() {
                    *len = lie;
                }
            }
        }
        check_decode(&model_stream(&[4], count, &nodes))?;
        // Lying shapes: dimensions whose product overflows, or that no layer
        // accepts.
        check_decode(&model_stream(&[lie, u32::MAX, lie], count, &nodes))?;
    }
}
