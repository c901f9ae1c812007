//! End-to-end coverage of the vendor/user protocol through serialization.
//!
//! The shipped artifacts of the paper's Fig. 1 flow are **bytes**: the vendor
//! serializes the golden model (`nn::serialize`) and the functional-test suite
//! (`protocol`), both travel the unsecure distribution path, and the user-side
//! verdicts must be exactly the same as if everything had stayed in memory.
//! These tests exercise that full round trip directly (it was previously only
//! covered indirectly via the examples).

use dnnip_accel::ip::{AcceleratorIp, FloatIp};
use dnnip_accel::quant::BitWidth;
use dnnip_core::protocol::FunctionalTestSuite;
use dnnip_faults::detection::MatchPolicy;
use dnnip_nn::layers::Activation;
use dnnip_nn::{serialize, zoo, Network};
use dnnip_tensor::Tensor;

fn vendor_network() -> Network {
    zoo::tiny_mlp(5, 12, 3, Activation::Relu, 41).unwrap()
}

fn functional_tests(net: &Network, n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|i| Tensor::from_fn(net.input_shape(), |j| ((i * 5 + j) as f32 * 0.47).sin()))
        .collect()
}

/// Serialize both shipped artifacts and bring them back, as the user would.
fn ship_and_receive(net: &Network, suite: &FunctionalTestSuite) -> (Network, FunctionalTestSuite) {
    let received_net = serialize::from_bytes(&serialize::to_bytes(net)).unwrap();
    let received_suite = FunctionalTestSuite::from_bytes(&suite.to_bytes()).unwrap();
    (received_net, received_suite)
}

#[test]
fn untampered_replay_passes_after_the_full_byte_round_trip() {
    let net = vendor_network();
    let suite = FunctionalTestSuite::from_network(
        &net,
        functional_tests(&net, 6),
        MatchPolicy::OutputTolerance(1e-4),
    )
    .unwrap();
    let (received_net, received_suite) = ship_and_receive(&net, &suite);
    assert_eq!(received_suite, suite, "suite must survive serialization");

    let outcome = received_suite
        .validate(&FloatIp::new(received_net))
        .unwrap();
    assert!(outcome.passed, "clean replay failed: {outcome:?}");
    assert_eq!(outcome.num_mismatches, 0);
    assert_eq!(outcome.num_tests, 6);
}

#[test]
fn tamper_verdicts_survive_serialization() {
    let net = vendor_network();
    let suite = FunctionalTestSuite::from_network(
        &net,
        functional_tests(&net, 6),
        MatchPolicy::OutputTolerance(1e-4),
    )
    .unwrap();
    let (received_net, received_suite) = ship_and_receive(&net, &suite);

    // Tamper with the received model — the scenario the protocol exists for.
    let mut tampered = received_net;
    let last = tampered.num_parameters() - 1;
    tampered.set_parameter(last, 20.0).unwrap();

    let in_memory = suite.validate(&FloatIp::new(tampered.clone())).unwrap();
    let round_tripped = received_suite.validate(&FloatIp::new(tampered)).unwrap();
    assert!(!in_memory.passed);
    // The verdict — including which test fails first and how many mismatch —
    // must be identical before and after the byte round trip.
    assert_eq!(round_tripped, in_memory);
}

#[test]
fn quantized_ip_verdicts_are_stable_across_the_round_trip() {
    // The argmax policy (the one a vendor ships for a fixed-point accelerator)
    // must keep accepting the benign quantized IP after both artifacts have
    // been through bytes, and keep rejecting a tampered one.
    let net = vendor_network();
    let suite =
        FunctionalTestSuite::from_network(&net, functional_tests(&net, 8), MatchPolicy::ArgMax)
            .unwrap();
    let (received_net, received_suite) = ship_and_receive(&net, &suite);
    assert_eq!(received_suite.policy, MatchPolicy::ArgMax);

    let accel = AcceleratorIp::from_network(&received_net, BitWidth::Int8);
    assert!(received_suite.validate(&accel).unwrap().passed);

    let mut tampered_net = received_net;
    // Blow up the last output bias: every prediction collapses onto that class,
    // which the argmax policy must flag on any test set with >1 distinct label.
    let last = tampered_net.num_parameters() - 1;
    tampered_net.set_parameter(last, 50.0).unwrap();
    let tampered = AcceleratorIp::from_network(&tampered_net, BitWidth::Int8);
    let outcome = received_suite.validate(&tampered).unwrap();
    assert!(!outcome.passed, "tampered quantized IP slipped through");
    assert!(outcome.first_failure.is_some());
}

#[test]
fn forged_golden_outputs_fail_validation_after_the_round_trip() {
    // A man-in-the-middle who rewrites a golden output (to mask a tampered
    // model) produces a perfectly well-formed byte stream — the forgery must
    // still surface as a failed replay against the honest IP.
    let net = vendor_network();
    let mut forged = FunctionalTestSuite::from_network(
        &net,
        functional_tests(&net, 3),
        MatchPolicy::OutputTolerance(1e-3),
    )
    .unwrap();
    forged.golden_outputs[1] = forged.golden_outputs[1].map(|x| 1.0 - x);
    let received = FunctionalTestSuite::from_bytes(&forged.to_bytes()).unwrap();
    let outcome = received.validate(&FloatIp::new(net)).unwrap();
    assert!(!outcome.passed, "forged golden output validated cleanly");
    assert_eq!(outcome.first_failure, Some(1));
    assert_eq!(outcome.num_mismatches, 1);
}
