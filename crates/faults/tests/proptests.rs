//! Property-based tests for the fault-injection crate: perturbations only touch
//! what they claim to touch, attacks respect their budgets, and memory faults
//! are involutive. The replay properties live with the suite in
//! `dnnip-core`'s property tests.

use dnnip_accel::ip::{AcceleratorIp, DnnIp};
use dnnip_accel::quant::BitWidth;
use dnnip_faults::attacks::{
    random_bit_flips, Attack, GradientDescentAttack, RandomPerturbation, SingleBiasAttack,
};
use dnnip_faults::{ParamEdit, Perturbation};
use dnnip_nn::layers::Activation;
use dnnip_nn::zoo;
use dnnip_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn perturbation_touches_exactly_its_indices(seed in 0u64..300, k in 1usize..10) {
        let net = zoo::tiny_mlp(5, 9, 3, Activation::Relu, seed).unwrap();
        let total = net.num_parameters();
        let edits: Vec<ParamEdit> = (0..k)
            .map(|i| ParamEdit { index: (i * 7 + seed as usize) % total, new_value: i as f32 })
            .collect();
        let p = Perturbation::new(edits.clone(), "prop");
        let tampered = p.apply_to_network(&net).unwrap();
        let before = net.parameters_flat();
        let after = tampered.parameters_flat();
        let touched: std::collections::HashSet<usize> = edits.iter().map(|e| e.index).collect();
        for i in 0..total {
            if touched.contains(&i) {
                // The last edit for an index wins; just check it's one of the new values.
                prop_assert!(edits.iter().any(|e| e.index == i && e.new_value == after[i]));
            } else {
                prop_assert_eq!(before[i], after[i], "untouched parameter {} changed", i);
            }
        }
    }

    #[test]
    fn sba_touches_one_bias_and_gda_respects_budget(seed in 0u64..200) {
        let net = zoo::tiny_mlp(6, 12, 4, Activation::Tanh, seed).unwrap();
        let pr: Vec<Tensor> = (0..4)
            .map(|i| Tensor::from_fn(&[6], |j| ((i * 6 + j) as f32 * 0.17 + seed as f32).sin()))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);

        let sba = SingleBiasAttack::default().generate(&net, &pr, &mut rng).unwrap();
        prop_assert_eq!(sba.len(), 1);
        prop_assert!(net.param_layout().bias_indices().contains(&sba.edits[0].index));

        let gda_cfg = GradientDescentAttack { num_params: 12, max_change: 0.7, ..Default::default() };
        let gda = gda_cfg.generate(&net, &pr, &mut rng).unwrap();
        prop_assert!(gda.len() <= 12);
        prop_assert!(gda.max_abs_change(&net).unwrap() <= 0.7 + 1e-5);

        let rnd = RandomPerturbation { num_params: 9, std: 0.3 }.generate(&net, &pr, &mut rng).unwrap();
        prop_assert_eq!(rnd.len(), 9);
    }

    #[test]
    fn bit_flips_are_involutive_on_the_accelerator(seed in 0u64..200, flips in 1usize..32) {
        let net = zoo::tiny_mlp(4, 6, 3, Activation::Relu, seed).unwrap();
        let mut ip = AcceleratorIp::from_network(&net, BitWidth::Int16);
        let golden = AcceleratorIp::from_network(&net, BitWidth::Int16);
        let mut rng = StdRng::seed_from_u64(seed);
        let fault = random_bit_flips(ip.memory().num_bits(), flips, &mut rng).unwrap();
        fault.apply(&mut ip).unwrap();
        let differing_bytes = ip.memory().count_differences(golden.memory());
        prop_assert!(differing_bytes >= 1);
        prop_assert!(differing_bytes <= fault.len());
        fault.apply(&mut ip).unwrap();
        prop_assert_eq!(ip.memory().count_differences(golden.memory()), 0);
        // And the restored IP behaves identically to the golden one, bit for bit.
        let x = Tensor::from_fn(&[4], |i| i as f32 * 0.1);
        let bits = |t: Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(ip.infer(&x).unwrap()), bits(golden.infer(&x).unwrap()));
    }
}
