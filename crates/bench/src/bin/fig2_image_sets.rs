//! Fig. 2 — validation coverage of different image sets.
//!
//! The paper compares the mean per-image validation coverage of three image
//! families on both models: Gaussian-noise images, ImageNet images (here: the
//! procedural out-of-distribution family) and the model's own training set.
//!
//! ```text
//! cargo run --release -p dnnip-bench --bin fig2_image_sets [smoke|default|paper]
//! ```

use dnnip_bench::{
    cache_banner, evaluator_in, holdout_accuracy, pct, prepare_cifar, prepare_mnist,
    seed_from_env_or, workspace_from_env, ExperimentProfile, PreparedModel,
};
use dnnip_core::workspace::Workspace;
use dnnip_dataset::{noise, ood};

fn family_coverages(
    ws: &Workspace,
    model: &PreparedModel,
    images_per_family: usize,
    seed: u64,
) -> (f32, f32, f32) {
    let evaluator = evaluator_in(ws, model);
    let shape = model.network.input_shape();
    let (channels, size) = (shape[0], shape[1]);

    // Addends chosen so the default run (seed 7) reproduces the pre-plumbing
    // streams: noise 101, OOD 102.
    let noisy = noise::noise_images(
        shape,
        images_per_family,
        &noise::NoiseConfig::default(),
        seed.wrapping_add(94),
    );
    let oods = ood::ood_images(
        channels,
        size,
        images_per_family,
        &ood::OodConfig::default(),
        seed.wrapping_add(95),
    );
    let n = images_per_family.min(model.dataset.len());
    let training = &model.dataset.inputs[..n];

    (
        evaluator
            .mean_sample_coverage(&noisy)
            .expect("noise coverage"),
        evaluator.mean_sample_coverage(&oods).expect("ood coverage"),
        evaluator
            .mean_sample_coverage(training)
            .expect("training coverage"),
    )
}

fn main() {
    let profile = ExperimentProfile::from_env_or_args();
    println!("== Fig. 2: validation coverage of different image sets ==");
    println!("profile: {}\n", profile.name());

    let seed = seed_from_env_or(7);
    let ws = workspace_from_env();
    println!("{}\n", cache_banner(&ws));
    let images = profile.fig2_images();
    for prepare in [
        prepare_mnist as fn(ExperimentProfile, u64) -> PreparedModel,
        prepare_cifar,
    ] {
        let model = prepare(profile, seed);
        let holdout = holdout_accuracy(&model, seed.wrapping_add(992));
        println!(
            "{} (train acc {}, holdout acc {}, {} params)",
            model.name,
            pct(model.train_accuracy, 7),
            pct(holdout, 7),
            model.network.num_parameters()
        );
        let (noise_cov, ood_cov, train_cov) = family_coverages(&ws, &model, images, seed);
        let criterion = dnnip_bench::criterion_from_env(&model.coverage);
        println!(
            "  image family          mean {} coverage ({images} images each)",
            criterion.id()
        );
        println!("  noisy images (rand)   {}", pct(noise_cov, 8));
        println!("  OOD images (imagenet) {}", pct(ood_cov, 8));
        println!("  training set          {}", pct(train_cov, 8));
        println!("  paper reports (MNIST): 13% / 22% / 46%   (CIFAR): 12% / 18% / 36%\n");
    }
}
