//! Fig. 3 — validation coverage vs number of functional tests for the three
//! generation methods (training-set selection, gradient-based, combined) on the
//! CIFAR model.
//!
//! ```text
//! cargo run --release -p dnnip-bench --bin fig3_methods_sweep [smoke|default|paper]
//! ```

use dnnip_bench::{
    cache_banner, criterion_spec_from_env, evaluator_in, pct, prepare_cifar, register_model,
    seed_from_env_or, workspace_from_env, ExperimentProfile,
};
use dnnip_core::generator::GenerationMethod;
use dnnip_core::gradgen::GradGenConfig;
use dnnip_core::par::ExecPolicy;
use dnnip_core::workspace::TestGenRequest;
use dnnip_tensor::Tensor;

fn main() {
    let profile = ExperimentProfile::from_env_or_args();
    println!("== Fig. 3: validation coverage of different methods (CIFAR model) ==");
    println!("profile: {}\n", profile.name());

    let model = prepare_cifar(profile, seed_from_env_or(11));
    // One workspace evaluator for the whole sweep: every budget re-evaluates
    // the same candidate pool, so all sweeps after the first hit the shared
    // covered-set cache instead of redoing criterion work — and with the
    // persistent tier on, a rerun of this binary starts warm. The criterion
    // follows `DNNIP_CRITERION` (parameter-gradient when unset).
    let ws = workspace_from_env();
    println!("{}", cache_banner(&ws));
    let fingerprint = register_model(&ws, &model);
    let evaluator = evaluator_in(&ws, &model);
    let pool_size = profile.candidate_pool().min(model.dataset.len());
    let pool = &model.dataset.inputs[..pool_size];
    // Key the pool once: every request below runs on a clone of it, and
    // clones carry their source's content keys, so no run re-hashes it.
    Tensor::content_keys(pool);
    println!(
        "{}: {} parameters, {} coverable units under criterion {}, candidate pool of {} \
         training images, train acc {}",
        model.name,
        model.network.num_parameters(),
        evaluator.num_units(),
        evaluator.criterion().id(),
        pool.len(),
        pct(model.train_accuracy, 7)
    );

    let budgets = profile.fig3_budgets();
    let methods = [
        GenerationMethod::TrainingSetSelection,
        GenerationMethod::GradientBased,
        GenerationMethod::Combined,
    ];

    println!("\n  #tests | training-selection | gradient-based | combined");
    println!("  -------+--------------------+----------------+---------");
    for &budget in &budgets {
        let mut row = format!("  {budget:>6} |");
        for method in methods {
            // Longer descent and larger per-round random restarts: each
            // synthetic batch explores a different part of the input space,
            // which is what lets the gradient-based curve keep rising.
            let request = TestGenRequest::new(fingerprint, method, budget)
                .with_criterion_selector(criterion_spec_from_env())
                .with_gradgen(GradGenConfig {
                    steps: 30,
                    eta: 1.0,
                    init_noise: 0.5,
                    exec: ExecPolicy::auto(),
                    ..GradGenConfig::default()
                })
                .with_candidates(pool.to_vec());
            let out = ws.run(&request).expect("generation");
            let cell = pct(out.final_coverage(), 8);
            match method {
                GenerationMethod::TrainingSetSelection => row.push_str(&format!(" {cell:>18} |")),
                GenerationMethod::GradientBased => row.push_str(&format!(" {cell:>14} |")),
                _ => row.push_str(&format!(" {cell:>8}")),
            }
        }
        println!("{row}");
    }

    // The whole-training-set ceiling the paper discusses (~8% of parameters are
    // never activated by any training sample).
    let whole_pool = evaluator
        .coverage_of_set(pool)
        .expect("coverage of the whole candidate pool");
    println!(
        "\n  coverage of the whole candidate pool ({} images): {}",
        pool.len(),
        pct(whole_pool, 8)
    );
    let stats = ws.cache_stats();
    println!(
        "  covered-set cache: {} hits / {} misses ({:.1}% hit rate), {} entries, {} evictions",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
        stats.entries,
        stats.evictions
    );
    if let Some(disk) = ws.disk_stats() {
        println!(
            "  disk tier: {} hits / {} misses, {} writes ({} errors)",
            disk.hits, disk.misses, disk.writes, disk.write_errors
        );
    }
    println!(
        "  paper's qualitative shape: selection saturates (~86-90%), gradient-based keeps rising,"
    );
    println!("  combined dominates at small budgets (30 tests ≈ 92% in the paper).");
}
