//! Tests of the persistent cache tier through the public `Workspace` API:
//! disk round trips are bit-exact, corruption degrades to silent misses, and
//! a second workspace over the same directory starts warm.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dnnip_core::bitset::Bitset;
use dnnip_core::coverage::{CoverageConfig, EpsilonPolicy};
use dnnip_core::eval::Evaluator;
use dnnip_core::workspace::{CriterionSpec, DiskCacheConfig, Workspace, WorkspaceConfig};
use dnnip_nn::layers::Activation;
use dnnip_nn::{zoo, Network};
use dnnip_tensor::Tensor;
use proptest::prelude::*;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A unique throwaway cache directory per test invocation (proptest runs the
/// body many times; each case must see a fresh tier).
fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "dnnip-persistent-cache-{tag}-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn workspace_at(dir: &Path) -> Workspace {
    Workspace::with_config(WorkspaceConfig {
        disk: DiskCacheConfig::at(dir),
        ..WorkspaceConfig::default()
    })
}

/// Covered sets of `pool` from a standalone budget-0 evaluator: no memory
/// cache, no disk tier, so nothing is served from what the test wrote.
fn fresh_sets(net: impl Into<Arc<Network>>, pool: &[Tensor]) -> Vec<Arc<Bitset>> {
    Evaluator::with_cache_bytes(net, CoverageConfig::default(), 0)
        .activation_sets(pool)
        .unwrap()
}

fn samples(seeds: &[u64]) -> Vec<Tensor> {
    seeds
        .iter()
        .map(|&s| Tensor::from_fn(&[6], |j| ((s as usize * 6 + j) as f32 * 0.37).sin()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn disk_round_tripped_sets_equal_fresh_computation(
        net_seed in 0u64..6,
        sample_seeds in prop::collection::vec(0u64..64, 1..10),
    ) {
        let dir = temp_dir("roundtrip");
        let net = zoo::tiny_mlp(6, 12, 4, Activation::Relu, net_seed).unwrap();
        let pool = samples(&sample_seeds);

        // Process 1: compute (and spill).
        let first = workspace_at(&dir);
        let key = first.register("m", net.clone(), CoverageConfig::default());
        let spilled = first
            .default_evaluator(key)
            .unwrap()
            .activation_sets(&pool)
            .unwrap();
        prop_assert!(first.disk_stats().unwrap().writes > 0);

        // Process 2 (fresh workspace, same directory): every set loads from
        // disk and must equal both the spilled copy and a cache-free
        // evaluator's fresh computation, bit for bit.
        let second = workspace_at(&dir);
        let key2 = second.register("m", net.clone(), CoverageConfig::default());
        prop_assert_eq!(key, key2);
        let loaded = second
            .default_evaluator(key2)
            .unwrap()
            .activation_sets(&pool)
            .unwrap();
        let fresh = fresh_sets(&net, &pool);
        prop_assert_eq!(&loaded, &spilled);
        prop_assert_eq!(&loaded, &fresh);
        let disk = second.disk_stats().unwrap();
        prop_assert!(disk.hits > 0, "second workspace never touched the tier");

        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Disk-tier hygiene property: an arbitrarily tiny byte budget may evict
    /// any subset of the segment files, but whatever a later workspace finds
    /// (or recomputes) is bit-identical to a cache-free computation, and the
    /// tier never overshoots its budget.
    #[test]
    fn tiny_byte_budgets_evict_but_never_corrupt(
        net_seed in 0u64..4,
        sample_seeds in prop::collection::vec(0u64..64, 4..10),
        max_bytes in 64u64..4096,
    ) {
        // Duplicate seeds collapse to one cache key; the lookup-count
        // assertions below need distinct samples.
        let mut sample_seeds = sample_seeds;
        sample_seeds.sort_unstable();
        sample_seeds.dedup();
        let dir = temp_dir("evict");
        let budgeted = |dir: &Path| {
            Workspace::with_config(WorkspaceConfig {
                disk: DiskCacheConfig::at(dir).with_max_bytes(Some(max_bytes)),
                ..WorkspaceConfig::default()
            })
        };
        let net = zoo::tiny_mlp(6, 12, 4, Activation::Relu, net_seed).unwrap();
        let pool = samples(&sample_seeds);

        let first = budgeted(&dir);
        let key = first.register("m", net.clone(), CoverageConfig::default());
        let evaluator = first.default_evaluator(key).unwrap();
        // One request per sample: one segment file each, so the eviction
        // pressure builds file by file like real mixed traffic.
        for sample in &pool {
            evaluator.activation_sets(std::slice::from_ref(sample)).unwrap();
        }
        let d1 = first.disk_stats().unwrap();
        prop_assert!(
            d1.resident_bytes <= max_bytes,
            "tier overshot its budget: {} > {max_bytes}", d1.resident_bytes
        );

        // A fresh workspace over the (partially evicted) tier: surviving
        // segments serve hits, evicted ones recompute — either way the
        // results equal a cache-free evaluator's, bit for bit.
        let second = budgeted(&dir);
        let key2 = second.register("m", net.clone(), CoverageConfig::default());
        let loaded = second
            .default_evaluator(key2)
            .unwrap()
            .activation_sets(&pool)
            .unwrap();
        let fresh = fresh_sets(&net, &pool);
        prop_assert_eq!(&loaded, &fresh);
        let d2 = second.disk_stats().unwrap();
        prop_assert_eq!(
            (d2.hits + d2.misses) as usize, pool.len(),
            "every lookup must resolve to a clean hit or miss"
        );
        prop_assert!(d2.resident_bytes <= max_bytes);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `Workspace::vacuum` property: whatever the traffic looked like, only
    /// the UNREGISTERED model's directory is reclaimed — the registered
    /// model's entries keep serving hits afterwards.
    #[test]
    fn vacuum_reclaims_exactly_the_unregistered_models(
        keep_seed in 0u64..16,
        drop_seed in 16u64..32,
        sample_seeds in prop::collection::vec(0u64..64, 1..6),
    ) {
        let mut sample_seeds = sample_seeds;
        sample_seeds.sort_unstable();
        sample_seeds.dedup();
        let dir = temp_dir("vacuum");
        let keep_net = zoo::tiny_mlp(6, 12, 4, Activation::Relu, keep_seed).unwrap();
        let drop_net = zoo::tiny_mlp(6, 12, 4, Activation::Tanh, drop_seed).unwrap();
        let pool = samples(&sample_seeds);

        // Session 1 populates the tier for both models.
        let first = workspace_at(&dir);
        let keep_key = first.register("keep", keep_net.clone(), CoverageConfig::default());
        let drop_key = first.register("drop", drop_net.clone(), CoverageConfig::default());
        prop_assert_ne!(keep_key, drop_key);
        first.default_evaluator(keep_key).unwrap().activation_sets(&pool).unwrap();
        first.default_evaluator(drop_key).unwrap().activation_sets(&pool).unwrap();

        // Session 2 only knows `keep`: vacuum reclaims `drop` and nothing
        // else.
        let second = workspace_at(&dir);
        let keep2 = second.register("keep", keep_net, CoverageConfig::default());
        let stats = second.vacuum().expect("tier enabled");
        prop_assert_eq!(stats.removed_models, 1, "exactly the dropped model goes");
        prop_assert!(stats.removed_files >= 1);
        prop_assert!(stats.removed_bytes > 0);
        let loaded = second
            .default_evaluator(keep2)
            .unwrap()
            .activation_sets(&pool)
            .unwrap();
        let fresh = fresh_sets(second.network(keep2).unwrap(), &pool);
        prop_assert_eq!(&loaded, &fresh);
        prop_assert_eq!(
            second.disk_stats().unwrap().hits as usize, pool.len(),
            "vacuum must not touch the registered model's entries"
        );

        // Session 3 re-registers the dropped model: its entries are gone, so
        // everything recomputes (correctly) rather than loading.
        let third = workspace_at(&dir);
        let drop3 = third.register("drop", drop_net, CoverageConfig::default());
        third.default_evaluator(drop3).unwrap().activation_sets(&pool).unwrap();
        let d3 = third.disk_stats().unwrap();
        prop_assert_eq!(d3.hits, 0, "vacuumed entries must not resurface");
        prop_assert_eq!(d3.misses as usize, pool.len());

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn two_sequential_workspaces_share_work_through_disk() {
    let dir = temp_dir("sequential");
    let net = zoo::tiny_mlp(6, 12, 4, Activation::Tanh, 3).unwrap();
    let pool = samples(&[1, 2, 3, 4, 5, 6, 7, 8]);

    let first = workspace_at(&dir);
    let key = first.register("m", net.clone(), CoverageConfig::default());
    let e1 = first.default_evaluator(key).unwrap();
    e1.activation_sets(&pool).unwrap();
    let d1 = first.disk_stats().unwrap();
    assert_eq!(d1.hits, 0, "first run over an empty directory cannot hit");
    assert_eq!(d1.writes as usize, pool.len());

    let second = workspace_at(&dir);
    let key2 = second.register("m", net, CoverageConfig::default());
    let e2 = second.default_evaluator(key2).unwrap();
    e2.activation_sets(&pool).unwrap();
    let d2 = second.disk_stats().unwrap();
    assert_eq!(
        d2.hits as usize,
        pool.len(),
        "every in-memory miss of the second workspace must be served from disk"
    );
    assert_eq!(d2.writes, 0, "disk-served entries are not rewritten");
    // In-memory promotion: an immediate replay is a pure memory hit.
    e2.activation_sets(&pool).unwrap();
    assert_eq!(second.disk_stats().unwrap().hits as usize, pool.len());
    assert_eq!(second.cache_stats().hits as usize, pool.len());

    let _ = std::fs::remove_dir_all(&dir);
}

/// The covered-set cache stores plain words. On both scaled models under
/// the paper's criterion and the neuron baseline, the resident bytes are
/// exactly one `ceil(units / 64)`-word set per entry, and a fresh workspace
/// reloads every set from the disk tier bit for bit.
#[test]
fn scaled_models_cache_exactly_their_words_and_reload_them() {
    let dir = temp_dir("scaled-words");
    let models = [
        (
            "cifar-scaled",
            zoo::cifar_model_scaled(7).unwrap(),
            CoverageConfig::default(),
        ),
        (
            "mnist-scaled",
            zoo::mnist_model_scaled(14).unwrap(),
            CoverageConfig {
                epsilon: EpsilonPolicy::RelativeToMax(1e-2),
                ..CoverageConfig::default()
            },
        ),
    ];
    let criteria = [
        CriterionSpec::ModelDefault,
        CriterionSpec::Spec("neuron-activation:0.25".to_string()),
    ];
    let pools: Vec<Vec<Tensor>> = models
        .iter()
        .map(|(_, net, _)| {
            (0..64)
                .map(|i| {
                    Tensor::from_fn(net.input_shape(), |j| ((i * 7919 + j) as f32 * 0.37).sin())
                })
                .collect()
        })
        .collect();

    let first = workspace_at(&dir);
    let mut cold = Vec::new();
    let mut word_bytes = 0;
    for ((name, net, coverage), pool) in models.iter().zip(&pools) {
        let model = first.register(*name, net.clone(), *coverage);
        for spec in &criteria {
            let evaluator = first.evaluator(model, spec).unwrap();
            let sets = evaluator.activation_sets(pool).unwrap();
            word_bytes += sets.len() * evaluator.num_units().div_ceil(64) * 8;
            cold.push(sets);
        }
    }
    let stats = first.cache_stats();
    assert_eq!(stats.entries, 4 * 64);
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.resident_bytes, word_bytes);

    let second = workspace_at(&dir);
    let mut cold = cold.into_iter();
    for ((name, net, coverage), pool) in models.iter().zip(&pools) {
        let model = second.register(*name, net.clone(), *coverage);
        for spec in &criteria {
            let reloaded = second
                .evaluator(model, spec)
                .unwrap()
                .activation_sets(pool)
                .unwrap();
            assert_eq!(reloaded, cold.next().unwrap(), "{name} {spec:?}");
        }
    }
    let disk = second.disk_stats().unwrap();
    assert_eq!(disk.hits, 4 * 64, "every set reloads from the tier");
    assert_eq!(disk.misses, 0);
    assert_eq!(second.cache_stats().resident_bytes, word_bytes);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every regular file under `dir`, depth first.
fn collect_files(dir: &PathBuf, out: &mut Vec<PathBuf>) {
    for e in std::fs::read_dir(dir).unwrap() {
        let p = e.unwrap().path();
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}

#[test]
fn truncated_segments_degrade_to_misses_and_heal() {
    let dir = temp_dir("truncate");
    let net = zoo::tiny_mlp(6, 12, 4, Activation::Relu, 5).unwrap();
    let pool = samples(&[10, 11, 12, 13]);

    let first = workspace_at(&dir);
    let key = first.register("m", net.clone(), CoverageConfig::default());
    let expected = first
        .default_evaluator(key)
        .unwrap()
        .activation_sets(&pool)
        .unwrap();

    // Segment packing: ONE request's misses land in ONE file. Truncate it
    // below its file header, wiping every record at once.
    let mut entries = Vec::new();
    collect_files(&dir, &mut entries);
    assert_eq!(entries.len(), 1, "one segment file per request");
    let segment = entries.pop().unwrap();
    let bytes = std::fs::read(&segment).unwrap();
    std::fs::write(&segment, &bytes[..10]).unwrap();

    // A fresh workspace sees only corruption: zero disk hits, correct
    // results anyway (recomputed), no errors surfaced.
    let second = workspace_at(&dir);
    let key2 = second.register("m", net, CoverageConfig::default());
    let recomputed = second
        .default_evaluator(key2)
        .unwrap()
        .activation_sets(&pool)
        .unwrap();
    assert_eq!(recomputed, expected);
    let disk = second.disk_stats().unwrap();
    assert_eq!(disk.hits, 0, "a truncated segment must read as misses");
    assert_eq!(disk.misses as usize, pool.len());
    assert_eq!(
        disk.writes as usize,
        pool.len(),
        "recomputed entries heal the tier"
    );

    // And the healed tier serves a third workspace normally again (the
    // truncated husk is still on disk; its scan simply yields no records).
    let third = workspace_at(&dir);
    let key3 = third.register(
        "m",
        second.network(key2).map(|n| (*n).clone()).unwrap(),
        CoverageConfig::default(),
    );
    third
        .default_evaluator(key3)
        .unwrap()
        .activation_sets(&pool)
        .unwrap();
    assert_eq!(third.disk_stats().unwrap().hits as usize, pool.len());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_payload_bytes_miss_without_poisoning_the_segment() {
    let dir = temp_dir("bitflip");
    let net = zoo::tiny_mlp(6, 12, 4, Activation::Relu, 5).unwrap();
    let pool = samples(&[20, 21, 22, 23]);

    let first = workspace_at(&dir);
    let key = first.register("m", net.clone(), CoverageConfig::default());
    let expected = first
        .default_evaluator(key)
        .unwrap()
        .activation_sets(&pool)
        .unwrap();

    // Flip the segment's final byte: the last byte of the LAST record's
    // payload. Its checksum breaks; the earlier records stay pristine.
    let mut entries = Vec::new();
    collect_files(&dir, &mut entries);
    assert_eq!(entries.len(), 1, "one segment file per request");
    let segment = entries.pop().unwrap();
    let mut bytes = std::fs::read(&segment).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x55;
    std::fs::write(&segment, &bytes).unwrap();

    let second = workspace_at(&dir);
    let key2 = second.register("m", net, CoverageConfig::default());
    let recomputed = second
        .default_evaluator(key2)
        .unwrap()
        .activation_sets(&pool)
        .unwrap();
    assert_eq!(recomputed, expected, "corruption never changes results");
    let disk = second.disk_stats().unwrap();
    assert!(disk.misses >= 1, "the flipped record must miss");
    assert_eq!(
        (disk.hits + disk.misses) as usize,
        pool.len(),
        "every lookup resolves to a hit or a clean miss"
    );
    assert_eq!(disk.hits as usize, pool.len() - 1, "other records survive");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn criterion_and_model_digests_partition_the_tier() {
    use dnnip_core::workspace::CriterionSpec;
    let dir = temp_dir("partition");
    let pool = samples(&[20, 21, 22]);
    let a = zoo::tiny_mlp(6, 12, 4, Activation::Relu, 7).unwrap();
    let b = zoo::tiny_mlp(6, 12, 4, Activation::Relu, 8).unwrap();

    let ws = workspace_at(&dir);
    let ka = ws.register("a", a, CoverageConfig::default());
    let kb = ws.register("b", b, CoverageConfig::default());
    ws.default_evaluator(ka)
        .unwrap()
        .activation_sets(&pool)
        .unwrap();
    ws.default_evaluator(kb)
        .unwrap()
        .activation_sets(&pool)
        .unwrap();
    ws.evaluator(ka, &CriterionSpec::Spec("neuron-activation".into()))
        .unwrap()
        .activation_sets(&pool)
        .unwrap();
    // Three (model, criterion) pairs × three samples, no aliasing: the second
    // workspace loads each of the nine entries exactly once.
    let second = workspace_at(&dir);
    let ka2 = second.register(
        "a",
        (*ws.network(ka).unwrap()).clone(),
        CoverageConfig::default(),
    );
    let kb2 = second.register(
        "b",
        (*ws.network(kb).unwrap()).clone(),
        CoverageConfig::default(),
    );
    second
        .default_evaluator(ka2)
        .unwrap()
        .activation_sets(&pool)
        .unwrap();
    second
        .default_evaluator(kb2)
        .unwrap()
        .activation_sets(&pool)
        .unwrap();
    second
        .evaluator(ka2, &CriterionSpec::Spec("neuron-activation".into()))
        .unwrap()
        .activation_sets(&pool)
        .unwrap();
    let disk = second.disk_stats().unwrap();
    assert_eq!(disk.hits, 9);
    assert_eq!(disk.misses, 0);

    let _ = std::fs::remove_dir_all(&dir);
}
