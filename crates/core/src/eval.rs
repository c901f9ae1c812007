//! The unified evaluator layer, the one front door to covered-unit sets and
//! coverage (Eq. 2–5 under the default criterion): one object that owns the
//! network reference, the batched gradient engine, the coverage criterion,
//! the [`CoverageConfig`] and a content-addressed covered-set cache. A cache
//! budget of 0 is the uncached compute path.
//!
//! The paper's pipeline (coverage analysis → greedy selection → gradient
//! synthesis → fault detection) re-evaluates the same samples against the same
//! network at every stage: Fig. 3 sweeps budgets over one candidate pool, and
//! every strategy's final coverage pass re-reads the pool samples its
//! selection already scored. [`Evaluator`] makes those repeats near-free: every
//! covered-unit set it computes is stored in a [`CoveredSetCache`] keyed by
//!
//! * the **network fingerprint** — a 128-bit digest of the model's structure
//!   and parameter words ([`NetworkFingerprint`]), so any parameter change
//!   invalidates silently;
//! * the **sample content hash** — 128 bits from two independently keyed
//!   multi-lane multiply chains over the sample's exact `f32` bit patterns,
//!   finalised with its length and shape (`sample_hashes`, a request's
//!   samples in one call);
//! * the **criterion digest** — the coverage criterion's id and configuration
//!   ([`crate::criterion::criterion_digest`]), so two criteria (or two
//!   configurations of one criterion) never alias each other's sets.
//!
//! The cache holds clones of the computed [`Bitset`]s under an LRU byte
//! budget, with one set of hit/miss/eviction counters for the whole cache
//! ([`CoveredSetCache::stats`]). Because covered-unit sets are bit-identical
//! across execution policies and chunkings (pinned by
//! `tests/parallel_equivalence.rs`), a cache hit returns exactly the bits a
//! fresh computation would — serial, threaded, cached and uncached results
//! are all interchangeable.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use dnnip_nn::batch::BatchGradientEngine;
use dnnip_nn::fingerprint::{lane_hashes, mix64, NetworkFingerprint, CHAIN_HI, CHAIN_LO};
use dnnip_nn::Network;
use dnnip_tensor::Tensor;

use crate::bitset::Bitset;
use crate::coverage::CoverageConfig;
use crate::criterion::{criterion_digest, CoverageCriterion, ParamGradient};
use crate::error::check_deadline;
use crate::gradgen::{GradGenConfig, GradientGenerator};
use crate::par;
use crate::persist::DiskTier;
use crate::select::SelectionSlot;
use crate::{CoreError, Result};

/// Default LRU byte budget of an evaluator's covered-unit-set cache (64 MiB —
/// roughly 8k cached sets for a 65k-parameter model).
pub const DEFAULT_CACHE_BYTES: usize = 64 * 1024 * 1024;

/// Fixed per-entry bookkeeping overhead charged against the byte budget
/// (key, LRU links, map slot) on top of the value's own bytes.
const ENTRY_OVERHEAD_BYTES: usize = 96;

/// Cache key: network fingerprint × sample content hash × criterion digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    pub(crate) net: NetworkFingerprint,
    pub(crate) sample: (u64, u64),
    pub(crate) criterion: u64,
}

/// One cached set plus its LRU bookkeeping. The set is held behind an `Arc`
/// so a hit hands the caller a reference-count bump instead of a deep copy of
/// the words.
#[derive(Debug)]
struct CacheEntry {
    value: Arc<Bitset>,
    /// Value bytes plus the per-entry overhead.
    bytes: usize,
    tick: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<CacheKey, CacheEntry>,
    /// LRU order: `tick -> key`, oldest first. Ticks are unique (monotone
    /// counter), so the BTreeMap is a total order over residents.
    order: BTreeMap<u64, CacheKey>,
    tick: u64,
    bytes: usize,
    /// The event counters. Its entry and byte gauges stay zero: they are
    /// read off the resident map at [`CoveredSetCache::stats`] time.
    counters: CacheStats,
}

impl CacheInner {
    /// Take `key`'s entry out of the map, the LRU order and the byte gauge.
    fn remove(&mut self, key: &CacheKey) -> Option<CacheEntry> {
        let entry = self.map.remove(key)?;
        self.order.remove(&entry.tick);
        self.bytes -= entry.bytes;
        Some(entry)
    }

    /// Drop every resident entry and zero the byte gauge; the event counters
    /// are kept.
    fn drop_residents(&mut self) {
        self.map.clear();
        self.order.clear();
        self.bytes = 0;
    }
}

/// Snapshot of a cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the in-memory cache.
    pub hits: u64,
    /// Lookups not answered from memory (served by the persistent tier, when
    /// one is attached, or freshly computed).
    pub misses: u64,
    /// Lookups that found their key **in flight** on another thread and were
    /// served by waiting for that computation instead of duplicating it (the
    /// single-flight path; each also counts as a hit once the value lands).
    pub flight_hits: u64,
    /// Values stored (hits never re-store).
    pub insertions: u64,
    /// Values dropped to stay under the byte budget.
    pub evictions: u64,
    /// Resident entries.
    pub entries: usize,
    /// Resident bytes (value bytes + per-entry overhead).
    pub bytes: usize,
    /// Resident value-payload bytes alone: `ceil(units / 64) × 8` per
    /// covered set.
    pub resident_bytes: usize,
    /// Configured byte budget (0 disables the cache).
    pub max_bytes: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Always `1.0`: covered sets are stored as plain words. Kept only for
    /// the benchmark package's `cache.compression_ratio` metric; removed by
    /// the next benchmark change.
    #[doc(hidden)]
    pub fn compression_ratio(&self) -> f64 {
        1.0
    }

    /// Mean budget-relevant bytes per resident entry (value + overhead;
    /// `0.0` for an empty cache).
    pub fn bytes_per_entry(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            self.bytes as f64 / self.entries as f64
        }
    }
}

/// Registry of cache keys whose values are being computed **right now** by
/// some thread — the single-flight table.
///
/// A thread that misses on a key first tries to [`FlightTable::claim`] it;
/// losing the claim means another thread is already computing that exact
/// value, so the loser parks on the condvar instead of duplicating the work
/// (the thundering-herd fix for cold concurrent requests over shared
/// samples). Claims are always released through a [`FlightGuard`], so an
/// erroring — or even panicking — computation wakes its waiters, who re-probe
/// the cache and fall back to their own computation instead of hanging.
///
/// The key set is complete after every operation (one `insert` or `remove`
/// under the lock), so a poisoned lock is recovered and used as it is: a
/// guard released while a panic unwinds must never panic a second time.
#[derive(Debug, Default)]
struct FlightTable {
    keys: Mutex<HashSet<CacheKey>>,
    wake: Condvar,
}

impl FlightTable {
    fn lock(&self) -> MutexGuard<'_, HashSet<CacheKey>> {
        self.keys.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claim `key` for this thread's computation; `false` when another
    /// thread's computation of it is already in flight.
    fn claim(&self, key: CacheKey) -> bool {
        self.lock().insert(key)
    }

    /// Release claims and wake every waiter.
    fn release(&self, keys: &[CacheKey]) {
        let mut set = self.lock();
        for key in keys {
            set.remove(key);
        }
        drop(set);
        self.wake.notify_all();
    }

    /// Block until `key` is not in flight (returns immediately when it never
    /// was), or until `deadline` passes first.
    fn wait_idle(&self, key: &CacheKey, deadline: Option<Instant>) -> Result<()> {
        let mut set = self.lock();
        while set.contains(key) {
            set = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => self.wake.wait(set).unwrap_or_else(PoisonError::into_inner),
                Some(left) if left.is_zero() => return Err(CoreError::DeadlineExceeded),
                Some(left) => {
                    let woken = self.wake.wait_timeout(set, left);
                    woken.unwrap_or_else(PoisonError::into_inner).0
                }
            };
        }
        Ok(())
    }
}

/// Unwind-safe ownership of in-flight claims: dropping the guard — on normal
/// completion, an error return, or a panic inside the compute closure —
/// releases every claimed key and wakes the waiters.
struct FlightGuard<'a> {
    table: &'a FlightTable,
    keys: Vec<CacheKey>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.keys.is_empty() {
            self.table.release(&self.keys);
        }
    }
}

/// Content-addressed LRU cache of covered-unit sets, one [`Bitset`] per
/// `(network, sample, criterion)`.
///
/// Thread-safe behind one mutex; lookups and insertions are O(log n) in the
/// resident count. Keys are content digests, never references — two evaluators
/// over byte-identical networks share hits, and a tampered clone of a network
/// can never alias the original's entries. One set of counters covers the
/// whole cache. Fresh computations are **single-flight**: concurrent misses
/// of one key compute it once (see the private `FlightTable`).
#[derive(Debug)]
pub struct CoveredSetCache {
    max_bytes: usize,
    inner: Mutex<CacheInner>,
    flight: FlightTable,
    /// Optional persistent tier consulted on in-memory misses and filled on
    /// fresh computations (shared by every evaluator of a workspace).
    disk: Option<Arc<DiskTier>>,
}

impl CoveredSetCache {
    /// Create a cache with an LRU byte budget (0 disables caching) and an
    /// optional persistent tier: in-memory misses probe the tier before
    /// recomputing, and fresh computations are spilled to it.
    pub(crate) fn new(max_bytes: usize, disk: Option<Arc<DiskTier>>) -> Self {
        Self {
            max_bytes,
            inner: Mutex::new(CacheInner::default()),
            flight: FlightTable::default(),
            disk,
        }
    }

    /// The configured LRU byte budget (0 means the cache is disabled).
    pub(crate) fn max_bytes(&self) -> usize {
        self.max_bytes
    }

    /// The cache state. A panic under the lock may have left the map, the
    /// LRU order and the gauges out of step, so a poisoned cache drops its
    /// residents (every value can be recomputed) and keeps its event
    /// counters.
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            let mut inner = poisoned.into_inner();
            inner.drop_residents();
            self.inner.clear_poison();
            inner
        })
    }

    fn get(&self, key: &CacheKey) -> Option<Arc<Bitset>> {
        let mut inner = self.lock();
        // Bump the entry to most-recently-used and record the hit. The map and
        // order structures are updated together under the same lock. Misses
        // are NOT counted here: a request's duplicate lookups of one pending
        // key trigger a single fresh computation, so the caller reports the
        // distinct-miss count via [`CoveredSetCache::note_misses`].
        let CacheInner {
            map,
            order,
            tick,
            counters,
            ..
        } = &mut *inner;
        let entry = map.get_mut(key)?;
        *tick += 1;
        order.remove(&entry.tick);
        order.insert(*tick, *key);
        entry.tick = *tick;
        counters.hits += 1;
        Some(Arc::clone(&entry.value))
    }

    fn insert(&self, key: CacheKey, value: &Arc<Bitset>) {
        let bytes = value.words().len() * 8 + ENTRY_OVERHEAD_BYTES;
        if bytes > self.max_bytes {
            // A single entry larger than the whole budget can never reside.
            return;
        }
        let mut inner = self.lock();
        // Duplicate insert (e.g. the same sample twice in one batch):
        // replace, keeping the accounting exact.
        inner.remove(&key);
        while inner.bytes + bytes > self.max_bytes {
            let Some((_, &oldest_key)) = inner.order.iter().next() else {
                break;
            };
            inner.remove(&oldest_key).expect("ordered key resident");
            inner.counters.evictions += 1;
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.order.insert(tick, key);
        inner.bytes += bytes;
        inner.counters.insertions += 1;
        inner.map.insert(
            key,
            CacheEntry {
                value: Arc::clone(value),
                bytes,
                tick,
            },
        );
    }

    /// Record `count` lookups that were not resident in memory.
    fn note_misses(&self, count: u64) {
        self.lock().counters.misses += count;
    }

    /// Record a lookup served by waiting on another thread's in-flight
    /// computation instead of duplicating it.
    fn note_flight_hit(&self) {
        self.lock().counters.flight_hits += 1;
    }

    /// Current counters over the whole cache. The entry/byte gauges are read
    /// straight off the resident map, so they can never drift from the budget
    /// accounting.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        let entries = inner.map.len();
        CacheStats {
            entries,
            bytes: inner.bytes,
            resident_bytes: inner.bytes - entries * ENTRY_OVERHEAD_BYTES,
            max_bytes: self.max_bytes,
            ..inner.counters
        }
    }

    /// Serve `samples`, whose cache keys are `keys` (one per sample, derived
    /// for the whole request in one call), through the cache: hits are
    /// returned directly, distinct misses (deduplicated by key within the
    /// request, so a sample repeated in one batch is computed exactly once)
    /// are computed in a single `compute` call and inserted.
    ///
    /// Fresh computations are **single-flight** across threads: a key another
    /// thread is already computing is not recomputed here — this request's
    /// slots for it park on the [`FlightTable`] (after this request's own
    /// misses are computed, inserted and released, so two requests can never
    /// deadlock waiting on each other's claims) and reuse the value the owner
    /// inserts. An owner whose computation fails releases its claims before
    /// returning the error; its waiters then re-probe, win the claim and run
    /// their own computation — a failed flight never poisons a waiter. A
    /// parked slot waits no longer than `deadline`.
    pub(crate) fn get_or_compute<F>(
        &self,
        samples: &[Tensor],
        keys: &[CacheKey],
        deadline: Option<Instant>,
        compute: F,
    ) -> Result<Vec<Arc<Bitset>>>
    where
        F: Fn(&[Tensor]) -> Result<Vec<Bitset>>,
    {
        debug_assert_eq!(samples.len(), keys.len());
        let mut out: Vec<Option<Arc<Bitset>>> = (0..samples.len()).map(|_| None).collect();
        // `miss_indices[p]` lists every output slot the `p`-th distinct miss
        // fills; keys computed here are kept for the insert pass. Claimed
        // keys live in the guard so an error or panic releases them.
        let mut guard = FlightGuard {
            table: &self.flight,
            keys: Vec::new(),
        };
        let mut miss_indices: Vec<Vec<usize>> = Vec::new();
        let mut miss_samples: Vec<Tensor> = Vec::new();
        let mut key_to_miss: HashMap<CacheKey, usize> = HashMap::new();
        // Keys some other thread is computing right now: (key, slots, sample).
        let mut waits: Vec<(CacheKey, Vec<usize>, Tensor)> = Vec::new();
        let mut key_to_wait: HashMap<CacheKey, usize> = HashMap::new();
        for (i, (sample, &key)) in samples.iter().zip(keys).enumerate() {
            if let Some(value) = self.get(&key) {
                out[i] = Some(value);
                continue;
            }
            if let Some(&pending) = key_to_miss.get(&key) {
                miss_indices[pending].push(i);
                continue;
            }
            if let Some(&parked) = key_to_wait.get(&key) {
                waits[parked].1.push(i);
                continue;
            }
            // First in-memory miss of this key in the request: probe the
            // persistent tier before scheduling a fresh computation. A disk
            // hit is promoted into memory, so later duplicates hit there.
            if let Some(value) = self.disk.as_ref().and_then(|d| d.load(&key)) {
                let value = Arc::new(value);
                self.note_misses(1);
                self.insert(key, &value);
                out[i] = Some(value);
                continue;
            }
            if self.flight.claim(key) {
                key_to_miss.insert(key, miss_samples.len());
                guard.keys.push(key);
                miss_indices.push(vec![i]);
                miss_samples.push(sample.clone());
            } else {
                key_to_wait.insert(key, waits.len());
                waits.push((key, vec![i], sample.clone()));
            }
        }
        if !miss_samples.is_empty() {
            self.note_misses(miss_samples.len() as u64);
            let computed: Vec<Arc<Bitset>> =
                compute(&miss_samples)?.into_iter().map(Arc::new).collect();
            for ((indices, key), value) in miss_indices.iter().zip(&guard.keys).zip(&computed) {
                self.insert(*key, value);
                for &i in indices {
                    out[i] = Some(Arc::clone(value));
                }
            }
            if let Some(disk) = &self.disk {
                // One segment-packed write for the whole request's misses
                // (they all share this evaluator's fingerprint and criterion,
                // so the tier emits exactly one file).
                let batch: Vec<(CacheKey, &Bitset)> = guard
                    .keys
                    .iter()
                    .copied()
                    .zip(computed.iter().map(|v| &**v))
                    .collect();
                disk.store_batch(&batch);
            }
        }
        // Our own claims are done: release them BEFORE parking on foreign
        // flights, so requests with interleaved miss sets can never deadlock.
        drop(guard);
        for (key, indices, sample) in waits {
            let value = self.await_flight(key, &sample, deadline, &compute)?;
            for i in indices {
                out[i] = Some(value.clone());
            }
        }
        Ok(out
            .into_iter()
            .map(|s| s.expect("every slot filled by hit or computation"))
            .collect())
    }

    /// Wait out another thread's in-flight computation of `key` and reuse its
    /// result; when the owner failed (or the value was already evicted),
    /// compute it here instead.
    fn await_flight<F>(
        &self,
        key: CacheKey,
        sample: &Tensor,
        deadline: Option<Instant>,
        compute: &F,
    ) -> Result<Arc<Bitset>>
    where
        F: Fn(&[Tensor]) -> Result<Vec<Bitset>>,
    {
        loop {
            self.flight.wait_idle(&key, deadline)?;
            if let Some(value) = self.get(&key) {
                self.note_flight_hit();
                return Ok(value);
            }
            // The flight landed nothing (failed owner / instant eviction):
            // whoever wins the claim computes; losers go back to waiting.
            if !self.flight.claim(key) {
                continue;
            }
            let guard = FlightGuard {
                table: &self.flight,
                keys: vec![key],
            };
            self.note_misses(1);
            let computed = compute(std::slice::from_ref(sample))?;
            let value = Arc::new(computed.into_iter().next().expect("one value per sample"));
            self.insert(key, &value);
            if let Some(disk) = &self.disk {
                disk.store_batch(&[(key, &*value)]);
            }
            drop(guard);
            return Ok(value);
        }
    }
}

/// Content hashes of sample tensors: shape, length and exact `f32` bit
/// patterns, 128 bits each from two independently keyed 64-bit halves. The
/// cache key of every memory and disk cache probe, and the identity
/// [`crate::workspace::Workspace::run_coalesced`] dedupes cross-request
/// candidate pools by, so "same content hash" always means "same cache
/// entry".
///
/// Each half is one [`lane_hashes`] chain over the data read as 64-bit
/// words (two `f32`s each, the first in the low half; a lone last element
/// is a low word), folded on with the rank and every dimension through the
/// splitmix64 finalizer. A request's candidates are hashed in one call, so
/// they run eight at a time.
///
/// **No collision on one element.** Two same-shape samples that differ in
/// one element differ in one word of one lane (or one tail word), keep
/// differing through every later step, and end in different values of
/// **both** halves. Samples of different shape or length differ in what the
/// finalizer folds.
///
/// Why lanes, and why eight samples: with one dependent chain per half,
/// every word waits for the previous multiply. Four lanes per half give a
/// scalar build eight independent multiplies per block. Under
/// `target-cpu=native` on AVX-512 hosts, though, LLVM packs each half's four
/// lanes into one `vpmullq`, whose latency is several times a scalar
/// `imul`'s, so one sample still ran as two dependent vector chains. Eight
/// samples side by side give the vector multiplier sixteen independent
/// chains per block.
///
/// The keys are what the disk tier stores entries under: any change to this
/// derivation must bump the persistent format version.
pub(crate) fn sample_hashes(samples: &[Tensor]) -> Vec<(u64, u64)> {
    let data: Vec<&[f32]> = samples.iter().map(Tensor::data).collect();
    lane_hashes(&data, [CHAIN_LO, CHAIN_HI])
        .into_iter()
        .zip(samples)
        .map(|(halves, sample)| {
            let [lo, hi] = halves.map(|mut h| {
                h = mix64(h ^ sample.shape().len() as u64);
                for &d in sample.shape() {
                    h = mix64(h ^ d as u64);
                }
                h
            });
            (lo, hi)
        })
        .collect()
}

/// The unified evaluation layer: coverage analysis and test synthesis over
/// one network and one coverage criterion, with every covered-unit set
/// flowing through one content-addressed cache.
///
/// The evaluator owns the shared [`BatchGradientEngine`] (which owns the
/// network), the [`crate::criterion::CoverageCriterion`], the
/// [`CoverageConfig`], the network's [`NetworkFingerprint`], a
/// [`CoveredSetCache`] and its last greedy selection, suspended for the next
/// budget over the same pool. Every generation strategy behind
/// [`crate::workspace::Workspace::run`] and the protocol's vendor side take an
/// `&Evaluator`, so repeated sweeps over overlapping sample pools (the Fig. 3
/// budgets) pay for each distinct `(network, sample, criterion)` evaluation
/// exactly once.
///
/// An `Evaluator` is a `'static`, cheaply **clonable handle**: the network is
/// held by `Arc` (constructors accept `&Network`, cloned once, or an
/// `Arc<Network>`, shared) and the cache is `Arc`-shared, so clones of one
/// evaluator observe the same cache. The standalone constructors below give
/// each evaluator its own private cache; evaluators minted by a
/// [`crate::workspace::Workspace`] share **one** cache budget (and optionally
/// a persistent disk tier) across every registered model and criterion.
#[derive(Debug, Clone)]
pub struct Evaluator {
    inner: Arc<EvalInner>,
}

#[derive(Debug)]
struct EvalInner {
    config: CoverageConfig,
    criterion: Arc<dyn CoverageCriterion>,
    /// Unit count of the criterion for this network (bitset length), computed
    /// once at construction.
    num_units: usize,
    /// Batched engine (with its precomputed weight matrices), shared by the
    /// workers and the gradient generator. Owns the evaluated network.
    engine: BatchGradientEngine,
    fingerprint: NetworkFingerprint,
    criterion_key: u64,
    cache: Arc<CoveredSetCache>,
    /// The last greedy selection, suspended for the next budget over the
    /// same pool.
    selection: SelectionSlot,
}

impl EvalInner {
    /// Contiguous chunks of `samples`, each of
    /// `min(batch_size, ⌈n / workers⌉)` samples (the last may be shorter), so
    /// a request smaller than `batch_size × workers` still gives every
    /// [`CoverageConfig::exec`] worker a chunk. Per-sample arithmetic does not
    /// depend on the chunk, so the chunking never changes results.
    fn chunks<'s>(&self, samples: &'s [Tensor]) -> Vec<&'s [Tensor]> {
        let per_worker = samples.len().div_ceil(self.config.exec.threads());
        samples
            .chunks(self.config.batch_size.min(per_worker).max(1))
            .collect()
    }

    /// The uncached compute path: [`Self::chunks`] fanned out over the
    /// [`CoverageConfig::exec`] workers, one engine call through the
    /// criterion per chunk (a sample-major forward + backward per sample for
    /// [`crate::criterion::ParamGradient`]; one stacked forward for the
    /// neuron criteria). No worker starts a chunk once `deadline` has passed.
    fn compute_sets(&self, samples: &[Tensor], deadline: Option<Instant>) -> Result<Vec<Bitset>> {
        let per_chunk = par::try_map(self.config.exec, &self.chunks(samples), |chunk| {
            check_deadline(deadline)?;
            self.criterion.covered_units(&self.engine, chunk)
        })?;
        Ok(per_chunk.into_iter().flatten().collect())
    }
}

impl Evaluator {
    /// Create an evaluator under the paper's default parameter-gradient
    /// criterion with the default cache budget ([`DEFAULT_CACHE_BYTES`]).
    pub fn new(network: impl Into<Arc<Network>>, config: CoverageConfig) -> Self {
        Self::with_cache_bytes(network, config, DEFAULT_CACHE_BYTES)
    }

    /// Create an evaluator under an explicit coverage criterion with the
    /// default cache budget. Only [`ParamGradient`] reads `config`'s
    /// `epsilon`/`projection`; `exec` and `batch_size` apply to every
    /// criterion.
    pub fn with_criterion(
        network: impl Into<Arc<Network>>,
        config: CoverageConfig,
        criterion: Arc<dyn CoverageCriterion>,
    ) -> Self {
        Self::with_criterion_cache_bytes(network, config, criterion, DEFAULT_CACHE_BYTES)
    }

    /// Create an evaluator with an explicit cache byte budget (0 disables
    /// caching; every lookup then recomputes).
    pub fn with_cache_bytes(
        network: impl Into<Arc<Network>>,
        config: CoverageConfig,
        max_bytes: usize,
    ) -> Self {
        let criterion = Arc::new(ParamGradient::from_config(&config));
        Self::with_criterion_cache_bytes(network, config, criterion, max_bytes)
    }

    /// Create an evaluator under an explicit criterion and cache byte budget.
    pub fn with_criterion_cache_bytes(
        network: impl Into<Arc<Network>>,
        config: CoverageConfig,
        criterion: Arc<dyn CoverageCriterion>,
        max_bytes: usize,
    ) -> Self {
        let network = network.into();
        let fingerprint = NetworkFingerprint::of(&network);
        Self::with_shared_cache(
            network,
            fingerprint,
            config,
            criterion,
            Arc::new(CoveredSetCache::new(max_bytes, None)),
        )
    }

    /// Build an evaluator around a pre-existing (typically workspace-shared)
    /// cache. The cache keys carry the network fingerprint and criterion
    /// digest, so arbitrarily many evaluators can share one cache without any
    /// chance of aliasing each other's entries.
    ///
    /// `fingerprint` must be `NetworkFingerprint::of(&network)`; a
    /// [`crate::workspace::Workspace`] passes its registry key, which is
    /// exactly that, instead of serialising and hashing the model again.
    pub(crate) fn with_shared_cache(
        network: Arc<Network>,
        fingerprint: NetworkFingerprint,
        config: CoverageConfig,
        criterion: Arc<dyn CoverageCriterion>,
        cache: Arc<CoveredSetCache>,
    ) -> Self {
        debug_assert_eq!(fingerprint, NetworkFingerprint::of(&network));
        let engine = BatchGradientEngine::new(network);
        let num_units = criterion.num_units(engine.network());
        let criterion_key = criterion_digest(criterion.as_ref());
        Self {
            inner: Arc::new(EvalInner {
                config,
                criterion,
                num_units,
                engine,
                fingerprint,
                criterion_key,
                cache,
                selection: SelectionSlot::default(),
            }),
        }
    }

    /// The evaluated network.
    pub fn network(&self) -> &Network {
        self.inner.engine.network()
    }

    /// The coverage criterion this evaluator computes.
    pub fn criterion(&self) -> &Arc<dyn CoverageCriterion> {
        &self.inner.criterion
    }

    /// The network's content fingerprint.
    pub fn fingerprint(&self) -> NetworkFingerprint {
        self.inner.fingerprint
    }

    /// Total number of parameters of the evaluated network.
    pub fn num_parameters(&self) -> usize {
        self.network().num_parameters()
    }

    /// Number of coverable units under this evaluator's criterion (the length
    /// of every covered-unit set).
    pub fn num_units(&self) -> usize {
        self.inner.num_units
    }

    /// Snapshot of the covered-unit-set cache counters (every model and
    /// criterion sharing the cache).
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// The cache-key criterion component: the criterion digest. Two
    /// evaluators whose `(fingerprint, criterion_key)` pairs agree address
    /// identical cache entries — the grouping identity
    /// [`crate::workspace::Workspace::run_coalesced`] buckets by.
    pub(crate) fn criterion_key(&self) -> u64 {
        self.inner.criterion_key
    }

    /// Covered-unit sets for a collection of inputs — the batched,
    /// multi-threaded hot path of the whole reproduction — as shared handles
    /// (a hit is a reference-count bump, not a deep copy of the words).
    ///
    /// Cached samples are served without touching the network; the misses
    /// run in chunks of at most [`CoverageConfig::batch_size`] samples, one
    /// engine call each, over the [`CoverageConfig::exec`] workers. Results
    /// are bit-identical across execution policies and cache budgets.
    ///
    /// # Errors
    ///
    /// Returns an error when any sample shape does not match the network input.
    pub fn activation_sets(&self, samples: &[Tensor]) -> Result<Vec<Arc<Bitset>>> {
        self.activation_sets_until(samples, None)
    }

    /// [`Evaluator::activation_sets`] that stops with
    /// [`CoreError::DeadlineExceeded`] once `deadline` passes.
    pub(crate) fn activation_sets_until(
        &self,
        samples: &[Tensor],
        deadline: Option<Instant>,
    ) -> Result<Vec<Arc<Bitset>>> {
        if self.inner.cache.max_bytes == 0 {
            // Cache disabled: skip hashing and miss bookkeeping entirely so a
            // budget of zero really is the raw compute path.
            return Ok(self
                .inner
                .compute_sets(samples, deadline)?
                .into_iter()
                .map(Arc::new)
                .collect());
        }
        self.activation_sets_hashed(samples, sample_hashes(samples), deadline)
    }

    /// [`Evaluator::activation_sets_until`] through the cache, for samples
    /// whose content hashes the caller already holds (`hashes[i]` is
    /// [`sample_hashes`] of `samples[i]`).
    pub(crate) fn activation_sets_hashed(
        &self,
        samples: &[Tensor],
        hashes: Vec<(u64, u64)>,
        deadline: Option<Instant>,
    ) -> Result<Vec<Arc<Bitset>>> {
        let keys: Vec<CacheKey> = hashes
            .into_iter()
            .map(|sample| CacheKey {
                net: self.inner.fingerprint,
                sample,
                criterion: self.inner.criterion_key,
            })
            .collect();
        self.inner
            .cache
            .get_or_compute(samples, &keys, deadline, |misses| {
                self.inner.compute_sets(misses, deadline)
            })
    }

    /// Reference covered-unit set computed independently of the batched
    /// engine and of the cache. For the default [`ParamGradient`] criterion
    /// this is the pre-batching path: one full forward + backward per
    /// `(sample, projection)` pair through [`Network::parameter_gradients`],
    /// with the direct (non-im2col) convolution kernels.
    ///
    /// The oracle the differential tests and throughput benchmarks compare
    /// the batched engine against.
    ///
    /// # Errors
    ///
    /// Returns an error when the sample shape does not match the network input.
    pub fn activation_set_reference(&self, sample: &Tensor) -> Result<Bitset> {
        self.inner
            .criterion
            .covered_units_reference(self.network(), sample)
    }

    /// The first `budget` picks of Algorithm 1's greedy selection over
    /// `sets` (this evaluator's covered sets of a candidate pool): exactly
    /// [`crate::select::greedy_select_covered`]'s, resumed from this
    /// evaluator's last selection when `sets` is the same pool of cached
    /// handles (see [`SelectionSlot`]).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`crate::select::greedy_select_covered`].
    pub(crate) fn greedy_select(&self, sets: &[Arc<Bitset>], budget: usize) -> Result<Vec<usize>> {
        self.inner.selection.select(sets, self.num_units(), budget)
    }

    /// The covered-unit set of a single input (cache-aware).
    ///
    /// # Errors
    ///
    /// Returns an error when the sample shape does not match the network input.
    pub fn activation_set(&self, sample: &Tensor) -> Result<Arc<Bitset>> {
        let mut sets = self.activation_sets(std::slice::from_ref(sample))?;
        Ok(sets.pop().expect("one set per sample"))
    }

    /// Coverage of a single input (Eq. 3 under the default criterion),
    /// cache-aware.
    ///
    /// # Errors
    ///
    /// Returns an error when the sample shape does not match the network input.
    pub fn coverage_of_sample(&self, sample: &Tensor) -> Result<f32> {
        Ok(self.activation_set(sample)?.density())
    }

    /// Coverage of a test set (Eq. 4 under the default criterion),
    /// cache-aware: density of the exact bitwise union of the members'
    /// covered-unit sets.
    ///
    /// # Errors
    ///
    /// Returns an error when any sample shape does not match the network input.
    pub fn coverage_of_set(&self, samples: &[Tensor]) -> Result<f32> {
        let sets = self.activation_sets(samples)?;
        Ok(Bitset::union_of(self.num_units(), sets.iter().map(Arc::as_ref)).density())
    }

    /// Mean per-sample coverage (Fig. 2 comparison), cache-aware.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::EmptyCandidatePool`] for an empty collection, or a
    /// shape error for incompatible samples.
    pub fn mean_sample_coverage(&self, samples: &[Tensor]) -> Result<f32> {
        if samples.is_empty() {
            return Err(CoreError::EmptyCandidatePool);
        }
        let sets = self.activation_sets(samples)?;
        let total: f32 = sets.iter().map(|s| s.density()).sum();
        Ok(total / samples.len() as f32)
    }

    /// Golden forward outputs for `samples` (vendor-side suite construction).
    ///
    /// Outputs are computed per sample through [`Network::forward_sample`] —
    /// exactly what [`crate::protocol::FunctionalTestSuite::from_network`]
    /// computes — fanned out over the evaluator's execution policy, so serial
    /// and threaded golden outputs are bit-identical. Nested budgets reuse one
    /// suite's outputs through [`crate::protocol::FunctionalTestSuite::prefix`]
    /// instead of recomputing them. Convolutions run the blocked im2col + `gemm` kernel of
    /// [`dnnip_nn::layers::Layer::infer`], the same one an IP user's
    /// `FloatIp`/`AcceleratorIp` replay runs.
    ///
    /// # Errors
    ///
    /// Returns an error when any sample shape does not match the network input.
    pub fn forward_outputs(&self, samples: &[Tensor]) -> Result<Vec<Tensor>> {
        par::try_map(self.inner.config.exec, samples, |x| -> Result<Tensor> {
            Ok(self.network().forward_sample(x)?)
        })
    }

    /// A gradient generator sharing this evaluator's batched engine (its
    /// precomputed per-layer weight matrices are cloned, not re-derived) and
    /// the criterion's synthesis objective, when it supplies one (criteria
    /// without a gradient hook fall back to the paper's cross-entropy
    /// objective).
    pub fn gradient_generator(&self, config: GradGenConfig) -> GradientGenerator {
        GradientGenerator::with_engine(self.inner.engine.clone(), config)
            .with_objective(self.criterion().gradient_objective())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::EpsilonPolicy;
    use crate::criterion::{NeuronActivation, ParamGradient, TopKNeuron};
    use crate::par::ExecPolicy;
    use dnnip_nn::layers::Activation;
    use dnnip_nn::zoo;

    fn net() -> Network {
        zoo::tiny_mlp(6, 12, 4, Activation::Relu, 3).unwrap()
    }

    fn samples(n: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| Tensor::from_fn(&[6], |j| ((i * 6 + j) as f32 * 0.37).sin()))
            .collect()
    }

    /// Covered sets of `pool` from a budget-0 evaluator of its own: computed
    /// afresh, never served by the cache under test.
    fn fresh_sets(network: &Network, pool: &[Tensor]) -> Vec<Arc<Bitset>> {
        Evaluator::with_cache_bytes(network, CoverageConfig::default(), 0)
            .activation_sets(pool)
            .unwrap()
    }

    #[test]
    fn cached_sets_match_fresh_analyzer_sets() {
        let network = net();
        let evaluator = Evaluator::new(&network, CoverageConfig::default());
        let pool = samples(8);
        let first = evaluator.activation_sets(&pool).unwrap();
        let second = evaluator.activation_sets(&pool).unwrap();
        assert_eq!(first, second, "cache hit changed the bits");
        assert_eq!(first, fresh_sets(&network, &pool));
        let stats = evaluator.cache_stats();
        assert_eq!(stats.misses, 8);
        assert_eq!(stats.hits, 8);
        assert_eq!(stats.insertions, 8);
        assert_eq!(stats.entries, 8);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn coverage_entry_points_agree_with_the_analyzer() {
        // Each entry point, cold and warm, against the same fraction
        // computed from the per-sample reference oracle's sets.
        let network = net();
        let evaluator = Evaluator::new(&network, CoverageConfig::default());
        let pool = samples(5);
        let reference: Vec<Bitset> = pool
            .iter()
            .map(|x| evaluator.activation_set_reference(x).unwrap())
            .collect();
        let union = Bitset::union_of(evaluator.num_units(), &reference).density();
        let mean = reference.iter().map(Bitset::density).sum::<f32>() / pool.len() as f32;
        for _ in 0..2 {
            assert_eq!(evaluator.coverage_of_set(&pool).unwrap(), union);
            assert_eq!(evaluator.mean_sample_coverage(&pool).unwrap(), mean);
            assert_eq!(
                evaluator.coverage_of_sample(&pool[0]).unwrap(),
                reference[0].density()
            );
        }
        assert!(evaluator.mean_sample_coverage(&[]).is_err());
    }

    #[test]
    fn small_requests_form_one_chunk_per_worker() {
        let network = net();
        let pool = samples(10);
        let lens = |exec, batch_size| {
            let config = CoverageConfig {
                exec,
                batch_size,
                ..CoverageConfig::default()
            };
            let evaluator = Evaluator::with_cache_bytes(&network, config, 0);
            let chunks = evaluator.inner.chunks(&pool);
            chunks.iter().map(|c| c.len()).collect::<Vec<_>>()
        };
        assert_eq!(lens(ExecPolicy::Threads(2), 32), [5, 5]);
        assert_eq!(lens(ExecPolicy::Threads(3), 32), [4, 4, 2]);
        assert_eq!(lens(ExecPolicy::Threads(2), 3), [3, 3, 3, 1]);
        assert_eq!(lens(ExecPolicy::Serial, 32), [10]);
        assert_eq!(lens(ExecPolicy::Threads(16), 0), [1; 10]);
    }

    #[test]
    fn tampering_the_network_changes_the_cache_key() {
        let network = net();
        let mut tampered = network.clone();
        tampered.perturb_parameter(0, 0.5).unwrap();
        let a = Evaluator::new(&network, CoverageConfig::default());
        let b = Evaluator::new(&tampered, CoverageConfig::default());
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Different criterion configs address different entries too.
        let strict = Evaluator::new(
            &network,
            CoverageConfig {
                epsilon: EpsilonPolicy::Absolute(0.1),
                ..CoverageConfig::default()
            },
        );
        assert_ne!(a.inner.criterion_key, strict.inner.criterion_key);
        // And different criteria have different keys entirely.
        let neuron = Evaluator::with_criterion(
            &network,
            CoverageConfig::default(),
            Arc::new(NeuronActivation::default()),
        );
        let topk = Evaluator::with_criterion(
            &network,
            CoverageConfig::default(),
            Arc::new(TopKNeuron::default()),
        );
        assert_ne!(a.inner.criterion_key, neuron.inner.criterion_key);
        assert_ne!(neuron.inner.criterion_key, topk.inner.criterion_key);
    }

    #[test]
    fn eviction_under_a_tiny_budget_never_corrupts_results() {
        let network = net();
        let pool = samples(10);
        let fresh = fresh_sets(&network, &pool);
        // Budget for roughly two entries (sized from the pool's real
        // footprints): every new insert evicts.
        let entry = fresh
            .iter()
            .map(|b| b.words().len() * 8 + ENTRY_OVERHEAD_BYTES)
            .max()
            .unwrap();
        let evaluator = Evaluator::with_cache_bytes(&network, CoverageConfig::default(), entry * 2);
        for _ in 0..3 {
            let sets = evaluator.activation_sets(&pool).unwrap();
            assert_eq!(sets, fresh);
        }
        let stats = evaluator.cache_stats();
        assert!(stats.evictions > 0, "tiny budget must evict");
        assert!(stats.entries <= 2);
        assert!(stats.bytes <= entry * 2);
    }

    #[test]
    fn zero_budget_disables_the_cache() {
        let network = net();
        let evaluator = Evaluator::with_cache_bytes(&network, CoverageConfig::default(), 0);
        let pool = samples(4);
        let a = evaluator.activation_sets(&pool).unwrap();
        let b = evaluator.activation_sets(&pool).unwrap();
        assert_eq!(a, b);
        let stats = evaluator.cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.insertions, 0);
        assert_eq!(stats.entries, 0);
    }

    #[test]
    fn duplicate_samples_in_one_request_are_computed_once() {
        let network = net();
        let evaluator = Evaluator::new(&network, CoverageConfig::default());
        let one = samples(1).pop().unwrap();
        let pool = vec![one.clone(), one.clone(), one];
        let sets = evaluator.activation_sets(&pool).unwrap();
        assert_eq!(sets[0], sets[1]);
        assert_eq!(sets[1], sets[2]);
        // One fresh computation, one insertion; duplicates are not lookups.
        let stats = evaluator.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn exec_policy_does_not_change_cached_results() {
        let network = net();
        let serial = Evaluator::new(&network, CoverageConfig::default());
        let threaded = Evaluator::new(
            &network,
            CoverageConfig {
                exec: ExecPolicy::Threads(4),
                batch_size: 3,
                ..CoverageConfig::default()
            },
        );
        let pool = samples(9);
        // Warm both caches, then compare the cached reads.
        let a0 = serial.activation_sets(&pool).unwrap();
        let b0 = threaded.activation_sets(&pool).unwrap();
        let a1 = serial.activation_sets(&pool).unwrap();
        let b1 = threaded.activation_sets(&pool).unwrap();
        assert_eq!(a0, b0);
        assert_eq!(a1, b1);
        assert_eq!(a0, a1);
    }

    #[test]
    fn criterion_evaluators_use_criterion_units_and_caches() {
        let network = net();
        let pool = samples(6);
        let neuron = Evaluator::with_criterion(
            &network,
            CoverageConfig::default(),
            Arc::new(NeuronActivation::default()),
        );
        assert_eq!(neuron.num_units(), 12);
        assert_eq!(neuron.criterion().id(), "neuron-activation");
        let fresh = Evaluator::with_criterion_cache_bytes(
            &network,
            CoverageConfig::default(),
            Arc::new(NeuronActivation::default()),
            0,
        )
        .activation_sets(&pool)
        .unwrap();
        let cold = neuron.activation_sets(&pool).unwrap();
        let warm = neuron.activation_sets(&pool).unwrap();
        assert_eq!(cold, fresh);
        assert_eq!(warm, fresh);
        let stats = neuron.cache_stats();
        assert_eq!(stats.misses as usize, pool.len());
        assert_eq!(stats.hits as usize, pool.len());
        assert_eq!(stats.entries, pool.len());
    }

    #[test]
    fn same_criterion_different_config_never_aliases() {
        let network = net();
        let pool = samples(4);
        let loose = Evaluator::with_criterion(
            &network,
            CoverageConfig::default(),
            Arc::new(NeuronActivation { threshold: 0.0 }),
        );
        let strict = Evaluator::with_criterion(
            &network,
            CoverageConfig::default(),
            Arc::new(NeuronActivation { threshold: 1.5 }),
        );
        assert_ne!(loose.inner.criterion_key, strict.inner.criterion_key);
        let a = loose.activation_sets(&pool).unwrap();
        let b = strict.activation_sets(&pool).unwrap();
        // Different thresholds genuinely see different sets on this pool.
        assert!(a
            .iter()
            .zip(&b)
            .any(|(x, y)| x.count_ones() != y.count_ones()));
    }

    #[test]
    fn criterion_gradient_generators_pick_up_the_objective() {
        let network = net();
        let pg = Evaluator::new(&network, CoverageConfig::default());
        let nk = Evaluator::with_criterion(
            &network,
            CoverageConfig::default(),
            Arc::new(NeuronActivation::default()),
        );
        let config = GradGenConfig {
            steps: 4,
            ..GradGenConfig::default()
        };
        assert_eq!(pg.gradient_generator(config).objective_name(), None);
        assert_eq!(
            nk.gradient_generator(config).objective_name(),
            Some("target-logit")
        );
        // ParamGradient evaluators produce exactly the plain generator's batch.
        let mut via_eval = pg.gradient_generator(config);
        let mut plain = GradientGenerator::new(&network, config);
        let a = via_eval.generate_batch().unwrap();
        let b = plain.generate_batch().unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.input, y.input);
        }
        let _ = ParamGradient::default();
    }

    #[test]
    fn a_mixed_request_keeps_values_and_counters() {
        use crate::persist::DiskTier;

        static RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let root = std::env::temp_dir().join(format!(
            "dnnip-eval-mixed-{}-{}",
            std::process::id(),
            RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let network = Arc::new(net());
        let fingerprint = NetworkFingerprint::of(&network);
        let evaluator = |disk: &Arc<DiskTier>| {
            Evaluator::with_shared_cache(
                Arc::clone(&network),
                fingerprint,
                CoverageConfig::default(),
                Arc::new(ParamGradient::default()),
                Arc::new(CoveredSetCache::new(1 << 20, Some(Arc::clone(disk)))),
            )
        };
        let pool = samples(9);
        // Samples 0-2 on disk only, 4 and 5 in memory (and on disk).
        evaluator(&Arc::new(DiskTier::new(&root)))
            .activation_sets(&pool[..3])
            .unwrap();
        let tier = Arc::new(DiskTier::new(&root));
        let warm = evaluator(&tier);
        warm.activation_sets(&pool[4..6]).unwrap();
        let cache_before = warm.cache_stats();
        let disk_before = tier.stats();

        // Memory hits, disk hits, duplicates of each, and fresh misses (7, 8)
        // with a duplicate of one.
        let order = [4, 0, 7, 0, 5, 7, 1, 8, 4, 2];
        let request: Vec<Tensor> = order.iter().map(|&i| pool[i].clone()).collect();
        let sets = warm.activation_sets(&request).unwrap();
        assert_eq!(sets, fresh_sets(&network, &request));

        // The counts of probing the request's samples in order: memory hits
        // for 4, 5, 4 and the promoted 0; a memory miss for each disk hit
        // (0, 1, 2) and each distinct fresh sample (7, 8); the pending
        // duplicate of 7 is not a lookup.
        let cache = warm.cache_stats();
        assert_eq!(cache.hits - cache_before.hits, 4);
        assert_eq!(cache.misses - cache_before.misses, 5);
        assert_eq!(cache.insertions - cache_before.insertions, 5);
        assert_eq!(cache.flight_hits, 0);
        let disk = tier.stats();
        assert_eq!(disk.hits - disk_before.hits, 3);
        assert_eq!(disk.misses - disk_before.misses, 2);
        assert_eq!(disk.writes - disk_before.writes, 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A key for the single-flight race tests: any distinct `(u64, u64)` pair
    /// works because the cache only compares digests.
    fn race_key(sample: (u64, u64)) -> CacheKey {
        CacheKey {
            net: NetworkFingerprint { lo: 1, hi: 2 },
            sample,
            criterion: 7,
        }
    }

    fn one_bit_set() -> Bitset {
        let mut set = Bitset::new(64);
        set.set(3);
        set
    }

    /// Two threads look up one cold `key`: the owner blocks inside its
    /// compute until the waiter has had time to park on the flight table.
    /// Returns both results and the number of computations run.
    fn race_one_cold_key(
        cache: &Arc<CoveredSetCache>,
        key: CacheKey,
    ) -> (Vec<Arc<Bitset>>, Vec<Arc<Bitset>>, usize) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc;

        let computes = Arc::new(AtomicUsize::new(0));
        let sample = samples(1).pop().unwrap();
        // The owner signals from inside its compute closure, then blocks until
        // the main thread confirms the second thread has parked on the flight.
        let (in_compute_tx, in_compute_rx) = mpsc::channel::<()>();
        let (proceed_tx, proceed_rx) = mpsc::channel::<()>();
        let owner = {
            let cache = Arc::clone(cache);
            let computes = Arc::clone(&computes);
            let sample = sample.clone();
            std::thread::spawn(move || {
                cache.get_or_compute(std::slice::from_ref(&sample), &[key], None, move |misses| {
                    computes.fetch_add(1, Ordering::SeqCst);
                    in_compute_tx.send(()).unwrap();
                    proceed_rx.recv().unwrap();
                    Ok(vec![one_bit_set(); misses.len()])
                })
            })
        };
        in_compute_rx.recv().unwrap();
        // The key is now claimed and mid-compute: a second lookup of it must
        // park on the flight table, not run its own computation.
        let waiter = {
            let cache = Arc::clone(cache);
            let computes = Arc::clone(&computes);
            std::thread::spawn(move || {
                cache.get_or_compute(std::slice::from_ref(&sample), &[key], None, move |misses| {
                    computes.fetch_add(1, Ordering::SeqCst);
                    Ok(vec![one_bit_set(); misses.len()])
                })
            })
        };
        // Give the waiter time to reach the flight table, then let the owner
        // finish. (If the waiter instead lands after the insert, it scores a
        // plain hit and the callers' assertions still hold except
        // `flight_hits`, which the sleep makes effectively impossible to
        // miss.)
        std::thread::sleep(std::time::Duration::from_millis(50));
        proceed_tx.send(()).unwrap();
        let a = owner.join().unwrap().unwrap();
        let b = waiter.join().unwrap().unwrap();
        (a, b, computes.load(Ordering::SeqCst))
    }

    #[test]
    fn racing_threads_on_one_cold_key_compute_it_once() {
        let cache = Arc::new(CoveredSetCache::new(1 << 20, None));
        let (a, b, computes) = race_one_cold_key(&cache, race_key((1, 2)));
        assert_eq!(a, b);
        assert_eq!(computes, 1, "duplicated compute");
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.flight_hits, 1);
    }

    #[test]
    fn failed_flight_wakes_waiter_into_its_own_compute() {
        use std::sync::mpsc;

        let cache = Arc::new(CoveredSetCache::new(1 << 20, None));
        let sample = samples(1).pop().unwrap();
        let (in_compute_tx, in_compute_rx) = mpsc::channel::<()>();
        let (proceed_tx, proceed_rx) = mpsc::channel::<()>();
        let owner = {
            let cache = Arc::clone(&cache);
            let sample = sample.clone();
            std::thread::spawn(move || {
                cache.get_or_compute(
                    std::slice::from_ref(&sample),
                    &[race_key((3, 4))],
                    None,
                    move |_| -> Result<Vec<Bitset>> {
                        in_compute_tx.send(()).unwrap();
                        proceed_rx.recv().unwrap();
                        Err(CoreError::EmptyCandidatePool)
                    },
                )
            })
        };
        in_compute_rx.recv().unwrap();
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.get_or_compute(
                    std::slice::from_ref(&sample),
                    &[race_key((3, 4))],
                    None,
                    |misses| Ok(vec![one_bit_set(); misses.len()]),
                )
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        proceed_tx.send(()).unwrap();
        // The owner's failure must propagate to the owner only; the waiter
        // wakes, wins the abandoned claim, and computes its own value.
        assert!(owner.join().unwrap().is_err());
        let value = waiter.join().unwrap().unwrap();
        assert_eq!(value.len(), 1);
        assert_eq!(*value[0], one_bit_set());
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "owner and fallback each count one miss");
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.flight_hits, 0);
        assert_eq!(stats.entries, 1);
    }

    /// Panic while holding `mutex`, leaving it poisoned.
    fn poison<T>(mutex: &Mutex<T>) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = mutex.lock();
            panic!("poisoning a cache lock on purpose");
        }));
        assert!(result.is_err());
        assert!(mutex.is_poisoned());
    }

    #[test]
    fn a_poisoned_cache_drops_its_entries_and_keeps_its_counters() {
        let network = net();
        let evaluator = Evaluator::new(&network, CoverageConfig::default());
        let pool = samples(6);
        let fresh = fresh_sets(&network, &pool);
        evaluator.activation_sets(&pool).unwrap();
        poison(&evaluator.inner.cache.inner);
        // The next lookup finds the cache emptied and recomputes.
        assert_eq!(evaluator.activation_sets(&pool).unwrap(), fresh);
        assert!(!evaluator.inner.cache.inner.is_poisoned());
        let stats = evaluator.cache_stats();
        assert_eq!((stats.misses, stats.hits, stats.insertions), (12, 0, 12));
        assert_eq!(stats.entries, 6);
        // The byte gauges restart from the refill, not from the dropped
        // residents.
        let resident: usize = fresh.iter().map(|b| b.words().len() * 8).sum();
        assert_eq!(stats.resident_bytes, resident);
        assert_eq!(stats.bytes, resident + 6 * ENTRY_OVERHEAD_BYTES);
        // Refilled, it serves hits again.
        assert_eq!(evaluator.activation_sets(&pool).unwrap(), fresh);
        assert_eq!(evaluator.cache_stats().hits, 6);
    }

    #[test]
    fn a_poisoned_flight_table_still_serves_and_wakes_waiters() {
        let network = net();
        let evaluator = Evaluator::new(&network, CoverageConfig::default());
        poison(&evaluator.inner.cache.flight.keys);
        let pool = samples(5);
        assert_eq!(
            evaluator.activation_sets(&pool).unwrap(),
            fresh_sets(&network, &pool)
        );

        let cache = Arc::new(CoveredSetCache::new(1 << 20, None));
        poison(&cache.flight.keys);
        // A compute that panics releases its claim while unwinding; on a
        // poisoned table that release must not panic a second time (which
        // would abort the process).
        let sample = samples(1).pop().unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_compute(
                std::slice::from_ref(&sample),
                &[race_key((5, 6))],
                None,
                |_| -> Result<Vec<Bitset>> { panic!("a compute that panics") },
            )
        }));
        assert!(panicked.is_err());
        assert!(cache.flight.lock().is_empty(), "the claim was released");
        // A waiter parked on the poisoned table wakes and reuses the owner's
        // value.
        let (a, b, computes) = race_one_cold_key(&cache, race_key((5, 6)));
        assert_eq!(a, b);
        assert_eq!(computes, 1, "duplicated compute");
        assert_eq!(cache.stats().flight_hits, 1);
    }
}

#[cfg(test)]
mod sample_hash_tests {
    //! The sample hash addresses every memory and disk cache entry. Its
    //! known answers pin the key derivation: a change to them must come with
    //! a bump of the persistent format version (`persist::FORMAT_VERSION`).

    use super::sample_hashes;
    use dnnip_tensor::Tensor;
    use proptest::prelude::*;

    /// [`sample_hashes`] of one sample.
    fn sample_hash(sample: &Tensor) -> (u64, u64) {
        sample_hashes(std::slice::from_ref(sample))[0]
    }

    fn tensor(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    fn vector(data: &[f32]) -> Tensor {
        tensor(data, &[data.len()])
    }

    /// Both halves differ, so neither half alone aliases the two samples.
    fn differ(a: &Tensor, b: &Tensor) -> bool {
        let (x, y) = (sample_hash(a), sample_hash(b));
        x.0 != y.0 && x.1 != y.1
    }

    /// Values from -1.0 to 1.0 in steps of 1/8, exact in `f32` on every ISA.
    fn ramp(i: usize) -> f32 {
        (i % 17) as f32 * 0.125 - 1.0
    }

    #[test]
    fn sample_hash_known_answers() {
        let cases: [(Tensor, (u64, u64)); 5] = [
            (
                tensor(&[], &[0]),
                (0xfae6_1bee_a522_8378, 0x7b32_f2be_30dc_ca0b),
            ),
            (
                vector(&[1.5]),
                (0x4132_ceb6_4f7b_bfb1, 0xbba2_64ca_2f06_36cb),
            ),
            (
                vector(&[1.0, -2.0, 3.0]),
                (0x3024_b2bd_4086_6a21, 0x3956_53ec_0bc0_232b),
            ),
            (
                Tensor::from_fn(&[2, 3], ramp),
                (0x71a9_0bf3_5946_bc5c, 0xbba4_68ae_ef7e_c946),
            ),
            (
                Tensor::from_fn(&[3, 16, 16], ramp),
                (0xc706_6657_4d80_ddf7, 0xec72_3177_3f36_ee06),
            ),
        ];
        for (t, expected) in &cases {
            assert_eq!(sample_hash(t), *expected, "shape {:?}", t.shape());
        }
    }

    #[test]
    fn sample_hash_batches_match_single_samples() {
        // Runs of one length are cut by samples of other lengths and shapes:
        // 24 elements (three whole blocks), 9 (one block and a lone
        // element, a one-element tail word), 11 (one block and three
        // elements, an odd tail word) and a 24-element matrix, which shares
        // its length but not its shape with the first.
        let sample = |i: usize| {
            let shape: &[usize] = match i % 7 {
                3 => &[9],
                5 => &[1, 11],
                6 => &[4, 6],
                _ => &[24],
            };
            Tensor::from_fn(shape, |j| ramp(i * 5 + j) + i as f32)
        };
        for n in 0..=20 {
            let batch: Vec<Tensor> = (0..n).map(sample).collect();
            let hashes = sample_hashes(&batch);
            assert_eq!(hashes.len(), n);
            for (t, hash) in batch.iter().zip(&hashes) {
                assert_eq!(*hash, sample_hash(t), "batch of {n}, shape {:?}", t.shape());
            }
        }
        // Nine equally long samples: a full group, then a group of one.
        let batch: Vec<Tensor> = (0..9).map(|i| sample(7 * i)).collect();
        for (t, hash) in batch.iter().zip(sample_hashes(&batch)) {
            assert_eq!(hash, sample_hash(t));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sample_hash_changes_both_halves_on_any_single_element(
            data in prop::collection::vec(-1e3f32..1e3, 1..70),
            index in 0usize..70,
            bits in 0u32..u32::MAX,
        ) {
            let index = index % data.len();
            // Any other bit pattern, NaNs and infinities included.
            let old = data[index].to_bits();
            let mut changed = data.clone();
            changed[index] = f32::from_bits(if bits == old { !bits } else { bits });
            prop_assert!(differ(&vector(&data), &vector(&changed)));
            // Same data as a matrix: the guarantee holds for any shape.
            let shape = [1, data.len()];
            prop_assert!(differ(&tensor(&data, &shape), &tensor(&changed, &shape)));
        }

        #[test]
        fn sample_hash_keys_the_shape_not_just_the_data(
            data in prop::collection::vec(-1e3f32..1e3, 6..7),
        ) {
            prop_assert!(differ(&tensor(&data, &[2, 3]), &tensor(&data, &[3, 2])));
            prop_assert!(differ(&tensor(&data, &[6]), &tensor(&data, &[1, 6])));
        }

        #[test]
        fn sample_hash_covers_every_tail_length(
            data in prop::collection::vec(-1e3f32..1e3, 18..19),
        ) {
            // Lengths 0-17 leave every remainder of an 8-element block, and
            // a trailing 0.0 packs into the word a lone element leaves half
            // empty: the length must still tell them apart.
            for len in 0..18 {
                let prefix = &data[..len];
                let mut padded = prefix.to_vec();
                padded.push(0.0);
                prop_assert!(differ(&vector(prefix), &vector(&padded)), "len {}", len);
                for i in 0..len {
                    let mut changed = prefix.to_vec();
                    changed[i] = f32::from_bits(changed[i].to_bits() ^ 1);
                    prop_assert!(differ(&vector(prefix), &vector(&changed)), "len {} index {}", len, i);
                }
            }
        }

        #[test]
        fn sample_hash_sees_signed_zeros_and_nan_payloads(
            data in prop::collection::vec(-1e3f32..1e3, 1..20),
            index in 0usize..20,
            payload in 1u32..0x0040_0000,
        ) {
            let index = index % data.len();
            let with = |x: f32| {
                let mut v = data.clone();
                v[index] = x;
                vector(&v)
            };
            prop_assert!(differ(&with(0.0), &with(-0.0)));
            // Quiet NaNs that differ only in their payload bits.
            let nan = |p: u32| f32::from_bits(0x7fc0_0000 | p);
            prop_assert!(nan(payload).is_nan() && nan(payload - 1).is_nan());
            prop_assert!(differ(&with(nan(payload)), &with(nan(payload - 1))));
        }
    }
}
