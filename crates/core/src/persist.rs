//! The persistent on-disk cache tier behind the in-memory covered-set cache.
//!
//! The in-memory [`crate::eval::CoveredSetCache`] makes repeats *within* one
//! process near-free, but the paper's vendor flow runs the same trusted model
//! through many **separate binaries** (the Fig. 3 sweep, then Table II, then
//! Table III), and the serving layer (`dnnip-serve`) keeps one process alive
//! across an unbounded request stream. [`DiskTier`] spills freshly computed
//! covered-set entries to content-addressed **segment files** and reloads them
//! on later in-memory misses, so a second process over the same model starts
//! warm — and stays within a configurable disk byte budget while doing so.
//!
//! Layout (one *segment* file per batch of misses — typically one per
//! request — instead of one file per entry):
//!
//! ```text
//! <root>/<network-fingerprint>/<criterion-digest>/seg-<pid>-<n>.dnnipseg
//! ```
//!
//! Both directory components are content digests, so entries can never alias
//! across models or criteria, and a stale directory is simply never read again
//! once the model changes. Each segment is a versioned file header followed by
//! framed records (`sample hash`, payload kind, length, checksum, payload);
//! the payload is a [`Bitset::encode`] covered set, and the kind field always
//! holds `1`, a covered set (a record of any other kind reads as a miss).
//! The sample hash lives *inside* the segment, so a whole request's
//! misses cost **one** `create`+`rename` instead of one per covered set — the
//! syscall traffic that used to dominate the disk-warm path.
//!
//! Reads go through an in-memory index: the first probe of a
//! `(model, criterion)` directory scans its segments (a sequential read per
//! file), after which every lookup is an offset into a cached segment
//! buffer. Other processes may add segments later, so each cache request's
//! first load from the tier re-stats the directory; when the directory's
//! modification time differs from the one read just before the last scan,
//! the tier lists it again and indexes only the segments it has not seen.
//! The tier's own writes do not force that listing: a write that finds the
//! directory's time unchanged since the scan records the time it leaves. A
//! segment another process renames in within the same timestamp tick as one
//! of these stats, or while this process writes, is picked up by the next
//! change to the directory instead: until then its entries are recomputed,
//! never wrong. **Any** structural violation — short file, bad magic, wrong
//! version, checksum mismatch, undecodable payload — degrades to a silent
//! cache miss, never an error. A corrupted or concurrently deleted segment
//! costs recomputation, nothing more.
//!
//! Every record checksum is verified whenever a segment's bytes are read
//! from disk (its first scan, or a re-read after its buffer was evicted):
//! the records are checksummed eight at a time (`record_checksums`) and the
//! verdicts stay with the buffer, so a probe checks a verdict. The checksum
//! is [`dnnip_tensor::hash::checksum`], the one the model and suite
//! formats end with: four independent multiply-rotate lanes over 8-byte
//! little-endian words, finished with the splitmix64 mixer and the payload
//! length. Version 4 of the format introduced it; segments of earlier
//! versions read as misses.
//!
//! Long-running hygiene: the byte budget is the tier's one deletion path.
//! With [`DiskTier::with_max_bytes`], the tier walks the root once, then
//! evicts least-recently-*accessed* segment files whenever the resident total
//! exceeds the budget (access = any read hit or write; segments that predate
//! the walk are ordered by modification time). A retired model's segments are
//! never touched again, so they are the first to go. Only `*.dnnipseg`
//! segment files are counted or deleted: anything else under the root — a
//! foreign file, another process's in-flight `.tmp-*` file — is left alone.
//! Clearing a tier means deleting its directory.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::SystemTime;

use dnnip_nn::fingerprint::NetworkFingerprint;
use dnnip_tensor::hash::{checksum, lane_hashes, mix64, CHAIN_LO};

use crate::bitset::Bitset;
use crate::eval::CacheKey;

/// Segment-file magic: identifies a dnnip persistent-cache segment.
const SEG_MAGIC: u64 = u64::from_le_bytes(*b"DNIPSEG2");
/// On-disk format version; bump on any layout change, on any change to what
/// a criterion computes (its covered-unit semantics), **and** on any change
/// to how a cache key is derived (the sample content key,
/// [`dnnip_tensor::Tensor::content_keys`]; the criterion digest; the network
/// fingerprint). The key digests a criterion's id and configuration, not its
/// implementation, so a semantic change without a version bump would serve
/// stale entries; a new key derivation without one would leave every old
/// entry unreachable but still on disk. Version 3: the
/// multi-lane sample hash. Version 4: word-wise record checksum. Version 5:
/// one dense covered-set payload. Version 6: chains fingerprinted through the
/// one node-list model format. Version 7: the network fingerprint (now over
/// parameters in place), the criterion digest and this tag come from the
/// lane-hash kernel of the sample keys and record checksums, which stay
/// unchanged.
const FORMAT_VERSION: u64 = 7;

/// The version field actually written: the format version mixed with the
/// crate version, so entries written by a different release are never read
/// (they decode as misses and are eventually rewritten or evicted).
fn version_tag() -> u64 {
    mix64(FORMAT_VERSION ^ checksum(env!("CARGO_PKG_VERSION").as_bytes()))
}

/// Checksums of record payloads, each the [`checksum`] of its payload: one
/// [`lane_hashes`] chain (the low chain of a sample hash) over the payload
/// read as 8-byte little-endian words, so two payloads of one length that
/// differ in a single word always get different checksums. The bytes that
/// fill no whole 32-byte block are folded last, eight at a time as
/// zero-padded words, after the lanes and the payload length, each through
/// the splitmix64 finalizer.
///
/// A segment's records are checksummed in one call, eight at a time. On a
/// 6,280-byte `param-gradient` payload one record at a time took ~0.4 µs in
/// an `x86-64` build and ~1.2–1.5 µs under `target-cpu=native` on an AVX-512
/// host, where LLVM packs the four lanes into one `vpmullq` chain; eight
/// records side by side give that multiplier independent work again, and
/// 512 such records take ~0.16 ms instead of ~0.75 ms in the native build.
fn record_checksums(payloads: &[&[u8]]) -> Vec<u64> {
    lane_hashes(payloads, [CHAIN_LO])
        .into_iter()
        .map(|[h]| h)
        .collect()
}

/// The kind field of every record: a covered set. The field is part of the
/// format; no other kind is written.
const COVERED_SET_KIND: u8 = 1;

/// Segment file header length: magic + version.
const SEG_HEADER_BYTES: usize = 2 * 8;
/// Per-record header length: sample lo/hi, kind, payload length, checksum.
const RECORD_HEADER_BYTES: usize = 5 * 8;
/// File extension of segment files (with the leading dot).
const SEG_EXT: &str = "dnnipseg";
/// Most segment buffers kept resident for reads at any time.
const MAX_RESIDENT_BUFFERS: usize = 8;

/// Counters of the disk tier (monotone event counts plus two gauges; a
/// snapshot, like [`crate::eval::CacheStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiskStats {
    /// In-memory misses answered from disk.
    pub hits: u64,
    /// In-memory misses that probed the disk and found nothing usable
    /// (absent, corrupt, or version-mismatched entries all land here).
    pub misses: u64,
    /// Entries spilled to disk (records, not files — one segment file packs a
    /// whole batch of them).
    pub writes: u64,
    /// Entries whose spill failed (I/O errors are absorbed: the cache stays
    /// correct, the entries are simply not persisted).
    pub write_errors: u64,
    /// Segment files deleted to stay under the byte budget.
    pub evictions: u64,
    /// Bytes of the segment files under the tier's root, as last observed
    /// (no other file counts). Maintained only once the root has been walked
    /// — which happens on the first write when a byte budget is configured —
    /// and best-effort across processes (another process's writes are not
    /// observed until a rescan).
    pub resident_bytes: u64,
}

impl DiskStats {
    /// Fraction of disk probes answered from disk, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A segment file the index points into: its path and its records, in
/// file order.
#[derive(Debug)]
struct Segment {
    path: PathBuf,
    records: Vec<SegRecord>,
}

/// A segment's bytes while they are resident, with one verdict per record:
/// whether its payload lay inside the bytes and matched its checksum when
/// the bytes were read.
#[derive(Debug)]
struct Buffer {
    bytes: Vec<u8>,
    intact: Vec<bool>,
    tick: u64,
}

/// Index of one `(model, criterion)` directory: sample hash → (segment id,
/// record index within the segment).
#[derive(Debug, Default)]
struct DirIndex {
    scanned: bool,
    /// The directory's modification time, read just before the last scan
    /// (`None` when it did not exist).
    mtime: Option<SystemTime>,
    /// Every segment file the index has read (or written) in the directory.
    paths: HashSet<PathBuf>,
    entries: HashMap<(u64, u64), (u64, usize)>,
}

/// Budget bookkeeping for one resident file.
#[derive(Debug, Clone, Copy)]
struct FileMeta {
    bytes: u64,
    /// Last-access tick (reads and writes both bump it; seeded from the
    /// modification time order for files that predate this process).
    tick: u64,
}

#[derive(Debug, Default)]
struct TierInner {
    stats: DiskStats,
    tick: u64,
    /// Whether the root has been walked for budget accounting.
    walked: bool,
    /// Every resident segment file under the root (budget accounting; only
    /// maintained once walked).
    files: HashMap<PathBuf, FileMeta>,
    total_bytes: u64,
    dirs: HashMap<(NetworkFingerprint, u64), DirIndex>,
    /// The segments the index points into, by id.
    segments: HashMap<u64, Segment>,
    /// The id of the next indexed segment.
    next_segment: u64,
    /// Recently read segments' bytes by segment id (a request's misses
    /// usually live in a handful of segments; serving them from memory makes
    /// the disk-warm path one sequential read and one batched verification
    /// per segment instead of one open+seek and one checksum per entry).
    buffers: HashMap<u64, Buffer>,
}

/// The persistent tier: a root directory plus the in-memory segment index.
///
/// Thread-safe; one tier is shared by every evaluator of a
/// [`crate::workspace::Workspace`]. All I/O failures are absorbed as misses
/// (reads) or counted errors (writes).
#[derive(Debug)]
pub struct DiskTier {
    root: PathBuf,
    max_bytes: Option<u64>,
    inner: Mutex<TierInner>,
}

/// Per-process unique suffix source for temp files and segment names (writes
/// go to a temp name and rename into place, so readers never observe a
/// partial segment). One for the process, not one per tier, so two tiers on
/// one root in one process never write the same segment name.
static NAME_COUNTER: AtomicU64 = AtomicU64::new(0);

impl DiskTier {
    /// Create a tier rooted at `root` (created lazily on first write), with
    /// no byte budget.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            max_bytes: None,
            inner: Mutex::new(TierInner::default()),
        }
    }

    /// Set (or clear) the disk byte budget. With a budget, every write walks
    /// the accounting and evicts least-recently-accessed segment files until
    /// the resident total fits again.
    pub fn with_max_bytes(mut self, max_bytes: Option<u64>) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// The tier's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Snapshot of the tier's counters.
    pub fn stats(&self) -> DiskStats {
        let inner = self.lock();
        DiskStats {
            resident_bytes: if inner.walked { inner.total_bytes } else { 0 },
            ..inner.stats
        }
    }

    /// The tier's state. A panic while the lock was held may have left the
    /// in-memory index half updated, so a poisoned lock drops the index (the
    /// scanned directories, the budget accounting and the segment buffers)
    /// and keeps only the counters: the next probe rescans from disk, which
    /// holds every record intact (segments are renamed into place whole).
    fn lock(&self) -> MutexGuard<'_, TierInner> {
        self.inner.lock().unwrap_or_else(|poisoned| {
            let mut inner = poisoned.into_inner();
            inner.dirs.clear();
            inner.files.clear();
            inner.segments.clear();
            inner.buffers.clear();
            inner.walked = false;
            inner.total_bytes = 0;
            self.inner.clear_poison();
            inner
        })
    }

    fn dir_path(&self, net: NetworkFingerprint, criterion: u64) -> PathBuf {
        self.root
            .join(format!("{net}"))
            .join(format!("{criterion:016x}"))
    }

    /// A probe session for one cache request. Its first
    /// [`DiskProbe::load`] stats the entry's directory and rescans it when
    /// another process has changed it since the last scan; its later loads
    /// trust the index. So a request costs at most one directory `stat`,
    /// and a request served from memory, which never probes, costs none.
    pub(crate) fn probe(&self) -> DiskProbe<'_> {
        DiskProbe {
            tier: self,
            rechecked: false,
        }
    }

    /// Load and decode one entry; `None` on anything short of a pristine
    /// record. `recheck` re-stats an already scanned directory.
    fn load(&self, key: &CacheKey, recheck: bool) -> Option<Bitset> {
        let mut inner = self.lock();
        self.ensure_dir_scanned(&mut inner, key.net, key.criterion, recheck);
        let decoded = self.lookup(&mut inner, key);
        if decoded.is_some() {
            inner.stats.hits += 1;
        } else {
            inner.stats.misses += 1;
        }
        decoded
    }

    fn lookup(&self, inner: &mut TierInner, key: &CacheKey) -> Option<Bitset> {
        let &(id, r) = inner
            .dirs
            .get(&(key.net, key.criterion))?
            .entries
            .get(&key.sample)?;
        let record = *inner.segments.get(&id)?.records.get(r)?;
        if record.kind != COVERED_SET_KIND {
            return None;
        }
        if !self.ensure_resident(inner, id) {
            // The segment vanished (evicted by another process, or removed by
            // hand): drop every index entry that pointed into it.
            let path = inner.segments[&id].path.clone();
            Self::purge_path(inner, &path);
            return None;
        }
        inner.tick += 1;
        let buffer = inner
            .buffers
            .get_mut(&id)
            .expect("segment just made resident");
        buffer.tick = inner.tick;
        if !buffer.intact[r] {
            return None;
        }
        let value = Bitset::decode(&buffer.bytes[record.offset..record.offset + record.len]);
        if value.is_some() && inner.walked {
            // A genuine hit refreshes the segment's last-access tick.
            inner.tick += 1;
            if let Some(meta) = inner.files.get_mut(&inner.segments[&id].path) {
                meta.tick = inner.tick;
            }
        }
        value
    }

    /// Make segment `id`'s bytes resident, reading and verifying them when
    /// they are not; `false` when the file cannot be read.
    fn ensure_resident(&self, inner: &mut TierInner, id: u64) -> bool {
        if inner.buffers.contains_key(&id) {
            return true;
        }
        let Some(segment) = inner.segments.get(&id) else {
            return false;
        };
        let Ok(bytes) = std::fs::read(&segment.path) else {
            return false;
        };
        let intact = verify(&segment.records, &bytes);
        Self::admit(inner, id, bytes, intact);
        true
    }

    /// Keep segment `id`'s bytes and verdicts resident, dropping the least
    /// recently used buffer beyond [`MAX_RESIDENT_BUFFERS`].
    fn admit(inner: &mut TierInner, id: u64, bytes: Vec<u8>, intact: Vec<bool>) {
        inner.tick += 1;
        let tick = inner.tick;
        inner.buffers.insert(
            id,
            Buffer {
                bytes,
                intact,
                tick,
            },
        );
        if inner.buffers.len() > MAX_RESIDENT_BUFFERS {
            if let Some(oldest) = inner
                .buffers
                .iter()
                .min_by_key(|(_, buffer)| buffer.tick)
                .map(|(&oldest, _)| oldest)
            {
                inner.buffers.remove(&oldest);
            }
        }
    }

    /// Drop every segment, index entry, buffer and accounting row for `path`.
    fn purge_path(inner: &mut TierInner, path: &Path) {
        let TierInner {
            segments,
            buffers,
            dirs,
            ..
        } = inner;
        segments.retain(|id, segment| {
            if segment.path != path {
                return true;
            }
            buffers.remove(id);
            for dir in dirs.values_mut() {
                dir.entries.retain(|_, (seg, _)| seg != id);
            }
            false
        });
        for dir in dirs.values_mut() {
            dir.paths.remove(path);
        }
        if let Some(meta) = inner.files.remove(path) {
            inner.total_bytes = inner.total_bytes.saturating_sub(meta.bytes);
        }
    }

    /// Scan a `(model, criterion)` directory's segments into the index: on
    /// its first probe, and again on a `recheck` that finds the directory's
    /// modification time changed since the last scan, in which case only
    /// segments the index has not seen are read. Segments written by this
    /// process are added as they are stored. Each segment's records are
    /// verified as its bytes are read.
    fn ensure_dir_scanned(
        &self,
        inner: &mut TierInner,
        net: NetworkFingerprint,
        criterion: u64,
        recheck: bool,
    ) {
        let scanned = inner.dirs.get(&(net, criterion)).filter(|d| d.scanned);
        if scanned.is_some() && !recheck {
            return;
        }
        let dir = self.dir_path(net, criterion);
        // Read before listing, so a segment renamed in during the listing
        // changes the time again and the next recheck finds it.
        let mtime = dir_mtime(&dir);
        if scanned.is_some_and(|d| d.mtime == mtime) {
            return;
        }
        let index = inner.dirs.entry((net, criterion)).or_default();
        let mut paths: Vec<PathBuf> = Vec::new();
        if let Ok(read) = std::fs::read_dir(&dir) {
            for entry in read.flatten() {
                let path = entry.path();
                if is_segment(&path) && !index.paths.contains(&path) {
                    paths.push(path);
                }
            }
        }
        index.scanned = true;
        index.mtime = mtime;
        // Deterministic scan order, so when two new segments both carry a
        // sample (a corrupt entry that was recomputed and re-spilled), the
        // surviving index entry does not depend on readdir order.
        paths.sort();
        for path in paths {
            let Ok(bytes) = std::fs::read(&path) else {
                continue;
            };
            let records = parse_segment(&bytes);
            let id = inner.next_segment;
            inner.next_segment += 1;
            let index = inner.dirs.entry((net, criterion)).or_default();
            index.paths.insert(path.clone());
            for (r, record) in records.iter().enumerate() {
                index.entries.insert(record.sample, (id, r));
            }
            let intact = verify(&records, &bytes);
            inner.segments.insert(id, Segment { path, records });
            Self::admit(inner, id, bytes, intact);
        }
    }

    /// Encode and persist a batch of entries — **one segment file per
    /// `(model, criterion)` group** (a request's misses always share both, so
    /// the common case is exactly one file). Atomic via temp file + rename;
    /// errors are counted, never surfaced.
    pub(crate) fn store_batch(&self, entries: &[(CacheKey, &Bitset)]) {
        if entries.is_empty() {
            return;
        }
        let mut groups: HashMap<(NetworkFingerprint, u64), Vec<usize>> = HashMap::new();
        for (i, (key, _)) in entries.iter().enumerate() {
            groups.entry((key.net, key.criterion)).or_default().push(i);
        }
        let mut inner = self.lock();
        if self.max_bytes.is_some() {
            self.ensure_walked(&mut inner);
        }
        for ((net, criterion), indices) in groups {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&SEG_MAGIC.to_le_bytes());
            bytes.extend_from_slice(&version_tag().to_le_bytes());
            let mut records: Vec<SegRecord> = Vec::with_capacity(indices.len());
            for &i in &indices {
                let (key, value) = &entries[i];
                // The length and the checksum are filled in once the payload
                // is encoded in place.
                for field in [key.sample.0, key.sample.1, COVERED_SET_KIND as u64, 0, 0] {
                    bytes.extend_from_slice(&field.to_le_bytes());
                }
                let offset = bytes.len();
                value.encode(&mut bytes);
                records.push(SegRecord {
                    sample: key.sample,
                    kind: COVERED_SET_KIND,
                    offset,
                    len: bytes.len() - offset,
                    checksum: 0,
                });
            }
            let payloads: Vec<&[u8]> = records
                .iter()
                .map(|r| &bytes[r.offset..r.offset + r.len])
                .collect();
            let checksums = record_checksums(&payloads);
            for (record, checksum) in records.iter_mut().zip(checksums) {
                record.checksum = checksum;
                let header = record.offset - RECORD_HEADER_BYTES;
                bytes[header + 24..header + 32].copy_from_slice(&(record.len as u64).to_le_bytes());
                bytes[header + 32..record.offset].copy_from_slice(&checksum.to_le_bytes());
            }
            let dir = self.dir_path(net, criterion);
            let path = dir.join(format!(
                "seg-{}-{}.{SEG_EXT}",
                std::process::id(),
                NAME_COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            let total = bytes.len() as u64;
            // A scanned directory's time before this write: when it still is
            // the time of the last scan, only this write changes it, and the
            // index takes the new time so the next probe need not list it.
            let before = inner
                .dirs
                .get(&(net, criterion))
                .filter(|d| d.scanned)
                .map(|_| dir_mtime(&dir));
            if !self.try_store(&dir, &path, bytes) {
                inner.stats.write_errors += indices.len() as u64;
                continue;
            }
            inner.stats.writes += indices.len() as u64;
            inner.tick += 1;
            let tick = inner.tick;
            if inner.walked {
                inner
                    .files
                    .insert(path.clone(), FileMeta { bytes: total, tick });
                inner.total_bytes += total;
            }
            // Keep an already-scanned directory's index current; an unscanned
            // one picks the segment up on its first probe.
            let id = inner.next_segment;
            let index = inner.dirs.entry((net, criterion)).or_default();
            if index.scanned {
                if before == Some(index.mtime) {
                    index.mtime = dir_mtime(&dir);
                }
                index.paths.insert(path.clone());
                for (r, record) in records.iter().enumerate() {
                    index.entries.insert(record.sample, (id, r));
                }
                inner.next_segment += 1;
                inner.segments.insert(id, Segment { path, records });
            }
        }
        self.evict_to_budget(&mut inner);
    }

    fn try_store(&self, dir: &Path, path: &Path, bytes: Vec<u8>) -> bool {
        if std::fs::create_dir_all(dir).is_err() {
            return false;
        }
        let temp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            NAME_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let written = std::fs::File::create(&temp)
            .and_then(|mut f| f.write_all(&bytes))
            .is_ok();
        if written && std::fs::rename(&temp, path).is_ok() {
            return true;
        }
        let _ = std::fs::remove_file(&temp);
        false
    }

    /// Delete least-recently-accessed segment files until the resident total
    /// fits the budget again (strict: even a freshly written segment is
    /// evicted when it alone exceeds the budget).
    fn evict_to_budget(&self, inner: &mut TierInner) {
        let Some(max) = self.max_bytes else { return };
        while inner.total_bytes > max {
            let Some(oldest) = inner
                .files
                .iter()
                .min_by_key(|(_, meta)| meta.tick)
                .map(|(path, _)| path.clone())
            else {
                break;
            };
            let _ = std::fs::remove_file(&oldest);
            Self::purge_path(inner, &oldest);
            inner.stats.evictions += 1;
        }
    }

    /// Walk the root once, seeding budget accounting for segment files that
    /// predate this process (ordered by modification time, oldest first, so
    /// they are evicted before anything this process touched). Files of any
    /// other kind are not recorded, so they are never counted or deleted.
    fn ensure_walked(&self, inner: &mut TierInner) {
        if inner.walked {
            return;
        }
        let mut found: Vec<(PathBuf, u64, SystemTime)> = Vec::new();
        collect_files(&self.root, &mut |path, meta| {
            if !is_segment(&path) {
                return;
            }
            found.push((
                path,
                meta.len(),
                meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            ));
        });
        found.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        for (path, bytes, _) in found {
            inner.tick += 1;
            let tick = inner.tick;
            inner.files.insert(path, FileMeta { bytes, tick });
            inner.total_bytes += bytes;
        }
        inner.walked = true;
    }
}

/// One cache request's probes of a [`DiskTier`] (see [`DiskTier::probe`]).
pub(crate) struct DiskProbe<'a> {
    tier: &'a DiskTier,
    rechecked: bool,
}

impl DiskProbe<'_> {
    /// Load and decode one entry; `None` on anything short of a pristine
    /// record. The session's first load rechecks the entry's directory.
    pub(crate) fn load(&mut self, key: &CacheKey) -> Option<Bitset> {
        let recheck = !std::mem::replace(&mut self.rechecked, true);
        self.tier.load(key, recheck)
    }
}

/// A directory's modification time; `None` when it cannot be read.
fn dir_mtime(dir: &Path) -> Option<SystemTime> {
    std::fs::metadata(dir).and_then(|m| m.modified()).ok()
}

/// Whether `path` names a segment file: the only files the tier reads,
/// counts or deletes.
fn is_segment(path: &Path) -> bool {
    path.extension().and_then(|e| e.to_str()) == Some(SEG_EXT)
}

/// Depth-first walk over every regular file under `root` (missing or
/// unreadable directories are silently skipped).
fn collect_files(root: &Path, f: &mut impl FnMut(PathBuf, std::fs::Metadata)) {
    let Ok(read) = std::fs::read_dir(root) else {
        return;
    };
    for entry in read.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, f);
        } else if let Ok(meta) = entry.metadata() {
            f(path, meta);
        }
    }
}

/// One parsed record header inside a segment buffer.
#[derive(Debug, Clone, Copy)]
struct SegRecord {
    sample: (u64, u64),
    kind: u8,
    offset: usize,
    len: usize,
    checksum: u64,
}

/// Parse a segment buffer's record headers. Stops at the first structural
/// violation (short header, oversized payload length, out-of-range kind):
/// everything before it is usable, everything after is unreachable —
/// corruption can only ever shrink the index, never corrupt a value (payload
/// checksums are verified whenever the segment's bytes are read, by
/// [`verify`]).
fn parse_segment(bytes: &[u8]) -> Vec<SegRecord> {
    let mut out = Vec::new();
    if bytes.len() < SEG_HEADER_BYTES {
        return out;
    }
    let field = |offset: usize| {
        u64::from_le_bytes(
            bytes[offset..offset + 8]
                .try_into()
                .expect("8-byte field within bounds"),
        )
    };
    if field(0) != SEG_MAGIC || field(8) != version_tag() {
        return out;
    }
    let mut offset = SEG_HEADER_BYTES;
    while offset + RECORD_HEADER_BYTES <= bytes.len() {
        let sample = (field(offset), field(offset + 8));
        let kind = field(offset + 16);
        let len = field(offset + 24) as usize;
        let checksum = field(offset + 32);
        let payload_offset = offset + RECORD_HEADER_BYTES;
        if kind > u8::MAX as u64 || len > bytes.len() - payload_offset {
            break;
        }
        out.push(SegRecord {
            sample,
            kind: kind as u8,
            offset: payload_offset,
            len,
            checksum,
        });
        offset = payload_offset + len;
    }
    out
}

/// Whether each of `records` is intact in `bytes`: its payload lies inside
/// them and matches its checksum. The payloads are checksummed in one batch.
fn verify(records: &[SegRecord], bytes: &[u8]) -> Vec<bool> {
    let payloads: Vec<Option<&[u8]>> = records
        .iter()
        .map(|r| bytes.get(r.offset..r.offset + r.len))
        .collect();
    let present: Vec<&[u8]> = payloads.iter().flatten().copied().collect();
    let mut checksums = record_checksums(&present).into_iter();
    records
        .iter()
        .zip(&payloads)
        .map(|(r, payload)| payload.is_some() && checksums.next() == Some(r.checksum))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    // One record's checksum is the model format's trailer checksum, so the
    // known answers below pin both.
    use dnnip_tensor::hash::checksum as record_checksum;
    use proptest::prelude::*;

    fn key(seed: u64) -> CacheKey {
        CacheKey {
            net: NetworkFingerprint {
                lo: seed,
                hi: !seed,
            },
            sample: (seed.wrapping_mul(3), seed.wrapping_mul(5)),
            criterion: seed ^ 0xABCD,
        }
    }

    fn set(bits: &[usize], len: usize) -> Bitset {
        let mut b = Bitset::new(len);
        for &i in bits {
            b.set(i);
        }
        b
    }

    fn temp_root(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "dnnip-persist-test-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    /// The single segment file under `root` (panics unless exactly one).
    fn only_segment(root: &Path) -> PathBuf {
        let mut found = Vec::new();
        collect_files(root, &mut |p, _| {
            if is_segment(&p) {
                found.push(p);
            }
        });
        assert_eq!(found.len(), 1, "expected exactly one segment: {found:?}");
        found.pop().unwrap()
    }

    #[test]
    fn round_trips_batches_through_one_segment() {
        let root = temp_root("roundtrip");
        let tier = DiskTier::new(&root);
        let values: Vec<Bitset> = (0..5).map(|i| set(&[i, i + 64], 130)).collect();
        assert!(tier.probe().load(&key(1)).is_none(), "empty tier hit");
        // Five entries sharing one (model, criterion) → ONE segment file.
        let batch: Vec<(CacheKey, &Bitset)> = values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let mut k = key(1);
                k.sample = (i as u64, 1000 + i as u64);
                (k, v)
            })
            .collect();
        tier.store_batch(&batch);
        only_segment(&root);
        // A fresh tier over the same directory (a "second process") serves
        // every entry from the scanned segment.
        let second = DiskTier::new(&root);
        for (k, v) in &batch {
            assert_eq!(second.probe().load(k).as_ref(), Some(*v));
        }
        // A different key component misses even with the same sample hash.
        assert!(second.probe().load(&key(2)).is_none());
        let stats = second.stats();
        assert_eq!(stats.hits, 5);
        assert_eq!(stats.misses, 1);
        assert!(stats.hit_rate() > 0.0);
        let writer_stats = tier.stats();
        assert_eq!(writer_stats.writes, 5);
        assert_eq!(writer_stats.write_errors, 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn wrong_kind_reads_as_a_miss() {
        let root = temp_root("kind");
        let tier = DiskTier::new(&root);
        let value = set(&[2], 64);
        tier.store_batch(&[(key(4), &value)]);
        assert_eq!(tier.probe().load(&key(4)), Some(value.clone()));
        // The record checksum covers only the payload, so a record whose
        // kind field says anything but a covered set still verifies intact:
        // the kind check alone must turn it into a miss.
        let path = only_segment(&root);
        let pristine = std::fs::read(&path).unwrap();
        let kind_field = SEG_HEADER_BYTES + 16;
        assert_eq!(pristine[kind_field], COVERED_SET_KIND);
        for kind in [0u8, 2, 0xFF] {
            let mut relabelled = pristine.clone();
            relabelled[kind_field] = kind;
            std::fs::write(&path, &relabelled).unwrap();
            assert!(
                DiskTier::new(&root).probe().load(&key(4)).is_none(),
                "kind {kind}"
            );
        }
        std::fs::write(&path, &pristine).unwrap();
        assert_eq!(DiskTier::new(&root).probe().load(&key(4)), Some(value));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corruption_degrades_to_a_miss() {
        let root = temp_root("corrupt");
        let tier = DiskTier::new(&root);
        let value = set(&[3, 77], 200);
        tier.store_batch(&[(key(9), &value)]);
        let path = only_segment(&root);
        let pristine = std::fs::read(&path).unwrap();

        // Truncated below the first record: a fresh tier sees nothing.
        std::fs::write(&path, &pristine[..SEG_HEADER_BYTES + 4]).unwrap();
        assert!(
            DiskTier::new(&root).probe().load(&key(9)).is_none(),
            "truncated segment hit"
        );
        // Flipped payload byte (record checksum catches it): the last byte,
        // and one inside the first 32-byte block of lane words.
        let payload_start = SEG_HEADER_BYTES + RECORD_HEADER_BYTES;
        for (at, bit) in [(pristine.len() - 1, 0x40), (payload_start + 13, 0x01)] {
            let mut flipped = pristine.clone();
            flipped[at] ^= bit;
            std::fs::write(&path, &flipped).unwrap();
            assert!(
                DiskTier::new(&root).probe().load(&key(9)).is_none(),
                "bad checksum hit (byte {at})"
            );
        }
        // Wrong version: the whole segment is ignored.
        let mut versioned = pristine.clone();
        versioned[8] ^= 0xFF;
        std::fs::write(&path, &versioned).unwrap();
        assert!(
            DiskTier::new(&root).probe().load(&key(9)).is_none(),
            "bad version hit"
        );
        // Restoring the pristine bytes restores the hit.
        std::fs::write(&path, &pristine).unwrap();
        assert_eq!(DiskTier::new(&root).probe().load(&key(9)), Some(value));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Bytes `0, 1, 2, …` (wrapping): a payload whose every word differs.
    fn ramp(len: usize) -> Vec<u8> {
        (0..len).map(|i| i as u8).collect()
    }

    #[test]
    fn record_checksum_known_answers() {
        // Pins the on-disk checksum: a change to these values must come with
        // a bump of `FORMAT_VERSION`.
        let cases: [(Vec<u8>, u64); 6] = [
            (Vec::new(), 0xdb83_d107_1450_f593),
            (vec![0x5a], 0x1c62_f360_0f7c_c136),
            (ramp(31), 0x4076_69e1_888f_70cc),
            (ramp(32), 0x3d75_2073_2b5a_62db),
            (ramp(77), 0xfb9a_aaa4_8a83_318b),
            (ramp(6280), 0xf140_8167_e453_7b03),
        ];
        for (payload, expected) in &cases {
            assert_eq!(
                record_checksum(payload),
                *expected,
                "payload of {} bytes",
                payload.len()
            );
        }
    }

    #[test]
    fn record_checksum_sees_every_single_bit_flip() {
        // Lengths 0..=80 cover every lane of two and a half blocks and every
        // tail length; each flip changes one word of one lane or of the tail.
        for len in 0..=80 {
            let payload = ramp(len);
            let pristine = record_checksum(&payload);
            for byte in 0..len {
                for bit in 0..8 {
                    let mut flipped = payload.clone();
                    flipped[byte] ^= 1 << bit;
                    assert_ne!(
                        record_checksum(&flipped),
                        pristine,
                        "len {len} byte {byte} bit {bit}"
                    );
                }
            }
        }
        // A trailing zero byte lands in the zero padding of the last word:
        // the length still tells the two payloads apart.
        for len in 0..80 {
            let mut padded = ramp(len);
            padded.push(0);
            assert_ne!(
                record_checksum(&ramp(len)),
                record_checksum(&padded),
                "len {len}"
            );
        }
    }

    #[test]
    fn record_checksum_batches_match_single_records() {
        // Eight records of every length 0..=80 (whole interleaved groups),
        // then every length once in a shuffled order, so each group of eight
        // mixes lengths and the runs of one length are cut short.
        let mut payloads: Vec<Vec<u8>> = Vec::new();
        for len in 0..=80usize {
            for copy in 0..8u8 {
                payloads.push(
                    ramp(len)
                        .iter()
                        .map(|b| b ^ copy.wrapping_mul(37))
                        .collect(),
                );
            }
        }
        payloads.extend((0..=80usize).map(|i| ramp(i * 37 % 81)));
        let slices: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
        let batched = record_checksums(&slices);
        assert_eq!(batched.len(), payloads.len());
        for (payload, sum) in payloads.iter().zip(batched) {
            assert_eq!(
                sum,
                record_checksum(payload),
                "payload of {} bytes",
                payload.len()
            );
        }
        assert!(record_checksums(&[]).is_empty());
    }

    /// Eight covered sets of one length (one interleaved checksum group) and
    /// two of other lengths, as the format-6 fixture segment holds them.
    fn fixture_values() -> Vec<Bitset> {
        (0..10usize)
            .map(|i| {
                let len = if i < 8 { 200 } else { 64 + 70 * i };
                set(&(i..len).step_by(i + 3).collect::<Vec<_>>(), len)
            })
            .collect()
    }

    fn fixture_key(i: usize) -> CacheKey {
        CacheKey {
            net: NetworkFingerprint {
                lo: 0x1111,
                hi: 0x2222,
            },
            sample: (i as u64, 100 + i as u64),
            criterion: 0x77,
        }
    }

    #[test]
    fn segment_written_by_the_format_6_checksum_reads_back_as_hits() {
        // `testdata/format6-segment.dnnipseg` was written by the
        // one-record-at-a-time checksum, before records were checksummed in
        // batches. Its header's version field is set to this build's tag, so
        // a crate version bump does not retire the fixture; the records are
        // the old writer's bytes.
        let root = temp_root("format6");
        let mut bytes = include_bytes!("../testdata/format6-segment.dnnipseg").to_vec();
        bytes[8..16].copy_from_slice(&version_tag().to_le_bytes());
        let dir = root
            .join(format!("{}", fixture_key(0).net))
            .join("0000000000000077");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(format!("seg-old.{SEG_EXT}")), &bytes).unwrap();
        let tier = DiskTier::new(&root);
        for (i, value) in fixture_values().iter().enumerate() {
            assert_eq!(
                tier.probe().load(&fixture_key(i)).as_ref(),
                Some(value),
                "record {i}"
            );
        }
        assert_eq!((tier.stats().hits, tier.stats().misses), (10, 0));
        // The batched writer emits the same bytes.
        let writer_root = temp_root("format6-writer");
        let values = fixture_values();
        let batch: Vec<(CacheKey, &Bitset)> = values
            .iter()
            .enumerate()
            .map(|(i, v)| (fixture_key(i), v))
            .collect();
        DiskTier::new(&writer_root).store_batch(&batch);
        assert_eq!(std::fs::read(only_segment(&writer_root)).unwrap(), bytes);
        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&writer_root);
    }

    #[test]
    fn segment_with_one_corrupt_record_in_a_group_misses_only_it() {
        let root = temp_root("group");
        let values = fixture_values();
        let batch: Vec<(CacheKey, &Bitset)> = values
            .iter()
            .enumerate()
            .map(|(i, v)| (fixture_key(i), v))
            .collect();
        DiskTier::new(&root).store_batch(&batch);
        let path = only_segment(&root);
        let pristine = std::fs::read(&path).unwrap();
        let records = parse_segment(&pristine);
        let corrupt = |bytes: &mut Vec<u8>| {
            // A payload bit of record 3, inside the group of eight.
            bytes[records[3].offset + 9] ^= 0x10;
        };
        let expect_only_3_misses = |tier: &DiskTier| {
            for (i, value) in values.iter().enumerate() {
                let loaded = tier.probe().load(&fixture_key(i));
                if i == 3 {
                    assert!(loaded.is_none(), "corrupt record hit");
                } else {
                    assert_eq!(loaded.as_ref(), Some(value), "record {i}");
                }
            }
        };

        // Corrupt before any read: the scan's verification catches it.
        let mut flipped = pristine.clone();
        corrupt(&mut flipped);
        std::fs::write(&path, &flipped).unwrap();
        expect_only_3_misses(&DiskTier::new(&root));

        // Corrupt after an earlier read: the resident bytes were verified
        // intact and keep serving; once the buffer is evicted, the re-read
        // bytes are verified again and the record misses.
        std::fs::write(&path, &pristine).unwrap();
        let tier = DiskTier::new(&root);
        for (i, value) in values.iter().enumerate() {
            assert_eq!(tier.probe().load(&fixture_key(i)).as_ref(), Some(value));
        }
        std::fs::write(&path, &flipped).unwrap();
        assert_eq!(
            tier.probe().load(&fixture_key(3)).as_ref(),
            Some(&values[3])
        );
        let filler = set(&[1], 64);
        for criterion in 0..MAX_RESIDENT_BUFFERS as u64 {
            let k = CacheKey {
                criterion,
                ..key(5)
            };
            tier.store_batch(&[(k, &filler)]);
            assert!(tier.probe().load(&k).is_some());
        }
        expect_only_3_misses(&tier);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Arbitrary bytes (the shim has no `any::<u8>()`).
    fn bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec((0u16..256).prop_map(|b| b as u8), len)
    }

    /// A record header with small, often lying, kind and length fields, so
    /// the parser walks several records before the garbage stops it.
    fn record() -> impl Strategy<Value = Vec<u8>> {
        (0u64..u64::MAX, 0u64..300, 0u64..96, bytes(0..80)).prop_map(
            |(sample, kind, len, payload)| {
                let mut out = Vec::new();
                for field in [sample, !sample, kind, len, record_checksum(&payload)] {
                    out.extend_from_slice(&field.to_le_bytes());
                }
                out.extend_from_slice(&payload);
                out
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parse_segment_stays_inside_arbitrary_bytes(
            records in prop::collection::vec(record(), 0..6),
            tail in bytes(0..120),
            cut in 0usize..1000,
        ) {
            let mut segment = Vec::new();
            segment.extend_from_slice(&SEG_MAGIC.to_le_bytes());
            segment.extend_from_slice(&version_tag().to_le_bytes());
            segment.extend(records.concat());
            segment.extend_from_slice(&tail);
            // Truncate anywhere, the header included.
            segment.truncate(cut % (segment.len() + 1));
            let mut end = SEG_HEADER_BYTES;
            for rec in parse_segment(&segment) {
                prop_assert!(rec.offset >= end + RECORD_HEADER_BYTES);
                prop_assert!(rec.offset + rec.len <= segment.len());
                end = rec.offset + rec.len;
                // Whatever the record holds, the decoder answers without
                // panicking.
                let _ = Bitset::decode(&segment[rec.offset..end]);
            }
        }
    }

    #[test]
    fn a_probe_sees_segments_another_tier_stored_after_its_scan() {
        let root = temp_root("rescan");
        let (a, b) = (DiskTier::new(&root), DiskTier::new(&root));
        let (one, two, three) = (set(&[1], 64), set(&[2], 64), set(&[3], 64));
        let k = |sample: u64| CacheKey {
            sample: (sample, sample),
            ..key(1)
        };
        // A stores and then stamps the directory with a time of its own, as
        // if a timestamp tick had passed since B's last stat.
        let dir = a.dir_path(k(1).net, k(1).criterion);
        let store = |entry: (CacheKey, &Bitset), second: u64| {
            a.store_batch(&[entry]);
            let stamp = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(second);
            std::fs::File::open(&dir)
                .unwrap()
                .set_modified(stamp)
                .unwrap();
        };
        // B scans the directory before it exists; A then creates it.
        assert!(b.probe().load(&k(1)).is_none());
        store((k(1), &one), 1);
        assert_eq!(b.probe().load(&k(1)), Some(one));
        assert!(b.probe().load(&k(2)).is_none());
        store((k(2), &two), 2);
        // One stat per session: a session that already rechecked trusts its
        // index, and the next session finds the new segment.
        let mut session = b.probe();
        assert_eq!(session.load(&k(2)), Some(two));
        store((k(3), &three), 3);
        assert!(session.load(&k(3)).is_none());
        assert_eq!(b.probe().load(&k(3)), Some(three));
        // Every segment was read once: rescans index only new files.
        assert_eq!(b.lock().segments.len(), 3);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn own_writes_keep_the_recorded_time_current_but_foreign_writes_do_not() {
        let root = temp_root("own-write");
        let (a, b) = (DiskTier::new(&root), DiskTier::new(&root));
        let values: Vec<Bitset> = (0..4).map(|i| set(&[i], 64)).collect();
        let k = |sample: u64| CacheKey {
            sample: (sample, sample),
            ..key(1)
        };
        let dir = b.dir_path(k(0).net, k(0).criterion);
        let recorded = |t: &DiskTier| t.lock().dirs[&(k(0).net, k(0).criterion)].mtime;
        let stamp = |second: u64| {
            std::fs::File::open(&dir)
                .unwrap()
                .set_modified(SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(second))
                .unwrap();
        };
        b.store_batch(&[(k(0), &values[0])]);
        assert_eq!(b.probe().load(&k(0)).as_ref(), Some(&values[0]));
        // B's own write leaves the time it made as the recorded one, so its
        // next probe does not list the directory again.
        b.store_batch(&[(k(1), &values[1])]);
        let after_own = recorded(&b);
        assert_eq!(after_own, dir_mtime(&dir));
        // A foreign segment lands before B's next write: B keeps the old
        // time, and its next probe (a tick later) lists the new segment.
        a.store_batch(&[(k(2), &values[2])]);
        stamp(1);
        b.store_batch(&[(k(3), &values[3])]);
        assert_eq!(recorded(&b), after_own);
        stamp(2);
        assert_eq!(b.probe().load(&k(2)).as_ref(), Some(&values[2]));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn byte_budget_evicts_least_recently_accessed_segments() {
        let root = temp_root("budget");
        let value = set(&[1, 2, 3], 256);
        let mut payload = Vec::new();
        value.encode(&mut payload);
        let segment_bytes = (SEG_HEADER_BYTES + RECORD_HEADER_BYTES + payload.len()) as u64;
        // Budget for two single-entry segments.
        let tier = DiskTier::new(&root).with_max_bytes(Some(2 * segment_bytes));
        tier.store_batch(&[(key(1), &value)]);
        tier.store_batch(&[(key(2), &value)]);
        assert_eq!(tier.stats().evictions, 0);
        assert_eq!(tier.stats().resident_bytes, 2 * segment_bytes);
        // Touch key 1 so key 2 becomes the eviction victim.
        assert!(tier.probe().load(&key(1)).is_some());
        tier.store_batch(&[(key(3), &value)]);
        let stats = tier.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.resident_bytes <= 2 * segment_bytes);
        assert!(tier.probe().load(&key(1)).is_some(), "recently used");
        assert!(tier.probe().load(&key(3)).is_some(), "just written");
        assert!(tier.probe().load(&key(2)).is_none(), "evicted");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_poisoned_tier_rescans_and_keeps_its_records_and_counters() {
        let root = temp_root("poison");
        let tier = DiskTier::new(&root).with_max_bytes(Some(1 << 20));
        let values: Vec<Bitset> = (0..8).map(|i| set(&[i, 3 * i + 70], 150)).collect();
        let batch: Vec<(CacheKey, &Bitset)> = values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                (
                    CacheKey {
                        sample: (i as u64, 7),
                        ..key(1)
                    },
                    v,
                )
            })
            .collect();
        let (first, second) = batch.split_at(4);
        let loads_match = |entries: &[(CacheKey, &Bitset)]| {
            for (k, v) in entries {
                assert_eq!(tier.probe().load(k).as_ref(), Some(*v));
            }
        };
        tier.store_batch(first);
        loads_match(first);
        let before = tier.stats();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = tier.inner.lock();
            panic!("poisoning the disk tier lock on purpose");
        }));
        assert!(panicked.is_err() && tier.inner.is_poisoned());
        // The counters survive the recovery; the index and budget walk do
        // not, so loads rescan and stores re-walk the directory.
        assert_eq!(
            tier.stats(),
            DiskStats {
                resident_bytes: 0,
                ..before
            }
        );
        assert!(!tier.inner.is_poisoned());
        loads_match(first);
        tier.store_batch(second);
        loads_match(&batch);
        let mut on_disk = 0;
        collect_files(&root, &mut |_, meta| on_disk += meta.len());
        let after = tier.stats();
        assert_eq!(after.resident_bytes, on_disk);
        assert_eq!((after.hits, after.writes), (before.hits + 12, 8));
        assert_eq!((after.misses, after.evictions), (0, 0));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn budget_walk_accounts_for_preexisting_files() {
        let root = temp_root("prewalk");
        // Process 1 (no budget) writes two segments.
        let writer = DiskTier::new(&root);
        let value = set(&[0, 100], 128);
        writer.store_batch(&[(key(1), &value)]);
        writer.store_batch(&[(key(2), &value)]);
        // Process 2 arrives with a budget of ~one segment: its first write
        // must evict pre-existing files it never wrote itself.
        let mut payload = Vec::new();
        value.encode(&mut payload);
        let segment_bytes = (SEG_HEADER_BYTES + RECORD_HEADER_BYTES + payload.len()) as u64;
        let tier = DiskTier::new(&root).with_max_bytes(Some(segment_bytes + 8));
        tier.store_batch(&[(key(3), &value)]);
        let stats = tier.stats();
        assert!(stats.evictions >= 2, "evictions: {}", stats.evictions);
        assert!(stats.resident_bytes <= segment_bytes + 8);
        assert!(tier.probe().load(&key(3)).is_some(), "newest survives");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn the_budget_counts_and_evicts_only_segment_files() {
        let root = temp_root("foreign");
        let value = set(&[4, 40], 128);
        let mut payload = Vec::new();
        value.encode(&mut payload);
        let segment_bytes = (SEG_HEADER_BYTES + RECORD_HEADER_BYTES + payload.len()) as u64;
        let tier = DiskTier::new(&root).with_max_bytes(Some(2 * segment_bytes));
        // Files the tier did not write, each larger than the whole budget and
        // older than every segment: a root-level file, a non-segment file in
        // a fingerprint directory and another process's in-flight temp file.
        let segment_dir = tier.dir_path(key(1).net, key(1).criterion);
        let foreign = [
            root.join("notes.txt"),
            segment_dir.parent().unwrap().join("notes.txt"),
            segment_dir.join(".tmp-1-0"),
        ];
        for path in &foreign {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, vec![7u8; 3 * segment_bytes as usize]).unwrap();
        }
        for seed in 1..=3 {
            tier.store_batch(&[(key(seed), &value)]);
        }
        let stats = tier.stats();
        assert_eq!(stats.evictions, 1, "only the oldest segment goes");
        for path in &foreign {
            assert!(path.exists(), "{} was deleted", path.display());
        }
        let mut segments_on_disk = 0;
        collect_files(&root, &mut |path, meta| {
            if is_segment(&path) {
                segments_on_disk += meta.len();
            }
        });
        assert_eq!(stats.resident_bytes, 2 * segment_bytes);
        assert_eq!(stats.resident_bytes, segments_on_disk);
        assert!(tier.probe().load(&key(1)).is_none(), "evicted");
        assert!(tier.probe().load(&key(3)).is_some(), "just written");
        let _ = std::fs::remove_dir_all(&root);
    }
}
