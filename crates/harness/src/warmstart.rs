//! Warm-start snapshot caching for campaigns.
//!
//! Campaign jobs that share a `(benchmark, seed, warmup budget,
//! warmup-relevant configuration)` quadruple go through the exact same
//! mitigation-free warmup (see [`Simulator::run_warmup`]), so computing it
//! once and forking every measured run from the resulting [`Snapshot`] is
//! free speedup. "Warmup-relevant" means every [`SimConfig`] field except
//! `mitigation`: the warmup never consults the mitigation manager, so
//! technique variants over the same machine share; different core
//! geometries, floorplans, or packages do not.
//!
//! [`WarmStartCache`] keeps computed snapshots in memory for the lifetime
//! of a campaign (each computed exactly once; concurrent requesters wait
//! on the first computation, interruptibly — see
//! [`WarmStartCache::get_or_compute_controlled`]) and can additionally
//! persist them to a checkpoint directory so later *processes* skip the
//! warmup too:
//!
//! * with a checkpoint directory set, every computed snapshot is written
//!   to `<dir>/<fnv1a-of-key>.json` (atomically: temp file + rename);
//! * with `resume` also set, the cache tries the directory before
//!   computing, verifying both the snapshot format version and the full
//!   cache key stored inside the file (so a hash collision or a stale
//!   file from an incompatible run falls back to recomputation instead of
//!   poisoning results).

use powerbalance::{
    spec2000, Error, MitigationConfig, RunControl, SimConfig, Simulator, Snapshot, StopCause,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// One cache slot: computed exactly once, shareable across workers, and
/// able to remember a failed computation (hence `Result` inside the cell).
///
/// The computing worker holds `claimed` while it runs the warmup; everyone
/// else polls the cell *and their own [`RunControl`]* instead of blocking
/// inside the `OnceLock`, so a cancelled or timed-out job unblocks even
/// while another worker keeps computing. If the computing worker itself is
/// stopped early it never publishes into the cell — it drops the claim and
/// removes the map entry, so a later request recomputes from scratch
/// instead of inheriting a half-warmed snapshot.
#[derive(Debug, Default)]
struct SlotState {
    claimed: AtomicBool,
    cell: OnceLock<Result<Arc<Snapshot>, Error>>,
}

type Slot = Arc<SlotState>;

/// How a controlled cache request ended.
#[derive(Debug, Clone)]
pub enum WarmupOutcome {
    /// The snapshot is available (computed here, by another worker, or
    /// loaded from the checkpoint directory).
    Ready(Arc<Snapshot>),
    /// The caller's [`RunControl`] stopped the request before a snapshot
    /// was available; the cache is left unpoisoned.
    Stopped(StopCause),
}

/// A shared, thread-safe cache of warmup snapshots.
///
/// # Examples
///
/// ```
/// use powerbalance::experiments;
/// use powerbalance_harness::WarmStartCache;
///
/// let cache = WarmStartCache::in_memory();
/// let snap = cache
///     .get_or_compute("gzip", 42, 20_000, &experiments::issue_queue(true))
///     .expect("warmup runs");
/// // The same key returns the same snapshot without re-simulating.
/// let again = cache
///     .get_or_compute("gzip", 42, 20_000, &experiments::issue_queue(false))
///     .expect("cache hit: same machine, different mitigation");
/// assert_eq!(*snap, *again);
/// ```
#[derive(Debug, Default)]
pub struct WarmStartCache {
    entries: Mutex<HashMap<String, Slot>>,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
    hits: Mutex<u64>,
    computed: Mutex<u64>,
    loaded: Mutex<u64>,
}

/// On-disk wrapper around a persisted snapshot: stores the full cache key
/// so a load can verify it landed on the right file (file names are only
/// a 64-bit hash of the key).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
struct CheckpointFile {
    key: String,
    snapshot: Snapshot,
}

impl WarmStartCache {
    /// A purely in-memory cache (no checkpoint directory).
    #[must_use]
    pub fn in_memory() -> Self {
        WarmStartCache::default()
    }

    /// A cache that persists computed snapshots under `dir`, and — when
    /// `resume` is set — loads matching snapshots from `dir` instead of
    /// recomputing them.
    #[must_use]
    pub fn with_checkpoint_dir(dir: impl Into<PathBuf>, resume: bool) -> Self {
        WarmStartCache { checkpoint_dir: Some(dir.into()), resume, ..WarmStartCache::default() }
    }

    /// The canonical cache key for a warmup.
    ///
    /// Includes the snapshot format version (so a format bump invalidates
    /// on-disk checkpoints), the benchmark, seed, and warmup budget, and
    /// the full configuration with `mitigation` normalized to the baseline
    /// — the warmup never consults the mitigation manager, so configs
    /// differing only there share a key.
    #[must_use]
    pub fn key(bench: &str, seed: u64, warmup_cycles: u64, config: &SimConfig) -> String {
        let normalized = SimConfig { mitigation: MitigationConfig::baseline(), ..config.clone() };
        format!(
            "{{\"format_version\":{},\"bench\":{},\"seed\":{seed},\"warmup_cycles\":{warmup_cycles},\"config\":{}}}",
            powerbalance::FORMAT_VERSION,
            serde::json::to_string(bench),
            serde::json::to_string(&normalized),
        )
    }

    /// The file a snapshot for `key` is persisted at under `dir`.
    #[must_use]
    pub fn checkpoint_path(dir: &Path, key: &str) -> PathBuf {
        dir.join(format!("{:016x}.json", fnv1a(key.as_bytes())))
    }

    /// Returns the warmup snapshot for the quadruple, computing (or
    /// loading from the checkpoint directory) at most once per key.
    ///
    /// The returned snapshot was captured under `config` with its
    /// mitigation normalized to the baseline; resume it into the actual
    /// measured config with [`Snapshot::resume_with_config`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the benchmark is unknown or the
    /// configuration fails validation. Checkpoint-directory I/O problems
    /// are not errors: unreadable or mismatched files fall back to
    /// recomputation, and failed writes are ignored (the cache is an
    /// optimization, never a correctness dependency).
    pub fn get_or_compute(
        &self,
        bench: &str,
        seed: u64,
        warmup_cycles: u64,
        config: &SimConfig,
    ) -> Result<Arc<Snapshot>, Error> {
        match self.get_or_compute_controlled(
            bench,
            seed,
            warmup_cycles,
            config,
            &RunControl::unlimited(),
        )? {
            WarmupOutcome::Ready(snapshot) => Ok(snapshot),
            WarmupOutcome::Stopped(_) => {
                unreachable!("an unlimited control never stops a warmup")
            }
        }
    }

    /// Like [`get_or_compute`](Self::get_or_compute), but observes
    /// `control` throughout: the computing worker threads it into the
    /// warmup itself ([`Simulator::run_warmup_controlled`]) and everyone
    /// else polls it while waiting on that computation — so a cancelled
    /// job blocked on a *shared* warmup unblocks at the next sampling
    /// window instead of riding the whole warmup out.
    ///
    /// A stop is never cached: if the computing worker is stopped early,
    /// the partial warmup is discarded and the key forgotten, so the next
    /// request (possibly one of the former waiters, if its own control
    /// allows) recomputes from scratch. Only completed snapshots — and
    /// configuration errors — are published.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the benchmark is unknown or the
    /// configuration fails validation.
    pub fn get_or_compute_controlled(
        &self,
        bench: &str,
        seed: u64,
        warmup_cycles: u64,
        config: &SimConfig,
        control: &RunControl<'_>,
    ) -> Result<WarmupOutcome, Error> {
        let key = Self::key(bench, seed, warmup_cycles, config);
        let mut computed_here = false;
        let result = loop {
            // Re-fetch each iteration: an aborted computation removes the
            // entry, and waiters must migrate to the replacement slot.
            let existing = self.existing(&key);
            if let Some(result) = existing.as_ref().and_then(|slot| slot.cell.get()) {
                break result.clone();
            }
            // A stopped request creates no entry: one it created after an
            // aborted computation forgot the key would outlive them both.
            if let Some(stop) = control.stop_cause() {
                return Ok(WarmupOutcome::Stopped(stop));
            }
            let slot = existing.unwrap_or_else(|| self.slot(&key));
            if slot.claimed.swap(true, Ordering::AcqRel) {
                // Another worker is computing this key. Sleep briefly and
                // re-check both the cell and our own control.
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            computed_here = true;
            match self.load_or_compute(&key, bench, seed, warmup_cycles, config, control) {
                Ok(Ok(snapshot)) => {
                    let _ = slot.cell.set(Ok(Arc::clone(&snapshot)));
                    break Ok(snapshot);
                }
                Ok(Err(stop)) => {
                    self.forget(&key, &slot);
                    slot.claimed.store(false, Ordering::Release);
                    return Ok(WarmupOutcome::Stopped(stop));
                }
                Err(e) => {
                    // Config errors are deterministic; cache the failure so
                    // sibling jobs fail fast instead of re-simulating.
                    let _ = slot.cell.set(Err(e.clone()));
                    break Err(e);
                }
            }
        };
        if !computed_here {
            *self.hits.lock().unwrap_or_else(std::sync::PoisonError::into_inner) += 1;
        }
        result.map(WarmupOutcome::Ready)
    }

    /// The live slot for `key`, if there is one.
    fn existing(&self, key: &str) -> Option<Slot> {
        let entries = self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        entries.get(key).cloned()
    }

    /// The live slot for `key`, created on first request.
    fn slot(&self, key: &str) -> Slot {
        // Lock poisoning is recovered rather than propagated: a worker that
        // panicked mid-campaign leaves the map/counters in a consistent
        // state (every mutation here is a single insert or increment), and
        // failing every later job over it would turn one bad run into a
        // dead campaign.
        let mut entries = self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(entries.entry(key.to_string()).or_default())
    }

    /// Drops `key`'s entry, but only if it still maps to `slot` — a
    /// replacement published by a later generation must survive.
    fn forget(&self, key: &str, slot: &Slot) {
        let mut entries = self.entries.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if entries.get(key).is_some_and(|current| Arc::ptr_eq(current, slot)) {
            entries.remove(key);
        }
    }

    /// Cache statistics: `(computed, loaded from disk, in-memory hits)`.
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            *self.computed.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
            *self.loaded.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
            *self.hits.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    fn load_or_compute(
        &self,
        key: &str,
        bench: &str,
        seed: u64,
        warmup_cycles: u64,
        config: &SimConfig,
        control: &RunControl<'_>,
    ) -> Result<Result<Arc<Snapshot>, StopCause>, Error> {
        if self.resume {
            if let Some(dir) = &self.checkpoint_dir {
                if let Some(snapshot) = load_checkpoint(&Self::checkpoint_path(dir, key), key) {
                    *self.loaded.lock().unwrap_or_else(std::sync::PoisonError::into_inner) += 1;
                    return Ok(Ok(Arc::new(snapshot)));
                }
            }
        }

        let snapshot = match compute_warmup_controlled(bench, seed, warmup_cycles, config, control)?
        {
            Ok(snapshot) => snapshot,
            Err(stop) => return Ok(Err(stop)),
        };
        *self.computed.lock().unwrap_or_else(std::sync::PoisonError::into_inner) += 1;
        if let Some(dir) = &self.checkpoint_dir {
            // Best-effort persistence; a full disk must not fail the run.
            let _ = write_checkpoint(dir, key, &snapshot);
        }
        Ok(Ok(Arc::new(snapshot)))
    }
}

/// Runs the mitigation-free warmup and captures it as a [`Snapshot`].
///
/// The simulator is built with the mitigation normalized to the baseline,
/// making the captured snapshot canonical for its cache key no matter
/// which technique variant requested it first.
///
/// # Errors
///
/// Returns [`Error::Config`] if the benchmark is unknown or `config`
/// fails validation.
pub fn compute_warmup(
    bench: &str,
    seed: u64,
    warmup_cycles: u64,
    config: &SimConfig,
) -> Result<Snapshot, Error> {
    match compute_warmup_controlled(bench, seed, warmup_cycles, config, &RunControl::unlimited())? {
        Ok(snapshot) => Ok(snapshot),
        Err(_) => unreachable!("an unlimited control never stops a warmup"),
    }
}

/// [`compute_warmup`] with a [`RunControl`] threaded through the warmup
/// simulation, which checks it between sampling windows.
///
/// The outer `Result` is the configuration check; the inner one is the
/// control: `Ok(Err(cause))` means the warmup was stopped early and **no**
/// snapshot was captured (a partial warmup must never masquerade as a
/// complete one).
///
/// # Errors
///
/// Returns [`Error::Config`] if the benchmark is unknown or `config`
/// fails validation.
pub fn compute_warmup_controlled(
    bench: &str,
    seed: u64,
    warmup_cycles: u64,
    config: &SimConfig,
    control: &RunControl<'_>,
) -> Result<Result<Snapshot, StopCause>, Error> {
    let profile = spec2000::by_name(bench)
        .ok_or_else(|| Error::Config(format!("unknown benchmark '{bench}'")))?;
    let normalized = SimConfig { mitigation: MitigationConfig::baseline(), ..config.clone() };
    let mut sim = Simulator::new(normalized)?;
    let mut trace = profile.trace(seed);
    let cause = sim.run_warmup_controlled(&mut trace, warmup_cycles, control);
    if !cause.is_completed() {
        return Ok(Err(cause));
    }
    Ok(Ok(Snapshot::capture(&sim, &profile, &trace)))
}

/// 64-bit FNV-1a — the checkpoint file-name hash. Stable across runs and
/// platforms (unlike `std`'s `DefaultHasher`, which is randomly seeded).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn load_checkpoint(path: &Path, key: &str) -> Option<Snapshot> {
    let text = std::fs::read_to_string(path).ok()?;
    let file: CheckpointFile = serde::json::from_str(&text).ok()?;
    if file.key != key {
        return None; // hash collision or stale/corrupt file
    }
    if file.snapshot.format_version != powerbalance::FORMAT_VERSION {
        return None;
    }
    Some(file.snapshot)
}

fn write_checkpoint(dir: &Path, key: &str, snapshot: &Snapshot) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = WarmStartCache::checkpoint_path(dir, key);
    let file = CheckpointFile { key: key.to_string(), snapshot: snapshot.clone() };
    // Write to a temp file in the same directory, then rename into place:
    // readers never observe a partial document, and concurrent writers of
    // the same key settle on identical bytes anyway.
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    std::fs::write(&tmp, serde::json::to_string(&file))?;
    std::fs::rename(&tmp, &path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerbalance::experiments;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("powerbalance-warmstart-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn pre_stopped_controlled_request_leaves_the_cache_unpoisoned() {
        let cache = WarmStartCache::in_memory();
        let config = experiments::issue_queue(false);
        let flag = AtomicBool::new(true);
        let control = RunControl::unlimited().with_cancel(&flag);
        let outcome = cache
            .get_or_compute_controlled("gzip", 4, 20_000, &config, &control)
            .expect("valid config");
        assert!(matches!(outcome, WarmupOutcome::Stopped(StopCause::Cancelled)), "{outcome:?}");
        let (computed, _, _) = cache.stats();
        assert_eq!(computed, 0, "a stopped request must not count as computed");

        // The aborted key was forgotten, not poisoned: an uncontrolled
        // retry computes the full warmup.
        let snap = cache.get_or_compute("gzip", 4, 20_000, &config).expect("recompute");
        let reference = compute_warmup("gzip", 4, 20_000, &config).expect("warmup");
        assert_eq!(*snap, reference, "the retry must produce the full, untainted warmup");
        let (computed, _, _) = cache.stats();
        assert_eq!(computed, 1);
    }

    #[test]
    fn cancel_during_shared_warmup_unblocks_computer_and_waiters() {
        // Two workers land on the same (huge) warmup key: one computes,
        // one waits on the computation. Cancelling their shared flag must
        // unblock *both* promptly — the waiter from its poll loop, the
        // computer from inside `run_warmup_controlled` — and must not
        // publish the partial warmup.
        let cache = WarmStartCache::in_memory();
        let config = experiments::issue_queue(false);
        let flag = AtomicBool::new(false);
        let outcomes: Vec<WarmupOutcome> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let control = RunControl::unlimited().with_cancel(&flag);
                        cache
                            .get_or_compute_controlled("gzip", 8, 50_000_000, &config, &control)
                            .expect("valid config")
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_millis(100));
            flag.store(true, Ordering::Relaxed);
            workers.into_iter().map(|w| w.join().expect("worker panicked")).collect()
        });
        for outcome in &outcomes {
            assert!(matches!(outcome, WarmupOutcome::Stopped(StopCause::Cancelled)), "{outcome:?}");
        }
        let (computed, _, _) = cache.stats();
        assert_eq!(computed, 0, "the 50M-cycle warmup must not have completed in 100ms");
        assert!(
            cache.entries.lock().unwrap().is_empty(),
            "an aborted computation must forget its key"
        );
    }

    #[test]
    fn key_ignores_mitigation_but_not_geometry() {
        let toggling = experiments::issue_queue(true);
        let base = experiments::issue_queue(false);
        assert_eq!(
            WarmStartCache::key("gzip", 1, 100, &toggling),
            WarmStartCache::key("gzip", 1, 100, &base),
            "configs differing only in mitigation share a warmup"
        );
        let other_machine = experiments::alu(powerbalance::experiments::AluPolicy::RoundRobin);
        assert_ne!(
            WarmStartCache::key("gzip", 1, 100, &base),
            WarmStartCache::key("gzip", 1, 100, &other_machine),
            "different core geometry must not share"
        );
        assert_ne!(
            WarmStartCache::key("gzip", 1, 100, &base),
            WarmStartCache::key("gzip", 2, 100, &base)
        );
        assert_ne!(
            WarmStartCache::key("gzip", 1, 100, &base),
            WarmStartCache::key("mesa", 1, 100, &base)
        );
        assert_ne!(
            WarmStartCache::key("gzip", 1, 100, &base),
            WarmStartCache::key("gzip", 1, 200, &base)
        );
    }

    #[test]
    fn in_memory_cache_computes_once() {
        let cache = WarmStartCache::in_memory();
        let a = cache
            .get_or_compute("gzip", 5, 20_000, &experiments::issue_queue(true))
            .expect("warmup");
        let b = cache
            .get_or_compute("gzip", 5, 20_000, &experiments::issue_queue(false))
            .expect("warmup");
        assert!(Arc::ptr_eq(&a, &b), "second request must hit the cache");
        let (computed, loaded, hits) = cache.stats();
        assert_eq!((computed, loaded, hits), (1, 0, 1));
    }

    #[test]
    fn checkpoints_round_trip_through_disk() {
        let dir = temp_dir("roundtrip");
        let config = experiments::issue_queue(false);

        let writer = WarmStartCache::with_checkpoint_dir(&dir, false);
        let original = writer.get_or_compute("eon", 3, 20_000, &config).expect("warmup");
        let key = WarmStartCache::key("eon", 3, 20_000, &config);
        let path = WarmStartCache::checkpoint_path(&dir, &key);
        assert!(path.is_file(), "checkpoint must be persisted at {path:?}");

        // A fresh cache with --resume semantics loads instead of computing.
        let reader = WarmStartCache::with_checkpoint_dir(&dir, true);
        let loaded = reader.get_or_compute("eon", 3, 20_000, &config).expect("load");
        assert_eq!(*loaded, *original);
        let (computed, from_disk, _) = reader.stats();
        assert_eq!((computed, from_disk), (0, 1));

        // Without --resume the directory is write-only.
        let no_resume = WarmStartCache::with_checkpoint_dir(&dir, false);
        let _ = no_resume.get_or_compute("eon", 3, 20_000, &config).expect("warmup");
        let (computed, from_disk, _) = no_resume.stats();
        assert_eq!((computed, from_disk), (1, 0));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_mismatched_checkpoints_fall_back_to_compute() {
        let dir = temp_dir("corrupt");
        let config = experiments::issue_queue(false);
        let key = WarmStartCache::key("gzip", 9, 20_000, &config);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = WarmStartCache::checkpoint_path(&dir, &key);

        // Garbage file: recompute.
        std::fs::write(&path, "not json").expect("write");
        let cache = WarmStartCache::with_checkpoint_dir(&dir, true);
        let snap = cache.get_or_compute("gzip", 9, 20_000, &config).expect("fallback");
        let (computed, loaded, _) = cache.stats();
        assert_eq!((computed, loaded), (1, 0));

        // A file whose embedded key disagrees (as a hash collision would):
        // recompute rather than trust it.
        let wrong = CheckpointFile { key: "something else".to_string(), snapshot: (*snap).clone() };
        std::fs::write(&path, serde::json::to_string(&wrong)).expect("write");
        let cache = WarmStartCache::with_checkpoint_dir(&dir, true);
        let _ = cache.get_or_compute("gzip", 9, 20_000, &config).expect("fallback");
        let (computed, loaded, _) = cache.stats();
        assert_eq!((computed, loaded), (1, 0));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_checkpoint_falls_back_to_compute() {
        // A process killed mid-write (or a full disk) can leave a file
        // that starts as valid JSON but stops mid-document. The loader
        // must treat it like any other corruption: recompute, then heal
        // the file by overwriting it with the fresh snapshot.
        let dir = temp_dir("truncated");
        let config = experiments::issue_queue(false);
        let key = WarmStartCache::key("gzip", 11, 20_000, &config);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = WarmStartCache::checkpoint_path(&dir, &key);

        // Build a genuine checkpoint document and cut it in half.
        let snapshot = compute_warmup("gzip", 11, 20_000, &config).expect("warmup");
        let file = CheckpointFile { key: key.clone(), snapshot };
        let text = serde::json::to_string(&file);
        std::fs::write(&path, &text[..text.len() / 2]).expect("write");

        let cache = WarmStartCache::with_checkpoint_dir(&dir, true);
        let healed = cache.get_or_compute("gzip", 11, 20_000, &config).expect("fallback");
        let (computed, loaded, _) = cache.stats();
        assert_eq!((computed, loaded), (1, 0), "truncated file must not be trusted");
        assert_eq!(*healed, file.snapshot, "recompute reproduces the snapshot");

        // The recompute's best-effort persistence replaced the damage: a
        // later resume loads cleanly.
        let later = WarmStartCache::with_checkpoint_dir(&dir, true);
        let _ = later.get_or_compute("gzip", 11, 20_000, &config).expect("load");
        let (computed, loaded, _) = later.stats();
        assert_eq!((computed, loaded), (0, 1), "healed checkpoint must load");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
