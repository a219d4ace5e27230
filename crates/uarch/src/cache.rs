//! Set-associative caches and the two-level memory hierarchy.

use crate::config::CacheConfig;
use serde::{Deserialize, Serialize};

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Line present.
    Hit,
    /// Line absent; it has been filled (the caller charges the next level).
    Miss,
}

/// Serializable state of a [`Cache`], captured by [`Cache::snapshot`] and
/// reapplied with [`Cache::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheState {
    /// Tag array (`u64::MAX` = empty way).
    pub tags: Vec<u64>,
    /// LRU stamps, parallel to `tags`.
    pub stamps: Vec<u64>,
    /// LRU clock.
    pub clock: u64,
    /// Total accesses so far.
    pub accesses: u64,
    /// Total misses so far.
    pub misses: u64,
}

/// Serializable state of a [`MemoryHierarchy`], captured by
/// [`MemoryHierarchy::snapshot`] and reapplied with
/// [`MemoryHierarchy::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryState {
    /// Instruction L1 state.
    pub l1i: CacheState,
    /// Data L1 state.
    pub l1d: CacheState,
    /// Unified L2 state.
    pub l2: CacheState,
}

/// A set-associative cache with true-LRU replacement.
///
/// The cache stores tags only — the simulator never needs data values. Each
/// access updates LRU state; misses allocate (write-allocate for stores).
///
/// # Examples
///
/// ```
/// use powerbalance_uarch::{Cache, CacheConfig, CacheOutcome};
///
/// let mut c = Cache::new(CacheConfig::l1_default());
/// assert_eq!(c.access(0x1000), CacheOutcome::Miss);
/// assert_eq!(c.access(0x1000), CacheOutcome::Hit);
/// assert_eq!(c.access(0x1008), CacheOutcome::Hit, "same 64-byte line");
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: usize,
    /// `tags[set * ways + way]`; `u64::MAX` marks an empty way.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags` (larger = more recent).
    stamps: Vec<u64>,
    clock: u64,
    accesses: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not yield a power-of-two set count.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let sets = (config.size_bytes / (u64::from(config.ways) * config.line_bytes)) as usize;
        assert!(sets > 0 && sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            config,
            sets,
            tags: vec![u64::MAX; sets * config.ways as usize],
            stamps: vec![0; sets * config.ways as usize],
            clock: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// The configured geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Looks up `addr`, allocating on a miss.
    pub fn access(&mut self, addr: u64) -> CacheOutcome {
        self.accesses += 1;
        self.clock += 1;
        let line = addr / self.config.line_bytes;
        let set = (line as usize) & (self.sets - 1);
        let tag = line;
        let ways = self.config.ways as usize;
        let base = set * ways;

        for way in 0..ways {
            if self.tags[base + way] == tag {
                self.stamps[base + way] = self.clock;
                return CacheOutcome::Hit;
            }
        }

        self.misses += 1;
        // Replace the LRU (or first empty) way.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for way in 0..ways {
            if self.tags[base + way] == u64::MAX {
                victim = way;
                break;
            }
            if self.stamps[base + way] < oldest {
                oldest = self.stamps[base + way];
                victim = way;
            }
        }
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.clock;
        CacheOutcome::Miss
    }

    /// Total accesses so far.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate in `[0, 1]` (0 before any access).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Captures the cache's full state for snapshotting.
    #[must_use]
    pub fn snapshot(&self) -> CacheState {
        CacheState {
            tags: self.tags.clone(),
            stamps: self.stamps.clone(),
            clock: self.clock,
            accesses: self.accesses,
            misses: self.misses,
        }
    }

    /// Restores state captured by [`snapshot`](Cache::snapshot).
    ///
    /// # Errors
    ///
    /// Returns a message if the captured arrays do not match this cache's
    /// geometry.
    pub fn restore(&mut self, state: &CacheState) -> Result<(), String> {
        if state.tags.len() != self.tags.len() || state.stamps.len() != self.stamps.len() {
            return Err(format!(
                "cache snapshot has {} ways total, cache has {}",
                state.tags.len(),
                self.tags.len()
            ));
        }
        self.tags.copy_from_slice(&state.tags);
        self.stamps.copy_from_slice(&state.stamps);
        self.clock = state.clock;
        self.accesses = state.accesses;
        self.misses = state.misses;
        Ok(())
    }
}

/// The L1I/L1D + unified L2 + memory hierarchy.
///
/// Instruction and data L1s are private; both miss into the shared L2. The
/// model is latency-only (no bandwidth contention or MSHRs): each access
/// independently resolves to an L1, L2, or memory latency. That is the same
/// fidelity class as the SimpleScalar setup the paper used.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    memory_latency: u32,
}

impl MemoryHierarchy {
    /// Builds the hierarchy from per-level configs and memory latency.
    #[must_use]
    pub fn new(l1i: CacheConfig, l1d: CacheConfig, l2: CacheConfig, memory_latency: u32) -> Self {
        MemoryHierarchy {
            l1i: Cache::new(l1i),
            l1d: Cache::new(l1d),
            l2: Cache::new(l2),
            memory_latency,
        }
    }

    /// Instruction fetch of the line containing `pc`; returns its latency
    /// in cycles.
    pub fn fetch(&mut self, pc: u64) -> u32 {
        let l1 = self.l1i.config.latency;
        match self.l1i.access(pc) {
            CacheOutcome::Hit => l1,
            CacheOutcome::Miss => l1 + self.l2_fill(pc),
        }
    }

    /// Data access (load or store) to `addr`; returns its latency in
    /// cycles.
    pub fn data_access(&mut self, addr: u64) -> u32 {
        let l1 = self.l1d.config.latency;
        match self.l1d.access(addr) {
            CacheOutcome::Hit => l1,
            CacheOutcome::Miss => l1 + self.l2_fill(addr),
        }
    }

    /// Latency beyond the L1 of a line the L1 missed.
    fn l2_fill(&mut self, addr: u64) -> u32 {
        let l2 = self.l2.config.latency;
        match self.l2.access(addr) {
            CacheOutcome::Hit => l2,
            CacheOutcome::Miss => l2 + self.memory_latency,
        }
    }

    /// The instruction L1.
    #[must_use]
    pub fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// The data L1.
    #[must_use]
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The unified L2.
    #[must_use]
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Captures all three caches' state for snapshotting.
    #[must_use]
    pub fn snapshot(&self) -> MemoryState {
        MemoryState { l1i: self.l1i.snapshot(), l1d: self.l1d.snapshot(), l2: self.l2.snapshot() }
    }

    /// Restores state captured by [`snapshot`](MemoryHierarchy::snapshot).
    ///
    /// # Errors
    ///
    /// Returns a message if any level's geometry does not match.
    pub fn restore(&mut self, state: &MemoryState) -> Result<(), String> {
        self.l1i.restore(&state.l1i).map_err(|e| format!("l1i: {e}"))?;
        self.l1d.restore(&state.l1d).map_err(|e| format!("l1d: {e}"))?;
        self.l2.restore(&state.l2).map_err(|e| format!("l2: {e}"))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheConfig {
        CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 64, latency: 1 }
    }

    #[test]
    fn hit_after_fill() {
        let mut c = Cache::new(tiny());
        assert_eq!(c.access(0), CacheOutcome::Miss);
        assert_eq!(c.access(0), CacheOutcome::Hit);
        assert_eq!(c.access(63), CacheOutcome::Hit);
        assert_eq!(c.access(64), CacheOutcome::Miss);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = Cache::new(tiny()); // 8 sets, 2 ways
                                        // Three lines mapping to set 0 (stride = sets * line = 512).
        let (a, b, d) = (0u64, 512, 1024);
        assert_eq!(c.access(a), CacheOutcome::Miss);
        assert_eq!(c.access(b), CacheOutcome::Miss);
        assert_eq!(c.access(a), CacheOutcome::Hit); // a is now MRU
        assert_eq!(c.access(d), CacheOutcome::Miss); // evicts b
        assert_eq!(c.access(a), CacheOutcome::Hit);
        assert_eq!(c.access(b), CacheOutcome::Miss, "b was the LRU victim");
    }

    #[test]
    fn working_set_behaviour() {
        // A working set that fits sees ~100% hits after warmup; one that
        // doesn't thrashes.
        let mut c = Cache::new(tiny()); // 1 KB
        let fits: Vec<u64> = (0..8).map(|i| i * 64).collect();
        for &a in &fits {
            let _ = c.access(a);
        }
        for &a in &fits {
            assert_eq!(c.access(a), CacheOutcome::Hit);
        }

        let mut c2 = Cache::new(tiny());
        // 64 lines covering 4 KB with only 1 KB of cache: every set sees 8
        // distinct lines on a 2-way cache — repeated scans keep missing.
        let big: Vec<u64> = (0..64).map(|i| i * 64).collect();
        for _ in 0..4 {
            for &a in &big {
                let _ = c2.access(a);
            }
        }
        assert!(c2.miss_rate() > 0.9, "thrashing scan should miss: {}", c2.miss_rate());
    }

    #[test]
    fn hierarchy_latencies_stack() {
        let mut h = MemoryHierarchy::new(
            CacheConfig::l1_default(),
            CacheConfig::l1_default(),
            CacheConfig::l2_default(),
            250,
        );
        assert_eq!(h.data_access(0x4000_0000), 2 + 12 + 250, "cold: L1, L2 and memory");
        assert_eq!(h.data_access(0x4000_0000), 2, "warm: an L1 hit");
    }

    #[test]
    fn l1_miss_l2_hit() {
        let mut h = MemoryHierarchy::new(
            CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 64, latency: 2 },
            CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 64, latency: 2 },
            CacheConfig::l2_default(),
            250,
        );
        // Fill a 4 KB region: it fits in L2 but thrashes tiny L1.
        for i in 0..64u64 {
            let _ = h.data_access(i * 64);
        }
        // L1 evicted line 0; the L2 still holds it.
        assert_eq!(h.data_access(0), 2 + 12);
    }

    #[test]
    fn snapshot_restore_preserves_lru_behaviour() {
        let mut c = Cache::new(tiny());
        for a in [0u64, 512, 0, 1024] {
            let _ = c.access(a);
        }
        let state = c.snapshot();

        let mut restored = Cache::new(tiny());
        restored.restore(&state).expect("same geometry");
        // Same future behaviour, including the LRU victim choice.
        for a in [0u64, 512, 64, 1024, 2048] {
            assert_eq!(c.access(a), restored.access(a), "addr {a:#x}");
        }
        assert_eq!(c.accesses(), restored.accesses());
        assert_eq!(c.misses(), restored.misses());

        let mut wrong = Cache::new(CacheConfig::l1_default());
        assert!(wrong.restore(&state).is_err(), "geometry mismatch must fail");
    }

    #[test]
    fn icache_and_dcache_are_separate() {
        let mut h = MemoryHierarchy::new(
            CacheConfig::l1_default(),
            CacheConfig::l1_default(),
            CacheConfig::l2_default(),
            250,
        );
        let _ = h.fetch(0x100);
        assert_eq!(h.l1i().accesses(), 1);
        assert_eq!(h.l1d().accesses(), 0);
        let _ = h.data_access(0x100);
        assert_eq!(h.l1d().accesses(), 1);
    }
}
