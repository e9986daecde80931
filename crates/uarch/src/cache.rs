//! Set-associative cache timing model with MSHR-limited outstanding misses.
//!
//! The model answers one question per access: *at which cycle is the data
//! usable?* Tags are tracked exactly (LRU replacement); bandwidth is modeled
//! through the MSHR limit, which bounds overlapping misses per cache
//! (Table 1: 16 MSHRs at the L1s, 32 at the L2, 64 at the LLC).

/// Configuration of one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Display name ("L1I", "L2", ...).
    pub name: &'static str,
    /// Number of sets (power of two).
    pub sets: usize,
    /// Ways per set.
    pub ways: usize,
    /// Latency from access to data-usable on a hit, in cycles.
    pub latency: u64,
    /// Maximum outstanding misses.
    pub mshrs: usize,
}

/// The result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycle at which the data is usable.
    pub ready: u64,
    /// Whether the access hit in this level.
    pub hit: bool,
}

#[derive(Debug, Clone, Copy)]
struct Mshr {
    line: u64,
    ready: u64,
}

/// One cache level: exact tags + MSHR timing.
///
/// Tags are stored structure-of-arrays (`keys` / `last_use` parallel
/// vectors) so the per-access way scan runs over one packed `u64` array —
/// the same layout `btb_core::SetAssoc` uses, and for the same reason: this
/// scan executes several times per simulated instruction (ITLB + L1I on the
/// fetch path, DTLB + L1D per load). Each way's key is `line + 1`, so 0
/// marks an empty way and a lookup compares keys alone.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `line + 1` of each way; 0 marks an empty way.
    keys: Vec<u64>,
    /// Recency tick per way for LRU; 0 exactly where the way is empty
    /// (real ticks start at 1).
    last_use: Vec<u64>,
    mshrs: Vec<Mshr>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache from its configuration.
    ///
    /// # Panics
    /// Panics if `sets` is not a power of two or any dimension is zero.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.sets.is_power_of_two() && config.sets > 0,
            "sets must be a power of two"
        );
        assert!(config.ways > 0, "ways must be non-zero");
        assert!(config.mshrs > 0, "mshr count must be non-zero");
        Cache {
            keys: vec![0; config.sets * config.ways],
            last_use: vec![0; config.sets * config.ways],
            mshrs: Vec::with_capacity(config.mshrs),
            tick: 0,
            hits: 0,
            misses: 0,
            config,
        }
    }

    /// The cache's configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Hits observed so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far (excluding MSHR merges).
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = (line as usize) & (self.config.sets - 1);
        set * self.config.ways..(set + 1) * self.config.ways
    }

    /// Index of the way holding `line`, if present (packed scan, no state
    /// change).
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        let range = self.set_range(line);
        let start = range.start;
        let key = line + 1;
        self.keys[range]
            .iter()
            .position(|&k| k == key)
            .map(|i| start + i)
    }

    /// Whether `line` is present (no state change).
    #[must_use]
    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    #[inline]
    fn touch_or_probe(&mut self, line: u64) -> bool {
        self.tick += 1;
        if let Some(idx) = self.find(line) {
            self.last_use[idx] = self.tick;
            true
        } else {
            false
        }
    }

    /// Installs `line`, evicting LRU if needed.
    pub fn fill(&mut self, line: u64) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(idx) = self.find(line) {
            self.last_use[idx] = tick;
            return;
        }
        // One pass picks the first free way, or failing that the LRU victim
        // (first-minimum, matching the historical stable `min_by_key`).
        let range = self.set_range(line);
        let mut victim = range.start;
        let mut victim_use = u64::MAX;
        for i in range {
            let used = self.last_use[i];
            if used == 0 {
                victim = i;
                break;
            }
            if used < victim_use {
                victim_use = used;
                victim = i;
            }
        }
        self.keys[victim] = line + 1;
        self.last_use[victim] = tick;
    }

    fn drain_mshrs(&mut self, cycle: u64) {
        self.mshrs.retain(|m| m.ready > cycle);
    }

    /// Accesses `line` at `cycle`. On a miss, `fill_from` is called with the
    /// cycle the miss request leaves this level and must return the cycle
    /// the line arrives from below; the line is then installed.
    pub fn access<F: FnOnce(u64) -> u64>(
        &mut self,
        line: u64,
        cycle: u64,
        fill_from: F,
    ) -> AccessResult {
        self.drain_mshrs(cycle);
        // Merge into an outstanding miss for the same line first: tags are
        // filled eagerly, so an in-flight line would otherwise look like a
        // hit and lose its fill latency.
        if let Some(m) = self.mshrs.iter().find(|m| m.line == line) {
            return AccessResult {
                ready: m.ready.max(cycle + self.config.latency),
                hit: false,
            };
        }
        if self.touch_or_probe(line) {
            self.hits += 1;
            return AccessResult {
                ready: cycle + self.config.latency,
                hit: true,
            };
        }
        self.misses += 1;
        // MSHR-full back-pressure: wait for the earliest completion.
        let start = if self.mshrs.len() >= self.config.mshrs {
            self.mshrs
                .iter()
                .map(|m| m.ready)
                .min()
                .expect("mshrs non-empty")
                .max(cycle)
        } else {
            cycle
        };
        self.drain_mshrs(start);
        let ready = fill_from(start + self.config.latency);
        self.fill(line);
        self.mshrs.push(Mshr { line, ready });
        AccessResult { ready, hit: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            name: "t",
            sets: 2,
            ways: 2,
            latency: 3,
            mshrs: 2,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let r = c.access(10, 100, |leave| leave + 20);
        assert!(!r.hit);
        assert_eq!(r.ready, 123); // 100 + 3 + 20
        let r2 = c.access(10, 130, |_| panic!("should hit"));
        assert!(r2.hit);
        assert_eq!(r2.ready, 133);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn outstanding_miss_merges() {
        let mut c = small();
        let r1 = c.access(10, 100, |leave| leave + 50); // ready 153
                                                        // A second access while the fill is in flight merges with the MSHR:
                                                        // it is not a hit and waits for the same fill.
        let r2 = c.access(10, 101, |_| panic!("must merge, not re-miss"));
        assert!(!r2.hit);
        assert_eq!(r2.ready, r1.ready);
        assert_eq!(c.misses(), 1, "merged access is not a second miss");
        // Once the fill lands, accesses hit.
        let r3 = c.access(10, r1.ready + 1, |_| panic!("hit expected"));
        assert!(r3.hit);
    }

    #[test]
    fn mshr_pressure_delays_misses() {
        let mut c = Cache::new(CacheConfig {
            name: "t",
            sets: 4,
            ways: 1,
            latency: 1,
            mshrs: 1,
        });
        let r1 = c.access(1, 100, |leave| leave + 100); // ready 201
        let r2 = c.access(2, 100, |leave| leave + 100);
        assert!(!r1.hit && !r2.hit);
        assert!(
            r2.ready >= 301,
            "second miss must wait for the single MSHR: {}",
            r2.ready
        );
    }

    #[test]
    fn lru_eviction_in_set() {
        let mut c = small();
        // Lines 0, 2 map to set 0 (2 sets); line 4 also set 0.
        c.access(0, 10, |l| l);
        c.access(2, 20, |l| l);
        c.access(0, 30, |_| panic!("hit")); // touch 0, 2 becomes LRU
        c.access(4, 40, |l| l); // evicts 2
        assert!(c.contains(0));
        assert!(!c.contains(2));
        assert!(c.contains(4));
    }

    #[test]
    fn fill_is_idempotent() {
        let mut c = small();
        c.fill(7);
        c.fill(7);
        assert!(c.contains(7));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig {
            name: "x",
            sets: 3,
            ways: 1,
            latency: 1,
            mshrs: 1,
        });
    }
}
