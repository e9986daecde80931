//! Backend timing model: a timestamp-based out-of-order core (Table 1) and
//! the §6.5.2 ideal backend (8K window, single-cycle execution).
//!
//! The model is event-free: because allocation, and retirement are in
//! program order, each instruction's cycle at every stage is the `max` of
//! its structural constraints, all of which are known when the instruction
//! is processed. Memory dependencies are not enforced (ChampSim's oracle
//! memory dependency prediction, which the paper calls out in §6.5.2).

use crate::config::{BackendKind, PipelineConfig};
use btb_trace::{Op, TraceRecord, NO_REG, NUM_REGS};
use btb_uarch::MemoryHierarchy;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for the cycle-keyed [`FuPool`] map. The map is only
/// ever addressed by key (insert/lookup/retain-by-key), so the hash function
/// cannot affect simulation results — but it is on the per-instruction hot
/// path, where SipHash showed up as a measurable cost.
#[derive(Default)]
struct CycleHasher(u64);

impl Hasher for CycleHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("FuPool keys are u64");
    }

    fn write_u64(&mut self, n: u64) {
        // Fibonacci multiplicative hash; the xor-shift spreads entropy into
        // the top bits hashbrown uses for its control tags.
        let h = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 29);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-instruction backend timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendTimes {
    /// Cycle the instruction entered the ROB.
    pub alloc: u64,
    /// Cycle it issued to a functional unit.
    pub issue: u64,
    /// Cycle its result became available (branch resolution point).
    pub exec_done: u64,
    /// Cycle it retired.
    pub commit: u64,
}

/// A pool of `width` pipelined functional units: at most `width` operations
/// may start per cycle.
#[derive(Debug, Clone)]
struct FuPool {
    width: u32,
    counts: HashMap<u64, u32, BuildHasherDefault<CycleHasher>>,
    prune_below: u64,
    /// Every cycle in `[prune_below, full_below)` holds `width`
    /// reservations. Probing a full cycle is side-effect-free (the entry
    /// exists and is not modified), so a scan starting in that range may
    /// jump straight to `full_below` — observationally identical to probing
    /// each cycle, without the O(congestion-window) walk per reservation.
    full_below: u64,
}

impl FuPool {
    fn new(width: usize) -> Self {
        FuPool {
            width: width.max(1) as u32,
            counts: HashMap::default(),
            prune_below: 0,
            full_below: 0,
        }
    }

    /// Reserves the earliest cycle `>= min` with a free unit.
    fn reserve(&mut self, min: u64) -> u64 {
        let mut c = min;
        // The skip is only valid at or above `prune_below`: below it, the
        // original scan would find a pruned (hence fresh, free) entry.
        if c >= self.prune_below && c < self.full_below {
            c = self.full_below;
        }
        let start = c;
        loop {
            let e = self.counts.entry(c).or_insert(0);
            if *e < self.width {
                *e += 1;
                // Opportunistic pruning keeps the map small.
                if self.counts.len() > 4096 {
                    let cut = c.saturating_sub(1024).max(self.prune_below);
                    self.counts.retain(|&k, _| k >= cut);
                    self.prune_below = cut;
                    self.full_below = self.full_below.max(cut);
                }
                // Cycles [start, c) were all observed full; if the scan
                // began inside the known-full range the two ranges join.
                if start <= self.full_below {
                    self.full_below = self.full_below.max(c);
                }
                return c;
            }
            c += 1;
        }
    }
}

/// A ring of the last `capacity` values, indexed by a monotonically
/// increasing counter — models a finite in-order queue: the `i`-th entry
/// may enter only after the `(i - capacity)`-th left.
///
/// `head` is `count mod capacity`, kept by a compare-and-wrap so no admit
/// or push divides (Table 1's queue sizes are not all powers of two).
#[derive(Debug, Clone)]
pub struct QueueRing {
    slots: Vec<u64>,
    head: usize,
    /// Set once `capacity` entries have been pushed.
    full: bool,
}

impl QueueRing {
    /// Creates a ring modelling a queue of `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        QueueRing {
            slots: vec![0; capacity.max(1)],
            head: 0,
            full: false,
        }
    }

    /// The earliest cycle the next entry may enter the queue (the leave
    /// cycle of the entry `capacity` positions back).
    #[inline]
    #[must_use]
    pub fn admit_bound(&self) -> u64 {
        if self.full {
            self.slots[self.head]
        } else {
            0
        }
    }

    /// Records the leave cycle of the entry being admitted now.
    #[inline]
    pub fn push_leave(&mut self, leave_cycle: u64) {
        self.slots[self.head] = leave_cycle;
        self.head += 1;
        if self.head == self.slots.len() {
            self.head = 0;
            self.full = true;
        }
    }
}

/// The backend pipeline model.
#[derive(Debug, Clone)]
pub struct Backend {
    kind: BackendKind,
    width: usize,
    reg_ready: [u64; NUM_REGS],
    rob: QueueRing,
    iq: QueueRing,
    lq: QueueRing,
    sq: QueueRing,
    misc: FuPool,
    load_ports: FuPool,
    store_ports: FuPool,
    alloc_frontier: (u64, usize),
    commit_frontier: (u64, usize),
    last_alloc: u64,
    last_commit: u64,
    /// When set, allocation records intervals where the ROB was the
    /// binding constraint (observer use only; off on the plain path).
    observe_stalls: bool,
    /// Open stall interval, extended while consecutive instructions stall
    /// into overlapping windows, closed into `finished_stalls` otherwise.
    pending_stall: Option<(u64, u64)>,
    finished_stalls: Vec<(u64, u64)>,
}

impl Backend {
    /// Creates the backend described by the pipeline configuration.
    #[must_use]
    pub fn new(config: &PipelineConfig) -> Self {
        Backend {
            kind: config.backend,
            width: config.width,
            reg_ready: [0; NUM_REGS],
            rob: QueueRing::new(config.rob_entries),
            iq: QueueRing::new(config.iq_entries),
            lq: QueueRing::new(config.lq_entries),
            sq: QueueRing::new(config.sq_entries),
            misc: FuPool::new(config.misc_ports),
            load_ports: FuPool::new(config.load_ports),
            store_ports: FuPool::new(config.store_ports),
            alloc_frontier: (0, 0),
            commit_frontier: (0, 0),
            last_alloc: 0,
            last_commit: 0,
            observe_stalls: false,
            pending_stall: None,
            finished_stalls: Vec::new(),
        }
    }

    /// Enables ROB-stall interval recording (observed runs only).
    pub fn set_observe_stalls(&mut self, on: bool) {
        self.observe_stalls = on;
    }

    /// Returns the completed ROB-stall intervals recorded since the last
    /// drain; with `flush_pending` the still-open interval is closed and
    /// included (end-of-run use).
    pub fn drain_rob_stalls(&mut self, flush_pending: bool) -> Vec<(u64, u64)> {
        if flush_pending {
            if let Some(p) = self.pending_stall.take() {
                self.finished_stalls.push(p);
            }
        }
        std::mem::take(&mut self.finished_stalls)
    }

    /// Records that allocation waited on the ROB over `[start, end)`,
    /// merging intervals that touch or overlap (allocation bounds are
    /// non-decreasing, so out-of-order intervals cannot occur).
    fn note_rob_stall(&mut self, start: u64, end: u64) {
        match &mut self.pending_stall {
            Some((_, pe)) if start <= *pe => *pe = (*pe).max(end),
            pending => {
                if let Some(done) = pending.take() {
                    self.finished_stalls.push(done);
                }
                *pending = Some((start, end));
            }
        }
    }

    fn srcs_ready(&self, rec: &TraceRecord) -> u64 {
        rec.srcs
            .iter()
            .filter(|&&s| s != NO_REG)
            .map(|&s| self.reg_ready[s as usize])
            .max()
            .unwrap_or(0)
    }

    fn latency(op: Op) -> u64 {
        match op {
            Op::Alu | Op::Store | Op::Branch(_) => 1,
            Op::Mul => 3,
            Op::Fp => 4,
            Op::Div => 12,
            Op::Load => 1, // replaced by the memory hierarchy result
        }
    }

    /// In-order width-limited frontier: returns the cycle the next event may
    /// use, updating the `(cycle, count)` state.
    fn frontier(state: &mut (u64, usize), width: usize, lower: u64) -> u64 {
        if lower > state.0 {
            *state = (lower, 1);
            state.0
        } else {
            if state.1 >= width {
                state.0 += 1;
                state.1 = 0;
            }
            state.1 += 1;
            state.0
        }
    }

    /// Processes one instruction whose decode completed at `decoded`;
    /// returns its timing.
    pub fn process(
        &mut self,
        rec: &TraceRecord,
        decoded: u64,
        mem: &mut MemoryHierarchy,
    ) -> BackendTimes {
        match self.kind {
            BackendKind::Realistic => self.process_realistic(rec, decoded, mem),
            BackendKind::Ideal => self.process_ideal(rec, decoded),
        }
    }

    fn process_realistic(
        &mut self,
        rec: &TraceRecord,
        decoded: u64,
        mem: &mut MemoryHierarchy,
    ) -> BackendTimes {
        // Allocate: in order, width per cycle, ROB/IQ/LQ/SQ space. The
        // ROB bound is kept separate so the observer can attribute cycles
        // where it is the *binding* constraint.
        let mut other = (decoded + 1)
            .max(self.iq.admit_bound())
            .max(self.last_alloc);
        match rec.op {
            Op::Load => other = other.max(self.lq.admit_bound()),
            Op::Store => other = other.max(self.sq.admit_bound()),
            _ => {}
        }
        let rob_bound = self.rob.admit_bound();
        let lower = other.max(rob_bound);
        if self.observe_stalls && rob_bound > other {
            self.note_rob_stall(other, rob_bound);
        }
        let alloc = Self::frontier(&mut self.alloc_frontier, self.width, lower);
        self.last_alloc = alloc;

        // Issue: sources ready + a port.
        let ready = self.srcs_ready(rec).max(alloc + 1);
        let issue = match rec.op {
            Op::Load => self.load_ports.reserve(ready),
            Op::Store => self.store_ports.reserve(ready),
            _ => self.misc.reserve(ready),
        };

        // Execute.
        let exec_done = match rec.op {
            Op::Load => {
                let data_ready = mem.load(rec.pc, rec.mem_addr, issue);
                data_ready.max(issue + 1)
            }
            Op::Store => {
                mem.store(rec.pc, rec.mem_addr, issue);
                issue + 1
            }
            op => issue + Self::latency(op),
        };

        // Retire: in order, width per cycle.
        let commit_lower = (exec_done + 1).max(self.last_commit);
        let commit = Self::frontier(&mut self.commit_frontier, self.width, commit_lower);
        self.last_commit = commit;

        // Release queue slots.
        self.rob.push_leave(commit);
        self.iq.push_leave(issue);
        match rec.op {
            Op::Load => self.lq.push_leave(commit),
            Op::Store => self.sq.push_leave(commit),
            _ => {}
        }

        for &d in rec.dsts.iter().filter(|&&d| d != NO_REG) {
            self.reg_ready[d as usize] = exec_done;
        }
        BackendTimes {
            alloc,
            issue,
            exec_done,
            commit,
        }
    }

    fn process_ideal(&mut self, rec: &TraceRecord, decoded: u64) -> BackendTimes {
        // 8K window (the ROB ring), dependence-only issue, 1-cycle exec,
        // unbounded retirement width.
        let alloc = (decoded + 1)
            .max(self.rob.admit_bound())
            .max(self.last_alloc);
        self.last_alloc = alloc;
        let issue = self.srcs_ready(rec).max(alloc);
        let exec_done = issue + 1;
        let commit = exec_done.max(self.last_commit);
        self.last_commit = commit;
        self.rob.push_leave(commit);
        for &d in rec.dsts.iter().filter(|&&d| d != NO_REG) {
            self.reg_ready[d as usize] = exec_done;
        }
        BackendTimes {
            alloc,
            issue,
            exec_done,
            commit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btb_trace::TraceRecord;

    fn rec_alu(pc: u64, srcs: [u8; 3], dsts: [u8; 2]) -> TraceRecord {
        TraceRecord {
            srcs,
            dsts,
            ..TraceRecord::nop(pc)
        }
    }

    #[test]
    fn queue_ring_admits_freely_until_full() {
        let mut q = QueueRing::new(2);
        assert_eq!(q.admit_bound(), 0);
        q.push_leave(10);
        q.push_leave(20);
        assert_eq!(q.admit_bound(), 10);
        q.push_leave(30);
        assert_eq!(q.admit_bound(), 20);
    }

    /// The compare-and-wrap ring against a `VecDeque` holding the last
    /// `capacity` leave cycles, over more than three full wraps at
    /// Table 1's queue sizes and the degenerate ones.
    #[test]
    fn queue_ring_matches_vecdeque_model() {
        use std::collections::VecDeque;
        for cap in [1usize, 3, 64, 72, 352, 8192] {
            let mut ring = QueueRing::new(cap);
            let mut model: VecDeque<u64> = VecDeque::new();
            let mut x = 0x9e37_79b9_u64 ^ cap as u64;
            for i in 0..3 * cap + 7 {
                let want = if model.len() < cap { 0 } else { model[0] };
                assert_eq!(ring.admit_bound(), want, "cap {cap} push {i}");
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ring.push_leave(x);
                model.push_back(x);
                if model.len() > cap {
                    model.pop_front();
                }
            }
        }
    }

    #[test]
    fn dependent_chain_serializes() {
        let cfg = PipelineConfig::paper();
        let mut b = Backend::new(&cfg);
        let mut mem = MemoryHierarchy::paper();
        // r1 = ...; r2 = f(r1); r3 = f(r2): each must wait for the previous.
        let t1 = b.process(&rec_alu(0x0, [NO_REG; 3], [1, NO_REG]), 10, &mut mem);
        let t2 = b.process(
            &rec_alu(0x4, [1, NO_REG, NO_REG], [2, NO_REG]),
            10,
            &mut mem,
        );
        let t3 = b.process(
            &rec_alu(0x8, [2, NO_REG, NO_REG], [3, NO_REG]),
            10,
            &mut mem,
        );
        assert!(t2.issue >= t1.exec_done);
        assert!(t3.issue >= t2.exec_done);
        assert!(t3.commit >= t2.commit);
    }

    #[test]
    fn independent_ops_overlap() {
        let cfg = PipelineConfig::paper();
        let mut b = Backend::new(&cfg);
        let mut mem = MemoryHierarchy::paper();
        let t1 = b.process(&rec_alu(0x0, [NO_REG; 3], [1, NO_REG]), 10, &mut mem);
        let t2 = b.process(&rec_alu(0x4, [NO_REG; 3], [2, NO_REG]), 10, &mut mem);
        assert_eq!(t1.issue, t2.issue, "independent ops issue together");
    }

    #[test]
    fn fu_width_limits_issue() {
        let mut pool = FuPool::new(2);
        assert_eq!(pool.reserve(5), 5);
        assert_eq!(pool.reserve(5), 5);
        assert_eq!(pool.reserve(5), 6, "third op in the same cycle must wait");
    }

    #[test]
    fn commit_is_in_order() {
        let cfg = PipelineConfig::paper();
        let mut b = Backend::new(&cfg);
        let mut mem = MemoryHierarchy::paper();
        // A slow op followed by a fast one: the fast one cannot retire first.
        let slow = TraceRecord {
            op: Op::Div,
            dsts: [1, NO_REG],
            ..TraceRecord::nop(0x0)
        };
        let t1 = b.process(&slow, 10, &mut mem);
        let t2 = b.process(&rec_alu(0x4, [NO_REG; 3], [2, NO_REG]), 10, &mut mem);
        assert!(t2.commit >= t1.commit);
    }

    #[test]
    fn ideal_backend_is_dependence_limited_only() {
        let cfg = PipelineConfig::paper_ideal_backend();
        let mut b = Backend::new(&cfg);
        let mut mem = MemoryHierarchy::paper();
        // 100 independent instructions all execute immediately.
        let mut last = BackendTimes {
            alloc: 0,
            issue: 0,
            exec_done: 0,
            commit: 0,
        };
        for i in 0..100u64 {
            last = b.process(&rec_alu(i * 4, [NO_REG; 3], [NO_REG; 2]), 10, &mut mem);
        }
        assert_eq!(last.exec_done, 12, "no width limits in the ideal backend");
    }

    #[test]
    fn rob_full_stalls_allocation() {
        let mut cfg = PipelineConfig::paper();
        cfg.rob_entries = 4;
        let mut b = Backend::new(&cfg);
        let mut mem = MemoryHierarchy::paper();
        let slow = TraceRecord {
            op: Op::Div,
            dsts: [1, NO_REG],
            ..TraceRecord::nop(0x0)
        };
        let t0 = b.process(&slow, 0, &mut mem);
        let mut t = t0;
        for i in 1..6u64 {
            t = b.process(&rec_alu(i * 4, [NO_REG; 3], [NO_REG; 2]), 0, &mut mem);
        }
        // The 5th+ instruction needs a ROB slot freed by the slow op.
        assert!(t.alloc >= t0.commit, "{t:?} vs {t0:?}");
    }
}
