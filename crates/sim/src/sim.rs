//! The decoupled-fetch trace-driven simulator (§4.1 / Fig. 3).
//!
//! The simulator walks the retired-instruction trace. PC generation performs
//! one BTB access per cycle (plus taken-branch bubbles), producing a
//! [`FetchPlan`]; the plan's cache lines become FTQ entries that trigger
//! FDIP prefetches; Fetch consumes up to 16 instructions per cycle from up
//! to 8 lines mapping to distinct I-cache interleaves; Decode and the
//! backend follow. Where the plan and the trace disagree, the matching
//! Fig. 3 penalty is charged: misfetches resteer PC generation when the
//! branch decodes, mispredictions when it executes.

use crate::backend::{Backend, QueueRing};
use crate::config::{PipelineConfig, WarmupMode};
use crate::obs::{ObsConfig, ResteerClass, RunObservation, SimObserver};
use crate::predictors::Predictors;
#[cfg(feature = "probe")]
use crate::probe::{BundleEvent, ProbeLog};
use crate::stats::{SimReport, SimStats};
use btb_core::{BtbConfig, BtbLevel, BtbOrganization, FetchPlan, PlanSegment};
use btb_trace::{BranchKind, Trace, TraceRecord, INST_BYTES};
use btb_uarch::{MemoryHierarchy, LINE_BYTES};

/// Instructions between BTB content samples (§5 samples every 1M).
const INSPECT_PERIOD: u64 = 1_000_000;

/// Simulation setup errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The trace ran out before the measured region saw a single
    /// instruction: `warmup_insts` is at least the trace length, so every
    /// statistic would silently describe warm-up work. Formerly this case
    /// produced a whole-run report with warm-up included; it is now a hard
    /// error.
    WarmupExceedsTrace {
        /// Configured warm-up length.
        warmup_insts: u64,
        /// Records the trace actually provided.
        trace_insts: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::WarmupExceedsTrace {
                warmup_insts,
                trace_insts,
            } => write!(
                f,
                "warm-up of {warmup_insts} instructions consumed the whole \
                 {trace_insts}-instruction trace: nothing left to measure"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// One-record lookahead over a pull-based record stream.
///
/// The engine only ever needs the *current* record (to match it against the
/// fetch plan) plus the knowledge of whether the trace continues, so this
/// single-slot buffer is the entire adapter between an arbitrary iterator —
/// a borrowed slice, a live [`btb_trace::TraceExecutor`], a chunked
/// on-disk stream — and the bundle loop. No other buffering exists:
/// memory stays flat no matter how long the trace runs.
#[derive(Debug)]
struct Lookahead<I> {
    iter: I,
    next: Option<TraceRecord>,
    consumed: u64,
}

impl<I: Iterator<Item = TraceRecord>> Lookahead<I> {
    fn new(mut iter: I) -> Self {
        let next = iter.next();
        Lookahead {
            iter,
            next,
            consumed: 0,
        }
    }

    /// The record the engine is about to consume, if any.
    #[inline]
    fn peek(&self) -> Option<&TraceRecord> {
        self.next.as_ref()
    }

    /// Consumes the current record and pulls the next one.
    #[inline]
    fn advance(&mut self) -> Option<TraceRecord> {
        let cur = self.next.take();
        if cur.is_some() {
            self.consumed += 1;
            self.next = self.iter.next();
        }
        cur
    }

    /// Total records consumed so far.
    #[inline]
    fn consumed(&self) -> u64 {
        self.consumed
    }
}

/// Fixed-capacity ring of FTQ entry release cycles.
///
/// Back-pressure only ever consults the release cycle of the entry
/// `ftq_entries` positions earlier, so a ring of that capacity replaces the
/// unbounded `Vec<u64>` that previously grew one slot per FTQ entry for the
/// whole run. Indices are absolute entry numbers; the ring retains the last
/// `capacity` of them.
#[derive(Debug, Clone)]
struct ReleaseRing {
    slots: Vec<u64>,
    pushed: usize,
    /// Slot of the next push: `pushed mod capacity`, kept by a
    /// compare-and-wrap so no push or lookup divides.
    head: usize,
}

impl ReleaseRing {
    fn new(capacity: usize) -> Self {
        ReleaseRing {
            slots: vec![0; capacity.max(1)],
            pushed: 0,
            head: 0,
        }
    }

    /// Total entries ever pushed (the next entry's absolute index).
    #[inline]
    fn pushed(&self) -> usize {
        self.pushed
    }

    #[inline]
    fn push(&mut self, release: u64) {
        self.slots[self.head] = release;
        self.pushed += 1;
        self.head += 1;
        if self.head == self.slots.len() {
            self.head = 0;
        }
    }

    /// Release cycle of absolute entry `idx`; must be within the retained
    /// window (the FTQ capacity guarantees it on every call site).
    #[inline]
    fn get(&self, idx: usize) -> u64 {
        debug_assert!(
            idx < self.pushed && idx + self.slots.len() >= self.pushed,
            "release index {idx} outside retained window"
        );
        // `idx` lies 1..=capacity entries behind the head.
        let back = self.pushed - idx;
        let slot = if back <= self.head {
            self.head - back
        } else {
            self.head + self.slots.len() - back
        };
        self.slots[slot]
    }

    /// Entries still occupied at `cycle` (release cycle in the future)
    /// among the retained window — the FTQ occupancy sample the observer
    /// reports. O(capacity) scan; only called on observer sample cadence.
    fn occupancy_at(&self, cycle: u64) -> usize {
        let live = self.pushed.min(self.slots.len());
        self.slots[..live].iter().filter(|&&r| r > cycle).count()
    }
}

/// In-order width-limited fetch frontier with line/interleave constraints.
#[derive(Debug, Clone)]
struct FetchFrontier {
    cycle: u64,
    insts: usize,
    lines: Vec<u64>,
    max_insts: usize,
    max_lines: usize,
    interleave_mask: u64,
}

impl FetchFrontier {
    fn new(config: &PipelineConfig) -> Self {
        FetchFrontier {
            cycle: 0,
            insts: 0,
            lines: Vec::with_capacity(config.fetch_lines_per_cycle),
            max_insts: config.width,
            max_lines: config.fetch_lines_per_cycle,
            interleave_mask: config.icache_interleaves as u64 - 1,
        }
    }

    /// Admits one instruction on `line` at the earliest cycle `>= lower`.
    fn admit(&mut self, lower: u64, line: u64) -> u64 {
        if lower > self.cycle {
            self.cycle = lower;
            self.insts = 0;
            self.lines.clear();
        }
        loop {
            if self.insts < self.max_insts {
                if self.lines.contains(&line) {
                    self.insts += 1;
                    return self.cycle;
                }
                let conflict = self
                    .lines
                    .iter()
                    .any(|l| (l & self.interleave_mask) == (line & self.interleave_mask));
                if self.lines.len() < self.max_lines && !conflict {
                    self.lines.push(line);
                    self.insts += 1;
                    return self.cycle;
                }
            }
            self.cycle += 1;
            self.insts = 0;
            self.lines.clear();
        }
    }
}

/// The simulator: one BTB organization driven over one record stream.
///
/// Generic over the record source: a borrowed slice ([`Simulator::new`]),
/// any pull-based iterator ([`Simulator::from_stream`]) or the tail of a
/// trace after a warm-up checkpoint ([`Simulator::resume`]). The engine
/// holds a one-record lookahead and nothing else, so running from a live
/// generator or an on-disk stream is byte-identical to running from a
/// materialized slice while using O(1) memory.
pub struct Simulator<I: Iterator<Item = TraceRecord>> {
    stream: Lookahead<I>,
    config: PipelineConfig,
    btb: Box<dyn BtbOrganization>,
    predictors: Predictors,
    mem: MemoryHierarchy,
    backend: Backend,
    stats: SimStats,
    /// Statistics snapshot at the warm-up boundary; `None` until the
    /// boundary is reached.
    warm: Option<SimStats>,
    /// Committed-instruction count at which the warm snapshot fires
    /// (`u64::MAX` once taken or when none is due). The boundary is exact:
    /// the snapshot is taken immediately after the `warmup_insts`-th
    /// instruction commits, mid-bundle if need be, so the measured region
    /// never drifts with bundle width.
    warm_due: u64,
    // Frontend state.
    pcgen: u64,
    ftq_release: ReleaseRing,
    /// Scratch for the current bundle's planned cache lines, reused across
    /// bundles so the steady-state frontend allocates nothing.
    lines: Vec<u64>,
    dq: QueueRing,
    aq: QueueRing,
    fetch: FetchFrontier,
    decode_frontier: (u64, usize),
    last_fetch: u64,
    last_decode: u64,
    // Periodic BTB content sampling.
    next_inspect: u64,
    samples: u64,
    occ_l1: f64,
    red_l1: f64,
    occ_l2: f64,
    red_l2: f64,
    #[cfg(feature = "probe")]
    events: Vec<BundleEvent>,
    /// Events are only recorded when requested via `run_with_events`, so a
    /// plain `run` stays allocation-free even with the feature unified on.
    #[cfg(feature = "probe")]
    collect_events: bool,
    /// Metrics/trace observer, installed only by `run_observed`: the plain
    /// path pays one discriminant test per bundle and nothing else.
    obs: Option<Box<SimObserver>>,
    /// Wall-clock phase span (warm-up → measured region), inert unless
    /// wall tracing is on. Transitions happen once per run (at
    /// `run_core` entry, the warm-up boundary, and run end), so the
    /// per-bundle path never touches the wall clock. Collection-only:
    /// the report is unaffected.
    wall_phase: btb_obs::span::SpanGuard,
}

/// Functionally-warmed simulator state, detached from any trace position.
///
/// Captured by fast-forwarding the warm-up region of a trace
/// ([`WarmupCheckpoint::capture`]): the BTB and all predictors are trained
/// through exactly the `update`/`retire` calls a fast-forward run performs,
/// with no cycle accounting. A checkpoint is cheap to clone (plain data
/// behind `clone_box`), so a config sweep captures warm-up once per
/// (workload, BTB organization) and resumes cycle-accurate simulation per
/// cell via [`Simulator::resume`] — bit-identical to running the
/// fast-forward warm-up straight through.
#[derive(Clone)]
pub struct WarmupCheckpoint {
    /// The warmed BTB organization (full tables and recency state).
    pub btb: Box<dyn BtbOrganization>,
    /// The warmed prediction structures (perceptron, histories, indirect
    /// predictor, return address stack).
    pub predictors: Predictors,
    /// Instructions fast-forwarded into this checkpoint.
    pub insts: u64,
}

impl std::fmt::Debug for WarmupCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmupCheckpoint")
            .field("btb", &self.btb.name())
            .field("insts", &self.insts)
            .finish_non_exhaustive()
    }
}

impl WarmupCheckpoint {
    /// Fast-forwards `insts` records off the front of `records`, training
    /// the BTB built from `btb` and the predictors configured by `config`
    /// functionally (no fetch planning, no cycle accounting).
    ///
    /// On success the iterator is left positioned exactly at the warm-up
    /// boundary, ready to feed [`Simulator::resume`].
    ///
    /// # Errors
    /// [`SimError::WarmupExceedsTrace`] if the stream ends early.
    pub fn capture<I: Iterator<Item = TraceRecord>>(
        records: &mut I,
        insts: u64,
        btb: BtbConfig,
        config: &PipelineConfig,
    ) -> Result<Self, SimError> {
        let mut btb = btb_core::build_btb(btb);
        let mut predictors = Predictors::new(config);
        for done in 0..insts {
            let Some(rec) = records.next() else {
                return Err(SimError::WarmupExceedsTrace {
                    warmup_insts: insts,
                    trace_insts: done,
                });
            };
            // Non-branch records train nothing (both callees early-return
            // before touching any state), so skip the dispatch entirely —
            // this loop is the fast-forward tier's whole cost.
            if rec.op.is_branch() {
                predictors.retire(&rec);
                btb.update(&rec);
            }
        }
        Ok(WarmupCheckpoint {
            btb,
            predictors,
            insts,
        })
    }
}

/// Iterator over a borrowed record slice — what [`Simulator::new`] and the
/// [`simulate`] convenience entry points run on.
pub type SliceRecords<'t> = std::iter::Copied<std::slice::Iter<'t, TraceRecord>>;

impl<'t> Simulator<SliceRecords<'t>> {
    /// Creates a simulator over `records` with the given BTB and pipeline.
    #[must_use]
    pub fn new(records: &'t [TraceRecord], btb: BtbConfig, config: PipelineConfig) -> Self {
        Simulator::from_stream(records.iter().copied(), btb, config)
    }
}

impl<I: Iterator<Item = TraceRecord>> Simulator<I> {
    /// Creates a simulator pulling records from an arbitrary stream (a live
    /// [`btb_trace::TraceExecutor`], a chunked on-disk reader, …).
    #[must_use]
    pub fn from_stream(records: I, btb: BtbConfig, config: PipelineConfig) -> Self {
        Simulator::with_state(
            records,
            btb_core::build_btb(btb),
            Predictors::new(&config),
            config,
        )
    }

    /// Creates a simulator that resumes cycle-accurate execution from a
    /// warm-up checkpoint: `records` must be positioned exactly at the
    /// checkpoint's boundary (the first non-warm-up record). The measured
    /// region starts immediately; the run is bit-identical to a
    /// [`WarmupMode::FastForward`] run over the whole trace.
    #[must_use]
    pub fn resume(checkpoint: &WarmupCheckpoint, records: I, config: PipelineConfig) -> Self {
        let mut sim = Simulator::with_state(
            records,
            checkpoint.btb.clone(),
            checkpoint.predictors.clone(),
            config,
        );
        sim.warm = Some(SimStats::default());
        sim.warm_due = u64::MAX;
        sim
    }

    fn with_state(
        records: I,
        btb: Box<dyn BtbOrganization>,
        predictors: Predictors,
        config: PipelineConfig,
    ) -> Self {
        Simulator {
            stream: Lookahead::new(records),
            predictors,
            mem: MemoryHierarchy::paper(),
            backend: Backend::new(&config),
            stats: SimStats::default(),
            warm: None,
            warm_due: if config.warmup_insts == 0 {
                u64::MAX
            } else {
                config.warmup_insts
            },
            pcgen: 0,
            ftq_release: ReleaseRing::new(config.ftq_entries),
            lines: Vec::new(),
            dq: QueueRing::new(config.decode_queue),
            aq: QueueRing::new(config.alloc_queue),
            fetch: FetchFrontier::new(&config),
            decode_frontier: (0, 0),
            last_fetch: 0,
            last_decode: 0,
            next_inspect: INSPECT_PERIOD,
            samples: 0,
            occ_l1: 0.0,
            red_l1: 0.0,
            occ_l2: 0.0,
            red_l2: 0.0,
            #[cfg(feature = "probe")]
            events: Vec::new(),
            #[cfg(feature = "probe")]
            collect_events: false,
            obs: None,
            wall_phase: btb_obs::span::SpanGuard::inert(),
            btb,
            config,
        }
    }

    /// Runs the whole trace and returns the post-warm-up report.
    ///
    /// # Panics
    /// Panics if the warm-up region swallows the whole trace (see
    /// [`Simulator::try_run`] for the fallible form).
    #[must_use]
    pub fn run(self) -> SimReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the whole trace and returns the post-warm-up report, or a
    /// [`SimError`] if the measured region is empty.
    ///
    /// # Errors
    /// [`SimError::WarmupExceedsTrace`] when `warmup_insts` is at least the
    /// trace length.
    pub fn try_run(mut self) -> Result<SimReport, SimError> {
        self.run_core()
    }

    /// Runs the whole trace and returns the report together with the
    /// per-bundle event stream and raw cumulative counters (feature
    /// `probe`). The events are collection-only: the report is identical to
    /// what [`Simulator::run`] produces.
    #[cfg(feature = "probe")]
    #[must_use]
    pub fn run_with_events(mut self) -> (SimReport, ProbeLog) {
        self.collect_events = true;
        let report = self.run_core().unwrap_or_else(|e| panic!("{e}"));
        let log = ProbeLog {
            bundles: std::mem::take(&mut self.events),
            raw: self.stats,
        };
        (report, log)
    }

    /// Runs the whole trace with metrics and (optionally) cycle-domain
    /// tracing enabled. Observation is collection-only: the report is
    /// identical to what [`Simulator::run`] produces. See
    /// [`crate::obs`] for the metric catalogue and time-domain contract.
    #[must_use]
    pub fn run_observed(mut self, cfg: &ObsConfig) -> (SimReport, RunObservation) {
        self.obs = Some(Box::new(SimObserver::new(cfg)));
        self.backend.set_observe_stalls(true);
        let report = self.run_core().unwrap_or_else(|e| panic!("{e}"));
        let mut obs = self.obs.take().expect("observer installed above");
        for (s, e) in self.backend.drain_rob_stalls(true) {
            obs.rob_stall(s, e);
        }
        let observation = obs.finish(&report);
        (report, observation)
    }

    fn run_core(&mut self) -> Result<SimReport, SimError> {
        if self.config.warmup_insts == 0 {
            // No warm-up: the measured region is the whole run.
            self.warm = Some(SimStats::default());
            self.wall_phase = btb_obs::span::enter("sim.measured");
        } else if self.config.warmup_mode == WarmupMode::FastForward && self.warm.is_none() {
            {
                let _ff = btb_obs::span::enter("sim.warmup.ff");
                self.fast_forward_warmup()?;
            }
            self.wall_phase = btb_obs::span::enter("sim.measured");
        } else if self.warm.is_none() {
            // Cycle warm-up pending: `end_warmup` flips the phase span
            // to the measured region at the exact boundary.
            self.wall_phase = btb_obs::span::enter("sim.warmup");
        } else {
            // Resumed from a checkpoint: measured region starts now.
            self.wall_phase = btb_obs::span::enter("sim.measured");
        }
        while self.stream.peek().is_some() {
            self.bundle();
            if self.stats.instructions >= self.next_inspect {
                self.next_inspect += INSPECT_PERIOD;
                self.sample_btb();
            }
        }
        self.wall_phase.finish();
        if self.samples == 0 {
            self.sample_btb();
        }
        // The measured region must contain at least one instruction —
        // either the warm snapshot never fired (cycle warm-up longer than
        // the trace) or it fired on the very last record. Reporting the
        // whole-run statistics here would silently include warm-up.
        let warm = match self.warm {
            Some(w)
                if self.config.warmup_insts == 0 || self.stats.instructions > w.instructions =>
            {
                w
            }
            _ => {
                return Err(SimError::WarmupExceedsTrace {
                    warmup_insts: self.config.warmup_insts,
                    trace_insts: self.stream.consumed(),
                })
            }
        };
        let n = self.samples.max(1) as f64;
        Ok(SimReport {
            config_name: self.btb.name().to_owned(),
            workload: "".into(),
            stats: self.stats.delta(&warm),
            l1_occupancy: self.occ_l1 / n,
            l1_redundancy: self.red_l1 / n,
            l2_occupancy: self.occ_l2 / n,
            l2_redundancy: self.red_l2 / n,
            l1i_hit_rate: self.mem.l1i_hit_rate(),
        })
    }

    /// Fast-forwards the warm-up region: functional-only BTB and predictor
    /// training, no fetch planning, queue modelling or cycle accounting.
    /// Exactly the operation sequence of [`WarmupCheckpoint::capture`], so
    /// a straight-through fast-forward run and a checkpoint-resumed run are
    /// bit-identical.
    fn fast_forward_warmup(&mut self) -> Result<(), SimError> {
        let n = self.config.warmup_insts;
        let mut done = 0u64;
        while done < n {
            let Some(rec) = self.stream.advance() else {
                return Err(SimError::WarmupExceedsTrace {
                    warmup_insts: n,
                    trace_insts: done,
                });
            };
            if rec.op.is_branch() {
                self.predictors.retire(&rec);
                self.btb.update(&rec);
            }
            done += 1;
        }
        // No cycles elapsed and no statistics accumulated during
        // fast-forward: the warm snapshot is the zero state.
        self.warm = Some(self.stats);
        self.warm_due = u64::MAX;
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.warmup_end(0);
        }
        Ok(())
    }

    /// Consumes the current record and, exactly at the committed-instruction
    /// warm-up boundary, takes the warm statistics snapshot. Called after
    /// every per-record statistic (including branch/resteer attribution) is
    /// final, so the `warmup_insts`-th instruction lands entirely on the
    /// warm-up side regardless of where bundles begin or end.
    #[inline]
    fn consume_record(&mut self) {
        self.stream.advance();
        if self.stats.instructions == self.warm_due {
            self.end_warmup();
        }
    }

    #[cold]
    #[inline(never)]
    fn end_warmup(&mut self) {
        self.warm_due = u64::MAX;
        self.warm = Some(self.stats);
        // Finish the warm-up wall span before opening the measured one,
        // so the two are siblings (finish restores the thread's parent).
        self.wall_phase.finish();
        self.wall_phase = btb_obs::span::enter("sim.measured");
        let boundary = self.stats.last_commit_cycle;
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.warmup_end(boundary);
        }
    }

    fn sample_btb(&mut self) {
        let ins = self.btb.inspect();
        self.samples += 1;
        self.occ_l1 += ins.l1.occupancy();
        self.red_l1 += ins.l1.redundancy();
        self.occ_l2 += ins.l2.occupancy();
        self.red_l2 += ins.l2.redundancy();
    }

    /// Lines covered by the plan's segments, in fetch order (deduplicating
    /// only consecutive repeats: re-visiting a line later is a new entry).
    /// Writes into `out`, the caller's reusable scratch buffer.
    fn plan_lines(plan: &FetchPlan, out: &mut Vec<u64>) {
        out.clear();
        for seg in &plan.segments {
            let mut a = seg.start / LINE_BYTES;
            let last = if seg.end > seg.start {
                (seg.end - INST_BYTES) / LINE_BYTES
            } else {
                a
            };
            while a <= last {
                if out.last() != Some(&a) {
                    out.push(a);
                }
                a += 1;
            }
        }
    }

    /// Processes one PC-generation bundle starting at the stream's current
    /// record; the caller guarantees the stream is non-empty.
    #[allow(clippy::too_many_lines)]
    fn bundle(&mut self) {
        let bundle_start = self.stream.consumed();
        let pc = self.stream.peek().expect("caller checked non-empty").pc;
        self.predictors.begin_plan();
        let plan = self.btb.plan(pc, &mut self.predictors);
        debug_assert_eq!(plan.validate(), Ok(()), "plan for {pc:#x}");
        let mut lines = std::mem::take(&mut self.lines);
        Self::plan_lines(&plan, &mut lines);

        // FTQ back-pressure: each new entry needs a slot vacated by the
        // entry `capacity` positions earlier.
        let mut predict = self.pcgen;
        let cap = self.config.ftq_entries;
        let base_entry = self.ftq_release.pushed();
        for j in 0..lines.len() {
            let k = base_entry + j;
            if k >= cap {
                predict = predict.max(self.ftq_release.get(k - cap));
            }
        }
        self.stats.btb_accesses += 1;
        let mut next_pcgen = predict + 1 + u64::from(plan.bubbles);

        // FDIP: FTQ creation launches I-cache prefetches for all planned
        // lines.
        for &line in &lines {
            self.mem.prefetch_inst(line * LINE_BYTES, predict + 1);
        }

        // Consume trace records against the plan.
        let mut seg = 0usize;
        let mut expect = plan.segments[0].start;
        // Planned branches are consumed strictly in fetch order: a chained
        // plan may revisit the same pc (loop-unrolled MB-BTB chains), so
        // position — not pc — identifies the planned branch.
        let mut br_ptr = 0usize;
        let mut cur_line = u64::MAX;
        let mut cur_line_ready = 0u64;
        let mut entry_release = predict + 1;
        let mut entries_pushed = 0usize;
        // Penalty class of this bundle's resteer, for the observer. Plain
        // stores alongside the existing `resteer` assignments; the
        // disabled path never reads it.
        let mut resteer_obs: Option<(ResteerClass, u64)> = None;
        let bytes_ready_offset = self.config.decode_stage - 1; // I$ data at BP+5

        while let Some(&rec) = self.stream.peek() {
            // Segment bookkeeping for sequential flow.
            while expect >= seg_end(&plan.segments, seg) {
                seg += 1;
                if seg >= plan.segments.len() {
                    break;
                }
                expect = plan.segments[seg].start;
            }
            if seg >= plan.segments.len() {
                break;
            }
            if rec.pc != expect {
                debug_assert!(false, "trace/plan desync at {:#x} vs {expect:#x}", rec.pc);
                break;
            }

            // FTQ entry (cache line) boundary.
            let line = rec.pc / LINE_BYTES;
            if line != cur_line {
                if cur_line != u64::MAX {
                    self.ftq_release.push(entry_release);
                    entries_pushed += 1;
                }
                cur_line = line;
                let acc = self.mem.fetch_inst(rec.pc, predict + 2);
                cur_line_ready = acc.ready;
                // IBM z-style preloading: an L1I miss on a line whose plan
                // needed the L2 BTB (or had no branch info) bulk-promotes
                // the region's branch metadata into the L1 BTB.
                if self.config.btb_preload && !acc.l1i_hit {
                    self.btb.preload(rec.pc);
                }
            }

            // Fetch.
            let lower = (predict + bytes_ready_offset)
                .max(cur_line_ready)
                .max(self.dq.admit_bound())
                .max(self.last_fetch);
            let fetch_cycle = self.fetch.admit(lower, line);
            self.last_fetch = fetch_cycle;
            entry_release = fetch_cycle;

            // Decode.
            let dec_lower = (fetch_cycle + 1)
                .max(self.aq.admit_bound())
                .max(self.last_decode);
            let decode_cycle = frontier(&mut self.decode_frontier, self.config.width, dec_lower);
            self.last_decode = decode_cycle;
            self.dq.push_leave(decode_cycle);

            // Backend.
            let times = self.backend.process(&rec, decode_cycle, &mut self.mem);
            self.aq.push_leave(times.alloc);

            self.stats.instructions += 1;
            self.stats.fetch_pcs += 1;
            self.stats.last_commit_cycle = self.stats.last_commit_cycle.max(times.commit);

            // Train predictors and the BTB with the actual outcome
            // (immediate update, §4.1).
            self.predictors.retire(&rec);
            self.btb.update(&rec);

            // Control-flow resolution.
            let mut resteer: Option<u64> = None;
            if let Some(kind) = rec.branch_kind() {
                self.stats.branches += 1;
                if kind == BranchKind::CondDirect {
                    self.stats.cond_branches += 1;
                }
                if rec.taken {
                    self.stats.taken_branches += 1;
                }
                let planned = match plan.branches.get(br_ptr) {
                    Some(pb) if pb.pc == rec.pc => {
                        br_ptr += 1;
                        Some(*pb)
                    }
                    _ => None,
                };
                match planned {
                    Some(pb) if pb.taken => {
                        self.count_hit_level(pb.level, rec.taken);
                        if rec.taken && rec.target == pb.target {
                            // Correct taken prediction: follow the plan into
                            // the next segment (or end the bundle).
                            seg += 1;
                            self.consume_record();
                            if seg >= plan.segments.len() {
                                break;
                            }
                            expect = plan.segments[seg].start;
                            if expect != rec.target {
                                debug_assert_eq!(expect, rec.target);
                                break;
                            }
                            continue;
                        }
                        if rec.taken {
                            // Wrong predicted target (indirect kinds).
                            self.stats.indirect_mispredicts += 1;
                            resteer_obs = Some((ResteerClass::IndirectMispredict, times.exec_done));
                        } else {
                            // Predicted taken, went not-taken.
                            self.stats.cond_mispredicts += 1;
                            resteer_obs = Some((ResteerClass::CondMispredict, times.exec_done));
                        }
                        resteer = Some(times.exec_done);
                    }
                    Some(pb) => {
                        // Tracked, predicted not-taken (conditionals only).
                        let _ = pb;
                        if rec.taken {
                            self.count_hit_level(pb.level, true);
                            self.stats.cond_mispredicts += 1;
                            resteer_obs = Some((ResteerClass::CondMispredict, times.exec_done));
                            resteer = Some(times.exec_done);
                        }
                    }
                    None => {
                        if rec.taken {
                            // BTB miss (Fig. 3): direct unconditionals and
                            // returns repair at decode; conditionals and
                            // other indirects at execute.
                            match kind {
                                BranchKind::UncondDirect
                                | BranchKind::DirectCall
                                | BranchKind::Return => {
                                    self.stats.misfetches += 1;
                                    resteer_obs = Some((ResteerClass::Misfetch, decode_cycle));
                                    resteer = Some(decode_cycle);
                                }
                                BranchKind::CondDirect
                                | BranchKind::IndirectJump
                                | BranchKind::IndirectCall => {
                                    self.stats.untracked_exec_resteers += 1;
                                    resteer_obs =
                                        Some((ResteerClass::BtbMissExec, times.exec_done));
                                    resteer = Some(times.exec_done);
                                }
                            }
                        }
                    }
                }
            }
            if let Some(r) = resteer {
                next_pcgen = r + 1;
                self.consume_record();
                break;
            }
            self.consume_record();
            expect = rec.pc + INST_BYTES;
        }

        // Close the last live FTQ entry, then release over-fetched
        // (squashed) planned entries at the resteer point.
        if cur_line != u64::MAX {
            self.ftq_release.push(entry_release);
            entries_pushed += 1;
        }
        for _ in entries_pushed..lines.len() {
            self.ftq_release.push(next_pcgen);
        }
        self.pcgen = next_pcgen.max(predict + 1);
        let records_consumed = self.stream.consumed() - bundle_start;
        if self.obs.is_some() {
            self.observe_bundle(predict, records_consumed, base_entry, resteer_obs);
        }
        #[cfg(feature = "probe")]
        if self.collect_events {
            self.record_probe_event(pc, &plan, records_consumed as usize);
        }
        self.lines = lines;
    }

    /// Observer notification for one completed bundle. Outlined so the
    /// common (unobserved) path in `bundle` is a single branch.
    #[cold]
    #[inline(never)]
    fn observe_bundle(
        &mut self,
        predict: u64,
        records_consumed: u64,
        base_entry: usize,
        resteer: Option<(ResteerClass, u64)>,
    ) {
        let ftq_pushed = (self.ftq_release.pushed() - base_entry) as u64;
        let (l1, l2) = (self.stats.taken_l1_hits, self.stats.taken_l2_hits);
        let ring = &self.ftq_release;
        let obs = self.obs.as_deref_mut().expect("caller checked");
        obs.bundle_done(
            predict,
            records_consumed,
            ftq_pushed,
            resteer,
            l1,
            l2,
            || ring.occupancy_at(predict) as u64,
        );
        for (s, e) in self.backend.drain_rob_stalls(false) {
            obs.rob_stall(s, e);
        }
    }

    /// Constructs and pushes one probe event. `#[cold]`/outlined so that
    /// with `collect_events = false` the hot loop carries only the flag
    /// test — no event construction, no `used_l2` scan, no allocation
    /// (pinned by `tests/zero_alloc.rs`).
    #[cfg(feature = "probe")]
    #[cold]
    #[inline(never)]
    fn record_probe_event(&mut self, access_pc: u64, plan: &FetchPlan, records_consumed: usize) {
        self.events.push(BundleEvent {
            access_pc,
            bubbles: plan.bubbles,
            planned_branches: plan.branches.len(),
            records_consumed,
            used_l2: plan.branches.iter().any(|b| b.level == BtbLevel::L2),
        });
    }

    fn count_hit_level(&mut self, level: BtbLevel, taken: bool) {
        if !taken {
            return;
        }
        match level {
            BtbLevel::L1 => self.stats.taken_l1_hits += 1,
            BtbLevel::L2 => self.stats.taken_l2_hits += 1,
        }
    }
}

fn seg_end(segments: &[PlanSegment], seg: usize) -> u64 {
    segments.get(seg).map_or(u64::MAX, |s| s.end)
}

/// In-order width-limited frontier helper.
fn frontier(state: &mut (u64, usize), width: usize, lower: u64) -> u64 {
    if lower > state.0 {
        *state = (lower, 1);
    } else {
        if state.1 >= width {
            state.0 += 1;
            state.1 = 0;
        }
        state.1 += 1;
    }
    state.0
}

/// Convenience entry point: simulates `trace` with the given BTB and
/// pipeline configurations.
///
/// # Panics
/// Panics if warm-up swallows the whole trace (see [`try_simulate`]).
#[must_use]
pub fn simulate(trace: &Trace, btb: BtbConfig, pipeline: PipelineConfig) -> SimReport {
    try_simulate(trace, btb, pipeline).unwrap_or_else(|e| panic!("{}: {e}", trace.name))
}

/// Fallible form of [`simulate`].
///
/// # Errors
/// [`SimError::WarmupExceedsTrace`] when `pipeline.warmup_insts` is at
/// least the trace length.
pub fn try_simulate(
    trace: &Trace,
    btb: BtbConfig,
    pipeline: PipelineConfig,
) -> Result<SimReport, SimError> {
    let mut report = Simulator::new(&trace.records, btb, pipeline).try_run()?;
    report.workload = trace.name.clone();
    Ok(report)
}

/// Simulates a pull-based record stream without materializing it: memory
/// stays flat regardless of trace length, and the report is byte-identical
/// to [`simulate`] over the same records.
///
/// # Panics
/// Panics if warm-up swallows the whole stream (see [`try_simulate_stream`]).
#[must_use]
pub fn simulate_stream(
    workload: &str,
    records: impl Iterator<Item = TraceRecord>,
    btb: BtbConfig,
    pipeline: PipelineConfig,
) -> SimReport {
    try_simulate_stream(workload, records, btb, pipeline)
        .unwrap_or_else(|e| panic!("{workload}: {e}"))
}

/// Fallible form of [`simulate_stream`].
///
/// # Errors
/// [`SimError::WarmupExceedsTrace`] when `pipeline.warmup_insts` is at
/// least the stream length.
pub fn try_simulate_stream(
    workload: &str,
    records: impl Iterator<Item = TraceRecord>,
    btb: BtbConfig,
    pipeline: PipelineConfig,
) -> Result<SimReport, SimError> {
    let mut report = Simulator::from_stream(records, btb, pipeline).try_run()?;
    report.workload = workload.into();
    Ok(report)
}

/// Observed variant of [`simulate`]: same report, plus the metrics
/// snapshot and (when `cfg.trace`) the cycle-domain trace.
#[must_use]
pub fn simulate_observed(
    trace: &Trace,
    btb: BtbConfig,
    pipeline: PipelineConfig,
    cfg: &ObsConfig,
) -> (SimReport, RunObservation) {
    let (mut report, obs) = Simulator::new(&trace.records, btb, pipeline).run_observed(cfg);
    report.workload = trace.name.clone();
    (report, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use btb_core::OrgKind;
    use btb_trace::WorkloadProfile;

    /// The compare-and-wrap FTQ ring against a `VecDeque` of the last
    /// `capacity` release cycles, over more than three full wraps: the
    /// newest, oldest and one pseudo-random retained entry after each push,
    /// and the occupancy scan at a few points per wrap.
    #[test]
    fn release_ring_matches_vecdeque_model() {
        use std::collections::VecDeque;
        for cap in [1usize, 3, 64, 72, 352, 8192] {
            let mut ring = ReleaseRing::new(cap);
            let mut model: VecDeque<u64> = VecDeque::new();
            let mut x = 0x2545_f491_u64 ^ cap as u64;
            for i in 0..3 * cap + 7 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let release = x % 1000;
                ring.push(release);
                model.push_back(release);
                if model.len() > cap {
                    model.pop_front();
                }
                let pushed = i + 1;
                assert_eq!(ring.pushed(), pushed);
                let oldest = pushed - model.len();
                let mid = oldest + (x as usize >> 20) % model.len();
                for idx in [pushed - 1, oldest, mid] {
                    assert_eq!(ring.get(idx), model[idx - oldest], "cap {cap} idx {idx}");
                }
                if i % (cap / 4 + 1) == 0 {
                    let occupied = model.iter().filter(|&&r| r > 500).count();
                    assert_eq!(ring.occupancy_at(500), occupied, "cap {cap} push {i}");
                }
            }
        }
    }

    fn ideal_ibtb16() -> BtbConfig {
        BtbConfig::ideal(
            "I-BTB 16",
            OrgKind::Instruction {
                width: 16,
                skip_taken: false,
            },
        )
    }

    /// A loop of `body` independent ALU instructions plus a backward jump,
    /// iterated `iters` times: warm, predictable, high-ILP code.
    fn warm_loop_trace(body: u64, iters: usize) -> Trace {
        let mut records = Vec::new();
        for _ in 0..iters {
            for i in 0..body {
                records.push(TraceRecord::nop(0x1000 + i * 4));
            }
            records.push(TraceRecord::branch(
                0x1000 + body * 4,
                BranchKind::UncondDirect,
                true,
                0x1000,
            ));
        }
        Trace {
            name: "warm-loop".into(),
            records,
        }
    }

    #[test]
    fn warm_high_ilp_code_reaches_high_ipc() {
        // 256 independent ALU instructions per iteration, resident in the
        // L1I after the first pass: the 16-wide pipeline should sustain
        // high IPC.
        let trace = warm_loop_trace(256, 100);
        let report = simulate(
            &trace,
            ideal_ibtb16(),
            PipelineConfig::paper().with_warmup(2_000),
        );
        let ipc = report.ipc();
        assert!(ipc > 8.0, "warm loop IPC {ipc}");
    }

    #[test]
    fn tiny_workload_runs_end_to_end() {
        let trace = Trace::generate(&WorkloadProfile::tiny(3), 30_000);
        let report = simulate(
            &trace,
            ideal_ibtb16(),
            PipelineConfig::paper().with_warmup(5_000),
        );
        // The warm-up boundary is exact committed-instruction semantics:
        // the measured region is precisely trace length minus warm-up.
        assert_eq!(report.stats.instructions, 25_000);
        let ipc = report.ipc();
        assert!(ipc > 0.5 && ipc <= 16.0, "ipc {ipc}");
        assert!(report.stats.btb_accesses > 0);
        assert!(report.stats.fetch_pcs_per_access() > 1.0);
    }

    #[test]
    fn ideal_btb_has_high_hitrate() {
        let trace = Trace::generate(&WorkloadProfile::tiny(5), 60_000);
        let report = simulate(
            &trace,
            ideal_ibtb16(),
            PipelineConfig::paper().with_warmup(20_000),
        );
        assert!(
            report.stats.l1_btb_hitrate() > 0.95,
            "ideal hitrate {}",
            report.stats.l1_btb_hitrate()
        );
        assert!(report.stats.misfetches < report.stats.taken_branches / 10);
    }

    #[test]
    fn taken_branch_every_cycle_limits_ipc() {
        // A tight 2-instruction loop: alu + always-taken jump back. Even
        // with 0-bubble turnaround, each access provides 2 PCs.
        let mut records = Vec::new();
        for _ in 0..5000 {
            records.push(TraceRecord::nop(0x1000));
            records.push(TraceRecord::branch(
                0x1004,
                BranchKind::UncondDirect,
                true,
                0x1000,
            ));
        }
        let trace = Trace {
            name: "loop2".into(),
            records,
        };
        let report = simulate(&trace, ideal_ibtb16(), PipelineConfig::paper());
        let ipc = report.ipc();
        assert!(ipc <= 2.2, "2-inst loop cannot beat 2 IPC: {ipc}");
        assert!(ipc > 1.0, "but 0-bubble turnaround sustains ~2: {ipc}");
    }

    #[test]
    fn smaller_fetch_width_is_slower_on_wide_code() {
        let trace = warm_loop_trace(256, 100);
        let pipe = PipelineConfig::paper().with_warmup(2_000);
        let wide = simulate(&trace, ideal_ibtb16(), pipe.clone());
        let narrow_btb = BtbConfig::ideal(
            "I-BTB 8",
            OrgKind::Instruction {
                width: 8,
                skip_taken: false,
            },
        );
        let narrow = simulate(&trace, narrow_btb, pipe);
        assert!(
            narrow.ipc() <= wide.ipc() + 1e-9,
            "8-wide PC gen cannot beat 16-wide: {} vs {}",
            narrow.ipc(),
            wide.ipc()
        );
        assert!(narrow.ipc() < 9.0, "8 PCs/cycle caps IPC: {}", narrow.ipc());
    }

    #[test]
    fn misfetch_penalty_applies_to_cold_btb() {
        // Taken jumps never seen before: every one is a misfetch with a
        // realistic (non-ideal) BTB too. Use distinct targets so nothing is
        // learned.
        let mut records = Vec::new();
        let mut pc = 0x10_0000u64;
        for _ in 0..2000 {
            records.push(TraceRecord::nop(pc));
            let target = pc + 0x100;
            records.push(TraceRecord::branch(
                pc + 4,
                BranchKind::UncondDirect,
                true,
                target,
            ));
            pc = target;
        }
        let trace = Trace {
            name: "cold".into(),
            records,
        };
        let report = simulate(&trace, ideal_ibtb16(), PipelineConfig::paper());
        assert!(
            report.stats.misfetches > 1900,
            "all-cold jumps must misfetch: {}",
            report.stats.misfetches
        );
        assert!(report.ipc() < 1.0, "misfetch-bound IPC {}", report.ipc());
    }

    #[test]
    fn ideal_backend_not_slower_than_realistic() {
        let trace = Trace::generate(&WorkloadProfile::tiny(9), 40_000);
        let real = simulate(&trace, ideal_ibtb16(), PipelineConfig::paper());
        let ideal = simulate(
            &trace,
            ideal_ibtb16(),
            PipelineConfig::paper_ideal_backend(),
        );
        assert!(
            ideal.ipc() >= real.ipc() * 0.98,
            "ideal {} vs real {}",
            ideal.ipc(),
            real.ipc()
        );
    }

    #[test]
    fn observed_run_is_collection_only() {
        let trace = Trace::generate(&WorkloadProfile::tiny(3), 30_000);
        let pipe = PipelineConfig::paper().with_warmup(5_000);
        let plain = simulate(&trace, ideal_ibtb16(), pipe.clone());
        let (report, obs) =
            simulate_observed(&trace, ideal_ibtb16(), pipe.clone(), &ObsConfig::default());
        // Observation never changes the simulation.
        assert_eq!(plain, report);
        // Report-derived counters match the report exactly.
        assert_eq!(
            obs.metrics.counter("sim.instructions"),
            report.stats.instructions
        );
        assert_eq!(
            obs.metrics.counter("sim.cycles"),
            report.stats.last_commit_cycle
        );
        assert_eq!(
            obs.metrics.counter("resteer.misfetch"),
            report.stats.misfetches
        );
        assert_eq!(
            obs.metrics.counter("btb.l1_taken_hits"),
            report.stats.taken_l1_hits
        );
        assert!(!obs.trace.is_empty(), "traced run records events");
        assert_eq!(obs.trace.dropped(), 0);
        // Metrics are identical with tracing off; the buffer stays empty.
        let quiet = ObsConfig {
            trace: false,
            ..ObsConfig::default()
        };
        let (report2, no_trace) = simulate_observed(&trace, ideal_ibtb16(), pipe, &quiet);
        assert_eq!(report, report2);
        assert!(no_trace.trace.is_empty());
        assert_eq!(no_trace.metrics, obs.metrics);
    }

    #[test]
    fn reports_are_deterministic() {
        let trace = Trace::generate(&WorkloadProfile::tiny(11), 20_000);
        let a = simulate(&trace, ideal_ibtb16(), PipelineConfig::paper());
        let b = simulate(&trace, ideal_ibtb16(), PipelineConfig::paper());
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn warmup_boundary_is_exact_for_any_warmup_length() {
        // Regression for the bundle-width drift: the old engine snapshot
        // warm stats at the first bundle boundary at-or-after the warm-up
        // count, so the measured region depended on where bundles fell.
        let trace = Trace::generate(&WorkloadProfile::tiny(7), 20_000);
        for warmup in [1, 7, 4_999, 5_000, 5_001, 19_999] {
            let report = simulate(
                &trace,
                ideal_ibtb16(),
                PipelineConfig::paper().with_warmup(warmup),
            );
            assert_eq!(
                report.stats.instructions,
                20_000 - warmup,
                "measured region for warmup {warmup}"
            );
        }
    }

    #[test]
    fn warmup_swallowing_the_trace_is_a_hard_error() {
        // Regression: this used to silently report whole-run statistics
        // (warm-up included) via `warm.unwrap_or_default()`.
        let trace = Trace::generate(&WorkloadProfile::tiny(3), 10_000);
        for warmup in [10_000, 10_001, u64::MAX] {
            let err = try_simulate(
                &trace,
                ideal_ibtb16(),
                PipelineConfig::paper().with_warmup(warmup),
            )
            .expect_err("empty measured region must not produce a report");
            assert_eq!(
                err,
                SimError::WarmupExceedsTrace {
                    warmup_insts: warmup,
                    trace_insts: 10_000,
                }
            );
            let ff = try_simulate(
                &trace,
                ideal_ibtb16(),
                PipelineConfig::paper()
                    .with_warmup(warmup)
                    .with_fast_forward(),
            );
            assert!(matches!(ff, Err(SimError::WarmupExceedsTrace { .. })));
        }
        // And the panicking entry point reports it loudly.
        let r = std::panic::catch_unwind(|| {
            simulate(
                &trace,
                ideal_ibtb16(),
                PipelineConfig::paper().with_warmup(10_000),
            )
        });
        assert!(r.is_err());
    }

    #[test]
    fn streamed_run_matches_materialized_run() {
        let trace = Trace::generate(&WorkloadProfile::tiny(5), 30_000);
        let pipe = PipelineConfig::paper().with_warmup(5_000);
        let materialized = simulate(&trace, ideal_ibtb16(), pipe.clone());
        let streamed = simulate_stream(
            &trace.name,
            trace.records.iter().copied(),
            ideal_ibtb16(),
            pipe,
        );
        assert_eq!(materialized, streamed);
    }

    #[test]
    fn fast_forward_measures_the_same_region() {
        let trace = Trace::generate(&WorkloadProfile::tiny(6), 30_000);
        let cycle = simulate(
            &trace,
            ideal_ibtb16(),
            PipelineConfig::paper().with_warmup(10_000),
        );
        let ff = simulate(
            &trace,
            ideal_ibtb16(),
            PipelineConfig::paper()
                .with_warmup(10_000)
                .with_fast_forward(),
        );
        assert_eq!(ff.stats.instructions, cycle.stats.instructions);
        assert_eq!(ff.stats.fetch_pcs, ff.stats.instructions);
        // Fast-forward trains through the same update path, so the warm
        // state is close to — but not required to be identical with —
        // cycle warm-up (cycle warm-up additionally performs BTB accesses,
        // which touch recency and trigger L2→L1 fills).
        assert!(ff.ipc() > 0.0);
        // Same ballpark: the warm states differ only in access-side
        // recency/fill effects, not in trained contents.
        let ratio = ff.ipc() / cycle.ipc();
        assert!((0.5..=2.0).contains(&ratio), "ipc ratio {ratio}");
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_to_straight_through() {
        let trace = Trace::generate(&WorkloadProfile::tiny(9), 30_000);
        let warmup = 10_000u64;
        let pipe = PipelineConfig::paper()
            .with_warmup(warmup)
            .with_fast_forward();
        let straight = simulate(&trace, ideal_ibtb16(), pipe.clone());

        let mut records = trace.records.iter().copied();
        let ckpt = WarmupCheckpoint::capture(&mut records, warmup, ideal_ibtb16(), &pipe)
            .expect("trace longer than warm-up");
        assert_eq!(ckpt.insts, warmup);
        let mut resumed = Simulator::resume(&ckpt, records, pipe.clone()).run();
        resumed.workload = trace.name.clone();
        assert_eq!(straight, resumed);

        // The checkpoint is reusable: a second resume from the same
        // checkpoint (fresh clone of BTB + predictors) is identical too.
        let mut again = Simulator::resume(
            &ckpt,
            trace.records[warmup as usize..].iter().copied(),
            pipe,
        )
        .run();
        again.workload = trace.name.clone();
        assert_eq!(straight, again);
    }

    #[test]
    fn checkpoint_capture_errors_on_short_stream() {
        let trace = Trace::generate(&WorkloadProfile::tiny(2), 1_000);
        let pipe = PipelineConfig::paper()
            .with_warmup(5_000)
            .with_fast_forward();
        let mut records = trace.records.iter().copied();
        let err = WarmupCheckpoint::capture(&mut records, 5_000, ideal_ibtb16(), &pipe)
            .expect_err("stream shorter than warm-up");
        assert_eq!(
            err,
            SimError::WarmupExceedsTrace {
                warmup_insts: 5_000,
                trace_insts: 1_000,
            }
        );
    }
}
