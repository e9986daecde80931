//! Parallel experiment execution: workload suite generation and
//! (configuration × workload) simulation matrices, optionally backed by a
//! persistent [`btb_store::Store`].
//!
//! Store support comes in two forms:
//!
//! * **Explicit**: [`Suite::generate_with_store`] and
//!   [`run_matrix_with_store`] take a store reference — used by tests and
//!   anything wanting fine-grained control.
//! * **Ambient**: [`install_store`] installs a process-wide store that
//!   [`Suite::generate`] and [`run_matrix`] then consult transparently,
//!   so every experiment in [`crate::experiments`] becomes store-backed
//!   without signature changes. When no store is installed, behaviour is
//!   identical to the original in-memory paths.
//!
//! Cached artifacts are bit-exact (see `btb_store::codec`), so a
//! store-backed run produces byte-identical figures to an in-memory run.
//!
//! Execution is parallel *and* deterministic: independent cells are farmed
//! out to the [`btb_par`] work pool (worker count from `--threads` /
//! `BTB_THREADS` / available cores) and results are collected in
//! submission order, so reports, figures and snapshot fixtures are
//! byte-identical at every thread count. The in-process report memo is
//! sharded and single-flight: two threads never simulate the same
//! (trace, config, pipeline) cell.

use btb_core::BtbConfig;
use btb_sim::{simulate, PipelineConfig, SimReport, Simulator, WarmupCheckpoint, WarmupMode};
use btb_store::{Digest, Sha256, Store, TraceStream};
use btb_trace::{build_program, server_suite, Trace, TraceExecutor, TraceRecord, WorkloadProfile};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

static AMBIENT_STORE: OnceLock<Store> = OnceLock::new();

/// In-process memo of completed simulations, keyed by the same exhaustive
/// [`btb_store::report_key`] the persistent store uses. Different figures
/// re-run many identical (trace, config, pipeline) cells — the baseline
/// configuration alone appears in most sweeps — and `simulate` is
/// deterministic, so replaying a memoized report is bit-identical to
/// re-simulating. The persistent store (when installed) still sees every
/// fresh report via `put_report`, so store contents are unchanged.
///
/// Concurrency: the map is sharded by the first key byte so parallel
/// `run_matrix` cells don't serialize on one lock, and each entry is an
/// `Arc<OnceLock<..>>` *single-flight* cell — when two threads want the
/// same cell simultaneously, exactly one runs `simulate` and the other
/// blocks on the `OnceLock` and receives the identical report. Shard locks
/// are only ever held to clone the `Arc`, never across a simulation.
const MEMO_SHARDS: usize = 16;
type MemoCell = Arc<OnceLock<SimReport>>;
type MemoShard = Mutex<HashMap<btb_store::Digest, MemoCell>>;
static REPORT_MEMO: OnceLock<Vec<MemoShard>> = OnceLock::new();

fn memo_shard(key: &btb_store::Digest) -> &'static MemoShard {
    let shards = REPORT_MEMO.get_or_init(|| {
        (0..MEMO_SHARDS)
            .map(|_| Mutex::new(HashMap::new()))
            .collect()
    });
    &shards[key.0[0] as usize % MEMO_SHARDS]
}

/// Fetches (or creates) the single-flight memo cell for `key`.
fn memo_cell(key: &btb_store::Digest) -> MemoCell {
    memo_shard(key)
        .lock()
        .expect("memo shard lock")
        .entry(*key)
        .or_default()
        .clone()
}

/// Looks up a completed report in the in-process single-flight memo
/// without simulating anything. Used by read-only consumers (the
/// `btb-serve` `GET /reports/<key>` endpoint) that must never trigger
/// work; in-flight cells (claimed but not finished) report `None`.
#[must_use]
pub fn memo_report(key: &Digest) -> Option<SimReport> {
    memo_shard(key)
        .lock()
        .expect("memo shard lock")
        .get(key)
        .and_then(|cell| cell.get().cloned())
}

/// Test hook: forgets every memoized report so a subsequent `run_matrix`
/// actually re-simulates. In-flight single-flight cells are unaffected
/// (their `Arc`s keep them alive); at worst a concurrent caller simulates
/// a cell twice, which is deterministic and therefore harmless.
#[doc(hidden)]
pub fn reset_report_memo() {
    if let Some(shards) = REPORT_MEMO.get() {
        for shard in shards {
            shard.lock().expect("memo shard lock").clear();
        }
    }
    if let Some(shards) = CKPT_MEMO.get() {
        for shard in shards {
            shard.lock().expect("checkpoint shard lock").clear();
        }
    }
}

/// In-process memo of fast-forward warm-up checkpoints, sharded and
/// single-flight exactly like [`REPORT_MEMO`]. A config sweep visits the
/// same (workload, BTB organization, warm-up length) many times with only
/// backend/pipeline knobs varying; the warm state depends on none of those
/// knobs, so the sweep fast-forwards warm-up *once* per checkpoint key and
/// every other cell resumes from a clone.
type CkptCell = Arc<OnceLock<WarmupCheckpoint>>;
type CkptShard = Mutex<HashMap<Digest, CkptCell>>;
static CKPT_MEMO: OnceLock<Vec<CkptShard>> = OnceLock::new();

fn ckpt_cell(key: &Digest) -> CkptCell {
    let shards = CKPT_MEMO.get_or_init(|| {
        (0..MEMO_SHARDS)
            .map(|_| Mutex::new(HashMap::new()))
            .collect()
    });
    shards[key.0[0] as usize % MEMO_SHARDS]
        .lock()
        .expect("checkpoint shard lock")
        .entry(*key)
        .or_default()
        .clone()
}

/// Cache key for a fast-forward warm-up checkpoint: the trace identity,
/// the BTB organization, and the *checkpoint-relevant* pipeline fields —
/// the predictor configuration and the warm-up length. Backend and
/// frontend-queue knobs are deliberately excluded: fast-forward touches
/// only `BtbOrganization::update` and `Predictors::retire`, so cells that
/// differ in (say) backend model or FTQ depth share a warm state.
fn checkpoint_key(trace_key: &Digest, config: &BtbConfig, pipe: &PipelineConfig) -> Digest {
    let mut h = Sha256::new();
    h.update(&btb_sim::SCHEMA_VERSION.to_le_bytes());
    h.update(&trace_key.0);
    h.update(format!("{config:?}").as_bytes());
    h.update(
        format!(
            "{:?}|{}|{}|{}",
            pipe.perceptron, pipe.indirect_entries, pipe.ras_entries, pipe.warmup_insts
        )
        .as_bytes(),
    );
    h.finish()
}

/// Cumulative delivered-work counters across every `run_matrix*` call in
/// this process, for throughput reporting (`btb-bench`'s `bench` binary).
///
/// A *cell* is one requested (configuration × workload) report;
/// `fresh_cells` counts the subset that actually ran `simulate` (the rest
/// were replayed from the in-process memo or the persistent store).
/// `instructions` counts trace instructions *delivered* — replayed cells
/// included, since a replay hands the caller the identical report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunCounters {
    /// Reports delivered.
    pub cells: u64,
    /// Reports computed by running the simulator.
    pub fresh_cells: u64,
    /// Reports replayed from the in-process single-flight memo.
    pub memo_hits: u64,
    /// Reports replayed from the persistent store.
    pub store_hits: u64,
    /// Trace instructions covered by delivered reports.
    pub instructions: u64,
}

static CELLS: AtomicU64 = AtomicU64::new(0);
static FRESH_CELLS: AtomicU64 = AtomicU64::new(0);
static MEMO_HITS: AtomicU64 = AtomicU64::new(0);
static STORE_HITS: AtomicU64 = AtomicU64::new(0);
static INSTRUCTIONS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide delivered-work counters.
#[must_use]
pub fn run_counters() -> RunCounters {
    RunCounters {
        cells: CELLS.load(Ordering::Relaxed),
        fresh_cells: FRESH_CELLS.load(Ordering::Relaxed),
        memo_hits: MEMO_HITS.load(Ordering::Relaxed),
        store_hits: STORE_HITS.load(Ordering::Relaxed),
        instructions: INSTRUCTIONS.load(Ordering::Relaxed),
    }
}

/// Installs the process-wide artifact store consulted by [`Suite::generate`]
/// and [`run_matrix`]. Returns the installed reference, or `Err` with the
/// rejected store if one was already installed (installation is
/// once-per-process).
///
/// # Errors
/// Returns the store back if an ambient store is already installed.
pub fn install_store(store: Store) -> Result<&'static Store, Store> {
    AMBIENT_STORE.set(store)?;
    Ok(AMBIENT_STORE.get().expect("just installed"))
}

/// The ambient store installed by [`install_store`], if any.
#[must_use]
pub fn ambient_store() -> Option<&'static Store> {
    AMBIENT_STORE.get()
}

/// Experiment scale: trace length, warm-up and suite size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Instructions per trace.
    pub insts: usize,
    /// Warm-up instructions excluded from statistics.
    pub warmup: u64,
    /// Number of workloads from the suite.
    pub workloads: usize,
}

impl Scale {
    /// Full scale used for EXPERIMENTS.md (the paper uses 50M+50M per
    /// trace; this is scaled to laptop budgets while preserving shape).
    #[must_use]
    pub fn full() -> Self {
        Scale {
            insts: 2_500_000,
            warmup: 750_000,
            workloads: 15,
        }
    }

    /// Quick scale for benches and smoke tests.
    #[must_use]
    pub fn quick() -> Self {
        Scale {
            insts: 300_000,
            warmup: 100_000,
            workloads: 4,
        }
    }

    /// Reads `BTB_INSTS`, `BTB_WARMUP` and `BTB_WORKLOADS` from the
    /// environment, defaulting to [`Scale::full`].
    #[must_use]
    pub fn from_env() -> Self {
        let mut s = Scale::full();
        if let Ok(v) = std::env::var("BTB_INSTS") {
            if let Ok(n) = v.parse() {
                s.insts = n;
            }
        }
        if let Ok(v) = std::env::var("BTB_WARMUP") {
            if let Ok(n) = v.parse() {
                s.warmup = n;
            }
        }
        if let Ok(v) = std::env::var("BTB_WORKLOADS") {
            if let Ok(n) = v.parse() {
                s.workloads = n;
            }
        }
        s.warmup = s.warmup.min(s.insts as u64 / 2);
        s
    }
}

/// The generated workload suite (traces shared across configurations).
#[derive(Debug)]
pub struct Suite {
    /// One trace per workload.
    pub traces: Vec<Trace>,
    /// The profile each trace was generated from (same order as
    /// [`Suite::traces`]); retained so store-backed simulation can derive
    /// report cache keys.
    pub profiles: Vec<WorkloadProfile>,
    /// Scale the suite was generated at.
    pub scale: Scale,
}

impl Suite {
    /// Generates the first `scale.workloads` server-suite traces in
    /// parallel, consulting the ambient store (if one is installed) for
    /// previously generated traces.
    #[must_use]
    pub fn generate(scale: Scale) -> Self {
        Suite::generate_impl(scale, ambient_store())
    }

    /// [`Suite::generate`] against an explicit store: cached traces are
    /// fetched, missing ones are generated and published.
    #[must_use]
    pub fn generate_with_store(scale: Scale, store: &Store) -> Self {
        Suite::generate_impl(scale, Some(store))
    }

    /// Streaming-mode counterpart of [`Suite::generate`]: records the
    /// workload plan without materializing any record vectors. Missing
    /// traces are published to the ambient store straight off a live
    /// executor (O(chunk) memory), so matrix cells can replay them from
    /// disk; without a store each cell regenerates its stream live.
    /// `traces` stays empty — only the streaming matrix path (and
    /// [`crate::experiments::workload_stats`], which materializes one
    /// workload at a time) may consume a planned suite.
    #[must_use]
    pub fn plan(scale: Scale) -> Self {
        Suite::plan_impl(scale, ambient_store())
    }

    /// [`Suite::plan`] against an explicit store.
    #[must_use]
    pub fn plan_with_store(scale: Scale, store: &Store) -> Self {
        Suite::plan_impl(scale, Some(store))
    }

    fn plan_impl(scale: Scale, store: Option<&Store>) -> Self {
        let profiles: Vec<_> = server_suite().into_iter().take(scale.workloads).collect();
        if let Some(st) = store {
            btb_par::ordered_map(&profiles, |_, profile| {
                // `open_trace_stream` doubles as the existence check: it
                // verifies the stored object end to end in flat memory,
                // so cells never trip over corruption mid-sweep.
                if st.open_trace_stream(profile, scale.insts).is_none() {
                    let prog = build_program(profile);
                    let records = TraceExecutor::new(&prog, profile.seed).take(scale.insts);
                    if let Err(e) =
                        st.put_trace_stream(profile, scale.insts, &profile.name, records)
                    {
                        eprintln!(
                            "btb-harness: warning: streamed publish of {} failed: {e}",
                            profile.name
                        );
                    }
                }
            });
        }
        Suite {
            traces: Vec::new(),
            profiles,
            scale,
        }
    }

    fn generate_impl(scale: Scale, store: Option<&Store>) -> Self {
        let profiles: Vec<_> = server_suite().into_iter().take(scale.workloads).collect();
        // Per-workload builds are independent; the pool returns them in
        // profile order, so the suite is identical at any thread count.
        let traces = btb_par::ordered_map(&profiles, |_, profile| {
            match store.and_then(|st| st.get_trace(profile, scale.insts)) {
                Some(cached) => cached,
                None => {
                    let fresh = Trace::generate(profile, scale.insts);
                    if let Some(st) = store {
                        st.put_trace(profile, scale.insts, &fresh);
                    }
                    fresh
                }
            }
        });
        Suite {
            traces,
            profiles,
            scale,
        }
    }

    /// Workload names in suite order (valid for planned suites too —
    /// trace names always equal their profile names).
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.profiles.iter().map(|p| p.name.to_string()).collect()
    }
}

/// Runs every configuration over every trace in parallel, consulting the
/// ambient store (if installed) for cached reports; result is indexed
/// `[config][workload]`.
#[must_use]
pub fn run_matrix(
    suite: &Suite,
    configs: &[BtbConfig],
    pipeline: &PipelineConfig,
) -> Vec<Vec<SimReport>> {
    run_matrix_impl(suite, configs, pipeline, ambient_store())
}

/// [`run_matrix`] against an explicit store: cached reports are fetched,
/// missing (config, workload) cells are simulated and published.
#[must_use]
pub fn run_matrix_with_store(
    suite: &Suite,
    configs: &[BtbConfig],
    pipeline: &PipelineConfig,
    store: &Store,
) -> Vec<Vec<SimReport>> {
    run_matrix_impl(suite, configs, pipeline, Some(store))
}

/// Where a delivered cell report came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSource {
    /// The simulator actually ran for this request.
    Fresh,
    /// Replayed from the in-process single-flight memo (includes joining a
    /// simulation another thread was already running).
    Memo,
    /// Replayed from the persistent store.
    Store,
}

impl CellSource {
    /// Lower-case label (`"fresh"` / `"memo"` / `"store"`), used in HTTP
    /// response headers and metrics.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CellSource::Fresh => "fresh",
            CellSource::Memo => "memo",
            CellSource::Store => "store",
        }
    }
}

/// One delivered (trace, config, pipeline) cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The simulation report (fresh or replayed — byte-identical either
    /// way).
    pub report: SimReport,
    /// Where the report came from.
    pub source: CellSource,
    /// Metrics snapshot of a freshly simulated, observed cell; `None` for
    /// replays and when observability is off.
    pub(crate) metrics: Option<btb_obs::Snapshot>,
}

/// Runs (or replays) one simulation cell: the single-flight, store-backed
/// unit of work that both [`run_matrix`] and the `btb-serve` daemon
/// execute.
///
/// `pipe` must be the *effective* pipeline — warm-up already applied —
/// exactly as handed to `simulate`; `trace_key` must be
/// [`btb_store::trace_key`] of the trace's generating profile. Lookup
/// order is persistent store, then the in-process sharded single-flight
/// memo: two threads requesting the same key concurrently run `simulate`
/// exactly once (the loser blocks and receives the identical report, and
/// is counted as a [`CellSource::Memo`] hit). Every delivered report is
/// checked against the simulator's conservation laws.
///
/// # Panics
/// Panics if the delivered report violates a simulator invariant.
#[must_use]
pub fn run_cell(
    trace: &Trace,
    trace_key: &Digest,
    config: &BtbConfig,
    pipe: &PipelineConfig,
    store: Option<&Store>,
) -> CellOutcome {
    let key = btb_store::report_key(trace_key, config, pipe);
    CELLS.fetch_add(1, Ordering::Relaxed);
    INSTRUCTIONS.fetch_add(trace.records.len() as u64, Ordering::Relaxed);
    // Wall-span correlation: under `btb-serve` the worker installed the
    // HTTP request's context; standalone (`figures`) each cell gets its
    // own fresh correlation id. No-op with tracing off.
    let _req = btb_obs::span::ensure_request();
    let obs_opts = crate::obs::options();
    // Metrics snapshot of a freshly simulated, observed cell; `None`
    // for replays (memo/store hits) and when observability is off.
    let mut cell_metrics = None;
    let lookup = store.and_then(|st| {
        let _g = btb_obs::span::enter("store.lookup");
        st.get_report(&key)
    });
    let (report, source) = match lookup {
        Some(cached) => {
            STORE_HITS.fetch_add(1, Ordering::Relaxed);
            (cached, CellSource::Store)
        }
        None => {
            // Single-flight: the first thread to reach this cell runs
            // `simulate`; any concurrent thread wanting the same key
            // blocks on the `OnceLock` and receives the same report.
            let cell = memo_cell(&key);
            let mut ran_here = false;
            let wait_start = btb_obs::span::now_if_enabled();
            let fresh = cell
                .get_or_init(|| {
                    ran_here = true;
                    FRESH_CELLS.fetch_add(1, Ordering::Relaxed);
                    match obs_opts {
                        Some(opts) => {
                            let (report, obs) = btb_sim::simulate_observed(
                                trace,
                                config.clone(),
                                pipe.clone(),
                                &crate::obs::sim_obs_config(opts),
                            );
                            cell_metrics = Some(crate::obs::export_fresh_cell(&key, &report, obs));
                            report
                        }
                        None if pipe.warmup_mode == WarmupMode::FastForward
                            && pipe.warmup_insts > 0 =>
                        {
                            simulate_ff(trace, trace_key, config, pipe)
                        }
                        None => simulate(trace, config.clone(), pipe.clone()),
                    }
                })
                .clone();
            let source = if ran_here {
                CellSource::Fresh
            } else {
                // Post-hoc span: the name is only known once we learn
                // another thread ran the cell while we blocked.
                btb_obs::span::record_since("memo.wait", wait_start);
                MEMO_HITS.fetch_add(1, Ordering::Relaxed);
                CellSource::Memo
            };
            if let Some(st) = store {
                let _g = btb_obs::span::enter("store.publish");
                st.put_report(&key, &fresh);
            }
            (fresh, source)
        }
    };
    // Every report — freshly simulated or pulled from the cache
    // (which may hold output of an older, buggier binary) — must
    // satisfy the simulator's conservation laws.
    let violations = btb_check::check_report(&report, pipe.width as u64);
    assert!(
        violations.is_empty(),
        "simulator invariant violation for {} on {}: {}",
        config.name,
        trace.name,
        violations.join("; ")
    );
    CellOutcome {
        report,
        source,
        metrics: cell_metrics,
    }
}

/// Simulates one fast-forward cell through the warm-up checkpoint memo:
/// the warm-up region is fast-forwarded at most once per
/// [`checkpoint_key`] (single-flight, shared across the whole sweep), and
/// the cell resumes cycle-accurate simulation from a clone of the warm
/// state. Bit-identical to running the fast-forward warm-up straight
/// through (`btb_sim` pins that equivalence in its own tests).
fn simulate_ff(
    trace: &Trace,
    trace_key: &Digest,
    config: &BtbConfig,
    pipe: &PipelineConfig,
) -> SimReport {
    let cell = ckpt_cell(&checkpoint_key(trace_key, config, pipe));
    let wait_start = btb_obs::span::now_if_enabled();
    let mut captured_here = false;
    let ckpt = cell.get_or_init(|| {
        captured_here = true;
        let _g = btb_obs::span::enter("ckpt.capture");
        let mut warm = trace.records.iter().copied();
        WarmupCheckpoint::capture(&mut warm, pipe.warmup_insts, config.clone(), pipe)
            .unwrap_or_else(|e| panic!("{}: {e}", trace.name))
    });
    if !captured_here {
        btb_obs::span::record_since("ckpt.wait", wait_start);
    }
    let measured = &trace.records[ckpt.insts as usize..];
    let mut report = Simulator::resume(ckpt, measured.iter().copied(), pipe.clone())
        .try_run()
        .unwrap_or_else(|e| panic!("{}: {e}", trace.name));
    report.workload = trace.name.clone();
    report
}

/// Tri-state execution-mode switches: 0 = unset (fall back to the
/// environment variable), 1 = forced off, 2 = forced on. The setters exist
/// so the `figures` CLI flags and in-process tests can flip modes without
/// mutating the environment.
static STREAM_MODE: AtomicU64 = AtomicU64::new(0);
static FF_MODE: AtomicU64 = AtomicU64::new(0);

fn mode(switch: &AtomicU64, env: &str) -> bool {
    match switch.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => std::env::var(env).is_ok_and(|v| !v.is_empty() && v != "0"),
    }
}

/// Forces streaming execution on or off for this process (overrides
/// `BTB_STREAM`).
pub fn set_stream_mode(on: bool) {
    STREAM_MODE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Whether matrix cells should pull records from a stream (a stored trace
/// object or a live [`TraceExecutor`]) instead of the suite's materialized
/// record vectors. Opt-in via `BTB_STREAM=1` (any value but `0`/empty) or
/// [`set_stream_mode`]; reports are byte-identical either way — the
/// streaming engine consumes the exact record sequence the materialized
/// path holds in memory — so this is a memory-footprint knob, not a
/// semantics knob.
#[must_use]
pub fn stream_mode() -> bool {
    mode(&STREAM_MODE, "BTB_STREAM")
}

/// Forces fast-forward warm-up on or off for this process (overrides
/// `BTB_FF`).
pub fn set_ff_mode(on: bool) {
    FF_MODE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Whether `run_matrix` executes warm-up in the fast-forward tier
/// (functional-only training plus sweep-wide checkpoint reuse) instead of
/// the cycle-accurate pipeline. Opt-in via `BTB_FF=1` or [`set_ff_mode`].
/// Unlike streaming this *is* a semantics knob: fast-forward warm state is
/// deliberately distinct from cycle warm state, so reports land under
/// different cache keys and figures are labelled by the mode they ran in.
#[must_use]
pub fn ff_mode() -> bool {
    mode(&FF_MODE, "BTB_FF")
}

/// [`run_cell`] variant that never touches a materialized record vector:
/// records stream from the store's chunked trace object when present,
/// otherwise straight off a live [`TraceExecutor`] rebuilt from `profile`.
/// Report keys, memoization and conservation-law checks are identical to
/// [`run_cell`], so a streamed cell and a materialized cell are fully
/// interchangeable — byte-identical reports under the same key.
///
/// Observability is the one capability the streaming engine does not
/// carry; observed runs go through [`run_cell`].
///
/// # Panics
/// Panics if the delivered report violates a simulator invariant, if the
/// stream ends inside the warm-up region, or if a verified stored trace
/// turns unreadable mid-replay.
#[must_use]
pub fn run_cell_streamed(
    profile: &WorkloadProfile,
    insts: usize,
    trace_key: &Digest,
    config: &BtbConfig,
    pipe: &PipelineConfig,
    store: Option<&Store>,
) -> CellOutcome {
    let key = btb_store::report_key(trace_key, config, pipe);
    CELLS.fetch_add(1, Ordering::Relaxed);
    INSTRUCTIONS.fetch_add(insts as u64, Ordering::Relaxed);
    let _req = btb_obs::span::ensure_request();
    let lookup = store.and_then(|st| {
        let _g = btb_obs::span::enter("store.lookup");
        st.get_report(&key)
    });
    let (report, source) = match lookup {
        Some(cached) => {
            STORE_HITS.fetch_add(1, Ordering::Relaxed);
            (cached, CellSource::Store)
        }
        None => {
            let cell = memo_cell(&key);
            let mut ran_here = false;
            let wait_start = btb_obs::span::now_if_enabled();
            let fresh = cell
                .get_or_init(|| {
                    ran_here = true;
                    FRESH_CELLS.fetch_add(1, Ordering::Relaxed);
                    simulate_streamed(profile, insts, trace_key, config, pipe, store)
                })
                .clone();
            let source = if ran_here {
                CellSource::Fresh
            } else {
                btb_obs::span::record_since("memo.wait", wait_start);
                MEMO_HITS.fetch_add(1, Ordering::Relaxed);
                CellSource::Memo
            };
            if let Some(st) = store {
                let _g = btb_obs::span::enter("store.publish");
                st.put_report(&key, &fresh);
            }
            (fresh, source)
        }
    };
    let violations = btb_check::check_report(&report, pipe.width as u64);
    assert!(
        violations.is_empty(),
        "simulator invariant violation for {} on {}: {}",
        config.name,
        profile.name,
        violations.join("; ")
    );
    CellOutcome {
        report,
        source,
        metrics: None,
    }
}

/// A streamed cell's record source: the store's verified trace object when
/// it holds one, else a live executor over the rebuilt program.
enum CellRecords<'p> {
    Stored {
        stream: TraceStream,
        workload: &'p str,
    },
    Live(std::iter::Take<TraceExecutor<'p>>),
}

impl CellRecords<'_> {
    /// Skips `n` records: the stored trace seeks over whole chunks, the
    /// live executor has to generate and drop them.
    fn skip_records(&mut self, n: u64) {
        match self {
            CellRecords::Stored { stream, workload } => {
                stream.skip_records(n).unwrap_or_else(|e| {
                    panic!("{workload}: stored trace unreadable mid-skip: {e}")
                });
            }
            CellRecords::Live(exec) => {
                if n > 0 {
                    exec.nth(n as usize - 1);
                }
            }
        }
    }
}

impl Iterator for CellRecords<'_> {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        match self {
            CellRecords::Stored { stream, workload } => stream.next().map(|r| {
                r.unwrap_or_else(|e| panic!("{workload}: stored trace unreadable mid-replay: {e}"))
            }),
            CellRecords::Live(exec) => exec.next(),
        }
    }
}

/// The streaming simulation behind [`run_cell_streamed`]: picks a record
/// source, threads it through the warm-up checkpoint memo when
/// fast-forwarding, and runs the engine off the stream.
fn simulate_streamed(
    profile: &WorkloadProfile,
    insts: usize,
    trace_key: &Digest,
    config: &BtbConfig,
    pipe: &PipelineConfig,
    store: Option<&Store>,
) -> SimReport {
    let name = profile.name.clone();
    let prog;
    let mut stream = match store.and_then(|st| st.open_trace_stream(profile, insts)) {
        Some(stored) => CellRecords::Stored {
            stream: stored,
            workload: &profile.name,
        },
        None => {
            prog = build_program(profile);
            CellRecords::Live(TraceExecutor::new(&prog, profile.seed).take(insts))
        }
    };
    if pipe.warmup_mode == WarmupMode::FastForward && pipe.warmup_insts > 0 {
        let cell = ckpt_cell(&checkpoint_key(trace_key, config, pipe));
        let wait_start = btb_obs::span::now_if_enabled();
        let mut captured_here = false;
        let ckpt = cell.get_or_init(|| {
            captured_here = true;
            let _g = btb_obs::span::enter("ckpt.capture");
            WarmupCheckpoint::capture(&mut stream, pipe.warmup_insts, config.clone(), pipe)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
        });
        if !captured_here {
            btb_obs::span::record_since("ckpt.wait", wait_start);
            // Another cell already owns this checkpoint; skip the warm-up
            // region of our stream and resume from the shared warm state.
            stream.skip_records(ckpt.insts);
        }
        let mut report = Simulator::resume(ckpt, stream, pipe.clone())
            .try_run()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        report.workload = name.as_str().into();
        report
    } else {
        btb_sim::try_simulate_stream(&name, stream, config.clone(), pipe.clone())
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

fn run_matrix_impl(
    suite: &Suite,
    configs: &[BtbConfig],
    pipeline: &PipelineConfig,
    store: Option<&Store>,
) -> Vec<Vec<SimReport>> {
    let jobs: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|c| (0..suite.profiles.len()).map(move |w| (c, w)))
        .collect();
    let mut pipe = pipeline.clone().with_warmup(suite.scale.warmup);
    if ff_mode() && pipe.warmup_insts > 0 {
        pipe = pipe.with_fast_forward();
    }
    // Report keys hash the trace identity and the *effective* pipeline —
    // the one with warm-up applied, exactly as handed to `simulate`.
    let trace_keys: Vec<_> = suite
        .profiles
        .iter()
        .map(|p| btb_store::trace_key(p, suite.scale.insts))
        .collect();
    // Cells are farmed out to the work pool and collected in submission
    // order, so the matrix (and everything rendered from it) is identical
    // at any thread count.
    //
    // In streaming mode each cell pulls records from the store's chunked
    // trace object (or a live executor) instead of the materialized suite;
    // reports land under the same keys with identical bytes. Observed runs
    // need the materialized path.
    let streaming = stream_mode() && crate::obs::options().is_none();
    assert!(
        streaming || suite.traces.len() == suite.profiles.len(),
        "planned (trace-less) suite requires streaming execution; \
         rebuild it with Suite::generate for the materialized path"
    );
    let flat = btb_par::ordered_map(&jobs, |_, &(c, w)| {
        let cell = if streaming {
            run_cell_streamed(
                &suite.profiles[w],
                suite.scale.insts,
                &trace_keys[w],
                &configs[c],
                &pipe,
                store,
            )
        } else {
            run_cell(&suite.traces[w], &trace_keys[w], &configs[c], &pipe, store)
        };
        (cell.report, cell.metrics)
    });
    // Fold fresh-cell metrics into the run aggregate in *submission*
    // order (ordered_map already restored it), never completion order,
    // so the aggregate is byte-deterministic at any thread count.
    let mut out: Vec<Vec<SimReport>> = (0..configs.len()).map(|_| Vec::new()).collect();
    let mut flat = flat.into_iter();
    for (c, _w) in &jobs {
        let (report, cell_metrics) = flat.next().expect("one report per job");
        if let Some(metrics) = &cell_metrics {
            crate::obs::merge_cell_metrics(metrics);
        }
        out[*c].push(report);
    }
    out
}

/// Runs one configuration over the suite (parallel across workloads),
/// consulting the ambient store if installed.
#[must_use]
pub fn run_config(suite: &Suite, config: &BtbConfig, pipeline: &PipelineConfig) -> Vec<SimReport> {
    run_matrix(suite, std::slice::from_ref(config), pipeline)
        .pop()
        .expect("one config")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;

    fn tiny_scale() -> Scale {
        Scale {
            insts: 20_000,
            warmup: 5_000,
            workloads: 2,
        }
    }

    #[test]
    fn suite_generation_is_deterministic() {
        let a = Suite::generate(tiny_scale());
        let b = Suite::generate(tiny_scale());
        assert_eq!(a.traces.len(), 2);
        assert_eq!(a.traces[0].records, b.traces[0].records);
        assert_eq!(a.names(), b.names());
    }

    #[test]
    fn matrix_is_ordered_config_major() {
        let suite = Suite::generate(tiny_scale());
        let cfgs = vec![configs::baseline(), configs::real_ibtb16()];
        let m = run_matrix(&suite, &cfgs, &btb_sim::PipelineConfig::paper());
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].len(), 2);
        assert_eq!(m[0][0].config_name, "I-BTB 16");
        assert_eq!(m[0][0].workload, suite.traces[0].name);
        assert_eq!(m[0][1].workload, suite.traces[1].name);
        for row in &m {
            for r in row {
                assert!(r.ipc() > 0.0);
            }
        }
    }

    #[test]
    fn scale_env_clamps_warmup() {
        // Warm-up can never exceed half the trace.
        let s = Scale {
            insts: 100,
            warmup: 90,
            workloads: 1,
        };
        // from_env path clamps; emulate the clamp directly.
        let clamped = s.warmup.min(s.insts as u64 / 2);
        assert_eq!(clamped, 50);
    }
}
