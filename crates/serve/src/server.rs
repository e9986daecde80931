//! Daemon core: server state, the bounded job queue, the worker pool and
//! the accept/connection loops.
//!
//! ## Architecture
//!
//! ```text
//! accept loop ──► connection threads ──► bounded queue ──► workers
//!                     (parse, route)      (sync_channel)    (run_cell)
//! ```
//!
//! Connection handlers are thin: they parse a request, do the cheap
//! lookups (ETag match, memo, store) inline, and push real simulation
//! work onto a bounded `sync_channel`. When the queue is full the
//! handler answers `429 Too Many Requests` with `Retry-After` instead of
//! queueing unboundedly — explicit backpressure. Workers (one per
//! `btb-par` thread-policy slot) execute [`btb_harness::run_cell`], the
//! same single-flight, store-backed unit of work `run_matrix` uses, so
//! racing identical submissions simulate exactly once.
//!
//! ## Shutdown
//!
//! `SIGINT`/`SIGTERM` (or `POST /admin/shutdown`) flips a flag: the
//! accept loop stops taking connections, open keep-alive sessions close
//! after their in-flight request, queued jobs drain, workers join, and
//! the process exits 0.

use crate::api;
use crate::http;
use crate::metrics::ServeMetrics;
use btb_core::BtbConfig;
use btb_harness::CellOutcome;
use btb_sim::PipelineConfig;
use btb_store::{Digest, Store};
use btb_trace::{server_suite, Trace, WorkloadProfile};
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How the daemon is launched.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address; port 0 picks an ephemeral port (printed on stdout).
    pub addr: String,
    /// Bounded queue capacity; a full queue answers 429.
    pub queue_capacity: usize,
    /// Worker threads; defaults to the `btb-par` thread policy.
    pub workers: usize,
    /// Optional persistent store root shared with the CLI tools.
    pub store: Option<PathBuf>,
    /// Record wall-clock spans (request/queue/cell stages) into the
    /// in-memory ring served at `GET /debug/trace`. On by default; wall
    /// data never reaches response bodies other than that endpoint, so
    /// report bytes stay deterministic either way.
    pub trace_wall: bool,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            addr: "127.0.0.1:0".to_owned(),
            queue_capacity: 64,
            workers: btb_par::threads(),
            store: None,
            trace_wall: true,
        }
    }
}

/// One queued unit of work. The payload is boxed so the queue (and the
/// `Stop` sentinels sharing the channel) move a pointer, not a ~400-byte
/// config bundle.
pub(crate) enum Job {
    /// Resolve the trace (single-flight) and run the cell.
    Run(Box<RunJob>),
    /// Worker shutdown sentinel.
    Stop,
}

pub(crate) struct RunJob {
    pub(crate) profile: WorkloadProfile,
    pub(crate) insts: usize,
    pub(crate) config: BtbConfig,
    pub(crate) pipe: PipelineConfig,
    /// Where the connection handler blocks for the outcome.
    pub(crate) reply: mpsc::Sender<Result<CellOutcome, String>>,
    /// Span context of the submitting request; the worker re-installs it
    /// so queue-wait and cell spans join the request's wall trace.
    pub(crate) ctx: btb_obs::SpanContext,
    /// Submission timestamp, `Some` only while wall tracing is on.
    pub(crate) enqueued: Option<Instant>,
}

type TraceCell = Arc<OnceLock<Arc<Trace>>>;

/// Shared daemon state.
pub struct ServerState {
    /// Server-side metrics, rendered at `/metrics`.
    pub metrics: ServeMetrics,
    job_tx: SyncSender<Job>,
    store: Option<&'static Store>,
    /// Single-flight trace cache keyed by [`btb_store::trace_key`]: two
    /// requests needing the same (profile, insts) generate it once.
    traces: Mutex<HashMap<Digest, TraceCell>>,
    shutdown: AtomicBool,
    queue_depth: AtomicU64,
    /// Worker-pool size, needed to send one `Stop` sentinel per worker.
    worker_count: usize,
    /// The full server-suite roster requests may name.
    pub(crate) profiles: Vec<WorkloadProfile>,
    /// The campaign configuration roster requests may name.
    pub(crate) configs: Vec<BtbConfig>,
}

impl ServerState {
    pub(crate) fn new(
        job_tx: SyncSender<Job>,
        store: Option<&'static Store>,
        worker_count: usize,
    ) -> ServerState {
        ServerState {
            metrics: ServeMetrics::new(),
            job_tx,
            store,
            traces: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
            queue_depth: AtomicU64::new(0),
            worker_count: worker_count.max(1),
            profiles: server_suite(),
            configs: btb_check::campaign_configs(),
        }
    }

    /// The persistent store, if configured.
    #[must_use]
    pub fn store(&self) -> Option<&'static Store> {
        self.store
    }

    /// Jobs currently waiting in (or bounded by) the queue.
    #[must_use]
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Requests the graceful-shutdown sequence.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once shutdown has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Attempts to enqueue a job without blocking; `Err` is the
    /// backpressure (queue full) or shutdown (channel closed) signal.
    pub(crate) fn try_enqueue(&self, job: RunJob) -> Result<(), TrySendError<Job>> {
        self.job_tx.try_send(Job::Run(Box::new(job)))?;
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
        self.metrics.job_enqueued();
        Ok(())
    }

    /// Fills one queue slot with a sentinel so tests can make the queue
    /// full (or nearly so) deterministically.
    #[cfg(test)]
    pub(crate) fn try_enqueue_stop_for_test(&self) {
        self.job_tx
            .try_send(Job::Stop)
            .expect("queue slot for test sentinel");
    }

    /// Fetches (generating and publishing at most once per key) the trace
    /// for (`profile`, `insts`).
    pub(crate) fn trace_for(&self, profile: &WorkloadProfile, insts: usize) -> Arc<Trace> {
        let key = btb_store::trace_key(profile, insts);
        let cell = self
            .traces
            .lock()
            .expect("trace cache lock")
            .entry(key)
            .or_default()
            .clone();
        cell.get_or_init(
            || match self.store.and_then(|st| st.get_trace(profile, insts)) {
                Some(cached) => Arc::new(cached),
                None => {
                    let fresh = Trace::generate(profile, insts);
                    if let Some(st) = self.store {
                        st.put_trace(profile, insts, &fresh);
                    }
                    Arc::new(fresh)
                }
            },
        )
        .clone()
    }

    /// Name and record count of the trace cached under `key` — the
    /// daemon's in-memory cache first, then the persistent store. `None`
    /// when neither has it.
    pub(crate) fn trace_summary(&self, key: &Digest) -> Option<(String, usize)> {
        let cached = self
            .traces
            .lock()
            .expect("trace cache lock")
            .get(key)
            .and_then(|cell| cell.get().cloned());
        if let Some(trace) = cached {
            return Some((trace.name.to_string(), trace.records.len()));
        }
        let trace = self.store?.load_trace(key)?;
        Some((trace.name.to_string(), trace.records.len()))
    }
}

fn worker_loop(state: &ServerState, job_rx: &Mutex<Receiver<Job>>) {
    loop {
        // Hold the receiver lock only to claim a job, never while
        // simulating (same idiom as the btb-par pool).
        let claimed = job_rx.lock().expect("job queue lock").recv();
        let Ok(job) = claimed else { break };
        let run = match job {
            Job::Stop => break,
            Job::Run(run) => run,
        };
        state.queue_depth.fetch_sub(1, Ordering::Relaxed);
        // Rejoin the submitting request's wall trace: queue wait as a
        // retroactive span, then the cell execution under the same
        // request id so `/debug/trace` shows the full decomposition.
        let _ctx = btb_obs::span::set_context(run.ctx);
        if let Some(enqueued) = run.enqueued {
            btb_obs::span::record_interval("queue.wait", enqueued, Instant::now(), run.ctx);
        }
        btb_obs::log::debug(
            "serve",
            format_args!("req={:016x} worker claimed job", run.ctx.request),
        );
        let mut cell_span = btb_obs::span::enter("cell.run");
        // A panicking cell (e.g. an invariant violation on a cached
        // report) must become that request's 500, not kill the worker.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let trace = state.trace_for(&run.profile, run.insts);
            let tkey = btb_store::trace_key(&run.profile, run.insts);
            btb_harness::run_cell(&trace, &tkey, &run.config, &run.pipe, state.store)
        }))
        .map_err(|payload| {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "cell panicked".to_owned());
            eprintln!("btb-serve: worker: cell failed: {msg}");
            btb_obs::log::error(
                "serve",
                format_args!("req={:016x} cell failed: {msg}", run.ctx.request),
            );
            msg
        });
        cell_span.finish();
        state.metrics.job_completed();
        // A dropped reply just means the client went away mid-job.
        let _ = run.reply.send(result);
    }
}

/// A handle to an in-process server (used by tests and the bench serve
/// phase).
pub struct ServerHandle {
    /// The bound address (real port even when launched on port 0).
    pub addr: SocketAddr,
    state: Arc<ServerState>,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// Shared server state (metrics, queue depth).
    #[must_use]
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Requests graceful shutdown and waits for the serve loop to drain.
    ///
    /// # Errors
    /// Propagates the serve loop's I/O error, or an error if it panicked.
    pub fn shutdown(self) -> io::Result<()> {
        self.state.begin_shutdown();
        self.thread
            .join()
            .map_err(|_| io::Error::other("serve loop panicked"))?
    }
}

/// Opens (or reuses) the process-wide ambient store for `dir`.
///
/// `run_cell` publishes through the store handle it is given, and the
/// harness allows one ambient store per process, so the daemon installs
/// its store there — sharing it with anything else harness-side.
fn open_store(dir: &std::path::Path) -> io::Result<&'static Store> {
    if let Some(st) = btb_harness::ambient_store() {
        return Ok(st);
    }
    let store = Store::open(dir)?;
    Ok(btb_harness::install_store(store)
        .unwrap_or_else(|_| btb_harness::ambient_store().expect("ambient store just installed")))
}

/// Binds, spawns workers and the serve loop on a background thread, and
/// returns once the listener is accepting. Used by tests and the bench
/// serve phase; the `btb-serve` binary uses [`run`].
///
/// # Errors
/// Propagates bind/store-open failures.
pub fn spawn(options: &ServerOptions) -> io::Result<ServerHandle> {
    let (listener, state) = bind(options)?;
    let addr = listener.local_addr()?;
    let loop_state = Arc::clone(&state);
    let thread = std::thread::spawn(move || serve_loop(&listener, &loop_state));
    Ok(ServerHandle {
        addr,
        state,
        thread,
    })
}

/// Binds and serves until graceful shutdown completes. Prints the
/// `listening on <addr>` line consumed by scripts and tests.
///
/// # Errors
/// Propagates bind/store-open failures and accept-loop I/O errors.
pub fn run(options: &ServerOptions) -> io::Result<()> {
    let (listener, state) = bind(options)?;
    println!("btb-serve: listening on {}", listener.local_addr()?);
    // Tests and scripts parse that line to discover the ephemeral port;
    // make sure it is visible before the first connection arrives.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    serve_loop(&listener, &state)
}

/// Binds the listener, opens the store, and starts the worker pool.
fn bind(options: &ServerOptions) -> io::Result<(TcpListener, Arc<ServerState>)> {
    if options.trace_wall {
        btb_obs::span::set_wall_tracing(true);
    }
    let store = match &options.store {
        Some(dir) => Some(open_store(dir)?),
        None => None,
    };
    let capacity = options.queue_capacity.max(1);
    let (job_tx, job_rx) = mpsc::sync_channel::<Job>(capacity);
    let workers = options.workers.max(1);
    let state = Arc::new(ServerState::new(job_tx, store, workers));
    let job_rx = Arc::new(Mutex::new(job_rx));
    for _ in 0..workers {
        let state = Arc::clone(&state);
        let job_rx = Arc::clone(&job_rx);
        std::thread::spawn(move || worker_loop(&state, &job_rx));
    }
    let listener = TcpListener::bind(&options.addr)?;
    Ok((listener, state))
}

/// Accepts connections until shutdown, then drains: no new connections,
/// open sessions finish their in-flight request, queued jobs complete,
/// workers stop.
fn serve_loop(listener: &TcpListener, state: &Arc<ServerState>) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let active = Arc::new(AtomicUsize::new(0));
    loop {
        // Fold the process signal flag (SIGINT/SIGTERM) into the shared
        // shutdown flag so connections and workers see one signal.
        if crate::signal::shutdown_requested() {
            state.begin_shutdown();
        }
        if state.is_shutting_down() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let state = Arc::clone(state);
                let active = Arc::clone(&active);
                active.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    handle_connection(&state, stream);
                    active.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
    // Drain: connection handlers observe the flag within one read
    // timeout; cap the wait so a wedged peer cannot hold shutdown
    // hostage forever.
    let deadline = Instant::now() + Duration::from_secs(10);
    while active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    // Workers drain everything already queued, then hit the sentinels.
    // `send` (not `try_send`) so the sentinels queue behind real work.
    for _ in 0..state.worker_count {
        let _ = state.job_tx.send(Job::Stop);
    }
    // Workers are detached; queued jobs finish because every sentinel
    // sits behind them. Give the queue a moment to visibly drain so
    // "drain queue, finish in-flight cells" holds before exit.
    let deadline = Instant::now() + Duration::from_secs(30);
    while state.queue_depth() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    Ok(())
}

/// How long a keep-alive connection may sit idle between requests before
/// the handler re-checks the shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(200);

fn handle_connection(state: &Arc<ServerState>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        match http::read_request(&mut reader) {
            Ok(Some(req)) => {
                // Every request gets a correlation id (even with wall
                // tracing off): it is echoed in X-Btb-Request-Id and
                // stamps the structured log line and all wall spans.
                let rid = btb_obs::span::next_request_id();
                let start = Instant::now();
                let resp = {
                    let _ctx = btb_obs::span::set_context(btb_obs::SpanContext {
                        parent: 0,
                        request: rid,
                    });
                    let mut root = btb_obs::span::enter("http.request");
                    let resp = api::route(state, &req);
                    root.finish();
                    resp
                };
                let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
                state.metrics.observe_response(resp.status, micros);
                btb_obs::log::info(
                    "serve",
                    format_args!(
                        "req={rid:016x} method={} path={} status={} micros={micros}",
                        req.method, req.target, resp.status
                    ),
                );
                let resp = resp.with_header("X-Btb-Request-Id", &format!("{rid:016x}"));
                // Close after the in-flight response once shutdown begins.
                let keep_alive = !state.is_shutting_down();
                if http::write_response(&mut writer, &resp, keep_alive).is_err() || !keep_alive {
                    return;
                }
            }
            // Clean close from the peer.
            Ok(None) => return,
            // Idle poll tick: drop the connection on shutdown, else wait
            // for the next request.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if state.is_shutting_down() {
                    return;
                }
            }
            // Malformed request: answer 400 and close.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let rid = btb_obs::span::next_request_id();
                btb_obs::log::warn("serve", format_args!("req={rid:016x} bad request: {e}"));
                let resp = http::Response::text(400, &format!("bad request: {e}"))
                    .with_header("X-Btb-Request-Id", &format!("{rid:016x}"));
                state.metrics.observe_response(400, 0);
                let _ = http::write_response(&mut writer, &resp, false);
                return;
            }
            Err(_) => return,
        }
    }
}
