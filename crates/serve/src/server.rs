//! The job server: TCP acceptor, router, worker pool, crash recovery.
//!
//! # API
//!
//! | Method & path            | Meaning                                              |
//! |--------------------------|------------------------------------------------------|
//! | `GET /healthz`           | liveness + pool counters                             |
//! | `GET /metrics`           | pool counters in Prometheus text format              |
//! | `POST /jobs`             | submit (suite ref or `.bench` text + config) → `201` |
//! | `GET /jobs`              | list job summaries                                   |
//! | `GET /jobs/<id>`         | status + progress + final report summary             |
//! | `GET /jobs/<id>/events`  | chunked NDJSON stream of progress events (full replay while the job runs; finished jobs retain the last `TERMINAL_EVENT_TAIL` events) |
//! | `GET /jobs/<id>/artifact`| the completed run artifact (canonical bytes)         |
//! | `GET /jobs/<id>/patterns`| the completed run's pattern set                      |
//! | `DELETE /jobs/<id>`      | cancel an active job / remove a terminal one         |
//!
//! A full queue answers `503`; malformed input `400`; over-limit input
//! `413`; a missing job `404`; an artifact requested before completion
//! `409`.
//!
//! # Multi-tenant admission control
//!
//! With a tenant registry ([`ServeConfig::with_tenants`], `gdf serve
//! --tenants FILE`) the job-mutating routes (`POST /jobs`,
//! `DELETE /jobs/<id>`) require `Authorization: Bearer <token>`: no
//! token is `401`, an unknown token `403`, another tenant's job `403`.
//! Read routes, `/healthz` and `/metrics` stay open (the fleet health
//! probe scrapes `/metrics` unauthenticated). A tenant over its own
//! quota — queued-job cap or request rate — gets `429 + Retry-After`,
//! *distinct* from the saturation `503`: `429` means "your quota, slow
//! down", `503` means "my capacity, try another node". Queued jobs
//! dispatch through a weighted deficit round-robin scheduler
//! ([`gdf_tenant::FairScheduler`]) within priority bands, with
//! deterministic tie-breaks. Without a registry no route needs a token
//! and every job waits on the queue's one ownerless lane, in FIFO order.
//!
//! # Determinism over the wire
//!
//! Jobs run through the same deterministic engine the CLI drives, so two
//! submissions with equal specs produce byte-identical artifacts no
//! matter how many clients, workers, or server restarts happen in
//! between. `GET /jobs/<id>/artifact` serves
//! [`RunArtifact::canonical_encode`] (wall-clock zeroed), the byte
//! -comparable form.
//!
//! # Crash recovery
//!
//! Every state transition persists `job.json`; the
//! [`Checkpointer`] persists `run.json` while a job runs. On start the
//! server replays the directory: terminal jobs are listed again,
//! queued/running jobs re-enter the queue and
//! [`gdf_core::engine::AtpgBuilder::resume_from`] continues them from
//! the checkpoint — byte-identical to never having been interrupted.
//! [`JobServer::kill`] stops the process's threads at the next fault
//! boundary *without* updating any disk state, simulating `kill -9` for
//! the restart tests.

use crate::http::{read_request, ChunkedWriter, HttpError, Request, Response};
use crate::job::{
    decode_record, encode_record, write_atomic, Job, JobId, JobSpec, JobState, ReportSummary,
    ShardSpec,
};
use crate::queue::{JobQueue, PushError};
use crate::ServeError;
use gdf_core::artifact::{encode_config, CircuitSource, PatternSet, RunArtifact};
use gdf_core::engine::{Atpg, AtpgBuilder, AtpgError, Backend, Limits, Observer, RunConfig};
use gdf_core::json::{Json, ParseLimits};
use gdf_core::phase::{PhaseSink, ScopedSink};
use gdf_core::session::{Checkpointer, EventObserver, ProgressEvent};
use gdf_core::{Sensitization, ShardArtifact};
use gdf_netlist::{Circuit, FaultUniverse};
use gdf_obs::{
    Counter, Gauge, Histogram, PhaseRecord, ProfileData, ProfileHandle, Profiler, Registry,
    RegistrySink, TraceCtx, Tracer, PHASE_HELP, PHASE_METRIC, TRACE_HEADER,
};
use gdf_store::{lookup_run, Store};
use gdf_tenant::{TenantRegistry, TokenBucket};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle worker blocks on the queue before re-checking
/// shutdown.
const WORKER_POLL: Duration = Duration::from_millis(50);
/// How long an `/events` subscriber blocks per wait round.
const EVENT_POLL: Duration = Duration::from_secs(2);
/// Concurrent connection-handler threads accepted before new peers get
/// an immediate `503` — the transport-level counterpart of the parser's
/// line/header/body bounds (one OS thread per connection must not be an
/// unbounded resource a hostile peer controls).
const MAX_CONNECTIONS: usize = 256;
/// Events a *finished* job keeps in memory for `/events` replay; the
/// full history lives only while the job runs (a long-lived server must
/// not pin every completed job's per-fault log forever — the artifact
/// is the durable record).
const TERMINAL_EVENT_TAIL: usize = 256;

/// Help text for the labeled HTTP request counter.
const HTTP_HELP: &str = "HTTP requests served, by method, route pattern, and status.";

/// Engine/job phases pre-registered at startup so the
/// `gdf_engine_phase_seconds` family renders (with zero counts) before
/// the first job runs — scrapers never see the family flicker in.
const PHASES: [&str; 11] = [
    "parse",
    "generate",
    "propagate",
    "initialize",
    "fill",
    "fsim",
    "credit",
    "checkpoint",
    "publish",
    "store_get",
    "store_publish",
];

/// Server construction parameters; see [`JobServer::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:4817` (port `0` picks a free one).
    pub addr: String,
    /// The persistent job directory.
    pub dir: PathBuf,
    /// Worker threads, clamped to ≥ 1.
    pub workers: usize,
    /// Queued jobs accepted per worker, clamped to ≥ 1: the queue holds
    /// `workers × queue_capacity` jobs before it answers `503`.
    pub queue_capacity: usize,
    /// Default checkpoint cadence for jobs that do not specify one.
    pub checkpoint_every: usize,
    /// Request-body byte limit.
    pub body_limit: usize,
    /// Observability: per-job traces under `<dir>/traces/`, per-phase
    /// engine histograms, and `profile` blocks on finished jobs. On by
    /// default; the benchmark harness turns it off to measure overhead.
    /// Never affects canonical artifacts either way.
    pub obs: bool,
    /// Multi-tenant admission control: `Some` puts every job-mutating
    /// route behind bearer-token auth, enforces per-tenant quotas and
    /// rate limits (`429 + Retry-After`), and dispatches through the
    /// weighted-fair scheduler. `None` (the default) is the open
    /// server: no auth, no quotas, FIFO dispatch.
    pub tenants: Option<TenantRegistry>,
}

impl ServeConfig {
    /// Defaults: 4 workers, 64 queued jobs per worker, checkpoint every
    /// 16 outcomes, 8 MiB bodies.
    pub fn new(addr: impl Into<String>, dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            addr: addr.into(),
            dir: dir.into(),
            workers: 4,
            queue_capacity: 64,
            checkpoint_every: 16,
            body_limit: crate::http::DEFAULT_BODY_LIMIT,
            obs: true,
            tenants: None,
        }
    }

    /// Replaces the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Replaces the queued jobs accepted per worker: the queue holds
    /// `workers × capacity` jobs.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Replaces the default checkpoint cadence.
    pub fn with_checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every.max(1);
        self
    }

    /// Enables or disables tracing + profiling (metrics stay on).
    pub fn with_obs(mut self, obs: bool) -> Self {
        self.obs = obs;
        self
    }

    /// Turns on multi-tenant admission control with this registry.
    pub fn with_tenants(mut self, registry: TenantRegistry) -> Self {
        self.tenants = Some(registry);
        self
    }
}

/// Pool counters behind `GET /metrics`, now held in the shared
/// [`Registry`]. Job latency is a log-bucketed histogram over the full
/// server history — exact nearest-rank quantiles at every scrape, no
/// sliding-window bias (the old ring buffer let a burst of fast jobs
/// evict the slow tail and understate p99).
struct Metrics {
    /// Jobs that reached `Done` in this process.
    completed: Counter,
    /// Jobs that reached `Failed` in this process.
    failed: Counter,
    /// Submissions answered straight from the result cache (these also
    /// count as completed, but contribute no latency sample — a cache
    /// hit measures the store, not the engine).
    cache_hits: Counter,
    /// Trace documents written under `<dir>/traces/`.
    traces_written: Counter,
    /// Workers currently inside `run_job`.
    busy: AtomicUsize,
    /// Completed-job wall time; rendered as the
    /// `gdf_job_latency_seconds` summary.
    latency: Arc<Histogram>,
    /// Gauge handles, registered up front in the exposition order the
    /// pre-obs server printed them, so migrating to the registry
    /// encoder does not reorder anyone's scrape.
    queue_depth: Gauge,
    jobs_running: Gauge,
    jobs_queued: Gauge,
    workers: Gauge,
    workers_busy: Gauge,
    worker_utilization: Gauge,
    draining: Gauge,
    store_bytes: Gauge,
    store_objects: Gauge,
}

impl Metrics {
    fn new(registry: &Registry) -> Self {
        // Registration order is render order; keep the historical one.
        let queue_depth = registry.gauge("gdf_queue_depth", "Jobs waiting in the job queue.");
        let jobs_running = registry.gauge(
            "gdf_jobs_running",
            "Jobs currently being driven by a worker.",
        );
        let jobs_queued = registry.gauge(
            "gdf_jobs_queued",
            "Jobs in the queued state (including the recovery backlog).",
        );
        let workers = registry.gauge("gdf_workers", "Worker threads in the pool.");
        let workers_busy = registry.gauge("gdf_workers_busy", "Workers currently inside a job.");
        let worker_utilization = registry.gauge(
            "gdf_worker_utilization",
            "Busy workers as a fraction of the pool.",
        );
        let draining = registry.gauge(
            "gdf_draining",
            "1 while the server is draining (graceful shutdown in progress).",
        );
        let store_bytes = registry.gauge(
            "gdf_store_bytes",
            "Total object bytes in the content-addressed result store.",
        );
        let store_objects = registry.gauge(
            "gdf_store_objects",
            "Objects in the content-addressed result store.",
        );
        let completed = registry.counter(
            "gdf_jobs_completed_total",
            "Jobs that finished successfully.",
        );
        let failed = registry.counter("gdf_jobs_failed_total", "Jobs that finished in failure.");
        let cache_hits = registry.counter(
            "gdf_cache_hits_total",
            "Submissions answered from the exact result cache.",
        );
        let latency = registry.histogram(
            "gdf_job_latency_seconds",
            "Completed-job wall time (log-bucketed over the full server history).",
        );
        let traces_written = registry.counter(
            "gdf_traces_written_total",
            "Job trace documents written under the server's traces/ directory.",
        );
        Metrics {
            completed,
            failed,
            cache_hits,
            traces_written,
            busy: AtomicUsize::new(0),
            latency,
            queue_depth,
            jobs_running,
            jobs_queued,
            workers,
            workers_busy,
            worker_utilization,
            draining,
            store_bytes,
            store_objects,
        }
    }

    fn record_done(&self, elapsed: Duration) {
        self.completed.inc();
        self.latency.observe(elapsed);
    }
}

/// Admission-control state when a tenant registry is configured: the
/// registry, one request-rate bucket per rate-limited tenant, and the
/// per-tenant metric handles (pre-registered at startup so every
/// `gdf_tenant_*` family is present from the first scrape — tenants are
/// a fixed set, so no series appears mid-flight).
struct Tenancy {
    registry: TenantRegistry,
    /// Request-rate buckets keyed by tenant id; only tenants with a
    /// configured rate have one (no entry = unlimited).
    buckets: Mutex<BTreeMap<String, TokenBucket>>,
    admitted: BTreeMap<String, Counter>,
    rejected: BTreeMap<String, Counter>,
    queued: BTreeMap<String, Gauge>,
    running: BTreeMap<String, Gauge>,
}

impl Tenancy {
    fn new(registry: TenantRegistry, metrics: &Registry) -> Tenancy {
        let mut buckets = BTreeMap::new();
        let mut admitted = BTreeMap::new();
        let mut rejected = BTreeMap::new();
        let mut queued = BTreeMap::new();
        let mut running = BTreeMap::new();
        for tenant in &registry.tenants {
            let id = tenant.id.clone();
            let labels = &[("tenant", tenant.id.as_str())];
            admitted.insert(
                id.clone(),
                metrics.counter_with(
                    "gdf_tenant_admitted_total",
                    "Submissions admitted past tenant admission control.",
                    labels,
                ),
            );
            rejected.insert(
                id.clone(),
                metrics.counter_with(
                    "gdf_tenant_rejected_total",
                    "Submissions rejected by a tenant quota or rate limit (429s).",
                    labels,
                ),
            );
            queued.insert(
                id.clone(),
                metrics.gauge_with("gdf_tenant_queued", "Jobs queued, per tenant.", labels),
            );
            running.insert(
                id.clone(),
                metrics.gauge_with("gdf_tenant_running", "Jobs running, per tenant.", labels),
            );
            if let Some(rate) = tenant.rate_per_sec {
                buckets.insert(
                    id,
                    TokenBucket::new(rate, tenant.effective_burst(), Instant::now()),
                );
            }
        }
        Tenancy {
            registry,
            buckets: Mutex::new(buckets),
            admitted,
            rejected,
            queued,
            running,
        }
    }

    /// Takes one request-rate token for `tenant`; `Err(wait)` is the
    /// seconds until the next token when the tenant is over its rate.
    /// Tenants with no configured rate always pass.
    fn take_rate_token(&self, tenant: &str) -> Result<(), f64> {
        let mut buckets = self.buckets.lock().expect("rate buckets poisoned");
        match buckets.get_mut(tenant) {
            Some(bucket) => bucket.try_take(Instant::now()),
            None => Ok(()),
        }
    }

    fn record_admitted(&self, tenant: &str) {
        if let Some(c) = self.admitted.get(tenant) {
            c.inc();
        }
    }

    fn record_rejected(&self, tenant: &str) {
        if let Some(c) = self.rejected.get(tenant) {
            c.inc();
        }
    }
}

struct ServerState {
    dir: PathBuf,
    jobs: Mutex<BTreeMap<JobId, Arc<Job>>>,
    next_id: AtomicU64,
    queue: JobQueue,
    /// Worker-pool size, for `/healthz` and the utilization gauges.
    workers: usize,
    /// `Some` when a tenant registry is loaded; `None` is open mode.
    tenancy: Option<Tenancy>,
    /// Recovered in-flight jobs that did not fit the bounded queue at
    /// startup; idle workers drain this into the queue as slots free up
    /// (submissions never land here — a full queue answers `503`).
    backlog: Mutex<std::collections::VecDeque<JobId>>,
    default_checkpoint_every: usize,
    body_limit: usize,
    stopping: AtomicBool,
    /// Graceful-degradation flag: set by [`JobServer::drain`]. A
    /// draining server answers submissions `503 + Retry-After`, stops
    /// jobs at their next fault boundary (leaving resumable disk
    /// state), and advertises `gdf_draining 1` so coordinators finish
    /// nothing new here and steal soon.
    draining: AtomicBool,
    connections: Arc<std::sync::atomic::AtomicUsize>,
    metrics: Metrics,
    /// The unified metric registry: pool counters, the job-latency
    /// summary, per-phase engine histograms, HTTP request counters.
    /// `GET /metrics` is one `registry.render()`.
    registry: Registry,
    /// Tracing + profiling enabled ([`ServeConfig::obs`]).
    obs: bool,
    /// Folds engine phase spans into `registry`; `Some` iff `obs`. Every
    /// worker and connection thread scopes it, so in-process servers
    /// never time each other's jobs.
    phase_sink: Option<Arc<dyn PhaseSink>>,
    /// The content-addressed result cache under `<dir>/store`. Always
    /// on: publishing costs one extra write per completed run, and a hit
    /// saves an entire generation run.
    store: Store,
}

impl ServerState {
    /// Bumps `gdf_http_requests_total{method,path,status}`. `path` is
    /// the route *pattern* (`/jobs/{id}`), not the raw path — ids must
    /// not explode the series cardinality.
    fn record_http(&self, method: &str, route: &str, status: u16) {
        let method = match method {
            "GET" | "POST" | "DELETE" => method,
            _ => "other",
        };
        self.registry
            .counter_with(
                "gdf_http_requests_total",
                HTTP_HELP,
                &[
                    ("method", method),
                    ("path", route),
                    ("status", &status.to_string()),
                ],
            )
            .inc();
    }

    fn job(&self, id: JobId) -> Option<Arc<Job>> {
        self.jobs
            .lock()
            .expect("job store poisoned")
            .get(&id)
            .cloned()
    }

    fn watermark_path(dir: &std::path::Path) -> PathBuf {
        dir.join("next-id")
    }

    /// Persists the id high-water mark so job ids are never reused, even
    /// after the highest-id job's directory is deleted and the server
    /// restarts (a stale client id must 404, not resolve to a stranger's
    /// job). Called with the job-store lock held, so writes are ordered.
    fn persist_watermark(&self) {
        let value = self.next_id.load(Ordering::Acquire);
        if let Err(e) = write_atomic(&Self::watermark_path(&self.dir), &format!("{value}\n")) {
            eprintln!("gdf-serve: id watermark write failed: {e}");
        }
    }

    /// Moves backlogged recovery jobs into the queue while it has room.
    /// In tenant mode a recovered job re-enters its owner's lane, so a
    /// backlogged job can also wait on that tenant's quota — recovery
    /// stays in id order either way.
    fn drain_backlog(&self) {
        let mut backlog = self.backlog.lock().expect("backlog poisoned");
        while let Some(&id) = backlog.front() {
            let tenant = self.job(id).and_then(|job| job.spec.tenant.clone());
            if self.queue.push(tenant.as_deref(), id).is_err() {
                return;
            }
            backlog.pop_front();
        }
    }

    /// Persists the job record; I/O failure is reported, not fatal (the
    /// in-memory state stays authoritative for this process).
    fn persist(&self, job: &Job) {
        let status = job.status();
        let text = encode_record(job.id, &job.spec, &status);
        let path = Job::record_path(&self.dir, job.id);
        if let Err(e) = write_atomic(&path, &text) {
            eprintln!("gdf-serve: job {} record write failed: {e}", job.id);
        }
    }

    /// Whether a job whose run just returned stays as it is for the
    /// next server instead of reaching a terminal state: always after a
    /// server stop (crash-style: the `running` record and the last
    /// checkpoint stay untouched), and after a drain that stopped the
    /// run early (`stopped_early`) when no client cancel did.
    fn leaves_job(&self, job: &Job, stopped_early: bool) -> bool {
        self.stopping.load(Ordering::Acquire)
            || (stopped_early
                && self.draining.load(Ordering::Acquire)
                && !job.cancel.load(Ordering::Acquire))
    }

    /// Moves a job to a terminal state, persists it, closes its stream.
    fn finalize(
        &self,
        job: &Job,
        state: JobState,
        error: Option<String>,
        report: Option<ReportSummary>,
    ) {
        {
            let mut status = job.status.lock().expect("job status poisoned");
            status.state = state;
            status.error = error;
            if report.is_some() {
                status.report = report;
            }
        }
        self.persist(job);
        job.events.close();
        job.events.compact(TERMINAL_EVENT_TAIL);
    }
}

/// The running server; see [`JobServer::start`].
pub struct JobServer {
    state: Arc<ServerState>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl JobServer {
    /// Binds, recovers persisted jobs from the directory, and spawns the
    /// acceptor plus the worker pool.
    pub fn start(config: ServeConfig) -> Result<JobServer, ServeError> {
        std::fs::create_dir_all(&config.dir)
            .map_err(|e| ServeError::Io(format!("{}: {e}", config.dir.display())))?;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| ServeError::Io(format!("bind {}: {e}", config.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(e.to_string()))?;
        let workers = config.workers.max(1);
        let store =
            Store::open(config.dir.join("store")).map_err(|e| ServeError::Io(e.to_string()))?;
        let registry = Registry::new();
        let metrics = Metrics::new(&registry);
        // Pre-register the per-phase histograms and the /metrics scrape
        // counter so those families are present from the first scrape.
        for phase in PHASES {
            registry.histogram_with(PHASE_METRIC, PHASE_HELP, &[("phase", phase)]);
        }
        registry.counter_with(
            "gdf_http_requests_total",
            HTTP_HELP,
            &[("method", "GET"), ("path", "/metrics"), ("status", "200")],
        );
        // Engine phase spans (parse/generate/fill/fsim/…) on this
        // server's threads fold into this registry.
        let phase_sink = config
            .obs
            .then(|| Arc::new(RegistrySink::new(registry.clone())) as Arc<dyn PhaseSink>);
        // Tenancy registers its per-tenant families after every
        // pre-existing one, so open-mode scrapes render unchanged.
        let tenancy = config.tenants.clone().map(|r| Tenancy::new(r, &registry));
        let queue = JobQueue::new(
            workers * config.queue_capacity.max(1),
            tenancy.as_ref().map(|t| &t.registry),
        );
        let state = Arc::new(ServerState {
            dir: config.dir.clone(),
            jobs: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            queue,
            workers,
            tenancy,
            backlog: Mutex::new(std::collections::VecDeque::new()),
            default_checkpoint_every: config.checkpoint_every.max(1),
            body_limit: config.body_limit,
            stopping: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            connections: Arc::new(std::sync::atomic::AtomicUsize::new(0)),
            metrics,
            registry,
            obs: config.obs,
            phase_sink,
            store,
        });
        recover_jobs(&state)?;

        let mut worker_handles = Vec::new();
        for index in 0..workers {
            let state = Arc::clone(&state);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("gdf-serve-worker-{index}"))
                    .spawn(move || worker_loop(state))
                    .map_err(|e| ServeError::Io(format!("spawn worker: {e}")))?,
            );
        }
        let acceptor_state = Arc::clone(&state);
        let acceptor = std::thread::Builder::new()
            .name("gdf-serve-acceptor".into())
            .spawn(move || accept_loop(acceptor_state, listener))
            .map_err(|e| ServeError::Io(format!("spawn acceptor: {e}")))?;

        Ok(JobServer {
            state,
            local_addr,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }

    /// The bound address (resolves port `0` to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Blocks until the server is stopped (never, unless another thread
    /// holds a handle that calls [`JobServer::shutdown`] — the CLI just
    /// parks here until the process is killed).
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    /// Stops accepting, stops every worker at its next fault boundary,
    /// and joins the threads. **No disk state is updated** — in-flight
    /// jobs keep their last checkpoint and their `running` record, so a
    /// restarted server resumes them exactly as it would after a crash.
    /// (Stopping *is* the crash path; there is nothing graceful a
    /// shutdown could add without weakening the recovery guarantee.)
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// [`JobServer::shutdown`] under its test-facing name: simulates
    /// `kill -9` at a fault boundary.
    pub fn kill(mut self) {
        self.stop();
    }

    /// Graceful drain, the front half of a `SIGTERM` shutdown: stop
    /// accepting work (submissions answer `503 + Retry-After`, metrics
    /// advertise `gdf_draining 1`), stop running jobs at their next
    /// fault boundary with their checkpoints and `running`/`queued`
    /// records left on disk, and block until every worker is idle. The
    /// caller then finishes with [`JobServer::shutdown`]; a restarted
    /// server (or a coordinator stealing the units) resumes everything
    /// exactly where it stopped. Deliberately *additive* to the
    /// crash-style stop — drain never updates disk state the crash path
    /// would not, so the recovery guarantee is unchanged.
    pub fn drain(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
        while self.state.metrics.busy.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn stop(&mut self) {
        if self.state.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        self.state.queue.close();
        for job in self.state.jobs.lock().expect("job store poisoned").values() {
            job.cancel.store(true, Ordering::Release);
        }
        // Unblock accept() so the acceptor observes the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        for job in self.state.jobs.lock().expect("job store poisoned").values() {
            job.events.close();
        }
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        self.stop();
    }
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

/// Replays `job-<n>/job.json` records: terminal jobs re-listed,
/// queued/running jobs re-queued (their artifact checkpoint, if any,
/// makes the re-run a resume).
fn recover_jobs(state: &Arc<ServerState>) -> Result<(), ServeError> {
    let mut recovered: Vec<(JobId, Arc<Job>)> = Vec::new();
    let mut max_id = 0u64;
    let entries = std::fs::read_dir(&state.dir)
        .map_err(|e| ServeError::Io(format!("{}: {e}", state.dir.display())))?;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(id) = name
            .to_str()
            .and_then(|n| n.strip_prefix("job-"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        let record_path = Job::record_path(&state.dir, id);
        let text = match gdf_core::io::read_to_string(&record_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("gdf-serve: skipping job {id}: {e}");
                continue;
            }
        };
        match decode_record(&text) {
            Ok((record_id, spec, status)) if record_id == id => {
                max_id = max_id.max(id);
                let job = Arc::new(Job::new(id, spec));
                *job.status.lock().expect("job status poisoned") = status;
                recovered.push((id, job));
            }
            Ok((record_id, _, _)) => {
                eprintln!("gdf-serve: skipping job {id}: record claims id {record_id}")
            }
            Err(e) => eprintln!("gdf-serve: skipping job {id}: {e}"),
        }
    }
    let watermark = gdf_core::io::read_to_string(&ServerState::watermark_path(&state.dir))
        .ok()
        .and_then(|text| text.trim().parse::<u64>().ok())
        .unwrap_or(0);
    state
        .next_id
        .store((max_id + 1).max(watermark), Ordering::Release);
    recovered.sort_by_key(|(id, _)| *id);
    let mut jobs = state.jobs.lock().expect("job store poisoned");
    for (id, job) in recovered {
        let status = job.status();
        if status.state.is_terminal() {
            job.events.close();
        } else {
            // Interrupted mid-flight: back to the queue, in id order so
            // recovery is deterministic. Overflow beyond the queue bound
            // goes to the backlog, which idle workers drain.
            job.status.lock().expect("job status poisoned").state = JobState::Queued;
            if state.queue.push(job.spec.tenant.as_deref(), id).is_err() {
                state
                    .backlog
                    .lock()
                    .expect("backlog poisoned")
                    .push_back(id);
            }
        }
        jobs.insert(id, job);
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------

/// Observer polling the job's cancel flag (set by `DELETE` and by
/// server stop) between faults.
struct CancelWatch {
    job: Arc<Job>,
}

impl Observer for CancelWatch {
    fn cancelled(&mut self) -> bool {
        self.job.cancel.load(Ordering::Acquire)
    }
}

/// Observer polling the server's drain flag between faults — what makes
/// a running full job stop at its next fault boundary during a graceful
/// drain (its checkpoint and `running` record stay, so the job resumes).
struct DrainWatch {
    state: Arc<ServerState>,
}

impl Observer for DrainWatch {
    fn cancelled(&mut self) -> bool {
        self.state.draining.load(Ordering::Acquire)
    }
}

/// One job's phase sink: it forwards every span to the server's sink
/// (the `/metrics` histograms) and keeps a copy for the job's profile
/// and trace.
struct JobSink {
    server: Arc<dyn PhaseSink>,
    records: Mutex<Vec<PhaseRecord>>,
}

impl PhaseSink for JobSink {
    fn record(&self, phase: &'static str, started: Instant, duration: Duration) {
        self.server.record(phase, started, duration);
        self.records
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(PhaseRecord {
                phase,
                started,
                duration,
            });
    }
}

/// The parts of [`JobObs`] that exist only with observability on.
struct JobCapture {
    tracer: Tracer,
    sink: Arc<JobSink>,
    _scope: ScopedSink,
}

/// Per-job observability bundle: a tracer rooted at the job's trace
/// context (from the submission's `X-Gdf-Trace` header, or digest
/// -derived — never wall-clock random), the job's phase sink and, for
/// full jobs, a profiler handle. Inert when [`ServeConfig::obs`] is off.
/// Strictly a side channel: nothing here touches the canonical artifact
/// bytes.
struct JobObs {
    capture: Option<JobCapture>,
    profile: Option<ProfileHandle>,
}

impl JobObs {
    /// Starts observing a job on the current worker thread: the job's
    /// sink is scoped here until [`JobObs::finish`], and the engine hands
    /// it to the generation threads it spawns, so every span of the job
    /// is attributed to it.
    fn begin(state: &ServerState, job: &Job) -> JobObs {
        let Some(server) = state.phase_sink.clone() else {
            return JobObs {
                capture: None,
                profile: None,
            };
        };
        let ctx = job.status().trace.unwrap_or_else(|| {
            TraceCtx::root(&format!(
                "gdf-job:{}:{}",
                job.id,
                gdf_core::digest::config_digest(&job.spec.config).hex()
            ))
        });
        let sink = Arc::new(JobSink {
            server,
            records: Mutex::new(Vec::new()),
        });
        JobObs {
            capture: Some(JobCapture {
                tracer: Tracer::new(ctx),
                _scope: gdf_core::phase::scoped(sink.clone()),
                sink,
            }),
            profile: None,
        }
    }

    /// Finishes observing: folds the job's phase records into its
    /// `profile` block (persisted by the caller's subsequent `finalize`)
    /// and writes the trace document in one atomic pass through the I/O
    /// facade — a torn write loses the trace, never corrupts the job.
    fn finish(self, state: &ServerState, job: &Job, started: Instant) {
        let Some(JobCapture {
            tracer,
            sink,
            _scope: scope,
        }) = self.capture
        else {
            return;
        };
        drop(scope);
        let records = std::mem::take(&mut *sink.records.lock().unwrap_or_else(|e| e.into_inner()));
        let mut data = match &self.profile {
            Some(handle) => {
                handle.add_phases(&records);
                handle.snapshot()
            }
            None => {
                let mut data = ProfileData::default();
                data.add_phases(&records);
                data
            }
        };
        if data.wall_us == 0 {
            // Shard jobs (and failures before the engine ran) have no
            // profiler-reported wall time; the worker's is the truth.
            data.wall_us = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        }
        {
            let mut status = job.status.lock().expect("job status poisoned");
            status.trace = Some(tracer.ctx());
            status.profile = Some(data.to_json());
        }
        for r in &records {
            let start_us = r
                .started
                .checked_duration_since(tracer.epoch())
                .unwrap_or_default()
                .as_micros()
                .min(u64::MAX as u128) as u64;
            tracer.record(
                r.phase,
                start_us,
                r.duration.as_micros().min(u64::MAX as u128) as u64,
            );
        }
        let dir = state.dir.join("traces");
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("gdf-serve: create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("job-{}.ndjson", job.id));
        let doc = tracer.encode(&format!("job:{}", job.id));
        match gdf_core::io::write_atomic(&path, &doc) {
            Ok(()) => state.metrics.traces_written.inc(),
            Err(e) => eprintln!("gdf-serve: job {} trace write failed: {e}", job.id),
        }
    }
}

fn worker_loop(state: Arc<ServerState>) {
    let _sink = state.phase_sink.clone().map(gdf_core::phase::scoped);
    loop {
        if state.stopping.load(Ordering::Acquire) {
            return;
        }
        state.drain_backlog();
        let Some(id) = state.queue.pop(WORKER_POLL) else {
            if state.queue.is_closed() {
                return;
            }
            continue;
        };
        let Some(job) = state.job(id) else { continue };
        state.metrics.busy.fetch_add(1, Ordering::AcqRel);
        run_job(&state, &job);
        state.metrics.busy.fetch_sub(1, Ordering::AcqRel);
        // Release the dispatch slot: the owner's lane may have been at
        // `max_running`.
        state.queue.finish(job.spec.tenant.as_deref());
    }
}

/// Publishes a completed run's canonical bytes into the result cache.
/// Best-effort: a store failure costs future cache hits, never the job.
fn publish_run(state: &ServerState, spec: &JobSpec, artifact: &RunArtifact) {
    if let Err(e) = gdf_store::publish_run(&state.store, &spec.source, &spec.config, artifact) {
        eprintln!("gdf-serve: result-cache publish failed: {e}");
    }
}

/// How a job body ended; [`run_job`] makes the terminal transition.
enum Ending {
    /// Completed; a full job carries its report summary.
    Done(Option<ReportSummary>),
    /// A client cancel stopped it.
    Cancelled,
    /// It failed with this message.
    Failed(String),
    /// A server stop or drain stopped it: the `running` record and the
    /// checkpoint stay on disk for the next server.
    Interrupted,
}

/// The job lifecycle: start checks, the `running` record, parse, the
/// full or the shard body, then one terminal transition for whatever
/// the body reports.
fn run_job(state: &Arc<ServerState>, job: &Arc<Job>) {
    if state.stopping.load(Ordering::Acquire) || state.draining.load(Ordering::Acquire) {
        // Start nothing new. The job's `queued` record is already on
        // disk; a restarted server (or a stealing coordinator) picks it
        // up.
        return;
    }
    if job.cancel.load(Ordering::Acquire) {
        state.finalize(job, JobState::Cancelled, None, None);
        return;
    }
    let started = Instant::now();
    job.status.lock().expect("job status poisoned").state = JobState::Running;
    state.persist(job);
    let mut obs = JobObs::begin(state, job);

    let resolved = {
        let _span = gdf_core::phase::start("parse");
        job.spec.source.resolve()
    };
    let ending = match resolved {
        Err(e) => Ending::Failed(e.to_string()),
        // Shard jobs take the pure-generation path: target the tagged
        // universe range, checkpoint a shard document, never touch the
        // credit RNG (see `gdf_core::shard` for the contract).
        Ok(circuit) => match &job.spec.shard {
            Some(shard) => run_shard_body(state, job, &circuit, shard),
            None => run_full_body(state, job, &circuit, &mut obs),
        },
    };
    let (terminal, error, report) = match ending {
        Ending::Interrupted => return,
        Ending::Done(report) => {
            state.metrics.record_done(started.elapsed());
            (JobState::Done, None, report)
        }
        Ending::Cancelled => (JobState::Cancelled, None, None),
        Ending::Failed(e) => {
            state.metrics.failed.inc();
            (JobState::Failed, Some(e), None)
        }
    };
    obs.finish(state, job, started);
    state.finalize(job, terminal, error, report);
}

/// A full job's body: adopt a complete artifact or resume a checkpoint
/// left on disk under the same config, run the engine with the job's
/// observers, then save and publish the artifact.
fn run_full_body(
    state: &Arc<ServerState>,
    job: &Arc<Job>,
    circuit: &Circuit,
    obs: &mut JobObs,
) -> Ending {
    let spec = &job.spec;
    let config = spec.config;
    let artifact_path = Job::artifact_path(&state.dir, job.id);

    let make_builder = || -> AtpgBuilder<'_> {
        Atpg::builder(circuit)
            .backend(config.backend)
            .model(config.model)
            .sensitization(config.sensitization)
            .universe(config.universe)
            .limits(config.limits)
            .seed(config.seed)
            .parallelism(spec.parallelism)
    };
    let mut builder = make_builder();

    // A pre-existing artifact under the same config is either a complete
    // run (crash after the final save — adopt it) or a resumable
    // checkpoint. Foreign-config leftovers are ignored and overwritten.
    if artifact_path.exists() {
        match RunArtifact::load(&artifact_path) {
            Ok(artifact) if artifact.config() == config && !artifact.partial => {
                let report = artifact.report().map(ReportSummary::from);
                {
                    let _span = gdf_core::phase::start("publish");
                    publish_run(state, spec, &artifact);
                }
                return Ending::Done(report);
            }
            Ok(artifact) if artifact.config() == config => {
                match make_builder().resume_from(&artifact) {
                    Ok(resumed) => builder = resumed,
                    Err(e) => {
                        eprintln!(
                            "gdf-serve: job {} checkpoint unusable ({e}); restarting",
                            job.id
                        )
                    }
                }
            }
            _ => {}
        }
    }

    let sink_job = Arc::clone(job);
    builder = builder
        .observer(EventObserver::new(move |event| {
            {
                let mut status = sink_job.status.lock().expect("job status poisoned");
                match &event {
                    ProgressEvent::Started { total_faults, .. } => status.total = *total_faults,
                    ProgressEvent::Progress { decided, total } => {
                        status.decided = *decided;
                        status.total = *total;
                    }
                    _ => {}
                }
            }
            sink_job.events.push(event);
        }))
        .observer(
            Checkpointer::new(&artifact_path, spec.checkpoint_every)
                .with_source(spec.source.clone()),
        )
        .observer(CancelWatch {
            job: Arc::clone(job),
        })
        .observer(DrainWatch {
            state: Arc::clone(state),
        });
    if state.obs {
        let (profiler, handle) = Profiler::new();
        builder = builder.observer(profiler);
        obs.profile = Some(handle);
    }

    // Submissions are validated at POST time, but v1 job records replayed
    // from disk skip that path — reject unsupported pairings as a failed
    // job rather than a worker panic.
    let mut engine = match builder.try_build() {
        Ok(engine) => engine,
        Err(e) => return Ending::Failed(e.to_string()),
    };
    let run = engine.run();

    // The Checkpointer's cadence bounds the tail a resume recomputes.
    if state.leaves_job(job, matches!(run.stopped, Some(AtpgError::Cancelled))) {
        return Ending::Interrupted;
    }
    match run.stopped {
        None => {
            let artifact = RunArtifact::from_run(circuit, &run, config, Some(spec.source.clone()));
            let saved = {
                let _span = gdf_core::phase::start("publish");
                let saved = artifact.save(&artifact_path);
                if saved.is_ok() {
                    publish_run(state, spec, &artifact);
                }
                saved
            };
            match saved {
                Ok(()) => Ending::Done(Some(ReportSummary::from(&run.report))),
                Err(e) => Ending::Failed(e.to_string()),
            }
        }
        Some(AtpgError::Cancelled) => Ending::Cancelled,
        Some(e) => Ending::Failed(e.to_string()),
    }
}

/// A shard job's body: resume the shard document if one is on disk,
/// target every remaining fault of the range, checkpoint every
/// `checkpoint_every` outcomes, then save the document. There is no
/// report: a shard classifies nothing; the merge does.
fn run_shard_body(state: &ServerState, job: &Job, circuit: &Circuit, shard: &ShardSpec) -> Ending {
    let spec = &job.spec;
    let artifact_path = Job::artifact_path(&state.dir, job.id);
    let mut artifact = match ShardArtifact::new(
        circuit,
        Some(spec.source.clone()),
        spec.config,
        shard.lo,
        shard.hi,
    ) {
        Ok(artifact) => artifact,
        Err(e) => return Ending::Failed(e.to_string()),
    };
    // A pre-existing shard document under the same spec is a checkpoint
    // from an interrupted attempt: resume at its first hole. Foreign
    // leftovers are ignored and overwritten.
    if artifact_path.exists() {
        if let Ok(prior) = ShardArtifact::load(&artifact_path, circuit) {
            if prior.config() == &spec.config && prior.range() == (shard.lo, shard.hi) {
                artifact = prior;
            }
        }
    }

    let total = artifact.len();
    {
        let mut status = job.status.lock().expect("job status poisoned");
        status.total = total;
        status.decided = artifact.decided();
    }
    job.events.push(ProgressEvent::Started {
        engine: spec.config.backend.to_string(),
        circuit: circuit.name().to_string(),
        total_faults: total,
    });

    let every = spec.checkpoint_every.max(1);
    let mut since_checkpoint = 0usize;
    let result = artifact.run(circuit, |current| {
        let decided = current.decided();
        {
            let mut status = job.status.lock().expect("job status poisoned");
            status.decided = decided;
        }
        job.events.push(ProgressEvent::Progress { decided, total });
        since_checkpoint += 1;
        if since_checkpoint >= every {
            since_checkpoint = 0;
            if let Err(e) = current.save(&artifact_path, circuit) {
                eprintln!("gdf-serve: job {} shard checkpoint failed: {e}", job.id);
            }
        }
        !(state.stopping.load(Ordering::Acquire)
            || state.draining.load(Ordering::Acquire)
            || job.cancel.load(Ordering::Acquire))
    });

    if state.leaves_job(job, matches!(result, Ok(false))) {
        if !state.stopping.load(Ordering::Acquire) {
            // A drain stopped the shard between outcomes: persist a
            // final checkpoint (shard documents resume at their first
            // hole) for the restart or the stealing coordinator.
            if let Err(e) = artifact.save(&artifact_path, circuit) {
                eprintln!("gdf-serve: job {} drain checkpoint failed: {e}", job.id);
            }
        }
        return Ending::Interrupted;
    }
    match result {
        Ok(true) => {
            let saved = {
                let _span = gdf_core::phase::start("publish");
                artifact.save(&artifact_path, circuit)
            };
            match saved {
                Ok(()) => {
                    job.events.push(ProgressEvent::Finished {
                        tested: 0,
                        untestable: 0,
                        aborted: 0,
                        patterns: 0,
                        sequences: 0,
                    });
                    Ending::Done(None)
                }
                Err(e) => Ending::Failed(e.to_string()),
            }
        }
        Ok(false) => Ending::Cancelled,
        Err(e) => Ending::Failed(e.to_string()),
    }
}

// ---------------------------------------------------------------------
// Acceptor + router
// ---------------------------------------------------------------------

/// Decrements the live-connection count when a handler thread exits,
/// however it exits.
struct ConnectionGuard(Arc<std::sync::atomic::AtomicUsize>);

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

fn accept_loop(state: Arc<ServerState>, listener: TcpListener) {
    for stream in listener.incoming() {
        if state.stopping.load(Ordering::Acquire) {
            return;
        }
        let Ok(mut stream) = stream else { continue };
        if state.connections.fetch_add(1, Ordering::AcqRel) >= MAX_CONNECTIONS {
            state.connections.fetch_sub(1, Ordering::AcqRel);
            let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
            let _ = Response::error(503, "too many connections").write(&mut stream);
            continue;
        }
        let guard = ConnectionGuard(Arc::clone(&state.connections));
        let state = Arc::clone(&state);
        let spawned = std::thread::Builder::new()
            .name("gdf-serve-conn".into())
            .spawn(move || {
                let _guard = guard;
                handle_connection(state, stream);
            });
        // On spawn failure the guard moved into the closure is gone with
        // it, and `spawn` dropping the closure runs the decrement.
        let _ = spawned;
    }
}

fn handle_connection(state: Arc<ServerState>, stream: TcpStream) {
    let _sink = state.phase_sink.clone().map(gdf_core::phase::scoped);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut stream = stream;
    match read_request(&mut reader, state.body_limit) {
        Ok(Some(request)) => route(&state, request, &mut stream),
        Ok(None) => {}
        Err(e) => {
            let status = match e {
                HttpError::TooLarge(_) => 413,
                HttpError::Malformed(_) => 400,
                HttpError::Io(_) => return,
            };
            let _ = Response::error(status, e.to_string()).write(&mut stream);
        }
    }
}

fn route(state: &Arc<ServerState>, request: Request, stream: &mut TcpStream) {
    let path = request.path.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    // The route *pattern* for the HTTP request counter — ids must not
    // explode the series cardinality, so they label as `{id}`.
    let route_name = match segments.as_slice() {
        ["healthz"] => "/healthz",
        ["metrics"] => "/metrics",
        ["jobs"] => "/jobs",
        ["jobs", _] => "/jobs/{id}",
        ["jobs", _, "artifact"] => "/jobs/{id}/artifact",
        ["jobs", _, "patterns"] => "/jobs/{id}/patterns",
        ["jobs", _, "events"] => "/jobs/{id}/events",
        _ => "other",
    };
    // Job-mutating routes pass bearer auth when a registry is loaded.
    // Everything else — reads, /healthz, /metrics — stays open (the
    // fleet health probe scrapes /metrics unauthenticated).
    let mutating = matches!(
        (request.method.as_str(), segments.as_slice()),
        ("POST", ["jobs"]) | ("DELETE", ["jobs", _])
    );
    let tenant: Option<String> = match &state.tenancy {
        Some(t) if mutating => match t.registry.authorize(request.header("authorization")) {
            Ok(spec) => Some(spec.id.clone()),
            Err(e) => {
                let response = Response::error(e.status(), e.message());
                state.record_http(&request.method, route_name, response.status);
                let _ = response.write(stream);
                return;
            }
        },
        _ => None,
    };
    let response = match (request.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => handle_health(state),
        ("GET", ["metrics"]) => handle_metrics(state),
        ("POST", ["jobs"]) => handle_submit(state, &request, tenant.as_deref()),
        ("GET", ["jobs"]) => handle_list(state),
        ("GET", ["jobs", id]) => with_job(state, id, |job| {
            Response::json(200, &status_json(job, true))
        }),
        ("DELETE", ["jobs", id]) => with_job(state, id, |job| {
            handle_delete(state, job, tenant.as_deref())
        }),
        ("GET", ["jobs", id, "artifact"]) => with_job(state, id, |job| handle_artifact(state, job)),
        ("GET", ["jobs", id, "patterns"]) => with_job(state, id, |job| handle_patterns(state, job)),
        ("GET", ["jobs", id, "events"]) => {
            // Streaming: takes over the connection, no Response to write.
            match lookup(state, id) {
                Ok(job) => {
                    state.record_http(&request.method, route_name, 200);
                    stream_events(&job, stream);
                    return;
                }
                Err(response) => response,
            }
        }
        // Known paths with the wrong method are 405; everything else —
        // including unknown sub-resources like /jobs/7/artifacts — 404.
        (
            _,
            ["healthz" | "metrics"]
            | ["jobs"]
            | ["jobs", _]
            | ["jobs", _, "events" | "artifact" | "patterns"],
        ) => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such endpoint"),
    };
    state.record_http(&request.method, route_name, response.status);
    let _ = response.write(stream);
}

fn lookup(state: &Arc<ServerState>, id: &str) -> Result<Arc<Job>, Response> {
    let id: JobId = id
        .parse()
        .map_err(|_| Response::error(400, format!("bad job id `{id}`")))?;
    state
        .job(id)
        .ok_or_else(|| Response::error(404, format!("no job {id}")))
}

fn with_job(state: &Arc<ServerState>, id: &str, f: impl FnOnce(&Arc<Job>) -> Response) -> Response {
    match lookup(state, id) {
        Ok(job) => f(&job),
        Err(response) => response,
    }
}

fn handle_health(state: &Arc<ServerState>) -> Response {
    let jobs = state.jobs.lock().expect("job store poisoned");
    let mut active = 0usize;
    for job in jobs.values() {
        if job.status().state == JobState::Running {
            active += 1;
        }
    }
    Response::json(
        200,
        &Json::Obj(vec![
            ("status".into(), Json::Str("ok".into())),
            ("jobs".into(), Json::Num(jobs.len() as f64)),
            ("running".into(), Json::Num(active as f64)),
            ("queued".into(), Json::Num(state.queue.len() as f64)),
            ("workers".into(), Json::Num(state.workers as f64)),
        ]),
    )
}

/// `GET /metrics`: the full registry in Prometheus text exposition
/// format — what the fleet coordinator's health probe scrapes, and what
/// an ordinary Prometheus can scrape unchanged. Pool gauges are
/// computed per scrape; every pre-obs series keeps its exact name and
/// type (see the compat test in `tests/obs_metrics.rs`).
fn handle_metrics(state: &Arc<ServerState>) -> Response {
    let (running, queued_jobs) = {
        let jobs = state.jobs.lock().expect("job store poisoned");
        let mut running = 0usize;
        let mut queued = 0usize;
        for job in jobs.values() {
            match job.status().state {
                JobState::Running => running += 1,
                JobState::Queued => queued += 1,
                _ => {}
            }
        }
        (running, queued)
    };
    let workers = state.workers;
    let busy = state.metrics.busy.load(Ordering::Acquire).min(workers);
    let store_stats = state.store.stats().unwrap_or_default();
    let m = &state.metrics;
    m.queue_depth.set(state.queue.len() as f64);
    m.jobs_running.set(running as f64);
    m.jobs_queued.set(queued_jobs as f64);
    m.workers.set(workers as f64);
    m.workers_busy.set(busy as f64);
    m.worker_utilization.set(busy as f64 / workers as f64);
    m.draining.set(if state.draining.load(Ordering::Acquire) {
        1.0
    } else {
        0.0
    });
    m.store_bytes.set(store_stats.bytes as f64);
    m.store_objects.set(store_stats.objects as f64);
    if let Some(t) = &state.tenancy {
        // Lanes the scheduler has not seen yet keep their pre-registered
        // zero; the ownerless "" lane has no gauge and is skipped.
        for (tenant, queued, running) in state.queue.snapshot() {
            if let Some(g) = t.queued.get(&tenant) {
                g.set(queued as f64);
            }
            if let Some(g) = t.running.get(&tenant) {
                g.set(running as f64);
            }
        }
    }
    Response::text(200, state.registry.render())
}

fn handle_list(state: &Arc<ServerState>) -> Response {
    let jobs = state.jobs.lock().expect("job store poisoned");
    let list: Vec<Json> = jobs.values().map(|job| status_json(job, false)).collect();
    Response::json(200, &Json::Obj(vec![("jobs".into(), Json::Arr(list))]))
}

fn status_json(job: &Arc<Job>, verbose: bool) -> Json {
    let status = job.status();
    let mut fields = vec![
        ("id".into(), Json::Num(job.id as f64)),
        ("state".into(), Json::Str(status.state.name().into())),
        ("circuit".into(), Json::Str(job.spec.source.name.clone())),
        (
            "backend".into(),
            Json::Str(job.spec.config.backend.to_string()),
        ),
        ("decided".into(), Json::Num(status.decided as f64)),
        ("total".into(), Json::Num(status.total as f64)),
        (
            "error".into(),
            match &status.error {
                Some(e) => Json::Str(e.clone()),
                None => Json::Null,
            },
        ),
        (
            "report".into(),
            match &status.report {
                None => Json::Null,
                Some(r) => r.encode(),
            },
        ),
    ];
    if let Some(shard) = &job.spec.shard {
        fields.push(("shard".into(), shard.encode()));
    }
    if let Some(tenant) = &job.spec.tenant {
        fields.push(("tenant".into(), Json::Str(tenant.clone())));
    }
    if verbose {
        fields.extend(encode_config(&job.spec.config));
        fields.push(("parallelism".into(), Json::Num(job.spec.parallelism as f64)));
        if let Some(trace) = &status.trace {
            fields.push(("trace".into(), Json::Str(trace.header_value())));
        }
        if let Some(profile) = &status.profile {
            fields.push(("profile".into(), profile.clone()));
        }
    }
    Json::Obj(fields)
}

fn handle_submit(state: &Arc<ServerState>, request: &Request, tenant: Option<&str>) -> Response {
    let body = match std::str::from_utf8(&request.body) {
        Ok(text) => text,
        Err(_) => return Response::error(400, "body is not UTF-8"),
    };
    let parsed = match Json::parse_with_limits(body, ParseLimits::network()) {
        Ok(parsed) => parsed,
        Err(e) => return Response::error(400, format!("bad JSON: {e}")),
    };
    let mut spec = match decode_submission(&parsed, state.default_checkpoint_every) {
        Ok(spec) => spec,
        Err(message) => return Response::error(400, message),
    };
    spec.tenant = tenant.map(str::to_string);
    if state.stopping.load(Ordering::Acquire) {
        return Response::error(503, "server is stopping");
    }
    if state.draining.load(Ordering::Acquire) {
        // `Retry-After` marks this 503 as a deliberate drain verdict:
        // clients route elsewhere instead of retrying here.
        return Response::error(503, "server is draining; resubmit elsewhere").with_retry_after(5);
    }
    // Request-rate admission, before the cache peek: the rate limit
    // prices the *request*, not the work, so cache hits count too.
    if let (Some(t), Some(tenant)) = (&state.tenancy, tenant) {
        if let Err(wait) = t.take_rate_token(tenant) {
            t.record_rejected(tenant);
            return Response::error(
                429,
                format!("tenant `{tenant}` is over its request rate; retry later"),
            )
            .with_retry_after(wait.ceil().max(1.0) as u32);
        }
    }

    // Exact result cache: a stored artifact under the same
    // `(circuit, config)` key is byte-for-byte what this job would
    // compute (the determinism invariant), so answer it as an
    // instantly-Done job instead of burning a generation run. Any
    // validation failure falls through to the normal queue path.
    let cached = match &spec.shard {
        Some(_) => None,
        None => lookup_run(&state.store, &spec.source, &spec.config),
    };

    let id = state.next_id.fetch_add(1, Ordering::AcqRel);
    let job = Arc::new(Job::new(id, spec));
    if state.obs {
        // The job's trace context: the caller's `X-Gdf-Trace` (so fleet
        // shard jobs correlate under one campaign trace), or a root
        // derived from the job id + config digest — never random.
        let ctx = request
            .header(TRACE_HEADER)
            .and_then(TraceCtx::parse)
            .unwrap_or_else(|| {
                TraceCtx::root(&format!(
                    "gdf-job:{id}:{}",
                    gdf_core::digest::config_digest(&job.spec.config).hex()
                ))
            });
        job.status.lock().expect("job status poisoned").trace = Some(ctx);
    }
    let dir = Job::dir(&state.dir, id);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return Response::error(500, format!("create {}: {e}", dir.display()));
    }
    state.persist(&job);
    {
        let mut jobs = state.jobs.lock().expect("job store poisoned");
        jobs.insert(id, Arc::clone(&job));
        state.persist_watermark();
    }
    let mut served_from_cache = false;
    if let Some((text, artifact)) = cached {
        // Materialize the cached bytes as the job's artifact so fetch,
        // patterns, and restart recovery see a normal completed job.
        match write_atomic(&Job::artifact_path(&state.dir, id), &text) {
            Ok(()) => {
                {
                    let mut status = job.status.lock().expect("job status poisoned");
                    status.decided = artifact.decided();
                    status.total = artifact.total();
                }
                let report = artifact.report().map(ReportSummary::from);
                state.metrics.cache_hits.inc();
                state.metrics.completed.inc();
                state.finalize(&job, JobState::Done, None, report);
                served_from_cache = true;
            }
            Err(e) => {
                // Cache unusable right now — run the job for real.
                eprintln!("gdf-serve: cached artifact write failed ({e}); generating");
            }
        }
    }
    if !served_from_cache {
        if let Err(e) = state.queue.push(job.spec.tenant.as_deref(), id) {
            state.jobs.lock().expect("job store poisoned").remove(&id);
            // A subscriber that raced onto /jobs/<id>/events in the
            // insert window must see the stream end, not keepalives
            // forever.
            job.events.close();
            let _ = std::fs::remove_dir_all(&dir);
            return match e {
                // Global capacity: the server's problem.
                PushError::Full => Response::error(503, "job queue is full; retry later"),
                // The tenant's own queued-job quota: their problem —
                // a slot frees as soon as one of their jobs dispatches.
                PushError::OverQuota => {
                    let tenant = job.spec.tenant.as_deref().unwrap_or("");
                    if let Some(t) = &state.tenancy {
                        t.record_rejected(tenant);
                    }
                    Response::error(
                        429,
                        format!("tenant `{tenant}` is at its queued-job quota; retry later"),
                    )
                    .with_retry_after(1)
                }
            };
        }
    }
    if let (Some(t), Some(tenant)) = (&state.tenancy, tenant) {
        t.record_admitted(tenant);
    }
    Response::json(
        201,
        &Json::Obj(vec![
            ("id".into(), Json::Num(id as f64)),
            ("url".into(), Json::Str(format!("/jobs/{id}"))),
            ("cached".into(), Json::Bool(served_from_cache)),
        ]),
    )
}

fn handle_delete(state: &Arc<ServerState>, job: &Arc<Job>, tenant: Option<&str>) -> Response {
    // Tenant mode: a job with an owner can only be cancelled/removed by
    // that owner. Ownerless jobs (recovered from an open-mode run) stay
    // manageable by any authenticated tenant.
    if state.tenancy.is_some() {
        if let Some(owner) = job.spec.tenant.as_deref() {
            if Some(owner) != tenant {
                return Response::error(403, format!("job {} belongs to another tenant", job.id));
            }
        }
    }
    let current = job.status().state;
    let action = match current {
        JobState::Queued => {
            if state.queue.remove(job.id) {
                state.finalize(job, JobState::Cancelled, None, None);
                "cancelled"
            } else {
                // Already popped by a worker: cancel cooperatively.
                job.cancel.store(true, Ordering::Release);
                "cancelling"
            }
        }
        JobState::Running => {
            job.cancel.store(true, Ordering::Release);
            "cancelling"
        }
        JobState::Done | JobState::Failed | JobState::Cancelled => {
            state
                .jobs
                .lock()
                .expect("job store poisoned")
                .remove(&job.id);
            let _ = std::fs::remove_dir_all(Job::dir(&state.dir, job.id));
            "removed"
        }
    };
    Response::json(
        200,
        &Json::Obj(vec![
            ("id".into(), Json::Num(job.id as f64)),
            ("action".into(), Json::Str(action.into())),
        ]),
    )
}

fn handle_artifact(state: &Arc<ServerState>, job: &Arc<Job>) -> Response {
    let status = job.status();
    if status.state != JobState::Done {
        return Response::error(
            409,
            format!("job {} is {}, artifact not available", job.id, status.state),
        );
    }
    let path = Job::artifact_path(&state.dir, job.id);
    if job.spec.shard.is_some() {
        // Shard jobs persist a `gdf-shard` document, already in its
        // byte-stable encoding — serve it verbatim (through the I/O
        // facade, so fault harnesses can corrupt served artifacts too;
        // the coordinator's harvest validation heals that by requeue).
        return match gdf_core::io::read_to_string(&path) {
            Ok(text) => Response::json_bytes(200, text.into_bytes()),
            Err(e) => Response::error(500, format!("{}: {e}", path.display())),
        };
    }
    match RunArtifact::load(path) {
        Ok(artifact) => Response::json_bytes(200, artifact.canonical_encode()),
        Err(e) => Response::error(500, e.to_string()),
    }
}

fn handle_patterns(state: &Arc<ServerState>, job: &Arc<Job>) -> Response {
    let status = job.status();
    if status.state != JobState::Done {
        return Response::error(
            409,
            format!("job {} is {}, patterns not available", job.id, status.state),
        );
    }
    if job.spec.shard.is_some() {
        return Response::error(
            409,
            format!(
                "job {} is a shard job; patterns come from the merged artifact",
                job.id
            ),
        );
    }
    let result = RunArtifact::load(Job::artifact_path(&state.dir, job.id)).and_then(|artifact| {
        let circuit = artifact.circuit.resolve()?;
        let run = artifact.to_run(&circuit)?;
        Ok(PatternSet::from_run(
            &circuit,
            &run,
            &job.spec.config.backend.to_string(),
            job.spec.config.seed,
            Some(job.spec.source.clone()),
        )
        .encode())
    });
    match result {
        Ok(encoded) => Response::json_bytes(200, encoded),
        Err(e) => Response::error(500, e.to_string()),
    }
}

/// Per-write cap on `/events` streams. A reader that stops draining
/// eventually blocks our writes; failing the write after 10 seconds
/// frees this connection slot instead of pinning a handler thread for
/// the job's lifetime ([`MAX_CONNECTIONS`] is a hard cap — a handful of
/// stalled streams must not brown the server out for everyone else).
const STREAM_WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// The keepalive payload on a silent stream: deliberately *padded* (a
/// KiB of blank lines — NDJSON consumers skip them). Tiny keepalives
/// let a stalled reader's TCP receive window absorb writes for hours
/// before anything blocks; padded ones fill it within a bounded number
/// of rounds, so the stall probe below fires in seconds.
const STREAM_KEEPALIVE: &[u8] = &[b'\n'; 1024];
/// Consecutive keepalive rounds with bytes still sitting in the
/// socket's send queue before the subscriber is declared stalled.
const STREAM_STALL_ROUNDS: u32 = 5;

/// Bytes unsent/unacknowledged in `stream`'s kernel send queue
/// (`TIOCOUTQ`), or `None` where the probe is unavailable. A healthy
/// subscriber drains to zero between keepalives; a stalled one keeps a
/// growing residue once its receive window is full.
#[cfg(target_os = "linux")]
fn send_queue_depth(stream: &TcpStream) -> Option<usize> {
    use std::os::fd::AsRawFd;
    const TIOCOUTQ: std::ffi::c_ulong = 0x5411;
    extern "C" {
        fn ioctl(fd: std::ffi::c_int, request: std::ffi::c_ulong, ...) -> std::ffi::c_int;
    }
    let mut pending: std::ffi::c_int = 0;
    match unsafe { ioctl(stream.as_raw_fd(), TIOCOUTQ, &mut pending) } {
        0 => Some(pending.max(0) as usize),
        _ => None,
    }
}

#[cfg(not(target_os = "linux"))]
fn send_queue_depth(_stream: &TcpStream) -> Option<usize> {
    None
}

/// Streams the job's event log as NDJSON chunks: full replay from the
/// start of this server process, then live until the job closes it.
/// Once a job is terminal its log is compacted to the last
/// [`TERMINAL_EVENT_TAIL`] events, so a late subscriber to a large
/// finished job replays the tail (the `finished` event included), not
/// the whole per-fault history — the artifact is the durable record.
///
/// Slow readers cannot pin the connection slot: a busy stream trips
/// [`STREAM_WRITE_TIMEOUT`] once the socket buffers fill, and a silent
/// stream (keepalives only — e.g. a queued job) is cut by the
/// `TIOCOUTQ` stall probe after [`STREAM_STALL_ROUNDS`] rounds.
fn stream_events(job: &Arc<Job>, stream: &mut TcpStream) {
    // Streams outlive ordinary requests; only cap per-write time.
    let _ = stream.set_write_timeout(Some(STREAM_WRITE_TIMEOUT));
    // A second handle onto the socket for the stall probe — the
    // ChunkedWriter borrows `stream` for the stream's lifetime.
    let probe = stream.try_clone().ok();
    let Ok(mut writer) = ChunkedWriter::start(&mut *stream, 200, "application/x-ndjson") else {
        return;
    };
    let mut position = 0usize;
    let mut stalled_rounds = 0u32;
    loop {
        let (batch, next, closed) = job.events.wait_from(position, EVENT_POLL);
        if batch.is_empty() && !closed {
            // Keepalive on a silent stream: keeps the subscriber's read
            // timeout from firing while the job sits in the queue, and
            // detects a vanished subscriber. Consumers skip blank lines.
            //
            // Probe *before* writing: the previous round's payload has
            // had a full EVENT_POLL to drain, so any residue means the
            // reader is not consuming — its kernel buffers would
            // otherwise absorb padded keepalives quietly until the
            // write timeout, and tiny ones nearly forever.
            match probe.as_ref().and_then(send_queue_depth) {
                Some(pending) if pending > 0 => {
                    stalled_rounds += 1;
                    if stalled_rounds >= STREAM_STALL_ROUNDS {
                        return; // stalled subscriber: free the slot
                    }
                }
                _ => stalled_rounds = 0,
            }
            if writer.chunk(STREAM_KEEPALIVE).is_err() {
                return;
            }
            continue;
        }
        for event in &batch {
            let mut line = event.encode().to_string();
            line.push('\n');
            if writer.chunk(line.as_bytes()).is_err() {
                return; // subscriber went away
            }
        }
        position = next;
        if closed && batch.is_empty() {
            break;
        }
    }
    let _ = writer.finish();
}

// ---------------------------------------------------------------------
// Submission codec
// ---------------------------------------------------------------------

/// Builds the `POST /jobs` body for a suite reference (`suite:s27`).
pub fn submission_for_suite(reference: &str, config: &RunConfig) -> Json {
    Json::Obj(vec![
        ("circuit".into(), Json::Str(reference.into())),
        ("config".into(), Json::Obj(encode_config(config))),
    ])
}

/// Builds the `POST /jobs` body for inline `.bench` text.
pub fn submission_for_bench(name: &str, bench: &str, config: &RunConfig) -> Json {
    Json::Obj(vec![
        (
            "circuit".into(),
            Json::Obj(vec![
                ("name".into(), Json::Str(name.into())),
                ("bench".into(), Json::Str(bench.into())),
            ]),
        ),
        ("config".into(), Json::Obj(encode_config(config))),
    ])
}

/// Tags a submission body as a *shard job* covering universe indexes
/// `[lo, hi)`, with a free-form provenance label (the fleet coordinator
/// uses `fleet:<plan>/unit-<k>`). The job then produces a `gdf-shard`
/// document instead of a run artifact.
pub fn submission_with_shard(mut body: Json, lo: usize, hi: usize, tag: &str) -> Json {
    if let Json::Obj(fields) = &mut body {
        fields.push((
            "shard".into(),
            ShardSpec {
                lo,
                hi,
                tag: tag.into(),
            }
            .encode(),
        ));
    }
    body
}

/// Adds runtime options to a submission body built by the helpers
/// above. Pass `checkpoint_every: None` to leave the cadence to the
/// server's configured default.
pub fn submission_with_runtime(
    mut body: Json,
    parallelism: usize,
    checkpoint_every: Option<usize>,
) -> Json {
    if let Json::Obj(fields) = &mut body {
        fields.push(("parallelism".into(), Json::Num(parallelism as f64)));
        if let Some(every) = checkpoint_every {
            fields.push(("checkpoint_every".into(), Json::Num(every as f64)));
        }
    }
    body
}

/// Decodes a submission: `circuit` (suite ref string or `{name, bench}`
/// object) plus an optional, *partial* `config` object — absent fields
/// take the [`RunConfig::new`] defaults, and both the CLI-style short
/// forms (`"universe": "stems"`, decimal seeds) and the artifact-style
/// full forms (universe objects, hex seeds) are accepted.
pub fn decode_submission(j: &Json, default_checkpoint: usize) -> Result<JobSpec, String> {
    let source = match j.get("circuit") {
        Some(Json::Str(reference)) => {
            let Some(name) = reference.strip_prefix("suite:") else {
                return Err(format!(
                    "circuit string must be `suite:<name>`, got `{reference}`"
                ));
            };
            let circuit = gdf_netlist::suite::by_name(name)
                .ok_or_else(|| format!("unknown suite circuit `{name}`"))?;
            CircuitSource::suite(&circuit, name)
        }
        Some(obj @ Json::Obj(_)) => {
            if let Some(Json::Str(reference)) = obj.get("ref") {
                let Some(name) = reference.strip_prefix("suite:") else {
                    return Err(format!("unknown circuit reference `{reference}`"));
                };
                let circuit = gdf_netlist::suite::by_name(name)
                    .ok_or_else(|| format!("unknown suite circuit `{name}`"))?;
                CircuitSource::suite(&circuit, name)
            } else {
                let bench = obj
                    .get("bench")
                    .and_then(Json::as_str)
                    .ok_or("circuit object needs a `bench` field with .bench text")?;
                let name = obj
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("circuit")
                    .to_string();
                let circuit = gdf_netlist::parse_bench(&name, bench)
                    .map_err(|e| format!("bad .bench source: {e}"))?;
                CircuitSource::bench(&circuit, bench)
            }
        }
        _ => return Err("submission needs a `circuit` (suite ref or {name, bench})".into()),
    };
    // Both arms above already proved the source resolves (suite lookup /
    // parse_bench), so a bad submission fails here at POST time and the
    // worker's later resolve() cannot surprise.
    let config = decode_submission_config(j.get("config"))?;
    let shard = match j.get("shard") {
        None | Some(Json::Null) => None,
        Some(s) => {
            let shard = ShardSpec::decode(s)?;
            // Validate the range against the enumerated universe at POST
            // time, like every other submission field — a worker must
            // not be the first to notice a bad range.
            let circuit = source.resolve().map_err(|e| e.to_string())?;
            let total = config
                .model
                .model()
                .enumerate(&circuit, &config.universe)
                .len();
            if shard.hi > total {
                return Err(format!(
                    "shard range [{}‥{}) does not fit a universe of {total} faults",
                    shard.lo, shard.hi
                ));
            }
            Some(shard)
        }
    };
    Ok(JobSpec {
        source,
        config,
        // Stamped by the submit handler from the authorized token,
        // never taken from the body — a client cannot claim a tenant.
        tenant: None,
        parallelism: j
            .get("parallelism")
            .and_then(Json::as_usize)
            .unwrap_or(1)
            .clamp(1, 64),
        checkpoint_every: j
            .get("checkpoint_every")
            .and_then(Json::as_usize)
            .unwrap_or(default_checkpoint)
            .max(1),
        shard,
    })
}

fn decode_submission_config(j: Option<&Json>) -> Result<RunConfig, String> {
    // Backend/model/universe names go through the same parsers the CLI
    // uses (`Backend::from_str`, `ModelKind::from_str`,
    // `Sensitization::from_str`, `FaultUniverse::parse_name`), so a
    // spelling `gdf run` accepts can never be a 400 here.
    let backend = match j.and_then(|c| c.get("backend")).and_then(Json::as_str) {
        None => Backend::NonScan,
        Some(name) => name.parse()?,
    };
    let mut config = RunConfig::new(backend);
    let Some(j) = j else { return Ok(config) };
    if let Some(name) = j.get("model").and_then(Json::as_str) {
        config.model = name
            .parse()
            .map_err(|e| match name.parse::<Sensitization>() {
                Ok(_) => format!(
                    "\"model\": \"{name}\" is a sensitization; send \"sensitization\": \"{name}\""
                ),
                Err(_) => e,
            })?;
    }
    if let Some(name) = j.get("sensitization").and_then(Json::as_str) {
        config.sensitization = name.parse()?;
    }
    config.validate().map_err(|e| e.to_string())?;
    match j.get("universe") {
        None => {}
        Some(Json::Str(name)) => config.universe = FaultUniverse::parse_name(name)?,
        Some(u @ Json::Obj(_)) => {
            let flag =
                |name: &str, default: bool| u.get(name).and_then(Json::as_bool).unwrap_or(default);
            let defaults = FaultUniverse::default();
            config.universe = FaultUniverse {
                include_pi_stems: flag("pi_stems", defaults.include_pi_stems),
                include_ppi_stems: flag("ppi_stems", defaults.include_ppi_stems),
                include_branches: flag("branches", defaults.include_branches),
            };
        }
        Some(_) => return Err("universe must be a string or an object".into()),
    }
    match j.get("seed") {
        None => {}
        Some(Json::Num(_)) => {
            config.seed = j
                .get("seed")
                .and_then(Json::as_u64)
                .ok_or("seed must be a non-negative integer")?;
        }
        // String seeds follow the CLI's `--seed` grammar: decimal, or
        // hex with an explicit `0x` prefix — "123" must mean 123.
        Some(Json::Str(s)) => {
            config.seed = match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            }
            .map_err(|_| format!("bad seed `{s}`"))?;
        }
        Some(_) => return Err("seed must be a number or hex string".into()),
    }
    if let Some(l) = j.get("limits") {
        let field = |name: &str| l.get(name).and_then(Json::as_usize);
        let field_u32 = |name: &str| -> Result<Option<u32>, String> {
            field(name)
                .map(|v| u32::try_from(v).map_err(|_| format!("limit `{name}` out of range")))
                .transpose()
        };
        let mut limits = Limits::new();
        if let Some(v) = field_u32("local_backtrack_limit")? {
            limits = limits.with_local_backtrack_limit(v);
        }
        if let Some(v) = field_u32("sequential_backtrack_limit")? {
            limits = limits.with_sequential_backtrack_limit(v);
        }
        if let Some(v) = field("max_propagation_frames") {
            limits = limits.with_max_propagation_frames(v);
        }
        if let Some(v) = field("max_sync_frames") {
            limits = limits.with_max_sync_frames(v);
        }
        if let Some(v) = field("max_observation_retries") {
            limits = limits.with_max_observation_retries(v);
        }
        if let Some(v) = field("max_stuckat_frames") {
            limits = limits.with_max_stuckat_frames(v);
        }
        config.limits = limits;
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submission_round_trip_suite() {
        let config = RunConfig::new(Backend::StuckAt).with_seed(0xBEEF);
        let body = submission_with_runtime(submission_for_suite("suite:s27", &config), 2, Some(8));
        let spec = decode_submission(&body, 16).unwrap();
        assert_eq!(spec.config, config);
        assert_eq!(spec.source.reference.as_deref(), Some("suite:s27"));
        assert_eq!(spec.parallelism, 2);
        assert_eq!(spec.checkpoint_every, 8);
        // Without an explicit cadence, the server's default applies.
        let body = submission_with_runtime(submission_for_suite("suite:s27", &config), 2, None);
        let spec = decode_submission(&body, 16).unwrap();
        assert_eq!(spec.checkpoint_every, 16);
    }

    #[test]
    fn submission_partial_config_takes_defaults() {
        let body = Json::parse(
            r#"{"circuit": "suite:s27", "config": {"backend": "stuck-at", "seed": 7}}"#,
        )
        .unwrap();
        let spec = decode_submission(&body, 16).unwrap();
        assert_eq!(spec.config.backend, Backend::StuckAt);
        assert_eq!(spec.config.seed, 7);
        assert_eq!(spec.config.limits, Limits::default());
        assert_eq!(spec.checkpoint_every, 16);
    }

    #[test]
    fn submission_inline_bench() {
        let bench = gdf_netlist::to_bench(&gdf_netlist::suite::s27());
        let body = submission_for_bench("mine", &bench, &RunConfig::new(Backend::NonScan));
        let spec = decode_submission(&body, 16).unwrap();
        assert_eq!(spec.source.name, "mine");
        assert!(spec.source.reference.is_none());
        assert!(spec.source.resolve().is_ok());
    }

    #[test]
    fn submission_shard_tag() {
        let config = RunConfig::new(Backend::NonScan);
        let body = submission_with_shard(
            submission_for_suite("suite:s27", &config),
            2,
            9,
            "fleet:p/unit-0",
        );
        let spec = decode_submission(&body, 16).unwrap();
        let shard = spec.shard.expect("shard survives decoding");
        assert_eq!((shard.lo, shard.hi), (2, 9));
        assert_eq!(shard.tag, "fleet:p/unit-0");

        // A range beyond the enumerated universe is rejected at POST
        // time.
        let body = submission_with_shard(
            submission_for_suite("suite:s27", &config),
            0,
            1_000_000,
            "fleet:p/unit-1",
        );
        assert!(decode_submission(&body, 16).is_err());
    }

    #[test]
    fn submission_rejects_garbage() {
        for bad in [
            r#"{}"#,
            r#"{"circuit": "s27"}"#,
            r#"{"circuit": "suite:nope"}"#,
            r#"{"circuit": {"bench": "INPUT("}}"#,
            r#"{"circuit": "suite:s27", "config": {"backend": "quantum"}}"#,
            r#"{"circuit": "suite:s27", "config": {"universe": "everything"}}"#,
            r#"{"circuit": "suite:s27", "config": {"seed": "0xZZ"}}"#,
            r#"{"circuit": "suite:s27", "config": {"model": "robust"}}"#,
        ] {
            let parsed = Json::parse(bad).unwrap();
            assert!(decode_submission(&parsed, 16).is_err(), "accepted {bad}");
        }
        // A sensitization sent as the model names the field it belongs in.
        let body = r#"{"circuit": "suite:s27", "config": {"model": "non-robust"}}"#;
        let err = decode_submission(&Json::parse(body).unwrap(), 16)
            .err()
            .unwrap_or_default();
        assert!(err.contains("\"sensitization\""), "{err}");
    }
}
