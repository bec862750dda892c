//! The unified engine API: one builder, one trait, one outcome type for
//! all three ATPG backends.
//!
//! The paper's headline is the *combined* system, but a production test
//! flow runs several generators over the same netlist: the non-scan gate
//! delay ATPG (TDgen + SEMILET, Figure 4), the enhanced-scan baseline,
//! and SEMILET's standalone sequential stuck-at mode. This module gives
//! them one surface:
//!
//! * [`AtpgEngine`] — the object-safe trait the builder returns for
//!   every backend: `target` one fault, or `run` the whole universe;
//! * [`Atpg::builder`] — the single fluent constructor
//!   (`.backend(…)`, `.model(…)`, `.universe(…)`, `.limits(…)`,
//!   `.seed(…)`, `.observer(…)`, `.time_budget(…)`, `.parallelism(…)`);
//! * [`FaultOutcome`] / [`AtpgError`] — the shared per-fault result and
//!   error types replacing `TdGenOutcome` / `ScanOutcome` /
//!   `StuckAtOutcome` at the public boundary;
//! * [`Observer`] — streaming per-fault records, progress and
//!   cooperative cancellation, so callers no longer wait for the whole
//!   run to buffer; observers *stack* (every attached one streams every
//!   callback), and [`Observer::on_checkpoint`] hands consistent
//!   [`RunSnapshot`]s to checkpointing observers
//!   ([`crate::session::Checkpointer`], or `.checkpoint(path, every)` on
//!   the builder) — an interrupted run restarted with
//!   [`AtpgBuilder::resume_from`] finishes byte-identical to one that
//!   never stopped;
//! * fault-level parallel orchestration (`.parallelism(n)`) with a
//!   deterministic merge: results are **identical to a serial run for
//!   the same seed**, because workers only *speculate* on per-fault
//!   generation (a pure function of the fault) while classification,
//!   fault-simulation credit and the X-fill RNG stream stay on the
//!   merge thread in fault-list order.
//!
//! # Example
//!
//! ```
//! use gdf_core::engine::{Atpg, Backend};
//! use gdf_netlist::suite;
//!
//! let c = suite::s27();
//! let mut engine = Atpg::builder(&c).backend(Backend::NonScan).build();
//! let run = engine.run();
//! assert!(run.report.row.tested > 0);
//! ```

use crate::driver::{
    AtpgRun, DelayAtpg, DelayAtpgConfig, FaultClassification, FaultRecord, FsimScratch,
};
use crate::pattern::TestSequence;
use crate::phase;
use crate::report::{CircuitReport, Coverage, Table3Row};
use crate::scan::ScanDelayAtpg;
use gdf_netlist::{Circuit, DelayFault, Fault, FaultUniverse, ModelKind, NodeId};
use gdf_semilet::stuckat::{StuckAtAtpg, StuckAtConfig, StuckAtOutcome};
use gdf_tdgen::{Sensitization, TdGenConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

/// Search budgets shared by every backend, with the paper's defaults.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`Limits::new`] / [`Limits::default`] and the `with_*` setters, so
/// future budget knobs are not breaking changes.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Backtrack limit of the local (TDgen) search — the paper uses 100.
    pub local_backtrack_limit: u32,
    /// Backtrack limit of each sequential (SEMILET) frame — paper: 100.
    pub sequential_backtrack_limit: u32,
    /// Maximum slow-clock propagation frames.
    pub max_propagation_frames: usize,
    /// Maximum synchronizing-sequence length.
    pub max_sync_frames: usize,
    /// Alternative observation targets the inter-phase backtracking may
    /// try per fault (non-scan backend).
    pub max_observation_retries: usize,
    /// Maximum sequence length of the sequential stuck-at backend.
    pub max_stuckat_frames: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            local_backtrack_limit: 100,
            sequential_backtrack_limit: 100,
            max_propagation_frames: 32,
            max_sync_frames: 32,
            max_observation_retries: 4,
            max_stuckat_frames: 24,
        }
    }
}

impl Limits {
    /// The paper's default budgets.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the local (TDgen) backtrack limit.
    pub fn with_local_backtrack_limit(mut self, v: u32) -> Self {
        self.local_backtrack_limit = v;
        self
    }

    /// Sets the per-frame sequential (SEMILET) backtrack limit.
    pub fn with_sequential_backtrack_limit(mut self, v: u32) -> Self {
        self.sequential_backtrack_limit = v;
        self
    }

    /// Sets the maximum number of slow-clock propagation frames.
    pub fn with_max_propagation_frames(mut self, v: usize) -> Self {
        self.max_propagation_frames = v;
        self
    }

    /// Sets the maximum synchronizing-sequence length.
    pub fn with_max_sync_frames(mut self, v: usize) -> Self {
        self.max_sync_frames = v;
        self
    }

    /// Sets the observation-retry budget of the non-scan backend.
    pub fn with_max_observation_retries(mut self, v: usize) -> Self {
        self.max_observation_retries = v;
        self
    }

    /// Sets the maximum sequence length of the stuck-at backend.
    pub fn with_max_stuckat_frames(mut self, v: usize) -> Self {
        self.max_stuckat_frames = v;
        self
    }
}

/// Errors of the unified engine API.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtpgError {
    /// The fault's model does not match the engine (e.g. a stuck-at
    /// fault handed to a delay-fault backend).
    UnsupportedFault {
        /// Name of the rejecting engine.
        engine: &'static str,
        /// The offending fault.
        fault: Fault,
    },
    /// The configured fault model is not supported by the configured
    /// backend (e.g. transition faults on the stuck-at engine).
    UnsupportedModel {
        /// The configured backend.
        backend: Backend,
        /// The unsupported model.
        model: ModelKind,
    },
    /// An [`Observer`] requested cancellation; the run classified every
    /// remaining fault as aborted and returned early.
    Cancelled,
    /// The `time_budget` expired; the run classified every remaining
    /// fault as aborted and returned early.
    TimeBudgetExceeded,
    /// A delay-fault operation was handed an all-slow *static* sequence
    /// (no launch/capture pair), e.g. a stuck-at backend sequence passed
    /// to [`crate::driver::DelayAtpg::fault_simulate_sequence`].
    StaticSequence,
}

impl fmt::Display for AtpgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AtpgError::UnsupportedFault { engine, .. } => {
                write!(f, "fault model not supported by the {engine} engine")
            }
            AtpgError::UnsupportedModel { backend, model } => {
                write!(
                    f,
                    "the {backend} backend does not support the {model} fault model"
                )
            }
            AtpgError::Cancelled => f.write_str("run cancelled by observer"),
            AtpgError::TimeBudgetExceeded => f.write_str("time budget exceeded"),
            AtpgError::StaticSequence => f.write_str(
                "delay fault simulation needs an at-speed launch/capture pair, \
                 got an all-slow static sequence",
            ),
        }
    }
}

impl std::error::Error for AtpgError {}

/// A successful detection: the complete test plus its bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    /// The complete applied sequence. At-speed two-pattern for the delay
    /// backends ([`TestSequence::at_speed`] is `Some`), all-slow for the
    /// stuck-at backend. Vectors cover the circuit's primary inputs —
    /// except for the enhanced-scan backend, whose two vectors cover the
    /// PIs followed by the independently loadable scan-cell values (in
    /// [`Circuit::dffs`] order).
    pub sequence: TestSequence,
    /// The observing output, when the backend pins one down, always in
    /// **original-circuit** node ids (resolvable against
    /// [`AtpgEngine::circuit`]): the PO of the final frame for the
    /// stuck-at backend; for the enhanced-scan backend a real PO, or the
    /// PPO (D net) whose scan cell captures the effect; `None` for the
    /// non-scan delay driver (observation may move during propagation).
    pub observed_po: Option<NodeId>,
    /// PPO nets whose steady value the propagation phase relies on
    /// (non-scan backend; feeds the §5 invalidation check).
    pub relied_ppos: Vec<NodeId>,
}

/// Per-fault result of the unified API — the merge of the per-backend
/// `TdGenOutcome` / `ScanOutcome` / `StuckAtOutcome` shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultOutcome {
    /// A complete test detects the fault.
    Detected(Box<Detection>),
    /// Proven untestable within the documented search bounds.
    Untestable,
    /// Abandoned at a backtrack / retry / frame limit.
    Aborted,
}

impl FaultOutcome {
    /// The detection, if the fault was tested.
    pub fn detection(&self) -> Option<&Detection> {
        match self {
            FaultOutcome::Detected(d) => Some(d),
            _ => None,
        }
    }

    /// Whether a test was found.
    pub fn is_detected(&self) -> bool {
        matches!(self, FaultOutcome::Detected(_))
    }
}

/// The full configuration a run was launched with, carried alongside the
/// run so checkpoints ([`RunSnapshot`]) are self-describing: a serialized
/// snapshot holds everything [`AtpgBuilder::resume_from`] needs to
/// reconstruct an identically-configured engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Which backend the run drives.
    pub backend: Backend,
    /// Which fault model the run targets (must be supported by the
    /// backend, see [`Backend::supports`]).
    pub model: ModelKind,
    /// Robust or non-robust sensitization of delay tests (ignored by the
    /// stuck-at backend; the transition model always grades
    /// non-robustly).
    pub sensitization: Sensitization,
    /// The enumerated fault universe.
    pub universe: FaultUniverse,
    /// Search budgets.
    pub limits: Limits,
    /// X-fill seed of the fault-simulation credit pass.
    pub seed: u64,
}

impl RunConfig {
    /// The default configuration for `backend`: its default fault model
    /// ([`Backend::default_model`]), robust sensitization, full universe,
    /// paper limits, default seed.
    pub fn new(backend: Backend) -> Self {
        RunConfig {
            backend,
            model: backend.default_model(),
            sensitization: Sensitization::Robust,
            universe: FaultUniverse::default(),
            limits: Limits::default(),
            seed: 0x1995_0308,
        }
    }

    /// Replaces the fault model.
    pub fn with_model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Replaces the X-fill seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The sensitization the delay machinery actually runs with: the
    /// transition model is defined by non-robust (final-value)
    /// sensitization, so it overrides the configured criterion.
    pub fn effective_sensitization(&self) -> Sensitization {
        match self.model {
            ModelKind::Transition => Sensitization::NonRobust,
            _ => self.sensitization,
        }
    }

    /// The non-scan driver's configuration for this run: what the
    /// engine builds its [`DelayAtpg`] with, and what compaction
    /// re-simulates a saved run under.
    pub(crate) fn delay_config(&self) -> DelayAtpgConfig {
        DelayAtpgConfig::new()
            .with_model(self.model)
            .with_sensitization(self.sensitization)
            .with_universe(self.universe)
            .with_xfill_seed(self.seed)
            .with_limits(self.limits)
    }

    /// Rejects backend/model pairings the backend cannot drive — the
    /// same check [`AtpgBuilder::try_build`] performs, available before
    /// a circuit is at hand (CLI flag validation, `POST /jobs`).
    pub fn validate(&self) -> Result<(), AtpgError> {
        if self.backend.supports(self.model) {
            Ok(())
        } else {
            Err(AtpgError::UnsupportedModel {
                backend: self.backend,
                model: self.model,
            })
        }
    }
}

/// A consistent mid-run state, handed to [`Observer::on_checkpoint`]
/// after every explicitly targeted fault is merged (including its
/// fault-simulation credit pass). Everything a resumable artifact needs:
/// the decided records, the emitted sequences, and the exact credit-RNG
/// state, so a run resumed from this point is byte-identical to one that
/// never stopped.
pub struct RunSnapshot<'a> {
    /// Backend name (`"non-scan"`, `"enhanced-scan"`, `"stuck-at"`).
    pub engine: &'static str,
    /// The circuit under test.
    pub circuit: &'a Circuit,
    /// The configuration of the run.
    pub config: &'a RunConfig,
    /// The full fault list, in deterministic order.
    pub faults: &'a [Fault],
    /// Per fault (index-aligned with `faults`): the record if decided,
    /// `None` while undecided.
    pub records: &'a [Option<FaultRecord>],
    /// Sequences emitted so far.
    pub sequences: &'a [TestSequence],
    /// Per sequence: relied PPO nets (see [`AtpgRun::relied_ppos`]).
    pub relied_ppos: &'a [Vec<NodeId>],
    /// Faults credited by fault simulation so far.
    pub dropped: u32,
    /// Number of decided faults.
    pub decided: usize,
    /// The credit-RNG state *after* the last merge.
    pub rng_state: [u64; 4],
}

/// Decoded partial-run state the orchestrator restarts from; produced by
/// [`crate::artifact::RunArtifact::resume_state`] and installed with
/// [`AtpgBuilder::resume_from`].
#[derive(Debug, Clone)]
pub struct ResumeState {
    pub(crate) records: Vec<Option<FaultRecord>>,
    pub(crate) sequences: Vec<TestSequence>,
    pub(crate) relied_ppos: Vec<Vec<NodeId>>,
    pub(crate) dropped: u32,
    pub(crate) rng_state: [u64; 4],
}

/// Streaming consumer of a run: per-fault records as they are decided,
/// progress, and cooperative cancellation.
///
/// All callbacks run on the merge thread in deterministic fault-list
/// order, for serial *and* parallel runs alike.
pub trait Observer {
    /// The run is starting; `total_faults` records will follow.
    fn on_run_start(&mut self, engine: &'static str, circuit: &Circuit, total_faults: usize) {
        let _ = (engine, circuit, total_faults);
    }

    /// One fault has been classified (explicitly targeted or credited by
    /// fault simulation).
    fn on_fault(&mut self, record: &FaultRecord) {
        let _ = record;
    }

    /// A new test sequence was emitted.
    fn on_sequence(&mut self, index: usize, sequence: &TestSequence) {
        let _ = (index, sequence);
    }

    /// Progress: `decided` of `total` faults classified so far.
    fn on_progress(&mut self, decided: usize, total: usize) {
        let _ = (decided, total);
    }

    /// The run finished (or stopped early); the final report.
    fn on_run_end(&mut self, report: &CircuitReport) {
        let _ = report;
    }

    /// A consistent snapshot after one targeted fault was merged (its
    /// credit pass included). Checkpointing observers
    /// ([`crate::session::Checkpointer`]) serialize this to disk every N
    /// outcomes; most observers ignore it.
    fn on_checkpoint(&mut self, snapshot: &RunSnapshot<'_>) {
        let _ = snapshot;
    }

    /// Polled between faults; returning `true` stops the run, classifying
    /// every remaining fault as aborted.
    fn cancelled(&mut self) -> bool {
        false
    }
}

impl<O: Observer + ?Sized> Observer for &mut O {
    fn on_run_start(&mut self, engine: &'static str, circuit: &Circuit, total_faults: usize) {
        (**self).on_run_start(engine, circuit, total_faults);
    }
    fn on_fault(&mut self, record: &FaultRecord) {
        (**self).on_fault(record);
    }
    fn on_sequence(&mut self, index: usize, sequence: &TestSequence) {
        (**self).on_sequence(index, sequence);
    }
    fn on_progress(&mut self, decided: usize, total: usize) {
        (**self).on_progress(decided, total);
    }
    fn on_run_end(&mut self, report: &CircuitReport) {
        (**self).on_run_end(report);
    }
    fn on_checkpoint(&mut self, snapshot: &RunSnapshot<'_>) {
        (**self).on_checkpoint(snapshot);
    }
    fn cancelled(&mut self) -> bool {
        (**self).cancelled()
    }
}

/// The object-safe engine interface; [`Atpg::builder`] returns one for
/// each of the three backends.
pub trait AtpgEngine {
    /// Stable backend name (`"non-scan"`, `"enhanced-scan"`,
    /// `"stuck-at"`).
    fn name(&self) -> &'static str;

    /// The circuit under test (the original netlist, not a rewritten
    /// view).
    fn circuit(&self) -> &Circuit;

    /// The fault universe this engine targets, in deterministic order.
    fn faults(&self) -> &[Fault];

    /// Generates for a single fault. Pure with respect to engine state:
    /// repeated calls with the same fault return the same outcome.
    fn target(&mut self, fault: Fault) -> Result<FaultOutcome, AtpgError>;

    /// Runs the whole fault universe: generation, (backend-specific)
    /// fault-simulation credit, streaming observation, optional
    /// parallelism and time budget.
    fn run(&mut self) -> AtpgRun;
}

/// Entry point of the unified API.
///
/// # Example
///
/// ```
/// use gdf_core::engine::{Atpg, Backend, Limits};
/// use gdf_netlist::suite;
///
/// let c = suite::s27();
/// let mut engine = Atpg::builder(&c)
///     .backend(Backend::StuckAt)
///     .limits(Limits::new().with_sequential_backtrack_limit(50))
///     .build();
/// let run = engine.run();
/// assert_eq!(run.report.row.total_faults() as usize, run.records.len());
/// ```
pub struct Atpg;

impl Atpg {
    /// Starts building an engine over `circuit`.
    pub fn builder(circuit: &Circuit) -> AtpgBuilder<'_> {
        AtpgBuilder {
            circuit,
            backend: Backend::NonScan,
            model: None,
            sensitization: Sensitization::Robust,
            universe: FaultUniverse::default(),
            limits: Limits::default(),
            seed: 0x1995_0308,
            parallelism: 1,
            time_budget: None,
            observers: Vec::new(),
            resume: None,
            speculation: None,
        }
    }
}

/// Which generator the builder constructs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The paper's combined TDgen + SEMILET non-scan delay ATPG.
    NonScan,
    /// The enhanced-scan combinational delay baseline.
    EnhancedScan,
    /// SEMILET's standalone sequential stuck-at ATPG.
    StuckAt,
}

impl Backend {
    /// The fault model a bare `backend` selection runs: delay faults for
    /// the two delay generators, stuck-at for the stuck-at engine.
    pub fn default_model(self) -> ModelKind {
        match self {
            Backend::NonScan | Backend::EnhancedScan => ModelKind::Delay,
            Backend::StuckAt => ModelKind::Stuck,
        }
    }

    /// Whether this backend can drive `model`. The delay generators run
    /// the delay and transition models (the latter by forcing non-robust
    /// sensitization); the stuck-at engine runs stuck-at faults only.
    pub fn supports(self, model: ModelKind) -> bool {
        match self {
            Backend::NonScan | Backend::EnhancedScan => {
                matches!(model, ModelKind::Delay | ModelKind::Transition)
            }
            Backend::StuckAt => model == ModelKind::Stuck,
        }
    }

    /// The stable backend name (`"non-scan"`, `"enhanced-scan"`,
    /// `"stuck-at"`) — the single string table artifacts, engines and
    /// the CLI share; [`std::str::FromStr`] is its inverse.
    fn name(self) -> &'static str {
        match self {
            Backend::NonScan => NON_SCAN,
            Backend::EnhancedScan => ENHANCED_SCAN,
            Backend::StuckAt => STUCK_AT,
        }
    }
}

impl fmt::Display for Backend {
    /// Writes [`Backend`]'s stable name.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    /// Accepts the canonical names plus the short aliases (`nonscan`,
    /// `scan`, `stuckat`) that the CLI and the serve submissions both
    /// document — one parser, so the two surfaces can never drift.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            NON_SCAN | "nonscan" => Ok(Backend::NonScan),
            ENHANCED_SCAN | "scan" => Ok(Backend::EnhancedScan),
            STUCK_AT | "stuckat" => Ok(Backend::StuckAt),
            other => Err(format!("unknown backend `{other}`")),
        }
    }
}

/// Fluent builder for every backend; see [`Atpg::builder`].
pub struct AtpgBuilder<'c> {
    circuit: &'c Circuit,
    backend: Backend,
    model: Option<ModelKind>,
    sensitization: Sensitization,
    universe: FaultUniverse,
    limits: Limits,
    seed: u64,
    parallelism: usize,
    time_budget: Option<Duration>,
    observers: Vec<Box<dyn Observer + 'c>>,
    resume: Option<ResumeState>,
    speculation: Option<Vec<Option<FaultOutcome>>>,
}

impl<'c> AtpgBuilder<'c> {
    /// Selects the backend (default: [`Backend::NonScan`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Selects the fault model (default: the backend's
    /// [`Backend::default_model`]). The backend must support it —
    /// [`AtpgBuilder::try_build`] rejects unsupported pairings with
    /// [`AtpgError::UnsupportedModel`].
    ///
    /// Until PR 5 this setter took the robust/non-robust criterion; that
    /// moved to [`AtpgBuilder::sensitization`].
    pub fn model(mut self, model: ModelKind) -> Self {
        self.model = Some(model);
        self
    }

    /// Robust (default) or non-robust sensitization of delay tests.
    /// Ignored by the stuck-at backend; the transition model always
    /// runs non-robustly.
    pub fn sensitization(mut self, sensitization: Sensitization) -> Self {
        self.sensitization = sensitization;
        self
    }

    /// The fault universe to enumerate (default: every stem and branch).
    pub fn universe(mut self, universe: FaultUniverse) -> Self {
        self.universe = universe;
        self
    }

    /// Search budgets (default: the paper's limits).
    pub fn limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Seed of the deterministic X-fill used by fault-simulation credit.
    ///
    /// Only the non-scan backend has a credit pass (and thus an RNG);
    /// the enhanced-scan and stuck-at backends are fully deterministic
    /// searches, so this setter has no effect on their results.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of speculative generation workers (default 1 = serial).
    ///
    /// Classification, credit and reporting are identical to a serial
    /// run for the same seed; only wall-clock changes. Values are
    /// clamped to at least 1.
    pub fn parallelism(mut self, n: usize) -> Self {
        self.parallelism = n.max(1);
        self
    }

    /// Installs a table of pre-computed per-fault generation outcomes,
    /// index-aligned with the engine's fault list (`None` entries are
    /// generated locally as usual).
    ///
    /// This is the engine's speculative parallelism opened up to
    /// *external* speculators: per-fault generation is a pure function
    /// of the fault, so outcomes computed elsewhere — another process,
    /// another machine ([`gdf` fleet shards]) — slot into the
    /// deterministic merge exactly like the in-process wave workers'
    /// results do. Classification, fault-simulation credit and the
    /// X-fill RNG stream still run here, in fault-list order, so the
    /// completed run is **byte-identical to a run that generated
    /// everything locally** with the same config and seed.
    ///
    /// Table entries for faults an earlier merge step credits are simply
    /// never consumed (wasted speculation, same as a dropped wave slot);
    /// `None` holes — a shard that never came back — fall back to local
    /// generation, so the merge is robust to missing speculation.
    ///
    /// [`gdf` fleet shards]: crate::shard
    pub fn speculation(mut self, outcomes: Vec<Option<FaultOutcome>>) -> Self {
        self.speculation = Some(outcomes);
        self
    }

    /// Wall-clock budget for `run`; on expiry the remaining faults are
    /// classified aborted and [`AtpgRun::stopped`] reports
    /// [`AtpgError::TimeBudgetExceeded`].
    ///
    /// The budget is checked before each targeted fault, not inside the
    /// search, so one fault's search can overrun it (a wide gate under
    /// non-robust sensitization enumerates every input combination).
    ///
    /// A budgeted run is *not* comparable across machines or
    /// parallelism levels — where the cut falls depends on timing.
    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Attaches a streaming [`Observer`]. May be called repeatedly: every
    /// attached observer receives every callback, in attachment order
    /// (and any one of them can cancel the run).
    pub fn observer(mut self, observer: impl Observer + 'c) -> Self {
        self.observers.push(Box::new(observer));
        self
    }

    /// Attaches a [`crate::session::Checkpointer`] that serializes a
    /// resumable [`crate::artifact::RunArtifact`] to `path` every
    /// `every` decided faults. Convenience for
    /// `.observer(Checkpointer::new(path, every))`.
    pub fn checkpoint(self, path: impl Into<std::path::PathBuf>, every: usize) -> Self {
        self.observer(crate::session::Checkpointer::new(path, every))
    }

    /// Restarts an interrupted run from a checkpoint artifact: the
    /// builder adopts the artifact's backend, model, universe, limits and
    /// seed, pre-loads the already-decided fault records, sequences and
    /// the exact credit-RNG state, and the subsequent [`AtpgEngine::run`]
    /// continues with the still-undecided faults only. The completed run
    /// is **byte-identical** (records, sequences, normalized report) to
    /// one that was never interrupted.
    ///
    /// # Errors
    ///
    /// Returns [`crate::artifact::ArtifactError`] when the artifact does
    /// not belong to this circuit (name or fault-universe mismatch) or is
    /// structurally invalid.
    ///
    /// # Example
    ///
    /// ```
    /// use gdf_core::artifact::RunArtifact;
    /// use gdf_core::engine::{Atpg, Backend};
    /// use gdf_netlist::suite;
    ///
    /// let c = suite::s27();
    /// // A "checkpoint" with nothing decided yet: resuming it is simply
    /// // a full run with the artifact's recorded configuration.
    /// let empty = RunArtifact::checkpoint_stub(&c, Backend::StuckAt, 42);
    /// let run = Atpg::builder(&c).resume_from(&empty).unwrap().build().run();
    /// assert!(run.report.row.tested > 0);
    /// ```
    pub fn resume_from(
        mut self,
        artifact: &crate::artifact::RunArtifact,
    ) -> Result<Self, crate::artifact::ArtifactError> {
        let config = artifact.config();
        self.backend = config.backend;
        self.model = Some(config.model);
        self.sensitization = config.sensitization;
        self.universe = config.universe;
        self.limits = config.limits;
        self.seed = config.seed;
        let faults = faults_of(self.circuit, config.model, &config.universe);
        self.resume = Some(artifact.resume_state(self.circuit, &faults)?);
        Ok(self)
    }

    /// The full [`RunConfig`] this builder resolves to, with the model
    /// defaulted from the backend when unset.
    fn resolved_config(&self) -> RunConfig {
        RunConfig {
            backend: self.backend,
            model: self.model.unwrap_or_else(|| self.backend.default_model()),
            sensitization: self.sensitization,
            universe: self.universe,
            limits: self.limits,
            seed: self.seed,
        }
    }

    /// Builds the selected backend as a boxed [`AtpgEngine`].
    ///
    /// # Panics
    ///
    /// Panics when [`AtpgBuilder::try_build`] would error: the backend
    /// does not support the configured fault model, or a
    /// [`AtpgBuilder::resume_from`] state is installed but a later
    /// `.backend(…)` / `.model(…)` / `.universe(…)` call changed the
    /// fault list it was validated against — override only runtime
    /// options (`.parallelism`, `.time_budget`, `.observer`) after
    /// `resume_from`.
    pub fn build(self) -> Box<dyn AtpgEngine + 'c> {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the selected backend, rejecting unsupported backend/model
    /// pairings with [`AtpgError::UnsupportedModel`] instead of
    /// panicking — the entry point for surfaces driven by user input
    /// (the CLI, `gdf serve` submissions).
    pub fn try_build(self) -> Result<Box<dyn AtpgEngine + 'c>, AtpgError> {
        let config = self.resolved_config();
        if !self.backend.supports(config.model) {
            return Err(AtpgError::UnsupportedModel {
                backend: self.backend,
                model: config.model,
            });
        }
        let faults = faults_of(self.circuit, config.model, &config.universe);
        if let Some(resume) = &self.resume {
            assert_eq!(
                resume.records.len(),
                faults.len(),
                "resume state no longer matches the configured fault universe; do not \
                 change .backend()/.model()/.universe() after .resume_from()"
            );
        }
        if let Some(table) = &self.speculation {
            assert_eq!(
                table.len(),
                faults.len(),
                "speculation table must be index-aligned with the fault universe"
            );
        }
        let worker: Box<dyn Worker + 'c> = match self.backend {
            Backend::NonScan => {
                Box::new(DelayAtpg::with_config(self.circuit, config.delay_config()))
            }
            Backend::EnhancedScan => Box::new(ScanWorker {
                scan: ScanDelayAtpg::with_config(
                    self.circuit,
                    TdGenConfig {
                        backtrack_limit: config.limits.local_backtrack_limit,
                        sensitization: config.effective_sensitization(),
                    },
                ),
                model: config.model,
            }),
            Backend::StuckAt => Box::new(StuckAtAtpg::with_config(
                self.circuit,
                StuckAtConfig {
                    backtrack_limit: config.limits.sequential_backtrack_limit,
                    max_frames: config.limits.max_stuckat_frames,
                },
            )),
        };
        Ok(Box::new(Engine {
            circuit: self.circuit,
            worker,
            faults,
            opts: RunOptions {
                config,
                parallelism: self.parallelism,
                time_budget: self.time_budget,
                observers: self.observers,
                resume: self.resume,
                speculation: self.speculation,
            },
        }))
    }
}

/// Runtime options shared by every engine.
struct RunOptions<'c> {
    config: RunConfig,
    parallelism: usize,
    time_budget: Option<Duration>,
    observers: Vec<Box<dyn Observer + 'c>>,
    resume: Option<ResumeState>,
    speculation: Option<Vec<Option<FaultOutcome>>>,
}

/// The deterministic fault list an engine enumerates for a model and
/// universe — the [`gdf_netlist::model::FaultModel`] trait's lazy
/// [`gdf_netlist::FaultSet`], collected once per run (the orchestrator
/// needs index-aligned per-fault records). Shared by the engine
/// constructors and [`AtpgBuilder::resume_from`]'s alignment check.
pub(crate) fn faults_of(
    circuit: &Circuit,
    model: ModelKind,
    universe: &FaultUniverse,
) -> Vec<Fault> {
    model.model().enumerate(circuit, universe).collect()
}

/// Internal per-backend generation/credit hooks. `Sync` so speculative
/// generation can fan out across threads.
trait Worker: Sync {
    fn generate(&self, fault: Fault) -> Result<FaultOutcome, AtpgError>;

    /// Fault-simulation credit for one emitted detection: indexes into
    /// `candidates` of the additionally detected faults. `scratch` holds
    /// the merge thread's reusable simulation buffers. The default
    /// backend has no credit pass.
    fn credit(
        &self,
        detection: &Detection,
        candidates: &[Fault],
        rng: &mut StdRng,
        scratch: &mut FsimScratch,
    ) -> Vec<usize> {
        let _ = (detection, candidates, rng, scratch);
        Vec::new()
    }
}

/// The delay-machinery view of a fault under `model`: delay faults pass
/// through; transition faults map to the same-site/same-direction delay
/// fault the TDgen/SEMILET pipeline drives (with non-robust
/// sensitization forced by the caller); anything else is foreign.
fn delay_view(model: ModelKind, fault: Fault) -> Option<DelayFault> {
    match model {
        ModelKind::Delay => fault.as_delay(),
        ModelKind::Transition => fault.as_transition().map(|t| DelayFault {
            site: t.site,
            kind: t.kind,
        }),
        ModelKind::Stuck => None,
    }
}

impl Worker for DelayAtpg<'_> {
    fn generate(&self, fault: Fault) -> Result<FaultOutcome, AtpgError> {
        let f = delay_view(self.config().model, fault).ok_or(AtpgError::UnsupportedFault {
            engine: NON_SCAN,
            fault,
        })?;
        Ok(self.target_delay(f))
    }

    fn credit(
        &self,
        detection: &Detection,
        candidates: &[Fault],
        rng: &mut StdRng,
        scratch: &mut FsimScratch,
    ) -> Vec<usize> {
        self.fault_simulate_sequence(
            &detection.sequence,
            &detection.relied_ppos,
            candidates,
            rng,
            scratch,
        )
        .expect("non-scan detections always carry an at-speed sequence")
    }
}

/// The enhanced-scan generator plus the model it runs — transition
/// faults map through [`delay_view`] onto the combinational TDgen (whose
/// sensitization the builder already forced non-robust).
struct ScanWorker {
    scan: ScanDelayAtpg,
    model: ModelKind,
}

impl Worker for ScanWorker {
    fn generate(&self, fault: Fault) -> Result<FaultOutcome, AtpgError> {
        let f = delay_view(self.model, fault).ok_or(AtpgError::UnsupportedFault {
            engine: ENHANCED_SCAN,
            fault,
        })?;
        Ok(self.scan.generate(f))
    }
}

impl Worker for StuckAtAtpg<'_> {
    fn generate(&self, fault: Fault) -> Result<FaultOutcome, AtpgError> {
        let f = fault.as_stuck().ok_or(AtpgError::UnsupportedFault {
            engine: STUCK_AT,
            fault,
        })?;
        Ok(match self.generate(f) {
            StuckAtOutcome::Test { vectors, po } => FaultOutcome::Detected(Box::new(Detection {
                sequence: TestSequence::static_sequence(vectors),
                observed_po: Some(po),
                relied_ppos: Vec::new(),
            })),
            StuckAtOutcome::Untestable => FaultOutcome::Untestable,
            StuckAtOutcome::Aborted => FaultOutcome::Aborted,
        })
    }
}

const NON_SCAN: &str = "non-scan";
const ENHANCED_SCAN: &str = "enhanced-scan";
const STUCK_AT: &str = "stuck-at";

/// The one [`AtpgEngine`]: a backend [`Worker`] over the circuit's fault
/// list, run by [`orchestrate`]. [`AtpgBuilder::try_build`] picks the
/// worker; the configuration in `opts` names the backend.
pub(crate) struct Engine<'c> {
    circuit: &'c Circuit,
    worker: Box<dyn Worker + 'c>,
    faults: Vec<Fault>,
    opts: RunOptions<'c>,
}

impl<'c> Engine<'c> {
    /// A serial, unobserved non-scan engine over a full driver
    /// configuration — what [`DelayAtpg::run`] runs. The configuration
    /// may select the scalar reference simulator, which the builder
    /// cannot express.
    pub(crate) fn non_scan(circuit: &'c Circuit, config: DelayAtpgConfig) -> Self {
        let run_config = RunConfig {
            backend: Backend::NonScan,
            model: config.model,
            sensitization: config.sensitization,
            universe: config.universe,
            limits: config.limits(),
            seed: config.xfill_seed,
        };
        Engine {
            circuit,
            faults: faults_of(circuit, config.model, &config.universe),
            worker: Box::new(DelayAtpg::with_config(circuit, config)),
            opts: RunOptions {
                config: run_config,
                parallelism: 1,
                time_budget: None,
                observers: Vec::new(),
                resume: None,
                speculation: None,
            },
        }
    }
}

impl AtpgEngine for Engine<'_> {
    fn name(&self) -> &'static str {
        self.opts.config.backend.name()
    }

    fn circuit(&self) -> &Circuit {
        self.circuit
    }

    fn faults(&self) -> &[Fault] {
        &self.faults
    }

    fn target(&mut self, fault: Fault) -> Result<FaultOutcome, AtpgError> {
        self.worker.generate(fault)
    }

    fn run(&mut self) -> AtpgRun {
        orchestrate(
            self.name(),
            self.circuit,
            &*self.worker,
            &self.faults,
            &mut self.opts,
        )
    }
}

/// How many speculative generations each wave schedules per worker. A
/// wave is the unit between deterministic merges; a small factor keeps
/// wasted speculation (results for faults an earlier merge drops) low
/// while still amortizing thread startup.
const WAVE_FACTOR: usize = 4;

/// The shared run loop: deterministic classification + credit + streaming
/// on the merge thread, with optional speculative parallel generation.
///
/// Invariant: for a fixed seed, the returned [`AtpgRun`] (records,
/// sequences and normalized report) is identical for every
/// `parallelism` level, because per-fault generation is pure and every
/// state mutation (records, credit RNG, sequence numbering, observer
/// callbacks) happens here in fault-list order.
fn orchestrate(
    name: &'static str,
    circuit: &Circuit,
    worker: &dyn Worker,
    faults: &[Fault],
    opts: &mut RunOptions<'_>,
) -> AtpgRun {
    let start = Instant::now();
    let total = faults.len();
    // A resumed run restarts from the checkpointed records, sequences and
    // credit-RNG state; the loop below then only sees the undecided
    // faults, so the completed run is byte-identical to an uninterrupted
    // one (generation is pure per fault, and every stateful step replays
    // from exactly where the checkpoint left it).
    let (mut records, mut sequences, mut relied, mut rng, mut dropped) = match opts.resume.take() {
        Some(res) => {
            debug_assert_eq!(res.records.len(), total);
            let rng = StdRng::from_state(res.rng_state);
            (
                res.records,
                res.sequences,
                res.relied_ppos,
                rng,
                res.dropped,
            )
        }
        None => (
            vec![None; total],
            Vec::new(),
            Vec::new(),
            StdRng::seed_from_u64(opts.config.seed),
            0u32,
        ),
    };
    let mut scratch = FsimScratch::default();
    let mut decided = records.iter().filter(|r| r.is_some()).count();
    let mut stopped: Option<AtpgError> = None;
    let parallelism = opts.parallelism.max(1);
    let config = opts.config;
    // Externally speculated outcomes (fleet shards): consumed by the
    // merge below exactly like in-process wave results; covered faults
    // are excluded from local wave speculation so no work is repeated.
    let mut table = opts.speculation.take();
    if let Some(t) = &table {
        debug_assert_eq!(t.len(), total);
    }
    let observers = &mut opts.observers;

    for o in observers.iter_mut() {
        o.on_run_start(name, circuit, total);
    }

    let mut pos = 0usize;
    'run: while pos < total {
        // Collect the next wave of undecided fault indexes.
        let mut wave: Vec<usize> = Vec::with_capacity(parallelism * WAVE_FACTOR);
        while pos < total && wave.len() < parallelism * WAVE_FACTOR {
            if records[pos].is_none() {
                wave.push(pos);
            }
            pos += 1;
        }
        if wave.is_empty() {
            break;
        }

        // Speculative generation: pure per-fault work, safe to fan out.
        //
        // Workers are scoped per wave rather than pooled for the whole
        // run: the scope is what lets them borrow `worker`/`faults`
        // without `Arc`, and joining before the merge is what bounds
        // wasted speculation to one wave of faults that the merge's
        // credit pass may drop. The spawn cost (~tens of µs per thread)
        // is noise against per-fault generation on the backends where
        // parallelism pays; overlapping generation with the merge would
        // save the join idle time at the price of a watermark protocol —
        // worth revisiting if profiles ever show the merge dominating.
        let mut speculative: Vec<Option<Result<FaultOutcome, AtpgError>>> =
            if parallelism > 1 && wave.len() > 1 {
                let slots: Vec<OnceLock<Result<FaultOutcome, AtpgError>>> =
                    (0..wave.len()).map(|_| OnceLock::new()).collect();
                let next = AtomicUsize::new(0);
                let table_ref = table.as_deref();
                // Wave threads time their spans into this thread's sink.
                let sink = phase::current();
                thread::scope(|s| {
                    for _ in 0..parallelism.min(wave.len()) {
                        let next = &next;
                        let wave = &wave;
                        let slots = &slots;
                        let sink = sink.clone();
                        s.spawn(move || {
                            let _sink = sink.map(phase::scoped);
                            loop {
                                let k = next.fetch_add(1, Ordering::Relaxed);
                                if k >= wave.len() {
                                    break;
                                }
                                if table_ref.is_some_and(|t| t[wave[k]].is_some()) {
                                    continue; // already speculated externally
                                }
                                let _span = phase::start("generate");
                                let out = worker.generate(faults[wave[k]]);
                                slots[k].set(out).expect("each slot claimed once");
                            }
                        });
                    }
                });
                slots.into_iter().map(OnceLock::into_inner).collect()
            } else {
                Vec::new()
            };

        // Deterministic merge, in fault-list order.
        for (slot, &idx) in wave.iter().enumerate() {
            if stopped.is_none() {
                if observers.iter_mut().any(|o| o.cancelled()) {
                    stopped = Some(AtpgError::Cancelled);
                } else if opts
                    .time_budget
                    .is_some_and(|budget| start.elapsed() > budget)
                {
                    stopped = Some(AtpgError::TimeBudgetExceeded);
                }
            }
            if stopped.is_some() {
                break 'run;
            }
            if records[idx].is_some() {
                continue; // dropped by an earlier merge in this wave
            }
            let outcome = match speculative.get_mut(slot).and_then(Option::take) {
                Some(out) => out,
                None => match table.as_mut().and_then(|t| t[idx].take()) {
                    Some(out) => Ok(out),
                    None => {
                        let _span = phase::start("generate");
                        worker.generate(faults[idx])
                    }
                },
            };
            let classification = match outcome {
                Ok(FaultOutcome::Detected(detection)) => {
                    let seq_index = sequences.len();
                    records[idx] = Some(FaultRecord {
                        fault: faults[idx],
                        classification: FaultClassification::Tested,
                        by_simulation: false,
                        sequence_index: Some(seq_index),
                    });
                    decided += 1;
                    for o in observers.iter_mut() {
                        o.on_fault(records[idx].as_ref().expect("just set"));
                    }
                    // Fault-simulation credit over the still-undecided
                    // faults, exactly as the serial driver does it.
                    let undecided: Vec<usize> =
                        (0..total).filter(|&i| records[i].is_none()).collect();
                    let candidates: Vec<Fault> = undecided.iter().map(|&i| faults[i]).collect();
                    let hits = {
                        let _span = phase::start("credit");
                        worker.credit(&detection, &candidates, &mut rng, &mut scratch)
                    };
                    for hit in hits {
                        let i = undecided[hit];
                        if records[i].is_none() {
                            dropped += 1;
                            decided += 1;
                            records[i] = Some(FaultRecord {
                                fault: faults[i],
                                classification: FaultClassification::Tested,
                                by_simulation: true,
                                sequence_index: Some(seq_index),
                            });
                            for o in observers.iter_mut() {
                                o.on_fault(records[i].as_ref().expect("just set"));
                            }
                        }
                    }
                    let Detection {
                        sequence,
                        relied_ppos,
                        ..
                    } = *detection;
                    sequences.push(sequence);
                    relied.push(relied_ppos);
                    for o in observers.iter_mut() {
                        o.on_sequence(seq_index, &sequences[seq_index]);
                        o.on_progress(decided, total);
                    }
                    emit_checkpoint(
                        observers, name, circuit, &config, faults, &records, &sequences, &relied,
                        dropped, decided, &rng,
                    );
                    continue;
                }
                Ok(FaultOutcome::Untestable) => FaultClassification::Untestable,
                Ok(FaultOutcome::Aborted) | Err(_) => FaultClassification::Aborted,
            };
            records[idx] = Some(FaultRecord {
                fault: faults[idx],
                classification,
                by_simulation: false,
                sequence_index: None,
            });
            decided += 1;
            for o in observers.iter_mut() {
                o.on_fault(records[idx].as_ref().expect("just set"));
                o.on_progress(decided, total);
            }
            emit_checkpoint(
                observers, name, circuit, &config, faults, &records, &sequences, &relied, dropped,
                decided, &rng,
            );
        }
    }

    // Early stop: everything still undecided is abandoned.
    if stopped.is_some() {
        for (i, rec) in records.iter_mut().enumerate() {
            if rec.is_none() {
                *rec = Some(FaultRecord {
                    fault: faults[i],
                    classification: FaultClassification::Aborted,
                    by_simulation: false,
                    sequence_index: None,
                });
                decided += 1;
                for o in observers.iter_mut() {
                    o.on_fault(rec.as_ref().expect("just set"));
                }
            }
        }
        for o in observers.iter_mut() {
            o.on_progress(decided, total);
        }
    }

    let records: Vec<FaultRecord> = records.into_iter().map(|r| r.expect("decided")).collect();
    let count =
        |c: FaultClassification| records.iter().filter(|r| r.classification == c).count() as u32;
    // First-class coverage: the model's collapse classes give the
    // collapsed denominator; the record stream gives the rest.
    let classes = config.model.model().collapse(circuit, faults);
    let coverage = Coverage::from_records(&records, Some(&classes.class_of));
    let report = CircuitReport {
        row: Table3Row {
            circuit: circuit.name().to_string(),
            tested: count(FaultClassification::Tested),
            untestable: count(FaultClassification::Untestable),
            aborted: count(FaultClassification::Aborted),
            patterns: sequences.iter().map(|s| s.len() as u32).sum(),
            elapsed: start.elapsed(),
        },
        dropped_by_simulation: dropped,
        sequences: sequences.len() as u32,
        coverage,
    };
    for o in observers.iter_mut() {
        o.on_run_end(&report);
    }
    AtpgRun {
        records,
        sequences,
        relied_ppos: relied,
        report,
        stopped,
    }
}

/// Builds a [`RunSnapshot`] view of the merge thread's state and hands it
/// to every observer. Free function (rather than a closure) because the
/// snapshot borrows half the orchestrator's locals.
#[allow(clippy::too_many_arguments)]
fn emit_checkpoint(
    observers: &mut [Box<dyn Observer + '_>],
    engine: &'static str,
    circuit: &Circuit,
    config: &RunConfig,
    faults: &[Fault],
    records: &[Option<FaultRecord>],
    sequences: &[TestSequence],
    relied_ppos: &[Vec<NodeId>],
    dropped: u32,
    decided: usize,
    rng: &StdRng,
) {
    if observers.is_empty() {
        return;
    }
    let _span = phase::start("checkpoint");
    let snapshot = RunSnapshot {
        engine,
        circuit,
        config,
        faults,
        records,
        sequences,
        relied_ppos,
        dropped,
        decided,
        rng_state: rng.state(),
    };
    for o in observers.iter_mut() {
        o.on_checkpoint(&snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdf_netlist::suite;
    use std::sync::{Arc, Mutex};

    #[test]
    fn builder_constructs_all_backends() {
        let c = suite::s27();
        for (backend, name) in [
            (Backend::NonScan, NON_SCAN),
            (Backend::EnhancedScan, ENHANCED_SCAN),
            (Backend::StuckAt, STUCK_AT),
        ] {
            let mut engine = Atpg::builder(&c).backend(backend).build();
            assert_eq!(engine.name(), name);
            assert_eq!(engine.circuit().name(), "s27");
            let faults = engine.faults().to_vec();
            assert!(!faults.is_empty());
            let run = engine.run();
            assert_eq!(run.records.len(), faults.len());
            assert_eq!(run.report.row.total_faults() as usize, faults.len());
            assert!(run.stopped.is_none());
            assert!(run.report.row.tested > 0, "{name} finds tests on s27");
        }
    }

    #[test]
    fn target_rejects_wrong_fault_model() {
        let c = suite::s27();
        let stuck = FaultUniverse::default().stuck_faults(&c)[0];
        let delay = FaultUniverse::default().delay_faults(&c)[0];
        let mut nonscan = Atpg::builder(&c).backend(Backend::NonScan).build();
        assert!(matches!(
            nonscan.target(Fault::Stuck(stuck)),
            Err(AtpgError::UnsupportedFault { .. })
        ));
        let mut stuckat = Atpg::builder(&c).backend(Backend::StuckAt).build();
        assert!(matches!(
            stuckat.target(Fault::Delay(delay)),
            Err(AtpgError::UnsupportedFault { .. })
        ));
    }

    #[derive(Default)]
    struct Recorder {
        events: Arc<Mutex<Vec<String>>>,
        cancel_after: Option<usize>,
        seen: usize,
    }

    impl Observer for Recorder {
        fn on_run_start(&mut self, engine: &'static str, _c: &Circuit, total: usize) {
            self.events
                .lock()
                .unwrap()
                .push(format!("start {engine} {total}"));
        }
        fn on_fault(&mut self, record: &FaultRecord) {
            self.seen += 1;
            self.events
                .lock()
                .unwrap()
                .push(format!("fault {:?}", record.classification));
        }
        fn on_run_end(&mut self, report: &CircuitReport) {
            self.events
                .lock()
                .unwrap()
                .push(format!("end {}", report.row.total_faults()));
        }
        fn cancelled(&mut self) -> bool {
            self.cancel_after.is_some_and(|n| self.seen >= n)
        }
    }

    #[test]
    fn observer_streams_every_record() {
        let c = suite::s27();
        let events = Arc::new(Mutex::new(Vec::new()));
        let mut engine = Atpg::builder(&c)
            .backend(Backend::NonScan)
            .observer(Recorder {
                events: Arc::clone(&events),
                ..Recorder::default()
            })
            .build();
        let run = engine.run();
        let events = events.lock().unwrap();
        assert!(events[0].starts_with("start non-scan"));
        let fault_events = events.iter().filter(|e| e.starts_with("fault")).count();
        assert_eq!(fault_events, run.records.len());
        assert!(events.last().unwrap().starts_with("end"));
    }

    #[test]
    fn cancellation_stops_early_and_aborts_rest() {
        let c = suite::s27();
        let events = Arc::new(Mutex::new(Vec::new()));
        let mut engine = Atpg::builder(&c)
            .backend(Backend::NonScan)
            .observer(Recorder {
                events: Arc::clone(&events),
                cancel_after: Some(3),
                ..Recorder::default()
            })
            .build();
        let run = engine.run();
        assert_eq!(run.stopped, Some(AtpgError::Cancelled));
        assert_eq!(run.records.len(), run.report.row.total_faults() as usize);
        assert!(run.report.row.aborted > 0, "remaining faults aborted");
        // Every fault still classified exactly once.
        let fault_events = events
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.starts_with("fault"))
            .count();
        assert_eq!(fault_events, run.records.len());
    }

    #[test]
    fn zero_time_budget_aborts_everything() {
        let c = suite::s27();
        let mut engine = Atpg::builder(&c)
            .backend(Backend::StuckAt)
            .time_budget(Duration::ZERO)
            .build();
        let run = engine.run();
        assert_eq!(run.stopped, Some(AtpgError::TimeBudgetExceeded));
        assert_eq!(
            run.report.row.aborted as usize,
            run.records.len(),
            "nothing decided under a zero budget"
        );
    }

    #[test]
    fn parallel_is_byte_identical_to_serial() {
        let c = suite::s27();
        let serial = Atpg::builder(&c)
            .backend(Backend::NonScan)
            .seed(7)
            .build()
            .run();
        for n in [2, 4, 7] {
            let parallel = Atpg::builder(&c)
                .backend(Backend::NonScan)
                .seed(7)
                .parallelism(n)
                .build()
                .run();
            assert_eq!(serial.records, parallel.records, "parallelism {n}");
            assert_eq!(serial.sequences, parallel.sequences, "parallelism {n}");
            assert_eq!(
                serial.report.row.normalized(),
                parallel.report.row.normalized(),
                "parallelism {n}"
            );
            assert_eq!(
                serial.report.dropped_by_simulation,
                parallel.report.dropped_by_simulation
            );
        }
    }

    #[test]
    fn wave_threads_time_into_the_callers_scoped_sink() {
        struct Threads(Mutex<Vec<(&'static str, std::thread::ThreadId)>>);
        impl phase::PhaseSink for Threads {
            fn record(&self, phase: &'static str, _: std::time::Instant, _: Duration) {
                self.0
                    .lock()
                    .unwrap()
                    .push((phase, std::thread::current().id()));
            }
        }
        let c = suite::s27();
        let sink = Arc::new(Threads(Mutex::new(Vec::new())));
        let run = {
            let _scope = phase::scoped(sink.clone());
            Atpg::builder(&c)
                .backend(Backend::NonScan)
                .parallelism(4)
                .build()
                .run()
        };
        let caller = std::thread::current().id();
        let got = sink.0.lock().unwrap();
        assert!(
            got.iter().any(|&(p, t)| p == "generate" && t != caller),
            "no wave-thread generate span reached the caller's sink"
        );
        assert!(got.iter().any(|&(p, t)| p == "credit" && t == caller));
        assert!(run.report.row.tested > 0);
    }
}
