//! The session layer: checkpointing, resumable multi-circuit
//! **campaigns**, and standalone pattern re-grading.
//!
//! The paper's evaluation (Table 3) is a campaign — the same ATPG flow
//! over a whole benchmark suite with aggregated accounting. This module
//! makes that a first-class, persistent operation:
//!
//! * [`Checkpointer`] — an [`Observer`] that serializes a resumable
//!   [`RunArtifact`] every N fault outcomes, so long runs survive
//!   interruption ([`crate::engine::AtpgBuilder::resume_from`] restarts
//!   them byte-identically);
//! * [`Campaign`] — one configuration, one parallelism level and one
//!   streaming observer shared across many circuits, producing a
//!   [`CampaignReport`] that subsumes the per-circuit
//!   [`CircuitReport`]s with a Table-3-style aggregate; with an artifact
//!   directory attached, a re-run skips completed circuits and resumes
//!   partial ones;
//! * [`grade_patterns`] — re-runs a saved [`PatternSet`] through the
//!   packed three-phase fault simulator ([`gdf_sim::grading`], phase 1
//!   and phase 3's fault screen batched up to 64 sequences per pass), so
//!   exported tests can be re-validated independently of the run that
//!   generated them.
//!
//! # Example
//!
//! ```
//! use gdf_core::engine::Backend;
//! use gdf_core::session::Campaign;
//! use gdf_netlist::suite;
//!
//! let report = Campaign::builder()
//!     .backend(Backend::StuckAt)
//!     .circuit(suite::s27())
//!     .circuit(suite::extra_circuit("s42").unwrap())
//!     .run();
//! assert_eq!(report.circuits.len(), 2);
//! assert!(report.totals().tested > 0);
//! println!("{}", report.render());
//! ```

use crate::artifact::{ArtifactError, CircuitSource, PatternSet, RunArtifact};
use crate::driver::FaultClassification;
use crate::engine::{faults_of, Atpg, AtpgError, Backend, Limits, Observer, RunSnapshot};
use crate::json::Json;
use crate::report::{CircuitReport, Coverage, Table3Row};
use gdf_algebra::logic3::Logic3;
use gdf_netlist::{Circuit, Fault, FaultUniverse, ModelKind};
use gdf_sim::grading::{grade_screened, screen_batch, simulate_batch, GradeScratch, MAX_LANES};
use gdf_tdgen::Sensitization;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Checkpointer
// ---------------------------------------------------------------------

/// An [`Observer`] that writes a resumable [`RunArtifact`] to disk every
/// `every` decided fault outcomes (credited drops count too). Attach it
/// with [`crate::engine::AtpgBuilder::observer`] or the
/// [`crate::engine::AtpgBuilder::checkpoint`] shorthand.
///
/// Writes are atomic (tmp + rename), so an interrupted run always leaves
/// either the previous or the new checkpoint, never a torn file. Write
/// failures are reported to stderr and do not stop the run (generation
/// is worth more than the checkpoint).
pub struct Checkpointer {
    path: PathBuf,
    every: usize,
    last_written: usize,
    source: Option<CircuitSource>,
    written: Arc<AtomicUsize>,
}

impl Checkpointer {
    /// Checkpoints to `path` every `every` outcomes (`every` is clamped
    /// to at least 1).
    pub fn new(path: impl Into<PathBuf>, every: usize) -> Self {
        Checkpointer {
            path: path.into(),
            every: every.max(1),
            last_written: 0,
            source: None,
            written: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Records the circuit's provenance in every checkpoint (pass the
    /// original `.bench` file text or a suite reference so resume can
    /// rebuild the *identical* circuit; defaults to a
    /// [`gdf_netlist::to_bench`] rendering).
    pub fn with_source(mut self, source: CircuitSource) -> Self {
        self.source = Some(source);
        self
    }

    /// Shared count of snapshots successfully written. Clone the handle
    /// *before* moving the Checkpointer into a builder to learn, after
    /// the run, whether a resumable file actually exists (a run cancelled
    /// before the first cadence writes nothing).
    pub fn written_handle(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.written)
    }
}

impl Observer for Checkpointer {
    fn on_checkpoint(&mut self, snapshot: &RunSnapshot<'_>) {
        if snapshot.decided < self.last_written + self.every {
            return;
        }
        let artifact = RunArtifact::from_snapshot(snapshot, self.source.clone());
        match artifact.save(&self.path) {
            Ok(()) => {
                self.last_written = snapshot.decided;
                self.written.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => eprintln!("checkpoint write failed: {e}"),
        }
    }
}

// ---------------------------------------------------------------------
// Progress events
// ---------------------------------------------------------------------

/// The serializable wire form of the [`Observer`] callbacks.
///
/// Every callback the engine streams ([`Observer::on_run_start`],
/// [`Observer::on_fault`], …) has a corresponding variant with a lossless
/// JSON codec ([`ProgressEvent::encode`] / [`ProgressEvent::decode`]), so
/// progress can cross a process or network boundary — `gdf serve` streams
/// these over `GET /jobs/<id>/events`, one compact JSON object per line.
///
/// Events intentionally carry aggregate counts and indices, not netlist
/// references: a consumer can follow a run without holding the circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgressEvent {
    /// The run started (`on_run_start`).
    Started {
        /// Backend name (`"non-scan"`, `"enhanced-scan"`, `"stuck-at"`).
        engine: String,
        /// Circuit name.
        circuit: String,
        /// Faults the run will decide.
        total_faults: usize,
    },
    /// One fault was classified (`on_fault`), in deterministic stream
    /// order.
    Fault {
        /// Running count of decided faults, starting at 1.
        index: usize,
        /// The classification.
        classification: FaultClassification,
        /// `true` when credited by fault simulation.
        by_simulation: bool,
        /// Index of the detecting sequence, if any.
        sequence: Option<usize>,
    },
    /// A new test sequence was emitted (`on_sequence`).
    Sequence {
        /// Sequence index within the run.
        index: usize,
        /// Vectors in the sequence.
        vectors: usize,
    },
    /// Progress counters (`on_progress`).
    Progress {
        /// Decided faults so far.
        decided: usize,
        /// Total faults.
        total: usize,
    },
    /// The run finished (`on_run_end`), with the aggregate row.
    Finished {
        /// Faults with a complete test.
        tested: u32,
        /// Faults proven untestable.
        untestable: u32,
        /// Faults abandoned at a limit.
        aborted: u32,
        /// Total applied vectors.
        patterns: u32,
        /// Emitted sequences.
        sequences: u32,
    },
}

fn classification_name(c: FaultClassification) -> &'static str {
    match c {
        FaultClassification::Tested => "tested",
        FaultClassification::Untestable => "untestable",
        FaultClassification::Aborted => "aborted",
    }
}

impl ProgressEvent {
    /// Encodes to a JSON object with a `type` tag.
    pub fn encode(&self) -> Json {
        let num = |n: usize| Json::Num(n as f64);
        match self {
            ProgressEvent::Started {
                engine,
                circuit,
                total_faults,
            } => Json::Obj(vec![
                ("type".into(), Json::Str("started".into())),
                ("engine".into(), Json::Str(engine.clone())),
                ("circuit".into(), Json::Str(circuit.clone())),
                ("total_faults".into(), num(*total_faults)),
            ]),
            ProgressEvent::Fault {
                index,
                classification,
                by_simulation,
                sequence,
            } => Json::Obj(vec![
                ("type".into(), Json::Str("fault".into())),
                ("index".into(), num(*index)),
                (
                    "class".into(),
                    Json::Str(classification_name(*classification).into()),
                ),
                ("by_sim".into(), Json::Bool(*by_simulation)),
                (
                    "seq".into(),
                    sequence.map_or(Json::Null, |s| Json::Num(s as f64)),
                ),
            ]),
            ProgressEvent::Sequence { index, vectors } => Json::Obj(vec![
                ("type".into(), Json::Str("sequence".into())),
                ("index".into(), num(*index)),
                ("vectors".into(), num(*vectors)),
            ]),
            ProgressEvent::Progress { decided, total } => Json::Obj(vec![
                ("type".into(), Json::Str("progress".into())),
                ("decided".into(), num(*decided)),
                ("total".into(), num(*total)),
            ]),
            ProgressEvent::Finished {
                tested,
                untestable,
                aborted,
                patterns,
                sequences,
            } => Json::Obj(vec![
                ("type".into(), Json::Str("finished".into())),
                ("tested".into(), num(*tested as usize)),
                ("untestable".into(), num(*untestable as usize)),
                ("aborted".into(), num(*aborted as usize)),
                ("patterns".into(), num(*patterns as usize)),
                ("sequences".into(), num(*sequences as usize)),
            ]),
        }
    }

    /// Decodes the wire form produced by [`ProgressEvent::encode`].
    pub fn decode(j: &Json) -> Result<ProgressEvent, ArtifactError> {
        let field = |name: &str| {
            j.get(name)
                .ok_or_else(|| ArtifactError::Schema(format!("event missing `{name}`")))
        };
        let count = |name: &str| {
            field(name)?
                .as_usize()
                .ok_or_else(|| ArtifactError::Schema(format!("event field `{name}` not a count")))
        };
        let text = |name: &str| {
            Ok::<String, ArtifactError>(
                field(name)?
                    .as_str()
                    .ok_or_else(|| {
                        ArtifactError::Schema(format!("event field `{name}` not a string"))
                    })?
                    .to_string(),
            )
        };
        match text("type")?.as_str() {
            "started" => Ok(ProgressEvent::Started {
                engine: text("engine")?,
                circuit: text("circuit")?,
                total_faults: count("total_faults")?,
            }),
            "fault" => Ok(ProgressEvent::Fault {
                index: count("index")?,
                classification: match text("class")?.as_str() {
                    "tested" => FaultClassification::Tested,
                    "untestable" => FaultClassification::Untestable,
                    "aborted" => FaultClassification::Aborted,
                    other => {
                        return Err(ArtifactError::Schema(format!(
                            "unknown classification `{other}`"
                        )))
                    }
                },
                by_simulation: field("by_sim")?
                    .as_bool()
                    .ok_or_else(|| ArtifactError::Schema("`by_sim` not a bool".into()))?,
                sequence: j.get("seq").and_then(Json::as_usize),
            }),
            "sequence" => Ok(ProgressEvent::Sequence {
                index: count("index")?,
                vectors: count("vectors")?,
            }),
            "progress" => Ok(ProgressEvent::Progress {
                decided: count("decided")?,
                total: count("total")?,
            }),
            "finished" => Ok(ProgressEvent::Finished {
                tested: count("tested")? as u32,
                untestable: count("untestable")? as u32,
                aborted: count("aborted")? as u32,
                patterns: count("patterns")? as u32,
                sequences: count("sequences")? as u32,
            }),
            other => Err(ArtifactError::Schema(format!(
                "unknown event type `{other}`"
            ))),
        }
    }
}

/// An [`Observer`] that forwards every callback as a [`ProgressEvent`] to
/// a sink closure — the bridge between the engine's borrowed, in-process
/// callbacks and anything that needs an owned, serializable stream (a
/// channel, a network fan-out buffer, a log file).
///
/// ```
/// use gdf_core::engine::{Atpg, Backend};
/// use gdf_core::session::{EventObserver, ProgressEvent};
/// use gdf_netlist::suite;
/// use std::sync::mpsc;
///
/// let (tx, rx) = mpsc::channel();
/// let c = suite::s27();
/// Atpg::builder(&c)
///     .backend(Backend::StuckAt)
///     .observer(EventObserver::new(move |ev| {
///         let _ = tx.send(ev);
///     }))
///     .build()
///     .run();
/// let events: Vec<ProgressEvent> = rx.try_iter().collect();
/// assert!(matches!(events.first(), Some(ProgressEvent::Started { .. })));
/// assert!(matches!(events.last(), Some(ProgressEvent::Finished { .. })));
/// ```
pub struct EventObserver {
    sink: Box<dyn FnMut(ProgressEvent) + Send>,
    decided: usize,
}

impl EventObserver {
    /// Wraps a sink; the closure receives every event in stream order.
    pub fn new(sink: impl FnMut(ProgressEvent) + Send + 'static) -> Self {
        EventObserver {
            sink: Box::new(sink),
            decided: 0,
        }
    }
}

impl Observer for EventObserver {
    fn on_run_start(&mut self, engine: &'static str, circuit: &Circuit, total_faults: usize) {
        (self.sink)(ProgressEvent::Started {
            engine: engine.to_string(),
            circuit: circuit.name().to_string(),
            total_faults,
        });
    }
    fn on_fault(&mut self, record: &crate::driver::FaultRecord) {
        self.decided += 1;
        (self.sink)(ProgressEvent::Fault {
            index: self.decided,
            classification: record.classification,
            by_simulation: record.by_simulation,
            sequence: record.sequence_index,
        });
    }
    fn on_sequence(&mut self, index: usize, sequence: &crate::pattern::TestSequence) {
        (self.sink)(ProgressEvent::Sequence {
            index,
            vectors: sequence.len(),
        });
    }
    fn on_progress(&mut self, decided: usize, total: usize) {
        (self.sink)(ProgressEvent::Progress { decided, total });
    }
    fn on_run_end(&mut self, report: &CircuitReport) {
        (self.sink)(ProgressEvent::Finished {
            tested: report.row.tested,
            untestable: report.row.untestable,
            aborted: report.row.aborted,
            patterns: report.row.patterns,
            sequences: report.sequences,
        });
    }
}

// ---------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------

/// A multi-circuit ATPG campaign; build with [`Campaign::builder`].
pub struct Campaign {
    circuits: Vec<(Circuit, Option<CircuitSource>)>,
    backend: Backend,
    model: Option<ModelKind>,
    sensitization: Sensitization,
    universe: FaultUniverse,
    limits: Limits,
    seed: u64,
    parallelism: usize,
    time_budget: Option<Duration>,
    artifact_dir: Option<PathBuf>,
    checkpoint_every: usize,
    resume: bool,
    observer: Option<Box<dyn Observer>>,
}

/// Fluent constructor for [`Campaign`].
pub struct CampaignBuilder {
    inner: Campaign,
}

impl Campaign {
    /// Starts building a campaign (no circuits yet).
    pub fn builder() -> CampaignBuilder {
        CampaignBuilder {
            inner: Campaign {
                circuits: Vec::new(),
                backend: Backend::NonScan,
                model: None,
                sensitization: Sensitization::Robust,
                universe: FaultUniverse::default(),
                limits: Limits::default(),
                seed: 0x1995_0308,
                parallelism: 1,
                time_budget: None,
                artifact_dir: None,
                checkpoint_every: 64,
                resume: false,
                observer: None,
            },
        }
    }
}

impl CampaignBuilder {
    /// Adds one circuit.
    pub fn circuit(mut self, circuit: Circuit) -> Self {
        self.inner.circuits.push((circuit, None));
        self
    }

    /// Adds one circuit with explicit provenance (recorded in artifacts
    /// so resume rebuilds the identical circuit).
    pub fn circuit_with_source(mut self, circuit: Circuit, source: CircuitSource) -> Self {
        self.inner.circuits.push((circuit, Some(source)));
        self
    }

    /// Adds many circuits.
    pub fn circuits(mut self, circuits: impl IntoIterator<Item = Circuit>) -> Self {
        self.inner
            .circuits
            .extend(circuits.into_iter().map(|c| (c, None)));
        self
    }

    /// Adds the full benchmark suite: every Table 3 circuit plus the
    /// embedded `.bench`-sourced extras, each tagged with its suite
    /// reference (see [`gdf_netlist::suite::full_suite`]).
    pub fn suite(mut self) -> Self {
        for circuit in gdf_netlist::suite::full_suite() {
            let reference = circuit.name().trim_end_matches("_syn").to_string();
            let source = CircuitSource::suite(&circuit, &reference);
            self.inner.circuits.push((circuit, Some(source)));
        }
        self
    }

    /// Selects the backend every circuit runs (default: non-scan).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.inner.backend = backend;
        self
    }

    /// The fault model every circuit runs (default: the backend's
    /// [`Backend::default_model`]). Until PR 5 this setter took the
    /// robust/non-robust criterion; that moved to
    /// [`CampaignBuilder::sensitization`].
    pub fn model(mut self, model: ModelKind) -> Self {
        self.inner.model = Some(model);
        self
    }

    /// Robust (default) or non-robust sensitization of delay tests.
    pub fn sensitization(mut self, sensitization: Sensitization) -> Self {
        self.inner.sensitization = sensitization;
        self
    }

    /// The shared fault universe.
    pub fn universe(mut self, universe: FaultUniverse) -> Self {
        self.inner.universe = universe;
        self
    }

    /// The shared search budgets.
    pub fn limits(mut self, limits: Limits) -> Self {
        self.inner.limits = limits;
        self
    }

    /// The shared X-fill seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// The shared generation-worker count — one pool configuration for
    /// the whole campaign (results stay byte-identical to serial).
    pub fn parallelism(mut self, n: usize) -> Self {
        self.inner.parallelism = n.max(1);
        self
    }

    /// Per-circuit wall-clock budget.
    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.inner.time_budget = Some(budget);
        self
    }

    /// Persists one `<circuit>.run.json` artifact per circuit under
    /// `dir`, plus checkpoints while each circuit runs.
    pub fn artifact_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.inner.artifact_dir = Some(dir.into());
        self
    }

    /// Checkpoint cadence while a circuit runs (default 64 outcomes;
    /// only effective with [`CampaignBuilder::artifact_dir`]).
    pub fn checkpoint_every(mut self, every: usize) -> Self {
        self.inner.checkpoint_every = every.max(1);
        self
    }

    /// Reuses artifacts found in the artifact directory: completed
    /// circuits are loaded instead of re-run, partial checkpoints are
    /// resumed.
    pub fn resume(mut self, resume: bool) -> Self {
        self.inner.resume = resume;
        self
    }

    /// Attaches a streaming observer shared by every circuit; its
    /// `on_progress` receives **campaign-cumulative** counts.
    pub fn observer(mut self, observer: impl Observer + 'static) -> Self {
        self.inner.observer = Some(Box::new(observer));
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> Campaign {
        self.inner
    }

    /// Builds and immediately runs the campaign.
    pub fn run(self) -> CampaignReport {
        self.build().run()
    }
}

/// Forwards observer callbacks to the campaign's shared observer with
/// campaign-cumulative progress.
struct AggregateObserver<'a> {
    inner: &'a mut dyn Observer,
    offset: usize,
    grand_total: usize,
}

impl Observer for AggregateObserver<'_> {
    fn on_run_start(&mut self, engine: &'static str, circuit: &Circuit, total_faults: usize) {
        self.inner.on_run_start(engine, circuit, total_faults);
    }
    fn on_fault(&mut self, record: &crate::driver::FaultRecord) {
        self.inner.on_fault(record);
    }
    fn on_sequence(&mut self, index: usize, sequence: &crate::pattern::TestSequence) {
        self.inner.on_sequence(index, sequence);
    }
    fn on_progress(&mut self, decided: usize, _total: usize) {
        self.inner
            .on_progress(self.offset + decided, self.grand_total);
    }
    fn on_run_end(&mut self, report: &CircuitReport) {
        self.inner.on_run_end(report);
    }
    fn on_checkpoint(&mut self, snapshot: &crate::engine::RunSnapshot<'_>) {
        self.inner.on_checkpoint(snapshot);
    }
    fn cancelled(&mut self) -> bool {
        self.inner.cancelled()
    }
}

/// The aggregate outcome of a [`Campaign`]: the per-circuit
/// [`CircuitReport`]s plus Table-3-style totals.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// One report per circuit, in campaign order.
    pub circuits: Vec<CircuitReport>,
    /// How many circuits were satisfied from existing artifacts
    /// (loaded complete or resumed partial) rather than run from
    /// scratch.
    pub resumed: usize,
    /// `true` when the campaign stopped early (observer cancellation or
    /// a fatal artifact error, recorded in `warnings`).
    pub stopped: bool,
    /// The circuits whose run stopped (time budget or cancellation)
    /// before leaving any resumable state in the artifact directory. Each
    /// also has a warning.
    pub unsaved: Vec<String>,
    /// Non-fatal trouble (artifact I/O failures, ignored artifacts).
    pub warnings: Vec<String>,
    /// Campaign wall-clock.
    pub elapsed: Duration,
}

impl CampaignReport {
    /// Sums the per-circuit rows into one `TOTAL` row.
    pub fn totals(&self) -> Table3Row {
        let mut total = Table3Row {
            circuit: "TOTAL".to_string(),
            tested: 0,
            untestable: 0,
            aborted: 0,
            patterns: 0,
            elapsed: self.elapsed,
        };
        for r in &self.circuits {
            total.tested += r.row.tested;
            total.untestable += r.row.untestable;
            total.aborted += r.row.aborted;
            total.patterns += r.row.patterns;
        }
        total
    }

    /// Sums the per-circuit coverage tallies into one campaign-wide
    /// [`Coverage`] (collapsed denominators survive only when every
    /// circuit carried them).
    pub fn coverage(&self) -> Coverage {
        let mut total = Coverage::zero(0);
        let mut it = self.circuits.iter();
        if let Some(first) = it.next() {
            total = first.coverage;
        }
        for r in it {
            total.merge(&r.coverage);
        }
        total
    }

    /// Renders the Table-3-style report: header, one row per circuit
    /// (with coverage columns), a separator, the totals row and a
    /// campaign-wide coverage summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", CircuitReport::header());
        for r in &self.circuits {
            let _ = writeln!(out, "{}", r.line());
        }
        let _ = writeln!(out, "{}", "-".repeat(CircuitReport::header().len()));
        let total = self.totals();
        let _ = writeln!(out, "{total}");
        let faults = total.total_faults().max(1);
        let _ = writeln!(
            out,
            "{} circuits, {} faults, {:.1}% tested, {:.1}% test efficiency{}",
            self.circuits.len(),
            total.total_faults(),
            100.0 * total.tested as f64 / faults as f64,
            100.0 * total.test_efficiency(),
            if self.resumed > 0 {
                format!(", {} from artifacts", self.resumed)
            } else {
                String::new()
            }
        );
        let _ = writeln!(out, "coverage: {}", self.coverage());
        for w in &self.warnings {
            let _ = writeln!(out, "warning: {w}");
        }
        out
    }
}

impl Campaign {
    fn artifact_path(dir: &Path, circuit: &Circuit) -> PathBuf {
        dir.join(format!("{}.run.json", circuit.name()))
    }

    /// Runs every circuit through the shared configuration, streaming
    /// aggregated progress to the attached observer, persisting/reusing
    /// artifacts when an artifact directory is configured.
    pub fn run(&mut self) -> CampaignReport {
        let start = Instant::now();
        let model = self.model.unwrap_or_else(|| self.backend.default_model());
        let config = crate::engine::RunConfig {
            backend: self.backend,
            model,
            sensitization: self.sensitization,
            universe: self.universe,
            limits: self.limits,
            seed: self.seed,
        };
        let totals: Vec<usize> = self
            .circuits
            .iter()
            .map(|(c, _)| faults_of(c, model, &self.universe).len())
            .collect();
        let grand_total: usize = totals.iter().sum();
        let mut report = CampaignReport {
            circuits: Vec::new(),
            resumed: 0,
            stopped: false,
            unsaved: Vec::new(),
            warnings: Vec::new(),
            elapsed: Duration::ZERO,
        };
        let mut offset = 0usize;

        for (i, (circuit, source)) in self.circuits.iter().enumerate() {
            let path = self
                .artifact_dir
                .as_ref()
                .map(|dir| Self::artifact_path(dir, circuit));

            // Reuse existing artifacts when resuming — but only ones
            // recorded under *this* campaign's exact configuration; a
            // stale artifact from a different backend/seed/universe must
            // not masquerade as this campaign's result.
            let mut resume_artifact = None;
            if self.resume {
                if let Some(path) = &path {
                    if path.exists() {
                        match RunArtifact::load(path) {
                            Ok(artifact) if artifact.config() != config => {
                                report.warnings.push(format!(
                                    "{}: ignoring artifact with a different configuration",
                                    circuit.name()
                                ));
                            }
                            Ok(artifact) if !artifact.partial => match artifact.to_run(circuit) {
                                Ok(run) => {
                                    report.circuits.push(run.report);
                                    report.resumed += 1;
                                    offset += totals[i];
                                    continue;
                                }
                                Err(e) => report
                                    .warnings
                                    .push(format!("{}: ignoring artifact: {e}", circuit.name())),
                            },
                            Ok(artifact) => resume_artifact = Some(artifact),
                            Err(e) => report
                                .warnings
                                .push(format!("{}: ignoring artifact: {e}", circuit.name())),
                        }
                    }
                }
            }

            // The one place the per-circuit builder is assembled; the
            // resume-failure fallback below reuses it so the two paths
            // can never diverge (e.g. silently dropping the time budget).
            let make_builder = || {
                let mut b = Atpg::builder(circuit)
                    .backend(self.backend)
                    .model(model)
                    .sensitization(self.sensitization)
                    .universe(self.universe)
                    .limits(self.limits)
                    .seed(self.seed)
                    .parallelism(self.parallelism);
                if let Some(budget) = self.time_budget {
                    b = b.time_budget(budget);
                }
                b
            };
            let mut builder = make_builder();
            let mut resumed_this = false;
            if let Some(artifact) = &resume_artifact {
                match builder.resume_from(artifact) {
                    Ok(b) => {
                        builder = b;
                        resumed_this = true;
                    }
                    Err(e) => {
                        report
                            .warnings
                            .push(format!("{}: cannot resume: {e}", circuit.name()));
                        builder = make_builder();
                    }
                }
            }
            if let Some(observer) = self.observer.as_deref_mut() {
                builder = builder.observer(AggregateObserver {
                    inner: observer,
                    offset,
                    grand_total,
                });
            }
            let effective_source = source.clone().unwrap_or_else(|| CircuitSource::of(circuit));
            let mut checkpoints_written = None;
            if let Some(path) = &path {
                let checkpointer = Checkpointer::new(path, self.checkpoint_every)
                    .with_source(effective_source.clone());
                checkpoints_written = Some(checkpointer.written_handle());
                builder = builder.observer(checkpointer);
            }

            let run = builder.build().run();
            if resumed_this {
                report.resumed += 1;
            }

            if let Some(path) = &path {
                match &run.stopped {
                    None => {
                        let artifact =
                            RunArtifact::from_run(circuit, &run, config, Some(effective_source));
                        if let Err(e) = artifact.save(path) {
                            report
                                .warnings
                                .push(format!("{}: artifact save failed: {e}", circuit.name()));
                        }
                    }
                    // A stopped run saves no complete artifact: the
                    // cancel-fill marked its undecided tail aborted, which
                    // a resume must not inherit. Its resumable state is
                    // the last checkpoint, or the partial artifact it
                    // resumed from.
                    Some(reason) => {
                        let written =
                            checkpoints_written.is_some_and(|w| w.load(Ordering::Relaxed) > 0);
                        if written || resumed_this {
                            report.warnings.push(format!(
                                "{}: {reason}; resumable checkpoint left at {}",
                                circuit.name(),
                                path.display()
                            ));
                        } else {
                            report.warnings.push(format!(
                                "{}: {reason} before the first checkpoint; no resumable \
                                 artifact at {}",
                                circuit.name(),
                                path.display()
                            ));
                            report.unsaved.push(circuit.name().to_string());
                        }
                    }
                }
            }

            let cancelled = run.stopped == Some(AtpgError::Cancelled);
            report.circuits.push(run.report);
            offset += totals[i];
            if cancelled {
                // The observer asked to stop; the remaining circuits
                // would be cancelled immediately anyway.
                report.stopped = true;
                break;
            }
        }

        report.elapsed = start.elapsed();
        report
    }
}

// ---------------------------------------------------------------------
// Pattern re-grading
// ---------------------------------------------------------------------

/// Result of re-grading a [`PatternSet`] against a fault universe.
#[derive(Debug, Clone, PartialEq)]
pub struct GradeReport {
    /// Circuit name.
    pub circuit: String,
    /// The fault model the patterns were graded against.
    pub model: ModelKind,
    /// Size of the graded fault universe.
    pub total_faults: usize,
    /// Per fault (universe enumeration order): the index of the first
    /// pattern that detects it, or `None` if no pattern does.
    pub first_detector: Vec<Option<usize>>,
    /// Patterns that were graded (at-speed sequences).
    pub patterns_graded: usize,
    /// Patterns skipped because they are all-slow static sequences
    /// (stuck-at exports carry no launch/capture pair to grade).
    pub skipped_static: usize,
}

impl GradeReport {
    /// Number of detected faults.
    pub fn detected(&self) -> usize {
        self.first_detector.iter().filter(|d| d.is_some()).count()
    }

    /// Detected / total, in `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.total_faults == 0 {
            0.0
        } else {
            self.detected() as f64 / self.total_faults as f64
        }
    }
}

impl std::fmt::Display for GradeReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {}/{} {} faults detected ({:.1}%) by {} patterns",
            self.circuit,
            self.detected(),
            self.total_faults,
            self.model,
            100.0 * self.coverage(),
            self.patterns_graded,
        )?;
        if self.skipped_static > 0 {
            write!(f, " ({} static patterns skipped)", self.skipped_static)?;
        }
        Ok(())
    }
}

/// Re-grades a saved [`PatternSet`] against `model`'s faults over
/// `universe` on `circuit`, using the packed three-phase fault simulator
/// with the §5 semantics of the generating run (including each pattern's
/// recorded relied-PPO invalidation check). Faults already detected by
/// an earlier pattern are dropped from later sweeps, mirroring the
/// ATPG's own fault-dropping order.
///
/// `model` may be [`ModelKind::Delay`] (robust classification) or
/// [`ModelKind::Transition`] (non-robust final-value classification) —
/// the same at-speed pattern set can be graded under both, which is how
/// a robust test set's transition coverage is measured. Stuck-at
/// patterns carry no launch/capture pair, so [`ModelKind::Stuck`] is
/// rejected.
///
/// `seed` drives the random fill of X values and uninitialized state
/// bits, exactly as in generation.
///
/// Phase 1 (the good machine) runs once per batch of up to
/// [`MAX_LANES`] consecutive sequences, one per bit lane
/// ([`gdf_sim::grading::simulate_batch`]). A batch starts at any
/// at-speed sequence, whose PI X-fill is drawn first, and takes in the
/// following sequences with the same frame count and fast frame and no
/// `X` in any PI frame; a static sequence, a shape change or a sequence
/// with PI `X`s ends it. The followers draw no PI fill, so every draw —
/// the state fill included — lands where a sequence-at-a-time loop puts
/// it, and the report is identical to one.
///
/// Phase 3's screen ([`gdf_sim::grading::screen_batch`]) also runs once
/// per batch: it gives each fault no earlier batch detected the lanes
/// whose sequence provokes it and carries its effect to its
/// fanout-free-region root. Phases 2 and 3 and the relied-PPO lookup
/// then run per sequence, in order, for the faults its lane admits and
/// no earlier lane detected ([`gdf_sim::grading::grade_screened`]).
/// Dropping happens per batch: the batch's detections leave the fault
/// list in one pass after its last sequence.
///
/// # Errors
///
/// [`ArtifactError::Mismatch`] when the pattern set names a different
/// circuit, has a frame whose width is not the circuit's input count,
/// references signals the circuit does not have, or asks for the
/// stuck-at model.
///
/// # Example
///
/// ```
/// use gdf_core::artifact::PatternSet;
/// use gdf_core::engine::Atpg;
/// use gdf_core::session::grade_patterns;
/// use gdf_netlist::{suite, FaultUniverse, ModelKind};
///
/// let c = suite::s27();
/// let run = Atpg::builder(&c).build().run();
/// let set = PatternSet::from_run(&c, &run, "non-scan", 0x1995_0308, None);
/// let universe = FaultUniverse::default();
/// let grade =
///     grade_patterns(&c, &set, ModelKind::Delay, &universe, 0x1995_0308).unwrap();
/// // The saved patterns re-detect faults on their own.
/// assert!(grade.detected() > 0);
/// // The same patterns detect at least as many transition faults.
/// let tf = grade_patterns(&c, &set, ModelKind::Transition, &universe, 0x1995_0308)
///     .unwrap();
/// assert!(tf.detected() >= grade.detected());
/// ```
pub fn grade_patterns(
    circuit: &Circuit,
    set: &PatternSet,
    model: ModelKind,
    universe: &FaultUniverse,
    seed: u64,
) -> Result<GradeReport, ArtifactError> {
    if set.circuit.name != circuit.name() {
        return Err(ArtifactError::Mismatch(format!(
            "pattern set is for circuit `{}`, grading `{}`",
            set.circuit.name,
            circuit.name()
        )));
    }
    if model == ModelKind::Stuck {
        return Err(ArtifactError::Mismatch(
            "stuck-at faults have no launch/capture semantics to grade patterns against \
             (grade delay or transition)"
                .into(),
        ));
    }
    for (pi, pattern) in set.patterns.iter().enumerate() {
        for (frame, v) in pattern.sequence.vectors().iter().enumerate() {
            if v.pi.len() != circuit.num_inputs() {
                return Err(ArtifactError::Mismatch(format!(
                    "pattern {pi} frame {frame} has {} inputs, circuit `{}` has {}",
                    v.pi.len(),
                    circuit.name(),
                    circuit.num_inputs()
                )));
            }
        }
    }
    // The faults no earlier batch detected, in list order, and their
    // indexes into the fault list.
    let mut remaining: Vec<Fault> = model.model().enumerate(circuit, universe).collect();
    let total_faults = remaining.len();
    let mut ids: Vec<usize> = (0..total_faults).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = GradeScratch::default();
    let mut filled: Vec<Vec<Vec<bool>>> = Vec::new();
    let mut first_detector: Vec<Option<usize>> = vec![None; total_faults];
    let mut screen: Vec<(usize, u64)> = Vec::new();
    let mut patterns_graded = 0usize;
    let mut skipped_static = 0usize;

    let patterns = &set.patterns;
    let mut start = 0;
    while start < patterns.len() {
        let lead = &patterns[start].sequence;
        let Some(fast) = lead.at_speed() else {
            skipped_static += 1;
            start += 1;
            continue;
        };
        if remaining.is_empty() {
            patterns_graded += 1;
            start += 1;
            continue;
        }
        // Phase 1 once for the batch this sequence leads: the following
        // sequences of its shape whose PI frames draw no X-fill, so the
        // state fill of each lane draws exactly where a
        // sequence-at-a-time loop would.
        let lanes = 1 + patterns[start + 1..]
            .iter()
            .take(MAX_LANES - 1)
            .take_while(|p| {
                let seq = &p.sequence;
                seq.at_speed() == Some(fast)
                    && seq.len() == lead.len()
                    && seq.vectors().iter().all(|v| !v.pi.contains(&Logic3::X))
            })
            .count();
        if filled.len() < lanes {
            filled.resize_with(lanes, Vec::new);
        }
        for (p, dst) in patterns[start..start + lanes].iter().zip(&mut filled) {
            p.sequence.fill_into(|| rng.gen(), dst);
        }
        simulate_batch(circuit, &filled[..lanes], fast, &mut rng, &mut scratch);
        // Phase 3's screen, once for the batch: per remaining fault, the
        // lanes whose sequence can detect it.
        screen_batch(circuit, &remaining, &mut screen, &mut scratch);

        // Phases 2 and 3 per sequence, in order, for the faults its lane
        // admits and no earlier lane detected.
        let mut undetected = remaining.len();
        for (lane, pi) in (start..start + lanes).enumerate() {
            patterns_graded += 1;
            if undetected == 0 {
                continue;
            }
            let relied = set.relied_nodes(circuit, pi)?;
            for k in grade_screened(circuit, lane, &relied, &remaining, &screen, &mut scratch) {
                first_detector[ids[k]] = Some(pi);
                // No later lane grades a detected fault again.
                let at = screen.partition_point(|&(j, _)| j < k);
                screen[at].1 = 0;
                undetected -= 1;
            }
        }
        // Strike the batch's detections in one pass that keeps the order
        // of the rest.
        let mut k = 0;
        remaining.retain(|_| {
            k += 1;
            first_detector[ids[k - 1]].is_none()
        });
        ids.retain(|&id| first_detector[id].is_none());
        start += lanes;
    }

    Ok(GradeReport {
        circuit: circuit.name().to_string(),
        model,
        total_faults,
        first_detector,
        patterns_graded,
        skipped_static,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::FaultClassification;
    use gdf_netlist::suite;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gdf-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn checkpointer_writes_resumable_artifacts() {
        let dir = temp_dir("ckpt");
        let path = dir.join("s27.run.json");
        let c = suite::s27();
        let run = Atpg::builder(&c)
            .backend(Backend::StuckAt)
            .checkpoint(&path, 4)
            .build()
            .run();
        assert!(path.exists(), "checkpoint file written");
        let artifact = RunArtifact::load(&path).unwrap();
        assert!(artifact.partial);
        assert!(artifact.decided() > 0);
        assert!(artifact.decided() <= run.records.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_says_what_a_stopped_circuit_left() {
        let dir = temp_dir("campstop");
        let path = dir.join("s27.run.json");
        let budgeted = || {
            Campaign::builder()
                .backend(Backend::StuckAt)
                .circuit(suite::s27())
                .artifact_dir(&dir)
                .time_budget(Duration::ZERO)
        };
        // Stopped before the first checkpoint: nothing to resume.
        let report = budgeted().run();
        assert_eq!(report.unsaved, ["s27"]);
        assert!(
            report.warnings[0].contains("no resumable artifact"),
            "{:?}",
            report.warnings
        );
        assert!(!path.exists());

        // Resumed from an interrupted run's checkpoint and stopped again:
        // the checkpoint still holds the resumable state.
        struct StopAfter(usize);
        impl Observer for StopAfter {
            fn on_fault(&mut self, _: &crate::driver::FaultRecord) {
                self.0 = self.0.saturating_sub(1);
            }
            fn cancelled(&mut self) -> bool {
                self.0 == 0
            }
        }
        Atpg::builder(&suite::s27())
            .backend(Backend::StuckAt)
            .checkpoint(&path, 4)
            .observer(StopAfter(10))
            .build()
            .run();
        let report = budgeted().resume(true).run();
        assert!(report.unsaved.is_empty());
        assert!(
            report.warnings[0].contains("resumable checkpoint left at"),
            "{:?}",
            report.warnings
        );
        assert!(RunArtifact::load(&path).unwrap().partial);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_resume_rejects_foreign_configuration() {
        // An artifact recorded under a different backend/seed must not be
        // passed off as this campaign's result: the circuit re-runs and a
        // warning names the ignored artifact.
        let dir = temp_dir("campcfg");
        let stuck = Campaign::builder()
            .backend(Backend::StuckAt)
            .circuit(suite::s27())
            .artifact_dir(&dir)
            .run();
        assert_eq!(stuck.resumed, 0);
        let other = Campaign::builder()
            .backend(Backend::StuckAt)
            .seed(99)
            .circuit(suite::s27())
            .artifact_dir(&dir)
            .resume(true)
            .run();
        assert_eq!(other.resumed, 0, "foreign-config artifact not reused");
        assert!(
            other
                .warnings
                .iter()
                .any(|w| w.contains("different configuration")),
            "{:?}",
            other.warnings
        );
        // Same configuration again: now it does reuse the fresh artifact.
        let same = Campaign::builder()
            .backend(Backend::StuckAt)
            .seed(99)
            .circuit(suite::s27())
            .artifact_dir(&dir)
            .resume(true)
            .run();
        assert_eq!(same.resumed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_aggregates_and_persists() {
        let dir = temp_dir("camp");
        let circuits = || {
            vec![
                suite::s27(),
                suite::extra_circuit("s42").expect("embedded s42"),
            ]
        };
        struct Count(Arc<AtomicUsize>);
        impl Observer for Count {
            fn on_progress(&mut self, decided: usize, total: usize) {
                assert!(decided <= total, "campaign-cumulative progress");
                self.0.store(decided, Ordering::Relaxed);
            }
        }
        let seen = Arc::new(AtomicUsize::new(0));
        let report = Campaign::builder()
            .backend(Backend::StuckAt)
            .circuits(circuits())
            .artifact_dir(&dir)
            .checkpoint_every(8)
            .observer(Count(Arc::clone(&seen)))
            .run();
        assert_eq!(report.circuits.len(), 2);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        let totals = report.totals();
        assert_eq!(
            seen.load(Ordering::Relaxed),
            totals.total_faults() as usize,
            "final cumulative progress covers every fault in the campaign"
        );
        assert!(report.render().contains("TOTAL"));

        // Second run resumes entirely from artifacts and matches.
        let rerun = Campaign::builder()
            .backend(Backend::StuckAt)
            .circuits(circuits())
            .artifact_dir(&dir)
            .resume(true)
            .run();
        assert_eq!(rerun.resumed, 2);
        for (a, b) in report.circuits.iter().zip(&rerun.circuits) {
            assert_eq!(a.row.normalized(), b.row.normalized());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grading_recovers_most_generated_detections_deterministically() {
        // Re-grading replays the same packed simulator and invalidation
        // semantics, but with a fresh RNG stream for the X-fill, so the
        // exact detection set may differ from the generating run's credit
        // pass. It must still be deterministic for a fixed seed and
        // recover the bulk of the generated coverage (the explicitly
        // targeted tests only rely on their justified, non-X bits).
        let c = suite::s27();
        let seed = 0x1995_0308;
        let run = Atpg::builder(&c).seed(seed).build().run();
        let set = PatternSet::from_run(&c, &run, "non-scan", seed, None);
        let grade =
            grade_patterns(&c, &set, ModelKind::Delay, &FaultUniverse::default(), seed).unwrap();
        assert_eq!(grade.total_faults, run.records.len());
        let tested = run
            .records
            .iter()
            .filter(|r| r.classification == FaultClassification::Tested)
            .count();
        assert!(
            2 * grade.detected() >= tested,
            "grading found {} of {} generated detections",
            grade.detected(),
            tested
        );
        let again =
            grade_patterns(&c, &set, ModelKind::Delay, &FaultUniverse::default(), seed).unwrap();
        assert_eq!(again, grade, "grading is deterministic per seed");
    }

    #[test]
    fn grading_rejects_wrong_circuit() {
        let c = suite::s27();
        let other = suite::extra_circuit("s42").unwrap();
        let run = Atpg::builder(&c).build().run();
        let set = PatternSet::from_run(&c, &run, "non-scan", 1, None);
        assert!(matches!(
            grade_patterns(&other, &set, ModelKind::Delay, &FaultUniverse::default(), 1),
            Err(ArtifactError::Mismatch(_))
        ));
    }
}
