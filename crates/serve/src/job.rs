//! Job records: the submission spec, the state machine, and the
//! persistent `job.json` wire form that makes the server crash-safe.
//!
//! A job directory (`<dir>/job-<id>/`) holds two files:
//!
//! * `job.json` — this module's record: id, state, the full
//!   [`JobSpec`] (circuit provenance + [`RunConfig`] in the exact field
//!   layout run artifacts use), and the error message for failed jobs.
//!   Written atomically on every state transition.
//! * `run.json` — the engine's [`gdf_core::artifact::RunArtifact`]: a
//!   resumable checkpoint while the job runs (written by the
//!   [`gdf_core::session::Checkpointer`]), the complete artifact once it
//!   finishes.
//!
//! On restart the server replays the directory: terminal jobs are simply
//! listed again, queued/running jobs re-enter the queue and resume from
//! their checkpoint — the byte-identical-resume guarantee of the
//! artifact layer, extended over the server's lifetime.

use crate::events::EventLog;
use gdf_core::artifact::{
    decode_config, decode_config_v1, decode_coverage, encode_config, encode_coverage,
    ArtifactError, CircuitSource,
};
use gdf_core::engine::RunConfig;
use gdf_core::json::Json;
use gdf_core::Coverage;
use gdf_obs::TraceCtx;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;

/// Job identifier: dense, monotonically increasing per server directory.
pub type JobId = u64;

/// The job state machine. `Queued → Running → Done | Failed |
/// Cancelled`; a crash leaves `Queued`/`Running` on disk, which recovery
/// maps back to `Queued`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the job queue.
    Queued,
    /// A worker is driving the engine.
    Running,
    /// Completed; the final artifact is on disk.
    Done,
    /// The engine or artifact layer errored; see the record's `error`.
    Failed,
    /// Cancelled by `DELETE /jobs/<id>`.
    Cancelled,
}

impl JobState {
    /// `true` for states a job never leaves.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    /// The stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`JobState::name`].
    pub fn parse(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            _ => return None,
        })
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything a submission pins down. Two submissions with equal specs
/// produce byte-identical artifacts — `parallelism` is runtime-only and
/// does not change results (the engine's determinism invariant).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Circuit provenance (suite reference or embedded `.bench` text).
    pub source: CircuitSource,
    /// The full run configuration (backend, model, universe, limits,
    /// seed) — artifact-layout fields.
    pub config: RunConfig,
    /// Generation workers inside this job's engine (results unchanged).
    pub parallelism: usize,
    /// Checkpoint cadence in decided faults.
    pub checkpoint_every: usize,
    /// `Some` turns the job into a *shard job*: target only fault
    /// universe indexes `[lo, hi)` and produce a
    /// [`gdf_core::ShardArtifact`] (pure generation outcomes, no credit
    /// pass, no RNG draws) instead of a full run artifact.
    pub shard: Option<ShardSpec>,
    /// The authenticated tenant that submitted this job, when the
    /// server runs with a tenant registry (`gdf serve --tenants`).
    /// Admission bookkeeping only — never part of the cache key or the
    /// artifact, so identical specs hit the result cache across
    /// tenants (the determinism invariant makes that exact).
    pub tenant: Option<String>,
}

/// The shard tag of a shard job: which universe range to cover, and the
/// coordinator-assigned provenance label (`fleet:<plan>/unit-<k>`) that
/// survives in `job.json` so an operator can trace a node's queue back
/// to the fleet plan that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// First universe index of the range (inclusive).
    pub lo: usize,
    /// One past the last universe index (exclusive).
    pub hi: usize,
    /// Free-form provenance label assigned by the submitter.
    pub tag: String,
}

impl ShardSpec {
    /// The wire object used by submissions and `job.json`.
    pub fn encode(&self) -> Json {
        Json::Obj(vec![
            ("lo".into(), Json::Num(self.lo as f64)),
            ("hi".into(), Json::Num(self.hi as f64)),
            ("tag".into(), Json::Str(self.tag.clone())),
        ])
    }

    /// Inverse of [`ShardSpec::encode`].
    pub fn decode(j: &Json) -> Result<Self, String> {
        let field = |name: &str| {
            j.get(name)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("shard needs a numeric `{name}`"))
        };
        let lo = field("lo")?;
        let hi = field("hi")?;
        if lo > hi {
            return Err(format!("shard range [{lo}‥{hi}) is inverted"));
        }
        Ok(ShardSpec {
            lo,
            hi,
            tag: j
                .get("tag")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        })
    }
}

/// Aggregate counters mirrored from the final report into `job.json`,
/// so `GET /jobs/<id>` answers without re-reading the artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportSummary {
    /// Faults with a complete test.
    pub tested: u32,
    /// Faults proven untestable.
    pub untestable: u32,
    /// Faults abandoned at a limit.
    pub aborted: u32,
    /// Total applied vectors.
    pub patterns: u32,
    /// Emitted sequences.
    pub sequences: u32,
    /// First-class coverage accounting (version-1 records, which predate
    /// it, reconstruct the uncollapsed part from the counters above).
    pub coverage: Coverage,
}

impl From<&gdf_core::CircuitReport> for ReportSummary {
    fn from(report: &gdf_core::CircuitReport) -> Self {
        ReportSummary {
            tested: report.row.tested,
            untestable: report.row.untestable,
            aborted: report.row.aborted,
            patterns: report.row.patterns,
            sequences: report.sequences,
            coverage: report.coverage,
        }
    }
}

impl ReportSummary {
    /// The wire object shared by `job.json` and `GET /jobs/<id>`.
    pub fn encode(&self) -> Json {
        Json::Obj(vec![
            ("tested".into(), Json::Num(self.tested as f64)),
            ("untestable".into(), Json::Num(self.untestable as f64)),
            ("aborted".into(), Json::Num(self.aborted as f64)),
            ("patterns".into(), Json::Num(self.patterns as f64)),
            ("sequences".into(), Json::Num(self.sequences as f64)),
            ("coverage".into(), encode_coverage(&self.coverage)),
        ])
    }
}

/// The mutable face of a job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Current state.
    pub state: JobState,
    /// Error message for failed jobs.
    pub error: Option<String>,
    /// Decided faults so far (live while running).
    pub decided: usize,
    /// Total faults of the run.
    pub total: usize,
    /// Final counters once done.
    pub report: Option<ReportSummary>,
    /// The trace context this job runs under: parsed from the
    /// submission's `X-Gdf-Trace` header, or digest-derived by the
    /// server. Persisted so a resumed job keeps its campaign
    /// correlation.
    pub trace: Option<TraceCtx>,
    /// Optional profiling summary (wall time, per-phase breakdown)
    /// attached when the job finishes with observability enabled.
    /// Strictly a side channel: never part of the canonical artifact.
    pub profile: Option<Json>,
}

/// One job as the server holds it: immutable spec, mutable status,
/// event fan-out, cooperative cancel flag.
pub struct Job {
    /// The id (also names the job directory).
    pub id: JobId,
    /// The submission.
    pub spec: JobSpec,
    /// Mutable status; lock order is status-then-nothing (never hold it
    /// across I/O).
    pub status: Mutex<JobStatus>,
    /// Progress fan-out for `/events` subscribers.
    pub events: EventLog,
    /// Set by `DELETE` (and by server shutdown) — the worker's observer
    /// polls it between faults.
    pub cancel: AtomicBool,
}

impl Job {
    /// A fresh queued job.
    pub fn new(id: JobId, spec: JobSpec) -> Self {
        Job {
            id,
            spec,
            status: Mutex::new(JobStatus {
                state: JobState::Queued,
                error: None,
                decided: 0,
                total: 0,
                report: None,
                trace: None,
                profile: None,
            }),
            events: EventLog::new(),
            cancel: AtomicBool::new(false),
        }
    }

    /// Snapshot of the mutable status.
    pub fn status(&self) -> JobStatus {
        self.status.lock().expect("job status poisoned").clone()
    }

    /// The job's directory under the server dir.
    pub fn dir(server_dir: &Path, id: JobId) -> PathBuf {
        server_dir.join(format!("job-{id}"))
    }

    /// Path of the persistent job record.
    pub fn record_path(server_dir: &Path, id: JobId) -> PathBuf {
        Self::dir(server_dir, id).join("job.json")
    }

    /// Path of the run artifact / checkpoint.
    pub fn artifact_path(server_dir: &Path, id: JobId) -> PathBuf {
        Self::dir(server_dir, id).join("run.json")
    }
}

// ---------------------------------------------------------------------
// job.json codec
// ---------------------------------------------------------------------

const JOB_FORMAT: &str = "gdf-job";
/// v3 (PR 6): optional `shard` tag for fleet shard jobs; later PRs add
/// further *optional* keys (`trace`/`profile`, `tenant`) that older v3
/// readers ignore and older records simply lack. v2 (PR 5):
/// config carries `model` + `sensitization`, report summaries carry
/// `coverage`. v1 records (PR 4 servers) still decode — the old `model`
/// field maps to the sensitization and the fault model defaults from
/// the backend, exactly like the artifact layer's v1 loader. v2 records
/// simply have no `shard` field, which reads as `None`.
const JOB_VERSION: u64 = 3;
const JOB_VERSION_MIN: u64 = 1;

fn schema(m: impl Into<String>) -> ArtifactError {
    ArtifactError::Schema(m.into())
}

/// Encodes a job record (`id`, `state`, `error`, spec fields, report
/// summary) as pretty JSON.
pub fn encode_record(id: JobId, spec: &JobSpec, status: &JobStatus) -> String {
    let mut fields = vec![
        ("format".into(), Json::Str(JOB_FORMAT.into())),
        ("version".into(), Json::Num(JOB_VERSION as f64)),
        ("id".into(), Json::Num(id as f64)),
        ("state".into(), Json::Str(status.state.name().into())),
        (
            "error".into(),
            match &status.error {
                Some(e) => Json::Str(e.clone()),
                None => Json::Null,
            },
        ),
        ("parallelism".into(), Json::Num(spec.parallelism as f64)),
        (
            "checkpoint_every".into(),
            Json::Num(spec.checkpoint_every as f64),
        ),
    ];
    if let Some(shard) = &spec.shard {
        fields.push(("shard".into(), shard.encode()));
    }
    // Optional like the observability keys below: open-mode records
    // (and every pre-tenancy record) simply have no `tenant`.
    if let Some(tenant) = &spec.tenant {
        fields.push(("tenant".into(), Json::Str(tenant.clone())));
    }
    fields.extend(encode_config(&spec.config));
    fields.push(("circuit".into(), spec.source.encode()));
    fields.push((
        "report".into(),
        match &status.report {
            None => Json::Null,
            Some(r) => r.encode(),
        },
    ));
    // Observability side channel: optional keys, so v3 readers that
    // predate them keep decoding these records unchanged.
    if let Some(trace) = &status.trace {
        fields.push(("trace".into(), Json::Str(trace.header_value())));
    }
    if let Some(profile) = &status.profile {
        fields.push(("profile".into(), profile.clone()));
    }
    Json::Obj(fields).pretty()
}

/// Decodes a `job.json` record.
pub fn decode_record(text: &str) -> Result<(JobId, JobSpec, JobStatus), ArtifactError> {
    let j = Json::parse(text)?;
    if j.get("format").and_then(Json::as_str) != Some(JOB_FORMAT) {
        return Err(schema("not a gdf-job record"));
    }
    let version = j
        .get("version")
        .and_then(Json::as_u64)
        .ok_or_else(|| schema("missing `version`"))?;
    if !(JOB_VERSION_MIN..=JOB_VERSION).contains(&version) {
        return Err(schema(format!(
            "unsupported job record version {version} (this build reads \
             v{JOB_VERSION_MIN} through v{JOB_VERSION})"
        )));
    }
    let id = j
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| schema("missing `id`"))?;
    let state = j
        .get("state")
        .and_then(Json::as_str)
        .and_then(JobState::parse)
        .ok_or_else(|| schema("missing or unknown `state`"))?;
    let error = j.get("error").and_then(Json::as_str).map(str::to_string);
    let spec = JobSpec {
        source: CircuitSource::decode(
            j.get("circuit")
                .ok_or_else(|| schema("missing `circuit`"))?,
        )?,
        config: if version == 1 {
            decode_config_v1(&j)?
        } else {
            decode_config(&j)?
        },
        parallelism: j
            .get("parallelism")
            .and_then(Json::as_usize)
            .unwrap_or(1)
            .max(1),
        checkpoint_every: j
            .get("checkpoint_every")
            .and_then(Json::as_usize)
            .unwrap_or(16)
            .max(1),
        shard: match j.get("shard") {
            None | Some(Json::Null) => None,
            Some(s) => Some(ShardSpec::decode(s).map_err(schema)?),
        },
        tenant: j.get("tenant").and_then(Json::as_str).map(str::to_string),
    };
    let report = match j.get("report") {
        None | Some(Json::Null) => None,
        Some(r) => {
            let count = |name: &str| {
                r.get(name)
                    .and_then(Json::as_u64)
                    .map(|v| v as u32)
                    .ok_or_else(|| schema(format!("report missing `{name}`")))
            };
            let tested = count("tested")?;
            let untestable = count("untestable")?;
            let aborted = count("aborted")?;
            let coverage = match r.get("coverage") {
                // v1 summary: reconstruct the uncollapsed tally (the
                // hard/possible split and class counts were not
                // recorded).
                None | Some(Json::Null) => Coverage {
                    detected: tested,
                    possibly_detected: 0,
                    untestable,
                    aborted,
                    total: tested + untestable + aborted,
                    collapsed: None,
                },
                Some(c) => decode_coverage(c)?,
            };
            Some(ReportSummary {
                tested,
                untestable,
                aborted,
                patterns: count("patterns")?,
                sequences: count("sequences")?,
                coverage,
            })
        }
    };
    let trace = j
        .get("trace")
        .and_then(Json::as_str)
        .and_then(TraceCtx::parse);
    let profile = match j.get("profile") {
        None | Some(Json::Null) => None,
        Some(p) => Some(p.clone()),
    };
    let status = JobStatus {
        state,
        error,
        decided: 0,
        total: 0,
        report,
        trace,
        profile,
    };
    Ok((id, spec, status))
}

/// Atomic write (`path.tmp` + rename) through the core I/O facade, so
/// fault-injection harnesses see server-side persistence too.
pub fn write_atomic(path: &Path, text: &str) -> Result<(), ArtifactError> {
    gdf_core::io::write_atomic(path, text)
        .map_err(|e| ArtifactError::Io(format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdf_core::engine::Backend;
    use gdf_netlist::suite;

    #[test]
    fn job_record_round_trips() {
        let circuit = suite::s27();
        let spec = JobSpec {
            source: CircuitSource::suite(&circuit, "s27"),
            config: RunConfig::new(Backend::StuckAt).with_seed(0xDEAD),
            parallelism: 3,
            checkpoint_every: 8,
            shard: None,
            tenant: Some("acme".into()),
        };
        let mut status = JobStatus {
            state: JobState::Failed,
            error: Some("engine exploded".into()),
            decided: 5,
            total: 9,
            report: Some(ReportSummary {
                tested: 1,
                untestable: 2,
                aborted: 3,
                patterns: 4,
                sequences: 5,
                coverage: Coverage {
                    detected: 1,
                    possibly_detected: 0,
                    untestable: 2,
                    aborted: 3,
                    total: 6,
                    collapsed: None,
                },
            }),
            trace: TraceCtx::parse("000000000000000000000000000000ab-00000000000000cd"),
            profile: Some(Json::Obj(vec![("wall_us".into(), Json::Num(7.0))])),
        };
        let text = encode_record(42, &spec, &status);
        let (id, spec2, status2) = decode_record(&text).unwrap();
        assert_eq!(id, 42);
        assert_eq!(spec2, spec);
        assert_eq!(spec2.tenant.as_deref(), Some("acme"));
        assert_eq!(status2.state, JobState::Failed);
        assert_eq!(status2.error.as_deref(), Some("engine exploded"));
        assert_eq!(status2.report, status.report);
        assert_eq!(status2.trace, status.trace);
        assert!(status2.trace.is_some());
        assert_eq!(
            status2
                .profile
                .as_ref()
                .and_then(|p| p.get("wall_us"))
                .and_then(Json::as_u64),
            Some(7)
        );

        status.error = None;
        status.report = None;
        status.state = JobState::Queued;
        let (_, _, status3) = decode_record(&encode_record(1, &spec, &status)).unwrap();
        assert_eq!(status3.state, JobState::Queued);
        assert!(status3.error.is_none() && status3.report.is_none());
    }

    #[test]
    fn shard_tag_round_trips() {
        let circuit = suite::s27();
        let spec = JobSpec {
            source: CircuitSource::suite(&circuit, "s27"),
            config: RunConfig::new(Backend::NonScan),
            parallelism: 1,
            checkpoint_every: 4,
            shard: Some(ShardSpec {
                lo: 3,
                hi: 11,
                tag: "fleet:plan-7/unit-2".into(),
            }),
            tenant: None,
        };
        let status = JobStatus {
            state: JobState::Queued,
            error: None,
            decided: 0,
            total: 0,
            report: None,
            trace: None,
            profile: None,
        };
        let (_, spec2, _) = decode_record(&encode_record(9, &spec, &status)).unwrap();
        assert_eq!(spec2, spec);
        assert_eq!(spec2.shard.as_ref().unwrap().tag, "fleet:plan-7/unit-2");

        // An inverted range is a schema error, not a silent zero-length
        // shard.
        assert!(ShardSpec::decode(&Json::parse(r#"{"lo": 5, "hi": 2}"#).unwrap()).is_err());
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(decode_record("{}").is_err());
        assert!(decode_record("[1,2]").is_err());
        assert!(decode_record("{\"format\":\"gdf-run\"}").is_err());
    }

    #[test]
    fn state_machine_names() {
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::parse(state.name()), Some(state));
        }
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Done.is_terminal());
    }
}
