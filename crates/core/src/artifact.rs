//! Persistent run artifacts: hand-rolled JSON encode/decode for
//! [`AtpgRun`], [`Fault`]/[`FaultOutcome`], [`TestSequence`] and
//! [`PatternSet`].
//!
//! A run is no longer an in-memory value that dies with the process:
//! [`RunArtifact`] serializes a complete run *or* a mid-run checkpoint
//! ([`crate::engine::RunSnapshot`]) to a self-contained JSON document —
//! configuration, circuit provenance, decided fault records, emitted
//! sequences and the exact credit-RNG state — and
//! [`crate::engine::AtpgBuilder::resume_from`] restarts an interrupted
//! run from it byte-identically. [`PatternSet`] exports the emitted test
//! sequences alone, for re-grading ([`crate::session::grade_patterns`])
//! and tester hand-off.
//!
//! Faults and nets are encoded by **signal name**, never by node index,
//! so an artifact stays valid across circuit re-parses. The JSON layer is
//! [`crate::json`] (crates.io is unreachable, so no serde); `u64`
//! quantities (seed, RNG state) are encoded as hex strings because JSON
//! numbers are `f64`.
//!
//! # Example
//!
//! ```
//! use gdf_core::artifact::{PatternSet, RunArtifact};
//! use gdf_core::engine::{Atpg, Backend, RunConfig};
//! use gdf_netlist::suite;
//!
//! let c = suite::s27();
//! let run = Atpg::builder(&c).backend(Backend::StuckAt).build().run();
//!
//! // A completed run round-trips losslessly through JSON.
//! let artifact = RunArtifact::from_run(&c, &run, RunConfig::new(Backend::StuckAt), None);
//! let text = artifact.encode();
//! let back = RunArtifact::decode(&text).unwrap();
//! let restored = back.to_run(&c).unwrap();
//! assert_eq!(restored.records, run.records);
//! assert_eq!(restored.sequences, run.sequences);
//!
//! // So does a pattern set exported from it.
//! let set = PatternSet::from_run(&c, &run, "stuck-at", 0x1995_0308, None);
//! let set2 = PatternSet::decode(&set.encode()).unwrap();
//! assert_eq!(set2.patterns.len(), run.sequences.len());
//! ```

use crate::driver::{AtpgRun, FaultClassification, FaultRecord};
use crate::engine::{
    AtpgError, Backend, Detection, FaultOutcome, Limits, ResumeState, RunConfig, RunSnapshot,
};
use crate::json::{Json, JsonError};
use crate::pattern::TestSequence;
use crate::report::{CircuitReport, ClassCounts, Coverage, Table3Row};
use gdf_algebra::logic3::Logic3;
use gdf_netlist::{
    to_bench, Circuit, DelayFault, DelayFaultKind, Fault, FaultSite, FaultUniverse, ModelKind,
    NodeId, StuckAtKind, StuckFault, TransitionFault,
};
use gdf_tdgen::Sensitization;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::path::Path;
use std::time::Duration;

/// Current artifact schema version.
///
/// * **v2** (PR 5): the config carries a `model` (fault model:
///   `delay`/`stuck`/`transition`) *and* a `sensitization`
///   (`robust`/`non-robust`); reports embed a `coverage` object;
///   transition faults encode with model tag `"transition"`.
/// * **v1** (PR 3/4): `model` held the sensitization name and the fault
///   model was implied by the backend. v1 documents still load —
///   [`RunArtifact::decode`] maps the old fields and reconstructs the
///   coverage tally from the records (without collapsed denominators,
///   which v1 never recorded).
pub const ARTIFACT_VERSION: u64 = 2;

/// Oldest artifact version [`RunArtifact::decode`] still reads.
pub const ARTIFACT_VERSION_MIN: u64 = 1;

/// Errors of the artifact layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The document is not valid JSON.
    Json(JsonError),
    /// The document is valid JSON but not a valid artifact.
    Schema(String),
    /// The artifact does not belong to the circuit / engine it was
    /// applied to (name, fault list or universe mismatch).
    Mismatch(String),
    /// Filesystem trouble (message includes the path).
    Io(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Json(e) => write!(f, "invalid JSON: {e}"),
            ArtifactError::Schema(m) => write!(f, "invalid artifact: {m}"),
            ArtifactError::Mismatch(m) => write!(f, "artifact mismatch: {m}"),
            ArtifactError::Io(m) => write!(f, "artifact I/O: {m}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<JsonError> for ArtifactError {
    fn from(e: JsonError) -> Self {
        ArtifactError::Json(e)
    }
}

pub(crate) fn schema(m: impl Into<String>) -> ArtifactError {
    ArtifactError::Schema(m.into())
}

/// Where the artifact's circuit comes from, so a loader can rebuild the
/// *identical* circuit (same node order, hence same fault order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitSource {
    /// Circuit name.
    pub name: String,
    /// `Some("suite:s27")` when the circuit is reproducible from the
    /// built-in suite; loaders prefer this over re-parsing `bench`.
    pub reference: Option<String>,
    /// The `.bench` source. When the circuit was parsed from a file this
    /// is the *original* file text (parse order defines node order);
    /// otherwise a [`to_bench`] rendering.
    pub bench: String,
}

impl CircuitSource {
    /// Source for an in-memory circuit: no reference, [`to_bench`] text.
    pub fn of(circuit: &Circuit) -> Self {
        CircuitSource {
            name: circuit.name().to_string(),
            reference: None,
            bench: to_bench(circuit),
        }
    }

    /// Source for a suite circuit (`reference = "suite:<name>"`).
    pub fn suite(circuit: &Circuit, suite_name: &str) -> Self {
        CircuitSource {
            reference: Some(format!("suite:{suite_name}")),
            ..Self::of(circuit)
        }
    }

    /// Source for a circuit parsed from `.bench` text: keeps the exact
    /// original text so a re-parse reproduces the identical node order.
    pub fn bench(circuit: &Circuit, source_text: impl Into<String>) -> Self {
        CircuitSource {
            name: circuit.name().to_string(),
            reference: None,
            bench: source_text.into(),
        }
    }

    /// Rebuilds the circuit: from the suite when referenced, else by
    /// parsing the embedded `.bench` text.
    pub fn resolve(&self) -> Result<Circuit, ArtifactError> {
        if let Some(reference) = &self.reference {
            if let Some(name) = reference.strip_prefix("suite:") {
                return gdf_netlist::suite::by_name(name).ok_or_else(|| {
                    ArtifactError::Mismatch(format!("unknown suite circuit `{name}`"))
                });
            }
            return Err(schema(format!("unknown circuit reference `{reference}`")));
        }
        gdf_netlist::parse_bench(&self.name, &self.bench)
            .map_err(|e| schema(format!("embedded bench source: {e}")))
    }

    /// Encodes to the artifact/wire object (`name` + `ref` + `bench`).
    pub fn encode(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            (
                "ref".into(),
                match &self.reference {
                    Some(r) => Json::Str(r.clone()),
                    None => Json::Null,
                },
            ),
            ("bench".into(), Json::Str(self.bench.clone())),
        ])
    }

    /// Decodes the object produced by [`CircuitSource::encode`].
    pub fn decode(j: &Json) -> Result<Self, ArtifactError> {
        Ok(CircuitSource {
            name: str_field(j, "name")?.to_string(),
            reference: match j.get("ref") {
                Some(Json::Str(s)) => Some(s.clone()),
                _ => None,
            },
            bench: str_field(j, "bench")?.to_string(),
        })
    }

    /// Content digest of the canonical encoding — the circuit half of a
    /// result-cache key. Two sources digest equal iff they encode equal,
    /// so a suite reference and a pasted copy of the same netlist are
    /// distinct keys (their generated artifacts embed distinct sources
    /// and would not be byte-identical anyway).
    pub fn digest(&self) -> crate::digest::Digest {
        crate::digest::Digest::of_text(&self.encode().pretty())
    }
}

// ---------------------------------------------------------------------
// Scalar encoders
// ---------------------------------------------------------------------

fn hex_u64(v: u64) -> Json {
    Json::Str(format!("{v:#x}"))
}

fn parse_hex_u64(j: &Json, what: &str) -> Result<u64, ArtifactError> {
    let s = j
        .as_str()
        .ok_or_else(|| schema(format!("{what}: expected a hex string")))?;
    let digits = s.strip_prefix("0x").unwrap_or(s);
    u64::from_str_radix(digits, 16).map_err(|_| schema(format!("{what}: bad hex `{s}`")))
}

pub(crate) fn str_field<'a>(j: &'a Json, key: &str) -> Result<&'a str, ArtifactError> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| schema(format!("missing string field `{key}`")))
}

pub(crate) fn usize_field(j: &Json, key: &str) -> Result<usize, ArtifactError> {
    j.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| schema(format!("missing integer field `{key}`")))
}

/// A `u32` field: an integer past `u32::MAX` is a schema error, never a
/// value wrapped into range.
pub(crate) fn u32_field(j: &Json, key: &str) -> Result<u32, ArtifactError> {
    let value = usize_field(j, key)?;
    u32::try_from(value)
        .map_err(|_| schema(format!("integer field `{key}` = {value} out of range")))
}

fn bool_field(j: &Json, key: &str) -> Result<bool, ArtifactError> {
    j.get(key)
        .and_then(Json::as_bool)
        .ok_or_else(|| schema(format!("missing bool field `{key}`")))
}

fn node_name(circuit: &Circuit, id: NodeId) -> Json {
    Json::Str(circuit.node(id).name().to_string())
}

fn resolve_node(circuit: &Circuit, name: &str) -> Result<NodeId, ArtifactError> {
    circuit
        .node_by_name(name)
        .ok_or_else(|| ArtifactError::Mismatch(format!("signal `{name}` not in circuit")))
}

// ---------------------------------------------------------------------
// Fault / outcome / sequence codecs
// ---------------------------------------------------------------------

/// Encodes a [`Fault`] by signal names (stable across re-parses).
pub fn encode_fault(fault: Fault, circuit: &Circuit) -> Json {
    let (model, kind, site) = match fault {
        Fault::Delay(f) => ("delay", f.kind.short_name().to_string(), f.site),
        Fault::Stuck(f) => ("stuck", f.kind.to_string(), f.site),
        Fault::Transition(f) => ("transition", f.short_name().to_string(), f.site),
    };
    let mut fields = vec![
        ("model".into(), Json::Str(model.into())),
        ("kind".into(), Json::Str(kind)),
        ("stem".into(), node_name(circuit, site.stem)),
    ];
    if let Some((sink, pin)) = site.branch {
        fields.push((
            "branch".into(),
            Json::Obj(vec![
                ("sink".into(), node_name(circuit, sink)),
                ("pin".into(), Json::Num(pin as f64)),
            ]),
        ));
    }
    Json::Obj(fields)
}

/// Decodes a [`Fault`] encoded by [`encode_fault`], resolving names
/// against `circuit`.
pub fn decode_fault(j: &Json, circuit: &Circuit) -> Result<Fault, ArtifactError> {
    let stem = resolve_node(circuit, str_field(j, "stem")?)?;
    let site = match j.get("branch") {
        None | Some(Json::Null) => FaultSite::on_stem(stem),
        Some(b) => {
            let sink = resolve_node(circuit, str_field(b, "sink")?)?;
            let pin = usize_field(b, "pin")?;
            FaultSite::on_branch(stem, sink, pin as u8)
        }
    };
    let kind = str_field(j, "kind")?;
    match str_field(j, "model")? {
        "delay" => {
            let kind = match kind {
                "StR" => DelayFaultKind::SlowToRise,
                "StF" => DelayFaultKind::SlowToFall,
                other => return Err(schema(format!("unknown delay fault kind `{other}`"))),
            };
            Ok(Fault::Delay(DelayFault { site, kind }))
        }
        "stuck" => {
            let kind = match kind {
                "sa0" => StuckAtKind::StuckAt0,
                "sa1" => StuckAtKind::StuckAt1,
                other => return Err(schema(format!("unknown stuck-at kind `{other}`"))),
            };
            Ok(Fault::Stuck(StuckFault { site, kind }))
        }
        "transition" => {
            let kind = match kind {
                "str" => DelayFaultKind::SlowToRise,
                "stf" => DelayFaultKind::SlowToFall,
                other => return Err(schema(format!("unknown transition fault kind `{other}`"))),
            };
            Ok(Fault::Transition(TransitionFault { site, kind }))
        }
        other => Err(schema(format!("unknown fault model `{other}`"))),
    }
}

fn encode_frame(frame: &[Logic3]) -> Json {
    Json::Str(
        frame
            .iter()
            .map(|l| match l {
                Logic3::Zero => '0',
                Logic3::One => '1',
                Logic3::X => 'X',
            })
            .collect(),
    )
}

fn decode_frame(j: &Json) -> Result<Vec<Logic3>, ArtifactError> {
    j.as_str()
        .ok_or_else(|| schema("frame: expected a string of 0/1/X"))?
        .chars()
        .map(|c| match c {
            '0' => Ok(Logic3::Zero),
            '1' => Ok(Logic3::One),
            'X' | 'x' => Ok(Logic3::X),
            other => Err(schema(format!("frame: invalid symbol `{other}`"))),
        })
        .collect()
}

/// Encodes a [`TestSequence`]: the applied frames as `0/1/X` strings plus
/// the fast-frame index (`null` for all-slow static sequences) — the
/// clock schedule is implied, so the round trip is lossless.
pub fn encode_sequence(seq: &TestSequence) -> Json {
    Json::Obj(vec![
        (
            "frames".into(),
            Json::Arr(
                seq.vectors()
                    .iter()
                    .map(|tv| encode_frame(&tv.pi))
                    .collect(),
            ),
        ),
        (
            "fast".into(),
            match seq.at_speed() {
                Some(i) => Json::Num(i as f64),
                None => Json::Null,
            },
        ),
    ])
}

/// Decodes a [`TestSequence`] encoded by [`encode_sequence`].
pub fn decode_sequence(j: &Json) -> Result<TestSequence, ArtifactError> {
    let frames: Vec<Vec<Logic3>> = j
        .get("frames")
        .and_then(Json::as_array)
        .ok_or_else(|| schema("sequence: missing `frames`"))?
        .iter()
        .map(decode_frame)
        .collect::<Result<_, _>>()?;
    match j.get("fast") {
        None | Some(Json::Null) => Ok(TestSequence::static_sequence(frames)),
        Some(fast) => {
            let fast = fast
                .as_usize()
                .ok_or_else(|| schema("sequence: `fast` must be an index"))?;
            if fast == 0 || fast >= frames.len() {
                return Err(schema(format!(
                    "sequence: fast index {fast} out of range for {} frames",
                    frames.len()
                )));
            }
            let mut it = frames.into_iter();
            let init: Vec<Vec<Logic3>> = (&mut it).take(fast - 1).collect();
            let v1 = it.next().expect("bounds checked");
            let v2 = it.next().expect("bounds checked");
            let prop: Vec<Vec<Logic3>> = it.collect();
            Ok(TestSequence::new(init, v1, v2, prop))
        }
    }
}

/// Encodes a [`FaultOutcome`] (with the full [`Detection`] payload).
pub fn encode_outcome(outcome: &FaultOutcome, circuit: &Circuit) -> Json {
    match outcome {
        FaultOutcome::Untestable => {
            Json::Obj(vec![("outcome".into(), Json::Str("untestable".into()))])
        }
        FaultOutcome::Aborted => Json::Obj(vec![("outcome".into(), Json::Str("aborted".into()))]),
        FaultOutcome::Detected(d) => Json::Obj(vec![
            ("outcome".into(), Json::Str("detected".into())),
            ("sequence".into(), encode_sequence(&d.sequence)),
            (
                "observed_po".into(),
                match d.observed_po {
                    Some(po) => node_name(circuit, po),
                    None => Json::Null,
                },
            ),
            (
                "relied_ppos".into(),
                Json::Arr(
                    d.relied_ppos
                        .iter()
                        .map(|&p| node_name(circuit, p))
                        .collect(),
                ),
            ),
        ]),
    }
}

/// Decodes a [`FaultOutcome`] encoded by [`encode_outcome`].
pub fn decode_outcome(j: &Json, circuit: &Circuit) -> Result<FaultOutcome, ArtifactError> {
    match str_field(j, "outcome")? {
        "untestable" => Ok(FaultOutcome::Untestable),
        "aborted" => Ok(FaultOutcome::Aborted),
        "detected" => {
            let sequence = decode_sequence(
                j.get("sequence")
                    .ok_or_else(|| schema("detected outcome: missing `sequence`"))?,
            )?;
            let observed_po = match j.get("observed_po") {
                None | Some(Json::Null) => None,
                Some(po) => Some(resolve_node(
                    circuit,
                    po.as_str()
                        .ok_or_else(|| schema("observed_po: expected name"))?,
                )?),
            };
            let relied_ppos = decode_node_list(j.get("relied_ppos"), circuit)?;
            Ok(FaultOutcome::Detected(Box::new(Detection {
                sequence,
                observed_po,
                relied_ppos,
            })))
        }
        other => Err(schema(format!("unknown outcome `{other}`"))),
    }
}

fn decode_node_list(j: Option<&Json>, circuit: &Circuit) -> Result<Vec<NodeId>, ArtifactError> {
    match j {
        None | Some(Json::Null) => Ok(Vec::new()),
        Some(arr) => arr
            .as_array()
            .ok_or_else(|| schema("expected an array of signal names"))?
            .iter()
            .map(|n| {
                resolve_node(
                    circuit,
                    n.as_str().ok_or_else(|| schema("expected a signal name"))?,
                )
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Config codec
// ---------------------------------------------------------------------

/// The wire name of a sensitization criterion ([`decode_sensitization`]
/// is the inverse).
fn encode_sensitization(s: Sensitization) -> &'static str {
    match s {
        Sensitization::Robust => "robust",
        Sensitization::NonRobust => "non-robust",
    }
}

fn decode_sensitization(name: &str) -> Result<Sensitization, ArtifactError> {
    name.parse().map_err(schema)
}

/// Encodes a [`RunConfig`] as the flat field list artifacts embed at
/// their top level (`backend`, `model`, `sensitization`, `universe`,
/// `limits`, `seed`); [`decode_config`] is the inverse. Public because
/// the wire formats of `gdf serve` (job records, submissions) reuse the
/// exact same fields.
pub fn encode_config(c: &RunConfig) -> Vec<(String, Json)> {
    vec![
        ("backend".into(), Json::Str(c.backend.to_string())),
        ("model".into(), Json::Str(c.model.name().into())),
        (
            "sensitization".into(),
            Json::Str(encode_sensitization(c.sensitization).into()),
        ),
        (
            "universe".into(),
            Json::Obj(vec![
                ("pi_stems".into(), Json::Bool(c.universe.include_pi_stems)),
                ("ppi_stems".into(), Json::Bool(c.universe.include_ppi_stems)),
                ("branches".into(), Json::Bool(c.universe.include_branches)),
            ]),
        ),
        (
            "limits".into(),
            Json::Obj(vec![
                (
                    "local_backtrack_limit".into(),
                    Json::Num(c.limits.local_backtrack_limit as f64),
                ),
                (
                    "sequential_backtrack_limit".into(),
                    Json::Num(c.limits.sequential_backtrack_limit as f64),
                ),
                (
                    "max_propagation_frames".into(),
                    Json::Num(c.limits.max_propagation_frames as f64),
                ),
                (
                    "max_sync_frames".into(),
                    Json::Num(c.limits.max_sync_frames as f64),
                ),
                (
                    "max_observation_retries".into(),
                    Json::Num(c.limits.max_observation_retries as f64),
                ),
                (
                    "max_stuckat_frames".into(),
                    Json::Num(c.limits.max_stuckat_frames as f64),
                ),
            ]),
        ),
        ("seed".into(), hex_u64(c.seed)),
    ]
}

/// Decodes the [`encode_config`] fields (current layout) from an object
/// that embeds them. For version-1 documents use [`decode_config_v1`].
pub fn decode_config(j: &Json) -> Result<RunConfig, ArtifactError> {
    let backend: Backend = str_field(j, "backend")?.parse().map_err(schema)?;
    let model: ModelKind = str_field(j, "model")?.parse().map_err(schema)?;
    let sensitization = decode_sensitization(str_field(j, "sensitization")?)?;
    decode_config_rest(j, backend, model, sensitization)
}

/// Decodes the **version-1** config layout (PR 3/4 artifacts and job
/// records): `model` held the sensitization name (`robust`/`non-robust`)
/// and the fault model was implied by the backend.
pub fn decode_config_v1(j: &Json) -> Result<RunConfig, ArtifactError> {
    let backend: Backend = str_field(j, "backend")?.parse().map_err(schema)?;
    let sensitization = decode_sensitization(str_field(j, "model")?)?;
    decode_config_rest(j, backend, backend.default_model(), sensitization)
}

fn decode_config_rest(
    j: &Json,
    backend: Backend,
    model: ModelKind,
    sensitization: Sensitization,
) -> Result<RunConfig, ArtifactError> {
    let u = j
        .get("universe")
        .ok_or_else(|| schema("missing `universe`"))?;
    let universe = FaultUniverse {
        include_pi_stems: bool_field(u, "pi_stems")?,
        include_ppi_stems: bool_field(u, "ppi_stems")?,
        include_branches: bool_field(u, "branches")?,
    };
    let l = j.get("limits").ok_or_else(|| schema("missing `limits`"))?;
    let limits = Limits::new()
        .with_local_backtrack_limit(u32_field(l, "local_backtrack_limit")?)
        .with_sequential_backtrack_limit(u32_field(l, "sequential_backtrack_limit")?)
        .with_max_propagation_frames(usize_field(l, "max_propagation_frames")?)
        .with_max_sync_frames(usize_field(l, "max_sync_frames")?)
        .with_max_observation_retries(usize_field(l, "max_observation_retries")?)
        .with_max_stuckat_frames(usize_field(l, "max_stuckat_frames")?);
    let seed = parse_hex_u64(
        j.get("seed").ok_or_else(|| schema("missing `seed`"))?,
        "seed",
    )?;
    Ok(RunConfig {
        backend,
        model,
        sensitization,
        universe,
        limits,
        seed,
    })
}

// ---------------------------------------------------------------------
// RunArtifact
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
struct RecordEntry {
    fault: Json, // encoded fault (kept as JSON until a circuit is at hand)
    classification: FaultClassification,
    by_simulation: bool,
    sequence_index: Option<usize>,
}

/// A serialized ATPG run: either a **complete** run (with its report) or
/// a **partial** checkpoint an interrupted run can resume from. See the
/// [module docs](self) for the schema and guarantees.
#[derive(Debug, Clone)]
pub struct RunArtifact {
    config: RunConfig,
    /// Circuit provenance (name, optional suite reference, bench text).
    pub circuit: CircuitSource,
    /// `true` for a mid-run checkpoint, `false` for a completed run.
    pub partial: bool,
    records: Vec<Option<RecordEntry>>,
    sequences: Vec<TestSequence>,
    relied: Vec<Vec<String>>,
    dropped: u32,
    rng_state: [u64; 4],
    stopped: Option<AtpgError>,
    report: Option<CircuitReport>,
}

impl RunArtifact {
    /// The run configuration recorded in the artifact.
    pub fn config(&self) -> RunConfig {
        self.config
    }

    /// Number of decided faults.
    pub fn decided(&self) -> usize {
        self.records.iter().filter(|r| r.is_some()).count()
    }

    /// Total faults in the run's universe.
    pub fn total(&self) -> usize {
        self.records.len()
    }

    /// Number of emitted sequences.
    pub fn sequences(&self) -> usize {
        self.sequences.len()
    }

    /// The recorded final report, for complete artifacts.
    pub fn report(&self) -> Option<&CircuitReport> {
        self.report.as_ref()
    }

    /// Builds a checkpoint artifact from a mid-run snapshot.
    ///
    /// `source` overrides the circuit provenance (pass it when the
    /// circuit came from a file or the suite, so resume can rebuild the
    /// identical circuit); defaults to [`CircuitSource::of`].
    pub fn from_snapshot(snapshot: &RunSnapshot<'_>, source: Option<CircuitSource>) -> Self {
        let circuit = snapshot.circuit;
        RunArtifact {
            config: *snapshot.config,
            circuit: source.unwrap_or_else(|| CircuitSource::of(circuit)),
            partial: true,
            records: snapshot
                .records
                .iter()
                .map(|r| r.as_ref().map(|rec| encode_record(rec, circuit)))
                .collect(),
            sequences: snapshot.sequences.to_vec(),
            relied: snapshot
                .relied_ppos
                .iter()
                .map(|ppos| {
                    ppos.iter()
                        .map(|&p| circuit.node(p).name().to_string())
                        .collect()
                })
                .collect(),
            dropped: snapshot.dropped,
            rng_state: snapshot.rng_state,
            stopped: None,
            report: None,
        }
    }

    /// Builds a complete artifact from a finished [`AtpgRun`].
    ///
    /// `config` must be the configuration the run was actually launched
    /// with — it is recorded verbatim, and a later
    /// [`crate::engine::AtpgBuilder::resume_from`] or `gdf report` trusts
    /// it. [`crate::engine::RunConfig::new`] gives the defaults when the
    /// run used them.
    pub fn from_run(
        circuit: &Circuit,
        run: &AtpgRun,
        config: RunConfig,
        source: Option<CircuitSource>,
    ) -> Self {
        RunArtifact {
            config,
            circuit: source.unwrap_or_else(|| CircuitSource::of(circuit)),
            partial: false,
            records: run
                .records
                .iter()
                .map(|rec| Some(encode_record(rec, circuit)))
                .collect(),
            sequences: run.sequences.clone(),
            relied: run
                .relied_ppos
                .iter()
                .map(|ppos| {
                    ppos.iter()
                        .map(|&p| circuit.node(p).name().to_string())
                        .collect()
                })
                .collect(),
            dropped: run.report.dropped_by_simulation,
            // A complete run needs no RNG continuation; record the seed
            // state so the field is always a valid generator state.
            rng_state: StdRng::seed_from_u64(config.seed).state(),
            stopped: run.stopped,
            report: Some(run.report.clone()),
        }
    }

    /// An empty checkpoint (nothing decided) for `circuit` under the
    /// default universe and limits: resuming it is simply a full run.
    /// Mostly useful in tests and examples.
    pub fn checkpoint_stub(circuit: &Circuit, backend: Backend, seed: u64) -> Self {
        let config = RunConfig::new(backend).with_seed(seed);
        let total = crate::engine::faults_of(circuit, config.model, &config.universe).len();
        RunArtifact {
            config,
            circuit: CircuitSource::of(circuit),
            partial: true,
            records: vec![None; total],
            sequences: Vec::new(),
            relied: Vec::new(),
            dropped: 0,
            rng_state: StdRng::seed_from_u64(seed).state(),
            stopped: None,
            report: None,
        }
    }

    /// Decodes the artifact into the orchestrator's resume payload,
    /// validating it against `circuit` and the engine's fault list.
    pub fn resume_state(
        &self,
        circuit: &Circuit,
        faults: &[Fault],
    ) -> Result<ResumeState, ArtifactError> {
        if circuit.name() != self.circuit.name {
            return Err(ArtifactError::Mismatch(format!(
                "artifact is for circuit `{}`, engine runs `{}`",
                self.circuit.name,
                circuit.name()
            )));
        }
        if faults.len() != self.records.len() {
            return Err(ArtifactError::Mismatch(format!(
                "artifact has {} faults, engine enumerates {}",
                self.records.len(),
                faults.len()
            )));
        }
        let mut records: Vec<Option<FaultRecord>> = Vec::with_capacity(faults.len());
        for (i, entry) in self.records.iter().enumerate() {
            match entry {
                None => records.push(None),
                Some(e) => {
                    let fault = decode_fault(&e.fault, circuit)?;
                    if fault != faults[i] {
                        return Err(ArtifactError::Mismatch(format!(
                            "fault {} is `{}` in the artifact but `{}` in the engine list",
                            i,
                            fault.describe(circuit),
                            faults[i].describe(circuit)
                        )));
                    }
                    if let Some(s) = e.sequence_index {
                        if s >= self.sequences.len() {
                            return Err(schema(format!(
                                "record {i}: sequence index {s} out of range"
                            )));
                        }
                    }
                    records.push(Some(FaultRecord {
                        fault,
                        classification: e.classification,
                        by_simulation: e.by_simulation,
                        sequence_index: e.sequence_index,
                    }));
                }
            }
        }
        let relied_ppos = self
            .relied
            .iter()
            .map(|names| names.iter().map(|n| resolve_node(circuit, n)).collect())
            .collect::<Result<Vec<Vec<NodeId>>, _>>()?;
        if relied_ppos.len() != self.sequences.len() {
            return Err(schema("relied/sequence length mismatch"));
        }
        Ok(ResumeState {
            records,
            sequences: self.sequences.clone(),
            relied_ppos,
            dropped: self.dropped,
            rng_state: self.rng_state,
        })
    }

    /// Reconstructs the [`AtpgRun`] of a **complete** artifact.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Mismatch`] for partial artifacts (resume those
    /// instead) or when the artifact does not belong to `circuit`.
    pub fn to_run(&self, circuit: &Circuit) -> Result<AtpgRun, ArtifactError> {
        if self.partial {
            return Err(ArtifactError::Mismatch(
                "cannot reconstruct a run from a partial checkpoint; resume it".into(),
            ));
        }
        let report = self
            .report
            .clone()
            .ok_or_else(|| schema("complete artifact without a report"))?;
        let mut records = Vec::with_capacity(self.records.len());
        for (i, entry) in self.records.iter().enumerate() {
            let e = entry
                .as_ref()
                .ok_or_else(|| schema(format!("complete artifact with undecided fault {i}")))?;
            records.push(FaultRecord {
                fault: decode_fault(&e.fault, circuit)?,
                classification: e.classification,
                by_simulation: e.by_simulation,
                sequence_index: e.sequence_index,
            });
        }
        let relied_ppos = self
            .relied
            .iter()
            .map(|names| names.iter().map(|n| resolve_node(circuit, n)).collect())
            .collect::<Result<Vec<Vec<NodeId>>, _>>()?;
        Ok(AtpgRun {
            records,
            sequences: self.sequences.clone(),
            relied_ppos,
            report,
            stopped: self.stopped,
        })
    }

    /// Serializes to pretty-printed JSON.
    pub fn encode(&self) -> String {
        let mut fields = vec![
            ("format".into(), Json::Str("gdf-run".into())),
            ("version".into(), Json::Num(ARTIFACT_VERSION as f64)),
        ];
        fields.extend(encode_config(&self.config));
        fields.push(("circuit".into(), self.circuit.encode()));
        fields.push(("partial".into(), Json::Bool(self.partial)));
        fields.push(("total".into(), Json::Num(self.records.len() as f64)));
        fields.push(("decided".into(), Json::Num(self.decided() as f64)));
        fields.push(("dropped".into(), Json::Num(self.dropped as f64)));
        fields.push((
            "rng_state".into(),
            Json::Arr(self.rng_state.iter().map(|&w| hex_u64(w)).collect()),
        ));
        fields.push((
            "records".into(),
            Json::Arr(
                self.records
                    .iter()
                    .map(|r| match r {
                        None => Json::Null,
                        Some(e) => {
                            let mut f = vec![
                                ("fault".into(), e.fault.clone()),
                                (
                                    "class".into(),
                                    Json::Str(
                                        match e.classification {
                                            FaultClassification::Tested => "tested",
                                            FaultClassification::Untestable => "untestable",
                                            FaultClassification::Aborted => "aborted",
                                        }
                                        .into(),
                                    ),
                                ),
                                ("by_sim".into(), Json::Bool(e.by_simulation)),
                            ];
                            if let Some(s) = e.sequence_index {
                                f.push(("seq".into(), Json::Num(s as f64)));
                            }
                            Json::Obj(f)
                        }
                    })
                    .collect(),
            ),
        ));
        fields.push((
            "sequences".into(),
            Json::Arr(
                self.sequences
                    .iter()
                    .zip(&self.relied)
                    .map(|(seq, relied)| {
                        let mut obj = match encode_sequence(seq) {
                            Json::Obj(f) => f,
                            _ => unreachable!("encode_sequence returns an object"),
                        };
                        obj.push((
                            "relied".into(),
                            Json::Arr(relied.iter().map(|n| Json::Str(n.clone())).collect()),
                        ));
                        Json::Obj(obj)
                    })
                    .collect(),
            ),
        ));
        fields.push((
            "stopped".into(),
            match self.stopped {
                None => Json::Null,
                Some(AtpgError::Cancelled) => Json::Str("cancelled".into()),
                Some(AtpgError::TimeBudgetExceeded) => Json::Str("time-budget".into()),
                Some(e) => Json::Str(format!("{e}")),
            },
        ));
        fields.push((
            "report".into(),
            match &self.report {
                None => Json::Null,
                Some(r) => encode_report(r),
            },
        ));
        Json::Obj(fields).pretty()
    }

    /// Serializes like [`RunArtifact::encode`] but with the report's
    /// wall-clock zeroed — the **byte-comparable** form. Two runs of the
    /// same deterministic configuration produce equal `canonical_encode`
    /// strings even though their `elapsed` times differ; the serve layer
    /// uses this as the wire form of fetched artifacts so concurrent
    /// same-seed submissions are byte-identical to each other and to a
    /// local run.
    pub fn canonical_encode(&self) -> String {
        let mut normalized = self.clone();
        if let Some(report) = &mut normalized.report {
            report.row.elapsed = Duration::ZERO;
        }
        normalized.encode()
    }

    /// Content digest of [`RunArtifact::canonical_encode`] — the store
    /// address a published run lands under.
    pub fn canonical_digest(&self) -> crate::digest::Digest {
        crate::digest::Digest::of_text(&self.canonical_encode())
    }

    /// Parses an artifact from JSON text.
    pub fn decode(text: &str) -> Result<Self, ArtifactError> {
        let j = Json::parse(text)?;
        if str_field(&j, "format")? != "gdf-run" {
            return Err(schema("not a gdf-run artifact"));
        }
        let version = usize_field(&j, "version")? as u64;
        if !(ARTIFACT_VERSION_MIN..=ARTIFACT_VERSION).contains(&version) {
            return Err(schema(format!(
                "unsupported artifact version {version} (this build reads \
                 v{ARTIFACT_VERSION_MIN} through v{ARTIFACT_VERSION})"
            )));
        }
        let config = if version == 1 {
            decode_config_v1(&j)?
        } else {
            decode_config(&j)?
        };
        let circuit = CircuitSource::decode(
            j.get("circuit")
                .ok_or_else(|| schema("missing `circuit`"))?,
        )?;
        let partial = bool_field(&j, "partial")?;
        let dropped = u32_field(&j, "dropped")?;
        let rng_arr = j
            .get("rng_state")
            .and_then(Json::as_array)
            .ok_or_else(|| schema("missing `rng_state`"))?;
        if rng_arr.len() != 4 {
            return Err(schema("rng_state must have 4 words"));
        }
        let mut rng_state = [0u64; 4];
        for (i, w) in rng_arr.iter().enumerate() {
            rng_state[i] = parse_hex_u64(w, "rng_state")?;
        }
        if rng_state == [0u64; 4] {
            // Not a reachable xoshiro256** state; a resume would panic
            // inside the generator instead of failing cleanly here.
            return Err(schema("rng_state is all zero (corrupt artifact)"));
        }
        let records = j
            .get("records")
            .and_then(Json::as_array)
            .ok_or_else(|| schema("missing `records`"))?
            .iter()
            .map(|r| -> Result<Option<RecordEntry>, ArtifactError> {
                if r.is_null() {
                    return Ok(None);
                }
                let classification = match str_field(r, "class")? {
                    "tested" => FaultClassification::Tested,
                    "untestable" => FaultClassification::Untestable,
                    "aborted" => FaultClassification::Aborted,
                    other => return Err(schema(format!("unknown classification `{other}`"))),
                };
                Ok(Some(RecordEntry {
                    fault: r
                        .get("fault")
                        .ok_or_else(|| schema("record without `fault`"))?
                        .clone(),
                    classification,
                    by_simulation: bool_field(r, "by_sim")?,
                    sequence_index: r.get("seq").and_then(Json::as_usize),
                }))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut sequences = Vec::new();
        let mut relied = Vec::new();
        for s in j
            .get("sequences")
            .and_then(Json::as_array)
            .ok_or_else(|| schema("missing `sequences`"))?
        {
            sequences.push(decode_sequence(s)?);
            relied.push(match s.get("relied").and_then(Json::as_array) {
                None => Vec::new(),
                Some(names) => names
                    .iter()
                    .map(|n| {
                        n.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| schema("relied: expected signal names"))
                    })
                    .collect::<Result<_, _>>()?,
            });
        }
        let stopped = match j.get("stopped") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) if s == "cancelled" => Some(AtpgError::Cancelled),
            Some(Json::Str(s)) if s == "time-budget" => Some(AtpgError::TimeBudgetExceeded),
            Some(Json::Str(s)) => return Err(schema(format!("unknown stop reason `{s}`"))),
            Some(_) => return Err(schema("stopped must be a string or null")),
        };
        let report = match j.get("report") {
            None | Some(Json::Null) => None,
            // A v1 report has no coverage object; the tally is
            // reconstructed from the decoded records (collapsed
            // denominators stay unknown — v1 never recorded them).
            Some(r) => Some(decode_report(r, &circuit.name, || {
                coverage_from_entries(&records)
            })?),
        };
        Ok(RunArtifact {
            config,
            circuit,
            partial,
            records,
            sequences,
            relied,
            dropped,
            rng_state,
            stopped,
            report,
        })
    }

    /// Writes the artifact atomically (`path.tmp` + rename).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        write_atomic(path.as_ref(), &self.encode())
    }

    /// Reads and decodes an artifact file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        let path = path.as_ref();
        let text = crate::io::read_to_string(path)
            .map_err(|e| ArtifactError::Io(format!("{}: {e}", path.display())))?;
        Self::decode(&text)
    }
}

fn encode_record(rec: &FaultRecord, circuit: &Circuit) -> RecordEntry {
    RecordEntry {
        fault: encode_fault(rec.fault, circuit),
        classification: rec.classification,
        by_simulation: rec.by_simulation,
        sequence_index: rec.sequence_index,
    }
}

fn encode_report(r: &CircuitReport) -> Json {
    Json::Obj(vec![
        ("circuit".into(), Json::Str(r.row.circuit.clone())),
        ("tested".into(), Json::Num(r.row.tested as f64)),
        ("untestable".into(), Json::Num(r.row.untestable as f64)),
        ("aborted".into(), Json::Num(r.row.aborted as f64)),
        ("patterns".into(), Json::Num(r.row.patterns as f64)),
        (
            "elapsed_ns".into(),
            hex_u64(r.row.elapsed.as_nanos() as u64),
        ),
        (
            "dropped_by_simulation".into(),
            Json::Num(r.dropped_by_simulation as f64),
        ),
        ("sequences".into(), Json::Num(r.sequences as f64)),
        ("coverage".into(), encode_coverage(&r.coverage)),
    ])
}

/// Encodes a [`Coverage`] tally as the nested object reports embed —
/// shared with the `gdf serve` job summaries.
pub fn encode_coverage(c: &Coverage) -> Json {
    let mut fields = vec![
        ("detected".into(), Json::Num(c.detected as f64)),
        (
            "possibly_detected".into(),
            Json::Num(c.possibly_detected as f64),
        ),
        ("untestable".into(), Json::Num(c.untestable as f64)),
        ("aborted".into(), Json::Num(c.aborted as f64)),
        ("total".into(), Json::Num(c.total as f64)),
    ];
    if let Some(classes) = c.collapsed {
        fields.push(("classes".into(), Json::Num(classes.classes as f64)));
        fields.push((
            "classes_detected".into(),
            Json::Num(classes.detected as f64),
        ));
    }
    Json::Obj(fields)
}

/// Decodes the object produced by [`encode_coverage`].
pub fn decode_coverage(j: &Json) -> Result<Coverage, ArtifactError> {
    // The class counts are optional: absent, or not a `u32`, is none.
    let optional = |key: &str| j.get(key).and_then(|v| u32::try_from(v.as_usize()?).ok());
    let collapsed = match (optional("classes"), optional("classes_detected")) {
        (Some(classes), Some(detected)) => Some(ClassCounts { classes, detected }),
        _ => None,
    };
    Ok(Coverage {
        detected: u32_field(j, "detected")?,
        possibly_detected: u32_field(j, "possibly_detected")?,
        untestable: u32_field(j, "untestable")?,
        aborted: u32_field(j, "aborted")?,
        total: u32_field(j, "total")?,
        collapsed,
    })
}

/// Reconstructs the (uncollapsed) coverage tally from decided record
/// entries — the fallback for version-1 reports, which predate the
/// embedded coverage object.
fn coverage_from_entries(records: &[Option<RecordEntry>]) -> Coverage {
    let mut coverage = Coverage::zero(records.len() as u32);
    for entry in records.iter().flatten() {
        coverage.count(entry.classification, entry.by_simulation);
    }
    coverage
}

fn decode_report(
    j: &Json,
    default_circuit: &str,
    fallback_coverage: impl FnOnce() -> Coverage,
) -> Result<CircuitReport, ArtifactError> {
    let coverage = match j.get("coverage") {
        None | Some(Json::Null) => fallback_coverage(),
        Some(c) => decode_coverage(c)?,
    };
    Ok(CircuitReport {
        row: Table3Row {
            circuit: j
                .get("circuit")
                .and_then(Json::as_str)
                .unwrap_or(default_circuit)
                .to_string(),
            tested: u32_field(j, "tested")?,
            untestable: u32_field(j, "untestable")?,
            aborted: u32_field(j, "aborted")?,
            patterns: u32_field(j, "patterns")?,
            elapsed: Duration::from_nanos(parse_hex_u64(
                j.get("elapsed_ns")
                    .ok_or_else(|| schema("missing `elapsed_ns`"))?,
                "elapsed_ns",
            )?),
        },
        dropped_by_simulation: u32_field(j, "dropped_by_simulation")?,
        sequences: u32_field(j, "sequences")?,
        coverage,
    })
}

pub(crate) fn write_atomic(path: &Path, text: &str) -> Result<(), ArtifactError> {
    crate::io::write_atomic(path, text)
        .map_err(|e| ArtifactError::Io(format!("{}: {e}", path.display())))
}

// ---------------------------------------------------------------------
// PatternSet
// ---------------------------------------------------------------------

/// One exported pattern: the applied sequence plus the PPO nets (by
/// name) its propagation phase relies on, so re-grading can replay the
/// §5 invalidation check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternEntry {
    /// The applied test sequence.
    pub sequence: TestSequence,
    /// Relied PPO signal names (empty when nothing is relied on).
    pub relied_ppos: Vec<String>,
}

/// A saved set of test sequences, decoupled from the run that produced
/// them: the exchange format between generation ([`AtpgRun`]), re-grading
/// ([`crate::session::grade_patterns`]) and testers.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternSet {
    /// Circuit provenance.
    pub circuit: CircuitSource,
    /// Backend that generated the patterns (informational).
    pub backend: String,
    /// X-fill seed of the generating run (informational).
    pub seed: u64,
    /// The patterns, in emission order.
    pub patterns: Vec<PatternEntry>,
}

impl PatternSet {
    /// Exports every sequence of a run.
    pub fn from_run(
        circuit: &Circuit,
        run: &AtpgRun,
        backend: &str,
        seed: u64,
        source: Option<CircuitSource>,
    ) -> Self {
        let relied = |i: usize| -> Vec<String> {
            run.relied_ppos
                .get(i)
                .map(|ppos| {
                    ppos.iter()
                        .map(|&p| circuit.node(p).name().to_string())
                        .collect()
                })
                .unwrap_or_default()
        };
        PatternSet {
            circuit: source.unwrap_or_else(|| CircuitSource::of(circuit)),
            backend: backend.to_string(),
            seed,
            patterns: run
                .sequences
                .iter()
                .enumerate()
                .map(|(i, seq)| PatternEntry {
                    sequence: seq.clone(),
                    relied_ppos: relied(i),
                })
                .collect(),
        }
    }

    /// Total applied vectors over all patterns (the paper's `#pat`).
    pub fn total_vectors(&self) -> usize {
        self.patterns.iter().map(|p| p.sequence.len()).sum()
    }

    /// Serializes to pretty-printed JSON.
    pub fn encode(&self) -> String {
        Json::Obj(vec![
            ("format".into(), Json::Str("gdf-patterns".into())),
            ("version".into(), Json::Num(ARTIFACT_VERSION as f64)),
            ("circuit".into(), self.circuit.encode()),
            ("backend".into(), Json::Str(self.backend.clone())),
            ("seed".into(), hex_u64(self.seed)),
            (
                "patterns".into(),
                Json::Arr(
                    self.patterns
                        .iter()
                        .map(|p| {
                            let mut obj = match encode_sequence(&p.sequence) {
                                Json::Obj(f) => f,
                                _ => unreachable!("encode_sequence returns an object"),
                            };
                            obj.push((
                                "relied".into(),
                                Json::Arr(
                                    p.relied_ppos.iter().map(|n| Json::Str(n.clone())).collect(),
                                ),
                            ));
                            Json::Obj(obj)
                        })
                        .collect(),
                ),
            ),
        ])
        .pretty()
    }

    /// Parses a pattern set from JSON text.
    pub fn decode(text: &str) -> Result<Self, ArtifactError> {
        let j = Json::parse(text)?;
        if str_field(&j, "format")? != "gdf-patterns" {
            return Err(schema("not a gdf-patterns artifact"));
        }
        let circuit = CircuitSource::decode(
            j.get("circuit")
                .ok_or_else(|| schema("missing `circuit`"))?,
        )?;
        let mut patterns = Vec::new();
        for p in j
            .get("patterns")
            .and_then(Json::as_array)
            .ok_or_else(|| schema("missing `patterns`"))?
        {
            patterns.push(PatternEntry {
                sequence: decode_sequence(p)?,
                relied_ppos: match p.get("relied").and_then(Json::as_array) {
                    None => Vec::new(),
                    Some(names) => names
                        .iter()
                        .map(|n| {
                            n.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| schema("relied: expected signal names"))
                        })
                        .collect::<Result<_, _>>()?,
                },
            });
        }
        Ok(PatternSet {
            circuit,
            backend: str_field(&j, "backend")?.to_string(),
            seed: parse_hex_u64(
                j.get("seed").ok_or_else(|| schema("missing `seed`"))?,
                "seed",
            )?,
            patterns,
        })
    }

    /// Writes the pattern set atomically.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        write_atomic(path.as_ref(), &self.encode())
    }

    /// Reads and decodes a pattern-set file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        let path = path.as_ref();
        let text = crate::io::read_to_string(path)
            .map_err(|e| ArtifactError::Io(format!("{}: {e}", path.display())))?;
        Self::decode(&text)
    }

    /// Resolves one pattern's relied PPO names against `circuit`.
    pub fn relied_nodes(
        &self,
        circuit: &Circuit,
        index: usize,
    ) -> Result<Vec<NodeId>, ArtifactError> {
        self.patterns[index]
            .relied_ppos
            .iter()
            .map(|n| resolve_node(circuit, n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Atpg;
    use gdf_netlist::suite;

    #[test]
    fn fault_round_trip_by_name() {
        let c = suite::s27();
        for fault in crate::engine::faults_of(&c, ModelKind::Delay, &FaultUniverse::default())
            .into_iter()
            .chain(crate::engine::faults_of(
                &c,
                ModelKind::Stuck,
                &FaultUniverse::default(),
            ))
            .chain(crate::engine::faults_of(
                &c,
                ModelKind::Transition,
                &FaultUniverse::default(),
            ))
        {
            let j = encode_fault(fault, &c);
            let back = decode_fault(&j, &c).unwrap();
            assert_eq!(back, fault, "{}", fault.describe(&c));
        }
    }

    #[test]
    fn sequence_round_trip_preserves_roles_and_x() {
        use Logic3::{One, Zero, X};
        let seq = TestSequence::new(
            vec![vec![Zero, X], vec![One, One]],
            vec![X, Zero],
            vec![One, X],
            vec![vec![X, X]],
        );
        let back = decode_sequence(&encode_sequence(&seq)).unwrap();
        assert_eq!(back, seq);
        assert_eq!(back.init_len(), 2);
        assert_eq!(back.propagation_len(), 1);

        let stat = TestSequence::static_sequence(vec![vec![One, Zero], vec![X, One]]);
        let back = decode_sequence(&encode_sequence(&stat)).unwrap();
        assert_eq!(back, stat);
        assert_eq!(back.at_speed(), None);
    }

    #[test]
    fn outcome_round_trip() {
        let c = suite::s27();
        let po = c.outputs()[0];
        let ppo = c.ppos()[0];
        let outcomes = [
            FaultOutcome::Untestable,
            FaultOutcome::Aborted,
            FaultOutcome::Detected(Box::new(Detection {
                sequence: TestSequence::new(
                    vec![],
                    vec![Logic3::Zero; 4],
                    vec![Logic3::One; 4],
                    vec![vec![Logic3::X; 4]],
                ),
                observed_po: Some(po),
                relied_ppos: vec![ppo],
            })),
        ];
        for o in &outcomes {
            let back = decode_outcome(&encode_outcome(o, &c), &c).unwrap();
            assert_eq!(&back, o);
        }
    }

    #[test]
    fn run_artifact_round_trip_is_lossless() {
        let c = suite::s27();
        let run = Atpg::builder(&c).seed(11).build().run();
        let config = RunConfig::new(Backend::NonScan).with_seed(11);
        let artifact = RunArtifact::from_run(&c, &run, config, None);
        let text = artifact.encode();
        let back = RunArtifact::decode(&text).unwrap();
        assert_eq!(back.config(), config);
        assert!(!back.partial);
        let restored = back.to_run(&c).unwrap();
        assert_eq!(restored.records, run.records);
        assert_eq!(restored.sequences, run.sequences);
        assert_eq!(restored.relied_ppos, run.relied_ppos);
        assert_eq!(restored.report.row, run.report.row);
        assert_eq!(
            restored.report.dropped_by_simulation,
            run.report.dropped_by_simulation
        );
        assert_eq!(restored.stopped, run.stopped);
        // Encoding is deterministic.
        assert_eq!(back.encode(), text);
    }

    #[test]
    fn pattern_set_round_trip() {
        let c = suite::s27();
        let run = Atpg::builder(&c).seed(5).build().run();
        let set = PatternSet::from_run(&c, &run, "non-scan", 5, None);
        assert_eq!(set.patterns.len(), run.sequences.len());
        let back = PatternSet::decode(&set.encode()).unwrap();
        assert_eq!(back, set);
        // The embedded circuit re-parses.
        let c2 = back.circuit.resolve().unwrap();
        assert_eq!(c2.num_gates(), c.num_gates());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(
            RunArtifact::decode("{}"),
            Err(ArtifactError::Schema(_))
        ));
        assert!(matches!(
            RunArtifact::decode("not json"),
            Err(ArtifactError::Json(_))
        ));
        assert!(matches!(
            PatternSet::decode(r#"{"format":"gdf-run"}"#),
            Err(ArtifactError::Schema(_))
        ));
    }

    #[test]
    fn resume_state_rejects_foreign_circuit() {
        let c = suite::s27();
        let other = suite::table3_circuit("s208").unwrap();
        let artifact = RunArtifact::checkpoint_stub(&c, Backend::StuckAt, 1);
        let faults = crate::engine::faults_of(&other, ModelKind::Stuck, &FaultUniverse::default());
        assert!(matches!(
            artifact.resume_state(&other, &faults),
            Err(ArtifactError::Mismatch(_))
        ));
    }
}
