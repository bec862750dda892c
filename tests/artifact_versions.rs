//! Artifact version/schema failure paths: corrupt, truncated and
//! future-version documents must produce friendly [`ArtifactError`]s —
//! never a panic. Run as a test binary so every decode failure below
//! doubles as a no-panic proof.

use gdf::core::json::Json;
use gdf::core::session::grade_patterns;
use gdf::core::{ArtifactError, Atpg, Backend, PatternSet, RunArtifact, RunConfig};
use gdf::netlist::{suite, FaultUniverse, ModelKind};

fn sample_artifact() -> String {
    let c = suite::s27();
    let run = Atpg::builder(&c).backend(Backend::StuckAt).build().run();
    RunArtifact::from_run(&c, &run, RunConfig::new(Backend::StuckAt), None).encode()
}

fn sample_patterns() -> String {
    let c = suite::s27();
    let run = Atpg::builder(&c).build().run();
    PatternSet::from_run(&c, &run, "non-scan", 0x1995_0308, None).encode()
}

/// Bumps the version field of a valid artifact to `version`.
fn with_version(text: &str, version: f64) -> String {
    let mut j = Json::parse(text).expect("valid artifact");
    if let Json::Obj(fields) = &mut j {
        for (k, v) in fields.iter_mut() {
            if k == "version" {
                *v = Json::Num(version);
            }
        }
    }
    j.pretty()
}

#[test]
fn future_versions_are_rejected_with_a_friendly_error() {
    let text = with_version(&sample_artifact(), 99.0);
    match RunArtifact::decode(&text) {
        Err(ArtifactError::Schema(message)) => {
            assert!(
                message.contains("version 99") && message.contains("v1"),
                "error names the version and the supported range: {message}"
            );
        }
        other => panic!("expected a schema error, got {other:?}"),
    }
}

#[test]
fn truncated_artifacts_error_instead_of_panicking() {
    let text = sample_artifact();
    // Every cut inside the JSON value must fail cleanly: valid JSON
    // prefixes (there are none for an object, but be thorough) decode to
    // schema errors, invalid ones to JSON errors. The cuts stop short of
    // trailing whitespace, whose loss leaves a complete document.
    let text = text.trim_end();
    RunArtifact::decode(text).expect("the whole document decodes");
    let step = (text.len() / 97).max(1);
    for end in (0..text.len()).step_by(step) {
        let truncated = &text[..end];
        match RunArtifact::decode(truncated) {
            Ok(_) => panic!("truncated artifact ({end} bytes) decoded"),
            Err(ArtifactError::Json(_) | ArtifactError::Schema(_)) => {}
            Err(other) => panic!("unexpected error class at {end} bytes: {other:?}"),
        }
    }
}

#[test]
fn corrupt_field_values_error_instead_of_panicking() {
    let pristine = sample_artifact();
    let corruptions: &[(&str, &str)] = &[
        // Wrong enum spellings.
        ("\"backend\": \"stuck-at\"", "\"backend\": \"quantum\""),
        ("\"model\": \"stuck\"", "\"model\": \"wobbly\""),
        (
            "\"sensitization\": \"robust\"",
            "\"sensitization\": \"maybe\"",
        ),
        // Type confusion.
        ("\"partial\": false", "\"partial\": \"no\""),
        ("\"records\": [", "\"records\": 17, \"ignored\": ["),
        // Structurally poisoned RNG state.
        (
            "\"rng_state\": [",
            "\"rng_state\": [\"0x0\", \"0x0\", \"0x0\", \"0x0\"], \"old\": [",
        ),
        // Unknown classification.
        ("\"class\": \"tested\"", "\"class\": \"vibes\""),
        // Bad hex.
        ("\"seed\": \"0x", "\"seed\": \"0xZZ"),
        // A limit past `u32::MAX` (2^32 + 100), which must not wrap to 100.
        (
            "\"local_backtrack_limit\": 100",
            "\"local_backtrack_limit\": 4294967396",
        ),
    ];
    for (from, to) in corruptions {
        assert!(
            pristine.contains(from),
            "corruption target `{from}` not found — update the test"
        );
        let corrupt = pristine.replacen(from, to, 1);
        match RunArtifact::decode(&corrupt) {
            Ok(_) => panic!("corrupt artifact (`{from}` -> `{to}`) decoded"),
            Err(ArtifactError::Json(_) | ArtifactError::Schema(_)) => {}
            Err(other) => panic!("unexpected error class for `{to}`: {other:?}"),
        }
    }
}

#[test]
fn foreign_and_garbage_documents_error_cleanly() {
    for garbage in [
        "",
        "null",
        "42",
        "[]",
        "{}",
        "{\"format\": \"gdf-patterns\"}",
        "\u{0}\u{1}\u{2}",
        "{\"format\": \"gdf-run\", \"version\": \"two\"}",
    ] {
        assert!(
            RunArtifact::decode(garbage).is_err(),
            "garbage `{garbage:?}` decoded as a run artifact"
        );
        assert!(
            PatternSet::decode(garbage).is_err(),
            "garbage `{garbage:?}` decoded as a pattern set"
        );
    }
}

#[test]
fn truncated_pattern_sets_error_instead_of_panicking() {
    let text = sample_patterns();
    // Cut only inside the JSON value: dropping trailing whitespace
    // leaves a complete document.
    let text = text.trim_end();
    PatternSet::decode(text).expect("the whole document decodes");
    let step = (text.len() / 53).max(1);
    for end in (0..text.len()).step_by(step) {
        assert!(
            PatternSet::decode(&text[..end]).is_err(),
            "truncated pattern set ({end} bytes) decoded"
        );
    }
}

#[test]
fn short_pattern_frames_are_a_mismatch_not_a_panic() {
    // Delete one symbol from the first frame: the document still decodes,
    // but the frame no longer fits the circuit's inputs.
    let text = sample_patterns();
    let frames = text.find("\"frames\"").expect("a sequence with frames");
    let first = frames + text[frames..].find("[").unwrap() + 1;
    let symbol = first + text[first..].find('"').unwrap() + 1;
    let mut short = text.clone();
    short.remove(symbol);
    let set = PatternSet::decode(&short).expect("a short frame still decodes");
    let c = suite::s27();
    match grade_patterns(&c, &set, ModelKind::Delay, &FaultUniverse::default(), 7) {
        Err(ArtifactError::Mismatch(message)) => assert!(
            message.contains("pattern 0 frame 0"),
            "error names the pattern and the frame: {message}"
        ),
        other => panic!("expected a mismatch, got {other:?}"),
    }
}

#[test]
fn load_reports_io_errors_with_the_path() {
    let missing = std::env::temp_dir().join("gdf-definitely-not-here.json");
    match RunArtifact::load(&missing) {
        Err(ArtifactError::Io(message)) => {
            assert!(message.contains("gdf-definitely-not-here"), "{message}")
        }
        other => panic!("expected an I/O error, got {other:?}"),
    }
}
