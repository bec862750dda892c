//! Hostile-bytes coverage for the fleet layer's persistent documents —
//! the plan (`fleet.json`) and the shard (`shards/unit-<k>.json`).
//! Empty, truncated, future-version, duplicated and garbage documents
//! must produce friendly typed errors, never a panic; a corrupt shard
//! discovered at merge time is quarantined to `*.corrupt` and its unit
//! recomputed.

use gdf::core::shard::ShardArtifact;
use gdf::core::{ArtifactError, Backend, CircuitSource, RunConfig};
use gdf::fleet::{Coordinator, FleetError, FleetPlan, UnitState, FLEET_VERSION};
use gdf::netlist::suite;
use gdf::serve::{JobServer, ServeConfig};
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdf-fleetv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_plan() -> String {
    FleetPlan::new(
        "hostile",
        vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
        RunConfig::new(Backend::StuckAt),
        vec![
            CircuitSource::suite(&suite::s27(), "s27"),
            CircuitSource::suite(&suite::by_name("s42").unwrap(), "s42"),
        ],
        3,
    )
    .unwrap()
    .encode()
}

fn sample_shard() -> String {
    let circuit = suite::s27();
    let mut shard = ShardArtifact::new(
        &circuit,
        Some(CircuitSource::suite(&circuit, "s27")),
        RunConfig::new(Backend::StuckAt),
        0,
        4,
    )
    .unwrap();
    shard.run(&circuit, |_| true).unwrap();
    shard.encode(&circuit)
}

#[test]
fn truncated_plans_error_instead_of_panicking() {
    let text = sample_plan();
    // Cut only inside the JSON value: dropping trailing whitespace
    // leaves a complete document.
    let text = text.trim_end();
    FleetPlan::decode(text).expect("the whole document decodes");
    let step = (text.len() / 97).max(1);
    for end in (0..text.len()).step_by(step) {
        match FleetPlan::decode(&text[..end]) {
            Ok(_) => panic!("truncated plan ({end} bytes) decoded"),
            Err(FleetError::Artifact(ArtifactError::Json(_) | ArtifactError::Schema(_))) => {}
            Err(other) => panic!("unexpected error class at {end} bytes: {other}"),
        }
    }
}

#[test]
fn future_plan_versions_are_rejected_with_a_friendly_error() {
    let future = sample_plan().replacen(
        &format!("\"version\": {FLEET_VERSION}"),
        "\"version\": 99",
        1,
    );
    assert_ne!(future, sample_plan(), "version field not found in the plan");
    match FleetPlan::decode(&future) {
        Err(FleetError::Artifact(ArtifactError::Schema(message))) => {
            assert!(
                message.contains("99"),
                "error names the unsupported version: {message}"
            );
        }
        other => panic!("expected a schema error, got {other:?}"),
    }
}

#[test]
fn duplicated_units_are_rejected() {
    let plan = sample_plan();
    // Duplicate the first unit object verbatim inside the units array.
    let marker = "\"units\": [";
    let start = plan.find(marker).expect("units array") + marker.len();
    let end = start + plan[start..].find('}').expect("unit object") + 1;
    let first_unit = &plan[start..end];
    let duplicated = format!(
        "{}{},{}{}",
        &plan[..start],
        first_unit,
        first_unit.trim_start(),
        &plan[end..]
    );
    match FleetPlan::decode(&duplicated) {
        Err(FleetError::Artifact(ArtifactError::Schema(message))) => {
            assert!(
                message.contains("duplicated unit"),
                "error names the duplication: {message}"
            );
        }
        other => panic!("expected a schema error, got {other:?}"),
    }
}

#[test]
fn garbage_plans_and_shards_error_cleanly() {
    let circuit = suite::s27();
    for garbage in [
        "",
        "null",
        "42",
        "[]",
        "{}",
        "{\"schema\": \"gdf-run\"}",
        "\u{0}\u{1}\u{2}",
        "{\"schema\": \"gdf-fleet\", \"version\": \"two\"}",
    ] {
        assert!(
            FleetPlan::decode(garbage).is_err(),
            "garbage `{garbage:?}` decoded as a fleet plan"
        );
        assert!(
            ShardArtifact::decode(garbage, &circuit).is_err(),
            "garbage `{garbage:?}` decoded as a shard"
        );
    }
}

#[test]
fn truncated_shards_error_instead_of_panicking() {
    let circuit = suite::s27();
    let text = sample_shard();
    // Cut only inside the JSON value: dropping trailing whitespace
    // leaves a complete document.
    let text = text.trim_end();
    ShardArtifact::decode(text, &circuit).expect("the whole document decodes");
    let step = (text.len() / 97).max(1);
    for end in (0..text.len()).step_by(step) {
        match ShardArtifact::decode(&text[..end], &circuit) {
            Ok(_) => panic!("truncated shard ({end} bytes) decoded"),
            Err(ArtifactError::Json(_) | ArtifactError::Schema(_)) => {}
            Err(other) => panic!("unexpected error class at {end} bytes: {other:?}"),
        }
    }
}

#[test]
fn future_shard_versions_are_rejected() {
    let circuit = suite::s27();
    let pristine = sample_shard();
    // Shard documents use the compact encoding (no space after `:`).
    // 2^32 + 1 must not wrap to the supported version 1.
    for version in ["99", "4294967297"] {
        let future = pristine.replacen("\"version\":1", &format!("\"version\":{version}"), 1);
        assert_ne!(future, pristine, "version field not found");
        match ShardArtifact::decode(&future, &circuit) {
            Err(ArtifactError::Schema(message)) => {
                assert!(message.contains(version), "{message}")
            }
            other => panic!("expected a schema error for version {version}, got {other:?}"),
        }
    }
}

#[test]
fn corrupt_plan_on_resume_is_a_friendly_error_not_a_panic() {
    let dir = temp_dir("resume-corrupt");
    std::fs::create_dir_all(dir.join("shards")).unwrap();
    for bytes in ["", "{\"schema\": \"gdf-fl", "\u{0}\u{1}", "null"] {
        std::fs::write(Coordinator::plan_path(&dir), bytes).unwrap();
        match Coordinator::resume(&dir) {
            Err(FleetError::Artifact(_) | FleetError::Io(_) | FleetError::Plan(_)) => {}
            Ok(_) => panic!("resume accepted corrupt plan {bytes:?}"),
            Err(other) => panic!("unexpected error class for {bytes:?}: {other}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_shard_at_merge_time_is_quarantined_and_recomputed() {
    let config = RunConfig::new(Backend::StuckAt);
    let node_dir = temp_dir("quarantine-node");
    let node =
        JobServer::start(ServeConfig::new("127.0.0.1:0", &node_dir).with_workers(2)).unwrap();
    let dir = temp_dir("quarantine-coord");
    let plan = FleetPlan::new(
        "quarantine",
        vec![node.local_addr().to_string()],
        config,
        vec![CircuitSource::suite(&suite::s27(), "s27")],
        2,
    )
    .unwrap();
    let mut coordinator = Coordinator::create(&dir, plan)
        .unwrap()
        .with_poll(Duration::from_millis(25));

    // Drive rounds until every unit is done (shards harvested), then
    // vandalize one shard before the merge can happen. merge_ready only
    // runs once all units are done, so stop stepping at that boundary:
    // step() would merge immediately — instead poke the shard between
    // "all done" and the next step by checking state each round.
    let mut vandalized = false;
    for _ in 0..4000 {
        if !vandalized {
            let all_done = coordinator
                .plan()
                .units
                .iter()
                .all(|u| u.state == UnitState::Done);
            if all_done && !dir.join("s27.run.json").exists() {
                std::fs::write(dir.join("shards").join("unit-0.json"), "{\"schema\": ").unwrap();
                vandalized = true;
            }
        }
        if coordinator.step().expect("step survives corruption") {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    // If the merge beat us to it the test proved nothing — force the
    // scenario instead of looping forever.
    if !vandalized {
        // Merge already happened in the same step that completed the
        // last unit; corrupt the shard and delete the merged artifact
        // to replay the merge path against the corrupt file.
        std::fs::write(dir.join("shards").join("unit-0.json"), "{\"schema\": ").unwrap();
        std::fs::remove_file(dir.join("s27.run.json")).unwrap();
        let finished = (0..4000).any(|_| {
            std::thread::sleep(Duration::from_millis(25));
            coordinator.step().expect("step survives corruption")
        });
        assert!(finished, "fleet did not reconverge after quarantine");
    }
    assert!(
        dir.join("shards").join("unit-0.json.corrupt").exists(),
        "corrupt shard was not quarantined"
    );
    assert!(dir.join("s27.run.json").exists(), "merge did not complete");

    node.shutdown();
    let _ = std::fs::remove_dir_all(&node_dir);
    let _ = std::fs::remove_dir_all(&dir);
}
