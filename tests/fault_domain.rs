//! The PR 5 fault-domain guarantees, end to end:
//!
//! * the transition model runs through the unified builder with the
//!   determinism invariant intact (serial ≡ parallel ≡ resumed,
//!   byte-identical records/sequences/artifacts);
//! * coverage accounting is consistent across the engine, the artifact
//!   round trip, and the campaign aggregate;
//! * a version-1 (PR 3/4) artifact loads under the v2 loader and its
//!   patterns re-grade;
//! * a `gdf serve` job runs the transition model to the same canonical
//!   artifact as a local run.

use gdf::core::{
    compact_campaign, compact_sequences, grade_patterns, Atpg, AtpgError, Backend, Campaign,
    CircuitSource, Coverage, DelayAtpg, DelayAtpgConfig, Digest, FaultClassification, ModelKind,
    PatternSet, RunArtifact, RunConfig,
};
use gdf::netlist::{suite, Fault, FaultUniverse};
use gdf::serve::server::submission_for_suite;
use gdf::serve::{Client, JobServer, ServeConfig};
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdf-domain-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn transition_runs_are_serial_parallel_identical() {
    let c = suite::s27();
    let serial = Atpg::builder(&c)
        .model(ModelKind::Transition)
        .seed(7)
        .build()
        .run();
    assert!(serial.report.row.tested > 0, "transition tests exist");
    assert!(
        serial
            .records
            .iter()
            .all(|r| matches!(r.fault, Fault::Transition(_))),
        "every record carries a transition fault"
    );
    for n in [2, 4] {
        let parallel = Atpg::builder(&c)
            .model(ModelKind::Transition)
            .seed(7)
            .parallelism(n)
            .build()
            .run();
        assert_eq!(serial.records, parallel.records, "parallelism {n}");
        assert_eq!(serial.sequences, parallel.sequences, "parallelism {n}");
        assert_eq!(
            serial.report.row.normalized(),
            parallel.report.row.normalized()
        );
        assert_eq!(serial.report.coverage, parallel.report.coverage);
    }
}

#[test]
fn transition_resume_is_byte_identical() {
    let dir = temp_dir("resume");
    let path = dir.join("tf.run.json");
    let c = suite::s27();
    let config = RunConfig::new(Backend::NonScan)
        .with_model(ModelKind::Transition)
        .with_seed(3);

    let clean = Atpg::builder(&c)
        .model(ModelKind::Transition)
        .seed(3)
        .build()
        .run();
    let clean_artifact = RunArtifact::from_run(&c, &clean, config, None);

    // Interrupted run: cancel after 10 outcomes, keep the checkpoint.
    struct StopAfter(usize);
    impl gdf::core::Observer for StopAfter {
        fn on_fault(&mut self, _r: &gdf::core::FaultRecord) {
            self.0 = self.0.saturating_sub(1);
        }
        fn cancelled(&mut self) -> bool {
            self.0 == 0
        }
    }
    let interrupted = Atpg::builder(&c)
        .model(ModelKind::Transition)
        .seed(3)
        .checkpoint(&path, 4)
        .observer(StopAfter(10))
        .build()
        .run();
    assert_eq!(interrupted.stopped, Some(AtpgError::Cancelled));

    let checkpoint = RunArtifact::load(&path).unwrap();
    assert!(checkpoint.partial);
    assert_eq!(checkpoint.config(), config, "checkpoint records the model");
    let resumed = Atpg::builder(&c)
        .resume_from(&checkpoint)
        .unwrap()
        .build()
        .run();
    assert_eq!(resumed.records, clean.records);
    assert_eq!(resumed.sequences, clean.sequences);
    let resumed_artifact = RunArtifact::from_run(&c, &resumed, config, None);
    assert_eq!(
        resumed_artifact.canonical_encode(),
        clean_artifact.canonical_encode(),
        "resumed transition run is byte-identical to the clean one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn transition_model_is_weaker_than_robust_delay() {
    // Non-robust sensitization plus final-value simulation can only ever
    // test *more* faults than the robust model over the same sites.
    let c = suite::s27();
    let robust = Atpg::builder(&c).seed(11).build().run();
    let transition = Atpg::builder(&c)
        .model(ModelKind::Transition)
        .seed(11)
        .build()
        .run();
    assert_eq!(robust.records.len(), transition.records.len());
    assert!(
        transition.report.row.tested >= robust.report.row.tested,
        "transition {} < robust {}",
        transition.report.row.tested,
        robust.report.row.tested
    );
    assert!(transition.report.coverage.fault_coverage() >= robust.report.coverage.fault_coverage());
}

/// Compacting a transition-model run keeps every detection, through the
/// per-run and the campaign-wide compactor alike: both fault-simulate
/// the run's tested transition faults, and each kept set re-grades to at
/// least the full set's transition coverage.
#[test]
fn transition_runs_compact_without_losing_coverage() {
    let c = suite::s27();
    let config = RunConfig::new(Backend::NonScan).with_model(ModelKind::Transition);
    let run = Atpg::builder(&c)
        .model(config.model)
        .seed(config.seed)
        .build()
        .run();
    let universe = FaultUniverse::default();
    let full = PatternSet::from_run(&c, &run, "non-scan", config.seed, None);
    let detected = |set: &PatternSet| {
        grade_patterns(&c, set, ModelKind::Transition, &universe, config.seed)
            .expect("the patterns grade")
            .detected()
    };
    let before = detected(&full);
    assert!(before > 0, "the full set detects transition faults");

    let atpg = DelayAtpg::with_config(
        &c,
        DelayAtpgConfig::new()
            .with_model(config.model)
            .with_xfill_seed(config.seed),
    );
    let solo = compact_sequences(&atpg, &run);
    assert!(
        solo.covered > 0,
        "the tested transition faults are simulated"
    );
    let kept = PatternSet {
        patterns: solo
            .kept
            .iter()
            .map(|&i| full.patterns[i].clone())
            .collect(),
        ..full.clone()
    };
    assert!(
        detected(&kept) >= before,
        "compact_sequences lost a detection"
    );

    let artifact = RunArtifact::from_run(&c, &run, config, Some(CircuitSource::suite(&c, "s27")));
    let campaign = compact_campaign(&[(c.clone(), artifact)]).expect("compacts");
    let set = &campaign.sets[0];
    assert_eq!(set.patterns.len(), solo.kept.len(), "same greedy answer");
    assert!(detected(set) >= before, "compact_campaign lost a detection");
    // Pinned before campaign compaction moved beside `compact_sequences`.
    assert_eq!(
        (campaign.patterns_before, campaign.patterns_after),
        (43, 29)
    );
    assert_eq!(
        Digest::of_text(&set.encode()).to_string(),
        "1b2fe911176c7df6e86a02d4c77909b4"
    );
}

/// The compacted sets and vector totals of a robust `s27` + `s42`
/// campaign, pinned before campaign compaction moved beside
/// `compact_sequences`: the move changed no keep decision and no byte.
#[test]
fn campaign_compaction_keeps_its_pinned_answer() {
    let config = RunConfig::new(Backend::NonScan);
    let runs: Vec<_> = ["s27", "s42"]
        .into_iter()
        .map(|name| {
            let c = suite::by_name(name).expect("suite circuit");
            let run = Atpg::builder(&c).seed(config.seed).build().run();
            let artifact =
                RunArtifact::from_run(&c, &run, config, Some(CircuitSource::suite(&c, name)));
            (c, artifact)
        })
        .collect();
    let campaign = compact_campaign(&runs).expect("compacts");
    assert_eq!(
        (campaign.patterns_before, campaign.patterns_after),
        (94, 73)
    );
    let doc = gdf::core::json::Json::parse(&campaign.encode()).expect("the document is JSON");
    assert_eq!(doc.get("version").and_then(|v| v.as_u64()), Some(2));
    assert!(doc.get("seed").is_none(), "the document has no seed");
    let digests: Vec<String> = campaign
        .sets
        .iter()
        .map(|set| Digest::of_text(&set.encode()).to_string())
        .collect();
    assert_eq!(
        digests,
        [
            "195170d2df08e9e326f3700a95ab7464",
            "4c0ed1b7c5aa90d17f9aaef80c731499"
        ]
    );
}

#[test]
fn transition_runs_through_enhanced_scan() {
    let c = suite::s27();
    let run = Atpg::builder(&c)
        .backend(Backend::EnhancedScan)
        .model(ModelKind::Transition)
        .build()
        .run();
    assert!(run.report.row.tested > 0);
    assert!(run
        .records
        .iter()
        .all(|r| matches!(r.fault, Fault::Transition(_))));
}

#[test]
fn unsupported_model_backend_pairings_are_rejected() {
    let c = suite::s27();
    let err = Atpg::builder(&c)
        .backend(Backend::StuckAt)
        .model(ModelKind::Transition)
        .try_build()
        .err()
        .expect("stuck-at cannot run transition faults");
    assert_eq!(
        err,
        AtpgError::UnsupportedModel {
            backend: Backend::StuckAt,
            model: ModelKind::Transition,
        }
    );
    assert!(Atpg::builder(&c)
        .backend(Backend::NonScan)
        .model(ModelKind::Stuck)
        .try_build()
        .is_err());
}

#[test]
fn coverage_is_consistent_with_the_row_and_round_trips() {
    let c = suite::s27();
    for model in [ModelKind::Delay, ModelKind::Transition] {
        let run = Atpg::builder(&c).model(model).seed(5).build().run();
        let cov = run.report.coverage;
        assert_eq!(cov.detected_total(), run.report.row.tested);
        assert_eq!(cov.possibly_detected, run.report.dropped_by_simulation);
        assert_eq!(cov.untestable, run.report.row.untestable);
        assert_eq!(cov.aborted, run.report.row.aborted);
        assert_eq!(cov.total, run.records.len() as u32);
        let collapsed = cov.collapsed.expect("engine runs carry collapse info");
        assert!(collapsed.classes > 0 && collapsed.classes <= cov.total);
        assert!(collapsed.detected <= collapsed.classes);
        // Detected classes can never outnumber detected faults (each
        // detected class has at least one detected member).
        assert!(collapsed.detected <= cov.detected_total());

        // The tally survives the artifact round trip byte-exactly.
        let config = RunConfig::new(Backend::NonScan)
            .with_model(model)
            .with_seed(5);
        let artifact = RunArtifact::from_run(&c, &run, config, None);
        let back = RunArtifact::decode(&artifact.encode()).unwrap();
        assert_eq!(back.report().unwrap().coverage, cov);
        assert_eq!(back.config(), config);
    }
}

#[test]
fn campaign_aggregates_coverage() {
    let report = Campaign::builder()
        .backend(Backend::StuckAt)
        .circuit(suite::s27())
        .circuit(suite::extra_circuit("s42").unwrap())
        .run();
    let total = report.coverage();
    let sum: u32 = report.circuits.iter().map(|r| r.coverage.total).sum();
    assert_eq!(total.total, sum);
    assert!(total.collapsed.is_some(), "both runs carry collapse info");
    assert!(report.render().contains("coverage:"));
}

/// Rewrites a v2 artifact into the exact v1 (PR 3/4) field layout:
/// `version: 1`, the sensitization under the `model` key, no
/// `sensitization` key, no `coverage` object — by editing the JSON tree,
/// so the transformation is immune to formatting details.
fn downgrade_to_v1(v2: &str) -> String {
    use gdf::core::json::Json;
    let mut j = Json::parse(v2).expect("v2 artifact parses");
    let Json::Obj(fields) = &mut j else {
        panic!("artifact is an object")
    };
    let sensitization = fields
        .iter()
        .find(|(k, _)| k == "sensitization")
        .map(|(_, v)| v.clone())
        .expect("v2 carries a sensitization");
    fields.retain(|(k, _)| k != "sensitization");
    for (key, value) in fields.iter_mut() {
        match key.as_str() {
            "version" => *value = Json::Num(1.0),
            "model" => *value = sensitization.clone(),
            "report" => {
                if let Json::Obj(report) = value {
                    report.retain(|(k, _)| k != "coverage");
                }
            }
            _ => {}
        }
    }
    j.pretty()
}

#[test]
fn v1_artifacts_load_and_regrade_under_the_v2_loader() {
    let c = suite::s27();
    let seed = 0x1995_0308;
    let run = Atpg::builder(&c).seed(seed).build().run();
    let config = RunConfig::new(Backend::NonScan);
    let artifact = RunArtifact::from_run(&c, &run, config, Some(CircuitSource::suite(&c, "s27")));

    let v1_text = downgrade_to_v1(&artifact.encode());
    assert!(v1_text.contains("\"version\": 1"), "downgrade applied");
    assert!(
        v1_text.contains("\"model\": \"robust\""),
        "v1 model field restored"
    );
    assert!(!v1_text.contains("coverage"), "v1 has no coverage object");

    // The v2 loader accepts it and maps the config.
    let loaded = RunArtifact::decode(&v1_text).expect("v1 artifact loads");
    let cfg = loaded.config();
    assert_eq!(cfg.model, ModelKind::Delay, "model derived from backend");
    assert_eq!(cfg, config, "v1 config maps onto the v2 shape");

    // The run reconstructs; the coverage tally is rebuilt from records
    // (uncollapsed only — v1 never recorded class counts).
    let restored = loaded.to_run(&c).expect("v1 run reconstructs");
    assert_eq!(restored.records, run.records);
    let cov = loaded.report().unwrap().coverage;
    assert_eq!(cov.detected_total(), run.report.row.tested);
    assert_eq!(cov.collapsed, None, "v1 has no collapsed denominators");

    // And its patterns re-grade through the v2 surface, under both
    // at-speed models.
    let set = PatternSet::from_run(&c, &restored, "non-scan", seed, None);
    let delay = grade_patterns(&c, &set, ModelKind::Delay, &FaultUniverse::default(), seed)
        .expect("delay re-grade");
    assert!(delay.detected() > 0);
    let tf = grade_patterns(
        &c,
        &set,
        ModelKind::Transition,
        &FaultUniverse::default(),
        seed,
    )
    .expect("transition re-grade");
    assert!(tf.detected() >= delay.detected());

    // A resumable v1 checkpoint also feeds resume_from.
    let resumed = Atpg::builder(&c)
        .resume_from(&loaded)
        .expect("v1 artifact resumes")
        .build()
        .run();
    assert_eq!(resumed.records, run.records);
}

#[test]
fn transition_model_end_to_end_through_serve() {
    let dir = temp_dir("serve-tf");
    let server = JobServer::start(
        ServeConfig::new("127.0.0.1:0", &dir)
            .with_workers(2)
            .with_queue_capacity(8),
    )
    .expect("server starts");
    let client = Client::new(server.local_addr().to_string());

    let config = RunConfig::new(Backend::NonScan).with_model(ModelKind::Transition);
    let id = client
        .submit(&submission_for_suite("suite:s27", &config))
        .expect("transition submission accepted");
    let status = client
        .wait(
            id,
            Duration::from_millis(25),
            Some(Duration::from_secs(120)),
        )
        .expect("job finishes");
    assert_eq!(
        status.get("state").and_then(gdf::core::json::Json::as_str),
        Some("done"),
        "{status:?}"
    );
    // The verbose status echoes the model and the coverage tally.
    let verbose = client.status(id).expect("status");
    assert_eq!(
        verbose.get("model").and_then(gdf::core::json::Json::as_str),
        Some("transition")
    );
    let report = verbose.get("report").expect("report present");
    let coverage = report.get("coverage").expect("coverage on the wire");
    assert!(coverage
        .get("detected")
        .and_then(gdf::core::json::Json::as_u64)
        .is_some());

    // The fetched artifact is byte-identical to a local transition run.
    let remote = client.artifact(id).expect("artifact");
    let circuit = suite::s27();
    let local = Atpg::builder(&circuit)
        .model(ModelKind::Transition)
        .build()
        .run();
    let reference = RunArtifact::from_run(
        &circuit,
        &local,
        config,
        Some(CircuitSource::suite(&circuit, "s27")),
    )
    .canonical_encode();
    assert_eq!(remote, reference, "remote transition run matches local");

    // Stuck backend + transition model is a 400 at POST time.
    let bad = client.submit(&{
        let mut config = RunConfig::new(Backend::StuckAt);
        config.model = ModelKind::Transition;
        submission_for_suite("suite:s27", &config)
    });
    assert!(bad.is_err(), "unsupported pairing rejected at POST");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn coverage_streaming_tally_matches_batch() {
    let c = suite::s27();
    let run = Atpg::builder(&c).backend(Backend::StuckAt).build().run();
    let mut streamed = Coverage::zero(run.records.len() as u32);
    for r in &run.records {
        streamed.count(r.classification, r.by_simulation);
    }
    let batch = Coverage::from_records(&run.records, None);
    assert_eq!(streamed, batch);
    assert_eq!(
        streamed.detected_total() + streamed.untestable + streamed.aborted,
        streamed.total
    );
    // Spot-check against manual counting.
    let tested = run
        .records
        .iter()
        .filter(|r| r.classification == FaultClassification::Tested)
        .count() as u32;
    assert_eq!(streamed.detected_total(), tested);
}
