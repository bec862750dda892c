//! Observability is strictly a side channel: canonical artifact bytes
//! are identical with every hook enabled, disabled, or mixed —
//! locally, over the serve API, and across a traced fleet.

use gdf::core::{Atpg, Backend, CircuitSource, RunArtifact, RunConfig};
use gdf::fleet::{Coordinator, FleetPlan};
use gdf::netlist::suite;
use gdf::obs::{Profiler, Registry, RegistrySink};
use gdf::serve::server::submission_for_suite;
use gdf::serve::{Client, JobServer, ServeConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdf-obsd-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn local_canonical(name: &str, config: RunConfig) -> String {
    let circuit = suite::by_name(name).expect("suite circuit");
    let run = Atpg::builder(&circuit)
        .backend(config.backend)
        .seed(config.seed)
        .build()
        .run();
    RunArtifact::from_run(
        &circuit,
        &run,
        config,
        Some(CircuitSource::suite(&circuit, name)),
    )
    .canonical_encode()
}

#[test]
fn profiler_and_phase_sink_leave_canonical_bytes_untouched() {
    let config = RunConfig::new(Backend::NonScan);
    let reference = local_canonical("s27", config);

    // Same run with the full instrumentation stack attached: the phase
    // sink feeding a live registry, plus the profiler observer.
    let registry = Registry::new();
    let _scope = gdf::core::phase::scoped(Arc::new(RegistrySink::new(registry.clone())));
    let (profiler, handle) = Profiler::new();
    let circuit = suite::s27();
    let run = Atpg::builder(&circuit)
        .backend(config.backend)
        .seed(config.seed)
        .observer(profiler)
        .build()
        .run();
    let instrumented = RunArtifact::from_run(
        &circuit,
        &run,
        config,
        Some(CircuitSource::suite(&circuit, "s27")),
    )
    .canonical_encode();
    assert_eq!(
        instrumented, reference,
        "profiler/phase sink changed canonical bytes"
    );
    // The instrumentation did observe the run — it's a side channel,
    // not a no-op.
    let profile = handle.snapshot();
    assert!(profile.decided > 0, "profiler saw no outcomes");
    assert!(
        registry.render().contains("gdf_engine_phase_seconds"),
        "phase sink recorded nothing"
    );
}

#[test]
fn served_runs_with_obs_on_and_off_are_byte_identical() {
    let config = RunConfig::new(Backend::NonScan);
    let submission = submission_for_suite("suite:s27", &config);

    let fetch = |server: JobServer, client: Client| {
        let id = client.submit(&submission).expect("submit");
        client
            .wait(
                id,
                Duration::from_millis(25),
                Some(Duration::from_secs(120)),
            )
            .expect("job finishes");
        let artifact = client.artifact(id).expect("artifact");
        server.shutdown();
        artifact
    };

    let dir_on = temp_dir("obs-on");
    let on = JobServer::start(ServeConfig::new("127.0.0.1:0", &dir_on).with_workers(2))
        .expect("obs-on server");
    let client = Client::new(on.local_addr().to_string());
    let with_obs = fetch(on, client);

    let dir_off = temp_dir("obs-off");
    let off = JobServer::start(
        ServeConfig::new("127.0.0.1:0", &dir_off)
            .with_workers(2)
            .with_obs(false),
    )
    .expect("obs-off server");
    let client = Client::new(off.local_addr().to_string());
    let without_obs = fetch(off, client);

    let reference = local_canonical("s27", config);
    assert_eq!(with_obs, reference, "obs-on served run diverged");
    assert_eq!(without_obs, reference, "obs-off served run diverged");

    let _ = std::fs::remove_dir_all(&dir_on);
    let _ = std::fs::remove_dir_all(&dir_off);
}

#[test]
fn traced_fleet_of_two_matches_local_and_shares_one_campaign_trace() {
    let config = RunConfig::new(Backend::NonScan);
    let (na, nb) = (temp_dir("fleet-node-a"), temp_dir("fleet-node-b"));
    let a = JobServer::start(ServeConfig::new("127.0.0.1:0", &na).with_workers(2)).expect("node a");
    let b = JobServer::start(ServeConfig::new("127.0.0.1:0", &nb).with_workers(2)).expect("node b");
    let dir = temp_dir("fleet-coord");
    let circuit = suite::s27();
    let plan = FleetPlan::new(
        "traced",
        vec![a.local_addr().to_string(), b.local_addr().to_string()],
        config,
        vec![CircuitSource::suite(&circuit, "s27")],
        3,
    )
    .unwrap();
    let mut coordinator = Coordinator::create(&dir, plan)
        .expect("coordinator creates")
        .with_poll(Duration::from_millis(25));
    let campaign = coordinator.trace();
    coordinator.run().expect("fleet(2) converges");

    // Merged bytes identical to a local run, trace propagation and all.
    let merged = RunArtifact::load(dir.join("s27.run.json"))
        .unwrap()
        .canonical_encode();
    assert_eq!(
        merged,
        local_canonical("s27", config),
        "traced fleet(2) diverged from the local run"
    );

    // Every shard job on every node carries the campaign's trace id —
    // one grep correlates the whole distributed run.
    let campaign_trace = campaign.trace.hex();
    let mut shard_jobs = 0;
    for (node, node_dir) in [(&a, &na), (&b, &nb)] {
        let client = Client::new(node.local_addr().to_string());
        let list = client.list().expect("job list");
        for job in list
            .get("jobs")
            .and_then(|j| j.as_array())
            .expect("jobs array")
        {
            let id = job
                .get("id")
                .and_then(gdf::core::json::Json::as_u64)
                .expect("job id");
            let status = client.status(id).expect("status");
            let trace = status
                .get("trace")
                .and_then(gdf::core::json::Json::as_str)
                .unwrap_or_else(|| panic!("shard job {id} has no trace: {status}"));
            assert_eq!(
                &trace[..32],
                campaign_trace,
                "job {id} on {} left the campaign trace",
                node_dir.display()
            );
            shard_jobs += 1;
        }
    }
    assert!(shard_jobs > 0, "no shard jobs reached the nodes");

    a.shutdown();
    b.shutdown();
    for d in [na, nb, dir] {
        let _ = std::fs::remove_dir_all(&d);
    }
}
