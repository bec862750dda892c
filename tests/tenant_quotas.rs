//! Multi-tenant admission control, end to end over real sockets:
//!
//! * auth gates the mutating routes (`401`/`403`) while reads stay open,
//! * per-tenant quotas and rate limits answer `429 + Retry-After`
//!   (distinct from the saturation `503`), and a drained lane admits
//!   again,
//! * the weighted fair scheduler serves a saturated server 2:1 by
//!   weight regardless of arrival order,
//! * and tenancy never touches result bytes: contended multi-tenant
//!   artifacts are byte-identical to a serial open-mode run, while
//!   anonymous `/events` streams follow contended jobs to their end.

use gdf::core::json::Json;
use gdf::core::{Backend, Limits, ProgressEvent, RunConfig};
use gdf::netlist::FaultUniverse;
use gdf::serve::server::submission_for_suite;
use gdf::serve::{Client, JobId, JobServer, ServeConfig, ServeError};
use gdf::tenant::{TenantRegistry, TenantSpec};
use std::path::PathBuf;
use std::time::Duration;

const ACME_TOKEN: &str = "test-token-acme";
const ZETA_TOKEN: &str = "test-token-zeta";
const OPS_TOKEN: &str = "test-token-ops";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdf-tenantq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_tenanted(dir: &PathBuf, workers: usize, registry: TenantRegistry) -> JobServer {
    JobServer::start(
        ServeConfig::new("127.0.0.1:0", dir)
            .with_workers(workers)
            .with_queue_capacity(64)
            .with_tenants(registry),
    )
    .expect("tenanted server starts")
}

fn client(server: &JobServer, token: &str) -> Client {
    Client::new(server.local_addr().to_string())
        .with_token(token)
        .with_timeout(Duration::from_secs(30))
}

/// A distinct-seed stuck-at `s27` submission — quick real work, never a
/// cache hit of another seed's job.
fn quick_job(seed: u64) -> Json {
    let mut config = RunConfig::new(Backend::StuckAt);
    config.seed = seed;
    submission_for_suite("suite:s27", &config)
}

/// A deliberately long job to pin a worker: non-scan `s208`, trimmed in
/// the slow dev profile the same way `serve_determinism.rs` trims it.
fn blocker_job() -> Json {
    let mut config = RunConfig::new(Backend::NonScan);
    if cfg!(debug_assertions) {
        config.universe = FaultUniverse::stems_only();
        config.limits = Limits::new()
            .with_local_backtrack_limit(20)
            .with_sequential_backtrack_limit(10)
            .with_max_propagation_frames(8)
            .with_max_sync_frames(8)
            .with_max_observation_retries(1);
    }
    submission_for_suite("suite:s208", &config)
}

fn wait_until_running(client: &Client, id: JobId) {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let status = client.status(id).expect("status");
        let state = status.get("state").and_then(Json::as_str).unwrap_or("");
        assert_ne!(state, "failed", "blocker failed: {status}");
        if state == "running" {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "blocker never started: {status}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn auth_gates_mutating_routes_while_reads_stay_open() {
    let dir = temp_dir("auth");
    let registry = TenantRegistry::new(vec![
        TenantSpec::new("acme", ACME_TOKEN),
        TenantSpec::new("zeta", ZETA_TOKEN),
    ])
    .unwrap();
    let server = start_tenanted(&dir, 1, registry);

    // No token: 401. A wrong token: 403. Neither is retried.
    let anonymous = Client::new(server.local_addr().to_string()).with_retries(0);
    match anonymous.submit(&quick_job(1)) {
        Err(ServeError::Api { status: 401, .. }) => {}
        other => panic!("expected 401 for a tokenless submit, got {other:?}"),
    }
    let impostor = client(&server, "not-a-real-token").with_retries(0);
    match impostor.submit(&quick_job(1)) {
        Err(ServeError::Api {
            status: 403,
            message,
            ..
        }) => assert!(message.contains("unknown token"), "{message}"),
        other => panic!("expected 403 for an unknown token, got {other:?}"),
    }

    // Reads stay open: health, metrics, and job GETs need no token.
    anonymous.healthz().expect("/healthz answers without auth");
    let metrics = anonymous.metrics().expect("/metrics answers without auth");
    assert!(metrics.contains("gdf_http_requests_total"));

    // A real tenant submits; the job carries its owner tag.
    let acme = client(&server, ACME_TOKEN);
    let id = acme.submit(&quick_job(2)).expect("authorized submit");
    let status = acme.wait(id, Duration::from_millis(5), None).expect("done");
    assert_eq!(
        status.get("tenant").and_then(Json::as_str),
        Some("acme"),
        "{status}"
    );
    // Anonymous status reads are open too.
    anonymous.status(id).expect("job GET stays open");

    // Cross-tenant delete: zeta may not touch acme's job.
    let zeta = client(&server, ZETA_TOKEN).with_retries(0);
    match zeta.delete(id) {
        Err(ServeError::Api {
            status: 403,
            message,
            ..
        }) => assert!(message.contains("another tenant"), "{message}"),
        other => panic!("expected 403 for a cross-tenant delete, got {other:?}"),
    }
    // Tokenless delete: 401. The owner's delete goes through.
    match anonymous.delete(id) {
        Err(ServeError::Api { status: 401, .. }) => {}
        other => panic!("expected 401 for a tokenless delete, got {other:?}"),
    }
    acme.delete(id).expect("the owner may delete its job");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queued_quota_answers_429_with_retry_after_then_drains() {
    let dir = temp_dir("quota");
    // A suspended lane (max_running 0) keeps admitted jobs queued, so
    // the quota mechanics are observable without any timing games.
    let registry = TenantRegistry::new(vec![TenantSpec::new("cap", ACME_TOKEN)
        .with_max_queued(1)
        .with_max_running(0)])
    .unwrap();
    let server = start_tenanted(&dir, 1, registry);
    let cap = client(&server, ACME_TOKEN).with_retries(0);

    // One job fills the quota; the next is the tenant's problem (429
    // with a wait hint), not the server's (503).
    let first = cap.submit(&quick_job(10)).expect("first job admitted");
    match cap.submit(&quick_job(11)) {
        Err(ServeError::Api {
            status: 429,
            message,
            retry_after,
        }) => {
            assert!(message.contains("queued-job quota"), "{message}");
            assert!(retry_after.is_some(), "429 must carry Retry-After");
        }
        other => panic!("expected the quota 429, got {other:?}"),
    }
    let metrics = cap.metrics().expect("metrics");
    assert!(
        metrics.contains("gdf_tenant_rejected_total{tenant=\"cap\"} 1"),
        "rejection must be counted:\n{metrics}"
    );

    // Draining the lane (cancelling the queued job) re-admits.
    cap.delete(first).expect("cancel the queued job");
    cap.submit(&quick_job(11))
        .expect("a drained lane admits again");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rate_limit_answers_429_and_the_client_retries_through() {
    let dir = temp_dir("rate");
    // 1 request/second with a burst of 1: the second immediate submit
    // must be rejected, and a token regrows within a second.
    let registry =
        TenantRegistry::new(vec![TenantSpec::new("slow", ACME_TOKEN).with_rate(1.0, 1.0)]).unwrap();
    let server = start_tenanted(&dir, 1, registry);

    let probe = client(&server, ACME_TOKEN).with_retries(0);
    probe.submit(&quick_job(20)).expect("burst token admits");
    match probe.submit(&quick_job(21)) {
        Err(ServeError::Api {
            status: 429,
            message,
            retry_after,
        }) => {
            assert!(message.contains("request rate"), "{message}");
            assert!(
                retry_after.unwrap_or(0) >= 1,
                "the hint names the refill wait: {retry_after:?}"
            );
        }
        other => panic!("expected the rate 429, got {other:?}"),
    }

    // A retrying client honours the hint and lands once the bucket
    // refills — nothing was enqueued, so the retry is safe.
    let patient = client(&server, ACME_TOKEN).with_retries(3);
    patient
        .submit(&quick_job(22))
        .expect("the retry rides out the rate limit");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn weighted_fairness_on_a_saturated_server() {
    let dir = temp_dir("fair");
    let registry = TenantRegistry::new(vec![
        TenantSpec::new("acme", ACME_TOKEN).with_weight(2),
        TenantSpec::new("zeta", ZETA_TOKEN).with_weight(1),
        TenantSpec::new("ops", OPS_TOKEN),
    ])
    .unwrap();
    let server = start_tenanted(&dir, 1, registry);
    let acme = client(&server, ACME_TOKEN);
    let zeta = client(&server, ZETA_TOKEN);
    let ops = client(&server, OPS_TOKEN);

    // Pin the single worker so every test job queues before any
    // dispatch — arrival order and dispatch order fully decouple.
    let blocker = ops.submit(&blocker_job()).expect("blocker submits");
    wait_until_running(&ops, blocker);

    // All of zeta's jobs arrive BEFORE any of acme's. FIFO would drain
    // zeta first; WDRR must serve 2:1 by weight from the start.
    let mut ids: Vec<(usize, JobId)> = Vec::new();
    for seed in 0..6 {
        ids.push((1, zeta.submit(&quick_job(100 + seed)).expect("zeta submit")));
    }
    for seed in 0..12 {
        ids.push((0, acme.submit(&quick_job(200 + seed)).expect("acme submit")));
    }
    // Release the worker: cancel the blocker at its next fault boundary.
    ops.delete(blocker).expect("cancel blocker");

    // Watch completions; in every mid-drain snapshot the weight-2
    // tenant must be at least even with the weight-1 tenant despite
    // arriving later (FIFO would hold acme at 0 until zeta drained).
    let deadline = std::time::Instant::now() + Duration::from_secs(300);
    let mut discriminating_snapshots = 0usize;
    loop {
        let mut done = [0usize; 2];
        for &(tenant, id) in &ids {
            let status = acme.status(id).expect("status");
            let state = status.get("state").and_then(Json::as_str).unwrap_or("");
            assert_ne!(state, "failed", "job failed: {status}");
            if state == "done" {
                done[tenant] += 1;
            }
        }
        let total = done[0] + done[1];
        if (3..=12).contains(&total) {
            discriminating_snapshots += 1;
            assert!(
                done[0] >= done[1],
                "weight-2 acme ({}) behind weight-1 zeta ({}) at {total} done",
                done[0],
                done[1]
            );
        }
        if total == ids.len() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "fairness run timed out at {total} done"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        discriminating_snapshots > 0,
        "the drain was never observed mid-flight; nothing was tested"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn contended_tenant_artifacts_match_serial_open_mode() {
    let spec_seed = 0x1995;
    let mut config = RunConfig::new(Backend::StuckAt);
    config.seed = spec_seed;
    let submission = submission_for_suite("suite:s27", &config);

    // Reference: the same spec through a serial, open-mode (no
    // registry) server — the pre-tenancy code path, byte for byte.
    let open_dir = temp_dir("det-open");
    let open_server = JobServer::start(
        ServeConfig::new("127.0.0.1:0", &open_dir)
            .with_workers(1)
            .with_queue_capacity(4),
    )
    .expect("open server starts");
    let open_client = Client::new(open_server.local_addr().to_string());
    let id = open_client.submit(&submission).expect("open submit");
    open_client
        .wait(id, Duration::from_millis(5), Some(Duration::from_secs(300)))
        .expect("open job done");
    let reference = open_client.artifact(id).expect("open artifact");
    open_server.shutdown();
    let _ = std::fs::remove_dir_all(&open_dir);

    // Contended: both tenants submit the same spec concurrently, amid
    // a pile of distinct-seed jobs, on a multi-worker tenanted server.
    let dir = temp_dir("det-tenant");
    let registry = TenantRegistry::new(vec![
        TenantSpec::new("acme", ACME_TOKEN).with_weight(2),
        TenantSpec::new("zeta", ZETA_TOKEN),
    ])
    .unwrap();
    let server = start_tenanted(&dir, 3, registry);
    let acme = client(&server, ACME_TOKEN);
    let zeta = client(&server, ZETA_TOKEN);
    let mut noise = Vec::new();
    for seed in 0..4 {
        noise.push(acme.submit(&quick_job(300 + seed)).expect("noise"));
        noise.push(zeta.submit(&quick_job(400 + seed)).expect("noise"));
    }
    // Two tokenless streamers follow one distinct-seed job per tenant
    // (never a cache hit, which streams no events): reads stay open, and
    // each stream runs to its job's `finished` event under contention.
    let streamers: Vec<_> = noise[..2]
        .iter()
        .map(|&id| {
            let streamer =
                Client::new(server.local_addr().to_string()).with_timeout(Duration::from_secs(30));
            std::thread::spawn(move || {
                let mut finished = false;
                streamer
                    .events(id, |event| {
                        finished = matches!(event, ProgressEvent::Finished { .. });
                        !finished
                    })
                    .expect("the /events stream opens without a token");
                finished
            })
        })
        .collect();
    let acme_id = acme.submit(&submission).expect("acme submit");
    let zeta_id = zeta.submit(&submission).expect("zeta submit");
    for id in noise.into_iter().chain([acme_id, zeta_id]) {
        acme.wait(id, Duration::from_millis(5), Some(Duration::from_secs(300)))
            .expect("job done");
    }
    for streamer in streamers {
        let finished = streamer.join().expect("streamer thread");
        assert!(finished, "an /events stream ended before its job finished");
    }
    let acme_artifact = acme.artifact(acme_id).expect("acme artifact");
    let zeta_artifact = zeta.artifact(zeta_id).expect("zeta artifact");
    assert_eq!(
        acme_artifact, reference,
        "tenancy must not change artifact bytes"
    );
    assert_eq!(
        zeta_artifact, reference,
        "cross-tenant runs of one spec agree byte for byte"
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
