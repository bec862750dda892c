//! `bench_serve`: the multi-tenant serving load harness.
//!
//! Hammers an in-process [`gdf_serve::JobServer`] — running with a
//! two-tenant registry (`acme` at weight 2, `zeta` at weight 1) — with
//! many concurrent authenticated clients submitting distinct-seed
//! stuck-at `s27` jobs over real HTTP, plus a few `/events` streamers
//! riding along. Records end-to-end **jobs/sec**, **p50/p99 submit
//! latency**, and the **weight-normalized per-tenant fairness ratio**
//! (how close the contended completion shares track the configured
//! 2:1 weights; 1.0 is perfect) into `BENCH_fsim.json` as a
//! `"serve_load"` record.
//!
//! ```text
//! cargo run --release -p gdf-bench --bin bench_serve            # full load
//! cargo run --release -p gdf-bench --bin bench_serve -- --smoke # CI smoke
//! cargo run --release -p gdf-bench --bin bench_serve -- --out path.json
//! ```
//!
//! `--smoke` additionally *asserts* the fairness ratio lands within
//! `[1/3, 3]`, so CI fails if the weighted scheduler stops doing its
//! job under contention.

use gdf_bench::rounded;
use gdf_core::engine::{Backend, RunConfig};
use gdf_core::json::Json;
use gdf_serve::server::submission_for_suite;
use gdf_serve::{Client, JobId, JobServer, ServeConfig};
use gdf_tenant::{TenantRegistry, TenantSpec};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Bearer tokens for the two bench tenants.
const TOKENS: [(&str, &str); 2] = [("acme", "bench-token-acme"), ("zeta", "bench-token-zeta")];

/// The shape of one load run.
struct LoadPlan {
    workers: usize,
    /// Submitting client threads per tenant, `(acme, zeta)` — 2:1 so
    /// the offered load matches the 2:1 scheduling weights.
    clients: (usize, usize),
    /// Jobs each client submits.
    jobs_per_client: usize,
    /// `/events` streamer threads riding along.
    streamers: usize,
}

/// What the run measured.
struct LoadFigures {
    jobs: usize,
    jobs_per_sec: f64,
    submit_p50_ms: f64,
    submit_p99_ms: f64,
    /// Per-tenant completions at the contended midpoint snapshot.
    acme_done: usize,
    zeta_done: usize,
    /// `(acme_done / weight) / (zeta_done / weight)`; 1.0 = the shares
    /// track the configured weights exactly.
    fairness_ratio: f64,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = ((sorted_ms.len() as f64 * p).ceil() as usize).clamp(1, sorted_ms.len());
    sorted_ms[rank - 1]
}

fn run_load(plan: &LoadPlan) -> LoadFigures {
    let registry = TenantRegistry::new(vec![
        TenantSpec::new("acme", TOKENS[0].1).with_weight(2),
        TenantSpec::new("zeta", TOKENS[1].1).with_weight(1),
    ])
    .expect("bench registry");
    let total_jobs = (plan.clients.0 + plan.clients.1) * plan.jobs_per_client;

    let dir = std::env::temp_dir().join(format!("gdf-bench-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = JobServer::start(
        ServeConfig::new("127.0.0.1:0", &dir)
            .with_workers(plan.workers)
            .with_queue_capacity(total_jobs.max(1))
            .with_tenants(registry),
    )
    .expect("bench load server starts");
    let addr = server.local_addr().to_string();

    // Every job gets a distinct seed so none is a cache hit: the bench
    // measures scheduling and real work, not the result cache.
    let latencies: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::with_capacity(total_jobs)));
    let ids: Arc<Mutex<Vec<(usize, JobId)>>> = Arc::new(Mutex::new(Vec::with_capacity(total_jobs)));

    let started = Instant::now();
    let mut handles = Vec::new();
    let mut client_index = 0usize;
    for (tenant, count) in [(0usize, plan.clients.0), (1usize, plan.clients.1)] {
        for _ in 0..count {
            let addr = addr.clone();
            let latencies = Arc::clone(&latencies);
            let ids = Arc::clone(&ids);
            let jobs_per_client = plan.jobs_per_client;
            let seed_base = 0x5E_4000 + (client_index * jobs_per_client) as u64;
            client_index += 1;
            let handle = std::thread::Builder::new()
                .name(format!("bench-client-{client_index}"))
                // Hundreds of submitters in full mode: keep stacks small.
                .stack_size(256 * 1024)
                .spawn(move || {
                    let client = Client::new(addr)
                        .with_token(TOKENS[tenant].1)
                        .with_timeout(Duration::from_secs(30));
                    for j in 0..jobs_per_client {
                        let mut config = RunConfig::new(Backend::StuckAt);
                        config.seed = seed_base + j as u64;
                        let submission = submission_for_suite("suite:s27", &config);
                        let at = Instant::now();
                        let id = client.submit(&submission).expect("bench submit");
                        let ms = at.elapsed().as_secs_f64() * 1e3;
                        latencies.lock().unwrap().push(ms);
                        ids.lock().unwrap().push((tenant, id));
                    }
                })
                .expect("spawn bench client");
            handles.push(handle);
        }
    }

    // A few streamers follow `/events` of early jobs while the load is
    // in flight, so the chunked-stream path is exercised under
    // contention too (they are observers, not part of the timing).
    let mut streamer_handles = Vec::new();
    for s in 0..plan.streamers {
        let addr = addr.clone();
        let ids = Arc::clone(&ids);
        let handle = std::thread::Builder::new()
            .name(format!("bench-streamer-{s}"))
            .stack_size(256 * 1024)
            .spawn(move || {
                let client = Client::new(addr).with_timeout(Duration::from_secs(30));
                // Wait for a job to follow.
                let id = loop {
                    if let Some(&(_, id)) = ids.lock().unwrap().get(s) {
                        break id;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                };
                let mut seen = 0usize;
                let _ = client.events(id, |event| {
                    seen += 1;
                    // Stop at the terminal event (or a runaway stream).
                    !matches!(event, gdf_core::session::ProgressEvent::Finished { .. })
                        && seen < 10_000
                });
            })
            .expect("spawn bench streamer");
        streamer_handles.push(handle);
    }

    for handle in handles {
        handle.join().expect("bench client thread");
    }
    // Streamer threads still share the Arc; clone the finished list.
    let ids: Vec<(usize, JobId)> = ids.lock().unwrap().clone();
    assert_eq!(ids.len(), total_jobs, "every submit landed");

    // Poll completions. The fairness snapshot is taken at the midpoint
    // — while both tenants still have queued work, i.e. under real
    // contention — then the run continues to full drain for jobs/sec.
    let poll_client = Client::new(addr.clone()).with_timeout(Duration::from_secs(30));
    let mut midpoint: Option<(usize, usize)> = None;
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        let mut done = [0usize; 2];
        for &(tenant, id) in &ids {
            let status = poll_client.status(id).expect("bench status");
            let state = status.get("state").and_then(Json::as_str).unwrap_or("");
            assert_ne!(state, "failed", "bench job failed");
            if state == "done" {
                done[tenant] += 1;
            }
        }
        let total_done = done[0] + done[1];
        if midpoint.is_none() && total_done * 2 >= total_jobs {
            midpoint = Some((done[0], done[1]));
        }
        if total_done == total_jobs {
            break;
        }
        assert!(Instant::now() < deadline, "bench load run timed out");
        std::thread::sleep(Duration::from_millis(10));
    }
    let elapsed = started.elapsed().as_secs_f64();
    for handle in streamer_handles {
        handle.join().expect("bench streamer thread");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let (acme_done, zeta_done) = midpoint.expect("midpoint snapshot taken");
    // Normalize by the configured 2:1 weights; guard the degenerate
    // zero so a wildly unfair run yields a huge ratio, not a panic.
    let fairness_ratio = (acme_done as f64 / 2.0) / (zeta_done as f64).max(0.5);
    let mut sorted: Vec<f64> = latencies.lock().unwrap().clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    LoadFigures {
        jobs: total_jobs,
        jobs_per_sec: total_jobs as f64 / elapsed,
        submit_p50_ms: percentile(&sorted, 0.50),
        submit_p99_ms: percentile(&sorted, 0.99),
        acme_done,
        zeta_done,
        fairness_ratio,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_fsim.json".to_string());

    let plan = if smoke {
        LoadPlan {
            workers: 2,
            clients: (16, 8),
            jobs_per_client: 2,
            streamers: 2,
        }
    } else {
        LoadPlan {
            workers: 4,
            clients: (48, 24),
            jobs_per_client: 4,
            streamers: 4,
        }
    };
    let figures = run_load(&plan);
    println!(
        "serve_load {} jobs / {} workers / {}+{} clients  {:>8.1} jobs/s  \
         submit p50 {:.2} ms  p99 {:.2} ms  fairness {}:{} (ratio {:.2})",
        figures.jobs,
        plan.workers,
        plan.clients.0,
        plan.clients.1,
        figures.jobs_per_sec,
        figures.submit_p50_ms,
        figures.submit_p99_ms,
        figures.acme_done,
        figures.zeta_done,
        figures.fairness_ratio,
    );
    if smoke {
        assert!(
            (1.0 / 3.0..=3.0).contains(&figures.fairness_ratio),
            "weighted fair scheduling drifted: normalized acme:zeta ratio {:.2} \
             (midpoint completions {}:{}) outside [1/3, 3]",
            figures.fairness_ratio,
            figures.acme_done,
            figures.zeta_done,
        );
        println!(
            "fairness bound holds: {:.2} within [1/3, 3]",
            figures.fairness_ratio
        );
    }

    let text = |s: &str| Json::Str(s.into());
    let record = Json::Obj(vec![
        ("bench".into(), text("serve_load")),
        (
            "unix_time".into(),
            Json::Num(gdf_bench::unix_time_now() as f64),
        ),
        ("mode".into(), text(if smoke { "smoke" } else { "full" })),
        ("circuit".into(), text("s27")),
        ("backend".into(), text("stuck-at")),
        ("workers".into(), Json::Num(plan.workers as f64)),
        (
            "clients".into(),
            Json::Obj(vec![
                ("acme".into(), Json::Num(plan.clients.0 as f64)),
                ("zeta".into(), Json::Num(plan.clients.1 as f64)),
            ]),
        ),
        ("jobs".into(), Json::Num(figures.jobs as f64)),
        ("jobs_per_sec".into(), rounded(figures.jobs_per_sec, 1)),
        ("submit_p50_ms".into(), rounded(figures.submit_p50_ms, 2)),
        ("submit_p99_ms".into(), rounded(figures.submit_p99_ms, 2)),
        (
            "fairness".into(),
            Json::Obj(vec![
                ("weights".into(), text("2:1")),
                ("acme_done".into(), Json::Num(figures.acme_done as f64)),
                ("zeta_done".into(), Json::Num(figures.zeta_done as f64)),
                (
                    "normalized_ratio".into(),
                    rounded(figures.fairness_ratio, 2),
                ),
            ]),
        ),
    ]);
    gdf_bench::append_record(&out_path, &record).expect("write bench record");
    println!("appended record to {out_path}");
}
