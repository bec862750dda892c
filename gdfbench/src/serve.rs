//! `serve_mixed`: a closed loop of clients (at most `nproc`, two by
//! default) against an in-process `JobServer` with `nproc` workers and a
//! two-tenant registry, one tenant per client. Each client submits
//! non-scan `s27`/`s42` jobs with distinct seeds, follows the job's
//! event stream until it closes (the server closes it after persisting
//! the terminal `done` state), and fetches the canonical artifact. One
//! submission in four repeats an earlier one of the same client, which
//! the exact result cache answers.
//!
//! Traced, it splits each fresh job into the POST round trip, the queue
//! wait (reply to `Started`), the run (`Started` to `Finished`), the
//! publish step (`Finished` to the stream closing on `done`) and the
//! artifact GET, and times the same jobs run in-process.

use crate::{detail, digest, median, percentile, splitmix, Args, Calibration, EndToEnd, Report};
use gdf::core::artifact::{CircuitSource, RunArtifact};
use gdf::core::session::ProgressEvent;
use gdf::core::{Atpg, Backend, RunConfig};
use gdf::netlist::suite;
use gdf::serve::server::submission_for_suite;
use gdf::serve::{Client, JobServer, ServeConfig, ServeError};
use gdf::tenant::{TenantRegistry, TenantSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

const CIRCUITS: [&str; 2] = ["s27", "s42"];
/// Retries of a refused (`429`/`503`) or premature (`409`) request.
const MAX_RETRIES: u32 = 8;
/// One fresh job in `CHECK_EVERY` is re-run locally and compared.
const CHECK_EVERY: usize = 8;
/// Every `REPEAT_EVERY`-th submission of a client repeats an earlier one.
const REPEAT_EVERY: usize = 4;
/// Jobs per client and second of `--seconds`: on a 2-vCPU Xeon two
/// clients complete ~80 jobs/s, so a run takes about `--seconds`.
const JOBS_PER_CLIENT_SECOND: f64 = 20.0;
/// Jobs per client in a layer probe of another workload's traced run.
const PROBE_JOBS: usize = 12;
/// Server start-ups whose median is `setup_s`.
const SETUP_REPS: usize = 9;
/// Run seed of the set-up's warm-up job.
const WARM_UP_SEED: u64 = 0x5E70_0000;

/// One completed job as a client saw it.
struct Sample {
    circuit: &'static str,
    seed: u64,
    repeat: bool,
    submit_ms: f64,
    /// Queue wait, run and publish stages (fresh jobs whose `Started`
    /// and `Finished` events arrived).
    stages: Option<[f64; 3]>,
    fetch_ms: f64,
    total_ms: f64,
    digest: u64,
    /// Artifact text, kept only for the jobs re-run locally.
    text: Option<String>,
}

/// Refusals and retries one client met.
#[derive(Default)]
struct Counters {
    retries: u64,
    rejected_429: u64,
    rejected_503: u64,
    failed: u64,
}

impl Counters {
    /// Runs `f`, retrying refused (`429`/`503`) and premature (`409`)
    /// answers with the client's backoff.
    fn retry<T>(&mut self, mut f: impl FnMut() -> Result<T, ServeError>) -> Result<T, ServeError> {
        let mut attempt = 0;
        loop {
            match f() {
                Err(ServeError::Api {
                    status,
                    retry_after,
                    ..
                }) if matches!(status, 409 | 429 | 503) && attempt < MAX_RETRIES => {
                    self.retries += 1;
                    let wait = match status {
                        409 => Duration::from_millis(2),
                        _ => retry_after
                            .map(|s| Duration::from_secs(u64::from(s.min(5))))
                            .unwrap_or_else(|| Client::retry_after(attempt)),
                    };
                    self.rejected_429 += u64::from(status == 429);
                    self.rejected_503 += u64::from(status == 503);
                    std::thread::sleep(wait);
                    attempt += 1;
                }
                other => return other,
            }
        }
    }
}

fn registry() -> TenantRegistry {
    TenantRegistry::new(vec![
        TenantSpec::new("tenant-a", "bench-token-a"),
        TenantSpec::new("tenant-b", "bench-token-b"),
    ])
    .expect("two distinct tenants form a valid registry")
}

const TOKENS: [&str; 2] = ["bench-token-a", "bench-token-b"];

fn start_server(dir: &Path, workers: usize) -> Result<JobServer, String> {
    JobServer::start(
        ServeConfig::new("127.0.0.1:0", dir)
            .with_workers(workers)
            .with_tenants(registry()),
    )
    .map_err(|e| format!("server start: {e}"))
}

/// One closed-loop client submitting `jobs` jobs: submit, follow events
/// to `done`, fetch. Submissions alternate `s27`/`s42`, and every fourth
/// repeats a seeded pick among the client's earlier ones, so every seed
/// gives the same mix and only the run seeds differ.
fn client_loop(addr: &str, index: usize, base_seed: u64, jobs: usize) -> (Vec<Sample>, Counters) {
    let client = Client::new(addr)
        .with_token(TOKENS[index % TOKENS.len()])
        .with_retries(0);
    let mut rng = StdRng::seed_from_u64(splitmix(base_seed ^ index as u64));
    let mut counters = Counters::default();
    let mut samples: Vec<Sample> = Vec::new();
    let mut fresh: Vec<(&'static str, u64)> = Vec::new();
    for n in 0..jobs {
        let repeat = n % REPEAT_EVERY == REPEAT_EVERY - 1;
        let (circuit, seed) = if repeat {
            fresh[rng.gen_range(0..fresh.len())]
        } else {
            let job = (
                CIRCUITS[fresh.len() % CIRCUITS.len()],
                splitmix(base_seed ^ ((index as u64) << 40 | fresh.len() as u64)),
            );
            fresh.push(job);
            job
        };
        let config = RunConfig::new(Backend::NonScan).with_seed(seed);
        let body = submission_for_suite(&format!("suite:{circuit}"), &config);
        let t0 = Instant::now();
        let Ok(id) = counters.retry(|| client.submit(&body)) else {
            counters.failed += 1;
            continue;
        };
        let t1 = Instant::now();
        let (mut started, mut finished) = (None, None);
        let followed = client.events(id, |event| {
            match event {
                ProgressEvent::Started { .. } => started = Some(Instant::now()),
                ProgressEvent::Finished { .. } => finished = Some(Instant::now()),
                _ => {}
            }
            true
        });
        let t2 = Instant::now();
        let fetched = counters.retry(|| client.artifact(id));
        let t3 = Instant::now();
        let (Ok(()), Ok(text)) = (followed, fetched) else {
            counters.failed += 1;
            continue;
        };
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        let stages = match (started, finished) {
            (Some(s), Some(f)) => Some([ms(t1, s), ms(s, f), ms(f, t2)]),
            _ => None,
        };
        let keep = !repeat && (fresh.len() - 1).is_multiple_of(CHECK_EVERY);
        samples.push(Sample {
            circuit,
            seed,
            repeat,
            submit_ms: ms(t0, t1),
            stages,
            fetch_ms: ms(t2, t3),
            total_ms: ms(t0, t3),
            digest: digest(text.as_bytes()),
            text: keep.then_some(text),
        });
    }
    (samples, counters)
}

/// Everything one driven load produced.
struct Load {
    samples: Vec<Sample>,
    counters: Counters,
    wall_s: f64,
    cache_hits: f64,
}

fn cache_hits(addr: &str) -> f64 {
    Client::new(addr)
        .metric("gdf_cache_hits_total")
        .ok()
        .flatten()
        .unwrap_or(0.0)
}

fn drive(addr: &str, clients: usize, base_seed: u64, jobs: usize) -> Load {
    let hits_before = cache_hits(addr);
    let start = Instant::now();
    let results: Vec<(Vec<Sample>, Counters)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|i| s.spawn(move || client_loop(addr, i, base_seed, jobs)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut samples = Vec::new();
    let mut counters = Counters::default();
    for (s, c) in results {
        samples.extend(s);
        counters.retries += c.retries;
        counters.rejected_429 += c.rejected_429;
        counters.rejected_503 += c.rejected_503;
        counters.failed += c.failed;
    }
    Load {
        samples,
        counters,
        wall_s,
        cache_hits: cache_hits(addr) - hits_before,
    }
}

/// Correctness checks: sampled fresh artifacts equal a local run's
/// canonical bytes, and every repeat equals its first fetch. Returns the
/// local run times in milliseconds.
fn check(load: &Load, report: &mut Report) -> Vec<f64> {
    let mut first: BTreeMap<(&str, u64), u64> = BTreeMap::new();
    for s in load.samples.iter().filter(|s| !s.repeat) {
        first.insert((s.circuit, s.seed), s.digest);
    }
    let mismatched = load
        .samples
        .iter()
        .filter(|s| s.repeat && first.get(&(s.circuit, s.seed)) != Some(&s.digest))
        .count();
    report.tally.check(mismatched == 0, || {
        format!("{mismatched} cache hits differ from the first fetch")
    });
    let circuits: BTreeMap<&str, _> = CIRCUITS
        .iter()
        .map(|&n| (n, suite::by_name(n).expect("suite circuit")))
        .collect();
    let mut local_ms = Vec::new();
    for s in &load.samples {
        let Some(text) = &s.text else { continue };
        let c = &circuits[s.circuit];
        let config = RunConfig::new(Backend::NonScan).with_seed(s.seed);
        let t = Instant::now();
        let run = Atpg::builder(c).seed(s.seed).build().run();
        local_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let local =
            RunArtifact::from_run(c, &run, config, Some(CircuitSource::suite(c, s.circuit)))
                .canonical_encode();
        report.tally.check(&local == text, || {
            format!(
                "{} seed {:#x}: served artifact differs from a local run",
                s.circuit, s.seed
            )
        });
    }
    local_ms
}

fn count_ops(load: &Load, report: &mut Report) {
    for _ in &load.samples {
        report.tally.op(true, String::new);
    }
    for _ in 0..load.counters.failed {
        report
            .tally
            .op(false, || "job submit, follow or fetch failed".into());
    }
}

/// Runs one warm-up job (`s27`, a seed no workload uses) to completion
/// on a freshly started server: the first job's lazy initialization is
/// part of every server's set-up.
pub fn warm_up(addr: &str, token: Option<&str>) -> Result<(), String> {
    let client = Client::new(addr).with_token(token.unwrap_or_default());
    let config = RunConfig::new(Backend::NonScan).with_seed(WARM_UP_SEED);
    let id = client
        .submit(&submission_for_suite("suite:s27", &config))
        .map_err(|e| format!("warm-up submit: {e}"))?;
    client
        .wait(id, Duration::from_millis(1), Some(Duration::from_secs(60)))
        .and_then(|_| client.artifact(id))
        .map(drop)
        .map_err(|e| format!("warm-up job: {e}"))
}

/// Server start-ups with a warm-up job, each in a fresh directory,
/// timed and scaled to the reference host speed; the last server keeps
/// running. Returns the median set-up seconds and that server.
fn set_up(args: &Args, reps: usize) -> Result<(f64, JobServer), String> {
    let mut cal = Calibration::default();
    let mut times = Vec::new();
    let mut server = None;
    for rep in 0..reps {
        let dir = args.work.join(format!("server-{rep}"));
        let (started, dt) = cal.time(|| -> Result<JobServer, String> {
            let s = start_server(&dir, args.nproc())?;
            warm_up(&s.local_addr().to_string(), Some(TOKENS[0]))?;
            Ok(s)
        });
        let s = started?;
        times.push(dt);
        if let Some(old) = server.replace(s) {
            old.shutdown();
        }
    }
    Ok((median(&times), server.expect("at least one start-up")))
}

fn clients(args: &Args) -> usize {
    args.nproc().clamp(1, 2)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (setup_s, server) = set_up(args, SETUP_REPS)?;
    let addr = server.local_addr().to_string();
    let base = args.mixed_seed(0x5E7E);
    let jobs = |share: f64| (share * JOBS_PER_CLIENT_SECOND).ceil() as usize;
    if args.trace {
        // The first half is the untraced baseline; the traced half then
        // keeps every stage sample (client-side timestamps only).
        let plain_base = args.mixed_seed(0x5E7F);
        let plain = drive(&addr, clients(args), plain_base, jobs(args.seconds / 2.0));
        let traced = drive(&addr, clients(args), base, jobs(args.seconds / 2.0));
        server.shutdown();
        for load in [&plain, &traced] {
            count_ops(load, &mut report);
        }
        let local_ms = check(&traced, &mut report);
        trace_metrics(&traced, &local_ms, &mut report);
        let (netlist, _) = crate::table3::set_up(9, || {
            CIRCUITS
                .iter()
                .map(|n| suite::by_name(n).expect("suite circuit"))
                .collect()
        });
        netlist.report(&mut report);
        let rate = |l: &Load| l.samples.len() as f64 / l.wall_s;
        report.metric(
            "trace_overhead_pct",
            100.0 * (rate(&plain) / rate(&traced) - 1.0),
            "%",
        );
        return Ok(report);
    }
    let load = drive(&addr, clients(args), base, jobs(args.seconds));
    server.shutdown();
    count_ops(&load, &mut report);
    check(&load, &mut report);

    let fresh: Vec<&Sample> = load.samples.iter().filter(|s| !s.repeat).collect();
    let repeats: Vec<f64> = load
        .samples
        .iter()
        .filter(|s| s.repeat)
        .map(|s| s.total_ms)
        .collect();
    report.tally.check(fresh.len() >= 100, || {
        format!("only {} fresh jobs; at least 100 are needed", fresh.len())
    });
    let jobs_per_s = load.samples.len() as f64 / load.wall_s;
    let fresh_ms: Vec<f64> = fresh.iter().map(|s| s.total_ms).collect();
    detail(&format!(
        "serve_mixed {} clients, {} workers: serve_jobs_per_s {jobs_per_s:.2} 1/s over {} jobs ({} fresh), \
         serve_latency_p50_ms {:.3}, serve_latency_p90_ms {:.3}, cache_hit_latency_p50_ms {:.3} over {} repeats",
        clients(args),
        args.nproc(),
        load.samples.len(),
        fresh.len(),
        percentile(&fresh_ms, 50.0),
        percentile(&fresh_ms, 90.0),
        median(&repeats),
        repeats.len()
    ));
    report.end_to_end(EndToEnd {
        setup_s,
        work_per_s: jobs_per_s,
        latencies_ms: fresh_ms,
    });
    Ok(report)
}

fn trace_metrics(load: &Load, local_ms: &[f64], report: &mut Report) {
    let fresh: Vec<&Sample> = load.samples.iter().filter(|s| !s.repeat).collect();
    let stage = |k: usize| -> f64 {
        let v: Vec<f64> = fresh
            .iter()
            .filter_map(|s| s.stages.map(|st| st[k]))
            .collect();
        median(&v)
    };
    let col =
        |f: fn(&Sample) -> f64| -> f64 { median(&fresh.iter().map(|s| f(s)).collect::<Vec<_>>()) };
    let repeats: Vec<f64> = load
        .samples
        .iter()
        .filter(|s| s.repeat)
        .map(|s| s.total_ms)
        .collect();
    report.metric("serve.submit_ms", col(|s| s.submit_ms), "ms");
    report.metric("serve.queue_wait_ms", stage(0), "ms");
    report.metric("serve.run_ms", stage(1), "ms");
    report.metric("serve.publish_ms", stage(2), "ms");
    report.metric("serve.fetch_ms", col(|s| s.fetch_ms), "ms");
    report.metric("core.local_run_ms", median(local_ms), "ms");
    report.metric("cache_hit_latency_p50_ms", median(&repeats), "ms");
    report.metric("store.cache_hits", load.cache_hits, "count");
    report.metric(
        "store.hit_ratio",
        load.cache_hits / repeats.len().max(1) as f64,
        "ratio",
    );
    report.metric(
        "tenant.rejected",
        load.counters.rejected_429 as f64,
        "count",
    );
    report.metric("serve.rejected", load.counters.rejected_503 as f64, "count");
    report.metric("client.retries", load.counters.retries as f64, "count");
}

/// The serving layers on a short load, for another workload's traced run
/// (that workload never reaches them).
pub fn probe(args: &Args, report: &mut Report) -> Result<(), String> {
    let server = start_server(&args.work.join("serve-probe"), args.nproc())?;
    let addr = server.local_addr().to_string();
    let load = drive(&addr, 1, args.mixed_seed(0x5E7E), PROBE_JOBS);
    server.shutdown();
    count_ops(&load, report);
    let local_ms = check(&load, report);
    trace_metrics(&load, &local_ms, report);
    Ok(())
}
