//! The `/metrics` endpoint contract, proven over real sockets:
//!
//! 1. **Valid exposition** — every line of a live (and a draining)
//!    server parses as Prometheus text: `# HELP`/`# TYPE` headers for
//!    every family, every sample a finite number, no negative counters.
//! 2. **Scrape compatibility** — every series the pre-registry server
//!    exposed still exists under the same name and type, so existing
//!    dashboards and the fleet coordinator's probe keep working.

use gdf::core::{Backend, RunConfig};
use gdf::serve::server::submission_for_suite;
use gdf::serve::{Client, JobServer, ServeConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gdf-obsm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_server(dir: &PathBuf, workers: usize) -> (JobServer, Client) {
    let server = JobServer::start(ServeConfig::new("127.0.0.1:0", dir).with_workers(workers))
        .expect("server starts");
    let client = Client::new(server.local_addr().to_string());
    (server, client)
}

/// Strict line-by-line exposition parse. Returns `family -> type` and
/// panics (with the offending line) on anything malformed: a sample
/// whose family has no headers, a `# TYPE` after samples started for
/// another family interleaved, a non-finite value, a negative counter
/// or summary sample.
fn parse_exposition(text: &str) -> BTreeMap<String, String> {
    let mut families: BTreeMap<String, String> = BTreeMap::new();
    let mut helped: Vec<String> = Vec::new();
    for line in text.lines() {
        assert_eq!(line.trim(), line, "stray whitespace: {line:?}");
        assert!(!line.is_empty(), "blank line in exposition");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("HELP has text");
            assert!(!help.is_empty(), "empty HELP for {name}");
            helped.push(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE has a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "summary"),
                "unknown TYPE {kind} for {name}"
            );
            assert_eq!(
                helped.last().map(String::as_str),
                Some(name),
                "TYPE {name} not immediately after its HELP"
            );
            assert!(
                families
                    .insert(name.to_string(), kind.to_string())
                    .is_none(),
                "family {name} declared twice"
            );
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment form: {line:?}");
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        let value: f64 = value.parse().unwrap_or_else(|e| panic!("{line:?}: {e}"));
        assert!(value.is_finite(), "non-finite sample: {line:?}");
        let name = series.split('{').next().unwrap();
        let family = ["_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                name.strip_suffix(suffix)
                    .filter(|base| families.get(*base).map(String::as_str) == Some("summary"))
            })
            .unwrap_or(name);
        let kind = families
            .get(family)
            .unwrap_or_else(|| panic!("sample {line:?} has no # TYPE header"));
        if kind == "counter" || kind == "summary" {
            assert!(value >= 0.0, "negative {kind} sample: {line:?}");
        }
        if family == "gdf_worker_utilization" {
            assert!((0.0..=1.0).contains(&value), "utilization range: {line:?}");
        }
    }
    families
}

/// Every family the seed server exposed, with its exposed type. The
/// registry migration must keep all of these verbatim — renames or
/// type changes here break real scrape configs.
const SEED_FAMILIES: [(&str, &str); 13] = [
    ("gdf_queue_depth", "gauge"),
    ("gdf_jobs_running", "gauge"),
    ("gdf_jobs_queued", "gauge"),
    ("gdf_workers", "gauge"),
    ("gdf_workers_busy", "gauge"),
    ("gdf_worker_utilization", "gauge"),
    ("gdf_draining", "gauge"),
    ("gdf_store_bytes", "gauge"),
    ("gdf_store_objects", "gauge"),
    ("gdf_jobs_completed_total", "counter"),
    ("gdf_jobs_failed_total", "counter"),
    ("gdf_cache_hits_total", "counter"),
    ("gdf_job_latency_seconds", "summary"),
];

#[test]
fn live_exposition_is_valid_and_keeps_every_seed_series() {
    let dir = temp_dir("live");
    let (server, client) = start_server(&dir, 2);
    let config = RunConfig::new(Backend::NonScan);
    let submission = submission_for_suite("suite:s27", &config);

    // One real run, then the identical submission again — the second is
    // answered from the exact result cache.
    for _ in 0..2 {
        let id = client.submit(&submission).expect("submit");
        client
            .wait(
                id,
                Duration::from_millis(25),
                Some(Duration::from_secs(120)),
            )
            .expect("job finishes");
    }

    let text = client.metrics().expect("scrape");
    let families = parse_exposition(&text);
    for (name, kind) in SEED_FAMILIES {
        assert_eq!(
            families.get(name).map(String::as_str),
            Some(kind),
            "seed series {name} lost or retyped"
        );
    }
    // The seed's summary samples are still present by exact series name.
    for series in [
        "gdf_job_latency_seconds{quantile=\"0.5\"}",
        "gdf_job_latency_seconds{quantile=\"0.99\"}",
        "gdf_job_latency_seconds_count",
    ] {
        assert!(text.lines().any(|l| l.starts_with(series)), "lost {series}");
    }
    // And the new families joined them.
    assert_eq!(
        families.get("gdf_engine_phase_seconds").map(String::as_str),
        Some("summary")
    );
    assert_eq!(
        families.get("gdf_http_requests_total").map(String::as_str),
        Some("counter")
    );
    assert_eq!(
        families.get("gdf_traces_written_total").map(String::as_str),
        Some("counter")
    );

    let sample =
        |name: &str| Client::sample_metric(&text, name).unwrap_or_else(|| panic!("{name}"));
    assert_eq!(sample("gdf_jobs_completed_total"), 2.0);
    assert_eq!(sample("gdf_cache_hits_total"), 1.0);
    assert_eq!(sample("gdf_jobs_failed_total"), 0.0);
    // Only the real run observes latency; the cache hit is instant.
    assert_eq!(sample("gdf_job_latency_seconds_count"), 1.0);
    // Likewise only the real run flows through the job observer and
    // writes a trace document.
    assert_eq!(sample("gdf_traces_written_total"), 1.0);
    // The engine phases actually recorded spans during the real run.
    for phase in JOB_PHASES {
        assert!(
            phase_count(&text, phase) > 0.0,
            "phase {phase} never recorded"
        );
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Engine phases every fresh `s27` non-scan job records: its SEMILET
/// searches (`propagate`, `initialize`) as well as parse, generation,
/// grading and publish.
const JOB_PHASES: [&str; 7] = [
    "parse",
    "generate",
    "propagate",
    "initialize",
    "fill",
    "fsim",
    "publish",
];

/// The `gdf_engine_phase_seconds_count` sample of `phase`.
fn phase_count(text: &str, phase: &str) -> f64 {
    let series = format!("gdf_engine_phase_seconds_count{{phase=\"{phase}\"}}");
    text.lines()
        .find_map(|l| l.strip_prefix(series.as_str()))
        .and_then(|rest| rest.trim().parse::<f64>().ok())
        .unwrap_or_else(|| panic!("no {series} sample"))
}

#[test]
fn each_server_times_only_its_own_jobs() {
    // Two servers in one process; the second starts last, and only the
    // first runs a job.
    let (dir_a, dir_b) = (temp_dir("own-a"), temp_dir("own-b"));
    let (server_a, client_a) = start_server(&dir_a, 1);
    let (server_b, client_b) = start_server(&dir_b, 1);
    let submission = submission_for_suite("suite:s27", &RunConfig::new(Backend::NonScan));
    let id = client_a.submit(&submission).expect("submit");
    client_a
        .wait(
            id,
            Duration::from_millis(25),
            Some(Duration::from_secs(120)),
        )
        .expect("job finishes");

    let text_a = client_a.metrics().expect("scrape a");
    let text_b = client_b.metrics().expect("scrape b");
    for phase in JOB_PHASES {
        assert!(
            phase_count(&text_a, phase) > 0.0,
            "a lost its {phase} spans"
        );
        assert_eq!(phase_count(&text_b, phase), 0.0, "b timed a's {phase}");
    }

    server_a.shutdown();
    server_b.shutdown();
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}

#[test]
fn draining_server_still_exposes_a_valid_exposition() {
    let dir = temp_dir("drain");
    let (server, client) = start_server(&dir, 2);
    let text = client.metrics().expect("scrape before drain");
    assert_eq!(Client::sample_metric(&text, "gdf_draining"), Some(0.0));

    server.drain();
    let text = client.metrics().expect("scrape while draining");
    let families = parse_exposition(&text);
    for (name, kind) in SEED_FAMILIES {
        assert_eq!(
            families.get(name).map(String::as_str),
            Some(kind),
            "draining lost {name}"
        );
    }
    assert_eq!(Client::sample_metric(&text, "gdf_draining"), Some(1.0));

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
