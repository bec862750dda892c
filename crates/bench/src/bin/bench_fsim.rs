//! `BENCH_fsim.json` emitter: the fault-simulation performance trajectory.
//!
//! Measures the fault-grading hot path — classify the full delay-fault
//! universe against random two-pattern tests — with the scalar reference
//! simulator and the packed (64-fault-per-word) one, plus the raw
//! good-machine gate-evaluation rate, on three circuits: `s27`, `s208` and
//! a generated 1000-gate netlist. Since the serve subsystem landed, each
//! record also carries an **end-to-end jobs/sec** figure: N stuck-at s27
//! jobs submitted over real HTTP to an in-process `gdf_serve::JobServer`
//! and driven to completion by its worker pool. Appends one JSON record
//! per invocation so the perf curve is tracked PR over PR.
//!
//! With `--fleet`, the record additionally carries the **distributed
//! campaign throughput**: a 2-node in-process fleet (two real
//! `gdf_serve::JobServer`s behind a `gdf_fleet::Coordinator`) runs a
//! sharded stuck-at campaign end to end, recording cluster work-units/sec
//! and faults/sec/node — the orchestration overhead trajectory.
//!
//! ```text
//! cargo run --release -p gdf-bench --bin bench_fsim            # full run
//! cargo run --release -p gdf-bench --bin bench_fsim -- --smoke # CI smoke
//! cargo run --release -p gdf-bench --bin bench_fsim -- --fleet # + fleet bench
//! cargo run --release -p gdf-bench --bin bench_fsim -- --chaos # + chaos campaign
//! cargo run --release -p gdf-bench --bin bench_fsim -- --cache # + result-cache bench
//! cargo run --release -p gdf-bench --bin bench_fsim -- --obs   # + tracing-overhead bench
//! cargo run --release -p gdf-bench --bin bench_fsim -- --out path.json
//! ```

use gdf_algebra::Logic3;
use gdf_bench::rounded;
use gdf_core::json::Json;
use gdf_netlist::generator::{generate, CircuitProfile};
use gdf_netlist::{suite, Circuit, FaultUniverse};
use gdf_sim::{
    detected_delay_faults, detected_delay_faults_packed, two_frame_values, GoodSimulator,
    SimScratch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

struct Row {
    name: String,
    gates: usize,
    faults: usize,
    patterns: usize,
    scalar_faults_per_sec: f64,
    packed_faults_per_sec: f64,
    speedup: f64,
    ns_per_gate_eval: f64,
}

fn grade(circuit: &Circuit, patterns: usize, packed: bool) -> (usize, f64) {
    let faults = FaultUniverse::default().delay_faults(circuit);
    let mut rng = StdRng::seed_from_u64(0x1995_0308);
    let mut scratch = SimScratch::default();
    let mut hits = 0usize;
    let start = Instant::now();
    for _ in 0..patterns {
        let v1: Vec<bool> = (0..circuit.num_inputs()).map(|_| rng.gen()).collect();
        let v2: Vec<bool> = (0..circuit.num_inputs()).map(|_| rng.gen()).collect();
        let st: Vec<bool> = (0..circuit.num_dffs()).map(|_| rng.gen()).collect();
        let w = two_frame_values(circuit, &v1, &v2, &st);
        let detected = if packed {
            detected_delay_faults_packed(circuit, &w, &faults, &[], &[], &mut scratch)
        } else {
            detected_delay_faults(circuit, &w, &faults, &[], &[])
        };
        hits += detected.len();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let classified = faults.len() * patterns;
    (hits, classified as f64 / elapsed)
}

fn gate_eval_rate(circuit: &Circuit, frames: usize) -> f64 {
    let sim = GoodSimulator::new(circuit);
    let mut rng = StdRng::seed_from_u64(7);
    let pi: Vec<Logic3> = (0..circuit.num_inputs())
        .map(|_| Logic3::from_bool(rng.gen()))
        .collect();
    let st: Vec<Logic3> = (0..circuit.num_dffs())
        .map(|_| Logic3::from_bool(rng.gen()))
        .collect();
    let mut values = Vec::new();
    let start = Instant::now();
    for _ in 0..frames {
        sim.eval_comb_into(&pi, &st, &mut values);
        std::hint::black_box(&values);
    }
    let elapsed = start.elapsed().as_secs_f64();
    elapsed * 1e9 / (frames * circuit.num_gates().max(1)) as f64
}

fn bench_circuit(circuit: &Circuit, patterns: usize, eval_frames: usize) -> Row {
    let faults = FaultUniverse::default().delay_faults(circuit);
    let (scalar_hits, scalar_rate) = grade(circuit, patterns, false);
    let (packed_hits, packed_rate) = grade(circuit, patterns, true);
    assert_eq!(
        scalar_hits,
        packed_hits,
        "packed and scalar grading disagree on {}",
        circuit.name()
    );
    Row {
        name: circuit.name().to_string(),
        gates: circuit.num_gates(),
        faults: faults.len(),
        patterns,
        scalar_faults_per_sec: scalar_rate,
        packed_faults_per_sec: packed_rate,
        speedup: packed_rate / scalar_rate,
        ns_per_gate_eval: gate_eval_rate(circuit, eval_frames),
    }
}

/// End-to-end serving throughput: `jobs` identical stuck-at `s27`
/// submissions pushed over HTTP into a fresh in-process server with
/// `workers` workers, timed from first submit to last completion.
fn serve_jobs_per_sec(jobs: usize, workers: usize) -> f64 {
    use gdf_serve::server::submission_for_suite;
    use gdf_serve::{Client, JobServer, ServeConfig};

    let dir = std::env::temp_dir().join(format!("gdf-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = JobServer::start(
        ServeConfig::new("127.0.0.1:0", &dir)
            .with_workers(workers)
            .with_queue_capacity(jobs.max(1)),
    )
    .expect("bench server starts");
    let client = Client::new(server.local_addr().to_string());
    let config = gdf_core::engine::RunConfig::new(gdf_core::engine::Backend::StuckAt);
    let submission = submission_for_suite("suite:s27", &config);

    let start = Instant::now();
    let ids: Vec<_> = (0..jobs)
        .map(|_| client.submit(&submission).expect("submit"))
        .collect();
    for id in ids {
        client
            .wait(
                id,
                std::time::Duration::from_millis(5),
                Some(std::time::Duration::from_secs(300)),
            )
            .expect("job completes");
    }
    let elapsed = start.elapsed().as_secs_f64();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    jobs as f64 / elapsed
}

/// What the `--fleet` bench measured.
struct FleetFigures {
    nodes: usize,
    workers: usize,
    units: usize,
    cluster_units_per_sec: f64,
    faults_per_sec_per_node: f64,
}

/// Distributed campaign throughput: a stuck-at campaign over `s27` +
/// `s42`, split `units_per_circuit` ways per circuit, driven across
/// `nodes` in-process servers by a real coordinator (HTTP submissions,
/// shard harvesting, deterministic merge), timed end to end.
fn fleet_throughput(units_per_circuit: usize, nodes: usize, workers: usize) -> FleetFigures {
    use gdf_core::artifact::CircuitSource;
    use gdf_core::engine::{Backend, RunConfig};
    use gdf_fleet::{Coordinator, FleetPlan};
    use gdf_serve::{JobServer, ServeConfig};

    let base = std::env::temp_dir().join(format!("gdf-bench-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let servers: Vec<JobServer> = (0..nodes)
        .map(|i| {
            JobServer::start(
                ServeConfig::new("127.0.0.1:0", base.join(format!("node-{i}")))
                    .with_workers(workers),
            )
            .expect("bench fleet node starts")
        })
        .collect();
    let addrs = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let config = RunConfig::new(Backend::StuckAt);
    let sources = ["s27", "s42"]
        .iter()
        .map(|name| CircuitSource::suite(&suite::by_name(name).expect("suite"), name))
        .collect();
    let plan = FleetPlan::new("bench", addrs, config, sources, units_per_circuit)
        .expect("bench fleet plan");
    let units = plan.units.len();

    let start = Instant::now();
    let report = Coordinator::create(base.join("coord"), plan)
        .expect("bench coordinator")
        .with_poll(std::time::Duration::from_millis(10))
        .run()
        .expect("bench fleet converges");
    let elapsed = start.elapsed().as_secs_f64();

    for server in servers {
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&base);
    let faults: usize = report.nodes.iter().map(|n| n.faults).sum();
    FleetFigures {
        nodes,
        workers,
        units,
        cluster_units_per_sec: units as f64 / elapsed,
        faults_per_sec_per_node: faults as f64 / elapsed / nodes.max(1) as f64,
    }
}

/// What the `--chaos` bench measured.
struct ChaosFigures {
    nodes: usize,
    units: usize,
    faults_injected: usize,
    recoveries: usize,
    wall_secs: f64,
}

/// The fleet campaign again, but under seeded fault injection: a chaos
/// proxy on every node link plus disk chaos on the coordinator's own
/// documents. Reports how many faults were injected, how many recovery
/// actions the stack took (quarantines, requeues, steals, warnings),
/// and the wall time the chaos cost.
fn chaos_campaign(units_per_circuit: usize, nodes: usize, workers: usize) -> ChaosFigures {
    use gdf_chaos::{ChaosDisk, ChaosGuard, ChaosProxy, ChaosSchedule};
    use gdf_core::artifact::CircuitSource;
    use gdf_core::engine::{Backend, RunConfig};
    use gdf_fleet::{Coordinator, FleetPlan};
    use gdf_serve::{JobServer, ServeConfig};
    use std::sync::Arc;

    let base = std::env::temp_dir().join(format!("gdf-bench-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let servers: Vec<JobServer> = (0..nodes)
        .map(|i| {
            JobServer::start(
                ServeConfig::new("127.0.0.1:0", base.join(format!("node-{i}")))
                    .with_workers(workers),
            )
            .expect("bench chaos node starts")
        })
        .collect();
    let net: Vec<Arc<ChaosSchedule>> = (0..nodes)
        .map(|i| Arc::new(ChaosSchedule::new(0xBE7C + i as u64, 0.3)))
        .collect();
    let mut proxies: Vec<ChaosProxy> = servers
        .iter()
        .zip(&net)
        .map(|(server, schedule)| {
            ChaosProxy::start(
                server.local_addr(),
                Arc::clone(schedule),
                std::time::Duration::from_millis(75),
            )
            .expect("bench chaos proxy starts")
        })
        .collect();
    let coord_dir = base.join("coord");
    let addrs = proxies.iter().map(|p| p.local_addr().to_string()).collect();
    let config = RunConfig::new(Backend::StuckAt);
    let sources = ["s27", "s42"]
        .iter()
        .map(|name| CircuitSource::suite(&suite::by_name(name).expect("suite"), name))
        .collect();
    let plan = FleetPlan::new("bench-chaos", addrs, config, sources, units_per_circuit)
        .expect("bench chaos plan");
    let units = plan.units.len();

    let mut coordinator = Coordinator::create(&coord_dir, plan)
        .expect("bench chaos coordinator")
        .with_poll(std::time::Duration::from_millis(10));
    // Chaos starts with the campaign: `create` failing its very first
    // plan save is the documented fail-fast path, not a benchmark.
    let disk = Arc::new(ChaosSchedule::new(0xD15C, 0.15));
    let guard = ChaosGuard::install(ChaosDisk::new(Arc::clone(&disk), &coord_dir));
    let start = Instant::now();
    let report = coordinator.run().expect("bench chaos fleet converges");
    let wall_secs = start.elapsed().as_secs_f64();
    drop(guard);

    for proxy in &mut proxies {
        proxy.stop();
    }
    for server in servers {
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&base);
    ChaosFigures {
        nodes,
        units,
        faults_injected: disk.injected() + net.iter().map(|s| s.injected()).sum::<usize>(),
        recoveries: report.campaign.warnings.len() + report.stolen,
        wall_secs,
    }
}

/// What the `--cache` bench measured.
struct CacheFigures {
    jobs: usize,
    cold_jobs_per_sec: f64,
    warm_jobs_per_sec: f64,
    cache_hits: u64,
    compaction_ratio: f64,
}

/// The result-cache trajectory: two identical rounds of stuck-at `s27`
/// jobs against **one** server directory. Round one lands on an empty
/// store (cold — real generation); round two resubmits the same spec and
/// is answered from the exact result cache (warm). Also runs campaign
/// compaction over fresh non-scan `s27`+`s42` runs and records the
/// global vectors-after/vectors-before ratio.
fn cache_throughput(jobs: usize, workers: usize) -> CacheFigures {
    use gdf_core::artifact::{CircuitSource, RunArtifact};
    use gdf_core::compact_campaign;
    use gdf_core::engine::{Atpg, Backend, RunConfig};
    use gdf_serve::server::submission_for_suite;
    use gdf_serve::{Client, JobServer, ServeConfig};

    let dir = std::env::temp_dir().join(format!("gdf-bench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = JobServer::start(
        ServeConfig::new("127.0.0.1:0", &dir)
            .with_workers(workers)
            .with_queue_capacity(jobs.max(1)),
    )
    .expect("bench cache server starts");
    let client = Client::new(server.local_addr().to_string());
    let config = RunConfig::new(Backend::StuckAt);
    let submission = submission_for_suite("suite:s27", &config);

    let round = || {
        let start = Instant::now();
        let ids: Vec<_> = (0..jobs)
            .map(|_| client.submit(&submission).expect("submit"))
            .collect();
        for id in ids {
            client
                .wait(
                    id,
                    std::time::Duration::from_millis(5),
                    Some(std::time::Duration::from_secs(300)),
                )
                .expect("job completes");
        }
        jobs as f64 / start.elapsed().as_secs_f64()
    };
    let cold_jobs_per_sec = round();
    let warm_jobs_per_sec = round();
    let cache_hits = client
        .metric("gdf_cache_hits_total")
        .ok()
        .flatten()
        .unwrap_or(0.0) as u64;
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let mut inputs = Vec::new();
    for name in ["s27", "s42"] {
        let circuit = suite::by_name(name).expect("suite circuit");
        let run = Atpg::builder(&circuit).build().run();
        let artifact = RunArtifact::from_run(
            &circuit,
            &run,
            RunConfig::new(Backend::NonScan),
            Some(CircuitSource::suite(&circuit, name)),
        );
        inputs.push((circuit, artifact));
    }
    let compaction = compact_campaign(&inputs).expect("bench compaction");
    let compaction_ratio = if compaction.patterns_before == 0 {
        1.0
    } else {
        compaction.patterns_after as f64 / compaction.patterns_before as f64
    };
    CacheFigures {
        jobs,
        cold_jobs_per_sec,
        warm_jobs_per_sec,
        cache_hits,
        compaction_ratio,
    }
}

/// What the `--obs` bench measured.
struct ObsFigures {
    jobs: usize,
    off_jobs_per_sec: f64,
    on_jobs_per_sec: f64,
    overhead_pct: f64,
    traces_written: u64,
}

/// One observability round: `jobs` distinct stuck-at `s27` submissions
/// (seed varied per job so every one is a real run, never a cache hit)
/// against a fresh server with observability on or off, timed from
/// first submit to last completion.
fn obs_round(jobs: usize, workers: usize, obs: bool) -> (f64, u64) {
    use gdf_core::engine::{Backend, RunConfig};
    use gdf_serve::server::submission_for_suite;
    use gdf_serve::{Client, JobServer, ServeConfig};

    let dir = std::env::temp_dir().join(format!(
        "gdf-bench-obs-{}-{}",
        if obs { "on" } else { "off" },
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let server = JobServer::start(
        ServeConfig::new("127.0.0.1:0", &dir)
            .with_workers(workers)
            .with_queue_capacity(jobs.max(1))
            .with_obs(obs),
    )
    .expect("bench obs server starts");
    let client = Client::new(server.local_addr().to_string());

    let start = Instant::now();
    let ids: Vec<_> = (0..jobs)
        .map(|i| {
            let mut config = RunConfig::new(Backend::StuckAt);
            config.seed = 0x0B5_0000 + i as u64;
            client
                .submit(&submission_for_suite("suite:s27", &config))
                .expect("submit")
        })
        .collect();
    for id in ids {
        client
            .wait(
                id,
                std::time::Duration::from_millis(5),
                Some(std::time::Duration::from_secs(300)),
            )
            .expect("job completes");
    }
    let elapsed = start.elapsed().as_secs_f64();
    let traces = client
        .metric("gdf_traces_written_total")
        .ok()
        .flatten()
        .unwrap_or(0.0) as u64;
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    (jobs as f64 / elapsed, traces)
}

/// The observability overhead trajectory: the same job mix with the
/// whole stack off and on (phase sink, per-phase histograms, per-job
/// tracer + profiler, trace documents). Three interleaved off/on pairs,
/// aggregated over total elapsed time, so a CPU-frequency or scheduler
/// swing hits both modes alike instead of biasing a percent-level
/// comparison. Each server scopes its phase sink to its own threads, so
/// an off round times nothing.
fn obs_overhead(jobs: usize, workers: usize) -> ObsFigures {
    let mut elapsed = [0.0f64; 2];
    let mut traces_written = 0;
    for _ in 0..3 {
        for obs in [false, true] {
            let (rate, traces) = obs_round(jobs, workers, obs);
            elapsed[obs as usize] += jobs as f64 / rate;
            if obs {
                traces_written = traces;
            }
        }
    }
    let off_jobs_per_sec = 3.0 * jobs as f64 / elapsed[0];
    let on_jobs_per_sec = 3.0 * jobs as f64 / elapsed[1];
    ObsFigures {
        jobs,
        off_jobs_per_sec,
        on_jobs_per_sec,
        overhead_pct: (1.0 - on_jobs_per_sec / off_jobs_per_sec) * 100.0,
        traces_written,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let fleet = args.iter().any(|a| a == "--fleet");
    let chaos = args.iter().any(|a| a == "--chaos");
    let cache = args.iter().any(|a| a == "--cache");
    let obs = args.iter().any(|a| a == "--obs");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_fsim.json".to_string());
    let (patterns, eval_frames) = if smoke { (4, 100) } else { (64, 20_000) };

    let gen1k = generate(&CircuitProfile::new("gen1k", 32, 16, 32, 1000, 0xF51));
    let circuits = [suite::s27(), suite::table3_circuit("s208").unwrap(), gen1k];

    let mut rows = Vec::new();
    for c in &circuits {
        // Small circuits get more patterns so timings are not noise.
        let scale = (2000 / c.num_gates().max(1)).clamp(1, 64);
        let row = bench_circuit(c, patterns * scale, eval_frames);
        println!(
            "{:<8} {:>5} gates {:>5} faults  scalar {:>12.0} f/s  packed {:>12.0} f/s  speedup {:>6.2}x  {:>7.2} ns/gate-eval",
            row.name,
            row.gates,
            row.faults,
            row.scalar_faults_per_sec,
            row.packed_faults_per_sec,
            row.speedup,
            row.ns_per_gate_eval,
        );
        rows.push(row);
    }

    let (serve_jobs, serve_workers) = if smoke { (8, 4) } else { (32, 4) };
    let jobs_per_sec = serve_jobs_per_sec(serve_jobs, serve_workers);
    println!(
        "serve    {serve_jobs} jobs / {serve_workers} workers  {jobs_per_sec:>8.1} jobs/s end-to-end"
    );

    let fleet_figures = fleet.then(|| {
        let (units_per_circuit, nodes, workers) = if smoke { (3, 2, 2) } else { (8, 2, 4) };
        let f = fleet_throughput(units_per_circuit, nodes, workers);
        println!(
            "fleet    {} units / {} nodes  {:>8.1} units/s cluster  {:>10.0} faults/s/node",
            f.units, f.nodes, f.cluster_units_per_sec, f.faults_per_sec_per_node
        );
        f
    });

    let chaos_figures = chaos.then(|| {
        let (units_per_circuit, nodes, workers) = if smoke { (3, 2, 2) } else { (6, 2, 4) };
        let c = chaos_campaign(units_per_circuit, nodes, workers);
        println!(
            "chaos    {} units / {} nodes  {} faults injected  {} recoveries  {:.2}s wall",
            c.units, c.nodes, c.faults_injected, c.recoveries, c.wall_secs
        );
        c
    });

    let cache_figures = cache.then(|| {
        let (jobs, workers) = if smoke { (8, 4) } else { (32, 4) };
        let c = cache_throughput(jobs, workers);
        println!(
            "cache    {} jobs  cold {:>8.1} jobs/s  warm {:>8.1} jobs/s  {} hits  compaction {:.2}x",
            c.jobs, c.cold_jobs_per_sec, c.warm_jobs_per_sec, c.cache_hits, c.compaction_ratio
        );
        c
    });

    let obs_figures = obs.then(|| {
        // Even the smoke rounds need enough work per round (~1s) for a
        // percent-level comparison to clear scheduler noise.
        let (jobs, workers) = if smoke { (24, 4) } else { (48, 4) };
        let o = obs_overhead(jobs, workers);
        println!(
            "obs      {} jobs  off {:>8.1} jobs/s  on {:>8.1} jobs/s  overhead {:>5.1}%  {} traces",
            o.jobs, o.off_jobs_per_sec, o.on_jobs_per_sec, o.overhead_pct, o.traces_written
        );
        o
    });

    // Timestamp each appended record so the accumulated trajectory in
    // BENCH_fsim.json stays ordered and attributable across PRs; the
    // shared `append_record` refuses records that forgot the stamp.
    let text = |s: &str| Json::Str(s.into());
    let circuits = rows
        .iter()
        .map(|r| {
            Json::Obj(vec![
                ("name".into(), text(&r.name)),
                ("gates".into(), Json::Num(r.gates as f64)),
                ("faults".into(), Json::Num(r.faults as f64)),
                ("patterns".into(), Json::Num(r.patterns as f64)),
                (
                    "scalar_faults_per_sec".into(),
                    rounded(r.scalar_faults_per_sec, 0),
                ),
                (
                    "packed_faults_per_sec".into(),
                    rounded(r.packed_faults_per_sec, 0),
                ),
                ("speedup".into(), rounded(r.speedup, 2)),
                ("ns_per_gate_eval".into(), rounded(r.ns_per_gate_eval, 2)),
            ])
        })
        .collect();
    let pair = || Json::Arr(vec![text("s27"), text("s42")]);
    let mut record = vec![
        ("bench".into(), text("fsim")),
        (
            "unix_time".into(),
            Json::Num(gdf_bench::unix_time_now() as f64),
        ),
        ("mode".into(), text(if smoke { "smoke" } else { "full" })),
        ("circuits".into(), Json::Arr(circuits)),
        (
            "serve".into(),
            Json::Obj(vec![
                ("circuit".into(), text("s27")),
                ("backend".into(), text("stuck-at")),
                ("jobs".into(), Json::Num(serve_jobs as f64)),
                ("workers".into(), Json::Num(serve_workers as f64)),
                ("jobs_per_sec".into(), rounded(jobs_per_sec, 1)),
            ]),
        ),
    ];
    if let Some(f) = &fleet_figures {
        record.push((
            "fleet".into(),
            Json::Obj(vec![
                ("circuits".into(), pair()),
                ("backend".into(), text("stuck-at")),
                ("nodes".into(), Json::Num(f.nodes as f64)),
                ("workers".into(), Json::Num(f.workers as f64)),
                ("units".into(), Json::Num(f.units as f64)),
                (
                    "cluster_units_per_sec".into(),
                    rounded(f.cluster_units_per_sec, 1),
                ),
                (
                    "faults_per_sec_per_node".into(),
                    rounded(f.faults_per_sec_per_node, 0),
                ),
            ]),
        ));
    }
    if let Some(c) = &chaos_figures {
        record.push((
            "chaos".into(),
            Json::Obj(vec![
                ("circuits".into(), pair()),
                ("backend".into(), text("stuck-at")),
                ("nodes".into(), Json::Num(c.nodes as f64)),
                ("units".into(), Json::Num(c.units as f64)),
                (
                    "faults_injected".into(),
                    Json::Num(c.faults_injected as f64),
                ),
                ("recoveries".into(), Json::Num(c.recoveries as f64)),
                ("wall_secs".into(), rounded(c.wall_secs, 2)),
            ]),
        ));
    }
    if let Some(c) = &cache_figures {
        record.push((
            "cache".into(),
            Json::Obj(vec![
                ("circuit".into(), text("s27")),
                ("backend".into(), text("stuck-at")),
                ("jobs".into(), Json::Num(c.jobs as f64)),
                ("cold_jobs_per_sec".into(), rounded(c.cold_jobs_per_sec, 1)),
                ("warm_jobs_per_sec".into(), rounded(c.warm_jobs_per_sec, 1)),
                ("cache_hits".into(), Json::Num(c.cache_hits as f64)),
                ("compaction_ratio".into(), rounded(c.compaction_ratio, 3)),
            ]),
        ));
    }
    if let Some(o) = &obs_figures {
        record.push((
            "obs".into(),
            Json::Obj(vec![
                ("circuit".into(), text("s27")),
                ("backend".into(), text("stuck-at")),
                ("jobs".into(), Json::Num(o.jobs as f64)),
                ("off_jobs_per_sec".into(), rounded(o.off_jobs_per_sec, 1)),
                ("on_jobs_per_sec".into(), rounded(o.on_jobs_per_sec, 1)),
                ("overhead_pct".into(), rounded(o.overhead_pct, 1)),
                ("traces_written".into(), Json::Num(o.traces_written as f64)),
            ]),
        ));
    }
    gdf_bench::append_record(&out_path, &Json::Obj(record)).expect("write bench record");
    println!("appended record to {out_path}");
}
