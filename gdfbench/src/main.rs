//! `gdfbench` — the gdf benchmark: four workloads, each run in one process
//! from a seed, with correctness checks outside the timed region.
//!
//! ```text
//! cargo run --release --manifest-path gdfbench/Cargo.toml -- \
//!     --workload table3_atpg --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`). With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, measured from outside by timing calls into each
//! crate's public entry points. Lines before it starting with `#` are
//! human-readable detail: the machine fingerprint, the workload's own
//! named metrics, and the Table 3 fidelity rows. See `gdfbench/README.md`.

mod fleet;
mod grade;
mod serve;
mod table3;

use gdf::core::json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "table3_atpg",
    "grade_gen10k",
    "serve_mixed",
    "fleet_campaign",
];

/// The end-to-end metrics every untraced run reports, in order.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "work_per_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "peak_rss_mb",
];

/// The per-layer metrics every traced run reports, in order.
const PER_LAYER: [&str; 47] = [
    "netlist.build_s",
    "netlist.enumerate_s",
    "netlist.cone_warm_s",
    "core.generate.calls",
    "core.generate_s",
    "core.generate.aborted",
    "core.generate.aborted_s",
    "core.generate.untestable_s",
    "core.credit.calls",
    "core.credit_s",
    "core.credit.dropped",
    "core.credit.drop_ratio",
    "tdgen.calls",
    "tdgen_s",
    "tdgen.aborted",
    "tdgen.untestable",
    "semilet.propagate.calls",
    "semilet.propagate_s",
    "semilet.propagate.aborted",
    "semilet.sync.calls",
    "semilet.sync_s",
    "semilet.sync.aborted",
    "sim.grade.calls",
    "sim.grade_s",
    "sim.grade.fault_evals",
    "sim.grade.detect_ratio",
    "sim.goodsim_s",
    "sim.fausim_s",
    "sim.tdsim_s",
    "serve.submit_ms",
    "serve.queue_wait_ms",
    "serve.run_ms",
    "serve.publish_ms",
    "serve.fetch_ms",
    "core.local_run_ms",
    "cache_hit_latency_p50_ms",
    "store.cache_hits",
    "store.hit_ratio",
    "tenant.rejected",
    "serve.rejected",
    "client.retries",
    "fleet.plan_s",
    "fleet.step.calls",
    "fleet.step_s",
    "fleet.idle_s",
    "core.shard_merge_s",
    "trace_overhead_pct",
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for server and fleet state, inside the checkout.
    pub work: PathBuf,
}

impl Args {
    /// The seed handed to the program under test, spread so that small
    /// command-line seeds (1, 2, 3, …) give unrelated inputs.
    pub fn mixed_seed(&self, salt: u64) -> u64 {
        splitmix(self.seed ^ splitmix(salt))
    }

    /// Worker threads the host offers; no workload uses more.
    pub fn nproc(&self) -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// SplitMix64 finalizer.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a digest of a byte string (result fingerprints across repeats).
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Operations and correctness checks attempted, and how many failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub checks_failed: u64,
}

impl Tally {
    /// Counts one operation of the workload.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("gdfbench: operation failed: {}", what());
        }
    }

    /// Counts one correctness check; a failed check also fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.checks_failed += 1;
            eprintln!("gdfbench: check failed: {}", what());
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records the end-to-end metrics every workload shares.
    pub fn end_to_end(&mut self, e: EndToEnd) {
        self.metric("setup_s", e.setup_s, "s");
        self.metric("work_per_s", e.work_per_s, "1/s");
        self.metric("latency_p50_ms", percentile(&e.latencies_ms, 50.0), "ms");
        self.metric("latency_p90_ms", percentile(&e.latencies_ms, 90.0), "ms");
        self.metric("peak_rss_mb", peak_rss_mb(), "MB");
        detail(&format!(
            "latency over {} operations: p50 {:.3} ms, p90 {:.3} ms",
            e.latencies_ms.len(),
            percentile(&e.latencies_ms, 50.0),
            percentile(&e.latencies_ms, 90.0)
        ));
    }
}

/// The end-to-end figures of one untraced run.
pub struct EndToEnd {
    pub setup_s: f64,
    pub work_per_s: f64,
    pub latencies_ms: Vec<f64>,
}

/// Prints one human-readable detail line (never the last line).
pub fn detail(line: &str) {
    println!("# {line}");
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of a sample (0 for an empty one).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Seconds one run of the reference kernel takes at the reference speed
/// (a 2-vCPU "Intel Xeon Processor" guest at its fast state).
pub const REFERENCE_KERNEL_S: f64 = 2.0e-3;
/// Keys the reference kernel sorts: 0.8 MB, inside one core's L2.
const REFERENCE_KEYS: usize = 100_000;

/// Scales a timed operation to a reference host speed.
///
/// On a shared host, cache-bound code slows by up to 1.6x for seconds to
/// minutes at a time (another guest using the same core), while a plain
/// ALU loop does not slow at all. A run spent in one such phase moves
/// every median of the run, so medians alone cannot keep runs of the same
/// code within their bounds. This benchmark-owned kernel (sorting seeded
/// 64-bit keys, no `gdf` code) slows with the workloads, so it runs just
/// before and after each timed operation, and the operation's seconds are
/// scaled by `REFERENCE_KERNEL_S` over the kernel's mean time around it.
/// Nothing in `gdf` can change the kernel, so a faster or slower program
/// still reads faster or slower.
pub struct Calibration {
    keys: Vec<u64>,
    last: Option<f64>,
    samples: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            keys: vec![0; REFERENCE_KEYS],
            last: None,
            samples: Vec::new(),
        }
    }
}

impl Calibration {
    /// Seconds of the kernel: the median of three runs, so one interrupt
    /// does not move it.
    fn kernel(&mut self) -> f64 {
        let mut runs = [0.0; 3];
        for run in &mut runs {
            let t = Instant::now();
            for (i, k) in self.keys.iter_mut().enumerate() {
                *k = splitmix(i as u64);
            }
            self.keys.sort_unstable();
            std::hint::black_box(&self.keys);
            *run = t.elapsed().as_secs_f64();
        }
        let s = median(&runs);
        self.samples.push(s);
        s
    }

    /// Runs `f`; returns its result and the factor that scales seconds
    /// measured during it to the reference speed.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = match self.last {
            Some(s) => s,
            None => self.kernel(),
        };
        let out = f();
        let after = self.kernel();
        self.last = Some(after);
        (out, REFERENCE_KERNEL_S / ((before + after) / 2.0))
    }

    /// Runs `f`; returns its result and its seconds at the reference speed.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let ((out, dt), factor) = self.around(|| {
            let t = Instant::now();
            let out = f();
            (out, t.elapsed().as_secs_f64())
        });
        (out, dt * factor)
    }

    /// Median kernel milliseconds of the run, for the detail lines.
    pub fn kernel_ms(&self) -> f64 {
        median(&self.samples) * 1e3
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `nproc`, CPU model, toolchain and source revision of this run.
fn fingerprint(args: &Args) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // Git must not look above the working directory: a checkout that is
    // not a repository of its own has no revision.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    let run = |cmd: &str, arg: &[&str]| -> String {
        std::process::Command::new(cmd)
            .args(arg)
            .env("GIT_CEILING_DIRECTORIES", &ceiling)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("nproc".into(), Json::Num(args.nproc() as f64)),
        ("cpu".into(), Json::Str(cpu)),
        ("rustc".into(), Json::Str(run("rustc", &["-V"]))),
        (
            "git_rev".into(),
            Json::Str(run("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let work = Path::new(".gdfbench-work").join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        work,
    })
}

/// Runs the workload; a traced run adds a short probe of every layer
/// group the workload itself never reaches, so each traced run reports
/// every per-layer metric.
fn run_workload(args: &Args) -> Result<Report, String> {
    let home = args.workload.as_str();
    let mut report = match home {
        "table3_atpg" => table3::run(args)?,
        "grade_gen10k" => grade::run(args)?,
        "serve_mixed" => serve::run(args)?,
        _ => fleet::run(args)?,
    };
    if args.trace {
        if home != "table3_atpg" {
            table3::probe(args, &mut report);
        }
        if home != "grade_gen10k" {
            grade::probe(args, &mut report);
        }
        if home != "serve_mixed" {
            serve::probe(args, &mut report)?;
        }
        if home != "fleet_campaign" {
            fleet::probe(args, &mut report)?;
        }
    }
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let position = |name: &str| expected.iter().position(|e| *e == name);
    report.metrics.sort_by_key(|m| position(&m.name));
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    if names != expected {
        return Err(format!("reported metrics {names:?}, expected {expected:?}"));
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gdfbench: {e}");
            eprintln!(
                "usage: gdfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    detail(&format!("machine {}", fingerprint(&args)));
    let _ = std::fs::remove_dir_all(&args.work);
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        eprintln!("gdfbench: {}: {e}", args.work.display());
        return ExitCode::from(1);
    }
    let result = run_workload(&args);
    let _ = std::fs::remove_dir_all(&args.work);
    if let Some(parent) = args.work.parent() {
        let _ = std::fs::remove_dir(parent); // only succeeds once empty
    }
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gdfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let t = &report.tally;
    detail(&format!(
        "failed_pct {:.3} % ({} failed of {} attempted, {} failed checks)",
        100.0 * t.failed as f64 / t.attempted.max(1) as f64,
        t.failed,
        t.attempted,
        t.checks_failed
    ));
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let correct = t.checks_failed == 0;
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(t.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(t.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
