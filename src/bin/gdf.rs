//! `gdf` — the command-line front door of the ATPG system.
//!
//! ```text
//! gdf run <CIRCUIT> [-o run.json] [--patterns p.json] [options]
//! gdf resume <RUN.json> [-o done.json] [--patterns p.json]
//! gdf grade <PATTERNS.json> [--circuit CIRCUIT] [--universe U] [--model M] [--seed N]
//! gdf campaign [CIRCUIT...] [--suite] [--dir DIR] [--resume] [options]
//! gdf campaign ... --fleet H1:P1,H2:P2 [--units N] [--dir DIR]
//! gdf fleet status [--dir DIR]
//! gdf report <RUN.json>... [--diff]
//! gdf suite [--universe <full|stems>]
//! gdf serve --addr HOST:PORT --dir DIR [--workers N]
//! gdf submit <CIRCUIT> --addr HOST:PORT [--wait|--follow] [options]
//! gdf status [<JOB>] --addr HOST:PORT [--follow]
//! gdf fetch <JOB> --addr HOST:PORT [-o run.json] [--patterns p.json]
//! gdf cancel <JOB> --addr HOST:PORT
//! ```
//!
//! `CIRCUIT` is a path to an ISCAS'89 `.bench` file or `suite:<name>`
//! (e.g. `suite:s27`, `suite:s42`). Runs persist as self-contained JSON
//! artifacts (`gdf_core::artifact::RunArtifact`): `gdf run` checkpoints
//! while it works, an interrupted run resumes **byte-identically** with
//! `gdf resume`, and `gdf report --diff` proves it. `--abort-after N`
//! deliberately interrupts after N fault outcomes (exercised by CI to
//! test the resume path end to end).
//!
//! The `serve`/`submit`/`status`/`fetch`/`cancel` commands speak the
//! `gdf_serve` HTTP job API: `serve` hosts the engine behind
//! `POST /jobs`, the others are remote controls for it. A fetched
//! artifact is the server's canonical (wall-clock-zeroed) encoding and
//! is byte-identical to what any same-spec submission returns.
//!
//! `gdf campaign --fleet` shards one campaign across N running
//! `gdf serve` nodes (`gdf_fleet::Coordinator`): the plan persists in
//! `<dir>/fleet.json`, a killed coordinator resumes with `--resume`,
//! dead nodes lose their units to live ones, and the merged per-circuit
//! artifacts are byte-identical in canonical encoding to a single-node
//! campaign of the same configuration. `gdf fleet status` renders the
//! plan and probes node health.

use gdf::core::json::Json;
use gdf::core::{
    compact_campaign, grade_patterns, Atpg, AtpgBuilder, AtpgRun, Backend, Campaign, Checkpointer,
    CircuitReport, CircuitSource, FaultRecord, ModelKind, Observer, PatternSet, ProgressEvent,
    RunArtifact, RunConfig, Sensitization,
};
use gdf::fleet::{Coordinator, FleetPlan};
use gdf::netlist::{parse_bench, suite, Circuit, FaultUniverse};
use gdf::serve::server::{submission_for_bench, submission_for_suite, submission_with_runtime};
use gdf::serve::{Client, JobServer, ServeConfig};
use gdf::store::{lookup_run, publish_run, Store};
use gdf::tenant::TenantRegistry;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

const USAGE: &str = "\
gdf — gate delay fault ATPG for non-scan sequential circuits

USAGE:
    gdf run <CIRCUIT> [options]         generate tests for one circuit
    gdf resume <RUN.json> [options]     resume an interrupted run
    gdf grade <PATTERNS.json> [options] re-grade a saved pattern set
    gdf campaign [CIRCUIT...] [options] run many circuits, aggregate report
    gdf fleet status [--dir DIR]        fleet plan progress and node health
    gdf report <RUN.json>... [--diff]   render or compare saved runs
    gdf compact [--dir DIR] [-o OUT]    compact a campaign's test sets
    gdf store <stats|gc> [--dir DIR]    artifact-store stats / garbage collect
    gdf suite [--universe <full|stems>] list embedded suite circuits
    gdf serve [options]                 host the engine as an HTTP job server
    gdf submit <CIRCUIT> [options]      submit a job to a server
    gdf status [<JOB>] [options]        job status (or list all jobs)
    gdf fetch <JOB> [options]           download a finished job's artifact
    gdf cancel <JOB> [options]          cancel / remove a job
    gdf top [options]                   live metrics dashboard for a server
    gdf fleet top [--dir DIR]           live fleet dashboard (plan + nodes)
    gdf trace export <T.ndjson> --chrome  convert a job trace for chrome://tracing
    gdf --version                       print the version

CIRCUIT:
    a path to an ISCAS'89 .bench file, or suite:<name> (suite:s27,
    suite:s298, suite:s42, ...)

OPTIONS:
    --backend <non-scan|enhanced-scan|stuck-at>   engine (default non-scan)
    --model <delay|transition|stuck>              fault model (default: backend's)
    --sensitization <robust|non-robust>           delay-test sensitization
    --universe <full|stems>                       fault universe
    --seed <N>                                    X-fill seed (dec or 0x..)
    --parallelism <N>                             generation workers
    --time-budget <SECS>                          per-run wall-clock budget, checked
                                                  before each targeted fault (one
                                                  fault's search can overrun it)
    -o, --out <PATH>                              artifact output path
    --patterns <PATH>                             export a pattern set
    --checkpoint-every <N>                        checkpoint cadence (default 16)
    --abort-after <N>                             cancel after N outcomes
    --circuit <CIRCUIT>                           (grade) grade on this circuit
    --suite                                       (campaign) the full suite
    --dir <DIR>                                   (campaign/serve) artifact dir
    --resume                                      (campaign) reuse artifacts
    --cache                                       (campaign) exact result cache
    --fleet <H1:P1,H2:P2,...>                     (campaign) shard across nodes
                                                  (without --time-budget, --cache)
    --units <N>                                   (fleet) units per circuit
    --steal-after <SECS>                          (fleet) slow-node patience
    --diff                                        (report) compare two runs
    --addr <HOST:PORT>                            (serve/remote) server address
    --workers <N>                                 (serve) worker pool size
    --queue-capacity <N>                          (serve) queued jobs per worker
                                                  (the queue holds workers x N)
    --tenants <FILE>                              (serve) tenants.json registry:
                                                  bearer auth + quotas + fair sched
    --token <TOKEN>                               (remote/campaign) tenant bearer token
    --wait                                        (submit) block until terminal
    --follow                                      (submit/status) stream events
    --no-obs                                      (serve) disable tracing/profiling
    --interval <SECS>                             (top) refresh cadence (default 2)
    --once                                        (top) print one frame and exit
    --chrome                                      (trace export) chrome://tracing JSON
    -q, --quiet                                   no progress output
";

fn main() -> ExitCode {
    // A reader that stops consuming our stdout (`gdf … | head`) must end
    // the process quietly with the conventional SIGPIPE code, not with a
    // panic trace.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let broken_pipe = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("failed printing to stdout"));
        if broken_pipe {
            std::process::exit(141); // 128 + SIGPIPE
        }
        default_hook(info);
    }));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "run" => cmd_run(rest),
        "resume" => cmd_resume(rest),
        "grade" => cmd_grade(rest),
        "campaign" => cmd_campaign(rest),
        "fleet" => cmd_fleet(rest),
        "report" => cmd_report(rest),
        "compact" => cmd_compact(rest),
        "store" => cmd_store(rest),
        "suite" => cmd_suite(rest),
        "serve" => cmd_serve(rest),
        "submit" => cmd_submit(rest),
        "status" => cmd_status(rest),
        "fetch" => cmd_fetch(rest),
        "cancel" => cmd_cancel(rest),
        "top" => cmd_top(rest),
        "trace" => cmd_trace(rest),
        "version" | "--version" | "-V" => {
            println!("gdf {}", env!("CARGO_PKG_VERSION"));
            return ExitCode::SUCCESS;
        }
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`; try `gdf help`")),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("gdf {command}: {message}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// Argument scaffolding
// ---------------------------------------------------------------------

struct Opts {
    positional: Vec<String>,
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Opts {
    /// Splits `args` into positionals, `--key value` pairs and bare
    /// switches. `takes_value` lists the options that consume a value.
    fn parse(args: &[String], takes_value: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut out = Opts {
            positional: Vec::new(),
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let canonical = match arg.as_str() {
                "-o" => "--out",
                "-q" => "--quiet",
                other => other,
            };
            if let Some(name) = canonical.strip_prefix("--") {
                if takes_value.contains(&name) {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    out.values.push((name.to_string(), value.clone()));
                } else if switches.contains(&name) {
                    out.switches.push(name.to_string());
                } else {
                    return Err(format!("unknown option `{arg}`"));
                }
            } else {
                out.positional.push(arg.clone());
            }
        }
        Ok(out)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn number(&self, name: &str) -> Result<Option<u64>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(text) => {
                let parsed = match text.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => text.parse(),
                };
                parsed
                    .map(Some)
                    .map_err(|_| format!("--{name}: invalid number `{text}`"))
            }
        }
    }
}

/// Resolves a circuit argument: `suite:<name>` or a `.bench` file path.
/// Returns the circuit plus the provenance artifacts should record.
fn load_circuit(spec: &str) -> Result<(Circuit, CircuitSource), String> {
    if let Some(name) = spec.strip_prefix("suite:") {
        let circuit =
            suite::by_name(name).ok_or_else(|| format!("unknown suite circuit `{name}`"))?;
        let source = CircuitSource::suite(&circuit, name);
        return Ok((circuit, source));
    }
    let path = Path::new(spec);
    let text = std::fs::read_to_string(path).map_err(|e| format!("{spec}: {e}"))?;
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit")
        .to_string();
    let circuit = parse_bench(&name, &text).map_err(|e| format!("{spec}: {e}"))?;
    let source = CircuitSource::bench(&circuit, text);
    Ok((circuit, source))
}

// ---------------------------------------------------------------------
// Observers
// ---------------------------------------------------------------------

/// Prints one progress line per ~10% to stderr.
struct Progress {
    label: String,
    last_decile: usize,
}

impl Progress {
    fn new(label: impl Into<String>) -> Self {
        Progress {
            label: label.into(),
            last_decile: 0,
        }
    }
}

impl Observer for Progress {
    fn on_run_start(&mut self, engine: &'static str, circuit: &Circuit, total: usize) {
        eprintln!(
            "[{}] {engine} on {}: {total} faults",
            self.label,
            circuit.name()
        );
    }
    fn on_progress(&mut self, decided: usize, total: usize) {
        let decile = 10 * decided / total.max(1);
        if decile > self.last_decile {
            self.last_decile = decile;
            eprintln!("[{}] {decided}/{total} faults decided", self.label);
        }
    }
}

/// Cancels the run after N fault outcomes — the CLI's way to simulate an
/// interruption (CI kills runs with this, then resumes them).
struct AbortAfter {
    remaining: usize,
}

impl Observer for AbortAfter {
    fn on_fault(&mut self, _record: &FaultRecord) {
        self.remaining = self.remaining.saturating_sub(1);
    }
    fn cancelled(&mut self) -> bool {
        self.remaining == 0
    }
}

// ---------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------

fn print_run(run: &AtpgRun) {
    println!("{}", CircuitReport::header());
    println!("{}", run.report.line());
    println!(
        "{} sequences, {} faults dropped by simulation — {}{}",
        run.report.sequences,
        run.report.dropped_by_simulation,
        run.report.coverage,
        match run.stopped {
            None => String::new(),
            Some(reason) => format!(" — stopped early: {reason}"),
        }
    );
}

/// The single flag→config mapping: both the engine builder and the saved
/// artifact are driven from this one value, so the recorded provenance
/// can never diverge from the run that actually executed. Backend,
/// model, sensitization and universe names go through the shared parsers
/// and the `RunConfig::validate` check that the serve submissions use
/// too.
fn config_from_opts(opts: &Opts) -> Result<RunConfig, String> {
    let mut config = RunConfig::new(
        opts.value("backend")
            .map(str::parse)
            .transpose()?
            .unwrap_or(Backend::NonScan),
    );
    if let Some(m) = opts.value("model") {
        config.model = parse_model(m)?;
    }
    if let Some(s) = opts.value("sensitization") {
        config.sensitization = s.parse()?;
    }
    config.validate().map_err(|e| e.to_string())?;
    if let Some(u) = opts.value("universe") {
        config.universe = FaultUniverse::parse_name(u)?;
    }
    if let Some(seed) = opts.number("seed")? {
        config.seed = seed;
    }
    Ok(config)
}

/// Parses `--model`. A sensitization name there is an error that points
/// at `--sensitization`, where it belongs.
fn parse_model(name: &str) -> Result<ModelKind, String> {
    name.parse()
        .map_err(|e| match name.parse::<Sensitization>() {
            Ok(_) => {
                format!("--model {name}: `{name}` is a sensitization; use --sensitization {name}")
            }
            Err(_) => e,
        })
}

/// Applies a [`RunConfig`] plus the runtime-only options (workers, time
/// budget) to a builder.
fn configure<'c>(
    mut builder: AtpgBuilder<'c>,
    config: &RunConfig,
    opts: &Opts,
) -> Result<AtpgBuilder<'c>, String> {
    builder = builder
        .backend(config.backend)
        .model(config.model)
        .sensitization(config.sensitization)
        .universe(config.universe)
        .limits(config.limits)
        .seed(config.seed);
    if let Some(n) = opts.number("parallelism")? {
        builder = builder.parallelism(n as usize);
    }
    if let Some(secs) = opts.number("time-budget")? {
        builder = builder.time_budget(Duration::from_secs(secs));
    }
    Ok(builder)
}

fn export_patterns(
    opts: &Opts,
    circuit: &Circuit,
    source: &CircuitSource,
    run: &AtpgRun,
    backend: Backend,
    seed: u64,
) -> Result<(), String> {
    let Some(path) = opts.value("patterns") else {
        return Ok(());
    };
    let set = PatternSet::from_run(
        circuit,
        run,
        &backend.to_string(),
        seed,
        Some(source.clone()),
    );
    set.save(path).map_err(|e| e.to_string())?;
    println!("patterns: {} sequences -> {path}", set.patterns.len());
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(
        args,
        &[
            "backend",
            "model",
            "sensitization",
            "universe",
            "seed",
            "parallelism",
            "time-budget",
            "out",
            "patterns",
            "checkpoint-every",
            "abort-after",
        ],
        &["quiet"],
    )?;
    let [spec] = opts.positional.as_slice() else {
        return Err("expected exactly one CIRCUIT argument".into());
    };
    let (circuit, source) = load_circuit(spec)?;
    let config = config_from_opts(&opts)?;
    let (backend, seed) = (config.backend, config.seed);
    let every = opts.number("checkpoint-every")?.unwrap_or(16) as usize;

    let mut builder = configure(Atpg::builder(&circuit), &config, &opts)?;
    if !opts.switch("quiet") {
        builder = builder.observer(Progress::new("run"));
    }
    let mut checkpoints_written = None;
    if let Some(out) = opts.value("out") {
        let checkpointer = Checkpointer::new(PathBuf::from(out), every).with_source(source.clone());
        checkpoints_written = Some(checkpointer.written_handle());
        builder = builder.observer(checkpointer);
    }
    if let Some(n) = opts.number("abort-after")? {
        builder = builder.observer(AbortAfter {
            remaining: n as usize,
        });
    }

    let run = builder.build().run();
    print_run(&run);

    if let Some(out) = opts.value("out") {
        if run.stopped.is_some() {
            // Keep the last checkpoint: that is the resumable state. The
            // cancel-fill marked the undecided tail aborted, which a
            // resume must not inherit.
            export_patterns(&opts, &circuit, &source, &run, backend, seed)?;
            let written = checkpoints_written.map_or(0, |w| w.load(Ordering::Relaxed));
            return interrupted_outcome(out, written);
        }
        RunArtifact::from_run(&circuit, &run, config, Some(source.clone()))
            .save(out)
            .map_err(|e| e.to_string())?;
        println!("run artifact -> {out}");
    }
    export_patterns(&opts, &circuit, &source, &run, backend, seed)?;
    Ok(ExitCode::SUCCESS)
}

/// Reports where an interrupted run left its resumable state. If the run
/// was cancelled before the Checkpointer's first write there is nothing
/// (new) to resume — say so and fail, so scripts keying on the exit code
/// notice (a stale file at `out` from an earlier run does not count).
fn interrupted_outcome(out: &str, checkpoints_written: usize) -> Result<ExitCode, String> {
    if checkpoints_written > 0 {
        println!("interrupted — resumable checkpoint left at {out}");
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("interrupted before the first checkpoint — no resumable artifact at {out}");
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_resume(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(
        args,
        &[
            "out",
            "patterns",
            "checkpoint-every",
            "parallelism",
            "time-budget",
            "abort-after",
        ],
        &["quiet"],
    )?;
    let [input] = opts.positional.as_slice() else {
        return Err("expected exactly one RUN.json argument".into());
    };
    let artifact = RunArtifact::load(input).map_err(|e| e.to_string())?;
    if !artifact.partial {
        println!("{input}: already complete ({} faults)", artifact.total());
        return Ok(ExitCode::SUCCESS);
    }
    let circuit = artifact.circuit.resolve().map_err(|e| e.to_string())?;
    let source = artifact.circuit.clone();
    let config = artifact.config();
    let out = opts.value("out").unwrap_or(input).to_string();
    let every = opts.number("checkpoint-every")?.unwrap_or(16) as usize;

    eprintln!(
        "resuming {} on {}: {}/{} faults already decided",
        config.backend,
        circuit.name(),
        artifact.decided(),
        artifact.total()
    );
    let mut builder = Atpg::builder(&circuit)
        .resume_from(&artifact)
        .map_err(|e| e.to_string())?;
    if let Some(n) = opts.number("parallelism")? {
        builder = builder.parallelism(n as usize);
    }
    if let Some(secs) = opts.number("time-budget")? {
        builder = builder.time_budget(Duration::from_secs(secs));
    }
    if !opts.switch("quiet") {
        builder = builder.observer(Progress::new("resume"));
    }
    let checkpointer = Checkpointer::new(PathBuf::from(&out), every).with_source(source.clone());
    let checkpoints_written = checkpointer.written_handle();
    builder = builder.observer(checkpointer);
    if let Some(n) = opts.number("abort-after")? {
        builder = builder.observer(AbortAfter {
            remaining: n as usize,
        });
    }

    let run = builder.build().run();
    print_run(&run);
    if run.stopped.is_some() {
        export_patterns(&opts, &circuit, &source, &run, config.backend, config.seed)?;
        return if checkpoints_written.load(Ordering::Relaxed) > 0 {
            println!("interrupted again — resumable checkpoint left at {out}");
            Ok(ExitCode::SUCCESS)
        } else if out == *input {
            // Nothing new was written, but the input checkpoint we
            // resumed from is untouched and still valid.
            println!("interrupted again before a new checkpoint — {input} is still resumable");
            Ok(ExitCode::SUCCESS)
        } else {
            eprintln!(
                "interrupted before the first checkpoint — no artifact at {out}; \
                 resume again from {input}"
            );
            Ok(ExitCode::FAILURE)
        };
    }
    RunArtifact::from_run(&circuit, &run, config, Some(source.clone()))
        .save(&out)
        .map_err(|e| e.to_string())?;
    println!("run artifact -> {out}");
    export_patterns(&opts, &circuit, &source, &run, config.backend, config.seed)?;
    Ok(ExitCode::SUCCESS)
}

/// `gdf grade <PATTERNS.json>`: re-grades a saved pattern set. It takes
/// only the options it reads; any other is an error.
fn cmd_grade(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(args, &["circuit", "universe", "model", "seed"], &[])?;
    let [input] = opts.positional.as_slice() else {
        return Err("expected exactly one PATTERNS.json argument".into());
    };
    let set = PatternSet::load(input).map_err(|e| e.to_string())?;
    let circuit = match opts.value("circuit") {
        Some(spec) => load_circuit(spec)?.0,
        None => set.circuit.resolve().map_err(|e| e.to_string())?,
    };
    let universe = opts
        .value("universe")
        .map(FaultUniverse::parse_name)
        .transpose()?
        .unwrap_or_default();
    let model = opts
        .value("model")
        .map(parse_model)
        .transpose()?
        .unwrap_or(ModelKind::Delay);
    let seed = opts.number("seed")?.unwrap_or(set.seed);
    let grade =
        grade_patterns(&circuit, &set, model, &universe, seed).map_err(|e| e.to_string())?;
    println!("{grade}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_campaign(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(
        args,
        &[
            "backend",
            "model",
            "sensitization",
            "universe",
            "seed",
            "parallelism",
            "time-budget",
            "dir",
            "checkpoint-every",
            "fleet",
            "units",
            "steal-after",
            "token",
        ],
        &["suite", "resume", "cache", "quiet"],
    )?;
    if let Some(nodes) = opts.value("fleet") {
        return cmd_campaign_fleet(&opts, nodes);
    }
    let mut builder = Campaign::builder();
    if opts.switch("suite") {
        builder = builder.suite();
    }
    for spec in &opts.positional {
        let (circuit, source) = load_circuit(spec)?;
        builder = builder.circuit_with_source(circuit, source);
    }
    // The same flag→config mapping `gdf run` uses, so an unsupported
    // pairing is a friendly error here too — never a panic inside
    // Campaign::run.
    let config = config_from_opts(&opts)?;
    builder = builder
        .backend(config.backend)
        .model(config.model)
        .sensitization(config.sensitization)
        .universe(config.universe)
        .limits(config.limits)
        .seed(config.seed);
    if let Some(n) = opts.number("parallelism")? {
        builder = builder.parallelism(n as usize);
    }
    if let Some(secs) = opts.number("time-budget")? {
        builder = builder.time_budget(Duration::from_secs(secs));
    }
    if let Some(dir) = opts.value("dir") {
        builder = builder.artifact_dir(dir);
    }
    if let Some(every) = opts.number("checkpoint-every")? {
        builder = builder.checkpoint_every(every as usize);
    }
    // --cache: the exact result cache. Before the run, any circuit whose
    // `(circuit digest, config digest)` key resolves in `<dir>/store` is
    // materialized as its `<name>.run.json` artifact, which `resume`
    // then loads instead of regenerating; after the run every completed
    // artifact is published back under the same key. Hits are *exact*:
    // the cached bytes are the canonical encoding the same configuration
    // would recompute.
    let cache_ctx = if opts.switch("cache") {
        let dir = PathBuf::from(
            opts.value("dir")
                .ok_or("--cache needs --dir (the store lives at <dir>/store)")?,
        );
        let store = Store::open(dir.join("store")).map_err(|e| e.to_string())?;
        let sources = fleet_sources(&opts)?;
        Some((dir, store, sources))
    } else {
        None
    };
    if let Some((dir, store, sources)) = &cache_ctx {
        let mut seeded = 0usize;
        for source in sources {
            let Ok(circuit) = source.resolve() else {
                continue;
            };
            let path = dir.join(format!("{}.run.json", circuit.name()));
            if path.exists() {
                continue;
            }
            let Some((text, _)) = lookup_run(store, source, &config) else {
                continue;
            };
            if gdf::core::io::write_atomic(&path, &text).is_ok() {
                seeded += 1;
            }
        }
        if !opts.switch("quiet") && seeded > 0 {
            eprintln!("cache: {seeded} circuit(s) seeded from the result cache");
        }
    }
    builder = builder.resume(opts.switch("resume") || cache_ctx.is_some());
    if !opts.switch("quiet") {
        builder = builder.observer(Progress::new("campaign"));
    }
    let report = builder.run();
    print!("{}", report.render());
    if let Some((dir, store, sources)) = &cache_ctx {
        for source in sources {
            let Ok(circuit) = source.resolve() else {
                continue;
            };
            let path = dir.join(format!("{}.run.json", circuit.name()));
            let Ok(artifact) = RunArtifact::load(&path) else {
                continue;
            };
            if let Err(e) = publish_run(store, source, &config, &artifact) {
                eprintln!("cache: publish {} failed: {e}", circuit.name());
            }
        }
    }
    // As `gdf run` does: a circuit its stop left with nothing to resume
    // fails the command (the report's warnings name it).
    Ok(if report.stopped || !report.unsaved.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The campaign's circuit list as [`CircuitSource`]s — what a fleet
/// plan records (full provenance, so any node and any resumed
/// coordinator rebuild byte-identical circuits).
fn fleet_sources(opts: &Opts) -> Result<Vec<CircuitSource>, String> {
    let mut sources = Vec::new();
    if opts.switch("suite") {
        for circuit in suite::full_suite() {
            let reference = circuit.name().trim_end_matches("_syn").to_string();
            sources.push(CircuitSource::suite(&circuit, &reference));
        }
    }
    for spec in &opts.positional {
        sources.push(load_circuit(spec)?.1);
    }
    if sources.is_empty() {
        return Err("no circuits: pass CIRCUIT arguments or --suite".into());
    }
    Ok(sources)
}

/// `gdf campaign --fleet H1,H2,…`: shard the campaign across running
/// `gdf serve` nodes and merge deterministically. With `--resume` and an
/// existing `<dir>/fleet.json`, the persisted plan is continued (its
/// recorded node list wins over `--fleet`).
fn cmd_campaign_fleet(opts: &Opts, nodes_arg: &str) -> Result<ExitCode, String> {
    let nodes: Vec<String> = nodes_arg
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    if nodes.is_empty() {
        return Err("--fleet needs a comma-separated HOST:PORT list".into());
    }
    // The fleetless campaign's options the fleet path does not read must
    // fail loudly here, before a plan is written, not be dropped.
    for (name, given, hint) in [
        (
            "time-budget",
            opts.value("time-budget").is_some(),
            "nodes run their units unbudgeted; interrupt the coordinator and continue \
             later with --resume",
        ),
        (
            "cache",
            opts.switch("cache"),
            "the result cache holds whole runs, not fleet units; run the campaign \
             without --fleet to use it",
        ),
    ] {
        if given {
            return Err(format!(
                "--{name} is not supported by `gdf campaign --fleet`; {hint}"
            ));
        }
    }
    let dir = PathBuf::from(opts.value("dir").unwrap_or("gdf-fleet"));
    let mut coordinator = if opts.switch("resume") && Coordinator::plan_path(&dir).exists() {
        let coordinator = Coordinator::resume(&dir).map_err(|e| e.to_string())?;
        if coordinator.plan().nodes != nodes {
            eprintln!(
                "note: resuming with the plan's recorded nodes ({}), not --fleet",
                coordinator.plan().nodes.join(",")
            );
        }
        coordinator
    } else {
        let sources = fleet_sources(opts)?;
        let config = config_from_opts(opts)?;
        let units = opts
            .number("units")?
            .unwrap_or(2 * nodes.len() as u64)
            .max(1) as usize;
        let name = dir
            .file_name()
            .and_then(|s| s.to_str())
            .unwrap_or("campaign")
            .to_string();
        let mut plan =
            FleetPlan::new(name, nodes, config, sources, units).map_err(|e| e.to_string())?;
        if let Some(n) = opts.number("parallelism")? {
            plan.parallelism = (n as usize).max(1);
        }
        if let Some(every) = opts.number("checkpoint-every")? {
            plan.checkpoint_every = (every as usize).max(1);
        }
        Coordinator::create(&dir, plan).map_err(|e| e.to_string())?
    };
    coordinator = coordinator.with_verbose(!opts.switch("quiet"));
    if let Some(secs) = opts.number("steal-after")? {
        coordinator = coordinator.with_steal_after(Duration::from_secs(secs));
    }
    if let Some(token) = opts.value("token") {
        // Multi-tenant nodes: in-memory only, never into fleet.json.
        coordinator = coordinator.with_token(token);
    }
    let report = coordinator.run().map_err(|e| e.to_string())?;
    print!("{}", report.campaign.render());
    println!(
        "fleet: {} units over {} nodes, {} reassigned — artifacts in {}",
        report.units,
        report.nodes.len(),
        report.stolen,
        dir.display()
    );
    for node in &report.nodes {
        println!(
            "  {}: {} units harvested, {} faults",
            node.addr, node.units, node.faults
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// `gdf fleet status --dir DIR`: the persisted plan's unit states plus a
/// live probe of every node. `gdf fleet top` is the same view,
/// refreshing in place until interrupted.
fn cmd_fleet(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(args, &["dir", "interval"], &["once"])?;
    match opts.positional.as_slice() {
        [sub] if sub == "status" => {
            let dir = PathBuf::from(opts.value("dir").unwrap_or("gdf-fleet"));
            let mut coordinator = Coordinator::resume(&dir).map_err(|e| e.to_string())?;
            print!("{}", coordinator.render_status());
            Ok(ExitCode::SUCCESS)
        }
        [sub] if sub == "top" => {
            let dir = PathBuf::from(opts.value("dir").unwrap_or("gdf-fleet"));
            let interval = Duration::from_secs(opts.number("interval")?.unwrap_or(2).max(1));
            let once = opts.switch("once");
            loop {
                // Re-resume each frame: the plan on disk is the source
                // of truth while a separate coordinator process drives
                // the campaign.
                let mut coordinator = Coordinator::resume(&dir).map_err(|e| e.to_string())?;
                let frame = format!(
                    "gdf fleet top — {} (campaign trace {})\n\n{}",
                    dir.display(),
                    coordinator.trace().header_value(),
                    coordinator.render_status()
                );
                if once {
                    print!("{frame}");
                    return Ok(ExitCode::SUCCESS);
                }
                refresh_frame(&frame);
                std::thread::sleep(interval);
            }
        }
        _ => Err("usage: gdf fleet <status|top> [--dir DIR] [--interval SECS] [--once]".into()),
    }
}

/// Clears the terminal and paints one dashboard frame (plain ANSI —
/// no terminal library, works in any VT100-descendant).
fn refresh_frame(frame: &str) {
    use std::io::Write;
    print!("\x1b[2J\x1b[H{frame}");
    std::io::stdout().flush().ok();
}

/// `gdf report <RUN.json>... [--diff]`: renders saved runs as Table 3
/// rows, or compares two. `--diff` is its only option.
fn cmd_report(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(args, &[], &["diff"])?;
    if opts.positional.is_empty() {
        return Err("expected at least one RUN.json argument".into());
    }
    if opts.switch("diff") {
        let [a, b] = opts.positional.as_slice() else {
            return Err("--diff expects exactly two RUN.json arguments".into());
        };
        return diff_runs(a, b);
    }
    println!("{}", CircuitReport::header());
    for path in &opts.positional {
        let artifact = RunArtifact::load(path).map_err(|e| e.to_string())?;
        match artifact.report() {
            Some(report) => println!("{}", report.line()),
            None => println!(
                "{:<12} partial checkpoint: {}/{} faults decided, {} sequences",
                artifact.circuit.name,
                artifact.decided(),
                artifact.total(),
                artifact.sequences()
            ),
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `gdf compact --dir DIR [-o OUT.json]`: loads every `<name>.run.json`
/// in the campaign directory, compacts each run with the reverse-order
/// greedy of `gdf_core::compact_sequences` and writes one compacted
/// pattern document. Each per-circuit compacted set is then re-graded
/// against the full (uncompacted) export of the same run — compaction
/// must not lose a single graded detection, or the command fails.
fn cmd_compact(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(args, &["dir", "out"], &[])?;
    if let Some(extra) = opts.positional.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let dir = PathBuf::from(opts.value("dir").unwrap_or("gdf-campaign"));
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".run.json"))
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("no *.run.json artifacts in {}", dir.display()));
    }
    let mut inputs = Vec::new();
    for path in &paths {
        let artifact = RunArtifact::load(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let circuit = artifact
            .circuit
            .resolve()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        inputs.push((circuit, artifact));
    }
    let set = compact_campaign(&inputs).map_err(|e| e.to_string())?;
    // Re-grade: the compacted set must detect everything the full
    // export of the same run detects, circuit by circuit.
    for ((circuit, artifact), compacted) in inputs.iter().zip(&set.sets) {
        let config = artifact.config();
        let run = artifact.to_run(circuit).map_err(|e| e.to_string())?;
        let full = PatternSet::from_run(
            circuit,
            &run,
            &config.backend.to_string(),
            config.seed,
            Some(artifact.circuit.clone()),
        );
        let universe = config.universe;
        let before = grade_patterns(circuit, &full, config.model, &universe, config.seed)
            .map_err(|e| e.to_string())?;
        let after = grade_patterns(circuit, compacted, config.model, &universe, config.seed)
            .map_err(|e| e.to_string())?;
        if after.detected() < before.detected() {
            return Err(format!(
                "{}: compaction lost coverage ({} -> {} of {} faults)",
                circuit.name(),
                before.detected(),
                after.detected(),
                after.total_faults
            ));
        }
        println!(
            "{:<12} {:>5} -> {:>4} sequences, {}/{} faults re-graded detected",
            circuit.name(),
            full.patterns.len(),
            compacted.patterns.len(),
            after.detected(),
            after.total_faults
        );
    }
    println!(
        "compact: {} -> {} vectors over {} circuit(s) ({:.1}% kept)",
        set.patterns_before,
        set.patterns_after,
        set.sets.len(),
        100.0 * (1.0 - set.reduction()),
    );
    let out = opts
        .value("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| dir.join("patterns.compact.json"));
    set.save(&out).map_err(|e| e.to_string())?;
    println!("compact: wrote {}", out.display());
    Ok(ExitCode::SUCCESS)
}

/// `gdf store <stats|gc> --dir DIR`: inspect or garbage-collect the
/// content-addressed store under `<dir>/store` — the layout shared by
/// `gdf serve`, `gdf campaign --cache` and the fleet coordinator.
fn cmd_store(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(args, &["dir"], &[])?;
    let dir = PathBuf::from(opts.value("dir").unwrap_or("."));
    match opts.positional.as_slice() {
        [sub] if sub == "stats" => {
            let store = Store::open(dir.join("store")).map_err(|e| e.to_string())?;
            println!("{}", store.stats().map_err(|e| e.to_string())?);
            Ok(ExitCode::SUCCESS)
        }
        [sub] if sub == "gc" => {
            let store = Store::open(dir.join("store")).map_err(|e| e.to_string())?;
            println!("{}", store.gc().map_err(|e| e.to_string())?);
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("usage: gdf store <stats|gc> [--dir DIR]".into()),
    }
}

/// Lists the embedded suite circuits with their gate/DFF counts and
/// per-model fault-universe sizes, so `suite:<name>` refs are
/// discoverable without reading source. The fault counts come from the
/// lazy [`gdf::netlist::FaultSet`] — nothing is materialized.
fn cmd_suite(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(args, &["universe"], &[])?;
    if !opts.positional.is_empty() {
        return Err("suite takes no positional arguments".into());
    }
    let universe = opts
        .value("universe")
        .map(FaultUniverse::parse_name)
        .transpose()?
        .unwrap_or_default();
    println!(
        "{:<14} {:>6} {:>6} {:>6} {:>8} {:>7} {:>8}",
        "ref", "inputs", "dffs", "gates", "outputs", "faults", "classes"
    );
    for circuit in suite::full_suite() {
        let reference = circuit.name().trim_end_matches("_syn").to_string();
        let stats = circuit.stats();
        let model = ModelKind::Delay.model();
        let faults = gdf::netlist::FaultSet::new(&circuit, universe, ModelKind::Delay).len();
        let universe_list: Vec<_> = model.enumerate(&circuit, &universe).collect();
        let classes = model
            .collapse(&circuit, &universe_list)
            .representatives
            .len();
        println!(
            "suite:{:<8} {:>6} {:>6} {:>6} {:>8} {:>7} {:>8}",
            reference,
            stats.num_inputs,
            stats.num_dffs,
            stats.num_gates,
            stats.num_outputs,
            faults,
            classes
        );
    }
    println!(
        "\nuniverse: {} (2 faults per site, every model) — run one with \
         `gdf run suite:<name>`, e.g. `gdf run suite:s27 --model transition`",
        opts.value("universe").unwrap_or("full")
    );
    Ok(ExitCode::SUCCESS)
}

/// Compares two completed run artifacts modulo wall-clock; exit 0 iff
/// the artifacts are byte-identical in canonical form. Specific
/// differences (config, records, sequences, reports, coverage) are
/// named; anything the named checks miss is still caught by the final
/// canonical-encoding comparison, so a nonzero exit is guaranteed
/// whenever the artifacts differ — scripts and CI key on that.
fn diff_runs(a: &str, b: &str) -> Result<ExitCode, String> {
    let load = |path: &str| -> Result<(RunArtifact, AtpgRun), String> {
        let artifact = RunArtifact::load(path).map_err(|e| format!("{path}: {e}"))?;
        let circuit = artifact.circuit.resolve().map_err(|e| e.to_string())?;
        let run = artifact
            .to_run(&circuit)
            .map_err(|e| format!("{path}: {e}"))?;
        Ok((artifact, run))
    };
    let (artifact_a, run_a) = load(a)?;
    let (artifact_b, run_b) = load(b)?;
    let mut differences = Vec::new();
    if artifact_a.config() != artifact_b.config() {
        differences.push("configurations differ (backend/model/universe/limits/seed)".to_string());
    }
    if run_a.records != run_b.records {
        let first = run_a
            .records
            .iter()
            .zip(&run_b.records)
            .position(|(x, y)| x != y);
        differences.push(format!("records differ (first at index {:?})", first));
    }
    if run_a.sequences != run_b.sequences {
        differences.push("sequences differ".to_string());
    }
    if run_a.relied_ppos != run_b.relied_ppos {
        differences.push("relied-PPO lists differ".to_string());
    }
    if run_a.report.row.normalized() != run_b.report.row.normalized() {
        differences.push(format!(
            "reports differ: {} vs {}",
            run_a.report.row.normalized(),
            run_b.report.row.normalized()
        ));
    }
    if run_a.report.coverage != run_b.report.coverage {
        differences.push(format!(
            "coverage differs: {} vs {}",
            run_a.report.coverage, run_b.report.coverage
        ));
    }
    if differences.is_empty() && artifact_a.canonical_encode() != artifact_b.canonical_encode() {
        differences.push("artifacts differ outside the compared fields".to_string());
    }
    if differences.is_empty() {
        println!("identical: {} == {} (modulo wall-clock)", a, b);
        Ok(ExitCode::SUCCESS)
    } else {
        for d in &differences {
            eprintln!("diff: {d}");
        }
        Ok(ExitCode::FAILURE)
    }
}

// ---------------------------------------------------------------------
// The job server and its remote controls
// ---------------------------------------------------------------------

fn client_from(opts: &Opts) -> Result<Client, String> {
    let addr = opts
        .value("addr")
        .ok_or("--addr <HOST:PORT> is required for remote commands")?;
    let mut client = Client::new(addr);
    // `--token` authenticates against a multi-tenant server
    // (`gdf serve --tenants`); open servers ignore the header.
    if let Some(token) = opts.value("token") {
        client = client.with_token(token);
    }
    Ok(client)
}

fn job_id_arg(opts: &Opts, what: &str) -> Result<u64, String> {
    let [arg] = opts.positional.as_slice() else {
        return Err(format!("expected exactly one {what} argument"));
    };
    arg.parse().map_err(|_| format!("bad job id `{arg}`"))
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(
        args,
        &[
            "addr",
            "dir",
            "workers",
            "queue-capacity",
            "checkpoint-every",
            "tenants",
        ],
        &["no-obs"],
    )?;
    if !opts.positional.is_empty() {
        return Err("serve takes no positional arguments".into());
    }
    let addr = opts.value("addr").unwrap_or("127.0.0.1:4817");
    let dir = opts.value("dir").unwrap_or("gdf-jobs");
    let mut config = ServeConfig::new(addr, dir);
    if let Some(workers) = opts.number("workers")? {
        config = config.with_workers(workers as usize);
    }
    if let Some(capacity) = opts.number("queue-capacity")? {
        config = config.with_queue_capacity(capacity as usize);
    }
    if let Some(every) = opts.number("checkpoint-every")? {
        config = config.with_checkpoint_every(every as usize);
    }
    if opts.switch("no-obs") {
        config = config.with_obs(false);
    }
    let mut tenant_count = None;
    if let Some(path) = opts.value("tenants") {
        let registry = TenantRegistry::load(path).map_err(|e| format!("--tenants {path}: {e}"))?;
        tenant_count = Some(registry.tenants.len());
        config = config.with_tenants(registry);
    }
    let workers = config.workers;
    let server = JobServer::start(config).map_err(|e| e.to_string())?;
    match tenant_count {
        Some(n) => println!(
            "gdf serve: listening on {} ({} workers, jobs in {dir}, {n} tenants)",
            server.local_addr(),
            workers
        ),
        None => println!(
            "gdf serve: listening on {} ({} workers, jobs in {dir})",
            server.local_addr(),
            workers
        ),
    }
    #[cfg(unix)]
    {
        // Graceful degradation: SIGTERM drains (stop accepting,
        // checkpoint running jobs at their next fault boundary, leave
        // the queue persisted) and exits 0; a restarted server — or a
        // fleet coordinator stealing the units — resumes everything.
        // kill -9 remains the crash path the recovery tests cover.
        sigterm::arm();
        while !sigterm::received() {
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        println!("gdf serve: SIGTERM received, draining");
        server.drain();
        server.shutdown();
        println!("gdf serve: drained, exiting");
        Ok(ExitCode::SUCCESS)
    }
    #[cfg(not(unix))]
    {
        server.wait();
        Ok(ExitCode::SUCCESS)
    }
}

/// Minimal `SIGTERM` latch on the libc `signal(2)` already linked via
/// std — no new dependencies, no sigaction plumbing. The handler only
/// flips an atomic; all real work happens on the main thread.
#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    static RECEIVED: AtomicBool = AtomicBool::new(false);
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigterm(_signum: i32) {
        RECEIVED.store(true, Ordering::SeqCst);
    }

    /// Installs the handler. Call once, before waiting.
    pub fn arm() {
        unsafe {
            signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize);
        }
    }

    /// Whether a `SIGTERM` has arrived since [`arm`].
    pub fn received() -> bool {
        RECEIVED.load(Ordering::SeqCst)
    }
}

fn cmd_submit(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(
        args,
        &[
            "addr",
            "token",
            "backend",
            "model",
            "sensitization",
            "universe",
            "seed",
            "parallelism",
            "checkpoint-every",
            // Read only to be refused with a hint below.
            "time-budget",
            "abort-after",
            "out",
            "patterns",
        ],
        &["wait", "follow", "quiet"],
    )?;
    let [spec] = opts.positional.as_slice() else {
        return Err("expected exactly one CIRCUIT argument".into());
    };
    // Options other subcommands own must fail loudly here, not be
    // silently dropped from the submission.
    for (name, hint) in [
        ("time-budget", "jobs run unbudgeted server-side"),
        ("abort-after", "use `gdf cancel` to stop a remote job"),
        ("out", "use `gdf fetch <JOB> -o …` once the job is done"),
        (
            "patterns",
            "use `gdf fetch <JOB> --patterns …` once the job is done",
        ),
    ] {
        if opts.value(name).is_some() {
            return Err(format!("--{name} is not supported by `gdf submit`; {hint}"));
        }
    }
    let client = client_from(&opts)?;
    let config = config_from_opts(&opts)?;
    let body = if let Some(name) = spec.strip_prefix("suite:") {
        suite::by_name(name).ok_or_else(|| format!("unknown suite circuit `{name}`"))?;
        submission_for_suite(&format!("suite:{name}"), &config)
    } else {
        let path = Path::new(spec);
        let text = std::fs::read_to_string(path).map_err(|e| format!("{spec}: {e}"))?;
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("circuit");
        submission_for_bench(name, &text, &config)
    };
    let parallelism = opts.number("parallelism")?.unwrap_or(1) as usize;
    // No explicit cadence flag -> omit the field, so the server's
    // configured --checkpoint-every default applies.
    let every = opts.number("checkpoint-every")?.map(|n| n as usize);
    let body = submission_with_runtime(body, parallelism, every);
    let id = client.submit(&body).map_err(|e| e.to_string())?;
    // The bare id on stdout so scripts can capture it.
    println!("{id}");
    if opts.switch("follow") {
        follow_events(&client, id, opts.switch("quiet"))?;
    }
    if opts.switch("wait") || opts.switch("follow") {
        let status = client
            .wait(id, Duration::from_millis(100), None)
            .map_err(|e| e.to_string())?;
        return finish_remote_job(&status);
    }
    Ok(ExitCode::SUCCESS)
}

/// Streams `/events`, printing one line per decile of progress (and the
/// terminal events), until the server closes the stream.
fn follow_events(client: &Client, id: u64, quiet: bool) -> Result<(), String> {
    let mut last_decile = 0usize;
    client
        .events(id, |event| {
            if quiet {
                return true;
            }
            match event {
                ProgressEvent::Started {
                    engine,
                    circuit,
                    total_faults,
                } => eprintln!("[job {id}] {engine} on {circuit}: {total_faults} faults"),
                ProgressEvent::Progress { decided, total } => {
                    let decile = 10 * decided / total.max(1);
                    if decile > last_decile {
                        last_decile = decile;
                        eprintln!("[job {id}] {decided}/{total} faults decided");
                    }
                }
                ProgressEvent::Finished {
                    tested,
                    untestable,
                    aborted,
                    ..
                } => eprintln!(
                    "[job {id}] finished: {tested} tested, {untestable} untestable, \
                     {aborted} aborted"
                ),
                _ => {}
            }
            true
        })
        .map_err(|e| e.to_string())
}

/// Renders a terminal status document; exit code reflects the outcome.
fn finish_remote_job(status: &Json) -> Result<ExitCode, String> {
    print_remote_status(status);
    match status.get("state").and_then(Json::as_str) {
        Some("done") => Ok(ExitCode::SUCCESS),
        _ => Ok(ExitCode::FAILURE),
    }
}

fn print_remote_status(status: &Json) {
    let text = |key: &str| {
        status
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let count = |key: &str| status.get(key).and_then(Json::as_u64).unwrap_or(0);
    let mut line = format!(
        "job {}: {} ({}, {}) {}/{} faults",
        count("id"),
        text("state"),
        text("circuit"),
        text("backend"),
        count("decided"),
        count("total"),
    );
    if let Some(report) = status.get("report").filter(|r| !r.is_null()) {
        let r = |key: &str| report.get(key).and_then(Json::as_u64).unwrap_or(0);
        line.push_str(&format!(
            " — tested {} untestable {} aborted {} patterns {} sequences {}",
            r("tested"),
            r("untestable"),
            r("aborted"),
            r("patterns"),
            r("sequences"),
        ));
    }
    if let Some(error) = status.get("error").and_then(Json::as_str) {
        line.push_str(&format!(" — error: {error}"));
    }
    println!("{line}");
}

fn cmd_status(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(args, &["addr", "token"], &["follow", "quiet"])?;
    let client = client_from(&opts)?;
    match opts.positional.as_slice() {
        [] => {
            let health = client.healthz().map_err(|e| e.to_string())?;
            let count = |key: &str| health.get(key).and_then(Json::as_u64).unwrap_or(0);
            println!(
                "server {}: {} jobs ({} running, {} queued), {} workers",
                client.addr(),
                count("jobs"),
                count("running"),
                count("queued"),
                count("workers"),
            );
            let list = client.list().map_err(|e| e.to_string())?;
            for job in list
                .get("jobs")
                .and_then(Json::as_array)
                .unwrap_or_default()
            {
                print_remote_status(job);
            }
            Ok(ExitCode::SUCCESS)
        }
        [_] => {
            let id = job_id_arg(&opts, "JOB")?;
            if opts.switch("follow") {
                follow_events(&client, id, opts.switch("quiet"))?;
            }
            let status = client.status(id).map_err(|e| e.to_string())?;
            print_remote_status(&status);
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("expected at most one JOB argument".into()),
    }
}

fn cmd_fetch(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(args, &["addr", "token", "out", "patterns"], &[])?;
    let id = job_id_arg(&opts, "JOB")?;
    let client = client_from(&opts)?;
    let artifact = client.artifact(id).map_err(|e| e.to_string())?;
    match opts.value("out") {
        Some(path) => {
            std::fs::write(path, &artifact).map_err(|e| format!("{path}: {e}"))?;
            println!("job {id} artifact -> {path}");
        }
        None => print!("{artifact}"),
    }
    if let Some(path) = opts.value("patterns") {
        let patterns = client.patterns(id).map_err(|e| e.to_string())?;
        std::fs::write(path, &patterns).map_err(|e| format!("{path}: {e}"))?;
        println!("job {id} patterns -> {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_cancel(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(args, &["addr", "token"], &[])?;
    let id = job_id_arg(&opts, "JOB")?;
    let client = client_from(&opts)?;
    let outcome = client.delete(id).map_err(|e| e.to_string())?;
    println!(
        "job {id}: {}",
        outcome.get("action").and_then(Json::as_str).unwrap_or("?")
    );
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------
// Observability front ends
// ---------------------------------------------------------------------

/// One parsed exposition sample: `(metric name, label body, value)`.
/// `gdf_x{a="b"} 3` parses to `("gdf_x", "a=\"b\"", 3.0)`.
fn parse_exposition(text: &str) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => (name, rest.trim_end_matches('}')),
            None => (series, ""),
        };
        out.push((name.to_string(), labels.to_string(), value));
    }
    out
}

/// Extracts one label's value from a label body:
/// `label_value("phase=\"fsim\",quantile=\"0.5\"", "phase")` -> `fsim`.
fn label_value<'a>(labels: &'a str, key: &str) -> Option<&'a str> {
    labels.split(',').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == key).then(|| v.trim_matches('"'))
    })
}

/// Renders one `gdf top` frame from a `/metrics` exposition.
fn render_top(addr: &str, text: &str) -> String {
    use std::fmt::Write;
    let samples = parse_exposition(text);
    let get = |name: &str| -> f64 {
        samples
            .iter()
            .find(|(n, l, _)| n == name && l.is_empty())
            .map(|(_, _, v)| *v)
            .unwrap_or(0.0)
    };
    let quantile = |name: &str, q: &str| -> f64 {
        samples
            .iter()
            .find(|(n, l, _)| n == name && label_value(l, "quantile") == Some(q))
            .map(|(_, _, v)| *v)
            .unwrap_or(0.0)
    };
    let mut out = String::new();
    let _ = writeln!(out, "gdf top — {addr}\n");
    let _ = writeln!(
        out,
        "  jobs      {} completed, {} failed, {} cache hits, {} traces",
        get("gdf_jobs_completed_total"),
        get("gdf_jobs_failed_total"),
        get("gdf_cache_hits_total"),
        get("gdf_traces_written_total"),
    );
    let _ = writeln!(
        out,
        "  pool      {}/{} workers busy ({:.0}%), queue depth {}, {} running, {} queued{}",
        get("gdf_workers_busy"),
        get("gdf_workers"),
        get("gdf_worker_utilization") * 100.0,
        get("gdf_queue_depth"),
        get("gdf_jobs_running"),
        get("gdf_jobs_queued"),
        if get("gdf_draining") > 0.0 {
            "  [DRAINING]"
        } else {
            ""
        },
    );
    let _ = writeln!(
        out,
        "  store     {} objects, {} bytes",
        get("gdf_store_objects"),
        get("gdf_store_bytes"),
    );
    let _ = writeln!(
        out,
        "  latency   p50 {:.3}s  p90 {:.3}s  p99 {:.3}s  ({} jobs)",
        quantile("gdf_job_latency_seconds", "0.5"),
        quantile("gdf_job_latency_seconds", "0.9"),
        quantile("gdf_job_latency_seconds", "0.99"),
        get("gdf_job_latency_seconds_count"),
    );
    // Per-phase breakdown, busiest first.
    let mut phases: Vec<(&str, f64, f64)> = samples
        .iter()
        .filter(|(n, _, _)| n == "gdf_engine_phase_seconds_sum")
        .filter_map(|(_, l, v)| {
            let phase = label_value(l, "phase")?;
            let count = samples
                .iter()
                .find(|(n, l2, _)| {
                    n == "gdf_engine_phase_seconds_count" && label_value(l2, "phase") == Some(phase)
                })
                .map(|(_, _, c)| *c)
                .unwrap_or(0.0);
            Some((phase, *v, count))
        })
        .filter(|(_, _, count)| *count > 0.0)
        .collect();
    phases.sort_by(|a, b| b.1.total_cmp(&a.1));
    if !phases.is_empty() {
        let _ = writeln!(out, "\n  {:<16} {:>10} {:>12}", "phase", "spans", "total");
        for (phase, sum, count) in phases {
            let _ = writeln!(out, "  {phase:<16} {count:>10} {sum:>11.3}s");
        }
    }
    // Per-tenant admission table (multi-tenant servers only): one row
    // per tenant seen in the gdf_tenant_* families.
    let mut tenants: Vec<String> = samples
        .iter()
        .filter(|(n, _, _)| n == "gdf_tenant_admitted_total")
        .filter_map(|(_, l, _)| label_value(l, "tenant").map(str::to_string))
        .collect();
    tenants.sort();
    tenants.dedup();
    if !tenants.is_empty() {
        let labeled = |name: &str, tenant: &str| -> f64 {
            samples
                .iter()
                .find(|(n, l, _)| n == name && label_value(l, "tenant") == Some(tenant))
                .map(|(_, _, v)| *v)
                .unwrap_or(0.0)
        };
        let _ = writeln!(
            out,
            "\n  {:<16} {:>8} {:>8} {:>10} {:>10}",
            "tenant", "queued", "running", "admitted", "rejected"
        );
        for tenant in tenants {
            let _ = writeln!(
                out,
                "  {:<16} {:>8} {:>8} {:>10} {:>10}",
                tenant,
                labeled("gdf_tenant_queued", &tenant),
                labeled("gdf_tenant_running", &tenant),
                labeled("gdf_tenant_admitted_total", &tenant),
                labeled("gdf_tenant_rejected_total", &tenant),
            );
        }
    }
    // HTTP request counters, busiest first.
    let mut http: Vec<(String, f64)> = samples
        .iter()
        .filter(|(n, _, _)| n == "gdf_http_requests_total")
        .filter_map(|(_, l, v)| {
            let method = label_value(l, "method")?;
            let path = label_value(l, "path")?;
            let status = label_value(l, "status")?;
            Some((format!("{method} {path} -> {status}"), *v))
        })
        .filter(|(_, v)| *v > 0.0)
        .collect();
    http.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    if !http.is_empty() {
        let _ = writeln!(out, "\n  {:<34} {:>8}", "http", "requests");
        for (route, count) in http {
            let _ = writeln!(out, "  {route:<34} {count:>8}");
        }
    }
    out
}

/// `gdf top --addr HOST:PORT [--interval SECS] [--once]`: a live
/// dashboard over `GET /metrics` — same bytes Prometheus would scrape,
/// rendered for a terminal and refreshed in place.
fn cmd_top(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(args, &["addr", "token", "interval"], &["once"])?;
    if !opts.positional.is_empty() {
        return Err("top takes no positional arguments".into());
    }
    let client = client_from(&opts)?;
    let interval = Duration::from_secs(opts.number("interval")?.unwrap_or(2).max(1));
    let once = opts.switch("once");
    loop {
        let text = client.metrics().map_err(|e| e.to_string())?;
        let frame = render_top(client.addr(), &text);
        if once {
            print!("{frame}");
            return Ok(ExitCode::SUCCESS);
        }
        refresh_frame(&frame);
        std::thread::sleep(interval);
    }
}

/// `gdf trace export <TRACE.ndjson> --chrome [-o OUT.json]`: converts a
/// server-written NDJSON job trace into the chrome://tracing (and
/// Perfetto) JSON event format.
fn cmd_trace(args: &[String]) -> Result<ExitCode, String> {
    let opts = Opts::parse(args, &["out"], &["chrome"])?;
    match opts.positional.as_slice() {
        [sub, path] if sub == "export" => {
            if !opts.switch("chrome") {
                return Err("specify an export format: --chrome".into());
            }
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let converted = gdf::obs::chrome_trace(&text)?.pretty();
            match opts.value("out") {
                Some(out) => {
                    std::fs::write(out, &converted).map_err(|e| format!("{out}: {e}"))?;
                    println!("{path} -> {out}");
                }
                None => println!("{converted}"),
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("usage: gdf trace export <TRACE.ndjson> --chrome [-o OUT.json]".into()),
    }
}
