//! `table3_atpg`: the paper's workload — robust non-scan gate-delay ATPG
//! (TDgen + SEMILET, Figure 4, with the §5 fault-simulation drop pass)
//! over the Table 3 circuits that finish in seconds.
//!
//! Traced, it splits a serial run into the engine's generate and credit
//! steps (from `Observer` callback gaps) and re-runs each targeted fault
//! through `TdGen::generate`, `propagate_to_po` and `synchronize`
//! directly, timing each call.

use crate::{detail, digest, median, Args, Calibration, EndToEnd, Report, Tally};
use gdf::algebra::{Logic3, StaticSet, StaticValue};
use gdf::core::artifact::{PatternSet, RunArtifact};
use gdf::core::session::grade_patterns;
use gdf::core::{
    Atpg, AtpgRun, Backend, FaultClassification, FaultRecord, Limits, Observer, RunConfig,
    TestSequence,
};
use gdf::netlist::{suite, Circuit, FaultUniverse, ModelKind};
use gdf::semilet::justify::SyncLimits;
use gdf::semilet::propagate::PropagateLimits;
use gdf::semilet::{propagate_to_po, synchronize, PropagateOutcome, SyncOutcome};
use gdf::tdgen::{
    LocalObservation, LocalTest, PpoValue, Sensitization, TdGen, TdGenConfig, TdGenOutcome,
};
use std::time::Instant;

/// The Table 3 rows the untraced workload runs, serially. At parallelism
/// 2 the same runs of one row spread by 20 % between processes: both vCPUs
/// run search threads, and the reference kernel can time only one of
/// them. Serially they spread by 6 to 13 %, and `s386_syn` (13 s serial)
/// no longer fits a 20 s pass.
const CIRCUITS: [&str; 4] = ["s27", "s208", "s298", "s344"];
/// The rows a traced run splits into layers (serially, so the largest
/// rows are left out to keep the traced run near its time budget).
const TRACE_CIRCUITS: [&str; 3] = ["s27", "s208", "s298"];
/// Nominal seconds of one untraced pass over `CIRCUITS`.
const PASS_SECONDS: f64 = 20.0;
/// Leading rows (`s27`, `s208_syn`) re-run in parallel after the timed
/// passes, to check that repeats of one seed give the same bytes.
const REPEATED_ROWS: usize = 2;
/// X-fill seed of the untraced workload's ATPG runs. The seed decides
/// which faults fault simulation credits, and so how many faults the
/// search targets and aborts: across workload seeds that moved one row's
/// time by up to 30 %, with 4 rows a run. One fixed seed makes every run
/// the same search, as in the paper's single run per circuit, so this
/// workload takes no input from the workload seed.
const XFILL_SEED: u64 = 1995;
/// Set-ups whose median is `setup_s`.
const SETUP_REPS: usize = 21;
/// The row a layer probe of another workload's traced run uses.
const PROBE_CIRCUITS: [&str; 1] = ["s27"];

/// Times spent building the circuits, enumerating their delay faults
/// and warming their cone tables (the `gdf_netlist` layer), as medians
/// over several set-ups.
pub struct NetlistTimes {
    pub build_s: f64,
    pub enumerate_s: f64,
    pub cone_warm_s: f64,
}

impl NetlistTimes {
    pub fn report(&self, report: &mut Report) {
        report.metric("netlist.build_s", self.build_s, "s");
        report.metric("netlist.enumerate_s", self.enumerate_s, "s");
        report.metric("netlist.cone_warm_s", self.cone_warm_s, "s");
    }
}

/// Builds circuits with `build`, `reps` times, and times each netlist
/// step; returns the medians and the circuits of the last repetition.
pub fn set_up(
    reps: usize,
    mut build: impl FnMut() -> Vec<Circuit>,
) -> (NetlistTimes, Vec<Circuit>) {
    let (mut b, mut e, mut w) = (Vec::new(), Vec::new(), Vec::new());
    let mut circuits = Vec::new();
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        circuits = build();
        let t1 = Instant::now();
        let faults: usize = circuits
            .iter()
            .map(|c| FaultUniverse::default().delay_faults(c).len())
            .sum();
        std::hint::black_box(faults);
        let t2 = Instant::now();
        for c in &circuits {
            std::hint::black_box(c.cone_words(c.inputs()[0]));
        }
        let t3 = Instant::now();
        b.push((t1 - t0).as_secs_f64());
        e.push((t2 - t1).as_secs_f64());
        w.push((t3 - t2).as_secs_f64());
    }
    let times = NetlistTimes {
        build_s: crate::median(&b),
        enumerate_s: crate::median(&e),
        cone_warm_s: crate::median(&w),
    };
    (times, circuits)
}

fn table3_circuits(names: &[&str]) -> Vec<Circuit> {
    names
        .iter()
        .map(|n| suite::table3_circuit(n).expect("Table 3 profile exists"))
        .collect()
}

/// Canonical bytes of a run, the unit of every equality check.
fn canonical(c: &Circuit, run: &AtpgRun, seed: u64) -> String {
    RunArtifact::from_run(
        c,
        run,
        RunConfig::new(Backend::NonScan).with_seed(seed),
        None,
    )
    .canonical_encode()
}

/// The correctness checks of one run: class counts sum to the universe,
/// and re-grading the exported patterns detects every `Tested` fault.
fn check_run(tally: &mut Tally, c: &Circuit, run: &AtpgRun, seed: u64) {
    let row = &run.report.row;
    let universe = FaultUniverse::default().delay_faults(c).len();
    tally.check(
        (row.tested + row.untestable + row.aborted) as usize == universe
            && run.records.len() == universe,
        || format!("{}: class counts do not sum to {universe}", c.name()),
    );
    let set = PatternSet::from_run(c, run, "non-scan", seed, None);
    let graded = grade_patterns(c, &set, ModelKind::Delay, &FaultUniverse::default(), seed);
    let missed = match &graded {
        Ok(g) if g.first_detector.len() == run.records.len() => run
            .records
            .iter()
            .zip(&g.first_detector)
            .filter(|(r, d)| r.classification == FaultClassification::Tested && d.is_none())
            .count(),
        _ => usize::MAX,
    };
    tally.check(missed == 0, || {
        format!("{}: re-grading misses {missed} tested faults", c.name())
    });
}

/// Prints each row next to the paper's Table 3 figures (information only).
fn fidelity(c: &Circuit, run: &AtpgRun) {
    let row = &run.report.row;
    let base = c.name().trim_end_matches("_syn");
    let paper = suite::TABLE3_PAPER_RESULTS
        .iter()
        .find(|r| r.0 == base)
        .map(|r| format!("{}/{}/{}/{}", r.1, r.2, r.3, r.4))
        .unwrap_or_else(|| "-".into());
    let note = if c.name() == "s27" {
        "exact ISCAS'89 netlist"
    } else {
        "synthetic stand-in, unvalidated against the paper: no error figure"
    };
    detail(&format!(
        "table3 {:<9} tested/untestable/aborted/patterns {}/{}/{}/{}  paper {paper}  ({note})",
        c.name(),
        row.tested,
        row.untestable,
        row.aborted,
        row.patterns
    ));
}

pub fn run(args: &Args) -> Result<Report, String> {
    if args.trace {
        return trace_home(args);
    }
    let mut report = Report::default();
    let seed = XFILL_SEED;
    // Every time is scaled to the reference host speed.
    let mut cal = Calibration::default();
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| cal.time(|| set_up(1, || table3_circuits(&CIRCUITS))).1)
        .collect();
    let circuits = table3_circuits(&CIRCUITS);

    // Whole passes over the rows: one pass takes about 20 s on a 2-vCPU
    // Xeon, so a run takes about `--seconds`.
    let passes = (args.seconds / PASS_SECONDS).round().max(1.0) as usize;
    let mut latencies = Vec::new();
    let mut classified = 0usize;
    let mut busy = 0.0f64;
    let mut first: Vec<Option<(AtpgRun, u64)>> = circuits.iter().map(|_| None).collect();
    let mut digests_ok = true;
    for i in (0..passes * circuits.len()).map(|n| n % circuits.len()) {
        let c = &circuits[i];
        let (run, dt) = cal.time(|| Atpg::builder(c).seed(seed).build().run());
        latencies.push(dt * 1e3);
        busy += dt;
        classified += run.records.len();
        report.tally.op(run.stopped.is_none(), || {
            format!("{} stopped early", c.name())
        });
        let d = digest(canonical(c, &run, seed).as_bytes());
        match &first[i] {
            None => first[i] = Some((run, d)),
            Some((_, d0)) => digests_ok &= d == *d0,
        }
    }
    let first: Vec<(AtpgRun, u64)> = first.into_iter().flatten().collect();

    // Outside the timed region: correctness and fidelity. Repeats of the
    // quick rows at parallelism `nproc` must give the serial passes' bytes.
    for (i, c) in circuits.iter().enumerate().take(REPEATED_ROWS) {
        let again = Atpg::builder(c)
            .seed(seed)
            .parallelism(args.nproc())
            .build()
            .run();
        digests_ok &= digest(canonical(c, &again, seed).as_bytes()) == first[i].1;
    }
    report.tally.check(digests_ok, || {
        "result digests differ across repeats of one seed".into()
    });
    let (mut tested, mut total, mut aborted, mut patterns) = (0u32, 0u32, 0u32, 0u32);
    for (c, (run, _)) in circuits.iter().zip(&first) {
        check_run(&mut report.tally, c, run, seed);
        fidelity(c, run);
        let row = &run.report.row;
        tested += row.tested;
        total += row.total_faults();
        aborted += row.aborted;
        patterns += row.patterns;
    }
    let faults_per_s = classified as f64 / busy;
    let coverage = 100.0 * f64::from(tested) / f64::from(total.max(1));
    detail(&format!(
        "table3_atpg {passes} serial passes: atpg_faults_per_s {faults_per_s:.1} 1/s, \
         atpg_coverage_pct {coverage:.3} %, atpg_aborted {aborted} count, atpg_patterns {patterns} count; \
         reference kernel {:.3} ms",
        cal.kernel_ms()
    ));
    report.end_to_end(EndToEnd {
        setup_s: median(&setups),
        work_per_s: faults_per_s,
        latencies_ms: latencies,
    });
    Ok(report)
}

/// Times the merge thread's callbacks of a serial run: `cancelled` is
/// polled right before each targeted fault is generated, `on_fault`
/// reports it, and the credit pass of a detection runs between that
/// record and `on_sequence`.
#[derive(Default)]
struct EngineSplit {
    mark: Option<Instant>,
    credit_from: Option<Instant>,
    generate_calls: u64,
    generate_s: f64,
    aborted: u64,
    aborted_s: f64,
    untestable_s: f64,
    credit_calls: u64,
    credit_s: f64,
    dropped: u64,
}

impl Observer for EngineSplit {
    fn cancelled(&mut self) -> bool {
        self.mark = Some(Instant::now());
        false
    }

    fn on_fault(&mut self, record: &FaultRecord) {
        if record.by_simulation {
            self.dropped += 1;
            return;
        }
        let now = Instant::now();
        let Some(mark) = self.mark.take() else {
            return;
        };
        let dt = (now - mark).as_secs_f64();
        self.generate_calls += 1;
        self.generate_s += dt;
        match record.classification {
            FaultClassification::Tested => self.credit_from = Some(now),
            FaultClassification::Aborted => {
                self.aborted += 1;
                self.aborted_s += dt;
            }
            FaultClassification::Untestable => self.untestable_s += dt,
        }
    }

    fn on_sequence(&mut self, _index: usize, _sequence: &TestSequence) {
        if let Some(from) = self.credit_from.take() {
            self.credit_calls += 1;
            self.credit_s += from.elapsed().as_secs_f64();
        }
    }
}

/// Direct calls into TdGen and SEMILET for each targeted fault.
#[derive(Default)]
struct SearchSplit {
    tdgen_calls: u64,
    tdgen_s: f64,
    tdgen_aborted: u64,
    tdgen_untestable: u64,
    propagate_calls: u64,
    propagate_s: f64,
    propagate_aborted: u64,
    sync_calls: u64,
    sync_s: f64,
    sync_aborted: u64,
}

/// The 5-valued state a local test hands to SEMILET's propagation: the
/// latched fault effect, steady specifiable bits, and `Xf` elsewhere.
fn start_state(t: &LocalTest) -> Vec<StaticSet> {
    t.ppo_values
        .iter()
        .map(|v| match v {
            PpoValue::Steady0 => StaticSet::singleton(StaticValue::S0),
            PpoValue::Steady1 => StaticSet::singleton(StaticValue::S1),
            PpoValue::FaultEffect { good_one: true } => StaticSet::singleton(StaticValue::D),
            PpoValue::FaultEffect { good_one: false } => StaticSet::singleton(StaticValue::Db),
            PpoValue::UnjustifiableX => StaticSet::GOOD,
        })
        .collect()
}

impl SearchSplit {
    fn run(&mut self, c: &Circuit, run: &AtpgRun) {
        let limits = Limits::default();
        let gen = TdGen::with_config(
            c,
            TdGenConfig {
                backtrack_limit: limits.local_backtrack_limit,
                sensitization: Sensitization::Robust,
            },
        );
        for record in run.records.iter().filter(|r| !r.by_simulation) {
            let Some(fault) = record.fault.as_delay() else {
                continue;
            };
            let t = Instant::now();
            let outcome = gen.generate(fault);
            self.tdgen_s += t.elapsed().as_secs_f64();
            self.tdgen_calls += 1;
            let test = match outcome {
                TdGenOutcome::Test(test) => test,
                TdGenOutcome::Aborted => {
                    self.tdgen_aborted += 1;
                    continue;
                }
                TdGenOutcome::Untestable => {
                    self.tdgen_untestable += 1;
                    continue;
                }
            };
            if let LocalObservation::AtPpo { .. } = test.observation {
                let t = Instant::now();
                let out = propagate_to_po(
                    c,
                    &start_state(&test),
                    PropagateLimits {
                        backtrack_limit: limits.sequential_backtrack_limit,
                        max_frames: limits.max_propagation_frames,
                    },
                );
                self.propagate_s += t.elapsed().as_secs_f64();
                self.propagate_calls += 1;
                self.propagate_aborted += u64::from(matches!(out, PropagateOutcome::Aborted));
            }
            let targets: Vec<(usize, bool)> = test
                .required_state
                .iter()
                .enumerate()
                .filter_map(|(i, v): (usize, &Logic3)| v.to_bool().map(|b| (i, b)))
                .collect();
            let t = Instant::now();
            let out = synchronize(
                c,
                &targets,
                SyncLimits {
                    backtrack_limit: limits.sequential_backtrack_limit,
                    max_frames: limits.max_sync_frames,
                },
            );
            self.sync_s += t.elapsed().as_secs_f64();
            self.sync_calls += 1;
            self.sync_aborted += u64::from(matches!(out, SyncOutcome::Aborted));
        }
    }
}

/// Traces serial ATPG over `names`; returns the untraced and traced
/// seconds of the same runs (the tracing overhead).
fn trace_layers(args: &Args, circuits: &[Circuit], report: &mut Report) -> (f64, f64) {
    let seed = args.mixed_seed(0x7AB3);
    let mut engine = EngineSplit::default();
    let mut search = SearchSplit::default();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for c in circuits {
        let t = Instant::now();
        let plain = Atpg::builder(c).seed(seed).build().run();
        plain_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let traced = Atpg::builder(c)
            .seed(seed)
            .observer(&mut engine)
            .build()
            .run();
        traced_s += t.elapsed().as_secs_f64();
        report.tally.check(
            canonical(c, &plain, seed) == canonical(c, &traced, seed),
            || format!("{}: an observed run differs from a plain one", c.name()),
        );
        search.run(c, &traced);
    }
    let e = &engine;
    report.metric("core.generate.calls", e.generate_calls as f64, "count");
    report.metric("core.generate_s", e.generate_s, "s");
    report.metric("core.generate.aborted", e.aborted as f64, "count");
    report.metric("core.generate.aborted_s", e.aborted_s, "s");
    report.metric("core.generate.untestable_s", e.untestable_s, "s");
    report.metric("core.credit.calls", e.credit_calls as f64, "count");
    report.metric("core.credit_s", e.credit_s, "s");
    report.metric("core.credit.dropped", e.dropped as f64, "count");
    report.metric(
        "core.credit.drop_ratio",
        e.dropped as f64 / e.credit_calls.max(1) as f64,
        "ratio",
    );
    let s = &search;
    report.metric("tdgen.calls", s.tdgen_calls as f64, "count");
    report.metric("tdgen_s", s.tdgen_s, "s");
    report.metric("tdgen.aborted", s.tdgen_aborted as f64, "count");
    report.metric("tdgen.untestable", s.tdgen_untestable as f64, "count");
    report.metric("semilet.propagate.calls", s.propagate_calls as f64, "count");
    report.metric("semilet.propagate_s", s.propagate_s, "s");
    report.metric(
        "semilet.propagate.aborted",
        s.propagate_aborted as f64,
        "count",
    );
    report.metric("semilet.sync.calls", s.sync_calls as f64, "count");
    report.metric("semilet.sync_s", s.sync_s, "s");
    report.metric("semilet.sync.aborted", s.sync_aborted as f64, "count");
    (plain_s, traced_s)
}

fn trace_home(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (netlist, circuits) = set_up(9, || table3_circuits(&TRACE_CIRCUITS));
    netlist.report(&mut report);
    let (plain_s, traced_s) = trace_layers(args, &circuits, &mut report);
    report.metric(
        "trace_overhead_pct",
        100.0 * (traced_s - plain_s) / plain_s,
        "%",
    );
    Ok(report)
}

/// The engine and search layers on a small row, for another workload's
/// traced run (that workload never reaches them).
pub fn probe(args: &Args, report: &mut Report) {
    let circuits = table3_circuits(&PROBE_CIRCUITS);
    trace_layers(args, &circuits, report);
}
