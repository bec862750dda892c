//! `grade_gen10k`: §5 fault grading (`grade_patterns`, the `gdf grade`
//! path) of a seeded random pattern set against the full delay-fault
//! universe of a generated ~10k-gate circuit. TDgen and SEMILET are never
//! called; the cone bitsets (~14 MB) overflow the L2 cache.
//!
//! Traced, it grades the same set one sequence at a time through
//! `grading::grade_filled_sequence` and splits each call into its three
//! phases by differencing: the call with an empty candidate list and no
//! propagation frames runs phase 1 (good-machine simulation) only, with
//! the propagation frames it adds phase 2 (FAUSIM), and the full call
//! adds phase 3 (TDsim).

use crate::table3::set_up;
use crate::{detail, digest, median, Args, Calibration, EndToEnd, Report};
use gdf::algebra::Logic3;
use gdf::core::artifact::{CircuitSource, PatternEntry, PatternSet};
use gdf::core::session::{grade_patterns, GradeReport};
use gdf::core::{DelayAtpg, DelayAtpgConfig, TestSequence};
use gdf::netlist::generator::{generate, CircuitProfile};
use gdf::netlist::{Circuit, DelayFault, FaultUniverse, ModelKind};
use gdf::sim::grading::{grade_filled_sequence, GradeScratch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Shape of one graded circuit and its pattern set.
struct Shape {
    name: &'static str,
    pi: usize,
    po: usize,
    dff: usize,
    gates: usize,
    sequences: usize,
}

/// The workload: 32 PI, 32 PO, 500 DFF, 10k gates; sets of 16 sequences.
const GEN10K: Shape = Shape {
    name: "gen10k",
    pi: 32,
    po: 32,
    dff: 500,
    gates: 10_000,
    sequences: 16,
};

/// The layer probe for another workload's traced run.
const PROBE: Shape = Shape {
    name: "gen1k",
    pi: 16,
    po: 16,
    dff: 50,
    gates: 1_000,
    sequences: 16,
};

/// Seed of the generated circuit. It is fixed, so every workload seed
/// grades the same netlist and only the patterns differ.
const CIRCUIT_SEED: u64 = 0x6E10_1995;
/// Distinct pattern sets a run grades, each several times.
const SETS: usize = 8;
/// `grade_patterns` calls per second of `--seconds`: one call takes 0.25
/// to 0.4 s on a 2-vCPU Xeon, so a run takes about `--seconds`.
const GRADINGS_PER_SECOND: f64 = 2.5;
/// Set-ups whose medians are the traced run's `netlist.*` metrics.
const SETUP_REPS: usize = 7;
/// Sequences re-graded by the scalar reference simulator.
const SCALAR_PREFIX: usize = 2;
/// Frames around the launch/capture pair.
const INIT_FRAMES: usize = 3;
const PROPAGATION_FRAMES: usize = 2;

fn circuit(shape: &Shape, seed: u64) -> Circuit {
    generate(&CircuitProfile::new(
        shape.name,
        shape.pi,
        shape.po,
        shape.dff,
        shape.gates,
        seed,
    ))
}

/// A seeded random, fully specified pattern set: 3 initialization
/// frames, V1/V2, 2 propagation frames per sequence.
fn patterns(c: &Circuit, shape: &Shape, seed: u64) -> PatternSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let frame = |rng: &mut StdRng| -> Vec<Logic3> {
        (0..c.num_inputs())
            .map(|_| Logic3::from_bool(rng.gen()))
            .collect()
    };
    let patterns = (0..shape.sequences)
        .map(|_| {
            let init = (0..INIT_FRAMES).map(|_| frame(&mut rng)).collect();
            let v1 = frame(&mut rng);
            let v2 = frame(&mut rng);
            let prop = (0..PROPAGATION_FRAMES).map(|_| frame(&mut rng)).collect();
            PatternEntry {
                sequence: TestSequence::new(init, v1, v2, prop),
                relied_ppos: Vec::new(),
            }
        })
        .collect();
    PatternSet {
        circuit: CircuitSource::of(c),
        backend: "random".into(),
        seed,
        patterns,
    }
}

/// (candidate fault × sequence) pairs a dropping grade evaluated.
fn fault_evals(g: &GradeReport, sequences: usize) -> u64 {
    let mut found = vec![0u64; sequences];
    for &d in g.first_detector.iter().flatten() {
        found[d] += 1;
    }
    let mut remaining = g.total_faults as u64;
    let mut evals = 0;
    for f in found {
        evals += remaining;
        remaining -= f;
    }
    evals
}

/// The packed first detectors of the first `SCALAR_PREFIX` sequences
/// agree, fault for fault, with the scalar reference simulator.
fn scalar_agrees(c: &Circuit, set: &PatternSet, g: &GradeReport, seed: u64) -> bool {
    let faults: Vec<DelayFault> = FaultUniverse::default().delay_faults(c);
    if faults.len() != g.first_detector.len() {
        return false;
    }
    let atpg = DelayAtpg::with_config(c, DelayAtpgConfig::new());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut remaining: Vec<usize> = (0..faults.len()).collect();
    let mut first: Vec<Option<usize>> = vec![None; faults.len()];
    for (pi, p) in set.patterns.iter().take(SCALAR_PREFIX).enumerate() {
        let candidates: Vec<DelayFault> = remaining.iter().map(|&k| faults[k]).collect();
        let Ok(mut hits) =
            atpg.fault_simulate_sequence_scalar(&p.sequence, &[], &candidates, &mut rng)
        else {
            return false;
        };
        hits.sort_unstable();
        for &pos in hits.iter().rev() {
            first[remaining.remove(pos)] = Some(pi);
        }
    }
    g.first_detector
        .iter()
        .zip(&first)
        .all(|(packed, scalar)| packed.filter(|&d| d < SCALAR_PREFIX) == *scalar)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let shape = &GEN10K;
    let grade_seed = args.mixed_seed(0x6AD3);
    let build = || vec![circuit(shape, CIRCUIT_SEED)];
    let (netlist, mut circuits) = set_up(if args.trace { SETUP_REPS } else { 1 }, build);
    let c = circuits.pop().expect("one circuit");
    let sets: Vec<PatternSet> = (0..SETS as u64)
        .map(|i| patterns(&c, shape, args.mixed_seed(0x9A77 + i)))
        .collect();
    let universe = FaultUniverse::default();
    let gradings = (args.seconds * GRADINGS_PER_SECOND).ceil() as usize;
    if args.trace {
        netlist.report(&mut report);
        // A traced round costs about 2.3 untraced gradings.
        let rounds = (gradings as f64 / 2.3).ceil() as usize;
        let sets: Vec<PatternSet> = sets.into_iter().cycle().take(rounds).collect();
        let (plain_s, traced_s) = trace_layers(args, &c, &sets, &mut report);
        report.metric(
            "trace_overhead_pct",
            100.0 * (traced_s - plain_s) / plain_s,
            "%",
        );
        return Ok(report);
    }

    // Round-robin over the sets, so each set is timed at several moments
    // of the run; a set's time is the median of its gradings. A set-up
    // follows each grading, so `setup_s` is a median over the run too.
    // Every time is scaled to the reference host speed.
    let mut cal = Calibration::default();
    let mut setups = Vec::new();
    let mut latencies = Vec::new();
    let mut times = vec![Vec::new(); SETS];
    let mut evals = [0u64; SETS];
    let mut detected = [0usize; SETS];
    let mut digests: Vec<Option<u64>> = vec![None; SETS];
    let mut digests_ok = true;
    let mut set0 = None;
    for k in (0..gradings.max(SETS)).map(|i| i % SETS) {
        let (graded, dt) =
            cal.time(|| grade_patterns(&c, &sets[k], ModelKind::Delay, &universe, grade_seed));
        report
            .tally
            .op(graded.is_ok(), || format!("grade_patterns: {graded:?}"));
        let g = graded.map_err(|e| e.to_string())?;
        latencies.push(dt * 1e3);
        times[k].push(dt);
        setups.push(cal.time(|| set_up(1, build)).1);
        let d = digest(format!("{:?}", g.first_detector).as_bytes());
        match digests[k] {
            None => {
                digests[k] = Some(d);
                evals[k] = fault_evals(&g, shape.sequences);
                detected[k] = g.detected();
                if k == 0 {
                    set0 = Some(g);
                }
            }
            Some(d0) => digests_ok &= d == d0,
        }
    }

    let g = set0.expect("the first set was graded");
    report.tally.check(digests_ok, || {
        "grading digests differ across repeats".into()
    });
    report
        .tally
        .check(scalar_agrees(&c, &sets[0], &g, grade_seed), || {
            format!(
                "packed and scalar first detectors disagree on the first {SCALAR_PREFIX} sequences"
            )
        });
    let busy: f64 = times.iter().map(|t| median(t)).sum();
    let seqs_per_s = evals.iter().sum::<u64>() as f64 / busy;
    let coverage = 100.0 * detected.iter().sum::<usize>() as f64 / (g.total_faults * SETS) as f64;
    detail(&format!(
        "grade_gen10k {} gates, {} faults, {SETS} sets of {} sequences, {} gradings: \
         grade_fault_seqs_per_s {seqs_per_s:.0} 1/s, detected {coverage:.3} % a set; \
         reference kernel {:.3} ms (scaled to {:.3} ms)",
        c.num_gates(),
        g.total_faults,
        shape.sequences,
        latencies.len(),
        cal.kernel_ms(),
        crate::REFERENCE_KERNEL_S * 1e3,
    ));
    report.end_to_end(EndToEnd {
        setup_s: median(&setups),
        work_per_s: seqs_per_s,
        latencies_ms: latencies,
    });
    Ok(report)
}

/// Phase split of sequence-at-a-time grading.
#[derive(Default)]
struct SimSplit {
    calls: u64,
    grade_s: f64,
    fault_evals: u64,
    detected: u64,
    goodsim_s: f64,
    fausim_s: f64,
    tdsim_s: f64,
}

impl SimSplit {
    /// Grades `set` sequence by sequence with dropping, exactly as
    /// `grade_patterns` does, and returns the first detectors.
    fn grade(&mut self, c: &Circuit, set: &PatternSet, seed: u64) -> Vec<Option<usize>> {
        let faults = FaultUniverse::default().delay_faults(c);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = GradeScratch::default();
        let mut remaining: Vec<usize> = (0..faults.len()).collect();
        let mut first = vec![None; faults.len()];
        for (pi, p) in set.patterns.iter().enumerate() {
            let filled = p.sequence.filled_with(|| rng.gen());
            let fast = p.sequence.fast_frame_index();
            let candidates: Vec<DelayFault> = remaining.iter().map(|&k| faults[k]).collect();
            let t = Instant::now();
            grade_filled_sequence(
                c,
                &filled[..=fast],
                fast,
                &[],
                &[],
                &mut rng.clone(),
                &mut scratch,
            );
            let t1 = t.elapsed().as_secs_f64();
            let t = Instant::now();
            grade_filled_sequence(c, &filled, fast, &[], &[], &mut rng.clone(), &mut scratch);
            let t12 = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let mut hits =
                grade_filled_sequence(c, &filled, fast, &[], &candidates, &mut rng, &mut scratch);
            let t123 = t.elapsed().as_secs_f64();
            self.calls += 1;
            self.grade_s += t123;
            self.goodsim_s += t1;
            self.fausim_s += t12 - t1;
            self.tdsim_s += t123 - t12;
            self.fault_evals += candidates.len() as u64;
            self.detected += hits.len() as u64;
            hits.sort_unstable();
            for &pos in hits.iter().rev() {
                first[remaining.remove(pos)] = Some(pi);
            }
        }
        first
    }
}

/// Grades each of `sets` untraced (`grade_patterns`) and traced in turn;
/// returns the untraced and traced seconds.
fn trace_layers(args: &Args, c: &Circuit, sets: &[PatternSet], report: &mut Report) -> (f64, f64) {
    let seed = args.mixed_seed(0x6AD3);
    let universe = FaultUniverse::default();
    let mut split = SimSplit::default();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    for set in sets {
        let t = Instant::now();
        let plain = grade_patterns(c, set, ModelKind::Delay, &universe, seed);
        plain_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let traced = split.grade(c, set, seed);
        traced_s += t.elapsed().as_secs_f64();
        report.tally.check(
            plain.as_ref().is_ok_and(|g| g.first_detector == traced),
            || "sequence-at-a-time grading differs from grade_patterns".into(),
        );
    }
    let s = &split;
    report.metric("sim.grade.calls", s.calls as f64, "count");
    report.metric("sim.grade_s", s.grade_s, "s");
    report.metric("sim.grade.fault_evals", s.fault_evals as f64, "count");
    report.metric(
        "sim.grade.detect_ratio",
        s.detected as f64 / s.fault_evals.max(1) as f64,
        "ratio",
    );
    report.metric("sim.goodsim_s", s.goodsim_s, "s");
    report.metric("sim.fausim_s", s.fausim_s, "s");
    report.metric("sim.tdsim_s", s.tdsim_s, "s");
    (plain_s, traced_s)
}

/// The simulation layers on a 1k-gate circuit, for another workload's
/// traced run (that workload never reaches them).
pub fn probe(args: &Args, report: &mut Report) {
    let c = circuit(&PROBE, CIRCUIT_SEED);
    let set = patterns(&c, &PROBE, args.mixed_seed(0x9A77));
    trace_layers(args, &c, &[set], report);
}
