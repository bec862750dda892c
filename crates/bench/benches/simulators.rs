//! Criterion benchmarks for the simulation substrate: good-machine
//! simulation, phase 1 of §5 grading (scalar composition against packed
//! batches of one and 64 sequences), phase 3's screen of a 16-sequence
//! batch, phases 2 and 3 of one graded sequence, `grade_patterns` over a
//! 16-sequence set, two-frame waveform evaluation and phase-3 fault
//! simulation over the full fault universe, under both at-speed models.

use gdf_algebra::Logic3;
use gdf_bench::criterion::{black_box, criterion_group, criterion_main, Criterion};
use gdf_core::artifact::{CircuitSource, PatternEntry, PatternSet};
use gdf_core::session::grade_patterns;
use gdf_core::TestSequence;
use gdf_netlist::generator::{generate, CircuitProfile};
use gdf_netlist::{suite, Circuit, Fault, FaultUniverse, ModelKind};
use gdf_sim::grading::{grade_lane, screen_batch, simulate_batch, GradeScratch, MAX_LANES};
use gdf_sim::{
    detected_delay_faults, detected_delay_faults_packed, detected_transition_faults_packed,
    two_frame_values, GoodSimulator, SimScratch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_goodsim(c: &mut Criterion) {
    let circuit = suite::table3_circuit("s344").expect("suite circuit");
    let sim = GoodSimulator::new(&circuit);
    let pi = vec![Logic3::One; circuit.num_inputs()];
    let st = vec![Logic3::Zero; circuit.num_dffs()];
    c.bench_function("goodsim eval_comb s344_syn", |b| {
        b.iter(|| sim.eval_comb(black_box(&pi), black_box(&st)))
    });
}

/// Initialization and propagation frames around the launch/capture pair
/// of the phase-1 sequences (the `grade_gen10k` shape).
const INIT_FRAMES: usize = 3;
const PROPAGATION_FRAMES: usize = 2;

/// Phase 1 as the scalar reference grader composes it: the good machine
/// over the initialization frames, the state fill, the two-frame
/// waveform, then the good machine over the propagation frames.
fn scalar_phase_one(circuit: &Circuit, filled: &[Vec<bool>]) -> Vec<Vec<Logic3>> {
    let fast = INIT_FRAMES + 1;
    let to3 = |v: &Vec<bool>| v.iter().map(|&b| Logic3::from_bool(b)).collect();
    let init: Vec<Vec<Logic3>> = filled[..fast - 1].iter().map(to3).collect();
    let sim = GoodSimulator::new(circuit);
    let (_, state) = sim.run(&sim.initial_state(), &init);
    let state1: Vec<bool> = state.iter().map(|l| l.to_bool().unwrap_or(false)).collect();
    let w = two_frame_values(circuit, &filled[fast - 1], &filled[fast], &state1);
    let state2: Vec<Logic3> = circuit
        .ppos()
        .iter()
        .map(|ppo| Logic3::from_bool(w[ppo.index()].final_value()))
        .collect();
    let prop: Vec<Vec<Logic3>> = filled[fast + 1..].iter().map(to3).collect();
    sim.run(&state2, &prop).0
}

/// The `grade_gen10k` circuit: 32 PI, 32 PO, 500 flip-flops, 10k gates.
fn gen10k() -> Circuit {
    generate(&CircuitProfile::new(
        "gen10k",
        32,
        32,
        500,
        10_000,
        0x6E10_1995,
    ))
}

fn bench_phase_one(c: &mut Criterion) {
    let s344 = suite::table3_circuit("s344").expect("suite circuit");
    let gen10k = gen10k();
    for circuit in [&s344, &gen10k] {
        let name = circuit.name();
        let mut rng = StdRng::seed_from_u64(5);
        let frames = INIT_FRAMES + 2 + PROPAGATION_FRAMES;
        let sequences: Vec<Vec<Vec<bool>>> = (0..MAX_LANES)
            .map(|_| {
                (0..frames)
                    .map(|_| (0..circuit.num_inputs()).map(|_| rng.gen()).collect())
                    .collect()
            })
            .collect();
        let fast = INIT_FRAMES + 1;
        c.bench_function(&format!("phase1 scalar {name} (1 sequence)"), |b| {
            b.iter(|| scalar_phase_one(circuit, black_box(&sequences[0])))
        });
        let mut scratch = GradeScratch::default();
        for lanes in [1, MAX_LANES] {
            c.bench_function(&format!("phase1 batch {name} ({lanes} lanes)"), |b| {
                b.iter(|| {
                    simulate_batch(
                        circuit,
                        black_box(&sequences[..lanes]),
                        fast,
                        &mut rng,
                        &mut scratch,
                    )
                })
            });
        }
    }
}

fn bench_waveform_and_tdsim(c: &mut Criterion) {
    let circuit = suite::table3_circuit("s344").expect("suite circuit");
    let mut rng = StdRng::seed_from_u64(2);
    let v1: Vec<bool> = (0..circuit.num_inputs()).map(|_| rng.gen()).collect();
    let v2: Vec<bool> = (0..circuit.num_inputs()).map(|_| rng.gen()).collect();
    let st: Vec<bool> = (0..circuit.num_dffs()).map(|_| rng.gen()).collect();
    c.bench_function("two_frame_values s344_syn", |b| {
        b.iter(|| two_frame_values(&circuit, black_box(&v1), black_box(&v2), black_box(&st)))
    });

    let w = two_frame_values(&circuit, &v1, &v2, &st);
    let faults = FaultUniverse::default().delay_faults(&circuit);
    c.bench_function("tdsim full universe s344_syn (one pattern)", |b| {
        b.iter(|| detected_delay_faults(&circuit, black_box(&w), black_box(&faults), &[], &[]))
    });

    let mut scratch = SimScratch::default();
    c.bench_function("tdsim packed full universe s344_syn (64/word)", |b| {
        b.iter(|| {
            detected_delay_faults_packed(
                &circuit,
                black_box(&w),
                black_box(&faults),
                &[],
                &[],
                &mut scratch,
            )
        })
    });
}

/// Phases 2 and 3 of one sequence on gen10k (`grade_lane` after one
/// `simulate_batch`) against the full universe, and the packed phase-3
/// entry points on one waveform with every PPO observable.
fn bench_phases_two_three(c: &mut Criterion) {
    let circuit = gen10k();
    let mut rng = StdRng::seed_from_u64(7);
    let frames = INIT_FRAMES + 2 + PROPAGATION_FRAMES;
    let sequence: Vec<Vec<bool>> = (0..frames)
        .map(|_| (0..circuit.num_inputs()).map(|_| rng.gen()).collect())
        .collect();
    let universe = FaultUniverse::default();
    let delay = universe.delay_faults(&circuit);
    let transition = universe.transition_faults(&circuit);
    let mut scratch = GradeScratch::default();
    simulate_batch(
        &circuit,
        &[&sequence],
        INIT_FRAMES + 1,
        &mut rng,
        &mut scratch,
    );
    for (model, faults) in [
        (
            "delay",
            delay.iter().map(|&f| Fault::Delay(f)).collect::<Vec<_>>(),
        ),
        (
            "transition",
            transition.iter().map(|&f| Fault::Transition(f)).collect(),
        ),
    ] {
        c.bench_function(&format!("phase2+3 grade_lane gen10k ({model})"), |b| {
            b.iter(|| grade_lane(&circuit, 0, &[], black_box(&faults), &mut scratch))
        });
    }

    let v1: Vec<bool> = (0..circuit.num_inputs()).map(|_| rng.gen()).collect();
    let v2: Vec<bool> = (0..circuit.num_inputs()).map(|_| rng.gen()).collect();
    let st: Vec<bool> = (0..circuit.num_dffs()).map(|_| rng.gen()).collect();
    let w = two_frame_values(&circuit, &v1, &v2, &st);
    let ppos = circuit.ppos();
    let mut scratch = SimScratch::default();
    c.bench_function("phase3 packed full universe gen10k (delay)", |b| {
        b.iter(|| {
            detected_delay_faults_packed(&circuit, black_box(&w), &delay, ppos, &[], &mut scratch)
        })
    });
    c.bench_function("phase3 packed full universe gen10k (transition)", |b| {
        b.iter(|| {
            detected_transition_faults_packed(
                &circuit,
                black_box(&w),
                &transition,
                ppos,
                &[],
                &mut scratch,
            )
        })
    });
}

/// The `grade_gen10k` pattern shape on gen10k: `count` random, fully
/// specified sequences.
fn gen10k_sequences(circuit: &Circuit, count: usize, seed: u64) -> Vec<Vec<Vec<bool>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let frames = INIT_FRAMES + 2 + PROPAGATION_FRAMES;
    (0..count)
        .map(|_| {
            (0..frames)
                .map(|_| (0..circuit.num_inputs()).map(|_| rng.gen()).collect())
                .collect()
        })
        .collect()
}

/// Phase 3's screen of one 16-sequence batch against the full universe,
/// and `grade_patterns` of a 16-sequence set (one batch, dropping on),
/// the `grade_gen10k` workload's unit of work, under both models.
fn bench_screen_and_grade_patterns(c: &mut Criterion) {
    let circuit = gen10k();
    let sequences = gen10k_sequences(&circuit, 16, 0x9A77);
    let universe = FaultUniverse::default();
    let mut scratch = GradeScratch::default();
    let mut rng = StdRng::seed_from_u64(11);
    simulate_batch(
        &circuit,
        &sequences,
        INIT_FRAMES + 1,
        &mut rng,
        &mut scratch,
    );
    let to3 = |v: &Vec<bool>| -> Vec<Logic3> { v.iter().map(|&b| Logic3::from_bool(b)).collect() };
    let set = PatternSet {
        circuit: CircuitSource::of(&circuit),
        backend: "random".into(),
        seed: 0x9A77,
        patterns: sequences
            .iter()
            .map(|seq| PatternEntry {
                sequence: TestSequence::new(
                    seq[..INIT_FRAMES].iter().map(to3).collect(),
                    to3(&seq[INIT_FRAMES]),
                    to3(&seq[INIT_FRAMES + 1]),
                    seq[INIT_FRAMES + 2..].iter().map(to3).collect(),
                ),
                relied_ppos: Vec::new(),
            })
            .collect(),
    };
    let mut screen = Vec::new();
    for model in [ModelKind::Delay, ModelKind::Transition] {
        let faults: Vec<Fault> = model.model().enumerate(&circuit, &universe).collect();
        c.bench_function(&format!("phase3 screen gen10k 16 lanes ({model})"), |b| {
            b.iter(|| screen_batch(&circuit, black_box(&faults), &mut screen, &mut scratch))
        });
        c.bench_function(
            &format!("grade_patterns gen10k 16 sequences ({model})"),
            |b| b.iter(|| grade_patterns(&circuit, black_box(&set), model, &universe, 0x6AD3)),
        );
    }
}

criterion_group!(
    benches,
    bench_goodsim,
    bench_phase_one,
    bench_waveform_and_tdsim,
    bench_phases_two_three,
    bench_screen_and_grade_patterns
);
criterion_main!(benches);
