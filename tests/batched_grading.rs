//! Batched phase-1 grading (`grade_patterns`) against a
//! sequence-at-a-time reference, plus golden grading digests.
//!
//! `grade_patterns` runs the good machine of §5 once per batch of up to
//! 64 consecutive sequences of one shape, one sequence per lane; a
//! follower joins a batch only if its PI frames need no X-fill, so every
//! RNG draw lands where a sequence-at-a-time loop puts it. The
//! differential test grades pattern sets built to hit every batching
//! rule — fully specified runs, sequences with PI `X`s, a static
//! sequence, several frame shapes (`fast == 1`, no propagation frames),
//! a run longer than 64 — under both delay models and several seeds, and
//! compares with a loop that grades one sequence at a time with the same
//! RNG and dropping: the scalar reference simulator for the delay model,
//! one-lane `fault_simulate_sequence` for the transition model.

use gdf::algebra::Logic3;
use gdf::core::artifact::{CircuitSource, PatternEntry, PatternSet};
use gdf::core::session::{grade_patterns, GradeReport};
use gdf::core::{Atpg, DelayAtpg, DelayAtpgConfig, Digest, FsimScratch, TestSequence};
use gdf::netlist::generator::{generate, CircuitProfile};
use gdf::netlist::{suite, Circuit, Fault, FaultUniverse, ModelKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Frame shapes as (initialization frames, propagation frames).
const SHAPES: [(usize, usize); 3] = [(2, 1), (0, 2), (1, 0)];

/// A generated circuit of about 1k gates whose 60 flip-flops the
/// initialization frames leave partly unknown, so the state fill draws.
fn gen1k() -> Circuit {
    generate(&CircuitProfile::new(
        "grade1k",
        16,
        16,
        60,
        1000,
        0x1995_0515,
    ))
}

fn frame(rng: &mut StdRng, width: usize, with_x: bool) -> Vec<Logic3> {
    (0..width)
        .map(|_| {
            if with_x && rng.gen_bool(0.25) {
                Logic3::X
            } else {
                Logic3::from_bool(rng.gen())
            }
        })
        .collect()
}

/// One at-speed sequence of `shape`; with `with_x`, some PI values are
/// `X` in every frame.
fn sequence(rng: &mut StdRng, c: &Circuit, shape: (usize, usize), with_x: bool) -> PatternEntry {
    let w = c.num_inputs();
    let init = (0..shape.0).map(|_| frame(rng, w, with_x)).collect();
    let v1 = frame(rng, w, with_x);
    let v2 = frame(rng, w, with_x);
    let prop: Vec<Vec<Logic3>> = (0..shape.1).map(|_| frame(rng, w, with_x)).collect();
    // Sequences with propagation frames sometimes rely on a PPO, so the
    // invalidation check is exercised too.
    let relied_ppos = if !prop.is_empty() && rng.gen_bool(0.3) {
        let ppo = c.ppos()[rng.gen_range(0..c.num_dffs())];
        vec![c.node(ppo).name().to_string()]
    } else {
        Vec::new()
    };
    PatternEntry {
        sequence: TestSequence::new(init, v1, v2, prop),
        relied_ppos,
    }
}

/// A seeded set that hits every batching rule: `long_run` fully
/// specified sequences of one shape first (more than 64 puts a batch
/// boundary inside the run), then short blocks of random shapes where
/// about a third of the sequences have PI `X`s, with one static sequence
/// in the middle.
fn mixed_set(c: &Circuit, seed: u64, long_run: usize) -> PatternSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut patterns: Vec<PatternEntry> = (0..long_run)
        .map(|_| sequence(&mut rng, c, SHAPES[0], false))
        .collect();
    for block in 0..10 {
        let shape = SHAPES[rng.gen_range(0..SHAPES.len())];
        for _ in 0..rng.gen_range(1..5) {
            let with_x = rng.gen_bool(0.35);
            patterns.push(sequence(&mut rng, c, shape, with_x));
        }
        if block == 4 {
            let vectors = (0..3).map(|_| frame(&mut rng, c.num_inputs(), true));
            patterns.push(PatternEntry {
                sequence: TestSequence::static_sequence(vectors.collect()),
                relied_ppos: Vec::new(),
            });
        }
    }
    let at_speed = || patterns.iter().filter(|p| p.sequence.at_speed().is_some());
    for (init, prop) in SHAPES {
        assert!(
            at_speed()
                .any(|p| p.sequence.init_len() == init && p.sequence.propagation_len() == prop),
            "seed {seed} has no sequence of shape ({init}, {prop})"
        );
    }
    assert!(
        at_speed().any(|p| p
            .sequence
            .vectors()
            .iter()
            .any(|v| v.pi.contains(&Logic3::X))),
        "seed {seed} has no sequence with PI X"
    );
    PatternSet {
        circuit: CircuitSource::of(c),
        backend: "random".into(),
        seed,
        patterns,
    }
}

/// Grades `set` one sequence at a time with dropping, as
/// `grade_patterns` would without batching.
fn sequence_at_a_time(c: &Circuit, set: &PatternSet, model: ModelKind, seed: u64) -> GradeReport {
    let universe = FaultUniverse::default();
    let faults: Vec<Fault> = model.model().enumerate(c, &universe).collect();
    let atpg = DelayAtpg::with_config(c, DelayAtpgConfig::new().with_model(model));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = FsimScratch::default();
    let mut remaining: Vec<usize> = (0..faults.len()).collect();
    let mut first_detector = vec![None; faults.len()];
    let (mut patterns_graded, mut skipped_static) = (0, 0);
    for (pi, p) in set.patterns.iter().enumerate() {
        if p.sequence.at_speed().is_none() {
            skipped_static += 1;
            continue;
        }
        patterns_graded += 1;
        if remaining.is_empty() {
            continue;
        }
        let relied = set.relied_nodes(c, pi).expect("relied PPOs resolve");
        let mut hits = if model == ModelKind::Transition {
            let candidates: Vec<_> = remaining.iter().map(|&k| faults[k]).collect();
            atpg.fault_simulate_sequence(&p.sequence, &relied, &candidates, &mut rng, &mut scratch)
        } else {
            let candidates: Vec<_> = remaining
                .iter()
                .map(|&k| faults[k].as_delay().expect("delay fault"))
                .collect();
            atpg.fault_simulate_sequence_scalar(&p.sequence, &relied, &candidates, &mut rng)
        }
        .expect("at-speed sequence");
        hits.sort_unstable();
        for &pos in hits.iter().rev() {
            first_detector[remaining.remove(pos)] = Some(pi);
        }
    }
    GradeReport {
        circuit: c.name().to_string(),
        model,
        total_faults: faults.len(),
        first_detector,
        patterns_graded,
        skipped_static,
    }
}

#[test]
fn batched_grading_equals_sequence_at_a_time() {
    let universe = FaultUniverse::default();
    let s298 = suite::table3_circuit("s298").expect("suite circuit");
    let large = gen1k();
    let cases: [(Circuit, usize, &[u64]); 3] = [
        (suite::s27(), 70, &[1, 2, 3]),
        (s298, 70, &[4, 5]),
        (large, 6, &[6]),
    ];
    for (c, long_run, seeds) in &cases {
        for &seed in *seeds {
            let set = mixed_set(c, seed, *long_run);
            for model in [ModelKind::Delay, ModelKind::Transition] {
                let batched = grade_patterns(c, &set, model, &universe, seed).unwrap();
                let reference = sequence_at_a_time(c, &set, model, seed);
                let case = format!("{} seed {seed} {model:?}", c.name());
                assert_eq!(batched.skipped_static, 1, "{case}");
                assert_eq!(
                    batched.skipped_static, reference.skipped_static,
                    "{case}: static sequences skipped"
                );
                assert_eq!(
                    batched.patterns_graded, reference.patterns_graded,
                    "{case}: sequences graded"
                );
                assert_eq!(
                    batched.first_detector, reference.first_detector,
                    "{case}: first detectors"
                );
                assert!(batched.detected() > 0, "{case}: nothing detected");
            }
        }
    }
}

/// A seeded random, fully specified set of one shape (3 initialization
/// frames, V1/V2, 2 propagation frames): it grades as one batch.
fn random_set(c: &Circuit, seed: u64, sequences: usize) -> PatternSet {
    let mut rng = StdRng::seed_from_u64(seed);
    PatternSet {
        circuit: CircuitSource::of(c),
        backend: "random".into(),
        seed,
        patterns: (0..sequences)
            .map(|_| sequence(&mut rng, c, (3, 2), false))
            .collect(),
    }
}

fn report_digest(report: &GradeReport) -> String {
    Digest::of_text(&format!("{report:?}")).hex()
}

/// Grading digests recorded before phase 1 was batched.
#[test]
fn golden_grade_reports() {
    let universe = FaultUniverse::default();
    let large = gen1k();
    let set = random_set(&large, 0x9A77, 24);
    let report = grade_patterns(&large, &set, ModelKind::Delay, &universe, 1995).unwrap();
    assert_eq!(
        report_digest(&report),
        "b131b5aa5da93b9be295c20ed1746b0a",
        "random set on grade1k"
    );

    let s298 = suite::table3_circuit("s298").expect("suite circuit");
    let run = Atpg::builder(&s298).seed(1995).build().run();
    let set = PatternSet::from_run(&s298, &run, "non-scan", 1995, None);
    for (model, golden) in [
        (ModelKind::Delay, "562160d2bb0f7fb2a97c6c3548a5602c"),
        (ModelKind::Transition, "7e2a79acc0d085459d744478c7ab1645"),
    ] {
        let report = grade_patterns(&s298, &set, model, &universe, 1995).unwrap();
        assert_eq!(
            report_digest(&report),
            golden,
            "ATPG-exported s298_syn set, {model:?}"
        );
    }
}
