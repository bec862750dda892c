//! Differential tests: the bit-parallel simulation substrate against its
//! scalar reference, over randomly generated circuits, sequences and
//! waveforms.
//!
//! The packed paths (64-lane 3-valued good machine, 64-lane FAUSIM
//! state-diff propagation, 64-fault-per-word TDsim, and the batched
//! three-phase `fault_simulate_sequence`) must be *classification-
//! identical* to the scalar implementations — same detections, same
//! observations, same order. The FAUSIM and TDsim properties include
//! generated circuits of 1k gates or more, so the selective trace
//! crosses many levels and fills several batches per call. These properties run over a deterministic
//! random sample (the workspace's vendored `rand` shim; no crates.io
//! proptest in this environment), with the failing case's inputs in the
//! panic message.

use gdf::algebra::Logic3;
use gdf::core::{DelayAtpg, DelayAtpgConfig, FsimScratch, TestSequence};
use gdf::netlist::generator::{generate, CircuitProfile};
use gdf::netlist::{Circuit, Fault, FaultUniverse, NodeId};
use gdf::sim::{
    detected_delay_faults, detected_delay_faults_packed, detected_transition_faults,
    detected_transition_faults_packed, two_frame_values, Fausim, GoodSimulator, PackedGoodSim,
    PackedLogic, SimScratch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rng_for(property: &str) -> StdRng {
    let tag: u64 = property.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    });
    StdRng::seed_from_u64(tag)
}

/// A small random sequential circuit (profile-matched generator).
fn arb_circuit(rng: &mut StdRng, tag: usize) -> Circuit {
    let num_pi = rng.gen_range(2..6);
    let num_po = rng.gen_range(1..4);
    let num_dff = rng.gen_range(1..8);
    let num_gates = rng.gen_range(10..120);
    generate(&CircuitProfile::new(
        format!("diff{tag}"),
        num_pi,
        num_po,
        num_dff,
        num_gates,
        rng.gen(),
    ))
}

/// A generated circuit of 1k gates or more: over 30 levels deep, with
/// enough provoked faults for several 64-lane TDsim batches per waveform
/// and more than 64 flip-flops, so FAUSIM needs two chunks.
fn large_circuit(rng: &mut StdRng, tag: usize) -> Circuit {
    let c = generate(&CircuitProfile::new(
        format!("diff{tag}"),
        rng.gen_range(12..20),
        rng.gen_range(8..16),
        rng.gen_range(70..100),
        rng.gen_range(1000..1400),
        rng.gen(),
    ));
    assert!(
        c.max_level() > 30,
        "{} is {} levels deep",
        c.name(),
        c.max_level()
    );
    c
}

fn arb_bools(rng: &mut StdRng, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.gen()).collect()
}

/// Packed 3-valued good-machine simulation equals 64 scalar runs.
#[test]
fn packed_goodsim_matches_scalar_on_random_circuits() {
    let mut rng = rng_for("packed_goodsim");
    for case in 0..20 {
        let c = arb_circuit(&mut rng, case);
        let scalar = GoodSimulator::new(&c);
        let packed = PackedGoodSim::new(&c);
        let mut pi = vec![PackedLogic::ALL_X; c.num_inputs()];
        let mut st = vec![PackedLogic::ALL_X; c.num_dffs()];
        for k in 0..64 {
            for p in pi.iter_mut() {
                p.set_lane(k, Logic3::ALL[rng.gen_range(0..3)]);
            }
            for s in st.iter_mut() {
                s.set_lane(k, Logic3::ALL[rng.gen_range(0..3)]);
            }
        }
        let mut values = Vec::new();
        packed.eval_comb_into(&pi, &st, &mut values);
        for k in [0usize, 17, 63] {
            let spi: Vec<Logic3> = pi.iter().map(|p| p.lane(k)).collect();
            let sst: Vec<Logic3> = st.iter().map(|s| s.lane(k)).collect();
            let svals = scalar.eval_comb(&spi, &sst);
            for (idx, v) in svals.iter().enumerate() {
                assert_eq!(
                    values[idx].lane(k),
                    *v,
                    "case {case} circuit {} node {idx} lane {k}",
                    c.name()
                );
            }
        }
    }
}

/// 64-lane FAUSIM state-diff propagation equals per-PPO scalar walks.
/// Cases 25 and 26 are large circuits; case 27 is small again, on the
/// scratch the large ones grew.
#[test]
fn packed_state_diff_propagation_matches_scalar() {
    let mut rng = rng_for("packed_fausim");
    let mut scratch = SimScratch::default();
    for case in 0..28 {
        let c = if matches!(case, 25 | 26) {
            large_circuit(&mut rng, 1000 + case)
        } else {
            arb_circuit(&mut rng, 1000 + case)
        };
        let fausim = Fausim::new(&c);
        let good: Vec<Logic3> = (0..c.num_dffs())
            .map(|_| Logic3::from_bool(rng.gen()))
            .collect();
        let frames = rng.gen_range(1..5);
        let vectors: Vec<Vec<Logic3>> = (0..frames)
            .map(|_| {
                (0..c.num_inputs())
                    .map(|_| Logic3::from_bool(rng.gen()))
                    .collect()
            })
            .collect();
        let diffs: Vec<usize> = (0..c.num_dffs()).collect();
        let (good_frames, _) = GoodSimulator::new(&c).run(&good, &vectors);
        for chunk in diffs.chunks(64) {
            let mask = fausim.propagate_state_diffs_packed(&good_frames, chunk, &mut scratch);
            for (k, &d) in chunk.iter().enumerate() {
                let scalar = fausim.propagate_state_diff(&good, d, &vectors);
                assert_eq!(
                    mask >> k & 1 == 1,
                    scalar.is_observed(),
                    "case {case} circuit {} dff {d}",
                    c.name()
                );
            }
        }
    }
}

/// Packed TDsim classification (faults, observations, order) equals the
/// scalar cone trace, including PPO observability and invalidation; so
/// does the packed transition-fault classification, on the same
/// waveform, PPO subsets and scratch, alternating with the robust check.
/// Cases 25 and 26 are large circuits; case 27 is small again, on the
/// scratch the large ones grew.
#[test]
fn packed_tdsim_matches_scalar_on_random_circuits() {
    let mut rng = rng_for("packed_tdsim");
    let mut scratch = SimScratch::default();
    for case in 0..28 {
        let c = if matches!(case, 25 | 26) {
            large_circuit(&mut rng, 2000 + case)
        } else {
            arb_circuit(&mut rng, 2000 + case)
        };
        let faults = FaultUniverse::default().delay_faults(&c);
        let transition = FaultUniverse::default().transition_faults(&c);
        let ppos = c.ppos().to_vec();
        for _ in 0..4 {
            let v1 = arb_bools(&mut rng, c.num_inputs());
            let v2 = arb_bools(&mut rng, c.num_inputs());
            let st = arb_bools(&mut rng, c.num_dffs());
            let w = two_frame_values(&c, &v1, &v2, &st);
            // Random observable/required PPO subsets stress every path.
            let obs: Vec<NodeId> = ppos.iter().copied().filter(|_| rng.gen()).collect();
            let req: Vec<NodeId> = ppos.iter().copied().filter(|_| rng.gen()).collect();
            let scalar = detected_delay_faults(&c, &w, &faults, &obs, &req);
            let packed = detected_delay_faults_packed(&c, &w, &faults, &obs, &req, &mut scratch);
            assert_eq!(
                scalar,
                packed,
                "case {case} circuit {} obs {obs:?} req {req:?}",
                c.name()
            );
            let scalar = detected_transition_faults(&c, &w, &transition, &obs, &req);
            let packed =
                detected_transition_faults_packed(&c, &w, &transition, &obs, &req, &mut scratch);
            assert_eq!(
                scalar,
                packed,
                "transition case {case} circuit {} obs {obs:?} req {req:?}",
                c.name()
            );
        }
    }
}

/// A random at-speed test sequence over a random circuit.
fn arb_sequence(rng: &mut StdRng, c: &Circuit) -> TestSequence {
    let frame = |rng: &mut StdRng, c: &Circuit| -> Vec<Logic3> {
        (0..c.num_inputs())
            .map(|_| match rng.gen_range(0..3) {
                0 => Logic3::Zero,
                1 => Logic3::One,
                _ => Logic3::X,
            })
            .collect()
    };
    let init: Vec<Vec<Logic3>> = (0..rng.gen_range(0..4)).map(|_| frame(rng, c)).collect();
    let prop: Vec<Vec<Logic3>> = (0..rng.gen_range(0..4)).map(|_| frame(rng, c)).collect();
    let v1 = frame(rng, c);
    let v2 = frame(rng, c);
    TestSequence::new(init, v1, v2, prop)
}

/// The batched three-phase `fault_simulate_sequence` equals the scalar
/// reference for identical RNG streams, over random circuits and random
/// sequences (X-fill included).
#[test]
fn packed_fault_simulate_sequence_matches_scalar_reference() {
    let mut rng = rng_for("packed_fsim_sequence");
    let mut scratch = FsimScratch::default();
    for case in 0..20 {
        let c = arb_circuit(&mut rng, 3000 + case);
        let atpg = DelayAtpg::new(&c);
        let faults = FaultUniverse::default().delay_faults(&c);
        let as_faults: Vec<Fault> = faults.iter().copied().map(Fault::Delay).collect();
        let ppos = c.ppos().to_vec();
        for round in 0..4 {
            let seq = arb_sequence(&mut rng, &c);
            let relied: Vec<NodeId> = ppos.iter().copied().filter(|_| rng.gen()).collect();
            let seed: u64 = rng.gen();
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let packed = atpg
                .fault_simulate_sequence(&seq, &relied, &as_faults, &mut rng_a, &mut scratch)
                .expect("at-speed sequence");
            let scalar = atpg
                .fault_simulate_sequence_scalar(&seq, &relied, &faults, &mut rng_b)
                .expect("at-speed sequence");
            assert_eq!(
                packed,
                scalar,
                "case {case} round {round} circuit {} seed {seed:#x}",
                c.name()
            );
        }
    }
}

/// Static (all-slow) sequences are rejected with an error, not a panic.
#[test]
fn static_sequences_are_rejected_gracefully() {
    let c = gdf::netlist::suite::s27();
    let atpg = DelayAtpg::new(&c);
    let faults = FaultUniverse::default().delay_faults(&c);
    let as_faults: Vec<Fault> = faults.iter().copied().map(Fault::Delay).collect();
    let seq = TestSequence::static_sequence(vec![vec![Logic3::Zero; 4]; 3]);
    let mut rng = StdRng::seed_from_u64(1);
    let mut scratch = FsimScratch::default();
    let packed = atpg.fault_simulate_sequence(&seq, &[], &as_faults, &mut rng, &mut scratch);
    assert_eq!(packed, Err(gdf::core::AtpgError::StaticSequence));
    let scalar = atpg.fault_simulate_sequence_scalar(&seq, &[], &faults, &mut rng);
    assert_eq!(scalar, Err(gdf::core::AtpgError::StaticSequence));
}

/// The `reference_fsim` config knob actually flips the implementation and
/// the dispatching entry point honors it.
#[test]
fn reference_fsim_config_dispatches_to_scalar() {
    let c = gdf::netlist::suite::s27();
    let reference = DelayAtpg::with_config(&c, DelayAtpgConfig::new().with_reference_fsim(true));
    let faults = FaultUniverse::default().delay_faults(&c);
    let as_faults: Vec<Fault> = faults.iter().copied().map(Fault::Delay).collect();
    let seq = TestSequence::new(
        vec![vec![Logic3::Zero; 4]],
        vec![Logic3::Zero; 4],
        vec![Logic3::One, Logic3::Zero, Logic3::Zero, Logic3::Zero],
        vec![vec![Logic3::X; 4]],
    );
    let seed = 42;
    let mut rng_a = StdRng::seed_from_u64(seed);
    let mut rng_b = StdRng::seed_from_u64(seed);
    let mut scratch = FsimScratch::default();
    let via_config = reference
        .fault_simulate_sequence(&seq, &[], &as_faults, &mut rng_a, &mut scratch)
        .expect("at-speed");
    let direct = reference
        .fault_simulate_sequence_scalar(&seq, &[], &faults, &mut rng_b)
        .expect("at-speed");
    assert_eq!(via_config, direct);
}
