//! Region tracing and on-demand phase 2 against the scalar oracles, on
//! seeded netlists the generator cannot make.
//!
//! Phase 3 of the packed grader traces one lane per fanout-free-region
//! root and resolves each fault by walking its critical path to that
//! root; phase 2 runs FAUSIM only for the PPOs a traced fault effect
//! reaches. The generator emits no parity gates and none of the
//! corner cases of a region table, so these netlists are built by hand
//! around a random core: XOR/XNOR/BUF gates, a PO net that also feeds
//! gates (one of them with a single sink), a net on two pins of one
//! gate, a PPO net that also feeds logic, a net that feeds only its
//! flip-flop and a dangling gate. One more netlist has flip-flops that
//! latch one D net, with the net observable through only one of them.
//! Sequences have initialization and propagation frames and sometimes
//! rely on PPOs.
//!
//! `simulate_batch` + `grade_lane` must detect exactly what the scalar
//! composition detects: phase 1 on the scalar good machine, phase 2 as
//! one `Fausim::propagate_state_diff` per non-steady PPO, and phase 3 as
//! `detected_delay_faults` or `detected_transition_faults`. For the
//! delay model that composition is checked against
//! `DelayAtpg::fault_simulate_sequence_scalar` too. The packed entry
//! points must also report the same observations as the scalar ones
//! for a given list of observable PPOs.
//!
//! Phase 3's screen (`screen_batch`) gives each fault, once per batch of
//! 1, 16 or 64 sequences, the lanes whose sequence may detect it. Every
//! fault the unscreened scalar composition detects in lane k must have
//! bit k set, and `grade_patterns`, which grades each lane only for the
//! faults the screen admits there and no earlier lane detected, must
//! equal a sequence-at-a-time loop over the scalar composition.

use gdf::algebra::{DelayValue, Logic3};
use gdf::core::artifact::{CircuitSource, PatternEntry, PatternSet};
use gdf::core::session::grade_patterns;
use gdf::core::{DelayAtpg, DelayAtpgConfig, TestSequence};
use gdf::netlist::{
    Circuit, CircuitBuilder, DelayFault, DelayFaultKind, Fault, FaultSite, FaultUniverse, GateKind,
    ModelKind, NodeId, TransitionFault,
};
use gdf::sim::grading::{grade_lane, grade_screened, screen_batch, simulate_batch, GradeScratch};
use gdf::sim::{
    detected_delay_faults, detected_delay_faults_packed, detected_transition_faults,
    detected_transition_faults_packed, two_frame_values, Fausim, GoodSimulator, SimScratch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KINDS: [GateKind; 8] = [
    GateKind::And,
    GateKind::Nand,
    GateKind::Or,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
    GateKind::Buf,
    GateKind::Not,
];

/// Builds the netlist for `seed`: `inputs` PIs, `dffs` flip-flops and
/// about `gates` random gates, plus the fixed corner cases.
fn netlist(seed: u64, inputs: usize, dffs: usize, gates: usize) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CircuitBuilder::new(format!("ffr{seed}"));
    let mut nets: Vec<String> = Vec::new();
    for i in 0..inputs {
        b.add_input(format!("i{i}"));
        nets.push(format!("i{i}"));
    }
    for k in 0..dffs {
        b.add_dff(format!("q{k}"), format!("d{k}"));
        nets.push(format!("q{k}"));
    }
    // Mostly recent nets, so paths run deep and regions grow.
    let pick = |rng: &mut StdRng, nets: &[String]| -> String {
        let back = if rng.gen_bool(0.6) {
            rng.gen_range(0..nets.len().min(6))
        } else {
            rng.gen_range(0..nets.len())
        };
        nets[nets.len() - 1 - back].clone()
    };
    let gate =
        |b: &mut CircuitBuilder, nets: &mut Vec<String>, name: &str, kind, ins: Vec<String>| {
            let ins: Vec<&str> = ins.iter().map(String::as_str).collect();
            b.add_gate(name, kind, &ins);
            nets.push(name.to_string());
        };
    let mut outputs = Vec::new();
    for g in 0..gates {
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let arity = match kind {
            GateKind::Buf | GateKind::Not => 1,
            _ => rng.gen_range(2..4),
        };
        let ins = (0..arity).map(|_| pick(&mut rng, &nets)).collect();
        gate(&mut b, &mut nets, &format!("g{g}"), kind, ins);
        if g == gates / 2 {
            // A PPO net that also feeds logic, a net on two pins of one
            // gate, a buffer and a PO in the middle of the logic.
            let (x, y) = (pick(&mut rng, &nets), pick(&mut rng, &nets));
            gate(&mut b, &mut nets, "d0", GateKind::Xor, vec![x, y]);
            let x = pick(&mut rng, &nets);
            gate(&mut b, &mut nets, "u0", GateKind::And, vec!["d0".into(), x]);
            let (x, y) = (pick(&mut rng, &nets), pick(&mut rng, &nets));
            gate(
                &mut b,
                &mut nets,
                "t0",
                GateKind::Nand,
                vec![x.clone(), x, y],
            );
            let x = pick(&mut rng, &nets);
            gate(&mut b, &mut nets, "b0", GateKind::Buf, vec![x]);
            outputs.push(format!("g{g}"));
        }
    }
    // A net that feeds only its flip-flop, the other state nets, a PO
    // with a single sink that is itself a PO, and a dangling gate.
    let (x, y) = (pick(&mut rng, &nets), pick(&mut rng, &nets));
    b.add_gate("d1", GateKind::Xnor, &[&x, &y]);
    for k in 2..dffs {
        let kind = KINDS[rng.gen_range(0..4)];
        let (x, y) = (pick(&mut rng, &nets), pick(&mut rng, &nets));
        b.add_gate(format!("d{k}"), kind, &[&x, &y]);
    }
    let (x, y, z) = (
        pick(&mut rng, &nets),
        pick(&mut rng, &nets),
        pick(&mut rng, &nets),
    );
    b.add_gate("p0", GateKind::Nand, &[&x, &y]);
    b.add_gate("o0", GateKind::Or, &["p0", &z]);
    let (x, y) = (pick(&mut rng, &nets), pick(&mut rng, &nets));
    b.add_gate("dangling", GateKind::Nor, &[&x, &y]);
    outputs.extend(["p0".to_string(), "o0".to_string()]);
    outputs.extend(nets[nets.len() - 3..].iter().cloned());
    for o in outputs {
        b.mark_output(o);
    }
    let c = b.build().expect("acyclic by construction");
    assert_corner_cases(&c);
    c
}

/// Every corner case the netlist is built for is really there.
fn assert_corner_cases(c: &Circuit) {
    let id = |name: &str| c.node_by_name(name).expect("named net");
    let has_kind = |kind| c.nodes().iter().any(|n| n.kind() == kind);
    for kind in [GateKind::Xor, GateKind::Xnor, GateKind::Buf] {
        assert!(has_kind(kind), "{}: no {kind:?}", c.name());
    }
    let p0 = c.node(id("p0"));
    assert!(p0.is_output() && p0.fanout().len() == 1, "PO with one sink");
    assert_eq!(c.region_sink(id("p0")), None, "a PO is a region root");
    let t0 = c.node(id("t0")).fanin();
    assert_eq!(t0[0], t0[1], "a net on two pins of one gate");
    assert!(c.node(id("d0")).fanout().len() >= 2, "a PPO feeding logic");
    assert_eq!(
        c.node(id("d1")).fanout().len(),
        1,
        "a net only its DFF sees"
    );
    let dangling = c.node(id("dangling"));
    assert!(dangling.fanout().is_empty() && !dangling.is_output());
}

/// One filled sequence: `init` initialization frames, the launch and
/// capture frames, then `prop` propagation frames.
fn filled(rng: &mut StdRng, c: &Circuit, init: usize, prop: usize) -> Vec<Vec<bool>> {
    (0..init + 2 + prop)
        .map(|_| (0..c.num_inputs()).map(|_| rng.gen()).collect())
        .collect()
}

/// The scalar phases 1 and 2 of one filled sequence: the fault-free
/// waveform and the non-steady PPOs FAUSIM proves observable. Draws the
/// state fill from `rng` in flip-flop order, like the packed phase 1.
fn scalar_phases_one_two(
    c: &Circuit,
    filled: &[Vec<bool>],
    fast: usize,
    rng: &mut StdRng,
) -> (Vec<DelayValue>, Vec<NodeId>) {
    let to3 = |v: &Vec<bool>| v.iter().map(|&b| Logic3::from_bool(b)).collect();
    let init: Vec<Vec<Logic3>> = filled[..fast - 1].iter().map(to3).collect();
    let sim = GoodSimulator::new(c);
    let (_, state) = sim.run(&sim.initial_state(), &init);
    let state1: Vec<bool> = state
        .iter()
        .map(|l| l.to_bool().unwrap_or_else(|| rng.gen()))
        .collect();
    let w = two_frame_values(c, &filled[fast - 1], &filled[fast], &state1);
    let prop: Vec<Vec<Logic3>> = filled[fast + 1..].iter().map(to3).collect();
    let state2: Vec<Logic3> = c
        .ppos()
        .iter()
        .map(|ppo| Logic3::from_bool(w[ppo.index()].final_value()))
        .collect();
    let fausim = Fausim::new(c);
    let observable = (0..c.num_dffs())
        .filter(|&i| !prop.is_empty() && !w[c.ppos()[i].index()].is_steady_clean())
        .filter(|&i| fausim.propagate_state_diff(&state2, i, &prop).is_observed())
        .map(|i| c.ppos()[i])
        .collect();
    (w, observable)
}

/// The scalar phase 3 of `faults`, all of one at-speed model.
fn scalar_phase_three(
    c: &Circuit,
    w: &[DelayValue],
    faults: &[Fault],
    observable: &[NodeId],
    relied: &[NodeId],
) -> Vec<usize> {
    let hits = if let Some(delay) = faults
        .iter()
        .map(|f| f.as_delay())
        .collect::<Option<Vec<DelayFault>>>()
    {
        detected_delay_faults(c, w, &delay, observable, relied)
    } else {
        let transition: Vec<TransitionFault> = faults
            .iter()
            .map(|f| f.as_transition().expect("one model a list"))
            .collect();
        detected_transition_faults(c, w, &transition, observable, relied)
    };
    hits.into_iter().map(|(k, _)| k).collect()
}

/// Relied PPOs for a sequence: none without propagation frames, else
/// sometimes one or two.
fn relied(rng: &mut StdRng, c: &Circuit, prop: usize) -> Vec<NodeId> {
    if prop == 0 || rng.gen_bool(0.5) {
        return Vec::new();
    }
    (0..rng.gen_range(1..3))
        .map(|_| c.ppos()[rng.gen_range(0..c.num_dffs())])
        .collect()
}

/// Grades batches of random sequences of several shapes on `c` through
/// `simulate_batch` + `grade_lane` and the scalar composition, on the
/// full universe of both models and on a list that drops detected
/// faults as `grade_patterns` does. Returns the detections seen.
fn differential(c: &Circuit, seed: u64, batches: &[(usize, usize, usize)]) -> usize {
    let universe = FaultUniverse::default();
    let delay: Vec<Fault> = universe
        .delay_faults(c)
        .into_iter()
        .map(Fault::Delay)
        .collect();
    let transition: Vec<Fault> = universe
        .transition_faults(c)
        .into_iter()
        .map(Fault::Transition)
        .collect();
    let atpg = DelayAtpg::with_config(c, DelayAtpgConfig::new());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut packed_rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    let mut scalar_rng = packed_rng.clone();
    let mut scratch = GradeScratch::default();
    let mut remaining = [delay.clone(), transition.clone()];
    let mut seen = 0;
    for &(lanes, init, prop) in batches {
        let fast = init + 1;
        let seqs: Vec<Vec<Vec<bool>>> = (0..lanes)
            .map(|_| filled(&mut rng, c, init, prop))
            .collect();
        simulate_batch(c, &seqs, fast, &mut packed_rng, &mut scratch);
        for (lane, seq) in seqs.iter().enumerate() {
            let relied = relied(&mut rng, c, prop);
            let case = format!(
                "{} seed {seed} shape ({init}, {prop}) lane {lane}",
                c.name()
            );
            let mut oracle_rng = scalar_rng.clone();
            let (w, observable) = scalar_phases_one_two(c, seq, fast, &mut scalar_rng);

            let to3 = |v: &Vec<bool>| v.iter().map(|&b| Logic3::from_bool(b)).collect();
            let sequence = TestSequence::new(
                seq[..init].iter().map(to3).collect(),
                to3(&seq[init]),
                to3(&seq[fast]),
                seq[fast + 1..].iter().map(to3).collect(),
            );
            let delay_only: Vec<DelayFault> = delay.iter().map(|f| f.as_delay().unwrap()).collect();
            let reference = atpg
                .fault_simulate_sequence_scalar(&sequence, &relied, &delay_only, &mut oracle_rng)
                .expect("at-speed sequence");
            let composed = scalar_phase_three(c, &w, &delay, &observable, &relied);
            assert_eq!(composed, reference, "{case}: scalar composition");

            for (faults, remaining) in [&delay, &transition].into_iter().zip(&mut remaining) {
                let packed = grade_lane(c, lane, &relied, faults, &mut scratch);
                let scalar = scalar_phase_three(c, &w, faults, &observable, &relied);
                assert_eq!(packed, scalar, "{case}: full universe, {:?}", faults[0]);
                seen += packed.len();

                let packed = grade_lane(c, lane, &relied, remaining, &mut scratch);
                let scalar = scalar_phase_three(c, &w, remaining, &observable, &relied);
                assert_eq!(packed, scalar, "{case}: remaining faults, {:?}", faults[0]);
                let mut k = 0;
                remaining.retain(|_| {
                    k += 1;
                    !packed.contains(&(k - 1))
                });
            }
        }
    }
    seen
}

#[test]
fn region_grading_matches_the_scalar_oracles() {
    // (lanes, initialization frames, propagation frames) per batch.
    let batches = [
        (9, 1, 2),
        (64, 2, 1),
        (5, 0, 0),
        (13, 0, 3),
        (7, 2, 0),
        (11, 1, 1),
    ];
    let mut seen = 0;
    for seed in 0..10u64 {
        let c = netlist(
            0xFF5 + seed,
            3 + seed as usize % 3,
            3 + seed as usize % 4,
            30 + 4 * seed as usize,
        );
        seen += differential(&c, seed, &batches);
    }
    assert!(seen > 0, "nothing detected");
}

#[test]
fn region_grading_matches_on_many_roots_and_flip_flops() {
    // More than 64 traced roots per call and more than 64 candidate
    // PPOs, so phase 3 and phase 2 both run several words.
    let c = netlist(0xB16, 10, 70, 400);
    assert!(c.num_dffs() > 64);
    let seen = differential(&c, 1, &[(6, 1, 2), (4, 0, 1)]);
    assert!(seen > 0, "nothing detected");
}

/// Two pairs of flip-flops that each latch one D net. `n` is observable
/// only through the later of its flip-flops (`qn0` drives nothing). `k`
/// is observable through the earlier one in the next frame, and through
/// the later one, which feeds `k` back, a frame after that. Phase 2
/// decides per flip-flop, so `n` is observable when `qn1`'s difference
/// reaches a PO.
fn shared_d_netlist() -> Circuit {
    let mut b = CircuitBuilder::new("shared_d");
    for pi in ["a", "b", "c", "e"] {
        b.add_input(pi);
    }
    b.add_dff("qn0", "n");
    b.add_dff("qn1", "n");
    b.add_dff("qk0", "k");
    b.add_dff("qk1", "k");
    b.add_gate("x", GateKind::Xor, &["a", "e"]);
    b.add_gate("n", GateKind::Nand, &["x", "b"]);
    b.add_gate("k", GateKind::Nor, &["a", "qk1"]);
    b.add_gate("on", GateKind::Xor, &["qn1", "c"]);
    b.add_gate("ok", GateKind::Buf, &["qk0"]);
    b.add_gate("y", GateKind::And, &["e", "c"]);
    for po in ["on", "ok", "y"] {
        b.mark_output(po);
    }
    b.build().expect("acyclic")
}

#[test]
fn shared_d_nets_are_observable_through_any_of_their_flip_flops() {
    let c = shared_d_netlist();
    let n = c.node_by_name("n").unwrap();
    assert_eq!(&c.ppos()[..2], &[n, n], "qn0 and qn1 latch n");

    // a falls with b = 1 and e = 0, so n rises in the fast frame; one
    // propagation frame shows qn1's difference at `on`.
    let seq = vec![
        vec![true, true, false, false],
        vec![false, true, false, false],
        vec![false, false, false, false],
    ];
    let universe = FaultUniverse::default();
    let (site, kind) = (FaultSite::on_stem(n), DelayFaultKind::SlowToRise);
    let mut scratch = GradeScratch::default();
    simulate_batch(&c, &[&seq], 1, &mut StdRng::seed_from_u64(1), &mut scratch);
    let delay: Vec<Fault> = universe
        .delay_faults(&c)
        .into_iter()
        .map(Fault::Delay)
        .collect();
    let transition: Vec<Fault> = universe
        .transition_faults(&c)
        .into_iter()
        .map(Fault::Transition)
        .collect();
    let slow_rise_at_n = [
        Fault::Delay(DelayFault { site, kind }),
        Fault::Transition(TransitionFault { site, kind }),
    ];
    for (faults, slow_rise) in [&delay, &transition].into_iter().zip(slow_rise_at_n) {
        let target = faults.iter().position(|&f| f == slow_rise).unwrap();
        let hits = grade_lane(&c, 0, &[], faults, &mut scratch);
        assert!(hits.contains(&target), "{slow_rise:?} not detected");
    }

    let batches = [(9, 1, 2), (64, 2, 1), (13, 0, 3), (11, 1, 1)];
    for seed in 0..4 {
        assert!(differential(&c, seed, &batches) > 0, "nothing detected");
    }
}

#[test]
fn packed_observations_match_scalar_for_given_lists() {
    let mut scratch = SimScratch::default();
    let mut rng = StdRng::seed_from_u64(0x0B5);
    let circuits = (0..6u64).map(|seed| netlist(0x0B5 + seed, 4, 4, 40));
    for c in circuits.chain([shared_d_netlist()]) {
        let universe = FaultUniverse::default();
        let delay = universe.delay_faults(&c);
        let transition = universe.transition_faults(&c);
        let all_ppos = c.ppos().to_vec();
        for _ in 0..24 {
            let v1: Vec<bool> = (0..c.num_inputs()).map(|_| rng.gen()).collect();
            let v2: Vec<bool> = (0..c.num_inputs()).map(|_| rng.gen()).collect();
            let st: Vec<bool> = (0..c.num_dffs()).map(|_| rng.gen()).collect();
            let w = two_frame_values(&c, &v1, &v2, &st);
            let cases: [(&[NodeId], &[NodeId]); 4] = [
                (&[], &[]),
                (&all_ppos, &[]),
                (&all_ppos[..2], &all_ppos[2..]),
                (&all_ppos[1..], &all_ppos[..1]),
            ];
            for (obs, req) in cases {
                let case = format!("{} obs {obs:?} req {req:?}", c.name());
                assert_eq!(
                    detected_delay_faults_packed(&c, &w, &delay, obs, req, &mut scratch),
                    detected_delay_faults(&c, &w, &delay, obs, req),
                    "{case}: delay"
                );
                assert_eq!(
                    detected_transition_faults_packed(&c, &w, &transition, obs, req, &mut scratch),
                    detected_transition_faults(&c, &w, &transition, obs, req),
                    "{case}: transition"
                );
            }
        }
    }
}

/// The delay and transition universes of `c`.
fn both_models(c: &Circuit) -> [Vec<Fault>; 2] {
    let universe = FaultUniverse::default();
    [ModelKind::Delay, ModelKind::Transition].map(|m| m.model().enumerate(c, &universe).collect())
}

#[test]
fn the_screen_admits_every_fault_a_lane_detects() {
    // (initialization frames, propagation frames) per batch.
    let shapes = [(1, 2), (0, 0), (2, 1)];
    let mut admitted_some = [false, false];
    for seed in 0..6u64 {
        let c = netlist(0x5C2 + seed, 3 + seed as usize % 3, 4, 36);
        let models = both_models(&c);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut packed_rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let mut scalar_rng = packed_rng.clone();
        let mut scratch = GradeScratch::default();
        let mut screen = Vec::new();
        for (lanes, (init, prop)) in [1, 16, 64].into_iter().zip(shapes) {
            let fast = init + 1;
            let seqs: Vec<Vec<Vec<bool>>> = (0..lanes)
                .map(|_| filled(&mut rng, &c, init, prop))
                .collect();
            simulate_batch(&c, &seqs, fast, &mut packed_rng, &mut scratch);
            let lane_cases: Vec<_> = seqs
                .iter()
                .map(|seq| {
                    let (w, observable) = scalar_phases_one_two(&c, seq, fast, &mut scalar_rng);
                    (w, observable, relied(&mut rng, &c, prop))
                })
                .collect();
            for (model, faults) in models.iter().enumerate() {
                screen_batch(&c, faults, &mut screen, &mut scratch);
                let mut lanes_of = vec![0u64; faults.len()];
                for &(k, m) in &screen {
                    lanes_of[k] = m;
                }
                let past_batch = u64::MAX.checked_shl(lanes as u32).unwrap_or(0);
                assert!(
                    screen.iter().all(|&(_, m)| m != 0 && m & past_batch == 0),
                    "an empty mask or lanes past the batch"
                );
                for (lane, (w, observable, relied)) in lane_cases.iter().enumerate() {
                    let case = format!(
                        "{} seed {seed} lane {lane} of {lanes}, {:?}",
                        c.name(),
                        faults[0]
                    );
                    let detected = scalar_phase_three(&c, w, faults, observable, relied);
                    for &k in &detected {
                        assert!(
                            lanes_of[k] >> lane & 1 == 1,
                            "{case}: {:?} screened out",
                            faults[k]
                        );
                    }
                    let graded = grade_screened(&c, lane, relied, faults, &screen, &mut scratch);
                    assert_eq!(graded, detected, "{case}: screened grading");
                    let admits = lanes_of.iter().filter(|&&m| m >> lane & 1 == 1).count();
                    assert!(
                        admits < faults.len(),
                        "{case}: the screen admits every fault"
                    );
                    admitted_some[model] |= admits > detected.len();
                }
            }
        }
    }
    assert_eq!(
        admitted_some,
        [true, true],
        "the screen never admitted an undetected fault"
    );
}

/// Fully specified sequences in runs of one shape, `(count, init, prop)`
/// each; a run of up to 64 is one `grade_patterns` batch.
fn pattern_set(c: &Circuit, seed: u64, runs: &[(usize, usize, usize)]) -> PatternSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let to3 = |v: &Vec<bool>| -> Vec<Logic3> { v.iter().map(|&b| Logic3::from_bool(b)).collect() };
    let mut patterns = Vec::new();
    for &(count, init, prop) in runs {
        for _ in 0..count {
            let seq = filled(&mut rng, c, init, prop);
            let relied_ppos = relied(&mut rng, c, prop)
                .into_iter()
                .map(|ppo| c.node(ppo).name().to_string())
                .collect();
            patterns.push(PatternEntry {
                sequence: TestSequence::new(
                    seq[..init].iter().map(to3).collect(),
                    to3(&seq[init]),
                    to3(&seq[init + 1]),
                    seq[init + 2..].iter().map(to3).collect(),
                ),
                relied_ppos,
            });
        }
    }
    PatternSet {
        circuit: CircuitSource::of(c),
        backend: "random".into(),
        seed,
        patterns,
    }
}

/// The first detectors of `set` graded one sequence at a time through
/// the unscreened scalar composition, dropping detected faults, with the
/// RNG `grade_patterns` draws the state fill from.
fn sequence_at_a_time(
    c: &Circuit,
    set: &PatternSet,
    faults: &[Fault],
    seed: u64,
) -> Vec<Option<usize>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut remaining: Vec<usize> = (0..faults.len()).collect();
    let mut first = vec![None; faults.len()];
    for (pi, p) in set.patterns.iter().enumerate() {
        let seq = &p.sequence;
        let frames: Vec<Vec<bool>> = seq.filled_with(|| unreachable!("no PI X"));
        let fast = seq.fast_frame_index();
        let (w, observable) = scalar_phases_one_two(c, &frames, fast, &mut rng);
        let relied = set.relied_nodes(c, pi).expect("relied PPOs resolve");
        let candidates: Vec<Fault> = remaining.iter().map(|&k| faults[k]).collect();
        let hits = scalar_phase_three(c, &w, &candidates, &observable, &relied);
        for &pos in hits.iter().rev() {
            first[remaining.remove(pos)] = Some(pi);
        }
    }
    first
}

#[test]
fn screened_grade_patterns_equals_sequence_at_a_time() {
    // Runs of 1, 16, 64, 17 and 1 sequences, each of its own shape and
    // so one `grade_patterns` batch.
    let runs = [(1, 1, 2), (16, 2, 1), (64, 0, 2), (17, 1, 1), (1, 0, 0)];
    let universe = FaultUniverse::default();
    for seed in 0..4u64 {
        let c = netlist(0x6A7 + seed, 4, 3 + seed as usize % 3, 40);
        let set = pattern_set(&c, seed, &runs);
        for (model, faults) in [ModelKind::Delay, ModelKind::Transition]
            .into_iter()
            .zip(both_models(&c))
        {
            let report = grade_patterns(&c, &set, model, &universe, seed).unwrap();
            let reference = sequence_at_a_time(&c, &set, &faults, seed);
            let case = format!("{} seed {seed} {model:?}", c.name());
            assert_eq!(report.first_detector, reference, "{case}: first detectors");
            assert_eq!(report.patterns_graded, set.patterns.len(), "{case}");
            // Several lanes of the 64-sequence batch detect faults.
            let detectors: std::collections::BTreeSet<usize> =
                reference.iter().flatten().copied().collect();
            assert!(
                detectors.range(17..81).count() > 1,
                "{case}: one lane of the 64-sequence batch detects everything"
            );
        }
    }
}
