//! The three-phase §5 fault-grading entry point, shared by the ATPG
//! drop loop and standalone pattern re-grading.
//!
//! Grading classifies a candidate fault list against *filled* (X-free)
//! vector sequences, running the paper's three phases bit-parallel:
//!
//! 1. good-machine simulation ([`simulate_batch`]), once per batch of up
//!    to [`MAX_LANES`] sequences of one shape (same frame count, same
//!    fast frame), **one sequence per bit lane**:
//!    [`crate::packed::PackedGoodSim`] runs the initialization frames
//!    from the all-`X` power-up state, the random fill resolves the state
//!    bits they leave unknown, the same simulator computes the launch
//!    frame `V1`, the packed delay algebra
//!    ([`gdf_algebra::packed::PackedWave`]) builds the fault-free
//!    two-frame waveform, and `PackedGoodSim` runs the propagation frames
//!    from the state each lane's fast frame latches;
//! 2. packed PPO state-difference propagation through the slow-clock
//!    frames ([`crate::fausim::Fausim::propagate_state_diffs_packed`],
//!    one PPO per lane) against one sequence's propagation frames,
//! 3. packed critical-path tracing of the fast frame per fanout-free
//!    region (one region root per lane, 64 per word, each batch
//!    evaluating only the gates its fault effects reach) with the
//!    invalidation check against the relied PPOs. One driver serves both
//!    at-speed models: robust delay faults trace the delay algebra
//!    ([`crate::tdsim::detected_delay_faults_packed`]) and transition
//!    faults trace final values
//!    ([`crate::tfsim::detected_transition_faults_packed`]).
//!
//! Phase 3 starts with a screen of the whole batch ([`screen_batch`]),
//! one sequence per lane: one criticality sweep and one pass over the
//! candidates give each fault the lanes whose sequence provokes it and
//! carries its effect to its fanout-free-region root. A sequence can
//! detect no other fault.
//!
//! Phases 2 and 3 then run per sequence ([`grade_screened`], under the
//! model of the faults it is given) for the faults its lane admits: each
//! reads its own lane of the batch, so the caller can drop faults
//! between sequences by clearing their masks. Phase 3 traces first and
//! records which PPOs a fault effect reaches; phase 2 then runs FAUSIM
//! only for the flip-flops that latch the non-steady ones among them,
//! and the PPO observations resolve last. FAUSIM answers one flip-flop
//! per lane, so asking about a subset gives each flip-flop the answer
//! the full set would; a PPO is observable if one of the flip-flops that
//! latch it is. A call whose faults reach no PPO runs no FAUSIM at all.
//! [`grade_lane`] screens its own fault list and grades one lane.
//!
//! Phase 1 does not depend on the fault list, so computing it ahead for
//! the whole batch changes no result. Nor does the screen: whether a
//! fault is provoked and reaches its root depends on the fault and the
//! sequence alone, and a fault's detection does not depend on which
//! other faults are graded with it. Phase 3 starts from the batch's
//! waveform and phase 2 from its propagation frames, so both start from
//! consistent values — every gate holds its gate function of its fanins'
//! values — which is what makes skipping unreached gates exact.
//!
//! # RNG order
//!
//! Phase 1 draws from `rng` once per state bit the initialization frames
//! leave unknown: lane 0 first, then lane 1, and so on, and within a
//! lane in flip-flop order. That is the order a sequence-at-a-time loop
//! draws in, provided each sequence's PI X-fill is drawn before its
//! state fill: the caller fills the batch's first sequence from `rng`
//! and admits as followers only sequences with no PI `X`, which draw
//! nothing. `gdf_core::session::grade_patterns` batches that way, so a
//! batched grading is identical to one sequence at a time.
//!
//! [`grade_filled_sequence`] is a one-lane batch of delay faults
//! followed by the screen and phases 2 and 3. The ATPG driver
//! (`gdf_core::DelayAtpg::fault_simulate_sequence`) X-fills a
//! `TestSequence` and grades it as a one-lane batch through
//! [`grade_lane`], so the engine's credit pass and pattern re-grading
//! share one implementation of the §5 semantics.
//!
//! # Example
//!
//! ```
//! use gdf_netlist::{suite, FaultUniverse};
//! use gdf_sim::grading::{grade_filled_sequence, GradeScratch};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let c = suite::s27();
//! let faults = FaultUniverse::default().delay_faults(&c);
//! // Two-frame sequence: V1 then the fast V2 frame, no init/propagation.
//! let frames = vec![vec![false; 4], vec![true; 4]];
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut scratch = GradeScratch::default();
//! let hits = grade_filled_sequence(&c, &frames, 1, &[], &faults, &mut rng, &mut scratch);
//! assert!(hits.len() <= faults.len());
//! ```

use crate::fausim::Fausim;
use crate::packed::{PackedGoodSim, PackedLogic, SimScratch};
use crate::phase3::{self, Lane};
use gdf_algebra::logic3::Logic3;
use gdf_algebra::packed::PackedWave;
use gdf_netlist::{Circuit, DelayFault, DelayFaultKind, Fault, FaultSite, ModelKind, NodeId};
use rand::rngs::StdRng;
use rand::Rng;

/// The most sequences one phase-1 batch holds: one per bit lane.
pub const MAX_LANES: usize = 64;

/// Reusable buffers for grading: the phase-1 results of the current
/// batch and the buffers of the screen and of phases 2 and 3. Keep one
/// per worker and hand it to every call, so the sweeps allocate nothing
/// after warm-up.
#[derive(Debug, Default, Clone)]
pub struct GradeScratch {
    /// One PI frame of the batch, one sequence per lane.
    pi: Vec<PackedLogic>,
    /// The batch's flip-flop state while stepping through frames.
    state: Vec<PackedLogic>,
    /// Node values of the latest initialization frame, then of `V1`.
    values: Vec<PackedLogic>,
    /// The fault-free two-frame waveform of every lane.
    wave: Vec<PackedWave>,
    /// Fault-free node values of each propagation frame, every lane.
    good: Vec<Vec<PackedLogic>>,
    /// Sequences in the current batch.
    lanes: usize,
    /// Propagation frames of the batch's sequences.
    propagation: usize,
    /// One lane's propagation frames, for phase 2.
    lane_good: Vec<Vec<Logic3>>,
    /// The screen of [`grade_lane`] and [`grade_filled_sequence`].
    screen: Vec<(usize, u64)>,
    /// The shared packed-simulator scratch.
    sim: SimScratch,
}

/// Phase 1 of §5 for a batch of filled sequences, one per bit lane:
/// good-machine simulation of the initialization frames, random fill of
/// the state bits they leave unknown, the fault-free two-frame waveform
/// and the propagation frames. The results stay in `scratch` for
/// [`screen_batch`], [`grade_screened`] and [`grade_lane`] until the next
/// batch.
///
/// Every sequence holds all its applied PI frames; `fast` is the index of
/// the at-speed capture frame of each (`[fast - 1]` launches, `[fast]`
/// captures, everything after propagates under the slow clock). `rng`
/// resolves the state bits the initialization frames leave unknown,
/// lane by lane and within a lane in flip-flop order (see the
/// [module docs](self#rng-order)).
///
/// # Panics
///
/// Panics if `sequences` is empty or longer than [`MAX_LANES`], if the
/// sequences differ in frame count, if `fast` is 0 or out of bounds (a
/// delay-fault grading always needs a launch/capture pair), or if a
/// frame's width is not the circuit's input count.
pub fn simulate_batch<S: AsRef<[Vec<bool>]>>(
    circuit: &Circuit,
    sequences: &[S],
    fast: usize,
    rng: &mut StdRng,
    scratch: &mut GradeScratch,
) {
    let lanes = sequences.len();
    assert!(
        (1..=MAX_LANES).contains(&lanes),
        "a batch holds 1 to {MAX_LANES} sequences, got {lanes}"
    );
    let frames = sequences[0].as_ref().len();
    assert!(
        fast > 0 && fast < frames,
        "fast frame index {fast} out of range for {frames} frames"
    );
    assert!(
        sequences.iter().all(|s| s.as_ref().len() == frames),
        "the sequences of a batch share one frame count"
    );
    let used = u64::MAX >> (MAX_LANES - lanes);
    let sim = PackedGoodSim::new(circuit);
    let s = scratch;
    s.lanes = lanes;
    s.propagation = frames - fast - 1;

    // Initialization frames, from the unknown power-up state.
    s.state.clear();
    s.state.resize(circuit.num_dffs(), PackedLogic::ALL_X);
    for frame in 0..fast - 1 {
        pack_frame(sequences, frame, &mut s.pi);
        sim.eval_comb_into(&s.pi, &s.state, &mut s.values);
        sim.next_state_into(&s.values, &mut s.state);
    }

    // Random fill of the state bits still unknown at V1: lane by lane,
    // and within a lane in flip-flop order.
    let mut unknown = s.state.iter().fold(0, |m, bit| m | !bit.known()) & used;
    while unknown != 0 {
        let lane = unknown.trailing_zeros() as usize;
        unknown &= unknown - 1;
        for bit in &mut s.state {
            if bit.lane(lane) == Logic3::X {
                bit.set_lane(lane, Logic3::from_bool(rng.gen()));
            }
        }
    }

    // V1 from the filled state: every lane in use is binary.
    pack_frame(sequences, fast - 1, &mut s.pi);
    sim.eval_comb_into(&s.pi, &s.state, &mut s.values);

    // The fault-free waveform over the delay algebra: a PI holds
    // (V1, V2), a flip-flop its state and then the value its PPO
    // computes under V1.
    pack_frame(sequences, fast, &mut s.pi);
    s.wave.clear();
    s.wave.resize(circuit.num_nodes(), PackedWave::default());
    for (&input, v2) in circuit.inputs().iter().zip(&s.pi) {
        s.wave[input.index()] = PackedWave::from_frames(s.values[input.index()].ones, v2.ones);
    }
    for ((&ff, &ppo), state) in circuit.dffs().iter().zip(circuit.ppos()).zip(&s.state) {
        s.wave[ff.index()] = PackedWave::from_frames(state.ones, s.values[ppo.index()].ones);
    }
    for (gate, kind, fanins) in circuit.gates_levelized() {
        s.wave[gate.index()] = PackedWave::eval(kind, fanins.iter().map(|f| s.wave[f.index()]));
    }

    // Propagation frames, from the state each lane's fast frame latches —
    // needed only if some lane has a PPO difference to propagate.
    let unsteady = circuit
        .ppos()
        .iter()
        .fold(0, |m, ppo| m | !s.wave[ppo.index()].steady_clean())
        & used;
    if s.propagation == 0 || unsteady == 0 {
        return;
    }
    s.state.clear();
    s.state.extend(circuit.ppos().iter().map(|ppo| {
        let fin = s.wave[ppo.index()].fin;
        PackedLogic {
            ones: fin,
            zeros: !fin,
        }
    }));
    if s.good.len() < s.propagation {
        s.good.resize_with(s.propagation, Vec::new);
    }
    for (frame, values) in (fast + 1..frames).zip(&mut s.good) {
        pack_frame(sequences, frame, &mut s.pi);
        sim.eval_comb_into(&s.pi, &s.state, values);
        sim.next_state_into(values, &mut s.state);
    }
}

/// Packs PI frame `frame` of every sequence into `pi`, one sequence per
/// lane; lanes past the batch stay `X`.
fn pack_frame<S: AsRef<[Vec<bool>]>>(sequences: &[S], frame: usize, pi: &mut Vec<PackedLogic>) {
    let width = sequences[0].as_ref()[frame].len();
    pi.clear();
    pi.resize(width, PackedLogic::ALL_X);
    for (lane, sequence) in sequences.iter().enumerate() {
        let v = &sequence.as_ref()[frame];
        assert_eq!(v.len(), width, "PI vector length");
        for (p, &b) in pi.iter_mut().zip(v) {
            if b {
                p.ones |= 1 << lane;
            } else {
                p.zeros |= 1 << lane;
            }
        }
    }
}

/// Phase 3's screen of the last [`simulate_batch`]: gives each fault of
/// `faults` the lanes whose sequence provokes it and carries its effect
/// to its fanout-free-region root (for a branch straight into a
/// flip-flop, the lanes whose sequence provokes it), and sets `screen` to
/// the `(index into faults, lanes)` pairs of the faults with some lane,
/// in list order. A sequence detects no fault its lane does not admit,
/// so [`grade_screened`] grades only those. One sweep over the circuit
/// and one pass over `faults` serve every lane.
///
/// # Panics
///
/// Panics if no batch was simulated, or if `faults` are not all delay
/// faults or all transition faults.
pub fn screen_batch(
    circuit: &Circuit,
    faults: &[Fault],
    screen: &mut Vec<(usize, u64)>,
    scratch: &mut GradeScratch,
) {
    let model = model_of(faults);
    let sites = faults.iter().map(|&f| at_speed_site(model, f));
    match model {
        ModelKind::Transition => screen_sites::<u64>(circuit, sites, screen, scratch),
        _ => screen_sites::<PackedWave>(circuit, sites, screen, scratch),
    }
}

/// [`screen_batch`] of fault `sites` under the model of lane type `L`.
fn screen_sites<L: Lane>(
    circuit: &Circuit,
    sites: impl IntoIterator<Item = (FaultSite, DelayFaultKind)>,
    screen: &mut Vec<(usize, u64)>,
    scratch: &mut GradeScratch,
) {
    let s = scratch;
    assert!(s.lanes > 0, "no batch was simulated");
    let used = u64::MAX >> (MAX_LANES - s.lanes);
    phase3::screen::<L>(circuit, &s.wave, used, sites, &mut s.sim, screen);
}

/// Phases 2 and 3 of the sequence in `lane` of the last
/// [`simulate_batch`] for the faults [`screen_batch`] admitted in that
/// lane; `screen` is its result for `faults`, in which the caller may
/// clear the lanes of faults it no longer grades. Returns the indexes
/// (into `faults`) of the detected ones, in list order, robustly for
/// delay faults and non-robustly for transition faults. Phase 2 runs
/// only for the PPOs a fault effect reaches. `relied_ppos` are the PPO
/// nets whose steady value the sequence's propagation phase relies on —
/// the §5 invalidation check strikes faults that corrupt them.
///
/// # Panics
///
/// Panics if `lane` is not a lane of the last batch, if `screen` names a
/// fault past the end of `faults`, or if `faults` are not all delay
/// faults or all transition faults.
pub fn grade_screened(
    circuit: &Circuit,
    lane: usize,
    relied_ppos: &[NodeId],
    faults: &[Fault],
    screen: &[(usize, u64)],
    scratch: &mut GradeScratch,
) -> Vec<usize> {
    let model = model_of(faults);
    let admitted = admitted(screen, lane).map(|k| (k, at_speed_site(model, faults[k]).0));
    match model {
        ModelKind::Transition => {
            phases_two_three::<u64>(circuit, lane, relied_ppos, admitted, scratch)
        }
        _ => phases_two_three::<PackedWave>(circuit, lane, relied_ppos, admitted, scratch),
    }
}

/// Phases 2 and 3 of the sequence in `lane` of the last
/// [`simulate_batch`]: [`screen_batch`] of `faults`, then
/// [`grade_screened`] of `lane`. Returns the indexes (into `faults`) of
/// the detected ones, in list order.
///
/// # Panics
///
/// Panics if `lane` is not a lane of the last batch, or if `faults` are
/// not all delay faults or all transition faults.
pub fn grade_lane(
    circuit: &Circuit,
    lane: usize,
    relied_ppos: &[NodeId],
    faults: &[Fault],
    scratch: &mut GradeScratch,
) -> Vec<usize> {
    let mut screen = std::mem::take(&mut scratch.screen);
    screen_batch(circuit, faults, &mut screen, scratch);
    let hits = grade_screened(circuit, lane, relied_ppos, faults, &screen, scratch);
    scratch.screen = screen;
    hits
}

/// The at-speed model of `faults`: the first fault's, delay for none.
fn model_of(faults: &[Fault]) -> ModelKind {
    faults.first().map_or(ModelKind::Delay, |f| f.model())
}

/// The site and slow transition of `fault`, a fault of `model`.
fn at_speed_site(model: ModelKind, fault: Fault) -> (FaultSite, DelayFaultKind) {
    match (model, fault) {
        (ModelKind::Delay, Fault::Delay(f)) => (f.site, f.kind),
        (ModelKind::Transition, Fault::Transition(f)) => (f.site, f.kind),
        _ => panic!("phase 3 grades one at-speed model a call, not {fault:?} in {model}"),
    }
}

/// The indexes of the faults `screen` admits in `lane`.
fn admitted(screen: &[(usize, u64)], lane: usize) -> impl Iterator<Item = usize> + '_ {
    screen
        .iter()
        .filter(move |&&(_, lanes)| lanes >> lane & 1 == 1)
        .map(|&(k, _)| k)
}

/// Phases 2 and 3 of the sequence in `lane` under the model of lane
/// type `L`, for the `(index, site)` pairs of the faults the screen
/// admitted in that lane: phase 3 traces first, then phase 2 runs FAUSIM
/// only for the non-steady PPOs a traced fault effect reaches, one
/// flip-flop per lane.
fn phases_two_three<L: Lane>(
    circuit: &Circuit,
    lane: usize,
    relied_ppos: &[NodeId],
    faults: impl IntoIterator<Item = (usize, FaultSite)>,
    scratch: &mut GradeScratch,
) -> Vec<usize> {
    let s = scratch;
    assert!(
        lane < s.lanes,
        "lane {lane} is not in the last batch of {}",
        s.lanes
    );
    let hits = phase3::detect::<L>(
        circuit,
        &s.wave,
        lane,
        faults,
        relied_ppos,
        &mut s.sim,
        |ffs, sim| {
            // Phase 2 on demand: a steady PPO latches no difference to
            // propagate, and without propagation frames nothing is observed.
            ffs.retain(|&i| {
                s.propagation > 0 && !phase3::steady_clean(s.wave[circuit.ppos()[i].index()], lane)
            });
            if ffs.is_empty() {
                return;
            }
            // Some PPO of this lane is not steady, so phase 1 ran the
            // propagation frames.
            let good = &s.good[..s.propagation];
            if s.lane_good.len() < good.len() {
                s.lane_good.resize_with(good.len(), Vec::new);
            }
            for (dst, src) in s.lane_good.iter_mut().zip(good) {
                dst.clear();
                dst.extend(src.iter().map(|v| v.lane(lane)));
            }
            let frames = &s.lane_good[..good.len()];
            let fausim = Fausim::new(circuit);
            let mut kept = 0;
            for start in (0..ffs.len()).step_by(64) {
                let end = ffs.len().min(start + 64);
                let mask = fausim.propagate_state_diffs_packed(frames, &ffs[start..end], sim);
                for k in start..end {
                    if mask >> (k - start) & 1 == 1 {
                        ffs[kept] = ffs[k];
                        kept += 1;
                    }
                }
            }
            ffs.truncate(kept);
        },
    );
    hits.into_iter().map(|(k, _)| k).collect()
}

/// Runs the three-phase fault simulation of one X-free sequence against
/// an arbitrary candidate list of delay faults, returning the indexes
/// (into `faults`) of the robustly detected ones: a one-lane
/// [`simulate_batch`] followed by what [`grade_lane`] does.
///
/// `filled` holds every applied PI frame; `fast` is the index of the
/// at-speed capture frame (`filled[fast - 1]` launches, `filled[fast]`
/// captures, everything after propagates under the slow clock).
/// `relied_ppos` are the PPO nets whose steady value the sequence's
/// propagation phase relies on — the §5 invalidation check strikes
/// faults that corrupt them. `rng` resolves flip-flop state bits the
/// initialization frames leave unknown (the paper's random fill),
/// drawing once per unresolved bit in flip-flop order.
///
/// # Panics
///
/// Panics if `fast` is 0 or out of bounds of `filled` (a delay-fault
/// grading always needs a launch/capture pair).
pub fn grade_filled_sequence(
    circuit: &Circuit,
    filled: &[Vec<bool>],
    fast: usize,
    relied_ppos: &[NodeId],
    faults: &[DelayFault],
    rng: &mut StdRng,
    scratch: &mut GradeScratch,
) -> Vec<usize> {
    simulate_batch(circuit, &[filled], fast, rng, scratch);
    let mut screen = std::mem::take(&mut scratch.screen);
    let sites = faults.iter().map(|f| (f.site, f.kind));
    screen_sites::<PackedWave>(circuit, sites, &mut screen, scratch);
    let admitted = admitted(&screen, 0).map(|k| (k, faults[k].site));
    let hits = phases_two_three::<PackedWave>(circuit, 0, relied_ppos, admitted, scratch);
    scratch.screen = screen;
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdf_netlist::{suite, FaultUniverse};
    use rand::SeedableRng;

    #[test]
    fn grading_is_deterministic_and_scratch_reusable() {
        let c = suite::s27();
        let faults = FaultUniverse::default().delay_faults(&c);
        let frames = vec![
            vec![false, true, false, true],
            vec![true, true, false, false],
            vec![false, false, true, true],
        ];
        let mut scratch = GradeScratch::default();
        let mut rng = StdRng::seed_from_u64(9);
        let a = grade_filled_sequence(&c, &frames, 1, &[], &faults, &mut rng, &mut scratch);
        let mut rng = StdRng::seed_from_u64(9);
        let b = grade_filled_sequence(&c, &frames, 1, &[], &faults, &mut rng, &mut scratch);
        assert_eq!(a, b, "same RNG state, same classifications");
    }

    #[test]
    #[should_panic(expected = "one at-speed model a call")]
    fn grade_lane_rejects_a_mixed_fault_list() {
        let c = suite::s27();
        let universe = FaultUniverse::default();
        let mut faults: Vec<Fault> = universe
            .delay_faults(&c)
            .into_iter()
            .map(Fault::Delay)
            .collect();
        faults.push(Fault::Transition(universe.transition_faults(&c)[0]));
        let frames = vec![vec![false; 4], vec![true; 4]];
        let mut rng = StdRng::seed_from_u64(1);
        let mut scratch = GradeScratch::default();
        simulate_batch(&c, &[&frames], 1, &mut rng, &mut scratch);
        grade_lane(&c, 0, &[], &faults, &mut scratch);
    }

    #[test]
    #[should_panic(expected = "fast frame index")]
    fn rejects_missing_capture_frame() {
        let c = suite::s27();
        let faults = FaultUniverse::default().delay_faults(&c);
        let frames = vec![vec![false; 4]];
        let mut rng = StdRng::seed_from_u64(1);
        grade_filled_sequence(
            &c,
            &frames,
            1,
            &[],
            &faults,
            &mut rng,
            &mut GradeScratch::default(),
        );
    }
}
