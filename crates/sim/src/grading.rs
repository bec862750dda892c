//! The three-phase §5 fault-grading entry point, shared by the ATPG
//! drop loop and standalone pattern re-grading.
//!
//! [`grade_filled_sequence`] classifies a candidate delay-fault list
//! against one *filled* (X-free) vector sequence, running the paper's
//! three phases bit-parallel:
//!
//! 1. good-machine simulation of the initialization frames
//!    ([`crate::goodsim`]),
//! 2. packed PPO state-difference propagation through the slow-clock
//!    frames ([`crate::fausim::Fausim::propagate_state_diffs_packed`],
//!    one PPO per lane): the good machine runs the propagation frames
//!    once per sequence, and every 64-PPO chunk selectively traces its
//!    differences against those frames,
//! 3. packed critical-path tracing of the fast frame
//!    ([`crate::tdsim::detected_delay_faults_packed`], 64 candidate
//!    faults per word, each batch evaluating only the gates its marks
//!    reach) with the invalidation check against the relied PPOs.
//!
//! Phase 3 starts from the waveform of
//! [`crate::waveform::two_frame_values_into`] and phase 2 from the good
//! machine's frames, so both start from consistent values — every gate
//! holds its gate function of its fanins' values — which is what makes
//! skipping unreached gates exact.
//!
//! The ATPG driver (`gdf_core::DelayAtpg::fault_simulate_sequence`)
//! X-fills a `TestSequence` and calls straight into this function; the
//! pattern re-grading API (`gdf_core::session::grade_patterns`) does the
//! same for saved `PatternSet` artifacts — both therefore share one
//! implementation of the §5 semantics.
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
use crate::goodsim::GoodSimulator;
use crate::packed::SimScratch;
use crate::tdsim::detected_delay_faults_packed;
use crate::waveform::two_frame_values_into;
use gdf_algebra::delay::DelayValue;
use gdf_algebra::logic3::Logic3;
use gdf_netlist::{Circuit, DelayFault, NodeId, TransitionFault};
use rand::rngs::StdRng;
use rand::Rng;

/// Reusable buffers for [`grade_filled_sequence`]: keep one per worker
/// and hand it to every call, so the simulation sweeps allocate nothing
/// after warm-up.
#[derive(Debug, Default, Clone)]
pub struct GradeScratch {
    /// One PI frame in 3-valued form (good-machine stepping).
    pi: Vec<Logic3>,
    /// Flip-flop state in the initial (V1) frame after X-fill.
    state1: Vec<bool>,
    /// Fault-free node values of each propagation frame.
    good: Vec<Vec<Logic3>>,
    /// Frame-1 binary node values of the waveform evaluation.
    bits: Vec<bool>,
    /// The fault-free two-frame waveform.
    wave: Vec<DelayValue>,
    /// PPOs proven observable by the propagation phase.
    observable: Vec<NodeId>,
    /// Flip-flop indexes whose state difference phase 2 must propagate.
    diff_dffs: Vec<usize>,
    /// The shared packed-simulator scratch.
    sim: SimScratch,
}

/// Runs the three-phase fault simulation of one X-free sequence against
/// an arbitrary candidate fault list, returning the indexes (into
/// `faults`) of the robustly detected ones.
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
    run_phases_one_two(circuit, filled, fast, rng, scratch);

    // Phase 3: robust delay fault simulation of the fast frame, 64
    // candidate faults per word, with the invalidation check.
    let hits = detected_delay_faults_packed(
        circuit,
        &scratch.wave,
        faults,
        &scratch.observable,
        relied_ppos,
        &mut scratch.sim,
    );
    hits.into_iter().map(|(k, _)| k).collect()
}

/// The transition-fault twin of [`grade_filled_sequence`]: identical
/// phases 1 and 2, with phase 3 swapped for the packed *non-robust*
/// final-value classification
/// ([`crate::tfsim::detected_transition_faults_packed`]). The two share
/// one RNG discipline — the same sequence draws the same X-fill — so a
/// transition grading is comparable, fault for fault, with a robust one.
///
/// # Panics
///
/// Panics if `fast` is 0 or out of bounds of `filled`.
pub fn grade_filled_sequence_transition(
    circuit: &Circuit,
    filled: &[Vec<bool>],
    fast: usize,
    relied_ppos: &[NodeId],
    faults: &[TransitionFault],
    rng: &mut StdRng,
    scratch: &mut GradeScratch,
) -> Vec<usize> {
    run_phases_one_two(circuit, filled, fast, rng, scratch);

    // Phase 3: non-robust final-value classification of the fast frame,
    // 64 candidate faults per word, same invalidation rule.
    let hits = crate::tfsim::detected_transition_faults_packed(
        circuit,
        &scratch.wave,
        faults,
        &scratch.observable,
        relied_ppos,
        &mut scratch.sim,
    );
    hits.into_iter().map(|(k, _)| k).collect()
}

/// Phases 1 and 2 of the §5 pipeline, shared by every fault model:
/// good-machine initialization (with random fill of unresolved state
/// bits), two-frame waveform construction into `scratch.wave`, and
/// packed PPO state-difference propagation into `scratch.observable`.
fn run_phases_one_two(
    circuit: &Circuit,
    filled: &[Vec<bool>],
    fast: usize,
    rng: &mut StdRng,
    scratch: &mut GradeScratch,
) {
    assert!(
        fast > 0 && fast < filled.len(),
        "fast frame index {fast} out of range for {} frames",
        filled.len()
    );
    // Phase 1: good-machine simulation of the initialization frames,
    // yielding the state when V1 is applied.
    let sim = GoodSimulator::new(circuit);
    scratch.sim.state.clear();
    scratch.sim.state.resize(circuit.num_dffs(), Logic3::X);
    for v in &filled[..fast.saturating_sub(1)] {
        scratch.pi.clear();
        scratch.pi.extend(v.iter().map(|&b| Logic3::from_bool(b)));
        sim.eval_comb_into(&scratch.pi, &scratch.sim.state, &mut scratch.sim.logic);
        sim.next_state_into(&scratch.sim.logic, &mut scratch.sim.state_next);
        std::mem::swap(&mut scratch.sim.state, &mut scratch.sim.state_next);
    }
    scratch.state1.clear();
    for i in 0..circuit.num_dffs() {
        let b = scratch.sim.state[i].to_bool().unwrap_or_else(|| rng.gen());
        scratch.state1.push(b);
    }
    two_frame_values_into(
        circuit,
        &filled[fast - 1],
        &filled[fast],
        &scratch.state1,
        &mut scratch.bits,
        &mut scratch.wave,
    );

    // Phase 2: which PPOs with non-steady values are observable through
    // the propagation frames? One lane per candidate PPO.
    let prop = &filled[fast + 1..];
    scratch.observable.clear();
    scratch.diff_dffs.clear();
    if !prop.is_empty() {
        for (i, &ppo) in circuit.ppos().iter().enumerate() {
            if !scratch.wave[ppo.index()].is_steady_clean() {
                scratch.diff_dffs.push(i);
            }
        }
    }
    if scratch.diff_dffs.is_empty() {
        return;
    }
    // The good machine runs the propagation frames once, from the state
    // the fast frame latches; every chunk of 64 PPOs shares its values.
    scratch.sim.state.clear();
    scratch.sim.state.extend(
        circuit
            .ppos()
            .iter()
            .map(|&ppo| Logic3::from_bool(scratch.wave[ppo.index()].final_value())),
    );
    scratch.good.resize_with(prop.len(), Vec::new);
    for (v, values) in prop.iter().zip(&mut scratch.good) {
        scratch.pi.clear();
        scratch.pi.extend(v.iter().map(|&b| Logic3::from_bool(b)));
        sim.eval_comb_into(&scratch.pi, &scratch.sim.state, values);
        sim.next_state_into(values, &mut scratch.sim.state_next);
        std::mem::swap(&mut scratch.sim.state, &mut scratch.sim.state_next);
    }
    let fausim = Fausim::new(circuit);
    for chunk in scratch.diff_dffs.chunks(64) {
        let mask = fausim.propagate_state_diffs_packed(&scratch.good, chunk, &mut scratch.sim);
        for (k, &i) in chunk.iter().enumerate() {
            if mask >> k & 1 == 1 {
                scratch.observable.push(circuit.ppos()[i]);
            }
        }
    }
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
