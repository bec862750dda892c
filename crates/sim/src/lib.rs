//! Simulation substrate: good-machine logic simulation, the FAUSIM
//! sequential fault simulator, and phase-3 fault simulation of the fast
//! frame for robust delay faults (TDsim) and transition faults.
//!
//! Section 5 of the paper splits fault simulation into three phases. Each
//! phase exists in two forms — the scalar reference implementation and a
//! bit-parallel (64-lane) variant that production grading runs — and the
//! scalar form is the correctness oracle the packed form is
//! differential-tested against:
//!
//! 1. *"Simulation of the good machine for all time frames of the
//!    initialization and for the fast clock frame"* —
//!    [`grading::simulate_batch`] runs it **one test sequence per lane**
//!    for a batch of up to 64 sequences of one shape:
//!    [`packed::PackedGoodSim`], the two-bit-plane 3-valued simulator,
//!    steps the initialization, launch and propagation frames, and the
//!    packed delay algebra builds the two-frame waveform. The random fill
//!    of state bits the initialization leaves unknown draws lane by lane,
//!    in flip-flop order within a lane — the order a sequence-at-a-time
//!    loop draws in. `gdf_core::session::grade_patterns` batches
//!    consecutive sequences of one shape whose PI frames need no X-fill
//!    after the first; every other caller grades a one-lane batch. The
//!    scalar [`goodsim::GoodSimulator`] and [`waveform::two_frame_values`]
//!    are its oracle.
//! 2. *"Stuck-at fault simulation of the propagation phase for all PPOs
//!    where possibly fault effects can occur"* — [`fausim`], which injects
//!    a `D`/`D̄` state difference at a pseudo primary input and propagates
//!    it through fault-free (slow-clock) frames.
//!    [`Fausim::propagate_state_diffs_packed`] runs **one lane per PPO**
//!    against the sequence's lane of the batch's propagation frames.
//!    Grading runs it *after* phase 3 and only for the non-steady PPOs a
//!    traced fault effect actually reaches (plus the PPOs that a provoked
//!    branch into a flip-flop latches): those are exactly the PPOs where
//!    fault effects can occur.
//! 3. *"Delay fault simulation of the fast time frame by critical path
//!    tracing"* — [`tdsim`], working on the sequence's lane of the
//!    two-frame 8-valued waveform, including the paper's *invalidation*
//!    check for faults observed through a PPO; [`tfsim`] is the same
//!    phase for transition faults. One packed driver serves both models
//!    and traces per **fanout-free region**. A **screen**
//!    ([`grading::screen_batch`]) runs once per phase-1 batch, **one
//!    sequence per lane**: one reverse sweep marks, per node, the lanes
//!    where a fault effect reaches its region root
//!    ([`gdf_netlist::Circuit::region_root`]) on good values only, and one
//!    pass over the candidates gives each fault the lanes where it is
//!    provoked and reaches its root. Each sequence then sees only the
//!    faults its lane admits: each root that one of them reaches is
//!    traced once, **one root per lane** and up to 64 per selective
//!    trace, and each root's observation fans back out to the faults of
//!    its region. Only the lane differs:
//!    [`detected_delay_faults_packed`] traces
//!    [`gdf_algebra::packed::PackedWave`] bit-planes, whose `car` plane
//!    is the fault effect, and [`detected_transition_faults_packed`]
//!    traces one word of final values, where any difference from the
//!    good value is the fault effect. Both take one scalar waveform and
//!    screen it as a one-lane batch.
//!
//! The packed simulators run on *selective trace*: they start from the
//! fault-free values, visit gates in level order, evaluate a gate only
//! when one of its fanins differs from its fault-free value, and reset
//! only the nodes that changed. A gate whose fanins all hold their
//! fault-free values outputs its fault-free value, so the work follows
//! the paths fault effects take, not the circuit's size — with results
//! identical to a full sweep. They share [`SimScratch`], a bundle of
//! reusable node-value buffers and the one level-ordered queue:
//! per-sequence hot loops allocate nothing after warm-up.

pub mod fausim;
pub mod goodsim;
pub mod grading;
pub mod packed;
mod phase3;
pub mod tdsim;
pub mod tfsim;
pub mod waveform;

pub use fausim::{Fausim, PropagationOutcome};
pub use goodsim::GoodSimulator;
pub use grading::{grade_filled_sequence, GradeScratch};
pub use packed::{PackedGoodSim, PackedLogic, SimScratch};
pub use tdsim::{detected_delay_faults, detected_delay_faults_packed, DelayObservation};
pub use tfsim::{detected_transition_faults, detected_transition_faults_packed};
pub use waveform::two_frame_values;

/// The unified engine's fault-parallel orchestration shares simulator
/// instances across worker threads, so every simulator must stay free of
/// interior mutability: all scratch state lives in per-call locals (or in
/// an explicitly passed [`SimScratch`]). These compile-time assertions pin
/// that down — adding a `RefCell`/`Cell` to a simulator becomes a build
/// error here rather than a data race there.
const _: () = {
    const fn assert_sync_simulators<T: Send + Sync>() {}
    assert_sync_simulators::<Fausim<'_>>();
    assert_sync_simulators::<GoodSimulator<'_>>();
    assert_sync_simulators::<PackedGoodSim<'_>>();
};
