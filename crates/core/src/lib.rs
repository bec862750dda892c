//! The combined gate-delay-fault ATPG system for non-scan sequential
//! circuits — the paper's headline contribution (Figure 4, "the extended
//! FOGBUSTER algorithm").
//!
//! [`driver::DelayAtpg`] couples the TDgen local two-pattern generator with
//! SEMILET's sequential propagation and initialization around the flow of
//! Figure 4:
//!
//! 1. **Local test generation** (TDgen) — provoke the fault and drive the
//!    effect to a PO or PPO over the two coupled time frames.
//! 2. **Propagation** (SEMILET, forward time processing) — if the effect
//!    was latched, drive the state difference to a PO under slow clocking.
//! 3. **Propagation justification** — re-enter TDgen with additional
//!    steady-PPO constraints when the propagation needs state bits the
//!    local test left unjustifiable.
//! 4. **Justification of the test frames** — implicit in TDgen's forward
//!    functional semantics (every emitted vector pair is justified by
//!    construction).
//! 5. **Initialization** (SEMILET, reverse time processing) — compute a
//!    synchronizing sequence to the required state.
//!
//! Backtracking between the phases is realized by banning failed
//! observation targets and re-entering the local generator. After every
//! successful test, the three-phase fault simulation of §5 (FAUSIM good
//! machine + state-difference propagation, TDsim critical path tracing
//! with invalidation) drops additionally-detected faults.
//!
//! [`pattern`] assembles the emitted vectors with their clock schedule
//! (Figure 2: slow … slow, **fast**, slow … slow); [`report`] accumulates
//! the Table 3 statistics; [`scan`] provides the enhanced-scan baseline
//! used by the ablation benches.

pub mod artifact;
pub mod compact;
pub mod digest;
pub mod driver;
pub mod engine;
pub mod io;
pub mod json;
pub mod pattern;
pub mod phase;
pub mod report;
pub mod scan;
pub mod session;
pub mod shard;

pub use artifact::{ArtifactError, CircuitSource, PatternEntry, PatternSet, RunArtifact};
pub use compact::{compact_campaign, compact_sequences, CampaignSet, CompactionResult};
pub use digest::{config_digest, Digest};
pub use driver::{
    AtpgRun, DelayAtpg, DelayAtpgConfig, FaultClassification, FaultRecord, FsimScratch,
};
pub use engine::{
    Atpg, AtpgBuilder, AtpgEngine, AtpgError, Backend, Detection, FaultOutcome, Limits, Observer,
    RunConfig, RunSnapshot,
};
pub use gdf_netlist::{Fault, FaultModel, FaultSet, ModelKind};
pub use gdf_tdgen::Sensitization;
pub use io::{ArtifactIo, ProductionIo};
pub use pattern::{ClockSpeed, TestSequence, TimedVector};
pub use phase::{PhaseSink, PhaseSpan};
pub use report::{CircuitReport, ClassCounts, Coverage, Table3Row};
pub use scan::ScanDelayAtpg;
pub use session::{
    grade_patterns, Campaign, CampaignBuilder, CampaignReport, Checkpointer, EventObserver,
    GradeReport, ProgressEvent,
};
pub use shard::ShardArtifact;
