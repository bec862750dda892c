//! Output types of the local (combinational two-frame) test generation.

use gdf_algebra::logic3::Logic3;
use gdf_algebra::static5::{StaticSet, StaticValue};
use gdf_netlist::NodeId;
use std::fmt;

/// Where the local test observes the fault effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalObservation {
    /// The fault effect reaches a primary output within the fast frame —
    /// no sequential propagation needed.
    AtPo(NodeId),
    /// The fault effect is latched into the flip-flop with this index;
    /// `good_one` records the polarity (`true` = good machine latches 1,
    /// i.e. a `D`; `false` = a `D̄`). SEMILET's propagation phase must make
    /// this state bit observable.
    AtPpo {
        /// Index into [`gdf_netlist::Circuit::dffs`].
        dff: usize,
        /// `true` if the good machine latches 1 (classical `D`).
        good_one: bool,
    },
}

/// The value TDgen can specify to SEMILET for one pseudo primary output
/// after the fast frame (paper §6: only steady, hazard-free PPO values may
/// be specified robustly; everything else is an *unjustifiable* don't-care
/// that SEMILET must treat as fixed-but-unknown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PpoValue {
    /// Steady, hazard-free 0 across both frames — usable by propagation.
    Steady0,
    /// Steady, hazard-free 1 across both frames — usable by propagation.
    Steady1,
    /// The latched fault effect (`true` = good machine 1 / faulty 0).
    FaultEffect {
        /// `true` for a classical `D` (good 1, faulty 0).
        good_one: bool,
    },
    /// A transition, hazard, or otherwise unspecifiable value: fixed but
    /// unknown (`Xf`). Propagation may not assume anything about it.
    UnjustifiableX,
}

impl PpoValue {
    /// The good-machine value after the fast frame, if specifiable.
    pub fn good_value(self) -> Logic3 {
        match self {
            PpoValue::Steady0 => Logic3::Zero,
            PpoValue::Steady1 => Logic3::One,
            PpoValue::FaultEffect { good_one } => Logic3::from_bool(good_one),
            PpoValue::UnjustifiableX => Logic3::X,
        }
    }

    /// Whether the propagation phase may rely on this value.
    pub fn is_specifiable(self) -> bool {
        !matches!(self, PpoValue::UnjustifiableX)
    }

    /// The 5-valued set the propagation phase starts from for this PPO:
    /// the latched fault effect, a steady value, or `Xf`.
    pub fn static_set(self) -> StaticSet {
        match self {
            PpoValue::Steady0 => StaticSet::singleton(StaticValue::S0),
            PpoValue::Steady1 => StaticSet::singleton(StaticValue::S1),
            PpoValue::FaultEffect { good_one: true } => StaticSet::singleton(StaticValue::D),
            PpoValue::FaultEffect { good_one: false } => StaticSet::singleton(StaticValue::Db),
            PpoValue::UnjustifiableX => StaticSet::GOOD,
        }
    }
}

impl fmt::Display for PpoValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PpoValue::Steady0 => f.write_str("0"),
            PpoValue::Steady1 => f.write_str("1"),
            PpoValue::FaultEffect { good_one: true } => f.write_str("D"),
            PpoValue::FaultEffect { good_one: false } => f.write_str("D'"),
            PpoValue::UnjustifiableX => f.write_str("Xf"),
        }
    }
}

/// A successful local test for one gate delay fault.
///
/// `v1`/`v2` are the two PI vectors (frame 1 and frame 2); `X` entries are
/// don't-cares. `required_state` is the circuit state the initialization
/// phase must synchronize to before `v1` is applied (`X` = don't-care).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalTest {
    /// PI vector of the initial (slow) frame.
    pub v1: Vec<Logic3>,
    /// PI vector of the test (fast) frame.
    pub v2: Vec<Logic3>,
    /// Required flip-flop state when `v1` is applied.
    pub required_state: Vec<Logic3>,
    /// Where the fault effect is observed.
    pub observation: LocalObservation,
    /// Per-flip-flop interface value after the fast frame (see
    /// [`PpoValue`]).
    pub ppo_values: Vec<PpoValue>,
    /// Backtracks spent by the local search.
    pub backtracks: u32,
}

impl LocalTest {
    /// Whether sequential propagation is needed (effect latched in state).
    pub fn needs_propagation(&self) -> bool {
        matches!(self.observation, LocalObservation::AtPpo { .. })
    }

    /// Whether initialization is needed (some state bit is required).
    pub fn needs_initialization(&self) -> bool {
        self.required_state.iter().any(|v| v.is_known())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppo_value_semantics() {
        assert_eq!(PpoValue::Steady0.good_value(), Logic3::Zero);
        assert_eq!(
            PpoValue::FaultEffect { good_one: true }.good_value(),
            Logic3::One
        );
        assert!(!PpoValue::UnjustifiableX.is_specifiable());
        assert_eq!(PpoValue::UnjustifiableX.good_value(), Logic3::X);
        assert_eq!(PpoValue::FaultEffect { good_one: false }.to_string(), "D'");
        assert_eq!(PpoValue::Steady1.to_string(), "1");
    }

    #[test]
    fn local_test_flags() {
        let t = LocalTest {
            v1: vec![Logic3::Zero],
            v2: vec![Logic3::One],
            required_state: vec![Logic3::X, Logic3::One],
            observation: LocalObservation::AtPpo {
                dff: 0,
                good_one: true,
            },
            ppo_values: vec![
                PpoValue::FaultEffect { good_one: true },
                PpoValue::UnjustifiableX,
            ],
            backtracks: 3,
        };
        assert!(t.needs_propagation());
        assert!(t.needs_initialization());
        let t2 = LocalTest {
            observation: LocalObservation::AtPo(gdf_netlist::NodeId(0)),
            required_state: vec![Logic3::X, Logic3::X],
            ..t
        };
        assert!(!t2.needs_propagation());
        assert!(!t2.needs_initialization());
    }
}
