//! The two-frame delay algebra of one target fault: TDgen's instance of
//! the shared search machinery in [`gdf_algebra::search`].
//!
//! TDgen's per-net sets are 8-valued [`DelaySet`]s; the fault site
//! converts a provoking `R` (`F`) into `Rc` (`Fc`), the paper's *"only
//! exception"* to plain gate implication (§3, with its refs 8 and 20);
//! and the state register contributes the `final(PPI) = initial(PPO)`
//! correlation. [`DelayAlgebra::network`] seeds TDgen's initial domains.

use gdf_algebra::delay::{
    eval_gate_sets, eval_gate_sets_nonrobust, narrow_inputs, narrow_inputs_nonrobust, DelaySet,
    DelayValue,
};
use gdf_algebra::search::{SetAlgebra, SetNet};
use gdf_netlist::{Circuit, DelayFault, DelayFaultKind, FaultSite, GateKind};

/// Which sensitization criterion the implication tables follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sensitization {
    /// The paper's strict robust model: off-path inputs of a falling
    /// on-path transition must be steady and hazard-free; parity-gate
    /// off-path inputs must be steady and hazard-free.
    #[default]
    Robust,
    /// The relaxed non-robust model the paper's conclusions announce:
    /// the fault effect propagates whenever flipping the carrying inputs'
    /// *final* values flips the gate's final value (hazards may invalidate
    /// such a test). Differences that leave the good-machine output steady
    /// are not representable in the 8-valued algebra and are conservatively
    /// dropped.
    NonRobust,
}

impl std::str::FromStr for Sensitization {
    type Err = String;

    /// The names every user-facing surface shares (`gdf
    /// --sensitization`, artifact configs, `gdf serve` submissions):
    /// `robust`, `non-robust` (alias `nonrobust`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "robust" => Ok(Sensitization::Robust),
            "non-robust" | "nonrobust" => Ok(Sensitization::NonRobust),
            other => Err(format!(
                "unknown sensitization `{other}` (robust|non-robust)"
            )),
        }
    }
}

/// Non-robust value-level gate evaluation (see
/// [`Sensitization::NonRobust`]); defined in the algebra beside the set
/// functions built from it.
pub use gdf_algebra::delay::eval_gate_nonrobust;

/// The delay algebra of one target fault: robust set implication when
/// `ROBUST`, else non-robust ([`Sensitization`]).
///
/// # Example
///
/// ```
/// use gdf_netlist::{suite, DelayFault, DelayFaultKind, FaultSite};
/// use gdf_tdgen::network::DelayAlgebra;
///
/// let c = suite::s27();
/// let g14 = c.node_by_name("G14").unwrap();
/// let fault = DelayFault {
///     site: FaultSite::on_stem(g14),
///     kind: DelayFaultKind::SlowToRise,
/// };
/// let mut net = DelayAlgebra::<true>::new(fault).network(&c);
/// assert!(net.propagate(), "no conflict before any decision");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayAlgebra<const ROBUST: bool> {
    fault: DelayFault,
}

impl<const ROBUST: bool> DelayAlgebra<ROBUST> {
    /// The algebra of `fault`.
    pub fn new(fault: DelayFault) -> Self {
        DelayAlgebra { fault }
    }

    /// The target fault.
    pub fn fault(&self) -> DelayFault {
        self.fault
    }

    /// The provoking transition the fault site must show (`R` for
    /// slow-to-rise, `F` for slow-to-fall).
    pub fn provoking_value(&self) -> DelayValue {
        match self.fault.kind {
            DelayFaultKind::SlowToRise => DelayValue::R,
            DelayFaultKind::SlowToFall => DelayValue::F,
        }
    }

    /// The fault-carrying value injected downstream of the site.
    pub fn marked_value(&self) -> DelayValue {
        self.provoking_value()
            .with_fault_mark()
            .expect("transition")
    }

    /// The implication network of the fault over TDgen's initial
    /// domains:
    ///
    /// * primary inputs and flip-flop outputs: `{0,1,R,F}` (hazard-free);
    /// * nets in the fault's output cone: all 8 values;
    /// * everything else: the 6 clean values.
    pub fn network(self, circuit: &Circuit) -> SetNet<'_, Self> {
        let seed = match self.fault.site.branch {
            None => self.fault.site.stem,
            Some((sink, _)) => sink,
        };
        let cone = circuit.cone_words(seed);
        let mut sets: Vec<DelaySet> = (0..circuit.num_nodes())
            .map(|i| {
                if cone[i / 64] >> (i % 64) & 1 == 1 {
                    DelaySet::ALL
                } else {
                    DelaySet::CLEAN
                }
            })
            .collect();
        for &src in circuit.inputs().iter().chain(circuit.dffs()) {
            sets[src.index()] = DelaySet::HAZARD_FREE;
        }
        // The stem itself holds pre-conversion (clean) values.
        if self.fault.site.branch.is_none() {
            let stem = self.fault.site.stem.index();
            sets[stem] = sets[stem].intersect(DelaySet::CLEAN);
        }
        SetNet::new(circuit, self, sets)
    }
}

impl<const ROBUST: bool> SetAlgebra for DelayAlgebra<ROBUST> {
    type Set = DelaySet;
    const COUPLED: bool = true;

    fn eval(&self, kind: GateKind, ins: &[DelaySet]) -> DelaySet {
        if ROBUST {
            eval_gate_sets(kind, ins)
        } else {
            eval_gate_sets_nonrobust(kind, ins)
        }
    }

    fn narrow(&self, kind: GateKind, out: &mut DelaySet, ins: &mut [DelaySet]) -> bool {
        if ROBUST {
            narrow_inputs(kind, out, ins)
        } else {
            narrow_inputs_nonrobust(kind, out, ins)
        }
    }

    fn site(&self) -> Option<FaultSite> {
        Some(self.fault.site)
    }

    /// The provoking transition becomes its fault-carrying form.
    fn convert(&self, s: DelaySet) -> DelaySet {
        let t = self.provoking_value();
        if s.contains(t) {
            let mut c = s;
            c.remove(t);
            c.insert(self.marked_value());
            c
        } else {
            s
        }
    }

    /// The provoking value stands for its marked form in `post`; every
    /// other value for itself.
    fn unconvert_within(&self, post: DelaySet, pre: DelaySet) -> DelaySet {
        let t = self.provoking_value();
        let mut keep = pre.intersect(post);
        keep.remove(t);
        if pre.contains(t) && post.contains(self.marked_value()) {
            keep.insert(t);
        }
        keep
    }

    /// `final(q) = initial(d)`. Conversion does not alter frame
    /// components, so the pre-conversion `d` set is authoritative.
    fn couple(&self, q: DelaySet, d: DelaySet) -> (DelaySet, DelaySet) {
        let mut q_keep = DelaySet::EMPTY;
        let mut d_keep = DelaySet::EMPTY;
        for b in [false, true] {
            if !d.with_initial(b).is_empty() {
                q_keep = q_keep.union(q.with_final(b));
            }
        }
        for b in [false, true] {
            if !q_keep.with_final(b).is_empty() {
                d_keep = d_keep.union(d.with_initial(b));
            }
        }
        (q_keep, d_keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdf_algebra::delay::eval_gate;
    use gdf_netlist::{suite, CircuitBuilder};

    fn robust(c: &Circuit, fault: DelayFault) -> SetNet<'_, DelayAlgebra<true>> {
        DelayAlgebra::<true>::new(fault).network(c)
    }

    fn str_fault(c: &Circuit, name: &str) -> DelayFault {
        DelayFault {
            site: FaultSite::on_stem(c.node_by_name(name).unwrap()),
            kind: DelayFaultKind::SlowToRise,
        }
    }

    #[test]
    fn initial_domains() {
        let c = suite::s27();
        let net = robust(&c, str_fault(&c, "G14"));
        let g0 = c.node_by_name("G0").unwrap();
        assert_eq!(net.set(g0), DelaySet::HAZARD_FREE);
        let g14 = c.node_by_name("G14").unwrap();
        assert_eq!(net.set(g14), DelaySet::CLEAN, "stem holds pre-fault values");
        let g8 = c.node_by_name("G8").unwrap();
        assert_eq!(net.set(g8), DelaySet::ALL, "cone nets may carry");
        let g12 = c.node_by_name("G12").unwrap();
        assert_eq!(net.set(g12), DelaySet::CLEAN, "off-cone nets never carry");
    }

    #[test]
    fn conversion_round_trip() {
        let c = suite::s27();
        let net = robust(&c, str_fault(&c, "G14"));
        let s = DelaySet::from_values([DelayValue::R, DelayValue::S0]);
        let conv = net.algebra().convert(s);
        assert!(conv.contains(DelayValue::Rc));
        assert!(!conv.contains(DelayValue::R));
        assert!(conv.contains(DelayValue::S0));
        let back = net.algebra().unconvert_within(conv, DelaySet::CLEAN);
        assert_eq!(back, s);
    }

    #[test]
    fn excitation_implies_marked_downstream() {
        // y = NOT(s), s = NOT(a): StR at s; pinning s to {R} must make y's
        // set fault-carrying (Fc) after implication.
        let mut b = CircuitBuilder::new("tiny");
        b.add_input("a");
        b.add_gate("s", GateKind::Not, &["a"]);
        b.add_gate("y", GateKind::Not, &["s"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let fault = str_fault(&c, "s");
        let mut net = robust(&c, fault);
        assert!(net.propagate());
        let s = c.node_by_name("s").unwrap();
        assert!(net.assign(s, DelaySet::singleton(DelayValue::R)));
        assert!(net.propagate());
        let y = c.node_by_name("y").unwrap();
        assert_eq!(net.set(y), DelaySet::singleton(DelayValue::Fc));
        let a = c.node_by_name("a").unwrap();
        assert_eq!(net.set(a), DelaySet::singleton(DelayValue::F));
    }

    #[test]
    fn rollback_restores_state() {
        let c = suite::s27();
        let mut net = robust(&c, str_fault(&c, "G14"));
        net.propagate();
        let g0 = c.node_by_name("G0").unwrap();
        let before = net.set(g0);
        let mark = net.checkpoint();
        assert!(net.assign(g0, DelaySet::singleton(DelayValue::R)));
        net.propagate();
        assert_ne!(net.set(g0), before);
        net.rollback(mark);
        assert_eq!(net.set(g0), before);
    }

    #[test]
    fn conflict_detected_and_cleared() {
        let mut b = CircuitBuilder::new("c");
        b.add_input("a");
        b.add_gate("y", GateKind::Buf, &["a"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let fault = str_fault(&c, "y");
        let mut net = robust(&c, fault);
        net.propagate();
        let a = c.node_by_name("a").unwrap();
        let y = c.node_by_name("y").unwrap();
        let mark = net.checkpoint();
        assert!(net.assign(a, DelaySet::singleton(DelayValue::S0)));
        // y (pre-conversion) must follow a.
        net.propagate();
        assert_eq!(net.set(y), DelaySet::singleton(DelayValue::S0));
        // Now force y to S1: conflict.
        assert!(!net.assign(y, DelaySet::singleton(DelayValue::S1)));
        assert!(!net.propagate());
        net.rollback(mark);
        assert!(net.propagate());
    }

    #[test]
    fn dff_coupling_links_frames() {
        // q = DFF(d); d = NOT(q) (toggle). Pin q to {R} (init 0, fin 1):
        // then init(d) must be 1, so d ∈ {values with init 1}.
        let mut b = CircuitBuilder::new("t");
        b.add_input("a");
        b.add_dff("q", "d");
        b.add_gate("d", GateKind::Not, &["q"]);
        b.add_gate("y", GateKind::And, &["a", "q"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let fault = str_fault(&c, "y");
        let mut net = robust(&c, fault);
        net.propagate();
        let q = c.node_by_name("q").unwrap();
        let d = c.node_by_name("d").unwrap();
        assert!(net.assign(q, DelaySet::singleton(DelayValue::R)));
        assert!(net.propagate());
        for v in net.set(d).iter() {
            assert!(v.initial(), "init(d) must be 1, got {v}");
        }
        // And the toggle structure: d = NOT(q) with q=R means d=F — whose
        // init is indeed 1. Fully forced:
        assert_eq!(net.set(d), DelaySet::singleton(DelayValue::F));
    }

    #[test]
    fn dff_coupling_detects_impossible_state() {
        // q = DFF(d); d = BUF(q): q can never change value between frames.
        let mut b = CircuitBuilder::new("hold");
        b.add_input("a");
        b.add_dff("q", "d");
        b.add_gate("d", GateKind::Buf, &["q"]);
        b.add_gate("y", GateKind::And, &["a", "q"]);
        b.mark_output("y");
        let c = b.build().unwrap();
        let fault = str_fault(&c, "y");
        let mut net = robust(&c, fault);
        net.propagate();
        let q = c.node_by_name("q").unwrap();
        assert!(net.assign(q, DelaySet::singleton(DelayValue::R)));
        assert!(!net.propagate(), "hold FF cannot toggle");
    }

    #[test]
    fn nonrobust_model_relaxes_and_rule() {
        use DelayValue::*;
        // Robust: Fc & 1h = F (mark dropped). Non-robust: faulty final of
        // AND(Fc,H1) is 1&1=1 vs good 0 → mark kept.
        assert_eq!(eval_gate_nonrobust(GateKind::And, &[Fc, H1]), Fc);
        assert_eq!(eval_gate(GateKind::And, &[Fc, H1]), F);
        // Both agree when the side input is controlling.
        assert_eq!(eval_gate_nonrobust(GateKind::And, &[Fc, S0]), S0);
    }

    #[test]
    fn nonrobust_set_eval_consistent_with_value_eval() {
        use DelayValue::*;
        let a = DelaySet::from_values([Fc, R]);
        let b = DelaySet::from_values([H1, S1]);
        let got = eval_gate_sets_nonrobust(GateKind::And, &[a, b]);
        let mut expect = DelaySet::EMPTY;
        for va in a.iter() {
            for vb in b.iter() {
                expect.insert(eval_gate_nonrobust(GateKind::And, &[va, vb]));
            }
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn branch_fault_converts_single_edge() {
        // s fans out to y1, y2; branch fault on s→y1 only.
        let mut b = CircuitBuilder::new("br");
        b.add_input("a");
        b.add_gate("s", GateKind::Buf, &["a"]);
        b.add_gate("y1", GateKind::Buf, &["s"]);
        b.add_gate("y2", GateKind::Buf, &["s"]);
        b.mark_output("y1");
        b.mark_output("y2");
        let c = b.build().unwrap();
        let s = c.node_by_name("s").unwrap();
        let y1 = c.node_by_name("y1").unwrap();
        let fault = DelayFault {
            site: FaultSite::on_branch(s, y1, 0),
            kind: DelayFaultKind::SlowToRise,
        };
        let mut net = robust(&c, fault);
        net.propagate();
        assert!(net.assign(s, DelaySet::singleton(DelayValue::R)));
        assert!(net.propagate());
        let y2 = c.node_by_name("y2").unwrap();
        assert_eq!(net.set(y1), DelaySet::singleton(DelayValue::Rc));
        assert_eq!(net.set(y2), DelaySet::singleton(DelayValue::R));
    }
}
