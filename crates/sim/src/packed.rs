//! Bit-parallel 3-valued simulation: 64 independent Kleene values per
//! machine word, two bit-planes per net.
//!
//! [`PackedLogic`] uses the classic two-rail encoding — a `ones` plane for
//! lanes known to be 1 and a `zeros` plane for lanes known to be 0; a lane
//! set in neither plane is `X`. Gate evaluation is a handful of word ops
//! and is lane-identical to [`gdf_algebra::logic3::eval_gate3`] (the Kleene
//! operations are associative, so the pairwise fold enumerates exactly the
//! n-ary results; proven by the exhaustive tests below).
//!
//! [`PackedGoodSim`] sweeps the combinational block once for 64 packed
//! 3-valued patterns. It is the production good machine of §5 grading:
//! phase 1 ([`crate::grading::simulate_batch`]) runs the initialization,
//! launch and propagation frames of up to 64 test sequences on it, one
//! sequence per lane. The scalar [`GoodSimulator`](crate::GoodSimulator)
//! is its oracle.
//!
//! [`SimScratch`] bundles the reusable node-value buffers of every packed
//! sweep so per-sequence hot loops allocate nothing after warm-up.
//!
//! `LevelQueue` is the crate's one selective-trace scheduler, shared by
//! the packed fault simulators.

use crate::phase3::Phase3Scratch;
use gdf_algebra::logic3::Logic3;
use gdf_netlist::{Circuit, GateKind, NodeId};

/// 64 Kleene logic values, one per bit lane, in two-rail encoding.
///
/// Invariant: `ones & zeros == 0` (a lane cannot be both known-1 and
/// known-0). All constructors and operations maintain it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PackedLogic {
    /// Lanes known to be logic 1.
    pub ones: u64,
    /// Lanes known to be logic 0.
    pub zeros: u64,
}

impl PackedLogic {
    /// All 64 lanes unknown.
    pub const ALL_X: PackedLogic = PackedLogic { ones: 0, zeros: 0 };

    /// All 64 lanes holding the same value.
    pub fn splat(v: Logic3) -> PackedLogic {
        match v {
            Logic3::One => PackedLogic { ones: !0, zeros: 0 },
            Logic3::Zero => PackedLogic { ones: 0, zeros: !0 },
            Logic3::X => PackedLogic::ALL_X,
        }
    }

    /// The value in lane `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= 64`.
    pub fn lane(self, k: usize) -> Logic3 {
        assert!(k < 64);
        if self.ones >> k & 1 == 1 {
            Logic3::One
        } else if self.zeros >> k & 1 == 1 {
            Logic3::Zero
        } else {
            Logic3::X
        }
    }

    /// Overwrites lane `k` with `v`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= 64`.
    pub fn set_lane(&mut self, k: usize, v: Logic3) {
        assert!(k < 64);
        let mask = 1u64 << k;
        self.ones &= !mask;
        self.zeros &= !mask;
        match v {
            Logic3::One => self.ones |= mask,
            Logic3::Zero => self.zeros |= mask,
            Logic3::X => {}
        }
    }

    /// Lanes with a known (non-`X`) value.
    pub fn known(self) -> u64 {
        self.ones | self.zeros
    }

    /// Kleene negation on all lanes.
    #[allow(clippy::should_implement_trait)] // mirror Logic3::not's name
    pub fn not(self) -> PackedLogic {
        PackedLogic {
            ones: self.zeros,
            zeros: self.ones,
        }
    }

    /// Kleene conjunction on all lanes.
    pub fn and(self, other: PackedLogic) -> PackedLogic {
        PackedLogic {
            ones: self.ones & other.ones,
            zeros: self.zeros | other.zeros,
        }
    }

    /// Kleene disjunction on all lanes.
    pub fn or(self, other: PackedLogic) -> PackedLogic {
        PackedLogic {
            ones: self.ones | other.ones,
            zeros: self.zeros & other.zeros,
        }
    }

    /// Kleene exclusive-or on all lanes.
    pub fn xor(self, other: PackedLogic) -> PackedLogic {
        let known = self.known() & other.known();
        let v = self.ones ^ other.ones;
        PackedLogic {
            ones: known & v,
            zeros: known & !v,
        }
    }
}

/// Evaluates one gate over packed node values addressed through its fanin
/// list, lane-wise identical to [`gdf_algebra::logic3::eval_gate3`]: the
/// Kleene operations are associative, so the pairwise fold from the first
/// pin enumerates exactly the n-ary results. Mirrors `eval3_indexed`, the
/// scalar 3-valued sweep.
pub(crate) fn eval_packed3_indexed(
    kind: GateKind,
    fanins: &[NodeId],
    values: &[PackedLogic],
) -> PackedLogic {
    let v = |f: &NodeId| values[f.index()];
    let first = v(&fanins[0]);
    match kind {
        GateKind::Buf => first,
        GateKind::Not => first.not(),
        GateKind::And => fanins[1..].iter().fold(first, |a, f| a.and(v(f))),
        GateKind::Nand => fanins[1..].iter().fold(first, |a, f| a.and(v(f))).not(),
        GateKind::Or => fanins[1..].iter().fold(first, |a, f| a.or(v(f))),
        GateKind::Nor => fanins[1..].iter().fold(first, |a, f| a.or(v(f))).not(),
        GateKind::Xor => fanins[1..].iter().fold(first, |a, f| a.xor(v(f))),
        GateKind::Xnor => fanins[1..].iter().fold(first, |a, f| a.xor(v(f))).not(),
        GateKind::Input | GateKind::Dff => unreachable!("sources are not levelized"),
    }
}

/// Reusable buffers for the packed sweeps: create once per worker, hand to
/// every packed call. Nothing is allocated in the hot loops after the
/// first call sized them. The buffers are private to the crate because
/// the sweeps rely on their sparse tables being clear between calls.
#[derive(Debug, Default, Clone)]
pub struct SimScratch {
    /// Packed 3-valued node values (64 faulty machines).
    pub(crate) packed: Vec<PackedLogic>,
    /// Packed current state, one entry per flip-flop.
    pub(crate) packed_state: Vec<PackedLogic>,
    /// The buffers of the phase-3 driver ([`crate::tdsim`],
    /// [`crate::tfsim`]).
    pub(crate) phase3: Phase3Scratch,
    /// The selective-trace scheduler every packed sweep runs on.
    pub(crate) queue: LevelQueue,
}

/// Level-ordered selective-trace scheduler: level buckets of scheduled
/// gates, a queued flag per node and the list of nodes whose value
/// changed.
///
/// A sweep injects its changed sources ([`LevelQueue::inject`]) and then
/// [`LevelQueue::run`]s: gates leave the buckets in level order, so every
/// fanin is final before its sink is evaluated; a gate whose new value
/// equals its stored one schedules nothing. Given node values that are
/// *consistent* (every gate holds its gate function of its fanins'
/// values), the result equals a full levelized sweep while evaluating
/// only the gates a change reaches. The fault simulators then reset just
/// the touched nodes to their fault-free values. Values that are not yet
/// consistent (a first sweep) are made so by scheduling every gate.
///
/// The packed fault simulators run every sweep on it, and so do the
/// forward images of the test generators (TDgen, SEMILET), which keep
/// their image from one search step to the next.
///
/// Between sweeps every bucket is empty and every flag clear, and after
/// warm-up nothing is allocated.
#[derive(Debug, Default, Clone)]
pub struct LevelQueue {
    /// Scheduled gates, one bucket per combinational level.
    buckets: Vec<Vec<u32>>,
    /// Whether a node sits in a bucket.
    queued: Vec<bool>,
    /// Lowest level that may hold a scheduled gate (empty when
    /// `next >= end`).
    next: usize,
    /// One past the highest level holding a scheduled gate.
    end: usize,
    /// Nodes whose value changed since the last restore.
    touched: Vec<u32>,
}

impl LevelQueue {
    /// Sizes the buckets and flags for `circuit`; call before a sweep.
    pub fn prepare(&mut self, circuit: &Circuit) {
        debug_assert!(
            self.next >= self.end && self.touched.is_empty(),
            "a sweep left gates queued or nodes unrestored"
        );
        let levels = circuit.max_level() as usize + 1;
        if self.buckets.len() < levels {
            self.buckets.resize_with(levels, Vec::new);
        }
        if self.queued.len() < circuit.num_nodes() {
            self.queued.resize(circuit.num_nodes(), false);
        }
    }

    /// Schedules combinational `gate` for evaluation (once per sweep).
    // Every sweep calls this per gate; without the hint, exporting it
    // stopped it being inlined into the grading sweeps (2.7 % slower).
    #[inline]
    pub fn schedule(&mut self, circuit: &Circuit, gate: NodeId) {
        let level = circuit.level(gate) as usize;
        debug_assert!(level > 0, "only gates are scheduled");
        if std::mem::replace(&mut self.queued[gate.index()], true) {
            return;
        }
        self.buckets[level].push(gate.0);
        if self.next >= self.end {
            self.next = level;
            self.end = level + 1;
        } else {
            self.next = self.next.min(level);
            self.end = self.end.max(level + 1);
        }
    }

    /// Schedules the combinational sinks of `node`.
    fn schedule_fanout(&mut self, circuit: &Circuit, node: NodeId) {
        for &(sink, _) in circuit.node(node).fanout() {
            // Gates sit at level 1 and up; a level-0 sink is a flip-flop.
            if circuit.level(sink) > 0 {
                self.schedule(circuit, sink);
            }
        }
    }

    /// Overwrites `node` with the changed value `v`, records it as touched
    /// and schedules its fanout.
    pub fn inject<V>(&mut self, circuit: &Circuit, values: &mut [V], node: NodeId, v: V) {
        values[node.index()] = v;
        self.touched.push(node.0);
        self.schedule_fanout(circuit, node);
    }

    /// The next scheduled gate of the lowest level, if any.
    fn pop(&mut self) -> Option<NodeId> {
        while self.next < self.end {
            if let Some(gate) = self.buckets[self.next].pop() {
                self.queued[gate as usize] = false;
                return Some(NodeId(gate));
            }
            self.next += 1;
        }
        None
    }

    /// Evaluates scheduled gates in level order until none is left.
    /// `eval(gate, values)` returns the gate's new value; a changed value
    /// is stored, touched and propagated to the fanout.
    pub fn run<V: Copy + PartialEq>(
        &mut self,
        circuit: &Circuit,
        values: &mut [V],
        mut eval: impl FnMut(NodeId, &[V]) -> V,
    ) {
        while let Some(gate) = self.pop() {
            let out = eval(gate, values);
            if out != values[gate.index()] {
                self.inject(circuit, values, gate, out);
            }
        }
    }

    /// Resets every touched node to `reference(node index)`.
    pub(crate) fn restore<V>(&mut self, values: &mut [V], reference: impl Fn(usize) -> V) {
        for &i in &self.touched {
            values[i as usize] = reference(i as usize);
        }
        self.touched.clear();
    }

    /// Forgets the touched nodes (for callers that rewrite every node, or
    /// that keep the swept values as their new reference).
    pub fn forget_touched(&mut self) {
        self.touched.clear();
    }
}

/// 64-way parallel 3-valued simulator: one independent Kleene pattern per
/// bit lane.
///
/// This is the good machine production grading runs: phase 1 of §5
/// ([`crate::grading::simulate_batch`]) puts one test sequence in each
/// lane and steps all of them with one sweep per frame. A lane whose
/// inputs and state are all known is plain binary simulation. Every
/// gate is lane-wise identical to
/// [`gdf_algebra::logic3::eval_gate3`], so the scalar
/// [`GoodSimulator`](crate::GoodSimulator) is its oracle.
///
/// # Example
///
/// ```
/// use gdf_algebra::Logic3;
/// use gdf_netlist::suite;
/// use gdf_sim::{PackedGoodSim, PackedLogic};
///
/// let c = suite::s27();
/// let sim = PackedGoodSim::new(&c);
/// let pi = vec![PackedLogic::splat(Logic3::Zero); 4];
/// let st = vec![PackedLogic::ALL_X; 3];
/// let mut values = Vec::new();
/// sim.eval_comb_into(&pi, &st, &mut values);
/// assert_eq!(values.len(), c.num_nodes());
/// ```
#[derive(Debug, Clone)]
pub struct PackedGoodSim<'c> {
    circuit: &'c Circuit,
}

impl<'c> PackedGoodSim<'c> {
    /// Creates a packed simulator for `circuit`.
    pub fn new(circuit: &'c Circuit) -> Self {
        PackedGoodSim { circuit }
    }

    /// The circuit being simulated.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// Evaluates the combinational block for one time frame of 64 packed
    /// 3-valued patterns, writing one value per node into `values`.
    ///
    /// # Panics
    ///
    /// Panics if `pi` or `state` have the wrong length.
    pub fn eval_comb_into(
        &self,
        pi: &[PackedLogic],
        state: &[PackedLogic],
        values: &mut Vec<PackedLogic>,
    ) {
        let circuit = self.circuit;
        assert_eq!(pi.len(), circuit.num_inputs(), "PI vector length");
        assert_eq!(state.len(), circuit.num_dffs(), "state vector length");
        values.clear();
        values.resize(circuit.num_nodes(), PackedLogic::ALL_X);
        for (i, &id) in circuit.inputs().iter().enumerate() {
            values[id.index()] = pi[i];
        }
        for (i, &ff) in circuit.dffs().iter().enumerate() {
            values[ff.index()] = state[i];
        }
        for (gate, kind, fanins) in circuit.gates_levelized() {
            values[gate.index()] = eval_packed3_indexed(kind, fanins, values);
        }
    }

    /// Latches the next state from a node-value map into `next`.
    pub fn next_state_into(&self, values: &[PackedLogic], next: &mut Vec<PackedLogic>) {
        next.clear();
        next.extend(
            self.circuit
                .dffs()
                .iter()
                .map(|&ff| values[self.circuit.ppo_of_dff(ff).index()]),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdf_algebra::logic3::eval_gate3;
    use gdf_netlist::suite;
    use Logic3::{One, Zero, X};

    #[test]
    fn splat_lane_round_trip() {
        for v in Logic3::ALL {
            let p = PackedLogic::splat(v);
            assert_eq!(p.lane(0), v);
            assert_eq!(p.lane(63), v);
            assert_eq!(p.ones & p.zeros, 0);
        }
    }

    #[test]
    fn set_lane_is_local() {
        let mut p = PackedLogic::splat(One);
        p.set_lane(7, X);
        p.set_lane(8, Zero);
        assert_eq!(p.lane(6), One);
        assert_eq!(p.lane(7), X);
        assert_eq!(p.lane(8), Zero);
        assert_eq!(p.ones & p.zeros, 0);
    }

    #[test]
    fn ops_match_scalar_kleene_exhaustively() {
        // All 9 value pairs in the first 9 lanes.
        let pairs: Vec<(Logic3, Logic3)> = Logic3::ALL
            .into_iter()
            .flat_map(|a| Logic3::ALL.into_iter().map(move |b| (a, b)))
            .collect();
        let mut a = PackedLogic::ALL_X;
        let mut b = PackedLogic::ALL_X;
        for (k, &(va, vb)) in pairs.iter().enumerate() {
            a.set_lane(k, va);
            b.set_lane(k, vb);
        }
        for (k, &(va, vb)) in pairs.iter().enumerate() {
            assert_eq!(a.and(b).lane(k), va.and(vb), "and({va}, {vb})");
            assert_eq!(a.or(b).lane(k), va.or(vb), "or({va}, {vb})");
            assert_eq!(a.xor(b).lane(k), va.xor(vb), "xor({va}, {vb})");
            assert_eq!(a.not().lane(k), va.not(), "not({va})");
        }
    }

    #[test]
    fn gate_eval_matches_scalar_three_inputs() {
        // Exhaustive 27 triples per kind, packed one per lane.
        let triples: Vec<[Logic3; 3]> = Logic3::ALL
            .into_iter()
            .flat_map(|a| {
                Logic3::ALL
                    .into_iter()
                    .flat_map(move |b| Logic3::ALL.into_iter().map(move |c| [a, b, c]))
            })
            .collect();
        let mut ins = [PackedLogic::ALL_X; 3];
        for (k, t) in triples.iter().enumerate() {
            for (j, &v) in t.iter().enumerate() {
                ins[j].set_lane(k, v);
            }
        }
        let fanins = [NodeId(0), NodeId(1), NodeId(2)];
        for kind in GateKind::COMBINATIONAL {
            if matches!(kind, GateKind::Buf | GateKind::Not) {
                continue;
            }
            let packed = eval_packed3_indexed(kind, &fanins, &ins);
            for (k, t) in triples.iter().enumerate() {
                assert_eq!(packed.lane(k), eval_gate3(kind, t), "{kind:?} {t:?}");
            }
        }
    }

    #[test]
    fn packed_goodsim_matches_scalar_on_s27() {
        let c = suite::s27();
        let scalar = crate::GoodSimulator::new(&c);
        let packed = PackedGoodSim::new(&c);
        // 3^4 PI patterns don't fit nicely; sample 64 mixed PI/state lanes.
        let mut pi = vec![PackedLogic::ALL_X; 4];
        let mut st = vec![PackedLogic::ALL_X; 3];
        let val = |n: usize| Logic3::ALL[n % 3];
        for k in 0..64usize {
            for (i, p) in pi.iter_mut().enumerate() {
                p.set_lane(k, val(k / 3usize.pow(i as u32)));
            }
            for (i, s) in st.iter_mut().enumerate() {
                s.set_lane(k, val(k / 3usize.pow(4 + i as u32) + k));
            }
        }
        let mut values = Vec::new();
        packed.eval_comb_into(&pi, &st, &mut values);
        for k in 0..64 {
            let spi: Vec<Logic3> = pi.iter().map(|p| p.lane(k)).collect();
            let sst: Vec<Logic3> = st.iter().map(|s| s.lane(k)).collect();
            let svals = scalar.eval_comb(&spi, &sst);
            for (idx, v) in svals.iter().enumerate() {
                assert_eq!(values[idx].lane(k), *v, "node {idx} lane {k}");
            }
        }
    }
}
