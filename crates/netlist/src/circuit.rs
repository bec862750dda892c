//! The arena-based circuit representation and its builder.
//!
//! A [`Circuit`] models a synchronous sequential circuit as in Figure 1 of
//! the paper: a combinational block fed by primary inputs (PIs) and the
//! outputs of D flip-flops (pseudo primary inputs, PPIs), driving primary
//! outputs (POs) and the D inputs of the flip-flops (pseudo primary outputs,
//! PPOs). A single global clock is implicit; the ATPG decides per time frame
//! whether that clock tick is "slow" or "fast".

use crate::gate::GateKind;
use crate::implication::ImplicationTable;
use crate::scoap::Testability;
use std::collections::HashMap;
use std::fmt;

/// Index of a node (gate, primary input or flip-flop) inside a [`Circuit`].
///
/// Node ids are dense and stable: they index directly into the circuit's
/// node arena, so per-node side tables can be plain vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A single node: a primary input, a D flip-flop, or a combinational gate.
///
/// The node's *output net* is identified with the node itself; fanout
/// branches are `(sink, pin)` pairs recorded in [`Node::fanout`].
#[derive(Debug, Clone)]
pub struct Node {
    name: String,
    kind: GateKind,
    fanin: Vec<NodeId>,
    fanout: Vec<(NodeId, u8)>,
    is_output: bool,
}

impl Node {
    /// The signal name of this node's output net.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The gate kind.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Fanin nets, in pin order. For a `Dff`, `fanin()[0]` is the D net
    /// (the pseudo primary output the flip-flop latches).
    pub fn fanin(&self) -> &[NodeId] {
        &self.fanin
    }

    /// Fanout branches as `(sink node, input pin of the sink)` pairs.
    pub fn fanout(&self) -> &[(NodeId, u8)] {
        &self.fanout
    }

    /// Whether every fanin pin reads a different net (no net drives two
    /// pins of this node).
    pub fn has_distinct_fanins(&self) -> bool {
        let fanin = &self.fanin;
        (1..fanin.len()).all(|i| !fanin[..i].contains(&fanin[i]))
    }

    /// Whether this node's output net is a primary output.
    pub fn is_output(&self) -> bool {
        self.is_output
    }
}

/// Summary statistics of a circuit, used for reporting and by the synthetic
/// benchmark generator to verify profile conformance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitStats {
    /// Number of primary inputs.
    pub num_inputs: usize,
    /// Number of primary outputs.
    pub num_outputs: usize,
    /// Number of D flip-flops.
    pub num_dffs: usize,
    /// Number of combinational gates (everything except PIs and DFFs).
    pub num_gates: usize,
    /// Maximum combinational level (depth of the combinational block).
    pub max_level: u32,
    /// Number of stems with more than one fanout branch.
    pub num_fanout_stems: usize,
}

impl fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} PI, {} PO, {} DFF, {} gates, depth {}, {} fanout stems",
            self.num_inputs,
            self.num_outputs,
            self.num_dffs,
            self.num_gates,
            self.max_level,
            self.num_fanout_stems
        )
    }
}

/// A validated, levelized gate-level netlist.
///
/// Construct one with [`CircuitBuilder`] or [`crate::parser::parse_bench`].
///
/// # Example
///
/// ```
/// use gdf_netlist::{CircuitBuilder, GateKind};
///
/// let mut b = CircuitBuilder::new("toy");
/// b.add_input("a");
/// b.add_input("b");
/// b.add_dff("q", "d");
/// b.add_gate("d", GateKind::Nand, &["a", "q"]);
/// b.add_gate("y", GateKind::Nor, &["b", "d"]);
/// b.mark_output("y");
/// let c = b.build().expect("valid circuit");
/// assert_eq!(c.num_gates(), 2);
/// assert_eq!(c.ppo_of_dff(c.dffs()[0]), c.node_by_name("d").unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct Circuit {
    name: String,
    nodes: Vec<Node>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    dffs: Vec<NodeId>,
    by_name: HashMap<String, NodeId>,
    /// Combinational level; 0 for PIs and DFF outputs.
    level: Vec<u32>,
    /// Combinational gates in topological (level) order.
    topo: Vec<NodeId>,
    max_level: u32,
    /// Pseudo primary outputs, cached in flip-flop declaration order.
    ppos: Vec<NodeId>,
    /// Flattened fanin arena: the fanins of `topo[k]` live at
    /// `fanin_arena[fanin_offsets[k]..fanin_offsets[k + 1]]`. One
    /// contiguous allocation replaces the per-gate `Vec` rebuild in every
    /// simulator hot loop.
    fanin_arena: Vec<NodeId>,
    fanin_offsets: Vec<u32>,
    /// Gate kind of `topo[k]`, colocated for cache-friendly sweeps.
    topo_kinds: Vec<GateKind>,
    /// Packed transitive-fanout cones: node `i`'s cone occupies
    /// `cone_words[i * cone_stride..][..cone_stride]`, one bit per node.
    /// Computed lazily on first cone query (the table is O(n²/8) bytes —
    /// building it eagerly would tax every `Circuit` that never traces a
    /// fault cone).
    cone_words: std::sync::OnceLock<Vec<u64>>,
    cone_stride: usize,
    /// SCOAP measures, computed on first use: every test generator over
    /// the circuit reads the same ones.
    testability: std::sync::OnceLock<Testability>,
    /// The set implication network's wiring, built on first use by the
    /// first test generator to search the circuit.
    implication: std::sync::OnceLock<ImplicationTable>,
    /// Fanout-free regions: the single `(sink, pin)` of each node inside
    /// a region, `None` for a region root.
    region_sink: Vec<Option<(NodeId, u8)>>,
    /// The root of each node's fanout-free region (a root is its own).
    region_root: Vec<NodeId>,
}

impl Circuit {
    /// The circuit name (e.g. `"s27"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All nodes, indexable by [`NodeId`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this circuit.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Total node count (PIs + DFFs + gates).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs in declaration order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Flip-flop nodes in declaration order. The node's output is the PPI;
    /// its single fanin is the PPO.
    pub fn dffs(&self) -> &[NodeId] {
        &self.dffs
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Number of flip-flops (state bits).
    pub fn num_dffs(&self) -> usize {
        self.dffs.len()
    }

    /// Number of combinational gates.
    pub fn num_gates(&self) -> usize {
        self.topo.len()
    }

    /// The pseudo-primary-output net latched by flip-flop `dff`.
    ///
    /// # Panics
    ///
    /// Panics if `dff` is not a flip-flop node.
    pub fn ppo_of_dff(&self, dff: NodeId) -> NodeId {
        let node = self.node(dff);
        assert_eq!(node.kind(), GateKind::Dff, "{dff} is not a DFF");
        node.fanin()[0]
    }

    /// All pseudo primary outputs, in flip-flop declaration order.
    ///
    /// Cached at build time: calling this in a per-sequence loop is free.
    /// (Before 0.3 this allocated a fresh `Vec` per call.)
    pub fn ppos(&self) -> &[NodeId] {
        &self.ppos
    }

    /// Looks up a node by signal name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Combinational level of a node's output net (0 for PIs and PPIs).
    pub fn level(&self, id: NodeId) -> u32 {
        self.level[id.index()]
    }

    /// Depth of the combinational block.
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Combinational gates in topological order (sources excluded); a forward
    /// sweep in this order evaluates every gate after its fanins.
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// The fanins of the `k`-th gate of [`Circuit::topo_order`], served
    /// from the flattened levelized arena (no per-gate allocation).
    ///
    /// # Panics
    ///
    /// Panics if `k >= num_gates()`.
    pub fn topo_fanins(&self, k: usize) -> &[NodeId] {
        let lo = self.fanin_offsets[k] as usize;
        let hi = self.fanin_offsets[k + 1] as usize;
        &self.fanin_arena[lo..hi]
    }

    /// Iterates the combinational block in topological order as
    /// `(gate id, kind, fanins)` triples — the allocation-free shape every
    /// simulator sweep consumes.
    pub fn gates_levelized(&self) -> impl Iterator<Item = (NodeId, GateKind, &[NodeId])> + '_ {
        self.topo
            .iter()
            .zip(&self.topo_kinds)
            .enumerate()
            .map(move |(k, (&id, &kind))| (id, kind, self.topo_fanins(k)))
    }

    /// Whether `id` is a source of the combinational block (PI or DFF
    /// output).
    pub fn is_source(&self, id: NodeId) -> bool {
        !self.node(id).kind().is_combinational()
    }

    /// Whether `id` drives an observation point: a PO net or a PPO net.
    pub fn is_observable_net(&self, id: NodeId) -> bool {
        self.node(id).is_output()
            || self
                .node(id)
                .fanout()
                .iter()
                .any(|&(s, _)| self.node(s).kind() == GateKind::Dff)
    }

    /// The root of the fanout-free region holding `id`.
    ///
    /// A fanout-free region is a tree of single-fanout nets ending at one
    /// root. A node is a region root if it is a PO, if its fanout count
    /// is not 1 (a net on two pins of one gate counts as 2), or if its
    /// only sink is a flip-flop; so every PO and every PPO is a root.
    /// Any other node's effect can leave the region only through its
    /// root, along the chain of [`Circuit::region_sink`]s.
    pub fn region_root(&self, id: NodeId) -> NodeId {
        self.region_root[id.index()]
    }

    /// The single `(sink gate, input pin)` of `id` if it lies inside a
    /// fanout-free region, `None` if it is a region root (see
    /// [`Circuit::region_root`]). The sink is always combinational.
    pub fn region_sink(&self, id: NodeId) -> Option<(NodeId, u8)> {
        self.region_sink[id.index()]
    }

    /// Summary statistics.
    pub fn stats(&self) -> CircuitStats {
        CircuitStats {
            num_inputs: self.num_inputs(),
            num_outputs: self.num_outputs(),
            num_dffs: self.num_dffs(),
            num_gates: self.num_gates(),
            max_level: self.max_level,
            num_fanout_stems: self.nodes.iter().filter(|n| n.fanout().len() > 1).count(),
        }
    }

    /// The transitive fanout cone of `seed` (including `seed` itself),
    /// restricted to the combinational block (stops at DFFs and POs).
    ///
    /// Served from the cone bitsets computed once per circuit, on first
    /// cone query (before 0.3 every call ran a DFS and allocated a fresh
    /// `Vec<bool>`). For allocation-free queries use
    /// [`Circuit::cone_contains`] or [`Circuit::cone_words`].
    pub fn output_cone(&self, seed: NodeId) -> Vec<bool> {
        let words = self.cone_words(seed);
        (0..self.nodes.len())
            .map(|i| words[i / 64] >> (i % 64) & 1 == 1)
            .collect()
    }

    /// Whether `node` lies in the transitive fanout cone of `seed`
    /// (including `seed == node`).
    pub fn cone_contains(&self, seed: NodeId, node: NodeId) -> bool {
        let i = node.index();
        self.cone_words(seed)[i / 64] >> (i % 64) & 1 == 1
    }

    /// The packed cone bitset of `seed`: bit `i` of word `i / 64` is set
    /// iff node `i` is in the cone. All cones share one word stride,
    /// `ceil(num_nodes / 64)`, so word-level unions across seeds are
    /// plain slice zips. The whole-circuit cone table is built on the
    /// first query and cached for the circuit's lifetime.
    pub fn cone_words(&self, seed: NodeId) -> &[u64] {
        let words = self.cone_words.get_or_init(|| self.compute_cone_words());
        let s = seed.index() * self.cone_stride;
        &words[s..s + self.cone_stride]
    }

    /// The SCOAP testability measures of the circuit
    /// ([`Testability::compute`]), computed on first use and cached for
    /// the circuit's lifetime, so the test generators built per fault
    /// share one copy.
    pub fn testability(&self) -> &Testability {
        self.testability.get_or_init(|| Testability::compute(self))
    }

    /// The wiring the set implication network reads
    /// ([`ImplicationTable::compute`]): each net's wake list, each
    /// constraint's level and one-pass flag, and the flip-flop indices.
    /// Computed on first use and cached for the circuit's lifetime, so
    /// every network built per fault shares one copy, and a circuit that
    /// is never searched never builds it.
    pub fn implication_table(&self) -> &ImplicationTable {
        self.implication
            .get_or_init(|| ImplicationTable::compute(self))
    }

    /// Builds the full cone table: one pass in reverse topological order —
    /// a node's cone is itself plus the union of its combinational sinks'
    /// cones (cones stop at DFFs).
    fn compute_cone_words(&self) -> Vec<u64> {
        let n = self.nodes.len();
        let stride = self.cone_stride;
        let mut cone_words = vec![0u64; n * stride];
        // Reversed below: gates in reverse topo order first, sources
        // (whose fanouts are gates) last.
        let mut order: Vec<NodeId> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, node)| !node.kind.is_combinational())
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        order.extend_from_slice(&self.topo);
        for &id in order.iter().rev() {
            let i = id.index();
            cone_words[i * stride + i / 64] |= 1 << (i % 64);
            for s in 0..self.nodes[i].fanout.len() {
                let sink = self.nodes[i].fanout[s].0.index();
                if self.nodes[sink].kind == GateKind::Dff {
                    continue;
                }
                let (dst, src) = if i < sink {
                    let (a, b) = cone_words.split_at_mut(sink * stride);
                    (&mut a[i * stride..(i + 1) * stride], &b[..stride])
                } else {
                    let (a, b) = cone_words.split_at_mut(i * stride);
                    (&mut b[..stride], &a[sink * stride..(sink + 1) * stride])
                };
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d |= s;
                }
            }
        }
        cone_words
    }
}

/// Errors reported by [`CircuitBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A signal name was defined more than once.
    DuplicateDefinition(String),
    /// A gate references a signal that is never defined.
    UnknownSignal {
        /// The gate whose fanin is undefined.
        gate: String,
        /// The undefined fanin signal.
        signal: String,
    },
    /// A signal was declared `OUTPUT(...)` but never defined.
    UndefinedOutput(String),
    /// The combinational block contains a cycle (a feedback loop that does
    /// not pass through a flip-flop).
    CombinationalCycle(String),
    /// A gate has an invalid number of inputs for its kind.
    BadArity {
        /// The offending gate.
        gate: String,
        /// Its kind.
        kind: GateKind,
        /// The number of fanins supplied.
        got: usize,
    },
    /// The circuit has no nodes.
    Empty,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::DuplicateDefinition(name) => {
                write!(f, "signal `{name}` is defined more than once")
            }
            BuildError::UnknownSignal { gate, signal } => {
                write!(f, "gate `{gate}` references undefined signal `{signal}`")
            }
            BuildError::UndefinedOutput(name) => {
                write!(f, "output `{name}` is never defined")
            }
            BuildError::CombinationalCycle(name) => {
                write!(f, "combinational cycle through signal `{name}`")
            }
            BuildError::BadArity { gate, kind, got } => {
                write!(
                    f,
                    "gate `{gate}` of kind {kind} has invalid fanin count {got}"
                )
            }
            BuildError::Empty => write!(f, "circuit has no nodes"),
        }
    }
}

impl std::error::Error for BuildError {}

#[derive(Debug, Clone)]
struct PendingNode {
    name: String,
    kind: GateKind,
    fanin_names: Vec<String>,
}

/// Incremental, name-based circuit constructor supporting forward
/// references, as required by the `.bench` format.
///
/// Call [`CircuitBuilder::build`] to resolve names, check arities, verify
/// acyclicity of the combinational block and levelize the result.
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    name: String,
    pending: Vec<PendingNode>,
    output_names: Vec<String>,
}

impl CircuitBuilder {
    /// Creates an empty builder for a circuit called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        CircuitBuilder {
            name: name.into(),
            pending: Vec::new(),
            output_names: Vec::new(),
        }
    }

    /// Declares a primary input.
    pub fn add_input(&mut self, name: impl Into<String>) -> &mut Self {
        self.pending.push(PendingNode {
            name: name.into(),
            kind: GateKind::Input,
            fanin_names: Vec::new(),
        });
        self
    }

    /// Declares a D flip-flop whose output net is `q` and whose D input is
    /// the (possibly not yet defined) signal `d`.
    pub fn add_dff(&mut self, q: impl Into<String>, d: impl Into<String>) -> &mut Self {
        self.pending.push(PendingNode {
            name: q.into(),
            kind: GateKind::Dff,
            fanin_names: vec![d.into()],
        });
        self
    }

    /// Declares a combinational gate driving net `name`.
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        kind: GateKind,
        fanin: &[&str],
    ) -> &mut Self {
        self.pending.push(PendingNode {
            name: name.into(),
            kind,
            fanin_names: fanin.iter().map(|s| s.to_string()).collect(),
        });
        self
    }

    /// Marks a net as a primary output.
    pub fn mark_output(&mut self, name: impl Into<String>) -> &mut Self {
        self.output_names.push(name.into());
        self
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no nodes have been added yet.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Resolves names and produces a validated [`Circuit`].
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if a name is duplicated or undefined, a gate
    /// has an invalid arity, the circuit is empty, or the combinational block
    /// is cyclic.
    pub fn build(&self) -> Result<Circuit, BuildError> {
        if self.pending.is_empty() {
            return Err(BuildError::Empty);
        }
        let mut by_name: HashMap<String, NodeId> = HashMap::with_capacity(self.pending.len());
        for (i, p) in self.pending.iter().enumerate() {
            if by_name.insert(p.name.clone(), NodeId(i as u32)).is_some() {
                return Err(BuildError::DuplicateDefinition(p.name.clone()));
            }
        }

        let mut nodes: Vec<Node> = Vec::with_capacity(self.pending.len());
        for p in &self.pending {
            let (min, max) = p.kind.arity_range();
            if p.fanin_names.len() < min || p.fanin_names.len() > max {
                return Err(BuildError::BadArity {
                    gate: p.name.clone(),
                    kind: p.kind,
                    got: p.fanin_names.len(),
                });
            }
            let mut fanin = Vec::with_capacity(p.fanin_names.len());
            for f in &p.fanin_names {
                let id = by_name
                    .get(f)
                    .copied()
                    .ok_or_else(|| BuildError::UnknownSignal {
                        gate: p.name.clone(),
                        signal: f.clone(),
                    })?;
                fanin.push(id);
            }
            nodes.push(Node {
                name: p.name.clone(),
                kind: p.kind,
                fanin,
                fanout: Vec::new(),
                is_output: false,
            });
        }

        let mut outputs = Vec::with_capacity(self.output_names.len());
        for o in &self.output_names {
            let id = by_name
                .get(o)
                .copied()
                .ok_or_else(|| BuildError::UndefinedOutput(o.clone()))?;
            if !nodes[id.index()].is_output {
                nodes[id.index()].is_output = true;
                outputs.push(id);
            }
        }

        // Fanout lists.
        let fanin_lists: Vec<Vec<NodeId>> = nodes.iter().map(|n| n.fanin.clone()).collect();
        for (sink_idx, fanin) in fanin_lists.iter().enumerate() {
            for (pin, &src) in fanin.iter().enumerate() {
                nodes[src.index()]
                    .fanout
                    .push((NodeId(sink_idx as u32), pin as u8));
            }
        }

        // Levelize: Kahn's algorithm over the combinational block. Sources
        // are PIs and DFF outputs; a DFF *consumes* its D net but its output
        // is level 0, so DFF nodes never appear in the worklist as sinks.
        let n = nodes.len();
        let mut level = vec![0u32; n];
        let mut remaining = vec![0usize; n];
        let mut ready: Vec<NodeId> = Vec::new();
        for (i, node) in nodes.iter().enumerate() {
            if node.kind.is_combinational() {
                remaining[i] = node.fanin.len();
                if node.fanin.is_empty() {
                    ready.push(NodeId(i as u32));
                }
            }
        }
        for (i, node) in nodes.iter().enumerate() {
            if !node.kind.is_combinational() {
                for &(sink, _) in &node.fanout {
                    if nodes[sink.index()].kind.is_combinational() {
                        remaining[sink.index()] -= 1;
                        if remaining[sink.index()] == 0 {
                            ready.push(sink);
                        }
                    }
                }
                let _ = i;
            }
        }
        // Deduplicate multi-edges: a gate fed twice by the same source had its
        // counter decremented twice, which is correct because `fanout`
        // contains one entry per pin.
        let mut topo: Vec<NodeId> = Vec::new();
        let mut head = 0;
        while head < ready.len() {
            let id = ready[head];
            head += 1;
            let lv = nodes[id.index()]
                .fanin
                .iter()
                .map(|f| level[f.index()])
                .max()
                .unwrap_or(0)
                + 1;
            level[id.index()] = lv;
            topo.push(id);
            for &(sink, _) in &nodes[id.index()].fanout {
                if nodes[sink.index()].kind.is_combinational() {
                    remaining[sink.index()] -= 1;
                    if remaining[sink.index()] == 0 {
                        ready.push(sink);
                    }
                }
            }
        }
        let scheduled = topo.len();
        let total_comb = nodes.iter().filter(|n| n.kind.is_combinational()).count();
        if scheduled != total_comb {
            let stuck = nodes
                .iter()
                .enumerate()
                .find(|(i, n)| n.kind.is_combinational() && remaining[*i] > 0)
                .map(|(_, n)| n.name.clone())
                .unwrap_or_default();
            return Err(BuildError::CombinationalCycle(stuck));
        }
        let max_level = level.iter().copied().max().unwrap_or(0);

        let inputs = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind == GateKind::Input)
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        let dffs: Vec<NodeId> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind == GateKind::Dff)
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        let ppos = dffs.iter().map(|&d| nodes[d.index()].fanin[0]).collect();

        // Flattened levelized fanin arena: one contiguous run per topo
        // gate, so simulator sweeps never rebuild per-gate input Vecs.
        let mut fanin_offsets = Vec::with_capacity(topo.len() + 1);
        let mut fanin_arena =
            Vec::with_capacity(topo.iter().map(|g| nodes[g.index()].fanin.len()).sum());
        fanin_offsets.push(0u32);
        for &g in &topo {
            fanin_arena.extend_from_slice(&nodes[g.index()].fanin);
            fanin_offsets.push(fanin_arena.len() as u32);
        }
        let topo_kinds = topo.iter().map(|g| nodes[g.index()].kind).collect();
        let cone_stride = n.div_ceil(64);

        // Fanout-free regions: a node with exactly one combinational sink
        // that is not a PO joins its sink's region. Sinks come later in
        // topological order, and sources (PIs, flip-flops) after every
        // gate, so one reverse sweep settles each root.
        let region_sink: Vec<Option<(NodeId, u8)>> = nodes
            .iter()
            .map(|node| match node.fanout[..] {
                [(sink, pin)] if !node.is_output && nodes[sink.index()].kind.is_combinational() => {
                    Some((sink, pin))
                }
                _ => None,
            })
            .collect();
        let mut region_root: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let sources = nodes
            .iter()
            .enumerate()
            .filter(|(_, node)| !node.kind.is_combinational())
            .map(|(i, _)| NodeId(i as u32));
        for id in topo.iter().rev().copied().chain(sources) {
            if let Some((sink, _)) = region_sink[id.index()] {
                region_root[id.index()] = region_root[sink.index()];
            }
        }

        Ok(Circuit {
            name: self.name.clone(),
            nodes,
            inputs,
            outputs,
            dffs,
            by_name,
            level,
            topo,
            max_level,
            ppos,
            fanin_arena,
            fanin_offsets,
            topo_kinds,
            cone_words: std::sync::OnceLock::new(),
            cone_stride,
            testability: std::sync::OnceLock::new(),
            implication: std::sync::OnceLock::new(),
            region_sink,
            region_root,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Circuit {
        let mut b = CircuitBuilder::new("toy");
        b.add_input("a");
        b.add_input("b");
        b.add_dff("q", "d");
        b.add_gate("d", GateKind::Nand, &["a", "q"]);
        b.add_gate("y", GateKind::Nor, &["b", "d"]);
        b.mark_output("y");
        b.build().unwrap()
    }

    #[test]
    fn build_toy() {
        let c = toy();
        assert_eq!(c.num_inputs(), 2);
        assert_eq!(c.num_dffs(), 1);
        assert_eq!(c.num_gates(), 2);
        assert_eq!(c.num_outputs(), 1);
        let d = c.node_by_name("d").unwrap();
        let q = c.node_by_name("q").unwrap();
        assert_eq!(c.ppo_of_dff(q), d);
        assert_eq!(c.level(q), 0);
        assert_eq!(c.level(d), 1);
        assert_eq!(c.level(c.node_by_name("y").unwrap()), 2);
        assert_eq!(c.max_level(), 2);
    }

    #[test]
    fn fanout_pins_recorded() {
        let c = toy();
        let a = c.node_by_name("a").unwrap();
        let d = c.node_by_name("d").unwrap();
        assert_eq!(c.node(a).fanout(), &[(d, 0)]);
        // d feeds both the DFF (pin 0) and y (pin 1 of y).
        let q = c.node_by_name("q").unwrap();
        let y = c.node_by_name("y").unwrap();
        let mut fo = c.node(d).fanout().to_vec();
        fo.sort();
        let mut expect = vec![(q, 0u8), (y, 1u8)];
        expect.sort();
        assert_eq!(fo, expect);
    }

    #[test]
    fn observable_nets() {
        let c = toy();
        assert!(c.is_observable_net(c.node_by_name("y").unwrap()));
        assert!(c.is_observable_net(c.node_by_name("d").unwrap())); // feeds DFF
        assert!(!c.is_observable_net(c.node_by_name("a").unwrap()));
    }

    #[test]
    fn duplicate_definition_rejected() {
        let mut b = CircuitBuilder::new("dup");
        b.add_input("a");
        b.add_input("a");
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::DuplicateDefinition("a".into())
        );
    }

    #[test]
    fn unknown_signal_rejected() {
        let mut b = CircuitBuilder::new("bad");
        b.add_gate("g", GateKind::And, &["nope", "nada"]);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::UnknownSignal { .. }
        ));
    }

    #[test]
    fn combinational_cycle_rejected() {
        let mut b = CircuitBuilder::new("cyc");
        b.add_input("a");
        b.add_gate("x", GateKind::And, &["a", "y"]);
        b.add_gate("y", GateKind::Or, &["x", "a"]);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::CombinationalCycle(_)
        ));
    }

    #[test]
    fn feedback_through_dff_is_fine() {
        let mut b = CircuitBuilder::new("loop");
        b.add_input("a");
        b.add_dff("q", "d");
        b.add_gate("d", GateKind::Xor, &["a", "q"]);
        b.mark_output("d");
        let c = b.build().unwrap();
        assert_eq!(c.num_gates(), 1);
    }

    #[test]
    fn bad_arity_rejected() {
        let mut b = CircuitBuilder::new("arity");
        b.add_input("a");
        b.add_input("b");
        b.add_gate("g", GateKind::Not, &["a", "b"]);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::BadArity { .. }
        ));
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(
            CircuitBuilder::new("e").build().unwrap_err(),
            BuildError::Empty
        );
    }

    #[test]
    fn undefined_output_rejected() {
        let mut b = CircuitBuilder::new("o");
        b.add_input("a");
        b.mark_output("ghost");
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::UndefinedOutput("ghost".into())
        );
    }

    #[test]
    fn topo_order_respects_fanin() {
        let c = toy();
        let pos: HashMap<NodeId, usize> = c
            .topo_order()
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i))
            .collect();
        for &id in c.topo_order() {
            for &f in c.node(id).fanin() {
                if c.node(f).kind().is_combinational() {
                    assert!(pos[&f] < pos[&id]);
                }
            }
        }
    }

    #[test]
    fn output_cone_stops_at_dff() {
        let c = toy();
        let d = c.node_by_name("d").unwrap();
        let cone = c.output_cone(d);
        assert!(cone[d.index()]);
        assert!(cone[c.node_by_name("y").unwrap().index()]);
        assert!(!cone[c.node_by_name("q").unwrap().index()]);
    }

    #[test]
    fn fanout_free_regions() {
        let mut b = CircuitBuilder::new("ffr");
        b.add_input("a");
        b.add_input("b");
        b.add_input("e");
        b.add_dff("q", "d");
        b.add_gate("n", GateKind::Not, &["a"]); // one sink: inside y's region
        b.add_gate("y", GateKind::And, &["n", "q"]); // PO that also feeds d
        b.add_gate("d", GateKind::Xor, &["y", "b"]); // PPO
        b.add_gate("t", GateKind::And, &["e", "e"]); // e on two pins of t
        b.mark_output("y");
        let c = b.build().unwrap();
        let id = |name| c.node_by_name(name).unwrap();
        let root = |name| c.region_root(id(name));
        assert_eq!(c.region_sink(id("n")), Some((id("y"), 0)));
        assert_eq!(root("n"), id("y"));
        assert_eq!(root("a"), id("y"), "a -> n -> y");
        assert_eq!(c.region_sink(id("y")), None, "a PO is a root");
        assert_eq!(root("y"), id("y"));
        assert_eq!(c.region_sink(id("d")), None, "a PPO is a root");
        assert_eq!(c.region_sink(id("b")), Some((id("d"), 1)));
        assert_eq!(root("b"), id("d"));
        assert_eq!(c.region_sink(id("e")), None, "two pins of t count twice");
        assert_eq!(c.region_sink(id("t")), None, "a dangling gate is a root");
        assert_eq!(root("q"), id("y"), "q's only sink is y");
    }

    #[test]
    fn stats_display() {
        let s = toy().stats();
        assert_eq!(s.num_gates, 2);
        let txt = s.to_string();
        assert!(txt.contains("2 PI"));
    }

    #[test]
    fn error_display_nonempty() {
        let e = BuildError::DuplicateDefinition("x".into());
        assert!(!e.to_string().is_empty());
    }
}
