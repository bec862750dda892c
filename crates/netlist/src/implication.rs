//! The wiring a set implication network reads per circuit
//! (`gdf_algebra::search::SetNet`), built once per circuit.
//!
//! The network has one constraint per combinational gate, numbered by its
//! node, and in a two-frame algebra one coupling per flip-flop, numbered
//! `num_nodes + i` for flip-flop `i` of [`Circuit::dffs`].

use crate::circuit::{Circuit, NodeId};
use crate::gate::GateKind;

/// Which constraints each net wakes, each constraint's level and whether
/// one pass settles it, and each flip-flop's index
/// ([`Circuit::implication_table`]).
#[derive(Debug, Clone)]
pub struct ImplicationTable {
    /// Net `i` wakes the gates `wakes[bounds[2i]..bounds[2i + 1]]` (its
    /// own, then its sinks) and the couplings
    /// `wakes[bounds[2i + 1]..bounds[2i + 2]]`.
    wakes: Vec<u32>,
    bounds: Vec<u32>,
    /// Per constraint, its level (a gate's combinational level, 0 for a
    /// coupling) shifted left by one, with bit 0 set when one pass
    /// settles it: a gate whose pins read distinct nets, a coupling whose
    /// D net is not its own Q.
    rank: Vec<u32>,
    /// The flip-flop index of each DFF node (`u32::MAX` for other nodes).
    dff_index: Vec<u32>,
}

impl ImplicationTable {
    /// Builds the table of `circuit`.
    pub fn compute(circuit: &Circuit) -> Self {
        let n = circuit.num_nodes();
        let mut dff_index = vec![u32::MAX; n];
        for (i, &ff) in circuit.dffs().iter().enumerate() {
            dff_index[ff.index()] = i as u32;
        }
        let mut wakes = Vec::new();
        let mut bounds = vec![0];
        for (i, node) in circuit.nodes().iter().enumerate() {
            let adjacent = std::iter::once(NodeId(i as u32))
                .chain(node.fanout().iter().map(|&(sink, _)| sink))
                .map(|id| (id, circuit.node(id).kind()));
            wakes.extend(
                adjacent
                    .clone()
                    .filter(|(_, kind)| kind.is_combinational())
                    .map(|(id, _)| id.0),
            );
            bounds.push(wakes.len() as u32);
            wakes.extend(
                adjacent
                    .filter(|&(_, kind)| kind == GateKind::Dff)
                    .map(|(id, _)| (n as u32) + dff_index[id.index()]),
            );
            bounds.push(wakes.len() as u32);
        }
        let gates = circuit.nodes().iter().enumerate().map(|(i, node)| {
            circuit.level(NodeId(i as u32)) << 1 | u32::from(node.has_distinct_fanins())
        });
        let couplings = circuit
            .dffs()
            .iter()
            .map(|&q| u32::from(circuit.ppo_of_dff(q) != q));
        ImplicationTable {
            wakes,
            bounds,
            rank: gates.chain(couplings).collect(),
            dff_index,
        }
    }

    /// The constraints a narrowing of `net` wakes: its gate constraints,
    /// followed by its couplings when `coupled`.
    pub fn wakes(&self, net: NodeId, coupled: bool) -> &[u32] {
        let i = 2 * net.index();
        &self.wakes[self.bounds[i] as usize..self.bounds[i + 1 + usize::from(coupled)] as usize]
    }

    /// The level of a constraint: its gate's combinational level, 0 for a
    /// coupling.
    pub fn level(&self, constraint: usize) -> usize {
        (self.rank[constraint] >> 1) as usize
    }

    /// Whether one pass of a constraint is its own fixpoint.
    pub fn settles(&self, constraint: usize) -> bool {
        self.rank[constraint] & 1 == 1
    }

    /// The index of flip-flop `ff` in [`Circuit::dffs`].
    pub fn dff_index(&self, ff: NodeId) -> usize {
        self.dff_index[ff.index()] as usize
    }
}
