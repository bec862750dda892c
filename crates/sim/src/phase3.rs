//! The packed phase-3 driver of §5 grading, shared by both at-speed
//! fault models.
//!
//! [`detect`] classifies candidate faults against one fault-free
//! two-frame waveform, one fault per bit lane and up to 64 per selective
//! trace. It screens out the faults the waveform does not provoke,
//! resolves a branch straight into a flip-flop without simulation,
//! batches the rest, injects each batch at its stems and branches, runs
//! the level-ordered queue over only the gates a fault effect reaches,
//! observes the lanes (the POs first, then the observable PPOs under the
//! invalidation rule) and restores the nodes the trace touched.
//!
//! The models differ only in what a lane holds, the [`Lane`]:
//!
//! * robust gate delay faults (`crate::tdsim`): a [`PackedWave`], the
//!   8-valued delay algebra per lane. The fault effect is the `car`
//!   plane, so sensitization and robustness are TDgen's own.
//! * transition faults (`crate::tfsim`): a `u64` of frame-2 values. The
//!   fault effect is any difference from the good final value, which is
//!   the non-robust condition.
//!
//! In both models the value a provoked site holds in its fault's lanes
//! depends only on its fault-free value ([`Lane::faulty`]). So stem
//! injection, a branch override and holding a slow stem are each one
//! [`Lane::select`].

use crate::packed::SimScratch;
use crate::tdsim::DelayObservation;
use gdf_algebra::delay::DelayValue;
use gdf_algebra::packed::PackedWave;
use gdf_netlist::{Circuit, DelayFaultKind, FaultSite, GateKind, NodeId};

/// One node's value in the 64 fault lanes of a phase-3 trace.
pub(crate) trait Lane: Copy + PartialEq {
    /// The fault-free value `v` in every lane.
    fn good(v: DelayValue) -> Self;

    /// The value a provoked fault site whose fault-free value is `v`
    /// holds in its fault's lanes.
    fn faulty(v: DelayValue) -> Self;

    /// `other` in the lanes of `mask`, `self` in the rest.
    fn select(self, mask: u64, other: Self) -> Self;

    /// Gate `kind` over its fanin values in pin order, folded pairwise
    /// from the first pin.
    fn eval(kind: GateKind, ins: impl Iterator<Item = Self>) -> Self;

    /// The lanes that carry a fault effect at a node whose fault-free
    /// value is `good`.
    fn carried(self, good: DelayValue) -> u64;

    /// The scratch buffer holding one value per node.
    fn values(scratch: &mut SimScratch) -> &mut Vec<Self>;
}

impl Lane for PackedWave {
    fn good(v: DelayValue) -> Self {
        PackedWave::splat(v)
    }

    fn faulty(v: DelayValue) -> Self {
        PackedWave::splat(
            v.with_fault_mark()
                .expect("a provoked site holds a transition"),
        )
    }

    fn select(self, mask: u64, other: Self) -> Self {
        PackedWave::select(self, mask, other)
    }

    fn eval(kind: GateKind, mut ins: impl Iterator<Item = Self>) -> Self {
        let first = ins.next().expect("a gate has fanins");
        match kind {
            GateKind::Buf => first,
            GateKind::Not => first.not(),
            GateKind::And => ins.fold(first, PackedWave::and2),
            GateKind::Nand => ins.fold(first, PackedWave::and2).not(),
            GateKind::Or => ins.fold(first, PackedWave::or2),
            GateKind::Nor => ins.fold(first, PackedWave::or2).not(),
            GateKind::Xor => ins.fold(first, PackedWave::xor2),
            GateKind::Xnor => ins.fold(first, PackedWave::xor2).not(),
            GateKind::Input | GateKind::Dff => unreachable!("sources are not levelized"),
        }
    }

    fn carried(self, _good: DelayValue) -> u64 {
        self.car
    }

    fn values(scratch: &mut SimScratch) -> &mut Vec<Self> {
        &mut scratch.packed_wave
    }
}

impl Lane for u64 {
    fn good(v: DelayValue) -> Self {
        if v.final_value() {
            !0
        } else {
            0
        }
    }

    fn faulty(v: DelayValue) -> Self {
        !Self::good(v)
    }

    fn select(self, mask: u64, other: Self) -> Self {
        (self & !mask) | (other & mask)
    }

    fn eval(kind: GateKind, mut ins: impl Iterator<Item = Self>) -> Self {
        let first = ins.next().expect("a gate has fanins");
        match kind {
            GateKind::Buf => first,
            GateKind::Not => !first,
            GateKind::And => ins.fold(first, |a, v| a & v),
            GateKind::Nand => !ins.fold(first, |a, v| a & v),
            GateKind::Or => ins.fold(first, |a, v| a | v),
            GateKind::Nor => !ins.fold(first, |a, v| a | v),
            GateKind::Xor => ins.fold(first, |a, v| a ^ v),
            GateKind::Xnor => !ins.fold(first, |a, v| a ^ v),
            GateKind::Input | GateKind::Dff => unreachable!("sources are not levelized"),
        }
    }

    fn carried(self, good: DelayValue) -> u64 {
        self ^ Self::good(good)
    }

    fn values(scratch: &mut SimScratch) -> &mut Vec<Self> {
        &mut scratch.tf_vals
    }
}

/// Classifies `faults`, each a site and its slow transition, against the
/// fault-free `waveform` under the model of lane type `L`. Returns
/// `(fault index, observation)` pairs in fault-list order.
///
/// `waveform` must be consistent: every gate holds its gate function of
/// its fanins' values. That is what makes skipping unreached gates exact.
pub(crate) fn detect<L: Lane>(
    circuit: &Circuit,
    waveform: &[DelayValue],
    faults: impl IntoIterator<Item = (FaultSite, DelayFaultKind)>,
    observable_ppos: &[NodeId],
    required_state_ppos: &[NodeId],
    scratch: &mut SimScratch,
) -> Vec<(usize, DelayObservation)> {
    assert_eq!(waveform.len(), circuit.num_nodes(), "waveform length");
    // Broadcast the fault-free values once; every batch injects into
    // them and restores exactly the nodes its trace changed.
    let mut values = std::mem::take(L::values(scratch));
    values.clear();
    values.extend(waveform.iter().map(|&v| L::good(v)));
    scratch.queue.prepare(circuit);
    observation_order(circuit, observable_ppos, scratch);
    let mut detected = Vec::new();
    // Lanes are precious: unprovoked faults are screened out up front and
    // the direct branch-to-DFF case needs no simulation, so only faults
    // that need the trace occupy lanes.
    let mut batch = [(0, FaultSite::on_stem(NodeId(0))); 64];
    let mut filled = 0;
    for (idx, (site, kind)) in faults.into_iter().enumerate() {
        let needed = match kind {
            DelayFaultKind::SlowToRise => DelayValue::R,
            DelayFaultKind::SlowToFall => DelayValue::F,
        };
        if waveform[site.stem.index()] != needed {
            continue; // fault not provoked by this vector pair
        }
        if let Some((sink, _)) = site.branch {
            if !circuit.node(sink).kind().is_combinational() {
                // A branch into a flip-flop latches the faulty value
                // directly: that PPO is the only observation point.
                let ppo = site.stem;
                if observable_ppos.contains(&ppo)
                    && required_state_ppos
                        .iter()
                        .all(|&req| req == ppo || waveform[req.index()].is_steady_clean())
                {
                    detected.push((idx, DelayObservation::AtPpo(ppo)));
                }
                continue;
            }
        }
        batch[filled] = (idx, site);
        filled += 1;
        if filled == 64 {
            classify_batch(
                circuit,
                waveform,
                &batch,
                &mut values,
                required_state_ppos,
                scratch,
                &mut detected,
            );
            filled = 0;
        }
    }
    if filled > 0 {
        classify_batch(
            circuit,
            waveform,
            &batch[..filled],
            &mut values,
            required_state_ppos,
            scratch,
            &mut detected,
        );
    }
    *L::values(scratch) = values;
    // Direct hits and batch hits interleave; the scalar oracles report
    // in fault-list order.
    detected.sort_unstable_by_key(|&(idx, _)| idx);
    detected
}

/// Classifies one batch of at most 64 provoked faults with a
/// combinational observation path in one selective trace. `values`
/// holds the broadcast fault-free values and is restored on return.
fn classify_batch<L: Lane>(
    circuit: &Circuit,
    waveform: &[DelayValue],
    batch: &[(usize, FaultSite)],
    values: &mut [L],
    required_state_ppos: &[NodeId],
    scratch: &mut SimScratch,
    detected: &mut Vec<(usize, DelayObservation)>,
) {
    scratch.stem_mask.resize(circuit.num_nodes(), 0);
    scratch.branch_flag.resize(circuit.num_nodes(), false);
    scratch.stem_nodes.clear();
    scratch.branch_list.clear();

    // Injection tables, one lane per fault.
    for (k, &(_, site)) in batch.iter().enumerate() {
        match site.branch {
            None => {
                let stem = site.stem.index();
                if scratch.stem_mask[stem] == 0 {
                    scratch.stem_nodes.push(site.stem.0);
                }
                scratch.stem_mask[stem] |= 1 << k;
            }
            Some((sink, pin)) => {
                if let Some(entry) = scratch
                    .branch_list
                    .iter_mut()
                    .find(|e| e.0 == sink.0 && e.1 == pin)
                {
                    entry.2 |= 1 << k;
                } else {
                    scratch.branch_list.push((sink.0, pin, 1 << k));
                    scratch.branch_flag[sink.index()] = true;
                }
            }
        }
    }

    // A stem fault changes its node in its lanes; a branch fault changes
    // only what its sink sees.
    let queue = &mut scratch.queue;
    for &node in &scratch.stem_nodes {
        let i = node as usize;
        let injected = values[i].select(scratch.stem_mask[i], L::faulty(waveform[i]));
        queue.inject(circuit, values, NodeId(node), injected);
    }
    for &(sink, ..) in &scratch.branch_list {
        queue.schedule(circuit, NodeId(sink));
    }
    let (stem_mask, branch_flag) = (&scratch.stem_mask, &scratch.branch_flag);
    let branch_list = &scratch.branch_list;
    queue.run(circuit, values, |gate, values| {
        let gi = gate.index();
        let node = circuit.node(gate);
        let mut out = if branch_flag[gi] {
            // Rare: a faulty branch carries its stem's faulty value into
            // this gate in the fault's lanes.
            L::eval(
                node.kind(),
                node.fanin().iter().enumerate().map(|(pin, &f)| {
                    branch_list
                        .iter()
                        .filter(|e| e.0 == gate.0 && e.1 == pin as u8)
                        .fold(values[f.index()], |v, e| {
                            v.select(e.2, L::faulty(waveform[f.index()]))
                        })
                }),
            )
        } else {
            L::eval(node.kind(), node.fanin().iter().map(|f| values[f.index()]))
        };
        let held = stem_mask[gi];
        if held != 0 {
            // A slow stem holds its faulty value in its own lanes.
            out = out.select(held, L::faulty(waveform[gi]));
        }
        out
    });

    let lanes = u64::MAX >> (64 - batch.len());
    observe_lanes(
        circuit,
        lanes,
        &scratch.observe,
        waveform,
        required_state_ppos,
        |n| values[n.index()].carried(waveform[n.index()]),
        |k, obs| detected.push((batch[k].0, obs)),
    );

    // Restore the broadcast for the next batch, and reset the sparse
    // injection tables the same way.
    queue.restore(values, |i| L::good(waveform[i]));
    for &node in &scratch.stem_nodes {
        scratch.stem_mask[node as usize] = 0;
    }
    for &(sink, ..) in &scratch.branch_list {
        scratch.branch_flag[sink as usize] = false;
    }
}

/// Puts the `observable` PPOs into `scratch.observe` in flip-flop order,
/// the order the scalar oracles try them in.
fn observation_order(circuit: &Circuit, observable: &[NodeId], scratch: &mut SimScratch) {
    let flag = &mut scratch.node_flag;
    flag.resize(circuit.num_nodes(), false);
    for &ppo in observable {
        flag[ppo.index()] = true;
    }
    scratch.observe.clear();
    scratch
        .observe
        .extend(circuit.ppos().iter().filter(|ppo| flag[ppo.index()]));
    for &ppo in observable {
        flag[ppo.index()] = false;
    }
}

/// Resolves the `lanes` of one traced batch a word at a time, in the
/// scalar oracles' order: the first PO in output order that carries a
/// lane's fault effect observes it; otherwise the first PPO of `observe`
/// (flip-flop order) that carries it does, unless the invalidation rule
/// strikes the lane. `carried(node)` is the lane mask of fault effects at
/// `node`; `hit(lane, observation)` receives each detection.
fn observe_lanes(
    circuit: &Circuit,
    lanes: u64,
    observe: &[NodeId],
    waveform: &[DelayValue],
    required_state_ppos: &[NodeId],
    carried: impl Fn(NodeId) -> u64,
    mut hit: impl FnMut(usize, DelayObservation),
) {
    let mut report = |mut lanes: u64, obs: DelayObservation| {
        while lanes != 0 {
            hit(lanes.trailing_zeros() as usize, obs);
            lanes &= lanes - 1;
        }
    };
    let mut open = lanes;
    for &po in circuit.outputs() {
        if open == 0 {
            return;
        }
        let hits = carried(po) & open;
        open &= !hits;
        report(hits, DelayObservation::AtPo(po));
    }
    for &ppo in observe {
        if open == 0 {
            return;
        }
        let hits = carried(ppo) & open;
        if hits == 0 {
            continue;
        }
        open &= !hits;
        // Invalidation: the fault effect must not reach any other state
        // bit the propagation phase relies on, and those bits must be
        // steady and hazard-free in the good waveform.
        let mut invalid = 0u64;
        for &req in required_state_ppos {
            if req != ppo {
                invalid |= carried(req);
                if !waveform[req.index()].is_steady_clean() {
                    invalid = !0;
                }
            }
        }
        report(hits & !invalid, DelayObservation::AtPpo(ppo));
    }
}
