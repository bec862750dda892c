//! The packed phase-3 driver of §5 grading, shared by both at-speed
//! fault models: critical path tracing per fanout-free region.
//!
//! A fanout-free region is a tree of single-fanout nets ending at one
//! root ([`Circuit::region_root`]); every PO and every PPO is a root.
//! Phase 3 runs in two stages. The **screen** ([`screen`]) runs once per
//! phase-1 batch, over its fault-free waveforms with one sequence per
//! bit lane:
//!
//! 1. **Criticality.** One sweep in reverse topological order marks, per
//!    node, the lanes where a fault effect there reaches its region root.
//!    Inside a region an effect moves along one path whose side inputs
//!    hold fault-free values, so whether it passes a gate depends on good
//!    values only: it is the gate evaluated with just that pin faulty.
//! 2. **Provocation.** One pass over the candidate faults gives each the
//!    lanes where it is provoked and its critical path reaches its root.
//!    A branch straight into a flip-flop latches the faulty value into
//!    that PPO, its only observation point, so it needs only to be
//!    provoked. A fault outside a lane's mask cannot be detected by that
//!    lane's sequence.
//!
//! **Detection** ([`detect`]) then classifies, for one sequence, the
//! faults the screen admitted in its lane:
//!
//! 3. **Tracing.** Each root that an admitted fault reaches is traced
//!    once, one root per bit lane and up to 64 per selective trace: its
//!    stem mark is injected there and the level-ordered queue evaluates
//!    only the gates an effect reaches. Past its root a fault's effect
//!    equals that mark. POs resolve at trace time, in output order. For
//!    the lanes no PO observes, each batch records the nonzero PPO carry
//!    masks in flip-flop order and the relied PPOs' carry masks, then
//!    restores the nodes its trace touched.
//! 4. **Observation.** The caller decides which of the PPOs that may
//!    observe an effect are observable, asked per flip-flop: phase 2 on
//!    demand ([`crate::grading`]) or a given list. The recorded masks then
//!    resolve under the invalidation rule, and each root's observation
//!    fans back out to its faults, in fault-list order.
//!
//! The packed entry points that take one scalar waveform
//! ([`detect_given`]) screen it as a one-lane batch, so there is one
//! criticality for every caller.
//!
//! The models differ only in what a lane holds, the [`Lane`]:
//!
//! * robust gate delay faults (`crate::tdsim`): a [`PackedWave`], the
//!   8-valued delay algebra per lane. The fault effect is the `car`
//!   plane, so sensitization and robustness are TDgen's own. A `car`
//!   mark never changes `init`, `fin` or `haz`, and a steady net cannot
//!   carry one.
//! * transition faults (`crate::tfsim`): a `u64` of frame-2 values. The
//!   fault effect is any difference from the good final value, which is
//!   the non-robust condition.
//!
//! In both models the value a node carrying a fault effect holds depends
//! only on its fault-free value ([`Lane::mark`]). That is what makes
//! the region walk exact and lets a root's stem mark stand for every
//! fault of its region.

use crate::packed::{LevelQueue, SimScratch};
use crate::tdsim::DelayObservation;
use gdf_algebra::delay::DelayValue;
use gdf_algebra::packed::PackedWave;
use gdf_netlist::{Circuit, DelayFaultKind, FaultSite, GateKind, NodeId};

/// One node's values in 64 bit lanes under one at-speed model: one
/// sequence per lane in the screen, one traced root per lane in a trace.
pub(crate) trait Lane: Copy + PartialEq {
    /// The model's view of the fault-free values `w`, lane for lane.
    fn good(w: PackedWave) -> Self;

    /// The lanes where a node whose fault-free values are `w` can carry
    /// a fault effect.
    fn can_carry(w: PackedWave) -> u64;

    /// The value a node whose fault-free value is `good` holds where it
    /// carries a fault effect, in every lane that can carry one.
    fn mark(good: Self) -> Self;

    /// `other` in the lanes of `mask`, `self` in the rest.
    fn select(self, mask: u64, other: Self) -> Self;

    /// Gate `kind` over its fanin values in pin order, folded pairwise
    /// from the first pin.
    fn eval(kind: GateKind, ins: impl Iterator<Item = Self>) -> Self;

    /// The lanes that carry a fault effect at a node whose fault-free
    /// value is `good`.
    fn carried(self, good: Self) -> u64;

    /// The scratch buffer holding one value per node.
    fn values(scratch: &mut Phase3Scratch) -> &mut Vec<Self>;
}

impl Lane for PackedWave {
    fn good(w: PackedWave) -> Self {
        w
    }

    fn can_carry(w: PackedWave) -> u64 {
        // A fault effect rides on a transition.
        w.transitions()
    }

    fn mark(good: Self) -> Self {
        PackedWave {
            car: good.car | Self::can_carry(good),
            ..good
        }
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

    fn carried(self, _good: Self) -> u64 {
        self.car
    }

    fn values(scratch: &mut Phase3Scratch) -> &mut Vec<Self> {
        &mut scratch.wave
    }
}

impl Lane for u64 {
    fn good(w: PackedWave) -> Self {
        w.fin
    }

    fn can_carry(_w: PackedWave) -> u64 {
        !0
    }

    fn mark(good: Self) -> Self {
        !good
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

    fn carried(self, good: Self) -> u64 {
        self ^ good
    }

    fn values(scratch: &mut Phase3Scratch) -> &mut Vec<Self> {
        &mut scratch.fin
    }
}

/// Lane `lane` of the fault-free values `w` in every lane, as the model
/// of `L` sees it.
fn spread<L: Lane>(w: PackedWave, lane: usize) -> L {
    let bit = |plane: u64| (plane >> lane & 1).wrapping_neg();
    L::good(PackedWave {
        init: bit(w.init),
        fin: bit(w.fin),
        haz: bit(w.haz),
        car: bit(w.car),
    })
}

/// Whether lane `lane` of `w` is steady and hazard-free.
pub(crate) fn steady_clean(w: PackedWave, lane: usize) -> bool {
    w.steady_clean() >> lane & 1 == 1
}

/// Where an admitted fault's effect can be observed from.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// The traced root in this slot.
    Root(u32),
    /// A branch straight into a flip-flop latches the faulty value into
    /// this PPO, its only observation point.
    Latch(NodeId),
}

/// The reusable buffers of [`screen`] and [`detect`]. Between calls
/// every sparse table is clear and every list empty.
#[derive(Debug, Default, Clone)]
pub(crate) struct Phase3Scratch {
    /// Node values of the robust model: the delay algebra, one traced
    /// root per lane.
    wave: Vec<PackedWave>,
    /// Node values of the transition model: final values, one traced
    /// root per lane.
    fin: Vec<u64>,
    /// Per node: the lanes of the screened batch where a fault effect
    /// there reaches its region root.
    critical: Vec<u64>,
    /// The one-lane batch [`detect_given`] screens: its waveform in every
    /// lane.
    batch: Vec<PackedWave>,
    /// The faults the screen of [`detect_given`] admits.
    admitted: Vec<(usize, u64)>,
    /// Per node: the slot of a traced root, `NO_SLOT` for the rest.
    slot: Vec<u32>,
    /// The traced roots by slot: slot `s` is lane `s % 64` of batch
    /// `s / 64`.
    roots: Vec<NodeId>,
    /// The observation each traced root found, by slot.
    found: Vec<Option<DelayObservation>>,
    /// Per node: the lanes a root holds its stem mark in, this batch.
    hold: Vec<u64>,
    /// The admitted faults, in fault-list order.
    resolved: Vec<(usize, Target)>,
    /// `(batch, flip-flop index, lanes)`: the nonzero PPO carry masks of
    /// the lanes no PO observes, in batch and flip-flop order.
    ppo_masks: Vec<(u32, u32, u64)>,
    /// The relied PPOs' carry masks, one run of them per batch.
    relied_masks: Vec<u64>,
    /// Per node: a PPO that may observe an effect, then one that the
    /// propagation phase makes observable.
    ppo_flag: Vec<bool>,
    /// Flip-flop indexes handed to the observability decision.
    ffs: Vec<usize>,
}

const NO_SLOT: u32 = u32::MAX;

/// Screens `faults`, each a site and its slow transition, against `wave`,
/// the fault-free waveforms of a batch of sequences, one per lane, under
/// the model of lane type `L`. A fault's lanes are the lanes of `used`
/// where it is provoked and a fault effect at its site reaches its region
/// root, or, for a branch straight into a flip-flop, the lanes where it
/// is provoked. Sets `admitted` to the `(fault index, lanes)` pairs of
/// the faults with some lane, in fault-list order. [`detect`] takes only
/// the faults a lane admits.
///
/// `wave` must be consistent (see [`detect`]) and fault-free: no lane
/// carries a fault mark.
pub(crate) fn screen<L: Lane>(
    circuit: &Circuit,
    wave: &[PackedWave],
    used: u64,
    faults: impl IntoIterator<Item = (FaultSite, DelayFaultKind)>,
    scratch: &mut SimScratch,
    admitted: &mut Vec<(usize, u64)>,
) {
    assert_eq!(wave.len(), circuit.num_nodes(), "waveform length");
    let critical = &mut scratch.phase3.critical;
    mark_critical::<L>(circuit, wave, used, critical);
    admitted.clear();
    for (idx, (site, kind)) in faults.into_iter().enumerate() {
        let stem = wave[site.stem.index()];
        let provoked = match kind {
            DelayFaultKind::SlowToRise => stem.rising(),
            DelayFaultKind::SlowToFall => stem.falling(),
        };
        let lanes = match site.branch {
            _ if provoked == 0 => continue,
            None => provoked & critical[site.stem.index()],
            Some((sink, _)) if !circuit.node(sink).kind().is_combinational() => provoked & used,
            Some((sink, pin)) => match provoked & critical[sink.index()] {
                0 => continue,
                open => open & passes::<L>(circuit, wave, sink, pin),
            },
        };
        if lanes != 0 {
            admitted.push((idx, lanes));
        }
    }
}

/// Sets `critical` to the lanes of `used`, per node, where a fault effect
/// there reaches its region root. A sink comes after its fanins in
/// topological order and every source's sink is a gate, so the reverse
/// sweep settles each sink before its fanins.
fn mark_critical<L: Lane>(
    circuit: &Circuit,
    wave: &[PackedWave],
    used: u64,
    critical: &mut Vec<u64>,
) {
    critical.resize(circuit.num_nodes(), 0);
    let sources = circuit.inputs().iter().chain(circuit.dffs());
    for &id in circuit.topo_order().iter().rev().chain(sources) {
        critical[id.index()] = match circuit.region_sink(id) {
            None => used,
            Some((sink, pin)) => match critical[sink.index()] & L::can_carry(wave[id.index()]) {
                0 => 0,
                open => open & passes::<L>(circuit, wave, sink, pin),
            },
        };
    }
}

/// The lanes where a fault effect on input `pin` of `gate` reaches the
/// gate's output while every other input holds its fault-free value.
fn passes<L: Lane>(circuit: &Circuit, wave: &[PackedWave], gate: NodeId, pin: u8) -> u64 {
    let node = circuit.node(gate);
    let ins = node.fanin().iter().enumerate().map(|(k, f)| {
        let good = L::good(wave[f.index()]);
        if k == pin as usize {
            L::mark(good)
        } else {
            good
        }
    });
    L::eval(node.kind(), ins).carried(L::good(wave[gate.index()]))
}

/// Classifies `faults` against lane `lane` of `wave`, a batch
/// [`screen`]ed under the model of lane type `L`. `faults` are
/// `(index, site)` pairs of the faults the screen admitted in that lane,
/// in index order. Returns `(index, observation)` pairs in that order.
///
/// `observable` decides which PPOs the propagation phase makes
/// observable: it receives, in flip-flop order, the flip-flops whose PPO
/// some fault effect reaches, and keeps those whose latched difference
/// is observable. A PPO is observable if one of its flip-flops is kept.
/// It runs once, after the traces, with the queue, the value buffers and
/// the (clear) PPO flags of `scratch` free for its own use.
///
/// `wave` must be consistent: every gate holds its gate function of its
/// fanins' values. That is what makes skipping unreached gates exact.
pub(crate) fn detect<L: Lane>(
    circuit: &Circuit,
    wave: &[PackedWave],
    lane: usize,
    faults: impl IntoIterator<Item = (usize, FaultSite)>,
    required_state_ppos: &[NodeId],
    scratch: &mut SimScratch,
    observable: impl FnOnce(&mut Vec<usize>, &mut SimScratch),
) -> Vec<(usize, DelayObservation)> {
    assert_eq!(wave.len(), circuit.num_nodes(), "waveform length");
    let n = circuit.num_nodes();
    // Broadcast the lane's fault-free values once; every batch injects
    // into them and restores exactly the nodes its trace changed.
    let mut values = std::mem::take(L::values(&mut scratch.phase3));
    values.clear();
    values.extend(wave.iter().map(|&w| spread::<L>(w, lane)));
    let p = &mut scratch.phase3;
    p.slot.resize(n, NO_SLOT);
    p.hold.resize(n, 0);
    p.ppo_flag.resize(n, false);

    resolve(circuit, faults, p);

    p.found.clear();
    p.found.resize(p.roots.len(), None);
    scratch.queue.prepare(circuit);
    for batch in 0..p.roots.len().div_ceil(64) {
        trace_batch(
            circuit,
            (wave, lane),
            batch,
            &mut values,
            required_state_ppos,
            p,
            &mut scratch.queue,
        );
    }
    *L::values(p) = values;

    // Phase 2's answer for every flip-flop whose PPO an effect may reach,
    // asked once. Flip-flops that latch one net are asked one by one, as
    // the scalar composition does: the net is observable if any is.
    let mut ffs = std::mem::take(&mut p.ffs);
    ffs.clear();
    let ppos = circuit.ppos();
    ffs.extend((0..ppos.len()).filter(|&i| p.ppo_flag[ppos[i].index()]));
    for &i in &ffs {
        p.ppo_flag[ppos[i].index()] = false;
    }
    if !ffs.is_empty() {
        observable(&mut ffs, scratch);
    }
    let p = &mut scratch.phase3;
    for &i in &ffs {
        p.ppo_flag[ppos[i].index()] = true;
    }
    p.ffs = ffs;

    observe_ppos(circuit, (wave, lane), required_state_ppos, p);
    let detected = p
        .resolved
        .iter()
        .filter_map(|&(idx, target)| {
            let obs = match target {
                Target::Root(slot) => p.found[slot as usize],
                Target::Latch(ppo) => (p.ppo_flag[ppo.index()]
                    && required_state_ppos
                        .iter()
                        .all(|&req| req == ppo || steady_clean(wave[req.index()], lane)))
                .then_some(DelayObservation::AtPpo(ppo)),
            };
            obs.map(|obs| (idx, obs))
        })
        .collect();

    for &i in &p.ffs {
        p.ppo_flag[ppos[i].index()] = false;
    }
    for root in p.roots.drain(..) {
        p.slot[root.index()] = NO_SLOT;
    }
    p.resolved.clear();
    p.ppo_masks.clear();
    p.relied_masks.clear();
    detected
}

/// Classifies `faults`, each a site and its slow transition, against one
/// scalar fault-free `waveform`: [`screen`] as a one-lane batch, then
/// [`detect`] with the PPOs in `observable_ppos` as the observable ones,
/// the answer the packed public entry points take from their caller.
/// Returns `(fault index, observation)` pairs in fault-list order.
pub(crate) fn detect_given<L: Lane>(
    circuit: &Circuit,
    waveform: &[DelayValue],
    faults: impl Iterator<Item = (FaultSite, DelayFaultKind)> + Clone,
    observable_ppos: &[NodeId],
    required_state_ppos: &[NodeId],
    scratch: &mut SimScratch,
) -> Vec<(usize, DelayObservation)> {
    assert_eq!(waveform.len(), circuit.num_nodes(), "waveform length");
    // Every lane holds the waveform; lane 0 is read.
    let mut batch = std::mem::take(&mut scratch.phase3.batch);
    let mut admitted = std::mem::take(&mut scratch.phase3.admitted);
    batch.clear();
    batch.extend(waveform.iter().map(|&v| PackedWave::splat(v)));
    screen::<L>(circuit, &batch, 1, faults.clone(), scratch, &mut admitted);
    let mut next = admitted.iter().map(|&(k, _)| k).peekable();
    let faults = faults
        .enumerate()
        .filter_map(|(k, (site, _))| next.next_if_eq(&k).map(|k| (k, site)));
    let detected = detect::<L>(
        circuit,
        &batch,
        0,
        faults,
        required_state_ppos,
        scratch,
        |ffs, scratch| {
            let flag = &mut scratch.phase3.ppo_flag;
            for ppo in observable_ppos {
                flag[ppo.index()] = true;
            }
            ffs.retain(|&i| flag[circuit.ppos()[i].index()]);
            for ppo in observable_ppos {
                flag[ppo.index()] = false;
            }
        },
    );
    scratch.phase3.batch = batch;
    scratch.phase3.admitted = admitted;
    detected
}

/// Fills `p.resolved` with the admitted `faults` and their observation
/// points, in fault-list order, and `p.roots` with the roots they reach,
/// in first-reached order. Flags the PPOs that branches into flip-flops
/// latch.
fn resolve(
    circuit: &Circuit,
    faults: impl IntoIterator<Item = (usize, FaultSite)>,
    p: &mut Phase3Scratch,
) {
    for (idx, site) in faults {
        let target = match site.branch {
            Some((sink, _)) if !circuit.node(sink).kind().is_combinational() => {
                p.ppo_flag[site.stem.index()] = true;
                Target::Latch(site.stem)
            }
            _ => {
                let root = circuit.region_root(site.branch.map_or(site.stem, |(sink, _)| sink));
                let slot = &mut p.slot[root.index()];
                if *slot == NO_SLOT {
                    *slot = p.roots.len() as u32;
                    p.roots.push(root);
                }
                Target::Root(*slot)
            }
        };
        p.resolved.push((idx, target));
    }
}

/// The lanes set in `mask`, lowest first.
fn lanes(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// Traces the roots of `batch`, one per lane, in one selective trace:
/// resolves the lanes a PO observes (the first PO in output order that
/// carries the effect) and records the PPO and relied-PPO carry masks of
/// the others. `values` holds the broadcast fault-free values and is
/// restored on return.
fn trace_batch<L: Lane>(
    circuit: &Circuit,
    (wave, lane): (&[PackedWave], usize),
    batch: usize,
    values: &mut [L],
    required_state_ppos: &[NodeId],
    p: &mut Phase3Scratch,
    queue: &mut LevelQueue,
) {
    let first = batch * 64;
    let roots = &p.roots[first..p.roots.len().min(first + 64)];
    // Each root holds its stem mark in its own lane.
    for (k, &root) in roots.iter().enumerate() {
        let i = root.index();
        p.hold[i] = 1 << k;
        let injected = values[i].select(p.hold[i], L::mark(values[i]));
        queue.inject(circuit, values, root, injected);
    }
    let hold = &p.hold;
    queue.run(circuit, values, |gate, values| {
        let node = circuit.node(gate);
        let out = L::eval(node.kind(), node.fanin().iter().map(|f| values[f.index()]));
        match hold[gate.index()] {
            0 => out,
            held => out.select(held, L::mark(spread(wave[gate.index()], lane))),
        }
    });

    let carried = |n: NodeId| values[n.index()].carried(spread(wave[n.index()], lane));
    let mut open = u64::MAX >> (64 - roots.len());
    for &po in circuit.outputs() {
        if open == 0 {
            break;
        }
        let hits = carried(po) & open;
        open &= !hits;
        for lane in lanes(hits) {
            p.found[first + lane] = Some(DelayObservation::AtPo(po));
        }
    }
    if open != 0 {
        for (i, ppo) in circuit.ppos().iter().enumerate() {
            let mask = carried(*ppo) & open;
            if mask != 0 {
                p.ppo_masks.push((batch as u32, i as u32, mask));
                p.ppo_flag[ppo.index()] = true;
            }
        }
    }
    p.relied_masks
        .extend(required_state_ppos.iter().map(|&req| carried(req)));

    queue.restore(values, |i| spread(wave[i], lane));
    for root in roots {
        p.hold[root.index()] = 0;
    }
}

/// Resolves the lanes no PO observed from the recorded masks, in the
/// scalar oracles' order: the first observable PPO in flip-flop order
/// that carries a lane's fault effect observes it, unless the
/// invalidation rule strikes the lane. `p.ppo_flag` marks the
/// observable PPOs.
fn observe_ppos(
    circuit: &Circuit,
    (wave, lane): (&[PackedWave], usize),
    required_state_ppos: &[NodeId],
    p: &mut Phase3Scratch,
) {
    let relied = required_state_ppos.len();
    let (mut batch, mut open) = (u32::MAX, 0u64);
    for &(b, ff, mask) in &p.ppo_masks {
        if b != batch {
            (batch, open) = (b, !0);
        }
        let ppo = circuit.ppos()[ff as usize];
        let hits = mask & open;
        if hits == 0 || !p.ppo_flag[ppo.index()] {
            continue;
        }
        open &= !hits;
        // Invalidation: the fault effect must not reach any other state
        // bit the propagation phase relies on, and those bits must be
        // steady and hazard-free in the good waveform.
        let carried = &p.relied_masks[b as usize * relied..][..relied];
        let mut invalid = 0u64;
        for (&req, &mask) in required_state_ppos.iter().zip(carried) {
            if req != ppo {
                invalid |= mask;
                if !steady_clean(wave[req.index()], lane) {
                    invalid = !0;
                }
            }
        }
        for lane in lanes(hits & !invalid) {
            p.found[b as usize * 64 + lane] = Some(DelayObservation::AtPpo(ppo));
        }
    }
}
