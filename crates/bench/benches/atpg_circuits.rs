//! Criterion benchmarks for the test generators: TDgen per-fault search
//! (robust and non-robust), the SEMILET per-frame engine and multi-frame
//! propagation, the synchronizer, and the whole non-scan driver loop;
//! below them, the set implication both generators run: a network's
//! first fixpoint and one gate narrowing.

use gdf_algebra::delay::{narrow_inputs, DelaySet};
use gdf_algebra::static5::{StaticSet, StaticValue};
use gdf_bench::criterion::{black_box, criterion_group, criterion_main, Criterion};
use gdf_core::DelayAtpg;
use gdf_netlist::{suite, DelayFault, DelayFaultKind, FaultSite, FaultUniverse, GateKind};
use gdf_semilet::frame::{FrameEngine, FrameGoal, PpiConstraint};
use gdf_semilet::justify::{synchronize, SyncLimits};
use gdf_semilet::propagate::{propagate_to_po, PropagateLimits};
use gdf_tdgen::network::DelayAlgebra;
use gdf_tdgen::{Sensitization, TdGen, TdGenConfig, TdGenOutcome};

fn bench_tdgen(c: &mut Criterion) {
    let s27 = suite::s27();
    let gen27 = TdGen::new(&s27);
    let g11 = s27.node_by_name("G11").expect("s27 net");
    let fault = DelayFault {
        site: FaultSite::on_stem(g11),
        kind: DelayFaultKind::SlowToFall,
    };
    c.bench_function("tdgen one fault s27", |b| {
        b.iter(|| gen27.generate(black_box(fault)))
    });

    let big = suite::table3_circuit("s344").expect("suite circuit");
    let gen_big = TdGen::new(&big);
    let faults = FaultUniverse::default().delay_faults(&big);
    let sample: Vec<DelayFault> = faults.iter().copied().take(8).collect();
    c.bench_function("tdgen 8 faults s344_syn", |b| {
        b.iter(|| {
            for &f in &sample {
                black_box(gen_big.generate(f));
            }
        })
    });

    // Non-robust set images fold 16 states per gate; the search takes
    // hundreds of steps per fault here.
    let s208 = suite::table3_circuit("s208").expect("suite circuit");
    let gen_nr = TdGen::with_config(
        &s208,
        TdGenConfig {
            sensitization: Sensitization::NonRobust,
            ..TdGenConfig::default()
        },
    );
    let sample_nr: Vec<DelayFault> = FaultUniverse::default()
        .delay_faults(&s208)
        .into_iter()
        .take(8)
        .collect();
    c.bench_function("tdgen 8 faults s208_syn non-robust", |b| {
        b.iter(|| {
            for &f in &sample_nr {
                black_box(gen_nr.generate(f));
            }
        })
    });
}

fn bench_semilet(c: &mut Criterion) {
    let circuit = suite::s27();
    let engine = FrameEngine::new(&circuit, 100);
    let ppis = vec![
        PpiConstraint::Fixed(StaticSet::singleton(StaticValue::S0)),
        PpiConstraint::Fixed(StaticSet::singleton(StaticValue::D)),
        PpiConstraint::Fixed(StaticSet::singleton(StaticValue::S0)),
    ];
    c.bench_function("frame engine propagate s27", |b| {
        b.iter(|| engine.solve(black_box(&ppis), &FrameGoal::ObserveAtPo, None))
    });

    // Multi-frame propagation from the local tests TDgen observes at a
    // PPO: many frame-engine steps per start, most of them aborting.
    let s344 = suite::table3_circuit("s344").expect("suite circuit");
    let gen = TdGen::new(&s344);
    let starts: Vec<Vec<StaticSet>> = FaultUniverse::default()
        .delay_faults(&s344)
        .into_iter()
        .filter_map(|f| match gen.generate(f) {
            TdGenOutcome::Test(t) if t.needs_propagation() => {
                Some(t.ppo_values.iter().map(|v| v.static_set()).collect())
            }
            _ => None,
        })
        .take(8)
        .collect();
    c.bench_function("propagate_to_po 8 local tests s344_syn", |b| {
        b.iter(|| {
            for start in &starts {
                black_box(propagate_to_po(
                    &s344,
                    black_box(start),
                    PropagateLimits::default(),
                ));
            }
        })
    });

    let sr = gdf_netlist::generator::shift_register(6);
    c.bench_function("synchronize 6-stage shift register", |b| {
        b.iter(|| synchronize(&sr, black_box(&[(5, true)]), SyncLimits::default()))
    });
}

fn bench_driver(c: &mut Criterion) {
    // The Figure 4 loop on a row where most propagation inputs repeat
    // an earlier fault's: each run starts with an empty memo.
    let s208 = suite::table3_circuit("s208").expect("suite circuit");
    c.bench_function("DelayAtpg::run s208_syn", |b| {
        b.iter(|| black_box(DelayAtpg::new(&s208).run()))
    });
}

fn bench_implication(c: &mut Criterion) {
    // TDgen's initial network of every fault: build it and reach its
    // first fixpoint.
    let s344 = suite::table3_circuit("s344").expect("suite circuit");
    let faults = FaultUniverse::default().delay_faults(&s344);
    c.bench_function("implication fixpoint s344_syn", |b| {
        b.iter(|| {
            for &f in &faults {
                black_box(DelayAlgebra::<true>::new(f).network(&s344).propagate());
            }
        })
    });

    // Every pair of input sets of a 2-input AND against the carrying
    // values, the propagation objective.
    c.bench_function("narrow_inputs delay 2-input", |b| {
        b.iter(|| {
            for a in 0..=255 {
                for x in 0..=255 {
                    let mut out = DelaySet::CARRYING;
                    let mut ins = [DelaySet::from_bits(a), DelaySet::from_bits(x)];
                    black_box(narrow_inputs(GateKind::And, &mut out, black_box(&mut ins)));
                }
            }
        })
    });
}

criterion_group!(
    benches,
    bench_tdgen,
    bench_semilet,
    bench_driver,
    bench_implication
);
criterion_main!(benches);
