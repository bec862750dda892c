//! Golden outcomes of the TDgen + SEMILET search.
//!
//! Each case runs `Atpg::builder(c).seed(1995)` serially and pins the
//! Table 3 counts `(tested, untestable, aborted, patterns)` and the digest
//! of the canonical artifact. The robust non-scan cases cover every row
//! the `table3_atpg` benchmark workload times (`s27`, `s208`, `s298`,
//! `s344`). `s119` stuck-at (the frame engine with a stuck fault and
//! assignable PPIs), `s298` enhanced scan (TDgen alone) and `s119`
//! non-robust (non-robust TDgen with SEMILET) pin the other instances of
//! the shared search core. Every decision the search takes (objective,
//! backtrace, alternative order, backtrack point) shows up in these
//! bytes, so a change that only makes the search cheaper must leave them
//! alone.
//!
//! A change that alters search decisions on purpose (branch-and-bound
//! pruning, SCOAP decision ordering — ROADMAP item 4) updates these
//! constants, and says in CHANGES.md why the new outcomes are expected.

use gdf::core::{Atpg, Backend, CircuitSource, Digest, RunArtifact, RunConfig, Sensitization};
use gdf::netlist::{suite, CircuitBuilder, GateKind};

/// One golden case: suite circuit, backend, sensitization, expected
/// `(tested, untestable, aborted, patterns)` and artifact digest.
struct Golden {
    circuit: &'static str,
    backend: Backend,
    sensitization: Sensitization,
    counts: (u32, u32, u32, u32),
    digest: &'static str,
}

fn check(g: &Golden) {
    let circuit = suite::by_name(g.circuit).expect("suite circuit");
    let mut config = RunConfig::new(g.backend).with_seed(1995);
    config.sensitization = g.sensitization;
    let run = Atpg::builder(&circuit)
        .backend(config.backend)
        .sensitization(config.sensitization)
        .seed(config.seed)
        .build()
        .run();
    let row = &run.report.row;
    let counts = (row.tested, row.untestable, row.aborted, row.patterns);
    let artifact = RunArtifact::from_run(
        &circuit,
        &run,
        config,
        Some(CircuitSource::suite(&circuit, g.circuit)),
    );
    let digest = Digest::of_text(&artifact.canonical_encode()).hex();
    let case = format!("{} {:?} {:?}", g.circuit, g.backend, g.sensitization);
    assert_eq!(
        counts, g.counts,
        "{case}: (tested, untestable, aborted, patterns)"
    );
    assert_eq!(digest, g.digest, "{case}: canonical artifact digest");
}

#[test]
fn s27_robust() {
    check(&Golden {
        circuit: "s27",
        backend: Backend::NonScan,
        sensitization: Sensitization::Robust,
        counts: (31, 17, 4, 43),
        digest: "7721e9a475ffc7b17caa63c09914f9cf",
    });
}

#[test]
fn s27_non_robust() {
    check(&Golden {
        circuit: "s27",
        backend: Backend::NonScan,
        sensitization: Sensitization::NonRobust,
        counts: (31, 17, 4, 43),
        digest: "883c2038c24658e29a84d75df2447839",
    });
}

#[test]
fn s119_robust() {
    check(&Golden {
        circuit: "s119",
        backend: Backend::NonScan,
        sensitization: Sensitization::Robust,
        counts: (110, 44, 12, 118),
        digest: "a4c2265f6d418d57280e44d053f37c7b",
    });
}

#[test]
fn s208_robust() {
    check(&Golden {
        circuit: "s208",
        backend: Backend::NonScan,
        sensitization: Sensitization::Robust,
        counts: (0, 337, 171, 0),
        digest: "5bd1f594b6871c865f1ebf075f6b762e",
    });
}

#[test]
fn s298_robust() {
    check(&Golden {
        circuit: "s298",
        backend: Backend::NonScan,
        sensitization: Sensitization::Robust,
        counts: (62, 523, 57, 20),
        digest: "3dd06ba14f5654cb2a64f5f8ae99b2a5",
    });
}

#[test]
fn s344_robust() {
    check(&Golden {
        circuit: "s344",
        backend: Backend::NonScan,
        sensitization: Sensitization::Robust,
        counts: (246, 314, 294, 82),
        digest: "54821c338f67e53098fba63f5c183d22",
    });
}

#[test]
fn s27_stuck_at() {
    check(&Golden {
        circuit: "s27",
        backend: Backend::StuckAt,
        sensitization: Sensitization::Robust,
        counts: (41, 0, 11, 134),
        digest: "c21159e5b0f0825d6890bb041d93832b",
    });
}

#[test]
fn s119_stuck_at() {
    check(&Golden {
        circuit: "s119",
        backend: Backend::StuckAt,
        sensitization: Sensitization::Robust,
        counts: (79, 0, 87, 286),
        digest: "cecee67e95de5f818785d71062cf5bb6",
    });
}

#[test]
fn s298_enhanced_scan() {
    check(&Golden {
        circuit: "s298",
        backend: Backend::EnhancedScan,
        sensitization: Sensitization::Robust,
        counts: (323, 265, 54, 646),
        digest: "b9605b42653b4eec776e8e256c232d2d",
    });
}

#[test]
fn s119_non_robust() {
    check(&Golden {
        circuit: "s119",
        backend: Backend::NonScan,
        sensitization: Sensitization::NonRobust,
        counts: (108, 44, 14, 133),
        digest: "558a4c0e91cfa4dd4c597870706a66f5",
    });
}

/// A 13-input AND under the non-robust model. Its set image once
/// enumerated the Cartesian product of the input sets (up to 4^13 tuples
/// per evaluation) and ran for minutes; the 16-state fold makes each
/// evaluation polynomial in the arity. Every fault has a test.
#[test]
fn wide_and_non_robust() {
    let mut b = CircuitBuilder::new("and13");
    let inputs: Vec<String> = (0..13).map(|i| format!("a{i}")).collect();
    for name in &inputs {
        b.add_input(name);
    }
    let fanin: Vec<&str> = inputs.iter().map(String::as_str).collect();
    b.add_gate("y", GateKind::And, &fanin);
    b.mark_output("y");
    let circuit = b.build().expect("valid circuit");
    let run = Atpg::builder(&circuit)
        .sensitization(Sensitization::NonRobust)
        .seed(1995)
        .build()
        .run();
    let row = &run.report.row;
    assert_eq!(
        (row.tested, row.untestable, row.aborted, row.patterns),
        (28, 0, 0, 28),
        "(tested, untestable, aborted, patterns)"
    );
}
