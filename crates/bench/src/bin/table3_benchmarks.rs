//! Regenerates **Table 3** of the paper: per-circuit fault accounting for
//! the robust gate-delay-fault ATPG on the ISCAS'89 suite (exact `s27`,
//! synthetic profile-matched stand-ins for the rest — see "Reproduction
//! fidelity" in the repository README).
//!
//! ```text
//! cargo run --release -p gdf-bench --bin table3_benchmarks
//! GDF_QUICK=1    … only the circuits that finish in seconds
//! GDF_CIRCUITS=s27,s298,s344 … explicit selection
//! ```
//!
//! Absolute numbers cannot match a 1995 SPARCstation run on the original
//! netlists; the claims under reproduction are the *shape*: a large
//! untestable fraction caused by the strict robust model, non-negligible
//! aborts at the 100-backtrack limits, pattern counts that include
//! initialization and propagation frames, and runtime growth with circuit
//! size.

use gdf_bench::{paper_row, run_circuit, selected_circuits};
use gdf_core::DelayAtpgConfig;

fn main() {
    let circuits = selected_circuits();
    println!(
        "Table 3 — benchmark results (ours vs. paper; paper time is on a\n\
         Sun SPARCstation 10 against the original netlists)\n"
    );
    println!(
        "{:<11} | {:>7} {:>8} {:>8} {:>7} {:>8} | {:>7} {:>8} {:>8} {:>7} {:>8}",
        "circuit",
        "tested",
        "untstbl",
        "aborted",
        "#pat",
        "time[s]",
        "tested",
        "untstbl",
        "aborted",
        "#pat",
        "time[s]"
    );
    println!(
        "{:<11} | {:^41} | {:^41}",
        "", "—— this reproduction ——", "—— paper (1995) ——"
    );
    println!("{}", "-".repeat(101));

    let mut totals = (0u32, 0u32, 0u32);
    for name in &circuits {
        let run = run_circuit(name, DelayAtpgConfig::default());
        let r = &run.report.row;
        let (pt, pu, pa, pp, ps) = paper_row(name).unwrap_or((0, 0, 0, 0, 0));
        println!(
            "{:<11} | {:>7} {:>8} {:>8} {:>7} {:>8.1} | {:>7} {:>8} {:>8} {:>7} {:>8}",
            r.circuit,
            r.tested,
            r.untestable,
            r.aborted,
            r.patterns,
            r.elapsed.as_secs_f64(),
            pt,
            pu,
            pa,
            pp,
            ps
        );
        totals.0 += r.tested;
        totals.1 += r.untestable;
        totals.2 += r.aborted;
    }
    println!("{}", "-".repeat(101));
    let total = (totals.0 + totals.1 + totals.2).max(1);
    let share = |n: u32| 100.0 * n as f64 / total as f64;
    println!(
        "totals: {} tested ({:.0}%), {} untestable ({:.0}%), {} aborted ({:.0}%)",
        totals.0,
        share(totals.0),
        totals.1,
        share(totals.1),
        totals.2,
        share(totals.2),
    );
    let classes = [
        ("tested", totals.0),
        ("untestable", totals.1),
        ("aborted", totals.2),
    ];
    let (largest, count) = classes
        .into_iter()
        .max_by_key(|&(_, n)| n)
        .expect("three classes");
    println!(
        "\nshape check (paper §6): \"the number of untestable faults due to a\n\
         strong robust delay fault model is large\" — in this run the largest\n\
         class is {largest}, with {:.0}% of the faults.",
        share(count),
    );
}
