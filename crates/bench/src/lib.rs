//! Shared helpers for the table-regeneration binaries and the offline
//! benches in `benches/`.

pub mod criterion;

use gdf_core::driver::AtpgRun;
use gdf_core::{DelayAtpg, DelayAtpgConfig};
use gdf_netlist::suite;

/// Circuits selected by the `GDF_CIRCUITS` environment variable
/// (comma-separated names), or the whole Table 3 list. `GDF_QUICK=1`
/// restricts to the circuits that finish in seconds.
pub fn selected_circuits() -> Vec<String> {
    if let Ok(list) = std::env::var("GDF_CIRCUITS") {
        return list.split(',').map(|s| s.trim().to_string()).collect();
    }
    let quick = std::env::var("GDF_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    suite::TABLE3_PROFILES
        .iter()
        .filter(|&&(_, _, _, _, gates, _)| !quick || gates <= 170)
        .map(|&(name, ..)| name.to_string())
        .collect()
}

/// Runs the full ATPG on one Table 3 circuit with the given configuration.
pub fn run_circuit(name: &str, config: DelayAtpgConfig) -> AtpgRun {
    let circuit = suite::table3_circuit(name).expect("known Table 3 circuit");
    DelayAtpg::with_config(&circuit, config).run()
}

/// The paper's reference row, if recorded:
/// `(tested, untestable, aborted, patterns, sparc10 seconds)`.
pub fn paper_row(name: &str) -> Option<(u32, u32, u32, u32, u32)> {
    suite::TABLE3_PAPER_RESULTS
        .iter()
        .find(|&&(n, ..)| n == name)
        .map(|&(_, t, u, a, p, s)| (t, u, a, p, s))
}
