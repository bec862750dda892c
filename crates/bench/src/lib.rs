//! Shared helpers for the table-regeneration binaries and the offline
//! benches in `benches/`.

pub mod criterion;

use gdf_core::driver::AtpgRun;
use gdf_core::json::Json;
use gdf_core::{DelayAtpg, DelayAtpgConfig};
use gdf_netlist::suite;

/// Appends `record` to the JSON array in `path`, creating `[ … ]` if
/// the file is missing or empty. Earlier records keep their bytes.
///
/// Every appended record **must** carry a `"unix_time"` key — the
/// accumulated trajectory files (`BENCH_fsim.json`) are ordered and
/// attributed by it, and a record without a timestamp silently breaks
/// that ordering for every later reader. The bench bins stamp it via
/// [`unix_time_now`]; this helper refuses records that forgot to.
///
/// # Panics
///
/// Panics if `record` lacks a `"unix_time"` key, or if the existing file
/// is not a JSON array.
pub fn append_record(path: &str, record: &Json) -> std::io::Result<()> {
    assert!(
        record.get("unix_time").is_some(),
        "bench record appended to {path} lacks the mandatory \"unix_time\" stamp"
    );
    let lines: Vec<String> = record.pretty().lines().map(|l| format!("  {l}")).collect();
    let record = lines.join("\n");
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let trimmed = existing.trim();
    let out = if trimmed.is_empty() || trimmed == "[]" {
        format!("[\n{record}\n]\n")
    } else {
        let body = trimmed
            .strip_suffix(']')
            .expect("existing bench file must be a JSON array")
            .trim_end()
            .to_string();
        format!("{body},\n{record}\n]\n")
    };
    std::fs::write(path, out)
}

/// `x` rounded to `decimals` places, as a JSON number.
pub fn rounded(x: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::Num((x * scale).round() / scale)
}

/// Seconds since the Unix epoch, for stamping bench records.
pub fn unix_time_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

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

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> String {
        std::env::temp_dir()
            .join(format!("gdf-bench-append-{tag}-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn append_record_grows_a_parseable_array() {
        let path = temp_path("grow");
        let _ = std::fs::remove_file(&path);
        for (bench, time) in [("a", 1.0), ("b", 2.0)] {
            let record = Json::Obj(vec![
                ("bench".into(), Json::Str(bench.into())),
                ("unix_time".into(), Json::Num(time)),
                ("ratio".into(), rounded(2.0 / 3.0, 2)),
            ]);
            append_record(&path, &record).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = Json::parse(&text).expect("appended file stays valid JSON");
        let rows = parsed.as_array().expect("top level is an array");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("unix_time").and_then(|t| t.as_f64()), Some(2.0));
        assert_eq!(rows[1].get("ratio").and_then(|t| t.as_f64()), Some(0.67));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "unix_time")]
    fn append_record_rejects_unstamped_records() {
        let path = temp_path("unstamped");
        let _ = append_record(
            &path,
            &Json::Obj(vec![("bench".into(), Json::Str("oops".into()))]),
        );
    }
}
