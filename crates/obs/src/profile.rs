//! Engine profiling: the [`Profiler`] observer, the registry-backed
//! [`RegistrySink`] for `gdf_core::phase` timings, and the
//! [`PhaseRecord`]s that per-job sinks keep and fold into profile
//! summaries.
//!
//! Everything here is a side channel. The profiler only *reads* the
//! observer stream; phase records only *time* stages. Neither can
//! perturb a single canonical byte — that is tested, not asserted.

use crate::metrics::{Histogram, Registry};
use gdf_core::json::Json;
use gdf_core::phase::PhaseSink;
use gdf_core::report::CircuitReport;
use gdf_core::{FaultRecord, Observer};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// One phase timing, as a per-job sink keeps it.
#[derive(Clone, Copy, Debug)]
pub struct PhaseRecord {
    /// Stage name (`generate`, `fill`, `fsim`, …).
    pub phase: &'static str,
    /// When the stage started.
    pub started: Instant,
    /// How long it ran.
    pub duration: Duration,
}

/// The `gdf_core::phase::PhaseSink` that folds phase timings into a
/// [`Registry`] (as `gdf_engine_phase_seconds{phase=...}` summaries).
pub struct RegistrySink {
    registry: Registry,
    /// Small read-mostly cache: the phase set is a handful of static
    /// names, so a linear scan under a read lock beats re-entering the
    /// registry's mutex on every record.
    cache: RwLock<Vec<(&'static str, Arc<Histogram>)>>,
}

/// Help text of the per-phase histogram family.
pub const PHASE_HELP: &str =
    "Wall time per engine/job phase (packed fsim phases 1-3 aggregate under `fsim`).";

/// Name of the per-phase histogram family.
pub const PHASE_METRIC: &str = "gdf_engine_phase_seconds";

impl RegistrySink {
    /// A sink recording into `registry`.
    pub fn new(registry: Registry) -> Self {
        RegistrySink {
            registry,
            cache: RwLock::new(Vec::new()),
        }
    }

    fn histogram(&self, phase: &'static str) -> Arc<Histogram> {
        if let Some((_, h)) = self
            .cache
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .find(|(p, _)| *p == phase)
        {
            return h.clone();
        }
        let h = self
            .registry
            .histogram_with(PHASE_METRIC, PHASE_HELP, &[("phase", phase)]);
        let mut cache = self.cache.write().unwrap_or_else(|e| e.into_inner());
        if !cache.iter().any(|(p, _)| *p == phase) {
            cache.push((phase, h.clone()));
        }
        h
    }
}

impl PhaseSink for RegistrySink {
    fn record(&self, phase: &'static str, _started: Instant, duration: Duration) {
        self.histogram(phase).observe(duration);
    }
}

/// Aggregated per-phase wall time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Number of spans.
    pub count: u64,
    /// Total wall time, microseconds.
    pub total_us: u64,
}

/// What one profiled run looked like: observer-stream statistics plus
/// the per-phase wall-time breakdown. Serialized as the optional
/// `profile` block on job summaries — and *never* into
/// `canonical_encode()`.
#[derive(Clone, Debug, Default)]
pub struct ProfileData {
    /// Total run wall time, microseconds.
    pub wall_us: u64,
    /// Faults in the run's universe.
    pub total_faults: u64,
    /// Faults decided (targeted or credited).
    pub decided: u64,
    /// Faults credited by fault simulation.
    pub credited: u64,
    /// Test sequences emitted.
    pub sequences: u64,
    /// Checkpoints observed.
    pub checkpoints: u64,
    /// Per-phase stats in first-seen order.
    pub phases: Vec<(&'static str, PhaseStat)>,
}

impl ProfileData {
    /// Folds phase records into the per-phase stats.
    pub fn add_phases(&mut self, records: &[PhaseRecord]) {
        for r in records {
            let stat = match self.phases.iter_mut().find(|(p, _)| *p == r.phase) {
                Some((_, s)) => s,
                None => {
                    self.phases.push((r.phase, PhaseStat::default()));
                    &mut self.phases.last_mut().expect("just pushed").1
                }
            };
            stat.count += 1;
            stat.total_us += r.duration.as_micros() as u64;
        }
    }

    /// The JSON `profile` block.
    pub fn to_json(&self) -> Json {
        let mut phases: Vec<(&'static str, PhaseStat)> = self.phases.clone();
        phases.sort_by_key(|(p, _)| *p);
        Json::Obj(vec![
            ("wall_us".to_string(), Json::Num(self.wall_us as f64)),
            (
                "total_faults".to_string(),
                Json::Num(self.total_faults as f64),
            ),
            ("decided".to_string(), Json::Num(self.decided as f64)),
            ("credited".to_string(), Json::Num(self.credited as f64)),
            ("sequences".to_string(), Json::Num(self.sequences as f64)),
            (
                "checkpoints".to_string(),
                Json::Num(self.checkpoints as f64),
            ),
            (
                "phases".to_string(),
                Json::Obj(
                    phases
                        .iter()
                        .map(|(p, s)| {
                            (
                                p.to_string(),
                                Json::Obj(vec![
                                    ("count".to_string(), Json::Num(s.count as f64)),
                                    ("total_us".to_string(), Json::Num(s.total_us as f64)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// A shared handle to a [`Profiler`]'s accumulating data.
#[derive(Clone, Default)]
pub struct ProfileHandle(Arc<Mutex<ProfileData>>);

impl ProfileHandle {
    /// A copy of the data accumulated so far.
    pub fn snapshot(&self) -> ProfileData {
        self.0.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Folds phase records in.
    pub fn add_phases(&self, records: &[PhaseRecord]) {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .add_phases(records);
    }
}

/// A lightweight run observer recording wall time and stream counts.
/// Attach to an engine via `AtpgBuilder::observe`; read results from
/// the paired [`ProfileHandle`].
pub struct Profiler {
    started: Option<Instant>,
    data: Arc<Mutex<ProfileData>>,
}

impl Profiler {
    /// A profiler and the handle its results land in.
    pub fn new() -> (Profiler, ProfileHandle) {
        let handle = ProfileHandle::default();
        (
            Profiler {
                started: None,
                data: handle.0.clone(),
            },
            handle,
        )
    }
}

impl Observer for Profiler {
    fn on_run_start(
        &mut self,
        _engine: &'static str,
        _circuit: &gdf_netlist::Circuit,
        total_faults: usize,
    ) {
        self.started = Some(Instant::now());
        self.data
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .total_faults = total_faults as u64;
    }

    fn on_fault(&mut self, record: &FaultRecord) {
        let mut data = self.data.lock().unwrap_or_else(|e| e.into_inner());
        data.decided += 1;
        if record.by_simulation {
            data.credited += 1;
        }
    }

    fn on_sequence(&mut self, _index: usize, _sequence: &gdf_core::TestSequence) {
        self.data
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .sequences += 1;
    }

    fn on_checkpoint(&mut self, _snapshot: &gdf_core::RunSnapshot<'_>) {
        self.data
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .checkpoints += 1;
    }

    fn on_run_end(&mut self, _report: &CircuitReport) {
        if let Some(started) = self.started {
            self.data.lock().unwrap_or_else(|e| e.into_inner()).wall_us =
                started.elapsed().as_micros() as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_sink_folds_spans_into_phase_histograms() {
        let registry = Registry::new();
        let sink = RegistrySink::new(registry.clone());
        sink.record("fill", Instant::now(), Duration::from_micros(10));
        sink.record("fsim", Instant::now(), Duration::from_micros(20));
        let text = registry.render();
        assert!(text.contains("gdf_engine_phase_seconds{phase=\"fill\",quantile=\"0.5\"}"));
        assert!(text.contains("gdf_engine_phase_seconds_count{phase=\"fsim\"} 1"));
    }

    #[test]
    fn profile_data_folds_phases_and_encodes() {
        let mut data = ProfileData::default();
        let now = Instant::now();
        data.add_phases(&[
            PhaseRecord {
                phase: "fill",
                started: now,
                duration: Duration::from_micros(5),
            },
            PhaseRecord {
                phase: "fill",
                started: now,
                duration: Duration::from_micros(7),
            },
        ]);
        assert_eq!(
            data.phases,
            vec![(
                "fill",
                PhaseStat {
                    count: 2,
                    total_us: 12
                }
            )]
        );
        let json = data.to_json();
        let fill = json
            .get("phases")
            .and_then(|p| p.get("fill"))
            .expect("fill");
        assert_eq!(fill.get("count").and_then(Json::as_u64), Some(2));
        assert_eq!(fill.get("total_us").and_then(Json::as_u64), Some(12));
    }
}
