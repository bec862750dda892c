//! `gdf-obs` — the unified observability layer: one metrics registry,
//! one trace format, one profiler, shared by every crate in the
//! workspace.
//!
//! Three pieces, all hand-rolled in the workspace's no-crates.io
//! discipline:
//!
//! - [`metrics`]: a [`Registry`] of counters, gauges, and log-bucketed
//!   [`Histogram`]s with exact p50/p90/p99 readout, behind the single
//!   Prometheus text-exposition encoder used by `GET /metrics`, the
//!   fleet coordinator, and the CLI dashboards.
//! - [`trace`]: digest-derived [`TraceId`] / [`SpanId`] identity (never
//!   wall-clock random), NDJSON trace documents, the `X-Gdf-Trace`
//!   propagation header, and chrome://tracing export.
//! - [`profile`]: the [`Profiler`] run observer, the [`RegistrySink`]
//!   bridging `gdf_core::phase` timings into histograms, and the
//!   [`PhaseRecord`]s behind per-job profiles and traces.
//!
//! Everything is a side channel: no canonical artifact byte depends on
//! anything this crate records, which is what keeps the determinism
//! invariants (serial ≡ parallel ≡ resumed ≡ served ≡ fleet) intact
//! with observability fully enabled.

pub mod metrics;
pub mod profile;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, Kind, Registry};
pub use profile::{
    PhaseRecord, PhaseStat, ProfileData, ProfileHandle, Profiler, RegistrySink, PHASE_HELP,
    PHASE_METRIC,
};
pub use trace::{
    chrome_trace, OpenSpan, SpanId, TraceCtx, TraceEvent, TraceId, Tracer, TRACE_HEADER,
};
