//! # gdf — gate delay fault ATPG for non-scan sequential circuits
//!
//! A from-scratch Rust reproduction of *van Brakel, Gläser, Kerkhoff,
//! Vierhaus: "Gate Delay Fault Test Generation for Non-Scan Circuits",
//! DATE 1995*. This facade crate re-exports the whole workspace:
//!
//! * [`netlist`] — circuits, the ISCAS'89 `.bench` parser, the unified
//!   fault universe, SCOAP measures and the benchmark suite;
//! * [`algebra`] — the 8-valued robust delay algebra (paper Tables 1–2),
//!   the 5-valued static D-algebra and 3-valued logic;
//! * [`sim`] — good-machine simulation, FAUSIM and TDsim;
//! * [`tdgen`] — the combinational two-frame robust delay-fault generator;
//! * [`semilet`] — FOGBUSTER propagation / initialization and standalone
//!   sequential stuck-at ATPG;
//! * [`core`] — the **unified engine API**: one builder over the
//!   extended-FOGBUSTER driver, the enhanced-scan baseline and the
//!   sequential stuck-at backend, with streaming observation and
//!   deterministic fault-parallel orchestration — plus the **session
//!   layer** (`core::session`, `core::artifact`): persistent run
//!   artifacts, checkpoint/resume that is byte-identical to an
//!   uninterrupted run, resumable multi-circuit campaigns, standalone
//!   re-grading of saved pattern sets, and reverse-order greedy
//!   compaction of one run or a whole campaign (`gdf compact` writes one
//!   compacted document, verified by re-grading). The `gdf`
//!   binary (`gdf run` / `resume` / `grade` / `campaign` / `report`)
//!   drives all of it from the command line over `.bench` files and
//!   JSON artifacts;
//! * [`serve`] — the **job server**: a hand-rolled HTTP/1.1 service on
//!   `std::net` with a bounded job queue, a fixed worker pool,
//!   streaming progress events and checkpoint-backed crash recovery
//!   (`gdf serve`, with `gdf submit` / `status` / `fetch` / `cancel` as
//!   its remote controls);
//! * [`fleet`] — the **distributed campaign coordinator**: shards one
//!   campaign across N `gdf-serve` nodes by circuit and fault-universe
//!   range, with a persistent schema-versioned plan (`fleet.json`),
//!   health probing over `GET /metrics`, work stealing from dead or slow
//!   nodes, and a deterministic merge whose artifacts are byte-identical
//!   in canonical encoding to a single-node run (`gdf campaign --fleet`,
//!   `gdf fleet status`);
//! * [`store`] — the **content-addressed artifact store**: objects keyed
//!   by a 128-bit digest of their canonical encoding, refcounted named
//!   handles, mark-and-sweep `gc()`, and the **exact result cache**
//!   keyed by `(circuit digest, RunConfig digest)` that lets `gdf serve`
//!   answer duplicate submissions instantly and the fleet coordinator
//!   skip already-computed shards;
//! * [`chaos`] — **deterministic fault injection** for the persistence
//!   and socket layers: a seeded schedule drives torn writes, stale
//!   temp files, `ENOSPC`, partial reads (via the `core::io` artifact
//!   facade) and dropped/delayed/truncated/black-holed connections (via
//!   a TCP proxy), so the recovery guarantees are exercised over the
//!   whole failure space — see `tests/chaos_*.rs`. `gdf serve` also
//!   drains gracefully on `SIGTERM`: stop accepting, checkpoint running
//!   jobs, persist the queue, exit 0;
//! * [`obs`] — **observability**: the unified metrics registry
//!   (counters, gauges, log-bucketed histograms with exact quantiles,
//!   one Prometheus text encoder behind `GET /metrics`), digest-derived
//!   structured tracing propagated across nodes via `X-Gdf-Trace`
//!   (`gdf trace export --chrome` converts a job trace for
//!   chrome://tracing), engine profiling hooks (`core::phase`) feeding
//!   per-phase histograms and per-job `profile` blocks, and the
//!   `gdf top` / `gdf fleet top` live dashboards. Strictly a side
//!   channel: canonical artifact bytes are identical with it on or off;
//! * [`tenant`] — **multi-tenant admission control**: the
//!   schema-versioned `tenants.json` bearer-token registry with
//!   constant-time token comparison, per-tenant quotas (max queued, max
//!   running, requests/second via a hand-rolled token bucket), priority
//!   classes, and a weighted deficit round-robin scheduler with
//!   deterministic tie-breaks. `gdf serve --tenants FILE` turns it on;
//!   without a registry the server runs open, exactly as before. Over-
//!   quota submissions get `429 + Retry-After` (the tenant's problem),
//!   saturation keeps `503` (the server's problem), and per-tenant
//!   `gdf_tenant_*` metrics join `/metrics` and `gdf top`.
//!   `tests/tenant_quotas.rs` checks the auth gate, the quotas, the 2:1
//!   weighted fairness of a saturated server and byte-identical results
//!   under contention.
//!
//! ## Quickstart
//!
//! Every backend is constructed through `Atpg::builder` and driven
//! through the [`core::AtpgEngine`] trait:
//!
//! ```
//! use gdf::core::{Atpg, Backend};
//! use gdf::netlist::suite;
//!
//! let circuit = suite::s27();
//! let mut engine = Atpg::builder(&circuit)
//!     .backend(Backend::NonScan) // or EnhancedScan / StuckAt
//!     .seed(0x1995)
//!     .build();
//! let run = engine.run();
//! println!("{}", run.report.row);
//! assert!(run.report.row.tested > 0);
//! ```
//!
//! The builder also takes `.model(…)` (delay / transition / stuck),
//! `.sensitization(…)` (robust / non-robust), `.universe(…)`,
//! `.limits(…)` (all search budgets, paper defaults), `.observer(…)`
//! (streaming per-fault records, progress, cooperative cancellation),
//! `.time_budget(…)`, and `.parallelism(n)` — fault-level parallel
//! generation whose results are **identical to a serial run** for the
//! same seed:
//!
//! ```
//! use gdf::core::{Atpg, Backend};
//! use gdf::netlist::suite;
//!
//! let circuit = suite::s27();
//! let serial = Atpg::builder(&circuit).build().run();
//! let parallel = Atpg::builder(&circuit).parallelism(4).build().run();
//! assert_eq!(serial.records, parallel.records);
//! assert_eq!(serial.sequences, parallel.sequences);
//! ```
//!
//! Compatibility follows one policy (the "Compatibility policy" section
//! of `CHANGES.md`). Readers of persisted documents accept every version
//! ever written. A library entry point stays while code outside the
//! tests calls it, or while a test compares against it:
//! `core::DelayAtpg::new(&circuit).run()` is the serial non-scan run,
//! and with `DelayAtpgConfig::with_reference_fsim(true)` it is the one
//! whole run on the scalar reference simulator. Old spellings that were
//! only ever accepted on fresh input are retired: `--model robust` and
//! `"model": "robust"` are errors that point at the sensitization.

pub use gdf_algebra as algebra;
pub use gdf_chaos as chaos;
pub use gdf_core as core;
pub use gdf_fleet as fleet;
pub use gdf_netlist as netlist;
pub use gdf_obs as obs;
pub use gdf_semilet as semilet;
pub use gdf_serve as serve;
pub use gdf_sim as sim;
pub use gdf_store as store;
pub use gdf_tdgen as tdgen;
pub use gdf_tenant as tenant;
