//! # gdf-serve — the ATPG job server
//!
//! Turns the deterministic, artifact-backed engine of `gdf_core` into a
//! network **service**: a dependency-free HTTP/1.1 server on
//! [`std::net::TcpListener`] (crates.io is unreachable, so the HTTP
//! layer is hand-rolled just like `gdf_core::json`) in front of a
//! bounded job queue and a fixed worker pool.
//!
//! * [`server::JobServer`] — listener + router + workers + crash
//!   recovery; see the module docs for the endpoint table.
//! * [`client::Client`] — the matching HTTP client (`gdf submit` /
//!   `status` / `fetch` speak through it).
//! * [`queue::JobQueue`], [`events::EventLog`], [`job`] — the
//!   scheduler's parts, each independently tested.
//!
//! The service inherits — and is tested to preserve — the workspace's
//! two core invariants:
//!
//! 1. **Determinism over the wire**: same submission (circuit, config,
//!    seed) ⇒ byte-identical canonical artifact, regardless of how many
//!    concurrent clients, workers, or restarts are involved.
//! 2. **Crash recovery**: every job checkpoints through
//!    [`gdf_core::session::Checkpointer`]; a killed-and-restarted server
//!    resumes every in-flight job to results byte-identical to an
//!    uninterrupted run.
//!
//! ```no_run
//! use gdf_serve::{Client, JobServer, ServeConfig};
//! use gdf_core::engine::{Backend, RunConfig};
//! use gdf_serve::server::submission_for_suite;
//! use std::time::Duration;
//!
//! let server = JobServer::start(ServeConfig::new("127.0.0.1:0", "/tmp/gdf-jobs"))?;
//! let client = Client::new(server.local_addr().to_string());
//! let body = submission_for_suite("suite:s27", &RunConfig::new(Backend::NonScan));
//! let id = client.submit(&body)?;
//! let done = client.wait(id, Duration::from_millis(50), None)?;
//! println!("{done}");
//! println!("{}", client.artifact(id)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;

pub mod client;
pub mod events;
pub mod http;
pub mod job;
pub mod queue;
pub mod server;

pub use client::Client;
pub use events::EventLog;
pub use http::HttpError;
pub use job::{Job, JobId, JobSpec, JobState, JobStatus, ReportSummary, ShardSpec};
pub use queue::{JobQueue, PushError};
pub use server::{
    decode_submission, submission_for_bench, submission_for_suite, submission_with_runtime,
    submission_with_shard, JobServer, ServeConfig,
};

/// Errors of the serve layer (server start, client calls).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Local I/O (bind, job directory, thread spawn).
    Io(String),
    /// Transport-level HTTP trouble.
    Http(HttpError),
    /// The server answered with an error status.
    Api {
        /// HTTP status code.
        status: u16,
        /// The server's `{"error": …}` message.
        message: String,
        /// The `Retry-After` header, in seconds, when the server sent
        /// one — a drain verdict on `503`, the wait hint on a tenant
        /// quota/rate `429`.
        retry_after: Option<u32>,
    },
    /// The peer spoke, but not the job API dialect.
    Protocol(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(m) => write!(f, "{m}"),
            ServeError::Http(e) => write!(f, "{e}"),
            ServeError::Api {
                status, message, ..
            } => write!(f, "server said {status}: {message}"),
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}
