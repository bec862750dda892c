//! The coordinator: drives a [`FleetPlan`] over live `gdf-serve` nodes.
//!
//! One [`Coordinator::step`] is a full control round — probe,
//! reconcile, steal, assign, merge — and [`Coordinator::run`] just
//! repeats rounds until every circuit is merged. The separation is what
//! the kill-and-restart tests lean on: a coordinator can die between
//! any two rounds, and [`Coordinator::resume`] continues from the
//! persisted plan plus the nodes' own job state.
//!
//! Determinism: the merge path is [`gdf_core::shard::merge_artifact`],
//! which replays the engine's deterministic merge (credit passes + the
//! single credit-RNG stream) over the harvested shard outcomes. *Which*
//! node computed a shard, in what order, with how many steals or
//! duplicated submissions — none of it can reach the merged bytes,
//! because shard outcomes are pure per-fault generation results.

use crate::plan::{FleetPlan, UnitState};
use crate::FleetError;
use gdf_core::artifact::RunArtifact;
use gdf_core::json::Json;
use gdf_core::session::CampaignReport;
use gdf_core::shard::{merge_artifact, ShardArtifact};
use gdf_netlist::Circuit;
use gdf_obs::TraceCtx;
use gdf_serve::server::{
    submission_for_bench, submission_for_suite, submission_with_runtime, submission_with_shard,
};
use gdf_serve::{Client, ServeError};
use gdf_store::{CacheKey, Store};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Consecutive failed probes before a node counts as dead.
const PROBE_TOLERANCE: u32 = 2;
/// Job-status failures (`failed` state on the node) before a unit is
/// abandoned instead of resubmitted.
const UNIT_RETRIES: u32 = 3;
/// Consecutive all-nodes-dead rounds before [`Coordinator::run`] gives
/// up.
const MAX_DEAD_ROUNDS: u32 = 600;

/// One node's scrape, as [`Coordinator::probe`] sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeHealth {
    /// Node address.
    pub addr: String,
    /// Whether the probe round reached it.
    pub alive: bool,
    /// `gdf_queue_depth` from `/metrics`, when parsable.
    pub queue_depth: Option<u64>,
    /// `gdf_jobs_running` from `/metrics`, when parsable.
    pub running: Option<u64>,
    /// `gdf_worker_utilization` from `/metrics`, when parsable.
    pub utilization: Option<f64>,
    /// `gdf_draining` from `/metrics`: the node took a `SIGTERM` and is
    /// winding down — assign it nothing, steal from it soon.
    pub draining: bool,
    /// `gdf_cache_hits_total` from `/metrics`, when the node exports it
    /// (pre-store servers don't).
    pub cache_hits: Option<u64>,
    /// `gdf_store_bytes` from `/metrics`, when the node exports it.
    pub store_bytes: Option<u64>,
}

/// Per-node accounting of a finished fleet campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStats {
    /// Node address.
    pub addr: String,
    /// Work units harvested from this node.
    pub units: usize,
    /// Faults those units covered.
    pub faults: usize,
}

/// What [`Coordinator::run`] returns: the merged campaign (identical to
/// a local [`gdf_core::session::Campaign`] run of the same spec) plus
/// the fleet-level accounting the bench records.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The merged per-circuit reports and totals.
    pub campaign: CampaignReport,
    /// Per-node harvest counts.
    pub nodes: Vec<NodeStats>,
    /// Total work units in the plan.
    pub units: usize,
    /// Units reassigned away from dead or slow nodes.
    pub stolen: usize,
}

/// The fleet coordinator; see the module docs.
pub struct Coordinator {
    plan: FleetPlan,
    dir: PathBuf,
    circuits: Vec<Circuit>,
    clients: Vec<Client>,
    alive: Vec<bool>,
    draining: Vec<bool>,
    probe_failures: Vec<u32>,
    submitted_at: Vec<Option<Instant>>,
    unit_failures: Vec<u32>,
    node_units: Vec<usize>,
    node_faults: Vec<usize>,
    stolen: usize,
    /// The shard-level result cache under `<dir>/store`. `None` only if
    /// the store directory cannot be created — the fleet then runs
    /// uncached rather than not at all.
    store: Option<Store>,
    /// Units completed from the cache instead of a node.
    cached_units: usize,
    /// The campaign's trace root, derived from the plan's name + config
    /// digest — stable across coordinator restarts, so a resumed fleet
    /// keeps correlating under the same trace id. Every shard
    /// submission carries a per-unit child of this context in
    /// `X-Gdf-Trace`.
    trace: TraceCtx,
    warnings: Vec<String>,
    poll: Duration,
    steal_after: Duration,
    verbose: bool,
    started: Instant,
}

impl Coordinator {
    /// Starts a fresh fleet in `dir`: writes `fleet.json` and the shard
    /// directory. Fails if a plan already exists (resume instead — a
    /// half-finished fleet must not be silently restarted from zero).
    pub fn create(dir: impl Into<PathBuf>, plan: FleetPlan) -> Result<Coordinator, FleetError> {
        let dir = dir.into();
        let path = Self::plan_path(&dir);
        if path.exists() {
            return Err(FleetError::Plan(format!(
                "{} already exists; resume it or choose another directory",
                path.display()
            )));
        }
        std::fs::create_dir_all(dir.join("shards"))
            .map_err(|e| FleetError::Io(format!("{}: {e}", dir.display())))?;
        plan.save(&path)?;
        Self::build(dir, plan)
    }

    /// Reopens the fleet persisted in `dir` and reconciles from there.
    pub fn resume(dir: impl Into<PathBuf>) -> Result<Coordinator, FleetError> {
        let dir = dir.into();
        let plan = FleetPlan::load(Self::plan_path(&dir))?;
        std::fs::create_dir_all(dir.join("shards"))
            .map_err(|e| FleetError::Io(format!("{}: {e}", dir.display())))?;
        Self::build(dir, plan)
    }

    fn build(dir: PathBuf, plan: FleetPlan) -> Result<Coordinator, FleetError> {
        let circuits = plan
            .circuits
            .iter()
            .map(|s| s.resolve().map_err(FleetError::Artifact))
            .collect::<Result<Vec<_>, _>>()?;
        let clients = plan
            .nodes
            .iter()
            .map(|addr| Client::new(addr.clone()).with_timeout(Duration::from_secs(30)))
            .collect();
        let nodes = plan.nodes.len();
        let units = plan.units.len();
        let mut warnings = Vec::new();
        let store = match Store::open(dir.join("store")) {
            Ok(store) => Some(store),
            Err(e) => {
                warnings.push(format!("shard cache unavailable: {e}"));
                None
            }
        };
        let trace = TraceCtx::root(&format!(
            "gdf-fleet:{}:{}",
            plan.name,
            gdf_core::digest::config_digest(&plan.config).hex()
        ));
        Ok(Coordinator {
            circuits,
            clients,
            alive: vec![true; nodes],
            draining: vec![false; nodes],
            probe_failures: vec![0; nodes],
            submitted_at: vec![None; units],
            unit_failures: vec![0; units],
            node_units: vec![0; nodes],
            node_faults: vec![0; nodes],
            stolen: 0,
            store,
            cached_units: 0,
            trace,
            warnings,
            poll: Duration::from_millis(300),
            steal_after: Duration::from_secs(60),
            verbose: false,
            started: Instant::now(),
            plan,
            dir,
        })
    }

    /// Replaces the round interval of [`Coordinator::run`].
    pub fn with_poll(mut self, poll: Duration) -> Self {
        self.poll = poll;
        self
    }

    /// Replaces the patience before a unit on a live-but-slow node is
    /// duplicated onto an idle one.
    pub fn with_steal_after(mut self, patience: Duration) -> Self {
        self.steal_after = patience;
        self
    }

    /// Enables per-round progress lines on stderr.
    pub fn with_verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    /// Attaches a tenant bearer token to every node client — what a
    /// fleet of multi-tenant nodes (`gdf serve --tenants`) requires.
    /// Held in memory only, never persisted into `fleet.json`: plans
    /// are shareable operational documents, secrets are not. A node's
    /// quota `429` retries on the next round like any failed submit.
    pub fn with_token(mut self, token: impl Into<String>) -> Self {
        let token = token.into();
        self.clients = self
            .clients
            .drain(..)
            .map(|c| c.with_token(token.clone()))
            .collect();
        self
    }

    /// The plan as the coordinator currently holds it.
    pub fn plan(&self) -> &FleetPlan {
        &self.plan
    }

    /// The campaign's trace context (every shard submission carries a
    /// per-unit child of it).
    pub fn trace(&self) -> TraceCtx {
        self.trace
    }

    /// Where the plan lives inside a fleet directory.
    pub fn plan_path(dir: &Path) -> PathBuf {
        dir.join("fleet.json")
    }

    fn shard_path(&self, unit: usize) -> PathBuf {
        self.dir.join("shards").join(format!("unit-{unit}.json"))
    }

    /// Store name of unit `k`'s shard: `(circuit digest, config digest)`
    /// plus the fault range, so two campaigns over the same circuit and
    /// config share shards whatever node computed them.
    fn unit_cache_name(&self, k: usize) -> String {
        let unit = &self.plan.units[k];
        CacheKey::new(&self.plan.circuits[unit.circuit], &self.plan.config)
            .shard_name(unit.lo, unit.hi)
    }

    /// Best-effort publication of a harvested shard to the shard cache.
    /// Cache misses on a later campaign only cost recomputation, so a
    /// store failure is a warning, never a unit failure.
    fn publish_shard(&mut self, k: usize, text: &str) {
        let name = self.unit_cache_name(k);
        if let Some(store) = &self.store {
            if let Err(e) = store.publish(&name, text) {
                self.warnings
                    .push(format!("shard cache publish failed: {e}"));
            }
        }
    }

    /// Looks unit `k` up in the shard cache. A hit must decode against
    /// the unit's circuit, cover exactly `[lo‥hi)` and be complete —
    /// anything else is treated as a miss, never an error.
    fn cached_shard(&self, k: usize) -> Option<String> {
        let store = self.store.as_ref()?;
        let unit = &self.plan.units[k];
        let text = store.get_named(&self.unit_cache_name(k)).ok().flatten()?;
        let shard = ShardArtifact::decode(&text, &self.circuits[unit.circuit]).ok()?;
        (shard.range() == (unit.lo, unit.hi)
            && shard.is_complete()
            && *shard.config() == self.plan.config)
            .then_some(text)
    }

    /// Where circuit `index`'s merged artifact lands — the same
    /// `<name>.run.json` layout a local campaign's `--dir` uses, so
    /// `gdf report --diff` compares fleet and local runs directly.
    pub fn artifact_path(&self, index: usize) -> PathBuf {
        self.dir
            .join(format!("{}.run.json", self.circuits[index].name()))
    }

    fn persist(&mut self) {
        if let Err(e) = self.plan.save(Self::plan_path(&self.dir)) {
            self.warnings.push(format!("plan save failed: {e}"));
        }
    }

    fn note(&mut self, line: String) {
        if self.verbose {
            eprintln!("[fleet] {line}");
        }
    }

    // -----------------------------------------------------------------
    // Probing
    // -----------------------------------------------------------------

    /// Scrapes every node's `/metrics` (via the client's deterministic
    /// retry/backoff), falling back to `/healthz` for peers that answer
    /// but do not expose metrics. Updates the internal alive set: a
    /// node is dead after `PROBE_TOLERANCE` consecutive failures and
    /// resurrects on the first successful probe.
    pub fn probe(&mut self) -> Vec<NodeHealth> {
        let mut out = Vec::with_capacity(self.plan.nodes.len());
        for (i, addr) in self.plan.nodes.clone().into_iter().enumerate() {
            let probe_client = self.clients[i]
                .clone()
                .with_retries(1)
                .with_timeout(Duration::from_secs(5));
            let metrics = probe_client.metrics();
            let reachable = metrics.is_ok() || probe_client.healthz().is_ok();
            if reachable {
                self.probe_failures[i] = 0;
                if !self.alive[i] {
                    self.note(format!("node {addr} is back"));
                }
                self.alive[i] = true;
            } else {
                self.probe_failures[i] = self.probe_failures[i].saturating_add(1);
                if self.probe_failures[i] >= PROBE_TOLERANCE && self.alive[i] {
                    self.alive[i] = false;
                    self.note(format!("node {addr} is unreachable"));
                }
            }
            let text = metrics.ok();
            let sample = |name: &str| -> Option<f64> {
                text.as_deref()?.lines().find_map(|line| {
                    let rest = line.strip_prefix(name)?;
                    rest.strip_prefix(' ')?.trim().parse().ok()
                })
            };
            let draining = sample("gdf_draining").map(|v| v > 0.5).unwrap_or(false);
            if draining && !self.draining[i] {
                self.note(format!("node {addr} is draining"));
            }
            self.draining[i] = draining;
            // The health row reports *this* probe's reachability; the
            // internal alive set stays debounced (PROBE_TOLERANCE) so
            // one dropped probe does not trigger a steal.
            out.push(NodeHealth {
                addr,
                alive: reachable,
                queue_depth: sample("gdf_queue_depth").map(|v| v as u64),
                running: sample("gdf_jobs_running").map(|v| v as u64),
                utilization: sample("gdf_worker_utilization"),
                draining,
                cache_hits: sample("gdf_cache_hits_total").map(|v| v as u64),
                store_bytes: sample("gdf_store_bytes").map(|v| v as u64),
            });
        }
        out
    }

    // -----------------------------------------------------------------
    // The control round
    // -----------------------------------------------------------------

    /// One full control round. Returns `true` once every unit is done
    /// *and* every circuit's merged artifact is on disk.
    pub fn step(&mut self) -> Result<bool, FleetError> {
        self.probe();
        self.reconcile();
        self.assign();
        self.merge_ready()?;
        Ok(self.plan.is_complete() && self.all_merged())
    }

    /// Repeats [`Coordinator::step`] every poll interval until the
    /// fleet converges, then reports. Errors out if every node stays
    /// dead for `MAX_DEAD_ROUNDS` consecutive rounds or a unit
    /// exhausts its retries with no node able to run it.
    pub fn run(&mut self) -> Result<FleetReport, FleetError> {
        let mut dead_rounds = 0u32;
        loop {
            let complete = self.step()?;
            if complete {
                return self.report();
            }
            if self.alive.iter().any(|a| *a) {
                dead_rounds = 0;
            } else {
                dead_rounds += 1;
                if dead_rounds >= MAX_DEAD_ROUNDS {
                    return Err(FleetError::Plan(format!(
                        "no node answered for {MAX_DEAD_ROUNDS} consecutive rounds"
                    )));
                }
            }
            if self
                .plan
                .units
                .iter()
                .any(|u| matches!(u.state, UnitState::Failed { .. }))
            {
                let failed: Vec<String> = self
                    .plan
                    .units
                    .iter()
                    .enumerate()
                    .filter(|(_, u)| matches!(u.state, UnitState::Failed { .. }))
                    .map(|(k, _)| self.plan.tag(k))
                    .collect();
                return Err(FleetError::Plan(format!(
                    "units failed beyond retry: {}",
                    failed.join(", ")
                )));
            }
            std::thread::sleep(self.poll);
        }
    }

    /// Queries every `submitted` unit's job on its node: harvests done
    /// shards, resubmits vanished/failed/cancelled jobs, steals from
    /// dead nodes, and duplicates units stuck on slow nodes onto idle
    /// ones.
    fn reconcile(&mut self) {
        for k in 0..self.plan.units.len() {
            let UnitState::Submitted { node, job } = self.plan.units[k].state.clone() else {
                continue;
            };
            let Some(n) = self.plan.nodes.iter().position(|a| *a == node) else {
                // Node left the plan (hand-edited fleet.json): retarget.
                self.make_pending(k, "its node is no longer in the plan");
                continue;
            };
            if !self.alive[n] {
                self.make_pending(k, "its node is unreachable");
                continue;
            }
            match self.clients[n].status(job) {
                Ok(status) => match status.get("state").and_then(Json::as_str).unwrap_or("") {
                    "done" => self.harvest(k, n, job),
                    "failed" => {
                        let error = status
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or("unknown")
                            .to_string();
                        self.unit_failures[k] += 1;
                        if self.unit_failures[k] >= UNIT_RETRIES {
                            let tag = self.plan.tag(k);
                            self.warnings
                                .push(format!("{tag} failed {UNIT_RETRIES}×: {error}"));
                            self.plan.units[k].state = UnitState::Failed { error };
                        } else {
                            self.make_pending(k, &format!("its job failed: {error}"));
                        }
                        self.persist();
                    }
                    "cancelled" => self.make_pending(k, "its job was cancelled"),
                    // Queued or running: steal onto an idle node if the
                    // unit has outlived the patience. The old job keeps
                    // running (best-effort cancel) — duplicates are
                    // safe, generation is pure. A draining node gets
                    // one poll interval of patience, not the full steal
                    // window: it will finish nothing new, and its drain
                    // checkpoint makes the re-run a resume elsewhere.
                    _ => {
                        let patience = if self.draining[n] {
                            self.poll
                        } else {
                            self.steal_after
                        };
                        let stuck = self.submitted_at[k].is_some_and(|t| t.elapsed() >= patience);
                        if stuck {
                            if self.draining[n] {
                                let _ = self.clients[n].delete(job);
                                self.make_pending(k, "its node is draining");
                            } else if let Some(idle) = self.idle_node(n) {
                                let _ = self.clients[n].delete(job);
                                self.stolen += 1;
                                let tag = self.plan.tag(k);
                                let to = self.plan.nodes[idle].clone();
                                self.note(format!("stealing {tag} from slow {node} to {to}"));
                                self.plan.units[k].state = UnitState::Pending;
                                self.submitted_at[k] = None;
                                self.persist();
                            }
                        }
                    }
                },
                Err(ServeError::Api { status: 404, .. }) => {
                    self.make_pending(k, "its job vanished from the node")
                }
                // Transient transport trouble: the probe decides
                // whether the node is dead; leave the unit alone.
                Err(_) => {}
            }
        }
    }

    fn make_pending(&mut self, k: usize, why: &str) {
        let tag = self.plan.tag(k);
        self.note(format!("requeueing {tag}: {why}"));
        self.stolen += 1;
        self.plan.units[k].state = UnitState::Pending;
        self.submitted_at[k] = None;
        self.persist();
    }

    /// A live, non-draining node with no in-flight unit, other than
    /// `not`, for slow steals. Deterministic: first such node in plan
    /// order.
    fn idle_node(&self, not: usize) -> Option<usize> {
        (0..self.plan.nodes.len())
            .find(|&n| n != not && self.alive[n] && !self.draining[n] && self.in_flight(n) == 0)
    }

    fn in_flight(&self, n: usize) -> usize {
        let addr = &self.plan.nodes[n];
        self.plan
            .units
            .iter()
            .filter(|u| matches!(&u.state, UnitState::Submitted { node, .. } if node == addr))
            .count()
    }

    /// Downloads and validates unit `k`'s shard from node `n`, stores
    /// it under `shards/`, and marks the unit done.
    fn harvest(&mut self, k: usize, n: usize, job: u64) {
        let circuit = self.plan.units[k].circuit;
        let tag = self.plan.tag(k);
        let result = self.clients[n]
            .artifact(job)
            .map_err(FleetError::Serve)
            .and_then(|text| {
                let shard = ShardArtifact::decode(&text, &self.circuits[circuit])?;
                if shard.range() != (self.plan.units[k].lo, self.plan.units[k].hi)
                    || !shard.is_complete()
                {
                    return Err(FleetError::Plan(format!(
                        "{tag}: node returned shard [{}‥{}), {} decided",
                        shard.range().0,
                        shard.range().1,
                        shard.decided()
                    )));
                }
                gdf_serve::job::write_atomic(&self.shard_path(k), &text)?;
                Ok(text)
            });
        match result {
            Ok(text) => {
                self.node_units[n] += 1;
                self.node_faults[n] += self.plan.units[k].len();
                self.publish_shard(k, &text);
                self.note(format!("harvested {tag} from {}", self.plan.nodes[n]));
                self.plan.units[k].state = UnitState::Done;
                self.submitted_at[k] = None;
                self.persist();
            }
            Err(e) => {
                // A bad or unreadable shard is a unit failure, not a
                // coordinator crash: requeue and let retries decide.
                self.unit_failures[k] += 1;
                self.make_pending(k, &format!("harvest failed: {e}"));
            }
        }
    }

    /// Submits every pending unit to the least-loaded live node.
    /// Empty units (tiny universes split wider than their fault count)
    /// complete locally — an empty shard needs no node.
    fn assign(&mut self) {
        for k in 0..self.plan.units.len() {
            if self.plan.units[k].state != UnitState::Pending {
                continue;
            }
            let unit = self.plan.units[k].clone();
            if unit.is_empty() {
                let circuit = &self.circuits[unit.circuit];
                let shard = ShardArtifact::new(
                    circuit,
                    Some(self.plan.circuits[unit.circuit].clone()),
                    self.plan.config,
                    unit.lo,
                    unit.hi,
                );
                match shard.and_then(|s| {
                    gdf_serve::job::write_atomic(&self.shard_path(k), &s.encode(circuit))
                }) {
                    Ok(()) => {
                        self.plan.units[k].state = UnitState::Done;
                        self.persist();
                    }
                    Err(e) => self.warnings.push(format!("empty unit {k}: {e}")),
                }
                continue;
            }
            // Shard cache: an identical unit (same circuit digest, same
            // config digest, same range) computed by any earlier
            // campaign completes without touching a node.
            if let Some(text) = self.cached_shard(k) {
                match gdf_serve::job::write_atomic(&self.shard_path(k), &text) {
                    Ok(()) => {
                        let tag = self.plan.tag(k);
                        self.note(format!("{tag} served from shard cache"));
                        self.cached_units += 1;
                        self.plan.units[k].state = UnitState::Done;
                        self.persist();
                        continue;
                    }
                    Err(e) => self.warnings.push(format!("shard cache restore: {e}")),
                }
            }
            // Least in-flight live node (draining nodes finish nothing
            // new); ties resolve in plan order, so assignment is
            // deterministic given the same alive/draining sets.
            let Some(n) = (0..self.plan.nodes.len())
                .filter(|&n| self.alive[n] && !self.draining[n])
                .min_by_key(|&n| (self.in_flight(n), n))
            else {
                return; // nobody alive; next round retries
            };
            let source = &self.plan.circuits[unit.circuit];
            let body = match &source.reference {
                Some(reference) => submission_for_suite(reference, &self.plan.config),
                None => submission_for_bench(&source.name, &source.bench, &self.plan.config),
            };
            let body = submission_with_shard(
                submission_with_runtime(
                    body,
                    self.plan.parallelism,
                    Some(self.plan.checkpoint_every),
                ),
                unit.lo,
                unit.hi,
                &self.plan.tag(k),
            );
            // Parent the shard job under the campaign trace: every node
            // derives its job trace from this context, so one campaign
            // correlates across the whole fleet.
            let unit_trace = self.trace.child(&self.plan.tag(k));
            match self.clients[n].submit_traced(&body, Some(&unit_trace)) {
                Ok(job) => {
                    let tag = self.plan.tag(k);
                    let addr = self.plan.nodes[n].clone();
                    self.note(format!("submitted {tag} to {addr} as job {job}"));
                    self.plan.units[k].state = UnitState::Submitted { node: addr, job };
                    self.submitted_at[k] = Some(Instant::now());
                    self.persist();
                }
                Err(e) => {
                    // Marked dead next probe round if it stays down; a
                    // full queue just waits for the next round.
                    self.note(format!("submit to {} failed: {e}", self.plan.nodes[n]));
                }
            }
        }
    }

    fn all_merged(&self) -> bool {
        (0..self.circuits.len()).all(|i| self.artifact_path(i).exists())
    }

    /// Merges every circuit whose units are all done and whose merged
    /// artifact is not on disk yet. The merge is pure replay —
    /// rerunning it (after a coordinator restart, say) rewrites the
    /// identical bytes.
    ///
    /// Robustness: a shard file that fails to load or validate (torn
    /// write, hand-truncation, a crash between rename and fsync) is
    /// *quarantined* — renamed to `<file>.corrupt` — and its unit goes
    /// back to `Pending` for recomputation; the merge retries on a later
    /// round. The merged artifact itself is written and then read back
    /// raw: if the bytes on disk differ from the encoding (a torn write
    /// slipped past the rename), the write retries.
    fn merge_ready(&mut self) -> Result<(), FleetError> {
        for index in 0..self.circuits.len() {
            let units: Vec<usize> = self.plan.units_of(index).collect();
            let ready = units
                .iter()
                .all(|&k| self.plan.units[k].state == UnitState::Done);
            if !ready || self.artifact_path(index).exists() {
                continue;
            }
            let loaded: Vec<Result<ShardArtifact, _>> = units
                .iter()
                .map(|&k| ShardArtifact::load(self.shard_path(k), &self.circuits[index]))
                .collect();
            let mut shards = Vec::with_capacity(units.len());
            let mut quarantined = false;
            for (&k, result) in units.iter().zip(loaded) {
                let expected = (self.plan.units[k].lo, self.plan.units[k].hi);
                match result {
                    Ok(shard) if shard.range() == expected && shard.is_complete() => {
                        shards.push(shard)
                    }
                    Ok(shard) => {
                        self.quarantine_shard(
                            k,
                            &format!(
                                "shard holds [{}‥{}), {} decided",
                                shard.range().0,
                                shard.range().1,
                                shard.decided()
                            ),
                        );
                        quarantined = true;
                    }
                    Err(e) => {
                        self.quarantine_shard(k, &e.to_string());
                        quarantined = true;
                    }
                }
            }
            if quarantined {
                // Recompute the quarantined units before merging.
                continue;
            }
            let refs: Vec<&ShardArtifact> = shards.iter().collect();
            let merged = merge_artifact(
                &self.circuits[index],
                Some(self.plan.circuits[index].clone()),
                self.plan.config,
                &refs,
            )?;
            self.save_verified(&self.artifact_path(index), &merged.encode())?;
            self.note(format!(
                "merged {} from {} shards",
                self.circuits[index].name(),
                refs.len()
            ));
        }
        Ok(())
    }

    /// Moves unit `k`'s shard file aside (`<file>.corrupt`) and requeues
    /// the unit — corrupt harvest state is recomputed, never trusted and
    /// never fatal.
    fn quarantine_shard(&mut self, k: usize, why: &str) {
        let path = self.shard_path(k);
        let aside = path.with_extension("json.corrupt");
        if std::fs::rename(&path, &aside).is_err() {
            // Rename can fail if the file vanished; removing is enough —
            // the point is that the next round does not reload it.
            let _ = std::fs::remove_file(&path);
        }
        let tag = self.plan.tag(k);
        self.warnings
            .push(format!("{tag}: quarantined corrupt shard: {why}"));
        self.make_pending(k, &format!("its shard was corrupt ({why})"));
    }

    /// Writes `text` to `path` and reads it back raw (straight
    /// `std::fs`, bypassing any installed I/O facade) until the bytes on
    /// disk match. Bounded retries: persistent disk trouble surfaces as
    /// a friendly [`FleetError::Io`], not an infinite loop.
    fn save_verified(&self, path: &Path, text: &str) -> Result<(), FleetError> {
        let mut last = String::from("never attempted");
        for _ in 0..8 {
            if let Err(e) = gdf_serve::job::write_atomic(path, text) {
                last = e.to_string();
                continue;
            }
            match std::fs::read_to_string(path) {
                Ok(on_disk) if on_disk == text => return Ok(()),
                Ok(_) => last = "bytes on disk differ from the encoding".into(),
                Err(e) => last = e.to_string(),
            }
        }
        Err(FleetError::Io(format!(
            "{}: could not persist a verified copy: {last}",
            path.display()
        )))
    }

    /// Loads a merged artifact with bounded retries. The file went
    /// through [`Coordinator::save_verified`], so a failing load is a
    /// transient read fault far more often than real on-disk damage;
    /// only a persistent failure surfaces (as a typed error).
    fn load_persistent(path: &Path) -> Result<RunArtifact, FleetError> {
        let mut last = None;
        for _ in 0..8 {
            match RunArtifact::load(path) {
                Ok(artifact) => return Ok(artifact),
                Err(e) => last = Some(e),
            }
        }
        Err(FleetError::Artifact(
            last.expect("at least one load attempt"),
        ))
    }

    // -----------------------------------------------------------------
    // Reporting
    // -----------------------------------------------------------------

    /// Builds the final [`FleetReport`] from the merged artifacts.
    pub fn report(&self) -> Result<FleetReport, FleetError> {
        let mut circuits = Vec::with_capacity(self.circuits.len());
        for index in 0..self.circuits.len() {
            let artifact = Self::load_persistent(&self.artifact_path(index))?;
            let run = artifact.to_run(&self.circuits[index])?;
            circuits.push(run.report);
        }
        let campaign = CampaignReport {
            circuits,
            resumed: 0,
            stopped: false,
            unsaved: Vec::new(),
            warnings: self.warnings.clone(),
            elapsed: self.started.elapsed(),
        };
        Ok(FleetReport {
            campaign,
            nodes: self
                .plan
                .nodes
                .iter()
                .enumerate()
                .map(|(n, addr)| NodeStats {
                    addr: addr.clone(),
                    units: self.node_units[n],
                    faults: self.node_faults[n],
                })
                .collect(),
            units: self.plan.units.len(),
            stolen: self.stolen,
        })
    }

    /// Renders a `gdf fleet status` table: per-node health, per-unit
    /// state. Probes the nodes once.
    pub fn render_status(&mut self) -> String {
        use std::fmt::Write;
        let health = self.probe();
        let mut out = String::new();
        let (pending, submitted, done, failed) = self.plan.state_counts();
        let _ = writeln!(
            out,
            "fleet `{}`: {} circuits, {} units ({pending} pending, \
             {submitted} submitted, {done} done, {failed} failed)",
            self.plan.name,
            self.plan.circuits.len(),
            self.plan.units.len(),
        );
        for h in &health {
            let _ = writeln!(
                out,
                "  node {:<24} {}{}",
                h.addr,
                if h.alive { "up" } else { "DOWN" },
                match (h.queue_depth, h.running, h.utilization) {
                    (Some(q), Some(r), Some(u)) => {
                        let mut line = format!("  queue={q} running={r} utilization={u:.2}");
                        if let Some(hits) = h.cache_hits {
                            let _ = write!(line, " cache_hits={hits}");
                        }
                        if let Some(bytes) = h.store_bytes {
                            let _ = write!(line, " store_bytes={bytes}");
                        }
                        line
                    }
                    _ => String::new(),
                }
            );
        }
        if self.cached_units > 0 {
            let _ = writeln!(out, "  shard cache: {} unit(s) reused", self.cached_units);
        }
        for (k, unit) in self.plan.units.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {:<24} {:<12} [{}‥{}) {}",
                self.plan.tag(k),
                self.circuits[unit.circuit].name(),
                unit.lo,
                unit.hi,
                match &unit.state {
                    UnitState::Pending => "pending".to_string(),
                    UnitState::Submitted { node, job } => format!("on {node} as job {job}"),
                    UnitState::Done => "done".to_string(),
                    UnitState::Failed { error } => format!("FAILED: {error}"),
                }
            );
        }
        out
    }
}
