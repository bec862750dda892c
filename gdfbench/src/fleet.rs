//! `fleet_campaign`: seeded non-scan campaigns over `s27`/`s42`/`s77`/
//! `s119`, each a `FleetPlan` split into units across two in-process
//! nodes with one worker each. The benchmark drives `Coordinator::step`
//! itself, so the serial credit replay in `shard::merge_artifact` runs
//! on this process's coordinator thread.
//!
//! Traced, it times plan creation, each control round and the poll
//! sleep between rounds, and re-runs `merge_artifact` on the harvested
//! shards.

use crate::{detail, digest, median, splitmix, Args, Calibration, EndToEnd, Report};
use gdf::core::artifact::{CircuitSource, RunArtifact};
use gdf::core::shard::{merge_artifact, ShardArtifact};
use gdf::core::{Atpg, Backend, RunConfig};
use gdf::fleet::{Coordinator, FleetPlan};
use gdf::netlist::{suite, Circuit};
use gdf::serve::{JobServer, ServeConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const CIRCUITS: [&str; 4] = ["s27", "s42", "s77", "s119"];
const NODES: usize = 2;
const UNITS_PER_CIRCUIT: usize = 2;
/// Sleep between two control rounds.
const POLL: Duration = Duration::from_millis(5);
/// One campaign in `CHECK_EVERY` is compared with local runs.
const CHECK_EVERY: usize = 4;
/// Campaigns per second of `--seconds`: one takes 0.27 to 0.4 s on a
/// 2-vCPU Xeon, so a run takes about `--seconds`.
const CAMPAIGNS_PER_SECOND: f64 = 2.25;

/// Timings of the coordinator's steps.
#[derive(Default)]
struct FleetSplit {
    plan_s: f64,
    step_calls: u64,
    step_s: f64,
    idle_s: f64,
    merge_s: f64,
}

/// One finished campaign.
struct Campaign {
    seed: u64,
    wall_ms: f64,
    faults: usize,
    /// Digest of each circuit's merged canonical bytes.
    digests: Vec<u64>,
}

struct Fleet {
    nodes: Vec<JobServer>,
    addrs: Vec<String>,
    circuits: Vec<Circuit>,
    sources: Vec<CircuitSource>,
    base: u64,
    dir: PathBuf,
}

impl Fleet {
    /// Starts the nodes and runs a warm-up job on each; returns the
    /// set-up seconds too.
    fn start(args: &Args, tag: &str) -> Result<(f64, Fleet), String> {
        let dir = args.work.join(tag);
        let t = Instant::now();
        let nodes = (0..NODES)
            .map(|i| {
                JobServer::start(
                    ServeConfig::new("127.0.0.1:0", dir.join(format!("node-{i}"))).with_workers(1),
                )
                .map_err(|e| format!("fleet node start: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        for node in &nodes {
            crate::serve::warm_up(&node.local_addr().to_string(), None)?;
        }
        let setup_s = t.elapsed().as_secs_f64();
        let circuits: Vec<Circuit> = CIRCUITS
            .iter()
            .map(|n| suite::by_name(n).expect("suite circuit"))
            .collect();
        let sources = circuits
            .iter()
            .zip(CIRCUITS)
            .map(|(c, n)| CircuitSource::suite(c, n))
            .collect();
        Ok((
            setup_s,
            Fleet {
                addrs: nodes.iter().map(|n| n.local_addr().to_string()).collect(),
                nodes,
                circuits,
                sources,
                base: args.mixed_seed(0xF1EE),
                dir,
            },
        ))
    }

    fn stop(self) {
        for node in self.nodes {
            node.shutdown();
        }
    }

    /// Runs campaign `k` from plan creation until every merged artifact
    /// is on disk.
    fn campaign(&self, k: usize, split: &mut FleetSplit, trace: bool) -> Result<Campaign, String> {
        let seed = splitmix(self.base ^ k as u64);
        let config = RunConfig::new(Backend::NonScan).with_seed(seed);
        let dir = self.dir.join(format!("campaign-{k}"));
        let start = Instant::now();
        let plan = FleetPlan::new(
            format!("bench-{k}"),
            self.addrs.clone(),
            config,
            self.sources.clone(),
            UNITS_PER_CIRCUIT,
        )
        .map_err(|e| format!("fleet plan: {e}"))?;
        split.plan_s += start.elapsed().as_secs_f64();
        let units = plan.units.clone();
        let faults = units.iter().map(|u| u.hi - u.lo).sum();
        let mut coordinator =
            Coordinator::create(&dir, plan).map_err(|e| format!("coordinator: {e}"))?;
        loop {
            let t = Instant::now();
            let done = coordinator.step().map_err(|e| format!("fleet step: {e}"))?;
            split.step_s += t.elapsed().as_secs_f64();
            split.step_calls += 1;
            if done {
                break;
            }
            let t = Instant::now();
            std::thread::sleep(POLL);
            split.idle_s += t.elapsed().as_secs_f64();
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;

        let mut digests = Vec::new();
        for (i, c) in self.circuits.iter().enumerate() {
            let merged = RunArtifact::load(coordinator.artifact_path(i))
                .map_err(|e| format!("merged artifact: {e}"))?;
            let bytes = merged.canonical_encode();
            digests.push(digest(bytes.as_bytes()));
            if trace {
                let shards = units
                    .iter()
                    .enumerate()
                    .filter(|(_, u)| u.circuit == i)
                    .map(|(j, _)| {
                        ShardArtifact::load(dir.join("shards").join(format!("unit-{j}.json")), c)
                    })
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("shard: {e}"))?;
                let refs: Vec<&ShardArtifact> = shards.iter().collect();
                let t = Instant::now();
                let again = merge_artifact(c, Some(self.sources[i].clone()), config, &refs)
                    .map_err(|e| format!("merge: {e}"))?;
                split.merge_s += t.elapsed().as_secs_f64();
                if again.canonical_encode() != bytes {
                    return Err(format!("{}: re-merged shards differ", c.name()));
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(Campaign {
            seed,
            wall_ms,
            faults,
            digests,
        })
    }

    /// Campaigns `first..first + count`, their times scaled to the
    /// reference host speed.
    fn drive(
        &self,
        first: usize,
        count: usize,
        split: &mut FleetSplit,
        trace: bool,
        report: &mut Report,
        cal: &mut Calibration,
    ) -> Vec<Campaign> {
        let mut done = Vec::new();
        for k in first..first + count {
            match cal.around(|| self.campaign(k, split, trace)) {
                (Ok(mut c), factor) => {
                    report.tally.op(true, String::new);
                    c.wall_ms *= factor;
                    done.push(c);
                }
                (Err(e), _) => report.tally.op(false, || e),
            }
        }
        done
    }

    /// Merged bytes of sampled campaigns equal a local run's.
    fn check(&self, campaigns: &[Campaign], report: &mut Report) {
        for (n, camp) in campaigns.iter().enumerate() {
            if !n.is_multiple_of(CHECK_EVERY) {
                continue;
            }
            let config = RunConfig::new(Backend::NonScan).with_seed(camp.seed);
            for (i, c) in self.circuits.iter().enumerate() {
                let run = Atpg::builder(c).seed(camp.seed).build().run();
                let local = RunArtifact::from_run(c, &run, config, Some(self.sources[i].clone()))
                    .canonical_encode();
                report
                    .tally
                    .check(digest(local.as_bytes()) == camp.digests[i], || {
                        format!(
                            "{} seed {:#x}: merged artifact differs from a local run",
                            c.name(),
                            camp.seed
                        )
                    });
            }
        }
    }
}

/// Campaign faults per second: the median of the campaigns' rates.
fn faults_per_s(campaigns: &[Campaign]) -> f64 {
    let rates: Vec<f64> = campaigns
        .iter()
        .map(|c| c.faults as f64 / (c.wall_ms / 1e3))
        .collect();
    median(&rates)
}

fn layer_metrics(split: &FleetSplit, report: &mut Report) {
    report.metric("fleet.plan_s", split.plan_s, "s");
    report.metric("fleet.step.calls", split.step_calls as f64, "count");
    report.metric("fleet.step_s", split.step_s, "s");
    report.metric("fleet.idle_s", split.idle_s, "s");
    report.metric("core.shard_merge_s", split.merge_s, "s");
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    // Node start-ups, each pair in fresh directories; the last pair runs
    // the campaigns.
    let mut cal = Calibration::default();
    let mut times = Vec::new();
    let mut fleet = None;
    for rep in 0..5 {
        let (started, factor) = cal.around(|| Fleet::start(args, &format!("fleet-{rep}")));
        let (t, f) = started?;
        times.push(t * factor);
        if let Some(old) = fleet.replace(f) {
            old.stop();
        }
    }
    let fleet = fleet.expect("at least one start-up");
    let mut split = FleetSplit::default();
    if args.trace {
        let half = (args.seconds * CAMPAIGNS_PER_SECOND / 2.0).ceil() as usize;
        let plain = fleet.drive(
            0,
            half,
            &mut FleetSplit::default(),
            false,
            &mut report,
            &mut cal,
        );
        let traced = fleet.drive(1 << 20, half, &mut split, true, &mut report, &mut cal);
        fleet.check(&traced, &mut report);
        let (netlist, _) = crate::table3::set_up(9, || {
            CIRCUITS
                .iter()
                .map(|n| suite::by_name(n).expect("suite circuit"))
                .collect()
        });
        fleet.stop();
        layer_metrics(&split, &mut report);
        netlist.report(&mut report);
        report.metric(
            "trace_overhead_pct",
            100.0 * (faults_per_s(&plain) / faults_per_s(&traced) - 1.0),
            "%",
        );
        return Ok(report);
    }
    let count = (args.seconds * CAMPAIGNS_PER_SECOND).ceil() as usize;
    let campaigns = fleet.drive(0, count, &mut split, false, &mut report, &mut cal);
    fleet.check(&campaigns, &mut report);
    fleet.stop();
    let rate = faults_per_s(&campaigns);
    let walls: Vec<f64> = campaigns.iter().map(|c| c.wall_ms).collect();
    detail(&format!(
        "fleet_campaign {} campaigns over {} nodes x 1 worker, {} units each: campaign_faults_per_s {rate:.1} 1/s, \
         median campaign {:.1} ms, {} control rounds; reference kernel {:.3} ms",
        campaigns.len(),
        NODES,
        CIRCUITS.len() * UNITS_PER_CIRCUIT,
        median(&walls),
        split.step_calls,
        cal.kernel_ms()
    ));
    report.end_to_end(EndToEnd {
        setup_s: median(&times),
        work_per_s: rate,
        latencies_ms: walls,
    });
    Ok(report)
}

/// The fleet layers on one campaign, for another workload's traced run
/// (that workload never reaches them).
pub fn probe(args: &Args, report: &mut Report) -> Result<(), String> {
    let (_, fleet) = Fleet::start(args, "fleet-probe")?;
    let mut split = FleetSplit::default();
    let campaigns = fleet.drive(0, 1, &mut split, true, report, &mut Calibration::default());
    fleet.check(&campaigns, report);
    fleet.stop();
    layer_metrics(&split, report);
    Ok(())
}
