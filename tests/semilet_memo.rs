//! The non-scan driver answers a repeated SEMILET input from its memo:
//! propagation outcomes by start state, initialization outcomes by target
//! list. A stored answer must be the one a new search would give, so the
//! memo may change no fault's outcome.
//!
//! Each case runs `DelayAtpg::target_delay` for every fault twice: through
//! one shared driver, from two threads that walk the list in interleaved
//! order (one forward over the even positions, one backward over the
//! odd), and through a fresh driver per fault, whose memo starts empty.
//! The outcomes must be equal fault by fault. A phase sink counts the
//! searches each side runs (the `propagate` and `initialize` spans open
//! only on a miss), so the test also shows that the shared driver reused
//! answers across faults.

use gdf::core::phase::{self, PhaseSink};
use gdf::core::{DelayAtpg, DelayAtpgConfig, FaultOutcome, ModelKind};
use gdf::netlist::{suite, DelayFault};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// Counts the SEMILET searches: one `propagate` or `initialize` span per
/// memo miss.
#[derive(Default)]
struct Searches {
    propagate: AtomicUsize,
    initialize: AtomicUsize,
}

impl Searches {
    fn total(&self) -> (usize, usize) {
        (
            self.propagate.load(Ordering::Relaxed),
            self.initialize.load(Ordering::Relaxed),
        )
    }
}

impl PhaseSink for Searches {
    fn record(&self, phase: &'static str, _started: Instant, _duration: Duration) {
        match phase {
            "propagate" => self.propagate.fetch_add(1, Ordering::Relaxed),
            "initialize" => self.initialize.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
    }
}

/// Targets `faults[positions]` through `driver`, timing into `sink`,
/// once every thread at `start` is ready.
fn target_all(
    driver: &DelayAtpg<'_>,
    faults: &[DelayFault],
    positions: impl Iterator<Item = usize>,
    sink: Arc<Searches>,
    start: &Barrier,
) -> Vec<(usize, FaultOutcome)> {
    let _scope = phase::scoped(sink);
    start.wait();
    positions
        .map(|i| (i, driver.target_delay(faults[i])))
        .collect()
}

fn check(name: &str, config: DelayAtpgConfig, take: usize) {
    let circuit = suite::by_name(name).expect("suite circuit");
    let faults: Vec<DelayFault> = config
        .universe
        .delay_faults(&circuit)
        .into_iter()
        .take(take)
        .collect();
    let n = faults.len();

    let shared = DelayAtpg::with_config(&circuit, config.clone());
    let shared_searches = Arc::new(Searches::default());
    let mut outcomes: Vec<Option<FaultOutcome>> = vec![None; n];
    let start = Barrier::new(2);
    thread::scope(|s| {
        let forward = s.spawn(|| {
            let evens = (0..n).step_by(2);
            target_all(&shared, &faults, evens, shared_searches.clone(), &start)
        });
        let backward = s.spawn(|| {
            let odds = (1..n).step_by(2).rev();
            target_all(&shared, &faults, odds, shared_searches.clone(), &start)
        });
        for half in [forward, backward] {
            for (i, outcome) in half.join().expect("target thread") {
                outcomes[i] = Some(outcome);
            }
        }
    });

    let fresh_searches = Arc::new(Searches::default());
    let _scope = phase::scoped(fresh_searches.clone());
    for (i, &fault) in faults.iter().enumerate() {
        let fresh = DelayAtpg::with_config(&circuit, config.clone()).target_delay(fault);
        assert_eq!(
            outcomes[i].as_ref(),
            Some(&fresh),
            "{name} {:?}: {} differs between the shared and a fresh driver",
            config.model,
            fault.describe(&circuit)
        );
    }

    let (shared_p, shared_i) = shared_searches.total();
    let (fresh_p, fresh_i) = fresh_searches.total();
    assert!(
        shared_p + shared_i < fresh_p + fresh_i,
        "{name}: the shared driver reused no answer \
         ({shared_p}+{shared_i} searches against {fresh_p}+{fresh_i})"
    );
}

#[test]
fn s27_robust_outcomes_match_fresh_drivers() {
    check("s27", DelayAtpgConfig::new(), usize::MAX);
}

#[test]
fn s27_transition_outcomes_match_fresh_drivers() {
    check(
        "s27",
        DelayAtpgConfig::new().with_model(ModelKind::Transition),
        usize::MAX,
    );
}

#[test]
fn s77_outcomes_match_fresh_drivers() {
    check("s77", DelayAtpgConfig::new(), usize::MAX);
}

#[test]
fn s208_syn_outcomes_match_fresh_drivers() {
    check("s208", DelayAtpgConfig::new(), 120);
}
