//! The phase-timing facade — the engine's narrow seam for profiling,
//! modeled on the [`crate::io`] artifact-I/O facade.
//!
//! Hot paths in the orchestrator and the fault-simulation driver mark
//! their stages (`generate`, `propagate`, `initialize`, `credit`,
//! `fill`, `fsim`, `checkpoint`, …)
//! by opening a [`PhaseSpan`]. With no sink in effect — the default —
//! [`start`] is one thread-local read and the span is inert: no clock
//! read, no allocation, nothing. An observability layer receives
//! `(phase, start, duration)` triples through a [`PhaseSink`], which it
//! folds into histograms and per-job traces.
//!
//! [`scoped`] routes one thread's spans to a sink until its guard
//! drops; there is no process-global sink. This is how `gdf-serve`
//! gives every in-process server, and every job, its own timings, and
//! the orchestrator hands the spawning thread's [`current`] sink to the
//! generation threads it spawns.
//!
//! Nothing recorded here can reach a canonical artifact: the facade
//! only *observes* wall time, and every consumer keeps its output in
//! side-channel documents (`/metrics`, `traces/`). The determinism
//! invariants (serial ≡ parallel ≡ resumed ≡ served ≡ fleet) hold with
//! any sink installed.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Receiver of phase timings. Implementations must be cheap and
/// panic-free: they run inside the engine's merge loop.
pub trait PhaseSink: Send + Sync {
    /// One completed phase: its name, when it started, how long it ran.
    fn record(&self, phase: &'static str, started: Instant, duration: Duration);
}

thread_local! {
    /// This thread's sink from [`scoped`].
    static SCOPED: RefCell<Option<Arc<dyn PhaseSink>>> = const { RefCell::new(None) };
}

/// Whether a sink is in effect on this thread.
pub fn enabled() -> bool {
    SCOPED.with(|s| s.borrow().is_some())
}

/// The sink this thread's spans record to: its [`scoped`] sink. A
/// thread that spawns workers hands this to [`scoped`] in each of them,
/// so their spans land where its own do.
pub fn current() -> Option<Arc<dyn PhaseSink>> {
    SCOPED.with(|s| s.borrow().clone())
}

/// Routes this thread's spans to `sink` until the returned guard drops,
/// which restores the thread's previous scoped sink. Several in-process
/// servers each scope their own sink on their own threads, so none of
/// them sees another's timings.
pub fn scoped(sink: Arc<dyn PhaseSink>) -> ScopedSink {
    ScopedSink {
        previous: SCOPED.with(|s| s.replace(Some(sink))),
        _thread_bound: PhantomData,
    }
}

/// Guard returned by [`scoped`]. It restores a thread-local, so it
/// cannot leave its thread.
#[must_use = "the sink is unscoped when the guard drops; binding it to `_` drops immediately"]
pub struct ScopedSink {
    previous: Option<Arc<dyn PhaseSink>>,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for ScopedSink {
    fn drop(&mut self) {
        let previous = self.previous.take();
        SCOPED.with(|s| *s.borrow_mut() = previous);
    }
}

/// An in-flight phase measurement; records to the thread's
/// [`current`] sink on drop. Inert (no clock was even read) when no
/// sink is in effect.
#[must_use = "the span records on drop; binding it to `_` drops immediately"]
pub struct PhaseSpan {
    phase: &'static str,
    started: Option<Instant>,
}

/// Opens a span over the phase named `phase`.
#[inline]
pub fn start(phase: &'static str) -> PhaseSpan {
    PhaseSpan {
        phase,
        started: enabled().then(Instant::now),
    }
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        let Some(started) = self.started else {
            return;
        };
        if let Some(sink) = current() {
            sink.record(self.phase, started, started.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    struct Collect(Mutex<Vec<(&'static str, Duration)>>);

    impl PhaseSink for Collect {
        fn record(&self, phase: &'static str, _started: Instant, duration: Duration) {
            self.0
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((phase, duration));
        }
    }

    #[test]
    fn spans_are_inert_without_a_sink_and_record_with_one() {
        {
            let span = start("idle");
            assert!(span.started.is_none(), "no clock read when disabled");
        }
        let sink = Arc::new(Collect(Mutex::new(Vec::new())));
        {
            let _scope = scoped(sink.clone());
            let _span = start("fill");
        }
        {
            let _span = start("after");
        }
        let got = sink.0.lock().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, "fill");
    }

    #[test]
    fn scoped_sinks_keep_each_threads_spans_apart() {
        let sinks: Vec<Arc<Collect>> = (0..2)
            .map(|_| Arc::new(Collect(Mutex::new(Vec::new()))))
            .collect();
        std::thread::scope(|s| {
            for (sink, phase) in sinks.iter().zip(["left", "right"]) {
                s.spawn(move || {
                    let _scope = scoped(sink.clone());
                    for _ in 0..50 {
                        let _span = start(phase);
                    }
                });
            }
        });
        for (sink, phase) in sinks.iter().zip(["left", "right"]) {
            let got = sink.0.lock().unwrap();
            assert_eq!(got.len(), 50);
            assert!(got.iter().all(|(p, _)| *p == phase));
        }
        // Nesting restores the outer sink; the last guard unscopes.
        let outer = Arc::new(Collect(Mutex::new(Vec::new())));
        let inner = Arc::new(Collect(Mutex::new(Vec::new())));
        std::thread::spawn({
            let (outer, inner) = (outer.clone(), inner.clone());
            move || {
                let _outer = scoped(outer);
                {
                    let _inner = scoped(inner);
                    let _span = start("inner");
                }
                let _span = start("outer");
            }
        })
        .join()
        .unwrap();
        assert_eq!(outer.0.lock().unwrap()[0].0, "outer");
        assert_eq!(inner.0.lock().unwrap().len(), 1);
        assert!(SCOPED.with(|s| s.borrow().is_none()));
    }
}
