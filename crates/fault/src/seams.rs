//! Fault seams for the serving layer: faults injected *around* a running
//! decision service — through the trace sink it already emits into, or
//! the channel it already ships on — instead of through test-only
//! branches in its loop.

use bap_trace::{TraceEvent, TraceSink};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

/// A [`TraceSink`] that panics as soon as `crash` returns true for a
/// recorded event. Installed as a service's tracer, it unwinds the very
/// thread that emitted that event — a crash at an exact protocol point
/// instead of wherever queue timing puts it. The predicate sees every
/// event in emission order and may keep state across calls.
pub struct CrashSink<F> {
    crash: F,
}

impl<F: FnMut(&TraceEvent) -> bool + Send> CrashSink<F> {
    /// A sink that crashes its emitter at the first event `crash` accepts.
    pub fn new(crash: F) -> Self {
        CrashSink { crash }
    }
}

impl<F: FnMut(&TraceEvent) -> bool + Send> TraceSink for CrashSink<F> {
    fn record(&mut self, event: &TraceEvent) {
        if (self.crash)(event) {
            panic!(
                "injected crash at trace event {} ({})",
                event.seq,
                event.kind.label()
            );
        }
    }
}

/// A channel relay that forwards items unchanged until armed, then lets
/// a caller-supplied function corrupt the next item it accepts. Generic
/// over the item type, so this crate needs none of the service's types.
pub struct TamperRelay {
    armed: Arc<AtomicBool>,
}

impl TamperRelay {
    /// Spawn a relay thread that forwards every item sent on the returned
    /// sender to `downstream`, in order. Once [`TamperRelay::arm`]ed, each
    /// item first passes through `tamper`; the first call that returns
    /// true (it corrupted that item) disarms the relay again. The thread
    /// exits when either side hangs up.
    pub fn spawn<T, F>(downstream: mpsc::Sender<T>, mut tamper: F) -> (mpsc::Sender<T>, TamperRelay)
    where
        T: Send + 'static,
        F: FnMut(&mut T) -> bool + Send + 'static,
    {
        let (tx, rx) = mpsc::channel::<T>();
        let armed = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&armed);
        thread::Builder::new()
            .name("bap-tamper-relay".to_string())
            .spawn(move || {
                for mut item in rx {
                    if flag.load(Ordering::SeqCst) && tamper(&mut item) {
                        flag.store(false, Ordering::SeqCst);
                    }
                    if downstream.send(item).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn tamper relay");
        (tx, TamperRelay { armed })
    }

    /// Corrupt the next item `tamper` accepts.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bap_trace::{EventKind, Tracer};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn crash_sink_panics_at_the_first_matching_event_only() {
        let mut seen = 0;
        let tracer = Tracer::new(Box::new(CrashSink::new(move |e: &TraceEvent| {
            seen += 1;
            matches!(e.kind, EventKind::EpochDropped) && seen > 2
        })));
        tracer.emit(|| EventKind::EpochDropped);
        tracer.emit(|| EventKind::BankRestored { bank: 1 });
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            tracer.emit(|| EventKind::EpochDropped);
        }));
        assert!(crashed.is_err(), "the third event matched and must crash");
    }

    #[test]
    fn tamper_relay_corrupts_exactly_the_next_accepted_item() {
        let (out_tx, out_rx) = mpsc::channel::<i32>();
        // Only even items are corruptible: the armed relay skips 3.
        let (tx, relay) = TamperRelay::spawn(out_tx, |x: &mut i32| {
            let even = *x % 2 == 0;
            if even {
                *x = -*x;
            }
            even
        });
        tx.send(2).unwrap();
        assert_eq!(out_rx.recv().unwrap(), 2, "unarmed relays pass through");
        relay.arm();
        for x in [3, 4, 6] {
            tx.send(x).unwrap();
        }
        let got: Vec<i32> = (0..3).map(|_| out_rx.recv().unwrap()).collect();
        assert_eq!(got, vec![3, -4, 6]);
        drop(tx);
        assert!(out_rx.recv().is_err(), "the relay exits with its input");
    }
}
