//! Offline shim of the `rayon` crate.
//!
//! The workspace only uses `slice.par_iter().map(f).collect()`, so this shim
//! implements exactly that shape on top of a lazily started persistent
//! worker pool. Workers pull the next unclaimed index from a shared atomic
//! counter (dynamic scheduling, so a few slow items — e.g. the long-running
//! workloads of a profiling batch — do not serialise behind a static chunk
//! split) and write each result into its input slot, preserving the ordered
//! semantics `rayon` guarantees for indexed parallel iterators.
//!
//! The pool is persistent for the same reason rayon's is: spawning a thread
//! costs tens of microseconds, and callers like the sharded partition
//! solver issue sub-100 µs maps on the hot epoch path. The calling thread
//! always participates in its own map, which also makes nested maps (a
//! `par_iter` inside a `par_iter` job) deadlock-free: the caller drains its
//! own work even when every pool worker is busy, and a pool worker that
//! later pops an already-finished map's job sees no unclaimed index and
//! drops it without touching the (long gone) caller stack.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// The traits user code imports.
pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParallelIterator};
}

/// `.par_iter()` on shared slices.
pub trait IntoParallelRefIterator<'a> {
    /// Element type yielded by the parallel iterator.
    type Item: Sync + 'a;
    /// Start a parallel iteration over `&self`.
    fn par_iter(&'a self) -> ParIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter(&'a self) -> ParIter<'a, T> {
        ParIter { items: self }
    }
}

/// A borrowed parallel iterator over a slice.
pub struct ParIter<'a, T> {
    items: &'a [T],
}

/// Minimal parallel-iterator interface (satisfied by [`ParIter`] through
/// its inherent methods; the trait exists so `use rayon::prelude::*` keeps
/// its usual meaning).
pub trait ParallelIterator {}
impl<T> ParallelIterator for ParIter<'_, T> {}
impl<I, F> ParallelIterator for ParMap<I, F> {}

impl<'a, T: Sync> ParIter<'a, T> {
    /// Map every element through `f` (evaluated in parallel at `collect`).
    pub fn map<U, F>(self, f: F) -> ParMap<Self, F>
    where
        U: Send,
        F: Fn(&'a T) -> U + Sync,
    {
        ParMap { base: self, f }
    }
}

/// A mapped parallel iterator.
pub struct ParMap<I, F> {
    base: I,
    f: F,
}

impl<'a, T: Sync, U: Send, F: Fn(&'a T) -> U + Sync> ParMap<ParIter<'a, T>, F> {
    /// Evaluate the map in parallel, preserving input order.
    pub fn collect<C: FromIterator<U>>(self) -> C {
        parallel_map(self.base.items, self.f).into_iter().collect()
    }
}

/// One in-flight `parallel_map` call, shared between the caller and any
/// pool workers that pick its job up. The item closure is type-erased to a
/// (fn pointer, context pointer) pair so the state itself is unsized-free
/// and can sit behind `Arc` in the pool's job queue.
///
/// Lifetime protocol (this is what makes the raw `ctx` pointer sound): the
/// caller keeps the context alive until `pending` reaches zero, and
/// `pending` only reaches zero after every item index has been claimed.
/// Any job that pops later claims `next >= len` and exits on the first
/// branch, before ever dereferencing `ctx`.
struct MapCall {
    /// Next unclaimed item index.
    next: AtomicUsize,
    /// Total items in the map.
    len: usize,
    /// Items not yet completed; the transition to zero wakes the caller.
    pending: AtomicUsize,
    /// Set when any item closure panicked; the caller re-raises.
    poisoned: AtomicBool,
    /// Completion flag + condvar the caller parks on.
    done: Mutex<bool>,
    cv: Condvar,
    /// Erased `Fn(usize)` that computes one item and stores its result.
    run_item: unsafe fn(*const (), usize),
    ctx: *const (),
}

// SAFETY: `ctx` is only dereferenced under the lifetime protocol documented
// on the struct; everything else is atomics and sync primitives.
unsafe impl Send for MapCall {}
unsafe impl Sync for MapCall {}

impl MapCall {
    /// Pull-loop executed by the caller and by any worker that picks the
    /// job up. Returns once no unclaimed items remain.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return;
            }
            // Catch panics so a poisoned closure cannot strand `pending`
            // above zero (caller deadlock) or unwind a pool worker away.
            if catch_unwind(AssertUnwindSafe(|| unsafe { (self.run_item)(self.ctx, i) })).is_err() {
                self.poisoned.store(true, Ordering::Relaxed);
            }
            // AcqRel: the final decrement acquires every earlier worker's
            // result writes before it publishes completion to the caller.
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let mut done = self.done.lock().expect("completion lock");
                *done = true;
                self.cv.notify_one();
            }
        }
    }
}

/// Monomorphised trampoline: recover the concrete closure from the erased
/// context pointer and run it for item `i`.
unsafe fn call_erased<G: Fn(usize)>(ctx: *const (), i: usize) {
    (*(ctx as *const G))(i)
}

/// Erase a borrowed closure to the (fn, ctx) pair stored in [`MapCall`].
fn erase<G: Fn(usize) + Sync>(g: &G) -> (unsafe fn(*const (), usize), *const ()) {
    (call_erased::<G>, g as *const G as *const ())
}

/// How long an idle worker spins watching the submit generation before
/// parking on the condvar, so that back-to-back maps (tight sweep loops)
/// find workers still hot and pay nanoseconds of pickup latency instead of
/// a futex wakeup. On a 2-vCPU KVM guest (Intel Xeon, AVX-512) the 65 536
/// `spin_loop` iterations take 0.88–1.3 ms (about 15 ns each), not
/// microseconds, so each isolated map burns about a millisecond of a
/// worker's CPU after it returns.
const IDLE_SPINS: u32 = 1 << 16;

struct Pool {
    /// The most recently submitted map. Workers that notice the generation
    /// move join whatever is here; since item claims go through the map's
    /// own atomic counter, late or surplus joiners claim nothing and leave
    /// without contending further. Two overlapping maps (nesting) simply
    /// means the older one keeps whatever helpers already joined plus its
    /// own caller — correctness never depends on helpers at all.
    slot: Mutex<Option<Arc<MapCall>>>,
    /// Helper seats left on the current map. Workers claim one with a CAS
    /// before touching the slot, so a 2-shard map costs one slot-lock
    /// acquisition, not one per pool thread.
    tickets: AtomicUsize,
    /// Bumped once per submit; idle workers spin on this cheap cacheline
    /// instead of hammering the slot lock.
    generation: AtomicUsize,
    /// Workers currently parked (lets `submit` skip the wakeup entirely on
    /// the hot path where everyone is still spinning).
    parked: AtomicUsize,
    /// Parking lot for workers whose spin budget ran out.
    idle: Mutex<()>,
    wake: Condvar,
    workers: usize,
}

impl Pool {
    fn submit(&self, call: &Arc<MapCall>, helpers: usize) {
        *self.slot.lock().expect("job slot lock") = Some(Arc::clone(call));
        self.tickets.store(helpers, Ordering::SeqCst);
        self.generation.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 {
            // Take the idle lock before notifying so a worker cannot
            // re-check the generation and park between our bump and our
            // notify.
            let _idle = self.idle.lock().expect("idle lock");
            self.wake.notify_all();
        }
    }

    /// Claim one helper seat on the current map, if any remain.
    fn claim(&self) -> Option<Arc<MapCall>> {
        let mut t = self.tickets.load(Ordering::Relaxed);
        while t > 0 {
            match self
                .tickets
                .compare_exchange_weak(t, t - 1, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => return self.slot.lock().expect("job slot lock").clone(),
                Err(now) => t = now,
            }
        }
        None
    }

    fn worker_loop(&self) {
        let mut seen = self.generation.load(Ordering::SeqCst);
        loop {
            // Spin watching the generation, then park.
            let mut spins = 0u32;
            loop {
                let now = self.generation.load(Ordering::SeqCst);
                if now != seen {
                    seen = now;
                    break;
                }
                spins += 1;
                if spins > IDLE_SPINS {
                    self.parked.fetch_add(1, Ordering::SeqCst);
                    let guard = self.idle.lock().expect("idle lock");
                    let now = self.generation.load(Ordering::SeqCst);
                    if now != seen {
                        self.parked.fetch_sub(1, Ordering::SeqCst);
                        seen = now;
                        break;
                    }
                    let guard = self.wake.wait(guard).expect("idle wait");
                    drop(guard);
                    self.parked.fetch_sub(1, Ordering::SeqCst);
                    seen = self.generation.load(Ordering::SeqCst);
                    break;
                }
                std::hint::spin_loop();
            }
            if let Some(call) = self.claim() {
                call.work();
            }
        }
    }
}

/// The lazily started global pool: one worker per spare hardware thread.
fn pool() -> &'static Pool {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
            .saturating_sub(1);
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            slot: Mutex::new(None),
            tickets: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            workers,
        }));
        for _ in 0..workers {
            std::thread::spawn(move || pool.worker_loop());
        }
        pool
    })
}

/// Order-preserving parallel map with dynamic scheduling on the shared
/// worker pool. The caller participates, so this never blocks waiting for
/// a free worker and nests safely.
fn parallel_map<'a, T: Sync, U: Send>(items: &'a [T], f: impl Fn(&'a T) -> U + Sync) -> Vec<U> {
    let len = items.len();
    if len <= 1 {
        return items.iter().map(f).collect();
    }
    let mut out: Vec<Option<U>> = (0..len).map(|_| None).collect();

    struct SlotPtr<U>(*mut Option<U>);
    impl<U> SlotPtr<U> {
        /// SAFETY: caller must hold the only claim on index `i`.
        unsafe fn write(&self, i: usize, value: U) {
            *self.0.add(i) = Some(value);
        }
    }
    // SAFETY: distinct indices are written by distinct claimants; the
    // pending counter publishes the writes back to the caller.
    unsafe impl<U: Send> Send for SlotPtr<U> {}
    unsafe impl<U: Send> Sync for SlotPtr<U> {}
    let slots = SlotPtr(out.as_mut_ptr());

    let run_one = move |i: usize| {
        let value = f(&items[i]);
        unsafe { slots.write(i, value) };
    };
    let (run_item, ctx) = erase(&run_one);
    let call = Arc::new(MapCall {
        next: AtomicUsize::new(0),
        len,
        pending: AtomicUsize::new(len),
        poisoned: AtomicBool::new(false),
        done: Mutex::new(false),
        cv: Condvar::new(),
        run_item,
        ctx,
    });

    let pool = pool();
    let helpers = pool.workers.min(len - 1);
    if helpers > 0 {
        pool.submit(&call, helpers);
    }

    call.work();
    // The caller usually claims the final item itself; when a helper holds
    // it, spin briefly before paying for a condvar park.
    let mut spins = 0u32;
    while call.pending.load(Ordering::Acquire) > 0 && spins < IDLE_SPINS {
        spins += 1;
        std::hint::spin_loop();
    }
    // pending == 0 with Acquire already publishes every result write; the
    // condvar is only for the slow path where a helper still holds items.
    if call.pending.load(Ordering::Acquire) > 0 {
        let mut done = call.done.lock().expect("completion lock");
        while !*done {
            done = call.cv.wait(done).expect("completion wait");
        }
    }

    if call.poisoned.load(Ordering::Relaxed) {
        panic!("parallel map worker panicked");
    }
    out.into_iter()
        .map(|slot| slot.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn preserves_order() {
        let input: Vec<u64> = (0..10_000).collect();
        let out: Vec<u64> = input.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        let out: Vec<u32> = empty.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [7u32];
        let out: Vec<u32> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn nested_maps_do_not_deadlock() {
        let outer: Vec<u32> = (0..16).collect();
        let out: Vec<u32> = outer
            .par_iter()
            .map(|&x| {
                let inner: Vec<u32> = (0..8).collect();
                let doubled: Vec<u32> = inner.par_iter().map(|&y| y * 2).collect();
                x + doubled.iter().sum::<u32>()
            })
            .collect();
        assert_eq!(out, (0..16).map(|x| x + 56).collect::<Vec<_>>());
    }

    #[test]
    fn many_small_maps_reuse_the_pool() {
        // The whole point of the persistent pool: thousands of tiny maps
        // must not cost a thread spawn each.
        for round in 0..2_000u64 {
            let input = [round, round + 1, round + 2, round + 3];
            let out: Vec<u64> = input.par_iter().map(|&x| x + 1).collect();
            assert_eq!(out, vec![round + 1, round + 2, round + 3, round + 4]);
        }
    }

    #[test]
    #[should_panic(expected = "parallel map worker panicked")]
    fn item_panics_propagate_to_the_caller() {
        let input: Vec<u32> = (0..64).collect();
        let _: Vec<u32> = input
            .par_iter()
            .map(|&x| if x == 33 { panic!("boom") } else { x })
            .collect();
    }
}
