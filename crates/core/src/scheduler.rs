//! An OpenMP-style loop scheduler over explicit threads.
//!
//! The paper studies `schedule(static)`, `schedule(dynamic, n)` and
//! `schedule(guided)` for the Over-Particles loop (§VI-C, Figure 4), and
//! sweeps thread counts beyond the physical core count to measure
//! hyperthreading and oversubscription effects (§VI-E, Figure 6). A
//! work-stealing pool has no equivalent of these policies, so this module
//! implements them directly: `n_threads` OS threads (`std::thread::scope`)
//! pulling index ranges from a policy-specific dispenser.
//!
//! The dispatch semantics mirror OpenMP:
//!
//! * [`Schedule::Static`] — iterations are divided up-front; with a chunk
//!   size, chunks are dealt round-robin; without, each thread gets one
//!   contiguous block.
//! * [`Schedule::Dynamic`] — threads grab fixed-size chunks from a shared
//!   counter as they go.
//! * [`Schedule::Guided`] — like dynamic but with chunk sizes proportional
//!   to the remaining work, decaying to a minimum.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Loop scheduling policy (OpenMP `schedule(...)` equivalent).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Divide iterations up-front. `chunk = None` gives each thread one
    /// contiguous block (OpenMP's default static); `chunk = Some(c)`
    /// deals `c`-sized chunks round-robin.
    Static {
        /// Optional round-robin chunk size.
        chunk: Option<usize>,
    },
    /// Threads take `chunk`-sized ranges from a shared counter.
    Dynamic {
        /// Chunk size per grab.
        chunk: usize,
    },
    /// Chunk sizes start at `remaining / (2 * n_threads)` and decay to
    /// `min_chunk`.
    Guided {
        /// Smallest chunk a thread may grab.
        min_chunk: usize,
    },
}

impl Schedule {
    /// This policy re-expressed at lane granularity: the lane-decomposed
    /// tally drivers schedule whole lanes (dozens of items), so chunk
    /// sizes expressed in particles collapse to single-lane grabs while
    /// the policy kind (static / dynamic / guided dispatch) is preserved.
    #[must_use]
    pub fn lane_granular(self) -> Schedule {
        match self {
            Schedule::Static { chunk: None } => self,
            Schedule::Static { chunk: Some(_) } => Schedule::Static { chunk: Some(1) },
            Schedule::Dynamic { .. } => Schedule::Dynamic { chunk: 1 },
            Schedule::Guided { .. } => Schedule::Guided { min_chunk: 1 },
        }
    }

    /// A human-readable label for figure output (`static`, `dynamic,64`, ...).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Schedule::Static { chunk: None } => "static".to_owned(),
            Schedule::Static { chunk: Some(c) } => format!("static,{c}"),
            Schedule::Dynamic { chunk } => format!("dynamic,{chunk}"),
            Schedule::Guided { min_chunk } => format!("guided,{min_chunk}"),
        }
    }
}

/// Run `body` over `0..n_items` on `states.len()` threads, each thread
/// owning one element of `states` (its private accumulator: counters,
/// tally slot, ...). `body(state, range)` is called repeatedly with
/// disjoint ranges whose union is exactly `0..n_items`.
pub fn parallel_for_stateful<S, F>(n_items: usize, schedule: Schedule, states: &mut [S], body: F)
where
    S: Send,
    F: Fn(&mut S, Range<usize>) + Sync,
{
    let n_threads = states.len();
    assert!(n_threads > 0, "need at least one thread state");
    if n_threads == 1 {
        // Run inline: no spawn overhead for the sequential case.
        serve_thread(
            0,
            n_threads,
            n_items,
            schedule,
            &Dispenser::new(),
            &mut states[0],
            &body,
        );
        return;
    }
    let dispenser = Dispenser::new();
    // A panicking worker makes `scope` panic here once every worker is joined.
    std::thread::scope(|scope| {
        for (t, state) in states.iter_mut().enumerate() {
            let body = &body;
            let dispenser = &dispenser;
            scope.spawn(move || {
                serve_thread(t, n_threads, n_items, schedule, dispenser, state, body);
            });
        }
    });
}

/// Run `body` once for each of `states.len()` work items ("lanes"),
/// scheduling whole items across `n_threads` workers under `schedule`.
///
/// Unlike [`parallel_for_stateful`], where state is bound to the *thread*,
/// here state is bound to the *item*: `body(item, &mut states[item])` is
/// invoked exactly once per item, by exactly one worker, so per-item
/// accumulators (tally lanes, per-lane counters) are filled identically
/// for any worker count and any schedule — this is what makes the
/// deterministic tally backends (`neutral_mesh::accum`) worker-count
/// invariant. Workers are real OS threads (`std::thread::scope`), so
/// chunked multi-worker runs execute genuinely concurrently against the
/// chosen tally backend.
pub fn parallel_for_owned<S, F>(n_threads: usize, schedule: Schedule, states: &mut [S], body: F)
where
    S: Send,
    F: Fn(usize, &mut S) + Sync,
{
    let mut workers = vec![(); n_threads];
    parallel_for_owned_with(&mut workers, schedule, states, |(), i, s| body(i, s));
}

/// [`parallel_for_owned`] on `workers.len()` workers, each of which also
/// owns one element of `workers` for as long as it runs: the value
/// `body(worker, item, &mut states[item])` reuses across the items that
/// worker happens to take (a scratch buffer — nothing an item's result
/// may depend on).
pub(crate) fn parallel_for_owned_with<W, S, F>(
    workers: &mut [W],
    schedule: Schedule,
    states: &mut [S],
    body: F,
) where
    W: Send,
    S: Send,
    F: Fn(&mut W, usize, &mut S) + Sync,
{
    let n_items = states.len();
    let shared = SharedSliceMut::new(states);
    parallel_for_stateful(n_items, schedule, workers, |worker, range| {
        // SAFETY: scheduler ranges are disjoint (see SharedSliceMut), and
        // each range is expanded to per-item calls by this worker only.
        let items = unsafe { shared.range_mut(range.clone()) };
        for (off, state) in items.iter_mut().enumerate() {
            body(worker, range.start + off, state);
        }
    });
}

/// Convenience wrapper when the only per-thread state needed is the thread
/// index: `body(thread_id, range)`.
pub fn parallel_for<F>(n_threads: usize, n_items: usize, schedule: Schedule, body: F)
where
    F: Fn(usize, Range<usize>) + Sync,
{
    let mut ids: Vec<usize> = (0..n_threads).collect();
    parallel_for_stateful(n_items, schedule, &mut ids, |id, range| body(*id, range));
}

/// Shared chunk dispenser for the dynamic/guided policies.
struct Dispenser {
    next: AtomicUsize,
}

impl Dispenser {
    fn new() -> Self {
        Self {
            next: AtomicUsize::new(0),
        }
    }

    /// Claim a dynamic chunk; returns `None` when the index space is
    /// exhausted.
    fn claim_dynamic(&self, n_items: usize, chunk: usize) -> Option<Range<usize>> {
        let start = self.next.fetch_add(chunk, Ordering::Relaxed);
        if start >= n_items {
            return None;
        }
        Some(start..(start + chunk).min(n_items))
    }

    /// Claim a guided chunk sized from the remaining work.
    fn claim_guided(
        &self,
        n_items: usize,
        n_threads: usize,
        min_chunk: usize,
    ) -> Option<Range<usize>> {
        loop {
            let start = self.next.load(Ordering::Relaxed);
            if start >= n_items {
                return None;
            }
            let remaining = n_items - start;
            let size = (remaining / (2 * n_threads)).max(min_chunk).min(remaining);
            match self.next.compare_exchange_weak(
                start,
                start + size,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(start..start + size),
                Err(_) => continue,
            }
        }
    }
}

fn serve_thread<S, F>(
    thread_id: usize,
    n_threads: usize,
    n_items: usize,
    schedule: Schedule,
    dispenser: &Dispenser,
    state: &mut S,
    body: &F,
) where
    F: Fn(&mut S, Range<usize>) + Sync,
{
    match schedule {
        Schedule::Static { chunk: None } => {
            // One contiguous block per thread, sized as evenly as possible.
            let base = n_items / n_threads;
            let extra = n_items % n_threads;
            let start = thread_id * base + thread_id.min(extra);
            let len = base + usize::from(thread_id < extra);
            if len > 0 {
                body(state, start..start + len);
            }
        }
        Schedule::Static { chunk: Some(c) } => {
            assert!(c > 0, "static chunk must be positive");
            let mut start = thread_id * c;
            while start < n_items {
                body(state, start..(start + c).min(n_items));
                start += n_threads * c;
            }
        }
        Schedule::Dynamic { chunk } => {
            assert!(chunk > 0, "dynamic chunk must be positive");
            while let Some(range) = dispenser.claim_dynamic(n_items, chunk) {
                body(state, range);
            }
        }
        Schedule::Guided { min_chunk } => {
            assert!(min_chunk > 0, "guided min chunk must be positive");
            while let Some(range) = dispenser.claim_guided(n_items, n_threads, min_chunk) {
                body(state, range);
            }
        }
    }
}

/// A mutable slice shareable across the scheduler's worker threads.
///
/// The schedulers above guarantee that each index in `0..len` is handed to
/// exactly one `body` invocation, so disjoint ranges may be mutated
/// concurrently. This wrapper makes that contract expressible: the *only*
/// unsafe code in the crate lives here.
pub struct SharedSliceMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: access is partitioned by the scheduler contract — each index is
// claimed by exactly one range, and ranges are disjoint. `T: Send` suffices
// because each element is only ever touched by one thread at a time.
unsafe impl<T: Send> Sync for SharedSliceMut<'_, T> {}
unsafe impl<T: Send> Send for SharedSliceMut<'_, T> {}

impl<'a, T> SharedSliceMut<'a, T> {
    /// Wrap a slice for scheduler-partitioned mutation.
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Length of the underlying slice.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reborrow `range` as a mutable subslice.
    ///
    /// # Safety
    /// The caller must guarantee `range` is within bounds and does not
    /// overlap any other concurrently-outstanding range — which is exactly
    /// the guarantee [`parallel_for_stateful`] provides for the ranges it
    /// passes to `body`.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn range_mut(&self, range: Range<usize>) -> &mut [T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.end - range.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn check_exact_coverage(n_threads: usize, n_items: usize, schedule: Schedule) {
        let hits: Vec<AtomicU32> = (0..n_items).map(|_| AtomicU32::new(0)).collect();
        parallel_for(n_threads, n_items, schedule, |_t, range| {
            for i in range {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(Ordering::Relaxed),
                1,
                "index {i} visited wrong number of times under {schedule:?} ({n_threads} threads)"
            );
        }
    }

    #[test]
    fn all_schedules_cover_every_index_exactly_once() {
        let schedules = [
            Schedule::Static { chunk: None },
            Schedule::Static { chunk: Some(1) },
            Schedule::Static { chunk: Some(7) },
            Schedule::Dynamic { chunk: 1 },
            Schedule::Dynamic { chunk: 13 },
            Schedule::Guided { min_chunk: 1 },
            Schedule::Guided { min_chunk: 8 },
        ];
        for &s in &schedules {
            for &t in &[1usize, 2, 3, 8] {
                for &n in &[0usize, 1, 7, 100, 1001] {
                    check_exact_coverage(t, n, s);
                }
            }
        }
    }

    #[test]
    fn static_blocks_are_contiguous_and_ordered() {
        let ranges: Vec<std::sync::Mutex<Vec<Range<usize>>>> =
            (0..4).map(|_| std::sync::Mutex::new(Vec::new())).collect();
        parallel_for(4, 103, Schedule::Static { chunk: None }, |t, r| {
            ranges[t].lock().unwrap().push(r);
        });
        let mut next = 0;
        for per_thread in &ranges {
            let rs = per_thread.lock().unwrap();
            assert_eq!(rs.len(), 1);
            assert_eq!(rs[0].start, next);
            next = rs[0].end;
        }
        assert_eq!(next, 103);
    }

    #[test]
    fn guided_chunks_decay() {
        let sizes = std::sync::Mutex::new(Vec::new());
        parallel_for(1, 1000, Schedule::Guided { min_chunk: 4 }, |_t, r| {
            sizes.lock().unwrap().push(r.len());
        });
        let sizes = sizes.into_inner().unwrap();
        assert!(sizes.len() > 2);
        assert!(sizes[0] > *sizes.last().unwrap());
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn stateful_accumulators_are_private() {
        let mut states = vec![0u64; 6];
        parallel_for_stateful(
            10_000,
            Schedule::Dynamic { chunk: 32 },
            &mut states,
            |s, r| {
                *s += r.len() as u64;
            },
        );
        assert_eq!(states.iter().sum::<u64>(), 10_000);
    }

    #[test]
    fn owned_items_visited_exactly_once_by_one_worker() {
        for &threads in &[1usize, 2, 3, 8] {
            for &n in &[0usize, 1, 7, 32] {
                for schedule in [
                    Schedule::Static { chunk: None },
                    Schedule::Static { chunk: Some(1) },
                    Schedule::Dynamic { chunk: 1 },
                    Schedule::Guided { min_chunk: 1 },
                ] {
                    let mut states = vec![0u32; n];
                    parallel_for_owned(threads, schedule, &mut states, |i, s| {
                        *s += 1 + i as u32;
                    });
                    for (i, s) in states.iter().enumerate() {
                        assert_eq!(*s, 1 + i as u32, "item {i}, {threads} threads");
                    }
                }
            }
        }
    }

    #[test]
    fn shared_slice_disjoint_writes() {
        let mut data = vec![0usize; 5000];
        let shared = SharedSliceMut::new(&mut data);
        parallel_for(4, 5000, Schedule::Dynamic { chunk: 64 }, |_t, range| {
            // SAFETY: ranges from the dispenser are disjoint.
            let part = unsafe { shared.range_mut(range.clone()) };
            for (off, v) in part.iter_mut().enumerate() {
                *v = range.start + off; // write the index
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn labels() {
        assert_eq!(Schedule::Static { chunk: None }.label(), "static");
        assert_eq!(Schedule::Static { chunk: Some(8) }.label(), "static,8");
        assert_eq!(Schedule::Dynamic { chunk: 64 }.label(), "dynamic,64");
        assert_eq!(Schedule::Guided { min_chunk: 2 }.label(), "guided,2");
    }
}
