//! The proxies' one threading pattern: OpenMP `schedule(static)` over
//! neutral's scheduler.
//!
//! A kernel cuts its index space into contiguous blocks of
//! `n.div_ceil(threads)` items and runs one block per worker of
//! [`parallel_for_owned`]. Output arrays are split with `chunks_mut`, so no
//! block can touch another's elements. A single block runs inline on the
//! caller, which makes `threads = 1` the serial path. Reductions return
//! their per-block partials in block order, so a result depends on the
//! thread count but never on which worker took which block.

use neutral_core::scheduler::{parallel_for_owned, Schedule};
use std::ops::Range;

/// Items per block when `n` items are cut for `threads` workers.
pub(crate) fn block_len(n: usize, threads: usize) -> usize {
    assert!(threads > 0, "need at least one thread");
    n.div_ceil(threads).max(1)
}

/// Run `body(block, &mut blocks[block])` once per block, one worker per
/// block.
pub(crate) fn run_blocks<B: Send>(blocks: &mut [B], body: impl Fn(usize, &mut B) + Sync) {
    parallel_for_owned(
        blocks.len().max(1),
        Schedule::Static { chunk: None },
        blocks,
        body,
    );
}

/// `partial(range)` for each block of `0..n`, in block order.
pub(crate) fn map_blocks<R: Send + Default + Clone>(
    n: usize,
    threads: usize,
    partial: impl Fn(Range<usize>) -> R + Sync,
) -> Vec<R> {
    let per = block_len(n, threads);
    let mut partials = vec![R::default(); n.div_ceil(per)];
    run_blocks(&mut partials, |b, out| {
        *out = partial(b * per..((b + 1) * per).min(n));
    });
    partials
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_static_schedule_split() {
        // The split of OpenMP `schedule(static)` without a chunk size:
        // equal blocks of ⌈n / threads⌉, the last one short.
        let ranges = map_blocks(10, 4, |r| (r.start, r.end));
        assert_eq!(ranges, [(0, 3), (3, 6), (6, 9), (9, 10)]);
        // More threads than items: one item per block, no empty blocks.
        assert_eq!(map_blocks(3, 7, |r| r.len()), [1, 1, 1]);
        assert_eq!(map_blocks(5, 1, |r| r.len()), [5]);
    }
}
