//! The one fan-out under every threaded build and the served publish: the
//! GDSP ball sweep, the neighbour balls, the `T̂C` rows, the `SC`
//! inversion and the shards of a sharded index all split a slice into
//! contiguous chunks, one per worker, and put the results back together in
//! item order; so does a publish, which applies a batch's shard slices and
//! patches the carried row sets through it (`netclus-service`'s
//! `ShardRouter::apply_updates` and `carry_rows`). The caller's thread
//! runs the first chunk, so one worker is a plain call. Each call site
//! keeps its own worker-count policy.

/// The length of every chunk but the last when [`chunked`] splits `len`
/// items over `workers` workers, so a caller can cut a parallel `&mut`
/// slice into the same runs.
pub fn chunk_len(len: usize, workers: usize) -> usize {
    len.div_ceil(workers.max(1)).max(1)
}

/// Runs `work(chunk, &mut states[i], first)` over the chunks of `items`
/// and returns the results in chunk order.
///
/// `states.len()` is the worker count `w`: chunk `i` is
/// `items.chunks(chunk_len(items.len(), w))[i]` (so there are fewer chunks
/// than states when items are few) and `first` is the index of its first
/// item in `items`. The caller's thread runs chunk 0 and one scoped thread
/// runs each other chunk; a single chunk spawns nothing. An empty `items`
/// is one empty chunk 0, so every call returns at least one result.
///
/// # Panics
/// If `states` is empty. A panic in any chunk is re-raised on the caller
/// with its own payload once the other chunks have finished.
pub fn chunked<T: Sync, S: Send, R: Send>(
    items: &[T],
    states: &mut [S],
    work: impl Fn(&[T], &mut S, usize) -> R + Sync,
) -> Vec<R> {
    let (head, rest) = states.split_first_mut().expect("a fan-out needs a worker");
    let size = chunk_len(items.len(), rest.len() + 1);
    let mut chunks = items.chunks(size);
    let first = chunks.next().unwrap_or_default();
    if items.len() <= size {
        return vec![work(first, head, 0)];
    }
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .zip(rest)
            .enumerate()
            .map(|(i, (chunk, state))| scope.spawn(move || work(chunk, state, (i + 1) * size)))
            .collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(work(first, head, 0));
        for h in handles {
            out.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::{self, ThreadId};

    /// Each chunk as `(first, items, thread)`.
    fn run(items: &[u32], workers: usize) -> Vec<(usize, Vec<u32>, ThreadId)> {
        let mut states = vec![(); workers];
        chunked(items, &mut states, |chunk, _, first| {
            (first, chunk.to_vec(), thread::current().id())
        })
    }

    #[test]
    fn chunks_come_back_in_item_order_with_their_first_index() {
        let caller = thread::current().id();
        for len in 0..=20u32 {
            let items: Vec<u32> = (0..len).collect();
            for workers in 1..=8 {
                let out = run(&items, workers);
                let size = items.len().div_ceil(workers).max(1);
                assert_eq!(size, chunk_len(items.len(), workers));
                assert_eq!(out.len(), items.len().div_ceil(size).max(1));
                assert_eq!(out[0].2, caller, "{len} items, {workers} workers");
                let mut next = 0;
                for (first, chunk, _) in &out {
                    assert_eq!(*first, next);
                    assert_eq!(chunk[..], items[next..next + chunk.len()]);
                    assert!(!chunk.is_empty() || len == 0);
                    next += chunk.len();
                }
                assert_eq!(next, items.len());
            }
        }
    }

    #[test]
    fn the_caller_runs_chunk_zero_and_one_state_spawns_nothing() {
        let caller = thread::current().id();
        let items: Vec<u32> = (0..10).collect();
        let out = run(&items, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], (0, items.clone(), caller));
        // Four workers: chunk 0 on the caller, three threads of their own.
        let out = run(&items, 4);
        assert_eq!(out[0].2, caller);
        let threads: HashSet<ThreadId> = out.iter().map(|c| c.2).collect();
        assert_eq!(threads.len(), 4);
    }

    #[test]
    fn more_states_than_items_leaves_the_extra_states_idle() {
        let mut states = vec![0usize; 8];
        let out = chunked(&[7u32, 8, 9], &mut states, |chunk, runs, first| {
            *runs += 1;
            first + chunk.len()
        });
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(states, vec![1, 1, 1, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn an_empty_input_is_one_empty_chunk_on_the_caller() {
        let caller = thread::current().id();
        for workers in 1..=4 {
            assert_eq!(run(&[], workers), vec![(0, Vec::new(), caller)]);
        }
    }

    #[test]
    fn no_sites_build_empty_rows_at_any_thread_count() {
        use crate::prelude::*;
        use netclus_roadnet::{NodeId, Point, RoadNetworkBuilder};
        use netclus_trajectory::{TrajId, Trajectory, TrajectorySet};

        let mut b = RoadNetworkBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(100.0, 0.0));
        b.add_two_way(NodeId(0), NodeId(1), 100.0).unwrap();
        let net = b.build().unwrap();
        let mut trajs = TrajectorySet::for_network(&net);
        trajs.add(Trajectory::new(vec![NodeId(0), NodeId(1)]));
        for threads in [1, 4] {
            let cov =
                CoverageIndex::build(&net, &trajs, &[], 500.0, DetourModel::RoundTrip, threads);
            assert_eq!((cov.site_count(), cov.pair_count()), (0, 0));
            assert!(cov.covering(TrajId(0)).is_empty());
            let config = NetClusConfig {
                threads,
                ..Default::default()
            };
            let index = NetClusIndex::build(&net, &trajs, &[], config);
            let mut scratch = ProviderScratch::default();
            let provider =
                ClusteredProvider::build_with(index.instance(0), 500.0, 1, threads, &mut scratch);
            assert_eq!((provider.site_count(), provider.pair_count()), (0, 0));
        }
    }

    #[test]
    fn a_panicking_chunk_reraises_its_panic() {
        for bad in [0u32, 5] {
            let caught = std::panic::catch_unwind(|| {
                let items: Vec<u32> = (0..8).collect();
                chunked(&items, &mut [(); 4], |chunk, _, _| {
                    if chunk.contains(&bad) {
                        panic!("chunk with {bad}");
                    }
                })
            });
            let payload = caught.expect_err("the panic reaches the caller");
            let msg = payload
                .downcast_ref::<String>()
                .expect("the worker's own payload");
            assert_eq!(*msg, format!("chunk with {bad}"));
        }
    }
}
