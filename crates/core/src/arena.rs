//! Flat CSR arenas for coverage lists (the query hot path's data layout).
//!
//! Inc-Greedy and TOPS-Cluster both walk `(id, distance)` lists millions of
//! times per query: `TC(s_i)` / `SC(T_j)` in [`crate::coverage`] and the
//! `T̂C` rows of [`crate::query::ClusteredProvider`]. A
//! `Vec<Vec<(TrajId, f64)>>` layout would pay a 24-byte header plus a
//! separate heap allocation per list and interleave 4-byte ids with 8-byte
//! distances (16 bytes per pair after padding). The arenas here store every
//! list in three flat arrays instead:
//!
//! * `offsets` — CSR row starts (`row i` = `offsets[i]..offsets[i+1]`),
//! * `ids` — all ids back to back (structure-of-arrays),
//! * `dists` — all distances back to back,
//!
//! cutting the per-pair footprint from 16 to 12 bytes, eliminating the
//! per-list allocations entirely, and turning the greedy's inner loops
//! into linear scans over contiguous memory. Rows are exposed as a
//! [`PairSlice`] — a borrowed pair of parallel slices.
//!
//! Two variants exist:
//!
//! * [`PairArena`] — immutable, built once and then only read: every `TC`
//!   row set ([`crate::coverage::Rows`]), each round-1 block (behind
//!   [`crate::shard::RowView`]) and the inverted `SC` rows (supports
//!   sharded parallel construction via [`PairArena::concat`] and
//!   counting-sort inversion via [`PairArena::invert_threaded`]);
//! * [`RowArena`] — append-friendly (rows addressed by `(start, len)`),
//!   used for `CC(T_j)` in [`crate::cluster::ClusterInstance`], which the
//!   dynamic-update path (paper Sec. 6) mutates row-wise. Dead space left
//!   by removed rows is reclaimed by automatic compaction.

/// A borrowed arena row: parallel `ids`/`dists` slices of equal length.
///
/// The meaning of `ids` depends on the row's direction: trajectory ids for
/// `TC`-style rows, site/provider indices for `SC`-style rows, cluster
/// indices for `CC` rows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PairSlice<'a> {
    /// The ids of the row.
    pub ids: &'a [u32],
    /// The distances of the row, parallel to `ids`.
    pub dists: &'a [f64],
}

impl<'a> PairSlice<'a> {
    /// The empty row.
    pub const EMPTY: PairSlice<'static> = PairSlice {
        ids: &[],
        dists: &[],
    };

    /// Number of pairs in the row.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the row is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The `k`-th pair.
    #[inline]
    pub fn get(&self, k: usize) -> (u32, f64) {
        (self.ids[k], self.dists[k])
    }

    /// The first `len` pairs of the row.
    #[inline]
    pub fn prefix(self, len: usize) -> PairSlice<'a> {
        PairSlice {
            ids: &self.ids[..len],
            dists: &self.dists[..len],
        }
    }

    /// Length of the prefix with distances `≤ tau` of a row that ascends
    /// by distance — where a build at `tau` would end it. A row whose
    /// last pair is within `tau` is whole without a search.
    #[inline]
    pub fn len_within(&self, tau: f64) -> usize {
        match self.dists.last() {
            Some(&last) if last > tau => self.dists.partition_point(|&d| d <= tau),
            _ => self.len(),
        }
    }

    /// Iterates the row as `(id, dist)` pairs.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = (u32, f64)> + 'a {
        self.ids.iter().copied().zip(self.dists.iter().copied())
    }

    /// Materializes the row as a pair vector (tests / debugging).
    pub fn to_pairs(self) -> Vec<(u32, f64)> {
        self.iter().collect()
    }
}

/// Immutable CSR arena: `row_count` rows of `(id, dist)` pairs in three
/// flat arrays. See the module docs for the layout rationale.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PairArena {
    /// Row starts; `offsets.len() == row_count + 1`.
    offsets: Vec<u32>,
    ids: Vec<u32>,
    dists: Vec<f64>,
}

impl PairArena {
    /// An arena of `rows` empty rows.
    pub fn empty(rows: usize) -> Self {
        PairArena {
            offsets: vec![0; rows + 1],
            ids: Vec::new(),
            dists: Vec::new(),
        }
    }

    /// Builds an arena from materialized rows (the reference layout).
    pub fn from_rows(rows: &[Vec<(u32, f64)>]) -> Self {
        let mut b = PairArenaBuilder::with_capacity(rows.len(), rows.iter().map(Vec::len).sum());
        for row in rows {
            b.push_row(row.iter().copied());
        }
        b.finish()
    }

    /// Number of rows.
    #[inline]
    pub fn row_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total `(id, dist)` pairs across all rows.
    #[inline]
    pub fn pair_count(&self) -> usize {
        self.ids.len()
    }

    /// Row `i` as a borrowed slice pair.
    #[inline]
    pub fn row(&self, i: usize) -> PairSlice<'_> {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        PairSlice {
            ids: &self.ids[lo..hi],
            dists: &self.dists[lo..hi],
        }
    }

    /// Number of non-empty rows.
    pub fn nonempty_rows(&self) -> usize {
        self.offsets.windows(2).filter(|w| w[0] != w[1]).count()
    }

    /// Concatenates shard arenas row-wise, in order — the deterministic
    /// merge step of a sharded parallel build.
    pub fn concat(parts: Vec<PairArena>) -> Self {
        let rows: usize = parts.iter().map(PairArena::row_count).sum();
        let pairs: usize = parts.iter().map(PairArena::pair_count).sum();
        let mut out = PairArena {
            offsets: Vec::with_capacity(rows + 1),
            ids: Vec::with_capacity(pairs),
            dists: Vec::with_capacity(pairs),
        };
        out.offsets.push(0);
        for part in parts {
            let base = out.ids.len() as u64;
            for w in part.offsets.windows(2) {
                let end = base + u64::from(w[1]);
                out.offsets.push(checked_offset(end));
            }
            out.ids.extend_from_slice(&part.ids);
            out.dists.extend_from_slice(&part.dists);
        }
        out
    }

    /// Counting-sort inversion: treating row `r`'s ids as pointers into a
    /// universe of `id_bound` targets, produces the transposed arena whose
    /// row `j` lists `(r, dist)` for every source row `r` containing `j`,
    /// in ascending `r` — exactly the `SC` ordering the greedy relies on.
    /// Two passes (count, fill), no per-row vectors.
    ///
    /// The fill pass is sharded over `threads` workers (bit-identical
    /// output for every count). Each worker owns a contiguous range of
    /// target ids — and therefore a contiguous output segment — and scans
    /// the source pairs once, so parallelism costs no synchronization on
    /// the output.
    pub fn invert_threaded(&self, id_bound: usize, threads: usize) -> PairArena {
        // Pass 1: per-target counts → CSR offsets.
        let mut counts = vec![0u32; id_bound];
        for &id in &self.ids {
            counts[id as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(id_bound + 1);
        let mut acc = 0u64;
        offsets.push(0);
        for &c in &counts {
            acc += u64::from(c);
            offsets.push(checked_offset(acc));
        }
        let pairs = self.pair_count();
        let mut ids = vec![0u32; pairs];
        let mut dists = vec![0.0f64; pairs];

        let workers = threads.max(1).min(id_bound.max(1));
        if workers <= 1 || pairs < 4096 {
            // Sequential fill: one scan in row order keeps every output
            // row sorted by source row.
            let mut cursor: Vec<u32> = offsets[..id_bound].to_vec();
            for r in 0..self.row_count() {
                let row = self.row(r);
                for (id, d) in row.iter() {
                    let c = cursor[id as usize] as usize;
                    ids[c] = r as u32;
                    dists[c] = d;
                    cursor[id as usize] += 1;
                }
            }
        } else {
            // Split the target-id space into `workers` contiguous ranges of
            // roughly equal pair mass; each range owns a contiguous slice
            // of the output arrays.
            let bounds = balance_ranges(&offsets, workers);
            let mut id_parts: Vec<&mut [u32]> = Vec::with_capacity(workers);
            let mut dist_parts: Vec<&mut [f64]> = Vec::with_capacity(workers);
            let (mut id_rest, mut dist_rest) = (&mut ids[..], &mut dists[..]);
            for w in bounds.windows(2) {
                let seg = (offsets[w[1]] - offsets[w[0]]) as usize;
                let (a, b) = id_rest.split_at_mut(seg);
                let (c, d) = dist_rest.split_at_mut(seg);
                id_parts.push(a);
                dist_parts.push(c);
                id_rest = b;
                dist_rest = d;
            }
            std::thread::scope(|scope| {
                for ((w, seg_ids), seg_dists) in bounds.windows(2).zip(id_parts).zip(dist_parts) {
                    let (lo, hi) = (w[0], w[1]);
                    let src = &*self;
                    let offsets = &offsets;
                    scope.spawn(move || {
                        let base = offsets[lo];
                        let mut cursor: Vec<u32> =
                            offsets[lo..hi].iter().map(|&o| o - base).collect();
                        for r in 0..src.row_count() {
                            for (id, d) in src.row(r).iter() {
                                let id = id as usize;
                                if id < lo || id >= hi {
                                    continue;
                                }
                                let c = cursor[id - lo] as usize;
                                seg_ids[c] = r as u32;
                                seg_dists[c] = d;
                                cursor[id - lo] += 1;
                            }
                        }
                    });
                }
            });
        }

        PairArena {
            offsets,
            ids,
            dists,
        }
    }

    /// Approximate heap bytes of the three flat arrays.
    pub fn heap_size_bytes(&self) -> usize {
        self.offsets.capacity() * 4 + self.ids.capacity() * 4 + self.dists.capacity() * 8
    }

    /// Drops the capacity a growing build left beyond the pairs held, for
    /// arenas that are retained rather than consumed by one query.
    pub fn shrink_to_fit(&mut self) {
        self.offsets.shrink_to_fit();
        self.ids.shrink_to_fit();
        self.dists.shrink_to_fit();
    }
}

/// Incremental [`PairArena`] construction: push rows in order, finish.
#[derive(Debug, Default)]
pub struct PairArenaBuilder {
    offsets: Vec<u32>,
    ids: Vec<u32>,
    dists: Vec<f64>,
}

impl PairArenaBuilder {
    /// A builder expecting about `rows` rows and `pairs` total pairs.
    pub fn with_capacity(rows: usize, pairs: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        PairArenaBuilder {
            offsets,
            ids: Vec::with_capacity(pairs),
            dists: Vec::with_capacity(pairs),
        }
    }

    /// Appends the next row.
    pub fn push_row<I: IntoIterator<Item = (u32, f64)>>(&mut self, row: I) {
        for (id, d) in row {
            self.ids.push(id);
            self.dists.push(d);
        }
        self.offsets.push(checked_offset(self.ids.len() as u64));
    }

    /// Appends the next row from a borrowed row (two block copies).
    pub fn push_slice(&mut self, row: PairSlice<'_>) {
        self.ids.extend_from_slice(row.ids);
        self.dists.extend_from_slice(row.dists);
        self.offsets.push(checked_offset(self.ids.len() as u64));
    }

    /// Appends the next row as an id run and a parallel distance run of
    /// the same length (two bulk extends, e.g. straight off a wire).
    pub fn push_runs(
        &mut self,
        ids: impl IntoIterator<Item = u32>,
        dists: impl IntoIterator<Item = f64>,
    ) {
        self.ids.extend(ids);
        self.dists.extend(dists);
        assert_eq!(self.ids.len(), self.dists.len(), "runs of unequal length");
        self.offsets.push(checked_offset(self.ids.len() as u64));
    }

    /// Finalizes the arena.
    pub fn finish(self) -> PairArena {
        PairArena {
            offsets: self.offsets,
            ids: self.ids,
            dists: self.dists,
        }
    }
}

/// Append-friendly arena: rows are `(start, len)` windows into the flat
/// arrays, so a row can be rewritten (appended at the tail) or cleared
/// without shifting its neighbors. Designed for
/// [`crate::cluster::ClusterInstance::traj_clusters`], where dynamic
/// updates rewrite one trajectory's row at a time. The space abandoned by
/// rewritten/cleared rows is compacted away automatically once it exceeds
/// the live data (amortized O(1) per update).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RowArena {
    /// Per-row `(start, len)` windows.
    rows: Vec<(u32, u32)>,
    ids: Vec<u32>,
    dists: Vec<f64>,
    /// Total pairs across live rows (`ids.len() - live` is garbage).
    live: usize,
}

impl RowArena {
    /// An arena of `rows` empty rows.
    pub fn with_rows(rows: usize) -> Self {
        RowArena {
            rows: vec![(0, 0); rows],
            ids: Vec::new(),
            dists: Vec::new(),
            live: 0,
        }
    }

    /// Builds from materialized rows (contiguous, no garbage).
    pub fn from_rows(rows: &[Vec<(u32, f64)>]) -> Self {
        let pairs = rows.iter().map(Vec::len).sum();
        let mut out = RowArena {
            rows: Vec::with_capacity(rows.len()),
            ids: Vec::with_capacity(pairs),
            dists: Vec::with_capacity(pairs),
            live: pairs,
        };
        for row in rows {
            let start = checked_offset(out.ids.len() as u64);
            for &(id, d) in row {
                out.ids.push(id);
                out.dists.push(d);
            }
            out.rows.push((start, row.len() as u32));
        }
        out
    }

    /// Number of rows.
    #[inline]
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Row `i` as a borrowed slice pair.
    #[inline]
    pub fn row(&self, i: usize) -> PairSlice<'_> {
        let (start, len) = self.rows[i];
        let (lo, hi) = (start as usize, start as usize + len as usize);
        PairSlice {
            ids: &self.ids[lo..hi],
            dists: &self.dists[lo..hi],
        }
    }

    /// Iterates `(row_index, row)` over all rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = (usize, PairSlice<'_>)> {
        (0..self.rows.len()).map(move |i| (i, self.row(i)))
    }

    /// Total pairs across live rows.
    #[inline]
    pub fn live_pairs(&self) -> usize {
        self.live
    }

    /// Pairs occupying arena space but belonging to no live row.
    #[inline]
    pub fn dead_pairs(&self) -> usize {
        self.ids.len() - self.live
    }

    /// Grows the arena to at least `n` rows (new rows empty).
    pub fn ensure_rows(&mut self, n: usize) {
        if self.rows.len() < n {
            self.rows.resize(n, (0, 0));
        }
    }

    /// Rewrites row `i`. Shorter-or-equal rows are overwritten in place;
    /// longer ones are appended at the tail (the old window becomes
    /// garbage, reclaimed by the automatic compaction).
    pub fn set_row(&mut self, i: usize, pairs: &[(u32, f64)]) {
        let (start, old_len) = self.rows[i];
        self.live -= old_len as usize;
        if pairs.len() <= old_len as usize {
            let lo = start as usize;
            for (k, &(id, d)) in pairs.iter().enumerate() {
                self.ids[lo + k] = id;
                self.dists[lo + k] = d;
            }
            self.rows[i] = (start, pairs.len() as u32);
        } else {
            let start = checked_offset(self.ids.len() as u64);
            for &(id, d) in pairs {
                self.ids.push(id);
                self.dists.push(d);
            }
            self.rows[i] = (start, pairs.len() as u32);
        }
        self.live += pairs.len();
        self.maybe_compact();
    }

    /// Empties row `i` (its window becomes garbage).
    pub fn clear_row(&mut self, i: usize) {
        let (_, len) = self.rows[i];
        self.live -= len as usize;
        self.rows[i] = (0, 0);
        self.maybe_compact();
    }

    /// Rewrites the arrays with the live rows only, in row order.
    pub fn compact(&mut self) {
        let mut ids = Vec::with_capacity(self.live);
        let mut dists = Vec::with_capacity(self.live);
        for (start, len) in self.rows.iter_mut() {
            let (lo, hi) = (*start as usize, *start as usize + *len as usize);
            *start = checked_offset(ids.len() as u64);
            ids.extend_from_slice(&self.ids[lo..hi]);
            dists.extend_from_slice(&self.dists[lo..hi]);
        }
        self.ids = ids;
        self.dists = dists;
    }

    fn maybe_compact(&mut self) {
        // Amortized: garbage can reach at most live + 1024 before a
        // compaction (which costs O(live)) runs, so updates stay O(1).
        if self.dead_pairs() > self.live + 1024 {
            self.compact();
        }
    }

    /// Approximate heap bytes of the arena (windows + flat arrays).
    pub fn heap_size_bytes(&self) -> usize {
        self.rows.capacity() * 8 + self.ids.capacity() * 4 + self.dists.capacity() * 8
    }
}

/// Converts a cumulative pair count into a `u32` CSR offset, failing
/// loudly at the (city-scale-impossible) 4-billion-pair boundary instead
/// of silently wrapping.
#[inline]
fn checked_offset(v: u64) -> u32 {
    u32::try_from(v).expect("coverage arena exceeds u32 offsets (> 4.2e9 pairs)")
}

/// Splits the CSR `offsets` of `id_bound + 1` entries into `workers`
/// contiguous ranges of roughly equal pair mass. Returns `workers + 1`
/// boundaries starting at 0 and ending at `id_bound`.
fn balance_ranges(offsets: &[u32], workers: usize) -> Vec<usize> {
    let id_bound = offsets.len() - 1;
    let total = u64::from(offsets[id_bound]);
    let mut bounds = Vec::with_capacity(workers + 1);
    bounds.push(0);
    for w in 1..workers {
        let target = total * w as u64 / workers as u64;
        // First id whose cumulative offset reaches the target.
        let mut b = offsets.partition_point(|&o| u64::from(o) < target);
        b = b.clamp(*bounds.last().unwrap(), id_bound);
        bounds.push(b);
    }
    bounds.push(id_bound);
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_fixture() -> Vec<Vec<(u32, f64)>> {
        vec![
            vec![(2, 1.0), (0, 2.5)],
            vec![],
            vec![(1, 0.0), (2, 3.0), (3, 4.5)],
            vec![(0, 9.0)],
        ]
    }

    #[test]
    fn from_rows_roundtrips() {
        let rows = rows_fixture();
        let arena = PairArena::from_rows(&rows);
        assert_eq!(arena.row_count(), 4);
        assert_eq!(arena.pair_count(), 6);
        assert_eq!(arena.nonempty_rows(), 3);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(arena.row(i).to_pairs(), *row);
        }
        assert!(arena.row(1).is_empty());
        assert_eq!(arena.row(0).get(1), (0, 2.5));
        assert_eq!(arena.row(0).len(), 2);
    }

    #[test]
    fn concat_preserves_row_order() {
        let a = PairArena::from_rows(&[vec![(1, 1.0)], vec![(2, 2.0), (3, 3.0)]]);
        let b = PairArena::from_rows(&[vec![], vec![(4, 4.0)]]);
        let joined = PairArena::concat(vec![a, b]);
        assert_eq!(joined.row_count(), 4);
        assert_eq!(joined.row(0).to_pairs(), vec![(1, 1.0)]);
        assert_eq!(joined.row(1).to_pairs(), vec![(2, 2.0), (3, 3.0)]);
        assert!(joined.row(2).is_empty());
        assert_eq!(joined.row(3).to_pairs(), vec![(4, 4.0)]);
    }

    #[test]
    fn invert_transposes_with_source_order() {
        let arena = PairArena::from_rows(&rows_fixture());
        let inv = arena.invert_threaded(5, 1);
        assert_eq!(inv.row_count(), 5);
        assert_eq!(inv.pair_count(), arena.pair_count());
        // Target 0 appears in rows 0 and 3 — ascending source order.
        assert_eq!(inv.row(0).to_pairs(), vec![(0, 2.5), (3, 9.0)]);
        assert_eq!(inv.row(1).to_pairs(), vec![(2, 0.0)]);
        assert_eq!(inv.row(2).to_pairs(), vec![(0, 1.0), (2, 3.0)]);
        assert_eq!(inv.row(3).to_pairs(), vec![(2, 4.5)]);
        assert!(inv.row(4).is_empty());
    }

    #[test]
    fn threaded_invert_is_bit_identical() {
        // Large random-ish arena so the parallel path actually engages.
        let mut state = 0x1234_5678u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let rows: Vec<Vec<(u32, f64)>> = (0..300)
            .map(|_| {
                (0..(next() % 40))
                    .map(|_| (next() % 97, f64::from(next() % 1000) / 7.0))
                    .collect()
            })
            .collect();
        let arena = PairArena::from_rows(&rows);
        assert!(arena.pair_count() >= 4096, "fixture too small to engage");
        let seq = arena.invert_threaded(97, 1);
        for threads in [2, 4, 8] {
            let par = arena.invert_threaded(97, threads);
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn balance_ranges_covers_everything_monotonically() {
        let arena = PairArena::from_rows(&rows_fixture());
        let inv = arena.invert_threaded(5, 1);
        for workers in 1..=6 {
            let b = balance_ranges(&inv.offsets, workers);
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().unwrap(), 5);
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn row_arena_set_and_clear() {
        let mut arena = RowArena::from_rows(&rows_fixture());
        assert_eq!(arena.live_pairs(), 6);
        assert_eq!(arena.dead_pairs(), 0);
        // Shorter row: in-place overwrite, no garbage.
        arena.set_row(2, &[(7, 7.0)]);
        assert_eq!(arena.row(2).to_pairs(), vec![(7, 7.0)]);
        assert_eq!(arena.live_pairs(), 4);
        // Longer row: appended, old window orphaned.
        arena.set_row(0, &[(1, 1.0), (2, 2.0), (3, 3.0)]);
        assert_eq!(arena.row(0).to_pairs(), vec![(1, 1.0), (2, 2.0), (3, 3.0)]);
        assert_eq!(arena.live_pairs(), 5);
        assert!(arena.dead_pairs() > 0);
        arena.clear_row(3);
        assert!(arena.row(3).is_empty());
        assert_eq!(arena.live_pairs(), 4);
        // Untouched row survives all of the above.
        assert!(arena.row(1).is_empty());
    }

    #[test]
    fn row_arena_compaction_reclaims_garbage() {
        let mut arena = RowArena::with_rows(4);
        arena.set_row(0, &[(1, 1.0), (2, 2.0)]);
        arena.set_row(1, &[(3, 3.0)]);
        // Churn row 0 until automatic compaction fires.
        for round in 0..2000u32 {
            arena.set_row(0, &[(round, 0.5), (round + 1, 1.5), (round + 2, 2.5)]);
        }
        assert!(
            arena.dead_pairs() <= arena.live_pairs() + 1024,
            "garbage unbounded: {} dead vs {} live",
            arena.dead_pairs(),
            arena.live_pairs()
        );
        assert_eq!(arena.row(1).to_pairs(), vec![(3, 3.0)]);
        arena.compact();
        assert_eq!(arena.dead_pairs(), 0);
        assert_eq!(arena.row(1).to_pairs(), vec![(3, 3.0)]);
        assert_eq!(arena.row(0).len(), 3);
    }

    #[test]
    fn row_arena_grows_rows_on_demand() {
        let mut arena = RowArena::with_rows(1);
        arena.ensure_rows(3);
        assert_eq!(arena.row_count(), 3);
        arena.set_row(2, &[(9, 9.0)]);
        assert_eq!(arena.row(2).to_pairs(), vec![(9, 9.0)]);
        assert!(arena.heap_size_bytes() > 0);
    }

    #[test]
    fn empty_arenas_are_well_formed() {
        let arena = PairArena::empty(3);
        assert_eq!(arena.row_count(), 3);
        assert_eq!(arena.pair_count(), 0);
        assert!(arena.row(2).is_empty());
        let inv = arena.invert_threaded(2, 1);
        assert_eq!(inv.row_count(), 2);
        assert_eq!(PairSlice::EMPTY.len(), 0);
    }
}
