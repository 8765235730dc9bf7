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
//! Every arena is a [`PairArena`]: built once and then read — every `TC`
//! row set ([`crate::coverage::Rows`]), each round-1 block (behind
//! [`crate::shard::RowView`]) and the inverted `SC` rows (sharded parallel
//! construction via [`PairArena::concat`], counting-sort inversion via
//! `PairArena::invert_threaded`). The one edit is [`PairArena::patch`],
//! which carries a cached `T̂C` row set across a trajectory-only publish
//! in place.

use crate::par;

/// A borrowed arena row: parallel `ids`/`dists` slices of equal length.
///
/// The meaning of `ids` depends on the row's direction: trajectory ids for
/// `TC`-style rows, site/provider indices for `SC`-style rows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PairSlice<'a> {
    /// The ids of the row.
    pub ids: &'a [u32],
    /// The distances of the row, parallel to `ids`.
    pub dists: &'a [f64],
}

impl<'a> PairSlice<'a> {
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
    pub(crate) fn len_within(&self, tau: f64) -> usize {
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

/// CSR arena: `row_count` rows of `(id, dist)` pairs in three flat
/// arrays. See the module docs for the layout rationale.
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
    pub(crate) fn from_rows(rows: &[Vec<(u32, f64)>]) -> Self {
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

    /// Concatenates shard arenas row-wise, in order — the deterministic
    /// merge step of a sharded parallel build. A lone part is moved, not
    /// copied, and keeps its capacity.
    pub fn concat(mut parts: Vec<PairArena>) -> Self {
        if parts.len() == 1 {
            return parts.pop().expect("one part");
        }
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
    /// The fill pass runs on up to `threads` workers, the caller's thread
    /// one of them (bit-identical output for every count; below 4096
    /// pairs the caller fills alone). Each worker owns a contiguous range
    /// of target ids — and therefore a contiguous output segment — and
    /// scans the source pairs once, so parallelism costs no
    /// synchronization on the output.
    pub(crate) fn invert_threaded(&self, id_bound: usize, threads: usize) -> PairArena {
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

        // Below 4096 pairs a spawn costs more than the fill it moves.
        let workers = if pairs < 4096 {
            1
        } else {
            threads.max(1).min(id_bound.max(1))
        };
        // Split the target-id space into `workers` contiguous ranges of
        // roughly equal pair mass; each range owns a contiguous segment of
        // the output arrays.
        let ranges: Vec<(usize, usize)> = balance_ranges(&offsets, workers)
            .windows(2)
            .map(|w| (w[0], w[1]))
            .collect();
        let mut segments = Vec::with_capacity(workers);
        let (mut id_rest, mut dist_rest) = (&mut ids[..], &mut dists[..]);
        for &(lo, hi) in &ranges {
            let seg = (offsets[hi] - offsets[lo]) as usize;
            let (a, b) = id_rest.split_at_mut(seg);
            let (c, d) = dist_rest.split_at_mut(seg);
            segments.push((a, c));
            id_rest = b;
            dist_rest = d;
        }
        // One scan in row order per range keeps every output row sorted by
        // source row.
        par::chunked(&ranges, &mut segments, |range, (seg_ids, seg_dists), _| {
            let (lo, hi) = range[0];
            let base = offsets[lo];
            let mut cursor: Vec<u32> = offsets[lo..hi].iter().map(|&o| o - base).collect();
            for r in 0..self.row_count() {
                for (id, d) in self.row(r).iter() {
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

        PairArena {
            offsets,
            ids,
            dists,
        }
    }

    /// Edits every row in place: drops the pairs whose id `dropped` flags
    /// (`dropped[id]`; an id past its end is kept, and an empty slice
    /// skips the pass), then merges row `r` of `inserts` into row `r`.
    /// Both runs must ascend by `key` and share no key; the merged row
    /// ascends by it too.
    ///
    /// Two passes, no second arena: a forward pass compacts the kept
    /// pairs towards the front, then the arrays grow by exactly the
    /// inserts and a backward pass merges each row from the last one to
    /// the first, so the write cursor never passes a pair not yet read.
    ///
    /// # Panics
    /// If `inserts` has another row count.
    pub fn patch<K: Ord>(
        &mut self,
        dropped: &[bool],
        inserts: &PairArena,
        key: impl Fn(u32, f64) -> K,
    ) {
        assert_eq!(
            inserts.row_count(),
            self.row_count(),
            "one insert row per row"
        );
        let rows = self.row_count();
        if !dropped.is_empty() {
            let is_dropped = |id: u32| dropped.get(id as usize).copied().unwrap_or(false);
            let (mut w, mut lo) = (0, 0);
            for r in 0..rows {
                let hi = self.offsets[r + 1] as usize;
                // The pairs before the row's first dropped id move as one
                // block; the rest are written one by one.
                let first = self.ids[lo..hi].iter().position(|&id| is_dropped(id));
                let keep = first.map_or(hi, |f| lo + f);
                if w != lo {
                    self.ids.copy_within(lo..keep, w);
                    self.dists.copy_within(lo..keep, w);
                }
                w += keep - lo;
                for k in keep..hi {
                    let id = self.ids[k];
                    self.ids[w] = id;
                    self.dists[w] = self.dists[k];
                    w += usize::from(!is_dropped(id));
                }
                lo = hi;
                self.offsets[r + 1] = checked_offset(w as u64);
            }
            self.ids.truncate(w);
            self.dists.truncate(w);
        }

        let added = inserts.pair_count();
        if added == 0 {
            return;
        }
        let len = self.ids.len();
        self.ids.reserve_exact(added);
        self.dists.reserve_exact(added);
        self.ids.resize(len + added, 0);
        self.dists.resize(len + added, 0.0);
        for r in (0..rows).rev() {
            // Inserts in rows ≤ r: how far this row's end moves.
            let shift = inserts.offsets[r + 1] as usize;
            if shift == 0 {
                break;
            }
            let (lo, hi) = (self.offsets[r] as usize, self.offsets[r + 1] as usize);
            let row = inserts.row(r);
            let (mut i, mut j, mut w) = (hi, row.len(), hi + shift);
            while j > 0 {
                w -= 1;
                if i > lo
                    && key(self.ids[i - 1], self.dists[i - 1])
                        > key(row.ids[j - 1], row.dists[j - 1])
                {
                    i -= 1;
                    self.ids[w] = self.ids[i];
                    self.dists[w] = self.dists[i];
                } else {
                    j -= 1;
                    self.ids[w] = row.ids[j];
                    self.dists[w] = row.dists[j];
                }
            }
            // The rest of the row moves by the inserts of earlier rows.
            if w > i {
                self.ids.copy_within(lo..i, lo + (w - i));
                self.dists.copy_within(lo..i, lo + (w - i));
            }
            self.offsets[r + 1] = checked_offset((hi + shift) as u64);
        }
    }

    /// Approximate heap bytes of the three flat arrays.
    pub fn heap_size_bytes(&self) -> usize {
        self.offsets.capacity() * 4 + self.ids.capacity() * 4 + self.dists.capacity() * 8
    }

    /// Drops the capacity a growing build left beyond the pairs held, for
    /// arenas that are retained rather than consumed by one query.
    pub(crate) fn shrink_to_fit(&mut self) {
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
    pub(crate) fn push_slice(&mut self, row: PairSlice<'_>) {
        self.ids.extend_from_slice(row.ids);
        self.dists.extend_from_slice(row.dists);
        self.offsets.push(checked_offset(self.ids.len() as u64));
    }

    /// Appends the next row as an id run and a parallel distance run of
    /// the same length (two bulk extends, e.g. straight off a wire).
    pub(crate) fn push_runs(
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
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(arena.row(i).to_pairs(), *row);
        }
        assert!(arena.row(1).is_empty());
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
    fn patch_drops_then_merges_each_row_in_place() {
        let mut arena = PairArena::from_rows(&[
            vec![(2, 1.0), (0, 2.5)],
            vec![],
            vec![(1, 0.0), (2, 3.0), (3, 4.5)],
            vec![(0, 9.0)],
            vec![(4, 1.0)],
        ]);
        let inserts = PairArena::from_rows(&[
            vec![(7, 0.5), (5, 3.0)],
            vec![(6, 1.0)],
            vec![(9, 4.0)],
            vec![],
            vec![],
        ]);
        // Drop id 2 everywhere; order rows by (distance, id).
        let dropped = [false, false, true];
        arena.patch(&dropped, &inserts, |id, d| (d.to_bits(), id));
        let want = PairArena::from_rows(&[
            vec![(7, 0.5), (0, 2.5), (5, 3.0)],
            vec![(6, 1.0)],
            vec![(1, 0.0), (9, 4.0), (3, 4.5)],
            vec![(0, 9.0)],
            vec![(4, 1.0)],
        ]);
        assert_eq!(arena, want);
        // Nothing dropped, nothing inserted: unchanged.
        arena.patch(&[], &PairArena::empty(5), |id, d| (d.to_bits(), id));
        assert_eq!(arena, want);
    }

    #[test]
    fn empty_arenas_are_well_formed() {
        let arena = PairArena::empty(3);
        assert_eq!(arena.row_count(), 3);
        assert_eq!(arena.pair_count(), 0);
        assert!(arena.row(2).is_empty());
        let inv = arena.invert_threaded(2, 1);
        assert_eq!(inv.row_count(), 2);
    }
}
