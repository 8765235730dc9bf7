//! Flajolet–Martin sketches with `f` independent copies.
//!
//! An FM sketch summarizes a set of item ids in a single 32-bit word: item
//! `x` sets bit `ρ(h(x))` where `ρ` is the least-significant-set-bit
//! position. The index of the lowest *unset* bit `R` satisfies
//! `E[R] ≈ log2(φ·n)` with `φ ≈ 0.77351`, giving the classic estimator
//! `n̂ = 2^R / φ`; averaging `R` over `f` independent copies shrinks the
//! standard error to `≈ 0.78/√f` [Flajolet & Martin 1985].
//!
//! Crucially for NetClus, the sketch of a *union* of sets is the bitwise OR
//! of their sketches — this is what makes marginal-coverage estimation O(f)
//! per candidate inside Inc-Greedy and Greedy-GDSP (paper Sec. 3.5, 4.1.2).
//! Sketches are plain `Box<[u32]>` payloads; the hashing state lives once in
//! a shared [`FmSketchFamily`], so storing one sketch per candidate site
//! costs `4·f` bytes (the paper's "32-bit words").

use crate::hash::{derive_seeds, hash_with_seed, rho};

/// Magic constant φ from Flajolet & Martin's analysis.
pub(crate) const FM_PHI: f64 = 0.77351;

/// Word width of each sketch copy, in bits. 32 bits handle ≈ 4·10⁹ distinct
/// items — far beyond any trajectory corpus (paper Sec. 3.5).
pub(crate) const FM_BITS: u32 = 32;

/// Shared parameters of a family of FM sketches: the number of copies `f`
/// and their hash seeds. All sketches that will ever be unioned together
/// must come from the same family.
#[derive(Clone, Debug)]
pub struct FmSketchFamily {
    seeds: Vec<u64>,
}

impl FmSketchFamily {
    /// Creates a family of `f ≥ 1` copies seeded from `master_seed`.
    ///
    /// # Panics
    /// Panics if `f == 0`.
    pub fn new(f: usize, master_seed: u64) -> Self {
        assert!(f >= 1, "need at least one sketch copy");
        FmSketchFamily {
            seeds: derive_seeds(master_seed, f),
        }
    }

    /// Number of copies `f`.
    #[inline]
    pub fn copies(&self) -> usize {
        self.seeds.len()
    }

    /// A fresh empty sketch of this family.
    pub fn empty(&self) -> FmSketch {
        FmSketch {
            words: vec![0u32; self.seeds.len()].into_boxed_slice(),
        }
    }

    /// Inserts `item` into `sketch` (idempotent).
    #[inline]
    pub fn insert(&self, sketch: &mut FmSketch, item: u64) {
        debug_assert_eq!(sketch.words.len(), self.seeds.len());
        for (word, &seed) in sketch.words.iter_mut().zip(&self.seeds) {
            let r = rho(hash_with_seed(item, seed), FM_BITS);
            *word |= 1u32 << r;
        }
    }

    /// Builds the sketch of an item iterator.
    pub fn sketch_of<I: IntoIterator<Item = u64>>(&self, items: I) -> FmSketch {
        let mut s = self.empty();
        for item in items {
            self.insert(&mut s, item);
        }
        s
    }

    /// Estimates the number of distinct items inserted into `sketch`.
    ///
    /// Uses the mean lowest-zero-bit index over all copies with the
    /// small-cardinality correction of Scheuermann & Mauve:
    /// `n̂ = (2^R̄ − 2^(−κ·R̄)) / φ`, `κ = 1.75`, which removes most of the
    /// bias below ≈ 10 items while converging to the classic estimator.
    pub fn estimate(&self, sketch: &FmSketch) -> f64 {
        let sum: u32 = sketch.words.iter().map(|&w| lowest_zero(w)).sum();
        let mean_r = f64::from(sum) / self.seeds.len() as f64;
        ((2f64.powf(mean_r) - 2f64.powf(-1.75 * mean_r)) / FM_PHI).max(0.0)
    }

    /// Estimates `|A ∪ B|` without materializing the union sketch.
    pub fn union_estimate(&self, a: &FmSketch, b: &FmSketch) -> f64 {
        debug_assert_eq!(a.words.len(), b.words.len());
        let sum: u32 = a
            .words
            .iter()
            .zip(b.words.iter())
            .map(|(&x, &y)| lowest_zero(x | y))
            .sum();
        let mean_r = f64::from(sum) / self.seeds.len() as f64;
        ((2f64.powf(mean_r) - 2f64.powf(-1.75 * mean_r)) / FM_PHI).max(0.0)
    }
}

/// The payload of one FM sketch: `f` 32-bit words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FmSketch {
    words: Box<[u32]>,
}

impl FmSketch {
    /// Bitwise-ORs `other` into `self`, making `self` the sketch of the
    /// union of both underlying sets.
    ///
    /// # Panics
    /// Panics if the sketches have different copy counts.
    pub fn union_with(&mut self, other: &FmSketch) {
        assert_eq!(
            self.words.len(),
            other.words.len(),
            "sketches from different families"
        );
        for (w, &o) in self.words.iter_mut().zip(other.words.iter()) {
            *w |= o;
        }
    }

    /// Returns the union sketch of `a` and `b`.
    pub fn union(a: &FmSketch, b: &FmSketch) -> FmSketch {
        let mut out = a.clone();
        out.union_with(b);
        out
    }

    /// True if nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of copies.
    pub fn copies(&self) -> usize {
        self.words.len()
    }

    /// Raw words (one per copy), little-endian bit significance.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Heap footprint in bytes.
    pub fn heap_size_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u32>()
    }
}

/// Index of the lowest zero bit of `w` (the FM statistic `R`).
#[inline]
fn lowest_zero(w: u32) -> u32 {
    (!w).trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_estimates_zero() {
        let fam = FmSketchFamily::new(30, 42);
        let s = fam.empty();
        assert!(s.is_empty());
        assert_eq!(fam.estimate(&s), 0.0);
    }

    #[test]
    fn insertion_is_idempotent() {
        let fam = FmSketchFamily::new(10, 1);
        let mut a = fam.empty();
        fam.insert(&mut a, 77);
        let snapshot = a.clone();
        fam.insert(&mut a, 77);
        fam.insert(&mut a, 77);
        assert_eq!(a, snapshot);
    }

    #[test]
    fn estimate_tracks_cardinality() {
        let fam = FmSketchFamily::new(64, 9);
        for &n in &[10usize, 100, 1_000, 10_000] {
            let s = fam.sketch_of((0..n as u64).map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D)));
            let est = fam.estimate(&s);
            let rel = (est - n as f64).abs() / n as f64;
            // 64 copies → stderr ≈ 9.75%; allow 4 sigma.
            assert!(rel < 0.4, "n={n}: estimate {est}, rel err {rel}");
        }
    }

    #[test]
    fn union_equals_sketch_of_union() {
        let fam = FmSketchFamily::new(16, 3);
        let a = fam.sketch_of(0..500);
        let b = fam.sketch_of(250..750);
        let direct = fam.sketch_of(0..750);
        assert_eq!(FmSketch::union(&a, &b), direct);
        let mut c = a.clone();
        c.union_with(&b);
        assert_eq!(c, direct);
    }

    #[test]
    fn union_estimate_matches_materialized_union() {
        let fam = FmSketchFamily::new(16, 3);
        let a = fam.sketch_of(0..300);
        let b = fam.sketch_of(200..600);
        let merged = FmSketch::union(&a, &b);
        assert_eq!(fam.union_estimate(&a, &b), fam.estimate(&merged));
    }

    #[test]
    fn union_estimate_is_monotone() {
        let fam = FmSketchFamily::new(32, 5);
        let a = fam.sketch_of(0..1000);
        let b = fam.sketch_of(1000..1400);
        // Estimate of the union can never be below either operand's estimate:
        // OR-ing words can only move lowest-zero indices up.
        let ua = fam.estimate(&a);
        let ub = fam.estimate(&b);
        let uu = fam.union_estimate(&a, &b);
        assert!(uu >= ua.max(ub) - 1e-9);
    }

    #[test]
    fn deterministic_across_runs() {
        let fam1 = FmSketchFamily::new(8, 123);
        let fam2 = FmSketchFamily::new(8, 123);
        assert_eq!(fam1.sketch_of(0..50), fam2.sketch_of(0..50));
    }

    #[test]
    #[should_panic(expected = "different families")]
    fn union_of_mismatched_sizes_panics() {
        let a = FmSketchFamily::new(4, 0).empty();
        let mut b = FmSketchFamily::new(8, 0).empty();
        b.union_with(&a);
    }

    #[test]
    fn heap_size_is_4f_bytes() {
        let fam = FmSketchFamily::new(30, 0);
        assert_eq!(fam.empty().heap_size_bytes(), 120);
    }

    #[test]
    fn lowest_zero_examples() {
        assert_eq!(lowest_zero(0b0), 0);
        assert_eq!(lowest_zero(0b1), 1);
        assert_eq!(lowest_zero(0b1011), 2);
        assert_eq!(lowest_zero(u32::MAX), 32);
    }
}
