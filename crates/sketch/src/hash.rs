//! Seeded 64-bit hashing for sketch families.
//!
//! Each FM sketch copy needs an independent hash function over item ids.
//! We use the SplitMix64 finalizer — a full-avalanche bijective mixer — over
//! `item ^ seed`, with per-copy seeds themselves drawn from a SplitMix64
//! stream. This is deterministic, dependency-free, and passes the geometric
//! bit-position distribution checks in the tests below.

/// SplitMix64 finalization mix: bijective, full avalanche.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes `item` under the function identified by `seed`.
#[inline]
pub(crate) fn hash_with_seed(item: u64, seed: u64) -> u64 {
    mix64(item ^ mix64(seed))
}

/// Generates `count` independent hash seeds from a master seed.
pub(crate) fn derive_seeds(master_seed: u64, count: usize) -> Vec<u64> {
    let mut state = master_seed;
    (0..count)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            mix64(state)
        })
        .collect()
}

/// Position of the least-significant set bit (the FM "ρ" function), capped
/// at `cap − 1` so it always addresses a valid bit of a `cap`-bit word.
/// `ρ(h) = i` occurs with probability `2^-(i+1)` for uniform `h`.
#[inline]
pub(crate) fn rho(hash: u64, cap: u32) -> u32 {
    hash.trailing_zeros().min(cap - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(0), mix64(0));
        assert_ne!(mix64(0), mix64(1));
        // Consecutive inputs should differ in roughly half the bits.
        let d = (mix64(41) ^ mix64(42)).count_ones();
        assert!((20..=44).contains(&d), "poor avalanche: {d} bits");
    }

    #[test]
    fn seeds_are_distinct() {
        let seeds = derive_seeds(7, 100);
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
        // Deterministic given the master seed.
        assert_eq!(seeds, derive_seeds(7, 100));
        assert_ne!(seeds, derive_seeds(8, 100));
    }

    #[test]
    fn rho_is_geometric() {
        // Empirically: P(rho = i) ≈ 2^-(i+1).
        let n = 100_000u64;
        let mut counts = [0u64; 8];
        for i in 0..n {
            let r = rho(hash_with_seed(i, 12345), 32);
            if (r as usize) < counts.len() {
                counts[r as usize] += 1;
            }
        }
        for (i, &c) in counts.iter().enumerate().take(6) {
            let expected = n as f64 / 2f64.powi(i as i32 + 1);
            let ratio = c as f64 / expected;
            assert!(
                (0.9..1.1).contains(&ratio),
                "rho={i}: observed {c}, expected {expected}"
            );
        }
    }

    #[test]
    fn rho_caps_at_word_size() {
        assert_eq!(rho(0, 32), 31);
        assert_eq!(rho(1 << 40, 32), 31);
        assert_eq!(rho(1, 32), 0);
        assert_eq!(rho(8, 32), 3);
    }

    #[test]
    fn different_seeds_hash_differently() {
        let a = hash_with_seed(99, 1);
        let b = hash_with_seed(99, 2);
        assert_ne!(a, b);
    }
}
