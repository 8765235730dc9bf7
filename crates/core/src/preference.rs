//! The preference-function family `ψ` (paper Def. 2 and Sec. 7.4).
//!
//! A preference function scores how much a trajectory prefers a candidate
//! site, as a non-increasing function `f` of the detour distance
//! `dr(T_j, s_i)`, cut off at the coverage threshold `τ`:
//!
//! ```text
//! ψ(T_j, s_i) = f(dr(T_j, s_i))  if dr(T_j, s_i) ≤ τ,  else 0.
//! ```
//!
//! The enum below covers the paper's variants — TOPS1 (binary), TOPS2
//! (convex interception probability), TOPS3 (minimize inconvenience) — plus
//! linear and exponential decays common in location-analysis literature.
//! All scores are normalized to `[0, 1]`.
//!
//! **The quadratic TOPS2 model is a multiply.** `ConvexProbability` with
//! `α = 2` evaluates `x · x` for `x = 1 − d/τ`: the correctly rounded
//! square, and what the compiler folds `powf(x, 2.0)` to for a constant
//! exponent. The C library's `powf` is within one ulp of it (equal on all
//! but ≈ 10⁻³ of inputs) at ≈ 10× the cost per pair. Every solver and
//! evaluator scores through [`PreferenceFunction::score`], so all of them
//! see the same bits; every other `α` is `powf`.

/// A non-increasing preference function of the detour distance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PreferenceFunction {
    /// TOPS1: `f(d) = 1` — the binary instance (paper Def. 3). A trajectory
    /// is either covered (detour ≤ τ) or not.
    Binary,
    /// `f(d) = 1 − d/τ`: preference falls linearly to 0 at the threshold.
    LinearDecay,
    /// `f(d) = exp(−λ·d/τ)`: exponential decay with rate `λ > 0`;
    /// `f(τ) = e^{−λ}`.
    ExponentialDecay {
        /// Decay rate λ.
        lambda: f64,
    },
    /// TOPS2: `f(d) = (1 − d/τ)^α` with `α ≥ 1` — a convex, decreasing
    /// interception probability (paper Sec. 7.4, model of Berman et al.).
    ConvexProbability {
        /// Convexity exponent α (α = 2 matches the quadratic model).
        alpha: f64,
    },
    /// TOPS3 (minimize user inconvenience): the paper sets `ψ = −dr`,
    /// `τ = ∞`. We use the equivalent normalized form
    /// `f(d) = 1 − d/normalizer` over `τ = normalizer`: maximizing
    /// `Σ_j max_s ψ` is then exactly minimizing total deviation
    /// `Σ_j min_s dr` as long as `normalizer` bounds all detours of
    /// interest (pass e.g. a network-diameter bound).
    MinInconvenience {
        /// Detour normalizer `C` in meters; must upper-bound the detours of
        /// interest for exact TOPS3 equivalence.
        normalizer_m: f64,
    },
}

impl PreferenceFunction {
    /// Evaluates `ψ` for a detour distance `dr` (meters) under threshold
    /// `tau` (meters). Returns 0 beyond the threshold.
    ///
    /// For [`PreferenceFunction::MinInconvenience`] the effective threshold
    /// is `normalizer_m`, matching the paper's `τ = ∞` semantics.
    #[inline]
    pub fn score(&self, dr: f64, tau: f64) -> f64 {
        debug_assert!(dr >= 0.0, "detour distances are non-negative");
        let tau = self.effective_tau(tau);
        if dr > tau {
            return 0.0;
        }
        match *self {
            PreferenceFunction::Binary => 1.0,
            PreferenceFunction::LinearDecay => 1.0 - dr / tau,
            PreferenceFunction::ExponentialDecay { lambda } => (-lambda * dr / tau).exp(),
            PreferenceFunction::ConvexProbability { alpha } => {
                let x = 1.0 - dr / tau;
                if alpha == 2.0 {
                    x * x
                } else {
                    x.powf(alpha)
                }
            }
            PreferenceFunction::MinInconvenience { normalizer_m } => {
                (1.0 - dr / normalizer_m).max(0.0)
            }
        }
    }

    /// The threshold actually applied by [`PreferenceFunction::score`]:
    /// `tau` for all variants except `MinInconvenience`, whose cutoff is its
    /// normalizer.
    #[inline]
    pub(crate) fn effective_tau(&self, tau: f64) -> f64 {
        match *self {
            PreferenceFunction::MinInconvenience { normalizer_m } => normalizer_m,
            _ => tau,
        }
    }

    /// True for the binary instance, which unlocks the FM-sketch greedy.
    #[inline]
    pub fn is_binary(&self) -> bool {
        matches!(self, PreferenceFunction::Binary)
    }

    /// Validates the parameters (finite, in-range); returns a description of
    /// the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            PreferenceFunction::Binary | PreferenceFunction::LinearDecay => Ok(()),
            PreferenceFunction::ExponentialDecay { lambda } => {
                if lambda.is_finite() && lambda > 0.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "exponential decay rate must be positive, got {lambda}"
                    ))
                }
            }
            PreferenceFunction::ConvexProbability { alpha } => {
                if alpha.is_finite() && alpha >= 1.0 {
                    Ok(())
                } else {
                    Err(format!("convexity exponent must be ≥ 1, got {alpha}"))
                }
            }
            PreferenceFunction::MinInconvenience { normalizer_m } => {
                if normalizer_m.is_finite() && normalizer_m > 0.0 {
                    Ok(())
                } else {
                    Err(format!("normalizer must be positive, got {normalizer_m}"))
                }
            }
        }
    }
}

impl Default for PreferenceFunction {
    /// The paper's default evaluation variant: binary TOPS1.
    fn default() -> Self {
        PreferenceFunction::Binary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAU: f64 = 800.0;

    fn all_variants() -> Vec<PreferenceFunction> {
        vec![
            PreferenceFunction::Binary,
            PreferenceFunction::LinearDecay,
            PreferenceFunction::ExponentialDecay { lambda: 2.0 },
            PreferenceFunction::ConvexProbability { alpha: 2.0 },
            PreferenceFunction::MinInconvenience {
                normalizer_m: 5_000.0,
            },
        ]
    }

    #[test]
    fn scores_are_normalized_and_nonincreasing() {
        for pref in all_variants() {
            let mut last = f64::INFINITY;
            for i in 0..=100 {
                let d = i as f64 * 60.0; // 0 .. 6000 m
                let s = pref.score(d, TAU);
                assert!((0.0..=1.0).contains(&s), "{pref:?} score {s} at {d}");
                assert!(s <= last + 1e-12, "{pref:?} increased at {d}");
                last = s;
            }
        }
    }

    #[test]
    fn scores_are_nondecreasing_in_tau() {
        // A larger threshold never lowers a score at a fixed detour — what
        // lets a weight at a band's ceiling bound the weight at any τ below.
        let mut variants = all_variants();
        variants.push(PreferenceFunction::ConvexProbability { alpha: 2.5 });
        for pref in variants {
            for d in [0.0, 1.0, 250.0, 800.0, 1_999.0] {
                let mut last = 0.0;
                for i in 1..=100 {
                    let s = pref.score(d, i as f64 * 20.0); // τ = 20 .. 2000 m
                    assert!((0.0..=1.0).contains(&s), "{pref:?} score {s} at τ step {i}");
                    assert!(s >= last, "{pref:?} fell at d={d}, τ step {i}");
                    last = s;
                }
            }
        }
    }

    #[test]
    fn quadratic_model_is_the_exact_square() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let quadratic = PreferenceFunction::ConvexProbability { alpha: 2.0 };
        let other = PreferenceFunction::ConvexProbability { alpha: 2.5 };
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..100_000 {
            let d = rng.random_range(0.0..TAU);
            let x: f64 = 1.0 - d / TAU;
            let s = quadratic.score(d, TAU);
            assert_eq!(s.to_bits(), (x * x).to_bits(), "d={d}");
            // … which `powf` may miss by one ulp, never more.
            let ulps = s.to_bits().abs_diff(x.powf(2.0).to_bits());
            assert!(ulps <= 1, "d={d}: {ulps} ulps from powf");
            // Every other exponent is still exactly `powf`.
            assert_eq!(
                other.score(d, TAU).to_bits(),
                x.powf(2.5).to_bits(),
                "d={d}"
            );
        }
    }

    #[test]
    fn zero_detour_scores_one() {
        for pref in all_variants() {
            assert_eq!(pref.score(0.0, TAU), 1.0, "{pref:?}");
        }
    }

    #[test]
    fn beyond_threshold_is_zero() {
        for pref in all_variants() {
            let cutoff = pref.effective_tau(TAU);
            assert_eq!(pref.score(cutoff + 1.0, TAU), 0.0, "{pref:?}");
        }
    }

    #[test]
    fn binary_is_indicator() {
        let p = PreferenceFunction::Binary;
        assert!(p.is_binary());
        assert_eq!(p.score(TAU, TAU), 1.0);
        assert_eq!(p.score(TAU + 0.001, TAU), 0.0);
    }

    #[test]
    fn linear_decay_midpoint() {
        let p = PreferenceFunction::LinearDecay;
        assert!((p.score(400.0, 800.0) - 0.5).abs() < 1e-12);
        assert_eq!(p.score(800.0, 800.0), 0.0);
        assert!(!p.is_binary());
    }

    #[test]
    fn convex_probability_is_convex() {
        let p = PreferenceFunction::ConvexProbability { alpha: 2.0 };
        // Convexity: midpoint value ≤ average of endpoints.
        let (a, b) = (100.0, 700.0);
        let mid = p.score((a + b) / 2.0, TAU);
        let avg = (p.score(a, TAU) + p.score(b, TAU)) / 2.0;
        assert!(mid <= avg + 1e-12);
    }

    #[test]
    fn min_inconvenience_ignores_tau() {
        let p = PreferenceFunction::MinInconvenience {
            normalizer_m: 10_000.0,
        };
        // τ plays no role; normalizer is the cutoff.
        assert!(p.score(5_000.0, 1.0) > 0.0);
        assert_eq!(p.effective_tau(1.0), 10_000.0);
        // Maximizing Σ(1 - d/C) == minimizing Σd: scores are affine in d.
        let s1 = p.score(1_000.0, 1.0);
        let s2 = p.score(2_000.0, 1.0);
        let s3 = p.score(3_000.0, 1.0);
        assert!((s1 - s2 - (s2 - s3)).abs() < 1e-12, "not affine");
    }

    #[test]
    fn exponential_decay_at_threshold() {
        let p = PreferenceFunction::ExponentialDecay { lambda: 1.5 };
        assert!((p.score(TAU, TAU) - (-1.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        assert!(PreferenceFunction::Binary.validate().is_ok());
        assert!(PreferenceFunction::ExponentialDecay { lambda: 0.0 }
            .validate()
            .is_err());
        assert!(PreferenceFunction::ConvexProbability { alpha: 0.5 }
            .validate()
            .is_err());
        assert!(PreferenceFunction::MinInconvenience { normalizer_m: -1.0 }
            .validate()
            .is_err());
        assert!(PreferenceFunction::ConvexProbability { alpha: 2.0 }
            .validate()
            .is_ok());
    }
}
