//! Query-workload generation for the serving layer.
//!
//! The paper evaluates one query at a time; a serving system sees a
//! *stream* with arrival structure. This module generates deterministic
//! TOPS query mixes over the existing city scenarios:
//!
//! * **Open-loop** arrivals: Poisson process at a configured rate — each
//!   request carries an absolute offset `at` from stream start; the driver
//!   fires it at that time regardless of completions (models internet
//!   traffic, exposes queueing).
//! * **Closed-loop** arrivals: a fixed number of clients, each issuing its
//!   next request after the previous answer plus a think time (models
//!   interactive sessions, self-throttles).
//!
//! Parameter mixes are drawn from small grids (popular `k`s, a τ lattice)
//! with a configurable fraction of **repeated** queries, matching the
//! skew of dashboard-style traffic — this is what makes a result cache
//! worth having.

use std::time::Duration;

use netclus::{PreferenceFunction, TopsQuery};
use rand::RngExt;

/// How requests arrive at the service.
#[derive(Clone, Copy, Debug)]
pub enum ArrivalProcess {
    /// Poisson arrivals at `rate_per_sec`, independent of completions.
    Open {
        /// Mean arrival rate (requests per second).
        rate_per_sec: f64,
    },
    /// `clients` loops of request → answer → think.
    Closed {
        /// Concurrent clients.
        clients: usize,
        /// Think time between an answer and the client's next request.
        think_time: Duration,
    },
}

/// One request in the stream.
#[derive(Clone, Copy, Debug)]
pub struct TimedQuery {
    /// Offset from stream start (meaningful for open-loop arrivals;
    /// zero under closed loop, where pacing is completion-driven).
    pub at: Duration,
    /// The TOPS query.
    pub query: TopsQuery,
}

/// Query-mix and arrival configuration.
#[derive(Clone, Debug)]
pub struct QueryWorkloadConfig {
    /// Number of requests to generate.
    pub count: usize,
    /// Popular `k` values, sampled uniformly.
    pub k_choices: Vec<usize>,
    /// τ lattice bounds in meters; values are drawn on `tau_step`
    /// multiples so repeats collide exactly (cacheable traffic).
    pub tau_min: f64,
    /// Upper τ bound (inclusive lattice end).
    pub tau_max: f64,
    /// Lattice step for τ.
    pub tau_step: f64,
    /// Fraction of queries using a graded (linear-decay) preference.
    pub graded_fraction: f64,
    /// Fraction of requests that repeat an earlier request verbatim
    /// (dashboard skew; drives cache hits).
    pub repeat_fraction: f64,
    /// Arrival process.
    pub arrival: ArrivalProcess,
}

impl Default for QueryWorkloadConfig {
    fn default() -> Self {
        QueryWorkloadConfig {
            count: 1_000,
            k_choices: vec![1, 3, 5, 10],
            tau_min: 400.0,
            tau_max: 3_200.0,
            tau_step: 200.0,
            graded_fraction: 0.2,
            repeat_fraction: 0.4,
            arrival: ArrivalProcess::Open {
                rate_per_sec: 500.0,
            },
        }
    }
}

/// Generates a deterministic query stream for `cfg`.
///
/// Open-loop offsets are exponential inter-arrivals; closed-loop streams
/// carry zero offsets (the driver paces by completion + think time).
pub fn generate_query_workload<R: RngExt>(
    cfg: &QueryWorkloadConfig,
    rng: &mut R,
) -> Vec<TimedQuery> {
    assert!(!cfg.k_choices.is_empty(), "need at least one k choice");
    assert!(
        cfg.tau_min > 0.0 && cfg.tau_max >= cfg.tau_min && cfg.tau_step > 0.0,
        "need 0 < τ_min ≤ τ_max and a positive step"
    );
    let steps = ((cfg.tau_max - cfg.tau_min) / cfg.tau_step).floor() as usize + 1;
    let mut out: Vec<TimedQuery> = Vec::with_capacity(cfg.count);
    let mut clock = Duration::ZERO;
    for _ in 0..cfg.count {
        let at = match cfg.arrival {
            ArrivalProcess::Open { rate_per_sec } => {
                let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                clock += Duration::from_secs_f64(-u.ln() / rate_per_sec.max(1e-9));
                clock
            }
            ArrivalProcess::Closed { .. } => Duration::ZERO,
        };
        let query = if !out.is_empty() && rng.random::<f64>() < cfg.repeat_fraction {
            out[rng.random_range(0..out.len())].query
        } else {
            let k = cfg.k_choices[rng.random_range(0..cfg.k_choices.len())];
            let tau = cfg.tau_min + cfg.tau_step * rng.random_range(0..steps) as f64;
            let preference = if rng.random::<f64>() < cfg.graded_fraction {
                PreferenceFunction::LinearDecay
            } else {
                PreferenceFunction::Binary
            };
            TopsQuery { k, tau, preference }
        };
        out.push(TimedQuery { at, query });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn generate(cfg: &QueryWorkloadConfig, seed: u64) -> Vec<TimedQuery> {
        let mut rng = StdRng::seed_from_u64(seed);
        generate_query_workload(cfg, &mut rng)
    }

    #[test]
    fn deterministic_and_sized() {
        let cfg = QueryWorkloadConfig::default();
        let a = generate(&cfg, 9);
        let b = generate(&cfg, 9);
        assert_eq!(a.len(), 1_000);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.query.k, y.query.k);
            assert_eq!(x.query.tau, y.query.tau);
        }
    }

    #[test]
    fn open_loop_offsets_are_nondecreasing_at_roughly_the_rate() {
        let cfg = QueryWorkloadConfig {
            count: 4_000,
            arrival: ArrivalProcess::Open {
                rate_per_sec: 1_000.0,
            },
            ..Default::default()
        };
        let qs = generate(&cfg, 3);
        for w in qs.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        let total = qs.last().unwrap().at.as_secs_f64();
        // 4000 arrivals at 1 kHz ≈ 4 s; allow wide statistical slack.
        assert!((2.0..8.0).contains(&total), "stream spans {total}s");
    }

    #[test]
    fn parameters_come_from_the_configured_lattice() {
        let cfg = QueryWorkloadConfig::default();
        let qs = generate(&cfg, 5);
        let mut graded = 0usize;
        for q in &qs {
            assert!(cfg.k_choices.contains(&q.query.k));
            assert!(q.query.tau >= cfg.tau_min && q.query.tau <= cfg.tau_max);
            let offset = (q.query.tau - cfg.tau_min) / cfg.tau_step;
            assert!((offset - offset.round()).abs() < 1e-9, "off-lattice τ");
            if q.query.preference == PreferenceFunction::LinearDecay {
                graded += 1;
            }
        }
        assert!(graded > 0);
    }

    #[test]
    fn repeats_create_exact_duplicates() {
        let cfg = QueryWorkloadConfig {
            count: 500,
            repeat_fraction: 0.6,
            ..Default::default()
        };
        let qs = generate(&cfg, 21);
        let mut seen = std::collections::HashSet::new();
        let mut dups = 0usize;
        for q in &qs {
            let key = (
                q.query.k,
                q.query.tau.to_bits(),
                q.query.preference.is_binary(),
            );
            if !seen.insert(key) {
                dups += 1;
            }
        }
        assert!(dups >= 150, "repeat mix too thin: {dups}");
    }

    #[test]
    #[should_panic(expected = "k choice")]
    fn empty_k_choices_rejected() {
        let cfg = QueryWorkloadConfig {
            k_choices: vec![],
            ..Default::default()
        };
        generate(&cfg, 1);
    }
}
