//! Property-based tests for the serving layer's cache keys and
//! invalidation semantics.

use std::sync::Arc;
use std::time::Duration;

use netclus::{PreferenceFunction, TopsQuery};
use netclus_service::{EpochLru, QueryKey, QueryVariant, ServiceAnswer};
use proptest::prelude::*;

/// A strategy over full query parameter tuples:
/// `(k, τ, pref selector, pref param, fm selector, copies, seed, epoch)`.
fn params() -> impl Strategy<Value = (usize, f64, u8, f64, bool, usize, u64, u64)> {
    (
        1usize..20,
        100.0f64..5_000.0,
        0u8..5,
        0.5f64..4.0,
        proptest::arbitrary::any::<bool>(),
        1usize..64,
        proptest::arbitrary::any::<u64>(),
        0u64..6,
    )
}

fn build(p: &(usize, f64, u8, f64, bool, usize, u64, u64)) -> (TopsQuery, QueryVariant, u64) {
    let &(k, tau, pref_sel, pref_param, fm, copies, seed, epoch) = p;
    let preference = match pref_sel {
        0 => PreferenceFunction::Binary,
        1 => PreferenceFunction::LinearDecay,
        2 => PreferenceFunction::ExponentialDecay { lambda: pref_param },
        3 => PreferenceFunction::ConvexProbability { alpha: pref_param },
        _ => PreferenceFunction::MinInconvenience {
            normalizer_m: pref_param * 1_000.0,
        },
    };
    // FM only applies to the binary preference.
    let variant = if fm && preference.is_binary() {
        QueryVariant::Fm { copies, seed }
    } else {
        QueryVariant::Greedy
    };
    (TopsQuery { k, tau, preference }, variant, epoch)
}

fn dummy_answer(epoch: u64) -> Arc<ServiceAnswer> {
    Arc::new(ServiceAnswer {
        epoch,
        corpus_len: 1,
        site_count: 1,
        sites: Vec::new(),
        utility: 0.0,
        covered: 0,
        instance: 0,
        representatives: 0,
        compute_time: Duration::ZERO,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Key equality is exactly parameter equality: identical parameters
    /// produce identical keys, and any single-field perturbation but `k`
    /// changes the key (every `k` of a shape shares one entry).
    #[test]
    fn key_equality_matches_parameter_equality(p in params()) {
        let (q, v, e) = build(&p);
        let key = QueryKey::new(&q, v, e);
        // Reflexive: rebuilding from the same parameters gives the same key.
        prop_assert_eq!(key, QueryKey::new(&q, v, e));

        // Perturb k: the same shape, the same key.
        let mut q2 = q;
        q2.k += 1;
        prop_assert_eq!(QueryKey::new(&q2, v, e), key);
        // Perturb τ by one ULP-scale step.
        let mut q3 = q;
        q3.tau += 0.25;
        prop_assert!(QueryKey::new(&q3, v, e) != key);
        // Perturb the epoch.
        prop_assert!(QueryKey::new(&q, v, e + 1) != key);
        prop_assert_eq!(key.at_epoch(e + 1), QueryKey::new(&q, v, e + 1));
        // Perturb the variant.
        let v2 = match v {
            QueryVariant::Greedy => QueryVariant::Fm { copies: 7, seed: 7 },
            QueryVariant::Fm { copies, seed } => QueryVariant::Fm { copies: copies + 1, seed },
        };
        prop_assert!(QueryKey::new(&q, v2, e) != key);
        // Perturb the preference family.
        let mut q4 = q;
        q4.preference = match q.preference {
            PreferenceFunction::Binary => PreferenceFunction::LinearDecay,
            _ => PreferenceFunction::Binary,
        };
        prop_assert!(QueryKey::new(&q4, QueryVariant::Greedy, e)
            != QueryKey::new(&q, QueryVariant::Greedy, e));
    }

    /// Round-tripping a key through the cache honors equality: the stored
    /// answer is returned for an equal key and only for it.
    #[test]
    fn cache_lookup_respects_key_equality(a in params(), b in params()) {
        let (qa, va, ea) = build(&a);
        let (qb, vb, eb) = build(&b);
        let ka = QueryKey::new(&qa, va, ea);
        let kb = QueryKey::new(&qb, vb, eb);
        let cache = EpochLru::<QueryKey, ServiceAnswer>::new(1_024);
        cache.upsert(ka, dummy_answer(ea), |_| true);
        prop_assert!(cache.get(&ka).is_some());
        prop_assert_eq!(cache.get(&kb).is_some(), ka == kb);
    }

    /// Epoch invalidation is a clean partition: entries strictly below the
    /// cutoff vanish, all others survive.
    #[test]
    fn invalidation_partitions_by_epoch(
        entries in prop::collection::vec(params(), 1..40),
        cutoff in 0u64..7,
    ) {
        let cache = EpochLru::<QueryKey, ServiceAnswer>::new(4_096);
        let keys: Vec<QueryKey> = entries
            .iter()
            .map(|p| {
                let (q, v, e) = build(p);
                let k = QueryKey::new(&q, v, e);
                cache.upsert(k, dummy_answer(e), |_| true);
                k
            })
            .collect();
        cache.invalidate_before(cutoff);
        for k in &keys {
            let alive = cache.get(k).is_some();
            if k.epoch >= cutoff {
                prop_assert!(alive, "epoch {} wrongly purged (cutoff {cutoff})", k.epoch);
            } else {
                prop_assert!(!alive, "epoch {} survived cutoff {cutoff}", k.epoch);
            }
        }
    }
}
