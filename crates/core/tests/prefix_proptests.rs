//! The prefix rule every cache of smaller-`k` answers relies on: a run for
//! `k` is the first `k` picks of a run for any larger `k` at the same rows
//! and ψ, so `solve(K).prefix(k)` must be `solve(k)` bit for bit — sites,
//! gains, utility, coverage and the per-pick steps — for every `k ≤ K`.
//!
//! Checked over random rows for Inc-Greedy under binary (the counting
//! kernel), LinearDecay and ConvexProbability ψ (the scored kernel), plain,
//! with existing services and with seed utilities, and for FM greedy over
//! one set of prebuilt sketches. Detours are arbitrary `f64`s, some past
//! τ, so nothing here leans on exact arithmetic: the prefix is equal
//! because the shorter run performs the same operations in the same order.

use netclus::prelude::*;
use netclus_sketch::FmSketchFamily;
use proptest::prelude::*;

const TAU: f64 = 1_000.0;

/// Random rows: `m` trajectories, per-site `(trajectory, detour)` pairs
/// sorted by detour as providers hand them out; some detours exceed τ.
#[derive(Clone, Debug)]
struct Instance {
    m: usize,
    rows: Vec<Vec<(u32, f64)>>,
    existing: Vec<usize>,
    seeds: Vec<f64>,
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    (1usize..40, 1usize..20)
        .prop_flat_map(|(m, n)| {
            let row = prop::collection::vec((0..m as u32, 0.0f64..1.3 * TAU), 0..m.min(16));
            let existing = prop::collection::vec(0..n, 0..3);
            // A quarter of the trajectories start at zero utility.
            let seed = prop_oneof![Just(0.0), 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0];
            (
                Just(m),
                prop::collection::vec(row, n),
                existing,
                prop::collection::vec(seed, m),
            )
        })
        .prop_map(|(m, raw, existing, seeds)| {
            let rows = raw
                .into_iter()
                .map(|mut row| {
                    row.sort_by_key(|&(tj, _)| tj);
                    row.dedup_by_key(|&mut (tj, _)| tj);
                    row.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                    row
                })
                .collect();
            Instance {
                m,
                rows,
                existing,
                seeds,
            }
        })
}

/// `cut` equals `run` in every field a caller reads, bit for bit.
fn assert_same(cut: &Solution, run: &Solution, what: &str) {
    prop_assert_eq!(&cut.site_indices, &run.site_indices, "{}: site order", what);
    prop_assert_eq!(&cut.sites, &run.sites, "{}: sites", what);
    let bits = |v: &[f64]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&cut.gains), bits(&run.gains), "{}: gains", what);
    prop_assert_eq!(
        cut.utility.to_bits(),
        run.utility.to_bits(),
        "{}: utility",
        what
    );
    prop_assert_eq!(cut.covered, run.covered, "{}: covered", what);
    let steps = |s: &Solution| {
        s.steps
            .iter()
            .map(|&(u, c)| (u.to_bits(), c))
            .collect::<Vec<_>>()
    };
    prop_assert_eq!(steps(cut), steps(run), "{}: steps", what);
}

/// `solve(big).prefix(k) == solve(k)` for every `k ≤ big`.
fn check_prefixes(big: usize, solve: impl Fn(usize) -> Solution, what: &str) {
    let full = solve(big);
    prop_assert_eq!(full.steps.len(), full.site_indices.len() + 1, "{}", what);
    let last = *full.steps.last().unwrap();
    prop_assert_eq!(last.0.to_bits(), full.utility.to_bits(), "{}", what);
    prop_assert_eq!(last.1, full.covered, "{}", what);
    for k in 0..=big {
        assert_same(
            &full.prefix(k),
            &solve(k),
            &format!("{what}, k={k} of {big}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn inc_greedy_prefix_is_the_smaller_run(inst in instance_strategy(), big in 1usize..12) {
        let p = ReferenceProvider::new(inst.m, inst.rows.clone());
        for preference in [
            PreferenceFunction::Binary,
            PreferenceFunction::LinearDecay,
            PreferenceFunction::ConvexProbability { alpha: 2.0 },
        ] {
            let cfg = |k| GreedyConfig { k, tau: TAU, preference };
            check_prefixes(big, |k| inc_greedy(&p, &cfg(k)), &format!("{preference:?}"));
            check_prefixes(
                big,
                |k| inc_greedy_from(&p, &cfg(k), &inst.existing),
                &format!("{preference:?} existing {:?}", inst.existing),
            );
            check_prefixes(
                big,
                |k| inc_greedy_seeded(&p, &cfg(k), &inst.seeds),
                &format!("{preference:?} seeded"),
            );
        }
    }

    #[test]
    fn fm_greedy_prefix_is_the_smaller_run(
        inst in instance_strategy(),
        big in 1usize..12,
        copies in 1usize..40,
        seed in any::<u64>(),
    ) {
        // FM greedy reads the binary rows: every pair within τ.
        let sets = inst
            .rows
            .iter()
            .map(|row| row.iter().filter(|&&(_, d)| d <= TAU).map(|&(tj, _)| tj).collect())
            .collect();
        let p = ReferenceProvider::binary(inst.m, sets);
        let family = FmSketchFamily::new(copies, seed);
        let sketches = build_site_sketches(&p, &family);
        check_prefixes(big, |k| fm_greedy_prebuilt(&p, &family, &sketches, k), "fm");
    }
}
