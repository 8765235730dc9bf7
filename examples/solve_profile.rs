//! Where a cold query's solve goes, per ladder instance × ψ × k.
//!
//! A served cold query is `ProviderRows::view(τ)` plus one `inc_greedy`
//! over the view (rows are resident after the first query of an epoch).
//! This probe builds the benchmark's city, builds each instance's rows at
//! its band ceiling exactly as the serving layers do, and prints
//!
//! * `build`  — the median ceiling build with a fresh `ProviderScratch`
//!   (what the first query after a publish pays), on 1 and 2 threads;
//! * `digest` — FNV-1a over the ceiling rows' representatives, ids and
//!   distance bits, equal on both thread counts: two commits that print
//!   the same digests built the same rows;
//!
//! then times the three parts of a query at a mid-band τ:
//!
//! * `view`   — cutting every row to its within-τ prefix;
//! * `init`   — the solver up to its first pick (a `k = 0` run: static
//!   weights and the CELF heap; graded ψ walks every distance here, binary
//!   ψ reads one distance per row);
//! * `rounds` — the rest of a `k`-run, with how many stale heap entries it
//!   re-evaluated and how many pairs those re-evaluations and the picks
//!   walked, counted by a provider wrapper off the clock.
//!
//! Every timed answer is compared with the paper's Algorithm 1 over a copy
//! of the same view's rows — sites and coverage exactly, gains bit for bit
//! for binary ψ and to rounding for graded ψ — so the probe cannot time a
//! wrong answer.
//!
//! Run with:
//! ```text
//! cargo run --release --example solve_profile [-- --scale 0.25]
//! ```

use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use netclus::prelude::*;
use netclus_datagen::{beijing_like, ScenarioConfig};
use netclus_roadnet::NodeId;

/// Timed runs per cell; the table prints their medians.
const SAMPLES: usize = 15;
const KS: [usize; 4] = [1, 5, 10, 20];

/// A provider that counts the rows and pairs handed to the solver.
struct Counting<'a> {
    inner: &'a ClusteredProvider,
    rows: Cell<usize>,
    pairs: Cell<usize>,
}

impl CoverageProvider for Counting<'_> {
    fn site_count(&self) -> usize {
        self.inner.site_count()
    }

    fn traj_id_bound(&self) -> usize {
        self.inner.traj_id_bound()
    }

    fn site_node(&self, idx: usize) -> NodeId {
        self.inner.site_node(idx)
    }

    fn covered(&self, idx: usize) -> PairSlice<'_> {
        let row = self.inner.covered(idx);
        self.rows.set(self.rows.get() + 1);
        self.pairs.set(self.pairs.get() + row.len());
        row
    }
}

/// Rows and pairs the solver reads for `cfg` over `view`.
fn reads(view: &ClusteredProvider, cfg: &TopsQuery) -> (usize, usize) {
    let counting = Counting {
        inner: view,
        rows: Cell::new(0),
        pairs: Cell::new(0),
    };
    inc_greedy(&counting, cfg);
    (counting.rows.get(), counting.pairs.get())
}

/// FNV-1a over every row of `view`: its representative, length, ids and
/// distance bits, little-endian.
fn rows_digest(view: &ClusteredProvider) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for i in 0..view.site_count() {
        let row = view.covered(i);
        eat(&view.site_node(i).0.to_le_bytes());
        eat(&(row.len() as u32).to_le_bytes());
        row.ids.iter().for_each(|id| eat(&id.to_le_bytes()));
        row.dists
            .iter()
            .for_each(|d| eat(&d.to_bits().to_le_bytes()));
    }
    h
}

fn median_us(mut samples: Vec<Duration>) -> f64 {
    samples.sort();
    samples[samples.len() / 2].as_secs_f64() * 1e6
}

/// The solver's answer against Algorithm 1's: same sites in the same
/// order and the same coverage count for every ψ. Binary gains are small
/// integers and must match bit for bit; graded gains are sums Algorithm 1
/// maintains by subtraction and the solver recomputes from the row, so
/// they agree to rounding (a few ulps), not to the bit.
fn assert_matches_algorithm1(solver: &Solution, reference: &Solution, binary: bool, what: &str) {
    assert_eq!(solver.site_indices, reference.site_indices, "{what}: sites");
    assert_eq!(solver.covered, reference.covered, "{what}: covered");
    let gains = solver.gains.iter().zip(&reference.gains);
    for (&a, &b) in gains.chain([(&solver.utility, &reference.utility)]) {
        let equal = if binary {
            a.to_bits() == b.to_bits()
        } else {
            (a - b).abs() <= 1e-12 * b.abs()
        };
        assert!(equal, "{what}: gain {a} vs Algorithm 1's {b}");
    }
}

fn main() {
    let mut scale = 0.25;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--scale takes a number");
            }
            other => panic!("unknown argument {other}; usage: solve_profile [--scale S]"),
        }
    }

    // The benchmark's city and index configuration.
    let scenario = beijing_like(&ScenarioConfig::with_scale(scale));
    println!("dataset : {}", scenario.summary());
    let index = NetClusIndex::build(
        &scenario.net,
        &scenario.trajectories,
        &scenario.sites,
        NetClusConfig {
            tau_min: 400.0,
            tau_max: 3_200.0,
            threads: 2,
            ..Default::default()
        },
    );
    let bound = scenario.trajectories.id_bound();
    let psis = [
        ("binary", PreferenceFunction::Binary),
        ("linear", PreferenceFunction::LinearDecay),
        (
            "convex2",
            PreferenceFunction::ConvexProbability { alpha: 2.0 },
        ),
    ];

    let mut scratch = ProviderScratch::default();
    let mut digests = Vec::new();
    for (p, instance) in index.instances().iter().enumerate() {
        // Mid-band: the view cuts every row, as almost every served τ does.
        let gamma = index.config().gamma;
        let tau = index.config().tau_min * (1.0 + gamma).powi(p as i32) * (1.0 + gamma / 2.0);
        assert_eq!(index.instance_for(tau), p, "τ={tau} is not in band {p}");
        let ceiling = ProviderRows::built_tau_for(instance, tau);
        let [(build1_us, rows), (build2_us, rows2)] = [1, 2].map(|threads| {
            let samples = (0..SAMPLES)
                .map(|_| {
                    let t = Instant::now();
                    let fresh = &mut ProviderScratch::default();
                    std::hint::black_box(ProviderRows::build_with(
                        instance, ceiling, bound, threads, fresh,
                    ));
                    t.elapsed()
                })
                .collect();
            let rows = ProviderRows::build_with(instance, ceiling, bound, threads, &mut scratch);
            (median_us(samples), Arc::new(rows))
        });
        let digest = rows_digest(&rows.view(ceiling));
        assert_eq!(
            digest,
            rows_digest(&rows2.view(ceiling)),
            "instance {p}: rows differ across thread counts"
        );
        digests.push(digest);
        let view_us = median_us(
            (0..SAMPLES)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(rows.view(tau));
                    t.elapsed()
                })
                .collect(),
        );
        let view = rows.view(tau);
        let n = view.site_count();
        println!(
            "\ninstance {p}: {n} rows, {} pairs at the ceiling τ={ceiling:.0}; \
             view at τ={tau:.0}: {} pairs, {view_us:.0} µs",
            rows.pair_count(),
            view.pair_count(),
        );
        println!(
            "  build µs (fresh scratch) 1 thread {build1_us:.0}, 2 threads {build2_us:.0}; \
             rows digest {digest:016x}"
        );
        println!("  ψ        k | init µs | rounds µs | re-evaluated rows | pairs walked");

        // Algorithm 1 needs `SC`: run it on a copy of the view's rows.
        let reference = ReferenceProvider::with_nodes(
            bound,
            (0..n).map(|i| view.covered(i).to_pairs()).collect(),
            (0..n).map(|i| view.site_node(i)).collect(),
        );
        for (name, preference) in psis {
            let run = |k: usize| {
                let cfg = TopsQuery { k, tau, preference };
                let expected = algorithm1_greedy(&reference, &cfg, &[], None);
                let what = format!("instance {p} {name} k={k}");
                let samples = (0..SAMPLES)
                    .map(|_| {
                        let solution = inc_greedy(&view, &cfg);
                        assert_matches_algorithm1(
                            &solution,
                            &expected,
                            preference.is_binary(),
                            &what,
                        );
                        solution.elapsed
                    })
                    .collect();
                let picks = expected.gains.iter().filter(|&&g| g > 0.0).count();
                (median_us(samples), reads(&view, &cfg), picks)
            };
            let (init_us, (init_rows, init_pairs), _) = run(0);
            assert_eq!(init_rows, n, "initialisation reads each row once");
            for k in KS {
                let (total_us, (rows_read, pairs_read), picks) = run(k);
                println!(
                    "  {name:<8}{k:>2} | {init_us:>7.0} | {:>9.0} | {:>17} | {:>12}",
                    (total_us - init_us).max(0.0),
                    rows_read - init_rows - picks,
                    pairs_read - init_pairs,
                );
            }
        }
    }
    println!("\nrows digests: {digests:016x?}");
    println!("every sample matched Algorithm 1");
}
