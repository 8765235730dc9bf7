//! Inc-Greedy: the `(1 − 1/e)`-approximate greedy for TOPS (paper Sec. 3.3,
//! Algorithm 1).
//!
//! The utility `U(Q) = Σ_j max_{s∈Q} ψ(T_j, s)` is monotone submodular
//! (paper Th. 2), so iteratively adding the site of maximal marginal gain
//! achieves `max{1 − 1/e, k/n}` of the optimum (Th. 3), breaking ties by
//! max gain → max weight `w_i = Σ_j ψ(T_j, s_i)` → highest index.
//!
//! **One solver serves every path.** [`inc_greedy`], [`inc_greedy_from`]
//! and [`inc_greedy_seeded`] run the CELF evaluation of that greedy: each
//! unselected site sits in a max-heap keyed by `(gain, w_i, index)` with the
//! gain it had when last evaluated, and only the top of the heap is
//! re-evaluated until a freshly evaluated entry stays on top. A stale entry
//! is a valid upper bound on the site's current gain because trajectory
//! utilities only grow as sites are added, so `Σ_j max(0, ψ_ji − U_j)` only
//! shrinks (submodularity, Th. 2); a fresh entry that still beats every
//! bound below it is therefore the true argmax, and a stale entry that ties
//! it on gain but wins on weight or index is popped first, refreshed, and —
//! its gain being unchanged on a genuine tie — selected first, exactly as
//! the paper's argmax would. Gains are always recomputed from the `TC` row
//! and the current utilities, in row order, so an answer's `gains` and
//! `utility` bits depend only on the rows and the selection sequence —
//! which is what makes "sharded ≡ monolithic" hold bit-for-bit for every ψ
//! (`crates/core/tests/shard_proptests.rs`). The solver reads `TC` rows
//! ([`RowsView::row`]) and nothing else.
//!
//! **One solver, two inner loops, chosen once per solve.** What CELF does
//! with a row — weigh it, re-evaluate its gain, fold it in — sits behind a
//! private kernel. Graded ψ and every seeded run score each pair against an
//! `f64` utility per trajectory, as above. Binary ψ without seed utilities
//! is a count: a trajectory is served or it is not, so a row's weight is
//! the length of its within-τ prefix (rows ascend by distance; a
//! [`ClusteredProvider`](crate::query::ClusteredProvider) view hands over
//! exactly that prefix, a longer row is cut by `PairSlice::len_within`),
//! its gain the number of unserved ids in it, coverage one flag per
//! trajectory, and no distance is read once the weights are known. The count equals the
//! scored sum bit for bit: every non-zero term of that sum is exactly `1.0`
//! and adding ones is exact below 2⁵³. `existing` sites take the same path.
//!
//! **The paper's Algorithm 1 is the reference.** [`algorithm1_greedy`]
//! keeps the pseudo-code as printed — a marginal-utility array decremented
//! through the inverted `SC` lists after every pick (with `α_ji` recomputed
//! from `ψ_ji` and `U_j` instead of materialized) — as the oracle that
//! `crates/core/tests/lazy_greedy_proptests.rs` pins the solver to, site
//! for site, and as the INCG baseline of the paper-figure experiments. It
//! is the only reader of `SC`, hence its [`InvertedCoverage`] bound, and
//! nothing on a served path calls it.
//!
//! **One machine-code copy.** The solver is written against the one rows
//! type every provider hands out, a [`RowsView`], not against
//! [`CoverageProvider`]: exact TOPS (over [`CoverageIndex`]), TOPS-Cluster
//! (over cluster representatives, paper Sec. 5.1) and the sharded round-2
//! merge all run the same compiled kernel. [`inc_greedy`] and its siblings
//! stay generic over the provider only as one-line shims that take its
//! view; Algorithm 1 stays generic over [`InvertedCoverage`], since it
//! also walks `SC`.
//!
//! [`CoverageIndex`]: crate::coverage::CoverageIndex

use std::collections::BinaryHeap;
use std::time::Instant;

use netclus_trajectory::TrajId;

use crate::arena::PairSlice;
use crate::coverage::{CoverageProvider, InvertedCoverage, RowsView};
use crate::query::TopsQuery;
use crate::solution::Solution;

/// Parameters of a greedy TOPS run: the query `(k, τ, ψ)` itself.
pub type GreedyConfig = TopsQuery;

/// Runs Inc-Greedy over `provider`, selecting `cfg.k` sites.
pub fn inc_greedy<P: CoverageProvider>(provider: &P, cfg: &GreedyConfig) -> Solution {
    celf_greedy(provider.rows(), cfg, &[], None)
}

/// Inc-Greedy with existing services (paper Sec. 7.3): the sites at
/// `existing` (provider indices) are treated as already deployed — `Q_0 =
/// ES` — and `cfg.k` *additional* sites are selected. The `(1 − 1/e)` bound
/// holds on the extra utility.
pub fn inc_greedy_from<P: CoverageProvider>(
    provider: &P,
    cfg: &GreedyConfig,
    existing: &[usize],
) -> Solution {
    celf_greedy(provider.rows(), cfg, existing, None)
}

/// Inc-Greedy seeded with per-trajectory baseline utilities — the general
/// form of existing-services support (Sec. 7.3) for when the existing
/// facilities are *not* part of the provider's candidate set (e.g. NetClus
/// queries where deployed services sit at arbitrary network nodes, not at
/// cluster representatives). `seed_utilities[j]` is the utility trajectory
/// `j` already enjoys; the solver maximizes (and reports) the *extra*
/// utility on top of it.
///
/// # Panics
/// Panics if `seed_utilities.len() != provider.traj_id_bound()`.
pub fn inc_greedy_seeded<P: CoverageProvider>(
    provider: &P,
    cfg: &GreedyConfig,
    seed_utilities: &[f64],
) -> Solution {
    celf_greedy(provider.rows(), cfg, &[], Some(seed_utilities))
}

/// The paper's Algorithm 1 as printed — the **reference implementation**
/// the solver behind [`inc_greedy`] is tested against and the INCG baseline
/// of the paper-figure experiments; see the module docs. `existing` and
/// `seed_utilities` mean what they mean to [`inc_greedy_from`] and
/// [`inc_greedy_seeded`] (pass `&[]` / `None` for the plain run).
///
/// # Panics
/// Panics if `seed_utilities` is given with a length other than
/// `provider.traj_id_bound()`.
pub fn algorithm1_greedy<P: InvertedCoverage>(
    provider: &P,
    cfg: &GreedyConfig,
    existing: &[usize],
    seed_utilities: Option<&[f64]>,
) -> Solution {
    check_inputs(provider.rows(), cfg, seed_utilities);
    let start = Instant::now();
    eager_greedy(provider, cfg, existing, seed_utilities).solution(provider.rows(), start)
}

fn check_inputs(rows: RowsView<'_>, cfg: &GreedyConfig, seed_utilities: Option<&[f64]>) {
    assert!(cfg.preference.validate().is_ok(), "invalid preference");
    if let Some(seed) = seed_utilities {
        assert_eq!(
            seed.len(),
            rows.traj_id_bound(),
            "one seed utility per trajectory id required"
        );
    }
}

struct GreedyState {
    selected: Vec<usize>,
    gains: Vec<f64>,
    /// Trajectories with positive utility, seeds and `existing` included.
    covered: usize,
}

impl GreedyState {
    /// The selection as a [`Solution`] over `rows`, timed from `start`.
    fn solution(self, rows: RowsView<'_>, start: Instant) -> Solution {
        Solution {
            sites: self.selected.iter().map(|&i| rows.site_node(i)).collect(),
            site_indices: self.selected,
            utility: self.gains.iter().sum(),
            gains: self.gains,
            covered: self.covered,
            elapsed: start.elapsed(),
        }
    }
}

/// Site weights `w_i = Σ_j ψ(T_j, s_i)`: the static tie-breaking key and,
/// while every utility is zero, the marginal gains. Summed over the
/// distance array of each row alone, in row order.
fn site_weights(rows: RowsView<'_>, cfg: &GreedyConfig) -> Vec<f64> {
    (0..rows.site_count())
        .map(|i| {
            rows.row(i)
                .dists
                .iter()
                .map(|&d| cfg.preference.score(d, cfg.tau))
                .sum()
        })
        .collect()
}

/// Marginal gain of site `i` under `utilities`: `Σ_j max(0, ψ_ji − U_j)`
/// over its row, in row order.
fn gain_of(rows: RowsView<'_>, cfg: &GreedyConfig, i: usize, utilities: &[f64]) -> f64 {
    rows.row(i)
        .iter()
        .map(|(tj, d)| (cfg.preference.score(d, cfg.tau) - utilities[tj as usize]).max(0.0))
        .sum()
}

fn positive(utilities: &[f64]) -> usize {
    utilities.iter().filter(|&&u| u > 0.0).count()
}

/// The inner loops of one solve: what [`celf`] does with a `TC` row.
trait Kernel {
    /// The marginal gain of site `i` over what is selected so far.
    fn gain(&self, i: usize) -> f64;
    /// Folds site `i` into the solution.
    fn select(&mut self, i: usize);
    /// Trajectories with positive utility.
    fn covered(&self) -> usize;
}

/// The generic kernel: ψ scored per pair against an `f64` utility per
/// trajectory. Serves every graded ψ and every seeded run.
struct Scored<'a> {
    rows: RowsView<'a>,
    cfg: &'a GreedyConfig,
    utilities: Vec<f64>,
}

impl Kernel for Scored<'_> {
    fn gain(&self, i: usize) -> f64 {
        gain_of(self.rows, self.cfg, i, &self.utilities)
    }

    fn select(&mut self, i: usize) {
        for (tj, d) in self.rows.row(i).iter() {
            let score = self.cfg.preference.score(d, self.cfg.tau);
            if score > self.utilities[tj as usize] {
                self.utilities[tj as usize] = score;
            }
        }
    }

    fn covered(&self) -> usize {
        positive(&self.utilities)
    }
}

/// The counting kernel for binary ψ without seed utilities (module docs):
/// one served flag per trajectory, and no distance read after the weights.
struct Counted<'a> {
    rows: RowsView<'a>,
    /// τ if some row runs past it; `None` when every row is whole.
    cut_at: Option<f64>,
    served: Vec<bool>,
}

/// `count` as the `f64` [`Scored`] sums to over `row`: that many ones and
/// otherwise zeros, added to `Sum`'s identity `-0.0` — which only a row
/// holding no pair at all, within τ or past it, returns.
fn count_as_sum(row: PairSlice<'_>, count: usize) -> f64 {
    if row.is_empty() {
        -0.0
    } else {
        count as f64
    }
}

impl<'a> Counted<'a> {
    /// The kernel and the site weights: each row's within-τ length.
    fn new(rows: RowsView<'a>, tau: f64) -> (Self, Vec<f64>) {
        let mut cut_at = None;
        let weights = (0..rows.site_count())
            .map(|i| {
                let row = rows.row(i);
                let len = row.len_within(tau);
                if len < row.len() {
                    cut_at = Some(tau);
                }
                count_as_sum(row, len)
            })
            .collect();
        let kernel = Counted {
            rows,
            cut_at,
            served: vec![false; rows.traj_id_bound()],
        };
        (kernel, weights)
    }

    /// Row `i` and its within-τ ids.
    fn row(&self, i: usize) -> (PairSlice<'a>, &'a [u32]) {
        let row = self.rows.row(i);
        let ids = self
            .cut_at
            .map_or(row.ids, |tau| &row.ids[..row.len_within(tau)]);
        (row, ids)
    }
}

impl Kernel for Counted<'_> {
    fn gain(&self, i: usize) -> f64 {
        let (row, ids) = self.row(i);
        let unserved = ids.iter().filter(|&&tj| !self.served[tj as usize]);
        count_as_sum(row, unserved.count())
    }

    fn select(&mut self, i: usize) {
        for &tj in self.row(i).1 {
            self.served[tj as usize] = true;
        }
    }

    fn covered(&self) -> usize {
        self.served.iter().filter(|&&s| s).count()
    }
}

/// The served solver, one compiled copy under every provider: picks the
/// kernel for this solve, runs [`celf`] on it, and reports the selection.
fn celf_greedy(
    rows: RowsView<'_>,
    cfg: &GreedyConfig,
    existing: &[usize],
    seed_utilities: Option<&[f64]>,
) -> Solution {
    check_inputs(rows, cfg, seed_utilities);
    let start = Instant::now();
    let state = if cfg.preference.is_binary() && seed_utilities.is_none() {
        let (kernel, weights) = Counted::new(rows, cfg.tau);
        celf(kernel, &weights, cfg.k, existing, false)
    } else {
        let kernel = Scored {
            rows,
            cfg,
            utilities: match seed_utilities {
                Some(seed) => seed.to_vec(),
                None => vec![0.0f64; rows.traj_id_bound()],
            },
        };
        let weights = site_weights(rows, cfg);
        celf(kernel, &weights, cfg.k, existing, seed_utilities.is_some())
    };
    state.solution(rows, start)
}

/// CELF evaluation of Inc-Greedy (module docs), one site per entry of
/// `weights`; `seeded` says the kernel starts from non-zero utilities.
///
/// The heap orders by `(gain, static weight w_i, index)`, where `w_i` is
/// the weight Algorithm 1 breaks ties on — **not** the initial marginal,
/// which differs from `w_i` under seed utilities or existing services.
fn celf<K: Kernel>(
    mut kernel: K,
    weights: &[f64],
    k: usize,
    existing: &[usize],
    seeded: bool,
) -> GreedyState {
    #[derive(PartialEq)]
    struct Entry {
        gain: f64,
        weight: f64,
        idx: usize,
        round: usize,
    }
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            self.gain
                .total_cmp(&o.gain)
                .then(self.weight.total_cmp(&o.weight))
                .then(self.idx.cmp(&o.idx))
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }

    let n = weights.len();
    let mut chosen = vec![false; n];
    for &e in existing {
        assert!(e < n, "existing site index {e} out of range");
        if !chosen[e] {
            chosen[e] = true;
            kernel.select(e);
        }
    }

    // With no seed and no existing services every utility is zero, so the
    // initial gain is exactly the weight ((ψ − 0).max(0) ≡ ψ, summed in
    // the same row order) — skip the second full pass over the rows.
    let warm = !seeded && existing.is_empty();
    let mut heap: BinaryHeap<Entry> = (0..n)
        .filter(|&i| !chosen[i])
        .map(|i| Entry {
            gain: if warm { weights[i] } else { kernel.gain(i) },
            weight: weights[i],
            idx: i,
            round: 0,
        })
        .collect();

    // Algorithm 1's selection budget (it subtracts the raw `existing`
    // length), so the solver and its reference stop after the same picks.
    let budget = k.min(n.saturating_sub(existing.len()));
    let mut selected = Vec::with_capacity(budget);
    let mut gains = Vec::with_capacity(budget);
    let mut round = 0usize;
    while selected.len() < budget {
        let Some(top) = heap.pop() else { break };
        if top.round == round {
            // Fresh value: select it.
            selected.push(top.idx);
            gains.push(top.gain.max(0.0));
            if top.gain > 0.0 {
                kernel.select(top.idx);
            }
            round += 1;
        } else {
            // Stale: refresh and push back.
            heap.push(Entry {
                gain: kernel.gain(top.idx),
                round,
                ..top
            });
        }
    }

    GreedyState {
        selected,
        gains,
        covered: kernel.covered(),
    }
}

/// The reference: the paper's Algorithm 1, eager marginal-utility
/// maintenance through `SC`.
fn eager_greedy<P: InvertedCoverage>(
    provider: &P,
    cfg: &GreedyConfig,
    existing: &[usize],
    seed_utilities: Option<&[f64]>,
) -> GreedyState {
    let n = provider.site_count();
    let mut utilities = match seed_utilities {
        Some(seed) => seed.to_vec(),
        None => vec![0.0f64; provider.traj_id_bound()],
    };
    let rows = provider.rows();
    let weights = site_weights(rows, cfg);
    let mut marginal = match seed_utilities {
        None => weights.clone(),
        Some(_) => (0..n).map(|i| gain_of(rows, cfg, i, &utilities)).collect(),
    };
    let mut chosen = vec![false; n];

    // Existing services: fold their coverage in before the k iterations.
    for &e in existing {
        assert!(e < n, "existing site index {e} out of range");
        if !chosen[e] {
            chosen[e] = true;
            apply_selection(provider, cfg, e, &mut utilities, &mut marginal, &chosen);
        }
    }

    let mut selected = Vec::with_capacity(cfg.k);
    let mut gains = Vec::with_capacity(cfg.k);
    for _ in 0..cfg.k.min(n.saturating_sub(existing.len())) {
        // Paper tie-breaking: max marginal gain, then max weight, then
        // highest index.
        let mut best: Option<usize> = None;
        for i in 0..n {
            if chosen[i] {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => {
                    marginal[i] > marginal[b]
                        || (marginal[i] == marginal[b]
                            && (weights[i] > weights[b] || (weights[i] == weights[b] && i > b)))
                }
            };
            if better {
                best = Some(i);
            }
        }
        let Some(s) = best else { break };
        chosen[s] = true;
        selected.push(s);
        gains.push(marginal[s].max(0.0));
        if marginal[s] > 0.0 {
            apply_selection(provider, cfg, s, &mut utilities, &mut marginal, &chosen);
        }
    }

    GreedyState {
        selected,
        gains,
        covered: positive(&utilities),
    }
}

/// Folds site `s` into the solution: raise trajectory utilities and push
/// the marginal-utility deltas to all sites covering an improved trajectory
/// (the paper's lines 11–17, with `α_ji` recomputed instead of stored).
fn apply_selection<P: InvertedCoverage>(
    provider: &P,
    cfg: &GreedyConfig,
    s: usize,
    utilities: &mut [f64],
    marginal: &mut [f64],
    chosen: &[bool],
) {
    for (tj, d) in provider.covered(s).iter() {
        let score = cfg.preference.score(d, cfg.tau);
        let old_u = utilities[tj as usize];
        if score <= old_u {
            continue;
        }
        for (si, d2) in provider.covering(TrajId(tj)).iter() {
            let si = si as usize;
            if chosen[si] {
                continue;
            }
            let psi = cfg.preference.score(d2, cfg.tau);
            let delta = (psi - old_u).max(0.0) - (psi - score).max(0.0);
            if delta > 0.0 {
                marginal[si] -= delta;
            }
        }
        utilities[tj as usize] = score;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::ReferenceProvider;
    use crate::preference::PreferenceFunction;

    /// The paper's Example 1 (Tables 2 & 3): ψ values realized through
    /// linear decay with τ = 1000:
    ///   ψ(T1,s1)=0.4, ψ(T1,s2)=0.11, ψ(T1,s3)=0
    ///   ψ(T2,s1)=0,   ψ(T2,s2)=0.5,  ψ(T2,s3)=0.6
    fn example1() -> ReferenceProvider {
        let d = |psi: f64| (1.0 - psi) * 1000.0; // invert linear decay
        ReferenceProvider::new(
            2,
            vec![
                vec![(0, d(0.4))],
                vec![(0, d(0.11)), (1, d(0.5))],
                vec![(1, d(0.6))],
            ],
        )
    }

    fn linear_cfg(k: usize) -> GreedyConfig {
        GreedyConfig {
            k,
            tau: 1000.0,
            preference: PreferenceFunction::LinearDecay,
        }
    }

    #[test]
    fn example1_greedy_picks_s2_then_s1() {
        // Paper Table 3: Inc-Greedy selects {s1, s2} with utility 0.9
        // (s2 first with gain 0.61, then s1 with gain 0.29).
        let p = example1();
        let sol = inc_greedy(&p, &linear_cfg(2));
        assert_eq!(sol.site_indices, vec![1, 0]);
        assert!((sol.utility - 0.9).abs() < 1e-9, "utility {}", sol.utility);
        assert!((sol.gains[0] - 0.61).abs() < 1e-9);
        assert!((sol.gains[1] - 0.29).abs() < 1e-9);
        assert_eq!(sol.covered, 2);
    }

    #[test]
    fn example1_lazy_matches_eager() {
        let p = example1();
        let reference = algorithm1_greedy(&p, &linear_cfg(2), &[], None);
        assert_eq!(reference.site_indices, vec![1, 0]);
        assert!((reference.utility - 0.9).abs() < 1e-9);
        assert_eq!(
            inc_greedy(&p, &linear_cfg(2)).site_indices,
            reference.site_indices
        );
    }

    #[test]
    fn k_one_picks_max_weight_site() {
        let p = example1();
        let sol = inc_greedy(&p, &linear_cfg(1));
        assert_eq!(sol.site_indices, vec![1]); // s2, weight 0.61
        assert!((sol.utility - 0.61).abs() < 1e-9);
    }

    #[test]
    fn k_larger_than_n_selects_all() {
        let p = example1();
        let sol = inc_greedy(&p, &linear_cfg(10));
        assert_eq!(sol.site_indices.len(), 3);
        assert!((sol.utility - 1.0).abs() < 1e-9); // 0.4 + 0.6
    }

    #[test]
    fn binary_greedy_counts_distinct_coverage() {
        // Site 0 covers {T0, T1}; site 1 covers {T1, T2}; site 2 covers {T2}.
        let p = ReferenceProvider::new(
            3,
            vec![
                vec![(0, 0.0), (1, 0.0)],
                vec![(1, 0.0), (2, 0.0)],
                vec![(2, 0.0)],
            ],
        );
        let sol = inc_greedy(&p, &GreedyConfig::binary(2, 100.0));
        assert_eq!(sol.utility, 3.0);
        // First pick ties at weight 2: highest index wins per the paper.
        assert_eq!(sol.site_indices[0], 1);
        assert_eq!(sol.covered, 3);
    }

    #[test]
    fn tie_breaks_prefer_higher_weight_then_higher_index() {
        // Sites 0 and 2 tie on marginal gain AND weight (2) in round one:
        // the paper picks the highest index → site 2. In round two, sites 0
        // and 1 tie on marginal gain (1) but site 0 has the larger raw
        // weight → site 0.
        let p = ReferenceProvider::new(
            4,
            vec![
                vec![(0, 0.0), (1, 0.0)],
                vec![(2, 0.0)],
                vec![(1, 0.0), (3, 0.0)],
            ],
        );
        let sol = inc_greedy(&p, &GreedyConfig::binary(2, 100.0));
        assert_eq!(sol.site_indices, vec![2, 0]);
    }

    #[test]
    fn existing_services_shift_marginals() {
        // ES = {site 1}. T1, T2 already covered; best addition covers T0.
        let p = ReferenceProvider::new(
            3,
            vec![
                vec![(0, 0.0), (1, 0.0)],
                vec![(1, 0.0), (2, 0.0)],
                vec![(1, 0.0), (2, 0.0)],
            ],
        );
        let cfg = GreedyConfig::binary(1, 100.0);
        let sol = inc_greedy_from(&p, &cfg, &[1]);
        assert_eq!(sol.site_indices, vec![0]);
        // Utility counts only the gain over the existing services.
        assert_eq!(sol.utility, 1.0);
        // Covered reflects all covered trajectories including ES coverage.
        assert_eq!(sol.covered, 3);
    }

    #[test]
    fn greedy_respects_submodular_gain_ordering() {
        // Gains must be non-increasing (Theorem 2 consequence).
        let p = ReferenceProvider::new(
            6,
            vec![
                vec![(0, 0.0), (1, 0.0), (2, 0.0)],
                vec![(2, 0.0), (3, 0.0)],
                vec![(4, 0.0)],
                vec![(5, 0.0), (0, 0.0)],
            ],
        );
        let sol = inc_greedy(&p, &GreedyConfig::binary(4, 100.0));
        for w in sol.gains.windows(2) {
            assert!(w[0] >= w[1] - 1e-9, "gains increased: {:?}", sol.gains);
        }
    }

    #[test]
    fn seeded_greedy_equals_existing_when_seed_matches_coverage() {
        // Seeding with exactly site 1's coverage must reproduce
        // inc_greedy_from with existing = [1] (site 1 stays selectable but
        // adds no gain, so it is never picked while better options exist).
        let p = ReferenceProvider::new(
            3,
            vec![
                vec![(0, 0.0), (1, 0.0)],
                vec![(1, 0.0), (2, 0.0)],
                vec![(2, 0.0)],
            ],
        );
        let cfg = GreedyConfig::binary(1, 100.0);
        let from = inc_greedy_from(&p, &cfg, &[1]);
        let seeded = inc_greedy_seeded(&p, &cfg, &[0.0, 1.0, 1.0]);
        assert_eq!(from.site_indices, seeded.site_indices);
        assert_eq!(from.utility, seeded.utility);
    }

    #[test]
    fn seeded_greedy_counts_only_extra_utility() {
        let p = ReferenceProvider::new(2, vec![vec![(0, 0.0), (1, 0.0)]]);
        // T0 already enjoys utility 1.0 → only T1 contributes gain.
        let sol = inc_greedy_seeded(&p, &GreedyConfig::binary(1, 100.0), &[1.0, 0.0]);
        assert_eq!(sol.utility, 1.0);
        assert_eq!(sol.site_indices, vec![0]);
        // Graded seed: partial prior coverage leaves partial gain.
        let sol = inc_greedy_seeded(&p, &GreedyConfig::binary(1, 100.0), &[0.25, 0.5]);
        assert!((sol.utility - (0.75 + 0.5)).abs() < 1e-9);
    }

    #[test]
    fn seeded_lazy_matches_seeded_eager() {
        let p = ReferenceProvider::new(
            4,
            vec![
                vec![(0, 0.0), (1, 100.0)],
                vec![(2, 0.0), (3, 200.0)],
                vec![(1, 0.0)],
            ],
        );
        let seed = vec![0.2, 0.9, 0.0, 0.4];
        let eager = algorithm1_greedy(&p, &linear_cfg(2), &[], Some(&seed));
        let lazy = inc_greedy_seeded(&p, &linear_cfg(2), &seed);
        assert_eq!(eager.site_indices, lazy.site_indices);
        assert!((eager.utility - lazy.utility).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one seed utility per trajectory")]
    fn seeded_greedy_rejects_wrong_length() {
        let p = ReferenceProvider::new(3, vec![vec![(0, 0.0)]]);
        inc_greedy_seeded(&p, &GreedyConfig::binary(1, 100.0), &[0.0]);
    }

    #[test]
    fn zero_k_returns_empty() {
        let p = example1();
        let sol = inc_greedy(&p, &linear_cfg(0));
        assert!(sol.site_indices.is_empty());
        assert_eq!(sol.utility, 0.0);
    }

    /// Bitwise equality of two runs: sites in order, gains, utility and
    /// coverage count.
    fn assert_identical(a: &Solution, b: &Solution, what: &str) {
        assert_eq!(a.site_indices, b.site_indices, "{what}: sites");
        let bits = |s: &Solution| s.gains.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a), bits(b), "{what}: gains");
        assert_eq!(a.utility.to_bits(), b.utility.to_bits(), "{what}: utility");
        assert_eq!(a.covered, b.covered, "{what}: covered");
    }

    /// Rows that run past τ = 100 (the `partition_point` cut, inclusive at
    /// τ), an empty row, a row wholly past τ, and three sites of weight 2.
    fn rows_past_tau() -> ReferenceProvider {
        ReferenceProvider::new(
            7,
            vec![
                vec![(0, 10.0), (1, 20.0), (2, 150.0)],
                vec![],
                vec![(2, 30.0), (3, 100.0), (4, 100.5)],
                vec![(0, 5.0), (1, 6.0)],
                vec![(5, 120.0), (6, 130.0)],
            ],
        )
    }

    #[test]
    fn binary_counts_only_the_within_tau_prefix() {
        let p = rows_past_tau();
        let sol = inc_greedy(&p, &GreedyConfig::binary(9, 100.0));
        // Weights 2, −0, 2, 2, 0 (whole rows would weigh 3, 0, 3, 2, 2):
        // the three-way tie goes to the highest index, then site 2 still
        // gains 2, then zero gains fall back on weight, then index.
        assert_eq!(sol.site_indices, vec![3, 2, 0, 4, 1]);
        assert_eq!(sol.gains[..3], [2.0, 2.0, 0.0]);
        assert_eq!((sol.utility, sol.covered), (4.0, 4));
    }

    #[test]
    fn binary_kernel_equals_algorithm1_on_rows_past_tau() {
        let p = rows_past_tau();
        for existing in [&[][..], &[3], &[2, 2, 0], &[1, 4]] {
            for k in [1, 2, 3, 5, 9] {
                let cfg = GreedyConfig::binary(k, 100.0);
                let what = format!("k={k} existing={existing:?}");
                let reference = algorithm1_greedy(&p, &cfg, existing, None);
                assert_identical(&inc_greedy_from(&p, &cfg, existing), &reference, &what);
            }
        }
    }

    /// Random sorted rows over τ = 100 with distances up to 150; a
    /// non-empty row keeps its nearest pair within τ.
    fn random_rows_past_tau(rng: &mut impl rand::RngExt) -> ReferenceProvider {
        let m: usize = rng.random_range(1..40);
        let n = rng.random_range(1..25);
        let tc = (0..n)
            .map(|_| {
                let mut row: Vec<(u32, f64)> = (0..m as u32)
                    .filter_map(|t| {
                        let d = rng.random_range(0u32..=600);
                        (d <= 150).then_some((t, d as f64))
                    })
                    .collect();
                row.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                if let Some(first) = row.first_mut() {
                    first.1 = first.1.min(100.0);
                }
                row
            })
            .collect();
        ReferenceProvider::new(m, tc)
    }

    #[test]
    fn binary_kernel_equals_algorithm1_on_random_rows_past_tau() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        for trial in 0..200 {
            let p = random_rows_past_tau(&mut rng);
            let n = p.site_count();
            let cfg = GreedyConfig::binary(rng.random_range(1..n + 3), 100.0);
            let existing: Vec<usize> = (0..rng.random_range(0..3))
                .map(|_| rng.random_range(0..n))
                .collect();
            let reference = algorithm1_greedy(&p, &cfg, &existing, None);
            let what = format!("trial {trial} k={} existing={existing:?}", cfg.k);
            assert_identical(&inc_greedy_from(&p, &cfg, &existing), &reference, &what);
        }
    }

    #[test]
    fn binary_seeded_with_fractional_seeds_equals_algorithm1() {
        // Seed utilities make binary ψ graded (gain 1 − U_j): the scored
        // kernel's case. Dyadic seeds keep every sum exact.
        let p = rows_past_tau();
        let seed = [0.25, 0.0, 0.5, 1.0, 0.0, 0.75, 0.0];
        for k in [1, 3, 9] {
            let cfg = GreedyConfig::binary(k, 100.0);
            let reference = algorithm1_greedy(&p, &cfg, &[], Some(&seed));
            let seeded = inc_greedy_seeded(&p, &cfg, &seed);
            assert_identical(&seeded, &reference, &format!("k={k}"));
            assert_eq!(seeded.gains[0], 1.75, "T0 and T1 add 0.75 + 1");
        }
    }

    #[test]
    fn lazy_matches_eager_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        for trial in 0..25 {
            let m: usize = rng.random_range(1..40);
            let n = rng.random_range(1..25);
            let tc: Vec<Vec<(u32, f64)>> = (0..n)
                .map(|_| {
                    let cnt = rng.random_range(0..m.min(12));
                    let mut tjs: Vec<u32> = (0..m as u32).collect();
                    // Partial shuffle for a random subset.
                    for i in 0..cnt {
                        let j = rng.random_range(i..m);
                        tjs.swap(i, j);
                    }
                    let mut list: Vec<(u32, f64)> = tjs[..cnt]
                        .iter()
                        .map(|&t| (t, rng.random_range(0.0..1000.0)))
                        .collect();
                    list.sort_by(|a, b| a.1.total_cmp(&b.1));
                    list
                })
                .collect();
            let p = ReferenceProvider::new(m, tc);
            let cfg = linear_cfg(rng.random_range(1..6));
            let eager = algorithm1_greedy(&p, &cfg, &[], None);
            let lazy = inc_greedy(&p, &cfg);
            assert!(
                (eager.utility - lazy.utility).abs() < 1e-6,
                "trial {trial}: eager {} vs lazy {}",
                eager.utility,
                lazy.utility
            );
        }
    }
}
