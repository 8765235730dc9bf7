//! Inc-Greedy: the `(1 − 1/e)`-approximate greedy for TOPS (paper Sec. 3.3,
//! Algorithm 1), and the CELF machine every greedy of this crate runs on.
//!
//! The utility `U(Q) = Σ_j max_{s∈Q} ψ(T_j, s)` is monotone submodular
//! (paper Th. 2), so iteratively adding the site of maximal marginal gain
//! achieves `max{1 − 1/e, k/n}` of the optimum (Th. 3), breaking ties by
//! max gain → max weight `w_i = Σ_j ψ(T_j, s_i)` → highest index.
//!
//! **One solver serves every path.** [`inc_greedy`] and its siblings run
//! the CELF evaluation of that greedy: each unselected site sits in a
//! max-heap keyed by `(gain, w_i, index)` with its gain when last
//! evaluated, and only the top is re-evaluated until a fresh entry stays on
//! top. Utilities only grow, so `Σ_j max(0, ψ_ji − U_j)` only shrinks
//! (Th. 2) and a stale entry bounds its site's gain: a fresh top is the
//! paper's argmax, ties included. Gains are recomputed from the `TC` row in
//! row order and summed from `+0.0`, so an answer's bits depend only on the
//! rows and the picks, which makes "sharded ≡ monolithic" hold bit for bit.
//! TOPS-COST, TOPS-CAPACITY and TOPS4 ([`crate::cost`], [`crate::capacity`],
//! `market`) run on the same machine, each from its own entry with its own
//! kernel or rule: how it ranks, drops and stops. So does the offline
//! phase: Greedy-GDSP ([`crate::gdsp`]) picks its cluster centers with a
//! kernel over dominance balls and a rule that drops covered vertices.
//!
//! **Two served kernels, chosen once per solve.** Graded ψ and every seeded
//! run score each pair against an `f64` utility per trajectory. Binary ψ
//! without seeds counts: a row weighs its within-τ length and gains its
//! unserved ids, one flag per trajectory, bit for bit the scored sum. Both
//! read a [`RowsView`], not a [`CoverageProvider`], so exact TOPS,
//! TOPS-Cluster and the sharded round-2 merge run one compiled copy.
//!
//! **The paper's Algorithm 1 is the reference.** [`algorithm1_greedy`]
//! keeps the pseudo-code as printed — a marginal-utility array decremented
//! through the inverted `SC` lists after every pick — as the oracle that
//! `crates/core/tests/lazy_greedy_proptests.rs` pins the solver to, and as
//! the INCG baseline of the paper-figure experiments.

use std::collections::BinaryHeap;
use std::time::Instant;

use netclus_trajectory::TrajId;

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
    let rows = provider.rows();
    check_inputs(rows, cfg, seed_utilities);
    let start = Instant::now();
    let n = provider.site_count();
    let mut utilities = start_utilities(rows, seed_utilities);
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
        // Paper tie-break: max marginal gain → max weight → highest index.
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
        steps: Vec::new(),
    }
    .solution(rows, start)
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

pub(crate) struct GreedyState {
    pub(crate) selected: Vec<usize>,
    pub(crate) gains: Vec<f64>,
    /// Trajectories with positive utility, seeds and `existing` included.
    pub(crate) covered: usize,
    /// [`Solution::steps`]: recorded by [`celf`], empty from Algorithm 1.
    pub(crate) steps: Vec<(f64, usize)>,
}

impl GreedyState {
    /// The selection as a [`Solution`] over `rows`, timed from `start`.
    pub(crate) fn solution(self, rows: RowsView<'_>, start: Instant) -> Solution {
        Solution {
            sites: self.selected.iter().map(|&i| rows.site_node(i)).collect(),
            site_indices: self.selected,
            utility: sum(self.gains.iter().copied()),
            gains: self.gains,
            covered: self.covered,
            steps: self.steps,
            elapsed: start.elapsed(),
        }
    }
}

/// `terms` added in order from `+0.0`. Every gain sum starts here, not at
/// `Sum`'s negative zero, so an empty row and a row wholly past τ both
/// gain `+0.0`, and the heap's `total_cmp` ranks them as Algorithm 1's
/// `==` does.
pub(crate) fn sum(terms: impl Iterator<Item = f64>) -> f64 {
    terms.fold(0.0, |total, t| total + t)
}

/// Site weights `w_i = Σ_j ψ(T_j, s_i)`: the static tie-breaking key and,
/// while every utility is zero, the marginal gains. Summed over the
/// distance array of each row alone, in row order.
pub(crate) fn site_weights(rows: RowsView<'_>, cfg: &GreedyConfig) -> Vec<f64> {
    let psi = |&d: &f64| cfg.preference.score(d, cfg.tau);
    (0..rows.site_count())
        .map(|i| sum(rows.row(i).dists.iter().map(psi)))
        .collect()
}

/// Marginal gain of site `i` under `utilities`: `Σ_j max(0, ψ_ji − U_j)`
/// over its row, in row order.
pub(crate) fn gain_of(rows: RowsView<'_>, cfg: &GreedyConfig, i: usize, utilities: &[f64]) -> f64 {
    sum(rows
        .row(i)
        .iter()
        .map(|(tj, d)| (cfg.preference.score(d, cfg.tau) - utilities[tj as usize]).max(0.0)))
}

/// Per-trajectory utilities before any pick: the seeds, or zeros.
fn start_utilities(rows: RowsView<'_>, seed: Option<&[f64]>) -> Vec<f64> {
    seed.map_or_else(|| vec![0.0; rows.traj_id_bound()], <[f64]>::to_vec)
}

fn positive(utilities: &[f64]) -> usize {
    utilities.iter().filter(|&&u| u > 0.0).count()
}

/// What [`celf`] does with a `TC` row: the inner loops of one solve.
pub(crate) trait Kernel {
    /// Site `i`'s marginal gain over the picks so far. It only falls as
    /// sites are picked, so a stale heap entry is a bound.
    fn gain(&mut self, i: usize) -> f64;
    /// Folds site `i` in and returns how many trajectories it brought from
    /// no utility to a positive one.
    fn select(&mut self, i: usize) -> usize;
}

/// How [`celf`] ranks, drops and stops. Every default is Inc-Greedy's.
pub(crate) trait Rule {
    /// Site `i`'s heap key at `gain`, ranked before the higher index; it
    /// only falls with the gain. Inc-Greedy's is `(gain, w_i)`.
    fn key(&self, _i: usize, gain: f64, weight: f64) -> (f64, f64) {
        (gain, weight)
    }
    /// The gain a [`Rule::key`] was made from.
    fn gain_in(key: (f64, f64)) -> f64 {
        key.0
    }
    /// Whether site `i` may still be picked; `false` drops it for good.
    fn admits(&self, _i: usize) -> bool {
        true
    }
    /// Site `i`, fresh on top at `gain` with `covered` trajectories
    /// covered, is next: `false` ends the run instead.
    fn take(&mut self, _i: usize, _gain: f64, _covered: usize) -> bool {
        true
    }
}

/// Inc-Greedy's rule: max gain → max weight → highest index, `k` picks.
pub(crate) struct IncGreedy;

impl Rule for IncGreedy {}

/// The generic kernel: ψ scored per pair against an `f64` utility per
/// trajectory. Serves every graded ψ and every seeded run.
pub(crate) struct Scored<'a> {
    rows: RowsView<'a>,
    cfg: &'a GreedyConfig,
    utilities: Vec<f64>,
}

impl<'a> Scored<'a> {
    /// The kernel from the `seed` utilities, or from zero utilities.
    pub(crate) fn new(rows: RowsView<'a>, cfg: &'a GreedyConfig, seed: Option<&[f64]>) -> Self {
        let utilities = start_utilities(rows, seed);
        Scored {
            rows,
            cfg,
            utilities,
        }
    }
}

impl Kernel for Scored<'_> {
    fn gain(&mut self, i: usize) -> f64 {
        gain_of(self.rows, self.cfg, i, &self.utilities)
    }

    fn select(&mut self, i: usize) -> usize {
        let mut newly = 0;
        for (tj, d) in self.rows.row(i).iter() {
            let score = self.cfg.preference.score(d, self.cfg.tau);
            let held = &mut self.utilities[tj as usize];
            if score > *held {
                newly += usize::from(*held <= 0.0 && score > 0.0);
                *held = score;
            }
        }
        newly
    }
}

/// The counting kernel for binary ψ without seed utilities (module docs):
/// one served flag per trajectory, and no distance read after the weights.
pub(crate) struct Counted<'a> {
    rows: RowsView<'a>,
    /// τ if some row runs past it; `None` when every row is whole.
    cut_at: Option<f64>,
    served: Vec<bool>,
}

impl<'a> Counted<'a> {
    /// The kernel and the site weights: each row's within-τ length.
    pub(crate) fn new(rows: RowsView<'a>, tau: f64) -> (Self, Vec<f64>) {
        let mut cut_at = None;
        let weights = (0..rows.site_count())
            .map(|i| {
                let row = rows.row(i);
                let len = row.len_within(tau);
                if len < row.len() {
                    cut_at = Some(tau);
                }
                len as f64
            })
            .collect();
        let kernel = Counted {
            rows,
            cut_at,
            served: vec![false; rows.traj_id_bound()],
        };
        (kernel, weights)
    }

    /// Row `i`'s within-τ ids.
    fn ids(&self, i: usize) -> &'a [u32] {
        let row = self.rows.row(i);
        self.cut_at
            .map_or(row.ids, |tau| &row.ids[..row.len_within(tau)])
    }
}

impl Kernel for Counted<'_> {
    fn gain(&mut self, i: usize) -> f64 {
        let unserved = self.ids(i).iter().filter(|&&tj| !self.served[tj as usize]);
        unserved.count() as f64
    }

    fn select(&mut self, i: usize) -> usize {
        let mut newly = 0;
        for &tj in self.ids(i) {
            let served = &mut self.served[tj as usize];
            newly += usize::from(!*served);
            *served = true;
        }
        newly
    }
}

/// The served solver, one compiled copy under every provider: picks the
/// kernel for this solve and runs [`celf`] on it.
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
        celf(kernel, IncGreedy, &weights, cfg.k, existing, None)
    } else {
        let kernel = Scored::new(rows, cfg, seed_utilities);
        let weights = site_weights(rows, cfg);
        let seeded = seed_utilities.map(positive);
        celf(kernel, IncGreedy, &weights, cfg.k, existing, seeded)
    };
    state.solution(rows, start)
}

/// CELF (module docs) over one site per entry of `weights`: Inc-Greedy's
/// tie-break `w_i` — **not** the initial marginal, which differs under seed
/// utilities or existing services — and, with neither, every initial gain.
/// `seeded` counts the trajectories the kernel's seeds already cover. Each
/// pick's [`Solution::steps`] entry costs its row, no trajectory pass.
pub(crate) fn celf<K: Kernel, R: Rule>(
    mut kernel: K,
    mut rule: R,
    weights: &[f64],
    k: usize,
    existing: &[usize],
    seeded: Option<usize>,
) -> GreedyState {
    #[derive(PartialEq)]
    struct Entry {
        key: (f64, f64),
        idx: usize,
        round: usize,
    }
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            let (a, b) = (self.key, o.key);
            a.0.total_cmp(&b.0)
                .then(a.1.total_cmp(&b.1))
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
    let mut covered = seeded.unwrap_or(0);
    for &e in existing {
        assert!(e < n, "existing site index {e} out of range");
        if !chosen[e] {
            chosen[e] = true;
            covered += kernel.select(e);
        }
    }

    // With no seed and no existing services every utility is zero, so each
    // initial gain is its weight bit for bit: skip a second pass over rows.
    let warm = seeded.is_none() && existing.is_empty();
    // One allocation, heapified once (`collect` would grow by doubling).
    let mut entries = Vec::with_capacity(n);
    entries.extend((0..n).filter(|&i| !chosen[i]).map(|idx| {
        let gain = if warm { weights[idx] } else { kernel.gain(idx) };
        let key = rule.key(idx, gain, weights[idx]);
        Entry { key, idx, round: 0 }
    }));
    let mut heap = BinaryHeap::from(entries);

    // Algorithm 1's selection budget (it subtracts the raw `existing`
    // length), so the solver and its reference stop after the same picks.
    let budget = k.min(n.saturating_sub(existing.len()));
    let mut selected = Vec::with_capacity(budget);
    let mut gains = Vec::with_capacity(budget);
    // The running utility folds the gains as [`sum`] does, in pick order,
    // so each step's bits are those of a shorter run's sum.
    let mut utility = 0.0;
    let mut steps = Vec::with_capacity(budget + 1);
    steps.push((utility, covered));
    let mut round = 0usize;
    while selected.len() < budget {
        let Some(top) = heap.pop() else { break };
        if !rule.admits(top.idx) {
            continue;
        }
        if top.round == round {
            // Fresh value: select it.
            let gain = R::gain_in(top.key);
            if !rule.take(top.idx, gain, covered) {
                break;
            }
            selected.push(top.idx);
            gains.push(gain);
            utility += gain;
            if gain > 0.0 {
                covered += kernel.select(top.idx);
            }
            steps.push((utility, covered));
            round += 1;
        } else {
            // Stale: refresh and push back.
            let gain = kernel.gain(top.idx);
            let key = rule.key(top.idx, gain, weights[top.idx]);
            heap.push(Entry { key, round, ..top });
        }
    }

    GreedyState {
        selected,
        gains,
        covered,
        steps,
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

/// Bitwise equality of two runs: sites in order, gains, utility and
/// coverage count.
#[cfg(test)]
pub(crate) fn assert_identical(a: &Solution, b: &Solution, what: &str) {
    assert_eq!(a.site_indices, b.site_indices, "{what}: sites");
    let bits = |s: &Solution| s.gains.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(a), bits(b), "{what}: gains");
    assert_eq!(a.utility.to_bits(), b.utility.to_bits(), "{what}: utility");
    assert_eq!(a.covered, b.covered, "{what}: covered");
}

/// τ of [`twin_rows`].
#[cfg(test)]
pub(crate) const TWIN_TAU: f64 = 128.0;

/// Random rows for the variants' CELF-against-eager-twin properties: 1–23
/// trajectories and 1–11 sites, whole-metre detours against
/// [`TWIN_TAU`] (so binary and linear-decay gains tie often), some rows
/// empty and about a quarter wholly past τ.
#[cfg(test)]
pub(crate) fn twin_rows(
) -> impl proptest::strategy::Strategy<Value = crate::coverage::ReferenceProvider> {
    use proptest::prelude::*;
    (1usize..24, 1usize..12)
        .prop_flat_map(|(m, n)| {
            let row = (
                prop::collection::vec((0..m as u32, 0u32..=128), 0..m.min(10)),
                0u8..4,
            );
            (Just(m), prop::collection::vec(row, n))
        })
        .prop_map(|(m, raw)| {
            let rows = raw
                .into_iter()
                .map(|(mut row, lane)| {
                    row.sort_unstable();
                    row.dedup_by_key(|&mut (tj, _)| tj);
                    let past = if lane == 0 { 129 } else { 0 };
                    let mut row: Vec<(u32, f64)> = row
                        .into_iter()
                        .map(|(tj, d)| (tj, f64::from(d + past)))
                        .collect();
                    row.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                    row
                })
                .collect();
            crate::coverage::ReferenceProvider::new(m, rows)
        })
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
        // Weights 2, 0, 2, 2, 0 (whole rows would weigh 3, 0, 3, 2, 2):
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

    /// Random sorted rows over τ = 100 with distances up to 150: some
    /// empty, some wholly past τ.
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
        // Distances in whole metres against τ = 1024 keep every ψ and every
        // sum exact, so CELF and Algorithm 1 agree bit for bit. Arbitrary
        // distances make Algorithm 1's decremented marginals drift from
        // CELF's recomputed gains by a few ulps: the picks and coverage
        // still agree, the gains and utility to 1e-9.
        let mut rng = StdRng::seed_from_u64(13);
        for trial in 0..50 {
            let exact = trial >= 25;
            let tau = if exact { 1024.0 } else { 1000.0 };
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
                        .map(|&t| {
                            let d: f64 = rng.random_range(0.0..tau);
                            (t, if exact { d.floor() } else { d })
                        })
                        .collect();
                    list.sort_by(|a, b| a.1.total_cmp(&b.1));
                    list
                })
                .collect();
            let p = ReferenceProvider::new(m, tc);
            let cfg = GreedyConfig {
                tau,
                ..linear_cfg(rng.random_range(1..6))
            };
            let eager = algorithm1_greedy(&p, &cfg, &[], None);
            let lazy = inc_greedy(&p, &cfg);
            let what = format!("trial {trial}");
            if exact {
                assert_identical(&lazy, &eager, &what);
                continue;
            }
            assert_eq!(lazy.site_indices, eager.site_indices, "{what}: sites");
            assert_eq!(lazy.covered, eager.covered, "{what}: covered");
            for (a, b) in lazy.gains.iter().zip(&eager.gains) {
                assert!((a - b).abs() < 1e-9, "{what}: gains {a} vs {b}");
            }
            assert!(
                (lazy.utility - eager.utility).abs() < 1e-9,
                "{what}: utility"
            );
        }
    }
}
