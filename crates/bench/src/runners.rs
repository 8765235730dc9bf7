//! Standard algorithm runners shared by the experiment modules.
//!
//! All four evaluated algorithms (paper Sec. 8.1) are exposed behind one
//! result type so every table/figure scores them identically:
//!
//! * **INCG** — the paper's Algorithm 1 ([`algorithm1_greedy`]) over exact
//!   coverage sets (`CoverageIndex`, `TC` + `SC`), the paper's baseline;
//! * **FMG** — the FM-sketch greedy over the same coverage sets;
//! * **NETCLUS** — Inc-Greedy over cluster representatives from the
//!   multi-resolution index;
//! * **FMNETCLUS** — the FM greedy over cluster representatives.
//!
//! Quality is always the **exact** utility of the returned sites
//! ([`evaluate_sites`]); timings separate data-structure construction from
//! the selection phase; memory is the live heap of the structures each
//! algorithm needs at query time. Coverage construction beyond the
//! configured memory budget is reported as OOM, emulating the paper's
//! testbed ceiling (Table 9).

use std::time::{Duration, Instant};

use netclus::prelude::*;
use netclus_datagen::Scenario;

/// Outcome of running one algorithm at one parameter point.
#[derive(Clone, Debug)]
pub(crate) struct AlgoRun {
    /// Exact utility of the selected sites.
    pub utility: f64,
    /// Query-time cost: coverage/provider construction + selection.
    pub query_time: Duration,
}

impl AlgoRun {
    /// Utility as a percentage of `m`.
    pub(crate) fn utility_pct(&self, m: usize) -> f64 {
        if m == 0 {
            0.0
        } else {
            100.0 * self.utility / m as f64
        }
    }
}

/// `None` = the algorithm exceeded the memory budget (reported as OOM).
pub(crate) type MaybeRun = Option<AlgoRun>;

/// Exact utility re-evaluation shared by all runners.
fn score(
    s: &Scenario,
    sites: &[netclus_roadnet::NodeId],
    tau: f64,
    pref: PreferenceFunction,
) -> f64 {
    evaluate_sites(
        &s.net,
        &s.trajectories,
        sites,
        tau,
        pref,
        DetourModel::RoundTrip,
    )
    .utility
}

/// Builds the exact coverage sets, honoring the memory budget.
pub(crate) fn build_coverage(
    s: &Scenario,
    tau: f64,
    threads: usize,
    memory_budget: usize,
) -> Option<(CoverageIndex, Duration)> {
    let t = Instant::now();
    let cov = CoverageIndex::build(
        &s.net,
        &s.trajectories,
        &s.sites,
        tau,
        DetourModel::RoundTrip,
        threads,
    );
    let elapsed = t.elapsed();
    if cov.heap_size_bytes() > memory_budget {
        return None; // the paper's "Out of memory"
    }
    Some((cov, elapsed))
}

/// INCG selection over a prebuilt coverage index. `build` is the coverage
/// construction time to charge to the query (the paper charges it per
/// query, since `TC`/`SC` depend on the query's τ).
pub(crate) fn incgreedy_on(
    s: &Scenario,
    cov: &CoverageIndex,
    build: Duration,
    k: usize,
    tau: f64,
    pref: PreferenceFunction,
) -> AlgoRun {
    let sol = algorithm1_greedy(
        cov,
        &GreedyConfig {
            k,
            tau,
            preference: pref,
        },
        &[],
        None,
    );
    AlgoRun {
        utility: score(s, &sol.sites, tau, pref),
        query_time: build + sol.elapsed,
    }
}

/// FMG selection over a prebuilt coverage index (binary ψ only).
pub(crate) fn fm_greedy_on(
    s: &Scenario,
    cov: &CoverageIndex,
    build: Duration,
    k: usize,
    tau: f64,
    copies: usize,
) -> AlgoRun {
    let sol = fm_greedy(
        cov,
        &FmGreedyConfig {
            k,
            copies,
            seed: 0xF14_5EED,
        },
    );
    AlgoRun {
        utility: score(s, &sol.sites, tau, PreferenceFunction::Binary),
        query_time: build + sol.elapsed,
    }
}

/// INCG: exact coverage + Inc-Greedy (one-shot convenience).
pub(crate) fn run_incgreedy(
    s: &Scenario,
    k: usize,
    tau: f64,
    pref: PreferenceFunction,
    threads: usize,
    memory_budget: usize,
) -> MaybeRun {
    let (cov, build) = build_coverage(s, tau, threads, memory_budget)?;
    Some(incgreedy_on(s, &cov, build, k, tau, pref))
}

/// Builds a NetClus index covering `[tau_min, tau_max)`.
pub fn build_index(
    s: &Scenario,
    tau_min: f64,
    tau_max: f64,
    gamma: f64,
    threads: usize,
) -> NetClusIndex {
    NetClusIndex::build(
        &s.net,
        &s.trajectories,
        &s.sites,
        NetClusConfig {
            gamma,
            tau_min,
            tau_max,
            threads,
        },
    )
}

/// NETCLUS: query the prebuilt index with Inc-Greedy over representatives.
pub(crate) fn run_netclus(
    s: &Scenario,
    index: &NetClusIndex,
    k: usize,
    tau: f64,
    pref: PreferenceFunction,
) -> AlgoRun {
    let answer = index.query(
        &s.trajectories,
        &TopsQuery {
            k,
            tau,
            preference: pref,
        },
    );
    AlgoRun {
        utility: score(s, &answer.solution.sites, tau, pref),
        query_time: answer.solution.elapsed,
    }
}

/// FMNETCLUS: query the prebuilt index with the FM greedy (binary ψ).
pub(crate) fn run_fm_netclus(
    s: &Scenario,
    index: &NetClusIndex,
    k: usize,
    tau: f64,
    copies: usize,
) -> AlgoRun {
    let answer = index.query_fm(
        &s.trajectories,
        &TopsQuery::binary(k, tau),
        &FmGreedyConfig {
            k,
            copies,
            seed: 0xF14_5EED,
        },
    );
    AlgoRun {
        utility: score(s, &answer.solution.sites, tau, PreferenceFunction::Binary),
        query_time: answer.solution.elapsed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netclus_datagen::beijing_small;

    #[test]
    fn all_four_algorithms_run_and_agree_on_shape() {
        let s = beijing_small(3);
        let m = s.trajectory_count();
        let threads = 2;
        let budget = usize::MAX;
        let index = build_index(&s, 400.0, 2_000.0, 0.75, threads);

        let incg = run_incgreedy(&s, 5, 800.0, PreferenceFunction::Binary, threads, budget)
            .expect("within budget");
        let (cov, build) = build_coverage(&s, 800.0, threads, budget).expect("within budget");
        let fmg = fm_greedy_on(&s, &cov, build, 5, 800.0, 30);
        let nc = run_netclus(&s, &index, 5, 800.0, PreferenceFunction::Binary);
        let fnc = run_fm_netclus(&s, &index, 5, 800.0, 30);

        for run in [&incg, &fmg, &nc, &fnc] {
            assert!(run.utility > 0.0);
            assert!(run.utility_pct(m) <= 100.0);
        }
        // Quality ordering within tolerance: INCG is the strongest of the
        // four on expectation; nobody should beat it by much.
        for run in [&fmg, &nc, &fnc] {
            assert!(run.utility <= incg.utility * 1.05 + 1.0);
        }
    }

    #[test]
    fn memory_budget_triggers_oom() {
        let s = beijing_small(3);
        let r = run_incgreedy(&s, 5, 800.0, PreferenceFunction::Binary, 2, 1);
        assert!(r.is_none(), "1-byte budget must OOM");
    }
}
