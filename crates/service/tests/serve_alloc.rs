//! The allocation budget of the served monolithic path, counted under a
//! global allocator:
//!
//! * a result-cache hit allocates nothing;
//! * a first request for a smaller `k` than the cached solve's makes its
//!   answer — the sites' prefix and the `Arc` around it, two allocations —
//!   and a repeat of it allocates nothing;
//! * a cold query over resident rows — a τ the result cache has not seen,
//!   in a band whose rows the provider cache holds — allocates at most a
//!   fixed number of times, for binary and LinearDecay ψ alike.
//!
//! `NetClusService::query` runs on its caller's thread, so counting this
//! thread's allocations counts the query's. One test in this file, so the
//! process-wide allocator below has no other test thread to observe.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use netclus::{NetClusConfig, NetClusIndex, PreferenceFunction, TopsQuery};
use netclus_datagen::{beijing_like, ScenarioConfig};
use netclus_service::{NetClusService, ServiceConfig, ServiceRequest, TraceConfig};

/// Most allocations one cold query over resident rows may make, binary
/// and LinearDecay ψ alike (≈ 150 kB in the finest band). A query allocates
/// its result-cache entry, its per-`k` answer slots and its answer, the
/// view's per-row cuts, and the solver's weights, per-trajectory state,
/// heap (filled in one allocation) and selection with its per-pick steps:
/// 13–14 here. The result cache's hash table grows on some inserts, and
/// where depends on where its removed slots landed, so a query makes an
/// allocation more now and then.
const COLD_QUERY_ALLOCATIONS: usize = 19;

/// Most allocations a first request for a smaller `k` may make: its
/// answer's `Arc` and its sites.
const PREFIX_HIT_ALLOCATIONS: usize = 2;

thread_local! {
    /// `(allocations, bytes)` requested on this thread while counting.
    static COUNT: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the bookkeeping touches only a const-initialised
// thread-local `Cell` (no allocation, no destructor) through `try_with`,
// which cannot panic. `realloc` and `alloc_zeroed` keep their provided
// definitions, which allocate through `alloc` and so are counted.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = COUNT.try_with(|c| {
            if let Some((n, bytes)) = c.get() {
                c.set(Some((n + 1, bytes + layout.size())));
            }
        });
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, bytes)` `f` requested on this thread.
fn allocations(f: impl FnOnce()) -> (usize, usize) {
    COUNT.with(|c| c.set(Some((0, 0))));
    f();
    COUNT.with(|c| c.replace(None)).expect("counting was on")
}

#[test]
fn served_queries_stay_within_their_allocation_budget() {
    let scenario = beijing_like(&ScenarioConfig::with_scale(0.05));
    let index = NetClusIndex::build(
        &scenario.net,
        &scenario.trajectories,
        &scenario.sites,
        NetClusConfig {
            tau_min: 400.0,
            tau_max: 3_200.0,
            threads: 1,
            ..Default::default()
        },
    );
    let bands: Vec<f64> = (0..index.instances().len())
        .map(|p| {
            let gamma = index.config().gamma;
            index.config().tau_min * (1.0 + gamma).powi(p as i32) * (1.0 + gamma / 2.0)
        })
        .collect();
    let service = NetClusService::start(
        scenario.net,
        scenario.trajectories,
        index,
        ServiceConfig {
            workers: 1,
            // No slow log and no uniform sample: what a query retains
            // would otherwise depend on how long it took.
            trace: TraceConfig {
                slow_threshold_us: u64::MAX,
                sample_every: 0,
                ..TraceConfig::default()
            },
            ..ServiceConfig::default()
        },
    )
    .expect("start service");
    let ask_k = |k: usize, tau: f64, preference: PreferenceFunction| {
        service
            .query(ServiceRequest::greedy(TopsQuery { k, tau, preference }))
            .expect("service answered");
    };
    let ask = |tau: f64, preference: PreferenceFunction| ask_k(10, tau, preference);

    for (psi, preference) in [
        ("binary", PreferenceFunction::Binary),
        ("linear", PreferenceFunction::LinearDecay),
    ] {
        for &tau in &bands {
            // The first query of a band builds and caches its rows.
            ask(tau, preference);
            let before = service.metrics_report();
            let mut most = (0, 0);
            for step in 1..=8 {
                let cold = tau + f64::from(step);
                let (n, bytes) = allocations(|| ask(cold, preference));
                most = (most.0.max(n), most.1.max(bytes));
                let (hit, hit_bytes) = allocations(|| ask(cold, preference));
                assert_eq!(
                    (hit, hit_bytes),
                    (0, 0),
                    "{psi} τ={cold}: a result-cache hit allocated"
                );
                let (first, _) = allocations(|| ask_k(5, cold, preference));
                assert!(
                    first <= PREFIX_HIT_ALLOCATIONS,
                    "{psi} τ={cold}: a first k = 5 hit allocated {first} times \
                     (budget {PREFIX_HIT_ALLOCATIONS})"
                );
                let (again, again_bytes) = allocations(|| ask_k(5, cold, preference));
                assert_eq!(
                    (again, again_bytes),
                    (0, 0),
                    "{psi} τ={cold}: a repeated k = 5 hit allocated"
                );
            }
            let after = service.metrics_report();
            assert_eq!(after.cache.misses - before.cache.misses, 8, "{psi} τ={tau}");
            assert_eq!(after.cache.hits - before.cache.hits, 24, "{psi} τ={tau}");
            assert_eq!(
                after.providers.misses, before.providers.misses,
                "{psi} τ={tau}: the band's rows were rebuilt"
            );
            eprintln!(
                "{psi} τ={tau:.0}: a cold query allocated ≤ {} times, ≤ {} bytes",
                most.0, most.1
            );
            assert!(
                most.0 <= COLD_QUERY_ALLOCATIONS,
                "{psi} τ={tau}: a cold query over resident rows allocated {} times \
                 (budget {COLD_QUERY_ALLOCATIONS})",
                most.0
            );
        }
    }
}
