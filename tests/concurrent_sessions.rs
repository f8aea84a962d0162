//! Concurrent multi-tenant sessions: N thread tenants sharing one
//! machine and one plan cache. Pins the stencil-as-a-service
//! guarantees: a cold cache builds each distinct plan exactly once no
//! matter how many tenants race for it, every tenant's results are
//! bit-identical to a sequential single-session oracle — also while
//! racing tenants evict each other's plans — per-tenant thread-local
//! stats sum to the shared cache's totals, and the steady state
//! allocates no lane mirrors after warmup (the plan cache hands a
//! retired tenant's mirror to the next tenant's instance).

use cmcc::cm2::exec::ExecEngine;
use cmcc::obs::Counter;
use cmcc::runtime::{CmArray, ExecOptions};
use cmcc::Session;
use std::sync::Barrier;

const ROWS: usize = 8;
const COLS: usize = 12;

/// The distinct stencils tenants race on; each keys its own plan.
const STENCILS: [&str; 3] = [
    "R = 0.5 * X + 0.5 * CSHIFT(X, 2, 1)",
    "R = 0.25 * CSHIFT(X, 1, -1) + 0.5 * X + 0.25 * CSHIFT(X, 1, +1)",
    "R = C * X + 0.125 * CSHIFT(X, 2, -1)",
];

/// Iterations per (tenant, stencil): first one may miss, the rest hit.
const ITERS: usize = 3;

fn fill_source(x: &CmArray, machine: &mut cmcc::Machine) {
    x.fill_with(machine, |r, c| {
        ((r * 31 + c * 17) % 23) as f32 * 0.375 - 3.0
    });
}

fn fill_coeff(a: &CmArray, machine: &mut cmcc::Machine) {
    a.fill_with(machine, |r, c| ((r * 7 + c * 3) % 13) as f32 * 0.25 - 1.0);
}

/// Runs the full batch through one tenant handle with single-threaded
/// execution (so obs counters land on this tenant's thread shard) and
/// returns each stencil's gathered result plus the tenant's own
/// cache-traffic counters.
fn tenant_pass(session: &mut Session, barrier: &Barrier) -> (Vec<Vec<f32>>, u64, u64, u64) {
    let opts = ExecOptions::default().with_threads(1);
    let compiled: Vec<_> = STENCILS
        .iter()
        .map(|s| session.compile(s).expect("stencils compile"))
        .collect();
    let x = session.array(ROWS, COLS).unwrap();
    let r = session.array(ROWS, COLS).unwrap();
    let c = session.array(ROWS, COLS).unwrap();
    fill_source(&x, &mut session.machine_mut());
    fill_coeff(&c, &mut session.machine_mut());

    let before = cmcc::obs::thread_snapshot();
    // Everyone arrives before anyone looks the first plan up: the cache
    // is cold and all tenants race into the build lock together.
    barrier.wait();
    let mut results = Vec::new();
    for compiled in &compiled {
        let coeffs: &[&CmArray] = if compiled
            .spec()
            .coeffs
            .iter()
            .any(|c| matches!(c, cmcc::core::recognize::CoeffSpec::Named(_)))
        {
            &[&c]
        } else {
            &[]
        };
        let mut m = None;
        for _ in 0..ITERS {
            let again = session
                .run_with_multi(compiled, &r, &[&x], coeffs, &opts)
                .expect("tenant run succeeds");
            if let Some(first) = m {
                assert_eq!(again, first, "iterations diverge on fixed input");
            }
            m = Some(again);
        }
        results.push(r.gather(&session.machine()));
    }
    let delta = cmcc::obs::thread_snapshot().delta(&before);
    (
        results,
        delta.get(Counter::PlanBuilds),
        delta.get(Counter::PlanCacheHits),
        delta.get(Counter::PlanCacheMisses),
    )
}

const TENANTS: usize = 4;

/// Races `TENANTS` handles of `session` through [`tenant_pass`] on a
/// cold cache and checks every tenant's results bit for bit against a
/// sequential oracle session. Returns the tenants' summed plan builds,
/// cache hits and cache misses.
fn race_against_oracle(session: &Session) -> (u64, u64, u64) {
    // Sequential oracle: its own session, machine, and cache.
    let mut oracle = Session::tiny().unwrap();
    let (oracle_results, ..) = tenant_pass(&mut oracle, &Barrier::new(1));

    let barrier = Barrier::new(TENANTS);
    let tenants: Vec<(Vec<Vec<f32>>, u64, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..TENANTS)
            .map(|_| {
                let mut handle = session.clone();
                let barrier = &barrier;
                scope.spawn(move || tenant_pass(&mut handle, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    });

    for (results, ..) in &tenants {
        for (got, want) in results.iter().zip(&oracle_results) {
            let exact = got
                .iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(exact, "tenant diverges from the sequential oracle");
        }
    }
    tenants
        .iter()
        .fold((0, 0, 0), |(b, h, m), (_, tb, th, tm)| {
            (b + tb, h + th, m + tm)
        })
}

/// N racing tenants on a cold cache: exactly M = `STENCILS.len()` plan
/// builds, bit-identical results against a sequential oracle session,
/// and per-tenant counters that sum to the shared cache's statistics.
#[test]
fn racing_tenants_build_each_plan_exactly_once_and_match_oracle() {
    cmcc::obs::set_enabled(true);
    let session = Session::tiny().unwrap();
    let (builds, hits, misses) = race_against_oracle(&session);

    let stats = session.plan_cache_stats();
    let total_runs = (TENANTS * STENCILS.len() * ITERS) as u64;
    assert_eq!(
        builds,
        STENCILS.len() as u64,
        "each distinct plan must be built exactly once across racing tenants"
    );
    assert_eq!(stats.misses, builds, "every miss is one build");
    assert_eq!(misses, stats.misses, "tenant misses sum to the cache total");
    assert_eq!(hits, stats.hits, "tenant hits sum to the cache total");
    assert_eq!(stats.hits + stats.misses, total_runs);
    assert_eq!(session.cached_plans(), STENCILS.len());
    assert_eq!(stats.evictions, 0, "the plans fit the default capacity");
    // Tenant handles have dropped, so no artifact is shared beyond the
    // cache any more.
    assert_eq!(stats.shared_in_flight, 0);
}

/// More keys than the capacity: racing tenants evict each other's plans
/// and rebuild them, yet every result stays bit-identical to the oracle,
/// every miss is one build, and once the tenants are gone clearing the
/// cache returns every plan's node memory.
#[test]
fn racing_tenants_over_capacity_evict_and_still_match_oracle() {
    cmcc::obs::set_enabled(true);
    let mut session = Session::tiny().unwrap();
    let capacity = STENCILS.len() - 1;
    session.set_plan_cache_capacity(capacity);
    let (builds, hits, misses) = race_against_oracle(&session);

    let stats = session.plan_cache_stats();
    let total_runs = (TENANTS * STENCILS.len() * ITERS) as u64;
    assert_eq!(builds, stats.misses, "every miss is one build");
    assert_eq!(misses, stats.misses, "tenant misses sum to the cache total");
    assert_eq!(hits, stats.hits, "tenant hits sum to the cache total");
    assert_eq!(stats.hits + stats.misses, total_runs);
    assert!(
        stats.evictions > 0,
        "three keys never fit a capacity of two"
    );
    assert!(session.cached_plans() <= capacity);
    session.clear_plan_cache();
    assert_eq!(
        session.machine().persistent_used(),
        0,
        "an evicted or cleared plan kept its node memory"
    );
}

/// After warmup the steady state allocates nothing: the tenant's lane
/// mirror is reused run over run, and when a tenant handle retires, the
/// plan cache keeps its mirror and hands it to the next tenant's
/// instance instead of a fresh allocation.
#[test]
fn steady_state_mirror_allocations_stay_flat_across_tenants() {
    cmcc::obs::set_enabled(true);
    let opts = ExecOptions::default()
        .with_threads(1)
        .with_engine(ExecEngine::Lockstep);
    let mut session = Session::tiny().unwrap();
    let compiled = session.compile(STENCILS[0]).unwrap();
    let x = session.array(ROWS, COLS).unwrap();
    let r = session.array(ROWS, COLS).unwrap();
    fill_source(&x, &mut session.machine_mut());

    // Warmup: instance creation + first execute may allocate the mirror.
    session
        .run_with_multi(&compiled, &r, &[&x], &[], &opts)
        .unwrap();
    session
        .run_with_multi(&compiled, &r, &[&x], &[], &opts)
        .unwrap();
    let warm = session
        .last_plan()
        .expect("plan cached")
        .lane_mirror_allocations();
    let before = cmcc::obs::thread_snapshot();
    for _ in 0..8 {
        session
            .run_with_multi(&compiled, &r, &[&x], &[], &opts)
            .unwrap();
    }
    let delta = cmcc::obs::thread_snapshot().delta(&before);
    assert_eq!(
        session.last_plan().unwrap().lane_mirror_allocations(),
        warm,
        "steady state must not reallocate the lane mirror"
    );
    assert_eq!(
        delta.get(Counter::MirrorAllocations),
        0,
        "steady state must record zero mirror allocations"
    );

    // A second tenant warms up on the shared artifact, then retires —
    // the plan cache keeps its shaped mirror.
    {
        let mut tenant = session.clone();
        tenant
            .run_with_multi(&compiled, &r, &[&x], &[], &opts)
            .unwrap();
    }
    // A third tenant's fresh instance takes the kept mirror: priming
    // gathers run, but no new mirror storage is allocated.
    let mut tenant = session.clone();
    let before = cmcc::obs::thread_snapshot();
    tenant
        .run_with_multi(&compiled, &r, &[&x], &[], &opts)
        .unwrap();
    let delta = cmcc::obs::thread_snapshot().delta(&before);
    assert_eq!(
        delta.get(Counter::MirrorAllocations),
        0,
        "a recycled mirror must serve the new tenant without reallocating"
    );
}
