//! Region-leased machine access: admission-control guarantees under
//! racing tenants. Disjoint lane-resident plans execute concurrently
//! through the region path with zero conflicts (the conflict predicate
//! predicts exactly which executes must serialize); an overlapping
//! execute waits its FIFO turn, is counted, runs the same region body
//! and still produces bit-identical results; a failed run leaves no
//! lease and no plan behind; and a tenant releasing a plan while a
//! neighbor holds a lease on an adjacent field range neither deadlocks
//! nor corrupts the neighbor's results. After every drain the lease
//! table must be empty.
//!
//! Overlap in time is forced, not hoped for: a test holds a machine
//! read guard, which parks each region execute at its commit with its
//! lease live, and polls the lease table until the wanted executes are
//! live or queued. The figures asserted are then exact on any core
//! count.

use cmcc::cm2::exec::ExecEngine;
use cmcc::core::recognize::CoeffSpec;
use cmcc::runtime::{CmArray, ExecOptions};
use cmcc::{CompiledStencil, LeaseStats, PaperPattern, Session};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const SUBGRID: (usize, usize) = (8, 8);
const ITERS: usize = 6;

/// The tenants' plans race on distinct paper patterns — distinct plan
/// keys, so each tenant leases its own disjoint field ranges.
const PATTERNS: [PaperPattern; 4] = [
    PaperPattern::Square9,
    PaperPattern::Cross5,
    PaperPattern::Star9,
    PaperPattern::Diamond13,
];

/// Lane-resident lockstep execution: the only region-eligible mode.
fn exec_opts() -> ExecOptions {
    ExecOptions::default()
        .with_threads(1)
        .with_engine(ExecEngine::Lockstep)
}

/// Polls the session's lease table until `cond` holds.
fn wait_for(root: &Session, what: &str, cond: impl Fn(LeaseStats) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond(root.lease_stats()) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One tenant: a session handle plus its private plan and arrays.
struct Tenant {
    session: Session,
    compiled: CompiledStencil,
    x: CmArray,
    r: CmArray,
    coeffs: Vec<CmArray>,
}

impl Tenant {
    fn run(&mut self) {
        let coeffs: Vec<&CmArray> = self.coeffs.iter().collect();
        self.session
            .run_with_multi(&self.compiled, &self.r, &[&self.x], &coeffs, &exec_opts())
            .expect("tenant execute succeeds");
    }

    fn result(&self) -> Vec<f32> {
        self.r.gather(&self.session.machine())
    }
}

/// Builds one tenant per pattern on clones of `root`: same machine,
/// same plan cache, fully disjoint arrays (the field allocator never
/// overlaps live fields). Inputs are deterministic so an oracle built
/// from a second root sees identical data.
fn make_tenants(root: &Session) -> Vec<Tenant> {
    let rows = SUBGRID.0 * root.machine().grid().rows();
    let cols = SUBGRID.1 * root.machine().grid().cols();
    PATTERNS
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let mut session = root.clone();
            let compiled = session.compile(&p.fortran()).expect("pattern compiles");
            let x = session.array(rows, cols).expect("source fits");
            x.fill_with(&mut session.machine_mut(), |r, c| {
                ((r * 13 + c * 7 + i * 29) % 31) as f32 * 0.25 - 3.5
            });
            let named = compiled
                .spec()
                .coeffs
                .iter()
                .filter(|c| matches!(c, CoeffSpec::Named(_)))
                .count();
            let coeffs: Vec<CmArray> = (0..named)
                .map(|k| {
                    let a = session.array(rows, cols).expect("coeff fits");
                    a.fill_with(&mut session.machine_mut(), |r, c| {
                        ((r * 5 + c * 11 + k * 17) % 19) as f32 * 0.125 - 1.0
                    });
                    a
                })
                .collect();
            let r = session.array(rows, cols).expect("result fits");
            Tenant {
                session,
                compiled,
                x,
                r,
                coeffs,
            }
        })
        .collect()
}

/// Racing tenants on disjoint plans must be bit-identical to a
/// sequential oracle, take the region path on every execute with zero
/// conflicts (the overlap predicate predicted none), overlap in time,
/// and drain the lease table.
#[test]
fn racing_disjoint_tenants_use_region_path_and_match_oracle() {
    cmcc::obs::set_enabled(true);

    // Sequential oracle: its own machine, same deterministic inputs.
    let oracle_root = Session::test_board().unwrap();
    let mut oracle = make_tenants(&oracle_root);
    for t in oracle.iter_mut() {
        for _ in 0..=ITERS {
            t.run();
        }
    }
    let want: Vec<Vec<f32>> = oracle.iter().map(Tenant::result).collect();

    let root = Session::test_board().unwrap();
    let mut tenants = make_tenants(&root);
    // Warmup builds every plan (and takes its first region lease).
    for t in tenants.iter_mut() {
        t.run();
    }
    assert!(
        tenants
            .iter()
            .all(|t| t.session.last_plan().is_some_and(|p| p.lane_mapped())),
        "tenancy must run lane-resident to be region-eligible"
    );

    // Force two disjoint executes to overlap: with a read guard held,
    // each parks at its commit with its lease live.
    std::thread::scope(|scope| {
        let guard = root.machine();
        for t in tenants.iter_mut().take(2) {
            scope.spawn(move || t.run());
        }
        wait_for(&root, "two live leases", |st| st.live == 2);
        assert_eq!(
            root.lease_stats().peak_concurrent,
            2,
            "two disjoint executes must hold their leases at once"
        );
        drop(guard);
    });

    let barrier = Barrier::new(tenants.len());
    std::thread::scope(|scope| {
        for t in tenants.iter_mut() {
            let barrier = &barrier;
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..ITERS {
                    t.run();
                }
            });
        }
    });

    let got: Vec<Vec<f32>> = tenants.iter().map(Tenant::result).collect();
    for (g, w) in got.iter().zip(&want) {
        assert!(
            bits_equal(g, w),
            "racing tenant diverges from the sequential oracle"
        );
    }

    let stats = root.lease_stats();
    assert_eq!(stats.conflicts, 0, "disjoint plans must never conflict");
    assert_eq!(
        stats.region_grants,
        (PATTERNS.len() * (ITERS + 1) + 2) as u64,
        "every lane-resident execute must take the region path"
    );
    assert!(
        (2..=PATTERNS.len()).contains(&stats.peak_concurrent),
        "peak {} concurrent executes",
        stats.peak_concurrent
    );
    assert_eq!(stats.live, 0, "leases leaked after the pool drained");
    assert_eq!(stats.queued, 0, "waiters leaked after the pool drained");
}

/// Overlapping executes — two handles running the same plan into the
/// same result array — conflict: the second waits its FIFO turn behind
/// the first, is counted, and then runs the same region body, and the
/// result stays the same pure function of the input. Sequential
/// overlapping executes never overlap in time, so they must count
/// zero conflicts: a conflict is counted exactly when predicted.
#[test]
fn overlapping_executes_wait_their_fifo_turn_counted_and_run_the_region_body() {
    cmcc::obs::set_enabled(true);
    let root = Session::test_board().unwrap();
    let mut tenants = make_tenants(&root);
    let mut a = tenants.remove(0);
    a.run();
    let want = a.result();

    // A second handle bound to the *same* plan and result array: its
    // lease overlaps a's writable result range.
    let mut b = Tenant {
        session: a.session.clone(),
        compiled: a.compiled.clone(),
        x: a.x,
        r: a.r,
        coeffs: a.coeffs.clone(),
    };
    b.run();
    assert_eq!(
        root.lease_stats().conflicts,
        0,
        "sequential executes never hold overlapping leases at once"
    );

    // Force the overlap: a's execute parks at its commit with its lease
    // live, and b's request queues behind it before the guard drops.
    let before = root.lease_stats();
    std::thread::scope(|scope| {
        let guard = root.machine();
        scope.spawn(|| a.run());
        wait_for(&root, "a's lease", |st| st.live == 1);
        scope.spawn(|| b.run());
        wait_for(&root, "b to queue behind a", |st| {
            st.live == 1 && st.queued == 1
        });
        drop(guard);
    });

    let stats = root.lease_stats();
    assert_eq!(
        stats.conflicts,
        before.conflicts + 1,
        "exactly the queued execute is counted"
    );
    assert_eq!(
        stats.region_grants,
        before.region_grants + 2,
        "the conflicted execute must run the region body once granted"
    );
    assert!(
        bits_equal(&a.result(), &want),
        "overlapped executes corrupted the result"
    );
    assert_eq!(stats.live, 0, "leases leaked after the race drained");
    assert_eq!(stats.queued, 0);
}

/// A failed run leaves nothing behind. Once array fillers hold the node
/// memory the plan's halo fields need, the plan build fails: no lease is
/// live or queued, the cache entry is unpublished (a retry is a second
/// miss and a second build), and the failed build's node memory is back
/// in the arena.
#[test]
fn failed_execute_releases_its_lease() {
    cmcc::obs::set_enabled(true);
    let mut s = Session::tiny().unwrap();
    let opts = ExecOptions::default().with_threads(1);
    let c = s.compile("R = 0.5 * X + 0.5 * CSHIFT(X, 2, 1)").unwrap();
    let x = s.array(8, 12).unwrap();
    let r = s.array(8, 12).unwrap();
    x.fill(&mut s.machine_mut(), 1.0);
    s.run_with_multi(&c, &r, &[&x], &[], &opts)
        .expect("runs while memory is plentiful");
    // Freed plan fields return to the arena, where the fillers take them.
    s.clear_plan_cache();
    let mut fillers = Vec::new();
    while let Ok(a) = s.array(8, 12) {
        fillers.push(a);
    }

    let used = s.machine().persistent_used();
    for attempt in 1..=2 {
        let misses = s.plan_cache_stats().misses;
        let before = cmcc::obs::thread_snapshot();
        let failed = s.run_with_multi(&c, &r, &[&x], &[], &opts);
        let builds = cmcc::obs::thread_snapshot()
            .delta(&before)
            .get(cmcc::obs::Counter::PlanBuilds);
        assert!(
            failed.is_err(),
            "attempt {attempt}: the plan build must fail with node memory exhausted"
        );
        let stats = s.lease_stats();
        assert_eq!(stats.live, 0, "attempt {attempt}: a lease leaked");
        assert_eq!(stats.queued, 0);
        assert_eq!(
            s.cached_plans(),
            0,
            "attempt {attempt}: a failed build stayed published"
        );
        assert_eq!(
            s.plan_cache_stats().misses,
            misses + 1,
            "attempt {attempt}: every attempt is one miss"
        );
        assert_eq!(builds, 1, "attempt {attempt}: every attempt is one build");
        assert_eq!(
            s.machine().persistent_used(),
            used,
            "attempt {attempt}: the failed build kept node memory"
        );
    }
}

/// One tenant releases its plan (cache clear retires the artifact and
/// frees its fields) while a neighbor executes on adjacent ranges the
/// whole time: no deadlock, the neighbor's results stay bit-exact, and
/// the lease table drains.
#[test]
fn plan_release_under_a_live_adjacent_lease_stays_exact() {
    cmcc::obs::set_enabled(true);
    const A_STENCIL: &str = "R = 0.5 * X + 0.5 * CSHIFT(X, 2, 1)";
    const B_STENCIL: &str = "R = 0.25 * CSHIFT(X, 1, -1) + 0.5 * X + 0.25 * CSHIFT(X, 1, +1)";
    let opts = exec_opts();
    let fill_a = |r: usize, c: usize| (r * 3 + c) as f32 * 0.5 - 4.0;

    // Oracle for tenant A on a private machine.
    let mut oracle = Session::tiny().unwrap();
    let co = oracle.compile(A_STENCIL).unwrap();
    let xo = oracle.array(8, 12).unwrap();
    let ro = oracle.array(8, 12).unwrap();
    xo.fill_with(&mut oracle.machine_mut(), fill_a);
    oracle.run_with_multi(&co, &ro, &[&xo], &[], &opts).unwrap();
    let want = ro.gather(&oracle.machine());

    let root = Session::tiny().unwrap();
    let mut a = root.clone();
    let ca = a.compile(A_STENCIL).unwrap();
    let xa = a.array(8, 12).unwrap();
    let ra = a.array(8, 12).unwrap();
    xa.fill_with(&mut a.machine_mut(), fill_a);
    // B's arrays and plan fields allocate right after A's: adjacent
    // node-memory ranges, never overlapping ones.
    let mut b = root.clone();
    let cb = b.compile(B_STENCIL).unwrap();
    let xb = b.array(8, 12).unwrap();
    let rb = b.array(8, 12).unwrap();
    xb.fill_with(&mut b.machine_mut(), |r, c| (r + c * 2) as f32 * 0.25);

    a.run_with_multi(&ca, &ra, &[&xa], &[], &opts).unwrap();
    b.run_with_multi(&cb, &rb, &[&xb], &[], &opts).unwrap();

    std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..16 {
                a.run_with_multi(&ca, &ra, &[&xa], &[], &opts).unwrap();
            }
        });
        // Meanwhile B releases every cached plan — including A's shared
        // artifact, forcing A to rebuild mid-race — and rebuilds its own.
        for _ in 0..4 {
            b.clear_plan_cache();
            b.run_with_multi(&cb, &rb, &[&xb], &[], &opts).unwrap();
        }
    });

    let got = ra.gather(&a.machine());
    assert!(
        bits_equal(&got, &want),
        "plan release under a live adjacent lease corrupted the neighbor"
    );
    let stats = root.lease_stats();
    assert_eq!(stats.live, 0, "leases leaked after the race drained");
    assert_eq!(stats.queued, 0);
}
