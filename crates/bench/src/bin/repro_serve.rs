//! Serve-pool throughput benchmark: region leases vs the exclusive lock.
//!
//! Four tenant threads share one [`Session`] (one machine, one plan
//! cache) and each repeatedly executes its own stencil on its own
//! arrays — fully disjoint plans, the stencil-as-a-service steady
//! state. The same workload runs twice: once through the region-lease
//! admission path (disjoint executes hold the machine lock only to read
//! node memory and to commit their result, and compute concurrently on
//! their lane mirrors) and once serialized by an external mutex around every
//! execute — the behavior of the pre-lease session, where the global
//! write lock admitted one execute at a time. A third, profiled run of
//! the concurrent pool sums execute time over the tenants: above the
//! phase's wall time only if executes overlapped. Written to
//! `BENCH_serve.json`: throughput of the two timed (unprofiled) phases,
//! that execute-over-wall ratio, the lease counters, and an
//! overlapping-plan probe that forces two conflicting executes to
//! overlap and checks the conflict is counted and the result
//! bit-identical.
//!
//! ```sh
//! cargo run --release -p cmcc-bench --bin repro_serve
//! cargo run --release -p cmcc-bench --bin repro_serve -- --smoke
//! ```
//!
//! `--smoke` cuts the iteration count (for CI). The ≥1.5× speedup
//! assertion applies only on hosts with 2+ cores; on one core the
//! numbers are still recorded, with the skip reason in the JSON.

use cmcc::obs::{self, Phase};
use cmcc::{LeaseStats, Session};
use cmcc_core::compiler::CompiledStencil;
use cmcc_core::patterns::PaperPattern;
use cmcc_core::recognize::CoeffSpec;
use cmcc_runtime::array::CmArray;
use cmcc_runtime::convolve::ExecOptions;
use cmcc_testkit::Rng;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

const WORKERS: usize = 4;
const SUBGRID: (usize, usize) = (64, 64);
/// Iterations per tenant per timed phase: long enough that host noise
/// does not decide the ratio of the two phases.
const FULL_ITERS: usize = 150;
const SMOKE_ITERS: usize = 40;

/// One tenant: a session handle plus its private plan and arrays.
struct Tenant {
    session: Session,
    compiled: CompiledStencil,
    x: CmArray,
    r: CmArray,
    coeffs: Vec<CmArray>,
}

impl Tenant {
    fn run(&mut self, opts: &ExecOptions) {
        let coeff_refs: Vec<&CmArray> = self.coeffs.iter().collect();
        self.session
            .run_with_multi(&self.compiled, &self.r, &[&self.x], &coeff_refs, opts)
            .expect("bench execute succeeds");
    }

    fn result(&self) -> Vec<f32> {
        self.r.gather(&self.session.machine())
    }
}

/// Runs every tenant for `iters` iterations on its own thread,
/// optionally serializing each execute through `lock` (the exclusive
/// baseline). Returns elapsed wall-clock seconds for the whole pool.
fn timed_pool(tenants: &mut [Tenant], iters: usize, lock: Option<&Mutex<()>>) -> f64 {
    let opts = exec_opts();
    let barrier = Barrier::new(tenants.len());
    let barrier = &barrier;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in tenants.iter_mut() {
            scope.spawn(move || {
                barrier.wait();
                for _ in 0..iters {
                    match lock {
                        Some(m) => {
                            let _serialized = m.lock().unwrap_or_else(|e| e.into_inner());
                            t.run(&opts);
                        }
                        None => t.run(&opts),
                    }
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
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

/// Lane-resident lockstep execution (region-eligible), one host thread
/// per tenant so the pool's parallelism comes from the lease table.
fn exec_opts() -> ExecOptions {
    ExecOptions::fast().with_threads(1)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let iters = if smoke { SMOKE_ITERS } else { FULL_ITERS };
    let cores = cmcc_bench::host_cores();

    println!("Serve-pool throughput benchmark: region leases vs exclusive lock");
    println!(
        "{WORKERS} tenants x disjoint plans, {}x{} per node on the 16-node board, \
         {cores} host core(s), {iters} iters per tenant per phase\n",
        SUBGRID.0, SUBGRID.1
    );

    // One shared session; each tenant compiles its own pattern and
    // allocates its own arrays — disjoint node-memory ranges by
    // construction (the field allocator never overlaps live fields).
    let root = Session::test_board().expect("test board constructs");
    let patterns = [
        PaperPattern::Square9,
        PaperPattern::Cross5,
        PaperPattern::Star9,
        PaperPattern::Diamond13,
    ];
    let rows = SUBGRID.0 * root.machine().grid().rows();
    let cols = SUBGRID.1 * root.machine().grid().cols();
    let mut rng = Rng::new(0x1991_0626);
    let mut tenants: Vec<Tenant> = patterns
        .iter()
        .map(|p| {
            let mut session = root.clone();
            let compiled = session.compile(&p.fortran()).expect("pattern compiles");
            let mut fill = |session: &mut Session, lo: f32, hi: f32| {
                let a = session.array(rows, cols).expect("array fits");
                let data: Vec<f32> = (0..rows * cols).map(|_| rng.f32_in(lo, hi)).collect();
                a.scatter(&mut session.machine_mut(), &data);
                a
            };
            let x = fill(&mut session, -1.0, 1.0);
            let named = compiled
                .spec()
                .coeffs
                .iter()
                .filter(|c| matches!(c, CoeffSpec::Named(_)))
                .count();
            let coeffs: Vec<CmArray> = (0..named).map(|_| fill(&mut session, -0.5, 0.5)).collect();
            let r = session.array(rows, cols).expect("result fits");
            Tenant {
                session,
                compiled,
                x,
                r,
                coeffs,
            }
        })
        .collect();

    // Warmup: build every plan and prime the lane mirrors, so both
    // timed phases replay the steady state.
    let opts = exec_opts();
    for t in tenants.iter_mut() {
        t.run(&opts);
    }
    let lane_resident: Vec<bool> = tenants
        .iter()
        .map(|t| t.session.last_plan().is_some_and(|p| p.lane_mapped()))
        .collect();
    let leases_before = root.lease_stats();

    // Phase 1: concurrent, admission through the lease table.
    let concurrent_secs = timed_pool(&mut tenants, iters, None);
    let concurrent_results: Vec<Vec<f32>> = tenants.iter().map(Tenant::result).collect();
    let after_concurrent = root.lease_stats();

    // Phase 2: the pre-lease baseline — one execute at a time, enforced
    // by an external mutex exactly where the global write lock used to
    // serialize the pool.
    let serialize = Mutex::new(());
    let serialized_secs = timed_pool(&mut tenants, iters, Some(&serialize));
    let serialized_results: Vec<Vec<f32>> = tenants.iter().map(Tenant::result).collect();

    // Phase 3: the concurrent pool again, profiled. The timed phases run
    // unprofiled; this one shows whether executes overlapped, as execute
    // time summed over tenants against the phase's wall time.
    obs::set_enabled(true);
    let before = obs::snapshot();
    let profiled_secs = timed_pool(&mut tenants, iters, None);
    let execute_secs = obs::snapshot().delta(&before).phase_nanos(Phase::Execute) as f64 / 1e9;
    obs::set_enabled(false);

    let bit_identical = concurrent_results
        .iter()
        .zip(&serialized_results)
        .all(|(a, b)| bits_equal(a, b));
    let region_grants = after_concurrent.region_grants - leases_before.region_grants;
    let peak_concurrent = after_concurrent.peak_concurrent;

    // Overlap probe: a second handle bound to tenant 0's plan and result
    // array, so the two leases overlap on a writable range. A held
    // machine read guard parks the first execute at its commit, lease
    // live, until the second has queued behind it; then both run. The
    // conflict must be counted and the result stay bit-identical.
    let conflicts_before = root.lease_stats().conflicts;
    let a = &mut tenants[0];
    let mut b = Tenant {
        session: a.session.clone(),
        compiled: a.compiled.clone(),
        x: a.x,
        r: a.r,
        coeffs: a.coeffs.clone(),
    };
    std::thread::scope(|scope| {
        let guard = root.machine();
        scope.spawn(|| a.run(&opts));
        wait_for(&root, "the first lease", |st| st.live == 1);
        scope.spawn(|| b.run(&opts));
        wait_for(&root, "the second lease to queue", |st| {
            st.live == 1 && st.queued == 1
        });
        drop(guard);
    });
    let overlap_conflicts = root.lease_stats().conflicts - conflicts_before;
    let overlap_bit_identical = bits_equal(&tenants[0].result(), &concurrent_results[0]);
    let final_leases = root.lease_stats();

    let speedup = serialized_secs / concurrent_secs;
    let execute_over_wall = execute_secs / profiled_secs;
    let runs = (WORKERS * iters) as f64;
    println!(
        "  concurrent: {concurrent_secs:.3} s ({:.1} runs/s), serialized: {serialized_secs:.3} s \
         ({:.1} runs/s) -> speedup {speedup:.2}x",
        runs / concurrent_secs,
        runs / serialized_secs,
    );
    println!(
        "  profiled concurrent phase: {execute_secs:.3} s of executes summed over tenants = \
         {execute_over_wall:.2}x its {profiled_secs:.3} s wall time"
    );
    println!(
        "  leases: {region_grants} region grants, peak {peak_concurrent} concurrent, \
         overlap probe counted {overlap_conflicts} conflict(s), result {}, \
         {} live after drain",
        if overlap_bit_identical {
            "bit-identical"
        } else {
            "DIVERGED"
        },
        final_leases.live,
    );

    let gate = if cores >= 2 {
        "asserted (>=1.5x over the serialized baseline)".to_owned()
    } else {
        format!("skipped ({cores} host core: no parallelism to measure)")
    };
    let resident_json: Vec<String> = lane_resident.iter().map(bool::to_string).collect();
    let json = format!(
        "{{\n  \"workers\": {WORKERS},\n  \"subgrid\": [{}, {}],\n  \"host_cores\": {cores},\n  \
         \"iters\": {iters},\n  \"concurrent_secs\": {concurrent_secs:.6},\n  \
         \"serialized_secs\": {serialized_secs:.6},\n  \
         \"concurrent_runs_per_sec\": {:.4},\n  \"serialized_runs_per_sec\": {:.4},\n  \
         \"speedup\": {speedup:.4},\n  \"profiled_secs\": {profiled_secs:.6},\n  \
         \"execute_secs\": {execute_secs:.6},\n  \
         \"execute_over_wall\": {execute_over_wall:.4},\n  \
         \"region_grants\": {region_grants},\n  \
         \"peak_concurrent\": {peak_concurrent},\n  \
         \"overlap_conflicts\": {overlap_conflicts},\n  \
         \"overlap_bit_identical\": {overlap_bit_identical},\n  \
         \"live_leases_after\": {},\n  \"lane_resident\": [{}],\n  \
         \"bit_identical\": {bit_identical},\n  \"gate\": \"{gate}\",\n  \
         \"scaling_gate\": \"{gate}\"\n}}\n",
        SUBGRID.0,
        SUBGRID.1,
        runs / concurrent_secs,
        runs / serialized_secs,
        final_leases.live,
        resident_json.join(", "),
    );
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("  wrote BENCH_serve.json");

    assert!(
        bit_identical,
        "concurrent results diverge from the serialized baseline"
    );
    assert_eq!(
        final_leases.live, 0,
        "leases leaked: {} still live after the pool drained",
        final_leases.live
    );
    assert!(
        region_grants > 0,
        "disjoint lane-resident plans never took the region path"
    );
    assert_eq!(
        overlap_conflicts, 1,
        "the forced overlap must count exactly one conflict"
    );
    assert!(
        overlap_bit_identical,
        "the conflicted execute changed the result"
    );
    if cores >= 2 {
        assert!(
            speedup >= 1.5,
            "expected >=1.5x serve throughput on {cores} cores, got {speedup:.2}x"
        );
    } else {
        println!("  ({gate})");
    }
}
