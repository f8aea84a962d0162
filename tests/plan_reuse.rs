//! Differential suite for the compile → bind → plan → execute pipeline:
//! a plan built once and executed N times must be indistinguishable from
//! N fresh [`convolve`] calls — bit-identical result arrays and exactly
//! equal [`Measurement`]s — across the paper patterns, both exchange
//! primitives (a machine config each), and serial and threaded
//! execution. Also covers the
//! steady-state zero-allocation guarantee and the session-level plan
//! cache (hits, shape-keyed misses, fingerprint-keyed misses, and
//! per-session isolation).

use cmcc::cm2::{ExchangePrimitive, Machine, MachineConfig};
use cmcc::core::recognize::CoeffSpec;
use cmcc::core::Compiler;
use cmcc::runtime::{convolve, CmArray, ExecOptions, ExecutionPlan, StencilBinding};
use cmcc::{Measurement, PaperPattern, Session};

/// Builds machine + arrays + compiled stencil for `pattern` on a 2×2
/// board described by `cfg`, with deterministic data.
struct Case {
    machine: Machine,
    compiled: cmcc::CompiledStencil,
    x: CmArray,
    r: CmArray,
    coeffs: Vec<CmArray>,
}

impl Case {
    fn new(cfg: MachineConfig, pattern: PaperPattern) -> Self {
        let compiler = Compiler::new(cfg.clone());
        let compiled = compiler
            .compile_assignment(&pattern.fortran())
            .expect("paper patterns compile");
        let mut machine = Machine::new(cfg).expect("the config is valid");
        let (rows, cols) = (8, 12);
        let x = CmArray::new(&mut machine, rows, cols).unwrap();
        x.fill_with(&mut machine, |r, c| {
            ((r * 31 + c * 17) % 23) as f32 * 0.375 - 3.0
        });
        let named = compiled
            .spec()
            .coeffs
            .iter()
            .filter(|c| matches!(c, CoeffSpec::Named(_)))
            .count();
        let coeffs: Vec<CmArray> = (0..named)
            .map(|i| {
                let a = CmArray::new(&mut machine, rows, cols).unwrap();
                a.fill_with(&mut machine, move |r, c| {
                    ((r * 7 + c * 3 + i * 11) % 13) as f32 * 0.25 - 1.0
                });
                a
            })
            .collect();
        let r = CmArray::new(&mut machine, rows, cols).unwrap();
        Case {
            machine,
            compiled,
            x,
            r,
            coeffs,
        }
    }

    /// Owned handles (`CmArray` is `Copy`), so borrowing them does not
    /// pin the whole `Case`.
    fn coeff_handles(&self) -> Vec<CmArray> {
        self.coeffs.clone()
    }
}

/// Fresh convolve vs one-plan-three-executes must agree exactly:
/// the same bits in the result array and the same `Measurement`, for
/// every paper pattern × exchange primitive (a machine config each) ×
/// serial/threaded execution.
#[test]
fn plan_reuse_is_bit_identical_to_fresh_convolve() {
    for pattern in PaperPattern::ALL {
        for primitive in [ExchangePrimitive::News, ExchangePrimitive::OldPerDirection] {
            for threads in [1, 8] {
                let opts = ExecOptions::default().with_threads(threads);
                let mut case = Case::new(
                    MachineConfig {
                        primitive,
                        ..MachineConfig::tiny_4()
                    },
                    pattern,
                );
                let handles = case.coeff_handles();
                let refs: Vec<&CmArray> = handles.iter().collect();

                let fresh: Measurement = convolve(
                    &mut case.machine,
                    &case.compiled,
                    &case.r,
                    &case.x,
                    &refs,
                    &opts,
                )
                .unwrap();
                let fresh_bits: Vec<u32> = case
                    .r
                    .gather(&case.machine)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();

                let binding =
                    StencilBinding::new(&case.compiled, &case.r, &[&case.x], &refs).unwrap();
                let mut plan = ExecutionPlan::build(&mut case.machine, &binding, &opts).unwrap();
                for iter in 0..3 {
                    let planned = plan.execute(&mut case.machine).unwrap();
                    assert_eq!(
                        planned, fresh,
                        "{pattern:?} {primitive:?} threads={threads} iter {iter}: Measurement"
                    );
                    let plan_bits: Vec<u32> = case
                        .r
                        .gather(&case.machine)
                        .iter()
                        .map(|v| v.to_bits())
                        .collect();
                    assert_eq!(
                        plan_bits, fresh_bits,
                        "{pattern:?} {primitive:?} threads={threads} iter {iter}: result bits"
                    );
                }
                plan.release(&mut case.machine);
            }
        }
    }
}

/// A ping-pong time-stepping chain (swap result/source each step) through
/// one rebound plan must equal the same chain run through fresh convolve
/// calls.
#[test]
fn ping_pong_chain_matches_fresh_convolve_chain() {
    let statement = "R = 0.25 * CSHIFT(X, 1, -1) + 0.5 * X + 0.25 * CSHIFT(X, 1, +1)";
    let steps = 6;
    let run_fresh = |steps: usize| -> Vec<u32> {
        let cfg = MachineConfig::tiny_4();
        let compiled = Compiler::new(cfg.clone())
            .compile_assignment(statement)
            .unwrap();
        let mut m = Machine::new(cfg).unwrap();
        let mut cur = CmArray::new(&mut m, 8, 8).unwrap();
        let mut next = CmArray::new(&mut m, 8, 8).unwrap();
        cur.fill_with(&mut m, |r, c| ((r * 5 + c) % 9) as f32);
        for _ in 0..steps {
            convolve(&mut m, &compiled, &next, &cur, &[], &ExecOptions::fast()).unwrap();
            std::mem::swap(&mut cur, &mut next);
        }
        cur.gather(&m).iter().map(|v| v.to_bits()).collect()
    };
    let run_planned = |steps: usize| -> Vec<u32> {
        let cfg = MachineConfig::tiny_4();
        let compiled = Compiler::new(cfg.clone())
            .compile_assignment(statement)
            .unwrap();
        let mut m = Machine::new(cfg).unwrap();
        let mut cur = CmArray::new(&mut m, 8, 8).unwrap();
        let mut next = CmArray::new(&mut m, 8, 8).unwrap();
        cur.fill_with(&mut m, |r, c| ((r * 5 + c) % 9) as f32);
        let binding = StencilBinding::new(&compiled, &next, &[&cur], &[]).unwrap();
        let mut plan = ExecutionPlan::build(&mut m, &binding, &ExecOptions::fast()).unwrap();
        for _ in 0..steps {
            plan.rebind(&next, &[&cur], &[]).unwrap();
            plan.execute(&mut m).unwrap();
            std::mem::swap(&mut cur, &mut next);
        }
        plan.release(&mut m);
        cur.gather(&m).iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(run_fresh(steps), run_planned(steps));
}

/// The acceptance criterion made executable: a steady-state iteration
/// performs zero field allocations and leaves the temporary bump mark
/// untouched, even while rebinding between ping-pong buffers.
#[test]
fn steady_state_iterations_allocate_nothing() {
    let cfg = MachineConfig::tiny_4();
    let compiled = Compiler::new(cfg.clone())
        .compile_assignment(&PaperPattern::Cross5.fortran())
        .unwrap();
    let mut m = Machine::new(cfg).unwrap();
    let a = CmArray::new(&mut m, 8, 8).unwrap();
    let b = CmArray::new(&mut m, 8, 8).unwrap();
    let coeffs: Vec<CmArray> = (0..5)
        .map(|_| CmArray::new(&mut m, 8, 8).unwrap())
        .collect();
    let refs: Vec<&CmArray> = coeffs.iter().collect();
    a.fill(&mut m, 1.0);

    let binding = StencilBinding::new(&compiled, &b, &[&a], &refs).unwrap();
    let mut plan = ExecutionPlan::build(&mut m, &binding, &ExecOptions::default()).unwrap();
    plan.execute(&mut m).unwrap(); // warm-up (still allocation-free, but be strict below)

    let allocs = m.alloc_count();
    let mark = m.alloc_mark();
    let persistent = m.persistent_used();
    let (mut src, mut dst) = (a, b);
    for _ in 0..10 {
        plan.rebind(&dst, &[&src], &refs).unwrap();
        plan.execute(&mut m).unwrap();
        std::mem::swap(&mut src, &mut dst);
    }
    assert_eq!(m.alloc_count(), allocs, "steady state allocated a field");
    assert_eq!(m.alloc_mark(), mark, "steady state moved the bump mark");
    assert_eq!(
        m.persistent_used(),
        persistent,
        "steady state changed the persistent arena"
    );
    plan.release(&mut m);
}

/// The session cache: repeated runs of the same statement/shape/options
/// hit; a shape change misses (new key) without invalidating the first
/// plan; results keep matching fresh execution throughout.
#[test]
fn session_cache_hits_and_shape_changes_miss() {
    let mut s = Session::tiny().unwrap();
    let c = s.compile("R = 0.25 * CSHIFT(X, 1, -1) + 0.75 * X").unwrap();
    let x8 = s.array(8, 8).unwrap();
    let r8 = s.array(8, 8).unwrap();
    x8.fill(&mut s.machine_mut(), 2.0);

    let first = s.run(&c, &r8, &x8, &[]).unwrap();
    assert_eq!(s.plan_cache_stats().misses, 1);
    assert_eq!(s.plan_cache_stats().hits, 0);
    for _ in 0..4 {
        let again = s.run(&c, &r8, &x8, &[]).unwrap();
        assert_eq!(again, first, "cached run must match the first run");
    }
    assert_eq!(s.plan_cache_stats().hits, 4);
    assert_eq!(r8.get(&s.machine(), 3, 3), 2.0);

    // New shape → new key → miss; old plan still cached.
    let x16 = s.array(16, 8).unwrap();
    let r16 = s.array(16, 8).unwrap();
    x16.fill(&mut s.machine_mut(), 2.0);
    s.run(&c, &r16, &x16, &[]).unwrap();
    assert_eq!(s.plan_cache_stats().misses, 2);
    assert_eq!(s.cached_plans(), 2);

    // Different options → different key.
    s.run_with(&c, &r8, &x8, &[], &ExecOptions::fast()).unwrap();
    assert_eq!(s.plan_cache_stats().misses, 3);

    // And back to the original: still a hit.
    s.run(&c, &r8, &x8, &[]).unwrap();
    assert_eq!(s.plan_cache_stats().hits, 5);
}

/// Changing an EOSHIFT boundary fill value changes the statement
/// fingerprint, so the cache must build a fresh plan — the fill is baked
/// into the plan's exchange program.
#[test]
fn eoshift_fill_value_change_misses_the_cache() {
    let mut s = Session::tiny().unwrap();
    let hot = s
        .compile("R = 0.5 * EOSHIFT(X, 1, -1, BOUNDARY=100.0) + 0.5 * X")
        .unwrap();
    let cold = s
        .compile("R = 0.5 * EOSHIFT(X, 1, -1, BOUNDARY=0.0) + 0.5 * X")
        .unwrap();
    assert_ne!(hot.fingerprint(), cold.fingerprint());

    let x = s.array(8, 8).unwrap();
    let r = s.array(8, 8).unwrap();
    x.fill(&mut s.machine_mut(), 0.0);

    s.run(&hot, &r, &x, &[]).unwrap();
    assert_eq!(
        r.get(&s.machine(), 0, 3),
        50.0,
        "hot wall blends toward 100"
    );
    s.run(&cold, &r, &x, &[]).unwrap();
    assert_eq!(r.get(&s.machine(), 0, 3), 0.0, "cold wall stays at zero");
    assert_eq!(
        s.plan_cache_stats().misses,
        2,
        "each fill value needs its own plan"
    );

    // Re-running the hot variant hits its still-cached plan and restores
    // the hot answer.
    s.run(&hot, &r, &x, &[]).unwrap();
    assert_eq!(r.get(&s.machine(), 0, 3), 50.0);
    assert_eq!(s.plan_cache_stats().hits, 1);
}

/// Plan caches are per session, so two sessions with different machine
/// configurations can never serve each other stale plans.
#[test]
fn sessions_have_independent_caches() {
    let statement = "R = 0.5 * X + 0.5 * CSHIFT(X, 2, 1)";
    let mut tiny = Session::tiny().unwrap();
    let mut board = Session::test_board().unwrap();
    let ct = tiny.compile(statement).unwrap();
    let cb = board.compile(statement).unwrap();

    let (xt, rt) = (tiny.array(8, 8).unwrap(), tiny.array(8, 8).unwrap());
    let (xb, rb) = (board.array(8, 8).unwrap(), board.array(8, 8).unwrap());
    xt.fill(&mut tiny.machine_mut(), 3.0);
    xb.fill(&mut board.machine_mut(), 3.0);

    tiny.run(&ct, &rt, &xt, &[]).unwrap();
    board.run(&cb, &rb, &xb, &[]).unwrap();
    assert_eq!(tiny.plan_cache_stats().misses, 1);
    assert_eq!(board.plan_cache_stats().misses, 1);
    assert_eq!(rt.get(&tiny.machine(), 1, 1), 3.0);
    assert_eq!(rb.get(&board.machine(), 1, 1), 3.0);

    tiny.clear_plan_cache();
    assert_eq!(tiny.cached_plans(), 0);
    assert_eq!(
        board.cached_plans(),
        1,
        "clearing one session leaves the other"
    );
    // After clearing, the next run rebuilds.
    tiny.run(&ct, &rt, &xt, &[]).unwrap();
    assert_eq!(tiny.plan_cache_stats().misses, 2);
}

/// The LRU bound: capacity K keeps at most K plans; evicted plans return
/// their node memory to the persistent arena. Capacity 0 runs the same
/// path and evicts each run's plan right after the run.
#[test]
fn lru_eviction_frees_node_memory() {
    let shapes = [(8usize, 8usize), (16, 8), (8, 12), (16, 12)];
    for capacity in [2, 0] {
        let mut s = Session::tiny().unwrap();
        s.set_plan_cache_capacity(capacity);
        let c = s.compile("R = 1.0 * X").unwrap();
        for (rows, cols) in shapes {
            let x = s.array(rows, cols).unwrap();
            let r = s.array(rows, cols).unwrap();
            s.run(&c, &r, &x, &[]).unwrap();
            assert!(s.cached_plans() <= capacity);
            if capacity == 0 {
                assert!(s.last_plan().is_none(), "capacity 0 kept an instance");
                assert_eq!(
                    s.machine().persistent_used(),
                    0,
                    "capacity 0 kept a plan's node memory"
                );
                let stats = s.plan_cache_stats();
                assert_eq!(stats.evictions, stats.misses, "every run's plan is evicted");
            }
        }
        assert_eq!(s.cached_plans(), capacity);
        assert_eq!(s.plan_cache_stats().misses, 4);
        assert_eq!(
            s.machine().persistent_used() > 0,
            capacity > 0,
            "cached plans hold node memory"
        );
        s.clear_plan_cache();
        assert_eq!(s.machine().persistent_used(), 0, "all plans released");
    }
}
