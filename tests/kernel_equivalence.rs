//! Differential suite for the lockstep engine's row sweeps: the row
//! program lowered from the stencil IR at plan build must be
//! *indistinguishable* from the scalar engine running the compiled
//! schedule — bit-identical result arrays and exactly equal
//! [`Measurement`]s — across every paper pattern, thread counts (bands
//! of output rows), fused depths, edge and remainder subgrid shapes,
//! `EOSHIFT BOUNDARY=` fill values, named coefficients on temporal
//! plans, rebind ping-pong and arbitrary random stencils. The two
//! engines derive each point independently — one from the compiled
//! register schedule, one from the IR — so agreement here checks both.
//!
//! The scalar fast run is the oracle. Every lockstep case asserts that
//! its plan lane-maps ([`ExecutionPlan::lane_mapped`], with no
//! [`ExecutionPlan::lane_fallback`]): a program the build refused would
//! send the plan to the scalar engine, and the comparison with the
//! oracle would then hold vacuously.

use std::sync::Mutex;

use cmcc::cm2::{ExecMode, Machine, MachineConfig};
use cmcc::core::recognize::CoeffSpec;
use cmcc::core::stencil::{Boundary, Stencil, Tap};
use cmcc::core::{CompileError, Compiler};
use cmcc::obs::{self, Counter};
use cmcc::runtime::{CmArray, ExecOptions, ExecutionPlan, RuntimeError, StencilBinding};
use cmcc::{ExecEngine, Measurement, PaperPattern};
use cmcc_testkit::{property, Rng};

/// Serializes tests that flip or read the process-global telemetry.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn scalar_fast() -> ExecOptions {
    ExecOptions::fast()
        .with_engine(ExecEngine::Scalar)
        .with_threads(1)
}

fn lockstep_fast() -> ExecOptions {
    ExecOptions::fast()
        .with_engine(ExecEngine::Lockstep)
        .with_threads(1)
}

/// Asserts `plan` runs the lane body exactly when `opts` asks for the
/// lockstep engine, and that the fallback reason says the same.
fn assert_engine(plan: &ExecutionPlan, opts: &ExecOptions, what: &str) {
    let lockstep = opts.engine == ExecEngine::Lockstep;
    assert_eq!(
        plan.lane_mapped(),
        lockstep,
        "{what}: lane-maps exactly on the lockstep engine (fallback: {:?})",
        plan.lane_fallback()
    );
    assert_eq!(
        plan.lane_fallback().is_none(),
        plan.lane_mapped(),
        "{what}: a reason exactly when the scalar engine runs"
    );
}

/// Builds machine + deterministically filled arrays for `pattern` at
/// global `rows × cols` on `cfg`, builds a plan under `opts` — which must
/// lane-map exactly when `opts` asks for the lockstep engine — and runs
/// one convolution.
fn run_plan_case(
    pattern: PaperPattern,
    rows: usize,
    cols: usize,
    cfg: &MachineConfig,
    opts: &ExecOptions,
) -> (Measurement, Vec<u32>) {
    let compiler = Compiler::new(cfg.clone());
    let compiled = compiler
        .compile_assignment(&pattern.fortran())
        .expect("paper patterns compile");
    let mut machine = Machine::new(cfg.clone()).expect("config is valid");
    let x = CmArray::new(&mut machine, rows, cols).unwrap();
    x.fill_with(&mut machine, |r, c| {
        ((r * 31 + c * 7) % 41) as f32 * 0.125 - 2.5
    });
    let named = compiled
        .spec()
        .coeffs
        .iter()
        .filter(|c| matches!(c, CoeffSpec::Named(_)))
        .count();
    let coeffs: Vec<CmArray> = (0..named)
        .map(|a| {
            let arr = CmArray::new(&mut machine, rows, cols).unwrap();
            arr.fill_with(&mut machine, move |r, c| {
                ((r * 5 + c * 11 + a * 3) % 13) as f32 * 0.0625 - 0.375
            });
            arr
        })
        .collect();
    let refs: Vec<&CmArray> = coeffs.iter().collect();
    let r = CmArray::new(&mut machine, rows, cols).unwrap();
    let binding = StencilBinding::new(&compiled, &r, &[&x], &refs).unwrap();
    let mut plan = ExecutionPlan::build(&mut machine, &binding, opts).expect("paper patterns plan");
    assert_engine(&plan, opts, &format!("{} at {rows}x{cols}", pattern.name()));
    let m = plan.execute(&mut machine).expect("paper patterns run");
    let bits = r.gather(&machine).iter().map(|v| v.to_bits()).collect();
    (m, bits)
}

/// Every paper pattern on a strip-width-mixing shape: the row sweeps
/// and the scalar oracle must be indistinguishable.
#[test]
fn kernel_tier_matches_scalar_for_every_paper_pattern() {
    let cfg = MachineConfig::tiny_4();
    for pattern in PaperPattern::ALL {
        let (scalar_m, scalar_bits) = run_plan_case(pattern, 16, 24, &cfg, &scalar_fast());
        let (kern_m, kern_bits) = run_plan_case(pattern, 16, 24, &cfg, &lockstep_fast());
        assert_eq!(
            scalar_bits,
            kern_bits,
            "{}: row sweeps diverge from scalar",
            pattern.name()
        );
        assert_eq!(
            scalar_m,
            kern_m,
            "{}: row-sweep measurement",
            pattern.name()
        );
    }
}

/// Edge and remainder subgrid shapes: odd, prime, and
/// barely-wider-than-the-halo column counts change which strip widths
/// the scalar engine's shaver emits (and so its counters), and the row
/// length each sweep streams. The sweeps must match the scalar oracle
/// on every shape.
#[test]
fn kernel_tier_edge_and_remainder_shapes_stay_exact() {
    let cfg = MachineConfig::tiny_4();
    // Per-node subgrids of 15, 7, 9, 8, and 5 columns on the 2×2 board.
    let shapes = [(16, 30), (8, 14), (12, 18), (8, 16), (10, 10)];
    for pattern in [PaperPattern::Cross5, PaperPattern::Square9] {
        for (rows, cols) in shapes {
            let (scalar_m, scalar_bits) = run_plan_case(pattern, rows, cols, &cfg, &scalar_fast());
            let (kern_m, kern_bits) = run_plan_case(pattern, rows, cols, &cfg, &lockstep_fast());
            assert_eq!(
                scalar_bits,
                kern_bits,
                "{} at {rows}x{cols}: row sweeps diverge",
                pattern.name()
            );
            assert_eq!(scalar_m, kern_m);
        }
    }
}

/// Iterated ping-pong rebinding on a resident plan: every step swaps
/// result and source (the row program runs in both directions), the
/// plan stays lane-mapped throughout, and the whole sequence must stay
/// bit-identical to scalar.
#[test]
fn kernel_tier_ping_pong_rebind_stays_exact() {
    let cfg = MachineConfig::tiny_4();
    let compiler = Compiler::new(cfg.clone());
    let compiled = compiler
        .compile_assignment(&PaperPattern::Square9.fortran())
        .expect("paper patterns compile");
    let named = compiled
        .spec()
        .coeffs
        .iter()
        .filter(|c| matches!(c, CoeffSpec::Named(_)))
        .count();
    let (rows, cols) = (12, 16);
    let steps = 6;

    let run = |opts: &ExecOptions| -> Vec<u32> {
        let mut machine = Machine::new(cfg.clone()).expect("tiny_4 is valid");
        let a = CmArray::new(&mut machine, rows, cols).unwrap();
        let b = CmArray::new(&mut machine, rows, cols).unwrap();
        a.fill_with(&mut machine, |r, c| ((r * 19 + c * 5) % 23) as f32 * 0.125);
        b.fill(&mut machine, 0.0);
        let coeffs: Vec<CmArray> = (0..named)
            .map(|s| {
                let c = CmArray::new(&mut machine, rows, cols).unwrap();
                c.fill_with(&mut machine, move |r, col| {
                    ((r * 3 + col * 7 + s * 11) % 9) as f32 * 0.0625
                });
                c
            })
            .collect();
        let refs: Vec<&CmArray> = coeffs.iter().collect();
        let binding = StencilBinding::new(&compiled, &b, &[&a], &refs).unwrap();
        let mut plan = ExecutionPlan::build(&mut machine, &binding, opts).unwrap();
        for step in 0..steps {
            assert_engine(&plan, opts, &format!("step {step}"));
            plan.execute(&mut machine).unwrap();
            let (from, to) = if step % 2 == 0 { (&b, &a) } else { (&a, &b) };
            plan.rebind(to, &[from], &refs).unwrap();
        }
        let last = if steps % 2 == 0 { &a } else { &b };
        last.gather(&machine).iter().map(|v| v.to_bits()).collect()
    };

    let scalar = run(&scalar_fast());
    let kernel = run(&lockstep_fast());
    assert_eq!(scalar, kernel, "row-sweep ping-pong diverges from scalar");
}

/// A statement with a bias term: its chains end in taps whose data is
/// the constant `ONE` register.
const BIAS: &str = "R = C1 * CSHIFT(X, 1, -1) + 0.5 * X + C2";

/// The all-literal five-point heat statement: every coefficient is a
/// scalar of the row program.
const HEAT: &str = "T_NEXT = 0.2 * EOSHIFT(T, DIM=1, SHIFT=-1) \
                    + 0.2 * EOSHIFT(T, DIM=2, SHIFT=-1) + 0.2 * T \
                    + 0.2 * EOSHIFT(T, DIM=2, SHIFT=+1) \
                    + 0.2 * EOSHIFT(T, DIM=1, SHIFT=+1)";

/// Literal and named coefficients in one statement.
const MIXED: &str = "R = C1 * CSHIFT(X, 1, -1) + 0.5 * X + C2 * CSHIFT(X, 2, +1) \
                     + 0.125 * CSHIFT(X, 1, +1)";

/// The arrays of one case on a fresh machine: the initial state `a`, a
/// zeroed partner `b`, and the named coefficients.
struct Case {
    machine: Machine,
    compiled: cmcc::CompiledStencil,
    a: CmArray,
    b: CmArray,
    coeffs: Vec<CmArray>,
}

impl Case {
    fn new(cfg: &MachineConfig, source: &str, (rows, cols): (usize, usize)) -> Case {
        let compiled = Compiler::new(cfg.clone())
            .compile_assignment(source)
            .expect("statement compiles");
        let mut machine = Machine::new(cfg.clone()).expect("config is valid");
        let a = CmArray::new(&mut machine, rows, cols).unwrap();
        a.fill_with(&mut machine, |r, c| {
            ((r * 13 + c * 7) % 17) as f32 * 0.25 - 1.5
        });
        let b = CmArray::new(&mut machine, rows, cols).unwrap();
        b.fill(&mut machine, 0.0);
        let named = compiled
            .spec()
            .coeffs
            .iter()
            .filter(|c| matches!(c, CoeffSpec::Named(_)))
            .count();
        let coeffs = (0..named)
            .map(|s| {
                let arr = CmArray::new(&mut machine, rows, cols).unwrap();
                arr.fill_with(&mut machine, move |r, c| {
                    ((r * 5 + c * 11 + s * 3) % 13) as f32 * 0.0625 - 0.375
                });
                arr
            })
            .collect();
        Case {
            machine,
            compiled,
            a,
            b,
            coeffs,
        }
    }

    fn plan(&mut self, result: &CmArray, opts: &ExecOptions) -> ExecutionPlan {
        let refs: Vec<&CmArray> = self.coeffs.iter().collect();
        let binding = StencilBinding::new(&self.compiled, result, &[&self.a], &refs).unwrap();
        ExecutionPlan::build(&mut self.machine, &binding, opts).expect("plan builds")
    }

    fn bits(&self, array: &CmArray) -> Vec<u32> {
        array
            .gather(&self.machine)
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }

    /// Runs `executes` executes of `plan`, ping-ponging between `a` and
    /// `b` (the plan starts bound `a → b`), asserting before each that
    /// the plan runs the engine `opts` asks for; returns the final
    /// state's bits and every execute's measurement.
    fn ping_pong(
        &mut self,
        plan: &mut ExecutionPlan,
        opts: &ExecOptions,
        executes: usize,
        what: &str,
    ) -> (Vec<u32>, Vec<Measurement>) {
        let (a, b) = (self.a, self.b);
        let coeffs = self.coeffs.clone();
        let refs: Vec<&CmArray> = coeffs.iter().collect();
        let mut measurements = Vec::with_capacity(executes);
        for e in 0..executes {
            assert_engine(plan, opts, &format!("{what}, execute {e}"));
            measurements.push(plan.execute(&mut self.machine).unwrap());
            if e + 1 < executes {
                let (from, to) = if e % 2 == 0 { (&b, &a) } else { (&a, &b) };
                plan.rebind(to, &[from], &refs).unwrap();
            }
        }
        (
            self.bits(if executes % 2 == 1 { &b } else { &a }),
            measurements,
        )
    }
}

/// The scalar engine applied `steps` times, ping-ponging between `a`
/// and `b`: the final state's bits and every step's measurement.
fn scalar_steps(
    cfg: &MachineConfig,
    source: &str,
    shape: (usize, usize),
    steps: usize,
) -> (Vec<u32>, Vec<Measurement>) {
    let mut case = Case::new(cfg, source, shape);
    let b = case.b;
    let mut plan = case.plan(&b, &scalar_fast());
    case.ping_pong(&mut plan, &scalar_fast(), steps, "oracle")
}

/// `executes` lockstep executes of `source` at `depth` fused steps on
/// `threads` threads, ping-ponging between `a` and `b`, must
/// lane-map and match the scalar engine iterated `depth × executes`
/// times bit for bit — and, at depth 1, measure exactly what it
/// measures.
fn assert_sweeps_match_iterated_scalar(
    cfg: &MachineConfig,
    source: &str,
    shape: (usize, usize),
    (depth, threads, executes): (usize, usize, usize),
) {
    let what = format!("`{source}` at {shape:?}, depth {depth}, {threads} thread(s)");
    let (oracle, oracle_m) = scalar_steps(cfg, source, shape, depth * executes);
    let mut case = Case::new(cfg, source, shape);
    let opts = lockstep_fast()
        .with_threads(threads)
        .with_temporal_depth(depth);
    let b = case.b;
    let mut plan = case.plan(&b, &opts);
    assert_eq!(plan.temporal_depth(), depth, "{what}: depth");
    let (got, got_m) = case.ping_pong(&mut plan, &opts, executes, &what);
    assert_eq!(
        got, oracle,
        "{what}: diverges from the iterated scalar engine"
    );
    if depth == 1 {
        assert_eq!(got_m, oracle_m, "{what}: measurements");
    }
}

/// Every paper pattern × 1, 2 and 3 threads (each sweep cut into that
/// many bands of output rows) × fused depths 1, 2 and 4, over two
/// ping-pong executes — so both directions of the row program run, and
/// the temporal plans read their named coefficients in place from the
/// coefficient halos — matches the iterated scalar engine bit for bit.
#[test]
fn paper_patterns_match_iterated_scalar_at_every_depth_and_thread_count() {
    let board = MachineConfig::test_board_16();
    // 8×12 per node: deep enough for depth 4 at the diamond's radius 2.
    let shape = (32, 48);
    for pattern in PaperPattern::ALL {
        for threads in [1, 2, 3] {
            for depth in [1, 2, 4] {
                assert_sweeps_match_iterated_scalar(
                    &board,
                    &pattern.fortran(),
                    shape,
                    (depth, threads, 2),
                );
            }
        }
    }
}

/// `EOSHIFT(…, BOUNDARY=v)` fills the halo ring beyond the global edge
/// with `v` (and, on temporal plans, the scratch margins after every
/// fused step): the sweeps read those fills like any other word, at
/// every depth and thread count.
#[test]
fn eoshift_boundary_fill_values_sweep_exactly() {
    let tiny = MachineConfig::tiny_4();
    let sources = [
        "R = 0.5 * EOSHIFT(X, 1, -1, BOUNDARY=100.0) + 0.5 * X",
        "R = 0.25 * EOSHIFT(X, 1, -1, BOUNDARY=-2.5) + 0.25 * EOSHIFT(X, 2, 1, BOUNDARY=-2.5) \
         + 0.5 * X",
        "R = C1 * EOSHIFT(X, 2, -1, BOUNDARY=0.75) + C2 * EOSHIFT(X, 1, 1, BOUNDARY=0.75) + C3",
    ];
    for source in sources {
        for threads in [1, 3] {
            for depth in [1, 2, 4] {
                assert_sweeps_match_iterated_scalar(&tiny, source, (16, 24), (depth, threads, 3));
            }
        }
    }
}

/// Every paper pattern, a bias statement and five-point heat fused four
/// deep run *fully* on the row sweeps at every thread count: every
/// plan lane-maps, every lockstep step is booked as a kernelized one,
/// a classic plan books exactly the steps of the scalar engine's
/// schedule, and an execute matches the scalar engine bit for bit.
#[test]
fn paper_patterns_run_fully_kernelized() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let was_on = obs::enabled();
    obs::set_enabled(true);

    let tiny = MachineConfig::tiny_4();
    let board = MachineConfig::test_board_16();
    let mut sources: Vec<String> = PaperPattern::ALL.iter().map(|p| p.fortran()).collect();
    sources.push(BIAS.to_owned());
    sources.push(HEAT.to_owned());
    for (cfg, edge, threads) in [(&tiny, 2, 1), (&board, 4, 1), (&board, 4, 2)] {
        for source in &sources {
            for cols in [12, 7] {
                let shape = (8 * edge, cols * edge);
                let what = format!("`{source}` at {shape:?}, {threads} thread(s)");
                let steps_on = |opts: &ExecOptions| {
                    let mut case = Case::new(cfg, source, shape);
                    let b = case.b;
                    let mut plan = case.plan(&b, opts);
                    assert_engine(&plan, opts, &what);
                    let before = obs::thread_snapshot();
                    plan.execute(&mut case.machine).unwrap();
                    let on = obs::thread_snapshot().delta(&before);
                    (case.bits(&b), on)
                };
                let (scalar_bits, scalar) = steps_on(&scalar_fast());
                let (bits, on) = steps_on(&lockstep_fast().with_threads(threads));
                assert_eq!(bits, scalar_bits, "{what}: diverges from the scalar engine");
                let kernelized = on.get(Counter::KernelizedSteps);
                assert!(kernelized > 0, "{what}: no kernelized steps recorded");
                assert_eq!(on.get(Counter::LockstepSteps), kernelized, "{what}");
                assert_eq!(
                    kernelized,
                    scalar.get(Counter::ScalarSteps),
                    "{what}: the sweeps book the schedule's steps"
                );
                assert_eq!(on.get(Counter::ScalarSteps), 0, "{what}");
            }
        }
        for in_place in [false, true] {
            let shape = (8 * edge, 12 * edge);
            let (oracle, _) = scalar_steps(cfg, HEAT, shape, 4);
            let mut case = Case::new(cfg, HEAT, shape);
            let result = if in_place { case.a } else { case.b };
            let opts = lockstep_fast().with_threads(threads).with_temporal_depth(4);
            let mut plan = case.plan(&result, &opts);
            let what = format!("heat x4 at {shape:?}, in place: {in_place}");
            assert_engine(&plan, &opts, &what);
            let before = obs::thread_snapshot();
            plan.execute(&mut case.machine).unwrap();
            let on = obs::thread_snapshot().delta(&before);
            assert_eq!(case.bits(&result), oracle, "{what}: diverges");
            assert!(on.get(Counter::KernelizedSteps) > 0, "{what}");
            assert_eq!(
                on.get(Counter::LockstepSteps),
                on.get(Counter::KernelizedSteps)
            );
        }
    }
    obs::set_enabled(was_on);
}

/// An arbitrary stencil in the compiler's domain: 1..=9 taps with
/// offsets up to ±2 (duplicates legal), array or unit coefficients,
/// optional bias, either boundary.
fn gen_stencil(rng: &mut Rng) -> (Stencil, usize) {
    let n_taps = rng.usize_in(1, 9);
    let mut taps = Vec::new();
    let mut n_coeffs = 0;
    for _ in 0..n_taps {
        let dr = rng.i32_in(-2, 2);
        let dc = rng.i32_in(-2, 2);
        if rng.bool() {
            taps.push(Tap::unit(dr, dc));
        } else {
            taps.push(Tap::new(dr, dc, n_coeffs));
            n_coeffs += 1;
        }
    }
    let bias_terms = if rng.bool() {
        n_coeffs += 1;
        vec![n_coeffs - 1]
    } else {
        Vec::new()
    };
    let boundary = if rng.bool() {
        Boundary::Circular
    } else {
        Boundary::ZeroFill
    };
    let stencil =
        Stencil::new(taps, bias_terms, boundary, n_coeffs).expect("nonempty by construction");
    (stencil, n_coeffs)
}

/// Randomized sweep: arbitrary stencils on random shapes, thread counts
/// and fused depths, run on the scalar engine (iterated once per fused
/// step) and on the lockstep engine. Every lockstep plan must lane-map
/// — the build must lower every statement the compiler accepts — and
/// results must be indistinguishable; a depth-1 run's measurement too.
#[test]
fn property_kernel_tier_is_indistinguishable() {
    property("row-sweep differential", 12, |rng: &mut Rng| {
        let (stencil, n_coeffs) = gen_stencil(rng);
        let source = cmcc::core::unparse::unparse_stencil(&stencil);
        let rows = 2 * rng.usize_in(5, 12);
        let cols = 2 * rng.usize_in(5, 12);
        let threads = rng.usize_in(1, 4);
        let depth = rng.usize_in(1, 4);
        let seed = rng.u64_below(1000);
        let cfg = MachineConfig::tiny_4();
        let compiler = Compiler::new(cfg.clone());
        let compiled = match compiler.compile_assignment(&source) {
            Ok(c) => c,
            // Register exhaustion is a legal outcome for big footprints.
            Err(CompileError::NoFeasibleWidth { .. }) => return,
            Err(e) => panic!("unexpected compile error on `{source}`: {e}"),
        };
        let mix = |i: usize, s: u64| -> f32 {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(s);
            ((h >> 32) as i32 % 1000) as f32 * 0.01
        };
        // `steps` scalar executes ping-ponging, or one lockstep execute
        // at `depth`: the final state, the first measurement and the
        // steps it advanced.
        let run = |opts: &ExecOptions, steps: usize| -> Option<(Measurement, Vec<u32>, usize)> {
            let mut machine = Machine::new(cfg.clone()).expect("tiny_4 is valid");
            let x = CmArray::new(&mut machine, rows, cols).unwrap();
            let data: Vec<f32> = (0..rows * cols).map(|i| mix(i, seed)).collect();
            x.scatter(&mut machine, &data);
            let coeffs: Vec<CmArray> = (0..n_coeffs)
                .map(|a| {
                    let arr = CmArray::new(&mut machine, rows, cols).unwrap();
                    let data: Vec<f32> = (0..rows * cols)
                        .map(|i| mix(i + a * 7919, seed ^ 0xABCD))
                        .collect();
                    arr.scatter(&mut machine, &data);
                    arr
                })
                .collect();
            let refs: Vec<&CmArray> = coeffs.iter().collect();
            let r = CmArray::new(&mut machine, rows, cols).unwrap();
            let binding = StencilBinding::new(&compiled, &r, &[&x], &refs).unwrap();
            let mut plan = match ExecutionPlan::build(&mut machine, &binding, opts) {
                Ok(p) => p,
                // Halo deeper than the subgrid is a legal refusal.
                Err(RuntimeError::SubgridTooSmall { .. }) => return None,
                Err(e) => panic!("plan error on `{source}`: {e}"),
            };
            assert_engine(&plan, opts, &format!("`{source}` at {rows}x{cols}"));
            let m = plan.execute(&mut machine).expect("plan executes");
            let (mut cur, mut nxt) = (r, x);
            for _ in 1..steps {
                plan.rebind(&nxt, &[&cur], &refs).unwrap();
                plan.execute(&mut machine).expect("plan executes");
                std::mem::swap(&mut cur, &mut nxt);
            }
            let bits = cur.gather(&machine).iter().map(|v| v.to_bits()).collect();
            Some((m, bits, plan.temporal_depth()))
        };
        let lockstep = lockstep_fast()
            .with_threads(threads)
            .with_temporal_depth(depth);
        let Some((kern_m, kern_bits, fused)) = run(&lockstep, 1) else {
            return;
        };
        let (scalar_m, scalar_bits, _) = run(&scalar_fast(), fused).expect("same shape plans");
        assert_eq!(
            scalar_bits, kern_bits,
            "`{source}` at {rows}x{cols}, {threads} threads, depth {fused}: row sweeps diverge"
        );
        if fused == 1 {
            assert_eq!(
                scalar_m, kern_m,
                "`{source}`: row-sweep measurement diverges"
            );
        }
    });
}

/// The per-step slices of a temporal schedule run through the sweeps
/// exactly like a depth-1 schedule: every lockstep plan lane-maps, and
/// the sweeps and the iterated scalar oracle must be indistinguishable
/// at every depth — for named-coefficient paper patterns, all-literal
/// heat, and a statement mixing both.
#[test]
fn temporal_kernel_tier_matches_scalar() {
    let cfg = MachineConfig::tiny_4();
    let sources = [
        PaperPattern::Square9.fortran(),
        PaperPattern::Cross5.fortran(),
        HEAT.to_owned(),
        MIXED.to_owned(),
    ];
    for source in &sources {
        for depth in [1, 2, 4] {
            assert_sweeps_match_iterated_scalar(&cfg, source, (16, 24), (depth, 1, 4 / depth));
        }
    }
}

/// Every chain starts from the zero register, so a point whose only
/// product is `-0.0` — a negative coefficient times zero data — ends as
/// `+0.0`, and the sweeps must end there too, literal and named
/// coefficients alike, at every depth. (Odd step counts: a second step
/// would flip the sign back and hide a lost `+ 0.0`.)
#[test]
fn signed_zero_products_start_from_plus_zero() {
    let cfg = MachineConfig::tiny_4();
    for source in ["R = -0.5 * CSHIFT(X, 1, 1)", "R = C1 * CSHIFT(X, 2, -1)"] {
        for depth in [1, 3] {
            assert_sweeps_match_iterated_scalar(&cfg, source, (16, 24), (depth, 1, 1));
        }
    }
}

/// The point of temporal tiling, pinned by telemetry: a time loop at
/// depth k issues exactly k× fewer halo-exchange program runs than the
/// same loop one step at a time, every execute books k fused steps, and
/// a depth the plan cannot honor books one fallback.
#[test]
fn temporal_telemetry_counts_exchanges_fused_steps_and_fallbacks() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let was_on = obs::enabled();
    obs::set_enabled(true);

    // All-literal five-point heat kernel: no coefficient halos, so the
    // exchange count is purely the source-halo traffic.
    let cfg = MachineConfig::tiny_4();
    let compiler = Compiler::new(cfg.clone());
    let compiled = compiler
        .compile_assignment(HEAT)
        .expect("heat kernel compiles");
    let (rows, cols, steps) = (16, 24, 4usize);

    let exchanges_at_depth = |depth: usize| -> (u64, u64) {
        let mut machine = Machine::new(cfg.clone()).expect("tiny_4 is valid");
        let a = CmArray::new(&mut machine, rows, cols).unwrap();
        let b = CmArray::new(&mut machine, rows, cols).unwrap();
        a.fill_with(&mut machine, |r, c| ((r * 13 + c) % 17) as f32 * 0.25);
        b.fill(&mut machine, 0.0);
        let opts = lockstep_fast().with_temporal_depth(depth);
        let binding = StencilBinding::new(&compiled, &b, &[&a], &[]).unwrap();
        let mut plan = ExecutionPlan::build(&mut machine, &binding, &opts).unwrap();
        assert_eq!(plan.temporal_depth(), depth, "depth should take effect");
        assert!(plan.lane_mapped(), "depth {depth}: lane-maps");
        // This thread's counts only: other tests in this binary execute
        // plans concurrently while telemetry is on (threads = 1 keeps
        // every count here on the calling thread).
        let before = obs::thread_snapshot();
        for e in 0..steps / depth {
            plan.execute(&mut machine).unwrap();
            if e + 1 < steps / depth {
                let (from, to) = if e % 2 == 0 { (&b, &a) } else { (&a, &b) };
                plan.rebind(to, &[from], &[]).unwrap();
            }
        }
        let delta = obs::thread_snapshot().delta(&before);
        (
            delta.get(Counter::HaloExchanges),
            delta.get(Counter::FusedSteps),
        )
    };

    let (shallow_exchanges, shallow_fused) = exchanges_at_depth(1);
    let (deep_exchanges, deep_fused) = exchanges_at_depth(steps);
    assert!(shallow_exchanges > 0, "exchanges must be counted at all");
    assert_eq!(
        shallow_exchanges,
        deep_exchanges * steps as u64,
        "depth {steps} must cut halo exchanges exactly {steps}x"
    );
    // Both loops advance the same number of physical time steps.
    assert_eq!(shallow_fused, steps as u64);
    assert_eq!(deep_fused, steps as u64);

    // A depth the shape cannot carry books exactly one fallback.
    let mut machine = Machine::new(cfg.clone()).expect("tiny_4 is valid");
    let a = CmArray::new(&mut machine, 8, 8).unwrap();
    a.fill(&mut machine, 1.0);
    let b = CmArray::new(&mut machine, 8, 8).unwrap();
    let binding = StencilBinding::new(&compiled, &b, &[&a], &[]).unwrap();
    let before = obs::thread_snapshot();
    let plan = ExecutionPlan::build(
        &mut machine,
        &binding,
        &lockstep_fast().with_temporal_depth(16),
    )
    .unwrap();
    let delta = obs::thread_snapshot().delta(&before);
    obs::set_enabled(was_on);
    assert_eq!(plan.temporal_depth(), 1);
    assert!(plan.lane_mapped(), "the clamped plan still lane-maps");
    assert_eq!(delta.get(Counter::TemporalFallbacks), 1);
}

/// A binding whose result aliases a coefficient array cannot lane-map,
/// so the sweeps never see it: the plan falls back to the scalar
/// engine, names the reason, and records no lockstep steps at all — the
/// fallback is *before* the lockstep engine, not a miscount inside it.
#[test]
fn aliased_fallback_records_no_lockstep_steps() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let was_on = obs::enabled();
    obs::set_enabled(true);

    let cfg = MachineConfig::tiny_4();
    let compiler = Compiler::new(cfg.clone());
    let compiled = compiler
        .compile_assignment("R = C * X")
        .expect("single-tap stencil compiles");
    let mut machine = Machine::new(cfg).expect("tiny_4 is valid");
    let x = CmArray::new(&mut machine, 8, 12).unwrap();
    x.fill_with(&mut machine, |r, c| (r * 3 + c) as f32 * 0.5 - 6.0);
    let c = CmArray::new(&mut machine, 8, 12).unwrap();
    c.fill(&mut machine, 3.0);

    // Result aliased to the coefficient array: the lane mirror cannot
    // represent one buffer in two roles.
    let binding = StencilBinding::new(&compiled, &c, &[&x], &[&c]).unwrap();
    let mut plan = ExecutionPlan::build(&mut machine, &binding, &lockstep_fast()).unwrap();
    assert!(!plan.lane_mapped(), "aliased binding must fall back");
    assert_eq!(
        plan.lane_fallback(),
        Some("bound arrays overlap in node memory")
    );

    let before = obs::snapshot();
    plan.execute(&mut machine).expect("aliased plan runs");
    let delta = obs::snapshot().delta(&before);
    obs::set_enabled(was_on);

    assert_eq!(delta.get(Counter::KernelizedSteps), 0);
    assert_eq!(delta.get(Counter::LockstepSteps), 0);
    assert!(
        delta.get(Counter::ScalarSteps) > 0,
        "the scalar engine ran it"
    );
}

/// Every scalar-engine fallback names its reason, rebinds included, and
/// every lane-mapped plan names none. The one aliasing the lane body
/// refuses is a result over a named coefficient: two coefficient slots
/// bound to one array each refresh a lane buffer of their own, so that
/// binding lane-maps — and matches the scalar engine bit for bit.
#[test]
fn every_scalar_fallback_names_its_reason() {
    let cfg = MachineConfig::tiny_4();
    let compiled = Compiler::new(cfg.clone())
        .compile_assignment("R = C1 * CSHIFT(X, 1, -1) + C2 * X + 0.5 * CSHIFT(X, 2, 1)")
        .expect("statement compiles");
    let mut machine = Machine::new(cfg).expect("tiny_4 is valid");
    let x = CmArray::new(&mut machine, 8, 8).unwrap();
    x.fill_with(&mut machine, |r, c| {
        ((r * 7 + c * 3) % 11) as f32 * 0.25 - 1.0
    });
    let c = CmArray::new(&mut machine, 8, 8).unwrap();
    c.fill_with(&mut machine, |r, c| ((r + 2 * c) % 5) as f32 * 0.5 - 0.75);
    let d = CmArray::new(&mut machine, 8, 8).unwrap();
    let r = CmArray::new(&mut machine, 8, 8).unwrap();
    let build = |machine: &mut Machine, result: &CmArray, coeffs: [&CmArray; 2], opts| {
        let binding = StencilBinding::new(&compiled, result, &[&x], &coeffs).unwrap();
        ExecutionPlan::build(machine, &binding, &opts).unwrap()
    };
    let overlap = Some("bound arrays overlap in node memory");
    let cases = [
        (
            r,
            [&c, &d],
            ExecOptions::default(),
            Some("cycle-accurate mode"),
        ),
        (r, [&c, &d], scalar_fast(), Some("scalar engine requested")),
        (c, [&c, &d], lockstep_fast(), overlap),
        (d, [&c, &d], lockstep_fast(), overlap),
        (r, [&c, &d], lockstep_fast(), None),
        (r, [&c, &c], lockstep_fast(), None),
        (r, [&c, &d], lockstep_fast().with_threads(3), None),
        (r, [&c, &d], lockstep_fast().with_temporal_depth(2), None),
    ];
    for (result, coeffs, opts, reason) in cases {
        let plan = build(&mut machine, &result, coeffs, opts);
        assert_eq!(plan.lane_fallback(), reason, "{opts:?}");
        assert_eq!(plan.lane_mapped(), reason.is_none(), "{opts:?}");
        assert_eq!(
            opts.mode == ExecMode::Cycle,
            reason == Some("cycle-accurate mode")
        );
        plan.release(&mut machine);
    }
    // Two slots bound to one array, on both engines.
    let mut run = |opts| {
        let mut plan = build(&mut machine, &r, [&c, &c], opts);
        let m = plan.execute(&mut machine).unwrap();
        plan.release(&mut machine);
        let bits: Vec<u32> = r.gather(&machine).iter().map(|v| v.to_bits()).collect();
        (m, bits)
    };
    let (lane_m, lane_bits) = run(lockstep_fast());
    let (scalar_m, scalar_bits) = run(scalar_fast());
    assert_eq!(lane_bits, scalar_bits, "two slots, one array: results");
    assert_eq!(lane_m, scalar_m, "two slots, one array: measurement");

    // A rebind onto an aliased binding names the reason; a clean rebind
    // clears it.
    let mut plan = build(&mut machine, &r, [&c, &d], lockstep_fast());
    plan.rebind(&c, &[&x], &[&c, &d]).unwrap();
    assert_eq!(plan.lane_fallback(), overlap);
    plan.rebind(&r, &[&x], &[&c, &c]).unwrap();
    assert_eq!(plan.lane_fallback(), None);
    assert!(plan.lane_mapped());
}
