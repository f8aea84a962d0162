//! Differential suite for the lockstep engine's kernels: the
//! monomorphized operand-direct sweeps compiled at plan build must be
//! *indistinguishable* from the scalar engine — bit-identical result
//! arrays and exactly equal [`Measurement`]s — across every paper
//! pattern, edge and remainder subgrid shapes, every width class
//! (16-wide, 8-wide, dynamic span), rebind ping-pong, and arbitrary
//! random stencils.
//!
//! The scalar fast run is the oracle. Every lockstep case asserts that
//! its plan lane-maps ([`ExecutionPlan::lane_mapped`]): a strip the
//! kernel classifier refused would send the plan to the scalar engine,
//! and the comparison with the oracle would then hold vacuously. The
//! telemetry tests additionally pin that paper patterns run fully
//! kernelized at every width class.

use std::sync::Mutex;

use cmcc::cm2::kernels::ARITY_SLOTS;
use cmcc::cm2::{Machine, MachineConfig};
use cmcc::core::recognize::CoeffSpec;
use cmcc::core::stencil::{Boundary, Stencil, Tap};
use cmcc::core::{CompileError, Compiler};
use cmcc::obs::{self, Counter};
use cmcc::runtime::{
    CmArray, ExecOptions, ExecutionPlan, PlanLifetime, RuntimeError, StencilBinding,
};
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
    let mut plan = ExecutionPlan::build(&mut machine, &binding, opts, PlanLifetime::Scoped)
        .expect("paper patterns plan");
    assert_eq!(
        plan.lane_mapped(),
        opts.engine == ExecEngine::Lockstep,
        "{} at {rows}x{cols}: lane-maps exactly on the lockstep engine",
        pattern.name()
    );
    let m = plan.execute(&mut machine).expect("paper patterns run");
    let bits = r.gather(&machine).iter().map(|v| v.to_bits()).collect();
    (m, bits)
}

/// Every paper pattern on a strip-width-mixing shape: the kernels and
/// the scalar oracle must be indistinguishable.
#[test]
fn kernel_tier_matches_scalar_for_every_paper_pattern() {
    let cfg = MachineConfig::tiny_4();
    for pattern in PaperPattern::ALL {
        let (scalar_m, scalar_bits) = run_plan_case(pattern, 16, 24, &cfg, &scalar_fast());
        let (kern_m, kern_bits) = run_plan_case(pattern, 16, 24, &cfg, &lockstep_fast());
        assert_eq!(
            scalar_bits,
            kern_bits,
            "{}: kernels diverge from scalar",
            pattern.name()
        );
        assert_eq!(scalar_m, kern_m, "{}: kernel measurement", pattern.name());
    }
}

/// Thread splits on the 16-node board change the lane-group node counts
/// and with them the width class each kernel dispatches to: 1 thread →
/// one 16-lane group (`w16`), 2 threads → 8-lane groups (`w8`), 3
/// threads → ≤6-lane groups (the dynamic span path). Every class must
/// stay bit-identical to the scalar oracle.
#[test]
fn kernel_tier_exact_across_width_classes() {
    let cfg = MachineConfig::test_board_16();
    for pattern in [PaperPattern::Square9, PaperPattern::Diamond13] {
        let (scalar_m, scalar_bits) = run_plan_case(pattern, 32, 48, &cfg, &scalar_fast());
        for threads in [1, 2, 3] {
            let opts = lockstep_fast().with_threads(threads);
            let (kern_m, kern_bits) = run_plan_case(pattern, 32, 48, &cfg, &opts);
            assert_eq!(
                scalar_bits,
                kern_bits,
                "{} at {threads} threads: kernels diverge",
                pattern.name()
            );
            assert_eq!(scalar_m, kern_m);
        }
    }
}

/// Edge and remainder subgrid shapes: odd, prime, and
/// barely-wider-than-the-halo column counts change which strip widths
/// the shaver emits, and uneven half-strip splits exercise the chunk
/// remainders inside each burst. The kernels must match the scalar
/// oracle on every shape.
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
                "{} at {rows}x{cols}: kernels diverge",
                pattern.name()
            );
            assert_eq!(scalar_m, kern_m);
        }
    }
}

/// Iterated ping-pong rebinding on a resident plan: every step swaps
/// result and source (the cached coefficient streams survive), the plan
/// stays lane-mapped throughout, and the whole sequence must stay
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
        let mut plan =
            ExecutionPlan::build(&mut machine, &binding, opts, PlanLifetime::Scoped).unwrap();
        let lockstep = opts.engine == ExecEngine::Lockstep;
        for step in 0..steps {
            assert_eq!(plan.lane_mapped(), lockstep, "step {step}: lane-maps");
            plan.execute(&mut machine).unwrap();
            let (from, to) = if step % 2 == 0 { (&b, &a) } else { (&a, &b) };
            plan.rebind(to, &[from], &refs).unwrap();
        }
        let last = if steps % 2 == 0 { &a } else { &b };
        last.gather(&machine).iter().map(|v| v.to_bits()).collect()
    };

    let scalar = run(&scalar_fast());
    let kernel = run(&lockstep_fast());
    assert_eq!(scalar, kernel, "kernelized ping-pong diverges from scalar");
}

/// A statement with a bias term: its chains end in taps whose data is
/// the constant `ONE` register.
const BIAS: &str = "R = C1 * CSHIFT(X, 1, -1) + 0.5 * X + C2";

/// Per-node column counts: 12 shaves into strips of width 8 and 4; 7
/// into 4 + 2 + 1, and the width-1 strip's dummy partner thread reads
/// and writes the constant `ZERO` register.
const COLS_WIDE: usize = 12;
const COLS_ODD: usize = 7;

/// The arrays of one coverage case on a fresh machine: the initial
/// state `a`, a zeroed partner `b`, and the named coefficients.
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
        ExecutionPlan::build(&mut self.machine, &binding, opts, PlanLifetime::Scoped)
            .expect("plan builds")
    }

    fn bits(&self, array: &CmArray) -> Vec<u32> {
        array
            .gather(&self.machine)
            .iter()
            .map(|v| v.to_bits())
            .collect()
    }
}

/// The scalar engine applied `steps` times, ping-ponging between `a`
/// and `b`: the final state's bits.
fn scalar_steps(
    cfg: &MachineConfig,
    source: &str,
    shape: (usize, usize),
    steps: usize,
) -> Vec<u32> {
    let mut case = Case::new(cfg, source, shape);
    let (a, b) = (case.a, case.b);
    let refs: Vec<CmArray> = case.coeffs.clone();
    let refs: Vec<&CmArray> = refs.iter().collect();
    let mut plan = case.plan(&b, &scalar_fast());
    for step in 0..steps {
        plan.execute(&mut case.machine).unwrap();
        if step + 1 < steps {
            let (from, to) = if step % 2 == 0 { (&b, &a) } else { (&a, &b) };
            plan.rebind(to, &[from], &refs).unwrap();
        }
    }
    case.bits(if steps % 2 == 1 { &b } else { &a })
}

/// One lockstep execute of `source` at `depth` fused steps on
/// `threads` lane groups — into `b`, or back into `a` when `in_place` —
/// must lane-map, run every strip operand-direct in width class
/// `class`, and match the iterated scalar engine bit for bit.
fn assert_fully_kernelized(
    cfg: &MachineConfig,
    source: &str,
    shape: (usize, usize),
    (depth, threads, in_place): (usize, usize, bool),
    class: usize,
) {
    let what = format!(
        "`{source}` at {shape:?}, depth {depth}, {threads} thread(s), in place: {in_place}"
    );
    let oracle = scalar_steps(cfg, source, shape, depth);
    let mut case = Case::new(cfg, source, shape);
    let result = if in_place { case.a } else { case.b };
    let opts = lockstep_fast()
        .with_threads(threads)
        .with_temporal_depth(depth);
    let mut plan = case.plan(&result, &opts);
    assert_eq!(plan.temporal_depth(), depth, "{what}: depth");
    assert!(plan.lane_mapped(), "{what}: lane-maps");

    let hits = obs::kernel_hits();
    let before = obs::thread_snapshot();
    plan.execute(&mut case.machine).unwrap();
    let on = obs::thread_snapshot().delta(&before);
    let hits: u64 = (class * ARITY_SLOTS..(class + 1) * ARITY_SLOTS)
        .map(|id| obs::kernel_hits()[id] - hits[id])
        .sum();
    assert_eq!(
        case.bits(&result),
        oracle,
        "{what}: diverges from the scalar engine"
    );
    let kernelized = on.get(Counter::KernelizedSteps);
    assert!(kernelized > 0, "{what}: no kernelized steps recorded");
    assert_eq!(on.get(Counter::LockstepSteps), kernelized);
    assert!(hits > 0, "{what}: no kernel of width class {class} ran");
}

/// Every paper pattern, a bias statement and five-point heat fused four
/// deep (ping-pong and in place) run *fully* kernelized at every width
/// class — 4-lane groups (`span`), one 16-lane group (`w16`) and two
/// 8-lane groups (`w8`) — on a strip mix that includes a width-1 strip:
/// the classifier resolves every operand of every scheduled strip
/// (loaded words, the `ZERO` and `ONE` rows, dummy partners), so every
/// plan lane-maps, and an execute matches the scalar engine bit for bit.
#[test]
fn paper_patterns_run_fully_kernelized() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let was_on = obs::enabled();
    obs::set_enabled(true);

    let tiny = MachineConfig::tiny_4();
    let board = MachineConfig::test_board_16();
    // (config, node grid edge, lane groups, width class dispatched)
    let classes = [(&tiny, 2, 1, 2), (&board, 4, 1, 0), (&board, 4, 2, 1)];
    let mut sources: Vec<String> = PaperPattern::ALL.iter().map(|p| p.fortran()).collect();
    sources.push(BIAS.to_owned());
    for (cfg, edge, threads, class) in classes {
        for source in &sources {
            for cols in [COLS_WIDE, COLS_ODD] {
                let shape = (8 * edge, cols * edge);
                assert_fully_kernelized(cfg, source, shape, (1, threads, false), class);
            }
        }
        for in_place in [false, true] {
            let shape = (8 * edge, COLS_WIDE * edge);
            assert_fully_kernelized(cfg, HEAT, shape, (4, threads, in_place), class);
        }
    }
    obs::set_enabled(was_on);
}

/// An arbitrary stencil in the compiler's domain: 1..=9 taps with
/// offsets up to ±2 (duplicates legal), array or unit coefficients,
/// optional bias, either boundary — wide enough to force seam-crossing
/// walks and dummy-padded bursts.
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

/// Randomized sweep: arbitrary stencils on random shapes and thread
/// counts, run on the scalar engine and on the lockstep engine. Every
/// lockstep plan must lane-map — the classifier must accept every strip
/// the compiler emits — and results and measurements must be
/// indistinguishable.
#[test]
fn property_kernel_tier_is_indistinguishable() {
    property("kernel tier differential", 12, |rng: &mut Rng| {
        let (stencil, n_coeffs) = gen_stencil(rng);
        let source = cmcc::core::unparse::unparse_stencil(&stencil);
        let rows = 2 * rng.usize_in(5, 12);
        let cols = 2 * rng.usize_in(5, 12);
        let threads = rng.usize_in(1, 4);
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
        let run = |opts: &ExecOptions| -> Option<(Measurement, Vec<u32>)> {
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
            let mut plan =
                match ExecutionPlan::build(&mut machine, &binding, opts, PlanLifetime::Scoped) {
                    Ok(p) => p,
                    // Halo deeper than the subgrid is a legal refusal.
                    Err(RuntimeError::SubgridTooSmall { .. }) => return None,
                    Err(e) => panic!("plan error on `{source}`: {e}"),
                };
            assert_eq!(
                plan.lane_mapped(),
                opts.engine == ExecEngine::Lockstep,
                "`{source}` at {rows}x{cols}: lane-maps exactly on the lockstep engine"
            );
            let m = plan.execute(&mut machine).expect("plan executes");
            Some((m, r.gather(&machine).iter().map(|v| v.to_bits()).collect()))
        };
        let Some((scalar_m, scalar_bits)) = run(&scalar_fast()) else {
            return;
        };
        let lockstep = lockstep_fast().with_threads(threads);
        let (kern_m, kern_bits) = run(&lockstep).expect("same shape plans");
        assert_eq!(
            scalar_bits, kern_bits,
            "`{source}` at {rows}x{cols}, {threads} threads: kernels diverge"
        );
        assert_eq!(scalar_m, kern_m, "`{source}`: kernel measurement diverges");
    });
}

/// The all-literal five-point heat statement: every tap reads a literal
/// page, so its strips stream one coefficient period.
const HEAT: &str = "T_NEXT = 0.2 * EOSHIFT(T, DIM=1, SHIFT=-1) \
                    + 0.2 * EOSHIFT(T, DIM=2, SHIFT=-1) + 0.2 * T \
                    + 0.2 * EOSHIFT(T, DIM=2, SHIFT=+1) \
                    + 0.2 * EOSHIFT(T, DIM=1, SHIFT=+1)";

/// Literal and named coefficients in one statement: its strips mix
/// stationary and advancing taps, so they stream every line.
const MIXED: &str = "R = C1 * CSHIFT(X, 1, -1) + 0.5 * X + C2 * CSHIFT(X, 2, +1) \
                     + 0.125 * CSHIFT(X, 1, +1)";

/// The per-step slices of a temporal schedule run through the kernels
/// exactly like a depth-1 schedule: every lockstep plan lane-maps, and
/// the kernels and the iterated scalar oracle must be indistinguishable
/// at every depth — for named-coefficient paper patterns, all-literal
/// heat, and a statement mixing both.
#[test]
fn temporal_kernel_tier_matches_scalar() {
    let cfg = MachineConfig::tiny_4();
    let (rows, cols, steps) = (16, 24, 4usize);
    let run = |source: &str, depth: usize, opts: &ExecOptions| -> Vec<u32> {
        let compiler = Compiler::new(cfg.clone());
        let compiled = compiler
            .compile_assignment(source)
            .expect("statement compiles");
        let mut machine = Machine::new(cfg.clone()).expect("tiny_4 is valid");
        let a = CmArray::new(&mut machine, rows, cols).unwrap();
        let b = CmArray::new(&mut machine, rows, cols).unwrap();
        a.fill_with(&mut machine, |r, c| {
            ((r * 31 + c * 7) % 41) as f32 * 0.125 - 2.5
        });
        b.fill(&mut machine, 0.0);
        let named = compiled
            .spec()
            .coeffs
            .iter()
            .filter(|c| matches!(c, CoeffSpec::Named(_)))
            .count();
        let coeffs: Vec<CmArray> = (0..named)
            .map(|s| {
                let arr = CmArray::new(&mut machine, rows, cols).unwrap();
                arr.fill_with(&mut machine, move |r, c| {
                    ((r * 5 + c * 11 + s * 3) % 13) as f32 * 0.0625 - 0.375
                });
                arr
            })
            .collect();
        let refs: Vec<&CmArray> = coeffs.iter().collect();
        let opts = (*opts).with_temporal_depth(depth);
        let binding = StencilBinding::new(&compiled, &b, &[&a], &refs).unwrap();
        let mut plan =
            ExecutionPlan::build(&mut machine, &binding, &opts, PlanLifetime::Scoped).unwrap();
        assert_eq!(
            plan.lane_mapped(),
            opts.engine == ExecEngine::Lockstep,
            "`{source}` depth {depth}: lane-maps exactly on the lockstep engine"
        );
        let executes = steps / depth;
        for e in 0..executes {
            plan.execute(&mut machine).unwrap();
            if e + 1 < executes {
                let (from, to) = if e % 2 == 0 { (&b, &a) } else { (&a, &b) };
                plan.rebind(to, &[from], &refs).unwrap();
            }
        }
        let last = if executes.is_multiple_of(2) { &a } else { &b };
        last.gather(&machine).iter().map(|v| v.to_bits()).collect()
    };
    let sources = [
        PaperPattern::Square9.fortran(),
        PaperPattern::Cross5.fortran(),
        HEAT.to_owned(),
        MIXED.to_owned(),
    ];
    for source in &sources {
        let oracle = run(source, 1, &scalar_fast());
        for depth in [1, 2, 4] {
            let kern = run(source, depth, &lockstep_fast());
            assert_eq!(
                oracle, kern,
                "`{source}` depth {depth}: kernelized temporal run diverges"
            );
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
    let heat = "T_NEXT = 0.2 * EOSHIFT(T, DIM=1, SHIFT=-1) \
                + 0.2 * EOSHIFT(T, DIM=2, SHIFT=-1) + 0.2 * T \
                + 0.2 * EOSHIFT(T, DIM=2, SHIFT=+1) \
                + 0.2 * EOSHIFT(T, DIM=1, SHIFT=+1)";
    let cfg = MachineConfig::tiny_4();
    let compiler = Compiler::new(cfg.clone());
    let compiled = compiler
        .compile_assignment(heat)
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
        let mut plan =
            ExecutionPlan::build(&mut machine, &binding, &opts, PlanLifetime::Scoped).unwrap();
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
        PlanLifetime::Scoped,
    )
    .unwrap();
    let delta = obs::thread_snapshot().delta(&before);
    obs::set_enabled(was_on);
    assert_eq!(plan.temporal_depth(), 1);
    assert!(plan.lane_mapped(), "the clamped plan still lane-maps");
    assert_eq!(delta.get(Counter::TemporalFallbacks), 1);
}

/// A binding whose result aliases a coefficient array cannot lane-map,
/// so the kernels never see it: the plan falls back to the scalar
/// engine and records no lockstep steps at all — the fallback is
/// *before* the lockstep engine, not a miscount inside it.
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
    let mut plan = ExecutionPlan::build(
        &mut machine,
        &binding,
        &lockstep_fast(),
        PlanLifetime::Scoped,
    )
    .unwrap();
    assert!(!plan.lane_mapped(), "aliased binding must fall back");

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
