//! Differential suite for the lockstep SIMD executor: in fast mode, for
//! every paper pattern, edge subgrid shape (exercising every strip-width
//! mix the shaver produces), and thread count, the step-outer lockstep
//! broadcast engine must be *indistinguishable* from the node-outer
//! scalar interpreter — bit-identical result arrays and exactly equal
//! [`Measurement`]s.
//!
//! The scalar fast run is the oracle. Per lane, the lockstep engine
//! replays exactly the scalar operation order with separate IEEE
//! multiplies and adds (never a fused contraction), so equality is exact
//! by construction; these tests pin that construction down, including
//! through plan reuse, rebinding, lane-splitting across threads, and the
//! aliasing fallback.

use cmcc::cm2::{Machine, MachineConfig};
use cmcc::core::recognize::CoeffSpec;
use cmcc::core::Compiler;
use cmcc::runtime::{convolve, CmArray, ExecOptions, ExecutionPlan, StencilBinding};
use cmcc::{ExecEngine, Measurement, PaperPattern};
use cmcc_testkit::{property, Rng};

/// Builds machine + arrays for `pattern` at global `rows × cols` on the
/// 2×2 tiny board and runs one convolution under `opts`.
fn run_case(
    pattern: PaperPattern,
    rows: usize,
    cols: usize,
    opts: &ExecOptions,
) -> (Measurement, Vec<u32>) {
    run_case_on(MachineConfig::tiny_4(), pattern, rows, cols, opts)
}

/// [`run_case`] on a machine described by `cfg`.
fn run_case_on(
    cfg: MachineConfig,
    pattern: PaperPattern,
    rows: usize,
    cols: usize,
    opts: &ExecOptions,
) -> (Measurement, Vec<u32>) {
    let compiler = Compiler::new(cfg.clone());
    let compiled = compiler
        .compile_assignment(&pattern.fortran())
        .expect("paper patterns compile");
    let mut machine = Machine::new(cfg).expect("the config is valid");
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
    let m = convolve(&mut machine, &compiled, &r, &x, &refs, opts)
        .expect("paper patterns run on tiny_4");
    let bits = r.gather(&machine).iter().map(|v| v.to_bits()).collect();
    (m, bits)
}

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

/// Every paper pattern, scalar vs lockstep, on a shape that mixes strip
/// widths (12 columns per node shaves unevenly for the wider kernels).
#[test]
fn lockstep_matches_scalar_for_every_paper_pattern() {
    for pattern in PaperPattern::ALL {
        let (scalar_m, scalar_bits) = run_case(pattern, 16, 24, &scalar_fast());
        let (m, bits) = run_case(pattern, 16, 24, &lockstep_fast());
        assert_eq!(scalar_bits, bits, "{}: results diverge", pattern.name());
        assert_eq!(scalar_m, m, "{}: measurement diverges", pattern.name());
    }
}

/// Edge subgrid shapes: odd, prime, and barely-wider-than-the-halo
/// column counts change which strip widths the shaver emits and whether
/// half-strips split unevenly. Every shape must stay exact.
#[test]
fn lockstep_matches_scalar_on_edge_subgrid_shapes() {
    // (global rows, global cols) on the 2×2 board: per-node subgrids of
    // 15, 7, 9, 8, and 5 columns.
    let shapes = [(16, 30), (8, 14), (12, 18), (8, 16), (10, 10)];
    for pattern in [PaperPattern::Square9, PaperPattern::Diamond13] {
        for (rows, cols) in shapes {
            let (scalar_m, scalar_bits) = run_case(pattern, rows, cols, &scalar_fast());
            let (m, bits) = run_case(pattern, rows, cols, &lockstep_fast());
            assert_eq!(
                scalar_bits,
                bits,
                "{} at {rows}x{cols}: results diverge",
                pattern.name()
            );
            assert_eq!(
                scalar_m,
                m,
                "{} at {rows}x{cols}: measurement diverges",
                pattern.name()
            );
        }
    }
}

/// Lane splitting across host threads (including oversubscription past
/// the node count) never changes results or counters.
#[test]
fn lockstep_thread_counts_are_exact() {
    for pattern in [PaperPattern::Square9, PaperPattern::Star9] {
        let (scalar_m, scalar_bits) = run_case(pattern, 16, 24, &scalar_fast());
        for threads in [2, 3, 4, 64, usize::MAX] {
            let (m, bits) = run_case(pattern, 16, 24, &lockstep_fast().with_threads(threads));
            assert_eq!(
                scalar_bits,
                bits,
                "{}: results diverge at {threads} threads",
                pattern.name()
            );
            assert_eq!(
                scalar_m,
                m,
                "{}: measurement diverges at {threads} threads",
                pattern.name()
            );
        }
    }
}

/// A plan built once stays exact across repeated executions and across
/// rebinds to fresh arrays, and keeps using the lockstep engine.
#[test]
fn lockstep_plan_reuse_and_rebind_stay_exact() {
    let cfg = MachineConfig::tiny_4();
    let compiler = Compiler::new(cfg.clone());
    let compiled = compiler
        .compile_assignment(&PaperPattern::Square9.fortran())
        .expect("paper patterns compile");
    let mut machine = Machine::new(cfg).expect("tiny_4 is valid");
    let (rows, cols) = (12, 16);
    let fill = |machine: &mut Machine, seed: usize| -> CmArray {
        let a = CmArray::new(machine, rows, cols).unwrap();
        a.fill_with(machine, move |r, c| {
            ((r * 17 + c * 13 + seed * 29) % 37) as f32 * 0.25 - 4.0
        });
        a
    };
    let x1 = fill(&mut machine, 0);
    let x2 = fill(&mut machine, 1);
    let named = compiled
        .spec()
        .coeffs
        .iter()
        .filter(|c| matches!(c, CoeffSpec::Named(_)))
        .count();
    let coeffs: Vec<CmArray> = (2..2 + named).map(|s| fill(&mut machine, s)).collect();
    let refs: Vec<&CmArray> = coeffs.iter().collect();
    let r1 = CmArray::new(&mut machine, rows, cols).unwrap();
    let r2 = CmArray::new(&mut machine, rows, cols).unwrap();

    let opts = lockstep_fast();
    let binding = StencilBinding::new(&compiled, &r1, &[&x1], &refs).unwrap();
    let mut plan = ExecutionPlan::build(&mut machine, &binding, &opts).unwrap();
    assert!(plan.lane_mapped(), "clean binding lane-maps");
    let m1 = plan.execute(&mut machine).unwrap();
    assert_eq!(m1, plan.execute(&mut machine).unwrap(), "replay is exact");
    let got1 = r1.gather(&machine);

    plan.rebind(&r2, &[&x2], &refs).unwrap();
    assert!(plan.lane_mapped(), "rebind keeps the lane body");
    plan.execute(&mut machine).unwrap();
    let got2 = r2.gather(&machine);

    // Oracle: fresh scalar convolutions over the same data.
    let check1 = CmArray::new(&mut machine, rows, cols).unwrap();
    let check2 = CmArray::new(&mut machine, rows, cols).unwrap();
    convolve(&mut machine, &compiled, &check1, &x1, &refs, &scalar_fast()).unwrap();
    convolve(&mut machine, &compiled, &check2, &x2, &refs, &scalar_fast()).unwrap();
    let want1 = check1.gather(&machine);
    let want2 = check2.gather(&machine);
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got1), bits(&want1), "first binding diverges");
    assert_eq!(bits(&got2), bits(&want2), "rebound binding diverges");
}

/// Exchange-on-lane vs exchange-on-node, per paper pattern: the lane
/// body (halo exchange applied directly to the plan's lane mirror) must
/// be indistinguishable — results and `Measurement`s — from the scalar
/// oracle, whose exchange runs on node memory.
#[test]
fn lane_exchange_matches_node_exchange_for_every_paper_pattern() {
    for pattern in PaperPattern::ALL {
        let (scalar_m, scalar_bits) = run_case(pattern, 16, 24, &scalar_fast());
        let (lane_m, lane_bits) = run_case(pattern, 16, 24, &lockstep_fast());
        assert_eq!(
            scalar_bits,
            lane_bits,
            "{}: lane-exchange results diverge",
            pattern.name()
        );
        assert_eq!(
            scalar_m,
            lane_m,
            "{}: lane-exchange measurement",
            pattern.name()
        );
    }
}

/// The corner-skip path on the lane domain: a cross stencil (no diagonal
/// taps) skips the second exchange step, leaving the mirror's corner
/// words stale — which must be unobservable because no kernel reads
/// them. Covered with the skip both allowed and ablated, on edge shapes
/// whose uneven strips stress the seams, against the scalar oracle's
/// node-domain exchange.
#[test]
fn lane_corner_skip_and_edge_shapes_stay_exact() {
    for pattern in [PaperPattern::Cross5, PaperPattern::Square9] {
        for skip in [true, false] {
            for (rows, cols) in [(16, 30), (8, 14), (10, 10)] {
                let cfg = MachineConfig {
                    skip_corners_when_possible: skip,
                    ..MachineConfig::tiny_4()
                };
                let (scalar_m, scalar_bits) =
                    run_case_on(cfg.clone(), pattern, rows, cols, &scalar_fast());
                let (lane_m, lane_bits) = run_case_on(cfg, pattern, rows, cols, &lockstep_fast());
                assert_eq!(
                    scalar_bits,
                    lane_bits,
                    "{} at {rows}x{cols} skip={skip}: lane-exchange diverges",
                    pattern.name()
                );
                assert_eq!(scalar_m, lane_m);
            }
        }
    }
}

/// Iterated time-stepping on a resident plan: ping-pong rebinds swap the
/// roles of two arrays every step, which must re-prime the mirror (the
/// sources moved) while staying bit-identical to a scalar run of the
/// same sequence.
#[test]
fn resident_ping_pong_iteration_matches_scalar() {
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
            plan.execute(&mut machine).unwrap();
            let (from, to) = if step % 2 == 0 { (&b, &a) } else { (&a, &b) };
            plan.rebind(to, &[from], &refs).unwrap();
        }
        let last = if steps % 2 == 0 { &a } else { &b };
        last.gather(&machine).iter().map(|v| v.to_bits()).collect()
    };

    let scalar = run(&scalar_fast());
    let resident = run(&lockstep_fast());
    assert_eq!(scalar, resident, "resident ping-pong diverges from scalar");
}

/// Binding the result array as the source aliases two lane roles; the
/// plan must fall back to the scalar engine and still match a scalar run
/// of the same aliased call.
#[test]
fn aliased_bindings_fall_back_and_stay_exact() {
    let cfg = MachineConfig::tiny_4();
    let compiler = Compiler::new(cfg.clone());
    let compiled = compiler
        .compile_assignment(&PaperPattern::Cross5.fortran())
        .expect("paper patterns compile");
    let named = compiled
        .spec()
        .coeffs
        .iter()
        .filter(|c| matches!(c, CoeffSpec::Named(_)))
        .count();
    let run = |opts: &ExecOptions| -> Vec<u32> {
        let mut machine = Machine::new(cfg.clone()).expect("tiny_4 is valid");
        let a = CmArray::new(&mut machine, 8, 12).unwrap();
        a.fill_with(&mut machine, |r, c| (r * 3 + c) as f32 * 0.5 - 6.0);
        let coeffs: Vec<CmArray> = (0..named)
            .map(|s| {
                let c = CmArray::new(&mut machine, 8, 12).unwrap();
                c.fill_with(&mut machine, move |r, col| {
                    ((r * 7 + col * 3 + s) % 11) as f32 * 0.125 - 0.5
                });
                c
            })
            .collect();
        let refs: Vec<&CmArray> = coeffs.iter().collect();
        // Result and source are the same array: in-place update.
        convolve(&mut machine, &compiled, &a, &a, &refs, opts).expect("aliased call runs");
        a.gather(&machine).iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(run(&scalar_fast()), run(&lockstep_fast()));
}

/// Builds machine + deterministically filled arrays for `pattern` and
/// advances `steps` time steps, `depth` of them fused per `execute`
/// (`steps` must be a multiple of `depth`), ping-ponging result and
/// source between executes. Returns the final array's bits.
fn run_time_stepped(
    pattern: PaperPattern,
    rows: usize,
    cols: usize,
    steps: usize,
    depth: usize,
    opts: &ExecOptions,
) -> Vec<u32> {
    assert_eq!(steps % depth, 0, "whole executes only");
    let cfg = MachineConfig::tiny_4();
    let compiler = Compiler::new(cfg.clone());
    let compiled = compiler
        .compile_assignment(&pattern.fortran())
        .expect("paper patterns compile");
    let mut machine = Machine::new(cfg).expect("tiny_4 is valid");
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
    // Keep a caller-provided depth (e.g. one expected to clamp) intact.
    let opts = if depth > 1 {
        (*opts).with_temporal_depth(depth)
    } else {
        *opts
    };
    let binding = StencilBinding::new(&compiled, &b, &[&a], &refs).unwrap();
    let mut plan = ExecutionPlan::build(&mut machine, &binding, &opts).unwrap();
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
}

/// Temporal tiling: one fused execute at depth k must be bit-identical
/// to k iterated depth-1 scalar steps, for every paper pattern and
/// every supported depth — including patterns with named coefficient
/// arrays, whose halo-margin values flow through the widened
/// coefficient halos.
#[test]
fn temporal_fused_executes_match_iterated_scalar() {
    for pattern in PaperPattern::ALL {
        // 4 steps: scalar one-at-a-time vs fused at every divisor depth.
        let oracle = run_time_stepped(pattern, 16, 24, 4, 1, &scalar_fast());
        for depth in [1, 2, 4] {
            let fused = run_time_stepped(pattern, 16, 24, 4, depth, &lockstep_fast());
            assert_eq!(
                oracle,
                fused,
                "{}: depth-{depth} fused run diverges from iterated scalar",
                pattern.name()
            );
        }
    }
}

/// Temporal tiling across edge subgrid shapes and rebind ping-pong:
/// uneven strips, margin-shifted schedules, and mirror re-priming
/// between fused executes must all stay exact.
#[test]
fn temporal_edge_shapes_and_rebinds_stay_exact() {
    for pattern in [PaperPattern::Square9, PaperPattern::Cross5] {
        for (rows, cols) in [(16, 30), (8, 14), (12, 18)] {
            let oracle = run_time_stepped(pattern, rows, cols, 6, 1, &scalar_fast());
            for depth in [2, 3] {
                let fused = run_time_stepped(pattern, rows, cols, 6, depth, &lockstep_fast());
                assert_eq!(
                    oracle,
                    fused,
                    "{} at {rows}x{cols}: depth-{depth} diverges",
                    pattern.name()
                );
            }
        }
    }
}

/// A step count that does not divide by the fused depth: run the bulk
/// through the deep plan and the tail through a depth-1 plan on the
/// same machine — exactly how a driver time loop handles remainders.
#[test]
fn temporal_tail_steps_via_shallow_plan_stay_exact() {
    let (rows, cols, total, depth) = (12, 16, 7usize, 3usize);
    let pattern = PaperPattern::Square9;
    let oracle = run_time_stepped(pattern, rows, cols, total, 1, &scalar_fast());

    let cfg = MachineConfig::tiny_4();
    let compiler = Compiler::new(cfg.clone());
    let compiled = compiler
        .compile_assignment(&pattern.fortran())
        .expect("paper patterns compile");
    let mut machine = Machine::new(cfg).expect("tiny_4 is valid");
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

    let deep_opts = lockstep_fast().with_temporal_depth(depth);
    let binding = StencilBinding::new(&compiled, &b, &[&a], &refs).unwrap();
    let mut deep = ExecutionPlan::build(&mut machine, &binding, &deep_opts).unwrap();
    assert_eq!(deep.temporal_depth(), depth, "depth should take effect");
    deep.execute(&mut machine).unwrap(); // steps 1..=3 → b
    deep.rebind(&a, &[&b], &refs).unwrap();
    deep.execute(&mut machine).unwrap(); // steps 4..=6 → a

    let tail_binding = StencilBinding::new(&compiled, &b, &[&a], &refs).unwrap();
    let mut tail = ExecutionPlan::build(&mut machine, &tail_binding, &lockstep_fast()).unwrap();
    tail.execute(&mut machine).unwrap(); // step 7 → b

    let got: Vec<u32> = b.gather(&machine).iter().map(|v| v.to_bits()).collect();
    assert_eq!(oracle, got, "tail-step composition diverges");
}

/// Depths the plan cannot honor clamp to 1 with a recorded reason —
/// and the clamped plan still runs exactly one step per execute.
#[test]
fn temporal_depth_clamps_with_a_reason() {
    let cfg = MachineConfig::tiny_4();
    let compiler = Compiler::new(cfg.clone());
    let compiled = compiler
        .compile_assignment(&PaperPattern::Square9.fortran())
        .expect("paper patterns compile");
    let build =
        |machine: &mut Machine, arrays: &(CmArray, CmArray, Vec<CmArray>), opts: &ExecOptions| {
            let (a, b, coeffs) = arrays;
            let refs: Vec<&CmArray> = coeffs.iter().collect();
            let binding = StencilBinding::new(&compiled, b, &[a], &refs).unwrap();
            ExecutionPlan::build(machine, &binding, opts).unwrap()
        };
    let mut machine = Machine::new(cfg).expect("tiny_4 is valid");
    // 8×8 global on the 2×2 board → 4×4 subgrids: depth 8 needs an
    // 8-deep halo, deeper than the subgrid.
    let (rows, cols) = (8, 8);
    let a = CmArray::new(&mut machine, rows, cols).unwrap();
    a.fill_with(&mut machine, |r, c| (r * 3 + c) as f32 * 0.25);
    let b = CmArray::new(&mut machine, rows, cols).unwrap();
    let named = compiled
        .spec()
        .coeffs
        .iter()
        .filter(|c| matches!(c, CoeffSpec::Named(_)))
        .count();
    let coeffs: Vec<CmArray> = (0..named)
        .map(|s| {
            let arr = CmArray::new(&mut machine, rows, cols).unwrap();
            arr.fill(&mut machine, (s as f32 + 1.0) * 0.125);
            arr
        })
        .collect();
    let arrays = (a, b, coeffs);

    // `usize::MAX` overflows depth × radius too: that must clamp, not wrap.
    for depth in [8, usize::MAX] {
        let small = build(
            &mut machine,
            &arrays,
            &lockstep_fast().with_temporal_depth(depth),
        );
        assert_eq!(small.temporal_depth(), 1, "oversized depth must clamp");
        assert_eq!(
            small.temporal_fallback(),
            Some("subgrid smaller than depth x radius")
        );
    }

    let scalar = build(&mut machine, &arrays, &scalar_fast().with_temporal_depth(4));
    assert_eq!(scalar.temporal_depth(), 1);
    assert_eq!(scalar.temporal_fallback(), Some("scalar engine"));

    // A depth the shape supports records no fallback.
    let ok = build(
        &mut machine,
        &arrays,
        &lockstep_fast().with_temporal_depth(2),
    );
    assert_eq!(ok.temporal_depth(), 2);
    assert_eq!(ok.temporal_fallback(), None);

    // And the clamped plan advances exactly one step per execute: one
    // execute must equal one scalar step, not eight.
    let oracle = run_time_stepped(PaperPattern::Square9, 16, 24, 1, 1, &scalar_fast());
    let clamped = run_time_stepped(
        PaperPattern::Square9,
        16,
        24,
        1,
        1,
        &lockstep_fast().with_temporal_depth(64),
    );
    assert_eq!(oracle, clamped, "clamped plan must run one step");
}

/// Randomized sweep: random shapes, patterns, and thread counts, fresh
/// random data per case — scalar and lockstep stay indistinguishable.
#[test]
fn property_lockstep_is_indistinguishable_from_scalar() {
    property("lockstep differential", 8, |rng: &mut Rng| {
        let pattern = PaperPattern::ALL[rng.usize_in(0, PaperPattern::ALL.len() - 1)];
        // Subgrids from 5×5 up to 14×14 on the 2×2 board; every pattern's
        // halo (≤2) fits.
        let rows = 2 * rng.usize_in(5, 14);
        let cols = 2 * rng.usize_in(5, 14);
        let threads = rng.usize_in(1, 8);
        let cfg = MachineConfig::tiny_4();
        let compiler = Compiler::new(cfg.clone());
        let compiled = compiler
            .compile_assignment(&pattern.fortran())
            .expect("paper patterns compile");
        let data: Vec<f32> = (0..rows * cols).map(|_| rng.f32_in(-8.0, 8.0)).collect();
        let named = compiled
            .spec()
            .coeffs
            .iter()
            .filter(|c| matches!(c, CoeffSpec::Named(_)))
            .count();
        let coeff_data: Vec<Vec<f32>> = (0..named)
            .map(|_| (0..rows * cols).map(|_| rng.f32_in(-1.0, 1.0)).collect())
            .collect();
        let run = |opts: &ExecOptions| -> (Measurement, Vec<u32>) {
            let mut machine = Machine::new(cfg.clone()).expect("tiny_4 is valid");
            let x = CmArray::new(&mut machine, rows, cols).unwrap();
            x.scatter(&mut machine, &data);
            let coeffs: Vec<CmArray> = coeff_data
                .iter()
                .map(|d| {
                    let a = CmArray::new(&mut machine, rows, cols).unwrap();
                    a.scatter(&mut machine, d);
                    a
                })
                .collect();
            let refs: Vec<&CmArray> = coeffs.iter().collect();
            let r = CmArray::new(&mut machine, rows, cols).unwrap();
            let m = convolve(&mut machine, &compiled, &r, &x, &refs, opts).unwrap();
            (m, r.gather(&machine).iter().map(|v| v.to_bits()).collect())
        };
        let (scalar_m, scalar_bits) = run(&scalar_fast());
        let (m, bits) = run(&lockstep_fast().with_threads(threads));
        assert_eq!(
            scalar_bits,
            bits,
            "{} at {rows}x{cols}, {threads} threads: results diverge",
            pattern.name()
        );
        assert_eq!(scalar_m, m, "{}: measurement diverges", pattern.name());
    });
}
