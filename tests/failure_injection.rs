//! Failure injection at the system level: feed the pipeline wrong inputs
//! and protocol variations and verify the differential checks notice.
//! (Kernel-level injection — stripping drain bubbles, corrupting register
//! assignments — lives in `cmcc-core`'s schedule tests, where `Kernel`
//! internals are accessible; see
//! `schedule::tests::stripped_drain_bubbles_trip_the_hazard_detector`.)

use cmcc::cm2::{ExecMode, Machine, MachineConfig};
use cmcc::core::recognize::CoeffSpec;
use cmcc::core::Compiler;
use cmcc::prelude::*;
use cmcc::runtime::reference::{reference_convolve, CoeffValue};
use cmcc::runtime::{convolve, ExecOptions, ExecutionPlan, RuntimeError, StencilBinding};
use cmcc::{ExecEngine, SessionError};

fn setup(
    statement: &str,
) -> (
    Machine,
    CompiledStencil,
    CmArray,
    CmArray,
    Vec<CmArray>,
    Vec<f32>,
) {
    let mut machine = Machine::new(MachineConfig::tiny_4()).unwrap();
    let compiled = Compiler::new(machine.config().clone())
        .compile_assignment(statement)
        .unwrap();
    let (rows, cols) = (8usize, 8usize);
    let x = CmArray::new(&mut machine, rows, cols).unwrap();
    x.fill_with(&mut machine, |r, c| ((r * 13 + c * 7) % 19) as f32 - 9.0);
    let n = compiled.spec().coeffs.len();
    let coeffs: Vec<CmArray> = (0..n)
        .map(|i| {
            let a = CmArray::new(&mut machine, rows, cols).unwrap();
            a.fill_with(&mut machine, move |r, c| ((r + c + i) % 5) as f32 * 0.5);
            a
        })
        .collect();
    let r = CmArray::new(&mut machine, rows, cols).unwrap();

    let x_host = x.gather(&machine);
    let coeff_host: Vec<Vec<f32>> = coeffs.iter().map(|a| a.gather(&machine)).collect();
    let values: Vec<CoeffValue<'_>> = coeff_host.iter().map(|h| CoeffValue::Array(h)).collect();
    let want = reference_convolve(compiled.stencil(), rows, cols, &x_host, &values);
    (machine, compiled, x, r, coeffs, want)
}

fn run(
    machine: &mut Machine,
    compiled: &CompiledStencil,
    r: &CmArray,
    x: &CmArray,
    coeffs: &[CmArray],
    mode: ExecMode,
) -> Result<Vec<f32>, RuntimeError> {
    let refs: Vec<&CmArray> = coeffs.iter().collect();
    let opts = ExecOptions {
        mode,
        ..ExecOptions::default()
    };
    convolve(machine, compiled, r, x, &refs, &opts)?;
    Ok(r.gather(machine))
}

/// The baseline for the negative tests: an unbroken pipeline matches the
/// reference bit for bit.
#[test]
fn unbroken_pipeline_matches() {
    let (mut machine, compiled, x, r, coeffs, want) = setup("R = C1 * CSHIFT(X, 1, -1) + C2 * X");
    let got = run(&mut machine, &compiled, &r, &x, &coeffs, ExecMode::Cycle).unwrap();
    assert!(got
        .iter()
        .zip(&want)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
}

/// Perturbed inputs change the output — the differential check is not
/// vacuous (it would catch a kernel reading the wrong element).
#[test]
fn perturbed_inputs_are_visible_in_results() {
    let (mut machine, compiled, x, r, coeffs, want) = setup("R = C1 * CSHIFT(X, 1, -1) + C2 * X");
    // Flip a single interior element of the source.
    let v = x.get(&machine, 3, 3);
    x.set(&mut machine, 3, 3, v + 1.0);
    let got = run(&mut machine, &compiled, &r, &x, &coeffs, ExecMode::Fast).unwrap();
    assert_ne!(got, want, "a one-element perturbation must be detected");
    // And it propagates exactly to the stencil's readers: (3,3) itself
    // and its south neighbor (4,3) which reads it through CSHIFT(1,-1).
    let cols = 8;
    let differing: Vec<usize> = got
        .iter()
        .zip(&want)
        .enumerate()
        .filter(|(_, (a, b))| a.to_bits() != b.to_bits())
        .map(|(i, _)| i)
        .collect();
    assert_eq!(differing, vec![3 * cols + 3, 4 * cols + 3]);
}

/// Every execution-option combination is *supposed* to be functionally
/// identical; a sabotaged comparison (different boundary) is not — the
/// equality assertions in the suite have teeth.
#[test]
fn boundary_discipline_changes_results_at_edges_only() {
    let (mut machine, circular, x, r, coeffs, _) = setup("R = C1 * CSHIFT(X, 2, -1) + C2 * X");
    let zerofill = Compiler::new(machine.config().clone())
        .compile_assignment("R = C1 * EOSHIFT(X, 2, -1) + C2 * X")
        .unwrap();
    let got_c = run(&mut machine, &circular, &r, &x, &coeffs, ExecMode::Cycle).unwrap();
    let got_z = run(&mut machine, &zerofill, &r, &x, &coeffs, ExecMode::Cycle).unwrap();
    let cols = 8;
    for (i, (c, z)) in got_c.iter().zip(&got_z).enumerate() {
        if i % cols == 0 {
            // The west column reads across the boundary: values differ
            // unless the wrapped element happens to be zero-weighted.
            continue;
        }
        assert_eq!(c.to_bits(), z.to_bits(), "interior element {i} differs");
    }
    assert_ne!(got_c, got_z, "the boundary column must differ");
}

/// Memory exhaustion surfaces as a clean error, not corruption: a
/// machine too small for the temporaries refuses the call and keeps none
/// of the node memory it took — whether its first allocation failed or
/// a later one.
#[test]
fn out_of_memory_is_a_clean_refusal() {
    // Node memory in use: the bump mark and the persistent arena.
    let held = |machine: &Machine| (machine.alloc_mark(), machine.persistent_used());
    let cfg = MachineConfig {
        node_memory_words: 50, // room for the arrays, not the halo
        ..MachineConfig::tiny_4()
    };
    let mut machine = Machine::new(cfg).unwrap();
    let compiled = Compiler::new(machine.config().clone())
        .compile_assignment("R = 1.0 * CSHIFT(X, 1, 1)")
        .unwrap();
    let x = CmArray::new(&mut machine, 8, 8).unwrap(); // 16 words/node
    let r = CmArray::new(&mut machine, 8, 8).unwrap();
    let before = held(&machine);
    let err = convolve(
        &mut machine,
        &compiled,
        &r,
        &x,
        &[],
        &ExecOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(err, RuntimeError::OutOfMemory(_)), "{err}");
    // And the failed call released whatever it had allocated.
    assert_eq!(held(&machine), before);

    // The three-point blur at 256² on four nodes, in fast mode: node
    // memory holds the two 128² subgrids, the scalar engine's 130² source
    // halo and its constant pair, but not its 128-word literal pages, so
    // an allocation after the first one fails — in a one-shot call, a
    // plan build and a session run.
    let blur = "R = 0.25 * CSHIFT(X, 1, -1) + 0.25 * CSHIFT(X, 1, 1) + 0.5 * X";
    let cfg = MachineConfig {
        node_memory_words: 2 * 128 * 128 + 130 * 130 + 100,
        ..MachineConfig::tiny_4()
    };
    let fast = ExecOptions::fast();
    let mut machine = Machine::new(cfg.clone()).unwrap();
    let compiled = Compiler::new(cfg.clone()).compile_assignment(blur).unwrap();
    let x = CmArray::new(&mut machine, 256, 256).unwrap();
    let r = CmArray::new(&mut machine, 256, 256).unwrap();
    let before = held(&machine);
    let err = convolve(&mut machine, &compiled, &r, &x, &[], &fast).unwrap_err();
    assert!(matches!(err, RuntimeError::OutOfMemory(_)), "{err}");
    assert_eq!(held(&machine), before, "convolve kept node memory");
    let binding = StencilBinding::new(&compiled, &r, &[&x], &[]).unwrap();
    let err = ExecutionPlan::build(&mut machine, &binding, &fast).unwrap_err();
    assert!(matches!(err, RuntimeError::OutOfMemory(_)), "{err}");
    assert_eq!(held(&machine), before, "a failed build kept node memory");

    let mut session = Session::with_config(cfg).unwrap();
    let compiled = session.compile(blur).unwrap();
    let x = session.array(256, 256).unwrap();
    let r = session.array(256, 256).unwrap();
    let before = held(&session.machine());
    for _ in 0..2 {
        let err = session.run_with(&compiled, &r, &x, &[], &fast).unwrap_err();
        assert!(
            matches!(err, SessionError::Runtime(RuntimeError::OutOfMemory(_))),
            "{err}"
        );
        assert_eq!(
            held(&session.machine()),
            before,
            "a failed run kept node memory"
        );
    }
}

/// The lane body takes no node memory the scalar engine does not: the
/// 256² three-point blur on four nodes, with node memory for its two
/// 128² subgrids, one 130² source halo and 1,000 words more, builds
/// lane-mapped in fast mode and matches the scalar engine bit for bit.
#[test]
fn a_lane_plan_fits_wherever_the_scalar_engine_fits() {
    let blur = "R = 0.25 * CSHIFT(X, 1, -1) + 0.25 * CSHIFT(X, 1, 1) + 0.5 * X";
    let cfg = MachineConfig {
        node_memory_words: 2 * 128 * 128 + 130 * 130 + 1_000,
        ..MachineConfig::tiny_4()
    };
    let mut machine = Machine::new(cfg.clone()).unwrap();
    let compiled = Compiler::new(cfg).compile_assignment(blur).unwrap();
    let x = CmArray::new(&mut machine, 256, 256).unwrap();
    x.fill_with(&mut machine, |r, c| ((r * 13 + c * 7) % 19) as f32 - 9.0);
    let r = CmArray::new(&mut machine, 256, 256).unwrap();
    let binding = StencilBinding::new(&compiled, &r, &[&x], &[]).unwrap();
    let mut run = |engine| {
        let opts = ExecOptions::fast().with_engine(engine);
        let mut plan = ExecutionPlan::build(&mut machine, &binding, &opts).unwrap();
        let lane_mapped = plan.lane_mapped();
        let measurement = plan.execute(&mut machine).unwrap();
        plan.release(&mut machine);
        let bits: Vec<u32> = r.gather(&machine).iter().map(|v| v.to_bits()).collect();
        (lane_mapped, measurement, bits)
    };
    let (lane_mapped, lane_m, lane_bits) = run(ExecEngine::Lockstep);
    let (scalar_mapped, scalar_m, scalar_bits) = run(ExecEngine::Scalar);
    assert!(lane_mapped, "the lockstep plan runs the lane body");
    assert!(!scalar_mapped);
    assert_eq!(lane_m, scalar_m);
    assert_eq!(lane_bits, scalar_bits);
}

/// A temporal plan has no scalar body and owns no node field: a depth-4
/// heat plan builds on a machine whose node memory holds only its two
/// arrays, and its four fused steps match four steps of the reference.
#[test]
fn a_temporal_plan_owns_no_node_memory() {
    let heat = "R = 0.5 * X + 0.125 * CSHIFT(X, 1, -1) + 0.125 * CSHIFT(X, 1, 1) \
                + 0.125 * CSHIFT(X, 2, -1) + 0.125 * CSHIFT(X, 2, 1)";
    let (rows, cols) = (32, 32); // 16×16 subgrids on four nodes
    let cfg = MachineConfig {
        node_memory_words: 2 * 16 * 16,
        ..MachineConfig::tiny_4()
    };
    let mut machine = Machine::new(cfg.clone()).unwrap();
    let compiled = Compiler::new(cfg).compile_assignment(heat).unwrap();
    let x = CmArray::new(&mut machine, rows, cols).unwrap();
    x.fill_with(&mut machine, |r, c| ((r * 13 + c * 7) % 19) as f32 - 9.0);
    let r = CmArray::new(&mut machine, rows, cols).unwrap();
    let literals: Vec<CoeffValue<'_>> = compiled
        .spec()
        .coeffs
        .iter()
        .map(|c| match c {
            CoeffSpec::Literal(v) => CoeffValue::Literal(*v),
            CoeffSpec::Named(_) => unreachable!("the heat statement has literals only"),
        })
        .collect();
    let mut want = x.gather(&machine);
    for _ in 0..4 {
        want = reference_convolve(compiled.stencil(), rows, cols, &want, &literals);
    }
    let binding = StencilBinding::new(&compiled, &r, &[&x], &[]).unwrap();
    let opts = ExecOptions::fast().with_temporal_depth(4);
    let mut plan = ExecutionPlan::build(&mut machine, &binding, &opts).unwrap();
    assert_eq!(plan.temporal_depth(), 4);
    assert_eq!(plan.words(), 0);
    assert!(plan.lane_mapped());
    plan.execute(&mut machine).unwrap();
    let got = r.gather(&machine);
    assert!(got
        .iter()
        .zip(&want)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    plan.release(&mut machine);
}
