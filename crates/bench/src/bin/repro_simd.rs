//! Lockstep SIMD executor benchmark: scalar vs lockstep fast mode.
//!
//! Runs the 9-point square stencil on the simulated 16-node test board
//! with a 128×128 per-node subgrid (a 512×512 global array) in fast
//! functional mode, once with the node-outer scalar engine and once
//! with the lockstep engine — the lane body every lane-mapped plan
//! runs: the resident mirror, the row sweeps lowered from the stencil
//! IR, and the result committed at once. Both use a persistent execution plan (built
//! once, replayed), a single host thread, and identically seeded data.
//! The ratio covers the executor (per-step dispatch amortized over all
//! node lanes, contiguous lane-major inner loops — the paper's §4.3
//! broadcast of one instruction stream to every node) together with the
//! lane body's copy traffic; both engines' steady-state copy bytes per
//! iteration are reported.
//!
//! Results must be bit-identical and `Measurement`s exactly equal; the
//! steady-state speedup is asserted ≥2× in full mode and written to
//! `BENCH_simd.json` either way. The lockstep plan must lane-map, which
//! means the build lowered the statement into a row program that passed
//! its checks — the CI smoke gate (it runs under `--quick` too).
//!
//! A second ratio re-times the lockstep engine with `cmcc_obs` profiling
//! *enabled* — and the flight recorder pinned *off* — and asserts the
//! overhead stays under 2% in full mode. Every other pass runs with
//! profiling disabled, so the asserted on/off delta also bounds the cost
//! of the disabled instrumentation paths (branch-on-a-relaxed-atomic for
//! the counters, one relaxed load per would-be trace event) that every
//! build now carries.
//!
//! All three passes (scalar, lockstep, profiled lockstep) are built and
//! warmed up front, then timed in interleaved rounds — one execute per pass per round — and
//! each reports its minimum, the method `repro_temporal` uses: every
//! ratio compares executes timed milliseconds apart, not passes timed
//! minutes apart, so host drift cannot pose as a speedup or an overhead.
//!
//! ```sh
//! cargo run --release -p cmcc-bench --bin repro_simd
//! cargo run --release -p cmcc-bench --bin repro_simd -- --quick
//! ```
//!
//! `--quick` runs 2 rounds and checks equivalence only (for CI, where
//! wall-clock ratios on shared runners are noise).

use cmcc_bench::Workload;
use cmcc_cm2::config::MachineConfig;
use cmcc_cm2::timing::Measurement;
use cmcc_core::patterns::PaperPattern;
use cmcc_runtime::array::CmArray;
use cmcc_runtime::convolve::ExecOptions;
use cmcc_runtime::plan::{ExecutionPlan, StencilBinding};
use cmcc_runtime::ExecEngine;
use std::time::Instant;

const SUBGRID: (usize, usize) = (128, 128);
const FULL_ROUNDS: usize = 60;
const WARMUP: usize = 2;

/// One timed configuration: a persistent plan over its own
/// identically seeded workload, and the best execute seen so far.
struct Pass {
    w: Workload,
    plan: ExecutionPlan,
    /// Whether `cmcc_obs` profiling is live around this pass's executes.
    profiled: bool,
    best: f64,
    m: Measurement,
    /// Bytes each steady-state iteration copies (machine-total, from the
    /// plan's own accounting).
    copy_bytes: usize,
}

impl Pass {
    /// Builds a persistent plan under `engine` and runs its `WARMUP`
    /// executes.
    fn new(engine: ExecEngine, profiled: bool) -> Pass {
        let mut w = Workload::new(
            MachineConfig::test_board_16(),
            PaperPattern::Square9,
            SUBGRID,
        );
        let opts = ExecOptions::fast().with_engine(engine).with_threads(1);
        let refs: Vec<&CmArray> = w.coeffs.iter().collect();
        let binding =
            StencilBinding::new(&w.compiled, &w.r, &[&w.x], &refs).expect("bench binding is valid");
        let mut plan =
            ExecutionPlan::build(&mut w.machine, &binding, &opts).expect("bench plan builds");
        // Lane-mapped means the build lowered a row program: one it
        // refused would leave the plan on the scalar engine.
        assert_eq!(
            plan.lane_mapped(),
            engine == ExecEngine::Lockstep,
            "a clean single-source binding must lane-map iff lockstep is requested"
        );
        let copy_bytes = plan.steady_state_copy_words() * 4;
        cmcc_obs::set_enabled(profiled);
        let m = plan.execute(&mut w.machine).expect("bench plan executes");
        cmcc_obs::set_enabled(false);
        let mut pass = Pass {
            w,
            plan,
            profiled,
            best: f64::INFINITY,
            m,
            copy_bytes,
        };
        for _ in 1..WARMUP {
            pass.execute();
        }
        pass.best = f64::INFINITY;
        pass
    }

    /// Times one execute, keeping the minimum. Profiling is switched on
    /// only around a profiled pass's execute, outside the timed span.
    fn execute(&mut self) {
        cmcc_obs::set_enabled(self.profiled);
        let start = Instant::now();
        self.m = self
            .plan
            .execute(&mut self.w.machine)
            .expect("bench plan executes");
        self.best = self.best.min(start.elapsed().as_secs_f64());
        cmcc_obs::set_enabled(false);
    }

    /// The gathered result array.
    fn result(&self) -> Vec<f32> {
        self.w.r.gather(&self.w.machine)
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let rounds = if quick { 2 } else { FULL_ROUNDS };

    println!("Lockstep SIMD executor benchmark (fast mode, 1 host thread)");
    println!(
        "9-point square, {}x{} per node on the 16-node board (512x512 global), \
         warmup {WARMUP} + min of {rounds} interleaved rounds per pass\n",
        SUBGRID.0, SUBGRID.1
    );

    // Pin the flight recorder OFF: the <2% overhead budget asserted
    // below covers the counters plus the compiled-in-but-disabled trace
    // path (one relaxed atomic load per would-be event) that every
    // instrumented crate now carries.
    cmcc_obs::trace::set_trace_enabled(false);
    cmcc_obs::set_enabled(false);
    let counters_before = cmcc_obs::snapshot();
    // Every pass owns an identically seeded workload, so any divergence
    // is the executor's fault, not the data's:
    // * scalar vs lockstep;
    // * the lockstep pass again with `cmcc_obs` profiling live, for the
    //   telemetry overhead and the kernelized step count.
    let mut passes = [
        Pass::new(ExecEngine::Scalar, false),
        Pass::new(ExecEngine::Lockstep, false),
        Pass::new(ExecEngine::Lockstep, true),
    ];
    // Interleaved rounds, one execute per pass per round, so every pass
    // samples the same slice of machine time and host drift cannot
    // masquerade as a ratio.
    for _ in 0..rounds {
        for pass in &mut passes {
            pass.execute();
        }
    }
    let counters_after = cmcc_obs::snapshot();
    let [scalar, lockstep, profiled] = &passes;
    let (scalar_secs, scalar_m, scalar_r) = (scalar.best, scalar.m, scalar.result());
    let (lockstep_secs, lockstep_m, lockstep_r) = (lockstep.best, lockstep.m, lockstep.result());
    let (scalar_copy_bytes, lockstep_copy_bytes) = (scalar.copy_bytes, lockstep.copy_bytes);
    println!("  scalar:   {scalar_secs:.6} s/iter, {scalar_copy_bytes} copy bytes/iter");
    println!("  lockstep: {lockstep_secs:.6} s/iter, {lockstep_copy_bytes} copy bytes/iter");

    let (profiled_secs, profiled_m, profiled_r) = (profiled.best, profiled.m, profiled.result());
    let kernelized_steps = counters_after.get(cmcc_obs::Counter::KernelizedSteps)
        - counters_before.get(cmcc_obs::Counter::KernelizedSteps);
    assert!(
        kernelized_steps > 0,
        "the profiled lockstep pass must run kernelized steps"
    );
    let profile_overhead = profiled_secs / lockstep_secs - 1.0;
    println!(
        "  lockstep (profiled): {profiled_secs:.6} s/iter ({:+.2}% overhead)",
        profile_overhead * 100.0
    );
    assert_eq!(
        profiled_m, lockstep_m,
        "profiling must not change the Measurement"
    );
    assert!(
        profiled_r
            .iter()
            .zip(&lockstep_r)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "profiling must not change results"
    );

    let bit_identical = scalar_r.len() == lockstep_r.len()
        && scalar_r
            .iter()
            .zip(&lockstep_r)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    let measurement_equal = scalar_m == lockstep_m;
    let speedup = scalar_secs / lockstep_secs;
    println!(
        "\n  speedup {speedup:.2}x; \
         bit-identical: {bit_identical}; measurements equal: {measurement_equal}"
    );

    // The profiled pass executes the plan WARMUP + rounds times; the JSON
    // records the per-execution step count so it is iteration-invariant.
    let kernelized_steps_per_run = kernelized_steps / (WARMUP + rounds) as u64;
    let cores = cmcc_bench::host_cores();
    let scaling_gate = if quick {
        "recorded only (--quick: wall-clock ratios not asserted)".to_owned()
    } else {
        "asserted (>=2x lockstep, <2% profiling overhead)".to_owned()
    };
    let json = format!(
        "{{\n  \"pattern\": \"{}\",\n  \"global_grid\": [512, 512],\n  \"subgrid\": [{}, {}],\n  \
         \"host_cores\": {cores},\n  \"scaling_gate\": \"{scaling_gate}\",\n  \
         \"threads\": 1,\n  \"warmup\": {WARMUP},\n  \"interleave_rounds\": {rounds},\n  \
         \"scalar_secs_per_iter\": {scalar_secs:.6},\n  \
         \"lockstep_secs_per_iter\": {lockstep_secs:.6},\n  \
         \"scalar_copy_bytes_per_iter\": {scalar_copy_bytes},\n  \
         \"lockstep_copy_bytes_per_iter\": {lockstep_copy_bytes},\n  \
         \"profiled_secs_per_iter\": {profiled_secs:.6},\n  \
         \"profiling_overhead\": {profile_overhead:.4},\n  \
         \"kernelized_steps_per_run\": {kernelized_steps_per_run},\n  \
         \"speedup\": {speedup:.4},\n  \
         \"bit_identical\": {bit_identical},\n  \
         \"measurement_equal\": {measurement_equal}\n}}\n",
        PaperPattern::Square9.name(),
        SUBGRID.0,
        SUBGRID.1,
    );
    std::fs::write("BENCH_simd.json", &json).expect("write BENCH_simd.json");
    println!("  wrote BENCH_simd.json");

    assert!(bit_identical, "lockstep results diverge from scalar");
    assert!(
        measurement_equal,
        "lockstep Measurement differs from scalar"
    );
    if quick {
        println!("  (--quick: speedup and overhead recorded but not asserted)");
    } else {
        assert!(
            speedup >= 2.0,
            "expected >=2x lockstep speedup, got {speedup:.2}x"
        );
        assert!(
            profile_overhead < 0.02,
            "profiling overhead {:.2}% exceeds the 2% budget",
            profile_overhead * 100.0
        );
    }
}
