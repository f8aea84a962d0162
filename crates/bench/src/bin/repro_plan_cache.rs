//! Plan-cache benchmark: rebuild-per-iteration vs compile-once/run-many.
//!
//! Runs the paper's 5-point cross for 100 iterations on the 16-node test
//! board two ways:
//!
//! * **rebuild** — a [`convolve()`] call per iteration: it builds a
//!   plan (allocates halo buffers and constant pages from the persistent
//!   arena, fills them on every node, compiles the exchange, strip-mines
//!   the subgrid and — on the lockstep engine — lowers the stencil IR
//!   into a row program over the lane mirror), executes it once from a
//!   cold mirror, and releases it — on every call;
//! * **planned** — one [`ExecutionPlan`] built up front, then 100
//!   allocation-free executes of the same schedule.
//!
//! A cycle-accurate verification pass first checks the two paths produce
//! bit-identical results and equal `Measurement`s; the timed loops
//! then run in fast (functional) mode — the mode an application
//! iterating many time steps would use — and the planned path must be at
//! least 1.5× faster per steady-state iteration. First-call and
//! steady-state wall clocks, allocation counts, and the speedup are
//! written to `BENCH_plan_cache.json`.
//!
//! ```sh
//! cargo run --release -p cmcc-bench --bin repro_plan_cache
//! cargo run --release -p cmcc-bench --bin repro_plan_cache -- --quick
//! ```
//!
//! `--quick` runs 10 iterations and skips the speedup assertion (CI
//! smoke); the numbers are still recorded.

use cmcc_bench::Workload;
use cmcc_cm2::config::MachineConfig;
use cmcc_cm2::exec::ExecMode;
use cmcc_core::patterns::PaperPattern;
use cmcc_runtime::array::CmArray;
use cmcc_runtime::convolve::{convolve, ExecOptions};
use cmcc_runtime::plan::{ExecutionPlan, StencilBinding};
use std::time::Instant;

const SUBGRID: (usize, usize) = (16, 16);

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let iters: usize = if quick { 10 } else { 100 };
    // Serial execution: the benchmark isolates plan reuse, not host
    // threading, and the serial path is wall-clock reproducible.
    let cycle_opts = ExecOptions::serial();
    let fast_opts = ExecOptions {
        mode: ExecMode::Fast,
        ..ExecOptions::serial()
    };

    println!("Plan-cache benchmark: rebuild-per-iteration vs compile-once/run-many");
    println!(
        "5-point cross, {}x{} per node on the 16-node board, {iters} iterations\n",
        SUBGRID.0, SUBGRID.1
    );

    // Two identically seeded workloads, so any divergence is the
    // execution pipeline's fault, not the data's.
    let mut rebuild_w = Workload::new(
        MachineConfig::test_board_16(),
        PaperPattern::Cross5,
        SUBGRID,
    );
    let mut plan_w = Workload::new(
        MachineConfig::test_board_16(),
        PaperPattern::Cross5,
        SUBGRID,
    );

    // Verification pass, cycle-accurate: a plan per call and one
    // persistent plan must agree on results and full cycle accounting.
    let rebuild_m = {
        let refs: Vec<&CmArray> = rebuild_w.coeffs.iter().collect();
        convolve(
            &mut rebuild_w.machine,
            &rebuild_w.compiled,
            &rebuild_w.r,
            &rebuild_w.x,
            &refs,
            &cycle_opts,
        )
        .expect("bench arguments are valid")
    };
    let rebuild_r = rebuild_w.r.gather(&rebuild_w.machine);

    let coeff_refs: Vec<&CmArray> = plan_w.coeffs.iter().collect();
    let build_start = Instant::now();
    let binding = StencilBinding::new(&plan_w.compiled, &plan_w.r, &[&plan_w.x], &coeff_refs)
        .expect("bench arguments are valid");
    let mut plan = ExecutionPlan::build(&mut plan_w.machine, &binding, &cycle_opts)
        .expect("bench plan builds");
    let plan_m = plan.execute(&mut plan_w.machine).expect("bench plan runs");
    let first_call_secs = build_start.elapsed().as_secs_f64();
    let planned_r = plan_w.r.gather(&plan_w.machine);

    let bit_identical = rebuild_r.len() == planned_r.len()
        && rebuild_r
            .iter()
            .zip(&planned_r)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    let measurement_equal = rebuild_m == plan_m;
    println!("  verification (cycle mode): bit-identical: {bit_identical}; measurements equal: {measurement_equal}");

    // Rebuild path, timed: a plan built, run and released per
    // iteration.
    let allocs_before = rebuild_w.machine.alloc_count();
    let start = Instant::now();
    for _ in 0..iters {
        let refs: Vec<&CmArray> = rebuild_w.coeffs.iter().collect();
        convolve(
            &mut rebuild_w.machine,
            &rebuild_w.compiled,
            &rebuild_w.r,
            &rebuild_w.x,
            &refs,
            &fast_opts,
        )
        .expect("bench arguments are valid");
    }
    let rebuild_secs = start.elapsed().as_secs_f64() / iters as f64;
    let rebuild_allocs = rebuild_w.machine.alloc_count() - allocs_before;
    println!(
        "  rebuild: {:.1} us/iter ({rebuild_allocs} field allocations over {iters} runs)",
        rebuild_secs * 1e6,
    );

    // Planned path, timed: rebuild the plan for fast mode (options are
    // part of a plan's identity), then execute `iters` times.
    plan.release(&mut plan_w.machine);
    let build_start = Instant::now();
    plan =
        ExecutionPlan::build(&mut plan_w.machine, &binding, &fast_opts).expect("bench plan builds");
    let build_secs = build_start.elapsed().as_secs_f64();
    let fast_m = plan.execute(&mut plan_w.machine).expect("bench plan runs");
    let steady_allocs_before = plan_w.machine.alloc_count();
    let start = Instant::now();
    for _ in 0..iters {
        let m = plan.execute(&mut plan_w.machine).expect("bench plan runs");
        assert_eq!(m, fast_m, "planned iterations must be deterministic");
    }
    let planned_secs = start.elapsed().as_secs_f64() / iters as f64;
    let steady_allocs = plan_w.machine.alloc_count() - steady_allocs_before;
    println!(
        "  planned: {:.1} us/iter after a {:.1} us build ({steady_allocs} field allocations over {iters} runs)",
        planned_secs * 1e6,
        build_secs * 1e6,
    );
    plan.release(&mut plan_w.machine);

    let speedup = rebuild_secs / planned_secs;
    println!("\n  speedup {speedup:.2}x steady-state over rebuild-per-iteration");

    let cores = cmcc_bench::host_cores();
    let scaling_gate = if quick {
        "recorded only (--quick: speedup not asserted)"
    } else {
        "asserted (>=1.5x steady-state over rebuild)"
    };
    let json = format!(
        "{{\n  \"pattern\": \"{}\",\n  \"subgrid\": [{}, {}],\n  \
         \"host_cores\": {cores},\n  \"scaling_gate\": \"{scaling_gate}\",\n  \
         \"iters\": {iters},\n  \
         \"quick\": {quick},\n  \"first_call_secs\": {first_call_secs:.9},\n  \
         \"rebuild_secs_per_iter\": {rebuild_secs:.9},\n  \
         \"planned_secs_per_iter\": {planned_secs:.9},\n  \"plan_build_secs\": {build_secs:.9},\n  \
         \"speedup\": {speedup:.4},\n  \"rebuild_field_allocs\": {rebuild_allocs},\n  \
         \"steady_state_field_allocs\": {steady_allocs},\n  \"bit_identical\": {bit_identical},\n  \
         \"measurement_equal\": {measurement_equal}\n}}\n",
        PaperPattern::Cross5.name(),
        SUBGRID.0,
        SUBGRID.1,
    );
    std::fs::write("BENCH_plan_cache.json", &json).expect("write BENCH_plan_cache.json");
    println!("  wrote BENCH_plan_cache.json");

    assert!(bit_identical, "planned results diverge from rebuild");
    assert!(
        measurement_equal,
        "planned Measurement differs from rebuild"
    );
    assert_eq!(steady_allocs, 0, "steady-state execute allocated a field");
    assert!(rebuild_allocs > 0, "rebuild path no longer allocates?");
    if !quick {
        assert!(
            speedup >= 1.5,
            "expected >=1.5x steady-state speedup, got {speedup:.2}x"
        );
    }
}
