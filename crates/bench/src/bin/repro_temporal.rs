//! Temporal tiling benchmark: k fused time steps per halo exchange on
//! the lane-resident mirror.
//!
//! Runs the all-literal five-point heat kernel as an iterated time loop
//! (ping-pong rebinds between executes) on the simulated 16-node test
//! board with a 128×128 per-node subgrid (a 512×512 global array), 100
//! time steps, in fast lockstep lane-resident mode — once per temporal
//! depth k ∈ {1, 2, 4} plus a k=3 run that needs a depth-1 tail plan
//! for the last step. The k=1 scalar fast loop is the oracle.
//!
//! Gates (all recorded in `BENCH_temporal.json`):
//! - every depth's final state is bit-identical to the iterated scalar
//!   oracle, including the tail-step composition;
//! - the halo-exchange program-run count drops by exactly k×;
//! - the observed copy words across the post-warmup executes equal the
//!   plan's analytic `rebind_cycle_copy_words` prediction exactly;
//! - every depth runs on the lockstep engine's row sweeps
//!   (`kernelized_steps > 0`): a row program the build refused would
//!   fail a fused build and leave a depth-1 plan on the scalar engine;
//! - the k=4 cycles beat the k=1 cycles by ≥1.25× in warm per-step
//!   wall-clock (full mode only — `--quick` records the ratio without
//!   asserting it).
//!
//! The wall-clock ratio is measured separately from the correctness
//! loops: one primed plan per depth, then interleaved rounds that run
//! one rebind+execute cycle per depth and keep each depth's minimum
//! cycle time. Interleaving matters — host speed drifts on multi-second
//! scales, so timing whole loops back to back compares two different
//! machines; per-round interleaving with a min estimator compares the
//! same machine state across depths. The priming execute (full mirror
//! gather + coefficient-stream packing) is excluded everywhere: an
//! iterated time loop pays it once, not per step.
//!
//! ```sh
//! cargo run --release -p cmcc-bench --bin repro_temporal
//! cargo run --release -p cmcc-bench --bin repro_temporal -- --quick
//! ```
//!
//! `--quick` shrinks the subgrid to 32×32 and the loop to 12 steps so
//! CI exercises every gate except the wall-clock ratio.

use cmcc_cm2::config::MachineConfig;
use cmcc_runtime::convolve::ExecOptions;
use cmcc_runtime::plan::{ExecutionPlan, StencilBinding};
use cmcc_runtime::ExecEngine;
use std::time::Instant;

/// The paper's canonical iterated workload: explicit five-point heat
/// diffusion, all-literal coefficients (no coefficient halos, so the
/// exchange count is purely source-halo traffic).
const HEAT: &str = "T_NEXT = 0.2 * EOSHIFT(T, DIM=1, SHIFT=-1) \
                    + 0.2 * EOSHIFT(T, DIM=2, SHIFT=-1) + 0.2 * T \
                    + 0.2 * EOSHIFT(T, DIM=2, SHIFT=+1) \
                    + 0.2 * EOSHIFT(T, DIM=1, SHIFT=+1)";

/// One measured time loop.
struct LoopRun {
    /// Wall-clock seconds for the timed window: every execute after the
    /// first. The first execute primes the lane mirror (full gather,
    /// coefficient-stream packing) and is excluded: an iterated time
    /// loop pays that cost once, not per step.
    secs: f64,
    /// Time steps covered by the timed window: `(executes - 1) * depth`.
    timed_steps: usize,
    /// Final state bits after all steps.
    bits: Vec<u32>,
    /// Halo-exchange program runs the loop recorded.
    halo_exchanges: u64,
    /// Observed copy words across the post-warmup executes.
    observed_copy_words: u64,
    /// `(executes - 1) * rebind_cycle_copy_words` — what the plan's
    /// analytic model says those executes should have moved.
    predicted_copy_words: u64,
    /// Lockstep steps the row sweeps stood in for over the whole loop.
    kernelized_steps: u64,
}

/// Runs `steps` heat steps, `depth` of them fused per execute, on a
/// fresh deterministically-seeded workload; `steps` need not divide by
/// `depth` — the remainder runs through a depth-1 tail plan, exactly
/// how a driver time loop handles it.
fn run_loop(
    cfg: &MachineConfig,
    subgrid: (usize, usize),
    steps: usize,
    depth: usize,
    opts: &ExecOptions,
) -> LoopRun {
    let mut w = cmcc_bench::Workload::from_source(cfg.clone(), HEAT, subgrid);
    let opts = (*opts).with_temporal_depth(depth);
    let binding =
        StencilBinding::new(&w.compiled, &w.r, &[&w.x], &[]).expect("bench binding is valid");
    let mut plan =
        ExecutionPlan::build(&mut w.machine, &binding, &opts).expect("bench plan builds");
    assert_eq!(
        plan.temporal_depth(),
        depth,
        "requested depth must take effect ({:?})",
        plan.temporal_fallback()
    );
    let executes = steps / depth;
    let tail = steps % depth;

    let before = cmcc_obs::snapshot();
    // Priming execute: full mirror gather + coefficient-stream packing.
    // Timed separately from the steady rebind cycles below.
    plan.execute(&mut w.machine).expect("bench plan executes");
    let warm = cmcc_obs::snapshot();
    let start = Instant::now();
    for e in 1..executes {
        let (from, to) = if e % 2 == 1 {
            (&w.r, &w.x)
        } else {
            (&w.x, &w.r)
        };
        plan.rebind(to, &[from], &[]).expect("ping-pong rebinds");
        plan.execute(&mut w.machine).expect("bench plan executes");
    }
    let fused_secs_end = Instant::now();
    let steady = cmcc_obs::snapshot().delta(&warm);
    let predicted_copy_words = (executes as u64 - 1) * plan.rebind_cycle_copy_words() as u64;

    // Remainder steps through a depth-1 plan on the same arrays.
    let mut cur_is_r = executes % 2 == 1;
    if tail > 0 {
        let (from, to) = if cur_is_r { (&w.r, &w.x) } else { (&w.x, &w.r) };
        let tail_opts = opts.with_temporal_depth(1);
        let tail_binding =
            StencilBinding::new(&w.compiled, to, &[from], &[]).expect("tail binding is valid");
        let mut tail_plan = ExecutionPlan::build(&mut w.machine, &tail_binding, &tail_opts)
            .expect("tail plan builds");
        for t in 0..tail {
            tail_plan
                .execute(&mut w.machine)
                .expect("tail plan executes");
            cur_is_r = !cur_is_r;
            if t + 1 < tail {
                let (from, to) = if cur_is_r { (&w.r, &w.x) } else { (&w.x, &w.r) };
                tail_plan.rebind(to, &[from], &[]).expect("tail rebinds");
            }
        }
    }
    let whole = cmcc_obs::snapshot().delta(&before);

    let cur = if cur_is_r { &w.r } else { &w.x };
    LoopRun {
        secs: (fused_secs_end - start).as_secs_f64(),
        timed_steps: (executes - 1) * depth,
        bits: cur.gather(&w.machine).iter().map(|v| v.to_bits()).collect(),
        halo_exchanges: whole.get(cmcc_obs::Counter::HaloExchanges),
        observed_copy_words: steady.copy_words(),
        predicted_copy_words,
        kernelized_steps: whole.get(cmcc_obs::Counter::KernelizedSteps),
    }
}

/// Minimum warm rebind+execute cycle time per depth, in nanoseconds,
/// measured over `rounds` interleaved rounds (one cycle per depth per
/// round, so every depth samples the same slice of machine time).
fn measure_interleaved(
    cfg: &MachineConfig,
    subgrid: (usize, usize),
    opts: &ExecOptions,
    depths: &[usize],
    rounds: usize,
) -> Vec<u128> {
    struct Setup {
        w: cmcc_bench::Workload,
        plan: ExecutionPlan,
        min_ns: u128,
        executes: usize,
    }
    let mut setups: Vec<Setup> = depths
        .iter()
        .map(|&depth| {
            let mut w = cmcc_bench::Workload::from_source(cfg.clone(), HEAT, subgrid);
            let opts = (*opts).with_temporal_depth(depth);
            let binding = StencilBinding::new(&w.compiled, &w.r, &[&w.x], &[])
                .expect("bench binding is valid");
            let plan =
                ExecutionPlan::build(&mut w.machine, &binding, &opts).expect("bench plan builds");
            Setup {
                w,
                plan,
                min_ns: u128::MAX,
                executes: 0,
            }
        })
        .collect();
    for s in &mut setups {
        s.plan.execute(&mut s.w.machine).expect("priming execute");
    }
    for _ in 0..rounds {
        for s in &mut setups {
            s.executes += 1;
            let (from, to) = if s.executes % 2 == 1 {
                (&s.w.r, &s.w.x)
            } else {
                (&s.w.x, &s.w.r)
            };
            let t = Instant::now();
            s.plan.rebind(to, &[from], &[]).expect("ping-pong rebinds");
            s.plan.execute(&mut s.w.machine).expect("timed execute");
            let ns = t.elapsed().as_nanos();
            s.min_ns = s.min_ns.min(ns);
        }
    }
    setups.into_iter().map(|s| s.min_ns).collect()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    cmcc_obs::set_enabled(true);
    let cfg = MachineConfig::test_board_16();
    let (subgrid, steps) = if quick {
        ((32, 32), 12)
    } else {
        ((128, 128), 100)
    };
    let global = (subgrid.0 * 4, subgrid.1 * 4);

    println!("Temporal tiling benchmark (fast lockstep lane-resident, 1 host thread)");
    println!(
        "five-point heat, {}x{} per node on the 16-node board ({}x{} global), {steps} steps\n",
        subgrid.0, subgrid.1, global.0, global.1
    );

    let lockstep = ExecOptions::fast()
        .with_engine(ExecEngine::Lockstep)
        .with_threads(1);
    let scalar = ExecOptions::fast()
        .with_engine(ExecEngine::Scalar)
        .with_threads(1);

    let oracle = run_loop(&cfg, subgrid, steps, 1, &scalar);
    println!(
        "  scalar oracle:  {:.6} s for {} warm steps",
        oracle.secs, oracle.timed_steps
    );

    let depths = [1usize, 2, 3, 4];
    let rounds = if quick { 12 } else { 30 };
    let mins = measure_interleaved(&cfg, subgrid, &lockstep, &depths, rounds);
    let base_step_ns = mins[0] as f64;

    let mut rows = Vec::new();
    let mut all_identical = true;
    let mut all_copy_exact = true;
    let mut exchange_exact = true;
    let mut all_kernelized = true;
    let mut speedup_at_4 = 0.0;
    let mut base_exchanges = 0;
    for (i, &depth) in depths.iter().enumerate() {
        let run = run_loop(&cfg, subgrid, steps, depth, &lockstep);
        let identical = run.bits == oracle.bits;
        let copy_exact = run.observed_copy_words == run.predicted_copy_words;
        all_identical &= identical;
        all_copy_exact &= copy_exact;
        all_kernelized &= run.kernelized_steps > 0;
        if depth == 1 {
            base_exchanges = run.halo_exchanges;
        }
        // The fused portion of the loop runs steps/depth executes with
        // one exchange cycle each; the tail's depth-1 executes add one
        // each. All-literal heat has no coefficient exchanges, so the
        // count is exact, not approximate.
        let expected_exchanges =
            (steps / depth + steps % depth) as u64 * (base_exchanges / steps as u64);
        exchange_exact &= run.halo_exchanges == expected_exchanges;
        let min_cycle_us = mins[i] as f64 / 1000.0;
        let speedup = base_step_ns / (mins[i] as f64 / depth as f64);
        if depth == 4 {
            speedup_at_4 = speedup;
        }
        println!(
            "  depth {depth}: min cycle {min_cycle_us:.0} us ({speedup:.2}x/step vs depth 1), \
             loop {:.6} s over {} warm steps, \
             {} exchanges (expected {expected_exchanges}), \
             copy words {} observed vs {} predicted, {} kernelized steps, \
             bit-identical: {identical}",
            run.secs,
            run.timed_steps,
            run.halo_exchanges,
            run.observed_copy_words,
            run.predicted_copy_words,
            run.kernelized_steps,
        );
        rows.push(format!(
            "    {{\"depth\": {depth}, \"min_cycle_us\": {min_cycle_us:.1}, \
             \"speedup\": {speedup:.4}, \
             \"loop_secs\": {:.6}, \"timed_steps\": {}, \
             \"halo_exchanges\": {}, \"copy_words_observed\": {}, \
             \"copy_words_predicted\": {}, \"kernelized_steps\": {}, \
             \"bit_identical\": {identical}}}",
            run.secs,
            run.timed_steps,
            run.halo_exchanges,
            run.observed_copy_words,
            run.predicted_copy_words,
            run.kernelized_steps,
        ));
    }

    let cores = cmcc_bench::host_cores();
    let scaling_gate = if quick {
        "recorded only (--quick: depth-4 speedup not asserted)"
    } else {
        "asserted (>=1.25x per step at depth 4 over depth 1)"
    };
    let json = format!(
        "{{\n  \"workload\": \"heat5\",\n  \"global_grid\": [{}, {}],\n  \
         \"host_cores\": {cores},\n  \"scaling_gate\": \"{scaling_gate}\",\n  \
         \"subgrid\": [{}, {}],\n  \"threads\": 1,\n  \"steps\": {steps},\n  \
         \"interleave_rounds\": {rounds},\n  \
         \"scalar_secs\": {:.6},\n  \"depths\": [\n{}\n  ],\n  \
         \"speedup_at_depth_4\": {speedup_at_4:.4},\n  \
         \"bit_identical\": {all_identical},\n  \
         \"copy_model_exact\": {all_copy_exact},\n  \
         \"kernelized\": {all_kernelized},\n  \
         \"exchange_reduction_exact\": {exchange_exact}\n}}\n",
        global.0,
        global.1,
        subgrid.0,
        subgrid.1,
        oracle.secs,
        rows.join(",\n"),
    );
    std::fs::write("BENCH_temporal.json", &json).expect("write BENCH_temporal.json");
    println!("\n  wrote BENCH_temporal.json");

    assert!(
        all_identical,
        "a fused depth diverged from the scalar oracle"
    );
    assert!(
        exchange_exact,
        "halo-exchange counts did not drop by exactly the fused depth"
    );
    assert!(
        all_copy_exact,
        "observed rebind-cycle copy words diverged from the analytic prediction"
    );
    assert!(
        all_kernelized,
        "a heat5 lockstep loop ran no row sweeps (a plan did not lane-map)"
    );
    if quick {
        println!("  (--quick: depth-4 speedup {speedup_at_4:.2}x recorded but not asserted)");
    } else {
        assert!(
            speedup_at_4 >= 1.25,
            "expected >=1.25x at depth 4, got {speedup_at_4:.2}x"
        );
    }
}
