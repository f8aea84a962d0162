//! Per-layer metrics every workload's traced window reports the same
//! way: execute ledger, halo, kernel, lane mirror, session, plan cache
//! and host I/O.

use crate::ceiling::Ceilings;
use crate::ledger::Window;
use crate::stats::{mean, quantile, ratio};
use crate::Outcome;
use cmcc::obs::{Counter, Phase, RunReport};

/// What one traced window recorded, from the flight recorder, the
/// counters, the session's own statistics, and outside timing.
#[derive(Debug, Default)]
pub struct Traced {
    pub window: Window,
    /// Counter deltas over exactly the executes in the ledger.
    pub per_step: RunReport,
    /// Counter deltas over the whole window.
    pub whole: RunReport,
    /// Time steps advanced by the executes in the ledger.
    pub steps: f64,
    /// Outside-timed `run_with_multi` nanoseconds of those executes.
    pub ledger_call_ns: u64,
    /// `run_with_multi` calls in the window.
    pub calls: u64,
    /// Statements (requests, or time-loop rounds) in the window.
    pub stmts: u64,
    pub region_grants: u64,
    pub conflicts: u64,
    pub peak_concurrent: usize,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub evictions: u64,
    /// Outside-timed host scatter and gather nanoseconds.
    pub scatter_ns: u64,
    pub gather_ns: u64,
    pub drops: u64,
}

/// Sets every shared per-layer metric and checks the trace's own
/// consistency: the ledger identity, no dropped events, and conflicted
/// lease requests matching the session's conflict count.
pub fn emit(out: &mut Outcome, t: &Traced, ceilings: &Ceilings) {
    let ledger = &t.window.ledger;
    let identity = ledger.check();
    out.check(identity.is_ok(), || identity.clone().unwrap_err());
    out.check(t.drops == 0, || format!("{} trace events dropped", t.drops));
    out.check(t.window.conflicted == t.conflicts, || {
        format!(
            "{} conflicted lease_acquire events, but the session counted {} conflicts",
            t.window.conflicted, t.conflicts
        )
    });
    let l = ledger.layers();
    println!(
        "ledger: {} executes, {} ns = refresh {} + exchange {} + sweep {} + residual {} + other {}",
        ledger.executes, ledger.execute_ns, l.refresh, l.exchange, l.sweep, l.residual, l.other
    );
    let c = |counter| t.per_step.get(counter) as f64;
    let per_step_us = |ns: u64| ratio(ns as f64 / 1e3, t.steps);
    let exchange_words = c(Counter::ExchangeEdgeWords) + c(Counter::ExchangeCornerWords);
    let refresh_words = c(Counter::InteriorRefreshWords);
    let total_flops = c(Counter::TotalFlops);

    out.set("halo.exchange_us_per_step", per_step_us(l.exchange));
    out.set("halo.refresh_us_per_step", per_step_us(l.refresh));
    out.set(
        "halo.exchanges_per_step",
        ratio(c(Counter::HaloExchanges), t.steps),
    );
    out.set(
        "halo.exchange_words_per_step",
        ratio(exchange_words, t.steps),
    );
    out.set("halo.refresh_words_per_step", ratio(refresh_words, t.steps));
    // Bytes read plus bytes written per nanosecond is GB/s.
    let halo_gbps = ratio(
        8.0 * (exchange_words + refresh_words),
        (l.exchange + l.refresh) as f64,
    );
    out.set(
        "halo.copy_ceiling_frac",
        ratio(halo_gbps, ceilings.copy_gbps_ws),
    );

    let sweep_gflops = ratio(total_flops, l.sweep as f64);
    out.set("kernel.sweep_us_per_step", per_step_us(l.sweep));
    out.set("kernel.sweep_gflops", sweep_gflops);
    out.set(
        "kernel.fma_ceiling_frac",
        ratio(sweep_gflops, ceilings.fma_gflops),
    );
    out.set(
        "kernel.kernelized_frac",
        ratio(c(Counter::KernelizedSteps), c(Counter::LockstepSteps)),
    );
    out.set(
        "kernel.useful_flop_frac",
        ratio(c(Counter::UsefulFlops), total_flops),
    );

    out.set("exec.execute_us_per_step", per_step_us(ledger.execute_ns));
    out.set("exec.residual_us_per_step", per_step_us(l.residual));
    out.set(
        "exec.scatter_words_per_step",
        ratio(c(Counter::ScatterWords), t.steps),
    );
    out.set(
        "exec.worker_cpu_over_wall",
        ratio(
            t.per_step.phase_nanos(Phase::ExecuteWorkers) as f64,
            t.per_step.phase_nanos(Phase::Execute) as f64,
        ),
    );

    let w = |counter| t.whole.get(counter) as f64;
    let stmts = t.stmts as f64;
    let calls = t.calls as f64;
    out.set(
        "lane.gather_words_per_stmt",
        ratio(w(Counter::GatherWords), stmts),
    );
    out.set("lane.mirror_allocs", w(Counter::MirrorAllocations));
    out.set("lane.pool_misses", w(Counter::MirrorPoolMisses));

    out.set(
        "session.overhead_us_per_run",
        ratio(
            t.ledger_call_ns.saturating_sub(ledger.execute_ns) as f64 / 1e3,
            ledger.executes as f64,
        ),
    );
    let us = |ns: &[u64]| ns.iter().map(|&n| n as f64 / 1e3).collect::<Vec<f64>>();
    out.set(
        "session.commit_us_per_run",
        ratio(us(&t.window.commit_ns).iter().sum(), calls),
    );
    out.set(
        "session.lease_wait_us_p90",
        quantile(&us(&t.window.lease_wait_ns), 0.9),
    );
    out.set("session.region_frac", ratio(t.region_grants as f64, calls));
    out.set(
        "session.conflicts_per_100_runs",
        ratio(100.0 * t.conflicts as f64, calls),
    );
    out.set("session.peak_concurrent", t.peak_concurrent as f64);

    out.set("plan.build_us", mean(&us(&t.window.build_ns)));
    out.set("plan.rebind_us", mean(&us(&t.window.rebind_ns)));
    out.set(
        "plan.cache_hit_frac",
        ratio(t.cache_hits as f64, (t.cache_hits + t.cache_misses) as f64),
    );
    out.set(
        "plan.evictions_per_100_stmts",
        ratio(100.0 * t.evictions as f64, stmts),
    );
    out.set(
        "host.scatter_us_per_stmt",
        ratio(t.scatter_ns as f64 / 1e3, stmts),
    );
    out.set(
        "host.gather_us_per_stmt",
        ratio(t.gather_ns as f64 / 1e3, stmts),
    );
    out.set("obs.trace_drops", t.drops as f64);

    out.set("ceiling.copy_gbps_ws", ceilings.copy_gbps_ws);
    out.set("ceiling.copy_gbps_dram", ceilings.copy_gbps_dram);
    out.set("ceiling.fma_gflops", ceilings.fma_gflops);
}

/// Front-end and compiler costs: outside-timed parse and compile calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct CompileCost {
    pub parse_ns: u64,
    pub parses: u64,
    pub compile_ns: u64,
    pub compiles: u64,
}

/// Sets the `front.*` and `core.*` metrics; `phases` holds the counter
/// deltas over exactly the counted compiles (the compiler's own phase
/// spans).
pub fn emit_compile(out: &mut Outcome, cost: &CompileCost, phases: &RunReport) {
    let per_compile = |ns: u64| ratio(ns as f64 / 1e3, cost.compiles as f64);
    out.set(
        "front.parse_us",
        ratio(cost.parse_ns as f64 / 1e3, cost.parses as f64),
    );
    out.set("core.compile_us", per_compile(cost.compile_ns));
    out.set(
        "core.recognize_us",
        per_compile(phases.phase_nanos(Phase::Recognize)),
    );
    out.set(
        "core.multistencil_us",
        per_compile(phases.phase_nanos(Phase::Multistencil)),
    );
    out.set(
        "core.regalloc_us",
        per_compile(phases.phase_nanos(Phase::Regalloc)),
    );
    out.set(
        "core.unroll_us",
        per_compile(phases.phase_nanos(Phase::Unroll)),
    );
}
