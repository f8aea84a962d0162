//! The cmcc benchmark: three workloads driven through the library's
//! public API, end-to-end metrics from untraced runs, and per-layer
//! metrics from a separate traced run.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload steady_loop --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//!
//! * `steady_loop` — the paper's 9-point square with nine coefficient
//!   arrays, 512² on the 16-node board, fast lane-resident lockstep on
//!   one execute thread, ping-ponging X↔R through one `Session`.
//! * `heat_fused` — the all-literal five-point heat statement at 512²,
//!   four time steps fused per execute, one execute thread.
//! * `serve_mix` — two tenant threads in a closed loop, each issuing
//!   seeded requests (statement text, fresh input, compile, run, gather)
//!   against one shared session at 256².
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! traced variant and prints the per-layer metrics. End-to-end times and
//! rates are reported at a nominal host speed: each untraced run times a
//! fixed reference loop between its units of work and scales by it (see
//! `speed.rs`); the raw figures are in the run log. Every run checks its
//! outputs bit for bit against the scalar engine or the reference
//! evaluator, prints a host descriptor line, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. A wrong output makes
//! the run exit with status 1.

mod ceiling;
mod layers;
mod ledger;
mod loops;
mod serve;
mod speed;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 10] = [
    ("step_us_p50", "us"),
    ("step_us_p90", "us"),
    ("useful_gflops", "Gflop/s"),
    ("stmt_ms_p50", "ms"),
    ("stmt_ms_p90", "ms"),
    ("cold_stmt_ms_p50", "ms"),
    ("stmts_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics of the traced run, in `BENCHMARK.json` order.
const PER_LAYER: [(&str, &str); 43] = [
    ("front.parse_us", "us"),
    ("core.compile_us", "us"),
    ("core.recognize_us", "us"),
    ("core.multistencil_us", "us"),
    ("core.regalloc_us", "us"),
    ("core.unroll_us", "us"),
    ("plan.build_us", "us"),
    ("plan.rebind_us", "us"),
    ("plan.cache_hit_frac", "ratio"),
    ("plan.evictions_per_100_stmts", "count"),
    ("halo.exchange_us_per_step", "us"),
    ("halo.refresh_us_per_step", "us"),
    ("halo.exchanges_per_step", "count"),
    ("halo.exchange_words_per_step", "words"),
    ("halo.refresh_words_per_step", "words"),
    ("halo.copy_ceiling_frac", "ratio"),
    ("kernel.sweep_us_per_step", "us"),
    ("kernel.sweep_gflops", "Gflop/s"),
    ("kernel.fma_ceiling_frac", "ratio"),
    ("kernel.kernelized_frac", "ratio"),
    ("kernel.useful_flop_frac", "ratio"),
    ("exec.execute_us_per_step", "us"),
    ("exec.residual_us_per_step", "us"),
    ("exec.scatter_words_per_step", "words"),
    ("exec.worker_cpu_over_wall", "ratio"),
    ("lane.gather_words_per_stmt", "words"),
    ("lane.mirror_allocs", "count"),
    ("lane.pool_misses", "count"),
    ("session.overhead_us_per_run", "us"),
    ("session.commit_us_per_run", "us"),
    ("session.lease_wait_us_p90", "us"),
    ("session.region_frac", "ratio"),
    ("session.conflicts_per_100_runs", "count"),
    ("session.peak_concurrent", "count"),
    ("host.scatter_us_per_stmt", "us"),
    ("host.gather_us_per_stmt", "us"),
    ("sim.cycles_per_host_s", "cycles/s"),
    ("sim.model_gflops_2048", "Gflop/s"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.trace_drops", "count"),
    ("ceiling.copy_gbps_ws", "GB/s"),
    ("ceiling.copy_gbps_dram", "GB/s"),
    ("ceiling.fma_gflops", "Gflop/s"),
];

/// Command-line arguments. The seed is the only input a workload draws
/// its data from.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("`--seconds` must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("`--trace` takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What a workload run hands back: operation counts, failures, and its
/// metric values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure (mismatch, error, broken ledger identity).
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Renders the result line: every metric of `table`, by name, with its
/// unit. A metric the workload did not produce, or a non-finite value,
/// is reported as an error instead.
fn result_line(outcome: &Outcome, table: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = *outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric `{name}` was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric `{name}` is {value}"));
        }
        if i > 0 {
            metrics.push_str(", ");
        }
        write!(
            metrics,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0 && outcome.errors.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: cmcc-benchmark --workload <steady_loop|heat_fused|serve_mix> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    println!(
        "host: nproc={} cpu=\"{}\" llc_bytes={} seed={} workload={} trace={}",
        stats::nproc(),
        stats::cpu_model(),
        stats::llc_bytes(),
        args.seed,
        args.workload,
        u8::from(args.trace)
    );
    let outcome = match args.workload.as_str() {
        "steady_loop" => loops::run(&loops::LoopSpec::steady_loop(), &args),
        "heat_fused" => loops::run(&loops::LoopSpec::heat_fused(), &args),
        "serve_mix" => serve::run(&args),
        other => {
            eprintln!("error: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if !args.trace {
        outcome.set("peak_rss_mib", stats::peak_rss_mib());
        let ok = 1.0 - stats::ratio(outcome.failed as f64, outcome.attempted as f64);
        outcome.set("ok_frac", ok);
    }
    for e in &outcome.errors {
        eprintln!("FAILED: {e}");
    }
    match result_line(&outcome, table) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    if outcome.failed > 0 || !outcome.errors.is_empty() {
        std::process::exit(1);
    }
}
