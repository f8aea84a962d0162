//! `cmcc` — the command-line driver.
//!
//! Compiles a Fortran program unit (a sequence of array assignment
//! statements, optionally flagged with `!CMF$ STENCIL` directives) the way
//! the paper's third implementation would: every statement is a stencil
//! candidate, flagged failures produce warnings, and compiled statements
//! get a per-width kernel report. With `--run`, each compiled stencil is
//! also executed on the simulated 16-node CM-2 test board against random
//! data, verified against the reference evaluator, and timed.
//!
//! ```text
//! USAGE:
//!   cmcc [OPTIONS] <file.f90 | ->
//!
//! OPTIONS:
//!   --run              execute each compiled stencil (verify + time)
//!   --serve            stencil-as-a-service batch mode: read one
//!                      assignment statement per line, execute the whole
//!                      batch concurrently on a pool of tenant threads
//!                      sharing one machine and one plan cache, and print
//!                      per-tenant stats (plan builds, cache hits, kernel
//!                      mix) plus aggregate cache occupancy and
//!                      region-lease totals. With --profile=json, emits
//!                      one `cmcc-serve-v5` line with per-tenant latency
//!                      histograms and lease-contention attribution. A
//!                      line the compiler refuses is reported and skipped;
//!                      it does not fail the batch
//!   --workers N        tenant threads for --serve (default 4)
//!   --quota N          admission control for --serve: each tenant may
//!                      have at most N statement executes in flight
//!                      (default 1 — tenants run their batch share
//!                      sequentially). Conflicting executes queue in
//!                      fair FIFO order on the session's lease table
//!   --iters N          iterations per stencil for --run (default 1);
//!                      the execution plan is built once and replayed,
//!                      reporting first-iteration vs steady-state time
//!   --temporal K       fuse K time steps per execute (temporal tiling
//!                      on the lane-resident mirror; default 1). Implies
//!                      the fast-mode lockstep engine; depths the shape
//!                      cannot carry clamp to 1 with a recorded reason.
//!                      In --serve, a statement line may carry its own
//!                      `@temporal=K ` prefix
//!   --subgrid RxC      per-node subgrid for --run (default 64x64)
//!   --threads N        host threads for node execution (default: all cores)
//!   --engine E         scalar | lockstep: fast-mode engine for --run and
//!                      --serve. Either implies fast (functional) execution
//!                      — the cycle model runs only without the flag — so
//!                      no cycle counts are reported, only wall-clock timing
//!   --profile[=json]   enable telemetry and print a per-statement profile
//!                      after each --run: a human-readable table, or one
//!                      schema-stable JSON line (`cmcc-profile-v8`) with
//!                      derived rates, bytes/iteration against the
//!                      analytic steady-state prediction (surfaced as the
//!                      `model_drift` field, enforced by --drift-tol),
//!                      per-phase latency histograms, and region-lease
//!                      admission stats. The CMCC_PROFILE environment
//!                      variable enables the counters alone
//!   --trace FILE       write a Chrome trace-event JSON (chrome://tracing
//!                      or Perfetto) of the run to FILE: per-thread
//!                      begin/end slices for plan build, halo exchange,
//!                      interior refresh, kernel sweeps, lease
//!                      request/grant/release, region commits, and (in
//!                      --serve) one tid per worker plus one async track
//!                      per tenant. `--trace=FILE` works too
//!   --drift-tol F      fail a profiled --run whose steady-state
//!                      |observed - predicted| / predicted copy traffic
//!                      exceeds F (default 0 — the model must be exact;
//!                      checked only when --iters > 1 makes a steady
//!                      state observable)
//!   --full-machine     extrapolate rates to 2,048 nodes
//!   --pictogram        draw each recognized stencil
//!   --dump-kernel      print the widest kernel's microcode listing
//!   -h, --help         this text
//! ```

use cmcc::{LeaseStats, PlanCacheStats, Session};
use cmcc_cm2::config::MachineConfig;
use cmcc_cm2::exec::{ExecEngine, ExecMode};
use cmcc_cm2::machine::Machine;
use cmcc_cm2::timing::Measurement;
use cmcc_core::compiler::{CompiledStencil, Compiler};
use cmcc_core::pictogram::render_stencil;
use cmcc_core::program::{compile_program, UnitOutcome};
use cmcc_core::recognize::CoeffSpec;
use cmcc_core::unparse::unparse_spec;
use cmcc_runtime::array::CmArray;
use cmcc_runtime::convolve::ExecOptions;
use cmcc_runtime::reference::{reference_convolve_multi, CoeffValue};
use cmcc_testkit::Rng;
use std::io::Read;
use std::process::ExitCode;

/// What `--profile` prints after each `--run`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ProfileMode {
    /// Human-readable counter table plus derived rates.
    Table,
    /// One schema-stable JSON line per statement (`cmcc-profile-v8`).
    Json,
}

struct Options {
    path: String,
    run: bool,
    serve: bool,
    workers: usize,
    quota: usize,
    iters: usize,
    temporal: usize,
    subgrid: (usize, usize),
    threads: Option<usize>,
    engine: Option<ExecEngine>,
    profile: Option<ProfileMode>,
    trace: Option<String>,
    drift_tol: f64,
    full_machine: bool,
    pictogram: bool,
    dump_kernel: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: cmcc [--run] [--serve] [--workers N] [--quota N] \
         [--iters N] [--temporal K] \
         [--subgrid RxC] [--threads N] [--engine scalar|lockstep] [--profile[=json]] \
         [--trace FILE] [--drift-tol F] \
         [--full-machine] [--pictogram] [--dump-kernel] <file.f90 | ->"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        path: String::new(),
        run: false,
        serve: false,
        workers: 4,
        quota: 1,
        iters: 1,
        temporal: 1,
        subgrid: (64, 64),
        threads: None,
        engine: None,
        profile: None,
        trace: None,
        drift_tol: 0.0,
        full_machine: false,
        pictogram: false,
        dump_kernel: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--run" => opts.run = true,
            "--serve" => opts.serve = true,
            "--workers" => {
                let Some(n) = args.next() else { usage() };
                match n.parse::<usize>() {
                    Ok(n) if n > 0 => opts.workers = n,
                    _ => usage(),
                }
            }
            "--quota" => {
                let Some(n) = args.next() else { usage() };
                match n.parse::<usize>() {
                    Ok(n) if n > 0 => opts.quota = n,
                    _ => usage(),
                }
            }
            "--full-machine" => opts.full_machine = true,
            "--pictogram" => opts.pictogram = true,
            "--dump-kernel" => opts.dump_kernel = true,
            "--profile" => opts.profile = Some(ProfileMode::Table),
            "--profile=json" => opts.profile = Some(ProfileMode::Json),
            "--profile=table" => opts.profile = Some(ProfileMode::Table),
            "--trace" => {
                let Some(f) = args.next() else { usage() };
                opts.trace = Some(f);
            }
            "--drift-tol" => {
                let Some(f) = args.next() else { usage() };
                match f.parse::<f64>() {
                    Ok(f) if f >= 0.0 && f.is_finite() => opts.drift_tol = f,
                    _ => usage(),
                }
            }
            "--subgrid" => {
                let Some(spec) = args.next() else { usage() };
                let Some((r, c)) = spec.split_once('x') else {
                    usage()
                };
                match (r.parse(), c.parse()) {
                    (Ok(r), Ok(c)) => opts.subgrid = (r, c),
                    _ => usage(),
                }
            }
            "--threads" => {
                let Some(n) = args.next() else { usage() };
                match n.parse::<usize>() {
                    Ok(n) if n > 0 => opts.threads = Some(n),
                    _ => usage(),
                }
            }
            "--engine" => {
                let Some(e) = args.next() else { usage() };
                match e.as_str() {
                    "scalar" => opts.engine = Some(ExecEngine::Scalar),
                    "lockstep" => opts.engine = Some(ExecEngine::Lockstep),
                    _ => usage(),
                }
            }
            "--iters" => {
                let Some(n) = args.next() else { usage() };
                match n.parse::<usize>() {
                    Ok(n) if n > 0 => opts.iters = n,
                    _ => usage(),
                }
            }
            "--temporal" => {
                let Some(n) = args.next() else { usage() };
                match n.parse::<usize>() {
                    Ok(n) if n > 0 => opts.temporal = n,
                    _ => usage(),
                }
            }
            "-h" | "--help" => usage(),
            other if other.starts_with("--trace=") && other.len() > "--trace=".len() => {
                opts.trace = Some(other["--trace=".len()..].to_owned());
            }
            "-" if opts.path.is_empty() => opts.path = "-".to_owned(),
            other if opts.path.is_empty() && !other.starts_with('-') => {
                opts.path = other.to_owned();
            }
            _ => usage(),
        }
    }
    if opts.path.is_empty() {
        usage();
    }
    opts
}

fn main() -> ExitCode {
    let opts = parse_args();
    if opts.profile.is_some() {
        // `--profile` implies counting; CMCC_PROFILE=1 alone also enables
        // the counters (latched inside cmcc_obs on first use).
        cmcc_obs::set_enabled(true);
    }
    if opts.profile.is_some() || opts.trace.is_some() {
        // The profile's latency histograms and the exported trace are
        // both distilled from the same flight-recorder events.
        cmcc_obs::trace::set_trace_enabled(true);
        cmcc_obs::trace::set_thread_label("main");
    }
    let source = if opts.path == "-" {
        let mut buf = String::new();
        if std::io::stdin().read_to_string(&mut buf).is_err() {
            eprintln!("cmcc: failed to read stdin");
            return ExitCode::FAILURE;
        }
        buf
    } else {
        match std::fs::read_to_string(&opts.path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cmcc: cannot read `{}`: {e}", opts.path);
                return ExitCode::FAILURE;
            }
        }
    };

    let cfg = MachineConfig::test_board_16();
    if opts.serve {
        // Serve mode always counts: per-tenant stats are obs deltas.
        cmcc_obs::set_enabled(true);
        return match serve_batch(&source, &cfg, &opts) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("cmcc: serve failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let compiler = Compiler::new(cfg.clone());
    let units = match compile_program(&compiler, &source) {
        Ok(units) => units,
        Err(e) => {
            eprint!("{}", e.render(&source));
            return ExitCode::FAILURE;
        }
    };

    let mut warnings = 0;
    let mut compiled_count = 0;
    let mut cache_totals = PlanCacheStats::default();
    for (i, unit) in units.iter().enumerate() {
        println!("--- statement {} ---", i + 1);
        println!("  {}", unit.statement);
        match &unit.outcome {
            UnitOutcome::Stencil(compiled) => {
                compiled_count += 1;
                let stencil = compiled.stencil();
                println!(
                    "  compiled: {} taps ({} flops/point), borders {}, widths {:?}",
                    stencil.taps().len(),
                    stencil.useful_flops_per_point(),
                    stencil.borders(),
                    compiled.widths(),
                );
                for k in compiled.kernels() {
                    println!(
                        "    width {}: {} registers, rings {:?}, unroll x{}",
                        k.width, k.info.registers_used, k.info.ring_sizes, k.info.unroll
                    );
                }
                if opts.pictogram {
                    for line in render_stencil(stencil).lines() {
                        println!("    {line}");
                    }
                }
                if opts.dump_kernel {
                    let widest = &compiled.kernels()[0];
                    println!("  microcode listing (width {}, northward):", widest.width);
                    for line in widest.north.disassemble().lines() {
                        println!("    {line}");
                    }
                }
                if opts.run {
                    match run_compiled(i + 1, compiled, &unit.telemetry, &cfg, &opts) {
                        Ok(stats) => {
                            cache_totals.hits += stats.hits;
                            cache_totals.misses += stats.misses;
                            cache_totals.evictions += stats.evictions;
                            cache_totals.capacity = stats.capacity;
                        }
                        Err(e) => {
                            eprintln!("  RUN FAILED: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
            UnitOutcome::Flagged(warning) => {
                warnings += 1;
                println!("  {warning}");
                for line in warning.rendered.lines() {
                    println!("    {line}");
                }
            }
            UnitOutcome::Generic { reason } => {
                println!("  left to generic code ({reason})");
            }
        }
    }
    print!(
        "\n{} statements: {compiled_count} compiled, {warnings} warnings",
        units.len()
    );
    if opts.run {
        print!(
            ", plan cache: {} hits / {} misses / {} evictions (capacity {})",
            cache_totals.hits, cache_totals.misses, cache_totals.evictions, cache_totals.capacity
        );
    }
    println!();
    if let Err(e) = write_trace_file(&opts) {
        eprintln!("cmcc: {e}");
        return ExitCode::FAILURE;
    }
    if warnings > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Writes the flight recorder's Chrome trace-event JSON to `--trace
/// FILE`, if requested.
fn write_trace_file(opts: &Options) -> Result<(), String> {
    let Some(file) = &opts.trace else {
        return Ok(());
    };
    std::fs::write(file, cmcc_obs::trace::chrome_trace_json())
        .map_err(|e| format!("cannot write trace `{file}`: {e}"))
}

/// Applies `--engine`, which selects the fast-mode engine: either
/// choice implies fast (functional) mode, and only a run without the
/// flag keeps the cycle-accurate model.
fn with_engine(exec_opts: ExecOptions, engine: Option<ExecEngine>) -> ExecOptions {
    match engine {
        Some(engine) => ExecOptions {
            mode: ExecMode::Fast,
            ..exec_opts.with_engine(engine)
        },
        None => exec_opts,
    }
}

/// Executes one compiled stencil on random data through a [`Session`]
/// (so every iteration exercises the plan cache), checks it against the
/// reference evaluator, prints the measured rate, and — under
/// `--profile` — the telemetry that run recorded. Returns the session's
/// plan-cache statistics for the driver's summary line.
fn run_compiled(
    statement: usize,
    compiled: &CompiledStencil,
    compile_report: &cmcc_obs::RunReport,
    cfg: &MachineConfig,
    opts: &Options,
) -> Result<PlanCacheStats, Box<dyn std::error::Error>> {
    let mut session = Session::with_config(cfg.clone())?;
    let inputs = Inputs::new(&mut session, compiled, opts.subgrid, 0xCC)?;
    let (rows, cols) = (inputs.result.rows(), inputs.result.cols());
    let mut exec_opts = with_engine(
        match opts.threads {
            Some(n) => ExecOptions::default().with_threads(n),
            None => ExecOptions::default(),
        },
        opts.engine,
    );
    if opts.temporal > 1 {
        // Temporal tiling lives on the fast-mode lockstep engine; honor
        // an explicit --engine scalar (the plan will clamp and record
        // why), otherwise select the engine that can carry the depth.
        exec_opts = exec_opts.with_temporal_depth(opts.temporal);
        exec_opts.mode = ExecMode::Fast;
        if opts.engine.is_none() {
            exec_opts = exec_opts.with_engine(ExecEngine::Lockstep);
        }
    }

    // Compile-once/run-many through the plan cache: the first call
    // misses and builds the plan (halo buffers, exchange program,
    // resolved schedule); later iterations hit and replay it.
    let stmt_start_ns = cmcc_obs::trace::now_ns();
    let stmt_scope = cmcc_obs::trace::scope(cmcc_obs::trace::TraceOp::Statement, statement as u64);
    let full_before = cmcc_obs::snapshot();
    let build_start = std::time::Instant::now();
    let m = inputs.run(&mut session, compiled, &exec_opts)?;
    let first_iter = build_start.elapsed();
    let steady_before = cmcc_obs::snapshot();
    let steady_start = std::time::Instant::now();
    inputs.rerun(&mut session, compiled, &exec_opts, &m, opts.iters - 1)?;
    let steady_total = steady_start.elapsed();
    let steady_report = cmcc_obs::snapshot().delta(&steady_before);
    let full_report = cmcc_obs::snapshot().delta(&full_before);
    drop(stmt_scope);
    inputs.verify(&session, compiled)?;
    let depth = session.last_plan().map_or(1, |p| p.temporal_depth());
    let nodes = session.machine().node_count();

    // Label the path the plan actually executed: the lane body, or the
    // scalar engine and why (cycle mode and unmappable bindings
    // included).
    let lane_mapped = session.last_plan().is_some_and(|p| p.lane_mapped());
    if exec_opts.mode == ExecMode::Fast {
        // Functional engines skip the pipeline model, so there is no
        // cycle count to convert into a rate — report wall-clock only.
        let engine = if lane_mapped {
            "lockstep, lane-resident"
        } else {
            "scalar"
        };
        let why = session
            .last_plan()
            .and_then(|p| p.lane_fallback())
            .map(|reason| format!(" [{reason}]"))
            .unwrap_or_default();
        print!(
            "    ran {}x{} ({}x{} per node): functional ({engine}){why} on {} nodes",
            rows, cols, opts.subgrid.0, opts.subgrid.1, nodes,
        );
    } else {
        print!(
            "    ran {}x{} ({}x{} per node): {} cycles, {:.1} Mflops on {} nodes",
            rows,
            cols,
            opts.subgrid.0,
            opts.subgrid.1,
            m.cycles.total(),
            m.mflops(cfg),
            nodes,
        );
        if opts.full_machine {
            print!(
                " -> {:.2} Gflops on 2,048 nodes",
                m.extrapolate(2048).gflops(cfg)
            );
        }
    }
    println!(" [verified bit-exact]");
    if opts.temporal > 1 {
        match session.last_plan().and_then(|p| p.temporal_fallback()) {
            Some(reason) => println!(
                "    temporal: requested depth {} clamped to 1 ({reason})",
                opts.temporal
            ),
            None => {
                println!("    temporal: {depth} fused steps per execute, one halo refresh each")
            }
        }
    }
    if opts.iters > 1 {
        let steady_per_iter = steady_total / (opts.iters - 1) as u32;
        println!(
            "    {} iterations: first {:.3} ms (plan build + run), steady-state {:.3} ms/iter",
            opts.iters,
            first_iter.as_secs_f64() * 1e3,
            steady_per_iter.as_secs_f64() * 1e3,
        );
    }

    if let Some(mode) = opts.profile {
        // The statement's compile spans were recorded before this run
        // started; merge them in so the profile covers compile + run.
        let full_report = full_report.merge(compile_report);
        let engine = if lane_mapped {
            "lockstep-lane-resident"
        } else {
            "scalar"
        };
        let derived = derive_metrics(
            cfg,
            &m,
            &exec_opts,
            &session,
            opts.iters,
            first_iter,
            steady_total,
            &steady_report,
            &full_report,
            opts.drift_tol,
        );
        // Distill this statement's flight-recorder events (everything
        // that began after the statement started, on any thread) into
        // the per-phase latency histograms.
        let slices = pair_slices(&cmcc_obs::trace::threads(), stmt_start_ns);
        let drift_failure = (!derived.model_drift_ok).then(|| {
            format!(
                "steady-state copy traffic drifted {:+.4}% from the analytic model \
                 (observed {:.0} vs predicted {:.0} bytes/iter, tolerance {})",
                derived.model_drift * 100.0,
                derived.bytes_per_iter_observed,
                derived.bytes_per_iter_predicted,
                opts.drift_tol,
            )
        });
        let profile = Profile {
            statement,
            engine,
            mode: match exec_opts.mode {
                ExecMode::Cycle => "cycle",
                ExecMode::Fast => "fast",
            },
            nodes,
            iters: opts.iters,
            m,
            derived,
            stats: session.plan_cache_stats(),
            cached: session.cached_plans(),
            leases: session.lease_stats(),
            latency: phase_hists(&slices),
            report: full_report,
        };
        match mode {
            ProfileMode::Table => profile.print_table(),
            ProfileMode::Json => println!("{}", profile.to_json()),
        }
        if let Some(msg) = drift_failure {
            return Err(msg.into());
        }
    }
    Ok(session.plan_cache_stats())
}

/// One statement's random inputs on a session's machine, plus the
/// result array its runs write: what `--run` and `--serve` verify.
struct Inputs {
    sources: Vec<CmArray>,
    coeffs: Vec<CmArray>,
    result: CmArray,
}

impl Inputs {
    /// Allocates the statement's sources and named coefficients, filled
    /// with values in [-1, 1) drawn from `seed`, and its result array,
    /// each `subgrid` per node.
    fn new(
        session: &mut Session,
        compiled: &CompiledStencil,
        subgrid: (usize, usize),
        seed: u64,
    ) -> Result<Self, Box<dyn std::error::Error>> {
        let rows = subgrid.0 * session.machine().grid().rows();
        let cols = subgrid.1 * session.machine().grid().cols();
        let spec = compiled.spec();
        let mut rng = Rng::new(seed);
        let mut fill = |machine: &mut Machine| -> Result<CmArray, Box<dyn std::error::Error>> {
            let a = CmArray::new(machine, rows, cols)?;
            let data: Vec<f32> = (0..rows * cols).map(|_| rng.f32_in(-1.0, 1.0)).collect();
            a.scatter(machine, &data);
            Ok(a)
        };
        let named = spec
            .coeffs
            .iter()
            .filter(|c| matches!(c, CoeffSpec::Named(_)))
            .count();
        Ok(Inputs {
            sources: (0..spec.sources.len().max(1))
                .map(|_| fill(&mut session.machine_mut()))
                .collect::<Result<_, _>>()?,
            coeffs: (0..named)
                .map(|_| fill(&mut session.machine_mut()))
                .collect::<Result<_, _>>()?,
            result: CmArray::new(&mut session.machine_mut(), rows, cols)?,
        })
    }

    /// One run through the session's plan cache.
    fn run(
        &self,
        session: &mut Session,
        compiled: &CompiledStencil,
        exec_opts: &ExecOptions,
    ) -> Result<Measurement, cmcc::SessionError> {
        let sources: Vec<&CmArray> = self.sources.iter().collect();
        let coeffs: Vec<&CmArray> = self.coeffs.iter().collect();
        session.run_with_multi(compiled, &self.result, &sources, &coeffs, exec_opts)
    }

    /// Runs `times` more times, failing unless every run repeats
    /// `first`.
    fn rerun(
        &self,
        session: &mut Session,
        compiled: &CompiledStencil,
        exec_opts: &ExecOptions,
        first: &Measurement,
        times: usize,
    ) -> Result<(), Box<dyn std::error::Error>> {
        for _ in 0..times {
            if self.run(session, compiled, exec_opts)? != *first {
                return Err("iterations disagree on a fixed input (nondeterminism?)".into());
            }
        }
        Ok(())
    }

    /// Checks the result bit for bit against the reference evaluator.
    /// One execute advances the last run's plan by its temporal depth (1
    /// unless temporal tiling took effect; clamped depths report 1), so
    /// the depth-1 reference is iterated that many times.
    fn verify(
        &self,
        session: &Session,
        compiled: &CompiledStencil,
    ) -> Result<(), Box<dyn std::error::Error>> {
        let machine = session.machine();
        let source_hosts: Vec<Vec<f32>> = self.sources.iter().map(|a| a.gather(&machine)).collect();
        let coeff_hosts: Vec<Vec<f32>> = self.coeffs.iter().map(|a| a.gather(&machine)).collect();
        let got = self.result.gather(&machine);
        drop(machine);
        let spec = compiled.spec();
        let source_slices: Vec<&[f32]> = source_hosts.iter().map(Vec::as_slice).collect();
        let mut host_iter = coeff_hosts.iter();
        let values: Vec<CoeffValue<'_>> = spec
            .coeffs
            .iter()
            .map(|c| match c {
                CoeffSpec::Named(_) => CoeffValue::Array(host_iter.next().expect("counted")),
                CoeffSpec::Literal(v) => CoeffValue::Literal(*v),
            })
            .collect();
        let (rows, cols) = (self.result.rows(), self.result.cols());
        let depth = session.last_plan().map_or(1, |p| p.temporal_depth());
        let mut want =
            reference_convolve_multi(compiled.stencil(), rows, cols, &source_slices, &values);
        for _ in 1..depth {
            want = reference_convolve_multi(compiled.stencil(), rows, cols, &[&want], &values);
        }
        let exact = got
            .iter()
            .zip(&want)
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if !exact {
            return Err(format!(
                "results diverge from the reference evaluator for `{}`",
                unparse_spec(spec)
            )
            .into());
        }
        Ok(())
    }
}

/// Rates and traffic derived from one profiled run.
struct Derived {
    /// Sustained Gflops under the WTL3164 cycle model (0 in fast mode —
    /// the pipeline model did not run).
    effective_gflops: f64,
    /// Achieved fraction of the cycle model's peak (2 flops/cycle/node);
    /// 0 in fast mode.
    model_fraction: f64,
    /// Useful flops over host wall-clock per steady iteration.
    wall_gflops: f64,
    /// Useful flops over *summed worker-thread* time per steady
    /// iteration — the `execute_workers` phase attributes kernel time
    /// inside each execute's thread fan-out, so wall vs CPU separates
    /// parallel speed-up from per-core throughput.
    cpu_gflops: f64,
    /// The plan's effective temporal depth (fused steps per execute).
    temporal_depth: usize,
    /// Observed bytes copied per steady-state iteration (counter delta
    /// over the steady iterations; the whole run when `--iters 1`).
    bytes_per_iter_observed: f64,
    /// Observed bytes amortized over the fused steps in each iteration:
    /// `bytes_per_iter_observed / temporal_depth` — the figure temporal
    /// tiling actually improves.
    bytes_per_step_amortized: f64,
    /// The plan's analytic `steady_state_copy_words` prediction, in bytes.
    bytes_per_iter_predicted: f64,
    /// Signed relative drift of the observed steady-state copy traffic
    /// from the analytic prediction:
    /// `(observed - predicted) / predicted`. This is the release-mode
    /// form of the `cfg(debug_assertions)` copy-words cross-check — the
    /// class of bug the PR-5 lane re-prime fix was caught by. 0 when the
    /// check is not applicable (see `model_drift_checked`).
    model_drift: f64,
    /// Whether the drift was measurable: a steady state was observed
    /// (`--iters > 1`) and the plan predicts nonzero traffic.
    model_drift_checked: bool,
    /// `|model_drift| <= --drift-tol` (vacuously true when unchecked).
    /// A profiled run with a false value fails.
    model_drift_ok: bool,
}

#[allow(clippy::too_many_arguments)]
fn derive_metrics(
    cfg: &MachineConfig,
    m: &Measurement,
    exec_opts: &ExecOptions,
    session: &Session,
    iters: usize,
    first_iter: std::time::Duration,
    steady_total: std::time::Duration,
    steady_report: &cmcc_obs::RunReport,
    full_report: &cmcc_obs::RunReport,
    drift_tol: f64,
) -> Derived {
    let cycle_mode = exec_opts.mode == ExecMode::Cycle;
    let effective_gflops = if cycle_mode { m.gflops(cfg) } else { 0.0 };
    let model_fraction = if cycle_mode && m.cycles.total() > 0 {
        m.useful_flops as f64 / (2.0 * m.cycles.total() as f64 * m.nodes as f64)
    } else {
        0.0
    };
    let per_iter_secs = if iters > 1 {
        steady_total.as_secs_f64() / (iters - 1) as f64
    } else {
        first_iter.as_secs_f64()
    };
    let wall_gflops = if per_iter_secs > 0.0 {
        m.useful_flops as f64 / per_iter_secs / 1.0e9
    } else {
        0.0
    };
    let (rate_report, rate_iters) = if iters > 1 {
        (steady_report, (iters - 1) as f64)
    } else {
        (full_report, 1.0)
    };
    let cpu_secs_per_iter =
        rate_report.phase_nanos(cmcc_obs::Phase::ExecuteWorkers) as f64 * 1e-9 / rate_iters;
    let cpu_gflops = if cpu_secs_per_iter > 0.0 {
        m.useful_flops as f64 / cpu_secs_per_iter / 1.0e9
    } else {
        0.0
    };
    let temporal_depth = session.last_plan().map_or(1, |p| p.temporal_depth());
    const WORD_BYTES: f64 = 4.0;
    let bytes_per_iter_observed = if iters > 1 {
        steady_report.copy_words() as f64 * WORD_BYTES / (iters - 1) as f64
    } else {
        full_report.copy_words() as f64 * WORD_BYTES
    };
    let bytes_per_step_amortized = bytes_per_iter_observed / temporal_depth as f64;
    let bytes_per_iter_predicted = session
        .last_plan()
        .map_or(0.0, |p| p.steady_state_copy_words() as f64 * WORD_BYTES);
    // The observed/predicted cross-check is meaningful only over steady
    // iterations — the first iteration folds in plan build and priming
    // traffic the steady-state model deliberately excludes.
    let model_drift_checked = iters > 1 && bytes_per_iter_predicted > 0.0;
    let model_drift = if model_drift_checked {
        (bytes_per_iter_observed - bytes_per_iter_predicted) / bytes_per_iter_predicted
    } else {
        0.0
    };
    let model_drift_ok = !model_drift_checked || model_drift.abs() <= drift_tol;
    Derived {
        effective_gflops,
        model_fraction,
        wall_gflops,
        cpu_gflops,
        temporal_depth,
        bytes_per_iter_observed,
        bytes_per_step_amortized,
        bytes_per_iter_predicted,
        model_drift,
        model_drift_checked,
        model_drift_ok,
    }
}

/// Everything `--profile` prints for one statement.
struct Profile {
    statement: usize,
    engine: &'static str,
    mode: &'static str,
    nodes: usize,
    iters: usize,
    m: Measurement,
    derived: Derived,
    stats: PlanCacheStats,
    /// Plans cached when the profile was taken.
    cached: usize,
    leases: LeaseStats,
    /// Per-operation duration histograms distilled from this
    /// statement's flight-recorder slices, indexed by `TraceOp`.
    latency: Vec<cmcc_obs::hist::Histogram>,
    report: cmcc_obs::RunReport,
}

/// One begin/end-paired flight-recorder slice.
struct Slice {
    op: cmcc_obs::trace::TraceOp,
    tenant: Option<u32>,
    dur_ns: u64,
    /// The end event's argument (e.g. the conflicted flag of a
    /// `lease_acquire` slice).
    end_arg: u64,
}

/// Pairs each thread's begin/end events stack-wise per operation and
/// returns the completed slices whose begin timestamp is at or after
/// `since_ns` (0 keeps everything). Unmatched ends (begin before the
/// recorder was reset or dropped on overflow) are ignored.
fn pair_slices(threads: &[cmcc_obs::trace::ThreadTrace], since_ns: u64) -> Vec<Slice> {
    use cmcc_obs::trace::{TraceKind, TRACE_OP_COUNT};
    let mut slices = Vec::new();
    for t in threads {
        let mut stacks: Vec<Vec<u64>> = vec![Vec::new(); TRACE_OP_COUNT];
        for e in &t.events {
            match e.kind {
                TraceKind::Begin => stacks[e.op as usize].push(e.ts_ns),
                TraceKind::End => {
                    if let Some(start) = stacks[e.op as usize].pop() {
                        if start >= since_ns {
                            slices.push(Slice {
                                op: e.op,
                                tenant: e.tenant,
                                dur_ns: e.ts_ns.saturating_sub(start),
                                end_arg: e.arg,
                            });
                        }
                    }
                }
                _ => {}
            }
        }
    }
    slices
}

/// The operations the `latency.phases` JSON object keys, in schema
/// order (compile phases are excluded — the report's `compile` object
/// already times them).
const LATENCY_PHASES: [cmcc_obs::trace::TraceOp; 10] = [
    cmcc_obs::trace::TraceOp::PlanBuild,
    cmcc_obs::trace::TraceOp::PlanRebind,
    cmcc_obs::trace::TraceOp::Execute,
    cmcc_obs::trace::TraceOp::ExecuteWorkers,
    cmcc_obs::trace::TraceOp::HaloExchange,
    cmcc_obs::trace::TraceOp::InteriorRefresh,
    cmcc_obs::trace::TraceOp::KernelSweep,
    cmcc_obs::trace::TraceOp::RegionCommit,
    cmcc_obs::trace::TraceOp::LeaseAcquire,
    cmcc_obs::trace::TraceOp::LeaseHeld,
];

/// Per-operation duration histograms over a slice set.
fn phase_hists(slices: &[Slice]) -> Vec<cmcc_obs::hist::Histogram> {
    let mut hists: Vec<cmcc_obs::hist::Histogram> = (0..cmcc_obs::trace::TRACE_OP_COUNT)
        .map(|_| cmcc_obs::hist::Histogram::new())
        .collect();
    for s in slices {
        hists[s.op as usize].record(s.dur_ns);
    }
    hists
}

/// Renders the fixed `latency.phases` object: one histogram summary per
/// [`LATENCY_PHASES`] operation.
fn latency_phases_json(hists: &[cmcc_obs::hist::Histogram]) -> String {
    let parts: Vec<String> = LATENCY_PHASES
        .iter()
        .map(|op| format!("\"{}\":{}", op.name(), hists[*op as usize].summary_json()))
        .collect();
    format!("{{{}}}", parts.join(","))
}

/// Formats an `f64` as a JSON number (non-finite values become 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.000000".to_owned()
    }
}

impl Profile {
    fn print_table(&self) {
        println!(
            "    profile (statement {}, {} engine, {} mode):",
            self.statement, self.engine, self.mode
        );
        println!(
            "      effective {:.3} Gflops (model fraction {:.3}), wall-clock {:.3} Gflops, \
             cpu {:.3} Gflops",
            self.derived.effective_gflops,
            self.derived.model_fraction,
            self.derived.wall_gflops,
            self.derived.cpu_gflops,
        );
        println!(
            "      copy traffic {:.0} bytes/iter observed vs {:.0} predicted \
             (steady_state_copy_words); temporal depth {} -> {:.0} bytes/step amortized",
            self.derived.bytes_per_iter_observed,
            self.derived.bytes_per_iter_predicted,
            self.derived.temporal_depth,
            self.derived.bytes_per_step_amortized,
        );
        if self.derived.model_drift_checked {
            println!(
                "      model drift {:+.4}% ({})",
                self.derived.model_drift * 100.0,
                if self.derived.model_drift_ok {
                    "within tolerance"
                } else {
                    "EXCEEDS tolerance"
                },
            );
        }
        println!(
            "      plan cache: {} hits / {} misses / {} evictions (capacity {})",
            self.stats.hits, self.stats.misses, self.stats.evictions, self.stats.capacity,
        );
        println!(
            "      leases: {} region grants, {} conflicts (queued FIFO), \
             peak {} concurrent",
            self.leases.region_grants, self.leases.conflicts, self.leases.peak_concurrent,
        );
        for op in LATENCY_PHASES {
            let h = &self.latency[op as usize];
            if h.count() == 0 {
                continue;
            }
            println!(
                "      latency {}: n={} p50={}ns p95={}ns p99={}ns max={}ns",
                op.name(),
                h.count(),
                h.percentile(50.0),
                h.percentile(95.0),
                h.percentile(99.0),
                h.max(),
            );
        }
        for line in self.report.render_table().lines() {
            println!("      {line}");
        }
    }

    /// One compact JSON line. The key set is the `cmcc-profile-v8`
    /// schema (v7 with the plan cache's two per-shard arrays replaced by
    /// one `cached` count): CI validates it, so changes must bump the
    /// version.
    fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"schema\":\"cmcc-profile-v8\",\"statement\":{},",
                "\"engine\":\"{}\",\"mode\":\"{}\",\"nodes\":{},\"iters\":{},",
                "\"measurement\":{{\"useful_flops\":{},\"cycles\":{{\"comm\":{},",
                "\"compute\":{},\"frontend\":{},\"total\":{}}},\"nodes\":{}}},",
                "\"derived\":{{\"effective_gflops\":{},\"model_fraction\":{},",
                "\"wall_gflops\":{},\"cpu_gflops\":{},\"temporal_depth\":{},",
                "\"bytes_per_iter_observed\":{},\"bytes_per_step_amortized\":{},",
                "\"bytes_per_iter_predicted\":{},\"model_drift\":{},",
                "\"model_drift_ok\":{}}},",
                "\"plan_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},",
                "\"capacity\":{},\"cached\":{},\"shared_in_flight\":{}}},",
                "\"leases\":{{\"region_grants\":{},\"conflicts\":{},",
                "\"peak_concurrent\":{},\"live\":{}}},",
                "\"latency\":{{\"phases\":{}}},\"report\":{}}}"
            ),
            self.statement,
            self.engine,
            self.mode,
            self.nodes,
            self.iters,
            self.m.useful_flops,
            self.m.cycles.comm,
            self.m.cycles.compute,
            self.m.cycles.frontend,
            self.m.cycles.total(),
            self.m.nodes,
            json_f64(self.derived.effective_gflops),
            json_f64(self.derived.model_fraction),
            json_f64(self.derived.wall_gflops),
            json_f64(self.derived.cpu_gflops),
            self.derived.temporal_depth,
            json_f64(self.derived.bytes_per_iter_observed),
            json_f64(self.derived.bytes_per_step_amortized),
            json_f64(self.derived.bytes_per_iter_predicted),
            json_f64(self.derived.model_drift),
            self.derived.model_drift_ok,
            self.stats.hits,
            self.stats.misses,
            self.stats.evictions,
            self.stats.capacity,
            self.cached,
            self.stats.shared_in_flight,
            self.leases.region_grants,
            self.leases.conflicts,
            self.leases.peak_concurrent,
            self.leases.live,
            latency_phases_json(&self.latency),
            self.report.to_json(),
        )
    }
}

/// One tenant thread's share of a `--serve` batch.
struct TenantStats {
    tenant: usize,
    statements: usize,
    runs: u64,
    plan_builds: u64,
    cache_hits: u64,
    cache_misses: u64,
    kernelized_steps: u64,
    scalar_steps: u64,
    /// Summed wall-clock of this tenant's quota workers' drain loops.
    /// The tenant's blocked + executing trace time can never exceed it,
    /// and the batch fails if it does.
    wall_ns: u64,
    errors: Vec<String>,
}

/// Splits an optional `@temporal=K ` prefix off a served statement
/// line, returning the requested depth and the bare statement.
fn parse_serve_directive(line: &str) -> Result<(usize, &str), String> {
    let Some(rest) = line.strip_prefix("@temporal=") else {
        return Ok((1, line));
    };
    let (num, stmt) = rest
        .split_once(char::is_whitespace)
        .ok_or_else(|| "`@temporal=K` directive without a statement".to_owned())?;
    match num.parse::<usize>() {
        Ok(k) if k > 0 => Ok((k, stmt.trim_start())),
        _ => Err(format!("bad temporal depth `{num}` in serve directive")),
    }
}

/// Executes one served statement through a tenant's session handle:
/// compile, allocate and fill deterministic inputs, run `--iters` times
/// through the shared plan cache, and verify bit-exactly against the
/// reference evaluator.
fn serve_one(
    session: &mut Session,
    tenant: usize,
    index: usize,
    statement: &str,
    exec_opts: &ExecOptions,
    opts: &Options,
) -> Result<(), Box<dyn std::error::Error>> {
    let (temporal, statement) = parse_serve_directive(statement)?;
    let mut exec_opts = *exec_opts;
    if temporal > 1 {
        // Per-line temporal tiling: the depth keys the plan cache, so
        // tenants asking different depths for the same statement get
        // distinct shared artifacts.
        exec_opts = exec_opts
            .with_temporal_depth(temporal)
            .with_engine(ExecEngine::Lockstep);
        exec_opts.mode = ExecMode::Fast;
    }
    let compiled = session.compile(statement)?;
    let seed = 0xCC ^ ((tenant as u64) << 32) ^ index as u64;
    let inputs = Inputs::new(session, &compiled, opts.subgrid, seed)?;
    let m = inputs.run(session, &compiled, &exec_opts)?;
    inputs.rerun(session, &compiled, &exec_opts, &m, opts.iters - 1)?;
    inputs.verify(session, &compiled)
}

/// One tenant's full pass over the batch, under the tenant's admission
/// quota: at most `--quota` statement executes in flight at once
/// (default 1 — the batch share runs sequentially on this thread).
/// Execution runs with one host thread so every counter a run records
/// lands on the running thread's obs shard — summing `thread_snapshot`
/// deltas over the quota workers attributes plan builds, cache hits,
/// and kernel steps to the tenant exactly.
fn serve_tenant(
    tenant: usize,
    session: Session,
    statements: &[String],
    opts: &Options,
) -> TenantStats {
    use cmcc_obs::Counter;
    use std::sync::atomic::{AtomicUsize, Ordering};
    // `--engine lockstep` serves lane-resident plans, which are eligible
    // for the concurrent region path.
    let exec_opts = with_engine(ExecOptions::default().with_threads(1), opts.engine);
    let mut stats = TenantStats {
        tenant,
        statements: 0,
        runs: 0,
        plan_builds: 0,
        cache_hits: 0,
        cache_misses: 0,
        kernelized_steps: 0,
        scalar_steps: 0,
        wall_ns: 0,
        errors: Vec::new(),
    };
    // The quota workers drain one shared cursor, so together they serve
    // the tenant's batch exactly once, up to `quota` lines in flight.
    let cursor = AtomicUsize::new(0);
    let drain = |mut handle: Session| {
        // Tag the worker thread so every flight-recorder event its runs
        // emit (execution is single-threaded per run) carries the tenant,
        // and per-tenant latency/blocked/executing attribution is exact.
        cmcc_obs::trace::set_tenant(Some(tenant as u32));
        cmcc_obs::trace::set_thread_label(&format!("tenant {tenant} worker"));
        let wall = std::time::Instant::now();
        let before = cmcc_obs::thread_snapshot();
        let mut served = 0usize;
        let mut errors = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= statements.len() {
                break;
            }
            // Each served line is a `statement` slice on the worker's
            // timeline plus an async slice on the tenant's trace track.
            cmcc_obs::trace::record(
                cmcc_obs::trace::TraceKind::AsyncBegin,
                cmcc_obs::trace::TraceOp::Statement,
                tenant as u64,
            );
            let span = cmcc_obs::trace::scope(cmcc_obs::trace::TraceOp::Statement, i as u64);
            match serve_one(&mut handle, tenant, i, &statements[i], &exec_opts, opts) {
                Ok(()) => served += 1,
                // A line the compiler refuses is the client's error: it
                // is reported, and the batch serves on.
                Err(e) if matches!(e.downcast_ref(), Some(cmcc::SessionError::Compile(_))) => {
                    eprintln!("  tenant {tenant}: refused statement {}: {e}", i + 1);
                }
                Err(e) => errors.push(format!("statement {}: {e}", i + 1)),
            }
            drop(span);
            cmcc_obs::trace::record(
                cmcc_obs::trace::TraceKind::AsyncEnd,
                cmcc_obs::trace::TraceOp::Statement,
                tenant as u64,
            );
        }
        (
            served,
            errors,
            cmcc_obs::thread_snapshot().delta(&before),
            wall.elapsed().as_nanos() as u64,
        )
    };
    type Share = (usize, Vec<String>, cmcc_obs::RunReport, u64);
    let shares: Vec<Share> = if opts.quota <= 1 {
        vec![drain(session)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..opts.quota)
                .map(|_| {
                    let handle = session.clone();
                    scope.spawn(|| drain(handle))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("quota worker panicked"))
                .collect()
        })
    };
    for (served, errors, report, wall_ns) in shares {
        stats.statements += served;
        stats.runs += (served * opts.iters) as u64;
        stats.wall_ns += wall_ns;
        stats.errors.extend(errors);
        stats.plan_builds += report.get(Counter::PlanBuilds);
        stats.cache_hits += report.get(Counter::PlanCacheHits);
        stats.cache_misses += report.get(Counter::PlanCacheMisses);
        stats.kernelized_steps += report.get(Counter::KernelizedSteps);
        stats.scalar_steps += report.get(Counter::ScalarSteps);
    }
    stats
}

/// `--serve`: stencil-as-a-service over a statement batch. Every tenant
/// thread clones one session handle and runs the whole batch, so tenants
/// race on a cold cache for the same plans — the per-fingerprint build
/// lock must make total plan builds equal cache misses (exactly one
/// build per distinct plan), and the driver fails the run if it does not.
fn serve_batch(
    source: &str,
    cfg: &MachineConfig,
    opts: &Options,
) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let statements: Vec<String> = source
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('!'))
        .map(String::from)
        .collect();
    if statements.is_empty() {
        return Err("no statements to serve".into());
    }
    // Serve always runs the flight recorder: the per-tenant latency and
    // lease-contention attribution below are distilled from its events.
    cmcc_obs::trace::set_trace_enabled(true);
    let session = Session::with_config(cfg.clone())?;
    let tenants: Vec<TenantStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.workers)
            .map(|w| {
                let handle = session.clone();
                let statements = &statements;
                scope.spawn(move || serve_tenant(w, handle, statements, opts))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    });

    let cache = session.plan_cache_stats();
    let leases = session.lease_stats();
    let total_builds: u64 = tenants.iter().map(|t| t.plan_builds).sum();
    let build_once = total_builds == cache.misses;
    let drained = leases.live == 0 && leases.queued == 0;
    let mut failed = !build_once || !drained;

    // Lease-contention attribution: pair the batch's flight-recorder
    // events into slices and split each tenant's wall time into blocked
    // (lease time-to-grant plus machine-lock waits) vs executing. Lock
    // waits never nest inside an execute, so nothing is counted twice.
    // The conflicted-wait count must agree with the lease table's own
    // conflict counter — a structural cross-check between two
    // independent observers — unless the ring overflowed and dropped
    // events.
    let slices = pair_slices(&cmcc_obs::trace::threads(), 0);
    let hists = phase_hists(&slices);
    let mut time_to_grant = cmcc_obs::hist::Histogram::new();
    let mut conflicted_waits: u64 = 0;
    let mut tenant_stmt: Vec<cmcc_obs::hist::Histogram> = (0..opts.workers)
        .map(|_| cmcc_obs::hist::Histogram::new())
        .collect();
    let mut tenant_blocked = vec![0u64; opts.workers];
    let mut tenant_executing = vec![0u64; opts.workers];
    for s in &slices {
        let w = s.tenant.map(|t| t as usize).filter(|&t| t < opts.workers);
        match s.op {
            cmcc_obs::trace::TraceOp::LeaseAcquire => {
                time_to_grant.record(s.dur_ns);
                if s.end_arg == 1 {
                    conflicted_waits += 1;
                }
                if let Some(w) = w {
                    tenant_blocked[w] += s.dur_ns;
                }
            }
            cmcc_obs::trace::TraceOp::MachineLock => {
                if let Some(w) = w {
                    tenant_blocked[w] += s.dur_ns;
                }
            }
            cmcc_obs::trace::TraceOp::Execute => {
                if let Some(w) = w {
                    tenant_executing[w] += s.dur_ns;
                }
            }
            cmcc_obs::trace::TraceOp::Statement => {
                if let Some(w) = w {
                    tenant_stmt[w].record(s.dur_ns);
                }
            }
            _ => {}
        }
    }
    let trace_drops = cmcc_obs::trace::total_drops();
    let waits_consistent = trace_drops > 0 || conflicted_waits == leases.conflicts;
    let split_ok = tenants
        .iter()
        .all(|t| tenant_blocked[t.tenant] + tenant_executing[t.tenant] <= t.wall_ns);
    if !waits_consistent || !split_ok {
        failed = true;
    }

    println!(
        "serve: {} tenants (quota {}) x {} statements x {} iters ({}x{} per node, {} nodes)",
        opts.workers,
        opts.quota,
        statements.len(),
        opts.iters,
        opts.subgrid.0,
        opts.subgrid.1,
        session.machine().node_count(),
    );
    for t in &tenants {
        println!(
            "  tenant {}: {} statements, {} runs, plan_builds={}, cache_hits={}, \
             kernel mix: kernelized={} scalar={}",
            t.tenant,
            t.statements,
            t.runs,
            t.plan_builds,
            t.cache_hits,
            t.kernelized_steps,
            t.scalar_steps,
        );
        let h = &tenant_stmt[t.tenant];
        println!(
            "    latency: statements n={} p50={}ns p95={}ns p99={}ns max={}ns; \
             blocked {}ns + executing {}ns <= wall {}ns",
            h.count(),
            h.percentile(50.0),
            h.percentile(95.0),
            h.percentile(99.0),
            h.max(),
            tenant_blocked[t.tenant],
            tenant_executing[t.tenant],
            t.wall_ns,
        );
        for e in &t.errors {
            failed = true;
            eprintln!("  tenant {}: SERVE FAILED: {e}", t.tenant);
        }
    }
    let cached = session.cached_plans();
    println!(
        "serve totals: plan cache {} hits / {} misses / {} evictions (capacity {}), \
         build-once {}",
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.capacity,
        if build_once {
            "OK (builds == misses)".to_owned()
        } else {
            format!(
                "VIOLATED ({total_builds} builds != {} misses)",
                cache.misses
            )
        },
    );
    println!(
        "  cached: {cached} plans, shared_in_flight={}",
        cache.shared_in_flight,
    );
    println!(
        "  leases: {} region grants, {} conflicts (queued FIFO), \
         peak {} concurrent executes, drained {}",
        leases.region_grants,
        leases.conflicts,
        leases.peak_concurrent,
        if drained {
            "OK (0 live, 0 queued)".to_owned()
        } else {
            format!("VIOLATED ({} live, {} queued)", leases.live, leases.queued)
        },
    );
    println!(
        "  lease wait: n={} p50={}ns p95={}ns p99={}ns max={}ns, {} conflicted, \
         attribution {}",
        time_to_grant.count(),
        time_to_grant.percentile(50.0),
        time_to_grant.percentile(95.0),
        time_to_grant.percentile(99.0),
        time_to_grant.max(),
        conflicted_waits,
        if waits_consistent {
            "OK (trace waits == lease conflicts)".to_owned()
        } else {
            format!(
                "VIOLATED ({conflicted_waits} traced waits != {} lease conflicts)",
                leases.conflicts
            )
        },
    );
    if !split_ok {
        eprintln!("  SERVE FAILED: a tenant's blocked + executing time exceeds its wall time");
    }
    if trace_drops > 0 {
        println!("  trace: {trace_drops} events dropped (ring overflow)");
    }

    if opts.profile == Some(ProfileMode::Json) {
        let tenant_json: Vec<String> = tenants
            .iter()
            .map(|t| {
                format!(
                    concat!(
                        "{{\"tenant\":{},\"statements\":{},\"runs\":{},",
                        "\"plan_builds\":{},\"cache_hits\":{},\"cache_misses\":{},",
                        "\"kernelized_steps\":{},",
                        "\"scalar_steps\":{},\"latency\":{},\"blocked_ns\":{},",
                        "\"executing_ns\":{},\"wall_ns\":{},\"errors\":{}}}"
                    ),
                    t.tenant,
                    t.statements,
                    t.runs,
                    t.plan_builds,
                    t.cache_hits,
                    t.cache_misses,
                    t.kernelized_steps,
                    t.scalar_steps,
                    tenant_stmt[t.tenant].summary_json(),
                    tenant_blocked[t.tenant],
                    tenant_executing[t.tenant],
                    t.wall_ns,
                    t.errors.len(),
                )
            })
            .collect();
        println!(
            concat!(
                "{{\"schema\":\"cmcc-serve-v5\",\"workers\":{},\"quota\":{},",
                "\"statements\":{},",
                "\"iters\":{},\"build_once\":{},\"drained\":{},\"tenants\":[{}],",
                "\"plan_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},",
                "\"capacity\":{},\"cached\":{},\"shared_in_flight\":{}}},",
                "\"leases\":{{\"region_grants\":{},\"conflicts\":{},",
                "\"peak_concurrent\":{},\"live\":{}}},",
                "\"latency\":{{\"phases\":{},\"lease\":{{\"time_to_grant\":{},",
                "\"conflicted_waits\":{},\"waits_consistent\":{}}}}},",
                "\"trace_drops\":{}}}"
            ),
            opts.workers,
            opts.quota,
            statements.len(),
            opts.iters,
            build_once,
            drained,
            tenant_json.join(","),
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.capacity,
            cached,
            cache.shared_in_flight,
            leases.region_grants,
            leases.conflicts,
            leases.peak_concurrent,
            leases.live,
            latency_phases_json(&hists),
            time_to_grant.summary_json(),
            conflicted_waits,
            waits_consistent,
            trace_drops,
        );
    }

    write_trace_file(opts)?;
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
