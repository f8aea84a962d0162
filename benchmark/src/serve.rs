//! The `serve_mix` workload: in-process stencil-as-a-service.
//!
//! Two tenant threads share one session (machine, compiler, plan cache,
//! lease table), each through its own handle, one execute thread each.
//! The load is a closed loop: each tenant issues its next request as
//! soon as the previous one returns. A request is one statement from the
//! pool below, run on fresh input data:
//!
//! 1. scatter a seeded source buffer into the tenant's own X;
//! 2. compile the statement text;
//! 3. `run_with_multi` a few times (fast requests) or once
//!    (cycle-accurate requests, the `cmcc --serve` default mode);
//! 4. gather R to the host.
//!
//! Latency runs from step 1 to step 4. Each result is then compared bit
//! for bit, outside the timed interval, with `reference_convolve_multi`
//! (iterated `depth` times for temporal requests), precomputed per
//! statement and buffer before the run starts.
//!
//! The pool has ten plan keys, two more than the session's default
//! eight-entry plan cache, drawn with skew, so the cache hits, misses
//! and evicts. The coefficient arrays are filled once and shared
//! read-only by both tenants. A request is *cold* when its tenant built
//! the plan (the tenant thread's own `PlanCacheMisses` count moved);
//! the counters stay on during this workload's windows for that reason.

use crate::ceiling;
use crate::layers::{self, CompileCost, Traced};
use crate::speed::Speed;
use crate::stats::{self, bit_equal, median, quantile, ratio, Rng};
use crate::{Args, Outcome};
use cmcc::core::CoeffSpec;
use cmcc::obs::{self, trace, Counter};
use cmcc::runtime::{reference_convolve_multi, CoeffValue};
use cmcc::{
    CmArray, Compiler, ExecEngine, ExecOptions, MachineConfig, PaperPattern, Session, SessionError,
};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// 64×64 per node: 256² on the 16-node board.
const EDGE: usize = 64 * 4;
const TENANTS: usize = 2;
/// Distinct source buffers a tenant cycles through.
const BUFFERS: usize = 4;
/// Coefficient arrays shared by every request (the widest statement,
/// the 13-point diamond, names thirteen).
const SHARED_COEFFS: usize = 13;
const SETUP_REPEATS: usize = 25;
/// `run_with_multi` calls per fast request.
const FAST_ITERS: usize = 3;
/// Untimed requests before the first window, so the cache starts warm.
const WARMUP: Duration = Duration::from_millis(500);
/// Closed-loop time between two host-speed samples.
const SLICE: Duration = Duration::from_millis(250);
/// Traced requests per tenant per second of `--seconds`, and per chunk
/// (the recorder's rings are drained between chunks).
const TRACED_PER_SECOND: f64 = 20.0;
const TRACED_CHUNK: usize = 40;

const BLUR: &str = "R = 0.25 * CSHIFT(X, 1, -1) + 0.5 * X + 0.25 * CSHIFT(X, 1, +1)";

/// One statement of the pool.
struct Entry {
    name: &'static str,
    text: String,
    /// Cycle-accurate (scalar engine) instead of fast lane-resident.
    cycle: bool,
    depth: usize,
    /// Relative draw frequency.
    weight: u32,
    /// Coefficient arrays the statement names.
    named: usize,
    /// Expected result per source buffer.
    expected: Vec<Vec<f32>>,
}

impl Entry {
    fn opts(&self) -> ExecOptions {
        if self.cycle {
            ExecOptions::default().with_threads(1)
        } else {
            ExecOptions::fast()
                .with_engine(ExecEngine::Lockstep)
                .with_threads(1)
                .with_temporal_depth(self.depth)
        }
    }

    fn iters(&self) -> usize {
        if self.cycle {
            1
        } else {
            FAST_ITERS
        }
    }
}

fn fail(e: SessionError) -> String {
    e.to_string()
}

/// The seeded inputs: shared coefficients, the source buffers, and the
/// pool with every expected result.
struct Inputs {
    coeffs: Vec<Vec<f32>>,
    bufs: Vec<Vec<f32>>,
    pool: Vec<Entry>,
    /// The pool's draw weights, in pool order.
    weights: Vec<u32>,
}

fn inputs(seed: u64) -> Result<Inputs, String> {
    let n = EDGE * EDGE;
    let mut rng = Rng::new(seed);
    let coeffs: Vec<Vec<f32>> = (0..SHARED_COEFFS)
        .map(|_| rng.vec_f32(n, -0.5, 0.5))
        .collect();
    let bufs: Vec<Vec<f32>> = (0..BUFFERS).map(|_| rng.vec_f32(n, -1.0, 1.0)).collect();
    let patterns = [
        ("square9", PaperPattern::Square9.fortran(), 16),
        ("cross5", PaperPattern::Cross5.fortran(), 14),
        ("star9", PaperPattern::Star9.fortran(), 12),
        ("diamond13", PaperPattern::Diamond13.fortran(), 8),
        ("asym5", PaperPattern::Asymmetric5.fortran(), 6),
        ("heat5", crate::loops::HEAT.to_owned(), 14),
        ("blur1d", BLUR.to_owned(), 12),
    ];
    let mut spec: Vec<(&'static str, String, bool, usize, u32)> = patterns
        .into_iter()
        .map(|(name, text, w)| (name, text, false, 1, w))
        .collect();
    spec.push(("heat5_t2", crate::loops::HEAT.to_owned(), false, 2, 8));
    spec.push(("cross5_cycle", PaperPattern::Cross5.fortran(), true, 1, 5));
    spec.push(("blur1d_cycle", BLUR.to_owned(), true, 1, 5));

    let compiler = Compiler::new(MachineConfig::test_board_16());
    let mut pool = Vec::new();
    for (name, text, cycle, depth, weight) in spec {
        let compiled = compiler
            .compile_assignment(&text)
            .map_err(|e| format!("{name}: {e}"))?;
        let mut named = 0;
        let values: Vec<CoeffValue<'_>> = compiled
            .spec()
            .coeffs
            .iter()
            .map(|c| match c {
                CoeffSpec::Named(_) => {
                    named += 1;
                    CoeffValue::Array(&coeffs[named - 1])
                }
                CoeffSpec::Literal(v) => CoeffValue::Literal(*v),
            })
            .collect();
        let expected = bufs
            .iter()
            .map(|b| {
                let mut want =
                    reference_convolve_multi(compiled.stencil(), EDGE, EDGE, &[b], &values);
                for _ in 1..depth {
                    want =
                        reference_convolve_multi(compiled.stencil(), EDGE, EDGE, &[&want], &values);
                }
                want
            })
            .collect();
        pool.push(Entry {
            name,
            text,
            cycle,
            depth,
            weight,
            named,
            expected,
        });
    }
    let weights = pool.iter().map(|e| e.weight).collect();
    Ok(Inputs {
        coeffs,
        bufs,
        pool,
        weights,
    })
}

/// One tenant: a session handle, its own X and R, and its request
/// generator.
struct Tenant {
    session: Session,
    x: CmArray,
    r: CmArray,
    rng: Rng,
    next_buf: usize,
}

impl Tenant {
    /// Restarts the tenant's request sequence: the same `(seed, tenant,
    /// window)` always draws the same requests.
    fn reseed(&mut self, seed: u64, tenant: usize, window: u64) {
        self.rng = Rng::new(seed ^ (0xA5A5_0000 + tenant as u64) ^ (window << 32));
        self.next_buf = tenant;
    }
}

/// The shared session's arrays: coefficients plus each tenant's own.
struct Served {
    root: Session,
    coeffs: Vec<CmArray>,
    tenants: Vec<Tenant>,
}

/// One timed set-up: the session, every array, and the input fill.
fn setup(inp: &Inputs, seed: u64) -> Result<(Served, f64), String> {
    let t0 = Instant::now();
    let mut root = Session::test_board().map_err(fail)?;
    let mut coeffs = Vec::new();
    for data in &inp.coeffs {
        let a = root.array(EDGE, EDGE).map_err(fail)?;
        a.scatter(&mut root.machine_mut(), data);
        coeffs.push(a);
    }
    let mut tenants = Vec::new();
    for i in 0..TENANTS {
        let mut session = root.clone();
        let x = session.array(EDGE, EDGE).map_err(fail)?;
        let r = session.array(EDGE, EDGE).map_err(fail)?;
        x.scatter(&mut session.machine_mut(), &inp.bufs[0]);
        tenants.push(Tenant {
            session,
            x,
            r,
            rng: Rng::new(0),
            next_buf: 0,
        });
        tenants[i].reseed(seed, i, 0);
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok((
        Served {
            root,
            coeffs,
            tenants,
        },
        secs,
    ))
}

/// One served request: its pool entry, latency, and whether its tenant
/// built the plan.
#[derive(Debug, Clone, Copy)]
struct Req {
    entry: usize,
    ms: f64,
    cold: bool,
}

/// What one tenant's requests recorded.
#[derive(Debug, Default)]
struct Log {
    requests: Vec<Req>,
    step_us: Vec<f64>,
    useful_flops: u64,
    calls: u64,
    steps: u64,
    call_ns: u64,
    cost: CompileCost,
    scatter_ns: u64,
    gather_ns: u64,
    /// Cycle-accurate calls of warm requests: modelled cycles and host
    /// nanoseconds.
    sim_cycles: u64,
    sim_ns: u64,
    attempted: u64,
    failures: Vec<String>,
}

impl Log {
    fn merge(&mut self, o: Log) {
        self.requests.extend(o.requests);
        self.step_us.extend(o.step_us);
        self.useful_flops += o.useful_flops;
        self.calls += o.calls;
        self.steps += o.steps;
        self.call_ns += o.call_ns;
        self.cost.parse_ns += o.cost.parse_ns;
        self.cost.parses += o.cost.parses;
        self.cost.compile_ns += o.cost.compile_ns;
        self.cost.compiles += o.cost.compiles;
        self.scatter_ns += o.scatter_ns;
        self.gather_ns += o.gather_ns;
        self.sim_cycles += o.sim_cycles;
        self.sim_ns += o.sim_ns;
        self.attempted += o.attempted;
        self.failures.extend(o.failures);
    }

    fn lat_ms(&self) -> Vec<f64> {
        self.requests.iter().map(|r| r.ms).collect()
    }

    fn cold_ms(&self) -> Vec<f64> {
        self.requests
            .iter()
            .filter(|r| r.cold)
            .map(|r| r.ms)
            .collect()
    }

    /// Request share and latency quartiles per statement, cold requests
    /// as their own class, for the run's log.
    fn describe(&self, pool: &[Entry]) -> String {
        let mut s = String::new();
        let n = self.requests.len().max(1) as f64;
        let classes = pool.iter().enumerate().map(|(i, e)| (e.name, Some(i)));
        for (name, idx) in classes.chain([("cold", None)]) {
            let ms: Vec<f64> = self
                .requests
                .iter()
                .filter(|r| match idx {
                    Some(i) => r.entry == i && !r.cold,
                    None => r.cold,
                })
                .map(|r| r.ms)
                .collect();
            s.push_str(&format!(
                "\n  {name:<13} {:5.1}%  ms p25 {:7.3}  p50 {:7.3}  p75 {:7.3}",
                100.0 * ms.len() as f64 / n,
                quantile(&ms, 0.25),
                median(&ms),
                quantile(&ms, 0.75)
            ));
        }
        s
    }

    fn record(&mut self, out: &mut Outcome) {
        out.attempted += self.attempted;
        out.failed += self.failures.len() as u64;
        out.errors.append(&mut self.failures);
    }
}

/// Serves one request; see the module docs for its steps.
fn request(t: &mut Tenant, inp: &Inputs, coeffs: &[CmArray], traced: bool, log: &mut Log) {
    let index = t.rng.weighted(&inp.weights);
    let entry = &inp.pool[index];
    let buf = t.next_buf;
    t.next_buf = (t.next_buf + 1) % BUFFERS;
    log.attempted += 1;
    if traced {
        let tp = Instant::now();
        if let Err(e) = cmcc::front::parse_assignment(&entry.text) {
            log.failures.push(format!("{}: {e}", entry.name));
            return;
        }
        log.cost.parse_ns += tp.elapsed().as_nanos() as u64;
        log.cost.parses += 1;
    }
    let misses = obs::thread_snapshot().get(Counter::PlanCacheMisses);
    let t0 = Instant::now();
    t.x.scatter(&mut t.session.machine_mut(), &inp.bufs[buf]);
    let t1 = Instant::now();
    let compiled = match t.session.compile(&entry.text) {
        Ok(c) => c,
        Err(e) => return log.failures.push(format!("{}: {e}", entry.name)),
    };
    let t2 = Instant::now();
    let refs: Vec<&CmArray> = coeffs[..entry.named].iter().collect();
    let opts = entry.opts();
    let (mut sim_cycles, mut sim_ns) = (0, 0);
    for _ in 0..entry.iters() {
        let tc = Instant::now();
        let m = match t
            .session
            .run_with_multi(&compiled, &t.r, &[&t.x], &refs, &opts)
        {
            Ok(m) => m,
            Err(e) => return log.failures.push(format!("{}: {e}", entry.name)),
        };
        let ns = tc.elapsed().as_nanos() as u64;
        log.step_us.push(ns as f64 / 1e3 / entry.depth as f64);
        log.call_ns += ns;
        log.calls += 1;
        log.steps += entry.depth as u64;
        log.useful_flops += m.useful_flops;
        if entry.cycle {
            sim_cycles += m.cycles.total();
            sim_ns += ns;
        }
    }
    let t3 = Instant::now();
    let got = t.r.gather(&t.session.machine());
    let t4 = Instant::now();
    let lat_ms = (t4 - t0).as_secs_f64() * 1e3;
    let cold = obs::thread_snapshot().get(Counter::PlanCacheMisses) > misses;
    log.requests.push(Req {
        entry: index,
        ms: lat_ms,
        cold,
    });
    if !cold {
        log.sim_cycles += sim_cycles;
        log.sim_ns += sim_ns;
    }
    log.scatter_ns += (t1 - t0).as_nanos() as u64;
    log.cost.compile_ns += (t2 - t1).as_nanos() as u64;
    log.cost.compiles += 1;
    log.gather_ns += (t4 - t3).as_nanos() as u64;

    // Verification, outside the timed interval.
    let depth = t.session.last_plan().map_or(1, |p| p.temporal_depth());
    if depth != entry.depth {
        log.failures.push(format!(
            "{}: plan runs depth {depth}, expected {}",
            entry.name, entry.depth
        ));
    } else if !bit_equal(&got, &entry.expected[buf]) {
        log.failures.push(format!(
            "{}: result diverges from the reference evaluator",
            entry.name
        ));
    }
}

fn join<T>(h: std::thread::ScopedJoinHandle<'_, T>) -> Result<T, String> {
    h.join().map_err(|_| "a tenant thread panicked".to_owned())
}

/// Runs the closed loop on every tenant for `window`, in slices of
/// `SLICE`: between two slices the tenants pause while the driving thread
/// times the host-speed reference on as many threads. Returns the merged
/// log and the slices' wall time in seconds.
fn timed_window(
    s: &mut Served,
    inp: &Inputs,
    window: Duration,
    speed: &mut Speed,
) -> Result<(Log, f64), String> {
    let slices = window.as_secs_f64() / SLICE.as_secs_f64();
    let slices = (slices.ceil() as usize).max(1);
    let slice = window / slices as u32;
    let barrier = Barrier::new(s.tenants.len() + 1);
    let coeffs = &s.coeffs;
    let mut wall = Duration::ZERO;
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .tenants
            .iter_mut()
            .map(|t| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut log = Log::default();
                    for _ in 0..slices {
                        barrier.wait();
                        let until = Instant::now() + slice;
                        while Instant::now() < until {
                            request(t, inp, coeffs, false, &mut log);
                        }
                        barrier.wait();
                    }
                    log
                })
            })
            .collect();
        for _ in 0..slices {
            barrier.wait();
            let start = Instant::now();
            barrier.wait();
            wall += start.elapsed();
            speed.sample(TENANTS);
        }
        handles.into_iter().map(join).collect::<Result<Vec<_>, _>>()
    })?;
    let mut log = Log::default();
    for l in logs {
        log.merge(l);
    }
    Ok((log, wall.as_secs_f64()))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let inp = inputs(args.seed)?;
    let mut out = Outcome::default();
    obs::set_enabled(true);
    if args.trace {
        return traced(args, &inp, out);
    }
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let (s, secs) = setup(&inp, args.seed)?;
        setups.push(secs);
        kept = Some(s);
    }
    let mut s = kept.expect("at least one set-up");
    let (mut warm, _) = timed_window(&mut s, &inp, WARMUP, &mut Speed::default())?;
    warm.record(&mut out);
    let mut speed = Speed::default();
    let window = Duration::from_secs_f64(args.seconds);
    let (mut log, wall_s) = timed_window(&mut s, &inp, window, &mut speed)?;
    log.record(&mut out);
    check_drained(&s.root, &mut out);
    println!(
        "timed: {} requests, {} run calls in {wall_s:.3} s over {TENANTS} tenants; \
         raw stmt p50 {:.3} ms{}\n{}",
        log.requests.len(),
        log.calls,
        median(&log.lat_ms()),
        log.describe(&inp.pool),
        speed.describe()
    );
    out.set("step_us_p50", speed.time(median(&log.step_us)));
    out.set("step_us_p90", speed.time(quantile(&log.step_us, 0.9)));
    out.set(
        "useful_gflops",
        speed.rate(log.useful_flops as f64 / (wall_s * 1e9)),
    );
    out.set("stmt_ms_p50", speed.time(median(&log.lat_ms())));
    out.set("stmt_ms_p90", speed.time(quantile(&log.lat_ms(), 0.9)));
    out.set("cold_stmt_ms_p50", speed.time(median(&log.cold_ms())));
    out.set(
        "stmts_per_s",
        speed.rate(ratio(log.requests.len() as f64, wall_s)),
    );
    out.set("setup_s", speed.time(median(&setups)));
    Ok(out)
}

/// Every lease must be released once the tenants are idle.
fn check_drained(root: &Session, out: &mut Outcome) {
    let leases = root.lease_stats();
    out.check(leases.live == 0 && leases.queued == 0, || {
        format!(
            "{} leases live, {} queued after the tenants drained",
            leases.live, leases.queued
        )
    });
}

/// The traced run: host ceilings, the modelled rate of the pool's
/// cycle-accurate statements, an untraced window for the tracing
/// overhead, then a fixed number of traced requests per tenant.
fn traced(args: &Args, inp: &Inputs, mut out: Outcome) -> Result<Outcome, String> {
    let (mut s, _) = setup(inp, args.seed)?;
    let working_set = (2 * TENANTS + SHARED_COEFFS) * EDGE * EDGE * 4;
    let ceilings = ceiling::measure(working_set, stats::llc_bytes());
    println!("{}", ceilings.describe());
    model_probe(&mut s, inp, &mut out)?;

    let (mut warm, _) = timed_window(&mut s, inp, WARMUP, &mut Speed::default())?;
    warm.record(&mut out);
    let untraced_window = Duration::from_secs_f64(args.seconds * 0.3);
    let (mut untraced, _) = timed_window(&mut s, inp, untraced_window, &mut Speed::default())?;
    untraced.record(&mut out);

    let per_tenant = ((args.seconds * TRACED_PER_SECOND) as usize).max(TRACED_CHUNK);
    let chunks = per_tenant.div_ceil(TRACED_CHUNK);
    // A fixed request sequence, so the counts that do not depend on
    // tenant interleaving repeat exactly for the same seed.
    for (i, tenant) in s.tenants.iter_mut().enumerate() {
        tenant.reseed(args.seed, i, 1);
    }
    let leases0 = s.root.lease_stats();
    let cache0 = s.root.plan_cache_stats();
    let mut t = Traced::default();
    let before = obs::snapshot();
    trace::reset_trace();
    trace::set_trace_enabled(true);
    let barrier = Barrier::new(s.tenants.len() + 1);
    let coeffs = &s.coeffs;
    let mut collected: Result<(), String> = Ok(());
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .tenants
            .iter_mut()
            .enumerate()
            .map(|(i, tenant)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    trace::set_thread_label(&format!("tenant-{i}"));
                    let mut log = Log::default();
                    for _ in 0..chunks {
                        for _ in 0..TRACED_CHUNK {
                            request(tenant, inp, coeffs, true, &mut log);
                        }
                        // Pause while the driving thread drains the rings.
                        barrier.wait();
                        barrier.wait();
                    }
                    log
                })
            })
            .collect();
        for _ in 0..chunks {
            barrier.wait();
            t.drops += trace::total_drops();
            for th in trace::threads() {
                if th.label.starts_with("tenant-") && collected.is_ok() {
                    collected = t.window.add_thread(&th.events, |_| true).map(drop);
                }
            }
            trace::reset_trace();
            barrier.wait();
        }
        handles.into_iter().map(join).collect::<Result<Vec<_>, _>>()
    })?;
    trace::set_trace_enabled(false);
    collected?;
    let delta = obs::snapshot().delta(&before);
    let mut log = Log::default();
    for l in logs {
        log.merge(l);
    }
    log.record(&mut out);
    check_drained(&s.root, &mut out);
    out.check(t.window.ledger.executes == log.calls, || {
        format!(
            "{} execute slices for {} run calls",
            t.window.ledger.executes, log.calls
        )
    });

    let leases1 = s.root.lease_stats();
    let cache1 = s.root.plan_cache_stats();
    t.per_step = delta;
    t.whole = delta;
    t.steps = log.steps as f64;
    t.ledger_call_ns = log.call_ns;
    t.calls = log.calls;
    t.stmts = log.requests.len() as u64;
    t.region_grants = leases1.region_grants - leases0.region_grants;
    t.conflicts = leases1.conflicts - leases0.conflicts;
    t.peak_concurrent = leases1.peak_concurrent;
    t.cache_hits = cache1.hits - cache0.hits;
    t.cache_misses = cache1.misses - cache0.misses;
    t.evictions = cache1.evictions - cache0.evictions;
    t.scatter_ns = log.scatter_ns;
    t.gather_ns = log.gather_ns;
    println!(
        "traced: {} requests ({} cold), {} run calls; counts that depend on tenant \
         interleaving: words, exchanges, mirror allocations and pool misses, cache and lease figures",
        t.stmts,
        log.cold_ms().len(),
        t.calls
    );
    layers::emit(&mut out, &t, &ceilings);
    layers::emit_compile(&mut out, &log.cost, &delta);
    out.set(
        "sim.cycles_per_host_s",
        ratio(log.sim_cycles as f64, log.sim_ns as f64 / 1e9),
    );
    out.set(
        "obs.trace_overhead_frac",
        ratio(median(&log.lat_ms()), median(&untraced.lat_ms())) - 1.0,
    );
    obs::set_enabled(false);
    Ok(out)
}

/// The modelled CM-2 rate of each cycle-accurate pool statement,
/// extrapolated to 2,048 nodes, averaged over those statements. Exact,
/// and labelled as a model: it says nothing about the host.
fn model_probe(s: &mut Served, inp: &Inputs, out: &mut Outcome) -> Result<(), String> {
    let t = &mut s.tenants[0];
    let mut rates = Vec::new();
    for entry in inp.pool.iter().filter(|e| e.cycle) {
        let compiled = t.session.compile(&entry.text).map_err(fail)?;
        let refs: Vec<&CmArray> = s.coeffs[..entry.named].iter().collect();
        let m = t
            .session
            .run_with_multi(&compiled, &t.r, &[&t.x], &refs, &entry.opts())
            .map_err(fail)?;
        let got = t.r.gather(&t.session.machine());
        out.check(bit_equal(&got, &entry.expected[0]), || {
            format!(
                "{}: cycle-accurate result diverges from the reference evaluator",
                entry.name
            )
        });
        rates.push(m.extrapolate(2048).gflops(t.session.config()));
    }
    let model = stats::mean(&rates);
    println!("sim: modelled {model} Gflop/s at 2048 nodes (mean of {rates:?})");
    out.set("sim.model_gflops_2048", model);
    Ok(())
}
