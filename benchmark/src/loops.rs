//! The time-loop workloads, `steady_loop` and `heat_fused`.
//!
//! One `Session` handle ping-pongs X↔R through `run_with_multi`. The
//! timed window is a sequence of *rounds*: each round is one statement
//! in a time-loop application — scatter the seeded initial state into X,
//! compile the statement text (a plan-cache hit), advance a fixed number
//! of executes, gather the final state. Every round starts from the same
//! state, so every round's final state must equal the scalar-engine
//! oracle's bit for bit.
//!
//! A step sample is one outside-timed `run_with_multi` call divided by
//! the plan's fused depth. The first call of a round re-primes the lane
//! mirror after the host write and is left out of the step samples; it
//! is part of the round's statement latency. The window is cut into
//! equal slices, each starting from a fresh timed set-up, and the
//! host-speed reference is timed after every round.

use crate::ceiling;
use crate::layers::{self, CompileCost, Traced};
use crate::ledger::Window;
use crate::speed::Speed;
use crate::stats::{self, bit_equal, checksum, median, quantile, ratio, Rng};
use crate::{Args, Outcome};
use cmcc::obs::{self, trace, RunReport};
use cmcc::{CmArray, ExecEngine, ExecOptions, PaperPattern, Session, SessionError};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-node subgrid edge: 128×128 per node, 512² on the 4×4 board.
const SUBGRID: usize = 128;
const BOARD_EDGE: usize = 4;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 61;
/// Label of the thread that drives the loop, to find its trace ring.
const MAIN_LABEL: &str = "bench-main";

/// The all-literal five-point heat statement (zero-filled edges).
pub const HEAT: &str = "T_NEXT = 0.2 * EOSHIFT(T, DIM=1, SHIFT=-1) \
                        + 0.2 * EOSHIFT(T, DIM=2, SHIFT=-1) + 0.2 * T \
                        + 0.2 * EOSHIFT(T, DIM=2, SHIFT=+1) \
                        + 0.2 * EOSHIFT(T, DIM=1, SHIFT=+1)";

/// One time-loop workload.
#[derive(Debug, Clone)]
pub struct LoopSpec {
    statement: String,
    /// Coefficient arrays the statement names.
    named_coeffs: usize,
    /// Time steps fused per execute.
    depth: usize,
    /// Executes per round.
    round_executes: usize,
    /// Leading executes compared one by one against the oracle.
    prefix_executes: usize,
}

impl LoopSpec {
    pub fn steady_loop() -> Self {
        LoopSpec {
            statement: PaperPattern::Square9.fortran(),
            named_coeffs: 9,
            depth: 1,
            round_executes: 12,
            prefix_executes: 4,
        }
    }

    pub fn heat_fused() -> Self {
        LoopSpec {
            statement: HEAT.to_owned(),
            named_coeffs: 0,
            depth: 4,
            round_executes: 8,
            prefix_executes: 2,
        }
    }

    /// Fast lane-resident lockstep on one execute thread. On a 2-vCPU
    /// guest a sweep split over both vCPUs waits at every barrier for
    /// whichever vCPU the host has paused: `heat_fused` on two threads
    /// swung 2.4× in step time between runs of the same code.
    fn fast_opts(&self) -> ExecOptions {
        ExecOptions::fast()
            .with_engine(ExecEngine::Lockstep)
            .with_threads(1)
            .with_temporal_depth(self.depth)
    }
}

fn fail(e: SessionError) -> String {
    e.to_string()
}

/// Seeded inputs: a positive initial state and, per point, positive
/// taps that sum to one, so the iterated values stay normal `f32`.
struct Inputs {
    x0: Vec<f32>,
    coeffs: Vec<Vec<f32>>,
}

const EDGE: usize = SUBGRID * BOARD_EDGE;

fn inputs(spec: &LoopSpec, seed: u64) -> Inputs {
    let n = EDGE * EDGE;
    let mut rng = Rng::new(seed);
    let x0 = rng.vec_f32(n, 1.0, 2.0);
    let mut coeffs = vec![Vec::with_capacity(n); spec.named_coeffs];
    let mut taps = vec![0.0f32; spec.named_coeffs];
    for _ in 0..n {
        for t in taps.iter_mut() {
            *t = rng.f32_in(0.5, 1.5);
        }
        let sum: f32 = taps.iter().sum();
        for (c, t) in coeffs.iter_mut().zip(&taps) {
            c.push(t / sum);
        }
    }
    Inputs { x0, coeffs }
}

/// A session with the workload's arrays bound and filled.
struct Loop {
    session: Session,
    x: CmArray,
    r: CmArray,
    coeffs: Vec<CmArray>,
    opts: ExecOptions,
}

fn arrays(inp: &Inputs, opts: ExecOptions) -> Result<Loop, String> {
    let mut session = Session::test_board().map_err(fail)?;
    let x = session.array(EDGE, EDGE).map_err(fail)?;
    let r = session.array(EDGE, EDGE).map_err(fail)?;
    let coeffs = inp
        .coeffs
        .iter()
        .map(|_| session.array(EDGE, EDGE))
        .collect::<Result<Vec<_>, _>>()
        .map_err(fail)?;
    {
        let mut m = session.machine_mut();
        x.scatter(&mut m, &inp.x0);
        for (a, data) in coeffs.iter().zip(&inp.coeffs) {
            a.scatter(&mut m, data);
        }
    }
    Ok(Loop {
        session,
        x,
        r,
        coeffs,
        opts,
    })
}

struct SetUp {
    lp: Loop,
    setup_s: f64,
    cold_ms: f64,
    first: Vec<f32>,
}

/// One timed set-up: session, arrays and input fill, then the statement
/// from text to first result (compile, plan build, priming execute,
/// gather).
fn setup(spec: &LoopSpec, inp: &Inputs) -> Result<SetUp, String> {
    let t0 = Instant::now();
    let mut lp = arrays(inp, spec.fast_opts())?;
    let t1 = Instant::now();
    let compiled = lp.session.compile(&spec.statement).map_err(fail)?;
    let refs: Vec<&CmArray> = lp.coeffs.iter().collect();
    lp.session
        .run_with_multi(&compiled, &lp.r, &[&lp.x], &refs, &lp.opts)
        .map_err(fail)?;
    let t2 = Instant::now();
    let first = lp.r.gather(&lp.session.machine());
    let t3 = Instant::now();
    let depth = lp.session.last_plan().map(|p| p.temporal_depth());
    if depth != Some(spec.depth) {
        return Err(format!(
            "plan runs depth {depth:?}, workload needs {} ({:?})",
            spec.depth,
            lp.session.last_plan().and_then(|p| p.temporal_fallback())
        ));
    }
    Ok(SetUp {
        lp,
        setup_s: (t2 - t0).as_secs_f64(),
        cold_ms: (t3 - t1).as_secs_f64() * 1e3,
        first,
    })
}

/// The scalar engine's states: after each of the first
/// `prefix_executes` executes, and after a whole round.
struct Oracle {
    prefix: Vec<Vec<f32>>,
    round: Vec<f32>,
}

fn oracle(spec: &LoopSpec, inp: &Inputs) -> Result<Oracle, String> {
    let scalar = ExecOptions::fast()
        .with_engine(ExecEngine::Scalar)
        .with_threads(1);
    let mut lp = arrays(inp, scalar)?;
    let compiled = lp.session.compile(&spec.statement).map_err(fail)?;
    let refs: Vec<&CmArray> = lp.coeffs.iter().collect();
    let (mut cur, mut nxt) = (lp.x, lp.r);
    let mut prefix = Vec::new();
    for step in 1..=spec.round_executes * spec.depth {
        lp.session
            .run_with_multi(&compiled, &nxt, &[&cur], &refs, &lp.opts)
            .map_err(fail)?;
        std::mem::swap(&mut cur, &mut nxt);
        if step % spec.depth == 0 && step / spec.depth <= spec.prefix_executes {
            prefix.push(cur.gather(&lp.session.machine()));
        }
    }
    let round = cur.gather(&lp.session.machine());
    Ok(Oracle { prefix, round })
}

/// Compares the executes after set-up with the oracle one by one, and
/// the copy words they moved with the plan's analytic rebind-cycle
/// model.
fn verify(
    spec: &LoopSpec,
    s: &mut SetUp,
    oracle: &Oracle,
    out: &mut Outcome,
) -> Result<(), String> {
    out.check(bit_equal(&s.first, &oracle.prefix[0]), || {
        "execute 1 diverges from the scalar oracle".to_owned()
    });
    let lp = &mut s.lp;
    let compiled = lp.session.compile(&spec.statement).map_err(fail)?;
    let refs: Vec<&CmArray> = lp.coeffs.iter().collect();
    let (mut cur, mut nxt) = (lp.r, lp.x);
    obs::set_enabled(true);
    let before = obs::snapshot();
    for e in 2..=spec.prefix_executes {
        lp.session
            .run_with_multi(&compiled, &nxt, &[&cur], &refs, &lp.opts)
            .map_err(fail)?;
        std::mem::swap(&mut cur, &mut nxt);
        let got = cur.gather(&lp.session.machine());
        out.check(bit_equal(&got, &oracle.prefix[e - 1]), || {
            format!("execute {e} diverges from the scalar oracle")
        });
    }
    let observed = obs::snapshot().delta(&before).copy_words();
    obs::set_enabled(false);
    let per_cycle = lp
        .session
        .last_plan()
        .map_or(0, |p| p.rebind_cycle_copy_words()) as u64;
    let predicted = (spec.prefix_executes as u64 - 1) * per_cycle;
    out.check(observed == predicted, || {
        format!("copy words {observed} observed, rebind-cycle model predicts {predicted}")
    });
    println!(
        "verified: {} executes bit-exact against the scalar oracle; copy words {observed} == model; \
         prefix checksum {:016x}, round checksum {:016x}",
        spec.prefix_executes,
        checksum(oracle.prefix.last().expect("prefix is not empty")),
        checksum(&oracle.round),
    );
    Ok(())
}

/// One statement of the time loop.
struct Round {
    call_ns: Vec<u64>,
    flops: Vec<u64>,
    stmt_ns: u64,
    scatter_ns: u64,
    gather_ns: u64,
    out: Vec<f32>,
}

fn round(
    spec: &LoopSpec,
    lp: &mut Loop,
    x0: &[f32],
    mut after_call: impl FnMut(usize),
) -> Result<Round, String> {
    let t0 = Instant::now();
    lp.x.scatter(&mut lp.session.machine_mut(), x0);
    let scatter_ns = t0.elapsed().as_nanos() as u64;
    let compiled = lp.session.compile(&spec.statement).map_err(fail)?;
    let refs: Vec<&CmArray> = lp.coeffs.iter().collect();
    let (mut cur, mut nxt) = (lp.x, lp.r);
    let mut call_ns = Vec::with_capacity(spec.round_executes);
    let mut flops = Vec::with_capacity(spec.round_executes);
    for e in 0..spec.round_executes {
        let t = Instant::now();
        let m = lp
            .session
            .run_with_multi(&compiled, &nxt, &[&cur], &refs, &lp.opts)
            .map_err(fail)?;
        call_ns.push(t.elapsed().as_nanos() as u64);
        flops.push(m.useful_flops);
        std::mem::swap(&mut cur, &mut nxt);
        after_call(e);
    }
    let tg = Instant::now();
    let out = cur.gather(&lp.session.machine());
    let gather_ns = tg.elapsed().as_nanos() as u64;
    Ok(Round {
        call_ns,
        flops,
        stmt_ns: t0.elapsed().as_nanos() as u64,
        scatter_ns,
        gather_ns,
        out,
    })
}

/// Samples of untraced rounds.
#[derive(Default)]
struct Timed {
    step_us: Vec<f64>,
    stmt_ms: Vec<f64>,
    step_ns: u64,
    flops: u64,
    rounds: u64,
    wall_s: f64,
    speed: Speed,
}

/// Runs rounds until `until` (at least one), checking each round's final
/// state and timing the host-speed reference after each.
fn timed(
    spec: &LoopSpec,
    lp: &mut Loop,
    inp: &Inputs,
    oracle: &Oracle,
    until: Instant,
    t: &mut Timed,
    out: &mut Outcome,
) -> Result<(), String> {
    let start = Instant::now();
    loop {
        let r = round(spec, lp, &inp.x0, |_| {})?;
        for (&ns, &f) in r.call_ns.iter().zip(&r.flops).skip(1) {
            t.step_us.push(ns as f64 / 1e3 / spec.depth as f64);
            t.step_ns += ns;
            t.flops += f;
        }
        t.stmt_ms.push(r.stmt_ns as f64 / 1e6);
        t.rounds += 1;
        out.check(bit_equal(&r.out, &oracle.round), || {
            format!(
                "round {} final state diverges from the scalar oracle",
                t.rounds
            )
        });
        t.speed.sample(1);
        if Instant::now() >= until {
            break;
        }
    }
    t.wall_s += start.elapsed().as_secs_f64();
    Ok(())
}

/// The untraced run: `SETUP_REPEATS` slices of the window, each a fresh
/// set-up followed by rounds, so the set-up samples spread over the
/// whole run like the step samples do.
pub fn run(spec: &LoopSpec, args: &Args) -> Result<Outcome, String> {
    let inp = inputs(spec, args.seed);
    let oracle = oracle(spec, &inp)?;
    let mut out = Outcome::default();
    if args.trace {
        return traced(spec, args, &inp, &oracle, out);
    }
    let mut setups = Vec::new();
    let mut colds = Vec::new();
    let mut t = Timed::default();
    let slice = Duration::from_secs_f64(args.seconds) / SETUP_REPEATS as u32;
    let start = Instant::now();
    for i in 0..SETUP_REPEATS {
        let mut s = setup(spec, &inp)?;
        setups.push(s.setup_s);
        colds.push(s.cold_ms);
        if i == 0 {
            verify(spec, &mut s, &oracle, &mut out)?;
        } else {
            out.check(bit_equal(&s.first, &oracle.prefix[0]), || {
                format!("set-up {}: execute 1 diverges from the scalar oracle", i + 1)
            });
        }
        let until = start + slice * (i as u32 + 1);
        timed(spec, &mut s.lp, &inp, &oracle, until, &mut t, &mut out)?;
    }
    println!(
        "timed: {} rounds of {} executes (depth {}, 1 thread), {} step samples, \
         {SETUP_REPEATS} set-ups; raw step p50 {:.1} us, raw set-up p50 {:.4} s\n{}",
        t.rounds,
        spec.round_executes,
        spec.depth,
        t.step_us.len(),
        median(&t.step_us),
        median(&setups),
        t.speed.describe()
    );
    let speed = &t.speed;
    out.set("step_us_p50", speed.time(median(&t.step_us)));
    out.set("step_us_p90", speed.time(quantile(&t.step_us, 0.9)));
    out.set(
        "useful_gflops",
        speed.rate(ratio(t.flops as f64, t.step_ns as f64)),
    );
    out.set("stmt_ms_p50", speed.time(median(&t.stmt_ms)));
    out.set("stmt_ms_p90", speed.time(quantile(&t.stmt_ms, 0.9)));
    out.set("cold_stmt_ms_p50", speed.time(median(&colds)));
    out.set("stmts_per_s", speed.rate(ratio(t.rounds as f64, t.wall_s)));
    out.set("setup_s", speed.time(median(&setups)));
    Ok(out)
}

/// Counter deltas that must repeat exactly from round to round.
fn exact_counts(r: &RunReport) -> Vec<u64> {
    use cmcc::obs::Counter;
    [
        Counter::ExchangeEdgeWords,
        Counter::ExchangeCornerWords,
        Counter::InteriorRefreshWords,
        Counter::GatherWords,
        Counter::ScatterWords,
        Counter::HaloExchanges,
        Counter::KernelizedSteps,
        Counter::LockstepSteps,
        Counter::UsefulFlops,
        Counter::TotalFlops,
        Counter::MirrorAllocations,
    ]
    .iter()
    .map(|&c| r.get(c))
    .collect()
}

/// The traced run: set-up with the recorder on (plan build), host
/// ceilings, a cycle-accurate probe, compile probes, an untraced window
/// for the tracing overhead, then traced rounds.
fn traced(
    spec: &LoopSpec,
    args: &Args,
    inp: &Inputs,
    oracle: &Oracle,
    mut out: Outcome,
) -> Result<Outcome, String> {
    trace::set_thread_label(MAIN_LABEL);
    obs::set_enabled(true);
    trace::set_trace_enabled(true);
    trace::reset_trace();
    let mut s = setup(spec, inp)?;
    trace::set_trace_enabled(false);
    obs::set_enabled(false);
    // Only the plan build is taken from the set-up's trace.
    let mut set_up = Window::default();
    for thread in trace::threads() {
        set_up.add_thread(&thread.events, |_| false)?;
    }
    let mut t = Traced {
        drops: trace::total_drops(),
        ..Traced::default()
    };
    verify(spec, &mut s, oracle, &mut out)?;

    let working_set = (2 + spec.named_coeffs) * EDGE * EDGE * 4;
    let ceilings = ceiling::measure(working_set, stats::llc_bytes());
    println!("{}", ceilings.describe());
    sim_probe(spec, &mut s.lp, &mut out)?;
    compile_probe(spec, &s.lp.session, &mut out)?;

    let mut untraced = Timed::default();
    let until = Instant::now() + Duration::from_secs_f64(args.seconds * 0.3);
    timed(spec, &mut s.lp, inp, oracle, until, &mut untraced, &mut out)?;

    let lp = &mut s.lp;
    let leases0 = lp.session.lease_stats();
    let cache0 = lp.session.plan_cache_stats();
    let mut traced_steps_us = Vec::new();
    let mut reference_counts: Option<Vec<u64>> = None;
    let window = Duration::from_secs_f64(args.seconds * 0.5);
    let start = Instant::now();
    obs::set_enabled(true);
    trace::set_trace_enabled(true);
    let per_cycle = lp
        .session
        .last_plan()
        .map_or(0, |p| p.rebind_cycle_copy_words()) as u64;
    while t.stmts == 0 || start.elapsed() < window {
        trace::reset_trace();
        let s0 = obs::snapshot();
        let mut s1 = s0;
        let r = round(spec, lp, &inp.x0, |e| {
            if e == 0 {
                s1 = obs::snapshot();
            }
        })?;
        let s2 = obs::snapshot();
        t.drops += trace::total_drops();
        let steady = s2.delta(&s1);
        let whole = s2.delta(&s0);
        t.per_step = t.per_step.merge(&steady);
        t.whole = t.whole.merge(&whole);
        let main = trace::threads()
            .into_iter()
            .find(|th| th.label == MAIN_LABEL)
            .ok_or("the driving thread recorded no events")?;
        let executes = t.window.add_thread(&main.events, |k| k > 0)?;
        out.check(executes == spec.round_executes, || {
            format!(
                "{executes} execute slices for {} calls",
                spec.round_executes
            )
        });
        for &ns in &r.call_ns[1..] {
            traced_steps_us.push(ns as f64 / 1e3 / spec.depth as f64);
            t.ledger_call_ns += ns;
        }
        t.steps += ((spec.round_executes - 1) * spec.depth) as f64;
        t.calls += spec.round_executes as u64;
        t.stmts += 1;
        t.scatter_ns += r.scatter_ns;
        t.gather_ns += r.gather_ns;
        out.check(bit_equal(&r.out, &oracle.round), || {
            "traced round diverges from the scalar oracle".to_owned()
        });
        let predicted = (spec.round_executes as u64 - 1) * per_cycle;
        out.check(steady.copy_words() == predicted, || {
            format!(
                "traced round moved {} copy words, the rebind-cycle model predicts {predicted}",
                steady.copy_words()
            )
        });
        let counts = exact_counts(&steady);
        let reference = reference_counts.get_or_insert_with(|| counts.clone());
        out.check(*reference == counts, || {
            format!("per-round counts {counts:?} differ from the first round's {reference:?}")
        });
    }
    trace::set_trace_enabled(false);
    obs::set_enabled(false);
    trace::reset_trace();

    let leases1 = lp.session.lease_stats();
    let cache1 = lp.session.plan_cache_stats();
    t.region_grants = leases1.region_grants - leases0.region_grants;
    t.conflicts = leases1.conflicts - leases0.conflicts;
    t.peak_concurrent = leases1.peak_concurrent;
    t.cache_hits = cache1.hits - cache0.hits;
    t.cache_misses = cache1.misses - cache0.misses;
    t.evictions = cache1.evictions - cache0.evictions;
    t.window.build_ns = set_up.build_ns;
    println!(
        "traced: {} rounds ({} step samples); exact counts per round {:?}",
        t.stmts,
        traced_steps_us.len(),
        reference_counts.unwrap_or_default()
    );
    layers::emit(&mut out, &t, &ceilings);
    out.set(
        "obs.trace_overhead_frac",
        ratio(median(&traced_steps_us), median(&untraced.step_us)) - 1.0,
    );
    Ok(out)
}

/// One cycle-accurate execute of the workload's statement (the
/// simulator's default mode): host-side simulation speed, and the
/// modelled CM-2 rate extrapolated to 2,048 nodes. Modelled numbers are
/// exact and say nothing about the host.
fn sim_probe(spec: &LoopSpec, lp: &mut Loop, out: &mut Outcome) -> Result<(), String> {
    let compiled = lp.session.compile(&spec.statement).map_err(fail)?;
    let refs: Vec<&CmArray> = lp.coeffs.iter().collect();
    let cycle = ExecOptions::default().with_threads(1);
    lp.session
        .run_with_multi(&compiled, &lp.r, &[&lp.x], &refs, &cycle)
        .map_err(fail)?;
    let t = Instant::now();
    let m = lp
        .session
        .run_with_multi(&compiled, &lp.r, &[&lp.x], &refs, &cycle)
        .map_err(fail)?;
    let secs = t.elapsed().as_secs_f64();
    let model = m.extrapolate(2048).gflops(lp.session.config());
    println!(
        "sim: {} modelled cycles in {secs:.4} s host time; modelled {model} Gflop/s at 2048 nodes",
        m.cycles.total()
    );
    out.set("sim.cycles_per_host_s", m.cycles.total() as f64 / secs);
    out.set("sim.model_gflops_2048", model);
    Ok(())
}

const PARSES: u64 = 200;
const COMPILES: u64 = 20;

/// Outside-timed parses and compiles of the workload's statement, with
/// the compiler's phase spans for the split.
fn compile_probe(spec: &LoopSpec, session: &Session, out: &mut Outcome) -> Result<(), String> {
    let mut cost = CompileCost::default();
    let t = Instant::now();
    for _ in 0..PARSES {
        let parsed =
            cmcc::front::parse_assignment(black_box(&spec.statement)).map_err(|e| e.to_string())?;
        black_box(parsed);
    }
    cost.parse_ns = t.elapsed().as_nanos() as u64;
    cost.parses = PARSES;
    obs::set_enabled(true);
    let before = obs::snapshot();
    let t = Instant::now();
    for _ in 0..COMPILES {
        black_box(
            session
                .compiler()
                .compile_assignment(black_box(&spec.statement))
                .map_err(|e| e.to_string())?,
        );
    }
    cost.compile_ns = t.elapsed().as_nanos() as u64;
    cost.compiles = COMPILES;
    let phases = obs::snapshot().delta(&before);
    obs::set_enabled(false);
    layers::emit_compile(out, &cost, &phases);
    Ok(())
}
