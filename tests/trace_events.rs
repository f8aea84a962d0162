//! Flight-recorder contract tests: begin/end events pair up with
//! monotone per-thread timestamps, machine-lock waits never nest inside
//! an execute, a region execute releases the machine between its last
//! interior refresh and its first sweep, ring overflow is counted
//! (never corrupting the already-recorded prefix), latency histograms
//! quantize percentiles exactly against a sorted oracle, and racing
//! tenants' blocked-vs-executing attribution stays within their
//! measured wall time while agreeing with the lease table's own
//! conflict counter.
//!
//! The recorder's rings are process-global, so every test takes a
//! shared lock and resets the registry before measuring.

use std::ops::Deref;
use std::sync::Mutex;

use cmcc::cm2::exec::ExecEngine;
use cmcc::obs::hist::Histogram;
use cmcc::obs::trace::{self, ThreadTrace, TraceKind, TraceOp, TRACE_OP_COUNT, TRACE_RING_CAP};
use cmcc::obs::{self, Counter};
use cmcc::runtime::{CmArray, ExecOptions, ExecutionPlan, StencilBinding};
use cmcc::{Machine, MachineConfig, PaperPattern, Session};

/// Serializes tests that touch the global recorder registry.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One paired begin/end slice (mirrors the driver's distillation).
struct Slice {
    op: TraceOp,
    tenant: Option<u32>,
    dur_ns: u64,
    end_arg: u64,
}

/// Pairs begin/end events stack-wise per thread and operation.
fn pair_slices(threads: &[ThreadTrace]) -> Vec<Slice> {
    let mut slices = Vec::new();
    for t in threads {
        let mut stacks: Vec<Vec<u64>> = vec![Vec::new(); TRACE_OP_COUNT];
        for e in &t.events {
            match e.kind {
                TraceKind::Begin => stacks[e.op as usize].push(e.ts_ns),
                TraceKind::End => {
                    if let Some(start) = stacks[e.op as usize].pop() {
                        slices.push(Slice {
                            op: e.op,
                            tenant: e.tenant,
                            dur_ns: e.ts_ns.saturating_sub(start),
                            end_arg: e.arg,
                        });
                    }
                }
                _ => {}
            }
        }
    }
    slices
}

/// Runs the five-point cross `iters` times through a fresh session.
fn run_statement(session: &mut Session, iters: usize) {
    let c = session.compile(&PaperPattern::Cross5.fortran()).unwrap();
    let x = session.array(8, 8).unwrap();
    let r = session.array(8, 8).unwrap();
    x.fill_with(&mut session.machine_mut(), |row, col| {
        ((row * 3 + col) % 5) as f32
    });
    let named = c
        .spec()
        .coeffs
        .iter()
        .filter(|c| matches!(c, cmcc::core::recognize::CoeffSpec::Named(_)))
        .count();
    let coeffs: Vec<CmArray> = (0..named).map(|_| session.array(8, 8).unwrap()).collect();
    for (i, a) in coeffs.iter().enumerate() {
        a.fill(&mut session.machine_mut(), 0.25 * (i + 1) as f32);
    }
    let refs: Vec<&CmArray> = coeffs.iter().collect();
    let opts = ExecOptions::fast();
    for _ in 0..iters {
        session.run_with(&c, &r, &x, &refs, &opts).unwrap();
    }
}

/// `workers` tenant threads race `iters` executes each of the same
/// statement on clones of one session (the shared plan artifact makes
/// their leases overlap). Returns the recorder snapshot, the session's
/// lease stats, and each tenant's measured wall time.
fn race_tenants(workers: usize, iters: usize) -> (Vec<ThreadTrace>, cmcc::LeaseStats, Vec<u64>) {
    let root = Session::tiny().unwrap();
    let walls: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let mut session = root.clone();
                scope.spawn(move || {
                    trace::set_tenant(Some(w as u32));
                    trace::set_thread_label(&format!("race tenant {w}"));
                    let wall = std::time::Instant::now();
                    let scope = trace::scope(TraceOp::Statement, w as u64);
                    run_statement(&mut session, iters);
                    drop(scope);
                    wall.elapsed().as_nanos() as u64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    });
    (trace::threads(), root.lease_stats(), walls)
}

/// Every end event closes a begin of the same operation on the same
/// thread, and each thread's timestamps never run backwards.
#[test]
fn spans_pair_and_timestamps_are_monotone() {
    let _g = lock();
    trace::reset_trace();
    trace::set_trace_enabled(true);

    let mut session = Session::tiny().unwrap();
    run_statement(&mut session, 3);

    let threads = trace::threads();
    let mut total_events = 0usize;
    let mut executes = 0usize;
    // Machine-lock waits by end argument: [read, write].
    let mut lock_waits = [0usize; 2];
    for t in &threads {
        total_events += t.events.len();
        let mut prev_ts = 0u64;
        let mut depth = vec![0i64; TRACE_OP_COUNT];
        for e in &t.events {
            assert!(
                e.ts_ns >= prev_ts,
                "thread `{}` timestamps run backwards",
                t.label
            );
            prev_ts = e.ts_ns;
            match e.kind {
                TraceKind::Begin => {
                    depth[e.op as usize] += 1;
                    if e.op == TraceOp::MachineLock {
                        assert_eq!(
                            depth[TraceOp::Execute as usize],
                            0,
                            "a machine-lock wait opened inside an execute"
                        );
                    }
                }
                TraceKind::End => {
                    depth[e.op as usize] -= 1;
                    assert!(
                        depth[e.op as usize] >= 0,
                        "`{}` end without a begin on thread `{}`",
                        e.op.name(),
                        t.label
                    );
                    match e.op {
                        TraceOp::Execute => executes += 1,
                        TraceOp::MachineLock => lock_waits[e.arg as usize] += 1,
                        _ => {}
                    }
                }
                _ => {}
            }
        }
        for (op, d) in TraceOp::ALL.iter().zip(&depth) {
            assert_eq!(
                *d,
                0,
                "unclosed `{}` span on thread `{}`",
                op.name(),
                t.label
            );
        }
    }
    assert!(total_events > 0, "the run recorded no events");
    assert_eq!(executes, 3, "each run must close exactly one execute span");
    assert!(
        lock_waits[0] > 0 && lock_waits[1] > 0,
        "read and write machine-lock waits must both be traced, got {lock_waits:?}"
    );
    trace::set_trace_enabled(false);
}

/// A machine guard that marks its own drop on the trace: the moment a
/// region execute releases node memory.
struct MarkedGuard<'a>(&'a Machine);

/// The `machine_lock` instant argument [`MarkedGuard`] records.
const RELEASED: u64 = 0x5e1e_a5ed;

impl Deref for MarkedGuard<'_> {
    type Target = Machine;
    fn deref(&self) -> &Machine {
        self.0
    }
}

impl Drop for MarkedGuard<'_> {
    fn drop(&mut self) {
        trace::record(TraceKind::Instant, TraceOp::MachineLock, RELEASED);
    }
}

/// `execute_region` holds the machine only for its read phase: the
/// guard drops after the execute's last interior refresh and before its
/// first halo exchange and kernel sweep, inside the one execute span.
/// A two-step temporal plan with a named coefficient refreshes two
/// halos and sweeps twice, so both orders are pinned across several
/// events.
#[test]
fn execute_region_releases_the_machine_between_refresh_and_sweep() {
    let _g = lock();
    trace::reset_trace();
    trace::set_trace_enabled(true);
    trace::set_thread_label("read-phase probe");

    let cfg = MachineConfig::tiny_4();
    let mut m = Machine::new(cfg.clone()).unwrap();
    let c = cmcc::Compiler::new(cfg)
        .compile_assignment("R = C * CSHIFT(X, 1, -1) + 0.5 * CSHIFT(X, 2, 1)")
        .unwrap();
    let x = CmArray::new(&mut m, 8, 8).unwrap();
    let coeff = CmArray::new(&mut m, 8, 8).unwrap();
    let r = CmArray::new(&mut m, 8, 8).unwrap();
    x.fill_with(&mut m, |row, col| (row * 3 + col) as f32);
    coeff.fill(&mut m, 0.25);
    let opts = ExecOptions::fast()
        .with_engine(ExecEngine::Lockstep)
        .with_threads(1)
        .with_temporal_depth(2);
    let binding = StencilBinding::new(&c, &r, &[&x], &[&coeff]).unwrap();
    let mut plan = ExecutionPlan::build(&mut m, &binding, &opts).unwrap();
    assert_eq!(plan.temporal_depth(), 2, "{:?}", plan.temporal_fallback());
    assert!(plan.lane_mapped());
    plan.execute_region(MarkedGuard(&m));
    trace::set_trace_enabled(false);

    let threads = trace::threads();
    let events = &threads
        .iter()
        .find(|t| t.label == "read-phase probe")
        .expect("the probe thread registered a ring")
        .events;
    let at = |kind: TraceKind, op: TraceOp| {
        events
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.kind == kind && e.op == op)
            .map(|(i, _)| i)
    };
    let released: Vec<usize> = at(TraceKind::Instant, TraceOp::MachineLock).collect();
    assert_eq!(released.len(), 1, "the guard must drop exactly once");
    let released = released[0];
    assert_eq!(events[released].arg, RELEASED);
    let refresh_ends: Vec<usize> = at(TraceKind::End, TraceOp::InteriorRefresh).collect();
    let exchanges: Vec<usize> = at(TraceKind::Begin, TraceOp::HaloExchange).collect();
    let sweeps: Vec<usize> = at(TraceKind::Begin, TraceOp::KernelSweep).collect();
    assert_eq!(refresh_ends.len(), 2, "a fresh plan refreshes both halos");
    assert_eq!(sweeps.len(), 2, "two fused steps sweep twice");
    assert!(!exchanges.is_empty(), "a fresh plan exchanges its halos");
    assert!(
        refresh_ends.iter().all(|&i| i < released),
        "an interior refresh ran after the machine was released"
    );
    assert!(
        exchanges.iter().chain(&sweeps).all(|&i| i > released),
        "an exchange or sweep ran while the machine was held"
    );
    let execute_begin: Vec<usize> = at(TraceKind::Begin, TraceOp::Execute).collect();
    let execute_end: Vec<usize> = at(TraceKind::End, TraceOp::Execute).collect();
    assert_eq!((execute_begin.len(), execute_end.len()), (1, 1));
    assert!(
        execute_begin[0] < refresh_ends[0] && *sweeps.last().unwrap() < execute_end[0],
        "one execute span must cover both phases"
    );
    plan.commit(&mut m);
    plan.release(&mut m);
}

/// Overflowing a thread's ring counts every dropped event (both in the
/// ring's own counter and the `TraceDrops` obs counter) and leaves the
/// already-recorded prefix bit-exact.
#[test]
fn ring_overflow_counts_drops_and_preserves_prefix() {
    let _g = lock();
    obs::set_enabled(true);
    trace::reset_trace();
    trace::set_trace_enabled(true);
    trace::set_thread_label("overflow probe");
    let before = obs::snapshot();

    for i in 0..TRACE_RING_CAP as u64 + 7 {
        trace::record(TraceKind::Instant, TraceOp::Statement, i);
    }

    let threads = trace::threads();
    let probe = threads
        .iter()
        .find(|t| t.label == "overflow probe")
        .expect("the probe thread registered a ring");
    assert_eq!(
        probe.events.len(),
        TRACE_RING_CAP,
        "ring must fill, not wrap"
    );
    for (i, e) in probe.events.iter().enumerate() {
        assert_eq!(e.arg, i as u64, "event {i} corrupted by the overflow");
        assert_eq!(e.op, TraceOp::Statement);
    }
    assert_eq!(probe.drops, 7, "exactly the overflowing events are dropped");
    let report = obs::snapshot().delta(&before);
    assert_eq!(
        report.get(Counter::TraceDrops),
        7,
        "TraceDrops must count the same overflow"
    );
    trace::set_trace_enabled(false);
    obs::set_enabled(false);
}

/// Every traced multi-thread sweep records on band workers that
/// `thread::scope` spawns and joins. Their rings must come back: after
/// hundreds of traced two-band executes, no more rings exist than
/// threads ever recorded at once, and every exited worker's slice is
/// still in the trace, one thread track each. A two-thread execute
/// spawns exactly one worker — the caller sweeps the other band — and
/// nothing else: no thread but the caller and the sweep workers records
/// an event, so the copy phases run on the caller.
#[test]
fn exited_workers_return_their_rings_and_keep_their_slices() {
    let _g = lock();
    trace::reset_trace();
    trace::set_trace_enabled(true);
    let cfg = MachineConfig::tiny_4();
    let compiled = cmcc::Compiler::new(cfg.clone())
        .compile_assignment("R = 0.5 * X + 0.25 * CSHIFT(X, 1, 1)")
        .unwrap();
    let mut m = Machine::new(cfg).unwrap();
    let x = CmArray::new(&mut m, 8, 8).unwrap();
    let r = CmArray::new(&mut m, 8, 8).unwrap();
    x.fill(&mut m, 1.5);
    let binding = StencilBinding::new(&compiled, &r, &[&x], &[]).unwrap();
    let opts = ExecOptions::fast()
        .with_engine(ExecEngine::Lockstep)
        .with_threads(2);
    let mut plan = ExecutionPlan::build(&mut m, &binding, &opts).unwrap();
    const EXECUTES: usize = 300;
    for _ in 0..EXECUTES {
        plan.execute(&mut m).unwrap();
    }
    trace::set_trace_enabled(false);

    let rings = trace::ring_stats();
    assert!(
        rings.allocated <= rings.peak_live,
        "{rings:?}: rings outnumber the threads that ever recorded at once"
    );
    assert!(
        rings.allocated < EXECUTES,
        "{rings:?}: every sweep's workers kept a ring"
    );
    let threads = trace::threads();
    let caller = threads
        .iter()
        .find(|t| t.events.iter().any(|e| e.op == TraceOp::Execute))
        .expect("the caller traced its executes")
        .tid;
    let workers: Vec<&ThreadTrace> = threads
        .iter()
        .filter(|t| t.tid != caller && !t.events.is_empty())
        .collect();
    for t in &workers {
        assert!(
            t.events.iter().all(|e| e.op == TraceOp::ExecuteWorkers),
            "thread {} recorded outside a band sweep: {:?}",
            t.tid,
            t.events
        );
    }
    let slices = pair_slices(&threads)
        .iter()
        .filter(|s| s.op == TraceOp::ExecuteWorkers)
        .count();
    assert_eq!(
        slices,
        2 * EXECUTES,
        "one worker slice per band per execute"
    );
    assert_eq!(
        workers.len(),
        EXECUTES,
        "one thread track per exited worker, one worker per execute"
    );
    trace::reset_trace();
    assert!(trace::threads().iter().all(|t| t.events.is_empty()));
    plan.release(&mut m);
}

/// Histogram percentiles equal the quantized rank statistic of the raw
/// sample — quantization is monotone, so bucketing commutes with
/// rank selection.
#[test]
fn histogram_percentiles_match_sorted_oracle() {
    let mut h = Histogram::new();
    let mut samples = Vec::new();
    // Xorshift over a wide dynamic range (ns to tens of seconds).
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in 0..10_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = x % (1u64 << (10 + (i % 25)));
        samples.push(v);
        h.record(v);
    }
    samples.sort_unstable();
    for p in [0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
        let rank = ((p / 100.0 * samples.len() as f64).ceil() as usize)
            .max(1)
            .min(samples.len());
        let oracle = Histogram::quantize(samples[rank - 1]);
        assert_eq!(
            h.percentile(p),
            oracle,
            "p{p} diverges from the sorted oracle"
        );
    }
    assert_eq!(h.count(), samples.len() as u64);
    assert_eq!(
        h.max(),
        *samples.last().unwrap(),
        "max is exact, not quantized"
    );
}

/// Racing tenants on one shared artifact: each tenant's traced blocked
/// (lease time-to-grant plus machine-lock waits) plus executing time
/// fits within its measured wall time, and the conflicted-wait count
/// agrees with the lease table's conflict counter when nothing was
/// dropped.
#[test]
fn racing_tenants_split_blocked_and_executing_within_wall() {
    let _g = lock();
    trace::reset_trace();
    trace::set_trace_enabled(true);

    const WORKERS: usize = 4;
    let (threads, leases, walls) = race_tenants(WORKERS, 4);
    let slices = pair_slices(&threads);

    let mut blocked = [0u64; WORKERS];
    let mut executing = [0u64; WORKERS];
    let mut conflicted_waits = 0u64;
    for s in &slices {
        let w = s.tenant.map(|t| t as usize).filter(|&t| t < WORKERS);
        match s.op {
            TraceOp::LeaseAcquire => {
                if s.end_arg == 1 {
                    conflicted_waits += 1;
                }
                if let Some(w) = w {
                    blocked[w] += s.dur_ns;
                }
            }
            TraceOp::MachineLock => {
                if let Some(w) = w {
                    blocked[w] += s.dur_ns;
                }
            }
            TraceOp::Execute => {
                if let Some(w) = w {
                    executing[w] += s.dur_ns;
                }
            }
            _ => {}
        }
    }
    for w in 0..WORKERS {
        assert!(executing[w] > 0, "tenant {w} traced no executes");
        assert!(
            blocked[w] + executing[w] <= walls[w],
            "tenant {w}: blocked {} + executing {} exceeds wall {}",
            blocked[w],
            executing[w],
            walls[w]
        );
    }
    if trace::total_drops() == 0 {
        assert_eq!(
            conflicted_waits, leases.conflicts,
            "traced conflicted waits must agree with the lease table"
        );
    }
    trace::set_trace_enabled(false);
}

/// Per-tenant statement-latency percentiles (what serve-v3 reports)
/// equal the quantized sorted oracle of that tenant's slice durations.
#[test]
fn per_tenant_percentiles_match_sorted_oracle() {
    let _g = lock();
    trace::reset_trace();
    trace::set_trace_enabled(true);

    const WORKERS: usize = 3;
    let (threads, _leases, _walls) = race_tenants(WORKERS, 5);
    let slices = pair_slices(&threads);

    for w in 0..WORKERS as u32 {
        let mut durs: Vec<u64> = slices
            .iter()
            .filter(|s| s.op == TraceOp::Execute && s.tenant == Some(w))
            .map(|s| s.dur_ns)
            .collect();
        assert!(!durs.is_empty(), "tenant {w} traced no executes");
        let mut h = Histogram::new();
        for &d in &durs {
            h.record(d);
        }
        durs.sort_unstable();
        for p in [50.0, 95.0, 99.0] {
            let rank = ((p / 100.0 * durs.len() as f64).ceil() as usize)
                .max(1)
                .min(durs.len());
            assert_eq!(
                h.percentile(p),
                Histogram::quantize(durs[rank - 1]),
                "tenant {w} p{p} diverges from its sorted oracle"
            );
        }
        assert_eq!(h.max(), *durs.last().unwrap());
    }
    trace::set_trace_enabled(false);
}
