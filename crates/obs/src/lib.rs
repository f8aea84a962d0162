//! Run telemetry for the convolution compiler: span timers, counters,
//! and the unified [`RunReport`].
//!
//! The paper's headline claim is a *measured* number — sustained
//! gigaflops built from per-phase accounting of FPU cycles,
//! halo-exchange traffic, and strip-mining overhead (§6). The
//! reproduction computes the same quantities, but they were historically
//! scattered across engines (`StripRun` counters, `Measurement`s,
//! `steady_state_copy_words`) and visible only to ad-hoc bench binaries.
//! This crate is the one place they meet:
//!
//! * **counters** — atomic event and word counts ([`Counter`]), covering
//!   the compile phases, the plan cache, halo-exchange traffic split into
//!   edge and corner steps, lane gather/scatter words, the strip-mine
//!   width distribution, and per-engine execution;
//! * **spans** — wall-clock phase timers ([`Phase`], [`span`]) for the
//!   compile pipeline (recognize → multistencil → regalloc → unroll) and
//!   the plan lifecycle (build, rebind, execute);
//! * **[`RunReport`]** — an immutable snapshot of everything above, with
//!   delta arithmetic, a human-readable table, and a schema-stable JSON
//!   rendering (`cmcc-profile` report object, documented in DESIGN.md
//!   §13).
//!
//! Telemetry is **off by default** and costs one relaxed atomic load per
//! site when disabled. Enable it programmatically with [`set_enabled`]
//! or by setting the `CMCC_PROFILE` environment variable to anything
//! other than empty or `0` (the variable is read once, on first use).
//!
//! The crate deliberately has zero dependencies and no knowledge of the
//! machine model: producers record raw counts, consumers (the `cmcc`
//! driver, `Session::last_report`) derive rates and fractions.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hist;
pub mod trace;

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every counter the telemetry layer tracks, in schema order.
///
/// Counters are machine-total (summed over nodes) unless noted. Word
/// counts are 32-bit words; multiply by four for bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Execution plans built ([`ExecutionPlan::build`] calls).
    ///
    /// [`ExecutionPlan::build`]: https://docs.rs/cmcc-runtime
    PlanBuilds,
    /// Plans retargeted in place (`ExecutionPlan::rebind` calls).
    PlanRebinds,
    /// Session plan-cache hits (runs served by rebinding a cached plan).
    PlanCacheHits,
    /// Session plan-cache misses (runs that built a fresh plan).
    PlanCacheMisses,
    /// Cached plans evicted (LRU bound or capacity shrink).
    PlanCacheEvictions,
    /// Halo-exchange words moved by the edge step (the four-neighbor
    /// NEWS sections), machine-total.
    ExchangeEdgeWords,
    /// Halo-exchange words moved by the corner step (diagonal sections;
    /// zero when the corner step is skipped), machine-total.
    ExchangeCornerWords,
    /// Words copied refreshing halo-buffer interiors from source arrays
    /// (node-domain `fill_interior` plus the lane-domain rectangle
    /// gather), machine-total.
    InteriorRefreshWords,
    /// Words gathered from node memories into lane mirrors (full-view
    /// gathers, including the one-time priming gather of a lane-resident
    /// plan), machine-total.
    GatherWords,
    /// Words scattered from lane mirrors back to node memories (writable
    /// ranges only), machine-total.
    ScatterWords,
    /// Half-strips resolved at width 8 (counted at plan build).
    StripsWidth8,
    /// Half-strips resolved at width 4.
    StripsWidth4,
    /// Half-strips resolved at width 2.
    StripsWidth2,
    /// Half-strips resolved at width 1.
    StripsWidth1,
    /// Plan executes served by the node-outer scalar interpreter.
    ScalarRuns,
    /// Plan executes served by the lane body: the lockstep broadcast
    /// engine on the plan's resident lane mirror.
    LaneResidentRuns,
    /// Resolved kernel steps interpreted by the scalar engine (per-node;
    /// every node replays the same stream).
    ScalarSteps,
    /// Resolved kernel steps the lockstep engine stands in for (each
    /// step counted once, as the hardware would dispatch it): the node
    /// schedule's step count, taken once at plan build and booked by
    /// every lane execute, whose row sweeps replace the schedule.
    LockstepSteps,
    /// Lockstep steps swept by the lane body. A plan lane-maps only
    /// with a row program for its whole schedule, so this always equals
    /// [`Counter::LockstepSteps`]; both stay, as the lockstep engine's
    /// step count and its kernelized share.
    KernelizedSteps,
    /// Lane-mirror buffer (re)allocations. Zero across a steady state.
    MirrorAllocations,
    /// Halo exchanges run (node-domain or lane-domain, one per program
    /// run). Temporal tiling divides this by the fused depth: `k` time
    /// steps share one exchange.
    HaloExchanges,
    /// Time steps advanced by fused (temporal-tiling) executes: each
    /// execute adds its plan's effective temporal depth. Equal to the
    /// execute count when no plan fuses.
    FusedSteps,
    /// Temporal-depth requests the planner clamped back to 1 (scalar
    /// engine, cycle mode, multi-source or pointwise stencils, or a
    /// subgrid smaller than `k·radius`).
    TemporalFallbacks,
    /// Useful floating-point operations (the paper's numerator: interior
    /// results only, no halo redundancy), accumulated per execute.
    UsefulFlops,
    /// Total floating-point operations issued (2 per multiply-add,
    /// including dummy-thread padding and halo-region work),
    /// machine-total.
    TotalFlops,
    /// Mirror-pool takes that found the free list empty and allocated a
    /// fresh mirror. A steadily nonzero rate under a stable tenant count
    /// means the pool capacity is too small for the working set.
    MirrorPoolMisses,
    /// Region leases granted: executes that ran the region body (read
    /// phase under the shared machine lock, lock-free compute, a commit
    /// under the write lock), conflicted or not.
    RegionLeases,
    /// Lease conflicts: executes that found a conflicting live or
    /// earlier-queued lease and waited their FIFO turn before running.
    LeaseConflicts,
    /// High-water mark of simultaneously in-flight executes observed by
    /// the lease table. Recorded as monotone increments, so a snapshot
    /// reads the true peak; greater than 1 proves region leasing
    /// actually overlapped two executes.
    ConcurrentExecutesPeak,
    /// Trace events dropped because a thread's flight-recorder ring
    /// ([`trace`]) was full. Earlier events in a full ring stay intact;
    /// only the overflow is lost, and this counter says how much.
    TraceDrops,
}

/// Number of [`Counter`] variants.
pub const COUNTER_COUNT: usize = Counter::TraceDrops as usize + 1;

impl Counter {
    /// All counters, in schema order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::PlanBuilds,
        Counter::PlanRebinds,
        Counter::PlanCacheHits,
        Counter::PlanCacheMisses,
        Counter::PlanCacheEvictions,
        Counter::ExchangeEdgeWords,
        Counter::ExchangeCornerWords,
        Counter::InteriorRefreshWords,
        Counter::GatherWords,
        Counter::ScatterWords,
        Counter::StripsWidth8,
        Counter::StripsWidth4,
        Counter::StripsWidth2,
        Counter::StripsWidth1,
        Counter::ScalarRuns,
        Counter::LaneResidentRuns,
        Counter::ScalarSteps,
        Counter::LockstepSteps,
        Counter::KernelizedSteps,
        Counter::MirrorAllocations,
        Counter::HaloExchanges,
        Counter::FusedSteps,
        Counter::TemporalFallbacks,
        Counter::UsefulFlops,
        Counter::TotalFlops,
        Counter::MirrorPoolMisses,
        Counter::RegionLeases,
        Counter::LeaseConflicts,
        Counter::ConcurrentExecutesPeak,
        Counter::TraceDrops,
    ];

    /// The counter's stable JSON key.
    pub fn key(self) -> &'static str {
        match self {
            Counter::PlanBuilds => "builds",
            Counter::PlanRebinds => "rebinds",
            Counter::PlanCacheHits => "cache_hits",
            Counter::PlanCacheMisses => "cache_misses",
            Counter::PlanCacheEvictions => "cache_evictions",
            Counter::ExchangeEdgeWords => "edge_words",
            Counter::ExchangeCornerWords => "corner_words",
            Counter::InteriorRefreshWords => "interior_words",
            Counter::GatherWords => "gather_words",
            Counter::ScatterWords => "scatter_words",
            Counter::StripsWidth8 => "width8",
            Counter::StripsWidth4 => "width4",
            Counter::StripsWidth2 => "width2",
            Counter::StripsWidth1 => "width1",
            Counter::ScalarRuns => "scalar_runs",
            Counter::LaneResidentRuns => "lane_resident_runs",
            Counter::ScalarSteps => "scalar_steps",
            Counter::LockstepSteps => "lockstep_steps",
            Counter::KernelizedSteps => "kernelized_steps",
            Counter::MirrorAllocations => "mirror_allocations",
            Counter::HaloExchanges => "halo_exchanges",
            Counter::FusedSteps => "fused_steps",
            Counter::TemporalFallbacks => "temporal_fallbacks",
            Counter::UsefulFlops => "useful_flops",
            Counter::TotalFlops => "total_flops",
            Counter::MirrorPoolMisses => "mirror_pool_misses",
            Counter::RegionLeases => "region_leases",
            Counter::LeaseConflicts => "lease_conflicts",
            Counter::ConcurrentExecutesPeak => "concurrent_executes_peak",
            Counter::TraceDrops => "trace_drops",
        }
    }
}

/// Timed phases of the compile and run pipeline, in schema order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Pattern matching: parse tree → recognized stencil spec.
    Recognize,
    /// Multistencil construction for one candidate width.
    Multistencil,
    /// Ring planning plus register assignment for one width.
    Regalloc,
    /// Kernel line emission and unrolling for one width.
    Unroll,
    /// Execution-plan construction.
    PlanBuild,
    /// Execution-plan retargeting.
    PlanRebind,
    /// One plan execute (exchange + kernel run + accounting).
    Execute,
    /// Per-worker sweep time inside an execute's thread fan-out. Summed
    /// across workers this is CPU time; `Execute` is wall time. The two
    /// coincide when the plan runs single-threaded.
    ExecuteWorkers,
}

/// Number of [`Phase`] variants.
pub const PHASE_COUNT: usize = Phase::ExecuteWorkers as usize + 1;

impl Phase {
    /// All phases, in schema order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Recognize,
        Phase::Multistencil,
        Phase::Regalloc,
        Phase::Unroll,
        Phase::PlanBuild,
        Phase::PlanRebind,
        Phase::Execute,
        Phase::ExecuteWorkers,
    ];

    /// The phase's stable JSON key stem (`<stem>_ns`, `<stem>_calls`).
    pub fn key(self) -> &'static str {
        match self {
            Phase::Recognize => "recognize",
            Phase::Multistencil => "multistencil",
            Phase::Regalloc => "regalloc",
            Phase::Unroll => "unroll",
            Phase::PlanBuild => "plan_build",
            Phase::PlanRebind => "plan_rebind",
            Phase::Execute => "execute",
            Phase::ExecuteWorkers => "execute_workers",
        }
    }
}

/// 0 = undecided (consult `CMCC_PROFILE` on first use), 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// One thread's private slice of the telemetry state.
///
/// Every recording site writes to its own thread's shard, so concurrent
/// executes never contend on a shared cache line; readers aggregate
/// lazily at snapshot time. The slots stay atomics (relaxed) because
/// snapshotting threads read them while the owner writes — no ordering
/// is needed, only tear-free loads.
#[derive(Debug)]
struct ObsShard {
    counters: [AtomicU64; COUNTER_COUNT],
    phase_nanos: [AtomicU64; PHASE_COUNT],
    phase_calls: [AtomicU64; PHASE_COUNT],
}

impl ObsShard {
    const fn new() -> Self {
        ObsShard {
            counters: [const { AtomicU64::new(0) }; COUNTER_COUNT],
            phase_nanos: [const { AtomicU64::new(0) }; PHASE_COUNT],
            phase_calls: [const { AtomicU64::new(0) }; PHASE_COUNT],
        }
    }

    fn zero(&self) {
        for slot in self
            .counters
            .iter()
            .chain(&self.phase_nanos)
            .chain(&self.phase_calls)
        {
            slot.store(0, Ordering::Relaxed);
        }
    }
}

/// Counts retired by threads that have exited: their shards fold in here
/// (under the registry lock) so process totals stay exact while the
/// registry stays bounded by the number of *live* recording threads.
static RETIRED: ObsShard = ObsShard::new();

/// Every live thread's shard, for lazy aggregation. Locked only on
/// thread birth/death, snapshot, and reset — never on the record path.
static REGISTRY: Mutex<Vec<Arc<ObsShard>>> = Mutex::new(Vec::new());

fn registry() -> std::sync::MutexGuard<'static, Vec<Arc<ObsShard>>> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Folds `src` into `dst` slot by slot (relaxed; caller holds the
/// registry lock when exactness matters).
fn fold_into(dst: &ObsShard, src: &ObsShard) {
    for (d, s) in dst
        .counters
        .iter()
        .zip(&src.counters)
        .chain(dst.phase_nanos.iter().zip(&src.phase_nanos))
        .chain(dst.phase_calls.iter().zip(&src.phase_calls))
    {
        d.fetch_add(s.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Owns a thread's registration; dropping it (thread exit) folds the
/// shard into [`RETIRED`] and unregisters it under the registry lock, so
/// a concurrent [`snapshot`] sees each count exactly once.
struct ShardGuard(Arc<ObsShard>);

impl Drop for ShardGuard {
    fn drop(&mut self) {
        let mut reg = registry();
        fold_into(&RETIRED, &self.0);
        reg.retain(|s| !Arc::ptr_eq(s, &self.0));
    }
}

thread_local! {
    static SHARD: ShardGuard = {
        let shard = Arc::new(ObsShard::new());
        registry().push(Arc::clone(&shard));
        ShardGuard(shard)
    };
}

/// Runs `f` against the calling thread's shard. During thread teardown
/// (the TLS slot already destroyed) the write goes straight to the
/// retired accumulator instead of being lost.
#[inline]
fn with_shard<F: FnOnce(&ObsShard)>(f: F) {
    let mut f = Some(f);
    let _ = SHARD.try_with(|guard| (f.take().expect("with_shard runs once"))(&guard.0));
    if let Some(f) = f {
        f(&RETIRED);
    }
}

/// Whether telemetry is currently recording.
///
/// The first call (unless [`set_enabled`] ran earlier) latches the
/// `CMCC_PROFILE` environment variable: unset, empty, or `0` means off.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        0 => {
            let on = std::env::var("CMCC_PROFILE")
                .map(|v| !v.is_empty() && v != "0")
                .unwrap_or(false);
            ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
        1 => false,
        _ => true,
    }
}

/// Turns telemetry on or off for the whole process, overriding the
/// environment. Counters keep their values; use [`reset`] to zero them.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Adds `n` to a counter. One relaxed load and an early return when
/// telemetry is disabled; when enabled, the write lands on the calling
/// thread's private shard (no cross-thread contention).
#[inline]
pub fn add(counter: Counter, n: u64) {
    if enabled() {
        with_shard(|s| {
            s.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        });
    }
}

/// A live span timer: created by [`span`], records its elapsed wall time
/// under its [`Phase`] when dropped. Does not read the clock at all when
/// both telemetry and tracing are disabled.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; binding it to _ drops it immediately"]
pub struct Span {
    phase: Phase,
    start: Option<Instant>,
    traced: bool,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            with_shard(|s| {
                s.phase_nanos[self.phase as usize].fetch_add(nanos, Ordering::Relaxed);
                s.phase_calls[self.phase as usize].fetch_add(1, Ordering::Relaxed);
            });
        }
        if self.traced {
            trace::record(
                trace::TraceKind::End,
                trace::TraceOp::from_phase(self.phase),
                0,
            );
        }
    }
}

/// Starts timing `phase`; the returned guard records on drop.
///
/// When the flight recorder is on ([`trace::trace_enabled`]), the span
/// additionally emits a trace begin event now and the matching end event
/// on drop, so every profiled phase shows up on the timeline for free.
#[inline]
pub fn span(phase: Phase) -> Span {
    let traced = trace::trace_enabled();
    if traced {
        trace::record(
            trace::TraceKind::Begin,
            trace::TraceOp::from_phase(phase),
            0,
        );
    }
    Span {
        phase,
        start: enabled().then(Instant::now),
        traced,
    }
}

/// Zeroes every counter and span accumulator — the retired accumulator
/// and every live thread's shard (the enable state is kept).
pub fn reset() {
    let reg = registry();
    RETIRED.zero();
    for shard in reg.iter() {
        shard.zero();
    }
}

/// An immutable snapshot of every counter and span accumulator.
///
/// Reports subtract ([`RunReport::delta`]) so a caller can bracket one
/// run — `Session::last_report` does exactly that — and they render as a
/// human table ([`RunReport::render_table`]) or the schema-stable JSON
/// object documented in DESIGN.md §13 ([`RunReport::to_json`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunReport {
    enabled: bool,
    counters: [u64; COUNTER_COUNT],
    phase_nanos: [u64; PHASE_COUNT],
    phase_calls: [u64; PHASE_COUNT],
}

fn accumulate(report: &mut RunReport, shard: &ObsShard) {
    for (slot, c) in report.counters.iter_mut().zip(&shard.counters) {
        *slot = slot.saturating_add(c.load(Ordering::Relaxed));
    }
    for (slot, n) in report.phase_nanos.iter_mut().zip(&shard.phase_nanos) {
        *slot = slot.saturating_add(n.load(Ordering::Relaxed));
    }
    for (slot, n) in report.phase_calls.iter_mut().zip(&shard.phase_calls) {
        *slot = slot.saturating_add(n.load(Ordering::Relaxed));
    }
}

/// Takes a process-wide snapshot of the current telemetry state: the
/// lazy aggregation of every live thread's shard plus the retired
/// accumulator, under the registry lock (so a thread retiring mid-read
/// is counted exactly once).
pub fn snapshot() -> RunReport {
    let mut report = RunReport {
        enabled: enabled(),
        ..RunReport::default()
    };
    let reg = registry();
    accumulate(&mut report, &RETIRED);
    for shard in reg.iter() {
        accumulate(&mut report, shard);
    }
    report
}

/// Takes a snapshot of only the *calling thread's* shard — what this
/// thread recorded since it first recorded (or since the last [`reset`]).
///
/// This is the per-tenant attribution primitive behind the driver's
/// `--serve` stats: a worker brackets its own work with two of these and
/// subtracts, unpolluted by concurrent tenants. Counts recorded by
/// worker pools the runtime spawns internally land on *their* threads,
/// not this one, so per-tenant attribution expects single-threaded
/// execution options.
pub fn thread_snapshot() -> RunReport {
    let mut report = RunReport {
        enabled: enabled(),
        ..RunReport::default()
    };
    let _ = SHARD.try_with(|guard| accumulate(&mut report, &guard.0));
    report
}

impl RunReport {
    /// Whether telemetry was enabled when this snapshot was taken.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Accumulated wall nanoseconds of one phase.
    pub fn phase_nanos(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase as usize]
    }

    /// Number of completed spans of one phase.
    pub fn phase_calls(&self, phase: Phase) -> u64 {
        self.phase_calls[phase as usize]
    }

    /// The counters and spans accumulated since `earlier` (saturating,
    /// so a reset between snapshots yields zeros rather than wrapping).
    pub fn delta(&self, earlier: &RunReport) -> RunReport {
        let mut out = *self;
        for (slot, old) in out.counters.iter_mut().zip(&earlier.counters) {
            *slot = slot.saturating_sub(*old);
        }
        for (slot, old) in out.phase_nanos.iter_mut().zip(&earlier.phase_nanos) {
            *slot = slot.saturating_sub(*old);
        }
        for (slot, old) in out.phase_calls.iter_mut().zip(&earlier.phase_calls) {
            *slot = slot.saturating_sub(*old);
        }
        out
    }

    /// Sums two reports slot by slot — used to attribute separately
    /// bracketed work to one report, e.g. a statement's compile-time
    /// spans merged into its run report (saturating, like the counters
    /// themselves).
    pub fn merge(&self, other: &RunReport) -> RunReport {
        let mut out = *self;
        out.enabled = self.enabled || other.enabled;
        for (slot, more) in out.counters.iter_mut().zip(&other.counters) {
            *slot = slot.saturating_add(*more);
        }
        for (slot, more) in out.phase_nanos.iter_mut().zip(&other.phase_nanos) {
            *slot = slot.saturating_add(*more);
        }
        for (slot, more) in out.phase_calls.iter_mut().zip(&other.phase_calls) {
            *slot = slot.saturating_add(*more);
        }
        out
    }

    /// Whether the report recorded nothing: every counter and span zero.
    /// A run performed with telemetry disabled yields an empty report.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0)
            && self.phase_nanos.iter().all(|&n| n == 0)
            && self.phase_calls.iter().all(|&n| n == 0)
    }

    /// Machine-total words copied by the runtime: exchange edge + corner
    /// steps, interior refresh, and lane gather/scatter. This is the
    /// observed counterpart of the plan's analytic
    /// `steady_state_copy_words` prediction.
    pub fn copy_words(&self) -> u64 {
        self.get(Counter::ExchangeEdgeWords)
            + self.get(Counter::ExchangeCornerWords)
            + self.get(Counter::InteriorRefreshWords)
            + self.get(Counter::GatherWords)
            + self.get(Counter::ScatterWords)
    }

    /// Renders the report as the schema-stable JSON object embedded in
    /// `cmcc --profile=json` output (the `"report"` value): five fixed
    /// sub-objects — `compile`, `plan`, `exchange`, `strips`, `exec` —
    /// whose keys are documented in DESIGN.md §13 and never reordered.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let c = |counter: Counter| self.get(counter);
        write!(s, "{{\"enabled\":{}", self.enabled).unwrap();
        s.push_str(",\"compile\":{");
        for (i, phase) in [
            Phase::Recognize,
            Phase::Multistencil,
            Phase::Regalloc,
            Phase::Unroll,
        ]
        .into_iter()
        .enumerate()
        {
            if i > 0 {
                s.push(',');
            }
            write!(
                s,
                "\"{0}_ns\":{1},\"{0}_calls\":{2}",
                phase.key(),
                self.phase_nanos(phase),
                self.phase_calls(phase)
            )
            .unwrap();
        }
        write!(
            s,
            "}},\"plan\":{{\"build_ns\":{},\"builds\":{},\"rebind_ns\":{},\"rebinds\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{}}}",
            self.phase_nanos(Phase::PlanBuild),
            c(Counter::PlanBuilds),
            self.phase_nanos(Phase::PlanRebind),
            c(Counter::PlanRebinds),
            c(Counter::PlanCacheHits),
            c(Counter::PlanCacheMisses),
            c(Counter::PlanCacheEvictions),
        )
        .unwrap();
        write!(
            s,
            ",\"exchange\":{{\"edge_words\":{},\"corner_words\":{},\"interior_words\":{},\
             \"gather_words\":{},\"scatter_words\":{}}}",
            c(Counter::ExchangeEdgeWords),
            c(Counter::ExchangeCornerWords),
            c(Counter::InteriorRefreshWords),
            c(Counter::GatherWords),
            c(Counter::ScatterWords),
        )
        .unwrap();
        write!(
            s,
            ",\"strips\":{{\"width8\":{},\"width4\":{},\"width2\":{},\"width1\":{}}}",
            c(Counter::StripsWidth8),
            c(Counter::StripsWidth4),
            c(Counter::StripsWidth2),
            c(Counter::StripsWidth1),
        )
        .unwrap();
        write!(
            s,
            ",\"exec\":{{\"execute_ns\":{},\"executes\":{},\"execute_workers_ns\":{},\
             \"execute_workers_calls\":{},\"scalar_runs\":{},\
             \"lane_resident_runs\":{},\"scalar_steps\":{},\
             \"lockstep_steps\":{},\"kernelized_steps\":{},\
             \"mirror_allocations\":{},\"mirror_pool_misses\":{},\"halo_exchanges\":{},\
             \"fused_steps\":{},\"temporal_fallbacks\":{},\"region_leases\":{},\
             \"lease_conflicts\":{},\"concurrent_executes_peak\":{},\"trace_drops\":{},\
             \"useful_flops\":{},\"total_flops\":{}}}}}",
            self.phase_nanos(Phase::Execute),
            self.phase_calls(Phase::Execute),
            self.phase_nanos(Phase::ExecuteWorkers),
            self.phase_calls(Phase::ExecuteWorkers),
            c(Counter::ScalarRuns),
            c(Counter::LaneResidentRuns),
            c(Counter::ScalarSteps),
            c(Counter::LockstepSteps),
            c(Counter::KernelizedSteps),
            c(Counter::MirrorAllocations),
            c(Counter::MirrorPoolMisses),
            c(Counter::HaloExchanges),
            c(Counter::FusedSteps),
            c(Counter::TemporalFallbacks),
            c(Counter::RegionLeases),
            c(Counter::LeaseConflicts),
            c(Counter::ConcurrentExecutesPeak),
            c(Counter::TraceDrops),
            c(Counter::UsefulFlops),
            c(Counter::TotalFlops),
        )
        .unwrap();
        s
    }

    /// Renders the report as an indented human-readable table (the
    /// `cmcc --profile` form).
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let ms = |nanos: u64| nanos as f64 / 1e6;
        s.push_str("profile:\n");
        s.push_str("  compile        calls        ms\n");
        for phase in [
            Phase::Recognize,
            Phase::Multistencil,
            Phase::Regalloc,
            Phase::Unroll,
        ] {
            writeln!(
                s,
                "    {:<12} {:>5} {:>9.3}",
                phase.key(),
                self.phase_calls(phase),
                ms(self.phase_nanos(phase))
            )
            .unwrap();
        }
        writeln!(
            s,
            "  plan: {} builds ({:.3} ms), {} rebinds ({:.3} ms); cache {} hits / {} misses / {} evictions",
            self.get(Counter::PlanBuilds),
            ms(self.phase_nanos(Phase::PlanBuild)),
            self.get(Counter::PlanRebinds),
            ms(self.phase_nanos(Phase::PlanRebind)),
            self.get(Counter::PlanCacheHits),
            self.get(Counter::PlanCacheMisses),
            self.get(Counter::PlanCacheEvictions),
        )
        .unwrap();
        writeln!(
            s,
            "  exchange words: {} edge + {} corner; interior refresh {}, gather {}, scatter {}",
            self.get(Counter::ExchangeEdgeWords),
            self.get(Counter::ExchangeCornerWords),
            self.get(Counter::InteriorRefreshWords),
            self.get(Counter::GatherWords),
            self.get(Counter::ScatterWords),
        )
        .unwrap();
        writeln!(
            s,
            "  strips by width: 8:{} 4:{} 2:{} 1:{}",
            self.get(Counter::StripsWidth8),
            self.get(Counter::StripsWidth4),
            self.get(Counter::StripsWidth2),
            self.get(Counter::StripsWidth1),
        )
        .unwrap();
        writeln!(
            s,
            "  exec: {} executes ({:.3} ms wall, {:.3} ms cpu) — {} scalar / {} lane-resident; \
             steps {} scalar + {} lockstep ({} kernelized); \
             {} mirror allocations ({} pool misses)",
            self.phase_calls(Phase::Execute),
            ms(self.phase_nanos(Phase::Execute)),
            ms(self.phase_nanos(Phase::ExecuteWorkers)),
            self.get(Counter::ScalarRuns),
            self.get(Counter::LaneResidentRuns),
            self.get(Counter::ScalarSteps),
            self.get(Counter::LockstepSteps),
            self.get(Counter::KernelizedSteps),
            self.get(Counter::MirrorAllocations),
            self.get(Counter::MirrorPoolMisses),
        )
        .unwrap();
        writeln!(
            s,
            "  leases: {} region grants, {} conflicts (queued FIFO), peak {} concurrent executes",
            self.get(Counter::RegionLeases),
            self.get(Counter::LeaseConflicts),
            self.get(Counter::ConcurrentExecutesPeak),
        )
        .unwrap();
        writeln!(
            s,
            "  temporal: {} halo exchanges, {} fused steps, {} depth fallbacks",
            self.get(Counter::HaloExchanges),
            self.get(Counter::FusedSteps),
            self.get(Counter::TemporalFallbacks),
        )
        .unwrap();
        writeln!(
            s,
            "  trace: {} events dropped (ring overflow)",
            self.get(Counter::TraceDrops),
        )
        .unwrap();
        let useful = self.get(Counter::UsefulFlops);
        let total = self.get(Counter::TotalFlops);
        writeln!(
            s,
            "  flops: {useful} useful / {total} total ({:.1}% useful)",
            if total > 0 {
                useful as f64 / total as f64 * 100.0
            } else {
                0.0
            },
        )
        .unwrap();
        s
    }
}

/// Serializes tests that touch the process-global telemetry or trace
/// state; shared across this crate's test modules so a counter test's
/// spans never leak trace events into a trace test's assertions.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let _guard = crate::test_lock();
        set_enabled(false);
        reset();
        add(Counter::PlanBuilds, 3);
        let _span = span(Phase::Recognize);
        drop(_span);
        let report = snapshot();
        assert!(!report.enabled());
        assert!(report.is_empty());
    }

    #[test]
    fn counters_and_spans_accumulate_and_delta() {
        let _guard = crate::test_lock();
        set_enabled(true);
        reset();
        add(Counter::ExchangeEdgeWords, 10);
        add(Counter::ExchangeEdgeWords, 5);
        {
            let _s = span(Phase::PlanBuild);
            std::hint::black_box(1 + 1);
        }
        let mid = snapshot();
        assert_eq!(mid.get(Counter::ExchangeEdgeWords), 15);
        assert_eq!(mid.phase_calls(Phase::PlanBuild), 1);
        add(Counter::ExchangeEdgeWords, 1);
        let end = snapshot();
        let delta = end.delta(&mid);
        assert_eq!(delta.get(Counter::ExchangeEdgeWords), 1);
        assert_eq!(delta.phase_calls(Phase::PlanBuild), 0);
        assert!(!end.is_empty());
        set_enabled(false);
    }

    #[test]
    fn thread_shards_aggregate_exactly_and_attribute_locally() {
        let _guard = crate::test_lock();
        set_enabled(true);
        reset();
        add(Counter::ScalarRuns, 1);
        let workers = 4;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|i| {
                    scope.spawn(move || {
                        add(Counter::ScalarRuns, 10 + i);
                        // A thread sees exactly its own work.
                        thread_snapshot().get(Counter::ScalarRuns)
                    })
                })
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                assert_eq!(h.join().unwrap(), 10 + i as u64);
            }
        });
        // Worker threads have exited: their shards retired into the
        // accumulator, and the process totals are exact.
        let report = snapshot();
        assert_eq!(report.get(Counter::ScalarRuns), 1 + 10 + 11 + 12 + 13);
        // The main thread's view excludes the workers' counts.
        assert_eq!(thread_snapshot().get(Counter::ScalarRuns), 1);
        reset();
        assert!(snapshot().is_empty());
        set_enabled(false);
    }

    #[test]
    fn json_is_schema_stable() {
        let _guard = crate::test_lock();
        set_enabled(true);
        reset();
        add(Counter::UsefulFlops, 42);
        let json = snapshot().to_json();
        set_enabled(false);
        for key in [
            "\"enabled\":true",
            "\"compile\":{",
            "\"recognize_ns\":",
            "\"recognize_calls\":",
            "\"multistencil_ns\":",
            "\"regalloc_ns\":",
            "\"unroll_ns\":",
            "\"plan\":{",
            "\"build_ns\":",
            "\"builds\":",
            "\"rebind_ns\":",
            "\"rebinds\":",
            "\"cache_hits\":",
            "\"cache_misses\":",
            "\"cache_evictions\":",
            "\"exchange\":{",
            "\"edge_words\":",
            "\"corner_words\":",
            "\"interior_words\":",
            "\"gather_words\":",
            "\"scatter_words\":",
            "\"strips\":{",
            "\"width8\":",
            "\"width4\":",
            "\"width2\":",
            "\"width1\":",
            "\"exec\":{",
            "\"execute_ns\":",
            "\"executes\":",
            "\"scalar_runs\":",
            "\"lane_resident_runs\":",
            "\"scalar_steps\":",
            "\"lockstep_steps\":",
            "\"kernelized_steps\":",
            "\"mirror_allocations\":",
            "\"execute_workers_ns\":",
            "\"execute_workers_calls\":",
            "\"halo_exchanges\":",
            "\"fused_steps\":",
            "\"temporal_fallbacks\":",
            "\"mirror_pool_misses\":",
            "\"region_leases\":",
            "\"lease_conflicts\":",
            "\"concurrent_executes_peak\":",
            "\"trace_drops\":",
            "\"useful_flops\":42",
            "\"total_flops\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Balanced braces on one line: crude but catches truncation.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON: {json}"
        );
        assert!(!json.contains('\n'));
    }

    #[test]
    fn every_counter_has_a_distinct_key() {
        let mut keys: Vec<&str> = Counter::ALL.iter().map(|c| c.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), COUNTER_COUNT);
        let mut phases: Vec<&str> = Phase::ALL.iter().map(|p| p.key()).collect();
        phases.sort_unstable();
        phases.dedup();
        assert_eq!(phases.len(), PHASE_COUNT);
    }

    #[test]
    fn table_renders_every_section() {
        let table = RunReport::default().render_table();
        for needle in [
            "compile",
            "plan:",
            "exchange words",
            "strips by width",
            "exec:",
            "leases:",
            "temporal:",
            "trace:",
            "flops:",
        ] {
            assert!(table.contains(needle), "missing {needle}");
        }
    }
}
