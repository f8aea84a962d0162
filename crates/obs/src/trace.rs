//! The flight recorder: a lock-free, per-thread ring-buffer event trace.
//!
//! Every instrumented site ([`record`], or a [`Span`](crate::Span) /
//! [`scope`] guard) appends one fixed-size event — a timestamp, an
//! operation tag, the calling thread's tenant id, and one argument word —
//! to the calling thread's private ring. The hot path is three relaxed
//! atomic stores plus one release store of the write cursor; it takes no
//! locks, allocates nothing after the ring itself exists, and costs a
//! single relaxed load when tracing is disabled.
//!
//! Rings have fixed capacity ([`TRACE_RING_CAP`] events). When a ring
//! fills, further events on that thread are *dropped*, counted both in
//! the ring and in the process-wide
//! [`Counter::TraceDrops`](crate::Counter::TraceDrops) counter; the
//! events already recorded are never overwritten, so the head of the
//! timeline stays trustworthy.
//!
//! Rings are registered in a process-global table. When a thread exits,
//! its recorded prefix moves to a compact retired list and its ring
//! returns to a free pool that the next new thread reuses, so a
//! post-mortem export ([`chrome_trace_json`]) still sees every worker's
//! events while memory stays bounded by the peak number of live
//! recording threads — not by how many short-lived workers (one per lane
//! group per sweep) ever ran. The export is the Chrome trace-event JSON
//! format (load it in `chrome://tracing` or Perfetto): one `tid` per
//! recording thread, `B`/`E` duration events per operation, and async
//! `b`/`e` pairs for per-tenant tracks.
//!
//! Tracing is **off by default** and independent of the counter layer:
//! enable it with [`set_trace_enabled`] or the `CMCC_TRACE` environment
//! variable (latched on first use, like `CMCC_PROFILE`).

use crate::hist::Histogram;
use std::cell::{Cell, OnceCell};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Capacity of one thread's event ring, in events. A full serve batch
/// records a few hundred events per statement, so 64 Ki events per
/// thread leaves two orders of magnitude of headroom; overflow beyond it
/// drops events (counted, never corrupting) rather than growing.
pub const TRACE_RING_CAP: usize = 1 << 16;

/// What kind of timeline mark an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// Opens a duration slice on the recording thread's track.
    Begin = 0,
    /// Closes the most recent open slice of the same operation.
    End = 1,
    /// A zero-duration mark.
    Instant = 2,
    /// Opens an async slice (`arg` is the async track id, e.g. tenant).
    AsyncBegin = 3,
    /// Closes the async slice with the same operation and id.
    AsyncEnd = 4,
}

impl TraceKind {
    fn from_bits(v: u8) -> TraceKind {
        match v {
            0 => TraceKind::Begin,
            1 => TraceKind::End,
            2 => TraceKind::Instant,
            3 => TraceKind::AsyncBegin,
            _ => TraceKind::AsyncEnd,
        }
    }
}

/// The operation a trace event marks, in stable schema order. Names
/// ([`TraceOp::name`]) are the `name` field of the exported Chrome trace
/// events and match the profile phase keys where a phase exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceOp {
    /// Stencil recognition (compile).
    Recognize,
    /// Multistencil construction (compile).
    Multistencil,
    /// Ring planning and register assignment (compile).
    Regalloc,
    /// Kernel emission and unrolling (compile).
    Unroll,
    /// Execution-plan construction.
    PlanBuild,
    /// Execution-plan retargeting.
    PlanRebind,
    /// One plan execute, entry to exit.
    Execute,
    /// Per-worker sweep slice inside an execute's thread fan-out.
    ExecuteWorkers,
    /// One halo-exchange program run (node- or lane-domain). `arg` on
    /// the begin event is the words the program moves.
    HaloExchange,
    /// Interior refresh: halo-buffer fill or lane-mirror rectangle
    /// gather ahead of an exchange.
    InteriorRefresh,
    /// One fused step's row sweep (one time step of the lane body).
    /// `arg` on the begin event is the step index within the execute.
    KernelSweep,
    /// A lane execute's commit window: its result transposed from the
    /// lane mirror straight into node memory under exclusive machine
    /// access (the session's write lock). `arg` on the begin event is the
    /// result's words per node.
    RegionCommit,
    /// A lease request in the region-lease table, from request to
    /// grant — the slice duration *is* the time-to-grant, and `arg` on
    /// the end event is 1 if the request conflicted (waited for an
    /// overlapping live lease) or 0 if it was granted immediately.
    LeaseAcquire,
    /// A held lease, from grant to release.
    LeaseHeld,
    /// One served statement (per-tenant execute lifetime): emitted as a
    /// thread slice and, with `arg` = tenant id, as an async track pair.
    Statement,
    /// A session's machine-lock request, from request to grant — the
    /// slice duration is the wait, and `arg` on the end event is 1 for
    /// the write lock or 0 for the read lock. Never nested inside an
    /// `execute` slice.
    MachineLock,
}

/// Number of [`TraceOp`] variants.
pub const TRACE_OP_COUNT: usize = TraceOp::MachineLock as usize + 1;

impl TraceOp {
    /// All operations, in schema order.
    pub const ALL: [TraceOp; TRACE_OP_COUNT] = [
        TraceOp::Recognize,
        TraceOp::Multistencil,
        TraceOp::Regalloc,
        TraceOp::Unroll,
        TraceOp::PlanBuild,
        TraceOp::PlanRebind,
        TraceOp::Execute,
        TraceOp::ExecuteWorkers,
        TraceOp::HaloExchange,
        TraceOp::InteriorRefresh,
        TraceOp::KernelSweep,
        TraceOp::RegionCommit,
        TraceOp::LeaseAcquire,
        TraceOp::LeaseHeld,
        TraceOp::Statement,
        TraceOp::MachineLock,
    ];

    /// The operation's stable event name.
    pub fn name(self) -> &'static str {
        match self {
            TraceOp::Recognize => "recognize",
            TraceOp::Multistencil => "multistencil",
            TraceOp::Regalloc => "regalloc",
            TraceOp::Unroll => "unroll",
            TraceOp::PlanBuild => "plan_build",
            TraceOp::PlanRebind => "plan_rebind",
            TraceOp::Execute => "execute",
            TraceOp::ExecuteWorkers => "execute_workers",
            TraceOp::HaloExchange => "halo_exchange",
            TraceOp::InteriorRefresh => "interior_refresh",
            TraceOp::KernelSweep => "kernel_sweep",
            TraceOp::RegionCommit => "region_commit",
            TraceOp::LeaseAcquire => "lease_acquire",
            TraceOp::LeaseHeld => "lease_held",
            TraceOp::Statement => "statement",
            TraceOp::MachineLock => "machine_lock",
        }
    }

    /// Maps a profile [`Phase`](crate::Phase) to its trace operation, so
    /// [`span`](crate::span) guards double as timeline slices.
    pub fn from_phase(phase: crate::Phase) -> TraceOp {
        match phase {
            crate::Phase::Recognize => TraceOp::Recognize,
            crate::Phase::Multistencil => TraceOp::Multistencil,
            crate::Phase::Regalloc => TraceOp::Regalloc,
            crate::Phase::Unroll => TraceOp::Unroll,
            crate::Phase::PlanBuild => TraceOp::PlanBuild,
            crate::Phase::PlanRebind => TraceOp::PlanRebind,
            crate::Phase::Execute => TraceOp::Execute,
            crate::Phase::ExecuteWorkers => TraceOp::ExecuteWorkers,
        }
    }

    fn from_bits(v: u8) -> TraceOp {
        TraceOp::ALL
            .get(v as usize)
            .copied()
            .unwrap_or(TraceOp::Statement)
    }
}

/// One decoded flight-recorder event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Timeline mark kind.
    pub kind: TraceKind,
    /// Operation tag.
    pub op: TraceOp,
    /// The recording thread's tenant id, if one was set ([`set_tenant`]).
    pub tenant: Option<u32>,
    /// Nanoseconds since the process trace epoch (first clock read).
    pub ts_ns: u64,
    /// One free argument word; meaning is per-operation (words moved,
    /// step index, conflict flag, lock mode, async id).
    pub arg: u64,
}

/// Everything one thread recorded: its export `tid`, optional label,
/// events in record order, and how many events overflowed the ring.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// Stable per-thread id (registration order), the Chrome `tid`.
    pub tid: usize,
    /// Human label for the thread's track (empty if never set).
    pub label: String,
    /// Decoded events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events dropped on this thread after the ring filled.
    pub drops: u64,
}

const TENANT_NONE: u32 = u32::MAX;

/// One thread's event ring. The owning thread is the only writer; any
/// thread may read a consistent prefix by loading the cursor with
/// acquire ordering (the writer publishes each event's three payload
/// words with relaxed stores *before* the release store of the cursor).
struct Ring {
    /// The owning thread's export id; a reused ring takes a new one.
    tid: AtomicU64,
    label: Mutex<String>,
    /// Events published so far, `<= TRACE_RING_CAP`.
    cursor: AtomicU64,
    /// Events dropped after the ring filled.
    drops: AtomicU64,
    /// `3 * TRACE_RING_CAP` words: (meta, ts, arg) per slot, where meta
    /// packs kind (bits 0..8), op (bits 8..16), tenant (bits 32..64).
    slots: Vec<AtomicU64>,
}

impl Ring {
    fn new() -> Ring {
        let mut slots = Vec::new();
        slots.resize_with(3 * TRACE_RING_CAP, || AtomicU64::new(0));
        Ring {
            tid: AtomicU64::new(0),
            label: Mutex::new(String::new()),
            cursor: AtomicU64::new(0),
            drops: AtomicU64::new(0),
            slots,
        }
    }

    fn push(&self, kind: TraceKind, op: TraceOp, tenant: u32, ts_ns: u64, arg: u64) {
        // Single writer: the owning thread. Relaxed load is enough.
        let pos = self.cursor.load(Ordering::Relaxed) as usize;
        if pos >= TRACE_RING_CAP {
            self.drops.fetch_add(1, Ordering::Relaxed);
            crate::add(crate::Counter::TraceDrops, 1);
            return;
        }
        let meta = (kind as u64) | ((op as u64) << 8) | ((tenant as u64) << 32);
        self.slots[3 * pos].store(meta, Ordering::Relaxed);
        self.slots[3 * pos + 1].store(ts_ns, Ordering::Relaxed);
        self.slots[3 * pos + 2].store(arg, Ordering::Relaxed);
        // Release: a reader that acquires the new cursor sees the slots.
        self.cursor.store(pos as u64 + 1, Ordering::Release);
    }

    fn snapshot(&self) -> ThreadTrace {
        let n = (self.cursor.load(Ordering::Acquire) as usize).min(TRACE_RING_CAP);
        let mut events = Vec::with_capacity(n);
        for i in 0..n {
            let meta = self.slots[3 * i].load(Ordering::Relaxed);
            let ts_ns = self.slots[3 * i + 1].load(Ordering::Relaxed);
            let arg = self.slots[3 * i + 2].load(Ordering::Relaxed);
            let tenant32 = (meta >> 32) as u32;
            events.push(TraceEvent {
                kind: TraceKind::from_bits(meta as u8),
                op: TraceOp::from_bits((meta >> 8) as u8),
                tenant: (tenant32 != TENANT_NONE).then_some(tenant32),
                ts_ns,
                arg,
            });
        }
        ThreadTrace {
            tid: self.tid.load(Ordering::Relaxed) as usize,
            label: self.label.lock().unwrap_or_else(|e| e.into_inner()).clone(),
            events,
            drops: self.drops.load(Ordering::Relaxed),
        }
    }

    /// Empties the ring (events and drop count).
    fn clear(&self) {
        self.drops.store(0, Ordering::Relaxed);
        self.cursor.store(0, Ordering::Release);
    }
}

/// The process-global ring table.
struct Registry {
    /// Rings of running threads.
    live: Vec<Arc<Ring>>,
    /// Cleared rings of exited threads, handed to the next new thread.
    free: Vec<Arc<Ring>>,
    /// What exited threads recorded, until [`reset_trace`].
    retired: Vec<ThreadTrace>,
    /// The export id the next registering thread gets.
    next_tid: usize,
    /// Rings allocated so far; none is ever freed.
    allocated: usize,
    /// The most rings ever live at once.
    peak_live: usize,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    live: Vec::new(),
    free: Vec::new(),
    retired: Vec::new(),
    next_tid: 0,
    allocated: 0,
    peak_live: 0,
});

fn registry() -> std::sync::MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// How many event rings exist, against how many threads ever held one
/// at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingStats {
    /// Rings allocated so far, live or waiting in the free pool. A ring
    /// is allocated only when no exited thread's ring is free, so this
    /// never exceeds `peak_live`.
    pub allocated: usize,
    /// The most rings ever held by running threads at once.
    pub peak_live: usize,
}

/// The calling thread's ring; retires it when the thread exits.
struct RingHandle(Arc<Ring>);

impl Drop for RingHandle {
    fn drop(&mut self) {
        let mut reg = registry();
        reg.live.retain(|r| !Arc::ptr_eq(r, &self.0));
        let trace = self.0.snapshot();
        if !trace.events.is_empty() || trace.drops > 0 {
            reg.retired.push(trace);
        }
        self.0.clear();
        self.0
            .label
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        reg.free.push(Arc::clone(&self.0));
    }
}

/// 0 = undecided (consult `CMCC_TRACE` on first use), 1 = off, 2 = on.
static TRACE_ENABLED: AtomicU8 = AtomicU8::new(0);

/// The process trace epoch: all timestamps are nanoseconds since the
/// first clock read, so every thread shares one timeline.
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static RING: OnceCell<RingHandle> = const { OnceCell::new() };
    static TENANT: Cell<u32> = const { Cell::new(TENANT_NONE) };
}

fn this_ring<R>(f: impl FnOnce(&Ring) -> R) -> Option<R> {
    RING.try_with(|cell| {
        let handle = cell.get_or_init(|| {
            let mut reg = registry();
            let ring = match reg.free.pop() {
                Some(ring) => ring,
                None => {
                    reg.allocated += 1;
                    Arc::new(Ring::new())
                }
            };
            ring.tid.store(reg.next_tid as u64, Ordering::Relaxed);
            reg.next_tid += 1;
            reg.live.push(Arc::clone(&ring));
            reg.peak_live = reg.peak_live.max(reg.live.len());
            RingHandle(ring)
        });
        f(&handle.0)
    })
    .ok()
}

/// The ring table's size: allocated rings, and the most recording
/// threads ever live at once.
pub fn ring_stats() -> RingStats {
    let reg = registry();
    RingStats {
        allocated: reg.allocated,
        peak_live: reg.peak_live,
    }
}

/// Whether the flight recorder is currently recording.
///
/// The first call (unless [`set_trace_enabled`] ran earlier) latches the
/// `CMCC_TRACE` environment variable: unset, empty, or `0` means off.
#[inline]
pub fn trace_enabled() -> bool {
    match TRACE_ENABLED.load(Ordering::Relaxed) {
        0 => {
            let on = std::env::var("CMCC_TRACE")
                .map(|v| !v.is_empty() && v != "0")
                .unwrap_or(false);
            TRACE_ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
        1 => false,
        _ => true,
    }
}

/// Turns the flight recorder on or off for the whole process, overriding
/// the environment. Recorded events are kept; use [`reset_trace`] to
/// clear them.
pub fn set_trace_enabled(on: bool) {
    TRACE_ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Nanoseconds since the process trace epoch. Monotone per thread (and
/// across threads, up to the clock's own guarantees).
pub fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Tags the calling thread's subsequent events with a tenant id (or
/// clears the tag with `None`). Serve-mode workers set this once before
/// draining their tenant's statements; per-tenant attribution reads it
/// back from the events.
pub fn set_tenant(tenant: Option<u32>) {
    let _ = TENANT.try_with(|t| t.set(tenant.unwrap_or(TENANT_NONE)));
}

/// Labels the calling thread's track in the exported trace (the Chrome
/// `thread_name` metadata).
pub fn set_thread_label(label: &str) {
    let _ = this_ring(|ring| {
        *ring.label.lock().unwrap_or_else(|e| e.into_inner()) = label.to_string();
    });
}

/// Appends one event to the calling thread's ring. No-op (one relaxed
/// load) when tracing is disabled; drops the event (counted) when the
/// ring is full or the thread is tearing down.
#[inline]
pub fn record(kind: TraceKind, op: TraceOp, arg: u64) {
    if !trace_enabled() {
        return;
    }
    let ts = now_ns();
    let tenant = TENANT.try_with(Cell::get).unwrap_or(TENANT_NONE);
    let _ = this_ring(|ring| ring.push(kind, op, tenant, ts, arg));
}

/// A live trace slice: emits a begin event at creation ([`scope`]) and
/// the matching end event on drop. Inert when tracing was disabled at
/// creation.
#[derive(Debug)]
#[must_use = "a trace scope marks the region it is bound to; binding it to _ drops it immediately"]
pub struct TraceScope {
    op: TraceOp,
    live: bool,
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        if self.live {
            record(TraceKind::End, self.op, 0);
        }
    }
}

/// Opens a duration slice for `op` with `arg` on the begin event; the
/// returned guard closes it on drop.
#[inline]
pub fn scope(op: TraceOp, arg: u64) -> TraceScope {
    let live = trace_enabled();
    if live {
        record(TraceKind::Begin, op, arg);
    }
    TraceScope { op, live }
}

/// Clears every live ring (cursor, drop count; labels are kept) and
/// forgets what exited threads recorded. Call only when no instrumented
/// work is in flight — a concurrent writer could interleave with the
/// clear and leave a partial prefix.
pub fn reset_trace() {
    let mut reg = registry();
    for ring in &reg.live {
        ring.clear();
    }
    reg.retired.clear();
}

/// Snapshots every thread's recorded events (live and exited threads
/// alike), in thread-registration order. Each thread's event list is a
/// consistent prefix of what it recorded.
pub fn threads() -> Vec<ThreadTrace> {
    let reg = registry();
    let mut out: Vec<ThreadTrace> = reg.live.iter().map(|r| r.snapshot()).collect();
    out.extend(reg.retired.iter().cloned());
    out.sort_by_key(|t| t.tid);
    out
}

/// Total events dropped across all threads since the last
/// [`reset_trace`].
pub fn total_drops() -> u64 {
    let reg = registry();
    reg.live
        .iter()
        .map(|r| r.drops.load(Ordering::Relaxed))
        .chain(reg.retired.iter().map(|t| t.drops))
        .sum()
}

/// One begin/end-paired flight-recorder slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// The operation the slice times.
    pub op: TraceOp,
    /// The recording thread's tenant id, if one was set.
    pub tenant: Option<u32>,
    /// End timestamp minus begin timestamp.
    pub dur_ns: u64,
    /// The end event's argument (e.g. the conflicted flag of a
    /// `lease_acquire` slice).
    pub end_arg: u64,
}

/// Pairs each thread's begin/end events stack-wise per operation and
/// returns the completed slices whose begin timestamp is at or after
/// `since_ns` (0 keeps everything). Unmatched ends (begin before the
/// recorder was reset or dropped on overflow) are ignored.
pub fn pair_slices(threads: &[ThreadTrace], since_ns: u64) -> Vec<Slice> {
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

/// Per-operation duration histograms over a slice set, indexed by
/// `TraceOp as usize`.
pub fn phase_hists(slices: &[Slice]) -> Vec<Histogram> {
    let mut hists: Vec<Histogram> = (0..TRACE_OP_COUNT).map(|_| Histogram::new()).collect();
    for s in slices {
        hists[s.op as usize].record(s.dur_ns);
    }
    hists
}

fn escape_json(s: &str, out: &mut String) {
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Renders every recorded event as Chrome trace-event JSON (the
/// `{"traceEvents":[...]}` object format), loadable in `chrome://tracing`
/// or Perfetto.
///
/// * one `tid` per recording thread (registration order), with
///   `thread_name` metadata when a label was set;
/// * `B`/`E` duration events named by [`TraceOp::name`], with `args.arg`
///   carrying the event's argument word and `args.tenant` the recording
///   thread's tenant tag;
/// * async `b`/`e` pairs (category `"tenant"`, `id` = the event's `arg`)
///   for [`TraceKind::AsyncBegin`] / [`TraceKind::AsyncEnd`], giving each
///   tenant its own track;
/// * timestamps in microseconds (fractional) since the process epoch,
///   globally sorted.
pub fn chrome_trace_json() -> String {
    use std::fmt::Write as _;
    let threads = threads();
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut emit = |s: &str, out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push('\n');
        out.push_str(s);
    };
    let mut line = String::new();
    line.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"cmcc\"}}",
    );
    emit(&line, &mut out);
    for t in &threads {
        if !t.label.is_empty() {
            line.clear();
            line.push_str("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
            write!(line, "{}", t.tid).unwrap();
            line.push_str(",\"args\":{\"name\":\"");
            escape_json(&t.label, &mut line);
            line.push_str("\"}}");
            emit(&line, &mut out);
        }
    }
    // Merge all threads' events into one globally ts-sorted stream.
    // The sort is stable and each thread's slice is pre-sorted (monotone
    // clock), so per-tid B/E nesting order is preserved under ties.
    let mut all: Vec<(u64, usize, &TraceEvent)> = Vec::new();
    for t in &threads {
        for e in &t.events {
            all.push((e.ts_ns, t.tid, e));
        }
    }
    all.sort_by_key(|&(ts, _, _)| ts);
    for (ts, tid, e) in all {
        line.clear();
        let ph = match e.kind {
            TraceKind::Begin => "B",
            TraceKind::End => "E",
            TraceKind::Instant => "i",
            TraceKind::AsyncBegin => "b",
            TraceKind::AsyncEnd => "e",
        };
        write!(
            line,
            "{{\"name\":\"{}\",\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{}.{:03}",
            e.op.name(),
            ph,
            tid,
            ts / 1000,
            ts % 1000
        )
        .unwrap();
        match e.kind {
            TraceKind::AsyncBegin | TraceKind::AsyncEnd => {
                write!(line, ",\"cat\":\"tenant\",\"id\":{}", e.arg).unwrap();
            }
            TraceKind::Instant => line.push_str(",\"s\":\"t\""),
            _ => {}
        }
        write!(line, ",\"args\":{{\"arg\":{}", e.arg).unwrap();
        if let Some(tenant) = e.tenant {
            write!(line, ",\"tenant\":{tenant}").unwrap();
        }
        line.push_str("}}");
        emit(&line, &mut out);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trace state is process-global; tests that write it serialize on
    /// the same lock the counter tests use.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _guard = lock();
        set_trace_enabled(false);
        reset_trace();
        record(TraceKind::Instant, TraceOp::Execute, 7);
        let _s = scope(TraceOp::Execute, 0);
        drop(_s);
        assert!(threads().iter().all(|t| t.events.is_empty()));
    }

    #[test]
    fn events_round_trip_with_tenant_and_order() {
        let _guard = lock();
        set_trace_enabled(true);
        reset_trace();
        set_tenant(Some(3));
        {
            let _s = scope(TraceOp::HaloExchange, 123);
        }
        record(TraceKind::Instant, TraceOp::KernelSweep, 9);
        set_tenant(None);
        set_trace_enabled(false);
        let mine: Vec<TraceEvent> = threads()
            .into_iter()
            .flat_map(|t| t.events)
            .filter(|e| e.op != TraceOp::Statement)
            .collect();
        assert_eq!(mine.len(), 3);
        assert_eq!(mine[0].kind, TraceKind::Begin);
        assert_eq!(mine[0].op, TraceOp::HaloExchange);
        assert_eq!(mine[0].arg, 123);
        assert_eq!(mine[0].tenant, Some(3));
        assert_eq!(mine[1].kind, TraceKind::End);
        assert_eq!(mine[2].kind, TraceKind::Instant);
        assert!(mine[0].ts_ns <= mine[1].ts_ns && mine[1].ts_ns <= mine[2].ts_ns);
        reset_trace();
        assert!(threads().iter().all(|t| t.events.is_empty()));
    }

    #[test]
    fn chrome_export_is_valid_shape() {
        let _guard = lock();
        set_trace_enabled(true);
        reset_trace();
        set_thread_label("test \"main\"");
        {
            let _s = scope(TraceOp::Execute, 0);
        }
        record(TraceKind::AsyncBegin, TraceOp::Statement, 5);
        record(TraceKind::AsyncEnd, TraceOp::Statement, 5);
        set_trace_enabled(false);
        let json = chrome_trace_json();
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"name\":\"thread_name\""));
        assert!(json.contains("test \\\"main\\\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        reset_trace();
    }

    #[test]
    fn op_names_are_distinct_and_phase_map_total() {
        let mut names: Vec<&str> = TraceOp::ALL.iter().map(|o| o.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), TRACE_OP_COUNT);
        for phase in crate::Phase::ALL {
            assert_eq!(TraceOp::from_phase(phase).name(), phase.key());
        }
    }
}
